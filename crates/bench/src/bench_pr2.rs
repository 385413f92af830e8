//! `df3-experiments bench` — the PR 2 performance-trajectory harness.
//!
//! PR 2's tentpole is the district-scale thermal fast path: the SoA
//! [`ThermalBatch`] kernel with cached decay coefficients, and the
//! pre-tabulated [`WeatherTable`]. This harness times the new paths
//! against their scalar/analytic references and writes `BENCH_PR2.json`
//! at the repository root:
//!
//! 1. **Thermal kernel microbench** — N staged rooms advanced by one
//!    batched sweep versus N scalar [`Room::step`] calls, at 1 k and
//!    10 k rooms (the district scale §III contemplates).
//! 2. **Weather microbench** — [`WeatherTable::outdoor_c`] (lerp over a
//!    flat table) versus the analytic [`Weather::outdoor_c`]
//!    (seasonal + diurnal cosines + noise lerp per query).
//! 3. **District run** — the full platform at ≥1,000 Q.rads across
//!    ~100 buildings, once per thermal mode (batched / scalar
//!    reference), asserting the two runs are *bit-identical* in every
//!    recorded statistic.
//! 4. **PR 1 re-run** — the queue/year/sweep trajectory numbers
//!    regenerated under this build, nested as `"pr1"`, so the
//!    trajectory stays comparable across PRs.

use crate::bench_pr1::{self, jf, json_kv, BenchReport};
use df3_core::{Platform, PlatformConfig};
use simcore::report::{f2, Table};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::time::Instant;
use thermal::room::{Room, RoomParams};
use thermal::weather::{Weather, WeatherConfig, WeatherTable};
use thermal::ThermalBatch;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::Flow;

/// Batched-vs-scalar timing of one fleet-wide thermal step.
#[derive(Debug, Clone)]
pub struct ThermalKernelBench {
    pub rooms: usize,
    /// Fleet sweeps timed (after one warm-up sweep per mode).
    pub sweeps: u64,
    /// The fused uniform-Δ kernel (`ThermalBatch::step_uniform`).
    pub batched_ns_per_room: f64,
    /// The two-pass stage + sweep path the platform control tick uses
    /// (per-room Δ support costs one extra pass over the columns).
    pub staged_ns_per_room: f64,
    pub scalar_ns_per_room: f64,
    /// scalar / batched time ratio (>1 means the batch is faster).
    pub speedup: f64,
}

/// Tabulated-vs-analytic weather lookup timing.
#[derive(Debug, Clone)]
pub struct WeatherLookupBench {
    pub lookups: u64,
    pub table_ns_per_lookup: f64,
    pub analytic_ns_per_lookup: f64,
    /// analytic / table time ratio (>1 means the table is faster).
    pub speedup: f64,
    /// Largest |table − analytic| over the probed instants, °C.
    pub max_abs_dev_c: f64,
}

/// One district run in one thermal mode.
#[derive(Debug, Clone)]
pub struct DistrictModeRun {
    pub events: u64,
    pub wall_s: f64,
    pub events_per_sec: f64,
    pub df_total_kwh: f64,
    pub edge_p99_ms: f64,
}

/// The paired district-scale platform run.
#[derive(Debug, Clone)]
pub struct DistrictBench {
    pub qrads: usize,
    pub clusters: usize,
    pub horizon_hours: i64,
    pub batched: DistrictModeRun,
    pub scalar: DistrictModeRun,
    /// scalar / batched wall-clock ratio.
    pub speedup: f64,
    /// Same events, bit-equal kWh and latency stats across modes.
    pub bit_identical: bool,
}

/// Everything PR 2's `bench` measures (serialised to `BENCH_PR2.json`).
#[derive(Debug, Clone)]
pub struct BenchPr2Report {
    pub engine_queue: &'static str,
    pub thermal_1k: ThermalKernelBench,
    pub thermal_10k: ThermalKernelBench,
    pub weather: WeatherLookupBench,
    pub district: DistrictBench,
    /// The PR 1 trajectory regenerated under this build.
    pub pr1: BenchReport,
}

/// Time `sweeps` staged fleet sweeps of the batched kernel and the same
/// work through scalar `Room::step` calls; best-of-3 passes per mode.
pub fn thermal_kernel_bench(rooms: usize, sweeps: u64) -> ThermalKernelBench {
    let dt = SimDuration::from_secs(600);
    let outdoor = 5.0;
    // Heater powers vary per room so neither kernel can special-case a
    // uniform fleet; the tape is precomputed so the timed region is
    // thermal work, not power bookkeeping (both modes read the same
    // slice).
    let powers: Vec<f64> = (0..rooms).map(|i| (i % 500) as f64).collect();

    let fleet = || {
        let mut batch = ThermalBatch::with_capacity(rooms);
        for i in 0..rooms {
            batch.push(
                RoomParams::typical_apartment_room(),
                16.0 + (i % 40) as f64 / 20.0,
            );
        }
        batch
    };
    let batched_pass = || {
        let mut batch = fleet();
        // Warm-up sweep: populates the decay cache the way a platform's
        // first control tick does.
        batch.step_uniform(dt, outdoor, &powers);
        let t0 = Instant::now();
        for _ in 0..sweeps {
            batch.step_uniform(dt, outdoor, &powers);
        }
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(batch.temperature_c(0));
        s
    };
    let staged_pass = || {
        let mut batch = fleet();
        for (i, &p) in powers.iter().enumerate() {
            batch.stage(i, dt, p);
        }
        batch.step_staged(outdoor);
        let t0 = Instant::now();
        for _ in 0..sweeps {
            for (i, &p) in powers.iter().enumerate() {
                batch.stage(i, dt, p);
            }
            batch.step_staged(outdoor);
        }
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(batch.temperature_c(0));
        s
    };
    let scalar_pass = || {
        let mut fleet: Vec<Room> = (0..rooms)
            .map(|i| {
                Room::new(
                    RoomParams::typical_apartment_room(),
                    16.0 + (i % 40) as f64 / 20.0,
                )
            })
            .collect();
        for (room, &p) in fleet.iter_mut().zip(&powers) {
            room.step(dt, outdoor, p);
        }
        let t0 = Instant::now();
        let mut last = 0.0;
        for _ in 0..sweeps {
            for (room, &p) in fleet.iter_mut().zip(&powers) {
                last = room.step(dt, outdoor, p);
            }
        }
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(last);
        s
    };

    let mut batched_s = f64::INFINITY;
    let mut staged_s = f64::INFINITY;
    let mut scalar_s = f64::INFINITY;
    for _ in 0..5 {
        batched_s = batched_s.min(batched_pass());
        staged_s = staged_s.min(staged_pass());
        scalar_s = scalar_s.min(scalar_pass());
    }
    let steps = (rooms as u64 * sweeps) as f64;
    ThermalKernelBench {
        rooms,
        sweeps,
        batched_ns_per_room: batched_s * 1e9 / steps,
        staged_ns_per_room: staged_s * 1e9 / steps,
        scalar_ns_per_room: scalar_s * 1e9 / steps,
        speedup: scalar_s / batched_s,
    }
}

/// Time `lookups` weather queries through the table and the analytic
/// model, and record the largest divergence between them.
pub fn weather_lookup_bench(lookups: u64) -> WeatherLookupBench {
    let weather = Weather::generate(
        WeatherConfig::paris(simcore::time::Calendar::NOVEMBER_EPOCH),
        SimDuration::from_days(30),
        &RngStreams::new(9),
    );
    let table = WeatherTable::tabulate(&weather);
    let span_s = 29 * 86_400;

    // Off-grid probe stride (601 s is coprime with the 3 600 s grid) so
    // the lerp path is exercised, not just exact sample hits.
    let mut max_dev = 0.0f64;
    let mut t = 0i64;
    for _ in 0..10_000 {
        t = (t + 601) % span_s;
        let at = SimTime::from_secs(t);
        max_dev = max_dev.max((table.outdoor_c(at) - weather.outdoor_c(at)).abs());
    }

    let time_pass = |f: &dyn Fn(SimTime) -> f64| {
        let mut sink = 0.0;
        let mut t = 0i64;
        let t0 = Instant::now();
        for _ in 0..lookups {
            t = (t + 601) % span_s;
            sink += f(SimTime::from_secs(t));
        }
        let s = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        s
    };
    let mut table_s = f64::INFINITY;
    let mut analytic_s = f64::INFINITY;
    for _ in 0..3 {
        table_s = table_s.min(time_pass(&|at| table.outdoor_c(at)));
        analytic_s = analytic_s.min(time_pass(&|at| weather.outdoor_c(at)));
    }
    WeatherLookupBench {
        lookups,
        table_ns_per_lookup: table_s * 1e9 / lookups as f64,
        analytic_ns_per_lookup: analytic_s * 1e9 / lookups as f64,
        speedup: analytic_s / table_s,
        max_abs_dev_c: max_dev,
    }
}

fn district_mode_run(horizon_hours: i64, scalar: bool, seed: u64) -> DistrictModeRun {
    let mut cfg = PlatformConfig::district_winter();
    cfg.horizon = SimDuration::from_hours(horizon_hours);
    cfg.scalar_thermal = scalar;
    cfg.seed = seed;
    let jobs = location_service_jobs(
        LocationServiceConfig::map_serving(Flow::EdgeIndirect),
        cfg.horizon,
        &RngStreams::new(seed),
        0,
    );
    let t0 = Instant::now();
    let out = Platform::new(cfg).run(&jobs);
    let wall_s = t0.elapsed().as_secs_f64();
    DistrictModeRun {
        events: out.events,
        wall_s,
        events_per_sec: out.events as f64 / wall_s,
        df_total_kwh: out.stats.df_total_kwh,
        edge_p99_ms: out.stats.edge_response_ms.p99(),
    }
}

/// Run the district scenario once per thermal mode, five paired reps.
///
/// The district run is event-dominated (job traffic, not thermals), so
/// absolute wall clocks wobble with ambient machine load. The speedup
/// is therefore the *median of per-rep ratios* — each rep's two runs
/// are adjacent in time and share whatever the machine was doing, so
/// the ratio cancels drift that independent minima would not — and the
/// reported mode runs are the per-mode median wall clocks. Run order
/// alternates per rep so cache warm-up cannot favour one mode.
/// Bit-identity is checked on *every* pairing.
pub fn district_bench(horizon_hours: i64, seed: u64) -> DistrictBench {
    let cfg = PlatformConfig::district_winter();
    let qrads = cfg.n_clusters * cfg.workers_per_cluster;

    let mut reps: Vec<(DistrictModeRun, DistrictModeRun)> = Vec::new();
    let mut bit_identical = true;
    for rep in 0..5 {
        let (b, s) = if rep % 2 == 0 {
            let b = district_mode_run(horizon_hours, false, seed);
            let s = district_mode_run(horizon_hours, true, seed);
            (b, s)
        } else {
            let s = district_mode_run(horizon_hours, true, seed);
            let b = district_mode_run(horizon_hours, false, seed);
            (b, s)
        };
        bit_identical &= b.events == s.events
            && b.df_total_kwh.to_bits() == s.df_total_kwh.to_bits()
            && b.edge_p99_ms.to_bits() == s.edge_p99_ms.to_bits();
        reps.push((b, s));
    }
    let mut ratios: Vec<f64> = reps.iter().map(|(b, s)| s.wall_s / b.wall_s).collect();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speedup = ratios[ratios.len() / 2];
    let median_by_wall = |mut runs: Vec<DistrictModeRun>| {
        runs.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
        runs.swap_remove(runs.len() / 2)
    };
    let batched = median_by_wall(reps.iter().map(|(b, _)| b.clone()).collect());
    let scalar = median_by_wall(reps.iter().map(|(_, s)| s.clone()).collect());
    DistrictBench {
        qrads,
        clusters: cfg.n_clusters,
        horizon_hours,
        speedup,
        bit_identical,
        batched,
        scalar,
    }
}

impl BenchPr2Report {
    /// Hand-rolled JSON (the workspace deliberately has no serde_json).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        json_kv(&mut s, "  ", "pr", "2".into(), false);
        json_kv(
            &mut s,
            "  ",
            "engine_queue",
            format!("\"{}\"", self.engine_queue),
            false,
        );
        for (key, t) in [
            ("thermal_batch_1k", &self.thermal_1k),
            ("thermal_batch_10k", &self.thermal_10k),
        ] {
            s.push_str(&format!("  \"{key}\": {{\n"));
            json_kv(&mut s, "    ", "rooms", t.rooms.to_string(), false);
            json_kv(&mut s, "    ", "sweeps", t.sweeps.to_string(), false);
            json_kv(
                &mut s,
                "    ",
                "batched_ns_per_room",
                jf(t.batched_ns_per_room),
                false,
            );
            json_kv(
                &mut s,
                "    ",
                "staged_ns_per_room",
                jf(t.staged_ns_per_room),
                false,
            );
            json_kv(
                &mut s,
                "    ",
                "scalar_ns_per_room",
                jf(t.scalar_ns_per_room),
                false,
            );
            json_kv(&mut s, "    ", "speedup", jf(t.speedup), true);
            s.push_str("  },\n");
        }
        s.push_str("  \"weather_table\": {\n");
        let w = &self.weather;
        json_kv(&mut s, "    ", "lookups", w.lookups.to_string(), false);
        json_kv(
            &mut s,
            "    ",
            "table_ns_per_lookup",
            jf(w.table_ns_per_lookup),
            false,
        );
        json_kv(
            &mut s,
            "    ",
            "analytic_ns_per_lookup",
            jf(w.analytic_ns_per_lookup),
            false,
        );
        json_kv(&mut s, "    ", "speedup", jf(w.speedup), false);
        json_kv(
            &mut s,
            "    ",
            "max_abs_dev_c",
            format!("{:.6}", w.max_abs_dev_c),
            true,
        );
        s.push_str("  },\n");
        s.push_str("  \"district_run\": {\n");
        let d = &self.district;
        json_kv(&mut s, "    ", "qrads", d.qrads.to_string(), false);
        json_kv(&mut s, "    ", "clusters", d.clusters.to_string(), false);
        json_kv(
            &mut s,
            "    ",
            "horizon_hours",
            d.horizon_hours.to_string(),
            false,
        );
        for (key, m) in [("batched", &d.batched), ("scalar", &d.scalar)] {
            s.push_str(&format!("    \"{key}\": {{\n"));
            json_kv(&mut s, "      ", "events", m.events.to_string(), false);
            json_kv(&mut s, "      ", "wall_s", jf(m.wall_s), false);
            json_kv(
                &mut s,
                "      ",
                "events_per_sec",
                jf(m.events_per_sec),
                false,
            );
            json_kv(&mut s, "      ", "df_total_kwh", jf(m.df_total_kwh), false);
            json_kv(&mut s, "      ", "edge_p99_ms", jf(m.edge_p99_ms), true);
            s.push_str("    },\n");
        }
        json_kv(&mut s, "    ", "speedup", jf(d.speedup), false);
        json_kv(
            &mut s,
            "    ",
            "bit_identical",
            d.bit_identical.to_string(),
            true,
        );
        s.push_str("  },\n");
        // The regenerated PR 1 trajectory, nested verbatim.
        s.push_str("  \"pr1\": ");
        let pr1 = self.pr1.to_json();
        let mut lines = pr1.trim_end().lines();
        if let Some(first) = lines.next() {
            s.push_str(first);
            s.push('\n');
        }
        for line in lines {
            s.push_str("  ");
            s.push_str(line);
            s.push('\n');
        }
        s.push('}');
        s.push('\n');
        s
    }
}

/// Run the full PR 2 harness. `fast` shrinks every stage to CI scale
/// (the committed `BENCH_PR2.json` comes from a full run).
pub fn run(fast: bool) -> (BenchPr2Report, Table) {
    let seed = 0xDF3_2018;
    let sweeps = if fast { 20 } else { 200 };
    let thermal_1k = thermal_kernel_bench(1_000, sweeps);
    let thermal_10k = thermal_kernel_bench(10_000, sweeps);
    let weather = weather_lookup_bench(if fast { 200_000 } else { 2_000_000 });
    let district = district_bench(if fast { 6 } else { 24 * 7 }, seed);
    let (pr1, _) = bench_pr1::run(fast);
    let report = BenchPr2Report {
        engine_queue: "slab",
        thermal_1k,
        thermal_10k,
        weather,
        district,
        pr1,
    };
    let mut table = Table::new(&format!(
        "PR 2 performance trajectory (engine queue: {})",
        report.engine_queue
    ))
    .headers(&["metric", "value", "note"]);
    for t in [&report.thermal_1k, &report.thermal_10k] {
        table.row(&[
            format!("thermal batched ns/room ({})", t.rooms),
            f2(t.batched_ns_per_room),
            format!("{} sweeps, decay cache warm", t.sweeps),
        ]);
        table.row(&[
            format!("thermal staged ns/room ({})", t.rooms),
            f2(t.staged_ns_per_room),
            "stage + sweep (platform path)".into(),
        ]);
        table.row(&[
            format!("thermal scalar ns/room ({})", t.rooms),
            f2(t.scalar_ns_per_room),
            "Room::step reference".into(),
        ]);
        table.row(&[
            format!("thermal speedup ({})", t.rooms),
            f2(t.speedup),
            "scalar / batched (target ≥ 2 at 10 k)".into(),
        ]);
    }
    table.row(&[
        "weather table ns/lookup".into(),
        f2(report.weather.table_ns_per_lookup),
        format!("max dev {:.4} °C", report.weather.max_abs_dev_c),
    ]);
    table.row(&[
        "weather analytic ns/lookup".into(),
        f2(report.weather.analytic_ns_per_lookup),
        format!("speedup {:.2}", report.weather.speedup),
    ]);
    table.row(&[
        "district batched events/s".into(),
        f2(report.district.batched.events_per_sec),
        format!(
            "{} Q.rads, {} events in {:.2} s",
            report.district.qrads, report.district.batched.events, report.district.batched.wall_s
        ),
    ]);
    table.row(&[
        "district scalar events/s".into(),
        f2(report.district.scalar.events_per_sec),
        format!("wall {:.2} s", report.district.scalar.wall_s),
    ]);
    table.row(&[
        "district speedup".into(),
        f2(report.district.speedup),
        format!(
            "bit-identical: {}",
            if report.district.bit_identical {
                "yes"
            } else {
                "NO — kernel divergence"
            }
        ),
    ]);
    table.row(&[
        "pr1 year run events/s".into(),
        f2(report.pr1.year.events_per_sec),
        format!("re-run; {} events", report.pr1.year.events),
    ]);
    (report, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_kernel_bench_runs_and_batch_is_not_slower() {
        let t = thermal_kernel_bench(512, 8);
        assert_eq!(t.rooms, 512);
        assert!(t.batched_ns_per_room > 0.0 && t.scalar_ns_per_room > 0.0);
        // The decisive ≥2× number is recorded by the release-built
        // `df3-experiments bench`; an unoptimised build pays per-index
        // bounds checks in the fused loop and proves nothing about the
        // kernel, so only assert the ratio when optimised.
        if !cfg!(debug_assertions) {
            assert!(
                t.speedup > 0.8,
                "batched kernel must not regress vs scalar: {}",
                t.speedup
            );
        }
    }

    #[test]
    fn weather_lookup_bench_stays_close_to_analytic() {
        let w = weather_lookup_bench(50_000);
        assert!(w.table_ns_per_lookup > 0.0 && w.analytic_ns_per_lookup > 0.0);
        // Diurnal-cosine curvature between hourly samples bounds the
        // lerp error well under a twentieth of a degree.
        assert!(w.max_abs_dev_c < 0.05, "table dev {} °C", w.max_abs_dev_c);
    }

    #[test]
    fn district_modes_are_bit_identical() {
        let d = district_bench(2, 0xD15);
        assert!(d.qrads >= 1_000, "district floor: {} Q.rads", d.qrads);
        assert!(d.bit_identical, "batched vs scalar diverged");
        assert!(d.batched.events > 0);
        assert_eq!(d.batched.events, d.scalar.events);
    }

    #[test]
    fn report_serialises_to_wellformed_json() {
        let t = ThermalKernelBench {
            rooms: 1000,
            sweeps: 10,
            batched_ns_per_room: 2.0,
            staged_ns_per_room: 4.0,
            scalar_ns_per_room: 20.0,
            speedup: 10.0,
        };
        let m = DistrictModeRun {
            events: 100,
            wall_s: 1.0,
            events_per_sec: 100.0,
            df_total_kwh: 5.0,
            edge_p99_ms: 30.0,
        };
        let (pr1, _) = {
            // A minimal PR 1 report without running the heavy stages.
            use crate::bench_pr1::{QueueBench, SweepBench, YearBench};
            let qb = QueueBench {
                ops: 10,
                slab_ns_per_op: 1.0,
                legacy_ns_per_op: 2.0,
                slab_events_per_sec: 1e9,
                legacy_events_per_sec: 5e8,
                speedup: 2.0,
            };
            (
                BenchReport {
                    engine_queue: "slab",
                    queue: qb.clone(),
                    queue_preempt: qb,
                    year: YearBench {
                        scale: 0.02,
                        events: 5,
                        wall_s: 1.0,
                        events_per_sec: 5.0,
                        peak_queue_depth: 3,
                        completion: 0.99,
                    },
                    sweep: SweepBench {
                        replications: 4,
                        horizon_hours: 6,
                        wall_s: 1.0,
                        events_total: 100,
                        events_per_sec: 100.0,
                    },
                },
                (),
            )
        };
        let report = BenchPr2Report {
            engine_queue: "slab",
            thermal_1k: t.clone(),
            thermal_10k: t,
            weather: WeatherLookupBench {
                lookups: 1000,
                table_ns_per_lookup: 3.0,
                analytic_ns_per_lookup: 30.0,
                speedup: 10.0,
                max_abs_dev_c: 0.01,
            },
            district: DistrictBench {
                qrads: 1000,
                clusters: 100,
                horizon_hours: 6,
                batched: m.clone(),
                scalar: m,
                speedup: 1.5,
                bit_identical: true,
            },
            pr1,
        };
        let j = report.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for key in [
            "thermal_batch_1k",
            "thermal_batch_10k",
            "weather_table",
            "district_run",
            "bit_identical",
            "pr1",
            "queue_microbench_steady",
            "year_run",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(!j.contains(",\n  }"), "trailing comma");
        assert!(!j.contains(",\n}"), "trailing comma");
    }
}
