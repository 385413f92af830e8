//! `df3-experiments bench` — the PR 1 performance-trajectory harness.
//!
//! Times the simulation hot path at three grains and writes the numbers
//! to `BENCH_PR1.json` at the repository root so the speedups claimed in
//! the PR are reproducible from source:
//!
//! 1. **Queue microbench** — an identical schedule/cancel/pop trace
//!    driven through the slab-backed [`SlabEventQueue`] and the pre-slab
//!    [`LegacyEventQueue`] (`BinaryHeap` + two `HashSet` side tables),
//!    in-process, so the speedup ratio is measured under one build.
//! 2. **Canonical year run** — a scaled 2016 rendering year (E9's
//!    workload) through the full platform: wall-clock, events/sec, and
//!    peak queue depth.
//! 3. **Replication sweep** — the Monte-Carlo `replicate()` path that
//!    every experiment table goes through.
//!
//! The engine always runs the slab queue; the report's `engine_queue`
//! field records it as "slab".

use df3_core::{Platform, PlatformConfig};
use simcore::report::{f2, Table};
use simcore::runner::{replicate, row};
use simcore::time::{Calendar, SimDuration, SimTime};
use simcore::{LegacyEventQueue, RngStreams, SlabEventQueue};
use std::time::Instant;
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::render::{RenderCalibration, RenderYear};
use workloads::Flow;

/// Results of one queue microbench mix (both impls, identical trace).
#[derive(Debug, Clone)]
pub struct QueueBench {
    /// Operations in the trace (schedules + cancels + pops).
    pub ops: u64,
    pub slab_ns_per_op: f64,
    pub legacy_ns_per_op: f64,
    /// Pure pop throughput of the engine-selected hot path, events/s.
    pub slab_events_per_sec: f64,
    pub legacy_events_per_sec: f64,
    /// legacy / slab time ratio (>1 means the slab queue is faster).
    pub speedup: f64,
}

/// Results of the canonical year-long platform run.
#[derive(Debug, Clone)]
pub struct YearBench {
    pub scale: f64,
    pub events: u64,
    pub wall_s: f64,
    pub events_per_sec: f64,
    pub peak_queue_depth: usize,
    pub completion: f64,
}

/// Results of the replication sweep.
#[derive(Debug, Clone)]
pub struct SweepBench {
    pub replications: usize,
    pub horizon_hours: i64,
    pub wall_s: f64,
    pub events_total: u64,
    pub events_per_sec: f64,
}

/// Everything `bench` measures (serialised to `BENCH_PR1.json`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which queue the *engine* runs (always "slab").
    pub engine_queue: &'static str,
    /// Steady-state schedule/cancel/pop mix at platform depths.
    pub queue: QueueBench,
    /// Preemption-storm mix (batch schedule, cancel half, drain).
    pub queue_preempt: QueueBench,
    pub year: YearBench,
    pub sweep: SweepBench,
}

/// Payload sized like the platform's `Ev` enum (a `Job` plus venue
/// bookkeeping, ≈100 bytes): what the legacy queue moved through every
/// heap sift, and what the slab queue leaves parked in its slab.
type FatEvent = [u64; 12];

/// Drive one queue through the canonical trace; returns (ops, seconds).
macro_rules! queue_trace {
    ($Q:ty, $n:expr) => {{
        let n: u64 = $n;
        let mut q = <$Q>::with_capacity(4096);
        // Recent ids ring for cancels (platform cancels recently
        // scheduled finish events, not ancient ones).
        let mut recent = [None; 256];
        let mut x: u64 = 0xDF3_0001;
        let mut ops: u64 = 0;
        let mut sink: u64 = 0;
        let t0 = Instant::now();
        // Steady state near the platform's observed pending depth
        // (hundreds of events), not an ever-growing heap.
        for _ in 0..256u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = SimTime::from_micros(((x >> 16) % 100_000_000) as i64);
            q.schedule(t, [x; 12] as FatEvent);
        }
        for _ in 0..n {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Hold the queue inside a realistic band: the mix drifts
            // slightly toward draining, so refill below 128 and relieve
            // above 1 k; both heaps stay at platform-run depths.
            let kind = if q.len() < 128 {
                0
            } else if q.len() > 1_024 {
                7
            } else {
                x % 10
            };
            match kind {
                // 40 % schedule.
                0..=3 => {
                    let t = SimTime::from_micros(((x >> 16) % 100_000_000) as i64);
                    let id = q.schedule(t, [x; 12] as FatEvent);
                    recent[(x >> 40) as usize % 256] = Some(id);
                    ops += 1;
                }
                // 20 % cancel a recently issued id (preemptions,
                // failures, timer re-arms).
                4..=5 => {
                    if let Some(id) = recent[(x >> 32) as usize % 256].take() {
                        q.cancel(id);
                        ops += 1;
                    }
                }
                // 40 % pop.
                _ => {
                    if let Some((_, v)) = q.pop() {
                        sink ^= v[0];
                    }
                    ops += 1;
                }
            }
        }
        while let Some((_, v)) = q.pop() {
            sink ^= v[0];
            ops += 1;
        }
        std::hint::black_box(sink);
        (ops, t0.elapsed().as_secs_f64())
    }};
}

/// Rounds of (schedule a batch, cancel half of it, drain): the pattern
/// a preemption storm or failure burst produces, and the case the
/// generation-tag design targets — the legacy queue pays three hash-set
/// operations per cancelled event *and* still moves it through the
/// heap; the slab queue bumps a generation counter.
macro_rules! queue_rounds {
    ($Q:ty, $rounds:expr) => {{
        // Batch sized to the platform's observed peak pending depth
        // (hundreds of events), so the trace measures the queue at the
        // depths the engine actually runs it, not an artificial pile.
        const BATCH: usize = 256;
        // Pre-generate the time tape so the timed region is queue work,
        // not PRNG work.
        let mut x: u64 = 0xDF3_0002;
        let times: Vec<SimTime> = (0..BATCH)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                SimTime::from_micros(((x >> 16) % 100_000_000) as i64)
            })
            .collect();
        let mut q = <$Q>::with_capacity(BATCH);
        let mut ids = Vec::with_capacity(BATCH);
        let mut ops: u64 = 0;
        let mut sink: u64 = 0;
        let t0 = Instant::now();
        for round in 0..$rounds {
            ids.clear();
            for (i, &t) in times.iter().enumerate() {
                ids.push(q.schedule(t, [i as u64 ^ round; 12] as FatEvent));
                ops += 1;
            }
            for (i, &id) in ids.iter().enumerate() {
                if i % 2 == 0 {
                    q.cancel(id);
                    ops += 1;
                }
            }
            while let Some((_, v)) = q.pop() {
                sink ^= v[0];
                ops += 1;
            }
        }
        std::hint::black_box(sink);
        (ops, t0.elapsed().as_secs_f64())
    }};
}

/// Run the in-process slab-vs-legacy steady-state queue microbench.
/// Best-of-3 passes per implementation to shed scheduler noise.
pub fn queue_bench(n: u64) -> QueueBench {
    // Warm-up pass (page in, warm caches), then the measured passes.
    let _ = queue_trace!(SlabEventQueue<FatEvent>, n / 4);
    let _ = queue_trace!(LegacyEventQueue<FatEvent>, n / 4);
    let mut slab = (0u64, f64::INFINITY);
    let mut leg = (0u64, f64::INFINITY);
    for _ in 0..3 {
        let (o, s) = queue_trace!(SlabEventQueue<FatEvent>, n);
        if s < slab.1 {
            slab = (o, s);
        }
        let (o, s) = queue_trace!(LegacyEventQueue<FatEvent>, n);
        if s < leg.1 {
            leg = (o, s);
        }
    }
    let (slab_ops, slab_s) = slab;
    let (leg_ops, leg_s) = leg;
    assert_eq!(slab_ops, leg_ops, "identical traces by construction");
    QueueBench {
        ops: slab_ops,
        slab_ns_per_op: slab_s * 1e9 / slab_ops as f64,
        legacy_ns_per_op: leg_s * 1e9 / leg_ops as f64,
        slab_events_per_sec: slab_ops as f64 / slab_s,
        legacy_events_per_sec: leg_ops as f64 / leg_s,
        speedup: leg_s / slab_s,
    }
}

/// Run the preemption-storm (cancel-heavy) queue microbench.
/// Best-of-3 passes per implementation to shed scheduler noise.
pub fn queue_bench_preempt(rounds: u64) -> QueueBench {
    let _ = queue_rounds!(SlabEventQueue<FatEvent>, rounds / 4 + 1);
    let _ = queue_rounds!(LegacyEventQueue<FatEvent>, rounds / 4 + 1);
    let mut slab = (0u64, f64::INFINITY);
    let mut leg = (0u64, f64::INFINITY);
    for _ in 0..3 {
        let (o, s) = queue_rounds!(SlabEventQueue<FatEvent>, rounds);
        if s < slab.1 {
            slab = (o, s);
        }
        let (o, s) = queue_rounds!(LegacyEventQueue<FatEvent>, rounds);
        if s < leg.1 {
            leg = (o, s);
        }
    }
    let (slab_ops, slab_s) = slab;
    let (leg_ops, leg_s) = leg;
    assert_eq!(slab_ops, leg_ops, "identical traces by construction");
    QueueBench {
        ops: slab_ops,
        slab_ns_per_op: slab_s * 1e9 / slab_ops as f64,
        legacy_ns_per_op: leg_s * 1e9 / leg_ops as f64,
        slab_events_per_sec: slab_ops as f64 / slab_s,
        legacy_events_per_sec: leg_ops as f64 / leg_s,
        speedup: leg_s / slab_s,
    }
}

/// Time the canonical year-long platform run (E9's rendering year).
///
/// The control period is coarse (6 h) so the run measures event-path
/// throughput rather than control-tick bookkeeping, and the wall clock
/// is the best of three runs to shed scheduler noise.
pub fn year_bench(scale: f64, seed: u64) -> YearBench {
    let year = RenderYear::generate_with(
        RenderCalibration::qarnot_2016(),
        &RngStreams::new(seed),
        scale,
    );
    let fleet_cores = ((30_000.0 * scale) as usize).max(256);
    let submitted = year.stream.len() as f64;
    let mut best: Option<YearBench> = None;
    for _ in 0..3 {
        let mut cfg = PlatformConfig::small_winter();
        cfg.calendar = Calendar::JANUARY_EPOCH;
        cfg.horizon = SimDuration::YEAR;
        cfg.workers_per_cluster = (fleet_cores / 16 / 4).max(4);
        cfg.control_period = SimDuration::from_hours(6);
        cfg.peak_policy = sched::PeakPolicy::VerticalFirst;
        cfg.datacenter_cores = 512;
        cfg.seed = seed;
        let t0 = Instant::now();
        let out = Platform::new(cfg).run(&year.stream);
        let wall_s = t0.elapsed().as_secs_f64();
        let run = YearBench {
            scale,
            events: out.events,
            wall_s,
            events_per_sec: out.events as f64 / wall_s,
            peak_queue_depth: out.peak_queue,
            completion: out.stats.dcc_completed.get() as f64 / submitted,
        };
        if best.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
            best = Some(run);
        }
    }
    best.expect("three runs produced a best")
}

/// Time the Monte-Carlo replication path every experiment table uses.
pub fn sweep_bench(replications: usize, horizon_hours: i64, seed: u64) -> SweepBench {
    use std::sync::atomic::{AtomicU64, Ordering};
    let events = AtomicU64::new(0);
    let t0 = Instant::now();
    let _agg = replicate(RngStreams::new(seed), replications, |i, _s| {
        let mut cfg = PlatformConfig::small_winter();
        cfg.n_clusters = 2;
        cfg.workers_per_cluster = 4;
        cfg.horizon = SimDuration::from_hours(horizon_hours);
        cfg.datacenter_cores = 64;
        cfg.seed = seed ^ (i as u64);
        let jobs = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(horizon_hours),
            &RngStreams::new(seed.wrapping_add(i as u64)),
            0,
        );
        let out = Platform::new(cfg).run(&jobs);
        events.fetch_add(out.events, Ordering::Relaxed);
        row(&[
            ("attainment", out.stats.edge_attainment()),
            ("kwh", out.stats.df_total_kwh),
        ])
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let events_total = events.load(Ordering::Relaxed);
    SweepBench {
        replications,
        horizon_hours,
        wall_s,
        events_total,
        events_per_sec: events_total as f64 / wall_s,
    }
}

fn json_escape_free(name: &str) -> &str {
    debug_assert!(!name.contains(['"', '\\']), "bench keys are plain");
    name
}

pub(crate) fn json_kv(out: &mut String, indent: &str, key: &str, value: String, last: bool) {
    out.push_str(indent);
    out.push('"');
    out.push_str(json_escape_free(key));
    out.push_str("\": ");
    out.push_str(&value);
    if !last {
        out.push(',');
    }
    out.push('\n');
}

pub(crate) fn jf(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

impl BenchReport {
    /// Hand-rolled JSON (the workspace deliberately has no serde_json).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        json_kv(&mut s, "  ", "pr", "1".into(), false);
        json_kv(
            &mut s,
            "  ",
            "engine_queue",
            format!("\"{}\"", self.engine_queue),
            false,
        );
        for (key, q) in [
            ("queue_microbench_steady", &self.queue),
            ("queue_microbench_preempt", &self.queue_preempt),
        ] {
            s.push_str(&format!("  \"{key}\": {{\n"));
            json_kv(&mut s, "    ", "ops", q.ops.to_string(), false);
            json_kv(
                &mut s,
                "    ",
                "slab_ns_per_op",
                jf(q.slab_ns_per_op),
                false,
            );
            json_kv(
                &mut s,
                "    ",
                "legacy_ns_per_op",
                jf(q.legacy_ns_per_op),
                false,
            );
            json_kv(
                &mut s,
                "    ",
                "slab_events_per_sec",
                jf(q.slab_events_per_sec),
                false,
            );
            json_kv(
                &mut s,
                "    ",
                "legacy_events_per_sec",
                jf(q.legacy_events_per_sec),
                false,
            );
            json_kv(&mut s, "    ", "speedup", jf(q.speedup), true);
            s.push_str("  },\n");
        }
        s.push_str("  \"year_run\": {\n");
        json_kv(&mut s, "    ", "scale", jf(self.year.scale), false);
        json_kv(
            &mut s,
            "    ",
            "events",
            self.year.events.to_string(),
            false,
        );
        json_kv(&mut s, "    ", "wall_s", jf(self.year.wall_s), false);
        json_kv(
            &mut s,
            "    ",
            "events_per_sec",
            jf(self.year.events_per_sec),
            false,
        );
        json_kv(
            &mut s,
            "    ",
            "peak_queue_depth",
            self.year.peak_queue_depth.to_string(),
            false,
        );
        json_kv(&mut s, "    ", "completion", jf(self.year.completion), true);
        s.push_str("  },\n");
        s.push_str("  \"replication_sweep\": {\n");
        json_kv(
            &mut s,
            "    ",
            "replications",
            self.sweep.replications.to_string(),
            false,
        );
        json_kv(
            &mut s,
            "    ",
            "horizon_hours",
            self.sweep.horizon_hours.to_string(),
            false,
        );
        json_kv(&mut s, "    ", "wall_s", jf(self.sweep.wall_s), false);
        json_kv(
            &mut s,
            "    ",
            "events_total",
            self.sweep.events_total.to_string(),
            false,
        );
        json_kv(
            &mut s,
            "    ",
            "events_per_sec",
            jf(self.sweep.events_per_sec),
            true,
        );
        s.push_str("  }\n");
        s.push('}');
        s.push('\n');
        s
    }
}

/// Run the full trajectory harness. `fast` shrinks every stage to CI
/// scale (the committed `BENCH_PR1.json` comes from a full run).
pub fn run(fast: bool) -> (BenchReport, Table) {
    let seed = 0xDF3_2018;
    let queue = queue_bench(if fast { 400_000 } else { 3_000_000 });
    let queue_preempt = queue_bench_preempt(if fast { 512 } else { 4_096 });
    let year = year_bench(if fast { 0.01 } else { 1.0 }, seed);
    let sweep = sweep_bench(if fast { 4 } else { 16 }, 6, seed);
    let report = BenchReport {
        engine_queue: "slab",
        queue,
        queue_preempt,
        year,
        sweep,
    };
    let mut table = Table::new(&format!(
        "PR 1 performance trajectory (engine queue: {})",
        report.engine_queue
    ))
    .headers(&["metric", "value", "note"]);
    table.row(&[
        "steady slab ns/op".into(),
        f2(report.queue.slab_ns_per_op),
        format!("{} ops", report.queue.ops),
    ]);
    table.row(&[
        "steady legacy ns/op".into(),
        f2(report.queue.legacy_ns_per_op),
        "BinaryHeap + 2×HashSet".into(),
    ]);
    table.row(&[
        "steady speedup".into(),
        f2(report.queue.speedup),
        "legacy / slab".into(),
    ]);
    table.row(&[
        "preempt slab ns/op".into(),
        f2(report.queue_preempt.slab_ns_per_op),
        format!("{} ops", report.queue_preempt.ops),
    ]);
    table.row(&[
        "preempt legacy ns/op".into(),
        f2(report.queue_preempt.legacy_ns_per_op),
        "cancel-heavy burst".into(),
    ]);
    table.row(&[
        "preempt speedup".into(),
        f2(report.queue_preempt.speedup),
        "legacy / slab (target ≥ 2)".into(),
    ]);
    table.row(&[
        "year run events/s".into(),
        f2(report.year.events_per_sec),
        format!(
            "{} events in {:.2} s, peak queue {}",
            report.year.events, report.year.wall_s, report.year.peak_queue_depth
        ),
    ]);
    table.row(&[
        "sweep events/s".into(),
        f2(report.sweep.events_per_sec),
        format!(
            "{} replications × {} h",
            report.sweep.replications, report.sweep.horizon_hours
        ),
    ]);
    (report, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_bench_runs_and_slab_is_not_slower() {
        let q = queue_bench(100_000);
        // Failed cancel attempts (empty ring slot) don't count as ops,
        // so the total lands a little under the step count plus drain.
        assert!(q.ops > 80_000, "trace degenerated: {} ops", q.ops);
        assert!(q.slab_ns_per_op > 0.0 && q.legacy_ns_per_op > 0.0);
        // Not asserting the full 2× here (CI machines vary); the real
        // number is recorded by `df3-experiments bench`.
        assert!(
            q.speedup > 0.8,
            "slab queue must not regress vs legacy: {}",
            q.speedup
        );
    }

    #[test]
    fn report_serialises_to_wellformed_json() {
        let qb = QueueBench {
            ops: 10,
            slab_ns_per_op: 1.0,
            legacy_ns_per_op: 2.0,
            slab_events_per_sec: 1e9,
            legacy_events_per_sec: 5e8,
            speedup: 2.0,
        };
        let report = BenchReport {
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
        };
        let j = report.to_json();
        // Structural sanity without a JSON parser: balanced braces, all
        // keys present, no trailing commas before closers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for key in [
            "engine_queue",
            "queue_microbench_steady",
            "queue_microbench_preempt",
            "year_run",
            "replication_sweep",
            "peak_queue_depth",
            "speedup",
        ] {
            assert!(j.contains(&format!("\"{key}\"")), "missing {key}");
        }
        assert!(!j.contains(",\n  }"), "trailing comma");
        assert!(!j.contains(",\n}"), "trailing comma");
    }

    #[test]
    fn sweep_bench_counts_events() {
        let s = sweep_bench(2, 1, 7);
        assert_eq!(s.replications, 2);
        assert!(s.events_total > 0);
    }
}
