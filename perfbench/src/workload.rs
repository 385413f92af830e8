//! The three workloads and one timed repetition of each.
//!
//! Every repetition has the same shape: generate the seeded job stream,
//! build the platform, run to a checkpoint, encode it, and continue from
//! it through `Platform::restore` (a restart) or `restore_branch` (a
//! sweep of what-if branches). Only the public calls into the program
//! are timed. Correctness checks run between them, untimed and outside
//! the memory measurement, and a failed check is counted against the
//! operation it checks.

use crate::clock::{measure, Cost, PeakRss};
use bench::snapshot_cli::branch_plan;
use df3_core::report::{ExportOptions, RunReport};
use df3_core::stats::PlatformStats;
use df3_core::{PausedRun, Platform, PlatformConfig, PlatformOutcome, RunTo};
use simcore::snapshot::{Snapshot, SnapshotWriter};
use simcore::telemetry::PhaseProfiler;
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use std::io;
use std::time::Instant;
use workloads::dcc::{boinc_jobs, finance_jobs, BoincConfig, FinanceConfig};
use workloads::edge::{location_service_jobs, LocationServiceConfig};
use workloads::job::JobStream;
use workloads::Flow;

/// Seed of the simulated district itself (weather, fault streams). It
/// is fixed so that the benchmark seed varies only the arrivals: a
/// warmer draw of the weather would otherwise change the work placement
/// does several-fold between seeds.
pub const SCENARIO_SEED: u64 = 0xDF3_2018;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DistrictWeek,
    HeatSeason,
    BranchSweep,
}

/// `Full` is the benchmark; `Smoke` is a seconds-long stand-in with the
/// same code path, for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// A deliberate defect, so self-tests can show that checks catch it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    None,
    /// Flip one byte of the encoded checkpoint.
    CorruptSnapshot,
    /// Count one arrival that never happened in the first leg's stats.
    TamperedLedger,
}

/// How one repetition of a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub horizon_h: i64,
    /// Sim hour of the single checkpoint.
    pub checkpoint_h: i64,
    /// What-if branches restored from the checkpoint. Zero means the run
    /// itself restarts from it: restore, then resume to the horizon.
    pub branches: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DistrictWeek,
        Workload::HeatSeason,
        Workload::BranchSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DistrictWeek => "district_week",
            Workload::HeatSeason => "heat_season",
            Workload::BranchSweep => "branch_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn shape(self, scale: Scale) -> Shape {
        let (horizon_h, checkpoint_h, branches) = match (self, scale) {
            // The checkpoint comes early so the restarted leg, which
            // carries the phase profiler, covers almost the whole run.
            (Workload::DistrictWeek, Scale::Full) => (168, 6, 0),
            (Workload::HeatSeason, Scale::Full) => (720, 24, 0),
            // At least four repetitions make a run, so a run times at
            // least 100 branches and ten of them lie beyond p90.
            (Workload::BranchSweep, Scale::Full) => (78, 72, 25),
            (Workload::DistrictWeek, Scale::Smoke) => (6, 1, 0),
            (Workload::HeatSeason, Scale::Smoke) => (24, 2, 0),
            (Workload::BranchSweep, Scale::Smoke) => (5, 3, 3),
        };
        Shape {
            horizon_h,
            checkpoint_h,
            branches,
        }
    }

    /// The district the workload runs on. Its weather, worker faults and
    /// branch outages come from the fixed [`SCENARIO_SEED`], so every
    /// benchmark seed simulates the same winter and the same what-ifs.
    pub fn config(self, scale: Scale, traced: bool) -> PlatformConfig {
        let mut cfg = match scale {
            Scale::Full => PlatformConfig::district_winter(),
            Scale::Smoke => PlatformConfig::small_winter(),
        };
        cfg.horizon = SimDuration::from_hours(self.shape(scale).horizon_h);
        cfg.seed = SCENARIO_SEED;
        cfg.telemetry.enabled = traced;
        cfg
    }

    /// The program's input: open-loop arrivals drawn from the benchmark
    /// seed by the seeded generators (independent users, non-homogeneous
    /// Poisson in simulated time).
    pub fn jobs(self, cfg: &PlatformConfig, seed: u64) -> JobStream {
        let streams = RngStreams::new(seed);
        match self {
            Workload::DistrictWeek | Workload::BranchSweep => location_service_jobs(
                LocationServiceConfig::map_serving(Flow::EdgeIndirect),
                cfg.horizon,
                &streams,
                0,
            ),
            Workload::HeatSeason => finance_jobs(FinanceConfig::bank(), cfg.horizon, &streams, 0)
                .merge(boinc_jobs(
                    BoincConfig::standard(),
                    cfg.horizon,
                    &streams,
                    1_000_000,
                )),
        }
    }
}

/// One timed call into the program.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Wall-clock start, seconds since the repetition began.
    pub start_s: f64,
    pub cost: Cost,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// Simulated outcome of one leg; repeats exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimOutcome {
    /// Share of the fleet's delivered heat that came from resistive
    /// backup rather than computation.
    pub resistive_share: f64,
    pub edge_miss_ratio: f64,
    pub edge_p99_ms: f64,
    pub dcc_slowdown_mean: f64,
    pub offload_horizontal: f64,
    pub offload_vertical: f64,
    pub edge_expired: f64,
    pub edge_rejected: f64,
    pub preemptions: f64,
    pub cluster_outages: f64,
    pub boiler_backfill_kwh: f64,
}

impl SimOutcome {
    fn of(s: &PlatformStats) -> Self {
        SimOutcome {
            resistive_share: if s.df_total_kwh > 0.0 {
                1.0 - s.df_compute_kwh / s.df_total_kwh
            } else {
                0.0
            },
            edge_miss_ratio: 1.0 - s.edge_attainment(),
            edge_p99_ms: s.edge_response_ms.p99(),
            dcc_slowdown_mean: s.dcc_slowdown.mean(),
            offload_horizontal: s.offload_horizontal.get() as f64,
            offload_vertical: s.offload_vertical.get() as f64,
            edge_expired: s.edge_expired.get() as f64,
            edge_rejected: s.edge_rejected.get() as f64,
            preemptions: s.preemptions.get() as f64,
            cluster_outages: s.cluster_outages.get() as f64,
            boiler_backfill_kwh: s.boiler_backfill_kwh,
        }
    }

    /// Field-wise mean (a sweep reports its average branch).
    fn mean(all: &[SimOutcome]) -> Self {
        let n = all.len().max(1) as f64;
        let avg = |f: fn(&SimOutcome) -> f64| all.iter().map(f).sum::<f64>() / n;
        SimOutcome {
            resistive_share: avg(|o| o.resistive_share),
            edge_miss_ratio: avg(|o| o.edge_miss_ratio),
            edge_p99_ms: avg(|o| o.edge_p99_ms),
            dcc_slowdown_mean: avg(|o| o.dcc_slowdown_mean),
            offload_horizontal: avg(|o| o.offload_horizontal),
            offload_vertical: avg(|o| o.offload_vertical),
            edge_expired: avg(|o| o.edge_expired),
            edge_rejected: avg(|o| o.edge_rejected),
            preemptions: avg(|o| o.preemptions),
            cluster_outages: avg(|o| o.cluster_outages),
            boiler_backfill_kwh: avg(|o| o.boiler_backfill_kwh),
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    pub traced: bool,
    pub spans: Vec<Span>,
    pub peak_rss_bytes: u64,
    pub snapshot_bytes: usize,
    /// `restore` plus `resume` CPU time of each continued leg, ms.
    pub leg_ms: Vec<f64>,
    /// Phase profiles of the resumed legs, merged (traced runs only).
    pub profile: PhaseProfiler,
    /// Events dispatched by this repetition's engine legs.
    pub events: u64,
    pub peak_queue: usize,
    pub jobs: usize,
    pub sim: SimOutcome,
    /// Determinism digest of each leg's outcome.
    pub digests: Vec<u64>,
    /// Size of the rendered run report (traced runs only), bytes.
    pub report_bytes: usize,
    pub ops: Ops,
}

/// Span names. Set-up spans are billed to `setup_s`, the run spans to
/// `run_cpu_s`/`run_wall_s`; the report is a traced-run layer only.
pub const GEN: &str = "workloads.gen";
pub const PLATFORM_NEW: &str = "df3_core.platform_new";
pub const WARM_LEG: &str = "simcore.warm_leg";
pub const ENCODE: &str = "snapshot.encode";
pub const RESTORE: &str = "snapshot.restore";
pub const RESUME: &str = "snapshot.resume";
pub const REPORT: &str = "report.render";
pub const SETUP_SPANS: [&str; 2] = [GEN, PLATFORM_NEW];
pub const RUN_SPANS: [&str; 4] = [WARM_LEG, ENCODE, RESTORE, RESUME];

impl Rep {
    /// Summed cost of every span with one of `names`.
    pub fn cost(&self, names: &[&str]) -> Cost {
        let mut c = Cost::default();
        for s in self.spans.iter().filter(|s| names.contains(&s.name)) {
            c.add(s.cost);
        }
        c
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

struct Timeline {
    t0: Instant,
    spans: Vec<Span>,
}

impl Timeline {
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Cost) {
        let start_s = self.t0.elapsed().as_secs_f64();
        let (out, cost) = measure(f);
        self.spans.push(Span {
            name,
            start_s,
            cost,
        });
        (out, cost)
    }
}

/// FNV-1a over the snapshot-encoded stats block plus the engine's event
/// count and peak queue: two runs agree on it only if they agree on
/// every counter, histogram bucket and gauge down to the bit.
pub fn digest(out: &PlatformOutcome) -> u64 {
    let mut bytes = stats_bits(out);
    bytes.extend_from_slice(&out.events.to_le_bytes());
    bytes.extend_from_slice(&(out.peak_queue as u64).to_le_bytes());
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Why the job ledgers of a finished run do not close, if they do not:
/// every arrival must be terminal or still in flight, and every
/// generated job must have arrived.
pub fn ledger_errors(s: &PlatformStats, jobs: usize) -> Vec<String> {
    let mut errs = Vec::new();
    let edge = s.edge_terminal() + s.edge_in_flight_end;
    if s.edge_arrived.get() != edge {
        errs.push(format!(
            "edge ledger: {} arrived but {edge} terminal or in flight",
            s.edge_arrived.get()
        ));
    }
    let dcc = s.dcc_completed.get() + s.dcc_rejected.get() + s.dcc_in_flight_end;
    if s.dcc_arrived.get() != dcc {
        errs.push(format!(
            "dcc ledger: {} arrived but {dcc} completed, rejected or in flight",
            s.dcc_arrived.get()
        ));
    }
    let arrived = s.edge_arrived.get() + s.dcc_arrived.get();
    if arrived != jobs as u64 {
        errs.push(format!("{jobs} jobs generated but {arrived} arrived"));
    }
    errs
}

fn round_trip_error(run: &PausedRun, bytes: &[u8]) -> Option<String> {
    (run.snapshot_bytes() != bytes)
        .then(|| "re-encoding the restored checkpoint changed its bytes".to_string())
}

fn stats_bits(out: &PlatformOutcome) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    out.stats.encode(&mut w);
    w.into_bytes()
}

/// Run one repetition. `reference` holds the leg digests of the run's
/// first repetition, which every later one must reproduce; the first
/// repetition of a sweep instead checks its first branch against a
/// cold-started twin.
pub fn run_rep(
    workload: Workload,
    scale: Scale,
    seed: u64,
    traced: bool,
    reference: Option<&[u64]>,
    defect: Defect,
) -> io::Result<Rep> {
    let shape = workload.shape(scale);
    let cfg = workload.config(scale, traced);
    let mut t = Timeline {
        t0: Instant::now(),
        spans: Vec::new(),
    };
    let mut rss = PeakRss::start()?;
    let mut rep = Rep {
        traced,
        spans: Vec::new(),
        peak_rss_bytes: 0,
        snapshot_bytes: 0,
        leg_ms: Vec::new(),
        profile: PhaseProfiler::disabled(),
        events: 0,
        peak_queue: 0,
        jobs: 0,
        sim: SimOutcome::default(),
        digests: Vec::new(),
        report_bytes: 0,
        ops: Ops::default(),
    };
    let ops = &mut rep.ops;
    let mut sims = Vec::new();

    let (jobs, _) = t.call(GEN, || workload.jobs(&cfg, seed));
    rep.jobs = jobs.len();
    let (platform, _) = t.call(PLATFORM_NEW, || Platform::new(cfg.clone()));
    let warm = SimDuration::from_hours(shape.checkpoint_h);
    let (warm_run, _) = t.call(WARM_LEG, || platform.run_to(&jobs, SimTime::ZERO + warm));
    let legs = shape.branches.max(1);
    // One operation for the checkpoint round trip, one per leg.
    ops.attempted += 1 + legs as u64;
    let RunTo::Paused(paused) = warm_run else {
        ops.failed += 1 + legs as u64;
        ops.failures
            .push("the run finished before its checkpoint".to_string());
        rep.spans = t.spans;
        rep.peak_rss_bytes = rss.finish()?;
        return Ok(rep);
    };
    let warm_events = paused.events();
    let (mut bytes, _) = t.call(ENCODE, || paused.snapshot_bytes());
    drop(paused);
    if defect == Defect::CorruptSnapshot {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x5a;
    }
    rep.snapshot_bytes = bytes.len();
    if shape.branches > 0 {
        // A sweep restores under branch plans, whose bytes differ; the
        // round trip is checked on one plain restore.
        let err = rss.exclude(|| match Platform::restore(cfg.clone(), &bytes) {
            Ok(run) => round_trip_error(&run, &bytes),
            Err(e) => Some(format!("restore: {e}")),
        })?;
        if let Some(e) = err {
            ops.fail(format!("checkpoint: {e}"));
        }
    }

    for i in 0..legs {
        let leg_cfg = if shape.branches == 0 {
            cfg.clone()
        } else {
            let mut b = cfg.clone();
            b.faults = branch_plan(&cfg, warm, i as u64);
            b
        };
        let (restored, restore_cost) = t.call(RESTORE, || {
            if shape.branches == 0 {
                Platform::restore(leg_cfg.clone(), &bytes)
            } else {
                Platform::restore_branch(&cfg.faults, leg_cfg.clone(), &bytes)
            }
        });
        let run = match restored {
            Ok(run) => run,
            Err(e) => {
                if shape.branches == 0 {
                    ops.fail(format!("checkpoint: restore: {e}"));
                }
                ops.fail(format!("leg {i}: restore: {e}"));
                rep.digests.push(0);
                continue;
            }
        };
        if shape.branches == 0 {
            if let Some(e) = rss.exclude(|| round_trip_error(&run, &bytes))? {
                ops.fail(format!("checkpoint: {e}"));
            }
            // A restarted run no longer needs its checkpoint.
            bytes = Vec::new();
        }
        let (mut out, resume_cost) = t.call(RESUME, || run.resume());
        rep.leg_ms
            .push((restore_cost.cpu_s + resume_cost.cpu_s) * 1e3);
        if defect == Defect::TamperedLedger && i == 0 {
            out.stats.edge_arrived.inc();
        }

        let mut errs = ledger_errors(&out.stats, jobs.len());
        let d = digest(&out);
        if let Some(&want) = reference.and_then(|r| r.get(i)) {
            if d != want {
                errs.push(format!(
                    "outcome digest {d:016x} differs from the first repetition's {want:016x}"
                ));
            }
        }
        if shape.branches > 0 && reference.is_none() && i == 0 {
            let twin_differs = rss.exclude(|| {
                let cold = Platform::new(leg_cfg.clone()).run(&jobs);
                cold.events != out.events || stats_bits(&cold) != stats_bits(&out)
            })?;
            if twin_differs {
                errs.push("branch differs from its cold-started twin".to_string());
            }
        }
        if !errs.is_empty() {
            ops.fail(format!("leg {i}: {}", errs.join("; ")));
        }

        rep.digests.push(d);
        sims.push(SimOutcome::of(&out.stats));
        // Restored legs carry the warm-up's events; count them once.
        rep.events += out.events - if i == 0 { 0 } else { warm_events };
        rep.peak_queue = rep.peak_queue.max(out.peak_queue);
        rep.profile.merge(&out.telemetry.profiler);
        if traced && i + 1 == legs {
            let (size, _) = t.call(REPORT, || {
                let report = RunReport::new(workload.name(), &leg_cfg, &out);
                report.jsonl(&ExportOptions::full()).len()
                    + report.chrome_trace_json().len()
                    + report.prometheus().len()
            });
            rep.report_bytes = size;
        }
    }

    rep.sim = SimOutcome::mean(&sims);
    rep.spans = t.spans;
    rep.peak_rss_bytes = rss.finish()?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xDF3_2018;

    fn smoke(w: Workload, defect: Defect) -> Rep {
        run_rep(w, Scale::Smoke, SEED, false, None, defect).expect("host gauges readable")
    }

    #[test]
    fn clean_repetitions_pass_every_check_and_repeat() {
        for w in Workload::ALL {
            let a = smoke(w, Defect::None);
            assert_eq!(a.ops.failed, 0, "{}: {:?}", w.name(), a.ops.failures);
            assert_eq!(
                a.ops.attempted,
                1 + w.shape(Scale::Smoke).branches.max(1) as u64
            );
            let b = run_rep(w, Scale::Smoke, SEED, true, Some(&a.digests), Defect::None).unwrap();
            assert_eq!(b.ops.failed, 0, "{} traced: {:?}", w.name(), b.ops.failures);
            assert_eq!(a.sim, b.sim, "telemetry must not change the simulation");
            assert!(b.report_bytes > 0 && b.profile.is_enabled());
        }
    }

    #[test]
    fn a_second_seed_also_passes() {
        for w in Workload::ALL {
            let r = run_rep(w, Scale::Smoke, 7, false, None, Defect::None).unwrap();
            assert_eq!(r.ops.failed, 0, "{}: {:?}", w.name(), r.ops.failures);
        }
    }

    #[test]
    fn a_corrupted_snapshot_fails_operations_without_panicking() {
        for w in Workload::ALL {
            let r = smoke(w, Defect::CorruptSnapshot);
            assert!(r.ops.failed >= 2, "{}: {:?}", w.name(), r.ops.failures);
            assert!(r.ops.failures.iter().any(|f| f.starts_with("checkpoint")));
        }
    }

    #[test]
    fn a_tampered_ledger_fails_its_leg() {
        for w in Workload::ALL {
            let r = smoke(w, Defect::TamperedLedger);
            assert_eq!(r.ops.failed, 1, "{}: {:?}", w.name(), r.ops.failures);
            assert!(r.ops.failures[0].contains("ledger"));
        }
    }

    #[test]
    fn a_diverging_repetition_fails_its_legs() {
        let w = Workload::DistrictWeek;
        let r = run_rep(w, Scale::Smoke, SEED, false, Some(&[1]), Defect::None).unwrap();
        assert_eq!(r.ops.failed, 1);
        assert!(r.ops.failures[0].contains("digest"));
    }
}
