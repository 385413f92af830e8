//! Repeat one workload for the run's time budget and reduce the
//! repetitions to the catalogue's metrics.
//!
//! End-to-end metrics come from repetitions with telemetry off; a host
//! time is the sum of each identical call's floor over them, memory the
//! median. With
//! `trace` on, traced and untraced repetitions alternate: the traced
//! ones give the per-layer split, the untraced ones the baseline for the
//! tracing overhead, and both must produce the same simulation.

use crate::clock::Cost;
use crate::metrics::{mean, median, quantile};
use crate::workload::{
    run_rep, Defect, Rep, Scale, Workload, ENCODE, GEN, PLATFORM_NEW, REPORT, RESTORE, RESUME,
    RUN_SPANS, SETUP_SPANS, WARM_LEG,
};
use simcore::telemetry::{Phase, HOT_PHASE_STRIDE};
use std::io;
use std::time::Instant;

/// Repetitions of each kind a run makes at least, whatever its time
/// budget; the first untraced one is not timed.
const MIN_REPS: usize = 4;

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One layer's share of a traced repetition's CPU time.
#[derive(Debug, Clone)]
pub struct Layer {
    pub name: &'static str,
    pub self_s: f64,
    /// Scaled up from the engine's sampled per-event phases.
    pub estimate: bool,
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics, from the untraced repetitions.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<(&'static str, f64)>,
    /// Self time per layer of the mean traced repetition; the last row
    /// is the unattributed remainder. Empty unless traced.
    pub layers: Vec<Layer>,
    /// Every repetition, in the order run.
    pub reps: Vec<Rep>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Run `opts.workload` until `opts.seconds` have passed and at least
/// [`MIN_REPS`] repetitions of each kind are done.
pub fn run(opts: Options) -> io::Result<Outcome> {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    loop {
        let traced = opts.trace && reps.len() % 2 == 1;
        let rep = run_rep(
            opts.workload,
            opts.scale,
            opts.seed,
            traced,
            reference.as_deref(),
            Defect::None,
        )?;
        reference.get_or_insert_with(|| rep.digests.clone());
        reps.push(rep);
        let per_kind = if opts.trace {
            reps.len() / 2
        } else {
            reps.len()
        };
        if per_kind >= MIN_REPS && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    Ok(reduce(opts.workload, opts.scale, reps))
}

/// Mean time per traced repetition of each profiled phase, seconds.
/// The engine samples `EventPop` and `Dispatch` one event in
/// [`HOT_PHASE_STRIDE`]; they are scaled up by it here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Phases {
    pop: f64,
    dispatch: f64,
    tick: f64,
    stage: f64,
    step: f64,
    offload: f64,
    fault: f64,
}

impl Phases {
    fn of(traced: &[&Rep]) -> Self {
        let n = traced.len().max(1) as f64;
        let phase = |p: Phase| {
            traced
                .iter()
                .map(|r| r.profile.acc(p).total_ns)
                .sum::<u64>() as f64
                / 1e9
                / n
        };
        let stride = HOT_PHASE_STRIDE as f64;
        Phases {
            pop: phase(Phase::EventPop) * stride,
            dispatch: phase(Phase::Dispatch) * stride,
            tick: phase(Phase::ControlTick),
            stage: phase(Phase::StageThermal),
            step: phase(Phase::StepStaged),
            offload: phase(Phase::Offload),
            fault: phase(Phase::FaultRuntime),
        }
    }

    /// Dispatch minus the phases nested in it that no other profiled
    /// phase contains: the control tick and the offload decisions.
    /// Offload never runs inside the tick, so neither is counted twice.
    /// The fault runtime is not subtracted: part of it runs inside the
    /// tick (outage scheduling, sensor overlays) and it contains the
    /// offloads of the orphans it re-dispatches, and the profiler cannot
    /// separate those parts. Fault-event handling outside its orphan
    /// offloads therefore stays in dispatch self time.
    fn dispatch_self(&self) -> f64 {
        self.dispatch - self.tick - self.offload
    }

    /// Control tick minus thermal staging and stepping; it holds the
    /// tick's own fault checks and the cluster drains.
    fn tick_self(&self) -> f64 {
        self.tick - self.stage - self.step
    }
}

/// Split the mean traced repetition's CPU time into disjoint self times;
/// the last row is the unattributed remainder.
fn split(traced: &[&Rep], p: &Phases) -> Vec<Layer> {
    let span = |name| span_mean(traced, name);
    let total = mean(
        &traced
            .iter()
            .map(|r| r.spans.iter().map(|s| s.cost.cpu_s).sum::<f64>())
            .collect::<Vec<_>>(),
    );
    let mut layers = vec![
        Layer::measured(GEN, span(GEN)),
        Layer::measured(PLATFORM_NEW, span(PLATFORM_NEW)),
        Layer::measured("simcore.unprofiled_leg", span(WARM_LEG)),
        Layer::measured(ENCODE, span(ENCODE)),
        Layer::measured(RESTORE, span(RESTORE)),
        Layer {
            name: "simcore.event_pop",
            self_s: p.pop,
            estimate: true,
        },
        Layer {
            name: "simcore.dispatch_self",
            self_s: p.dispatch_self(),
            estimate: true,
        },
        Layer::measured("df3_core.offload", p.offload),
        Layer::measured("df3_core.tick_unattributed", p.tick_self()),
        Layer::measured("thermal.stage", p.stage),
        Layer::measured("thermal.step", p.step),
        Layer::measured(REPORT, span(REPORT)),
    ];
    let attributed: f64 = layers.iter().map(|l| l.self_s).sum();
    layers.push(Layer::measured(UNATTRIBUTED, total - attributed));
    layers
}

/// Mean CPU time per repetition of the span `name`.
fn span_mean(reps: &[&Rep], name: &str) -> f64 {
    mean(
        &reps
            .iter()
            .map(|r| r.cost(&[name]).cpu_s)
            .collect::<Vec<_>>(),
    )
}

/// Name of the split's last row.
const UNATTRIBUTED: &str = "unattributed";

/// Floor over repetitions of a host measurement. Interference from
/// other work on the machine only ever adds time, so the fastest
/// repetition is the one least disturbed by it.
fn floor(values: &[f64]) -> f64 {
    quantile(values, 0.0).unwrap_or(0.0)
}

/// Floor of each identical call, summed. Every repetition of a run makes
/// the same calls on the same inputs, so the `k`-th call of a span does
/// the same work in each; its floor over repetitions is its least
/// disturbed time, and floors of short calls dodge more interference
/// than the floor of a whole repetition.
fn floor_cost(reps: &[&Rep], names: &[&str]) -> Cost {
    let mut total = Cost::default();
    for name in names {
        let per_rep: Vec<Vec<Cost>> = reps
            .iter()
            .map(|r| {
                r.spans
                    .iter()
                    .filter(|s| s.name == *name)
                    .map(|s| s.cost)
                    .collect()
            })
            .collect();
        let calls = per_rep.iter().map(Vec::len).max().unwrap_or(0);
        for k in 0..calls {
            let kth: Vec<Cost> = per_rep.iter().filter_map(|c| c.get(k).copied()).collect();
            total.add(Cost {
                cpu_s: floor(&kth.iter().map(|c| c.cpu_s).collect::<Vec<_>>()),
                wall_s: floor(&kth.iter().map(|c| c.wall_s).collect::<Vec<_>>()),
            });
        }
    }
    total
}

/// Floor over repetitions of each leg's time, ms: leg `i` restores the
/// same checkpoint under the same plan in every repetition.
fn leg_floors(reps: &[&Rep]) -> Vec<f64> {
    let legs = reps.iter().map(|r| r.leg_ms.len()).max().unwrap_or(0);
    (0..legs)
        .map(|i| {
            floor(
                &reps
                    .iter()
                    .filter_map(|r| r.leg_ms.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

fn reduce(workload: Workload, scale: Scale, reps: Vec<Rep>) -> Outcome {
    let (traced, plain): (Vec<&Rep>, Vec<&Rep>) = reps.iter().partition(|r| r.traced);
    // The first repetition runs on a fresh heap: its sweep branches ran
    // about a quarter faster than in any later repetition, so a floor
    // that included it flipped between the two states from run to run.
    // It is the digest reference and warm-up; its host gauges are unused.
    let (first, timed) = (plain[0], &plain[1..]);
    let med = |f: &dyn Fn(&Rep) -> f64| median(&timed.iter().map(|r| f(r)).collect::<Vec<_>>());
    let legs = leg_floors(timed);
    let run = floor_cost(timed, &RUN_SPANS);
    let peak_rss_mb = med(&|r| r.peak_rss_bytes as f64) / 1e6;
    let end_to_end = vec![
        ("setup_s", floor_cost(timed, &SETUP_SPANS).cpu_s),
        ("run_cpu_s", run.cpu_s),
        ("run_wall_s", run.wall_s),
        ("peak_rss_mb", peak_rss_mb),
        ("snapshot_mb", first.snapshot_bytes as f64 / 1e6),
        ("branch_ms_p50", quantile(&legs, 0.5).unwrap_or(0.0)),
        ("branch_ms_p90", quantile(&legs, 0.9).unwrap_or(0.0)),
        ("sim_resistive_share", first.sim.resistive_share),
    ];

    let (mut per_layer, mut layers) = (Vec::new(), Vec::new());
    if !traced.is_empty() {
        let n = traced.len() as f64;
        let span = |name| span_mean(&traced, name);
        let calls =
            |name: &str| traced.iter().map(|r| r.calls(name)).sum::<usize>().max(1) as f64 / n;
        let phase_calls =
            |p: Phase| traced.iter().map(|r| r.profile.acc(p).count).sum::<u64>() as f64 / n;
        let p = Phases::of(&traced);
        layers = split(&traced, &p);
        let unattributed = layers.last().map_or(0.0, |l| l.self_s);

        let traced_cpu = floor_cost(&traced, &RUN_SPANS).cpu_s;
        let engine_cpu = |r: &Rep| r.cost(&[WARM_LEG, RESUME]).cpu_s;
        let sim = first.sim;
        let offload_calls = phase_calls(Phase::Offload);
        let horizon_h = workload.shape(scale).horizon_h as f64;
        per_layer = vec![
            ("simcore.events", first.events as f64),
            ("simcore.peak_queue", first.peak_queue as f64),
            (
                "simcore.events_per_cpu_s",
                med(&|r| r.events as f64 / engine_cpu(r)),
            ),
            ("simcore.event_pop_s", p.pop),
            ("simcore.dispatch_self_s", p.dispatch_self()),
            ("simcore.unprofiled_leg_s", span(WARM_LEG)),
            ("df3_core.offload_s", p.offload),
            ("df3_core.offload_calls", offload_calls),
            (
                "df3_core.offload_us_mean",
                if offload_calls > 0.0 {
                    p.offload / offload_calls * 1e6
                } else {
                    0.0
                },
            ),
            ("df3_core.offload_horizontal", sim.offload_horizontal),
            ("df3_core.offload_vertical", sim.offload_vertical),
            ("df3_core.edge_expired", sim.edge_expired),
            ("df3_core.edge_rejected", sim.edge_rejected),
            ("df3_core.preemptions", sim.preemptions),
            ("df3_core.edge_miss_ratio", sim.edge_miss_ratio),
            ("df3_core.dcc_slowdown_mean", sim.dcc_slowdown_mean),
            ("df3_core.control_tick_s", p.tick),
            ("df3_core.control_ticks", phase_calls(Phase::ControlTick)),
            ("thermal.stage_s", p.stage),
            ("thermal.step_s", p.step),
            ("df3_core.tick_unattributed_s", p.tick_self()),
            ("df3_core.fault_runtime_s", p.fault),
            ("df3_core.cluster_outages", sim.cluster_outages),
            ("df3_core.boiler_backfill_kwh", sim.boiler_backfill_kwh),
            ("snapshot.encode_ms", span(ENCODE) / calls(ENCODE) * 1e3),
            ("snapshot.restore_ms", span(RESTORE) / calls(RESTORE) * 1e3),
            ("snapshot.resume_ms", span(RESUME) / calls(RESUME) * 1e3),
            ("snapshot.bytes", first.snapshot_bytes as f64),
            ("workloads.gen_s", span(GEN)),
            ("workloads.jobs", first.jobs as f64),
            ("df3_core.platform_new_s", span(PLATFORM_NEW)),
            ("mem.rss_mb_per_sim_h", peak_rss_mb / horizon_h),
            (
                "mem.bytes_per_job",
                peak_rss_mb * 1e6 / first.jobs.max(1) as f64,
            ),
            ("report.render_ms", span(REPORT) * 1e3),
            (
                "report.trace_bytes",
                mean(
                    &traced
                        .iter()
                        .map(|r| r.report_bytes as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("telemetry.overhead_ratio", traced_cpu / run.cpu_s),
            ("telemetry.unattributed_s", unattributed),
        ];
    }

    // Every leg's digest is checked against the first (untraced)
    // repetition, so a traced run that simulated anything differently
    // has already failed an operation: telemetry must be inert.
    let failures: Vec<String> = reps.iter().flat_map(|r| r.ops.failures.clone()).collect();
    let failed: u64 = reps.iter().map(|r| r.ops.failed).sum();
    let attempted: u64 = reps.iter().map(|r| r.ops.attempted).sum();
    Outcome {
        attempted,
        failed,
        failures,
        end_to_end,
        per_layer,
        layers,
        reps,
    }
}

impl Layer {
    fn measured(name: &'static str, self_s: f64) -> Self {
        Layer {
            name,
            self_s,
            estimate: false,
        }
    }
}

/// Mean cost per repetition of each span name, in first-seen order.
pub fn span_table(reps: &[&Rep]) -> Vec<(&'static str, usize, Cost)> {
    let mut rows: Vec<(&'static str, usize, Cost)> = Vec::new();
    for r in reps {
        for s in &r.spans {
            match rows.iter_mut().find(|row| row.0 == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2.add(s.cost);
                }
                None => rows.push((s.name, 1, s.cost)),
            }
        }
    }
    let n = reps.len().max(1) as f64;
    for row in &mut rows {
        row.2.cpu_s /= n;
        row.2.wall_s /= n;
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workload::Span;
    use simcore::telemetry::PhaseProfiler;

    /// A smoke-scale run emits every catalogued metric, finite, in the
    /// catalogue's order, and its measured layers are not negative.
    #[test]
    fn smoke_runs_emit_every_metric() {
        for workload in Workload::ALL {
            let out = run(Options {
                workload,
                seed: 11,
                seconds: 0.01,
                trace: true,
                scale: Scale::Smoke,
            })
            .unwrap();
            assert!(out.correct(), "{}: {:?}", workload.name(), out.failures);
            assert_eq!(out.reps.iter().filter(|r| r.traced).count(), MIN_REPS);
            for (got, want) in [(&out.end_to_end, END_TO_END), (&out.per_layer, PER_LAYER)] {
                let names: Vec<_> = got.iter().map(|(n, _)| *n).collect();
                let expected: Vec<_> = want.iter().map(|d| d.name).collect();
                assert_eq!(names, expected);
                assert!(got.iter().all(|(_, v)| v.is_finite()), "{got:?}");
            }
            for l in &out.layers {
                assert!(
                    l.estimate || l.name == UNATTRIBUTED || l.self_s >= 0.0,
                    "{}: {l:?}",
                    workload.name()
                );
            }
        }
    }

    /// A traced repetition with known phase and span times splits into
    /// the expected self times: each nested phase is subtracted once,
    /// and the fault runtime, which overlaps the tick and the offload,
    /// is reported but not subtracted.
    #[test]
    fn nested_phases_are_subtracted_once() {
        let stride = HOT_PHASE_STRIDE;
        let mut profile = PhaseProfiler::enabled();
        for (phase, ms) in [
            (Phase::EventPop, 256 / stride),
            (Phase::Dispatch, 1_600 / stride),
            (Phase::ControlTick, 700),
            (Phase::StageThermal, 100),
            (Phase::StepStaged, 200),
            (Phase::FaultRuntime, 300),
            (Phase::Offload, 400),
        ] {
            profile.record_ns(phase, ms * 1_000_000);
        }
        let span = |name, cpu_s| Span {
            name,
            start_s: 0.0,
            cost: Cost {
                cpu_s,
                wall_s: cpu_s,
            },
        };
        let rep = Rep {
            traced: true,
            spans: vec![
                span(GEN, 0.1),
                span(PLATFORM_NEW, 0.01),
                span(WARM_LEG, 0.2),
                span(ENCODE, 0.05),
                span(RESTORE, 0.04),
                span(RESUME, 2.0),
                span(REPORT, 0.1),
            ],
            peak_rss_bytes: 0,
            snapshot_bytes: 0,
            leg_ms: Vec::new(),
            profile,
            events: 0,
            peak_queue: 0,
            jobs: 0,
            sim: Default::default(),
            digests: Vec::new(),
            report_bytes: 0,
            ops: Default::default(),
        };
        let p = Phases::of(&[&rep]);
        assert!((p.fault - 0.3).abs() < 1e-9);
        let got: Vec<(&str, f64)> = split(&[&rep], &p)
            .iter()
            .map(|l| (l.name, l.self_s))
            .collect();
        let want = [
            (GEN, 0.1),
            (PLATFORM_NEW, 0.01),
            ("simcore.unprofiled_leg", 0.2),
            (ENCODE, 0.05),
            (RESTORE, 0.04),
            ("simcore.event_pop", 0.256),
            ("simcore.dispatch_self", 1.6 - 0.7 - 0.4),
            ("df3_core.offload", 0.4),
            ("df3_core.tick_unattributed", 0.4),
            ("thermal.stage", 0.1),
            ("thermal.step", 0.2),
            (REPORT, 0.1),
            // The resumed leg's 2 s less its pop and dispatch estimates.
            (UNATTRIBUTED, 2.0 - 0.256 - 1.6),
        ];
        assert_eq!(got.len(), want.len());
        for ((name, v), (want_name, w)) in got.iter().zip(want) {
            assert_eq!(*name, want_name);
            assert!((v - w).abs() < 1e-9, "{name}: {v} != {w}");
        }
    }

    #[test]
    fn untraced_runs_report_end_to_end_only() {
        let out = run(Options {
            workload: Workload::HeatSeason,
            seed: 3,
            seconds: 0.01,
            trace: false,
            scale: Scale::Smoke,
        })
        .unwrap();
        assert_eq!(out.reps.len(), MIN_REPS);
        assert!(out.per_layer.is_empty() && out.layers.is_empty());
        assert!(
            out.end_to_end.iter().all(|(_, v)| *v > 0.0),
            "{:?}",
            out.end_to_end
        );
    }
}
