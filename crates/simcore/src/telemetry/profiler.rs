//! Wall-clock phase profiler for the engine's hot loop.
//!
//! Each [`Phase`] accumulates a count, total/min/max, and a log₂
//! duration histogram. Timing is wall clock (`std::time::Instant`) and
//! therefore *never* part of any simulation result: the profiler only
//! reports where real time went. Disabled profilers reduce
//! [`PhaseProfiler::start`] to one branch and allocate nothing.

/// The instrumented hot-loop phases. Fixed at compile time so the
/// accumulator is a flat array with no hashing on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Future-event-list peek + pop. Sampled one event in
    /// [`HOT_PHASE_STRIDE`]: the engine loop is too hot to afford two
    /// clock reads per event, so `count` is the number of *samples*.
    EventPop,
    /// Model event dispatch (`Model::handle`, all arms). Sampled like
    /// [`Phase::EventPop`].
    Dispatch,
    /// Control tick, end to end (contains the thermal, regulate and
    /// drain phases).
    ControlTick,
    /// Staging per-worker thermal intervals into the SoA batch.
    StageThermal,
    /// The fused fleet-wide thermal sweep.
    StepStaged,
    /// Closing every worker's tick: energy integrals, thermostat and
    /// heat-regulator solve (`finish_control_tick` over all clusters).
    Regulate,
    /// Starting the queued work each cluster's new budget admits (the
    /// in-tick `drain_cluster` over all clusters).
    Drain,
    /// Fault runtime: sensor overlays, fail/repair/outage handling.
    FaultRuntime,
    /// Peak-policy offload decisions and their carry-out.
    Offload,
    /// Telemetry export (report generation, outside the sim loop).
    Export,
}

impl Phase {
    pub const ALL: [Phase; 10] = [
        Phase::EventPop,
        Phase::Dispatch,
        Phase::ControlTick,
        Phase::StageThermal,
        Phase::StepStaged,
        Phase::Regulate,
        Phase::Drain,
        Phase::FaultRuntime,
        Phase::Offload,
        Phase::Export,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::EventPop => "event_pop",
            Phase::Dispatch => "dispatch",
            Phase::ControlTick => "control_tick",
            Phase::StageThermal => "stage_thermal",
            Phase::StepStaged => "step_staged",
            Phase::Regulate => "regulate",
            Phase::Drain => "drain",
            Phase::FaultRuntime => "fault_runtime",
            Phase::Offload => "offload",
            Phase::Export => "export",
        }
    }

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Sampling stride for the per-event hot phases ([`Phase::EventPop`],
/// [`Phase::Dispatch`]): the engine reads the clock for one event in
/// this many. Power of two so the stride test is a mask. Coarse phases
/// (control tick, thermal, faults, offload) are timed on every call.
pub const HOT_PHASE_STRIDE: u64 = 64;

/// Number of log₂ histogram buckets: bucket `i` counts durations below
/// `64ns << i`; the last bucket absorbs everything longer (~2.2 s).
pub const N_DURATION_BUCKETS: usize = 25;

/// Base of the log₂ bucketing, nanoseconds.
const BUCKET_BASE_NS: u64 = 64;

/// Accumulated wall-clock statistics of one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseAcc {
    pub count: u64,
    pub total_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    /// Log₂ duration histogram (see [`N_DURATION_BUCKETS`]).
    pub buckets: [u64; N_DURATION_BUCKETS],
}

impl Default for PhaseAcc {
    fn default() -> Self {
        PhaseAcc {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; N_DURATION_BUCKETS],
        }
    }
}

impl PhaseAcc {
    fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let b = (ns / BUCKET_BASE_NS + 1)
            .next_power_of_two()
            .trailing_zeros() as usize;
        self.buckets[b.min(N_DURATION_BUCKETS - 1)] += 1;
    }

    fn merge(&mut self, other: &PhaseAcc) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Upper bound of bucket `i`, nanoseconds.
    pub fn bucket_bound_ns(i: usize) -> u64 {
        BUCKET_BASE_NS << i
    }
}

/// An opaque start token: `Some` only while profiling is enabled, so a
/// disabled profiler never reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer(Option<std::time::Instant>);

/// Per-phase wall-clock accumulator.
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    enabled: bool,
    acc: [PhaseAcc; Phase::ALL.len()],
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::disabled()
    }
}

impl PhaseProfiler {
    pub fn disabled() -> Self {
        PhaseProfiler {
            enabled: false,
            acc: [PhaseAcc::default(); Phase::ALL.len()],
        }
    }

    pub fn enabled() -> Self {
        PhaseProfiler {
            enabled: true,
            ..Self::disabled()
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start a timing interval. The token form exists for call sites
    /// that must keep using `&mut self` between start and stop (the
    /// engine loop); use [`PhaseProfiler::scope`] where a plain RAII
    /// guard suffices.
    #[inline]
    pub fn start(&self) -> PhaseTimer {
        PhaseTimer(if self.enabled {
            Some(std::time::Instant::now())
        } else {
            None
        })
    }

    /// [`PhaseProfiler::start`] gated on a caller-side sampling
    /// decision: a `false` sample yields an inert token and no clock
    /// read. The engine passes `events % HOT_PHASE_STRIDE == 0` here.
    #[inline]
    pub fn start_if(&self, sample: bool) -> PhaseTimer {
        if sample {
            self.start()
        } else {
            PhaseTimer(None)
        }
    }

    /// Close a timing interval against `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, timer: PhaseTimer) {
        if let Some(t0) = timer.0 {
            let ns = t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.acc[phase.index()].observe(ns);
        }
    }

    /// RAII guard: times from creation to drop.
    #[inline]
    pub fn scope(&mut self, phase: Phase) -> PhaseGuard<'_> {
        let timer = self.start();
        PhaseGuard {
            prof: self,
            phase,
            timer,
        }
    }

    /// Record a pre-measured duration (tests, external merges).
    pub fn record_ns(&mut self, phase: Phase, ns: u64) {
        if self.enabled {
            self.acc[phase.index()].observe(ns);
        }
    }

    /// Fold another profiler's accumulators into this one.
    pub fn merge(&mut self, other: &PhaseProfiler) {
        self.enabled |= other.enabled;
        for (a, b) in self.acc.iter_mut().zip(other.acc.iter()) {
            a.merge(b);
        }
    }

    pub fn acc(&self, phase: Phase) -> &PhaseAcc {
        &self.acc[phase.index()]
    }

    /// Phases that recorded at least one interval, in declaration order.
    pub fn rows(&self) -> impl Iterator<Item = (Phase, &PhaseAcc)> {
        Phase::ALL
            .iter()
            .map(|&p| (p, &self.acc[p.index()]))
            .filter(|(_, a)| a.count > 0)
    }

    /// Total wall clock across all phases, seconds. Phases nest
    /// (dispatch contains the control-tick phases), so this is an
    /// attribution aid, not an exclusive-time sum.
    pub fn total_wall_s(&self) -> f64 {
        self.acc.iter().map(|a| a.total_ns as f64).sum::<f64>() / 1e9
    }
}

/// RAII phase timer returned by [`PhaseProfiler::scope`].
pub struct PhaseGuard<'a> {
    prof: &'a mut PhaseProfiler,
    phase: Phase,
    timer: PhaseTimer,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.prof.stop(self.phase, self.timer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_never_reads_the_clock() {
        let mut p = PhaseProfiler::disabled();
        let t = p.start();
        assert!(t.0.is_none(), "no Instant when disabled");
        p.stop(Phase::Dispatch, t);
        p.record_ns(Phase::Dispatch, 1_000);
        assert_eq!(p.acc(Phase::Dispatch).count, 0);
        assert_eq!(p.rows().count(), 0);
    }

    #[test]
    fn guard_and_token_both_accumulate() {
        let mut p = PhaseProfiler::enabled();
        {
            let _g = p.scope(Phase::ControlTick);
            std::hint::black_box(2 + 2);
        }
        let t = p.start();
        p.stop(Phase::ControlTick, t);
        let a = p.acc(Phase::ControlTick);
        assert_eq!(a.count, 2);
        assert!(a.total_ns >= a.min_ns);
        assert!(a.max_ns >= a.min_ns);
        assert_eq!(a.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn bucketing_is_log2_with_saturation() {
        let mut p = PhaseProfiler::enabled();
        p.record_ns(Phase::EventPop, 0); // bucket 0 (< 64 ns)
        p.record_ns(Phase::EventPop, 63);
        p.record_ns(Phase::EventPop, 64); // bucket 1
        p.record_ns(Phase::EventPop, u64::MAX / 2); // saturates to last
        let a = p.acc(Phase::EventPop);
        assert_eq!(a.buckets[0], 2);
        assert_eq!(a.buckets[1], 1);
        assert_eq!(a.buckets[N_DURATION_BUCKETS - 1], 1);
        assert_eq!(PhaseAcc::bucket_bound_ns(1), 128);
    }

    #[test]
    fn merge_folds_counts_and_extremes() {
        let mut a = PhaseProfiler::enabled();
        let mut b = PhaseProfiler::enabled();
        a.record_ns(Phase::Offload, 100);
        b.record_ns(Phase::Offload, 10);
        b.record_ns(Phase::Offload, 1_000);
        a.merge(&b);
        let acc = a.acc(Phase::Offload);
        assert_eq!(acc.count, 3);
        assert_eq!(acc.min_ns, 10);
        assert_eq!(acc.max_ns, 1_000);
        assert!((a.total_wall_s() - 1_110.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn merging_an_enabled_profiler_enables_the_sink() {
        let mut sink = PhaseProfiler::disabled();
        let mut src = PhaseProfiler::enabled();
        src.record_ns(Phase::Export, 5);
        sink.merge(&src);
        assert!(sink.is_enabled());
        assert_eq!(sink.acc(Phase::Export).count, 1);
    }
}
