//! The simulation engine: drives a user-supplied [`Model`] by popping the
//! future-event list and dispatching each event to the model, which may
//! schedule further events through the [`Scheduler`] facade.

use crate::event::{EventId, SlabEventQueue};
use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::telemetry::{Phase, PhaseProfiler, HOT_PHASE_STRIDE};
use crate::time::{SimDuration, SimTime};

/// A discrete-event model. Implementations own all simulation state and
/// receive every event through [`Model::handle`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Handle one event occurring at time `t`; schedule follow-ups via `sched`.
    fn handle(&mut self, t: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Called once when the engine starts, to seed initial events.
    fn init(&mut self, _sched: &mut Scheduler<Self::Event>) {}

    /// Called once after the main loop ends, before the engine returns.
    /// The place to reclaim per-run collectors living on the scheduler
    /// (e.g. [`Scheduler::profiler`]).
    fn finish(&mut self, _sched: &mut Scheduler<Self::Event>) {}
}

/// Scheduling facade handed to the model during event handling.
pub struct Scheduler<E> {
    now: SimTime,
    queue: SlabEventQueue<E>,
    horizon: SimTime,
    stopped: bool,
    /// Wall-clock phase profiler. Disabled (one branch per event) until
    /// a model enables it from `init`; the engine itself times the
    /// event-pop and dispatch phases, models time their own sub-phases.
    pub profiler: PhaseProfiler,
}

impl<E> Scheduler<E> {
    fn new(horizon: SimTime) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: SlabEventQueue::new(),
            horizon,
            stopped: false,
            profiler: PhaseProfiler::disabled(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// End of the simulation horizon (events at or after it never fire).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Schedule `event` after `delay`. Panics on negative delay.
    pub fn after(&mut self, delay: SimDuration, event: E) -> EventId {
        assert!(!delay.is_negative(), "negative delay {delay:?}");
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedule `event` at absolute time `at`, ahead of every event
    /// scheduled with the other methods for that instant; `at_first`
    /// events fire among themselves in call order. Feeding a stream
    /// sorted by time through `at_first` one event at a time (each
    /// handler scheduling its successor) dispatches exactly as
    /// scheduling the whole stream with [`Scheduler::at`] before any
    /// other call would, while keeping one pending entry instead of the
    /// stream. Panics if `at` is in the past.
    pub fn at_first(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        self.queue.schedule_lead(at, event)
    }

    /// Schedule `event` immediately (after all events already queued for
    /// the current instant, per the FIFO tie-break).
    pub fn immediately(&mut self, event: E) -> EventId {
        self.queue.schedule(self.now, event)
    }

    /// Cancel a scheduled event. Returns whether it was still pending.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Request the engine to stop after the current event completes.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of concurrently pending events so far.
    pub fn peak_pending(&self) -> usize {
        self.queue.peak_depth()
    }
}

/// The scheduler checkpoints its clock, horizon, stop flag, and the
/// event queue **verbatim** (payloads included). The phase profiler is
/// deliberately excluded: it measures wall-clock time of this process,
/// which is not simulation state — a restored run starts a fresh one.
impl<E: Snapshot> Snapshot for Scheduler<E> {
    fn encode(&self, w: &mut SnapshotWriter) {
        self.now.encode(w);
        self.horizon.encode(w);
        w.put_bool(self.stopped);
        self.queue.encode(w);
    }

    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let now = SimTime::decode(r)?;
        let horizon = SimTime::decode(r)?;
        let stopped = r.take_bool()?;
        let queue = SlabEventQueue::decode(r)?;
        Ok(Scheduler {
            now,
            horizon,
            stopped,
            queue,
            profiler: PhaseProfiler::disabled(),
        })
    }
}

/// Outcome of an engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Number of events dispatched.
    pub events: u64,
    /// Simulation time when the run ended.
    pub end_time: SimTime,
    /// Why the run ended.
    pub reason: StopReason,
    /// High-water mark of pending events in the future-event list.
    pub peak_queue: usize,
}

/// Why an engine run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The future-event list drained.
    QueueEmpty,
    /// The next event lay at or beyond the horizon.
    HorizonReached,
    /// The model called [`Scheduler::stop`].
    Stopped,
    /// The event budget was exhausted (runaway guard).
    EventBudget,
}

/// Result of [`Engine::run_until`]: either the run completed (drained,
/// hit the horizon, stopped, or exhausted its budget) or it paused at
/// the requested instant with all state intact for checkpointing.
pub enum EngineRun<M: Model> {
    /// The run reached `pause_at` and stopped *before* dispatching any
    /// event at or after it. `Model::finish` has **not** run; the
    /// engine can be snapshotted or resumed with another `run_until`.
    /// (Boxed: an engine is far larger than a run summary, and pausing
    /// happens at most once per leg.)
    Paused(Box<Engine<M>>),
    /// The run completed; `Model::finish` has run.
    Finished(M, RunSummary),
}

/// The discrete-event engine.
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    /// Hard cap on dispatched events; guards against accidental infinite
    /// self-scheduling loops in models. Default: `u64::MAX`.
    pub event_budget: u64,
    /// Events dispatched so far — a field, not a loop local, so the
    /// count survives pause/resume and checkpoint/restore.
    events: u64,
    /// Whether `Model::init` has run (it must run exactly once per
    /// simulation, even across pause/resume and restore).
    initialised: bool,
}

impl<M: Model> Engine<M> {
    /// Create an engine that will run until `horizon` (exclusive).
    pub fn new(model: M, horizon: SimTime) -> Self {
        Engine {
            model,
            sched: Scheduler::new(horizon),
            event_budget: u64::MAX,
            events: 0,
            initialised: false,
        }
    }

    /// Rebuild an engine from checkpointed parts. `Model::init` will
    /// *not* run again: the scheduler's queue already holds the future
    /// the original `init` (and everything after it) scheduled.
    pub fn restored(model: M, sched: Scheduler<M::Event>, events: u64) -> Self {
        Engine {
            model,
            sched,
            event_budget: u64::MAX,
            events,
            initialised: true,
        }
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    pub fn model(&self) -> &M {
        &self.model
    }

    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    pub fn scheduler(&self) -> &Scheduler<M::Event> {
        &self.sched
    }

    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Run to completion and return the model plus a run summary.
    pub fn run(self) -> (M, RunSummary) {
        match self.run_until(SimTime::MAX) {
            EngineRun::Finished(m, s) => (m, s),
            // `pause_at == MAX` can never pause: every schedulable event
            // is strictly earlier.
            EngineRun::Paused(_) => unreachable!("run cannot pause at SimTime::MAX"),
        }
    }

    /// Run until the simulation ends or the clock is about to pass
    /// `pause_at`, whichever comes first. Events strictly before
    /// `pause_at` are dispatched; events at or after it stay queued.
    ///
    /// The horizon wins ties: a `pause_at` at or beyond the horizon
    /// never pauses, so the final leg of a resumed run finishes
    /// normally (including `Model::finish`).
    pub fn run_until(mut self, pause_at: SimTime) -> EngineRun<M> {
        if !self.initialised {
            self.model.init(&mut self.sched);
            self.initialised = true;
        }
        let reason = loop {
            if self.sched.stopped {
                break StopReason::Stopped;
            }
            if self.events >= self.event_budget {
                break StopReason::EventBudget;
            }
            // Per-event phases are sampled: two clock reads per event
            // would dominate the loop, so only one event per stride
            // pays them (see `HOT_PHASE_STRIDE`).
            let sample = self.events & (HOT_PHASE_STRIDE - 1) == 0;
            let t_pop = self.sched.profiler.start_if(sample);
            let Some(next) = self.sched.queue.peek_time() else {
                break StopReason::QueueEmpty;
            };
            if next >= self.sched.horizon {
                break StopReason::HorizonReached;
            }
            if next >= pause_at {
                return EngineRun::Paused(Box::new(self));
            }
            let (t, ev) = self.sched.queue.pop().expect("peeked event vanished");
            self.sched.profiler.stop(Phase::EventPop, t_pop);
            debug_assert!(t >= self.sched.now, "time went backwards");
            self.sched.now = t;
            let t_dispatch = self.sched.profiler.start_if(sample);
            self.model.handle(t, ev, &mut self.sched);
            self.sched.profiler.stop(Phase::Dispatch, t_dispatch);
            self.events += 1;
        };
        self.model.finish(&mut self.sched);
        let end_time = match reason {
            StopReason::HorizonReached => self.sched.horizon,
            _ => self.sched.now,
        };
        let peak_queue = self.sched.peak_pending();
        EngineRun::Finished(
            self.model,
            RunSummary {
                events: self.events,
                end_time,
                reason,
                peak_queue,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that counts down: each event schedules the next one until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    impl Model for Countdown {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.after(SimDuration::SECOND, ());
        }
        fn handle(&mut self, t: SimTime, _: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(t);
            self.remaining -= 1;
            if self.remaining > 0 {
                sched.after(SimDuration::SECOND, ());
            }
        }
    }

    #[test]
    fn countdown_runs_to_queue_empty() {
        let (m, s) = Engine::new(
            Countdown {
                remaining: 5,
                fired_at: vec![],
            },
            SimTime::from_secs(100),
        )
        .run();
        assert_eq!(m.remaining, 0);
        assert_eq!(s.events, 5);
        assert_eq!(s.reason, StopReason::QueueEmpty);
        assert_eq!(
            m.fired_at,
            (1..=5).map(SimTime::from_secs).collect::<Vec<_>>()
        );
    }

    #[test]
    fn horizon_cuts_off() {
        let (m, s) = Engine::new(
            Countdown {
                remaining: 1000,
                fired_at: vec![],
            },
            SimTime::from_secs(3),
        )
        .run();
        // Events at t=1,2 fire; t=3 is at the horizon and does not.
        assert_eq!(m.fired_at.len(), 2);
        assert_eq!(s.reason, StopReason::HorizonReached);
        assert_eq!(s.end_time, SimTime::from_secs(3));
    }

    struct Stopper;
    impl Model for Stopper {
        type Event = u32;
        fn init(&mut self, sched: &mut Scheduler<u32>) {
            for i in 0..10 {
                sched.after(SimDuration::from_secs(i as i64 + 1), i);
            }
        }
        fn handle(&mut self, _t: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            if ev == 2 {
                sched.stop();
            }
        }
    }

    #[test]
    fn model_can_stop_engine() {
        let (_, s) = Engine::new(Stopper, SimTime::from_secs(100)).run();
        assert_eq!(s.reason, StopReason::Stopped);
        assert_eq!(s.events, 3);
        assert_eq!(s.end_time, SimTime::from_secs(3));
    }

    struct Runaway;
    impl Model for Runaway {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.immediately(());
        }
        fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
            sched.immediately(());
        }
    }

    #[test]
    fn event_budget_guards_runaway_models() {
        let mut engine = Engine::new(Runaway, SimTime::from_secs(1));
        engine.event_budget = 1_000;
        let (_, s) = engine.run();
        assert_eq!(s.reason, StopReason::EventBudget);
        assert_eq!(s.events, 1_000);
    }

    struct Canceller {
        cancelled_fired: bool,
    }
    impl Model for Canceller {
        type Event = &'static str;
        fn init(&mut self, sched: &mut Scheduler<&'static str>) {
            let doomed = sched.after(SimDuration::from_secs(5), "doomed");
            sched.after(SimDuration::from_secs(1), "keep");
            // Cancel from init itself.
            assert!(sched.cancel(doomed));
        }
        fn handle(&mut self, _t: SimTime, ev: &'static str, _s: &mut Scheduler<&'static str>) {
            if ev == "doomed" {
                self.cancelled_fired = true;
            }
        }
    }

    #[test]
    fn cancelled_events_never_fire() {
        let (m, s) = Engine::new(
            Canceller {
                cancelled_fired: false,
            },
            SimTime::from_secs(100),
        )
        .run();
        assert!(!m.cancelled_fired);
        assert_eq!(s.events, 1);
    }

    /// A model that switches the scheduler's profiler on in `init` and
    /// reclaims it in `finish` — the pattern the platform uses.
    struct Profiled {
        remaining: u32,
        collected: Option<crate::telemetry::PhaseProfiler>,
    }

    impl Model for Profiled {
        type Event = ();
        fn init(&mut self, sched: &mut Scheduler<()>) {
            sched.profiler = crate::telemetry::PhaseProfiler::enabled();
            sched.after(SimDuration::SECOND, ());
        }
        fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
            self.remaining -= 1;
            if self.remaining > 0 {
                sched.after(SimDuration::SECOND, ());
            }
        }
        fn finish(&mut self, sched: &mut Scheduler<()>) {
            self.collected = Some(std::mem::take(&mut sched.profiler));
        }
    }

    #[test]
    fn engine_times_pop_and_dispatch_when_profiling() {
        // Per-event phases are sampled one in HOT_PHASE_STRIDE, so run
        // enough events for exactly two samples per phase.
        let n = HOT_PHASE_STRIDE as u32 + 1;
        let (m, s) = Engine::new(
            Profiled {
                remaining: n,
                collected: None,
            },
            SimTime::from_secs(1_000),
        )
        .run();
        assert_eq!(s.events, u64::from(n));
        let prof = m.collected.expect("finish hook ran");
        assert_eq!(prof.acc(Phase::Dispatch).count, 2);
        assert_eq!(prof.acc(Phase::EventPop).count, 2);
        assert!(prof.acc(Phase::Dispatch).total_ns > 0 || prof.acc(Phase::EventPop).total_ns > 0);
    }

    #[test]
    fn profiler_defaults_to_disabled() {
        let (_, _) = Engine::new(
            Countdown {
                remaining: 2,
                fired_at: vec![],
            },
            SimTime::from_secs(100),
        )
        .run();
        // No panic, no profiling: the default path records nothing.
        let sched: Scheduler<()> = Scheduler::new(SimTime::from_secs(1));
        assert!(!sched.profiler.is_enabled());
    }

    #[test]
    fn run_until_pauses_before_the_mark_and_resumes_identically() {
        let mk = || {
            Engine::new(
                Countdown {
                    remaining: 10,
                    fired_at: vec![],
                },
                SimTime::from_secs(100),
            )
        };
        let (ref_model, ref_summary) = mk().run();

        let paused = match mk().run_until(SimTime::from_secs(4)) {
            EngineRun::Paused(e) => e,
            EngineRun::Finished(..) => panic!("should pause"),
        };
        // Events at t=1..3 fired; the t=4 event is still queued.
        assert_eq!(paused.events(), 3);
        assert_eq!(paused.model().fired_at.len(), 3);
        assert_eq!(paused.scheduler().pending(), 1);
        let (m, s) = paused.run();
        assert_eq!(m.fired_at, ref_model.fired_at);
        assert_eq!(s, ref_summary);
    }

    #[test]
    fn pause_at_or_past_horizon_finishes_normally() {
        let e = Engine::new(
            Countdown {
                remaining: 1000,
                fired_at: vec![],
            },
            SimTime::from_secs(3),
        );
        match e.run_until(SimTime::from_secs(3)) {
            EngineRun::Finished(_, s) => {
                assert_eq!(s.reason, StopReason::HorizonReached);
                assert_eq!(s.end_time, SimTime::from_secs(3));
            }
            EngineRun::Paused(_) => panic!("horizon must win the tie"),
        }
    }

    #[test]
    fn scheduler_snapshot_restores_a_paused_run_bit_identically() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};

        let mk = || {
            Engine::new(
                Countdown {
                    remaining: 10,
                    fired_at: vec![],
                },
                SimTime::from_secs(100),
            )
        };
        let (ref_model, ref_summary) = mk().run();

        let paused = match mk().run_until(SimTime::from_secs(6)) {
            EngineRun::Paused(e) => e,
            EngineRun::Finished(..) => panic!("should pause"),
        };
        let mut w = SnapshotWriter::new();
        paused.scheduler().encode(&mut w);
        let events = paused.events();
        let fired_so_far = paused.model().fired_at.clone();
        let remaining = paused.model().remaining;
        drop(paused); // the "fresh process": nothing survives but bytes

        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let sched = Scheduler::decode(&mut r).unwrap();
        r.expect_end().unwrap();
        let restored = Engine::restored(
            Countdown {
                remaining,
                fired_at: fired_so_far,
            },
            sched,
            events,
        );
        let (m, s) = restored.run();
        assert_eq!(m.fired_at, ref_model.fired_at);
        assert_eq!(s, ref_summary);
    }

    /// Order oracle for [`Scheduler::at_first`]: a presorted stream fed
    /// one event at a time must dispatch exactly as the same stream
    /// scheduled eagerly with `at` before any other call, with ordinary
    /// events (immediate, delayed, colliding with stream instants,
    /// cancelled) interleaved by the handlers.
    mod lead_lane_oracle {
        use super::*;
        use crate::snapshot::{SnapshotReader, SnapshotWriter};

        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Ev {
            /// The stream entry with this index.
            Arrival(usize),
            Work(u64),
        }

        impl Snapshot for Ev {
            fn encode(&self, w: &mut SnapshotWriter) {
                match *self {
                    Ev::Arrival(k) => {
                        w.put_u8(0);
                        w.put_usize(k);
                    }
                    Ev::Work(id) => {
                        w.put_u8(1);
                        w.put_u64(id);
                    }
                }
            }
            fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
                match r.take_u8()? {
                    0 => Ok(Ev::Arrival(r.take_usize()?)),
                    1 => Ok(Ev::Work(r.take_u64()?)),
                    b => Err(SnapshotError::Corrupt(format!("tag {b}"))),
                }
            }
        }

        const HORIZON_S: i64 = 15;
        const SPAWN_BUDGET: u64 = 150;

        #[derive(Clone)]
        struct Feeder {
            /// Arrival instants, sorted; the index is the arrival's id.
            stream: Vec<SimTime>,
            streamed: bool,
            /// Next stream index to schedule (streamed mode).
            next: usize,
            rng: u64,
            /// Ordinary events the handlers may cancel later.
            held: Vec<EventId>,
            spawned: u64,
            log: Vec<(SimTime, Ev)>,
            cancels: Vec<bool>,
        }

        impl Feeder {
            fn new(seed: u64, streamed: bool) -> Self {
                let mut f = Feeder {
                    stream: Vec::new(),
                    streamed,
                    next: 0,
                    rng: seed,
                    held: Vec::new(),
                    spawned: 0,
                    log: Vec::new(),
                    cancels: Vec::new(),
                };
                // Whole seconds over a span past the horizon: exact
                // ties, same-instant batches, t = 0, and entries that
                // never fire.
                let n = f.rand() % 40;
                let mut stream: Vec<SimTime> = (0..n)
                    .map(|_| SimTime::from_secs((f.rand() % (HORIZON_S as u64 + 2)) as i64))
                    .collect();
                stream.sort();
                f.stream = stream;
                f
            }

            /// SplitMix64: the model's own stream, advanced only by
            /// handled events, so both paths draw the same numbers as
            /// long as they dispatch the same sequence.
            fn rand(&mut self) -> u64 {
                self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }

            fn feed(&mut self, sched: &mut Scheduler<Ev>) {
                if let Some(&at) = self.stream.get(self.next) {
                    sched.at_first(at, Ev::Arrival(self.next));
                    self.next += 1;
                }
            }

            fn spawn(&mut self, sched: &mut Scheduler<Ev>) {
                if self.spawned >= SPAWN_BUDGET {
                    return;
                }
                self.spawned += 1;
                let ev = Ev::Work(self.spawned);
                let r = self.rand();
                let id = match r % 4 {
                    0 => sched.immediately(ev),
                    1 => sched.after(SimDuration::from_secs((r >> 8) as i64 % 3), ev),
                    // Collide with a stream instant (or now, if it passed).
                    2 if !self.stream.is_empty() => {
                        let at = self.stream[(r >> 8) as usize % self.stream.len()];
                        sched.at(at.max(sched.now()), ev)
                    }
                    _ => sched.after(SimDuration::from_millis(500), ev),
                };
                if r & (1 << 40) != 0 {
                    self.held.push(id);
                }
            }
        }

        impl Model for Feeder {
            type Event = Ev;

            fn init(&mut self, sched: &mut Scheduler<Ev>) {
                if self.streamed {
                    self.feed(sched);
                } else {
                    for (k, &at) in self.stream.iter().enumerate() {
                        sched.at(at, Ev::Arrival(k));
                    }
                }
                for _ in 0..4 {
                    self.spawn(sched);
                }
            }

            fn handle(&mut self, t: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
                if self.streamed && matches!(ev, Ev::Arrival(_)) {
                    self.feed(sched);
                }
                self.log.push((t, ev));
                for _ in 0..self.rand() % 3 {
                    self.spawn(sched);
                }
                if self.rand().is_multiple_of(4) && !self.held.is_empty() {
                    let k = self.rand() as usize % self.held.len();
                    let id = self.held.swap_remove(k);
                    self.cancels.push(sched.cancel(id));
                }
            }
        }

        fn engine(seed: u64, streamed: bool) -> Engine<Feeder> {
            Engine::new(Feeder::new(seed, streamed), SimTime::from_secs(HORIZON_S))
        }

        #[test]
        fn streamed_arrivals_dispatch_exactly_as_eager_ones() {
            let mut ties = 0;
            for seed in 0..400 {
                let (eager, es) = engine(seed, false).run();
                let (streamed, ss) = engine(seed, true).run();
                assert_eq!(streamed.log, eager.log, "seed {seed}");
                assert_eq!(streamed.cancels, eager.cancels, "seed {seed}");
                assert_eq!(
                    (ss.events, ss.end_time, ss.reason),
                    (es.events, es.end_time, es.reason),
                    "seed {seed}"
                );
                assert!(ss.peak_queue <= es.peak_queue, "seed {seed}");
                // Count arrivals that tied with an ordinary event, so
                // the test cannot silently stop exercising ties.
                ties += eager
                    .log
                    .windows(2)
                    .filter(|w| {
                        w[0].0 == w[1].0
                            && matches!(w[0].1, Ev::Arrival(_))
                            && matches!(w[1].1, Ev::Work(_))
                    })
                    .count();
            }
            assert!(ties > 100, "only {ties} arrival/ordinary ties exercised");
        }

        #[test]
        fn streamed_arrivals_survive_snapshot_and_restore_mid_stream() {
            for seed in 0..100 {
                let (eager, es) = engine(seed, false).run();
                for pause_ms in [0, 1_000, 2_500, 6_000, 11_000] {
                    let paused = match engine(seed, true)
                        .run_until(SimTime::from_micros(pause_ms * 1_000))
                    {
                        EngineRun::Paused(e) => e,
                        EngineRun::Finished(..) => continue,
                    };
                    let mut w = SnapshotWriter::new();
                    paused.scheduler().encode(&mut w);
                    let model = paused.model().clone();
                    let events = paused.events();
                    drop(paused);
                    let bytes = w.into_bytes();
                    let mut r = SnapshotReader::new(&bytes);
                    let sched = Scheduler::decode(&mut r).unwrap();
                    r.expect_end().unwrap();
                    let (m, s) = Engine::restored(model, sched, events).run();
                    assert_eq!(m.log, eager.log, "seed {seed} pause {pause_ms} ms");
                    assert_eq!(m.cancels, eager.cancels, "seed {seed} pause {pause_ms} ms");
                    assert_eq!(s.events, es.events, "seed {seed} pause {pause_ms} ms");
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn init(&mut self, sched: &mut Scheduler<()>) {
                sched.after(SimDuration::from_secs(10), ());
            }
            fn handle(&mut self, _t: SimTime, _: (), sched: &mut Scheduler<()>) {
                sched.at(SimTime::from_secs(1), ());
            }
        }
        let _ = Engine::new(Bad, SimTime::from_secs(100)).run();
    }
}
