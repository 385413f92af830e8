//! A gateway-fronted cluster of DF workers.
//!
//! Implements both §III-B architectures over the same worker pool:
//! class A shares every worker between flows (context-switch cost on
//! alternation), class B dedicates `edge_workers` to edge traffic. The
//! cluster owns the edge (EDF) and DCC (FIFO) ready queues of its
//! gateways and exposes the load snapshot the peak policies consume.
//!
//! ## The capacity view
//!
//! [`ClusterSim::load`] is read on every full-cluster arrival (once per
//! sibling) and on every DCC routing decision (once per cluster), so it
//! is a constant-time read of running aggregates: healthy cores, busy
//! cores and preemptible cores. Every change to a worker's capacity
//! goes through [`ClusterSim`]'s own methods, which fold the worker's
//! before/after difference into the aggregates; `restore_state`
//! rebuilds them. Debug builds check them against a summing reference
//! after every such change.

use crate::config::ArchClass;
use crate::regulator::HeatRegulator;
use crate::worker::{SensorState, WorkerSim};
use dfhw::dvfs::DvfsLadder;
use sched::queue::{Discipline, ReadyQueue};
use sched::ClusterLoad;
use simcore::time::{SimDuration, SimTime};
use std::sync::Arc;
use thermal::batch::ThermalBatch;
use thermal::room::RoomParams;
use thermal::thermostat::{ModulatingThermostat, SetpointSchedule};
use workloads::{Job, JobId};

/// Result of a local dispatch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dispatch {
    /// Started on `worker`; completes at the given time.
    Started { worker: usize, finish: SimTime },
    /// No eligible worker can take it right now.
    Full,
}

/// The parts of a cluster's load that change with its workers: one
/// worker's share, or (summed) the cluster's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Capacity {
    /// Cores of workers that are not failed.
    healthy: usize,
    busy: usize,
    preemptible: usize,
}

impl Capacity {
    fn of(w: &WorkerSim) -> Self {
        Capacity {
            healthy: if w.is_failed() { 0 } else { w.n_cores() },
            busy: w.busy_cores(),
            preemptible: w.preemptible_cores(),
        }
    }
}

/// One cluster.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    pub id: usize,
    pub arch: ArchClass,
    workers: Vec<WorkerSim>,
    /// Sum of [`Capacity::of`] over `workers`, kept in step by
    /// [`ClusterSim::mutate_worker`] (derived: rebuilt on restore,
    /// never snapshotted).
    capacity: Capacity,
    /// First room slot of this cluster in the fleet [`ThermalBatch`]
    /// (worker `w`'s room is slot `room_base + w`).
    room_base: usize,
    pub edge_queue: ReadyQueue,
    pub dcc_queue: ReadyQueue,
}

impl ClusterSim {
    /// Build a cluster of `n_workers` Q.rads, appending their rooms to
    /// the fleet batch with per-room thermal diversity (initial
    /// temperatures spread around 17 °C so rooms are not artificially
    /// synchronised).
    pub fn new(
        id: usize,
        n_workers: usize,
        arch: ArchClass,
        setpoint_c: f64,
        rooms: &mut ThermalBatch,
    ) -> Self {
        assert!(n_workers > 0);
        let ladder = Arc::new(DvfsLadder::desktop_i7());
        let room_base = rooms.len();
        let workers = (0..n_workers)
            .map(|w| {
                let initial_c = 16.0 + ((id * 31 + w * 7) % 40) as f64 / 20.0; // 16.0..18.0
                rooms.push(RoomParams::typical_apartment_room(), initial_c);
                let mut ws = WorkerSim::new(
                    w,
                    ladder.clone(),
                    HeatRegulator::for_qrad(),
                    ModulatingThermostat::new(
                        SetpointSchedule {
                            day_c: setpoint_c,
                            night_c: setpoint_c - 3.0,
                            day_start_h: 6.0,
                            night_start_h: 22.0,
                        },
                        1.5,
                    ),
                );
                if let ArchClass::DedicatedEdge { edge_workers, .. } = arch {
                    ws.edge_dedicated = w < edge_workers;
                }
                ws
            })
            .collect();
        let mut c = ClusterSim {
            id,
            arch,
            workers,
            capacity: Capacity::default(),
            room_base,
            edge_queue: ReadyQueue::new(Discipline::Edf),
            dcc_queue: ReadyQueue::new(Discipline::Fifo),
        };
        c.rebuild_capacity();
        c
    }

    /// Recompute the capacity aggregates from the workers' own counts.
    fn rebuild_capacity(&mut self) {
        self.capacity = self
            .workers
            .iter()
            .map(Capacity::of)
            .fold(Capacity::default(), |a, w| Capacity {
                healthy: a.healthy + w.healthy,
                busy: a.busy + w.busy,
                preemptible: a.preemptible + w.preemptible,
            });
    }

    /// The one path by which a worker's capacity changes: run `f` on
    /// worker `i` and fold the change in its healthy, busy and
    /// preemptible cores into the cluster's aggregates.
    fn mutate_worker<R>(&mut self, i: usize, f: impl FnOnce(&mut WorkerSim) -> R) -> R {
        let before = Capacity::of(&self.workers[i]);
        let r = f(&mut self.workers[i]);
        let after = Capacity::of(&self.workers[i]);
        let c = &mut self.capacity;
        c.healthy = c.healthy - before.healthy + after.healthy;
        c.busy = c.busy - before.busy + after.busy;
        c.preemptible = c.preemptible - before.preemptible + after.preemptible;
        #[cfg(debug_assertions)]
        assert_eq!(
            self.capacity,
            self.summed_capacity(),
            "cluster {}: capacity aggregates drifted from the workers",
            self.id
        );
        r
    }

    /// Reference for the aggregates: healthy cores summed over the
    /// workers, busy and preemptible cores summed over every running
    /// slice (independent of the workers' own kept counts).
    #[cfg(any(test, debug_assertions))]
    fn summed_capacity(&self) -> Capacity {
        let slices = || self.workers.iter().flat_map(|w| w.running());
        Capacity {
            healthy: self
                .workers
                .iter()
                .filter(|w| !w.is_failed())
                .map(|w| w.n_cores())
                .sum(),
            busy: slices().map(|s| s.cores).sum(),
            preemptible: slices().filter(|s| !s.job.is_edge()).map(|s| s.cores).sum(),
        }
    }

    /// Room slot of worker `w` in the fleet batch.
    #[inline]
    pub fn room_slot(&self, w: usize) -> usize {
        self.room_base + w
    }

    pub fn n_workers(&self) -> usize {
        self.workers.len()
    }

    pub fn worker(&self, w: usize) -> &WorkerSim {
        &self.workers[w]
    }

    /// Break worker `w` at `now` (see [`WorkerSim::fail`]); returns its
    /// preempted jobs.
    pub fn fail_worker(&mut self, w: usize, now: SimTime) -> Vec<Job> {
        self.mutate_worker(w, |wk| wk.fail(now))
    }

    /// Return worker `w` to service.
    pub fn repair_worker(&mut self, w: usize) {
        self.mutate_worker(w, WorkerSim::repair);
    }

    /// Set worker `w`'s room-sensor fault state.
    pub fn set_sensor(&mut self, w: usize, state: SensorState) {
        self.workers[w].set_sensor(state);
    }

    /// Set the degraded-reading bias of every worker's sensor, °C.
    pub fn set_sensor_bias_c(&mut self, bias_c: f64) {
        for w in &mut self.workers {
            w.set_sensor_bias_c(bias_c);
        }
    }

    /// Start `job` on worker `i` at its full width (the switch cost of
    /// the architecture applies). `None` if the worker cannot take it.
    pub fn dispatch_on(&mut self, i: usize, now: SimTime, job: Job) -> Option<SimTime> {
        let cost = self.switch_cost();
        self.mutate_worker(i, |w| w.dispatch(now, job, cost))
    }

    fn switch_cost(&self) -> SimDuration {
        match self.arch {
            ArchClass::SharedWorkers { switch_cost } => switch_cost,
            ArchClass::DedicatedEdge { .. } => SimDuration::ZERO,
        }
    }

    /// Whether worker `w` may run `job` under the architecture.
    fn eligible(&self, w: usize, job: &Job) -> bool {
        match self.arch {
            ArchClass::SharedWorkers { .. } => true,
            ArchClass::DedicatedEdge { .. } => self.workers[w].edge_dedicated == job.is_edge(),
        }
    }

    /// Minimum width a DCC job may be shrunk to (moldable tasks, ref
    /// [14]): wide batches of independent frames time-share fewer cores
    /// when the heat budget is tight. Edge jobs stay rigid — shrinking
    /// them would stretch a deadline-bound computation.
    const MOLDABLE_MIN_CORES: usize = 1;

    /// Moldable width for `job` on a worker with `free` budgeted cores:
    /// `None` if the job cannot be placed at all.
    fn moldable_width(job: &Job, free: usize) -> Option<usize> {
        if free >= job.cores {
            Some(job.cores)
        } else if !job.is_edge() && free >= Self::MOLDABLE_MIN_CORES {
            Some(free)
        } else {
            None
        }
    }

    /// Tick a single worker off-cycle (the wake path): advance its room
    /// in the fleet batch by the elapsed interval, then complete its
    /// control decision against `backlog` cores.
    fn tick_worker(
        &mut self,
        i: usize,
        now: SimTime,
        outdoor_c: f64,
        backlog: usize,
        rooms: &mut ThermalBatch,
    ) -> f64 {
        let slot = self.room_base + i;
        let w = &mut self.workers[i];
        let dt = now.saturating_since(w.last_tick());
        let room_c = rooms.step_one(slot, dt, outdoor_c, w.heat_w());
        w.complete_tick(now, room_c, backlog)
    }

    /// Try to start `job` now. Tries workers with free budgeted cores
    /// first (preferring ones already serving the job's flow, to avoid
    /// switch costs); failing that, wakes an eligible idle worker via
    /// its regulator (the board may be off between control ticks).
    /// DCC jobs are **moldable**: they shrink to the available width.
    pub fn try_dispatch(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        job: Job,
        rooms: &mut ThermalBatch,
    ) -> Dispatch {
        // Pass 1: free capacity under the current budgets.
        let mut best: Option<(bool, usize, usize)> = None; // (flow match, free, idx)
        for (i, w) in self.workers.iter().enumerate() {
            if !self.eligible(i, &job) || Self::moldable_width(&job, w.free_cores()).is_none() {
                continue;
            }
            let matches = match self.arch {
                ArchClass::SharedWorkers { .. } => {
                    // Prefer a worker whose last job had the same flow.
                    w.running().last().map(|s| s.job.is_edge()) == Some(job.is_edge())
                }
                _ => true,
            };
            // Maximise (flow match, free cores); ties go to the lowest
            // index, which the strict `>` on the pair already ensures.
            let better = match best {
                None => true,
                Some((m, f, _)) => (matches, w.free_cores()) > (m, f),
            };
            if better {
                best = Some((matches, w.free_cores(), i));
            }
        }
        if let Some((_, _, i)) = best {
            let mut placed = job;
            placed.cores =
                Self::moldable_width(&job, self.workers[i].free_cores()).expect("width checked");
            let finish = self
                .dispatch_on(i, now, placed)
                .expect("free_cores checked");
            return Dispatch::Started { worker: i, finish };
        }
        // Pass 2: wake an eligible worker whose board is budget-limited
        // but whose thermostat still demands heat. Failed boards cannot
        // wake — skipping them keeps arrival handling O(healthy) while
        // a cluster is dark.
        for i in 0..self.workers.len() {
            if !self.eligible(i, &job) || self.workers[i].is_failed() {
                continue;
            }
            let backlog = job.cores + self.workers[i].busy_cores();
            self.tick_worker(i, now, outdoor_c, backlog, rooms);
            if let Some(width) = Self::moldable_width(&job, self.workers[i].free_cores()) {
                let mut placed = job;
                placed.cores = width;
                let finish = self.dispatch_on(i, now, placed).expect("woken with room");
                return Dispatch::Started { worker: i, finish };
            }
        }
        Dispatch::Full
    }

    /// Load snapshot for the peak policies, in constant time. Failed
    /// workers contribute no capacity: a dark building reports zero
    /// total cores, so DCC load-balancing and sibling selection route
    /// around it instead of mistaking it for an empty cluster (in
    /// fault-free runs every worker is healthy and the snapshot is
    /// unchanged).
    pub fn load(&self) -> ClusterLoad {
        self.load_from(self.capacity)
    }

    fn load_from(&self, c: Capacity) -> ClusterLoad {
        ClusterLoad {
            cluster: self.id,
            total_cores: c.healthy,
            busy_cores: c.busy,
            preemptible_cores: c.preemptible,
            queued_edge: self.edge_queue.len(),
            queued_dcc: self.dcc_queue.len(),
        }
    }

    /// [`ClusterSim::load`] recomputed from scratch by summing over the
    /// workers and their running slices — the reference the aggregates
    /// are tested against.
    #[cfg(test)]
    fn summed_load(&self) -> ClusterLoad {
        self.load_from(self.summed_capacity())
    }

    /// Heat-driven core capacity right now: what the thermostats would
    /// let compute if backlog were unlimited (the §III-C seasonality
    /// metric, experiment E6).
    pub fn usable_cores(&self) -> usize {
        self.workers.iter().map(|w| w.potential_cores()).sum()
    }

    /// Preempt enough local DCC work to place `job`, on one worker.
    /// Returns the preempted jobs (they must be requeued and their
    /// finish events cancelled by the caller) and the worker index, or
    /// `None` if no single worker can be cleared for the job.
    pub fn preempt_for(&mut self, now: SimTime, job: &Job) -> Option<(usize, Vec<Job>)> {
        // Pick the eligible worker where free + preemptible is largest.
        let target = (0..self.workers.len())
            .filter(|&i| self.eligible(i, job))
            .filter(|&i| {
                self.workers[i].free_cores() + self.workers[i].preemptible_cores() >= job.cores
            })
            .max_by_key(|&i| {
                (
                    self.workers[i].free_cores() + self.workers[i].preemptible_cores(),
                    usize::MAX - i,
                )
            })?;
        let need = job.cores - self.workers[target].free_cores();
        let running: Vec<sched::preempt::RunningTask> = self.workers[target]
            .running()
            .iter()
            .filter(|s| !s.job.is_edge())
            .map(|s| sched::preempt::RunningTask {
                id: s.job.id,
                cores: s.cores,
                started: s.started,
                progress_gops: (now.saturating_since(s.started)).as_secs_f64()
                    * s.cores as f64
                    * s.gops_per_core,
                total_gops: s.job.work_gops,
            })
            .collect();
        let victims = sched::preempt::select_victims(
            &running,
            need,
            sched::preempt::VictimOrder::LeastProgressFirst,
        )?;
        let jobs: Vec<Job> = self.mutate_worker(target, |w| {
            victims.iter().map(|&id| w.preempt(id, now)).collect()
        });
        Some((target, jobs))
    }

    /// Dispatch queued work after capacity changed. Edge first (EDF),
    /// then DCC (FIFO with fit-skipping). Returns the started jobs as
    /// (worker, job, finish).
    pub fn drain(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        rooms: &mut ThermalBatch,
    ) -> Vec<(usize, Job, SimTime)> {
        let mut started = Vec::new();
        // Expired edge requests are dropped (recorded by the platform).
        // The platform calls `take_expired` separately to count them.
        while let Some(job) = self.edge_queue.peek().copied() {
            match self.try_dispatch(now, outdoor_c, job, rooms) {
                Dispatch::Started { worker, finish } => {
                    self.edge_queue.pop();
                    started.push((worker, job, finish));
                }
                Dispatch::Full => break,
            }
        }
        // DCC jobs are moldable down to one core, so a single Full means
        // no eligible worker has any budgeted core free — every later
        // DCC job would fail too. Stop there (keeps drain O(started)
        // even with thousands queued).
        while let Some(job) = self.dcc_queue.pop() {
            match self.try_dispatch(now, outdoor_c, job, rooms) {
                Dispatch::Started { worker, finish } => {
                    started.push((worker, job, finish));
                }
                Dispatch::Full => {
                    self.dcc_queue.push_front(job);
                    break;
                }
            }
        }
        started
    }

    /// Drop queued edge jobs whose deadline already passed.
    pub fn take_expired(&mut self, now: SimTime) -> Vec<Job> {
        self.edge_queue.drop_expired(now)
    }

    /// Stage every worker's pending thermal step (elapsed interval +
    /// current heat output) into the fleet batch. The platform stages
    /// *all* clusters, sweeps the batch once, then calls
    /// [`ClusterSim::finish_control_tick`] — one tight loop over the
    /// whole fleet instead of per-worker `exp` calls.
    pub fn stage_thermal(&self, now: SimTime, rooms: &mut ThermalBatch) {
        for (i, w) in self.workers.iter().enumerate() {
            let dt = now.saturating_since(w.last_tick());
            rooms.stage(self.room_base + i, dt, w.heat_w());
        }
    }

    /// Re-stage boiler heat into the rooms of failed workers (after
    /// [`ClusterSim::stage_thermal`], which staged them at 0 W): the
    /// recovery layer's backfill keeps comfort §IV-stable while boards
    /// are dark. The boiler modulates on the same thermostat as the
    /// server it stands in for. Returns the staged boiler energy, kWh.
    pub fn stage_backfill(&self, now: SimTime, rooms: &mut ThermalBatch, unit_w: f64) -> f64 {
        let mut kwh = 0.0;
        for (i, w) in self.workers.iter().enumerate() {
            if !w.is_failed() {
                continue;
            }
            let dt = now.saturating_since(w.last_tick());
            if dt <= SimDuration::ZERO {
                continue;
            }
            let slot = self.room_base + i;
            let demand = w.thermostat.demand(now, rooms.temperature_c(slot));
            let power = demand * unit_w;
            if power > 0.0 {
                rooms.stage(slot, dt, power);
                kwh += power * dt.as_secs_f64() / 3.6e6;
            }
        }
        kwh
    }

    /// Jobs owned by this cluster right now, by flow: queued plus
    /// running slices, as `(edge, dcc)` — the in-flight half of the
    /// platform's work-conservation ledger.
    pub fn in_flight_by_flow(&self) -> (u64, u64) {
        let mut edge = self.edge_queue.len() as u64;
        let mut dcc = self.dcc_queue.len() as u64;
        for w in &self.workers {
            for s in w.running() {
                if s.job.is_edge() {
                    edge += 1;
                } else {
                    dcc += 1;
                }
            }
        }
        (edge, dcc)
    }

    /// Complete the control loop on every worker after the fleet sweep:
    /// energy accounting, thermostat reads, regulator decisions.
    /// Returns (mean room temp, usable cores, mean demand).
    pub fn finish_control_tick(&mut self, now: SimTime, rooms: &ThermalBatch) -> (f64, usize, f64) {
        let queued_cores: usize = self
            .edge_queue
            .iter()
            .chain(self.dcc_queue.iter())
            .map(|j| j.cores)
            .sum();
        let n = self.workers.len();
        let mut temp_sum = 0.0;
        let mut demand_sum = 0.0;
        for (i, w) in self.workers.iter_mut().enumerate() {
            // Every worker sees the shared backlog (it may be assigned
            // any queued job next drain).
            let room_c = rooms.temperature_c(self.room_base + i);
            let d = w.complete_tick(now, room_c, queued_cores + w.busy_cores());
            temp_sum += room_c;
            demand_sum += d;
        }
        (
            temp_sum / n as f64,
            self.usable_cores(),
            demand_sum / n as f64,
        )
    }

    /// Run the full control loop on this cluster alone: stage, sweep,
    /// complete. Returns (mean room temp, usable cores, mean demand).
    pub fn control_tick(
        &mut self,
        now: SimTime,
        outdoor_c: f64,
        rooms: &mut ThermalBatch,
    ) -> (f64, usize, f64) {
        self.stage_thermal(now, rooms);
        rooms.step_staged(outdoor_c);
        self.finish_control_tick(now, rooms)
    }

    /// Remove a finished job from `worker`.
    pub fn finish(&mut self, worker: usize, id: JobId) {
        self.mutate_worker(worker, |w| w.remove(id));
    }

    /// Total DF energy drawn so far, kWh (all workers).
    pub fn energy_kwh(&self) -> f64 {
        self.workers.iter().map(|w| w.energy_kwh()).sum()
    }

    /// Compute-attributable energy, kWh.
    pub fn compute_energy_kwh(&self) -> f64 {
        self.workers.iter().map(|w| w.compute_energy_kwh()).sum()
    }

    /// Checkpoint the cluster's dynamic state: every worker plus both
    /// ready queues. `room_base` and the worker skeletons are rebuilt
    /// by `Platform::new` from the config before the overlay.
    pub fn snapshot_state(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        use simcore::snapshot::Snapshot;
        w.put_usize(self.workers.len());
        for worker in &self.workers {
            worker.snapshot_state(w);
        }
        self.edge_queue.encode(w);
        self.dcc_queue.encode(w);
    }

    /// Overlay a checkpointed dynamic state onto a freshly built cluster.
    pub fn restore_state(
        &mut self,
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<(), simcore::snapshot::SnapshotError> {
        use simcore::snapshot::{Snapshot, SnapshotError};
        let n = r.take_usize()?;
        if n != self.workers.len() {
            return Err(SnapshotError::Corrupt(format!(
                "cluster {}: snapshot has {n} workers, config built {}",
                self.id,
                self.workers.len()
            )));
        }
        for worker in &mut self.workers {
            worker.restore_state(r)?;
        }
        self.rebuild_capacity();
        self.edge_queue = ReadyQueue::decode(r)?;
        self.dcc_queue = ReadyQueue::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{Flow, JobId};

    fn edge(id: u64, cores: usize) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::EdgeIndirect,
            arrival: SimTime::ZERO,
            work_gops: 30.0,
            cores,
            deadline: Some(SimDuration::from_secs(30)),
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    fn dcc(id: u64, cores: usize, work: f64) -> Job {
        Job {
            id: JobId(id),
            flow: Flow::Dcc,
            arrival: SimTime::ZERO,
            work_gops: work,
            cores,
            deadline: None,
            input_bytes: 0,
            output_bytes: 0,
            org: 0,
        }
    }

    /// Chill every room so thermostats demand full heat: dispatching
    /// then goes through the wake path with a full power budget.
    fn chill(c: &mut ClusterSim, rooms: &mut ThermalBatch) {
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 10.0);
        }
        c.control_tick(SimTime::ZERO, 0.0, rooms);
    }

    fn cluster_a() -> (ClusterSim, ThermalBatch) {
        let mut rooms = ThermalBatch::new();
        let mut c = ClusterSim::new(
            0,
            4,
            ArchClass::SharedWorkers {
                switch_cost: SimDuration::from_secs(2),
            },
            20.0,
            &mut rooms,
        );
        chill(&mut c, &mut rooms);
        (c, rooms)
    }

    fn cluster_b() -> (ClusterSim, ThermalBatch) {
        let mut rooms = ThermalBatch::new();
        let mut c = ClusterSim::new(
            0,
            4,
            ArchClass::DedicatedEdge {
                edge_workers: 1,
                vpn_overhead: SimDuration::from_micros(400),
            },
            20.0,
            &mut rooms,
        );
        chill(&mut c, &mut rooms);
        (c, rooms)
    }

    #[test]
    fn dispatch_lands_on_a_worker() {
        let (mut c, mut rooms) = cluster_a();
        match c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 4, 120.0), &mut rooms) {
            Dispatch::Started { finish, .. } => {
                assert_eq!(finish, SimTime::from_secs(10));
            }
            Dispatch::Full => panic!("cold cluster must have room"),
        }
        assert_eq!(c.load().busy_cores, 4);
    }

    #[test]
    fn arch_b_partitions_workers() {
        let (mut c, mut rooms) = cluster_b();
        // Edge jobs only fit the single dedicated worker (16 cores).
        match c.try_dispatch(SimTime::ZERO, 0.0, edge(1, 16), &mut rooms) {
            Dispatch::Started { worker, .. } => assert_eq!(worker, 0),
            Dispatch::Full => panic!("edge worker free"),
        }
        // A second edge job finds the edge worker full → Full even though
        // 3 DCC workers are idle.
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 1), &mut rooms),
            Dispatch::Full
        );
        // DCC jobs cannot use the dedicated edge worker.
        for i in 0..3 {
            match c.try_dispatch(SimTime::ZERO, 0.0, dcc(10 + i, 16, 100.0), &mut rooms) {
                Dispatch::Started { worker, .. } => assert!(worker >= 1),
                Dispatch::Full => panic!("DCC workers free"),
            }
        }
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, dcc(20, 1, 10.0), &mut rooms),
            Dispatch::Full
        );
    }

    #[test]
    fn full_cluster_reports_full_and_preempts() {
        let (mut c, mut rooms) = cluster_a();
        for i in 0..4 {
            assert!(matches!(
                c.try_dispatch(SimTime::ZERO, 0.0, dcc(i, 16, 1e5), &mut rooms),
                Dispatch::Started { .. }
            ));
        }
        let e = edge(100, 4);
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, e, &mut rooms),
            Dispatch::Full
        );
        let (worker, victims) = c
            .preempt_for(SimTime::from_secs(10), &e)
            .expect("preemptible DCC work exists");
        assert_eq!(victims.len(), 1, "one 16-core victim frees plenty");
        assert!(
            victims[0].work_gops < 1e5,
            "victim keeps only remaining work"
        );
        assert!(c.worker(worker).free_cores() >= 4);
    }

    #[test]
    fn queues_drain_in_priority_order() {
        let (mut c, mut rooms) = cluster_a();
        // Fill the cluster.
        for i in 0..4 {
            c.try_dispatch(SimTime::ZERO, 0.0, dcc(i, 16, 480.0), &mut rooms); // finish at t=10
        }
        c.edge_queue.push(edge(50, 4));
        c.dcc_queue.push(dcc(51, 4, 100.0));
        // Nothing drains while full.
        assert!(c.drain(SimTime::from_secs(5), 0.0, &mut rooms).is_empty());
        // Finish one worker's job → drain starts edge first, then DCC.
        c.finish(0, JobId(0));
        let started = c.drain(SimTime::from_secs(10), 0.0, &mut rooms);
        assert_eq!(started.len(), 2);
        assert_eq!(started[0].1.id, JobId(50), "edge first");
        assert_eq!(started[1].1.id, JobId(51));
    }

    #[test]
    fn expired_edge_jobs_are_dropped() {
        let (mut c, _rooms) = cluster_a();
        c.edge_queue.push(edge(1, 4)); // 30 s deadline from t=0
        let expired = c.take_expired(SimTime::from_secs(31));
        assert_eq!(expired.len(), 1);
        assert!(c.edge_queue.is_empty());
    }

    #[test]
    fn warm_rooms_shrink_capacity() {
        // Capacity is heat-driven (§III-C): with a backlog queued, cold
        // rooms budget many cores; warm rooms budget none.
        let (mut c, mut rooms) = cluster_a();
        for i in 0..4 {
            c.dcc_queue.push(dcc(100 + i, 16, 1e6));
        }
        c.control_tick(SimTime::ZERO, 0.0, &mut rooms);
        let cold_cores = c.usable_cores();
        assert!(cold_cores >= 48, "cold cluster budget {cold_cores}");
        // Warm every room far above the setpoint.
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 26.0);
        }
        c.control_tick(SimTime::from_secs(600), 20.0, &mut rooms);
        let warm_cores = c.usable_cores();
        assert_eq!(warm_cores, 0, "no heat demand, no capacity");
    }

    #[test]
    fn failed_workers_vanish_from_load_and_dispatch() {
        let (mut c, mut rooms) = cluster_a();
        assert_eq!(c.load().total_cores, 64);
        for w in 0..c.n_workers() {
            c.fail_worker(w, SimTime::ZERO);
        }
        assert_eq!(c.load().total_cores, 0, "a dark cluster has no capacity");
        assert_eq!(c.load().utilisation(), 1.0, "…and never looks idle");
        assert_eq!(
            c.try_dispatch(SimTime::ZERO, 0.0, edge(1, 1), &mut rooms),
            Dispatch::Full
        );
    }

    #[test]
    fn backfill_stages_boiler_heat_for_failed_rooms_only() {
        let (mut c, mut rooms) = cluster_a();
        c.fail_worker(0, SimTime::ZERO);
        // Cold rooms → full thermostat demand on the failed slot.
        for w in 0..c.n_workers() {
            rooms.set_temperature_c(c.room_slot(w), 10.0);
        }
        let before = rooms.temperature_c(c.room_slot(0));
        let t1 = SimTime::from_secs(600);
        c.stage_thermal(t1, &mut rooms);
        let kwh = c.stage_backfill(t1, &mut rooms, 500.0);
        rooms.step_staged(0.0);
        // 500 W × 600 s ≈ 0.083 kWh staged into the one failed room.
        assert!((kwh - 500.0 * 600.0 / 3.6e6).abs() < 1e-9, "kwh {kwh}");
        assert!(
            rooms.temperature_c(c.room_slot(0)) > before,
            "boiler must warm the dark room"
        );
    }

    #[test]
    fn in_flight_counts_queued_and_running_by_flow() {
        let (mut c, mut rooms) = cluster_a();
        c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 8, 100.0), &mut rooms);
        c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 2), &mut rooms);
        c.edge_queue.push(edge(3, 1));
        assert_eq!(c.in_flight_by_flow(), (2, 1));
    }

    /// Every [`ClusterLoad`] field, for comparison.
    fn fields(l: &ClusterLoad) -> [usize; 6] {
        [
            l.cluster,
            l.total_cores,
            l.busy_cores,
            l.preemptible_cores,
            l.queued_edge,
            l.queued_dcc,
        ]
    }

    /// Random sequences of every capacity-changing operation — dispatch
    /// and drain, finish, preempt, fail, repair, control ticks and
    /// snapshot/restore — on both architectures: after each step the
    /// kept aggregates must equal the summing reference, field by field.
    #[test]
    fn kept_load_matches_the_summing_reference() {
        use rand::Rng;
        use rand::SeedableRng;
        for (arch, seed) in (0..6u64).flat_map(|s| [(cluster_a as fn() -> _, s), (cluster_b, s)]) {
            let (mut c, mut rooms) = arch();
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut now = SimTime::ZERO;
            let mut next_id = 0u64;
            for step in 0..400 {
                now += SimDuration::from_secs(rng.gen_range(0..30));
                next_id += 1;
                let cores = rng.gen_range(1..9);
                let job = if rng.gen_bool(0.5) {
                    edge(next_id, cores)
                } else {
                    dcc(next_id, cores, rng.gen_range(10.0..2_000.0))
                };
                let op = rng.gen_range(0..8);
                match op {
                    0 | 1 => {
                        if c.try_dispatch(now, 0.0, job, &mut rooms) == Dispatch::Full {
                            if job.is_edge() {
                                c.edge_queue.push(job);
                            } else {
                                c.dcc_queue.push(job);
                            }
                        }
                    }
                    2 => {
                        c.take_expired(now);
                        c.drain(now, 0.0, &mut rooms);
                    }
                    3 => {
                        let running: Vec<(usize, JobId)> = (0..c.n_workers())
                            .flat_map(|w| c.worker(w).running().iter().map(move |s| (w, s.job.id)))
                            .collect();
                        if !running.is_empty() {
                            let (w, id) = running[rng.gen_range(0..running.len())];
                            c.finish(w, id);
                        }
                    }
                    4 => {
                        // As the platform does: preempt only for an edge
                        // job that found the cluster full.
                        let e = edge(next_id, cores);
                        if c.try_dispatch(now, 0.0, e, &mut rooms) == Dispatch::Full {
                            if let Some((w, victims)) = c.preempt_for(now, &e) {
                                c.dispatch_on(w, now, e)
                                    .expect("preemption freed the cores");
                                for v in victims {
                                    c.dcc_queue.push(v);
                                }
                            }
                        }
                    }
                    5 => {
                        let w = rng.gen_range(0..c.n_workers());
                        if c.worker(w).is_failed() {
                            c.repair_worker(w);
                        } else {
                            for j in c.fail_worker(w, now) {
                                if !j.is_edge() {
                                    c.dcc_queue.push(j);
                                }
                            }
                        }
                    }
                    6 => {
                        let outdoor = rng.gen_range(-5.0..15.0);
                        c.control_tick(now, outdoor, &mut rooms);
                    }
                    _ => {
                        let before = c.load();
                        let mut w = simcore::snapshot::SnapshotWriter::new();
                        c.snapshot_state(&mut w);
                        let bytes = w.into_bytes();
                        let (mut fresh, _) = arch();
                        fresh
                            .restore_state(&mut simcore::snapshot::SnapshotReader::new(&bytes))
                            .unwrap();
                        c = fresh;
                        assert_eq!(
                            fields(&c.load()),
                            fields(&before),
                            "seed {seed} step {step}"
                        );
                    }
                }
                assert_eq!(
                    fields(&c.load()),
                    fields(&c.summed_load()),
                    "seed {seed} step {step} op {op}"
                );
            }
        }
    }

    #[test]
    fn load_snapshot_is_consistent() {
        let (mut c, mut rooms) = cluster_a();
        c.try_dispatch(SimTime::ZERO, 0.0, dcc(1, 8, 100.0), &mut rooms);
        c.try_dispatch(SimTime::ZERO, 0.0, edge(2, 2), &mut rooms);
        let l = c.load();
        assert_eq!(l.total_cores, 64);
        assert_eq!(l.busy_cores, 10);
        assert_eq!(l.preemptible_cores, 8, "only the DCC job is preemptible");
    }
}
