//! The DF3 platform: the discrete-event model of Figure 3 / Figure 5.
//!
//! Wires together weather, per-room thermals, the DVFS regulators, the
//! cluster gateways and queues, the peak-management policies, and the
//! remote datacenter, then runs a [`workloads::job::JobStream`] through
//! the three flows and reports [`PlatformStats`].
//!
//! ## Network accounting
//!
//! Message delays are analytic (the links are never congested in these
//! experiments): each job's response time includes its flow's ingress
//! and egress path costs — device↔worker for direct edge, the extra
//! master hop for indirect edge (§II-C), the VPN overhead under
//! architecture B, an inter-cluster fiber hop for horizontal offloads,
//! and the WAN for anything that lands in the datacenter.
//!
//! ## Faults and recovery
//!
//! A [`crate::faults::FaultPlan`] on the config turns on the fault
//! runtime: worker churn (absorbing the legacy `worker_mtbf` fields),
//! correlated cluster power outages, repeated master-outage windows,
//! link degradation/partition, and sensor faults. The recovery layer
//! re-dispatches orphans through the normal offload decision, retries
//! rejected edge requests while their deadline allows, quarantines
//! flapping workers, and stages boiler heat into dark rooms. An empty
//! plan skips the runtime entirely: fault-free runs are bit-identical
//! to a build without the fault layer.

use crate::cluster::{ClusterSim, Dispatch};
use crate::config::{ArchClass, PlatformConfig};
use crate::datacenter::{Datacenter, DatacenterConfig};
use crate::faults::{FaultEventKind, FaultPlan, FaultRuntime, SensorFaultKind};
use crate::stats::PlatformStats;
use crate::worker::SensorState;
use dfnet::link::{Link, LinkClass};
use dfnet::protocol::Protocol;
use sched::PeakAction;
use simcore::engine::{Engine, EngineRun, Model, RunSummary, Scheduler};
use simcore::event::EventId;
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotFile, SnapshotReader, SnapshotWriter};
use simcore::telemetry::{
    FieldSet, FlightRecorder, Phase, PhaseProfiler, TagId, Telemetry, Track, Value,
};
use simcore::time::{SimDuration, SimTime};
use simcore::RngStreams;
use thermal::batch::ThermalBatch;
use thermal::weather::{Weather, WeatherConfig, WeatherTable};
use workloads::job::JobStream;
use workloads::{Flow, Job, JobId};

/// Where a job's service happened (for network accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Venue {
    Local { cluster: usize },
    Horizontal { from: usize, to: usize },
    Datacenter,
}

/// Events of the platform model.
#[derive(Debug, Clone)]
enum Ev {
    Arrival(Job),
    FinishLocal {
        cluster: usize,
        worker: usize,
        job: Job,
        venue: Venue,
    },
    FinishDc {
        job: Job,
    },
    ControlTick,
    WorkerFail {
        cluster: usize,
        worker: usize,
    },
    WorkerRepair {
        cluster: usize,
        worker: usize,
    },
    /// A building-level power outage begins (`outage` indexes the
    /// plan's `cluster_outages`).
    ClusterDown {
        outage: usize,
    },
    /// The outage's window ends; power is restored.
    ClusterUp {
        outage: usize,
    },
    /// A scheduled re-submission of a rejected edge request.
    Retry {
        job: Job,
    },
}

/// Finish-event handles of running local jobs, indexed by global worker
/// slot (`cluster * workers_per_cluster + worker`). Every lookup site
/// knows the worker, and a worker runs only a handful of concurrent
/// slices, so a linear scan of a small per-slot vector replaces hashing
/// `JobId`s on every dispatch, finish, preemption, and failure.
struct RunningEvents {
    slots: Vec<Vec<(JobId, EventId)>>,
}

impl RunningEvents {
    fn new(n_slots: usize) -> Self {
        RunningEvents {
            slots: vec![Vec::new(); n_slots],
        }
    }

    fn insert(&mut self, slot: usize, job: JobId, ev: EventId) {
        self.slots[slot].push((job, ev));
    }

    fn remove(&mut self, slot: usize, job: JobId) -> Option<EventId> {
        let v = &mut self.slots[slot];
        let ix = v.iter().position(|&(j, _)| j == job)?;
        Some(v.swap_remove(ix).1)
    }
}

/// Dense flow index for per-flow telemetry tag arrays.
#[inline]
fn flow_ix(f: Flow) -> usize {
    match f {
        Flow::Dcc => 0,
        Flow::EdgeDirect => 1,
        Flow::EdgeIndirect => 2,
    }
}

/// Telemetry tags pre-interned at construction. Interning works on a
/// disabled recorder too (stable ids without storage), so enabled and
/// disabled runs share one code path and identically-driven runs get
/// identical ids — exports stay byte-reproducible.
struct Tags {
    /// Per-flow job-span tags, indexed by [`flow_ix`].
    job_span: [TagId; 3],
    job_reject: TagId,
    job_retry: TagId,
    job_abandon: TagId,
    job_expire: TagId,
    peak_preempt: TagId,
    peak_offload_vertical: TagId,
    peak_offload_horizontal: TagId,
    peak_delay: TagId,
    /// Fault-timeline tags, indexed by `FaultEventKind as usize`.
    fault: [TagId; 5],
    tick_sample: TagId,
    wd_temp_band: TagId,
    wd_queue_depth: TagId,
    wd_ledger_drift: TagId,
    k_job: TagId,
    k_gops: TagId,
    k_cluster: TagId,
    k_worker: TagId,
    k_from: TagId,
    k_to: TagId,
    k_attempts: TagId,
    k_temp_c: TagId,
    k_lo_c: TagId,
    k_hi_c: TagId,
    k_queued: TagId,
    k_limit: TagId,
    k_usable_cores: TagId,
    k_heat_demand: TagId,
    k_arrived: TagId,
    k_accounted: TagId,
}

impl Tags {
    fn intern(r: &mut FlightRecorder) -> Self {
        Tags {
            job_span: [
                r.tag("job.dcc"),
                r.tag("job.edge_direct"),
                r.tag("job.edge_indirect"),
            ],
            job_reject: r.tag("job.reject"),
            job_retry: r.tag("job.retry"),
            job_abandon: r.tag("job.abandon"),
            job_expire: r.tag("job.expire"),
            peak_preempt: r.tag("peak.preempt"),
            peak_offload_vertical: r.tag("peak.offload_vertical"),
            peak_offload_horizontal: r.tag("peak.offload_horizontal"),
            peak_delay: r.tag("peak.delay"),
            fault: FaultEventKind::ALL.map(|k| r.tag(&format!("fault.{}", k.label()))),
            tick_sample: r.tag("tick.sample"),
            wd_temp_band: r.tag("watchdog.temp_band"),
            wd_queue_depth: r.tag("watchdog.queue_depth"),
            wd_ledger_drift: r.tag("watchdog.ledger_drift"),
            k_job: r.tag("job"),
            k_gops: r.tag("gops"),
            k_cluster: r.tag("cluster"),
            k_worker: r.tag("worker"),
            k_from: r.tag("from"),
            k_to: r.tag("to"),
            k_attempts: r.tag("attempts"),
            k_temp_c: r.tag("temp_c"),
            k_lo_c: r.tag("lo_c"),
            k_hi_c: r.tag("hi_c"),
            k_queued: r.tag("queued"),
            k_limit: r.tag("limit"),
            k_usable_cores: r.tag("usable_cores"),
            k_heat_demand: r.tag("heat_demand"),
            k_arrived: r.tag("arrived"),
            k_accounted: r.tag("accounted"),
        }
    }
}

/// The assembled platform (a `simcore::Model`).
pub struct Platform {
    config: PlatformConfig,
    /// Tabulated weather trace: `outdoor_c` is two loads and a lerp.
    weather: WeatherTable,
    /// Every room in the fleet, in one SoA batch (cluster `c`, worker
    /// `w` lives at slot `wslot(c, w)`), stepped in one sweep per
    /// control tick.
    rooms: ThermalBatch,
    clusters: Vec<ClusterSim>,
    datacenter: Option<Datacenter>,
    /// Finish-event handles of running local jobs, for preemption.
    running_events: RunningEvents,
    pub stats: PlatformStats,
    /// Flight recorder (plus the phase profiler reclaimed from the
    /// engine after the run). Only ever observes: a disabled recorder
    /// leaves the run bit-identical to a build without telemetry.
    pub telemetry: Telemetry,
    /// Pre-interned telemetry tag ids.
    tags: Tags,
    // Link models (uncongested, analytic).
    lan: Link,
    device_link: Link,
    fiber: Link,
    wan: Link,
    last_energy_sample: SimTime,
    /// Seed-derived streams (worker-failure processes).
    streams: RngStreams,
    /// Fault runtime — `None` when the plan is empty, so fault-free
    /// runs pay nothing and stay bit-identical.
    faults: Option<FaultRuntime>,
    /// When each worker slot went dark (for MTTR accounting).
    down_since: Vec<Option<SimTime>>,
    /// Pending churn-failure event per worker slot (cancelled when a
    /// cluster outage takes the whole building down first).
    fail_events: Vec<Option<EventId>>,
    /// Pending repair event per worker slot (cancelled when a cluster
    /// outage's restoration repairs the board early).
    repair_events: Vec<Option<EventId>>,
    /// Retry events scheduled but not yet fired (in-flight for the
    /// conservation ledger).
    retries_pending: u64,
    /// Churn parameters in force: the plan's churn when set, else the
    /// legacy `worker_mtbf`/`worker_repair_time` shorthands.
    effective_mtbf: Option<SimDuration>,
    effective_repair: SimDuration,
}

/// Outcome of a platform run.
#[derive(Debug)]
pub struct PlatformOutcome {
    pub stats: PlatformStats,
    pub events: u64,
    pub end: SimTime,
    /// High-water mark of pending events in the future-event list.
    /// Arrivals are streamed, so at most one arrival is ever pending:
    /// the depth is bounded by the platform's state, not the horizon.
    pub peak_queue: usize,
    /// Flight recorder and phase profiler of the run (both empty and
    /// disabled unless the config turned telemetry on).
    pub telemetry: Telemetry,
}

impl Platform {
    /// Build a platform from a config (weather is derived from the seed).
    pub fn new(config: PlatformConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("bad config: {e}"));
        let streams = RngStreams::new(config.seed);
        let weather = WeatherTable::tabulate(&Weather::generate(
            WeatherConfig::paris(config.calendar),
            config.horizon + SimDuration::DAY,
            &streams,
        ));
        let n_worker_slots = config.n_clusters * config.workers_per_cluster;
        let mut rooms = ThermalBatch::with_capacity(n_worker_slots);
        rooms.set_scalar_reference(config.scalar_thermal);
        let mut clusters: Vec<ClusterSim> = (0..config.n_clusters)
            .map(|i| {
                ClusterSim::new(
                    i,
                    config.workers_per_cluster,
                    config.arch,
                    config.setpoint_c,
                    &mut rooms,
                )
            })
            .collect();
        let datacenter = (config.datacenter_cores > 0)
            .then(|| Datacenter::new(DatacenterConfig::standard(config.datacenter_cores)));
        let faults = (!config.faults.is_empty())
            .then(|| FaultRuntime::new(config.faults.clone(), config.n_clusters, n_worker_slots));
        let (effective_mtbf, effective_repair) = match config.faults.worker_churn {
            Some(c) => (Some(c.mtbf), c.repair_time),
            None => (config.worker_mtbf, config.worker_repair_time),
        };
        if let Some(rt) = &faults {
            if rt.has_sensor_faults() {
                let bias = rt.plan().recovery.sensor_bias_c;
                for c in &mut clusters {
                    c.set_sensor_bias_c(bias);
                }
            }
        }
        let mut telemetry = Telemetry::from_config(config.telemetry);
        let tags = Tags::intern(&mut telemetry.recorder);
        Platform {
            config,
            weather,
            rooms,
            clusters,
            datacenter,
            running_events: RunningEvents::new(n_worker_slots),
            stats: PlatformStats::new(),
            telemetry,
            tags,
            lan: Link::new(Protocol::EthernetLan),
            device_link: Link::new(Protocol::Wifi),
            fiber: Link::new(Protocol::Fiber),
            wan: Link::new(Protocol::WanInternet).with_extra_latency(0.022),
            last_energy_sample: SimTime::ZERO,
            streams,
            faults,
            down_since: vec![None; n_worker_slots],
            fail_events: vec![None; n_worker_slots],
            repair_events: vec![None; n_worker_slots],
            retries_pending: 0,
            effective_mtbf,
            effective_repair,
        }
    }

    /// Run `jobs` through the platform. Consumes self.
    pub fn run(self, jobs: &JobStream) -> PlatformOutcome {
        match self.run_to(jobs, SimTime::MAX) {
            RunTo::Finished(out) => out,
            RunTo::Paused(_) => unreachable!("the horizon always precedes SimTime::MAX"),
        }
    }

    /// Run `jobs`, pausing before the first event at or after
    /// `pause_at` (the horizon still wins: a run whose next event is
    /// past the horizon finishes normally). A paused run can be
    /// snapshotted, resumed, or both.
    pub fn run_to(self, jobs: &JobStream, pause_at: SimTime) -> RunTo {
        let horizon = SimTime::ZERO + self.config.horizon;
        let jobs = jobs.jobs();
        let pre_horizon = jobs.partition_point(|j| j.arrival < horizon);
        let mut engine = Engine::new(
            PlatformModel {
                p: self,
                arrivals: jobs[..pre_horizon].to_vec(),
                next_arrival: 0,
            },
            horizon,
        );
        engine.event_budget = 500_000_000;
        match engine.run_until(pause_at) {
            EngineRun::Paused(engine) => RunTo::Paused(PausedRun { engine: *engine }),
            EngineRun::Finished(model, summary) => RunTo::Finished(finish_outcome(model, summary)),
        }
    }

    /// Rebuild a paused run from `snapshot_bytes` taken under the SAME
    /// config (weather, fleet shape, policies, fault plan — everything
    /// is fingerprint-checked). The job stream is not needed: the next
    /// arrival is pending in the snapshotted event queue, and every
    /// later pre-horizon arrival is in the snapshot's `arrivals`
    /// section.
    pub fn restore(config: PlatformConfig, bytes: &[u8]) -> Result<PausedRun, SnapshotError> {
        Self::restore_impl(config, None, bytes)
    }

    /// Rebuild a paused run from a snapshot taken under `base_plan`,
    /// continuing under `config.faults` instead — a *branch*. The
    /// branch plan must extend the base plan with injectors acting
    /// strictly after the snapshot point
    /// (see [`FaultPlan::is_extension_of`]); everything else in the
    /// config must match the warm-up exactly.
    pub fn restore_branch(
        base_plan: &FaultPlan,
        config: PlatformConfig,
        bytes: &[u8],
    ) -> Result<PausedRun, SnapshotError> {
        Self::restore_impl(config, Some(base_plan), bytes)
    }

    fn restore_impl(
        config: PlatformConfig,
        base_plan: Option<&FaultPlan>,
        bytes: &[u8],
    ) -> Result<PausedRun, SnapshotError> {
        let file = SnapshotFile::from_bytes(bytes)?;
        let mut r = file.section("meta")?;
        let config_fp = r.take_u64()?;
        let plan_fp = r.take_u64()?;
        let now = SimTime::decode(&mut r)?;
        let events = r.take_u64()?;
        r.expect_end()?;
        if config_fp != config_fingerprint(&config) {
            return Err(SnapshotError::Corrupt(
                "snapshot was taken under a different platform config".into(),
            ));
        }
        match base_plan {
            None => {
                if plan_fp != plan_fingerprint(&config.faults) {
                    return Err(SnapshotError::Corrupt(
                        "snapshot was taken under a different fault plan \
                         (use restore_branch to extend one)"
                            .into(),
                    ));
                }
            }
            Some(base) => {
                if plan_fp != plan_fingerprint(base) {
                    return Err(SnapshotError::Corrupt(
                        "base plan is not the one the snapshot was taken under".into(),
                    ));
                }
                config
                    .faults
                    .is_extension_of(
                        base,
                        now.saturating_since(SimTime::ZERO),
                        config.control_period,
                    )
                    .map_err(SnapshotError::Corrupt)?;
                if base.is_empty() && !config.faults.is_empty() && config.worker_mtbf.is_some() {
                    return Err(SnapshotError::Corrupt(
                        "cannot branch a fault plan onto a fault-free warm-up that used \
                         legacy worker churn (failures before the branch point would be \
                         handled differently)"
                            .into(),
                    ));
                }
            }
        }
        let mut p = Platform::new(config);
        let mut r = file.section("engine")?;
        let sched = Scheduler::<Ev>::decode(&mut r)?;
        r.expect_end()?;
        if sched.now() != now {
            return Err(SnapshotError::Corrupt(format!(
                "engine clock {} disagrees with snapshot meta {now}",
                sched.now()
            )));
        }
        let mut r = file.section("rng")?;
        p.streams = simcore::RngStreams::decode(&mut r)?;
        r.expect_end()?;
        let mut r = file.section("registry")?;
        let names = Vec::<String>::decode(&mut r)?;
        r.expect_end()?;
        simcore::metrics::reintern_names(&names);
        let mut r = file.section("telemetry")?;
        p.telemetry.recorder = FlightRecorder::decode(&mut r)?;
        r.expect_end()?;
        let mut r = file.section("thermal")?;
        let rooms = ThermalBatch::decode(&mut r)?;
        r.expect_end()?;
        if rooms.len() != p.rooms.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {} rooms, config builds {}",
                rooms.len(),
                p.rooms.len()
            )));
        }
        p.rooms = rooms;
        let mut r = file.section("platform")?;
        p.restore_state(&mut r)?;
        r.expect_end()?;
        let mut r = file.section("arrivals")?;
        let arrivals = decode_arrivals(&mut r, now)?;
        r.expect_end()?;
        let telemetry_on = p.config.telemetry.enabled;
        let mut engine = Engine::restored(
            PlatformModel {
                p,
                arrivals,
                next_arrival: 0,
            },
            sched,
            events,
        );
        engine.event_budget = 500_000_000;
        if telemetry_on {
            // The profiler measures wall-clock phases of *this* process;
            // it is deliberately not part of the snapshot.
            engine.scheduler_mut().profiler = PhaseProfiler::enabled();
        }
        Ok(PausedRun { engine })
    }

    fn outdoor(&self, t: SimTime) -> f64 {
        self.weather.outdoor_c(t)
    }

    /// Global worker-slot index for the running-events map.
    #[inline]
    fn wslot(&self, cluster: usize, worker: usize) -> usize {
        cluster * self.config.workers_per_cluster + worker
    }

    /// Draw the next failure time for a worker after `after` from its
    /// exponential failure process (None when churn is disabled).
    fn next_failure(&self, cluster: usize, worker: usize, after: SimTime) -> Option<SimTime> {
        let mtbf = self.effective_mtbf?;
        let idx = (cluster * self.config.workers_per_cluster + worker) as u64;
        // One independent stream per (worker, epoch): advance the stream
        // by hashing the current time in so repeated draws differ.
        let mut rng = self.streams.stream_indexed(
            "worker-failures",
            idx ^ (after.as_micros() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let gap = simcore::dist::exponential(&mut rng, 1.0 / mtbf.as_secs_f64());
        Some(after + SimDuration::from_secs_f64(gap))
    }

    /// Schedule (and track) the next churn failure of a worker.
    fn schedule_next_failure(
        &mut self,
        cluster: usize,
        worker: usize,
        after: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        if let Some(at) = self.next_failure(cluster, worker, after) {
            if at < sched.horizon() {
                let ev = sched.at(at, Ev::WorkerFail { cluster, worker });
                let slot = self.wslot(cluster, worker);
                self.fail_events[slot] = Some(ev);
            }
        }
    }

    /// Whether the master nodes are inside an outage window (legacy
    /// single window or any plan window).
    fn master_down(&self, now: SimTime) -> bool {
        let legacy = match self.config.master_outage {
            Some((a, b)) => now >= SimTime::ZERO + a && now < SimTime::ZERO + b,
            None => false,
        };
        legacy || self.faults.as_ref().is_some_and(|rt| rt.master_down(now))
    }

    /// Whether `class` is severed right now by a plan partition.
    fn partitioned(&self, class: LinkClass, now: SimTime) -> bool {
        self.faults
            .as_ref()
            .is_some_and(|rt| rt.partitioned(class, now))
    }

    /// Network time added to a job's response by its flow and venue,
    /// over the given link set.
    fn net_penalty_links(
        &self,
        job: &Job,
        venue: Venue,
        device_link: Link,
        lan: Link,
        fiber: Link,
        wan: Link,
    ) -> SimDuration {
        let ingress_local = match job.flow {
            Flow::EdgeDirect => device_link.transfer_time(job.input_bytes),
            Flow::EdgeIndirect => {
                // Device → gateway → master → worker (§II-C's extra hop).
                device_link.transfer_time(job.input_bytes)
                    + lan.transfer_time(job.input_bytes)
                    + lan.transfer_time(job.input_bytes)
            }
            Flow::Dcc => fiber.transfer_time(job.input_bytes),
        };
        let egress_local = match job.flow {
            Flow::EdgeDirect | Flow::EdgeIndirect => device_link.transfer_time(job.output_bytes),
            Flow::Dcc => fiber.transfer_time(job.output_bytes),
        };
        let vpn = match (self.config.arch, job.is_edge()) {
            (ArchClass::DedicatedEdge { vpn_overhead, .. }, true) => vpn_overhead * 2,
            _ => SimDuration::ZERO,
        };
        let venue_extra = match venue {
            Venue::Local { .. } => SimDuration::ZERO,
            Venue::Horizontal { .. } => {
                fiber.transfer_time(job.input_bytes) + fiber.transfer_time(job.output_bytes)
            }
            Venue::Datacenter => {
                wan.transfer_time(job.input_bytes) + wan.transfer_time(job.output_bytes)
            }
        };
        ingress_local + egress_local + vpn + venue_extra
    }

    /// Network penalty at `now`: base links, with any active plan
    /// degradations folded in (links are `Copy`; the fault-free path
    /// passes the base links through untouched).
    fn net_penalty(&self, now: SimTime, job: &Job, venue: Venue) -> SimDuration {
        match &self.faults {
            Some(rt) => self.net_penalty_links(
                job,
                venue,
                rt.effective_link(LinkClass::Device, now, self.device_link),
                rt.effective_link(LinkClass::Lan, now, self.lan),
                rt.effective_link(LinkClass::Fiber, now, self.fiber),
                rt.effective_link(LinkClass::Wan, now, self.wan),
            ),
            None => {
                self.net_penalty_links(job, venue, self.device_link, self.lan, self.fiber, self.wan)
            }
        }
    }

    /// Record a fault-timeline entry in both the stats and the flight
    /// recorder (cluster group's track; lane = worker when known).
    fn record_fault_event(
        &mut self,
        t: SimTime,
        kind: FaultEventKind,
        cluster: usize,
        worker: Option<usize>,
    ) {
        self.stats.push_fault_event(t, kind, cluster, worker);
        if self.telemetry.is_enabled() {
            let mut fields = FieldSet::from([(self.tags.k_cluster, Value::U64(cluster as u64))]);
            if let Some(w) = worker {
                fields.push(self.tags.k_worker, Value::U64(w as u64));
            }
            self.telemetry.recorder.instant(
                t,
                self.tags.fault[kind as usize],
                Track::new(cluster as u32 + 1, worker.map_or(0, |w| w as u32)),
                fields,
            );
        }
    }

    /// Record a terminal/retry job instant (reject, retry, abandon,
    /// expire) on the platform track.
    fn record_job_instant(&mut self, t: SimTime, tag: TagId, job: &Job, attempts: Option<u32>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let mut fields = FieldSet::from([(self.tags.k_job, Value::U64(job.id.0))]);
        if let Some(a) = attempts {
            fields.push(self.tags.k_attempts, Value::U64(u64::from(a)));
        }
        self.telemetry
            .recorder
            .instant(t, tag, Track::PLATFORM, fields);
    }

    /// Record a completion.
    fn record_completion(&mut self, now: SimTime, job: &Job, venue: Venue) {
        if let Some(rt) = self.faults.as_mut() {
            rt.retry_book.forget(job.id);
        }
        let response = now.saturating_since(job.arrival) + self.net_penalty(now, job, venue);
        let finish_with_net = job.arrival + response;
        if job.is_edge() {
            let met = job.meets_deadline(finish_with_net);
            self.stats
                .record_edge(response.as_millis_f64(), met, job.work_gops, job.org);
        } else {
            // Ideal: full-speed local run with no waiting, on pristine
            // links (degradation must show up as slowdown, not shrink
            // the baseline).
            let ideal = job.service_time(3.0)
                + self.net_penalty_links(
                    job,
                    Venue::Local { cluster: 0 },
                    self.device_link,
                    self.lan,
                    self.fiber,
                    self.wan,
                );
            self.stats.record_dcc(
                response.as_secs_f64(),
                ideal.as_secs_f64(),
                job.work_gops,
                job.org,
                venue == Venue::Datacenter,
            );
        }
    }

    /// Home cluster of a job: edge requests originate in a specific
    /// building; DCC requests are load-balanced to the emptiest cluster.
    fn route_cluster(&self, job: &Job) -> usize {
        if job.is_edge() {
            (job.id.0 as usize).wrapping_mul(0x9E37_79B9).rotate_left(7) % self.clusters.len()
        } else {
            (0..self.clusters.len())
                .max_by_key(|&i| {
                    let l = self.clusters[i].load();
                    (l.free_cores(), usize::MAX - i)
                })
                .expect("at least one cluster")
        }
    }

    fn submit_to_dc(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) -> bool {
        if self.partitioned(LinkClass::Wan, now) {
            return false; // the WAN is severed; no vertical offloading
        }
        let Some(dc) = self.datacenter.as_mut() else {
            return false;
        };
        match dc.submit(now, job) {
            Some(finish) => {
                sched.at(finish, Ev::FinishDc { job });
            }
            None => { /* queued in the DC; completion scheduled on start */ }
        }
        true
    }

    fn start_local(
        &mut self,
        cluster: usize,
        worker: usize,
        job: Job,
        finish: SimTime,
        venue: Venue,
        sched: &mut Scheduler<Ev>,
    ) {
        let ev = sched.at(
            finish,
            Ev::FinishLocal {
                cluster,
                worker,
                job,
                venue,
            },
        );
        let slot = self.wslot(cluster, worker);
        self.running_events.insert(slot, job.id, ev);
    }

    /// Terminal-or-retry for an edge request the platform cannot place:
    /// with an enabled retry policy, re-submission is scheduled with
    /// exponential backoff while the budget and the deadline both
    /// allow; the request is abandoned (counted, never silent) once a
    /// started chain runs dry. Without a retry layer this is the plain
    /// legacy rejection.
    fn reject_edge(&mut self, now: SimTime, job: Job, sched: &mut Scheduler<Ev>) {
        let Some(policy) = self
            .faults
            .as_ref()
            .map(|rt| rt.plan().recovery.retry)
            .filter(|p| p.enabled())
        else {
            self.stats.edge_rejected.inc();
            self.record_job_instant(now, self.tags.job_reject, &job, None);
            return;
        };
        let attempts = self
            .faults
            .as_ref()
            .expect("retry policy implies runtime")
            .retry_book
            .attempts(job.id);
        if attempts < policy.max_attempts {
            let due = now + policy.backoff(attempts + 1);
            let in_time = match job.absolute_deadline() {
                Some(d) => due < d,
                None => true,
            };
            if in_time {
                self.faults
                    .as_mut()
                    .expect("checked")
                    .retry_book
                    .record_attempt(job.id);
                self.stats.jobs_retried.inc();
                self.record_job_instant(now, self.tags.job_retry, &job, Some(attempts + 1));
                self.retries_pending += 1;
                sched.at(due, Ev::Retry { job });
                return;
            }
        }
        if attempts > 0 {
            self.faults
                .as_mut()
                .expect("checked")
                .retry_book
                .forget(job.id);
            self.stats.jobs_abandoned.inc();
            self.record_job_instant(now, self.tags.job_abandon, &job, Some(attempts));
        } else {
            self.stats.edge_rejected.inc();
            self.record_job_instant(now, self.tags.job_reject, &job, None);
        }
    }

    /// Admission + placement shared by fresh arrivals and retries.
    fn place(&mut self, now: SimTime, mut job: Job, sched: &mut Scheduler<Ev>) {
        // Master outage (§IV): indirect edge requests need the master;
        // they fail — or degrade to direct under the resource-oriented
        // fallback.
        if job.flow == Flow::EdgeIndirect && self.master_down(now) {
            if self.config.roc_fallback_direct {
                job.flow = Flow::EdgeDirect;
            } else {
                self.reject_edge(now, job, sched);
                return;
            }
        }
        let home = self.route_cluster(&job);
        let load = self.clusters[home].load();
        if !self.config.admission.admit(&job, &load) {
            if job.is_edge() {
                self.reject_edge(now, job, sched);
            } else {
                self.stats.dcc_rejected.inc();
            }
            return;
        }
        let outdoor = self.outdoor(now);
        match self.clusters[home].try_dispatch(now, outdoor, job, &mut self.rooms) {
            Dispatch::Started { worker, finish } => {
                self.start_local(
                    home,
                    worker,
                    job,
                    finish,
                    Venue::Local { cluster: home },
                    sched,
                );
            }
            Dispatch::Full => self.handle_full(now, home, job, sched),
        }
    }

    /// Handle a job that found its home cluster full: consult the peak
    /// policy and carry out the action.
    fn handle_full(&mut self, now: SimTime, home: usize, job: Job, sched: &mut Scheduler<Ev>) {
        let t_offload = sched.profiler.start();
        let outdoor = self.outdoor(now);
        let local = self.clusters[home].load();
        // A severed inter-cluster fiber hides every sibling: horizontal
        // offloading is impossible during the partition.
        let siblings: Vec<sched::ClusterLoad> = if self.partitioned(LinkClass::Fiber, now) {
            Vec::new()
        } else {
            self.clusters
                .iter()
                .filter(|c| c.id != home)
                .map(|c| c.load())
                .collect()
        };
        let action = self.config.peak_policy.decide(&job, &local, &siblings);
        self.stats.record_peak_decision(&action);
        if self.telemetry.is_enabled() {
            // Rejects get their instant from `reject_edge`/the DCC
            // counter below; the other four decisions are recorded
            // here on the home cluster's track.
            let decided = match action {
                PeakAction::Preempt => Some((
                    self.tags.peak_preempt,
                    FieldSet::from([(self.tags.k_cluster, Value::U64(home as u64))]),
                )),
                PeakAction::OffloadVertical => Some((
                    self.tags.peak_offload_vertical,
                    FieldSet::from([(self.tags.k_from, Value::U64(home as u64))]),
                )),
                PeakAction::OffloadHorizontal { target } => Some((
                    self.tags.peak_offload_horizontal,
                    FieldSet::from([
                        (self.tags.k_from, Value::U64(home as u64)),
                        (self.tags.k_to, Value::U64(target as u64)),
                    ]),
                )),
                PeakAction::Delay => Some((
                    self.tags.peak_delay,
                    FieldSet::from([(self.tags.k_cluster, Value::U64(home as u64))]),
                )),
                PeakAction::Reject => None,
            };
            if let Some((tag, mut fields)) = decided {
                fields.push(self.tags.k_job, Value::U64(job.id.0));
                self.telemetry
                    .recorder
                    .instant(now, tag, Track::new(home as u32 + 1, 0), fields);
            }
        }
        match action {
            PeakAction::Preempt => {
                if let Some((worker, victims)) = self.clusters[home].preempt_for(now, &job) {
                    let slot = self.wslot(home, worker);
                    for v in victims {
                        let ev = self
                            .running_events
                            .remove(slot, v.id)
                            .expect("victim had a finish event");
                        sched.cancel(ev);
                        self.stats.preemptions.inc();
                        self.clusters[home].dcc_queue.push(v);
                    }
                    let finish = self.clusters[home]
                        .dispatch_on(worker, now, job)
                        .expect("preemption freed the cores");
                    self.start_local(
                        home,
                        worker,
                        job,
                        finish,
                        Venue::Local { cluster: home },
                        sched,
                    );
                } else {
                    self.enqueue(home, job);
                }
            }
            PeakAction::OffloadVertical => {
                if self.submit_to_dc(now, job, sched) {
                    self.stats.offload_vertical.inc();
                } else {
                    self.enqueue(home, job);
                }
            }
            PeakAction::OffloadHorizontal { target } => {
                match self.clusters[target].try_dispatch(now, outdoor, job, &mut self.rooms) {
                    Dispatch::Started { worker, finish } => {
                        self.stats.offload_horizontal.inc();
                        self.start_local(
                            target,
                            worker,
                            job,
                            finish,
                            Venue::Horizontal {
                                from: home,
                                to: target,
                            },
                            sched,
                        );
                    }
                    Dispatch::Full => self.enqueue(target, job),
                }
            }
            PeakAction::Delay => {
                self.stats.delays.inc();
                self.enqueue(home, job);
            }
            PeakAction::Reject => {
                if job.is_edge() {
                    self.reject_edge(now, job, sched);
                } else {
                    self.stats.dcc_rejected.inc();
                }
            }
        }
        sched.profiler.stop(Phase::Offload, t_offload);
    }

    fn enqueue(&mut self, cluster: usize, job: Job) {
        if job.is_edge() {
            self.clusters[cluster].edge_queue.push(job);
        } else {
            self.clusters[cluster].dcc_queue.push(job);
        }
    }

    /// Break one worker: account the lost progress, cancel the orphans'
    /// finish events, and re-dispatch each orphan through the normal
    /// offload decision (a failed building's work spills to siblings or
    /// the datacenter instead of queueing behind a dark board). A crash
    /// loses in-flight progress: orphans restart from their full work.
    fn fail_worker(
        &mut self,
        now: SimTime,
        cluster: usize,
        worker: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        self.stats.worker_failures.inc();
        self.record_fault_event(now, FaultEventKind::WorkerFail, cluster, Some(worker));
        let slot = self.wslot(cluster, worker);
        if self.down_since[slot].is_none() {
            self.down_since[slot] = Some(now);
        }
        let slices: Vec<(Job, usize, SimTime)> = self.clusters[cluster]
            .worker(worker)
            .running()
            .iter()
            .map(|s| (s.job, s.cores, s.started))
            .collect();
        for &(_, cores, started) in &slices {
            self.stats.wasted_core_s += now.saturating_since(started).as_secs_f64() * cores as f64;
        }
        // `fail` checkpoints remaining work; a crash keeps nothing, so
        // the checkpointed jobs are discarded in favour of full restarts.
        let _ = self.clusters[cluster].fail_worker(worker, now);
        for (job, _, _) in slices {
            if let Some(ev) = self.running_events.remove(slot, job.id) {
                sched.cancel(ev);
            }
            self.redispatch_orphan(now, cluster, job, sched);
        }
    }

    /// Re-dispatch an orphaned job after its worker failed, through the
    /// same placement logic as an arrival (deadline-aware: an already
    /// overdue edge orphan expires instead of wasting a slot).
    fn redispatch_orphan(
        &mut self,
        now: SimTime,
        home: usize,
        job: Job,
        sched: &mut Scheduler<Ev>,
    ) {
        self.stats.jobs_requeued.inc();
        if let Some(d) = job.absolute_deadline() {
            if now >= d {
                self.stats.edge_expired.inc();
                self.record_job_instant(now, self.tags.job_expire, &job, None);
                if let Some(rt) = self.faults.as_mut() {
                    rt.retry_book.forget(job.id);
                }
                return;
            }
        }
        let outdoor = self.outdoor(now);
        match self.clusters[home].try_dispatch(now, outdoor, job, &mut self.rooms) {
            Dispatch::Started { worker, finish } => {
                self.start_local(
                    home,
                    worker,
                    job,
                    finish,
                    Venue::Local { cluster: home },
                    sched,
                );
            }
            Dispatch::Full => self.handle_full(now, home, job, sched),
        }
    }

    /// Return a worker to service, closing its MTTR interval.
    fn repair_worker(&mut self, now: SimTime, cluster: usize, worker: usize) {
        let slot = self.wslot(cluster, worker);
        if let Some(start) = self.down_since[slot].take() {
            let dt = now.saturating_since(start).as_secs_f64();
            self.stats.mttr_s.observe(dt);
            self.stats.repair_s.observe(dt);
        }
        self.record_fault_event(now, FaultEventKind::WorkerRepair, cluster, Some(worker));
        self.clusters[cluster].repair_worker(worker);
    }

    /// Schedule the down/up transitions of every planned cluster outage
    /// that becomes due within the next control period. Running this at
    /// the *start* of each control tick keeps the event order identical
    /// to scheduling everything at init (a transition landing on a tick
    /// timestamp gets a lower sequence number than that tick's own
    /// event, which was scheduled at the end of the previous handler),
    /// while letting a branch-restored run schedule outages its warm-up
    /// never knew about.
    fn schedule_due_outages(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        let Some(rt) = self.faults.as_mut() else {
            return;
        };
        for i in 0..rt.outage_scheduled.len() {
            if rt.outage_scheduled[i] {
                continue;
            }
            let o = rt.plan().cluster_outages[i];
            let start = SimTime::ZERO + o.window.start;
            if start > now + self.config.control_period {
                continue;
            }
            rt.outage_scheduled[i] = true;
            if start < sched.horizon() {
                sched.at(start.max(now), Ev::ClusterDown { outage: i });
                let end = SimTime::ZERO + o.window.end;
                if end < sched.horizon() {
                    sched.at(end.max(now), Ev::ClusterUp { outage: i });
                }
            }
        }
    }

    /// Refresh every targeted room sensor from the plan's windows (run
    /// at each control tick; cheap because it only walks the plan's
    /// fault list, not the fleet).
    fn apply_sensor_states(&mut self, now: SimTime) {
        let Some(rt) = &self.faults else { return };
        if !rt.has_sensor_faults() {
            return;
        }
        let faults = rt.plan().sensor_faults.clone();
        let wpc = self.config.workers_per_cluster;
        // Reset every targeted sensor, then overlay the active windows
        // (a later fault in the plan wins on overlap).
        for f in &faults {
            let range = match f.worker {
                Some(w) => w..w + 1,
                None => 0..wpc,
            };
            for w in range {
                self.clusters[f.cluster].set_sensor(w, SensorState::Healthy);
            }
        }
        let mut any_active = false;
        for f in &faults {
            if !f.window.contains(now) {
                continue;
            }
            any_active = true;
            let state = match f.kind {
                SensorFaultKind::Dropout => SensorState::Dropout,
                SensorFaultKind::StuckAt(v) => SensorState::StuckAt(v),
            };
            let range = match f.worker {
                Some(w) => w..w + 1,
                None => 0..wpc,
            };
            for w in range {
                self.clusters[f.cluster].set_sensor(w, state);
            }
        }
        if any_active {
            self.stats.sensor_faulted_ticks.inc();
        }
    }

    /// Start everything a cluster's drain released.
    fn drain_cluster(&mut self, now: SimTime, cluster: usize, sched: &mut Scheduler<Ev>) {
        let outdoor = self.outdoor(now);
        for job in self.clusters[cluster].take_expired(now) {
            self.stats.edge_expired.inc();
            self.record_job_instant(now, self.tags.job_expire, &job, None);
            if let Some(rt) = self.faults.as_mut() {
                rt.retry_book.forget(job.id);
            }
        }
        let started = self.clusters[cluster].drain(now, outdoor, &mut self.rooms);
        for (worker, job, finish) in started {
            self.start_local(
                cluster,
                worker,
                job,
                finish,
                Venue::Local { cluster },
                sched,
            );
        }
    }

    fn finalise_energy(&mut self, end: SimTime) {
        // Close each worker's energy integral by a final control tick.
        // The weather wraps past its span, so no clamp is needed even
        // when the engine overruns the generated trace.
        let outdoor = self.outdoor(end);
        for c in &mut self.clusters {
            c.control_tick(end, outdoor, &mut self.rooms);
        }
        self.stats.df_total_kwh = self.clusters.iter().map(|c| c.energy_kwh()).sum();
        self.stats.df_compute_kwh = self.clusters.iter().map(|c| c.compute_energy_kwh()).sum();
        if let Some(dc) = self.datacenter.as_mut() {
            self.stats.dc_it_kwh = dc.it_kwh(end);
            self.stats.dc_facility_kwh = dc.facility_kwh(end);
        }
        self.last_energy_sample = end;
    }

    /// Close the work-conservation ledger: everything still queued,
    /// running, in the datacenter, or awaiting a retry is in-flight;
    /// arrivals must equal terminal outcomes plus in-flight. Drift is
    /// recorded as a `watchdog.ledger_drift` event (the debug asserts
    /// below still hold in debug builds; release runs land with their
    /// evidence instead of dying).
    fn finalise_accounting(&mut self, end: SimTime) {
        let mut edge = self.retries_pending;
        let mut dcc = 0u64;
        for c in &self.clusters {
            let (e, d) = c.in_flight_by_flow();
            edge += e;
            dcc += d;
        }
        if let Some(dc) = &self.datacenter {
            let (e, d) = dc.in_flight_by_flow();
            edge += e;
            dcc += d;
        }
        self.stats.edge_in_flight_end = edge;
        self.stats.dcc_in_flight_end = dcc;
        for (flow, arrived, accounted) in self.stats.ledgers() {
            if arrived != accounted && self.telemetry.is_enabled() {
                self.telemetry.recorder.instant(
                    end,
                    self.tags.wd_ledger_drift,
                    Track::PLATFORM,
                    [
                        (self.tags.k_arrived, Value::U64(arrived)),
                        (self.tags.k_accounted, Value::U64(accounted)),
                    ],
                );
            }
            debug_assert_eq!(
                arrived, accounted,
                "{flow} conservation: arrived = terminal outcomes + in-flight"
            );
        }
    }

    /// Checkpoint every run-mutated field of the platform. Statics —
    /// weather, links, tag interning, the room/worker skeletons — are
    /// pure functions of the config and are rebuilt by
    /// [`Platform::new`] before [`Platform::restore_state`] overlays
    /// this.
    fn snapshot_state(&self, w: &mut SnapshotWriter) {
        self.stats.encode(w);
        w.put_usize(self.clusters.len());
        for c in &self.clusters {
            c.snapshot_state(w);
        }
        w.put_bool(self.datacenter.is_some());
        if let Some(dc) = &self.datacenter {
            dc.snapshot_state(w);
        }
        self.running_events.slots.encode(w);
        self.down_since.encode(w);
        self.fail_events.encode(w);
        self.repair_events.encode(w);
        w.put_u64(self.retries_pending);
        self.last_energy_sample.encode(w);
        w.put_bool(self.faults.is_some());
        if let Some(rt) = &self.faults {
            rt.snapshot_state(w);
        }
    }

    /// Overlay a checkpointed dynamic state onto a freshly built
    /// platform, validating every fleet-shape invariant on the way.
    fn restore_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.stats = PlatformStats::decode(r)?;
        let n = r.take_usize()?;
        if n != self.clusters.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} clusters, config builds {}",
                self.clusters.len()
            )));
        }
        for c in &mut self.clusters {
            c.restore_state(r)?;
        }
        let has_dc = r.take_bool()?;
        if has_dc != self.datacenter.is_some() {
            return Err(SnapshotError::Corrupt(
                "snapshot and config disagree on datacenter presence".into(),
            ));
        }
        if let Some(dc) = self.datacenter.as_mut() {
            dc.restore_state(r)?;
        }
        let slots = Vec::decode(r)?;
        let down_since = Vec::decode(r)?;
        let fail_events = Vec::decode(r)?;
        let repair_events = Vec::decode(r)?;
        let n_slots = self.running_events.slots.len();
        if slots.len() != n_slots
            || down_since.len() != n_slots
            || fail_events.len() != n_slots
            || repair_events.len() != n_slots
        {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot worker-slot vectors disagree with the {n_slots}-slot fleet"
            )));
        }
        self.running_events.slots = slots;
        self.down_since = down_since;
        self.fail_events = fail_events;
        self.repair_events = repair_events;
        self.retries_pending = r.take_u64()?;
        self.last_energy_sample = SimTime::decode(r)?;
        let has_faults = r.take_bool()?;
        match (has_faults, self.faults.as_mut()) {
            (true, Some(rt)) => rt.restore_state(r)?,
            (true, None) => {
                return Err(SnapshotError::Corrupt(
                    "snapshot carries fault state but the fault plan is empty".into(),
                ))
            }
            // Branching a fault plan onto a fault-free warm-up: the
            // freshly built runtime (empty books, nothing dark) IS the
            // state the warm-up would have had, had the runtime existed.
            (false, _) => {}
        }
        Ok(())
    }
}

/// Stable fingerprint of everything in the config EXCEPT the fault
/// plan (which has its own fingerprint so branches can swap it).
fn config_fingerprint(config: &PlatformConfig) -> u64 {
    let mut c = config.clone();
    c.faults = FaultPlan::none();
    simcore::snapshot::fingerprint(format!("{c:?}").as_bytes())
}

/// Stable fingerprint of a fault plan.
fn plan_fingerprint(plan: &FaultPlan) -> u64 {
    simcore::snapshot::fingerprint(format!("{plan:?}").as_bytes())
}

/// Decode the `arrivals` section: the pre-horizon jobs after the one
/// pending in the event queue, which must be sorted by `(arrival, id)`
/// (the [`JobStream`] order) and lie no earlier than the snapshot clock.
fn decode_arrivals(r: &mut SnapshotReader<'_>, now: SimTime) -> Result<Vec<Job>, SnapshotError> {
    let arrivals = Vec::<Job>::decode(r)?;
    if !arrivals.is_sorted_by_key(|j| (j.arrival, j.id)) {
        return Err(SnapshotError::Corrupt(
            "arrivals are not sorted by (arrival, id)".into(),
        ));
    }
    if let Some(first) = arrivals.first().filter(|j| j.arrival < now) {
        return Err(SnapshotError::Corrupt(format!(
            "arrival of job {} at {} precedes the snapshot clock {now}",
            first.id.0, first.arrival
        )));
    }
    Ok(arrivals)
}

/// Close out a finished engine run into a [`PlatformOutcome`].
fn finish_outcome(model: PlatformModel, summary: RunSummary) -> PlatformOutcome {
    let mut p = model.p;
    p.finalise_energy(summary.end_time);
    p.finalise_accounting(summary.end_time);
    PlatformOutcome {
        stats: p.stats,
        events: summary.events,
        end: summary.end_time,
        peak_queue: summary.peak_queue,
        telemetry: p.telemetry,
    }
}

/// Result of [`Platform::run_to`].
#[allow(clippy::large_enum_variant)]
pub enum RunTo {
    /// The run paused at the requested point; snapshot or resume it.
    Paused(PausedRun),
    /// The horizon arrived first; the run finished normally.
    Finished(PlatformOutcome),
}

/// A platform run paused between events — the unit the checkpoint
/// subsystem works on. Serialise it with
/// [`PausedRun::snapshot_bytes`], continue it with
/// [`PausedRun::resume`], or rebuild one in a fresh process with
/// [`Platform::restore`] / [`Platform::restore_branch`].
pub struct PausedRun {
    engine: Engine<PlatformModel>,
}

impl PausedRun {
    /// Simulation time of the last dispatched event.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.engine.events()
    }

    /// Serialise the complete run state into the versioned, checksummed
    /// snapshot container.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let p = &self.engine.model().p;
        let mut file = SnapshotFile::new();
        let mut w = SnapshotWriter::new();
        w.put_u64(config_fingerprint(&p.config));
        w.put_u64(plan_fingerprint(&p.config.faults));
        self.engine.now().encode(&mut w);
        w.put_u64(self.engine.events());
        file.add("meta", w);
        let mut w = SnapshotWriter::new();
        self.engine.scheduler().encode(&mut w);
        file.add("engine", w);
        let mut w = SnapshotWriter::new();
        p.streams.encode(&mut w);
        file.add("rng", w);
        let mut w = SnapshotWriter::new();
        simcore::metrics::registry_names().encode(&mut w);
        file.add("registry", w);
        let mut w = SnapshotWriter::new();
        p.telemetry.recorder.encode(&mut w);
        file.add("telemetry", w);
        let mut w = SnapshotWriter::new();
        p.rooms.encode(&mut w);
        file.add("thermal", w);
        let mut w = SnapshotWriter::new();
        p.snapshot_state(&mut w);
        file.add("platform", w);
        let model = self.engine.model();
        let arrivals = &model.arrivals[model.next_arrival..];
        let mut w = SnapshotWriter::new();
        w.put_u64(arrivals.len() as u64);
        for job in arrivals {
            job.encode(&mut w);
        }
        file.add("arrivals", w);
        file.to_bytes()
    }

    /// Run to the horizon and close out the outcome.
    pub fn resume(self) -> PlatformOutcome {
        let (model, summary) = self.engine.run();
        finish_outcome(model, summary)
    }
}

impl Snapshot for Venue {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            Venue::Local { cluster } => {
                w.put_u8(0);
                w.put_usize(*cluster);
            }
            Venue::Horizontal { from, to } => {
                w.put_u8(1);
                w.put_usize(*from);
                w.put_usize(*to);
            }
            Venue::Datacenter => w.put_u8(2),
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(Venue::Local {
                cluster: r.take_usize()?,
            }),
            1 => Ok(Venue::Horizontal {
                from: r.take_usize()?,
                to: r.take_usize()?,
            }),
            2 => Ok(Venue::Datacenter),
            b => Err(SnapshotError::Corrupt(format!("venue tag {b}"))),
        }
    }
}

impl Snapshot for Ev {
    fn encode(&self, w: &mut SnapshotWriter) {
        match self {
            Ev::Arrival(job) => {
                w.put_u8(0);
                job.encode(w);
            }
            Ev::FinishLocal {
                cluster,
                worker,
                job,
                venue,
            } => {
                w.put_u8(1);
                w.put_usize(*cluster);
                w.put_usize(*worker);
                job.encode(w);
                venue.encode(w);
            }
            Ev::FinishDc { job } => {
                w.put_u8(2);
                job.encode(w);
            }
            Ev::ControlTick => w.put_u8(3),
            Ev::WorkerFail { cluster, worker } => {
                w.put_u8(4);
                w.put_usize(*cluster);
                w.put_usize(*worker);
            }
            Ev::WorkerRepair { cluster, worker } => {
                w.put_u8(5);
                w.put_usize(*cluster);
                w.put_usize(*worker);
            }
            Ev::ClusterDown { outage } => {
                w.put_u8(6);
                w.put_usize(*outage);
            }
            Ev::ClusterUp { outage } => {
                w.put_u8(7);
                w.put_usize(*outage);
            }
            Ev::Retry { job } => {
                w.put_u8(8);
                job.encode(w);
            }
        }
    }
    fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.take_u8()? {
            0 => Ok(Ev::Arrival(Job::decode(r)?)),
            1 => Ok(Ev::FinishLocal {
                cluster: r.take_usize()?,
                worker: r.take_usize()?,
                job: Job::decode(r)?,
                venue: Venue::decode(r)?,
            }),
            2 => Ok(Ev::FinishDc {
                job: Job::decode(r)?,
            }),
            3 => Ok(Ev::ControlTick),
            4 => Ok(Ev::WorkerFail {
                cluster: r.take_usize()?,
                worker: r.take_usize()?,
            }),
            5 => Ok(Ev::WorkerRepair {
                cluster: r.take_usize()?,
                worker: r.take_usize()?,
            }),
            6 => Ok(Ev::ClusterDown {
                outage: r.take_usize()?,
            }),
            7 => Ok(Ev::ClusterUp {
                outage: r.take_usize()?,
            }),
            8 => Ok(Ev::Retry {
                job: Job::decode(r)?,
            }),
            b => Err(SnapshotError::Corrupt(format!("platform event tag {b}"))),
        }
    }
}

struct PlatformModel {
    p: Platform,
    /// The run's pre-horizon jobs in [`JobStream`] order. Only the next
    /// one waits in the event queue; `arrivals[next_arrival..]` have not
    /// been scheduled yet.
    arrivals: Vec<Job>,
    next_arrival: usize,
}

impl PlatformModel {
    /// Put the next arrival in the event queue's lead lane, where it
    /// fires exactly when it would had every arrival been scheduled
    /// before any other event (see [`Scheduler::at_first`]).
    fn schedule_next_arrival(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(job) = self.arrivals.get(self.next_arrival) {
            sched.at_first(job.arrival, Ev::Arrival(*job));
            self.next_arrival += 1;
        }
    }
}

impl Model for PlatformModel {
    type Event = Ev;

    fn init(&mut self, sched: &mut Scheduler<Ev>) {
        if self.p.config.telemetry.enabled {
            sched.profiler = PhaseProfiler::enabled();
        }
        self.schedule_next_arrival(sched);
        sched.immediately(Ev::ControlTick);
        if self.p.effective_mtbf.is_some() {
            for c in 0..self.p.config.n_clusters {
                for w in 0..self.p.config.workers_per_cluster {
                    self.p.schedule_next_failure(c, w, SimTime::ZERO, sched);
                }
            }
        }
        // Cluster outages are scheduled lazily, one control tick ahead
        // (see `Platform::schedule_due_outages`), so a run restored from
        // a snapshot picks up outages a branch plan appended.
    }

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Arrival(job) => {
                self.schedule_next_arrival(sched);
                if job.is_edge() {
                    self.p.stats.edge_arrived.inc();
                } else {
                    self.p.stats.dcc_arrived.inc();
                }
                self.p.place(now, job, sched);
            }
            Ev::Retry { job } => {
                self.p.retries_pending -= 1;
                self.p.place(now, job, sched);
            }
            Ev::FinishLocal {
                cluster,
                worker,
                job,
                venue,
            } => {
                let slot = self.p.wslot(cluster, worker);
                self.p
                    .running_events
                    .remove(slot, job.id)
                    .expect("finished job had a tracked event");
                self.p.clusters[cluster].finish(worker, job.id);
                self.p.record_completion(now, &job, venue);
                if self.p.telemetry.is_enabled() && self.p.config.telemetry.spans {
                    self.p.telemetry.recorder.span(
                        job.arrival,
                        now,
                        self.p.tags.job_span[flow_ix(job.flow)],
                        Track::new(cluster as u32 + 1, worker as u32),
                        [
                            (self.p.tags.k_job, Value::U64(job.id.0)),
                            (self.p.tags.k_gops, Value::F64(job.work_gops)),
                        ],
                    );
                }
                self.p.drain_cluster(now, cluster, sched);
            }
            Ev::FinishDc { job } => {
                let started = self
                    .p
                    .datacenter
                    .as_mut()
                    .expect("DC event without a DC")
                    .complete(now, job.id);
                self.p.record_completion(now, &job, Venue::Datacenter);
                if self.p.telemetry.is_enabled() && self.p.config.telemetry.spans {
                    // The datacenter renders as the group after the
                    // last cluster.
                    let dc_group = self.p.config.n_clusters as u32 + 1;
                    self.p.telemetry.recorder.span(
                        job.arrival,
                        now,
                        self.p.tags.job_span[flow_ix(job.flow)],
                        Track::new(dc_group, 0),
                        [
                            (self.p.tags.k_job, Value::U64(job.id.0)),
                            (self.p.tags.k_gops, Value::F64(job.work_gops)),
                        ],
                    );
                }
                for (j, finish) in started {
                    sched.at(finish, Ev::FinishDc { job: j });
                }
            }
            Ev::WorkerFail { cluster, worker } => {
                let slot = self.p.wslot(cluster, worker);
                self.p.fail_events[slot] = None;
                if self.p.clusters[cluster].worker(worker).is_failed() {
                    return; // already dark (overlapping outage owns it)
                }
                let t_fault = sched.profiler.start();
                self.p.fail_worker(now, cluster, worker, sched);
                let mut delay = self.p.effective_repair;
                let quarantine = self
                    .p
                    .faults
                    .as_ref()
                    .and_then(|rt| rt.plan().recovery.quarantine);
                if let (Some(q), Some(rt)) = (quarantine, self.p.faults.as_mut()) {
                    if rt.flap.record(slot, now, &q) {
                        self.p.stats.quarantines.inc();
                        self.p.record_fault_event(
                            now,
                            FaultEventKind::Quarantine,
                            cluster,
                            Some(worker),
                        );
                        delay += q.extra_downtime;
                    }
                }
                let ev = sched.after(delay, Ev::WorkerRepair { cluster, worker });
                self.p.repair_events[slot] = Some(ev);
                // Orphaned work may fit elsewhere right away.
                self.p.drain_cluster(now, cluster, sched);
                sched.profiler.stop(Phase::FaultRuntime, t_fault);
            }
            Ev::WorkerRepair { cluster, worker } => {
                let slot = self.p.wslot(cluster, worker);
                self.p.repair_events[slot] = None;
                if self
                    .p
                    .faults
                    .as_ref()
                    .is_some_and(|rt| rt.cluster_dark[cluster])
                {
                    return; // the outage owns this board; ClusterUp restores it
                }
                if !self.p.clusters[cluster].worker(worker).is_failed() {
                    return; // stale: an intervening restoration already repaired it
                }
                let t_fault = sched.profiler.start();
                self.p.repair_worker(now, cluster, worker);
                self.p.schedule_next_failure(cluster, worker, now, sched);
                self.p.drain_cluster(now, cluster, sched);
                sched.profiler.stop(Phase::FaultRuntime, t_fault);
            }
            Ev::ClusterDown { outage } => {
                let t_fault = sched.profiler.start();
                let c = {
                    let rt = self.p.faults.as_ref().expect("outage implies runtime");
                    rt.plan().cluster_outages[outage].cluster
                };
                self.p.faults.as_mut().expect("checked").cluster_dark[c] = true;
                self.p.stats.cluster_outages.inc();
                self.p
                    .record_fault_event(now, FaultEventKind::ClusterDown, c, None);
                for w in 0..self.p.config.workers_per_cluster {
                    let slot = self.p.wslot(c, w);
                    if let Some(ev) = self.p.fail_events[slot].take() {
                        sched.cancel(ev); // churn is moot while the building is dark
                    }
                    if !self.p.clusters[c].worker(w).is_failed() {
                        self.p.fail_worker(now, c, w, sched);
                    }
                }
                self.p.drain_cluster(now, c, sched);
                sched.profiler.stop(Phase::FaultRuntime, t_fault);
            }
            Ev::ClusterUp { outage } => {
                let (c, still_dark) =
                    {
                        let rt = self.p.faults.as_ref().expect("outage implies runtime");
                        let c = rt.plan().cluster_outages[outage].cluster;
                        let still =
                            rt.plan().cluster_outages.iter().enumerate().any(|(i, o)| {
                                i != outage && o.cluster == c && o.window.contains(now)
                            });
                        (c, still)
                    };
                if still_dark {
                    return; // an overlapping outage keeps the building down
                }
                let t_fault = sched.profiler.start();
                self.p.faults.as_mut().expect("checked").cluster_dark[c] = false;
                self.p
                    .record_fault_event(now, FaultEventKind::ClusterUp, c, None);
                for w in 0..self.p.config.workers_per_cluster {
                    if self.p.clusters[c].worker(w).is_failed() {
                        let slot = self.p.wslot(c, w);
                        if let Some(ev) = self.p.repair_events[slot].take() {
                            sched.cancel(ev); // power restoration resets the board
                        }
                        self.p.repair_worker(now, c, w);
                        self.p.schedule_next_failure(c, w, now, sched);
                    }
                }
                self.p.drain_cluster(now, c, sched);
                sched.profiler.stop(Phase::FaultRuntime, t_fault);
            }
            Ev::ControlTick => {
                let t_tick = sched.profiler.start();
                let t_fault = sched.profiler.start();
                self.p.schedule_due_outages(now, sched);
                self.p.apply_sensor_states(now);
                sched.profiler.stop(Phase::FaultRuntime, t_fault);
                let outdoor = self.p.outdoor(now);
                let mut temp = 0.0;
                let mut usable = 0usize;
                let mut demand = 0.0;
                let n = self.p.clusters.len();
                // Stage every worker's pending interval, then advance
                // the entire fleet's thermals in ONE sweep over the SoA
                // batch — the district-scale fast path.
                let t_stage = sched.profiler.start();
                for c in &self.p.clusters {
                    c.stage_thermal(now, &mut self.p.rooms);
                }
                sched.profiler.stop(Phase::StageThermal, t_stage);
                // Boiler backfill (§II-B): failed workers' rooms were
                // staged at 0 W; restage them with boiler heat so the
                // §IV comfort guarantee holds while boards are dark.
                let backfill = self
                    .p
                    .faults
                    .as_ref()
                    .map(|rt| rt.plan().recovery)
                    .filter(|r| r.boiler_backfill);
                if let Some(r) = backfill {
                    let mut kwh = 0.0;
                    for c in &self.p.clusters {
                        kwh += c.stage_backfill(now, &mut self.p.rooms, r.backfill_power_w);
                    }
                    self.p.stats.boiler_backfill_kwh += kwh;
                }
                let t_step = sched.profiler.start();
                self.p.rooms.step_staged(outdoor);
                sched.profiler.stop(Phase::StepStaged, t_step);
                // Regulate every cluster, then drain every cluster. A
                // drain touches only its own cluster's workers and room
                // slots, so this order is bit-identical to interleaving.
                let t_regulate = sched.profiler.start();
                for c in &mut self.p.clusters {
                    let (t, u, d) = c.finish_control_tick(now, &self.p.rooms);
                    temp += t;
                    usable += u;
                    demand += d;
                }
                sched.profiler.stop(Phase::Regulate, t_regulate);
                let t_drain = sched.profiler.start();
                for i in 0..n {
                    self.p.drain_cluster(now, i, sched);
                }
                sched.profiler.stop(Phase::Drain, t_drain);
                self.p
                    .stats
                    .sample_tick(now, temp / n as f64, usable as f64, demand / n as f64);
                if self.p.telemetry.is_enabled() {
                    let mean_temp = temp / n as f64;
                    let tags = &self.p.tags;
                    self.p.telemetry.recorder.instant(
                        now,
                        tags.tick_sample,
                        Track::PLATFORM,
                        [
                            (tags.k_temp_c, Value::F64(mean_temp)),
                            (tags.k_usable_cores, Value::U64(usable as u64)),
                            (tags.k_heat_demand, Value::F64(demand / n as f64)),
                        ],
                    );
                    // Invariant watchdogs: observe, record, never panic.
                    let wd = self.p.config.watchdogs;
                    if mean_temp < wd.temp_lo_c || mean_temp > wd.temp_hi_c {
                        self.p.telemetry.recorder.instant(
                            now,
                            tags.wd_temp_band,
                            Track::PLATFORM,
                            [
                                (tags.k_temp_c, Value::F64(mean_temp)),
                                (tags.k_lo_c, Value::F64(wd.temp_lo_c)),
                                (tags.k_hi_c, Value::F64(wd.temp_hi_c)),
                            ],
                        );
                    }
                    let queued: usize = self
                        .p
                        .clusters
                        .iter()
                        .map(|c| c.edge_queue.len() + c.dcc_queue.len())
                        .sum();
                    if queued > wd.max_queued {
                        self.p.telemetry.recorder.instant(
                            now,
                            tags.wd_queue_depth,
                            Track::PLATFORM,
                            [
                                (tags.k_queued, Value::U64(queued as u64)),
                                (tags.k_limit, Value::U64(wd.max_queued as u64)),
                            ],
                        );
                    }
                }
                sched.after(self.p.config.control_period, Ev::ControlTick);
                sched.profiler.stop(Phase::ControlTick, t_tick);
            }
        }
    }

    fn finish(&mut self, sched: &mut Scheduler<Ev>) {
        // Reclaim the engine's phase accumulators so the run report can
        // render them after the engine is consumed.
        let prof = std::mem::take(&mut sched.profiler);
        self.p.telemetry.profiler.merge(&prof);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, RecoveryPolicy, Window};
    use workloads::edge::{location_service_jobs, LocationServiceConfig};

    fn tiny_config() -> PlatformConfig {
        PlatformConfig {
            n_clusters: 2,
            workers_per_cluster: 4,
            horizon: SimDuration::from_hours(6),
            datacenter_cores: 64,
            ..PlatformConfig::small_winter()
        }
    }

    fn edge_stream(hours: i64) -> JobStream {
        location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(hours),
            &RngStreams::new(77),
            0,
        )
    }

    #[test]
    fn edge_requests_complete_fast_in_winter() {
        let p = Platform::new(tiny_config());
        let jobs = edge_stream(6);
        let n_jobs = jobs.len() as u64;
        let out = p.run(&jobs);
        let s = &out.stats;
        assert!(
            s.edge_completed.get() > n_jobs * 9 / 10,
            "{}/{} completed",
            s.edge_completed.get(),
            n_jobs
        );
        assert!(
            s.edge_attainment() > 0.95,
            "attainment {}",
            s.edge_attainment()
        );
        assert!(
            s.edge_response_ms.p50() < 100.0,
            "p50 {} ms should be edge-scale (compute + LAN)",
            s.edge_response_ms.p50()
        );
    }

    #[test]
    fn dcc_overflow_reaches_datacenter() {
        use workloads::dcc::{finance_jobs, FinanceConfig};
        let mut cfg = tiny_config();
        cfg.peak_policy = sched::PeakPolicy::VerticalFirst;
        // 2×4 Q.rads = 128 cores; a heavy finance stream overflows them.
        let mut fin = FinanceConfig::bank();
        fin.batches_per_day = 600.0;
        let jobs = finance_jobs(fin, SimDuration::from_hours(6), &RngStreams::new(3), 0);
        let out = Platform::new(cfg).run(&jobs);
        assert!(out.stats.offload_vertical.get() > 0, "peaks must offload");
        assert_eq!(
            out.stats.peak_decided_offload_vertical.get(),
            out.stats.offload_vertical.get(),
            "with the WAN up the datacenter takes every decided offload"
        );
        assert!(out.stats.dc_share() > 0.0);
        assert!(out.stats.dcc_completed.get() > 0);
    }

    #[test]
    fn rooms_are_heated_to_comfort() {
        // Cover a full day so the daytime setpoint (20 °C) is exercised —
        // the first 6 h are night setback (17 °C) where no warming is due.
        let mut cfg = tiny_config();
        cfg.horizon = SimDuration::from_hours(24);
        let p = Platform::new(cfg);
        let jobs = edge_stream(24);
        let out = p.run(&jobs);
        let temps = out.stats.room_temp_c.summary();
        // Starting ~17 °C, rooms must climb toward the 20 °C day setpoint.
        assert!(
            temps.max() > 18.5,
            "rooms should warm up, max mean {}",
            temps.max()
        );
        // And never run away past the setpoint band (no waste heat).
        assert!(temps.max() < 22.0, "no overshoot, got {}", temps.max());
    }

    #[test]
    fn energy_is_accounted() {
        let p = Platform::new(tiny_config());
        let out = p.run(&edge_stream(6));
        assert!(
            out.stats.df_total_kwh > 0.5,
            "kwh {}",
            out.stats.df_total_kwh
        );
        assert!(out.stats.df_compute_kwh <= out.stats.df_total_kwh);
        assert!(out.stats.pue() >= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let jobs = edge_stream(3);
        let a = Platform::new(tiny_config()).run(&jobs);
        let b = Platform::new(tiny_config()).run(&jobs);
        assert_eq!(a.events, b.events);
        assert_eq!(
            a.stats.edge_response_ms.p99(),
            b.stats.edge_response_ms.p99()
        );
        assert_eq!(a.stats.df_total_kwh, b.stats.df_total_kwh);
    }

    #[test]
    fn preempt_policy_fires_under_pressure() {
        use workloads::dcc::{boinc_jobs, BoincConfig};
        use workloads::job::JobStream;
        let mut cfg = tiny_config();
        cfg.peak_policy = sched::PeakPolicy::Hybrid;
        cfg.datacenter_cores = 64;
        // A 2 s container swap would blow every 300 ms edge deadline on
        // preemption (that effect is measured by experiment E4); here use
        // a light swap so the preemption path itself is what's tested.
        cfg.arch = ArchClass::SharedWorkers {
            switch_cost: SimDuration::from_millis(100),
        };
        // Saturate with BOINC work, then add edge traffic.
        let mut boinc = BoincConfig::standard();
        boinc.tasks_per_hour = 4_000.0;
        boinc.mean_work_gops = 40_000.0;
        let bg = boinc_jobs(boinc, SimDuration::from_hours(6), &RngStreams::new(5), 0);
        let edge = location_service_jobs(
            LocationServiceConfig::map_serving(Flow::EdgeIndirect),
            SimDuration::from_hours(6),
            &RngStreams::new(5),
            10_000_000,
        );
        let jobs = bg.merge(edge);
        let out = Platform::new(cfg).run(&jobs);
        assert!(
            out.stats.preemptions.get() > 0,
            "saturated cluster must preempt for edge"
        );
        assert!(out.stats.edge_attainment() > 0.8);
        let _ = JobStream::new(vec![]);
    }

    #[test]
    fn batched_and_scalar_thermal_are_bit_identical() {
        // The whole point of keeping `Room::step` alive behind
        // `scalar_thermal`: the SoA fast path must not change a single
        // bit of any platform-level statistic.
        let jobs = edge_stream(6);
        let mut cfg = tiny_config();
        cfg.scalar_thermal = false;
        let fast = Platform::new(cfg.clone()).run(&jobs);
        cfg.scalar_thermal = true;
        let slow = Platform::new(cfg).run(&jobs);

        assert_eq!(fast.events, slow.events);
        assert_eq!(fast.stats.df_total_kwh, slow.stats.df_total_kwh);
        assert_eq!(fast.stats.df_compute_kwh, slow.stats.df_compute_kwh);
        assert_eq!(
            fast.stats.edge_response_ms.p99(),
            slow.stats.edge_response_ms.p99()
        );
        let (a, b) = (
            fast.stats.room_temp_c.summary(),
            slow.stats.room_temp_c.summary(),
        );
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.mean(), b.mean());
    }

    /// An inert plan — all windows beyond the horizon, recovery off —
    /// builds the fault runtime but must not perturb a single bit:
    /// every fault draw lives on its own RNG stream and every fault
    /// code path is gated on active state.
    #[test]
    fn inert_plan_never_perturbs_the_simulation() {
        let jobs = edge_stream(6);
        let base = Platform::new(tiny_config()).run(&jobs);
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_master_outage(Window::from_hours(1_000, 1_001))
            .with_cluster_outage(0, Window::from_hours(1_000, 1_001))
            .with_link_fault(
                LinkClass::Fiber,
                Window::from_hours(1_000, 1_001),
                dfnet::link::Degradation::brownout(),
                true,
            )
            .with_recovery(RecoveryPolicy::disabled());
        let faulty = Platform::new(cfg).run(&jobs);
        assert_eq!(base.events, faulty.events);
        assert_eq!(base.stats.df_total_kwh, faulty.stats.df_total_kwh);
        assert_eq!(
            base.stats.edge_response_ms.p99(),
            faulty.stats.edge_response_ms.p99()
        );
        assert_eq!(
            base.stats.room_temp_c.summary().mean(),
            faulty.stats.room_temp_c.summary().mean()
        );
        assert_eq!(
            base.stats.edge_completed.get(),
            faulty.stats.edge_completed.get()
        );
    }

    #[test]
    fn churn_with_recovery_conserves_every_job() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let out = Platform::new(cfg).run(&jobs);
        let s = &out.stats;
        assert!(s.worker_failures.get() > 0, "churn must fire in 6 h");
        assert!(s.mttr_s.count() > 0, "repairs must be recorded");
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end,
            "no edge job lost or duplicated"
        );
        assert!(!s.fault_timeline.is_empty());
    }

    #[test]
    fn cluster_outage_spills_orphans_and_backfills_heat() {
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_cluster_outage(0, Window::from_hours(1, 3))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let out = Platform::new(cfg).run(&jobs);
        let s = &out.stats;
        assert_eq!(s.cluster_outages.get(), 1);
        assert!(s.worker_failures.get() >= 4, "the whole building goes dark");
        assert!(
            s.boiler_backfill_kwh > 0.0,
            "boiler must carry the dark rooms"
        );
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end
        );
        // Restoration happens inside the horizon → MTTR ≈ 2 h.
        assert!(s.mttr_s.count() >= 4);
        assert!(
            (s.mttr_s.mean() - 7_200.0).abs() < 600.0,
            "MTTR {}",
            s.mttr_s.mean()
        );
    }

    /// Snapshot-encode a stats block for bit-exact comparison.
    fn stats_bytes(s: &PlatformStats) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        s.encode(&mut w);
        w.into_bytes()
    }

    fn pause_at(cfg: PlatformConfig, jobs: &JobStream, at_hours: i64) -> PausedRun {
        match Platform::new(cfg).run_to(jobs, SimTime::from_secs(at_hours * 3_600)) {
            RunTo::Paused(p) => p,
            RunTo::Finished(_) => panic!("pause point inside the horizon"),
        }
    }

    #[test]
    fn pause_and_resume_is_bit_identical_to_a_straight_run() {
        let jobs = edge_stream(6);
        let cold = Platform::new(tiny_config()).run(&jobs);
        let paused = pause_at(tiny_config(), &jobs, 3);
        let warm = paused.resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(cold.end, warm.end);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
    }

    #[test]
    fn snapshot_restore_in_a_fresh_platform_is_bit_identical() {
        // The golden guarantee, under an ACTIVE fault plan: churn firing
        // throughout, a master outage straddling the snapshot point, and
        // the retry layer holding open chains across it.
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_master_outage(Window::from_hours(2, 3))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let cold = Platform::new(cfg.clone()).run(&jobs);
        let paused = pause_at(cfg.clone(), &jobs, 2);
        let bytes = paused.snapshot_bytes();
        // The restored run never sees the job stream: the next arrival
        // is in the snapshotted event queue, the rest in `arrivals`.
        let warm = Platform::restore(cfg, &bytes).expect("round trip").resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
        assert!(warm.stats.worker_failures.get() > 0, "plan stayed active");
    }

    #[test]
    fn restore_rejects_mismatched_config_or_plan() {
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        let mut other = tiny_config();
        other.setpoint_c += 1.0;
        assert!(Platform::restore(other, &bytes).is_err(), "config drift");
        let mut other = tiny_config();
        other.faults = FaultPlan::none().with_master_outage(Window::from_hours(4, 5));
        assert!(
            Platform::restore(other, &bytes).is_err(),
            "plan drift without restore_branch"
        );
    }

    /// Rebuild `bytes` with its `arrivals` section replaced by `jobs`
    /// (a valid container: every CRC is recomputed).
    fn with_arrivals(bytes: &[u8], jobs: &[Job]) -> Vec<u8> {
        let file = SnapshotFile::from_bytes(bytes).unwrap();
        let mut out = SnapshotFile::new();
        for name in file.names() {
            let mut w = SnapshotWriter::new();
            if name == "arrivals" {
                jobs.to_vec().encode(&mut w);
            } else {
                let mut r = file.section(name).unwrap();
                w.put_bytes(r.take_bytes(r.remaining()).unwrap());
            }
            out.add(name, w);
        }
        out.to_bytes()
    }

    #[test]
    fn restore_rejects_unsorted_or_past_arrivals() {
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        let file = SnapshotFile::from_bytes(&bytes).unwrap();
        let rest = Vec::<Job>::decode(&mut file.section("arrivals").unwrap()).unwrap();
        assert!(rest.len() > 2, "the checkpoint still has arrivals ahead");
        assert!(Platform::restore(tiny_config(), &with_arrivals(&bytes, &rest)).is_ok());

        let mut unsorted = rest.clone();
        unsorted.swap(0, 1);
        match Platform::restore(tiny_config(), &with_arrivals(&bytes, &unsorted)) {
            Err(SnapshotError::Corrupt(m)) => assert!(m.contains("sorted"), "{m}"),
            other => panic!("unsorted arrivals: {:?}", other.err()),
        }
        let mut past = rest;
        past[0].arrival = SimTime::ZERO;
        match Platform::restore(tiny_config(), &with_arrivals(&bytes, &past)) {
            Err(SnapshotError::Corrupt(m)) => assert!(m.contains("snapshot clock"), "{m}"),
            other => panic!("arrival before the clock: {:?}", other.err()),
        }
    }

    #[test]
    fn older_snapshot_versions_are_rejected() {
        // Version 1 predates streamed arrivals, version 2 the
        // peak-decision counters in the stats section.
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        for old in [1u32, 2] {
            let mut bytes = bytes.clone();
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                Platform::restore(tiny_config(), &bytes).err(),
                Some(SnapshotError::BadVersion(old))
            );
        }
    }

    #[test]
    fn truncated_or_corrupted_snapshots_error_never_panic() {
        let jobs = edge_stream(6);
        let bytes = pause_at(tiny_config(), &jobs, 2).snapshot_bytes();
        for cut in [0, 1, 7, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Platform::restore(tiny_config(), &bytes[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
        for flip in [8, 64, bytes.len() / 3, bytes.len() - 9] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            assert!(
                Platform::restore(tiny_config(), &bad).is_err(),
                "bit flip at {flip} must error"
            );
        }
    }

    #[test]
    fn branch_restore_extends_the_fault_plan_bit_identically() {
        // Warm up under churn; branch an extra cluster outage onto the
        // snapshot. The branch must equal a cold run under the extended
        // plan, bit for bit — the basis of branch-from-snapshot sweeps.
        let base = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let mut cfg = tiny_config();
        cfg.faults = base.clone();
        let jobs = edge_stream(6);
        let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();

        let mut branch_cfg = cfg.clone();
        branch_cfg.faults = base
            .clone()
            .with_cluster_outage(0, Window::from_hours(3, 4));
        let cold = Platform::new(branch_cfg.clone()).run(&jobs);
        let warm = Platform::restore_branch(&base, branch_cfg, &bytes)
            .expect("valid branch")
            .resume();
        assert_eq!(cold.events, warm.events);
        assert_eq!(stats_bytes(&cold.stats), stats_bytes(&warm.stats));
        assert_eq!(warm.stats.cluster_outages.get(), 1, "branch outage fired");
    }

    #[test]
    fn branch_restore_rejects_windows_before_the_branch_point() {
        let base = FaultPlan::none()
            .with_churn(SimDuration::from_hours(4), SimDuration::from_secs(1_800))
            .with_recovery(RecoveryPolicy::standard());
        let mut cfg = tiny_config();
        cfg.faults = base.clone();
        let jobs = edge_stream(6);
        let bytes = pause_at(cfg.clone(), &jobs, 2).snapshot_bytes();
        // Starts before the snapshot: would rewrite warmed-up history.
        let mut bad = cfg.clone();
        bad.faults = base
            .clone()
            .with_cluster_outage(0, Window::from_hours(1, 3));
        assert!(Platform::restore_branch(&base, bad, &bytes).is_err());
        // Outage inside the one-tick scheduling slack is rejected too.
        let mut slack = cfg.clone();
        slack.faults = base.clone().with_cluster_outage(
            0,
            Window::new(
                SimDuration::from_secs(2 * 3_600 + 60),
                SimDuration::from_hours(3),
            ),
        );
        assert!(Platform::restore_branch(&base, slack, &bytes).is_err());
        // Dropping a base injector is not an extension.
        let mut dropped = cfg;
        dropped.faults = FaultPlan::none().with_recovery(RecoveryPolicy::standard());
        assert!(Platform::restore_branch(&base, dropped, &bytes).is_err());
    }

    #[test]
    fn retry_layer_reclaims_master_outage_rejections() {
        // Indirect edge requests during a master outage are rejected;
        // with retries enabled, requests arriving just before the
        // window's end get re-submitted after it and complete.
        let mut cfg = tiny_config();
        cfg.faults = FaultPlan::none()
            .with_master_outage(Window::from_hours(1, 2))
            .with_recovery(RecoveryPolicy::standard());
        let jobs = edge_stream(6);
        let with_retry = Platform::new(cfg.clone()).run(&jobs);
        cfg.faults = cfg.faults.with_recovery(RecoveryPolicy::disabled());
        let without = Platform::new(cfg).run(&jobs);
        assert!(with_retry.stats.jobs_retried.get() > 0);
        assert!(
            with_retry.stats.jobs_abandoned.get() > 0,
            "sub-second deadlines abandon most chains mid-outage"
        );
        assert!(without.stats.jobs_retried.get() == 0);
        let s = &with_retry.stats;
        assert_eq!(
            s.edge_arrived.get(),
            s.edge_terminal() + s.edge_in_flight_end
        );
    }
}
