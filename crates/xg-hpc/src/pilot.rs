//! The xGFabric Pilot controller (§3.6).
//!
//! Pilots are placeholder batch jobs: once a pilot's nodes are active,
//! application tasks (CFD runs) execute inside it with **no further batch
//! queueing** — this is how xGFabric masks the 0–24 h queue delays of
//! §4.4. The controller implements the paper's decision logic verbatim:
//!
//! 1. `N_req = max(1, ceil(D / threshold))`            (Eq. 1)
//! 2. `N_avail = Σ nodes(p)` over active, idle pilots  (Eq. 2)
//! 3. submit a new pilot iff `N_avail < N_req`          (Eq. 3)
//! 4. `nodes = min(system_nodes, N_req)`,
//!    `runtime = min(max_system_runtime, est_task_runtime)` (Eq. 4)
//!
//! plus the proactive / reactive strategies the paper lists as future
//! work, so they can be compared in the ablation benchmarks.

use crate::cluster::{ClusterSim, JobId, JobRequest, JobState};
use crate::predictor::{AdaptivePilotPlanner, QueueWaitPredictor};
use std::sync::Arc;
use xg_obs::{Counter, Histogram, Obs};

/// Pre-resolved pilot instruments. The central contrast §4.4 draws is
/// between these two histograms: the batch *queue wait* a pilot absorbs
/// versus the *mask time* an application task actually experiences.
#[derive(Debug, Clone)]
struct PilotObs {
    /// Batch queue wait per pilot (submission → activation), seconds.
    queue_wait_s: Arc<Histogram>,
    /// Task response latency inside pilots (request → start), seconds —
    /// what remains of the queue wait after masking.
    mask_s: Arc<Histogram>,
    /// Pilots submitted.
    pilots_submitted: Arc<Counter>,
    /// Application tasks dispatched into pilots.
    tasks_dispatched: Arc<Counter>,
}

impl PilotObs {
    fn new(obs: &Obs) -> Option<Self> {
        let reg = obs.registry()?;
        Some(PilotObs {
            queue_wait_s: reg.histogram("hpc.pilot.queue_wait_s"),
            mask_s: reg.histogram("hpc.task.mask_s"),
            pilots_submitted: reg.counter("hpc.pilots.submitted"),
            tasks_dispatched: reg.counter("hpc.tasks.dispatched"),
        })
    }
}

/// Pilot provisioning strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PilotStrategy {
    /// The paper's current controller: an initial single-node pilot at
    /// startup, then Eqs. (1)–(4) on each data arrival.
    OnDemand,
    /// Keep a warm pool of this many nodes queued/active at all times
    /// ("starting pilots early": low latency, idle-resource overhead).
    Proactive {
        /// Nodes to keep warm.
        warm_nodes: u32,
    },
    /// No standing pilots; submit only when data arrives ("starting pilots
    /// on-time": minimal idle resources, startup delay).
    Reactive,
    /// Learn the queue-wait distribution and submit replacement pilots
    /// just early enough to mask it (the §5 future-work tuning, built on
    /// `QueueWaitPredictor`).
    Adaptive {
        /// Nodes to keep effectively warm.
        warm_nodes: u32,
    },
}

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PilotControllerConfig {
    /// Eq. 1 threshold: bytes of incoming data per node.
    pub threshold_bytes: f64,
    /// Provisioning strategy.
    pub strategy: PilotStrategy,
    /// Estimated application task runtime (s) — Eq. 4.
    pub est_task_runtime_s: f64,
    /// The system's maximum job walltime (s) — Eq. 4.
    pub max_walltime_s: f64,
    /// Total nodes of the system — Eq. 4.
    pub system_nodes: u32,
    /// Walltime requested for pilots. Pilots typically outlive a single
    /// task so several tasks can reuse them.
    pub pilot_walltime_s: f64,
}

impl PilotControllerConfig {
    /// Defaults matched to the paper's deployment: 1 KB of telemetry per
    /// trigger, ~7-minute CFD tasks, 24 h walltime ceiling.
    pub fn paper_default(system_nodes: u32) -> Self {
        PilotControllerConfig {
            threshold_bytes: 1024.0,
            strategy: PilotStrategy::OnDemand,
            est_task_runtime_s: 420.0,
            max_walltime_s: 24.0 * 3600.0,
            system_nodes,
            pilot_walltime_s: 4.0 * 3600.0,
        }
    }
}

/// One pilot's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Pilot {
    /// The placeholder batch job.
    pub job: JobId,
    /// Nodes held.
    pub nodes: u32,
    /// Submission time (s).
    pub submitted_at: f64,
    /// Activation time, once the batch system started it.
    pub activated_at: Option<f64>,
    /// Time the pilot's walltime expires (once active).
    pub expires_at: Option<f64>,
    /// The pilot is running a task until this time.
    pub busy_until: f64,
    /// Total busy node-seconds served.
    pub busy_node_s: f64,
    /// Whether the activation wait was fed to the predictor.
    pub wait_observed: bool,
}

/// A completed (or pending) application task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskOutcome {
    /// When the application requested the task (s).
    pub requested_at: f64,
    /// When a pilot began executing it (s).
    pub started_at: f64,
    /// When it finished (s).
    pub finished_at: f64,
    /// Response latency: started − requested (s). This is the number the
    /// pilot design minimizes.
    pub wait_s: f64,
}

/// Outcome of the Eq. (1)–(4) evaluation on a data arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataDecision {
    /// Eq. 1.
    pub n_required: u32,
    /// Eq. 2.
    pub n_available: u32,
    /// Whether Eq. 3 said to submit, and the pilot job if so.
    pub submitted: Option<JobId>,
}

#[derive(Debug, Clone, Copy)]
struct PendingTask {
    requested_at: f64,
    nodes: u32,
    runtime_s: f64,
}

/// The Pilot controller bound to one site's cluster.
pub struct PilotController {
    /// Configuration.
    pub config: PilotControllerConfig,
    cluster: ClusterSim,
    pilots: Vec<Pilot>,
    pending: Vec<PendingTask>,
    completed: Vec<TaskOutcome>,
    predictor: QueueWaitPredictor,
    planner: AdaptivePilotPlanner,
    /// Site outage fault: the facility is unreachable — no capacity, no
    /// submissions, in-flight work lost.
    offline: bool,
    /// Queue stall fault: the batch scheduler stops starting jobs. Pilots
    /// already active keep serving tasks (the pilot design's whole point);
    /// queued pilots never activate until the stall clears.
    stalled: bool,
    obs: Option<PilotObs>,
}

impl PilotController {
    /// Create a controller. `OnDemand` submits the paper's initial
    /// single-node pilot immediately; `Proactive` submits the warm pool;
    /// `Reactive` submits nothing.
    pub fn new(cluster: ClusterSim, config: PilotControllerConfig) -> Self {
        let mut ctl = PilotController {
            config,
            cluster,
            pilots: Vec::new(),
            pending: Vec::new(),
            completed: Vec::new(),
            predictor: QueueWaitPredictor::new(0.3),
            planner: AdaptivePilotPlanner::default(),
            offline: false,
            stalled: false,
            obs: None,
        };
        match config.strategy {
            PilotStrategy::OnDemand => {
                ctl.submit_pilot(1);
            }
            PilotStrategy::Proactive { warm_nodes } | PilotStrategy::Adaptive { warm_nodes } => {
                ctl.submit_pilot(warm_nodes.max(1));
            }
            PilotStrategy::Reactive => {}
        }
        ctl
    }

    /// Attach an observability handle: pilot queue waits, task mask
    /// times and submission counters land in its registry.
    pub(crate) fn set_obs(&mut self, obs: &Obs) {
        self.obs = PilotObs::new(obs);
    }

    /// The underlying cluster (inspection).
    pub fn cluster(&self) -> &ClusterSim {
        &self.cluster
    }

    /// Completed tasks.
    pub fn completed_tasks(&self) -> &[TaskOutcome] {
        &self.completed
    }

    /// Eq. 1: nodes required for `data_bytes` of incoming data.
    pub(crate) fn n_required(&self, data_bytes: f64) -> u32 {
        ((data_bytes / self.config.threshold_bytes).ceil() as u32).max(1)
    }

    /// Eq. 2: nodes across active, non-busy, non-expired pilots.
    pub(crate) fn n_available(&self) -> u32 {
        if self.offline {
            return 0;
        }
        let now = self.cluster.now();
        self.pilots
            .iter()
            .filter(|p| p.is_available(now))
            .map(|p| p.nodes)
            .sum()
    }

    /// Whether the site is currently offline (fault-injected outage).
    pub(crate) fn is_offline(&self) -> bool {
        self.offline
    }

    /// Inject or clear a site outage. Going offline kills every pilot
    /// (their placeholder jobs are cancelled) and aborts in-flight tasks;
    /// the aborted tasks are returned so a failover layer can resubmit
    /// them elsewhere. Coming back online returns an empty vec — fresh
    /// pilots are provisioned by the normal Eq. (1)–(3) path.
    pub(crate) fn set_offline(&mut self, offline: bool) -> Vec<TaskOutcome> {
        if offline == self.offline {
            return Vec::new();
        }
        self.offline = offline;
        if !offline {
            return Vec::new();
        }
        // Observe any unnoticed activations first, so a pilot that started
        // just before the outage cannot be resurrected by a later refresh.
        self.refresh_pilot_states();
        let now = self.cluster.now();
        for p in &mut self.pilots {
            if p.expires_at.is_none_or(|e| e > now) {
                self.cluster.cancel(p.job);
                p.expires_at = Some(now);
                p.busy_until = p.busy_until.min(now);
            }
        }
        // Tasks dispatched but not finished by the outage instant died
        // with their pilots.
        let mut aborted = Vec::new();
        self.completed.retain(|t| {
            if t.finished_at > now {
                aborted.push(*t);
                false
            } else {
                true
            }
        });
        aborted
    }

    /// Inject or clear a batch-queue stall.
    pub(crate) fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Remove and return tasks that were accepted but never dispatched —
    /// failover hands these to another site.
    pub(crate) fn drain_pending(&mut self) -> Vec<(u32, f64)> {
        std::mem::take(&mut self.pending)
            .into_iter()
            .map(|t| (t.nodes, t.runtime_s))
            .collect()
    }

    fn submit_pilot(&mut self, n_req: u32) -> Option<JobId> {
        if self.offline {
            return None;
        }
        // Eq. 4.
        let nodes = n_req.min(self.config.system_nodes);
        let walltime = self
            .config
            .pilot_walltime_s
            .min(self.config.max_walltime_s)
            .max(
                self.config
                    .est_task_runtime_s
                    .min(self.config.max_walltime_s),
            );
        let job = self.cluster.submit(JobRequest {
            nodes,
            walltime_s: walltime,
            // The pilot placeholder runs for its whole walltime unless the
            // scheduler kills it.
            runtime_s: walltime,
        })?;
        self.pilots.push(Pilot {
            job,
            nodes,
            submitted_at: self.cluster.now(),
            activated_at: None,
            expires_at: None,
            busy_until: 0.0,
            busy_node_s: 0.0,
            wait_observed: false,
        });
        if let Some(o) = &self.obs {
            o.pilots_submitted.inc();
        }
        Some(job)
    }

    /// Handle a data arrival of `data_bytes`: evaluate Eqs. (1)–(3) and
    /// submit a pilot if needed.
    pub fn on_data(&mut self, data_bytes: f64) -> DataDecision {
        self.refresh_pilot_states();
        let n_required = self.n_required(data_bytes);
        let n_available = self.n_available();
        let submitted = if n_available < n_required {
            self.submit_pilot(n_required)
        } else {
            None
        };
        DataDecision {
            n_required,
            n_available,
            submitted,
        }
    }

    /// Request an application task (e.g. one CFD run) of `runtime_s` on
    /// `nodes` nodes. It starts as soon as an active pilot with enough
    /// idle nodes exists.
    pub fn submit_task(&mut self, nodes: u32, runtime_s: f64) {
        self.pending.push(PendingTask {
            requested_at: self.cluster.now(),
            nodes,
            runtime_s,
        });
        self.dispatch_pending();
    }

    /// Advance virtual time, activating pilots and draining tasks.
    pub fn advance_to(&mut self, t: f64) {
        // Step through in coarse increments so pilot activations are
        // noticed promptly and tasks dispatched near their earliest start.
        let step = 30.0;
        let mut now = self.cluster.now();
        while now < t {
            now = (now + step).min(t);
            self.cluster.advance_to(now);
            self.refresh_pilot_states();
            self.dispatch_pending();
        }
    }

    fn refresh_pilot_states(&mut self) {
        for p in &mut self.pilots {
            // A stalled batch queue starts no new jobs: activations are
            // not observed until the stall clears.
            if self.stalled {
                break;
            }
            if p.activated_at.is_none() {
                if let Some(JobState::Running { started_at }) = self.cluster.job_state(p.job) {
                    p.activated_at = Some(started_at);
                    p.expires_at = Some(started_at + self.config.pilot_walltime_s);
                } else if let Some(JobState::Completed {
                    started_at,
                    ended_at,
                    ..
                }) = self.cluster.job_state(p.job)
                {
                    p.activated_at = Some(started_at);
                    p.expires_at = Some(ended_at);
                }
            }
        }
        // Learn observed pilot queue waits (used by the adaptive strategy
        // and exposed for diagnostics under every strategy).
        self.observe_new_waits();
        match self.config.strategy {
            // Proactive: replace expired warm capacity immediately.
            PilotStrategy::Proactive { warm_nodes } => {
                let now = self.cluster.now();
                let live_nodes: u32 = self
                    .pilots
                    .iter()
                    .filter(|p| p.expires_at.is_none_or(|e| e > now))
                    .map(|p| p.nodes)
                    .sum();
                if live_nodes < warm_nodes {
                    self.submit_pilot(warm_nodes - live_nodes);
                }
            }
            // Adaptive: resubmit with a learned lead time before expiry.
            PilotStrategy::Adaptive { warm_nodes } => {
                let now = self.cluster.now();
                // Capacity that is active now or already queued as a
                // replacement.
                let committed: u32 = self
                    .pilots
                    .iter()
                    .filter(|p| match (p.activated_at, p.expires_at) {
                        (Some(_), Some(exp)) => {
                            exp > now
                                && !self
                                    .planner
                                    .should_resubmit(&self.predictor, p.nodes, now, exp)
                        }
                        (None, _) => true, // queued replacement counts
                        _ => false,
                    })
                    .map(|p| p.nodes)
                    .sum();
                if committed < warm_nodes {
                    self.submit_pilot(warm_nodes - committed);
                }
            }
            _ => {}
        }
    }

    fn observe_new_waits(&mut self) {
        let mut observations = Vec::new();
        for p in &mut self.pilots {
            if let Some(activated) = p.activated_at {
                if !p.wait_observed {
                    p.wait_observed = true;
                    observations.push((p.nodes, activated - p.submitted_at));
                }
            }
        }
        for (nodes, wait) in observations {
            if let Some(o) = &self.obs {
                o.queue_wait_s.record(wait.max(0.0));
            }
            self.predictor.observe_wait(nodes, wait.max(0.0));
        }
    }

    /// The learned queue-wait predictor (diagnostics).
    pub(crate) fn predictor(&self) -> &QueueWaitPredictor {
        &self.predictor
    }

    fn dispatch_pending(&mut self) {
        if self.offline {
            return;
        }
        let now = self.cluster.now();
        let mut still_pending = Vec::new();
        for task in std::mem::take(&mut self.pending) {
            let slot = self
                .pilots
                .iter_mut()
                .find(|p| p.is_available(now) && p.nodes >= task.nodes);
            match slot {
                Some(p) => {
                    // The task must fit before the pilot expires.
                    let expires = p.expires_at.unwrap_or(f64::INFINITY);
                    if now + task.runtime_s > expires {
                        still_pending.push(task);
                        continue;
                    }
                    p.busy_until = now + task.runtime_s;
                    p.busy_node_s += task.runtime_s * p.nodes as f64;
                    if let Some(o) = &self.obs {
                        o.mask_s.record(now - task.requested_at);
                        o.tasks_dispatched.inc();
                    }
                    self.completed.push(TaskOutcome {
                        requested_at: task.requested_at,
                        started_at: now,
                        finished_at: now + task.runtime_s,
                        wait_s: now - task.requested_at,
                    });
                }
                None => still_pending.push(task),
            }
        }
        self.pending = still_pending;
    }

    /// Idle node-seconds across all pilots up to now: the cost of the
    /// proactive strategy.
    pub fn idle_node_seconds(&self) -> f64 {
        let now = self.cluster.now();
        self.pilots
            .iter()
            .filter_map(|p| {
                let start = p.activated_at?;
                let end = p.expires_at.unwrap_or(now).min(now);
                let held = (end - start).max(0.0) * p.nodes as f64;
                Some((held - p.busy_node_s).max(0.0))
            })
            .sum()
    }
}

impl Pilot {
    /// Active, not expired, and not running a task.
    fn is_available(&self, now: f64) -> bool {
        match (self.activated_at, self.expires_at) {
            (Some(_), Some(exp)) => now < exp && now >= self.busy_until,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle_controller(strategy: PilotStrategy) -> PilotController {
        let cluster = ClusterSim::new(32);
        let mut cfg = PilotControllerConfig::paper_default(32);
        cfg.strategy = strategy;
        PilotController::new(cluster, cfg)
    }

    #[test]
    fn eq1_node_requirement() {
        let ctl = idle_controller(PilotStrategy::OnDemand);
        assert_eq!(ctl.n_required(0.0), 1, "max(1, ...)");
        assert_eq!(ctl.n_required(1024.0), 1);
        assert_eq!(ctl.n_required(1025.0), 2, "ceil");
        assert_eq!(ctl.n_required(8.0 * 1024.0), 8);
    }

    #[test]
    fn on_demand_submits_initial_pilot() {
        let mut ctl = idle_controller(PilotStrategy::OnDemand);
        assert_eq!(ctl.pilots.len(), 1);
        assert_eq!(ctl.pilots[0].nodes, 1);
        ctl.advance_to(60.0);
        assert_eq!(ctl.n_available(), 1, "initial pilot active on idle cluster");
    }

    #[test]
    fn reactive_submits_nothing_until_data() {
        let mut ctl = idle_controller(PilotStrategy::Reactive);
        assert!(ctl.pilots.is_empty());
        ctl.advance_to(60.0);
        assert_eq!(ctl.n_available(), 0);
        let d = ctl.on_data(4.0 * 1024.0);
        assert_eq!(d.n_required, 4);
        assert_eq!(d.n_available, 0);
        assert!(d.submitted.is_some());
    }

    #[test]
    fn eq3_no_submission_when_capacity_suffices() {
        let mut ctl = idle_controller(PilotStrategy::OnDemand);
        ctl.advance_to(60.0);
        // 1 KB needs 1 node; the initial pilot covers it.
        let d = ctl.on_data(512.0);
        assert_eq!(d.n_required, 1);
        assert_eq!(d.n_available, 1);
        assert!(d.submitted.is_none(), "Eq. 3: N_avail >= N_req -> No");
        // 4 KB needs 4 nodes; must submit.
        let d = ctl.on_data(4.0 * 1024.0);
        assert!(d.submitted.is_some());
    }

    #[test]
    fn eq4_caps_at_system_size() {
        let cluster = ClusterSim::new(8);
        let mut cfg = PilotControllerConfig::paper_default(8);
        cfg.strategy = PilotStrategy::Reactive;
        let mut ctl = PilotController::new(cluster, cfg);
        // Request far more than the machine: clamped to 8 nodes.
        let d = ctl.on_data(100.0 * 1024.0);
        assert!(d.submitted.is_some());
        assert_eq!(ctl.pilots.last().unwrap().nodes, 8);
    }

    #[test]
    fn task_runs_inside_active_pilot_without_queueing() {
        let mut ctl = idle_controller(PilotStrategy::OnDemand);
        ctl.advance_to(60.0);
        ctl.submit_task(1, 420.0);
        ctl.advance_to(600.0);
        let tasks = ctl.completed_tasks();
        assert_eq!(tasks.len(), 1);
        assert!(
            tasks[0].wait_s < 1.0,
            "active pilot absorbs the task instantly: {}",
            tasks[0].wait_s
        );
    }

    #[test]
    fn tasks_queue_until_pilot_activates() {
        let mut ctl = idle_controller(PilotStrategy::Reactive);
        ctl.on_data(1024.0); // submit 1-node pilot
        ctl.submit_task(1, 420.0);
        ctl.advance_to(1_000.0);
        let tasks = ctl.completed_tasks();
        assert_eq!(tasks.len(), 1);
        // Even on an idle cluster the dispatch loop imposes a small lag.
        assert!(tasks[0].wait_s <= 60.0);
    }

    #[test]
    fn busy_pilot_masks_queueing_on_busy_cluster() {
        // A saturated cluster: direct submission would wait hours, but a
        // pre-activated pilot serves the task immediately.
        let busy = ClusterSim::new(16).with_background_load(400.0, 7200.0, 8, 3);
        let mut cfg = PilotControllerConfig::paper_default(16);
        cfg.strategy = PilotStrategy::OnDemand;
        let mut ctl = PilotController::new(busy, cfg);
        // The initial pilot was submitted at t=0 on an empty queue, so it
        // activates immediately; background load then saturates the queue.
        ctl.advance_to(2.0 * 3600.0);
        ctl.submit_task(1, 420.0);
        ctl.advance_to(2.0 * 3600.0 + 600.0);
        let tasks = ctl.completed_tasks();
        assert_eq!(tasks.len(), 1);
        assert!(
            tasks[0].wait_s < 60.0,
            "pilot must mask the queue: waited {}",
            tasks[0].wait_s
        );
    }

    #[test]
    fn proactive_pool_replenished() {
        let mut ctl = idle_controller(PilotStrategy::Proactive { warm_nodes: 4 });
        ctl.advance_to(60.0);
        assert_eq!(ctl.n_available(), 4);
        // Long after the first pilot's walltime, the pool is still warm.
        ctl.advance_to(6.0 * 3600.0);
        assert!(ctl.n_available() >= 4, "pool must be replenished");
        assert!(ctl.pilots.len() >= 2);
    }

    #[test]
    fn proactive_costs_idle_nodes() {
        let mut proactive = idle_controller(PilotStrategy::Proactive { warm_nodes: 8 });
        let mut reactive = idle_controller(PilotStrategy::Reactive);
        proactive.advance_to(3600.0);
        reactive.advance_to(3600.0);
        assert!(proactive.idle_node_seconds() > 8.0 * 3000.0);
        assert_eq!(reactive.idle_node_seconds(), 0.0);
    }

    #[test]
    fn adaptive_learns_waits_and_keeps_capacity() {
        // Idle cluster: the predictor observes ~zero waits, so adaptive
        // behaves like just-in-time resubmission and capacity never lapses
        // for long.
        let mut ctl = idle_controller(PilotStrategy::Adaptive { warm_nodes: 2 });
        ctl.advance_to(60.0);
        assert!(ctl.n_available() >= 2);
        assert!(ctl.predictor().observations.iter().sum::<u64>() >= 1);
        // Ride through two pilot walltimes; tasks keep being absorbed.
        for hour in 1..=9 {
            ctl.advance_to(hour as f64 * 3600.0);
            ctl.submit_task(1, 420.0);
        }
        ctl.advance_to(10.0 * 3600.0);
        assert_eq!(ctl.completed_tasks().len(), 9);
        for t in ctl.completed_tasks() {
            assert!(t.wait_s < 600.0, "wait {}", t.wait_s);
        }
    }

    #[test]
    fn adaptive_uses_less_idle_than_proactive_on_idle_cluster() {
        // With zero queue wait, adaptive resubmits only at expiry, so its
        // standing pool matches proactive but never doubles up early.
        let mut adaptive = idle_controller(PilotStrategy::Adaptive { warm_nodes: 4 });
        let mut proactive = idle_controller(PilotStrategy::Proactive { warm_nodes: 4 });
        adaptive.advance_to(6.0 * 3600.0);
        proactive.advance_to(6.0 * 3600.0);
        assert!(adaptive.idle_node_seconds() <= proactive.idle_node_seconds() * 1.1);
    }

    #[test]
    fn site_outage_kills_pilots_and_aborts_in_flight_tasks() {
        let mut ctl = idle_controller(PilotStrategy::OnDemand);
        ctl.advance_to(60.0);
        ctl.submit_task(1, 420.0);
        // The task is in flight (dispatched, finishes at ~480 s).
        assert_eq!(ctl.completed_tasks().len(), 1);
        let aborted = ctl.set_offline(true);
        assert_eq!(aborted.len(), 1, "in-flight task died with the site");
        assert!(ctl.completed_tasks().is_empty());
        assert_eq!(ctl.n_available(), 0);
        assert!(ctl.is_offline());
        // While offline nothing dispatches and no pilots are submitted.
        ctl.submit_task(1, 420.0);
        ctl.on_data(4.0 * 1024.0);
        ctl.advance_to(1_200.0);
        assert!(ctl.completed_tasks().is_empty());
        assert_eq!(ctl.pending.len(), 1);
        // Recovery: fresh capacity is provisioned and the queued task runs.
        assert!(ctl.set_offline(false).is_empty());
        ctl.on_data(1024.0);
        ctl.advance_to(3_600.0);
        assert_eq!(ctl.completed_tasks().len(), 1);
    }

    #[test]
    fn queue_stall_freezes_activations_but_not_active_pilots() {
        let mut ctl = idle_controller(PilotStrategy::OnDemand);
        ctl.advance_to(60.0);
        assert_eq!(ctl.n_available(), 1, "initial pilot active");
        ctl.set_stalled(true);
        // New pilot submissions sit in the frozen queue.
        ctl.on_data(4.0 * 1024.0);
        ctl.advance_to(1_800.0);
        assert_eq!(ctl.n_available(), 1, "stalled queue starts nothing");
        // The already-active pilot still serves tasks — the pilot design's
        // point: work inside a pilot needs no further batch queueing.
        ctl.submit_task(1, 420.0);
        ctl.advance_to(2_400.0);
        assert_eq!(ctl.completed_tasks().len(), 1);
        // Stall clears: the queued 4-node pilot activates.
        ctl.set_stalled(false);
        ctl.advance_to(3_000.0);
        assert!(ctl.n_available() >= 4, "queued pilot activates after stall");
    }

    #[test]
    fn obs_separates_queue_wait_from_mask_time() {
        // A saturated cluster: the pilot absorbs a long batch queue wait,
        // but the task dispatched into it waits almost nothing — the two
        // histograms must show that separation.
        let busy = ClusterSim::new(16).with_background_load(400.0, 7200.0, 8, 3);
        let mut cfg = PilotControllerConfig::paper_default(16);
        cfg.strategy = PilotStrategy::OnDemand;
        let mut ctl = PilotController::new(busy, cfg);
        let obs = Obs::enabled();
        ctl.set_obs(&obs);
        ctl.advance_to(2.0 * 3600.0);
        ctl.submit_task(1, 420.0);
        ctl.advance_to(2.0 * 3600.0 + 600.0);
        let reg = obs.registry().unwrap();
        let wait = reg.histogram("hpc.pilot.queue_wait_s").snapshot();
        let mask = reg.histogram("hpc.task.mask_s").snapshot();
        assert_eq!(wait.count(), 1, "initial pilot's wait observed");
        assert_eq!(mask.count(), 1);
        assert!(mask.max().unwrap() < 60.0, "task masked: {:?}", mask.max());
        assert_eq!(reg.counter("hpc.tasks.dispatched").get(), 1);
        // The initial pilot predates set_obs, so the submission counter
        // only covers pilots submitted after attach.
        assert_eq!(reg.counter("hpc.pilots.submitted").get(), 0);
    }

    #[test]
    fn drain_pending_hands_tasks_to_failover() {
        let mut ctl = idle_controller(PilotStrategy::Reactive);
        ctl.submit_task(2, 300.0);
        ctl.submit_task(1, 420.0);
        let drained = ctl.drain_pending();
        assert_eq!(drained, vec![(2, 300.0), (1, 420.0)]);
        assert_eq!(ctl.pending.len(), 0);
    }

    #[test]
    fn task_not_dispatched_past_pilot_expiry() {
        let cluster = ClusterSim::new(4);
        let mut cfg = PilotControllerConfig::paper_default(4);
        cfg.pilot_walltime_s = 600.0;
        cfg.strategy = PilotStrategy::OnDemand;
        let mut ctl = PilotController::new(cluster, cfg);
        ctl.advance_to(500.0);
        // 420 s task cannot fit in the 100 s the pilot has left.
        ctl.submit_task(1, 420.0);
        ctl.advance_to(550.0);
        assert!(ctl.completed_tasks().is_empty());
    }
}
