//! Discrete-event batch cluster simulator.
//!
//! Models a space-shared cluster with an FCFS queue and optional EASY
//! backfill: the head-of-queue job receives a node reservation at the
//! earliest feasible time, and later jobs may jump the queue only if they
//! cannot delay that reservation. Background load injection reproduces the
//! variable queueing delays (zero to 24 hours, §4.4) that motivate the
//! Pilot design.

use std::collections::VecDeque;
use xg_sim::rng::Rng;

/// Job identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// A job submission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequest {
    /// Nodes requested.
    pub nodes: u32,
    /// Requested walltime (s). The job is killed at this limit.
    pub walltime_s: f64,
    /// Actual runtime (s). Must be ≤ walltime for normal completion.
    pub runtime_s: f64,
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobState {
    /// Waiting in the queue.
    Queued,
    /// Running since the contained start time (s).
    Running {
        /// Time the job started (s).
        started_at: f64,
    },
    /// Finished at the contained time (s); includes walltime kills.
    Completed {
        /// Time the job started (s).
        started_at: f64,
        /// Time the job ended (s).
        ended_at: f64,
        /// True if the walltime limit cut the job short.
        killed: bool,
    },
    /// Cancelled before starting.
    Cancelled,
}

#[derive(Debug, Clone)]
struct QueuedJob {
    id: JobId,
    req: JobRequest,
    submit_t: f64,
}

#[derive(Debug, Clone)]
struct RunningJob {
    id: JobId,
    nodes: u32,
    end_t: f64,
    started_at: f64,
}

/// Record of a finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRecord {
    /// The job.
    pub id: JobId,
    /// Submission time (s).
    pub submit_t: f64,
    /// Start time (s).
    pub started_at: f64,
    /// End time (s).
    pub ended_at: f64,
    /// Queue wait (start − submit, s).
    pub queue_wait_s: f64,
    /// True if the walltime limit cut the job short.
    pub killed: bool,
}

/// The cluster simulator.
pub struct ClusterSim {
    pub(crate) total_nodes: u32,
    now_s: f64,
    backfill: bool,
    next_id: u64,
    queue: VecDeque<QueuedJob>,
    running: Vec<RunningJob>,
    records: Vec<JobRecord>,
    cancelled: Vec<JobId>,
    /// Background-load generator, if enabled.
    background: Option<BackgroundLoad>,
    /// Scratch of `head_reservation_time`, kept to reuse its capacity.
    ends: Vec<(f64, u32)>,
}

#[derive(Debug, Clone)]
struct BackgroundLoad {
    rng: Rng,
    /// Mean inter-arrival time (s).
    mean_interarrival_s: f64,
    /// Mean job runtime (s).
    mean_runtime_s: f64,
    /// Max nodes per background job.
    max_nodes: u32,
    next_arrival_t: f64,
}

impl ClusterSim {
    /// A cluster of `total_nodes` nodes with EASY backfill enabled.
    pub fn new(total_nodes: u32) -> Self {
        assert!(total_nodes > 0, "cluster must have at least one node");
        ClusterSim {
            total_nodes,
            now_s: 0.0,
            backfill: true,
            next_id: 1,
            queue: VecDeque::new(),
            running: Vec::new(),
            records: Vec::new(),
            cancelled: Vec::new(),
            background: None,
            ends: Vec::new(),
        }
    }

    /// Enable synthetic background load: Poisson arrivals of jobs with
    /// exponential runtimes, occupying up to `max_nodes` each. Higher
    /// arrival rates produce the multi-hour queue waits of §4.4.
    pub fn with_background_load(
        mut self,
        mean_interarrival_s: f64,
        mean_runtime_s: f64,
        max_nodes: u32,
        seed: u64,
    ) -> Self {
        self.background = Some(BackgroundLoad {
            rng: Rng::seed_from_u64(seed),
            mean_interarrival_s,
            mean_runtime_s,
            max_nodes: max_nodes.min(self.total_nodes),
            next_arrival_t: 0.0,
        });
        self
    }

    /// Current simulation time (s).
    pub fn now(&self) -> f64 {
        self.now_s
    }

    /// Nodes not currently occupied.
    pub fn free_nodes(&self) -> u32 {
        self.total_nodes - self.running.iter().map(|r| r.nodes).sum::<u32>()
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Submit a job at the current time.
    ///
    /// Returns `None` if the request can never run (more nodes than the
    /// machine has, or non-positive times).
    pub fn submit(&mut self, req: JobRequest) -> Option<JobId> {
        if req.nodes == 0 || req.nodes > self.total_nodes || req.walltime_s <= 0.0 {
            return None;
        }
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.queue.push_back(QueuedJob {
            id,
            req,
            submit_t: self.now_s,
        });
        self.schedule();
        Some(id)
    }

    /// Cancel a queued job. Running jobs cannot be cancelled (matches the
    /// pilot use case: pilots are cancelled while still queued).
    pub(crate) fn cancel(&mut self, id: JobId) -> bool {
        if let Some(pos) = self.queue.iter().position(|q| q.id == id) {
            self.queue.remove(pos);
            self.cancelled.push(id);
            true
        } else {
            false
        }
    }

    /// State of a job.
    pub fn job_state(&self, id: JobId) -> Option<JobState> {
        if self.queue.iter().any(|q| q.id == id) {
            return Some(JobState::Queued);
        }
        if let Some(r) = self.running.iter().find(|r| r.id == id) {
            return Some(JobState::Running {
                started_at: r.started_at,
            });
        }
        if self.cancelled.contains(&id) {
            return Some(JobState::Cancelled);
        }
        self.records
            .iter()
            .find(|r| r.id == id)
            .map(|r| JobState::Completed {
                started_at: r.started_at,
                ended_at: r.ended_at,
                killed: r.killed,
            })
    }

    /// Completed-job records (for queue-wait statistics).
    pub fn records(&self) -> &[JobRecord] {
        &self.records
    }

    /// Advance simulation time to `t`, processing completions, background
    /// arrivals, and scheduling.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now_s, "time cannot run backwards");
        loop {
            // Next event: earliest running-job completion or background
            // arrival before t.
            let next_completion = self
                .running
                .iter()
                .map(|r| r.end_t)
                .fold(f64::INFINITY, f64::min);
            let next_arrival = self
                .background
                .as_ref()
                .map(|b| b.next_arrival_t)
                .unwrap_or(f64::INFINITY);
            let next_event = next_completion.min(next_arrival);
            if next_event > t {
                break;
            }
            self.now_s = next_event;
            if next_arrival <= next_completion {
                self.spawn_background_job();
            } else {
                self.complete_due_jobs();
            }
            self.schedule();
        }
        self.now_s = t;
        self.complete_due_jobs();
        self.schedule();
    }

    fn spawn_background_job(&mut self) {
        // Take the generator out to avoid aliasing self.
        if let Some(mut bg) = self.background.take() {
            let nodes = bg.rng.range_u64(1..u64::from(bg.max_nodes) + 1) as u32;
            let runtime = -bg.mean_runtime_s * (1.0 - bg.rng.next_f64()).ln();
            let runtime = runtime.max(60.0);
            let gap = -bg.mean_interarrival_s * (1.0 - bg.rng.next_f64()).ln();
            bg.next_arrival_t = self.now_s + gap.max(1.0);
            self.background = Some(bg);
            self.submit(JobRequest {
                nodes,
                walltime_s: runtime * 1.5,
                runtime_s: runtime,
            });
        }
    }

    fn complete_due_jobs(&mut self) {
        let now = self.now_s;
        let mut finished: Vec<RunningJob> = Vec::new();
        self.running.retain(|r| {
            if r.end_t <= now {
                finished.push(r.clone());
                false
            } else {
                true
            }
        });
        for r in finished {
            // Submit time is recoverable from the record we stashed at
            // start; see start_job which records it there.
            if let Some(rec) = self.records.iter_mut().find(|rec| rec.id == r.id) {
                rec.ended_at = r.end_t;
            }
        }
    }

    /// Start every job allowed to start now (FCFS + optional backfill).
    fn schedule(&mut self) {
        loop {
            let mut started_any = false;
            // FCFS head.
            while self
                .queue
                .front()
                .is_some_and(|head| head.req.nodes <= self.free_nodes())
            {
                if let Some(job) = self.queue.pop_front() {
                    self.start_job(job);
                    started_any = true;
                }
            }
            // EASY backfill: jobs behind the head may start if they finish
            // before the head's reservation or fit in nodes the head does
            // not need.
            if self.backfill {
                if let Some(head_nodes) = self.queue.front().map(|h| h.req.nodes) {
                    let reservation_t = self.head_reservation_time(head_nodes);
                    // Nodes free at the reservation that the head will not
                    // consume ("extra" nodes usable indefinitely).
                    let free_at_reservation = self.free_nodes_at(reservation_t);
                    let extra = free_at_reservation.saturating_sub(head_nodes);
                    let mut i = 1;
                    while i < self.queue.len() {
                        let cand = &self.queue[i];
                        let fits_now = cand.req.nodes <= self.free_nodes();
                        let ends_before_reservation =
                            self.now_s + cand.req.walltime_s <= reservation_t;
                        let within_extra = cand.req.nodes <= extra;
                        if fits_now && (ends_before_reservation || within_extra) {
                            if let Some(job) = self.queue.remove(i) {
                                self.start_job(job);
                                started_any = true;
                            }
                            // Restart the pass: the head may now fit.
                            break;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            if !started_any {
                break;
            }
        }
    }

    /// Earliest time at which `nodes` nodes will be simultaneously free,
    /// assuming running jobs end at their end times.
    fn head_reservation_time(&mut self, nodes: u32) -> f64 {
        if nodes <= self.free_nodes() {
            return self.now_s;
        }
        let mut ends = std::mem::take(&mut self.ends);
        ends.clear();
        ends.extend(self.running.iter().map(|r| (r.end_t, r.nodes)));
        ends.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut free = self.free_nodes();
        let at = ends.iter().find_map(|&(t, n)| {
            free += n;
            (free >= nodes).then_some(t)
        });
        self.ends = ends;
        at.unwrap_or(f64::INFINITY)
    }

    /// Nodes free at time `t` assuming no new starts.
    fn free_nodes_at(&self, t: f64) -> u32 {
        let occupied: u32 = self
            .running
            .iter()
            .filter(|r| r.end_t > t)
            .map(|r| r.nodes)
            .sum();
        self.total_nodes - occupied
    }

    fn start_job(&mut self, job: QueuedJob) {
        let killed = job.req.runtime_s > job.req.walltime_s;
        let duration = job.req.runtime_s.min(job.req.walltime_s);
        self.running.push(RunningJob {
            id: job.id,
            nodes: job.req.nodes,
            end_t: self.now_s + duration,
            started_at: self.now_s,
        });
        self.records.push(JobRecord {
            id: job.id,
            submit_t: job.submit_t,
            started_at: self.now_s,
            ended_at: f64::NAN, // filled at completion
            queue_wait_s: self.now_s - job.submit_t,
            killed,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(nodes: u32, runtime: f64) -> JobRequest {
        JobRequest {
            nodes,
            walltime_s: runtime * 1.2,
            runtime_s: runtime,
        }
    }

    #[test]
    fn empty_cluster_runs_job_immediately() {
        let mut c = ClusterSim::new(8);
        let id = c.submit(req(4, 100.0)).unwrap();
        assert!(matches!(c.job_state(id), Some(JobState::Running { .. })));
        assert_eq!(c.free_nodes(), 4);
        c.advance_to(100.0);
        assert!(matches!(c.job_state(id), Some(JobState::Completed { .. })));
        assert_eq!(c.free_nodes(), 8);
    }

    #[test]
    fn invalid_requests_rejected() {
        let mut c = ClusterSim::new(8);
        assert!(c.submit(req(0, 100.0)).is_none());
        assert!(c.submit(req(9, 100.0)).is_none());
        assert!(c
            .submit(JobRequest {
                nodes: 1,
                walltime_s: 0.0,
                runtime_s: 1.0
            })
            .is_none());
    }

    #[test]
    fn fcfs_queueing() {
        let mut c = ClusterSim::new(4);
        c.backfill = false;
        let a = c.submit(req(4, 100.0)).unwrap();
        let b = c.submit(req(4, 50.0)).unwrap();
        assert!(matches!(c.job_state(a), Some(JobState::Running { .. })));
        assert_eq!(c.job_state(b), Some(JobState::Queued));
        c.advance_to(100.0);
        assert!(matches!(c.job_state(b), Some(JobState::Running { .. })));
        c.advance_to(150.0);
        assert!(matches!(c.job_state(b), Some(JobState::Completed { .. })));
        // b waited 100 s.
        let rec = c.records().iter().find(|r| r.id == b).unwrap();
        assert!((rec.queue_wait_s - 100.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_lets_small_job_jump_without_delaying_head() {
        let mut c = ClusterSim::new(4);
        // Occupy 3 nodes until t=100.
        let _big = c.submit(req(3, 100.0)).unwrap();
        // Head job needs all 4: reservation at t=100.
        let head = c.submit(req(4, 50.0)).unwrap();
        // A 1-node, 80-second job fits in the free node and ends at t=80 <
        // 100: backfill starts it now.
        let small = c.submit(req(1, 80.0)).unwrap();
        assert!(matches!(c.job_state(small), Some(JobState::Running { .. })));
        assert_eq!(c.job_state(head), Some(JobState::Queued));
        // Head still starts exactly at t=100.
        c.advance_to(100.0);
        match c.job_state(head) {
            Some(JobState::Running { started_at }) => assert!((started_at - 100.0).abs() < 1e-9),
            s => panic!("head should be running: {s:?}"),
        }
    }

    #[test]
    fn backfill_never_delays_head() {
        let mut c = ClusterSim::new(4);
        let _big = c.submit(req(3, 100.0)).unwrap();
        let head = c.submit(req(4, 50.0)).unwrap();
        // This 1-node job would run 200 s, past the head's reservation at
        // t=100, and needs a node the head requires: must NOT backfill.
        let blocker = c.submit(req(1, 200.0)).unwrap();
        assert_eq!(c.job_state(blocker), Some(JobState::Queued));
        c.advance_to(100.0);
        match c.job_state(head) {
            Some(JobState::Running { started_at }) => assert!((started_at - 100.0).abs() < 1e-9),
            s => panic!("head delayed: {s:?}"),
        }
    }

    #[test]
    fn cancel_queued_job() {
        let mut c = ClusterSim::new(2);
        let a = c.submit(req(2, 100.0)).unwrap();
        let b = c.submit(req(2, 100.0)).unwrap();
        assert!(c.cancel(b));
        assert_eq!(c.job_state(b), Some(JobState::Cancelled));
        assert!(!c.cancel(a), "running job cannot be cancelled");
        c.advance_to(100.0);
        // The cancelled job never ran.
        assert!(c.records().iter().all(|r| r.id != b));
    }

    #[test]
    fn walltime_kill() {
        let mut c = ClusterSim::new(1);
        let id = c
            .submit(JobRequest {
                nodes: 1,
                walltime_s: 50.0,
                runtime_s: 500.0,
            })
            .unwrap();
        c.advance_to(50.0);
        assert!(matches!(c.job_state(id), Some(JobState::Completed { .. })));
        assert_eq!(c.free_nodes(), 1);
    }

    #[test]
    fn background_load_creates_queue_waits() {
        // Saturating load: 16-node machine, jobs arriving every ~600 s
        // averaging 2 h on up to 8 nodes → heavy contention.
        let mut c = ClusterSim::new(16).with_background_load(600.0, 7200.0, 8, 42);
        c.advance_to(4.0 * 3600.0);
        // Now submit our job needing half the machine.
        let id = c.submit(req(8, 420.0)).unwrap();
        c.advance_to(30.0 * 3600.0);
        let rec = c.records().iter().find(|r| r.id == id);
        let wait = rec.map(|r| r.queue_wait_s).unwrap_or(f64::INFINITY);
        assert!(wait > 0.0, "saturated machine must impose queueing: {wait}");
    }

    #[test]
    fn conservation_of_nodes() {
        let mut c = ClusterSim::new(8).with_background_load(300.0, 1800.0, 4, 7);
        for t in 1..200 {
            c.advance_to(t as f64 * 120.0);
            assert!(c.free_nodes() <= 8);
        }
    }

    #[test]
    #[should_panic(expected = "time cannot run backwards")]
    fn time_monotonic() {
        let mut c = ClusterSim::new(2);
        c.advance_to(100.0);
        c.advance_to(50.0);
    }
}
