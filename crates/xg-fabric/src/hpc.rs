//! The CFD-task lifecycle on the HPC side of the loop.
//!
//! A change detection hands [`Hpc`] a [`PendingCfd`]; the Pilot
//! controller (Eqs. 1–4) places it at the best reachable site, and the
//! task completes at the placement's expected completion time. A site
//! outage orphans every task still running there: each waits out a
//! capped exponential backoff (300, 600, 1200, then 1800 s) before it is
//! placed again, at whatever site is reachable then.

use crate::timeline::{Event, Timeline};
use xg_cfd::parallel::CfdPerfModel;
use xg_cfd::twin::Measurement;
use xg_hpc::multisite::MultiSiteController;
use xg_hpc::site::SiteProfile;
use xg_obs::{Obs, SpanId, TraceId};
use xg_sensors::network::BoundaryConditions;

/// Cores a paper-scale CFD task is modelled on (Fig. 7's Notre Dame runs).
const CFD_CORES: u32 = 64;

/// Captured trigger context for one CFD run, including the resolution
/// chosen by the degradation ladder at trigger time.
pub(crate) struct PendingCfd {
    pub(crate) trigger_t_s: f64,
    pub(crate) bc: BoundaryConditions,
    pub(crate) interior: Vec<Measurement>,
    pub(crate) cells: [usize; 3],
    pub(crate) steps: usize,
    /// Closed-loop trace this run belongs to, with the detection span it
    /// is causally downstream of (None when observability is disabled).
    pub(crate) trace: Option<(TraceId, SpanId)>,
}

/// A CFD task in flight at `site` until `at`, or lost there (or refused
/// by every site) and waiting out its backoff until `at`.
pub(crate) struct CfdTask {
    pub(crate) pending: PendingCfd,
    pub(crate) site: String,
    pub(crate) at: f64,
    /// Placement attempts so far (0 = first placement succeeded).
    pub(crate) attempts: u32,
}

/// What the reliability report counts of the CFD tasks.
#[derive(Clone, Copy, Default)]
pub(crate) struct CfdCounts {
    pub(crate) failovers: u32,
    pub(crate) triggered: u32,
    pub(crate) completed: u32,
    pub(crate) recovered: u32,
}

/// Capped exponential backoff between failover placement attempts.
fn backoff_s(attempts: u32) -> f64 {
    (300.0 * 2f64.powi(attempts.min(3) as i32)).min(1800.0)
}

/// The multi-site controller and every CFD task it has not yet finished.
pub(crate) struct Hpc {
    sites: MultiSiteController,
    /// The primary site, named as the loser of a task no site accepted.
    primary: String,
    /// Modelled run time of one paper-scale CFD task (s).
    task_runtime_s: f64,
    in_flight: Vec<CfdTask>,
    retries: Vec<CfdTask>,
    counts: CfdCounts,
}

impl Hpc {
    /// The primary site first, then the failover sites, all busy or all
    /// idle.
    pub(crate) fn new(
        primary: SiteProfile,
        failover: Vec<SiteProfile>,
        busy: bool,
        seed: u64,
        obs: &Obs,
    ) -> Self {
        let name = primary.name.clone();
        let all = std::iter::once(primary).chain(failover);
        let mut sites = MultiSiteController::new(all.map(|s| (s, busy)).collect(), seed);
        let task_runtime_s = CfdPerfModel::notre_dame().total_time_s(CFD_CORES);
        sites.set_est_task_runtime(task_runtime_s);
        sites.set_obs(obs);
        Hpc {
            sites,
            primary: name,
            task_runtime_s,
            in_flight: Vec::new(),
            retries: Vec::new(),
            counts: CfdCounts::default(),
        }
    }

    pub(crate) fn task_runtime_s(&self) -> f64 {
        self.task_runtime_s
    }

    pub(crate) fn counts(&self) -> CfdCounts {
        self.counts
    }

    /// Whether a task is waiting out a failover backoff.
    pub(crate) fn waiting_on_failover(&self) -> bool {
        !self.retries.is_empty()
    }

    /// Take a site down (orphaning every task still running there) or
    /// bring it back.
    pub(crate) fn set_site_down(&mut self, site: &str, down: bool, now: f64) {
        self.sites.set_site_down(site, down);
        if !down {
            return;
        }
        let (orphaned, kept) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|f| f.site == site && f.at > now);
        self.in_flight = kept;
        for f in orphaned {
            self.retries.push(CfdTask {
                at: now + backoff_s(f.attempts),
                attempts: f.attempts + 1,
                ..f
            });
        }
    }

    pub(crate) fn set_site_stalled(&mut self, site: &str, stalled: bool) {
        self.sites.set_site_stalled(site, stalled);
    }

    /// Run the Pilot's Eqs. 1–4 on the triggering data volume and place
    /// the task; with every site offline it goes straight to the
    /// failover queue instead of being dropped.
    pub(crate) fn submit(
        &mut self,
        pending: PendingCfd,
        data_bytes: f64,
        now: f64,
        timeline: &mut Timeline,
    ) {
        self.counts.triggered += 1;
        match self
            .sites
            .submit_task_with_data(1, self.task_runtime_s, data_bytes)
        {
            Some((placement, decision)) => {
                timeline.push(Event::PilotEvaluated {
                    t_s: now,
                    n_required: decision.n_required,
                    n_available: decision.n_available,
                    submitted: decision.submitted.is_some(),
                });
                self.in_flight.push(CfdTask {
                    pending,
                    site: placement.site,
                    at: now + placement.expected_completion_s,
                    attempts: 0,
                });
            }
            None => self.retries.push(CfdTask {
                pending,
                site: self.primary.clone(),
                at: now + backoff_s(0),
                attempts: 1,
            }),
        }
    }

    /// Advance every site to `now`, resubmit the tasks whose backoff has
    /// run out, and hand back the tasks finished by `now`, in finish
    /// order.
    pub(crate) fn advance(&mut self, now: f64, timeline: &mut Timeline) -> Vec<CfdTask> {
        self.sites.advance_to(now);
        let mut waiting = Vec::new();
        for r in std::mem::take(&mut self.retries) {
            if r.at > now {
                waiting.push(r);
                continue;
            }
            let placed = self.sites.submit_task(1, self.task_runtime_s);
            timeline.push(Event::FailoverTriggered {
                t_s: now,
                from_site: r.site.clone(),
                to_site: placed.as_ref().map(|p| p.site.clone()),
            });
            match placed {
                Some(p) => {
                    self.counts.failovers += 1;
                    self.in_flight.push(CfdTask {
                        site: p.site,
                        at: now + p.expected_completion_s,
                        ..r
                    });
                }
                // Every site still unreachable: back off harder.
                None => waiting.push(CfdTask {
                    at: now + backoff_s(r.attempts),
                    attempts: r.attempts + 1,
                    ..r
                }),
            }
        }
        self.retries = waiting;
        let (mut done, running): (Vec<_>, Vec<_>) = std::mem::take(&mut self.in_flight)
            .into_iter()
            .partition(|f| f.at <= now);
        self.in_flight = running;
        done.sort_by(|a, b| a.at.total_cmp(&b.at));
        for f in &done {
            self.counts.completed += 1;
            if f.attempts > 0 {
                self.counts.recovered += 1;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(t: f64) -> PendingCfd {
        PendingCfd {
            trigger_t_s: t,
            bc: BoundaryConditions {
                wind_speed_ms: 3.0,
                wind_dir_deg: 270.0,
                ambient_temp_c: 20.0,
                interior_temp_c: 21.0,
                interior_wind_ms: 1.0,
                rel_humidity: 60.0,
                t_s: t,
            },
            interior: Vec::new(),
            cells: [12, 10, 4],
            steps: 10,
            trace: None,
        }
    }

    #[test]
    fn outage_orphans_the_task_and_retries_back_off_300_600_1200_1800() {
        let mut hpc = Hpc::new(
            SiteProfile::notre_dame_crc(),
            Vec::new(),
            false,
            1,
            &Obs::disabled(),
        );
        let mut timeline = Timeline::default();
        hpc.advance(600.0, &mut timeline);
        hpc.submit(pending(600.0), 9.0 * 1024.0, 600.0, &mut timeline);
        assert_eq!(hpc.in_flight.len(), 1, "placed at the only site");
        // The site dies while the ~7-minute task is still running.
        hpc.set_site_down("ND-CRC", true, 900.0);
        assert!(hpc.in_flight.is_empty() && hpc.waiting_on_failover());
        let mut t = 900.0;
        while t < 6_600.0 {
            t += 300.0;
            assert!(hpc.advance(t, &mut timeline).is_empty());
        }
        let refused: Vec<f64> = timeline
            .events
            .iter()
            .filter_map(|e| match e {
                Event::FailoverTriggered {
                    t_s, to_site: None, ..
                } => Some(*t_s),
                _ => None,
            })
            .collect();
        // Orphaned at 900 s: first retry 300 s later, then each refusal
        // doubles the wait up to the 1800 s cap.
        assert_eq!(refused, vec![1_200.0, 1_800.0, 3_000.0, 4_800.0, 6_600.0]);
        // The site heals; the next retry (1800 s on) places and finishes.
        hpc.set_site_down("ND-CRC", false, t);
        let mut done = Vec::new();
        while done.is_empty() && t < 10_000.0 {
            t += 300.0;
            done = hpc.advance(t, &mut timeline);
        }
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].attempts, 6);
        let c = hpc.counts();
        assert_eq!(
            (c.triggered, c.failovers, c.completed, c.recovered),
            (1, 1, 1, 1)
        );
        assert!(!hpc.waiting_on_failover());
    }
}
