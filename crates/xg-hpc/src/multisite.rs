//! Multi-site pilot placement.
//!
//! §4.3: "future deployments of xGFabric will make use of varying HPC
//! sites in order to exploit the changing availability and performance of
//! different facilities." The [`MultiSiteController`] runs one pilot
//! controller per site, learns each site's queue behaviour through its
//! `crate::predictor::QueueWaitPredictor`, and routes each CFD task to
//! the site with the best expected completion time
//! (predicted wait + runtime / perf factor).

use crate::pilot::{DataDecision, PilotController, PilotControllerConfig};
use crate::site::SiteProfile;

/// One site's stack inside the controller.
struct SiteSlot {
    profile: SiteProfile,
    controller: PilotController,
}

/// A task router across several HPC facilities.
pub struct MultiSiteController {
    sites: Vec<SiteSlot>,
    /// Number of reachable sites, exported as the `hpc.sites.up` gauge so
    /// SLOs can alarm on shrinking capacity (`None` until obs attaches).
    sites_up: Option<std::sync::Arc<xg_obs::Gauge>>,
}

/// Where a task was placed and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Chosen site name.
    pub site: String,
    /// Expected completion time used for the decision (s).
    pub expected_completion_s: f64,
}

impl MultiSiteController {
    /// Build a controller over `(profile, busy)` pairs; busy sites carry
    /// their background load.
    pub fn new(sites: Vec<(SiteProfile, bool)>, seed: u64) -> Self {
        let slots = sites
            .into_iter()
            .enumerate()
            .map(|(i, (profile, busy))| {
                let cluster = if busy {
                    profile.build_cluster(seed ^ i as u64)
                } else {
                    profile.build_idle_cluster()
                };
                let mut cfg = PilotControllerConfig::paper_default(profile.nodes);
                cfg.max_walltime_s = profile.max_walltime_s;
                let controller = PilotController::new(cluster, cfg);
                SiteSlot {
                    profile,
                    controller,
                }
            })
            .collect();
        MultiSiteController {
            sites: slots,
            sites_up: None,
        }
    }

    /// Advance every site to virtual time `t`.
    pub fn advance_to(&mut self, t: f64) {
        for s in &mut self.sites {
            s.controller.advance_to(t);
        }
    }

    /// Expected completion time of a task at a site: available pilot
    /// capacity means no wait; otherwise the learned queue-wait estimate,
    /// plus the runtime scaled by the site's performance factor.
    fn expected_completion_s(&self, site: &SiteSlot, nodes: u32, runtime_s: f64) -> f64 {
        let wait = if site.controller.n_available() >= nodes {
            0.0
        } else {
            site.controller.predictor().predict_s(nodes)
        };
        wait + runtime_s / site.profile.perf_factor
    }

    /// Route a task to the best reachable site and submit it there.
    /// Returns `None` when every site is offline — the caller's failover
    /// layer decides whether to retry later.
    pub fn submit_task(&mut self, nodes: u32, runtime_s: f64) -> Option<Placement> {
        self.submit_task_with_data(nodes, runtime_s, nodes as f64 * 1024.0)
            .map(|(p, _)| p)
    }

    /// Full-fidelity submission: route on expected completion, then run
    /// the chosen site's Eq. (1)–(3) evaluation against the *actual*
    /// triggering data volume (not a per-node placeholder) before handing
    /// it the task. Returns the placement and the pilot decision so the
    /// caller can log Eqs. 1–4 faithfully.
    pub fn submit_task_with_data(
        &mut self,
        nodes: u32,
        runtime_s: f64,
        data_bytes: f64,
    ) -> Option<(Placement, DataDecision)> {
        let best = (0..self.sites.len())
            .filter(|&i| !self.sites[i].controller.is_offline())
            .min_by(|&a, &b| {
                let ea = self.expected_completion_s(&self.sites[a], nodes, runtime_s);
                let eb = self.expected_completion_s(&self.sites[b], nodes, runtime_s);
                ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
            })?;
        let expected = self.expected_completion_s(&self.sites[best], nodes, runtime_s);
        let slot = &mut self.sites[best];
        let decision = slot.controller.on_data(data_bytes);
        slot.controller.submit_task(nodes, runtime_s);
        Some((
            Placement {
                site: slot.profile.name.clone(),
                expected_completion_s: expected,
            },
            decision,
        ))
    }

    /// Attach observability to every site's pilot controller (queue-wait
    /// vs mask-time histograms, pilot/task counters) and export the
    /// `hpc.sites.up` reachable-site gauge.
    pub fn set_obs(&mut self, obs: &xg_obs::Obs) {
        for s in &mut self.sites {
            s.controller.set_obs(obs);
        }
        self.sites_up = obs.registry().map(|reg| reg.gauge("hpc.sites.up"));
        self.update_sites_up();
    }

    fn update_sites_up(&self) {
        if let Some(g) = &self.sites_up {
            g.set(self.reachable_sites() as f64);
        }
    }

    /// Set the estimated application-task runtime (Eq. 4 input) on every
    /// site's controller.
    pub fn set_est_task_runtime(&mut self, runtime_s: f64) {
        for s in &mut self.sites {
            s.controller.config.est_task_runtime_s = runtime_s;
        }
    }

    /// Inject or clear an outage at the named site. Going down returns the
    /// number of tasks lost there (in-flight tasks killed with their
    /// pilots plus tasks accepted but never dispatched) so the caller's
    /// failover layer can resubmit that much work elsewhere.
    pub fn set_site_down(&mut self, name: &str, down: bool) -> usize {
        let Some(slot) = self.sites.iter_mut().find(|s| s.profile.name == name) else {
            return 0;
        };
        let aborted = slot.controller.set_offline(down).len();
        let lost = if down {
            aborted + slot.controller.drain_pending().len()
        } else {
            0
        };
        self.update_sites_up();
        lost
    }

    /// Inject or clear a batch-queue stall at the named site. Returns
    /// whether the site exists.
    pub fn set_site_stalled(&mut self, name: &str, stalled: bool) -> bool {
        match self.sites.iter_mut().find(|s| s.profile.name == name) {
            Some(slot) => {
                slot.controller.set_stalled(stalled);
                true
            }
            None => false,
        }
    }

    /// Number of sites currently reachable.
    pub(crate) fn reachable_sites(&self) -> usize {
        self.sites
            .iter()
            .filter(|s| !s.controller.is_offline())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tasks completed at each site, by name.
    fn completed(ctl: &MultiSiteController) -> Vec<(&str, usize)> {
        ctl.sites
            .iter()
            .map(|s| {
                (
                    s.profile.name.as_str(),
                    s.controller.completed_tasks().len(),
                )
            })
            .collect()
    }

    fn completed_total(ctl: &MultiSiteController) -> usize {
        completed(ctl).iter().map(|&(_, n)| n).sum()
    }

    #[test]
    fn routes_to_idle_site_when_one_is_saturated() {
        // ND busy, ANVIL idle: tasks should overwhelmingly land on ANVIL
        // once ND's pilot capacity is consumed.
        let mut ctl = MultiSiteController::new(
            vec![
                (SiteProfile::notre_dame_crc(), true),
                (SiteProfile::anvil(), false),
            ],
            3,
        );
        ctl.advance_to(1800.0);
        for hour in 1..=6 {
            ctl.advance_to(1800.0 + hour as f64 * 3600.0);
            // Two concurrent tasks per trigger: more than one 1-node pilot
            // can absorb at once.
            ctl.submit_task(1, 420.0).unwrap();
            ctl.submit_task(1, 420.0).unwrap();
        }
        ctl.advance_to(10.0 * 3600.0);
        let stats = completed(&ctl);
        let anvil_done = stats.iter().find(|&&(n, _)| n == "ANVIL").unwrap().1;
        assert!(anvil_done >= 6, "idle site must absorb load: {stats:?}");
        assert_eq!(completed_total(&ctl), 12, "all tasks complete somewhere");
    }

    #[test]
    fn perf_factor_breaks_ties() {
        // Both idle with capacity: the faster site wins the first task.
        let mut ctl = MultiSiteController::new(
            vec![
                (SiteProfile::notre_dame_crc(), false), // perf 1.0
                (SiteProfile::anvil(), false),          // perf 1.05
            ],
            4,
        );
        ctl.advance_to(600.0);
        let p = ctl.submit_task(1, 420.0).unwrap();
        assert_eq!(p.site, "ANVIL", "faster site preferred: {p:?}");
        assert!(p.expected_completion_s < 420.0);
    }

    #[test]
    fn all_sites_busy_still_completes() {
        let mut ctl = MultiSiteController::new(
            vec![
                (SiteProfile::notre_dame_crc(), true),
                (SiteProfile::stampede3(), true),
            ],
            5,
        );
        ctl.advance_to(3600.0);
        ctl.submit_task(1, 420.0).unwrap();
        ctl.advance_to(16.0 * 3600.0);
        assert!(completed_total(&ctl) >= 1, "task must eventually run");
    }

    #[test]
    fn site_outage_reroutes_to_surviving_site() {
        let mut ctl = MultiSiteController::new(
            vec![
                (SiteProfile::notre_dame_crc(), false),
                (SiteProfile::anvil(), false),
            ],
            6,
        );
        ctl.advance_to(600.0);
        // ANVIL (faster) takes the first task, then dies mid-run.
        let p = ctl.submit_task(1, 420.0).unwrap();
        assert_eq!(p.site, "ANVIL");
        let lost = ctl.set_site_down("ANVIL", true);
        assert_eq!(lost, 1, "in-flight task lost to the outage");
        assert_eq!(ctl.reachable_sites(), 1);
        // Resubmission skips the dead site and completes on ND.
        let p2 = ctl.submit_task(1, 420.0).unwrap();
        assert_eq!(p2.site, "ND-CRC");
        ctl.advance_to(4.0 * 3600.0);
        assert_eq!(completed_total(&ctl), 1, "failover task completed");
        // Both sites down: placement is refused, not panicked.
        ctl.set_site_down("ND-CRC", true);
        assert!(ctl.submit_task(1, 420.0).is_none());
    }

    #[test]
    fn sites_up_gauge_follows_outages() {
        let mut ctl = MultiSiteController::new(
            vec![
                (SiteProfile::notre_dame_crc(), false),
                (SiteProfile::anvil(), false),
            ],
            9,
        );
        let obs = xg_obs::Obs::enabled();
        ctl.set_obs(&obs);
        let g = obs.registry().unwrap().gauge("hpc.sites.up");
        assert_eq!(g.get(), 2.0);
        ctl.set_site_down("ANVIL", true);
        assert_eq!(g.get(), 1.0);
        ctl.set_site_down("ND-CRC", true);
        assert_eq!(g.get(), 0.0);
        ctl.set_site_down("ANVIL", false);
        assert_eq!(g.get(), 1.0);
    }
}
