//! Queue-wait prediction and adaptive pilot planning (the paper's second
//! future-work item, §5: "develop the Pilot infrastructure to tune
//! resource allocations in order to better avoid batch queueing delays").
//!
//! [`QueueWaitPredictor`] learns per-size queue-wait estimates from the
//! waits the pilot controller observes (the signal a real deployment gets
//! from `squeue`/`qstat` history). [`AdaptivePilotPlanner`] turns the estimate
//! into a submission lead time: submit the next pilot early enough that it
//! activates by the time the current one expires — proactive behaviour
//! whose idle cost adapts to the actual queue, rather than a fixed warm
//! pool.

/// Node-count buckets for wait statistics (1, 2-4, 5-16, 17+).
fn bucket(nodes: u32) -> usize {
    match nodes {
        0..=1 => 0,
        2..=4 => 1,
        5..=16 => 2,
        _ => 3,
    }
}

/// EWMA queue-wait estimator per job-size bucket.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueueWaitPredictor {
    /// Smoothing factor per observation.
    pub alpha: f64,
    estimates_s: [f64; 4],
    pub(crate) observations: [u64; 4],
}

impl QueueWaitPredictor {
    /// A predictor with the given smoothing factor.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        QueueWaitPredictor {
            alpha,
            estimates_s: [0.0; 4],
            observations: [0; 4],
        }
    }

    /// Record an explicit `(nodes, wait)` observation.
    pub(crate) fn observe_wait(&mut self, nodes: u32, wait_s: f64) {
        self.update(bucket(nodes), wait_s);
    }

    fn update(&mut self, b: usize, wait_s: f64) {
        let n = &mut self.observations[b];
        if *n == 0 {
            self.estimates_s[b] = wait_s;
        } else {
            self.estimates_s[b] = (1.0 - self.alpha) * self.estimates_s[b] + self.alpha * wait_s;
        }
        *n += 1;
    }

    /// Predicted queue wait for a job of `nodes` nodes. Falls back to the
    /// nearest informed bucket, then to zero (an optimistic cold start).
    pub(crate) fn predict_s(&self, nodes: u32) -> f64 {
        let b = bucket(nodes);
        if self.observations[b] > 0 {
            return self.estimates_s[b];
        }
        // Nearest informed bucket.
        for d in 1..4 {
            for cand in [b.checked_sub(d), Some(b + d)].into_iter().flatten() {
                if cand < 4 && self.observations[cand] > 0 {
                    return self.estimates_s[cand];
                }
            }
        }
        0.0
    }
}

/// Adaptive pilot-submission planner.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdaptivePilotPlanner {
    /// Safety factor on the predicted wait (submit this much earlier).
    pub safety: f64,
    /// Ceiling on the lead time (never hold more than this much headroom).
    pub max_lead_s: f64,
}

impl Default for AdaptivePilotPlanner {
    fn default() -> Self {
        AdaptivePilotPlanner {
            safety: 1.5,
            max_lead_s: 6.0 * 3600.0,
        }
    }
}

impl AdaptivePilotPlanner {
    /// How long before an anticipated need the next pilot should be
    /// submitted, given the predictor's current estimate.
    pub(crate) fn lead_time_s(&self, predictor: &QueueWaitPredictor, nodes: u32) -> f64 {
        (predictor.predict_s(nodes) * self.safety).min(self.max_lead_s)
    }

    /// Decide whether to submit the replacement pilot now: `true` when the
    /// current pilot expires within the required lead time.
    pub(crate) fn should_resubmit(
        &self,
        predictor: &QueueWaitPredictor,
        nodes: u32,
        now_s: f64,
        current_expires_s: f64,
    ) -> bool {
        current_expires_s - now_s <= self.lead_time_s(predictor, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_predicts_zero() {
        let p = QueueWaitPredictor::new(0.3);
        assert_eq!(p.predict_s(1), 0.0);
        assert_eq!(p.observations.iter().sum::<u64>(), 0);
    }

    #[test]
    fn learns_from_explicit_observations() {
        let mut p = QueueWaitPredictor::new(0.5);
        p.observe_wait(1, 100.0);
        assert_eq!(p.predict_s(1), 100.0, "first observation seeds estimate");
        p.observe_wait(1, 300.0);
        assert!((p.predict_s(1) - 200.0).abs() < 1e-9, "EWMA");
    }

    #[test]
    fn bucket_fallback() {
        let mut p = QueueWaitPredictor::new(0.5);
        p.observe_wait(8, 500.0); // bucket 2
                                  // Unseen bucket 0 falls back to the nearest informed one.
        assert_eq!(p.predict_s(1), 500.0);
        assert_eq!(p.predict_s(64), 500.0);
    }

    #[test]
    fn planner_lead_scales_with_predicted_wait() {
        let mut p = QueueWaitPredictor::new(1.0);
        let planner = AdaptivePilotPlanner::default();
        p.observe_wait(1, 0.0);
        assert_eq!(planner.lead_time_s(&p, 1), 0.0, "idle queue: no lead");
        p.observe_wait(1, 2.0 * 3600.0);
        let lead = planner.lead_time_s(&p, 1);
        assert!((lead - 3.0 * 3600.0).abs() < 1e-6, "1.5x safety: {lead}");
        // Ceiling.
        p.observe_wait(1, 100.0 * 3600.0);
        assert_eq!(planner.lead_time_s(&p, 1), planner.max_lead_s);
    }

    #[test]
    fn resubmission_trigger() {
        let mut p = QueueWaitPredictor::new(1.0);
        p.observe_wait(1, 1800.0);
        let planner = AdaptivePilotPlanner::default();
        // Pilot expires in 4 h, lead is 45 min: no resubmit yet.
        assert!(!planner.should_resubmit(&p, 1, 0.0, 4.0 * 3600.0));
        // Pilot expires in 30 min < 45 min lead: resubmit now.
        assert!(planner.should_resubmit(&p, 1, 0.0, 1800.0));
    }
}
