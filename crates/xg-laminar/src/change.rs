//! The xGFabric telemetry change-detection program.
//!
//! §4.2: "a Laminar program reads the most recent 6 telemetry values
//! (covering the most recent 30 minutes) and compares them to the previous
//! 30-minute period using three different tests of statistical difference.
//! If conditions have changed in a way that is statistically measurable
//! under the assumptions of the tests, it generates an alert indicating
//! that a new CFD simulation is needed."
//!
//! Two entry points are provided:
//!
//! * [`ChangeDetector`] — the pure sliding-window evaluator, used directly
//!   by the ablation study and the examples; `xg-fabric` reads its
//!   settings and runs the graph below.
//! * [`build_change_graph`] — the same battery expressed as a Laminar
//!   dataflow graph (two `F64Vec` sources → three-test node → `I64` vote
//!   count), demonstrating that the detector is an ordinary stateless
//!   Laminar node. The reader arbitrates the count against
//!   [`ChangeDetector::votes_needed`].

use crate::error::Result;
use crate::graph::{Graph, GraphBuilder};
use crate::ops;
use crate::stats::{vote_change, ChangeVote};
use crate::value::TypeTag;

/// Sliding-window change detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeDetector {
    /// Samples per window (paper: 6 = 30 min at 5-min reporting).
    pub window: usize,
    /// Significance level of each test.
    pub alpha: f64,
    /// Votes required to declare a change (paper arbitration default: 2).
    pub votes_needed: u8,
}

impl Default for ChangeDetector {
    fn default() -> Self {
        ChangeDetector {
            window: 6,
            alpha: 0.05,
            votes_needed: 2,
        }
    }
}

impl ChangeDetector {
    /// Evaluate the most recent `2 * window` samples of `history`.
    ///
    /// Returns `None` when there is not yet enough history. The last
    /// `window` samples form the "recent" period and the `window` before
    /// them the "previous" period.
    pub fn evaluate(&self, history: &[f64]) -> Option<ChangeVote> {
        let need = 2 * self.window;
        if history.len() < need {
            return None;
        }
        let tail = &history[history.len() - need..];
        let (prev, recent) = tail.split_at(self.window);
        Some(vote_change(prev, recent, self.alpha, self.votes_needed))
    }

    /// Evaluate explicit previous/recent windows.
    pub fn evaluate_windows(&self, prev: &[f64], recent: &[f64]) -> ChangeVote {
        vote_change(prev, recent, self.alpha, self.votes_needed)
    }
}

/// Build the change-detection Laminar graph.
///
/// Sources `prev_window` and `recent_window` (both `F64Vec`) feed a
/// `detect` node whose `I64` output is the number of tests that reject at
/// `detector.alpha`; a change is at least `detector.votes_needed` of them.
/// Inject one epoch per 30-minute duty cycle.
pub fn build_change_graph(program: &str, detector: ChangeDetector) -> Result<Graph> {
    let mut g = GraphBuilder::new(program);
    let prev = g.source("prev_window", TypeTag::F64Vec)?;
    let recent = g.source("recent_window", TypeTag::F64Vec)?;
    let detect = g.op(
        "detect",
        vec![TypeTag::F64Vec, TypeTag::F64Vec],
        TypeTag::I64,
        ops::change_detect(detector.alpha),
    )?;
    g.connect(prev, detect, 0);
    g.connect(recent, detect, 1);
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::LaminarRuntime;
    use crate::value::Value;
    use std::sync::Arc;
    use xg_cspot::node::CspotNode;

    #[test]
    fn insufficient_history_returns_none() {
        let d = ChangeDetector::default();
        assert!(d.evaluate(&[1.0; 11]).is_none());
        assert!(d.evaluate(&[1.0; 12]).is_some());
    }

    #[test]
    fn stable_conditions_do_not_alert() {
        let d = ChangeDetector::default();
        let history = [
            3.0, 3.2, 2.9, 3.1, 3.05, 2.95, 3.1, 2.9, 3.0, 3.15, 2.85, 3.05,
        ];
        let v = d.evaluate(&history).unwrap();
        assert!(!v.changed);
    }

    #[test]
    fn wind_shift_alerts() {
        let d = ChangeDetector::default();
        // 30 minutes calm, then a front arrives.
        let mut history = vec![2.0, 2.1, 1.9, 2.05, 1.95, 2.0];
        history.extend([7.0, 7.2, 6.8, 7.1, 6.9, 7.05]);
        let v = d.evaluate(&history).unwrap();
        assert!(v.changed);
        assert!(v.votes >= 2);
    }

    #[test]
    fn uses_only_most_recent_two_windows() {
        let d = ChangeDetector::default();
        // Old shift far in the past, recent data stable: no alert.
        let mut history = vec![9.0; 6];
        history.extend([3.0, 3.1, 2.9, 3.05, 2.95, 3.0]);
        history.extend([3.02, 3.08, 2.92, 3.06, 2.97, 3.01]);
        let v = d.evaluate(&history).unwrap();
        assert!(!v.changed, "old history must not leak into the test");
    }

    #[test]
    fn laminar_graph_detects_change_end_to_end() {
        let g = build_change_graph("cups_change", ChangeDetector::default()).unwrap();
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        let rt = LaminarRuntime::deploy(g, node).unwrap();
        // Epoch 1: stable.
        rt.inject(
            "prev_window",
            1,
            Value::F64Vec(vec![3.0, 3.1, 2.9, 3.05, 2.95, 3.0]),
        )
        .unwrap();
        rt.inject(
            "recent_window",
            1,
            Value::F64Vec(vec![3.02, 3.08, 2.92, 3.06, 2.97, 3.01]),
        )
        .unwrap();
        assert_eq!(rt.read("detect", 1).unwrap(), Some(Value::I64(0)));
        // Epoch 2: wind front.
        rt.inject(
            "prev_window",
            2,
            Value::F64Vec(vec![3.0, 3.1, 2.9, 3.05, 2.95, 3.0]),
        )
        .unwrap();
        rt.inject(
            "recent_window",
            2,
            Value::F64Vec(vec![8.0, 8.2, 7.8, 8.1, 7.9, 8.05]),
        )
        .unwrap();
        assert_eq!(rt.read("detect", 2).unwrap(), Some(Value::I64(3)));
    }

    #[test]
    fn vote_threshold_one_is_most_sensitive() {
        let strict = ChangeDetector {
            votes_needed: 3,
            ..Default::default()
        };
        let lenient = ChangeDetector {
            votes_needed: 1,
            ..Default::default()
        };
        let prev = [2.0, 2.1, 1.9, 2.05, 1.95, 2.0];
        let recent = [2.6, 2.7, 2.5, 2.65, 2.55, 2.6];
        let sv = strict.evaluate_windows(&prev, &recent);
        let lv = lenient.evaluate_windows(&prev, &recent);
        assert_eq!(sv.votes, lv.votes, "same data, same votes");
        assert!(lv.changed || !sv.changed, "strict implies lenient");
    }
}
