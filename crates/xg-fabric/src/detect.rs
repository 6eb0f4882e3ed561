//! The 30-minute change-detection duty cycle (§3.7).
//!
//! Every [`DETECT_EVERY_REPORTS`]-th report cycle the two most recent
//! 30-minute windows *of wind data that reached the repository* run
//! through the deployed Laminar change-detection graph. A partition that
//! starves the repository defers the check rather than re-reading stale
//! windows, and the detection that finally runs is charged the wait.

use crate::error::FabricError;
use crate::pipeline::WIND_LOG;
use crate::timeline::{Event, Timeline};
use std::sync::Arc;
use xg_cspot::node::CspotNode;
use xg_laminar::bridge::latest_windows;
use xg_laminar::change::{build_change_graph, ChangeDetector};
use xg_laminar::runtime::LaminarRuntime;
use xg_laminar::value::Value;
use xg_obs::{SpanId, TraceId, Tracer};

/// Reports per change-detection duty cycle (paper: 6 = 30 min).
pub(crate) const DETECT_EVERY_REPORTS: usize = 6;

/// A detection that declared a statistically measurable change.
pub(crate) struct Change {
    votes: u8,
    /// How long the duty cycle sat deferred before this check ran (s).
    inflation_s: f64,
}

impl Change {
    /// Open the closed-loop trace of the CFD run this change triggers:
    /// the transfer that carried the triggering window, then the
    /// detection that fired (the deferral is its duration).
    pub(crate) fn open_trace(
        &self,
        tracer: &Tracer,
        now_s: f64,
        transfer_ms: f64,
        records: usize,
    ) -> (TraceId, SpanId) {
        let trace = tracer.new_trace();
        let transfer_end_s = now_s + transfer_ms / 1e3;
        let transfer = tracer.record_sim_s(
            trace,
            None,
            "telemetry.transfer",
            now_s,
            transfer_end_s,
            vec![("records".into(), records.to_string())],
        );
        let detect = tracer.record_sim_s(
            trace,
            Some(transfer),
            "change.detection",
            transfer_end_s,
            transfer_end_s + self.inflation_s,
            vec![
                ("votes".into(), self.votes.to_string()),
                ("deferred_s".into(), format!("{:.0}", self.inflation_s)),
            ],
        );
        (trace, detect)
    }
}

/// The Laminar program, its duty-cycle clock and the deferral clock.
pub(crate) struct Detect {
    /// The §3.7 change-detection program, deployed as a real Laminar
    /// dataflow on the repository's CSPOT node.
    laminar: LaminarRuntime,
    epoch: u64,
    reports: usize,
    /// When a duty cycle was first deferred for lack of fresh repository
    /// data; cleared by the detection that finally runs.
    deferred_since: Option<f64>,
    wind_seq_at_last_detect: u64,
    detections: u32,
    inflation_sum_s: f64,
}

impl Detect {
    pub(crate) fn deploy(repo: Arc<CspotNode>) -> Result<Self, FabricError> {
        let graph = build_change_graph("cups_change", ChangeDetector::default())?;
        Ok(Detect {
            laminar: LaminarRuntime::deploy(graph, repo)?,
            epoch: 0,
            reports: 0,
            deferred_since: None,
            wind_seq_at_last_detect: 0,
            detections: 0,
            inflation_sum_s: 0.0,
        })
    }

    /// Change-detection evaluations performed.
    pub(crate) fn detections(&self) -> u32 {
        self.detections
    }

    /// Mean deferral charged to a detection (s).
    pub(crate) fn mean_inflation_s(&self) -> f64 {
        self.inflation_sum_s / f64::from(self.detections.max(1))
    }

    /// Count one report cycle and, on a duty-cycle boundary, check the
    /// repository for a change. The check runs once six fresh wind
    /// samples have arrived since the last one; otherwise, with
    /// telemetry still parked at the gateway (`backlog`), the deferral
    /// clock starts.
    pub(crate) fn cycle(
        &mut self,
        now_s: f64,
        repo: &CspotNode,
        backlog: usize,
        timeline: &mut Timeline,
    ) -> Result<Option<Change>, FabricError> {
        self.reports += 1;
        if !self.reports.is_multiple_of(DETECT_EVERY_REPORTS) {
            return Ok(None);
        }
        let detector = ChangeDetector::default();
        let repo_seq = repo.latest_seq(WIND_LOG).ok().flatten().unwrap_or(0);
        if repo_seq < 2 * detector.window as u64
            || repo_seq < self.wind_seq_at_last_detect + DETECT_EVERY_REPORTS as u64
        {
            if backlog > 0 && self.deferred_since.is_none() {
                self.deferred_since = Some(now_s);
            }
            return Ok(None);
        }
        let Some((prev, recent)) = latest_windows(repo, WIND_LOG, detector.window)? else {
            return Ok(None);
        };
        // Votes are recomputed for the timeline detail (the Laminar node
        // returns only the arbitration outcome, as in the paper).
        let vote = detector.evaluate_windows(&prev, &recent);
        self.epoch += 1;
        let epoch = self.epoch;
        self.laminar
            .inject("prev_window", epoch, Value::F64Vec(prev))?;
        self.laminar
            .inject("recent_window", epoch, Value::F64Vec(recent))?;
        let changed = self
            .laminar
            .read("detect", epoch)?
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        debug_check_agree(changed, vote.changed);
        self.detections += 1;
        self.wind_seq_at_last_detect = repo_seq;
        let inflation_s = self
            .deferred_since
            .take()
            .map_or(0.0, |since| (now_s - since).max(0.0));
        self.inflation_sum_s += inflation_s;
        timeline.push(Event::ChangeChecked {
            t_s: now_s,
            changed,
            votes: vote.votes,
        });
        Ok(changed.then_some(Change {
            votes: vote.votes,
            inflation_s,
        }))
    }
}

/// Debug builds check that the Laminar and direct detectors agree;
/// release builds compile the check out.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug-build check that the Laminar and direct detectors agree; release builds compile it out"
)]
fn debug_check_agree(laminar: bool, direct: bool) {
    debug_assert_eq!(laminar, direct, "Laminar and direct paths agree");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::LOG_HISTORY;

    #[test]
    fn the_deferral_clock_charges_its_wait_to_the_detection_that_runs() {
        let repo = Arc::new(CspotNode::in_memory("UCSB"));
        let wind = repo.open_log(WIND_LOG, 8, LOG_HISTORY).unwrap();
        let mut detect = Detect::deploy(Arc::clone(&repo)).unwrap();
        let mut timeline = Timeline::default();
        let mut cycle = |detect: &mut Detect, t: f64, backlog: usize| {
            detect.cycle(t, &repo, backlog, &mut timeline).unwrap()
        };
        let sample = |k: usize| (3.0 + 0.1 * (k % 3) as f64).to_le_bytes();
        // Twelve samples reach the repository over the first hour; the
        // duty cycle at 30 min has too few, with nothing parked.
        for k in 1..=12 {
            wind.append(&sample(k)).unwrap();
            cycle(&mut detect, 300.0 * k as f64, 0);
        }
        assert_eq!(detect.detections(), 1, "the 60-minute check ran");
        assert_eq!(detect.mean_inflation_s(), 0.0, "on time");
        // A partition parks the next hour's telemetry: the 90- and
        // 120-minute checks find no fresh data, and the clock starts at
        // the first of them.
        for k in 13..=24 {
            cycle(&mut detect, 300.0 * k as f64, 9);
        }
        assert_eq!(detect.detections(), 1);
        // The heal drains the backlog at once, but the check waits for
        // its duty-cycle slot at 150 min: 60 minutes after 90.
        for k in 13..=24 {
            wind.append(&sample(k)).unwrap();
        }
        for k in 25..=30 {
            cycle(&mut detect, 300.0 * k as f64, 0);
        }
        assert_eq!(detect.detections(), 2);
        assert_eq!(detect.inflation_sum_s, 3_600.0);
        assert_eq!(detect.mean_inflation_s(), 1_800.0);
        assert!(detect.deferred_since.is_none(), "the clock is cleared");
    }
}
