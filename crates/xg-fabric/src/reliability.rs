//! Per-run reliability accounting.
//!
//! The paper's §3.1 claim is that the fabric turns infrastructure failure
//! into *delay*, never into loss. [`ReliabilityReport`] quantifies that
//! for one orchestrated run: how much of the horizon the 5G path was
//! actually usable, what happened to every telemetry record, how much the
//! 30-minute detection duty cycle slipped, and how the HPC failover layer
//! behaved.

use std::fmt;

/// Impairment episodes: each runs from the first cycle the loop is
/// visibly hurt until everything is clean again.
#[derive(Default)]
pub(crate) struct Impairment {
    since: Option<f64>,
    episodes: u32,
    total_s: f64,
}

impl Impairment {
    pub(crate) fn track(&mut self, now_s: f64, impaired: bool) {
        match (self.since, impaired) {
            (None, true) => self.since = Some(now_s),
            (Some(start), false) => {
                self.episodes += 1;
                self.total_s += now_s - start;
                self.since = None;
            }
            _ => {}
        }
    }

    /// Episodes so far and their mean length (s), closing any open one
    /// at `now_s`.
    pub(crate) fn closed_at(&self, now_s: f64) -> (u32, f64) {
        let (mut episodes, mut total_s) = (self.episodes, self.total_s);
        if let Some(start) = self.since {
            episodes += 1;
            total_s += now_s - start;
        }
        (episodes, total_s / f64::from(episodes.max(1)))
    }
}

/// Reliability summary of one orchestrated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityReport {
    /// Virtual-time horizon covered (s).
    pub horizon_s: f64,
    /// Fraction of the horizon during which the 5G uplink was not
    /// partitioned (exact accounting from the fault plan; 1.0 when the
    /// plan schedules no partitions).
    pub availability_experienced: f64,
    /// Telemetry records accepted into the field gateway buffer.
    pub records_buffered: u64,
    /// Records dropped because the bounded buffer was full (the only way
    /// the fabric loses telemetry).
    pub records_dropped: u64,
    /// Records delivered to the repository.
    pub records_delivered: u64,
    /// Largest gateway backlog observed (records).
    pub max_backlog: usize,
    /// Records still parked in the gateway at the end of the run.
    pub final_backlog: usize,
    /// Change-detection evaluations performed.
    pub detections: u32,
    /// Mean extra delay of a detection beyond its nominal duty-cycle slot,
    /// caused by telemetry arriving late (s).
    pub mean_detection_inflation_s: f64,
    /// CFD tasks resubmitted to another site after a loss or refusal.
    pub failovers: u32,
    /// CFD runs triggered by the change detector.
    pub cfd_triggered: u32,
    /// CFD runs that completed.
    pub cfd_completed: u32,
    /// Completed CFD runs that needed at least one failover first.
    pub cfd_recovered: u32,
    /// Report cycles spent at a degradation level above nominal.
    pub degraded_cycles: u32,
    /// Distinct impairment episodes (route down, backlog pending, or a
    /// CFD awaiting failover).
    pub impairment_episodes: u32,
    /// Mean time to recover the loop from an impairment episode (s) —
    /// from first impairment until backlog, route, and failover queue are
    /// all clean again.
    pub loop_mttr_s: f64,
}

impl ReliabilityReport {
    /// True when no telemetry was lost (the §3.1 guarantee held).
    pub fn lossless(&self) -> bool {
        self.records_dropped == 0
            && self.records_delivered + self.final_backlog as u64 == self.records_buffered
    }
}

impl fmt::Display for ReliabilityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "reliability over {:.0} s:", self.horizon_s)?;
        writeln!(
            f,
            "  5G availability experienced  {:6.2}%",
            self.availability_experienced * 100.0
        )?;
        writeln!(
            f,
            "  telemetry buffered/delivered {}/{} (dropped {}, final backlog {}, max backlog {})",
            self.records_buffered,
            self.records_delivered,
            self.records_dropped,
            self.final_backlog,
            self.max_backlog
        )?;
        writeln!(
            f,
            "  detections                   {} (mean inflation {:.0} s)",
            self.detections, self.mean_detection_inflation_s
        )?;
        writeln!(
            f,
            "  cfd triggered/completed      {}/{} (failovers {}, recovered {})",
            self.cfd_triggered, self.cfd_completed, self.failovers, self.cfd_recovered
        )?;
        write!(
            f,
            "  degraded cycles              {} ({} impairment episodes, loop MTTR {:.0} s)",
            self.degraded_cycles, self.impairment_episodes, self.loop_mttr_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ReliabilityReport {
        ReliabilityReport {
            horizon_s: 86_400.0,
            availability_experienced: 0.97,
            records_buffered: 2592,
            records_dropped: 0,
            records_delivered: 2580,
            max_backlog: 40,
            final_backlog: 12,
            detections: 48,
            mean_detection_inflation_s: 120.0,
            failovers: 1,
            cfd_triggered: 3,
            cfd_completed: 3,
            cfd_recovered: 1,
            degraded_cycles: 9,
            impairment_episodes: 4,
            loop_mttr_s: 660.0,
        }
    }

    #[test]
    fn lossless_accounts_for_backlog() {
        let mut r = sample();
        assert!(r.lossless());
        r.records_dropped = 1;
        assert!(!r.lossless());
        r.records_dropped = 0;
        r.records_delivered = 2500;
        assert!(!r.lossless(), "unaccounted records are loss");
    }

    #[test]
    fn display_mentions_every_headline_number() {
        let s = sample().to_string();
        for needle in ["97.00%", "2592", "2580", "failovers 1", "MTTR 660"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
