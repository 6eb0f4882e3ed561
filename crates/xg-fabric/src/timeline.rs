//! End-to-end latency accounting (§4.4).
//!
//! The paper's budget: telemetry every 300 s transferring in ~10² ms; a
//! 30-minute change-detection duty cycle; ~7 minutes of CFD on 64 cores;
//! so each simulation is "valid for a minimum of 23 minutes" until the
//! next condition change. [`Timeline`] records every event of an
//! orchestrated run so the `e2e_timeline` bench can print that budget.

/// One orchestration event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A telemetry cycle was shipped to the repository.
    TelemetryShipped {
        /// Wall-clock time (s).
        t_s: f64,
        /// Transfer latency for the whole cycle (ms).
        latency_ms: f64,
        /// Records shipped.
        records: usize,
    },
    /// The 30-minute change detector ran.
    ChangeChecked {
        /// Wall-clock time (s).
        t_s: f64,
        /// Whether a change was declared.
        changed: bool,
        /// Votes from the three tests.
        votes: u8,
    },
    /// The pilot controller evaluated Eqs. (1)–(3).
    PilotEvaluated {
        /// Wall-clock time (s).
        t_s: f64,
        /// Eq. 1 result.
        n_required: u32,
        /// Eq. 2 result.
        n_available: u32,
        /// Whether a new pilot was submitted.
        submitted: bool,
    },
    /// A CFD simulation completed.
    CfdCompleted {
        /// Wall-clock time the run finished (s).
        t_s: f64,
        /// Modelled 64-core runtime at paper scale (s).
        model_runtime_s: f64,
        /// Predicted mean interior wind (m/s).
        predicted_interior_wind: f64,
        /// Validity window until the next possible trigger (s).
        validity_s: f64,
    },
    /// The digital twin compared prediction with measurement.
    TwinCompared {
        /// Wall-clock time (s).
        t_s: f64,
        /// Max residual (m/s).
        max_residual_ms: f64,
        /// Whether a breach is suspected.
        breach_suspected: bool,
    },
    /// A CFD result summary was delivered back to the field node for the
    /// site operator (the "vice versa" path of §3.1).
    ResultsReturned {
        /// Wall-clock time (s).
        t_s: f64,
        /// Downlink transfer latency (ms).
        latency_ms: f64,
    },
    /// The intervention advisor issued a recommendation from the CFD
    /// result (frost protection, spray window/hold).
    AdvisoryIssued {
        /// Wall-clock time (s).
        t_s: f64,
        /// Human-readable recommendation.
        summary: String,
    },
    /// The robot was dispatched to a suspect region.
    RobotDispatched {
        /// Wall-clock time (s).
        t_s: f64,
        /// Mission duration (s).
        mission_s: f64,
        /// Whether the breach was visually confirmed.
        confirmed: bool,
    },
    /// An injected fault changed state.
    FaultChanged {
        /// Wall-clock time (s).
        t_s: f64,
        /// Human-readable fault description.
        fault: String,
        /// `true` = fault became active, `false` = cleared.
        active: bool,
    },
    /// The graceful-degradation ladder moved to a new level.
    DegradationChanged {
        /// Wall-clock time (s).
        t_s: f64,
        /// 0 = nominal, 1 = reduced CFD resolution, 2 = also skip
        /// non-critical results-return.
        level: u8,
    },
    /// The SLO watchdog declared an objective breached (after hysteresis).
    SloBreached {
        /// Wall-clock time (s).
        t_s: f64,
        /// The breached objective's name, e.g. `p99(fabric.cycle.transfer_ms) < 5000`.
        slo: String,
        /// The offending windowed value.
        value: f64,
        /// The objective's threshold.
        threshold: f64,
    },
    /// A previously breached objective recovered (after hysteresis).
    SloRecovered {
        /// Wall-clock time (s).
        t_s: f64,
        /// The recovered objective's name.
        slo: String,
        /// The windowed value at recovery.
        value: f64,
        /// The objective's threshold.
        threshold: f64,
    },
    /// The per-cell RAN probe batch ran (one event per report cycle).
    RanProbed {
        /// Wall-clock time (s).
        t_s: f64,
        /// Cells probed.
        cells: usize,
        /// The cell with the lowest measured goodput this batch.
        worst_cell: String,
        /// That cell's mean probe goodput (Mbps).
        worst_goodput_mbps: f64,
    },
    /// The near-RT RIC applied a control action to the live RAN.
    RicAction {
        /// Wall-clock time (s).
        t_s: f64,
        /// Name of the xApp that won the action's control knob.
        xapp: String,
        /// Human-readable action description
        /// (`xg_ric::RicAction::describe`).
        action: String,
    },
    /// A lost CFD task was resubmitted to another site.
    FailoverTriggered {
        /// Wall-clock time (s).
        t_s: f64,
        /// Site that lost the task.
        from_site: String,
        /// Site that accepted the resubmission (`None` while every site
        /// is unreachable and the task waits in backoff).
        to_site: Option<String>,
    },
}

/// The event log of one orchestrated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Events in time order.
    pub events: Vec<Event>,
}

impl Timeline {
    /// Record an event.
    pub(crate) fn push(&mut self, e: Event) {
        self.events.push(e);
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Telemetry transfer latencies (ms).
    pub fn telemetry_latencies_ms(&self) -> Vec<f64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::TelemetryShipped { latency_ms, .. } => Some(*latency_ms),
                _ => None,
            })
            .collect()
    }

    /// Number of CFD runs triggered.
    pub fn cfd_runs(&self) -> usize {
        self.count(|e| matches!(e, Event::CfdCompleted { .. }))
    }

    /// Number of change checks that declared a change.
    pub fn changes_detected(&self) -> usize {
        self.count(|e| matches!(e, Event::ChangeChecked { changed: true, .. }))
    }

    /// Number of RIC control actions applied.
    pub fn ric_actions(&self) -> usize {
        self.count(|e| matches!(e, Event::RicAction { .. }))
    }

    /// `(t_s, xapp)` of the first RIC action, if any was applied.
    pub fn first_ric_action(&self) -> Option<(f64, &str)> {
        self.events.iter().find_map(|e| match e {
            Event::RicAction { t_s, xapp, .. } => Some((*t_s, xapp.as_str())),
            _ => None,
        })
    }

    /// Number of fault activations recorded.
    pub fn fault_activations(&self) -> usize {
        self.count(|e| matches!(e, Event::FaultChanged { active: true, .. }))
    }

    /// Number of SLO recovery events.
    pub fn slo_recoveries(&self) -> usize {
        self.count(|e| matches!(e, Event::SloRecovered { .. }))
    }

    /// True if any breach was confirmed by the robot.
    pub fn breach_confirmed(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e,
                Event::RobotDispatched {
                    confirmed: true,
                    ..
                }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let mut t = Timeline::default();
        t.push(Event::TelemetryShipped {
            t_s: 300.0,
            latency_ms: 950.0,
            records: 9,
        });
        t.push(Event::ChangeChecked {
            t_s: 1800.0,
            changed: true,
            votes: 3,
        });
        t.push(Event::CfdCompleted {
            t_s: 2220.0,
            model_runtime_s: 420.0,
            predicted_interior_wind: 1.2,
            validity_s: 1380.0,
        });
        t.push(Event::RobotDispatched {
            t_s: 2400.0,
            mission_s: 200.0,
            confirmed: true,
        });
        assert_eq!(t.telemetry_latencies_ms(), vec![950.0]);
        assert_eq!(t.cfd_runs(), 1);
        assert_eq!(t.changes_detected(), 1);
        assert!(t.breach_confirmed());
        assert_eq!(t.count(|_| true), 4);
    }
}
