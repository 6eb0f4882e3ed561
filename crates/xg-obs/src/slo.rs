//! Declarative service-level objectives over sliding windows.
//!
//! The paper's §4.4 budget is only a *claim* until the running fabric can
//! notice it being violated. An [`SloSpec`] states one objective against a
//! windowed statistic — `p99(cycle.transfer_ms) < 5000`,
//! `delta(gateway.dropped) <= 0` — and the
//! [`SloWatchdog`] evaluates the whole set once per tick against a
//! [`WindowView`], applying hysteresis (K consecutive bad ticks to
//! breach, M consecutive good ticks to recover) so a single noisy
//! interval cannot flap the degradation ladder. Breach and recovery
//! surface as [`SloEvent`]s carrying the offending value and the window
//! bounds, ready for the flight recorder and the orchestrator.

use crate::window::WindowView;
use std::fmt;

/// Which windowed statistic an objective reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloStat {
    /// 99th percentile of a windowed histogram.
    P99,
    /// Counter increments over the window.
    Delta,
}

impl SloStat {
    fn label(self) -> &'static str {
        match self {
            SloStat::P99 => "p99",
            SloStat::Delta => "delta",
        }
    }
}

/// The comparison an objective must satisfy to be healthy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloOp {
    /// Healthy while `stat < threshold`.
    Lt,
    /// Healthy while `stat <= threshold`.
    Le,
    /// Healthy while `stat > threshold`.
    Gt,
}

impl SloOp {
    fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            SloOp::Lt => value < threshold,
            SloOp::Le => value <= threshold,
            SloOp::Gt => value > threshold,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            SloOp::Lt => "<",
            SloOp::Le => "<=",
            SloOp::Gt => ">",
        }
    }
}

/// One declarative objective.
#[derive(Clone, Debug)]
pub struct SloSpec {
    /// Stable objective name, used in events and reports.
    pub name: String,
    /// Metric the statistic is read from.
    pub metric: String,
    /// The windowed statistic.
    pub stat: SloStat,
    /// Healthy-side comparison.
    pub op: SloOp,
    /// Comparison threshold.
    pub threshold: f64,
    /// Histogram stats need at least this many windowed samples before
    /// the objective is judged (prevents cold-start false breaches).
    pub min_count: u64,
    /// Degradation-ladder level a breach of this objective requests
    /// (0 = observe only).
    pub degrade_to: u8,
}

impl SloSpec {
    /// An objective named after its own expression.
    pub fn new(metric: &str, stat: SloStat, op: SloOp, threshold: f64) -> Self {
        SloSpec {
            name: format!("{}({}) {} {}", stat.label(), metric, op.symbol(), threshold),
            metric: metric.to_string(),
            stat,
            op,
            threshold,
            min_count: 1,
            degrade_to: 0,
        }
    }

    /// Require at least `n` windowed samples before judging.
    pub fn min_count(mut self, n: u64) -> Self {
        self.min_count = n;
        self
    }

    /// Request this degradation-ladder level while breached.
    pub fn degrade_to(mut self, level: u8) -> Self {
        self.degrade_to = level;
        self
    }

    /// Read this objective's statistic from a window. `None` means "not
    /// judgeable yet" (metric absent or below `min_count`), which is
    /// treated as healthy.
    pub(crate) fn observe(&self, view: &WindowView<'_>) -> Option<f64> {
        match self.stat {
            SloStat::P99 => {
                if view.hist_count(&self.metric) < self.min_count {
                    return None;
                }
                view.quantile(&self.metric, 0.99)
            }
            // Counters exist from the first tick; a window with no
            // matching counter reads as zero increments, which is a real
            // observation (e.g. "delivered nothing this half hour").
            SloStat::Delta => Some(view.delta(&self.metric) as f64),
        }
    }

    /// Whether `value` satisfies the objective.
    pub(crate) fn holds(&self, value: f64) -> bool {
        self.op.holds(value, self.threshold)
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Hysteresis: consecutive-tick requirements on both edges.
#[derive(Clone, Copy, Debug)]
pub struct Hysteresis {
    /// Consecutive breaching ticks before a breach event fires.
    pub breach_after: u32,
    /// Consecutive healthy ticks before a recovery event fires.
    pub clear_after: u32,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            breach_after: 2,
            clear_after: 3,
        }
    }
}

/// Breach or recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloEventKind {
    /// The objective entered breach.
    Breached,
    /// The objective recovered.
    Recovered,
}

/// One watchdog edge, carrying the offending window snapshot bounds.
#[derive(Clone, Debug)]
pub struct SloEvent {
    /// Virtual time of the evaluating tick (s).
    pub t_s: f64,
    /// The objective's name.
    pub slo: String,
    /// Breach or recovery.
    pub kind: SloEventKind,
    /// The observed statistic at the edge.
    pub value: f64,
    /// The objective's threshold.
    pub threshold: f64,
    /// Degradation level the objective requests while breached.
    pub degrade_to: u8,
    /// Start of the offending (or recovering) window (virtual s).
    pub window_from_s: f64,
    /// End of the offending (or recovering) window (virtual s).
    pub window_to_s: f64,
}

#[derive(Clone, Copy, Debug, Default)]
struct SpecState {
    bad_streak: u32,
    good_streak: u32,
    breached: bool,
    last_value: f64,
}

/// Evaluates a set of objectives each tick with hysteresis.
#[derive(Debug)]
pub struct SloWatchdog {
    specs: Vec<SloSpec>,
    states: Vec<SpecState>,
    hysteresis: Hysteresis,
    breach_events: u64,
    recovery_events: u64,
}

impl SloWatchdog {
    /// A watchdog over `specs`.
    pub fn new(specs: Vec<SloSpec>, hysteresis: Hysteresis) -> Self {
        let states = vec![SpecState::default(); specs.len()];
        SloWatchdog {
            specs,
            states,
            hysteresis,
            breach_events: 0,
            recovery_events: 0,
        }
    }

    /// Every metric name the objectives read — the exact instrument set
    /// a feeding [`MetricsWindow`](crate::window::MetricsWindow) needs
    /// to track (pass to its `focus`).
    pub fn metrics(&self) -> std::collections::BTreeSet<String> {
        self.specs.iter().map(|s| s.metric.clone()).collect()
    }

    /// Evaluate every objective against `view`, returning the edges that
    /// fired this tick (after hysteresis).
    pub fn evaluate(&mut self, t_s: f64, view: &WindowView<'_>) -> Vec<SloEvent> {
        let mut events = Vec::new();
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            let observed = spec.observe(view);
            // Unjudgeable reads as healthy but does not count toward a
            // recovery streak: a metric that vanished mid-breach (e.g. a
            // partition stops producing samples) must not self-heal.
            let healthy = match observed {
                Some(v) => {
                    state.last_value = v;
                    spec.holds(v)
                }
                None => !state.breached,
            };
            if healthy {
                state.good_streak += 1;
                state.bad_streak = 0;
                if state.breached && state.good_streak >= self.hysteresis.clear_after {
                    state.breached = false;
                    self.recovery_events += 1;
                    events.push(SloEvent {
                        t_s,
                        slo: spec.name.clone(),
                        kind: SloEventKind::Recovered,
                        value: state.last_value,
                        threshold: spec.threshold,
                        degrade_to: spec.degrade_to,
                        window_from_s: view.from_s,
                        window_to_s: view.to_s,
                    });
                }
            } else {
                state.bad_streak += 1;
                state.good_streak = 0;
                if !state.breached && state.bad_streak >= self.hysteresis.breach_after {
                    state.breached = true;
                    self.breach_events += 1;
                    events.push(SloEvent {
                        t_s,
                        slo: spec.name.clone(),
                        kind: SloEventKind::Breached,
                        value: state.last_value,
                        threshold: spec.threshold,
                        degrade_to: spec.degrade_to,
                        window_from_s: view.from_s,
                        window_to_s: view.to_s,
                    });
                }
            }
        }
        events
    }

    /// Names of every objective currently in breach.
    pub fn breached(&self) -> Vec<&str> {
        self.specs
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| st.breached)
            .map(|(s, _)| s.name.as_str())
            .collect()
    }

    /// The degradation-ladder level the active breaches request (max of
    /// `degrade_to` over breached objectives; 0 when healthy).
    pub fn degradation_target(&self) -> u8 {
        self.specs
            .iter()
            .zip(&self.states)
            .filter(|(_, st)| st.breached)
            .map(|(s, _)| s.degrade_to)
            .max()
            .unwrap_or(0)
    }

    /// Total breach edges fired so far.
    pub fn breach_events(&self) -> u64 {
        self.breach_events
    }

    /// Total recovery edges fired so far.
    pub fn recovery_events(&self) -> u64 {
        self.recovery_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::window::{MetricsWindow, WindowConfig};

    fn drive(
        wd: &mut SloWatchdog,
        w: &mut MetricsWindow,
        reg: &MetricsRegistry,
        tick: &mut f64,
    ) -> Vec<SloEvent> {
        *tick += 300.0;
        w.tick(reg, *tick);
        wd.evaluate(*tick, &w.view())
    }

    #[test]
    fn breach_needs_consecutive_bad_ticks_and_recovery_consecutive_good() {
        let reg = MetricsRegistry::new();
        let mut w = MetricsWindow::new(WindowConfig {
            interval_s: 300.0,
            intervals: 2,
        });
        let mut wd = SloWatchdog::new(
            vec![SloSpec::new("lat_ms", SloStat::P99, SloOp::Lt, 100.0).degrade_to(1)],
            Hysteresis {
                breach_after: 2,
                clear_after: 2,
            },
        );
        let h = reg.histogram("lat_ms");
        let mut t = 0.0;
        // 10 samples per interval so the windowed p99 rank lands inside
        // the interval's values, not on a lone lower sample.
        let burst = |v: f64| (0..10).for_each(|_| h.record(v));
        // Healthy tick.
        burst(10.0);
        assert!(drive(&mut wd, &mut w, &reg, &mut t).is_empty());
        // First bad tick: no event yet (hysteresis).
        burst(500.0);
        assert!(drive(&mut wd, &mut w, &reg, &mut t).is_empty());
        assert!(wd.breached().is_empty());
        // Second bad tick: breach fires with the offending value.
        burst(500.0);
        let ev = drive(&mut wd, &mut w, &reg, &mut t);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, SloEventKind::Breached);
        assert!(ev[0].value > 100.0);
        assert_eq!(ev[0].degrade_to, 1);
        assert_eq!(wd.degradation_target(), 1);
        assert_eq!(wd.breached(), vec!["p99(lat_ms) < 100"]);
        // One good tick (window still holds a bad interval → still bad),
        // then the window slides clean: recovery after 2 good ticks.
        burst(10.0);
        assert!(drive(&mut wd, &mut w, &reg, &mut t).is_empty());
        burst(10.0);
        let _ = drive(&mut wd, &mut w, &reg, &mut t); // first clean tick
        burst(10.0);
        let ev = drive(&mut wd, &mut w, &reg, &mut t);
        assert_eq!(
            ev.iter()
                .filter(|e| e.kind == SloEventKind::Recovered)
                .count(),
            1
        );
        assert_eq!(wd.degradation_target(), 0);
        assert_eq!(wd.breach_events(), 1);
        assert_eq!(wd.recovery_events(), 1);
    }

    #[test]
    fn delta_objective_breaches_on_silence() {
        // "deliver something every window" — breaches when the counter
        // stops moving, the shape of a delivery-stall SLO.
        let reg = MetricsRegistry::new();
        let mut w = MetricsWindow::new(WindowConfig {
            interval_s: 300.0,
            intervals: 1,
        });
        let mut wd = SloWatchdog::new(
            vec![SloSpec::new("delivered", SloStat::Delta, SloOp::Gt, 0.0)],
            Hysteresis {
                breach_after: 1,
                clear_after: 1,
            },
        );
        let c = reg.counter("delivered");
        let mut t = 0.0;
        c.add(9);
        assert!(drive(&mut wd, &mut w, &reg, &mut t).is_empty());
        // Silence: breach on the very next tick (breach_after = 1).
        let ev = drive(&mut wd, &mut w, &reg, &mut t);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, SloEventKind::Breached);
        assert_eq!(ev[0].value, 0.0);
        c.add(9);
        let ev = drive(&mut wd, &mut w, &reg, &mut t);
        assert_eq!(ev[0].kind, SloEventKind::Recovered);
    }

    #[test]
    fn min_count_defers_judgement_not_health() {
        let reg = MetricsRegistry::new();
        let mut w = MetricsWindow::new(WindowConfig {
            interval_s: 300.0,
            intervals: 4,
        });
        let mut wd = SloWatchdog::new(
            vec![SloSpec::new("lat_ms", SloStat::P99, SloOp::Lt, 100.0).min_count(10)],
            Hysteresis {
                breach_after: 1,
                clear_after: 1,
            },
        );
        let h = reg.histogram("lat_ms");
        let mut t = 0.0;
        // 5 terrible samples: below min_count, so no breach.
        for _ in 0..5 {
            h.record(10_000.0);
        }
        assert!(drive(&mut wd, &mut w, &reg, &mut t).is_empty());
        // 5 more: now judgeable and breaching.
        for _ in 0..5 {
            h.record(10_000.0);
        }
        let ev = drive(&mut wd, &mut w, &reg, &mut t);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, SloEventKind::Breached);
    }
}
