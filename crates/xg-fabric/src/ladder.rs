//! The degradation ladder and the SLOs that can raise it.
//!
//! Level 0 is nominal, level 1 runs the in-loop CFD at reduced
//! resolution, and level 2 also skips the non-critical results-return.
//! The backlog sets a level (about 2 cycles behind, or a CFD task
//! waiting on failover, is level 1; 6 cycles behind is level 2) and the
//! SLO watchdog requests one from measurement; the ladder runs at the
//! larger of the two, so a latency collapse that parks no records (a RAN
//! fade: every record still delivers, slowly) still degrades the CFD.

use crate::pipeline::CycleReport;
use crate::timeline::{Event, Timeline};
use std::sync::Arc;
use xg_obs::clock::secs_to_us;
use xg_obs::recorder::FlightRecorder;
use xg_obs::slo::{Hysteresis, SloEvent, SloEventKind, SloSpec, SloWatchdog};
use xg_obs::window::{MetricsWindow, WindowConfig};
use xg_obs::{Counter, Gauge, Histogram, MetricsRegistry, Obs};

/// The watchdog, the window it judges, and the instruments both read
/// (enabled observability only).
struct Slos {
    level: Arc<Gauge>,
    transitions: Arc<Counter>,
    transfer_ms: Arc<Histogram>,
    backlog: Arc<Gauge>,
    dropped: Arc<Counter>,
    delivered: Arc<Counter>,
    breaches: Arc<Counter>,
    recoveries: Arc<Counter>,
    window: MetricsWindow,
    watchdog: SloWatchdog,
}

/// The ladder's level, what drives it, and the CFD resolution it sets.
pub(crate) struct Ladder {
    level: u8,
    /// Level the active SLO breaches currently request.
    slo_level: u8,
    degraded_cycles: u32,
    cfd_cells: [usize; 3],
    cfd_steps: usize,
    slos: Option<Slos>,
}

impl Ladder {
    pub(crate) fn new(
        obs: &Obs,
        slos: Vec<SloSpec>,
        window: WindowConfig,
        hysteresis: Hysteresis,
        cfd_cells: [usize; 3],
        cfd_steps: usize,
    ) -> Self {
        let slos = obs.registry().map(|reg| {
            let watchdog = SloWatchdog::new(slos, hysteresis);
            // The window feeds the watchdog alone, so it only diffs the
            // instruments the objectives read.
            let mut window = MetricsWindow::new(window);
            window.focus(watchdog.metrics());
            Slos {
                level: reg.gauge("fabric.degradation.level"),
                transitions: reg.counter("fabric.degradation.transitions"),
                transfer_ms: reg.histogram("fabric.cycle.transfer_ms"),
                backlog: reg.gauge("fabric.gateway.backlog"),
                dropped: reg.counter("fabric.gateway.dropped"),
                delivered: reg.counter("fabric.gateway.delivered"),
                breaches: reg.counter("fabric.slo.breaches"),
                recoveries: reg.counter("fabric.slo.recoveries"),
                window,
                watchdog,
            }
        });
        Ladder {
            level: 0,
            slo_level: 0,
            degraded_cycles: 0,
            cfd_cells,
            cfd_steps,
            slos,
        }
    }

    pub(crate) fn level(&self) -> u8 {
        self.level
    }

    pub(crate) fn slo_level(&self) -> u8 {
        self.slo_level
    }

    pub(crate) fn degraded_cycles(&self) -> u32 {
        self.degraded_cycles
    }

    pub(crate) fn watchdog(&self) -> Option<&SloWatchdog> {
        self.slos.as_ref().map(|s| &s.watchdog)
    }

    /// Feed this cycle's shipment into the instruments, advance the
    /// window and let the watchdog judge it; returns the breach and
    /// recovery edges that fired.
    pub(crate) fn observe(
        &mut self,
        now_s: f64,
        shipped: &CycleReport,
        reg: Option<&MetricsRegistry>,
    ) -> Vec<SloEvent> {
        let (Some(s), Some(reg)) = (&mut self.slos, reg) else {
            return Vec::new();
        };
        s.transfer_ms.record(shipped.latency_ms);
        s.backlog.set(shipped.backlog as f64);
        s.dropped.add(shipped.dropped as u64);
        s.delivered.add(shipped.delivered as u64);
        s.window.tick(reg, now_s);
        let events = s.watchdog.evaluate(now_s, &s.window.view());
        self.slo_level = s.watchdog.degradation_target();
        events
    }

    /// Count one watchdog edge and put it on the timeline and in the
    /// flight recorder; returns the black-box dump reason.
    pub(crate) fn record_edge(
        &self,
        ev: &SloEvent,
        timeline: &mut Timeline,
        recorder: Option<&Arc<FlightRecorder>>,
    ) -> String {
        let breached = ev.kind == SloEventKind::Breached;
        if let Some(s) = &self.slos {
            if breached {
                s.breaches.inc();
            } else {
                s.recoveries.inc();
            }
        }
        if let Some(rec) = recorder {
            rec.note(
                secs_to_us(ev.t_s),
                format!(
                    "slo {}: {} (value {:.3} vs {:.3}, window {:.0}..{:.0}s)",
                    if breached { "breached" } else { "recovered" },
                    ev.slo,
                    ev.value,
                    ev.threshold,
                    ev.window_from_s,
                    ev.window_to_s,
                ),
            );
        }
        let (t_s, slo, value, threshold) = (ev.t_s, ev.slo.clone(), ev.value, ev.threshold);
        timeline.push(if breached {
            Event::SloBreached {
                t_s,
                slo,
                value,
                threshold,
            }
        } else {
            Event::SloRecovered {
                t_s,
                slo,
                value,
                threshold,
            }
        });
        let edge = if breached { "breach" } else { "recovery" };
        format!("slo-{edge}: {}", ev.slo)
    }

    /// Move the ladder to the larger of the backlog level and the SLO
    /// request.
    pub(crate) fn update(
        &mut self,
        now_s: f64,
        cycles_behind: usize,
        waiting_on_failover: bool,
        timeline: &mut Timeline,
        recorder: Option<&Arc<FlightRecorder>>,
    ) {
        let backlog_level = if cycles_behind >= 6 {
            2
        } else if cycles_behind >= 2 || waiting_on_failover {
            1
        } else {
            0
        };
        let level = backlog_level.max(self.slo_level);
        if level != self.level {
            self.level = level;
            if let Some(s) = &self.slos {
                s.transitions.inc();
                s.level.set(f64::from(level));
            }
            if let Some(rec) = recorder {
                rec.note(
                    secs_to_us(now_s),
                    format!(
                        "degradation -> level {level} (backlog level {backlog_level}, slo level {})",
                        self.slo_level
                    ),
                );
            }
            timeline.push(Event::DegradationChanged { t_s: now_s, level });
        }
        if level > 0 {
            self.degraded_cycles += 1;
        }
    }

    /// CFD resolution for a run triggered now: full resolution at level
    /// 0, 3/4 per axis (≈42% of the cells) once degraded.
    pub(crate) fn effective_resolution(&self) -> ([usize; 3], usize) {
        let (c, steps) = (self.cfd_cells, self.cfd_steps);
        if self.level == 0 {
            return (c, steps);
        }
        (
            [
                (c[0] * 3 / 4).max(4),
                (c[1] * 3 / 4).max(4),
                (c[2] * 3 / 4).max(3),
            ],
            (steps * 3 / 4).max(10),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_sets_levels_1_and_2_and_an_slo_request_can_only_raise_them() {
        let mut ladder = Ladder::new(
            &Obs::disabled(),
            Vec::new(),
            WindowConfig::default(),
            Hysteresis::default(),
            [20, 16, 6],
            40,
        );
        let mut timeline = Timeline::default();
        let mut level_after = |ladder: &mut Ladder, behind: usize| {
            ladder.update(0.0, behind, false, &mut timeline, None);
            ladder.level()
        };
        assert_eq!(level_after(&mut ladder, 1), 0);
        assert_eq!(level_after(&mut ladder, 2), 1);
        assert_eq!(ladder.effective_resolution(), ([15, 12, 4], 30));
        assert_eq!(level_after(&mut ladder, 5), 1);
        assert_eq!(level_after(&mut ladder, 6), 2);
        assert_eq!(level_after(&mut ladder, 0), 0);
        assert_eq!(ladder.effective_resolution(), ([20, 16, 6], 40));
        ladder.slo_level = 2;
        assert_eq!(level_after(&mut ladder, 0), 2, "the SLO request alone");
        ladder.slo_level = 1;
        assert_eq!(level_after(&mut ladder, 6), 2, "backlog above the SLO");
        assert_eq!(level_after(&mut ladder, 2), 1);
        assert_eq!(ladder.degraded_cycles(), 6);
        let changes = timeline.count(|e| matches!(e, Event::DegradationChanged { .. }));
        assert_eq!(changes, 5);
    }
}
