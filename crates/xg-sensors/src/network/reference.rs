//! The queue-driven clock the station network ran on before its two
//! timers, kept verbatim as the oracle they are held to.
//!
//! [`QueueDriven`] wraps a [`SensorNetwork`] and drives its weather ticks
//! and report rounds from an [`EventQueue`], exactly as the network once
//! did itself; the network's own timers are left unused. The property at
//! the bottom advances a queue-driven network and a timer-driven one
//! through the same targets and requires the same reports, clock and
//! weather state, bit for bit.

use super::{SensorNetwork, REPORT_INTERVAL_S, WEATHER_STEP_S};
use xg_sim::{Advance, EventQueue, SimNs};

/// Event-source id of the weather tick (fires before a coincident
/// report round: lower source wins the (time, source, seq) tie-break).
const SRC_WEATHER: u32 = 0;
/// Event-source id of the station report round.
const SRC_REPORT: u32 = 1;

/// The two recurring events of the station network.
#[derive(Debug, Clone, Copy)]
enum SensorEvent {
    /// Advance the micro-climate by one 60 s step.
    WeatherTick,
    /// Measure every station and stash the reports for
    /// [`SensorNetwork::take_reports`].
    ReportRound,
}

/// A station network whose time comes from an event calendar.
pub(super) struct QueueDriven {
    pub(super) net: SensorNetwork,
    /// The event calendar driving weather ticks and report rounds.
    events: EventQueue<SensorEvent>,
}

impl QueueDriven {
    pub(super) fn new(net: SensorNetwork) -> Self {
        // 1 s buckets × 1024: both recurring periods (60 s, 300 s) stay
        // inside the wheel, so pushes and pops never touch the overflow
        // map.
        let mut events = EventQueue::with_layout(1_000_000_000, 1024);
        events.push(
            SimNs::from_secs_f64(WEATHER_STEP_S),
            SRC_WEATHER,
            SensorEvent::WeatherTick,
        );
        events.push(
            SimNs::from_secs_f64(REPORT_INTERVAL_S),
            SRC_REPORT,
            SensorEvent::ReportRound,
        );
        QueueDriven { net, events }
    }
}

impl Advance for QueueDriven {
    type Error = std::convert::Infallible;

    fn now(&self) -> SimNs {
        self.events.now()
    }

    /// Drain every weather tick and report round due at or before `t`,
    /// in calendar order, then move the clock to `t`. Reports land in
    /// the [`take_reports`](SensorNetwork::take_reports) buffer. A quiet
    /// network (no events due) advances in O(1) — no per-second stepping.
    fn advance_to(&mut self, t: SimNs) -> Result<(), Self::Error> {
        while let Some(ev) = self.events.pop_due(t) {
            match ev.payload {
                SensorEvent::WeatherTick => {
                    self.net.last_state = Some(self.net.weather.run_steps(1));
                    self.events.push(
                        ev.at.saturating_add(SimNs::from_secs_f64(WEATHER_STEP_S)),
                        SRC_WEATHER,
                        SensorEvent::WeatherTick,
                    );
                }
                SensorEvent::ReportRound => {
                    self.net.report_round();
                    self.events.push(
                        ev.at
                            .saturating_add(SimNs::from_secs_f64(REPORT_INTERVAL_S)),
                        SRC_REPORT,
                        SensorEvent::ReportRound,
                    );
                }
            }
        }
        self.events.drain_clock_to(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::CupsFacility;
    use crate::weather::WeatherState;
    use xg_prop::prelude::*;

    const SECOND: u64 = 1_000_000_000;
    const INTERVAL: u64 = 300 * SECOND;
    const DAY: u64 = 86_400 * SECOND;

    /// The next target after `now`, by kind: an exact report instant
    /// (where the weather tick and the report round tie), a mid-interval
    /// instant, `now` again, an earlier instant, or a jump of days.
    fn target(now: u64, kind: u8, x: u64) -> SimNs {
        SimNs(match kind {
            0 => (now / INTERVAL + 1 + x % 3) * INTERVAL,
            1 => now + x % (2 * INTERVAL),
            2 => now,
            3 => now.saturating_sub(x % (3 * INTERVAL)),
            _ => now + (1 + x % 2) * DAY + x % INTERVAL,
        })
    }

    fn state_bits(s: Option<WeatherState>) -> Option<[u64; 5]> {
        s.map(|s| {
            [
                s.t_s.to_bits(),
                s.wind_speed_ms.to_bits(),
                s.wind_dir_deg.to_bits(),
                s.temp_c.to_bits(),
                s.rel_humidity.to_bits(),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The two timers fire what the calendar fired, in its order:
        /// the same reports (every field, bit for bit), the same clock
        /// and the same weather state after every advance.
        #[test]
        fn the_timers_replay_the_event_calendar(
            seed in any::<u64>(),
            steps in xg_prop::collection::vec((0u8..5, any::<u64>()), 1..24),
        ) {
            let mk = || SensorNetwork::cups_default(CupsFacility::default(), seed);
            let mut timers = mk();
            let mut oracle = QueueDriven::new(mk());
            for (i, &(kind, x)) in steps.iter().enumerate() {
                let t = target(oracle.now().0, kind, x);
                timers.advance_to(t).unwrap();
                oracle.advance_to(t).unwrap();
                prop_assert_eq!(timers.now(), oracle.now(), "step {}", i);
                let got: Vec<_> = timers.take_reports().iter().map(|r| r.encode()).collect();
                let want: Vec<_> = oracle.net.take_reports().iter().map(|r| r.encode()).collect();
                prop_assert_eq!(got, want, "step {} to {:?}", i, t);
                prop_assert_eq!(
                    state_bits(timers.current_state()),
                    state_bits(oracle.net.current_state()),
                    "step {}", i
                );
            }
        }
    }
}
