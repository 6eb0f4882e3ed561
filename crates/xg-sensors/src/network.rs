//! The CUPS station network and boundary-condition extraction.
//!
//! Stations report every 5 minutes (the paper's reporting interval). The
//! network aggregates the latest reports into the [`BoundaryConditions`]
//! record that parameterizes a CFD run — "instantaneous wind, temperature,
//! and humidity measurements taken at the screen boundaries (both inside
//! and outside)" (§2).
//!
//! Time is event-driven over two fixed timers: the network keeps when its
//! next 60 s weather tick and its next 300 s report round fall due, and
//! [`Advance::advance_to`] fires whatever is due in `(time, source)`
//! order. At a coincident instant (every 300 s) the weather tick fires
//! first, reproducing the legacy "5 weather steps, then measure" RNG
//! order bit-for-bit. A quiet stretch costs one comparison per timer.

use crate::facility::CupsFacility;
use crate::station::{Placement, WeatherStation};
use crate::telemetry::TelemetryRecord;
use crate::weather::{WeatherSim, WeatherState};
use std::collections::{BTreeMap, BTreeSet};
use xg_sim::{Advance, SimNs};

#[cfg(test)]
mod reference;

/// Reporting interval of the commodity weather stations (s).
pub const REPORT_INTERVAL_S: f64 = 300.0;

/// Weather micro-climate step (s); a report interval is 5 of them.
const WEATHER_STEP_S: f64 = 60.0;

/// Boundary conditions for one CFD run, aggregated from station reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryConditions {
    /// Free-stream wind speed (m/s), from exterior stations.
    pub wind_speed_ms: f64,
    /// Free-stream wind direction (deg).
    pub wind_dir_deg: f64,
    /// Ambient (exterior) temperature (°C).
    pub ambient_temp_c: f64,
    /// Mean interior temperature (°C).
    pub interior_temp_c: f64,
    /// Mean interior wind speed (m/s) — the measurement the digital twin
    /// compares against the CFD prediction for breach detection.
    pub interior_wind_ms: f64,
    /// Relative humidity (%).
    pub rel_humidity: f64,
    /// Timestamp (s).
    pub t_s: f64,
}

/// The deployed station network.
pub struct SensorNetwork {
    /// The facility being monitored.
    pub facility: CupsFacility,
    stations: Vec<WeatherStation>,
    weather: WeatherSim,
    last_state: Option<WeatherState>,
    /// Stations currently offline (dropout fault): no report at poll time.
    down: BTreeSet<u32>,
    /// Stations with a frozen sensor head (stuck-value fault): they report
    /// on schedule but repeat their last healthy measurement.
    stuck: BTreeSet<u32>,
    last_reports: BTreeMap<u32, TelemetryRecord>,
    /// When the next weather tick falls due.
    weather_at: SimNs,
    /// When the next report round falls due.
    report_at: SimNs,
    /// The latest instant advanced to.
    now: SimNs,
    /// Reports measured by fired report rounds, awaiting
    /// [`take_reports`](Self::take_reports).
    pending: Vec<TelemetryRecord>,
}

impl SensorNetwork {
    /// The paper-like deployment: four exterior stations (one per wall) and
    /// five interior stations (quincunx).
    pub fn cups_default(facility: CupsFacility, seed: u64) -> Self {
        let (l, w) = (facility.length_m, facility.width_m);
        let placements = vec![
            Placement::Exterior {
                x: -10.0,
                y: w / 2.0,
            },
            Placement::Exterior {
                x: l + 10.0,
                y: w / 2.0,
            },
            Placement::Exterior {
                x: l / 2.0,
                y: -10.0,
            },
            Placement::Exterior {
                x: l / 2.0,
                y: w + 10.0,
            },
            Placement::Interior {
                x: l * 0.25,
                y: w * 0.25,
            },
            Placement::Interior {
                x: l * 0.75,
                y: w * 0.25,
            },
            Placement::Interior {
                x: l * 0.5,
                y: w * 0.5,
            },
            Placement::Interior {
                x: l * 0.25,
                y: w * 0.75,
            },
            Placement::Interior {
                x: l * 0.75,
                y: w * 0.75,
            },
        ];
        let stations = placements
            .into_iter()
            .enumerate()
            .map(|(i, p)| WeatherStation::new(i as u32, p, seed))
            .collect();
        SensorNetwork {
            facility,
            stations,
            weather: WeatherSim::exeter(seed),
            last_state: None,
            down: BTreeSet::new(),
            stuck: BTreeSet::new(),
            last_reports: BTreeMap::new(),
            weather_at: SimNs::from_secs_f64(WEATHER_STEP_S),
            report_at: SimNs::from_secs_f64(REPORT_INTERVAL_S),
            now: SimNs::ZERO,
            pending: Vec::new(),
        }
    }

    /// Inject or clear a station dropout fault: a down station produces no
    /// report at poll time (power loss, radio failure).
    pub fn set_station_down(&mut self, id: u32, down: bool) {
        if down {
            self.down.insert(id);
        } else {
            self.down.remove(&id);
        }
    }

    /// Inject or clear a stuck-value fault: the station keeps reporting on
    /// schedule but repeats its last healthy measurement (iced anemometer,
    /// wedged ADC).
    pub fn set_station_stuck(&mut self, id: u32, stuck: bool) {
        if stuck {
            self.stuck.insert(id);
        } else {
            self.stuck.remove(&id);
        }
    }

    /// Position and placement of a station: `(x, y, is_interior)`.
    pub fn station_position(&self, id: u32) -> Option<(f64, f64, bool)> {
        self.stations.iter().find(|s| s.id == id).map(|s| {
            let (x, y) = s.placement.position();
            (x, y, s.placement.is_interior())
        })
    }

    /// Force a weather front (scenario scripting).
    pub fn force_front(&mut self) {
        self.weather.force_front();
    }

    /// The most recent true weather state (None before the first poll).
    pub fn current_state(&self) -> Option<WeatherState> {
        self.last_state
    }

    /// Drain the reports measured by report rounds since the last call
    /// (in round order, station order within a round). Empty if no round
    /// fell due since then.
    pub fn take_reports(&mut self) -> Vec<TelemetryRecord> {
        std::mem::take(&mut self.pending)
    }

    /// One 300 s report round: measure every station against the current
    /// weather and stash the surviving reports.
    fn report_round(&mut self) {
        let Some(state) = self.last_state else {
            return;
        };
        let facility = &self.facility;
        // Every station is measured even when faulted so RNG streams stay
        // identical between faulted and fault-free runs of the same seed.
        for s in self.stations.iter_mut() {
            let measured = s.measure(&state, facility);
            if self.down.contains(&s.id) {
                continue;
            }
            let report = if self.stuck.contains(&s.id) {
                // Frozen head, live transmitter: stale values on a fresh
                // timestamp. A station stuck before its first measurement
                // freezes on that first value.
                let prev = *self.last_reports.entry(s.id).or_insert(measured);
                let mut r = prev;
                r.t_s = measured.t_s;
                r
            } else {
                self.last_reports.insert(s.id, measured);
                measured
            };
            self.pending.push(report);
        }
    }

    /// Aggregate a set of simultaneous reports into CFD boundary
    /// conditions. Returns `None` if either the exterior or interior group
    /// is empty.
    pub fn boundary_conditions(&self, reports: &[TelemetryRecord]) -> Option<BoundaryConditions> {
        let mut ext: Vec<&TelemetryRecord> = Vec::new();
        let mut int: Vec<&TelemetryRecord> = Vec::new();
        for r in reports {
            let station = self.stations.iter().find(|s| s.id == r.station_id)?;
            if station.placement.is_interior() {
                int.push(r);
            } else {
                ext.push(r);
            }
        }
        if ext.is_empty() || int.is_empty() {
            return None;
        }
        let mean = |xs: &[&TelemetryRecord], f: fn(&TelemetryRecord) -> f64| {
            xs.iter().map(|r| f(r)).sum::<f64>() / xs.len() as f64
        };
        // Circular mean for wind direction.
        let (mut sx, mut sy) = (0.0, 0.0);
        for r in &ext {
            let rad = r.wind_dir_deg.to_radians();
            sx += rad.cos();
            sy += rad.sin();
        }
        let dir = sy.atan2(sx).to_degrees().rem_euclid(360.0);
        Some(BoundaryConditions {
            wind_speed_ms: mean(&ext, |r| r.wind_speed_ms),
            wind_dir_deg: dir,
            ambient_temp_c: mean(&ext, |r| r.temp_c),
            interior_temp_c: mean(&int, |r| r.temp_c),
            interior_wind_ms: mean(&int, |r| r.wind_speed_ms),
            rel_humidity: mean(&ext, |r| r.rel_humidity),
            t_s: reports.first().map(|r| r.t_s).unwrap_or(0.0),
        })
    }
}

impl Advance for SensorNetwork {
    type Error = std::convert::Infallible;

    fn now(&self) -> SimNs {
        self.now
    }

    /// Fire every weather tick and report round due at or before `t`, in
    /// `(time, source)` order — the weather tick first at a shared
    /// instant — then move the clock to `t` (never back). Reports land in
    /// the [`take_reports`](Self::take_reports) buffer. A quiet network
    /// (nothing due) advances in O(1) — no per-second stepping.
    fn advance_to(&mut self, t: SimNs) -> Result<(), Self::Error> {
        loop {
            if self.weather_at <= t && self.weather_at <= self.report_at {
                self.last_state = Some(self.weather.run_steps(1));
                self.weather_at = self
                    .weather_at
                    .saturating_add(SimNs::from_secs_f64(WEATHER_STEP_S));
            } else if self.report_at <= t {
                self.report_round();
                self.report_at = self
                    .report_at
                    .saturating_add(SimNs::from_secs_f64(REPORT_INTERVAL_S));
            } else {
                break;
            }
        }
        self.now = self.now.max(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breach::Breach;
    use crate::facility::Wall;

    fn network(seed: u64) -> SensorNetwork {
        SensorNetwork::cups_default(CupsFacility::default(), seed)
    }

    /// Advance one report interval and drain its round.
    fn poll(net: &mut SensorNetwork) -> Vec<TelemetryRecord> {
        let next = net
            .now()
            .saturating_add(SimNs::from_secs_f64(REPORT_INTERVAL_S));
        net.advance_to(next).unwrap();
        net.take_reports()
    }

    #[test]
    fn poll_reports_all_stations() {
        let mut net = network(1);
        let reports = poll(&mut net);
        assert_eq!(reports.len(), net.stations.len());
        let t = reports[0].t_s;
        assert!(reports.iter().all(|r| r.t_s == t), "simultaneous reports");
        assert!((t - REPORT_INTERVAL_S).abs() < 1e-9);
        // Next poll advances by exactly one interval.
        let t2 = poll(&mut net)[0].t_s;
        assert!((t2 - 2.0 * REPORT_INTERVAL_S).abs() < 1e-9);
    }

    #[test]
    fn boundary_conditions_aggregate() {
        let mut net = network(2);
        let reports = poll(&mut net);
        let bc = net.boundary_conditions(&reports).unwrap();
        assert!(bc.wind_speed_ms >= 0.0);
        assert!((0.0..360.0).contains(&bc.wind_dir_deg));
        // Interior wind must be attenuated relative to free stream (on
        // average; noise can perturb individual samples slightly).
        assert!(bc.interior_wind_ms < bc.wind_speed_ms);
    }

    #[test]
    fn boundary_conditions_need_both_groups() {
        let mut net = network(3);
        let reports = poll(&mut net);
        // Keep only exterior reports (ids 0..4).
        let ext_only: Vec<_> = reports
            .iter()
            .filter(|r| r.station_id < 4)
            .cloned()
            .collect();
        assert!(net.boundary_conditions(&ext_only).is_none());
        assert!(net.boundary_conditions(&[]).is_none());
    }

    #[test]
    fn unknown_station_id_rejected() {
        let mut net = network(4);
        let mut reports = poll(&mut net);
        reports[0].station_id = 999;
        assert!(net.boundary_conditions(&reports).is_none());
    }

    #[test]
    fn breach_raises_interior_wind_in_bc() {
        // Average over many polls: breach inflow must raise the interior
        // wind estimate relative to the intact facility.
        let mut intact = network(5);
        let mut breached = network(5);
        breached
            .facility
            .add_breach(Breach::equipment_tear(Wall::West, 5));
        let n = 40;
        let mut sum_intact = 0.0;
        let mut sum_breached = 0.0;
        for _ in 0..n {
            let ri = poll(&mut intact);
            let rb = poll(&mut breached);
            sum_intact += intact.boundary_conditions(&ri).unwrap().interior_wind_ms;
            sum_breached += breached.boundary_conditions(&rb).unwrap().interior_wind_ms;
        }
        assert!(
            sum_breached > sum_intact * 1.05,
            "breach must be visible: {sum_breached} vs {sum_intact}"
        );
    }

    #[test]
    fn station_dropout_removes_reports() {
        let mut net = network(7);
        let stations = net.stations.len();
        net.set_station_down(0, true);
        net.set_station_down(4, true);
        let reports = poll(&mut net);
        assert_eq!(reports.len(), stations - 2);
        assert!(reports
            .iter()
            .all(|r| r.station_id != 0 && r.station_id != 4));
        // Remaining stations still produce usable boundary conditions.
        assert!(net.boundary_conditions(&reports).is_some());
        // Repair: the station reports again next poll.
        net.set_station_down(0, false);
        net.set_station_down(4, false);
        assert_eq!(poll(&mut net).len(), stations);
    }

    #[test]
    fn all_exterior_down_starves_boundary_conditions() {
        let mut net = network(8);
        for id in 0..4 {
            net.set_station_down(id, true);
        }
        let reports = poll(&mut net);
        assert!(
            net.boundary_conditions(&reports).is_none(),
            "no exterior group -> no CFD boundary conditions"
        );
    }

    #[test]
    fn stuck_station_repeats_values_with_fresh_timestamps() {
        let mut net = network(9);
        let first = poll(&mut net);
        let baseline = *first.iter().find(|r| r.station_id == 2).unwrap();
        net.set_station_stuck(2, true);
        for k in 1..=3 {
            let reports = poll(&mut net);
            let r = reports.iter().find(|r| r.station_id == 2).unwrap();
            assert_eq!(r.wind_speed_ms, baseline.wind_speed_ms, "frozen value");
            assert_eq!(r.temp_c, baseline.temp_c);
            let expect_t = (k + 1) as f64 * REPORT_INTERVAL_S;
            assert!((r.t_s - expect_t).abs() < 1e-9, "timestamp stays live");
        }
        net.set_station_stuck(2, false);
        // After repair the station tracks the weather again: over many
        // polls its readings must diverge from the frozen value.
        let mut diverged = false;
        for _ in 0..10 {
            let reports = poll(&mut net);
            let r = reports.iter().find(|r| r.station_id == 2).unwrap();
            diverged |= (r.wind_speed_ms - baseline.wind_speed_ms).abs() > 1e-6;
        }
        assert!(diverged, "repaired station must report live values");
    }

    #[test]
    fn advance_to_matches_poll_bitwise() {
        // One big advance over 4 report intervals must replay the exact
        // event calendar that polling walks one interval at a time: same
        // reports, bit for bit, in the same order.
        let mut polled = network(31);
        let mut evented = network(31);
        let mut via_poll = Vec::new();
        for _ in 0..4 {
            via_poll.extend(poll(&mut polled));
        }
        evented
            .advance_to(SimNs::from_secs_f64(4.0 * REPORT_INTERVAL_S))
            .unwrap();
        let via_events = evented.take_reports();
        assert_eq!(via_poll.len(), via_events.len());
        for (p, e) in via_poll.iter().zip(&via_events) {
            assert_eq!(p.station_id, e.station_id);
            assert_eq!(p.t_s.to_bits(), e.t_s.to_bits());
            assert_eq!(p.wind_speed_ms.to_bits(), e.wind_speed_ms.to_bits());
            assert_eq!(p.temp_c.to_bits(), e.temp_c.to_bits());
        }
        assert_eq!(evented.now(), SimNs::from_secs(1200));
    }

    #[test]
    fn advance_to_mid_interval_buffers_nothing() {
        let mut net = network(33);
        // 299 s: four weather ticks due, no report round yet.
        net.advance_to(SimNs::from_secs(299)).unwrap();
        assert!(net.take_reports().is_empty());
        assert!(net.current_state().is_some(), "weather ticks still fire");
        // The next second crosses the report instant.
        net.advance_to(SimNs::from_secs(300)).unwrap();
        assert_eq!(net.take_reports().len(), net.stations.len());
    }

    #[test]
    fn front_visible_in_boundary_conditions() {
        let mut net = network(6);
        let mut pre = 0.0;
        for _ in 0..6 {
            let r = poll(&mut net);
            pre = net.boundary_conditions(&r).unwrap().wind_speed_ms;
        }
        net.force_front();
        let r = poll(&mut net);
        let during = net.boundary_conditions(&r).unwrap().wind_speed_ms;
        assert!(during > pre + 2.0, "front: {pre} -> {during}");
    }
}
