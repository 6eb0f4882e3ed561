//! Weather stations: commodity sensors with calibration bias and noise.
//!
//! §3.7: "the measurement errors from the atmospheric sensors (commodity
//! commercial agricultural weather stations) are high enough so that
//! consecutive readings may not be statistically determinable to be
//! different" — the whole reason the change-detection battery exists. The
//! noise model here (per-channel Gaussian + per-unit calibration bias) is
//! what the Laminar tests have to see through.

use crate::facility::CupsFacility;
use crate::telemetry::TelemetryRecord;
use crate::weather::WeatherState;
use xg_sim::rng::{Rng, GOLDEN_GAMMA};

/// Where a station sits relative to the screen house.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Placement {
    /// Outside the screen, measuring free-stream conditions.
    Exterior {
        /// Position (m) in facility coordinates.
        x: f64,
        /// Position (m) in facility coordinates.
        y: f64,
    },
    /// Inside the screen house.
    Interior {
        /// Position (m) in facility coordinates.
        x: f64,
        /// Position (m) in facility coordinates.
        y: f64,
    },
}

impl Placement {
    /// Position (x, y) in facility coordinates.
    pub(crate) fn position(&self) -> (f64, f64) {
        match *self {
            Placement::Exterior { x, y } | Placement::Interior { x, y } => (x, y),
        }
    }

    /// True for interior stations.
    pub(crate) fn is_interior(&self) -> bool {
        matches!(self, Placement::Interior { .. })
    }
}

/// Per-channel measurement noise (SDs) and calibration bias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NoiseModel {
    /// Wind-speed noise SD (m/s).
    pub wind_sd: f64,
    /// Wind-direction noise SD (deg).
    pub dir_sd: f64,
    /// Temperature noise SD (°C).
    pub temp_sd: f64,
    /// Humidity noise SD (%).
    pub rh_sd: f64,
    /// Wind calibration bias (m/s) — per-unit systematic offset.
    pub wind_bias: f64,
    /// Temperature calibration bias (°C).
    pub temp_bias: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            wind_sd: 0.35,
            dir_sd: 6.0,
            temp_sd: 0.4,
            rh_sd: 2.0,
            wind_bias: 0.0,
            temp_bias: 0.0,
        }
    }
}

/// Length scale over which a breach's local inflow anomaly decays (m).
const BREACH_INFLUENCE_M: f64 = 40.0;
/// Wind anomaly per m² of breach per m/s of free-stream wind, at the
/// breach itself.
const BREACH_WIND_GAIN: f64 = 0.25;
/// Screen attenuation: interior wind is this fraction of free-stream when
/// the screen is intact.
const INTERIOR_WIND_FACTOR: f64 = 0.3;

/// One weather station.
#[derive(Debug, Clone)]
pub(crate) struct WeatherStation {
    /// Station identifier.
    pub id: u32,
    /// Placement.
    pub placement: Placement,
    /// Noise model.
    pub noise: NoiseModel,
    rng: Rng,
}

impl WeatherStation {
    /// Create a station with the default commodity-sensor noise model.
    pub(crate) fn new(id: u32, placement: Placement, seed: u64) -> Self {
        WeatherStation {
            id,
            placement,
            noise: NoiseModel::default(),
            rng: Rng::seed_from_u64(seed ^ (id as u64).wrapping_mul(GOLDEN_GAMMA)),
        }
    }

    /// The true local wind at this station given free-stream conditions and
    /// the facility's screen state (before measurement noise).
    pub(crate) fn local_wind(&self, state: &WeatherState, facility: &CupsFacility) -> f64 {
        let (sx, sy) = self.placement.position();
        let base = if self.placement.is_interior() {
            state.wind_speed_ms * INTERIOR_WIND_FACTOR
        } else {
            state.wind_speed_ms
        };
        // Interior stations also feel breach inflow jets.
        let mut anomaly = 0.0;
        if self.placement.is_interior() {
            for b in &facility.breaches {
                let (bx, by) = facility.panel_center(b.wall, b.panel);
                let dist = ((sx - bx).powi(2) + (sy - by).powi(2)).sqrt();
                anomaly += BREACH_WIND_GAIN
                    * b.area_m2
                    * state.wind_speed_ms
                    * (-dist / BREACH_INFLUENCE_M).exp();
            }
        }
        base + anomaly
    }

    /// Produce a (noisy) telemetry record for the current true state.
    pub(crate) fn measure(
        &mut self,
        state: &WeatherState,
        facility: &CupsFacility,
    ) -> TelemetryRecord {
        let true_wind = self.local_wind(state, facility);
        let wind = (true_wind + self.noise.wind_bias + self.gauss() * self.noise.wind_sd).max(0.0);
        let dir = (state.wind_dir_deg + self.gauss() * self.noise.dir_sd).rem_euclid(360.0);
        let temp = state.temp_c + self.noise.temp_bias + self.gauss() * self.noise.temp_sd;
        let rh = (state.rel_humidity + self.gauss() * self.noise.rh_sd).clamp(0.0, 100.0);
        TelemetryRecord {
            station_id: self.id,
            t_s: state.t_s,
            wind_speed_ms: wind,
            wind_dir_deg: dir,
            temp_c: temp,
            rel_humidity: rh,
        }
    }

    fn gauss(&mut self) -> f64 {
        let u1: f64 = 1.0 - self.rng.next_f64();
        let u2: f64 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breach::Breach;
    use crate::facility::Wall;

    fn state(wind: f64) -> WeatherState {
        WeatherState {
            t_s: 0.0,
            wind_speed_ms: wind,
            wind_dir_deg: 315.0,
            temp_c: 22.0,
            rel_humidity: 60.0,
        }
    }

    #[test]
    fn interior_wind_attenuated_by_screen() {
        let f = CupsFacility::default();
        let inside = WeatherStation::new(1, Placement::Interior { x: 60.0, y: 50.0 }, 1);
        let outside = WeatherStation::new(2, Placement::Exterior { x: -20.0, y: 50.0 }, 1);
        let s = state(5.0);
        assert!(inside.local_wind(&s, &f) < outside.local_wind(&s, &f));
    }

    #[test]
    fn breach_raises_nearby_interior_wind() {
        let mut f = CupsFacility::default();
        let near = WeatherStation::new(1, Placement::Interior { x: 5.0, y: 50.0 }, 1);
        let far = WeatherStation::new(2, Placement::Interior { x: 115.0, y: 50.0 }, 1);
        let s = state(6.0);
        let near_before = near.local_wind(&s, &f);
        let far_before = far.local_wind(&s, &f);
        // Breach in the west wall (x = 0) near y = 50.
        f.add_breach(Breach::equipment_tear(Wall::West, 5));
        let near_delta = near.local_wind(&s, &f) - near_before;
        let far_delta = far.local_wind(&s, &f) - far_before;
        assert!(
            near_delta > 0.5,
            "near station must see the jet: {near_delta}"
        );
        assert!(
            far_delta < near_delta / 5.0,
            "far station barely affected: {far_delta} vs {near_delta}"
        );
    }

    #[test]
    fn exterior_station_ignores_breach() {
        let mut f = CupsFacility::default();
        let ext = WeatherStation::new(1, Placement::Exterior { x: -5.0, y: 50.0 }, 1);
        let s = state(6.0);
        let before = ext.local_wind(&s, &f);
        f.add_breach(Breach::equipment_tear(Wall::West, 5));
        assert_eq!(ext.local_wind(&s, &f), before);
    }

    #[test]
    fn measurement_noise_has_configured_spread() {
        let f = CupsFacility::default();
        let mut st = WeatherStation::new(1, Placement::Exterior { x: 0.0, y: 0.0 }, 42);
        let s = state(4.0);
        let n = 5_000;
        let winds: Vec<f64> = (0..n).map(|_| st.measure(&s, &f).wind_speed_ms).collect();
        let mean = winds.iter().sum::<f64>() / n as f64;
        let sd = (winds.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt();
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
        assert!((sd - st.noise.wind_sd).abs() < 0.05, "sd {sd}");
    }

    #[test]
    fn measurements_stay_physical() {
        let f = CupsFacility::default();
        let mut st = WeatherStation::new(1, Placement::Interior { x: 10.0, y: 10.0 }, 9);
        let s = state(0.1);
        for _ in 0..1_000 {
            let r = st.measure(&s, &f);
            assert!(r.wind_speed_ms >= 0.0);
            assert!((0.0..360.0).contains(&r.wind_dir_deg));
            assert!((0.0..=100.0).contains(&r.rel_humidity));
        }
    }

    #[test]
    fn calibration_bias_shifts_mean() {
        let f = CupsFacility::default();
        let mut st = WeatherStation::new(1, Placement::Exterior { x: 0.0, y: 0.0 }, 4);
        st.noise.wind_bias = 1.0;
        let s = state(3.0);
        let n = 3_000;
        let mean: f64 = (0..n)
            .map(|_| st.measure(&s, &f).wind_speed_ms)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "biased mean {mean}");
    }
}
