//! Seeded micro-climate generator for the Exeter, CA site.
//!
//! Generates the true atmospheric state the stations sample: a diurnal
//! temperature cycle, wind with slowly-wandering AR(1) gusts plus
//! occasional front passages (the "changes in wind speed" that trigger new
//! CFD runs in §4.4), wind direction drift, and humidity anti-correlated
//! with temperature.

use xg_sim::normal;
use xg_sim::rng::Rng;

/// Instantaneous true atmospheric state at the site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherState {
    /// Time since simulation start (s).
    pub t_s: f64,
    /// Wind speed at 10 m (m/s).
    pub wind_speed_ms: f64,
    /// Wind direction (degrees, meteorological: 0 = from north).
    pub wind_dir_deg: f64,
    /// Air temperature (°C).
    pub temp_c: f64,
    /// Relative humidity (%).
    pub rel_humidity: f64,
}

/// Micro-climate generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WeatherConfig {
    /// Daily mean temperature (°C).
    pub temp_mean_c: f64,
    /// Diurnal temperature amplitude (°C).
    pub temp_diurnal_c: f64,
    /// Baseline mean wind speed (m/s).
    pub wind_mean_ms: f64,
    /// Stationary SD of the AR(1) wind-gust process (m/s).
    pub wind_gust_sd_ms: f64,
    /// AR(1) coefficient per step of the gust process.
    pub wind_rho: f64,
    /// Probability per step that a weather front begins.
    pub front_prob_per_step: f64,
    /// Front magnitude: added wind speed (m/s) while a front is active.
    pub front_wind_boost_ms: f64,
    /// Front duration (steps).
    pub front_duration_steps: u32,
    /// Simulation step (s).
    pub step_s: f64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        WeatherConfig {
            temp_mean_c: 22.0,
            temp_diurnal_c: 9.0,
            wind_mean_ms: 2.5,
            wind_gust_sd_ms: 0.5,
            wind_rho: 0.85,
            front_prob_per_step: 0.0,
            front_wind_boost_ms: 4.5,
            front_duration_steps: 40,
            step_s: 60.0,
        }
    }
}

/// The micro-climate simulator.
#[derive(Debug, Clone)]
pub(crate) struct WeatherSim {
    config: WeatherConfig,
    rng: Rng,
    t_s: f64,
    gust: f64,
    dir_deg: f64,
    front_remaining: u32,
}

impl WeatherSim {
    /// Create a seeded simulator.
    pub(crate) fn new(config: WeatherConfig, seed: u64) -> Self {
        WeatherSim {
            config,
            rng: Rng::seed_from_u64(seed),
            t_s: 0.0,
            gust: 0.0,
            dir_deg: 315.0, // prevailing NW
            front_remaining: 0,
        }
    }

    /// A simulator with site defaults.
    pub(crate) fn exeter(seed: u64) -> Self {
        WeatherSim::new(WeatherConfig::default(), seed)
    }

    /// Schedule a front to begin on the next step (deterministic trigger
    /// for tests and scenario scripts).
    pub(crate) fn force_front(&mut self) {
        self.front_remaining = self.config.front_duration_steps;
    }

    /// Advance one step and return the new true state.
    pub(crate) fn step(&mut self) -> WeatherState {
        let c = self.config;
        self.t_s += c.step_s;
        // Diurnal cycle peaking at 15:00 local.
        let day_frac = (self.t_s / 86_400.0).fract();
        let temp = c.temp_mean_c
            + c.temp_diurnal_c * (2.0 * std::f64::consts::PI * (day_frac - 0.625)).cos();
        // AR(1) gust process.
        let w = normal::standard(&mut self.rng);
        self.gust =
            c.wind_rho * self.gust + (1.0 - c.wind_rho * c.wind_rho).sqrt() * c.wind_gust_sd_ms * w;
        // Weather fronts.
        if self.front_remaining == 0 && self.rng.next_f64() < c.front_prob_per_step {
            self.front_remaining = c.front_duration_steps;
        }
        let front_boost = if self.front_remaining > 0 {
            self.front_remaining -= 1;
            c.front_wind_boost_ms
        } else {
            0.0
        };
        let wind = (c.wind_mean_ms + self.gust + front_boost).max(0.0);
        // Direction drifts slowly; fronts veer it.
        self.dir_deg +=
            normal::standard(&mut self.rng) * 1.5 + if front_boost > 0.0 { 0.8 } else { 0.0 };
        self.dir_deg = self.dir_deg.rem_euclid(360.0);
        // Humidity anti-correlates with temperature.
        let rh = (78.0 - 1.8 * (temp - c.temp_mean_c) + normal::standard(&mut self.rng) * 1.5)
            .clamp(5.0, 100.0);
        WeatherState {
            t_s: self.t_s,
            wind_speed_ms: wind,
            wind_dir_deg: self.dir_deg,
            temp_c: temp,
            rel_humidity: rh,
        }
    }

    /// Advance `n` steps, returning the final state.
    pub(crate) fn run_steps(&mut self, n: usize) -> WeatherState {
        let mut last = self.step();
        for _ in 1..n {
            last = self.step();
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_under_seed() {
        let mut a = WeatherSim::exeter(7);
        let mut b = WeatherSim::exeter(7);
        for _ in 0..100 {
            assert_eq!(a.step(), b.step());
        }
        let mut c = WeatherSim::exeter(8);
        c.step();
        // Different seed, different trajectory (statistically certain).
        assert_ne!(a.step().wind_speed_ms, c.step().wind_speed_ms);
    }

    #[test]
    fn wind_never_negative() {
        let mut sim = WeatherSim::exeter(3);
        for _ in 0..5_000 {
            assert!(sim.step().wind_speed_ms >= 0.0);
        }
    }

    #[test]
    fn diurnal_temperature_cycle() {
        let mut sim = WeatherSim::exeter(1);
        // Sample one full day at 1-min steps.
        let mut min_t = f64::INFINITY;
        let mut max_t = f64::NEG_INFINITY;
        for _ in 0..1440 {
            let s = sim.step();
            min_t = min_t.min(s.temp_c);
            max_t = max_t.max(s.temp_c);
        }
        let cfg = WeatherConfig::default();
        assert!(
            max_t - min_t > 1.5 * cfg.temp_diurnal_c,
            "diurnal swing {min_t}..{max_t}"
        );
    }

    #[test]
    fn forced_front_raises_wind() {
        let mut sim = WeatherSim::exeter(5);
        // Baseline mean over 30 steps.
        let base: f64 = (0..30).map(|_| sim.step().wind_speed_ms).sum::<f64>() / 30.0;
        sim.force_front();
        assert!(sim.front_remaining > 0);
        let frontal: f64 = (0..20).map(|_| sim.step().wind_speed_ms).sum::<f64>() / 20.0;
        assert!(
            frontal > base + 2.0,
            "front must raise wind: base {base}, frontal {frontal}"
        );
    }

    #[test]
    fn humidity_in_physical_range() {
        let mut sim = WeatherSim::exeter(11);
        for _ in 0..2_000 {
            let s = sim.step();
            assert!((5.0..=100.0).contains(&s.rel_humidity));
            assert!((0.0..360.0).contains(&s.wind_dir_deg));
        }
    }

    #[test]
    fn gust_process_has_configured_spread() {
        let cfg = WeatherConfig {
            temp_diurnal_c: 0.0, // isolate wind
            ..Default::default()
        };
        let mut sim = WeatherSim::new(cfg, 13);
        let n = 20_000;
        let winds: Vec<f64> = (0..n).map(|_| sim.step().wind_speed_ms).collect();
        let mean = winds.iter().sum::<f64>() / n as f64;
        assert!((mean - cfg.wind_mean_ms).abs() < 0.15, "mean {mean}");
    }
}
