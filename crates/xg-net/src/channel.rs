//! Stochastic radio channel model.
//!
//! Each UE's per-TTI SNR is perturbed by a slowly varying shadowing process
//! (first-order autoregressive in dB) plus fast per-TTI fading jitter. The
//! combination produces the per-sample throughput variance the paper reports
//! (standard deviations of roughly 3–5 Mbps at mid throughput, growing with
//! bandwidth). Both draws come from the workspace's one normal sampler,
//! [`xg_sim::normal`], whose variates are a function of the stream alone.

use crate::units::Db;
use xg_sim::normal;
use xg_sim::rng::Rng;

/// AR(1) shadowing + Gaussian fast-fading channel.
///
/// The shadowing state `s` evolves as `s' = ρ·s + √(1-ρ²)·σ_sh·w` with
/// `w ~ N(0,1)`, so its stationary standard deviation is exactly `σ_sh`.
#[derive(Debug, Clone)]
pub(crate) struct ShadowingChannel {
    /// AR(1) correlation coefficient per TTI.
    rho: f64,
    /// Innovation gain `√(1-ρ²)·σ_sh` (dB), fixed at construction.
    shadow_gain: f64,
    /// Fast-fading standard deviation (dB), independent per TTI.
    sigma_fast: f64,
    /// Current shadowing state (dB).
    state: f64,
}

/// Panics unless `rho` is in `[0, 1)`: the AR(1) recursion diverges
/// otherwise.
#[expect(
    clippy::disallowed_macros,
    reason = "a constructor precondition, checked once before any event runs"
)]
fn check_rho(rho: f64) {
    assert!((0.0..1.0).contains(&rho), "rho must be in [0,1)");
}

impl ShadowingChannel {
    /// Create a channel with the given correlation and standard deviations.
    pub(crate) fn new(rho: f64, sigma_shadow: f64, sigma_fast: f64) -> Self {
        check_rho(rho);
        ShadowingChannel {
            rho,
            shadow_gain: (1.0 - rho * rho).sqrt() * sigma_shadow,
            sigma_fast,
            state: 0.0,
        }
    }

    /// Advance one TTI and return the SNR offset to apply (dB).
    pub(crate) fn step(&mut self, rng: &mut Rng) -> Db {
        let w = normal::standard(rng);
        self.state = self.rho * self.state + self.shadow_gain * w;
        let fast = normal::standard(rng) * self.sigma_fast;
        Db(self.state + fast)
    }
}

#[cfg(test)]
impl ShadowingChannel {
    /// `step` as it read before the innovation gain was folded into a
    /// field, `sqrt` in place, on two standard normals the caller drew
    /// (shadowing innovation first); `sigma_shadow` is the constructor
    /// argument the field absorbed. `sim::reference` steps its channels
    /// with this and its own sampler.
    pub(crate) fn step_unfolded(&mut self, sigma_shadow: f64, w: f64, fast_w: f64) -> Db {
        self.state = self.rho * self.state + (1.0 - self.rho * self.rho).sqrt() * sigma_shadow * w;
        Db(self.state + fast_w * self.sigma_fast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| normal::standard(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn shadowing_stationary_sd() {
        let mut rng = Rng::seed_from_u64(11);
        let mut ch = ShadowingChannel::new(0.95, 2.0, 0.0);
        // Warm up past the transient.
        for _ in 0..1_000 {
            ch.step(&mut rng);
        }
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| ch.step(&mut rng).0).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let sd = var.sqrt();
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((sd - 2.0).abs() < 0.2, "sd {sd}");
    }

    #[test]
    fn shadowing_is_correlated() {
        let mut rng = Rng::seed_from_u64(3);
        let mut ch = ShadowingChannel::new(0.999, 1.0, 0.0);
        for _ in 0..5_000 {
            ch.step(&mut rng);
        }
        // Lag-1 autocorrelation of a rho=0.999 process is ~0.999; verify it
        // is clearly positive and large.
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| ch.step(&mut rng).0).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cov = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1) as f64;
        assert!(cov / var > 0.95, "lag-1 autocorr {}", cov / var);
    }

    #[test]
    fn folded_gain_steps_bit_for_bit() {
        for (rho, sigma) in [(0.999, 0.8), (0.95, 2.0), (0.0, 1.3), (0.5, 0.0)] {
            let mut folded = ShadowingChannel::new(rho, sigma, 0.4);
            let mut unfolded = folded.clone();
            let mut rng_a = Rng::seed_from_u64(5);
            let mut rng_b = rng_a.clone();
            for _ in 0..2_000 {
                let a = folded.step(&mut rng_a).0;
                let w = normal::standard(&mut rng_b);
                let b = unfolded
                    .step_unfolded(sigma, w, normal::standard(&mut rng_b))
                    .0;
                assert_eq!(a.to_bits(), b.to_bits(), "rho {rho} sigma {sigma}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn invalid_rho_panics() {
        ShadowingChannel::new(1.5, 1.0, 1.0);
    }
}
