//! Strongly-typed scalar units used throughout the network simulator.
//!
//! These are thin `f64` newtypes: they exist so a bandwidth can never be
//! passed where a throughput is expected, while compiling down to bare
//! floating-point arithmetic.

use std::fmt;

/// Channel bandwidth in megahertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct MHz(pub f64);

impl fmt::Display for MHz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MHz", self.0)
    }
}

/// Throughput in megabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Mbps(pub f64);

impl fmt::Display for Mbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} Mbps", self.0)
    }
}

/// Signal level or gain in decibels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Db(pub f64);

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} dB", self.0)
    }
}

impl std::ops::Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

/// Basic summary statistics over a set of scalar samples.
///
/// Used by the iperf-like harness and by the figure-regeneration binaries to
/// report the mean ± standard deviation series the paper plots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected).
    pub sd: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl SampleStats {
    /// Compute summary statistics of `samples`.
    ///
    /// Returns `None` for an empty slice. The standard deviation of a single
    /// sample is reported as zero.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        Some(SampleStats {
            n,
            mean,
            sd: var.sqrt(),
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_arithmetic() {
        assert_eq!((Db(10.0) + Db(5.0)).0, 15.0);
        assert_eq!((Db(10.0) - Db(5.0)).0, 5.0);
    }

    #[test]
    fn stats_empty() {
        assert!(SampleStats::of(&[]).is_none());
    }

    #[test]
    fn stats_single() {
        let s = SampleStats::of(&[4.0]).unwrap();
        assert_eq!(s.mean, 4.0);
        assert_eq!(s.sd, 0.0);
        assert_eq!(s.n, 1);
    }

    #[test]
    fn stats_known_values() {
        let s = SampleStats::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample SD of this classic set is ~2.138.
        assert!((s.sd - 2.138).abs() < 0.01);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }
}
