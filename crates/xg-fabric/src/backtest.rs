//! Calibration back-testing.
//!
//! §2: "The model results will inform both modality changes in the sensing
//! infrastructure and data calibrations (back tested against historical
//! data) that are necessary to maintain model accuracy." The twin's
//! measured/predicted scale factor drifts as sensors age and seasons turn;
//! this module re-fits the calibration over a rolling history of
//! (predicted, measured) pairs and decides when the live factor has
//! drifted enough to warrant recalibration.

/// One historical comparison: the twin's prediction vs the aggregated
/// measurement for the same period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationSample {
    /// Timestamp (s).
    pub t_s: f64,
    /// Predicted mean interior wind (m/s).
    pub predicted_ms: f64,
    /// Measured mean interior wind (m/s).
    pub measured_ms: f64,
}

/// Result of a back-test over a window of history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BacktestReport {
    /// Least-squares calibration factor over the window
    /// (measured ≈ factor × predicted).
    pub fitted_factor: f64,
    /// RMS relative residual after applying the fitted factor.
    pub rms_residual: f64,
    /// Relative drift of the fitted factor from the live factor.
    pub drift: f64,
    /// Whether recalibration is recommended.
    pub recalibrate: bool,
}

/// The back-tester: a bounded history plus a drift threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Backtester {
    /// Max samples retained.
    pub capacity: usize,
    /// Relative drift above which recalibration is recommended.
    pub drift_threshold: f64,
    history: Vec<CalibrationSample>,
}

impl Default for Backtester {
    fn default() -> Self {
        Backtester {
            capacity: 96, // two days of 30-minute comparisons
            drift_threshold: 0.15,
            history: Vec::new(),
        }
    }
}

impl Backtester {
    /// Record a comparison (oldest samples are evicted at capacity).
    pub(crate) fn record(&mut self, sample: CalibrationSample) {
        self.history.push(sample);
        if self.history.len() > self.capacity {
            self.history.remove(0);
        }
    }

    /// Back-test the live calibration factor against the retained history.
    ///
    /// Returns `None` with fewer than 4 samples (no meaningful fit). The
    /// fitted factor is the least-squares solution of
    /// `measured = factor × predicted` (through the origin).
    pub fn backtest(&self, live_factor: f64) -> Option<BacktestReport> {
        if self.history.len() < 4 {
            return None;
        }
        let (mut num, mut den) = (0.0, 0.0);
        for s in &self.history {
            num += s.predicted_ms * s.measured_ms;
            den += s.predicted_ms * s.predicted_ms;
        }
        if den <= 0.0 {
            return None;
        }
        let fitted = num / den;
        let mut sq = 0.0;
        let mut n = 0usize;
        for s in &self.history {
            let adjusted = fitted * s.predicted_ms;
            if s.measured_ms.abs() > 1e-9 {
                sq += ((adjusted - s.measured_ms) / s.measured_ms).powi(2);
                n += 1;
            }
        }
        let rms = if n > 0 { (sq / n as f64).sqrt() } else { 0.0 };
        let drift = (fitted - live_factor).abs() / live_factor.abs().max(1e-9);
        Some(BacktestReport {
            fitted_factor: fitted,
            rms_residual: rms,
            drift,
            recalibrate: drift > self.drift_threshold,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, pred: f64, factor: f64, noise: f64) -> CalibrationSample {
        CalibrationSample {
            t_s: t,
            predicted_ms: pred,
            measured_ms: pred * factor + noise,
        }
    }

    #[test]
    fn needs_minimum_history() {
        let mut bt = Backtester::default();
        for i in 0..3 {
            bt.record(sample(i as f64, 1.0, 2.0, 0.0));
        }
        assert!(bt.backtest(2.0).is_none());
        bt.record(sample(3.0, 1.0, 2.0, 0.0));
        assert!(bt.backtest(2.0).is_some());
    }

    #[test]
    fn exact_factor_recovered() {
        let mut bt = Backtester::default();
        for i in 0..10 {
            bt.record(sample(i as f64, 0.5 + 0.1 * i as f64, 3.2, 0.0));
        }
        let report = bt.backtest(3.2).unwrap();
        assert!((report.fitted_factor - 3.2).abs() < 1e-12);
        assert!(report.rms_residual < 1e-12);
        assert!(!report.recalibrate);
    }

    #[test]
    fn drift_triggers_recalibration() {
        let mut bt = Backtester::default();
        // The true relationship drifted to 2.6 while the live factor says 2.0.
        for i in 0..12 {
            bt.record(sample(i as f64, 1.0 + 0.05 * i as f64, 2.6, 0.0));
        }
        let report = bt.backtest(2.0).unwrap();
        assert!((report.fitted_factor - 2.6).abs() < 1e-9);
        assert!(report.drift > 0.25);
        assert!(report.recalibrate);
    }

    #[test]
    fn small_noise_does_not_trigger() {
        let mut bt = Backtester::default();
        for i in 0..20 {
            let noise = if i % 2 == 0 { 0.03 } else { -0.03 };
            bt.record(sample(i as f64, 1.0, 2.0, noise));
        }
        let report = bt.backtest(2.0).unwrap();
        assert!(report.drift < 0.05, "drift {}", report.drift);
        assert!(!report.recalibrate);
        assert!(report.rms_residual > 0.0);
    }

    #[test]
    fn capacity_bounds_history() {
        let mut bt = Backtester {
            capacity: 5,
            ..Default::default()
        };
        // Old regime factor 1.0, new regime 3.0: with capacity 5, only the
        // new regime survives.
        for i in 0..10 {
            bt.record(sample(i as f64, 1.0, 1.0, 0.0));
        }
        for i in 10..15 {
            bt.record(sample(i as f64, 1.0, 3.0, 0.0));
        }
        assert_eq!(bt.history.len(), 5);
        let report = bt.backtest(1.0).unwrap();
        assert!((report.fitted_factor - 3.0).abs() < 1e-9);
        assert!(report.recalibrate);
    }

    #[test]
    fn degenerate_predictions_rejected() {
        let mut bt = Backtester::default();
        for i in 0..6 {
            bt.record(CalibrationSample {
                t_s: i as f64,
                predicted_ms: 0.0,
                measured_ms: 1.0,
            });
        }
        assert!(bt.backtest(1.0).is_none(), "zero variance in predictions");
    }
}
