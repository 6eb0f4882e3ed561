//! Dynamic slice control (the paper's first future-work item, §5).
//!
//! "We will incorporate the ability to use the dynamic control mechanisms
//! available for 5G to implement IoT-tailored slicing techniques as a way
//! of optimizing remote network usage." This module implements that
//! controller: it tracks per-slice offered load with an EWMA and
//! periodically re-apportions PRB shares proportionally to demand, subject
//! to a per-slice floor that protects lightweight IoT traffic (the sensor
//! telemetry) from starvation by heavy co-tenants (video).

use crate::error::{NetError, Result};
use crate::slice::{SliceConfig, SliceProfile, Snssai};

/// Demand-proportional slice-share controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicSlicer {
    /// Slice identities, fixed at construction.
    snssais: Vec<Snssai>,
    /// Guaranteed minimum share per slice.
    pub min_share: f64,
    /// EWMA smoothing factor per observation window (0 < α ≤ 1).
    pub alpha: f64,
    /// Smoothed demand per slice (arbitrary units, e.g. bytes offered).
    demand: Vec<f64>,
}

impl DynamicSlicer {
    /// Create a controller over the given slices, surfacing an invalid
    /// configuration (no slices, infeasible floors, alpha outside
    /// `(0, 1]`) as a typed error instead of a panic — the workspace's
    /// fallible-construction convention.
    pub fn try_new(snssais: Vec<Snssai>, min_share: f64, alpha: f64) -> Result<Self> {
        if snssais.is_empty() {
            return Err(NetError::InvalidParameter(
                "dynamic slicer needs at least one slice".into(),
            ));
        }
        let floor_total = min_share * snssais.len() as f64;
        if min_share.is_nan() || min_share < 0.0 || floor_total > 1.0 + 1e-9 {
            return Err(NetError::InvalidParameter(format!(
                "floors exceed the grid or are negative: {} slices x min_share {min_share}",
                snssais.len()
            )));
        }
        if alpha.is_nan() || alpha <= 0.0 || alpha > 1.0 {
            return Err(NetError::InvalidParameter(format!(
                "alpha must be in (0, 1], got {alpha}"
            )));
        }
        let n = snssais.len();
        Ok(DynamicSlicer {
            snssais,
            min_share,
            alpha,
            demand: vec![0.0; n],
        })
    }

    /// The slice identities this controller apportions, in index order.
    pub fn snssais(&self) -> &[Snssai] {
        &self.snssais
    }

    /// Record one window's offered load for a slice (index order follows
    /// the construction order).
    pub fn observe(&mut self, slice_index: usize, offered: f64) {
        if let Some(d) = self.demand.get_mut(slice_index) {
            *d = (1.0 - self.alpha) * *d + self.alpha * offered.max(0.0);
        }
    }

    /// Compute the share apportionment for the current demand: floors
    /// first, the remainder split proportionally to demand (evenly when
    /// total demand is zero).
    pub fn shares(&self) -> Vec<f64> {
        let n = self.demand.len();
        let floor_total = self.min_share * n as f64;
        let free = (1.0 - floor_total).max(0.0);
        let total: f64 = self.demand.iter().sum();
        (0..n)
            .map(|i| {
                let prop = if total > 0.0 {
                    self.demand[i] / total
                } else {
                    1.0 / n as f64
                };
                self.min_share + free * prop
            })
            .collect()
    }

    /// Build the slice configuration for the current demand.
    pub fn recompute(&self) -> Result<SliceConfig> {
        let shares = self.shares();
        SliceConfig::new(
            self.snssais
                .iter()
                .zip(shares)
                .map(|(&snssai, prb_share)| SliceProfile { snssai, prb_share })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slicer() -> DynamicSlicer {
        DynamicSlicer::try_new(vec![Snssai::miot(1), Snssai::embb(1)], 0.1, 0.5).unwrap()
    }

    #[test]
    fn zero_demand_splits_evenly() {
        let s = slicer();
        let shares = s.shares();
        assert!((shares[0] - 0.5).abs() < 1e-9);
        assert!((shares[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn demand_shifts_shares() {
        let mut s = slicer();
        for _ in 0..20 {
            s.observe(0, 100.0);
            s.observe(1, 900.0);
        }
        let shares = s.shares();
        // Slice 1 carries 90% of demand: 0.1 floor + 0.8 * 0.9 = 0.82.
        assert!((shares[1] - 0.82).abs() < 0.01, "{shares:?}");
        assert!((shares[0] + shares[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn floor_protects_idle_iot_slice() {
        let mut s = slicer();
        for _ in 0..50 {
            s.observe(0, 0.0); // sensors quiet
            s.observe(1, 1e9); // video saturating
        }
        let shares = s.shares();
        assert!(shares[0] >= 0.1 - 1e-9, "floor held: {shares:?}");
    }

    #[test]
    fn ewma_smooths_bursts() {
        let mut s =
            DynamicSlicer::try_new(vec![Snssai::miot(1), Snssai::embb(1)], 0.0, 0.1).unwrap();
        for _ in 0..100 {
            s.observe(0, 100.0);
            s.observe(1, 100.0);
        }
        // One burst barely moves the estimate at alpha = 0.1.
        s.observe(0, 10_000.0);
        let shares = s.shares();
        assert!(shares[0] < 0.95, "burst must be damped: {shares:?}");
        assert!(shares[0] > 0.5);
    }

    #[test]
    fn recompute_yields_valid_config() {
        let mut s = slicer();
        s.observe(0, 10.0);
        s.observe(1, 30.0);
        let config = s.recompute().unwrap();
        assert_eq!(config.len(), 2);
        let quotas = config.prb_quotas(106);
        assert!(quotas.iter().sum::<u32>() <= 106);
        assert_eq!(
            config.admit(Snssai::miot(1)),
            Some(crate::slice::SliceId(0))
        );
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        // Infeasible floors: 2 x 0.6 > 1.
        assert!(matches!(
            DynamicSlicer::try_new(vec![Snssai::miot(1), Snssai::embb(1)], 0.6, 0.5),
            Err(NetError::InvalidParameter(_))
        ));
        // Empty slice list.
        assert!(DynamicSlicer::try_new(vec![], 0.0, 0.5).is_err());
        // Alpha outside (0, 1].
        assert!(DynamicSlicer::try_new(vec![Snssai::miot(1)], 0.0, 0.0).is_err());
        assert!(DynamicSlicer::try_new(vec![Snssai::miot(1)], 0.0, 1.5).is_err());
        assert!(DynamicSlicer::try_new(vec![Snssai::miot(1)], f64::NAN, 0.5).is_err());
    }
}
