//! Network slicing: S-NSSAI-identified slices with fixed PRB-ratio quotas.
//!
//! 5G network slicing creates multiple virtual networks in one physical
//! cell, each with its own share of the radio resource grid. The paper's
//! Fig. 6 experiment configures nine slice profiles of 10%…90% of the PRBs
//! and shows throughput tracking the allocation. This module implements the
//! slice model: quota bookkeeping, admission, and the invariant that shares
//! never oversubscribe the grid.

use crate::error::{NetError, Result};

/// A slice identifier local to a cell (index into the slice table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SliceId(pub u16);

/// Single Network Slice Selection Assistance Information: the 3GPP-standard
/// slice identity carried in registration and session requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Snssai {
    /// Slice/service type (1 = eMBB, 2 = URLLC, 3 = mIoT).
    pub sst: u8,
    /// Slice differentiator, distinguishing slices of the same type.
    pub sd: u32,
}

impl Snssai {
    /// Enhanced mobile broadband slice with the given differentiator.
    pub fn embb(sd: u32) -> Self {
        Snssai { sst: 1, sd }
    }

    /// Massive IoT slice (sensor traffic) with the given differentiator.
    pub fn miot(sd: u32) -> Self {
        Snssai { sst: 3, sd }
    }
}

/// One slice's configuration within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceProfile {
    /// The slice's network-wide identity.
    pub snssai: Snssai,
    /// Fraction of the cell's PRBs reserved for this slice (0, 1].
    pub prb_share: f64,
}

/// The slice table of a cell.
///
/// Maintains the invariant that the sum of PRB shares never exceeds 1.0
/// (shares strictly partition the grid — the paper's complementary-ratio
/// experiment always sums to exactly 100%).
#[derive(Debug, Clone, PartialEq)]
pub struct SliceConfig {
    profiles: Vec<SliceProfile>,
}

impl SliceConfig {
    /// A single default slice owning the whole grid (no slicing).
    pub(crate) fn unsliced() -> Self {
        SliceConfig {
            profiles: vec![SliceProfile {
                snssai: Snssai::embb(0),
                prb_share: 1.0,
            }],
        }
    }

    /// Build a slice table from explicit profiles.
    ///
    /// Fails if shares are non-positive or sum to more than 1.0 (plus a
    /// small epsilon for floating-point accumulation).
    pub fn new(profiles: Vec<SliceProfile>) -> Result<Self> {
        if profiles.is_empty() {
            return Err(NetError::SliceOversubscribed { requested: 0.0 });
        }
        let total: f64 = profiles.iter().map(|p| p.prb_share).sum();
        if profiles.iter().any(|p| p.prb_share <= 0.0) || total > 1.0 + 1e-9 {
            return Err(NetError::SliceOversubscribed { requested: total });
        }
        Ok(SliceConfig { profiles })
    }

    /// The paper's Fig. 6 configuration: two complementary slices with the
    /// given share for slice 0 (slice 1 receives the remainder).
    pub fn complementary_pair(share_first: f64) -> Result<Self> {
        SliceConfig::new(vec![
            SliceProfile {
                snssai: Snssai::miot(1),
                prb_share: share_first,
            },
            SliceProfile {
                snssai: Snssai::miot(2),
                prb_share: 1.0 - share_first,
            },
        ])
    }

    /// Number of slices.
    pub(crate) fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Profile of slice `id`.
    pub(crate) fn profile(&self, id: SliceId) -> Result<&SliceProfile> {
        self.profiles
            .get(id.0 as usize)
            .ok_or(NetError::UnknownSlice(id.0))
    }

    /// Find the slice matching an S-NSSAI, if admitted in this cell.
    pub(crate) fn admit(&self, snssai: Snssai) -> Option<SliceId> {
        self.profiles
            .iter()
            .position(|p| p.snssai == snssai)
            .map(|i| SliceId(i as u16))
    }

    /// Integer PRB quota of each slice for a grid of `total_prb` PRBs.
    ///
    /// Uses largest-remainder apportionment so quotas sum to exactly the
    /// slice-share total (never exceeding the grid).
    pub fn prb_quotas(&self, total_prb: u32) -> Vec<u32> {
        let exact: Vec<f64> = self
            .profiles
            .iter()
            .map(|p| p.prb_share * total_prb as f64)
            .collect();
        let mut quotas: Vec<u32> = exact.iter().map(|e| e.floor() as u32).collect();
        let assigned: u32 = quotas.iter().sum();
        let target: u32 = exact.iter().sum::<f64>().round() as u32;
        // Distribute the remaining PRBs by largest fractional remainder.
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = exact[a] - exact[a].floor();
            let fb = exact[b] - exact[b].floor();
            fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut remaining = target.saturating_sub(assigned);
        for &i in &order {
            if remaining == 0 {
                break;
            }
            quotas[i] += 1;
            remaining -= 1;
        }
        quotas
    }

    /// Iterate over `(SliceId, &SliceProfile)` pairs.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SliceId, &SliceProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (SliceId(i as u16), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsliced_owns_grid() {
        let c = SliceConfig::unsliced();
        assert_eq!(c.len(), 1);
        assert_eq!(c.prb_quotas(106), vec![106]);
    }

    #[test]
    fn oversubscription_rejected() {
        let r = SliceConfig::new(vec![
            SliceProfile {
                snssai: Snssai::embb(0),
                prb_share: 0.7,
            },
            SliceProfile {
                snssai: Snssai::embb(1),
                prb_share: 0.5,
            },
        ]);
        assert!(matches!(r, Err(NetError::SliceOversubscribed { .. })));
    }

    #[test]
    fn zero_share_rejected() {
        let r = SliceConfig::new(vec![SliceProfile {
            snssai: Snssai::embb(0),
            prb_share: 0.0,
        }]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(SliceConfig::new(vec![]).is_err());
    }

    #[test]
    fn complementary_pair_partitions() {
        for pct in 1..=9 {
            let share = pct as f64 / 10.0;
            let c = SliceConfig::complementary_pair(share).unwrap();
            let quotas = c.prb_quotas(106);
            assert_eq!(quotas.iter().sum::<u32>(), 106, "share {share}");
            // Quota tracks the share within 1 PRB of rounding.
            let exact = share * 106.0;
            assert!((quotas[0] as f64 - exact).abs() <= 1.0);
        }
    }

    #[test]
    fn admit_matches_snssai() {
        let c = SliceConfig::complementary_pair(0.3).unwrap();
        assert_eq!(c.admit(Snssai::miot(1)), Some(SliceId(0)));
        assert_eq!(c.admit(Snssai::miot(2)), Some(SliceId(1)));
        assert_eq!(c.admit(Snssai::embb(9)), None);
    }

    #[test]
    fn quotas_never_exceed_grid() {
        let c = SliceConfig::new(vec![
            SliceProfile {
                snssai: Snssai::embb(0),
                prb_share: 1.0 / 3.0,
            },
            SliceProfile {
                snssai: Snssai::embb(1),
                prb_share: 1.0 / 3.0,
            },
            SliceProfile {
                snssai: Snssai::embb(2),
                prb_share: 1.0 / 3.0,
            },
        ])
        .unwrap();
        for total in [1u32, 7, 25, 51, 100, 106, 133, 270] {
            let q = c.prb_quotas(total);
            assert!(q.iter().sum::<u32>() <= total);
        }
    }

    #[test]
    fn unknown_slice_errors() {
        let c = SliceConfig::unsliced();
        assert!(c.profile(SliceId(3)).is_err());
        assert!(c.profile(SliceId(0)).is_ok());
    }
}
