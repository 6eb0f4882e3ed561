//! PHY-layer resource-grid arithmetic: bandwidth → PRB tables, slot and
//! symbol accounting, and SNR-driven link adaptation.
//!
//! The transmission-bandwidth tables follow 3GPP TS 36.101 (LTE) and
//! TS 38.101-1 (NR FR1) for the channel bandwidths the paper sweeps.

use crate::error::{NetError, Result};
use crate::rat::Rat;
use crate::units::{Db, MHz};
use std::f64::consts::{LN_10, LN_2};
use xg_sim::math;

/// Subcarriers per physical resource block (both LTE and NR).
pub(crate) const SUBCARRIERS_PER_PRB: u32 = 12;

/// OFDM symbols per slot (normal cyclic prefix).
pub(crate) const SYMBOLS_PER_SLOT: u32 = 14;

/// Subcarrier spacing (numerology) of the uplink carrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scs {
    /// 15 kHz: LTE, and NR FDD in the paper's deployment.
    Khz15,
    /// 30 kHz: NR TDD in the paper's deployment.
    Khz30,
}

impl Scs {
    /// Slots per second for this numerology.
    pub(crate) fn slots_per_second(self) -> u32 {
        match self {
            Scs::Khz15 => 1_000,
            Scs::Khz30 => 2_000,
        }
    }
}

/// Number of uplink PRBs for a given RAT, subcarrier spacing, and channel
/// bandwidth.
///
/// Returns an error for bandwidths outside the 3GPP tables (the simulator is
/// strict here on purpose: srsRAN likewise rejects non-standard bandwidths).
// Float literal patterns are not permitted in match arms, so the
// equality guards below are required, not redundant.
#[allow(clippy::redundant_guards)]
pub(crate) fn prb_count(rat: Rat, scs: Scs, bw: MHz) -> Result<u32> {
    let mhz = bw.0;
    let n = match (rat, scs) {
        (Rat::Lte4g, Scs::Khz15) => match mhz {
            x if (x - 1.4).abs() < 1e-9 => 6,
            x if x == 3.0 => 15,
            x if x == 5.0 => 25,
            x if x == 10.0 => 50,
            x if x == 15.0 => 75,
            x if x == 20.0 => 100,
            _ => {
                return Err(NetError::InvalidBandwidth(format!(
                    "{bw} is not a valid LTE channel bandwidth"
                )))
            }
        },
        (Rat::Lte4g, Scs::Khz30) => {
            return Err(NetError::InvalidBandwidth(
                "LTE only supports 15 kHz subcarrier spacing".into(),
            ))
        }
        (Rat::Nr5g, Scs::Khz15) => match mhz {
            x if x == 5.0 => 25,
            x if x == 10.0 => 52,
            x if x == 15.0 => 79,
            x if x == 20.0 => 106,
            x if x == 25.0 => 133,
            x if x == 30.0 => 160,
            x if x == 40.0 => 216,
            x if x == 50.0 => 270,
            _ => {
                return Err(NetError::InvalidBandwidth(format!(
                    "{bw} is not a valid NR bandwidth at 15 kHz SCS"
                )))
            }
        },
        (Rat::Nr5g, Scs::Khz30) => match mhz {
            x if x == 5.0 => 11,
            x if x == 10.0 => 24,
            x if x == 15.0 => 38,
            x if x == 20.0 => 51,
            x if x == 25.0 => 65,
            x if x == 30.0 => 78,
            x if x == 40.0 => 106,
            x if x == 50.0 => 133,
            _ => {
                return Err(NetError::InvalidBandwidth(format!(
                    "{bw} is not a valid NR bandwidth at 30 kHz SCS"
                )))
            }
        },
    };
    Ok(n)
}

/// Resource elements (subcarrier × symbol) per PRB per slot.
pub(crate) fn res_per_prb_slot() -> u32 {
    SUBCARRIERS_PER_PRB * SYMBOLS_PER_SLOT
}

/// Lowest SNR of `SHANNON_BITS` (dB).
pub(crate) const SHANNON_MIN_DB: f64 = -40.0;
/// Highest SNR of `SHANNON_BITS` (dB).
pub(crate) const SHANNON_MAX_DB: f64 = 40.0;
/// `SHANNON_BITS` entries per dB.
pub(crate) const SHANNON_PER_DB: f64 = 20.0;
/// Entries of `SHANNON_BITS`: −40 to 40 dB in 0.05 dB steps.
const SHANNON_LEN: usize = 1601;
/// Slope of the curve's high-SNR asymptote, `log2(10)/10` bits per dB.
pub(crate) const SHANNON_BITS_PER_DB: f64 = LN_10 / (10.0 * LN_2);

/// `log2(1 + 10^(s/10))` bits per resource element at
/// `s = −40 + i/20` dB: the Shannon curve on a 0.05 dB grid, built by the
/// compiler with [`xg_sim::math`] (13 KB of read-only data). Linear
/// interpolation between its points is within 1e-5 bits of the curve.
pub(crate) static SHANNON_BITS: [f64; SHANNON_LEN] = {
    let mut t = [0.0; SHANNON_LEN];
    let mut i = 0;
    while i < SHANNON_LEN {
        let s = SHANNON_MIN_DB + i as f64 / SHANNON_PER_DB;
        t[i] = math::ln(1.0 + math::exp(s * (LN_10 / 10.0))) / LN_2;
        i += 1;
    }
    t
};

/// Link-adaptation model: maps post-equalization SNR to spectral efficiency
/// in bits per resource element.
///
/// Uses an attenuated Shannon bound, `eff = α · log2(1 + snr)`, clamped to
/// the maximum modulation-and-coding efficiency of the RAT. α ≈ 0.75 is the
/// standard implementation-loss factor used in system-level LTE/NR
/// simulators. The curve is read from a table of it on a 0.05 dB grid,
/// built at compile time: a TTI pays two table reads and a multiply-add,
/// not a `powf` and a `log2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAdaptation {
    /// Shannon attenuation factor (implementation loss).
    pub alpha: f64,
    /// Maximum spectral efficiency in bits per resource element.
    pub max_eff: f64,
}

impl LinkAdaptation {
    /// Default model for a RAT's uplink: LTE UL tops out at 64-QAM (rate
    /// ~0.93), NR UL at 256-QAM.
    pub fn for_rat(rat: Rat) -> Self {
        match rat {
            Rat::Lte4g => LinkAdaptation {
                alpha: 0.75,
                max_eff: 5.55,
            },
            Rat::Nr5g => LinkAdaptation {
                alpha: 0.75,
                max_eff: 7.40,
            },
        }
    }

    /// Spectral efficiency (bits per resource element) at the given SNR:
    /// linear interpolation in the table over [−40, 40] dB, 0 at −∞ and
    /// below it, the curve's linear asymptote above it.
    pub fn efficiency(&self, snr: Db) -> f64 {
        let pos = (snr.0 - SHANNON_MIN_DB) * SHANNON_PER_DB;
        let last = SHANNON_LEN - 1;
        let bits = if pos >= 0.0 && pos < last as f64 {
            let i = pos as usize;
            let lo = SHANNON_BITS[i];
            lo + (pos - i as f64) * (SHANNON_BITS[i + 1] - lo)
        } else if pos >= last as f64 {
            SHANNON_BITS[last] + (snr.0 - SHANNON_MAX_DB) * SHANNON_BITS_PER_DB
        } else {
            0.0
        };
        (self.alpha * bits).clamp(0.0, self.max_eff)
    }
}

/// Uplink power model: a UE has a fixed total transmit power, so its per-PRB
/// SNR falls by `10·log10(n_prb)` as its grant widens, bounded above by the
/// receiver's saturation SNR.
///
/// This is the mechanism behind the sub-linear throughput scaling at large
/// PRB shares visible in the paper's Fig. 6 slicing experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkPower {
    /// SNR the UE would achieve concentrating all power in a single PRB.
    pub snr_one_prb: Db,
    /// Receiver saturation SNR: the cap imposed by EVM / dynamic range.
    pub snr_cap: Db,
}

/// The power spread of an `n_prb`-wide grant, `10·log10(n_prb)` dB
/// (−∞ for no PRBs), from [`xg_sim::math::ln`].
pub(crate) fn power_spread_db(n_prb: u32) -> f64 {
    10.0 * math::ln(n_prb as f64) / LN_10
}

impl UplinkPower {
    /// Per-PRB SNR when transmitting over `n_prb` PRBs.
    pub fn snr(&self, n_prb: u32) -> Db {
        if n_prb == 0 {
            return Db(f64::NEG_INFINITY);
        }
        self.snr_at_spread(power_spread_db(n_prb))
    }

    /// Per-PRB SNR for a grant whose power spread the caller already
    /// holds (the link simulator tabulates it per cell).
    pub(crate) fn snr_at_spread(&self, spread_db: f64) -> Db {
        Db((self.snr_one_prb.0 - spread_db).min(self.snr_cap.0))
    }
}

/// Peak uplink PHY rate in bits per second for a full grid allocation at the
/// given per-PRB efficiency and uplink duty fraction (the closed form the
/// calibration tests compare against).
#[cfg(test)]
pub(crate) fn phy_rate_bps(n_prb: u32, scs: Scs, eff: f64, ul_fraction: f64) -> f64 {
    n_prb as f64 * res_per_prb_slot() as f64 * scs.slots_per_second() as f64 * eff * ul_fraction
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lte_prb_table() {
        assert_eq!(prb_count(Rat::Lte4g, Scs::Khz15, MHz(5.0)).unwrap(), 25);
        assert_eq!(prb_count(Rat::Lte4g, Scs::Khz15, MHz(10.0)).unwrap(), 50);
        assert_eq!(prb_count(Rat::Lte4g, Scs::Khz15, MHz(20.0)).unwrap(), 100);
    }

    #[test]
    fn nr_prb_tables() {
        assert_eq!(prb_count(Rat::Nr5g, Scs::Khz15, MHz(20.0)).unwrap(), 106);
        assert_eq!(prb_count(Rat::Nr5g, Scs::Khz30, MHz(40.0)).unwrap(), 106);
        assert_eq!(prb_count(Rat::Nr5g, Scs::Khz30, MHz(50.0)).unwrap(), 133);
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        assert!(prb_count(Rat::Lte4g, Scs::Khz15, MHz(25.0)).is_err());
        assert!(prb_count(Rat::Nr5g, Scs::Khz15, MHz(7.0)).is_err());
        assert!(prb_count(Rat::Lte4g, Scs::Khz30, MHz(10.0)).is_err());
    }

    #[test]
    fn efficiency_monotone_in_snr() {
        let la = LinkAdaptation::for_rat(Rat::Nr5g);
        let mut last = -1.0;
        for snr in [-10.0, 0.0, 5.0, 10.0, 20.0, 30.0] {
            let e = la.efficiency(Db(snr));
            assert!(e >= last, "efficiency must be non-decreasing");
            last = e;
        }
    }

    #[test]
    fn efficiency_clamped() {
        let la = LinkAdaptation::for_rat(Rat::Lte4g);
        assert!(la.efficiency(Db(60.0)) <= la.max_eff + 1e-12);
        assert!(la.efficiency(Db(-100.0)) < 1e-9);
    }

    /// The retired curve, `α·log2(1 + 10^(s/10))` on libm, is the accuracy
    /// oracle of the table that replaced it.
    #[allow(clippy::disallowed_methods)]
    fn libm_bits(snr_db: f64) -> f64 {
        (1.0 + 10f64.powf(snr_db / 10.0)).log2()
    }

    #[test]
    fn shannon_table_is_within_1e5_bits_of_the_libm_curve() {
        let bare = LinkAdaptation {
            alpha: 1.0,
            max_eff: f64::INFINITY,
        };
        for (i, &bits) in SHANNON_BITS.iter().enumerate() {
            let s = SHANNON_MIN_DB + i as f64 / SHANNON_PER_DB;
            assert!((bits - libm_bits(s)).abs() <= 1e-13, "entry {i}");
        }
        let mut worst = (0.0f64, 0.0);
        for k in 0..=80_000 {
            let s = SHANNON_MIN_DB + k as f64 * 0.001;
            let err = (bare.efficiency(Db(s)) - libm_bits(s)).abs();
            if err > worst.0 {
                worst = (err, s);
            }
        }
        assert!(worst.0 <= 1e-5, "{:e} bits at {} dB", worst.0, worst.1);
        // Outside the table: nothing below it, the asymptote above it,
        // continuous at both ends.
        assert_eq!(bare.efficiency(Db(f64::NEG_INFINITY)), 0.0);
        assert_eq!(bare.efficiency(Db(-40.01)), 0.0);
        assert_eq!(bare.efficiency(Db(40.0)), SHANNON_BITS[SHANNON_LEN - 1]);
        for s in [40.5, 50.0, 90.0] {
            assert!(
                (bare.efficiency(Db(s)) - libm_bits(s)).abs() < 2e-4,
                "{s} dB"
            );
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn power_spread_matches_libm_log10() {
        for n in 1..=273u32 {
            let want = 10.0 * (n as f64).log10();
            assert!((power_spread_db(n) - want).abs() <= 1e-13, "{n}");
        }
        assert_eq!(power_spread_db(1), 0.0);
        assert_eq!(power_spread_db(0), f64::NEG_INFINITY);
    }

    #[test]
    fn power_spread_reduces_snr() {
        let p = UplinkPower {
            snr_one_prb: Db(30.0),
            snr_cap: Db(15.0),
        };
        // Few PRBs: capped.
        assert_eq!(p.snr(1).0, 15.0);
        assert_eq!(p.snr(10).0, 15.0);
        // Many PRBs: power limited. 100 PRBs spread = 20 dB.
        assert!((p.snr(100).0 - 10.0).abs() < 1e-9);
        // Zero PRBs: no signal.
        assert_eq!(p.snr(0).0, f64::NEG_INFINITY);
    }

    #[test]
    fn phy_rate_matches_hand_calc() {
        // 106 PRB, 15 kHz, eff 3.3, FDD: 106*168*1000*3.3 = 58.77 Mbps.
        let r = phy_rate_bps(106, Scs::Khz15, 3.3, 1.0);
        assert!((r - 58.77e6).abs() / 58.77e6 < 0.001);
    }

    #[test]
    fn slot_timing() {
        assert_eq!(Scs::Khz15.slots_per_second(), 1000);
        assert_eq!(Scs::Khz30.slots_per_second(), 2000);
    }
}
