//! Calibration constants for the paper's measured hardware.
//!
//! Everything mechanistic in this crate (PRB tables, TDD patterns, slicing
//! quotas, scheduler behaviour, power-spread SNR) is first-principles. The
//! constants in this module are the *device-specific* link parameters that
//! the paper never reports directly but that its throughput measurements
//! imply. Each constant block cites the paper numbers it was solved from;
//! `xg-bench` regenerates the corresponding figure series and
//! `EXPERIMENTS.md` records the measured-vs-paper comparison.
//!
//! Calibration method: for a single-user full-grid allocation, throughput is
//! `n_prb · 168 · slots/s · ul_frac · α·log2(1 + snr(n_prb))`, with
//! `snr(n) = min(snr_cap, snr_one_prb − 10·log10 n)`. Solving this for the
//! paper's endpoint measurements yields the SNR constants below.

use crate::device::RadioProfile;
use crate::phy::UplinkPower;
use crate::units::Db;
use xg_sim::math;

/// Laptop + SIM7600G-H on 4G FDD.
///
/// Paper targets (Fig. 4): ~21 Mbps at 10 MHz, declining to 10.41 Mbps at
/// 20 MHz ("limited performance ... beyond 10 MHz is likely due to
/// constraints imposed by the external 4G modem").
pub(crate) const LAPTOP_4G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(28.0),
        snr_cap: Db(10.0),
    },
    tdd_power_offset: Db(0.0),
    stable_alloc_mhz: 10.0,
    ln_decay_per_mhz: math::ln(0.865),
    host_cap_mbps: None,
};

/// Raspberry Pi + SIM7600G-H on 4G FDD.
///
/// Paper targets (Fig. 4): 2.23 Mbps at 20 MHz, "degrade with bandwidth due
/// to 4G modem limitations" in the two-user case; the Pi's USB path also
/// caps sustained throughput.
pub(crate) const RPI_4G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(27.0),
        snr_cap: Db(9.0),
    },
    tdd_power_offset: Db(0.0),
    stable_alloc_mhz: 5.0,
    ln_decay_per_mhz: math::ln(0.825),
    host_cap_mbps: Some(12.0),
};

/// Smartphone (integrated modem) on 4G FDD.
///
/// Paper targets (Fig. 4): 43.83 Mbps at 20 MHz — the best 4G device;
/// (Fig. 5) two-user aggregate 35.5 Mbps at 15 MHz.
pub(crate) const SMARTPHONE_4G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(30.4),
        snr_cap: Db(11.0),
    },
    tdd_power_offset: Db(0.0),
    stable_alloc_mhz: 20.0,
    ln_decay_per_mhz: 0.0,
    host_cap_mbps: None,
};

/// Laptop + RM530N-GL on 5G.
///
/// Paper targets: 40.83 Mbps at 20 MHz FDD; 58.31 Mbps at 50 MHz TDD;
/// (Fig. 5) two-user TDD aggregate 65.2 Mbps at 40 MHz.
pub(crate) const LAPTOP_5G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(29.0),
        snr_cap: Db(14.0),
    },
    tdd_power_offset: Db(3.0),
    stable_alloc_mhz: 50.0,
    ln_decay_per_mhz: 0.0,
    host_cap_mbps: None,
};

/// Raspberry Pi + RM530N-GL on 5G.
///
/// Paper targets: 52.36 Mbps at 20 MHz FDD; 65.97 Mbps at 50 MHz TDD (the
/// best overall device); Fig. 6 slicing endpoints 5.14 → 43.47 Mbps
/// (this is "RPi2"; "RPi1" applies [`RPI_UNIT_A_SNR_ONE_PRB_OFFSET_DB`]).
pub(crate) const RPI_5G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(32.0),
        snr_cap: Db(13.0),
    },
    tdd_power_offset: Db(3.0),
    stable_alloc_mhz: 50.0,
    ln_decay_per_mhz: 0.0,
    host_cap_mbps: None,
};

/// Smartphone (integrated modem) on 5G.
///
/// Paper targets: 58.89 Mbps at 20 MHz FDD (best 5G FDD device) but only
/// 14.40 Mbps at 50 MHz TDD — the paper's starkest device anomaly, modelled
/// as a large TDD power penalty.
pub(crate) const SMARTPHONE_5G: RadioProfile = RadioProfile {
    power: UplinkPower {
        snr_one_prb: Db(33.3),
        snr_cap: Db(13.5),
    },
    tdd_power_offset: Db(-12.0),
    stable_alloc_mhz: 50.0,
    ln_decay_per_mhz: 0.0,
    host_cap_mbps: None,
};

/// Fig. 6 unit-to-unit spread: "RPi1" trails "RPi2" by ~20% at 90% PRB
/// share (34.73 vs 43.47 Mbps) while nearly matching it at 10% (4.95 vs
/// 5.14), implying a lower single-PRB SNR (power-limited earlier) and a
/// slightly lower saturation SNR.
pub(crate) const RPI_UNIT_A_SNR_ONE_PRB_OFFSET_DB: f64 = -4.5;
/// See [`RPI_UNIT_A_SNR_ONE_PRB_OFFSET_DB`].
pub(crate) const RPI_UNIT_A_SNR_CAP_OFFSET_DB: f64 = -0.8;

/// Stationary shadowing SD (dB) of the lab channel; chosen so per-second
/// iperf3 samples vary with SD ≈ 3–5 Mbps at mid throughput, matching the
/// spread the paper reports for Fig. 6.
pub(crate) const SHADOW_SIGMA_DB: f64 = 1.2;
/// Fast (per-TTI) fading SD in dB.
pub(crate) const FAST_FADE_SIGMA_DB: f64 = 0.4;
/// AR(1) coefficient of the shadowing process per TTI (coherence ≈ 1 s).
pub(crate) const SHADOW_RHO: f64 = 0.999;

/// Per-UE uplink control overhead (PUCCH/SRS) as a fractional rate loss for
/// every connected UE beyond the first.
pub(crate) const PER_EXTRA_UE_OVERHEAD: f64 = 0.04;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phy::{phy_rate_bps, prb_count, LinkAdaptation, Scs};
    use crate::rat::{Rat, TddPattern};
    use crate::units::MHz;

    /// Closed-form single-user throughput (no noise) for a full-grid grant.
    fn closed_form_mbps(profile: &RadioProfile, rat: Rat, scs: Scs, bw: MHz, ul_frac: f64) -> f64 {
        let n = prb_count(rat, scs, bw).unwrap();
        let tdd = if ul_frac < 1.0 {
            profile.tdd_power_offset.0
        } else {
            0.0
        };
        let snr = Db(profile.power.snr(n).0 + tdd);
        let eff = LinkAdaptation::for_rat(rat).efficiency(snr);
        let raw = phy_rate_bps(n, scs, eff, ul_frac) / 1e6 * profile.modem_factor(bw.0);
        match profile.host_cap_mbps {
            Some(cap) => raw.min(cap),
            None => raw,
        }
    }

    #[test]
    fn calibration_hits_paper_endpoints() {
        let ul = TddPattern::uplink_heavy().uplink_fraction();
        // (profile, rat, scs, bw, ul_frac, paper Mbps, tolerance fraction)
        let cases: &[(&RadioProfile, Rat, Scs, f64, f64, f64, f64)] = &[
            // The closed form sits slightly low for the modem-collapsed 4G
            // points; channel jitter (convex rate-vs-SNR) lifts the full
            // TTI simulator to within ~10% (see fig4_single_user).
            (&LAPTOP_4G, Rat::Lte4g, Scs::Khz15, 20.0, 1.0, 10.41, 0.22),
            (&RPI_4G, Rat::Lte4g, Scs::Khz15, 20.0, 1.0, 2.23, 0.35),
            (
                &SMARTPHONE_4G,
                Rat::Lte4g,
                Scs::Khz15,
                20.0,
                1.0,
                43.83,
                0.10,
            ),
            (&LAPTOP_5G, Rat::Nr5g, Scs::Khz15, 20.0, 1.0, 40.83, 0.10),
            (&RPI_5G, Rat::Nr5g, Scs::Khz15, 20.0, 1.0, 52.36, 0.10),
            (
                &SMARTPHONE_5G,
                Rat::Nr5g,
                Scs::Khz15,
                20.0,
                1.0,
                58.89,
                0.10,
            ),
            (&LAPTOP_5G, Rat::Nr5g, Scs::Khz30, 50.0, ul, 58.31, 0.15),
            (&RPI_5G, Rat::Nr5g, Scs::Khz30, 50.0, ul, 65.97, 0.15),
            (&SMARTPHONE_5G, Rat::Nr5g, Scs::Khz30, 50.0, ul, 14.40, 0.30),
        ];
        for &(p, rat, scs, bw, frac, paper, tol) in cases {
            let got = closed_form_mbps(p, rat, scs, MHz(bw), frac);
            let rel = (got - paper).abs() / paper;
            assert!(
                rel < tol,
                "{rat:?} {bw} MHz ul_frac {frac:.3}: model {got:.2} vs paper {paper} (rel {rel:.2})"
            );
        }
    }

    #[test]
    fn ordering_matches_paper() {
        // 4G @ 20 MHz: smartphone > laptop > RPi.
        let s = closed_form_mbps(&SMARTPHONE_4G, Rat::Lte4g, Scs::Khz15, MHz(20.0), 1.0);
        let l = closed_form_mbps(&LAPTOP_4G, Rat::Lte4g, Scs::Khz15, MHz(20.0), 1.0);
        let r = closed_form_mbps(&RPI_4G, Rat::Lte4g, Scs::Khz15, MHz(20.0), 1.0);
        assert!(s > l && l > r, "4G ordering: {s:.1} {l:.1} {r:.1}");
        // 5G FDD @ 20 MHz: smartphone > RPi > laptop.
        let s = closed_form_mbps(&SMARTPHONE_5G, Rat::Nr5g, Scs::Khz15, MHz(20.0), 1.0);
        let l = closed_form_mbps(&LAPTOP_5G, Rat::Nr5g, Scs::Khz15, MHz(20.0), 1.0);
        let r = closed_form_mbps(&RPI_5G, Rat::Nr5g, Scs::Khz15, MHz(20.0), 1.0);
        assert!(s > r && r > l, "5G FDD ordering: {s:.1} {r:.1} {l:.1}");
        // 5G TDD @ 50 MHz: RPi > laptop >> smartphone (the paper's headline
        // crossover: the smartphone wins 4G but loses 5G TDD).
        let ul = TddPattern::uplink_heavy().uplink_fraction();
        let s = closed_form_mbps(&SMARTPHONE_5G, Rat::Nr5g, Scs::Khz30, MHz(50.0), ul);
        let l = closed_form_mbps(&LAPTOP_5G, Rat::Nr5g, Scs::Khz30, MHz(50.0), ul);
        let r = closed_form_mbps(&RPI_5G, Rat::Nr5g, Scs::Khz30, MHz(50.0), ul);
        assert!(
            r > l && l > 2.0 * s,
            "5G TDD ordering: {r:.1} {l:.1} {s:.1}"
        );
    }
}
