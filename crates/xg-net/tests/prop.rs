//! Property-based invariants of the RAN simulator.

use xg_net::device::UnitVariation;
use xg_net::phy::{LinkAdaptation, UplinkPower};
use xg_net::prelude::*;
use xg_net::rat::TddPattern;
use xg_net::units::Db;
use xg_prop::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uplink power model: per-PRB SNR is non-increasing in the PRB count
    /// and never exceeds the cap.
    #[test]
    fn snr_monotone_in_prbs(
        snr_one in 10.0f64..45.0,
        cap in 0.0f64..20.0,
        n1 in 1u32..270,
        n2 in 1u32..270,
    ) {
        let p = UplinkPower { snr_one_prb: Db(snr_one), snr_cap: Db(cap) };
        let (lo, hi) = (n1.min(n2), n1.max(n2));
        prop_assert!(p.snr(lo).0 >= p.snr(hi).0);
        prop_assert!(p.snr(lo).0 <= cap + 1e-12);
    }

    /// Link adaptation is monotone in SNR and bounded by the MCS ceiling.
    #[test]
    fn link_adaptation_monotone(s1 in -20.0f64..40.0, s2 in -20.0f64..40.0) {
        for rat in [Rat::Lte4g, Rat::Nr5g] {
            let la = LinkAdaptation::for_rat(rat);
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            prop_assert!(la.efficiency(Db(lo)) <= la.efficiency(Db(hi)) + 1e-12);
            prop_assert!(la.efficiency(Db(hi)) <= la.max_eff + 1e-12);
            prop_assert!(la.efficiency(Db(lo)) >= 0.0);
        }
    }

    /// Any parsed TDD pattern has an uplink fraction in [0, 1], and adding
    /// a D slot never raises it.
    #[test]
    fn tdd_fraction_bounds(pattern in "[DSU]{1,12}") {
        let p = TddPattern::parse(&pattern).expect("regex-generated patterns are valid");
        let f = p.uplink_fraction();
        prop_assert!((0.0..=1.0).contains(&f));
        let longer = TddPattern::parse(&format!("{pattern}D")).unwrap();
        prop_assert!(longer.uplink_fraction() <= f + 1e-12);
    }

    /// A single UE's measured throughput is non-negative, finite, and
    /// below the theoretical grid ceiling for every valid NR FDD config.
    #[test]
    fn throughput_within_physical_ceiling(
        bw_idx in 0usize..4,
        device_idx in 0usize..3,
        seed in 0u64..u64::MAX,
    ) {
        let bws = [5.0, 10.0, 15.0, 20.0];
        let device = DeviceClass::all()[device_idx];
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(bws[bw_idx]));
        let mut sim = LinkSimulator::try_new(cell, seed).unwrap();
        let ue = sim.attach(device, Modem::paper_default(device, Rat::Nr5g)).unwrap();
        let mbps = sim.iperf_uplink(ue, 3).mean_mbps();
        prop_assert!(mbps.is_finite() && mbps >= 0.0);
        // Ceiling: full grid at max NR efficiency.
        let prbs = sim.total_prbs() as f64;
        let ceiling = prbs * 168.0 * 1000.0 * 7.4 / 1e6;
        prop_assert!(mbps <= ceiling, "{mbps} vs ceiling {ceiling}");
    }

    /// Complementary slicing: two UEs' rates both positive, and the sum of
    /// quota never exceeds the grid, for any split.
    #[test]
    fn complementary_slices_serve_both(share in 0.05f64..0.95, seed in 0u64..1000) {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0))
            .with_slices(SliceConfig::complementary_pair(share).unwrap());
        let mut sim = LinkSimulator::try_new(cell, seed).unwrap();
        sim.attach_with(DeviceClass::RaspberryPi, Modem::Rm530nGl, Snssai::miot(1), UnitVariation::default()).unwrap();
        sim.attach_with(DeviceClass::RaspberryPi, Modem::Rm530nGl, Snssai::miot(2), UnitVariation::default()).unwrap();
        let results = sim.measure_second();
        prop_assert_eq!(results.len(), 2);
        for (_, mbps) in results {
            prop_assert!(mbps > 0.0, "both slices must be served at share {share}");
        }
    }

    /// SIM provisioning is injective over indices.
    #[test]
    fn sims_unique(a in 0u32..10_000, b in 0u32..10_000) {
        let sa = SimCard::provision(a);
        let sb = SimCard::provision(b);
        prop_assert_eq!(a == b, sa == sb);
        prop_assert_eq!(a == b, sa.imsi == sb.imsi);
    }
}
