//! Software-defined-radio front-end model.
//!
//! The paper's RF front ends are Ettus USRP B210 (production) and B200
//! (development) SDRs, clock-synchronized by an OctoClock. Twice in the
//! evaluation the authors attribute throughput drops to the SDR rather than
//! the air interface: two-user 4G at 20 MHz ("likely due to SDR sampling
//! constraints") and two-user 5G TDD at 50 MHz ("due to SDR limitations").
//!
//! We model this as a multiplicative penalty that engages only when the cell
//! runs at its widest configured bandwidth *and* serves multiple concurrent
//! UEs — the regime where the host must sustain full-rate sample streaming
//! while the scheduler fragments the grid.

use crate::rat::{Duplex, Rat};
use crate::units::MHz;

/// Bandwidth at which multi-UE operation starts to degrade, per RAT and
/// duplex mode.
fn multiuser_limit_mhz(rat: Rat, duplex: &Duplex) -> f64 {
    match (rat, duplex) {
        // LTE at 20 MHz stresses the sampling chain with two UEs.
        (Rat::Lte4g, _) => 20.0,
        // NR FDD in the paper never exceeds 20 MHz and shows no drop.
        (Rat::Nr5g, Duplex::Fdd) => f64::INFINITY,
        // NR TDD at 50 MHz drops with two UEs.
        (Rat::Nr5g, Duplex::Tdd(_)) => 50.0,
    }
}

/// Throughput factor (≤ 1.0) of the B210 front end for a cell at
/// bandwidth `bw` currently serving `n_active` UEs.
pub(crate) fn penalty(rat: Rat, duplex: &Duplex, bw: MHz, n_active: usize) -> f64 {
    if n_active < 2 {
        return 1.0;
    }
    if bw.0 < multiuser_limit_mhz(rat, duplex) {
        return 1.0;
    }
    match rat {
        Rat::Lte4g => 0.60,
        Rat::Nr5g => 0.75,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_never_penalized() {
        for bw in [5.0, 20.0, 50.0] {
            assert_eq!(penalty(Rat::Nr5g, &Duplex::tdd_default(), MHz(bw), 1), 1.0);
        }
    }

    #[test]
    fn two_user_lte_20mhz_penalized() {
        assert!(penalty(Rat::Lte4g, &Duplex::Fdd, MHz(20.0), 2) < 1.0);
        assert_eq!(penalty(Rat::Lte4g, &Duplex::Fdd, MHz(15.0), 2), 1.0);
    }

    #[test]
    fn two_user_nr_tdd_50mhz_penalized() {
        let tdd = Duplex::tdd_default();
        assert!(penalty(Rat::Nr5g, &tdd, MHz(50.0), 2) < 1.0);
        assert_eq!(penalty(Rat::Nr5g, &tdd, MHz(40.0), 2), 1.0);
    }

    #[test]
    fn nr_fdd_never_penalized() {
        assert_eq!(penalty(Rat::Nr5g, &Duplex::Fdd, MHz(20.0), 2), 1.0);
    }
}
