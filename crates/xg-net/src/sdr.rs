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

/// USRP model driving a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdrModel {
    /// Ettus USRP B210 (2x2, 56 MS/s): the production network front end.
    B210,
    /// Ettus USRP B200 (1x1, 56 MS/s): the development network front end.
    B200,
}

/// SDR front-end throughput model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SdrFrontend {
    /// The USRP model.
    pub model: SdrModel,
}

impl SdrFrontend {
    /// The production front end (B210).
    pub fn production() -> Self {
        SdrFrontend {
            model: SdrModel::B210,
        }
    }

    /// Bandwidth at which multi-UE operation starts to degrade, per RAT and
    /// duplex mode.
    fn multiuser_limit_mhz(&self, rat: Rat, duplex: &Duplex) -> f64 {
        match (rat, duplex) {
            // LTE at 20 MHz stresses the sampling chain with two UEs.
            (Rat::Lte4g, _) => 20.0,
            // NR FDD in the paper never exceeds 20 MHz and shows no drop.
            (Rat::Nr5g, Duplex::Fdd) => f64::INFINITY,
            // NR TDD at 50 MHz drops with two UEs.
            (Rat::Nr5g, Duplex::Tdd(_)) => 50.0,
        }
    }

    /// Throughput factor (≤ 1.0) for a cell at bandwidth `bw` currently
    /// serving `n_active` UEs.
    pub fn penalty(&self, rat: Rat, duplex: &Duplex, bw: MHz, n_active: usize) -> f64 {
        if n_active < 2 {
            return 1.0;
        }
        let limit = self.multiuser_limit_mhz(rat, duplex);
        if bw.0 < limit {
            return 1.0;
        }
        match rat {
            Rat::Lte4g => 0.60,
            Rat::Nr5g => 0.75,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_never_penalized() {
        let sdr = SdrFrontend::production();
        for bw in [5.0, 20.0, 50.0] {
            assert_eq!(
                sdr.penalty(Rat::Nr5g, &Duplex::tdd_default(), MHz(bw), 1),
                1.0
            );
        }
    }

    #[test]
    fn two_user_lte_20mhz_penalized() {
        let sdr = SdrFrontend::production();
        assert!(sdr.penalty(Rat::Lte4g, &Duplex::Fdd, MHz(20.0), 2) < 1.0);
        assert_eq!(sdr.penalty(Rat::Lte4g, &Duplex::Fdd, MHz(15.0), 2), 1.0);
    }

    #[test]
    fn two_user_nr_tdd_50mhz_penalized() {
        let sdr = SdrFrontend::production();
        let tdd = Duplex::tdd_default();
        assert!(sdr.penalty(Rat::Nr5g, &tdd, MHz(50.0), 2) < 1.0);
        assert_eq!(sdr.penalty(Rat::Nr5g, &tdd, MHz(40.0), 2), 1.0);
    }

    #[test]
    fn nr_fdd_never_penalized() {
        let sdr = SdrFrontend::production();
        assert_eq!(sdr.penalty(Rat::Nr5g, &Duplex::Fdd, MHz(20.0), 2), 1.0);
    }
}
