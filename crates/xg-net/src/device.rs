//! User-equipment hardware profiles.
//!
//! The paper evaluates three device classes (laptop, Raspberry Pi, commercial
//! smartphone) and two external USB modems (SIM7600G-H for 4G, RM530N-GL for
//! 5G). Device differences dominate several of the paper's results — e.g. the
//! SIM7600G-H collapses beyond 10 MHz, and the smartphone underperforms badly
//! on 5G TDD — so this module encodes each device+modem combination as a
//! `RadioProfile` whose constants are calibrated in `crate::calib`.

use crate::calib;
use crate::phy::UplinkPower;
use crate::rat::Rat;
use crate::units::Db;
use xg_sim::math;

/// The host device class of a UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// x86 laptop with a USB modem.
    Laptop,
    /// Raspberry Pi 4/5 with a USB modem (the production sensor-gateway
    /// hardware of the CUPS deployment).
    RaspberryPi,
    /// Commercial off-the-shelf smartphone (integrated modem).
    Smartphone,
}

impl DeviceClass {
    /// Label used in figure output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            DeviceClass::Laptop => "Laptop",
            DeviceClass::RaspberryPi => "RPi",
            DeviceClass::Smartphone => "Smartphone",
        }
    }

    /// All device classes, in the order the paper's figures present them.
    pub fn all() -> [DeviceClass; 3] {
        [
            DeviceClass::Laptop,
            DeviceClass::RaspberryPi,
            DeviceClass::Smartphone,
        ]
    }
}

/// The modem a UE uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modem {
    /// SIMCom SIM7600G-H: external LTE cat-4 USB modem.
    Sim7600gh,
    /// Quectel RM530N-GL: external 5G sub-6/mmWave USB modem.
    Rm530nGl,
    /// The smartphone's integrated modem.
    Integrated,
}

impl Modem {
    /// Which RAT this modem supports.
    pub(crate) fn supports(self, rat: Rat) -> bool {
        match self {
            Modem::Sim7600gh => rat == Rat::Lte4g,
            Modem::Rm530nGl => rat == Rat::Nr5g,
            Modem::Integrated => true,
        }
    }

    /// The modem the paper pairs with a device class on a given RAT.
    pub fn paper_default(device: DeviceClass, rat: Rat) -> Modem {
        match device {
            DeviceClass::Smartphone => Modem::Integrated,
            _ => match rat {
                Rat::Lte4g => Modem::Sim7600gh,
                Rat::Nr5g => Modem::Rm530nGl,
            },
        }
    }
}

/// Per-unit radio variation, modelling unit-to-unit spread between physically
/// identical devices (the paper's Fig. 6 shows its two Raspberry Pis differ
/// by ~20% at high PRB shares).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UnitVariation {
    /// Offset applied to the single-PRB SNR (dB).
    pub snr_one_prb_db: f64,
    /// Offset applied to the saturation SNR (dB).
    pub snr_cap_db: f64,
}

impl UnitVariation {
    /// The weaker of the paper's two production Raspberry Pis ("RPi1" in
    /// Fig. 6).
    pub fn rpi_unit_a() -> Self {
        UnitVariation {
            snr_one_prb_db: calib::RPI_UNIT_A_SNR_ONE_PRB_OFFSET_DB,
            snr_cap_db: calib::RPI_UNIT_A_SNR_CAP_OFFSET_DB,
        }
    }
}

/// The complete radio behaviour of a device + modem combination on one RAT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RadioProfile {
    /// Uplink transmit-power model.
    pub power: UplinkPower,
    /// Power offset applied when operating on a TDD carrier (dB). Positive
    /// for modems that exploit TDD duty cycling to raise instantaneous
    /// power; strongly negative for the COTS smartphone, whose TDD uplink
    /// the paper measures as anomalously poor.
    pub tdd_power_offset: Db,
    /// Widest *allocated* bandwidth (MHz) the modem handles at full rate.
    pub stable_alloc_mhz: f64,
    /// Natural log of the multiplicative throughput decay per MHz of
    /// allocation beyond [`Self::stable_alloc_mhz`] (0.0 = no decay), so a
    /// grant pays one `exp` and no `ln`.
    pub ln_decay_per_mhz: f64,
    /// Hard cap on sustained uplink rate imposed by the host interface
    /// (e.g. the Raspberry Pi's USB path), in Mbps. `None` = unconstrained.
    pub host_cap_mbps: Option<f64>,
}

/// Panics unless `modem` supports `rat`: [`RadioProfile::lookup`]'s
/// precondition.
#[expect(
    clippy::disallowed_macros,
    reason = "a documented precondition on configuration, checked before any event runs"
)]
fn check_supports(modem: Modem, rat: Rat) {
    assert!(
        modem.supports(rat),
        "{modem:?} does not support {rat:?}; pick a compatible modem"
    );
}

impl RadioProfile {
    /// Look up the calibrated profile for a device + modem on a RAT.
    ///
    /// Panics if the modem does not support the RAT; call
    /// [`Modem::supports`] first when handling user input.
    pub(crate) fn lookup(device: DeviceClass, modem: Modem, rat: Rat) -> RadioProfile {
        check_supports(modem, rat);
        use DeviceClass::*;
        match (device, rat) {
            (Laptop, Rat::Lte4g) => calib::LAPTOP_4G,
            (RaspberryPi, Rat::Lte4g) => calib::RPI_4G,
            (Smartphone, Rat::Lte4g) => calib::SMARTPHONE_4G,
            (Laptop, Rat::Nr5g) => calib::LAPTOP_5G,
            (RaspberryPi, Rat::Nr5g) => calib::RPI_5G,
            (Smartphone, Rat::Nr5g) => calib::SMARTPHONE_5G,
        }
    }

    /// Apply a per-unit variation to this profile.
    pub(crate) fn with_variation(mut self, var: UnitVariation) -> Self {
        self.power.snr_one_prb = Db(self.power.snr_one_prb.0 + var.snr_one_prb_db);
        self.power.snr_cap = Db(self.power.snr_cap.0 + var.snr_cap_db);
        self
    }

    /// Modem throughput factor for an allocation of `alloc_mhz`.
    ///
    /// 1.0 within the stable range, decaying multiplicatively beyond it. This
    /// reproduces the paper's observation that the external SIM7600G-H
    /// "limits performance beyond 10 MHz".
    pub(crate) fn modem_factor(&self, alloc_mhz: f64) -> f64 {
        if alloc_mhz <= self.stable_alloc_mhz {
            1.0
        } else {
            math::exp((alloc_mhz - self.stable_alloc_mhz) * self.ln_decay_per_mhz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modem_rat_support() {
        assert!(Modem::Sim7600gh.supports(Rat::Lte4g));
        assert!(!Modem::Sim7600gh.supports(Rat::Nr5g));
        assert!(Modem::Rm530nGl.supports(Rat::Nr5g));
        assert!(!Modem::Rm530nGl.supports(Rat::Lte4g));
        assert!(Modem::Integrated.supports(Rat::Lte4g));
        assert!(Modem::Integrated.supports(Rat::Nr5g));
    }

    #[test]
    fn paper_default_pairings() {
        assert_eq!(
            Modem::paper_default(DeviceClass::Laptop, Rat::Lte4g),
            Modem::Sim7600gh
        );
        assert_eq!(
            Modem::paper_default(DeviceClass::RaspberryPi, Rat::Nr5g),
            Modem::Rm530nGl
        );
        assert_eq!(
            Modem::paper_default(DeviceClass::Smartphone, Rat::Nr5g),
            Modem::Integrated
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn lookup_rejects_incompatible_modem() {
        RadioProfile::lookup(DeviceClass::Laptop, Modem::Sim7600gh, Rat::Nr5g);
    }

    #[test]
    fn modem_factor_decays_beyond_stable() {
        let p = RadioProfile::lookup(DeviceClass::Laptop, Modem::Sim7600gh, Rat::Lte4g);
        assert_eq!(p.modem_factor(5.0), 1.0);
        assert_eq!(p.modem_factor(p.stable_alloc_mhz), 1.0);
        let f15 = p.modem_factor(15.0);
        let f20 = p.modem_factor(20.0);
        assert!(f15 < 1.0);
        assert!(f20 < f15, "decay must compound with bandwidth");
    }

    #[test]
    fn unit_variation_shifts_power() {
        let base = RadioProfile::lookup(DeviceClass::RaspberryPi, Modem::Rm530nGl, Rat::Nr5g);
        let varied = base.with_variation(UnitVariation::rpi_unit_a());
        assert!(varied.power.snr_one_prb.0 < base.power.snr_one_prb.0);
        assert!(varied.power.snr_cap.0 < base.power.snr_cap.0);
    }

    #[test]
    fn smartphone_tdd_penalty_is_negative() {
        let p = RadioProfile::lookup(DeviceClass::Smartphone, Modem::Integrated, Rat::Nr5g);
        assert!(p.tdd_power_offset.0 < 0.0);
        let rpi = RadioProfile::lookup(DeviceClass::RaspberryPi, Modem::Rm530nGl, Rat::Nr5g);
        assert!(rpi.tdd_power_offset.0 > 0.0);
    }
}
