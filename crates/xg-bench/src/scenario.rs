//! Shared bench scenario construction.
//!
//! Every figure bin used to repeat the same ritual: build a
//! [`CellConfig`], maybe bolt on slices, construct a simulator, attach
//! UEs with the paper-default modem for the RAT, wire observability.
//! [`ScenarioBuilder`] centralizes that setup on top of
//! [`LinkSimulator::builder`], so a bin describes *what* it measures
//! (cell shape + UE roster) and nothing else — and every bin surfaces
//! invalid configurations the same way, as a [`NetError`] at `build()`.

use xg_net::device::UnitVariation;
use xg_net::prelude::*;

/// One UE to attach at build time.
#[derive(Debug, Clone)]
struct UeSpec {
    device: DeviceClass,
    modem: Modem,
    snssai: Option<Snssai>,
    variation: UnitVariation,
}

/// Declarative setup for one bench measurement: cell shape, then UE
/// roster, then `build()`.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    cell: CellConfig,
    seed: u64,
    ues: Vec<UeSpec>,
}

/// A built scenario: the simulator plus the attached UE handles in
/// roster order.
pub struct Scenario {
    /// The configured link simulator.
    pub sim: LinkSimulator,
    /// Handles of the roster's UEs, in [`ScenarioBuilder::ue`] order.
    pub ues: Vec<UeHandle>,
}

impl ScenarioBuilder {
    /// A cell of the given shape with no UEs yet.
    pub fn new(rat: Rat, duplex: Duplex, bandwidth_mhz: f64) -> Self {
        ScenarioBuilder {
            cell: CellConfig::new(rat, duplex, MHz(bandwidth_mhz)),
            seed: 0,
            ues: Vec::new(),
        }
    }

    /// Replace the cell's slice layout.
    pub fn slices(mut self, slices: SliceConfig) -> Self {
        self.cell = self.cell.with_slices(slices);
        self
    }

    /// RNG seed for the simulator.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a UE with the paper-default modem for this cell's RAT, on
    /// the default slice, with no unit variation.
    pub fn ue(self, device: DeviceClass) -> Self {
        let modem = Modem::paper_default(device, self.cell.rat);
        self.ue_full(device, modem, None, UnitVariation::default())
    }

    /// Attach a UE on a specific slice with explicit unit variation
    /// (the Fig. 6 two-RPi setup), keeping the paper-default modem.
    pub fn ue_on_slice(
        self,
        device: DeviceClass,
        snssai: Snssai,
        variation: UnitVariation,
    ) -> Self {
        let modem = Modem::paper_default(device, self.cell.rat);
        self.ue_full(device, modem, Some(snssai), variation)
    }

    /// Attach a UE with everything explicit.
    pub(crate) fn ue_full(
        mut self,
        device: DeviceClass,
        modem: Modem,
        snssai: Option<Snssai>,
        variation: UnitVariation,
    ) -> Self {
        self.ues.push(UeSpec {
            device,
            modem,
            snssai,
            variation,
        });
        self
    }

    /// Build the simulator and attach the roster.
    pub fn build(self) -> Result<Scenario, NetError> {
        let mut sim = LinkSimulator::builder(self.cell).seed(self.seed).build()?;
        let mut ues = Vec::with_capacity(self.ues.len());
        for spec in self.ues {
            let ue = match spec.snssai {
                Some(snssai) => sim.attach_with(spec.device, spec.modem, snssai, spec.variation)?,
                None => sim.attach(spec.device, spec.modem)?,
            };
            ues.push(ue);
        }
        Ok(Scenario { sim, ues })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_user_scenario_measures() {
        let mut sc = ScenarioBuilder::new(Rat::Nr5g, Duplex::Fdd, 20.0)
            .seed(42)
            .ue(DeviceClass::RaspberryPi)
            .build()
            .unwrap();
        assert_eq!(sc.ues.len(), 1);
        let mbps = sc.sim.iperf_uplink(sc.ues[0], 5).mean_mbps();
        assert!(mbps > 20.0, "{mbps}");
    }

    #[test]
    fn sliced_two_user_scenario_builds() {
        let sc = ScenarioBuilder::new(Rat::Nr5g, Duplex::tdd_default(), 40.0)
            .slices(SliceConfig::complementary_pair(0.3).unwrap())
            .seed(7)
            .ue_on_slice(
                DeviceClass::RaspberryPi,
                Snssai::miot(1),
                UnitVariation::rpi_unit_a(),
            )
            .ue_on_slice(
                DeviceClass::RaspberryPi,
                Snssai::miot(2),
                UnitVariation::default(),
            )
            .build()
            .unwrap();
        assert_eq!(sc.ues.len(), 2);
    }

    #[test]
    fn invalid_bandwidth_surfaces_as_error() {
        let res = ScenarioBuilder::new(Rat::Nr5g, Duplex::Fdd, 7.0)
            .ue(DeviceClass::Laptop)
            .build();
        assert!(matches!(res, Err(NetError::InvalidBandwidth(_))));
    }
}
