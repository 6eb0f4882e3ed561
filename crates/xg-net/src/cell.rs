//! Cell configuration: the static parameters of one gNodeB/eNodeB carrier.

use crate::error::Result;
use crate::mac::SchedulerKind;
use crate::phy::{prb_count, Scs};
use crate::rat::{Duplex, Rat};
use crate::slice::SliceConfig;
use crate::units::MHz;

/// Static configuration of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Radio access technology.
    pub rat: Rat,
    /// Duplexing mode (and TDD pattern if applicable).
    pub duplex: Duplex,
    /// Channel bandwidth.
    pub bandwidth: MHz,
    /// Subcarrier spacing.
    pub scs: Scs,
    /// Slice table.
    pub slices: SliceConfig,
    /// MAC scheduling discipline.
    pub scheduler: SchedulerKind,
    /// Maximum concurrently attached UEs.
    pub max_ues: usize,
}

impl CellConfig {
    /// Build a cell with the deployment defaults the paper uses:
    /// 15 kHz SCS for LTE and NR FDD, 30 kHz for NR TDD; round-robin
    /// scheduling; a single unsliced grid; 32-UE capacity.
    pub fn new(rat: Rat, duplex: Duplex, bandwidth: MHz) -> Self {
        let scs = match (rat, &duplex) {
            (Rat::Lte4g, _) => Scs::Khz15,
            (Rat::Nr5g, Duplex::Fdd) => Scs::Khz15,
            (Rat::Nr5g, Duplex::Tdd(_)) => Scs::Khz30,
        };
        CellConfig {
            rat,
            duplex,
            bandwidth,
            scs,
            slices: SliceConfig::unsliced(),
            scheduler: SchedulerKind::RoundRobin,
            max_ues: 32,
        }
    }

    /// Replace the slice table.
    pub fn with_slices(mut self, slices: SliceConfig) -> Self {
        self.slices = slices;
        self
    }

    /// Replace the scheduler discipline.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        self.scheduler = kind;
        self
    }

    /// Total uplink PRBs of the grid. Errors if the bandwidth is not a valid
    /// 3GPP channel bandwidth for the RAT/SCS combination.
    pub(crate) fn total_prbs(&self) -> Result<u32> {
        prb_count(self.rat, self.scs, self.bandwidth)
    }

    /// A short human-readable description, e.g. `5G TDD 40 MHz`.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} MHz",
            self.rat.label(),
            self.duplex.label(),
            self.bandwidth.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scs_defaults_follow_deployment() {
        assert_eq!(
            CellConfig::new(Rat::Lte4g, Duplex::Fdd, MHz(10.0)).scs,
            Scs::Khz15
        );
        assert_eq!(
            CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(10.0)).scs,
            Scs::Khz15
        );
        assert_eq!(
            CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0)).scs,
            Scs::Khz30
        );
    }

    #[test]
    fn total_prbs_consistent_with_tables() {
        let c = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0));
        assert_eq!(c.total_prbs().unwrap(), 106);
        let bad = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(7.0));
        assert!(bad.total_prbs().is_err());
    }

    #[test]
    fn describe_format() {
        let c = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0));
        assert_eq!(c.describe(), "5G TDD 40 MHz");
    }
}
