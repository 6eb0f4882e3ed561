//! Radio access technology, duplexing, and TDD slot patterns.

/// The radio access technology of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rat {
    /// 4G LTE (eNodeB, 15 kHz subcarrier spacing, 1 ms subframes).
    Lte4g,
    /// 5G NR standalone (gNodeB). FDD deployments in the paper use 15 kHz
    /// subcarrier spacing; TDD deployments use 30 kHz.
    Nr5g,
}

impl Rat {
    /// Human-readable label used in figure output.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Rat::Lte4g => "4G",
            Rat::Nr5g => "5G",
        }
    }
}

/// The direction a TDD slot is assigned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotDir {
    /// Downlink slot: no uplink data capacity.
    Downlink,
    /// Uplink slot: full uplink capacity.
    Uplink,
    /// Special (switching) slot: a guard slot with a few uplink symbols.
    Special,
}

/// A repeating TDD slot pattern, e.g. `DDSUU`.
///
/// srsRAN configures TDD cells with a periodic pattern of downlink, special,
/// and uplink slots. The uplink fraction of the pattern bounds achievable
/// uplink throughput; the paper's TDD cells are uplink-biased because the
/// sensor workload is uplink-dominated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TddPattern {
    slots: Vec<SlotDir>,
}

/// Fraction of a special slot's symbols usable for uplink (guard period and
/// downlink pilots consume the rest). Matches a typical NR S-slot split of
/// 10D:2G:2U symbols.
pub(crate) const SPECIAL_SLOT_UL_FRACTION: f64 = 2.0 / 14.0;

impl TddPattern {
    /// Parse a pattern string of `D`, `S`, and `U` characters.
    ///
    /// Returns `None` if the string is empty or contains other characters.
    pub fn parse(pattern: &str) -> Option<Self> {
        if pattern.is_empty() {
            return None;
        }
        let mut slots = Vec::with_capacity(pattern.len());
        for c in pattern.chars() {
            slots.push(match c.to_ascii_uppercase() {
                'D' => SlotDir::Downlink,
                'U' => SlotDir::Uplink,
                'S' => SlotDir::Special,
                _ => return None,
            });
        }
        Some(TddPattern { slots })
    }

    /// The uplink-biased pattern used for the paper-calibrated TDD cells.
    ///
    /// `DDSUU`: 2 downlink, 1 special, 2 uplink slots per 5-slot period,
    /// giving an uplink duty fraction of (2 + 2/14) / 5 ≈ 0.429.
    pub fn uplink_heavy() -> Self {
        use SlotDir::{Downlink as D, Special as S, Uplink as U};
        TddPattern {
            slots: vec![D, D, S, U, U],
        }
    }

    /// A downlink-heavy pattern (typical eMBB default, `DDDSU`).
    pub fn downlink_heavy() -> Self {
        use SlotDir::{Downlink as D, Special as S, Uplink as U};
        TddPattern {
            slots: vec![D, D, D, S, U],
        }
    }

    /// Number of slots in one period of the pattern.
    pub(crate) fn period(&self) -> usize {
        self.slots.len()
    }

    /// Direction of slot `i` (wraps around the period).
    pub(crate) fn slot(&self, i: usize) -> SlotDir {
        self.slots[i % self.slots.len()]
    }

    /// Long-run fraction of symbol capacity available to the uplink.
    pub fn uplink_fraction(&self) -> f64 {
        let total = self.slots.len() as f64;
        let ul: f64 = self
            .slots
            .iter()
            .map(|s| match s {
                SlotDir::Uplink => 1.0,
                SlotDir::Special => SPECIAL_SLOT_UL_FRACTION,
                SlotDir::Downlink => 0.0,
            })
            .sum();
        ul / total
    }
}

/// Duplexing mode of a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Duplex {
    /// Frequency-division duplexing: a dedicated uplink carrier, so the full
    /// grid is available to the uplink at every TTI.
    Fdd,
    /// Time-division duplexing with the given slot pattern.
    Tdd(TddPattern),
}

impl Duplex {
    /// TDD with the uplink-heavy pattern the prototype uses.
    pub fn tdd_default() -> Self {
        Duplex::Tdd(TddPattern::uplink_heavy())
    }

    /// Short label used in figure output ("FDD"/"TDD").
    pub(crate) fn label(&self) -> &'static str {
        match self {
            Duplex::Fdd => "FDD",
            Duplex::Tdd(_) => "TDD",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_garbage() {
        assert!(TddPattern::parse("").is_none());
        assert!(TddPattern::parse("DDXU").is_none());
    }

    #[test]
    fn parse_case_insensitive() {
        let p = TddPattern::parse("ddsuu").unwrap();
        assert_eq!(p, TddPattern::uplink_heavy());
    }

    #[test]
    fn uplink_fraction_uplink_heavy() {
        let p = TddPattern::uplink_heavy();
        let expect = (2.0 + SPECIAL_SLOT_UL_FRACTION) / 5.0;
        assert!((p.uplink_fraction() - expect).abs() < 1e-12);
    }

    #[test]
    fn uplink_fraction_bounds() {
        let all_ul = TddPattern::parse("UUUU").unwrap();
        assert!((all_ul.uplink_fraction() - 1.0).abs() < 1e-12);
        let all_dl = TddPattern::parse("DDDD").unwrap();
        assert_eq!(all_dl.uplink_fraction(), 0.0);
    }

    #[test]
    fn slot_wraps() {
        let p = TddPattern::parse("DU").unwrap();
        assert_eq!(p.slot(0), SlotDir::Downlink);
        assert_eq!(p.slot(1), SlotDir::Uplink);
        assert_eq!(p.slot(2), SlotDir::Downlink);
        assert_eq!(p.slot(5), SlotDir::Uplink);
    }

    #[test]
    fn labels() {
        assert_eq!(Rat::Lte4g.label(), "4G");
        assert_eq!(Rat::Nr5g.label(), "5G");
        assert_eq!(Duplex::Fdd.label(), "FDD");
        assert_eq!(Duplex::tdd_default().label(), "TDD");
    }

    #[test]
    fn downlink_heavy_has_lower_ul_fraction() {
        assert!(
            TddPattern::downlink_heavy().uplink_fraction()
                < TddPattern::uplink_heavy().uplink_fraction()
        );
    }
}
