//! Screen breach model.
//!
//! §2: unobserved events (bird strike, foraging fauna, theft damage) tear
//! the protective screen; "detecting and rapidly repairing screen breaches
//! in the commercial scale CUPS is a critical open problem." A breach is a
//! hole in one panel; its aerodynamic effect is a local porosity increase
//! that shows up as a wind-speed anomaly at nearby stations and as a
//! divergence between CFD prediction and measurement.

use crate::facility::Wall;

/// A hole in a screen panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breach {
    /// Which wall is damaged.
    pub wall: Wall,
    /// Panel index along the wall.
    pub panel: usize,
    /// Open area of the tear (m²).
    pub area_m2: f64,
}

impl Breach {
    /// A breach of `area_m2` square metres in the given panel.
    pub fn new(wall: Wall, panel: usize, area_m2: f64) -> Self {
        Breach {
            wall,
            panel,
            area_m2: area_m2.max(0.0),
        }
    }

    /// A typical bird-strike tear (~0.5 m²).
    pub fn bird_strike(wall: Wall, panel: usize) -> Self {
        Breach::new(wall, panel, 0.5)
    }

    /// A large equipment tear (~6 m²).
    pub fn equipment_tear(wall: Wall, panel: usize) -> Self {
        Breach::new(wall, panel, 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_area_clamped() {
        let b = Breach::new(Wall::North, 0, -3.0);
        assert_eq!(b.area_m2, 0.0);
    }

    #[test]
    fn presets_ordered_by_severity() {
        let small = Breach::bird_strike(Wall::East, 1);
        let big = Breach::equipment_tear(Wall::East, 1);
        assert!(big.area_m2 > small.area_m2);
    }
}
