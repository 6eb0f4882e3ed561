//! CUPS screen-house geometry.
//!
//! The paper describes the Lindcove CUPS pilot as a ~100 000 m³ screen
//! house covering several acres with 25–30 ft of vertical clearance for
//! tree canopy and harvesting equipment (§2). The default geometry here is
//! 120 m × 100 m × 8.5 m = 102 000 m³, gridded into screen panels whose
//! integrity the breach-detection pipeline monitors.

use crate::breach::Breach;

/// One of the four vertical screen walls (the roof is modelled as a lid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Wall {
    /// x = 0 plane (west).
    West,
    /// x = length plane (east).
    East,
    /// y = 0 plane (south).
    South,
    /// y = width plane (north).
    North,
}

impl Wall {
    /// All four walls.
    pub fn all() -> [Wall; 4] {
        [Wall::West, Wall::East, Wall::South, Wall::North]
    }
}

/// The screen-house model.
#[derive(Debug, Clone, PartialEq)]
pub struct CupsFacility {
    /// Extent along x (m).
    pub length_m: f64,
    /// Extent along y (m).
    pub width_m: f64,
    /// Vertical clearance (m).
    pub height_m: f64,
    /// Screen porosity: fraction of incident airflow admitted by intact
    /// screen (50-mesh anti-psyllid screen passes ~20-30%).
    pub screen_porosity: f64,
    /// Panels per wall (breach localization granularity).
    pub panels_per_wall: usize,
    /// Active breaches.
    pub breaches: Vec<Breach>,
}

impl Default for CupsFacility {
    fn default() -> Self {
        CupsFacility {
            length_m: 120.0,
            width_m: 100.0,
            height_m: 8.5,
            screen_porosity: 0.25,
            panels_per_wall: 12,
            breaches: Vec::new(),
        }
    }
}

impl CupsFacility {
    /// Inject a breach. Panels are indexed 0..panels_per_wall along the
    /// wall; out-of-range indices are clamped.
    pub fn add_breach(&mut self, mut breach: Breach) {
        breach.panel = breach.panel.min(self.panels_per_wall.saturating_sub(1));
        self.breaches.push(breach);
    }

    /// Centre position of a panel in facility coordinates (x, y).
    pub fn panel_center(&self, wall: Wall, panel: usize) -> (f64, f64) {
        let frac = (panel as f64 + 0.5) / self.panels_per_wall as f64;
        match wall {
            Wall::West => (0.0, frac * self.width_m),
            Wall::East => (self.length_m, frac * self.width_m),
            Wall::South => (frac * self.length_m, 0.0),
            Wall::North => (frac * self.length_m, self.width_m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_volume_near_paper() {
        let f = CupsFacility::default();
        let v = f.length_m * f.width_m * f.height_m;
        assert!(
            (90_000.0..=110_000.0).contains(&v),
            "paper: 100,000 m^3; got {v}"
        );
    }

    #[test]
    fn breach_panel_clamped() {
        let mut f = CupsFacility::default();
        f.add_breach(Breach::new(Wall::East, 999, 1.0));
        assert_eq!(f.breaches[0].panel, f.panels_per_wall - 1);
    }

    #[test]
    fn panel_centers_on_walls() {
        let f = CupsFacility::default();
        let (x, y) = f.panel_center(Wall::West, 0);
        assert_eq!(x, 0.0);
        assert!(y > 0.0 && y < f.width_m);
        let (x, _) = f.panel_center(Wall::East, 5);
        assert_eq!(x, f.length_m);
        let (_, y) = f.panel_center(Wall::North, 2);
        assert_eq!(y, f.width_m);
    }
}
