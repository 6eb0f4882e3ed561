//! Boundary conditions for the screen-house solve.
//!
//! The free-stream wind hits the porous screen walls; each wall panel
//! admits `porosity × (wind · inward normal)` of normal inflow. Intact
//! 50-mesh screen has porosity ~0.25; a breached panel approaches 1.0 and
//! admits a jet — the aerodynamic signature the digital twin looks for.

/// Per-panel porosity of one wall (panels indexed along the wall).
#[derive(Debug, Clone, PartialEq)]
pub struct WallPorosity {
    /// Porosity of each panel in [0, 1].
    pub panels: Vec<f64>,
}

impl WallPorosity {
    /// A uniform wall.
    pub(crate) fn uniform(porosity: f64, panels: usize) -> Self {
        WallPorosity {
            panels: vec![porosity.clamp(0.0, 1.0); panels],
        }
    }

    /// Porosity at a fractional position `frac` ∈ [0, 1] along the wall.
    pub(crate) fn at(&self, frac: f64) -> f64 {
        if self.panels.is_empty() {
            return 0.0;
        }
        let idx = ((frac.clamp(0.0, 1.0)) * self.panels.len() as f64) as usize;
        self.panels[idx.min(self.panels.len() - 1)]
    }

    /// Set one panel's porosity (breach injection).
    pub fn set_panel(&mut self, panel: usize, porosity: f64) {
        if let Some(p) = self.panels.get_mut(panel) {
            *p = porosity.clamp(0.0, 1.0);
        }
    }
}

/// Full boundary specification for one solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundarySpec {
    /// Free-stream wind speed (m/s).
    pub wind_speed_ms: f64,
    /// Meteorological wind direction (deg, 0 = from north = blowing −y).
    pub wind_dir_deg: f64,
    /// Ambient (exterior) temperature (°C).
    pub ambient_temp_c: f64,
    /// Ground temperature (°C) — drives buoyancy.
    pub ground_temp_c: f64,
    /// Porosity of the four walls: west (x=0), east, south (y=0), north.
    pub west: WallPorosity,
    /// East wall.
    pub east: WallPorosity,
    /// South wall.
    pub south: WallPorosity,
    /// North wall.
    pub north: WallPorosity,
}

impl BoundarySpec {
    /// Intact screen house under the given wind.
    pub fn intact(wind_speed_ms: f64, wind_dir_deg: f64, ambient_temp_c: f64) -> Self {
        let p = 0.25;
        let n = 12;
        BoundarySpec {
            wind_speed_ms,
            wind_dir_deg,
            ambient_temp_c,
            ground_temp_c: ambient_temp_c + 2.0,
            west: WallPorosity::uniform(p, n),
            east: WallPorosity::uniform(p, n),
            south: WallPorosity::uniform(p, n),
            north: WallPorosity::uniform(p, n),
        }
    }

    /// Wind velocity components (u along +x = east, v along +y = north).
    ///
    /// Meteorological convention: direction is where the wind comes FROM,
    /// so wind from the north (0°) blows southward (−y).
    pub(crate) fn wind_uv(&self) -> (f64, f64) {
        let rad = self.wind_dir_deg.to_radians();
        let u = -self.wind_speed_ms * rad.sin();
        let v = -self.wind_speed_ms * rad.cos();
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wind_vector_convention() {
        // Wind from north (0°) blows toward -y.
        let b = BoundarySpec::intact(5.0, 0.0, 20.0);
        let (u, v) = b.wind_uv();
        assert!(u.abs() < 1e-9);
        assert!((v + 5.0).abs() < 1e-9);
        // Wind from west (270°) blows toward +x.
        let b = BoundarySpec::intact(3.0, 270.0, 20.0);
        let (u, v) = b.wind_uv();
        assert!((u - 3.0).abs() < 1e-9);
        assert!(v.abs() < 1e-6);
    }

    #[test]
    fn porosity_lookup() {
        let mut w = WallPorosity::uniform(0.25, 4);
        w.set_panel(2, 0.9);
        assert_eq!(w.at(0.0), 0.25);
        assert_eq!(w.at(0.6), 0.9); // panel 2 covers [0.5, 0.75)
        assert_eq!(w.at(1.0), 0.25); // clamped into last panel
                                     // Out-of-range set is a no-op.
        w.set_panel(99, 1.0);
        assert_eq!(w.panels.len(), 4);
    }

    #[test]
    fn porosity_clamped() {
        let w = WallPorosity::uniform(3.0, 2);
        assert_eq!(w.at(0.1), 1.0);
        let w = WallPorosity::uniform(-1.0, 2);
        assert_eq!(w.at(0.1), 0.0);
        let empty = WallPorosity { panels: vec![] };
        assert_eq!(empty.at(0.5), 0.0);
    }
}
