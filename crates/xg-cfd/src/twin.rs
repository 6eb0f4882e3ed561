//! Digital-twin comparison and breach localization.
//!
//! §2: "once the model is calibrated, a deviation between predicted and
//! measured airflow can portend a possible screen breach and, perhaps, an
//! area of the structure where the breach may have occurred." The twin
//! compares the CFD prediction (run with *intact*-screen boundary
//! conditions) against in-situ measurements; a significant positive
//! residual flags a breach, and the wall panel nearest the largest local
//! residual localizes it for robot dispatch.

use crate::solver::Simulation;

/// One interior measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Position (m).
    pub x: f64,
    /// Position (m).
    pub y: f64,
    /// Position (m).
    pub z: f64,
    /// Measured horizontal wind speed (m/s).
    pub wind_ms: f64,
}

/// Twin verdict for one comparison cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct TwinReport {
    /// Mean measured minus predicted wind (m/s).
    pub mean_residual_ms: f64,
    /// Largest single-point residual (m/s).
    pub max_residual_ms: f64,
    /// Index (into the measurement list) of the largest residual.
    pub max_residual_point: usize,
    /// Whether the divergence exceeds the breach threshold.
    pub breach_suspected: bool,
    /// Suspected breach region: the (x, y) of the most anomalous
    /// measurement, projected to the nearest wall.
    pub suspect_region: Option<(f64, f64)>,
}

/// The digital twin: prediction vs measurement comparator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DigitalTwin {
    /// Residual (m/s) above which a breach is suspected. Must sit above
    /// the calibrated model error + sensor noise floor.
    pub breach_threshold_ms: f64,
}

impl Default for DigitalTwin {
    fn default() -> Self {
        DigitalTwin {
            breach_threshold_ms: 0.35,
        }
    }
}

/// Decay length (m) assumed for a breach jet when matching the residual
/// pattern against candidate wall panels.
const LOCALIZE_DECAY_M: f64 = 40.0;

impl DigitalTwin {
    /// Compare and, on suspicion, localize the breach against a candidate
    /// list of wall-panel centres (m) via a matched filter: the panel whose
    /// exponential-decay footprint best correlates with the residual
    /// pattern wins. With an empty candidate list the most anomalous
    /// measurement is projected to the nearest wall instead.
    pub fn compare_with_candidates(
        &self,
        sim: &Simulation,
        measurements: &[Measurement],
        candidates: &[(f64, f64)],
    ) -> Option<TwinReport> {
        if measurements.is_empty() {
            return None;
        }
        let mut residuals = Vec::with_capacity(measurements.len());
        for m in measurements {
            let predicted = sim.wind_speed_at(m.x, m.y, m.z);
            residuals.push(m.wind_ms - predicted);
        }
        let mean = residuals.iter().sum::<f64>() / residuals.len() as f64;
        let (max_idx, max_res) = residuals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, &r)| (i, r))?;
        let breach = max_res > self.breach_threshold_ms;
        let suspect = if !breach {
            None
        } else if candidates.is_empty() {
            let m = measurements[max_idx];
            let size = sim.mesh.size_m();
            Some(nearest_wall_point(m.x, m.y, size[0], size[1]))
        } else {
            candidates
                .iter()
                .map(|&(cx, cy)| {
                    // Normalized matched-filter score of this candidate's
                    // decay footprint against the residual pattern.
                    let mut dot = 0.0;
                    let mut norm = 0.0;
                    for (m, &r) in measurements.iter().zip(&residuals) {
                        let d = ((m.x - cx).powi(2) + (m.y - cy).powi(2)).sqrt();
                        let w = (-d / LOCALIZE_DECAY_M).exp();
                        dot += r * w;
                        norm += w * w;
                    }
                    ((cx, cy), dot / norm.sqrt().max(1e-12))
                })
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(pos, _)| pos)
        };
        Some(TwinReport {
            mean_residual_ms: mean,
            max_residual_ms: max_res,
            max_residual_point: max_idx,
            breach_suspected: breach,
            suspect_region: suspect,
        })
    }
}

/// Project an interior point to the nearest wall (x, y).
fn nearest_wall_point(x: f64, y: f64, lx: f64, ly: f64) -> (f64, f64) {
    let d_west = x;
    let d_east = lx - x;
    let d_south = y;
    let d_north = ly - y;
    let min = d_west.min(d_east).min(d_south).min(d_north);
    if min == d_west {
        (0.0, y)
    } else if min == d_east {
        (lx, y)
    } else if min == d_south {
        (x, 0.0)
    } else {
        (x, ly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundarySpec;
    use crate::mesh::{DomainSpec, Mesh};
    use crate::solver::SolverConfig;

    fn predicted_sim() -> Simulation {
        let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(20, 16, 6));
        let mut s = Simulation::new(
            mesh,
            BoundarySpec::intact(6.0, 270.0, 22.0),
            SolverConfig::default(),
        );
        s.run(60);
        s
    }

    fn probe_points(sim: &Simulation) -> Vec<(f64, f64, f64)> {
        let size = sim.mesh.size_m();
        vec![
            (size[0] * 0.25, size[1] * 0.25, 4.0),
            (size[0] * 0.75, size[1] * 0.25, 4.0),
            (size[0] * 0.5, size[1] * 0.5, 4.0),
            (size[0] * 0.25, size[1] * 0.75, 4.0),
            (size[0] * 0.75, size[1] * 0.75, 4.0),
        ]
    }

    #[test]
    fn matching_measurements_no_breach() {
        let sim = predicted_sim();
        let measurements: Vec<Measurement> = probe_points(&sim)
            .into_iter()
            .map(|(x, y, z)| Measurement {
                x,
                y,
                z,
                wind_ms: sim.wind_speed_at(x, y, z) + 0.05, // small sensor noise
            })
            .collect();
        let report = DigitalTwin::default()
            .compare_with_candidates(&sim, &measurements, &[])
            .unwrap();
        assert!(!report.breach_suspected, "{report:?}");
        assert!(report.suspect_region.is_none());
        assert!(report.mean_residual_ms.abs() < 0.2);
    }

    #[test]
    fn breach_measurements_flagged_and_localized() {
        let sim = predicted_sim();
        let pts = probe_points(&sim);
        let measurements: Vec<Measurement> = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| Measurement {
                x,
                y,
                z,
                // Point 0 at (0.25·L, 0.25·W) — nearest the south wall —
                // sees a jet.
                wind_ms: sim.wind_speed_at(x, y, z) + if i == 0 { 1.5 } else { 0.02 },
            })
            .collect();
        let report = DigitalTwin::default()
            .compare_with_candidates(&sim, &measurements, &[])
            .unwrap();
        assert!(report.breach_suspected);
        assert_eq!(report.max_residual_point, 0);
        let (_, wy) = report.suspect_region.unwrap();
        assert_eq!(wy, 0.0, "suspect region on the south wall");
    }

    #[test]
    fn empty_measurements_none() {
        let sim = predicted_sim();
        assert!(DigitalTwin::default()
            .compare_with_candidates(&sim, &[], &[])
            .is_none());
    }

    #[test]
    fn nearest_wall_projection() {
        assert_eq!(nearest_wall_point(1.0, 50.0, 120.0, 100.0), (0.0, 50.0));
        assert_eq!(nearest_wall_point(119.0, 50.0, 120.0, 100.0), (120.0, 50.0));
        assert_eq!(nearest_wall_point(60.0, 2.0, 120.0, 100.0), (60.0, 0.0));
        assert_eq!(nearest_wall_point(60.0, 99.0, 120.0, 100.0), (60.0, 100.0));
    }

    #[test]
    fn threshold_controls_sensitivity() {
        let sim = predicted_sim();
        let pts = probe_points(&sim);
        let measurements: Vec<Measurement> = pts
            .iter()
            .map(|&(x, y, z)| Measurement {
                x,
                y,
                z,
                wind_ms: sim.wind_speed_at(x, y, z) + 0.3,
            })
            .collect();
        let strict = DigitalTwin {
            breach_threshold_ms: 0.1,
        };
        let lax = DigitalTwin {
            breach_threshold_ms: 1.0,
        };
        assert!(
            strict
                .compare_with_candidates(&sim, &measurements, &[])
                .unwrap()
                .breach_suspected
        );
        assert!(
            !lax.compare_with_candidates(&sim, &measurements, &[])
                .unwrap()
                .breach_suspected
        );
    }
}
