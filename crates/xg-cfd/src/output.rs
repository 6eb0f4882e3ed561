//! Field output: the Fig. 3 "sample output" panel.
//!
//! The paper's artifact renders OpenFOAM's VTK output with ParaView into a
//! PNG of the airflow around the farm, "with the wind velocity represented
//! by color gradients". Here the equivalent raster is produced directly:
//! a horizontal slice of velocity magnitude written as CSV (for plotting)
//! or as a binary PGM image (directly viewable grayscale).

use crate::solver::Simulation;
use std::fmt::Write as _;

/// Velocity-magnitude raster of the horizontal slice at level `k`.
///
/// Returns `(nx, ny, values)` with `values[j * nx + i]` in m/s.
pub fn velocity_magnitude_slice(sim: &Simulation, k: usize) -> (usize, usize, Vec<f64>) {
    let (nx, ny) = (sim.u.nx, sim.u.ny);
    let k = k.min(sim.u.nz - 1);
    let mut out = vec![0.0; nx * ny];
    for j in 0..ny {
        for i in 0..nx {
            let u = sim.u.at(i, j, k);
            let v = sim.v.at(i, j, k);
            let w = sim.w.at(i, j, k);
            out[j * nx + i] = (u * u + v * v + w * w).sqrt();
        }
    }
    (nx, ny, out)
}

/// CSV rendering of a slice: header row `x0..x{nx-1}`, one row per j.
pub fn slice_to_csv(nx: usize, ny: usize, values: &[f64]) -> String {
    assert_eq!(values.len(), nx * ny);
    let mut s = String::with_capacity(nx * ny * 8);
    for j in 0..ny {
        for i in 0..nx {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{:.4}", values[j * nx + i]);
        }
        s.push('\n');
    }
    s
}

/// Legacy-ASCII VTK structured-points dataset of the full state: velocity
/// vectors, velocity magnitude, pressure, and temperature. This is the
/// format the paper's pipeline hands to ParaView.
pub fn to_vtk(sim: &Simulation, title: &str) -> String {
    let (nx, ny, nz) = (sim.u.nx, sim.u.ny, sim.u.nz);
    let [dx, dy, dz] = sim.mesh.d;
    let n = nx * ny * nz;
    let mut s = String::with_capacity(n * 64);
    s.push_str("# vtk DataFile Version 3.0\n");
    let _ = writeln!(s, "{title}");
    s.push_str("ASCII\nDATASET STRUCTURED_POINTS\n");
    let _ = writeln!(s, "DIMENSIONS {nx} {ny} {nz}");
    let _ = writeln!(s, "ORIGIN {} {} {}", dx / 2.0, dy / 2.0, dz / 2.0);
    let _ = writeln!(s, "SPACING {dx} {dy} {dz}");
    let _ = writeln!(s, "POINT_DATA {n}");
    s.push_str("VECTORS velocity double\n");
    for k in 0..nz {
        for j in 0..ny {
            for i in 0..nx {
                let _ = writeln!(
                    s,
                    "{:.5} {:.5} {:.5}",
                    sim.u.at(i, j, k),
                    sim.v.at(i, j, k),
                    sim.w.at(i, j, k)
                );
            }
        }
    }
    for (name, field) in [("pressure", &sim.p), ("temperature", &sim.t)] {
        let _ = writeln!(s, "SCALARS {name} double 1");
        s.push_str("LOOKUP_TABLE default\n");
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let _ = writeln!(s, "{:.5}", field.at(i, j, k));
                }
            }
        }
    }
    s
}

/// Binary PGM (P5) rendering with auto-scaled intensity.
pub fn slice_to_pgm(nx: usize, ny: usize, values: &[f64]) -> Vec<u8> {
    assert_eq!(values.len(), nx * ny);
    let max = values.iter().cloned().fold(1e-12f64, f64::max);
    let mut out = format!("P5\n{nx} {ny}\n255\n").into_bytes();
    out.extend(values.iter().map(|&v| ((v / max) * 255.0).round() as u8));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundarySpec;
    use crate::mesh::{DomainSpec, Mesh};
    use crate::solver::SolverConfig;

    fn sim() -> Simulation {
        let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(12, 10, 4));
        let mut s = Simulation::new(
            mesh,
            BoundarySpec::intact(5.0, 270.0, 22.0),
            SolverConfig::default(),
        );
        s.run(10);
        s
    }

    #[test]
    fn slice_extracts_magnitudes() {
        let s = sim();
        let (nx, ny, vals) = velocity_magnitude_slice(&s, 2);
        assert_eq!(vals.len(), nx * ny);
        assert!(vals.iter().all(|v| *v >= 0.0 && v.is_finite()));
        assert!(vals.iter().any(|v| *v > 0.0), "flow must be visible");
        // k clamped.
        let (_, _, top) = velocity_magnitude_slice(&s, 999);
        assert_eq!(top.len(), nx * ny);
    }

    #[test]
    fn csv_shape() {
        let s = sim();
        let (nx, ny, vals) = velocity_magnitude_slice(&s, 2);
        let csv = slice_to_csv(nx, ny, &vals);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), ny);
        assert_eq!(lines[0].split(',').count(), nx);
    }

    #[test]
    fn vtk_dataset_well_formed() {
        let s = sim();
        let vtk = to_vtk(&s, "cups test");
        assert!(vtk.starts_with("# vtk DataFile Version 3.0\n"));
        assert!(vtk.contains("DATASET STRUCTURED_POINTS"));
        assert!(vtk.contains(&format!("DIMENSIONS {} {} {}", s.u.nx, s.u.ny, s.u.nz)));
        assert!(vtk.contains("VECTORS velocity double"));
        assert!(vtk.contains("SCALARS pressure double 1"));
        assert!(vtk.contains("SCALARS temperature double 1"));
        // One vector line per point plus two scalar blocks of n lines.
        let n = s.u.nx * s.u.ny * s.u.nz;
        let data_lines = vtk
            .lines()
            .filter(|l| {
                l.chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit() || c == '-')
            })
            .count();
        // n vector lines + 2n scalar lines + a handful of header numerics.
        assert!(data_lines >= 3 * n, "{data_lines} vs {}", 3 * n);
    }

    #[test]
    fn pgm_header_and_size() {
        let s = sim();
        let (nx, ny, vals) = velocity_magnitude_slice(&s, 2);
        let pgm = slice_to_pgm(nx, ny, &vals);
        let header = format!("P5\n{nx} {ny}\n255\n");
        assert!(pgm.starts_with(header.as_bytes()));
        assert_eq!(pgm.len(), header.len() + nx * ny);
        // Max intensity cell is 255.
        assert!(pgm[header.len()..].contains(&255));
    }
}
