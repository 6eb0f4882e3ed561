//! Structured hexahedral mesh generation for the screen-house domain.
//!
//! The paper's pipeline generates an OpenFOAM mesh of the CUPS structure
//! before every solve; mesh generation is part of the "total execution
//! time" Fig. 7 plots and is inherently serial, which is what bends the
//! strong-scaling curve. This module reproduces both the geometry work
//! (cell typing, canopy blocks, per-panel wall porosity) and its serial
//! cost profile.

/// What occupies a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellType {
    /// Open air.
    Fluid,
    /// Tree canopy: fluid with a drag sink.
    Canopy,
}

/// An axis-aligned canopy block (a tree row) in domain coordinates (m).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanopyBlock {
    /// Lower corner (m).
    pub min: [f64; 3],
    /// Upper corner (m).
    pub max: [f64; 3],
}

/// Physical description of the domain to mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// Domain size (m): x, y, z.
    pub size_m: [f64; 3],
    /// Target cells along each axis.
    pub cells: [usize; 3],
    /// Tree rows.
    pub canopy: Vec<CanopyBlock>,
}

impl DomainSpec {
    /// The CUPS screen house (120 × 100 × 8.5 m) with north-south tree
    /// rows, at a default example resolution.
    pub fn cups_default() -> Self {
        let mut canopy = Vec::new();
        // Ten tree rows, 4 m wide, 4.5 m tall, running the width of the
        // house with 8 m aisles.
        let mut x = 8.0;
        while x + 4.0 < 120.0 {
            canopy.push(CanopyBlock {
                min: [x, 4.0, 0.0],
                max: [x + 4.0, 96.0, 4.5],
            });
            x += 12.0;
        }
        DomainSpec {
            size_m: [120.0, 100.0, 8.5],
            cells: [48, 40, 10],
            canopy,
        }
    }

    /// Same geometry at a different resolution.
    pub fn with_cells(mut self, nx: usize, ny: usize, nz: usize) -> Self {
        self.cells = [nx, ny, nz];
        self
    }
}

/// The generated mesh.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
    /// Cell size (m) along each axis.
    pub d: [f64; 3],
    /// Cell types, indexed `(k * ny + j) * nx + i`.
    pub cell_type: Vec<CellType>,
}

impl Mesh {
    /// Generate a mesh from a domain spec. This is the serial phase of the
    /// CFD pipeline.
    ///
    /// Panics on a degenerate spec (zero cells or non-positive size).
    pub fn generate(spec: &DomainSpec) -> Mesh {
        let [nx, ny, nz] = spec.cells;
        assert!(nx > 2 && ny > 2 && nz > 2, "mesh must be at least 3^3");
        assert!(
            spec.size_m.iter().all(|&s| s > 0.0),
            "domain size must be positive"
        );
        let d = [
            spec.size_m[0] / nx as f64,
            spec.size_m[1] / ny as f64,
            spec.size_m[2] / nz as f64,
        ];
        let mut cell_type = vec![CellType::Fluid; nx * ny * nz];
        for k in 0..nz {
            let z = (k as f64 + 0.5) * d[2];
            for j in 0..ny {
                let y = (j as f64 + 0.5) * d[1];
                for i in 0..nx {
                    let x = (i as f64 + 0.5) * d[0];
                    let inside_canopy = spec.canopy.iter().any(|c| {
                        x >= c.min[0]
                            && x <= c.max[0]
                            && y >= c.min[1]
                            && y <= c.max[1]
                            && z >= c.min[2]
                            && z <= c.max[2]
                    });
                    if inside_canopy {
                        cell_type[(k * ny + j) * nx + i] = CellType::Canopy;
                    }
                }
            }
        }
        Mesh {
            nx,
            ny,
            nz,
            d,
            cell_type,
        }
    }

    /// Total cells.
    pub fn cell_count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Type of cell `(i, j, k)`.
    #[cfg(test)]
    pub(crate) fn cell(&self, i: usize, j: usize, k: usize) -> CellType {
        self.cell_type[(k * self.ny + j) * self.nx + i]
    }

    /// Domain size (m).
    pub fn size_m(&self) -> [f64; 3] {
        [
            self.nx as f64 * self.d[0],
            self.ny as f64 * self.d[1],
            self.nz as f64 * self.d[2],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canopy_fraction(mesh: &Mesh) -> f64 {
        let canopy = mesh
            .cell_type
            .iter()
            .filter(|&&c| c == CellType::Canopy)
            .count();
        canopy as f64 / mesh.cell_count() as f64
    }

    #[test]
    fn cups_mesh_generates() {
        let mesh = Mesh::generate(&DomainSpec::cups_default());
        assert_eq!(mesh.cell_count(), 48 * 40 * 10);
        let frac = canopy_fraction(&mesh);
        assert!(
            frac > 0.05 && frac < 0.5,
            "tree rows should occupy a plausible fraction: {frac}"
        );
        let size = mesh.size_m();
        assert!((size[0] - 120.0).abs() < 1e-9);
        assert!((size[2] - 8.5).abs() < 1e-9);
    }

    #[test]
    fn canopy_cells_in_right_places() {
        let mesh = Mesh::generate(&DomainSpec::cups_default());
        // Top layer is above the 4.5 m canopy.
        let top = mesh.nz - 1;
        for j in 0..mesh.ny {
            for i in 0..mesh.nx {
                assert_eq!(mesh.cell(i, j, top), CellType::Fluid);
            }
        }
        // Perimeter aisle (y near 0) has no canopy.
        for i in 0..mesh.nx {
            assert_eq!(mesh.cell(i, 0, 0), CellType::Fluid);
        }
    }

    #[test]
    fn resolution_override() {
        let spec = DomainSpec::cups_default().with_cells(24, 20, 6);
        let mesh = Mesh::generate(&spec);
        assert_eq!(mesh.cell_count(), 24 * 20 * 6);
        // Cell sizes scale inversely with resolution.
        assert!((mesh.d[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn canopy_fraction_roughly_resolution_independent() {
        let coarse = Mesh::generate(&DomainSpec::cups_default().with_cells(24, 20, 6));
        let fine = Mesh::generate(&DomainSpec::cups_default().with_cells(96, 80, 20));
        assert!(
            (canopy_fraction(&coarse) - canopy_fraction(&fine)).abs() < 0.08,
            "{} vs {}",
            canopy_fraction(&coarse),
            canopy_fraction(&fine)
        );
    }

    #[test]
    #[should_panic(expected = "at least 3^3")]
    fn degenerate_spec_rejected() {
        Mesh::generate(&DomainSpec::cups_default().with_cells(1, 40, 10));
    }
}
