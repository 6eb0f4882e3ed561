//! Flat 3-D scalar fields.
//!
//! Storage is a single `Vec<f64>` indexed `(k * ny + j) * nx + i`, so a
//! z-slab (one k) is contiguous — the unit of rayon parallelism in the
//! solver sweeps.

/// A scalar field on an `nx × ny × nz` grid.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Field3 {
    /// Cells along x.
    pub nx: usize,
    /// Cells along y.
    pub ny: usize,
    /// Cells along z.
    pub nz: usize,
    data: Vec<f64>,
}

impl Field3 {
    /// A field initialized to `value`.
    pub(crate) fn filled(nx: usize, ny: usize, nz: usize, value: f64) -> Self {
        Field3 {
            nx,
            ny,
            nz,
            data: vec![value; nx * ny * nz],
        }
    }

    /// A zero field.
    pub(crate) fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Field3::filled(nx, ny, nz, 0.0)
    }

    /// Total cell count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the grid is degenerate.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear index of `(i, j, k)`.
    #[inline(always)]
    pub(crate) fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        (k * self.ny + j) * self.nx + i
    }

    /// Read `(i, j, k)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Write `(i, j, k)`.
    #[inline(always)]
    pub(crate) fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    /// Raw slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable slice.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Mean value.
    pub(crate) fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }

    /// Cells per z-slab (`nx * ny`).
    #[inline]
    pub(crate) fn slab_len(&self) -> usize {
        self.nx * self.ny
    }

    /// Trilinear interpolation at fractional grid coordinates (clamped to
    /// the grid), for point probes like the digital twin's station
    /// comparisons.
    pub(crate) fn probe_trilinear(&self, fx: f64, fy: f64, fz: f64) -> f64 {
        let cx = fx.clamp(0.0, (self.nx - 1) as f64);
        let cy = fy.clamp(0.0, (self.ny - 1) as f64);
        let cz = fz.clamp(0.0, (self.nz - 1) as f64);
        let (i0, j0, k0) = (
            cx.floor() as usize,
            cy.floor() as usize,
            cz.floor() as usize,
        );
        let (i1, j1, k1) = (
            (i0 + 1).min(self.nx - 1),
            (j0 + 1).min(self.ny - 1),
            (k0 + 1).min(self.nz - 1),
        );
        let (tx, ty, tz) = (cx - i0 as f64, cy - j0 as f64, cz - k0 as f64);
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let c00 = lerp(self.at(i0, j0, k0), self.at(i1, j0, k0), tx);
        let c10 = lerp(self.at(i0, j1, k0), self.at(i1, j1, k0), tx);
        let c01 = lerp(self.at(i0, j0, k1), self.at(i1, j0, k1), tx);
        let c11 = lerp(self.at(i0, j1, k1), self.at(i1, j1, k1), tx);
        lerp(lerp(c00, c10, ty), lerp(c01, c11, ty), tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut f = Field3::zeros(4, 3, 2);
        assert_eq!(f.len(), 24);
        f.set(1, 2, 1, 7.5);
        assert_eq!(f.at(1, 2, 1), 7.5);
        assert_eq!(f.as_slice()[f.idx(1, 2, 1)], 7.5);
        // Slabs are contiguous: idx(i, j, k) - idx(0, 0, k) < slab_len.
        assert!(f.idx(3, 2, 1) - f.idx(0, 0, 1) < f.slab_len());
    }

    #[test]
    fn stats() {
        let mut f = Field3::filled(2, 2, 1, 1.0);
        f.set(0, 0, 0, -5.0);
        assert_eq!(f.max_abs(), 5.0);
        assert_eq!(f.mean(), -0.5);
    }

    #[test]
    fn probe_clamps() {
        let mut f = Field3::zeros(3, 3, 3);
        f.set(2, 2, 2, 9.0);
        assert_eq!(f.probe_trilinear(10.0, 10.0, 10.0), 9.0);
        f.set(0, 0, 0, 4.0);
        assert_eq!(f.probe_trilinear(-3.0, -1.0, 0.0), 4.0);
    }

    #[test]
    fn trilinear_interpolates_linearly() {
        // A field linear in x: f(i) = 2i. Interpolation must be exact.
        let mut f = Field3::zeros(4, 3, 3);
        for k in 0..3 {
            for j in 0..3 {
                for i in 0..4 {
                    f.set(i, j, k, 2.0 * i as f64);
                }
            }
        }
        assert!((f.probe_trilinear(1.5, 1.0, 1.0) - 3.0).abs() < 1e-12);
        assert!((f.probe_trilinear(2.25, 0.5, 2.0) - 4.5).abs() < 1e-12);
        // At grid points it matches the stored value.
        assert_eq!(f.probe_trilinear(3.0, 2.0, 2.0), 6.0);
        // Clamped outside the grid.
        assert_eq!(f.probe_trilinear(99.0, 99.0, 99.0), 6.0);
        assert_eq!(f.probe_trilinear(-5.0, 0.0, 0.0), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_bounds_debug_panics() {
        let f = Field3::zeros(2, 2, 2);
        f.at(2, 0, 0);
    }
}
