//! Pressure Poisson solver.
//!
//! Solves `∇²p = rhs` on the uniform box with homogeneous Neumann walls
//! directly. The cell-centred 7-point Laplacian with mirrored ghost cells
//! is diagonalised exactly by a cosine transform (DCT-II) along each axis:
//! mode `a` of an axis of `n` cells of size `h` is `cos(π a (i + ½) / n)`
//! with eigenvalue `−4 sin²(π a / 2n) / h²`. So
//! `p = C⁻¹[(C · rhs) / (λx + λy + λz)]`, with the constant mode — whose
//! eigenvalue is zero — set to zero, which is the zero-mean gauge. One
//! solve satisfies the discrete equation to round-off; there is no
//! iteration count and no tolerance.
//!
//! The transforms are dense: each axis is a matrix product applied as
//! row updates `out_row += coef · in_row` over x-contiguous rows, which
//! the compiler vectorises, at `O(N · (nx + ny + nz))` per solve. Every
//! output element is summed in one fixed order and every pass writes one
//! z-slab per `par_chunks_mut` chunk, so the result is **bitwise identical
//! for any thread count** — the determinism property the solver tests rely
//! on — and equal, bit for bit, to the cell-by-cell cosine sums kept in
//! `crate::reference`. The matrices are built once per mesh
//! ([`PoissonPlan::new`]); a solve ping-pongs between its two fields and
//! allocates nothing.

use crate::field::Field3;
use rayon::prelude::*;
use std::f64::consts::PI;

/// The `nx` cells of a flat field from `start`: one bounds check per row,
/// and none in the loops over rows of one length.
#[inline]
pub(crate) fn row_at(f: &[f64], start: usize, nx: usize) -> &[f64] {
    &f[start..][..nx]
}

/// The orthonormal DCT-II matrix of an axis of `n` cells, row `a` holding
/// mode `a`: its transpose is its inverse.
fn cosine_matrix(n: usize) -> Vec<f64> {
    let mut c = Vec::with_capacity(n * n);
    for a in 0..n {
        let norm = (if a == 0 { 1.0 } else { 2.0 } / n as f64).sqrt();
        // The angle is reduced in integers, so high modes lose nothing to
        // a large argument.
        c.extend((0..n).map(|i| {
            let m = (a * (2 * i + 1)) % (4 * n);
            norm * (PI * m as f64 / (2 * n) as f64).cos()
        }));
    }
    c
}

/// `out = Σ_r coef[r] · rows[r]` over the rows of `out`'s length in `rows`,
/// summed from zero in the order of `r`.
#[inline]
fn combine(out: &mut [f64], rows: &[f64], coef: impl Iterator<Item = f64>) {
    out.fill(0.0);
    for (row, c) in rows.chunks_exact(out.len()).zip(coef) {
        for (o, x) in out.iter_mut().zip(row) {
            *o += c * x;
        }
    }
}

/// Column `col` of a row-major `n × n` matrix.
fn column(m: &[f64], n: usize, col: usize) -> impl Iterator<Item = f64> + '_ {
    m[col..].iter().step_by(n).copied()
}

/// One pass of a solve: every z-slab of `out` from all of `input`.
fn each_slab(out: &mut Field3, input: &Field3, f: impl Fn(usize, &mut [f64], &[f64]) + Sync) {
    let slab = out.slab_len();
    let input = input.as_slice();
    out.as_mut_slice()
        .par_chunks_mut(slab)
        .enumerate()
        .for_each(|(k, o)| f(k, o, input));
}

/// The cosine matrices and eigenvalues of one mesh: what a direct solve
/// needs beyond its two fields.
#[derive(Debug, Clone)]
pub struct PoissonPlan {
    shape: [usize; 3],
    /// [`cosine_matrix`] per axis. Mixing rows along y or z reads one
    /// matrix by row (forward) or by column (inverse); along x the rows
    /// mixed are the matrix's own, so the forward pass keeps a transpose.
    cx: Vec<f64>,
    cx_t: Vec<f64>,
    cy: Vec<f64>,
    cz: Vec<f64>,
    /// Eigenvalues of the mirrored second difference, x then y then z.
    eig: Vec<f64>,
}

impl PoissonPlan {
    /// Plan solves on an `[nx, ny, nz]` grid of cell sizes `d`.
    pub fn new(shape: [usize; 3], d: [f64; 3]) -> Self {
        let [nx, ny, nz] = shape;
        let cx = cosine_matrix(nx);
        let cx_t = (0..nx * nx).map(|at| cx[at % nx * nx + at / nx]).collect();
        let eig = (0..3)
            .flat_map(|axis| {
                let (n, h) = (shape[axis], d[axis]);
                (0..n).map(move |a| {
                    let s = (PI * a as f64 / (2 * n) as f64).sin();
                    -4.0 * s * s / (h * h)
                })
            })
            .collect();
        PoissonPlan {
            shape,
            cx,
            cx_t,
            cy: cosine_matrix(ny),
            cz: cosine_matrix(nz),
            eig,
        }
    }

    /// Solve `∇²p = rhs`. `p`'s contents on entry do not matter (there is
    /// no initial guess); `rhs` is the other buffer of the ping-pong and
    /// comes back overwritten. A `rhs` that is not zero-mean is solved for
    /// its zero-mean part.
    pub fn solve(&self, p: &mut Field3, rhs: &mut Field3) {
        let [nx, ny, nz] = self.shape;
        let same_shape = |f: &Field3| [f.nx, f.ny, f.nz] == self.shape;
        assert!(same_shape(p) && same_shape(rhs), "p, rhs, plan differ");
        let slab = nx * ny;
        let (cx, cx_t, cy, cz) = (&self.cx[..], &self.cx_t[..], &self.cy[..], &self.cz[..]);
        let (ex, eyz) = self.eig.split_at(nx);
        let (ey, ez) = eyz.split_at(ny);

        // Along x the cells of a row are mixed, so the row's values are
        // the coefficients and the matrix supplies the rows.
        let along_x = |matrix| {
            move |k: usize, out: &mut [f64], input: &[f64]| {
                let rows = row_at(input, k * slab, slab).chunks_exact(nx);
                for (o, row) in out.chunks_exact_mut(nx).zip(rows) {
                    combine(o, matrix, row.iter().copied());
                }
            }
        };
        // To modes, x then y then z, dividing by the eigenvalue where the
        // last pass has the spectrum in hand.
        each_slab(p, rhs, along_x(cx_t));
        each_slab(rhs, p, |k, out, input| {
            let rows = row_at(input, k * slab, slab);
            for (b, o) in out.chunks_exact_mut(nx).enumerate() {
                combine(o, rows, row_at(cy, b * ny, ny).iter().copied());
            }
        });
        each_slab(p, rhs, |c, out, input| {
            combine(out, input, row_at(cz, c * nz, nz).iter().copied());
            for (b, o) in out.chunks_exact_mut(nx).enumerate() {
                let eyz = ey[b] + ez[c];
                for (x, ex_a) in o.iter_mut().zip(ex) {
                    *x /= ex_a + eyz;
                }
            }
            if c == 0 {
                out[0] = 0.0; // the constant mode: 0/0 above
            }
        });
        // And back, z then y then x.
        each_slab(rhs, p, |k, out, input| {
            combine(out, input, column(cz, nz, k))
        });
        each_slab(p, rhs, |k, out, input| {
            let rows = row_at(input, k * slab, slab);
            for (j, o) in out.chunks_exact_mut(nx).enumerate() {
                combine(o, rows, column(cy, ny, j));
            }
        });
        each_slab(rhs, p, along_x(cx));
        std::mem::swap(p, rhs);
    }
}

/// `max |∇²p − rhs|` under the solver's mirrored Neumann walls: how far
/// `p` is from satisfying the discrete equation.
pub fn residual(p: &Field3, rhs: &Field3, d: [f64; 3]) -> f64 {
    let (nx, ny, nz) = (p.nx, p.ny, p.nz);
    let [idx2, idy2, idz2] = d.map(|h| 1.0 / (h * h));
    let mut worst = 0.0f64;
    for k in 0..nz {
        let (km, kp) = (k.saturating_sub(1), (k + 1).min(nz - 1));
        for j in 0..ny {
            let (jm, jp) = (j.saturating_sub(1), (j + 1).min(ny - 1));
            for i in 0..nx {
                let (im, ip) = (i.saturating_sub(1), (i + 1).min(nx - 1));
                let c2 = 2.0 * p.at(i, j, k);
                let lap = (p.at(im, j, k) + p.at(ip, j, k) - c2) * idx2
                    + (p.at(i, jm, k) + p.at(i, jp, k) - c2) * idy2
                    + (p.at(i, j, km) + p.at(i, j, kp) - c2) * idz2;
                worst = worst.max((lap - rhs.at(i, j, k)).abs());
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, assert_same_bits, laplacian, max_abs_diff};

    /// Deterministic zero-mean noise.
    fn noise(nx: usize, ny: usize, nz: usize) -> Field3 {
        let mut rhs = Field3::zeros(nx, ny, nz);
        for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
            *v = ((i as f64 * 0.7312).sin() * 10.0).fract();
        }
        let mean = rhs.mean();
        rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
        rhs
    }

    /// The solution of `rhs`, from a `p` that starts as garbage.
    fn solved(rhs: &Field3, d: [f64; 3]) -> Field3 {
        let mut p = Field3::filled(rhs.nx, rhs.ny, rhs.nz, f64::NAN);
        PoissonPlan::new([rhs.nx, rhs.ny, rhs.nz], d).solve(&mut p, &mut rhs.clone());
        p
    }

    #[test]
    fn solves_manufactured_problem() {
        // rhs = ∇² of a known zero-mean field: the solver must hand that
        // field back, not merely one with the right Laplacian.
        let (nx, ny, nz) = (16, 12, 8);
        let d = [1.0, 1.0, 1.0];
        let mut truth = Field3::zeros(nx, ny, nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let x = i as f64 / nx as f64;
                    let y = j as f64 / ny as f64;
                    let z = k as f64 / nz as f64;
                    truth.set(
                        i,
                        j,
                        k,
                        (PI * x).cos() * (PI * y).cos() * (0.5 * PI * z).cos(),
                    );
                }
            }
        }
        let mean = truth.mean();
        truth.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
        let rhs = laplacian(&truth, d);
        let p = solved(&rhs, d);
        let worst = max_abs_diff(&p, &truth);
        assert!(worst < 1e-12, "max error {worst:e}");
        // `residual` is the oracle's Laplacian held against `rhs`.
        let (res, want) = (residual(&p, &rhs, d), max_abs_diff(&laplacian(&p, d), &rhs));
        assert!(
            res < 1e-12 && (res - want).abs() < 1e-14,
            "{res:e}, {want:e}"
        );
    }

    #[test]
    fn zero_rhs_gives_zero_mean_constant() {
        let p = solved(&Field3::zeros(8, 8, 4), [1.0, 1.0, 1.0]);
        // The constant is the gauge's: zero, whatever `p` held before.
        assert_eq!(p.max_abs(), 0.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (nx, ny, nz) = (12, 10, 6);
        let rhs = noise(nx, ny, nz);
        let solve_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| solved(&rhs, [1.0, 1.0, 1.0]))
        };
        let p1 = solve_with(1);
        let p4 = solve_with(4);
        assert_eq!(
            p1.as_slice(),
            p4.as_slice(),
            "the solve must be bitwise deterministic across thread counts"
        );
    }

    #[test]
    fn any_grid_matches_reference_bit_for_bit() {
        // Axis lengths of 1, 2 and 3, odd and prime ones, rows that end in
        // a scalar tail, and cells eight times flatter than they are wide.
        let shapes = [
            [1, 1, 1],
            [2, 5, 1],
            [7, 1, 3],
            [2, 2, 2],
            [3, 4, 2],
            [5, 3, 4],
            [6, 5, 3],
            [9, 2, 5],
            [11, 6, 2],
            [13, 3, 7],
        ];
        for [nx, ny, nz] in shapes {
            let d = [2.5, 1.7, 0.3];
            let rhs = noise(nx, ny, nz);
            let p = solved(&rhs, d);
            assert_same_bits("p", &p, &reference::solve(&rhs, d));
            let scale = rhs.max_abs();
            let res = residual(&p, &rhs, d);
            assert!(res <= 1e-12 * scale, "{nx}x{ny}x{nz}: {res:e} of {scale}");
            assert!(p.mean().abs() <= 1e-13 * p.max_abs(), "{nx}x{ny}x{nz}");
        }
    }

    #[test]
    fn a_mean_in_the_source_is_ignored() {
        let d = [2.5, 2.5, 0.85];
        let rhs = noise(6, 5, 4);
        let mut shifted = rhs.clone();
        shifted.as_mut_slice().iter_mut().for_each(|x| *x += 3.0);
        let (p, q) = (solved(&rhs, d), solved(&shifted, d));
        let worst = max_abs_diff(&p, &q);
        assert!(worst < 1e-12 * p.max_abs(), "{worst:e}");
    }
}
