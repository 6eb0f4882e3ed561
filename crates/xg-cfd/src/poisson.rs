//! Pressure Poisson solver.
//!
//! Solves `∇²p = rhs` with homogeneous Neumann boundaries (and the
//! compatibility gauge fixed by subtracting the mean) using damped Jacobi
//! iteration. Jacobi is chosen over Gauss–Seidel deliberately: every sweep
//! reads only the previous iterate and writes the other of two buffers, so
//! the result is **bitwise identical for any thread count** — the
//! determinism property the solver tests rely on.
//!
//! The sweep is over 90 % of a time step, so each z-slab is walked row by
//! row over equal-length slices: the Neumann mirror is chosen once per row
//! (a boundary row's missing neighbour is the row itself), the two x-edge
//! cells are computed apart, and the interior is a straight loop with no
//! reduction in it, which the compiler vectorises. Every cell evaluates
//! the expression of the cell-by-cell kernel in `crate::reference`, in the
//! same association, and the tests hold the two to the same bits.

use crate::field::Field3;
use rayon::prelude::*;

/// Result of a Poisson solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonStats {
    /// Iterations executed (the cap unless the tolerance tripped first).
    pub iterations: usize,
    /// Max-abs update between the last two iterates: what the tolerance
    /// is tested against, not the residual of `∇²p = rhs`.
    pub residual: f64,
}

/// The `nx` cells of a flat field from `start`: one bounds check per row,
/// and none in the loops over rows of one length.
#[inline]
pub(crate) fn row_at(f: &[f64], start: usize, nx: usize) -> &[f64] {
    &f[start..][..nx]
}

/// `max |a[i] - b[i]|` over eight independent lanes. `max` is exact, so
/// the lane order returns the bits a left-to-right scan would — the one
/// reduction in this crate that may be re-associated.
fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let mut widen = |xa: &[f64], xb: &[f64]| {
        for (lane, (x, y)) in lanes.iter_mut().zip(xa.iter().zip(xb)) {
            // Like `f64::max` from a zero start, this never lets a NaN in.
            let d = (x - y).abs();
            if d > *lane {
                *lane = d;
            }
        }
    };
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    widen(ca.remainder(), cb.remainder());
    ca.zip(cb).for_each(|(xa, xb)| widen(xa, xb));
    lanes.iter().fold(0.0, |m, &x| m.max(x))
}

/// The Jacobi update of cell `i` of a row from its x-neighbours and the
/// rows `[y−, y+, z−, z+, rhs]`. Inlined by force: the row loop vectorises
/// only around the bare expression, and every cell, edge or interior,
/// must evaluate this one.
#[inline(always)]
fn jacobi_cell(i: usize, xm: f64, xp: f64, rows: [&[f64]; 5], coef: [f64; 4]) -> f64 {
    let ([ym, yp, zm, zp, r], [idx2, idy2, idz2, denom]) = (rows, coef);
    ((xm + xp) * idx2 + (ym[i] + yp[i]) * idy2 + (zm[i] + zp[i]) * idz2 - r[i]) / denom
}

/// Solve `∇²p = rhs` in place (p is the initial guess and the result).
///
/// `d` are the cell sizes; iterates until `max_iters` or the max-abs
/// update falls below `tol`. `next` is the second Jacobi buffer, of `p`'s
/// shape: every sweep writes all of it, so its contents on entry do not
/// matter, and the two may come back exchanged — the solve allocates nothing.
pub fn solve(
    p: &mut Field3,
    rhs: &Field3,
    next: &mut Field3,
    d: [f64; 3],
    max_iters: usize,
    tol: f64,
) -> PoissonStats {
    let (nx, ny, nz) = (p.nx, p.ny, p.nz);
    let same_shape = |f: &Field3| (f.nx, f.ny, f.nz) == (nx, ny, nz);
    assert!(same_shape(rhs) && same_shape(next), "p, rhs, next differ");
    let slab = nx * ny;
    let (idx2, idy2, idz2) = (
        1.0 / (d[0] * d[0]),
        1.0 / (d[1] * d[1]),
        1.0 / (d[2] * d[2]),
    );
    let denom = 2.0 * (idx2 + idy2 + idz2);
    let coef = [idx2, idy2, idz2, denom];
    let mut stats = PoissonStats {
        iterations: 0,
        residual: f64::INFINITY,
    };
    for it in 0..max_iters {
        let cur = p.as_slice();
        let rhs_s = rhs.as_slice();
        // Parallel over z-slabs; each slab writes only its own chunk.
        let max_delta = next
            .as_mut_slice()
            .par_chunks_mut(slab)
            .enumerate()
            .map(|(k, out)| {
                // Neumann: mirror at boundaries (ghost = interior), chosen
                // once per slab and per row, not per cell.
                let slab_at = |f, k: usize| row_at(f, k * slab, slab);
                let (c_k, r_k) = (slab_at(cur, k), slab_at(rhs_s, k));
                let zm_k = slab_at(cur, k.saturating_sub(1));
                let zp_k = slab_at(cur, (k + 1).min(nz - 1));
                for (j, o) in out.chunks_exact_mut(nx).enumerate() {
                    let row = |f, j: usize| row_at(f, j * nx, nx);
                    let (ym, yp) = (j.saturating_sub(1), (j + 1).min(ny - 1));
                    let rows = [
                        row(c_k, ym),
                        row(c_k, yp),
                        row(zm_k, j),
                        row(zp_k, j),
                        row(r_k, j),
                    ];
                    let c = row(c_k, j);
                    let last = nx - 1;
                    // The x-edge cells apart, then a straight interior loop
                    // that carries nothing from cell to cell.
                    o[0] = jacobi_cell(0, c[0], c[last.min(1)], rows, coef);
                    o[last] = jacobi_cell(last, c[last.saturating_sub(1)], c[last], rows, coef);
                    for i in 1..last {
                        o[i] = jacobi_cell(i, c[i - 1], c[i + 1], rows, coef);
                    }
                }
                max_abs_diff(out, c_k)
            })
            // xg-lint: allow(float-reduce, max is associative and commutative; result is order-independent)
            .reduce(|| 0.0f64, f64::max);
        std::mem::swap(p, next);
        stats.iterations = it + 1;
        stats.residual = max_delta;
        if max_delta < tol {
            break;
        }
    }
    // Fix the Neumann gauge: zero-mean pressure.
    let mean = p.mean();
    p.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Apply the discrete Neumann Laplacian to a field.
    fn laplacian(p: &Field3, d: [f64; 3]) -> Field3 {
        let (nx, ny, nz) = (p.nx, p.ny, p.nz);
        let mut out = Field3::zeros(nx, ny, nz);
        let (idx2, idy2, idz2) = (
            1.0 / (d[0] * d[0]),
            1.0 / (d[1] * d[1]),
            1.0 / (d[2] * d[2]),
        );
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = p.at(i, j, k);
                    let xm = if i > 0 { p.at(i - 1, j, k) } else { c };
                    let xp = if i + 1 < nx { p.at(i + 1, j, k) } else { c };
                    let ym = if j > 0 { p.at(i, j - 1, k) } else { c };
                    let yp = if j + 1 < ny { p.at(i, j + 1, k) } else { c };
                    let zm = if k > 0 { p.at(i, j, k - 1) } else { c };
                    let zp = if k + 1 < nz { p.at(i, j, k + 1) } else { c };
                    out.set(
                        i,
                        j,
                        k,
                        (xm + xp - 2.0 * c) * idx2
                            + (ym + yp - 2.0 * c) * idy2
                            + (zm + zp - 2.0 * c) * idz2,
                    );
                }
            }
        }
        out
    }

    #[test]
    fn solves_manufactured_problem() {
        // rhs = ∇² of a known zero-mean field; the solver must recover a
        // field whose Laplacian matches rhs.
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
                        (std::f64::consts::PI * x).cos()
                            * (std::f64::consts::PI * y).cos()
                            * (0.5 * std::f64::consts::PI * z).cos(),
                    );
                }
            }
        }
        let rhs = laplacian(&truth, d);
        let mut p = Field3::zeros(nx, ny, nz);
        let stats = solve(&mut p, &rhs, &mut rhs.clone(), d, 20_000, 1e-12);
        assert!(stats.residual < 1e-10, "residual {}", stats.residual);
        // Laplacian of the answer matches rhs.
        let lap = laplacian(&p, d);
        let mut max_err = 0.0f64;
        for (a, b) in lap.as_slice().iter().zip(rhs.as_slice()) {
            max_err = max_err.max((a - b).abs());
        }
        assert!(max_err < 1e-8, "max laplacian error {max_err}");
    }

    #[test]
    fn zero_rhs_gives_zero_mean_constant() {
        let rhs = Field3::zeros(8, 8, 4);
        let mut p = Field3::filled(8, 8, 4, 5.0);
        solve(&mut p, &rhs, &mut rhs.clone(), [1.0, 1.0, 1.0], 100, 1e-12);
        // Constant field with the gauge removed: everything ~0.
        assert!(p.max_abs() < 1e-9);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (nx, ny, nz) = (12, 10, 6);
        let mut rhs = Field3::zeros(nx, ny, nz);
        for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
            // Deterministic pseudo-random rhs.
            *v = ((i as f64 * 0.7312).sin() * 10.0).fract();
        }
        // Zero-mean rhs for compatibility.
        let mean = rhs.mean();
        rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);

        let solve_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut p = Field3::zeros(nx, ny, nz);
            let rhs = rhs.clone();
            pool.install(|| solve(&mut p, &rhs, &mut rhs.clone(), [1.0, 1.0, 1.0], 200, 0.0));
            p
        };
        let p1 = solve_with(1);
        let p4 = solve_with(4);
        assert_eq!(
            p1.as_slice(),
            p4.as_slice(),
            "Jacobi must be bitwise deterministic across thread counts"
        );
    }

    #[test]
    fn any_grid_matches_reference_and_exits_on_the_same_iteration() {
        use crate::reference::{self, assert_same_bits};
        // Axis lengths of 1 and 2 are all mirror; the others leave interior
        // rows of 1 to 11 cells (odd ones end in a scalar tail) and slabs
        // that are not a whole number of the max pass's eight lanes.
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
            [13, 3, 3],
        ];
        for [nx, ny, nz] in shapes {
            let mut rhs = Field3::zeros(nx, ny, nz);
            for (i, v) in rhs.as_mut_slice().iter_mut().enumerate() {
                *v = ((i as f64 * 0.7312).sin() * 10.0).fract();
            }
            let mean = rhs.mean();
            rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
            let run = |cap: usize, tol: f64| {
                let (mut got, mut want) = (rhs.clone(), rhs.clone());
                let mut next = Field3::filled(nx, ny, nz, f64::NAN);
                let got_stats = solve(&mut got, &rhs, &mut next, [2.5, 1.7, 0.85], cap, tol);
                let want_stats = reference::solve(&mut want, &rhs, [2.5, 1.7, 0.85], cap, tol);
                assert_same_bits(&format!("p, cap {cap}, tol {tol:e}"), &got, &want);
                assert_eq!(got_stats.iterations, want_stats.iterations);
                assert_eq!(got_stats.residual.to_bits(), want_stats.residual.to_bits());
                got_stats
            };
            // Once to the cap, once with a tolerance the update first falls
            // under part-way there.
            let capped = run(25, 0.0);
            assert_eq!(capped.iterations, 25);
            let tripped = run(200, capped.residual * 1.5);
            assert!(tripped.iterations <= 25 || capped.residual == 0.0);
            assert!(
                tripped.iterations > 1 || nx * ny * nz <= 8,
                "{nx}x{ny}x{nz}"
            );
        }
    }

    #[test]
    fn early_exit_on_tolerance() {
        let rhs = Field3::zeros(8, 8, 4);
        let mut p = Field3::zeros(8, 8, 4);
        let stats = solve(&mut p, &rhs, &mut rhs.clone(), [1.0, 1.0, 1.0], 1000, 1e-9);
        assert!(stats.iterations < 10, "converged in {}", stats.iterations);
    }
}
