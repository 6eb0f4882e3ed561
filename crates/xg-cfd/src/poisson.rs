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
//! Each transform is folded by the cosine matrix's mirror symmetry,
//! `C[a][n−1−i] = (−1)ᵃ C[a][i]`: even modes see only `x_i + x_{n−1−i}`
//! and odd modes only `x_{n−1−i} − x_i`. So an axis is a butterfly and
//! two half-matrices, `⌈n/2⌉²` and `⌊n/2⌋²`, applied as sums of scaled
//! x-contiguous rows, `out_row = Σ_r coef_r · in_row_r`:
//! `2N · Σ (⌈n/2⌉² + ⌊n/2⌋²) / n` multiply-adds per solve,
//! `N · (nx + ny + nz)` on even axes, half the dense `n × n` products'.
//! Each sum is register-blocked: blocks of 8 output lanes, then of 4
//! and of 1, are summed over all the input rows in an array the compiler
//! keeps in vector registers, and stored once.
//! Along each axis the spectrum is stored evens then odds, the
//! eigenvalues in the same order, so the constant mode is still index 0.
//! Every output element is summed in one fixed order, the butterflies are
//! element-wise, and every pass writes one z-slab at a time on the
//! calling thread, so the result is equal, bit for bit, to the
//! cell-by-cell folded sums in `crate::reference`, which also keeps the
//! dense sums as an accuracy oracle. The tables are built once per mesh
//! ([`PoissonPlan::new`]), in one allocation; a solve ping-pongs between
//! its two fields and allocates nothing.

use crate::field::Field3;
use std::f64::consts::PI;

/// The `nx` cells of a flat field from `start`: one bounds check per row,
/// and none in the loops over rows of one length.
#[inline]
pub(crate) fn row_at(f: &[f64], start: usize, nx: usize) -> &[f64] {
    &f[start..][..nx]
}

/// Entry `(a, i)` of the orthonormal DCT-II matrix of an axis of `n`
/// cells: mode `a` at cell `i`.
fn cosine(n: usize, a: usize, i: usize) -> f64 {
    let norm = (if a == 0 { 1.0 } else { 2.0 } / n as f64).sqrt();
    // The angle is reduced in integers, so high modes lose nothing to a
    // large argument.
    let m = (a * (2 * i + 1)) % (4 * n);
    norm * (PI * m as f64 / (2 * n) as f64).cos()
}

/// The even and odd halves of an axis of `n` cells: `⌈n/2⌉` and `⌊n/2⌋`.
fn halves(n: usize) -> [usize; 2] {
    [n - n / 2, n / 2]
}

/// The mode at index `r` of an axis's spectrum: evens, then odds.
fn mode_at(n: usize, r: usize) -> usize {
    let [evens, _] = halves(n);
    if r < evens {
        2 * r
    } else {
        2 * (r - evens) + 1
    }
}

/// Appends the half-matrices of an axis of `n` cells to `t`: the even
/// one, modes `2e` over the cells `j < ⌈n/2⌉`, then the odd one, modes
/// `2o + 1` over the cells `⌈n/2⌉ + j`. Row `r` holds mode `r` of its
/// half or, `transposed`, cell `r`.
fn push_halves(t: &mut Vec<f64>, n: usize, transposed: bool) {
    let [evens, odds] = halves(n);
    for (len, parity, first_cell) in [(evens, 0, 0), (odds, 1, evens)] {
        for r in 0..len {
            for c in 0..len {
                let (mode, cell) = if transposed { (c, r) } else { (r, c) };
                t.push(cosine(n, 2 * mode + parity, first_cell + cell));
            }
        }
    }
}

/// The butterfly of a fold: the mirror cells `a = x_j`, `b = x_{n−1−j}`
/// become the even half's `a + b` and the odd half's `b − a`.
#[inline]
fn fold(a: f64, b: f64) -> (f64, f64) {
    (a + b, b - a)
}

/// [`fold`] undone: the even half's `u_j` and the odd half's `v_{n−1−j}`
/// become the cells `x_j = u − v` and `x_{n−1−j} = u + v`.
#[inline]
fn unfold(u: f64, v: f64) -> (f64, f64) {
    (u - v, u + v)
}

/// `pair` applied in place to the mirror lines `(j, n − 1 − j)` of the
/// `n` lines of `len` values in `f`. An odd axis's middle line is its
/// own mirror and stays as it is.
fn butterfly(f: &mut [f64], len: usize, pair: impl Fn(f64, f64) -> (f64, f64)) {
    let [evens, _] = halves(f.len() / len);
    let (lo, hi) = f.split_at_mut(evens * len);
    for (lo, hi) in lo.chunks_exact_mut(len).zip(hi.chunks_exact_mut(len).rev()) {
        for (a, b) in lo.iter_mut().zip(hi) {
            (*a, *b) = pair(*a, *b);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Multiply-adds [`combine`] has done on this thread.
    static MULTIPLY_ADDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `out = Σ_r coef[r] · rows[r]` over the rows of `out`'s length in `rows`,
/// summed from zero in the order of `r`. The lanes go in blocks of 8,
/// then 4, then 1, each summed over every row in registers and stored
/// once, so a row of `out` is written once instead of once per row of
/// `rows`; every lane still sees the same sum in the same order.
#[inline]
fn combine(out: &mut [f64], rows: &[f64], coef: impl Iterator<Item = f64> + Clone) {
    let n = out.len();
    if n == 0 {
        return; // the odd half of an axis of one cell
    }
    let mut at = 0;
    while at + 8 <= n {
        block::<8>(&mut out[at..][..8], rows, n, at, coef.clone());
        at += 8;
    }
    if at + 4 <= n {
        block::<4>(&mut out[at..][..4], rows, n, at, coef.clone());
        at += 4;
    }
    while at < n {
        block::<1>(&mut out[at..][..1], rows, n, at, coef.clone());
        at += 1;
    }
}

/// Lanes `at..at + B` of [`combine`]: `B` accumulators over every row of
/// `n` values in `rows`, starting from zero.
#[inline(always)]
fn block<const B: usize>(
    out: &mut [f64],
    rows: &[f64],
    n: usize,
    at: usize,
    coef: impl Iterator<Item = f64>,
) {
    let mut acc = [0.0; B];
    for (row, c) in rows.chunks_exact(n).zip(coef) {
        #[cfg(test)]
        MULTIPLY_ADDS.with(|m| m.set(m.get() + B as u64));
        for (a, x) in acc.iter_mut().zip(&row[at..][..B]) {
            *a += c * x;
        }
    }
    out.copy_from_slice(&acc);
}

/// Column `col` of a row-major `n × n` matrix.
fn column(m: &[f64], n: usize, col: usize) -> impl Iterator<Item = f64> + Clone + '_ {
    m[col..].iter().step_by(n).copied()
}

/// Line `r` of one axis's transform of the `n` folded lines of `input`,
/// each as long as `out`: the even half-matrix mixes the first `⌈n/2⌉`
/// lines into lines `r < ⌈n/2⌉`, the odd one the rest into the rest.
/// Forward, `r` is a mode and the half-matrix is read by row; `inverse`,
/// a cell and by column.
fn mix(out: &mut [f64], input: &[f64], r: usize, [even, odd]: [&[f64]; 2], inverse: bool) {
    let [evens, odds] = halves(input.len() / out.len());
    let (lo, hi) = input.split_at(evens * out.len());
    let (rows, m, k, r) = if r < evens {
        (lo, even, evens, r)
    } else {
        (hi, odd, odds, r - evens)
    };
    if inverse {
        combine(out, rows, column(m, k, r));
    } else {
        combine(out, rows, row_at(m, r * k, k).iter().copied());
    }
}

/// One pass of a solve: every z-slab of `out` from all of `input`.
fn each_slab(out: &mut Field3, input: &Field3, f: impl Fn(usize, &mut [f64], &[f64])) {
    let slab = out.slab_len();
    let input = input.as_slice();
    out.as_mut_slice()
        .chunks_mut(slab)
        .enumerate()
        .for_each(|(k, o)| f(k, o, input));
}

/// The half-matrices and eigenvalues of one mesh: what a direct solve
/// needs beyond its two fields.
#[derive(Debug, Clone)]
pub(crate) struct PoissonPlan {
    shape: [usize; 3],
    /// Every table of a solve, in one allocation: [`push_halves`] of x, y
    /// and z, then of x transposed (along x the cells of a row are mixed,
    /// so the forward pass there mixes the half-matrices' columns), then the
    /// eigenvalues of the mirrored second difference of x, y and z, in
    /// spectrum order.
    tables: Vec<f64>,
}

impl PoissonPlan {
    /// Plan solves on an `[nx, ny, nz]` grid of cell sizes `d`.
    pub(crate) fn new(shape: [usize; 3], d: [f64; 3]) -> Self {
        let [nx, ny, nz] = shape;
        let squares = |n| halves(n).iter().map(|h| h * h).sum::<usize>();
        let len = 2 * squares(nx) + squares(ny) + squares(nz) + nx + ny + nz;
        let mut tables = Vec::with_capacity(len);
        for (n, transposed) in [(nx, false), (ny, false), (nz, false), (nx, true)] {
            push_halves(&mut tables, n, transposed);
        }
        for (n, h) in shape.into_iter().zip(d) {
            tables.extend((0..n).map(|r| {
                let s = (PI * mode_at(n, r) as f64 / (2 * n) as f64).sin();
                -4.0 * s * s / (h * h)
            }));
        }
        PoissonPlan { shape, tables }
    }

    /// Solve `∇²p = rhs`. `p`'s contents on entry do not matter (there is
    /// no initial guess); `rhs` is the other buffer of the ping-pong and
    /// comes back overwritten. A `rhs` that is not zero-mean is solved for
    /// its zero-mean part.
    pub(crate) fn solve(&self, p: &mut Field3, rhs: &mut Field3) {
        let [nx, ny, nz] = self.shape;
        let same_shape = |f: &Field3| [f.nx, f.ny, f.nz] == self.shape;
        assert!(same_shape(p) && same_shape(rhs), "p, rhs, plan differ");
        let slab = nx * ny;
        let mut rest = &self.tables[..];
        let mut take = |len: usize| {
            let (head, tail) = rest.split_at(len);
            rest = tail;
            head
        };
        let [cx, cy, cz, cx_t] = [nx, ny, nz, nx].map(|n| halves(n).map(|h| take(h * h)));
        let [ex, ey, ez] = self.shape.map(take);
        let [evens, odds] = halves(nx);

        // To modes, x then y then z, dividing by the eigenvalue where the
        // last pass has the spectrum in hand. Along x the cells of a row
        // are mixed, so the row's folded values are the coefficients and
        // the half-matrices supply the rows; the slab is then folded along
        // y, and the field along z, for the passes that mix whole rows.
        each_slab(p, rhs, |k, out, input| {
            let rows = row_at(input, k * slab, slab).chunks_exact(nx);
            for (o, row) in out.chunks_exact_mut(nx).zip(rows) {
                let (lo, hi) = row.split_at(evens);
                let (even, odd) = o.split_at_mut(evens);
                let sums = lo.iter().zip(hi.iter().rev()).map(|(&a, &b)| fold(a, b).0);
                combine(even, cx_t[0], sums.chain(lo[odds..].iter().copied()));
                let diffs = hi.iter().zip(lo[..odds].iter().rev());
                combine(odd, cx_t[1], diffs.map(|(&b, &a)| fold(a, b).1));
            }
            butterfly(out, nx, fold);
        });
        each_slab(rhs, p, |k, out, input| {
            let rows = row_at(input, k * slab, slab);
            for (b, o) in out.chunks_exact_mut(nx).enumerate() {
                mix(o, rows, b, cy, false);
            }
        });
        butterfly(rhs.as_mut_slice(), slab, fold);
        each_slab(p, rhs, |c, out, input| {
            mix(out, input, c, cz, false);
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
        // And back, z then y then x, each axis mixed and then unfolded.
        each_slab(rhs, p, |k, out, input| mix(out, input, k, cz, true));
        butterfly(rhs.as_mut_slice(), slab, unfold);
        each_slab(p, rhs, |k, out, input| {
            let rows = row_at(input, k * slab, slab);
            for (j, o) in out.chunks_exact_mut(nx).enumerate() {
                mix(o, rows, j, cy, true);
            }
            butterfly(out, nx, unfold);
        });
        each_slab(rhs, p, |k, out, input| {
            let rows = row_at(input, k * slab, slab).chunks_exact(nx);
            for (o, row) in out.chunks_exact_mut(nx).zip(rows) {
                let (even, odd) = o.split_at_mut(evens);
                combine(even, cx[0], row[..evens].iter().copied());
                combine(odd, cx[1], row[evens..].iter().copied());
                butterfly(o, 1, unfold);
            }
        });
        std::mem::swap(p, rhs);
    }
}

/// `max |∇²p − rhs|` under the solver's mirrored Neumann walls: how far
/// `p` is from satisfying the discrete equation.
pub(crate) fn residual(p: &Field3, rhs: &Field3, d: [f64; 3]) -> f64 {
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
    use xg_prop::prelude::*;

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

    /// Axis lengths of 1, 2 and 3, odd and prime ones, rows that end in a
    /// scalar tail, and cells eight times flatter than they are wide. The
    /// rows `combine` writes (x halves, x rows, z-slabs) run past a block
    /// of 8 lanes with every remainder mod 8, and the benchmark's mesh
    /// closes the list.
    const SHAPES: [[usize; 3]; 19] = [
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
        [8, 3, 2],
        [10, 4, 3],
        [12, 5, 2],
        [14, 3, 3],
        [15, 2, 2],
        [16, 3, 2],
        [24, 2, 2],
        [30, 3, 2],
        [48, 40, 10],
    ];
    const D: [f64; 3] = [2.5, 1.7, 0.3];

    #[test]
    fn shapes_reach_every_block_remainder() {
        // The lengths of the rows `combine` writes: x halves, x rows and
        // z-slabs. Each remainder mod 8 must follow at least one full
        // block of 8 somewhere.
        let mut seen = [false; 8];
        for [nx, ny, _] in SHAPES {
            for len in halves(nx).into_iter().chain([nx, nx * ny]) {
                if len >= 8 {
                    seen[len % 8] = true;
                }
            }
        }
        assert_eq!(seen, [true; 8]);
    }

    #[test]
    fn any_grid_matches_reference_bit_for_bit() {
        for [nx, ny, nz] in SHAPES {
            let rhs = noise(nx, ny, nz);
            let p = solved(&rhs, D);
            assert_same_bits("p", &p, &reference::solve(&rhs, D));
            let scale = rhs.max_abs();
            let res = residual(&p, &rhs, D);
            assert!(res <= 1e-12 * scale, "{nx}x{ny}x{nz}: {res:e} of {scale}");
            assert!(p.mean().abs() <= 1e-13 * p.max_abs(), "{nx}x{ny}x{nz}");
        }
    }

    /// The folded solve against the dense sums it replaced: the same maths
    /// summed in another order, so equal to round-off, not to the bit.
    fn assert_near_dense(rhs: &Field3, d: [f64; 3]) {
        let p = solved(rhs, d);
        let gap = max_abs_diff(&p, &reference::solve_dense(rhs, d));
        let shape = (rhs.nx, rhs.ny, rhs.nz);
        assert!(
            gap <= 1e-13 * p.max_abs(),
            "{shape:?}: {gap:e} of {}",
            p.max_abs()
        );
    }

    #[test]
    fn folded_solve_matches_dense_sums() {
        // The fabric's study mesh besides.
        for [nx, ny, nz] in SHAPES.into_iter().chain([[12, 10, 4]]) {
            assert_near_dense(&noise(nx, ny, nz), D);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn folded_solve_matches_dense_sums_on_drawn_shapes(
            cells in (1usize..=17, 1usize..=13, 1usize..=9),
            d in (0.3f64..3.0, 0.3f64..3.0, 0.3f64..3.0),
        ) {
            assert_near_dense(&noise(cells.0, cells.1, cells.2), [d.0, d.1, d.2]);
        }
    }

    #[test]
    fn one_solve_does_half_the_dense_multiply_adds() {
        for (shape, want) in [([12, 10, 4], 12_480), ([48, 40, 10], 1_881_600)] {
            let [nx, ny, nz] = shape;
            let cells = nx * ny * nz;
            // Each way, `⌈n/2⌉² + ⌊n/2⌋²` per line of `n` cells, where the
            // dense product did `n²`.
            let per_axis = |n: usize| cells / n * halves(n).iter().map(|h| h * h).sum::<usize>();
            let folded = 2 * shape.map(per_axis).iter().sum::<usize>() as u64;
            let dense = 2 * (cells * (nx + ny + nz)) as u64;
            assert_eq!((folded, 2 * folded), (want, dense), "{shape:?}");
            MULTIPLY_ADDS.with(|m| m.set(0));
            solved(&noise(nx, ny, nz), [1.0, 1.0, 1.0]);
            let got = MULTIPLY_ADDS.with(|m| m.get());
            assert_eq!(got, want, "{shape:?}");
        }
    }

    #[test]
    fn a_plan_is_one_exact_allocation() {
        // Half-matrices of x (twice), y and z, and 98 eigenvalues: 26 KB,
        // where the dense matrices took 51 KB.
        let plan = PoissonPlan::new([48, 40, 10], [1.0; 3]);
        let bytes = std::mem::size_of_val(&plan.tables[..]);
        assert_eq!((plan.tables.capacity(), bytes), (plan.tables.len(), 26_016));
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
