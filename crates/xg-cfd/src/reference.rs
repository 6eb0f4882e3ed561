//! The test oracles of the solver, none of which calls the code it
//! checks: one cell at a time, a fresh field per sweep, no rayon, no obs.
//!
//! * [`step`] is `Simulation::step` cell by cell, with the pressure from
//!   [`solve`] — the folded cosine-transform solve as plain sums over its
//!   own half tables. Production must reproduce both bit for bit (the
//!   tests at the bottom and in `poisson` hold it to that), so nothing
//!   here is ever "optimised"; boundary conditions are the production
//!   code's own.
//! * [`solve_dense`] is the dense cosine-transform solve the fold
//!   retired, and [`jacobi`] the Jacobi iteration the direct solve
//!   retired, both kept as *accuracy* oracles: they reach the same field
//!   by routes that sum in other orders or share no arithmetic with a
//!   transform at all.

use crate::field::Field3;
use crate::mesh::CellType;
use crate::solver::Simulation;
use std::f64::consts::PI;

/// The orthonormal DCT-II of an axis of `n` cells: mode `a` at cell `i`.
fn cosine(n: usize, a: usize, i: usize) -> f64 {
    let norm = (if a == 0 { 1.0 } else { 2.0 } / n as f64).sqrt();
    let m = (a * (2 * i + 1)) % (4 * n);
    norm * (PI * m as f64 / (2 * n) as f64).cos()
}

/// The skeleton both solves share: each axis in turn to modes (x, y, z),
/// the division by the eigenvalue, and back (z, y, x). `value(axis,
/// inverse, o, line)` is index `o` along `axis` of the transform of the
/// line of cells (forward) or modes (`inverse`) `line(m)`; `mode(n, r)`
/// is the mode at spectrum index `r` of an axis of `n` cells.
fn spectral_solve(
    rhs: &Field3,
    d: [f64; 3],
    value: impl Fn(usize, bool, usize, &dyn Fn(usize) -> f64) -> f64,
    mode: impl Fn(usize, usize) -> usize,
) -> Field3 {
    let shape = [rhs.nx, rhs.ny, rhs.nz];
    let eig = |axis: usize, r: usize| {
        let s = (PI * mode(shape[axis], r) as f64 / (2 * shape[axis]) as f64).sin();
        -4.0 * s * s / (d[axis] * d[axis])
    };
    let transform = |f: &Field3, axis: usize, inverse: bool| {
        let mut out = Field3::zeros(f.nx, f.ny, f.nz);
        for k in 0..f.nz {
            for j in 0..f.ny {
                for i in 0..f.nx {
                    let line = |m: usize| {
                        let mut src = [i, j, k];
                        src[axis] = m;
                        f.at(src[0], src[1], src[2])
                    };
                    out.set(i, j, k, value(axis, inverse, [i, j, k][axis], &line));
                }
            }
        }
        out
    };
    let mut f = rhs.clone();
    for axis in [0, 1, 2] {
        f = transform(&f, axis, false);
    }
    for k in 0..f.nz {
        for j in 0..f.ny {
            for i in 0..f.nx {
                let v = f.at(i, j, k) / (eig(0, i) + (eig(1, j) + eig(2, k)));
                f.set(i, j, k, if i + j + k == 0 { 0.0 } else { v });
            }
        }
    }
    for axis in [2, 1, 0] {
        f = transform(&f, axis, true);
    }
    f
}

/// `PoissonPlan::solve` as cell-by-cell sums, every axis folded by its
/// mirror symmetry. On an axis of `n` cells with `c = ⌈n/2⌉` and
/// `h = ⌊n/2⌋`, spectrum index `e < c` is mode `2e`, summed over the cells
/// `j < c` of `x_j + x_{n−1−j}` (an odd axis's middle cell alone), and
/// index `c + o` is mode `2o + 1`, summed over the cells `t ≥ c` of
/// `x_t − x_{n−1−t}`. Back, the even sums `u_j` (`j < c`) and the odd sums
/// `v_t` (`t ≥ c`) give `x_j = u_j − v_{n−1−j}` and `x_t = u_{n−1−t} + v_t`.
pub(crate) fn solve(rhs: &Field3, d: [f64; 3]) -> Field3 {
    // half[axis][0][e][j] = mode 2e at cell j; half[axis][1][o][t] = mode
    // 2o + 1 at cell c + t.
    let half = [rhs.nx, rhs.ny, rhs.nz].map(|n| {
        let (c, h) = (n - n / 2, n / 2);
        let table = |len: usize, parity: usize, first: usize| -> Vec<Vec<f64>> {
            (0..len)
                .map(|o| {
                    (0..len)
                        .map(|t| cosine(n, 2 * o + parity, first + t))
                        .collect()
                })
                .collect()
        };
        [table(c, 0, 0), table(h, 1, c)]
    });
    let value = |axis: usize, inverse: bool, o: usize, line: &dyn Fn(usize) -> f64| {
        let [even, odd] = &half[axis];
        let (c, h) = (even.len(), odd.len());
        let n = c + h;
        if !inverse {
            return if o < c {
                let folded = |j: usize| {
                    if j < h {
                        line(j) + line(n - 1 - j)
                    } else {
                        line(j)
                    }
                };
                (even[o].iter().enumerate()).fold(0.0, |s, (j, m)| s + m * folded(j))
            } else {
                let folded = |t: usize| line(c + t) - line(h - 1 - t);
                (odd[o - c].iter().enumerate()).fold(0.0, |s, (t, m)| s + m * folded(t))
            };
        }
        let u = |j: usize| (0..c).fold(0.0, |s, e| s + even[e][j] * line(e));
        let v = |t: usize| (0..h).fold(0.0, |s, m| s + odd[m][t - c] * line(c + m));
        if o < h {
            u(o) - v(n - 1 - o)
        } else if o < c {
            u(o)
        } else {
            u(n - 1 - o) + v(o)
        }
    };
    let mode = |n: usize, r: usize| {
        let c = n - n / 2;
        if r < c {
            2 * r
        } else {
            2 * (r - c) + 1
        }
    };
    spectral_solve(rhs, d, value, mode)
}

/// The dense solve the fold retired: every output index of an axis sums
/// all `n` cells (or modes) of its line in order, over the full cosine
/// matrix, with the spectrum in natural mode order.
pub(crate) fn solve_dense(rhs: &Field3, d: [f64; 3]) -> Field3 {
    let value = |axis: usize, inverse: bool, o: usize, line: &dyn Fn(usize) -> f64| {
        let n = [rhs.nx, rhs.ny, rhs.nz][axis];
        let entry = |m: usize| {
            if inverse {
                cosine(n, m, o)
            } else {
                cosine(n, o, m)
            }
        };
        (0..n).fold(0.0, |s, m| s + entry(m) * line(m))
    };
    spectral_solve(rhs, d, value, |_, r| r)
}

/// `∇²p` under mirrored Neumann walls, one cell at a time.
pub(crate) fn laplacian(p: &Field3, d: [f64; 3]) -> Field3 {
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

/// `max |a − b|` over two fields of one shape.
pub(crate) fn max_abs_diff(a: &Field3, b: &Field3) -> f64 {
    assert_eq!((a.nx, a.ny, a.nz), (b.nx, b.ny, b.nz));
    (a.as_slice().iter().zip(b.as_slice())).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// Jacobi sweeps on `∇²p = rhs` from `p`, until the max-abs update falls
/// below `tol` or `max_iters` sweeps have run; zero-mean on exit. Returns
/// the sweeps executed.
pub(crate) fn jacobi(
    p: &mut Field3,
    rhs: &Field3,
    d: [f64; 3],
    max_iters: usize,
    tol: f64,
) -> usize {
    let (nx, ny, nz) = (p.nx, p.ny, p.nz);
    let slab = nx * ny;
    let (idx2, idy2, idz2) = (
        1.0 / (d[0] * d[0]),
        1.0 / (d[1] * d[1]),
        1.0 / (d[2] * d[2]),
    );
    let denom = 2.0 * (idx2 + idy2 + idz2);
    let mut next = p.clone();
    let mut iterations = 0;
    for it in 0..max_iters {
        let cur = p.as_slice();
        let rhs_s = rhs.as_slice();
        let mut max_delta: f64 = 0.0;
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let c = (k * ny + j) * nx + i;
                    // Neumann: mirror at boundaries (ghost = interior).
                    let xm = if i > 0 { cur[c - 1] } else { cur[c] };
                    let xp = if i + 1 < nx { cur[c + 1] } else { cur[c] };
                    let ym = if j > 0 { cur[c - nx] } else { cur[c] };
                    let yp = if j + 1 < ny { cur[c + nx] } else { cur[c] };
                    let zm = if k > 0 { cur[c - slab] } else { cur[c] };
                    let zp = if k + 1 < nz { cur[c + slab] } else { cur[c] };
                    let val =
                        ((xm + xp) * idx2 + (ym + yp) * idy2 + (zm + zp) * idz2 - rhs_s[c]) / denom;
                    max_delta = max_delta.max((val - cur[c]).abs());
                    next.as_mut_slice()[c] = val;
                }
            }
        }
        std::mem::swap(p, &mut next);
        iterations = it + 1;
        if max_delta < tol {
            break;
        }
    }
    // Fix the Neumann gauge: zero-mean pressure.
    let mean = p.mean();
    p.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
    iterations
}

/// One explicit sweep for a transported scalar, returning the new field.
fn transport_sweep(
    sim: &Simulation,
    phi: &Field3,
    diffusivity: f64,
    extra: impl Fn(usize, usize, usize, f64) -> f64,
) -> Field3 {
    let (nx, ny, nz) = (phi.nx, phi.ny, phi.nz);
    let slab = nx * ny;
    let dt = sim.config.dt_s;
    let [dx, dy, dz] = sim.mesh.d;
    let mut out = phi.clone();
    let (u, v, w) = (sim.u.as_slice(), sim.v.as_slice(), sim.w.as_slice());
    let cur = phi.as_slice();
    for k in 1..nz - 1 {
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let c = (k * ny + j) * nx + i;
                let (uc, vc, wc) = (u[c], v[c], w[c]);
                let phic = cur[c];
                // First-order upwind advection.
                let dphidx = if uc > 0.0 {
                    (phic - cur[c - 1]) / dx
                } else {
                    (cur[c + 1] - phic) / dx
                };
                let dphidy = if vc > 0.0 {
                    (phic - cur[c - nx]) / dy
                } else {
                    (cur[c + nx] - phic) / dy
                };
                let dphidz = if wc > 0.0 {
                    (phic - cur[c - slab]) / dz
                } else {
                    (cur[c + slab] - phic) / dz
                };
                let adv = uc * dphidx + vc * dphidy + wc * dphidz;
                // Central diffusion.
                let lap = (cur[c - 1] + cur[c + 1] - 2.0 * phic) / (dx * dx)
                    + (cur[c - nx] + cur[c + nx] - 2.0 * phic) / (dy * dy)
                    + (cur[c - slab] + cur[c + slab] - 2.0 * phic) / (dz * dz);
                let val = phic + dt * (-adv + diffusivity * lap);
                out.as_mut_slice()[c] = extra(i, j, k, val);
            }
        }
    }
    out
}

/// Central-difference divergence of the velocity field (interior; zero on
/// boundary cells).
fn divergence(sim: &Simulation) -> Field3 {
    let (nx, ny, nz) = (sim.u.nx, sim.u.ny, sim.u.nz);
    let slab = nx * ny;
    let [dx, dy, dz] = sim.mesh.d;
    let mut div = Field3::zeros(nx, ny, nz);
    let (u, v, w) = (sim.u.as_slice(), sim.v.as_slice(), sim.w.as_slice());
    for k in 1..nz - 1 {
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let c = (k * ny + j) * nx + i;
                div.as_mut_slice()[c] = (u[c + 1] - u[c - 1]) / (2.0 * dx)
                    + (v[c + nx] - v[c - nx]) / (2.0 * dy)
                    + (w[c + slab] - w[c - slab]) / (2.0 * dz);
            }
        }
    }
    div
}

/// The first half of a step, cell by cell: the momentum predictor and
/// its boundary conditions applied to `sim`, and the right-hand side
/// `div(u*) / dt`, mean removed, that its projection solves for.
pub(crate) fn projection_rhs(sim: &mut Simulation) -> Field3 {
    let cfg = sim.config;
    let dt = cfg.dt_s;
    let t_ref = sim.bc.ambient_temp_c;

    // 1. Momentum predictor.
    let drag = |sim: &Simulation, i: usize, j: usize, k: usize, comp: f64| -> f64 {
        if sim.mesh.cell(i, j, k) == CellType::Canopy {
            let speed =
                (sim.u.at(i, j, k).powi(2) + sim.v.at(i, j, k).powi(2) + sim.w.at(i, j, k).powi(2))
                    .sqrt();
            comp / (1.0 + dt * cfg.canopy_cd_a * speed)
        } else {
            comp
        }
    };
    let u_star = transport_sweep(sim, &sim.u, cfg.nu, |i, j, k, val| drag(sim, i, j, k, val));
    let v_star = transport_sweep(sim, &sim.v, cfg.nu, |i, j, k, val| drag(sim, i, j, k, val));
    let w_star = transport_sweep(sim, &sim.w, cfg.nu, |i, j, k, val| {
        // Boussinesq buoyancy: warm air rises.
        let buoy = cfg.gravity * cfg.beta * (sim.t.at(i, j, k) - t_ref);
        drag(sim, i, j, k, val + dt * buoy)
    });
    sim.u = u_star;
    sim.v = v_star;
    sim.w = w_star;
    sim.apply_velocity_bcs();

    // 2. Projection: ∇²p = div(u*) / dt.
    let mut rhs = divergence(sim);
    let inv_dt = 1.0 / dt;
    rhs.as_mut_slice().iter_mut().for_each(|x| *x *= inv_dt);
    // Neumann compatibility: remove the mean source.
    let mean = rhs.mean();
    rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
    rhs
}

/// `Simulation::step` on the public fields of `sim`, cell by cell. The
/// step counter is private to the solver, so the caller counts.
pub(crate) fn step(sim: &mut Simulation) {
    let rhs = projection_rhs(sim);
    sim.p = solve(&rhs, sim.mesh.d);
    let dt = sim.config.dt_s;
    let t_ref = sim.bc.ambient_temp_c;

    // 3. Velocity correction: u -= dt ∇p (interior, central gradient).
    let (nx, ny, nz) = (sim.u.nx, sim.u.ny, sim.u.nz);
    let slab = nx * ny;
    let [dx, dy, dz] = sim.mesh.d;
    let p = sim.p.as_slice();
    for k in 1..nz - 1 {
        for j in 1..ny - 1 {
            for i in 1..nx - 1 {
                let c = (k * ny + j) * nx + i;
                sim.u.as_mut_slice()[c] -= dt * ((p[c + 1] - p[c - 1]) / (2.0 * dx));
                sim.v.as_mut_slice()[c] -= dt * ((p[c + nx] - p[c - nx]) / (2.0 * dy));
                sim.w.as_mut_slice()[c] -= dt * ((p[c + slab] - p[c - slab]) / (2.0 * dz));
            }
        }
    }
    sim.apply_velocity_bcs();

    // 4. Temperature transport with ground heating and inflow at ambient
    // temperature.
    sim.t = transport_sweep(sim, &sim.t, sim.config.alpha_t, |_, _, _, val| val);
    for j in 0..ny {
        for i in 0..nx {
            sim.t.set(i, j, 0, sim.bc.ground_temp_c);
            let below = sim.t.at(i, j, nz - 2);
            sim.t.set(i, j, nz - 1, below);
        }
    }
    for k in 0..nz {
        for j in 0..ny {
            sim.t.set(0, j, k, t_ref);
            sim.t.set(nx - 1, j, k, t_ref);
        }
        for i in 0..nx {
            sim.t.set(i, 0, k, t_ref);
            sim.t.set(i, ny - 1, k, t_ref);
        }
    }
}

/// Same bits in every cell (so `-0.0 != 0.0` and a NaN equals itself).
pub(crate) fn assert_same_bits(what: &str, got: &Field3, want: &Field3) {
    assert_eq!((got.nx, got.ny, got.nz), (want.nx, want.ny, want.nz));
    for (c, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{what}: cell {c} of {}x{}x{} is {g:e}, the reference has {w:e}",
            want.nx,
            want.ny,
            want.nz
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundarySpec;
    use crate::mesh::{DomainSpec, Mesh};
    use crate::poisson::PoissonPlan;
    use crate::solver::SolverConfig;
    use xg_obs::Obs;
    use xg_prop::prelude::*;

    /// One scenario of the oracle suite.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        cells: [usize; 3],
        wind_ms: f64,
        dir_deg: f64,
        /// Porosity of one panel on every wall (0.25 is the intact screen).
        panel: (usize, f64),
        canopy: bool,
        hot_ground: bool,
        /// Start from noise in every cell of every field, boundary cells
        /// included, instead of the quiescent state `new` builds.
        noisy_start: bool,
        steps: usize,
    }

    /// Step production (instrumented: the path that does strictly more)
    /// and reference side by side; every field and the step count must
    /// agree bit for bit after each step.
    fn run_against_reference(case: Case) {
        let mut spec =
            DomainSpec::cups_default().with_cells(case.cells[0], case.cells[1], case.cells[2]);
        if !case.canopy {
            spec.canopy.clear();
        }
        let mut bc = BoundarySpec::intact(case.wind_ms, case.dir_deg, 22.0);
        for wall in [&mut bc.west, &mut bc.east, &mut bc.south, &mut bc.north] {
            wall.set_panel(case.panel.0, case.panel.1);
        }
        if case.hot_ground {
            bc.ground_temp_c = 45.0;
        }
        let mut got = Simulation::new(Mesh::generate(&spec), bc, SolverConfig::default());
        if case.noisy_start {
            let Simulation { u, v, w, t, p, .. } = &mut got;
            for (n, field) in [u, v, w, t, p].into_iter().enumerate() {
                for (c, x) in field.as_mut_slice().iter_mut().enumerate() {
                    *x += 0.3 * ((c + 977 * n) as f64 * 0.7312).sin();
                }
            }
        }
        let mut want = got.clone();
        got.set_obs(&Obs::enabled());
        for n in 1..=case.steps {
            got.step();
            step(&mut want);
            let fields = [
                ("u", &got.u, &want.u),
                ("v", &got.v, &want.v),
                ("w", &got.w, &want.w),
                ("t", &got.t, &want.t),
                ("p", &got.p, &want.p),
            ];
            for (name, got, want) in fields {
                assert_same_bits(&format!("{name} after step {n} of {case:?}"), got, want);
            }
            assert_eq!(got.steps_done(), n, "{case:?}");
        }
    }

    #[test]
    fn step_matches_reference_on_fixed_shapes() {
        // 3×3×3 has one interior cell; 9×7×3 is the fabric's degraded mesh,
        // 12×10×4 its study mesh; 13 and 9 leave odd interior rows, and
        // 27's interior row of 25 spans several vector widths and a tail.
        const SHAPES: [[usize; 3]; 8] = [
            [3, 3, 3],
            [4, 5, 3],
            [5, 7, 4],
            [9, 7, 3],
            [12, 10, 4],
            [13, 9, 5],
            [20, 16, 6],
            [27, 11, 4],
        ];
        let mut n = 0;
        for cells in SHAPES {
            for dir_deg in [0.0, 90.0, 180.0, 225.0, 270.0] {
                for wind_ms in [0.0, 2.0, 6.0] {
                    for breached in [false, true] {
                        // Canopy, ground heat, start state and run length
                        // rotate so every shape and wind meets each of them.
                        run_against_reference(Case {
                            cells,
                            wind_ms,
                            dir_deg,
                            panel: (6, if breached { 1.0 } else { 0.25 }),
                            canopy: n % 3 != 2,
                            hot_ground: n % 4 == 1,
                            noisy_start: n % 5 == 3,
                            steps: 1 + n % 8,
                        });
                        n += 1;
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn step_matches_reference_on_drawn_cases(
            cells in (3usize..=14, 3usize..=12, 3usize..=7),
            wind_ms in 0.0f64..9.0,
            dir_deg in 0.0f64..360.0,
            panel in (0usize..12, 0.0f64..=1.0),
            flags in 0u8..8,
            steps in 1usize..=4,
        ) {
            run_against_reference(Case {
                cells: [cells.0, cells.1, cells.2],
                wind_ms,
                dir_deg,
                panel,
                canopy: flags & 1 == 0,
                hot_ground: flags & 2 != 0,
                noisy_start: flags & 4 != 0,
                steps,
            });
        }

        #[test]
        fn direct_solve_agrees_with_converged_jacobi(
            cells in (1usize..=9, 1usize..=8, 1usize..=6),
            d in (0.5f64..3.0, 0.5f64..3.0, 0.3f64..3.0),
            noise in xg_prop::collection::vec(-1.0f64..1.0, 9 * 8 * 6),
        ) {
            let (nx, ny, nz) = cells;
            let d = [d.0, d.1, d.2];
            let mut rhs = Field3::zeros(nx, ny, nz);
            rhs.as_mut_slice().copy_from_slice(&noise[..nx * ny * nz]);
            let mean = rhs.mean();
            rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);

            let mut direct = Field3::zeros(nx, ny, nz);
            PoissonPlan::new([nx, ny, nz], d).solve(&mut direct, &mut rhs.clone());
            let mut relaxed = Field3::zeros(nx, ny, nz);
            const CAP: usize = 400_000;
            let sweeps = jacobi(&mut relaxed, &rhs, d, CAP, 1e-12);
            prop_assert!(sweeps < CAP, "Jacobi did not converge on {cells:?}, {d:?}");
            let (gap, scale) = (max_abs_diff(&direct, &relaxed), direct.max_abs().max(1.0));
            prop_assert!(gap <= 1e-8 * scale, "{gap:e} apart at scale {scale} on {cells:?}, {d:?}");
            prop_assert!(direct.mean().abs() <= 1e-12 * scale);
        }
    }
}
