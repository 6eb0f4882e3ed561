//! Incompressible projection-method solver.
//!
//! A Chorin-style fractional-step scheme on a collocated structured grid:
//!
//! 1. explicit momentum predictor — first-order upwind advection, central
//!    eddy-viscosity diffusion, Boussinesq buoyancy on `w`, quadratic
//!    canopy drag in canopy cells;
//! 2. porous-wall boundary conditions (screen inflow/outflow per panel);
//! 3. pressure Poisson projection (`crate::poisson`);
//! 4. velocity correction and temperature advection–diffusion.
//!
//! Every sweep, and every pass of the direct pressure solve, reads one
//! buffer and writes another, one z-slab per `par_chunks_mut` chunk and
//! row by row inside it, so results are bitwise identical for any thread
//! count — verified by tests, as is bit equality with the cell-by-cell
//! kernels kept in `crate::reference`. A transport sweep's row loop has
//! no branch, call or bounds check: every neighbour row is sliced once
//! to the interior's length, the upwind differences are picked by bit
//! masks, and the drag and buoyancy terms follow in a pass of their own,
//! so the compiler vectorises it, divisions included. The buffers are the
//! simulation's own, so a time step allocates nothing. This is
//! the "OpenFOAM" of the reproduction: the same role, the same phase
//! structure (serial meshing + parallel solve), at laptop scale.

use crate::boundary::BoundarySpec;
use crate::field::Field3;
use crate::mesh::{CellType, Mesh};
use crate::poisson::{self, row_at, PoissonPlan};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;
use xg_obs::{Counter, Histogram, Obs};

/// Pre-resolved solver instruments. The CFD solve is the only stage of
/// the closed loop that burns real CPU, so its histograms record *wall*
/// milliseconds (everything else in the fabric records virtual time).
#[derive(Debug, Clone)]
struct CfdObs {
    /// Wall time of one full time step, ms.
    step_wall_ms: Arc<Histogram>,
    /// Wall time of one transport sweep (momentum or temperature), ms.
    sweep_wall_ms: Arc<Histogram>,
    /// `max |∇²p − rhs|` left by each projection's pressure solve.
    poisson_residual: Arc<Histogram>,
    /// The projection's right-hand side, copied before the solve
    /// consumes it, for the residual.
    rhs: Field3,
    /// Time steps completed.
    steps: Arc<Counter>,
    /// The full handle: the measured step/sweep durations also feed the
    /// hierarchical profiler (`cfd.step` / `cfd.step/sweep`) so the CFD
    /// solve shows up in cross-layer attribution without extra timers.
    handle: Obs,
}

impl CfdObs {
    fn new(obs: &Obs, shape: [usize; 3]) -> Option<Self> {
        let reg = obs.registry()?;
        let [nx, ny, nz] = shape;
        Some(CfdObs {
            handle: obs.clone(),
            step_wall_ms: reg.wall_histogram_ms("cfd.step.wall_ms"),
            sweep_wall_ms: reg.wall_histogram_ms("cfd.sweep.wall_ms"),
            poisson_residual: reg.histogram("cfd.poisson.residual"),
            rhs: Field3::zeros(nx, ny, nz),
            steps: reg.counter("cfd.steps"),
        })
    }
}

/// Solver tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverConfig {
    /// Time step (s). Chosen for CFL stability at the configured grid.
    pub dt_s: f64,
    /// Eddy (turbulent) kinematic viscosity (m²/s).
    pub nu: f64,
    /// Thermal diffusivity (m²/s).
    pub alpha_t: f64,
    /// Thermal expansion coefficient (1/K) for Boussinesq buoyancy.
    pub beta: f64,
    /// Gravitational acceleration (m/s²).
    pub gravity: f64,
    /// Canopy drag coefficient × leaf area density (1/m).
    pub canopy_cd_a: f64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            dt_s: 0.08,
            nu: 0.5,
            alpha_t: 0.5,
            beta: 3.4e-3,
            gravity: 9.81,
            canopy_cd_a: 0.4,
        }
    }
}

/// The simulation state.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The mesh.
    pub mesh: Mesh,
    /// Boundary conditions.
    pub bc: BoundarySpec,
    /// Solver configuration.
    pub config: SolverConfig,
    /// Velocity x-component (m/s).
    pub u: Field3,
    /// Velocity y-component (m/s).
    pub v: Field3,
    /// Velocity z-component (m/s).
    pub w: Field3,
    /// Temperature (°C).
    pub t: Field3,
    /// Pressure (kinematic).
    pub p: Field3,
    steps_done: usize,
    obs: Option<CfdObs>,
    /// The pressure solve's cosine matrices for this mesh.
    plan: PoissonPlan,
    /// Work arrays `[u*, v*, w*, rhs]`, allocated once in `new`: the
    /// momentum predictors (`u*` is also the temperature sweep's target)
    /// and the Poisson right-hand side, which the solve trades for `p`.
    /// `step` swaps them with the fields above instead of cloning, which
    /// relies on every field keeping the mesh's shape — nothing outside
    /// this file assigns one.
    work: [Field3; 4],
}

/// `if take_a { a } else { b }` by bit masks. SSE2 has no blend
/// instruction, so LLVM declines to vectorise a loop around a plain
/// select; this one costs three logic ops per lane.
#[inline(always)]
fn select(take_a: bool, a: f64, b: f64) -> f64 {
    let m = u64::from(take_a).wrapping_neg();
    f64::from_bits((a.to_bits() & m) | (b.to_bits() & !m))
}

impl Simulation {
    /// Initialize a quiescent interior at ambient temperature.
    pub fn new(mesh: Mesh, bc: BoundarySpec, config: SolverConfig) -> Self {
        let (nx, ny, nz) = (mesh.nx, mesh.ny, mesh.nz);
        let t = Field3::filled(nx, ny, nz, bc.ambient_temp_c);
        let plan = PoissonPlan::new([nx, ny, nz], mesh.d);
        let mut sim = Simulation {
            mesh,
            bc,
            config,
            u: Field3::zeros(nx, ny, nz),
            v: Field3::zeros(nx, ny, nz),
            w: Field3::zeros(nx, ny, nz),
            t,
            p: Field3::zeros(nx, ny, nz),
            steps_done: 0,
            obs: None,
            plan,
            work: std::array::from_fn(|_| Field3::zeros(nx, ny, nz)),
        };
        sim.apply_velocity_bcs();
        sim
    }

    /// Attach an observability handle: per-step wall time, per-sweep
    /// wall time, and a per-projection residual histogram land in its
    /// registry. Instrumentation reads clocks and fields and writes only
    /// scratch — the solve stays bitwise deterministic across thread
    /// counts, and the same with or without it.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = CfdObs::new(obs, [self.p.nx, self.p.ny, self.p.nz]);
    }

    /// Steps taken so far.
    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// CFL number at the current state (must stay < 1 for stability).
    pub fn cfl(&self) -> f64 {
        let umax = self.u.max_abs().max(self.v.max_abs()).max(self.w.max_abs());
        let dmin = self.mesh.d.iter().cloned().fold(f64::INFINITY, f64::min);
        umax * self.config.dt_s / dmin
    }

    /// Impose wall/screen boundary conditions on the velocity fields.
    ///
    /// * Vertical screen walls: porosity-scaled normal inflow where the
    ///   wind blows inward; zero-gradient outflow elsewhere.
    /// * Ground (k = 0): no-slip.
    /// * Roof (k = nz−1): rigid lid (w = 0), free slip for u, v.
    pub(crate) fn apply_velocity_bcs(&mut self) {
        let (nx, ny, nz) = (self.u.nx, self.u.ny, self.u.nz);
        let (wind_u, wind_v) = self.bc.wind_uv();
        // West & east walls (x boundaries): normal component is u.
        for k in 0..nz {
            for j in 0..ny {
                let frac = (j as f64 + 0.5) / ny as f64;
                // West (x = 0): inward normal +x.
                let por = self.bc.west.at(frac);
                if wind_u > 0.0 {
                    self.u.set(0, j, k, wind_u * por);
                    self.v.set(0, j, k, 0.0);
                } else {
                    let inner = self.u.at(1, j, k);
                    self.u.set(0, j, k, inner);
                    let vi = self.v.at(1, j, k);
                    self.v.set(0, j, k, vi);
                }
                // East (x = nx-1): inward normal −x.
                let por = self.bc.east.at(frac);
                if wind_u < 0.0 {
                    self.u.set(nx - 1, j, k, wind_u * por);
                    self.v.set(nx - 1, j, k, 0.0);
                } else {
                    let inner = self.u.at(nx - 2, j, k);
                    self.u.set(nx - 1, j, k, inner);
                    let vi = self.v.at(nx - 2, j, k);
                    self.v.set(nx - 1, j, k, vi);
                }
            }
        }
        // South & north walls (y boundaries): normal component is v.
        for k in 0..nz {
            for i in 0..nx {
                let frac = (i as f64 + 0.5) / nx as f64;
                let por = self.bc.south.at(frac);
                if wind_v > 0.0 {
                    self.v.set(i, 0, k, wind_v * por);
                    self.u.set(i, 0, k, 0.0);
                } else {
                    let inner = self.v.at(i, 1, k);
                    self.v.set(i, 0, k, inner);
                    let ui = self.u.at(i, 1, k);
                    self.u.set(i, 0, k, ui);
                }
                let por = self.bc.north.at(frac);
                if wind_v < 0.0 {
                    self.v.set(i, ny - 1, k, wind_v * por);
                    self.u.set(i, ny - 1, k, 0.0);
                } else {
                    let inner = self.v.at(i, ny - 2, k);
                    self.v.set(i, ny - 1, k, inner);
                    let ui = self.u.at(i, ny - 2, k);
                    self.u.set(i, ny - 1, k, ui);
                }
            }
        }
        // Ground and roof.
        for j in 0..ny {
            for i in 0..nx {
                self.u.set(i, j, 0, 0.0);
                self.v.set(i, j, 0, 0.0);
                self.w.set(i, j, 0, 0.0);
                self.w.set(i, j, nz - 1, 0.0);
                let ub = self.u.at(i, j, nz - 2);
                let vb = self.v.at(i, j, nz - 2);
                self.u.set(i, j, nz - 1, ub);
                self.v.set(i, j, nz - 1, vb);
            }
        }
    }

    /// One explicit sweep for a transported scalar: upwind advection +
    /// central diffusion of `phi` by the current velocity, written to the
    /// interior of `out`; `out`'s boundary cells take `phi`'s values.
    fn transport_sweep(
        &self,
        phi: &Field3,
        out: &mut Field3,
        diffusivity: f64,
        extra: impl Fn(usize, f64) -> f64 + Sync,
    ) {
        #[expect(
            clippy::disallowed_methods,
            reason = "obs-gated wall timing of a real CPU solve; never feeds sim state"
        )]
        let sweep_timer = self.obs.as_ref().map(|_| Instant::now());
        let (nx, ny, nz) = (phi.nx, phi.ny, phi.nz);
        let slab = nx * ny;
        let dt = self.config.dt_s;
        let [dx, dy, dz] = self.mesh.d;
        let [dx2, dy2, dz2] = self.mesh.d.map(|h| h * h);
        let u = self.u.as_slice();
        let v = self.v.as_slice();
        let w = self.w.as_slice();
        let cur = phi.as_slice();
        out.as_mut_slice()
            .par_chunks_mut(slab)
            .enumerate()
            .for_each(|(k, slab_out)| {
                slab_out.copy_from_slice(row_at(cur, k * slab, slab));
                if k == 0 || k == nz - 1 {
                    return; // boundary slabs handled by BCs
                }
                // The interior cells of a row, and of the rows around it:
                // every slice below is this long, so the loop checks no
                // bounds.
                let m = nx - 2;
                let inner = |f, at: usize| row_at(f, at + 1, m);
                for j in 1..ny - 1 {
                    let at = (k * ny + j) * nx;
                    let (cm, c0, cp) = (row_at(cur, at, m), inner(cur, at), row_at(cur, at + 2, m));
                    let (ur, vr, wr) = (inner(u, at), inner(v, at), inner(w, at));
                    let (ym, yp) = (inner(cur, at - nx), inner(cur, at + nx));
                    let (zm, zp) = (inner(cur, at - slab), inner(cur, at + slab));
                    let o = &mut slab_out[j * nx + 1..][..m];
                    for i in 0..m {
                        let (uc, vc, wc) = (ur[i], vr[i], wr[i]);
                        let phic = c0[i];
                        // First-order upwind advection.
                        let dphidx = select(uc > 0.0, phic - cm[i], cp[i] - phic) / dx;
                        let dphidy = select(vc > 0.0, phic - ym[i], yp[i] - phic) / dy;
                        let dphidz = select(wc > 0.0, phic - zm[i], zp[i] - phic) / dz;
                        let adv = uc * dphidx + vc * dphidy + wc * dphidz;
                        // Central diffusion.
                        let lap = (cm[i] + cp[i] - 2.0 * phic) / dx2
                            + (ym[i] + yp[i] - 2.0 * phic) / dy2
                            + (zm[i] + zp[i] - 2.0 * phic) / dz2;
                        o[i] = phic + dt * (-adv + diffusivity * lap);
                    }
                    // `extra` reads no field this sweep writes, so a pass
                    // of its own changes no bits and leaves the loop above
                    // free of calls.
                    for (c, o) in (at + 1..).zip(o) {
                        *o = extra(c, *o);
                    }
                }
            });
        if let (Some(o), Some(t0)) = (&self.obs, sweep_timer) {
            let elapsed = t0.elapsed();
            o.sweep_wall_ms.record(elapsed.as_secs_f64() * 1e3);
            if let Some(p) = o.handle.profiler() {
                p.record_at("cfd.step/sweep", elapsed.as_nanos() as u64);
            }
        }
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "obs-gated wall timing of a real CPU solve; never feeds sim state"
        )]
        let step_timer = self.obs.as_ref().map(|_| Instant::now());
        let cfg = self.config;
        let dt = cfg.dt_s;
        let t_ref = self.bc.ambient_temp_c;
        let mut work = std::mem::take(&mut self.work);
        let [u_star, v_star, w_star, rhs] = &mut work;

        // 1. Momentum predictor. The advecting velocity is read by all
        // three sweeps, so it is swapped out only once all are written.
        let drag = |c: usize, comp: f64| -> f64 {
            if self.mesh.cell_type[c] == CellType::Canopy {
                let speed = (self.u.as_slice()[c].powi(2)
                    + self.v.as_slice()[c].powi(2)
                    + self.w.as_slice()[c].powi(2))
                .sqrt();
                comp / (1.0 + dt * cfg.canopy_cd_a * speed)
            } else {
                comp
            }
        };
        self.transport_sweep(&self.u, u_star, cfg.nu, drag);
        self.transport_sweep(&self.v, v_star, cfg.nu, drag);
        let t = self.t.as_slice();
        self.transport_sweep(&self.w, w_star, cfg.nu, |c, val| {
            // Boussinesq buoyancy: warm air rises.
            let buoy = cfg.gravity * cfg.beta * (t[c] - t_ref);
            drag(c, val + dt * buoy)
        });
        std::mem::swap(&mut self.u, u_star);
        std::mem::swap(&mut self.v, v_star);
        std::mem::swap(&mut self.w, w_star);
        self.apply_velocity_bcs();

        // 2. Projection: solve ∇²p = div(u*) / dt.
        self.projection_rhs_into(rhs);
        if let Some(o) = &mut self.obs {
            // The solve consumes its right-hand side: keep a copy.
            o.rhs.as_mut_slice().copy_from_slice(rhs.as_slice());
        }
        self.plan.solve(&mut self.p, rhs);
        if let Some(o) = &self.obs {
            o.poisson_residual
                .record(poisson::residual(&self.p, &o.rhs, self.mesh.d));
        }

        // 3. Velocity correction: u -= dt ∇p (interior, central gradient
        // along the axis whose neighbours lie `stride` cells apart).
        let (nx, ny, nz) = (self.u.nx, self.u.ny, self.u.nz);
        let slab = nx * ny;
        let [dx, dy, dz] = self.mesh.d;
        let p = self.p.as_slice();
        let correct = |field: &mut Field3, stride: usize, h: f64| {
            field
                .as_mut_slice()
                .par_chunks_mut(slab)
                .enumerate()
                .for_each(|(k, out)| {
                    if k == 0 || k == nz - 1 {
                        return;
                    }
                    for j in 1..ny - 1 {
                        let at = (k * ny + j) * nx;
                        let (lo, hi) = (row_at(p, at - stride, nx), row_at(p, at + stride, nx));
                        let o = &mut out[j * nx..][..nx];
                        for i in 1..nx - 1 {
                            let grad = (hi[i] - lo[i]) / (2.0 * h);
                            o[i] -= dt * grad;
                        }
                    }
                });
        };
        correct(&mut self.u, 1, dx);
        correct(&mut self.v, nx, dy);
        correct(&mut self.w, slab, dz);
        self.apply_velocity_bcs();

        // 4. Temperature transport with ground heating and inflow at
        // ambient temperature.
        let ground_t = self.bc.ground_temp_c;
        self.transport_sweep(&self.t, u_star, cfg.alpha_t, |_, val| val);
        std::mem::swap(&mut self.t, u_star);
        self.work = work;
        for j in 0..ny {
            for i in 0..nx {
                self.t.set(i, j, 0, ground_t);
                let below = self.t.at(i, j, nz - 2);
                self.t.set(i, j, nz - 1, below);
            }
        }
        for k in 0..nz {
            for j in 0..ny {
                self.t.set(0, j, k, t_ref);
                self.t.set(nx - 1, j, k, t_ref);
            }
            for i in 0..nx {
                self.t.set(i, 0, k, t_ref);
                self.t.set(i, ny - 1, k, t_ref);
            }
        }
        if let (Some(o), Some(t0)) = (&self.obs, step_timer) {
            let elapsed = t0.elapsed();
            o.step_wall_ms.record(elapsed.as_secs_f64() * 1e3);
            o.steps.inc();
            if let Some(p) = o.handle.profiler() {
                p.record_at("cfd.step", elapsed.as_nanos() as u64);
            }
        }
        self.steps_done += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Central-difference divergence of the velocity field (interior; zero
    /// on boundary cells).
    pub fn divergence(&self) -> Field3 {
        let mut div = Field3::zeros(self.u.nx, self.u.ny, self.u.nz);
        self.divergence_into(&mut div);
        div
    }

    /// The projection's right-hand side `div(u) / dt` over every cell of
    /// `rhs`, less its mean (Neumann compatibility).
    fn projection_rhs_into(&self, rhs: &mut Field3) {
        self.divergence_into(rhs);
        let inv_dt = 1.0 / self.config.dt_s;
        rhs.as_mut_slice().iter_mut().for_each(|x| *x *= inv_dt);
        let mean = rhs.mean();
        rhs.as_mut_slice().iter_mut().for_each(|x| *x -= mean);
    }

    /// [`Self::divergence`] written over every cell of `div`.
    fn divergence_into(&self, div: &mut Field3) {
        let (nx, ny, nz) = (self.u.nx, self.u.ny, self.u.nz);
        let slab = nx * ny;
        let [dx, dy, dz] = self.mesh.d;
        let u = self.u.as_slice();
        let v = self.v.as_slice();
        let w = self.w.as_slice();
        div.as_mut_slice()
            .par_chunks_mut(slab)
            .enumerate()
            .for_each(|(k, out)| {
                out.fill(0.0);
                if k == 0 || k == nz - 1 {
                    return;
                }
                let row = |f, at: usize| row_at(f, at, nx);
                for j in 1..ny - 1 {
                    let at = (k * ny + j) * nx;
                    let (xm, xp) = (row(u, at - 1), row(u, at + 1));
                    let (ym, yp) = (row(v, at - nx), row(v, at + nx));
                    let (zm, zp) = (row(w, at - slab), row(w, at + slab));
                    let o = &mut out[j * nx..][..nx];
                    for i in 1..nx - 1 {
                        o[i] = (xp[i] - xm[i]) / (2.0 * dx)
                            + (yp[i] - ym[i]) / (2.0 * dy)
                            + (zp[i] - zm[i]) / (2.0 * dz);
                    }
                }
            });
    }

    /// Horizontal wind speed at a physical position (m), trilinearly
    /// interpolated between cell centres.
    pub(crate) fn wind_speed_at(&self, x: f64, y: f64, z: f64) -> f64 {
        let [dx, dy, dz] = self.mesh.d;
        let (fx, fy, fz) = (x / dx - 0.5, y / dy - 0.5, z / dz - 0.5);
        let u = self.u.probe_trilinear(fx, fy, fz);
        let v = self.v.probe_trilinear(fx, fy, fz);
        (u * u + v * v).sqrt()
    }

    /// Mean interior wind speed over fluid cells (excluding boundaries).
    pub fn mean_interior_wind(&self) -> f64 {
        let (nx, ny, nz) = (self.u.nx, self.u.ny, self.u.nz);
        let mut sum = 0.0;
        let mut count = 0usize;
        for k in 1..nz - 1 {
            for j in 1..ny - 1 {
                for i in 1..nx - 1 {
                    let u = self.u.at(i, j, k);
                    let v = self.v.at(i, j, k);
                    sum += (u * u + v * v).sqrt();
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::DomainSpec;

    fn small_sim(wind: f64, dir: f64) -> Simulation {
        let spec = DomainSpec::cups_default().with_cells(20, 16, 6);
        let mesh = Mesh::generate(&spec);
        let bc = BoundarySpec::intact(wind, dir, 22.0);
        Simulation::new(mesh, bc, SolverConfig::default())
    }

    #[test]
    fn obs_records_sweep_and_poisson_metrics() {
        let obs = Obs::enabled();
        let mut sim = small_sim(5.0, 270.0);
        sim.set_obs(&obs);
        sim.run(3);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("cfd.steps").get(), 3);
        assert_eq!(reg.histogram("cfd.step.wall_ms").count(), 3);
        // Four sweeps per step: u, v, w, temperature.
        assert_eq!(reg.histogram("cfd.sweep.wall_ms").count(), 12);
        // One equation residual per projection, each at round-off.
        let residual = reg.histogram("cfd.poisson.residual").snapshot();
        assert_eq!(residual.count(), 3);
        assert!(residual.max().unwrap() < 1e-12, "{:?}", residual.max());
        // Instrumentation must not perturb the solve itself.
        let mut plain = small_sim(5.0, 270.0);
        plain.run(3);
        assert_eq!(sim.u.as_slice(), plain.u.as_slice());
        assert_eq!(sim.p.as_slice(), plain.p.as_slice());
    }

    #[test]
    fn stays_stable_and_bounded() {
        let mut sim = small_sim(5.0, 270.0);
        sim.run(60);
        assert!(sim.cfl() < 1.0, "CFL {}", sim.cfl());
        assert!(sim.u.max_abs() < 20.0);
        assert!(sim.t.max_abs() < 100.0);
        assert!(sim.u.as_slice().iter().all(|x| x.is_finite()));
        assert!(sim.p.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn west_wind_drives_eastward_interior_flow() {
        let mut sim = small_sim(6.0, 270.0); // wind from west -> +x flow
        sim.run(80);
        let mid = sim.u.at(sim.u.nx / 2, sim.u.ny / 2, sim.u.nz - 2);
        assert!(mid > 0.05, "interior u should be positive: {mid}");
        // Interior speed attenuated below free stream by the screen.
        assert!(sim.mean_interior_wind() < 6.0);
    }

    #[test]
    fn projection_reduces_divergence() {
        let mut sim = small_sim(5.0, 270.0);
        // Run a few steps, then compare pre/post projection divergence by
        // stepping once more and inspecting the final divergence level.
        sim.run(30);
        let div = sim.divergence().max_abs();
        // The projected field's divergence must be small relative to the
        // velocity scale over a cell (u/dx ~ 5/6 ≈ 0.8 1/s).
        assert!(div < 0.3, "post-projection divergence {div}");
    }

    #[test]
    fn calm_conditions_stay_calm() {
        let mut sim = small_sim(0.0, 0.0);
        sim.run(30);
        assert!(
            sim.mean_interior_wind() < 0.05,
            "no wind, no flow: {}",
            sim.mean_interior_wind()
        );
    }

    #[test]
    fn breach_admits_a_jet() {
        let spec = DomainSpec::cups_default().with_cells(20, 16, 6);
        let mesh = Mesh::generate(&spec);
        // Intact run.
        let bc = BoundarySpec::intact(6.0, 270.0, 22.0);
        let mut intact = Simulation::new(mesh.clone(), bc.clone(), SolverConfig::default());
        intact.run(60);
        // Breach in the west wall, mid-height panel.
        let mut breached_bc = bc;
        breached_bc.west.set_panel(6, 1.0);
        let mut breached = Simulation::new(mesh, breached_bc, SolverConfig::default());
        breached.run(60);
        assert!(
            breached.mean_interior_wind() > intact.mean_interior_wind() * 1.02,
            "breach must raise interior wind: {} vs {}",
            breached.mean_interior_wind(),
            intact.mean_interior_wind()
        );
        // The jet is local: wind near the breached panel exceeds the
        // intact value by more than the far-field does.
        let y_panel = (6.5 / 12.0) * 100.0;
        let near_b = breached.wind_speed_at(8.0, y_panel, 4.0);
        let near_i = intact.wind_speed_at(8.0, y_panel, 4.0);
        assert!(near_b > near_i, "jet at breach: {near_b} vs {near_i}");
    }

    #[test]
    fn stronger_wind_stronger_interior_flow() {
        let mut calm = small_sim(2.0, 270.0);
        let mut windy = small_sim(8.0, 270.0);
        calm.run(60);
        windy.run(60);
        assert!(windy.mean_interior_wind() > 2.0 * calm.mean_interior_wind());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let run_with = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sim = small_sim(5.0, 270.0);
                sim.run(10);
                (sim.u, sim.p)
            })
        };
        let (u1, p1) = run_with(1);
        let (u3, p3) = run_with(3);
        assert_eq!(
            u1.as_slice(),
            u3.as_slice(),
            "velocity must be bitwise equal"
        );
        assert_eq!(
            p1.as_slice(),
            p3.as_slice(),
            "pressure must be bitwise equal"
        );
    }

    #[test]
    fn buoyancy_lifts_warm_air() {
        // Hot ground, no wind: expect upward w in the interior.
        let spec = DomainSpec {
            size_m: [40.0, 40.0, 10.0],
            cells: [12, 12, 8],
            canopy: vec![],
        };
        let mesh = Mesh::generate(&spec);
        let mut bc = BoundarySpec::intact(0.0, 0.0, 20.0);
        bc.ground_temp_c = 45.0;
        let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
        sim.run(80);
        // Mean vertical velocity in the lower interior should be upward.
        let mut wsum = 0.0;
        let mut n = 0;
        for j in 1..sim.w.ny - 1 {
            for i in 1..sim.w.nx - 1 {
                wsum += sim.w.at(i, j, 2);
                n += 1;
            }
        }
        assert!(
            wsum / n as f64 > 1e-4,
            "warm ground must drive updraft: {}",
            wsum / n as f64
        );
    }
}
