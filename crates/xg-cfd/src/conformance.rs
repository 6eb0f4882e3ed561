//! The CFD slice of the conformance table (ROADMAP 2(a)): one row per
//! shape claim the solver makes, as data. Every row names the claim, the
//! measurement that regenerates it, how it is compared, the reference
//! value and the tolerance — the columns of the workspace-wide
//! `conformance.toml` these rows are meant to lift into unchanged. The
//! references are what the solver measured when a row was written; a
//! later change to the solver has to stay inside every band, and may only
//! tighten one.

use crate::boundary::BoundarySpec;
use crate::mesh::{CellType, DomainSpec, Mesh};
use crate::solver::{Simulation, SolverConfig};
use crate::{poisson, reference};
use std::collections::BTreeMap;

/// How a measurement is held against its reference.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// `|measured − reference| ≤ tolerance · |reference|`.
    Within,
    /// `measured ≤ reference · (1 + tolerance)`.
    AtMost,
}

struct Row {
    claim: &'static str,
    /// `<scenario>.<measurement>`, a key of [`measure`].
    generator: &'static str,
    check: Check,
    reference: f64,
    tolerance: f64,
}

const fn row(
    claim: &'static str,
    generator: &'static str,
    check: Check,
    reference: f64,
    tolerance: f64,
) -> Row {
    Row {
        claim,
        generator,
        check,
        reference,
        tolerance,
    }
}

use Check::{AtMost, Within};

/// Free stream of every windy scenario below (m/s).
const WIND_MS: f64 = 5.0;

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // Fig 3: 240 steps on the full 48×40×10 house, 25 °C; the breached
    // case opens west panel 6 fully.
    row("Fig 3 intact: mean interior wind", "fig3_intact.mean_interior_wind", Within, 1.0111, 0.005),
    row("Fig 3 breached: mean interior wind", "fig3_breached.mean_interior_wind", Within, 1.2435, 0.005),
    row("Fig 3: a breach raises the interior wind", "fig3_breached.uplift_over_intact", Within, 1.2298, 0.005),
    row("Fig 3 intact: the screen holds the interior below free stream", "fig3_intact.mean_interior_wind", AtMost, WIND_MS, 0.0),
    row("Fig 3 breached: still below free stream", "fig3_breached.mean_interior_wind", AtMost, WIND_MS, 0.0),
    row("Fig 3 intact: tree rows are slower than the aisles beside them", "fig3_intact.canopy_over_aisle", AtMost, 0.95, 0.0),
    row("Fig 3 intact: explicit step is stable (CFL < 1)", "fig3_intact.max_cfl", AtMost, 1.0, 0.0),
    row("Fig 3 breached: explicit step is stable (CFL < 1)", "fig3_breached.max_cfl", AtMost, 1.0, 0.0),
    row("Fig 3 intact: post-projection wide-stencil divergence", "fig3_intact.max_divergence", AtMost, 4.9e-2, 0.02),
    row("Fig 3 breached: post-projection wide-stencil divergence", "fig3_breached.max_divergence", AtMost, 2.0e-1, 0.02),
    row("No wind, no flow", "calm.mean_interior_wind", AtMost, 0.05, 0.0),
    // Cold starts at 22 °C, intact: the fabric's in-loop mesh, and the
    // benchmark's `cfd_solve` at `--seed 42` (its wind comes from 255°).
    row("In-loop 12×10×4 solve, 10 steps from rest", "cold_small.mean_interior_wind", Within, 0.3047, 0.15),
    row("48×40×10 solve, 30 steps from rest", "cold_large.mean_interior_wind", Within, 0.8543, 0.15),
    row("In-loop solve is stable (CFL < 1)", "cold_small.max_cfl", AtMost, 1.0, 0.0),
    // The pressure equation is solved, not relaxed: max|∇²p − rhs| over
    // max|rhs|, the worst step of the run. (120 Jacobi sweeps left 1e-2.)
    row("In-loop solve: pressure equation residual at exit", "cold_small.max_relative_residual", AtMost, 1e-9, 0.0),
    row("48×40×10 solve: pressure equation residual at exit", "cold_large.max_relative_residual", AtMost, 1e-9, 0.0),
    row("Fig 3 breached: pressure equation residual at exit", "fig3_breached.max_relative_residual", AtMost, 1e-9, 0.0),
];

/// Run one scenario and file its measurements under `<name>.<measurement>`.
fn run_scenario(
    out: &mut BTreeMap<String, f64>,
    name: &str,
    cells: [usize; 3],
    bc: BoundarySpec,
    steps: usize,
) {
    let spec = DomainSpec::cups_default().with_cells(cells[0], cells[1], cells[2]);
    let mut sim = Simulation::new(Mesh::generate(&spec), bc, SolverConfig::default());
    let (mut max_cfl, mut max_residual) = (0.0f64, 0.0f64);
    for _ in 0..steps {
        // The right-hand side a step solves for never leaves it; the
        // oracle's predictor, bit-equal to the step's own, rebuilds it.
        let mut before = sim.clone();
        sim.step();
        let rhs = reference::projection_rhs(&mut before);
        let residual = poisson::residual(&sim.p, &rhs, sim.mesh.d);
        max_residual = max_residual.max(residual / rhs.max_abs().max(f64::MIN_POSITIVE));
        max_cfl = max_cfl.max(sim.cfl());
    }
    // Mean horizontal speed over interior canopy cells against the interior
    // open cells of the same layers.
    let (mut canopy, mut aisle) = ((0.0, 0usize), (0.0, 0usize));
    for k in 1..sim.mesh.nz - 1 {
        if (k as f64 + 0.5) * sim.mesh.d[2] > 4.5 {
            continue; // above the trees
        }
        for j in 1..sim.mesh.ny - 1 {
            for i in 1..sim.mesh.nx - 1 {
                let speed = sim.u.at(i, j, k).hypot(sim.v.at(i, j, k));
                let bin = match sim.mesh.cell(i, j, k) {
                    CellType::Canopy => &mut canopy,
                    CellType::Fluid => &mut aisle,
                };
                bin.0 += speed;
                bin.1 += 1;
            }
        }
    }
    let mean = |(sum, n): (f64, usize)| sum / n.max(1) as f64;
    let mut put = |what: &str, v: f64| out.insert(format!("{name}.{what}"), v);
    put("mean_interior_wind", sim.mean_interior_wind());
    put("max_cfl", max_cfl);
    put("max_relative_residual", max_residual);
    put("max_divergence", sim.divergence().max_abs());
    put("canopy_over_aisle", mean(canopy) / mean(aisle).max(1e-12));
}

/// Every measurement a row can name.
fn measure() -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let full = [48, 40, 10];
    let fig3 = BoundarySpec::intact(WIND_MS, 270.0, 25.0);
    let mut breached = fig3.clone();
    breached.west.set_panel(6, 1.0);
    run_scenario(&mut out, "fig3_intact", full, fig3, 240);
    run_scenario(&mut out, "fig3_breached", full, breached, 240);
    let uplift = out["fig3_breached.mean_interior_wind"] / out["fig3_intact.mean_interior_wind"];
    out.insert("fig3_breached.uplift_over_intact".into(), uplift);
    let calm = BoundarySpec::intact(0.0, 0.0, 22.0);
    run_scenario(&mut out, "calm", [20, 16, 6], calm, 30);
    let cold = |dir_deg| BoundarySpec::intact(WIND_MS, dir_deg, 22.0);
    run_scenario(&mut out, "cold_small", [12, 10, 4], cold(270.0), 10);
    run_scenario(&mut out, "cold_large", full, cold(255.0), 30);
    out
}

#[test]
fn every_conformance_row_holds() {
    let measured = measure();
    let mut failures = Vec::new();
    for r in ROWS {
        let m = *measured
            .get(r.generator)
            .unwrap_or_else(|| panic!("row {:?} names no measurement: {}", r.claim, r.generator));
        let ok = match r.check {
            Within => (m - r.reference).abs() <= r.tolerance * r.reference.abs(),
            AtMost => m <= r.reference * (1.0 + r.tolerance),
        };
        println!(
            "{:<62} {:<34} {:?} {:e} ±{} -> {m:e}",
            r.claim, r.generator, r.check, r.reference, r.tolerance
        );
        if !ok {
            failures.push(format!(
                "{}: {} = {m:e}, want {:?} {:e} (tolerance {})",
                r.claim, r.generator, r.check, r.reference, r.tolerance
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
