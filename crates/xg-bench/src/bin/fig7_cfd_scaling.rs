//! Figure 7: OpenFOAM total-runtime strong-scaling curve on a single
//! 64-core node.
//!
//! The paper runs the full CFD computation (including serial mesh
//! generation) 10 times per core count on a Notre Dame node and plots mean
//! ± 2 SD; at 64 cores the mean is 420.39 s ± 36.29 s.
//!
//! Two reproductions are reported:
//!
//! 1. **measured** — the real in-crate solver timed once, on one thread,
//!    on a reduced mesh. The solver runs on the calling thread, so this
//!    row is its serial cost and no measured point shows scaling;
//! 2. **modelled** — the calibrated [`CfdPerfModel`] extrapolated to the
//!    paper's node (1..64 cores, 10 jittered runs per point), which is the
//!    curve to compare with Fig. 7 (this machine has fewer cores than the
//!    paper's node).
//!
//! Run: `cargo run -p xg-bench --release --bin fig7_cfd_scaling`

use std::time::Instant;
use xg_bench::{effective_seed, obs_from_env, print_run_header, write_results};
use xg_cfd::prelude::*;

const RUNS_PER_POINT: u32 = 10;

fn measured_solver_time(cells: [usize; 3], steps: usize) -> f64 {
    // Mesh generation is intentionally inside the timed region: the
    // paper's Fig. 7 totals include it, and it is the serial phase.
    #[expect(
        clippy::disallowed_methods,
        reason = "Fig. 7 times the real solver on the wall by design"
    )]
    let start = Instant::now();
    let spec = DomainSpec::cups_default().with_cells(cells[0], cells[1], cells[2]);
    let mesh = Mesh::generate(&spec);
    let bc = xg_cfd::boundary::BoundarySpec::intact(5.0, 270.0, 22.0);
    let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
    sim.run(steps);
    start.elapsed().as_secs_f64()
}

fn main() {
    // Offsets the modelled run-jitter sequence; the measured part is
    // wall-clock and the model mean is seed-independent.
    let seed = effective_seed(0);
    print_run_header(seed, &obs_from_env());
    let mut csv = String::from("cores,kind,mean_total_s,two_sd_s,speedup\n");

    // Part 1: real solver, reduced problem, one thread.
    println!("Figure 7 (part 1) — real solver on this host, one thread, reduced mesh\n");
    println!("{:>6} {:>12}", "threads", "time (s)");
    let t = measured_solver_time([36, 30, 8], 60);
    println!("{:>6} {t:>12.3}", 1);
    csv.push_str(&format!("1,measured,{t:.4},0,1.000\n"));
    println!("  (the solver runs on the calling thread; the scaling curve");
    println!("   comes from the model below)");

    // Part 2: calibrated paper-scale model, 10 runs per core count.
    let model = CfdPerfModel::notre_dame();
    println!("\nFigure 7 (part 2) — modelled Notre Dame node, {RUNS_PER_POINT} runs/point\n");
    println!(
        "{:>6} {:>14} {:>10} {:>9}",
        "cores", "mean total (s)", "±2SD (s)", "speedup"
    );
    for cores in [1u32, 2, 4, 8, 16, 32, 64] {
        let runs: Vec<f64> = (0..RUNS_PER_POINT)
            .map(|i| {
                model.total_time_s(cores)
                    * model.run_jitter(i.wrapping_add(cores).wrapping_add(seed as u32))
            })
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        let sd =
            (runs.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / (runs.len() - 1) as f64).sqrt();
        println!(
            "{cores:>6} {mean:>14.2} {:>10.2} {:>9.2}",
            2.0 * sd,
            model.speedup(cores)
        );
        csv.push_str(&format!(
            "{cores},modelled,{mean:.2},{:.2},{:.3}\n",
            2.0 * sd,
            model.speedup(cores)
        ));
    }
    println!(
        "\npaper anchor: 420.39 s ± 36.29 at 64 cores | model: {:.2} s ± {:.2}",
        model.total_time_s(64),
        model.total_time_s(64) * model.rel_sd
    );

    // Part 3: the §4.4 multi-node observation.
    println!("\n§4.4 multi-node behaviour (64 cores/node):");
    println!(
        "{:>6} {:>16} {:>16}",
        "nodes", "solver-only (s)", "total app (s)"
    );
    for nodes in [1u32, 2, 4] {
        println!(
            "{nodes:>6} {:>16.2} {:>16.2}",
            model.multi_node_solve_s(nodes),
            model.multi_node_total_s(nodes)
        );
        csv.push_str(&format!(
            "{nodes},multinode,{:.2},{:.2},0\n",
            model.multi_node_solve_s(nodes),
            model.multi_node_total_s(nodes)
        ));
    }
    println!(
        "  (solver alone fastest at 2 nodes; total application fastest at 1 — as in the paper)"
    );
    let path = write_results("fig7_cfd_scaling.csv", &csv);
    println!("\nwrote {}", path.display());
}
