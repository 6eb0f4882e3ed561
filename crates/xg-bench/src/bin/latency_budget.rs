//! §4.4 latency budget, *measured* from causal spans.
//!
//! Unlike `e2e_timeline` (which narrates a scripted day), this binary runs
//! the orchestrated fabric with observability enabled and regenerates the
//! paper's end-to-end budget table from the spans the closed loop actually
//! recorded: telemetry transfer, change detection, pilot queue-masking,
//! the CFD solve, and the results return — one trace per triggered cycle.
//!
//! Outputs land in `results/`:
//! * `latency_budget.csv` — the per-stage table (count/mean/p50/p99/max/share);
//! * `latency_budget_trace.jsonl` — every recorded span, one JSON object
//!   per line, for external trace viewers;
//! * `latency_budget_metrics.prom` — the full metrics snapshot
//!   (per-phase CSPOT RTTs, pilot waits, CFD sweep times, RAN goodput).
//!
//! The run hard-asserts the §4.4 shape — CFD dominates the budget and the
//! HPC queue wait is masked by warm pilots — so the CI smoke job fails if
//! the pipeline stops producing sane traces. Scale with `XG_BUDGET_FRONTS`
//! (default 6 triggered cycles) and `XG_SEED`.
//!
//! Run: `cargo run -p xg-bench --release --bin latency_budget`

use xg_bench::{claim_results, effective_seed, print_run_header, write_results, CsvWriter};
use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_hpc::site::SiteProfile;
use xg_obs::{budget_table, prometheus_text, render_budget_table, spans_to_jsonl, Obs};

/// The closed-loop pipeline stages, in causal order.
const STAGES: [&str; 5] = [
    "telemetry.transfer",
    "change.detection",
    "hpc.queue_mask",
    "cfd.solve",
    "results.return",
];

fn main() {
    let seed = effective_seed(71);
    let fronts: usize = std::env::var("XG_BUDGET_FRONTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(6);
    // Drop any earlier run's outputs first: a crash after the CSV write
    // must not leave a previous run's trace/metrics beside a fresh CSV.
    claim_results(&[
        "latency_budget.csv",
        "latency_budget_trace.jsonl",
        "latency_budget_metrics.prom",
    ]);
    // This binary's whole point is measured spans, so observability
    // defaults on; XG_OBS=0 still turns it off for a dry run.
    let obs = Obs::from_env_or(true);
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        failover_sites: vec![SiteProfile::anvil()],
        obs: obs.clone(),
        ..Default::default()
    });

    println!("Latency budget — measured spans from the instrumented closed loop");
    print_run_header(seed, &obs);
    println!("fronts = {fronts} (override with XG_BUDGET_FRONTS)\n");
    if !obs.is_enabled() {
        println!("observability disabled (XG_OBS=0) — nothing to attribute");
        return;
    }

    // History build-up, then one weather front per triggered cycle; two
    // hours of reports after each front lets the CFD finish and the
    // results-return span close before the next trigger.
    fab.run_cycles(12).expect("healthy warm-up");
    for _ in 0..fronts {
        fab.force_front();
        fab.run_cycles(24).expect("healthy budget run");
    }

    let spans = obs.tracer().expect("obs enabled").spans();
    assert!(
        !spans.is_empty(),
        "instrumented run recorded no spans — tracing is broken"
    );
    let rows = budget_table(&spans, &STAGES);
    println!("{}", render_budget_table(&rows));

    let stage = |name: &str| {
        rows.iter()
            .find(|r| r.stage == name)
            .expect("stage present")
    };
    let transfer = stage("telemetry.transfer");
    let queue = stage("hpc.queue_mask");
    let cfd = stage("cfd.solve");
    let ret = stage("results.return");

    println!("paper §4.4 anchors vs measured:");
    println!(
        "  transfer  : paper ~0.2 s/cycle (2 x ~101 ms messages)   measured mean {:.3} s",
        transfer.mean_s
    );
    println!(
        "  queueing  : paper 0-24 h, masked by warm pilots         measured p50 {:.3} s",
        queue.p50_s
    );
    println!(
        "  CFD solve : paper 420.39 s at 64 cores (here {} steps)  measured mean {:.1} s",
        10, cfd.mean_s
    );
    println!(
        "  return    : paper ~100 ms downlink                      measured mean {:.3} s",
        ret.mean_s
    );
    println!(
        "  dominance : CFD is {:.0}x the transfer stage and {:.1}% of the budget",
        cfd.mean_s / transfer.mean_s.max(1e-9),
        cfd.share * 100.0
    );

    // The §4.4 shape, enforced: a malformed trace fails the CI smoke job.
    for r in &rows {
        assert!(r.count > 0, "stage {} recorded no spans", r.stage);
    }
    assert!(
        cfd.mean_s > 100.0 * transfer.mean_s,
        "CFD must dominate transfer (got {:.3} s vs {:.3} s)",
        cfd.mean_s,
        transfer.mean_s
    );
    assert!(
        queue.p50_s < 1.0,
        "warm pilots must mask queueing (median wait {:.1} s)",
        queue.p50_s
    );

    let mut csv = CsvWriter::new();
    csv.row([
        "stage", "count", "mean_s", "p50_s", "p99_s", "max_s", "share",
    ]);
    for r in &rows {
        csv.row([
            r.stage.clone(),
            r.count.to_string(),
            format!("{:.6}", r.mean_s),
            format!("{:.6}", r.p50_s),
            format!("{:.6}", r.p99_s),
            format!("{:.6}", r.max_s),
            format!("{:.6}", r.share),
        ]);
    }
    let p_csv = write_results("latency_budget.csv", csv.as_str());
    let jsonl = spans_to_jsonl(&spans);
    assert!(!jsonl.trim().is_empty(), "JSONL trace export is empty");
    let p_trace = write_results("latency_budget_trace.jsonl", &jsonl);
    let p_prom = write_results(
        "latency_budget_metrics.prom",
        &prometheus_text(&obs.registry().expect("obs enabled").snapshot()),
    );
    println!("\nwrote {}", p_csv.display());
    println!("wrote {} ({} spans)", p_trace.display(), spans.len());
    println!("wrote {}", p_prom.display());
}
