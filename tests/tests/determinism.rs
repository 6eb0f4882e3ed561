//! Same-seed reproducibility regression tests.
//!
//! The workspace `clippy.toml` bans `HashMap`/`HashSet` because one
//! unordered iteration on a deterministic path silently breaks the
//! repo's core claim: every figure-shaped result is a function of the
//! seed. These
//! tests pin the claim end-to-end — two closed-loop runs under the same
//! seed (with faults active, so the netsim/route, RAN-fleet, and
//! store-and-forward paths all execute) must produce *byte-identical*
//! timelines. They passed before the `BTreeMap` migrations and must
//! keep passing after; a reintroduced unordered container that leaks
//! into event order fails here even if it slips past clippy.

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_faults::{FaultKind, FaultPlan};

/// One scaled-down closed-loop run; returns the full timeline and
/// reliability report rendered to bytes. `Debug` formatting of floats
/// is shortest-round-trip, so equal bytes means equal values, order,
/// and event count — not merely equal summaries.
fn run_once(seed: u64) -> (String, String) {
    let faults = FaultPlan::builder(seed)
        .scripted(
            3_600.0,
            1_200.0,
            FaultKind::RoutePartition {
                from: "UNL-5G".into(),
                to: "UCSB".into(),
            },
        )
        .build();
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        faults,
        ..Default::default()
    });
    fab.run_cycles(36)
        .expect("closed loop must survive the run");
    let timeline = format!("{:?}", fab.timeline());
    let report = format!("{:?}", fab.reliability_report());
    (timeline, report)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (timeline_a, report_a) = run_once(97);
    let (timeline_b, report_b) = run_once(97);
    assert!(
        !timeline_a.is_empty() && timeline_a.contains("TelemetryShipped"),
        "run must actually produce events"
    );
    assert_eq!(
        timeline_a, timeline_b,
        "same seed must replay a byte-identical timeline"
    );
    assert_eq!(
        report_a, report_b,
        "same seed must replay a byte-identical reliability report"
    );
}

#[test]
fn different_seeds_diverge() {
    // Guards the test itself: if the timeline were constant (or empty),
    // the byte-identical assertion above would be vacuous.
    let (timeline_a, _) = run_once(97);
    let (timeline_c, _) = run_once(98);
    assert_ne!(
        timeline_a, timeline_c,
        "different seeds must not produce identical timelines"
    );
}
