//! Acceptance tests for the critical-path profiler and the `xg-trace`
//! analysis pipeline: a deliberately injected RAN-probe stall must come
//! back out of a two-run span-dump diff attributed to the right
//! subsystem node, and the per-cycle critical path must surface in the
//! orchestrator's instruments.

use xg_bench::trace::{critical_report, diff_rows, flame_report};
use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::ran::RanTopology;
use xg_obs::{parse_spans_jsonl, spans_to_jsonl, Obs, SpanRecord};

/// The span contract `benchmark/src/phases.rs` harvests: the cycle's
/// phases, in pipeline order, as the children of one `fabric.cycle` root.
const PHASES: [&str; 8] = [
    "fabric.faults.advance",
    "fabric.ran.probe",
    "fabric.ric.step",
    "fabric.sense.poll",
    "fabric.gateway.ship",
    "fabric.hpc.advance",
    "fabric.slo.observe",
    "fabric.change.detect",
];

/// Every traced cycle is one `fabric.cycle` root whose children are
/// exactly [`PHASES`], in that order.
fn assert_cycle_shape(spans: &[SpanRecord], cycles: usize) {
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "fabric.cycle").collect();
    assert_eq!(roots.len(), cycles, "one root per cycle");
    for root in roots {
        assert_eq!(root.parent, None);
        let in_trace = spans
            .iter()
            .filter(|s| s.trace == root.trace && s.parent.is_none());
        assert_eq!(in_trace.count(), 1, "one root per trace");
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| s.name.as_ref())
            .collect();
        assert_eq!(children, PHASES, "cycle trace {}", root.trace);
    }
}

/// Run `cycles` report cycles and return the run's spans after a full
/// JSONL round trip — the same path an `xg-trace` invocation over a
/// dump file exercises.
fn run_and_dump(
    seed: u64,
    probe_seconds: usize,
    burst_slots: usize,
    cycles: usize,
) -> Vec<SpanRecord> {
    let obs = Obs::enabled();
    let ran = RanTopology {
        probe_seconds,
        probe_burst_slots: burst_slots,
        ..RanTopology::default()
    };
    let mut fab = XgFabric::new(FabricConfig {
        seed,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ran,
        obs: obs.clone(),
        ..Default::default()
    });
    for _ in 0..cycles {
        fab.run_report_cycle().expect("healthy closed loop");
    }
    let jsonl = spans_to_jsonl(&obs.tracer().expect("obs enabled").take_spans());
    let spans = parse_spans_jsonl(&jsonl);
    assert_cycle_shape(&spans, cycles);
    spans
}

/// The headline acceptance: stall the RAN probe (24 probed sim-seconds
/// per cycle instead of 1, with the measurement burst widened to cover
/// them — under the event engine, seconds outside the burst window are
/// idle-skipped and cost nothing) and the regression-attribution diff
/// must rank the probe's attribution node as the biggest mover,
/// positive.
#[test]
fn trace_diff_attributes_an_injected_ran_probe_stall() {
    let baseline = run_and_dump(42, 1, 32, 6);
    let stalled = run_and_dump(42, 24, 24_000, 6);
    let rows = diff_rows(&baseline, &stalled);
    let top = rows.first().expect("dumps are non-empty");
    assert!(
        top.path.ends_with("fabric.ran.probe"),
        "top mover must be the probe, got {:?}",
        rows.iter().take(3).collect::<Vec<_>>()
    );
    assert!(
        top.delta_ms() > 0.0,
        "stall must read as a regression: {top:?}"
    );
}

/// Every report cycle yields a critical path: instruments populated,
/// the latest path retained on the fabric, and both offline reports
/// renderable from the same dump.
#[test]
fn report_cycles_emit_critical_paths_and_renderable_reports() {
    let obs = Obs::enabled();
    let mut fab = XgFabric::new(FabricConfig {
        seed: 7,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        obs: obs.clone(),
        ..Default::default()
    });
    for _ in 0..3 {
        fab.run_report_cycle().expect("healthy closed loop");
    }
    let reg = obs.registry().expect("obs enabled");
    assert_eq!(reg.histogram("fabric.cycle.critical.total_ms").count(), 3);
    assert!(reg.gauge("fabric.cycle.critical.depth").get() >= 1.0);
    let path = fab.last_critical().expect("cycle produced a path");
    assert_eq!(path.steps[0].name, "fabric.cycle");
    // The live profiler ingested the same cycles the dump carries.
    let prof = obs.profiler().expect("obs enabled").snapshot();
    assert_eq!(prof.nodes["fabric.cycle"].calls, 3);
    let spans = obs.tracer().expect("obs enabled").take_spans();
    assert_cycle_shape(&spans, 3);
    let critical = critical_report(&spans);
    assert!(critical.contains("slowest cycle"));
    assert!(critical.contains("fabric.cycle"));
    let flame = flame_report(&spans);
    assert!(flame.contains("3 cycles"));
    assert!(flame.contains("fabric.cycle/"));
}

/// Disabled observability stays free: no profiler, no tracer, and the
/// closed loop still runs — the guard-free hot path.
#[test]
fn disabled_obs_keeps_the_loop_unprofiled() {
    let mut fab = XgFabric::new(FabricConfig {
        seed: 5,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ..Default::default()
    });
    fab.run_report_cycle().expect("healthy closed loop");
    assert!(fab.last_critical().is_none());
}
