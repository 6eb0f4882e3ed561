//! Long-run stability: three simulated days of the full fabric, and a
//! season long enough for the repository's wind log to wrap.

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::timeline::Event;

fn soak_fabric() -> XgFabric {
    XgFabric::new(FabricConfig {
        seed: 2024,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ..Default::default()
    })
}

#[test]
fn three_day_soak_stays_sane() {
    let mut fab = soak_fabric();
    // 3 days = 864 report cycles; a front every ~8 hours.
    for day_eighth in 0..9 {
        fab.force_front();
        fab.run_cycles(96).unwrap();
        let _ = day_eighth;
    }
    let tl = fab.timeline();
    // Telemetry never skipped a beat.
    assert_eq!(tl.telemetry_latencies_ms().len(), 864);
    // Latencies stay in band for the whole run (no drift/leak in the
    // virtual clock or the protocol state).
    for l in tl.telemetry_latencies_ms() {
        assert!(l > 100.0 && l < 30_000.0, "latency {l}");
    }
    // The 9 forced fronts triggered detections and CFD runs, but the
    // trigger rate stayed far below the check rate (no runaway feedback).
    let checks = tl.count(|e| matches!(e, Event::ChangeChecked { .. }));
    assert!(checks >= 140, "checks {checks}");
    let triggers = tl.changes_detected();
    assert!(triggers >= 5, "fronts must trigger: {triggers}");
    assert!(
        triggers * 3 <= checks,
        "trigger rate runaway: {triggers} of {checks}"
    );
    // Every trigger eventually produced a CFD (pilot pipeline never
    // wedged); pending work is bounded.
    let cfd = tl.cfd_runs();
    assert!(
        cfd >= triggers.saturating_sub(2),
        "cfd {cfd} vs triggers {triggers}"
    );
    // Results kept flowing to the operator.
    assert!(fab.operator_view().is_some());
    // Virtual time adds up: 864 cycles * 300 s.
    assert!((fab.now_s() - 864.0 * 300.0).abs() < 1e-6);
}

#[test]
fn season_soak_keeps_detecting() {
    let mut fab = soak_fabric();
    // 35 days: the repository's wind log (8 192 reports) wraps on day 29;
    // the closed loop must not notice.
    for _ in 0..35 * 3 {
        fab.force_front();
        fab.run_cycles(96).unwrap();
    }
    let tl = fab.timeline();
    for day in 30..=35 {
        let in_day = |t_s: &f64| (t_s / 86_400.0).ceil() == f64::from(day);
        let checks = tl.count(|e| matches!(e, Event::ChangeChecked { t_s, .. } if in_day(t_s)));
        let cfd = tl.count(|e| matches!(e, Event::CfdCompleted { t_s, .. } if in_day(t_s)));
        assert!(checks >= 40, "day {day}: {checks} change checks");
        assert!(cfd >= 1, "day {day}: no CFD completed");
    }
    let rel = fab.reliability_report();
    assert!(rel.lossless(), "{rel}");
}
