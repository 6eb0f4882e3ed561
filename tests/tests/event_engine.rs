//! Acceptance tests for the event-driven simulation core: the state
//! [`Advance::advance_to`] reaches must not depend on how the advance is
//! chunked, idle time must cost O(events) rather than O(slots), and the
//! unified time API must replay a whole fabric run seed-for-seed. (That
//! the event engine is bitwise-indistinguishable from the stepped
//! reference is held where the reference lives, in
//! `xg-net/src/sim/reference.rs`.)

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_faults::{FaultKind, FaultPlan};
use xg_net::prelude::*;
use xg_net::traffic::TrafficModel;
use xg_prop::prelude::*;
use xg_sensors::network::REPORT_INTERVAL_S;

/// One of four qualitatively different offered-load shapes: always-on,
/// trickle telemetry, constant video, and a mid-window burst.
fn traffic_for(idx: usize) -> TrafficModel {
    match idx % 4 {
        0 => TrafficModel::FullBuffer,
        1 => TrafficModel::Periodic {
            payload_bytes: 48,
            interval_s: 300.0,
        },
        2 => TrafficModel::Cbr { rate_mbps: 2.0 },
        _ => TrafficModel::Periodic {
            payload_bytes: 1_200,
            interval_s: 7.0,
        },
    }
}

fn build_sim(seed: u64, n_ues: usize, traffic_base: usize) -> LinkSimulator {
    let cell = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(20.0));
    let mut sim = LinkSimulator::try_new(cell, seed).expect("valid cell");
    for i in 0..n_ues {
        let ue = sim
            .attach(
                DeviceClass::RaspberryPi,
                Modem::paper_default(DeviceClass::RaspberryPi, Rat::Nr5g),
            )
            .expect("attach");
        sim.set_traffic(ue, traffic_for(traffic_base + i))
            .expect("known ue");
    }
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chunking invariance: reaching `t` through several uneven
    /// `advance_to` calls is identical to one jump — the scheduler's
    /// state is a function of the target instant, not the call pattern.
    #[test]
    fn advance_to_is_chunking_invariant(
        seed in 0u64..u64::MAX,
        splits in xg_prop::collection::vec(1u64..900, 1..5),
    ) {
        let mut chunked = build_sim(seed, 2, 1);
        let mut oneshot = build_sim(seed, 2, 1);
        let total_ms: u64 = splits.iter().sum();
        let mut at = 0u64;
        for ms in &splits {
            at += ms;
            chunked.advance_to(SimNs::from_millis(at)).expect("infallible");
        }
        oneshot.advance_to(SimNs::from_millis(total_ms)).expect("infallible");
        prop_assert_eq!(chunked.slots_elapsed(), oneshot.slots_elapsed());
        prop_assert_eq!(chunked.active_slots(), oneshot.active_slots());
        let a = chunked.flush_second_window(total_ms as f64 / 1e3);
        let b = oneshot.flush_second_window(total_ms as f64 / 1e3);
        prop_assert_eq!(a.len(), b.len());
        for ((ua, ma), (ub, mb)) in a.iter().zip(&b) {
            prop_assert_eq!(ua, ub);
            prop_assert_eq!(ma.to_bits(), mb.to_bits());
        }
    }
}

/// An hour of a quiet weather-station cell (48 bytes per 300 s) must
/// execute scheduler work on a vanishing fraction of its TTIs: the
/// engine's cost is O(events), not O(slots). The stepped reference walks
/// every one of the ~3.6M slots; the event engine touches only the
/// slots where an arrival leaves work pending.
#[test]
fn idle_heavy_hour_costs_o_events() {
    let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0));
    let mut sim = LinkSimulator::try_new(cell, 7).expect("valid cell");
    let ue = sim
        .attach(
            DeviceClass::RaspberryPi,
            Modem::paper_default(DeviceClass::RaspberryPi, Rat::Nr5g),
        )
        .expect("attach");
    sim.set_traffic(
        ue,
        TrafficModel::Periodic {
            payload_bytes: 48,
            interval_s: 300.0,
        },
    )
    .expect("known ue");
    sim.advance_to(SimNs::from_secs(3_600)).expect("infallible");
    let total = sim.slots_elapsed();
    let active = sim.active_slots();
    assert_eq!(total, 3_600 * 1_000_000_000 / sim.slot_ns());
    assert!(
        active * 1_000 < total,
        "idle hour must skip >99.9% of slots: {active} active of {total}"
    );
    // The arrivals themselves were not skipped: each 300 s report got
    // at least one active slot.
    assert!(active >= 12, "12 reports need service: {active}");
}

/// Same-seed replay through the unified time API: driving a fabric with
/// the legacy `run_cycles` wrapper and driving its twin with one
/// `advance_to` call produce identical timelines, clocks, and
/// reliability accounting — under a fault plan that partitions the 5G
/// route mid-run.
#[test]
fn fabric_advance_to_replays_run_cycles_bitwise() {
    let config = || {
        let faults = FaultPlan::builder(23)
            .scripted(
                600.0,
                900.0,
                FaultKind::RoutePartition {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                },
            )
            .build();
        FabricConfig {
            seed: 23,
            cfd_cells: [12, 10, 4],
            cfd_steps: 10,
            faults,
            ..Default::default()
        }
    };
    let mut legacy = XgFabric::new(config());
    let mut event = XgFabric::new(config());
    legacy.run_cycles(12).expect("healthy loop");
    let horizon = SimNs::from_secs_f64(12.0 * REPORT_INTERVAL_S);
    event.advance_to(horizon).expect("healthy loop");
    assert_eq!(legacy.timeline(), event.timeline());
    assert_eq!(legacy.now_s(), event.now_s());
    assert_eq!(event.now(), horizon);
    let a = legacy.reliability_report();
    let b = event.reliability_report();
    assert_eq!(a.records_delivered, b.records_delivered);
    assert_eq!(a.records_dropped, b.records_dropped);
    assert_eq!(a.max_backlog, b.max_backlog);
    assert_eq!(a.detections, b.detections);
    assert!((a.availability_experienced - b.availability_experienced).abs() < 1e-12);
}

/// A fractional-cycle advance runs no cycle (it stays due at the cycle
/// instant) yet moves `now()`, and one later advance catches up several
/// cycles at once, exactly.
#[test]
fn partial_advance_buffers_cleanly() {
    let mut fab = XgFabric::new(FabricConfig {
        seed: 9,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ..Default::default()
    });
    let interval = REPORT_INTERVAL_S;
    let half = SimNs::from_secs_f64(interval / 2.0);
    fab.advance_to(half).expect("no cycle due");
    assert_eq!(fab.timeline().telemetry_latencies_ms().len(), 0);
    assert_eq!(fab.now_s(), 0.0, "virtual cycle clock untouched mid-cycle");
    assert_eq!(fab.now(), half);
    let three = SimNs::from_secs_f64(3.0 * interval);
    fab.advance_to(three).expect("healthy loop");
    assert_eq!(fab.timeline().telemetry_latencies_ms().len(), 3);
    assert!((fab.now_s() - 3.0 * interval).abs() < 1e-9);
    assert_eq!(fab.now(), three);
    // Backwards is a no-op; run_report_cycle resumes from `now()`.
    fab.advance_to(half).expect("no-op");
    assert_eq!(fab.now(), three);
    fab.run_report_cycle().expect("healthy loop");
    assert_eq!(fab.timeline().telemetry_latencies_ms().len(), 4);
}
