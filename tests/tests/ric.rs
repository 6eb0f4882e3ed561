//! Near-RT RIC acceptance: the pest-image burst scenario.
//!
//! A weather-station cluster rides the mIoT slice at a steady 8 Mbps
//! while a pest camera on the eMBB slice bursts from 8 to 80 Mbps — a
//! 10x surge that overruns the cell. The burst-guard xApp must steer
//! PRB shares so weather telemetry keeps its delivery SLO, with the
//! corrective action landing within one indication period of onset;
//! the control run (demand-proportional slicing alone) must
//! demonstrably breach. A RIC starved of indications by a
//! `RicIndicationDrop` fault must hold the last-known-good policy
//! instead of thrashing, and a RIC with zero xApps must leave any run
//! bitwise unchanged.

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_fabric::ran::{RanCellSpec, RanProbe, RanTopology, ScenarioUe};
use xg_fabric::timeline::Event;
use xg_faults::FaultPlan;
use xg_net::prelude::*;
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_net::traffic::TrafficModel;
use xg_obs::Obs;
use xg_prop::prelude::*;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};

/// Weather-station offered rate (Mbps) — the protected mIoT load.
const WEATHER_MBPS: f64 = 8.0;
/// Pest-camera baseline and burst rates (Mbps): a 10x eMBB surge.
const PEST_BASE_MBPS: f64 = 8.0;
const PEST_BURST_MBPS: f64 = 80.0;

/// The paper's 20 MHz UNL cell, sliced 50/50 mIoT/eMBB, carrying the
/// weather cluster and the pest camera. Burst bounds are in fleet
/// virtual seconds (one probe batch = `probe_seconds` = 1 s per report
/// cycle, so cycle `k` covers fleet second `[k-1, k)`).
fn pest_topology(burst_start_s: f64, burst_end_s: f64) -> RanTopology {
    let mut topo = RanTopology::default();
    topo.cells[0] = RanCellSpec::paper_default("UNL-5G")
        .with_config(
            CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)).with_slices(
                SliceConfig::new(vec![
                    SliceProfile {
                        snssai: Snssai::miot(1),
                        prb_share: 0.5,
                    },
                    SliceProfile {
                        snssai: Snssai::embb(1),
                        prb_share: 0.5,
                    },
                ])
                .expect("two 0.5 shares are a valid slice table"),
            ),
        )
        .with_scenario_ue(ScenarioUe {
            device: DeviceClass::RaspberryPi,
            snssai: Snssai::miot(1),
            traffic: TrafficModel::Cbr {
                rate_mbps: WEATHER_MBPS,
            },
        })
        .with_scenario_ue(ScenarioUe {
            device: DeviceClass::RaspberryPi,
            snssai: Snssai::embb(1),
            traffic: TrafficModel::pest_camera(
                PEST_BASE_MBPS,
                PEST_BURST_MBPS,
                burst_start_s,
                burst_end_s,
            ),
        });
    // No backlogged probe UE: the scenario traffic is the measurement.
    topo.cells[0].probe_ues = 0;
    topo
}

/// The shipping xApp trio in registration order: demand-proportional
/// slicing first, the burst guard overriding the slice knob when
/// engaged, the MCS capper on its own (per-UE) knob.
fn paper_ric(seed: u64, period_s: f64, with_guard: bool) -> Ric {
    let mut ric = Ric::new(seed, period_s);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("0.1 floor, 0.5 alpha are valid"));
    if with_guard {
        ric.register(BurstGuard::new(Snssai::miot(1)));
    }
    ric.register(McsCapper::try_new(7.4).expect("positive max_eff"));
    ric
}

/// Per-cycle weather-slice delivery measured from the E2 indication.
#[derive(Debug)]
struct WeatherCycle {
    prb_share: f64,
    offered_bits: f64,
    served_bits: f64,
    queued_bits: f64,
}

/// Drive the RAN + RIC loop directly for `cycles` probe batches and
/// report the weather slice's measured delivery plus every applied
/// action as `(cycle, xapp)`.
fn run_pest_scenario(
    with_guard: bool,
    cycles: usize,
    burst_start_s: f64,
) -> (Vec<WeatherCycle>, Vec<(usize, &'static str)>) {
    let topo = pest_topology(burst_start_s, f64::INFINITY);
    let mut probe = RanProbe::try_new(&topo, 17, &Obs::disabled()).expect("valid topology");
    let mut ric = paper_ric(17, 1.0, with_guard);
    let mut weather = Vec::with_capacity(cycles);
    let mut actions = Vec::new();
    for cycle in 1..=cycles {
        probe.probe();
        let indications = probe.collect_indications();
        let miot = indications[0]
            .slice(Snssai::miot(1))
            .expect("weather slice is configured");
        weather.push(WeatherCycle {
            prb_share: miot.prb_share,
            offered_bits: miot.offered_bits,
            served_bits: miot.served_bits,
            queued_bits: miot.queued_bits,
        });
        let outcome = ric.step(indications, cycle as f64);
        for (xapp, action) in &outcome.actions {
            probe
                .apply_ric_action(action)
                .expect("xApp actions target live cells");
            actions.push((cycle, *xapp));
        }
    }
    (weather, actions)
}

/// Delivery ratio (served/offered) over the scenario's settled tail.
fn tail_delivery_ratio(weather: &[WeatherCycle], tail: usize) -> f64 {
    let tail = &weather[weather.len() - tail..];
    let offered: f64 = tail.iter().map(|w| w.offered_bits).sum();
    let served: f64 = tail.iter().map(|w| w.served_bits).sum();
    served / offered
}

#[test]
fn burst_guard_keeps_weather_telemetry_within_slo() {
    // Burst onset at fleet second 10: cycle 11 carries the first burst
    // indication. 40 cycles leave a 10-cycle settled tail.
    let (weather, actions) = run_pest_scenario(true, 40, 10.0);

    // The corrective action lands within one indication period of
    // onset: the guard engages on the very indication that first shows
    // the surge.
    let first_guard = actions
        .iter()
        .find(|(_, xapp)| *xapp == "burst-guard")
        .map(|&(cycle, _)| cycle)
        .expect("the guard must engage during the burst");
    assert_eq!(
        first_guard, 11,
        "guard must act on the first indication showing the burst"
    );

    // Delivery SLO: every window's telemetry leaves within the window —
    // the weather slice never builds a backlog, and its share is pinned
    // at (or above) the guard's protected floor while engaged.
    let ratio = tail_delivery_ratio(&weather, 10);
    assert!(
        ratio >= 0.95,
        "guarded weather delivery must hold through the burst, got {ratio:.3}"
    );
    for (i, w) in weather.iter().enumerate() {
        assert!(
            w.queued_bits < 1e6,
            "guarded weather queue must stay empty, got {:.2e} bits at cycle {}",
            w.queued_bits,
            i + 1
        );
    }
    for w in &weather[12..] {
        assert!(
            w.prb_share >= 0.2 - 1e-9,
            "the guard pins the protected floor, got share {:.3}",
            w.prb_share
        );
    }
}

#[test]
fn demand_slicing_alone_breaches_the_weather_slo() {
    // Control run: same cell, same burst, no burst guard. The
    // demand-proportional slicer chases the 10x eMBB surge and squeezes
    // the mIoT share toward its floor; weather telemetry backs up into
    // a standing multi-window queue — every report now arrives more
    // than a full reporting interval late, a delivery-latency breach —
    // even though queued bits feeding back into the demand signal keep
    // the long-run served/offered ratio deceptively close to 1. The
    // squeezed slice serves just under the offered 8 Mbps, so the queue
    // is a noisy walk with a small upward drift: it is checked once it
    // has had 35 cycles to build, not on a seed's lucky early start.
    let (weather, _) = run_pest_scenario(false, 70, 10.0);
    let window_bits = WEATHER_MBPS * 1e6;
    for (i, w) in weather.iter().enumerate().skip(45) {
        assert!(
            w.queued_bits > window_bits,
            "unguarded weather must carry over a window of backlog, got {:.2e} bits at cycle {}",
            w.queued_bits,
            i + 1
        );
        assert!(
            w.prb_share < 0.15,
            "the slicer chases the surge, got share {:.3}",
            w.prb_share
        );
    }
    let mid_queue = weather[34].queued_bits;
    let final_queue = weather.last().expect("70 cycles ran").queued_bits;
    assert!(
        final_queue > 10e6 && final_queue > mid_queue,
        "unguarded weather backlog must keep growing: {mid_queue:.2e} -> {final_queue:.2e} bits"
    );
}

#[test]
fn fabric_applies_the_corrective_action_within_one_period() {
    // Full orchestrator: burst onset at fleet second 6 means report
    // cycle 7 (t = 2100 s) carries the first burst indication; the
    // burst-guard's reapportionment must land on that same cycle.
    let obs = Obs::enabled();
    let mut fabric = XgFabric::new(FabricConfig {
        seed: 23,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ran: pest_topology(6.0, f64::INFINITY),
        ric: Some(paper_ric(23, 300.0, true)),
        obs: obs.clone(),
        ..Default::default()
    });
    fabric
        .run_cycles(12)
        .expect("the closed loop must survive the burst");

    let guard_actions: Vec<f64> = fabric
        .timeline()
        .events
        .iter()
        .filter_map(|e| match e {
            Event::RicAction { t_s, xapp, .. } if xapp == "burst-guard" => Some(*t_s),
            _ => None,
        })
        .collect();
    assert_eq!(
        guard_actions.first(),
        Some(&2100.0),
        "first corrective action must land with the onset indication"
    );
    assert!(
        fabric.timeline().first_ric_action().is_some(),
        "timeline records RIC actions"
    );
    assert_eq!(fabric.ric().expect("ric configured").periods(), 12);

    let registry = obs.registry().expect("obs is enabled");
    assert!(
        registry.counter("fabric.ric.actions").get() >= 1,
        "applied actions are counted"
    );
    assert_eq!(
        registry.gauge("fabric.ric.stale_cells").get(),
        0.0,
        "no cell went stale in a fault-free run"
    );
}

#[test]
fn indication_drop_holds_last_known_good_policy() {
    // Chaos: the E2 stream is severed before the burst begins and heals
    // four cycles later. While starved, the RIC must hold the
    // last-known-good policy — zero actions, no thrashing — and the RAN
    // keeps serving; the corrective action lands on the first cycle
    // after the heal.
    let faults = FaultPlan::builder(29)
        .drop_indications(1_400.0, 1_500.0, "UNL-5G")
        .build();
    let mut fabric = XgFabric::new(FabricConfig {
        seed: 29,
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ran: pest_topology(5.0, f64::INFINITY),
        ric: Some(paper_ric(29, 300.0, true)),
        faults,
        ..Default::default()
    });
    fabric
        .run_cycles(12)
        .expect("the loop must ride out the drop");

    // Fault active for cycles 5..=9 (t = 1500..2700); burst onset is
    // visible from cycle 6 (fleet second 5) but undelivered until the
    // stream heals at cycle 10 (t = 3000).
    let ric_action_times: Vec<f64> = fabric
        .timeline()
        .events
        .iter()
        .filter_map(|e| match e {
            Event::RicAction { t_s, .. } => Some(*t_s),
            _ => None,
        })
        .collect();
    assert!(
        ric_action_times.iter().all(|&t| t >= 3_000.0),
        "a starved RIC must hold policy, not act on stale state: {ric_action_times:?}"
    );
    assert!(
        ric_action_times.contains(&3_000.0),
        "the corrective action must land on the first healed cycle: {ric_action_times:?}"
    );
    // The RAN itself never stopped: every cycle still probed the cell.
    assert_eq!(
        fabric
            .timeline()
            .count(|e| matches!(e, Event::RanProbed { .. })),
        12
    );
    // The engine saw the starvation: 12 periods ran regardless.
    assert_eq!(fabric.ric().expect("ric configured").periods(), 12);
}

#[test]
fn same_seed_replay_with_xapps_is_bitwise_identical() {
    let run = |seed: u64| {
        let mut fabric = XgFabric::new(FabricConfig {
            seed,
            cfd_cells: [12, 10, 4],
            cfd_steps: 10,
            ran: pest_topology(3.0, f64::INFINITY),
            ric: Some(paper_ric(seed, 300.0, true)),
            ..Default::default()
        });
        fabric.run_cycles(8).expect("closed loop runs");
        fabric.timeline().clone()
    };
    let a = run(77);
    let b = run(77);
    assert!(a.ric_actions() > 0, "the scenario must exercise the RIC");
    assert_eq!(a, b, "same seed + same xApps must replay bitwise");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A RIC with zero xApps is a pure observer: for any seed the
    /// orchestrated timeline is bitwise identical to a RIC-less run.
    #[test]
    fn zero_xapp_ric_never_perturbs_the_run(seed in 0u64..1 << 16) {
        let run = |ric: Option<Ric>| {
            let mut fabric = XgFabric::new(FabricConfig {
                seed,
                cfd_cells: [12, 10, 4],
                cfd_steps: 10,
                ran: pest_topology(1.0, f64::INFINITY),
                ric,
                ..Default::default()
            });
            fabric.run_cycles(3).expect("closed loop runs");
            fabric.timeline().clone()
        };
        let without = run(None);
        let with = run(Some(Ric::new(seed, 300.0)));
        prop_assert_eq!(without, with);
    }
}
