//! The four workloads. Each is a deterministic batch of public calls into
//! the program: closed loop, one process, fixed work. Host time is
//! measured; simulated results are digested and checked, never timed.

use crate::harness::{Digest, Mode, Outcome, Workload};
use std::fmt::Write as _;
use xg_cfd::prelude::*;
use xg_cspot::outage::OutageConfig;
use xg_fabric::orchestrator::{default_slos, FabricConfig, XgFabric};
use xg_fabric::ran::{RanCellSpec, RanTopology, ScenarioUe};
use xg_fabric::timeline::Event;
use xg_faults::{FaultKind, FaultPlan};
use xg_hpc::site::SiteProfile;
use xg_net::prelude::*;
use xg_net::slice::SliceProfile;
use xg_obs::Obs;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};

/// Report cycles per simulated day (300 s telemetry duty cycle).
pub const CYCLES_PER_DAY: usize = 288;
/// A forced weather front every 8 hours keeps the detect → pilot → CFD →
/// results-return side of the loop running every day, as
/// `reliability_study` does.
const CYCLES_PER_FRONT: usize = 96;
/// The first hour is the warm-up prefix: the change detector needs two
/// full 30-minute windows before it can fire, so no CFD solve falls in it.
const WARMUP_CYCLES: usize = 12;
/// CFD solves in the reference day that `host_ms_per_unit` prices: what
/// the default detector triggers on average (63–97 over 8 days by seed).
const CFD_SOLVES_PER_DAY: f64 = 10.0;
const REPORT_S: f64 = 300.0;
const DAY_S: f64 = 86_400.0;
const HOUR_S: f64 = 3_600.0;

/// The orchestrated fabric, used two ways.
pub struct Fabric {
    storm: bool,
}

pub struct FabricState {
    fab: XgFabric,
    obs: Obs,
}

impl Fabric {
    /// The paper deployment on a quiet week: one cell, no RIC, no faults,
    /// observability off. Idle-skip, sensors, gateway/CSPOT, Laminar, the
    /// HPC pilot and the small in-loop CFD each take a visible share.
    pub fn day() -> Self {
        Fabric { storm: false }
    }

    /// The same orchestrator with everything switched on: four sliced
    /// cells carrying live traffic (which defeats idle-skip), the RIC with
    /// its three xApps, the SLO watchdog and flight recorder, a busy
    /// cluster with a failover site, and a seeded fault schedule.
    pub fn storm() -> Self {
        Fabric { storm: true }
    }

    fn days(&self) -> usize {
        if self.storm {
            3
        } else {
            8
        }
    }

    fn config(&self, seed: u64, mode: Mode) -> FabricConfig {
        // Study-scale in-loop CFD, as `reliability_study` uses.
        let base = FabricConfig {
            seed,
            cfd_cells: [12, 10, 4],
            cfd_steps: 10,
            ..Default::default()
        };
        if !self.storm {
            return FabricConfig {
                obs: if mode.traced {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                },
                ran: RanTopology {
                    workers: mode.workers,
                    ..RanTopology::default()
                },
                ..base
            };
        }
        FabricConfig {
            ran: storm_topology(seed, mode.workers),
            ric: Some(paper_ric(seed, 300.0)),
            obs: Obs::enabled(),
            slos: default_slos(),
            busy_cluster: true,
            failover_sites: vec![SiteProfile::anvil()],
            faults: storm_faults(seed),
            ..base
        }
    }
}

/// The shipping xApp stack in registration order.
pub fn paper_ric(seed: u64, period_s: f64) -> Ric {
    let mut ric = Ric::new(seed, period_s);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("valid slicer params"));
    ric.register(BurstGuard::new(Snssai::miot(1)));
    ric.register(McsCapper::try_new(7.4).expect("valid max_eff"));
    ric
}

/// A 20 MHz NR FDD cell sliced 50/50 mIoT/eMBB with one probe UE, an
/// 8 Mbps weather cluster on mIoT and a pest camera on eMBB that bursts
/// 8 → 80 Mbps over `[burst_start_s, burst_start_s + 60)` fleet seconds
/// (the fleet advances one second per report cycle).
pub fn sliced_cell(name: &str, burst_start_s: f64) -> RanCellSpec {
    let slices = SliceConfig::new(vec![
        SliceProfile {
            snssai: Snssai::miot(1),
            prb_share: 0.5,
        },
        SliceProfile {
            snssai: Snssai::embb(1),
            prb_share: 0.5,
        },
    ])
    .expect("two 0.5 shares are a valid slice table");
    RanCellSpec::paper_default(name)
        .with_config(CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)).with_slices(slices))
        .with_scenario_ue(ScenarioUe {
            device: DeviceClass::RaspberryPi,
            snssai: Snssai::miot(1),
            traffic: TrafficModel::Cbr { rate_mbps: 8.0 },
        })
        .with_scenario_ue(ScenarioUe {
            device: DeviceClass::RaspberryPi,
            snssai: Snssai::embb(1),
            traffic: TrafficModel::pest_camera(8.0, 80.0, burst_start_s, burst_start_s + 60.0),
        })
}

const STORM_CELLS: [&str; 4] = ["UNL-5G", "FIELD-B", "FIELD-C", "FIELD-D"];

fn storm_topology(seed: u64, workers: usize) -> RanTopology {
    RanTopology {
        cells: STORM_CELLS
            .iter()
            .enumerate()
            .map(|(i, name)| {
                // One burst per cell on day 2, staggered, its phase drawn
                // from the seed.
                let start = CYCLES_PER_DAY as u64 + 60 * i as u64 + (seed >> (8 * i)) % 32;
                sliced_cell(name, start as f64)
            })
            .collect(),
        workers,
        ..RanTopology::default()
    }
}

/// Faults over days 2–3 of the storm (day 1 is quiet).
pub fn storm_faults(seed: u64) -> FaultPlan {
    FaultPlan::builder(seed.wrapping_add(38))
        .stochastic(
            OutageConfig::flaky_5g(),
            FaultKind::RoutePartition {
                from: "UNL-5G".into(),
                to: "UCSB".into(),
            },
        )
        .scripted(
            DAY_S + 4.0 * HOUR_S,
            2.0 * HOUR_S,
            FaultKind::PacketLossSurge {
                from: "UNL-5G".into(),
                to: "UCSB".into(),
                loss_prob: 0.3,
            },
        )
        .fade_cell(DAY_S + 6.0 * HOUR_S, 2.0 * HOUR_S, "FIELD-B", -25.0)
        .scripted(
            DAY_S + 8.0 * HOUR_S,
            6.0 * HOUR_S,
            FaultKind::HpcSiteOutage {
                site: "ND-CRC".into(),
            },
        )
        .scripted(
            DAY_S + 12.0 * HOUR_S,
            12.0 * HOUR_S,
            FaultKind::SensorDropout { station: 2 },
        )
        .drop_indications(2.0 * DAY_S + 2.0 * HOUR_S, 2.0 * HOUR_S, "FIELD-C")
        .build()
}

impl Workload for Fabric {
    type State = FabricState;

    fn name(&self) -> &'static str {
        if self.storm {
            "fabric_storm"
        } else {
            "fabric_day"
        }
    }

    fn slice_name(&self) -> &'static str {
        "report_cycle"
    }

    fn slices(&self) -> usize {
        self.days() * CYCLES_PER_DAY
    }

    fn warmup(&self) -> usize {
        WARMUP_CYCLES
    }

    fn units(&self) -> f64 {
        (self.slices() - WARMUP_CYCLES) as f64 / CYCLES_PER_DAY as f64
    }

    fn unit_line(&self, host_ms: f64) -> String {
        format!("sim_day_ms = {host_ms} ms ({CYCLES_PER_DAY} report cycles, {CFD_SOLVES_PER_DAY} CFD solves)")
    }

    fn reference_events(&self) -> f64 {
        CFD_SOLVES_PER_DAY
    }

    fn alloc_tolerance(&self) -> f64 {
        // With observability on, instruments fed wall-clock durations grow
        // with the values they see, so the storm's counts wobble by ~0.01 %.
        if self.storm {
            1e-3
        } else {
            0.0
        }
    }

    fn build(&self, seed: u64, mode: Mode) -> FabricState {
        let config = self.config(seed, mode);
        let obs = config.obs.clone();
        FabricState {
            fab: XgFabric::new(config),
            obs,
        }
    }

    fn slice(&self, state: &mut FabricState, i: usize) -> Result<(), String> {
        if i.is_multiple_of(CYCLES_PER_FRONT) {
            state.fab.force_front();
        }
        state.fab.run_report_cycle().map_err(|e| e.to_string())
    }

    fn finish(&self, state: FabricState) -> Outcome {
        let report = state.fab.reliability_report();
        let mut digest = Digest::new();
        let mut text = String::new();
        for event in &state.fab.timeline().events {
            text.clear();
            let _ = write!(text, "{event:?}");
            digest.bytes(text.as_bytes());
        }
        digest.bytes(format!("{report:?}").as_bytes());
        let mut broken = Vec::new();
        if !report.lossless() {
            broken.push(format!("telemetry lost: {report:?}"));
        }
        // The in-loop solver runs in the first cycle that ends at or after
        // the task's modelled completion time.
        let mut events = vec![0u32; self.slices()];
        for event in &state.fab.timeline().events {
            if let Event::CfdCompleted { t_s, .. } = event {
                let cycle = (*t_s / REPORT_S).ceil() as usize;
                match events.get_mut(cycle.saturating_sub(1)) {
                    Some(n) => *n += 1,
                    None => broken.push(format!("CFD completed at {t_s} s, past the horizon")),
                }
            }
        }
        if !self.storm {
            if report.records_delivered != report.records_buffered {
                broken.push(format!(
                    "quiet link left a backlog: delivered {} of {}",
                    report.records_delivered, report.records_buffered
                ));
            }
            for (day, cycles) in events.chunks(CYCLES_PER_DAY).enumerate() {
                if cycles.iter().sum::<u32>() == 0 {
                    broken.push(format!("no CFD completed on day {}", day + 1));
                }
            }
        }
        Outcome {
            digest: digest.value(),
            summary: format!(
                "{} timeline events, {} detections, {} CFD runs, {} failovers, {} records delivered, {} degraded cycles",
                state.fab.timeline().events.len(),
                report.detections,
                report.cfd_completed,
                report.failovers,
                report.records_delivered,
                report.degraded_cycles
            ),
            broken,
            events,
            obs_spans: state
                .obs
                .tracer()
                .map(|t| t.take_spans())
                .unwrap_or_default(),
        }
    }
}

/// 8 NR-FDD-20 MHz cells × 32 UEs stepped one simulated second per slice
/// on one worker: MAC/PHY/HARQ do all the work, the fabric none.
pub struct RanFleetSeconds;

const FLEET_CELLS: usize = 8;
const UES_PER_CELL: usize = 32;
const BACKLOGGED_PER_CELL: usize = 8;
const FLEET_SECONDS: usize = 11;

/// `cells` NR-FDD-20 MHz cells of 32 UEs each: 8 backlogged, 8 CBR at
/// 2 Mbps, 16 sending 48 B every second.
pub fn mixed_fleet(seed: u64, cells: usize, workers: usize) -> RanFleet {
    let mut fleet = RanFleet::builder(seed)
        .cells(cells, CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)))
        .workers(workers)
        .build()
        .expect("paper cell config is valid");
    for c in 0..cells as u32 {
        for u in 0..UES_PER_CELL {
            let ue = fleet
                .attach(CellId(c), DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .expect("cell exists");
            if u < BACKLOGGED_PER_CELL {
                fleet.set_backlogged(ue, true).expect("ue exists");
            } else {
                let traffic = if u < 16 {
                    TrafficModel::Cbr { rate_mbps: 2.0 }
                } else {
                    TrafficModel::Periodic {
                        payload_bytes: 48,
                        interval_s: 1.0,
                    }
                };
                fleet.set_traffic(ue, traffic).expect("ue exists");
            }
        }
    }
    fleet
}

pub struct FleetState {
    fleet: RanFleet,
    digest: Digest,
    broken: Vec<String>,
}

impl Workload for RanFleetSeconds {
    type State = FleetState;

    fn name(&self) -> &'static str {
        "ran_fleet"
    }

    fn slice_name(&self) -> &'static str {
        "fleet_second"
    }

    fn slices(&self) -> usize {
        FLEET_SECONDS
    }

    fn warmup(&self) -> usize {
        1
    }

    fn units(&self) -> f64 {
        (FLEET_SECONDS - 1) as f64
    }

    fn unit_line(&self, host_ms: f64) -> String {
        format!(
            "sim_second_ms = {host_ms} ms ({:.0} UE-seconds per core-second)",
            (FLEET_CELLS * UES_PER_CELL) as f64 * 1e3 / host_ms
        )
    }

    fn build(&self, seed: u64, mode: Mode) -> FleetState {
        FleetState {
            fleet: mixed_fleet(seed, FLEET_CELLS, mode.workers),
            digest: Digest::new(),
            broken: Vec::new(),
        }
    }

    fn slice(&self, state: &mut FleetState, i: usize) -> Result<(), String> {
        let batches = state.fleet.measure_seconds(1);
        for batch in &batches {
            let samples = &batch.seconds[0];
            for (ue, mbps) in samples {
                state.digest.u64(u64::from(ue.id()));
                state.digest.f64(*mbps);
            }
            // Every UE with a queue is sampled; none may be starved.
            let starved = samples.iter().filter(|(_, mbps)| *mbps <= 0.0).count();
            if samples.len() != UES_PER_CELL || starved > 0 {
                state.broken.push(format!(
                    "second {i} cell {}: {} samples, {starved} without goodput",
                    batch.cell.0,
                    samples.len()
                ));
            }
        }
        Ok(())
    }

    fn finish(&self, state: FleetState) -> Outcome {
        Outcome {
            digest: state.digest.value(),
            summary: format!("{} fleet seconds sampled", state.fleet.now().as_secs_f64()),
            broken: state.broken,
            events: Vec::new(),
            obs_spans: Vec::new(),
        }
    }
}

/// 30 solver steps from the cold field on a 48×40×10 mesh: ten times the
/// in-loop mesh, so a CFD change that helps large meshes but hurts the
/// fabric's small ones shows across the two workloads.
pub struct CfdSolve;

const CFD_STEPS: usize = 30;

/// The mesh and boundary conditions of the `cfd_solve` workload.
pub fn solve_simulation(cells: [usize; 3], seed: u64) -> Simulation {
    let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(cells[0], cells[1], cells[2]));
    // The seed picks the wind: 5 m/s from the west at seed 42.
    let speed = 3.0 + (seed % 5) as f64;
    let dir = 270.0 + ((seed / 5) % 7) as f64 * 15.0 - 30.0;
    Simulation::new(
        mesh,
        BoundarySpec::intact(speed, dir, 22.0),
        SolverConfig::default(),
    )
}

impl Workload for CfdSolve {
    type State = Simulation;

    fn name(&self) -> &'static str {
        "cfd_solve"
    }

    fn slice_name(&self) -> &'static str {
        "solver_step"
    }

    fn slices(&self) -> usize {
        CFD_STEPS
    }

    fn warmup(&self) -> usize {
        5
    }

    fn units(&self) -> f64 {
        1.0
    }

    fn unit_line(&self, host_ms: f64) -> String {
        format!("solve_ms = {host_ms} ms (steps 6-{CFD_STEPS})")
    }

    fn build(&self, seed: u64, _mode: Mode) -> Simulation {
        solve_simulation([48, 40, 10], seed)
    }

    fn slice(&self, sim: &mut Simulation, _i: usize) -> Result<(), String> {
        sim.step();
        Ok(())
    }

    fn finish(&self, sim: Simulation) -> Outcome {
        let mut digest = Digest::new();
        for field in [&sim.u, &sim.v, &sim.w, &sim.t, &sim.p] {
            for v in field.as_slice() {
                digest.f64(*v);
            }
        }
        digest.u64(sim.steps_done() as u64);
        let mut broken = Vec::new();
        let cfl = sim.cfl();
        if !(cfl.is_finite() && cfl < 1.0) {
            broken.push(format!("unstable step: CFL {cfl}"));
        }
        if sim.steps_done() != CFD_STEPS {
            broken.push(format!("{} steps done", sim.steps_done()));
        }
        Outcome {
            digest: digest.value(),
            summary: format!(
                "CFL {cfl:.4}, mean interior wind {:.4} m/s",
                sim.mean_interior_wind()
            ),
            broken,
            events: Vec::new(),
            obs_spans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_pass, SliceTable};
    use std::time::Instant;

    fn fleet_pass(seed: u64) -> (u64, (u64, u64)) {
        let w = RanFleetSeconds;
        let mut table = SliceTable::new(w.slices() + 1);
        let report = run_pass(&w, seed, Mode::SERIAL, &mut table, None, Instant::now());
        assert_eq!(report.failed, 0);
        assert_eq!(report.outcome.broken, Vec::<String>::new());
        (report.outcome.digest, report.alloc)
    }

    #[test]
    fn same_seed_repeats_digest_and_allocation_counts_exactly() {
        let first = fleet_pass(5);
        assert!(first.1 .0 > 0, "the counting allocator is installed");
        assert_eq!(fleet_pass(5), first);
        assert_ne!(fleet_pass(6).0, first.0, "the seed reaches the inputs");
    }
}
