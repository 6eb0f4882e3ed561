//! Multi-cell RAN topology for the fabric.
//!
//! The paper's deployment is one cell (UNL's 5G CBRS site). A
//! production fabric spans several: the field gateway camps on one cell
//! while remote sensor clusters ride their own. [`RanTopology`]
//! describes that layout, and [`RanProbe`] keeps a live
//! [`RanFleet`] stepping alongside the
//! orchestrator so per-cell goodput and fade state are *measured* every
//! report cycle — feeding the SLO window, the timeline, and per-cell
//! fault targeting — instead of inferred from the gateway's latency
//! alone.

use std::sync::Arc;
use xg_net::device::UnitVariation;
use xg_net::e2::CellIndication;
use xg_net::fleet::{CellId, FleetUe, RanFleet};
use xg_net::prelude::{Advance, CellConfig, DeviceClass, Duplex, MHz, Modem, NetError, Rat, SimNs};
use xg_net::sim::{LinkSimulator, UeHandle};
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_net::traffic::TrafficModel;
use xg_obs::Obs;
use xg_ric::RicAction;

/// SNR offset applied to a partitioned cell: far below any MCS floor,
/// so every UE on it reads ~0 goodput.
const CELL_DOWN_SNR_DB: f64 = -200.0;

/// Default probe-burst length (TTIs). Long enough to average over HARQ
/// and fast-fade jitter, short enough that a probe cycle is dominated
/// by the idle-skip, not the burst.
const DEFAULT_PROBE_BURST_SLOTS: usize = 32;

/// One scripted traffic-bearing UE attached to a cell at construction
/// (beyond the backlogged probe UEs): a weather-station cluster on the
/// mIoT slice, a pest camera on eMBB. These are the UEs a RIC steers.
#[derive(Debug, Clone)]
pub struct ScenarioUe {
    /// Device class (propagation + power profile).
    pub device: DeviceClass,
    /// Slice the UE's PDU session rides (must be admitted by the cell's
    /// slice table).
    pub snssai: Snssai,
    /// Offered-traffic model.
    pub traffic: TrafficModel,
}

/// One named cell of the deployment.
#[derive(Debug, Clone)]
pub struct RanCellSpec {
    /// Deployment label, matched by per-cell faults
    /// (`FaultKind::RanDegradation` / `FaultKind::CellPartition`).
    pub name: String,
    /// Radio configuration.
    pub config: CellConfig,
    /// Backlogged probe UEs attached at construction — the synthetic
    /// load whose measured goodput stands in for the cell's health.
    pub probe_ues: usize,
    /// Scripted traffic-bearing UEs attached after the probes (empty by
    /// default). Their cell-local ids follow the probe UEs' in order.
    pub scenario_ues: Vec<ScenarioUe>,
}

impl RanCellSpec {
    /// A cell with the paper's 20 MHz NR FDD profile and one probe UE.
    pub fn paper_default(name: &str) -> Self {
        RanCellSpec {
            name: name.to_string(),
            config: CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)),
            probe_ues: 1,
            scenario_ues: Vec::new(),
        }
    }

    /// Replace the radio configuration (e.g. to install a slice table).
    pub fn with_config(mut self, config: CellConfig) -> Self {
        self.config = config;
        self
    }

    /// Add a scripted traffic-bearing UE.
    pub fn with_scenario_ue(mut self, ue: ScenarioUe) -> Self {
        self.scenario_ues.push(ue);
        self
    }
}

/// The fabric's multi-cell RAN layout.
#[derive(Debug, Clone)]
pub struct RanTopology {
    /// Cells in fleet order (`CellId(i)` is `cells[i]`).
    pub cells: Vec<RanCellSpec>,
    /// Which cell the field gateway camps on: faults on this cell reach
    /// the telemetry path; faults elsewhere stay local to their cell.
    pub gateway_cell: String,
    /// Simulated seconds each probe batch advances every report cycle.
    pub probe_seconds: usize,
    /// TTIs of saturating probe traffic measured at the head of each
    /// batch. Goodput is sampled over this burst; the rest of the batch
    /// idle-skips through the event engine, so a nominal cycle costs
    /// O(burst), not O(`probe_seconds` × slots-per-second). Clamped to
    /// the batch length. The burst lasts this many of the longest TTI
    /// among the cells, so every cell measures at least this many TTIs
    /// and a topology of one numerology exactly this many.
    pub probe_burst_slots: usize,
    /// Worker-pool width for batched stepping (1 = serial; results are
    /// identical either way).
    pub workers: usize,
}

impl Default for RanTopology {
    /// The paper's single-cell deployment: one UNL-5G cell carrying the
    /// gateway, probed one second per cycle, stepped serially.
    fn default() -> Self {
        RanTopology {
            cells: vec![RanCellSpec::paper_default("UNL-5G")],
            gateway_cell: "UNL-5G".to_string(),
            probe_seconds: 1,
            probe_burst_slots: DEFAULT_PROBE_BURST_SLOTS,
            workers: 1,
        }
    }
}

/// Panics on an empty cell list: [`RanTopology::with_cells`] pins the
/// gateway to the first cell.
#[expect(
    clippy::disallowed_macros,
    reason = "a constructor precondition, checked once before any event runs"
)]
fn check_nonempty(names: &[&str]) {
    assert!(!names.is_empty(), "a topology needs at least one cell");
}

impl RanTopology {
    /// A topology of `names.len()` paper-default cells with the gateway
    /// pinned to the first.
    pub fn with_cells(names: &[&str]) -> Self {
        check_nonempty(names);
        RanTopology {
            cells: names
                .iter()
                .map(|n| RanCellSpec::paper_default(n))
                .collect(),
            gateway_cell: names[0].to_string(),
            ..RanTopology::default()
        }
    }
}

/// Measured state of one cell after a probe batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CellHealth {
    /// Deployment label.
    pub name: String,
    /// Mean burst goodput over every UE backlogged in the cell during
    /// the probe burst (Mbps): the probe UEs and any scenario UEs alike,
    /// so a cell carrying CBR or camera traffic reports their mean, not
    /// the probes' alone.
    pub goodput_mbps: f64,
}

/// Per-cell bookkeeping alongside the fleet.
struct CellState {
    name: String,
    ues: Vec<FleetUe>,
    fade_db: f64,
    down: bool,
    goodput_gauge: Option<Arc<xg_obs::Gauge>>,
    fade_gauge: Option<Arc<xg_obs::Gauge>>,
}

impl CellState {
    fn set_probes_backlogged(&self, cell: &mut LinkSimulator, backlogged: bool) {
        for ue in &self.ues {
            // Probe UEs are attached at construction and never detach, so
            // their handles cannot be refused.
            let _ = cell.set_backlogged(ue.ue, backlogged);
        }
    }
}

/// A live multi-cell RAN the orchestrator probes every report cycle.
pub struct RanProbe {
    fleet: RanFleet,
    cells: Vec<CellState>,
    gateway_cell: usize,
    probe_seconds: usize,
    /// Probe-burst length: `probe_burst_slots` of the longest TTI.
    burst_ns: u64,
    goodput_hist: Option<Arc<xg_obs::Histogram>>,
    /// The last probe's per-cell health, in cell order; the names are
    /// filled once, so a probe only rewrites the goodput.
    health: Vec<CellHealth>,
}

impl RanProbe {
    /// Build the fleet from the topology; cell RNG streams derive from
    /// `seed` (same convention as the rest of the fabric).
    pub fn try_new(topology: &RanTopology, seed: u64, obs: &Obs) -> Result<Self, NetError> {
        let gateway_cell = topology
            .cells
            .iter()
            .position(|c| c.name == topology.gateway_cell)
            .ok_or_else(|| NetError::UnknownCellName(topology.gateway_cell.clone()))?;
        let mut builder = RanFleet::builder(seed)
            .workers(topology.workers.max(1))
            .obs(obs);
        for spec in &topology.cells {
            builder = builder.cell(spec.config.clone());
        }
        let mut fleet = builder.build()?;
        let reg = obs.registry();
        let mut cells = Vec::with_capacity(topology.cells.len());
        for (i, spec) in topology.cells.iter().enumerate() {
            let mut ues = Vec::with_capacity(spec.probe_ues);
            for _ in 0..spec.probe_ues {
                let ue = fleet.attach(
                    CellId(i as u32),
                    DeviceClass::RaspberryPi,
                    Modem::paper_default(DeviceClass::RaspberryPi, spec.config.rat),
                )?;
                fleet.set_backlogged(ue, true)?;
                ues.push(ue);
            }
            for s in &spec.scenario_ues {
                let ue = fleet.attach_with(
                    CellId(i as u32),
                    s.device,
                    Modem::paper_default(s.device, spec.config.rat),
                    s.snssai,
                    UnitVariation::default(),
                )?;
                fleet.set_traffic(ue, s.traffic)?;
            }
            cells.push(CellState {
                name: spec.name.clone(),
                ues,
                fade_db: 0.0,
                down: false,
                goodput_gauge: reg
                    .map(|r| r.gauge(&format!("fabric.ran.{}.goodput_mbps", spec.name))),
                fade_gauge: reg.map(|r| r.gauge(&format!("fabric.ran.{}.fade_db", spec.name))),
            });
        }
        let longest_slot_ns = fleet
            .cells_mut()
            .map(|c| c.slot_ns())
            .max()
            .unwrap_or_default();
        let health = (cells.iter())
            .map(|c| CellHealth {
                name: c.name.clone(),
                goodput_mbps: 0.0,
            })
            .collect();
        Ok(RanProbe {
            fleet,
            cells,
            health,
            gateway_cell,
            probe_seconds: topology.probe_seconds.max(1),
            burst_ns: topology.probe_burst_slots.max(1) as u64 * longest_slot_ns,
            goodput_hist: reg.map(|r| r.histogram("fabric.ran.cell_goodput_mbps")),
        })
    }

    /// The gateway cell's deployment label.
    pub(crate) fn gateway_cell_name(&self) -> &str {
        &self.cells[self.gateway_cell].name
    }

    /// Whether the gateway's cell is currently partitioned.
    pub fn gateway_cell_down(&self) -> bool {
        self.cells[self.gateway_cell].down
    }

    /// Inject (or clear, with `None`) a fade on the named cell. Returns
    /// `false` when no such cell exists (the fault is ignored).
    pub(crate) fn fade(&mut self, name: &str, snr_offset_db: Option<f64>) -> bool {
        self.update_cell(name, |c| c.fade_db = snr_offset_db.unwrap_or(0.0))
    }

    /// Partition the named cell on or off the backhaul. Returns `false`
    /// when no such cell exists.
    pub(crate) fn set_cell_down(&mut self, name: &str, down: bool) -> bool {
        self.update_cell(name, |c| c.down = down)
    }

    /// Update the named cell's state and push its combined
    /// fade/partition offset into the cell's simulator.
    fn update_cell(&mut self, name: &str, update: impl FnOnce(&mut CellState)) -> bool {
        let mut cells = self.cells.iter_mut().zip(self.fleet.cells_mut());
        let Some((c, sim)) = cells.find(|(c, _)| c.name == name) else {
            return false;
        };
        update(c);
        sim.set_snr_offset_db(if c.down { CELL_DOWN_SNR_DB } else { c.fade_db });
        true
    }

    /// Advance every cell one probe batch (sharded across the fleet's
    /// worker pool) and report measured per-cell health, in cell order.
    ///
    /// The batch is burst-then-skip on the event engine: goodput is
    /// measured over a short saturating burst (`probe_burst_slots`
    /// TTIs) at the head of the batch, then the probe UEs quiesce and
    /// the remaining `probe_seconds` idle-skip in O(1) per cell (plus
    /// whatever scenario traffic keeps cells genuinely active). Total
    /// simulated time advanced per cycle is unchanged from the legacy
    /// full-batch probe, so the `ran.fleet.sim` attribution subtree
    /// keeps the same per-cycle nanosecond totals.
    ///
    /// A cell's goodput is the mean of every backlogged UE's burst
    /// sample, scenario UEs included, and those UEs also count toward
    /// the active-UE SDR and overhead penalty of the window: it is the
    /// cell's mean per-UE goodput under the burst, not the probes' own
    /// (ROADMAP 4(c) lists the fix, which moves `fabric_storm`'s digest).
    pub fn probe(&mut self) -> &[CellHealth] {
        let start = self.fleet.now();
        let end = SimNs(start.0 + self.probe_seconds as u64 * 1_000_000_000);
        let burst_end = SimNs((start.0 + self.burst_ns).min(end.0));
        for (c, cell) in self.cells.iter().zip(self.fleet.cells_mut()) {
            // Open a fresh measurement window: bits queued during the
            // previous batch's idle-skip must not count into the burst.
            cell.reset_windows();
            c.set_probes_backlogged(cell, true);
        }
        let _ = self.fleet.advance_to(burst_end);
        let window_s = (burst_end.0 - start.0) as f64 / 1e9;
        let goodput_hist = &self.goodput_hist;
        let cells = self.cells.iter().zip(self.fleet.cells_mut());
        for ((c, cell), health) in cells.zip(&mut self.health) {
            let samples = cell.flush_second_window(window_s);
            let goodput = if samples.is_empty() {
                0.0
            } else {
                samples.iter().map(|&(_, m)| m).sum::<f64>() / samples.len() as f64
            };
            if let Some(g) = &c.goodput_gauge {
                g.set(goodput);
            }
            if let Some(g) = &c.fade_gauge {
                g.set(if c.down { CELL_DOWN_SNR_DB } else { c.fade_db });
            }
            if let Some(h) = goodput_hist {
                h.record(goodput);
            }
            health.goodput_mbps = goodput;
        }
        // Quiesce the probes: the rest of the batch idle-skips unless
        // scenario traffic keeps a cell active.
        for (c, cell) in self.cells.iter().zip(self.fleet.cells_mut()) {
            c.set_probes_backlogged(cell, false);
        }
        let _ = self.fleet.advance_to(end);
        &self.health
    }

    /// The deployment label of fleet cell `id`, if it exists.
    pub(crate) fn cell_name(&self, id: u32) -> Option<&str> {
        self.cells.get(id as usize).map(|c| c.name.as_str())
    }

    /// Whether the named cell is currently partitioned off the backhaul.
    pub(crate) fn cell_down(&self, name: &str) -> bool {
        self.cells.iter().any(|c| c.name == name && c.down)
    }

    /// Drain every cell's E2 indication window, in cell order. Pure
    /// reads and resets — collecting never perturbs the fleet's RNG
    /// streams, so a RIC-less run and a collecting run stay bitwise
    /// identical.
    pub fn collect_indications(&mut self) -> Vec<CellIndication> {
        self.fleet.collect_indications()
    }

    /// Apply one RIC control action to the live fleet. Surfaces an
    /// invalid target (unknown cell or UE, infeasible slice table) as a
    /// typed error instead of a panic — a RIC must never crash the RAN.
    pub fn apply_ric_action(&mut self, action: &RicAction) -> Result<(), NetError> {
        match action {
            RicAction::ReapportionSlices { cell, shares } => {
                let config = SliceConfig::new(
                    shares
                        .iter()
                        .map(|&(snssai, prb_share)| SliceProfile { snssai, prb_share })
                        .collect(),
                )?;
                self.fleet.cell_mut(CellId(*cell))?.set_slices(config)
            }
            RicAction::SetPfWeight { cell, ue, weight } => self
                .fleet
                .cell_mut(CellId(*cell))?
                .set_pf_weight(UeHandle::from_id(*ue), *weight),
            RicAction::CapUeMcs { cell, ue, max_eff } => self
                .fleet
                .cell_mut(CellId(*cell))?
                .set_mcs_cap(UeHandle::from_id(*ue), *max_eff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_matches_the_paper() {
        let topo = RanTopology::default();
        let mut probe = RanProbe::try_new(&topo, 42, &Obs::disabled()).unwrap();
        assert_eq!(probe.cells.len(), 1);
        assert_eq!(probe.gateway_cell_name(), "UNL-5G");
        let health = probe.probe();
        assert_eq!(health.len(), 1);
        assert!(
            health[0].goodput_mbps > 20.0,
            "nominal probe UE must see real goodput, got {}",
            health[0].goodput_mbps
        );
    }

    #[test]
    fn unknown_gateway_cell_is_a_construction_error() {
        let topo = RanTopology {
            gateway_cell: "NOWHERE".into(),
            ..RanTopology::default()
        };
        assert!(matches!(
            RanProbe::try_new(&topo, 1, &Obs::disabled()),
            Err(NetError::UnknownCellName(_))
        ));
    }

    #[test]
    fn fade_and_partition_target_single_cells() {
        let topo = RanTopology::with_cells(&["UNL-5G", "FIELD-B"]);
        let mut probe = RanProbe::try_new(&topo, 7, &Obs::disabled()).unwrap();
        let nominal = probe.probe().to_vec();
        assert!(probe.fade("FIELD-B", Some(-25.0)));
        assert!(!probe.fade("NOWHERE", Some(-25.0)), "unknown cell ignored");
        let faded = probe.probe().to_vec();
        assert!(
            faded[1].goodput_mbps < nominal[1].goodput_mbps * 0.25,
            "FIELD-B must collapse: {} vs {}",
            faded[1].goodput_mbps,
            nominal[1].goodput_mbps
        );
        assert!(
            faded[0].goodput_mbps > nominal[0].goodput_mbps * 0.5,
            "UNL-5G must stay healthy: {} vs {}",
            faded[0].goodput_mbps,
            nominal[0].goodput_mbps
        );
        // Clear the fade, partition instead: goodput goes to ~zero.
        assert!(probe.fade("FIELD-B", None));
        assert!(probe.set_cell_down("FIELD-B", true));
        let downed = probe.probe();
        assert!(downed[1].goodput_mbps < 0.01, "{}", downed[1].goodput_mbps);
        assert!(!probe.gateway_cell_down(), "gateway rides its own cell");
    }

    #[test]
    fn scenario_ues_ride_slices_and_ric_actions_land() {
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
                    .unwrap(),
                ),
            )
            .with_scenario_ue(ScenarioUe {
                device: DeviceClass::RaspberryPi,
                snssai: Snssai::miot(1),
                traffic: TrafficModel::Cbr { rate_mbps: 4.0 },
            });
        topo.cells[0].probe_ues = 1;
        let mut probe = RanProbe::try_new(&topo, 11, &Obs::disabled()).unwrap();
        assert_eq!(probe.cell_name(0), Some("UNL-5G"));
        assert!(probe.cell_name(1).is_none());
        // The scenario UE's cell-local id follows the probe UE's.
        let scenario = UeHandle::from_id(1);
        probe.probe();
        let inds = probe.collect_indications();
        assert_eq!(inds.len(), 1);
        assert_eq!(inds[0].slices.len(), 2);
        assert!(
            inds[0].slice(Snssai::miot(1)).unwrap().offered_bits > 0.0,
            "scenario CBR traffic must show up in the mIoT slice"
        );
        // All three action kinds land on the live fleet.
        probe
            .apply_ric_action(&RicAction::ReapportionSlices {
                cell: 0,
                shares: vec![(Snssai::miot(1), 0.3), (Snssai::embb(1), 0.7)],
            })
            .unwrap();
        probe
            .apply_ric_action(&RicAction::SetPfWeight {
                cell: 0,
                ue: scenario.id(),
                weight: 2.5,
            })
            .unwrap();
        probe
            .apply_ric_action(&RicAction::CapUeMcs {
                cell: 0,
                ue: scenario.id(),
                max_eff: Some(1.0),
            })
            .unwrap();
        let cell = probe.fleet.cell(CellId(0)).unwrap();
        assert_eq!(cell.pf_weight(scenario).unwrap(), 2.5);
        assert_eq!(cell.mcs_cap(scenario).unwrap(), Some(1.0));
        // Invalid targets surface as typed errors, never panics.
        assert!(probe
            .apply_ric_action(&RicAction::SetPfWeight {
                cell: 9,
                ue: 0,
                weight: 1.0,
            })
            .is_err());
        assert!(probe
            .apply_ric_action(&RicAction::CapUeMcs {
                cell: 0,
                ue: 99,
                max_eff: None,
            })
            .is_err());
    }

    #[test]
    fn probe_records_per_cell_instruments() {
        let obs = Obs::enabled();
        let topo = RanTopology::with_cells(&["UNL-5G", "FIELD-B"]);
        let mut probe = RanProbe::try_new(&topo, 3, &obs).unwrap();
        probe.fade("FIELD-B", Some(-30.0));
        probe.probe();
        let reg = obs.registry().unwrap();
        assert!(reg.gauge("fabric.ran.UNL-5G.goodput_mbps").get() > 20.0);
        assert_eq!(reg.gauge("fabric.ran.FIELD-B.fade_db").get(), -30.0);
        assert_eq!(reg.histogram("fabric.ran.cell_goodput_mbps").count(), 2);
    }

    #[test]
    fn probe_burst_counts_ttis_on_a_30_khz_cell() {
        // NR TDD runs 0.5 ms slots: the burst is 32 of them, not 32 ms.
        let mut topo = RanTopology::default();
        topo.cells[0] = RanCellSpec::paper_default("UNL-5G").with_config(CellConfig::new(
            Rat::Nr5g,
            Duplex::tdd_default(),
            MHz(40.0),
        ));
        let mut probe = RanProbe::try_new(&topo, 5, &Obs::disabled()).unwrap();
        probe.probe();
        let cell = probe.fleet.cell(CellId(0)).unwrap();
        assert_eq!(cell.active_slots(), topo.probe_burst_slots as u64);
    }
}
