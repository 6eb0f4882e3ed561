//! Sharded multi-cell RAN fleet with batched TTI stepping.
//!
//! The paper's experiments (Figs. 4–6) measure one cell with one or two
//! UEs. A production deployment is a *fleet*: tens of cells, each an
//! independent [`LinkSimulator`], serving thousands of UEs. Per-cell
//! independence is the natural sharding boundary — cells share no mutable
//! state, so a [`RanFleet`] can step them on a fixed pool of scoped
//! worker threads and remain **bitwise identical** to serial execution
//! for the same seeds.
//!
//! Two design rules keep that determinism cheap:
//!
//! * **Per-cell seeding.** Every cell's RNG seed is
//!   `cell_seed(fleet_seed, cell_id)` — a SplitMix64-style mix — so a
//!   cell's trajectory depends only on the fleet seed and its own id,
//!   never on how many siblings exist or which worker steps it.
//! * **Batched stepping.** [`Advance::advance_to`] and
//!   [`RanFleet::measure_seconds`] hand each worker a whole batch of
//!   TTIs per cell, so cross-thread synchronization happens once per
//!   *batch* (one thread-scope join), not once per slot, and per-slot
//!   overhead (RNG, scheduler setup, obs lookups) stays amortized inside
//!   the cell's own loop. Idle cells skip ahead inside
//!   [`LinkSimulator`]'s event engine, so a mostly-quiet fleet advances
//!   in O(active slots), not O(elapsed slots).
//!
//! Observability: all cells share the fleet's [`Obs`] handle. Its
//! counters are atomics and its histograms and profiler each sit behind
//! one lock, so concurrent recording from worker threads is safe; counts
//! and integer nanoseconds add exactly, so the snapshot is independent
//! of thread interleaving.

use crate::cell::CellConfig;
use crate::device::{DeviceClass, Modem, UnitVariation};
use crate::error::{NetError, Result};
use crate::sim::{LinkSimulator, UeHandle};
use crate::slice::Snssai;
use crate::traffic::TrafficModel;
use std::sync::Arc;
use xg_obs::{Obs, ProfNode};
use xg_sim::{rng, Advance, SimNs};

/// Index of one cell within a fleet (stable for the fleet's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId(pub u32);

/// A UE addressed fleet-wide: which cell it camps on, and its in-cell
/// handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FleetUe {
    /// The serving cell.
    pub cell: CellId,
    /// The UE's handle within that cell.
    pub ue: UeHandle,
}

/// One cell's output from a batched [`RanFleet::measure_seconds`] call:
/// per simulated second, the `(handle, Mbps)` samples of every
/// backlogged UE — exactly what the underlying
/// [`LinkSimulator::measure_second`] returns, batched.
#[derive(Debug, Clone, PartialEq)]
pub struct CellBatch {
    /// The cell that produced these samples.
    pub cell: CellId,
    /// `seconds[k]` holds the per-UE goodput samples of batch second `k`.
    pub seconds: Vec<Vec<(UeHandle, f64)>>,
}

/// Derive one cell's RNG seed from the fleet seed and the cell id.
///
/// SplitMix64's finalizer over `fleet_seed ^ golden * (cell_id + 1)`:
/// cheap, stateless, and avalanching, so neighbouring cell ids get
/// uncorrelated streams and a cell's seed never depends on fleet size.
pub(crate) fn cell_seed(fleet_seed: u64, cell_id: u32) -> u64 {
    rng::mix(fleet_seed ^ (u64::from(cell_id) + 1).wrapping_mul(rng::GOLDEN_GAMMA))
}

/// Pre-resolved fleet-level instruments.
#[derive(Debug, Clone)]
struct FleetObs {
    cells: Arc<xg_obs::Gauge>,
    batches: Arc<xg_obs::Counter>,
    cell_seconds: Arc<xg_obs::Counter>,
    /// Cell-nanoseconds simulated but not yet a whole cell-second.
    cell_ns_carry: u64,
    /// Profiler nodes: [`PROF_BATCH`], its `cell` child, [`PROF_SIM_CELL`].
    prof: [ProfNode; 3],
}

impl FleetObs {
    fn new(obs: &Obs) -> Option<Self> {
        let (reg, prof) = (obs.registry()?, obs.profiler()?);
        let batch = prof.node(PROF_BATCH);
        Some(FleetObs {
            cells: reg.gauge("ran.fleet.cells"),
            batches: reg.counter("ran.fleet.batches"),
            cell_seconds: reg.counter("ran.fleet.cell_seconds"),
            cell_ns_carry: 0,
            prof: [batch, prof.child(batch, "cell"), prof.node(PROF_SIM_CELL)],
        })
    }
}

/// Staged construction of a [`RanFleet`]: seed → cells → workers → obs,
/// validated once at [`build`](RanFleetBuilder::build). Construction is
/// fallible from day one — an invalid cell config surfaces as a
/// [`NetError`], never a panic.
#[derive(Debug, Clone)]
pub struct RanFleetBuilder {
    seed: u64,
    cells: Vec<CellConfig>,
    workers: usize,
    obs: Obs,
}

impl RanFleetBuilder {
    /// Start an empty fleet derived from `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        RanFleetBuilder {
            seed,
            cells: Vec::new(),
            workers: default_workers(),
            obs: Obs::disabled(),
        }
    }

    /// Append one cell.
    pub fn cell(mut self, config: CellConfig) -> Self {
        self.cells.push(config);
        self
    }

    /// Append `n` identical cells (each still gets its own seed stream).
    pub fn cells(mut self, n: usize, config: CellConfig) -> Self {
        self.cells.extend(std::iter::repeat_n(config, n));
        self
    }

    /// Fix the worker-pool width (default: the host's available
    /// parallelism). `1` forces serial batch execution.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Attach an observability handle shared by every cell.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Validate every cell and construct the fleet.
    pub fn build(self) -> Result<RanFleet> {
        let mut sims = Vec::with_capacity(self.cells.len());
        for (id, cfg) in self.cells.into_iter().enumerate() {
            let sim = LinkSimulator::builder(cfg)
                .obs(&self.obs)
                .seed(cell_seed(self.seed, id as u32))
                .build()?;
            sims.push(sim);
        }
        let fleet_obs = FleetObs::new(&self.obs);
        if let Some(o) = &fleet_obs {
            o.cells.set(sims.len() as f64);
        }
        Ok(RanFleet {
            cells: sims,
            workers: self.workers,
            obs: fleet_obs,
            handle: self.obs,
            now_ns: 0,
        })
    }
}

/// The worker pool defaults to the host's parallelism (1 on failure).
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fleet of independently seeded [`LinkSimulator`] cells, stepped in
/// batches across a fixed pool of scoped worker threads.
pub struct RanFleet {
    cells: Vec<LinkSimulator>,
    workers: usize,
    obs: Option<FleetObs>,
    handle: Obs,
    /// Fleet-level clock reported by [`Advance::now`];
    /// [`measure_seconds`](Self::measure_seconds) advances it by whole
    /// seconds so measurement and event callers agree on `now`.
    now_ns: u64,
}

/// Profiler path of the wall-clock batch scope (one per stepped batch;
/// per-cell work lands under `ran.fleet.batch/cell`).
const PROF_BATCH: &str = "ran.fleet.batch";

/// Profiler path of the deterministic sim-time surface: each cell
/// records the simulated nanoseconds it advanced via
/// [`xg_obs::Profiler::record_at`], which is integer addition into a
/// path-keyed tree — so the merged attribution under this path is
/// **bitwise identical** for serial and sharded execution.
const PROF_SIM_CELL: &str = "ran.fleet.sim/cell";

/// Nanoseconds in a second, for the cell-second count.
const NS_PER_S: u128 = 1_000_000_000;

impl RanFleet {
    /// Start a staged [`RanFleetBuilder`] derived from `seed`.
    pub fn builder(seed: u64) -> RanFleetBuilder {
        RanFleetBuilder::new(seed)
    }

    /// Change the worker-pool width (`1` = serial). Worker count never
    /// affects results, only wall time.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = n.max(1);
    }

    /// Borrow one cell.
    pub fn cell(&self, id: CellId) -> Result<&LinkSimulator> {
        self.cells
            .get(id.0 as usize)
            .ok_or(NetError::UnknownCell(id.0))
    }

    /// Mutably borrow one cell (runtime mutation: faults, re-slicing).
    pub fn cell_mut(&mut self, id: CellId) -> Result<&mut LinkSimulator> {
        self.cells
            .get_mut(id.0 as usize)
            .ok_or(NetError::UnknownCell(id.0))
    }

    /// Every cell, mutably, in cell order (`CellId(i)` is the i-th).
    pub fn cells_mut(&mut self) -> impl Iterator<Item = &mut LinkSimulator> {
        self.cells.iter_mut()
    }

    /// Attach a UE on `cell`'s first slice with no unit variation.
    pub fn attach(&mut self, cell: CellId, device: DeviceClass, modem: Modem) -> Result<FleetUe> {
        let ue = self.cell_mut(cell)?.attach(device, modem)?;
        Ok(FleetUe { cell, ue })
    }

    /// Attach a UE on `cell` with explicit slice and unit variation.
    pub fn attach_with(
        &mut self,
        cell: CellId,
        device: DeviceClass,
        modem: Modem,
        snssai: Snssai,
        variation: UnitVariation,
    ) -> Result<FleetUe> {
        let ue = self
            .cell_mut(cell)?
            .attach_with(device, modem, snssai, variation)?;
        Ok(FleetUe { cell, ue })
    }

    /// Set whether a fleet UE has uplink traffic pending.
    pub fn set_backlogged(&mut self, ue: FleetUe, backlogged: bool) -> Result<()> {
        self.cell_mut(ue.cell)?.set_backlogged(ue.ue, backlogged)
    }

    /// Set a fleet UE's offered-traffic model.
    pub fn set_traffic(&mut self, ue: FleetUe, traffic: TrafficModel) -> Result<()> {
        self.cell_mut(ue.cell)?.set_traffic(ue.ue, traffic)
    }

    /// Drain every cell's E2 indication window, in cell order. The drain
    /// is pure reads and resets — no RNG draws — so collecting
    /// indications never perturbs the fleet's trajectory.
    pub fn collect_indications(&mut self) -> Vec<crate::e2::CellIndication> {
        self.cells
            .iter_mut()
            .enumerate()
            .map(|(i, sim)| sim.take_indication(i as u32))
            .collect()
    }

    /// Measure `seconds` seconds in every cell, sharded across the
    /// worker pool, and return one [`CellBatch`] per cell in cell order.
    ///
    /// This is the measurement companion to [`Advance::advance_to`]: the
    /// time API moves the fleet clock, this drains calibrated per-second
    /// goodput windows ([`LinkSimulator::measure_second`] per cell per
    /// second). Bitwise identical for any worker count: cells share no
    /// mutable state, so execution order cannot influence any cell's RNG
    /// stream.
    pub fn measure_seconds(&mut self, seconds: usize) -> Vec<CellBatch> {
        let elapsed_ns = seconds as u64 * 1_000_000_000;
        self.note_batch(elapsed_ns);
        let prof = self
            .handle
            .profiler()
            .zip(self.obs.as_ref().map(|o| o.prof));
        let _batch = prof.map(|(p, [batch, ..])| p.scope_node(batch));
        let out = shard(&mut self.cells, self.workers, |id, sim| {
            let _cell = prof.map(|(p, [_, cell, _])| p.scope_node(cell));
            if let Some((p, [.., sim_cell])) = prof {
                p.record_node(sim_cell, seconds as u64 * 1_000_000_000);
            }
            CellBatch {
                cell: id,
                seconds: (0..seconds).map(|_| sim.measure_second()).collect(),
            }
        });
        self.now_ns += elapsed_ns;
        out
    }

    /// Count one batch that moved every cell `elapsed_ns` forward: whole
    /// cell-seconds go to `ran.fleet.cell_seconds` and the rest is
    /// carried, so batches of partial seconds sum exactly.
    fn note_batch(&mut self, elapsed_ns: u64) {
        let cells = self.cells.len() as u128;
        if let Some(o) = &mut self.obs {
            o.batches.inc();
            let cell_ns = cells * u128::from(elapsed_ns) + u128::from(o.cell_ns_carry);
            o.cell_seconds.add((cell_ns / NS_PER_S) as u64);
            o.cell_ns_carry = (cell_ns % NS_PER_S) as u64;
        }
    }
}

/// Run `f` over every cell, sharding contiguous cell ranges across
/// the worker pool; results come back in cell order. One
/// thread-scope join per call is the only synchronization point.
fn shard<R, F>(cells: &mut [LinkSimulator], workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(CellId, &mut LinkSimulator) -> R + Sync,
{
    let n = cells.len();
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        return cells
            .iter_mut()
            .enumerate()
            .map(|(i, sim)| f(CellId(i as u32), sim))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        for (shard_idx, (sims, outs)) in cells
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
        {
            let f = &f;
            let base = shard_idx * chunk;
            scope.spawn(move || {
                for (off, (sim, slot)) in sims.iter_mut().zip(outs.iter_mut()).enumerate() {
                    *slot = Some(f(CellId((base + off) as u32), sim));
                }
            });
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "scope join guarantees every slot was written; a None here is a lost shard and must abort"
    )]
    out.into_iter()
        .map(|r| r.expect("every sharded cell produces a result"))
        .collect()
}

impl Advance for RanFleet {
    type Error = NetError;

    fn now(&self) -> SimNs {
        SimNs(self.now_ns)
    }

    /// Advance every cell to `t`, sharded across the worker pool. Each
    /// cell rounds `t` down to its own TTI grid and idle-skips quiet
    /// stretches; per-cell simulated time lands under `ran.fleet.sim/cell`
    /// exactly as [`measure_seconds`](Self::measure_seconds) records it,
    /// so the deterministic attribution subtree stays bitwise comparable
    /// across both APIs.
    /// Calls at or before `now()` are no-ops.
    fn advance_to(&mut self, t: SimNs) -> std::result::Result<(), NetError> {
        if t.0 <= self.now_ns {
            return Ok(());
        }
        self.note_batch(t.0 - self.now_ns);
        let prof = self
            .handle
            .profiler()
            .zip(self.obs.as_ref().map(|o| o.prof));
        let _batch = prof.map(|(p, [batch, ..])| p.scope_node(batch));
        let results = shard(&mut self.cells, self.workers, |_, sim| {
            let _cell = prof.map(|(p, [_, cell, _])| p.scope_node(cell));
            let before = sim.now().0;
            let r = sim.advance_to(t);
            if let Some((p, [.., sim_cell])) = prof {
                p.record_node(sim_cell, sim.now().0 - before);
            }
            r
        });
        self.now_ns = t.0;
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::{Duplex, Rat};
    use crate::units::MHz;

    fn cell_5g_fdd20() -> CellConfig {
        CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0))
    }

    /// Mean goodput (Mbps) over every UE-second sample in a batch.
    fn mean_goodput(b: &CellBatch) -> f64 {
        let samples: Vec<f64> = b.seconds.iter().flatten().map(|&(_, m)| m).collect();
        samples.iter().sum::<f64>() / samples.len().max(1) as f64
    }

    /// Every worker thread moves `&mut LinkSimulator` across the scope.
    #[test]
    fn link_simulator_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LinkSimulator>();
    }

    #[test]
    fn construction_is_fallible() {
        let bad = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(7.0));
        assert!(matches!(
            RanFleet::builder(1).cell(bad).build(),
            Err(NetError::InvalidBandwidth(_))
        ));
        let ok = RanFleet::builder(1)
            .cells(3, cell_5g_fdd20())
            .build()
            .unwrap();
        assert!(ok.cell(CellId(2)).is_ok() && ok.cell(CellId(3)).is_err());
    }

    #[test]
    fn cell_seeds_are_distinct_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..64 {
            assert!(seen.insert(cell_seed(42, id)), "seed collision at {id}");
        }
        // Stable across calls and independent of fleet size by design.
        assert_eq!(cell_seed(42, 7), cell_seed(42, 7));
        assert_ne!(cell_seed(42, 7), cell_seed(43, 7));
    }

    fn backlogged_fleet(seed: u64, cells: usize, ues: usize, workers: usize) -> RanFleet {
        let mut fleet = RanFleet::builder(seed)
            .cells(cells, cell_5g_fdd20())
            .workers(workers)
            .build()
            .unwrap();
        for c in 0..cells {
            for _ in 0..ues {
                let ue = fleet
                    .attach(CellId(c as u32), DeviceClass::RaspberryPi, Modem::Rm530nGl)
                    .unwrap();
                fleet.set_backlogged(ue, true).unwrap();
            }
        }
        fleet
    }

    #[test]
    fn parallel_is_bitwise_identical_to_serial() {
        let mut parallel = backlogged_fleet(9, 5, 3, 4);
        let mut serial = backlogged_fleet(9, 5, 3, 1);
        let p = parallel.measure_seconds(2);
        let s = serial.measure_seconds(2);
        assert_eq!(p.len(), s.len());
        for (pb, sb) in p.iter().zip(&s) {
            assert_eq!(pb.cell, sb.cell);
            assert_eq!(pb.seconds.len(), sb.seconds.len());
            for (psec, ssec) in pb.seconds.iter().zip(&sb.seconds) {
                for ((ph, pm), (sh, sm)) in psec.iter().zip(ssec) {
                    assert_eq!(ph, sh);
                    assert_eq!(pm.to_bits(), sm.to_bits(), "cell {:?}", pb.cell);
                }
            }
        }
    }

    #[test]
    fn fading_one_cell_leaves_siblings_untouched() {
        let mut faded = backlogged_fleet(11, 2, 1, 2);
        let mut nominal = backlogged_fleet(11, 2, 1, 2);
        faded.cell_mut(CellId(1)).unwrap().set_snr_offset_db(-25.0);
        let f = faded.measure_seconds(3);
        let n = nominal.measure_seconds(3);
        // Cell 0 is bit-identical with and without the sibling's fade.
        assert_eq!(f[0], n[0]);
        // Cell 1 collapses under the fade.
        assert!(
            mean_goodput(&f[1]) < mean_goodput(&n[1]) * 0.25,
            "faded {} vs nominal {}",
            mean_goodput(&f[1]),
            mean_goodput(&n[1])
        );
    }

    #[test]
    fn unknown_cell_rejected() {
        let mut fleet = RanFleet::builder(1)
            .cells(2, cell_5g_fdd20())
            .build()
            .unwrap();
        assert!(matches!(
            fleet.attach(CellId(5), DeviceClass::Laptop, Modem::Rm530nGl),
            Err(NetError::UnknownCell(5))
        ));
        assert!(fleet.cell(CellId(2)).is_err());
        assert!(fleet.cell_mut(CellId(9)).is_err());
    }

    #[test]
    fn obs_instruments_merge_across_cells() {
        let obs = Obs::enabled();
        let mut fleet = RanFleet::builder(5)
            .cells(3, cell_5g_fdd20())
            .workers(3)
            .obs(&obs)
            .build()
            .unwrap();
        for c in 0..3 {
            let ue = fleet
                .attach(CellId(c), DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .unwrap();
            fleet.set_backlogged(ue, true).unwrap();
        }
        let batches = fleet.measure_seconds(2);
        let reg = obs.registry().unwrap();
        assert_eq!(reg.gauge("ran.fleet.cells").get(), 3.0);
        assert_eq!(reg.counter("ran.fleet.batches").get(), 1);
        assert_eq!(reg.counter("ran.fleet.cell_seconds").get(), 6);
        // One goodput sample per backlogged UE per second per cell,
        // merged across worker threads.
        assert_eq!(reg.histogram("ran.ue.goodput_mbps").count(), 6);
        assert_eq!(batches.len(), 3);
    }

    #[test]
    fn advance_to_counts_cell_seconds_across_partial_seconds() {
        let obs = Obs::enabled();
        let mut fleet = RanFleet::builder(5)
            .cells(3, cell_5g_fdd20())
            .obs(&obs)
            .build()
            .unwrap();
        let reg = obs.registry().unwrap();
        let cell_seconds = || reg.counter("ran.fleet.cell_seconds").get();
        // 3 cells × 1.5 s = 4.5: four whole cell-seconds, half carried.
        fleet.advance_to(SimNs::from_millis(1_500)).unwrap();
        assert_eq!(cell_seconds(), 4);
        // + 3 × 0.7 s = 6.6 in all; + 3 × 0.8 s = 9.0 exactly.
        fleet.advance_to(SimNs::from_millis(2_200)).unwrap();
        assert_eq!(cell_seconds(), 6);
        fleet.advance_to(SimNs::from_secs(3)).unwrap();
        assert_eq!(cell_seconds(), 9);
        // A call at `now()` is no batch; a measured second adds 3 more.
        fleet.advance_to(SimNs::from_secs(3)).unwrap();
        fleet.measure_seconds(1);
        assert_eq!(cell_seconds(), 12);
        assert_eq!(reg.counter("ran.fleet.batches").get(), 4);
    }

    #[test]
    fn collect_indications_covers_every_cell_without_perturbing() {
        let mut drained = backlogged_fleet(21, 3, 2, 2);
        let mut control = backlogged_fleet(21, 3, 2, 2);
        drained.measure_seconds(1);
        let inds = drained.collect_indications();
        assert_eq!(inds.len(), 3);
        for (i, ind) in inds.iter().enumerate() {
            assert_eq!(ind.cell, i as u32);
            assert_eq!(ind.ues.len(), 2);
            assert!(ind.slices[0].granted_prb_ttis > 0);
        }
        control.measure_seconds(1);
        // Draining between batches leaves the trajectory bitwise equal.
        assert_eq!(drained.measure_seconds(1), control.measure_seconds(1));
    }

    #[test]
    fn fleet_ric_setters_route_to_the_right_cell() {
        let mut fleet = backlogged_fleet(23, 2, 1, 1);
        let ue = FleetUe {
            cell: CellId(1),
            ue: UeHandle(0),
        };
        let cell = fleet.cell_mut(ue.cell).unwrap();
        cell.set_pf_weight(ue.ue, 2.0).unwrap();
        cell.set_mcs_cap(ue.ue, Some(1.5)).unwrap();
        assert_eq!(
            fleet
                .cell(CellId(1))
                .unwrap()
                .pf_weight(UeHandle(0))
                .unwrap(),
            2.0
        );
        assert_eq!(
            fleet
                .cell(CellId(0))
                .unwrap()
                .pf_weight(UeHandle(0))
                .unwrap(),
            1.0
        );
        assert!(fleet.cell_mut(CellId(7)).is_err());
    }

    #[test]
    fn sim_attribution_is_identical_serial_vs_parallel() {
        let obs_p = Obs::enabled();
        let obs_s = Obs::enabled();
        let mut parallel = RanFleet::builder(9)
            .cells(5, cell_5g_fdd20())
            .workers(4)
            .obs(&obs_p)
            .build()
            .unwrap();
        let mut serial = RanFleet::builder(9)
            .cells(5, cell_5g_fdd20())
            .workers(4)
            .obs(&obs_s)
            .build()
            .unwrap();
        serial.set_workers(1);
        for fleet in [&mut parallel, &mut serial] {
            fleet.measure_seconds(2);
            fleet.advance_to(SimNs(2_100_000_000)).unwrap();
        }
        let sim_nodes = |obs: &Obs| {
            let snap = obs.profiler().unwrap().snapshot();
            snap.nodes
                .into_iter()
                .filter(|(path, _)| path.starts_with("ran.fleet.sim"))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let p = sim_nodes(&obs_p);
        let s = sim_nodes(&obs_s);
        // Wall-clock scopes differ run to run; the deterministic
        // sim-time subtree must be bitwise equal (calls, totals,
        // histogram buckets) regardless of sharding.
        assert_eq!(p, s);
        assert_eq!(p["ran.fleet.sim/cell"].calls, 10);
        assert_eq!(
            p["ran.fleet.sim/cell"].total_ns,
            5 * 2 * 1_000_000_000 + 5 * 100 * 1_000_000
        );
    }

    #[test]
    fn step_slots_advances_time_in_every_cell() {
        let mut fleet = backlogged_fleet(3, 4, 1, 2);
        fleet.advance_to(SimNs(500_000_000)).unwrap();
        for c in 0..4 {
            assert!((fleet.cell(CellId(c)).unwrap().now_s() - 0.5).abs() < 1e-9);
        }
    }
}
