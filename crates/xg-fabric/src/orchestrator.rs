//! The xGFabric closed loop: construction, the report cycle, and fault
//! dispatch.
//!
//! [`XgFabric`] advances the whole system on the paper's duty cycles.
//! One report cycle runs fixed phases in a fixed order, each a wall span
//! when traced:
//!
//! * **faults** — the [`FaultPlan`] opens and closes windows (partitions,
//!   RAN collapse, site outages, sensor and storage faults), dispatched
//!   to the part of the loop each one hits;
//! * **ran / ric** — the RAN fleet is probed and the near-RT RIC steers
//!   it;
//! * **sense / gateway** — every **300 s** the stations report and the
//!   records enter the field gateway's bounded store-and-forward buffer,
//!   which drains over 5G + Internet into the UCSB repository whenever
//!   the link allows (§3.1's delay tolerance);
//! * **hpc** — CFD tasks advance through placement, failover and
//!   completion (`hpc`); each finished task runs the actual
//!   solver and the digital twin acts on it (`twin`);
//! * **slo** — the degradation ladder and its SLO watchdog judge the
//!   cycle (`ladder`);
//! * **detect** — every **30 min** (6 reports) the Laminar change detector
//!   compares the two most recent windows *of data that actually reached
//!   the repository* (`detect`); a change triggers the Pilot
//!   (Eqs. 1–4) and a CFD task at the best reachable site.
//!
//! The loop degrades gracefully (buffering, failover, reduced CFD
//! resolution, skipped results-return) instead of panicking, and every
//! run can emit a [`ReliabilityReport`]. All time is virtual; nothing
//! sleeps.

use crate::detect::{Detect, DETECT_EVERY_REPORTS};
use crate::error::FabricError;
use crate::hpc::{Hpc, PendingCfd};
use crate::ladder::Ladder;
use crate::pipeline::{FieldGateway, FieldLink, ResultSummary, ResultsReturn};
use crate::ran::{RanProbe, RanTopology};
use crate::reliability::{Impairment, ReliabilityReport};
use crate::timeline::{Event, Timeline};
use crate::twin::Twin;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use xg_cfd::twin::Measurement;
use xg_cspot::netsim::SimClock;
use xg_cspot::node::CspotNode;
use xg_faults::{FaultChange, FaultKind, FaultPlan};
use xg_hpc::site::SiteProfile;
use xg_obs::clock::{secs_to_us, wall_now_us};
use xg_obs::critical::{extract_critical_into, CriticalPath};
use xg_obs::recorder::{dump_bundle, BundleContext};
use xg_obs::slo::{Hysteresis, SloOp, SloSpec, SloStat, SloWatchdog};
use xg_obs::span::{SpanId, SpanName, SpanRecord};
use xg_obs::window::WindowConfig;
use xg_obs::ClockDomain;
use xg_obs::{Obs, TraceId, Tracer};
use xg_ric::Ric;
use xg_sensors::breach::Breach;
use xg_sensors::facility::CupsFacility;
use xg_sensors::network::{SensorNetwork, REPORT_INTERVAL_S};
use xg_sensors::qc::QcScreen;
use xg_sensors::telemetry::TelemetryRecord;
use xg_sim::{Advance, SimNs};

/// Records the field gateway's store-and-forward buffer holds.
const GATEWAY_CAPACITY: usize = 4096;

/// The report cycle's cadence: the stations' own reporting interval, so
/// the fabric and the sensor network cannot drift apart.
fn report_interval() -> SimNs {
    SimNs::from_secs_f64(REPORT_INTERVAL_S)
}

/// Full-fabric configuration, consumed by `XgFabric::try_new`.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// RNG seed for every stochastic component.
    pub seed: u64,
    /// The primary HPC site running the CFD.
    pub site: SiteProfile,
    /// Additional sites the failover layer may route CFD tasks to.
    pub failover_sites: Vec<SiteProfile>,
    /// Whether the sites' queues carry background load.
    pub busy_cluster: bool,
    /// Actual CFD resolution for the in-loop solves.
    pub cfd_cells: [usize; 3],
    /// Actual CFD steps per solve.
    pub cfd_steps: usize,
    /// Multi-cell RAN layout: which cells exist, which one carries the
    /// field gateway, and how the per-cycle probe batches are stepped.
    pub ran: RanTopology,
    /// Optional near-RT RIC. When present, every report cycle the fleet's
    /// E2 indications are delivered to it (cells partitioned or under a
    /// `RicIndicationDrop` fault go stale instead), its xApps run, and
    /// the resolved actions are applied to the live fleet before the next
    /// cycle. `None` (the default) runs the RAN open-loop; a RIC with
    /// zero xApps is a pure observer and leaves the run bitwise
    /// unchanged.
    pub ric: Option<Ric>,
    /// Fault schedule applied as virtual time advances.
    pub faults: FaultPlan,
    /// Observability handle. Disabled by default; an enabled handle is
    /// propagated to every layer (CSPOT appenders, pilot controllers, the
    /// in-loop CFD solver) and records one causal trace per closed-loop
    /// cycle.
    pub obs: Obs,
    /// Service-level objectives the watchdog evaluates each report cycle
    /// (requires an enabled `obs`). Breaches drive the degradation
    /// ladder; see [`default_slos`].
    pub slos: Vec<SloSpec>,
    /// Shape of the sliding window the SLOs are judged over.
    pub slo_window: WindowConfig,
    /// Consecutive-tick hysteresis preventing degradation flapping.
    pub slo_hysteresis: Hysteresis,
    /// Where to dump black-box diagnostic bundles (SLO breaches, fault
    /// activations). `None` disables dumping; the in-memory flight
    /// recorder still runs whenever `obs` is enabled.
    pub blackbox_dir: Option<PathBuf>,
}

/// The fabric's default objectives, stated against §4.4's budget:
///
/// * `p99(fabric.cycle.transfer_ms) < 5000` — a report cycle's transfer
///   must stay well inside the 300 s duty cycle; a RAN collapse blows
///   this long before any backlog forms. Breach requests ladder level 1.
/// * `delta(fabric.gateway.dropped) <= 0` — the bounded gateway buffer
///   must not shed telemetry over any window. Breach requests level 2
///   (shed the non-critical results-return before science data).
/// * `delta(fabric.gateway.delivered) > 0` — the repository must receive
///   *something* every window; total delivery stall (partition) requests
///   level 1 while the buffer absorbs the outage.
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec::new("fabric.cycle.transfer_ms", SloStat::P99, SloOp::Lt, 5_000.0)
            .min_count(2)
            .degrade_to(1),
        SloSpec::new("fabric.gateway.dropped", SloStat::Delta, SloOp::Le, 0.0).degrade_to(2),
        SloSpec::new("fabric.gateway.delivered", SloStat::Delta, SloOp::Gt, 0.0).degrade_to(1),
    ]
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            seed: 42,
            site: SiteProfile::notre_dame_crc(),
            failover_sites: Vec::new(),
            busy_cluster: false,
            cfd_cells: [20, 16, 6],
            cfd_steps: 40,
            ran: RanTopology::default(),
            ric: None,
            faults: FaultPlan::none(),
            obs: Obs::disabled(),
            slos: default_slos(),
            slo_window: WindowConfig::default(),
            slo_hysteresis: Hysteresis::default(),
            blackbox_dir: None,
        }
    }
}

/// The cycle's own instruments, pre-resolved at construction (enabled
/// observability only); the ladder holds the ones its SLOs read.
struct FabricObs {
    report_cycles: Arc<xg_obs::Counter>,
    ric_actions: Arc<xg_obs::Counter>,
    ric_held: Arc<xg_obs::Counter>,
    ric_stale_cells: Arc<xg_obs::Gauge>,
    critical_total_ms: Arc<xg_obs::Histogram>,
    critical_depth: Arc<xg_obs::Gauge>,
    critical_leaf_self_ms: Arc<xg_obs::Histogram>,
    /// `fabric.cycle.critical.leaf.<phase>` per report-cycle phase,
    /// registered from the first cycle's phases. Every cycle runs the
    /// same phases, so which one gates a cycle (wall timing) never
    /// decides what the run registers or allocates.
    critical_leaves: Vec<(&'static str, Arc<xg_obs::Counter>)>,
}

impl FabricObs {
    fn new(reg: &xg_obs::MetricsRegistry) -> Self {
        // `# HELP` texts for the headline instruments, so a scraped
        // snapshot is self-describing.
        for (name, help) in [
            ("fabric.report_cycles", "Report cycles completed"),
            (
                "fabric.cycle.transfer_ms",
                "Virtual telemetry transfer latency per report cycle",
            ),
            (
                "fabric.cycle.critical.total_ms",
                "Wall-time length of the report cycle's critical path",
            ),
            (
                "fabric.cycle.critical.depth",
                "Steps on the most recent cycle's critical path",
            ),
            (
                "fabric.degradation.level",
                "Current degradation ladder level (0 nominal)",
            ),
            (
                "fabric.gateway.backlog",
                "Telemetry records parked at the field gateway",
            ),
        ] {
            reg.set_help(name, help);
        }
        FabricObs {
            report_cycles: reg.counter("fabric.report_cycles"),
            ric_actions: reg.counter("fabric.ric.actions"),
            ric_held: reg.counter("fabric.ric.held"),
            ric_stale_cells: reg.gauge("fabric.ric.stale_cells"),
            critical_total_ms: reg.wall_histogram_ms("fabric.cycle.critical.total_ms"),
            critical_depth: reg.gauge("fabric.cycle.critical.depth"),
            critical_leaf_self_ms: reg.wall_histogram_ms("fabric.cycle.critical.leaf_self_ms"),
            critical_leaves: Vec::new(),
        }
    }

    /// Emit one cycle's critical path over its `phases`: its length and
    /// depth, which phase gated the cycle (a counter per phase) and by
    /// how much of the cycle (the leaf's self-time distribution).
    fn critical(
        &mut self,
        reg: &xg_obs::MetricsRegistry,
        phases: &[(&'static str, u64, u64)],
        path: &CriticalPath,
    ) {
        if self.critical_leaves.is_empty() {
            self.critical_leaves = (phases.iter())
                .map(|&(p, ..)| (p, reg.counter(&format!("fabric.cycle.critical.leaf.{p}"))))
                .collect();
        }
        self.critical_total_ms.record(path.total_us as f64 / 1e3);
        self.critical_depth.set(path.depth() as f64);
        let Some(leaf) = path.leaf() else { return };
        if let Some((_, c)) = self.critical_leaves.iter().find(|(p, _)| leaf.name == *p) {
            c.inc();
        }
        self.critical_leaf_self_ms.record(leaf.self_us as f64 / 1e3);
    }
}

/// Per-cycle wall-span bookkeeping, kept only when a tracer exists and
/// reused cycle to cycle. Phase boundaries are captured as explicit
/// timestamps during the cycle and flushed as one span tree at cycle end
/// — root first, so every phase span can carry a parent link (the
/// tracer assigns ids at record time).
#[derive(Default)]
struct CycleSpans {
    trace: TraceId,
    root_start_us: u64,
    phases: Vec<(&'static str, u64, u64)>,
    /// The cycle's span tree as flushed, for the profiler and the
    /// critical path to read.
    spans: Vec<SpanRecord>,
}

impl CycleSpans {
    fn begin(&mut self, tracer: &Tracer) {
        self.trace = tracer.new_trace();
        self.root_start_us = wall_now_us();
        self.phases.clear();
        self.spans.clear();
    }

    /// Record the cycle's span tree; [`spans`](Self::spans) then holds it.
    fn flush(&mut self, tracer: &Tracer) {
        let root = self.record(
            tracer,
            None,
            "fabric.cycle",
            self.root_start_us,
            wall_now_us(),
        );
        for i in 0..self.phases.len() {
            let (name, s, e) = self.phases[i];
            self.record(tracer, Some(root), name, s, e);
        }
    }

    fn record(
        &mut self,
        tracer: &Tracer,
        parent: Option<SpanId>,
        name: &'static str,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let (trace, domain) = (self.trace, ClockDomain::Wall);
        let id = tracer.record_raw(trace, parent, name, domain, start_us, end_us, vec![]);
        self.spans.push(SpanRecord {
            trace,
            id,
            parent,
            name: SpanName::Borrowed(name),
            domain,
            start_us,
            end_us: end_us.max(start_us),
            attrs: vec![],
        });
        id
    }
}

/// Run one phase of the cycle, recording its wall span when the cycle
/// is traced.
fn phase<T>(cyc: &mut Option<CycleSpans>, name: &'static str, body: impl FnOnce() -> T) -> T {
    let Some(c) = cyc else { return body() };
    let start_us = wall_now_us();
    let out = body();
    c.phases.push((name, start_us, wall_now_us()));
    out
}

/// The orchestrated end-to-end system.
pub struct XgFabric {
    obs: Obs,
    /// Cycle-level instruments (enabled `obs` only).
    instruments: Option<FabricObs>,
    seed: u64,
    blackbox_dir: Option<PathBuf>,
    /// Black-box bundles dumped so far (paths in `blackbox_dir`).
    bundles: Vec<PathBuf>,
    net: SensorNetwork,
    qc: QcScreen,
    link: FieldLink,
    /// The live multi-cell RAN, probed every report cycle.
    ran: RanProbe,
    /// The near-RT RIC engine, if one is configured.
    ric: Option<Ric>,
    /// Cells whose E2 indication stream is currently dropped by a
    /// `RicIndicationDrop` fault.
    ric_dropped: BTreeSet<String>,
    faults: FaultPlan,
    hpc: Hpc,
    ladder: Ladder,
    detect: Detect,
    twin: Twin,
    timeline: Timeline,
    impairment: Impairment,
    /// The most recent report cycle's wall-time critical path (enabled
    /// `obs` only); attached to every black-box bundle.
    last_critical: Option<CriticalPath>,
    /// The cycle span buffer, between cycles (enabled `obs` only).
    cycle_spans: Option<CycleSpans>,
    /// Sim time the fabric has been advanced to.
    now: SimNs,
    /// When the next report cycle is due.
    next_cycle: SimNs,
}

impl XgFabric {
    /// Assemble the fabric, surfacing construction failures (a topology
    /// without the paper routes, colliding logs) as typed errors.
    pub(crate) fn try_new(config: FabricConfig) -> Result<Self, FabricError> {
        let FabricConfig {
            seed,
            site,
            failover_sites,
            busy_cluster,
            cfd_cells,
            cfd_steps,
            ran,
            mut ric,
            faults,
            obs,
            slos,
            slo_window,
            slo_hysteresis,
            blackbox_dir,
        } = config;
        let net = SensorNetwork::cups_default(CupsFacility::default(), seed);
        let repo = Arc::new(CspotNode::in_memory("UCSB"));
        let field = Arc::new(CspotNode::in_memory("UNL"));
        let mut gateway = FieldGateway::new(
            Arc::clone(&repo),
            Arc::clone(&field),
            SimClock::new(),
            seed,
            GATEWAY_CAPACITY,
        )?;
        gateway.set_obs(&obs);
        let hpc = Hpc::new(site, failover_sites, busy_cluster, seed, &obs);
        let mut results = ResultsReturn::new(field, SimClock::new(), seed ^ 0x5255)?;
        results.set_obs(&obs);
        let detect = Detect::deploy(repo)?;
        // The RAN fleet gets its own seed stream so growing the topology
        // never perturbs the sensor or gateway RNGs.
        let ran = RanProbe::try_new(&ran, seed ^ 0x0052_414E, &obs)?;
        if let Some(r) = &mut ric {
            r.set_obs(&obs);
        }
        let instruments = obs.registry().map(FabricObs::new);
        let ladder = Ladder::new(&obs, slos, slo_window, slo_hysteresis, cfd_cells, cfd_steps);
        // The first fabric configured with a black-box directory arms the
        // process-wide panic hook: a crash anywhere dumps that fabric's
        // flight recorder next to the SLO/fault bundles. One recorder per
        // process is deliberate — stacking a hook per fabric would dump
        // the same panic many times over.
        if let (Some(dir), Some(recorder)) = (&blackbox_dir, obs.recorder()) {
            static PANIC_HOOK: std::sync::Once = std::sync::Once::new();
            let (recorder, dir) = (Arc::clone(recorder), dir.clone());
            PANIC_HOOK.call_once(move || {
                xg_obs::recorder::install_panic_hook(recorder, dir, seed);
            });
        }
        Ok(XgFabric {
            obs,
            instruments,
            seed,
            blackbox_dir,
            bundles: Vec::new(),
            net,
            qc: QcScreen::new(),
            link: FieldLink::new(gateway, results),
            ran,
            ric,
            ric_dropped: BTreeSet::new(),
            faults,
            hpc,
            ladder,
            detect,
            twin: Twin::new(),
            timeline: Timeline::default(),
            impairment: Impairment::default(),
            last_critical: None,
            cycle_spans: None,
            now: SimNs::ZERO,
            next_cycle: report_interval(),
        })
    }

    /// Assemble the fabric. Construction over fresh in-memory nodes and
    /// the built-in paper topology cannot fail.
    pub fn new(config: FabricConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "documented-infallible convenience constructor; fallible path is try_new"
        )]
        Self::try_new(config).expect("construction over fresh in-memory nodes")
    }

    /// The event log so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// The most recent CFD summary visible at the field node (what the
    /// site operator's dashboard shows).
    pub fn operator_view(&self) -> Option<ResultSummary> {
        self.link.results.latest()
    }

    /// Back-test the live twin calibration against the accumulated
    /// prediction/measurement history (None before enough CFD runs, or
    /// before the twin is calibrated).
    pub fn backtest_calibration(&self) -> Option<crate::backtest::BacktestReport> {
        self.twin.backtest()
    }

    /// Virtual time of the most recent report cycle (s): one interval
    /// behind the next one due, so a mid-cycle advance does not move it.
    pub fn now_s(&self) -> f64 {
        self.next_cycle
            .saturating_sub(report_interval())
            .as_secs_f64()
    }

    /// Current degradation ladder level.
    pub fn degradation_level(&self) -> u8 {
        self.ladder.level()
    }

    /// The SLO watchdog, when observability is enabled.
    pub fn slo_watchdog(&self) -> Option<&SloWatchdog> {
        self.ladder.watchdog()
    }

    /// Degradation level the active SLO breaches currently request.
    pub fn slo_degradation_target(&self) -> u8 {
        self.ladder.slo_level()
    }

    /// Black-box bundles dumped so far, in dump order.
    pub fn blackbox_bundles(&self) -> &[PathBuf] {
        &self.bundles
    }

    /// Telemetry records parked at the field gateway.
    pub fn telemetry_backlog(&self) -> usize {
        self.link.gateway.backlog()
    }

    /// The live multi-cell RAN probe (per-cell goodput and fade state).
    pub fn ran(&self) -> &RanProbe {
        &self.ran
    }

    /// The live near-RT RIC engine, if one is configured.
    pub fn ric(&self) -> Option<&Ric> {
        self.ric.as_ref()
    }

    /// Inject a screen breach into the ground truth.
    pub fn inject_breach(&mut self, breach: Breach) {
        self.net.facility.add_breach(breach);
    }

    /// Force a weather front on the next report.
    pub fn force_front(&mut self) {
        self.net.force_front();
    }

    /// Run one 300-second report cycle (a wrapper over
    /// [`Advance::advance_to`], the primitive).
    pub fn run_report_cycle(&mut self) -> Result<(), FabricError> {
        self.advance_to(self.now.saturating_add(report_interval()))
    }

    /// Run `n` report cycles (a compatibility wrapper over
    /// [`Advance::advance_to`], like [`XgFabric::run_report_cycle`]).
    pub fn run_cycles(&mut self, n: usize) -> Result<(), FabricError> {
        for _ in 0..n {
            self.run_report_cycle()?;
        }
        Ok(())
    }

    /// The most recent report cycle's wall-time critical path (None until
    /// a cycle has run with observability enabled).
    pub fn last_critical(&self) -> Option<&CriticalPath> {
        self.last_critical.as_ref()
    }

    /// Reliability accounting for the run so far.
    pub fn reliability_report(&self) -> ReliabilityReport {
        let horizon = self.now_s();
        // Either the WAN route or the gateway's own cell going down
        // makes the repository unreachable from the field.
        let gateway_cell = self.ran.gateway_cell_name();
        let partition_down_s = self.faults.active_seconds(|k| match k {
            FaultKind::RoutePartition { .. } => true,
            FaultKind::CellPartition { cell } => cell == gateway_cell,
            _ => false,
        });
        let availability = if horizon > 0.0 {
            (1.0 - partition_down_s / horizon).clamp(0.0, 1.0)
        } else {
            1.0
        };
        let (episodes, loop_mttr_s) = self.impairment.closed_at(horizon);
        let gateway = &self.link.gateway;
        let cfd = self.hpc.counts();
        ReliabilityReport {
            horizon_s: horizon,
            availability_experienced: availability,
            records_buffered: gateway.buffered(),
            records_dropped: gateway.dropped(),
            records_delivered: gateway.delivered(),
            max_backlog: gateway.max_backlog(),
            final_backlog: gateway.backlog(),
            detections: self.detect.detections(),
            mean_detection_inflation_s: self.detect.mean_inflation_s(),
            failovers: cfd.failovers,
            cfd_triggered: cfd.triggered,
            cfd_completed: cfd.completed,
            cfd_recovered: cfd.recovered,
            degraded_cycles: self.ladder.degraded_cycles(),
            impairment_episodes: episodes,
            loop_mttr_s,
        }
    }

    /// One report cycle: the paper's fixed-order pipeline, top to bottom.
    /// An erroring phase aborts the rest of its own cycle only.
    fn run_cycle(&mut self) -> Result<(), FabricError> {
        // One wall trace per cycle: phase boundaries are captured as
        // timestamps and flushed into a span tree at cycle close, feeding
        // the profiler's attribution tree and the cycle's critical path.
        let mut cyc = self.obs.tracer().map(|tracer| {
            let mut c = self.cycle_spans.take().unwrap_or_default();
            c.begin(tracer);
            c
        });
        let now = self.now_s();
        phase(&mut cyc, "fabric.faults.advance", || {
            for c in &self.faults.advance_to(now) {
                self.apply_fault(c);
            }
        });
        // Step the RAN fleet one probe batch: measured per-cell goodput
        // lands on the registry (feeding the SLO window) and the worst
        // cell lands on the timeline, every cycle.
        let health = phase(&mut cyc, "fabric.ran.probe", || self.ran.probe());
        if let Some(worst) = health
            .iter()
            .min_by(|a, b| a.goodput_mbps.total_cmp(&b.goodput_mbps))
        {
            self.timeline.push(Event::RanProbed {
                t_s: now,
                cells: health.len(),
                worst_cell: worst.name.clone(),
                worst_goodput_mbps: worst.goodput_mbps,
            });
        }
        phase(&mut cyc, "fabric.ric.step", || self.step_ric());
        let records = phase(&mut cyc, "fabric.sense.poll", || {
            // Quality control before anything becomes a CFD boundary
            // condition (§2's data-calibration concern).
            let _ = self.net.advance_to(self.now);
            self.qc.filter(&self.net.take_reports()).0
        });
        let shipped = phase(&mut cyc, "fabric.gateway.ship", || {
            self.link.gateway.ship_cycle(&records)
        })?;
        if let Some(o) = &self.instruments {
            o.report_cycles.inc();
        }
        self.timeline.push(Event::TelemetryShipped {
            t_s: now,
            latency_ms: shipped.latency_ms,
            records: records.len(),
        });
        // Advance the HPC side, resubmit lost tasks, absorb completions.
        phase(&mut cyc, "fabric.hpc.advance", || {
            for task in self.hpc.advance(now, &mut self.timeline) {
                // Level 2 sheds the non-critical results-return.
                let results = (self.ladder.level() < 2).then_some(&mut self.link.results);
                let runtime_s = self.hpc.task_runtime_s();
                let (net, timeline) = (&self.net, &mut self.timeline);
                self.twin
                    .complete(task, runtime_s, &self.obs, results, net, timeline);
            }
        });
        // Measured SLO evaluation before change detection, so this
        // cycle's breach can move the ladder this cycle (within the 300 s
        // duty cycle).
        phase(&mut cyc, "fabric.slo.observe", || {
            for ev in self.ladder.observe(now, &shipped, self.obs.registry()) {
                let reason = self
                    .ladder
                    .record_edge(&ev, &mut self.timeline, self.obs.recorder());
                self.dump_blackbox(&reason);
            }
            let behind = shipped.backlog / records.len().max(1);
            let failover = self.hpc.waiting_on_failover();
            let recorder = self.obs.recorder();
            self.ladder
                .update(now, behind, failover, &mut self.timeline, recorder);
        });
        phase(&mut cyc, "fabric.change.detect", || {
            self.detect_change(&records, shipped.latency_ms)
        })?;
        // An impairment episode runs from the first cycle where the loop
        // is visibly hurt (link severed, telemetry parked, or a CFD task
        // waiting on failover) until everything is clean again.
        let impaired = self.link.severed()
            || self.link.gateway.backlog() > 0
            || self.hpc.waiting_on_failover();
        self.impairment.track(now, impaired);
        if let Some(cyc) = cyc {
            self.finish_cycle_profiling(cyc);
        }
        Ok(())
    }

    /// Near-RT RIC loop: deliver this cycle's E2 indications (cells that
    /// are partitioned, or whose indication stream is dropped by a fault,
    /// go stale inside the engine), run the xApps, and apply the
    /// conflict-resolved actions to the live fleet — so the control
    /// response lands before the next probe batch. The drain itself is
    /// pure reads + resets; with zero xApps the whole step emits nothing
    /// and the run is bitwise identical to a RIC-less one.
    fn step_ric(&mut self) {
        let now_s = self.now_s();
        let Some(ric) = &mut self.ric else { return };
        let mut fresh = self.ran.collect_indications();
        let ran = &self.ran;
        let dropped = &self.ric_dropped;
        fresh.retain(|ind| match ran.cell_name(ind.cell) {
            Some(name) => !ran.cell_down(name) && !dropped.contains(name),
            None => false,
        });
        let outcome = ric.step(fresh, now_s);
        if let Some(o) = &self.instruments {
            o.ric_actions.add(outcome.actions.len() as u64);
            o.ric_held.add(outcome.held as u64);
            o.ric_stale_cells.set(outcome.stale_cells.len() as f64);
        }
        for (xapp, action) in &outcome.actions {
            // A rejected action (the RAN refused the knob) is dropped;
            // the xApp re-decides from the next indication.
            if self.ran.apply_ric_action(action).is_ok() {
                self.timeline.push(Event::RicAction {
                    t_s: now_s,
                    xapp: (*xapp).to_string(),
                    action: action.describe(),
                });
            }
        }
    }

    /// Run the detection duty cycle; on a change, size a CFD task to one
    /// detection window of telemetry, at the resolution the ladder sets
    /// now, and hand it to the HPC side.
    fn detect_change(
        &mut self,
        records: &[TelemetryRecord],
        transfer_ms: f64,
    ) -> Result<(), FabricError> {
        let now = self.now_s();
        let gateway = &self.link.gateway;
        let backlog = gateway.backlog();
        let detected = self
            .detect
            .cycle(now, &gateway.repo, backlog, &mut self.timeline)?;
        let Some(change) = detected else {
            return Ok(());
        };
        let data_bytes = (records.len() * TelemetryRecord::WIRE_SIZE * DETECT_EVERY_REPORTS) as f64;
        let Some(bc) = self.net.boundary_conditions(records) else {
            return Ok(());
        };
        let (cells, steps) = self.ladder.effective_resolution();
        let trace = self
            .obs
            .tracer()
            .map(|tr| change.open_trace(tr, now, transfer_ms, records.len()));
        let interior = records
            .iter()
            .filter_map(|r| match self.net.station_position(r.station_id)? {
                (x, y, true) => Some(Measurement {
                    x,
                    y,
                    z: 4.0,
                    wind_ms: r.wind_speed_ms,
                }),
                _ => None,
            })
            .collect();
        let pending = PendingCfd {
            trigger_t_s: now,
            bc,
            interior,
            cells,
            steps,
            trace,
        };
        self.hpc
            .submit(pending, data_bytes, now, &mut self.timeline);
        Ok(())
    }

    /// Close the cycle's span tree, feed it to the profiler's
    /// attribution tree, and extract this cycle's critical path (emitted
    /// as `fabric.cycle.critical.*` and attached to black-box bundles).
    fn finish_cycle_profiling(&mut self, mut cyc: CycleSpans) {
        let obs = &self.obs;
        let Some(tracer) = obs.tracer() else { return };
        cyc.flush(tracer);
        if let Some(prof) = obs.profiler() {
            prof.record_trace(&cyc.spans);
        }
        let path = self.last_critical.get_or_insert_with(CriticalPath::default);
        if extract_critical_into(&cyc.spans, cyc.trace, path) {
            if let (Some(o), Some(reg)) = (&mut self.instruments, obs.registry()) {
                o.critical(reg, &cyc.phases, path);
            }
        } else if path.steps.is_empty() {
            self.last_critical = None;
        }
        self.cycle_spans = Some(cyc);
    }

    /// Apply one fault-window edge to the part of the loop it hits.
    /// Faults change state at report-cycle resolution; their downtime
    /// accounting inside the plan stays exact regardless.
    fn apply_fault(&mut self, change: &FaultChange) {
        let now = self.now_s();
        let active = change.active;
        match &change.kind {
            // The WAN route is shared; a partition entry severs both the
            // uplink and the results downlink for every cell.
            FaultKind::RoutePartition { .. } => self.link.set_route_down(active),
            FaultKind::PacketLossSurge { loss_prob, .. } => {
                let loss = if active { *loss_prob } else { 0.0 };
                self.link.gateway.set_loss(loss);
            }
            FaultKind::RanDegradation {
                cell,
                snr_offset_db,
            } => {
                let offset = active.then_some(*snr_offset_db);
                let known = self.ran.fade(cell, offset);
                // Only the gateway's serving cell carries telemetry; a
                // fade on any other cell stays local to the facilities
                // pinned to it (visible in that cell's probe goodput).
                if known && self.ran.gateway_cell_name() == cell {
                    self.link.gateway.set_access_degraded(offset);
                }
            }
            FaultKind::CellPartition { cell } => {
                let known = self.ran.set_cell_down(cell, active);
                if known && self.ran.gateway_cell_name() == cell {
                    self.link.set_cell_down(active);
                }
            }
            FaultKind::RicIndicationDrop { cell } => {
                if active {
                    self.ric_dropped.insert(cell.clone());
                } else {
                    self.ric_dropped.remove(cell);
                }
            }
            FaultKind::HpcSiteOutage { site } => self.hpc.set_site_down(site, active, now),
            FaultKind::HpcQueueStall { site } => self.hpc.set_site_stalled(site, active),
            FaultKind::SensorDropout { station } => self.net.set_station_down(*station, active),
            FaultKind::SensorStuck { station } => self.net.set_station_stuck(*station, active),
            FaultKind::StorageAppendFailure { log, failures } => {
                if active {
                    if let Ok(l) = self.link.gateway.repo.log(log) {
                        l.inject_append_failures(*failures);
                    }
                }
            }
        }
        self.timeline.push(Event::FaultChanged {
            t_s: now,
            fault: format!("{:?}", change.kind),
            active,
        });
        if let Some(rec) = self.obs.recorder() {
            let edge = if active { "activated" } else { "cleared" };
            let text = format!("fault {edge}: {}", change.kind.describe());
            rec.note(secs_to_us(now), text);
        }
        // An injected-fault window opening is itself a dump trigger: the
        // bundle captures the loop state the fault is about to distort.
        if active {
            self.dump_blackbox(&format!("fault-window: {}", change.kind.describe()));
        }
    }

    /// Dump a black-box bundle if a `blackbox_dir` is configured and the
    /// observability layer is live; failures to write are swallowed (the
    /// black box must never take down the loop it is diagnosing).
    fn dump_blackbox(&mut self, reason: &str) {
        let (Some(dir), Some(rec)) = (&self.blackbox_dir, self.obs.recorder()) else {
            return;
        };
        let snapshot = self.obs.registry().map(|r| r.snapshot());
        let breached = self
            .ladder
            .watchdog()
            .map(|w| w.breached().join("; "))
            .unwrap_or_default();
        let ctx = BundleContext {
            reason: reason.to_string(),
            t_s: self.now_s(),
            seed: self.seed,
            context: vec![
                ("active_faults".into(), self.faults.describe_active()),
                ("degradation_level".into(), self.ladder.level().to_string()),
                ("breached_slos".into(), breached),
                (
                    "gateway_backlog".into(),
                    self.link.gateway.backlog().to_string(),
                ),
            ],
            profile: self.obs.profiler().map(|p| p.snapshot()),
            critical: self.last_critical.clone(),
        };
        if let Ok(path) = dump_bundle(dir, rec, snapshot.as_ref(), &ctx) {
            self.bundles.push(path);
        }
    }
}

impl Advance for XgFabric {
    type Error = FabricError;

    fn now(&self) -> SimNs {
        self.now
    }

    /// Run every report cycle due at or before `t`. The schedule re-arms
    /// one report interval ahead *before* the cycle runs, so a phase
    /// error (a gateway refusal, a failed detection) leaves it intact and
    /// the caller can resume by advancing again.
    fn advance_to(&mut self, t: SimNs) -> std::result::Result<(), FabricError> {
        let interval = report_interval();
        while self.next_cycle <= t {
            self.now = self.next_cycle;
            self.next_cycle = self.next_cycle.saturating_add(interval);
            self.run_cycle()?;
        }
        self.now = self.now.max(t);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_cspot::outage::OutageConfig;
    use xg_sensors::facility::Wall;

    fn fast_config(seed: u64) -> FabricConfig {
        FabricConfig {
            seed,
            cfd_cells: [14, 12, 5],
            cfd_steps: 25,
            ..Default::default()
        }
    }

    #[test]
    fn obs_traces_full_closed_loop_cycle() {
        let obs = Obs::enabled();
        let mut fab = XgFabric::new(FabricConfig {
            obs: obs.clone(),
            ..fast_config(3)
        });
        fab.run_cycles(12).unwrap();
        fab.force_front();
        fab.run_cycles(12).unwrap();
        assert!(fab.timeline().cfd_runs() >= 1, "CFD must have run");
        let spans = obs.tracer().unwrap().spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_ref()).collect();
        for stage in [
            "telemetry.transfer",
            "change.detection",
            "hpc.queue_mask",
            "cfd.solve",
            "results.return",
        ] {
            assert!(names.contains(&stage), "missing {stage}: {names:?}");
        }
        // The stages chain causally back from the results return.
        let ret = spans.iter().find(|s| s.name == "results.return").unwrap();
        let cfd = spans.iter().find(|s| Some(s.id) == ret.parent).unwrap();
        assert_eq!(cfd.name, "cfd.solve");
        let qm = spans.iter().find(|s| Some(s.id) == cfd.parent).unwrap();
        assert_eq!(qm.name, "hpc.queue_mask");
        let det = spans.iter().find(|s| Some(s.id) == qm.parent).unwrap();
        assert_eq!(det.name, "change.detection");
        let xfer = spans.iter().find(|s| Some(s.id) == det.parent).unwrap();
        assert_eq!(xfer.name, "telemetry.transfer");
        assert_eq!(xfer.trace, ret.trace, "one trace per closed-loop cycle");
        // §4.4 dominance: the CFD solve dwarfs the transfer; queueing is
        // fully masked on an idle cluster with a warm pilot.
        assert!(cfd.duration_s() > 100.0 * xfer.duration_s());
        assert!(qm.duration_s() < 1.0, "warm pilot masks the queue");
        // Metrics flowed from every instrumented layer below the fabric.
        let reg = obs.registry().unwrap();
        assert_eq!(reg.counter("fabric.report_cycles").get(), 24);
        assert!(reg.histogram("cspot.append.total_ms").count() > 0);
        assert!(reg.histogram("cfd.step.wall_ms").count() > 0);
        // Every cycle's wall tree is `fabric.cycle` over the same eight
        // phases, in order, so the leaf counters registered from the
        // first cycle cover every cycle.
        let phases: Vec<&str> = (spans.iter())
            .filter(|s| s.domain == ClockDomain::Wall && s.parent.is_some())
            .map(|s| s.name.as_ref())
            .collect();
        assert_eq!(phases.len(), 24 * 8);
        for cycle in phases.chunks(8) {
            assert_eq!(cycle, &phases[..8]);
        }
        let gated: u64 = (phases[..8].iter())
            .map(|p| {
                reg.counter(&format!("fabric.cycle.critical.leaf.{p}"))
                    .get()
            })
            .sum();
        assert_eq!(gated, 24, "one critical leaf per cycle");
    }

    #[test]
    fn zero_xapp_ric_is_a_bitwise_noop() {
        // Collecting indications must not perturb anything: a run with a
        // RIC that has no xApps produces the exact same timeline as a
        // RIC-less run of the same seed.
        let mut without = XgFabric::new(fast_config(6));
        let mut with_ric = XgFabric::new(FabricConfig {
            ric: Some(Ric::new(6, 300.0)),
            ..fast_config(6)
        });
        without.run_cycles(8).unwrap();
        with_ric.run_cycles(8).unwrap();
        assert_eq!(without.timeline(), with_ric.timeline());
        assert_eq!(with_ric.ric().unwrap().periods(), 8);
        assert_eq!(with_ric.timeline().ric_actions(), 0);
    }

    #[test]
    fn telemetry_flows_every_cycle() {
        let mut fab = XgFabric::new(fast_config(1));
        fab.run_cycles(4).unwrap();
        let latencies = fab.timeline().telemetry_latencies_ms();
        assert_eq!(latencies.len(), 4);
        assert!(latencies.iter().all(|&l| l > 0.0 && l < 10_000.0));
        assert!((fab.now_s() - 1200.0).abs() < 1e-9);
        let rel = fab.reliability_report();
        assert!(rel.lossless());
        assert_eq!(rel.availability_experienced, 1.0);
        assert_eq!(rel.final_backlog, 0);
    }

    #[test]
    fn stable_weather_rarely_triggers() {
        let mut fab = XgFabric::new(fast_config(2));
        // 24 cycles = 2 hours = 4 detection checks (first at 60 min once
        // 12 samples exist).
        fab.run_cycles(24).unwrap();
        let checks = fab
            .timeline()
            .count(|e| matches!(e, Event::ChangeChecked { .. }));
        assert!(checks >= 2, "detector must have run: {checks}");
        // Noise alone should not burn HPC time on most checks.
        assert!(
            fab.timeline().changes_detected() <= checks / 2,
            "too many false triggers: {} of {checks}",
            fab.timeline().changes_detected()
        );
    }

    #[test]
    fn front_triggers_cfd_and_validity_budget() {
        let mut fab = XgFabric::new(fast_config(3));
        fab.run_cycles(12).unwrap(); // build history
        fab.force_front();
        fab.run_cycles(12).unwrap(); // detect + run CFD
        assert!(
            fab.timeline().changes_detected() >= 1,
            "front must be detected"
        );
        assert!(fab.timeline().cfd_runs() >= 1, "CFD must have run");
        // §4.4 budget: ~7 min runtime, ≥ 23 min validity.
        for e in &fab.timeline().events {
            if let Event::CfdCompleted {
                model_runtime_s,
                validity_s,
                ..
            } = e
            {
                assert!(
                    (300.0..600.0).contains(model_runtime_s),
                    "{model_runtime_s}"
                );
                assert!(*validity_s >= 1200.0, "validity {validity_s}");
            }
        }
    }

    #[test]
    fn breach_detected_and_robot_confirms() {
        let mut fab = XgFabric::new(fast_config(4));
        // Build history and calibrate the twin with one intact-run trigger.
        fab.run_cycles(12).unwrap();
        fab.force_front();
        fab.run_cycles(12).unwrap();
        assert!(fab.timeline().cfd_runs() >= 1, "calibration run needed");
        // Now tear the screen; the breach jet both shifts the wind
        // statistics (triggering detection) and diverges from the intact
        // prediction (twin flags it).
        fab.inject_breach(Breach::new(Wall::West, 5, 12.0));
        fab.force_front();
        fab.run_cycles(18).unwrap();
        let suspected = fab.timeline().count(|e| {
            matches!(
                e,
                Event::TwinCompared {
                    breach_suspected: true,
                    ..
                }
            )
        });
        assert!(suspected >= 1, "twin must flag the breach");
        assert!(fab.timeline().breach_confirmed(), "robot must confirm");
    }

    #[test]
    fn pilot_decisions_recorded() {
        let mut fab = XgFabric::new(fast_config(5));
        fab.run_cycles(12).unwrap();
        fab.force_front();
        fab.run_cycles(12).unwrap();
        let evals = fab
            .timeline()
            .count(|e| matches!(e, Event::PilotEvaluated { .. }));
        assert!(evals >= 1);
        for e in &fab.timeline().events {
            if let Event::PilotEvaluated { n_required, .. } = e {
                assert!(*n_required >= 1);
            }
        }
    }

    #[test]
    fn partition_defers_detection_instead_of_rereading_stale_windows() {
        // A 30-minute partition: telemetry parks, the duty cycle that
        // lands inside the outage is skipped (no fresh repository data),
        // and everything drains after the heal with zero loss.
        let faults = FaultPlan::builder(7)
            .scripted(
                3_600.0,
                1_800.0,
                FaultKind::RoutePartition {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            ..fast_config(7)
        });
        fab.run_cycles(24).unwrap();
        let rel = fab.reliability_report();
        assert!(rel.lossless(), "partition must not lose telemetry: {rel}");
        assert_eq!(rel.records_dropped, 0);
        assert_eq!(rel.final_backlog, 0, "backlog drained after heal");
        assert!(rel.max_backlog > 0, "partition must have parked records");
        let expected_avail = 1.0 - 1_800.0 / fab.now_s();
        assert!((rel.availability_experienced - expected_avail).abs() < 1e-9);
        assert!(rel.impairment_episodes >= 1);
        assert!(rel.loop_mttr_s > 0.0);
        assert!(fab.timeline().fault_activations() >= 1);
    }

    #[test]
    fn stochastic_partition_availability_matches_outage_config() {
        // Acceptance: run under a seeded stochastic 5G outage process and
        // require the experienced availability within 2 points of the
        // analytic mtbf/(mtbf+mttr).
        let cfg = OutageConfig {
            mtbf_s: 5_400.0,
            mttr_s: 900.0,
        };
        let faults = FaultPlan::builder(11)
            .stochastic(
                cfg,
                FaultKind::RoutePartition {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            ..fast_config(11)
        });
        fab.run_cycles(2_000).unwrap(); // ~1 week of virtual time
        let rel = fab.reliability_report();
        assert!(
            (rel.availability_experienced - cfg.availability()).abs() < 0.02,
            "experienced {} vs analytic {}",
            rel.availability_experienced,
            cfg.availability()
        );
        assert_eq!(rel.records_dropped, 0, "no loss under generous capacity");
        assert!(rel.mean_detection_inflation_s >= 0.0);
    }

    #[test]
    fn site_outage_fails_over_and_cfd_still_completes() {
        // Primary dies right after the first trigger window opens; the
        // failover layer must resubmit to ANVIL and the CFD must finish.
        let faults = FaultPlan::builder(13)
            .scripted(
                3_600.0,
                4.0 * 3_600.0,
                FaultKind::HpcSiteOutage {
                    site: "ND-CRC".into(),
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            failover_sites: vec![SiteProfile::anvil()],
            ..fast_config(13)
        });
        fab.run_cycles(12).unwrap();
        fab.force_front();
        fab.run_cycles(24).unwrap();
        let rel = fab.reliability_report();
        assert!(rel.cfd_triggered >= 1, "front must trigger: {rel}");
        assert!(rel.cfd_completed >= 1, "CFD must complete despite outage");
        // The trigger lands while ND-CRC is down, so the placement goes
        // to the surviving site.
        let placed_on_anvil = fab.timeline().events.iter().any(
            |e| matches!(e, Event::FailoverTriggered { to_site: Some(s), .. } if s == "ANVIL"),
        );
        let all_completed_somewhere = rel.cfd_completed == rel.cfd_triggered;
        assert!(
            placed_on_anvil || all_completed_somewhere,
            "failover must keep the pipeline alive: {rel}"
        );
    }

    #[test]
    fn mid_pilot_outage_triggers_failover_resubmission() {
        // Force the CFD to be in flight at its site when that site dies:
        // with both sites healthy the router picks ANVIL (faster), so the
        // outage targets ANVIL 100 s after the t=5400 trigger, well
        // before the ~7-minute completion.
        let faults = FaultPlan::builder(17)
            .scripted(
                5_500.0,
                3.0 * 3_600.0,
                FaultKind::HpcSiteOutage {
                    site: "ANVIL".into(),
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            failover_sites: vec![SiteProfile::anvil()],
            ..fast_config(3) // seed 3 triggers at t=5400 (see front test)
        });
        fab.run_cycles(12).unwrap();
        fab.force_front();
        fab.run_cycles(24).unwrap();
        let rel = fab.reliability_report();
        assert!(rel.failovers >= 1, "in-flight task must fail over: {rel}");
        assert!(rel.cfd_recovered >= 1, "recovered CFD must complete: {rel}");
        let resubmitted = |e: &Event| {
            matches!(
                e,
                Event::FailoverTriggered {
                    to_site: Some(_),
                    ..
                }
            )
        };
        assert!(fab.timeline().count(resubmitted) >= 1);
    }

    #[test]
    fn long_partition_degrades_then_recovers() {
        // A 2-hour outage: the ladder must leave nominal while the
        // backlog grows and return to nominal after the heal.
        let faults = FaultPlan::builder(19)
            .scripted(
                1_800.0,
                7_200.0,
                FaultKind::RoutePartition {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            ..fast_config(19)
        });
        fab.run_cycles(40).unwrap();
        let rel = fab.reliability_report();
        assert!(rel.degraded_cycles >= 1, "ladder must engage: {rel}");
        assert_eq!(fab.degradation_level(), 0, "recovered to nominal");
        assert!(rel.lossless());
        let level_changes = fab
            .timeline()
            .count(|e| matches!(e, Event::DegradationChanged { .. }));
        assert!(level_changes >= 2, "up and back down");
    }

    #[test]
    fn ran_collapse_degrades_via_slo_watchdog_without_backlog() {
        // A *moderate* RAN fade (HARQ still recovers every transport
        // block) multiplies per-append transfer latency ~8x but every
        // record still delivers inside its 300 s cycle: the backlog-based
        // ladder sees nothing. Only the measured p99 SLO can notice — the
        // ladder must rise on the watchdog's breach and return after the
        // recovery hysteresis.
        let faults = FaultPlan::builder(29)
            .scripted(
                1_800.0,
                3_600.0,
                FaultKind::RanDegradation {
                    cell: "UNL-5G".into(),
                    snr_offset_db: -12.0,
                },
            )
            .build();
        let obs = Obs::enabled();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            obs: obs.clone(),
            // Small window + tight hysteresis so breach and recovery both
            // land inside a short run.
            slo_window: WindowConfig {
                interval_s: 300.0,
                intervals: 3,
            },
            slo_hysteresis: Hysteresis {
                breach_after: 2,
                clear_after: 2,
            },
            ..fast_config(29)
        });
        let mut saw_level1_with_empty_backlog = false;
        let mut max_backlog = 0;
        for _ in 0..40 {
            fab.run_report_cycle().unwrap();
            max_backlog = max_backlog.max(fab.telemetry_backlog());
            if fab.degradation_level() >= 1 && fab.telemetry_backlog() == 0 {
                saw_level1_with_empty_backlog = true;
            }
        }
        assert_eq!(max_backlog, 0, "a RAN fade must not park telemetry");
        assert!(
            saw_level1_with_empty_backlog,
            "ladder must rise on the SLO breach alone"
        );
        assert_eq!(fab.degradation_level(), 0, "recovered after the window");
        assert!(
            fab.timeline()
                .count(|e| matches!(e, Event::SloBreached { .. }))
                >= 1
        );
        assert!(fab.timeline().slo_recoveries() >= 1);
        let wd = fab.slo_watchdog().unwrap();
        assert!(wd.breach_events() >= 1 && wd.recovery_events() >= 1);
        assert_eq!(fab.slo_degradation_target(), 0);
        // The breach/recovery edges were counted on the registry and the
        // flight recorder holds the annotated story.
        let reg = obs.registry().unwrap();
        assert!(reg.counter("fabric.slo.breaches").get() >= 1);
        assert!(reg.counter("fabric.slo.recoveries").get() >= 1);
        let notes = obs.recorder().unwrap().notes();
        assert!(notes.iter().any(|(_, n)| n.contains("slo breached")));
        assert!(notes
            .iter()
            .any(|(_, n)| n.contains("degradation -> level 1")));
        assert!(notes.iter().any(|(_, n)| n.contains("ran-degradation")));
    }

    #[test]
    fn sensor_and_storage_faults_do_not_panic_the_loop() {
        let faults = FaultPlan::builder(23)
            .scripted(900.0, 3_600.0, FaultKind::SensorDropout { station: 0 })
            .scripted(1_200.0, 3_600.0, FaultKind::SensorStuck { station: 3 })
            .scripted(
                1_500.0,
                300.0,
                FaultKind::StorageAppendFailure {
                    log: crate::pipeline::TELEMETRY_LOG.into(),
                    failures: 3,
                },
            )
            .scripted(
                2_400.0,
                1_200.0,
                FaultKind::PacketLossSurge {
                    from: "UNL-5G".into(),
                    to: "UCSB".into(),
                    loss_prob: 0.4,
                },
            )
            .scripted(
                3_000.0,
                600.0,
                FaultKind::RanDegradation {
                    cell: "UNL-5G".into(),
                    snr_offset_db: -25.0,
                },
            )
            .build();
        let mut fab = XgFabric::new(FabricConfig {
            faults,
            ..fast_config(23)
        });
        let telemetry = fab
            .link
            .gateway
            .repo
            .log(crate::pipeline::TELEMETRY_LOG)
            .unwrap();
        fab.run_cycles(5).unwrap();
        // The append failures landed on the repository's log: the
        // t = 1500 s drain hit one and parked its backlog.
        assert!(telemetry.pending_injected_failures() > 0);
        fab.run_cycles(19).unwrap();
        // Later drains consumed every failure, and nothing was lost.
        assert_eq!(telemetry.pending_injected_failures(), 0);
        let rel = fab.reliability_report();
        assert!(rel.lossless(), "{rel}");
        assert!(fab.timeline().fault_activations() >= 5);
    }
}
