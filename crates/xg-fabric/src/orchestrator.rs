//! The xGFabric closed loop.
//!
//! [`XgFabric`] advances the whole system on the paper's duty cycles:
//!
//! * every **300 s** the stations report and the records enter the field
//!   gateway's bounded store-and-forward buffer, which drains over
//!   5G + Internet into the UCSB repository whenever the link allows
//!   (§3.1's delay tolerance);
//! * every **30 min** (6 reports) the Laminar change detector compares the
//!   two most recent 30-minute windows *of data that actually reached the
//!   repository*; a statistically measurable change triggers the Pilot
//!   controller (Eqs. 1–4) and a CFD task routed to the best reachable
//!   HPC site;
//! * CFD tasks complete after their expected completion time; a site
//!   outage mid-run triggers failover — the task is resubmitted to the
//!   next-best site with capped exponential backoff — and on completion
//!   the **actual** solver runs at (possibly degraded) resolution, the
//!   digital twin compares prediction with measurement, and a suspected
//!   breach dispatches the Farm-NG robot.
//!
//! A [`FaultPlan`] in the configuration injects partitions, RAN collapse,
//! site outages, sensor faults, and storage faults as virtual time
//! advances; the loop degrades gracefully (buffering, failover, reduced
//! CFD resolution, skipped results-return) instead of panicking, and
//! every run can emit a [`ReliabilityReport`]. All time is virtual;
//! nothing sleeps.

use crate::backtest::{Backtester, CalibrationSample};
use crate::error::FabricError;
use crate::intervention::{Intervention, InterventionAdvisor, SiteConditions};
use crate::pipeline::{FieldGateway, ResultSummary, ResultsReturn, WIND_LOG};
use crate::ran::{RanProbe, RanTopology};
use crate::reliability::ReliabilityReport;
use crate::robot::Robot;
use crate::route::RoutePlanner;
use crate::timeline::{Event, Timeline};
use std::path::PathBuf;
use std::sync::Arc;
use xg_cfd::boundary::BoundarySpec;
use xg_cfd::mesh::{DomainSpec, Mesh};
use xg_cfd::parallel::CfdPerfModel;
use xg_cfd::solver::{Simulation, SolverConfig};
use xg_cfd::twin::{DigitalTwin, Measurement};
use xg_cspot::netsim::SimClock;
use xg_cspot::node::CspotNode;
use xg_faults::{FaultChange, FaultKind, FaultPlan};
use xg_hpc::multisite::MultiSiteController;
use xg_hpc::site::SiteProfile;
use xg_laminar::bridge::latest_windows;
use xg_laminar::change::{build_change_graph, ChangeDetector};
use xg_laminar::runtime::LaminarRuntime;
use xg_laminar::value::Value;
use xg_obs::clock::{secs_to_us, wall_now_us};
use xg_obs::critical::{extract_critical, CriticalPath};
use xg_obs::recorder::{dump_bundle, BundleContext};
use xg_obs::slo::{Hysteresis, SloEventKind, SloOp, SloSpec, SloStat, SloWatchdog};
use xg_obs::span::SpanRecord;
use xg_obs::window::{MetricsWindow, WindowConfig};
use xg_obs::ClockDomain;
use xg_obs::{Obs, SpanId, TraceId, Tracer};
use xg_ric::Ric;
use xg_sensors::breach::Breach;
use xg_sensors::facility::CupsFacility;
use xg_sensors::network::{BoundaryConditions, SensorNetwork, REPORT_INTERVAL_S};
use xg_sensors::qc::QcScreen;
use xg_sensors::telemetry::TelemetryRecord;
use xg_sim::{Advance, SimNs};

/// Reports per change-detection duty cycle (paper: 6 = 30 min).
const DETECT_EVERY_REPORTS: usize = 6;

/// The report cycle's cadence: the stations' own reporting interval, so
/// the fabric and the sensor network cannot drift apart.
fn report_interval() -> SimNs {
    SimNs::from_secs_f64(REPORT_INTERVAL_S)
}

/// Full-fabric configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// RNG seed for every stochastic component.
    pub seed: u64,
    /// The change detector.
    pub detector: ChangeDetector,
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
    /// Paper-scale performance model (task runtimes, Fig. 7).
    pub perf: CfdPerfModel,
    /// Cores assumed for the in-loop CFD tasks.
    pub cfd_cores: u32,
    /// The digital twin comparator.
    pub twin: DigitalTwin,
    /// Bounded capacity of the field gateway buffer (records).
    pub gateway_capacity: usize,
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
            detector: ChangeDetector::default(),
            site: SiteProfile::notre_dame_crc(),
            failover_sites: Vec::new(),
            busy_cluster: false,
            cfd_cells: [20, 16, 6],
            cfd_steps: 40,
            perf: CfdPerfModel::notre_dame(),
            cfd_cores: 64,
            twin: DigitalTwin::default(),
            gateway_capacity: 4096,
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

/// Everything the fabric keeps only while observability is on: its
/// pre-resolved instruments (one registry lookup at attach) and the SLO
/// window + watchdog that judge them.
struct FabricObs {
    report_cycles: Arc<xg_obs::Counter>,
    degradation_level: Arc<xg_obs::Gauge>,
    degradation_transitions: Arc<xg_obs::Counter>,
    cycle_transfer_ms: Arc<xg_obs::Histogram>,
    gateway_backlog: Arc<xg_obs::Gauge>,
    gateway_dropped: Arc<xg_obs::Counter>,
    gateway_delivered: Arc<xg_obs::Counter>,
    slo_breaches: Arc<xg_obs::Counter>,
    slo_recoveries: Arc<xg_obs::Counter>,
    ric_actions: Arc<xg_obs::Counter>,
    ric_held: Arc<xg_obs::Counter>,
    ric_stale_cells: Arc<xg_obs::Gauge>,
    critical_total_ms: Arc<xg_obs::Histogram>,
    critical_depth: Arc<xg_obs::Gauge>,
    /// Sliding window over the registry, judged by the watchdog.
    window: MetricsWindow,
    watchdog: SloWatchdog,
}

impl FabricObs {
    fn new(config: &FabricConfig) -> Option<Self> {
        let reg = config.obs.registry()?;
        Self::register_help(reg);
        let watchdog = SloWatchdog::new(config.slos.clone(), config.slo_hysteresis);
        // The window feeds the watchdog alone, so it only needs to diff
        // the instruments the objectives actually read — not every live
        // histogram in the registry, every cycle.
        let mut window = MetricsWindow::new(config.slo_window);
        window.focus(watchdog.metrics());
        Some(FabricObs {
            report_cycles: reg.counter("fabric.report_cycles"),
            degradation_level: reg.gauge("fabric.degradation.level"),
            degradation_transitions: reg.counter("fabric.degradation.transitions"),
            cycle_transfer_ms: reg.histogram("fabric.cycle.transfer_ms"),
            gateway_backlog: reg.gauge("fabric.gateway.backlog"),
            gateway_dropped: reg.counter("fabric.gateway.dropped"),
            gateway_delivered: reg.counter("fabric.gateway.delivered"),
            slo_breaches: reg.counter("fabric.slo.breaches"),
            slo_recoveries: reg.counter("fabric.slo.recoveries"),
            ric_actions: reg.counter("fabric.ric.actions"),
            ric_held: reg.counter("fabric.ric.held"),
            ric_stale_cells: reg.gauge("fabric.ric.stale_cells"),
            critical_total_ms: reg.histogram("fabric.cycle.critical.total_ms"),
            critical_depth: reg.gauge("fabric.cycle.critical.depth"),
            window,
            watchdog,
        })
    }

    /// Register `# HELP` texts for the fabric's headline instruments so a
    /// scraped snapshot is self-describing.
    fn register_help(reg: &xg_obs::MetricsRegistry) {
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
    }
}

/// Per-cycle wall-span bookkeeping, built only when a tracer exists.
/// Phase boundaries are captured as explicit timestamps during the cycle
/// and flushed as one span tree at cycle end — root first, so every
/// phase span can carry a parent link (the tracer assigns ids at record
/// time).
struct CycleSpans {
    trace: TraceId,
    /// Tracer length at cycle start; `spans_from(mark)` is this cycle.
    mark: usize,
    root_start_us: u64,
    phases: Vec<(&'static str, u64, u64)>,
}

impl CycleSpans {
    fn begin(tracer: &Tracer) -> Self {
        CycleSpans {
            trace: tracer.new_trace(),
            mark: tracer.len(),
            root_start_us: wall_now_us(),
            phases: Vec::with_capacity(8),
        }
    }

    /// Record the cycle's span tree and return this cycle's wall spans
    /// (the tree just recorded plus any other spans of this trace).
    fn flush(self, tracer: &Tracer) -> (TraceId, Vec<SpanRecord>) {
        let root = tracer.record_raw(
            self.trace,
            None,
            "fabric.cycle",
            ClockDomain::Wall,
            self.root_start_us,
            wall_now_us(),
            vec![],
        );
        for (name, s, e) in &self.phases {
            tracer.record_raw(
                self.trace,
                Some(root),
                name,
                ClockDomain::Wall,
                *s,
                *e,
                vec![],
            );
        }
        let spans: Vec<SpanRecord> = tracer
            .spans_from(self.mark)
            .into_iter()
            .filter(|s| s.trace == self.trace)
            .collect();
        (self.trace, spans)
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

/// Captured trigger context for one CFD run, including the resolution
/// chosen by the degradation ladder at trigger time.
struct PendingCfd {
    trigger_t_s: f64,
    bc: BoundaryConditions,
    interior: Vec<Measurement>,
    cells: [usize; 3],
    steps: usize,
    /// Closed-loop trace this run belongs to, with the detection span it
    /// is causally downstream of (None when observability is disabled).
    trace: Option<(TraceId, SpanId)>,
}

/// A CFD task placed at a site, expected to finish at `finishes_at`.
struct InFlightCfd {
    pending: PendingCfd,
    site: String,
    finishes_at: f64,
    /// Placement attempts so far (0 = first placement succeeded).
    attempts: u32,
}

/// A CFD task lost to a site outage (or refused by every site), waiting
/// out its backoff before resubmission.
struct RetryCfd {
    pending: PendingCfd,
    from_site: String,
    attempts: u32,
    next_try_s: f64,
}

/// The orchestrated end-to-end system.
pub struct XgFabric {
    /// Configuration.
    pub config: FabricConfig,
    net: SensorNetwork,
    gateway: FieldGateway,
    hpc: MultiSiteController,
    robot: Robot,
    planner: RoutePlanner,
    advisor: InterventionAdvisor,
    /// The §3.7 change-detection program, deployed as a real Laminar
    /// dataflow on the repository's CSPOT node.
    laminar: LaminarRuntime,
    detect_epoch: u64,
    results_return: ResultsReturn,
    qc: QcScreen,
    backtester: Backtester,
    timeline: Timeline,
    reports_done: usize,
    /// Live fault schedule (advanced copy of `config.faults`).
    faults: FaultPlan,
    in_flight: Vec<InFlightCfd>,
    retries: Vec<RetryCfd>,
    /// Degradation ladder level: 0 nominal, 1 reduced CFD resolution,
    /// 2 also skip non-critical results-return.
    degradation: u8,
    route_down: bool,
    /// The live multi-cell RAN, probed every report cycle.
    ran: RanProbe,
    /// The near-RT RIC engine (a live, stepping copy of `config.ric`).
    ric: Option<Ric>,
    /// Cells whose E2 indication stream is currently dropped by a
    /// `RicIndicationDrop` fault.
    ric_dropped: std::collections::BTreeSet<String>,
    /// Whether the gateway's serving cell is partitioned (tracked apart
    /// from `route_down` so either alone severs the telemetry path).
    gateway_cell_partitioned: bool,
    /// When a detect duty cycle was first deferred for lack of fresh
    /// repository data (partition-starved); cleared by the detection
    /// that finally runs, which is charged the wait as inflation.
    deferred_check_since: Option<f64>,
    wind_seq_at_last_detect: u64,
    detections: u32,
    detection_inflation_sum_s: f64,
    failovers: u32,
    cfd_triggered: u32,
    cfd_completed: u32,
    cfd_recovered: u32,
    degraded_cycles: u32,
    impaired_since: Option<f64>,
    impairment_episodes: u32,
    impairment_total_s: f64,
    /// Twin calibration factor (measured/predicted), set by the first
    /// completed comparison ("once the model is calibrated", §2).
    calibration: Option<f64>,
    /// Fabric-level instruments, SLO window and watchdog (enabled `obs`
    /// only).
    obs: Option<FabricObs>,
    /// Degradation level the active SLO breaches currently request; the
    /// ladder runs at max(backlog level, this).
    slo_degradation: u8,
    /// Cumulative gateway counters at the previous cycle, for deltas.
    prev_dropped: u64,
    prev_delivered: u64,
    /// Black-box bundles dumped so far (paths in `blackbox_dir`).
    bundles: Vec<PathBuf>,
    /// The most recent report cycle's wall-time critical path (enabled
    /// `obs` only); attached to every black-box bundle.
    last_critical: Option<CriticalPath>,
    /// Sim time the fabric has been advanced to.
    now: SimNs,
    /// When the next report cycle is due.
    next_cycle: SimNs,
}

impl XgFabric {
    /// Assemble the fabric, surfacing construction failures (a topology
    /// without the paper routes, colliding logs) as typed errors.
    pub fn try_new(config: FabricConfig) -> Result<Self, FabricError> {
        let facility = CupsFacility::default();
        let net = SensorNetwork::cups_default(facility, config.seed);
        let repo = Arc::new(CspotNode::in_memory("UCSB"));
        let field = Arc::new(CspotNode::in_memory("UNL"));
        let mut gateway = FieldGateway::new(
            Arc::clone(&repo),
            Arc::clone(&field),
            SimClock::new(),
            config.seed,
            config.gateway_capacity,
        )?;
        gateway.set_obs(&config.obs);
        let mut sites = vec![(config.site.clone(), config.busy_cluster)];
        for s in &config.failover_sites {
            sites.push((s.clone(), config.busy_cluster));
        }
        let mut hpc = MultiSiteController::new(sites, config.seed);
        hpc.set_est_task_runtime(config.perf.total_time_s(config.cfd_cores));
        hpc.set_obs(&config.obs);
        let mut results_return = ResultsReturn::new(field, SimClock::new(), config.seed ^ 0x5255)?;
        results_return.set_obs(&config.obs);
        let laminar = LaminarRuntime::deploy(
            build_change_graph("cups_change", config.detector)?,
            Arc::clone(&gateway.repo),
        )?;
        let faults = config.faults.clone();
        // The RAN fleet gets its own seed stream so growing the topology
        // never perturbs the sensor or gateway RNGs.
        let ran = RanProbe::try_new(&config.ran, config.seed ^ 0x0052_414E, &config.obs)?;
        let mut ric = config.ric.clone();
        if let Some(r) = &mut ric {
            r.set_obs(&config.obs);
        }
        let obs = FabricObs::new(&config);
        // The first fabric configured with a black-box directory arms the
        // process-wide panic hook: a crash anywhere dumps that fabric's
        // flight recorder next to the SLO/fault bundles. One recorder per
        // process is deliberate — stacking a hook per fabric would dump
        // the same panic many times over.
        if let (Some(dir), Some(recorder)) = (&config.blackbox_dir, config.obs.recorder()) {
            static PANIC_HOOK: std::sync::Once = std::sync::Once::new();
            let (recorder, dir, seed) = (Arc::clone(recorder), dir.clone(), config.seed);
            PANIC_HOOK.call_once(move || {
                xg_obs::recorder::install_panic_hook(recorder, dir, seed);
            });
        }
        Ok(XgFabric {
            config,
            net,
            gateway,
            hpc,
            robot: Robot::default(),
            planner: RoutePlanner::from_domain(&DomainSpec::cups_default()),
            advisor: InterventionAdvisor::default(),
            laminar,
            detect_epoch: 0,
            results_return,
            qc: QcScreen::new(),
            backtester: Backtester::default(),
            timeline: Timeline::default(),
            reports_done: 0,
            faults,
            in_flight: Vec::new(),
            retries: Vec::new(),
            degradation: 0,
            route_down: false,
            ran,
            ric,
            ric_dropped: std::collections::BTreeSet::new(),
            gateway_cell_partitioned: false,
            deferred_check_since: None,
            wind_seq_at_last_detect: 0,
            detections: 0,
            detection_inflation_sum_s: 0.0,
            failovers: 0,
            cfd_triggered: 0,
            cfd_completed: 0,
            cfd_recovered: 0,
            degraded_cycles: 0,
            impaired_since: None,
            impairment_episodes: 0,
            impairment_total_s: 0.0,
            calibration: None,
            obs,
            slo_degradation: 0,
            prev_dropped: 0,
            prev_delivered: 0,
            bundles: Vec::new(),
            last_critical: None,
            now: SimNs::ZERO,
            next_cycle: report_interval(),
        })
    }

    /// Assemble the fabric. Construction over fresh in-memory nodes and
    /// the built-in paper topology cannot fail; use [`XgFabric::try_new`]
    /// when building from non-default parts.
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
        self.results_return.latest()
    }

    /// Back-test the live twin calibration against the accumulated
    /// prediction/measurement history (None before enough CFD runs, or
    /// before the twin is calibrated).
    pub fn backtest_calibration(&self) -> Option<crate::backtest::BacktestReport> {
        self.backtester.backtest(self.calibration?)
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
        self.degradation
    }

    /// The SLO watchdog, when observability is enabled.
    pub fn slo_watchdog(&self) -> Option<&SloWatchdog> {
        self.obs.as_ref().map(|o| &o.watchdog)
    }

    /// Degradation level the active SLO breaches currently request.
    pub fn slo_degradation_target(&self) -> u8 {
        self.slo_degradation
    }

    /// Black-box bundles dumped so far, in dump order.
    pub fn blackbox_bundles(&self) -> &[PathBuf] {
        &self.bundles
    }

    /// Telemetry records parked at the field gateway.
    pub fn telemetry_backlog(&self) -> usize {
        self.gateway.backlog()
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

    /// One report cycle: the paper's fixed-order pipeline, top to bottom.
    /// An erroring phase aborts the rest of its own cycle only.
    fn run_cycle(&mut self) -> Result<(), FabricError> {
        // One wall trace per cycle: phase boundaries are captured as
        // timestamps and flushed into a span tree at cycle close, feeding
        // the profiler's attribution tree and the cycle's critical path.
        let mut cyc = self.config.obs.tracer().map(CycleSpans::begin);
        phase(&mut cyc, "fabric.faults.advance", || self.advance_faults());
        // Step the RAN fleet one probe batch: measured per-cell goodput
        // lands on the registry (feeding the SLO window) and the worst
        // cell lands on the timeline, every cycle.
        let health = phase(&mut cyc, "fabric.ran.probe", || self.ran.probe());
        if let Some(worst) = health
            .iter()
            .min_by(|a, b| a.goodput_mbps.total_cmp(&b.goodput_mbps))
        {
            self.timeline.push(Event::RanProbed {
                t_s: self.now_s(),
                cells: health.len(),
                worst_cell: worst.name.clone(),
                worst_goodput_mbps: worst.goodput_mbps,
            });
        }
        phase(&mut cyc, "fabric.ric.step", || self.step_ric());
        let records = phase(&mut cyc, "fabric.sense.poll", || self.poll_sensors());
        let shipped = phase(&mut cyc, "fabric.gateway.ship", || {
            self.gateway.ship_cycle(&records)
        })?;
        if let Some(o) = &self.obs {
            o.report_cycles.inc();
        }
        self.timeline.push(Event::TelemetryShipped {
            t_s: self.now_s(),
            latency_ms: shipped.latency_ms,
            records: records.len(),
        });
        self.reports_done += 1;
        // Advance the HPC side, resubmit lost tasks, absorb completions.
        phase(&mut cyc, "fabric.hpc.advance", || {
            self.hpc.advance_to(self.now_s());
            self.service_retries();
            self.service_completions();
        });
        // Measured SLO evaluation before change detection, so this
        // cycle's breach can move the ladder this cycle (within the 300 s
        // duty cycle).
        phase(&mut cyc, "fabric.slo.observe", || {
            self.observe_cycle(shipped.latency_ms);
            self.update_degradation(records.len());
        });
        phase(&mut cyc, "fabric.change.detect", || {
            self.detect_change(&records, shipped.latency_ms)
        })?;
        self.track_impairment();
        if let Some(cyc) = cyc {
            self.finish_cycle_profiling(cyc);
        }
        Ok(())
    }

    /// Advance the fault plan and apply state changes. Faults change
    /// state at report-cycle resolution; their downtime accounting inside
    /// the plan stays exact regardless.
    fn advance_faults(&mut self) {
        let changes = self.faults.advance_to(self.now_s());
        for c in &changes {
            self.apply_fault(c);
        }
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
        if let Some(o) = &self.obs {
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

    /// Drain the sensor network's own event engine through one report
    /// round and return what it buffered, after quality control —
    /// before anything becomes a CFD boundary condition (§2's
    /// data-calibration concern).
    fn poll_sensors(&mut self) -> Vec<TelemetryRecord> {
        let _ = self.net.advance_to(self.now);
        let raw = self.net.take_reports();
        self.qc.filter(&raw).0
    }

    /// The 30-minute change-detection duty cycle, gated on telemetry that
    /// actually reached the repository: a partition defers detection
    /// instead of re-reading stale windows.
    fn detect_change(
        &mut self,
        records: &[TelemetryRecord],
        transfer_ms: f64,
    ) -> Result<(), FabricError> {
        if !self.reports_done.is_multiple_of(DETECT_EVERY_REPORTS) {
            return Ok(());
        }
        let repo_seq = self.gateway.repo_wind_seq();
        if repo_seq >= 2 * self.config.detector.window as u64
            && repo_seq >= self.wind_seq_at_last_detect + DETECT_EVERY_REPORTS as u64
        {
            self.run_change_detection(records, repo_seq, transfer_ms)?;
        } else if self.gateway.backlog() > 0 && self.deferred_check_since.is_none() {
            // The duty cycle wanted to run but the partition starved the
            // repository: start the deferral clock.
            self.deferred_check_since = Some(self.now_s());
        }
        Ok(())
    }

    /// Close the cycle's span tree, feed it to the profiler's
    /// attribution tree, and extract this cycle's critical path (emitted
    /// as `fabric.cycle.critical.*` and attached to black-box bundles).
    fn finish_cycle_profiling(&mut self, cyc: CycleSpans) {
        let obs = &self.config.obs;
        let Some(tracer) = obs.tracer() else { return };
        let (trace, spans) = cyc.flush(tracer);
        if let Some(prof) = obs.profiler() {
            prof.record_trace(&spans);
        }
        let Some(path) = extract_critical(&spans, trace) else {
            return;
        };
        if let Some(o) = &self.obs {
            o.critical_total_ms.record(path.total_us as f64 / 1e3);
            o.critical_depth.set(path.depth() as f64);
        }
        if let (Some(reg), Some(leaf)) = (obs.registry(), path.leaf()) {
            // Which stage gated the cycle, and by how much of the cycle:
            // a counter per leaf name (the set of names is the fixed
            // phase list, so cardinality stays bounded) plus its
            // self-time distribution.
            reg.counter(&format!("fabric.cycle.critical.leaf.{}", leaf.name))
                .inc();
            reg.histogram("fabric.cycle.critical.leaf_self_ms")
                .record(leaf.self_us as f64 / 1e3);
        }
        self.last_critical = Some(path);
    }

    /// The most recent report cycle's wall-time critical path (None until
    /// a cycle has run with observability enabled).
    pub fn last_critical(&self) -> Option<&CriticalPath> {
        self.last_critical.as_ref()
    }

    /// Run `n` report cycles (a compatibility wrapper over
    /// [`Advance::advance_to`], like [`XgFabric::run_report_cycle`]).
    pub fn run_cycles(&mut self, n: usize) -> Result<(), FabricError> {
        for _ in 0..n {
            self.run_report_cycle()?;
        }
        Ok(())
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
        // Close any still-open impairment episode for reporting.
        let mut episodes = self.impairment_episodes;
        let mut total_s = self.impairment_total_s;
        if let Some(start) = self.impaired_since {
            episodes += 1;
            total_s += self.now_s() - start;
        }
        ReliabilityReport {
            horizon_s: horizon,
            availability_experienced: availability,
            records_buffered: self.gateway.buffered(),
            records_dropped: self.gateway.dropped(),
            records_delivered: self.gateway.delivered(),
            max_backlog: self.gateway.max_backlog(),
            final_backlog: self.gateway.backlog(),
            detections: self.detections,
            mean_detection_inflation_s: self.detection_inflation_sum_s
                / f64::from(self.detections.max(1)),
            failovers: self.failovers,
            cfd_triggered: self.cfd_triggered,
            cfd_completed: self.cfd_completed,
            cfd_recovered: self.cfd_recovered,
            degraded_cycles: self.degraded_cycles,
            impairment_episodes: episodes,
            loop_mttr_s: total_s / f64::from(episodes.max(1)),
        }
    }

    fn apply_fault(&mut self, change: &FaultChange) {
        match &change.kind {
            // The WAN route is shared; a partition entry severs both the
            // uplink and the results downlink for every cell.
            FaultKind::RoutePartition { .. } => {
                self.route_down = change.active;
                self.sync_partition();
            }
            FaultKind::PacketLossSurge { loss_prob, .. } => {
                self.gateway
                    .set_loss(if change.active { *loss_prob } else { 0.0 });
            }
            FaultKind::RanDegradation {
                cell,
                snr_offset_db,
            } => {
                let offset = change.active.then_some(*snr_offset_db);
                let known = self.ran.fade(cell, offset);
                // Only the gateway's serving cell carries telemetry; a
                // fade on any other cell stays local to the facilities
                // pinned to it (visible in that cell's probe goodput).
                if known && self.ran.serves_gateway(cell) {
                    self.gateway.set_access_degraded(offset);
                }
            }
            FaultKind::CellPartition { cell } => {
                let known = self.ran.set_cell_down(cell, change.active);
                if known && self.ran.serves_gateway(cell) {
                    self.gateway_cell_partitioned = change.active;
                    self.sync_partition();
                }
            }
            FaultKind::RicIndicationDrop { cell } => {
                if change.active {
                    self.ric_dropped.insert(cell.clone());
                } else {
                    self.ric_dropped.remove(cell);
                }
            }
            FaultKind::HpcSiteOutage { site } => {
                self.hpc.set_site_down(site, change.active);
                if change.active {
                    self.orphan_in_flight_at(&site.clone());
                }
            }
            FaultKind::HpcQueueStall { site } => {
                self.hpc.set_site_stalled(site, change.active);
            }
            FaultKind::SensorDropout { station } => {
                self.net.set_station_down(*station, change.active);
            }
            FaultKind::SensorStuck { station } => {
                self.net.set_station_stuck(*station, change.active);
            }
            FaultKind::StorageAppendFailure { log, failures } => {
                if change.active {
                    if let Ok(l) = self.gateway.repo.log(log) {
                        l.inject_append_failures(*failures);
                    }
                }
            }
            FaultKind::StorageTornWrite { log } => {
                if change.active {
                    if let Ok(l) = self.gateway.repo.log(log) {
                        l.inject_torn_write();
                    }
                }
            }
            FaultKind::StorageSegmentCorrupt { log, segment } => {
                if change.active {
                    if let Ok(l) = self.gateway.repo.log(log) {
                        // Damage is applied (or skipped when no such sealed
                        // segment exists); it surfaces at the next recovery.
                        let _ = l.corrupt_sealed_segment(*segment as usize);
                    }
                }
            }
            FaultKind::StorageSyncStall { log } => {
                if let Ok(l) = self.gateway.repo.log(log) {
                    l.set_sync_stall(change.active);
                }
            }
        }
        self.timeline.push(Event::FaultChanged {
            t_s: self.now_s(),
            fault: format!("{:?}", change.kind),
            active: change.active,
        });
        if let Some(rec) = self.config.obs.recorder() {
            rec.note(
                secs_to_us(self.now_s()),
                format!(
                    "fault {}: {}",
                    if change.active {
                        "activated"
                    } else {
                        "cleared"
                    },
                    change.kind.describe()
                ),
            );
        }
        // An injected-fault window opening is itself a dump trigger: the
        // bundle captures the loop state the fault is about to distort.
        if change.active {
            self.dump_blackbox(&format!("fault-window: {}", change.kind.describe()));
        }
    }

    /// The telemetry path is severed while either the WAN route or the
    /// gateway's serving cell is down; it heals only when both are back.
    fn sync_partition(&mut self) {
        let down = self.route_down || self.gateway_cell_partitioned;
        self.gateway.set_partitioned(down);
        self.results_return.set_partitioned(down);
    }

    /// Move every task expected to still be running at the dead site into
    /// the retry queue.
    fn orphan_in_flight_at(&mut self, site: &str) {
        let now = self.now_s();
        let mut kept = Vec::new();
        for f in self.in_flight.drain(..) {
            if f.site == site && f.finishes_at > now {
                self.retries.push(RetryCfd {
                    next_try_s: now + Self::backoff_s(f.attempts),
                    from_site: f.site,
                    attempts: f.attempts + 1,
                    pending: f.pending,
                });
            } else {
                kept.push(f);
            }
        }
        self.in_flight = kept;
    }

    /// Capped exponential backoff between failover placement attempts.
    fn backoff_s(attempts: u32) -> f64 {
        (300.0 * 2f64.powi(attempts.min(3) as i32)).min(1800.0)
    }

    fn service_retries(&mut self) {
        let task_runtime = self.config.perf.total_time_s(self.config.cfd_cores);
        let mut waiting = Vec::new();
        for r in std::mem::take(&mut self.retries) {
            if r.next_try_s > self.now_s() {
                waiting.push(r);
                continue;
            }
            match self.hpc.submit_task_avoiding(1, task_runtime, &[]) {
                Some(p) => {
                    self.failovers += 1;
                    self.timeline.push(Event::FailoverTriggered {
                        t_s: self.now_s(),
                        from_site: r.from_site,
                        to_site: Some(p.site.clone()),
                    });
                    self.in_flight.push(InFlightCfd {
                        pending: r.pending,
                        site: p.site,
                        finishes_at: self.now_s() + p.expected_completion_s,
                        attempts: r.attempts,
                    });
                }
                None => {
                    // Every site still unreachable: back off harder.
                    self.timeline.push(Event::FailoverTriggered {
                        t_s: self.now_s(),
                        from_site: r.from_site.clone(),
                        to_site: None,
                    });
                    waiting.push(RetryCfd {
                        next_try_s: self.now_s() + Self::backoff_s(r.attempts),
                        attempts: r.attempts + 1,
                        ..r
                    });
                }
            }
        }
        self.retries = waiting;
    }

    fn service_completions(&mut self) {
        let now = self.now_s();
        let mut done: Vec<InFlightCfd> = Vec::new();
        let mut running = Vec::new();
        for f in self.in_flight.drain(..) {
            if f.finishes_at <= now {
                done.push(f);
            } else {
                running.push(f);
            }
        }
        self.in_flight = running;
        done.sort_by(|a, b| a.finishes_at.total_cmp(&b.finishes_at));
        for f in done {
            self.cfd_completed += 1;
            if f.attempts > 0 {
                self.cfd_recovered += 1;
            }
            let site = f.site;
            self.execute_cfd(f.pending, f.finishes_at, &site, f.attempts);
        }
    }

    /// Feed this cycle's measurements into the registry, advance the
    /// sliding window, and let the SLO watchdog judge it. Breach and
    /// recovery edges land on the timeline, in the flight recorder, and
    /// (when a `blackbox_dir` is configured) on disk as bundles; the
    /// resulting degradation request feeds [`Self::update_degradation`].
    fn observe_cycle(&mut self, transfer_latency_ms: f64) {
        let now_s = self.now_s();
        let Some(o) = &mut self.obs else { return };
        o.cycle_transfer_ms.record(transfer_latency_ms);
        o.gateway_backlog.set(self.gateway.backlog() as f64);
        let dropped = self.gateway.dropped();
        let delivered = self.gateway.delivered();
        o.gateway_dropped
            .add(dropped.saturating_sub(self.prev_dropped));
        o.gateway_delivered
            .add(delivered.saturating_sub(self.prev_delivered));
        self.prev_dropped = dropped;
        self.prev_delivered = delivered;
        let Some(reg) = self.config.obs.registry() else {
            return;
        };
        o.window.tick(reg, now_s);
        let events = o.watchdog.evaluate(now_s, &o.window.view());
        self.slo_degradation = o.watchdog.degradation_target();
        for ev in events {
            let breached = ev.kind == SloEventKind::Breached;
            if let Some(o) = &self.obs {
                if breached {
                    o.slo_breaches.inc();
                } else {
                    o.slo_recoveries.inc();
                }
            }
            if let Some(rec) = self.config.obs.recorder() {
                rec.note(
                    secs_to_us(now_s),
                    format!(
                        "slo {}: {} (value {:.3} vs {:.3}, window {:.0}..{:.0}s)",
                        if breached { "breached" } else { "recovered" },
                        ev.slo,
                        ev.value,
                        ev.threshold,
                        ev.window_from_s,
                        ev.window_to_s,
                    ),
                );
            }
            self.timeline.push(if breached {
                Event::SloBreached {
                    t_s: now_s,
                    slo: ev.slo.clone(),
                    value: ev.value,
                    threshold: ev.threshold,
                }
            } else {
                Event::SloRecovered {
                    t_s: now_s,
                    slo: ev.slo.clone(),
                    value: ev.value,
                    threshold: ev.threshold,
                }
            });
            let reason = format!(
                "slo-{}: {}",
                if breached { "breach" } else { "recovery" },
                ev.slo
            );
            self.dump_blackbox(&reason);
        }
    }

    /// Dump a black-box bundle if a `blackbox_dir` is configured and the
    /// observability layer is live; failures to write are swallowed (the
    /// black box must never take down the loop it is diagnosing).
    fn dump_blackbox(&mut self, reason: &str) {
        let Some(dir) = &self.config.blackbox_dir else {
            return;
        };
        let Some(rec) = self.config.obs.recorder() else {
            return;
        };
        let snapshot = self.config.obs.registry().map(|r| r.snapshot());
        let breached = self
            .obs
            .as_ref()
            .map(|o| o.watchdog.breached().join("; "))
            .unwrap_or_default();
        let ctx = BundleContext {
            reason: reason.to_string(),
            t_s: self.now_s(),
            seed: self.config.seed,
            context: vec![
                ("active_faults".into(), self.faults.describe_active()),
                ("degradation_level".into(), self.degradation.to_string()),
                ("breached_slos".into(), breached),
                ("gateway_backlog".into(), self.gateway.backlog().to_string()),
            ],
            profile: self.config.obs.profiler().map(|p| p.snapshot()),
            critical: self.last_critical.clone(),
        };
        if let Ok(path) = dump_bundle(dir, rec, snapshot.as_ref(), &ctx) {
            self.bundles.push(path);
        }
    }

    /// Degradation ladder: level 1 once the loop runs ~2 cycles behind
    /// (or a CFD task waits on failover), level 2 once it is badly
    /// behind. The measured side raises it further: the ladder runs at
    /// the max of the backlog level and whatever the active SLO breaches
    /// request, so a latency collapse that creates *no* backlog (a RAN
    /// fade: every record still delivers, slowly) still degrades the CFD.
    fn update_degradation(&mut self, records_per_cycle: usize) {
        let cycles_behind = self.gateway.backlog() / records_per_cycle.max(1);
        let backlog_level = if cycles_behind >= 6 {
            2
        } else if cycles_behind >= 2 || !self.retries.is_empty() {
            1
        } else {
            0
        };
        let level = backlog_level.max(self.slo_degradation);
        if level != self.degradation {
            self.degradation = level;
            if let Some(o) = &self.obs {
                o.degradation_transitions.inc();
                o.degradation_level.set(f64::from(level));
            }
            if let Some(rec) = self.config.obs.recorder() {
                rec.note(
                    secs_to_us(self.now_s()),
                    format!(
                        "degradation -> level {level} (backlog level {backlog_level}, slo level {})",
                        self.slo_degradation
                    ),
                );
            }
            self.timeline.push(Event::DegradationChanged {
                t_s: self.now_s(),
                level,
            });
        }
        if level > 0 {
            self.degraded_cycles += 1;
        }
    }

    /// CFD resolution for a run triggered now: full resolution at level 0,
    /// 3/4-per-axis (≈42% of the cells) once degraded.
    fn effective_resolution(&self) -> ([usize; 3], usize) {
        if self.degradation >= 1 {
            let c = self.config.cfd_cells;
            (
                [
                    (c[0] * 3 / 4).max(4),
                    (c[1] * 3 / 4).max(4),
                    (c[2] * 3 / 4).max(3),
                ],
                (self.config.cfd_steps * 3 / 4).max(10),
            )
        } else {
            (self.config.cfd_cells, self.config.cfd_steps)
        }
    }

    /// An impairment episode runs from the first cycle where the loop is
    /// visibly hurt (route down, telemetry parked, or a CFD task waiting
    /// on failover) until everything is clean again.
    fn track_impairment(&mut self) {
        let impaired = self.route_down
            || self.gateway_cell_partitioned
            || self.gateway.backlog() > 0
            || !self.retries.is_empty();
        match (self.impaired_since, impaired) {
            (None, true) => self.impaired_since = Some(self.now_s()),
            (Some(start), false) => {
                self.impairment_episodes += 1;
                self.impairment_total_s += self.now_s() - start;
                self.impaired_since = None;
            }
            _ => {}
        }
    }

    fn run_change_detection(
        &mut self,
        records: &[TelemetryRecord],
        repo_seq: u64,
        transfer_ms: f64,
    ) -> Result<(), FabricError> {
        // Build the two windows from the repository's wind log and feed
        // them through the deployed Laminar change-detection graph — the
        // program §3.7 runs at UCSB on a 30-minute duty cycle.
        let window = self.config.detector.window;
        let Some((prev, recent)) = latest_windows(&self.gateway.repo, WIND_LOG, window)? else {
            return Ok(());
        };
        // Votes are recomputed for the timeline detail (the Laminar node
        // returns only the arbitration outcome, as in the paper).
        let vote = self.config.detector.evaluate_windows(&prev, &recent);
        self.detect_epoch += 1;
        let epoch = self.detect_epoch;
        self.laminar
            .inject("prev_window", epoch, Value::F64Vec(prev))?;
        self.laminar
            .inject("recent_window", epoch, Value::F64Vec(recent))?;
        let changed = self
            .laminar
            .read("detect", epoch)?
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        debug_assert_eq!(changed, vote.changed, "Laminar and direct paths agree");
        self.detections += 1;
        self.wind_seq_at_last_detect = repo_seq;
        // Inflation: how long the duty cycle sat deferred behind a
        // partition before this check could finally run (0 on a healthy
        // link).
        let inflation_s = self
            .deferred_check_since
            .take()
            .map(|since| (self.now_s() - since).max(0.0))
            .unwrap_or(0.0);
        self.detection_inflation_sum_s += inflation_s;
        self.timeline.push(Event::ChangeChecked {
            t_s: self.now_s(),
            changed,
            votes: vote.votes,
        });
        if !changed {
            return Ok(());
        }
        // Trigger: Eqs. (1)-(4), then a CFD task sized to the telemetry
        // volume of one detection window, placed at the best reachable
        // site. The degradation ladder decides the solve resolution now,
        // at trigger time.
        let data_bytes = (records.len() * TelemetryRecord::WIRE_SIZE * DETECT_EVERY_REPORTS) as f64;
        let task_runtime = self.config.perf.total_time_s(self.config.cfd_cores);
        let Some(bc) = self.net.boundary_conditions(records) else {
            return Ok(());
        };
        let (cells, steps) = self.effective_resolution();
        // Open the closed-loop trace: the transfer that carried the
        // triggering window, then the detection that fired. The CFD
        // stages chain onto the detection span when the run completes.
        let trace = self.config.obs.tracer().map(|tr| {
            let trace = tr.new_trace();
            let transfer_end_s = self.now_s() + transfer_ms / 1e3;
            let transfer = tr.record_sim_s(
                trace,
                None,
                "telemetry.transfer",
                self.now_s(),
                transfer_end_s,
                vec![("records".into(), records.len().to_string())],
            );
            let detect = tr.record_sim_s(
                trace,
                Some(transfer),
                "change.detection",
                transfer_end_s,
                transfer_end_s + inflation_s,
                vec![
                    ("votes".into(), vote.votes.to_string()),
                    ("deferred_s".into(), format!("{inflation_s:.0}")),
                ],
            );
            (trace, detect)
        });
        let pending = PendingCfd {
            trigger_t_s: self.now_s(),
            bc,
            interior: self.interior_measurements(records),
            cells,
            steps,
            trace,
        };
        self.cfd_triggered += 1;
        match self
            .hpc
            .submit_task_with_data(1, task_runtime, data_bytes, &[])
        {
            Some((placement, decision)) => {
                self.timeline.push(Event::PilotEvaluated {
                    t_s: self.now_s(),
                    n_required: decision.n_required,
                    n_available: decision.n_available,
                    submitted: decision.submitted.is_some(),
                });
                self.in_flight.push(InFlightCfd {
                    pending,
                    site: placement.site,
                    finishes_at: self.now_s() + placement.expected_completion_s,
                    attempts: 0,
                });
            }
            None => {
                // Every site offline at trigger time: park the task in
                // the failover queue instead of dropping the trigger.
                self.retries.push(RetryCfd {
                    pending,
                    from_site: self.config.site.name.clone(),
                    attempts: 1,
                    next_try_s: self.now_s() + Self::backoff_s(0),
                });
            }
        }
        Ok(())
    }

    fn interior_measurements(&self, records: &[TelemetryRecord]) -> Vec<Measurement> {
        records
            .iter()
            .filter_map(|r| {
                let (x, y, interior) = self.net.station_position(r.station_id)?;
                if !interior {
                    return None;
                }
                Some(Measurement {
                    x,
                    y,
                    z: 4.0,
                    wind_ms: r.wind_speed_ms,
                })
            })
            .collect()
    }

    fn execute_cfd(&mut self, pending: PendingCfd, finished_at: f64, site: &str, attempts: u32) {
        // Predicted field: always intact-screen boundary conditions — the
        // twin detects breaches as measurement/model divergence.
        let spec = DomainSpec::cups_default().with_cells(
            pending.cells[0],
            pending.cells[1],
            pending.cells[2],
        );
        let mesh = Mesh::generate(&spec);
        let bc = BoundarySpec::intact(
            pending.bc.wind_speed_ms,
            pending.bc.wind_dir_deg,
            pending.bc.ambient_temp_c,
        );
        let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
        sim.set_obs(&self.config.obs);
        sim.run(pending.steps);
        let predicted_wind = sim.mean_interior_wind();
        let model_runtime = self.config.perf.total_time_s(self.config.cfd_cores);
        let window_s = REPORT_INTERVAL_S * DETECT_EVERY_REPORTS as f64;
        // Close out the trace's HPC stages: expected completion minus the
        // modelled runtime is queue wait masked (or not) by warm pilots.
        let return_parent = self.config.obs.tracer().and_then(|tr| {
            let (trace, detect) = pending.trace?;
            let solve_start = (finished_at - model_runtime).max(pending.trigger_t_s);
            let qm = tr.record_sim_s(
                trace,
                Some(detect),
                "hpc.queue_mask",
                pending.trigger_t_s,
                solve_start,
                vec![
                    ("site".into(), site.to_string()),
                    ("attempts".into(), attempts.to_string()),
                ],
            );
            let cfd = tr.record_sim_s(
                trace,
                Some(qm),
                "cfd.solve",
                solve_start,
                finished_at,
                vec![
                    (
                        "cells".into(),
                        format!(
                            "{}x{}x{}",
                            pending.cells[0], pending.cells[1], pending.cells[2]
                        ),
                    ),
                    ("steps".into(), pending.steps.to_string()),
                ],
            );
            Some((trace, cfd))
        });
        self.timeline.push(Event::CfdCompleted {
            t_s: finished_at,
            model_runtime_s: model_runtime,
            predicted_interior_wind: predicted_wind,
            validity_s: (window_s - model_runtime).max(0.0),
        });
        // Return the result summary to the site operator over the 5G
        // downlink (breach status is refined below; the operator gets the
        // headline numbers immediately). At degradation level 2 this
        // non-critical return is skipped to shed load.
        if self.degradation < 2 {
            if let Ok(latency_ms) = self.results_return.deliver(&ResultSummary {
                t_s: finished_at,
                predicted_wind_ms: predicted_wind,
                validity_s: (window_s - model_runtime).max(0.0),
                breach_suspected: false,
            }) {
                if let (Some(tr), Some((trace, cfd))) = (self.config.obs.tracer(), return_parent) {
                    tr.record_sim_s(
                        trace,
                        Some(cfd),
                        "results.return",
                        finished_at,
                        finished_at + latency_ms / 1e3,
                        Vec::new(),
                    );
                }
                self.timeline.push(Event::ResultsReturned {
                    t_s: finished_at,
                    latency_ms,
                });
            }
        }
        // Twin comparison with first-run calibration.
        // Feed the back-tester with the raw (predicted, measured) pair so
        // calibration drift is observable over time (§2's back-testing).
        if !pending.interior.is_empty() {
            let mean_meas = pending.interior.iter().map(|m| m.wind_ms).sum::<f64>()
                / pending.interior.len() as f64;
            self.backtester.record(CalibrationSample {
                t_s: finished_at,
                predicted_ms: predicted_wind,
                measured_ms: mean_meas,
            });
        }
        let cal = self.calibration;
        let measurements: Vec<Measurement> = match cal {
            None => {
                // Calibrate: align predicted with measured means, assume
                // the screen intact on the first run.
                let mean_meas = pending.interior.iter().map(|m| m.wind_ms).sum::<f64>()
                    / pending.interior.len().max(1) as f64;
                let mean_pred = predicted_wind.max(1e-9);
                self.calibration = Some(mean_meas / mean_pred);
                return;
            }
            Some(c) => pending
                .interior
                .iter()
                .map(|m| Measurement {
                    wind_ms: m.wind_ms / c.max(1e-9),
                    ..*m
                })
                .collect(),
        };
        // Candidate breach sites: every panel centre of every wall.
        let facility = &self.net.facility;
        let candidates: Vec<(f64, f64)> = xg_sensors::facility::Wall::all()
            .into_iter()
            .flat_map(|wall| (0..facility.panels_per_wall).map(move |p| (wall, p)))
            .map(|(wall, p)| facility.panel_center(wall, p))
            .collect();
        // Intervention advisory from this CFD result (§5 future work 3).
        if let Some(state) = self.net.current_state() {
            let conditions = SiteConditions {
                ambient_temp_c: state.temp_c,
                // Simple overnight forecast: diurnal trough ~9°C below the
                // current reading.
                forecast_min_temp_c: state.temp_c - 9.0,
                rel_humidity: state.rel_humidity,
            };
            for advice in self.advisor.advise(&sim, &conditions) {
                let summary = match advice {
                    Intervention::FrostProtection {
                        predicted_canopy_min_c,
                        lead_s,
                    } => format!(
                        "frost protection: canopy min {predicted_canopy_min_c:.1} C, start {:.0} min early",
                        lead_s / 60.0
                    ),
                    Intervention::SprayWindow {
                        interior_wind_ms, ..
                    } => format!("spray window open (canopy wind {interior_wind_ms:.2} m/s)"),
                    Intervention::SprayHold { reason } => format!("spray hold: {reason}"),
                };
                self.timeline.push(Event::AdvisoryIssued {
                    t_s: finished_at,
                    summary,
                });
            }
        }
        if let Some(report) =
            self.config
                .twin
                .compare_with_candidates(&sim, &measurements, &candidates)
        {
            self.timeline.push(Event::TwinCompared {
                t_s: finished_at,
                max_residual_ms: report.max_residual_ms,
                breach_suspected: report.breach_suspected,
            });
            if let Some(region) = report.suspect_region {
                let robot_report =
                    self.robot
                        .dispatch_planned(region, &self.net.facility, &self.planner);
                self.timeline.push(Event::RobotDispatched {
                    t_s: finished_at + robot_report.mission_s,
                    mission_s: robot_report.mission_s,
                    confirmed: robot_report.breach_confirmed,
                });
            }
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
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
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
            // Keep CFD out of the way; this test is about the 5G path.
            detector: ChangeDetector::default(),
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
        assert!(fab.timeline().failovers() >= 1);
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
        assert!(fab.timeline().slo_breaches() >= 1);
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
        fab.run_cycles(24).unwrap();
        let rel = fab.reliability_report();
        // Storage/loss faults delay but must not lose buffered telemetry.
        assert!(rel.lossless(), "{rel}");
        assert!(fab.timeline().fault_activations() >= 5);
    }
}
