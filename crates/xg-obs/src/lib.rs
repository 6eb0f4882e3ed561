//! # xg-obs — cross-layer observability for the xGFabric reproduction
//!
//! The paper's central quantitative claim (§4.4) is an end-to-end latency
//! *budget*: a 300 s telemetry duty cycle, ~200 ms transfer, a ~7-minute
//! CFD solve, and HPC queue waits masked by warm pilot jobs. This crate
//! provides the instrumentation layer that lets the rest of the workspace
//! *measure* that budget from the running fabric instead of asserting it
//! from model parameters:
//!
//! * `metrics` — a [`MetricsRegistry`] of counters, gauges, and
//!   log-linear [`Histogram`]s with a bounded relative error, mergeable
//!   by bucket addition, answering p50/p90/p99/max quantile queries.
//! * [`span`] — causal [`Tracer`]/[`SpanRecord`] tracing with parent
//!   links. Spans carry a [`ClockDomain`] so discrete-event layers
//!   (xg-hpc, xg-net, the fault windows) record *simulated* time while
//!   compute layers (xg-cfd sweeps) record wall time; one trace composes
//!   a full closed-loop cycle (sensor reading → gateway drain → CSPOT
//!   append → Laminar fire → pilot dispatch → CFD solve → results
//!   return).
//! * [`clock`] — the sim/wall [`ClockDomain`] tag and the process-epoch
//!   wall readers behind those domains.
//! * `export` — JSONL trace dump, Prometheus-style text snapshot, and
//!   the human-readable latency-budget table regenerated by the
//!   `latency_budget` bench binary.
//!
//! Instrumented components hold an [`Obs`] handle. The handle is
//! `None`-backed when observability is disabled (the default), so the
//! hot-path cost of an uninstrumented run is a branch on an `Option`;
//! the cost of switching it on is measured by the repo benchmark
//! (`harness.trace_overhead_pct`, `xg-obs.*` — `benchmark/README.md`).
//!
//! ```
//! use xg_obs::Obs;
//!
//! let obs = Obs::enabled();
//! if let Some(reg) = obs.registry() {
//!     reg.counter("cycles").inc();
//!     reg.histogram("latency_ms").record(3.2);
//! }
//! let snap = obs.registry().unwrap().snapshot();
//! assert_eq!(snap.counters["cycles"], 1);
//! ```

// Non-test library code must thread typed errors instead of panicking.
// These lints are the gate (CI runs clippy with `-D warnings`); a site
// that must abort carries `#[expect(clippy::expect_used, reason = …)]`.
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod clock;
pub mod critical;
mod export;
mod metrics;
#[cfg(test)]
mod oracle;
mod profile;
pub mod recorder;
pub mod slo;
pub mod span;
pub mod window;

pub use clock::ClockDomain;
pub use critical::{extract_critical, extract_critical_into, render_critical, CriticalPath};
pub use export::{
    budget_table, parse_spans_jsonl, prometheus_text, render_budget_table, spans_to_jsonl,
    BudgetRow,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{render_profile, ProfNode, ProfScope, ProfileNode, ProfileSnapshot, Profiler};
pub use recorder::FlightRecorder;
pub use span::{SpanId, SpanRecord, TraceId, Tracer};

use std::sync::Arc;

/// Entries the black box retains by default (~8k spans + notes covers
/// dozens of closed-loop cycles at the fabric's span rate).
pub(crate) const DEFAULT_RECORDER_CAPACITY: usize = 8192;

/// Everything an instrumented component needs, behind one allocation.
#[derive(Debug)]
pub(crate) struct ObsCore {
    registry: MetricsRegistry,
    tracer: Tracer,
    recorder: Arc<FlightRecorder>,
    profiler: Profiler,
}

/// A cheap, cloneable observability handle.
///
/// Disabled by default: a disabled handle is a `None` and every accessor
/// returns `None`, so call-sites reduce to `if let Some(..)` branches.
/// Clone freely — enabled handles share one registry and tracer.
#[derive(Clone, Debug, Default)]
pub struct Obs(Option<Arc<ObsCore>>);

impl Obs {
    /// A handle that records nothing (the default).
    pub fn disabled() -> Self {
        Obs(None)
    }

    /// A live handle with a fresh registry, tracer, and flight recorder;
    /// the tracer forwards every span into the recorder's bounded ring.
    pub fn enabled() -> Self {
        let recorder = Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY));
        Obs(Some(Arc::new(ObsCore {
            registry: MetricsRegistry::new(),
            tracer: Tracer::with_sink(Arc::clone(&recorder)),
            recorder,
            profiler: Profiler::new(),
        })))
    }

    /// Enabled iff the `XG_OBS` environment variable opts in (`1`,
    /// `true`, `on`, `yes`; anything else — or unset — is disabled).
    /// Every bench binary uses this uniformly.
    pub fn from_env() -> Self {
        Obs::from_env_or(false)
    }

    /// Like [`Obs::from_env`], but with an explicit default when `XG_OBS`
    /// is unset (for binaries whose whole point is the instrumentation).
    /// `XG_OBS=0`/`false`/`off`/`no` always disables.
    pub fn from_env_or(default_on: bool) -> Self {
        let on = match std::env::var("XG_OBS") {
            Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"),
            Err(_) => default_on,
        };
        if on {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The metrics registry, if enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.0.as_deref().map(|c| &c.registry)
    }

    /// The span tracer, if enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.0.as_deref().map(|c| &c.tracer)
    }

    /// The black-box flight recorder, if enabled.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.0.as_deref().map(|c| &c.recorder)
    }

    /// The hierarchical wall-time profiler, if enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.0.as_deref().map(|c| &c.profiler)
    }

    /// `"on"` / `"off"`, for the bench binaries' header line.
    pub fn status(&self) -> &'static str {
        if self.is_enabled() {
            "on"
        } else {
            "off"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_default() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        assert!(obs.tracer().is_none());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let other = obs.clone();
        obs.registry().unwrap().counter("c").add(3);
        assert_eq!(other.registry().unwrap().counter("c").get(), 3);
    }

    #[test]
    fn enabled_handle_feeds_the_black_box() {
        let obs = Obs::enabled();
        assert_eq!(obs.status(), "on");
        let t = obs.tracer().unwrap();
        let tr = t.new_trace();
        t.record_sim_s(tr, None, "cycle", 0.0, 1.0, vec![]);
        assert_eq!(obs.recorder().unwrap().len(), 1);
        assert_eq!(Obs::disabled().status(), "off");
    }

    /// Four threads record through one handle into every store — the
    /// registry's get-or-create, a histogram, the profiler, the tracer
    /// and the recorder behind it — and every total comes out exact.
    #[test]
    fn concurrent_recording_keeps_exact_totals() {
        const THREADS: u64 = 4;
        const EACH: u64 = 500;
        let obs = Obs::enabled();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let obs = &obs;
                s.spawn(move || {
                    let (reg, prof) = (obs.registry().unwrap(), obs.profiler().unwrap());
                    let tracer = obs.tracer().unwrap();
                    let own = format!("thread.{t}");
                    for i in 1..=EACH {
                        reg.counter("shared").inc();
                        reg.counter(&own).inc();
                        reg.histogram("lat").record((t * EACH + i) as f64);
                        prof.record_at("fleet.step/cell", i);
                        prof.scope_under("fleet.step", "guard").finish();
                        tracer.record_sim_s(tracer.new_trace(), None, "s", 0.0, 1.0, vec![]);
                        obs.recorder().unwrap().note(i, "n");
                    }
                });
            }
        });
        let n = THREADS * EACH;
        let snap = obs.registry().unwrap().snapshot();
        assert_eq!(snap.counters["shared"], n);
        for t in 0..THREADS {
            assert_eq!(snap.counters[&format!("thread.{t}")], EACH);
        }
        let lat = &snap.histograms["lat"];
        assert_eq!(lat.count(), n);
        // Integer samples: the sum is exact in any interleaving.
        assert_eq!(lat.sum(), (n * (n + 1) / 2) as f64);
        assert_eq!((lat.min(), lat.max()), (Some(1.0), Some(n as f64)));
        let prof = obs.profiler().unwrap().snapshot();
        let (cell, guard) = (
            &prof.nodes["fleet.step/cell"],
            &prof.nodes["fleet.step/guard"],
        );
        assert_eq!((cell.calls, guard.calls), (n, n));
        assert_eq!(cell.total_ns, THREADS * EACH * (EACH + 1) / 2);
        assert_eq!(cell.hist.count(), n);
        assert_eq!(
            prof.nodes["fleet.step"].child_ns,
            cell.total_ns + guard.total_ns
        );
        assert_eq!(obs.tracer().unwrap().len() as u64, n);
        let rec = obs.recorder().unwrap();
        assert_eq!(rec.dropped(), 0);
        let seqs: Vec<u64> = rec.entries().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (0..2 * n).collect::<Vec<u64>>());
    }
}
