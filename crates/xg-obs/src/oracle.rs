//! The retired string-keyed window and profiler, kept verbatim in
//! behaviour as test oracles: the handle-based [`crate::window`] and the
//! node-arena [`crate::profile`] must answer exactly as these do.

use crate::metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use crate::profile::{join, sanitize, ProfileNode, ProfileSnapshot, PATH_SEP};
use crate::span::{SpanId, SpanRecord};
use crate::window::WindowConfig;
use crate::Histogram;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One tick's worth of activity.
#[derive(Clone, Debug, Default)]
struct IntervalDelta {
    t_s: f64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A merged view of the last N intervals, by cloned name.
#[derive(Clone, Debug, Default)]
pub(crate) struct StringView {
    pub(crate) from_s: f64,
    pub(crate) to_s: f64,
    pub(crate) counters: BTreeMap<String, u64>,
    pub(crate) histograms: BTreeMap<String, HistogramSnapshot>,
}

impl StringView {
    pub(crate) fn delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub(crate) fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histograms.get(name)?.quantile(q)
    }

    pub(crate) fn hist_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map(|h| h.count()).unwrap_or(0)
    }
}

/// The string-keyed sliding window: snapshot the registry each tick,
/// diff against the previous snapshot, merge the ring on every view.
#[derive(Debug, Default)]
pub(crate) struct StringWindow {
    cfg: WindowConfig,
    prev: Option<MetricsSnapshot>,
    ring: VecDeque<IntervalDelta>,
    focus: Option<BTreeSet<String>>,
}

impl StringWindow {
    pub(crate) fn new(cfg: WindowConfig) -> Self {
        StringWindow {
            cfg,
            ..StringWindow::default()
        }
    }

    pub(crate) fn focus(&mut self, names: BTreeSet<String>) {
        self.focus = Some(names);
    }

    pub(crate) fn tick(&mut self, registry: &MetricsRegistry, t_s: f64) {
        let snap = match &self.focus {
            Some(names) => registry.snapshot_of(names),
            None => registry.snapshot(),
        };
        let mut delta = IntervalDelta {
            t_s,
            ..Default::default()
        };
        for (name, &v) in &snap.counters {
            let before = self
                .prev
                .as_ref()
                .and_then(|p| p.counters.get(name))
                .copied()
                .unwrap_or(0);
            delta
                .counters
                .insert(name.clone(), v.saturating_sub(before));
        }
        for (name, h) in &snap.histograms {
            let d = match self.prev.as_ref().and_then(|p| p.histograms.get(name)) {
                Some(before) => h.delta_since(before),
                None => h.clone(),
            };
            delta.histograms.insert(name.clone(), d);
        }
        self.ring.push_back(delta);
        while self.ring.len() > self.cfg.intervals.max(1) {
            self.ring.pop_front();
        }
        self.prev = Some(snap);
    }

    pub(crate) fn view(&self) -> StringView {
        let mut view = StringView {
            from_s: self.ring.front().map(|d| d.t_s).unwrap_or(0.0),
            to_s: self.ring.back().map(|d| d.t_s).unwrap_or(0.0),
            ..Default::default()
        };
        for d in &self.ring {
            for (name, &v) in &d.counters {
                *view.counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, h) in &d.histograms {
                view.histograms
                    .entry(name.clone())
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
        }
        view
    }
}

#[derive(Debug)]
struct NodeCore {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    hist: Histogram,
}

/// The string-keyed profiler: one `BTreeMap` entry per path, a path
/// string built per record, and `record_trace` rebuilding its maps per
/// call.
#[derive(Debug, Default)]
pub(crate) struct StringProfiler {
    nodes: BTreeMap<String, NodeCore>,
}

impl StringProfiler {
    pub(crate) fn record_at(&mut self, path: &str, dur_ns: u64) {
        self.with_node(path, |n| {
            n.calls += 1;
            n.total_ns += dur_ns;
            n.hist.record(dur_ns as f64);
        });
        if let Some((parent, _)) = path.rsplit_once(PATH_SEP) {
            self.with_node(parent, |n| n.child_ns += dur_ns);
        }
    }

    /// What a scope guard named `name` (under `parent`) records on exit.
    pub(crate) fn scope_exit(&mut self, parent: Option<&str>, name: &str, dur_ns: u64) {
        let path = match parent {
            Some(p) => join(p, name),
            None => sanitize(name),
        };
        self.record_at(&path, dur_ns);
    }

    pub(crate) fn record_trace(&mut self, spans: &[SpanRecord]) {
        let by_id: BTreeMap<(u64, SpanId), &SpanRecord> =
            spans.iter().map(|s| ((s.trace, s.id), s)).collect();
        let mut paths: BTreeMap<(u64, SpanId), String> = BTreeMap::new();
        for s in spans {
            let path = trace_path(s, &by_id, &mut paths);
            let dur_us = s.end_us.saturating_sub(s.start_us);
            self.record_at(&path, dur_us.saturating_mul(1_000));
        }
    }

    fn with_node(&mut self, path: &str, f: impl FnOnce(&mut NodeCore)) {
        let n = self
            .nodes
            .entry(path.to_string())
            .or_insert_with(|| NodeCore {
                calls: 0,
                total_ns: 0,
                child_ns: 0,
                hist: Histogram::with_dense_range(1.0, 1e12),
            });
        f(n);
    }

    pub(crate) fn snapshot(&self) -> ProfileSnapshot {
        let nodes = self.nodes.iter().map(|(path, core)| {
            let node = ProfileNode {
                calls: core.calls,
                total_ns: core.total_ns,
                child_ns: core.child_ns,
                hist: core.hist.snapshot(),
            };
            (path.clone(), node)
        });
        ProfileSnapshot {
            nodes: nodes.collect(),
        }
    }
}

fn trace_path(
    span: &SpanRecord,
    by_id: &BTreeMap<(u64, SpanId), &SpanRecord>,
    paths: &mut BTreeMap<(u64, SpanId), String>,
) -> String {
    if let Some(p) = paths.get(&(span.trace, span.id)) {
        return p.clone();
    }
    let path = match span.parent.and_then(|p| by_id.get(&(span.trace, p))) {
        Some(parent) if parent.id < span.id => join(&trace_path(parent, by_id, paths), &span.name),
        _ => sanitize(&span.name),
    };
    paths.insert((span.trace, span.id), path.clone());
    path
}
