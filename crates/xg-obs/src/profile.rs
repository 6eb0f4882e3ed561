//! Hierarchical wall-time attribution: who ate the cycle budget?
//!
//! The span tracer answers *when* a stage ran; this profiler answers
//! *where the time went*, cumulatively, with hot-path-friendly cost. A
//! [`Profiler`] holds a tree of attribution nodes keyed by slash-joined
//! paths (`"cycle/ran.probe"`); each node carries a call count, total
//! and child-attributed nanoseconds (so self-time falls out as
//! `total − child`), and a log-linear duration histogram with the same
//! bounded relative error as [`crate::metrics::Histogram`].
//!
//! Recording takes one mutex: a scoped-guard exit is one map update
//! under it. Nodes accumulate by integer addition, so durations recorded
//! from several threads sum to the same integers in any order, which
//! keeps serial and parallel fleet attribution bitwise equal.
//!
//! Three recording surfaces:
//!
//! * [`Profiler::scope`] / [`Profiler::scope_under`] — wall-clock scoped
//!   guards for hot paths (fleet cell stepping, CFD sweeps, the RIC
//!   period, CSPOT remote appends);
//! * [`Profiler::record_at`] — explicit durations for deterministic
//!   (sim-domain) attribution, where bitwise serial/parallel equality
//!   must hold;
//! * [`Profiler::record_trace`] — ingest a completed span DAG (one
//!   closed-loop cycle), deriving each span's path from its parent
//!   chain; this is how the orchestrator's per-cycle spans become
//!   attribution without double timing.

use crate::clock::wall_now_ns;
use crate::metrics::{Histogram, HistogramSnapshot};
use crate::span::{SpanId, SpanRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Path separator joining attribution-tree levels.
pub const PATH_SEP: char = '/';

/// Durations up to this (1 000 s) are bucketed densely: 1 383 buckets at
/// 1 % accuracy, one 11 KB array per node, so how many
/// allocations a profiled run makes does not depend on its timing noise.
const NODE_DENSE_MAX_NS: f64 = 1e12;

/// One attribution node's mutable state.
#[derive(Debug)]
struct NodeCore {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
    hist: Histogram,
}

impl NodeCore {
    fn new() -> Self {
        NodeCore {
            calls: 0,
            total_ns: 0,
            child_ns: 0,
            hist: Histogram::with_dense_range(1.0, NODE_DENSE_MAX_NS),
        }
    }
}

/// A hierarchical wall-time profiler.
///
/// Cheap enough for hot paths: one mutex-guarded `BTreeMap` update per
/// guard exit, no allocation when the node already exists.
#[derive(Debug, Default)]
pub struct Profiler {
    nodes: Mutex<BTreeMap<String, NodeCore>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Open a root scope; time is attributed when the guard drops.
    pub fn scope(&self, name: &str) -> ProfScope<'_> {
        ProfScope {
            prof: self,
            path: sanitize(name),
            start_ns: wall_now_ns(),
        }
    }

    /// Open a scope under an explicit parent path — the cross-thread
    /// form: a fleet worker attributes its cell work under the path of
    /// a scope opened on the coordinating thread.
    pub fn scope_under(&self, parent: &str, name: &str) -> ProfScope<'_> {
        ProfScope {
            prof: self,
            path: join(parent, name),
            start_ns: wall_now_ns(),
        }
    }

    /// Record an explicit duration at `path` (nanoseconds). The parent
    /// node (everything before the last `/`) is charged `dur_ns` of
    /// child time, so self-time stays consistent with guard recording.
    /// Integer addition into ordered maps makes this bitwise
    /// order-independent — the deterministic-attribution surface.
    pub fn record_at(&self, path: &str, dur_ns: u64) {
        self.record_inner(path, dur_ns);
    }

    /// Ingest a completed span DAG: each span's attribution path is its
    /// ancestor chain's names joined by `/`, its duration the span's
    /// microsecond interval. Spans whose parent is absent root at their
    /// own name. Pass spans of a single clock domain — mixing sim and
    /// wall durations in one tree makes the totals meaningless.
    pub fn record_trace(&self, spans: &[SpanRecord]) {
        let by_id: BTreeMap<(u64, SpanId), &SpanRecord> =
            spans.iter().map(|s| ((s.trace, s.id), s)).collect();
        let mut paths: BTreeMap<(u64, SpanId), String> = BTreeMap::new();
        for s in spans {
            let path = trace_path(s, &by_id, &mut paths);
            let dur_us = s.end_us.saturating_sub(s.start_us);
            self.record_inner(&path, dur_us.saturating_mul(1_000));
        }
    }

    fn record_inner(&self, path: &str, dur_ns: u64) {
        self.with_node(path, |n| {
            n.calls += 1;
            n.total_ns += dur_ns;
            n.hist.record(dur_ns as f64);
        });
        if let Some((parent, _)) = path.rsplit_once(PATH_SEP) {
            self.with_node(parent, |n| n.child_ns += dur_ns);
        }
    }

    fn with_node(&self, path: &str, f: impl FnOnce(&mut NodeCore)) {
        let mut map = self.nodes.lock();
        match map.get_mut(path) {
            Some(n) => f(n),
            None => {
                let mut n = NodeCore::new();
                f(&mut n);
                map.insert(path.to_string(), n);
            }
        }
    }

    /// A point-in-time snapshot of the attribution tree.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let map = self.nodes.lock();
        let nodes = map.iter().map(|(path, core)| {
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

/// Compute (and memoize) the ancestor-chain path of one span.
fn trace_path(
    span: &SpanRecord,
    by_id: &BTreeMap<(u64, SpanId), &SpanRecord>,
    paths: &mut BTreeMap<(u64, SpanId), String>,
) -> String {
    if let Some(p) = paths.get(&(span.trace, span.id)) {
        return p.clone();
    }
    let path = match span.parent.and_then(|p| by_id.get(&(span.trace, p))) {
        // A parent-cycle in malformed input would recurse forever; the
        // tracer hands out strictly increasing ids, so parent < child
        // holds for every well-formed DAG and depth bounds the walk.
        Some(parent) if parent.id < span.id => join(&trace_path(parent, by_id, paths), &span.name),
        _ => sanitize(&span.name),
    };
    paths.insert((span.trace, span.id), path.clone());
    path
}

fn sanitize(name: &str) -> String {
    if name.contains(PATH_SEP) {
        name.replace(PATH_SEP, "_")
    } else {
        name.to_string()
    }
}

fn join(parent: &str, name: &str) -> String {
    let mut s = String::with_capacity(parent.len() + 1 + name.len());
    s.push_str(parent);
    s.push(PATH_SEP);
    s.push_str(&sanitize(name));
    s
}

/// A scoped attribution guard; records wall time on drop (or
/// [`finish`](ProfScope::finish)).
#[derive(Debug)]
pub struct ProfScope<'a> {
    prof: &'a Profiler,
    path: String,
    start_ns: u64,
}

impl<'a> ProfScope<'a> {
    /// This scope's full attribution path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Close the scope now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        let dur = wall_now_ns().saturating_sub(self.start_ns);
        self.prof.record_inner(&self.path, dur);
    }
}

/// One node of a [`ProfileSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileNode {
    /// Times the scope was entered (or records ingested).
    pub calls: u64,
    /// Total nanoseconds attributed to this node.
    pub total_ns: u64,
    /// Nanoseconds attributed to this node's children.
    pub child_ns: u64,
    /// Duration distribution (nanoseconds, bounded relative error).
    pub hist: HistogramSnapshot,
}

impl ProfileNode {
    /// Time spent in this node itself, excluding children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// An immutable view of a [`Profiler`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileSnapshot {
    /// Attribution nodes by slash-joined path, sorted.
    pub nodes: BTreeMap<String, ProfileNode>,
}

impl ProfileSnapshot {
    /// Total self-time across all nodes (= total attributed time, since
    /// every nanosecond is self-time of exactly one node).
    pub fn total_self_ns(&self) -> u64 {
        self.nodes.values().map(ProfileNode::self_ns).sum()
    }

    /// Whether no time has been attributed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Render an attribution flame summary: one row per node, sorted by
/// self-time descending (the "who ate the budget" ordering).
pub fn render_profile(snap: &ProfileSnapshot) -> String {
    let mut rows: Vec<(&String, &ProfileNode)> = snap.nodes.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns().cmp(&a.1.self_ns()).then(a.0.cmp(b.0)));
    let total = snap.total_self_ns().max(1) as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "path", "calls", "self(ms)", "total(ms)", "p50(us)", "p99(us)", "self%"
    );
    for (path, n) in rows {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>12.3} {:>12.3} {:>12.1} {:>12.1} {:>5.1}%",
            path,
            n.calls,
            n.self_ns() as f64 / 1e6,
            n.total_ns as f64 / 1e6,
            n.hist.quantile(0.5).unwrap_or(0.0) / 1e3,
            n.hist.quantile(0.99).unwrap_or(0.0) / 1e3,
            n.self_ns() as f64 / total * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;

    #[test]
    fn scoped_guards_build_a_tree_with_self_and_child_time() {
        let prof = Profiler::new();
        {
            let _cycle = prof.scope("cycle");
            {
                let _probe = prof.scope_under("cycle", "ran.probe");
                std::hint::black_box(0);
            }
            prof.scope_under("cycle", "gateway.ship").finish();
        }
        let snap = prof.snapshot();
        let cycle = &snap.nodes["cycle"];
        assert_eq!(cycle.calls, 1);
        let probe = &snap.nodes["cycle/ran.probe"];
        assert_eq!(probe.calls, 1);
        assert!(cycle.total_ns >= cycle.child_ns);
        assert_eq!(
            cycle.child_ns,
            probe.total_ns + snap.nodes["cycle/gateway.ship"].total_ns
        );
        assert_eq!(cycle.self_ns(), cycle.total_ns - cycle.child_ns);
    }

    #[test]
    fn record_at_is_deterministic_and_charges_the_parent() {
        let a = Profiler::new();
        let b = Profiler::new();
        // Same records, different order: bitwise identical snapshots.
        for (path, ns) in [("step/cell", 5), ("step/cell", 7), ("step", 20)] {
            a.record_at(path, ns);
        }
        for (path, ns) in [("step", 20), ("step/cell", 7), ("step/cell", 5)] {
            b.record_at(path, ns);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.nodes["step"].child_ns, 12);
        assert_eq!(snap.nodes["step"].self_ns(), 8);
        assert_eq!(snap.nodes["step/cell"].calls, 2);
    }

    #[test]
    fn record_trace_derives_paths_from_parent_chains() {
        let spans = vec![
            SpanRecord {
                trace: 1,
                id: 1,
                parent: None,
                name: "cycle".into(),
                domain: ClockDomain::Wall,
                start_us: 0,
                end_us: 100,
                attrs: vec![],
            },
            SpanRecord {
                trace: 1,
                id: 2,
                parent: Some(1),
                name: "ran.probe".into(),
                domain: ClockDomain::Wall,
                start_us: 0,
                end_us: 60,
                attrs: vec![],
            },
            SpanRecord {
                trace: 1,
                id: 3,
                parent: Some(99), // evicted parent: roots at its own name
                name: "orphan".into(),
                domain: ClockDomain::Wall,
                start_us: 0,
                end_us: 5,
                attrs: vec![],
            },
        ];
        let prof = Profiler::new();
        prof.record_trace(&spans);
        let snap = prof.snapshot();
        assert_eq!(snap.nodes["cycle"].total_ns, 100_000);
        assert_eq!(snap.nodes["cycle"].child_ns, 60_000);
        assert_eq!(snap.nodes["cycle/ran.probe"].total_ns, 60_000);
        assert_eq!(snap.nodes["orphan"].total_ns, 5_000);
        assert_eq!(snap.total_self_ns(), 100_000 + 5_000);
    }

    /// Four threads exit guards into the one profiler tree; every call
    /// and its child time is kept.
    #[test]
    fn concurrent_guard_exits_stripe_without_loss() {
        let prof = std::sync::Arc::new(Profiler::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = std::sync::Arc::clone(&prof);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _g = p.scope_under("fleet.step", "cell");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker");
        }
        let snap = prof.snapshot();
        assert_eq!(snap.nodes["fleet.step/cell"].calls, 2000);
        assert_eq!(
            snap.nodes["fleet.step"].child_ns,
            snap.nodes["fleet.step/cell"].total_ns
        );
    }

    #[test]
    fn slashes_in_names_cannot_forge_hierarchy() {
        let prof = Profiler::new();
        prof.scope("a/b").finish();
        let snap = prof.snapshot();
        assert!(snap.nodes.contains_key("a_b"));
        assert!(!snap.nodes.contains_key("a/b"));
    }

    #[test]
    fn render_orders_by_self_time() {
        let prof = Profiler::new();
        prof.record_at("big", 9_000_000);
        prof.record_at("small", 1_000_000);
        let text = render_profile(&prof.snapshot());
        let big = text.find("big").expect("big row");
        let small = text.find("small").expect("small row");
        assert!(big < small, "self-time descending:\n{text}");
        assert!(text.contains("self%"));
    }
}
