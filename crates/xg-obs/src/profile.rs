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
//! Recording takes one mutex: a scoped-guard exit is one node update
//! under it. Nodes accumulate by integer addition, so durations recorded
//! from several threads sum to the same integers in any order, which
//! keeps serial and parallel fleet attribution bitwise equal.
//!
//! A path is resolved to its node once: the tree keeps its nodes in an
//! arena, finds a root or a full path through one sorted index, and
//! memoizes each (parent node, child name) pair on the parent, so a
//! record at a path the tree already holds allocates nothing.
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
use crate::span::{SpanId, SpanRecord, TraceId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Path separator joining attribution-tree levels.
pub(crate) const PATH_SEP: char = '/';

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

/// Where a node charges its child time.
#[derive(Clone, Copy, Debug)]
enum Parent {
    /// Not looked up yet (resolved on the node's first record).
    Unresolved,
    /// A root path: no `/` in it.
    Root,
    /// The node of the path before the last `/`.
    Node(usize),
}

#[derive(Debug)]
struct Node {
    path: String,
    /// Recorded into, or charged child time: only such nodes are in a
    /// snapshot, so resolving a [`ProfNode`] ahead of use changes none.
    touched: bool,
    parent: Parent,
    /// Memo of children found by name (each child's name is the tail of
    /// its path after this node's path and the separator).
    children: Vec<usize>,
    /// Where in `children` the next look-up starts: just past the last
    /// hit, so children asked for in a fixed order (a cycle's phases)
    /// are each found at the first compare.
    hint: usize,
    core: NodeCore,
}

/// The attribution tree behind the profiler's lock.
#[derive(Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    /// Node by full path; sorted, so snapshots need no sort.
    by_path: BTreeMap<String, usize>,
    /// Scratch of `record_trace`, kept to reuse its capacity: the spans'
    /// `(trace, id, index)` sorted, and each key's node once found.
    trace_keys: Vec<(TraceId, SpanId, usize)>,
    trace_nodes: Vec<Option<usize>>,
}

/// Whether `stored` (a path level) is `name` with separators replaced.
fn sanitized_eq(stored: &str, name: &str) -> bool {
    if !name.contains(PATH_SEP) {
        return stored == name;
    }
    stored.len() == name.len()
        && (stored.bytes().zip(name.bytes()))
            .all(|(a, b)| a == if b == PATH_SEP as u8 { b'_' } else { b })
}

impl Tree {
    /// The node at `path`, created (unrecorded) if absent.
    fn node(&mut self, path: &str) -> usize {
        if let Some(&i) = self.by_path.get(path) {
            return i;
        }
        self.insert(path.to_string(), Parent::Unresolved)
    }

    fn insert(&mut self, path: String, parent: Parent) -> usize {
        let i = self.nodes.len();
        self.by_path.insert(path.clone(), i);
        self.nodes.push(Node {
            path,
            touched: false,
            parent,
            children: Vec::new(),
            hint: 0,
            core: NodeCore::new(),
        });
        i
    }

    /// The root node of a scope name (`/` sanitized away).
    fn root(&mut self, name: &str) -> usize {
        if name.contains(PATH_SEP) {
            self.node(&sanitize(name))
        } else {
            self.node(name)
        }
    }

    /// The child of `parent` named `name` (`/` sanitized away).
    fn child(&mut self, parent: usize, name: &str) -> usize {
        let node = &self.nodes[parent];
        let (skip, kids) = (node.path.len() + 1, &node.children);
        let from = node.hint;
        let mut scan = (0..kids.len()).map(|k| (from + k) % kids.len());
        if let Some(k) = scan.find(|&k| sanitized_eq(&self.nodes[kids[k]].path[skip..], name)) {
            let c = kids[k];
            self.nodes[parent].hint = k + 1;
            return c;
        }
        let path = join(&self.nodes[parent].path, name);
        let c = match self.by_path.get(&path) {
            Some(&c) => c,
            None => self.insert(path, Parent::Node(parent)),
        };
        let kids = &mut self.nodes[parent].children;
        kids.push(c);
        self.nodes[parent].hint = kids.len();
        c
    }

    /// Attribute `dur_ns` to node `i` and its child time to its parent.
    fn record(&mut self, i: usize, dur_ns: u64) {
        self.nodes[i].touched = true;
        let core = &mut self.nodes[i].core;
        core.calls += 1;
        core.total_ns += dur_ns;
        core.hist.record_mut(dur_ns as f64);
        let parent = match self.nodes[i].parent {
            Parent::Unresolved => {
                let parent = match self.nodes[i].path.rsplit_once(PATH_SEP) {
                    Some((p, _)) => {
                        let p = p.to_string();
                        Parent::Node(self.node(&p))
                    }
                    None => Parent::Root,
                };
                self.nodes[i].parent = parent;
                parent
            }
            known => known,
        };
        if let Parent::Node(p) = parent {
            self.nodes[p].touched = true;
            self.nodes[p].core.child_ns += dur_ns;
        }
    }

    /// Where `record_trace` attributes `spans[i]`, whose key sits at `k`
    /// in `trace_keys`: the node of its ancestor chain's names. One path
    /// per `(trace, id)`, fixed by the first span of that key that asks.
    fn span_node(&mut self, spans: &[SpanRecord], i: usize, k: usize) -> usize {
        if let Some(n) = self.trace_nodes[k] {
            return n;
        }
        let s = &spans[i];
        let n = match s.parent.and_then(|p| self.key_pos(s.trace, p)) {
            // A parent-cycle in malformed input would recurse forever; the
            // tracer hands out strictly increasing ids, so parent < child
            // holds for every well-formed DAG and depth bounds the walk.
            Some(pk) if spans[self.trace_keys[pk].2].id < s.id => {
                let p = self.span_node(spans, self.trace_keys[pk].2, pk);
                self.child(p, &s.name)
            }
            _ => self.root(&s.name),
        };
        self.trace_nodes[k] = Some(n);
        n
    }

    /// Position of the last span keyed `(trace, id)` in `trace_keys`.
    fn key_pos(&self, trace: TraceId, id: SpanId) -> Option<usize> {
        let end = self
            .trace_keys
            .partition_point(|&(t, s, _)| (t, s) <= (trace, id));
        let last = end.checked_sub(1)?;
        let (t, s, _) = self.trace_keys[last];
        ((t, s) == (trace, id)).then_some(last)
    }
}

/// A profiler path resolved to its node once, so recording against it
/// looks nothing up. Valid with the profiler that resolved it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfNode(usize);

/// A hierarchical wall-time profiler.
///
/// Cheap enough for hot paths: one mutex-guarded node update per guard
/// exit, no allocation when the node already exists.
#[derive(Debug, Default)]
pub struct Profiler {
    tree: Mutex<Tree>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// The tree, locked. A poisoned lock is taken as it stands: a scope
    /// that drops while its thread unwinds still records.
    fn tree(&self) -> MutexGuard<'_, Tree> {
        self.tree.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a root scope; time is attributed when the guard drops.
    pub fn scope<'a>(&'a self, name: &'a str) -> ProfScope<'a> {
        ProfScope {
            prof: self,
            at: At::Root(name),
            start_ns: wall_now_ns(),
        }
    }

    /// Open a scope under an explicit parent path — the cross-thread
    /// form: a fleet worker attributes its cell work under the path of
    /// a scope opened on the coordinating thread.
    pub fn scope_under<'a>(&'a self, parent: &'a str, name: &'a str) -> ProfScope<'a> {
        ProfScope {
            prof: self,
            at: At::Under(parent, name),
            start_ns: wall_now_ns(),
        }
    }

    /// Resolve `path` (as [`record_at`](Self::record_at) takes it) once.
    /// The node enters snapshots on its first record.
    pub fn node(&self, path: &str) -> ProfNode {
        ProfNode(self.tree().node(path))
    }

    /// Resolve the child `name` of `parent` once, named as
    /// [`scope_under`](Self::scope_under) names it.
    pub fn child(&self, parent: ProfNode, name: &str) -> ProfNode {
        ProfNode(self.tree().child(parent.0, name))
    }

    /// [`record_at`](Self::record_at) a resolved node.
    pub fn record_node(&self, node: ProfNode, dur_ns: u64) {
        self.tree().record(node.0, dur_ns);
    }

    /// [`scope`](Self::scope) at a resolved node.
    pub fn scope_node(&self, node: ProfNode) -> ProfScope<'_> {
        ProfScope {
            prof: self,
            at: At::Node(node.0),
            start_ns: wall_now_ns(),
        }
    }

    /// Record an explicit duration at `path` (nanoseconds). The parent
    /// node (everything before the last `/`) is charged `dur_ns` of
    /// child time, so self-time stays consistent with guard recording.
    /// Integer addition into the tree makes this bitwise
    /// order-independent — the deterministic-attribution surface.
    pub fn record_at(&self, path: &str, dur_ns: u64) {
        let mut tree = self.tree();
        let i = tree.node(path);
        tree.record(i, dur_ns);
    }

    /// Ingest a completed span DAG: each span's attribution path is its
    /// ancestor chain's names joined by `/`, its duration the span's
    /// microsecond interval. Spans whose parent is absent root at their
    /// own name. Pass spans of a single clock domain — mixing sim and
    /// wall durations in one tree makes the totals meaningless.
    pub fn record_trace(&self, spans: &[SpanRecord]) {
        let mut tree = self.tree();
        let tree = &mut *tree;
        tree.trace_keys.clear();
        tree.trace_keys
            .extend(spans.iter().enumerate().map(|(i, s)| (s.trace, s.id, i)));
        // A tracer's spans come in key order: then span `i`'s key is the
        // `i`-th, with no sort and no search.
        let in_order = (tree.trace_keys.windows(2)).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
        if !in_order {
            tree.trace_keys.sort_unstable();
        }
        tree.trace_nodes.clear();
        tree.trace_nodes.resize(spans.len(), None);
        for (i, s) in spans.iter().enumerate() {
            let k = match in_order {
                true => Some(i),
                false => tree.key_pos(s.trace, s.id),
            };
            // Every span's own key is in `trace_keys`.
            let Some(k) = k else { continue };
            let n = tree.span_node(spans, i, k);
            let dur_us = s.end_us.saturating_sub(s.start_us);
            tree.record(n, dur_us.saturating_mul(1_000));
        }
    }

    /// A point-in-time snapshot of the attribution tree.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let tree = self.tree();
        let touched = tree.by_path.iter().filter(|&(_, &i)| tree.nodes[i].touched);
        let nodes = touched.map(|(path, &i)| {
            let core = &tree.nodes[i].core;
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

pub(crate) fn sanitize(name: &str) -> String {
    if name.contains(PATH_SEP) {
        name.replace(PATH_SEP, "_")
    } else {
        name.to_string()
    }
}

pub(crate) fn join(parent: &str, name: &str) -> String {
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
    at: At<'a>,
    start_ns: u64,
}

/// Where a scope attributes its time, resolved when it closes.
#[derive(Debug)]
enum At<'a> {
    Root(&'a str),
    Under(&'a str, &'a str),
    Node(usize),
}

impl ProfScope<'_> {
    /// Close the scope now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for ProfScope<'_> {
    fn drop(&mut self) {
        let dur = wall_now_ns().saturating_sub(self.start_ns);
        let mut tree = self.prof.tree();
        let i = match self.at {
            At::Root(name) => tree.root(name),
            At::Under(parent, name) => {
                let p = tree.node(parent);
                tree.child(p, name)
            }
            At::Node(i) => i,
        };
        tree.record(i, dur);
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
    use crate::oracle::StringProfiler;
    use xg_prop::prelude::*;

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

    const PATHS: [&str; 7] = ["a", "a/b", "a/b/c", "x/y", "cycle", "cycle/ran.probe", "z/"];
    const NAMES: [&str; 6] = ["cycle", "ran.probe", "a", "b", "odd/name", "c"];

    /// A random span list: unique ids, random traces, names (one with a
    /// separator) and parents, some absent and some newer than the child.
    fn spans() -> impl Strategy<Value = Vec<SpanRecord>> {
        let span = (
            1u64..3,
            0usize..NAMES.len(),
            0u64..12,
            0u64..5_000,
            0u64..40,
        );
        xg_prop::collection::vec(span, 0..10).prop_map(|raw| {
            let ids: Vec<u64> = (1..=raw.len() as u64).map(|i| i * 3).collect();
            raw.iter()
                .zip(&ids)
                .map(|(&(trace, name, parent, dur, start), &id)| SpanRecord {
                    trace,
                    id,
                    parent: (parent > 0).then_some(parent * 3 + (parent % 4 == 0) as u64),
                    name: NAMES[name].into(),
                    domain: ClockDomain::Wall,
                    start_us: start,
                    end_us: start + dur,
                    attrs: vec![],
                })
                .collect()
        })
    }

    #[derive(Clone, Debug)]
    enum Op {
        At(usize, u64),
        Trace(Vec<SpanRecord>),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The node-arena profiler keeps exactly the snapshot of the
        /// retired string-keyed one over any mix of explicit records and
        /// span-tree ingests.
        #[test]
        fn matches_the_string_keyed_oracle(
            ops in xg_prop::collection::vec(
                prop_oneof![
                    (0usize..PATHS.len(), 0u64..1_000_000).prop_map(|(p, ns)| Op::At(p, ns)),
                    spans().prop_map(Op::Trace),
                ],
                1..12,
            ),
        ) {
            let (prof, mut oracle) = (Profiler::new(), StringProfiler::default());
            for op in &ops {
                match op {
                    Op::At(p, ns) => {
                        prof.record_at(PATHS[*p], *ns);
                        oracle.record_at(PATHS[*p], *ns);
                    }
                    Op::Trace(spans) => {
                        prof.record_trace(spans);
                        oracle.record_trace(spans);
                    }
                }
            }
            prop_assert_eq!(prof.snapshot(), oracle.snapshot());
        }
    }

    /// Guards land where the string-keyed paths put them: same nodes,
    /// same call counts (durations are wall time, so only those differ).
    #[test]
    fn scopes_resolve_to_the_string_keyed_paths() {
        let (prof, mut oracle) = (Profiler::new(), StringProfiler::default());
        for (parent, name) in [
            (None, "ric.step"),
            (Some("ric.step"), "demand/slicer"),
            (Some("ran.fleet.batch"), "cell"),
            (Some("ran.fleet.batch"), "cell"),
            (None, "a/b"),
            (Some("a_b"), "c"),
        ] {
            match parent {
                Some(p) => prof.scope_under(p, name).finish(),
                None => prof.scope(name).finish(),
            }
            oracle.scope_exit(parent, name, 1);
        }
        let calls = |s: ProfileSnapshot| -> Vec<(String, u64)> {
            s.nodes.into_iter().map(|(p, n)| (p, n.calls)).collect()
        };
        assert_eq!(calls(prof.snapshot()), calls(oracle.snapshot()));
    }

    /// Resolved nodes record exactly as their paths do, and stay out of
    /// snapshots until recorded.
    #[test]
    fn resolved_nodes_match_their_paths() {
        let (prof, by_path) = (Profiler::new(), Profiler::new());
        let batch = prof.node("ran.fleet.batch");
        let cell = prof.child(batch, "cell/x");
        let sim = prof.node("ran.fleet.sim/cell");
        assert!(prof.snapshot().is_empty());
        prof.record_node(cell, 7);
        prof.record_node(sim, 11);
        prof.record_node(batch, 20);
        by_path.record_at("ran.fleet.batch/cell_x", 7);
        by_path.record_at("ran.fleet.sim/cell", 11);
        by_path.record_at("ran.fleet.batch", 20);
        assert_eq!(prof.snapshot(), by_path.snapshot());
        prof.scope_node(cell).finish();
        assert_eq!(prof.snapshot().nodes["ran.fleet.batch/cell_x"].calls, 2);
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
