//! Critical-path extraction over a per-cycle span DAG.
//!
//! The §4.4 latency budget sums stage durations as if they were serial;
//! once stages overlap (parallel fleet shards, pipelined CSPOT
//! relays) the number that bounds the closed loop is the *longest
//! root-to-leaf chain* of the cycle's span tree. [`extract_critical`]
//! finds that chain greedily (at each node, descend into the
//! longest-duration child) and annotates every step with its *slack* —
//! how much the step could grow before it stops being dominated by its
//! parent — so a regression report can say "the cycle is gated by
//! `ran.probe`, and `gateway.ship` has 1.2 ms of headroom" instead of a
//! single regressed scalar.
//!
//! The orchestrator runs this on each report cycle's wall-span tree and
//! emits the result as `fabric.cycle.critical.*` instruments; the same
//! structure rides along in black-box bundles and is what the
//! `xg-trace` CLI renders offline.

use crate::span::{SpanId, SpanRecord, TraceId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One step of a critical path, root first.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalStep {
    /// Span name, e.g. `"fabric.ran.probe"`.
    pub name: String,
    /// The step's full duration in microseconds.
    pub duration_us: u64,
    /// Duration minus the sum of the step's children — time the step
    /// spent itself, not waiting on a profiled child.
    pub self_us: u64,
    /// How much this step could grow before overtaking its parent's
    /// duration (`parent.duration − duration`); 0 for the root. A
    /// near-zero slack means the parent is *only* this step.
    pub slack_us: u64,
}

/// The longest root-to-leaf chain of one trace's span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// The trace the path was extracted from.
    pub trace: TraceId,
    /// Duration of the path's root span, microseconds.
    pub total_us: u64,
    /// The chain, root first.
    pub steps: Vec<CriticalStep>,
}

impl CriticalPath {
    /// Number of steps on the path.
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// The leaf step — the innermost stage gating the cycle.
    pub fn leaf(&self) -> Option<&CriticalStep> {
        self.steps.last()
    }
}

fn dur(s: &SpanRecord) -> u64 {
    s.end_us.saturating_sub(s.start_us)
}

/// Extract the critical path of `trace` from a span list.
///
/// Only spans of the given trace participate. The root is the
/// longest-duration parentless span (parents evicted from a bounded
/// buffer count as absent; ties break toward the lowest span id so the
/// result is deterministic); from there the walk descends into the
/// longest-duration child until a leaf. Returns `None` when the trace
/// has no spans.
pub fn extract_critical(spans: &[SpanRecord], trace: TraceId) -> Option<CriticalPath> {
    let in_trace: Vec<&SpanRecord> = spans.iter().filter(|s| s.trace == trace).collect();
    if in_trace.is_empty() {
        return None;
    }
    let ids: BTreeMap<SpanId, &SpanRecord> = in_trace.iter().map(|s| (s.id, *s)).collect();
    let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
    for s in &in_trace {
        if let Some(p) = s.parent.filter(|p| ids.contains_key(p)) {
            children.entry(p).or_default().push(s);
        }
    }
    let root = in_trace
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !ids.contains_key(&p)))
        .copied()
        // max_by_key keeps the *last* maximum; order by (duration, Reverse(id))
        // via manual fold to keep the lowest id on ties.
        .fold(None::<&SpanRecord>, |best, s| match best {
            Some(b) if (dur(b), std::cmp::Reverse(b.id)) >= (dur(s), std::cmp::Reverse(s.id)) => {
                Some(b)
            }
            _ => Some(s),
        })?;

    let mut steps = Vec::new();
    let mut node = root;
    let mut parent_dur: Option<u64> = None;
    loop {
        let kids = children.get(&node.id).map(Vec::as_slice).unwrap_or(&[]);
        let child_sum: u64 = kids.iter().map(|c| dur(c)).sum();
        steps.push(CriticalStep {
            name: node.name.clone(),
            duration_us: dur(node),
            self_us: dur(node).saturating_sub(child_sum),
            slack_us: parent_dur.map_or(0, |p| p.saturating_sub(dur(node))),
        });
        let next = kids
            .iter()
            .copied()
            .fold(None::<&SpanRecord>, |best, s| match best {
                Some(b)
                    if (dur(b), std::cmp::Reverse(b.id)) >= (dur(s), std::cmp::Reverse(s.id)) =>
                {
                    Some(b)
                }
                _ => Some(s),
            });
        match next {
            Some(n) => {
                parent_dur = Some(dur(node));
                node = n;
            }
            None => break,
        }
    }
    Some(CriticalPath {
        trace,
        total_us: dur(root),
        steps,
    })
}

/// Render a critical path as a fixed-width table, root first.
pub fn render_critical(path: &CriticalPath) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "critical path · trace {} · total {:.3} ms · depth {}",
        path.trace,
        path.total_us as f64 / 1e3,
        path.depth()
    );
    let _ = writeln!(
        out,
        "{:<4} {:<36} {:>12} {:>12} {:>12}",
        "#", "step", "dur(ms)", "self(ms)", "slack(ms)"
    );
    for (i, s) in path.steps.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<4} {:<36} {:>12.3} {:>12.3} {:>12.3}",
            i,
            format!("{}{}", "  ".repeat(i.min(8)), s.name),
            s.duration_us as f64 / 1e3,
            s.self_us as f64 / 1e3,
            s.slack_us as f64 / 1e3,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name: name.into(),
            domain: ClockDomain::Wall,
            start_us: start,
            end_us: end,
            attrs: vec![],
        }
    }

    #[test]
    fn walks_the_longest_chain_with_slack() {
        let spans = vec![
            span(7, 1, None, "cycle", 0, 1000),
            span(7, 2, Some(1), "ran.probe", 0, 700),
            span(7, 3, Some(1), "gateway.ship", 700, 900),
            span(7, 4, Some(2), "fleet.step", 0, 650),
            span(9, 5, None, "other-trace", 0, 9999),
        ];
        let path = extract_critical(&spans, 7).expect("path");
        assert_eq!(path.total_us, 1000);
        let names: Vec<&str> = path.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["cycle", "ran.probe", "fleet.step"]);
        assert_eq!(path.steps[0].slack_us, 0);
        assert_eq!(path.steps[0].self_us, 1000 - 700 - 200);
        assert_eq!(path.steps[1].slack_us, 300);
        assert_eq!(path.steps[1].self_us, 50);
        assert_eq!(path.steps[2].slack_us, 50);
        assert_eq!(path.leaf().expect("leaf").name, "fleet.step");
    }

    #[test]
    fn empty_trace_yields_none() {
        assert!(extract_critical(&[], 1).is_none());
        let spans = vec![span(2, 1, None, "x", 0, 10)];
        assert!(extract_critical(&spans, 1).is_none());
    }

    #[test]
    fn evicted_parent_becomes_a_root_candidate() {
        // Parent id 99 is absent (e.g. evicted from the flight
        // recorder's bounded ring): the orphan competes as a root.
        let spans = vec![
            span(3, 1, None, "small-root", 0, 10),
            span(3, 2, Some(99), "orphan", 0, 500),
        ];
        let path = extract_critical(&spans, 3).expect("path");
        assert_eq!(path.steps[0].name, "orphan");
        assert_eq!(path.total_us, 500);
    }

    #[test]
    fn ties_break_to_the_lowest_span_id() {
        let spans = vec![
            span(4, 1, None, "root", 0, 100),
            span(4, 2, Some(1), "first", 0, 50),
            span(4, 3, Some(1), "second", 50, 100),
        ];
        let path = extract_critical(&spans, 4).expect("path");
        assert_eq!(path.steps[1].name, "first");
    }

    #[test]
    fn render_contains_every_step() {
        let spans = vec![
            span(5, 1, None, "cycle", 0, 300),
            span(5, 2, Some(1), "hpc.advance", 0, 210),
        ];
        let path = extract_critical(&spans, 5).expect("path");
        let text = render_critical(&path);
        assert!(text.contains("cycle"));
        assert!(text.contains("hpc.advance"));
        assert!(text.contains("slack(ms)"));
        assert!(text.contains("total 0.300 ms"));
    }
}
