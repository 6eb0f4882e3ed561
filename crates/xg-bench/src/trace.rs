//! Offline span-dump analysis behind the `xg-trace` binary.
//!
//! A black-box bundle or JSONL trace dump is a flat list of span lines;
//! this module turns one (or a pair) of them into the three reports the
//! CLI prints:
//!
//! * [`critical_report`] — per-cycle critical-path summaries plus the
//!   full table of the slowest cycle (where did the worst cycle go?);
//! * [`flame_report`] — merged hierarchical attribution across every
//!   cycle in the dump (where does time go *on average*?);
//! * [`diff_report`] — two-run regression attribution: per-path
//!   self-time per cycle, old vs new, sorted by the size of the change,
//!   so a `cycle_wall_ms` regression reads as "`fabric.cycle/fabric.ran.probe`
//!   self-time +0.24 ms/cycle" instead of a bare scalar.
//!
//! Everything operates on [`SpanRecord`]s so the reports are unit-testable
//! without touching the filesystem; the binary only adds file loading.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use xg_obs::span::{SpanRecord, TraceId};
use xg_obs::{extract_critical, render_critical, render_profile, ProfileSnapshot, Profiler};

/// Distinct trace ids in a dump, ascending. Each closed-loop report
/// cycle records exactly one trace, so this doubles as the cycle count.
pub(crate) fn trace_ids(spans: &[SpanRecord]) -> Vec<TraceId> {
    spans
        .iter()
        .map(|s| s.trace)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect()
}

/// Merged attribution tree of a dump plus its cycle count: every span's
/// duration lands at its ancestor-chain path, exactly as the live
/// profiler ingests cycles.
pub(crate) fn attribution(spans: &[SpanRecord]) -> (ProfileSnapshot, usize) {
    let prof = Profiler::new();
    prof.record_trace(spans);
    (prof.snapshot(), trace_ids(spans).len())
}

/// Per-cycle critical-path report: one summary line per trace, then the
/// full step table of the slowest cycle.
pub fn critical_report(spans: &[SpanRecord]) -> String {
    if spans.is_empty() {
        return "no spans in dump\n".to_string();
    }
    // One group per trace, ascending (a stable sort keeps each trace's
    // recording order), so each extraction scans its own cycle only.
    let mut by_trace = spans.to_vec();
    by_trace.sort_by_key(|s| s.trace);
    let mut out = String::new();
    let mut slowest = None;
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>6}  leaf",
        "trace", "total(ms)", "depth"
    );
    for group in by_trace.chunk_by(|a, b| a.trace == b.trace) {
        let Some(path) = extract_critical(group, group[0].trace) else {
            continue;
        };
        let _ = writeln!(
            out,
            "{:>8} {:>12.3} {:>6}  {}",
            path.trace,
            path.total_us as f64 / 1e3,
            path.depth(),
            path.leaf().map(|l| l.name.as_ref()).unwrap_or("-"),
        );
        let worse = slowest
            .as_ref()
            .map(|s: &xg_obs::CriticalPath| path.total_us > s.total_us)
            .unwrap_or(true);
        if worse {
            slowest = Some(path);
        }
    }
    if let Some(path) = slowest {
        let _ = writeln!(out, "\nslowest cycle:");
        out.push_str(&render_critical(&path));
    }
    out
}

/// Attribution flame summary of a dump, normalized per cycle in the
/// footer so dumps of different lengths stay comparable.
pub fn flame_report(spans: &[SpanRecord]) -> String {
    let (snap, cycles) = attribution(spans);
    if snap.is_empty() {
        return "no spans in dump\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "attribution · {} spans · {} cycles",
        spans.len(),
        cycles
    );
    out.push_str(&render_profile(&snap));
    let total_ms = snap.total_self_ns() as f64 / 1e6;
    let _ = writeln!(
        out,
        "total attributed {:.3} ms ({:.3} ms/cycle)",
        total_ms,
        total_ms / cycles.max(1) as f64
    );
    out
}

/// One row of a two-run diff: per-cycle self-time of a path, old vs new.
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// Attribution path (`"fabric.cycle/fabric.ran.probe"`).
    pub path: String,
    /// Self-time per cycle in the old dump, ms (0 when absent).
    pub old_ms: f64,
    /// Self-time per cycle in the new dump, ms (0 when absent).
    pub new_ms: f64,
}

impl DiffRow {
    /// Change in per-cycle self-time, ms (positive = regression).
    pub fn delta_ms(&self) -> f64 {
        self.new_ms - self.old_ms
    }
}

/// Per-path regression attribution between two dumps, sorted by the
/// magnitude of the per-cycle self-time change (largest first; ties in
/// path order). Paths present in only one dump count as 0 in the other.
pub fn diff_rows(old: &[SpanRecord], new: &[SpanRecord]) -> Vec<DiffRow> {
    let (old_snap, old_cycles) = attribution(old);
    let (new_snap, new_cycles) = attribution(new);
    let per_cycle = |snap: &ProfileSnapshot, cycles: usize, path: &str| -> f64 {
        snap.nodes
            .get(path)
            .map(|n| n.self_ns() as f64 / 1e6 / cycles.max(1) as f64)
            .unwrap_or(0.0)
    };
    let paths: BTreeSet<&String> = old_snap.nodes.keys().chain(new_snap.nodes.keys()).collect();
    let mut rows: Vec<DiffRow> = paths
        .into_iter()
        .map(|path| DiffRow {
            path: path.clone(),
            old_ms: per_cycle(&old_snap, old_cycles, path),
            new_ms: per_cycle(&new_snap, new_cycles, path),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.delta_ms()
            .abs()
            .partial_cmp(&a.delta_ms().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    rows
}

/// Human-readable two-run regression attribution.
pub fn diff_report(old: &[SpanRecord], new: &[SpanRecord]) -> String {
    let rows = diff_rows(old, new);
    if rows.is_empty() {
        return "no spans in either dump\n".to_string();
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "regression attribution · old: {} cycles · new: {} cycles",
        trace_ids(old).len(),
        trace_ids(new).len()
    );
    let _ = writeln!(
        out,
        "{:<44} {:>14} {:>14} {:>14}",
        "path", "old(ms/cyc)", "new(ms/cyc)", "delta(ms/cyc)"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "{:<44} {:>14.3} {:>14.3} {:>+14.3}",
            row.path,
            row.old_ms,
            row.new_ms,
            row.delta_ms()
        );
    }
    if let Some(top) = rows.first() {
        if top.delta_ms().abs() > f64::EPSILON {
            let _ = writeln!(
                out,
                "\nbiggest mover: {} self-time {:+.3} ms/cycle",
                top.path,
                top.delta_ms()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_obs::ClockDomain;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
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

    /// One synthetic report cycle: a root with a probe and a ship child,
    /// probe self-time controlled by `probe_us`.
    fn cycle(trace: u64, base_id: u64, probe_us: u64) -> Vec<SpanRecord> {
        vec![
            span(trace, base_id, None, "fabric.cycle", 0, probe_us + 300),
            span(
                trace,
                base_id + 1,
                Some(base_id),
                "fabric.ran.probe",
                0,
                probe_us,
            ),
            span(
                trace,
                base_id + 2,
                Some(base_id),
                "fabric.gateway.ship",
                probe_us,
                probe_us + 200,
            ),
        ]
    }

    fn dump(probe_us: u64, cycles: u64) -> Vec<SpanRecord> {
        (0..cycles)
            .flat_map(|c| cycle(c + 1, c * 10 + 1, probe_us))
            .collect()
    }

    #[test]
    fn critical_report_lists_cycles_and_details_the_slowest() {
        let mut spans = dump(700, 2);
        spans.extend(cycle(9, 91, 5_000)); // the slow outlier
        let text = critical_report(&spans);
        assert!(text.contains("slowest cycle"));
        assert!(text.contains("trace 9"), "slowest is trace 9:\n{text}");
        assert!(text.contains("fabric.ran.probe"));
        assert_eq!(critical_report(&[]), "no spans in dump\n");
    }

    #[test]
    fn flame_report_normalizes_per_cycle() {
        let text = flame_report(&dump(700, 4));
        assert!(text.contains("4 cycles"));
        assert!(text.contains("fabric.cycle/fabric.ran.probe"));
        assert!(text.contains("ms/cycle"));
    }

    #[test]
    fn diff_attributes_an_injected_probe_slowdown() {
        // Old: 0.7 ms probe; new: 0.94 ms probe — +0.24 ms/cycle on the
        // probe's self-time, everything else unchanged.
        let old = dump(700, 3);
        let new = dump(940, 3);
        let rows = diff_rows(&old, &new);
        let top = &rows[0];
        assert_eq!(top.path, "fabric.cycle/fabric.ran.probe");
        assert!((top.delta_ms() - 0.24).abs() < 1e-9, "{:?}", top);
        let text = diff_report(&old, &new);
        assert!(text.contains("biggest mover: fabric.cycle/fabric.ran.probe"));
        assert!(text.contains("+0.240"));
    }

    #[test]
    fn diff_handles_paths_missing_on_one_side() {
        let old = dump(700, 2);
        let mut new = dump(700, 2);
        new.extend(cycle(8, 81, 700));
        new.push(span(8, 84, Some(81), "fabric.new.phase", 0, 900));
        let rows = diff_rows(&old, &new);
        let added = rows
            .iter()
            .find(|r| r.path == "fabric.cycle/fabric.new.phase")
            .expect("new path present");
        assert_eq!(added.old_ms, 0.0);
        assert!(added.new_ms > 0.0);
    }
}
