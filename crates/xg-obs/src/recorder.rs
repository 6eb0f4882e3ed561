//! Black-box flight recorder: bounded memory, dump-on-disaster.
//!
//! Aircraft flight recorders keep the *recent past* in a fixed budget and
//! survive the crash. [`FlightRecorder`] does the same for the fabric: a
//! ring of the most recent spans and free-form notes (fault
//! activations, degradation transitions, SLO edges), capped at a fixed
//! entry count so an unattended soak can run forever without growing.
//! When something goes wrong — SLO breach, injected-fault window, or a
//! panic — [`dump_bundle`] writes a self-contained JSONL diagnostic
//! bundle (schema `xg-blackbox/v2`): one meta line with the trigger
//! reason, seed, and run context, then the buffered notes, the spans in
//! causal parent-before-child order, the wall-time attribution tree and
//! last critical path when the caller supplies them, and a metrics
//! snapshot. Bundles are written via temp-file + atomic rename so a
//! crash mid-dump cannot leave a truncated file that parses as a
//! complete one. (v2 is a strict superset of v1: the new `profile` and
//! `critical` line kinds are optional, every v1 line is unchanged.)

use crate::critical::CriticalPath;
use crate::export::json_escape;
use crate::metrics::MetricsSnapshot;
use crate::profile::ProfileSnapshot;
use crate::span::{SpanId, SpanRecord};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One buffered event.
#[derive(Clone, Debug, PartialEq)]
pub enum FlightEntry {
    /// A completed span forwarded from the tracer.
    Span(SpanRecord),
    /// A free-form annotation (fault edge, degradation transition, …).
    Note {
        /// Timestamp, microseconds (sim domain by convention).
        t_us: u64,
        /// The annotation text.
        text: String,
    },
}

/// Bounded ring buffer of recent [`FlightEntry`]s.
///
/// One mutex guards a strict FIFO: once `capacity` entries are buffered,
/// each arrival evicts the oldest. An entry's sequence number is its
/// arrival index, so the ring never stores one: the front entry's is the
/// eviction count.
///
/// A recorder that feeds a [`Tracer`](crate::span::Tracer) also holds
/// that tracer's span list, so each span is stored once: a span the ring
/// evicts before the tracer hands it out moves to an archive.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    entries: VecDeque<FlightEntry>,
    dropped: u64,
    /// Whether a tracer reads its span list from this recorder.
    traced: bool,
    /// Evicted spans the tracer has not handed out yet, oldest first.
    archive: Vec<SpanRecord>,
    /// Ring entries at or past this sequence number belong to the
    /// tracer's list.
    untaken_from: u64,
    /// Spans in the tracer's list: the archive plus the ring's spans at
    /// or past `untaken_from`.
    traced_len: usize,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` (at least one) entries.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
        }
    }

    /// The ring, locked. A poisoned lock is taken as it stands: the panic
    /// hook reads the recorder after a panic, whoever held it then.
    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, entry: FlightEntry) {
        let mut ring = self.ring();
        let ring = &mut *ring;
        if matches!(entry, FlightEntry::Span(_)) && ring.traced {
            ring.traced_len += 1;
        }
        if ring.entries.len() == self.capacity {
            let evicted = ring.entries.pop_front();
            if let Some(FlightEntry::Span(s)) = evicted {
                if ring.traced && ring.dropped >= ring.untaken_from {
                    ring.archive.push(s);
                }
            }
            ring.dropped += 1;
        }
        ring.entries.push_back(entry);
    }

    /// Buffer a completed span. On a recorder that feeds a tracer, the
    /// span also joins that tracer's span list.
    pub fn record_span(&self, span: SpanRecord) {
        self.push(FlightEntry::Span(span));
    }

    /// From now on every buffered span also belongs to a tracer's list.
    /// A recorder feeds at most one tracer: a second one would share the
    /// first one's list.
    pub(crate) fn attach_tracer(&self) {
        let mut ring = self.ring();
        assert!(!ring.traced, "a flight recorder feeds at most one tracer");
        ring.traced = true;
        ring.untaken_from = ring.dropped + ring.entries.len() as u64;
    }

    /// Length of the attached tracer's span list.
    pub(crate) fn traced_len(&self) -> usize {
        self.ring().traced_len
    }

    /// The attached tracer's span list in recording order; `take` hands
    /// it out, so later calls start empty. The ring keeps its entries.
    pub(crate) fn traced_spans(&self, take: bool) -> Vec<SpanRecord> {
        let mut ring = self.ring();
        let ring = &mut *ring;
        let mut out = if take {
            std::mem::take(&mut ring.archive)
        } else {
            ring.archive.clone()
        };
        out.reserve_exact(ring.traced_len.saturating_sub(out.len()));
        let skip = ring.untaken_from.saturating_sub(ring.dropped) as usize;
        for e in ring.entries.iter().skip(skip) {
            if let FlightEntry::Span(s) = e {
                out.push(s.clone());
            }
        }
        if take {
            ring.untaken_from = ring.dropped + ring.entries.len() as u64;
            ring.traced_len = 0;
        }
        out
    }

    /// Buffer an annotation at `t_us` microseconds.
    pub fn note(&self, t_us: u64, text: impl Into<String>) {
        self.push(FlightEntry::Note {
            t_us,
            text: text.into(),
        });
    }

    /// Entries currently buffered (≤ capacity by construction).
    pub fn len(&self) -> usize {
        self.ring().entries.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted so far to stay within budget.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Snapshot the buffer as `(sequence number, entry)`, oldest first.
    pub fn entries(&self) -> Vec<(u64, FlightEntry)> {
        let ring = self.ring();
        (ring.dropped..).zip(ring.entries.iter().cloned()).collect()
    }

    /// Buffered notes in sequence order.
    pub fn notes(&self) -> Vec<(u64, String)> {
        self.entries()
            .into_iter()
            .filter_map(|(_, e)| match e {
                FlightEntry::Note { t_us, text } => Some((t_us, text)),
                _ => None,
            })
            .collect()
    }

    /// Buffered spans in *causal* order: every span whose parent is also
    /// buffered appears after that parent; spans whose parent was evicted
    /// (or that have none) are roots, emitted in arrival order. Children
    /// of the same parent keep arrival order. This is the order bundles
    /// use, so a reader can reconstruct each trace in one forward pass.
    pub fn ordered_spans(&self) -> Vec<SpanRecord> {
        let spans: Vec<SpanRecord> = self
            .entries()
            .into_iter()
            .filter_map(|(_, e)| match e {
                FlightEntry::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        let present: BTreeSet<(u64, SpanId)> = spans.iter().map(|s| (s.trace, s.id)).collect();
        // Children grouped per buffered parent, arrival order preserved.
        let mut children: BTreeMap<(u64, SpanId), Vec<usize>> = BTreeMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                Some(p) if present.contains(&(s.trace, p)) => {
                    children.entry((s.trace, p)).or_default().push(i);
                }
                _ => roots.push(i),
            }
        }
        let mut out = Vec::with_capacity(spans.len());
        let mut stack: Vec<usize> = roots.into_iter().rev().collect();
        let mut emitted = vec![false; spans.len()];
        while let Some(i) = stack.pop() {
            if emitted[i] {
                continue;
            }
            emitted[i] = true;
            out.push(spans[i].clone());
            if let Some(kids) = children.get(&(spans[i].trace, spans[i].id)) {
                for &k in kids.iter().rev() {
                    stack.push(k);
                }
            }
        }
        // Defensive: a parent-cycle (malformed input) would strand spans;
        // append any stragglers so the dump never silently loses data.
        for (i, s) in spans.iter().enumerate() {
            if !emitted[i] {
                out.push(s.clone());
            }
        }
        out
    }
}

/// Everything a diagnostic bundle captures besides the recorder buffer.
#[derive(Clone, Debug, Default)]
pub struct BundleContext {
    /// Why the bundle was dumped (`"slo-breach"`, `"fault-window"`, …).
    pub reason: String,
    /// Virtual time of the trigger, seconds.
    pub t_s: f64,
    /// The run's RNG seed, for deterministic replay.
    pub seed: u64,
    /// Free-form key/value context (active faults, breached SLOs, …).
    pub context: Vec<(String, String)>,
    /// Wall-time attribution tree at dump time, if the caller profiles.
    pub profile: Option<ProfileSnapshot>,
    /// The most recent report cycle's critical path, if extracted.
    pub critical: Option<CriticalPath>,
}

/// The bundle schema version this module writes.
pub const BUNDLE_SCHEMA: &str = "xg-blackbox/v2";

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Render the bundle JSONL (schema [`BUNDLE_SCHEMA`]) without touching
/// the filesystem. Line 1 is the meta object; then notes, spans in
/// causal order, the optional profile tree and critical path, and the
/// metrics snapshot, one object per line.
pub fn render_bundle(
    recorder: &FlightRecorder,
    metrics: Option<&MetricsSnapshot>,
    ctx: &BundleContext,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"kind\":\"meta\",\"schema\":\"{BUNDLE_SCHEMA}\",\"reason\":\"{}\",\"t_s\":{},\"seed\":{},\"entries\":{},\"dropped\":{},\"context\":{{",
        json_escape(&ctx.reason),
        fmt_f64(ctx.t_s),
        ctx.seed,
        recorder.len(),
        recorder.dropped(),
    );
    for (i, (k, v)) in ctx.context.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push_str("}}\n");
    for (t_us, text) in recorder.notes() {
        let _ = writeln!(
            out,
            "{{\"kind\":\"note\",\"t_us\":{},\"text\":\"{}\"}}",
            t_us,
            json_escape(&text)
        );
    }
    for s in recorder.ordered_spans() {
        let _ = write!(
            out,
            "{{\"kind\":\"span\",\"trace\":{},\"span\":{},\"parent\":",
            s.trace, s.id
        );
        match s.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"name\":\"{}\",\"clock\":\"{}\",\"start_us\":{},\"end_us\":{},\"attrs\":{{",
            json_escape(&s.name),
            s.domain.label(),
            s.start_us,
            s.end_us
        );
        for (i, (k, v)) in s.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}\n");
    }
    if let Some(prof) = &ctx.profile {
        for (path, n) in &prof.nodes {
            let _ = writeln!(
                out,
                "{{\"kind\":\"profile\",\"path\":\"{}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                json_escape(path),
                n.calls,
                n.total_ns,
                n.self_ns(),
                fmt_f64(n.hist.quantile(0.5).unwrap_or(f64::NAN)),
                fmt_f64(n.hist.quantile(0.99).unwrap_or(f64::NAN)),
            );
        }
    }
    if let Some(path) = &ctx.critical {
        let _ = write!(
            out,
            "{{\"kind\":\"critical\",\"trace\":{},\"total_us\":{},\"steps\":[",
            path.trace, path.total_us
        );
        for (i, s) in path.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"duration_us\":{},\"self_us\":{},\"slack_us\":{}}}",
                json_escape(&s.name),
                s.duration_us,
                s.self_us,
                s.slack_us
            );
        }
        out.push_str("]}\n");
    }
    if let Some(snap) = metrics {
        for (name, v) in &snap.counters {
            let _ = writeln!(
                out,
                "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(name),
                v
            );
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(
                out,
                "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
                json_escape(name),
                fmt_f64(*v)
            );
        }
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{{\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                json_escape(name),
                h.count(),
                fmt_f64(h.sum()),
                fmt_f64(h.quantile(0.5).unwrap_or(f64::NAN)),
                fmt_f64(h.quantile(0.99).unwrap_or(f64::NAN)),
                fmt_f64(h.max().unwrap_or(f64::NAN)),
            );
        }
    }
    out
}

static BUNDLE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Dump a diagnostic bundle to `dir` (created if absent), returning the
/// bundle's path. The file is written to a temp name and atomically
/// renamed into place, so readers never observe a partial bundle.
pub fn dump_bundle(
    dir: &Path,
    recorder: &FlightRecorder,
    metrics: Option<&MetricsSnapshot>,
    ctx: &BundleContext,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let n = BUNDLE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let slug: String = ctx
        .reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(40)
        .collect();
    let name = format!("blackbox-{}-{:03}-{}.jsonl", std::process::id(), n, slug);
    let path = dir.join(&name);
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, render_bundle(recorder, metrics, ctx))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Install a panic hook that dumps a bundle (reason `"panic"`) before the
/// default hook runs, so a crashing soak still leaves its black box.
pub fn install_panic_hook(recorder: Arc<FlightRecorder>, dir: PathBuf, seed: u64) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let ctx = BundleContext {
            reason: "panic".to_string(),
            t_s: -1.0,
            seed,
            context: vec![("panic".to_string(), info.to_string())],
            ..Default::default()
        };
        let _ = dump_bundle(&dir, &recorder, None, &ctx);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;
    use crate::span::Tracer;

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &'static str) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name: name.into(),
            domain: ClockDomain::Sim,
            start_us: id * 1000,
            end_us: id * 1000 + 500,
            attrs: vec![],
        }
    }

    #[test]
    fn memory_stays_bounded_and_counts_drops() {
        let rec = FlightRecorder::new(64);
        for i in 0..1000u64 {
            rec.record_span(span(1, i + 1, None, "s"));
        }
        assert_eq!(rec.len(), 64);
        assert_eq!(rec.dropped() as usize, 1000 - rec.len());
        // The survivors are exactly the most recent entries, oldest first.
        let seqs: Vec<u64> = rec.entries().iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, (936..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn ordered_spans_put_parents_before_children() {
        let rec = FlightRecorder::new(64);
        // Record children before their parents — causal order must still
        // come out parent-first.
        rec.record_span(span(7, 3, Some(2), "grandchild"));
        rec.record_span(span(7, 2, Some(1), "child"));
        rec.record_span(span(7, 1, None, "root"));
        rec.record_span(span(8, 5, Some(4), "orphan")); // parent 4 never buffered
        let ordered = rec.ordered_spans();
        assert_eq!(ordered.len(), 4);
        let pos = |id: u64| ordered.iter().position(|s| s.id == id).unwrap();
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
        // The orphan survives as a root.
        assert!(ordered.iter().any(|s| s.id == 5));
    }

    #[test]
    fn eviction_of_a_parent_promotes_children_to_roots() {
        let rec = FlightRecorder::new(2);
        rec.record_span(span(1, 1, None, "root"));
        rec.record_span(span(1, 2, Some(1), "a"));
        rec.record_span(span(1, 3, Some(1), "b")); // evicts the root
        let ordered = rec.ordered_spans();
        assert_eq!(ordered.len(), 2);
        assert_eq!(ordered[0].id, 2);
        assert_eq!(ordered[1].id, 3);
    }

    #[test]
    fn bundle_renders_meta_notes_spans_and_metrics() {
        let rec = FlightRecorder::new(128);
        rec.note(5_000_000, "fault ran-degradation activated");
        rec.record_span(span(1, 1, None, "telemetry.transfer"));
        let reg = crate::metrics::MetricsRegistry::new();
        reg.counter("cycles").add(3);
        reg.gauge("level").set(1.0);
        reg.histogram("lat_ms").record(42.0);
        let ctx = BundleContext {
            reason: "slo-breach: p99(lat_ms) < 10".to_string(),
            t_s: 600.0,
            seed: 7,
            context: vec![("slo".to_string(), "p99(lat_ms) < 10".to_string())],
            ..Default::default()
        };
        let text = render_bundle(&rec, Some(&reg.snapshot()), &ctx);
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert!(lines[0].contains("\"schema\":\"xg-blackbox/v2\""));
        assert!(lines[0].contains("\"seed\":7"));
        assert!(lines[0].contains("slo-breach"));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"note\"")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"span\"") && l.contains("telemetry.transfer")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"kind\":\"counter\"") && l.contains("\"value\":3")));
        assert!(lines.iter().any(|l| l.contains("\"kind\":\"histogram\"")));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
    }

    #[test]
    fn v2_bundle_carries_profile_and_critical_lines() {
        let rec = FlightRecorder::new(16);
        rec.record_span(span(1, 1, None, "fabric.cycle"));
        let prof = crate::profile::Profiler::new();
        prof.record_at("cycle/ran.probe", 240_000);
        prof.record_at("cycle", 351_000);
        let critical = crate::critical::extract_critical(&rec.ordered_spans(), 1);
        let ctx = BundleContext {
            reason: "report-cycle".to_string(),
            t_s: 300.0,
            seed: 42,
            context: vec![],
            profile: Some(prof.snapshot()),
            critical,
        };
        let text = render_bundle(&rec, None, &ctx);
        let lines: Vec<&str> = text.trim_end().lines().collect();
        let prof_lines: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"kind\":\"profile\""))
            .collect();
        assert_eq!(prof_lines.len(), 2);
        assert!(prof_lines.iter().any(
            |l| l.contains("\"path\":\"cycle/ran.probe\"") && l.contains("\"total_ns\":240000")
        ));
        // Parent self-time = total − child.
        assert!(prof_lines
            .iter()
            .any(|l| l.contains("\"path\":\"cycle\"") && l.contains("\"self_ns\":111000")));
        let crit = lines
            .iter()
            .find(|l| l.contains("\"kind\":\"critical\""))
            .expect("critical line");
        assert!(crit.contains("\"trace\":1"));
        assert!(crit.contains("\"name\":\"fabric.cycle\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "bad line {l}");
        }
    }

    #[test]
    fn dump_bundle_writes_atomically() {
        let dir = std::env::temp_dir().join(format!("xg-blackbox-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(16);
        rec.note(0, "hello");
        let ctx = BundleContext {
            reason: "unit/test".to_string(),
            t_s: 0.0,
            seed: 1,
            ..Default::default()
        };
        let path = dump_bundle(&dir, &rec, None, &ctx).unwrap();
        assert!(path.exists());
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("unit-test"));
        // No temp litter.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tracer_sink_forwards_spans() {
        let rec = Arc::new(FlightRecorder::new(8));
        let tracer = Tracer::with_sink(Arc::clone(&rec));
        let tr = tracer.new_trace();
        let root = tracer.record_sim_s(tr, None, "cycle", 0.0, 1.0, vec![]);
        tracer.record_sim_s(tr, Some(root), "stage", 0.0, 0.5, vec![]);
        assert_eq!(rec.len(), 2);
        let ordered = rec.ordered_spans();
        assert_eq!(ordered[0].name, "cycle");
        assert_eq!(ordered[1].name, "stage");
    }

    #[test]
    #[should_panic(expected = "at most one tracer")]
    fn a_recorder_feeds_one_tracer() {
        let rec = Arc::new(FlightRecorder::new(8));
        let _first = Tracer::with_sink(Arc::clone(&rec));
        let _second = Tracer::with_sink(rec);
    }

    /// A panic while the ring is locked poisons it; the recorder still
    /// records and reads, as the panic hook needs it to.
    #[test]
    fn a_panic_under_the_lock_leaves_the_recorder_readable() {
        let rec = Arc::new(FlightRecorder::new(8));
        let _first = Tracer::with_sink(Arc::clone(&rec));
        let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Tracer::with_sink(Arc::clone(&rec))
        }));
        assert!(second.is_err() && rec.ring.is_poisoned());
        rec.record_span(span(1, 1, None, "after"));
        assert_eq!((rec.len(), rec.traced_len()), (1, 1));
    }
}
