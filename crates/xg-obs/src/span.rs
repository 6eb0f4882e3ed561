//! Causal span tracing across the closed loop.
//!
//! A *trace* is one closed-loop cycle: the sensor reading that tripped
//! Laminar, the gateway drain that carried it, the pilot dispatch, the
//! CFD solve, and the results return. Each stage is a [`SpanRecord`]
//! with a parent link and a [`ClockDomain`]: the discrete-event stages
//! carry simulated timestamps, the CFD solve carries wall time. The
//! exporters in `crate::export` turn a span list into a JSONL dump and
//! the §4.4 latency-budget table.

use crate::clock::{secs_to_us, ClockDomain};
use crate::recorder::FlightRecorder;
use crate::DEFAULT_RECORDER_CAPACITY;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one closed-loop cycle.
pub type TraceId = u64;
/// Identifies one span within a tracer.
pub type SpanId = u64;

/// A span or stage name: a string literal costs no allocation, a name
/// built at run time is owned.
pub type SpanName = Cow<'static, str>;

/// One completed stage of a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// The trace (closed-loop cycle) this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span id, `None` for a trace root.
    pub parent: Option<SpanId>,
    /// Stage name, e.g. `"cfd.solve"`.
    pub name: SpanName,
    /// Which clock produced the timestamps.
    pub domain: ClockDomain,
    /// Start, microseconds in `domain`.
    pub start_us: u64,
    /// End, microseconds in `domain`.
    pub end_us: u64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_us.saturating_sub(self.start_us) as f64 / 1e6
    }
}

/// Collects [`SpanRecord`]s and hands out trace/span ids. Its spans live
/// in a flight recorder, stored once: the recorder's bounded ring holds
/// the recent ones, and a span it evicts moves to the recorder's archive
/// until [`take_spans`](Tracer::take_spans) hands it out.
#[derive(Debug)]
pub struct Tracer {
    next_id: AtomicU64,
    recorder: Arc<FlightRecorder>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer with a recorder of its own.
    pub(crate) fn new() -> Self {
        Tracer::with_sink(Arc::new(FlightRecorder::new(DEFAULT_RECORDER_CAPACITY)))
    }

    /// An empty tracer whose spans live in `recorder`, which may feed no
    /// other tracer.
    ///
    /// # Panics
    ///
    /// If `recorder` already feeds a tracer.
    pub fn with_sink(recorder: Arc<FlightRecorder>) -> Self {
        recorder.attach_tracer();
        Tracer {
            next_id: AtomicU64::new(0),
            recorder,
        }
    }

    fn next(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Allocate a fresh trace id.
    pub fn new_trace(&self) -> TraceId {
        self.next()
    }

    /// Record a completed sim-time span given start/end in *seconds* (the
    /// fabric's `t_s` convention). Returns the span id for parent links.
    #[allow(clippy::too_many_arguments)]
    pub fn record_sim_s(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: impl Into<SpanName>,
        start_s: f64,
        end_s: f64,
        attrs: Vec<(String, String)>,
    ) -> SpanId {
        self.record_raw(
            trace,
            parent,
            name,
            ClockDomain::Sim,
            secs_to_us(start_s),
            secs_to_us(end_s.max(start_s)),
            attrs,
        )
    }

    /// Record a completed span with explicit microsecond timestamps.
    #[allow(clippy::too_many_arguments)]
    pub fn record_raw(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: impl Into<SpanName>,
        domain: ClockDomain,
        start_us: u64,
        end_us: u64,
        attrs: Vec<(String, String)>,
    ) -> SpanId {
        let id = self.next();
        let record = SpanRecord {
            trace,
            id,
            parent,
            name: name.into(),
            domain,
            start_us,
            end_us: end_us.max(start_us),
            attrs,
        };
        self.recorder.record_span(record);
        id
    }

    /// Number of spans recorded (since the last [`take_spans`](Tracer::take_spans)).
    pub fn len(&self) -> usize {
        self.recorder.traced_len()
    }

    /// Whether no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone out every recorded span, ordered by recording time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.recorder.traced_spans(false)
    }

    /// Drain every recorded span. The recorder's black box keeps its own
    /// recent spans.
    pub fn take_spans(&self) -> Vec<SpanRecord> {
        self.recorder.traced_spans(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_spans_link_causally() {
        let t = Tracer::new();
        let trace = t.new_trace();
        let root = t.record_sim_s(trace, None, "cycle", 0.0, 10.0, vec![]);
        let child = t.record_sim_s(
            trace,
            Some(root),
            "transfer",
            0.0,
            0.2,
            vec![("records".into(), "12".into())],
        );
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].id, child);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].domain, ClockDomain::Sim);
        assert!((spans[1].duration_s() - 0.2).abs() < 1e-9);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn inverted_sim_interval_clamps_to_zero_duration() {
        let t = Tracer::new();
        let tr = t.new_trace();
        t.record_sim_s(tr, None, "x", 5.0, 1.0, vec![]);
        assert_eq!(t.spans()[0].duration_s(), 0.0);
    }
}
