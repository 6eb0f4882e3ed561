//! Exporters: JSONL traces, Prometheus-style text, latency-budget table.
//!
//! JSON is emitted by hand — the schema is five fixed fields plus a
//! string map, and hand-rolling keeps the crate dependency-free. The
//! budget table is the §4.4 artifact: group a span stream by stage name
//! and attribute the closed-loop latency per stage.

use crate::clock::ClockDomain;
use crate::metrics::MetricsSnapshot;
use crate::span::{SpanId, SpanRecord};
use std::fmt::Write as _;

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render spans as JSON Lines: one object per span, stable field order,
/// timestamps in integer microseconds of the span's clock domain.
pub fn spans_to_jsonl(spans: &[SpanRecord]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = write!(out, "{{\"trace\":{},\"span\":{},\"parent\":", s.trace, s.id);
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
    out
}

/// Parse a JSONL span dump back into [`SpanRecord`]s.
///
/// Accepts both formats this crate writes: raw [`spans_to_jsonl`] lines
/// and black-box bundle lines (where span objects carry
/// `"kind":"span"` and other kinds — meta, notes, metrics — interleave).
/// Non-span and malformed lines are skipped rather than failing the
/// file: a black box from a crashed run is exactly when partial data
/// still matters. The parser is hand-rolled like the writer, keeping
/// the crate dependency-free; it understands only the flat shape these
/// exporters emit, not arbitrary JSON.
pub fn parse_spans_jsonl(text: &str) -> Vec<SpanRecord> {
    text.lines().filter_map(parse_span_line).collect()
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.skip_ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.i - 1;
                        let mut end = self.i;
                        while end < self.b.len() && (self.b[end] & 0xC0) == 0x80 {
                            end += 1;
                        }
                        out.push_str(std::str::from_utf8(self.b.get(start..end)?).ok()?);
                        self.i = end;
                    }
                }
            }
        }
    }

    /// A numeric token, permissively (integers, floats, exponents).
    fn number(&mut self) -> Option<f64> {
        self.skip_ws();
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn literal(&mut self, word: &str) -> Option<()> {
        self.skip_ws();
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Some(())
        } else {
            None
        }
    }

    /// A `{"k":"v",...}` object of string values.
    fn string_map(&mut self) -> Option<Vec<(String, String)>> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Some(out);
        }
        loop {
            let k = self.string()?;
            self.eat(b':')?;
            let v = self.string()?;
            out.push((k, v));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Some(out);
                }
                _ => return None,
            }
        }
    }
}

fn parse_span_line(line: &str) -> Option<SpanRecord> {
    let mut c = Cursor {
        b: line.as_bytes(),
        i: 0,
    };
    c.eat(b'{')?;
    let (mut trace, mut id, mut start, mut end) = (None, None, None, None);
    let mut parent: Option<SpanId> = None;
    let (mut name, mut clock) = (None, None);
    let mut attrs = Vec::new();
    if c.peek() == Some(b'}') {
        return None;
    }
    loop {
        let key = c.string()?;
        c.eat(b':')?;
        match key.as_str() {
            "kind" => {
                // Bundle lines: only span objects are spans; everything
                // else (meta/note/metrics) is skipped wholesale.
                if c.string()? != "span" {
                    return None;
                }
            }
            "trace" => trace = Some(c.number()? as u64),
            "span" => id = Some(c.number()? as u64),
            "parent" => {
                parent = match c.peek()? {
                    b'n' => {
                        c.literal("null")?;
                        None
                    }
                    _ => Some(c.number()? as u64),
                }
            }
            "name" => name = Some(c.string()?),
            "clock" => clock = Some(c.string()?),
            "start_us" => start = Some(c.number()? as u64),
            "end_us" => end = Some(c.number()? as u64),
            "attrs" => attrs = c.string_map()?,
            _ => return None, // not a shape these exporters write
        }
        match c.peek()? {
            b',' => c.i += 1,
            b'}' => break,
            _ => return None,
        }
    }
    let domain = match clock?.as_str() {
        "sim" => ClockDomain::Sim,
        "wall" => ClockDomain::Wall,
        _ => return None,
    };
    Some(SpanRecord {
        trace: trace?,
        id: id?,
        parent,
        name: name?.into(),
        domain,
        start_us: start?,
        end_us: end?,
        attrs,
    })
}

/// Sanitize a metric name into the Prometheus charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render a metrics snapshot as Prometheus-style exposition text:
/// counters and gauges verbatim, histograms as summaries with
/// p50/p90/p99 quantile series plus `_count`/`_sum`/`_max`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    // HELP text is escaped per the exposition format: backslash and
    // newline only (HELP values may contain anything else verbatim).
    let help_line = |out: &mut String, name: &str, n: &str| {
        if let Some(h) = snap.help.get(name) {
            let escaped = h.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(out, "# HELP {n} {escaped}");
        }
    };
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        help_line(&mut out, name, &n);
        let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        help_line(&mut out, name, &n);
        let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        help_line(&mut out, name, &n);
        let _ = writeln!(out, "# TYPE {n} summary");
        // An empty histogram has no quantiles or max; emitting NaN breaks
        // most scrapers, so only `_count`/`_sum` appear until data lands.
        if h.count() > 0 {
            for q in [0.5, 0.9, 0.99] {
                if let Some(est) = h.quantile(q) {
                    let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {est}");
                }
            }
        }
        let _ = writeln!(out, "{n}_count {}", h.count());
        let _ = writeln!(out, "{n}_sum {}", h.sum());
        if let Some(max) = h.max() {
            let _ = writeln!(out, "{n}_max {max}");
        }
    }
    out
}

/// Per-stage latency attribution derived from measured spans.
#[derive(Clone, Debug, PartialEq)]
pub struct BudgetRow {
    /// Stage (span) name.
    pub stage: String,
    /// Spans observed for this stage.
    pub count: usize,
    /// Mean duration, seconds.
    pub mean_s: f64,
    /// Median duration, seconds.
    pub p50_s: f64,
    /// 99th-percentile duration, seconds.
    pub p99_s: f64,
    /// Worst duration, seconds.
    pub max_s: f64,
    /// This stage's share of the summed mean across all stages.
    pub share: f64,
}

fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).floor() as usize;
    sorted[idx]
}

/// Build the per-stage budget table for the given stage names, in the
/// given order (the closed-loop pipeline order). Stages with no spans
/// appear with zero counts so a broken pipeline is visible, not silent.
pub fn budget_table(spans: &[SpanRecord], stages: &[&str]) -> Vec<BudgetRow> {
    let mut rows: Vec<BudgetRow> = stages
        .iter()
        .map(|stage| {
            let mut durs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == *stage)
                .map(SpanRecord::duration_s)
                .collect();
            durs.sort_by(f64::total_cmp);
            let count = durs.len();
            let mean = if count == 0 {
                0.0
            } else {
                durs.iter().sum::<f64>() / count as f64
            };
            BudgetRow {
                stage: stage.to_string(),
                count,
                mean_s: mean,
                p50_s: exact_quantile(&durs, 0.5),
                p99_s: exact_quantile(&durs, 0.99),
                max_s: durs.last().copied().unwrap_or(0.0),
                share: 0.0,
            }
        })
        .collect();
    let total: f64 = rows.iter().map(|r| r.mean_s).sum();
    if total > 0.0 {
        for r in &mut rows {
            r.share = r.mean_s / total;
        }
    }
    rows
}

/// Render the budget table for humans, one row per stage.
pub fn render_budget_table(rows: &[BudgetRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>6} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "stage", "count", "mean(s)", "p50(s)", "p99(s)", "max(s)", "share"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<22} {:>6} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>6.1}%",
            r.stage,
            r.count,
            r.mean_s,
            r.p50_s,
            r.p99_s,
            r.max_s,
            r.share * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockDomain;
    use crate::metrics::MetricsRegistry;
    use crate::span::Tracer;

    fn sample_spans() -> Vec<SpanRecord> {
        let t = Tracer::new();
        let tr = t.new_trace();
        let root = t.record_sim_s(tr, None, "cycle", 0.0, 500.0, vec![]);
        t.record_sim_s(tr, Some(root), "transfer", 0.0, 0.2, vec![]);
        t.record_sim_s(
            tr,
            Some(root),
            "cfd.solve",
            10.0,
            430.0,
            vec![("quote\"key".into(), "line\nbreak".into())],
        );
        t.spans()
    }

    #[test]
    fn jsonl_is_parseable_and_escaped() {
        let spans = sample_spans();
        let jsonl = spans_to_jsonl(&spans);
        let lines: Vec<&str> = jsonl.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains(&format!("\"parent\":{}", spans[0].id)));
        assert!(lines[2].contains("quote\\\"key"));
        assert!(lines[2].contains("line\\nbreak"));
        assert!(lines[1].contains("\"clock\":\"sim\""));
        assert!(lines[1].contains("\"end_us\":200000"));
    }

    #[test]
    fn prometheus_text_covers_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("loop.cycles").add(7);
        reg.gauge("ran/occupancy").set(0.5);
        let h = reg.histogram("append_ms");
        for i in 1..=100 {
            h.record(i as f64);
        }
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE loop_cycles counter\nloop_cycles 7"));
        assert!(text.contains("# TYPE ran_occupancy gauge\nran_occupancy 0.5"));
        assert!(text.contains("# TYPE append_ms summary"));
        assert!(text.contains("append_ms_count 100"));
        assert!(text.contains("append_ms{quantile=\"0.5\"}"));
    }

    #[test]
    fn empty_histograms_emit_no_nan_series() {
        let reg = MetricsRegistry::new();
        let _ = reg.histogram("never_recorded_ms");
        let text = prometheus_text(&reg.snapshot());
        assert!(text.contains("# TYPE never_recorded_ms summary"));
        assert!(text.contains("never_recorded_ms_count 0"));
        assert!(text.contains("never_recorded_ms_sum 0"));
        assert!(!text.contains("quantile"), "no quantile series when empty");
        assert!(!text.contains("_max"), "no max series when empty");
        assert!(
            !text.contains("NaN"),
            "NaN is invalid for scrapers:\n{text}"
        );
    }

    #[test]
    fn budget_table_attributes_shares_in_pipeline_order() {
        let rows = budget_table(&sample_spans(), &["transfer", "queue.mask", "cfd.solve"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].stage, "transfer");
        assert_eq!(rows[0].count, 1);
        assert!((rows[0].mean_s - 0.2).abs() < 1e-9);
        assert_eq!(rows[1].count, 0, "missing stage visible with zero count");
        assert!((rows[2].mean_s - 420.0).abs() < 1e-9);
        assert!(rows[2].share > 0.99, "CFD dominates");
        let rendered = render_budget_table(&rows);
        assert!(rendered.contains("cfd.solve"));
        assert!(rendered.contains("queue.mask"));
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let spans = sample_spans();
        let parsed = parse_spans_jsonl(&spans_to_jsonl(&spans));
        assert_eq!(parsed, spans);
    }

    #[test]
    fn parser_reads_bundle_lines_and_skips_other_kinds() {
        let rec = crate::recorder::FlightRecorder::new(64);
        rec.note(5, "a note line");
        for s in sample_spans() {
            rec.record_span(s);
        }
        let reg = MetricsRegistry::new();
        reg.counter("c").inc();
        reg.histogram("h_ms").record(1.0);
        let ctx = crate::recorder::BundleContext {
            reason: "unit".into(),
            t_s: -1.0,
            seed: 9,
            context: vec![("k".into(), "v".into())],
            ..Default::default()
        };
        let text = crate::recorder::render_bundle(&rec, Some(&reg.snapshot()), &ctx);
        let parsed = parse_spans_jsonl(&text);
        assert_eq!(parsed, sample_spans());
    }

    #[test]
    fn parser_skips_malformed_lines() {
        let good = spans_to_jsonl(&sample_spans());
        let noisy = format!("not json\n{good}{{\"trace\":1}}\n{{}}\n");
        assert_eq!(parse_spans_jsonl(&noisy).len(), 3);
    }

    #[test]
    fn help_lines_render_only_when_registered() {
        let reg = MetricsRegistry::new();
        reg.counter("loop.cycles").add(7);
        reg.gauge("level").set(1.0);
        reg.histogram("lat_ms").record(2.0);
        let without = prometheus_text(&reg.snapshot());
        assert!(!without.contains("# HELP"), "byte-compatible when no help");
        reg.set_help("loop.cycles", "Report cycles completed");
        reg.set_help("lat_ms", "End-to-end latency\nmultiline");
        let with = prometheus_text(&reg.snapshot());
        assert!(
            with.contains("# HELP loop_cycles Report cycles completed\n# TYPE loop_cycles counter")
        );
        assert!(with.contains("# HELP lat_ms End-to-end latency\\nmultiline"));
        // Unhelped instruments render exactly as before: stripping the
        // HELP lines recovers the original output byte-for-byte.
        assert!(with.contains("# TYPE level gauge\nlevel 1"));
        let stripped: String = with
            .lines()
            .filter(|l| !l.starts_with("# HELP"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, without);
    }

    #[test]
    fn wall_spans_export_with_wall_clock_label() {
        let t = Tracer::new();
        let tr = t.new_trace();
        t.record_raw(tr, None, "sweep", ClockDomain::Wall, 10, 25, Vec::new());
        let jsonl = spans_to_jsonl(&t.spans());
        assert!(jsonl.contains("\"clock\":\"wall\""));
        assert_eq!(t.spans()[0].domain, ClockDomain::Wall);
    }
}
