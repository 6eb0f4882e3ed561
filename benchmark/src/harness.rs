//! The measuring harness: slice-floor timing, digests, spans and the
//! result line. Nothing here knows about a particular layer.
//!
//! **Slice floor.** A workload is a fixed sequence of *slices* (one public
//! call each). Every pass rebuilds state from the seed and runs every
//! slice, so slice *i* does bit-identical work in every pass and its cost
//! is the minimum over passes; a timing metric is a sum of those minima.
//! On a shared 2-vCPU box a neighbour stretches whole scheduling quanta,
//! which moves medians by tens of percent, but a slice of at most ~13 ms
//! regularly fits between interruptions, so its minimum repeats within
//! about 1 % (measurements in README.md).
//!
//! **Reference mix.** Which slices carry a rare heavy event (a CFD solve
//! landing in a report cycle) is itself drawn from the seed: a quiet week
//! triggers 63–97 solves of ~3 ms each depending on the seed, which moves a
//! plain sum by ±10 % while the cost of a plain cycle and the cost of a
//! solve each repeat within 1 %. [`unit_time_ns`] therefore prices the two
//! strata separately and reports the time of a unit with a fixed number of
//! events. With no events it is the plain floor sum per unit.

use std::fmt::Write as _;
use std::ops::Range;
use std::time::Instant;

/// Per-slice minimum over passes, in nanoseconds.
pub struct SliceTable {
    floor_ns: Vec<u64>,
}

impl SliceTable {
    pub fn new(slices: usize) -> Self {
        SliceTable {
            floor_ns: vec![u64::MAX; slices],
        }
    }

    pub fn record(&mut self, slice: usize, ns: u64) {
        let f = &mut self.floor_ns[slice];
        *f = (*f).min(ns);
    }

    pub fn floors(&self, range: Range<usize>) -> &[u64] {
        &self.floor_ns[range]
    }

    /// Sum of the floors of `range`; 0 for an empty range.
    pub fn floor_sum(&self, range: Range<usize>) -> u64 {
        self.floors(range).iter().sum()
    }

    /// The slowest slice floor in `range` (the ≤ 13 ms rule is about this).
    pub fn max_floor(&self, range: Range<usize>) -> u64 {
        self.floors(range).iter().copied().max().unwrap_or(0)
    }
}

/// Slice-floor time of one unit that holds `slices_per_unit` slices and
/// `reference_events` heavy events. `events[i]` is how many events slice
/// `i` carried (empty: none anywhere). A slice without events costs the
/// mean floor of such slices; an event costs what its slices took beyond
/// that, per event.
pub fn unit_time_ns(
    floors: &[u64],
    events: &[u32],
    slices_per_unit: f64,
    reference_events: f64,
) -> f64 {
    let count = |i: usize| events.get(i).copied().unwrap_or(0);
    let (mut plain_ns, mut plain, mut heavy_ns, mut heavy, mut n_events) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (i, ns) in floors.iter().enumerate() {
        if count(i) == 0 {
            plain_ns += *ns as f64;
            plain += 1.0;
        } else {
            heavy_ns += *ns as f64;
            heavy += 1.0;
            n_events += f64::from(count(i));
        }
    }
    let plain_mean = if plain > 0.0 { plain_ns / plain } else { 0.0 };
    let per_event = if n_events > 0.0 {
        (heavy_ns - heavy * plain_mean) / n_events
    } else {
        0.0
    };
    slices_per_unit * plain_mean + reference_events * per_event
}

/// The drill form of the estimator (no digest, no spans): the floors of
/// `slices` calls of `slice` over `passes` freshly built states.
pub fn floor_table<S>(
    passes: usize,
    slices: usize,
    mut build: impl FnMut() -> S,
    mut slice: impl FnMut(&mut S, usize),
) -> SliceTable {
    let mut table = SliceTable::new(slices);
    for _ in 0..passes {
        let mut state = build();
        for i in 0..slices {
            let t = Instant::now();
            slice(&mut state, i);
            table.record(i, t.elapsed().as_nanos() as u64);
        }
    }
    table
}

/// FNV-1a over everything a pass produced; equal digests mean bit-equal
/// simulated results.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// How a pass is run.
#[derive(Clone, Copy)]
pub struct Mode {
    /// Per-layer run: observability on where the program has it.
    pub traced: bool,
    /// Worker / thread count handed to the program (1 for every timing).
    pub workers: usize,
}

impl Mode {
    pub const SERIAL: Mode = Mode {
        traced: false,
        workers: 1,
    };
    pub const TRACED: Mode = Mode {
        traced: true,
        workers: 1,
    };
}

/// What a finished pass hands back for checking.
pub struct Outcome {
    pub digest: u64,
    /// One line of simulated results, for the reader.
    pub summary: String,
    /// Heavy events per slice (see [`unit_time_ns`]); empty when the
    /// workload has none.
    pub events: Vec<u32>,
    /// Invariants the pass broke, as messages.
    pub broken: Vec<String>,
    /// The program's own wall spans of this pass (traced fabric passes).
    pub obs_spans: Vec<xg_obs::SpanRecord>,
}

/// A deterministic, fixed-work sequence of public calls.
pub trait Workload {
    type State;
    fn name(&self) -> &'static str;
    /// Span name of one slice.
    fn slice_name(&self) -> &'static str;
    /// Slices per pass, warm-up prefix included.
    fn slices(&self) -> usize;
    /// Leading slices that count toward `setup_s` rather than the unit time.
    fn warmup(&self) -> usize;
    /// Simulated units (days, fleet seconds, solves) the measured slices cover.
    fn units(&self) -> f64;
    /// `host_ms_per_unit` under the name this workload's unit gives it.
    fn unit_line(&self, host_ms: f64) -> String;
    /// Heavy events in the reference unit (see [`unit_time_ns`]).
    fn reference_events(&self) -> f64 {
        0.0
    }
    /// Share by which a pass's allocation counts may differ from the first
    /// pass's: 0 unless the program's allocations depend on wall time.
    fn alloc_tolerance(&self) -> f64 {
        0.0
    }
    fn build(&self, seed: u64, mode: Mode) -> Self::State;
    fn slice(&self, state: &mut Self::State, i: usize) -> Result<(), String>;
    fn finish(&self, state: Self::State) -> Outcome;
}

/// One harness span; `parent` indexes the same list.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// What one pass measured besides the floors it fed into the table.
pub struct PassReport {
    pub outcome: Outcome,
    /// Wall time of the measured slices of this pass.
    pub measured_ns: u64,
    /// Slices that returned `Err`.
    pub failed: u64,
    /// `(allocations, bytes)` made while the measured slices ran.
    pub alloc: (u64, u64),
    /// Index of this pass's span in the span list, when spans are kept.
    pub pass_span: Option<usize>,
}

/// Set up only: build a state and run its warm-up prefix into rows
/// `0..=warmup()` of `table`, then drop it. Repeated back to back before
/// the passes, this gives `setup_s` many more samples than the passes alone
/// would, all of them with warm caches.
pub fn run_setup<W: Workload>(w: &W, seed: u64, mode: Mode, table: &mut SliceTable) {
    let t = Instant::now();
    let mut state = w.build(seed, mode);
    table.record(0, t.elapsed().as_nanos() as u64);
    for i in 0..w.warmup() {
        let t = Instant::now();
        // A failing warm-up slice is counted by the full passes.
        let _ = w.slice(&mut state, i);
        table.record(i + 1, t.elapsed().as_nanos() as u64);
    }
}

/// Run one pass. `table` has `slices() + 1` rows: row 0 is the build,
/// row `i + 1` is slice `i`. Spans are recorded only when `spans` is given
/// and are stamped relative to `epoch`.
pub fn run_pass<W: Workload>(
    w: &W,
    seed: u64,
    mode: Mode,
    table: &mut SliceTable,
    mut spans: Option<&mut Vec<Span>>,
    epoch: Instant,
) -> PassReport {
    let since = |t: Instant| t.duration_since(epoch).as_nanos() as u64;
    let pass_start = Instant::now();
    let mut state = w.build(seed, mode);
    let built = Instant::now();
    table.record(0, built.duration_since(pass_start).as_nanos() as u64);
    let pass_span = spans.as_deref_mut().map(|s| {
        s.push(Span {
            name: "pass",
            start_ns: since(pass_start),
            end_ns: 0,
            parent: None,
        });
        let pass = s.len() - 1;
        s.push(Span {
            name: "build",
            start_ns: since(pass_start),
            end_ns: since(built),
            parent: Some(pass),
        });
        pass
    });
    let (mut measured_ns, mut failed) = (0u64, 0u64);
    let mut alloc_before = (0, 0);
    for i in 0..w.slices() {
        if i == w.warmup() {
            alloc_before = crate::alloc::snapshot();
        }
        let t = Instant::now();
        let result = w.slice(&mut state, i);
        let end = Instant::now();
        let ns = end.duration_since(t).as_nanos() as u64;
        table.record(i + 1, ns);
        if i >= w.warmup() {
            measured_ns += ns;
        }
        failed += u64::from(result.is_err());
        if let Some(s) = spans.as_deref_mut() {
            s.push(Span {
                name: w.slice_name(),
                start_ns: since(t),
                end_ns: since(end),
                parent: pass_span,
            });
        }
    }
    let alloc_after = crate::alloc::snapshot();
    let outcome = w.finish(state);
    if let (Some(s), Some(p)) = (spans, pass_span) {
        s[p].end_ns = since(Instant::now());
    }
    PassReport {
        outcome,
        measured_ns,
        failed,
        alloc: (
            alloc_after.0 - alloc_before.0,
            alloc_after.1 - alloc_before.1,
        ),
        pass_span,
    }
}

pub fn median(values: &mut [u64]) -> u64 {
    values.sort_unstable();
    values[values.len() / 2]
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A named value with its unit, as printed and as put in the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The contract's last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The span list as one JSON document (`id` is the list index).
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if id + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{sep}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_keeps_the_minimum_of_each_slice() {
        let mut t = SliceTable::new(3);
        for pass in [[30, 20, 10], [10, 40, 10], [20, 20, 5]] {
            for (i, ns) in pass.iter().enumerate() {
                t.record(i, *ns);
            }
        }
        assert_eq!(t.floors(0..3), &[10, 20, 5]);
        assert_eq!(t.floor_sum(0..3), 35);
        assert_eq!(t.floor_sum(1..3), 25);
        assert_eq!(t.floor_sum(3..3), 0);
        assert_eq!(t.max_floor(0..3), 20);
    }

    #[test]
    fn floor_table_rebuilds_state_for_every_pass() {
        let mut builds = 0;
        let mut calls = Vec::new();
        floor_table(
            3,
            4,
            || {
                builds += 1;
                0usize
            },
            |seen, i| {
                assert_eq!(*seen, i, "slices run in order on a fresh state");
                *seen += 1;
                calls.push(i);
            },
        );
        assert_eq!(builds, 3);
        assert_eq!(calls.len(), 12);
    }

    #[test]
    fn unit_time_without_events_is_the_floor_sum_per_unit() {
        let floors = [100, 200, 300, 400];
        // 4 slices cover 2 units of 2 slices each.
        assert_eq!(unit_time_ns(&floors, &[], 2.0, 10.0), 500.0);
        assert_eq!(unit_time_ns(&floors, &[0, 0, 0, 0], 2.0, 10.0), 500.0);
    }

    #[test]
    fn unit_time_does_not_depend_on_how_many_events_a_seed_drew() {
        // A plain slice costs 100 ns and an event 300 ns more, however many
        // events the run happened to contain and wherever they fell.
        let few = unit_time_ns(
            &[100, 400, 100, 100, 100, 100],
            &[0, 1, 0, 0, 0, 0],
            6.0,
            2.0,
        );
        let many = unit_time_ns(
            &[400, 100, 700, 100, 400, 100],
            &[1, 0, 2, 0, 1, 0],
            6.0,
            2.0,
        );
        assert_eq!(few, 6.0 * 100.0 + 2.0 * 300.0);
        assert_eq!(many, few);
    }

    #[test]
    fn digest_is_fnv1a_and_sees_order_and_sign() {
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c, "FNV-1a 64 test vector");
        let of = |values: &[f64]| {
            let mut d = Digest::new();
            for v in values {
                d.f64(*v);
            }
            d.value()
        };
        assert_eq!(of(&[1.5, 2.5]), of(&[1.5, 2.5]));
        assert_ne!(of(&[1.5, 2.5]), of(&[2.5, 1.5]));
        assert_ne!(of(&[0.0]), of(&[-0.0]), "bits, not values");
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [
            Metric::new("latency_ms", 1.2034, "ms"),
            Metric::new("setup_s", 0.8127, "s"),
        ];
        assert_eq!(
            result_line(true, 1000, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn spans_name_their_parent_by_index() {
        let spans = [
            Span {
                name: "pass",
                start_ns: 0,
                end_ns: 9,
                parent: None,
            },
            Span {
                name: "slice",
                start_ns: 1,
                end_ns: 4,
                parent: Some(0),
            },
        ];
        let json = spans_json("w", 7, &spans);
        assert!(json.starts_with("{\"workload\": \"w\", \"seed\": 7, \"spans\": [\n"));
        assert!(json.contains(
            "{\"id\": 0, \"name\": \"pass\", \"start_ns\": 0, \"end_ns\": 9, \"parent\": null},\n"
        ));
        assert!(json.contains(
            "{\"id\": 1, \"name\": \"slice\", \"start_ns\": 1, \"end_ns\": 4, \"parent\": 0}\n"
        ));
    }

    #[test]
    fn median_of_an_odd_and_an_even_count() {
        assert_eq!(median(&mut [5, 1, 3]), 3);
        assert_eq!(median(&mut [4, 1, 3, 2]), 3);
    }
}
