//! Sliding-window views over a [`MetricsRegistry`].
//!
//! Cumulative counters and histograms answer "what happened since the
//! process started"; an SLO watchdog needs "what happened over the last
//! 30 minutes". [`MetricsWindow`] bridges the two without touching the
//! hot recording path: each tick it diffs every tracked instrument
//! against its state at the previous tick, producing one *interval
//! delta* — the counter increments and histogram bucket counts of that
//! interval. A bounded ring of the most recent intervals is kept summed,
//! so a [`WindowView`] reads the window without merging anything. The
//! sums reuse the log-linear histograms' mergeability (bucket-count
//! addition runs both forwards for merges and backwards for deltas), so
//! windowed quantiles keep the same α relative-error bound as the
//! cumulative ones.
//!
//! Instruments are resolved by name once and then held by handle, and
//! every per-tick buffer is reused, so a tick allocates only when a
//! histogram occupies a bucket it never held before.

use crate::metrics::{bucket_quantile, midpoint, Counter, Histogram, Instrument, MetricsRegistry};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Shape of the sliding window.
#[derive(Clone, Copy, Debug)]
pub struct WindowConfig {
    /// Virtual seconds between ticks (one sub-interval per tick).
    pub interval_s: f64,
    /// Sub-intervals retained; the window spans `interval_s * intervals`.
    pub intervals: usize,
}

impl Default for WindowConfig {
    fn default() -> Self {
        // The paper's loop: 300 s report cycles, 30-minute duty cycle.
        WindowConfig {
            interval_s: 300.0,
            intervals: 6,
        }
    }
}

/// Sorted `(bucket index, count)` pairs.
type Buckets = Vec<(i32, u64)>;

/// One interval's samples of one histogram.
#[derive(Debug, Default)]
struct HistDelta {
    buckets: Buckets,
    count: u64,
    zero: u64,
}

/// A tracked counter: its value at the last tick and its increments per
/// retained interval, kept summed.
#[derive(Debug)]
struct CounterTrack {
    handle: Arc<Counter>,
    prev: u64,
    intervals: VecDeque<u64>,
    sum: u64,
}

/// A tracked histogram: its cumulative buckets at the last tick and its
/// deltas per retained interval, kept summed in `window`.
#[derive(Debug)]
struct HistTrack {
    handle: Arc<Histogram>,
    prev: Buckets,
    /// Scratch for the next cumulative read (swapped with `prev`).
    next: Buckets,
    prev_count: u64,
    prev_zero: u64,
    intervals: VecDeque<HistDelta>,
    /// Bucket counts over the retained intervals, ascending; an entry may
    /// read 0 once its samples slide out, which no quantile can see.
    window: Buckets,
    count: u64,
    zero: u64,
}

#[derive(Debug)]
enum Track {
    Counter(CounterTrack),
    Histogram(HistTrack),
}

#[derive(Debug)]
struct Tracked {
    name: String,
    track: Track,
}

impl CounterTrack {
    fn tick(&mut self, evict: bool) {
        if evict {
            self.sum -= self.intervals.pop_front().unwrap_or(0);
        }
        let v = self.handle.get();
        let d = v.saturating_sub(self.prev);
        self.prev = v;
        self.intervals.push_back(d);
        self.sum += d;
    }
}

impl HistTrack {
    fn tick(&mut self, evict: bool) {
        let mut spare = HistDelta::default();
        if evict {
            if let Some(old) = self.intervals.pop_front() {
                for &(i, n) in &old.buckets {
                    if let Ok(k) = self.window.binary_search_by_key(&i, |&(j, _)| j) {
                        self.window[k].1 -= n;
                    }
                }
                self.count -= old.count;
                self.zero -= old.zero;
                spare = old;
            }
        }
        let (count, zero) = self.handle.read_buckets(&mut self.next);
        spare.buckets.clear();
        let mut before = self.prev.iter().peekable();
        for &(i, n) in &self.next {
            while before.next_if(|&&(j, _)| j < i).is_some() {}
            let was = before.next_if(|&&(j, _)| j == i).map_or(0, |&(_, m)| m);
            let d = n.saturating_sub(was);
            if d > 0 {
                spare.buckets.push((i, d));
                match self.window.binary_search_by_key(&i, |&(j, _)| j) {
                    Ok(k) => self.window[k].1 += d,
                    Err(k) => self.window.insert(k, (i, d)),
                }
            }
        }
        spare.count = count.saturating_sub(self.prev_count);
        spare.zero = zero.saturating_sub(self.prev_zero);
        self.count += spare.count;
        self.zero += spare.zero;
        std::mem::swap(&mut self.prev, &mut self.next);
        (self.prev_count, self.prev_zero) = (count, zero);
        self.intervals.push_back(spare);
    }

    fn quantile(&self, q: f64) -> Option<f64> {
        let ln_gamma = self.handle.ln_gamma();
        let buckets = self.window.iter().copied();
        bucket_quantile(ln_gamma, self.count, self.zero, buckets, q).or_else(|| {
            // Unreachable while bucket counts sum to the sample count;
            // answers as a merged snapshot would: its largest sample.
            (self.count > 0).then(|| {
                let top = self.window.iter().rev().find(|&&(_, n)| n > 0);
                top.map_or(0.0, |&(i, _)| midpoint(ln_gamma, i))
            })
        })
    }
}

/// A view of the last N intervals of a [`MetricsWindow`].
#[derive(Clone, Copy, Debug)]
pub struct WindowView<'a> {
    /// Virtual time of the oldest interval in the view (s).
    pub from_s: f64,
    /// Virtual time of the newest interval in the view (s).
    pub to_s: f64,
    window: &'a MetricsWindow,
}

impl WindowView<'_> {
    fn track(&self, name: &str) -> Option<&Track> {
        let mut tracked = self.window.tracked.iter();
        tracked.find(|t| t.name == name).map(|t| &t.track)
    }

    /// Counter increments over the window (0 for an unknown counter).
    pub fn delta(&self, name: &str) -> u64 {
        match self.track(name) {
            Some(Track::Counter(c)) => c.sum,
            _ => 0,
        }
    }

    /// Windowed histogram quantile (`None` if absent or empty).
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        match self.track(name) {
            Some(Track::Histogram(h)) => h.quantile(q),
            _ => None,
        }
    }

    /// Windowed histogram sample count.
    pub(crate) fn hist_count(&self, name: &str) -> u64 {
        match self.track(name) {
            Some(Track::Histogram(h)) => h.count,
            _ => 0,
        }
    }
}

/// Maintains the ring of interval deltas over one registry.
///
/// Drive it from the discrete-event loop: call [`MetricsWindow::tick`]
/// once per interval boundary with the registry and the current virtual
/// time. Memory is bounded by `intervals` × tracked instruments.
#[derive(Debug, Default)]
pub struct MetricsWindow {
    cfg: WindowConfig,
    /// Virtual time of each retained interval, oldest first.
    times: VecDeque<f64>,
    tracked: Vec<Tracked>,
    /// When set, ticks track only these instruments, and the names not
    /// registered yet wait here. A window that feeds a fixed consumer
    /// (the SLO watchdog) then costs per tick what that consumer reads,
    /// not what the whole registry holds.
    focus: Option<Vec<String>>,
}

impl MetricsWindow {
    /// An empty window with the given shape.
    pub fn new(cfg: WindowConfig) -> Self {
        MetricsWindow {
            cfg,
            times: VecDeque::with_capacity(cfg.intervals.max(1)),
            tracked: Vec::new(),
            focus: None,
        }
    }

    /// Restrict every subsequent tick to the named instruments. Metrics
    /// outside the set no longer appear in views; call before the first
    /// tick so the window's history is uniform.
    pub fn focus(&mut self, names: BTreeSet<String>) {
        self.tracked.retain(|t| names.contains(&t.name));
        let pending = names
            .into_iter()
            .filter(|n| !self.tracked.iter().any(|t| &t.name == n));
        self.focus = Some(pending.collect());
    }

    /// Start tracking `inst` under `name`. It reads as silent over the
    /// intervals already retained.
    fn track(&mut self, name: &str, inst: Instrument) {
        let held = self.times.len();
        let track = match inst {
            Instrument::Counter(handle) => Track::Counter(CounterTrack {
                handle,
                prev: 0,
                intervals: std::iter::repeat_n(0, held).collect(),
                sum: 0,
            }),
            Instrument::Histogram(handle) => Track::Histogram(HistTrack {
                handle,
                prev: Vec::new(),
                next: Vec::new(),
                prev_count: 0,
                prev_zero: 0,
                intervals: std::iter::repeat_with(HistDelta::default)
                    .take(held)
                    .collect(),
                window: Vec::new(),
                count: 0,
                zero: 0,
            }),
            Instrument::Gauge(_) => return,
        };
        self.tracked.push(Tracked {
            name: name.to_string(),
            track,
        });
    }

    /// Track the instruments registered since the last tick.
    fn resolve(&mut self, registry: &MetricsRegistry) {
        match self.focus.take() {
            Some(mut pending) => {
                pending.retain(|name| match registry.find(name) {
                    Some(inst) => {
                        self.track(name, inst);
                        false
                    }
                    None => true,
                });
                self.focus = Some(pending);
            }
            None => registry.visit(|name, inst| {
                if !self.tracked.iter().any(|t| t.name == name) {
                    self.track(name, inst.clone());
                }
            }),
        }
    }

    /// Close the current interval at virtual time `t_s`: diff every
    /// tracked instrument against the previous tick and push the deltas
    /// into the ring (evicting the oldest interval once full).
    pub fn tick(&mut self, registry: &MetricsRegistry, t_s: f64) {
        self.resolve(registry);
        let evict = self.times.len() >= self.cfg.intervals.max(1);
        if evict {
            self.times.pop_front();
        }
        self.times.push_back(t_s);
        for t in &mut self.tracked {
            match &mut t.track {
                Track::Counter(c) => c.tick(evict),
                Track::Histogram(h) => h.tick(evict),
            }
        }
    }

    /// The retained intervals as one view.
    pub fn view(&self) -> WindowView<'_> {
        WindowView {
            from_s: self.times.front().copied().unwrap_or(0.0),
            to_s: self.times.back().copied().unwrap_or(0.0),
            window: self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::oracle::StringWindow;
    use xg_prop::prelude::*;

    fn window() -> MetricsWindow {
        MetricsWindow::new(WindowConfig {
            interval_s: 300.0,
            intervals: 3,
        })
    }

    #[test]
    fn counter_deltas_slide_out_of_the_window() {
        let reg = MetricsRegistry::new();
        let mut w = window();
        let c = reg.counter("events");
        // 10 events in interval 1, then silence.
        c.add(10);
        w.tick(&reg, 300.0);
        assert_eq!(w.view().delta("events"), 10);
        for k in 2..=4 {
            w.tick(&reg, k as f64 * 300.0);
        }
        // Interval 1 has slid out: the burst is gone from the view.
        assert_eq!(w.view().delta("events"), 0);
        assert_eq!((w.view().from_s, w.view().to_s), (600.0, 1200.0));
    }

    #[test]
    fn windowed_quantiles_see_only_recent_samples() {
        let reg = MetricsRegistry::new();
        let mut w = window();
        let h = reg.histogram("latency_ms");
        for _ in 0..100 {
            h.record(1.0);
        }
        w.tick(&reg, 300.0);
        for _ in 0..100 {
            h.record(1000.0);
        }
        w.tick(&reg, 600.0);
        // Cumulative p50 is 1.0 (or near), but the most recent interval
        // alone is all-slow; a 2-interval view mixes both.
        let view = w.view();
        assert_eq!(view.hist_count("latency_ms"), 200);
        let p99 = view.quantile("latency_ms", 0.99).unwrap();
        assert!((p99 - 1000.0).abs() <= 0.02 * 1000.0, "p99 {p99}");
        // Slide the fast interval out entirely.
        w.tick(&reg, 900.0);
        w.tick(&reg, 1200.0);
        let view = w.view();
        assert_eq!(view.hist_count("latency_ms"), 100);
        let p50 = view.quantile("latency_ms", 0.5).unwrap();
        assert!((p50 - 1000.0).abs() <= 0.02 * 1000.0, "p50 {p50}");
    }

    #[test]
    fn empty_window_is_inert() {
        let w = window();
        let view = w.view();
        assert_eq!(view.delta("anything"), 0);
        assert!(view.quantile("anything", 0.5).is_none());
    }

    /// An instrument registered after some ticks reads as silent over
    /// the intervals before it existed, in both window kinds.
    #[test]
    fn late_instruments_join_the_window() {
        let reg = MetricsRegistry::new();
        let mut w = window();
        w.focus(["late".to_string(), "lat".to_string()].into());
        w.tick(&reg, 300.0);
        reg.counter("late").add(4);
        reg.gauge("lat").set(1.0); // a gauge: never windowed
        w.tick(&reg, 600.0);
        assert_eq!(w.view().delta("late"), 4);
        assert_eq!(w.view().hist_count("lat"), 0);
        for k in 3..=5 {
            w.tick(&reg, k as f64 * 300.0);
        }
        assert_eq!(w.view().delta("late"), 0);
    }

    /// One step of a random registry workload.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Record into histogram `h{0,1}` (registered on first use).
        Record(usize, f64),
        /// Add to counter `c{0,1}`.
        Add(usize, u64),
        /// Set the gauge `g0`.
        Gauge(f64),
        /// Close an interval.
        Tick,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            // Values over 12 decades, zeros and negatives included.
            (0usize..2, -3.0f64..9.0, 0u8..8).prop_map(|(h, e, z)| {
                let v = match z {
                    0 => 0.0,
                    1 => -1.0,
                    _ => 10f64.powf(e),
                };
                Op::Record(h, v)
            }),
            (0usize..2, 0u64..1000).prop_map(|(c, n)| Op::Add(c, n)),
            (0.0f64..5.0).prop_map(Op::Gauge),
            Just(Op::Tick),
            Just(Op::Tick),
        ]
    }

    const NAMES: [&str; 6] = ["h0", "h1", "c0", "c1", "g0", "absent"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The handle-based window answers bit for bit as the retired
        /// string-keyed one: every windowed quantile, sample count and
        /// counter delta, after every tick, focused or not.
        #[test]
        fn matches_the_string_keyed_oracle(
            ops in xg_prop::collection::vec(op(), 1..160),
            intervals in 1usize..5,
            focused in xg_prop::bool::ANY,
        ) {
            let reg = MetricsRegistry::new();
            let cfg = WindowConfig { interval_s: 300.0, intervals };
            let (mut w, mut oracle) = (MetricsWindow::new(cfg), StringWindow::new(cfg));
            if focused {
                let focus: BTreeSet<String> =
                    ["h0", "c1", "g0", "absent"].map(String::from).into();
                w.focus(focus.clone());
                oracle.focus(focus);
            }
            let mut t = 0.0;
            for op in ops {
                match op {
                    Op::Record(h, v) => reg.histogram(NAMES[h]).record(v),
                    Op::Add(c, n) => reg.counter(NAMES[2 + c]).add(n),
                    Op::Gauge(v) => reg.gauge("g0").set(v),
                    Op::Tick => {
                        t += 300.0;
                        w.tick(&reg, t);
                        oracle.tick(&reg, t);
                        let (got, want) = (w.view(), oracle.view());
                        prop_assert_eq!((got.from_s, got.to_s), (want.from_s, want.to_s));
                        for name in NAMES {
                            prop_assert_eq!(got.delta(name), want.delta(name), "delta {}", name);
                            prop_assert_eq!(got.hist_count(name), want.hist_count(name));
                            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                                let bits = |v: Option<f64>| v.map(f64::to_bits);
                                prop_assert_eq!(
                                    bits(got.quantile(name, q)),
                                    bits(want.quantile(name, q)),
                                    "q{} of {} at t={}", q, name, t
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
