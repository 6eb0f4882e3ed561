//! Metrics registry: counters, gauges, log-linear histograms.
//!
//! The registry is built for the fabric's hot paths: name lookup happens
//! once (components resolve their instruments at construction and hold
//! the `Arc`s), after which a counter increment is a relaxed atomic add
//! and a histogram record is one mutex-guarded bucket bump. Histograms
//! are **log-linear** (DDSketch-style): bucket boundaries at powers of
//! `γ = (1+α)/(1-α)` guarantee every quantile estimate is within relative
//! error `α` of an actual sample, and two histograms merge by adding
//! bucket counts — the property multi-site aggregation and the fleet's
//! merged profiles rely on.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Guaranteed relative error α of every quantile estimate.
const REL_ERR: f64 = 0.01;

/// The dense range of [`MetricsRegistry::wall_histogram_ms`]: 1 ns to
/// 1 000 s, in milliseconds.
const WALL_DENSE_MS: (f64, f64) = (1e-6, 1e6);

/// Values at or below this threshold land in the dedicated zero bucket
/// (log buckets cannot represent zero).
const ZERO_THRESHOLD: f64 = 1e-12;

/// A histogram's bucket state. Sparse: the closed loop's latencies span
/// ~10 decades (µs transfers to multi-minute solves) but touch only a
/// few hundred buckets. A histogram with a dense range keeps that range's
/// counts in `dense` instead (snapshots fold them back into `buckets`).
#[derive(Debug, Default, Clone, PartialEq)]
struct HistCore {
    buckets: BTreeMap<i32, u64>,
    /// Counts of bucket indices `dense_lo..dense_lo + dense.len()`;
    /// allocated whole on the first record, whatever its value.
    dense: Vec<u64>,
    dense_lo: i32,
    zero: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl HistCore {
    fn record(&mut self, v: f64, idx: Option<i32>, dense: Option<&RangeInclusive<i32>>) {
        // Allocated on the first record even when it lands outside the
        // range (a 0 ns duration does), so that whether a pass allocates
        // never hangs on the value timing noise gave its first sample.
        if let Some(range) = dense {
            if self.dense.is_empty() {
                self.dense = vec![0; range.clone().count()];
                self.dense_lo = *range.start();
            }
        }
        match (idx, dense) {
            (Some(i), Some(range)) if range.contains(&i) => {
                self.dense[(i - self.dense_lo) as usize] += 1;
            }
            (Some(i), _) => *self.buckets.entry(i).or_insert(0) += 1,
            (None, _) => self.zero += 1,
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    fn merge(&mut self, other: &HistCore) {
        let dense = (other.dense_lo..)
            .zip(&other.dense)
            .filter(|&(_, &n)| n > 0);
        let sparse = other.buckets.iter().map(|(&i, n)| (i, n));
        for (i, &n) in dense.chain(sparse) {
            *self.buckets.entry(i).or_insert(0) += n;
        }
        self.zero += other.zero;
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A mergeable log-linear histogram whose quantile estimates are within
/// 1 % of a sample. `record` is thread-safe: one mutex guards the buckets.
#[derive(Debug)]
pub struct Histogram {
    ln_gamma: f64,
    /// Bucket indices held densely (see [`Histogram::with_dense_range`]).
    dense: Option<RangeInclusive<i32>>,
    core: Mutex<HistCore>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let gamma = (1.0 + REL_ERR) / (1.0 - REL_ERR);
        Histogram {
            ln_gamma: gamma.ln(),
            dense: None,
            core: Mutex::new(HistCore::default()),
        }
    }

    /// Like [`Self::new`], but the buckets of values in `[lo, hi]` live in
    /// one array allocated whole on the first record (of any value, zero
    /// included); values outside stay
    /// sparse. For a histogram fed wall-clock durations: the bucket a
    /// sample lands in depends on the host's timing noise, so sparse
    /// storage would make the number of allocations depend on it too.
    pub(crate) fn with_dense_range(lo: f64, hi: f64) -> Self {
        let mut h = Histogram::new();
        h.dense = h
            .bucket_index(lo)
            .zip(h.bucket_index(hi))
            .map(|(a, b)| a..=b);
        h
    }

    /// The buckets, locked. A poisoned lock is taken as it stands, so a
    /// panic elsewhere cannot take the metrics down with it.
    fn core(&self) -> MutexGuard<'_, HistCore> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn bucket_index(&self, v: f64) -> Option<i32> {
        if v <= ZERO_THRESHOLD {
            None
        } else {
            Some((v.ln() / self.ln_gamma).ceil() as i32)
        }
    }

    /// Record one sample. Non-finite samples are dropped; non-positive
    /// samples land in the zero bucket and estimate as 0.
    pub fn record(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        let idx = self.bucket_index(v);
        self.core().record(v, idx, self.dense.as_ref());
    }

    /// [`record`](Self::record) through exclusive access, which needs no
    /// lock: for a histogram that sits behind its owner's (a profiler
    /// node's).
    pub(crate) fn record_mut(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let v = v.max(0.0);
        let idx = self.bucket_index(v);
        self.core
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .record(v, idx, self.dense.as_ref());
    }

    /// A point-in-time snapshot (dense counts folded into sparse buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut core = HistCore::default();
        core.merge(&self.core());
        HistogramSnapshot {
            ln_gamma: self.ln_gamma,
            core,
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core().count
    }

    /// Log of the bucket growth factor γ.
    pub(crate) fn ln_gamma(&self) -> f64 {
        self.ln_gamma
    }

    /// Write the occupied buckets, `(index, count)` in ascending index
    /// order, into `out` (cleared first) and return `(count, zero)`: the
    /// cumulative state a snapshot would fold, without building one.
    pub(crate) fn read_buckets(&self, out: &mut Vec<(i32, u64)>) -> (u64, u64) {
        let core = self.core();
        out.clear();
        let sparse = |r: std::ops::RangeFrom<i32>, to: Option<i32>| {
            core.buckets
                .range(r)
                .take_while(move |(&i, _)| to.is_none_or(|t| i < t))
                .map(|(&i, &n)| (i, n))
        };
        if core.dense.is_empty() {
            out.extend(sparse(i32::MIN.., None));
        } else {
            let (lo, hi) = (core.dense_lo, core.dense_lo + core.dense.len() as i32);
            out.extend(sparse(i32::MIN.., Some(lo)));
            let dense = (lo..).zip(&core.dense).filter(|&(_, &n)| n > 0);
            out.extend(dense.map(|(i, &n)| (i, n)));
            out.extend(sparse(hi.., None));
        }
        (core.count, core.zero)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Midpoint estimate of bucket `i`, `2γ^i/(γ+1)`: within ±α of every
/// value in the bucket's `(γ^(i-1), γ^i]` range.
pub(crate) fn midpoint(ln_gamma: f64, i: i32) -> f64 {
    let gamma = ln_gamma.exp();
    (i as f64 * ln_gamma).exp() * 2.0 / (gamma + 1.0)
}

/// The q-quantile rule every quantile in this crate answers by: walk
/// the zero bucket, then `buckets` in ascending index order, to the one
/// holding rank `⌊q·(count−1)⌋`, and return its midpoint. `None` when
/// the stream is empty or the buckets run out before the rank.
pub(crate) fn bucket_quantile(
    ln_gamma: f64,
    count: u64,
    zero: u64,
    buckets: impl IntoIterator<Item = (i32, u64)>,
    q: f64,
) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * (count - 1) as f64).floor() as u64;
    let mut cum = zero;
    if cum > rank {
        return Some(0.0);
    }
    for (i, n) in buckets {
        cum += n;
        if cum > rank {
            return Some(midpoint(ln_gamma, i));
        }
    }
    None
}

/// An immutable view of a [`Histogram`], itself mergeable: two snapshots
/// combine by bucket-count addition into exactly the state one histogram
/// would hold had it seen both streams.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    ln_gamma: f64,
    core: HistCore,
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.core.count
    }

    /// Sum of all samples (exact, not bucketed).
    pub(crate) fn sum(&self) -> f64 {
        self.core.sum
    }

    /// Exact smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.core.count > 0).then_some(self.core.min)
    }

    /// Exact largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.core.count > 0).then_some(self.core.max)
    }

    /// The q-quantile (`0.0 ..= 1.0`): an estimate within relative error
    /// α of the sample at rank `⌊q·(n−1)⌋` of the sorted stream.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let buckets = self.core.buckets.iter().map(|(&i, &n)| (i, n));
        let max = self.max()?;
        Some(
            bucket_quantile(self.ln_gamma, self.core.count, self.core.zero, buckets, q)
                .unwrap_or(max),
        )
    }

    /// Merge another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.core.merge(&other.core);
    }

    /// The samples recorded between `earlier` and this snapshot, as a new
    /// snapshot: bucket counts subtract exactly (the same mergeability
    /// property run backwards), so quantiles of the delta keep the α
    /// relative-error bound. `min`/`max` cannot be recovered exactly from
    /// cumulative state; the delta estimates them from its outermost
    /// occupied buckets, which stays within α of the true extremes.
    ///
    /// `earlier` must be an older snapshot of the *same* histogram;
    /// counter-intuitive (negative) deltas saturate to empty.
    #[cfg(test)]
    pub(crate) fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = BTreeMap::new();
        for (&i, &n) in &self.core.buckets {
            let before = earlier.core.buckets.get(&i).copied().unwrap_or(0);
            let d = n.saturating_sub(before);
            if d > 0 {
                buckets.insert(i, d);
            }
        }
        let zero = self.core.zero.saturating_sub(earlier.core.zero);
        let count = self.core.count.saturating_sub(earlier.core.count);
        let sum = (self.core.sum - earlier.core.sum).max(0.0);
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            // Midpoint estimates (2γ^i/(γ+1)) are within α of any value
            // in bucket i; the bucket *edge* would only be within 2α.
            let lo = if zero > 0 {
                0.0
            } else {
                buckets
                    .keys()
                    .next()
                    .map(|&i| midpoint(self.ln_gamma, i))
                    .unwrap_or(0.0)
            };
            let hi = buckets
                .keys()
                .next_back()
                .map(|&i| midpoint(self.ln_gamma, i))
                .unwrap_or(0.0);
            (lo, hi)
        };
        HistogramSnapshot {
            ln_gamma: self.ln_gamma,
            core: HistCore {
                buckets,
                zero,
                count,
                sum,
                min,
                max,
                ..HistCore::default()
            },
        }
    }
}

/// One named instrument.
#[derive(Clone, Debug)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named instrument registry.
///
/// Lookup is get-or-create; components resolve their instruments once
/// and hold the `Arc`s. Re-registering a name as a different instrument
/// kind returns a fresh detached instrument (a programming error made
/// visible by its absence from snapshots) rather than clobbering data.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    names: RwLock<Names>,
}

/// Everything a registry knows by name, behind its one lock.
#[derive(Debug, Default)]
struct Names {
    instruments: BTreeMap<String, Instrument>,
    help: BTreeMap<String, String>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The names, read-locked. Poison is recovered as in
    /// `Histogram::core`.
    fn names(&self) -> RwLockReadGuard<'_, Names> {
        self.names.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The names, write-locked.
    fn names_mut(&self) -> RwLockWriteGuard<'_, Names> {
        self.names.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        wrap: impl Fn(Arc<T>) -> Instrument,
        unwrap: impl Fn(&Instrument) -> Option<Arc<T>>,
        make: impl Fn() -> T,
    ) -> Arc<T> {
        if let Some(found) = self.names().instruments.get(name).and_then(&unwrap) {
            return found;
        }
        let map = &mut self.names_mut().instruments;
        match map.get(name).and_then(&unwrap) {
            Some(found) => found,
            None if map.contains_key(name) => Arc::new(make()), // kind mismatch: detached
            None => {
                let fresh = Arc::new(make());
                map.insert(name.to_string(), wrap(Arc::clone(&fresh)));
                fresh
            }
        }
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            Instrument::Counter,
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            Counter::default,
        )
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            Instrument::Gauge,
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            Gauge::default,
        )
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            Histogram::new,
        )
    }

    /// The instrument registered under `name`, if any (never creates).
    pub(crate) fn find(&self, name: &str) -> Option<Instrument> {
        self.names().instruments.get(name).cloned()
    }

    /// Call `f` on every registered instrument, in name order.
    pub(crate) fn visit(&self, mut f: impl FnMut(&str, &Instrument)) {
        for (name, inst) in &self.names().instruments {
            f(name, inst);
        }
    }

    /// Get or create a histogram for wall-clock durations in
    /// milliseconds. Its buckets from 1 ns to 1 000 s (the profiler's
    /// dense range) live in one array, so how many allocations recording
    /// makes does not depend on the host's timing noise. Snapshots and
    /// quantiles are those of [`histogram`](Self::histogram).
    pub fn wall_histogram_ms(&self, name: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            Instrument::Histogram,
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || Histogram::with_dense_range(WALL_DENSE_MS.0, WALL_DENSE_MS.1),
        )
    }

    /// Register a one-line help text for an instrument name, surfaced by
    /// the Prometheus exporter as a `# HELP` line. Optional: names with
    /// no registered help render exactly as before. Last write wins.
    pub fn set_help(&self, name: &str, help: &str) {
        let help_texts = &mut self.names_mut().help;
        help_texts.insert(name.to_string(), help.to_string());
    }

    /// A point-in-time snapshot of every registered instrument, sorted
    /// by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let names = self.names();
        let mut snap = MetricsSnapshot {
            help: names.help.clone(),
            ..MetricsSnapshot::default()
        };
        for (name, inst) in &names.instruments {
            Self::snap_one(&mut snap, name, inst);
        }
        snap
    }

    /// A snapshot restricted to the named instruments (no help texts),
    /// as the retired string-keyed window took it.
    #[cfg(test)]
    pub(crate) fn snapshot_of(
        &self,
        names: &std::collections::BTreeSet<String>,
    ) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let map = &self.names().instruments;
        for name in names {
            if let Some(inst) = map.get(name) {
                Self::snap_one(&mut snap, name, inst);
            }
        }
        snap
    }

    fn snap_one(snap: &mut MetricsSnapshot, name: &str, inst: &Instrument) {
        match inst {
            Instrument::Counter(c) => {
                snap.counters.insert(name.to_string(), c.get());
            }
            Instrument::Gauge(g) => {
                snap.gauges.insert(name.to_string(), g.get());
            }
            Instrument::Histogram(h) => {
                snap.histograms.insert(name.to_string(), h.snapshot());
            }
        }
    }
}

/// A sorted point-in-time view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Registered help texts by name (optional; often empty).
    pub help: BTreeMap<String, String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_range_only_changes_storage() {
        let sparse = Histogram::new();
        let dense = Histogram::with_dense_range(1.0, 1e3);
        // Zero, below, inside (both edges) and above the dense range.
        for v in [0.0, 0.25, 1.0, 7.5, 7.5, 640.0, 1e3, 4e4] {
            sparse.record(v);
            dense.record(v);
        }
        let (s, d) = (sparse.snapshot(), dense.snapshot());
        assert_eq!(s, d);
        let earlier = dense.snapshot();
        dense.record(7.5);
        sparse.record(7.5);
        assert_eq!(
            sparse.snapshot().delta_since(&s),
            dense.snapshot().delta_since(&earlier)
        );
        assert_eq!(dense.core().dense.len(), 347, "1 ..= 1e3 at 1 %");
        assert_eq!(dense.core().buckets.len(), 2, "0.25 and 4e4");
    }

    #[test]
    fn dense_array_comes_with_the_first_record_of_any_value() {
        // A wall-clock duration can read 0 ns; the array must not wait
        // for the first nonzero sample, or the cycle that allocates it
        // would depend on timing noise.
        for first in [0.0, 0.25, 7.5, 4e4] {
            let h = Histogram::with_dense_range(1.0, 1e3);
            h.record(first);
            assert_eq!(h.core().dense.len(), 347, "first sample {first}");
            let sparse = Histogram::new();
            sparse.record(first);
            assert_eq!(h.snapshot(), sparse.snapshot());
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.counter("a").add(4);
        reg.gauge("g").set(2.5);
        assert_eq!(reg.counter("a").get(), 5);
        assert_eq!(reg.gauge("g").get(), 2.5);
    }

    #[test]
    fn kind_mismatch_returns_detached_instrument() {
        let reg = MetricsRegistry::new();
        reg.counter("x").inc();
        let g = reg.gauge("x"); // wrong kind: detached, does not clobber
        g.set(9.0);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["x"], 1);
        assert!(!snap.gauges.contains_key("x"));
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let h = Histogram::new();
        let mut vals: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.37).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_by(f64::total_cmp);
        let snap = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let est = snap.quantile(q).unwrap();
            let exact = vals[(q * (vals.len() - 1) as f64).floor() as usize];
            assert!(
                (est - exact).abs() <= 0.0101 * exact,
                "q={q}: est {est} vs exact {exact}"
            );
        }
        assert_eq!(snap.min(), Some(0.37));
        assert!((snap.max().unwrap() - 370.0).abs() < 1e-9);
    }

    #[test]
    fn zero_and_negative_samples_estimate_as_zero() {
        let h = Histogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN); // dropped
        assert_eq!(h.count(), 2);
        assert_eq!(h.snapshot().quantile(0.5), Some(0.0));
    }

    #[test]
    fn merged_snapshots_equal_single_stream() {
        let (a, b, all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for i in 0..100u64 {
            // Integer-valued samples: f64 sums are exact in any order, so
            // full snapshot equality (including `sum`) is well-defined.
            let v = ((i * 7919) % 977 + 1) as f64;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn delta_since_recovers_the_interval_stream() {
        let h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let early = h.snapshot();
        for i in 500..=600 {
            h.record(i as f64);
        }
        let delta = h.snapshot().delta_since(&early);
        assert_eq!(delta.count(), 101);
        // Quantiles of the delta see only the second stream, within α.
        let p50 = delta.quantile(0.5).unwrap();
        assert!((p50 - 550.0).abs() <= 0.0101 * 550.0, "p50 {p50}");
        // Extremes are bucket estimates, still within α of 500/600.
        assert!((delta.min().unwrap() - 500.0).abs() <= 0.011 * 500.0);
        assert!((delta.max().unwrap() - 600.0).abs() <= 0.011 * 600.0);
        // Empty delta: identical snapshots.
        let snap = h.snapshot();
        assert_eq!(snap.delta_since(&snap).count(), 0);
    }

    /// Four threads record into one histogram behind its single lock;
    /// no sample is lost.
    #[test]
    fn concurrent_records_land_in_stripes() {
        let h = Arc::new(Histogram::default());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        assert_eq!(h.count(), 4000);
        assert_eq!(h.snapshot().count(), 4000);
    }
}
