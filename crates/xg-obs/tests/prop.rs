//! Property-based invariants of the log-linear histogram and the
//! black-box flight recorder.

use xg_obs::clock::ClockDomain;
use xg_obs::{FlightRecorder, Histogram, SpanRecord};
use xg_prop::prelude::*;

/// The histograms' guaranteed relative error.
const REL_ERR: f64 = 0.01;

/// Exact nearest-rank quantile of a sorted sample vector, matching the
/// rank convention `HistogramSnapshot::quantile` documents.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
    sorted[rank]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every quantile estimate is within the guaranteed relative error of
    /// the exact sample at that rank, for arbitrary positive streams
    /// spanning many decades.
    #[test]
    fn quantiles_within_relative_error_bound(
        values in xg_prop::collection::vec(1e-6f64..1e9, 1..400),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), values.len() as u64);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = snap.quantile(q).unwrap();
            let exact = exact_quantile(&sorted, q);
            prop_assert!(
                (est - exact).abs() <= REL_ERR * exact * 1.0001,
                "q={} est={} exact={}",
                q, est, exact
            );
        }
        prop_assert_eq!(snap.min().unwrap(), sorted[0]);
        prop_assert_eq!(snap.max().unwrap(), sorted[sorted.len() - 1]);
    }

    /// Merging per-shard snapshots yields exactly the state one histogram
    /// would hold had it seen the whole stream: same buckets, count,
    /// min/max, sum, and therefore identical quantile answers. Samples are
    /// integer-valued so the f64 sums are exact in any addition order and
    /// full structural equality is well-defined.
    #[test]
    fn shard_merge_equals_single_stream(
        values in xg_prop::collection::vec(1u32..1_000_000, 1..300),
        assignment in xg_prop::collection::vec(0usize..4, 300),
    ) {
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        let single = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            let v = f64::from(v);
            shards[assignment[i]].record(v);
            single.record(v);
        }
        let mut merged = shards[0].snapshot();
        for s in &shards[1..] {
            merged.merge(&s.snapshot());
        }
        prop_assert_eq!(merged, single.snapshot());
    }

    /// Merging per-shard snapshots is order-independent — forward and
    /// reverse merge orders answer every quantile identically — and the
    /// merged result stays quantile-equivalent (within the guaranteed
    /// relative error) to the exact stream, for arbitrary float streams
    /// where f64 sums are *not* exact.
    #[test]
    fn shard_merge_order_independent_and_quantile_equivalent(
        values in xg_prop::collection::vec(1e-3f64..1e7, 1..300),
        assignment in xg_prop::collection::vec(0usize..4, 300),
    ) {
        let shards: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        for (i, &v) in values.iter().enumerate() {
            shards[assignment[i]].record(v);
        }
        let snaps: Vec<_> = shards.iter().map(Histogram::snapshot).collect();
        let mut fwd = snaps[0].clone();
        for s in &snaps[1..] {
            fwd.merge(s);
        }
        let mut rev = snaps[3].clone();
        for s in snaps[..3].iter().rev() {
            rev.merge(s);
        }
        // Bucket counts and extremes add commutatively, so every
        // quantile answer is identical whichever order shards merge in.
        prop_assert_eq!(fwd.count(), rev.count());
        prop_assert_eq!(fwd.min(), rev.min());
        prop_assert_eq!(fwd.max(), rev.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(fwd.quantile(q), rev.quantile(q));
        }
        // And the merged view answers quantiles within the accuracy one
        // histogram over the whole stream guarantees.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let est = fwd.quantile(q).unwrap();
            let exact = exact_quantile(&sorted, q);
            prop_assert!(
                (est - exact).abs() <= REL_ERR * exact * 1.0001,
                "q={} est={} exact={}",
                q, est, exact
            );
        }
    }
}

/// Build a random forest of spans: `parent_pick[i]` selects span i's
/// parent among the earlier spans of the same trace (or none), and
/// `order_key` shuffles the order they reach the recorder — children
/// routinely arrive before their parents, like a multi-threaded run.
fn span_forest(
    traces: &[u8],
    parent_pick: &[u8],
    order_key: &[u32],
) -> (Vec<SpanRecord>, Vec<usize>) {
    let n = traces.len();
    let mut spans = Vec::with_capacity(n);
    for i in 0..n {
        let trace = u64::from(traces[i] % 3) + 1;
        let earlier: Vec<u64> = spans
            .iter()
            .filter(|s: &&SpanRecord| s.trace == trace)
            .map(|s| s.id)
            .collect();
        let parent = if earlier.is_empty() || parent_pick[i].is_multiple_of(4) {
            None
        } else {
            Some(earlier[usize::from(parent_pick[i]) % earlier.len()])
        };
        spans.push(SpanRecord {
            trace,
            id: i as u64 + 1,
            parent,
            name: format!("stage{}", i % 7).into(),
            domain: ClockDomain::Sim,
            start_us: i as u64 * 100,
            end_us: i as u64 * 100 + 50,
            attrs: vec![],
        });
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (order_key[i], i));
    (spans, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The recorder's memory stays within its fixed budget under any
    /// stream, every eviction is accounted for, and the surviving
    /// entries are exactly the most recent ones, oldest first.
    #[test]
    fn recorder_memory_stays_bounded(
        traces in xg_prop::collection::vec(any::<u8>(), 1..250),
        capacity in 4usize..80,
    ) {
        let n = traces.len();
        let rec = FlightRecorder::new(capacity);
        let (spans, _) = span_forest(&traces, &vec![0; n], &vec![0; n]);
        for s in spans {
            rec.record_span(s);
        }
        prop_assert_eq!(rec.len(), n.min(capacity));
        prop_assert_eq!(rec.dropped() as usize + rec.len(), n);
        let seqs: Vec<u64> = rec.entries().iter().map(|(seq, _)| *seq).collect();
        let newest: Vec<u64> = (n.saturating_sub(capacity) as u64..n as u64).collect();
        prop_assert_eq!(seqs, newest);
    }

    /// However spans interleave (children recorded before parents,
    /// traces mixed, arbitrary eviction pressure), the dump order puts
    /// every surviving parent before all of its surviving children.
    #[test]
    fn recorder_dump_preserves_causal_order(
        traces in xg_prop::collection::vec(any::<u8>(), 1..120),
        parent_pick in xg_prop::collection::vec(any::<u8>(), 120),
        order_key in xg_prop::collection::vec(any::<u32>(), 120),
        capacity in 4usize..96,
    ) {
        let rec = FlightRecorder::new(capacity);
        let (spans, order) = span_forest(&traces, &parent_pick, &order_key);
        for &i in &order {
            rec.record_span(spans[i].clone());
        }
        let dumped = rec.ordered_spans();
        prop_assert_eq!(dumped.len(), rec.len());
        for (pos, s) in dumped.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(ppos) = dumped
                    .iter()
                    .position(|c| c.trace == s.trace && c.id == p)
                {
                    prop_assert!(
                        ppos < pos,
                        "span {} at {} precedes its parent {} at {}",
                        s.id, pos, p, ppos
                    );
                }
            }
        }
    }
}
