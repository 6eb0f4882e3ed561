//! Wide-area network substrate: virtual clock, path models, topology.
//!
//! The paper's Table 1 measures CSPOT 1 KB message latency over three
//! paths: UNL→UCSB across the private 5G network plus the Internet
//! (101 ± 17 ms), UNL→UCSB over the wired Internet (17 ± 0.8 ms), and
//! UCSB→ND over the Internet (92 ± 1 ms). [`Topology::paper`] encodes a
//! path model calibrated to reproduce those numbers through the two-phase
//! append protocol in [`crate::protocol`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xg_sim::normal;
use xg_sim::rng::Rng;

/// A shared virtual clock in microseconds.
///
/// All protocol latency accounting runs in virtual time — nothing sleeps.
/// Microsecond integer resolution keeps the clock atomically updatable.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock at t = 0.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.micros.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// Advance the clock by `ms` milliseconds.
    pub(crate) fn advance_ms(&self, ms: f64) {
        let delta = (ms * 1e3).max(0.0).round() as u64;
        self.micros.fetch_add(delta, Ordering::Relaxed);
    }
}

/// One network segment's latency/loss model.
///
/// One-way delay is `base + N(0, jitter)` truncated below at `min_ms`.
#[derive(Debug, Clone, PartialEq)]
pub struct PathModel {
    /// Mean one-way delay (ms).
    pub base_one_way_ms: f64,
    /// Gaussian jitter SD (ms).
    pub jitter_sigma_ms: f64,
    /// Probability that a crossing is lost.
    pub loss_prob: f64,
    /// Hard floor on one-way delay (ms).
    pub min_ms: f64,
    /// When true the segment drops everything (network partition).
    pub partitioned: bool,
}

impl PathModel {
    /// A deterministic-ish wired segment.
    pub fn wired(base_one_way_ms: f64, jitter_sigma_ms: f64) -> Self {
        PathModel {
            base_one_way_ms,
            jitter_sigma_ms,
            loss_prob: 0.0,
            min_ms: 0.1,
            partitioned: false,
        }
    }

    /// The calibrated private-5G access segment: ~21 ms mean one-way
    /// (air-interface + UL scheduling grant latency) with heavy jitter, the
    /// source of Table 1's 17 ms standard deviation. Loss is zero here —
    /// the paper's measurement campaign completed without retries; loss and
    /// partition behaviour are exercised through explicit fault injection.
    pub(crate) fn private_5g_access() -> Self {
        PathModel {
            base_one_way_ms: 21.0,
            jitter_sigma_ms: 8.5,
            loss_prob: 0.0,
            min_ms: 2.0,
            partitioned: false,
        }
    }

    /// Sample a one-way crossing. `None` means the message was lost.
    pub(crate) fn sample_one_way(&self, rng: &mut Rng) -> Option<f64> {
        if self.partitioned {
            return None;
        }
        if self.loss_prob > 0.0 && rng.next_f64() < self.loss_prob {
            return None;
        }
        let jitter = normal::standard(rng) * self.jitter_sigma_ms;
        Some((self.base_one_way_ms + jitter).max(self.min_ms))
    }
}

/// A route: one or more segments in series (e.g. 5G access then Internet).
///
/// A crossing's latency is the sum of segment latencies; the crossing is
/// lost if any segment drops it.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutePath {
    /// Segments in order from source to destination.
    pub segments: Vec<PathModel>,
}

impl RoutePath {
    /// A single-segment route.
    pub fn single(segment: PathModel) -> Self {
        RoutePath {
            segments: vec![segment],
        }
    }

    /// Sample one crossing over all segments.
    pub(crate) fn sample_one_way(&self, rng: &mut Rng) -> Option<f64> {
        let mut total = 0.0;
        for seg in &self.segments {
            total += seg.sample_one_way(rng)?;
        }
        Some(total)
    }

    /// Partition or heal every segment of the route.
    pub fn set_partitioned(&mut self, partitioned: bool) {
        for seg in &mut self.segments {
            seg.partitioned = partitioned;
        }
    }
}

/// Named-site topology: a directory of routes between sites.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    routes: BTreeMap<(String, String), RoutePath>,
}

impl Topology {
    /// An empty topology.
    pub(crate) fn new() -> Self {
        Topology::default()
    }

    /// Register a bidirectional route between two sites.
    pub(crate) fn add_route(&mut self, a: &str, b: &str, path: RoutePath) {
        self.routes
            .insert((a.to_string(), b.to_string()), path.clone());
        self.routes.insert((b.to_string(), a.to_string()), path);
    }

    /// Route between two sites, if registered.
    pub fn route(&self, from: &str, to: &str) -> Option<&RoutePath> {
        self.routes.get(&(from.to_string(), to.to_string()))
    }

    /// The paper's three-site topology, calibrated against Table 1.
    ///
    /// * `UNL-5G ↔ UCSB`: 5G access segment + UNL↔UCSB Internet segment.
    /// * `UNL ↔ UCSB`: wired Internet, 3.75 ms one-way.
    /// * `UCSB ↔ ND`: wired Internet, 22.5 ms one-way.
    pub fn paper() -> Self {
        let mut t = Topology::new();
        let unl_ucsb_wire = PathModel::wired(3.75, 0.4);
        t.add_route("UNL", "UCSB", RoutePath::single(unl_ucsb_wire.clone()));
        t.add_route(
            "UNL-5G",
            "UCSB",
            RoutePath {
                segments: vec![PathModel::private_5g_access(), unl_ucsb_wire],
            },
        );
        t.add_route("UCSB", "ND", RoutePath::single(PathModel::wired(22.5, 0.5)));
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let c = SimClock::new();
        assert_eq!(c.now_ms(), 0.0);
        c.advance_ms(12.5);
        assert!((c.now_ms() - 12.5).abs() < 1e-3);
        let c2 = c.clone();
        c2.advance_ms(1.0);
        assert!((c.now_ms() - 13.5).abs() < 1e-3, "clones share time");
    }

    #[test]
    fn wired_path_latency_distribution() {
        let mut rng = Rng::seed_from_u64(1);
        let p = PathModel::wired(10.0, 0.5);
        let n = 10_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| p.sample_one_way(&mut rng).unwrap())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!(samples.iter().all(|&s| s >= 0.1));
    }

    #[test]
    fn partitioned_path_drops_everything() {
        let mut rng = Rng::seed_from_u64(2);
        let mut p = PathModel::wired(5.0, 0.1);
        p.partitioned = true;
        for _ in 0..100 {
            assert!(p.sample_one_way(&mut rng).is_none());
        }
    }

    #[test]
    fn lossy_path_drops_sometimes() {
        let mut rng = Rng::seed_from_u64(3);
        let mut p = PathModel::wired(5.0, 0.1);
        p.loss_prob = 0.3;
        let losses = (0..10_000)
            .filter(|_| p.sample_one_way(&mut rng).is_none())
            .count();
        let rate = losses as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.03, "loss rate {rate}");
    }

    #[test]
    fn route_sums_segments() {
        let r = RoutePath {
            segments: vec![PathModel::wired(3.0, 0.0), PathModel::wired(4.0, 0.0)],
        };
        let mut rng = Rng::seed_from_u64(4);
        let s = r.sample_one_way(&mut rng).unwrap();
        assert!((s - 7.0).abs() < 1e-9);
    }

    #[test]
    fn route_lost_if_any_segment_drops() {
        let mut rng = Rng::seed_from_u64(5);
        let mut bad = PathModel::wired(1.0, 0.0);
        bad.partitioned = true;
        let r = RoutePath {
            segments: vec![PathModel::wired(1.0, 0.0), bad],
        };
        assert!(r.sample_one_way(&mut rng).is_none());
    }

    #[test]
    fn topology_bidirectional() {
        let t = Topology::paper();
        assert!(t.route("UNL", "UCSB").is_some());
        assert!(t.route("UCSB", "UNL").is_some());
        assert!(t.route("UCSB", "ND").is_some());
        assert!(t.route("ND", "UCSB").is_some());
        assert!(t.route("UNL", "ND").is_none(), "no direct UNL-ND route");
    }

    #[test]
    fn paper_topology_5g_route_is_slower() {
        let t = Topology::paper();
        let base_ms = |from, to| -> f64 {
            let r = t.route(from, to).unwrap();
            r.segments.iter().map(|s| s.base_one_way_ms).sum()
        };
        let (wired, over_5g) = (base_ms("UNL", "UCSB"), base_ms("UNL-5G", "UCSB"));
        assert!(
            over_5g > 5.0 * wired,
            "5G access dominates: {over_5g} vs {wired}"
        );
    }

    #[test]
    fn topology_partition_and_heal() {
        let mut route = Topology::paper().route("UNL", "UCSB").unwrap().clone();
        let mut rng = Rng::seed_from_u64(6);
        route.set_partitioned(true);
        assert!(route.sample_one_way(&mut rng).is_none());
        route.set_partitioned(false);
        assert!(route.sample_one_way(&mut rng).is_some());
    }
}
