//! Sliding-window views over a [`MetricsRegistry`].
//!
//! Cumulative counters and histograms answer "what happened since the
//! process started"; an SLO watchdog needs "what happened over the last
//! 30 minutes". [`MetricsWindow`] bridges the two without touching the
//! hot recording path: each tick it snapshots the registry and diffs
//! against the previous snapshot, producing one *interval delta* — per
//! metric, the counter increments and histogram sub-snapshots of that
//! interval. A bounded ring of the most recent
//! intervals then merges on demand into a [`WindowView`], reusing the
//! log-linear histograms' mergeability (bucket-count addition runs both
//! forwards for merges and backwards for deltas), so windowed quantiles
//! keep the same α relative-error bound as the cumulative ones.

use crate::metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

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

/// One tick's worth of activity.
#[derive(Clone, Debug, Default)]
struct IntervalDelta {
    t_s: f64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A merged view of the last N intervals.
#[derive(Clone, Debug, Default)]
pub struct WindowView {
    /// Virtual time of the oldest interval in the view (s).
    pub from_s: f64,
    /// Virtual time of the newest interval in the view (s).
    pub to_s: f64,
    /// Counter increments over the window, by name.
    pub counters: BTreeMap<String, u64>,
    /// Merged histogram deltas over the window, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl WindowView {
    /// Counter increments over the window (0 for an unknown counter).
    pub fn delta(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Windowed histogram quantile (`None` if absent or empty).
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        let h = self.histograms.get(name)?;
        h.quantile(q)
    }

    /// Windowed histogram sample count.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.histograms.get(name).map(|h| h.count()).unwrap_or(0)
    }
}

/// Maintains the ring of interval deltas over one registry.
///
/// Drive it from the discrete-event loop: call [`MetricsWindow::tick`]
/// once per interval boundary with the registry and the current virtual
/// time. Memory is bounded by `intervals` × live metric count.
#[derive(Debug, Default)]
pub struct MetricsWindow {
    cfg: WindowConfig,
    prev: Option<MetricsSnapshot>,
    ring: VecDeque<IntervalDelta>,
    /// When set, ticks snapshot only these instruments. A window that
    /// feeds a fixed consumer (the SLO watchdog) then costs per tick
    /// what that consumer reads, not what the whole registry holds.
    focus: Option<BTreeSet<String>>,
}

impl MetricsWindow {
    /// An empty window with the given shape.
    pub fn new(cfg: WindowConfig) -> Self {
        MetricsWindow {
            cfg,
            prev: None,
            ring: VecDeque::with_capacity(cfg.intervals.max(1)),
            focus: None,
        }
    }

    /// Restrict every subsequent tick to the named instruments. Metrics
    /// outside the set no longer appear in views; call before the first
    /// tick so the window's history is uniform.
    pub fn focus(&mut self, names: BTreeSet<String>) {
        self.focus = Some(names);
    }

    /// Close the current interval at virtual time `t_s`: diff the registry
    /// against the previous tick's snapshot and push the delta into the
    /// ring (evicting the oldest interval once full).
    pub fn tick(&mut self, registry: &MetricsRegistry, t_s: f64) {
        let snap = match &self.focus {
            Some(names) => registry.snapshot_of(names),
            None => registry.snapshot(),
        };
        let mut delta = IntervalDelta {
            t_s,
            ..Default::default()
        };
        for (name, &v) in &snap.counters {
            let before = self
                .prev
                .as_ref()
                .and_then(|p| p.counters.get(name))
                .copied()
                .unwrap_or(0);
            delta
                .counters
                .insert(name.clone(), v.saturating_sub(before));
        }
        for (name, h) in &snap.histograms {
            let d = match self.prev.as_ref().and_then(|p| p.histograms.get(name)) {
                Some(before) => h.delta_since(before),
                None => h.clone(),
            };
            delta.histograms.insert(name.clone(), d);
        }
        self.ring.push_back(delta);
        while self.ring.len() > self.cfg.intervals.max(1) {
            self.ring.pop_front();
        }
        self.prev = Some(snap);
    }

    /// Merge the retained intervals into one view.
    pub fn view(&self) -> WindowView {
        let mut view = WindowView {
            from_s: self.ring.front().map(|d| d.t_s).unwrap_or(0.0),
            to_s: self.ring.back().map(|d| d.t_s).unwrap_or(0.0),
            ..Default::default()
        };
        for d in &self.ring {
            for (name, &v) in &d.counters {
                *view.counters.entry(name.clone()).or_insert(0) += v;
            }
            for (name, h) in &d.histograms {
                view.histograms
                    .entry(name.clone())
                    .and_modify(|acc| acc.merge(h))
                    .or_insert_with(|| h.clone());
            }
        }
        view
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

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
}
