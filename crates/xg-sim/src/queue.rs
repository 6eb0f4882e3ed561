//! Calendar-queue event scheduler.
//!
//! # Layout
//!
//! Events within a sliding *horizon* of `wheel_len` buckets × `width`
//! nanoseconds land in a bucketed wheel (`Vec<Vec<Scheduled>>`, bucket
//! index = `time / width % wheel_len`); events beyond the horizon go to
//! a `BTreeMap` overflow keyed by the full ordering tuple. The wheel
//! gives O(1) scheduling and near-O(1) dequeue for dense near-term
//! events (TTI-scale activity); the overflow keeps far-future timers
//! (300 s report cycles, multi-hour HPC walltimes) out of the wheel
//! entirely. Dequeue takes the minimum of the best wheel entry and the
//! overflow head, so the split is purely a performance layering — no
//! migration between the two is ever needed for correctness.
//!
//! # Tie-breaking
//!
//! Events are totally ordered by `(time, source, seq)`:
//!
//! * `time` — the scheduled instant;
//! * `source` — the *registration index* of the scheduling source.
//!   Source precedes the push counter so that recurring sources with
//!   different periods still fire in registration order when their
//!   timers coincide (a 60 s weather tick scheduled at t=240 must
//!   precede a 300 s report timer scheduled at t=0 when both fire at
//!   t=300 — a pure push-order tie-break would invert them);
//! * `seq` — a queue-global monotone push counter, so multiple events
//!   from one source at one instant fire in the order they were
//!   scheduled.
//!
//! The order is therefore a pure function of what was scheduled — never
//! of hash iteration, thread interleaving, or pointer values — which is
//! what makes event execution seed-reproducible.

use crate::SimNs;
use std::collections::BTreeMap;

/// One scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Absolute due time.
    pub at: SimNs,
    /// Registration index of the scheduling source (first tie-break).
    pub source: u32,
    /// Queue-global push counter (second tie-break).
    pub seq: u64,
    /// The event payload.
    pub payload: E,
}

/// Default bucket width: one 15 kHz TTI.
const DEFAULT_WIDTH_NS: u64 = 1_000_000;
/// Default wheel length: 1024 buckets ≈ one simulated second of horizon.
const DEFAULT_WHEEL_LEN: u64 = 1024;

/// A deterministic calendar event queue. See the module docs for the
/// layout and the `(time, source, seq)` tie-breaking rule.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    now: SimNs,
    width: u64,
    wheel: Vec<Vec<Scheduled<E>>>,
    /// Number of events currently in the wheel (not the overflow).
    wheel_count: usize,
    /// Absolute bucket index of the dequeue cursor (`now / width`,
    /// monotone). The horizon is `[cursor, cursor + wheel.len())`.
    cursor: u64,
    overflow: BTreeMap<(SimNs, u32, u64), E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue with the default TTI-width wheel.
    pub(crate) fn new() -> Self {
        EventQueue::with_layout(DEFAULT_WIDTH_NS, DEFAULT_WHEEL_LEN as usize)
    }

    /// A queue with an explicit bucket width (ns) and wheel length.
    pub fn with_layout(width_ns: u64, wheel_len: usize) -> Self {
        let width = width_ns.max(1);
        EventQueue {
            now: SimNs::ZERO,
            width,
            wheel: (0..wheel_len.max(1)).map(|_| Vec::new()).collect(),
            wheel_count: 0,
            cursor: 0,
            overflow: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Current queue time: the due time of the last event popped, or
    /// the last [`drain_clock_to`](Self::drain_clock_to) target.
    pub fn now(&self) -> SimNs {
        self.now
    }

    /// Due time of the earliest pending event.
    pub(crate) fn peek_at(&self) -> Option<SimNs> {
        let wheel_best = self.best_wheel_pos().map(|(_, _, key)| key.0);
        let overflow_best = self.overflow.keys().next().map(|k| k.0);
        match (wheel_best, overflow_best) {
            (Some(w), Some(o)) => Some(w.min(o)),
            (Some(w), None) => Some(w),
            (None, Some(o)) => Some(o),
            (None, None) => None,
        }
    }

    /// Schedule `payload` at absolute time `at` from registration source
    /// `source`. Times in the past are clamped to `now` (the event fires
    /// on the next drain); the assigned `seq` is returned.
    pub fn push(&mut self, at: SimNs, source: u32, payload: E) -> u64 {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let bucket = at.0 / self.width;
        if bucket < self.cursor + self.wheel.len() as u64 {
            let idx = (bucket % self.wheel.len() as u64) as usize;
            self.wheel[idx].push(Scheduled {
                at,
                source,
                seq,
                payload,
            });
            self.wheel_count += 1;
        } else {
            self.overflow.insert((at, source, seq), payload);
        }
        seq
    }

    /// Position of the earliest wheel event: `(bucket index, slot in
    /// bucket, ordering key)`. Linear in the gap to the next non-empty
    /// bucket plus that bucket's occupancy — both small by construction.
    fn best_wheel_pos(&self) -> Option<(usize, usize, (SimNs, u32, u64))> {
        if self.wheel_count == 0 {
            return None;
        }
        let n = self.wheel.len() as u64;
        for off in 0..n {
            let idx = ((self.cursor + off) % n) as usize;
            let bucket = &self.wheel[idx];
            if bucket.is_empty() {
                continue;
            }
            if let Some((slot, ev)) = bucket
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.at, e.source, e.seq))
            {
                return Some((idx, slot, (ev.at, ev.source, ev.seq)));
            }
        }
        None
    }

    /// Pop the earliest event with `at <= t`, advancing `now` to its due
    /// time. Returns `None` (and leaves `now` untouched) once nothing is
    /// due at or before `t` — pair with [`drain_clock_to`](Self::drain_clock_to)
    /// to finish advancing the clock.
    pub fn pop_due(&mut self, t: SimNs) -> Option<Scheduled<E>> {
        let wheel_best = self.best_wheel_pos();
        let overflow_best = self.overflow.keys().next().copied();
        let wheel_wins = match (&wheel_best, &overflow_best) {
            (Some((_, _, wk)), Some(ok)) => wk <= ok,
            (Some(_), None) => true,
            _ => false,
        };
        if wheel_wins {
            if let Some((idx, slot, key)) = wheel_best {
                if key.0 > t {
                    return None;
                }
                let ev = self.wheel[idx].swap_remove(slot);
                self.wheel_count -= 1;
                self.cursor = self.cursor.max(ev.at.0 / self.width);
                self.now = ev.at;
                return Some(ev);
            }
            return None;
        }
        if let Some(key) = overflow_best {
            if key.0 > t {
                return None;
            }
            if let Some(payload) = self.overflow.remove(&key) {
                self.cursor = self.cursor.max(key.0 .0 / self.width);
                self.now = key.0;
                return Some(Scheduled {
                    at: key.0,
                    source: key.1,
                    seq: key.2,
                    payload,
                });
            }
        }
        None
    }

    /// Move the clock to `t` after a drain (no events may remain due at
    /// or before `t`; the skipped span is exactly the idle time saved).
    pub fn drain_clock_to(&mut self, t: SimNs) {
        debug_check_none_due(self, t);
        if t > self.now {
            self.now = t;
            self.cursor = self.cursor.max(t.0 / self.width);
        }
    }
}

/// Debug builds check [`EventQueue::drain_clock_to`]'s contract (the
/// next event, if any, is due after `t`); release builds compile it out.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug-build check of the caller's contract; release builds compile it out"
)]
fn debug_check_none_due<E>(queue: &EventQueue<E>, t: SimNs) {
    debug_assert!(
        queue.peek_at().map(|at| at > t).unwrap_or(true),
        "drain_clock_to({t}) called with events still due"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events still pending, wheel and overflow together.
    fn pending<E>(q: &EventQueue<E>) -> usize {
        q.wheel_count + q.overflow.len()
    }

    #[test]
    fn pops_in_time_order_across_wheel_and_overflow() {
        let mut q = EventQueue::with_layout(1_000_000, 8); // 8 ms horizon
        q.push(SimNs::from_secs(300), 0, "far");
        q.push(SimNs::from_millis(2), 0, "near");
        q.push(SimNs::from_millis(5), 0, "mid");
        assert_eq!(pending(&q), 3);
        assert_eq!(q.peek_at(), Some(SimNs::from_millis(2)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_due(SimNs::from_secs(400)))
            .map(|e| e.payload)
            .collect();
        assert_eq!(order, ["near", "mid", "far"]);
        assert_eq!(q.now(), SimNs::from_secs(300));
        assert_eq!(pending(&q), 0);
    }

    #[test]
    fn equal_time_events_fire_in_source_then_push_order() {
        let mut q = EventQueue::new();
        let t = SimNs::from_secs(300);
        // Pushed out of source order, and source 0's second event pushed
        // before its first-pushed event fires: (time, source, seq).
        q.push(t, 1, "report");
        q.push(t, 0, "weather-a");
        q.push(t, 0, "weather-b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop_due(t))
            .map(|e| e.payload)
            .collect();
        assert_eq!(order, ["weather-a", "weather-b", "report"]);
    }

    #[test]
    fn pop_due_respects_the_deadline() {
        let mut q = EventQueue::new();
        q.push(SimNs::from_secs(10), 0, ());
        assert!(q.pop_due(SimNs::from_secs(9)).is_none());
        assert_eq!(pending(&q), 1);
        assert_eq!(q.peek_at(), Some(SimNs::from_secs(10)));
        assert!(q.pop_due(SimNs::from_secs(10)).is_some());
        assert_eq!(pending(&q), 0);
        assert_eq!(q.peek_at(), None);
    }

    #[test]
    fn past_pushes_clamp_to_now() {
        let mut q = EventQueue::new();
        q.push(SimNs::from_secs(5), 0, "a");
        q.pop_due(SimNs::from_secs(5)).unwrap();
        q.push(SimNs::from_secs(1), 0, "late");
        let e = q.pop_due(SimNs::from_secs(5)).unwrap();
        assert_eq!(e.at, SimNs::from_secs(5), "clamped to now");
    }

    #[test]
    fn drain_clock_skips_idle_time_in_one_step() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(SimNs::from_secs(600), 0, ());
        assert!(q.pop_due(SimNs::from_secs(300)).is_none());
        q.drain_clock_to(SimNs::from_secs(300));
        assert_eq!(q.now(), SimNs::from_secs(300));
        // The far event is still intact and fires next cycle.
        assert!(q.pop_due(SimNs::from_secs(600)).is_some());
        assert_eq!(q.now(), SimNs::from_secs(600));
    }

    #[test]
    fn wheel_wraps_over_many_revolutions() {
        let mut q = EventQueue::with_layout(1, 4); // 4 ns horizon
        for i in 0..100u64 {
            q.push(SimNs(i * 3), 0, i);
        }
        assert_eq!(pending(&q), 100);
        let mut got = Vec::new();
        while let Some(e) = q.pop_due(SimNs(1_000)) {
            got.push(e.payload);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert_eq!(pending(&q), 0);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.push(SimNs(10), 0, "a");
        q.push(SimNs(30), 0, "c");
        assert_eq!(q.pop_due(SimNs(100)).unwrap().payload, "a");
        // Scheduled mid-drain, earlier than the pending "c".
        q.push(SimNs(20), 0, "b");
        assert_eq!(q.pop_due(SimNs(100)).unwrap().payload, "b");
        assert_eq!(q.pop_due(SimNs(100)).unwrap().payload, "c");
    }
}
