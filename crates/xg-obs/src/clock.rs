//! Sim/wall clock domains behind span timestamps.
//!
//! xGFabric's layers do not share a time base: the closed loop, the HPC
//! queue model, the network simulator and the fault windows all run on
//! *virtual* time (nothing sleeps; drivers advance a counter), while the
//! CFD solver burns real CPU and is timed on the *wall* clock. A span's
//! timestamps are meaningless without knowing which clock produced them,
//! so every [`SpanRecord`](crate::span::SpanRecord) carries a
//! [`ClockDomain`] and timestamps are integer microseconds in that
//! domain.

#![expect(
    clippy::disallowed_methods,
    reason = "the one blessed wall-clock source: every other wall read goes through this module"
)]

use std::sync::OnceLock;
use std::time::Instant;

/// Which time base a timestamp belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClockDomain {
    /// Simulated (virtual) time, advanced by a discrete-event driver.
    Sim,
    /// Wall-clock time, measured from a process-local epoch.
    Wall,
}

impl ClockDomain {
    /// Stable lowercase label used by the exporters.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ClockDomain::Sim => "sim",
            ClockDomain::Wall => "wall",
        }
    }
}

/// The process-local wall epoch: all wall timestamps are microseconds
/// since the first call in this process, keeping them small and
/// monotonic (no system-clock steps).
fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds of wall time since the process epoch.
pub fn wall_now_us() -> u64 {
    wall_epoch().elapsed().as_micros() as u64
}

/// Nanoseconds of wall time since the process epoch — the profiler's
/// time base, kept here so every wall-clock read in the workspace stays
/// inside this module, which is exempt from the `Instant::now` ban as a
/// whole.
pub fn wall_now_ns() -> u64 {
    wall_epoch().elapsed().as_nanos() as u64
}

/// Convert fractional seconds (the fabric's `t_s` convention) to the
/// integer microseconds spans carry.
pub fn secs_to_us(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * 1e6).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let a = wall_now_us();
        let b = wall_now_us();
        assert!(b >= a);
        assert!(wall_now_ns() / 1_000 >= b);
    }

    #[test]
    fn secs_round_trip() {
        assert_eq!(secs_to_us(0.0), 0);
        assert_eq!(secs_to_us(-1.0), 0);
        assert_eq!(secs_to_us(1.5), 1_500_000);
        assert_eq!(secs_to_us(0.000_2), 200);
    }
}
