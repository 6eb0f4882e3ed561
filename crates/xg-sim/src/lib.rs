//! Deterministic discrete-event simulation core.
//!
//! Every subsystem in the fabric used to advance time its own way:
//! `LinkSimulator::step_slots` walked every TTI, `SensorNetwork::poll`
//! jumped a whole 300 s reporting window, the HPC controllers took
//! absolute `f64` seconds, and the orchestrator hand-ordered its phases
//! per report cycle. This crate unifies them behind two small pieces:
//!
//! * [`SimNs`] — integer nanoseconds since simulation start. Integer ns
//!   compose exactly (no float drift between a 0.5 ms TTI grid and a
//!   300 s report grid) and cover ~584 years of sim time in a `u64`.
//! * [`Advance`] — `advance_to(&mut self, t: SimNs)`: bring a component
//!   forward to absolute time `t`, firing everything it owes in between.
//!   Implemented by `LinkSimulator`, `RanFleet`, `SensorNetwork` and
//!   the orchestrator (`XgFabric`).
//! * [`EventQueue`] — a calendar-queue scheduler (bucketed wheel for
//!   near events, `BTreeMap` overflow for far ones) with a stable
//!   `(time, source, seq)` ordering so execution order is a pure
//!   function of what was scheduled, never of container iteration
//!   order. See `queue` for the layout and the tie-breaking rule.
//!
//!
//! Three small numeric modules sit beside them, because a digest must be a
//! function of the run seed alone: every stream derives from it, and a
//! draw that depended on the host's libm would tie a digest to the platform:
//!
//! * [`rng`] — the one random-number generator of the workspace,
//!   xoshiro256** seeded by SplitMix64, and SplitMix64 itself.
//! * [`math`] — `const fn` [`math::exp`] and [`math::ln`] from IEEE 754
//!   basic operations only, the same bits on every host.
//! * [`normal`] — the one standard-normal sampler of the workspace, a
//!   256-layer ziggurat whose tables the compiler builds with [`math`].
//!
//! `advance_to` is the only way to move time; the stepped reference
//! engine survives solely as a test-only module of `xg-net`
//! (`sim::reference`), the oracle of the stepped-vs-event
//! bitwise-equality proptest beside it. Host-time cost of the queue is
//! measured in `benchmark/` (`xg-sim.event_ns`, see
//! `benchmark/README.md`).

// Non-test library code must thread typed errors instead of panicking.
// These lints, and the assert-family ban in this crate's clippy.toml,
// are the gate (CI runs clippy with `-D warnings`); a site that must
// abort carries `#[expect(clippy::expect_used, reason = …)]`.
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(test, allow(clippy::disallowed_macros))]

pub mod math;
pub mod normal;
mod queue;
pub mod rng;

pub use queue::EventQueue;

/// Absolute simulation time in integer nanoseconds since t = 0.
///
/// A newtype (not a bare `u64`) so slot counts, byte counts, and times
/// cannot be mixed up at an `advance_to` boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimNs(pub u64);

impl SimNs {
    /// t = 0.
    pub const ZERO: SimNs = SimNs(0);

    /// One millisecond (one 15 kHz-SCS TTI).
    pub(crate) const MILLI: SimNs = SimNs(1_000_000);

    /// One second.
    pub(crate) const SECOND: SimNs = SimNs(1_000_000_000);

    /// Whole seconds, exact for integer-second times.
    pub fn from_secs(s: u64) -> SimNs {
        SimNs(s * Self::SECOND.0)
    }

    /// Whole milliseconds.
    pub fn from_millis(ms: u64) -> SimNs {
        SimNs(ms * Self::MILLI.0)
    }

    /// Nearest-nanosecond conversion from float seconds. Exact for the
    /// grid times the fabric uses (TTI and report-interval multiples).
    pub fn from_secs_f64(s: f64) -> SimNs {
        SimNs((s * 1e9).round().max(0.0) as u64)
    }

    /// This time as float seconds (for the `f64`-second legacy surfaces).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimNs) -> SimNs {
        SimNs(self.0.saturating_add(rhs.0))
    }

    /// Saturating difference (`self - earlier`, floored at zero).
    pub fn saturating_sub(self, earlier: SimNs) -> SimNs {
        SimNs(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add for SimNs {
    type Output = SimNs;
    fn add(self, rhs: SimNs) -> SimNs {
        SimNs(self.0 + rhs.0)
    }
}

impl std::ops::Sub for SimNs {
    type Output = SimNs;
    fn sub(self, rhs: SimNs) -> SimNs {
        SimNs(self.0 - rhs.0)
    }
}

impl std::fmt::Display for SimNs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

/// The unified time-advance API.
///
/// `advance_to(t)` brings the component from its current [`now`](Advance::now)
/// to absolute time `t`, executing every event it owes in `(now, t]` in
/// deterministic order. Calls with `t <= now()` are no-ops, never errors:
/// components on coarser grids (a TTI-granular cell, a 60 s weather
/// model) round `t` *down* to their own grid, so `now()` after a call
/// may trail `t` by less than one grid step — it never exceeds `t`.
pub trait Advance {
    /// The component's failure type (`Infallible` for pure clocks).
    type Error;

    /// Current simulation time.
    fn now(&self) -> SimNs;

    /// Advance to absolute time `t`, firing everything due in between.
    fn advance_to(&mut self, t: SimNs) -> Result<(), Self::Error>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simns_conversions_are_exact_on_the_grid() {
        assert_eq!(SimNs::from_secs(300), SimNs(300_000_000_000));
        assert_eq!(SimNs::from_secs_f64(300.0), SimNs::from_secs(300));
        assert_eq!(SimNs::from_millis(1), SimNs::MILLI);
        assert_eq!(SimNs::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(SimNs::from_secs_f64(-1.0), SimNs::ZERO);
    }

    #[test]
    fn simns_arithmetic() {
        let a = SimNs::from_secs(2) + SimNs::MILLI;
        assert_eq!(a.0, 2_001_000_000);
        assert_eq!(a - SimNs::MILLI, SimNs::from_secs(2));
        assert_eq!(SimNs(5).saturating_sub(SimNs(9)), SimNs::ZERO);
        assert_eq!(SimNs(u64::MAX).saturating_add(SimNs(1)), SimNs(u64::MAX));
        assert_eq!(format!("{}", SimNs(42)), "42ns");
    }

    #[test]
    fn advance_trait_is_object_safe_enough_for_generic_drivers() {
        struct Clock(SimNs);
        impl Advance for Clock {
            type Error = std::convert::Infallible;
            fn now(&self) -> SimNs {
                self.0
            }
            fn advance_to(&mut self, t: SimNs) -> Result<(), Self::Error> {
                if t > self.0 {
                    self.0 = t;
                }
                Ok(())
            }
        }
        fn drive<A: Advance>(a: &mut A, t: SimNs) -> Result<(), A::Error> {
            a.advance_to(t)
        }
        let mut c = Clock(SimNs::ZERO);
        drive(&mut c, SimNs::from_secs(7)).unwrap();
        assert_eq!(c.now(), SimNs::from_secs(7));
        // Backwards advance is a no-op, not an error.
        drive(&mut c, SimNs::from_secs(3)).unwrap();
        assert_eq!(c.now(), SimNs::from_secs(7));
    }
}
