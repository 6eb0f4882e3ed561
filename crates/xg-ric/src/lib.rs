//! xg-ric: a near-real-time RAN Intelligent Controller for the
//! simulated xGFabric RAN.
//!
//! The O-RAN near-RT RIC closes a measurement→decision→actuation loop
//! over the RAN: every indication period the MAC reports E2-style
//! telemetry (per-UE PRB occupancy, CQI, HARQ retransmissions; per-slice
//! utilization and queue depth — [`xg_net::e2`]), pluggable *xApps*
//! decide, and typed [`RicAction`]s flow back to the live cells. This
//! crate provides:
//!
//! * `ric` — the deterministic engine: the [`XApp`] trait and its
//!   seeded, ordered execution contract, per-cell indication caching
//!   with staleness tracking, and conflict resolution across xApps.
//! * `action` — the typed control-action vocabulary and merge rules.
//! * `xapps` — three built-in controllers: [`DemandSlicer`]
//!   (demand-proportional slice shares), [`BurstGuard`] (protects the
//!   sensor-telemetry slice through an eMBB burst), [`McsCapper`]
//!   (HARQ-driven per-UE link-adaptation caps).
//!
//! The orchestrator (`xg-fabric`) owns the wiring: it drains fleet
//! indications once per report cycle, steps the engine, and applies the
//! resolved actions between cycles.

#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod action;
mod ric;
mod xapps;

pub use action::RicAction;
pub use ric::{CellView, Indication, Ric, RicOutcome, XApp, XAppCtx};
pub use xapps::{BurstGuard, DemandSlicer, McsCapper};
