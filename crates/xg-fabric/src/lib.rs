//! # xg-fabric — end-to-end xGFabric orchestration
//!
//! The core crate of the reproduction: it wires the substrates into the
//! paper's Fig. 3 pipeline —
//!
//! ```text
//! CUPS sensors ──5G──▶ CSPOT@UNL ──Internet──▶ CSPOT repo @UCSB
//!                                                   │ Laminar change detection
//!                                                   ▼
//!                                          Pilot controller @ND ──▶ CFD run
//!                                                   │                   │
//!                                                   ▼                   ▼
//!                                            digital twin ◀── predicted field
//!                                                   │
//!                                                   ▼ breach suspect
//!                                            Farm-ng robot dispatch
//! ```
//!
//! * [`pipeline`] — the telemetry data path: station reports shipped over
//!   the private-5G + Internet route into the UCSB CSPOT repository.
//! * [`orchestrator`] — the full closed loop with virtual-time accounting:
//!   construction, the 5-minute report cycle and fault dispatch. Each
//!   phase it drives owns its state in a private module: `hpc` (CFD-task
//!   placement, failover, completion), `ladder` (degradation ladder and
//!   SLOs), `detect` (the 30-minute change-detection duty cycle) and
//!   `twin` (the solve, calibration, advisories, robot dispatch).
//! * `robot` — the Farm-NG wheeled robot: route planning to a suspect
//!   wall region and visual confirmation (§2's future-work loop, closed).
//! * [`timeline`] — the §4.4 end-to-end latency budget.

//! ```
//! use xg_fabric::prelude::*;
//!
//! let mut fabric = XgFabric::new(xg_fabric::orchestrator::FabricConfig {
//!     cfd_cells: [12, 10, 4], // fast doc-test resolution
//!     cfd_steps: 10,
//!     ..Default::default()
//! });
//! fabric.run_cycles(2).unwrap(); // two 5-minute reporting cycles
//! assert_eq!(fabric.timeline().telemetry_latencies_ms().len(), 2);
//! ```
//!
//! This crate drives the whole loop, so panicking escape hatches are
//! gated: non-test code converts fallible paths to `FabricError` (or a
//! propagated `CspotError`) instead of unwrapping.

#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(test, allow(clippy::disallowed_macros))]

pub mod backtest;
mod detect;
mod error;
mod hpc;
mod intervention;
mod ladder;
pub mod orchestrator;
pub mod pipeline;
pub mod ran;
pub mod reliability;
mod robot;
mod route;
pub mod timeline;
mod twin;

/// Commonly used types.
pub mod prelude {
    pub use crate::error::FabricError;
    pub use crate::orchestrator::XgFabric;
}
