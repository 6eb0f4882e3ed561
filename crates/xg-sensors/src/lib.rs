//! # xg-sensors — CUPS facility and sensor-network simulation
//!
//! The paper's sensor layer is a set of commodity agricultural weather
//! stations in and around the Citrus Under Protective Screening (CUPS)
//! facility at Lindcove, California: a ~100 000 m³ screen house whose
//! boundary conditions (wind, temperature, humidity) feed the CFD digital
//! twin every 5 minutes. This crate simulates all of it:
//!
//! * [`facility`] — the screen-house geometry, screen panels, and breach
//!   state.
//! * [`weather`] — a seeded micro-climate generator: diurnal temperature,
//!   AR(1) wind gusts, weather-front events, humidity.
//! * [`telemetry`] — the fixed-size telemetry record CSPOT logs carry.
//! * `station` — weather stations with calibration bias and per-channel
//!   noise (the measurement error that motivates statistical change
//!   detection in §3.7).
//! * [`network`] — the station network: 5-minute polling and extraction of
//!   CFD boundary conditions.
//! * [`breach`] — screen-breach injection: a breach perturbs airflow
//!   measurements near the damaged panel, which the digital twin detects
//!   as model/measurement divergence (§2).
//!
//! ```
//! use xg_sensors::prelude::*;
//!
//! let mut net = SensorNetwork::cups_default(CupsFacility::default(), 42);
//! net.advance_to(SimNs::from_secs(300)).unwrap(); // one 5-minute reporting cycle
//! let reports = net.take_reports();
//! assert_eq!(reports.len(), 9);
//! let bc = net.boundary_conditions(&reports).unwrap();
//! assert!(bc.interior_wind_ms < bc.wind_speed_ms, "screen attenuates wind");
//! ```

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

pub mod breach;
pub mod facility;
pub mod network;
pub mod qc;
mod station;
pub mod telemetry;
pub mod weather;

/// Commonly used types.
pub mod prelude {
    pub use crate::facility::CupsFacility;
    pub use crate::network::SensorNetwork;
    pub use crate::telemetry::TelemetryRecord;
    pub use xg_sim::{Advance, SimNs};
}
