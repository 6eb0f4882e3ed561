//! # xg-net — Private 5G/4G wireless network simulator
//!
//! This crate is the radio-access substrate of the xGFabric reproduction. The
//! paper ("xGFabric", SC Workshops '25) evaluates two private cellular
//! networks built from srsRAN + Open5GS on USRP B200/B210 software-defined
//! radios. None of that hardware is available here, so this crate implements a
//! first-principles simulator of the same stack:
//!
//! * [`phy`] — 3GPP resource-grid arithmetic: bandwidth → PRB tables for LTE
//!   and NR, slot/symbol accounting, link adaptation (SNR → spectral
//!   efficiency) with uplink power limitation.
//! * [`rat`] — radio access technology, duplexing mode, and TDD slot patterns.
//! * [`channel`] — stochastic radio channel (AR(1) shadowing + fast fading).
//! * [`device`] — user-equipment hardware profiles (laptop / Raspberry Pi /
//!   smartphone) and external modem models (SIM7600G-H 4G, RM530N-GL 5G),
//!   calibrated against the paper's measured throughput caps.
//! * [`sdr`] — SDR front-end limits (the B210's sampling constraints that the
//!   paper blames for high-bandwidth throughput drops).
//! * [`core5g`] — a miniature standalone 5G core: SIM/IMSI registry,
//!   registration and PDU-session state machines, slice admission (Open5GS
//!   substitute).
//! * [`slice`](mod@slice) — network slicing: S-NSSAI identified slices with fixed PRB
//!   ratio allocations (the paper's Fig. 6 experiment).
//! * [`mac`] — per-TTI uplink MAC scheduler (round-robin and
//!   proportional-fair) operating inside slice quotas.
//! * [`e2`] — E2-style MAC telemetry reports (per-UE PRB occupancy, CQI,
//!   HARQ proxy; per-slice utilization and queue depth) feeding the
//!   near-real-time RIC in `xg-ric`.
//! * [`cell`] — a gNodeB/eNodeB cell binding configuration, SDR and slices.
//! * [`ue`] — user equipment: device + SIM + attach state + traffic backlog.
//! * [`sim`] — the TTI-level link simulator producing per-second throughput
//!   samples.
//! * [`iperf`] — an iperf3-like measurement harness with summary statistics.
//! * [`calib`] — every calibration constant, documented against the paper
//!   numbers it reproduces.
//!
//! ## Quick example
//!
//! ```
//! use xg_net::prelude::*;
//!
//! // A single Raspberry Pi with an RM530N-GL modem on a 20 MHz 5G FDD cell.
//! let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0));
//! let mut net = LinkSimulator::builder(cell).seed(42).build().unwrap();
//! let ue = net.attach(DeviceClass::RaspberryPi, Modem::Rm530nGl).unwrap();
//! let run = net.iperf_uplink(ue, 30);
//! let mbps = run.mean_mbps();
//! assert!(mbps > 30.0 && mbps < 70.0, "got {mbps}");
//! ```

// Non-test library code must thread typed errors instead of panicking.
// These lints are the gate (CI runs clippy with `-D warnings`); a site
// that must abort carries `#[expect(clippy::expect_used, reason = …)]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod calib;
pub mod cell;
pub mod channel;
pub mod core5g;
pub mod device;
pub mod dynslice;
pub mod e2;
pub mod error;
pub mod fleet;
pub mod iperf;
pub mod mac;
pub mod phy;
pub mod rat;
pub mod sdr;
pub mod sim;
pub mod slice;
pub mod traffic;
pub mod ue;
pub mod units;

/// Commonly used types, re-exported for ergonomic `use xg_net::prelude::*`.
pub mod prelude {
    pub use crate::cell::CellConfig;
    pub use crate::core5g::{Core5g, SimCard};
    pub use crate::device::{DeviceClass, Modem};
    pub use crate::dynslice::DynamicSlicer;
    pub use crate::e2::{CellIndication, SliceReport, UeReport};
    pub use crate::error::NetError;
    pub use crate::fleet::{CellBatch, CellId, FleetUe, RanFleet, RanFleetBuilder};
    pub use crate::iperf::{IperfRun, IperfSummary};
    pub use crate::mac::SchedulerKind;
    pub use crate::rat::{Duplex, Rat, TddPattern};
    pub use crate::sim::{LinkSimulator, LinkSimulatorBuilder, UeHandle};
    pub use crate::slice::{SliceConfig, SliceId, Snssai};
    pub use crate::traffic::TrafficModel;
    pub use crate::units::{MHz, Mbps};
    pub use xg_sim::{Advance, SimNs};
}

pub use prelude::*;
