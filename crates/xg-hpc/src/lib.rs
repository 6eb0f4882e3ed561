//! # xg-hpc — batch HPC simulation and the xGFabric Pilot controller
//!
//! xGFabric bridges real-time data flows to batch-controlled HPC machines
//! through the Pilot mechanism (RADICAL-Cybertools): placeholder jobs are
//! submitted through the batch queue, and once a pilot's nodes are active,
//! application tasks run inside it without further queueing (§3.6). The
//! batch queueing delay the pilot masks "varied from zero to 24 hours"
//! during the project (§4.4).
//!
//! * [`cluster`] — a discrete-event batch cluster: FCFS queue with EASY
//!   backfill, background load injection, queue-delay statistics.
//! * [`site`] — profiles of the paper's three facilities (Notre Dame CRC,
//!   Purdue ANVIL, TACC Stampede3) with their schedulers and limits.
//! * [`pilot`] — pilots and the controller implementing the paper's
//!   Eqs. (1)–(4) decision logic, plus the proactive/reactive strategies
//!   sketched as future work.
//!
//! ```
//! use xg_hpc::prelude::*;
//!
//! let site = SiteProfile::notre_dame_crc();
//! let mut ctl = PilotController::new(
//!     site.build_idle_cluster(),
//!     PilotControllerConfig::paper_default(site.nodes),
//! );
//! ctl.advance_to(120.0);                 // the initial pilot activates
//! ctl.submit_task(1, 420.0);             // one CFD run
//! ctl.advance_to(900.0);
//! assert_eq!(ctl.completed_tasks().len(), 1);
//! assert!(ctl.completed_tasks()[0].wait_s < 60.0, "no batch queueing");
//! ```

// Non-test library code must thread typed errors instead of panicking.
// These lints are the gate (CI runs clippy with `-D warnings`); a site
// that must abort carries `#[expect(clippy::expect_used, reason = …)]`.
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cluster;
pub mod multisite;
pub mod pilot;
pub mod predictor;
pub mod site;

/// Commonly used types.
pub mod prelude {
    pub use crate::cluster::{ClusterSim, JobId, JobRequest, JobState};
    pub use crate::multisite::{MultiSiteController, Placement};
    pub use crate::pilot::{PilotController, PilotControllerConfig, PilotStrategy, TaskOutcome};
    pub use crate::predictor::{AdaptivePilotPlanner, QueueWaitPredictor};
    pub use crate::site::{SchedulerKind, SiteProfile};
}

pub use prelude::*;
