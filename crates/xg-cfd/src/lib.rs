//! # xg-cfd — finite-volume CFD solver (OpenFOAM substitute)
//!
//! The paper's application runs OpenFOAM to "model airflow and heat
//! transfer inside the CUPS (a 100,000 cubic meter screen house) to predict
//! internal conditions based on sensor measurements at the boundaries"
//! (§1), on a single 64-core node where the full computation (including
//! mesh generation) averages 420.39 s (§4.3, Fig. 7). This crate implements
//! the same pipeline from scratch:
//!
//! * [`mesh`] — structured hexahedral mesh generation over the screen-house
//!   domain, with canopy blocks and per-wall-panel porosity. Mesh
//!   generation is deliberately a serial phase, as in the paper's runs,
//!   because it bounds strong scaling (Fig. 7's plateau).
//! * [`field`] — flat 3-D scalar fields whose z-slabs are contiguous.
//! * [`boundary`] — boundary conditions derived from wind speed/direction
//!   and screen porosity (breaches appear as high-porosity panels that
//!   admit jets).
//! * `poisson` — the pressure Poisson solver: one direct solve per
//!   projection by cosine transforms, which diagonalise the Laplacian of a
//!   uniform box with Neumann walls exactly (round-off residual, no
//!   iteration count or tolerance to tune, each output summed in one
//!   fixed order).
//! * [`solver`] — the incompressible projection-method solver with upwind
//!   advection, eddy-viscosity diffusion, Boussinesq buoyancy, and canopy
//!   drag.
//! * [`parallel`] — the calibrated performance model used to reproduce
//!   Fig. 7's scaling curve at paper scale (and the §4.4 multi-node
//!   slowdown). Every solve runs on the calling thread; there is no
//!   thread pool in this crate.
//! * [`output`] — rasterized field output (CSV / PGM), the Fig. 3 panel.
//! * [`twin`] — digital-twin comparison: predicted vs measured interior
//!   wind, divergence scoring, and breach localization.

//! ```
//! use xg_cfd::prelude::*;
//!
//! // A reduced-resolution screen-house solve under a west wind.
//! let mesh = Mesh::generate(&DomainSpec::cups_default().with_cells(16, 14, 5));
//! let bc = xg_cfd::boundary::BoundarySpec::intact(5.0, 270.0, 22.0);
//! let mut sim = Simulation::new(mesh, bc, SolverConfig::default());
//! sim.run(30);
//! assert!(sim.mean_interior_wind() > 0.0);
//! assert!(sim.cfl() < 1.0, "stable step");
//! ```

// Non-test library code must thread typed errors instead of panicking.
// These lints are the gate (CI runs clippy with `-D warnings`); a site
// that must abort carries `#[expect(clippy::expect_used, reason = …)]`.
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod boundary;
#[cfg(test)]
mod conformance;
pub mod field;
pub mod mesh;
pub mod output;
pub mod parallel;
mod poisson;
#[cfg(test)]
mod reference;
pub mod solver;
pub mod twin;

/// Commonly used types.
pub mod prelude {
    pub use crate::boundary::BoundarySpec;
    pub use crate::mesh::{DomainSpec, Mesh};
    pub use crate::parallel::{run_with_threads, CfdPerfModel};
    pub use crate::solver::{Simulation, SolverConfig};
}

pub use prelude::*;
