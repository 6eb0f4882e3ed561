//! # xg-laminar — the Laminar dataflow system (Rust reproduction)
//!
//! Laminar (Ekaireb et al., IEEE CLOUD '24) is xGFabric's programming
//! layer: a **strongly-typed, strict, applicative dataflow language**
//! implemented on top of CSPOT logs. Because CSPOT logs are append-only and
//! sequence-numbered, each (variable, epoch) pair behaves as a
//! single-assignment variable, which makes functional dataflow semantics
//! implementable on the log substrate — and makes every Laminar program
//! inherit CSPOT's crash-consistency for free.
//!
//! * [`value`] — the typed value model and its log wire format.
//! * [`graph`] — graph construction with build-time type checking,
//!   single-producer wiring, and acyclicity validation.
//! * [`ops`] — built-in operators plus a closure escape hatch (the paper
//!   embeds entire CFD executions as single Laminar nodes).
//! * [`runtime`] — handler-driven execution on a [`xg_cspot::CspotNode`],
//!   with crash recovery by log replay. A variable is read where it lies:
//!   look-ups compare epoch headers in the log, newest first, and decode
//!   only the element that matches; the logs are the only state.
//! * [`stats`] — Welch t, Mann–Whitney U, Kolmogorov–Smirnov, and the
//!   majority-vote battery.
//! * [`change`] — the paper's §4.2 telemetry change-detection program, both
//!   as a pure evaluator and as a deployable Laminar graph.
//!
//! ```
//! use xg_laminar::prelude::*;
//! use std::sync::Arc;
//! use xg_cspot::CspotNode;
//!
//! let mut g = GraphBuilder::new("demo");
//! let a = g.source("a", TypeTag::F64).unwrap();
//! let b = g.source("b", TypeTag::F64).unwrap();
//! let sum = g.op("sum", vec![TypeTag::F64, TypeTag::F64], TypeTag::F64, ops::add2()).unwrap();
//! g.connect(a, sum, 0);
//! g.connect(b, sum, 1);
//!
//! let rt = LaminarRuntime::deploy(g.build().unwrap(), Arc::new(CspotNode::in_memory("UCSB"))).unwrap();
//! rt.inject("a", 1, Value::F64(2.0)).unwrap();
//! rt.inject("b", 1, Value::F64(40.0)).unwrap();
//! assert_eq!(rt.read("sum", 1).unwrap(), Some(Value::F64(42.0)));
//! ```

#![warn(unreachable_pub)]
#![expect(
    clippy::disallowed_types,
    reason = "`GraphBuilder` keys nodes by name in a HashMap used for look-ups only; nothing iterates it"
)]

pub mod bridge;
pub mod change;
pub mod error;
pub mod graph;
pub mod ops;
pub mod runtime;
pub mod stats;
pub mod value;

/// Commonly used types.
pub mod prelude {
    pub use crate::change::ChangeDetector;
    pub use crate::graph::GraphBuilder;
    pub use crate::ops;
    pub use crate::runtime::LaminarRuntime;
    pub use crate::value::{TypeTag, Value};
}
