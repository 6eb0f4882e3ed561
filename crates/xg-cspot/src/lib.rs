//! # xg-cspot — CSPOT distributed runtime (Rust reproduction)
//!
//! CSPOT ("Serverless Platform of Things in C", Wolski et al., SEC '19) is
//! the distributed runtime underneath xGFabric. It provides reliable
//! multi-node communication built on **append-only, sequence-numbered logs
//! in persistent storage**, with single-append **event handlers** as the
//! only computational mechanism. This crate reproduces those semantics:
//!
//! * [`log`] — fixed-element-size circular logs ("WooFs") with atomic
//!   sequence-number assignment, concurrent access, and idempotency-token
//!   deduplication for exactly-once delivery. A volatile log *is* its
//!   bounded ring — one flat buffer of fixed-size slots, so an append
//!   copies bytes into place — and history is scanned where it lies
//!   (`Log::scan_newest_first` lends each element to a closure; no reader
//!   copies the log). Tokens are indexed as sequential runs.
//! * [`storage`] — the record and its CRC-framed wire format.
//! * [`segment`] — the durable storage engine a durable log writes
//!   through: segmented append-only log with sealed-segment footers, group-commit
//!   durability, retention compaction, streaming crash recovery (torn
//!   tails truncated, sealed corruption fail-stops), and storage fault
//!   injection.
//! * [`node`] — a CSPOT namespace at a site: log directory + handler
//!   registry. Handlers fire on exactly one append and never block each
//!   other (no lock API exists, by design — see §3.4 of the paper). A
//!   log's handlers live beside it, so names resolve once, at set-up,
//!   and an append through the resolved handle never returns to the
//!   directory.
//! * [`netsim`] — the wide-area substrate: virtual clock, per-path latency
//!   /jitter/loss models, partitions, and the calibrated UNL/UCSB/ND
//!   topology behind the paper's Table 1.
//! * [`protocol`] — the remote append protocol: the two-phase
//!   size-fetch-then-payload exchange over ZeroMQ that the paper describes
//!   (and its client-side size-cache optimization that halves latency),
//!   with retry-until-acknowledged and deduplication.
//!
//! ## Failure semantics (paper §3.4)
//!
//! An append fails in exactly one of two ways: the API returns an error, or
//! the append succeeded but the acknowledged sequence number was lost.
//! Retrying until a sequence number returns, with a stable idempotency
//! token, yields exactly-once delivery; tests in [`protocol`] verify this
//! under injected ack loss.
//!
//! This crate owns durable state, so panicking escape hatches are gated:
//! non-test code converts fallible paths to [`CspotError`] instead of
//! unwrapping.
//!
//! ```
//! use xg_cspot::prelude::*;
//!
//! let node = CspotNode::in_memory("UCSB");
//! // Logs have a fixed element size (here 64 bytes) and circular history.
//! node.create_log("telemetry", 64, 1024).unwrap();
//! let mut element = [0u8; 64];
//! element[..19].copy_from_slice(b"t=21.5C wind=3.2m/s");
//! let seq = node.put("telemetry", &element).unwrap();
//! assert_eq!(seq, 1);
//! let back = node.get("telemetry", seq).unwrap();
//! assert!(back.starts_with(b"t=21.5C"));
//! ```

#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod error;
pub mod gateway;
pub mod log;
pub mod netsim;
pub mod node;
pub mod outage;
pub mod protocol;
pub mod segment;
pub mod storage;

/// Commonly used types.
pub mod prelude {
    pub use crate::error::CspotError;
    pub use crate::gateway::Gateway;
    pub use crate::netsim::{PathModel, RoutePath, SimClock, Topology};
    pub use crate::node::CspotNode;
    pub use crate::outage::{OutageConfig, OutageProcess};
    pub use crate::protocol::{RemoteAppender, RemoteConfig};
    pub use crate::segment::{SegmentConfig, SyncPolicy};
}

pub use prelude::*;
