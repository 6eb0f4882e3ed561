//! Typed errors for the fabric.
//!
//! Fault injection turns previously "can't happen" conditions — a missing
//! route, an exhausted retry budget, a failed storage append — into
//! ordinary runtime outcomes. Every fallible fabric path surfaces them as
//! a [`FabricError`] instead of a panic, so a chaos run degrades instead
//! of aborting. (An unreachable HPC facility is not an error: the task
//! waits in the failover queue.)

use std::fmt;
use xg_cspot::CspotError;
use xg_laminar::error::LaminarError;
use xg_net::error::NetError;

/// Errors surfaced by the fabric's data and control paths.
#[derive(Debug)]
pub enum FabricError {
    /// The topology has no route between the named endpoints.
    MissingRoute {
        /// Source site name.
        from: String,
        /// Destination site name.
        to: String,
    },
    /// A CSPOT storage or protocol operation failed.
    Cspot(CspotError),
    /// The deployed Laminar change-detection dataflow failed.
    Laminar(LaminarError),
    /// The RAN fleet rejected its topology (invalid cell config, unknown
    /// gateway cell).
    Net(NetError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::MissingRoute { from, to } => {
                write!(f, "topology has no route {from} -> {to}")
            }
            FabricError::Cspot(e) => write!(f, "cspot: {e}"),
            FabricError::Laminar(e) => write!(f, "laminar: {e}"),
            FabricError::Net(e) => write!(f, "ran: {e}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Cspot(e) => Some(e),
            FabricError::Laminar(e) => Some(e),
            FabricError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CspotError> for FabricError {
    fn from(e: CspotError) -> Self {
        FabricError::Cspot(e)
    }
}

impl From<LaminarError> for FabricError {
    fn from(e: LaminarError) -> Self {
        FabricError::Laminar(e)
    }
}

impl From<NetError> for FabricError {
    fn from(e: NetError) -> Self {
        FabricError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_route() {
        let e = FabricError::MissingRoute {
            from: "UNL-5G".into(),
            to: "UCSB".into(),
        };
        assert_eq!(e.to_string(), "topology has no route UNL-5G -> UCSB");
    }

    #[test]
    fn wraps_cspot_errors() {
        let e: FabricError = CspotError::UnknownLog("cups.wind".into()).into();
        assert!(matches!(e, FabricError::Cspot(_)));
        assert!(e.to_string().contains("cups.wind"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
