//! Error type for the Laminar dataflow system.

use std::fmt;

/// Errors produced by graph construction and dataflow execution.
#[derive(Debug)]
pub enum LaminarError {
    /// A node input port was left unconnected at build time.
    UnconnectedInput {
        /// Node name.
        node: String,
        /// Port index.
        port: usize,
    },
    /// A node input port has more than one producer (violates
    /// single-assignment wiring).
    DoublyConnectedInput {
        /// Node name.
        node: String,
        /// Port index.
        port: usize,
    },
    /// Producer/consumer type mismatch on an edge.
    TypeMismatch {
        /// Human-readable description of the edge.
        edge: String,
        /// Producer's output type.
        expected: &'static str,
        /// Consumer's declared input type.
        got: &'static str,
    },
    /// The graph contains a cycle (strict dataflow must be acyclic).
    Cyclic,
    /// Duplicate node or source name.
    DuplicateName(String),
    /// Referenced node does not exist.
    UnknownNode(String),
    /// A value was written twice for the same (variable, epoch) — logs are
    /// single-assignment variables.
    SingleAssignmentViolation {
        /// Variable (source or node output) name.
        name: String,
        /// Epoch written twice.
        epoch: u64,
    },
    /// A payload failed to decode as a Laminar value.
    Codec(String),
    /// An operator returned an error.
    OpFailed {
        /// Node name.
        node: String,
        /// Operator's message.
        message: String,
    },
    /// Underlying CSPOT failure.
    Cspot(xg_cspot::CspotError),
}

impl fmt::Display for LaminarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaminarError::UnconnectedInput { node, port } => {
                write!(f, "input {port} of node '{node}' is unconnected")
            }
            LaminarError::DoublyConnectedInput { node, port } => {
                write!(f, "input {port} of node '{node}' has multiple producers")
            }
            LaminarError::TypeMismatch {
                edge,
                expected,
                got,
            } => write!(f, "type mismatch on {edge}: expected {expected}, got {got}"),
            LaminarError::Cyclic => write!(f, "dataflow graph contains a cycle"),
            LaminarError::DuplicateName(n) => write!(f, "duplicate name '{n}'"),
            LaminarError::UnknownNode(n) => write!(f, "unknown node '{n}'"),
            LaminarError::SingleAssignmentViolation { name, epoch } => {
                write!(
                    f,
                    "second write to single-assignment '{name}' epoch {epoch}"
                )
            }
            LaminarError::Codec(msg) => write!(f, "value codec error: {msg}"),
            LaminarError::OpFailed { node, message } => {
                write!(f, "operator '{node}' failed: {message}")
            }
            LaminarError::Cspot(e) => write!(f, "CSPOT error: {e}"),
        }
    }
}

impl std::error::Error for LaminarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LaminarError::Cspot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xg_cspot::CspotError> for LaminarError {
    fn from(e: xg_cspot::CspotError) -> Self {
        LaminarError::Cspot(e)
    }
}

/// Convenience alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, LaminarError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = LaminarError::SingleAssignmentViolation {
            name: "wind".into(),
            epoch: 4,
        };
        assert!(e.to_string().contains("wind"));
        assert!(e.to_string().contains('4'));
        let e = LaminarError::Cyclic;
        assert!(e.to_string().contains("cycle"));
    }
}
