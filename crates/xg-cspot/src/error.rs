//! Error type for the CSPOT runtime.

use std::fmt;

/// Errors produced by CSPOT log, node, and protocol operations.
#[derive(Debug)]
pub enum CspotError {
    /// The named log does not exist in the node's namespace.
    UnknownLog(String),
    /// A log with this name already exists.
    LogExists(String),
    /// The payload does not match the log's fixed element size.
    ElementSizeMismatch {
        /// The log's configured element size.
        expected: usize,
        /// The payload length supplied.
        got: usize,
    },
    /// The requested sequence number is not (or no longer) in the log's
    /// circular history window.
    SeqOutOfRange {
        /// Requested sequence number.
        seq: u64,
        /// Earliest retained sequence number (if any entries exist).
        earliest: Option<u64>,
        /// Latest sequence number (if any entries exist).
        latest: Option<u64>,
    },
    /// The append was written but the acknowledgment (sequence number) was
    /// lost — the paper's second failure mode. Retrying with the same
    /// idempotency token is safe.
    AckLost,
    /// The remote operation exhausted its retry budget (e.g. persistent
    /// network partition).
    RetriesExhausted {
        /// Number of attempts made.
        attempts: u32,
        /// Virtual time spent retrying before giving up (ms).
        elapsed_ms: f64,
    },
    /// Underlying storage failure.
    Storage(std::io::Error),
    /// A *sealed* segment failed its integrity check during recovery.
    ///
    /// Unlike a torn tail in the active segment (which is silently
    /// truncated — the crash interrupted an in-flight write), corruption
    /// behind the seal means acknowledged data was damaged at rest.
    /// Recovery fail-stops rather than silently dropping history.
    CorruptSegment {
        /// File name of the damaged segment.
        segment: String,
        /// What failed (frame CRC, footer CRC, missing footer, …).
        detail: String,
    },
}

impl fmt::Display for CspotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CspotError::UnknownLog(name) => write!(f, "unknown log '{name}'"),
            CspotError::LogExists(name) => write!(f, "log '{name}' already exists"),
            CspotError::ElementSizeMismatch { expected, got } => {
                write!(f, "element size mismatch: expected {expected}, got {got}")
            }
            CspotError::SeqOutOfRange {
                seq,
                earliest,
                latest,
            } => write!(
                f,
                "sequence {seq} out of range (retained: {earliest:?}..={latest:?})"
            ),
            CspotError::AckLost => write!(f, "append acknowledged sequence number lost"),
            CspotError::RetriesExhausted {
                attempts,
                elapsed_ms,
            } => {
                write!(
                    f,
                    "remote operation failed after {attempts} attempts ({elapsed_ms:.1} ms of virtual time)"
                )
            }
            CspotError::Storage(e) => write!(f, "storage error: {e}"),
            CspotError::CorruptSegment { segment, detail } => {
                write!(f, "sealed segment '{segment}' is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for CspotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CspotError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CspotError {
    fn from(e: std::io::Error) -> Self {
        CspotError::Storage(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, CspotError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_context() {
        let e = CspotError::ElementSizeMismatch {
            expected: 64,
            got: 65,
        };
        assert!(e.to_string().contains("64"));
        assert!(e.to_string().contains("65"));
        let e = CspotError::SeqOutOfRange {
            seq: 9,
            earliest: Some(10),
            latest: Some(20),
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn storage_engine_errors_carry_context() {
        let e = CspotError::CorruptSegment {
            segment: "00000000000000000001.seg".into(),
            detail: "record CRC mismatch at offset 128".into(),
        };
        let s = e.to_string();
        assert!(s.contains("00000000000000000001.seg"));
        assert!(s.contains("offset 128"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::other("disk gone");
        let e: CspotError = io.into();
        assert!(matches!(e, CspotError::Storage(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
