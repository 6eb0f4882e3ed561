//! Log persistence: the record, its wire format, and the engine seam.
//!
//! CSPOT implements logs in persistent storage so that power loss and other
//! device failures "that do not destroy the log storage are treated in the
//! same way as network interruption" (§3.1). [`StorageBackend`] is what a
//! durable [`crate::log::Log`] writes through; it hides the on-disk format
//! from the log and has one implementor,
//! [`crate::segment::SegmentedBackend`] — fixed-size sealed segments with
//! footers, group commit, retention compaction, torn-tail truncation in
//! the active segment and fail-stop semantics for at-rest corruption.
//!
//! A volatile log ([`crate::log::Log::volatile`]) has no backend at all:
//! its bounded circular history — one flat ring of fixed-size slots — is
//! its only storage, so simulations that do not exercise crash recovery
//! hold each payload exactly once, in place, and append without
//! allocating. [`Record`] is what crosses this seam; it is built for a
//! durable append or a read of whole records, never to retain an element.
//!
//! The record wire format (little endian) is
//! `[u32 payload_len][u64 seq][u128 token][payload][u32 fnv1a]` where the
//! checksum covers everything before it.

use crate::error::Result;

/// Fixed bytes before the payload: `u32 len + u64 seq + u128 token`.
pub(crate) const FRAME_HEADER: usize = 4 + 8 + 16;
/// Trailing checksum bytes.
pub(crate) const FRAME_TRAILER: usize = 4;
/// Payloads above this are never written by any backend; a decoded length
/// beyond it means the length field itself is corrupt (and guards the
/// recovery path against pathological allocations).
pub(crate) const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// A durable record: sequence number, idempotency token, payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Log sequence number (1-based).
    pub seq: u64,
    /// Idempotency token supplied by the appender (0 = none).
    pub token: u128,
    /// Element payload.
    pub payload: Vec<u8>,
}

/// Acknowledgment of one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendAck {
    /// The record's sequence number, echoed back.
    pub seq: u64,
    /// Whether the record is on stable storage *right now*. Group-commit
    /// backends return `false` between syncs; the record becomes durable
    /// at the next [`StorageBackend::sync`] (watch
    /// [`StorageBackend::committed_seq`]).
    pub durable: bool,
}

/// What a streaming recovery pass found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Intact records streamed to the sink.
    pub records: u64,
    /// Torn/corrupt tail bytes physically truncated from the active end.
    pub truncated_bytes: u64,
    /// Sealed segments verified (0 for a volatile log).
    pub sealed_segments: usize,
}

/// Storage backend for one log.
///
/// Recovery is *streaming*: records are pushed through a sink callback one
/// at a time, so a caller that only keeps a bounded window (the log's
/// circular history) never materializes the whole log in memory.
pub trait StorageBackend: Send {
    /// Append a record. The ack says whether it is already durable;
    /// buffered backends defer durability to [`StorageBackend::sync`].
    fn append(&mut self, record: &Record) -> Result<AppendAck>;

    /// Flush and fsync anything buffered. After `Ok`, every acked append
    /// is durable and [`StorageBackend::committed_seq`] reflects it.
    fn sync(&mut self) -> Result<()>;

    /// Highest sequence number known durable (`None` before the first
    /// durable append).
    fn committed_seq(&self) -> Option<u64>;

    /// Stream every intact record, in append order, into `sink`,
    /// truncating any torn tail. Corruption *behind a seal* is a typed
    /// [`crate::error::CspotError::CorruptSegment`] fail-stop instead.
    fn recover_scan(&mut self, sink: &mut dyn FnMut(Record)) -> Result<RecoverySummary>;

    /// Re-read up to `max` records with `seq >= from` from storage, in
    /// order. This reads persisted state, so buffered-but-unflushed
    /// appends may not yet be visible.
    fn read_from(&mut self, from: u64, max: usize) -> Result<Vec<Record>>;

    // --- fault injection -------------------------------------------------

    /// Simulate power loss: everything not fsynced is gone. Returns
    /// whether the simulation was applied.
    fn simulate_power_loss(&mut self) -> Result<bool>;

    /// Make the next append write only a partial frame (torn write), then
    /// fail. Returns whether the tear was armed.
    fn inject_torn_write(&mut self) -> bool;

    /// Stall (`true`) or release (`false`) fsync: while stalled, `sync`
    /// returns without making anything durable. Returns whether the stall
    /// state was set.
    fn set_sync_stall(&mut self, on: bool) -> bool;

    /// Flip one byte inside sealed segment `k` (0 = oldest retained), a
    /// bit-rot simulation. `Ok(false)` when there is no such segment.
    fn corrupt_sealed_segment(&mut self, k: usize) -> Result<bool>;
}

/// FNV-1a running update over `bytes` from hash state `h`.
pub(crate) fn fnv1a_update(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// FNV-1a offset basis (the hash of empty input).
pub(crate) const FNV_OFFSET: u32 = 0x811c_9dc5;

/// FNV-1a checksum used for record framing (in-tree to keep dependencies
/// to the approved list).
pub(crate) fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_update(FNV_OFFSET, bytes)
}

/// Encode a record into its wire frame.
pub(crate) fn encode_record(record: &Record) -> Vec<u8> {
    let mut buf = Vec::with_capacity(FRAME_HEADER + record.payload.len() + FRAME_TRAILER);
    buf.extend_from_slice(&(record.payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&record.seq.to_le_bytes());
    buf.extend_from_slice(&record.token.to_le_bytes());
    buf.extend_from_slice(&record.payload);
    let crc = fnv1a(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Result of decoding one frame from a byte slice.
#[derive(Debug)]
pub(crate) enum FrameDecode {
    /// A complete, checksummed record; the next frame starts at `next`.
    Ok { record: Record, next: usize },
    /// The buffer ends mid-frame (a torn tail).
    Torn,
    /// A complete frame whose checksum (or length field) is wrong.
    Corrupt,
}

/// Decode the frame starting at `off` within `bytes`.
pub(crate) fn decode_frame(bytes: &[u8], off: usize) -> FrameDecode {
    let Some(head) = bytes.get(off..off + FRAME_HEADER) else {
        return FrameDecode::Torn;
    };
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]) as usize;
    if len > MAX_PAYLOAD {
        return FrameDecode::Corrupt;
    }
    let total = FRAME_HEADER + len + FRAME_TRAILER;
    let Some(frame) = bytes.get(off..off + total) else {
        return FrameDecode::Torn;
    };
    let body = &frame[..FRAME_HEADER + len];
    let stored = u32::from_le_bytes([
        frame[FRAME_HEADER + len],
        frame[FRAME_HEADER + len + 1],
        frame[FRAME_HEADER + len + 2],
        frame[FRAME_HEADER + len + 3],
    ]);
    if fnv1a(body) != stored {
        return FrameDecode::Corrupt;
    }
    let seq = u64::from_le_bytes([
        frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
    ]);
    let mut token_bytes = [0u8; 16];
    token_bytes.copy_from_slice(&frame[12..28]);
    FrameDecode::Ok {
        record: Record {
            seq,
            token: u128::from_le_bytes(token_bytes),
            payload: frame[FRAME_HEADER..FRAME_HEADER + len].to_vec(),
        },
        next: off + total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, payload: &[u8]) -> Record {
        Record {
            seq,
            token: seq as u128 * 1000,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a of empty input is the offset basis.
        assert_eq!(fnv1a(&[]), FNV_OFFSET);
        // Differs for different inputs.
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        // Incremental update matches one-shot hashing.
        assert_eq!(fnv1a(b"split input"), {
            let h = fnv1a_update(FNV_OFFSET, b"split ");
            fnv1a_update(h, b"input")
        });
    }

    #[test]
    fn frame_decode_roundtrip_and_damage() {
        let r = rec(7, b"payload");
        let frame = encode_record(&r);
        match decode_frame(&frame, 0) {
            FrameDecode::Ok { record, next } => {
                assert_eq!(record, r);
                assert_eq!(next, frame.len());
            }
            other => panic!("expected Ok, got {other:?}"),
        }
        // Truncated → torn.
        assert!(matches!(
            decode_frame(&frame[..frame.len() - 1], 0),
            FrameDecode::Torn
        ));
        // Bit flip → corrupt.
        let mut bad = frame.clone();
        bad[10] ^= 0x40;
        assert!(matches!(decode_frame(&bad, 0), FrameDecode::Corrupt));
        // Absurd length field → corrupt, not an allocation attempt.
        let mut huge = frame;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&huge, 0), FrameDecode::Corrupt));
    }
}
