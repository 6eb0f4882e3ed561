//! CSPOT logs ("WooFs"): fixed-element-size, sequence-numbered, circular
//! append-only logs.
//!
//! Design constraints carried over from the paper (§3.4):
//!
//! * Only the assignment of a sequence number to an appended element is
//!   atomic; reads proceed concurrently against immutable history.
//! * There is **no lock API**. Internally a mutex protects sequence
//!   assignment, but it is never held across anything that can block on the
//!   network (appends to *remote* logs are composed in
//!   [`crate::protocol`], outside this lock).
//! * Logs are single-writer-ordered but multi-producer: any number of
//!   threads may append; each append receives a unique, dense sequence
//!   number.
//! * Elements have a fixed size declared at creation (the remote protocol
//!   fetches this size before sending data — the paper's two-phase append).
//! * History is circular: a log retains its most recent `history` elements.
//!
//! The retained window is one flat ring of `element_size`-byte slots
//! beside a token per slot. Sequences are dense, so a slot's sequence is
//! implied by its position, and the ring grows lazily to at most
//! `history × element_size` bytes: once it is full, a volatile append
//! copies the payload into the oldest slot and allocates nothing.
//! Idempotency tokens are indexed as runs of consecutive (token, sequence)
//! pairs, and a token keeps its sequence after its element leaves the
//! window. A writer that numbers its tokens sequentially extends one run
//! for as long as no other token-carrying writer interleaves on the same
//! log — how every log in the fabric is written — so the index grows with
//! writers, not with appends.

use crate::error::{CspotError, Result};
use crate::segment::SegmentedBackend;
use crate::storage::{Record, RecoverySummary};
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Where one append landed (see `Log::offer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Appended {
    /// The element's sequence number.
    pub seq: u64,
    /// False for a retry of a token already appended: `seq` is the
    /// original sequence and nothing was written.
    pub fresh: bool,
}

/// Static configuration of a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogConfig {
    /// Log name, unique within a node's namespace.
    pub name: String,
    /// Fixed element size in bytes. Appends of any other size are rejected.
    pub element_size: usize,
    /// Number of elements retained (circular history).
    pub history: usize,
}

/// Slots a ring reserves on its first append (fewer if `history` is).
const FIRST_SLOTS: usize = 8;

/// The retained window: up to `history` fixed-size payload slots and a
/// token per slot. On a volatile log this is the only copy of each record.
struct Ring {
    element_size: usize,
    history: usize,
    /// Slot `i`'s payload is `bytes[i * element_size..(i + 1) * element_size]`.
    bytes: Vec<u8>,
    /// Slot `i`'s idempotency token (0 = none); its length is the number
    /// of filled slots.
    tokens: Vec<u128>,
    /// Slot of the oldest element (0 until the ring wraps).
    head: usize,
}

impl Ring {
    fn new(element_size: usize, history: usize) -> Self {
        Ring {
            element_size,
            history,
            bytes: Vec::new(),
            tokens: Vec::new(),
            head: 0,
        }
    }

    fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Slot holding the `k`-th oldest element (`k < len`).
    fn slot(&self, k: usize) -> usize {
        (self.head + k) % self.tokens.len()
    }

    /// Payload of the `k`-th oldest element.
    fn payload(&self, k: usize) -> &[u8] {
        let at = self.slot(k) * self.element_size;
        &self.bytes[at..at + self.element_size]
    }

    /// Token of the `k`-th oldest element.
    fn token(&self, k: usize) -> u128 {
        self.tokens[self.slot(k)]
    }

    /// Append `payload` (exactly `element_size` bytes), evicting the oldest
    /// element once `history` slots are filled.
    fn push(&mut self, token: u128, payload: &[u8]) {
        let filled = self.tokens.len();
        if filled < self.history {
            if filled == self.tokens.capacity() {
                // Double, but never past the cap: a full ring holds exactly
                // `history` slots.
                let slots = (2 * filled).max(FIRST_SLOTS).min(self.history);
                self.tokens.reserve_exact(slots - filled);
                self.bytes
                    .reserve_exact((slots - filled) * self.element_size);
            }
            self.tokens.push(token);
            self.bytes.extend_from_slice(payload);
        } else if filled > 0 {
            let at = self.head * self.element_size;
            self.bytes[at..at + self.element_size].copy_from_slice(payload);
            self.tokens[self.head] = token;
            self.head = (self.head + 1) % filled;
        }
    }

    /// Bytes reserved for payloads.
    #[cfg(test)]
    fn byte_capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// Idempotency token → sequence, as runs: an entry `start → (seq, len)`
/// says tokens `start..start + len` were assigned sequences
/// `seq..seq + len`.
#[derive(Default)]
struct TokenRuns(BTreeMap<u128, (u64, u64)>);

impl TokenRuns {
    /// The run holding `token`: its start token, first sequence and length.
    fn run_of(&self, token: u128) -> Option<(u128, u64, u64)> {
        let (&start, &(seq, len)) = self.0.range(..=token).next_back()?;
        (token - start < u128::from(len)).then_some((start, seq, len))
    }

    fn get(&self, token: u128) -> Option<u64> {
        self.run_of(token)
            .map(|(start, seq, _)| seq + (token - start) as u64)
    }

    /// Record `token → seq`, extending the run that ends just before it
    /// when `seq` also follows that run's last sequence.
    ///
    /// `token` must not be held yet: [`Log::offer`] dedups before every
    /// commit, and recovery replays only tokens that went through `offer`,
    /// so no path re-assigns a token.
    fn insert(&mut self, token: u128, seq: u64) {
        debug_assert!(self.run_of(token).is_none(), "token {token} already held");
        if let Some((&start, run)) = self.0.range_mut(..token).next_back() {
            if token - start == u128::from(run.1) && seq.checked_sub(run.0) == Some(run.1) {
                run.1 += 1;
                return;
            }
        }
        self.0.insert(token, (seq, 1));
    }

    /// Number of runs held.
    #[cfg(test)]
    fn runs(&self) -> usize {
        self.0.len()
    }
}

struct LogInner {
    next_seq: u64,
    ring: Ring,
    tokens: TokenRuns,
    /// The durable engine; `None` for a volatile log. Boxed, so a volatile
    /// log (every log in the fabric) does not carry an engine's worth of
    /// bytes inline.
    backend: Option<Box<SegmentedBackend>>,
    /// Fault injection: number of upcoming appends that fail as storage
    /// errors before anything is written (full disk, dying flash).
    inject_failures: u32,
}

impl LogInner {
    fn new(config: &LogConfig) -> Self {
        LogInner {
            next_seq: 1,
            ring: Ring::new(config.element_size, config.history),
            tokens: TokenRuns::default(),
            backend: None,
            inject_failures: 0,
        }
    }

    /// Sequence of the element at ring position `k` (`k < len`): dense
    /// sequences end at `next_seq - 1`.
    fn seq_at(&self, k: usize) -> u64 {
        self.next_seq - (self.ring.len() - k) as u64
    }

    /// Sequence of the oldest retained element.
    fn earliest(&self) -> Option<u64> {
        (self.ring.len() > 0).then(|| self.seq_at(0))
    }

    /// Sequence of the newest retained element.
    fn latest(&self) -> Option<u64> {
        (self.ring.len() > 0).then(|| self.next_seq - 1)
    }

    /// Ring position of the first retained element with `seq >= from`.
    /// Sequences are dense, so this is an offset rather than a search.
    fn position_from(&self, from: u64) -> usize {
        let earliest = self.earliest().unwrap_or(0);
        from.saturating_sub(earliest).min(self.ring.len() as u64) as usize
    }

    /// The payload retained at `seq`.
    fn retained(&self, seq: u64) -> Result<&[u8]> {
        match self.earliest() {
            Some(earliest) if seq >= earliest && seq < self.next_seq => {
                Ok(self.ring.payload((seq - earliest) as usize))
            }
            earliest => Err(CspotError::SeqOutOfRange {
                seq,
                earliest,
                latest: self.latest(),
            }),
        }
    }

    /// The retained record at ring position `k`.
    fn record(&self, k: usize) -> Record {
        Record {
            seq: self.seq_at(k),
            token: self.ring.token(k),
            payload: self.ring.payload(k).to_vec(),
        }
    }

    /// Commit the element carrying the next sequence: through the durable
    /// engine first (so a storage error leaves the log untouched), then
    /// into the ring, evicting beyond `history`.
    fn commit(&mut self, seq: u64, token: u128, payload: &[u8]) -> Result<()> {
        if let Some(backend) = &mut self.backend {
            backend.append(&Record {
                seq,
                token,
                payload: payload.to_vec(),
            })?;
        }
        self.retain(seq, token, payload);
        Ok(())
    }

    /// Index and ring an element that storage already holds (or that a
    /// volatile log holds nowhere else).
    fn retain(&mut self, seq: u64, token: u128, payload: &[u8]) {
        self.next_seq = seq + 1;
        if token != 0 {
            self.tokens.insert(token, seq);
        }
        self.ring.push(token, payload);
    }
}

/// A CSPOT log.
pub struct Log {
    config: LogConfig,
    recovery: RecoverySummary,
    inner: Mutex<LogInner>,
}

impl Log {
    /// Create a log over the durable engine, recovering any records the
    /// backend already holds (crash recovery / restart).
    ///
    /// Recovery is streaming: records flow through one at a time and only
    /// the most recent `history` records are retained, so memory stays
    /// O(history + writers) even over multi-gigabyte logs. Corruption in a
    /// sealed segment surfaces here as [`CspotError::CorruptSegment`]; a
    /// recovered element of another size than `config.element_size` as
    /// [`CspotError::ElementSizeMismatch`].
    pub fn create(config: LogConfig, mut backend: SegmentedBackend) -> Result<Self> {
        let mut inner = LogInner::new(&config);
        let mut misfit = None;
        let summary = backend.recover_scan(&mut |r: Record| {
            if r.payload.len() != config.element_size {
                misfit.get_or_insert(r.payload.len());
            } else if misfit.is_none() {
                inner.retain(r.seq, r.token, &r.payload);
            }
        })?;
        if let Some(got) = misfit {
            return Err(CspotError::ElementSizeMismatch {
                expected: config.element_size,
                got,
            });
        }
        inner.backend = Some(Box::new(backend));
        Ok(Log {
            config,
            recovery: summary,
            inner: Mutex::new(inner),
        })
    }

    /// Create a volatile log: the circular history is the log's only
    /// storage, so it holds at most `history` records and nothing survives
    /// the process (no recovery, no sealed segments, no storage faults to
    /// inject).
    pub fn volatile(config: LogConfig) -> Self {
        Log {
            inner: Mutex::new(LogInner::new(&config)),
            config,
            recovery: RecoverySummary::default(),
        }
    }

    /// What recovery found when this log was created (record count, bytes
    /// truncated from a torn tail, sealed segments verified).
    pub fn recovery_summary(&self) -> RecoverySummary {
        self.recovery
    }

    /// The fixed element size (the datum the remote protocol's first phase
    /// fetches).
    pub(crate) fn element_size(&self) -> usize {
        self.config.element_size
    }

    /// Ask the durable engine, or answer `volatile` when the log has none.
    fn engine<T>(&self, volatile: T, ask: impl FnOnce(&mut SegmentedBackend) -> T) -> T {
        match &mut self.inner().backend {
            Some(backend) => ask(backend),
            None => volatile,
        }
    }

    /// The log's state, locked. A poisoned lock is recovered rather than
    /// passed on: a panic on one thread does not fail every later call.
    fn inner(&self) -> MutexGuard<'_, LogInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn check_size(&self, payload: &[u8]) -> Result<()> {
        if payload.len() == self.config.element_size {
            Ok(())
        } else {
            Err(CspotError::ElementSizeMismatch {
                expected: self.config.element_size,
                got: payload.len(),
            })
        }
    }

    /// Append an element, returning its sequence number (1-based, dense).
    pub fn append(&self, payload: &[u8]) -> Result<u64> {
        self.append_with_token(0, payload)
    }

    /// Append with an idempotency token: if an element with this token was
    /// already appended (a retry after a lost acknowledgment), the original
    /// sequence number is returned and no duplicate is written.
    ///
    /// Token 0 means "no token" (no deduplication).
    pub fn append_with_token(&self, token: u128, payload: &[u8]) -> Result<u64> {
        self.offer(token, payload).map(|a| a.seq)
    }

    /// [`Self::append_with_token`], also reporting whether the element is
    /// new, under the one lock acquisition (a node fires handlers only
    /// for fresh appends).
    pub(crate) fn offer(&self, token: u128, payload: &[u8]) -> Result<Appended> {
        self.check_size(payload)?;
        let mut inner = self.inner();
        if token != 0 {
            if let Some(seq) = inner.tokens.get(token) {
                return Ok(Appended { seq, fresh: false });
            }
        }
        if inner.inject_failures > 0 {
            inner.inject_failures -= 1;
            return Err(CspotError::Storage(std::io::Error::other(
                "injected append failure",
            )));
        }
        let seq = inner.next_seq;
        inner.commit(seq, token, payload)?;
        Ok(Appended { seq, fresh: true })
    }

    /// Inject `n` storage append failures: the next `n` (non-deduplicated)
    /// appends return [`CspotError::Storage`] without writing anything.
    /// Retries with an idempotency token remain exactly-once across the
    /// fault window.
    pub fn inject_append_failures(&self, n: u32) {
        self.inner().inject_failures = n;
    }

    /// Number of injected append failures still pending.
    pub fn pending_injected_failures(&self) -> u32 {
        self.inner().inject_failures
    }

    /// Read the element at `seq`.
    pub fn get(&self, seq: u64) -> Result<Vec<u8>> {
        self.inner().retained(seq).map(<[u8]>::to_vec)
    }

    /// Read the element at `seq` into `out`, replacing its contents and
    /// reusing its allocation (a drain loop's read).
    pub(crate) fn read_into(&self, seq: u64, out: &mut Vec<u8>) -> Result<()> {
        let inner = self.inner();
        let payload = inner.retained(seq)?;
        out.clear();
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Latest assigned sequence number, if any element has been appended.
    pub fn latest_seq(&self) -> Option<u64> {
        self.inner().latest()
    }

    /// Earliest retained sequence number.
    pub fn earliest_seq(&self) -> Option<u64> {
        self.inner().earliest()
    }

    /// Number of retained elements.
    pub fn len(&self) -> usize {
        self.inner().ring.len()
    }

    /// True if no elements are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit the retained window **where it lies**: `visit` sees each
    /// `(seq, payload)` by reference, newest first, until it returns
    /// `Some`, which is the result. No element is copied.
    ///
    /// This is the primitive CSPOT handlers use to implement multi-event
    /// synchronization: since a handler fires on exactly one append, joining
    /// multiple events requires scanning log history (paper §3.4).
    ///
    /// `visit` runs under this log's lock, which is not re-entrant: it must
    /// not touch the same log (handlers run after `put` has released it).
    pub fn scan_newest_first<T>(
        &self,
        mut visit: impl FnMut(u64, &[u8]) -> Option<T>,
    ) -> Option<T> {
        let inner = self.inner();
        (0..inner.ring.len())
            .rev()
            .find_map(|k| visit(inner.seq_at(k), inner.ring.payload(k)))
    }

    /// Number of retained elements with `seq >= from`, counted without
    /// copying a payload.
    pub(crate) fn count_from(&self, from: u64) -> usize {
        let inner = self.inner();
        inner.ring.len() - inner.position_from(from)
    }

    /// The most recent `n` elements, oldest first.
    pub fn tail(&self, n: usize) -> Vec<(u64, Vec<u8>)> {
        let inner = self.inner();
        let len = inner.ring.len();
        (len.saturating_sub(n)..len)
            .map(|k| (inner.seq_at(k), inner.ring.payload(k).to_vec()))
            .collect()
    }

    /// Force everything appended so far onto stable storage (flush +
    /// fsync). After this returns Ok, [`Self::committed_seq`] equals
    /// [`Self::latest_seq`] (unless a sync stall is injected). A volatile
    /// log has nothing to flush.
    pub fn sync(&self) -> Result<()> {
        self.engine(Ok(()), |b| b.sync())
    }

    /// Highest sequence number known durable on stable storage. Under
    /// group commit this trails [`Self::latest_seq`] by up to one batch. A
    /// volatile log keeps what it has for as long as the process lives;
    /// simulations treat that as committed.
    pub fn committed_seq(&self) -> Option<u64> {
        let inner = self.inner();
        match &inner.backend {
            Some(backend) => backend.committed_seq(),
            None => inner.latest(),
        }
    }

    /// Look up the sequence an idempotency token was assigned, if this
    /// token has ever been (durably) appended. Chaos clients use this
    /// after a crash to decide which writes to replay.
    pub fn has_token(&self, token: u128) -> Option<u64> {
        if token == 0 {
            return None;
        }
        self.inner().tokens.get(token)
    }

    /// Read full records (seq, token, payload) starting at `from`, at most
    /// `max`. A durable log reads through its engine, so it sees records
    /// already evicted from the circular window; a volatile log serves the
    /// retained window, which is all it has.
    pub fn read_records_from(&self, from: u64, max: usize) -> Result<Vec<Record>> {
        let mut inner = self.inner();
        if let Some(backend) = &mut inner.backend {
            return backend.read_from(from, max);
        }
        let start = inner.position_from(from);
        let end = start.saturating_add(max).min(inner.ring.len());
        Ok((start..end).map(|k| inner.record(k)).collect())
    }

    /// Fault injection: simulate power loss (unsynced bytes vanish).
    /// Returns false on a volatile log, which has no durability to lose.
    pub fn simulate_power_loss(&self) -> Result<bool> {
        self.engine(Ok(false), |b| b.simulate_power_loss().map(|()| true))
    }

    /// Fault injection: tear the next append mid-frame. Returns false on a
    /// volatile log (no frames to tear).
    pub fn inject_torn_write(&self) -> bool {
        self.engine(false, |b| {
            b.inject_torn_write();
            true
        })
    }

    /// Fault injection: stall (or release) fsync — appends keep landing
    /// in volatile buffers but the durable watermark freezes. Returns
    /// false on a volatile log (nothing to sync).
    pub fn set_sync_stall(&self, on: bool) -> bool {
        self.engine(false, |b| {
            b.set_sync_stall(on);
            true
        })
    }

    /// Fault injection: flip a bit inside the `k`-th sealed segment.
    /// Returns Ok(false) if there is no such segment (a volatile log has
    /// none).
    pub fn corrupt_sealed_segment(&self, k: usize) -> Result<bool> {
        self.engine(Ok(false), |b| b.corrupt_sealed_segment(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{SegmentConfig, SegmentedBackend};
    use std::sync::Arc;

    fn config(element_size: usize, history: usize) -> LogConfig {
        LogConfig {
            name: "t".into(),
            element_size,
            history,
        }
    }

    fn mklog(element_size: usize, history: usize) -> Log {
        Log::volatile(config(element_size, history))
    }

    /// A log over the durable engine in `dir`; re-opening recovers it.
    fn durable_log(dir: &std::path::Path, element_size: usize, history: usize) -> Log {
        let backend = SegmentedBackend::open(dir, SegmentConfig::default()).unwrap();
        Log::create(config(element_size, history), backend).unwrap()
    }

    #[test]
    fn volatile_log_retains_at_most_history_records() {
        let history = 8;
        let log = mklog(8, history);
        for i in 1..=3 * history as u64 {
            assert_eq!(
                log.append_with_token(i as u128, &i.to_le_bytes()).unwrap(),
                i
            );
        }
        assert_eq!(log.len(), history);
        // The ring is the only storage: a full read serves the retained
        // window, not everything ever appended.
        let all = log.read_records_from(1, usize::MAX).unwrap();
        assert_eq!(all.len(), history);
        assert_eq!(all[0].seq, log.earliest_seq().unwrap());
        assert_eq!(all[0].token, all[0].seq as u128);
        assert_eq!(log.committed_seq(), log.latest_seq());
        // Dedup outlives eviction: a retry of a long-evicted record is
        // still absorbed at its original sequence.
        assert!(log.get(1).is_err(), "seq 1 was evicted");
        assert_eq!(log.append_with_token(1, &1u64.to_le_bytes()).unwrap(), 1);
        assert_eq!(log.latest_seq(), Some(3 * history as u64));
    }

    #[test]
    fn ring_caps_its_bytes_at_history_slots() {
        let (element_size, history) = (48, 100);
        let log = mklog(element_size, history);
        let full = history * element_size;
        for i in 1..=3 * history as u64 {
            let mut payload = [0u8; 48];
            payload[..8].copy_from_slice(&i.to_le_bytes());
            log.append(&payload).unwrap();
            let inner = log.inner();
            assert!(inner.ring.byte_capacity() <= full, "grew past the cap");
        }
        assert_eq!(log.inner().ring.byte_capacity(), full);
        // Wrapped twice over: the window is still the newest `history`,
        // oldest first.
        let tail = log.tail(history);
        assert_eq!(tail.first().map(|(seq, _)| *seq), Some(201));
        for (seq, payload) in tail {
            assert_eq!(payload[..8], seq.to_le_bytes());
        }
    }

    #[test]
    fn zero_history_log_holds_nothing() {
        let log = mklog(4, 0);
        for (i, token) in (1..=3u64).zip([0, 5, 6]) {
            assert_eq!(log.append_with_token(token, b"abcd").unwrap(), i);
        }
        assert_eq!(
            (log.len(), log.latest_seq(), log.earliest_seq()),
            (0, None, None)
        );
        assert!(log.get(3).is_err());
        assert!(log.tail(8).is_empty());
        assert!(log.read_records_from(1, 8).unwrap().is_empty());
        assert_eq!(log.inner().ring.byte_capacity(), 0);
        // Tokens are still remembered.
        assert_eq!(log.append_with_token(5, b"abcd").unwrap(), 2);
    }

    #[test]
    fn sequential_writers_hold_one_token_run_each() {
        let log = mklog(8, 16);
        let writers = [1u128 << 64, 2 << 64, 3 << 64];
        for i in 1..=1_000u128 {
            for w in writers {
                log.append_with_token(w | i, &[0; 8]).unwrap();
            }
        }
        // Interleaved writers break each other's sequence runs …
        assert_eq!(log.inner().tokens.runs(), 3_000);
        let log = mklog(8, 16);
        for w in writers {
            for i in 1..=1_000u128 {
                log.append_with_token(w | i, &[0; 8]).unwrap();
            }
        }
        // … while back-to-back writers (the gateway's relays, an
        // appender's counter) collapse to one run apiece.
        assert_eq!(log.inner().tokens.runs(), 3);
        assert_eq!(log.has_token(2 << 64 | 500), Some(1_500));
        assert_eq!(log.has_token(2 << 64 | 1_001), None);
    }

    #[test]
    fn read_records_skips_and_bounds() {
        let log = mklog(3, 16);
        for s in 1..=5u8 {
            log.append(&[s; 3]).unwrap();
        }
        let rs = log.read_records_from(3, 2).unwrap();
        assert_eq!(rs.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![3, 4]);
        assert!(log.read_records_from(9, 10).unwrap().is_empty());
        assert_eq!(log.count_from(3), 3);
        assert_eq!(log.count_from(0), 5);
        assert_eq!(log.count_from(9), 0);
    }

    #[test]
    fn injected_append_failures_then_recovery() {
        let log = mklog(3, 16);
        log.append(b"aaa").unwrap();
        log.inject_append_failures(2);
        assert_eq!(log.pending_injected_failures(), 2);
        assert!(matches!(
            log.append(b"bbb").unwrap_err(),
            CspotError::Storage(_)
        ));
        assert!(log.append(b"bbb").is_err());
        // Fault window exhausted: appends succeed again with dense seqs.
        assert_eq!(log.pending_injected_failures(), 0);
        assert_eq!(log.append(b"bbb").unwrap(), 2);
        assert_eq!(log.len(), 2, "failed appends wrote nothing");
        // Deduplicated retries are not consumed by the fault window.
        let seq = log.append_with_token(99, b"ccc").unwrap();
        log.inject_append_failures(1);
        assert_eq!(log.append_with_token(99, b"ccc").unwrap(), seq);
        assert_eq!(log.pending_injected_failures(), 1);
    }

    #[test]
    fn append_returns_dense_sequences() {
        let log = mklog(3, 16);
        assert_eq!(log.append(b"aaa").unwrap(), 1);
        assert_eq!(log.append(b"bbb").unwrap(), 2);
        assert_eq!(log.append(b"ccc").unwrap(), 3);
        assert_eq!(log.latest_seq(), Some(3));
    }

    #[test]
    fn element_size_enforced() {
        let log = mklog(4, 16);
        assert!(matches!(
            log.append(b"toolong"),
            Err(CspotError::ElementSizeMismatch {
                expected: 4,
                got: 7
            })
        ));
        assert!(log.append(b"ok!!").is_ok());
    }

    #[test]
    fn get_roundtrip() {
        let log = mklog(2, 16);
        let s1 = log.append(b"ab").unwrap();
        let s2 = log.append(b"cd").unwrap();
        assert_eq!(log.get(s1).unwrap(), b"ab");
        assert_eq!(log.get(s2).unwrap(), b"cd");
        assert!(log.get(99).is_err());
        assert!(log.get(0).is_err());
    }

    #[test]
    fn circular_history_evicts_oldest() {
        let log = mklog(1, 3);
        for b in [b"a", b"b", b"c", b"d", b"e"] {
            log.append(b.as_slice()).unwrap();
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.earliest_seq(), Some(3));
        assert_eq!(log.latest_seq(), Some(5));
        assert!(log.get(2).is_err(), "evicted element must be unreadable");
        assert_eq!(log.get(3).unwrap(), b"c");
        // Sequence numbers keep growing past eviction.
        assert_eq!(log.append(b"f").unwrap(), 6);
    }

    #[test]
    fn dedup_returns_original_seq() {
        let log = mklog(1, 16);
        let s1 = log.append_with_token(42, b"x").unwrap();
        let s2 = log.append_with_token(42, b"x").unwrap();
        assert_eq!(s1, s2);
        assert_eq!(log.len(), 1, "no duplicate element");
        // A different token appends normally.
        let s3 = log.append_with_token(43, b"y").unwrap();
        assert_eq!(s3, s1 + 1);
    }

    #[test]
    fn token_zero_never_dedups() {
        let log = mklog(1, 16);
        let s1 = log.append_with_token(0, b"x").unwrap();
        let s2 = log.append_with_token(0, b"x").unwrap();
        assert_ne!(s1, s2);
    }

    #[test]
    fn scan_and_tail() {
        let log = mklog(1, 16);
        for b in [b"a", b"b", b"c", b"d"] {
            log.append(b.as_slice()).unwrap();
        }
        let tail = log.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].1, b"c");
        assert_eq!(tail[1].1, b"d");
        // Tail longer than the log returns everything.
        assert_eq!(log.tail(100).len(), 4);
    }

    /// The reader's contract, on whatever log `mk(element_size, history)`
    /// builds: newest first, by reference, first `Some` wins, and only the
    /// retained window is visible.
    fn check_reader(mk: impl Fn(usize, usize) -> Log) {
        let log = mk(1, 4);
        assert_eq!(log.scan_newest_first(|seq, _| Some(seq)), None, "empty log");
        for b in [b"a", b"b", b"c", b"b", b"e"] {
            log.append(b.as_slice()).unwrap();
        }
        let mut visited = Vec::new();
        let all = log.scan_newest_first(|seq, payload: &[u8]| {
            visited.push((seq, payload[0]));
            None::<()>
        });
        assert_eq!(all, None, "a visit that never answers sees everything");
        assert_eq!(visited, vec![(5, b'e'), (4, b'b'), (3, b'c'), (2, b'b')]);
        // Stops at the first answer: the newer of the two `b`s, without
        // looking at anything older.
        let mut looked_at = 0;
        let hit = log.scan_newest_first(|seq, payload| {
            looked_at += 1;
            (payload == b"b").then_some(seq)
        });
        assert_eq!((hit, looked_at), (Some(4), 2));
        // An evicted element is absent, not an error.
        assert_eq!(
            log.scan_newest_first(|seq, payload| (payload == b"a").then_some(seq)),
            None
        );
    }

    #[test]
    fn reader_visits_retained_window_newest_first() {
        check_reader(mklog);
        let dir = std::env::temp_dir().join(format!("xg-log-reader-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        check_reader(|element_size, history| durable_log(&dir, element_size, history));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_unique_dense_seqs() {
        let log = Arc::new(mklog(8, 100_000));
        let threads = 8;
        let per_thread = 500;
        let mut handles = Vec::new();
        for t in 0..threads {
            let log = Arc::clone(&log);
            handles.push(std::thread::spawn(move || {
                let mut seqs = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let payload = [(t as u8); 8];
                    let _ = i;
                    seqs.push(log.append(&payload).unwrap());
                }
                seqs
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=(threads * per_thread) as u64).collect();
        assert_eq!(all, expect, "sequence numbers must be unique and dense");
    }

    #[test]
    fn recovery_rejects_elements_of_another_size() {
        // Ring slots are fixed-size: a log re-opened with a different
        // element size than it was written with is an error, not a
        // misaligned ring.
        let dir = std::env::temp_dir().join(format!("xg-log-misfit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        durable_log(&dir, 2, 10).append(b"ab").unwrap();
        let backend = SegmentedBackend::open(&dir, SegmentConfig::default()).unwrap();
        assert!(matches!(
            Log::create(config(3, 10), backend),
            Err(CspotError::ElementSizeMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert_eq!(durable_log(&dir, 2, 10).get(1).unwrap(), b"ab");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_restores_state() {
        let dir = std::env::temp_dir().join(format!("xg-log-recovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let log = durable_log(&dir, 2, 10);
            log.append(b"ab").unwrap();
            log.append_with_token(7, b"cd").unwrap();
        }
        // "Restart" the node: recreate the log over the same directory.
        let log = durable_log(&dir, 2, 10);
        assert_eq!(log.latest_seq(), Some(2));
        assert_eq!(log.get(1).unwrap(), b"ab");
        // Dedup state survives restart: a retried append is still absorbed.
        let s = log.append_with_token(7, b"cd").unwrap();
        assert_eq!(s, 2);
        // And new appends continue the sequence.
        assert_eq!(log.append(b"ef").unwrap(), 3);
    }
}
