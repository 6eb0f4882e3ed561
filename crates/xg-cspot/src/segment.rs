//! Segmented append-only storage engine.
//!
//! The production backend behind durable CSPOT logs. The log is a
//! directory of fixed-size **segments**, each a run of CRC-framed records
//! (the shared wire format in [`crate::storage`]). The segment currently
//! receiving appends is *active*; when it reaches the configured size it
//! is **sealed**: a footer summarizing the segment (first/last sequence,
//! record count, a running checksum over every record byte) is written
//! and fsynced before the next segment may be created. That ordering is
//! the engine's core invariant:
//!
//! > If a segment with a higher first-sequence exists on disk, every
//! > lower segment is sealed, complete, and durable.
//!
//! Recovery therefore has exactly two regimes:
//!
//! * **Active segment** (the highest-numbered file): a torn or corrupt
//!   tail is the signature of a crash mid-write — silently truncate to
//!   the last intact record and continue. This is ordinary WAL recovery.
//! * **Sealed segments**: any damage (record CRC, footer mismatch,
//!   missing footer) means *acknowledged* data rotted at rest. Recovery
//!   fail-stops with [`CspotError::CorruptSegment`] instead of silently
//!   shortening history that readers or handlers may have acted on.
//!
//! Durability is tunable via [`SyncPolicy`]: `EveryAppend` fsyncs each
//! record (safest, slowest); `GroupCommit { every }` batches fsyncs so
//! only ~1/N appends pay the device round-trip, keeping append p99 flat
//! as the log grows. The durable watermark is exposed as
//! `committed_seq`; acks carry `durable: false` between group commits.
//! Sealed segments older than the retention budget are deleted whole
//! (compaction is unit-of-segment, so it never rewrites data).

use crate::error::{CspotError, Result};
use crate::storage::{
    decode_frame, encode_record, fnv1a, fnv1a_update, AppendAck, FrameDecode, Record,
    RecoverySummary, StorageBackend, FNV_OFFSET, FRAME_HEADER, FRAME_TRAILER,
};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening a segment footer ("XGSF"). A footer can never be
/// confused with a record frame: read as a length field, the magic would
/// claim a ~1.2 GB payload, far above [`crate::storage::MAX_PAYLOAD`].
const FOOTER_MAGIC: [u8; 4] = *b"XGSF";
/// Footer wire size: magic + first_seq + last_seq + count + records_crc
/// + footer_crc.
const FOOTER_LEN: usize = 4 + 8 + 8 + 8 + 4 + 4;

/// When appends become durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every append. Every ack is `durable: true`.
    EveryAppend,
    /// fsync once per `every` appends (and on seal / explicit sync).
    /// Acks in between are `durable: false`; a crash can lose that
    /// unsynced tail, which idempotent client replay repairs.
    GroupCommit {
        /// Appends per fsync (clamped to ≥ 1).
        every: u32,
    },
}

/// Static configuration of a [`SegmentedBackend`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Roll (seal) the active segment once its record bytes reach this.
    pub segment_bytes: u64,
    /// Sealed segments to retain; older ones are deleted whole. `None`
    /// keeps everything.
    pub retain_segments: Option<usize>,
    /// Durability policy.
    pub sync: SyncPolicy,
    /// Sparse-index granularity: one `(seq, offset)` entry per this many
    /// records (clamped to ≥ 1).
    pub index_stride: u64,
}

impl Default for SegmentConfig {
    fn default() -> Self {
        SegmentConfig {
            segment_bytes: 4 * 1024 * 1024,
            retain_segments: None,
            sync: SyncPolicy::EveryAppend,
            index_stride: 64,
        }
    }
}

/// Sealed-segment footer contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footer {
    first_seq: u64,
    last_seq: u64,
    count: u64,
    records_crc: u32,
}

impl Footer {
    fn encode(&self) -> [u8; FOOTER_LEN] {
        let mut buf = [0u8; FOOTER_LEN];
        buf[0..4].copy_from_slice(&FOOTER_MAGIC);
        buf[4..12].copy_from_slice(&self.first_seq.to_le_bytes());
        buf[12..20].copy_from_slice(&self.last_seq.to_le_bytes());
        buf[20..28].copy_from_slice(&self.count.to_le_bytes());
        buf[28..32].copy_from_slice(&self.records_crc.to_le_bytes());
        let crc = fnv1a(&buf[0..32]);
        buf[32..36].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode a footer from exactly [`FOOTER_LEN`] bytes; `None` when the
    /// magic or the footer's own checksum does not hold.
    fn decode(bytes: &[u8]) -> Option<Footer> {
        if bytes.len() != FOOTER_LEN || bytes[0..4] != FOOTER_MAGIC {
            return None;
        }
        let stored = u32::from_le_bytes([bytes[32], bytes[33], bytes[34], bytes[35]]);
        if fnv1a(&bytes[0..32]) != stored {
            return None;
        }
        let word = |a: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[a..a + 8]);
            u64::from_le_bytes(b)
        };
        Some(Footer {
            first_seq: word(4),
            last_seq: word(12),
            count: word(20),
            records_crc: u32::from_le_bytes([bytes[28], bytes[29], bytes[30], bytes[31]]),
        })
    }
}

/// In-memory descriptor of one sealed segment.
#[derive(Debug, Clone)]
struct SealedMeta {
    path: PathBuf,
    footer: Footer,
    /// Sparse `(seq, offset)` index. Populated for segments sealed during
    /// this process's lifetime; empty after a restart (reads then scan
    /// from the segment head, which is bounded by `segment_bytes`).
    index: Vec<(u64, u64)>,
}

/// The segment currently receiving appends.
struct ActiveSegment {
    path: PathBuf,
    writer: BufWriter<File>,
    first_seq: u64,
    last_seq: u64,
    count: u64,
    /// Record bytes written (buffered or not); the footer starts here.
    bytes: u64,
    /// Bytes known fsynced (power loss truncates the file to this).
    synced_bytes: u64,
    /// Running FNV-1a over every record byte, for the footer.
    records_crc: u32,
    /// Sparse `(seq, offset)` index.
    index: Vec<(u64, u64)>,
}

/// Segmented append-only storage engine; see the module docs.
pub struct SegmentedBackend {
    dir: PathBuf,
    config: SegmentConfig,
    sealed: Vec<SealedMeta>,
    active: Option<ActiveSegment>,
    committed: Option<u64>,
    pending_since_sync: u32,
    sync_stalled: bool,
    tear_next_append: bool,
    /// Bytes cut from the active segment's torn tail during `open`,
    /// surfaced through the recovery summary.
    truncated_at_open: u64,
    /// Set after an injected torn write: the file ends mid-frame, so
    /// further appends would corrupt the log. Only a fresh open (which
    /// truncates the torn tail) clears it.
    poisoned: bool,
}

fn segment_file_name(first_seq: u64) -> String {
    format!("{first_seq:020}.seg")
}

/// Writer sized so a whole group-commit window fits in memory: with the
/// default 8 KB buffer, appends between fsyncs still pay write(2) every
/// few records, which is exactly the syscall tail group commit exists to
/// remove. One segment of buffer (capped at 4 MiB) keeps the append hot
/// path allocation- and syscall-free until `sync` or seal.
fn segment_writer(file: File, config: &SegmentConfig) -> BufWriter<File> {
    let cap = config.segment_bytes.clamp(64 * 1024, 4 * 1024 * 1024) as usize;
    BufWriter::with_capacity(cap, file)
}

fn parse_segment_name(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    if path.extension()?.to_str()? != "seg" || stem.len() != 20 {
        return None;
    }
    stem.parse().ok()
}

fn file_name_string(path: &Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

fn corrupt(path: &Path, detail: impl Into<String>) -> CspotError {
    CspotError::CorruptSegment {
        segment: file_name_string(path),
        detail: detail.into(),
    }
}

/// What scanning one segment file found.
enum SegmentScan {
    /// Ends with a valid footer consistent with its records.
    Sealed(Footer),
    /// No footer; `valid_end` is the offset just past the last intact
    /// record (anything beyond is a torn/interrupted tail).
    Active {
        valid_end: u64,
        first_seq: u64,
        last_seq: u64,
        count: u64,
        records_crc: u32,
        index: Vec<(u64, u64)>,
    },
}

impl SegmentedBackend {
    /// Open (or create) the engine over `dir`, running recovery: sealed
    /// segments are footer-verified, the active segment's torn tail (if
    /// any) is truncated, and the writer is positioned for appends.
    ///
    /// Full record-level verification of sealed segments happens in
    /// [`StorageBackend::recover_scan`] (which the log layer always runs
    /// right after opening); `open` itself only validates footers so that
    /// mounting stays O(segment count + active segment).
    pub fn open(dir: impl AsRef<Path>, config: SegmentConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut seg_files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if let Some(first_seq) = parse_segment_name(&path) {
                seg_files.push((first_seq, path));
            }
        }
        seg_files.sort_by_key(|&(first, _)| first);

        let mut backend = SegmentedBackend {
            dir,
            config,
            sealed: Vec::new(),
            active: None,
            committed: None,
            pending_since_sync: 0,
            sync_stalled: false,
            tear_next_append: false,
            truncated_at_open: 0,
            poisoned: false,
        };
        backend.config.index_stride = backend.config.index_stride.max(1);

        let Some(((_, last_path), older)) = seg_files.split_last() else {
            return Ok(backend);
        };
        // Every segment below the highest must carry a valid footer —
        // the seal happens (durably) before a successor is created.
        for (first_seq, path) in older {
            let footer = read_footer(path)?
                .ok_or_else(|| corrupt(path, "sealed segment lacks a valid footer"))?;
            if footer.first_seq != *first_seq {
                return Err(corrupt(
                    path,
                    format!(
                        "footer first_seq {} disagrees with file name {}",
                        footer.first_seq, first_seq
                    ),
                ));
            }
            backend.committed = Some(footer.last_seq);
            backend.sealed.push(SealedMeta {
                path: path.clone(),
                footer,
                index: Vec::new(),
            });
        }
        // The highest segment: sealed if it ends in a valid footer,
        // otherwise active (truncate any torn tail and adopt it).
        let bytes = std::fs::read(last_path)?;
        match scan_segment(&bytes, backend.config.index_stride, &mut |_| {})? {
            SegmentScan::Sealed(footer) => {
                backend.committed = Some(footer.last_seq);
                backend.sealed.push(SealedMeta {
                    path: last_path.clone(),
                    footer,
                    index: Vec::new(),
                });
            }
            SegmentScan::Active {
                valid_end,
                first_seq,
                last_seq,
                count,
                records_crc,
                index,
            } => {
                if valid_end < bytes.len() as u64 {
                    backend.truncated_at_open = bytes.len() as u64 - valid_end;
                    let f = OpenOptions::new().write(true).open(last_path)?;
                    f.set_len(valid_end)?;
                    f.sync_data()?;
                }
                let file = OpenOptions::new().append(true).open(last_path)?;
                let writer = segment_writer(file, &backend.config);
                if count > 0 {
                    backend.committed = Some(last_seq);
                }
                backend.active = Some(ActiveSegment {
                    path: last_path.clone(),
                    writer,
                    first_seq,
                    last_seq,
                    count,
                    bytes: valid_end,
                    synced_bytes: valid_end,
                    records_crc,
                    index,
                });
            }
        }
        Ok(backend)
    }

    /// The engine's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of sealed segments currently retained.
    pub fn sealed_segments(&self) -> usize {
        self.sealed.len()
    }

    fn seal_active(&mut self) -> Result<()> {
        let Some(mut active) = self.active.take() else {
            return Ok(());
        };
        if active.count == 0 {
            // Nothing written; keep the empty file as the active segment.
            self.active = Some(active);
            return Ok(());
        }
        let footer = Footer {
            first_seq: active.first_seq,
            last_seq: active.last_seq,
            count: active.count,
            records_crc: active.records_crc,
        };
        active.writer.write_all(&footer.encode())?;
        active.writer.flush()?;
        // The seal invariant: the footer is durable before any successor
        // segment can exist. A stalled fsync must not break it — sealing
        // bypasses the stall simulation (the stall models a slow device,
        // not a reordering one).
        active.writer.get_ref().sync_data()?;
        self.committed = Some(active.last_seq);
        self.pending_since_sync = 0;
        self.sealed.push(SealedMeta {
            path: active.path,
            footer,
            index: std::mem::take(&mut active.index),
        });
        self.apply_retention()?;
        Ok(())
    }

    fn apply_retention(&mut self) -> Result<()> {
        if let Some(keep) = self.config.retain_segments {
            while self.sealed.len() > keep {
                let meta = self.sealed.remove(0);
                std::fs::remove_file(&meta.path)?;
            }
        }
        Ok(())
    }

    fn ensure_active(&mut self, first_seq: u64) -> Result<&mut ActiveSegment> {
        if self.active.is_none() {
            let path = self.dir.join(segment_file_name(first_seq));
            let file = OpenOptions::new().create(true).append(true).open(&path)?;
            self.active = Some(ActiveSegment {
                path,
                writer: segment_writer(file, &self.config),
                first_seq,
                last_seq: 0,
                count: 0,
                bytes: 0,
                synced_bytes: 0,
                records_crc: FNV_OFFSET,
                index: Vec::new(),
            });
        }
        // The branch above guarantees presence.
        match self.active.as_mut() {
            Some(a) => Ok(a),
            None => Err(CspotError::Storage(std::io::Error::other(
                "active segment vanished",
            ))),
        }
    }

    fn do_sync(&mut self) -> Result<()> {
        if self.sync_stalled {
            // The device is "hanging": nothing reaches stable storage and
            // the committed watermark must not advance.
            return Ok(());
        }
        if let Some(active) = self.active.as_mut() {
            active.writer.flush()?;
            active.writer.get_ref().sync_data()?;
            active.synced_bytes = active.bytes;
            if active.count > 0 {
                self.committed = Some(active.last_seq);
            }
        }
        self.pending_since_sync = 0;
        Ok(())
    }

    /// Read one segment file and return records with `seq >= from`, up to
    /// `max`, using the sparse index to skip ahead when available.
    fn read_segment_from(
        path: &Path,
        index: &[(u64, u64)],
        from: u64,
        max: usize,
        out: &mut Vec<Record>,
    ) -> Result<()> {
        let bytes = std::fs::read(path)?;
        // Last index entry at or below `from`.
        let start = index
            .iter()
            .take_while(|&&(seq, _)| seq <= from)
            .last()
            .map(|&(_, off)| off as usize)
            .unwrap_or(0);
        let mut off = start;
        while out.len() < max {
            if bytes.len() - off == FOOTER_LEN && bytes[off..off + 4] == FOOTER_MAGIC {
                break; // footer reached
            }
            match decode_frame(&bytes, off) {
                FrameDecode::Ok { record, next } => {
                    if record.seq >= from {
                        out.push(record);
                    }
                    off = next;
                }
                _ => break, // torn/corrupt tail of the active segment
            }
        }
        Ok(())
    }
}

/// Read and validate just the footer of a sealed segment file.
fn read_footer(path: &Path) -> Result<Option<Footer>> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    if len < FOOTER_LEN as u64 {
        return Ok(None);
    }
    use std::io::{Read, Seek, SeekFrom};
    file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
    let mut buf = [0u8; FOOTER_LEN];
    file.read_exact(&mut buf)?;
    Ok(Footer::decode(&buf))
}

/// Scan a whole segment image, streaming records into `sink`. Memory is
/// O(segment) — the caller reads one segment at a time, never the log.
fn scan_segment(
    bytes: &[u8],
    index_stride: u64,
    sink: &mut dyn FnMut(Record),
) -> Result<SegmentScan> {
    let mut off = 0usize;
    let mut first_seq = 0u64;
    let mut last_seq = 0u64;
    let mut count = 0u64;
    let mut records_crc = FNV_OFFSET;
    let mut index: Vec<(u64, u64)> = Vec::new();
    loop {
        if bytes.len() - off == FOOTER_LEN && bytes[off..off + 4] == FOOTER_MAGIC {
            if let Some(footer) = Footer::decode(&bytes[off..off + FOOTER_LEN]) {
                return Ok(SegmentScan::Sealed(footer));
            }
            // Magic present but the footer checksum fails: a crash hit
            // mid-seal. The records before it are intact; treat the
            // partial footer as the torn tail of an active segment.
        }
        match decode_frame(bytes, off) {
            FrameDecode::Ok { record, next } => {
                if count == 0 {
                    first_seq = record.seq;
                }
                if count.is_multiple_of(index_stride.max(1)) {
                    index.push((record.seq, off as u64));
                }
                records_crc = fnv1a_update(records_crc, &bytes[off..next]);
                last_seq = record.seq;
                count += 1;
                sink(record);
                off = next;
            }
            FrameDecode::Torn | FrameDecode::Corrupt => {
                return Ok(SegmentScan::Active {
                    valid_end: off as u64,
                    first_seq,
                    last_seq,
                    count,
                    records_crc,
                    index,
                });
            }
        }
        if off == bytes.len() {
            return Ok(SegmentScan::Active {
                valid_end: off as u64,
                first_seq,
                last_seq,
                count,
                records_crc,
                index,
            });
        }
    }
}

/// Fully verify one *sealed* segment: every record CRC, plus the footer's
/// first/last/count/records_crc. Streams records into `sink`.
fn verify_sealed(path: &Path, expected: &Footer, sink: &mut dyn FnMut(Record)) -> Result<u64> {
    let bytes = std::fs::read(path)?;
    let mut streamed: Vec<Record> = Vec::new();
    let scan = scan_segment(&bytes, u64::MAX, &mut |r| streamed.push(r))?;
    let found = match scan {
        SegmentScan::Sealed(f) => f,
        SegmentScan::Active { valid_end, .. } => {
            return Err(corrupt(
                path,
                format!(
                    "record damage or missing footer behind the seal (intact up to byte {valid_end} of {})",
                    bytes.len()
                ),
            ));
        }
    };
    if found != *expected {
        return Err(corrupt(path, "footer changed since mount"));
    }
    let mut count = 0u64;
    let mut records_crc = FNV_OFFSET;
    let mut last = 0u64;
    let mut off = 0usize;
    // Recompute the running CRC exactly as sealing did.
    for r in &streamed {
        let frame = encode_record(r);
        records_crc = fnv1a_update(records_crc, &frame);
        off += frame.len();
        last = r.seq;
        count += 1;
    }
    let _ = off;
    if count != expected.count
        || last != expected.last_seq
        || streamed.first().map(|r| r.seq) != Some(expected.first_seq)
    {
        return Err(corrupt(
            path,
            format!(
                "footer summary mismatch: footer says {}..={} ({} records), file holds {:?}..={last} ({count})",
                expected.first_seq,
                expected.last_seq,
                expected.count,
                streamed.first().map(|r| r.seq),
            ),
        ));
    }
    if records_crc != expected.records_crc {
        return Err(corrupt(path, "segment records checksum mismatch"));
    }
    for r in streamed {
        sink(r);
    }
    Ok(count)
}

impl StorageBackend for SegmentedBackend {
    fn append(&mut self, record: &Record) -> Result<AppendAck> {
        if self.poisoned {
            return Err(CspotError::Storage(std::io::Error::other(
                "storage engine poisoned by torn write; reopen to recover",
            )));
        }
        if self.tear_next_append {
            let frame = encode_record(record);
            self.tear_next_append = false;
            self.poisoned = true;
            let torn = &frame[..frame.len() / 2];
            let active = self.ensure_active(record.seq)?;
            active.writer.write_all(torn)?;
            active.writer.flush()?;
            // The partial frame reaches stable storage (the crash tore the
            // write across sectors): after power loss it is the torn tail
            // recovery must truncate.
            active.writer.get_ref().sync_data()?;
            active.bytes += torn.len() as u64;
            active.synced_bytes = active.bytes;
            return Err(CspotError::Storage(std::io::Error::other(
                "injected torn write",
            )));
        }
        // Hot path: encode the frame piecewise straight into the buffered
        // writer — no per-append heap allocation.
        let mut head = [0u8; FRAME_HEADER];
        head[..4].copy_from_slice(&(record.payload.len() as u32).to_le_bytes());
        head[4..12].copy_from_slice(&record.seq.to_le_bytes());
        head[12..28].copy_from_slice(&record.token.to_le_bytes());
        let crc = fnv1a_update(fnv1a_update(FNV_OFFSET, &head), &record.payload);
        let trailer = crc.to_le_bytes();
        let frame_len = (FRAME_HEADER + record.payload.len() + FRAME_TRAILER) as u64;
        let stride = self.config.index_stride;
        let active = self.ensure_active(record.seq)?;
        if active.count % stride == 0 {
            active.index.push((record.seq, active.bytes));
        }
        active.writer.write_all(&head)?;
        active.writer.write_all(&record.payload)?;
        active.writer.write_all(&trailer)?;
        let rc = fnv1a_update(active.records_crc, &head);
        let rc = fnv1a_update(rc, &record.payload);
        active.records_crc = fnv1a_update(rc, &trailer);
        active.bytes += frame_len;
        active.count += 1;
        active.last_seq = record.seq;
        if active.count == 1 {
            active.first_seq = record.seq;
        }
        let full = active.bytes >= self.config.segment_bytes;
        let durable = match self.config.sync {
            SyncPolicy::EveryAppend => {
                self.do_sync()?;
                !self.sync_stalled
            }
            SyncPolicy::GroupCommit { every } => {
                self.pending_since_sync += 1;
                if self.pending_since_sync >= every.max(1) {
                    self.do_sync()?;
                    !self.sync_stalled
                } else {
                    false
                }
            }
        };
        if full {
            self.seal_active()?;
        }
        Ok(AppendAck {
            seq: record.seq,
            // Sealing fsyncs the whole segment regardless of policy.
            durable: durable || full,
        })
    }

    fn sync(&mut self) -> Result<()> {
        self.do_sync()
    }

    fn committed_seq(&self) -> Option<u64> {
        self.committed
    }

    fn recover_scan(&mut self, sink: &mut dyn FnMut(Record)) -> Result<RecoverySummary> {
        let mut summary = RecoverySummary {
            sealed_segments: self.sealed.len(),
            truncated_bytes: self.truncated_at_open,
            ..Default::default()
        };
        for meta in &self.sealed {
            summary.records += verify_sealed(&meta.path, &meta.footer, sink)?;
        }
        if let Some(active) = self.active.as_mut() {
            // `open` already truncated the torn tail; stream what's left.
            // Flush so records buffered since open (engine reuse in
            // tests) are visible to the read.
            active.writer.flush()?;
            let bytes = std::fs::read(&active.path)?;
            if let SegmentScan::Active { count, .. } =
                scan_segment(&bytes, u64::MAX, &mut |r| sink(r))?
            {
                summary.records += count;
            }
        }
        Ok(summary)
    }

    fn read_from(&mut self, from: u64, max: usize) -> Result<Vec<Record>> {
        let mut out = Vec::new();
        for meta in &self.sealed {
            if meta.footer.last_seq < from {
                continue;
            }
            Self::read_segment_from(&meta.path, &meta.index, from, max, &mut out)?;
            if out.len() >= max {
                return Ok(out);
            }
        }
        if let Some(active) = self.active.as_mut() {
            if active.count > 0 && active.last_seq >= from {
                active.writer.flush()?;
                let path = active.path.clone();
                let index = active.index.clone();
                Self::read_segment_from(&path, &index, from, max, &mut out)?;
            }
        }
        Ok(out)
    }

    fn simulate_power_loss(&mut self) -> Result<bool> {
        // Adversarial model: everything not fsynced is gone — both the
        // process's write buffer and the OS page cache.
        if let Some(active) = self.active.take() {
            let synced = active.synced_bytes;
            let path = active.path.clone();
            // Discard buffered bytes without flushing.
            let _ = active.writer.into_parts();
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(synced)?;
            f.sync_data()?;
            let file = OpenOptions::new().append(true).open(&path)?;
            // Reopen positioned at the synced end; in-memory counters are
            // stale now, so a real restart (fresh `open`) must follow.
            self.active = Some(ActiveSegment {
                path,
                writer: segment_writer(file, &self.config),
                first_seq: 0,
                last_seq: 0,
                count: 0,
                bytes: synced,
                synced_bytes: synced,
                records_crc: FNV_OFFSET,
                index: Vec::new(),
            });
            self.poisoned = true; // force the reopen
        }
        Ok(true)
    }

    fn inject_torn_write(&mut self) -> bool {
        self.tear_next_append = true;
        true
    }

    fn set_sync_stall(&mut self, on: bool) -> bool {
        self.sync_stalled = on;
        true
    }

    fn corrupt_sealed_segment(&mut self, k: usize) -> Result<bool> {
        let Some(meta) = self.sealed.get(k) else {
            return Ok(false);
        };
        let mut bytes = std::fs::read(&meta.path)?;
        if bytes.len() <= FOOTER_LEN {
            return Ok(false);
        }
        // Flip a bit in the middle of the record area (not the footer).
        let target = (bytes.len() - FOOTER_LEN) / 2;
        bytes[target] ^= 0x20;
        std::fs::write(&meta.path, &bytes)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xg-segment-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn rec(seq: u64, fill: u8, len: usize) -> Record {
        Record {
            seq,
            token: seq as u128,
            payload: vec![fill; len],
        }
    }

    fn small_config() -> SegmentConfig {
        SegmentConfig {
            // Frame = 28 + 8 + 4 = 40 bytes; 3 records per segment.
            segment_bytes: 120,
            retain_segments: None,
            sync: SyncPolicy::EveryAppend,
            index_stride: 2,
        }
    }

    fn recover_all(b: &mut SegmentedBackend) -> Vec<Record> {
        let mut out = Vec::new();
        b.recover_scan(&mut |r| out.push(r)).unwrap();
        out
    }

    #[test]
    fn appends_roll_into_sealed_segments() {
        let dir = tmpdir("roll");
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        for s in 1..=7 {
            let ack = b.append(&rec(s, s as u8, 8)).unwrap();
            assert!(ack.durable);
            assert_eq!(ack.seq, s);
        }
        assert_eq!(b.sealed_segments(), 2, "3+3 sealed, 1 active");
        assert_eq!(b.committed_seq(), Some(7));
        let rs = recover_all(&mut b);
        assert_eq!(rs.len(), 7);
        assert_eq!(rs[6].seq, 7);
    }

    #[test]
    fn restart_recovers_across_segments() {
        let dir = tmpdir("restart");
        {
            let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
            for s in 1..=8 {
                b.append(&rec(s, 0xAB, 8)).unwrap();
            }
        }
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        let rs = recover_all(&mut b);
        assert_eq!(rs.len(), 8);
        assert_eq!(
            rs.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<u64>>()
        );
        assert_eq!(rs[7], rec(8, 0xAB, 8), "token and payload survive");
        assert_eq!(b.committed_seq(), Some(8));
        // Appends continue into the same active segment.
        let ack = b.append(&rec(9, 1, 8)).unwrap();
        assert_eq!(ack.seq, 9);
        assert_eq!(recover_all(&mut b).len(), 9);
    }

    #[test]
    fn torn_tail_in_active_segment_truncated() {
        // A tail cut mid-record and a complete tail record with a bad
        // checksum recover alike: dropped, counted, re-appendable.
        for name in ["torn-active", "corrupt-active"] {
            let dir = tmpdir(name);
            {
                let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
                for s in 1..=4 {
                    b.append(&rec(s, 7, 8)).unwrap();
                }
            }
            // Record 4 is alone in the active (second) segment.
            let active = dir.join(segment_file_name(4));
            let mut bytes = std::fs::read(&active).unwrap();
            if name == "torn-active" {
                bytes.truncate(bytes.len() - 5);
            } else {
                *bytes.last_mut().unwrap() ^= 0xFF;
            }
            std::fs::write(&active, &bytes).unwrap();
            let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
            let mut rs = Vec::new();
            let summary = b.recover_scan(&mut |r| rs.push(r)).unwrap();
            assert_eq!(rs.len(), 3, "{name}: record 4 silently truncated");
            assert_eq!(summary.records, 3);
            assert_eq!(summary.truncated_bytes, bytes.len() as u64, "{name}");
            // The engine accepts a re-append of the lost record.
            b.append(&rec(4, 7, 8)).unwrap();
            assert_eq!(recover_all(&mut b).len(), 4);
        }
    }

    #[test]
    fn corruption_behind_the_seal_fail_stops() {
        let dir = tmpdir("sealed-corrupt");
        {
            let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
            for s in 1..=7 {
                b.append(&rec(s, 3, 8)).unwrap();
            }
        }
        // Flip one bit inside the *first* sealed segment's record area.
        let sealed = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&sealed).unwrap();
        bytes[45] ^= 0x01;
        std::fs::write(&sealed, &bytes).unwrap();
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        let err = b.recover_scan(&mut |_| {}).unwrap_err();
        match err {
            CspotError::CorruptSegment { segment, .. } => {
                assert_eq!(segment, segment_file_name(1));
            }
            other => panic!("expected CorruptSegment, got {other}"),
        }
    }

    #[test]
    fn missing_footer_on_non_last_segment_fail_stops_at_open() {
        let dir = tmpdir("footerless");
        {
            let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
            for s in 1..=7 {
                b.append(&rec(s, 3, 8)).unwrap();
            }
        }
        // Chop the footer off the first sealed segment.
        let sealed = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&sealed).unwrap();
        std::fs::write(&sealed, &bytes[..bytes.len() - FOOTER_LEN]).unwrap();
        let err = match SegmentedBackend::open(&dir, small_config()) {
            Err(e) => e,
            Ok(_) => panic!("open must fail on a footerless sealed segment"),
        };
        assert!(matches!(err, CspotError::CorruptSegment { .. }), "{err}");
    }

    #[test]
    fn crash_mid_seal_keeps_segment_active() {
        let dir = tmpdir("mid-seal");
        {
            let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
            for s in 1..=3 {
                b.append(&rec(s, 9, 8)).unwrap();
            }
        }
        // The single segment just sealed; simulate a crash that tore the
        // footer write by chopping half the footer off.
        let seg = dir.join(segment_file_name(1));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - FOOTER_LEN / 2]).unwrap();
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        let rs = recover_all(&mut b);
        assert_eq!(rs.len(), 3, "records before the torn footer survive");
        assert_eq!(b.sealed_segments(), 0, "segment reverts to active");
        b.append(&rec(4, 9, 8)).unwrap();
        assert_eq!(recover_all(&mut b).len(), 4);
    }

    #[test]
    fn group_commit_defers_durability() {
        let dir = tmpdir("group");
        let cfg = SegmentConfig {
            sync: SyncPolicy::GroupCommit { every: 3 },
            segment_bytes: 1 << 20,
            ..small_config()
        };
        let mut b = SegmentedBackend::open(&dir, cfg).unwrap();
        assert!(!b.append(&rec(1, 1, 8)).unwrap().durable);
        assert!(!b.append(&rec(2, 1, 8)).unwrap().durable);
        assert_eq!(b.committed_seq(), None);
        assert!(b.append(&rec(3, 1, 8)).unwrap().durable, "3rd append syncs");
        assert_eq!(b.committed_seq(), Some(3));
        assert!(!b.append(&rec(4, 1, 8)).unwrap().durable);
        b.sync().unwrap();
        assert_eq!(b.committed_seq(), Some(4));
    }

    #[test]
    fn power_loss_loses_exactly_the_unsynced_tail() {
        let dir = tmpdir("powerloss");
        let cfg = SegmentConfig {
            sync: SyncPolicy::GroupCommit { every: 100 },
            segment_bytes: 1 << 20,
            ..small_config()
        };
        let mut b = SegmentedBackend::open(&dir, cfg.clone()).unwrap();
        for s in 1..=5 {
            b.append(&rec(s, 2, 8)).unwrap();
        }
        b.sync().unwrap();
        for s in 6..=9 {
            b.append(&rec(s, 2, 8)).unwrap();
        }
        assert!(b.simulate_power_loss().unwrap());
        drop(b);
        let mut b = SegmentedBackend::open(&dir, cfg).unwrap();
        let rs = recover_all(&mut b);
        assert_eq!(rs.len(), 5, "records 6..=9 were never synced");
        assert_eq!(b.committed_seq(), Some(5));
    }

    #[test]
    fn sync_stall_freezes_the_watermark() {
        let dir = tmpdir("stall");
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        b.append(&rec(1, 4, 8)).unwrap();
        assert_eq!(b.committed_seq(), Some(1));
        assert!(b.set_sync_stall(true));
        let ack = b.append(&rec(2, 4, 8)).unwrap();
        assert!(!ack.durable, "stalled sync cannot promise durability");
        assert_eq!(b.committed_seq(), Some(1), "watermark frozen");
        assert!(b.set_sync_stall(false));
        b.sync().unwrap();
        assert_eq!(b.committed_seq(), Some(2));
    }

    #[test]
    fn torn_write_injection_then_recovery() {
        let dir = tmpdir("torn-inject");
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        b.append(&rec(1, 5, 8)).unwrap();
        assert!(b.inject_torn_write());
        let err = b.append(&rec(2, 5, 8)).unwrap_err();
        assert!(matches!(err, CspotError::Storage(_)));
        // Engine is poisoned: further appends refuse.
        assert!(b.append(&rec(2, 5, 8)).is_err());
        drop(b);
        // Restart: the torn frame is truncated, record 1 intact.
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        let mut rs = Vec::new();
        let summary = b.recover_scan(&mut |r| rs.push(r)).unwrap();
        assert_eq!(rs.len(), 1);
        assert!(summary.records == 1);
        b.append(&rec(2, 5, 8)).unwrap();
        assert_eq!(recover_all(&mut b).len(), 2);
    }

    #[test]
    fn retention_deletes_whole_oldest_segments() {
        let dir = tmpdir("retention");
        let cfg = SegmentConfig {
            retain_segments: Some(2),
            ..small_config()
        };
        let mut b = SegmentedBackend::open(&dir, cfg).unwrap();
        for s in 1..=12 {
            b.append(&rec(s, 6, 8)).unwrap();
        }
        assert_eq!(b.sealed_segments(), 2);
        // Segments 1..=6 compacted away; 7..=12 remain.
        let rs = recover_all(&mut b);
        assert_eq!(rs.first().map(|r| r.seq), Some(7));
        assert_eq!(rs.len(), 6);
        // read_from before the horizon returns what is retained.
        let got = b.read_from(1, 100).unwrap();
        assert_eq!(got.first().map(|r| r.seq), Some(7));
    }

    #[test]
    fn read_from_uses_segments_and_bounds() {
        let dir = tmpdir("readfrom");
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        for s in 1..=10 {
            b.append(&rec(s, s as u8, 8)).unwrap();
        }
        let got = b.read_from(5, 3).unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![5, 6, 7]);
        let got = b.read_from(9, 100).unwrap();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![9, 10]);
        assert!(b.read_from(11, 1).unwrap().is_empty());
        // Payload integrity through the read path.
        assert_eq!(b.read_from(4, 1).unwrap()[0].payload, vec![4u8; 8]);
    }

    #[test]
    fn corrupt_sealed_segment_injection_is_detected() {
        let dir = tmpdir("inject-corrupt");
        let mut b = SegmentedBackend::open(&dir, small_config()).unwrap();
        for s in 1..=7 {
            b.append(&rec(s, 8, 8)).unwrap();
        }
        assert!(b.corrupt_sealed_segment(0).unwrap());
        assert!(!b.corrupt_sealed_segment(9).unwrap(), "no such segment");
        let err = b.recover_scan(&mut |_| {}).unwrap_err();
        assert!(matches!(err, CspotError::CorruptSegment { .. }), "{err}");
    }

    #[test]
    fn empty_dir_opens_clean() {
        let dir = tmpdir("empty");
        let mut b = SegmentedBackend::open(&dir, SegmentConfig::default()).unwrap();
        assert!(recover_all(&mut b).is_empty());
        assert_eq!(b.committed_seq(), None);
        assert_eq!(b.sealed_segments(), 0);
    }

    #[test]
    fn footer_roundtrip_and_damage() {
        let f = Footer {
            first_seq: 10,
            last_seq: 42,
            count: 33,
            records_crc: 0xDEAD,
        };
        let bytes = f.encode();
        assert_eq!(Footer::decode(&bytes), Some(f));
        let mut bad = bytes;
        bad[7] ^= 1;
        assert_eq!(Footer::decode(&bad), None);
        assert_eq!(Footer::decode(&bytes[..35]), None);
    }
}
