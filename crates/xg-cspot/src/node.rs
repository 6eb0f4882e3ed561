//! A CSPOT node: the namespace of logs and handlers at one site.
//!
//! Event handlers are CSPOT's only computational mechanism. A handler is
//! triggered by exactly **one** log append — there is deliberately no way
//! to fire an event only after multiple appends (paper §3.4), which keeps
//! the system deadlock-free: no handler ever blocks waiting for another.
//! Multi-event synchronization is implemented *inside* handlers by scanning
//! log history (see [`crate::log::Log::scan_newest_first`]).

use crate::error::{CspotError, Result};
use crate::log::{Log, LogConfig};
use crate::segment::{SegmentConfig, SegmentedBackend};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Handler signature: `(node, log_name, seq, payload)`.
pub(crate) type Handler = Arc<dyn Fn(&CspotNode, &str, u64, &[u8]) + Send + Sync>;

/// Reserved log receiving flight-recorder ("black box") bundles so crash
/// forensics survive process death; see [`CspotNode::persist_blackbox`].
pub(crate) const BLACKBOX_LOG: &str = "sys.blackbox";
const BLACKBOX_ELEMENT: usize = 256;
const BLACKBOX_HISTORY: usize = 4096;
/// Chunk framing inside `sys.blackbox` elements: a bundle begins with a
/// BEGIN element (tag + total byte length) followed by DATA elements
/// (tag + chunk length + bytes), each padded to the fixed element size.
const TAG_BEGIN: u8 = 0x01;
const TAG_DATA: u8 = 0x02;
const DATA_CAPACITY: usize = BLACKBOX_ELEMENT - 3;

enum Persistence {
    Memory,
    Directory {
        dir: PathBuf,
        storage: SegmentConfig,
    },
}

/// A CSPOT namespace at a named site.
///
/// Names resolve once: [`Self::log`] hands out the log's `Arc`, and an
/// append through it ([`Self::put_to`]) reaches the log's handlers
/// without the name map. [`Self::put`] is that resolution followed by
/// that append.
pub struct CspotNode {
    site: String,
    persistence: Persistence,
    logs: RwLock<BTreeMap<String, Arc<Log>>>,
    /// Handlers registered under a name no log holds yet, in registration
    /// order; the log later created under the name takes them. Locked
    /// only while `logs` is held.
    unbound: Mutex<BTreeMap<String, Vec<Handler>>>,
}

impl CspotNode {
    /// A volatile node (no crash durability) at the named site.
    pub fn in_memory(site: &str) -> Self {
        CspotNode {
            site: site.to_string(),
            persistence: Persistence::Memory,
            logs: RwLock::new(BTreeMap::new()),
            unbound: Mutex::new(BTreeMap::new()),
        }
    }

    /// A durable node whose logs persist under `dir` with the default
    /// storage engine configuration. Re-opening a node on the same
    /// directory recovers all its logs (call [`Self::open_log`] per log
    /// to reload).
    pub fn durable(site: &str, dir: impl AsRef<Path>) -> Self {
        Self::durable_with_storage(site, dir, SegmentConfig::default())
    }

    /// A durable node with an explicit storage engine configuration
    /// (segment size, sync policy, retention) shared by all its logs.
    pub fn durable_with_storage(site: &str, dir: impl AsRef<Path>, storage: SegmentConfig) -> Self {
        CspotNode {
            site: site.to_string(),
            persistence: Persistence::Directory {
                dir: dir.as_ref().to_path_buf(),
                storage,
            },
            logs: RwLock::new(BTreeMap::new()),
            unbound: Mutex::new(BTreeMap::new()),
        }
    }

    /// The site name (e.g. "UNL", "UCSB", "ND").
    pub fn site(&self) -> &str {
        &self.site
    }

    /// A fresh volatile log, or the durable log recovered from (or
    /// started in) this node's directory.
    fn new_log(&self, name: &str, element_size: usize, history: usize) -> Result<Arc<Log>> {
        let config = LogConfig {
            name: name.to_string(),
            element_size,
            history,
        };
        Ok(Arc::new(match &self.persistence {
            Persistence::Memory => Log::volatile(config),
            Persistence::Directory { dir, storage } => {
                let path = dir.join(format!("{name}.seglog"));
                let backend = SegmentedBackend::open(path, storage.clone())?;
                Log::create(config, backend)?
            }
        }))
    }

    /// Handlers waiting for their log, locked (see `unbound`).
    fn unbound(&self) -> MutexGuard<'_, BTreeMap<String, Vec<Handler>>> {
        self.unbound.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enter a new log into the namespace, handing it the handlers
    /// registered under its name before it existed.
    fn bind(&self, logs: &mut BTreeMap<String, Arc<Log>>, log: &Arc<Log>) {
        for handler in self.unbound().remove(log.name()).unwrap_or_default() {
            log.add_handler(handler);
        }
        logs.insert(log.name().to_string(), Arc::clone(log));
    }

    /// Create a log. Errors if the name is taken.
    pub fn create_log(&self, name: &str, element_size: usize, history: usize) -> Result<Arc<Log>> {
        let mut logs = self.logs.write().unwrap_or_else(PoisonError::into_inner);
        if logs.contains_key(name) {
            return Err(CspotError::LogExists(name.to_string()));
        }
        let log = self.new_log(name, element_size, history)?;
        self.bind(&mut logs, &log);
        Ok(log)
    }

    /// Open (re-load) a log after a node restart. On a durable node this
    /// recovers the log's contents from disk; the configuration must match
    /// what the log was created with.
    pub fn open_log(&self, name: &str, element_size: usize, history: usize) -> Result<Arc<Log>> {
        {
            let logs = self.logs.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(log) = logs.get(name) {
                return Ok(Arc::clone(log));
            }
        }
        let log = self.new_log(name, element_size, history)?;
        let mut logs = self.logs.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(raced) = logs.get(name) {
            // Opened meanwhile on another thread: replacing that log
            // would drop the handlers bound to it.
            return Ok(Arc::clone(raced));
        }
        self.bind(&mut logs, &log);
        Ok(log)
    }

    /// Look up an existing log: the handle [`Self::put_to`] appends
    /// through.
    pub fn log(&self, name: &str) -> Result<Arc<Log>> {
        self.logs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| CspotError::UnknownLog(name.to_string()))
    }

    /// Register a handler fired on every append to `log_name`. A handler
    /// registered before its log exists fires once the log is created.
    pub fn register_handler(&self, log_name: &str, handler: Handler) {
        let logs = self.logs.read().unwrap_or_else(PoisonError::into_inner);
        match logs.get(log_name) {
            Some(log) => log.add_handler(handler),
            None => self
                .unbound()
                .entry(log_name.to_string())
                .or_default()
                .push(handler),
        }
    }

    /// Append to a log and fire its handlers (CSPOT's `WooFPut`).
    pub fn put(&self, log_name: &str, payload: &[u8]) -> Result<u64> {
        self.put_to(&*self.log(log_name)?, payload)
    }

    /// [`Self::put`] through a handle this node's [`Self::log`] (or
    /// `create_log`/`open_log`) returned, without a name lookup.
    pub fn put_to(&self, log: &Log, payload: &[u8]) -> Result<u64> {
        self.put_with_token(log, 0, payload)
    }

    /// Append with an idempotency token and fire handlers.
    ///
    /// Handlers fire only for *fresh* appends: a deduplicated retry returns
    /// the original sequence number without re-firing (exactly-once handler
    /// semantics).
    pub(crate) fn put_with_token(&self, log: &Log, token: u128, payload: &[u8]) -> Result<u64> {
        let appended = log.offer(token, payload)?;
        if appended.fresh {
            if let Some(handlers) = log.handlers() {
                for h in handlers.iter() {
                    h(self, log.name(), appended.seq, payload);
                }
            }
        }
        Ok(appended.seq)
    }

    /// Read an element (CSPOT's `WooFGet`).
    pub fn get(&self, log_name: &str, seq: u64) -> Result<Vec<u8>> {
        self.log(log_name)?.get(seq)
    }

    /// Latest sequence number of a log (CSPOT's `WooFGetLatestSeqno`).
    pub fn latest_seq(&self, log_name: &str) -> Result<Option<u64>> {
        Ok(self.log(log_name)?.latest_seq())
    }

    /// Persist a flight-recorder bundle (any string, typically the JSONL
    /// from `xg-obs::recorder::render_bundle`) into the node's reserved
    /// `sys.blackbox` log, chunked across fixed-size elements and fsynced,
    /// so it survives process death. Returns the sequence number of the
    /// bundle's final chunk.
    pub fn persist_blackbox(&self, bundle: &str) -> Result<u64> {
        let log = self.open_log(BLACKBOX_LOG, BLACKBOX_ELEMENT, BLACKBOX_HISTORY)?;
        let bytes = bundle.as_bytes();
        let mut element = [0u8; BLACKBOX_ELEMENT];
        element[0] = TAG_BEGIN;
        element[1..5].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        let mut last = log.append(&element)?;
        for chunk in bytes.chunks(DATA_CAPACITY) {
            let mut element = [0u8; BLACKBOX_ELEMENT];
            element[0] = TAG_DATA;
            element[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            element[3..3 + chunk.len()].copy_from_slice(chunk);
            last = log.append(&element)?;
        }
        // A black box is worthless if it rides in the group-commit buffer
        // when the lights go out.
        log.sync()?;
        Ok(last)
    }

    /// Reassemble the most recent *complete* black-box bundle from the
    /// `sys.blackbox` log, if one survived (e.g. after a restart).
    pub fn recovered_blackbox(&self) -> Result<Option<String>> {
        let log = self.open_log(BLACKBOX_LOG, BLACKBOX_ELEMENT, BLACKBOX_HISTORY)?;
        let mut complete: Option<String> = None;
        let mut pending: Option<(usize, Vec<u8>)> = None;
        for (_, element) in log.tail(BLACKBOX_HISTORY) {
            match element.first() {
                Some(&TAG_BEGIN) if element.len() >= 5 => {
                    let total = u32::from_le_bytes([element[1], element[2], element[3], element[4]])
                        as usize;
                    pending = Some((total, Vec::with_capacity(total)));
                    if total == 0 {
                        complete = Some(String::new());
                        pending = None;
                    }
                }
                Some(&TAG_DATA) if element.len() >= 3 => {
                    if let Some((total, buf)) = pending.as_mut() {
                        let len = u16::from_le_bytes([element[1], element[2]]) as usize;
                        let end = (3 + len).min(element.len());
                        buf.extend_from_slice(&element[3..end]);
                        if buf.len() >= *total {
                            buf.truncate(*total);
                            complete = String::from_utf8(std::mem::take(buf)).ok();
                            pending = None;
                        }
                    }
                }
                _ => pending = None,
            }
        }
        Ok(complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn create_and_put_get() {
        let node = CspotNode::in_memory("UCSB");
        node.create_log("a", 4, 8).unwrap();
        let seq = node.put("a", b"wxyz").unwrap();
        assert_eq!(node.get("a", seq).unwrap(), b"wxyz");
        assert_eq!(node.latest_seq("a").unwrap(), Some(seq));
    }

    #[test]
    fn duplicate_log_rejected() {
        let node = CspotNode::in_memory("UCSB");
        node.create_log("a", 4, 8).unwrap();
        assert!(matches!(
            node.create_log("a", 4, 8),
            Err(CspotError::LogExists(_))
        ));
    }

    #[test]
    fn unknown_log_errors() {
        let node = CspotNode::in_memory("UCSB");
        assert!(matches!(
            node.put("missing", b"x"),
            Err(CspotError::UnknownLog(_))
        ));
        assert!(node.get("missing", 1).is_err());
        assert!(node.latest_seq("missing").is_err());
    }

    #[test]
    fn handler_fires_once_per_append() {
        let node = CspotNode::in_memory("UCSB");
        node.create_log("a", 1, 8).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        node.register_handler(
            "a",
            Arc::new(move |_, _, _, _| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        node.put("a", b"x").unwrap();
        node.put("a", b"y").unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn handler_not_fired_on_dedup_retry() {
        let node = CspotNode::in_memory("UCSB");
        node.create_log("a", 1, 8).unwrap();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        node.register_handler(
            "a",
            Arc::new(move |_, _, _, _| {
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let log = node.log("a").unwrap();
        node.put_with_token(&log, 5, b"x").unwrap();
        node.put_with_token(&log, 5, b"x").unwrap(); // retry
        assert_eq!(
            count.load(Ordering::SeqCst),
            1,
            "exactly-once handler firing"
        );
    }

    #[test]
    fn handler_registered_before_its_log_fires_once_it_exists() {
        let node = CspotNode::in_memory("UCSB");
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        node.register_handler(
            "later",
            Arc::new(move |_, name, seq, _| {
                assert_eq!((name, seq), ("later", 1));
                c.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(node.put("later", b"x").is_err());
        node.create_log("later", 1, 8).unwrap();
        node.put("later", b"x").unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_can_chain_puts() {
        // A handler appending to another log must not deadlock, and the
        // chained append fires the downstream handler.
        let node = Arc::new(CspotNode::in_memory("UCSB"));
        node.create_log("src", 1, 8).unwrap();
        node.create_log("dst", 1, 8).unwrap();
        node.register_handler(
            "src",
            Arc::new(|n, _, _, payload| {
                n.put("dst", payload).unwrap();
            }),
        );
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        node.register_handler(
            "dst",
            Arc::new(move |_, _, _, _| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        );
        node.put("src", b"z").unwrap();
        assert_eq!(node.latest_seq("dst").unwrap(), Some(1));
        assert_eq!(hit.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn multi_event_synchronization_via_scan() {
        // The paper's idiom: a handler that needs N inputs scans the log
        // instead of blocking. Fire an "aggregate" only on the 3rd append.
        let node = CspotNode::in_memory("UCSB");
        node.create_log("in", 1, 16).unwrap();
        node.create_log("agg", 3, 16).unwrap();
        node.register_handler(
            "in",
            Arc::new(|n, _, _, _| {
                let log = n.log("in").unwrap();
                let tail = log.tail(3);
                if tail.len() == 3 {
                    let bytes: Vec<u8> = tail.iter().map(|(_, p)| p[0]).collect();
                    n.put("agg", &bytes).unwrap();
                }
            }),
        );
        node.put("in", b"a").unwrap();
        node.put("in", b"b").unwrap();
        assert_eq!(node.latest_seq("agg").unwrap(), None);
        node.put("in", b"c").unwrap();
        assert_eq!(node.get("agg", 1).unwrap(), b"abc");
    }

    #[test]
    fn durable_node_restart_recovers_logs() {
        let dir = std::env::temp_dir().join(format!("xg-node-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let node = CspotNode::durable("UNL", &dir);
            node.create_log("state", 2, 8).unwrap();
            node.put("state", b"s1").unwrap();
            node.put("state", b"s2").unwrap();
        }
        // Simulated power cycle: new node over the same directory.
        let node = CspotNode::durable("UNL", &dir);
        let log = node.open_log("state", 2, 8).unwrap();
        assert_eq!(log.latest_seq(), Some(2));
        assert_eq!(node.get("state", 1).unwrap(), b"s1");
        // Program state resumes exactly where it stopped.
        assert_eq!(node.put("state", b"s3").unwrap(), 3);
    }
}
