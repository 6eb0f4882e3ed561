//! The field gateway agent.
//!
//! §3.2: each Raspberry Pi runs "a software agent called CSPOT, which
//! continuously forwards sensor data using standard IP networking
//! protocols to external endpoints". The agent couples a **local durable
//! buffer log** with a **drain loop** over the remote append protocol, so
//! connectivity loss (frequent in remote 5G deployments, §3.1) never loses
//! data: samples park in the local log and drain exactly once when the
//! path heals.

use crate::error::Result;
use crate::log::Log;
use crate::node::CspotNode;
use crate::protocol::RemoteAppender;
use std::sync::Arc;

/// Cursor state: the gateway tracks the highest locally-buffered sequence
/// number it has successfully relayed (persisted in its own meta log so a
/// gateway restart resumes the drain).
const CURSOR_LOG: &str = "gateway.cursor";

/// A store-and-forward gateway from a local buffer log to a remote log.
pub struct Gateway {
    /// The field node holding the local buffer.
    local: Arc<CspotNode>,
    /// The local buffer log, looked up once.
    buffer: Arc<Log>,
    /// Name of the remote destination log, looked up once per drain pass
    /// on the node that pass drains to.
    remote_log: String,
    /// The cursor log (distinct per gateway when several share a field
    /// node), looked up once.
    cursor_log: Arc<Log>,
    /// Highest buffered sequence relayed: loaded from the cursor log once
    /// at construction, advanced in memory per relayed element.
    cursor: u64,
    /// The cursor as last written to the cursor log.
    persisted: u64,
    /// Reused copy of the element being relayed.
    payload: Vec<u8>,
    appender: RemoteAppender,
}

/// Result of one drain pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DrainReport {
    /// Elements relayed this pass.
    pub relayed: usize,
    /// Elements still waiting (path failed mid-drain).
    pub remaining: usize,
    /// Total virtual-time latency spent (ms).
    pub latency_ms: f64,
}

impl Gateway {
    /// Create a gateway. The buffer log must already exist on `local`;
    /// the cursor log is created (or recovered) automatically.
    pub fn new(
        local: Arc<CspotNode>,
        buffer_log: &str,
        remote_log: &str,
        appender: RemoteAppender,
    ) -> Result<Self> {
        Self::with_cursor_log(local, buffer_log, remote_log, CURSOR_LOG, appender)
    }

    /// Like [`Gateway::new`] but with an explicit cursor-log name, so
    /// several gateways can share one field node without clobbering each
    /// other's drain cursors.
    pub fn with_cursor_log(
        local: Arc<CspotNode>,
        buffer_log: &str,
        remote_log: &str,
        cursor_log: &str,
        appender: RemoteAppender,
    ) -> Result<Self> {
        // Cursor entries are 8-byte little-endian sequence numbers; the
        // latest one is where a restarted gateway resumes the drain.
        let cursor_log = local.open_log(cursor_log, 8, 64)?;
        let cursor = cursor_log
            .latest_seq()
            .and_then(|seq| cursor_log.get(seq).ok())
            .and_then(|b| b.get(..8).and_then(|s| s.try_into().ok()))
            .map_or(0, u64::from_le_bytes);
        let buffer = local.log(buffer_log)?;
        Ok(Gateway {
            local,
            payload: Vec::with_capacity(buffer.element_size()),
            buffer,
            remote_log: remote_log.to_string(),
            cursor_log,
            cursor,
            persisted: cursor,
            appender,
        })
    }

    /// Buffer one sample locally (never touches the network).
    pub fn buffer(&self, payload: &[u8]) -> Result<u64> {
        self.local.put_to(&self.buffer, payload)
    }

    /// Elements buffered but not yet relayed.
    pub fn backlog(&self) -> usize {
        self.buffer.count_from(self.cursor + 1)
    }

    /// Drain the backlog to the remote node, stopping at the first
    /// failure (e.g. an ongoing partition). Each element is relayed with
    /// an idempotency token derived from its buffer sequence number, so a
    /// relay repeated after a crash lands once, at its original remote
    /// sequence.
    ///
    /// That is why the cursor is written to the cursor log once per pass,
    /// after the last relay, rather than once per element: a gateway that
    /// dies mid-pass (or whose cursor write fails) resumes from the last
    /// written cursor and re-relays what lay behind it idempotently. A
    /// failed cursor write is retried at the end of the next pass.
    ///
    /// Elements are copied one at a time into a reused buffer, so a
    /// parked backlog costs a failed drain nothing; a buffer ring
    /// overwritten past the cursor resumes from its earliest retained
    /// element.
    pub fn drain(&mut self, remote: &CspotNode) -> DrainReport {
        let mut relayed = 0usize;
        let mut latency_ms = 0.0;
        let target = remote.log(&self.remote_log).ok();
        loop {
            let seq = (self.cursor + 1).max(self.buffer.earliest_seq().unwrap_or(0));
            if self.buffer.read_into(seq, &mut self.payload).is_err() {
                break;
            }
            let Ok(outcome) = self.appender.append_with_token(
                remote,
                &self.remote_log,
                target.as_deref(),
                &self.payload,
                relay_token(seq),
            ) else {
                break;
            };
            latency_ms += outcome.latency_ms;
            self.cursor = seq;
            relayed += 1;
        }
        if self.cursor != self.persisted
            && self
                .local
                .put_to(&self.cursor_log, &self.cursor.to_le_bytes())
                .is_ok()
        {
            self.persisted = self.cursor;
        }
        DrainReport {
            relayed,
            remaining: self.backlog(),
            latency_ms,
        }
    }

    /// Mutable access to the underlying route (partition injection).
    pub fn route_mut(&mut self) -> &mut crate::netsim::RoutePath {
        self.appender.route_mut()
    }

    /// Attach observability to the underlying remote appender (per-phase
    /// append RTTs and retry counters for every relayed element).
    pub fn set_obs(&mut self, obs: &xg_obs::Obs) {
        self.appender.set_obs(obs);
    }
}

/// The idempotency token relaying buffer element `buffer_seq`: the
/// buffer sequence number, offset so it never collides with the
/// appender's own token counter space.
fn relay_token(buffer_seq: u64) -> u128 {
    0x6A7E_0000_0000_0000_u128 << 64 | buffer_seq as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::{PathModel, RoutePath, SimClock};
    use crate::protocol::RemoteConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn setup() -> (Gateway, Arc<CspotNode>) {
        let local = Arc::new(CspotNode::in_memory("UNL"));
        local.create_log("buf", 8, 1024).unwrap();
        let remote = Arc::new(CspotNode::in_memory("UCSB"));
        remote.create_log("telemetry", 8, 1024).unwrap();
        let cfg = RemoteConfig {
            timeout_ms: 20.0,
            max_attempts: 3,
            ..Default::default()
        };
        let appender = RemoteAppender::new(
            SimClock::new(),
            RoutePath::single(PathModel::wired(3.0, 0.2)),
            cfg,
            1,
        );
        let gw = Gateway::new(local, "buf", "telemetry", appender).unwrap();
        (gw, remote)
    }

    #[test]
    fn buffer_then_drain() {
        let (mut gw, remote) = setup();
        for i in 0..5u64 {
            gw.buffer(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(gw.backlog(), 5);
        let report = gw.drain(&remote);
        assert_eq!(report.relayed, 5);
        assert_eq!(report.remaining, 0);
        assert_eq!(gw.backlog(), 0);
        assert_eq!(remote.latest_seq("telemetry").unwrap(), Some(5));
        // Order preserved.
        for i in 0..5u64 {
            assert_eq!(remote.get("telemetry", i + 1).unwrap(), i.to_le_bytes());
        }
    }

    #[test]
    fn drain_is_incremental() {
        let (mut gw, remote) = setup();
        gw.buffer(&1u64.to_le_bytes()).unwrap();
        gw.drain(&remote);
        gw.buffer(&2u64.to_le_bytes()).unwrap();
        let report = gw.drain(&remote);
        assert_eq!(report.relayed, 1, "only the new element relays");
        assert_eq!(remote.log("telemetry").unwrap().len(), 2);
    }

    #[test]
    fn partition_parks_data_then_drains_exactly_once() {
        let (mut gw, remote) = setup();
        gw.route_mut().set_partitioned(true);
        for i in 0..4u64 {
            gw.buffer(&i.to_le_bytes()).unwrap();
        }
        let during = gw.drain(&remote);
        assert_eq!(during.relayed, 0);
        assert_eq!(during.remaining, 4);
        assert_eq!(gw.backlog(), 4, "data parked locally");

        gw.route_mut().set_partitioned(false);
        let after = gw.drain(&remote);
        assert_eq!(after.relayed, 4);
        assert_eq!(remote.log("telemetry").unwrap().len(), 4, "exactly once");
        // A second drain relays nothing.
        assert_eq!(gw.drain(&remote).relayed, 0);
    }

    #[test]
    fn overwritten_ring_resumes_from_earliest_retained() {
        // A raw gateway has no capacity guard: a partition that outlasts
        // the 1 024-element buffer ring overwrites elements the cursor
        // never reached.
        let (mut gw, remote) = setup();
        gw.buffer(&0u64.to_le_bytes()).unwrap();
        assert_eq!(gw.drain(&remote).relayed, 1);
        gw.route_mut().set_partitioned(true);
        for i in 1..=1030u64 {
            gw.buffer(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(gw.backlog(), 1024, "the ring holds what it holds");
        let during = gw.drain(&remote);
        assert_eq!((during.relayed, during.remaining), (0, 1024));
        assert_eq!((gw.backlog(), gw.cursor), (1024, 1), "nothing moved");
        // Healed: the drain clips to the earliest retained element (seq 8,
        // payload 7) instead of stopping dead at the evicted seq 2.
        gw.route_mut().set_partitioned(false);
        let after = gw.drain(&remote);
        assert_eq!((after.relayed, after.remaining), (1024, 0));
        assert_eq!(gw.cursor, 1031);
        assert_eq!(remote.get("telemetry", 2).unwrap(), 7u64.to_le_bytes());
    }

    #[test]
    fn backlog_tracks_cursor_through_partial_drains() {
        let (mut gw, remote) = setup();
        gw.route_mut().set_partitioned(true);
        for i in 0..1000u64 {
            gw.buffer(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(gw.drain(&remote).relayed, 0);
        assert_eq!(gw.backlog(), 1000);
        // Heal onto a lossy link: each drain relays a prefix and stops at
        // the first element whose retry budget runs out.
        gw.route_mut().set_partitioned(false);
        gw.route_mut().segments[0].loss_prob = 0.1;
        let mut partial = 0;
        for _ in 0..5 {
            let r = gw.drain(&remote);
            partial += usize::from(r.relayed > 0 && r.remaining > 0);
            assert_eq!(gw.backlog(), 1000 - gw.cursor as usize);
            assert_eq!(gw.backlog(), r.remaining);
        }
        assert!(partial >= 3, "only {partial} of 5 drains were partial");
        gw.route_mut().segments[0].loss_prob = 0.0;
        assert_eq!(gw.drain(&remote).remaining, 0);
        assert_eq!(gw.backlog(), 0);
        assert_eq!(remote.log("telemetry").unwrap().len(), 1000, "exactly once");
    }

    #[test]
    fn handlers_registered_after_the_gateway_resolved_its_logs_fire() {
        let (mut gw, remote) = setup();
        gw.buffer(&0u64.to_le_bytes()).unwrap();
        gw.drain(&remote);
        let hits = Arc::new(AtomicU64::new(0));
        for (node, log) in [(&gw.local, "buf"), (&remote, "telemetry")] {
            let h = Arc::clone(&hits);
            node.register_handler(
                log,
                Arc::new(move |_, _, _, _| {
                    h.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        gw.buffer(&1u64.to_le_bytes()).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1, "the local buffer's handler");
        assert_eq!(gw.drain(&remote).relayed, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 2, "the remote log's handler");
    }

    #[test]
    fn drains_alternating_between_remotes_deliver_each_its_own_records() {
        let (mut gw, first) = setup();
        let second = Arc::new(CspotNode::in_memory("ND"));
        second.create_log("telemetry", 8, 1024).unwrap();
        let mut sent: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for round in 0..6u64 {
            let k = (round % 2) as usize;
            for i in 0..=round {
                gw.buffer(&(10 * round + i).to_le_bytes()).unwrap();
                sent[k].push(10 * round + i);
            }
            let remote = if k == 0 { &first } else { &second };
            assert_eq!(gw.drain(remote).relayed, round as usize + 1);
        }
        for (remote, want) in [&first, &second].into_iter().zip(&sent) {
            let log = remote.log("telemetry").unwrap();
            let got: Vec<u64> = log
                .tail(log.len())
                .iter()
                .map(|(_, p)| u64::from_le_bytes(p[..8].try_into().unwrap()))
                .collect();
            assert_eq!(&got, want, "exactly once, in order, at {}", remote.site());
        }
    }

    #[test]
    fn empty_drain_is_noop() {
        let (mut gw, remote) = setup();
        let r = gw.drain(&remote);
        assert_eq!(r.relayed, 0);
        assert_eq!(r.remaining, 0);
        assert_eq!(r.latency_ms, 0.0);
    }

    #[test]
    fn two_gateways_on_one_node_keep_independent_cursors() {
        let local = Arc::new(CspotNode::in_memory("UNL"));
        local.create_log("buf_a", 8, 1024).unwrap();
        local.create_log("buf_b", 8, 1024).unwrap();
        let remote = Arc::new(CspotNode::in_memory("UCSB"));
        remote.create_log("dst_a", 8, 1024).unwrap();
        remote.create_log("dst_b", 8, 1024).unwrap();
        let mk_appender = |seed| {
            RemoteAppender::new(
                SimClock::new(),
                RoutePath::single(PathModel::wired(3.0, 0.2)),
                RemoteConfig::default(),
                seed,
            )
        };
        let mut a = Gateway::with_cursor_log(
            Arc::clone(&local),
            "buf_a",
            "dst_a",
            "cur_a",
            mk_appender(1),
        )
        .unwrap();
        let mut b = Gateway::with_cursor_log(
            Arc::clone(&local),
            "buf_b",
            "dst_b",
            "cur_b",
            mk_appender(2),
        )
        .unwrap();
        for i in 0..3u64 {
            a.buffer(&i.to_le_bytes()).unwrap();
        }
        b.buffer(&9u64.to_le_bytes()).unwrap();
        assert_eq!(a.drain(&remote).relayed, 3);
        // A's cursor advance must not make B think it already drained.
        assert_eq!(b.backlog(), 1);
        assert_eq!(b.drain(&remote).relayed, 1);
        assert_eq!(remote.log("dst_a").unwrap().len(), 3);
        assert_eq!(remote.log("dst_b").unwrap().len(), 1);
    }

    #[test]
    fn failed_cursor_write_re_relays_exactly_once_after_restart() {
        let dir = std::env::temp_dir().join(format!("xg-gw-cursor-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let remote = Arc::new(CspotNode::in_memory("UCSB"));
        remote.create_log("telemetry", 8, 1024).unwrap();
        let mk_appender = || {
            RemoteAppender::new(
                SimClock::new(),
                RoutePath::single(PathModel::wired(3.0, 0.2)),
                RemoteConfig::default(),
                1,
            )
        };
        let durable_gateway = || {
            let local = Arc::new(CspotNode::durable("UNL", &dir));
            local.open_log("buf", 8, 1024).unwrap();
            Gateway::new(local, "buf", "telemetry", mk_appender()).unwrap()
        };
        {
            let mut gw = durable_gateway();
            gw.buffer(&1u64.to_le_bytes()).unwrap();
            assert_eq!(gw.drain(&remote).relayed, 1);
            for i in 2..=4u64 {
                gw.buffer(&i.to_le_bytes()).unwrap();
            }
            // The pass relays all three, then its one cursor write fails.
            let cursor_log = gw.local.log(CURSOR_LOG).unwrap();
            cursor_log.inject_append_failures(1);
            let report = gw.drain(&remote);
            assert_eq!((report.relayed, report.remaining), (3, 0));
            assert_eq!(cursor_log.pending_injected_failures(), 0);
            assert_eq!(
                cursor_log.len(),
                1,
                "one write per pass, and this one failed"
            );
            // Crash before any later pass retries the write.
        }
        let mut gw = durable_gateway();
        assert_eq!(gw.cursor, 1, "the cursor written by the first pass");
        assert_eq!(gw.drain(&remote).relayed, 3, "re-relayed");
        let log = remote.log("telemetry").unwrap();
        assert_eq!(log.len(), 4, "each element exactly once");
        for i in 1..=4u64 {
            assert_eq!(log.get(i).unwrap(), i.to_le_bytes(), "at its original seq");
        }
        drop(gw);
        assert_eq!(durable_gateway().cursor, 4, "the re-drain wrote it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gateway_restart_resumes_from_cursor() {
        // Durable local node: the cursor survives a gateway power cycle.
        let dir = std::env::temp_dir().join(format!("xg-gw-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let remote = Arc::new(CspotNode::in_memory("UCSB"));
        remote.create_log("telemetry", 8, 1024).unwrap();
        let mk_appender = || {
            RemoteAppender::new(
                SimClock::new(),
                RoutePath::single(PathModel::wired(3.0, 0.2)),
                RemoteConfig::default(),
                1,
            )
        };
        {
            let local = Arc::new(CspotNode::durable("UNL", &dir));
            local.create_log("buf", 8, 1024).unwrap();
            let mut gw =
                Gateway::new(Arc::clone(&local), "buf", "telemetry", mk_appender()).unwrap();
            gw.buffer(&1u64.to_le_bytes()).unwrap();
            gw.buffer(&2u64.to_le_bytes()).unwrap();
            gw.drain(&remote);
            gw.buffer(&3u64.to_le_bytes()).unwrap();
            // Crash before draining element 3.
        }
        let local = Arc::new(CspotNode::durable("UNL", &dir));
        local.open_log("buf", 8, 1024).unwrap();
        let mut gw = Gateway::new(local, "buf", "telemetry", mk_appender()).unwrap();
        assert_eq!(gw.cursor, 2, "cursor recovered");
        assert_eq!(gw.backlog(), 1);
        let r = gw.drain(&remote);
        assert_eq!(r.relayed, 1);
        assert_eq!(remote.log("telemetry").unwrap().len(), 3, "no duplicates");
    }
}
