//! The CSPOT remote-append protocol.
//!
//! The paper (§4.2) describes the internal messaging protocol, built on
//! ZeroMQ and "optimized for reliability and not message latency": to append
//! to a remote log, the client first requests the log's fixed element size
//! from the hosting site, then sends the element itself. Each append is
//! acknowledged with a sequence number *after* the data is in persistent
//! storage. The client-side **size cache** optimization halves the latency
//! but fails if the server-side element size changes without a cache update
//! — both behaviours are reproduced here.
//!
//! Reliability semantics: every phase can lose its message. The client
//! retries on timeout with a stable idempotency token, so a retried append
//! whose acknowledgment was lost is absorbed by the server-side dedup —
//! exactly-once delivery built from at-least-once retries.

use crate::error::{CspotError, Result};
use crate::netsim::{RoutePath, SimClock};
use crate::node::CspotNode;
use std::collections::BTreeMap;
use std::sync::Arc;
use xg_obs::clock::wall_now_ns;
use xg_obs::{Counter, Histogram, Obs, ProfNode};
use xg_sim::normal;
use xg_sim::rng::Rng;

/// Pre-resolved instruments for the append protocol (one registry lookup
/// at attach time; the hot path touches only `Arc`s).
#[derive(Debug, Clone)]
struct ProtocolObs {
    /// Phase-1 (size fetch) duration per attempt, ms of virtual time.
    phase1_ms: Arc<Histogram>,
    /// Phase-2 (ship + storage + ack) duration on success, ms.
    phase2_ms: Arc<Histogram>,
    /// End-to-end logical append latency including retries, ms.
    total_ms: Arc<Histogram>,
    /// Attempts per successful logical append.
    attempts: Arc<Histogram>,
    /// Successful logical appends.
    ok: Arc<Counter>,
    /// Attempts beyond the first (timeouts, lost acks).
    retries: Arc<Counter>,
    /// Logical appends that exhausted the retry budget.
    exhausted: Arc<Counter>,
    /// The full handle, kept for profiler attribution of append work.
    handle: Obs,
    /// `cspot.append`, resolved once.
    append_node: Option<ProfNode>,
}

impl ProtocolObs {
    fn new(obs: &Obs) -> Option<Self> {
        let reg = obs.registry()?;
        Some(ProtocolObs {
            handle: obs.clone(),
            append_node: obs.profiler().map(|p| p.node("cspot.append")),
            phase1_ms: reg.histogram("cspot.append.phase1_ms"),
            phase2_ms: reg.histogram("cspot.append.phase2_ms"),
            total_ms: reg.histogram("cspot.append.total_ms"),
            attempts: reg.histogram("cspot.append.attempts"),
            ok: reg.counter("cspot.append.ok"),
            retries: reg.counter("cspot.append.retries"),
            exhausted: reg.counter("cspot.append.exhausted"),
        })
    }
}

/// Tunables of the remote append protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteConfig {
    /// Cache the remote log's element size client-side, skipping phase 1 on
    /// subsequent appends (the optimization §4.2 discusses).
    pub use_size_cache: bool,
    /// Server-side persistent-storage append latency, mean (ms).
    pub storage_append_ms: f64,
    /// Storage latency jitter SD (ms).
    pub storage_jitter_ms: f64,
    /// Client timeout per exchange before retrying (ms).
    pub timeout_ms: f64,
    /// Retry budget per logical append.
    pub max_attempts: u32,
    /// One-time connection establishment cost (ms) added to the first
    /// exchange — the "initial connection start-up penalty" that makes the
    /// paper discard the first of its 30 latency samples.
    pub connect_ms: f64,
}

impl Default for RemoteConfig {
    fn default() -> Self {
        RemoteConfig {
            use_size_cache: false,
            storage_append_ms: 2.0,
            storage_jitter_ms: 0.1,
            timeout_ms: 500.0,
            max_attempts: 1_000,
            connect_ms: 35.0,
        }
    }
}

/// Result of a successful remote append.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppendOutcome {
    /// Sequence number assigned by the remote log.
    pub seq: u64,
    /// End-to-end latency of the logical append, including retries (ms,
    /// virtual time).
    pub latency_ms: f64,
    /// Number of attempts (1 = no retries).
    pub attempts: u32,
}

/// A client endpoint appending to a remote CSPOT node over a route.
pub struct RemoteAppender {
    clock: SimClock,
    route: RoutePath,
    config: RemoteConfig,
    rng: Rng,
    size_cache: BTreeMap<String, usize>,
    token_seed: u128,
    token_counter: u128,
    connected: bool,
    /// Fault injection: number of upcoming server acks to drop.
    drop_acks: u32,
    obs: Option<ProtocolObs>,
}

impl RemoteAppender {
    /// Create an appender over `route`, sharing the given virtual clock.
    pub fn new(clock: SimClock, route: RoutePath, config: RemoteConfig, seed: u64) -> Self {
        RemoteAppender {
            clock,
            route,
            config,
            rng: Rng::seed_from_u64(seed),
            size_cache: BTreeMap::new(),
            token_seed: (seed as u128) << 64,
            token_counter: 0,
            connected: false,
            drop_acks: 0,
            obs: None,
        }
    }

    /// Attach an observability handle: per-phase RTT histograms and
    /// retry counters land in its registry. A disabled handle detaches.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = ProtocolObs::new(obs);
    }

    /// Mutable access to the route, for partition injection mid-test.
    pub fn route_mut(&mut self) -> &mut RoutePath {
        &mut self.route
    }

    /// Drop the next `n` server acknowledgments (the data is appended but
    /// the sequence number never reaches the client).
    pub fn inject_ack_loss(&mut self, n: u32) {
        self.drop_acks += n;
    }

    fn fresh_token(&mut self) -> u128 {
        self.token_counter += 1;
        self.token_seed | self.token_counter
    }

    /// One crossing over the route; advances the clock by the sampled
    /// latency, or by the timeout if the message is lost. Returns whether
    /// the crossing succeeded.
    fn cross(&mut self) -> bool {
        match self.route.sample_one_way(&mut self.rng) {
            Some(ms) => {
                self.clock.advance_ms(ms);
                true
            }
            None => {
                self.clock.advance_ms(self.config.timeout_ms);
                false
            }
        }
    }

    /// Append `payload` to `log` on the remote `target` node.
    ///
    /// Blocks (in virtual time) until acknowledged or the retry budget is
    /// exhausted. Implements the paper's full two-phase protocol with
    /// optional size caching and retry-until-sequence-number semantics.
    pub fn append(
        &mut self,
        target: &CspotNode,
        log: &str,
        payload: &[u8],
    ) -> Result<AppendOutcome> {
        let token = self.fresh_token();
        self.append_with_token(target, log, payload, token)
    }

    /// Append with a caller-chosen idempotency token.
    ///
    /// Use when the *caller* owns retry semantics across its own restarts
    /// (e.g. the store-and-forward gateway derives tokens from its buffer
    /// sequence numbers, so even a crash between the remote append and the
    /// cursor update cannot duplicate).
    pub(crate) fn append_with_token(
        &mut self,
        target: &CspotNode,
        log: &str,
        payload: &[u8],
        token: u128,
    ) -> Result<AppendOutcome> {
        // Wall-time attribution of the append's compute cost (the virtual
        // protocol latency is already covered by the phase histograms).
        let wall_start_ns = self.obs.as_ref().map(|_| wall_now_ns());
        let out = self.append_attempts(target, log, payload, token);
        if let (Some(o), Some(t0)) = (&self.obs, wall_start_ns) {
            if let (Some(p), Some(node)) = (o.handle.profiler(), o.append_node) {
                p.record_node(node, wall_now_ns().saturating_sub(t0));
            }
        }
        out
    }

    /// The append's attempt loop: retry until acknowledged or the
    /// budget runs out.
    fn append_attempts(
        &mut self,
        target: &CspotNode,
        log: &str,
        payload: &[u8],
        token: u128,
    ) -> Result<AppendOutcome> {
        let start = self.clock.now_ms();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > self.config.max_attempts {
                if let Some(o) = &self.obs {
                    o.exhausted.inc();
                    o.retries.add((attempts - 1) as u64);
                }
                return Err(CspotError::RetriesExhausted {
                    attempts: attempts - 1,
                    elapsed_ms: self.clock.now_ms() - start,
                });
            }
            if !self.connected {
                // Connection establishment happens once per endpoint and is
                // why the paper discards its first latency sample.
                self.clock.advance_ms(self.config.connect_ms);
                self.connected = true;
            }
            // Phase 1: fetch the element size (unless cached).
            let phase1_start = self.clock.now_ms();
            let element_size = if self.config.use_size_cache {
                match self.size_cache.get(log).copied() {
                    Some(sz) => sz,
                    None => match self.fetch_size(target, log) {
                        Some(sz) => {
                            self.size_cache.insert(log.to_string(), sz);
                            sz
                        }
                        None => continue, // lost; retry
                    },
                }
            } else {
                match self.fetch_size(target, log) {
                    Some(sz) => sz,
                    None => continue,
                }
            };
            let phase2_start = self.clock.now_ms();
            if let Some(o) = &self.obs {
                o.phase1_ms.record(phase2_start - phase1_start);
            }
            if payload.len() != element_size {
                // With a stale cache this surfaces as a failed append — the
                // exact failure mode the paper warns about.
                return Err(CspotError::ElementSizeMismatch {
                    expected: element_size,
                    got: payload.len(),
                });
            }
            // Phase 2: ship the element.
            if !self.cross() {
                continue; // request lost in flight
            }
            // Server: durable append (idempotent under our token).
            let storage = (self.config.storage_append_ms
                + normal::standard(&mut self.rng) * self.config.storage_jitter_ms)
                .max(0.1);
            self.clock.advance_ms(storage);
            let seq = target.put_with_token(log, token, payload)?;
            // Ack crossing (possibly dropped by fault injection or loss).
            if self.drop_acks > 0 {
                self.drop_acks -= 1;
                self.clock.advance_ms(self.config.timeout_ms);
                continue; // client never saw the seq: retry
            }
            if !self.cross() {
                continue;
            }
            let latency_ms = self.clock.now_ms() - start;
            if let Some(o) = &self.obs {
                o.phase2_ms.record(self.clock.now_ms() - phase2_start);
                o.total_ms.record(latency_ms);
                o.attempts.record(attempts as f64);
                o.ok.inc();
                o.retries.add((attempts - 1) as u64);
            }
            return Ok(AppendOutcome {
                seq,
                latency_ms,
                attempts,
            });
        }
    }

    /// Phase-1 exchange: request + response crossing. Returns the element
    /// size, or `None` if either crossing was lost.
    fn fetch_size(&mut self, target: &CspotNode, log: &str) -> Option<usize> {
        if !self.cross() {
            return None;
        }
        let size = target.log(log).ok().map(|l| l.element_size())?;
        if !self.cross() {
            return None;
        }
        Some(size)
    }

    /// Measure a back-to-back latency series the way the paper does: send
    /// `n` messages, discard the first (connection start-up), return the
    /// remaining per-message latencies in ms.
    pub fn measure_latency_series(
        &mut self,
        target: &CspotNode,
        log: &str,
        payload: &[u8],
        n: usize,
    ) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(n.saturating_sub(1));
        for i in 0..n {
            let o = self.append(target, log, payload)?;
            if i > 0 {
                out.push(o.latency_ms);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::{PathModel, Topology};

    fn server_1kb() -> CspotNode {
        let node = CspotNode::in_memory("UCSB");
        node.create_log("data", 1024, 4096).unwrap();
        node
    }

    fn appender(route: RoutePath, cfg: RemoteConfig) -> RemoteAppender {
        RemoteAppender::new(SimClock::new(), route, cfg, 42)
    }

    #[test]
    fn append_assigns_sequences() {
        let server = server_1kb();
        let mut a = appender(
            RoutePath::single(PathModel::wired(3.75, 0.0)),
            RemoteConfig::default(),
        );
        let payload = vec![0u8; 1024];
        let o1 = a.append(&server, "data", &payload).unwrap();
        let o2 = a.append(&server, "data", &payload).unwrap();
        assert_eq!(o1.seq, 1);
        assert_eq!(o2.seq, 2);
        assert_eq!(o1.attempts, 1);
    }

    #[test]
    fn two_phase_latency_is_two_rtts_plus_storage() {
        let server = server_1kb();
        let cfg = RemoteConfig {
            storage_jitter_ms: 0.0,
            connect_ms: 0.0,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(PathModel::wired(3.75, 0.0)), cfg);
        let o = a.append(&server, "data", &vec![0u8; 1024]).unwrap();
        // 4 crossings * 3.75 + 2.0 storage = 17 ms: the paper's Table 1
        // UNL->UCSB (Internet) row.
        assert!((o.latency_ms - 17.0).abs() < 0.2, "{}", o.latency_ms);
    }

    #[test]
    fn size_cache_halves_latency() {
        let server = server_1kb();
        let cfg = RemoteConfig {
            storage_jitter_ms: 0.0,
            connect_ms: 0.0,
            use_size_cache: true,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(PathModel::wired(3.75, 0.0)), cfg);
        let payload = vec![0u8; 1024];
        let first = a.append(&server, "data", &payload).unwrap();
        let second = a.append(&server, "data", &payload).unwrap();
        // First append still pays the size fetch; the second skips it.
        assert!((first.latency_ms - 17.0).abs() < 0.2);
        assert!(
            (second.latency_ms - 9.5).abs() < 0.2,
            "{}",
            second.latency_ms
        );
    }

    #[test]
    fn stale_size_cache_fails_append() {
        let server = CspotNode::in_memory("UCSB");
        server.create_log("data", 16, 64).unwrap();
        let cfg = RemoteConfig {
            use_size_cache: true,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(PathModel::wired(1.0, 0.0)), cfg);
        a.append(&server, "data", &[0u8; 16]).unwrap();
        // Simulate a server-side size change by swapping in a new server
        // whose log has a different element size.
        let server2 = CspotNode::in_memory("UCSB");
        server2.create_log("data", 32, 64).unwrap();
        // The cached size (16) no longer matches: appending 32 bytes fails
        // client-side, exactly the hazard the paper describes.
        let err = a.append(&server2, "data", &[0u8; 32]).unwrap_err();
        assert!(matches!(err, CspotError::ElementSizeMismatch { .. }));
        // After invalidating the cache, the append succeeds.
        a.size_cache.remove("data");
        assert!(a.append(&server2, "data", &[0u8; 32]).is_ok());
    }

    #[test]
    fn ack_loss_retried_exactly_once_semantics() {
        let server = server_1kb();
        let mut a = appender(
            RoutePath::single(PathModel::wired(2.0, 0.0)),
            RemoteConfig::default(),
        );
        a.inject_ack_loss(2);
        let o = a.append(&server, "data", &vec![7u8; 1024]).unwrap();
        assert_eq!(o.attempts, 3, "two lost acks then success");
        assert_eq!(o.seq, 1);
        // The element was appended exactly once despite three attempts.
        assert_eq!(server.log("data").unwrap().len(), 1);
        // Latency includes the two timeouts.
        assert!(o.latency_ms > 2.0 * 500.0);
    }

    #[test]
    fn partition_then_heal_delays_but_delivers() {
        // Delay-tolerant networking: a partitioned path makes the append
        // spin in retries; healing lets it complete, data intact.
        let server = server_1kb();
        let cfg = RemoteConfig {
            timeout_ms: 50.0,
            max_attempts: 10_000,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(PathModel::wired(2.0, 0.0)), cfg);
        // Run the first append to establish the connection.
        a.append(&server, "data", &vec![1u8; 1024]).unwrap();
        a.route_mut().set_partitioned(true);
        // Appending now would never finish; emulate the application-level
        // pattern: bounded retries fail, then the program pauses and
        // retries after connectivity restoration.
        let short = RemoteConfig {
            timeout_ms: 50.0,
            max_attempts: 5,
            ..Default::default()
        };
        // Swap in a bounded-retry appender sharing the same route state.
        let mut bounded = RemoteAppender::new(
            SimClock::new(),
            {
                let mut r = RoutePath::single(PathModel::wired(2.0, 0.0));
                r.set_partitioned(true);
                r
            },
            short,
            7,
        );
        let err = bounded
            .append(&server, "data", &vec![2u8; 1024])
            .unwrap_err();
        assert!(matches!(err, CspotError::RetriesExhausted { .. }));
        // Heal and retry: delivery resumes.
        bounded.route_mut().set_partitioned(false);
        let o = bounded.append(&server, "data", &vec![2u8; 1024]).unwrap();
        assert_eq!(o.seq, 2);
    }

    #[test]
    fn retry_exhaustion_reports_attempts_and_elapsed_time() {
        // 100% loss: every crossing is dropped, so the retry budget is the
        // only way out. The error must say how many attempts were made and
        // how much virtual time the appender burned before giving up.
        let server = server_1kb();
        let mut lossy = PathModel::wired(2.0, 0.0);
        lossy.loss_prob = 1.0;
        let cfg = RemoteConfig {
            timeout_ms: 50.0,
            max_attempts: 8,
            connect_ms: 0.0,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(lossy), cfg);
        let err = a.append(&server, "data", &vec![3u8; 1024]).unwrap_err();
        match err {
            CspotError::RetriesExhausted {
                attempts,
                elapsed_ms,
            } => {
                assert_eq!(attempts, 8, "budget of 8 attempts fully spent");
                // Each attempt loses its first crossing and waits out the
                // timeout, so at least 8 * 50 ms of virtual time elapsed.
                assert!(
                    elapsed_ms >= 8.0 * 50.0,
                    "elapsed {elapsed_ms} ms under 100% loss"
                );
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        // Display carries both fields for operators reading logs.
        let msg = CspotError::RetriesExhausted {
            attempts: 8,
            elapsed_ms: 400.0,
        }
        .to_string();
        assert!(msg.contains('8') && msg.contains("400.0"), "{msg}");
    }

    #[test]
    fn latency_series_discards_first() {
        let server = server_1kb();
        let t = Topology::paper();
        let cfg = RemoteConfig {
            connect_ms: 35.0,
            ..Default::default()
        };
        let mut a = RemoteAppender::new(
            SimClock::new(),
            t.route("UNL", "UCSB").unwrap().clone(),
            cfg,
            9,
        );
        let series = a
            .measure_latency_series(&server, "data", &vec![0u8; 1024], 30)
            .unwrap();
        assert_eq!(series.len(), 29);
        let mean = series.iter().sum::<f64>() / series.len() as f64;
        // Paper Table 1: UNL->UCSB (Internet) = 17 ms +/- 0.8.
        assert!((mean - 17.0).abs() < 1.5, "mean {mean}");
    }

    #[test]
    fn obs_records_per_phase_rtt_and_retries() {
        let server = server_1kb();
        let cfg = RemoteConfig {
            storage_jitter_ms: 0.0,
            connect_ms: 0.0,
            ..Default::default()
        };
        let mut a = appender(RoutePath::single(PathModel::wired(3.75, 0.0)), cfg);
        let obs = Obs::enabled();
        a.set_obs(&obs);
        a.inject_ack_loss(1);
        a.append(&server, "data", &vec![0u8; 1024]).unwrap();
        let reg = obs.registry().unwrap();
        // Phase 1 = two crossings = 7.5 ms on every attempt.
        let p1 = reg.histogram("cspot.append.phase1_ms").snapshot();
        assert_eq!(p1.count(), 2, "one per attempt");
        assert!((p1.max().unwrap() - 7.5).abs() < 0.1, "{:?}", p1.max());
        // Phase 2 = ship + storage + ack = 9.5 ms, success only.
        let p2 = reg.histogram("cspot.append.phase2_ms").snapshot();
        assert_eq!(p2.count(), 1);
        assert!((p2.max().unwrap() - 9.5).abs() < 0.1, "{:?}", p2.max());
        assert_eq!(reg.counter("cspot.append.ok").get(), 1);
        assert_eq!(reg.counter("cspot.append.retries").get(), 1);
        // Total latency includes the lost-ack timeout.
        let total = reg.histogram("cspot.append.total_ms").snapshot();
        assert!(total.max().unwrap() > 500.0);
    }

    #[test]
    fn paper_5g_route_latency_band() {
        let server = server_1kb();
        let t = Topology::paper();
        let mut a = RemoteAppender::new(
            SimClock::new(),
            t.route("UNL-5G", "UCSB").unwrap().clone(),
            RemoteConfig::default(),
            11,
        );
        let series = a
            .measure_latency_series(&server, "data", &vec![0u8; 1024], 30)
            .unwrap();
        let n = series.len() as f64;
        let mean = series.iter().sum::<f64>() / n;
        let sd = (series.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
        // Paper Table 1: 101 +/- 17 ms. Allow wide tolerance: 29 samples.
        assert!((mean - 101.0).abs() < 15.0, "mean {mean}");
        assert!(sd > 5.0 && sd < 35.0, "sd {sd}");
    }
}
