//! Primary → follower log replication over the simulated WAN.
//!
//! xGFabric sites replicate their CSPOT logs asynchronously so a farm
//! gateway's history survives the gateway: a follower at the HPC site
//! pulls records over [`crate::netsim`] and applies them in order through
//! its own storage engine. Two transfer modes compose:
//!
//! * **Sealed-segment catch-up** — when the follower is far behind (fresh
//!   follower, long partition), whole sealed segments ship as one unit
//!   per round trip ([`crate::log::Log::sealed_records_from`]). The unit
//!   is bounded by `segment_bytes`, so a round trip moves thousands of
//!   records instead of `batch`.
//! * **Tail streaming** — near the head, records ship in `batch`-sized
//!   reads from the primary's durable storage (a volatile primary serves
//!   them, tokens included, from its retained window).
//!
//! The follower applies records with [`crate::log::Log::apply_replica`]:
//! next-expected applies, already-held drops idempotently (a re-shipped
//! batch after a lost crossing), anything that skips ahead is a
//! [`crate::error::CspotError::ReplicaGap`] — the primary compacted
//! history the follower never saw, which is an operator-visible error,
//! not something to paper over.
//!
//! A partition simply makes crossings return `None`: the pump reports
//! [`PumpOutcome::Unreachable`] and virtual time advances by the timeout.
//! After heal, the next pump resumes from the follower's durable state —
//! no session to re-establish, because the protocol is stateless pull.
//! All latency is virtual ([`SimClock`]) and all randomness flows from
//! the seeded RNG, so replication runs are deterministic.

use crate::error::Result;
use crate::log::{Log, ReplicaApply};
use crate::netsim::{RoutePath, SimClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xg_obs::Obs;

/// Tunables of a replication link.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationConfig {
    /// Records per tail-streaming read.
    pub batch: usize,
    /// Virtual time charged when a crossing is lost or the route is
    /// partitioned (the puller's request timeout).
    pub timeout_ms: f64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            batch: 64,
            timeout_ms: 250.0,
        }
    }
}

/// What one [`Replicator::pump`] round accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PumpOutcome {
    /// The follower already matched the primary; nothing shipped.
    UpToDate,
    /// Records shipped and applied.
    Shipped {
        /// Records newly applied on the follower.
        applied: u64,
        /// Records offered that the follower already held.
        duplicates: u64,
        /// True when this round moved a whole sealed segment.
        sealed_unit: bool,
    },
    /// The route dropped the crossing (loss or partition); the timeout
    /// was charged to virtual time.
    Unreachable,
}

/// A pull-based replication link from one primary log to one follower.
pub struct Replicator {
    clock: SimClock,
    route: RoutePath,
    rng: StdRng,
    config: ReplicationConfig,
    obs: Obs,
}

impl Replicator {
    /// Build a link over `route`, drawing all crossing latencies from a
    /// RNG seeded with `seed` (deterministic replay).
    pub fn new(clock: SimClock, route: RoutePath, config: ReplicationConfig, seed: u64) -> Self {
        Replicator {
            clock,
            route,
            rng: StdRng::seed_from_u64(seed),
            config,
            obs: Obs::disabled(),
        }
    }

    /// Attach an observability handle: pump rounds land in the profiler
    /// as `cspot.repl.pump` (apply/sync work attributed as children).
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs = obs.clone();
    }

    /// Mutable route access (partition injection and heal).
    pub fn route_mut(&mut self) -> &mut RoutePath {
        &mut self.route
    }

    /// One replication round: request the follower's frontier, read from
    /// the primary's durable storage, ship, apply. Two crossings of
    /// virtual latency (request + response) per round.
    pub fn pump(&mut self, primary: &Log, follower: &Log) -> Result<PumpOutcome> {
        let handle = self.obs.clone();
        let prof = handle.profiler();
        let _round = prof.map(|p| p.scope("cspot.repl.pump"));
        // Crossing 1: the puller asks the follower-side agent for its
        // frontier — local in this simulation, but the latency is real.
        let from = follower.latest_seq().map(|s| s + 1).unwrap_or(1);
        if primary.latest_seq().map(|s| s < from).unwrap_or(true) {
            return Ok(PumpOutcome::UpToDate);
        }
        let Some(req_ms) = self.route.sample_one_way(&mut self.rng) else {
            self.clock.advance_ms(self.config.timeout_ms);
            return Ok(PumpOutcome::Unreachable);
        };
        // Far behind: ship the whole sealed segment containing `from`.
        let (records, sealed_unit) = match primary.sealed_records_from(from)? {
            Some(seg) if !seg.is_empty() => (seg, true),
            _ => (primary.read_records_from(from, self.config.batch)?, false),
        };
        if records.is_empty() {
            // The frontier is durable-lagging the primary's in-memory head
            // (group-commit window); nothing shippable yet.
            self.clock.advance_ms(req_ms);
            return Ok(PumpOutcome::UpToDate);
        }
        // Crossing 2: the records travel back.
        let Some(resp_ms) = self.route.sample_one_way(&mut self.rng) else {
            self.clock.advance_ms(req_ms + self.config.timeout_ms);
            return Ok(PumpOutcome::Unreachable);
        };
        self.clock.advance_ms(req_ms + resp_ms);
        let mut applied = 0u64;
        let mut duplicates = 0u64;
        {
            let _apply = prof.map(|p| p.scope_under("cspot.repl.pump", "apply"));
            for record in &records {
                match follower.apply_replica(record)? {
                    ReplicaApply::Applied => applied += 1,
                    ReplicaApply::Duplicate => duplicates += 1,
                }
            }
        }
        {
            // The follower's group-commit fsync — usually the round's
            // dominant real (non-virtual) cost on durable backends.
            let _sync = prof.map(|p| p.scope_under("cspot.repl.pump", "sync"));
            follower.sync()?;
        }
        Ok(PumpOutcome::Shipped {
            applied,
            duplicates,
            sealed_unit,
        })
    }

    /// Pump until the follower has caught up with the primary's durable
    /// frontier (or `max_rounds` elapse — bounded so a standing partition
    /// cannot spin forever). Returns total records applied.
    pub fn catch_up(&mut self, primary: &Log, follower: &Log, max_rounds: usize) -> Result<u64> {
        let mut total = 0u64;
        for _ in 0..max_rounds {
            match self.pump(primary, follower)? {
                PumpOutcome::UpToDate => break,
                PumpOutcome::Shipped { applied, .. } => total += applied,
                PumpOutcome::Unreachable => {}
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogConfig;
    use crate::netsim::PathModel;
    use crate::segment::{SegmentConfig, SegmentedBackend, SyncPolicy};
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xg-repl-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mem_log(history: usize) -> Log {
        Log::volatile(LogConfig {
            name: "t".into(),
            element_size: 8,
            history,
        })
    }

    fn seg_log(dir: &PathBuf, cfg: SegmentConfig) -> Log {
        Log::create(
            LogConfig {
                name: "t".into(),
                element_size: 8,
                history: 1 << 20,
            },
            Box::new(SegmentedBackend::open(dir, cfg).unwrap()),
        )
        .unwrap()
    }

    fn small_cfg() -> SegmentConfig {
        SegmentConfig {
            segment_bytes: 160, // 4 records of 8-byte payloads per segment
            retain_segments: None,
            sync: SyncPolicy::EveryAppend,
            index_stride: 2,
        }
    }

    fn wired_replicator(seed: u64) -> Replicator {
        Replicator::new(
            SimClock::new(),
            RoutePath::single(PathModel::wired(5.0, 0.2)),
            ReplicationConfig::default(),
            seed,
        )
    }

    fn payload(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn follower_converges_and_stays_converged() {
        let primary = mem_log(1 << 20);
        let follower = mem_log(1 << 20);
        for i in 1..=100 {
            primary.append_with_token(i as u128, &payload(i)).unwrap();
        }
        let mut r = wired_replicator(1);
        let applied = r.catch_up(&primary, &follower, 100).unwrap();
        assert_eq!(applied, 100);
        assert_eq!(follower.latest_seq(), Some(100));
        assert_eq!(r.pump(&primary, &follower).unwrap(), PumpOutcome::UpToDate);
        // Token dedup state replicates too.
        assert_eq!(follower.has_token(42), Some(42));
        // Contents match.
        for i in 1..=100u64 {
            assert_eq!(follower.get(i).unwrap(), payload(i));
        }
    }

    #[test]
    fn sealed_segments_ship_whole() {
        let pdir = tmpdir("ship-p");
        let fdir = tmpdir("ship-f");
        let primary = seg_log(&pdir, small_cfg());
        let follower = seg_log(&fdir, small_cfg());
        for i in 1..=10 {
            primary.append(&payload(i)).unwrap();
        }
        let mut r = wired_replicator(2);
        let first = r.pump(&primary, &follower).unwrap();
        assert_eq!(
            first,
            PumpOutcome::Shipped {
                applied: 4,
                duplicates: 0,
                sealed_unit: true
            },
            "first round moves a whole sealed segment"
        );
        let total = r.catch_up(&primary, &follower, 100).unwrap();
        assert_eq!(total + 4, 10);
        assert_eq!(follower.latest_seq(), Some(10));
    }

    #[test]
    fn partition_then_heal_catches_up() {
        let primary = mem_log(1 << 20);
        let follower = mem_log(1 << 20);
        for i in 1..=20 {
            primary.append(&payload(i)).unwrap();
        }
        let mut r = wired_replicator(3);
        r.route_mut().set_partitioned(true);
        let t0 = 0.0;
        assert_eq!(
            r.pump(&primary, &follower).unwrap(),
            PumpOutcome::Unreachable
        );
        assert_eq!(follower.latest_seq(), None);
        r.route_mut().set_partitioned(false);
        let applied = r.catch_up(&primary, &follower, 100).unwrap();
        assert_eq!(applied, 20);
        assert!(r.clock.now_ms() > t0, "timeouts and crossings took time");
    }

    #[test]
    fn reshipped_batch_is_idempotent() {
        let primary = mem_log(1 << 20);
        let follower = mem_log(1 << 20);
        for i in 1..=5 {
            primary.append(&payload(i)).unwrap();
        }
        let mut r = wired_replicator(4);
        r.catch_up(&primary, &follower, 100).unwrap();
        // Re-offer history manually (a duplicate ship after a lost ack).
        let records = primary.read_records_from(1, 10).unwrap();
        for rec in &records {
            assert_eq!(
                follower.apply_replica(rec).unwrap(),
                ReplicaApply::Duplicate
            );
        }
        assert_eq!(follower.latest_seq(), Some(5), "no duplicates appended");
    }

    #[test]
    fn gap_is_an_error_not_a_silent_skip() {
        let follower = mem_log(1 << 20);
        let rec = crate::storage::Record {
            seq: 7,
            token: 0,
            payload: payload(7).to_vec(),
        };
        let err = follower.apply_replica(&rec).unwrap_err();
        assert!(matches!(
            err,
            crate::error::CspotError::ReplicaGap {
                expected: 1,
                got: 7
            }
        ));
    }

    #[test]
    fn pump_rounds_land_in_the_profiler() {
        let primary = mem_log(1 << 20);
        let follower = mem_log(1 << 20);
        for i in 1..=10 {
            primary.append(&payload(i)).unwrap();
        }
        let obs = Obs::enabled();
        let mut r = wired_replicator(5);
        r.set_obs(&obs);
        r.catch_up(&primary, &follower, 100).unwrap();
        let snap = obs.profiler().unwrap().snapshot();
        let pump = &snap.nodes["cspot.repl.pump"];
        assert!(pump.calls >= 1);
        assert!(snap.nodes.contains_key("cspot.repl.pump/apply"));
        assert!(snap.nodes.contains_key("cspot.repl.pump/sync"));
        assert!(pump.total_ns >= pump.child_ns);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let primary = mem_log(1 << 20);
            let follower = mem_log(1 << 20);
            for i in 1..=50 {
                primary.append(&payload(i)).unwrap();
            }
            let mut r = Replicator::new(
                SimClock::new(),
                RoutePath::single(PathModel {
                    loss_prob: 0.2,
                    ..PathModel::wired(5.0, 1.0)
                }),
                ReplicationConfig {
                    batch: 7,
                    timeout_ms: 50.0,
                },
                seed,
            );
            r.catch_up(&primary, &follower, 1000).unwrap();
            (follower.latest_seq(), r.clock.now_ms())
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b, "same seed, same outcome and virtual time");
        assert_eq!(a.0, Some(50));
    }
}
