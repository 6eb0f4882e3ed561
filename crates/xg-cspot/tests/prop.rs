//! Property-based invariants of the CSPOT runtime.

use std::collections::BTreeMap;
use std::sync::Arc;
use xg_cspot::prelude::*;
use xg_prop::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Durable-node durability: any sequence of appends recovers exactly
    /// across a close/reopen cycle.
    #[test]
    fn file_backend_roundtrip(
        payloads in xg_prop::collection::vec(xg_prop::collection::vec(any::<u8>(), 6), 1..20),
        case_id in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("xg-prop-{}-{case_id:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let node = CspotNode::durable("UNL", &dir);
            node.create_log("p", 6, 1000).unwrap();
            for p in &payloads {
                node.put("p", p).unwrap();
            }
        }
        let node = CspotNode::durable("UNL", &dir);
        let log = node.open_log("p", 6, 1000).unwrap();
        prop_assert_eq!(log.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            prop_assert_eq!(&log.get(i as u64 + 1).unwrap(), p);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The run-length token index answers exactly like a plain
    /// token → sequence map: the same sequence from every append and the
    /// same `has_token` answer for every token, under interleaved
    /// sequential writers, shuffled tokens, retries of live and evicted
    /// tokens, and recovery replays from disk.
    #[test]
    fn token_index_matches_a_plain_map(
        ops in xg_prop::collection::vec((0u8..10, 0usize..3, 0u64..48), 1..160),
        history in 1usize..10,
        case_id in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir()
            .join(format!("xg-prop-tokens-{}-{case_id:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let storage = SegmentConfig {
            sync: SyncPolicy::GroupCommit { every: 1024 },
            ..SegmentConfig::default()
        };
        let open = || {
            CspotNode::durable_with_storage("UNL", &dir, storage.clone())
                .open_log("t", 8, history)
                .unwrap()
        };
        let mut log = open();
        let mut oracle: BTreeMap<u128, u64> = BTreeMap::new();
        let mut counters = [1u64; 3];
        let mut appended = 0u64;
        for (kind, writer, x) in ops {
            let space = (writer as u128 + 1) << 64;
            let token = match kind {
                // A writer's next sequential token.
                0..=4 => {
                    counters[writer] += 1;
                    space | u128::from(counters[writer] - 1)
                }
                // Shuffled: anywhere in the writer's space, ahead of its
                // counter or behind it (then a retry).
                5 | 6 => space | u128::from(x),
                // A retry of a token already appended, live or evicted.
                7 | 8 => match oracle.keys().nth(x as usize % oracle.len().max(1)) {
                    Some(&token) => token,
                    None => continue,
                },
                // Recovery replay: restart and rebuild the index from disk.
                _ => {
                    log.sync().unwrap();
                    drop(log);
                    log = open();
                    continue;
                }
            };
            let expect = *oracle.entry(token).or_insert_with(|| {
                appended += 1;
                appended
            });
            prop_assert_eq!(log.append_with_token(token, &x.to_le_bytes()).unwrap(), expect);
        }
        for writer in 0..3u128 {
            for k in 0..64u128 {
                let token = (writer + 1) << 64 | k;
                prop_assert_eq!(log.has_token(token), oracle.get(&token).copied());
            }
        }
        prop_assert_eq!(log.latest_seq(), (appended > 0).then_some(appended));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The remote protocol delivers exactly once under arbitrary ack-loss
    /// schedules, and the sequence order matches the send order.
    #[test]
    fn remote_exactly_once_under_ack_loss(
        losses in xg_prop::collection::vec(0u32..3, 1..12),
        seed in 0u64..10_000,
    ) {
        let server = Arc::new(CspotNode::in_memory("UCSB"));
        server.create_log("l", 8, 10_000).unwrap();
        let cfg = RemoteConfig {
            timeout_ms: 10.0,
            ..Default::default()
        };
        let mut appender = RemoteAppender::new(
            SimClock::new(),
            RoutePath::single(PathModel::wired(1.0, 0.05)),
            cfg,
            seed,
        );
        for (i, &loss) in losses.iter().enumerate() {
            appender.inject_ack_loss(loss);
            let o = appender
                .append(&server, "l", &(i as u64).to_le_bytes())
                .unwrap();
            prop_assert_eq!(o.seq, i as u64 + 1);
            prop_assert_eq!(o.attempts, loss + 1);
        }
        prop_assert_eq!(server.log("l").unwrap().len(), losses.len());
    }

    /// Latency over a jitter-free route is deterministic: base × 4
    /// crossings + storage, independent of payload content.
    #[test]
    fn latency_composition(base in 0.5f64..50.0, payload in xg_prop::collection::vec(any::<u8>(), 16)) {
        let server = Arc::new(CspotNode::in_memory("UCSB"));
        server.create_log("l", 16, 100).unwrap();
        let cfg = RemoteConfig {
            storage_jitter_ms: 0.0,
            connect_ms: 0.0,
            ..Default::default()
        };
        let mut appender = RemoteAppender::new(
            SimClock::new(),
            RoutePath::single(PathModel::wired(base, 0.0)),
            cfg,
            1,
        );
        let o = appender.append(&server, "l", &payload).unwrap();
        let expect = 4.0 * base.max(0.1) + 2.0;
        prop_assert!((o.latency_ms - expect).abs() < 0.02, "{} vs {}", o.latency_ms, expect);
    }

    /// Gateway drains preserve order and count for any buffered stream,
    /// regardless of where a partition interrupts.
    #[test]
    fn gateway_drain_order(
        n_before in 1usize..8,
        n_during in 0usize..8,
        seed in 0u64..1000,
    ) {
        let local = Arc::new(CspotNode::in_memory("UNL"));
        local.create_log("buf", 8, 1024).unwrap();
        let remote = Arc::new(CspotNode::in_memory("UCSB"));
        remote.create_log("dst", 8, 1024).unwrap();
        let cfg = RemoteConfig {
            timeout_ms: 5.0,
            max_attempts: 2,
            ..Default::default()
        };
        let appender = RemoteAppender::new(
            SimClock::new(),
            RoutePath::single(PathModel::wired(1.0, 0.0)),
            cfg,
            seed,
        );
        let mut gw = Gateway::new(local, "buf", "dst", appender).unwrap();
        let mut sent = 0u64;
        for _ in 0..n_before {
            gw.buffer(&sent.to_le_bytes()).unwrap();
            sent += 1;
        }
        gw.drain(&remote);
        gw.route_mut().set_partitioned(true);
        for _ in 0..n_during {
            gw.buffer(&sent.to_le_bytes()).unwrap();
            sent += 1;
        }
        gw.drain(&remote); // fails silently, parks data
        gw.route_mut().set_partitioned(false);
        gw.drain(&remote);
        let log = remote.log("dst").unwrap();
        prop_assert_eq!(log.len() as u64, sent);
        for i in 0..sent {
            prop_assert_eq!(remote.get("dst", i + 1).unwrap(), i.to_le_bytes());
        }
    }

    /// The outage process's long-run availability converges to the
    /// analytic `mtbf/(mtbf+mttr)` for any parameters and seed. The horizon
    /// scales with the cycle length so every case sees many hundreds of
    /// up/down cycles; tolerance is loose because exponential holding
    /// times have heavy relative variance.
    #[test]
    fn outage_availability_converges(
        mtbf_s in 200.0f64..20_000.0,
        mttr_s in 50.0f64..5_000.0,
        seed in 0u64..10_000,
    ) {
        let config = OutageConfig { mtbf_s, mttr_s };
        let mut process = OutageProcess::new(config, seed);
        let cycle = mtbf_s + mttr_s;
        let horizon = 2_000.0 * cycle;
        let step = cycle / 3.0;
        let mut down_total = 0.0;
        let mut t = 0.0;
        while t < horizon {
            t += step;
            let (_, down) = process.advance_time(t);
            down_total += down;
        }
        let measured = 1.0 - down_total / t;
        let expect = config.availability();
        prop_assert!(
            (measured - expect).abs() < 0.04,
            "availability {} vs analytic {} (mtbf {}, mttr {}, seed {})",
            measured, expect, mtbf_s, mttr_s, seed
        );
    }
}
