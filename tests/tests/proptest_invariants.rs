//! Property-based invariants spanning the substrates.

use xg_cspot::log::{Log, LogConfig};
use xg_cspot::segment::{SegmentConfig, SegmentedBackend, SyncPolicy};
use xg_hpc::cluster::{ClusterSim, JobRequest};
use xg_laminar::stats;
use xg_net::mac::{MacScheduler, SchedulerKind, UlRequest};
use xg_net::slice::{SliceConfig, SliceProfile, Snssai};
use xg_prop::prelude::*;

proptest! {
    /// Slice quotas never exceed the grid and track shares within 1 PRB,
    /// for any valid share vector.
    #[test]
    fn slice_quotas_conserve_prbs(
        shares in xg_prop::collection::vec(0.01f64..1.0, 1..6),
        total_prb in 6u32..280,
    ) {
        let sum: f64 = shares.iter().sum();
        let profiles: Vec<SliceProfile> = shares
            .iter()
            .enumerate()
            .map(|(i, s)| SliceProfile {
                snssai: Snssai::embb(i as u32),
                prb_share: s / sum, // normalize to exactly 1.0
            })
            .collect();
        let config = SliceConfig::new(profiles).unwrap();
        let quotas = config.prb_quotas(total_prb);
        let assigned: u32 = quotas.iter().sum();
        prop_assert!(assigned <= total_prb);
        // Shares within 1 PRB + rounding of the target total.
        for (q, s) in quotas.iter().zip(&shares) {
            let exact = s / sum * total_prb as f64;
            prop_assert!((*q as f64 - exact).abs() <= 1.0 + 1e-9);
        }
    }

    /// The MAC scheduler never over-allocates and always exhausts the
    /// quota when someone is backlogged.
    #[test]
    fn scheduler_conserves_quota(
        quota in 1u32..280,
        n_ues in 1usize..12,
        pf in xg_prop::bool::ANY,
        effs in xg_prop::collection::vec(0.1f64..7.0, 12),
    ) {
        let kind = if pf { SchedulerKind::ProportionalFair } else { SchedulerKind::RoundRobin };
        let mut sched = MacScheduler::new(kind);
        let requests: Vec<UlRequest> = (0..n_ues)
            .map(|i| UlRequest { ue: i as u32, inst_eff: effs[i], weight: 1.0 })
            .collect();
        let mut grants = Vec::new();
        for _ in 0..5 {
            sched.allocate_into(quota, &requests, &mut grants);
            let total: u32 = grants.iter().map(|&(_, p)| p).sum();
            prop_assert!(total <= quota, "over-allocation: {total} > {quota}");
            prop_assert_eq!(total, quota, "quota must be exhausted");
            // Every grant belongs to a requester, no duplicates.
            let mut ues: Vec<u32> = grants.iter().map(|&(ue, _)| ue).collect();
            ues.sort_unstable();
            ues.dedup();
            prop_assert_eq!(ues.len(), grants.len());
            for &(ue, bits) in &grants {
                sched.observe(ue, bits as f64);
            }
        }
    }

    /// Log sequence numbers stay dense and reads return exactly what was
    /// appended, for any payload stream and history size.
    #[test]
    fn log_sequences_dense_and_faithful(
        payloads in xg_prop::collection::vec(xg_prop::collection::vec(0u8..255, 4), 1..40),
        history in 1usize..50,
    ) {
        let log = Log::volatile(LogConfig { name: "p".into(), element_size: 4, history });
        let mut seqs = Vec::new();
        for p in &payloads {
            seqs.push(log.append(p).unwrap());
        }
        // Dense 1..=n.
        let expect: Vec<u64> = (1..=payloads.len() as u64).collect();
        prop_assert_eq!(&seqs, &expect);
        // Retained entries read back faithfully.
        let earliest = log.earliest_seq().unwrap();
        for (i, p) in payloads.iter().enumerate() {
            let seq = (i + 1) as u64;
            if seq >= earliest {
                prop_assert_eq!(&log.get(seq).unwrap(), p);
            } else {
                prop_assert!(log.get(seq).is_err());
            }
        }
        prop_assert!(log.len() <= history);
    }

    /// Dedup is idempotent under arbitrary retry interleavings.
    #[test]
    fn dedup_idempotent(retries in xg_prop::collection::vec(0usize..4, 1..20)) {
        let log = Log::volatile(LogConfig { name: "d".into(), element_size: 8, history: 1000 });
        for (i, &extra) in retries.iter().enumerate() {
            let token = (i + 1) as u128;
            let payload = (i as u64).to_le_bytes();
            let first = log.append_with_token(token, &payload).unwrap();
            for _ in 0..extra {
                prop_assert_eq!(log.append_with_token(token, &payload).unwrap(), first);
            }
        }
        prop_assert_eq!(log.len(), retries.len());
    }

    /// Segmented-engine durability invariant: for any payload stream,
    /// segment size, sync cadence, and crash point, a power loss followed
    /// by recovery yields a dense prefix of exactly the synced records —
    /// never a gap, never a duplicate, never a torn read.
    #[test]
    fn segmented_engine_power_loss_keeps_synced_prefix(
        payloads in xg_prop::collection::vec(xg_prop::collection::vec(0u8..255, 8), 1..60),
        segment_bytes in 80u64..600,
        every in 1u32..12,
        crash_at in 0usize..60,
        case in 0u64..u64::MAX,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "xg-prop-seg-{}-{case:016x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = SegmentConfig {
            segment_bytes,
            retain_segments: None,
            sync: SyncPolicy::GroupCommit { every },
            index_stride: 3,
        };
        let mkconfig = || LogConfig { name: "p".into(), element_size: 8, history: 1 << 20 };
        let committed = {
            let log = Log::create(
                mkconfig(),
                SegmentedBackend::open(&dir, cfg.clone()).unwrap(),
            ).unwrap();
            let crash = crash_at.min(payloads.len());
            for p in payloads.iter().take(crash) {
                log.append(p).unwrap();
            }
            let committed = log.committed_seq();
            prop_assert!(log.simulate_power_loss().unwrap());
            committed
        };
        let log = Log::create(
            mkconfig(),
            SegmentedBackend::open(&dir, cfg).unwrap(),
        ).unwrap();
        // Exactly the committed prefix survives.
        prop_assert_eq!(log.latest_seq(), committed);
        let survived = committed.unwrap_or(0) as usize;
        for (i, p) in payloads.iter().take(survived).enumerate() {
            prop_assert_eq!(&log.get((i + 1) as u64).unwrap(), p);
        }
        // And the log keeps working: the lost suffix replays cleanly.
        for p in payloads.iter().skip(survived) {
            log.append(p).unwrap();
        }
        log.sync().unwrap();
        prop_assert_eq!(log.latest_seq(), Some(payloads.len() as u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Statistical tests are symmetric and sane: p(a,b) == p(b,a) and
    /// p in [0, 1].
    #[test]
    fn stat_tests_symmetric(
        a in xg_prop::collection::vec(-50.0f64..50.0, 3..12),
        b in xg_prop::collection::vec(-50.0f64..50.0, 3..12),
    ) {
        if let (Some(r1), Some(r2)) = (stats::welch_t_test(&a, &b), stats::welch_t_test(&b, &a)) {
            prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&r1.p_value));
        }
        if let (Some(r1), Some(r2)) = (stats::mann_whitney_u(&a, &b), stats::mann_whitney_u(&b, &a)) {
            prop_assert!((r1.p_value - r2.p_value).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&r1.p_value));
        }
        if let (Some(r1), Some(r2)) = (stats::ks_test(&a, &b), stats::ks_test(&b, &a)) {
            prop_assert!((r1.statistic - r2.statistic).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&r1.p_value));
        }
    }

    /// Cluster scheduling safety under random job streams: node capacity
    /// is never exceeded and every job eventually runs on an idle-enough
    /// machine.
    #[test]
    fn cluster_scheduling_safe(
        jobs in xg_prop::collection::vec((1u32..8, 60.0f64..4000.0), 1..15),
        nodes in 8u32..32,
    ) {
        let mut cluster = ClusterSim::new(nodes);
        let mut ids = Vec::new();
        for &(n, runtime) in &jobs {
            if let Some(id) = cluster.submit(JobRequest {
                nodes: n.min(nodes),
                walltime_s: runtime * 1.5,
                runtime_s: runtime,
            }) {
                ids.push(id);
            }
            prop_assert!(cluster.free_nodes() <= nodes);
        }
        // Run long enough for everything to finish.
        let total: f64 = jobs.iter().map(|&(_, r)| r).sum();
        cluster.advance_to(total * 2.0 + 10_000.0);
        prop_assert_eq!(cluster.queue_len(), 0, "all jobs must eventually start");
        for id in ids {
            let state = cluster.job_state(id);
            prop_assert!(
                matches!(state, Some(xg_hpc::cluster::JobState::Completed { .. })),
                "job {id:?} in state {state:?}"
            );
        }
    }
}
