//! Storage chaos harness: kill/restart a site mid-append and prove
//! exactly-once (zero loss, zero duplicates) across process deaths.
//!
//! The client mirrors a field gateway writing telemetry with
//! deterministic idempotency tokens. The crash model is adversarial:
//! power loss drops everything not fsynced (group commit makes that a
//! real window). After each restart the client consults the recovered
//! dedup state (`Log::has_token`) and replays exactly the writes whose
//! tokens are absent — the paper's retry-until-acknowledged discipline.

use xg_cspot::log::{Log, LogConfig};
use xg_cspot::node::CspotNode;
use xg_cspot::segment::{SegmentConfig, SegmentedBackend, SyncPolicy};
use xg_obs::recorder::{BundleContext, FlightRecorder};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xg-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_config() -> SegmentConfig {
    SegmentConfig {
        // 16-byte payloads frame to 48 bytes: ~10 records per segment.
        segment_bytes: 480,
        retain_segments: None,
        sync: SyncPolicy::GroupCommit { every: 7 },
        index_stride: 4,
    }
}

fn open_log(dir: &std::path::Path) -> Log {
    Log::create(
        LogConfig {
            name: "telemetry".into(),
            element_size: 16,
            history: 1 << 20,
        },
        SegmentedBackend::open(dir, chaos_config()).unwrap(),
    )
    .unwrap()
}

fn token_for(i: u64) -> u128 {
    // Deterministic, never zero (zero disables dedup).
    0x5EED_0000_0000_0000_u128 + i as u128
}

fn payload_for(i: u64) -> [u8; 16] {
    let mut p = [0u8; 16];
    p[..8].copy_from_slice(&i.to_le_bytes());
    p[8..].copy_from_slice(&(i.wrapping_mul(0x9E37_79B9)).to_le_bytes());
    p
}

/// One client "life": replay unacknowledged writes, then continue the
/// stream, crashing (power loss) after `crash_after` fresh appends.
/// Returns the number of messages the client believes are durable.
fn run_life(dir: &std::path::Path, total: u64, crash_after: Option<u64>) -> u64 {
    let log = open_log(dir);
    let mut fresh = 0u64;
    for i in 1..=total {
        let token = token_for(i);
        if log.has_token(token).is_some() {
            continue; // acknowledged in a previous life
        }
        log.append_with_token(token, &payload_for(i)).unwrap();
        fresh += 1;
        if Some(fresh) == crash_after {
            // Power dies mid-stream: the group-commit buffer vanishes.
            assert!(log.simulate_power_loss().unwrap());
            return i;
        }
    }
    log.sync().unwrap();
    total
}

#[test]
fn kill_restart_mid_append_is_exactly_once() {
    let dir = tmp("kill-restart");
    let total = 60u64;
    // Life 1 dies after 23 fresh appends, life 2 after 19 more, life 3
    // finishes. Crash points deliberately land inside group-commit
    // windows and across segment boundaries.
    run_life(&dir, total, Some(23));
    run_life(&dir, total, Some(19));
    run_life(&dir, total, None);

    // Final restart: verify the stream end to end.
    let log = open_log(&dir);
    assert_eq!(log.latest_seq(), Some(total), "zero loss, zero duplicates");
    for i in 1..=total {
        assert_eq!(
            log.get(i).unwrap(),
            payload_for(i),
            "message {i} must appear exactly once, in order"
        );
        assert!(log.has_token(token_for(i)).is_some());
    }
    assert_eq!(log.committed_seq(), Some(total));
}

#[test]
fn repeated_crash_storm_converges() {
    let dir = tmp("crash-storm");
    let total = 40u64;
    // Crash after every 8 fresh appends until the stream completes — just
    // past the group-commit window of 7, so each life durably lands at
    // least one batch (or a sealed segment) before dying. The client must
    // make monotone progress and never duplicate.
    let mut lives = 0;
    loop {
        lives += 1;
        assert!(lives < 64, "client must converge");
        let reached = run_life(&dir, total, Some(8));
        if reached >= total {
            run_life(&dir, total, None);
            break;
        }
    }
    let log = open_log(&dir);
    assert_eq!(log.latest_seq(), Some(total));
    for i in 1..=total {
        assert_eq!(log.get(i).unwrap(), payload_for(i));
    }
    assert!(lives > 3, "the storm actually exercised multiple crashes");
}

#[test]
fn blackbox_bundle_survives_process_death() {
    let dir = tmp("blackbox");
    let bundle_len;
    // Life 1: record a flight, persist the black box, die without any
    // further ceremony.
    {
        let node = CspotNode::durable_with_storage("UNL", &dir, chaos_config());
        let rec = FlightRecorder::new(64);
        rec.note(1_000, "uplink degraded");
        rec.note(2_000, "failover to wired route");
        let bundle = xg_obs::recorder::render_bundle(
            &rec,
            None,
            &BundleContext {
                reason: "chaos: injected power loss".into(),
                t_s: 2.5,
                seed: 42,
                context: vec![("site".into(), "UNL".into())],
                ..Default::default()
            },
        );
        bundle_len = bundle.len();
        node.persist_blackbox(&bundle).unwrap();
    }
    // Life 2: the bundle is recovered intact from the sys.blackbox log.
    let node = CspotNode::durable_with_storage("UNL", &dir, chaos_config());
    let recovered = node
        .recovered_blackbox()
        .unwrap()
        .expect("bundle must survive the restart");
    assert_eq!(recovered.len(), bundle_len);
    assert!(recovered.contains("chaos: injected power loss"));
    assert!(recovered.contains("uplink degraded"));
    assert!(recovered.contains("xg-blackbox/v2"));

    // A second bundle supersedes the first.
    node.persist_blackbox("{\"schema\":\"xg-blackbox/v2\",\"reason\":\"second\"}")
        .unwrap();
    let node = CspotNode::durable_with_storage("UNL", &dir, chaos_config());
    let latest = node.recovered_blackbox().unwrap().unwrap();
    assert!(latest.contains("second"));
}

#[test]
fn torn_write_poisons_until_reopen_then_no_data_lost() {
    let dir = tmp("torn-then-replay");
    {
        let log = open_log(&dir);
        for i in 1..=10u64 {
            log.append_with_token(token_for(i), &payload_for(i))
                .unwrap();
        }
        log.sync().unwrap();
        // The 11th write tears mid-frame.
        assert!(log.inject_torn_write());
        assert!(log
            .append_with_token(token_for(11), &payload_for(11))
            .is_err());
        // The engine refuses further appends until recovery runs.
        assert!(log
            .append_with_token(token_for(12), &payload_for(12))
            .is_err());
    }
    // Restart: the torn frame is truncated; the client replays 11 and 12.
    let log = open_log(&dir);
    assert!(log.recovery_summary().truncated_bytes > 0, "tail was torn");
    assert_eq!(log.latest_seq(), Some(10));
    assert_eq!(log.has_token(token_for(11)), None);
    for i in 11..=12u64 {
        log.append_with_token(token_for(i), &payload_for(i))
            .unwrap();
    }
    log.sync().unwrap();
    let log = open_log(&dir);
    assert_eq!(log.latest_seq(), Some(12));
    for i in 1..=12u64 {
        assert_eq!(log.get(i).unwrap(), payload_for(i));
    }
}

#[test]
fn sync_stall_blocks_durability_but_not_liveness() {
    let dir = tmp("sync-stall");
    // One big segment: sealing always fsyncs (the engine's layering
    // invariant requires it), so this test must not cross a seal.
    let log = Log::create(
        LogConfig {
            name: "telemetry".into(),
            element_size: 16,
            history: 1 << 20,
        },
        SegmentedBackend::open(
            &dir,
            SegmentConfig {
                segment_bytes: 1 << 20,
                ..chaos_config()
            },
        )
        .unwrap(),
    )
    .unwrap();
    for i in 1..=5u64 {
        log.append_with_token(token_for(i), &payload_for(i))
            .unwrap();
    }
    log.sync().unwrap();
    assert_eq!(log.committed_seq(), Some(5));
    // The disk starts hanging: appends still succeed (they buffer), but
    // nothing new becomes durable.
    assert!(log.set_sync_stall(true));
    for i in 6..=15u64 {
        log.append_with_token(token_for(i), &payload_for(i))
            .unwrap();
    }
    let _ = log.sync();
    assert_eq!(log.committed_seq(), Some(5), "watermark frozen under stall");
    assert_eq!(log.latest_seq(), Some(15), "liveness preserved");
    // The device recovers; durability resumes.
    assert!(log.set_sync_stall(false));
    log.sync().unwrap();
    assert_eq!(log.committed_seq(), Some(15));
}
