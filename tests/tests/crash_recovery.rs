//! Crash, power-loss, and partition recovery across the CSPOT + Laminar
//! stack — the paper's core delay-tolerance claims (§3.1, §3.4).

use std::sync::Arc;
use xg_cspot::error::CspotError;
use xg_cspot::log::{Log, LogConfig};
use xg_cspot::netsim::{PathModel, RoutePath, SimClock};
use xg_cspot::node::CspotNode;
use xg_cspot::protocol::{RemoteAppender, RemoteConfig};
use xg_cspot::segment::{SegmentConfig, SegmentedBackend, SyncPolicy};
use xg_laminar::graph::GraphBuilder;
use xg_laminar::ops;
use xg_laminar::runtime::LaminarRuntime;
use xg_laminar::value::{TypeTag, Value};

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xg-int-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn node_power_cycle_resumes_mid_stream() {
    let dir = tmp("powercycle");
    let mut last_seq = 0;
    // Life 1: write telemetry.
    {
        let node = CspotNode::durable("UNL", &dir);
        node.create_log("t", 8, 128).unwrap();
        for i in 0..5u64 {
            last_seq = node.put("t", &i.to_le_bytes()).unwrap();
        }
    }
    // Life 2 (after "power loss"): state is exactly where it stopped.
    {
        let node = CspotNode::durable("UNL", &dir);
        let log = node.open_log("t", 8, 128).unwrap();
        assert_eq!(log.latest_seq(), Some(last_seq));
        // Appends continue the dense sequence.
        assert_eq!(node.put("t", &99u64.to_le_bytes()).unwrap(), last_seq + 1);
    }
    // Life 3: nothing was lost across two restarts.
    let node = CspotNode::durable("UNL", &dir);
    let log = node.open_log("t", 8, 128).unwrap();
    assert_eq!(log.len(), 6);
    assert_eq!(node.get("t", 1).unwrap(), 0u64.to_le_bytes());
}

#[test]
fn laminar_program_survives_crash_between_inputs() {
    let dir = tmp("laminar-crash");
    let build = || {
        let mut g = GraphBuilder::new("resilient");
        let a = g.source("a", TypeTag::F64).unwrap();
        let b = g.source("b", TypeTag::F64).unwrap();
        let mul = g
            .op(
                "mul",
                vec![TypeTag::F64, TypeTag::F64],
                TypeTag::F64,
                ops::mul2(),
            )
            .unwrap();
        g.connect(a, mul, 0);
        g.connect(b, mul, 1);
        g.build().unwrap()
    };
    {
        let node = Arc::new(CspotNode::durable("UCSB", &dir));
        let rt = LaminarRuntime::deploy(build(), node).unwrap();
        rt.inject("a", 1, Value::F64(6.0)).unwrap();
        // Crash here: b never arrives in this life.
    }
    {
        let node = Arc::new(CspotNode::durable("UCSB", &dir));
        let rt = LaminarRuntime::deploy(build(), node).unwrap();
        rt.recover().unwrap();
        rt.inject("b", 1, Value::F64(7.0)).unwrap();
        assert_eq!(rt.read("mul", 1).unwrap(), Some(Value::F64(42.0)));
    }
    // Third life: the output persisted; recovery replays nothing.
    let node = Arc::new(CspotNode::durable("UCSB", &dir));
    let rt = LaminarRuntime::deploy(build(), node).unwrap();
    assert_eq!(rt.recover().unwrap(), 0);
    assert_eq!(rt.read("mul", 1).unwrap(), Some(Value::F64(42.0)));
}

#[test]
fn partition_heals_and_data_parks_in_logs() {
    // §3.1: "data is parked in logs ... and fetched once the nodes become
    // active". Model: the field node keeps appending locally during a WAN
    // partition; when it heals, a relay drains the backlog to the
    // repository exactly once.
    let field = CspotNode::in_memory("UNL");
    field.create_log("buffer", 8, 1024).unwrap();
    let repo = Arc::new(CspotNode::in_memory("UCSB"));
    repo.create_log("telemetry", 8, 1024).unwrap();

    let mut relay = RemoteAppender::new(
        SimClock::new(),
        RoutePath::single(PathModel::wired(3.75, 0.2)),
        RemoteConfig {
            timeout_ms: 20.0,
            max_attempts: 3,
            ..Default::default()
        },
        5,
    );
    // Partition the WAN; the field node keeps writing locally.
    relay.route_mut().set_partitioned(true);
    for i in 0..10u64 {
        field.put("buffer", &i.to_le_bytes()).unwrap();
    }
    // Relaying fails while partitioned.
    assert!(relay
        .append(&repo, "telemetry", &0u64.to_le_bytes())
        .is_err());
    assert_eq!(repo.latest_seq("telemetry").unwrap(), None);

    // Heal; drain the parked backlog.
    relay.route_mut().set_partitioned(false);
    let log = field.log("buffer").unwrap();
    for (_, payload) in log.tail(10) {
        relay.append(&repo, "telemetry", &payload).unwrap();
    }
    assert_eq!(repo.latest_seq("telemetry").unwrap(), Some(10));
    // Order preserved.
    for i in 0..10u64 {
        assert_eq!(repo.get("telemetry", i + 1).unwrap(), i.to_le_bytes());
    }
}

fn small_segments() -> SegmentConfig {
    SegmentConfig {
        // 8-byte payloads frame to 40 bytes: 4 records per segment.
        segment_bytes: 160,
        retain_segments: None,
        sync: SyncPolicy::EveryAppend,
        index_stride: 2,
    }
}

fn seg_log(dir: &std::path::Path, cfg: SegmentConfig) -> Log {
    Log::create(
        LogConfig {
            name: "t".into(),
            element_size: 8,
            history: 1 << 20,
        },
        SegmentedBackend::open(dir, cfg).unwrap(),
    )
    .unwrap()
}

#[test]
fn recovery_spans_segment_boundaries() {
    let dir = tmp("segment-boundary");
    // Write enough to seal two segments and start a third, crossing two
    // segment boundaries; then restart and verify the whole history.
    {
        let log = seg_log(&dir, small_segments());
        for i in 1..=10u64 {
            log.append_with_token(i as u128, &i.to_le_bytes()).unwrap();
        }
    }
    let log = seg_log(&dir, small_segments());
    assert_eq!(log.recovery_summary().records, 10);
    assert_eq!(log.recovery_summary().sealed_segments, 2);
    assert_eq!(log.latest_seq(), Some(10));
    for i in 1..=10u64 {
        assert_eq!(log.get(i).unwrap(), i.to_le_bytes());
        assert_eq!(
            log.has_token(i as u128),
            Some(i),
            "dedup state spans segments"
        );
    }
    // Appends resume the dense sequence into the active segment.
    assert_eq!(log.append(&11u64.to_le_bytes()).unwrap(), 11);
}

#[test]
fn corrupt_middle_segment_fail_stops_never_truncates() {
    let dir = tmp("corrupt-middle");
    {
        let log = seg_log(&dir, small_segments());
        for i in 1..=12u64 {
            log.append(&i.to_le_bytes()).unwrap();
        }
        // 3 sealed segments + active; damage the *middle* sealed one.
        assert!(log.corrupt_sealed_segment(1).unwrap());
    }
    // Restart: recovery must refuse, not quietly shorten history to the
    // first segment (records 5..=8 were acknowledged as durable).
    let err = Log::create(
        LogConfig {
            name: "t".into(),
            element_size: 8,
            history: 1 << 20,
        },
        SegmentedBackend::open(&dir, small_segments()).unwrap(),
    )
    .err()
    .expect("recovery over a corrupt sealed segment must fail");
    match err {
        CspotError::CorruptSegment { segment, .. } => {
            assert!(
                segment.ends_with(".seg"),
                "names the damaged file: {segment}"
            );
        }
        other => panic!("expected CorruptSegment, got {other}"),
    }
}

#[test]
fn ack_loss_with_retries_is_exactly_once_end_to_end() {
    let repo = Arc::new(CspotNode::in_memory("UCSB"));
    repo.create_log("telemetry", 8, 1024).unwrap();
    let mut client = RemoteAppender::new(
        SimClock::new(),
        RoutePath::single(PathModel::wired(2.0, 0.1)),
        RemoteConfig::default(),
        9,
    );
    // Every message loses its first two acks; retries must not duplicate.
    for i in 0..5u64 {
        client.inject_ack_loss(2);
        let o = client.append(&repo, "telemetry", &i.to_le_bytes()).unwrap();
        assert_eq!(o.attempts, 3);
        assert_eq!(o.seq, i + 1);
    }
    assert_eq!(repo.log("telemetry").unwrap().len(), 5, "no duplicates");
}
