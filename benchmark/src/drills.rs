//! Layer drills: slice-floor timings of each layer's public entry points
//! in isolation, with counts taken at the same boundary. They are the
//! per-layer half of the traced run and are workload-independent, so a
//! layer metric that moves here names the crate that changed, and a drill
//! that stays flat while an end-to-end number moves says the change is in
//! how the fabric uses the layer.

use crate::harness::{floor_table, Metric, Span};
use crate::workloads::{mixed_fleet, paper_ric, sliced_cell, solve_simulation, CYCLES_PER_DAY};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xg_cspot::netsim::{SimClock, Topology};
use xg_cspot::node::CspotNode;
use xg_cspot::protocol::{RemoteAppender, RemoteConfig};
use xg_cspot::segment::{SegmentConfig, SyncPolicy};
use xg_fabric::pipeline::FieldGateway;
use xg_fabric::ran::{RanProbe, RanTopology};
use xg_hpc::prelude::*;
use xg_laminar::change::{build_change_graph, ChangeDetector};
use xg_laminar::runtime::LaminarRuntime;
use xg_laminar::value::Value;
use xg_net::prelude::*;
use xg_obs::Obs;
use xg_sensors::prelude::*;
use xg_sim::EventQueue;

/// Fresh states per drill whose slices take microseconds, and per drill
/// whose slices take milliseconds: enough for the floors to settle, few
/// enough that all drills together take about three seconds.
const PASSES: usize = 20;
const FEW_PASSES: usize = 5;
const REPORT_S: f64 = 300.0;

pub struct Drills<'a> {
    pub seed: u64,
    /// `min(nproc, 4)`: the width of the parallel side of the speed-ups.
    pub width: usize,
    /// Scratch directory for the durable-log drill (inside the checkout).
    pub out: &'a Path,
    pub epoch: Instant,
    pub spans: &'a mut Vec<Span>,
    pub metrics: Vec<Metric>,
}

impl Drills<'_> {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Run one layer's drills inside a harness span.
    fn layer(&mut self, name: &'static str, drill: fn(&mut Self)) {
        let start = self.epoch.elapsed().as_nanos() as u64;
        drill(self);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
            parent: None,
        });
    }

    pub fn run_all(&mut self) {
        self.layer("drill.xg-sim", Self::sim);
        self.layer("drill.xg-sensors", Self::sensors);
        self.layer("drill.xg-net", Self::net);
        self.layer("drill.xg-ric", Self::ric);
        self.layer("drill.xg-cspot", Self::cspot);
        self.layer("drill.xg-cspot.durable", Self::cspot_durable);
        self.layer("drill.xg-laminar", Self::laminar);
        self.layer("drill.xg-hpc", Self::hpc);
        self.layer("drill.xg-cfd", Self::cfd);
        self.layer("drill.xg-faults", Self::faults);
        self.layer("drill.xg-obs", Self::obs);
    }

    /// One scheduled event through the calendar queue (pop + recurring
    /// re-push): three sources churn the wheel, the fourth (a 300 s
    /// report timer) lives in the overflow map.
    fn sim(&mut self) {
        const PERIODS: [u64; 4] = [1_000_000, 3_000_000, 7_000_000, 300_000_000_000];
        const BATCH: usize = 1024;
        const SLICES: usize = 32;
        let table = floor_table(
            PASSES,
            SLICES,
            || {
                let mut q = EventQueue::with_layout(1_000_000, 1024);
                for (i, p) in PERIODS.iter().enumerate() {
                    q.push(SimNs(*p), i as u32, i);
                }
                q
            },
            |q, _| {
                for _ in 0..BATCH {
                    let ev = q.pop_due(SimNs(u64::MAX)).expect("sources recur forever");
                    q.push(
                        SimNs(ev.at.0 + PERIODS[ev.source as usize]),
                        ev.source,
                        ev.payload,
                    );
                }
            },
        );
        let events = (SLICES * BATCH) as f64;
        self.put(
            "xg-sim.event_ns",
            table.floor_sum(0..SLICES) as f64 / events,
            "ns",
        );
    }

    /// One report round of the nine-station network per slice, a day's
    /// worth per pass.
    fn sensors(&mut self) {
        let seed = self.seed;
        let mut records = 0usize;
        let table = floor_table(
            PASSES,
            CYCLES_PER_DAY,
            || SensorNetwork::cups_default(CupsFacility::default(), seed),
            |net, i| {
                let _ = net.advance_to(SimNs::from_secs_f64((i + 1) as f64 * REPORT_S));
                records += net.take_reports().len();
            },
        );
        let reports = CYCLES_PER_DAY as f64;
        self.put(
            "xg-sensors.report_us",
            table.floor_sum(0..CYCLES_PER_DAY) as f64 / 1e3 / reports,
            "us",
        );
        self.put(
            "xg-sensors.records_per_report",
            records as f64 / (PASSES as f64 * reports),
            "count",
        );
    }

    fn net(&mut self) {
        let (seed, width) = (self.seed, self.width);

        // One 32-UE mixed cell, one simulated second per slice.
        const SECONDS: usize = 5;
        let mut active = 0;
        let table = floor_table(
            PASSES,
            SECONDS,
            || mixed_fleet(seed, 1, 1),
            |fleet, i| {
                std::hint::black_box(fleet.measure_seconds(1));
                if i + 1 == SECONDS {
                    active = fleet.cell(CellId(0)).expect("one cell").active_slots();
                }
            },
        );
        self.put(
            "xg-net.cell_second_us",
            table.floor_sum(0..SECONDS) as f64 / 1e3 / SECONDS as f64,
            "us",
        );
        self.put(
            "xg-net.active_slots_per_s",
            active as f64 / SECONDS as f64,
            "count",
        );

        // A quiet weather-station cell (48 B per 300 s): an idle hour per
        // slice costs O(events), not O(TTIs).
        const HOURS: usize = 3;
        let (mut busy, mut elapsed) = (0, 1);
        let table = floor_table(
            PASSES,
            HOURS,
            || {
                let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0));
                let mut sim = LinkSimulator::try_new(cell, seed).expect("paper cell config");
                let modem = Modem::paper_default(DeviceClass::RaspberryPi, Rat::Nr5g);
                let ue = sim.attach(DeviceClass::RaspberryPi, modem).expect("attach");
                sim.set_traffic(ue, TrafficModel::weather_station())
                    .expect("known ue");
                sim
            },
            |sim, i| {
                let _ = sim.advance_to(SimNs::from_secs(3_600 * (i as u64 + 1)));
                (busy, elapsed) = (sim.active_slots(), sim.slots_elapsed());
            },
        );
        self.put(
            "xg-net.idle_hour_us",
            table.floor_sum(0..HOURS) as f64 / 1e3 / HOURS as f64,
            "us",
        );
        self.put(
            "xg-net.idle_skip_ratio",
            1.0 - busy as f64 / elapsed as f64,
            "ratio",
        );

        // The 8-cell fleet of `ran_fleet`: three seconds, then one E2
        // indication drain, serial and at `width` workers.
        let fleet_floor = |workers: usize| {
            floor_table(
                FEW_PASSES,
                4,
                || mixed_fleet(seed, 8, workers),
                |fleet, i| {
                    if i < 3 {
                        std::hint::black_box(fleet.measure_seconds(1));
                    } else {
                        std::hint::black_box(fleet.collect_indications());
                    }
                },
            )
        };
        let serial = fleet_floor(1);
        let parallel = fleet_floor(width);
        self.put(
            "xg-net.indications_us",
            serial.floor_sum(3..4) as f64 / 1e3,
            "us",
        );
        self.put(
            "xg-net.par_speedup",
            serial.floor_sum(0..3) as f64 / parallel.floor_sum(0..3) as f64,
            "ratio",
        );
    }

    /// One RIC control period over the real indications of four sliced
    /// cells, pest burst included (collected open-loop while building, so
    /// the timed slice is the engine alone).
    fn ric(&mut self) {
        const PERIODS: usize = 32;
        let seed = self.seed;
        let mut actions = 0usize;
        let table = floor_table(
            FEW_PASSES,
            PERIODS,
            || {
                let topology = RanTopology {
                    cells: ["UNL-5G", "FIELD-B", "FIELD-C", "FIELD-D"]
                        .iter()
                        .map(|name| sliced_cell(name, 8.0))
                        .collect(),
                    ..RanTopology::default()
                };
                let mut probe =
                    RanProbe::try_new(&topology, seed, &Obs::disabled()).expect("valid topology");
                let indications: Vec<_> = (0..PERIODS)
                    .map(|_| {
                        probe.probe();
                        probe.collect_indications()
                    })
                    .collect();
                (paper_ric(seed, 1.0), indications)
            },
            |(ric, indications), i| {
                let outcome = ric.step(std::mem::take(&mut indications[i]), (i + 1) as f64);
                actions += outcome.actions.len();
            },
        );
        self.put(
            "xg-ric.step_us",
            table.floor_sum(0..PERIODS) as f64 / 1e3 / PERIODS as f64,
            "us",
        );
        self.put(
            "xg-ric.actions_per_step",
            actions as f64 / (FEW_PASSES * PERIODS) as f64,
            "count",
        );
    }

    /// The in-memory CSPOT paths the fabric runs on.
    fn cspot(&mut self) {
        let seed = self.seed;
        const BATCH: usize = 1024;
        const SLICES: usize = 16;
        let payload = [7u8; 64];
        let table = floor_table(
            PASSES,
            SLICES,
            || {
                CspotNode::in_memory("UCSB")
                    .create_log("bench", 64, 4096)
                    .expect("fresh log")
            },
            |log, _| {
                for _ in 0..BATCH {
                    log.append(&payload).expect("in-memory append");
                }
            },
        );
        self.put(
            "xg-cspot.append_ns",
            table.floor_sum(0..SLICES) as f64 / (SLICES * BATCH) as f64,
            "ns",
        );

        // The paper's two-phase remote append, UNL-5G → UCSB (virtual
        // network time is free; this is protocol + storage CPU).
        const REMOTE_BATCH: usize = 32;
        let table = floor_table(
            PASSES,
            SLICES,
            || {
                let server = CspotNode::in_memory("UCSB");
                server.create_log("bench", 64, 4096).expect("fresh log");
                let route = Topology::paper()
                    .route("UNL-5G", "UCSB")
                    .expect("paper route")
                    .clone();
                let appender =
                    RemoteAppender::new(SimClock::new(), route, RemoteConfig::default(), seed);
                (server, appender)
            },
            |(server, appender), _| {
                for _ in 0..REMOTE_BATCH {
                    appender
                        .append(server, "bench", &payload)
                        .expect("append over healthy route");
                }
            },
        );
        self.put(
            "xg-cspot.remote_append_us",
            table.floor_sum(0..SLICES) as f64 / 1e3 / (SLICES * REMOTE_BATCH) as f64,
            "us",
        );

        // One report cycle's nine records through the store-and-forward
        // field gateway.
        const CYCLES: usize = 64;
        let table = floor_table(
            PASSES,
            CYCLES,
            || {
                let mut net = SensorNetwork::cups_default(CupsFacility::default(), seed);
                let rounds: Vec<Vec<TelemetryRecord>> = (0..CYCLES)
                    .map(|i| {
                        let _ = net.advance_to(SimNs::from_secs_f64((i + 1) as f64 * REPORT_S));
                        net.take_reports()
                    })
                    .collect();
                let gateway = FieldGateway::new(
                    Arc::new(CspotNode::in_memory("UCSB")),
                    Arc::new(CspotNode::in_memory("UNL")),
                    SimClock::new(),
                    seed,
                    4096,
                )
                .expect("paper topology");
                (gateway, rounds)
            },
            |(gateway, rounds), i| {
                gateway.ship_cycle(&rounds[i]).expect("healthy link");
            },
        );
        self.put(
            "xg-cspot.gateway_ship_us",
            table.floor_sum(0..CYCLES) as f64 / 1e3 / CYCLES as f64,
            "us",
        );
    }

    /// The durable segmented log. Nothing in the fabric workloads uses it
    /// (their nodes are in-memory); it is recorded so a storage change has
    /// a baseline before a log workload exists.
    fn cspot_durable(&mut self) {
        const RECORDS: usize = 100_000;
        const BATCH: usize = 1000;
        const SLICES: usize = RECORDS / BATCH;
        const APPEND_PASSES: usize = 3;
        let storage = SegmentConfig {
            segment_bytes: 4 * 1024 * 1024,
            retain_segments: None,
            sync: SyncPolicy::GroupCommit { every: 1024 },
            index_stride: 256,
        };
        let payload = [7u8; 64];
        let dir = self.out.join(format!("cspot-drill-{}", std::process::id()));
        let open = |fresh: bool| {
            if fresh {
                let _ = std::fs::remove_dir_all(&dir);
            }
            CspotNode::durable_with_storage("UCSB", &dir, storage.clone())
                .open_log("bench", 64, 4096)
                .expect("durable log opens")
        };

        // Appends, counting fsyncs from outside as advances of the
        // committed watermark.
        let mut fsyncs = 0u64;
        let table = floor_table(
            APPEND_PASSES,
            SLICES,
            || open(true),
            |log, _| {
                let before = log.committed_seq();
                for _ in 0..BATCH {
                    log.append(&payload).expect("durable append");
                }
                // Group commit 1024 over batches of 1000: at most one
                // watermark advance per slice.
                fsyncs += u64::from(log.committed_seq() != before);
            },
        );
        self.put(
            "xg-cspot.durable_append_ns",
            table.floor_sum(0..SLICES) as f64 / RECORDS as f64,
            "ns",
        );
        self.put(
            "xg-cspot.fsyncs",
            fsyncs as f64 / APPEND_PASSES as f64,
            "count",
        );

        // Point reads across the whole log, then full crash recovery of
        // the store the last append pass left behind.
        let log = open(false);
        log.sync().expect("sync");
        let latest = log.latest_seq().expect("populated");
        let first = log.earliest_seq().expect("populated");
        let span = latest - first + 1;
        let table = floor_table(
            PASSES,
            SLICES,
            || (),
            |_, i| {
                for j in 0..BATCH as u64 {
                    // A fixed stride walk that visits every region.
                    let seq = first + (i as u64 * 7_919 + j * 104_729) % span;
                    std::hint::black_box(log.get(seq).expect("retained record"));
                }
            },
        );
        self.put(
            "xg-cspot.read_ns",
            table.floor_sum(0..SLICES) as f64 / RECORDS as f64,
            "ns",
        );
        drop(log);
        let table = floor_table(
            3,
            1,
            || (),
            |_, _| {
                assert_eq!(open(false).latest_seq(), Some(latest), "recovered records");
            },
        );
        self.put(
            "xg-cspot.recover_ms",
            table.floor_sum(0..1) as f64 / 1e6,
            "ms",
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The §3.7 change-detection program as the fabric runs it: inject two
    /// windows, read the verdict. One epoch per slice, a day's 48 per pass.
    fn laminar(&mut self) {
        const EPOCHS: usize = 48;
        let detector = ChangeDetector::default();
        let window = |epoch: usize, shift: f64| -> Value {
            Value::F64Vec(
                (0..detector.window)
                    .map(|k| 3.0 + shift + 0.1 * ((epoch * 31 + k * 17) % 10) as f64)
                    .collect(),
            )
        };
        let mut firings = 0usize;
        let table = floor_table(
            PASSES,
            EPOCHS,
            || {
                let node = Arc::new(CspotNode::in_memory("UCSB"));
                let graph = build_change_graph("cups_change", detector).expect("valid graph");
                (
                    LaminarRuntime::deploy(graph, Arc::clone(&node)).expect("deploys"),
                    node,
                )
            },
            |(runtime, node), i| {
                let epoch = i as u64 + 1;
                // Every sixth epoch carries a front: a real change.
                let shift = if i % 6 == 5 { 4.0 } else { 0.0 };
                runtime
                    .inject("prev_window", epoch, window(i, 0.0))
                    .expect("inject");
                runtime
                    .inject("recent_window", epoch, window(i + 1, shift))
                    .expect("inject");
                std::hint::black_box(runtime.read("detect", epoch).expect("read"));
                if i + 1 == EPOCHS {
                    // Firings, counted at the boundary: records in the
                    // operator node's output log.
                    let graph = runtime.graph();
                    let detect = graph.log_name(graph.node_id("detect").expect("node"));
                    firings += node.log(&detect).expect("log").len();
                }
            },
        );
        self.put(
            "xg-laminar.detect_us",
            table.floor_sum(0..EPOCHS) as f64 / 1e3 / EPOCHS as f64,
            "us",
        );
        self.put(
            "xg-laminar.firings_per_detect",
            firings as f64 / (PASSES * EPOCHS) as f64,
            "count",
        );
    }

    /// The pilot controller over a busy Notre Dame cluster (background
    /// load + backfill), advanced one report interval per slice with a
    /// CFD-sized task every eight hours, as the fabric drives it.
    fn hpc(&mut self) {
        let seed = self.seed;
        let mut jobs = 0usize;
        let table = floor_table(
            PASSES,
            CYCLES_PER_DAY,
            || {
                let site = SiteProfile::notre_dame_crc();
                let config = PilotControllerConfig::paper_default(site.nodes);
                PilotController::new(site.build_cluster(seed), config)
            },
            |pilot, i| {
                if i.is_multiple_of(96) {
                    pilot.on_data(9.0 * 48.0 * 6.0);
                    pilot.submit_task(1, 420.0);
                }
                pilot.advance_to((i + 1) as f64 * REPORT_S);
                if i + 1 == CYCLES_PER_DAY {
                    jobs += pilot.cluster().records().len();
                }
            },
        );
        let advances = CYCLES_PER_DAY as f64;
        self.put(
            "xg-hpc.advance_us",
            table.floor_sum(0..CYCLES_PER_DAY) as f64 / 1e3 / advances,
            "us",
        );
        self.put(
            "xg-hpc.jobs_per_advance",
            jobs as f64 / (PASSES as f64 * advances),
            "count",
        );
    }

    fn cfd(&mut self) {
        let (seed, width) = (self.seed, self.width);
        // The fabric's in-loop mesh.
        const SMALL_STEPS: usize = 10;
        let table = floor_table(
            PASSES,
            SMALL_STEPS,
            || solve_simulation([12, 10, 4], seed),
            |sim, _| sim.step(),
        );
        self.put(
            "xg-cfd.step_us_small",
            table.floor_sum(0..SMALL_STEPS) as f64 / 1e3 / SMALL_STEPS as f64,
            "us",
        );

        // The `cfd_solve` mesh, on one thread and on `width`.
        const STEPS: usize = 3;
        let cells = [48, 40, 10];
        let large = |threads: usize| {
            xg_cfd::run_with_threads(threads, || {
                floor_table(
                    FEW_PASSES,
                    STEPS,
                    || solve_simulation(cells, seed),
                    |sim, _| sim.step(),
                )
                .floor_sum(0..STEPS) as f64
            })
        };
        let serial = large(1);
        let cell_steps = (STEPS * cells.iter().product::<usize>()) as f64;
        self.put("xg-cfd.ns_per_cell_step", serial / cell_steps, "ns");
        self.put("xg-cfd.par_speedup", serial / large(width), "ratio");
    }

    /// The storm's fault schedule advanced at report-cycle resolution.
    fn faults(&mut self) {
        const DAYS: usize = 3;
        let seed = self.seed;
        let mut changes = 0usize;
        let table = floor_table(
            PASSES,
            DAYS * CYCLES_PER_DAY,
            || crate::workloads::storm_faults(seed),
            |plan, i| changes += plan.advance_to((i + 1) as f64 * REPORT_S).len(),
        );
        let advances = (DAYS * CYCLES_PER_DAY) as f64;
        self.put(
            "xg-faults.advance_us",
            table.floor_sum(0..DAYS * CYCLES_PER_DAY) as f64 / 1e3 / advances,
            "us",
        );
        self.put(
            "xg-faults.changes_per_day",
            changes as f64 / (PASSES * DAYS) as f64,
            "count",
        );
    }

    /// What an instrumented call site pays, and what reading the
    /// instruments out costs.
    fn obs(&mut self) {
        const SLICES: usize = 32;
        const BATCH: usize = 128;
        let table = floor_table(
            PASSES,
            SLICES,
            || {
                let obs = Obs::enabled();
                let hist = obs.registry().expect("enabled").histogram("bench.hist");
                (obs, hist)
            },
            |(_, hist), i| {
                for j in 0..BATCH {
                    hist.record(1.0 + (i * BATCH + j) as f64);
                }
            },
        );
        self.put(
            "xg-obs.hist_record_ns",
            table.floor_sum(0..SLICES) as f64 / (SLICES * BATCH) as f64,
            "ns",
        );

        // One completed span through the tracer and the flight-recorder
        // sink.
        let table = floor_table(PASSES, SLICES, Obs::enabled, |obs, i| {
            let tracer = obs.tracer().expect("enabled");
            for j in 0..BATCH {
                let t = (i * BATCH + j) as f64;
                tracer.record_sim_s(1, None, "bench.span", t, t + 0.5, vec![]);
            }
        });
        self.put(
            "xg-obs.span_record_ns",
            table.floor_sum(0..SLICES) as f64 / (SLICES * BATCH) as f64,
            "ns",
        );

        // A registry the size of a storm run's (≈ 100 instruments), read
        // out whole; and a day of cycle span trees rendered to JSONL.
        let populated = || {
            let obs = Obs::enabled();
            let reg = obs.registry().expect("enabled");
            for i in 0..48 {
                reg.counter(&format!("bench.counter.{i}")).add(i);
                reg.gauge(&format!("bench.gauge.{i}")).set(i as f64);
            }
            for i in 0..16 {
                let hist = reg.histogram(&format!("bench.hist.{i}"));
                for j in 0..1_000 {
                    hist.record(1.0 + (i * j) as f64);
                }
            }
            let tracer = obs.tracer().expect("enabled");
            for cycle in 0..CYCLES_PER_DAY as u64 {
                let root = tracer.record_sim_s(cycle, None, "bench.cycle", 0.0, 1.0, vec![]);
                for _ in 0..8 {
                    tracer.record_sim_s(cycle, Some(root), "bench.phase", 0.0, 0.1, vec![]);
                }
            }
            obs
        };
        const READS: usize = 8;
        let table = floor_table(FEW_PASSES, READS, populated, |obs, _| {
            std::hint::black_box(obs.registry().expect("enabled").snapshot());
        });
        self.put(
            "xg-obs.snapshot_us",
            table.floor_sum(0..READS) as f64 / 1e3 / READS as f64,
            "us",
        );
        let table = floor_table(
            FEW_PASSES,
            READS,
            || populated().tracer().expect("enabled").take_spans(),
            |spans, _| {
                std::hint::black_box(xg_obs::spans_to_jsonl(spans));
            },
        );
        self.put(
            "xg-obs.jsonl_export_us",
            table.floor_sum(0..READS) as f64 / 1e3 / READS as f64,
            "us",
        );
    }
}
