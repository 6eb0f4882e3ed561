//! Ablation studies for the design choices called out in DESIGN.md §4.
//!
//! These measure *simulated outcomes* (latency, fairness, wasted HPC
//! runs), complementing the host-time measurements in `benchmark/`:
//!
//! 2. Pilot strategies — on-demand vs proactive vs reactive: response
//!    latency against idle node-hours.
//! 3. TDD slot pattern — uplink throughput under uplink-heavy vs
//!    downlink-heavy patterns.
//! 4. Scheduler discipline — round-robin vs proportional-fair per-user
//!    split under asymmetric channels (Fig. 5's "uneven user allocation").
//! 6. Change-detector vote threshold — false triggers (wasted HPC runs)
//!    vs missed fronts across 1-of-3 / 2-of-3 / 3-of-3 voting.
//!
//! Run: `cargo run -p xg-bench --release --bin ablations`

use xg_bench::{effective_seed, obs_from_env, print_run_header, write_results};
use xg_hpc::cluster::ClusterSim;
use xg_hpc::pilot::{PilotController, PilotControllerConfig, PilotStrategy};
use xg_hpc::site::SiteProfile;
use xg_laminar::change::ChangeDetector;
use xg_net::device::UnitVariation;
use xg_net::mac::SchedulerKind;
use xg_net::prelude::*;
use xg_net::rat::TddPattern;
use xg_net::traffic::TrafficModel;
use xg_sensors::facility::CupsFacility;
use xg_sensors::network::SensorNetwork;

fn main() {
    // Each study derives its own stream from the base seed with a fixed
    // offset, chosen so the historical per-study seeds are reproduced when
    // XG_SEED is unset.
    let seed = effective_seed(7);
    print_run_header(seed, &obs_from_env());
    println!();
    let mut csv = String::from("study,variant,metric,value\n");

    pilot_strategies(&mut csv, seed);
    interactive_vs_batch(&mut csv, seed.wrapping_add(6));
    tdd_patterns(&mut csv, seed.wrapping_add(4));
    scheduler_fairness(&mut csv, seed.wrapping_add(6));
    vote_thresholds(&mut csv, seed.wrapping_add(70));
    dynamic_vs_static_slicing(&mut csv, seed.wrapping_add(48));

    let path = write_results("ablations.csv", &csv);
    println!("\nwrote {}", path.display());
}

/// Ablation 2: pilot strategies on a busy 32-node cluster.
fn pilot_strategies(csv: &mut String, seed: u64) {
    println!("Ablation: pilot provisioning strategies (busy 32-node cluster)\n");
    println!(
        "{:<22} {:>14} {:>16}",
        "strategy", "task wait (s)", "idle node-hours"
    );
    for (name, strategy) in [
        ("on-demand (paper)", PilotStrategy::OnDemand),
        (
            "proactive warm=4",
            PilotStrategy::Proactive { warm_nodes: 4 },
        ),
        ("adaptive warm=4", PilotStrategy::Adaptive { warm_nodes: 4 }),
        ("reactive", PilotStrategy::Reactive),
    ] {
        let cluster = ClusterSim::new(32).with_background_load(900.0, 5400.0, 8, seed);
        let mut cfg = PilotControllerConfig::paper_default(32);
        cfg.strategy = strategy;
        let mut ctl = PilotController::new(cluster, cfg);
        // Warm-up, then a trigger every hour for six hours.
        ctl.advance_to(1800.0);
        for hour in 1..=6 {
            let t = hour as f64 * 3600.0;
            ctl.advance_to(t);
            ctl.on_data(2048.0);
            ctl.submit_task(1, 420.0);
        }
        ctl.advance_to(8.0 * 3600.0);
        let tasks = ctl.completed_tasks();
        let mean_wait = if tasks.is_empty() {
            f64::NAN
        } else {
            tasks.iter().map(|t| t.wait_s).sum::<f64>() / tasks.len() as f64
        };
        let idle_h = ctl.idle_node_seconds() / 3600.0;
        println!("{name:<22} {mean_wait:>14.1} {idle_h:>16.1}");
        csv.push_str(&format!("pilot,{name},task_wait_s,{mean_wait:.1}\n"));
        csv.push_str(&format!("pilot,{name},idle_node_hours,{idle_h:.1}\n"));
    }
    println!("  -> proactive minimizes latency at an idle-resource cost; reactive the reverse (paper §3.6).\n");
}

/// Ablation: interactive vs batch pilots (§3.6: "interactive pilots
/// ensure rapid responsiveness ... batch pilots optimize throughput and
/// resource utilization ... at the cost of latency from scheduling").
/// The interactive path is a small dedicated partition with no competing
/// load; the batch path is the busy main queue.
fn interactive_vs_batch(csv: &mut String, seed: u64) {
    println!("Ablation: interactive vs batch pilots (busy main queue)\n");
    println!("{:<24} {:>16}", "pilot kind", "task wait (s)");
    // Batch: the busy 32-node main machine, pilot through the queue.
    let batch_site = SiteProfile {
        name: "batch-queue".into(),
        // A heavily subscribed main queue (the 0-24 h regime of §4.4).
        bg_interarrival_s: 300.0,
        bg_runtime_s: 4.0 * 3600.0,
        ..SiteProfile::notre_dame_crc()
    };
    // Interactive: a 2-node dedicated partition (idle by construction).
    let interactive_site = SiteProfile {
        name: "interactive-partition".into(),
        nodes: 2,
        bg_interarrival_s: f64::INFINITY,
        ..SiteProfile::notre_dame_crc()
    };
    for (name, site, busy) in [
        ("batch (main queue)", batch_site, true),
        ("interactive (partition)", interactive_site, false),
    ] {
        // Saturate before the pilot is submitted so the batch pilot truly
        // queues: pre-load, then create the controller.
        let mut cluster = if busy {
            site.build_cluster(seed)
        } else {
            site.build_idle_cluster()
        };
        cluster.advance_to(6.0 * 3600.0);
        let mut cfg = PilotControllerConfig::paper_default(site.nodes);
        cfg.strategy = PilotStrategy::Reactive;
        let mut ctl = PilotController::new(cluster, cfg);
        ctl.on_data(1024.0); // submit the pilot now
        ctl.submit_task(1, 420.0);
        ctl.advance_to(30.0 * 3600.0);
        let wait = ctl
            .completed_tasks()
            .first()
            .map(|t| t.wait_s)
            .unwrap_or(f64::INFINITY);
        println!("{name:<24} {wait:>16.0}");
        csv.push_str(&format!("pilot_kind,{name},task_wait_s,{wait:.1}\n"));
    }
    println!("  -> the dedicated interactive partition absorbs real-time tasks at");
    println!("     once; the batch queue imposes scheduling latency (paper §3.6).\n");
}

/// Ablation 3: TDD slot pattern sensitivity at 40 MHz.
fn tdd_patterns(csv: &mut String, seed: u64) {
    println!("Ablation: TDD slot pattern (RPi, 40 MHz)\n");
    println!(
        "{:<18} {:>10} {:>14}",
        "pattern", "UL frac", "uplink (Mbps)"
    );
    for (name, pattern) in [
        ("DDSUU (deployed)", TddPattern::uplink_heavy()),
        ("DDDSU (eMBB)", TddPattern::downlink_heavy()),
        ("DSUUU", TddPattern::parse("DSUUU").unwrap()),
    ] {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Tdd(pattern.clone()), MHz(40.0));
        let mut sim = LinkSimulator::try_new(cell, seed).expect("ablation configs are valid");
        let ue = sim
            .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
            .expect("attach");
        let mbps = sim.iperf_uplink(ue, 20).mean_mbps();
        println!(
            "{:<18} {:>10.3} {:>14.2}",
            name,
            pattern.uplink_fraction(),
            mbps
        );
        csv.push_str(&format!("tdd_pattern,{name},uplink_mbps,{mbps:.2}\n"));
    }
    println!("  -> uplink throughput tracks the pattern's UL symbol fraction.\n");
}

/// Ablation 4: scheduler discipline under asymmetric UEs.
fn scheduler_fairness(csv: &mut String, seed: u64) {
    println!("Ablation: MAC scheduler discipline (2 UEs, one 4.5 dB weaker)\n");
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>10}",
        "discipline", "UE1 (Mbps)", "UE2 (Mbps)", "aggregate", "ratio"
    );
    for (name, kind) in [
        ("round-robin", SchedulerKind::RoundRobin),
        ("proportional-fair", SchedulerKind::ProportionalFair),
    ] {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)).with_scheduler(kind);
        let mut sim = LinkSimulator::try_new(cell, seed).expect("ablation configs are valid");
        sim.attach_with(
            DeviceClass::RaspberryPi,
            Modem::Rm530nGl,
            Snssai::embb(0),
            UnitVariation::rpi_unit_a(), // weaker unit
        )
        .expect("attach");
        sim.attach_with(
            DeviceClass::RaspberryPi,
            Modem::Rm530nGl,
            Snssai::embb(0),
            UnitVariation::default(),
        )
        .expect("attach");
        let runs = sim.iperf_uplink_all(30);
        let (m1, m2) = (runs[0].mean_mbps(), runs[1].mean_mbps());
        println!(
            "{:<20} {:>12.2} {:>12.2} {:>12.2} {:>10.2}",
            name,
            m1,
            m2,
            m1 + m2,
            m2 / m1.max(1e-9)
        );
        csv.push_str(&format!("scheduler,{name},ue1_mbps,{m1:.2}\n"));
        csv.push_str(&format!("scheduler,{name},ue2_mbps,{m2:.2}\n"));
    }
    println!("  -> full-buffer PF and RR converge to similar splits; the Fig. 5 'uneven\n     user allocation' stems from the channel asymmetry itself.\n");
}

/// Ablation: dynamic (demand-tracking) vs static slicing under a bursty
/// co-tenant — the §5 future-work controller's payoff.
fn dynamic_vs_static_slicing(csv: &mut String, seed: u64) {
    println!("Ablation: dynamic vs static slicing (bursty video + burst uploads)\n");
    println!(
        "{:<18} {:>16} {:>16}",
        "policy", "burst tput (Mbps)", "video tput (Mbps)"
    );
    for (name, dynamic) in [("static 20/80", false), ("dynamic", true)] {
        let cell = CellConfig::new(Rat::Nr5g, Duplex::tdd_default(), MHz(40.0)).with_slices(
            SliceConfig::new(vec![
                xg_net::slice::SliceProfile {
                    snssai: Snssai::miot(1),
                    prb_share: 0.2,
                },
                xg_net::slice::SliceProfile {
                    snssai: Snssai::embb(1),
                    prb_share: 0.8,
                },
            ])
            .unwrap(),
        );
        let mut sim = LinkSimulator::try_new(cell, seed).expect("ablation configs are valid");
        let uploader = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::miot(1),
                UnitVariation::default(),
            )
            .unwrap();
        let video = sim
            .attach_with(
                DeviceClass::RaspberryPi,
                Modem::Rm530nGl,
                Snssai::embb(1),
                UnitVariation::default(),
            )
            .unwrap();
        // Video idles at 2 Mbps while the robot uploads a camera sweep
        // (full buffer) through the IoT slice.
        sim.set_traffic(video, TrafficModel::Cbr { rate_mbps: 2.0 })
            .unwrap();
        let mut slicer = DynamicSlicer::try_new(vec![Snssai::miot(1), Snssai::embb(1)], 0.1, 0.5)
            .expect("two slices with a 0.1 floor are feasible");
        let mut upload_total = 0.0;
        let mut video_total = 0.0;
        let seconds = 20;
        for _ in 0..seconds {
            let results = sim.measure_second();
            for (h, m) in results {
                if h == uploader {
                    upload_total += m;
                } else if h == video {
                    video_total += m;
                }
            }
            if dynamic {
                slicer.observe(0, 30.0); // upload demand high
                slicer.observe(1, 2.0); // video demand low
                sim.set_slices(slicer.recompute().unwrap()).unwrap();
            }
        }
        println!(
            "{:<18} {:>16.2} {:>16.2}",
            name,
            upload_total / seconds as f64,
            video_total / seconds as f64
        );
        csv.push_str(&format!(
            "dynslice,{name},upload_mbps,{:.2}\n",
            upload_total / seconds as f64
        ));
        csv.push_str(&format!(
            "dynslice,{name},video_mbps,{:.2}\n",
            video_total / seconds as f64
        ));
    }
    println!("  -> dynamic slicing reclaims idle video PRBs for the upload without");
    println!("     starving the video stream (its CBR demand stays satisfied).\n");
}

/// Ablation 6: vote threshold vs wasted HPC runs and missed fronts.
fn vote_thresholds(csv: &mut String, seed: u64) {
    println!("Ablation: change-detector vote threshold (30 days of telemetry)\n");
    println!(
        "{:<10} {:>14} {:>14} {:>14}",
        "votes", "false trig.", "fronts hit", "fronts missed"
    );
    for votes_needed in 1..=3u8 {
        let detector = ChangeDetector {
            votes_needed,
            ..Default::default()
        };
        // One 30-day run: fronts forced on a fixed schedule (every 16
        // detection cycles). A trigger within 3 checks of a front start
        // (onset or decay of the front both shift conditions) counts as a
        // hit; any other trigger is a false positive.
        let mut net = SensorNetwork::cups_default(CupsFacility::default(), seed);
        let mut history: Vec<f64> = Vec::new();
        let mut false_triggers = 0u32;
        let mut fronts_hit = 0u32;
        let mut fronts_total = 0u32;
        let mut since_front = i32::MAX;
        let mut current_front_hit = false;
        let checks = 30 * 48; // 30 days of 30-minute checks
        for check in 0..checks {
            if check % 16 == 8 {
                net.force_front();
                if fronts_total > 0 && current_front_hit {
                    fronts_hit += 1;
                }
                fronts_total += 1;
                current_front_hit = false;
                since_front = 0;
            }
            // 6 reports per check.
            for _ in 0..6 {
                let _ =
                    net.advance_to(net.now().saturating_add(SimNs::from_secs_f64(
                        xg_sensors::network::REPORT_INTERVAL_S,
                    )));
                let reports = net.take_reports();
                let mean =
                    reports.iter().map(|r| r.wind_speed_ms).sum::<f64>() / reports.len() as f64;
                history.push(mean);
            }
            if let Some(vote) = detector.evaluate(&history) {
                if vote.changed {
                    if since_front <= 3 {
                        current_front_hit = true;
                    } else {
                        false_triggers += 1;
                    }
                }
            }
            since_front = since_front.saturating_add(1);
        }
        if fronts_total > 0 && current_front_hit {
            fronts_hit += 1;
        }
        let misses = fronts_total - fronts_hit;
        println!("{votes_needed:<10} {false_triggers:>14} {fronts_hit:>14} {misses:>14}");
        csv.push_str(&format!(
            "vote_threshold,{votes_needed},false_triggers,{false_triggers}\n"
        ));
        csv.push_str(&format!("vote_threshold,{votes_needed},misses,{misses}\n"));
    }
    println!(
        "  -> stricter voting wastes fewer HPC runs; 2-of-3 balances both (paper's arbitration).\n"
    );
}
