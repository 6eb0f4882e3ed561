//! The RAN and CSPOT slice of the conformance table (ROADMAP 2(a)): one
//! row per shape claim Figs 4–6 and Table 1 make, checked as a
//! distribution over seeds rather than at one seed. The paper's own numbers
//! are spreads — 100 iperf3 samples per Fig 4–6 point, 29 messages per
//! Table 1 path — so a row carries the paper's mean and spread (NaN where
//! the paper reports none), the 8-seed mean and across-seed spread the
//! reproduction measured when the row was written, the band the regenerated
//! mean must fall in, and the generator that regenerates it. These are the
//! columns of the workspace-wide `conformance.toml` the rows are meant to
//! lift into unchanged.
//!
//! A band is set from the measurement it was written against: the distance
//! of that 8-seed mean from the paper plus twice its seed spread, rounded
//! up. EXPERIMENTS.md's known deviations (the Fig 4/5 modem-collapse points,
//! the Fig 5 aggregates) are therefore explicit numbers here. A later change
//! has to stay inside every band, and may only tighten one.

use crate::scenario::ScenarioBuilder;
use std::collections::BTreeMap;
use std::sync::Arc;
use xg_cspot::prelude::*;
use xg_net::device::UnitVariation;
use xg_net::prelude::*;
use xg_net::units::SampleStats;

/// Seeds every generator is run over.
const SEEDS: u64 = 8;
/// iperf samples (simulated seconds) per seed and configuration.
const SAMPLES: usize = 25;
/// Table 1: back-to-back messages per seed, the first discarded.
const MESSAGES: usize = 30;

/// How the regenerated 8-seed mean `m` is held against a row.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// `|m − paper mean| ≤ band`.
    Within(f64),
    /// `m ≤ bound`: a one-sided shape claim.
    AtMost(f64),
}

/// Mean and spread of one quantity.
#[derive(Debug, Clone, Copy)]
struct Spread {
    mean: f64,
    sd: f64,
}

struct Row {
    claim: &'static str,
    /// A key of [`measure`]: one value per seed.
    generator: &'static str,
    /// The paper's mean ± spread (per-sample SD; NaN where not reported).
    paper: Spread,
    /// 8-seed mean and across-seed SD measured when the row was written.
    measured: Spread,
    check: Check,
}

const fn row(
    claim: &'static str,
    generator: &'static str,
    paper: (f64, f64),
    measured: (f64, f64),
    check: Check,
) -> Row {
    Row {
        claim,
        generator,
        paper: Spread {
            mean: paper.0,
            sd: paper.1,
        },
        measured: Spread {
            mean: measured.0,
            sd: measured.1,
        },
        check,
    }
}

use Check::{AtMost, Within};

/// The paper reports no spread for this value.
const NR: f64 = f64::NAN;

#[rustfmt::skip]
const ROWS: &[Row] = &[
    // Fig 4: single-user uplink, Mbps.
    row("Fig 4: 4G FDD 20 MHz smartphone", "fig4.lte_fdd20.smartphone", (43.83, NR), (45.374, 1.894), Within(5.4)),
    row("Fig 4: 4G FDD 20 MHz laptop (SIM7600 collapse)", "fig4.lte_fdd20.laptop", (10.41, NR), (11.413, 0.301), Within(1.7)),
    row("Fig 4: 4G FDD 20 MHz RPi (SIM7600 collapse)", "fig4.lte_fdd20.rpi", (2.23, NR), (2.715, 0.121), Within(0.73)),
    row("Fig 4: 5G FDD 20 MHz smartphone", "fig4.nr_fdd20.smartphone", (58.89, NR), (59.075, 2.087), Within(4.4)),
    row("Fig 4: 5G FDD 20 MHz RPi", "fig4.nr_fdd20.rpi", (52.36, NR), (53.882, 1.752), Within(5.1)),
    row("Fig 4: 5G FDD 20 MHz laptop", "fig4.nr_fdd20.laptop", (40.83, NR), (41.486, 1.041), Within(2.8)),
    row("Fig 4: 5G TDD 50 MHz RPi", "fig4.nr_tdd50.rpi", (65.97, NR), (65.515, 1.967), Within(4.4)),
    row("Fig 4: 5G TDD 50 MHz laptop", "fig4.nr_tdd50.laptop", (58.31, NR), (53.041, 1.809), Within(8.9)),
    row("Fig 4: 5G TDD 50 MHz smartphone (TDD anomaly)", "fig4.nr_tdd50.smartphone", (14.40, NR), (14.841, 0.778), Within(2.0)),
    // Fig 5: two-user aggregate uplink, Mbps.
    row("Fig 5: 4G FDD 15 MHz smartphones, aggregate", "fig5.lte_fdd15.smartphone", (35.5, NR), (34.582, 0.556), Within(2.1)),
    row("Fig 5: 4G FDD 15 MHz laptops, aggregate", "fig5.lte_fdd15.laptop", (36.1, NR), (31.425, 0.968), Within(6.7)),
    row("Fig 5: 5G FDD 20 MHz laptops, aggregate", "fig5.nr_fdd20.laptop", (45.7, NR), (51.037, 0.727), Within(6.8)),
    row("Fig 5: 5G FDD 20 MHz RPis, aggregate", "fig5.nr_fdd20.rpi", (45.4, NR), (56.132, 0.66), Within(13.0)),
    row("Fig 5: 5G TDD 40 MHz laptops, aggregate", "fig5.nr_tdd40.laptop", (65.2, NR), (53.982, 0.885), Within(13.0)),
    row("Fig 5: 5G TDD 40 MHz RPis, aggregate", "fig5.nr_tdd40.rpi", (53.8, NR), (58.724, 0.555), Within(6.1)),
    // "evenly distributed uplink throughput": min/max of the two users.
    row("Fig 5: 5G FDD 20 MHz RPis share evenly", "fig5.nr_fdd20.rpi.balance", (1.0, NR), (0.973, 0.021), Within(0.069)),
    row("Fig 5: 5G TDD 40 MHz laptops share evenly", "fig5.nr_tdd40.laptop.balance", (1.0, NR), (0.987, 0.01), Within(0.033)),
    // Fig 6: 40 MHz TDD, complementary slices, Mbps at each device's own
    // PRB share; the paper's SDs are 3–5 Mbps throughout.
    row("Fig 6: RPi1 at 10 % of the PRBs", "fig6.rpi1.share10", (4.95, NR), (5.772, 0.114), Within(1.1)),
    row("Fig 6: RPi1 at 50 % of the PRBs", "fig6.rpi1.share50", (23.91, NR), (24.731, 0.785), Within(2.4)),
    row("Fig 6: RPi1 at 90 % of the PRBs", "fig6.rpi1.share90", (34.73, NR), (36.183, 0.869), Within(3.2)),
    row("Fig 6: RPi2 at 10 % of the PRBs", "fig6.rpi2.share10", (5.14, NR), (6.11, 0.098), Within(1.2)),
    row("Fig 6: RPi2 at 50 % of the PRBs", "fig6.rpi2.share50", (25.22, NR), (29.612, 0.567), Within(5.6)),
    row("Fig 6: RPi2 at 90 % of the PRBs", "fig6.rpi2.share90", (43.47, NR), (50.199, 1.178), Within(9.1)),
    row("Fig 6: RPi1 at 9× the PRBs, throughput ratio", "fig6.rpi1.ratio90_10", (34.73 / 4.95, NR), (6.272, 0.229), Within(1.3)),
    row("Fig 6: RPi2 at 9× the PRBs, throughput ratio", "fig6.rpi2.ratio90_10", (43.47 / 5.14, NR), (8.217, 0.198), Within(0.64)),
    row("Fig 6: RPi1 scales sub-linearly in PRBs", "fig6.rpi1.ratio90_10", (34.73 / 4.95, NR), (6.272, 0.229), AtMost(9.0)),
    row("Fig 6: RPi2 scales sub-linearly in PRBs", "fig6.rpi2.ratio90_10", (43.47 / 5.14, NR), (8.217, 0.198), AtMost(9.0)),
    row("Fig 6: per-second SD at 50 % of the PRBs, RPi2", "fig6.rpi2.share50.sd", (4.0, 1.0), (1.687, 0.298), Within(3.0)),
    // Table 1: CSPOT 1 KB message latency, ms.
    row("Table 1: UNL→UCSB (5G + Internet), mean", "table1.unl5g_ucsb.mean", (101.0, 17.0), (99.396, 2.35), Within(6.4)),
    row("Table 1: UNL→UCSB (5G + Internet), SD", "table1.unl5g_ucsb.sd", (17.0, NR), (16.296, 1.898), Within(4.5)),
    row("Table 1: UNL→UCSB (Internet), mean", "table1.unl_ucsb.mean", (17.0, 0.8), (16.983, 0.176), Within(0.37)),
    row("Table 1: UNL→UCSB (Internet), SD", "table1.unl_ucsb.sd", (0.8, NR), (0.817, 0.054), Within(0.13)),
    row("Table 1: UCSB→ND (Internet), mean", "table1.ucsb_nd.mean", (92.0, 1.0), (91.998, 0.09), Within(0.19)),
    row("Table 1: UCSB→ND (Internet), SD", "table1.ucsb_nd.sd", (1.0, NR), (0.938, 0.153), Within(0.37)),
];

/// The seed of run `s` of a configuration keyed `key`.
fn seed(s: u64, key: u64) -> u64 {
    (0xC0F0 + s) << 16 ^ key
}

fn device_key(device: DeviceClass) -> &'static str {
    match device {
        DeviceClass::Laptop => "laptop",
        DeviceClass::RaspberryPi => "rpi",
        DeviceClass::Smartphone => "smartphone",
    }
}

/// Fig 4 and Fig 5 on one configuration: `users` identical devices,
/// per-user 25-sample means per seed.
fn per_user_means(
    out: &mut BTreeMap<String, Vec<f64>>,
    fig: &str,
    (name, rat, duplex, bw): (&str, Rat, Duplex, f64),
    device: DeviceClass,
    users: usize,
) {
    let key = format!("{fig}.{name}.{}", device_key(device));
    for s in 0..SEEDS {
        let mut builder = ScenarioBuilder::new(rat, duplex.clone(), bw).seed(seed(
            s,
            (bw as u64) << 8 ^ device as u64 ^ (users as u64) << 4,
        ));
        for _ in 0..users {
            builder = builder.ue(device);
        }
        let mut sc = builder.build().expect("paper sweep configs are valid");
        let means: Vec<f64> = sc
            .sim
            .iperf_uplink_all(SAMPLES)
            .iter()
            .map(|r| r.mean_mbps())
            .collect();
        assert_eq!(means.len(), users);
        out.entry(key.clone()).or_default().push(means.iter().sum());
        if users == 2 {
            let balance = means[0].min(means[1]) / means[0].max(means[1]);
            out.entry(format!("{key}.balance"))
                .or_default()
                .push(balance);
        }
    }
}

/// Fig 6: RPi1 (the weaker unit) on `pct` % of a 40 MHz TDD grid, RPi2
/// on the rest. Files each device's mean under its own share.
fn slicing(out: &mut BTreeMap<String, Vec<f64>>, pct: u32) {
    for s in 0..SEEDS {
        let slices = SliceConfig::complementary_pair(pct as f64 / 100.0).expect("valid share");
        let mut sc = ScenarioBuilder::new(Rat::Nr5g, Duplex::tdd_default(), 40.0)
            .slices(slices)
            .seed(seed(s, pct as u64))
            .ue_on_slice(
                DeviceClass::RaspberryPi,
                Snssai::miot(1),
                UnitVariation::rpi_unit_a(),
            )
            .ue_on_slice(
                DeviceClass::RaspberryPi,
                Snssai::miot(2),
                UnitVariation::default(),
            )
            .build()
            .expect("40 MHz TDD with complementary slices is valid");
        let runs = sc.sim.iperf_uplink_all(SAMPLES);
        let (rpi1, rpi2) = (runs[0].summary(), runs[1].summary());
        let mut put = |key: String, v: f64| out.entry(key).or_default().push(v);
        put(format!("fig6.rpi1.share{pct}"), rpi1.mean_mbps);
        put(format!("fig6.rpi2.share{}", 100 - pct), rpi2.mean_mbps);
        put(format!("fig6.rpi2.share{}.sd", 100 - pct), rpi2.sd_mbps);
    }
}

/// Table 1: one 30-message series over a route of the paper topology.
fn latency_series(from: &str, to: &str, seed: u64) -> SampleStats {
    let server = Arc::new(CspotNode::in_memory(to));
    server.create_log("bench", 1024, 4096).expect("fresh log");
    let route = Topology::paper()
        .route(from, to)
        .expect("route exists")
        .clone();
    let mut appender = RemoteAppender::new(SimClock::new(), route, Default::default(), seed);
    let series = appender
        .measure_latency_series(&server, "bench", &[0u8; 1024], MESSAGES)
        .expect("healthy path");
    SampleStats::of(&series).expect("29 samples")
}

/// Every measurement a row can name, one value per seed.
fn measure() -> BTreeMap<String, Vec<f64>> {
    use DeviceClass::{Laptop, RaspberryPi, Smartphone};
    let mut out = BTreeMap::new();
    let lte_fdd = |bw: f64, name| (name, Rat::Lte4g, Duplex::Fdd, bw);
    let nr_fdd = |bw: f64, name| (name, Rat::Nr5g, Duplex::Fdd, bw);
    let nr_tdd = |bw: f64, name| (name, Rat::Nr5g, Duplex::tdd_default(), bw);
    for device in [Smartphone, Laptop, RaspberryPi] {
        per_user_means(&mut out, "fig4", lte_fdd(20.0, "lte_fdd20"), device, 1);
        per_user_means(&mut out, "fig4", nr_fdd(20.0, "nr_fdd20"), device, 1);
        per_user_means(&mut out, "fig4", nr_tdd(50.0, "nr_tdd50"), device, 1);
    }
    for device in [Smartphone, Laptop] {
        per_user_means(&mut out, "fig5", lte_fdd(15.0, "lte_fdd15"), device, 2);
    }
    for device in [Laptop, RaspberryPi] {
        per_user_means(&mut out, "fig5", nr_fdd(20.0, "nr_fdd20"), device, 2);
        per_user_means(&mut out, "fig5", nr_tdd(40.0, "nr_tdd40"), device, 2);
    }
    for pct in [10, 50, 90] {
        slicing(&mut out, pct);
    }
    for unit in ["rpi1", "rpi2"] {
        let ratios = out[&format!("fig6.{unit}.share90")]
            .iter()
            .zip(&out[&format!("fig6.{unit}.share10")])
            .map(|(hi, lo)| hi / lo)
            .collect();
        out.insert(format!("fig6.{unit}.ratio90_10"), ratios);
    }
    let paths = [
        ("unl5g_ucsb", "UNL-5G", "UCSB"),
        ("unl_ucsb", "UNL", "UCSB"),
        ("ucsb_nd", "UCSB", "ND"),
    ];
    for (i, (name, from, to)) in paths.into_iter().enumerate() {
        for s in 0..SEEDS {
            let stats = latency_series(from, to, seed(s, i as u64));
            out.entry(format!("table1.{name}.mean"))
                .or_default()
                .push(stats.mean);
            out.entry(format!("table1.{name}.sd"))
                .or_default()
                .push(stats.sd);
        }
    }
    out
}

#[test]
fn every_ran_conformance_row_holds() {
    let measured = measure();
    let mut failures = Vec::new();
    for r in ROWS {
        let values = measured
            .get(r.generator)
            .unwrap_or_else(|| panic!("row {:?} names no measurement: {}", r.claim, r.generator));
        assert_eq!(values.len(), SEEDS as usize, "{}", r.generator);
        let stats = SampleStats::of(values).expect("one value per seed");
        let m = stats.mean;
        let ok = match r.check {
            Within(band) => (m - r.paper.mean).abs() <= band,
            AtMost(bound) => m <= bound,
        };
        println!(
            "{:<50} {:<28} paper {:>7.3} ±{:<5.2} written {:>7.3} ±{:<6.3} {:?} -> {m:.3} ±{:.3}",
            r.claim,
            r.generator,
            r.paper.mean,
            r.paper.sd,
            r.measured.mean,
            r.measured.sd,
            r.check,
            stats.sd
        );
        if !ok {
            failures.push(format!(
                "{}: {} = {m:.4} ±{:.4} over {SEEDS} seeds, paper {} , want {:?}",
                r.claim, r.generator, stats.sd, r.paper.mean, r.check
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
