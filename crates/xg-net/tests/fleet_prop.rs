//! Property tests for the sharded RAN fleet: parallel batched stepping
//! must be bitwise-identical to serial for arbitrary seeds, fleet
//! shapes, and worker-pool widths.

// Tests abort on failure by design; the crate's assert ban is for the
// event engine.
#![allow(clippy::disallowed_macros)]

use xg_net::prelude::*;
use xg_prop::prelude::*;

/// Build a fleet of `cells` identical 20 MHz NR FDD cells with `ues`
/// backlogged Raspberry Pi UEs each.
fn build_fleet(seed: u64, cells: usize, ues: usize, workers: usize) -> RanFleet {
    let mut fleet = RanFleet::builder(seed)
        .cells(cells, CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0)))
        .workers(workers)
        .build()
        .expect("20 MHz NR FDD is a valid cell");
    for c in 0..cells {
        for _ in 0..ues {
            let ue = fleet
                .attach(CellId(c as u32), DeviceClass::RaspberryPi, Modem::Rm530nGl)
                .expect("cell exists and has capacity");
            fleet.set_backlogged(ue, true).expect("ue just attached");
        }
    }
    fleet
}

/// Flatten every goodput sample into its raw bit pattern so equality is
/// bitwise, not approximate.
fn bits(batches: &[CellBatch]) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    for batch in batches {
        for sec in &batch.seconds {
            for &(ue, mbps) in sec {
                out.push((batch.cell.0, ue.id(), mbps.to_bits()));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The determinism contract of `xg-net::fleet`: worker count and
    /// scheduling order never leak into results.
    #[test]
    fn parallel_fleet_is_bitwise_identical_to_serial(
        seed in 0u64..u64::MAX,
        cells in 1usize..6,
        ues in 1usize..4,
        workers in 2usize..5,
        seconds in 1usize..3,
    ) {
        let mut parallel = build_fleet(seed, cells, ues, workers);
        let mut serial = build_fleet(seed, cells, ues, 1);
        let p = parallel.measure_seconds(seconds);
        let s = serial.measure_seconds(seconds);
        prop_assert_eq!(bits(&p), bits(&s));
    }

    /// A cell's trajectory depends only on (fleet_seed, cell_id): growing
    /// the fleet does not perturb existing cells.
    #[test]
    fn cell_streams_independent_of_fleet_size(
        seed in 0u64..u64::MAX,
        extra in 1usize..4,
    ) {
        let mut small = build_fleet(seed, 2, 2, 2);
        let mut large = build_fleet(seed, 2 + extra, 2, 2);
        let ps = small.measure_seconds(2);
        let pl = large.measure_seconds(2);
        prop_assert_eq!(bits(&ps), bits(&pl[..2]));
    }
}

/// The direct constructor and the staged builder build the same cell.
#[test]
fn try_new_and_builder_construct_alike() {
    let cell = CellConfig::new(Rat::Nr5g, Duplex::Fdd, MHz(20.0));
    let mut sim = LinkSimulator::try_new(cell.clone(), 7).unwrap();
    let built = LinkSimulator::builder(cell).seed(7).build().unwrap();
    assert_eq!(sim.total_prbs(), built.total_prbs());
    let ue = sim
        .attach(DeviceClass::RaspberryPi, Modem::Rm530nGl)
        .unwrap();
    assert!(sim.iperf_uplink(ue, 2).mean_mbps() > 0.0);
}
