//! The repo benchmark. One command per workload:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload fabric_day --seed 42 --seconds 25 --trace 0
//! ```
//!
//! prints every metric by name and unit, checks the simulated outputs, and
//! ends with one JSON line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones. See README.md.

mod alloc;
mod drills;
mod harness;
mod phases;
mod workloads;

use harness::{run_pass, Metric, Mode, PassReport, SliceTable, Workload};
use phases::PhaseRows;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{CfdSolve, Fabric, RanFleetSeconds};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["fabric_day", "fabric_storm", "ran_fleet", "cfd_solve"];

/// Fewest passes a run makes whatever `--seconds` says: the digest needs
/// two to compare and the floor a few to settle.
const MIN_PASSES: usize = 3;
/// Traced passes whose spans go into the trace file; later ones are timed
/// and harvested all the same, but a 25 s run would write 30 MB of spans.
const SPAN_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    break_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        break_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--break-check" {
            args.break_check = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Everything a run accumulates while it checks passes against each other.
struct Checks {
    attempted: u64,
    failed: u64,
    /// Digest and allocation counts every later pass must repeat.
    reference: Option<(u64, (u64, u64))>,
    /// Share by which allocation counts may differ from the first pass's.
    alloc_tolerance: f64,
    problems: Vec<String>,
}

impl Checks {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    fn pass(&mut self, what: &str, slices: usize, report: &PassReport, counts_allocs: bool) {
        self.attempted += slices as u64;
        self.failed += report.failed + report.outcome.broken.len() as u64;
        for b in &report.outcome.broken {
            self.problems.push(format!("{what}: {b}"));
        }
        let (digest, alloc) = *self
            .reference
            .get_or_insert((report.outcome.digest, report.alloc));
        if report.outcome.digest != digest {
            self.fail(format!(
                "{what}: digest {:016x} differs from the first pass's {digest:016x}",
                report.outcome.digest
            ));
        }
        let tolerance = self.alloc_tolerance;
        let off = |got: u64, want: u64| got.abs_diff(want) as f64 > tolerance * want as f64;
        if counts_allocs && (off(report.alloc.0, alloc.0) || off(report.alloc.1, alloc.1)) {
            self.fail(format!(
                "{what}: {:?} allocations/bytes, the first pass made {alloc:?}",
                report.alloc
            ));
        }
    }
}

fn run<W: Workload + Sync>(w: &W, args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    // Share the program's wall epoch so harvested spans line up with ours.
    xg_obs::clock::wall_now_us();
    let epoch = Instant::now();
    let width = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    let (slices, warmup) = (w.slices(), w.warmup());
    let measured = 1 + warmup..1 + slices;
    // A traced run keeps part of its time for the drills.
    let budget = Duration::from_secs_f64(args.seconds * if args.trace { 0.75 } else { 1.0 });

    let mut floors = SliceTable::new(slices + 1);
    let mut traced_floors = SliceTable::new(slices + 1);
    let mut spans = Vec::new();
    let mut phases = PhaseRows::default();
    let mut pass_ns = Vec::new();
    let mut checks = Checks {
        attempted: 0,
        failed: 0,
        reference: None,
        alloc_tolerance: w.alloc_tolerance(),
        problems: Vec::new(),
    };
    // Set-up alone first, for a twentieth of the time: `setup_s` is small, and
    // its floor settles far better over hundreds of back-to-back set-ups than
    // over the few dozen that open the passes.
    let mut setups = 0;
    while !args.trace && (setups < MIN_PASSES || epoch.elapsed() < budget / 20) {
        xg_cfd::run_with_threads(1, || {
            harness::run_setup(w, args.seed, Mode::SERIAL, &mut floors)
        });
        setups += 1;
    }
    while pass_ns.len() < MIN_PASSES || epoch.elapsed() < budget {
        // `--break-check` perturbs one pass's seed; the digest gate must trip.
        let seed = if args.break_check && pass_ns.len() == 1 {
            args.seed ^ 1
        } else {
            args.seed
        };
        let report = xg_cfd::run_with_threads(1, || {
            run_pass(w, seed, Mode::SERIAL, &mut floors, None, epoch)
        });
        checks.pass("pass", slices, &report, !args.break_check);
        pass_ns.push(report.measured_ns);
        if args.trace {
            let keep = (pass_ns.len() <= SPAN_PASSES).then_some(&mut spans);
            let report = xg_cfd::run_with_threads(1, || {
                run_pass(w, args.seed, Mode::TRACED, &mut traced_floors, keep, epoch)
            });
            checks.pass("traced pass", slices, &report, false);
            if !report.outcome.obs_spans.is_empty() {
                if let Err(e) = phases.harvest(&report, warmup, slices, &mut spans) {
                    checks.fail(e);
                }
            }
        }
    }
    // Taken before the parallel pass, whose workers allocate on their own
    // threads and hand the blocks to this one to free.
    let peak_heap_mb = alloc::peak_live_bytes() as f64 / (1024.0 * 1024.0);
    // One pass at `width` workers/threads: same bits, or the run fails.
    let report = xg_cfd::run_with_threads(width, || {
        let wide = Mode {
            traced: false,
            workers: width,
        };
        run_pass(
            w,
            args.seed,
            wide,
            &mut SliceTable::new(slices + 1),
            None,
            epoch,
        )
    });
    checks.pass("parallel pass", slices, &report, false);

    let floor_ns = floors.floor_sum(measured.clone());
    let (digest, alloc) = checks.reference.expect("at least one pass ran");
    // Every pass repeated the digest, so this pass's events are every pass's.
    let events = &report.outcome.events[warmup.min(report.outcome.events.len())..];
    let unit_ns = |table: &SliceTable| {
        harness::unit_time_ns(
            table.floors(measured.clone()),
            events,
            (slices - warmup) as f64 / w.units(),
            w.reference_events(),
        )
    };
    let median_over_floor = harness::median(&mut pass_ns) as f64 / floor_ns as f64;
    println!("workload {} seed {}", w.name(), args.seed);
    println!(
        "{setups} set-ups, then {} passes of {slices} slices ({warmup} warm-up); parallel check at width {width}",
        pass_ns.len()
    );
    println!("digest {digest:016x} ({})", report.outcome.summary);
    println!(
        "slowest slice floor {:.3} ms",
        floors.max_floor(1..1 + slices) as f64 / 1e6
    );

    let mut metrics = Vec::new();
    if !args.trace {
        println!("harness.median_over_floor = {median_over_floor} ratio");
        let host_ms = unit_ns(&floors) / 1e6;
        println!("{}", w.unit_line(host_ms));
        let setup_s = floors.floor_sum(0..1 + warmup) as f64 / 1e9;
        metrics.push(Metric::new("host_ms_per_unit", host_ms, "ms"));
        metrics.push(Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new("peak_heap_mb", peak_heap_mb, "MB"));
        if let Some(rss) = harness::peak_rss_mb() {
            println!("VmHWM = {rss} MB (diagnostic: ±5 % run to run at this size)");
        }
    } else {
        if phases.cycles == 0 {
            // Not a fabric workload: the phase rows come from a short
            // quiet-week probe, so the table is filled on every workload
            // (and should stay flat on this one).
            let probe = Fabric::day();
            let mut table = SliceTable::new(probe.slices() + 1);
            for _ in 0..2 {
                let kept = Some(&mut spans);
                let report = run_pass(&probe, args.seed, Mode::TRACED, &mut table, kept, epoch);
                if let Err(e) = phases.harvest(&report, probe.warmup(), probe.slices(), &mut spans)
                {
                    checks.fail(e);
                }
            }
        }
        phases.metrics(&mut metrics);
        let mut drills = drills::Drills {
            seed: args.seed,
            width,
            out: &args.out,
            epoch,
            spans: &mut spans,
            metrics: Vec::new(),
        };
        drills.run_all();
        metrics.append(&mut drills.metrics);
        let overhead_pct = (unit_ns(&traced_floors) / unit_ns(&floors) - 1.0) * 100.0;
        metrics.extend([
            Metric::new("alloc.count_per_unit", alloc.0 as f64 / w.units(), "count"),
            Metric::new(
                "alloc.kb_per_unit",
                alloc.1 as f64 / 1024.0 / w.units(),
                "KB",
            ),
            Metric::new("harness.trace_overhead_pct", overhead_pct, "%"),
            Metric::new("harness.median_over_floor", median_over_floor, "ratio"),
        ]);
        let path = args.out.join(format!("{}-trace.json", w.name()));
        match std::fs::write(&path, harness::spans_json(w.name(), args.seed, &spans)) {
            Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => checks.fail(format!("{}: {e}", path.display())),
        }
    }
    for p in &checks.problems {
        println!("FAILED {p}");
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    (checks.failed == 0, checks.attempted, checks.failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: --workload {WORKLOADS:?} --seed N --seconds S --trace 0|1 [--out DIR] [--break-check]");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("{}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let (correct, attempted, failed, metrics) = match args.workload.as_str() {
        "fabric_day" => run(&Fabric::day(), &args),
        "fabric_storm" => run(&Fabric::storm(), &args),
        "ran_fleet" => run(&RanFleetSeconds, &args),
        _ => run(&CfdSolve, &args),
    };
    println!(
        "{}",
        harness::result_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
