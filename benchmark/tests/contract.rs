//! The benchmark run as the driver runs it, checked against the contract
//! and against `BENCHMARK.json`.

use std::process::Command;

/// The last line of a run's standard output.
fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_xg-benchmark"))
        .args(args)
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    stdout.lines().last().expect("a result line").to_string()
}

/// Metric names of a result line, in order.
fn result_names(line: &str) -> Vec<String> {
    line.split("\": {\"value\": ")
        .filter_map(|before| before.rsplit('"').next())
        .map(str::to_string)
        .take(line.matches("\"value\"").count())
        .collect()
}

/// The `name`s listed under `key` in `BENCHMARK.json`, in order.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let list = doc.split(&format!("\"{key}\": [")).nth(1).expect("key");
    let list = list.split(']').next().expect("closed list");
    list.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("closed string").to_string())
        .collect()
}

#[test]
fn untraced_run_reports_the_end_to_end_metrics() {
    let line = run(&[
        "--workload",
        "ran_fleet",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "0",
    ]);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    assert_eq!(result_names(&line), declared("end_to_end"));
}

#[test]
fn traced_run_reports_the_per_layer_metrics() {
    let line = run(&[
        "--workload",
        "cfd_solve",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "1",
    ]);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    assert_eq!(result_names(&line), declared("per_layer"));
}

#[test]
fn a_perturbed_pass_trips_the_correctness_gate() {
    let line = run(&[
        "--workload",
        "ran_fleet",
        "--seed",
        "7",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--break-check",
    ]);
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(!line.contains("\"failed\": 0,"), "{line}");
}

#[test]
fn the_declared_workloads_are_the_accepted_ones() {
    let usage = |workload: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_xg-benchmark"))
            .args(["--workload", workload, "--seconds", "0"])
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "no result without a run");
        String::from_utf8(out.stderr).expect("utf-8")
    };
    for w in declared("workloads") {
        // A known workload gets as far as the next complaint.
        assert!(usage(&w).starts_with("--seconds must be"), "{w}");
    }
    assert!(usage("nope").starts_with("--workload must be one of"));
}
