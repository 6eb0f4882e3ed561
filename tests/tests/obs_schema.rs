//! The observability name contract, checked where names are made: run
//! an instrumented closed loop with a RIC attached, collect every
//! metric, span and profile path it emitted, and diff them both ways
//! against `obs-schema.toml`. A typo'd series (`fabric.gatway.backlog`)
//! fails here instead of silently splitting a time series, and a renamed
//! instrument cannot leave its old row behind.

use std::collections::BTreeSet;

use xg_fabric::orchestrator::{FabricConfig, XgFabric};
use xg_net::slice::Snssai;
use xg_obs::Obs;
use xg_ric::{BurstGuard, DemandSlicer, McsCapper, Ric};

/// One `"name" = "kind | description"` row of a schema table.
struct Row {
    name: String,
    line: usize,
    /// A `.*` row: covers every name with its prefix. Those names are
    /// built at run time, so the row is exempt from the reverse check.
    wildcard: bool,
    /// Declared ahead of its emitter (`reserved | …`): also exempt.
    reserved: bool,
}

impl Row {
    fn covers(&self, name: &str) -> bool {
        if self.wildcard {
            name.starts_with(&self.name[..self.name.len() - 1])
        } else {
            self.name == name
        }
    }
}

/// Parse the file's three tables, `[metrics]`, `[spans]`, `[profiles]`,
/// in that order. The file is a small TOML subset: quoted keys, one
/// quoted string value each, `#` comments.
fn parse_schema(text: &str) -> [Vec<Row>; 3] {
    let mut tables: [Vec<Row>; 3] = Default::default();
    let mut table = None;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let known = ["metrics", "spans", "profiles"]
                .iter()
                .position(|t| *t == header);
            table =
                Some(known.unwrap_or_else(|| panic!("line {}: unknown table [{header}]", idx + 1)));
            continue;
        }
        let unquote = |s: &str| {
            s.trim()
                .strip_prefix('"')?
                .strip_suffix('"')
                .map(str::to_string)
        };
        let (name, value) = line
            .split_once('=')
            .and_then(|(k, v)| Some((unquote(k)?, unquote(v)?)))
            .unwrap_or_else(|| panic!("line {}: expected `\"name\" = \"kind | desc\"`", idx + 1));
        let table = table.unwrap_or_else(|| panic!("line {}: row before any table", idx + 1));
        tables[table].push(Row {
            wildcard: name.ends_with(".*"),
            reserved: value.split('|').next().map(str::trim) == Some("reserved"),
            name,
            line: idx + 1,
        });
    }
    tables
}

/// Every emitted name no row covers, and every exact, non-reserved row
/// no emitted name matches.
fn diff(table: &str, rows: &[Row], emitted: &BTreeSet<String>) -> Vec<String> {
    let undeclared = emitted
        .iter()
        .filter(|n| !rows.iter().any(|r| r.covers(n)))
        .map(|n| format!("[{table}] `{n}` is emitted but not declared"));
    let unemitted = rows
        .iter()
        .filter(|r| !r.wildcard && !r.reserved && !emitted.contains(&r.name))
        .map(|r| {
            format!(
                "[{table}] `{}` (line {}) is declared but never emitted",
                r.name, r.line
            )
        });
    undeclared.chain(unemitted).collect()
}

#[test]
fn every_emitted_obs_name_is_declared_and_every_row_is_emitted() {
    let obs = Obs::enabled();
    let mut ric = Ric::new(7, 300.0);
    ric.register(DemandSlicer::try_new(0.1, 0.5).expect("0.1 floor, 0.5 alpha are valid"));
    ric.register(BurstGuard::new(Snssai::miot(1)));
    ric.register(McsCapper::try_new(7.4).expect("positive max_eff"));
    let mut fabric = XgFabric::new(FabricConfig {
        cfd_cells: [12, 10, 4],
        cfd_steps: 10,
        ric: Some(ric),
        obs: obs.clone(),
        ..Default::default()
    });
    fabric.run_cycles(40).expect("healthy closed loop");

    let snap = obs.registry().expect("obs enabled").snapshot();
    let metrics = (snap.counters.keys())
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .cloned()
        .collect();
    let spans = (obs.tracer().expect("obs enabled").take_spans().into_iter())
        .map(|s| s.name.into_owned())
        .collect();
    let profiles = (obs.profiler().expect("obs enabled").snapshot().nodes)
        .into_keys()
        .collect();

    let schema = include_str!("../../obs-schema.toml");
    let [metric_rows, span_rows, profile_rows] = parse_schema(schema);
    let mut failures = diff("metrics", &metric_rows, &metrics);
    failures.extend(diff("spans", &span_rows, &spans));
    failures.extend(diff("profiles", &profile_rows, &profiles));
    assert!(
        failures.is_empty(),
        "obs-schema.toml is out of date:\n{}",
        failures.join("\n")
    );
}
