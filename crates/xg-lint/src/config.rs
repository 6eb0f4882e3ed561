//! Which rules apply where. Paths are workspace-relative with forward
//! slashes; scoping is by prefix so whole crates or directories can be
//! brought into (or exempted from) a rule.

/// Rule scoping for one lint run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Prefixes where `unordered-iter` applies: crates whose outputs
    /// must be a deterministic function of the seed.
    pub deterministic_paths: Vec<String>,
    /// Prefixes where `panicking-call` applies: library code of the
    /// simulator crates (bench bins and fixtures excluded).
    pub panicking_paths: Vec<String>,
    /// Prefixes exempt from `wall-clock`: modules whose whole purpose
    /// is wall-domain measurement.
    pub wall_allowlist: Vec<String>,
    /// Prefixes where `time-unit` applies: code that mixes `SimNs` with
    /// suffixed durations and must convert explicitly.
    pub time_paths: Vec<String>,
    /// Prefixes where `event-panic` applies to the whole file, not just
    /// `impl Advance` blocks: the event queue itself.
    pub event_paths: Vec<String>,
    /// Prefixes where `obs-name` checks emissions against the schema.
    pub obs_paths: Vec<String>,
    /// Path substrings skipped entirely (lint fixtures, build output).
    pub skip: Vec<String>,
}

impl Config {
    /// The workspace policy. This is the single source of truth for
    /// which crates sit in the deterministic core — CONTRIBUTING.md's
    /// "Determinism rules" section documents the same lists.
    pub fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
            deterministic_paths: s(&[
                "crates/xg-net/src/",
                "crates/xg-ric/src/",
                "crates/xg-cfd/src/",
                "crates/xg-fabric/src/",
                "crates/xg-cspot/src/",
                "crates/xg-sensors/src/",
                // The calendar-queue scheduler every engine drains: event
                // order must be a pure function of what was scheduled.
                "crates/xg-sim/src/",
                // Offline span analytics: two runs of `xg-trace` over the
                // same dump must render byte-identical reports.
                "crates/xg-bench/src/trace.rs",
            ]),
            panicking_paths: s(&[
                "crates/xg-net/src/",
                "crates/xg-ric/src/",
                "crates/xg-cfd/src/",
                "crates/xg-fabric/src/",
                "crates/xg-cspot/src/",
                "crates/xg-sensors/src/",
                "crates/xg-sim/src/",
                "crates/xg-obs/src/",
                "crates/xg-hpc/src/",
            ]),
            wall_allowlist: s(&[
                // The one blessed wall-clock source: everything else
                // must go through xg_obs::clock::Clock.
                "crates/xg-obs/src/clock.rs",
                // Bench bins time real work on the wall by design.
                "crates/xg-bench/src/bin/",
            ]),
            time_paths: s(&[
                // Everywhere ns-precision SimNs meets suffixed wall/sim
                // durations: the deterministic core plus the HPC models
                // and the obs layer (spans carry `_us` endpoints).
                "crates/xg-net/src/",
                "crates/xg-ric/src/",
                "crates/xg-cfd/src/",
                "crates/xg-fabric/src/",
                "crates/xg-cspot/src/",
                "crates/xg-sensors/src/",
                "crates/xg-sim/src/",
                "crates/xg-hpc/src/",
                "crates/xg-obs/src/",
                "crates/xg-bench/src/trace.rs",
            ]),
            event_paths: s(&[
                // The calendar queue: every engine drains through it, so
                // a panic here takes the whole fabric down.
                "crates/xg-sim/src/",
            ]),
            obs_paths: s(&["crates/"]),
            skip: s(&["/tests/fixtures/", "/target/"]),
        }
    }

    /// Every rule applies everywhere: used by the fixture tests so a
    /// fixture file exercises a rule regardless of its path.
    pub fn everything() -> Self {
        let all = vec![String::new()]; // empty prefix matches any path
        Config {
            deterministic_paths: all.clone(),
            panicking_paths: all.clone(),
            wall_allowlist: Vec::new(),
            time_paths: all.clone(),
            // Impl-scoped event-panic applies everywhere already; the
            // whole-file escalation stays opt-in so single-rule fixtures
            // exercise exactly one rule.
            event_paths: Vec::new(),
            obs_paths: all,
            skip: Vec::new(),
        }
    }

    /// Should this file be skipped entirely?
    pub fn skipped(&self, relpath: &str) -> bool {
        self.skip.iter().any(|s| relpath.contains(s.as_str()))
    }

    /// Is `unordered-iter` in force for this file?
    pub fn is_deterministic_path(&self, relpath: &str) -> bool {
        self.deterministic_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Is `panicking-call` in force for this file?
    pub fn is_panicking_scope(&self, relpath: &str) -> bool {
        self.panicking_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Is this file exempt from `wall-clock`?
    pub fn wall_allowlisted(&self, relpath: &str) -> bool {
        self.wall_allowlist
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Is `time-unit` in force for this file?
    pub fn is_time_path(&self, relpath: &str) -> bool {
        self.time_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Does `event-panic` cover this whole file (vs only
    /// `Advance` impl blocks)?
    pub fn is_event_path(&self, relpath: &str) -> bool {
        self.event_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Is `obs-name` in force for this file?
    pub fn is_obs_path(&self, relpath: &str) -> bool {
        self.obs_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scoping() {
        let c = Config::workspace();
        assert!(c.is_deterministic_path("crates/xg-net/src/mac.rs"));
        assert!(!c.is_deterministic_path("crates/xg-bench/src/bin/fig4_single_user.rs"));
        assert!(c.is_deterministic_path("crates/xg-bench/src/trace.rs"));
        // The event scheduler is the deterministic core's backbone: both
        // rules in force there.
        assert!(c.is_deterministic_path("crates/xg-sim/src/queue.rs"));
        assert!(c.is_panicking_scope("crates/xg-sim/src/queue.rs"));
        assert!(c.is_panicking_scope("crates/xg-obs/src/metrics.rs"));
        // The profiler and critical-path modules ride the xg-obs prefix:
        // in panicking scope, not wall-clock-exempt (they must take time
        // through xg_obs::clock, never read it themselves).
        assert!(c.is_panicking_scope("crates/xg-obs/src/profile.rs"));
        assert!(!c.wall_allowlisted("crates/xg-obs/src/profile.rs"));
        assert!(!c.wall_allowlisted("crates/xg-obs/src/critical.rs"));
        // The xg-trace CLI is a bench bin: wall reads allowed there.
        assert!(c.wall_allowlisted("crates/xg-bench/src/bin/xg_trace.rs"));
        assert!(!c.is_panicking_scope("crates/xg-laminar/src/graph.rs"));
        assert!(c.wall_allowlisted("crates/xg-obs/src/clock.rs"));
        assert!(c.wall_allowlisted("crates/xg-bench/src/bin/latency_budget.rs"));
        assert!(!c.wall_allowlisted("crates/xg-cfd/src/solver.rs"));
        assert!(c.skipped("crates/xg-lint/tests/fixtures/wall_clock_pos.rs"));
    }

    #[test]
    fn v2_rule_scoping() {
        let c = Config::workspace();
        // time-unit covers the deterministic core plus xg-hpc and xg-obs.
        assert!(c.is_time_path("crates/xg-sim/src/queue.rs"));
        assert!(c.is_time_path("crates/xg-hpc/src/pilot.rs"));
        assert!(c.is_time_path("crates/xg-obs/src/span.rs"));
        assert!(!c.is_time_path("crates/xg-lint/src/lib.rs"));
        // event-panic covers all of xg-sim whole-file; elsewhere only
        // Advance impl blocks.
        assert!(c.is_event_path("crates/xg-sim/src/queue.rs"));
        assert!(!c.is_event_path("crates/xg-net/src/sim.rs"));
        // obs-name covers every crate (tests and fixtures excluded by
        // other means).
        assert!(c.is_obs_path("crates/xg-fabric/src/orchestrator.rs"));
        assert!(!c.is_obs_path("examples/demo.rs"));
    }

    #[test]
    fn everything_config_is_all_scope() {
        let c = Config::everything();
        assert!(c.is_deterministic_path("any/path.rs"));
        assert!(c.is_panicking_scope("any/path.rs"));
        assert!(!c.wall_allowlisted("any/path.rs"));
    }
}
