//! Which rules apply where. Paths are workspace-relative with forward
//! slashes; scoping is by prefix so whole crates or directories can be
//! brought into (or exempted from) a rule.

/// Rule scoping for one lint run. `float-reduce` applies everywhere, so
/// it has no field.
#[derive(Debug, Clone)]
pub struct Config {
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
    /// The workspace policy for xg-lint's rules. CONTRIBUTING.md's
    /// "Determinism rules" table documents the same scopes, next to the
    /// rules clippy enforces.
    pub fn workspace() -> Self {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect();
        Config {
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
        // Fixtures break rules on purpose; build output is not source.
        assert!(c.skipped("crates/xg-lint/tests/fixtures/time_unit_pos.rs"));
        assert!(c.skipped("crates/xg-net/target/debug/build/out.rs"));
        assert!(!c.skipped("crates/xg-net/src/mac.rs"));
        // The span analytics module is the one time-unit file in xg-bench.
        assert!(c.is_time_path("crates/xg-bench/src/trace.rs"));
        assert!(!c.is_time_path("crates/xg-bench/src/bin/fig4_single_user.rs"));
        assert!(!c.is_time_path("crates/xg-laminar/src/graph.rs"));
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
        assert!(c.is_time_path("any/path.rs"));
        assert!(c.is_obs_path("any/path.rs"));
        assert!(!c.skipped("any/path.rs"));
        // Whole-file event-panic stays opt-in (see `everything`).
        assert!(!c.is_event_path("any/path.rs"));
    }
}
