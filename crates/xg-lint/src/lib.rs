//! `xg-lint`: the workspace determinism linter, for the rules clippy
//! cannot express.
//!
//! The reproduction's core claims — every figure-shaped result is a
//! deterministic function of the seed, and the sharded `RanFleet` is
//! bitwise-identical parallel vs serial — rest on invariants the
//! compiler cannot see. Clippy enforces the ones it has lints for (wall
//! clock, `HashMap`/`HashSet`, and the panic family, through
//! `clippy.toml` and crate-level lint attributes; see CONTRIBUTING.md).
//! This crate enforces the rest, as a tier-1 test
//! (`workspace_has_no_unwaived_findings`):
//!
//! | rule | invariant |
//! |------|-----------|
//! | `float-reduce` | no float fold/sum/reduce inside parallel statements |
//! | `time-unit` | no mixing `_ns`/`_us`/`_ms`/`_s` values without explicit conversion |
//! | `obs-name` | every emitted metric/span/profile name round-trips `obs-schema.toml` |
//! | `event-panic` | no assert-family macros in `Advance` impls or the event queue |
//! | `stale-waiver` | waivers that suppress nothing are findings themselves |
//! | `bad-waiver` | waivers that are malformed or lack a reason |
//!
//! Sites that are legitimately exempt carry a reasoned waiver:
//! `// xg-lint: allow(<rule>, <why this site is safe>)` on the offending
//! line or the line above. Waivers without a reason are themselves
//! findings. Run it with:
//!
//! ```text
//! cargo run -p xg-lint              # human diagnostics, exit 1 on findings
//! cargo run -p xg-lint -- --rules   # the rule list, from source
//! ```
//!
//! The analysis is token-level over lexed source (comments and string
//! bodies removed, `#[cfg(test)]` regions and parallel-statement extents
//! tracked by brace counting) rather than AST-level: the container this
//! repo builds in has no network registry access, so a `syn`-style
//! parser dependency is unavailable by policy — and token-level rules
//! have a useful property for a lint gate: they are trivially auditable
//! against the pattern tables in [`rules`].

#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod config;
pub mod lexer;
pub mod regions;
pub mod report;
pub mod rules;
pub mod schema;
pub mod semantic;
pub mod tokens;
pub mod waiver;
mod walk;

pub use config::Config;
pub use report::Report;
pub use rules::{analyze_file, finalize, lint_source, FileAnalysis, Finding, Rule};
pub use schema::{ObsKind, ObsSchema};

use std::path::Path;

/// Version of the rule set. Bump whenever a rule is added, removed, or
/// changes what it matches. The report's summary line and `--rules`
/// print it.
pub const RULES_VERSION: &str = "xg-lint-rules/5";

/// Name of the checked-in observability schema at the workspace root.
pub const OBS_SCHEMA_FILE: &str = "obs-schema.toml";

/// Lint already-loaded `(relpath, source)` pairs through the two-pass
/// engine: pass 1 analyzes each file independently, pass 2 runs the
/// cross-file checks (obs schema round trip, stale waivers) over the
/// results in input order.
pub fn lint_files(
    files: &[(String, String)],
    cfg: &Config,
    schema: Option<(&ObsSchema, &str)>,
) -> Report {
    let analyses = files
        .iter()
        .map(|(rel, src)| analyze_file(rel, src, cfg))
        .collect();
    Report {
        files_scanned: files.len(),
        findings: finalize(analyses, schema),
    }
}

/// Lint every workspace `.rs` file under `root` with the given config,
/// checking obs names against `obs-schema.toml` when it exists at the
/// root.
pub fn lint_root(root: &Path, cfg: &Config) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for rel in walk::workspace_files(root)? {
        if cfg.skipped(&rel) {
            continue;
        }
        let source = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, source));
    }
    let schema_text = match std::fs::read_to_string(root.join(OBS_SCHEMA_FILE)) {
        Ok(t) => Some(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };
    let schema = match &schema_text {
        Some(t) => Some(ObsSchema::parse(t).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{OBS_SCHEMA_FILE}: {e}"),
            )
        })?),
        None => None,
    };
    Ok(lint_files(
        &files,
        cfg,
        schema.as_ref().map(|s| (s, OBS_SCHEMA_FILE)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate: the workspace itself must be clean. This test, run by
    /// `cargo test` in CI, is how xg-lint's rules are enforced.
    #[test]
    fn workspace_has_no_unwaived_findings() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = lint_root(&root, &Config::workspace()).expect("lint workspace");
        let unwaived: Vec<_> = report.unwaived().collect();
        assert!(
            unwaived.is_empty(),
            "unwaived findings:\n{}",
            unwaived
                .iter()
                .map(|f| format!("{}:{}: {}: {}", f.file, f.line, f.rule.name(), f.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
