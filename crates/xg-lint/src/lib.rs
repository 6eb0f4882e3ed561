//! `xg-lint`: the workspace determinism-and-robustness linter.
//!
//! The reproduction's core claims — every figure-shaped result is a
//! deterministic function of the seed, and the sharded `RanFleet` is
//! bitwise-identical parallel vs serial — rest on invariants the
//! compiler cannot see. This crate enforces them statically, as a hard
//! CI gate, with a rule set tuned to this codebase:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | no `Instant::now`/`SystemTime::now` outside wall-domain modules |
//! | `unordered-iter` | no `HashMap`/`HashSet` in the deterministic simulator crates |
//! | `unseeded-random` | no `thread_rng`/`rand::random`/`from_entropy`/`OsRng` anywhere |
//! | `panicking-call` | no `unwrap`/`expect`/panic macros in non-test library code |
//! | `float-reduce` | no float fold/sum/reduce inside parallel statements |
//! | `time-unit` | no mixing `_ns`/`_us`/`_ms`/`_s` values without explicit conversion |
//! | `obs-name` | every emitted metric/span/profile name round-trips `obs-schema.toml` |
//! | `stale-waiver` | waivers that suppress nothing are findings themselves |
//! | `event-panic` | no panic paths in `Advance` impls or the event queue |
//!
//! Sites that are legitimately exempt carry a reasoned waiver:
//! `// xg-lint: allow(<rule>, <why this site is safe>)` on the offending
//! line or the line above. Waivers without a reason are themselves
//! findings. Run it with:
//!
//! ```text
//! cargo run -p xg-lint              # human diagnostics, exit 1 on findings
//! cargo run -p xg-lint -- --format json
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
pub use report::{Report, REPORT_SCHEMA};
pub use rules::{analyze_file, finalize, lint_source, FileAnalysis, Finding, Rule};
pub use schema::{ObsKind, ObsSchema};

use std::path::Path;

/// Version of the rule set. Bump whenever a rule is added, removed, or
/// changes what it matches. JSON reports record this tag so a
/// `--compare` baseline produced under a different rule set can be told
/// apart.
pub const RULES_VERSION: &str = "xg-lint-rules/4";

/// Name of the checked-in observability schema at the workspace root.
pub const OBS_SCHEMA_FILE: &str = "obs-schema.toml";

/// Lint already-loaded `(relpath, source)` pairs through the two-pass
/// engine: pass 1 analyzes each file independently on scoped threads,
/// pass 2 runs the cross-file checks (obs schema round trip, stale
/// waivers) over the merged results. Deterministic: the output is
/// identical for any thread count, because pass-1 results are collected
/// back in input order before pass 2 runs.
pub fn lint_files(
    files: &[(String, String)],
    cfg: &Config,
    schema: Option<(&ObsSchema, &str)>,
) -> Report {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(files.len().max(1))
        .min(8);
    let analyses = if threads <= 1 {
        files
            .iter()
            .map(|(rel, src)| analyze_file(rel, src, cfg))
            .collect()
    } else {
        analyze_parallel(files, cfg, threads)
    };
    let findings = finalize(analyses, schema);
    Report {
        root: String::new(),
        files_scanned: files.len(),
        findings,
    }
}

/// Pass 1 on `threads` scoped threads, striped by index so the result
/// vector can be reassembled in input order without any locking.
fn analyze_parallel(files: &[(String, String)], cfg: &Config, threads: usize) -> Vec<FileAnalysis> {
    let mut slots: Vec<Option<FileAnalysis>> = Vec::new();
    slots.resize_with(files.len(), || None);
    let mut stripes: Vec<Vec<(usize, &mut Option<FileAnalysis>)>> =
        (0..threads).map(|_| Vec::new()).collect();
    for (i, slot) in slots.iter_mut().enumerate() {
        stripes[i % threads].push((i, slot));
    }
    std::thread::scope(|scope| {
        for stripe in stripes {
            scope.spawn(move || {
                for (i, slot) in stripe {
                    let (rel, src) = &files[i];
                    *slot = Some(analyze_file(rel, src, cfg));
                }
            });
        }
    });
    slots.into_iter().flatten().collect()
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
    let mut report = lint_files(&files, cfg, schema.as_ref().map(|s| (s, OBS_SCHEMA_FILE)));
    report.root = root.display().to_string();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scoped-thread pass 1 must be observationally identical to a
    /// serial pass: the lint report is part of the workspace's
    /// determinism contract. (The TSan CI lane runs this test to check
    /// the symbol-index fan-out for data races.)
    #[test]
    fn two_pass_parallel_matches_serial() {
        let cfg = Config::everything();
        let schema = ObsSchema::parse(
            "[metrics]\n\"demo.good\" = \"counter | exercised\"\n\"demo.never\" = \"counter | stale row\"\n",
        )
        .expect("schema parses");
        // Enough files to occupy every stripe, with findings spread
        // across them.
        let files: Vec<(String, String)> = (0..37)
            .map(|i| {
                let src = format!(
                    "fn f{i}(a_ms: u64, b_ns: u64) -> u64 {{ a_ms + b_ns }}\n\
                     fn g{i}(reg: &Registry) {{ reg.counter(\"demo.good\").inc(); reg.counter(\"demo.typo{i}\").inc(); }}\n"
                );
                (format!("crates/x/src/f{i}.rs"), src)
            })
            .collect();
        let parallel = lint_files(&files, &cfg, Some((&schema, "obs-schema.toml")));
        let serial = finalize(
            files
                .iter()
                .map(|(rel, src)| analyze_file(rel, src, &cfg))
                .collect(),
            Some((&schema, "obs-schema.toml")),
        );
        assert_eq!(parallel.findings, serial);
        // Sanity: the synthetic workspace exercises time-unit, obs-name
        // forward, and the schema reverse check.
        assert!(parallel.findings.iter().any(|f| f.rule == Rule::TimeUnit));
        assert!(parallel
            .findings
            .iter()
            .any(|f| f.rule == Rule::ObsName && f.message.contains("demo.typo3")));
        assert!(parallel
            .findings
            .iter()
            .any(|f| f.rule == Rule::ObsName && f.file == "obs-schema.toml"));
    }

    /// The gate the CI job enforces: the workspace itself must be clean.
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
