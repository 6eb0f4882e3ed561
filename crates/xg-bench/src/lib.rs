//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §3 for the index) and writes its data to the
//! `results/` directory at the workspace root, printing a paper-vs-measured
//! comparison to stdout.

#![warn(unreachable_pub)]

use std::path::PathBuf;

#[cfg(test)]
mod conformance;
pub mod scenario;
pub mod trace;

/// Directory where figure data lands (`results/` under the workspace).
pub(crate) fn results_dir() -> PathBuf {
    let dir = workspace_root().join("results");
    std::fs::create_dir_all(&dir).expect("results directory must be creatable");
    dir
}

/// Locate the workspace root by walking up from the current directory to
/// the first `Cargo.toml` containing `[workspace]`.
pub(crate) fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd readable");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd readable");
        }
    }
}

/// Write a results file, returning its path.
///
/// The write is atomic (temp file + rename in the same directory): a
/// crash mid-write can never leave a truncated file at the final name,
/// and readers only ever see the previous run or the complete new one.
pub fn write_results(name: &str, contents: &str) -> PathBuf {
    write_results_bytes(name, contents.as_bytes())
}

/// Write binary results (e.g. PGM images), atomically like
/// [`write_results`].
pub fn write_results_bytes(name: &str, contents: &[u8]) -> PathBuf {
    let dir = results_dir();
    let path = dir.join(name);
    let tmp = dir.join(format!(".{name}.tmp"));
    std::fs::write(&tmp, contents).expect("results file writable");
    std::fs::rename(&tmp, &path).expect("results file renamable");
    path
}

/// Delete any stale copies of a binary's outputs before it starts
/// computing. A run that dies between its first and last `write_results`
/// call would otherwise leave the untouched files from an *earlier* run
/// sitting next to the fresh ones, silently mixing two configurations in
/// one `results/` directory.
pub fn claim_results(names: &[&str]) {
    let dir = results_dir();
    for name in names {
        std::fs::remove_file(dir.join(name)).ok();
    }
}

/// The observability handle a figure binary runs under: disabled by
/// default, enabled with `XG_OBS=1` (or `true`/`on`/`yes`).
pub fn obs_from_env() -> xg_obs::Obs {
    xg_obs::Obs::from_env()
}

/// Print the standard reproducibility header every binary emits before
/// its results: the effective RNG seed and whether observability is on.
pub fn print_run_header(seed: u64, obs: &xg_obs::Obs) {
    println!("seed = {seed}");
    println!("obs = {}", obs.status());
}

/// Samples per iperf configuration. The paper collects 100; override with
/// `XG_SAMPLES` for quick runs.
pub fn iperf_samples() -> usize {
    std::env::var("XG_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
}

/// The RNG seed every binary runs under: `XG_SEED` when set and parseable,
/// otherwise the binary's historical default. Each binary prints the
/// effective seed in its results header so a captured run is reproducible.
pub fn effective_seed(default: u64) -> u64 {
    std::env::var("XG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Escape one CSV field per RFC 4180: fields containing a comma, quote,
/// or line break are quoted, with embedded quotes doubled.
pub(crate) fn csv_escape(field: &str) -> String {
    if field.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Minimal CSV builder shared by the binaries that emit CSV
/// (`reliability_study`, `latency_budget`). Every field goes through
/// `csv_escape`, so scenario labels with commas stay one column.
#[derive(Debug, Default)]
pub struct CsvWriter {
    out: String,
}

impl CsvWriter {
    /// An empty document.
    pub fn new() -> Self {
        CsvWriter::default()
    }

    /// Append one row.
    pub fn row<I>(&mut self, fields: I)
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut first = true;
        for f in fields {
            if !first {
                self.out.push(',');
            }
            first = false;
            self.out.push_str(&csv_escape(f.as_ref()));
        }
        self.out.push('\n');
    }

    /// The document so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// The paper's bandwidth sweeps (MHz).
pub mod sweeps {
    /// 4G FDD bandwidths (Fig. 4/5).
    pub const LTE_FDD: [f64; 4] = [5.0, 10.0, 15.0, 20.0];
    /// 5G FDD bandwidths.
    pub const NR_FDD: [f64; 4] = [5.0, 10.0, 15.0, 20.0];
    /// 5G TDD bandwidths.
    pub const NR_TDD: [f64; 6] = [10.0, 15.0, 20.0, 30.0, 40.0, 50.0];
}

/// Format a mean ± sd cell.
pub fn cell(mean: f64, sd: f64) -> String {
    format!("{mean:7.2} ±{sd:5.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_found() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").exists());
    }

    #[test]
    fn results_roundtrip() {
        let p = write_results("selftest.txt", "hello");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "hello");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn writes_are_atomic_and_claimable() {
        let p = write_results("selftest_atomic.txt", "v1");
        let tmp = p.parent().unwrap().join(".selftest_atomic.txt.tmp");
        assert!(!tmp.exists(), "temp file must not outlive the rename");
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "v1");
        claim_results(&["selftest_atomic.txt"]);
        assert!(!p.exists(), "claiming deletes the stale output");
        // Claiming a file that never existed is not an error.
        claim_results(&["selftest_never_written.txt"]);
    }

    #[test]
    fn sample_env_default() {
        // Without the env var the paper default applies.
        if std::env::var("XG_SAMPLES").is_err() {
            assert_eq!(iperf_samples(), 100);
        }
    }

    #[test]
    fn seed_env_default() {
        if std::env::var("XG_SEED").is_err() {
            assert_eq!(effective_seed(71), 71);
        }
    }

    #[test]
    fn csv_escaping_quotes_only_when_needed() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn csv_writer_builds_rows() {
        let mut w = CsvWriter::new();
        w.row(["stage", "mean_s"]);
        w.row(["cfd, solve".to_string(), format!("{:.2}", 420.39)]);
        assert_eq!(w.as_str(), "stage,mean_s\n\"cfd, solve\",420.39\n");
    }
}
