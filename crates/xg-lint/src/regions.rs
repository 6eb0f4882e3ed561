//! Structural regions the rules care about, recovered from scrubbed
//! source: `#[cfg(test)]` / `#[test]` item bodies, and the extent of
//! statements that fan work out across threads.
//!
//! Both analyses are brace-counting passes over [`Scrubbed`] lines —
//! sound for rustfmt-shaped code (which the whole workspace is, enforced
//! by the `cargo fmt --check` CI gate) without needing a full parser.

use crate::lexer::Scrubbed;

/// Inclusive 1-based line ranges.
#[derive(Debug, Clone, Default)]
pub struct LineRanges(Vec<(usize, usize)>);

impl LineRanges {
    /// Is `line` inside any range?
    pub fn contains(&self, line: usize) -> bool {
        self.0.iter().any(|&(a, b)| a <= line && line <= b)
    }
}

/// Lines belonging to test-only code: the body (and attribute lines) of
/// any item annotated `#[cfg(test)]`, `#[test]`, or `#[cfg_attr(test, …)]`.
///
/// Inner attributes (`#![…]`) never open a region — a crate-level
/// `#![cfg_attr(test, allow(…))]` does not make the whole file test code.
pub fn test_regions(s: &Scrubbed) -> LineRanges {
    let mut ranges = Vec::new();
    // (start_line, brace_depth_at_open) for regions still open.
    let mut open: Vec<(usize, i64)> = Vec::new();
    let mut depth: i64 = 0;
    // Line of a test attribute whose item's `{` is still ahead.
    let mut pending: Option<usize> = None;

    for (idx, line) in s.lines.iter().enumerate() {
        let lineno = idx + 1;
        if pending.is_none() && line_has_test_attr(line) {
            pending = Some(lineno);
        }
        for &b in line.as_bytes() {
            match b {
                b'{' => {
                    if let Some(start) = pending.take() {
                        open.push((start, depth));
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if let Some(&(start, d)) = open.last() {
                        if depth == d {
                            open.pop();
                            ranges.push((start, lineno));
                        }
                    }
                }
                b';' => {
                    // `#[cfg(test)] use foo;` — attribute consumed by a
                    // braceless item before any `{`; no region opens.
                    pending = None;
                }
                _ => {}
            }
        }
    }
    // Unclosed regions (truncated file): run to EOF.
    for (start, _) in open {
        ranges.push((start, s.lines.len()));
    }
    LineRanges(ranges)
}

/// Lines inside statements that introduce parallelism: rayon adapters
/// (`par_iter`, `par_chunks*`, `into_par_iter`, `par_bridge`),
/// `std::thread::scope`, `rayon::join`/`rayon::scope`, and `spawn(`.
/// The region runs from the trigger line to the end of the enclosing
/// statement (the `;` or closing brace that returns to the trigger
/// line's starting depth), which covers the whole closure chain fed to
/// the parallel adapter.
pub fn parallel_regions(s: &Scrubbed) -> LineRanges {
    const TRIGGERS: &[&str] = &[
        "par_iter",
        "par_chunks",
        "into_par_iter",
        "par_bridge",
        "thread::scope",
        "rayon::join",
        "rayon::scope",
        ".spawn(",
        "thread::spawn",
    ];
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    // (start_line, depth_at_line_start) for parallel statements still open.
    let mut open: Option<(usize, i64)> = None;
    let mut depth: i64 = 0;
    for (idx, line) in s.lines.iter().enumerate() {
        let lineno = idx + 1;
        let depth_at_start = depth;
        if open.is_none() && TRIGGERS.iter().any(|t| line.contains(t)) {
            open = Some((lineno, depth_at_start));
        }
        for &b in line.as_bytes() {
            match b {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => depth -= 1,
                b';' => {
                    if let Some((start, d)) = open {
                        // Statement end at the trigger's depth closes it.
                        if depth <= d {
                            ranges.push((start, lineno));
                            open = None;
                        }
                    }
                }
                _ => {}
            }
            if let Some((start, d)) = open {
                if depth < d {
                    ranges.push((start, lineno));
                    open = None;
                }
            }
        }
    }
    if let Some((start, _)) = open {
        ranges.push((start, s.lines.len()));
    }
    LineRanges(ranges)
}

/// Does this scrubbed line carry an outer test attribute? Inner
/// attributes (`#![…]`) contain no `#[` substring, so they never match.
fn line_has_test_attr(line: &str) -> bool {
    let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    compact.match_indices("#[").any(|(pos, _)| {
        let rest = &compact[pos + 2..];
        rest.starts_with("cfg(test)]")
            || rest.starts_with("test]")
            || rest.starts_with("cfg_attr(test,")
            || rest.starts_with("cfg(all(test")
            || rest.starts_with("cfg(any(test")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scrub;

    #[test]
    fn cfg_test_mod_is_a_region() {
        let src = "\
fn lib_code() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
fn more_lib() {}
";
        let r = test_regions(&scrub(src));
        assert!(!r.contains(1));
        assert!(r.contains(2));
        assert!(r.contains(5));
        assert!(!r.contains(7));
    }

    #[test]
    fn test_fn_outside_mod_is_a_region() {
        let src = "\
fn lib() {}
#[test]
fn standalone() {
    lib();
}
fn after() {}
";
        let r = test_regions(&scrub(src));
        assert!(r.contains(4));
        assert!(!r.contains(1));
        assert!(!r.contains(6));
    }

    #[test]
    fn inner_attr_does_not_open_a_region() {
        let src = "#![cfg_attr(test, allow(clippy::unwrap_used))]\nfn f() {}\n";
        let r = test_regions(&scrub(src));
        assert!(!r.contains(2));
    }

    #[test]
    fn braceless_cfg_test_item_is_skipped() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn f() { x(); }\n";
        let r = test_regions(&scrub(src));
        assert!(!r.contains(3));
    }

    #[test]
    fn parallel_statement_extent() {
        let src = "\
fn sweep(out: &mut [f64]) {
    out.par_chunks_mut(8)
        .enumerate()
        .for_each(|(k, chunk)| {
            chunk[0] = k as f64;
        });
    let serial: f64 = out.iter().sum();
    drop(serial);
}
";
        let r = parallel_regions(&scrub(src));
        assert!(r.contains(2));
        assert!(r.contains(5));
        assert!(r.contains(6));
        assert!(!r.contains(7), "serial tail must be outside the region");
    }

    #[test]
    fn thread_scope_region() {
        let src = "\
fn shard() {
    std::thread::scope(|scope| {
        scope.spawn(|| {});
    });
    after();
}
";
        let r = parallel_regions(&scrub(src));
        assert!(r.contains(2));
        assert!(r.contains(3));
        assert!(!r.contains(5));
    }
}
