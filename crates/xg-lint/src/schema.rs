//! The checked-in observability name schema: `obs-schema.toml`.
//!
//! Every metric, span, and profile-path name the workspace emits through
//! `xg-obs` must be declared here, and every declared name must be
//! emitted somewhere — the `obs-name` rule enforces both directions, so
//! a typo'd series (`fabric.gatway.backlog`) fails CI instead of
//! silently splitting a time series, and a renamed instrument cannot
//! leave its old schema row behind undocumented.
//!
//! The file is a deliberately small TOML subset (the workspace carries
//! no TOML dependency by policy): three tables, quoted dotted keys, one
//! string value per key.
//!
//! ```toml
//! [metrics]
//! "fabric.report_cycles" = "counter | closed report cycles completed"
//! "fabric.ran.*" = "gauge | per-cell gauges; names format!-built per cell"
//! "fabric.future_thing" = "reserved | counter landing with the fleet PR"
//!
//! [spans]
//! "fabric.cycle.transfer" = "sim | gateway -> CSPOT transfer leg"
//!
//! [profiles]
//! "ric.step" = "per-period RIC engine step"
//! ```
//!
//! Two markers carry semantics:
//!
//! * a key ending in `.*` is a **wildcard**: it covers every emitted
//!   name sharing the prefix, and — because the covered names are
//!   `format!`-built at runtime — it is exempt from the
//!   emitted-somewhere reverse check;
//! * a value whose first `|`-separated field is `reserved` marks a name
//!   that is declared ahead of the code that will emit it; it is exempt
//!   from the reverse check until the emitter lands.

/// Which `xg-obs` namespace a name lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObsKind {
    /// Counter/gauge/histogram names registered on the metrics registry.
    Metric,
    /// Span names recorded through the tracer.
    Span,
    /// Profiler attribution paths (slash-joined).
    Profile,
}

impl ObsKind {
    /// Schema table header for this kind.
    pub fn table(self) -> &'static str {
        match self {
            ObsKind::Metric => "metrics",
            ObsKind::Span => "spans",
            ObsKind::Profile => "profiles",
        }
    }
}

/// One schema row.
#[derive(Debug, Clone)]
pub struct ObsEntry {
    /// Declared name (verbatim, including a trailing `.*` wildcard).
    pub name: String,
    /// Namespace the row was declared under.
    pub kind: ObsKind,
    /// 1-based line in `obs-schema.toml`.
    pub line: usize,
    /// Wildcard row (`name` ends in `.*`).
    pub wildcard: bool,
    /// Declared ahead of its emitter; exempt from the reverse check.
    pub reserved: bool,
}

/// The parsed schema.
#[derive(Debug, Clone, Default)]
pub struct ObsSchema {
    entries: Vec<ObsEntry>,
}

impl ObsSchema {
    /// Parse the schema file. Errors carry the offending 1-based line.
    pub fn parse(text: &str) -> Result<ObsSchema, String> {
        let mut entries = Vec::new();
        let mut kind: Option<ObsKind> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                kind = Some(match section.trim() {
                    "metrics" => ObsKind::Metric,
                    "spans" => ObsKind::Span,
                    "profiles" => ObsKind::Profile,
                    other => {
                        return Err(format!(
                        "line {lineno}: unknown table [{other}] (expected metrics|spans|profiles)"
                    ))
                    }
                });
                continue;
            }
            let Some(kind) = kind else {
                return Err(format!(
                    "line {lineno}: entry before any [metrics]/[spans]/[profiles] table"
                ));
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `\"name\" = \"desc\"`"));
            };
            let name = unquote(key.trim())
                .ok_or_else(|| format!("line {lineno}: key must be a quoted name"))?;
            let value = unquote(value.trim())
                .ok_or_else(|| format!("line {lineno}: value must be a quoted string"))?;
            if name.is_empty() {
                return Err(format!("line {lineno}: empty name"));
            }
            let reserved = value
                .split('|')
                .next()
                .map(|f| f.trim().eq_ignore_ascii_case("reserved"))
                .unwrap_or(false);
            entries.push(ObsEntry {
                wildcard: name.ends_with(".*"),
                name: name.to_string(),
                kind,
                line: lineno,
                reserved,
            });
        }
        Ok(ObsSchema { entries })
    }

    /// Does the schema declare `name` in namespace `kind` (exactly, or
    /// via a wildcard row)?
    pub fn covers(&self, kind: ObsKind, name: &str) -> bool {
        self.entries.iter().any(|e| {
            e.kind == kind
                && if e.wildcard {
                    name.starts_with(&e.name[..e.name.len() - 1])
                } else {
                    e.name == name
                }
        })
    }

    /// All rows, in declaration order.
    pub fn entries(&self) -> &[ObsEntry] {
        &self.entries
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No rows at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"'))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# names the workspace may emit
[metrics]
"fabric.report_cycles" = "counter | cycles closed"
"fabric.ran.*" = "gauge | per-cell, format!-built"
"fabric.future" = "reserved | lands with PR 11"

[spans]
"fabric.cycle.transfer" = "sim | transfer leg"

[profiles]
"ric.step" = "per-period step"
"#;

    #[test]
    fn parses_and_covers() {
        let s = ObsSchema::parse(SAMPLE).expect("sample parses");
        assert_eq!(s.len(), 5);
        assert!(s.covers(ObsKind::Metric, "fabric.report_cycles"));
        assert!(
            !s.covers(ObsKind::Span, "fabric.report_cycles"),
            "kind-scoped"
        );
        assert!(
            s.covers(ObsKind::Metric, "fabric.ran.UNL-5G.fade_db"),
            "wildcard prefix"
        );
        assert!(
            !s.covers(ObsKind::Metric, "fabric.random"),
            "wildcard needs the dot prefix"
        );
        assert!(s.covers(ObsKind::Profile, "ric.step"));
        assert!(!s.covers(ObsKind::Metric, "fabric.gatway.backlog"));
    }

    #[test]
    fn markers_parse() {
        let s = ObsSchema::parse(SAMPLE).expect("sample parses");
        let by_name = |n: &str| s.entries().iter().find(|e| e.name == n).expect("entry");
        assert!(by_name("fabric.ran.*").wildcard);
        assert!(by_name("fabric.future").reserved);
        assert!(!by_name("fabric.report_cycles").reserved);
    }

    #[test]
    fn errors_carry_lines() {
        assert!(ObsSchema::parse("\"x\" = \"y\"\n")
            .unwrap_err()
            .contains("before any"));
        assert!(ObsSchema::parse("[weird]\n")
            .unwrap_err()
            .contains("unknown table"));
        assert!(ObsSchema::parse("[metrics]\nnot-quoted = \"y\"\n")
            .unwrap_err()
            .contains("quoted name"));
    }
}
