//! Report rendering: human diagnostics, one line per finding plus a
//! summary line stamped with the rule-set version.

use crate::rules::Finding;
use crate::RULES_VERSION;

/// A completed lint run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, waived and unwaived, in (file, line) order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by a reasoned waiver.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Count of unwaived findings (the gate statistic).
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Render human diagnostics. Waived findings appear only with
    /// `show_waived`.
    pub fn to_human(&self, show_waived: bool) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.waived && !show_waived {
                continue;
            }
            if f.waived {
                s.push_str(&format!(
                    "{}:{}: {} [waived: {}]\n",
                    f.file,
                    f.line,
                    f.rule.name(),
                    f.reason.as_deref().unwrap_or("")
                ));
            } else {
                s.push_str(&format!(
                    "{}:{}: {}: {}\n",
                    f.file,
                    f.line,
                    f.rule.name(),
                    f.message
                ));
            }
        }
        let waived = self.findings.len() - self.unwaived_count();
        s.push_str(&format!(
            "xg-lint {}: {} files, {} finding(s), {} waived, {} unwaived\n",
            RULES_VERSION,
            self.files_scanned,
            self.findings.len(),
            waived,
            self.unwaived_count()
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn sample() -> Report {
        Report {
            files_scanned: 2,
            findings: vec![
                Finding {
                    file: "a.rs".to_string(),
                    line: 3,
                    rule: Rule::TimeUnit,
                    message: "`a_ms` (ms) and `b_ns` (ns) mixed across `+`".to_string(),
                    waived: false,
                    reason: None,
                },
                Finding {
                    file: "b.rs".to_string(),
                    line: 7,
                    rule: Rule::FloatReduce,
                    message: "m".to_string(),
                    waived: true,
                    reason: Some("max is \"order\"-independent".to_string()),
                },
            ],
        }
    }

    #[test]
    fn human_hides_waived_by_default() {
        let r = sample();
        let h = r.to_human(false);
        assert!(h.contains("a.rs:3"));
        assert!(!h.contains("b.rs:7"));
        assert!(r.to_human(true).contains("b.rs:7"));
        assert!(h.contains("1 waived, 1 unwaived"));
    }
}
