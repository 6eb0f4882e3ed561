//! Negative fixture: every waiver suppresses a live finding.

pub fn logged(a_ms: u64, b_ns: u64) -> u64 {
    // xg-lint: allow(time-unit, logged beside the ns leg, never fed back)
    a_ms + b_ns
}
