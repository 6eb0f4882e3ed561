//! Positive fixture: a waiver whose finding is long gone.

// xg-lint: allow(time-unit, stale - the mixed sum this covered was removed)
pub fn nothing_to_suppress() {}

pub fn used(a_ms: u64, b_ns: u64) -> u64 {
    // xg-lint: allow(time-unit, logged beside the ns leg, this waiver is live)
    a_ms + b_ns
}
