// Waiver-parsing fixture: reasoned waivers (trailing and line-above),
// a reasonless waiver, and an unknown-rule waiver. The reasoned legs
// mix units on purpose: they are logged side by side, never summed.

pub fn probe(a_ms: u64, b_ns: u64) -> (u64, u64) {
    // xg-lint: allow(time-unit, logged beside the ns leg, never fed back)
    let d = a_ms + b_ns;
    let e = b_ns - a_ms; // xg-lint: allow(time-unit, second leg of the same log line)
    (d, e)
}

pub fn bad_waivers(x: Option<u32>, a_ms: u64, b_ns: u64) -> u64 {
    // xg-lint: allow(time-unit)
    let t = a_ms + b_ns;
    // xg-lint: allow(not-a-rule, with a reason)
    let _ = x;
    t
}
