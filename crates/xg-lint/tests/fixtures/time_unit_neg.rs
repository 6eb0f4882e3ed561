//! Negative fixture: same-unit math and explicit conversions pass.

pub struct SimNs(pub u64);

const NS_PER_MS: u64 = 1_000_000;

pub fn same(a_ms: u64, b_ms: u64) -> u64 {
    a_ms + b_ms
}

pub fn scaled(a_ms: u64, b_ns: u64) -> u64 {
    a_ms * NS_PER_MS + b_ns
}

pub fn divided(total_ns: u64) -> f64 {
    let total_ms = total_ns as f64 / 1e6;
    total_ms
}

pub fn converted(a_ms: u64) -> SimNs {
    SimNs(ms_to_ns(a_ms))
}

fn ms_to_ns(v_ms: u64) -> u64 {
    v_ms * 1_000_000
}

pub fn small_consts(t_ns: u64) -> (SimNs, SimNs, SimNs) {
    (SimNs(t_ns), SimNs(0), SimNs(100))
}

impl SimNs {
    /// The named const the raw-literal message asks for.
    pub const SECOND: SimNs = SimNs(1_000_000_000);
}
