//! The workspace's one random-number generator.
//!
//! Every stochastic layer of the fabric (sensor noise, RAN fading, WAN
//! jitter and outages, HPC background load) and every property test draws
//! from [`Rng`]: xoshiro256** (Blackman & Vigna, "Scrambled Linear
//! Pseudorandom Number Generators", 2021) with its state expanded from a
//! `u64` seed by [`SplitMix64`]. Seeding, words and each conversion below
//! are bit for bit those of the stand-in `rand` the workspace drew through
//! before, so no stream moved; the test-only `reference` module keeps that
//! code verbatim and a property holds this one to it.
//!
//! Only the draws the workspace makes exist: words, unit `f64`s, bits, and
//! uniform `u64` and `f64` ranges.
//!
//! [`SplitMix64`] (Steele, Lea & Flood, "Fast Splittable Pseudorandom
//! Number Generators", 2014) is also a stream of its own, an xApp's
//! private one in `xg-ric`, and its output finalizer [`mix`] derives the
//! per-cell and per-xApp seeds.

use std::ops::Range;

#[cfg(test)]
mod reference;

/// SplitMix64's increment: `2⁶⁴/φ`, odd, so the state walks every `u64`.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer: a bijection on `u64` in which every
/// input bit flips each output bit with probability ~½.
#[inline]
pub fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the state steps by [`GOLDEN_GAMMA`] and each word is its
/// [`mix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The stream whose first word is `mix(seed + GOLDEN_GAMMA)`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }
}

/// A source of 64-bit words: what [`crate::normal::standard`] draws from.
/// [`Rng`] is its one implementor outside tests; `normal`'s tests feed
/// scripted and counted words through it.
pub trait WordSource {
    /// The next word.
    fn next_u64(&mut self) -> u64;
}

/// `2⁻⁵³`: a 53-bit integer times this is a unit `f64`, exactly.
const TWO_POW_M53: f64 = 1.0 / (1u64 << 53) as f64;

/// xoshiro256**, seeded by [`SplitMix64`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is the first four words of
    /// `SplitMix64::new(seed)`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The next word.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform on `[0, 1)`: one word's top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * TWO_POW_M53
    }

    /// A fair coin: one word's lowest bit.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform on `range` (non-empty): `start + word mod (end − start)`,
    /// one word per draw.
    #[inline]
    pub fn range_u64(&mut self, range: Range<u64>) -> u64 {
        range.start + self.next_u64() % (range.end - range.start)
    }

    /// Uniform on `range`: `start + u·(end − start)` for one
    /// [`next_f64`](Rng::next_f64) `u`.
    #[inline]
    pub fn range_f64(&mut self, range: Range<f64>) -> f64 {
        range.start + self.next_f64() * (range.end - range.start)
    }
}

impl WordSource for Rng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}
