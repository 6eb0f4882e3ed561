//! The stand-in `rand` (0.8.5 API subset) the workspace drew through
//! before [`crate::rng`] replaced it, kept verbatim but for its module
//! paths, its prelude, its `f32` and `u128` draws (the workspace made
//! neither) and its own tests, as the oracle of that module:
//! the property at the bottom holds every draw the workspace makes to this
//! code, bit for bit, over random seeds. Nothing here is shared with the
//! code it checks, so nothing here is ever "optimised".

#![allow(dead_code, unreachable_pub)]

use std::ops::{Range, RangeInclusive};

/// Low-level entropy source.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

/// Seedable generators. Only the `u64` convenience seeding the
/// workspace uses is provided.
pub trait SeedableRng: Sized {
    fn seed_from_u64(state: u64) -> Self;
}

/// High-level sampling helpers, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
        Self: Sized,
    {
        use distributions::Distribution;
        distributions::Standard.sample(self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

/// Ranges that can be sampled uniformly.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> T;
}

macro_rules! int_sample_range {
    ($($t:ty),+) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range in gen_range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                self.start.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range in gen_range");
                let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                if span == 0 {
                    // Full-width range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() as u128 % span) as $t)
            }
        }
    )+};
}
int_sample_range!(u8, u16, u32, u64, usize, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore>(self, rng: &mut R) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

pub mod distributions {
    //! The `Standard` distribution for primitive types.

    use super::RngCore;

    pub trait Distribution<T> {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Uniform over a type's natural domain; `[0, 1)` for floats.
    pub struct Standard;

    impl Distribution<f64> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
    impl Distribution<bool> for Standard {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    macro_rules! int_standard {
        ($($t:ty),+) => {$(
            impl Distribution<$t> for Standard {
                fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )+};
    }
    int_standard!(u8, u16, u32, u64, usize, i8, i16, i32, i64);
}

pub mod rngs {
    //! The standard seeded generator.

    use super::{RngCore, SeedableRng};

    /// xoshiro256** seeded by SplitMix64 — deterministic, fast, and
    /// statistically strong enough for the workspace's simulations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
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

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let v = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&v[..chunk.len()]);
            }
        }
    }
}

mod tests {
    use super::rngs::StdRng;
    use super::{Rng as _, SeedableRng};
    use crate::rng::{Rng, SplitMix64};
    use xg_prop::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each draw the workspace makes, in an order the seed picks, from
        /// the generator and from the retired `StdRng` with the same seed:
        /// words, unit floats, bits, `u64` ranges (full-width ones and
        /// spans of 1 to 3 included), `xg-hpc`'s inclusive `u32` range as its call site
        /// now writes it, float ranges, and `gen_bool` as the workspace
        /// writes it (`next_f64() < p`). Any one differing bit, or one
        /// word drawn more or less, fails.
        #[test]
        fn every_draw_matches_the_retired_stand_in_bit_for_bit(
            seed in any::<u64>(),
            order in any::<u64>(),
            (lo, span) in (any::<u64>(), 1u64..u64::MAX),
            max in 1u32..=u32::MAX,
            (start, width) in (-1e6f64..1e6, 1e-9f64..1e6),
            p in 0.0f64..1.0,
        ) {
            let (mut new, mut old) = (Rng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut pick = SplitMix64::new(order);
            for draw in 0..256 {
                // Every other draw takes a span of 1 to 3.
                let (span, max) = match draw % 2 {
                    0 => (span, max),
                    _ => (1 + span % 3, 1 + max % 3),
                };
                let (a, b) = match pick.next_u64() % 8 {
                    0 => (new.next_u64(), old.gen::<u64>()),
                    1 => (new.next_f64().to_bits(), old.gen::<f64>().to_bits()),
                    2 => (new.next_bool().into(), old.gen::<bool>().into()),
                    3 => {
                        let lo = lo.min(u64::MAX - span);
                        (new.range_u64(lo..lo + span), old.gen_range(lo..lo + span))
                    }
                    4 => (new.range_u64(0..u64::MAX), old.gen_range(0..u64::MAX)),
                    5 => (
                        new.range_u64(1..u64::from(max) + 1),
                        old.gen_range(1..=max).into(),
                    ),
                    6 => (
                        new.range_f64(start..start + width).to_bits(),
                        old.gen_range(start..start + width).to_bits(),
                    ),
                    _ => ((new.next_f64() < p).into(), old.gen_bool(p).into()),
                };
                prop_assert_eq!(a, b, "seed {:#x}, draw {}", seed, draw);
            }
            prop_assert_eq!(new.next_u64(), old.gen::<u64>(), "streams parted");
        }
    }
}
