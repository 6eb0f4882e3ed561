//! Standard normal variates: a 256-layer Marsaglia–Tsang ziggurat.
//!
//! The density `e^{−x²/2}` is covered by 256 layers of equal area `V`: a
//! base strip (the rectangle under `x ≤ R` plus the tail beyond it) and 255
//! rectangles stacked on it. A draw takes one `next_u64`: its low 8 bits
//! pick a layer `i`, bit 11 a sign and the top 52 bits `k` a magnitude
//! `m = (2k+1)·2⁻⁵³ ∈ (0, 1)`, and `x = ±m·X[i]`. When `m·X[i] < X[i+1]`
//! the point lies under the curve whatever its height, and `x` is returned
//! — ~99 % of draws end there. That fast path is inlined into the caller
//! and is one word, one multiply, one compare: `m` is built by writing `k`
//! under the exponent of 1.0 and subtracting (no int→float conversion),
//! and the sign is one XOR into the product's sign bit (no branch to
//! mispredict). The conversion matters more than its latency suggests:
//! `cvtsi2sd` writes only the low lane of its register, so without a
//! dependency-breaking `xorps` every draw waits for the caller's last
//! long-latency write of that register; a version that kept it ran 4.5×
//! faster on its own yet made the RAN slot loop slower. Otherwise the
//! point is in layer `i`'s wedge, accepted against `e^{−x²/2}` by one
//! more uniform, or (layer 0) in the tail, sampled by Marsaglia's
//! exponential method; both live out of line in `rare`. They use
//! [`crate::math`], so every draw is a function of the stream alone, on
//! any host.
//!
//! The layer edges `X` and heights `F = e^{−X²/2}` are `static`s the
//! compiler computes from `R` and `V` (Marsaglia & Tsang, "The Ziggurat
//! Method for Generating Random Variables", 2000): 4 KB of read-only data.

use crate::math;
use crate::rng::WordSource;

/// Layers of the ziggurat.
const LAYERS: usize = 256;
/// Where the base strip's rectangle ends and the tail begins.
pub const TAIL_START: f64 = 3.654_152_885_361_009;
/// The area of every layer, for the unnormalised density `e^{−x²/2}`.
const AREA: f64 = 4.928_673_233_99e-3;

/// `√a` for `a > 0` by a fixed 8-step Newton iteration from an exponent
/// halving; `f64::sqrt` is not usable in a constant.
const fn const_sqrt(a: f64) -> f64 {
    let mut y = f64::from_bits((a.to_bits() >> 1) + (1023 << 51));
    let mut step = 0;
    while step < 8 {
        y = 0.5 * (y + a / y);
        step += 1;
    }
    y
}

/// `(X, F)`: the layer edges, `X[0] = V / f(R)` (the base strip's width as
/// a rectangle), `X[1] = R`, each next edge the one that gives the layer
/// below it area `V`, `X[256] = 0`; and `F[i] = e^{−X[i]²/2}`.
const fn layers() -> ([f64; LAYERS + 1], [f64; LAYERS + 1]) {
    let mut x = [0.0; LAYERS + 1];
    let mut f = [0.0; LAYERS + 1];
    f[1] = math::exp(-0.5 * TAIL_START * TAIL_START);
    x[0] = AREA / f[1];
    f[0] = math::exp(-0.5 * x[0] * x[0]);
    x[1] = TAIL_START;
    let mut i = 2;
    while i < LAYERS {
        x[i] = const_sqrt(-2.0 * math::ln(AREA / x[i - 1] + f[i - 1]));
        f[i] = math::exp(-0.5 * x[i] * x[i]);
        i += 1;
    }
    f[LAYERS] = 1.0;
    (x, f)
}

const LAYER_TABLES: ([f64; LAYERS + 1], [f64; LAYERS + 1]) = layers();

/// Layer edges, widest first: layer `i` spans `|x| < X[i]` between
/// heights `F[i]` and `F[i+1]`.
pub static LAYER_X: [f64; LAYERS + 1] = LAYER_TABLES.0;
/// `e^{−X[i]²/2}` for each edge of [`LAYER_X`].
pub static LAYER_F: [f64; LAYERS + 1] = LAYER_TABLES.1;

/// `2⁻⁵³`.
const TWO_POW_M53: f64 = 1.0 / (1u64 << 53) as f64;
/// The bits of `1.0`: a 52-bit integer OR-ed under them reads `1 + k·2⁻⁵²`.
const ONE_BITS: u64 = 0x3ff0_0000_0000_0000;

/// Uniform on `[0, 1)` from the top 53 bits of one draw.
fn unit<W: WordSource + ?Sized>(rng: &mut W) -> f64 {
    (rng.next_u64() >> 11) as f64 * TWO_POW_M53
}

/// One word's layer `i`, its candidate `x = ±m·X[i]`, and whether `|x|`
/// lies inside the next layer's edge (the draw is accepted as it stands).
///
/// `m = (1 + k·2⁻⁵²) − 1 + 2⁻⁵³` is exact at each step (the subtraction
/// by Sterbenz, the sum because `(2k+1)·2⁻⁵³` has 53 significant bits),
/// so it equals `(k + ½)·2⁻⁵²` bit for bit; and flipping the sign bit of
/// `m·X` is exact because IEEE rounding is symmetric, `(−m)·X = −(m·X)`.
#[inline(always)]
fn candidate(bits: u64) -> (usize, f64, bool) {
    let i = (bits & 0xff) as usize;
    let m = (f64::from_bits(ONE_BITS | bits >> 12) - 1.0) + TWO_POW_M53;
    let y = m * LAYER_X[i];
    let x = f64::from_bits(y.to_bits() ^ ((bits & 1 << 11) << 52));
    (i, x, y < LAYER_X[i + 1])
}

/// One standard normal variate.
#[inline]
pub fn standard<W: WordSource + ?Sized>(rng: &mut W) -> f64 {
    let (i, x, inside) = candidate(rng.next_u64());
    if inside {
        return x;
    }
    rare(rng, i, x)
}

/// The ~1 % of draws whose first word falls outside its layer's core:
/// the tail (layer 0), or a wedge test that accepts `x` or redraws a whole
/// word and starts over.
#[cold]
#[inline(never)]
fn rare<W: WordSource + ?Sized>(rng: &mut W, mut i: usize, mut x: f64) -> f64 {
    loop {
        if i == 0 {
            let tail = tail(rng);
            return if x < 0.0 { -tail } else { tail };
        }
        let height = LAYER_F[i] + unit(rng) * (LAYER_F[i + 1] - LAYER_F[i]);
        if height < math::exp(-0.5 * x * x) {
            return x;
        }
        let inside;
        (i, x, inside) = candidate(rng.next_u64());
        if inside {
            return x;
        }
    }
}

/// `|x|` conditioned on `|x| > R`: Marsaglia's method, two uniforms on
/// `(0, 1]` per attempt.
fn tail<W: WordSource + ?Sized>(rng: &mut W) -> f64 {
    loop {
        let a = math::ln(1.0 - unit(rng)) / TAIL_START;
        let b = math::ln(1.0 - unit(rng));
        if -2.0 * b >= a * a {
            return TAIL_START - a;
        }
    }
}

// Box–Muller and `erf` call libm: they are the oracles here.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The sampler this one replaced: Box–Muller, one variate per two
    /// uniforms, `ln` and `cos` from libm.
    fn box_muller(rng: &mut Rng) -> f64 {
        let u1: f64 = 1.0 - rng.next_f64();
        let u2: f64 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// `2⁻⁵²`.
    const TWO_POW_M52: f64 = 1.0 / (1u64 << 52) as f64;

    /// The sampler as it read before the inline fast path, verbatim: the
    /// oracle `fast_path_matches_the_parent_bit_for_bit` holds
    /// [`standard`] to. It shares only the tables, `unit` and `tail`.
    fn parent_standard<W: WordSource + ?Sized>(rng: &mut W) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let magnitude = ((bits >> 12) as f64 + 0.5) * TWO_POW_M52;
            let x = if bits & (1 << 11) == 0 {
                magnitude * LAYER_X[i]
            } else {
                -magnitude * LAYER_X[i]
            };
            if x.abs() < LAYER_X[i + 1] {
                return x;
            }
            if i == 0 {
                let tail = tail(rng);
                return if x < 0.0 { -tail } else { tail };
            }
            let height = LAYER_F[i] + unit(rng) * (LAYER_F[i + 1] - LAYER_F[i]);
            if height < math::exp(-0.5 * x * x) {
                return x;
            }
        }
    }

    /// `Φ(x)` to ~1e-15 absolute: `erf(z) = 2/√π · e^{−z²} · Σ 2ⁿ z^{2n+1}
    /// / (1·3···(2n+1))`, a series of positive terms.
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let (mut term, mut sum, mut n) = (z, z, 0.0);
        while term > 1e-17 * sum {
            n += 1.0;
            term *= 2.0 * z * z / (2.0 * n + 1.0);
            sum += term;
        }
        let erf = 2.0 / std::f64::consts::PI.sqrt() * (-z * z).exp() * sum;
        let upper = 0.5 * (1.0 + erf.min(1.0));
        if x < 0.0 {
            1.0 - upper
        } else {
            upper
        }
    }

    /// `sup |F_n − Φ|` of a sample.
    fn ks_to_phi(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(f64::total_cmp);
        let n = xs.len() as f64;
        xs.iter().enumerate().fold(0.0, |d, (i, &x)| {
            let p = phi(x);
            d.max(p - i as f64 / n).max((i + 1) as f64 / n - p)
        })
    }

    /// `sup |F_a − F_b|` of two samples of equal size.
    fn ks_two_sample(mut a: Vec<f64>, mut b: Vec<f64>) -> f64 {
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / a.len() as f64);
        }
        d
    }

    fn draws(seed: u64, n: usize, sample: fn(&mut Rng) -> f64) -> Vec<f64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| sample(&mut rng)).collect()
    }

    #[test]
    fn tables_are_a_ziggurat_of_equal_layers() {
        assert!(LAYER_X.iter().chain(&LAYER_F).all(|v| v.is_finite()));
        assert!(LAYER_X.windows(2).all(|w| w[0] > w[1]), "edges decrease");
        assert_eq!(
            (LAYER_X[1], LAYER_X[LAYERS], LAYER_F[LAYERS]),
            (TAIL_START, 0.0, 1.0)
        );
        for (i, (&x, &f)) in LAYER_X.iter().zip(&LAYER_F).enumerate() {
            assert!((f - (-0.5 * x * x).exp()).abs() <= 1e-15, "F[{i}]");
        }
        for a in [1e-3, 0.04, 0.5, 1.0, 2.0, 13.3, 1e6] {
            assert!((const_sqrt(a) - a.sqrt()).abs() <= 1e-15 * a.sqrt(), "√{a}");
        }
        // Every stacked rectangle has the base strip's area, the top one
        // (closed by X[256] = 0 rather than by the recursion) included.
        for i in 1..LAYERS {
            let area = LAYER_X[i] * (LAYER_F[i + 1] - LAYER_F[i]);
            assert!((area / AREA - 1.0).abs() < 1e-6, "layer {i}: {area:e}");
        }
        let tail = (1.0 - phi(TAIL_START)) * (2.0 * std::f64::consts::PI).sqrt();
        let base = TAIL_START * LAYER_F[1] + tail;
        assert!((base / AREA - 1.0).abs() < 1e-9, "base strip {base:e}");
    }

    #[test]
    fn ks_distance_to_phi_is_small_over_a_million_draws() {
        let zig = draws(0x2196, 1_000_000, standard);
        let d = ks_to_phi(zig.clone());
        assert!(d <= 2e-3, "ziggurat D = {d:e}");
        // The retired sampler on the same footing, and the two against
        // each other.
        let bm = draws(0x2197, 1_000_000, box_muller);
        assert!(ks_to_phi(bm.clone()) <= 2e-3);
        let d2 = ks_two_sample(zig, bm);
        assert!(d2 <= 3e-3, "ziggurat vs Box–Muller D = {d2:e}");
    }

    #[test]
    fn three_and_four_sigma_tails_match_phi() {
        let n = 20_000_000;
        let mut rng = Rng::seed_from_u64(0x7A11);
        let (mut beyond3, mut beyond4, mut beyond_tail) = (0u64, 0u64, 0u64);
        for _ in 0..n {
            let x = standard(&mut rng).abs();
            beyond3 += (x > 3.0) as u64;
            beyond4 += (x > 4.0) as u64;
            beyond_tail += (x > TAIL_START) as u64;
        }
        for (count, at) in [(beyond3, 3.0), (beyond4, 4.0), (beyond_tail, TAIL_START)] {
            let want = 2.0 * (1.0 - phi(at)) * n as f64;
            let ratio = count as f64 / want;
            assert!(
                (ratio - 1.0).abs() < 0.1,
                "P(|x| > {at}): {count} vs {want:.0}"
            );
        }
    }

    #[test]
    fn moments_and_symmetry() {
        let xs = draws(0xA0, 4_000_000, standard);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let m2 = xs.iter().map(|x| x * x).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| x * x * x).sum::<f64>() / n;
        let m4 = xs.iter().map(|x| (x * x) * (x * x)).sum::<f64>() / n;
        assert!(mean.abs() < 2e-3, "mean {mean}");
        assert!((m2 - 1.0).abs() < 3e-3, "variance {m2}");
        assert!(m3.abs() < 1e-2, "third moment {m3}");
        assert!((m4 - 3.0).abs() < 2.5e-2, "fourth moment {m4}");
    }

    #[test]
    fn fast_path_takes_one_draw_about_99_percent_of_the_time() {
        struct Counting(Rng, u64);
        impl WordSource for Counting {
            fn next_u64(&mut self) -> u64 {
                self.1 += 1;
                self.0.next_u64()
            }
        }
        let mut rng = Counting(Rng::seed_from_u64(3), 0);
        let n = 1_000_000;
        let one_draw = (0..n)
            .filter(|_| {
                let before = rng.1;
                standard(&mut rng);
                rng.1 - before == 1
            })
            .count();
        let share = one_draw as f64 / n as f64;
        assert!((0.985..0.995).contains(&share), "{share}");
        assert!((rng.1 as f64 / n as f64) < 1.03, "{} draws", rng.1);
    }

    #[test]
    fn same_stream_same_variates() {
        assert_eq!(draws(9, 1_000, standard), draws(9, 1_000, standard));
    }

    /// Words from a script, then from a seeded stream, counted: every
    /// branch of the sampler is reached by choosing the first words.
    struct Scripted {
        script: Vec<u64>,
        rest: Rng,
        taken: usize,
    }

    impl Scripted {
        fn new(script: &[u64]) -> Self {
            Scripted {
                script: script.to_vec(),
                rest: Rng::seed_from_u64(0x5C21),
                taken: 0,
            }
        }
    }

    impl WordSource for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.taken += 1;
            match self.script.get(self.taken - 1) {
                Some(&word) => word,
                None => self.rest.next_u64(),
            }
        }
    }

    /// A word with layer `i`, magnitude bits `k` and the sign bit set or
    /// clear.
    fn word(i: u64, k: u64, negative: bool) -> u64 {
        k << 12 | (negative as u64) << 11 | i
    }

    #[test]
    fn fast_path_matches_the_parent_bit_for_bit() {
        // 2.5 million draws from each of four seeds, compared as bits.
        for seed in [42, 7, 13, 0xDEAD_BEEF] {
            let (mut new, mut old) = (Rng::seed_from_u64(seed), Rng::seed_from_u64(seed));
            for n in 0..2_500_000 {
                let (a, b) = (standard(&mut new), parent_standard(&mut old));
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "seed {seed}, draw {n}: {a} vs {b}"
                );
            }
            assert_eq!(
                new.next_u64(),
                old.next_u64(),
                "seed {seed}: streams diverged"
            );
        }

        // Scripted first words that reach each branch: (script, the words
        // the draw must take, or `None` for "more than two", and whether
        // the first word's sign bit is the variate's sign).
        let top = (1u64 << 52) - 1;
        // A wedge point of layer 100, halfway between its two edges.
        let mid = (LAYER_X[100] + LAYER_X[101]) / (2.0 * LAYER_X[100]);
        let k_mid = (mid * (1u64 << 52) as f64) as u64;
        let mut cases: Vec<(Vec<u64>, Option<usize>, bool)> = Vec::new();
        for negative in [false, true] {
            cases.extend([
                // The smallest magnitude, and a middling one, in a core.
                (vec![word(7, 0, negative)], Some(1), true),
                (vec![word(0, 0, negative)], Some(1), true),
                (vec![word(1, top / 2, negative)], Some(1), true),
                // The largest magnitude is past every core: layer 0's
                // tail (two uniforms per attempt), or a wedge rejected at
                // the highest height and redrawn from a whole new word.
                (vec![word(0, top, negative)], None, true),
                (vec![word(200, top, negative), u64::MAX], None, false),
                // A wedge accept (lowest height) and a wedge reject.
                (vec![word(100, k_mid, negative), 0], Some(2), true),
                (vec![word(100, k_mid, negative), u64::MAX], None, false),
                // The top layer has no core: always a wedge test.
                (vec![word(255, 0, negative), 0], Some(2), true),
            ]);
        }
        for (script, words, first_word_signs) in cases {
            let (mut new, mut old) = (Scripted::new(&script), Scripted::new(&script));
            let (a, b) = (standard(&mut new), parent_standard(&mut old));
            assert_eq!(a.to_bits(), b.to_bits(), "{script:x?}: {a} vs {b}");
            assert_eq!(new.taken, old.taken, "{script:x?}");
            match words {
                Some(n) => assert_eq!(new.taken, n, "{script:x?}"),
                None => assert!(new.taken > 2, "{script:x?} took {}", new.taken),
            }
            if first_word_signs {
                assert_eq!(
                    a < 0.0,
                    script[0] & 1 << 11 != 0,
                    "{script:x?}: sign of {a}"
                );
            }
        }
    }
}
