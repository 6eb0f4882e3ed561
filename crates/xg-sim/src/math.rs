//! `exp` and `ln` from IEEE 754 basic operations only.
//!
//! `f64::exp` and `f64::ln` call the host's libm, which is not correctly
//! rounded and differs between glibc, musl and macOS, so a digest that
//! depends on them is a property of the platform as well as of the seed.
//! These two use `+ − × ÷`, comparisons and `to_bits`/`from_bits` — every
//! one correctly rounded by IEEE 754 — in a fixed order, so they return the
//! same bits on every host. Both are `const fn`: the lookup tables of
//! [`crate::normal`] and of the link-adaptation curve are built from them by
//! the compiler, whose const evaluator does IEEE arithmetic in software.
//!
//! Each is a fixed reduction by `ln 2` plus a fixed series; both agree with
//! a correctly rounded result to within an ulp or so over their domains
//! (the test module holds them to std's within 2 ulp).

/// `ln 2`, split so that `k · LN2_HI` is exact for every `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
/// `ln 2 − LN2_HI`.
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Above this `exp` overflows.
const EXP_MAX: f64 = 709.782_712_893_384;
/// Below this `exp` underflows to zero.
const EXP_MIN: f64 = -745.133_219_101_941_1;

/// `2^k` for `-1022 <= k <= 1023`.
const fn pow2(k: i64) -> f64 {
    f64::from_bits(((k + 1023) as u64) << 52)
}

/// `e^x`.
///
/// `x = k·ln 2 + r` with `|r| ≤ ln 2 / 2`, `e^r` by its Taylor series to
/// the 13th power (the next term is below 2⁻⁵⁷ of the sum), then an exact
/// scale by `2^k`.
pub const fn exp(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    if x > EXP_MAX {
        return f64::INFINITY;
    }
    if x < EXP_MIN {
        return 0.0;
    }
    let t = x * std::f64::consts::LOG2_E;
    let k = (if t < 0.0 { t - 0.5 } else { t + 0.5 }) as i64;
    let kf = k as f64;
    let r = (x - kf * LN2_HI) - kf * LN2_LO;
    // e^r − 1 − r = r²·(1/2! + r/3! + … + r¹¹/13!), innermost term first.
    let mut q = 0.0;
    let mut n = 13;
    while n >= 2 {
        q = q * r + INV_FACTORIAL[n];
        n -= 1;
    }
    let y = 1.0 + (r + r * r * q);
    if k > 1023 {
        y * pow2(1023) * pow2(k - 1023)
    } else if k < -1022 {
        y * pow2(-1022) * pow2(k + 1022)
    } else {
        y * pow2(k)
    }
}

/// `1/n!` for `n ≤ 13` (`n!` itself is exact in `f64`).
const INV_FACTORIAL: [f64; 14] = {
    let (mut inv, mut fact) = ([1.0; 14], 1.0);
    let mut n = 1;
    while n < 14 {
        fact *= n as f64;
        inv[n] = 1.0 / fact;
        n += 1;
    }
    inv
};

/// `2/(2n + 1)` for `n ≤ 11`: the odd-power coefficients of `2·atanh`.
const ATANH_COEF: [f64; 12] = {
    let mut c = [0.0; 12];
    let mut n = 1;
    while n < 12 {
        c[n] = 2.0 / (2 * n + 1) as f64;
        n += 1;
    }
    c
};

/// `ln x`.
///
/// `x = 2^k · (1 + f)` with `√2/2 ≤ 1 + f < √2`, so `f` is exact; then
/// `ln(1 + f) = 2·atanh(s)`, `s = f / (2 + f)`, `|s| ≤ 0.172`, written as
/// `f − (f²/2 − s·(f²/2 + R))` with `R = Σ 2s²ⁿ/(2n + 1)` to `n = 11` (the
/// next term is below 2⁻⁶⁵), so the large part `f` carries no rounding.
pub const fn ln(x: f64) -> f64 {
    if x.is_nan() || x < 0.0 {
        return f64::NAN;
    }
    if x == 0.0 {
        return f64::NEG_INFINITY;
    }
    if x == f64::INFINITY {
        return x;
    }
    let (mut bits, mut k) = (x.to_bits(), 0i64);
    if bits >> 52 == 0 {
        // Subnormal: scale into the normal range first.
        bits = (x * pow2(54)).to_bits();
        k = -54;
    }
    k += ((bits >> 52) as i64) - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m *= 0.5;
        k += 1;
    }
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let mut r = 0.0;
    let mut n = 11;
    while n >= 1 {
        r = (r + ATANH_COEF[n]) * z;
        n -= 1;
    }
    let hfsq = 0.5 * f * f;
    let kf = k as f64;
    kf * LN2_HI - ((hfsq - (s * (hfsq + r) + kf * LN2_LO)) - f)
}

// The std calls below are the oracle, not the code under test.
#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Distance in representable doubles (both finite, same sign).
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn exp_within_two_ulp_of_std_over_a_million_draws() {
        let mut rng = Rng::seed_from_u64(0xE4);
        let mut worst = (0, 0.0);
        for i in 0..1_000_000 {
            // Half the draws over the whole normal range, half near 0
            // where the reduction does nothing.
            let x = if i % 2 == 0 {
                rng.range_f64(-708.0..709.0)
            } else {
                rng.range_f64(-2.0..2.0)
            };
            let d = ulps(exp(x), x.exp());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 2, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn ln_within_two_ulp_of_std_over_a_million_draws() {
        let mut rng = Rng::seed_from_u64(0x1E);
        let mut worst = (0, 0.0);
        for i in 0..1_000_000 {
            // Every positive normal exponent alike, and densely around 1
            // where the result is small.
            let x = if i % 2 == 0 {
                f64::from_bits(rng.range_u64(1u64 << 52..0x7ff0_0000_0000_0000))
            } else {
                rng.range_f64(0.25..4.0)
            };
            let d = ulps(ln(x), x.ln());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 2, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn edges() {
        assert_eq!(exp(0.0), 1.0);
        assert!(ulps(exp(1.0), std::f64::consts::E) <= 1);
        assert_eq!(exp(800.0), f64::INFINITY);
        assert_eq!(exp(-800.0), 0.0);
        assert_eq!(exp(f64::NEG_INFINITY), 0.0);
        assert!(exp(f64::NAN).is_nan());
        assert!(ulps(exp(-744.0), (-744.0f64).exp()) <= 2);
        assert!(ulps(exp(709.7), 709.7f64.exp()) <= 2);
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(2.0), std::f64::consts::LN_2);
        assert!(ulps(ln(10.0), std::f64::consts::LN_10) <= 1);
        assert_eq!(ln(0.0), f64::NEG_INFINITY);
        assert_eq!(ln(f64::INFINITY), f64::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f64::NAN).is_nan());
        let tiny = f64::from_bits(1);
        assert!(ulps(ln(tiny), tiny.ln()) <= 2);
        assert!(ulps(ln(f64::MAX), f64::MAX.ln()) <= 2);
    }

    #[test]
    fn usable_in_constants() {
        const E: f64 = exp(1.0);
        const L: f64 = ln(E);
        assert!((L - 1.0).abs() < 1e-15);
    }
}
