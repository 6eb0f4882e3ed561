//! Statistical tests for telemetry change detection.
//!
//! The paper's Laminar program compares the most recent six telemetry
//! values (30 minutes at a 5-minute reporting interval) against the
//! previous six "using three different tests of statistical difference"
//! and a voting algorithm (§4.2). The three tests implemented here are:
//!
//! * Welch's t-test (difference of means under unequal variances),
//! * the Mann–Whitney U test (rank-based location shift), and
//! * the two-sample Kolmogorov–Smirnov test (distributional difference).
//!
//! All special functions (log-gamma, regularized incomplete beta, normal
//! CDF) are implemented in-tree with standard numerics so the crate stays
//! within the approved dependency set.

/// Outcome of a two-sample test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t, U, or D).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

impl TestResult {
    /// True if the test rejects "no change" at significance `alpha`.
    pub(crate) fn rejects(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

// ---------------------------------------------------------------------------
// Special functions
// ---------------------------------------------------------------------------

/// Natural log of the gamma function (Lanczos approximation).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function I_x(a, b) via the continued-fraction
/// expansion (Numerical Recipes `betai`/`betacf`).
pub(crate) fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta function.
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3e-14;
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Standard normal CDF via the complementary error function (Abramowitz &
/// Stegun 7.1.26-style rational approximation, |error| < 1.5e-7).
pub(crate) fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z / std::f64::consts::SQRT_2)
}

/// Complementary error function.
pub(crate) fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of freedom.
pub(crate) fn student_t_two_sided_p(t: f64, df: f64) -> f64 {
    if !t.is_finite() || df <= 0.0 {
        return 1.0;
    }
    let x = df / (df + t * t);
    beta_inc(0.5 * df, 0.5, x).clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn var(xs: &[f64], m: f64) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Welch's t-test for unequal variances.
///
/// Returns `None` if either sample has fewer than 2 points. Identical
/// constant samples yield p = 1 (no evidence of change).
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (var(a, ma), var(b, mb));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        // Zero variance in both samples: different means are an exact
        // difference, identical means are exact equality.
        let p = if (ma - mb).abs() > 0.0 { 0.0 } else { 1.0 };
        return Some(TestResult {
            statistic: if p == 0.0 { f64::INFINITY } else { 0.0 },
            p_value: p,
        });
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2
        / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0)).max(f64::MIN_POSITIVE);
    Some(TestResult {
        statistic: t,
        p_value: student_t_two_sided_p(t, df),
    })
}

/// Mann–Whitney U test with normal approximation (tie-corrected).
///
/// Returns `None` for empty samples.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let (na, nb) = (a.len() as f64, b.len() as f64);
    // Rank the pooled sample with midranks for ties.
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&x| (x, 0usize))
        .chain(b.iter().map(|&x| (x, 1usize)))
        .collect();
    pooled.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0;
        let t = (j - i + 1) as f64;
        if t > 1.0 {
            tie_term += t * t * t - t;
        }
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_a: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, grp), _)| *grp == 0)
        .map(|(_, &r)| r)
        .sum();
    let u_a = rank_sum_a - na * (na + 1.0) / 2.0;
    let u = u_a.min(na * nb - u_a);
    let mu = na * nb / 2.0;
    let n_tot = na + nb;
    let sigma2 = na * nb / 12.0 * ((n_tot + 1.0) - tie_term / (n_tot * (n_tot - 1.0)));
    if sigma2 <= 0.0 {
        // All values tied: no evidence of difference.
        return Some(TestResult {
            statistic: u,
            p_value: 1.0,
        });
    }
    // Continuity-corrected z.
    let z = (u - mu + 0.5) / sigma2.sqrt();
    let p = (2.0 * normal_cdf(z)).clamp(0.0, 1.0);
    Some(TestResult {
        statistic: u,
        p_value: p,
    })
}

/// Two-sample Kolmogorov–Smirnov test (asymptotic p-value).
///
/// Returns `None` for empty samples.
pub fn ks_test(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut xa = a.to_vec();
    let mut xb = b.to_vec();
    xa.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
    xb.sort_by(|p, q| p.partial_cmp(q).unwrap_or(std::cmp::Ordering::Equal));
    let (na, nb) = (xa.len(), xb.len());
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < na && j < nb {
        let x = xa[i].min(xb[j]);
        while i < na && xa[i] <= x {
            i += 1;
        }
        while j < nb && xb[j] <= x {
            j += 1;
        }
        let fa = i as f64 / na as f64;
        let fb = j as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (na * nb) as f64 / (na + nb) as f64;
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    // Kolmogorov distribution tail: Q(λ) = 2 Σ (-1)^{j-1} exp(-2 j² λ²).
    // The series does not converge as λ → 0; Q(0) = 1 exactly.
    if lambda < 1e-3 {
        return Some(TestResult {
            statistic: d,
            p_value: 1.0,
        });
    }
    let mut p = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = sign * (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        p += term;
        if term.abs() < 1e-12 {
            break;
        }
        sign = -sign;
    }
    Some(TestResult {
        statistic: d,
        p_value: (2.0 * p).clamp(0.0, 1.0),
    })
}

/// The paper's three-test battery with majority voting.
///
/// Runs all three tests at significance `alpha` and reports a change when
/// at least `votes_needed` of them reject. The paper arbitrates "between
/// them" with a voting algorithm at UCSB; the xGFabric default is a 2-of-3
/// majority.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChangeVote {
    /// Per-test rejection flags: [Welch t, Mann–Whitney, KS].
    pub rejections: [bool; 3],
    /// Number of tests that rejected.
    pub votes: u8,
    /// Whether the battery declares a change.
    pub changed: bool,
}

/// Run the three-test battery on two windows.
pub fn vote_change(prev: &[f64], recent: &[f64], alpha: f64, votes_needed: u8) -> ChangeVote {
    let r_t = welch_t_test(prev, recent).is_some_and(|r| r.rejects(alpha));
    let r_u = mann_whitney_u(prev, recent).is_some_and(|r| r.rejects(alpha));
    let r_ks = ks_test(prev, recent).is_some_and(|r| r.rejects(alpha));
    let votes = r_t as u8 + r_u as u8 + r_ks as u8;
    ChangeVote {
        rejections: [r_t, r_u, r_ks],
        votes,
        changed: votes >= votes_needed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1)=1, Γ(2)=1, Γ(5)=24, Γ(0.5)=√π.
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_bounds_and_symmetry() {
        assert_eq!(beta_inc(2.0, 3.0, 0.0), 0.0);
        assert_eq!(beta_inc(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a).
        let x = 0.3;
        let lhs = beta_inc(2.5, 1.5, x);
        let rhs = 1.0 - beta_inc(1.5, 2.5, 1.0 - x);
        assert!((lhs - rhs).abs() < 1e-10);
        // I_x(1,1) = x (uniform).
        assert!((beta_inc(1.0, 1.0, 0.42) - 0.42).abs() < 1e-10);
    }

    #[test]
    fn normal_cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn student_t_matches_known_quantiles() {
        // For df=10, t=2.228 is the 97.5% quantile: two-sided p = 0.05.
        let p = student_t_two_sided_p(2.228, 10.0);
        assert!((p - 0.05).abs() < 2e-3, "p {p}");
        // t=0 gives p=1.
        assert!((student_t_two_sided_p(0.0, 5.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn welch_detects_clear_shift() {
        let a = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0];
        let b = [5.0, 5.1, 4.9, 5.05, 4.95, 5.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p {}", r.p_value);
    }

    #[test]
    fn welch_accepts_identical_distributions() {
        let a = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert!((r.statistic).abs() < 1e-12);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn welch_zero_variance_cases() {
        let a = [2.0, 2.0, 2.0];
        let b = [3.0, 3.0, 3.0];
        assert_eq!(welch_t_test(&a, &b).unwrap().p_value, 0.0);
        assert_eq!(welch_t_test(&a, &a).unwrap().p_value, 1.0);
        assert!(welch_t_test(&[1.0], &a).is_none());
    }

    #[test]
    fn mann_whitney_detects_shift() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [11.0, 12.0, 13.0, 14.0, 15.0, 16.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 0.01, "p {}", r.p_value);
        assert_eq!(r.statistic, 0.0, "complete separation gives U=0");
    }

    #[test]
    fn mann_whitney_all_ties() {
        let a = [5.0; 6];
        let r = mann_whitney_u(&a, &a).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn mann_whitney_interleaved_is_insignificant() {
        let a = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0];
        let b = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.3, "p {}", r.p_value);
    }

    #[test]
    fn ks_detects_distribution_change() {
        let a = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02];
        let b = [3.0, 3.1, 2.9, 3.05, 2.95, 3.02];
        let r = ks_test(&a, &b).unwrap();
        assert_eq!(r.statistic, 1.0, "disjoint supports give D=1");
        assert!(r.p_value < 0.05, "p {}", r.p_value);
    }

    #[test]
    fn ks_identical_samples() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let r = ks_test(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!(r.p_value > 0.99);
    }

    #[test]
    fn empty_samples_return_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(ks_test(&[1.0], &[]).is_none());
    }

    #[test]
    fn vote_majority_semantics() {
        // Clear shift: all three reject.
        let prev = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0];
        let recent = [9.0, 9.1, 8.9, 9.05, 8.95, 9.0];
        let v = vote_change(&prev, &recent, 0.05, 2);
        assert!(v.changed);
        assert_eq!(v.votes, 3);

        // No shift: none reject.
        let v = vote_change(&prev, &prev, 0.05, 2);
        assert!(!v.changed);
        assert_eq!(v.votes, 0);
    }

    #[test]
    fn vote_threshold_matters() {
        // A marginal shift may split the tests; a 3-of-3 requirement is
        // stricter than 1-of-3 on the same data.
        let prev = [1.0, 1.2, 0.8, 1.1, 0.9, 1.05];
        let recent = [1.4, 1.6, 1.2, 1.5, 1.3, 1.45];
        let lenient = vote_change(&prev, &recent, 0.05, 1);
        let strict = vote_change(&prev, &recent, 0.05, 3);
        assert!(lenient.votes >= strict.votes.min(lenient.votes));
        assert!(lenient.changed || !strict.changed);
    }

    #[test]
    fn noisy_sensor_suppression() {
        // The paper's rationale: consecutive readings from noisy commodity
        // weather stations "may not be statistically determinable to be
        // different". Two windows drawn from the same noisy process should
        // rarely trigger.
        let prev = [3.2, 2.8, 3.5, 2.9, 3.1, 3.3];
        let recent = [3.0, 3.4, 2.7, 3.2, 3.05, 2.95];
        let v = vote_change(&prev, &recent, 0.05, 2);
        assert!(!v.changed, "noise must not trigger a CFD run");
    }
}
