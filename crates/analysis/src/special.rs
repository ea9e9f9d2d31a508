//! Special functions: the (complementary) error function of eq. (29).
//!
//! `std` has no `erf`/`erfc`, and the dependency budget excludes `libm`,
//! so we implement the classic Chebyshev-fitted rational approximation
//! (Numerical Recipes §6.2, after Hastings): fractional error below
//! `1.2 × 10⁻⁷` everywhere — far tighter than the fixed-point tolerances
//! that consume it.

/// The complementary error function `erfc(x) = (2/√π) ∫ₓ^∞ e^(−t²) dt`
/// (eq. 29 of the paper).
///
/// Accurate to a fractional error below `1.2 × 10⁻⁷` for all finite `x`.
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

/// The scaled complementary error function `erfcx(x) = e^{x²}·erfc(x)` for
/// `x ≥ 0`.
///
/// `erfc(x)` underflows to zero near `x ≈ 27`, but ratios like
/// `erfc(x)/e^{−x²}` stay perfectly finite; the UAA's heavy-overload branch
/// needs exactly that ratio, so it is computed without the underflowing
/// exponential (the same rational fit as [`erfc`], dropping the `e^{−x²}`
/// factor).
///
/// # Panics
///
/// Panics if `x` is negative (use [`erfc`] there — no scaling is needed).
pub(crate) fn erfcx(x: f64) -> f64 {
    assert!(x >= 0.0, "erfcx is implemented for non-negative x, got {x}");
    let t = 1.0 / (1.0 + 0.5 * x);
    t * (-1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
        .exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath to 20 digits.
    const REFERENCE: [(f64, f64); 9] = [
        (0.0, 1.0),
        (0.1, 0.887_537_083_981_715),
        (0.5, 0.479_500_122_186_953_5),
        (1.0, 0.157_299_207_050_285_13),
        (1.5, 0.033_894_853_524_689_27),
        (2.0, 0.004_677_734_981_063_32),
        (3.0, 2.209_049_699_858_544e-5),
        (4.0, 1.541_725_790_028_002e-8),
        (5.0, 1.537_459_794_428_035e-12),
    ];

    #[test]
    fn matches_reference_values() {
        for (x, expected) in REFERENCE {
            let got = erfc(x);
            let rel = ((got - expected) / expected).abs();
            assert!(
                rel < 2e-7,
                "erfc({x}) = {got}, expected {expected}, rel {rel}"
            );
        }
    }

    #[test]
    fn negative_axis_by_symmetry() {
        for (x, expected) in REFERENCE {
            let got = erfc(-x);
            assert!(
                (got - (2.0 - expected)).abs() < 3e-7,
                "erfc({}) = {got}",
                -x
            );
        }
    }

    #[test]
    fn monotone_decreasing() {
        let mut prev = erfc(-6.0);
        let mut x = -6.0;
        while x < 6.0 {
            x += 0.05;
            let cur = erfc(x);
            assert!(cur <= prev + 1e-12, "erfc not monotone at {x}");
            prev = cur;
        }
    }

    #[test]
    fn erfcx_matches_unscaled_where_both_work() {
        for x in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0] {
            let scaled = erfcx(x) * (-x * x).exp();
            let rel = if erfc(x) > 0.0 {
                ((scaled - erfc(x)) / erfc(x)).abs()
            } else {
                0.0
            };
            assert!(rel < 1e-12, "erfcx({x}) inconsistent with erfc: {rel}");
        }
    }

    #[test]
    fn erfcx_survives_huge_arguments() {
        // Asymptotically erfcx(x) ≈ 1/(x·√π).
        for x in [50.0, 500.0, 5_000.0] {
            let v = erfcx(x);
            let asym = 1.0 / (x * std::f64::consts::PI.sqrt());
            assert!(
                ((v - asym) / asym).abs() < 0.01,
                "erfcx({x}) = {v}, asym {asym}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn erfcx_rejects_negative() {
        let _ = erfcx(-0.1);
    }

    #[test]
    fn bounds() {
        for i in -100..=100 {
            let x = i as f64 / 10.0;
            let v = erfc(x);
            assert!((0.0..=2.0).contains(&v), "erfc({x}) = {v} out of [0,2]");
        }
    }

    proptest::proptest! {
        /// erfc stays within [0, 2], is monotone decreasing, and satisfies
        /// the reflection identity erfc(−x) = 2 − erfc(x).
        #[test]
        fn erfc_shape(x in -8.0f64..8.0) {
            let v = erfc(x);
            proptest::prop_assert!((0.0..=2.0).contains(&v));
            proptest::prop_assert!(erfc(x + 0.01) <= v + 1e-12);
            proptest::prop_assert!((erfc(-x) - (2.0 - v)).abs() < 3e-7);
        }
    }
}
