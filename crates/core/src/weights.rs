//! The weight-assignment formulas of §4.3.
//!
//! Every destination-selection algorithm in the paper reduces to assigning
//! a probability weight `W_i` to each of the `K` group members, subject to
//! `Σ W_i = 1` (eq. 1). These free functions implement the formulas; the
//! [`policy`](crate::policy) module wraps them in stateful strategies.
//!
//! All functions guarantee the returned vector is the same length as the
//! input, non-negative, finite, and sums to 1 (within floating-point
//! rounding) — the invariants the property tests pin down.

/// Unbiased weights of the ED algorithm, `W_i = 1/K` (eq. 2), written
/// into a caller-owned buffer.
///
/// The `_into` forms exist for policies that recompute weights on every
/// arrival (the admission controller hands every policy its request's
/// weight buffer): a reused flat buffer keeps that computation
/// allocation-free.
///
/// # Panics
///
/// Panics if `k` is zero.
pub(crate) fn uniform_weights_into(k: usize, out: &mut Vec<f64>) {
    assert!(k > 0, "cannot assign weights to an empty group");
    out.clear();
    out.resize(k, 1.0 / k as f64);
}

/// Normalises `weights` in place so they sum to one (eq. 1, eq. 10).
///
/// If every weight is zero the result is the uniform distribution — the
/// neutral fallback when an algorithm's status information degenerates
/// (e.g. WD/D+B with zero bandwidth everywhere).
///
/// # Panics
///
/// Panics if `weights` is empty, or any weight is negative or non-finite.
pub(crate) fn normalize_weights(weights: &mut [f64]) {
    assert!(
        !weights.is_empty(),
        "cannot normalise an empty weight vector"
    );
    let mut sum = 0.0;
    for &w in weights.iter() {
        assert!(
            w.is_finite() && w >= 0.0,
            "weights must be finite and non-negative, got {w}"
        );
        sum += w;
    }
    if sum <= 0.0 {
        let k = weights.len() as f64;
        weights.iter_mut().for_each(|w| *w = 1.0 / k);
    } else {
        weights.iter_mut().for_each(|w| *w /= sum);
    }
}

/// Distance-biased weights, `W_i ∝ 1/D_i` (eq. 4), written into a
/// caller-owned buffer (see [`uniform_weights_into`] for why).
///
/// The paper measures `D_i` as the hop count of the fixed route to member
/// `i`. A member co-located with the source has hop count 0; its effective
/// distance is clamped to 1 so the weight stays finite (such a member is
/// maximally attractive, which matches the intent of eq. 3).
///
/// # Panics
///
/// Panics if `distances` is empty.
pub(crate) fn distance_weights_into(distances: &[u32], out: &mut Vec<f64>) {
    assert!(!distances.is_empty(), "need at least one distance");
    out.clear();
    out.extend(distances.iter().map(|&d| 1.0 / f64::from(d.max(1))));
    normalize_weights(out);
}

/// The damping factor `α^h` of eqs. (8)–(9): 1 for a clean record
/// (`0⁰ = 1` included), `alpha.powi(h)` otherwise.
pub(crate) fn history_damping(alpha: f64, h: u32) -> f64 {
    if h == 0 {
        1.0
    } else {
        alpha.powi(h.min(i32::MAX as u32) as i32)
    }
}

/// History-adjusted weights of WD/D+H (eqs. 8–10), written into a
/// caller-owned buffer (see [`uniform_weights_into`] for why), with the
/// damping `α^h` supplied by `damp`.
///
/// Starting from `base` weights (eq. 4 in the paper's initialisation),
/// members with recent consecutive failures `h_i > 0` are damped by
/// `α^{h_i}` and the freed probability mass `AW` (eq. 8) is redistributed
/// uniformly over the `M` members with clean records (eq. 9), then the
/// whole vector is renormalised (eq. 10).
///
/// Edge cases the paper leaves implicit:
///
/// * `α = 0` gives history maximal impact (`0⁰ = 1`, so clean members are
///   unaffected while any failure zeroes a member);
/// * `α = 1` disables history entirely (the result is `base` renormalised);
/// * when *no* member has a clean record (`M = 0`) there is nowhere to
///   redistribute `AW`, so only the damping step applies before
///   renormalisation;
/// * if damping annihilates every weight (e.g. `α = 0` and all `h_i > 0`)
///   the result falls back to the uniform distribution via
///   [`normalize_weights`].
///
/// `damp(0)` must be 1; the policy
/// passes a table lookup whose entries are [`history_damping`]'s.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty, or if any base
/// weight is negative/non-finite.
pub(crate) fn history_adjusted_weights_into(
    base: &[f64],
    history: &[u32],
    damp: impl Fn(u32) -> f64,
    out: &mut Vec<f64>,
) {
    assert_eq!(
        base.len(),
        history.len(),
        "base weights and history must have equal length"
    );
    assert!(!base.is_empty(), "need at least one member");
    // Eq. (8): adjustable mass. alpha^0 = 1 so clean members contribute 0.
    let aw: f64 = base
        .iter()
        .zip(history)
        .map(|(&w, &h)| {
            assert!(
                w.is_finite() && w >= 0.0,
                "base weights must be finite and non-negative, got {w}"
            );
            w * (1.0 - damp(h))
        })
        .sum();
    // Eq. (9): damp the tainted, boost the clean.
    let m = history.iter().filter(|&&h| h == 0).count();
    let bonus = if m > 0 { aw / m as f64 } else { 0.0 };
    out.clear();
    out.extend(
        base.iter()
            .zip(history)
            .map(|(&w, &h)| if h == 0 { w + bonus } else { w * damp(h) }),
    );
    // Eq. (10): renormalise.
    normalize_weights(out);
}

/// Bandwidth/distance weights of WD/D+B, `W_i ∝ B_i / D_i` (eq. 12),
/// written into a caller-owned buffer (see [`uniform_weights_into`] for
/// why).
///
/// `route_bandwidth[i]` is the bottleneck available bandwidth `B_i` of the
/// fixed route to member `i` (eq. 11), in any consistent unit. When every
/// route reports zero bandwidth the dynamic signal is useless, so the
/// algorithm degrades gracefully to pure distance weighting (eq. 4) —
/// selection still happens and the reservation attempt will fail naturally,
/// keeping overhead accounting comparable across algorithms.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty, or if any bandwidth
/// is negative or non-finite (NaN/∞).
pub(crate) fn bandwidth_distance_weights_into(
    route_bandwidth: &[f64],
    distances: &[u32],
    out: &mut Vec<f64>,
) {
    assert_eq!(
        route_bandwidth.len(),
        distances.len(),
        "bandwidths and distances must have equal length"
    );
    assert!(!distances.is_empty(), "need at least one member");
    for &b in route_bandwidth {
        assert!(
            b.is_finite() && b >= 0.0,
            "route bandwidth must be finite and non-negative, got {b}"
        );
    }
    if route_bandwidth.iter().all(|&b| b == 0.0) {
        distance_weights_into(distances, out);
        return;
    }
    out.clear();
    out.extend(
        route_bandwidth
            .iter()
            .zip(distances)
            .map(|(&b, &d)| b / f64::from(d.max(1))),
    );
    normalize_weights(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Runs an `_into` formula on a fresh buffer.
    fn fresh(f: impl FnOnce(&mut Vec<f64>)) -> Vec<f64> {
        let mut out = Vec::new();
        f(&mut out);
        out
    }

    fn assert_distribution(w: &[f64]) {
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "sum {w:?}");
        assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn uniform_is_one_over_k() {
        let w = fresh(|o| uniform_weights_into(5, o));
        assert_distribution(&w);
        assert!(w.iter().all(|&x| (x - 0.2).abs() < 1e-15));
    }

    #[test]
    fn normalize_handles_all_zero() {
        let mut w = vec![0.0, 0.0, 0.0, 0.0];
        normalize_weights(&mut w);
        assert_distribution(&w);
        assert!((w[0] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn distance_weights_prefer_near_members() {
        // Distances 1, 2, 4 → weights ∝ 1, 0.5, 0.25.
        let w = fresh(|o| distance_weights_into(&[1, 2, 4], o));
        assert_distribution(&w);
        assert!((w[0] - 4.0 / 7.0).abs() < 1e-12);
        assert!((w[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((w[2] - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_clamped() {
        let w = fresh(|o| distance_weights_into(&[0, 1], o));
        assert_distribution(&w);
        assert!(
            (w[0] - 0.5).abs() < 1e-12,
            "co-located member treated as d=1"
        );
    }

    #[test]
    fn history_alpha_one_is_identity() {
        let base = fresh(|o| distance_weights_into(&[1, 2, 3], o));
        let w = fresh(|o| {
            history_adjusted_weights_into(&base, &[4, 0, 7], |h| history_damping(1.0, h), o)
        });
        for (a, b) in w.iter().zip(&base) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn history_alpha_zero_kills_failed_members() {
        let base = fresh(|o| uniform_weights_into(3, o));
        let w = fresh(|o| {
            history_adjusted_weights_into(&base, &[1, 0, 2], |h| history_damping(0.0, h), o)
        });
        assert_distribution(&w);
        assert_eq!(w[0], 0.0);
        assert_eq!(w[2], 0.0);
        assert!((w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn history_redistributes_mass_to_clean_members() {
        // Hand-computed: base uniform over 4, h = [2,0,0,0], α = 0.5.
        // damp(2) = 0.25; AW = 0.25 * 0.75 = 0.1875; M = 3, bonus = 0.0625.
        // adjusted = [0.0625, 0.3125, 0.3125, 0.3125] (already sums to 1).
        let base = fresh(|o| uniform_weights_into(4, o));
        let w = fresh(|o| {
            history_adjusted_weights_into(&base, &[2, 0, 0, 0], |h| history_damping(0.5, h), o)
        });
        assert_distribution(&w);
        assert!((w[0] - 0.0625).abs() < 1e-12);
        for &x in &w[1..] {
            assert!((x - 0.3125).abs() < 1e-12);
        }
    }

    #[test]
    fn history_all_failed_keeps_relative_damping() {
        // M = 0: only damping applies, then renormalisation.
        // base uniform over 2, h = [1, 2], α = 0.5 → damped [.25, .125]
        // → normalised [2/3, 1/3].
        let base = fresh(|o| uniform_weights_into(2, o));
        let w = fresh(|o| {
            history_adjusted_weights_into(&base, &[1, 2], |h| history_damping(0.5, h), o)
        });
        assert_distribution(&w);
        assert!((w[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((w[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn history_all_failed_alpha_zero_falls_back_to_uniform() {
        let base = fresh(|o| distance_weights_into(&[1, 3], o));
        let w = fresh(|o| {
            history_adjusted_weights_into(&base, &[1, 1], |h| history_damping(0.0, h), o)
        });
        assert_distribution(&w);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_weights_follow_eq12() {
        // B = [10, 20], D = [1, 2] → B/D = [10, 10] → uniform.
        let w = fresh(|o| bandwidth_distance_weights_into(&[10.0, 20.0], &[1, 2], o));
        assert_distribution(&w);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_zero_everywhere_degrades_to_distance() {
        let w = fresh(|o| bandwidth_distance_weights_into(&[0.0, 0.0], &[1, 3], o));
        let d = fresh(|o| distance_weights_into(&[1, 3], o));
        assert_eq!(w, d);
    }

    #[test]
    fn bandwidth_partial_zero_excludes_member() {
        let w = fresh(|o| bandwidth_distance_weights_into(&[0.0, 5.0], &[1, 1], o));
        assert_distribution(&w);
        assert_eq!(w[0], 0.0);
        assert!((w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn into_overwrites_a_dirty_buffer() {
        let distances = [1u32, 2, 4, 0, 7];
        let history = [0u32, 3, 1, 0, 2];
        let bw = [5.0, 0.0, 12.5, 3.25, 9.0];
        // A dirty, over-long buffer must be fully overwritten.
        let mut buf = vec![f64::NAN; 16];

        uniform_weights_into(5, &mut buf);
        assert_eq!(buf, fresh(|o| uniform_weights_into(5, o)));

        distance_weights_into(&distances, &mut buf);
        assert_eq!(buf, fresh(|o| distance_weights_into(&distances, o)));

        let base = fresh(|o| distance_weights_into(&distances, o));
        for alpha in [0.0, 0.5, 1.0] {
            let damp = |h| history_damping(alpha, h);
            history_adjusted_weights_into(&base, &history, damp, &mut buf);
            assert_eq!(
                buf,
                fresh(|o| history_adjusted_weights_into(
                    &base,
                    &history,
                    |h| history_damping(alpha, h),
                    o
                ))
            );
        }

        bandwidth_distance_weights_into(&bw, &distances, &mut buf);
        assert_eq!(
            buf,
            fresh(|o| bandwidth_distance_weights_into(&bw, &distances, o))
        );

        // All-zero bandwidth takes the distance fallback inside _into too.
        bandwidth_distance_weights_into(&[0.0; 5], &distances, &mut buf);
        assert_eq!(buf, fresh(|o| distance_weights_into(&distances, o)));
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_history_panics() {
        let _ = fresh(|o| {
            history_adjusted_weights_into(&[0.5, 0.5], &[0], |h| history_damping(0.5, h), o)
        });
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn uniform_zero_panics() {
        let _ = fresh(|o| uniform_weights_into(0, o));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_panics() {
        let _ = fresh(|o| bandwidth_distance_weights_into(&[-1.0], &[1], o));
    }

    fn prop_distribution(w: &[f64]) -> Result<(), TestCaseError> {
        prop_assert!(!w.is_empty());
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}: {w:?}");
        for &x in w {
            prop_assert!(x.is_finite() && x >= 0.0, "bad weight {x} in {w:?}");
        }
        Ok(())
    }

    proptest! {
        /// Every weight formula yields a probability distribution (eq. 1),
        /// for arbitrary distances, histories and bandwidths.
        #[test]
        fn all_weight_formulas_are_distributions(
            entries in prop::collection::vec((0u32..50, 0u32..20, 0.0f64..1e9), 1..12),
            alpha in 0.0f64..=1.0,
        ) {
            let distances: Vec<u32> = entries.iter().map(|e| e.0).collect();
            let history: Vec<u32> = entries.iter().map(|e| e.1).collect();
            let bandwidth: Vec<f64> = entries.iter().map(|e| e.2).collect();
            prop_distribution(&fresh(|o| uniform_weights_into(distances.len(), o)))?;
            let base = fresh(|o| distance_weights_into(&distances, o));
            prop_distribution(&base)?;
            prop_distribution(&fresh(|o| history_adjusted_weights_into(&base, &history, |h| history_damping(alpha, h), o)))?;
            prop_distribution(&fresh(|o| bandwidth_distance_weights_into(&bandwidth, &distances, o)))?;
        }

        /// Normalisation is idempotent and scale-invariant.
        #[test]
        fn normalize_idempotent_and_scale_invariant(
            raw in prop::collection::vec(0.0f64..1e6, 1..10),
            scale in 0.001f64..1e3,
        ) {
            let mut a = raw.clone();
            normalize_weights(&mut a);
            let mut b: Vec<f64> = raw.iter().map(|x| x * scale).collect();
            normalize_weights(&mut b);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
            }
            let mut again = a.clone();
            normalize_weights(&mut again);
            for (x, y) in a.iter().zip(&again) {
                prop_assert!((x - y).abs() < 1e-12);
            }
        }

        /// A member with strictly more failures never gets a larger
        /// history-adjusted weight than an otherwise identical member.
        #[test]
        fn more_failures_never_increase_weight(
            k in 2usize..8,
            h_low in 0u32..5,
            extra in 1u32..5,
            alpha in 0.01f64..0.99,
        ) {
            let base = fresh(|o| uniform_weights_into(k, o));
            let mut history = vec![0u32; k];
            history[0] = h_low;
            history[1] = h_low + extra;
            let w = fresh(|o| history_adjusted_weights_into(&base, &history, |h| history_damping(alpha, h), o));
            prop_assert!(
                w[1] <= w[0] + 1e-12,
                "h={history:?} α={alpha}: w={w:?}"
            );
        }

        /// WD/D+B weights are monotone in route bandwidth: raising one
        /// route's bandwidth never lowers its weight.
        #[test]
        fn wddb_monotone_in_bandwidth(
            k in 2usize..8,
            bw in prop::collection::vec(0.0f64..1e8, 8),
            boost in 1.0f64..1e6,
        ) {
            let distances: Vec<u32> = (1..=k as u32).collect();
            let bw = &bw[..k];
            let before = fresh(|o| bandwidth_distance_weights_into(bw, &distances, o));
            let mut boosted = bw.to_vec();
            boosted[0] += boost;
            let after = fresh(|o| bandwidth_distance_weights_into(&boosted, &distances, o));
            // Degenerate all-zero case falls back to distance weights, where
            // the comparison still holds (first member gains mass).
            prop_assert!(after[0] >= before[0] - 1e-12);
        }
    }
}
