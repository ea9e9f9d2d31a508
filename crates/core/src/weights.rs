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

/// Unbiased weights of the ED algorithm: `W_i = 1/K` (eq. 2).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn uniform_weights(k: usize) -> Vec<f64> {
    let mut out = Vec::new();
    uniform_weights_into(k, &mut out);
    out
}

/// [`uniform_weights`] writing into a caller-owned buffer.
///
/// The `_into` variants exist for policies that recompute weights on every
/// arrival (the admission controller hands every policy its request's
/// weight buffer): a reused flat buffer keeps that computation
/// allocation-free. Each produces bit-identical results to its allocating
/// twin — same formula, same operation order.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn uniform_weights_into(k: usize, out: &mut Vec<f64>) {
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
pub fn normalize_weights(weights: &mut [f64]) {
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

/// Distance-biased weights: `W_i ∝ 1/D_i` (eq. 4).
///
/// The paper measures `D_i` as the hop count of the fixed route to member
/// `i`. A member co-located with the source has hop count 0; its effective
/// distance is clamped to 1 so the weight stays finite (such a member is
/// maximally attractive, which matches the intent of eq. 3).
///
/// # Panics
///
/// Panics if `distances` is empty.
pub fn distance_weights(distances: &[u32]) -> Vec<f64> {
    let mut out = Vec::new();
    distance_weights_into(distances, &mut out);
    out
}

/// [`distance_weights`] writing into a caller-owned buffer (see
/// [`uniform_weights_into`] for why the `_into` family exists).
///
/// # Panics
///
/// Panics if `distances` is empty.
pub fn distance_weights_into(distances: &[u32], out: &mut Vec<f64>) {
    assert!(!distances.is_empty(), "need at least one distance");
    out.clear();
    out.extend(distances.iter().map(|&d| 1.0 / f64::from(d.max(1))));
    normalize_weights(out);
}

/// The damping factor `α^h` of eqs. (8)–(9): 1 for a clean record
/// (`0⁰ = 1` included), `alpha.powi(h)` otherwise.
pub fn history_damping(alpha: f64, h: u32) -> f64 {
    if h == 0 {
        1.0
    } else {
        alpha.powi(h.min(i32::MAX as u32) as i32)
    }
}

/// History-adjusted weights of WD/D+H (eqs. 8–10).
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
/// # Panics
///
/// Panics if the slices differ in length or are empty, if any base weight
/// is negative/non-finite, or if `alpha` is outside `[0, 1]`.
pub fn history_adjusted_weights(base: &[f64], history: &[u32], alpha: f64) -> Vec<f64> {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "alpha must lie in [0, 1], got {alpha}"
    );
    let mut out = Vec::new();
    history_adjusted_weights_into(base, history, |h| history_damping(alpha, h), &mut out);
    out
}

/// [`history_adjusted_weights`] writing into a caller-owned buffer (see
/// [`uniform_weights_into`] for why the `_into` family exists), with the
/// damping `α^h` supplied by `damp`. `damp(0)` must be 1; the policy
/// passes a table lookup whose entries are [`history_damping`]'s.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty, or if any base
/// weight is negative/non-finite.
pub fn history_adjusted_weights_into(
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

/// Bandwidth/distance weights of WD/D+B: `W_i ∝ B_i / D_i` (eq. 12).
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
pub fn bandwidth_distance_weights(route_bandwidth: &[f64], distances: &[u32]) -> Vec<f64> {
    let mut out = Vec::new();
    bandwidth_distance_weights_into(route_bandwidth, distances, &mut out);
    out
}

/// [`bandwidth_distance_weights`] writing into a caller-owned buffer (see
/// [`uniform_weights_into`] for why the `_into` family exists).
///
/// # Panics
///
/// Same contract as [`bandwidth_distance_weights`].
pub fn bandwidth_distance_weights_into(
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

    fn assert_distribution(w: &[f64]) {
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12, "sum {w:?}");
        assert!(w.iter().all(|&x| x >= 0.0 && x.is_finite()));
    }

    #[test]
    fn uniform_is_one_over_k() {
        let w = uniform_weights(5);
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
        let w = distance_weights(&[1, 2, 4]);
        assert_distribution(&w);
        assert!((w[0] - 4.0 / 7.0).abs() < 1e-12);
        assert!((w[1] - 2.0 / 7.0).abs() < 1e-12);
        assert!((w[2] - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_clamped() {
        let w = distance_weights(&[0, 1]);
        assert_distribution(&w);
        assert!(
            (w[0] - 0.5).abs() < 1e-12,
            "co-located member treated as d=1"
        );
    }

    #[test]
    fn history_alpha_one_is_identity() {
        let base = distance_weights(&[1, 2, 3]);
        let w = history_adjusted_weights(&base, &[4, 0, 7], 1.0);
        for (a, b) in w.iter().zip(&base) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn history_alpha_zero_kills_failed_members() {
        let base = uniform_weights(3);
        let w = history_adjusted_weights(&base, &[1, 0, 2], 0.0);
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
        let base = uniform_weights(4);
        let w = history_adjusted_weights(&base, &[2, 0, 0, 0], 0.5);
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
        let base = uniform_weights(2);
        let w = history_adjusted_weights(&base, &[1, 2], 0.5);
        assert_distribution(&w);
        assert!((w[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((w[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn history_all_failed_alpha_zero_falls_back_to_uniform() {
        let base = distance_weights(&[1, 3]);
        let w = history_adjusted_weights(&base, &[1, 1], 0.0);
        assert_distribution(&w);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_weights_follow_eq12() {
        // B = [10, 20], D = [1, 2] → B/D = [10, 10] → uniform.
        let w = bandwidth_distance_weights(&[10.0, 20.0], &[1, 2]);
        assert_distribution(&w);
        assert!((w[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_zero_everywhere_degrades_to_distance() {
        let w = bandwidth_distance_weights(&[0.0, 0.0], &[1, 3]);
        let d = distance_weights(&[1, 3]);
        assert_eq!(w, d);
    }

    #[test]
    fn bandwidth_partial_zero_excludes_member() {
        let w = bandwidth_distance_weights(&[0.0, 5.0], &[1, 1]);
        assert_distribution(&w);
        assert_eq!(w[0], 0.0);
        assert!((w[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn into_variants_are_bit_identical_and_reuse_buffers() {
        let distances = [1u32, 2, 4, 0, 7];
        let history = [0u32, 3, 1, 0, 2];
        let bw = [5.0, 0.0, 12.5, 3.25, 9.0];
        // A dirty, over-long buffer must be fully overwritten.
        let mut buf = vec![f64::NAN; 16];

        uniform_weights_into(5, &mut buf);
        assert_eq!(buf, uniform_weights(5));

        distance_weights_into(&distances, &mut buf);
        assert_eq!(buf, distance_weights(&distances));

        let base = distance_weights(&distances);
        for alpha in [0.0, 0.5, 1.0] {
            let damp = |h| history_damping(alpha, h);
            history_adjusted_weights_into(&base, &history, damp, &mut buf);
            assert_eq!(buf, history_adjusted_weights(&base, &history, alpha));
        }

        bandwidth_distance_weights_into(&bw, &distances, &mut buf);
        assert_eq!(buf, bandwidth_distance_weights(&bw, &distances));

        // All-zero bandwidth takes the distance fallback inside _into too.
        bandwidth_distance_weights_into(&[0.0; 5], &distances, &mut buf);
        assert_eq!(buf, distance_weights(&distances));
    }

    #[test]
    #[should_panic(expected = "alpha must lie in [0, 1]")]
    fn invalid_alpha_panics() {
        let _ = history_adjusted_weights(&[1.0], &[0], 1.5);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_history_panics() {
        let _ = history_adjusted_weights(&[0.5, 0.5], &[0], 0.5);
    }

    #[test]
    #[should_panic(expected = "empty group")]
    fn uniform_zero_panics() {
        let _ = uniform_weights(0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_bandwidth_panics() {
        let _ = bandwidth_distance_weights(&[-1.0], &[1]);
    }
}
