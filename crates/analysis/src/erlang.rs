//! The Erlang-B loss formula.

/// Server count above which [`erlang_b`] switches from the forward
/// recursion to the log-space inverse recursion of [`erlang_b_ln`].
///
/// The forward recursion is exact and fast for the paper's link sizes
/// (312 slots), but on links with many thousands of slots its running
/// blocking estimate underflows to a hard `0.0` long before the last
/// server, losing the magnitude entirely; the log-space path keeps the
/// exponent. The two paths agree to well below the fixed-point tolerance
/// around the threshold (see the `paths_agree_at_threshold` test).
const LOG_SPACE_SERVERS: u32 = 4_096;

/// Blocking probability of an Erlang loss system offered `load` erlangs
/// with `servers` circuits — `L(b, v_l, C_l)` of eq. (16) evaluated
/// exactly.
///
/// Because every anycast flow in the paper's experiments demands the same
/// bandwidth (64 kb/s), a link with capacity `C_l` behaves as an
/// `M/M/C_l/C_l` system in units of flow slots and Erlang-B is *exact* for
/// an isolated link; the UAA of Appendix A is its asymptotic
/// approximation. Computed with the standard numerically stable recursion
/// `E_k = a·E_{k−1} / (k + a·E_{k−1})`, which never overflows; above
/// `LOG_SPACE_SERVERS` circuits it switches to `exp` of
/// [`erlang_b_ln`], whose log-space inverse recursion cannot underflow to
/// zero prematurely, so 10k-server links still return the correctly
/// rounded (possibly subnormal) probability instead of a sticky `0.0`.
///
/// Zero load blocks nothing; zero servers block everything (with positive
/// load).
///
/// # Panics
///
/// Panics if `load` is negative or non-finite.
///
/// ```rust
/// use anycast_analysis::erlang_b;
/// // Classic table value: 10 erlangs on 10 circuits ≈ 0.2146.
/// assert!((erlang_b(10.0, 10) - 0.2146).abs() < 1e-4);
/// ```
pub fn erlang_b(load: f64, servers: u32) -> f64 {
    assert!(
        load.is_finite() && load >= 0.0,
        "offered load must be finite and non-negative, got {load}"
    );
    if load == 0.0 {
        return 0.0;
    }
    if servers == 0 {
        return 1.0;
    }
    if servers > LOG_SPACE_SERVERS {
        return erlang_b_ln(load, servers).exp();
    }
    let mut b = 1.0;
    for k in 1..=servers {
        b = load * b / (k as f64 + load * b);
    }
    b
}

/// Natural logarithm of the Erlang-B blocking probability, computed
/// entirely in log space so extreme parameters never overflow, underflow
/// or produce NaN.
///
/// Uses the inverse recursion `I_k = 1 + (k/a)·I_{k−1}` with
/// `B = 1/I_C`, carried as `ln I_k` via `ln(1 + e^x)`: `I` grows like
/// `C!/a^C` under light load — far beyond `f64::MAX` for large `C` —
/// but its logarithm stays small. This is what makes very lightly loaded
/// 10k-server links usable: plain [`erlang_b`]'s forward recursion (and
/// any linear-space inverse recursion) returns `0.0` there, while the log
/// value (e.g. ≈ −2.9e4 for 100 erlangs on 10 000 servers) retains the
/// full magnitude for log-domain composition.
///
/// Conventions mirror [`erlang_b`]: zero load returns
/// `f64::NEG_INFINITY` (blocking 0), zero servers return `0.0`
/// (blocking 1).
///
/// # Panics
///
/// Panics if `load` is negative or non-finite.
pub fn erlang_b_ln(load: f64, servers: u32) -> f64 {
    assert!(
        load.is_finite() && load >= 0.0,
        "offered load must be finite and non-negative, got {load}"
    );
    if servers == 0 {
        return 0.0;
    }
    if load == 0.0 {
        return f64::NEG_INFINITY;
    }
    let ln_a = load.ln();
    let mut ln_inv = 0.0f64; // ln I_0 = ln 1
    for k in 1..=servers {
        // ln I_k = ln(1 + (k/a)·I_{k−1}) = ln(1 + e^{ln k − ln a + ln I_{k−1}}).
        let x = (k as f64).ln() - ln_a + ln_inv;
        ln_inv = if x > 0.0 {
            // ln(1 + e^x) = x + ln(1 + e^{−x}); e^{−x} ≤ 1 so ln_1p is exact.
            x + (-x).exp().ln_1p()
        } else {
            x.exp().ln_1p()
        };
    }
    -ln_inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_values() {
        // Values from standard Erlang-B tables / direct summation.
        assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-15);
        assert!((erlang_b(1.0, 2) - 0.2).abs() < 1e-15);
        // E(2, 3) = (8/6) / (1 + 2 + 2 + 8/6) = (4/3)/(19/3) = 4/19.
        assert!((erlang_b(2.0, 3) - 4.0 / 19.0).abs() < 1e-15);
    }

    #[test]
    fn matches_direct_summation() {
        // B = (a^c/c!) / Σ_{k≤c} a^k/k! computed in log space.
        for &(a, c) in &[(5.0f64, 8u32), (50.0, 60), (312.0, 312), (400.0, 312)] {
            let mut terms = Vec::with_capacity(c as usize + 1);
            let mut log_term: f64 = 0.0; // log(a^0/0!)
            terms.push(log_term);
            for k in 1..=c {
                log_term += a.ln() - (k as f64).ln();
                terms.push(log_term);
            }
            let max = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let denom: f64 = terms.iter().map(|t| (t - max).exp()).sum();
            let direct = (terms[c as usize] - max).exp() / denom;
            let rec = erlang_b(a, c);
            assert!(
                (rec - direct).abs() < 1e-12,
                "a={a} c={c}: recursion {rec} vs direct {direct}"
            );
            let ln = erlang_b_ln(a, c);
            assert!(
                (ln.exp() - direct).abs() < 1e-12,
                "a={a} c={c}: log-space {} vs direct {direct}",
                ln.exp()
            );
        }
    }

    #[test]
    fn monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..200 {
            let b = erlang_b(i as f64 * 5.0, 312);
            assert!(b >= prev);
            assert!((0.0..=1.0).contains(&b));
            prev = b;
        }
    }

    #[test]
    fn monotone_in_servers() {
        let mut prev = 1.0;
        for c in 1..500 {
            let b = erlang_b(300.0, c);
            assert!(b <= prev + 1e-15);
            prev = b;
        }
    }

    #[test]
    fn asymptotics() {
        // Heavy traffic: B → 1 − C/a.
        let b = erlang_b(10_000.0, 312);
        assert!((b - (1.0 - 312.0 / 10_000.0)).abs() < 0.01);
        // Light traffic: essentially no blocking.
        assert!(erlang_b(10.0, 312) < 1e-100);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(erlang_b(0.0, 10), 0.0);
        assert_eq!(erlang_b(5.0, 0), 1.0);
        assert_eq!(erlang_b(0.0, 0), 0.0);
        assert_eq!(erlang_b_ln(0.0, 10), f64::NEG_INFINITY);
        assert_eq!(erlang_b_ln(5.0, 0), 0.0);
        assert_eq!(erlang_b_ln(0.0, 0), 0.0);
    }

    #[test]
    fn paper_link_capacity_never_saturates_fp() {
        // 312 slots at overload 3000 erlangs still yields a finite, sane value.
        let b = erlang_b(3_000.0, 312);
        assert!(b > 0.85 && b < 1.0);
    }

    /// The satellite regression: a 10k-server link must never produce
    /// NaN, ±inf, or an out-of-range probability — at light load, at the
    /// critically loaded knee, and in deep overload.
    #[test]
    fn ten_thousand_servers_stay_finite_and_sane() {
        for load in [1.0, 100.0, 5_000.0, 9_500.0, 10_000.0, 12_000.0, 1e6] {
            let b = erlang_b(load, 10_000);
            assert!(b.is_finite(), "load={load}: got {b}");
            assert!((0.0..=1.0).contains(&b), "load={load}: got {b}");
            let ln = erlang_b_ln(load, 10_000);
            assert!(!ln.is_nan() && ln <= 0.0, "load={load}: ln {ln}");
        }
        // Near-critical load: small but clearly representable blocking.
        let knee = erlang_b(9_500.0, 10_000);
        assert!(knee > 0.0 && knee < 1e-3, "knee blocking {knee}");
        // Deep overload matches the fluid limit 1 − C/a.
        let over = erlang_b(20_000.0, 10_000);
        assert!((over - 0.5).abs() < 0.01, "overload blocking {over}");
    }

    /// Light load on a huge link: the plain probability is genuinely
    /// below the smallest positive double (so `0.0` is the correctly
    /// rounded value), but the log-space form must retain the magnitude
    /// instead of collapsing to −inf.
    #[test]
    fn light_load_keeps_log_magnitude() {
        let ln = erlang_b_ln(100.0, 10_000);
        assert!(ln.is_finite(), "got {ln}");
        // Coarse bound: between e^-1e6 and e^-1e3 — tiny but tracked.
        assert!(ln < -1_000.0 && ln > -1_000_000.0, "got {ln}");
        assert_eq!(erlang_b(100.0, 10_000), 0.0);
    }

    /// The forward and log-space paths agree where the switch happens.
    #[test]
    fn paths_agree_at_threshold() {
        for c in [
            LOG_SPACE_SERVERS - 1,
            LOG_SPACE_SERVERS,
            LOG_SPACE_SERVERS + 1,
        ] {
            for load_factor in [0.8, 0.95, 1.0, 1.1, 2.0] {
                let load = c as f64 * load_factor;
                let forward = {
                    let mut b = 1.0f64;
                    for k in 1..=c {
                        b = load * b / (k as f64 + load * b);
                    }
                    b
                };
                let log_space = erlang_b_ln(load, c).exp();
                assert!(
                    (forward - log_space).abs() < 1e-10,
                    "c={c} load={load}: forward {forward} vs log {log_space}"
                );
            }
        }
    }

    /// Monotonicity survives the representation switch: blocking keeps
    /// decreasing in the server count straight through the threshold.
    #[test]
    fn monotone_across_threshold() {
        let load = 4_000.0;
        let mut prev = 1.0f64;
        for c in (LOG_SPACE_SERVERS - 64)..(LOG_SPACE_SERVERS + 64) {
            let b = erlang_b(load, c);
            assert!(b <= prev + 1e-12, "c={c}: {b} > {prev}");
            prev = b;
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_load_panics() {
        let _ = erlang_b(-1.0, 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_load_panics_ln() {
        let _ = erlang_b_ln(-1.0, 3);
    }
}
