//! Output statistics: counters, a running mean, time averages and the
//! admission-probability estimator used by every experiment.

use crate::SimTime;

/// Running mean via Welford's update (`mean += (x − mean) / n`), which
/// keeps the mean exact to the last bit the engine's pinned numbers rely on.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunningMean {
    n: u64,
    mean: f64,
}

impl RunningMean {
    /// Records one observation.
    pub(crate) fn record(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// active flows or the reserved bandwidth of a link over simulated time.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    start_time: SimTime,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: v0,
            integral: 0.0,
            start_time: t0,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `t` precedes the previous update. In
    /// release builds the backwards segment is saturated to zero width —
    /// the integral is never corrupted by a negative `dt` — and the clock
    /// stays at its high-water mark.
    pub fn update(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            t >= self.last_time,
            "TimeWeighted::update at {t} precedes previous update at {}",
            self.last_time
        );
        let dt = (t.as_secs() - self.last_time.as_secs()).max(0.0);
        self.integral += self.last_value * dt;
        self.last_time = self.last_time.max(t);
        self.last_value = value;
    }

    /// The time average over `[t0, t]`, closing the last segment at `t`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `t` precedes the previous update; in
    /// release builds the out-of-order tail contributes zero width.
    pub fn average_until(&self, t: SimTime) -> f64 {
        debug_assert!(
            t >= self.last_time,
            "TimeWeighted::average_until at {t} precedes previous update at {}",
            self.last_time
        );
        let span = t.as_secs() - self.start_time.as_secs();
        if span <= 0.0 {
            return self.last_value;
        }
        let tail = (t.as_secs() - self.last_time.as_secs()).max(0.0);
        (self.integral + self.last_value * tail) / span
    }
}

/// Outcome counters for one admission-control run: the estimator behind
/// *Admission Probability* (Figures 3–6) and *average number of retrials*
/// (Figure 7).
///
/// Requests arriving before the warm-up cutoff are counted separately and
/// excluded from the reported statistics, removing initial-transient bias.
#[derive(Debug, Clone)]
pub struct AdmissionStats {
    warmup_end: SimTime,
    offered: u64,
    admitted: u64,
    tries: RunningMean,
    tries_hist: Histogram,
}

impl AdmissionStats {
    /// Creates an estimator that ignores requests before `warmup_end`.
    pub fn new(warmup_end: SimTime) -> Self {
        AdmissionStats {
            warmup_end,
            offered: 0,
            admitted: 0,
            tries: RunningMean::default(),
            tries_hist: Histogram::new(),
        }
    }

    /// Records the outcome of one flow request: whether it was admitted and
    /// how many destinations were tried (≥ 1 whenever a selection happened).
    pub fn record(&mut self, at: SimTime, admitted: bool, tries: u32) {
        if at < self.warmup_end {
            return;
        }
        self.offered += 1;
        if admitted {
            self.admitted += 1;
        }
        self.tries.record(tries as f64);
        self.tries_hist.record(tries);
    }

    /// Requests observed after warm-up.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Requests admitted after warm-up.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Requests rejected after warm-up.
    pub fn rejected(&self) -> u64 {
        self.offered - self.admitted
    }

    /// The admission probability estimate `admitted / offered`
    /// (1.0 when nothing was offered, matching the paper's low-load limit).
    pub fn admission_probability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.admitted as f64 / self.offered as f64
        }
    }

    /// 95% half-width for the admission probability via the Wilson score
    /// interval (binomial proportion).
    ///
    /// The normal (Wald) approximation `1.96·√(p(1−p)/n)` collapses to a
    /// zero-width interval whenever the estimate is exactly 0 or 1 — which
    /// every low-load point hits — overstating certainty. Wilson keeps
    /// honest positive width there: at `p̂ = 1` the half-width is
    /// `z²/(2n) / (1 + z²/n)`, shrinking like `1/n` but never zero while
    /// `n` is finite.
    pub fn ap_ci95_half_width(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        let n = self.offered as f64;
        let p = self.admission_probability();
        let z = 1.96;
        let z2 = z * z;
        z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / (1.0 + z2 / n)
    }

    /// Mean number of destinations tried per request (Figure 7's metric).
    pub fn mean_tries(&self) -> f64 {
        self.tries.mean()
    }

    /// Mean number of *re*-trials per request: tries beyond the first.
    ///
    /// Computed directly from the tries histogram (`Σ (t−1)·count(t)` over
    /// `t ≥ 1`) rather than by clamping `mean_tries − 1` at zero — a clamp
    /// would silently mask a tries-accounting bug (a request recorded with
    /// zero tries) instead of surfacing it. Debug builds cross-check the
    /// histogram against the running [`mean_tries`](Self::mean_tries)
    /// accumulator.
    pub fn mean_retrials(&self) -> f64 {
        let total = self.tries_hist.total();
        if total == 0 {
            return 0.0;
        }
        debug_assert_eq!(
            total,
            self.tries.count(),
            "tries histogram and running-mean accumulator disagree on count"
        );
        debug_assert!(
            (self.tries_hist.mean() - self.tries.mean()).abs() <= 1e-9,
            "tries histogram mean {} drifted from running mean {}",
            self.tries_hist.mean(),
            self.tries.mean()
        );
        let excess: u64 = self
            .tries_hist
            .buckets()
            .iter()
            .enumerate()
            .map(|(t, &c)| (t as u64).saturating_sub(1) * c)
            .sum();
        debug_assert!(
            self.tries_hist.count(0) == 0,
            "a request was recorded with zero tries; mean_retrials would \
             diverge from mean_tries - 1"
        );
        excess as f64 / total as f64
    }

    /// Distribution of tries per request (index = number of tries).
    pub fn tries_histogram(&self) -> &Histogram {
        &self.tries_hist
    }
}

/// A dense histogram over small non-negative integers (e.g. tries per
/// request, which is bounded by the group size).
///
/// ```rust
/// use anycast_sim::stats::Histogram;
/// let mut h = Histogram::default();
/// for v in [1, 1, 2, 1, 3] {
///     h.record(v);
/// }
/// assert_eq!(h.buckets(), &[0, 3, 1, 1]);
/// assert_eq!(h.total(), 5);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u32) {
        let idx = value as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of observations equal to `value`.
    pub(crate) fn count(&self, value: u32) -> u64 {
        self.counts.get(value as usize).copied().unwrap_or(0)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The raw bucket counts, index = value.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(v, &c)| v as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::from_secs(10.0), 2.0); // 0 for 10s
        tw.update(SimTime::from_secs(20.0), 4.0); // 2 for 10s
        let avg = tw.average_until(SimTime::from_secs(30.0)); // 4 for 10s
        assert!((avg - 2.0).abs() < 1e-12); // (0+20+40)/30
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(SimTime::from_secs(5.0), 7.0);
        assert_eq!(tw.average_until(SimTime::from_secs(5.0)), 7.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes previous update")]
    fn time_weighted_backwards_update_panics_in_debug() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_secs(10.0), 2.0);
        tw.update(SimTime::from_secs(5.0), 3.0); // regression: was a silent negative dt
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedes previous update")]
    fn time_weighted_backwards_average_panics_in_debug() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.update(SimTime::from_secs(10.0), 2.0);
        let _ = tw.average_until(SimTime::from_secs(5.0));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn time_weighted_backwards_update_saturates_in_release() {
        let mut a = TimeWeighted::new(SimTime::ZERO, 1.0);
        let mut b = TimeWeighted::new(SimTime::ZERO, 1.0);
        a.update(SimTime::from_secs(10.0), 2.0);
        b.update(SimTime::from_secs(10.0), 2.0);
        // The backwards stamp must contribute a zero-width segment, not a
        // negative dt, and must not rewind the clock.
        b.update(SimTime::from_secs(5.0), 2.0);
        assert_eq!(
            a.average_until(SimTime::from_secs(20.0)),
            b.average_until(SimTime::from_secs(20.0))
        );
    }

    #[test]
    fn admission_stats_warmup_excluded() {
        let mut s = AdmissionStats::new(SimTime::from_secs(100.0));
        s.record(SimTime::from_secs(50.0), false, 2); // warm-up
        s.record(SimTime::from_secs(150.0), true, 1);
        s.record(SimTime::from_secs(160.0), true, 2);
        s.record(SimTime::from_secs(170.0), false, 2);
        assert_eq!(s.offered(), 3);
        assert_eq!(s.admitted(), 2);
        assert_eq!(s.rejected(), 1);
        assert!((s.admission_probability() - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_tries() - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_retrials() - 2.0 / 3.0).abs() < 1e-12);
        assert!(s.ap_ci95_half_width() > 0.0);
    }

    #[test]
    fn admission_stats_empty_is_unity() {
        let s = AdmissionStats::new(SimTime::ZERO);
        assert_eq!(s.admission_probability(), 1.0);
        assert_eq!(s.ap_ci95_half_width(), 0.0);
        assert_eq!(s.mean_retrials(), 0.0);
    }

    #[test]
    fn empty_accumulators_never_produce_nan() {
        // Regression sweep for the zero-denominator audit: every ratio
        // accessor must stay finite on an empty accumulator (empty warm-up
        // windows, all-faulted runs) instead of dividing by zero.
        let s = AdmissionStats::new(SimTime::from_secs(100.0));
        for v in [
            s.admission_probability(),
            s.ap_ci95_half_width(),
            s.mean_tries(),
            s.mean_retrials(),
        ] {
            assert!(v.is_finite(), "empty AdmissionStats accessor returned {v}");
        }

        // Warm-up-only traffic is discarded, so the estimator is still
        // "empty" and must behave identically to the untouched one.
        let mut warm = AdmissionStats::new(SimTime::from_secs(100.0));
        warm.record(SimTime::from_secs(10.0), true, 1);
        warm.record(SimTime::from_secs(20.0), false, 2);
        assert_eq!(warm.offered(), 0);
        assert_eq!(warm.admission_probability(), 1.0);
        assert!(warm.mean_tries().is_finite());

        assert_eq!(RunningMean::default().mean(), 0.0);

        let h = Histogram::new();
        assert!(h.mean().is_finite());
    }

    #[test]
    fn wilson_interval_has_width_at_extreme_proportions() {
        // Regression: the Wald interval reported zero width at AP = 1 (or
        // 0), claiming perfect certainty at every low-load sweep point.
        let mut all = AdmissionStats::new(SimTime::ZERO);
        let mut none = AdmissionStats::new(SimTime::ZERO);
        for i in 0..100 {
            let t = SimTime::from_secs(i as f64);
            all.record(t, true, 1);
            none.record(t, false, 1);
        }
        assert_eq!(all.admission_probability(), 1.0);
        assert!(all.ap_ci95_half_width() > 0.0, "p = 1 must keep width");
        assert!(none.ap_ci95_half_width() > 0.0, "p = 0 must keep width");
        // Wilson at p = 1: z²/(2n) / (1 + z²/n).
        let z2 = 1.96f64 * 1.96;
        let expected = (z2 / 200.0) / (1.0 + z2 / 100.0);
        assert!((all.ap_ci95_half_width() - expected).abs() < 1e-12);
    }

    #[test]
    fn wilson_width_shrinks_with_sample_size() {
        let stats_at = |n: u64| {
            let mut s = AdmissionStats::new(SimTime::ZERO);
            for i in 0..n {
                s.record(SimTime::from_secs(i as f64), i % 2 == 0, 1);
            }
            s.ap_ci95_half_width()
        };
        let w100 = stats_at(100);
        let w10000 = stats_at(10_000);
        assert!(w100 > w10000);
        // At p = 1/2 Wilson and Wald agree to O(1/n); sanity-check scale.
        assert!((w10000 - 1.96 * (0.25f64 / 10_000.0).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn mean_retrials_comes_from_histogram() {
        let mut s = AdmissionStats::new(SimTime::ZERO);
        for (tries, admitted) in [(1, true), (3, true), (2, false), (5, false)] {
            s.record(SimTime::from_secs(1.0), admitted, tries);
        }
        // Retrials: 0 + 2 + 1 + 4 = 7 over 4 requests.
        assert!((s.mean_retrials() - 7.0 / 4.0).abs() < 1e-12);
        assert!((s.mean_retrials() - (s.mean_tries() - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts() {
        let mut h = Histogram::new();
        for v in [1u32, 2, 1, 1, 5, 2] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.count(1), 3);
        assert_eq!(h.count(2), 2);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.count(9), 0);
        assert!((h.mean() - 12.0 / 6.0).abs() < 1e-12);
        assert_eq!(h.buckets(), &[0, 3, 2, 0, 0, 1]);
    }

    #[test]
    fn histogram_empty_and_merge() {
        let mut a = Histogram::new();
        assert_eq!(a.mean(), 0.0);
        a.record(0);
        let mut b = Histogram::new();
        b.record(3);
        b.record(0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(3), 1);
    }
}
