//! Arithmetic on samples: medians and quartile spreads for the self-check,
//! deadline-censored latency for the end-to-end metrics, and a batch timer
//! for per-call layer costs.

use anycast_bench::stats::percentile;
use std::time::Instant;

/// Median of `values` (mean of the middle two for even counts); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// which is what the driver computes spreads from. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median: the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// What a client saw of its admits. An admit is on time when a verdict
/// for it arrived inside the deadline, counted from the instant the
/// request was due; everything else sent was missed: refused, answered
/// late, answered with an error, or never answered.
#[derive(Debug, Default, Clone)]
pub struct Verdicts {
    pub sent: u64,
    pub on_time: u64,
    /// Summed latency of the on-time verdicts.
    pub on_time_sum_ns: u64,
    /// Each on-time latency, kept only when the traced pass asks for
    /// percentiles: 4 bytes a verdict would otherwise be the benchmark's
    /// own weight on the process's peak memory.
    pub samples_ns: Vec<u32>,
}

impl Verdicts {
    pub fn note_on_time(&mut self, latency_ns: u32, keep_sample: bool) {
        self.on_time += 1;
        self.on_time_sum_ns += u64::from(latency_ns);
        if keep_sample {
            self.samples_ns.push(latency_ns);
        }
    }

    pub fn absorb(&mut self, other: Verdicts) {
        self.sent += other.sent;
        self.on_time += other.on_time;
        self.on_time_sum_ns += other.on_time_sum_ns;
        self.samples_ns.extend(other.samples_ns);
    }

    /// Share of admits sent that got no verdict inside the deadline.
    pub fn missed_share(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.on_time as f64 / self.sent as f64
    }

    /// Mean time to a verdict in ms where a missed admit counts as the
    /// whole deadline. Unlike a percentile this moves the right way when
    /// refusals turn into slow verdicts, and is never pinned at the limit.
    pub fn censored_mean_ms(&self, deadline_ms: f64) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        let missed = self.sent - self.on_time;
        (self.on_time_sum_ns as f64 / 1e6 + missed as f64 * deadline_ms) / self.sent as f64
    }

    /// Nearest-rank percentile of the kept on-time latencies, ms.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let samples: Vec<u64> = self.samples_ns.iter().map(|&ns| u64::from(ns)).collect();
        percentile_of(&samples, p) as f64 / 1e6
    }
}

/// Nearest-rank percentile of unsorted integer samples.
pub fn percentile_of(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

/// Per-call cost in ns: runs `batch` (which performs `ops` calls) `batches`
/// times and returns the median batch's time per call. A per-call timer
/// would cost more than most of the layers it measures.
pub fn ns_per_call(batches: usize, ops: u64, mut batch: impl FnMut()) -> f64 {
    assert!(batches > 0 && ops > 0);
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&per_call)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median(&[4.0, 1.0, 9.0, 5.0]), 4.5);
    }

    #[test]
    fn missed_share_and_censored_mean_on_hand_built_samples() {
        // Ten sent: four verdicts on time at 1, 2, 3 and 4 ms, six missed.
        let mut v = Verdicts {
            sent: 10,
            ..Verdicts::default()
        };
        for ms in [1u32, 2, 3, 4] {
            v.note_on_time(ms * 1_000_000, true);
        }
        assert!((v.missed_share() - 0.6).abs() < 1e-12);
        // (1 + 2 + 3 + 4 + 6 * 250) / 10
        assert!((v.censored_mean_ms(250.0) - 151.0).abs() < 1e-9);
        assert_eq!(v.percentile_ms(0.5), 2.0);
        assert_eq!(v.percentile_ms(0.99), 4.0);
        // Nothing missed: the plain mean, with or without kept samples.
        let mut all = Verdicts {
            sent: 2,
            ..Verdicts::default()
        };
        all.note_on_time(1_000_000, false);
        all.note_on_time(3_000_000, false);
        assert_eq!(all.missed_share(), 0.0);
        assert!((all.censored_mean_ms(250.0) - 2.0).abs() < 1e-12);
        assert!(all.samples_ns.is_empty());
        // Two clients' tallies add up.
        v.absorb(all);
        assert_eq!((v.sent, v.on_time, v.samples_ns.len()), (12, 6, 4));
        // Nothing sent: defined, not NaN.
        assert_eq!(Verdicts::default().missed_share(), 0.0);
        assert_eq!(Verdicts::default().censored_mean_ms(250.0), 0.0);
    }

    #[test]
    fn ns_per_call_takes_the_median_batch() {
        let mut calls = 0u64;
        let ns = ns_per_call(5, 100, || {
            for _ in 0..100 {
                calls += std::hint::black_box(1);
            }
        });
        assert_eq!(calls, 500);
        assert!(ns >= 0.0);
    }
}
