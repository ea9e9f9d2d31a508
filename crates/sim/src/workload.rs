//! The stochastic workload of §5.1: Poisson flow-request arrivals with
//! exponentially distributed lifetimes — plus a Markov-modulated bursty
//! process as an extension.

use crate::{Duration, SimRng, SimTime};

/// Exponential flow lifetimes of a fixed mean (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HoldingSampler {
    mean_secs: f64,
}

impl HoldingSampler {
    /// An exponential sampler with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean_secs` is not positive and finite.
    fn exponential(mean_secs: f64) -> Self {
        assert!(
            mean_secs.is_finite() && mean_secs > 0.0,
            "mean holding time must be positive and finite, got {mean_secs}"
        );
        HoldingSampler { mean_secs }
    }

    /// Draws one lifetime from `rng`.
    fn draw(&self, rng: &mut SimRng) -> Duration {
        rng.exp_duration(self.mean_secs)
    }
}

/// One anycast flow-establishment request drawn from the workload.
///
/// The source is an index into the experiment's source list (the hosts at
/// odd-numbered routers in the paper); the holding time is how long the
/// flow occupies its reservation if admitted. The crate is deliberately
/// independent of the network layer, so sources are plain indices here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowRequest {
    /// Index into the experiment's list of source nodes.
    pub source_index: usize,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Lifetime of the flow once admitted.
    pub holding: Duration,
}

/// Generates the paper's traffic model: requests form a Poisson process
/// with rate `lambda` (flows per second across the whole network); each
/// request picks a source uniformly at random; lifetimes are exponential
/// with the configured mean (180 s in §5.1).
#[derive(Debug, Clone)]
pub struct PoissonWorkload {
    lambda: f64,
    holding: HoldingSampler,
    source_count: usize,
    next_arrival: SimTime,
    arrivals_rng: SimRng,
    holding_rng: SimRng,
    source_rng: SimRng,
}

impl PoissonWorkload {
    /// Creates a workload generator.
    ///
    /// * `lambda` — total request rate in flows/second;
    /// * `mean_holding_secs` — mean exponential lifetime;
    /// * `source_count` — number of candidate sources (uniformly likely);
    /// * `rng` — the seed stream; three independent sub-streams are forked
    ///   so arrival times are invariant to how lifetimes are consumed.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` or `mean_holding_secs` are not positive/finite,
    /// or `source_count` is zero.
    pub fn new(lambda: f64, mean_holding_secs: f64, source_count: usize, rng: &mut SimRng) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "arrival rate must be positive and finite, got {lambda}"
        );
        let holding = HoldingSampler::exponential(mean_holding_secs);
        assert!(source_count > 0, "need at least one source");
        let mut arrivals_rng = rng.fork();
        let holding_rng = rng.fork();
        let source_rng = rng.fork();
        let first = SimTime::ZERO + Duration::from_secs(arrivals_rng.exp(1.0 / lambda));
        PoissonWorkload {
            lambda,
            holding,
            source_count,
            next_arrival: first,
            arrivals_rng,
            holding_rng,
            source_rng,
        }
    }

    /// Draws the next request and advances the arrival process.
    pub fn next_request(&mut self) -> FlowRequest {
        let arrival = self.next_arrival;
        let gap = self.arrivals_rng.exp(1.0 / self.lambda);
        self.next_arrival = arrival + Duration::from_secs(gap);
        FlowRequest {
            source_index: self.source_rng.below(self.source_count),
            arrival,
            holding: self.holding.draw(&mut self.holding_rng),
        }
    }
}

/// A two-state Markov-modulated Poisson process (MMPP-2): the arrival
/// rate alternates between a *calm* and a *burst* state with exponential
/// sojourn times — the standard bursty-traffic generalisation of the
/// paper's plain Poisson assumption.
///
/// The long-run mean rate is the sojourn-weighted average of the two
/// state rates, so an MMPP can be constructed to match a Poisson
/// workload's mean while concentrating arrivals in bursts
/// ([`BurstyWorkload::with_mean_rate`]).
#[derive(Debug, Clone)]
pub struct BurstyWorkload {
    calm_rate: f64,
    burst_rate: f64,
    mean_calm_secs: f64,
    mean_burst_secs: f64,
    holding: HoldingSampler,
    source_count: usize,
    in_burst: bool,
    state_ends: SimTime,
    clock: SimTime,
    arrivals_rng: SimRng,
    state_rng: SimRng,
    holding_rng: SimRng,
    source_rng: SimRng,
}

impl BurstyWorkload {
    /// Creates an MMPP-2 workload with explicit state rates and mean
    /// sojourn times.
    ///
    /// # Panics
    ///
    /// Panics if any rate or sojourn/holding time is non-positive or
    /// non-finite, or `source_count` is zero.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        calm_rate: f64,
        burst_rate: f64,
        mean_calm_secs: f64,
        mean_burst_secs: f64,
        mean_holding_secs: f64,
        source_count: usize,
        rng: &mut SimRng,
    ) -> Self {
        for (name, v) in [
            ("calm rate", calm_rate),
            ("burst rate", burst_rate),
            ("mean calm sojourn", mean_calm_secs),
            ("mean burst sojourn", mean_burst_secs),
        ] {
            assert!(
                v.is_finite() && v > 0.0,
                "{name} must be positive and finite, got {v}"
            );
        }
        let holding = HoldingSampler::exponential(mean_holding_secs);
        assert!(source_count > 0, "need at least one source");
        let arrivals_rng = rng.fork();
        let mut state_rng = rng.fork();
        let holding_rng = rng.fork();
        let source_rng = rng.fork();
        let first_sojourn = state_rng.exp(mean_calm_secs);
        BurstyWorkload {
            calm_rate,
            burst_rate,
            mean_calm_secs,
            mean_burst_secs,
            holding,
            source_count,
            in_burst: false,
            state_ends: SimTime::from_secs(first_sojourn),
            clock: SimTime::ZERO,
            arrivals_rng,
            state_rng,
            holding_rng,
            source_rng,
        }
    }

    /// Creates an MMPP-2 whose long-run mean rate equals `mean_rate`,
    /// with the burst state `burstiness ≥ 1` times hotter than the mean
    /// and equal mean sojourns in both states.
    ///
    /// `burstiness = 1` degenerates to (approximately) plain Poisson.
    ///
    /// # Panics
    ///
    /// Panics on non-positive/non-finite arguments, `burstiness < 1`, or
    /// `burstiness ≥ 2` (the calm rate would be non-positive with equal
    /// sojourns), or a zero `source_count`.
    pub fn with_mean_rate(
        mean_rate: f64,
        burstiness: f64,
        mean_sojourn_secs: f64,
        mean_holding_secs: f64,
        source_count: usize,
        rng: &mut SimRng,
    ) -> Self {
        assert!(
            (1.0..2.0).contains(&burstiness),
            "burstiness must lie in [1, 2) for equal sojourns, got {burstiness}"
        );
        let burst_rate = mean_rate * burstiness;
        let calm_rate = mean_rate * (2.0 - burstiness);
        Self::new(
            calm_rate.max(mean_rate * 1e-6),
            burst_rate,
            mean_sojourn_secs,
            mean_sojourn_secs,
            mean_holding_secs,
            source_count,
            rng,
        )
    }

    fn current_rate(&self) -> f64 {
        if self.in_burst {
            self.burst_rate
        } else {
            self.calm_rate
        }
    }

    /// Draws the next request and advances both the arrival process and
    /// the modulating chain.
    pub fn next_request(&mut self) -> FlowRequest {
        // Advance through state boundaries until an arrival lands inside
        // the current sojourn (memorylessness lets us redraw the
        // exponential gap at each boundary).
        loop {
            let gap = self.arrivals_rng.exp(1.0 / self.current_rate());
            let candidate = self.clock + Duration::from_secs(gap);
            if candidate <= self.state_ends {
                self.clock = candidate;
                return FlowRequest {
                    source_index: self.source_rng.below(self.source_count),
                    arrival: candidate,
                    holding: self.holding.draw(&mut self.holding_rng),
                };
            }
            // Cross into the next state.
            self.clock = self.state_ends;
            self.in_burst = !self.in_burst;
            let sojourn = if self.in_burst {
                self.state_rng.exp(self.mean_burst_secs)
            } else {
                self.state_rng.exp(self.mean_calm_secs)
            };
            self.state_ends = self.clock + Duration::from_secs(sojourn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(lambda: f64, seed: u64) -> PoissonWorkload {
        let mut rng = SimRng::seed_from(seed);
        PoissonWorkload::new(lambda, 180.0, 9, &mut rng)
    }

    #[test]
    fn arrival_rate_matches_lambda() {
        let mut w = workload(20.0, 1);
        let n = 100_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let req = w.next_request();
            assert!(req.arrival >= last, "arrivals must be nondecreasing");
            last = req.arrival;
        }
        let measured_rate = n as f64 / last.as_secs();
        assert!(
            (measured_rate - 20.0).abs() < 0.5,
            "measured rate {measured_rate}"
        );
    }

    #[test]
    fn holding_mean_matches() {
        let mut w = workload(5.0, 2);
        let n = 50_000;
        let total: f64 = (0..n).map(|_| w.next_request().holding.as_secs()).sum();
        let mean = total / n as f64;
        assert!((mean - 180.0).abs() < 4.0, "mean holding {mean}");
    }

    #[test]
    fn sources_uniform() {
        let mut w = workload(5.0, 3);
        let mut counts = [0usize; 9];
        let n = 90_000;
        for _ in 0..n {
            counts[w.next_request().source_index] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / n as f64;
            assert!((p - 1.0 / 9.0).abs() < 0.01, "source {i} probability {p}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = workload(10.0, 9);
        let mut b = workload(10.0, 9);
        for _ in 0..100 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_lambda_rejected() {
        let mut rng = SimRng::seed_from(0);
        let _ = PoissonWorkload::new(0.0, 180.0, 9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn zero_sources_rejected() {
        let mut rng = SimRng::seed_from(0);
        let _ = PoissonWorkload::new(1.0, 180.0, 0, &mut rng);
    }

    #[test]
    fn bursty_measured_rate_converges_to_mean() {
        let mut rng = SimRng::seed_from(13);
        let mut w = BurstyWorkload::with_mean_rate(20.0, 1.8, 60.0, 180.0, 9, &mut rng);
        let n = 200_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let req = w.next_request();
            assert!(req.arrival >= last, "arrivals must be nondecreasing");
            last = req.arrival;
        }
        let measured = n as f64 / last.as_secs();
        // The modulating chain only completes ~170 sojourns in this
        // window, so the estimator is noisy; 10% brackets the mean.
        assert!(
            (measured - 20.0).abs() < 2.0,
            "long-run rate {measured} should approach 20"
        );
    }

    #[test]
    fn bursty_interarrivals_are_overdispersed() {
        // The defining property vs Poisson: variance of per-window counts
        // exceeds the mean (index of dispersion > 1).
        let window = 30.0;
        let count_dispersion = |reqs: &[f64]| -> f64 {
            let max_t = reqs.last().copied().unwrap_or(0.0);
            let bins = (max_t / window).floor() as usize;
            let mut counts = vec![0.0f64; bins];
            for &t in reqs {
                let b = (t / window) as usize;
                if b < bins {
                    counts[b] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / bins as f64;
            var / mean
        };
        let mut rng = SimRng::seed_from(14);
        let mut bursty = BurstyWorkload::with_mean_rate(20.0, 1.9, 120.0, 180.0, 9, &mut rng);
        let bursty_times: Vec<f64> = (0..100_000)
            .map(|_| bursty.next_request().arrival.as_secs())
            .collect();
        let mut rng2 = SimRng::seed_from(14);
        let mut poisson = PoissonWorkload::new(20.0, 180.0, 9, &mut rng2);
        let poisson_times: Vec<f64> = (0..100_000)
            .map(|_| poisson.next_request().arrival.as_secs())
            .collect();
        let d_bursty = count_dispersion(&bursty_times);
        let d_poisson = count_dispersion(&poisson_times);
        assert!(
            d_bursty > 1.5,
            "MMPP dispersion {d_bursty} should be well above Poisson's 1"
        );
        assert!(
            d_poisson < 1.3,
            "Poisson dispersion {d_poisson} should be near 1"
        );
        assert!(d_bursty > d_poisson);
    }

    #[test]
    fn bursty_deterministic_per_seed() {
        let mut a = SimRng::seed_from(16);
        let mut b = SimRng::seed_from(16);
        let mut wa = BurstyWorkload::with_mean_rate(10.0, 1.5, 30.0, 180.0, 9, &mut a);
        let mut wb = BurstyWorkload::with_mean_rate(10.0, 1.5, 30.0, 180.0, 9, &mut b);
        for _ in 0..500 {
            assert_eq!(wa.next_request(), wb.next_request());
        }
    }

    #[test]
    #[should_panic(expected = "burstiness must lie in [1, 2)")]
    fn bursty_rejects_extreme_burstiness() {
        let mut rng = SimRng::seed_from(17);
        let _ = BurstyWorkload::with_mean_rate(10.0, 2.5, 30.0, 180.0, 9, &mut rng);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bursty_rejects_zero_rate() {
        let mut rng = SimRng::seed_from(18);
        let _ = BurstyWorkload::new(0.0, 1.0, 1.0, 1.0, 1.0, 1, &mut rng);
    }

    #[test]
    fn exponential_sampler_is_byte_identical_to_legacy_draws() {
        // The default sampler must consume exactly the draws the old
        // direct `exp_duration` call did, so seeded scenarios replay.
        let sampler = HoldingSampler::exponential(180.0);
        let mut a = SimRng::seed_from(21);
        let mut b = SimRng::seed_from(21);
        for _ in 0..1_000 {
            assert_eq!(sampler.draw(&mut a), b.exp_duration(180.0));
        }
    }
}
