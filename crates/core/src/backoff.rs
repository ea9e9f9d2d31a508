//! Bounded exponential backoff for two-phase setup retransmissions.
//!
//! When a setup message is lost, the atomic engine of the paper never
//! notices — its exchange is instantaneous. Under latency-aware two-phase
//! signalling a lost PATH or RESV shows up as a *setup timeout* at the
//! source, and the natural first response is to retransmit toward the
//! same destination before burning one of the §4.5 retrials on a new
//! one. [`BackoffPolicy`] bounds that persistence: each retransmission
//! waits `base · multiplier^attempt` seconds (capped), optionally
//! spread by deterministic jitter so synchronized losses do not
//! resynchronize into the same collision.

use anycast_sim::SimRng;

/// Retransmission schedule for timed-out two-phase setups.
///
/// `attempt` numbering starts at 0 for the delay before the *first*
/// retransmission. With the defaults (base 0.1 s, multiplier 2, cap
/// 2 s, 3 retransmits) a persistently lost setup waits 0.1 s, 0.2 s and
/// 0.4 s (± jitter) before the destination is declared failed and the
/// §4.5 retrial policy takes over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retransmission, in seconds.
    pub base_secs: f64,
    /// Multiplier applied per subsequent retransmission.
    pub multiplier: f64,
    /// Upper bound on any single backoff delay, in seconds.
    pub max_backoff_secs: f64,
    /// Retransmissions allowed per destination before the attempt counts
    /// as a failed try. Zero disables retransmission entirely.
    pub max_retransmits: u32,
    /// Fractional jitter: each delay is scaled by a uniform factor in
    /// `[1 - jitter_frac, 1 + jitter_frac]`. Zero draws no randomness.
    pub jitter_frac: f64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base_secs: 0.1,
            multiplier: 2.0,
            max_backoff_secs: 2.0,
            max_retransmits: 3,
            jitter_frac: 0.1,
        }
    }
}

impl BackoffPolicy {
    /// The delay before retransmission number `attempt` (0-based).
    ///
    /// Deterministic given the rng substream: the jitter factor is a
    /// single uniform draw, and no draw at all when `jitter_frac` is
    /// zero — so jitter-free policies consume no randomness.
    pub(crate) fn delay_for(&self, attempt: u32, rng: &mut SimRng) -> f64 {
        let exp = self.multiplier.powi(attempt.min(i32::MAX as u32) as i32);
        let raw = (self.base_secs * exp).min(self.max_backoff_secs);
        if self.jitter_frac > 0.0 {
            let spread = self.jitter_frac * (2.0 * rng.uniform() - 1.0);
            raw * (1.0 + spread)
        } else {
            raw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentConfig, SignalingMode, SystemSpec, TwoPhaseConfig};
    use crate::policy::PolicySpec;
    use anycast_net::topologies;

    #[test]
    fn defaults_grow_then_cap() {
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        let mut rng = SimRng::seed_from(1);
        assert_eq!(p.delay_for(0, &mut rng), 0.1);
        assert_eq!(p.delay_for(1, &mut rng), 0.2);
        assert_eq!(p.delay_for(2, &mut rng), 0.4);
        // Unbounded growth is clipped at the cap.
        assert_eq!(p.delay_for(10, &mut rng), 2.0);
    }

    #[test]
    fn zero_jitter_consumes_no_randomness() {
        let p = BackoffPolicy {
            jitter_frac: 0.0,
            ..BackoffPolicy::default()
        };
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        let _ = p.delay_for(3, &mut a);
        assert_eq!(a.uniform(), b.uniform(), "no draw should have happened");
    }

    #[test]
    fn jitter_stays_within_band_and_is_deterministic() {
        let p = BackoffPolicy::default();
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        for attempt in 0..20 {
            let base = BackoffPolicy {
                jitter_frac: 0.0,
                ..p
            }
            .delay_for(attempt, &mut SimRng::seed_from(0));
            let d = p.delay_for(attempt, &mut a);
            assert!(
                d >= base * 0.9 - 1e-12 && d <= base * 1.1 + 1e-12,
                "{d} vs {base}"
            );
            assert_eq!(d, p.delay_for(attempt, &mut b));
        }
    }

    #[test]
    fn shrinking_multiplier_rejected() {
        let two_phase = TwoPhaseConfig {
            backoff: BackoffPolicy {
                multiplier: 0.5,
                ..BackoffPolicy::default()
            },
            ..TwoPhaseConfig::default()
        };
        let config = ExperimentConfig::paper_defaults(1.0, SystemSpec::dac(PolicySpec::Ed, 2))
            .with_signaling(SignalingMode::TwoPhase(two_phase));
        let err = config.check(&topologies::mci()).unwrap_err();
        assert!(
            err.contains("backoff multiplier must be finite and at least 1"),
            "{err}"
        );
    }
}
