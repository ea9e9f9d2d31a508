//! Property-based tests for the simulation substrate.

use anycast_sim::{Duration, Engine, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The engine clock is nondecreasing and processes every event exactly
    /// once.
    #[test]
    fn engine_clock_monotone(times in prop::collection::vec(0.0f64..1e4, 1..100)) {
        let mut engine = Engine::new();
        for (i, t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(*t), i);
        }
        let mut seen = vec![false; times.len()];
        let mut last = SimTime::ZERO;
        engine.run_until(SimTime::from_secs(f64::MAX), |_, now, ev| {
            assert!(now >= last);
            last = now;
            assert!(!seen[ev], "event delivered twice");
            seen[ev] = true;
        });
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(engine.processed(), times.len() as u64);
    }

    /// Exponential samples are always positive and deterministic per seed.
    #[test]
    fn exp_positive_and_deterministic(seed in any::<u64>(), mean in 0.001f64..1e4) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..50 {
            let xa = a.exp(mean);
            prop_assert!(xa >= 0.0 && xa.is_finite());
            prop_assert_eq!(xa, b.exp(mean));
        }
    }

    /// Weighted choice only ever returns indices with positive weight.
    #[test]
    fn weighted_choice_in_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        let mut rng = SimRng::seed_from(seed);
        match rng.choose_weighted(&weights) {
            Some(i) => prop_assert!(weights[i] > 0.0),
            None => prop_assert!(weights.iter().all(|&w| w == 0.0)),
        }
    }

    /// Masked weighted choice never picks a masked-out index.
    #[test]
    fn masked_choice_respects_mask(
        seed in any::<u64>(),
        pairs in prop::collection::vec((0.0f64..10.0, any::<bool>()), 1..20),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let weights: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let mask: Vec<bool> = pairs.iter().map(|p| p.1).collect();
        if let Some(i) = rng.choose_weighted_masked(&weights, &mask) {
            prop_assert!(mask[i] && weights[i] > 0.0);
        }
    }

    /// Engine `run_until` never advances the clock beyond the horizon.
    #[test]
    fn run_until_respects_horizon(
        times in prop::collection::vec(0.0f64..100.0, 1..50),
        horizon in 0.0f64..100.0,
    ) {
        let mut engine = Engine::new();
        for (i, t) in times.iter().enumerate() {
            engine.schedule_at(SimTime::from_secs(*t), i);
        }
        let h = SimTime::from_secs(horizon);
        engine.run_until(h, |_, _, _| {});
        prop_assert!(engine.now() <= h);
        let expected = times.iter().filter(|&&t| SimTime::from_secs(t) <= h).count();
        prop_assert_eq!(engine.processed(), expected as u64);
    }
}

#[test]
fn engine_follow_up_events_interleave() {
    // A chain scheduled from handlers interleaves correctly with
    // pre-scheduled events.
    let mut engine = Engine::new();
    engine.schedule_at(SimTime::from_secs(0.0), "chain");
    engine.schedule_at(SimTime::from_secs(2.5), "static");
    let mut log = Vec::new();
    engine.run_until(SimTime::from_secs(f64::MAX), |eng, now, ev| {
        log.push((now.as_secs(), ev));
        if ev == "chain" && now < SimTime::from_secs(4.0) {
            eng.schedule_in(now, Duration::from_secs(1.0), "chain");
        }
    });
    let evs: Vec<&str> = log.iter().map(|(_, e)| *e).collect();
    assert_eq!(
        evs,
        vec!["chain", "chain", "chain", "static", "chain", "chain"]
    );
}
