//! Property tests for reservation-bandwidth conservation: whatever the
//! mix of explicit teardowns, lost teardowns (orphans) and soft-state
//! expiries, every reserved bit must eventually come back, and at every
//! intermediate step the link ledger must agree with the set of live
//! sessions.

use anycast::chaos::FaultPlan;
use anycast::prelude::*;
use anycast::rsvp::{RefreshConfig, RefreshTracker};
use proptest::prelude::*;

/// The ledger's total must always equal the per-session sum: bandwidth ×
/// path length over every live session.
fn attributable(rsvp: &ReservationEngine) -> u64 {
    rsvp.sessions()
        .map(|(_, r)| r.bandwidth().bps() * r.path().links().len() as u64)
        .sum()
}

proptest! {
    /// Reserve a random batch of flows, tear some down explicitly, orphan
    /// the rest, and let soft state expire the orphans: the ledger drains
    /// to exactly zero and never disagrees with the session set.
    #[test]
    fn drained_ledger_returns_every_bit(
        seed in any::<u64>(),
        flows in 1usize..40,
        loss_percent in 0u32..=100,
    ) {
        let topo = topologies::mci();
        let group =
            AnycastGroup::new("G", topologies::MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
        let routes = RouteTable::shortest_paths(&topo, &group);
        let mut links =
            LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
        let mut rsvp = ReservationEngine::new();
        let mut tracker = RefreshTracker::new(RefreshConfig::rsvp_default());
        let mut rng = SimRng::seed_from(seed);
        let sources = topologies::mci_source_nodes();

        let mut live = Vec::new();
        let mut orphans = 0usize;
        for i in 0..flows {
            let source = sources[rng.below(sources.len())];
            let member = rng.below(group.len());
            let route = &routes.routes_from(source).unwrap()[member];
            let out = rsvp
                .probe_and_reserve(&mut links, route, Bandwidth::from_kbps(64))
                .expect("light load always fits");
            tracker.register(out.session, i as f64);
            live.push(out.session);
            prop_assert_eq!(links.audit().unwrap().reserved_bps, attributable(&rsvp));
        }
        let reserved_peak = links.total_reserved();
        prop_assert!(!reserved_peak.is_zero());

        // Each flow departs; its teardown message is lost with the drawn
        // probability, leaving an orphan for soft state.
        for s in live {
            if rng.uniform() * 100.0 < f64::from(loss_percent) {
                orphans += 1; // lost PATH_TEAR: no teardown, no forget
            } else {
                rsvp.teardown(&mut links, s).unwrap();
                tracker.forget(s);
            }
            prop_assert_eq!(links.audit().unwrap().reserved_bps, attributable(&rsvp));
        }
        prop_assert_eq!(rsvp.active_sessions(), orphans);

        // One sweep past every deadline reclaims all orphans at once.
        let far = flows as f64 + RefreshConfig::rsvp_default().lifetime_secs() + 1.0;
        let expired = tracker.collect_expired(far);
        prop_assert_eq!(expired.len(), orphans);
        for s in expired {
            rsvp.teardown(&mut links, s).unwrap();
        }
        prop_assert_eq!(links.audit().unwrap().reserved_bps, 0);
        prop_assert_eq!(links.total_reserved(), Bandwidth::ZERO);
        prop_assert_eq!(rsvp.active_sessions(), 0);
    }

    /// The full experiment loop never leaks either, fault-free or under
    /// heavy control-plane loss.
    #[test]
    fn experiment_never_leaks_bandwidth(
        seed in any::<u64>(),
        loss_percent in 0u32..=50,
    ) {
        let topo = topologies::mci();
        let mut plan = FaultPlan::none();
        plan.control.teardown_loss_probability = f64::from(loss_percent) / 100.0;
        let cfg = ExperimentConfig::paper_defaults(
            5.0,
            SystemSpec::dac(PolicySpec::Ed, 2),
        )
        .with_warmup_secs(30.0)
        .with_measure_secs(120.0)
        .with_seed(seed)
        .with_faults(plan);
        let m = run_experiment(&topo, &cfg);
        prop_assert_eq!(m.leaked_bandwidth_bps, 0);
        prop_assert!(m.orphans_reclaimed <= m.orphaned_reservations);
    }
}
