//! Property-based tests for the reservation engine.

use anycast_net::routing::bfs_tree;
use anycast_net::{topologies, Bandwidth, LinkStateTable, NodeId};
use anycast_rsvp::{MessageKind, ReservationEngine, SessionId};
use proptest::prelude::*;

proptest! {
    /// Arbitrary interleavings of reserve/teardown keep engine and ledger
    /// consistent, and draining everything restores pristine state.
    #[test]
    fn reserve_teardown_interleavings(
        ops in prop::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 1..200),
    ) {
        let topo = topologies::mci();
        let mut links = LinkStateTable::with_uniform_fraction(
            &topo,
            Bandwidth::from_mbps(100),
            0.2,
        );
        let mut engine = ReservationEngine::new();
        let mut live: Vec<SessionId> = Vec::new();
        let demand = Bandwidth::from_kbps(64);
        for (a, b, tear) in ops {
            if tear && !live.is_empty() {
                let s = live.swap_remove(a as usize % live.len());
                engine.teardown(&mut links, s).unwrap();
            } else {
                let src = NodeId::new(a % topo.node_count() as u32);
                let dst = NodeId::new(b % topo.node_count() as u32);
                let path = bfs_tree(&topo, src).path_to(&topo, dst).unwrap();
                if let Ok(out) = engine.probe_and_reserve(&mut links, &path, demand) {
                    live.push(out.session);
                }
            }
            prop_assert_eq!(engine.active_sessions(), live.len());
            // PATH = RESV + RESV_ERR at all times (per-hop accounting).
            let ledger = engine.ledger();
            prop_assert_eq!(
                ledger.count(MessageKind::Path),
                ledger.count(MessageKind::Resv) + ledger.count(MessageKind::ResvErr)
            );
        }
        for s in live {
            engine.teardown(&mut links, s).unwrap();
        }
        // The column scan, which also vouches for the O(1) total.
        prop_assert_eq!(links.audit().unwrap().reserved_bps, 0);
        prop_assert_eq!(links.total_reserved(), Bandwidth::ZERO);
        prop_assert_eq!(engine.active_sessions(), 0);
        // Teardown hops mirror reservation hops once everything drained.
        let ledger = engine.ledger();
        prop_assert_eq!(
            ledger.count(MessageKind::PathTear),
            ledger.count(MessageKind::Resv)
        );
    }

    /// The reported route bandwidth equals the pre-reservation bottleneck
    /// and shrinks by exactly the demand after reservation.
    #[test]
    fn route_bandwidth_feedback_is_exact(
        pair in any::<(u32, u32)>(),
        preload_flows in 0u32..100,
    ) {
        let topo = topologies::mci();
        let mut links = LinkStateTable::with_uniform_fraction(
            &topo,
            Bandwidth::from_mbps(100),
            0.2,
        );
        let src = NodeId::new(pair.0 % topo.node_count() as u32);
        let dst = NodeId::new(pair.1 % topo.node_count() as u32);
        prop_assume!(src != dst);
        let path = bfs_tree(&topo, src).path_to(&topo, dst).unwrap();
        let mut engine = ReservationEngine::new();
        let demand = Bandwidth::from_kbps(64);
        for _ in 0..preload_flows {
            let _ = engine.probe_and_reserve(&mut links, &path, demand);
        }
        let expected = links.min_available_on(&path);
        if let Ok(out) = engine.probe_and_reserve(&mut links, &path, demand) {
            prop_assert_eq!(out.route_bandwidth, expected);
            prop_assert_eq!(
                links.min_available_on(&path),
                expected - demand
            );
        } else {
            prop_assert!(expected < demand);
        }
    }

    /// Failed probes never mutate the ledger (all-or-nothing), no matter
    /// where the bottleneck sits along the route.
    #[test]
    fn failed_probe_leaves_ledger_unchanged(
        pair in any::<(u32, u32)>(),
        bottleneck_pos in any::<u32>(),
    ) {
        let topo = topologies::mci();
        let mut links = LinkStateTable::with_uniform_fraction(
            &topo,
            Bandwidth::from_mbps(100),
            0.2,
        );
        let src = NodeId::new(pair.0 % topo.node_count() as u32);
        let dst = NodeId::new(pair.1 % topo.node_count() as u32);
        let path = bfs_tree(&topo, src).path_to(&topo, dst).unwrap();
        prop_assume!(path.hops() >= 1);
        let victim = path.links()[bottleneck_pos as usize % path.links().len()];
        let avail = links.available(victim);
        links.reserve(victim, avail).unwrap();
        let before: Vec<_> = links.iter().collect();
        let mut engine = ReservationEngine::new();
        let err = engine
            .probe_and_reserve(&mut links, &path, Bandwidth::from_kbps(64))
            .unwrap_err();
        prop_assert_eq!(err.failed_link, path.links()[err.hop_index]);
        let after: Vec<_> = links.iter().collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(engine.active_sessions(), 0);
    }
}
