//! Property-based tests for the admission-control invariants.

use anycast_dac::policy::{HistoryMode, PolicySpec, SelectionContext, WeightAssigner};
use anycast_dac::qos::{guaranteed_delay, required_bandwidth, FlowSpec};
use anycast_dac::{AdmissionController, RetrialPolicy};
use anycast_net::routing::RouteTable;
use anycast_net::{topologies, AnycastGroup, Bandwidth, LinkId, LinkStateTable, NodeId};
use anycast_rsvp::ReservationEngine;
use anycast_sim::SimRng;
use proptest::prelude::*;

proptest! {
    /// The controller never exceeds its retry budget, never exceeds the
    /// group size, and leaves the ledger balanced when every admitted flow
    /// is torn down.
    #[test]
    fn controller_respects_budgets(
        r in 1u32..8,
        seed in any::<u64>(),
        saturate in prop::collection::vec(any::<u32>(), 0..6),
        policy_pick in 0u8..3,
    ) {
        let topo = topologies::mci();
        let group =
            AnycastGroup::new("G", topologies::MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
        let routes = RouteTable::shortest_paths(&topo, &group);
        let mut links =
            LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
        for raw in saturate {
            let l = LinkId::new(raw % topo.link_count() as u32);
            let avail = links.available(l);
            if !avail.is_zero() {
                links.reserve(l, avail).unwrap();
            }
        }
        // `audit` scans the reserved column and checks the ledger's
        // running total against it.
        let baseline_reserved = links.audit().unwrap().reserved_bps;
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(seed);
        let source = NodeId::new(9);
        let policy: Box<dyn WeightAssigner> = match policy_pick {
            0 => PolicySpec::Ed,
            1 => PolicySpec::wd_dh_default(),
            _ => PolicySpec::WdDb,
        }
        .build()
        .unwrap();
        let mut controller = AdmissionController::new(
            policy,
            RetrialPolicy::FixedLimit(r),
            routes.distances(source).expect("source is in the topology"),
        );
        let mut sessions = Vec::new();
        for _ in 0..30 {
            let out = controller.admit(
                routes.routes_from(source).expect("source is in the topology"),
                &mut links,
                &mut rsvp,
                Bandwidth::from_kbps(64),
                &mut rng,
            );
            prop_assert!(out.tries >= 1);
            prop_assert!(out.tries <= r);
            prop_assert!(out.tries as usize <= group.len());
            if let Some(flow) = out.admitted {
                prop_assert!(flow.member_index < group.len());
                sessions.push(flow.session);
            }
        }
        for s in sessions {
            rsvp.teardown(&mut links, s).unwrap();
        }
        prop_assert_eq!(links.audit().unwrap().reserved_bps, baseline_reserved);
    }

    /// The delay→bandwidth mapping is safe (the granted rate meets the
    /// bound) and tight (halving the rate would violate it), wherever it
    /// declares feasibility.
    #[test]
    fn qos_mapping_safe_and_tight(
        burst in 100u64..100_000,
        packet in 64u64..9_000,
        sustained_kbps in 1u64..1_000,
        delay_ms in 1.0f64..2_000.0,
        hops in 0usize..10,
    ) {
        let spec = FlowSpec {
            burst_bytes: burst,
            max_packet_bytes: packet,
            sustained_rate: Bandwidth::from_kbps(sustained_kbps),
        };
        let cap = Bandwidth::from_mbps(100);
        let bound = delay_ms / 1_000.0;
        match required_bandwidth(&spec, bound, hops, cap, 1_500) {
            Ok(rate) => {
                prop_assert!(rate >= spec.sustained_rate);
                let achieved = guaranteed_delay(&spec, rate, hops, cap, 1_500);
                prop_assert!(
                    achieved <= bound + 1e-9,
                    "achieved {achieved} vs bound {bound}"
                );
                // Tightness only applies when the rate-dependent term
                // binds (above the sustained-rate floor) on a real route.
                if hops > 0 && rate > spec.sustained_rate {
                    let halved = Bandwidth::from_bps(rate.bps() / 2);
                    if !halved.is_zero() {
                        let worse = guaranteed_delay(&spec, halved, hops, cap, 1_500);
                        prop_assert!(worse > bound);
                    }
                }
            }
            Err(_) => {
                // Infeasible must mean the fixed per-hop latency alone
                // exceeds the bound: no rate, however large, can help.
                let floor =
                    guaranteed_delay(&spec, Bandwidth::from_bps(u64::MAX / 2), hops, cap, 1_500);
                prop_assert!(floor >= bound - 1e-9);
            }
        }
    }

    /// Tighter delay bounds never need less bandwidth.
    #[test]
    fn qos_mapping_monotone_in_bound(
        hops in 1usize..8,
        loose_ms in 2.0f64..2_000.0,
        frac in 0.1f64..0.9,
    ) {
        let spec = FlowSpec {
            burst_bytes: 3_000,
            max_packet_bytes: 1_500,
            sustained_rate: Bandwidth::from_kbps(64),
        };
        let cap = Bandwidth::from_mbps(100);
        let loose = loose_ms / 1_000.0;
        let tight = loose * frac;
        let loose_bw = required_bandwidth(&spec, loose, hops, cap, 1_500);
        let tight_bw = required_bandwidth(&spec, tight, hops, cap, 1_500);
        match (loose_bw, tight_bw) {
            (Ok(l), Ok(t)) => prop_assert!(t >= l),
            (Ok(_), Err(_)) => {} // tight became infeasible: consistent
            (Err(_), Ok(_)) => {
                prop_assert!(false, "loose infeasible but tight feasible");
            }
            (Err(_), Err(_)) => {}
        }
    }

    /// Policies are deterministic functions of (context, internal state):
    /// two fresh instances fed identical contexts give identical weights.
    #[test]
    fn policies_are_deterministic(
        entries in prop::collection::vec((1u32..20, 0u32..10, 1.0f64..1e8), 2..8),
        alpha in 0.0f64..=1.0,
    ) {
        let distances: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let history: Vec<u32> = entries.iter().map(|e| e.1).collect();
        let bandwidth: Vec<f64> = entries.iter().map(|e| e.2).collect();
        let ctx = SelectionContext {
            distances: &distances,
            history: &history,
            route_bandwidth_bps: &bandwidth,
        };
        let iterative = PolicySpec::WdDh { alpha, mode: HistoryMode::Iterative };
        for spec in [PolicySpec::Ed, iterative, PolicySpec::WdDb] {
            let mut a = spec.build().unwrap();
            let mut b = spec.build().unwrap();
            for _ in 0..3 {
                prop_assert_eq!(a.assign(&ctx), b.assign(&ctx));
            }
        }
    }
}
