//! The two baseline systems of §5.1: SP and GDI.

use crate::{AdmissionOutcome, AdmittedFlow};
use anycast_net::routing::{nearest_feasible_member, RoutingScratch};
use anycast_net::{AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, Topology};
use anycast_rsvp::ReservationEngine;
use anycast_telemetry::{NullRecorder, ProbeResult, RequestTracer, SkipReason};

/// The Shortest-Path (SP) baseline: "the admission control procedure will
/// always pick the destination which has the shortest distance from the
/// source router for each incoming flow" (§5.1).
///
/// Anycast traffic from a source is never spread — every flow goes to the
/// same nearest member, so congestion builds on that one route. The paper
/// expects (and Figure 6 confirms) every DAC variant to beat this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortestPathSystem {
    nearest_member: usize,
}

impl ShortestPathSystem {
    /// Creates the baseline for one source, given the index of its nearest
    /// group member (ties broken toward the lower index, as in
    /// [`RouteTable::nearest_member`](anycast_net::RouteTable::nearest_member)).
    pub fn new(nearest_member: usize) -> Self {
        ShortestPathSystem { nearest_member }
    }

    /// The member every flow from this source is sent to.
    #[cfg(test)]
    pub(crate) fn nearest_member(&self) -> usize {
        self.nearest_member
    }

    /// Attempts to admit one flow: a single reservation attempt on the
    /// fixed route to the nearest member. No retrials ever happen —
    /// there is no alternative destination in this system.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not contain the nearest member's route.
    pub fn admit(
        &self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
    ) -> AdmissionOutcome {
        let mut null = NullRecorder;
        let mut tracer = RequestTracer::new(&mut null, 0.0, 0);
        self.admit_traced(routes, links, rsvp, demand, &mut tracer)
    }

    /// [`admit`](Self::admit) with a telemetry tracer. SP has no weights;
    /// the single candidate is traced with weight 1.0.
    ///
    /// # Panics
    ///
    /// Panics if `routes` does not contain the nearest member's route.
    pub(crate) fn admit_traced(
        &self,
        routes: &[Path],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        let route = &routes[self.nearest_member];
        match rsvp.probe_and_reserve(links, route, demand) {
            Ok(outcome) => {
                tracer.note_weights(&[1.0]);
                tracer.note_probe(self.nearest_member, 1.0, ProbeResult::Admitted);
                tracer.finish_admitted(outcome.session, self.nearest_member, route.hops(), 1);
                AdmissionOutcome {
                    admitted: Some(AdmittedFlow {
                        session: outcome.session,
                        member_index: self.nearest_member,
                        route_bandwidth: outcome.route_bandwidth,
                    }),
                    tries: 1,
                }
            }
            Err(e) => {
                tracer.note_weights(&[1.0]);
                tracer.note_probe(self.nearest_member, 1.0, ProbeResult::Skipped(e.into()));
                tracer.finish_rejected(1);
                AdmissionOutcome {
                    admitted: None,
                    tries: 1,
                }
            }
        }
    }
}

/// The Global-Dynamic-Information (GDI) baseline: an oracle with "perfect
/// global dynamic information on network status" that "is allowed to use
/// any path from a source to a destination" and admits whenever *any* path
/// with sufficient bandwidth reaches *any* member (§5.1).
///
/// Admission is exactly residual-graph reachability: a flow of demand `b`
/// is admissible iff some member is reachable through links with available
/// bandwidth ≥ `b`. Among feasible members this implementation picks the
/// one whose feasible path is shortest, so the oracle also consumes the
/// least bandwidth — the strongest version of the baseline.
///
/// The paper calls this system "ideal, but ... not realistic": it exists
/// to upper-bound what any destination-selection algorithm could achieve.
///
/// Each admission runs one residual-network BFS from the source that stops
/// at the nearest feasible member ([`nearest_feasible_member`]). The system
/// owns the [`RoutingScratch`] that search reuses instead of reallocating
/// its buffers; `admit` therefore takes `&mut self`.
#[derive(Debug, Clone, Default)]
pub struct GlobalDynamicSystem {
    scratch: RoutingScratch,
}

impl GlobalDynamicSystem {
    /// Creates the oracle baseline.
    pub fn new() -> Self {
        GlobalDynamicSystem::default()
    }

    /// Attempts to admit one flow with full knowledge of the residual
    /// network.
    ///
    /// Searches the residual network from the source (BFS over links with
    /// `AB_l ≥ demand`) for the nearest reachable member, reserves along
    /// that path, and rejects only when no member is reachable — the
    /// information-theoretic optimum for single-path admission.
    pub fn admit(
        &mut self,
        topo: &Topology,
        group: &AnycastGroup,
        source: NodeId,
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
    ) -> AdmissionOutcome {
        let mut null = NullRecorder;
        let mut tracer = RequestTracer::new(&mut null, 0.0, 0);
        self.admit_traced(topo, group, source, links, rsvp, demand, &mut tracer)
    }

    /// [`admit`](Self::admit) with a telemetry tracer. GDI has no weight
    /// vector (candidates are traced with weight 0.0); the trace instead
    /// records, for every member, whether a feasible path existed
    /// (`no_feasible_path`) and which feasible members lost the
    /// shortest-path tie-break (`not_selected`). An armed tracer runs the
    /// search to exhaustion so every member's verdict is known; a disarmed
    /// one stops at the nearest member's level. Both pick the same member.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit_traced(
        &mut self,
        topo: &Topology,
        group: &AnycastGroup,
        source: NodeId,
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        tracer: &mut RequestTracer<'_>,
    ) -> AdmissionOutcome {
        let armed = tracer.is_armed();
        let members = group.members();
        let best = nearest_feasible_member(
            &mut self.scratch,
            topo,
            links,
            source,
            members,
            demand,
            armed,
        );
        if armed {
            let chosen = best.as_ref().map(|(idx, _)| *idx);
            for (idx, &member) in members.iter().enumerate() {
                if Some(idx) == chosen {
                    continue; // reported below as the admitted probe
                }
                let skip = if self.scratch.reached(member) {
                    SkipReason::NotSelected
                } else {
                    SkipReason::NoFeasiblePath
                };
                tracer.note_skip(idx, 0.0, skip);
            }
        }
        match best {
            Some((member_index, path)) => {
                let outcome = rsvp
                    .probe_and_reserve(links, &path, demand)
                    .expect("filtered search returned a feasible path");
                tracer.note_probe(member_index, 0.0, ProbeResult::Admitted);
                tracer.finish_admitted(outcome.session, member_index, path.hops(), 1);
                AdmissionOutcome {
                    admitted: Some(AdmittedFlow {
                        session: outcome.session,
                        member_index,
                        route_bandwidth: outcome.route_bandwidth,
                    }),
                    tries: 1,
                }
            }
            None => {
                tracer.finish_rejected(1);
                AdmissionOutcome {
                    admitted: None,
                    tries: 1,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_net::routing::RouteTable;
    use anycast_net::{LinkId, TopologyBuilder};

    /// Diamond with a tail: members at 3 (via two routes) and 4.
    ///
    /// ```text
    ///   0 - 1 - 3 - 4
    ///    \ 2 /
    /// ```
    fn fixture() -> (Topology, AnycastGroup, RouteTable) {
        let mut b = TopologyBuilder::new(5);
        b.links_uniform(
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            Bandwidth::from_kbps(128),
        )
        .unwrap();
        let topo = b.build();
        let group = AnycastGroup::new("A", [NodeId::new(3), NodeId::new(4)]).unwrap();
        let table = RouteTable::shortest_paths(&topo, &group);
        (topo, group, table)
    }

    #[test]
    fn sp_always_uses_nearest() {
        let (topo, _group, table) = fixture();
        let source = NodeId::new(0);
        let nearest = table.nearest_member(source).unwrap();
        assert_eq!(nearest, 0, "member 3 is 2 hops, member 4 is 3 hops");
        let sp = ShortestPathSystem::new(nearest);
        assert_eq!(sp.nearest_member(), 0);
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let mut rsvp = ReservationEngine::new();
        let routes = table.routes_from(source).unwrap();
        let out = sp.admit(routes, &mut links, &mut rsvp, Bandwidth::from_kbps(64));
        assert!(out.is_admitted());
        assert_eq!(out.admitted.unwrap().member_index, 0);
        assert_eq!(out.tries, 1);
    }

    #[test]
    fn sp_rejects_on_congested_fixed_route_even_when_alternative_exists() {
        let (topo, _group, table) = fixture();
        let source = NodeId::new(0);
        let sp = ShortestPathSystem::new(table.nearest_member(source).unwrap());
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Saturate the fixed route 0-1-3 at link 0-1.
        let fixed = &table.routes_from(source).unwrap()[0]; // member 3
        links
            .reserve(fixed.links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let out = sp.admit(
            table.routes_from(source).unwrap(),
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
        );
        assert!(!out.is_admitted(), "SP never re-routes, never re-selects");
    }

    #[test]
    fn gdi_routes_around_congestion() {
        let (topo, group, table) = fixture();
        let source = NodeId::new(0);
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Same congestion that defeats SP: link 0-1 saturated.
        let fixed = &table.routes_from(source).unwrap()[0]; // member 3
        links
            .reserve(fixed.links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let out = GlobalDynamicSystem::new().admit(
            &topo,
            &group,
            source,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
        );
        assert!(out.is_admitted(), "0-2-3 is still feasible");
        let flow = out.admitted.unwrap();
        assert_eq!(flow.member_index, 0);
        // The dynamic path used link 0-2 (id 1), not the fixed 0-1 route.
        let res = rsvp.reservation(flow.session).unwrap();
        assert!(res.path().uses_link(LinkId::new(1)));
    }

    #[test]
    fn gdi_rejects_only_when_no_member_reachable() {
        let (topo, group, _table) = fixture();
        let source = NodeId::new(0);
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Cut both exits of node 0.
        links
            .reserve(LinkId::new(0), Bandwidth::from_kbps(128))
            .unwrap();
        links
            .reserve(LinkId::new(1), Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let out = GlobalDynamicSystem::new().admit(
            &topo,
            &group,
            source,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
        );
        assert!(!out.is_admitted());
        assert_eq!(out.tries, 1);
    }

    #[test]
    fn gdi_prefers_shortest_feasible_member() {
        let (topo, group, _table) = fixture();
        let source = NodeId::new(4);
        let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let mut rsvp = ReservationEngine::new();
        let out = GlobalDynamicSystem::new().admit(
            &topo,
            &group,
            source,
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
        );
        // Member 3 is adjacent to source 4; member 4 is the source itself —
        // its trivial path has 0 hops and must win.
        assert_eq!(out.admitted.unwrap().member_index, 1);
    }

    #[test]
    fn gdi_dominates_sp_under_identical_load() {
        let (topo, group, table) = fixture();
        let source = NodeId::new(0);
        let demand = Bandwidth::from_kbps(64);
        // Drive both systems with the same saturation pattern; GDI must
        // admit at least whenever SP does.
        for saturate in 0u32..5 {
            let mut links_sp = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
            let mut links_gdi = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
            for t in [&mut links_sp, &mut links_gdi] {
                let avail = t.available(LinkId::new(saturate));
                t.reserve(LinkId::new(saturate), avail).unwrap();
            }
            let mut rsvp_sp = ReservationEngine::new();
            let mut rsvp_gdi = ReservationEngine::new();
            let sp = ShortestPathSystem::new(table.nearest_member(source).unwrap());
            let sp_out = sp.admit(
                table.routes_from(source).unwrap(),
                &mut links_sp,
                &mut rsvp_sp,
                demand,
            );
            let gdi_out = GlobalDynamicSystem::new().admit(
                &topo,
                &group,
                source,
                &mut links_gdi,
                &mut rsvp_gdi,
                demand,
            );
            assert!(
                !sp_out.is_admitted() || gdi_out.is_admitted(),
                "link {saturate}: GDI must dominate SP"
            );
        }
    }
}
