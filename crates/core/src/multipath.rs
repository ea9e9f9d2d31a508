//! Multipath DAC — relaxing the paper's fixed-single-path assumption.
//!
//! §3 fixes *one* route per (source, member) and §6 lists relaxing that as
//! future work. This module supplies each member with its `k` shortest
//! loop-free paths (Yen's algorithm) and lets a reservation failure fall
//! through to the member's alternate routes before the member is declared
//! failed. Destination selection, history and retrial control are
//! unchanged — only the reservation step gains depth — so the comparison
//! against the single-path DAC isolates exactly what path diversity buys
//! (`ablation_multipath`).

use crate::controller::Routes;
use crate::policy::WeightAssigner;
use crate::{AdmissionController, AdmissionOutcome, HistoryTable, RetrialPolicy};
use anycast_net::routing::k_shortest_paths;
use anycast_net::{AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, Topology};
use anycast_rsvp::ReservationEngine;
use anycast_sim::SimRng;
use anycast_telemetry::{NullRecorder, RequestTracer};
use std::collections::HashMap;

/// Fixed multipath routes: for every listed source and every member, the
/// `k` shortest loop-free paths in preference order.
#[derive(Debug, Clone)]
pub struct MultipathRouteTable {
    group: AnycastGroup,
    paths_per_member: usize,
    /// `routes[source][member_index][rank]`
    routes: HashMap<NodeId, Vec<Vec<Path>>>,
}

impl MultipathRouteTable {
    /// Builds up to `paths_per_member` routes from each of `sources` to
    /// every member.
    ///
    /// # Panics
    ///
    /// Panics if `paths_per_member` is zero or some member is unreachable
    /// from some source (the paper's connectivity assumption).
    pub fn build(
        topo: &Topology,
        group: &AnycastGroup,
        sources: &[NodeId],
        paths_per_member: usize,
    ) -> Self {
        assert!(paths_per_member > 0, "need at least one path per member");
        let mut routes = HashMap::with_capacity(sources.len());
        for &src in sources {
            let per_member: Vec<Vec<Path>> = group
                .members()
                .iter()
                .map(|&m| {
                    let paths = k_shortest_paths(topo, src, m, paths_per_member);
                    assert!(
                        !paths.is_empty(),
                        "member {m} unreachable from {src}: topology must be connected"
                    );
                    paths
                })
                .collect();
            routes.insert(src, per_member);
        }
        MultipathRouteTable {
            group: group.clone(),
            paths_per_member,
            routes,
        }
    }

    /// The anycast group this table routes toward.
    pub fn group(&self) -> &AnycastGroup {
        &self.group
    }

    /// The requested number of paths per member (individual members may
    /// have fewer if the topology lacks diversity).
    pub fn paths_per_member(&self) -> usize {
        self.paths_per_member
    }

    /// All route fans from `source`, indexed `[member_index][rank]`.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built for `source`.
    pub fn routes_from(&self, source: NodeId) -> &[Vec<Path>] {
        self.routes
            .get(&source)
            .map(Vec::as_slice)
            .unwrap_or_else(|| panic!("no routes recorded for source {source}"))
    }

    /// Primary (shortest) hop distances per member — the `D_i` fed to the
    /// weight formulas, identical to the single-path table's distances.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built for `source`.
    pub fn distances(&self, source: NodeId) -> Vec<u32> {
        self.routes_from(source)
            .iter()
            .map(|fan| fan[0].hops() as u32)
            .collect()
    }
}

/// Outcome of a multipath admission: the member-level outcome plus how
/// many individual path reservations were attempted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultipathOutcome {
    /// Member-level view, comparable to the single-path
    /// [`AdmissionOutcome`] (tries counts *members*, as in the paper).
    pub outcome: AdmissionOutcome,
    /// Total path reservation attempts across all members tried.
    pub path_attempts: u32,
}

/// The multipath admission controller: the §4.2 loop where each selected
/// member may be probed over several fixed alternate routes.
///
/// It is the single-path [`AdmissionController`] driven over route fans:
/// the reservation step walks the selected member's fan, and the weights
/// read each member's best bottleneck over its fan.
#[derive(Debug)]
pub struct MultipathController {
    dac: AdmissionController,
}

impl MultipathController {
    /// Creates a controller for one source (see
    /// [`AdmissionController::new`]; the distances are the primary-path
    /// distances).
    ///
    /// # Panics
    ///
    /// Panics if `distances` is empty.
    pub fn new(
        policy: Box<dyn WeightAssigner>,
        retrial: RetrialPolicy,
        distances: Vec<u32>,
    ) -> Self {
        MultipathController {
            dac: AdmissionController::new(policy, retrial, distances),
        }
    }

    /// This router's local admission history.
    pub fn history(&self) -> &HistoryTable {
        self.dac.history()
    }

    /// Runs the multipath DAC procedure for one flow request.
    ///
    /// `route_fans[i]` holds member `i`'s alternate routes in preference
    /// order. A member "fails" only when every alternate is blocked; the
    /// history then records one failure, exactly as a single-path failure
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if `route_fans` does not match the construction-time group
    /// size or contains an empty fan.
    pub fn admit(
        &mut self,
        route_fans: &[Vec<Path>],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
    ) -> MultipathOutcome {
        let mut null = NullRecorder;
        let mut tracer = RequestTracer::new(&mut null, 0.0, 0);
        self.admit_traced(route_fans, links, rsvp, demand, rng, &mut tracer)
    }

    /// [`admit`](Self::admit) with a telemetry tracer, traced exactly like
    /// [`AdmissionController::admit_traced`]: a failed member's skip
    /// reason is the bottleneck of the last route of its fan.
    ///
    /// # Panics
    ///
    /// As [`admit`](Self::admit).
    pub fn admit_traced(
        &mut self,
        route_fans: &[Vec<Path>],
        links: &mut LinkStateTable,
        rsvp: &mut ReservationEngine,
        demand: Bandwidth,
        rng: &mut SimRng,
        tracer: &mut RequestTracer<'_>,
    ) -> MultipathOutcome {
        let (outcome, path_attempts) =
            self.dac
                .decide(Routes::Fans(route_fans), links, rsvp, demand, rng, tracer);
        MultipathOutcome {
            outcome,
            path_attempts,
        }
    }

    /// Resets the admission history.
    pub fn reset_history(&mut self) {
        self.dac.reset_history();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Ed, PolicySpec};
    use anycast_net::{topologies, LinkId, TopologyBuilder};

    /// Diamond to a single member: two disjoint 2-hop routes.
    fn diamond() -> (Topology, AnycastGroup, MultipathRouteTable) {
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (1, 3), (0, 2), (2, 3)], Bandwidth::from_kbps(128))
            .unwrap();
        let topo = b.build();
        let group = AnycastGroup::new("G", [NodeId::new(3)]).unwrap();
        let table = MultipathRouteTable::build(&topo, &group, &[NodeId::new(0)], 2);
        (topo, group, table)
    }

    #[test]
    fn table_shape() {
        let (_, group, table) = diamond();
        assert_eq!(table.group(), &group);
        assert_eq!(table.paths_per_member(), 2);
        let fans = table.routes_from(NodeId::new(0));
        assert_eq!(fans.len(), 1);
        assert_eq!(fans[0].len(), 2);
        assert_eq!(table.distances(NodeId::new(0)), vec![2]);
    }

    #[test]
    fn falls_through_to_alternate_route() {
        let (topo, _, table) = diamond();
        let mut links = LinkStateTable::from_topology(&topo);
        // Kill the primary route (via node 1).
        let primary = &table.routes_from(NodeId::new(0))[0][0];
        links
            .reserve(primary.links()[0], Bandwidth::from_kbps(128))
            .unwrap();
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(1);
        let mut c = MultipathController::new(
            Box::new(Ed),
            RetrialPolicy::FixedLimit(1),
            table.distances(NodeId::new(0)),
        );
        let out = c.admit(
            table.routes_from(NodeId::new(0)),
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
        assert!(
            out.outcome.is_admitted(),
            "alternate route must save the flow"
        );
        assert_eq!(out.outcome.tries, 1, "one member tried");
        assert_eq!(out.path_attempts, 2, "two paths probed");
        assert_eq!(c.history().failures(0), 0, "member succeeded overall");
    }

    #[test]
    fn member_fails_only_when_all_paths_fail() {
        let (topo, _, table) = diamond();
        let mut links = LinkStateTable::from_topology(&topo);
        for l in 0..4u32 {
            let id = LinkId::new(l);
            let avail = links.available(id);
            links.reserve(id, avail).unwrap();
        }
        let mut rsvp = ReservationEngine::new();
        let mut rng = SimRng::seed_from(2);
        let mut c = MultipathController::new(
            Box::new(Ed),
            RetrialPolicy::FixedLimit(3),
            table.distances(NodeId::new(0)),
        );
        let out = c.admit(
            table.routes_from(NodeId::new(0)),
            &mut links,
            &mut rsvp,
            Bandwidth::from_kbps(64),
            &mut rng,
        );
        assert!(!out.outcome.is_admitted());
        assert_eq!(out.outcome.tries, 1, "single member exhausted");
        assert_eq!(out.path_attempts, 2);
        assert_eq!(c.history().failures(0), 1, "one member-level failure");
    }

    #[test]
    fn k1_matches_single_path_controller() {
        // With one path per member the multipath controller must behave
        // exactly like the classic one under the same RNG stream.
        let topo = topologies::mci();
        let group = AnycastGroup::new("G", topologies::MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
        let source = NodeId::new(7);
        let multi = MultipathRouteTable::build(&topo, &group, &[source], 1);
        let single = anycast_net::RouteTable::shortest_paths(&topo, &group);
        let mut links_a =
            LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
        let mut links_b = links_a.clone();
        let mut rsvp_a = ReservationEngine::new();
        let mut rsvp_b = ReservationEngine::new();
        let mut rng_a = SimRng::seed_from(77);
        let mut rng_b = SimRng::seed_from(77);
        let mut mc = MultipathController::new(
            PolicySpec::wd_dh_default().build().unwrap(),
            RetrialPolicy::FixedLimit(2),
            multi.distances(source),
        );
        let mut sc = crate::AdmissionController::new(
            PolicySpec::wd_dh_default().build().unwrap(),
            RetrialPolicy::FixedLimit(2),
            single.distances(source).unwrap(),
        );
        for _ in 0..200 {
            let a = mc.admit(
                multi.routes_from(source),
                &mut links_a,
                &mut rsvp_a,
                Bandwidth::from_kbps(64),
                &mut rng_a,
            );
            let b = sc.admit(
                single.routes_from(source).unwrap(),
                &mut links_b,
                &mut rsvp_b,
                Bandwidth::from_kbps(64),
                &mut rng_b,
            );
            assert_eq!(a.outcome.is_admitted(), b.is_admitted());
            assert_eq!(a.outcome.tries, b.tries);
            assert_eq!(
                a.path_attempts, b.tries,
                "k=1: one path probe per member try"
            );
            match (a.outcome.admitted, b.admitted) {
                (Some(fa), Some(fb)) => assert_eq!(fa.member_index, fb.member_index),
                (None, None) => {}
                _ => unreachable!(),
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_paths_rejected() {
        let (topo, group, _) = diamond();
        let _ = MultipathRouteTable::build(&topo, &group, &[NodeId::new(0)], 0);
    }
}
