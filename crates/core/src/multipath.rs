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

use crate::policy::{SelectionContext, WeightAssigner};
use crate::{AdmissionOutcome, AdmittedFlow, HistoryTable, RetrialPolicy};
use anycast_net::routing::k_shortest_paths;
use anycast_net::{AnycastGroup, Bandwidth, LinkStateTable, NodeId, Path, Topology};
use anycast_rsvp::ReservationEngine;
use anycast_sim::SimRng;
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
#[derive(Debug)]
pub struct MultipathController {
    policy: Box<dyn WeightAssigner>,
    retrial: RetrialPolicy,
    history: HistoryTable,
    distances: Vec<u32>,
}

impl MultipathController {
    /// Creates a controller for one source (see
    /// [`AdmissionController::new`](crate::AdmissionController::new); the
    /// distances are the primary-path distances).
    ///
    /// # Panics
    ///
    /// Panics if `distances` is empty.
    pub fn new(
        policy: Box<dyn WeightAssigner>,
        retrial: RetrialPolicy,
        distances: Vec<u32>,
    ) -> Self {
        assert!(!distances.is_empty(), "group must have at least one member");
        let history = HistoryTable::new(distances.len());
        MultipathController {
            policy,
            retrial,
            history,
            distances,
        }
    }

    /// This router's local admission history.
    pub fn history(&self) -> &HistoryTable {
        &self.history
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
        assert_eq!(
            route_fans.len(),
            self.distances.len(),
            "route fans must cover every group member"
        );
        let k = route_fans.len();
        let mut untried = vec![true; k];
        let mut member_tries = 0u32;
        let mut path_attempts = 0u32;
        loop {
            let bw_info = self.route_bandwidth_info(route_fans, links);
            let ctx = SelectionContext {
                distances: &self.distances,
                history: self.history.entries(),
                route_bandwidth_bps: &bw_info,
            };
            let weights = self.policy.assign(&ctx);
            let pick = match rng.choose_weighted_masked(&weights, &untried) {
                Some(i) => i,
                None => {
                    let remaining: Vec<usize> = (0..k).filter(|&i| untried[i]).collect();
                    match remaining.len() {
                        0 => break,
                        n => remaining[rng.below(n)],
                    }
                }
            };
            member_tries += 1;
            let fan = &route_fans[pick];
            assert!(!fan.is_empty(), "member {pick} has no routes");
            let mut admitted = None;
            for path in fan {
                path_attempts += 1;
                if let Ok(out) = rsvp.probe_and_reserve(links, path, demand) {
                    admitted = Some(AdmittedFlow {
                        session: out.session,
                        member_index: pick,
                        route_bandwidth: out.route_bandwidth,
                    });
                    break;
                }
            }
            match admitted {
                Some(flow) => {
                    self.history.record_success(pick);
                    return MultipathOutcome {
                        outcome: AdmissionOutcome {
                            admitted: Some(flow),
                            tries: member_tries,
                        },
                        path_attempts,
                    };
                }
                None => {
                    self.history.record_failure(pick);
                    untried[pick] = false;
                }
            }
            if untried.iter().all(|&u| !u) {
                break;
            }
            let remaining_weight: f64 = weights
                .iter()
                .zip(&untried)
                .filter(|(_, &u)| u)
                .map(|(&w, _)| w)
                .sum();
            if !self.retrial.keep_going(member_tries, remaining_weight) {
                break;
            }
        }
        MultipathOutcome {
            outcome: AdmissionOutcome {
                admitted: None,
                tries: member_tries,
            },
            path_attempts,
        }
    }

    /// Resets the admission history.
    pub fn reset_history(&mut self) {
        self.history.reset();
    }

    fn route_bandwidth_info(&self, route_fans: &[Vec<Path>], links: &LinkStateTable) -> Vec<f64> {
        if !self.policy.needs_route_bandwidth() {
            return Vec::new();
        }
        // A member's usable bandwidth is the best bottleneck over its fan.
        route_fans
            .iter()
            .map(|fan| {
                fan.iter()
                    .map(|p| {
                        let bw = links.min_available_on(p).bps();
                        if bw == u64::MAX {
                            1e18
                        } else {
                            bw as f64
                        }
                    })
                    .fold(0.0f64, f64::max)
            })
            .collect()
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
