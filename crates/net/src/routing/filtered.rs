//! Shortest paths over the residual network — the GDI search primitive.

use super::RoutingScratch;
use crate::{Bandwidth, LinkId, LinkStateTable, NodeId, Path, Topology};
use std::collections::VecDeque;

/// Finds the member GDI admits to: among `members` reachable from `src`
/// over links whose available bandwidth is at least `demand`, the one
/// with the fewest hops (lowest index on ties), together with its path.
///
/// This is the core primitive of the paper's GDI baseline: with perfect
/// global dynamic information, an admission succeeds exactly when some path
/// of feasible links reaches some group member. Taking a shortest one
/// means GDI consumes the least bandwidth per admitted flow.
///
/// One level-by-level BFS from `src` serves every member. A BFS fixes a
/// node's parent when it first reaches it, in an order that does not
/// depend on the target, so the path built from the parent tree is the one
/// a per-pair search ([`filtered_shortest_path`]) returns for that member.
/// The search stops once a whole level has been expanded and it contains a
/// member; with `exhaustive` it runs until the frontier is empty instead,
/// so that [`RoutingScratch::reached`] afterwards answers for every member
/// (GDI's per-member trace reasons). The choice is the same either way.
///
/// A member equal to `src` wins with the trivial path; a member outside
/// the topology is never reached. Returns `None` when no member is.
///
/// # Panics
///
/// Panics if `src` is not a node of `topo`.
pub fn nearest_feasible_member(
    scratch: &mut RoutingScratch,
    topo: &Topology,
    links: &LinkStateTable,
    src: NodeId,
    members: &[NodeId],
    demand: Bandwidth,
    exhaustive: bool,
) -> Option<(usize, Path)> {
    assert!(topo.contains_node(src), "source {src} not in topology");
    scratch.begin(topo.node_count());
    scratch.mark_seen(src, None);
    scratch.queue.push_back(src);
    let mut nearest = None;
    loop {
        // Every node seen so far is at most one level deeper than the last
        // check, so the first member found here is the lowest-index one at
        // the smallest depth.
        if nearest.is_none() {
            nearest = members.iter().position(|&m| scratch.reached(m));
        }
        if scratch.queue.is_empty() || (nearest.is_some() && !exhaustive) {
            break;
        }
        // Expand exactly one level; the queue then holds the next one.
        for _ in 0..scratch.queue.len() {
            let u = scratch.queue.pop_front().expect("level length counted");
            for &(v, link) in topo.neighbors(u) {
                if scratch.reached(v) || links.available(link) < demand {
                    continue;
                }
                scratch.mark_seen(v, Some((u, link)));
                scratch.queue.push_back(v);
            }
        }
    }
    nearest.map(|idx| {
        let (nodes, plinks) = scratch.extract(src, members[idx]);
        let path = Path::new(topo, nodes, plinks).expect("BFS produces consistent paths");
        (idx, path)
    })
}

/// Finds the shortest path from `src` to `dst` using only links whose
/// available bandwidth is at least `demand` (fewest hops, deterministic
/// lowest-id tie-break).
///
/// A self-contained per-pair BFS that allocates its own state: the naive
/// reference [`nearest_feasible_member`] is checked against (its choice
/// must be the argmin of this search over the members). No product path
/// calls it.
///
/// Returns `None` when no feasible path exists. The trivial path is returned
/// when `src == dst`.
///
/// # Panics
///
/// Panics if `src` is not a node of `topo`.
pub fn filtered_shortest_path(
    topo: &Topology,
    links: &LinkStateTable,
    src: NodeId,
    dst: NodeId,
    demand: Bandwidth,
) -> Option<Path> {
    assert!(topo.contains_node(src), "source {src} not in topology");
    if !topo.contains_node(dst) {
        return None;
    }
    if src == dst {
        return Some(Path::trivial(src));
    }
    let mut parent: Vec<Option<(NodeId, LinkId)>> = vec![None; topo.node_count()];
    let mut seen = vec![false; topo.node_count()];
    seen[src.index()] = true;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &(v, link) in topo.neighbors(u) {
            if seen[v.index()] || links.available(link) < demand {
                continue;
            }
            seen[v.index()] = true;
            parent[v.index()] = Some((u, link));
            if v == dst {
                let (mut nodes, mut plinks, mut cur) = (vec![dst], Vec::new(), dst);
                while let Some((prev, l)) = parent[cur.index()] {
                    nodes.push(prev);
                    plinks.push(l);
                    cur = prev;
                }
                nodes.reverse();
                plinks.reverse();
                return Some(
                    Path::new(topo, nodes, plinks).expect("BFS produces consistent paths"),
                );
            }
            queue.push_back(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bandwidth, LinkId, TopologyBuilder};

    fn diamond() -> Topology {
        // 0-1 (l0), 0-2 (l1), 1-3 (l2), 2-3 (l3)
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (0, 2), (1, 3), (2, 3)], Bandwidth::from_mbps(100))
            .unwrap();
        b.build()
    }

    fn nearest(
        topo: &Topology,
        state: &LinkStateTable,
        src: u32,
        members: &[u32],
        demand: Bandwidth,
    ) -> Option<(usize, Path)> {
        let members: Vec<NodeId> = members.iter().map(|&m| NodeId::new(m)).collect();
        nearest_feasible_member(
            &mut RoutingScratch::default(),
            topo,
            state,
            NodeId::new(src),
            &members,
            demand,
            false,
        )
    }

    #[test]
    fn routes_around_saturated_link() {
        let topo = diamond();
        let mut state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Kill the preferred upper route at link 0-1.
        state
            .reserve(LinkId::new(0), Bandwidth::from_mbps(100))
            .unwrap();
        let p = filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(3),
            Bandwidth::from_kbps(64),
        )
        .unwrap();
        assert_eq!(p.nodes(), &[NodeId::new(0), NodeId::new(2), NodeId::new(3)]);
        let (idx, q) = nearest(&topo, &state, 0, &[3], Bandwidth::from_kbps(64)).unwrap();
        assert_eq!((idx, q), (0, p));
    }

    #[test]
    fn no_feasible_path_is_none() {
        let topo = diamond();
        let mut state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Node 3 cut off on both sides.
        state
            .reserve(LinkId::new(2), Bandwidth::from_mbps(100))
            .unwrap();
        state
            .reserve(LinkId::new(3), Bandwidth::from_mbps(100))
            .unwrap();
        assert!(filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(3),
            Bandwidth::from_kbps(64)
        )
        .is_none());
        assert!(nearest(&topo, &state, 0, &[3], Bandwidth::from_kbps(64)).is_none());
    }

    #[test]
    fn exact_fit_is_feasible() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let p = filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(1),
            Bandwidth::from_mbps(100),
        );
        assert!(p.is_some());
    }

    #[test]
    fn over_demand_is_infeasible() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(1),
            Bandwidth::from_mbps(101)
        )
        .is_none());
    }

    #[test]
    fn same_node_is_trivial() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let p = filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(2),
            NodeId::new(2),
            Bandwidth::from_mbps(1_000),
        )
        .unwrap();
        assert_eq!(p.hops(), 0);
        // A member at the source wins with 0 hops, whatever its index and
        // whatever the demand.
        let (idx, q) = nearest(&topo, &state, 2, &[0, 2], Bandwidth::from_mbps(1_000)).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(q.hops(), 0);
    }

    #[test]
    fn unknown_destination_is_none() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        assert!(filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(40),
            Bandwidth::ZERO
        )
        .is_none());
        let (idx, _) = nearest(&topo, &state, 0, &[40, 3], Bandwidth::ZERO).unwrap();
        assert_eq!(idx, 1, "a member outside the topology is never reached");
    }

    #[test]
    fn prefers_shortest_feasible() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        let p = filtered_shortest_path(
            &topo,
            &state,
            NodeId::new(0),
            NodeId::new(3),
            Bandwidth::from_kbps(64),
        )
        .unwrap();
        assert_eq!(p.hops(), 2);
        let (idx, q) = nearest(&topo, &state, 0, &[3, 1], Bandwidth::from_kbps(64)).unwrap();
        assert_eq!((idx, q.hops()), (1, 1));
    }

    #[test]
    fn ties_go_to_the_lowest_member_index() {
        let topo = diamond();
        let state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        // Node 2 is discovered after node 1 but listed first.
        let (idx, q) = nearest(&topo, &state, 0, &[3, 2, 1], Bandwidth::ZERO).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(q.nodes(), &[NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn exhaustive_search_reaches_every_feasible_member() {
        let topo = diamond();
        let mut state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
        state
            .reserve(LinkId::new(3), Bandwidth::from_mbps(100))
            .unwrap();
        let members = [NodeId::new(1), NodeId::new(3), NodeId::new(9)];
        let mut scratch = RoutingScratch::default();
        let demand = Bandwidth::from_kbps(64);
        let (idx, _) = nearest_feasible_member(
            &mut scratch,
            &topo,
            &state,
            NodeId::new(0),
            &members,
            demand,
            true,
        )
        .unwrap();
        assert_eq!(idx, 0);
        let reached: Vec<bool> = members.iter().map(|&m| scratch.reached(m)).collect();
        assert_eq!(reached, [true, true, false]);
        // Early stop leaves node 3 (two levels down) unexplored.
        nearest_feasible_member(
            &mut scratch,
            &topo,
            &state,
            NodeId::new(0),
            &members,
            demand,
            false,
        );
        assert!(!scratch.reached(NodeId::new(3)));
    }
}
