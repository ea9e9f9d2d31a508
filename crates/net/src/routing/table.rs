//! Fixed routes from a set of sources to every group member.

use crate::routing::RoutingScratch;
use crate::{AnycastGroup, LinkId, NetError, NodeId, Path, Topology};
use std::collections::HashMap;
use std::sync::Arc;

/// A source's routes to every group member, in member order.
///
/// Shared and cheaply clonable so a consumer can keep a source's routes
/// (or hand them to worker threads) without copying paths.
pub type RouteSet = Arc<[Path]>;

/// The fixed-route table assumed by §3: for every `(source, member)` pair,
/// one deterministic shortest path.
///
/// Route distances feed the `1/D_i` terms of the weighted selection
/// algorithms; the paths themselves are what the reservation engine walks.
/// Routes are a pure function of the immutable [`Topology`] (faults live in
/// the link-state ledger, not the graph), so a table never goes stale.
///
/// A table holds routes only for the sources it was built for
/// ([`RouteTable::for_sources`]; [`RouteTable::shortest_paths`] lists every
/// node). Every lookup takes an `Option` form: a source the table was not
/// built for yields `None` rather than a panic.
///
/// ```rust
/// use anycast_net::{topologies, AnycastGroup, NodeId, RouteTable};
///
/// # fn main() -> Result<(), anycast_net::NetError> {
/// let topo = topologies::mci();
/// let group = AnycastGroup::new("A", [0u32, 4, 8, 12, 16].map(NodeId::new))?;
/// let routes = RouteTable::for_sources(&topo, &group, [NodeId::new(1)])?;
/// let dists = routes.distances(NodeId::new(1)).unwrap();
/// assert_eq!(dists.len(), group.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// `routes[source][member_index]`.
    routes: HashMap<NodeId, RouteSet>,
}

impl RouteTable {
    /// Builds shortest-path routes from each of `sources` to every member
    /// of `group`: one breadth-first search per listed source, all through
    /// one reused [`RoutingScratch`], each stopping once it has reached
    /// every member. A search goes level by level; at a level boundary
    /// where the frontier's adjacency is at least the members' two-hop
    /// neighbourhood, it tries to finish from the members' side instead,
    /// giving each member within two hops of the frontier the parents the
    /// full search would give it. A BFS fixes a node's parent the first
    /// time it reaches the node, so each route is the path
    /// [`bfs_tree`](crate::routing::bfs_tree)`(src).path_to(m)` returns.
    /// On a fat tree with hosts as members the finish replaces expanding
    /// the last two levels, the aggregation switches four hops out and
    /// the edge switches five hops out.
    ///
    /// Errors with [`NetError::UnknownNode`] when a source is not a node of
    /// `topo` and [`NetError::NoRoute`] naming the first `(source, member)`
    /// pair that is disconnected.
    pub fn for_sources(
        topo: &Topology,
        group: &AnycastGroup,
        sources: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, NetError> {
        Self::search(topo, group, sources).map(|(table, _)| table)
    }

    /// [`for_sources`](Self::for_sources), also counting how its searches
    /// ended.
    fn search(
        topo: &Topology,
        group: &AnycastGroup,
        sources: impl IntoIterator<Item = NodeId>,
    ) -> Result<(Self, Finishes), NetError> {
        let members = group.members();
        // A search is done once it has reached every member inside the
        // topology. Finishing from the members' side reads their two-hop
        // neighbourhood, so it is tried only where the frontier would cost
        // at least that much to expand, which no frontier can where the
        // whole graph's adjacency is less.
        let mut is_member = vec![false; topo.node_count()];
        let mut two_hop = 0;
        for &m in members.iter().filter(|&&m| topo.contains_node(m)) {
            is_member[m.index()] = true;
            two_hop += topo.degree(m);
            two_hop += topo
                .neighbors(m)
                .iter()
                .map(|&(x, _)| topo.degree(x))
                .sum::<usize>();
        }
        let may_finish = two_hop <= 2 * topo.link_count();
        let reachable = is_member.iter().filter(|&&b| b).count();
        let mut scratch = RoutingScratch::default();
        let mut finish = MembersSide::default();
        let mut finishes = Finishes::default();
        let sources = sources.into_iter();
        let mut routes = HashMap::with_capacity(sources.size_hint().0);
        for src in sources {
            if !topo.contains_node(src) {
                return Err(NetError::UnknownNode(src));
            }
            scratch.begin(topo.node_count());
            scratch.mark_seen(src, None);
            scratch.queue.push_back(src);
            let mut left = reachable - usize::from(is_member[src.index()]);
            // Nodes of the level being expanded still queued: at 0 the
            // queue holds exactly the next level, the frontier. Read only
            // where a finish may be tried; elsewhere it just wraps.
            let mut level_left = 0usize;
            while left > 0 {
                if may_finish && level_left == 0 {
                    level_left = scratch.queue.len();
                    if scratch.queue.iter().map(|&u| topo.degree(u)).sum::<usize>() >= two_hop {
                        finishes.tried += 1;
                        if finish.resolve(topo, &mut scratch, members) {
                            finishes.done += 1;
                            break;
                        }
                    }
                }
                let Some(u) = scratch.queue.pop_front() else {
                    break;
                };
                level_left = level_left.wrapping_sub(1);
                for &(v, link) in topo.neighbors(u) {
                    if !scratch.reached(v) {
                        scratch.mark_seen(v, Some((u, link)));
                        scratch.queue.push_back(v);
                        left -= usize::from(is_member[v.index()]);
                    }
                }
            }
            let mut paths = Vec::with_capacity(members.len());
            for &m in members {
                if !scratch.reached(m) {
                    return Err(NetError::NoRoute(src, m));
                }
                let (nodes, links) = scratch.extract(src, m);
                paths.push(Path::new(topo, nodes, links).expect("BFS produces consistent paths"));
            }
            routes.insert(src, RouteSet::from(paths));
        }
        Ok((RouteTable { routes }, finishes))
    }

    /// Builds shortest-path routes from *every* node of `topo` to every
    /// member of `group`.
    ///
    /// # Panics
    ///
    /// Panics if some member is unreachable from some node — the paper
    /// assumes a connected, fault-free network; partial tables for faulty
    /// networks are built with `try_shortest_paths`.
    pub fn shortest_paths(topo: &Topology, group: &AnycastGroup) -> Self {
        Self::try_shortest_paths(topo, group).expect(
            "topology must be connected so every source reaches every group member; \
             use try_shortest_paths for partial networks",
        )
    }

    /// Builds shortest-path routes from every node, returning `None` if any
    /// `(source, member)` pair is disconnected.
    pub(crate) fn try_shortest_paths(topo: &Topology, group: &AnycastGroup) -> Option<Self> {
        Self::for_sources(topo, group, topo.nodes()).ok()
    }

    /// All routes from `source`, indexed by member index.
    ///
    /// Returns `None` when the table was not built for `source`.
    pub fn routes_from(&self, source: NodeId) -> Option<&[Path]> {
        self.routes.get(&source).map(|set| &set[..])
    }

    /// The shared route set from `source`, or `None` for unknown sources.
    pub fn route_set(&self, source: NodeId) -> Option<RouteSet> {
        self.routes.get(&source).cloned()
    }

    /// Hop distances `D_i` from `source` to every member, written into
    /// `out` (cleared first) following the `weights::*_into` convention so
    /// admission hot paths reuse one buffer instead of allocating per
    /// decision.
    ///
    /// Returns `None` (leaving `out` cleared) for unknown sources.
    pub fn distances_into(&self, source: NodeId, out: &mut Vec<u32>) -> Option<()> {
        out.clear();
        let paths = self.routes_from(source)?;
        out.extend(paths.iter().map(|p| p.hops() as u32));
        Some(())
    }

    /// Allocating convenience wrapper over [`RouteTable::distances_into`].
    pub fn distances(&self, source: NodeId) -> Option<Vec<u32>> {
        let mut out = Vec::new();
        self.distances_into(source, &mut out)?;
        Some(out)
    }

    /// Member index of the member with the shortest route from `source`
    /// (the SP baseline's choice). Ties break toward the lower member index.
    ///
    /// Returns `None` when the table was not built for `source`.
    pub fn nearest_member(&self, source: NodeId) -> Option<usize> {
        let paths = self.routes_from(source)?;
        let mut best = 0;
        for (i, p) in paths.iter().enumerate().skip(1) {
            if p.hops() < paths[best].hops() {
                best = i;
            }
        }
        Some(best)
    }
}

/// How the searches behind one table ended: how many tried to finish
/// from the members' side, and how many did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Finishes {
    tried: usize,
    done: usize,
}

/// Buffers for ending a search from the members' side, kept across the
/// searches of one table.
#[derive(Debug, Default)]
struct MembersSide {
    /// Each frontier node's position in the queue, i.e. the order in which
    /// the FIFO search would expand it; written for the whole frontier at
    /// every attempt.
    order: Vec<u32>,
    /// The `(node, parent, link)` marks an attempt makes if it succeeds,
    /// held back until every member has resolved: a node marked earlier
    /// would look like part of the frontier to the next member.
    marks: Vec<(NodeId, NodeId, LinkId)>,
}

impl MembersSide {
    /// Resolves every member `scratch` has not reached from the member's
    /// side, with the queue holding exactly the frontier, and marks them
    /// reached; or, if some member is more than two hops beyond the
    /// frontier (or cut off), marks nothing and returns `false`.
    ///
    /// A node the search has not reached has every reached neighbour in
    /// the frontier, since every earlier level has been expanded. The FIFO
    /// search would expand the frontier in queue order and each node's
    /// neighbours in id order, so an unreached node next to the frontier
    /// gets the frontier neighbour with the smallest queue position as its
    /// parent, and the next level is discovered in order of the key
    /// (that position, the node's position in that neighbour's adjacency).
    /// Adjacency is sorted by id, so the node's id stands for the second
    /// part. A member two hops out takes the next-level neighbour with the
    /// smallest key, the one the search would expand first.
    fn resolve(
        &mut self,
        topo: &Topology,
        scratch: &mut RoutingScratch,
        members: &[NodeId],
    ) -> bool {
        let MembersSide { order, marks } = self;
        if order.len() < topo.node_count() {
            order.resize(topo.node_count(), 0);
        }
        for (i, &u) in scratch.queue.iter().enumerate() {
            order[u.index()] = i as u32;
        }
        marks.clear();
        let first_parent = |x: NodeId| {
            topo.neighbors(x)
                .iter()
                .filter(|&&(u, _)| scratch.reached(u))
                .map(|&(u, link)| (order[u.index()], u, link))
                .min()
        };
        for &m in members {
            if !topo.contains_node(m) || scratch.reached(m) {
                continue;
            }
            if let Some((_, u, link)) = first_parent(m) {
                marks.push((m, u, link));
                continue;
            }
            let next = topo
                .neighbors(m)
                .iter()
                .filter_map(|&(x, down)| {
                    first_parent(x).map(|(position, u, up)| ((position, x), u, up, down))
                })
                .min_by_key(|&(key, ..)| key);
            let Some(((_, x), u, up, down)) = next else {
                return false;
            };
            marks.push((x, u, up));
            marks.push((m, x, down));
        }
        for &(v, u, link) in marks.iter() {
            scratch.mark_seen(v, Some((u, link)));
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{bfs_tree, shortest_path};
    use crate::{topologies, Bandwidth, TopologyBuilder};
    use std::collections::BTreeMap;

    fn mci_group() -> (Topology, AnycastGroup) {
        let topo = topologies::mci();
        let group = AnycastGroup::new("A", [0u32, 4, 8, 12, 16].map(NodeId::new)).unwrap();
        (topo, group)
    }

    fn line5_group() -> (Topology, AnycastGroup) {
        let mut b = TopologyBuilder::new(5);
        b.links_uniform([(0, 1), (1, 2), (2, 3), (3, 4)], Bandwidth::from_mbps(1))
            .unwrap();
        let g = AnycastGroup::new("A", [NodeId::new(0), NodeId::new(4)]).unwrap();
        (b.build(), g)
    }

    #[test]
    fn distances_in_member_order() {
        let (topo, g) = line5_group();
        let table = RouteTable::shortest_paths(&topo, &g);
        assert_eq!(table.distances(NodeId::new(1)).unwrap(), vec![1, 3]);
        assert_eq!(table.distances(NodeId::new(4)).unwrap(), vec![4, 0]);
    }

    #[test]
    fn nearest_member_matches_distances() {
        let (topo, g) = line5_group();
        let table = RouteTable::shortest_paths(&topo, &g);
        assert_eq!(table.nearest_member(NodeId::new(1)), Some(0));
        assert_eq!(table.nearest_member(NodeId::new(3)), Some(1));
        // Equidistant: tie toward lower member index.
        assert_eq!(table.nearest_member(NodeId::new(2)), Some(0));
    }

    #[test]
    fn member_as_source_has_trivial_route() {
        let (topo, g) = line5_group();
        let table = RouteTable::shortest_paths(&topo, &g);
        assert_eq!(table.routes_from(NodeId::new(0)).unwrap()[0].hops(), 0);
    }

    #[test]
    fn unknown_source_is_none_everywhere() {
        let (topo, g) = line5_group();
        let table = RouteTable::shortest_paths(&topo, &g);
        let foreign = NodeId::new(99);
        assert!(table.routes_from(foreign).is_none());
        assert!(table.route_set(foreign).is_none());
        assert!(table.distances(foreign).is_none());
        assert!(table.nearest_member(foreign).is_none());
        let mut buf = vec![7u32];
        assert!(table.distances_into(foreign, &mut buf).is_none());
        assert!(buf.is_empty(), "distances_into clears the buffer first");
    }

    #[test]
    fn listed_sources_get_the_all_nodes_routes_and_nothing_else() {
        let (topo, group) = mci_group();
        let full = RouteTable::shortest_paths(&topo, &group);
        for s in topo.nodes() {
            for (i, &m) in group.members().iter().enumerate() {
                assert_eq!(
                    Some(&full.routes_from(s).unwrap()[i]),
                    shortest_path(&topo, s, m).as_ref(),
                    "source {s}, member {m}"
                );
            }
        }
        let listed = [1u32, 7, 13].map(NodeId::new);
        let subset = RouteTable::for_sources(&topo, &group, listed).unwrap();
        for s in topo.nodes() {
            if listed.contains(&s) {
                assert_eq!(subset.routes_from(s), full.routes_from(s), "source {s}");
            } else {
                assert!(subset.routes_from(s).is_none(), "source {s} was not listed");
            }
        }
    }

    #[test]
    fn unknown_source_and_unreachable_member_are_typed_errors() {
        let (topo, group) = mci_group();
        assert_eq!(
            RouteTable::for_sources(&topo, &group, [NodeId::new(999)]).unwrap_err(),
            NetError::UnknownNode(NodeId::new(999))
        );
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(1))
            .unwrap();
        let island = b.build();
        let g = AnycastGroup::new("B", [NodeId::new(2)]).unwrap();
        assert_eq!(
            RouteTable::for_sources(&island, &g, [NodeId::new(0)]).unwrap_err(),
            NetError::NoRoute(NodeId::new(0), NodeId::new(2))
        );
        // The cut-off member is its own source: only listed sources matter.
        assert!(RouteTable::for_sources(&island, &g, [NodeId::new(2)]).is_ok());
    }

    #[test]
    fn distances_are_route_hops_and_nearest_is_the_first_minimum() {
        let (topo, group) = mci_group();
        let table = RouteTable::shortest_paths(&topo, &group);
        for s in topo.nodes() {
            let dists = table.distances(s).unwrap();
            let hops: Vec<u32> = table
                .routes_from(s)
                .unwrap()
                .iter()
                .map(|p| p.hops() as u32)
                .collect();
            assert_eq!(dists, hops);
            let min = *dists.iter().min().unwrap();
            assert_eq!(
                table.nearest_member(s),
                dists.iter().position(|&d| d == min),
                "source {s}: ties break toward the lower member index"
            );
        }
    }

    /// ROADMAP item 16's placement: `fat_tree(8)`, every eighth host a
    /// member (80, 88, …, 200) and the other 112 hosts sources. Every
    /// route is the reference tree's. A BFS keeps the first-reached
    /// predecessor, and core switch 0 is reached first from every pod, so
    /// all 1 568 inter-pod routes cross it and no other core carries one:
    /// 168 of the 384 links carry the 1 792 routes, 8 of them 392 each.
    #[test]
    fn fat_tree_routes_match_the_reference_and_pile_onto_core_zero() {
        let topo = topologies::fat_tree(8, Bandwidth::from_mbps(100));
        let hosts = topologies::fat_tree_hosts(8);
        let members: Vec<NodeId> = hosts.iter().copied().step_by(8).collect();
        let sources: Vec<NodeId> = hosts
            .iter()
            .copied()
            .filter(|h| !members.contains(h))
            .collect();
        let group = AnycastGroup::new("A", members).unwrap();
        let (table, finishes) = RouteTable::search(&topo, &group, sources.iter().copied()).unwrap();
        // Each search tries at the core level, where the members in other
        // pods are still three hops out, and finishes at the next boundary.
        assert_eq!(
            finishes,
            Finishes {
                tried: 224,
                done: 112
            }
        );
        let mut per_link = vec![0u32; topo.link_count()];
        let mut per_core = BTreeMap::new();
        for &s in &sources {
            let tree = bfs_tree(&topo, s);
            let routes = table.routes_from(s).unwrap();
            for (route, &m) in routes.iter().zip(group.members()) {
                assert_eq!(Some(route), tree.path_to(&topo, m).as_ref(), "{s} to {m}");
                for l in route.links() {
                    per_link[l.index()] += 1;
                }
                // The 16 core switches are the first ids.
                for core in route.nodes().iter().filter(|n| n.index() < 16) {
                    *per_core.entry(core.raw()).or_insert(0) += 1;
                }
            }
        }
        let mut histogram = BTreeMap::new();
        for &load in per_link.iter().filter(|&&load| load > 0) {
            *histogram.entry(load).or_insert(0) += 1;
        }
        assert_eq!(per_core, BTreeMap::from([(0, 1_568)]));
        assert_eq!(
            histogram,
            BTreeMap::from([(16, 112), (64, 16), (112, 16), (154, 16), (392, 8)])
        );
    }

    /// On MCI the members' two-hop neighbourhood outweighs the whole
    /// graph's adjacency, so no search tries to finish from their side.
    #[test]
    fn no_mci_search_tries_the_finish() {
        let (topo, group) = mci_group();
        let (table, finishes) = RouteTable::search(&topo, &group, topo.nodes()).unwrap();
        assert_eq!(finishes, Finishes::default());
        assert_eq!(table.routes.len(), topo.node_count());
    }

    /// The `offline_fattree` placement: `fat_tree(34)`, 16 members and 64
    /// sources spread evenly over the hosts. Every search tries two and
    /// three hops out, where some member is still beyond reach, and
    /// finishes at the boundary before the aggregation switches four hops
    /// out.
    #[test]
    fn every_offline_fattree_search_finishes_from_the_members_side() {
        let topo = topologies::fat_tree(34, Bandwidth::from_mbps(100));
        let hosts = topologies::fat_tree_hosts(34);
        let spread = |pool: &[NodeId], count: usize| -> Vec<NodeId> {
            (0..count).map(|i| pool[i * pool.len() / count]).collect()
        };
        let members = spread(&hosts, 16);
        let pool: Vec<NodeId> = hosts
            .iter()
            .copied()
            .filter(|h| !members.contains(h))
            .collect();
        let sources = spread(&pool, 64);
        let group = AnycastGroup::new("A", members).unwrap();
        let (table, finishes) = RouteTable::search(&topo, &group, sources.iter().copied()).unwrap();
        assert_eq!(
            finishes,
            Finishes {
                tried: 192,
                done: 64
            }
        );
        for &s in sources.iter().step_by(9) {
            let tree = bfs_tree(&topo, s);
            for (route, &m) in table.routes_from(s).unwrap().iter().zip(group.members()) {
                assert_eq!(Some(route), tree.path_to(&topo, m).as_ref(), "{s} to {m}");
            }
        }
    }

    /// Node 1 is the frontier after one level and discovers both 5 and 6
    /// (in that order), the two neighbours of member 7: the member takes
    /// 5, as the full search does, not 6. Leaves 2–4 widen the frontier
    /// enough for the finish to be tried there.
    #[test]
    fn a_member_two_hops_out_takes_the_neighbour_discovered_first() {
        let mut b = TopologyBuilder::new(8);
        b.links_uniform(
            [
                (0, 1),
                (1, 2),
                (1, 3),
                (1, 4),
                (1, 6),
                (1, 5),
                (6, 7),
                (5, 7),
            ],
            Bandwidth::from_mbps(1),
        )
        .unwrap();
        let topo = b.build();
        let group = AnycastGroup::new("A", [NodeId::new(7)]).unwrap();
        let (table, finishes) = RouteTable::search(&topo, &group, [NodeId::new(0)]).unwrap();
        assert_eq!(finishes, Finishes { tried: 1, done: 1 });
        let route = &table.routes_from(NodeId::new(0)).unwrap()[0];
        assert_eq!(route.nodes(), [0u32, 1, 5, 7].map(NodeId::new));
        assert_eq!(
            Some(route),
            shortest_path(&topo, NodeId::new(0), NodeId::new(7)).as_ref()
        );
    }

    /// Member 5 sits next to 3 and 4. From 6 the search expands 3 first,
    /// from 0 it expands 4 first (reached through 1, before 2 reaches 3),
    /// so the member's parent is the frontier neighbour with the smaller
    /// queue position, not id, and the second search must not reuse the
    /// first one's positions. Leaves hung off 8 and 1 widen the frontiers
    /// enough for the finish to be tried.
    #[test]
    fn a_member_next_to_the_frontier_takes_the_neighbour_expanded_first() {
        let mut b = TopologyBuilder::new(13);
        b.links_uniform(
            [
                (0, 1),
                (0, 2),
                (1, 4),
                (1, 12),
                (2, 3),
                (3, 5),
                (4, 5),
                (6, 8),
                (6, 9),
                (8, 3),
                (8, 10),
                (9, 4),
                (10, 11),
                (12, 7),
            ],
            Bandwidth::from_mbps(1),
        )
        .unwrap();
        let topo = b.build();
        let group = AnycastGroup::new("A", [NodeId::new(5)]).unwrap();
        let sources = [6u32, 0].map(NodeId::new);
        let (table, finishes) = RouteTable::search(&topo, &group, sources).unwrap();
        assert_eq!(finishes, Finishes { tried: 2, done: 2 });
        for (src, via) in [(6, [6u32, 8, 3, 5]), (0, [0, 1, 4, 5])] {
            let route = &table.routes_from(NodeId::new(src)).unwrap()[0];
            assert_eq!(route.nodes(), via.map(NodeId::new));
            assert_eq!(
                Some(route),
                shortest_path(&topo, NodeId::new(src), NodeId::new(5)).as_ref()
            );
        }
    }

    #[test]
    fn disconnected_topology_yields_none() {
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::ZERO)
            .unwrap();
        let topo = b.build();
        let g = AnycastGroup::new("A", [NodeId::new(2)]).unwrap();
        assert!(RouteTable::try_shortest_paths(&topo, &g).is_none());
    }

    #[test]
    fn empty_group_is_impossible() {
        assert_eq!(
            AnycastGroup::new("A", std::iter::empty()).unwrap_err(),
            NetError::EmptyGroup
        );
    }
}
