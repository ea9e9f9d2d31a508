//! Fixed routes from a set of sources to every group member.

use crate::routing::bfs_tree;
use crate::{AnycastGroup, NetError, NodeId, Path, Topology};
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
    /// of `group`: one breadth-first tree per listed source.
    ///
    /// Errors with [`NetError::UnknownNode`] when a source is not a node of
    /// `topo` and [`NetError::NoRoute`] naming the first `(source, member)`
    /// pair that is disconnected.
    pub fn for_sources(
        topo: &Topology,
        group: &AnycastGroup,
        sources: impl IntoIterator<Item = NodeId>,
    ) -> Result<Self, NetError> {
        let mut routes = HashMap::new();
        for src in sources {
            if !topo.contains_node(src) {
                return Err(NetError::UnknownNode(src));
            }
            let tree = bfs_tree(topo, src);
            let paths = group
                .members()
                .iter()
                .map(|&m| tree.path_to(topo, m).ok_or(NetError::NoRoute(src, m)))
                .collect::<Result<Vec<Path>, NetError>>()?;
            routes.insert(src, RouteSet::from(paths));
        }
        Ok(RouteTable { routes })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::shortest_path;
    use crate::{topologies, Bandwidth, TopologyBuilder};

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
