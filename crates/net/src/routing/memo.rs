//! Interned residual-search paths: GDI's admitted routes, built once each.

use super::RoutingScratch;
use crate::{IdHasher, NodeId, Path, Topology};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// How many paths the memo may hold per source times member it has built
/// a path from and to, before it starts over.
const PATHS_PER_PAIR: usize = 8;

/// The paths [`nearest_feasible_member`] has returned, interned so that a
/// search ending on a path it has built before returns a clone of it (one
/// reference-count bump) instead of building it again.
///
/// A path is keyed by the whole walk from the member back to the source
/// through the search tree: every node and every link. The key therefore
/// determines the path on any topology, and a hit equals, node for node,
/// what [`Path::new`] would build from the same search. A miss builds it
/// that way, validation included, and stores it.
///
/// Memory does not grow with the number of searches: once the memo holds
/// a fixed number of paths per source times member it has built paths
/// for, it is emptied and refills.
///
/// [`nearest_feasible_member`]: super::nearest_feasible_member
#[derive(Debug, Clone, Default)]
pub struct PathMemo {
    /// Keys are node and link ids, so they hash with [`IdHasher`].
    paths: HashMap<Box<[u32]>, Path, BuildHasherDefault<IdHasher>>,
    /// The key being looked up, reused across searches.
    key: Vec<u32>,
    /// Every source and every member a path was built for, each sorted.
    sources: Vec<NodeId>,
    members: Vec<NodeId>,
}

impl PathMemo {
    /// The path from `src` to `dst` through `scratch`'s search tree, in
    /// which `dst` must have been reached.
    pub(crate) fn path(
        &mut self,
        scratch: &RoutingScratch,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
    ) -> Path {
        scratch.walk_into(src, dst, &mut self.key);
        if let Some(path) = self.paths.get(self.key.as_slice()) {
            return path.clone();
        }
        let pairs = note(&mut self.sources, src) * note(&mut self.members, dst);
        if self.paths.len() >= PATHS_PER_PAIR * pairs {
            self.paths.clear();
        }
        let (nodes, links) = scratch.extract(src, dst);
        let path = Path::new(topo, nodes, links).expect("BFS produces consistent paths");
        self.paths.insert(self.key.as_slice().into(), path.clone());
        path
    }
}

/// Adds `node` to the sorted set `seen`; returns the set's size.
fn note(seen: &mut Vec<NodeId>, node: NodeId) -> usize {
    if let Err(at) = seen.binary_search(&node) {
        seen.insert(at, node);
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::nearest_feasible_member;
    use crate::{Bandwidth, LinkStateTable, TopologyBuilder};

    fn topology(n: usize, links: &[(u32, u32)]) -> Topology {
        let mut b = TopologyBuilder::new(n);
        b.links_uniform(links.iter().copied(), Bandwidth::from_mbps(1))
            .unwrap();
        b.build()
    }

    /// The path GDI's search returns from `src` to the nearest of `members`
    /// on an idle `topo`.
    fn search(memo: &mut PathMemo, topo: &Topology, src: u32, members: &[u32]) -> Path {
        let idle = LinkStateTable::with_uniform_fraction(topo, Bandwidth::ZERO, 1.0);
        let members: Vec<NodeId> = members.iter().map(|&m| NodeId::new(m)).collect();
        let (_, path) = nearest_feasible_member(
            &mut RoutingScratch::default(),
            memo,
            topo,
            &idle,
            NodeId::new(src),
            &members,
            Bandwidth::ZERO,
            false,
        )
        .expect("the members are reachable");
        path
    }

    fn nodes(path: &Path) -> Vec<u32> {
        path.nodes().iter().map(|n| n.raw()).collect()
    }

    #[test]
    fn a_one_link_path_from_each_end_is_two_entries() {
        let topo = topology(2, &[(0, 1)]);
        let mut memo = PathMemo::default();
        assert_eq!(nodes(&search(&mut memo, &topo, 0, &[1])), [0, 1]);
        assert_eq!(nodes(&search(&mut memo, &topo, 1, &[0])), [1, 0]);
        // A member at the source: the trivial path, one per node.
        assert_eq!(nodes(&search(&mut memo, &topo, 0, &[0])), [0]);
        assert_eq!(nodes(&search(&mut memo, &topo, 1, &[1])), [1]);
        assert_eq!(memo.paths.len(), 4);
    }

    /// The key holds nodes as well as links, so one memo stays right for
    /// a caller that searches two topologies: link 0 ends at node 1 in
    /// both, but starts at node 0 in one and at node 2 in the other.
    #[test]
    fn one_memo_serves_two_topologies() {
        let left = topology(3, &[(0, 1)]);
        let right = topology(3, &[(2, 1)]);
        let mut memo = PathMemo::default();
        assert_eq!(nodes(&search(&mut memo, &left, 0, &[1])), [0, 1]);
        assert_eq!(nodes(&search(&mut memo, &right, 2, &[1])), [2, 1]);
        let back = search(&mut memo, &right, 1, &[2]);
        assert_eq!(nodes(&back), [1, 2]);
    }

    /// Twenty disjoint two-hop routes from node 0 to node 1, one through
    /// each of nodes 2..22, taken in turn by filling every other first
    /// hop: the memo never holds more than its bound for one pair, and
    /// every path it hands back is the one the search found.
    #[test]
    fn the_memo_empties_at_its_bound() {
        let mut links = Vec::new();
        for middle in 2..22 {
            links.extend([(0, middle), (middle, 1)]);
        }
        let topo = topology(22, &links);
        let mut memo = PathMemo::default();
        let mut scratch = RoutingScratch::default();
        for round in 0..2 {
            for open in 2..22u32 {
                let mut state = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::ZERO, 1.0);
                for (l, &(_, middle)) in links.iter().enumerate().step_by(2) {
                    if middle != open {
                        let l = crate::LinkId::new(l as u32);
                        state.reserve(l, state.available(l)).unwrap();
                    }
                }
                let (_, path) = nearest_feasible_member(
                    &mut scratch,
                    &mut memo,
                    &topo,
                    &state,
                    NodeId::new(0),
                    &[NodeId::new(1)],
                    Bandwidth::from_kbps(64),
                    false,
                )
                .expect("one route is open");
                assert_eq!(nodes(&path), [0, open, 1], "round {round}");
                assert!(memo.paths.len() <= PATHS_PER_PAIR);
            }
        }
    }
}
