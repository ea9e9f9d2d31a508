//! Deterministic breadth-first shortest-path trees (hop metric).

use crate::{LinkId, NodeId, Path, Topology};
use std::collections::VecDeque;

/// A breadth-first shortest-path tree rooted at one source node.
///
/// Distances are hop counts; the predecessor of each node is the
/// lowest-id node among all shortest predecessors, making extracted paths
/// deterministic — the "fixed path" assumption of §3.
#[derive(Debug, Clone)]
pub struct BfsTree {
    root: NodeId,
    dist: Vec<Option<u32>>,
    parent: Vec<Option<(NodeId, LinkId)>>,
}

impl BfsTree {
    /// Hop distance from the root to `node`, or `None` if unreachable.
    pub fn distance(&self, node: NodeId) -> Option<u32> {
        self.dist.get(node.index()).copied().flatten()
    }

    /// Extracts the tree path from the root to `dest`.
    ///
    /// Returns `None` when `dest` is unreachable or out of range. The path
    /// is trivial when `dest` is the root itself.
    pub fn path_to(&self, topo: &Topology, dest: NodeId) -> Option<Path> {
        if dest.index() >= self.dist.len() {
            return None;
        }
        // Sized exactly: the path moves these vectors in as they are.
        let hops = self.dist[dest.index()]? as usize;
        let mut nodes = Vec::with_capacity(hops + 1);
        nodes.push(dest);
        let mut links = Vec::with_capacity(hops);
        let mut cur = dest;
        while cur != self.root {
            let (prev, link) = self.parent[cur.index()].expect("reachable non-root has parent");
            nodes.push(prev);
            links.push(link);
            cur = prev;
        }
        nodes.reverse();
        links.reverse();
        Some(Path::new(topo, nodes, links).expect("BFS tree produces consistent paths"))
    }
}

/// Builds the deterministic BFS shortest-path tree rooted at `root`.
///
/// Neighbours are visited in ascending node-id order (the adjacency lists of
/// [`Topology`] are sorted), so the tree — and every path extracted from it —
/// is a pure function of the topology.
///
/// # Panics
///
/// Panics if `root` is not a node of `topo`.
pub fn bfs_tree(topo: &Topology, root: NodeId) -> BfsTree {
    assert!(topo.contains_node(root), "root {root} not in topology");
    let n = topo.node_count();
    let mut dist = vec![None; n];
    let mut parent = vec![None; n];
    dist[root.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &(v, link) in topo.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                parent[v.index()] = Some((u, link));
                queue.push_back(v);
            }
        }
    }
    BfsTree { root, dist, parent }
}

/// Convenience: the deterministic shortest path from `src` to `dst`.
///
/// Returns `None` if `dst` is unreachable.
///
/// # Panics
///
/// Panics if `src` is not a node of `topo`.
pub fn shortest_path(topo: &Topology, src: NodeId, dst: NodeId) -> Option<Path> {
    bfs_tree(topo, src).path_to(topo, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bandwidth, TopologyBuilder};

    fn diamond() -> Topology {
        // 0 - 1 - 3 and 0 - 2 - 3: two equal-length routes.
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (0, 2), (1, 3), (2, 3)], Bandwidth::from_mbps(1))
            .unwrap();
        b.build()
    }

    #[test]
    fn distances_match_hand_computation() {
        let topo = diamond();
        let tree = bfs_tree(&topo, NodeId::new(0));
        assert_eq!(tree.distance(NodeId::new(0)), Some(0));
        assert_eq!(tree.distance(NodeId::new(1)), Some(1));
        assert_eq!(tree.distance(NodeId::new(2)), Some(1));
        assert_eq!(tree.distance(NodeId::new(3)), Some(2));
    }

    #[test]
    fn ties_break_toward_lowest_id() {
        let topo = diamond();
        let p = shortest_path(&topo, NodeId::new(0), NodeId::new(3)).unwrap();
        // Via node 1, not node 2.
        assert_eq!(p.nodes(), &[NodeId::new(0), NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn path_to_root_is_trivial() {
        let topo = diamond();
        let p = shortest_path(&topo, NodeId::new(2), NodeId::new(2)).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::ZERO)
            .unwrap();
        let topo = b.build();
        assert!(shortest_path(&topo, NodeId::new(0), NodeId::new(2)).is_none());
        let tree = bfs_tree(&topo, NodeId::new(0));
        assert_eq!(tree.distance(NodeId::new(2)), None);
        assert!(tree.path_to(&topo, NodeId::new(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "not in topology")]
    fn bad_root_panics() {
        let topo = diamond();
        let _ = bfs_tree(&topo, NodeId::new(9));
    }

    #[test]
    fn paths_are_shortest() {
        // On a 3x3 grid-ish topology, verify path length == distance for all pairs.
        let mut b = TopologyBuilder::new(9);
        b.links_uniform(
            [
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 3),
                (3, 6),
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
            Bandwidth::from_mbps(1),
        )
        .unwrap();
        let topo = b.build();
        for s in topo.nodes() {
            let tree = bfs_tree(&topo, s);
            for d in topo.nodes() {
                let p = tree.path_to(&topo, d).unwrap();
                assert_eq!(p.hops() as u32, tree.distance(d).unwrap());
                assert_eq!(p.nodes()[0], s);
                assert_eq!(*p.nodes().last().unwrap(), d);
            }
        }
    }
}
