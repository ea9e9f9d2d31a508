//! Yen's algorithm: the k shortest loop-free paths between two nodes.

use crate::{LinkId, NodeId, Path, Topology};
use std::collections::{BTreeSet, VecDeque};

/// Computes up to `k` shortest loop-free paths from `src` to `dst` by hop
/// count, in nondecreasing length order (ties broken lexicographically on
/// the node sequence, so output is deterministic).
///
/// This powers the multipath extension of the DAC procedure: §3 of the
/// paper fixes *one* path per (source, member), and §6 suggests relaxing
/// that. Supplying each member with its `k` best fixed paths lets a
/// retrial try an alternate *route* before giving up on a member.
///
/// Returns fewer than `k` paths when the graph does not contain `k`
/// distinct loop-free routes. `src == dst` yields the trivial path only.
///
/// # Panics
///
/// Panics if `src` is not a node of `topo` or `k` is zero.
pub fn k_shortest_paths(topo: &Topology, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    assert!(topo.contains_node(src), "source {src} not in topology");
    assert!(k > 0, "k must be positive");
    if !topo.contains_node(dst) {
        return Vec::new();
    }
    if src == dst {
        return vec![Path::trivial(src)];
    }
    let Some(first) = restricted_shortest(topo, src, dst, &BTreeSet::new(), &BTreeSet::new())
    else {
        return Vec::new();
    };
    let mut accepted: Vec<Path> = vec![first];
    // Candidate set keyed for determinism: (hops, node sequence).
    let mut candidates: BTreeSet<(usize, Vec<NodeId>, Vec<LinkId>)> = BTreeSet::new();
    while accepted.len() < k {
        let last = accepted.last().expect("at least one accepted path");
        // Spur from every node of the previous path except the last.
        for spur_idx in 0..last.nodes().len() - 1 {
            let spur_node = last.nodes()[spur_idx];
            let root_nodes = &last.nodes()[..=spur_idx];
            let root_links = &last.links()[..spur_idx];
            // Ban links that would recreate any accepted path sharing this
            // root, and ban root nodes (except the spur) to stay loop-free.
            let mut banned_links: BTreeSet<LinkId> = BTreeSet::new();
            for p in &accepted {
                if p.nodes().len() > spur_idx && p.nodes()[..=spur_idx] == *root_nodes {
                    if let Some(&l) = p.links().get(spur_idx) {
                        banned_links.insert(l);
                    }
                }
            }
            let banned_nodes: BTreeSet<NodeId> = root_nodes[..spur_idx].iter().copied().collect();
            let Some(spur) =
                restricted_shortest(topo, spur_node, dst, &banned_nodes, &banned_links)
            else {
                continue;
            };
            // Splice root + spur.
            let mut nodes: Vec<NodeId> = root_nodes.to_vec();
            nodes.extend_from_slice(&spur.nodes()[1..]);
            let mut links: Vec<LinkId> = root_links.to_vec();
            links.extend_from_slice(spur.links());
            // Reject if splice revisits a node (possible when the spur
            // wanders back into the root's tail region).
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            if sorted.windows(2).any(|w| w[0] == w[1]) {
                continue;
            }
            candidates.insert((links.len(), nodes, links));
        }
        let Some(best) = candidates.iter().next().cloned() else {
            break;
        };
        candidates.remove(&best);
        let (_, nodes, links) = best;
        let path = Path::new(topo, nodes, links).expect("spliced candidates are consistent");
        if !accepted.contains(&path) {
            accepted.push(path);
        }
    }
    accepted
}

/// BFS shortest path avoiding the given nodes and links; deterministic
/// lowest-id tie-break.
fn restricted_shortest(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    banned_nodes: &BTreeSet<NodeId>,
    banned_links: &BTreeSet<LinkId>,
) -> Option<Path> {
    if banned_nodes.contains(&src) {
        return None;
    }
    if src == dst {
        return Some(Path::trivial(src));
    }
    let n = topo.node_count();
    let mut parent = vec![None; n];
    let mut seen = vec![false; n];
    seen[src.index()] = true;
    let mut queue = VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for &(v, link) in topo.neighbors(u) {
            if seen[v.index()] || banned_nodes.contains(&v) || banned_links.contains(&link) {
                continue;
            }
            seen[v.index()] = true;
            parent[v.index()] = Some((u, link));
            if v == dst {
                let mut nodes = vec![dst];
                let mut links = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let (prev, l) = parent[cur.index()].expect("reached nodes have parents");
                    nodes.push(prev);
                    links.push(l);
                    cur = prev;
                }
                nodes.reverse();
                links.reverse();
                return Some(Path::new(topo, nodes, links).expect("BFS paths are consistent"));
            }
            queue.push_back(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topologies, Bandwidth, TopologyBuilder};

    fn diamond() -> Topology {
        // 0-1-3 / 0-2-3 plus a long way 0-4-5-3.
        let mut b = TopologyBuilder::new(6);
        b.links_uniform(
            [(0, 1), (1, 3), (0, 2), (2, 3), (0, 4), (4, 5), (5, 3)],
            Bandwidth::from_mbps(1),
        )
        .unwrap();
        b.build()
    }

    #[test]
    fn finds_paths_in_length_order() {
        let topo = diamond();
        let paths = k_shortest_paths(&topo, NodeId::new(0), NodeId::new(3), 5);
        assert_eq!(paths.len(), 3, "exactly three loop-free routes exist");
        assert_eq!(paths[0].hops(), 2);
        assert_eq!(paths[1].hops(), 2);
        assert_eq!(paths[2].hops(), 3);
        // Deterministic tie-break: via node 1 before via node 2.
        assert_eq!(paths[0].nodes()[1], NodeId::new(1));
        assert_eq!(paths[1].nodes()[1], NodeId::new(2));
    }

    #[test]
    fn paths_are_distinct_and_loop_free() {
        let topo = topologies::mci();
        let paths = k_shortest_paths(&topo, NodeId::new(15), NodeId::new(4), 6);
        assert!(paths.len() >= 4, "MCI is well connected: {}", paths.len());
        for (i, p) in paths.iter().enumerate() {
            let mut nodes = p.nodes().to_vec();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), p.nodes().len(), "path {i} has a loop");
            for q in &paths[..i] {
                assert_ne!(p, q, "duplicate path at {i}");
            }
        }
        // Nondecreasing lengths.
        for w in paths.windows(2) {
            assert!(w[0].hops() <= w[1].hops());
        }
    }

    #[test]
    fn k_one_is_plain_shortest() {
        let topo = topologies::mci();
        for s in topo.nodes() {
            for d in topo.nodes() {
                let yen = k_shortest_paths(&topo, s, d, 1);
                let bfs = crate::routing::shortest_path(&topo, s, d).unwrap();
                assert_eq!(yen.len(), 1);
                assert_eq!(yen[0].hops(), bfs.hops(), "{s}->{d}");
            }
        }
    }

    #[test]
    fn line_has_single_path() {
        let mut b = TopologyBuilder::new(3);
        b.links_uniform([(0, 1), (1, 2)], Bandwidth::from_mbps(1))
            .unwrap();
        let topo = b.build();
        let paths = k_shortest_paths(&topo, NodeId::new(0), NodeId::new(2), 4);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn same_node_is_trivial_only() {
        let topo = diamond();
        let paths = k_shortest_paths(&topo, NodeId::new(2), NodeId::new(2), 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 0);
    }

    #[test]
    fn disconnected_is_empty() {
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::ZERO)
            .unwrap();
        let topo = b.build();
        assert!(k_shortest_paths(&topo, NodeId::new(0), NodeId::new(2), 3).is_empty());
        assert!(k_shortest_paths(&topo, NodeId::new(0), NodeId::new(9), 3).is_empty());
    }

    #[test]
    fn ring_has_exactly_two_paths() {
        let topo = topologies::ring(7, Bandwidth::from_mbps(1));
        let paths = k_shortest_paths(&topo, NodeId::new(0), NodeId::new(3), 10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops(), 3);
        assert_eq!(paths[1].hops(), 4);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let topo = diamond();
        let _ = k_shortest_paths(&topo, NodeId::new(0), NodeId::new(3), 0);
    }
}
