//! Datacenter fabrics: three-tier fat trees and two-tier leaf–spine Clos.
//!
//! These are the topologies where per-source routing pays off: a `k = 34`
//! fat tree has 11 271 nodes while a typical scenario only ever asks for
//! routes from its configured source hosts, so
//! [`RouteTable::for_sources`](crate::RouteTable::for_sources) runs one
//! search per source instead of one per node, and each search ends by
//! resolving the members' last two hops from their side.
//!
//! Node-id layout is documented per builder and exposed through the
//! `*_hosts` helpers so experiment configs can pick sources and anycast
//! members without re-deriving the arithmetic.

use crate::{Bandwidth, NodeId, Topology, TopologyBuilder};

/// Number of nodes in a [`fat_tree`] of parameter `k`:
/// `(k/2)²` core + `k²` pod switches + `k³/4` hosts.
pub fn fat_tree_node_count(k: usize) -> usize {
    let half = k / 2;
    half * half + k * k + k * half * half
}

/// The host node-ids of a [`fat_tree`] of parameter `k` (the last
/// `k³/4` ids, after every switch).
pub fn fat_tree_hosts(k: usize) -> Vec<NodeId> {
    let half = k / 2;
    let first = half * half + k * k;
    (first..fat_tree_node_count(k))
        .map(|i| NodeId::new(i as u32))
        .collect()
}

/// Builds the canonical three-tier fat tree of parameter `k` (k even):
/// `(k/2)²` core switches, `k` pods of `k/2` aggregation plus `k/2` edge
/// switches, and `k/2` hosts per edge switch.
///
/// Node-id layout: core switches first (`0 .. (k/2)²`), then per pod its
/// aggregation switches followed by its edge switches, then all hosts
/// (edge-major). Aggregation switch `j` of every pod uplinks to core
/// switches `j·k/2 .. (j+1)·k/2`; every pod's aggregation and edge tiers
/// are fully bipartite. All links share one `capacity` (the admission
/// ledger, not the graph, models heterogeneous load).
///
/// # Panics
///
/// Panics if `k` is odd or `< 2`.
pub fn fat_tree(k: usize, capacity: Bandwidth) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat tree parameter k must be even and >= 2"
    );
    let half = k / 2;
    let cores = half * half;
    let agg_base = |pod: usize| cores + pod * k;
    let edge_base = |pod: usize| cores + pod * k + half;
    let host_base = cores + k * k;
    // Per pod: `(k/2)²` uplinks, aggregation–edge links and host links.
    let mut b = TopologyBuilder::with_capacity(fat_tree_node_count(k), 3 * k * half * half);
    let id = |i: usize| NodeId::new(i as u32);
    for pod in 0..k {
        for j in 0..half {
            let agg = agg_base(pod) + j;
            // Aggregation uplinks: one core group per aggregation index.
            for c in 0..half {
                b.link(id(j * half + c), id(agg), capacity)
                    .expect("fat-tree uplinks valid");
            }
            // Full bipartite aggregation <-> edge inside the pod.
            for e in 0..half {
                b.link(id(agg), id(edge_base(pod) + e), capacity)
                    .expect("fat-tree pod links valid");
            }
        }
        for e in 0..half {
            let edge = edge_base(pod) + e;
            for h in 0..half {
                let host = host_base + ((pod * half + e) * half) + h;
                b.link(id(edge), id(host), capacity)
                    .expect("fat-tree host links valid");
            }
        }
    }
    b.build()
}

/// Number of nodes in a [`clos`] fabric: `spine + leaf·(1 + hosts)`.
pub fn clos_node_count(spine: usize, leaf: usize, hosts: usize) -> usize {
    spine + leaf * (1 + hosts)
}

/// The host node-ids of a [`clos`] fabric (the last `leaf·hosts` ids).
pub fn clos_hosts(spine: usize, leaf: usize, hosts: usize) -> Vec<NodeId> {
    let first = spine + leaf;
    (first..clos_node_count(spine, leaf, hosts))
        .map(|i| NodeId::new(i as u32))
        .collect()
}

/// Builds a two-tier leaf–spine Clos fabric: every leaf switch connects
/// to every spine switch, and each leaf serves `hosts` hosts.
///
/// Node-id layout: spines `0 .. spine`, leaves `spine .. spine + leaf`,
/// then hosts leaf-major (`spine + leaf + l·hosts + h` is host `h` of
/// leaf `l`).
///
/// # Panics
///
/// Panics if any tier is empty.
pub fn clos(spine: usize, leaf: usize, hosts: usize, capacity: Bandwidth) -> Topology {
    assert!(
        spine > 0 && leaf > 0 && hosts > 0,
        "clos tiers must be non-empty"
    );
    let mut b =
        TopologyBuilder::with_capacity(clos_node_count(spine, leaf, hosts), leaf * (spine + hosts));
    let id = |i: usize| NodeId::new(i as u32);
    for l in 0..leaf {
        let leaf_id = spine + l;
        for s in 0..spine {
            b.link(id(s), id(leaf_id), capacity)
                .expect("clos fabric links valid");
        }
        for h in 0..hosts {
            b.link(id(leaf_id), id(spine + leaf + l * hosts + h), capacity)
                .expect("clos host links valid");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::shortest_path;

    const CAP: Bandwidth = Bandwidth::from_mbps(100);

    #[test]
    fn fat_tree_counts_match_formula() {
        let t = fat_tree(4, CAP);
        // k=4: 4 core + 16 pod switches + 16 hosts.
        assert_eq!(t.node_count(), 36);
        assert_eq!(t.node_count(), fat_tree_node_count(4));
        // Links: core-agg 16 + agg-edge 16 + edge-host 16.
        assert_eq!(t.link_count(), 48);
        assert!(t.is_connected());
        assert_eq!(fat_tree_hosts(4).len(), 16);
    }

    #[test]
    fn fat_tree_hosts_are_leaves_with_known_diameter() {
        let t = fat_tree(4, CAP);
        let hosts = fat_tree_hosts(4);
        assert!(hosts.iter().all(|&h| t.degree(h) == 1));
        // Same edge switch: 2 hops; different pods: 6 hops
        // (host-edge-agg-core-agg-edge-host).
        let p = shortest_path(&t, hosts[0], hosts[1]).unwrap();
        assert_eq!(p.hops(), 2);
        let p = shortest_path(&t, hosts[0], hosts[15]).unwrap();
        assert_eq!(p.hops(), 6);
    }

    #[test]
    fn fat_tree_scales_past_ten_thousand_nodes() {
        // The perfbench `offline_fattree` size: k=34 -> 11271 nodes, buildable in-memory.
        assert_eq!(fat_tree_node_count(34), 11271);
        let t = fat_tree(10, CAP);
        assert_eq!(t.node_count(), fat_tree_node_count(10));
        assert!(t.is_connected());
    }

    #[test]
    fn clos_structure() {
        let t = clos(4, 9, 12, CAP);
        assert_eq!(t.node_count(), 4 + 9 + 9 * 12);
        assert_eq!(t.link_count(), 4 * 9 + 9 * 12);
        assert!(t.is_connected());
        let hosts = clos_hosts(4, 9, 12);
        assert_eq!(hosts.len(), 108);
        assert!(hosts.iter().all(|&h| t.degree(h) == 1));
        // Hosts on different leaves are 4 hops apart via any spine.
        let p = shortest_path(&t, hosts[0], hosts[12]).unwrap();
        assert_eq!(p.hops(), 4);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_fat_tree_panics() {
        let _ = fat_tree(5, CAP);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_clos_panics() {
        let _ = clos(0, 2, 2, CAP);
    }
}
