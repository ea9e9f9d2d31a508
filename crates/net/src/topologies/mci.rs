//! The 19-node MCI ISP backbone used in the paper's evaluation (§5.1).

use crate::{Bandwidth, NodeId, Topology, TopologyBuilder};

/// Number of nodes in the MCI backbone (§5.1: "There are 19 nodes").
pub const MCI_NODES: usize = 19;

/// The undirected links of the reconstructed MCI backbone.
///
/// The source text of the paper does not carry the Figure 2 image, so the
/// adjacency is reconstructed to match everything the paper *does*
/// publish: 19 router nodes in a sparse WAN mesh (32 links, mean degree
/// ≈ 3.4, node degrees 2–5, diameter 4), **calibrated so that the
/// Appendix-A analytical admission probabilities reproduce the paper's
/// Tables 1 and 2** — the `<ED,1>` and `SP` values at λ ∈ {20, 35, 50}
/// all land within 7×10⁻⁴ of the published numbers (see `DESIGN.md` §2
/// for the calibration procedure). Every node is a router with one
/// attached host; the anycast group and source placement below come
/// directly from §5.1.
pub const MCI_LINKS: [(u32, u32); 32] = [
    (0, 1),
    (0, 11),
    (0, 12),
    (0, 15),
    (0, 16),
    (1, 4),
    (1, 6),
    (1, 7),
    (1, 11),
    (2, 3),
    (2, 4),
    (2, 9),
    (3, 16),
    (4, 7),
    (4, 18),
    (5, 6),
    (5, 9),
    (5, 12),
    (5, 14),
    (5, 18),
    (7, 10),
    (7, 11),
    (7, 16),
    (8, 10),
    (8, 13),
    (8, 18),
    (10, 13),
    (10, 15),
    (12, 14),
    (12, 16),
    (16, 17),
    (17, 18),
];

/// Routers hosting the five anycast group members (§5.1): the hosts
/// attached to routers 0, 4, 8, 12 and 16.
pub const MCI_GROUP_MEMBERS: [u32; 5] = [0, 4, 8, 12, 16];

/// Routers whose hosts originate anycast flows (§5.1): the odd-numbered
/// routers.
pub const MCI_SOURCES: [u32; 9] = [1, 3, 5, 7, 9, 11, 13, 15, 17];

/// Builds the MCI backbone with the paper's 100 Mb/s link capacity.
///
/// The anycast partition (20% of each link) is carved out separately by
/// [`LinkStateTable::with_uniform_fraction`](crate::LinkStateTable::with_uniform_fraction).
///
/// ```rust
/// let topo = anycast_net::topologies::mci();
/// assert_eq!(topo.node_count(), 19);
/// assert!(topo.is_connected());
/// ```
pub fn mci() -> Topology {
    mci_with_capacity(Bandwidth::from_mbps(100))
}

/// Builds the MCI backbone with a custom uniform link capacity.
pub fn mci_with_capacity(capacity: Bandwidth) -> Topology {
    let mut b = TopologyBuilder::with_capacity(MCI_NODES, MCI_LINKS.len());
    b.links_uniform(MCI_LINKS, capacity)
        .expect("static MCI link list is valid");
    b.build()
}

/// The paper's source routers as `NodeId`s.
pub fn mci_source_nodes() -> Vec<NodeId> {
    MCI_SOURCES.iter().map(|&n| NodeId::new(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::bfs_tree;
    use crate::{AnycastGroup, RouteTable};

    #[test]
    fn matches_paper_description() {
        let topo = mci();
        assert_eq!(topo.node_count(), 19);
        assert_eq!(topo.link_count(), 32);
        assert!(topo.is_connected());
        for l in topo.links() {
            assert_eq!(l.capacity(), Bandwidth::from_mbps(100));
        }
    }

    #[test]
    fn degrees_are_wan_like() {
        let topo = mci();
        let degrees: Vec<usize> = topo.nodes().map(|n| topo.degree(n)).collect();
        let total: usize = degrees.iter().sum();
        assert_eq!(total, 2 * topo.link_count());
        assert!(degrees.iter().all(|&d| (2..=5).contains(&d)));
        let mean = total as f64 / topo.node_count() as f64;
        assert!((3.0..4.0).contains(&mean), "mean degree {mean}");
    }

    #[test]
    fn diameter_is_small() {
        let topo = mci();
        let mut diameter = 0;
        for s in topo.nodes() {
            let tree = bfs_tree(&topo, s);
            for d in topo.nodes() {
                diameter = diameter.max(tree.distance(d).unwrap());
            }
        }
        assert!(
            diameter <= 6,
            "diameter {diameter} too large for a backbone"
        );
        assert!(
            diameter >= 3,
            "diameter {diameter} too small to be interesting"
        );
    }

    #[test]
    fn group_members_and_sources_are_disjoint_valid_nodes() {
        let topo = mci();
        for &m in &MCI_GROUP_MEMBERS {
            assert!(topo.contains_node(NodeId::new(m)));
            assert_eq!(m % 2, 0, "members sit at even routers");
        }
        for &s in &MCI_SOURCES {
            assert!(topo.contains_node(NodeId::new(s)));
            assert_eq!(s % 2, 1, "sources sit at odd routers");
        }
    }

    #[test]
    fn every_source_reaches_every_member() {
        let topo = mci();
        let group = AnycastGroup::new("A", MCI_GROUP_MEMBERS.map(NodeId::new)).unwrap();
        let table = RouteTable::shortest_paths(&topo, &group);
        for s in mci_source_nodes() {
            let dists = table.distances(s).unwrap();
            assert_eq!(dists.len(), 5);
            assert!(dists.iter().all(|&d| d >= 1), "sources are not members");
            // Members are spread: some member is close, some far.
            let min = dists.iter().min().unwrap();
            let max = dists.iter().max().unwrap();
            assert!(max > min, "from {s} all members equidistant: {dists:?}");
        }
    }

    #[test]
    fn custom_capacity_respected() {
        let topo = mci_with_capacity(Bandwidth::from_mbps(10));
        assert!(topo
            .links()
            .all(|l| l.capacity() == Bandwidth::from_mbps(10)));
    }
}
