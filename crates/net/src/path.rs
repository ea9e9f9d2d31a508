//! Fixed routes between a source and a destination.

use crate::{LinkId, NetError, NodeId, Topology};
use std::fmt;
use std::sync::Arc;

/// A loop-free route through the network: an alternating, consistent
/// sequence of nodes and links.
///
/// The paper assumes one *fixed* path from each source to each member of an
/// anycast group (§3), obtained from the underlying routing protocol. The
/// *distance* `D_i` used by the weighted destination-selection algorithms is
/// the hop count of this path ([`Path::hops`]).
///
/// A path may be *trivial* (source equals destination, zero links); a flow
/// on a trivial path consumes no network bandwidth and is always admissible.
///
/// A path is immutable and shares its sequences: cloning one (for a
/// reservation, or a two-phase setup) bumps a reference count instead of
/// copying the route.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Path {
    hops: Arc<Hops>,
}

/// The node and link sequences of a [`Path`], moved in once at
/// construction.
#[derive(PartialEq, Eq, Hash)]
struct Hops {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Path {
    /// Builds a path from its node and link sequences, validating
    /// consistency against the topology.
    ///
    /// # Errors
    ///
    /// [`NetError::MalformedPath`] when the sequences are empty, have
    /// mismatched lengths, revisit a node, or contain a link that does not
    /// join its adjacent nodes.
    pub fn new(topo: &Topology, nodes: Vec<NodeId>, links: Vec<LinkId>) -> Result<Self, NetError> {
        if nodes.is_empty() {
            return Err(NetError::MalformedPath("path must contain a source node"));
        }
        if links.len() + 1 != nodes.len() {
            return Err(NetError::MalformedPath(
                "node sequence must be one longer than link sequence",
            ));
        }
        for window in nodes.windows(2) {
            if window[0] == window[1] {
                return Err(NetError::MalformedPath("consecutive duplicate node"));
            }
        }
        let mut sorted = nodes.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(NetError::MalformedPath("path revisits a node"));
        }
        for (i, link) in links.iter().enumerate() {
            let l = topo
                .link(*link)
                .map_err(|_| NetError::MalformedPath("link id out of range for this topology"))?;
            let joins = (l.a() == nodes[i] && l.b() == nodes[i + 1])
                || (l.b() == nodes[i] && l.a() == nodes[i + 1]);
            if !joins {
                return Err(NetError::MalformedPath(
                    "link does not join its adjacent nodes",
                ));
            }
        }
        Ok(Path::from_parts(nodes, links))
    }

    fn from_parts(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Self {
        Path {
            hops: Arc::new(Hops { nodes, links }),
        }
    }

    /// Creates a trivial path at `node` (source equals destination).
    pub fn trivial(node: NodeId) -> Self {
        Path::from_parts(vec![node], Vec::new())
    }

    /// Hop count: the number of links traversed.
    ///
    /// This is the distance metric `D_i` of the paper's weight formulas.
    pub fn hops(&self) -> usize {
        self.hops.links.len()
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.hops.nodes
    }

    /// The link sequence in traversal order.
    pub fn links(&self) -> &[LinkId] {
        &self.hops.links
    }

    /// Returns `true` if `link` is traversed by this path.
    pub fn uses_link(&self, link: LinkId) -> bool {
        self.hops.links.contains(&link)
    }
}

/// Prints what a derive over the two sequences would.
impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Path")
            .field("nodes", &self.hops.nodes)
            .field("links", &self.hops.links)
            .finish()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.hops.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, "-")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bandwidth, TopologyBuilder};

    fn square() -> Topology {
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(0, 1), (1, 2), (2, 3), (3, 0)], Bandwidth::from_mbps(1))
            .unwrap();
        b.build()
    }

    #[test]
    fn valid_path_roundtrips() {
        let topo = square();
        let p = Path::new(
            &topo,
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            vec![LinkId::new(0), LinkId::new(1)],
        )
        .unwrap();
        assert_eq!(p.nodes()[0], NodeId::new(0));
        assert_eq!(*p.nodes().last().unwrap(), NodeId::new(2));
        assert_eq!(p.hops(), 2);
        assert!(p.uses_link(LinkId::new(0)));
        assert!(!p.uses_link(LinkId::new(2)));
        assert_eq!(p.to_string(), "n0-n1-n2");
    }

    #[test]
    fn shared_hops_print_and_hash_as_the_two_sequences() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        /// A plain derive over the two sequences: what `Path` must print
        /// and hash as.
        #[derive(Debug, Hash)]
        struct Path {
            nodes: Vec<NodeId>,
            links: Vec<LinkId>,
        }
        fn hash(h: &impl Hash) -> u64 {
            let mut s = DefaultHasher::new();
            h.hash(&mut s);
            s.finish()
        }
        let nodes = vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)];
        let links = vec![LinkId::new(0), LinkId::new(1)];
        let p = super::Path::new(&square(), nodes.clone(), links.clone()).unwrap();
        let flat = Path { nodes, links };
        assert_eq!(format!("{p:?}"), format!("{flat:?}"));
        assert_eq!(format!("{p:#?}"), format!("{flat:#?}"));
        assert_eq!(hash(&p), hash(&flat));
        let q = p.clone();
        assert_eq!(q, p);
        assert_eq!(q.links().as_ptr(), p.links().as_ptr());
        assert_eq!(q.nodes().as_ptr(), p.nodes().as_ptr());
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId::new(3));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.hops(), 0);
        assert_eq!(p.nodes(), &[NodeId::new(3)]);
    }

    #[test]
    fn rejects_empty_nodes() {
        let topo = square();
        assert!(matches!(
            Path::new(&topo, vec![], vec![]),
            Err(NetError::MalformedPath(_))
        ));
    }

    #[test]
    fn rejects_length_mismatch() {
        let topo = square();
        assert!(matches!(
            Path::new(&topo, vec![NodeId::new(0), NodeId::new(1)], vec![]),
            Err(NetError::MalformedPath(_))
        ));
    }

    #[test]
    fn rejects_disconnected_link() {
        let topo = square();
        // Link 2 joins n2-n3, not n0-n1.
        assert!(matches!(
            Path::new(
                &topo,
                vec![NodeId::new(0), NodeId::new(1)],
                vec![LinkId::new(2)]
            ),
            Err(NetError::MalformedPath(_))
        ));
    }

    #[test]
    fn rejects_node_revisit() {
        let topo = square();
        assert!(matches!(
            Path::new(
                &topo,
                vec![
                    NodeId::new(0),
                    NodeId::new(1),
                    NodeId::new(2),
                    NodeId::new(3),
                    NodeId::new(0)
                ],
                vec![
                    LinkId::new(0),
                    LinkId::new(1),
                    LinkId::new(2),
                    LinkId::new(3)
                ]
            ),
            Err(NetError::MalformedPath(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_link() {
        let topo = square();
        assert!(matches!(
            Path::new(
                &topo,
                vec![NodeId::new(0), NodeId::new(1)],
                vec![LinkId::new(17)]
            ),
            Err(NetError::MalformedPath(_))
        ));
    }
}
