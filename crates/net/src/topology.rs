//! Network topology: nodes connected by undirected capacity-bearing links.

use crate::{Bandwidth, LinkId, NetError, NodeId};
use std::collections::HashSet;

/// An undirected link between two nodes with a bandwidth capacity.
///
/// Links are the unit of admission in the paper: a flow is admitted only if
/// every link on its route has enough *available bandwidth* (§3). The
/// capacity stored here is the raw physical capacity; the share reserved for
/// anycast traffic is carved out by
/// [`LinkStateTable::with_uniform_fraction`](crate::LinkStateTable::with_uniform_fraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    id: LinkId,
    a: NodeId,
    b: NodeId,
    capacity: Bandwidth,
}

impl Link {
    /// The link's identifier.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The lower-numbered endpoint.
    pub fn a(&self) -> NodeId {
        self.a
    }

    /// The higher-numbered endpoint.
    pub fn b(&self) -> NodeId {
        self.b
    }

    /// Physical capacity of the link.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }
}

/// Incrementally builds a [`Topology`].
///
/// ```rust
/// use anycast_net::{TopologyBuilder, Bandwidth, NodeId};
///
/// # fn main() -> Result<(), anycast_net::NetError> {
/// let mut b = TopologyBuilder::new(3);
/// b.link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(100))?;
/// b.link(NodeId::new(1), NodeId::new(2), Bandwidth::from_mbps(100))?;
/// let topo = b.build();
/// assert_eq!(topo.node_count(), 3);
/// assert_eq!(topo.link_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    node_count: usize,
    links: Vec<Link>,
    /// Every linked `(lo, hi)` pair. Hashed with the default hasher:
    /// pairs can come from a user's topology file.
    seen: HashSet<(NodeId, NodeId)>,
}

impl TopologyBuilder {
    /// Starts a topology with `node_count` nodes (ids `0..node_count`) and
    /// no links.
    pub fn new(node_count: usize) -> Self {
        Self::with_capacity(node_count, 0)
    }

    /// [`new`](Self::new), with room for `links` links before the link
    /// list or the duplicate check grows. The hint only sizes buffers: any
    /// value builds the same topology.
    pub fn with_capacity(node_count: usize, links: usize) -> Self {
        TopologyBuilder {
            node_count,
            links: Vec::with_capacity(links),
            seen: HashSet::with_capacity(links),
        }
    }

    /// Adds an undirected link between `a` and `b` with the given capacity.
    ///
    /// Returns the new link's id.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownNode`] if either endpoint is out of range;
    /// * [`NetError::SelfLoop`] if `a == b`;
    /// * [`NetError::DuplicateLink`] if the unordered pair was already linked.
    pub fn link(&mut self, a: NodeId, b: NodeId, capacity: Bandwidth) -> Result<LinkId, NetError> {
        if a.index() >= self.node_count {
            return Err(NetError::UnknownNode(a));
        }
        if b.index() >= self.node_count {
            return Err(NetError::UnknownNode(b));
        }
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if !self.seen.insert((lo, hi)) {
            return Err(NetError::DuplicateLink(lo, hi));
        }
        let id = LinkId::new(self.links.len() as u32);
        self.links.push(Link {
            id,
            a: lo,
            b: hi,
            capacity,
        });
        Ok(id)
    }

    /// Adds every edge in `pairs` with the same `capacity`.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`TopologyBuilder::link`].
    pub fn links_uniform<I>(&mut self, pairs: I, capacity: Bandwidth) -> Result<(), NetError>
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        for (a, b) in pairs {
            self.link(NodeId::new(a), NodeId::new(b), capacity)?;
        }
        Ok(())
    }

    /// Finalises the topology. Adjacency lists are sorted by neighbour id so
    /// that all traversals are deterministic.
    pub fn build(self) -> Topology {
        let n = self.node_count;
        // Degrees, summed into the end of each node's slice; placing every
        // half-edge below its node's end then leaves `offsets[i]` at the
        // start of node `i`'s slice.
        let mut offsets = vec![0u32; n + 1];
        for link in &self.links {
            offsets[link.a.index()] += 1;
            offsets[link.b.index()] += 1;
        }
        for i in 1..n {
            offsets[i] += offsets[i - 1];
        }
        offsets[n] = 2 * self.links.len() as u32;
        let mut adjacency = vec![(NodeId::new(0), LinkId::new(0)); 2 * self.links.len()];
        for link in &self.links {
            for (from, to) in [(link.a, link.b), (link.b, link.a)] {
                offsets[from.index()] -= 1;
                adjacency[offsets[from.index()] as usize] = (to, link.id);
            }
        }
        for w in offsets.windows(2) {
            adjacency[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Topology {
            links: self.links,
            offsets,
            adjacency,
        }
    }
}

/// An immutable network topology: a set of nodes and undirected links.
///
/// The topology is pure structure; mutable bandwidth bookkeeping lives in
/// [`LinkStateTable`](crate::LinkStateTable) so that one topology can be
/// shared by many concurrent simulation runs.
#[derive(Debug, Clone)]
pub struct Topology {
    links: Vec<Link>,
    /// Node `i`'s neighbours are `adjacency[offsets[i]..offsets[i + 1]]`
    /// (compressed sparse rows).
    offsets: Vec<u32>,
    adjacency: Vec<(NodeId, LinkId)>,
}

impl Topology {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterates over all node ids in ascending order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Iterates over all links in id order.
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// Looks up a link by id.
    ///
    /// # Errors
    ///
    /// [`NetError::UnknownLink`] if out of range.
    pub fn link(&self, id: LinkId) -> Result<&Link, NetError> {
        self.links.get(id.index()).ok_or(NetError::UnknownLink(id))
    }

    /// Returns `true` if `n` is a valid node of this topology.
    pub fn contains_node(&self, n: NodeId) -> bool {
        n.index() < self.node_count()
    }

    /// Neighbours of `n` with the connecting link, sorted by neighbour id.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this topology.
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        let i = n.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree (number of incident links) of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a node of this topology.
    pub(crate) fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// Returns `true` if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _) in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Topology {
        let mut b = TopologyBuilder::new(3);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::from_mbps(10))
            .unwrap();
        b.link(NodeId::new(2), NodeId::new(1), Bandwidth::from_mbps(10))
            .unwrap();
        b.build()
    }

    #[test]
    fn builder_assigns_dense_link_ids() {
        let topo = line3();
        let ids: Vec<usize> = topo.links().map(|l| l.id().index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn links_are_stored_with_lower_endpoint_first() {
        let topo = line3();
        let l = topo.link(LinkId::new(1)).unwrap();
        assert_eq!(l.a(), NodeId::new(1));
        assert_eq!(l.b(), NodeId::new(2));
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = TopologyBuilder::new(2);
        assert_eq!(
            b.link(NodeId::new(1), NodeId::new(1), Bandwidth::ZERO),
            Err(NetError::SelfLoop(NodeId::new(1)))
        );
    }

    #[test]
    fn duplicate_links_rejected_in_either_direction() {
        let mut b = TopologyBuilder::new(2);
        b.link(NodeId::new(0), NodeId::new(1), Bandwidth::ZERO)
            .unwrap();
        assert_eq!(
            b.link(NodeId::new(1), NodeId::new(0), Bandwidth::ZERO),
            Err(NetError::DuplicateLink(NodeId::new(0), NodeId::new(1)))
        );
    }

    #[test]
    fn out_of_range_nodes_rejected() {
        let mut b = TopologyBuilder::new(2);
        assert_eq!(
            b.link(NodeId::new(0), NodeId::new(5), Bandwidth::ZERO),
            Err(NetError::UnknownNode(NodeId::new(5)))
        );
    }

    #[test]
    fn neighbors_sorted_by_id() {
        let mut b = TopologyBuilder::new(4);
        b.links_uniform([(1, 3), (1, 0), (1, 2)], Bandwidth::from_mbps(1))
            .unwrap();
        let topo = b.build();
        let nbrs: Vec<u32> = topo
            .neighbors(NodeId::new(1))
            .iter()
            .map(|(n, _)| n.raw())
            .collect();
        assert_eq!(nbrs, vec![0, 2, 3]);
        assert_eq!(topo.degree(NodeId::new(1)), 3);
        assert_eq!(topo.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn connectivity() {
        assert!(line3().is_connected());
        let b = TopologyBuilder::new(3);
        assert!(!b.build().is_connected());
        assert!(TopologyBuilder::new(0).build().is_connected());
        assert!(TopologyBuilder::new(1).build().is_connected());
    }

    #[test]
    fn unknown_link_lookup_errors() {
        let topo = line3();
        assert_eq!(
            topo.link(LinkId::new(99)).unwrap_err(),
            NetError::UnknownLink(LinkId::new(99))
        );
    }
}
