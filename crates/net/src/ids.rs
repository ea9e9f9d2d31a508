//! Strongly-typed identifiers for nodes and links.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (router or host) in a [`Topology`](crate::Topology).
///
/// Node ids are dense indices `0..topology.node_count()`; the experiments of
/// the paper refer to routers by these numbers (e.g. the anycast group lives
/// at routers 0, 4, 8, 12 and 16 of the MCI backbone).
///
/// ```rust
/// use anycast_net::NodeId;
/// let n = NodeId::new(4);
/// assert_eq!(n.index(), 4);
/// assert_eq!(n.to_string(), "n4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Identifier of an undirected link in a [`Topology`](crate::Topology).
///
/// Link ids are dense indices `0..topology.link_count()` assigned in the
/// order links were added to the topology builder.
///
/// ```rust
/// use anycast_net::LinkId;
/// let l = LinkId::new(3);
/// assert_eq!(l.index(), 3);
/// assert_eq!(l.to_string(), "l3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from its dense index.
    pub const fn new(index: u32) -> Self {
        LinkId(index)
    }

    /// Returns the dense index of this link.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[cfg(test)]
    pub(crate) const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for LinkId {
    fn from(v: u32) -> Self {
        LinkId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(7);
        assert_eq!(n.index(), 7);
        assert_eq!(n.raw(), 7);
        assert_eq!(NodeId::from(7u32), n);
    }

    #[test]
    fn link_id_roundtrip() {
        let l = LinkId::new(11);
        assert_eq!(l.index(), 11);
        assert_eq!(l.raw(), 11);
        assert_eq!(LinkId::from(11u32), l);
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(LinkId::new(0) < LinkId::new(5));
    }

    #[test]
    fn display_is_nonempty_and_tagged() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
        assert_eq!(LinkId::new(0).to_string(), "l0");
    }
}
