//! Strongly-typed identifiers for nodes and links, and the hasher for
//! keys made of engine-issued ids.

use std::fmt;
use std::hash::Hasher;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// A deterministic hasher for keys made of ids the engine issues itself
/// (the node and link indices of a search's path): one
/// rotate-xor-multiply per `u64` instead of SipHash.
///
/// Such ids are dense numbers, not values a client picks, so no client can
/// choose keys that collide. Maps keyed by client-chosen values keep the
/// standard hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Eight bytes at a time, the last word zero-padded.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
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
