//! Reusable search state for the dynamic routing primitives.
//!
//! The GDI baseline runs one residual-network BFS **per admission
//! request** — millions per sweep point. Allocating fresh
//! `parent`/`seen` vectors and a fresh queue for every call dominates the
//! cost of the search itself on small topologies, so
//! [`nearest_feasible_member`] borrows a [`RoutingScratch`] that owns the
//! buffers across calls.
//!
//! Visited marks are epoch-stamped: beginning a new search bumps a
//! counter instead of clearing the vectors, so per-search reset is O(1)
//! in the number of nodes.
//!
//! [`nearest_feasible_member`]: super::nearest_feasible_member

use crate::{LinkId, NodeId};
use std::collections::VecDeque;

/// Reusable buffers for the residual BFS searches in this module.
///
/// One scratch serves any number of sequential searches over topologies
/// of any size (buffers grow to the largest node count seen and stay
/// allocated). A scratch is cheap to create empty, so owners that search
/// rarely can simply hold a `RoutingScratch::default()`.
#[derive(Debug, Clone, Default)]
pub struct RoutingScratch {
    /// Predecessor of each node in the current search tree; valid only
    /// where `seen` carries the current epoch.
    pub(crate) parent: Vec<Option<(NodeId, LinkId)>>,
    /// Epoch stamp: node discovered (parent valid).
    pub(crate) seen: Vec<u64>,
    /// The current search's epoch; bumped by [`begin`](Self::begin).
    epoch: u64,
    /// BFS frontier.
    pub(crate) queue: VecDeque<NodeId>,
}

impl RoutingScratch {
    /// Starts a fresh search over a topology of `n` nodes: grows the
    /// buffers if needed and invalidates all marks from prior searches in
    /// O(1) by advancing the epoch.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.parent.resize(n, None);
            self.seen.resize(n, 0);
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Whether the current (or last) search on this scratch reached
    /// `node`. A node outside the searched topology never was.
    pub fn reached(&self, node: NodeId) -> bool {
        self.seen.get(node.index()) == Some(&self.epoch)
    }

    /// Marks `node` discovered with the given predecessor edge (`None`
    /// for the search root).
    pub(crate) fn mark_seen(&mut self, node: NodeId, parent: Option<(NodeId, LinkId)>) {
        self.seen[node.index()] = self.epoch;
        self.parent[node.index()] = parent;
    }

    /// Walks predecessors from `dst` back to `src`, returning the
    /// forward `(nodes, links)` of the tree path. `dst` must have been
    /// reached in the current search.
    pub(crate) fn extract(&self, src: NodeId, dst: NodeId) -> (Vec<NodeId>, Vec<LinkId>) {
        let mut nodes = vec![dst];
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (prev, link) = self.parent[cur.index()].expect("reached nodes have parents");
            nodes.push(prev);
            links.push(link);
            cur = prev;
        }
        nodes.reverse();
        links.reverse();
        (nodes, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_invalidate_in_constant_time() {
        let mut s = RoutingScratch::default();
        s.begin(4);
        s.mark_seen(NodeId::new(2), None);
        s.mark_seen(NodeId::new(3), Some((NodeId::new(2), LinkId::new(0))));
        assert!(s.reached(NodeId::new(2)));
        assert_eq!(
            s.extract(NodeId::new(2), NodeId::new(3)).1,
            vec![LinkId::new(0)]
        );
        // A new search sees none of it without any buffer clearing.
        s.begin(4);
        assert!(!s.reached(NodeId::new(2)));
        assert!(!s.reached(NodeId::new(3)));
    }

    #[test]
    fn buffers_grow_to_largest_topology() {
        let mut s = RoutingScratch::default();
        s.begin(2);
        s.begin(10);
        s.mark_seen(NodeId::new(9), None);
        assert!(s.reached(NodeId::new(9)));
        // Shrinking the node count must not shrink the buffers.
        s.begin(3);
        assert!(!s.reached(NodeId::new(9)));
    }
}
