//! Anycast groups: the designated recipient sets that share an address.

use crate::{NetError, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An anycast group `G(A)`: the set of designated recipients reachable
/// through a single anycast address `A` (§3 of the paper).
///
/// Members are stored sorted and deduplicated; their position in
/// [`members`](Self::members) is the *member index* used throughout the
/// workspace for weights, history tables and route lookups.
///
/// ```rust
/// use anycast_net::{AnycastGroup, NodeId};
///
/// # fn main() -> Result<(), anycast_net::NetError> {
/// let g = AnycastGroup::new("mirrors", [NodeId::new(8), NodeId::new(0), NodeId::new(8)])?;
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.members(), &[NodeId::new(0), NodeId::new(8)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnycastGroup {
    address: String,
    members: Vec<NodeId>,
}

impl AnycastGroup {
    /// Creates a group with the given anycast address label and members.
    ///
    /// Duplicate members are removed; members are kept in ascending id order.
    ///
    /// # Errors
    ///
    /// [`NetError::EmptyGroup`] if `members` is empty after deduplication.
    pub fn new<I>(address: impl Into<String>, members: I) -> Result<Self, NetError>
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut members: Vec<NodeId> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return Err(NetError::EmptyGroup);
        }
        Ok(AnycastGroup {
            address: address.into(),
            members,
        })
    }

    /// The members in ascending node-id order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The group size `K`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `false` by construction (groups are never empty), provided for
    /// clippy-idiomatic pairing with [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl fmt::Display for AnycastGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.address)?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_group() {
        let g = AnycastGroup::new("A", [0u32, 4, 8, 12, 16].map(NodeId::new)).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.members()[4], NodeId::new(16));
    }

    #[test]
    fn members_sorted_and_deduped() {
        let g = AnycastGroup::new("A", [5u32, 1, 5, 3].map(NodeId::new)).unwrap();
        assert_eq!(
            g.members(),
            &[NodeId::new(1), NodeId::new(3), NodeId::new(5)]
        );
    }

    #[test]
    fn empty_group_rejected() {
        assert_eq!(
            AnycastGroup::new("A", std::iter::empty()).unwrap_err(),
            NetError::EmptyGroup
        );
    }

    #[test]
    fn unicast_is_singleton_group() {
        // "Traditional unicast flow is a special case of anycast flow" (§1).
        let g = AnycastGroup::new("u", [NodeId::new(7)]).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.members(), &[NodeId::new(7)]);
    }

    #[test]
    fn display_shows_address_and_members() {
        let g = AnycastGroup::new("srv", [NodeId::new(2), NodeId::new(0)]).unwrap();
        assert_eq!(g.to_string(), "srv{n0,n2}");
    }
}
