//! Error type for the network substrate.

use crate::{Bandwidth, LinkId, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced by topology construction, routing and the link ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A node id referenced a node outside the topology.
    UnknownNode(NodeId),
    /// A link id referenced a link outside the topology.
    UnknownLink(LinkId),
    /// A link would connect a node to itself.
    SelfLoop(NodeId),
    /// The same unordered node pair was added twice to a topology builder.
    DuplicateLink(NodeId, NodeId),
    /// A reservation asked for more bandwidth than is available on a link.
    InsufficientBandwidth {
        /// The link that could not satisfy the demand.
        link: LinkId,
        /// The bandwidth demanded.
        demanded: Bandwidth,
        /// The bandwidth actually available when the demand was made.
        available: Bandwidth,
    },
    /// A release would return more bandwidth to a link than was reserved.
    ReleaseUnderflow {
        /// The link being released.
        link: LinkId,
        /// The bandwidth being returned.
        released: Bandwidth,
        /// The bandwidth currently reserved on the link.
        reserved: Bandwidth,
    },
    /// The link ledger's audit found a per-link invariant broken, or a
    /// running total that disagrees with the column it sums.
    InconsistentLedger {
        /// The offending link; `None` when a whole-table total is off.
        link: Option<LinkId>,
        /// Which condition failed.
        what: &'static str,
    },
    /// An anycast group was created with no members.
    EmptyGroup,
    /// A path was constructed from an inconsistent node/link sequence.
    MalformedPath(&'static str),
    /// No route exists between the requested pair of nodes.
    NoRoute(NodeId, NodeId),
    /// A random-topology generator exhausted its retry budget without
    /// producing a connected graph.
    DisconnectedTopology {
        /// How many deterministically re-seeded draws were attempted.
        attempts: u32,
    },
    /// An edge-list document could not be parsed.
    MalformedEdgeList {
        /// 1-based line number of the offending line (0 for whole-document
        /// problems such as an empty file).
        line: usize,
        /// What was wrong with it.
        reason: &'static str,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetError::SelfLoop(n) => write!(f, "link from {n} to itself is not allowed"),
            NetError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between {a} and {b}")
            }
            NetError::InsufficientBandwidth {
                link,
                demanded,
                available,
            } => write!(
                f,
                "insufficient bandwidth on {link}: demanded {demanded}, available {available}"
            ),
            NetError::ReleaseUnderflow {
                link,
                released,
                reserved,
            } => write!(
                f,
                "release underflow on {link}: releasing {released} with only {reserved} reserved"
            ),
            NetError::InconsistentLedger { link, what } => match link {
                Some(l) => write!(f, "inconsistent ledger at {l}: {what}"),
                None => write!(f, "inconsistent ledger: {what}"),
            },
            NetError::EmptyGroup => write!(f, "anycast group must have at least one member"),
            NetError::MalformedPath(why) => write!(f, "malformed path: {why}"),
            NetError::NoRoute(s, d) => write!(f, "no route from {s} to {d}"),
            NetError::DisconnectedTopology { attempts } => write!(
                f,
                "no connected topology found after {attempts} re-seeded draws"
            ),
            NetError::MalformedEdgeList { line, reason } => {
                write!(f, "malformed edge list at line {line}: {reason}")
            }
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }

    #[test]
    fn display_is_informative() {
        let e = NetError::InsufficientBandwidth {
            link: LinkId::new(3),
            demanded: Bandwidth::from_kbps(64),
            available: Bandwidth::from_kbps(10),
        };
        let msg = e.to_string();
        assert!(msg.contains("l3"));
        assert!(msg.contains("64kb/s"));
        assert!(msg.contains("10kb/s"));
    }

    #[test]
    fn display_covers_all_variants() {
        let variants: Vec<NetError> = vec![
            NetError::UnknownNode(NodeId::new(1)),
            NetError::UnknownLink(LinkId::new(2)),
            NetError::SelfLoop(NodeId::new(3)),
            NetError::DuplicateLink(NodeId::new(1), NodeId::new(2)),
            NetError::ReleaseUnderflow {
                link: LinkId::new(0),
                released: Bandwidth::from_bps(10),
                reserved: Bandwidth::from_bps(5),
            },
            NetError::InconsistentLedger {
                link: Some(LinkId::new(4)),
                what: "reserved + held exceeds capacity",
            },
            NetError::InconsistentLedger {
                link: None,
                what: "running totals disagree with the per-link columns",
            },
            NetError::EmptyGroup,
            NetError::MalformedPath("gap"),
            NetError::NoRoute(NodeId::new(0), NodeId::new(9)),
            NetError::DisconnectedTopology { attempts: 64 },
            NetError::MalformedEdgeList {
                line: 3,
                reason: "missing capacity",
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }
}
