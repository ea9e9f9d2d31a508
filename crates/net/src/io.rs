//! Plain-text topology exchange: a minimal edge-list format.
//!
//! One line per link: `<node-a> <node-b> <capacity-bps>`, with `#`
//! comments and blank lines ignored. The node count is inferred as
//! `max id + 1`. This is enough to bring external topologies (Rocketfuel
//! dumps, hand-drawn testbeds) into the experiment harness without a
//! serialization dependency.
//!
//! ```rust
//! use anycast_net::io::parse_edge_list;
//!
//! # fn main() -> Result<(), anycast_net::NetError> {
//! let text = "# tiny triangle\n0 1 100000000\n1 2 100000000\n0 2 100000000\n";
//! let topo = parse_edge_list(text)?;
//! assert_eq!(topo.node_count(), 3);
//! assert_eq!(topo.link_count(), 3);
//! # Ok(())
//! # }
//! ```

use crate::{Bandwidth, NetError, NodeId, Topology, TopologyBuilder};

/// Parses an edge-list document into a topology.
///
/// # Errors
///
/// [`NetError::MalformedEdgeList`] with the offending line number for
/// syntax problems, and the usual construction errors
/// ([`NetError::SelfLoop`], [`NetError::DuplicateLink`]) for semantic
/// ones.
pub fn parse_edge_list(text: &str) -> Result<Topology, NetError> {
    let mut edges: Vec<(u32, u32, u64)> = Vec::new();
    let mut max_node = 0u32;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let mut field = |name: &'static str| -> Result<&str, NetError> {
            parts.next().ok_or(NetError::MalformedEdgeList {
                line: idx + 1,
                reason: name,
            })
        };
        let a: u32 =
            field("missing first endpoint")?
                .parse()
                .map_err(|_| NetError::MalformedEdgeList {
                    line: idx + 1,
                    reason: "first endpoint is not an integer",
                })?;
        let b: u32 =
            field("missing second endpoint")?
                .parse()
                .map_err(|_| NetError::MalformedEdgeList {
                    line: idx + 1,
                    reason: "second endpoint is not an integer",
                })?;
        let cap: u64 =
            field("missing capacity")?
                .parse()
                .map_err(|_| NetError::MalformedEdgeList {
                    line: idx + 1,
                    reason: "capacity is not an integer (bits per second)",
                })?;
        if parts.next().is_some() {
            return Err(NetError::MalformedEdgeList {
                line: idx + 1,
                reason: "trailing fields after capacity",
            });
        }
        max_node = max_node.max(a).max(b);
        edges.push((a, b, cap));
    }
    if edges.is_empty() {
        return Err(NetError::MalformedEdgeList {
            line: 0,
            reason: "document contains no links",
        });
    }
    let mut builder = TopologyBuilder::new(max_node as usize + 1);
    for (a, b, cap) in edges {
        builder.link(NodeId::new(a), NodeId::new(b), Bandwidth::from_bps(cap))?;
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_comments_and_blanks() {
        let text = "\n# header\n  \n0 1 1000\n\n# tail\n1 2 2000\n";
        let topo = parse_edge_list(text).unwrap();
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 2);
        assert_eq!(
            topo.link(crate::LinkId::new(1)).unwrap().capacity(),
            Bandwidth::from_bps(2000)
        );
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_edge_list("0 1 100\nbogus line\n").unwrap_err();
        assert!(matches!(err, NetError::MalformedEdgeList { line: 2, .. }));
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn rejects_bad_fields() {
        for (text, reason_part) in [
            ("0", "second endpoint"),
            ("0 1", "capacity"),
            ("x 1 5", "not an integer"),
            ("0 y 5", "not an integer"),
            ("0 1 z", "capacity is not an integer"),
            ("0 1 5 6", "trailing"),
            ("", "no links"),
            ("# only comments\n", "no links"),
        ] {
            let err = parse_edge_list(text).unwrap_err();
            assert!(err.to_string().contains(reason_part), "{text:?} → {err}");
        }
    }

    #[test]
    fn semantic_errors_propagate() {
        assert!(matches!(
            parse_edge_list("3 3 100\n"),
            Err(NetError::SelfLoop(_))
        ));
        assert!(matches!(
            parse_edge_list("0 1 100\n1 0 100\n"),
            Err(NetError::DuplicateLink(_, _))
        ));
    }

    #[test]
    fn isolated_low_ids_are_allowed() {
        // Node ids need not be contiguous in the input; gaps become
        // isolated nodes.
        let topo = parse_edge_list("0 5 100\n").unwrap();
        assert_eq!(topo.node_count(), 6);
        assert!(!topo.is_connected());
    }
}
