//! Ready-made topologies: the paper's MCI backbone plus synthetic families.
//!
//! The headline experiments run on [`mci`], a 19-node reconstruction of the
//! MCI ISP backbone of the paper's Figure 2 (see `DESIGN.md` §2 for the
//! substitution note — the figure image is not part of the source text, so
//! the adjacency is reconstructed with the same size, density and diameter).
//!
//! The synthetic families ([`grid`], [`ring`], [`star`], [`waxman`]) drive
//! the topology-robustness ablation: the paper's qualitative conclusions
//! should not depend on the particular backbone.
//!
//! The datacenter fabrics ([`fat_tree`], [`clos`]) scale the reproduction
//! past paper-size meshes — thousands of hosts behind regular switching
//! tiers, routed only from the hosts a scenario lists as sources
//! ([`RouteTable::for_sources`](crate::RouteTable::for_sources)).

mod datacenter;
mod mci;
mod synthetic;

pub use datacenter::{
    clos, clos_hosts, clos_node_count, fat_tree, fat_tree_hosts, fat_tree_node_count,
};
pub use mci::{
    mci, mci_source_nodes, mci_with_capacity, MCI_GROUP_MEMBERS, MCI_LINKS, MCI_NODES, MCI_SOURCES,
};
pub use synthetic::{grid, ring, star, waxman, WAXMAN_MAX_ATTEMPTS};
