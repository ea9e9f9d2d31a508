//! Network substrate for the anycast admission-control study.
//!
//! This crate models the network of §3 of *Distributed Admission Control for
//! Anycast Flows with QoS Requirements* (Xuan & Jia, ICDCS 2001):
//!
//! * a [`Topology`] of nodes connected by undirected links, each with a
//!   bandwidth [`capacity`](Link::capacity);
//! * a [`LinkStateTable`] ledger tracking the *available bandwidth* `AB_l`
//!   of every link as flows reserve and release capacity;
//! * [`AnycastGroup`]s — the sets of designated recipients that share an
//!   anycast address;
//! * fixed per-(source, member) routes computed by deterministic
//!   shortest-path [`routing`], plus the residual-network BFS the GDI
//!   baseline needs.
//!
//! # Example
//!
//! ```rust
//! use anycast_net::{topologies, AnycastGroup, LinkStateTable, NodeId, RouteTable, Bandwidth};
//!
//! # fn main() -> Result<(), anycast_net::NetError> {
//! let topo = topologies::mci();
//! let group = AnycastGroup::new("mirrors", [0u32, 4, 8, 12, 16].map(NodeId::new))?;
//! let routes = RouteTable::shortest_paths(&topo, &group);
//! let mut links = LinkStateTable::with_uniform_fraction(&topo, Bandwidth::from_mbps(100), 0.2);
//!
//! let path = &routes.routes_from(NodeId::new(1)).expect("a source")[2]; // member 8
//! links.reserve_path(path, Bandwidth::from_bps(64_000))?;
//! assert!(links.min_available_on(path) < Bandwidth::from_mbps(20));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
mod error;
mod group;
mod ids;
pub mod io;
mod link_state;
pub mod metrics;
mod path;
pub mod routing;
pub mod topologies;
mod topology;

pub use bandwidth::Bandwidth;
pub use error::NetError;
pub use group::AnycastGroup;
pub use ids::{IdHasher, LinkId, NodeId};
pub use link_state::{LinkSnapshot, LinkStateTable, LinkSummary};
pub use path::Path;
pub use routing::{RouteSet, RouteTable};
pub use topology::{Link, Topology, TopologyBuilder};
