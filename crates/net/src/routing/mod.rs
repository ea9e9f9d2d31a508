//! Routing: fixed shortest paths plus the dynamic searches used by GDI.
//!
//! The paper assumes "to one source, there is a fixed path to each member in
//! an anycast group" obtained via existing routing protocols (§3). We
//! reproduce that with deterministic breadth-first shortest-path searches
//! (minimum hop count, ties broken toward the predecessor the search
//! reaches first), one per traffic source, held in a [`RouteTable`].
//!
//! The GDI baseline (§5.1) additionally needs a *dynamic* search over the
//! residual network: [`nearest_feasible_member`] runs one BFS from the
//! source over links with enough available bandwidth and stops at the
//! nearest group member it reaches. [`filtered_shortest_path`] is the same
//! search for one destination, kept as its naive per-pair reference.
//!
//! GDI searches once per admission request, so it holds a
//! [`RoutingScratch`] that [`nearest_feasible_member`] reuses across calls
//! instead of reallocating its buffers, and a [`PathMemo`] that hands back
//! the paths it has already built instead of building them again.

mod bfs;
mod filtered;
mod memo;
mod scratch;
mod table;
mod yen;

pub use bfs::{bfs_tree, shortest_path, BfsTree};
pub use filtered::{filtered_shortest_path, nearest_feasible_member};
pub use memo::PathMemo;
pub use scratch::RoutingScratch;
pub use table::{RouteSet, RouteTable};
pub use yen::k_shortest_paths;
