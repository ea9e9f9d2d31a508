//! Routing: fixed shortest paths plus the dynamic searches used by GDI.
//!
//! The paper assumes "to one source, there is a fixed path to each member in
//! an anycast group" obtained via existing routing protocols (§3). We
//! reproduce that with deterministic breadth-first shortest-path trees
//! (minimum hop count, ties broken toward the lowest-id predecessor), one
//! tree per traffic source, held in a [`RouteTable`].
//!
//! The GDI baseline (§5.1) additionally needs *dynamic* searches over the
//! residual network: [`filtered_shortest_path`] finds the shortest path
//! using only links with enough available bandwidth, and [`widest_path`]
//! finds the maximum-bottleneck path (an extension used by examples and
//! ablations).
//!
//! The dynamic searches run once per group member per admission request, so
//! hot callers hold a [`RoutingScratch`] and use the `_with` variants
//! ([`filtered_shortest_path_with`], [`dijkstra_path_with`]) to reuse search
//! buffers across calls instead of reallocating them.

mod bfs;
mod dijkstra;
mod filtered;
mod scratch;
mod table;
mod widest;
mod yen;

pub use bfs::{bfs_tree, shortest_path, BfsTree};
pub use dijkstra::{dijkstra_path, dijkstra_path_with};
pub use filtered::{filtered_shortest_path, filtered_shortest_path_with};
pub use scratch::RoutingScratch;
pub use table::{RouteSet, RouteTable};
pub use widest::widest_path;
pub use yen::k_shortest_paths;
