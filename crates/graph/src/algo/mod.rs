//! Graph algorithms used throughout the OCD suite.
//!
//! Distances in this module are *hop counts* unless stated otherwise: the
//! OCD model (§3.1) transfers any number of tokens up to capacity in unit
//! time, so the time-relevant metric between vertices is the number of
//! overlay hops, not the capacity. Capacity-aware reasoning lives in the
//! bounds of `ocd-core` and in the solvers.

mod bfs;
mod connectivity;
mod diameter;
mod dijkstra;
mod dominating;
mod steiner;
mod union_find;

pub use bfs::{bfs_distances, bfs_distances_multi, bfs_tree, nodes_within};
pub use connectivity::{
    is_strongly_connected, is_weakly_connected, strongly_connected_components,
    weakly_connected_components,
};
pub use diameter::{diameter, eccentricity, radius};
pub use dijkstra::{dijkstra, shortest_path, PathCost};
pub use dominating::{
    dominating_set_exact, dominating_set_greedy, has_dominating_set_of_size, is_dominating_set,
};
pub use steiner::{steiner_tree_approx, SteinerTree};
pub use union_find::UnionFind;

/// Sentinel distance for "unreachable" in dense distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;
