//! Directed weighted graph library and topology generators for the OCD
//! problem suite.
//!
//! This crate is the graph substrate of the
//! [Overlay Network Content Distribution](https://escholarship.org/uc/item/5459z1cr)
//! (OCD) reproduction. It provides:
//!
//! - [`DiGraph`]: a simple, weighted, directed graph where arc weights are
//!   interpreted as *capacities* (tokens per timestep), per the paper's
//!   §3.1. Adding a parallel arc merges it into the existing arc by summing
//!   capacities, exactly as the paper prescribes for multi-arcs.
//! - Algorithms ([`algo`]): BFS distances, Dijkstra, connectivity,
//!   diameter/eccentricity, union-find, dominating sets (greedy and
//!   exact), and a directed Steiner-tree heuristic.
//! - Generators ([`generate`]): classic families, `G(n, p)` random graphs in
//!   the paper's `p = 2 ln n / n` regime, and a GT-ITM-style transit-stub
//!   generator standing in for the paper's GT-ITM topologies.
//! - I/O ([`io`]): Graphviz DOT export and a line-oriented edge-list format.
//!
//! # Examples
//!
//! ```
//! use ocd_graph::DiGraph;
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let e = g.add_edge(a, b, 3).unwrap();
//! assert_eq!(g.capacity(e), 3);
//! // Parallel arcs merge by summing capacities (paper §3.1).
//! let e2 = g.add_edge(a, b, 4).unwrap();
//! assert_eq!(e, e2);
//! assert_eq!(g.capacity(e), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod algo;
mod digraph;
mod error;
pub mod generate;
mod ids;
pub mod io;
pub mod underlay;

pub use digraph::{DiGraph, Edge};
pub use error::GraphError;
pub use ids::{EdgeId, NodeId};
