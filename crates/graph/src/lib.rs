//! # rt-graph
//!
//! Undirected graphs and minimum vertex cover approximation.
//!
//! The paper's repair algorithms repeatedly build *conflict graphs* (vertices
//! are tuples, edges connect tuples that jointly violate an FD) and compute a
//! 2-approximate minimum vertex cover `C2opt` of them. `|C2opt|` both bounds
//! the number of tuples that must be modified (Algorithm 4) and drives the
//! definition of `δ_P(Σ', I) = |C2opt| · min(|R|-1, |Σ|)` used by the search
//! for FD repairs (Section 5).
//!
//! This crate provides:
//!
//! * [`UndirectedGraph`] — an adjacency-list graph over `usize` vertices;
//! * [`CompactGraph`] — the same graph indexed by the sorted rows its edges
//!   touch, so graphs over a few conflicting rows of a large table cost
//!   what their edges cost, not what the table's row count costs;
//! * [`vertex_cover::matching_vertex_cover`] — the classical maximal-matching
//!   2-approximation (Garey & Johnson, the paper's reference \[7\]);
//! * [`vertex_cover::greedy_degree_vertex_cover`] — a max-degree greedy
//!   heuristic (no worst-case factor, often smaller covers in practice);
//! * [`vertex_cover::exact_vertex_cover`] — exponential branch-and-bound used
//!   by the test suite to validate the 2-approximation factor on small graphs;
//! * [`vertex_cover::approx_vertex_cover`] — the hybrid cover the repair
//!   algorithms use: per connected component, the smaller of the matching and
//!   greedy covers. Its [`vertex_cover::approx_vertex_cover_with`] variant
//!   computes the components in parallel (`rt-par`) with bit-identical
//!   results for every thread count.

//!
//! ```
//! use rt_graph::{approx_vertex_cover, UndirectedGraph};
//!
//! // A triangle plus a pendant edge: any vertex cover needs two vertices.
//! let mut g = UndirectedGraph::with_vertices(4);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     g.add_edge(u, v);
//! }
//! let cover = approx_vertex_cover(&g);
//! assert!(cover.vertices.len() >= 2 && cover.vertices.len() <= 4);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     assert!(cover.contains(u) || cover.contains(v));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod graph;
pub mod vertex_cover;

pub use compact::CompactGraph;
pub use graph::UndirectedGraph;
pub use vertex_cover::{
    approx_vertex_cover, approx_vertex_cover_with, exact_vertex_cover, greedy_degree_vertex_cover,
    matching_vertex_cover, VertexCover,
};
