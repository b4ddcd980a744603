//! Graphs over the few rows of a large table that carry edges.

use crate::graph::UndirectedGraph;
use crate::vertex_cover::{approx_vertex_cover_with, VertexCover};
use rt_par::Parallelism;

/// An [`UndirectedGraph`] indexed by the sorted rows its edges touch: local
/// vertex `i` stands for row `rows()[i]`.
///
/// The conflict graph of a million-row instance may touch only a few
/// thousand rows; a row-indexed graph would allocate, clone and scan a
/// million adjacency slots for it. The remap preserves order, so every
/// algorithm here that breaks ties by vertex id (components ordered by
/// smallest vertex, matching in ascending edge order, greedy by smallest
/// id) makes the same choices on the local graph as on the row-indexed
/// one, and its result maps back to rows bit-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactGraph {
    rows: Vec<usize>,
    local: UndirectedGraph,
}

impl CompactGraph {
    /// The graph of the given row-pair edges; its vertices are exactly
    /// their endpoints.
    pub fn from_edges(edges: &[(usize, usize)]) -> Self {
        let mut rows: Vec<usize> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
        rows.sort_unstable();
        rows.dedup();
        let id = |row: usize| rows.binary_search(&row).expect("row is an endpoint");
        let mut local = UndirectedGraph::with_vertices(rows.len());
        for &(u, v) in edges {
            local.add_edge(id(u), id(v));
        }
        CompactGraph { rows, local }
    }

    /// The rows with at least one edge, ascending.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// The graph over local vertex ids.
    pub fn local(&self) -> &UndirectedGraph {
        &self.local
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.local.edge_count()
    }

    /// `true` when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Every edge once, as rows `(u, v)` with `u < v`, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.local
            .edges()
            .map(|(u, v)| (self.rows[u], self.rows[v]))
    }

    /// Connected components as sorted row lists, ordered by smallest row.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        self.local
            .connected_components()
            .into_iter()
            .map(|c| c.into_iter().map(|v| self.rows[v]).collect())
            .collect()
    }

    /// [`approx_vertex_cover_with`] of the graph, as rows.
    pub fn vertex_cover_with(&self, par: Parallelism) -> VertexCover {
        VertexCover {
            vertices: approx_vertex_cover_with(&self.local, par)
                .iter()
                .map(|v| self.rows[v])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spreads the vertices of `edges` over a wide, gappy row range.
    fn spread(edges: &[(usize, usize)]) -> Vec<(usize, usize)> {
        edges
            .iter()
            .map(|&(u, v)| (1000 + 37 * u, 1000 + 37 * v))
            .collect()
    }

    #[test]
    fn compact_graph_maps_back_to_row_indexed_results() {
        let small = [(0, 1), (1, 2), (2, 3), (5, 6), (5, 7), (6, 7), (9, 12)];
        let rows = spread(&small);
        let wide = UndirectedGraph::from_edges(&rows);
        let compact = CompactGraph::from_edges(&rows);
        assert_eq!(compact.rows().len(), 9);
        assert_eq!(compact.edge_count(), wide.edge_count());
        assert_eq!(
            compact.edges().collect::<Vec<_>>(),
            wide.edges().collect::<Vec<_>>()
        );
        assert_eq!(compact.connected_components(), wide.connected_components());
        for par in [Parallelism::Serial, Parallelism::Fixed(2)] {
            assert_eq!(
                compact.vertex_cover_with(par),
                approx_vertex_cover_with(&wide, par)
            );
        }
    }

    #[test]
    fn empty_graph_has_no_rows() {
        let g = CompactGraph::from_edges(&[]);
        assert!(g.is_empty());
        assert!(g.rows().is_empty());
        assert!(g.vertex_cover_with(Parallelism::Serial).is_empty());
    }
}
