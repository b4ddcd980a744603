//! A simple undirected graph over integer vertices.

use std::collections::BTreeSet;

/// Undirected graph with `usize` vertex identifiers.
///
/// Vertices are implicit: any `usize` smaller than [`UndirectedGraph::vertex_bound`]
/// may appear in an edge, and isolated vertices simply never show up in the
/// adjacency lists. Parallel edges are collapsed; self-loops are rejected
/// (two copies of the same tuple can never violate an FD with themselves).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndirectedGraph {
    /// adjacency[v] = sorted set of neighbours of v.
    adjacency: Vec<BTreeSet<usize>>,
    edge_count: usize,
}

impl UndirectedGraph {
    /// Creates an empty graph able to hold vertices `0..n`.
    pub fn with_vertices(n: usize) -> Self {
        UndirectedGraph {
            adjacency: vec![BTreeSet::new(); n],
            edge_count: 0,
        }
    }

    /// Largest vertex id representable without growing (`n` from
    /// [`UndirectedGraph::with_vertices`], possibly grown by `add_edge`).
    pub fn vertex_bound(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// `true` when the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edge_count == 0
    }

    /// Adds an undirected edge `{u, v}`. Returns `true` when the edge is new.
    ///
    /// Self-loops are ignored (returns `false`). The vertex set grows on
    /// demand.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v {
            return false;
        }
        let needed = u.max(v) + 1;
        if needed > self.adjacency.len() {
            self.adjacency.resize(needed, BTreeSet::new());
        }
        let inserted = self.adjacency[u].insert(v);
        self.adjacency[v].insert(u);
        if inserted {
            self.edge_count += 1;
        }
        inserted
    }

    /// Degree of a vertex (0 for unknown vertices).
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency.get(v).map(BTreeSet::len).unwrap_or(0)
    }

    /// Neighbours of a vertex, ascending.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency
            .get(v)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Iterates every edge exactly once as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(u, adj)| {
            adj.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Checks whether `cover` touches every edge.
    pub fn is_vertex_cover(&self, cover: &BTreeSet<usize>) -> bool {
        self.edges()
            .all(|(u, v)| cover.contains(&u) || cover.contains(&v))
    }

    /// Builds a graph directly from an edge list (convenience for tests).
    pub fn from_edges(edges: &[(usize, usize)]) -> Self {
        let mut g = UndirectedGraph::default();
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Connected components over the non-isolated vertices, each sorted
    /// ascending, ordered by their smallest vertex.
    ///
    /// Isolated vertices are omitted: they carry no edges, so no repair
    /// algorithm ever needs them. The deterministic ordering is what lets
    /// per-component work fan out over threads and merge back bit-identically
    /// (see `approx_vertex_cover_with`).
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.adjacency.len();
        let mut visited = vec![false; n];
        let mut components = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if visited[start] || self.adjacency[start].is_empty() {
                continue;
            }
            let mut component = Vec::new();
            visited[start] = true;
            stack.push(start);
            while let Some(v) = stack.pop() {
                component.push(v);
                for u in self.neighbors(v) {
                    if !visited[u] {
                        visited[u] = true;
                        stack.push(u);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// The subgraph induced by `vertices` (which must be sorted ascending),
    /// with vertex ids remapped to `0..vertices.len()`.
    ///
    /// Returns the local graph; local id `i` corresponds to `vertices[i]`.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> UndirectedGraph {
        let mut local = UndirectedGraph::with_vertices(vertices.len());
        for (li, &v) in vertices.iter().enumerate() {
            for u in self.neighbors(v) {
                if u > v {
                    if let Ok(lu) = vertices.binary_search(&u) {
                        local.add_edge(li, lu);
                    }
                }
            }
        }
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedups_and_grows() {
        let mut g = UndirectedGraph::with_vertices(2);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0)); // duplicate (other orientation)
        assert!(g.add_edge(0, 5)); // grows vertex set
        assert_eq!(g.edge_count(), 2);
        assert!(g.vertex_bound() >= 6);
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 5)]);
        assert_eq!(g.neighbors(5).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn self_loops_ignored() {
        let mut g = UndirectedGraph::default();
        assert!(!g.add_edge(3, 3));
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (0, 2), (0, 3), (2, 3)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.degree(9), 0);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = UndirectedGraph::from_edges(&[(1, 0), (2, 1), (3, 2)]);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn is_vertex_cover_checks_all_edges() {
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (2, 3)]);
        let cover: BTreeSet<usize> = [1, 2].into_iter().collect();
        assert!(g.is_vertex_cover(&cover));
        let not_cover: BTreeSet<usize> = [0, 3].into_iter().collect();
        assert!(!g.is_vertex_cover(&not_cover));
        let empty_graph = UndirectedGraph::default();
        assert!(empty_graph.is_vertex_cover(&BTreeSet::new()));
    }
}
