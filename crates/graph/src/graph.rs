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

    /// Number of vertices with at least one incident edge.
    pub fn non_isolated_vertex_count(&self) -> usize {
        self.adjacency.iter().filter(|a| !a.is_empty()).count()
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

    /// `true` when `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adjacency
            .get(u)
            .map(|a| a.contains(&v))
            .unwrap_or(false)
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

    /// Builds the union of this graph with another (same semantics as adding
    /// every edge of `other`).
    pub fn union(&self, other: &UndirectedGraph) -> UndirectedGraph {
        let mut out = self.clone();
        for (u, v) in other.edges() {
            out.add_edge(u, v);
        }
        out
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

    /// Number of distinct connected components containing at least one of
    /// `seeds` and at least one edge.
    ///
    /// The traversal is scoped: only the components actually reachable from
    /// the seeds are walked, so the cost is proportional to the *affected*
    /// part of the graph, not to the whole graph. Incremental maintenance
    /// uses this to report how many components a mutation dirtied.
    pub fn components_touching(&self, seeds: &[usize]) -> usize {
        let n = self.adjacency.len();
        // A hash set, not a vec![false; n]: the visited structure must also
        // cost only as much as the part actually walked.
        let mut visited: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut components = 0usize;
        let mut stack = Vec::new();
        for &seed in seeds {
            if seed >= n || visited.contains(&seed) || self.adjacency[seed].is_empty() {
                continue;
            }
            components += 1;
            visited.insert(seed);
            stack.push(seed);
            while let Some(v) = stack.pop() {
                for u in self.neighbors(v) {
                    if visited.insert(u) {
                        stack.push(u);
                    }
                }
            }
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
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(0, 5));
        assert!(!g.has_edge(1, 5));
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
        assert_eq!(g.non_isolated_vertex_count(), 4);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = UndirectedGraph::from_edges(&[(1, 0), (2, 1), (3, 2)]);
        let edges: Vec<(usize, usize)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn union_merges_edge_sets() {
        let a = UndirectedGraph::from_edges(&[(0, 1)]);
        let b = UndirectedGraph::from_edges(&[(1, 2), (0, 1)]);
        let u = a.union(&b);
        assert_eq!(u.edge_count(), 2);
        assert!(u.has_edge(0, 1) && u.has_edge(1, 2));
    }

    #[test]
    fn components_touching_counts_seeded_components_once() {
        // Components: {0,1,2}, {4,5}, {7,8}; vertex 9 is isolated.
        let g = UndirectedGraph::from_edges(&[(0, 1), (1, 2), (4, 5), (7, 8)]);
        assert_eq!(g.components_touching(&[]), 0);
        assert_eq!(g.components_touching(&[0]), 1);
        assert_eq!(g.components_touching(&[0, 2]), 1); // same component
        assert_eq!(g.components_touching(&[1, 5]), 2);
        assert_eq!(g.components_touching(&[3, 99]), 0); // isolated / unknown
        assert_eq!(g.components_touching(&[0, 4, 7]), 3);
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
