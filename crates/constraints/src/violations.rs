//! Conflict graphs and difference sets.
//!
//! The *conflict graph* of an instance `I` and FD set `Σ` (Definition 6) has
//! one vertex per tuple and an edge between every pair of tuples that jointly
//! violate at least one FD. The paper's algorithms use it in two ways:
//!
//! 1. its 2-approximate minimum vertex cover `C2opt(Σ', I)` determines how
//!    many tuples Algorithm 4 has to touch and thereby
//!    `δ_P(Σ', I) = |C2opt| · min(|R|-1, |Σ|)`;
//! 2. each edge's *difference set* — the attributes on which the two tuples
//!    disagree — determines which relaxed FD sets the edge still violates
//!    (a relaxed FD `XY → A` is violated by the edge iff `XY` is disjoint
//!    from the difference set and `A` belongs to it). Grouping edges by
//!    difference set is what makes the A* heuristic of Section 5.2 cheap.
//!
//! Because every `Σ' ∈ S(Σ)` is a relaxation of `Σ`, every pair violating
//! `Σ'` also violates `Σ`. We therefore build the conflict graph **once** for
//! the original `Σ` and answer questions about any relaxation by filtering
//! its edges through bitset operations on the stored difference sets,
//! avoiding a full re-partitioning per search state.
//!
//! # Determinism contract
//!
//! Blocking groups rows into LHS classes and RHS sub-classes by their
//! dictionary codes, never by hash order. Every class, sub-class and block
//! is ordered by its **first (smallest) row index**, and rows within a
//! class are ascending. Classes being disjoint, this coincides with the
//! lexicographic order of the class vectors. So the edges a build emits,
//! and their order, do not depend on which codes a dictionary assigned.
//! The shard plan orders its shards by smallest row the same way.

use crate::attrset::AttrSet;
use crate::fd::{Fd, FdSet};
use rt_graph::{CompactGraph, UndirectedGraph};
use rt_par::{par_map_indexed, Parallelism};
use rt_relation::work::{Slot, Telemetry};
use rt_relation::{code_range, code_runs, row_u32, sort_rows_by_codes, Code, CodeSpace, Instance};

/// One conflict-graph edge: a pair of tuples violating at least one FD.
/// Its difference set alone decides which FDs, and which relaxations of
/// them, the pair violates ([`Fd::violated_by_diff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Row indices of the two conflicting tuples (`rows.0 < rows.1`).
    pub rows: (usize, usize),
    /// Attributes on which the two tuples differ.
    pub difference_set: AttrSet,
}

impl ConflictEdge {
    /// The edge of a row pair, its difference set read off the code
    /// columns (equal codes ⟺ matching cells).
    pub(crate) fn of(instance: &Instance, pair: (usize, usize)) -> Self {
        ConflictEdge {
            rows: pair,
            difference_set: AttrSet::from_attrs(instance.differing_attrs_coded(pair.0, pair.1)),
        }
    }

    /// Does this edge violate at least one FD of `fds`?
    pub fn violates_any(&self, fds: &FdSet) -> bool {
        fds.iter()
            .any(|(_, fd)| fd.violated_by_diff(AttrSet::EMPTY, self.difference_set))
    }
}

/// What an incremental conflict-graph patch did, in edges. `edges_relabeled`
/// counts edges whose row pair survived but whose difference set changed, or
/// (for an FD edit) whose violated-FD positions moved; any non-zero field
/// means FD-level search results computed against the old graph are stale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictGraphDeltaSummary {
    /// Edges that exist now but did not before.
    pub edges_added: usize,
    /// Edges that existed before but do not now.
    pub edges_removed: usize,
    /// Edges whose difference set or violated-FD positions changed in place.
    pub edges_relabeled: usize,
}

impl Telemetry for ConflictGraphDeltaSummary {
    #[rustfmt::skip]
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("edges_added", Slot::Count(&mut self.edges_added)),
            ("edges_removed", Slot::Count(&mut self.edges_removed)),
            ("edges_relabeled", Slot::Count(&mut self.edges_relabeled)),
        ]
    }
}

/// Blocking for one FD (Section 6): sorts `rows` (ascending) by their
/// codes on `lhs ++ [rhs]` ([`sort_rows_by_codes`]), so each LHS class is a
/// run and its RHS sub-classes are runs inside it. Returns every class with
/// at least two sub-classes as a block: its sub-classes ordered by first
/// row, blocks ordered by first row.
fn fd_blocks(instance: &Instance, fd: &Fd, mut rows: Vec<u32>) -> Vec<Vec<Vec<usize>>> {
    let lhs = fd.lhs.to_vec();
    let lhs_cols: Vec<&[Code]> = lhs.iter().map(|&a| instance.codes(a)).collect();
    let rhs = instance.codes(fd.rhs);
    let key: Vec<(&[Code], CodeSpace)> = lhs
        .iter()
        .chain([&fd.rhs])
        .map(|&a| instance.code_column(a))
        .collect();
    sort_rows_by_codes(&mut rows, &key);
    let mut blocks: Vec<Vec<Vec<usize>>> = code_runs(&rows, &lhs_cols)
        // Sorted by RHS within the class: one sub-class iff the ends agree.
        .filter(|class| rhs[class[0] as usize] != rhs[class[class.len() - 1] as usize])
        .map(|class| {
            let mut subs: Vec<Vec<usize>> = class
                .chunk_by(|&a, &b| rhs[a as usize] == rhs[b as usize])
                .map(|sub| sub.iter().map(|&r| r as usize).collect())
                .collect();
            subs.sort_unstable_by_key(|sub| sub[0]);
            subs
        })
        .collect();
    blocks.sort_unstable_by_key(|subs| subs[0][0]);
    blocks
}

/// The conflict partners of `dirty` (ascending) for one FD, read off the
/// code columns: the dirty rows are sorted by their LHS codes
/// ([`sort_rows_by_codes`]), every row of the instance probes them
/// ([`code_range`]) and pairs with each dirty row of its LHS class whose
/// RHS code differs. Nothing is hashed, and nothing is allocated but the
/// sorted dirty rows and the pairs; a pair of two dirty rows is pushed
/// from both ends.
fn fd_partner_pairs(instance: &Instance, fd: &Fd, dirty: &[u32], pairs: &mut Vec<(usize, usize)>) {
    let key: Vec<(&[Code], CodeSpace)> = fd.lhs.iter().map(|a| instance.code_column(a)).collect();
    let lhs_cols: Vec<&[Code]> = key.iter().map(|&(col, _)| col).collect();
    let rhs = instance.codes(fd.rhs);
    let mut sorted = dirty.to_vec();
    sort_rows_by_codes(&mut sorted, &key);
    for row in 0..instance.len() {
        for &d in code_range(&sorted, &lhs_cols, |i| lhs_cols[i][row]) {
            let d = d as usize;
            if rhs[d] != rhs[row] {
                pairs.push((row.min(d), row.max(d)));
            }
        }
    }
}

/// The conflict edges incident to `dirty_rows` (ascending) under the
/// instance's current tuples, sorted by row pair: one
/// [`fd_partner_pairs`] pass per FD. The difference sets are computed per
/// pair, so the edges equal those a [`ConflictGraph::build`] emits for
/// these pairs.
fn incident_edges(instance: &Instance, fds: &FdSet, dirty_rows: &[usize]) -> Vec<ConflictEdge> {
    let dirty: Vec<u32> = dirty_rows.iter().map(|&r| row_u32(r)).collect();
    let mut pairs = Vec::new();
    for (_, fd) in fds.iter() {
        fd_partner_pairs(instance, fd, &dirty, &mut pairs);
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .map(|pair| ConflictEdge::of(instance, pair))
        .collect()
}

/// Every pair of rows in different sub-classes of a block: each violates
/// the block's FD.
fn block_pairs(sub_classes: &[Vec<usize>]) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for i in 0..sub_classes.len() {
        for j in (i + 1)..sub_classes.len() {
            for &u in &sub_classes[i] {
                for &v in &sub_classes[j] {
                    pairs.push((u.min(v), u.max(v)));
                }
            }
        }
    }
    pairs
}

/// The conflict graph of an instance with respect to an FD set, enriched with
/// difference sets so questions about *relaxations* of that FD set can be
/// answered without touching the data again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictGraph {
    row_count: usize,
    edges: Vec<ConflictEdge>,
}

impl ConflictGraph {
    /// Builds the conflict graph of `instance` w.r.t. `fds`.
    ///
    /// Construction follows Section 6 of the paper: for every FD, partition
    /// tuples by their LHS projection, sub-partition each class by the RHS,
    /// and emit one edge for every pair of tuples in the same class
    /// but different sub-classes. Edges found for several FDs are merged
    /// into one; each keeps the difference set of its two tuples.
    pub fn build(instance: &Instance, fds: &FdSet) -> Self {
        Self::build_with(instance, fds, Parallelism::Serial)
    }

    /// [`ConflictGraph::build`] with an explicit [`Parallelism`] setting.
    ///
    /// The construction is split into three phases so the quadratic part can
    /// fan out over worker threads:
    ///
    /// 1. **blocking** (serial, linear): per FD, radix-sort the rows by
    ///    their `lhs ++ [rhs]` codes, so each LHS class is a run and its RHS
    ///    sub-classes are runs inside it — no hashing, no per-class
    ///    allocation; every class with ≥ 2 sub-classes becomes one *block*
    ///    of pending pair scans;
    /// 2. **pair scans** (parallel over blocks): each block emits its
    ///    cross-sub-class row pairs independently — blocks never share
    ///    mutable state;
    /// 3. **merge + difference sets** (deterministic): the pair lists are
    ///    concatenated, sorted and deduplicated, then the per-edge difference
    ///    sets are computed in parallel over the *sorted* edge list.
    ///
    /// Because the final edge list is sorted by row pair, the result is
    /// bit-identical for every `Parallelism` setting (covered by the
    /// workspace determinism tests).
    pub fn build_with(instance: &Instance, fds: &FdSet, par: Parallelism) -> Self {
        Self::build_over(instance, fds, (0..row_u32(instance.len())).collect(), par)
    }

    /// Builds the conflict graph restricted to `rows` — the per-shard half
    /// of sharded construction. Edges keep **global** row ids, and
    /// `row_count` is the full instance length, so shard graphs merge back
    /// into a whole-instance graph without renumbering.
    ///
    /// The construction is [`ConflictGraph::build_with`]'s, with blocking
    /// sorting `rows` instead of `0..len`. When `rows` is closed under LHS
    /// blocking (no row outside the shard shares an LHS class with a row
    /// inside — exactly what the shard partitioner guarantees), the
    /// emitted edges are bit-identical to the monolithic edges among those
    /// rows: the classes and sub-classes are the same. Blocking a `k`-row
    /// shard costs `O(k)` per FD whatever the columns' code spaces, so a
    /// plan of many small shards stays linear overall.
    pub fn build_for_rows(
        instance: &Instance,
        fds: &FdSet,
        rows: &[usize],
        par: Parallelism,
    ) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
        Self::build_over(
            instance,
            fds,
            rows.iter().map(|&r| row_u32(r)).collect(),
            par,
        )
    }

    /// The three phases of [`ConflictGraph::build_with`] over `rows`
    /// (ascending).
    fn build_over(instance: &Instance, fds: &FdSet, rows: Vec<u32>, par: Parallelism) -> Self {
        // Phase 1: blocking, entirely on dictionary codes. Grouping by codes
        // is `Value::matches`-faithful (equal codes ⟺ matching cells), so
        // the blocks — and hence the edges — are bit-identical to
        // value-level blocking.
        let blocks: Vec<Vec<Vec<usize>>> = fds
            .iter()
            .flat_map(|(_, fd)| fd_blocks(instance, fd, rows.clone()))
            .collect();

        // Phase 2: per-block pair scans, fanned out over worker threads.
        let per_block: Vec<Vec<(usize, usize)>> =
            par_map_indexed(par, blocks.len(), |b| block_pairs(&blocks[b]));

        // Phase 3: merge the pairs found for several FDs, then compute the
        // difference sets in parallel (walking both tuples dominates for
        // wide schemas).
        let mut pairs: Vec<(usize, usize)> = per_block.into_iter().flatten().collect();
        pairs.sort_unstable();
        pairs.dedup();
        let edges = par_map_indexed(par, pairs.len(), |i| ConflictEdge::of(instance, pairs[i]));
        ConflictGraph {
            row_count: instance.len(),
            edges,
        }
    }

    /// Merges per-shard graphs (built by [`ConflictGraph::build_for_rows`]
    /// over disjoint row sets) into one whole-instance graph.
    ///
    /// Each part's edge list is already sorted; the merge concatenates them
    /// and re-sorts by row pair, which is exactly the ordering the
    /// monolithic build emits — so for a blocking-closed shard partition the
    /// merged graph is bit-identical to [`ConflictGraph::build_with`] on the
    /// full instance. Duplicate row pairs across parts are rejected: shards
    /// own disjoint rows, so a shared edge means the partition was invalid.
    pub fn merge_shards(row_count: usize, parts: Vec<ConflictGraph>) -> Result<Self, String> {
        let mut edges: Vec<ConflictEdge> =
            Vec::with_capacity(parts.iter().map(|p| p.edges.len()).sum());
        for part in parts {
            if part.row_count != row_count {
                return Err(format!(
                    "shard graph covers {} rows, expected {row_count}",
                    part.row_count
                ));
            }
            edges.extend(part.edges);
        }
        edges.sort_unstable_by_key(|e| e.rows);
        for w in edges.windows(2) {
            if w[0].rows == w[1].rows {
                return Err(format!(
                    "conflict edge {:?} appears in two shards — the shard \
                     partition is not edge-closed",
                    w[0].rows
                ));
            }
        }
        Ok(ConflictGraph { row_count, edges })
    }

    /// Number of tuples of the underlying instance.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Number of conflict edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `true` when the instance satisfies the FD set (no conflicts).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edges.
    pub fn edges(&self) -> &[ConflictEdge] {
        &self.edges
    }

    /// Converts the full conflict graph into a plain undirected graph.
    pub fn to_graph(&self) -> UndirectedGraph {
        let mut g = UndirectedGraph::with_vertices(self.row_count);
        for e in &self.edges {
            g.add_edge(e.rows.0, e.rows.1);
        }
        g
    }

    /// The subgraph of edges that still violate a *relaxation* `Σ'` of the
    /// original FD set, computed purely from the stored difference sets.
    ///
    /// This is sound and complete for relaxations: every pair violating `Σ'`
    /// also violates `Σ` and is therefore among the stored edges. The graph
    /// is indexed by the rows its edges touch ([`CompactGraph`]), so its
    /// cost follows the conflicts, not the instance's row count.
    pub fn subgraph_for(&self, relaxed: &FdSet) -> CompactGraph {
        self.subgraph_for_with(relaxed, Parallelism::Serial)
    }

    /// [`ConflictGraph::subgraph_for`] with an explicit [`Parallelism`]
    /// setting: the per-edge violation tests fan out over worker threads and
    /// surviving edges are inserted in their original (sorted) order, so the
    /// result is identical for every setting.
    pub fn subgraph_for_with(&self, relaxed: &FdSet, par: Parallelism) -> CompactGraph {
        let keep = par_map_indexed(par, self.edges.len(), |i| {
            self.edges[i].violates_any(relaxed)
        });
        let kept: Vec<(usize, usize)> = self
            .edges
            .iter()
            .zip(keep)
            .filter(|(_, keep)| *keep)
            .map(|(e, _)| e.rows)
            .collect();
        CompactGraph::from_edges(&kept)
    }

    /// Applies an incremental delta after the tuples at `dirty_rows`
    /// (ascending) were inserted or overwritten in `instance`: drops every
    /// stored edge incident to them, splices in the edges incident to them
    /// under the current tuples and adopts the instance's row count.
    ///
    /// The partners are read off the code columns, one pass per FD of
    /// `fds`: the dirty rows sorted by their LHS codes
    /// ([`sort_rows_by_codes`]), each row of the instance probes them
    /// ([`code_range`]) and pairs with the dirty rows of its LHS class whose
    /// RHS code differs. No index is kept between calls.
    ///
    /// Edges between two untouched rows are untouched tuples on both ends,
    /// so they are carried over verbatim; the result is bit-identical to a
    /// from-scratch build against the mutated instance.
    pub fn apply_delta(
        &mut self,
        instance: &Instance,
        fds: &FdSet,
        dirty_rows: &[usize],
    ) -> ConflictGraphDeltaSummary {
        debug_assert!(dirty_rows.windows(2).all(|w| w[0] < w[1]));
        let recomputed = incident_edges(instance, fds, dirty_rows);
        let is_dirty = |r: usize| dirty_rows.binary_search(&r).is_ok();
        // `retain` visits the edges in order, so `old` stays sorted.
        let mut old: Vec<ConflictEdge> = Vec::new();
        self.edges.retain(|e| {
            let dirty = is_dirty(e.rows.0) || is_dirty(e.rows.1);
            if dirty {
                old.push(*e);
            }
            !dirty
        });
        let mut summary = ConflictGraphDeltaSummary::default();
        let mut kept = 0;
        for e in &recomputed {
            match old.binary_search_by_key(&e.rows, |o| o.rows) {
                Ok(i) => {
                    kept += 1;
                    if old[i].difference_set != e.difference_set {
                        summary.edges_relabeled += 1;
                    }
                }
                Err(_) => summary.edges_added += 1,
            }
        }
        summary.edges_removed = old.len() - kept;
        self.edges = Self::merge_sorted(std::mem::take(&mut self.edges), recomputed);
        self.row_count = instance.len();
        summary
    }

    /// Merges two edge lists already sorted by row pair — linear, instead
    /// of re-sorting the whole graph per patch.
    fn merge_sorted(kept: Vec<ConflictEdge>, fresh: Vec<ConflictEdge>) -> Vec<ConflictEdge> {
        debug_assert!(kept.windows(2).all(|w| w[0].rows < w[1].rows));
        debug_assert!(fresh.windows(2).all(|w| w[0].rows < w[1].rows));
        if fresh.is_empty() {
            return kept;
        }
        if kept.is_empty() {
            return fresh;
        }
        let mut merged = Vec::with_capacity(kept.len() + fresh.len());
        let mut a = kept.into_iter().peekable();
        let mut b = fresh.into_iter().peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            if x.rows <= y.rows {
                merged.push(a.next().expect("peeked"));
            } else {
                merged.push(b.next().expect("peeked"));
            }
        }
        merged.extend(a);
        merged.extend(b);
        merged
    }

    /// Removes `rows` (sorted, deduplicated) from the graph: every incident
    /// edge disappears and the surviving edges are renumbered downwards to
    /// match [`rt_relation::Instance::remove_rows`]' compaction. Returns the
    /// number of edges removed.
    ///
    /// The renumbering is monotonic, so the edge list stays sorted without a
    /// re-sort — the whole retraction is one linear pass over the edges.
    pub fn retract_tuples(&mut self, rows: &[usize]) -> usize {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
        let before = self.edges.len();
        self.edges.retain(|e| {
            rows.binary_search(&e.rows.0).is_err() && rows.binary_search(&e.rows.1).is_err()
        });
        for e in &mut self.edges {
            e.rows.0 -= rows.partition_point(|&d| d < e.rows.0);
            e.rows.1 -= rows.partition_point(|&d| d < e.rows.1);
        }
        self.row_count -= rows.len();
        before - self.edges.len()
    }

    /// Integrates a newly appended FD: one blocking pass over the data *for
    /// that FD only* (the build's blocking) finds its violating pairs, which
    /// either already are edges (counted as relabeled: the new FD's position
    /// joins the ones they violate) or become new ones.
    pub fn integrate_fd(&mut self, instance: &Instance, fd: &Fd) -> ConflictGraphDeltaSummary {
        let rows = (0..row_u32(instance.len())).collect();
        let mut pairs: Vec<(usize, usize)> = fd_blocks(instance, fd, rows)
            .iter()
            .flat_map(|block| block_pairs(block))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();

        let mut summary = ConflictGraphDeltaSummary::default();
        let mut fresh: Vec<ConflictEdge> = Vec::new();
        for pair in pairs {
            if self.edges.binary_search_by_key(&pair, |e| e.rows).is_ok() {
                summary.edges_relabeled += 1;
            } else {
                fresh.push(ConflictEdge::of(instance, pair));
                summary.edges_added += 1;
            }
        }
        // `pairs` was sorted, so `fresh` is too: splice by linear merge.
        self.edges = Self::merge_sorted(std::mem::take(&mut self.edges), fresh);
        summary
    }

    /// Withdraws the FD at `fd_idx` of `fds`, the FD set *before* the
    /// removal: edges that violate no other FD of `fds` are dropped. FD
    /// positions are what an edge's violations are named by, and every later
    /// FD shifts down by one, so a surviving edge counts as relabeled when the
    /// removed FD or a later one violated it.
    pub fn remove_fd(&mut self, fds: &FdSet, fd_idx: usize) -> ConflictGraphDeltaSummary {
        let mut summary = ConflictGraphDeltaSummary::default();
        self.edges.retain(|e| {
            let violated = |fd: &Fd| fd.violated_by_diff(AttrSet::EMPTY, e.difference_set);
            if !fds.iter().any(|(j, fd)| j != fd_idx && violated(fd)) {
                summary.edges_removed += 1;
                return false;
            }
            if fds.as_slice()[fd_idx..].iter().any(violated) {
                summary.edges_relabeled += 1;
            }
            true
        });
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use rt_relation::{AttrId, Schema};

    fn figure2() -> (Instance, FdSet) {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        (inst, fds)
    }

    #[test]
    fn figure2_conflict_graph_edges() {
        let (inst, fds) = figure2();
        let cg = ConflictGraph::build(&inst, &fds);
        // The paper reports edges (t1,t2), (t2,t3), (t3,t4) — rows 0-1, 1-2, 2-3.
        let rows: Vec<(usize, usize)> = cg.edges().iter().map(|e| e.rows).collect();
        assert_eq!(rows, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(cg.edge_count(), 3);
        assert!(!cg.is_empty());
        // Violated FDs: (t1,t2) both; (t2,t3) only C->D; (t3,t4) only A->B.
        let violated: Vec<Vec<usize>> = cg
            .edges()
            .iter()
            .map(|e| {
                fds.iter()
                    .filter(|(_, fd)| fd.violated_by_diff(AttrSet::EMPTY, e.difference_set))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        assert_eq!(violated, vec![vec![0, 1], vec![1], vec![0]]);
    }

    #[test]
    fn figure2_difference_sets() {
        let (inst, fds) = figure2();
        let cg = ConflictGraph::build(&inst, &fds);
        // Difference sets (paper, Section 5.2): BD, AD, BCD.
        let b = AttrId(1);
        let a = AttrId(0);
        let c = AttrId(2);
        let d = AttrId(3);
        assert_eq!(cg.edges()[0].difference_set, AttrSet::from_attrs([b, d]));
        assert_eq!(cg.edges()[1].difference_set, AttrSet::from_attrs([a, d]));
        assert_eq!(cg.edges()[2].difference_set, AttrSet::from_attrs([b, c, d]));
    }

    #[test]
    fn figure3_relaxations_match_paper_table() {
        // Figure 3 tabulates, for several Σ', the remaining conflict edges.
        let (inst, fds) = figure2();
        let cg = ConflictGraph::build(&inst, &fds);
        let schema = inst.schema().clone();

        let case = |specs: &[&str], expected_edges: &[(usize, usize)]| {
            let relaxed = FdSet::parse(specs, &schema).unwrap();
            let g = cg.subgraph_for(&relaxed);
            let got: Vec<(usize, usize)> = g.edges().collect();
            assert_eq!(got, expected_edges.to_vec(), "Σ' = {specs:?}");
        };

        // Original: all three edges.
        case(&["A->B", "C->D"], &[(0, 1), (1, 2), (2, 3)]);
        // CA->B, C->D: edges (t1,t2), (t2,t3).
        case(&["C,A->B", "C->D"], &[(0, 1), (1, 2)]);
        // DA->B, C->D: edges (t1,t2), (t2,t3).
        case(&["D,A->B", "C->D"], &[(0, 1), (1, 2)]);
        // A->B, AC->D: edges (t1,t2), (t3,t4).
        case(&["A->B", "A,C->D"], &[(0, 1), (2, 3)]);
        // A->B, BC->D: all three edges.
        case(&["A->B", "B,C->D"], &[(0, 1), (1, 2), (2, 3)]);
        // CA->B, AC->D: only (t1,t2).
        case(&["C,A->B", "A,C->D"], &[(0, 1)]);
    }

    #[test]
    fn subgraph_counts_and_satisfaction() {
        let (inst, fds) = figure2();
        let cg = ConflictGraph::build(&inst, &fds);
        let schema = inst.schema().clone();
        // Fully relaxed FDs: append every legal attribute to both LHSs.
        let relaxed = FdSet::parse(&["A,C,D->B", "A,B,C->D"], &schema).unwrap();
        assert!(cg.subgraph_for(&relaxed).is_empty());
        // Sanity: relaxed set really holds on the data.
        assert!(relaxed.holds_on(&inst));
        // And the full subgraph equals to_graph for the original FDs.
        assert_eq!(
            cg.subgraph_for(&fds).edge_count(),
            cg.to_graph().edge_count()
        );
    }

    #[test]
    fn empty_when_data_is_clean() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst =
            Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![2, 1], vec![3, 2]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let cg = ConflictGraph::build(&inst, &fds);
        assert!(cg.is_empty());
    }

    #[test]
    fn difference_set_violation_logic() {
        let d = ConflictEdge {
            rows: (0, 1),
            difference_set: AttrSet::from_attrs([AttrId(1), AttrId(3)]),
        };
        let diff = d.difference_set;
        let none = AttrSet::EMPTY;
        // FD A0 -> A1: lhs disjoint from diff, rhs in diff → violated.
        assert!(Fd::from_indices(&[0], 1).violated_by_diff(none, diff));
        // FD A1 -> A3: lhs inside diff → tuples do not even agree on lhs.
        assert!(!Fd::from_indices(&[1], 3).violated_by_diff(none, diff));
        // FD A0 -> A2: rhs not in diff → tuples agree on rhs.
        assert!(!Fd::from_indices(&[0], 2).violated_by_diff(none, diff));
        let schema = Schema::with_arity(4).unwrap();
        let fds = FdSet::parse(&["A0->A1"], &schema).unwrap();
        assert!(d.violates_any(&fds));
    }

    #[test]
    fn duplicate_rhs_classes_emit_cross_product_edges() {
        // Three tuples share the LHS value; RHS values are x, x, y → the two
        // x-tuples each conflict with the y-tuple but not with each other.
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst =
            Instance::from_int_rows(schema.clone(), &[vec![1, 10], vec![1, 10], vec![1, 20]])
                .unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let cg = ConflictGraph::build(&inst, &fds);
        let rows: Vec<(usize, usize)> = cg.edges().iter().map(|e| e.rows).collect();
        assert_eq!(rows, vec![(0, 2), (1, 2)]);
    }

    /// The edges of `graph` touching a row of `rows`.
    fn touching(graph: &ConflictGraph, rows: &[usize]) -> Vec<ConflictEdge> {
        graph
            .edges()
            .iter()
            .filter(|e| rows.contains(&e.rows.0) || rows.contains(&e.rows.1))
            .copied()
            .collect()
    }

    #[test]
    fn incident_edges_match_batch_build() {
        let (inst, fds) = figure2();
        let batch = ConflictGraph::build(&inst, &fds);
        // Every row dirty: the batch edges, each pair once.
        let all: Vec<usize> = (0..inst.len()).collect();
        assert_eq!(incident_edges(&inst, &fds, &all), batch.edges());
        // One dirty row: exactly the batch edges touching it.
        assert_eq!(incident_edges(&inst, &fds, &[3]), touching(&batch, &[3]));
        assert_eq!(
            incident_edges(&inst, &fds, &[1, 3]),
            touching(&batch, &[1, 3])
        );

        // A dirty row alone in its LHS class for every FD has no partner.
        let schema = inst.schema().clone();
        let rows = [vec![1, 1, 1, 1], vec![1, 2, 1, 3], vec![7, 2, 8, 1]];
        let lonely = Instance::from_int_rows(schema, &rows).unwrap();
        assert!(incident_edges(&lonely, &fds, &[2]).is_empty());
        assert_eq!(incident_edges(&lonely, &fds, &[0]).len(), 1);
    }

    #[test]
    fn incident_edges_past_the_radix_threshold_match_the_batch_build() {
        // 1,500 rows in 37 A-classes and 11 C-classes; more than 512 dirty
        // rows, so `sort_rows_by_codes` takes its radix path.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let rows: Vec<Vec<i64>> = (0..1500)
            .map(|i| vec![i % 37, i % 5, i % 11, (i / 11) % 3])
            .collect();
        let inst = Instance::from_int_rows(schema.clone(), &rows).unwrap();
        let fds = FdSet::parse(&["A->B", "C->D", "A,C->B"], &schema).unwrap();
        let batch = ConflictGraph::build(&inst, &fds);
        let dirty: Vec<usize> = (0..inst.len()).filter(|r| r % 3 != 1).collect();
        assert!(dirty.len() > 512);
        assert_eq!(
            incident_edges(&inst, &fds, &dirty),
            touching(&batch, &dirty)
        );
        let all: Vec<usize> = (0..inst.len()).collect();
        assert_eq!(incident_edges(&inst, &fds, &all), batch.edges());
    }

    #[test]
    fn apply_delta_tracks_a_cell_update() {
        use rt_relation::{CellRef, Value};
        let (mut inst, fds) = figure2();
        let mut cg = ConflictGraph::build(&inst, &fds);
        // Set t4[A] = 1: breaks the (t3,t4) conflict on A->B and creates a
        // fresh (t1,t4)/(t2,t4) situation on A->B.
        inst.set_cell(CellRef::new(3, AttrId(0)), Value::int(1))
            .unwrap();
        let summary = cg.apply_delta(&inst, &fds, &[3]);
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        assert!(summary.edges_added > 0 || summary.edges_removed > 0);
    }

    #[test]
    fn retract_tuples_drops_and_renumbers() {
        let (mut inst, fds) = figure2();
        let mut cg = ConflictGraph::build(&inst, &fds);
        // Remove rows 0 and 2: edges (0,1), (1,2), (2,3) all die; rows 1, 3
        // become rows 0, 1.
        let removed = cg.retract_tuples(&[0, 2]);
        assert_eq!(removed, 3);
        inst.remove_rows(&[0, 2]).unwrap();
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        assert_eq!(cg.row_count(), 2);
    }

    #[test]
    fn integrate_and_remove_fd_match_batch_builds() {
        let (inst, mut fds) = figure2();
        let schema = inst.schema().clone();
        let mut cg = ConflictGraph::build(&inst, &fds);
        // Add B->C: t2=(.,2,1,.) vs t3=(.,2,1,.) agree on C, but t2/t3 vs
        // others create fresh pairs.
        let fd = Fd::parse("B->C", &schema).unwrap();
        fds.push(fd);
        cg.integrate_fd(&inst, &fd);
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        // Remove the first FD: (t1,t2) still violates C->D, which shifts
        // down a position; (t3,t4) violated only A->B and disappears.
        let summary = cg.remove_fd(&fds, 0);
        fds.remove(0);
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        assert_eq!(summary.edges_removed, 1);
        assert_eq!(summary.edges_relabeled, cg.edge_count());
    }

    #[test]
    fn shard_builds_merge_into_the_monolithic_graph() {
        // Two blocking-closed shards: rows {0,1,2,3} (Figure 2's chain) and
        // rows {4,5} (a detached conflict on fresh values).
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
                vec![9, 1, 8, 1],
                vec![9, 2, 8, 1],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        let monolithic = ConflictGraph::build(&inst, &fds);
        let part_a = ConflictGraph::build_for_rows(&inst, &fds, &[0, 1, 2, 3], Parallelism::Serial);
        let part_b = ConflictGraph::build_for_rows(&inst, &fds, &[4, 5], Parallelism::Serial);
        // Global row ids in every part.
        assert!(part_b.edges().iter().all(|e| e.rows.0 >= 4));
        let merged = ConflictGraph::merge_shards(inst.len(), vec![part_a, part_b]).unwrap();
        assert_eq!(merged, monolithic);
        // Parallel shard builds are bit-identical too.
        let par_a =
            ConflictGraph::build_for_rows(&inst, &fds, &[0, 1, 2, 3], Parallelism::Fixed(4));
        let par_b = ConflictGraph::build_for_rows(&inst, &fds, &[4, 5], Parallelism::Fixed(4));
        assert_eq!(
            ConflictGraph::merge_shards(inst.len(), vec![par_a, par_b]).unwrap(),
            monolithic
        );
    }

    #[test]
    fn merge_shards_rejects_bad_parts() {
        let (inst, fds) = figure2();
        let whole = ConflictGraph::build(&inst, &fds);
        // Duplicate edges (same part twice) are an invalid partition.
        assert!(
            ConflictGraph::merge_shards(inst.len(), vec![whole.clone(), whole.clone()]).is_err()
        );
        // Row-count mismatch is rejected.
        assert!(ConflictGraph::merge_shards(inst.len() + 1, vec![whole]).is_err());
    }

    #[test]
    fn edge_violates_uses_extended_lhs() {
        let (inst, fds) = figure2();
        let cg = ConflictGraph::build(&inst, &fds);
        let diff = cg.edges()[2].difference_set; // (t3,t4), diff = BCD
        let fd = fds.get(0); // A -> B
        assert!(fd.violated_by_diff(AttrSet::EMPTY, diff));
        // Extending the LHS with C (inside the difference set) resolves it.
        assert!(!fd.violated_by_diff(AttrSet::singleton(AttrId(2)), diff));
        // The RHS never joins the LHS (`Fd::extend_lhs`), so an extension
        // naming B leaves the violation standing.
        assert!(fd.violated_by_diff(AttrSet::singleton(AttrId(1)), diff));
    }
}
