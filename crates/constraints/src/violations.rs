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

use crate::attrset::AttrSet;
use crate::fd::{Fd, FdSet};
use rt_graph::{CompactGraph, UndirectedGraph};
use rt_par::{par_map_indexed, Parallelism};
use rt_relation::work::{Slot, Telemetry};
use rt_relation::{code_runs, row_u32, sort_rows_by_codes, Code, CodeSpace, Instance};
use std::collections::HashMap;

/// One conflict-graph edge: a pair of tuples violating at least one FD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictEdge {
    /// Row indices of the two conflicting tuples (`rows.0 < rows.1`).
    pub rows: (usize, usize),
    /// Indices (into the original FD set) of the FDs violated by this pair.
    pub violated_fds: Vec<usize>,
    /// Attributes on which the two tuples differ.
    pub difference_set: AttrSet,
}

impl ConflictEdge {
    /// Does this edge violate the FD `lhs → rhs`?
    ///
    /// True iff the tuples agree on the (possibly extended) LHS and differ on
    /// the RHS, which in difference-set terms is `lhs ∩ diff = ∅ ∧ rhs ∈ diff`.
    pub fn violates(&self, lhs: AttrSet, rhs: rt_relation::AttrId) -> bool {
        lhs.is_disjoint_from(self.difference_set) && self.difference_set.contains(rhs)
    }

    /// Does this edge violate at least one FD of `fds`?
    pub fn violates_any(&self, fds: &FdSet) -> bool {
        fds.iter().any(|(_, fd)| self.violates(fd.lhs, fd.rhs))
    }
}

/// A difference set together with the number of conflict edges carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DifferenceSet {
    /// Attributes on which the tuples of these edges differ.
    pub attrs: AttrSet,
    /// Number of conflict edges with exactly this difference set.
    pub edge_count: usize,
}

impl DifferenceSet {
    /// Does an edge with this difference set violate the FD `lhs → rhs`?
    pub fn violates(&self, lhs: AttrSet, rhs: rt_relation::AttrId) -> bool {
        lhs.is_disjoint_from(self.attrs) && self.attrs.contains(rhs)
    }

    /// Does it violate at least one FD of `fds`?
    pub fn violates_any(&self, fds: &FdSet) -> bool {
        fds.iter().any(|(_, fd)| self.violates(fd.lhs, fd.rhs))
    }
}

/// All distinct difference sets of a conflict graph, sorted by decreasing
/// edge count (the A* heuristic prefers "heavy" difference sets first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DifferenceSetIndex {
    sets: Vec<DifferenceSet>,
}

impl DifferenceSetIndex {
    /// Number of distinct difference sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when there are no difference sets (no conflicts).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Iterate over the difference sets (decreasing edge count).
    pub fn iter(&self) -> impl Iterator<Item = &DifferenceSet> {
        self.sets.iter()
    }

    /// The difference sets as a slice.
    pub fn as_slice(&self) -> &[DifferenceSet] {
        &self.sets
    }

    /// Difference sets still violated by the given (relaxed) FD set.
    pub fn violated_by(&self, fds: &FdSet) -> Vec<DifferenceSet> {
        self.sets
            .iter()
            .filter(|d| d.violates_any(fds))
            .copied()
            .collect()
    }
}

/// What an incremental conflict-graph patch did, in edges. `edges_relabeled`
/// counts edges whose row pair survived but whose violated-FD labels or
/// difference set changed; any non-zero field means FD-level search results
/// computed against the old graph are stale.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictGraphDeltaSummary {
    /// Edges that exist now but did not before.
    pub edges_added: usize,
    /// Edges that existed before but do not now.
    pub edges_removed: usize,
    /// Edges whose labels or difference set changed in place.
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

/// Builds a fully labelled conflict edge for a row pair from the code
/// columns alone: the difference set is read off the per-attribute codes,
/// and the violated FDs follow from it (`X → A` is violated by the pair iff
/// the pair agrees on `X` and differs on `A`, i.e. `X ∩ diff = ∅ ∧ A ∈
/// diff` — the same predicate [`ConflictEdge::violates`] uses, and exactly
/// equivalent to the value-level [`FdSet::violated_by`]).
pub(crate) fn labelled_edge(
    instance: &Instance,
    fds: &FdSet,
    pair: (usize, usize),
) -> ConflictEdge {
    let diff = AttrSet::from_attrs(instance.differing_attrs_coded(pair.0, pair.1));
    let violated_fds = fds
        .iter()
        .filter(|(_, fd)| fd.lhs.is_disjoint_from(diff) && diff.contains(fd.rhs))
        .map(|(i, _)| i)
        .collect();
    ConflictEdge {
        rows: pair,
        violated_fds,
        difference_set: diff,
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
    /// but different sub-classes. Edges found for several FDs are merged and
    /// labelled with every violated FD.
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
    /// 3. **merge + labelling** (deterministic): pair lists are merged into
    ///    one edge map in block order, then the per-edge difference sets are
    ///    computed in parallel over the *sorted* edge list.
    ///
    /// Because the final edge list is sorted by row pair and FD labels are
    /// sorted and deduplicated, the result is bit-identical for every
    /// `Parallelism` setting (covered by the workspace determinism tests).
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
        let blocks: Vec<(usize, Vec<Vec<usize>>)> = fds
            .iter()
            .flat_map(|(fd_idx, fd)| {
                fd_blocks(instance, fd, rows.clone())
                    .into_iter()
                    .map(move |b| (fd_idx, b))
            })
            .collect();

        // Phase 2: per-block pair scans, fanned out over worker threads.
        let per_block: Vec<Vec<(usize, usize)>> =
            par_map_indexed(par, blocks.len(), |b| block_pairs(&blocks[b].1));

        // Phase 3a: deterministic merge, in block order.
        let mut edge_map: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for ((fd_idx, _), pairs) in blocks.iter().zip(per_block) {
            for pair in pairs {
                edge_map.entry(pair).or_default().push(*fd_idx);
            }
        }

        // Phase 3b: sort the edge keys, then label edges in parallel (the
        // difference-set computation walks both tuples, which dominates for
        // wide schemas).
        let mut keyed: Vec<((usize, usize), Vec<usize>)> = edge_map.into_iter().collect();
        keyed.sort_unstable_by_key(|(rows, _)| *rows);
        let edges: Vec<ConflictEdge> = par_map_indexed(par, keyed.len(), |i| {
            let ((u, v), violated) = &keyed[i];
            let mut violated = violated.clone();
            violated.sort_unstable();
            violated.dedup();
            let diff = AttrSet::from_attrs(instance.differing_attrs_coded(*u, *v));
            ConflictEdge {
                rows: (*u, *v),
                violated_fds: violated,
                difference_set: diff,
            }
        });
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
        Self::from_parts(row_count, edges)
    }

    /// Reassembles a conflict graph from previously exported parts — the
    /// snapshot/restore path. The edge list must be sorted by row pair with
    /// every row inside `0..row_count`; out-of-range or out-of-order input
    /// is rejected so a corrupt snapshot cannot smuggle in a graph that
    /// breaks the determinism invariants downstream.
    pub fn from_parts(row_count: usize, edges: Vec<ConflictEdge>) -> Result<Self, String> {
        for w in edges.windows(2) {
            if w[0].rows >= w[1].rows {
                return Err(format!(
                    "conflict edges out of order: {:?} is not before {:?}",
                    w[0].rows, w[1].rows
                ));
            }
        }
        for e in &edges {
            if e.rows.0 >= e.rows.1 || e.rows.1 >= row_count {
                return Err(format!(
                    "conflict edge {:?} out of range for {row_count} rows",
                    e.rows
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

    /// Number of edges that still violate a relaxation `Σ'`.
    pub fn violation_count_for(&self, relaxed: &FdSet) -> usize {
        self.edges
            .iter()
            .filter(|e| e.violates_any(relaxed))
            .count()
    }

    /// Groups edges by difference set, sorted by decreasing edge count.
    pub fn difference_sets(&self) -> DifferenceSetIndex {
        let mut counts: HashMap<AttrSet, usize> = HashMap::new();
        for e in &self.edges {
            *counts.entry(e.difference_set).or_insert(0) += 1;
        }
        let mut sets: Vec<DifferenceSet> = counts
            .into_iter()
            .map(|(attrs, edge_count)| DifferenceSet { attrs, edge_count })
            .collect();
        sets.sort_by(|a, b| b.edge_count.cmp(&a.edge_count).then(a.attrs.cmp(&b.attrs)));
        DifferenceSetIndex { sets }
    }

    /// Applies an incremental delta: drops every stored edge incident to
    /// `dirty_rows`, splices in `recomputed` (the edges incident to those
    /// rows under the instance's *current* tuples, as produced by
    /// [`crate::incremental::incident_conflict_edges`]) and adopts
    /// `new_row_count`.
    ///
    /// Edges between two untouched rows are untouched tuples on both ends,
    /// so they are carried over verbatim; the result is bit-identical to a
    /// from-scratch build against the mutated instance. `dirty_rows` must be
    /// sorted; `recomputed` must be sorted by row pair (both hold for the
    /// producer above).
    pub fn apply_delta(
        &mut self,
        dirty_rows: &[usize],
        recomputed: Vec<ConflictEdge>,
        new_row_count: usize,
    ) -> ConflictGraphDeltaSummary {
        debug_assert!(dirty_rows.windows(2).all(|w| w[0] < w[1]));
        let is_dirty = |r: usize| dirty_rows.binary_search(&r).is_ok();
        let mut old_incident: HashMap<(usize, usize), (Vec<usize>, AttrSet)> = HashMap::new();
        self.edges.retain(|e| {
            if is_dirty(e.rows.0) || is_dirty(e.rows.1) {
                old_incident.insert(e.rows, (e.violated_fds.clone(), e.difference_set));
                false
            } else {
                true
            }
        });
        let mut summary = ConflictGraphDeltaSummary::default();
        for e in &recomputed {
            match old_incident.remove(&e.rows) {
                Some((labels, diff)) => {
                    if labels != e.violated_fds || diff != e.difference_set {
                        summary.edges_relabeled += 1;
                    }
                }
                None => summary.edges_added += 1,
            }
        }
        summary.edges_removed = old_incident.len();
        self.edges = Self::merge_sorted(std::mem::take(&mut self.edges), recomputed);
        self.row_count = new_row_count;
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
    /// re-sort — the whole retraction is one linear pass over the edges,
    /// touching only the components the removed tuples participated in.
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

    /// Integrates a newly appended FD (`fds.get(fd_idx)`, with `fd_idx`
    /// pointing past the FDs the graph was built for): one blocking pass
    /// over the data *for that FD only* (the build's blocking) finds its
    /// violating pairs, which
    /// either label existing edges or become new ones.
    pub fn integrate_fd(
        &mut self,
        instance: &Instance,
        fds: &FdSet,
        fd_idx: usize,
    ) -> ConflictGraphDeltaSummary {
        let rows = (0..row_u32(instance.len())).collect();
        let mut pairs: Vec<(usize, usize)> = fd_blocks(instance, fds.get(fd_idx), rows)
            .iter()
            .flat_map(|block| block_pairs(block))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();

        let mut summary = ConflictGraphDeltaSummary::default();
        let mut fresh: Vec<ConflictEdge> = Vec::new();
        for pair in pairs {
            match self.edges.binary_search_by_key(&pair, |e| e.rows) {
                Ok(i) => {
                    let edge = &mut self.edges[i];
                    if let Err(pos) = edge.violated_fds.binary_search(&fd_idx) {
                        edge.violated_fds.insert(pos, fd_idx);
                        summary.edges_relabeled += 1;
                    }
                }
                Err(_) => {
                    fresh.push(labelled_edge(instance, fds, pair));
                    summary.edges_added += 1;
                }
            }
        }
        // `pairs` was sorted, so `fresh` is too: splice by linear merge.
        self.edges = Self::merge_sorted(std::mem::take(&mut self.edges), fresh);
        summary
    }

    /// Withdraws the FD at `fd_idx` from the edge labels: the label
    /// disappears, later FD indices shift down by one (matching the
    /// [`FdSet`]'s positional renumbering after a removal), and edges left
    /// with no violated FD are dropped.
    pub fn remove_fd_labels(&mut self, fd_idx: usize) -> ConflictGraphDeltaSummary {
        let mut summary = ConflictGraphDeltaSummary::default();
        self.edges.retain_mut(|e| {
            let had = e.violated_fds.binary_search(&fd_idx).is_ok();
            let shifted = e.violated_fds.last().is_some_and(|&f| f > fd_idx);
            e.violated_fds.retain(|&f| f != fd_idx);
            for f in &mut e.violated_fds {
                if *f > fd_idx {
                    *f -= 1;
                }
            }
            if e.violated_fds.is_empty() {
                summary.edges_removed += 1;
                false
            } else {
                if had || shifted {
                    summary.edges_relabeled += 1;
                }
                true
            }
        });
        summary
    }

    /// Rows that participate in at least one conflict.
    pub fn conflicting_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self
            .edges
            .iter()
            .flat_map(|e| [e.rows.0, e.rows.1])
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
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
        assert_eq!(cg.conflicting_rows(), vec![0, 1, 2, 3]);
        // Edge labels: (t1,t2) violates both FDs; (t2,t3) only C->D; (t3,t4) only A->B.
        assert_eq!(cg.edges()[0].violated_fds, vec![0, 1]);
        assert_eq!(cg.edges()[1].violated_fds, vec![1]);
        assert_eq!(cg.edges()[2].violated_fds, vec![0]);
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
        let index = cg.difference_sets();
        assert_eq!(index.len(), 3);
        assert!(index.iter().all(|ds| ds.edge_count == 1));
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
        assert_eq!(cg.violation_count_for(&relaxed), 0);
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
        assert!(cg.difference_sets().is_empty());
        assert_eq!(cg.conflicting_rows(), Vec::<usize>::new());
    }

    #[test]
    fn difference_set_violation_logic() {
        let d = DifferenceSet {
            attrs: AttrSet::from_attrs([AttrId(1), AttrId(3)]),
            edge_count: 5,
        };
        // FD A0 -> A1: lhs disjoint from diff, rhs in diff → violated.
        assert!(d.violates(AttrSet::singleton(AttrId(0)), AttrId(1)));
        // FD A1 -> A3: lhs inside diff → tuples do not even agree on lhs.
        assert!(!d.violates(AttrSet::singleton(AttrId(1)), AttrId(3)));
        // FD A0 -> A2: rhs not in diff → tuples agree on rhs.
        assert!(!d.violates(AttrSet::singleton(AttrId(0)), AttrId(2)));
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

    #[test]
    fn apply_delta_tracks_a_cell_update() {
        use crate::incremental::{incident_conflict_edges, FdPartitionIndex};
        use rt_relation::{CellRef, Value};
        let (mut inst, fds) = figure2();
        let mut cg = ConflictGraph::build(&inst, &fds);
        let mut index = FdPartitionIndex::build(&inst, &fds);
        // Set t4[A] = 1: breaks the (t3,t4) conflict on A->B and creates a
        // fresh (t1,t4)/(t2,t4) situation on A->B.
        index.remove_row(&inst, &fds, 3);
        inst.set_cell(CellRef::new(3, AttrId(0)), Value::int(1))
            .unwrap();
        index.insert_row(&inst, &fds, 3);
        let recomputed = incident_conflict_edges(&inst, &fds, &index, &[3]);
        let summary = cg.apply_delta(&[3], recomputed, inst.len());
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
        // others create fresh labelled pairs.
        fds.push(Fd::parse("B->C", &schema).unwrap());
        let summary = cg.integrate_fd(&inst, &fds, 2);
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        let _ = summary;
        // Remove the first FD; labels shift down and edges violating only
        // A->B disappear.
        fds.remove(0);
        let summary = cg.remove_fd_labels(0);
        assert_eq!(cg, ConflictGraph::build(&inst, &fds));
        assert!(summary.edges_removed > 0 || summary.edges_relabeled > 0);
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
        let edge = &cg.edges()[2]; // (t3,t4), diff = BCD
        let fd = fds.get(0); // A -> B
        assert!(edge.violates(fd.lhs, fd.rhs));
        // Extending the LHS with C (inside the difference set) resolves it.
        let extended = Fd::new(fd.lhs.with(AttrId(2)), fd.rhs);
        assert!(!edge.violates(extended.lhs, extended.rhs));
    }
}
