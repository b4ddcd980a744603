//! The repair problem context shared by every algorithm.
//!
//! Building the conflict graph of `(I, Σ)` and indexing its edges by
//! difference set is the expensive, data-dependent part of the whole
//! pipeline. [`RepairProblem`] does it once; afterwards every question the
//! search asks about a *relaxation* `Σ'` of `Σ` ("which edges still violate
//! it?", "how large is its 2-approximate vertex cover?", "what is
//! `δ_P(Σ', I)`?") is answered with bitset filtering only — no further passes
//! over the data.

use crate::state::RepairState;
use rt_constraints::{
    AttrCountWeight, AttrSet, ConflictGraph, DistinctCountWeight, EntropyWeight, FdSet, Weight,
};
use rt_graph::{CompactGraph, VertexCover};
use rt_par::Parallelism;
use rt_relation::Instance;
use std::sync::Arc;

/// Which weighting function `w(Y)` prices LHS extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// `w(Y) = |Y|`.
    AttrCount,
    /// `w(Y) = |Π_Y(I)|` — the paper's experimental choice.
    DistinctCount,
    /// `w(Y) = Σ_{A∈Y} H(A)`.
    Entropy,
}

/// Edges of the conflict graph grouped by difference set, heaviest group
/// first. The A* heuristic consumes difference sets in this order.
#[derive(Debug, Clone)]
pub struct DiffSetGroup {
    /// The difference set shared by these edges.
    pub attrs: AttrSet,
    /// The conflict-graph edges (row pairs) carrying it.
    pub edges: Vec<(usize, usize)>,
}

/// A fully prepared instance of the joint repair problem.
///
/// Besides the batch construction used here, a prepared problem can also be
/// *mutated in place* — see [`RepairProblem::apply_mutations`] in
/// [`crate::mutation`] — which maintains the conflict graph, difference-set
/// index and weighting incrementally instead of rebuilding them.
pub struct RepairProblem {
    pub(crate) instance: Instance,
    pub(crate) sigma: FdSet,
    pub(crate) conflict: ConflictGraph,
    pub(crate) diff_groups: Vec<DiffSetGroup>,
    pub(crate) weight: Arc<dyn Weight>,
    pub(crate) alpha: usize,
    /// Which built-in weighting the weight was constructed from — what lets
    /// a mutation rebuild it against the mutated instance.
    pub(crate) weight_kind: WeightKind,
    /// Per-FD LHS equivalence partitions, built lazily on the first
    /// mutation and delta-maintained afterwards.
    pub(crate) incremental: Option<rt_constraints::FdPartitionIndex>,
}

impl RepairProblem {
    /// Prepares a repair problem with the paper's default weighting
    /// (`DistinctCount`).
    pub fn new(instance: &Instance, sigma: &FdSet) -> Self {
        Self::with_weight(instance, sigma, WeightKind::DistinctCount)
    }

    /// Prepares a repair problem with an explicit weighting function.
    pub fn with_weight(instance: &Instance, sigma: &FdSet, weight: WeightKind) -> Self {
        Self::with_weight_par(instance, sigma, weight, Parallelism::Serial)
    }

    /// [`RepairProblem::with_weight`] with an explicit [`Parallelism`]
    /// setting: the conflict-graph construction — the expensive,
    /// data-dependent part of problem setup — fans out over worker threads.
    pub fn with_weight_par(
        instance: &Instance,
        sigma: &FdSet,
        weight: WeightKind,
        par: Parallelism,
    ) -> Self {
        Self::with_weight_owned(instance.clone(), sigma, weight, par)
    }

    pub(crate) fn build_weight(instance: &Instance, weight: WeightKind) -> Arc<dyn Weight> {
        match weight {
            WeightKind::AttrCount => Arc::new(AttrCountWeight),
            WeightKind::DistinctCount => Arc::new(DistinctCountWeight::new(instance)),
            WeightKind::Entropy => Arc::new(EntropyWeight::new(instance)),
        }
    }

    /// The owned-instance form of [`RepairProblem::with_weight_par`]: the
    /// instance is **moved** into the problem instead of deep-copied.
    ///
    /// This is the scale-safe construction path — at a million rows the
    /// borrow-and-clone constructors briefly hold two full tuple sets, the
    /// caller's and the problem's; builders that own their instance (the
    /// engine builder, the sharded path) should hand it over instead.
    pub fn with_weight_owned(
        instance: Instance,
        sigma: &FdSet,
        weight: WeightKind,
        par: Parallelism,
    ) -> Self {
        let weight_fn = Self::build_weight(&instance, weight);
        let conflict = ConflictGraph::build_with(&instance, sigma, par);
        let diff_groups = Self::group_by_difference_set(&conflict);
        let alpha = Self::compute_alpha(instance.schema().arity(), sigma.len());
        RepairProblem {
            instance,
            sigma: sigma.clone(),
            conflict,
            diff_groups,
            weight: weight_fn,
            alpha,
            weight_kind: weight,
            incremental: None,
        }
    }

    /// Sharded construction: builds the conflict graph **per shard** of
    /// `plan` ([`ConflictGraph::build_for_rows`], fanned out over shards via
    /// `rt-par`) and merges the shard graphs deterministically
    /// ([`ConflictGraph::merge_shards`], shards ordered by smallest row)
    /// into a problem bit-identical to the monolithic build — same edges,
    /// same difference-set groups, same weighting — without ever running a
    /// whole-instance blocking pass. The instance is moved, not cloned.
    ///
    /// The caller (the engine builder) records one conflict-graph build per
    /// shard; the workspace's shard-equivalence suite asserts that count and
    /// the bit-identity of everything downstream.
    ///
    /// # Errors
    ///
    /// Fails when `plan` does not partition `instance`'s rows into
    /// blocking-closed shards (wrong row count, or a conflict edge crossing
    /// shards).
    pub fn from_sharded(
        instance: Instance,
        sigma: &FdSet,
        plan: &crate::shard::ShardPlan,
        weight: WeightKind,
        par: Parallelism,
    ) -> Result<Self, String> {
        if plan.row_count() != instance.len() {
            return Err(format!(
                "shard plan covers {} rows but the instance has {}",
                plan.row_count(),
                instance.len()
            ));
        }
        // One graph build per shard. Coarse fan-out: shards are whole units
        // of work, and the inner build stays serial so worker threads never
        // nest.
        let shard_graphs = rt_par::par_map_coarse(par, plan.shard_count(), |s| {
            ConflictGraph::build_for_rows(&instance, sigma, &plan.shards()[s], Parallelism::Serial)
        });
        let conflict = ConflictGraph::merge_shards(instance.len(), shard_graphs)?;
        let diff_groups = Self::group_by_difference_set(&conflict);
        let alpha = Self::compute_alpha(instance.schema().arity(), sigma.len());
        let weight_fn = Self::build_weight(&instance, weight);
        Ok(RepairProblem {
            instance,
            sigma: sigma.clone(),
            conflict,
            diff_groups,
            weight: weight_fn,
            alpha,
            weight_kind: weight,
            incremental: None,
        })
    }

    pub(crate) fn compute_alpha(arity: usize, fd_count: usize) -> usize {
        (arity.saturating_sub(1)).min(fd_count).max(1)
    }

    pub(crate) fn group_by_difference_set(conflict: &ConflictGraph) -> Vec<DiffSetGroup> {
        use std::collections::HashMap;
        let mut groups: HashMap<AttrSet, Vec<(usize, usize)>> = HashMap::new();
        for e in conflict.edges() {
            groups.entry(e.difference_set).or_default().push(e.rows);
        }
        let mut out: Vec<DiffSetGroup> = groups
            .into_iter()
            .map(|(attrs, edges)| DiffSetGroup { attrs, edges })
            .collect();
        out.sort_by(|a, b| {
            b.edges
                .len()
                .cmp(&a.edges.len())
                .then(a.attrs.cmp(&b.attrs))
        });
        out
    }

    /// Reassembles a prepared problem from restored parts — the
    /// snapshot-restore path. The conflict graph is adopted verbatim (it is
    /// **not** rebuilt from the data; that is the whole point of a
    /// snapshot); the difference-set index, weighting function and `α` are
    /// recomputed from it deterministically, which is bit-identical to what
    /// the original build produced: grouping reads only the edge multiset,
    /// and the built-in weights sum in value order regardless of dictionary
    /// interning order.
    pub fn from_restored(
        instance: Instance,
        sigma: FdSet,
        conflict: ConflictGraph,
        weight: WeightKind,
        rebuild_partitions: bool,
    ) -> Self {
        let diff_groups = Self::group_by_difference_set(&conflict);
        let alpha = Self::compute_alpha(instance.schema().arity(), sigma.len());
        let incremental =
            rebuild_partitions.then(|| rt_constraints::FdPartitionIndex::build(&instance, &sigma));
        let weight_fn = Self::build_weight(&instance, weight);
        RepairProblem {
            instance,
            sigma,
            conflict,
            diff_groups,
            weight: weight_fn,
            alpha,
            weight_kind: weight,
            incremental,
        }
    }

    /// Which built-in weighting the problem was constructed with. Snapshots
    /// serialize this tag and rebuild the weight from it on restore.
    pub fn weight_kind(&self) -> WeightKind {
        self.weight_kind
    }

    /// Whether the lazily built per-FD partition index is currently
    /// materialized (it is, once a mutation has been applied).
    pub fn has_partition_index(&self) -> bool {
        self.incremental.is_some()
    }

    /// The (original, unrepaired) instance `I`.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The original FD set `Σ`.
    pub fn sigma(&self) -> &FdSet {
        &self.sigma
    }

    /// The conflict graph of `(I, Σ)`.
    pub fn conflict_graph(&self) -> &ConflictGraph {
        &self.conflict
    }

    /// Conflict edges grouped by difference set (heaviest first).
    pub fn diff_groups(&self) -> &[DiffSetGroup] {
        &self.diff_groups
    }

    /// The weighting function.
    pub fn weight(&self) -> &dyn Weight {
        self.weight.as_ref()
    }

    /// `α = min(|R| - 1, |Σ|)` (at least 1): the per-tuple cell-change factor
    /// of Theorem 3.
    pub fn alpha(&self) -> usize {
        self.alpha
    }

    /// The relaxed FD set `Σ'` described by a search state.
    pub fn relaxed_fds(&self, state: &RepairState) -> FdSet {
        self.sigma.extend_lhs(state.extensions())
    }

    /// `dist_c(Σ, Σ')` for the relaxation described by `state`.
    pub fn dist_c(&self, state: &RepairState) -> f64 {
        self.weight.extension_cost(state.extensions())
    }

    /// The subgraph of conflict edges still violating the relaxation,
    /// indexed by the rows those edges touch.
    pub fn violating_subgraph(&self, state: &RepairState) -> CompactGraph {
        self.conflict.subgraph_for(&self.relaxed_fds(state))
    }

    /// [`RepairProblem::violating_subgraph`] with an explicit
    /// [`Parallelism`] setting for the per-edge violation tests.
    pub fn violating_subgraph_with(&self, state: &RepairState, par: Parallelism) -> CompactGraph {
        self.conflict
            .subgraph_for_with(&self.relaxed_fds(state), par)
    }

    /// 2-approximate minimum vertex cover of the still-violating subgraph.
    pub fn cover_for(&self, state: &RepairState) -> VertexCover {
        self.cover_for_with(state, Parallelism::Serial)
    }

    /// [`RepairProblem::cover_for`] with an explicit [`Parallelism`] setting:
    /// both the edge filtering and the per-component cover computation fan
    /// out over worker threads. Bit-identical for every setting.
    pub fn cover_for_with(&self, state: &RepairState, par: Parallelism) -> VertexCover {
        self.violating_subgraph_with(state, par)
            .vertex_cover_with(par)
    }

    /// `δ_P(Σ', I) = α · |C2opt(Σ', I)|` — the P-approximate upper bound on
    /// the number of cell changes needed to satisfy the relaxation.
    pub fn delta_p(&self, state: &RepairState) -> usize {
        self.alpha * self.cover_for(state).len()
    }

    /// `δ_P(Σ, I)` of the *original* FD set: the reference point used to
    /// express relative trust `τ_r = τ / δ_P(Σ, I)`.
    pub fn delta_p_original(&self) -> usize {
        self.delta_p(&RepairState::root(self.sigma.len()))
    }

    /// Converts a relative trust level `τ_r ∈ [0, 1]` into an absolute cell
    /// budget `τ = ⌈τ_r · δ_P(Σ, I)⌉`.
    pub fn absolute_tau(&self, tau_r: f64) -> usize {
        let reference = self.delta_p_original() as f64;
        (tau_r.clamp(0.0, 1.0) * reference).ceil() as usize
    }

    /// Is `state` a goal for budget `τ`, i.e. `δ_P(Σ', I) ≤ τ`?
    pub fn is_goal(&self, state: &RepairState, tau: usize) -> bool {
        self.delta_p(state) <= tau
    }

    /// Number of FDs `|Σ|`.
    pub fn fd_count(&self) -> usize {
        self.sigma.len()
    }

    /// Number of attributes `|R|`.
    pub fn arity(&self) -> usize {
        self.instance.schema().arity()
    }
}

impl std::fmt::Debug for RepairProblem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairProblem")
            .field("tuples", &self.instance.len())
            .field("arity", &self.arity())
            .field("fds", &self.sigma.len())
            .field("conflict_edges", &self.conflict.edge_count())
            .field("difference_sets", &self.diff_groups.len())
            .field("alpha", &self.alpha)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::Schema;

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
    fn alpha_and_reference_budget_match_figure2() {
        let (inst, fds) = figure2();
        let p = RepairProblem::new(&inst, &fds);
        // α = min(|R|-1, |Σ|) = min(3, 2) = 2.
        assert_eq!(p.alpha(), 2);
        // C2opt of the original conflict graph is {t2, t3} → δP = 2·2 = 4,
        // exactly the first row of Figure 3.
        assert_eq!(p.delta_p_original(), 4);
        assert_eq!(p.absolute_tau(0.0), 0);
        assert_eq!(p.absolute_tau(0.5), 2);
        assert_eq!(p.absolute_tau(1.0), 4);
        assert_eq!(p.absolute_tau(2.0), 4); // clamped
    }

    #[test]
    fn delta_p_for_relaxations_matches_figure3() {
        let (inst, fds) = figure2();
        let schema = inst.schema().clone();
        let p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let state_for = |specs: &[&str]| {
            let relaxed = FdSet::parse(specs, &schema).unwrap();
            let delta = fds.extension_delta(&relaxed).unwrap();
            RepairState::new(delta)
        };
        // Rows of Figure 3: Σ', dist_c (attr count), δP.
        let cases: Vec<(&[&str], f64, usize)> = vec![
            (&["A->B", "C->D"], 0.0, 4),
            (&["C,A->B", "C->D"], 1.0, 2),
            (&["D,A->B", "C->D"], 1.0, 2),
            (&["A->B", "A,C->D"], 1.0, 4),
            (&["A->B", "B,C->D"], 1.0, 4),
            (&["C,A->B", "A,C->D"], 2.0, 2),
        ];
        for (specs, dist, delta_p) in cases {
            let s = state_for(specs);
            assert_eq!(p.dist_c(&s), dist, "dist_c for {specs:?}");
            assert_eq!(p.delta_p(&s), delta_p, "δP for {specs:?}");
        }
    }

    #[test]
    fn goal_test_uses_budget() {
        let (inst, fds) = figure2();
        let p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let root = RepairState::root(fds.len());
        assert!(p.is_goal(&root, 4));
        assert!(!p.is_goal(&root, 3));
    }

    #[test]
    fn diff_groups_are_sorted_by_weight() {
        let (inst, fds) = figure2();
        let p = RepairProblem::new(&inst, &fds);
        assert_eq!(p.diff_groups().len(), 3);
        for w in p.diff_groups().windows(2) {
            assert!(w[0].edges.len() >= w[1].edges.len());
        }
        let total_edges: usize = p.diff_groups().iter().map(|g| g.edges.len()).sum();
        assert_eq!(total_edges, p.conflict_graph().edge_count());
    }

    #[test]
    fn alpha_floor_is_one() {
        // A single-FD, two-attribute problem: min(|R|-1, |Σ|) = 1.
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let p = RepairProblem::new(&inst, &fds);
        assert_eq!(p.alpha(), 1);
        // The hybrid approximate cover of a single edge picks one endpoint.
        assert_eq!(p.delta_p_original(), 1);
    }
}
