//! The A* heuristic `gc(S)` (Algorithm 3, `getDescGoalStates`).
//!
//! For a freshly generated state `S`, `gc(S)` estimates the cost of the
//! cheapest *goal* state extending `S` — a state whose relaxed FD set leaves
//! a conflict subgraph with `|C2opt| · α ≤ τ`. A* soundness requires the
//! estimate never to exceed the true cheapest descendant cost; the estimate
//! here is a lower bound for two reasons:
//!
//! 1. only a *subset* `Ds` of the still-violated difference sets is
//!    considered (heavier difference sets first, preferring small overlap, as
//!    the paper suggests), so any real goal descendant has to resolve at
//!    least as much as the states enumerated here;
//! 2. candidate resolutions may pick any attribute of the difference set for
//!    each violated FD, component-wise — a superset of the tree-descendant
//!    moves available to the real search — so the cheapest enumerated
//!    resolution is at most as expensive as the cheapest real one.
//!
//! The enumeration is exponential in `|Ds| · |Σ|` in the worst case, so a
//! node budget caps the recursion; when the budget runs out a branch
//! optimistically assumes its remaining difference sets can be resolved for
//! free, which keeps the estimate a lower bound (it can only get smaller).
//!
//! A branch carries the difference sets it left unresolved as a bitmask
//! over their selection slots (at most `MAX_DIFF_SETS` of them), passed
//! by value to every child. Only a leave-unresolved decision reads it: it
//! builds the union graph of the masked groups' edges and takes its cover.
//! Adjacency is a set, so that graph, and its cover, do not depend on the
//! order the groups' edges are added in.
//!
//! The memo ([`HeuristicCache`]) stores each run as one `StructuralEntry`:
//! its candidate pushes packed into a flat buffer of `(FD, attribute)`
//! items (`Pushes`) appended at each leaf, plus the minimal additions
//! derived from them for each `τ` asked so far. One map, keyed on the
//! state's projection, holds everything; a hit allocates nothing.

use crate::problem::{DiffSetGroup, RepairProblem};
use crate::state::RepairState;
use rt_constraints::{AttrSet, FdSet};
use rt_graph::{approx_vertex_cover, UndirectedGraph};
use rt_par::{par_map_indexed, Parallelism};
use rt_relation::{work, AttrId};
use std::collections::{HashMap, HashSet};

/// Maximum number of difference sets (`|Ds|`) fed into the enumeration.
const MAX_DIFF_SETS: usize = 5;

/// The difference sets a branch left unresolved, one bit per selection slot.
type SlotMask = u32;

const _: () = assert!(MAX_DIFF_SETS <= SlotMask::BITS as usize);

/// Tuning knobs of the heuristic.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicConfig {
    /// Maximum number of recursion nodes before a branch falls back to the
    /// optimistic estimate.
    pub node_budget: usize,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            node_budget: 20_000,
        }
    }
}

/// Result of evaluating `gc(S)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeuristicValue {
    /// Lower bound on the cost of the cheapest goal descendant, or `None`
    /// when no descendant of the state can be a goal (the state is pruned).
    pub lower_bound: Option<f64>,
    /// Number of recursion nodes spent.
    pub nodes: usize,
    /// Whether the structural enumeration was served from a [`HeuristicCache`]
    /// (in which case `nodes` is 0: no new recursion work was done).
    pub cache_hit: bool,
}

/// The FDs of `sigma`, their LHSs extended by `extensions`, that a conflict
/// with difference set `diff` violates ([`Fd::violated_by_diff`]).
fn violated_fds<'a>(
    sigma: &'a FdSet,
    extensions: &'a [AttrSet],
    diff: AttrSet,
) -> impl Iterator<Item = usize> + 'a {
    sigma
        .iter()
        .filter(move |(j, fd)| fd.violated_by_diff(extensions[*j], diff))
        .map(|(j, _)| j)
}

/// The `Ds` selection of `state`: the difference-set groups its relaxation
/// still violates, in group order, narrowed by [`select_diff_sets`]. Each
/// selected group is named by its index into `problem.diff_groups()`, in
/// selection order. Empty exactly when the state violates nothing.
fn selection(problem: &RepairProblem, state: &RepairState) -> Vec<u32> {
    let (sigma, exts, groups) = (problem.sigma(), state.extensions(), problem.diff_groups());
    let violated: Vec<u32> = (0..groups.len() as u32)
        .filter(|&g| {
            violated_fds(sigma, exts, groups[g as usize].attrs)
                .next()
                .is_some()
        })
        .collect();
    select_diff_sets(groups, violated, MAX_DIFF_SETS)
}

/// Runs the structural half of `gc(S)` over the state's `Ds` selection:
/// the cheapest-resolution enumeration, recorded as the run's pushes. The
/// costing half — `dist_c` over the minimal candidates
/// ([`HeuristicCache::derive`]) — is left to the caller, which is what makes
/// the structural half cacheable across states.
fn enumerate_goal_candidates(
    problem: &RepairProblem,
    state: &RepairState,
    selection: &[u32],
    tau: usize,
    config: &HeuristicConfig,
) -> StructuralEntry {
    let mut pushes = Pushes::default();
    if selection.is_empty() {
        // The state itself is a goal (no violations at all): its own cost is
        // the exact answer, at every τ.
        pushes.record(state.extensions(), state.extensions(), 0);
        return StructuralEntry::new(tau, false, false, 0, pushes);
    }
    let groups = problem.diff_groups();
    // The unresolved graphs are indexed by the sorted rows of the selected
    // groups' edges, not by all rows: the remap preserves order, so their
    // covers (only the sizes are read) are those of the row-indexed graphs.
    let mut rows: Vec<usize> = selection
        .iter()
        .flat_map(|&g| groups[g as usize].edges.iter().flat_map(|&(u, v)| [u, v]))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let local = |row: usize| rows.binary_search(&row).expect("row of a selected edge");
    let selected: Vec<Selected> = selection
        .iter()
        .enumerate()
        .map(|(slot, &g)| Selected {
            slot,
            attrs: groups[g as usize].attrs,
            edges: groups[g as usize]
                .edges
                .iter()
                .map(|&(u, v)| (local(u), local(v)))
                .collect(),
        })
        .collect();
    let remaining: Vec<&Selected> = selected.iter().collect();

    let mut ctx = Context {
        problem,
        tau,
        budget: config.node_budget,
        selected: &selected,
        vertices: rows.len(),
        base: state.extensions(),
        nodes: 0,
        pushes,
        truncated: false,
        skipped_any: false,
    };
    ctx.recurse(state.clone(), 0, 0, &remaining);
    StructuralEntry::new(tau, ctx.truncated, ctx.skipped_any, ctx.nodes, ctx.pushes)
}

/// Computes `gc(state)` for the given cell budget `τ`: a fresh enumeration
/// at `τ`, with no cache — the reference the memoized path must match.
pub fn goal_cost_estimate(
    problem: &RepairProblem,
    state: &RepairState,
    tau: usize,
    config: &HeuristicConfig,
) -> HeuristicValue {
    let entry = enumerate_goal_candidates(problem, state, &selection(problem, state), tau, config);
    HeuristicValue {
        lower_bound: cheapest(problem, state, &entry.derive(tau, problem.fd_count())),
        nodes: entry.nodes,
        cache_hit: false,
    }
}

/// The least `dist_c` of `state` extended by one of `additions`; the first
/// of equals, as `min_by(total_cmp)` picks it.
fn cheapest(
    problem: &RepairProblem,
    state: &RepairState,
    additions: &[Vec<AttrSet>],
) -> Option<f64> {
    additions
        .iter()
        .map(|adds| {
            let ext: Vec<AttrSet> = state
                .extensions()
                .iter()
                .zip(adds)
                .map(|(base, add)| base.union(*add))
                .collect();
            problem.weight().extension_cost(&ext)
        })
        .min_by(|a, b| a.total_cmp(b))
}

/// Cache key for the structural half of `gc(S)`.
///
/// The enumeration in [`enumerate_goal_candidates`] reads the state only
/// through (a) which difference-set groups the relaxed Σ still violates —
/// that alone determines the `Ds` selection — and (b) the *violation
/// matrix* restricted to the **selected** groups: the (selected group, FD)
/// pairs where `lhsⱼ ∪ extⱼ(S)` is disjoint from the group's attributes
/// and the group contains `rhsⱼ`. Every decision after selection — per-
/// branch violated FDs, cover feasibility, candidate attribute choices, the
/// still-violated filter after an extension, budget spend, and minimality —
/// is a function of that restriction alone (plus problem-fixed data:
/// groups, Σ RHS/LHS, α), because every attribute the recursion
/// adds comes from a selected group the base extension is disjoint from.
/// Two states with the same selection and the same restricted matrix
/// therefore produce the same recursion and the same candidate *additions*
/// relative to themselves — states that differ only in non-selected groups
/// collapse onto one entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Indices (into `problem.diff_groups()`) of the selected groups, in
    /// selection order.
    selection: Vec<u32>,
    /// Bitset over `selection_slot * fd_count + fd_index`.
    violation: Vec<u64>,
}

/// Bits of a packed push item that hold the attribute: an [`AttrSet`] is a
/// `u64` mask, so every attribute is below 64.
const ATTR_BITS: u32 = 6;

/// Every candidate push of one enumeration run, in discovery order, packed
/// into flat buffers. Push `i` is the run of `items` from `ends[i - 1]`
/// (0 for the first) to `ends[i]`: its component-wise attribute
/// *additions* relative to the evaluated state, one `u32` item
/// `fd_index << ATTR_BITS | attribute` per added attribute, FD by FD,
/// attributes ascending. Its path threshold — the largest `|cover| · α` of
/// any leave-unresolved branch on the path from the root, 0 when the path
/// resolves everything — is `thresholds[levels[i]]`: a path threshold is
/// the cover of one set of unresolved slots, so a run has at most
/// `2^MAX_DIFF_SETS` distinct ones, and a byte per push names it.
#[derive(Debug, Default)]
struct Pushes {
    items: Vec<u32>,
    ends: Vec<u32>,
    /// The run's distinct path thresholds, in order of first use.
    thresholds: Vec<usize>,
    levels: Vec<u8>,
}

const _: () = assert!(1 << MAX_DIFF_SETS <= u8::MAX as usize);

impl Pushes {
    /// Appends the push of the leaf state `leaf`: its additions over `base`.
    fn record(&mut self, base: &[AttrSet], leaf: &[AttrSet], threshold: usize) {
        assert!(
            leaf.len() <= 1 << (u32::BITS - ATTR_BITS),
            "FD index does not fit a packed push item"
        );
        for (j, (ext, base)) in leaf.iter().zip(base).enumerate() {
            for attr in ext.difference(*base).iter() {
                self.items.push((j as u32) << ATTR_BITS | u32::from(attr.0));
            }
        }
        let end = u32::try_from(self.items.len()).expect("a run's items fit a u32 offset");
        self.ends.push(end);
        let level = match self.thresholds.iter().position(|&t| t == threshold) {
            Some(level) => level,
            None => {
                self.thresholds.push(threshold);
                self.thresholds.len() - 1
            }
        };
        self.levels
            .push(u8::try_from(level).expect("one threshold per set of unresolved slots"));
    }

    /// Releases the spare capacity the buffers grew while recording.
    fn shrink_to_fit(&mut self) {
        self.items.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.levels.shrink_to_fit();
    }

    /// Overwrites `adds` (one set per FD) with the additions of push `i`.
    fn decode(&self, i: usize, adds: &mut [AttrSet]) {
        let start = i.checked_sub(1).map_or(0, |prev| self.ends[prev] as usize);
        adds.fill(AttrSet::EMPTY);
        for &item in &self.items[start..self.ends[i] as usize] {
            let j = (item >> ATTR_BITS) as usize;
            adds[j].insert(AttrId((item & ((1 << ATTR_BITS) - 1)) as u16));
        }
    }
}

/// One structural enumeration run at a fixed `(S, τ)`, as the cache keeps
/// it: the run's `τ` and completion flags, which decide which other `τ`
/// values it can answer, its packed pushes, and the minimal additions
/// derived from them so far.
#[derive(Debug)]
struct StructuralEntry {
    /// The `τ` the run was recorded at.
    tau: usize,
    /// `true` when the node budget cut the enumeration short (the visit
    /// order beyond the cut depends on `τ`, so truncated runs only answer
    /// their own `τ`).
    truncated: bool,
    /// `true` when some leave-unresolved branch was infeasible at this `τ`
    /// (so a *larger* `τ` would explore a strictly bigger tree).
    skipped_any: bool,
    /// Recursion nodes spent.
    nodes: usize,
    /// Every candidate push in discovery order with its path threshold. A
    /// later, tighter `τ'` visits exactly the pushes with threshold `≤ τ'`
    /// — in the same order — as long as this run was not budget-truncated.
    pushes: Pushes,
    /// The minimal candidate additions at each `τ` asked so far
    /// ([`StructuralEntry::derive`]). Replacing the entry drops them; the
    /// new run derives the same lists again, bit for bit.
    derived: Vec<(usize, Vec<Vec<AttrSet>>)>,
}

impl StructuralEntry {
    fn new(
        tau: usize,
        truncated: bool,
        skipped_any: bool,
        nodes: usize,
        mut pushes: Pushes,
    ) -> Self {
        pushes.shrink_to_fit();
        StructuralEntry {
            tau,
            truncated,
            skipped_any,
            nodes,
            pushes,
            derived: Vec::new(),
        }
    }

    /// Can this recorded run answer a query at `tau` exactly?
    ///
    /// * its own `τ` — trivially (same run);
    /// * any *smaller* `τ`, provided the run was not budget-truncated: the
    ///   tighter tree is exactly the recorded pushes with threshold `≤ τ`,
    ///   in the same order (`τ` only ever gates leave-unresolved branches,
    ///   whose thresholds are recorded);
    /// * any *larger* `τ` too when additionally no branch was skipped (the
    ///   recorded tree is already the `τ = ∞` tree).
    fn serves(&self, tau: usize) -> bool {
        tau == self.tau || (!self.truncated && (tau < self.tau || !self.skipped_any))
    }

    /// Threshold-filters the recorded run at `tau` and keeps the minimal
    /// additions (those extending no other), in discovery order: exactly
    /// the candidates a fresh enumeration at `tau` stands for. Each push is
    /// decoded into one reused `fd_count`-long scratch vector.
    fn derive(&self, tau: usize, fd_count: usize) -> Vec<Vec<AttrSet>> {
        let mut additions: Vec<Vec<AttrSet>> = Vec::new();
        let mut adds = vec![AttrSet::EMPTY; fd_count];
        let admitted: Vec<bool> = self.pushes.thresholds.iter().map(|&t| t <= tau).collect();
        for (i, &level) in self.pushes.levels.iter().enumerate() {
            if !admitted[usize::from(level)] {
                continue;
            }
            self.pushes.decode(i, &mut adds);
            if additions.iter().any(|b| adds_extend(&adds, b)) {
                continue;
            }
            additions.retain(|b| !adds_extend(b, &adds));
            additions.push(adds.clone());
        }
        additions
    }

    /// The minimal additions at `tau`, derived on the first ask and kept.
    fn additions(&mut self, tau: usize, fd_count: usize) -> &[Vec<AttrSet>] {
        debug_assert!(self.serves(tau));
        let at = match self.derived.iter().position(|(t, _)| *t == tau) {
            Some(at) => at,
            None => {
                self.derived.push((tau, self.derive(tau, fd_count)));
                self.derived.len() - 1
            }
        };
        &self.derived[at].1
    }
}

/// `a` extends `b`, component-wise, on addition vectors (equivalent to
/// [`RepairState::extends`] on `base ∪ a` vs `base ∪ b`, because additions
/// are always disjoint from the base extensions).
fn adds_extend(a: &[AttrSet], b: &[AttrSet]) -> bool {
    a.len() == b.len() && b.iter().zip(a).all(|(x, y)| x.is_subset_of(*y))
}

/// Memo table for the structural half of `gc(S)`, keyed on the selected
/// difference-set groups plus the violation matrix restricted to them.
///
/// A miss runs the exact legacy enumeration on the actual state, recording
/// every candidate push with its leave-unresolved path threshold; a hit
/// replays the stored additions onto the new state and re-costs them with
/// the weight function. One recorded run answers **every tighter `τ`** (the
/// sweep only ever tightens `τ`) by threshold-filtering its pushes — see
/// `StructuralEntry::serves` — so neither the τ-refresh loop nor the
/// post-goal child evaluations repeat enumeration work. Because the stored
/// order is the discovery order and `min_by(total_cmp)` picks the first of
/// equals, hit and miss paths produce bit-identical lower bounds.
///
/// Each entry keeps the minimal additions it derived per `τ`, so the table
/// is one map and a hit allocates nothing. Inserting an entry charges its
/// packed push items to [`work::count_heuristic_memo_items`].
///
/// The cache holds only resolution *structure* — no weights — so it stays
/// valid across weight refreshes; it must be dropped whenever the
/// difference-set groups themselves change (see
/// `MutationEffect::diff_groups_changed`).
#[derive(Debug, Default)]
pub struct HeuristicCache {
    structural: HashMap<CacheKey, StructuralEntry>,
}

impl HeuristicCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct structural entries stored.
    pub fn len(&self) -> usize {
        self.structural.len()
    }

    /// `true` when no entry has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty()
    }

    fn key_for(&self, problem: &RepairProblem, state: &RepairState) -> CacheKey {
        let (sigma, exts, groups) = (problem.sigma(), state.extensions(), problem.diff_groups());
        let fd_count = problem.fd_count();
        let selection = selection(problem, state);
        let mut violation = vec![0u64; (selection.len() * fd_count).div_ceil(64).max(1)];
        for (slot, &g) in selection.iter().enumerate() {
            for j in violated_fds(sigma, exts, groups[g as usize].attrs) {
                let bit = slot * fd_count + j;
                violation[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        CacheKey {
            selection,
            violation,
        }
    }

    /// Evaluates `gc` for one state. Equivalent to
    /// [`goal_cost_estimate`] value-for-value, but served from the cache
    /// when the projected key is already known at a `τ` it can answer.
    pub fn evaluate(
        &mut self,
        problem: &RepairProblem,
        state: &RepairState,
        tau: usize,
        config: &HeuristicConfig,
    ) -> HeuristicValue {
        self.evaluate_many(problem, &[state], tau, config, Parallelism::Serial)
            .pop()
            .expect("one input yields one output")
    }

    /// Evaluates `gc` for a batch of states at the same `τ`.
    ///
    /// Keys are computed serially; the first occurrence of each key whose
    /// recorded run cannot answer `τ` re-runs the enumeration (those
    /// representatives run in parallel under `par` — the enumeration is
    /// pure) and replaces the entry; inserts and per-state costing are
    /// serial again. Results and accounting are therefore identical for
    /// every [`Parallelism`] mode. Nodes are charged only to the first
    /// occurrence of each such key; every other evaluation reports
    /// `nodes: 0, cache_hit: true`.
    pub fn evaluate_many(
        &mut self,
        problem: &RepairProblem,
        states: &[&RepairState],
        tau: usize,
        config: &HeuristicConfig,
        par: Parallelism,
    ) -> Vec<HeuristicValue> {
        let keys: Vec<CacheKey> = states.iter().map(|s| self.key_for(problem, s)).collect();
        // First occurrence of each key that cannot answer `τ` from its
        // recorded run (missing, truncated at a different τ, or recorded at
        // a smaller τ with skipped branches).
        let mut miss_idx: Vec<usize> = Vec::new();
        {
            let mut will_run: HashSet<&CacheKey> = HashSet::new();
            for (i, key) in keys.iter().enumerate() {
                let served = will_run.contains(key)
                    || self.structural.get(key).is_some_and(|e| e.serves(tau));
                if !served {
                    will_run.insert(key);
                    miss_idx.push(i);
                }
            }
        }
        let computed: Vec<StructuralEntry> = par_map_indexed(par, miss_idx.len(), |m| {
            let i = miss_idx[m];
            enumerate_goal_candidates(problem, states[i], &keys[i].selection, tau, config)
        });
        for (&i, entry) in miss_idx.iter().zip(computed) {
            work::count_heuristic_memo_items(entry.pushes.items.len());
            self.structural.insert(keys[i].clone(), entry);
        }
        let fd_count = problem.fd_count();
        let mut charged = miss_idx.into_iter().peekable();
        states
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (state, key))| {
                let is_miss = charged.next_if_eq(&i).is_some();
                let entry = self.structural.get_mut(key).expect("present for every key");
                HeuristicValue {
                    nodes: if is_miss { entry.nodes } else { 0 },
                    lower_bound: cheapest(problem, state, entry.additions(tau, fd_count)),
                    cache_hit: !is_miss,
                }
            })
            .collect()
    }
}

/// Greedy selection of difference sets among the `violated` groups (indices
/// into `groups`, ascending): pick the heaviest remaining set, breaking ties
/// in favour of small attribute overlap with what is already selected.
fn select_diff_sets(groups: &[DiffSetGroup], mut remaining: Vec<u32>, max: usize) -> Vec<u32> {
    let mut selected: Vec<u32> = Vec::new();
    let mut covered = AttrSet::EMPTY;
    while selected.len() < max && !remaining.is_empty() {
        // Score: primarily edge count (descending), secondarily overlap with
        // already covered attributes (ascending).
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, &g)| {
                let g = &groups[g as usize];
                let overlap = g.attrs.intersection(covered).len();
                (std::cmp::Reverse(g.edges.len()), overlap)
            })
            .expect("remaining is non-empty");
        let chosen = remaining.remove(idx);
        covered = covered.union(groups[chosen as usize].attrs);
        selected.push(chosen);
    }
    selected
}

/// A selected difference-set group: its slot (index in the selection, its
/// bit in a `SlotMask`) and its edges in local vertex ids of the
/// enumeration's unresolved graphs.
struct Selected {
    slot: usize,
    attrs: AttrSet,
    edges: Vec<(usize, usize)>,
}

struct Context<'a> {
    problem: &'a RepairProblem,
    tau: usize,
    budget: usize,
    /// Every selected group, in slot order.
    selected: &'a [Selected],
    /// Vertex count of the unresolved graphs (the selected groups' rows).
    vertices: usize,
    /// The evaluated state's extensions, which each push is relative to.
    base: &'a [AttrSet],
    nodes: usize,
    /// Every candidate push so far — the material for [`HeuristicCache`]'s
    /// τ-derivable entries.
    pushes: Pushes,
    /// Set when the node budget cut the enumeration short.
    truncated: bool,
    /// Set when some leave-unresolved branch was infeasible at this `τ`.
    skipped_any: bool,
}

impl<'a> Context<'a> {
    /// Recursive enumeration of minimal goal candidates (Algorithm 3).
    ///
    /// * `current` — the state built so far (extends the root state);
    /// * `unresolved` — slots of the difference sets we chose *not* to
    ///   resolve (the vertex cover of their edges must stay within the
    ///   budget);
    /// * `path_threshold` — largest `|cover| · α` of any leave-unresolved
    ///   decision on the path so far (0 if none);
    /// * `remaining` — difference sets still to be decided.
    fn recurse(
        &mut self,
        current: RepairState,
        unresolved: SlotMask,
        path_threshold: usize,
        remaining: &[&Selected],
    ) {
        self.nodes += 1;
        if remaining.is_empty() {
            self.pushes
                .record(self.base, current.extensions(), path_threshold);
            return;
        }
        if self.nodes >= self.budget {
            // Budget exhausted: optimistically assume the rest resolves for
            // free. `current` is a lower-bound witness.
            self.truncated = true;
            self.pushes
                .record(self.base, current.extensions(), path_threshold);
            return;
        }
        let d = remaining[0];
        let rest = &remaining[1..];

        // If the choices made for earlier difference sets already resolve
        // `d`, it imposes no further constraint.
        let sigma = self.problem.sigma();
        let violated: Vec<usize> = violated_fds(sigma, current.extensions(), d.attrs).collect();
        if violated.is_empty() {
            self.recurse(current, unresolved, path_threshold, rest);
            return;
        }

        // Option 1: leave `d` unresolved, paying for it through the vertex
        // cover of the accumulated unresolved edges (Algorithm 3, lines 6-11).
        let with_d = unresolved | 1 << d.slot;
        let mut graph = UndirectedGraph::with_vertices(self.vertices);
        for group in self.selected.iter().filter(|g| with_d & 1 << g.slot != 0) {
            for &(u, v) in &group.edges {
                graph.add_edge(u, v);
            }
        }
        let threshold = approx_vertex_cover(&graph).len() * self.problem.alpha();
        if threshold <= self.tau {
            self.recurse(current.clone(), with_d, path_threshold.max(threshold), rest);
        } else {
            self.skipped_any = true;
        }
        // Candidate attributes per violated FD: any attribute of `d` other
        // than that FD's RHS (all such attributes are outside the current
        // LHS because the LHS is disjoint from `d`).
        let choices: Vec<(usize, Vec<rt_relation::AttrId>)> = violated
            .iter()
            .map(|&j| (j, d.attrs.without(sigma.get(j).rhs).iter().collect()))
            .collect();
        if choices.iter().any(|(_, attrs)| attrs.is_empty()) {
            // Some violated FD cannot be resolved by extension (the
            // difference set is exactly its RHS); only option 1 applies.
            return;
        }
        // Cross product of per-FD attribute choices.
        let mut assignment = vec![0usize; choices.len()];
        loop {
            let mut extended = current.clone();
            for (slot, (j, attrs)) in choices.iter().enumerate() {
                extended = extended.with_attr(*j, attrs[assignment[slot]]);
            }
            // Remaining difference sets that the extended state still
            // violates.
            let still: Vec<&Selected> = rest
                .iter()
                .copied()
                .filter(|g| {
                    violated_fds(sigma, extended.extensions(), g.attrs)
                        .next()
                        .is_some()
                })
                .collect();
            self.recurse(extended, unresolved, path_threshold, &still);
            if self.nodes >= self.budget {
                self.truncated = true;
                return;
            }
            // Advance the mixed-radix assignment.
            let mut slot = 0;
            loop {
                if slot == choices.len() {
                    return;
                }
                assignment[slot] += 1;
                if assignment[slot] < choices[slot].1.len() {
                    break;
                }
                assignment[slot] = 0;
                slot += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::WeightKind;
    use rt_constraints::FdSet;
    use rt_relation::{Instance, Schema};

    fn figure2_problem() -> RepairProblem {
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
        RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount)
    }

    /// Exhaustively enumerates the cheapest true goal descendant of `state`.
    fn exact_cheapest_goal(
        problem: &RepairProblem,
        state: &RepairState,
        tau: usize,
    ) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut stack = vec![state.clone()];
        while let Some(s) = stack.pop() {
            if problem.is_goal(&s, tau) {
                let c = problem.dist_c(&s);
                best = Some(best.map_or(c, |b: f64| b.min(c)));
            }
            for c in s.children(problem.sigma(), problem.arity()) {
                stack.push(c);
            }
        }
        best
    }

    #[test]
    fn heuristic_is_admissible_on_figure2() {
        let problem = figure2_problem();
        let config = HeuristicConfig::default();
        let root = RepairState::root(2);
        let mut stack = vec![root];
        let mut checked = 0;
        while let Some(s) = stack.pop() {
            for tau in 0..=5 {
                let h = goal_cost_estimate(&problem, &s, tau, &config);
                let exact = exact_cheapest_goal(&problem, &s, tau);
                match (h.lower_bound, exact) {
                    (Some(lb), Some(opt)) => {
                        assert!(
                            lb <= opt + 1e-9,
                            "state {s}, τ={tau}: gc={lb} exceeds optimum {opt}"
                        );
                    }
                    // A bound without a tree-descendant goal is harmless: the
                    // heuristic explores component-wise extensions (a
                    // superset of the tree descendants), so it may report a
                    // bound for goals living in a sibling subtree. The search
                    // just expands the state and moves on.
                    (Some(_), None) => {}
                    // Declaring "no goal" when one exists would break
                    // completeness.
                    (None, Some(opt)) => {
                        panic!("state {s}, τ={tau}: heuristic pruned but goal of cost {opt} exists")
                    }
                    (None, None) => {}
                }
            }
            checked += 1;
            for c in s.children(problem.sigma(), problem.arity()) {
                stack.push(c);
            }
        }
        assert_eq!(checked, 16); // whole space visited
    }

    #[test]
    fn goal_state_reports_its_own_cost() {
        let problem = figure2_problem();
        let config = HeuristicConfig::default();
        // τ = 4 makes the root a goal (δP(Σ, I) = 4).
        let root = RepairState::root(2);
        let h = goal_cost_estimate(&problem, &root, 4, &config);
        // Root cost is 0; the estimate must not exceed the true optimum (0).
        assert_eq!(h.lower_bound, Some(0.0));
    }

    #[test]
    fn unresolvable_states_are_pruned() {
        // With τ = 0 every difference set must be resolved by FD extension.
        // Build a conflict whose difference set equals the FD's RHS only, so
        // no extension can resolve it and no data budget exists.
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let root = RepairState::root(1);
        let h = goal_cost_estimate(&problem, &root, 0, &HeuristicConfig::default());
        assert_eq!(h.lower_bound, None);
        // With τ = 2 the root itself is a goal.
        let h = goal_cost_estimate(&problem, &root, 2, &HeuristicConfig::default());
        assert_eq!(h.lower_bound, Some(0.0));
    }

    #[test]
    fn groups_left_unresolved_together_pay_for_their_union() {
        // Two conflicts under A -> B on disjoint rows, with difference sets
        // {B, C} and {B, D}: each group's cover is one row, their union's two.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 2, 1],
                vec![2, 1, 1, 1],
                vec![2, 2, 1, 2],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let groups = problem.diff_groups();
        assert_eq!(groups.len(), 2);
        let cost = |unresolved: &[&DiffSetGroup]| {
            let mut graph = UndirectedGraph::with_vertices(inst.len());
            for &(u, v) in unresolved.iter().flat_map(|g| &g.edges) {
                graph.add_edge(u, v);
            }
            approx_vertex_cover(&graph).len() * problem.alpha()
        };
        let alone = cost(&[&groups[0]]).max(cost(&[&groups[1]]));
        let together = cost(&[&groups[0], &groups[1]]);
        assert!(alone < together);
        let config = HeuristicConfig::default();
        let root = RepairState::root(1);
        // At τ = `alone` either group may stay unresolved, but not both: the
        // other one costs an appended attribute.
        let h = goal_cost_estimate(&problem, &root, alone, &config);
        assert_eq!(h.lower_bound, Some(1.0));
        assert_eq!(exact_cheapest_goal(&problem, &root, alone), Some(1.0));
        let h = goal_cost_estimate(&problem, &root, together, &config);
        assert_eq!(h.lower_bound, Some(0.0));
    }

    #[test]
    fn budget_exhaustion_stays_optimistic() {
        let problem = figure2_problem();
        let tight = HeuristicConfig { node_budget: 1 };
        let root = RepairState::root(2);
        let exact = exact_cheapest_goal(&problem, &root, 2).unwrap();
        let h = goal_cost_estimate(&problem, &root, 2, &tight);
        let lb = h.lower_bound.expect("budget fallback must keep a bound");
        assert!(lb <= exact + 1e-9);
    }

    #[test]
    fn packed_pushes_decode_to_each_leafs_additions() {
        // Three FDs; the base already extends FD 0 by {0} and FD 2 by {5}.
        let base = RepairState::new(vec![
            AttrSet::from_bits(1),
            AttrSet::EMPTY,
            AttrSet::from_bits(1 << 5),
        ]);
        let leaves = [
            // Attribute 63 on FD 0, and two attributes added to FD 2.
            base.with_attr(0, AttrId(63))
                .with_attr(2, AttrId(1))
                .with_attr(2, AttrId(40)),
            // The base itself: an empty push between two others.
            base.clone(),
            // One attribute on FD 1 only.
            base.with_attr(1, AttrId(7)),
        ];
        let mut pushes = Pushes::default();
        for (t, leaf) in leaves.iter().enumerate() {
            pushes.record(base.extensions(), leaf.extensions(), 10 * (t % 2));
        }
        assert_eq!(pushes.thresholds, vec![0, 10]);
        assert_eq!(pushes.levels, vec![0, 1, 0]);
        // Stale bits in the scratch vector must not survive a decode.
        let mut adds = vec![AttrSet::from_bits(u64::MAX); 3];
        for (i, leaf) in leaves.iter().enumerate() {
            pushes.decode(i, &mut adds);
            let expected: Vec<AttrSet> = leaf
                .extensions()
                .iter()
                .zip(base.extensions())
                .map(|(ext, base)| ext.difference(*base))
                .collect();
            assert_eq!(adds, expected, "push {i}");
        }
    }

    #[test]
    fn a_state_violating_nothing_records_one_empty_push() {
        let problem = figure2_problem();
        // A -> B extended by D and C -> D by {A, B} resolve every conflict.
        let state = RepairState::new(vec![AttrSet::from_bits(0b1000), AttrSet::from_bits(0b0011)]);
        assert!(selection(&problem, &state).is_empty());
        let entry =
            enumerate_goal_candidates(&problem, &state, &[], 0, &HeuristicConfig::default());
        assert!(entry.pushes.items.is_empty());
        assert_eq!(entry.pushes.ends, vec![0]);
        assert_eq!(entry.pushes.thresholds, vec![0]);
        assert_eq!(entry.pushes.levels, vec![0]);
        assert_eq!(entry.derive(0, 2), vec![vec![AttrSet::EMPTY; 2]]);
    }

    #[test]
    fn selection_prefers_heavy_sets() {
        let g1 = DiffSetGroup {
            attrs: AttrSet::from_bits(0b0011),
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        let g2 = DiffSetGroup {
            attrs: AttrSet::from_bits(0b0110),
            edges: vec![(4, 5)],
        };
        let g3 = DiffSetGroup {
            attrs: AttrSet::from_bits(0b1100),
            edges: vec![(6, 7), (8, 9)],
        };
        let selected = select_diff_sets(&[g1, g2, g3], vec![0, 1, 2], 2);
        assert_eq!(selected, vec![0, 2]);
    }
}
