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

use crate::problem::{DiffSetGroup, RepairProblem};
use crate::state::RepairState;
use rt_constraints::AttrSet;
use rt_graph::{approx_vertex_cover, UndirectedGraph};
use rt_par::{par_map_indexed, Parallelism};
use std::collections::{HashMap, HashSet};

/// Tuning knobs of the heuristic.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicConfig {
    /// Maximum number of difference sets (`|Ds|`) fed into the enumeration.
    pub max_diff_sets: usize,
    /// Maximum number of recursion nodes before a branch falls back to the
    /// optimistic estimate.
    pub node_budget: usize,
}

impl Default for HeuristicConfig {
    fn default() -> Self {
        HeuristicConfig {
            max_diff_sets: 5,
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

/// Full record of one structural enumeration run at a fixed `(S, τ)`.
struct EnumerationRun {
    /// The minimal candidate goal states, in discovery order (what the
    /// uncached oracle consumes).
    best: Vec<RepairState>,
    /// Every `push_minimal` call in order, as component-wise attribute
    /// *additions* relative to the evaluated state, each annotated with its
    /// path threshold: the largest `|cover| · α` of any leave-unresolved
    /// branch on the path from the root (0 when the path resolves
    /// everything). A later, tighter `τ'` visits exactly the pushes with
    /// threshold `≤ τ'` — in the same order — as long as this run was not
    /// budget-truncated.
    pushes: Vec<(Vec<AttrSet>, usize)>,
    /// Recursion nodes spent.
    nodes: usize,
    /// `true` when the node budget cut the enumeration short (the visit
    /// order beyond the cut depends on `τ`, so truncated runs only answer
    /// their own `τ`).
    truncated: bool,
    /// `true` when some leave-unresolved branch was infeasible at this `τ`
    /// (so a *larger* `τ` would explore a strictly bigger tree).
    skipped_any: bool,
}

/// Runs the structural half of `gc(S)`: difference-set selection plus the
/// cheapest-resolution enumeration. The costing half — `dist_c` over the
/// candidates — is left to the caller, which is what makes the structural
/// half cacheable across states.
fn enumerate_goal_candidates(
    problem: &RepairProblem,
    state: &RepairState,
    tau: usize,
    config: &HeuristicConfig,
) -> EnumerationRun {
    let relaxed = problem.relaxed_fds(state);
    // Difference sets still violated by the state's relaxation.
    let violated: Vec<&DiffSetGroup> = problem
        .diff_groups()
        .iter()
        .filter(|g| {
            relaxed
                .iter()
                .any(|(_, fd)| fd.lhs.is_disjoint_from(g.attrs) && g.attrs.contains(fd.rhs))
        })
        .collect();
    if violated.is_empty() {
        // The state itself is a goal (no violations at all): its own cost is
        // the exact answer, at every τ.
        return EnumerationRun {
            best: vec![state.clone()],
            pushes: vec![(vec![AttrSet::EMPTY; problem.fd_count()], 0)],
            nodes: 0,
            truncated: false,
            skipped_any: false,
        };
    }
    // Select Ds: heaviest difference sets first, preferring small overlap
    // with the already selected ones (ties in the paper's description).
    let selected = select_diff_sets(&violated, config.max_diff_sets);
    // The unresolved graphs are indexed by the sorted rows of the selected
    // groups' edges, not by all rows: the remap preserves order, so their
    // covers (only the sizes are read) are those of the row-indexed graphs.
    let mut rows: Vec<usize> = selected
        .iter()
        .flat_map(|g| g.edges.iter().flat_map(|&(u, v)| [u, v]))
        .collect();
    rows.sort_unstable();
    rows.dedup();
    let local = |row: usize| rows.binary_search(&row).expect("row of a selected edge");
    let selected: Vec<Selected> = selected
        .into_iter()
        .map(|group| Selected {
            attrs: group.attrs,
            edges: group
                .edges
                .iter()
                .map(|&(u, v)| (local(u), local(v)))
                .collect(),
        })
        .collect();
    let selected: Vec<&Selected> = selected.iter().collect();

    let mut ctx = Context {
        problem,
        tau,
        budget: config.node_budget,
        nodes: 0,
        best: Vec::new(),
        raw: Vec::new(),
        truncated: false,
        skipped_any: false,
    };
    let empty = UndirectedGraph::with_vertices(rows.len());
    ctx.recurse(state.clone(), empty, 0, &selected);
    let pushes = ctx
        .raw
        .iter()
        .map(|(s, t)| {
            let adds: Vec<AttrSet> = s
                .extensions()
                .iter()
                .zip(state.extensions())
                .map(|(ext, base)| ext.difference(*base))
                .collect();
            (adds, *t)
        })
        .collect();
    EnumerationRun {
        best: ctx.best,
        pushes,
        nodes: ctx.nodes,
        truncated: ctx.truncated,
        skipped_any: ctx.skipped_any,
    }
}

/// Computes `gc(state)` for the given cell budget `τ`.
pub fn goal_cost_estimate(
    problem: &RepairProblem,
    state: &RepairState,
    tau: usize,
    config: &HeuristicConfig,
) -> HeuristicValue {
    let run = enumerate_goal_candidates(problem, state, tau, config);
    let lower_bound = run
        .best
        .iter()
        .map(|s| problem.dist_c(s))
        .min_by(|a, b| a.total_cmp(b));
    HeuristicValue {
        lower_bound,
        nodes: run.nodes,
        cache_hit: false,
    }
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

/// Cached structural enumeration for one key: the raw push sequence of the
/// recorded run (additions + path thresholds), plus the run's `τ` and
/// completion flags that decide which other `τ` values it can answer.
#[derive(Debug, Clone)]
struct StructuralEntry {
    tau: usize,
    truncated: bool,
    skipped_any: bool,
    nodes: usize,
    pushes: Vec<(Vec<AttrSet>, usize)>,
}

impl StructuralEntry {
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
}

/// Minimal candidate additions for one `(key, τ)`, derived from a
/// [`StructuralEntry`] by threshold-filtering its pushes and replaying the
/// minimality filter.
#[derive(Debug, Clone)]
struct DerivedEntry {
    additions: Vec<Vec<AttrSet>>,
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
/// The cache holds only resolution *structure* — no weights — so it stays
/// valid across weight refreshes; it must be dropped whenever the
/// difference-set groups themselves change (see
/// `MutationEffect::diff_groups_changed`).
#[derive(Debug, Default)]
pub struct HeuristicCache {
    structural: HashMap<CacheKey, StructuralEntry>,
    derived: HashMap<(CacheKey, usize), DerivedEntry>,
    hits: usize,
    nodes_spent: usize,
}

/// One structural cache entry in export form: the key's two components plus
/// the recorded run, all as plain data a snapshot codec can serialize. The
/// export carries resolution *structure* only — no weights — exactly like
/// the live cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntryExport {
    /// Selected difference-set group indices, in selection order.
    pub selection: Vec<u32>,
    /// Violation-matrix bitset restricted to the selection.
    pub violation: Vec<u64>,
    /// The `τ` the run was recorded at.
    pub tau: usize,
    /// Whether the node budget cut the run short.
    pub truncated: bool,
    /// Whether some leave-unresolved branch was infeasible at `tau`.
    pub skipped_any: bool,
    /// Recursion nodes the run spent.
    pub nodes: usize,
    /// Every recorded push: component-wise additions plus path threshold.
    pub pushes: Vec<(Vec<AttrSet>, usize)>,
}

impl HeuristicCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Exports the structural entries as plain data, sorted by key so the
    /// byte stream a codec produces from the result is deterministic.
    /// Derived (per-`τ`) entries are not exported: `HeuristicCache::derive`
    /// is a pure function of a structural entry, so they are rebuilt on
    /// demand bit-identically.
    pub fn export_entries(&self) -> Vec<CacheEntryExport> {
        let mut entries: Vec<CacheEntryExport> = self
            .structural
            .iter()
            .map(|(key, e)| CacheEntryExport {
                selection: key.selection.clone(),
                violation: key.violation.clone(),
                tau: e.tau,
                truncated: e.truncated,
                skipped_any: e.skipped_any,
                nodes: e.nodes,
                pushes: e.pushes.clone(),
            })
            .collect();
        entries.sort_by(|a, b| {
            a.selection
                .cmp(&b.selection)
                .then_with(|| a.violation.cmp(&b.violation))
        });
        entries
    }

    /// Rebuilds a cache from exported entries plus the accounting totals
    /// ([`HeuristicCache::hits`], [`HeuristicCache::nodes_spent`]) captured
    /// alongside them, preserving the stats ledger across a restore.
    pub fn from_exported(entries: Vec<CacheEntryExport>, hits: usize, nodes_spent: usize) -> Self {
        let mut structural = HashMap::with_capacity(entries.len());
        for e in entries {
            structural.insert(
                CacheKey {
                    selection: e.selection,
                    violation: e.violation,
                },
                StructuralEntry {
                    tau: e.tau,
                    truncated: e.truncated,
                    skipped_any: e.skipped_any,
                    nodes: e.nodes,
                    pushes: e.pushes,
                },
            );
        }
        HeuristicCache {
            structural,
            derived: HashMap::new(),
            hits,
            nodes_spent,
        }
    }

    /// Number of distinct structural entries stored.
    pub fn len(&self) -> usize {
        self.structural.len()
    }

    /// `true` when no entry has been stored yet.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty()
    }

    /// Number of evaluations served without running the enumeration.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Total recursion nodes spent on misses — the cache's side of the
    /// `SearchStats::heuristic_nodes` ledger.
    pub fn nodes_spent(&self) -> usize {
        self.nodes_spent
    }

    fn key_for(
        &self,
        problem: &RepairProblem,
        state: &RepairState,
        config: &HeuristicConfig,
    ) -> CacheKey {
        let groups = problem.diff_groups();
        let fd_count = problem.fd_count();
        let violates = |group: &DiffSetGroup, j: usize, fd: &rt_constraints::Fd| {
            group.attrs.contains(fd.rhs)
                && fd.lhs.is_disjoint_from(group.attrs)
                && state.extensions()[j].is_disjoint_from(group.attrs)
        };
        // Mirror of the run's own selection: violated groups in group order,
        // then the greedy heaviest-first pick.
        let violated: Vec<&DiffSetGroup> = groups
            .iter()
            .filter(|g| problem.sigma().iter().any(|(j, fd)| violates(g, j, fd)))
            .collect();
        let selected = select_diff_sets(&violated, config.max_diff_sets);
        let selection: Vec<u32> = selected
            .iter()
            .map(|s| {
                groups
                    .iter()
                    .position(|g| std::ptr::eq(g, *s))
                    .expect("selected group comes from the problem's groups") as u32
            })
            .collect();
        let mut violation = vec![0u64; (selection.len() * fd_count).div_ceil(64).max(1)];
        for (slot, group) in selected.iter().enumerate() {
            for (j, fd) in problem.sigma().iter() {
                if violates(group, j, fd) {
                    let bit = slot * fd_count + j;
                    violation[bit / 64] |= 1u64 << (bit % 64);
                }
            }
        }
        CacheKey {
            selection,
            violation,
        }
    }

    /// Threshold-filters a recorded run at `tau` and replays the online
    /// minimality filter, reproducing exactly the candidate set (and order)
    /// a fresh enumeration at `tau` would build.
    fn derive(entry: &StructuralEntry, tau: usize) -> DerivedEntry {
        let mut additions: Vec<Vec<AttrSet>> = Vec::new();
        for (adds, threshold) in &entry.pushes {
            if *threshold > tau {
                continue;
            }
            if additions.iter().any(|b| adds_extend(adds, b)) {
                continue;
            }
            additions.retain(|b| !adds_extend(b, adds));
            additions.push(adds.clone());
        }
        DerivedEntry { additions }
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
        let keys: Vec<CacheKey> = states
            .iter()
            .map(|s| self.key_for(problem, s, config))
            .collect();
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
            let state = states[miss_idx[m]];
            let run = enumerate_goal_candidates(problem, state, tau, config);
            StructuralEntry {
                tau,
                truncated: run.truncated,
                skipped_any: run.skipped_any,
                nodes: run.nodes,
                pushes: run.pushes,
            }
        });
        for (&i, entry) in miss_idx.iter().zip(computed) {
            self.nodes_spent += entry.nodes;
            self.structural.insert(keys[i].clone(), entry);
        }
        let mut charged = miss_idx.into_iter().peekable();
        states
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (state, key))| {
                let is_miss = charged.peek() == Some(&i);
                if is_miss {
                    charged.next();
                } else {
                    self.hits += 1;
                }
                let miss_nodes = if is_miss {
                    self.structural.get(key).expect("inserted above").nodes
                } else {
                    0
                };
                let derived_key = (key.clone(), tau);
                if !self.derived.contains_key(&derived_key) {
                    let entry = self.structural.get(key).expect("present for every key");
                    debug_assert!(entry.serves(tau));
                    self.derived
                        .insert(derived_key.clone(), Self::derive(entry, tau));
                }
                let derived = self.derived.get(&derived_key).expect("inserted above");
                let lower_bound = derived
                    .additions
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
                    .min_by(|a, b| a.total_cmp(b));
                HeuristicValue {
                    lower_bound,
                    nodes: miss_nodes,
                    cache_hit: !is_miss,
                }
            })
            .collect()
    }
}

/// Greedy selection of difference sets: pick the heaviest remaining set,
/// breaking ties in favour of small attribute overlap with what is already
/// selected.
fn select_diff_sets<'a>(violated: &[&'a DiffSetGroup], max: usize) -> Vec<&'a DiffSetGroup> {
    let mut remaining: Vec<&DiffSetGroup> = violated.to_vec();
    let mut selected: Vec<&DiffSetGroup> = Vec::new();
    let mut covered = AttrSet::EMPTY;
    while selected.len() < max && !remaining.is_empty() {
        // Score: primarily edge count (descending), secondarily overlap with
        // already covered attributes (ascending).
        let (idx, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|(_, g)| {
                let overlap = g.attrs.intersection(covered).len();
                (std::cmp::Reverse(g.edges.len()), overlap)
            })
            .expect("remaining is non-empty");
        let chosen = remaining.remove(idx);
        covered = covered.union(chosen.attrs);
        selected.push(chosen);
    }
    selected
}

/// A selected difference-set group, its edges in local vertex ids of the
/// enumeration's unresolved graphs.
struct Selected {
    attrs: AttrSet,
    edges: Vec<(usize, usize)>,
}

struct Context<'a> {
    problem: &'a RepairProblem,
    tau: usize,
    budget: usize,
    nodes: usize,
    best: Vec<RepairState>,
    /// Every `push_minimal` call in order, with its path threshold (the
    /// largest leave-unresolved `|cover| · α` on the path) — the raw
    /// material for [`HeuristicCache`]'s τ-derivable entries.
    raw: Vec<(RepairState, usize)>,
    /// Set when the node budget cut the enumeration short.
    truncated: bool,
    /// Set when some leave-unresolved branch was infeasible at this `τ`.
    skipped_any: bool,
}

impl<'a> Context<'a> {
    /// Recursive enumeration of minimal goal candidates (Algorithm 3).
    ///
    /// * `current` — the state built so far (extends the root state);
    /// * `unresolved` — accumulated edges of difference sets we chose *not*
    ///   to resolve (their vertex cover must stay within the budget);
    /// * `path_threshold` — largest `|cover| · α` of any leave-unresolved
    ///   decision on the path so far (0 if none);
    /// * `remaining` — difference sets still to be decided.
    fn recurse(
        &mut self,
        current: RepairState,
        unresolved: UndirectedGraph,
        path_threshold: usize,
        remaining: &[&Selected],
    ) {
        self.nodes += 1;
        if remaining.is_empty() {
            self.push_minimal(current, path_threshold);
            return;
        }
        if self.nodes >= self.budget {
            // Budget exhausted: optimistically assume the rest resolves for
            // free. `current` is a lower-bound witness.
            self.truncated = true;
            self.push_minimal(current, path_threshold);
            return;
        }
        let d = remaining[0];
        let rest = &remaining[1..];

        // If the choices made for earlier difference sets already resolve
        // `d`, it imposes no further constraint.
        let relaxed = self.problem.relaxed_fds(&current);
        let violated_fds: Vec<usize> = relaxed
            .iter()
            .filter(|(_, fd)| fd.lhs.is_disjoint_from(d.attrs) && d.attrs.contains(fd.rhs))
            .map(|(j, _)| j)
            .collect();
        if violated_fds.is_empty() {
            self.recurse(current, unresolved, path_threshold, rest);
            return;
        }

        // Option 1: leave `d` unresolved, paying for it through the vertex
        // cover of the accumulated unresolved edges (Algorithm 3, lines 6-11).
        let mut with_d = unresolved.clone();
        for &(u, v) in &d.edges {
            with_d.add_edge(u, v);
        }
        let cover = approx_vertex_cover(&with_d);
        let threshold = cover.len() * self.problem.alpha();
        if threshold <= self.tau {
            self.recurse(current.clone(), with_d, path_threshold.max(threshold), rest);
        } else {
            self.skipped_any = true;
        }
        // Candidate attributes per violated FD: any attribute of `d` other
        // than that FD's RHS (all such attributes are outside the current
        // LHS because the LHS is disjoint from `d`).
        let choices: Vec<(usize, Vec<rt_relation::AttrId>)> = violated_fds
            .iter()
            .map(|&j| {
                let fd = relaxed.get(j);
                let attrs: Vec<rt_relation::AttrId> = d.attrs.without(fd.rhs).iter().collect();
                (j, attrs)
            })
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
            let ext_relaxed = self.problem.relaxed_fds(&extended);
            let still: Vec<&Selected> = rest
                .iter()
                .copied()
                .filter(|g| {
                    ext_relaxed
                        .iter()
                        .any(|(_, fd)| fd.lhs.is_disjoint_from(g.attrs) && g.attrs.contains(fd.rhs))
                })
                .collect();
            self.recurse(extended, unresolved.clone(), path_threshold, &still);
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

    /// Inserts a candidate goal state, dropping any state that extends
    /// another candidate (only minimal states matter for the minimum cost).
    /// The raw push (and its path threshold) is recorded regardless, so a
    /// cached run can replay this filter for tighter `τ` values.
    fn push_minimal(&mut self, candidate: RepairState, path_threshold: usize) {
        self.raw.push((candidate.clone(), path_threshold));
        if self.best.iter().any(|s| candidate.extends(s)) {
            return;
        }
        self.best.retain(|s| !s.extends(&candidate));
        self.best.push(candidate);
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
    fn budget_exhaustion_stays_optimistic() {
        let problem = figure2_problem();
        let tight = HeuristicConfig {
            max_diff_sets: 5,
            node_budget: 1,
        };
        let root = RepairState::root(2);
        let exact = exact_cheapest_goal(&problem, &root, 2).unwrap();
        let h = goal_cost_estimate(&problem, &root, 2, &tight);
        let lb = h.lower_bound.expect("budget fallback must keep a bound");
        assert!(lb <= exact + 1e-9);
    }

    #[test]
    fn cache_export_round_trips_and_replays_identically() {
        let problem = figure2_problem();
        let config = HeuristicConfig::default();
        let mut cache = HeuristicCache::new();
        let root = RepairState::root(2);
        let states: Vec<RepairState> = std::iter::once(root.clone())
            .chain(root.children(problem.sigma(), problem.arity()))
            .collect();
        let refs: Vec<&RepairState> = states.iter().collect();
        let live = cache.evaluate_many(&problem, &refs, 3, &config, Parallelism::Serial);
        let exported = cache.export_entries();
        assert!(!exported.is_empty());
        let mut restored =
            HeuristicCache::from_exported(exported.clone(), cache.hits(), cache.nodes_spent());
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.hits(), cache.hits());
        assert_eq!(restored.nodes_spent(), cache.nodes_spent());
        // The restored cache serves the same τ from its entries: every
        // evaluation is a hit with the same lower bound.
        let replayed = restored.evaluate_many(&problem, &refs, 3, &config, Parallelism::Serial);
        for (a, b) in live.iter().zip(&replayed) {
            assert_eq!(a.lower_bound, b.lower_bound);
            assert!(b.cache_hit);
        }
        // Export order is deterministic (sorted by key).
        assert_eq!(restored.export_entries(), exported);
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
        let all = [&g1, &g2, &g3];
        let selected = select_diff_sets(&all, 2);
        assert_eq!(selected.len(), 2);
        assert_eq!(selected[0].edges.len(), 3);
        assert_eq!(selected[1].edges.len(), 2);
    }
}
