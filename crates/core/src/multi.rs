//! Generating repairs for a whole range of relative-trust values
//! (Algorithm 6, `Find_Repairs_FDs` / "Range-Repair") and the naive
//! "Sampling-Repair" comparator evaluated in Figure 13.
//!
//! Running Algorithm 1 once per candidate `τ` wastes work twice over:
//! distinct `τ` values often map to the *same* repair, and every invocation
//! re-expands the same prefix of the search tree. Range-Repair instead runs a
//! single A* traversal, starting at the upper end `τ_u` of the range; every
//! time a goal state is found its `δ_P` value closes off the upper part of
//! the range, `τ` is tightened to `δ_P − 1`, heuristic values are refreshed,
//! and the traversal simply continues until the range is exhausted.

use crate::heuristic::HeuristicCache;
use crate::problem::RepairProblem;
use crate::repair::Repair;
use crate::search::{
    charge_heuristic, evaluate_heuristic_batch, run_search, FdRepair, SearchAlgorithm,
    SearchConfig, SearchStats, Stopwatch,
};
use crate::state::RepairState;
use rt_par::{par_map_coarse, par_map_indexed, Parallelism};

/// An FD repair annotated with the relative-trust interval it covers: every
/// `τ` in `tau_range` (inclusive bounds) yields exactly this repair.
#[derive(Debug, Clone)]
pub struct RangedFdRepair {
    /// The FD repair.
    pub repair: FdRepair,
    /// Inclusive `τ` interval for which this is the τ-constrained FD repair.
    pub tau_range: (usize, usize),
}

/// Outcome of a multi-repair run (either Range-Repair or Sampling-Repair).
#[derive(Debug, Clone)]
pub struct MultiRepairOutcome {
    /// The distinct FD repairs, ordered from largest to smallest `τ`.
    pub repairs: Vec<RangedFdRepair>,
    /// Aggregate search statistics.
    pub stats: SearchStats,
}

impl MultiRepairOutcome {
    /// Materializes the corresponding data repairs (one per FD repair) using
    /// Algorithm 4.
    pub fn materialize(&self, problem: &RepairProblem, seed: u64) -> Vec<Repair> {
        self.materialize_with(problem, seed, Parallelism::Serial)
    }

    /// [`MultiRepairOutcome::materialize`] with an explicit [`Parallelism`]
    /// setting: the repairs of the spectrum are independent, so each
    /// materialization runs on its own worker thread (and each uses the
    /// component-parallel Algorithm 4 internally when it gets a slot).
    /// Bit-identical for every setting.
    pub fn materialize_with(
        &self,
        problem: &RepairProblem,
        seed: u64,
        par: Parallelism,
    ) -> Vec<Repair> {
        // With a single repair the fan-out is over components inside
        // Algorithm 4 instead; with several, one thread per repair avoids
        // oversubscription. Either way the choice depends only on the input.
        let inner = if self.repairs.len() <= 1 {
            par
        } else {
            Parallelism::Serial
        };
        par_map_coarse(par, self.repairs.len(), |i| {
            let ranged = &self.repairs[i];
            crate::repair::materialize_fd_repair(
                problem,
                &ranged.repair,
                ranged.tau_range.1,
                seed,
                inner,
                self.stats,
            )
        })
    }
}

/// Open-list entry for the range search; priorities are recomputed whenever
/// `τ` tightens, so we keep plain vectors and rescan (the open list is small
/// compared to the cost of the heuristic itself).
struct RangeEntry {
    state: RepairState,
    priority: f64,
    cost: f64,
}

/// The suspended state of a [`RangeSearch`]: everything the traversal knows
/// except its borrow of the problem.
///
/// A checkpoint is fully owned, so it can outlive the search (and the
/// borrow of the engine's problem) and be stashed across queries. Resuming
/// via [`RangeSearch::resume`] first *replays* the already-found repairs —
/// no search work, bit-identical order — and then continues the live
/// traversal from the saved open list, so
/// `resume(suspend(s)).run_to_end() ≡ s.run_to_end()` for every prefix of
/// the sweep.
///
/// A checkpoint is only meaningful against a problem whose FD-level
/// semantics (conflict edges, difference sets, weighting, `α`) are
/// unchanged since it was taken; the engine's mutation layer tracks exactly
/// that (`MutationEffect::search_state_invalidated`) and drops stale
/// checkpoints — the *invalidation-scoped* cache reset.
pub struct SweepCheckpoint {
    open: Vec<RangeEntry>,
    tau: i64,
    tau_low: i64,
    tau_high: usize,
    current_upper: usize,
    stats: SearchStats,
    exhausted: bool,
    found: Vec<RangedFdRepair>,
    cache: HeuristicCache,
}

impl SweepCheckpoint {
    /// The inclusive `τ` range the suspended sweep was started with.
    pub fn range(&self) -> (usize, usize) {
        (self.tau_low.max(0) as usize, self.tau_high)
    }

    /// Cumulative statistics at suspension time.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Repairs the suspended sweep had already produced.
    pub fn found_count(&self) -> usize {
        self.found.len()
    }

    /// `true` when the suspended sweep had already finished its range.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Takes the heuristic cache the suspended sweep accumulated.
    ///
    /// The cache stores only resolution *structure* (no weights, no open
    /// list), so it can be salvaged even when the checkpoint itself must be
    /// dropped — e.g. after a weight-only mutation that invalidates the
    /// search's priorities but leaves the difference-set groups unchanged.
    pub fn into_heuristic_cache(self) -> HeuristicCache {
        self.cache
    }
}

/// A [`SweepCheckpoint`] flattened into plain data for serialization: every
/// private field of the checkpoint as owned values a snapshot codec can
/// write and read back. Round-tripping through
/// [`SweepCheckpoint::export_parts`] / [`SweepCheckpoint::from_parts`]
/// preserves the sweep bit-for-bit: a resumed search over the rebuilt
/// checkpoint produces the same repairs in the same order as one over the
/// original.
#[derive(Debug, Clone)]
pub struct SweepCheckpointParts {
    /// Open-list entries as `(state, priority, cost)`, in list order.
    pub open: Vec<(RepairState, f64, f64)>,
    /// The budget the traversal is currently exploring.
    pub tau: i64,
    /// Lower bound of the sweep range.
    pub tau_low: i64,
    /// Upper bound of the sweep range.
    pub tau_high: usize,
    /// Upper end of the interval the next repair will cover.
    pub current_upper: usize,
    /// Cumulative statistics at suspension time.
    pub stats: SearchStats,
    /// Whether the sweep had finished its range.
    pub exhausted: bool,
    /// Repairs already produced, in production order.
    pub found: Vec<RangedFdRepair>,
    /// The heuristic cache's structural entries (sorted export order).
    pub cache_entries: Vec<crate::heuristic::CacheEntryExport>,
    /// The cache's hit counter at suspension time.
    pub cache_hits: usize,
    /// The cache's nodes-spent ledger at suspension time.
    pub cache_nodes_spent: usize,
}

impl SweepCheckpoint {
    /// Flattens the checkpoint into [`SweepCheckpointParts`].
    pub fn export_parts(&self) -> SweepCheckpointParts {
        SweepCheckpointParts {
            open: self
                .open
                .iter()
                .map(|e| (e.state.clone(), e.priority, e.cost))
                .collect(),
            tau: self.tau,
            tau_low: self.tau_low,
            tau_high: self.tau_high,
            current_upper: self.current_upper,
            stats: self.stats,
            exhausted: self.exhausted,
            found: self.found.clone(),
            cache_entries: self.cache.export_entries(),
            cache_hits: self.cache.hits(),
            cache_nodes_spent: self.cache.nodes_spent(),
        }
    }

    /// Reassembles a checkpoint from exported parts.
    pub fn from_parts(parts: SweepCheckpointParts) -> Self {
        SweepCheckpoint {
            open: parts
                .open
                .into_iter()
                .map(|(state, priority, cost)| RangeEntry {
                    state,
                    priority,
                    cost,
                })
                .collect(),
            tau: parts.tau,
            tau_low: parts.tau_low,
            tau_high: parts.tau_high,
            current_upper: parts.current_upper,
            stats: parts.stats,
            exhausted: parts.exhausted,
            found: parts.found,
            cache: HeuristicCache::from_exported(
                parts.cache_entries,
                parts.cache_hits,
                parts.cache_nodes_spent,
            ),
        }
    }
}

impl std::fmt::Debug for SweepCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepCheckpoint")
            .field("range", &self.range())
            .field("found", &self.found.len())
            .field("open", &self.open.len())
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

/// A resumable Range-Repair traversal (Algorithm 6, `Find_Repairs_FDs`):
/// the query-state cache behind the engine's streaming sweep.
///
/// The search keeps its open list, its current budget `τ` and its
/// cumulative statistics between calls to [`RangeSearch::next_repair`], so
/// adjacent `τ` values share vertex-cover and heuristic work instead of
/// re-expanding the same prefix of the state space. Draining the search
/// yields exactly the repairs (in the same order, bit for bit) that a
/// one-shot [`RangeSearch::run_to_end`] over the same range produces.
pub struct RangeSearch<'p> {
    problem: &'p RepairProblem,
    config: SearchConfig,
    open: Vec<RangeEntry>,
    tau: i64,
    tau_low: i64,
    tau_high: usize,
    current_upper: usize,
    stats: SearchStats,
    exhausted: bool,
    /// Every repair produced so far (live finds and replays alike), in
    /// order — what [`RangeSearch::suspend`] checkpoints.
    found: Vec<RangedFdRepair>,
    /// How much of `found` has been handed out by `next_repair`; below
    /// `found.len()` only right after a resume, while the already-found
    /// prefix replays without search work.
    replay_idx: usize,
    /// Memo table for the structural half of `gc(S)`; rides along in
    /// [`SweepCheckpoint`] so suspend/resume keeps warm entries.
    cache: HeuristicCache,
}

impl<'p> RangeSearch<'p> {
    /// Prepares a range search over `τ ∈ [tau_low, tau_high]`. No search
    /// work happens until the first [`RangeSearch::next_repair`] call.
    pub fn new(
        problem: &'p RepairProblem,
        tau_low: usize,
        tau_high: usize,
        config: &SearchConfig,
    ) -> Self {
        Self::new_with_cache(problem, tau_low, tau_high, config, HeuristicCache::new())
    }

    /// [`RangeSearch::new`] seeded with a pre-warmed heuristic cache (e.g.
    /// salvaged from a dropped checkpoint via
    /// [`SweepCheckpoint::into_heuristic_cache`]). The cache must have been
    /// built against a problem with the same difference-set groups and `α`;
    /// results are bit-identical to starting cold either way.
    pub fn new_with_cache(
        problem: &'p RepairProblem,
        tau_low: usize,
        tau_high: usize,
        config: &SearchConfig,
        cache: HeuristicCache,
    ) -> Self {
        // The root is the only state generated up front.
        let stats = SearchStats {
            states_generated: 1,
            ..Default::default()
        };
        RangeSearch {
            problem,
            config: *config,
            open: vec![RangeEntry {
                state: RepairState::root(problem.fd_count()),
                priority: 0.0,
                cost: 0.0,
            }],
            tau: tau_high as i64,
            tau_low: tau_low as i64,
            tau_high,
            current_upper: tau_high,
            stats,
            exhausted: false,
            found: Vec::new(),
            replay_idx: 0,
            cache,
        }
    }

    /// Suspends the traversal into an owned [`SweepCheckpoint`], releasing
    /// the borrow of the problem.
    pub fn suspend(self) -> SweepCheckpoint {
        SweepCheckpoint {
            open: self.open,
            tau: self.tau,
            tau_low: self.tau_low,
            tau_high: self.tau_high,
            current_upper: self.current_upper,
            stats: self.stats,
            exhausted: self.exhausted,
            found: self.found,
            cache: self.cache,
        }
    }

    /// Resumes a suspended traversal against `problem` (which must be
    /// FD-level-unchanged since the checkpoint was taken; see
    /// [`SweepCheckpoint`]). The repairs found before suspension replay
    /// first, with no search work; the live traversal then continues from
    /// the saved open list.
    pub fn resume(
        problem: &'p RepairProblem,
        checkpoint: SweepCheckpoint,
        config: &SearchConfig,
    ) -> Self {
        RangeSearch {
            problem,
            config: *config,
            open: checkpoint.open,
            tau: checkpoint.tau,
            tau_low: checkpoint.tau_low,
            tau_high: checkpoint.tau_high,
            current_upper: checkpoint.current_upper,
            stats: checkpoint.stats,
            exhausted: checkpoint.exhausted,
            found: checkpoint.found,
            replay_idx: 0,
            cache: checkpoint.cache,
        }
    }

    /// The problem this search runs against.
    pub fn problem(&self) -> &'p RepairProblem {
        self.problem
    }

    /// Cumulative statistics over every `next_repair` call so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// `true` once the range is exhausted (or the expansion cap was hit);
    /// every later [`RangeSearch::next_repair`] call returns `None`.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The budget the traversal is currently exploring. Starts at the
    /// range's upper bound and tightens to `δ_P − 1` after each repair;
    /// `None` once it has dropped below the range's lower bound.
    pub fn current_tau(&self) -> Option<usize> {
        (self.tau >= self.tau_low && self.tau >= 0).then_some(self.tau as usize)
    }

    /// Resumes the traversal until the next distinct FD repair is found.
    ///
    /// Returns `None` when the range is exhausted; check
    /// [`SearchStats::truncated`] to distinguish a completed sweep from one
    /// stopped by the expansion cap.
    pub fn next_repair(&mut self) -> Option<RangedFdRepair> {
        // A resumed search first replays the repairs its checkpoint had
        // already produced — no search work, bit-identical order.
        if self.replay_idx < self.found.len() {
            let repair = self.found[self.replay_idx].clone();
            self.replay_idx += 1;
            return Some(repair);
        }
        if self.exhausted {
            return None;
        }
        let start = Stopwatch::start_if(self.config.timing);
        let problem = self.problem;
        let config = self.config;
        let produced = loop {
            if self.open.is_empty() || self.tau < self.tau_low {
                self.exhausted = true;
                break None;
            }
            if self.stats.states_expanded >= config.max_expansions {
                self.stats.truncated = true;
                self.exhausted = true;
                break None;
            }
            // Pop the entry with the smallest priority (ties: smaller cost,
            // then insertion order). The shift-`remove` keeps the scan order
            // equal to insertion order, so a `(priority, cost)` tie resolves
            // the same way no matter which other entries have been popped
            // before it. `swap_remove` would let the list *layout* pick tie
            // winners instead, and which tied state expands first decides
            // which repair is recorded.
            let best_idx = self
                .open
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.priority
                        .total_cmp(&b.priority)
                        .then(a.cost.total_cmp(&b.cost))
                })
                .map(|(i, _)| i)
                .expect("open list is non-empty");
            let entry = self.open.remove(best_idx);
            self.stats.states_expanded += 1;
            let state = entry.state;

            let cover = problem.cover_for_with(&state, config.parallelism);
            let delta_p = cover.len() * problem.alpha();
            let mut found: Option<RangedFdRepair> = None;
            if (delta_p as i64) <= self.tau {
                // Goal for the current τ: record it and tighten the budget.
                let fd_set = problem.relaxed_fds(&state);
                let dist_c = problem.dist_c(&state);
                found = Some(RangedFdRepair {
                    repair: FdRepair {
                        state: state.clone(),
                        fd_set,
                        dist_c,
                        delta_p,
                        cover_rows: cover.iter().collect(),
                    },
                    tau_range: (delta_p, self.current_upper),
                });
                self.tau = delta_p as i64 - 1;
                if self.tau >= self.tau_low {
                    self.current_upper = self.tau as usize;
                }
                // Refresh heuristic values for the tightened budget; states
                // with no goal descendant any more are dropped. Entries are
                // independent, so the re-estimates fan out over worker
                // threads and surviving entries keep their original order.
                if self.tau >= 0 {
                    let new_tau = self.tau as usize;
                    let states: Vec<&RepairState> = self.open.iter().map(|e| &e.state).collect();
                    let refreshed = evaluate_heuristic_batch(
                        &mut self.cache,
                        config.heuristic_cache,
                        problem,
                        &states,
                        new_tau,
                        &config,
                    );
                    drop(states);
                    charge_heuristic(&mut self.stats, &refreshed);
                    let mut keep = refreshed.iter();
                    self.open.retain_mut(|e| {
                        let value = keep.next().expect("one refresh result per entry");
                        match value.lower_bound {
                            Some(lb) => {
                                e.priority = lb;
                                true
                            }
                            None => false,
                        }
                    });
                } else {
                    self.open.clear();
                }
            }

            if self.tau < self.tau_low {
                self.exhausted = true;
                break found;
            }

            // Expand children (both for goal and non-goal states; a goal's
            // children are where strictly cheaper-data / costlier-FD repairs
            // live). Like the refresh, the child estimates are independent.
            let new_tau = self.tau.max(0) as usize;
            let children = state.children(problem.sigma(), problem.arity());
            let costs: Vec<f64> = par_map_indexed(config.parallelism, children.len(), |i| {
                problem.dist_c(&children[i])
            });
            let child_refs: Vec<&RepairState> = children.iter().collect();
            let values = evaluate_heuristic_batch(
                &mut self.cache,
                config.heuristic_cache,
                problem,
                &child_refs,
                new_tau,
                &config,
            );
            drop(child_refs);
            charge_heuristic(&mut self.stats, &values);
            for ((child, cost), value) in children.into_iter().zip(costs).zip(values) {
                if let Some(lb) = value.lower_bound {
                    self.stats.states_generated += 1;
                    self.open.push(RangeEntry {
                        state: child,
                        priority: lb,
                        cost,
                    });
                }
            }

            if found.is_some() {
                break found;
            }
        };
        self.stats.heuristic_cache_entries = self.cache.len();
        self.stats.elapsed += start.elapsed();
        if let Some(repair) = &produced {
            self.found.push(repair.clone());
            self.replay_idx = self.found.len();
        }
        produced
    }

    /// Drains the remaining repairs into a [`MultiRepairOutcome`].
    pub fn run_to_end(mut self) -> MultiRepairOutcome {
        let mut repairs = Vec::new();
        while let Some(r) = self.next_repair() {
            repairs.push(r);
        }
        MultiRepairOutcome {
            repairs,
            stats: self.stats,
        }
    }
}

/// The naive comparator ("Sampling-Repair"): run the single-τ A* search at
/// every `τ` in `{tau_low, tau_low + step, ...} ∪ {tau_high}` and keep the
/// distinct results.
///
/// The per-τ searches are completely independent, so they fan out over
/// worker threads (`config.parallelism`), one τ per slot; results are merged
/// in descending-τ order, so the outcome is bit-identical to the serial
/// sweep. Each inner search runs serially to avoid oversubscription — the
/// sweep itself is the coarsest available unit of work.
pub fn sampling_search(
    problem: &RepairProblem,
    tau_low: usize,
    tau_high: usize,
    step: usize,
    config: &SearchConfig,
) -> MultiRepairOutcome {
    let start = Stopwatch::start_if(config.timing);
    let step = step.max(1);
    let mut stats = SearchStats::default();
    let mut repairs: Vec<RangedFdRepair> = Vec::new();

    let mut taus: Vec<usize> = (tau_low..=tau_high).step_by(step).collect();
    if taus.last() != Some(&tau_high) {
        taus.push(tau_high);
    }
    // Descending: mirrors Range-Repair's order (largest budget first).
    taus.reverse();

    let inner = SearchConfig {
        parallelism: Parallelism::Serial,
        ..*config
    };
    let outcomes = par_map_coarse(config.parallelism, taus.len(), |i| {
        run_search(problem, taus[i], &inner, SearchAlgorithm::AStar)
    });

    for (tau, outcome) in taus.into_iter().zip(outcomes) {
        // Each per-τ search has its own cache; `merge` reports the largest.
        stats.merge(&outcome.stats);
        if let Some(repair) = outcome.repair {
            let duplicate = repairs.iter().any(|r| r.repair.state == repair.state);
            if !duplicate {
                repairs.push(RangedFdRepair {
                    tau_range: (repair.delta_p, tau),
                    repair,
                });
            }
        }
    }

    stats.elapsed = start.elapsed();
    MultiRepairOutcome { repairs, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::WeightKind;
    use rt_constraints::FdSet;
    use rt_relation::{Instance, Schema};

    /// The non-deprecated spelling of Algorithm 6 the tests exercise.
    fn range_repair(
        problem: &RepairProblem,
        tau_low: usize,
        tau_high: usize,
        config: &SearchConfig,
    ) -> MultiRepairOutcome {
        RangeSearch::new(problem, tau_low, tau_high, config).run_to_end()
    }

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

    #[test]
    fn range_repair_finds_the_full_spectrum_on_figure2() {
        let problem = figure2_problem();
        let out = range_repair(
            &problem,
            0,
            problem.delta_p_original(),
            &SearchConfig::default(),
        );
        // δP values along the spectrum: 4 (no FD change), 2 (one attribute),
        // 0 (FD-only repair) → three distinct repairs.
        assert_eq!(out.repairs.len(), 3);
        let delta_ps: Vec<usize> = out.repairs.iter().map(|r| r.repair.delta_p).collect();
        assert_eq!(delta_ps, vec![4, 2, 0]);
        let dist_cs: Vec<f64> = out.repairs.iter().map(|r| r.repair.dist_c).collect();
        assert_eq!(dist_cs, vec![0.0, 1.0, 3.0]);
        // Ranges tile the interval [0, 4]: [4,4], [2,3], [0,1].
        assert_eq!(out.repairs[0].tau_range, (4, 4));
        assert_eq!(out.repairs[1].tau_range, (2, 3));
        assert_eq!(out.repairs[2].tau_range, (0, 1));
    }

    #[test]
    fn range_matches_per_tau_search() {
        // For every τ in the range, the repair Algorithm 2 finds must be the
        // one whose interval contains τ.
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let out = range_repair(&problem, 0, problem.delta_p_original(), &config);
        for tau in 0..=problem.delta_p_original() {
            let single = run_search(&problem, tau, &config, SearchAlgorithm::AStar)
                .repair
                .unwrap();
            let containing = out
                .repairs
                .iter()
                .find(|r| r.tau_range.0 <= tau && tau <= r.tau_range.1)
                .unwrap_or_else(|| panic!("no interval contains τ={tau}"));
            assert!(
                (single.dist_c - containing.repair.dist_c).abs() < 1e-9,
                "τ={tau}: single-shot cost {} vs range cost {}",
                single.dist_c,
                containing.repair.dist_c
            );
        }
    }

    #[test]
    fn sampling_repair_agrees_with_range_repair() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let hi = problem.delta_p_original();
        let range = range_repair(&problem, 0, hi, &config);
        let sampling = sampling_search(&problem, 0, hi, 1, &config);
        assert_eq!(range.repairs.len(), sampling.repairs.len());
        for (a, b) in range.repairs.iter().zip(sampling.repairs.iter()) {
            assert_eq!(a.repair.delta_p, b.repair.delta_p);
            assert!((a.repair.dist_c - b.repair.dist_c).abs() < 1e-9);
        }
        // Sampling with a sparse step may miss intermediate repairs but never
        // invents new ones.
        let sparse = sampling_search(&problem, 0, hi, hi.max(1), &config);
        assert!(sparse.repairs.len() <= range.repairs.len());
    }

    #[test]
    fn materialized_repairs_satisfy_their_fds() {
        let problem = figure2_problem();
        let out = range_repair(
            &problem,
            0,
            problem.delta_p_original(),
            &SearchConfig::default(),
        );
        let repairs = out.materialize(&problem, 11);
        assert_eq!(repairs.len(), out.repairs.len());
        for r in &repairs {
            assert!(r.modified_fds.holds_on(&r.repaired_instance));
            assert!(r.data_changes() <= r.delta_p);
        }
        // The extremes of the spectrum: first is a pure data repair, last a
        // pure FD repair.
        assert!(repairs.first().unwrap().is_pure_data_repair());
        assert!(repairs.last().unwrap().is_pure_fd_repair());
    }

    #[test]
    fn partial_range_only_returns_matching_repairs() {
        let problem = figure2_problem();
        let out = range_repair(&problem, 2, 3, &SearchConfig::default());
        assert_eq!(out.repairs.len(), 1);
        assert_eq!(out.repairs[0].repair.delta_p, 2);
        assert_eq!(out.repairs[0].tau_range, (2, 3));
    }

    #[test]
    fn suspend_resume_is_bit_identical_to_uninterrupted_sweep() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let hi = problem.delta_p_original();
        let reference = range_repair(&problem, 0, hi, &config);
        assert_eq!(reference.repairs.len(), 3);

        // Suspend after every possible prefix length, resume, drain.
        for cut in 0..=reference.repairs.len() {
            let mut search = RangeSearch::new(&problem, 0, hi, &config);
            for _ in 0..cut {
                search.next_repair().expect("prefix repair exists");
            }
            let checkpoint = search.suspend();
            assert_eq!(checkpoint.found_count(), cut);
            assert_eq!(checkpoint.range(), (0, hi));
            let resumed = RangeSearch::resume(&problem, checkpoint, &config).run_to_end();
            assert_eq!(resumed.repairs.len(), reference.repairs.len(), "cut={cut}");
            for (a, b) in reference.repairs.iter().zip(resumed.repairs.iter()) {
                assert_eq!(a.repair.state, b.repair.state);
                assert_eq!(a.repair.delta_p, b.repair.delta_p);
                assert_eq!(a.repair.cover_rows, b.repair.cover_rows);
                assert_eq!(a.tau_range, b.tau_range);
                assert!((a.repair.dist_c - b.repair.dist_c).abs() < 1e-12);
            }
            // The replayed prefix costs no additional expansions: total
            // stats equal the uninterrupted sweep's.
            assert_eq!(
                resumed.stats.states_expanded,
                reference.stats.states_expanded
            );
        }
    }

    #[test]
    fn checkpoint_parts_round_trip_bit_identically() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let hi = problem.delta_p_original();
        let reference = range_repair(&problem, 0, hi, &config);
        for cut in 0..=reference.repairs.len() {
            let mut search = RangeSearch::new(&problem, 0, hi, &config);
            for _ in 0..cut {
                search.next_repair().expect("prefix repair exists");
            }
            let checkpoint = search.suspend();
            let rebuilt = SweepCheckpoint::from_parts(checkpoint.export_parts());
            assert_eq!(rebuilt.range(), checkpoint.range());
            assert_eq!(rebuilt.found_count(), checkpoint.found_count());
            assert_eq!(rebuilt.is_exhausted(), checkpoint.is_exhausted());
            let resumed = RangeSearch::resume(&problem, rebuilt, &config).run_to_end();
            assert_eq!(resumed.repairs.len(), reference.repairs.len(), "cut={cut}");
            for (a, b) in reference.repairs.iter().zip(resumed.repairs.iter()) {
                assert_eq!(a.repair.state, b.repair.state);
                assert_eq!(a.repair.delta_p, b.repair.delta_p);
                assert_eq!(a.repair.cover_rows, b.repair.cover_rows);
                assert_eq!(a.tau_range, b.tau_range);
                assert_eq!(a.repair.dist_c.to_bits(), b.repair.dist_c.to_bits());
            }
            assert_eq!(
                resumed.stats.states_expanded,
                reference.stats.states_expanded
            );
        }
    }

    #[test]
    fn resuming_an_exhausted_checkpoint_replays_for_free() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let hi = problem.delta_p_original();
        let first = RangeSearch::new(&problem, 0, hi, &config).run_to_end();
        let mut search = RangeSearch::new(&problem, 0, hi, &config);
        while search.next_repair().is_some() {}
        let checkpoint = search.suspend();
        assert!(checkpoint.is_exhausted());
        let expanded_before = checkpoint.stats().states_expanded;
        let replayed = RangeSearch::resume(&problem, checkpoint, &config).run_to_end();
        assert_eq!(replayed.repairs.len(), first.repairs.len());
        // No new search work at all.
        assert_eq!(replayed.stats.states_expanded, expanded_before);
    }

    #[test]
    fn heuristic_accounting_matches_the_cache_ledger() {
        // `heuristic_nodes` must equal the sum of per-call
        // `HeuristicValue::nodes` — which, with the cache on, is exactly the
        // cache's own ledger of enumeration work (hits charge 0 nodes). Both
        // charge sites (τ-refresh and child expansion) go through the single
        // `charge_heuristic` path, so the two ledgers cannot drift.
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let mut search = RangeSearch::new(&problem, 0, problem.delta_p_original(), &config);
        while search.next_repair().is_some() {}
        let stats = search.stats();
        let cache = search.suspend().into_heuristic_cache();
        assert!(stats.heuristic_nodes > 0);
        assert_eq!(stats.heuristic_nodes, cache.nodes_spent());
        assert_eq!(stats.heuristic_cache_hits, cache.hits());
        assert_eq!(stats.heuristic_cache_entries, cache.len());
    }

    #[test]
    fn empty_range_on_clean_data() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![2, 3]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let out = range_repair(&problem, 0, 0, &SearchConfig::default());
        // Clean data: the root is the unique repair with δP = 0.
        assert_eq!(out.repairs.len(), 1);
        assert!(out.repairs[0].repair.state.is_root());
    }
}
