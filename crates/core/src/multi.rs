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
//!
//! [`RangeSearch`] is the crate's only A* traversal: Algorithm 2 is the
//! one-point range `[τ, τ]`, which ends at its first goal.

use crate::heuristic::{goal_cost_estimate, HeuristicCache};
use crate::problem::RepairProblem;
use crate::repair::Repair;
use crate::search::{run_search, FdRepair, SearchAlgorithm, SearchConfig, SearchStats};
use crate::state::RepairState;
use rt_par::{par_map_coarse, par_map_indexed, Parallelism};
use rt_relation::work::Telemetry;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// Open-list entry, ordered so that [`BinaryHeap`] (a max-heap) pops the
/// smallest `(priority, cost, seq)` first. `seq` is the insertion order, so a
/// `(priority, cost)` tie goes to the entry generated first — which tied
/// state expands first decides which repair is recorded.
struct OpenEntry {
    priority: f64,
    cost: f64,
    seq: u64,
    state: RepairState,
}

impl PartialEq for OpenEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenEntry {}
impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the smaller key is the greater entry, popped first.
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| other.cost.total_cmp(&self.cost))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The state of a [`RangeSearch`]: everything the traversal knows except its
/// borrow of the problem. A live search holds one; suspending hands it out.
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
    open: BinaryHeap<OpenEntry>,
    /// `seq` of the next entry pushed onto `open`.
    next_seq: u64,
    tau: i64,
    tau_low: i64,
    tau_high: usize,
    current_upper: usize,
    stats: SearchStats,
    exhausted: bool,
    found: Vec<RangedFdRepair>,
    /// Memo table for the structural half of `gc(S)`, kept so that
    /// suspend/resume keeps warm entries.
    cache: HeuristicCache,
}

impl SweepCheckpoint {
    /// The signed `τ` cursor a sweep bound `tau` starts at: `tau` itself,
    /// clamped to `i64::MAX`. No state needs a larger budget, since `δ_P`
    /// counts cells, so the clamp changes no repair.
    fn cursor(tau: usize) -> i64 {
        i64::try_from(tau).unwrap_or(i64::MAX)
    }

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

impl SweepCheckpoint {
    /// Lower bounds `gc(S)` at the current `τ` for a batch of states, with
    /// the work charged to the stats — the single accounting path for
    /// heuristic work (refresh and child expansion alike). Goes through the
    /// cache when enabled, or the uncached per-state reference path
    /// otherwise: both give bit-identical bounds and differ only in the
    /// `nodes`/`cache_hit` accounting. Cache hits report `nodes == 0`, so
    /// `heuristic_nodes` counts enumeration work only.
    fn estimate(
        &mut self,
        problem: &RepairProblem,
        states: &[&RepairState],
        config: &SearchConfig,
    ) -> Vec<Option<f64>> {
        let tau = self.tau as usize;
        let values = if config.heuristic_cache {
            self.cache
                .evaluate_many(problem, states, tau, &config.heuristic, config.parallelism)
        } else {
            par_map_indexed(config.parallelism, states.len(), |i| {
                goal_cost_estimate(problem, states[i], tau, &config.heuristic)
            })
        };
        values
            .iter()
            .map(|v| {
                self.stats.heuristic_nodes += v.nodes;
                self.stats.heuristic_cache_hits += usize::from(v.cache_hit);
                v.lower_bound
            })
            .collect()
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

/// The one A* traversal of the crate: a resumable Range-Repair (Algorithm 6,
/// `Find_Repairs_FDs`), the query-state cache behind the engine's streaming
/// sweep. Algorithm 2 is the one-point range `[τ, τ]`
/// ([`crate::search::run_search`]).
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
    algorithm: SearchAlgorithm,
    /// Everything [`RangeSearch::suspend`] hands out.
    sweep: SweepCheckpoint,
    /// How much of `sweep.found` has been handed out by `next_repair`;
    /// below `found.len()` only right after a resume, while the
    /// already-found prefix replays without search work.
    replay_idx: usize,
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
        Self::start(
            problem,
            tau_low,
            tau_high,
            config,
            SearchAlgorithm::AStar,
            cache,
        )
    }

    /// A traversal ordered by `algorithm`: A* by `gc(S)`, refreshed whenever
    /// `τ` tightens; best-first by `dist_c(S)`, which does not depend on `τ`.
    pub(crate) fn start(
        problem: &'p RepairProblem,
        tau_low: usize,
        tau_high: usize,
        config: &SearchConfig,
        algorithm: SearchAlgorithm,
        cache: HeuristicCache,
    ) -> Self {
        let state = RepairState::root(problem.fd_count());
        let root = OpenEntry {
            priority: 0.0,
            cost: problem.dist_c(&state),
            seq: 0,
            state,
        };
        RangeSearch {
            problem,
            config: *config,
            algorithm,
            sweep: SweepCheckpoint {
                open: BinaryHeap::from(vec![root]),
                next_seq: 1,
                tau: SweepCheckpoint::cursor(tau_high),
                tau_low: SweepCheckpoint::cursor(tau_low),
                tau_high,
                current_upper: tau_high,
                // The root is the only state generated up front.
                stats: SearchStats {
                    states_generated: 1,
                    ..Default::default()
                },
                exhausted: false,
                found: Vec::new(),
                cache,
            },
            replay_idx: 0,
        }
    }

    /// Suspends the traversal into an owned [`SweepCheckpoint`], releasing
    /// the borrow of the problem.
    pub fn suspend(self) -> SweepCheckpoint {
        self.sweep
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
            algorithm: SearchAlgorithm::AStar,
            sweep: checkpoint,
            replay_idx: 0,
        }
    }

    /// The problem this search runs against.
    pub fn problem(&self) -> &'p RepairProblem {
        self.problem
    }

    /// Cumulative statistics over every `next_repair` call so far.
    pub fn stats(&self) -> SearchStats {
        self.sweep.stats
    }

    /// `true` once the range is exhausted (or the expansion cap was hit);
    /// every later [`RangeSearch::next_repair`] call returns `None`.
    pub fn is_exhausted(&self) -> bool {
        self.sweep.exhausted
    }

    /// The budget the traversal is currently exploring. Starts at the
    /// range's upper bound and tightens to `δ_P − 1` after each repair;
    /// `None` once it has dropped below the range's lower bound.
    pub fn current_tau(&self) -> Option<usize> {
        let s = &self.sweep;
        (s.tau >= s.tau_low && s.tau >= 0).then_some(s.tau as usize)
    }

    /// Resumes the traversal until the next distinct FD repair is found.
    ///
    /// Returns `None` when the range is exhausted; check
    /// [`SearchStats::truncated`] to distinguish a completed sweep from one
    /// stopped by the expansion cap.
    pub fn next_repair(&mut self) -> Option<RangedFdRepair> {
        // A resumed search first replays the repairs its checkpoint had
        // already produced — no search work, bit-identical order.
        if let Some(repair) = self.sweep.found.get(self.replay_idx) {
            self.replay_idx += 1;
            return Some(repair.clone());
        }
        if self.sweep.exhausted {
            return None;
        }
        let produced = self.advance();
        let s = &mut self.sweep;
        s.stats.heuristic_cache_entries = s.cache.len();
        if let Some(repair) = &produced {
            s.found.push(repair.clone());
            self.replay_idx = s.found.len();
        }
        produced
    }

    /// Pops states until one is a goal for the current `τ`, tightening `τ`
    /// to `δ_P − 1` there, or until the range is exhausted.
    fn advance(&mut self) -> Option<RangedFdRepair> {
        let problem = self.problem;
        let config = self.config;
        loop {
            let s = &mut self.sweep;
            if s.open.is_empty() || s.tau < s.tau_low {
                s.exhausted = true;
                return None;
            }
            if s.stats.states_expanded >= config.max_expansions {
                s.stats.truncated = true;
                s.exhausted = true;
                return None;
            }
            let state = s.open.pop().expect("open list is non-empty").state;
            s.stats.states_expanded += 1;

            let cover = problem.cover_for_with(&state, config.parallelism);
            let delta_p = cover.len() * problem.alpha();
            let goal = (delta_p as i64) <= s.tau;
            let upper = s.current_upper;
            if goal {
                s.tau = delta_p as i64 - 1;
            }
            if s.tau < s.tau_low {
                // Nothing pops the open list again: drop it unrefreshed.
                s.exhausted = true;
                s.open = BinaryHeap::new();
            } else {
                if goal {
                    s.current_upper = s.tau as usize;
                    if self.algorithm == SearchAlgorithm::AStar {
                        self.refresh();
                    }
                }
                // A goal's children are where strictly cheaper-data /
                // costlier-FD repairs of the rest of the range live.
                self.expand(&state);
            }
            if goal {
                return Some(RangedFdRepair {
                    repair: FdRepair::at_goal(problem, state, &cover),
                    tau_range: (delta_p, upper),
                });
            }
        }
    }

    /// Re-estimates every open entry for the tightened `τ` and drops the
    /// states with no goal descendant any more. Entries go in insertion
    /// order, the order checkpoints export, so the batch the heuristic
    /// cache sees does not depend on the heap's layout.
    fn refresh(&mut self) {
        let s = &mut self.sweep;
        let mut entries = std::mem::take(&mut s.open).into_vec();
        entries.sort_unstable_by_key(|e| e.seq);
        let states: Vec<&RepairState> = entries.iter().map(|e| &e.state).collect();
        let bounds = s.estimate(self.problem, &states, &self.config);
        s.open = entries
            .into_iter()
            .zip(bounds)
            .filter_map(|(mut e, bound)| {
                e.priority = bound?;
                Some(e)
            })
            .collect();
    }

    /// Generates the children of `state` and pushes those that can still
    /// reach a goal within the current `τ`. Each child's estimate is
    /// independent, so they fan out over worker threads; pushing in child
    /// order keeps `seq`, and thus tie-breaking, deterministic.
    fn expand(&mut self, state: &RepairState) {
        let problem = self.problem;
        let s = &mut self.sweep;
        let children = state.children(problem.sigma(), problem.arity());
        let costs: Vec<f64> = par_map_indexed(self.config.parallelism, children.len(), |i| {
            problem.dist_c(&children[i])
        });
        let priorities: Vec<Option<f64>> = match self.algorithm {
            SearchAlgorithm::BestFirst => costs.iter().copied().map(Some).collect(),
            SearchAlgorithm::AStar => {
                let refs: Vec<&RepairState> = children.iter().collect();
                s.estimate(problem, &refs, &self.config)
            }
        };
        for ((state, cost), priority) in children.into_iter().zip(costs).zip(priorities) {
            let Some(priority) = priority else { continue };
            s.stats.states_generated += 1;
            s.open.push(OpenEntry {
                priority,
                cost,
                seq: s.next_seq,
                state,
            });
            s.next_seq += 1;
        }
    }

    /// Drains the remaining repairs into a [`MultiRepairOutcome`].
    pub fn run_to_end(mut self) -> MultiRepairOutcome {
        let mut repairs = Vec::new();
        while let Some(r) = self.next_repair() {
            repairs.push(r);
        }
        MultiRepairOutcome {
            repairs,
            stats: self.sweep.stats,
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
        // Each per-τ search has its own cache; `absorb` reports the largest.
        stats.absorb(&outcome.stats);
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
        // The entry gauge reports the memo the sweep holds when it stops.
        let problem = figure2_problem();
        let config = SearchConfig::default();
        let mut search = RangeSearch::new(&problem, 0, problem.delta_p_original(), &config);
        while search.next_repair().is_some() {}
        let stats = search.stats();
        let cache = search.suspend().into_heuristic_cache();
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
