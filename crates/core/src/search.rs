//! Searching the space of FD relaxations (Algorithm 2 and the best-first
//! baseline of Section 5.1).
//!
//! Both algorithms traverse the tree-shaped state space of
//! [`RepairState`]s rooted at "no modification". They differ only in the
//! priority that orders the open list:
//!
//! * **A\*** ([`SearchAlgorithm::AStar`]) orders states by `gc(S)`, the
//!   heuristic lower bound on the cost of the cheapest goal descendant
//!   (computed by [`crate::heuristic`]), and prunes states with no goal
//!   descendant at all;
//! * **best-first** ([`SearchAlgorithm::BestFirst`]) orders states by their own
//!   cost `dist_c(Σ, Σ')` — correct because the weighting function is
//!   monotone, but it expands far more states (Figures 9–12 of the paper
//!   quantify the gap).
//!
//! Both return the cheapest relaxation `Σ'` whose
//! `δ_P(Σ', I) = α · |C2opt(Σ', I)|` fits within the cell budget `τ`,
//! together with search statistics (expanded/generated states, heuristic
//! work).

use crate::heuristic::{goal_cost_estimate, HeuristicCache, HeuristicConfig, HeuristicValue};
use crate::problem::RepairProblem;
use crate::state::RepairState;
use rt_constraints::FdSet;
use rt_par::{par_map_indexed, Parallelism};
use rt_relation::work::{Slot, Telemetry};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchAlgorithm {
    /// A* with the difference-set heuristic (the paper's `A*-Repair`).
    AStar,
    /// Cost-ordered best-first search (the paper's `Best-First-Repair`).
    BestFirst,
}

/// Tuning knobs shared by both searches.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Hard cap on the number of expanded (popped) states; prevents runaway
    /// searches on adversarial inputs. When hit, the search reports failure
    /// with `stats.truncated = true`.
    pub max_expansions: usize,
    /// Heuristic configuration (A* only).
    pub heuristic: HeuristicConfig,
    /// Worker threads for the parallel parts of the pipeline (subgraph
    /// filtering, per-component vertex cover, child heuristic evaluation,
    /// the τ-sweep and the data-repair step). Results are bit-identical for
    /// every setting; this only trades wall-clock time for cores.
    pub parallelism: Parallelism,
    /// Memoize the structural half of `gc(S)` in a
    /// [`crate::heuristic::HeuristicCache`]. Bit-identical results either
    /// way; on saves the exponential enumeration whenever a projected
    /// difference-set key repeats at an answerable `τ`.
    pub heuristic_cache: bool,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_expansions: 500_000,
            heuristic: HeuristicConfig::default(),
            parallelism: Parallelism::Auto,
            heuristic_cache: true,
        }
    }
}

/// Counters describing one search run. Merges and deltas go through
/// [`Telemetry`]: counters add, the cache-size gauge keeps the larger value
/// and `truncated` ORs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// States popped from the open list ("visited" in the paper's figures).
    pub states_expanded: usize,
    /// States pushed onto the open list.
    pub states_generated: usize,
    /// Recursion nodes spent inside the heuristic (A* only). Cache hits
    /// charge zero nodes; this counts actual enumeration work.
    pub heuristic_nodes: usize,
    /// Heuristic evaluations served from the memo cache without running the
    /// enumeration.
    pub heuristic_cache_hits: usize,
    /// Distinct structural entries held by the heuristic cache (projected
    /// difference-set keys) — a gauge (the current cache size), not a
    /// cumulative counter.
    pub heuristic_cache_entries: usize,
    /// `true` when the expansion cap was hit before finding a goal.
    pub truncated: bool,
}

impl Telemetry for SearchStats {
    #[rustfmt::skip]
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("states_expanded", Slot::Count(&mut self.states_expanded)),
            ("states_generated", Slot::Count(&mut self.states_generated)),
            ("heuristic_nodes", Slot::Count(&mut self.heuristic_nodes)),
            ("heuristic_cache_hits", Slot::Count(&mut self.heuristic_cache_hits)),
            ("heuristic_cache_entries", Slot::Gauge(&mut self.heuristic_cache_entries)),
            ("truncated", Slot::Flag(&mut self.truncated)),
        ]
    }
}

/// Folds one batch of heuristic evaluations into the stats — the single
/// accounting path for heuristic work, shared by `run_search` and the
/// τ-sweep (both its refresh loop and its child expansion). Cache hits
/// report `nodes == 0`, so `heuristic_nodes` counts enumeration work only.
pub(crate) fn charge_heuristic(stats: &mut SearchStats, values: &[HeuristicValue]) {
    for v in values {
        stats.heuristic_nodes += v.nodes;
        if v.cache_hit {
            stats.heuristic_cache_hits += 1;
        }
    }
}

/// Evaluates `gc` for a batch of states, through the cache when enabled or
/// via the uncached per-state reference path otherwise. Both paths produce
/// bit-identical lower bounds; only the `nodes`/`cache_hit` accounting
/// differs.
pub(crate) fn evaluate_heuristic_batch(
    cache: &mut HeuristicCache,
    use_cache: bool,
    problem: &RepairProblem,
    states: &[&RepairState],
    tau: usize,
    config: &SearchConfig,
) -> Vec<HeuristicValue> {
    if use_cache {
        cache.evaluate_many(problem, states, tau, &config.heuristic, config.parallelism)
    } else {
        par_map_indexed(config.parallelism, states.len(), |i| {
            goal_cost_estimate(problem, states[i], tau, &config.heuristic)
        })
    }
}

/// A minimal FD relaxation found by the search.
#[derive(Debug, Clone)]
pub struct FdRepair {
    /// The search state (per-FD LHS extensions `Δ_c`).
    pub state: RepairState,
    /// The relaxed FD set `Σ'`.
    pub fd_set: FdSet,
    /// `dist_c(Σ, Σ')` under the problem's weighting function.
    pub dist_c: f64,
    /// `δ_P(Σ', I)`: upper bound on the cell changes needed for `Σ'`.
    pub delta_p: usize,
    /// Rows of the 2-approximate vertex cover of the remaining conflicts.
    pub cover_rows: Vec<usize>,
}

/// Outcome of one FD-modification search.
#[derive(Debug, Clone)]
pub struct FdRepairOutcome {
    /// The repair, or `None` when no relaxation fits the budget (or the
    /// expansion cap was hit).
    pub repair: Option<FdRepair>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Open-list entry ordered by ascending priority (BinaryHeap is a max-heap,
/// so comparisons are reversed).
struct OpenEntry {
    priority: f64,
    tie: f64,
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
        // Reverse: smaller priority = greater entry = popped first.
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| other.tie.total_cmp(&self.tie))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Shared search driver for Algorithm 2 and the best-first baseline — the
/// primitive the engine's `fd_repair_at` delegates to, with the traversal
/// order chosen by `algorithm` (A* heuristic vs. plain `dist_c`).
pub fn run_search(
    problem: &RepairProblem,
    tau: usize,
    config: &SearchConfig,
    algorithm: SearchAlgorithm,
) -> FdRepairOutcome {
    let mut stats = SearchStats::default();
    let mut cache = HeuristicCache::new();
    let mut seq = 0u64;
    let mut open: BinaryHeap<OpenEntry> = BinaryHeap::new();
    let root = RepairState::root(problem.fd_count());
    open.push(OpenEntry {
        priority: 0.0,
        tie: 0.0,
        seq,
        state: root,
    });
    stats.states_generated += 1;

    let outcome_repair = loop {
        let Some(entry) = open.pop() else { break None };
        if stats.states_expanded >= config.max_expansions {
            stats.truncated = true;
            break None;
        }
        stats.states_expanded += 1;
        let state = entry.state;

        // Goal test: δ_P(Σ_h, I) ≤ τ.
        let cover = problem.cover_for_with(&state, config.parallelism);
        let delta_p = cover.len() * problem.alpha();
        if delta_p <= tau {
            let fd_set = problem.relaxed_fds(&state);
            let dist_c = problem.dist_c(&state);
            break Some(FdRepair {
                state,
                fd_set,
                dist_c,
                delta_p,
                cover_rows: cover.iter().collect(),
            });
        }

        // Expand children: priorities are independent per child, so the
        // heuristic evaluations fan out over worker threads; pushing in
        // child order keeps `seq` (and thus tie-breaking) deterministic.
        let children = state.children(problem.sigma(), problem.arity());
        let costs: Vec<f64> = par_map_indexed(config.parallelism, children.len(), |i| {
            problem.dist_c(&children[i])
        });
        let values: Vec<HeuristicValue> = match algorithm {
            SearchAlgorithm::BestFirst => costs
                .iter()
                .map(|&cost| HeuristicValue {
                    lower_bound: Some(cost),
                    nodes: 0,
                    cache_hit: false,
                })
                .collect(),
            SearchAlgorithm::AStar => {
                let refs: Vec<&RepairState> = children.iter().collect();
                evaluate_heuristic_batch(
                    &mut cache,
                    config.heuristic_cache,
                    problem,
                    &refs,
                    tau,
                    config,
                )
            }
        };
        charge_heuristic(&mut stats, &values);
        for ((child, cost), value) in children.into_iter().zip(costs).zip(values) {
            if let Some(priority) = value.lower_bound {
                seq += 1;
                stats.states_generated += 1;
                open.push(OpenEntry {
                    priority,
                    tie: cost,
                    seq,
                    state: child,
                });
            }
        }
    };

    stats.heuristic_cache_entries = cache.len();
    FdRepairOutcome {
        repair: outcome_repair,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::WeightKind;
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

    /// Brute-force the cheapest goal over the entire space.
    fn exhaustive_optimum(problem: &RepairProblem, tau: usize) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut stack = vec![RepairState::root(problem.fd_count())];
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
    fn astar_matches_exhaustive_optimum_on_figure2() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        for tau in 0..=6 {
            let expected = exhaustive_optimum(&problem, tau);
            let got = run_search(&problem, tau, &config, SearchAlgorithm::AStar);
            match expected {
                Some(opt) => {
                    let repair = got.repair.unwrap_or_else(|| {
                        panic!("A* found nothing for τ={tau}, expected cost {opt}")
                    });
                    assert!(
                        (repair.dist_c - opt).abs() < 1e-9,
                        "τ={tau}: A* cost {} vs optimum {opt}",
                        repair.dist_c
                    );
                    assert!(repair.delta_p <= tau);
                }
                None => assert!(got.repair.is_none(), "τ={tau}: no goal should exist"),
            }
        }
    }

    #[test]
    fn best_first_matches_astar_answers() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        for tau in 0..=6 {
            let a = run_search(&problem, tau, &config, SearchAlgorithm::AStar);
            let b = run_search(&problem, tau, &config, SearchAlgorithm::BestFirst);
            match (a.repair, b.repair) {
                (Some(ra), Some(rb)) => {
                    assert!((ra.dist_c - rb.dist_c).abs() < 1e-9, "τ={tau}")
                }
                (None, None) => {}
                (x, y) => panic!("τ={tau}: A*={:?} best-first={:?}", x.is_some(), y.is_some()),
            }
        }
    }

    #[test]
    fn figure3_tau2_selects_single_attribute_extension() {
        // For τ = 2 the paper says the best repairs are CA->B/C->D or
        // DA->B/C->D, both at cost 1 (attribute-count weighting).
        let problem = figure2_problem();
        let got = run_search(
            &problem,
            2,
            &SearchConfig::default(),
            SearchAlgorithm::AStar,
        );
        let repair = got.repair.unwrap();
        assert_eq!(repair.dist_c, 1.0);
        assert_eq!(repair.delta_p, 2);
        let schema = problem.instance().schema().clone();
        let rendered = repair.fd_set.display_with(&schema);
        assert!(
            rendered == "{A,C -> B; C -> D}" || rendered == "{A,D -> B; C -> D}",
            "unexpected Σ': {rendered}"
        );
    }

    #[test]
    fn tau_zero_requires_resolving_everything_by_fd_changes() {
        let problem = figure2_problem();
        let got = run_search(
            &problem,
            0,
            &SearchConfig::default(),
            SearchAlgorithm::AStar,
        );
        let repair = got.repair.expect("a pure FD repair must exist");
        assert_eq!(repair.delta_p, 0);
        // The relaxed FDs must hold on the original data.
        assert!(repair.fd_set.holds_on(problem.instance()));
        // Exhaustive check that the cost is minimal.
        let opt = exhaustive_optimum(&problem, 0).unwrap();
        assert!((repair.dist_c - opt).abs() < 1e-9);
    }

    #[test]
    fn astar_expands_no_more_states_than_best_first() {
        let problem = figure2_problem();
        let config = SearchConfig::default();
        for tau in [0usize, 1, 2, 3] {
            let a = run_search(&problem, tau, &config, SearchAlgorithm::AStar);
            let b = run_search(&problem, tau, &config, SearchAlgorithm::BestFirst);
            assert!(
                a.stats.states_expanded <= b.stats.states_expanded,
                "τ={tau}: A* expanded {} vs best-first {}",
                a.stats.states_expanded,
                b.stats.states_expanded
            );
        }
    }

    #[test]
    fn expansion_cap_reports_truncation() {
        let problem = figure2_problem();
        let config = SearchConfig {
            max_expansions: 1,
            ..Default::default()
        };
        // τ = 0 forces a deep search; one expansion is the root only.
        let got = run_search(&problem, 0, &config, SearchAlgorithm::AStar);
        assert!(got.repair.is_none());
        assert!(got.stats.truncated);
    }

    #[test]
    fn clean_data_needs_no_modification() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst =
            Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![2, 5], vec![3, 5]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let got = run_search(
            &problem,
            0,
            &SearchConfig::default(),
            SearchAlgorithm::AStar,
        );
        let repair = got.repair.unwrap();
        assert!(repair.state.is_root());
        assert_eq!(repair.dist_c, 0.0);
        assert_eq!(repair.delta_p, 0);
        assert_eq!(got.stats.states_expanded, 1);
    }

    #[test]
    fn distinct_count_weighting_still_finds_minimal_repairs() {
        // Same Figure-2 instance but with the paper's distinct-count
        // weighting; exhaustive optimum must still be matched.
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
        let problem = RepairProblem::with_weight(&inst, &fds, WeightKind::DistinctCount);
        for tau in 0..=4 {
            let expected = exhaustive_optimum(&problem, tau);
            let got = run_search(
                &problem,
                tau,
                &SearchConfig::default(),
                SearchAlgorithm::AStar,
            );
            match expected {
                Some(opt) => {
                    let r = got.repair.unwrap();
                    assert!((r.dist_c - opt).abs() < 1e-9, "τ={tau}");
                }
                None => assert!(got.repair.is_none()),
            }
        }
    }

    #[test]
    fn merging_the_delta_since_a_snapshot_reproduces_the_later_stats() {
        let a = SearchStats {
            states_expanded: 3,
            states_generated: 10,
            heuristic_nodes: 40,
            heuristic_cache_hits: 2,
            heuristic_cache_entries: 7,
            truncated: false,
        };
        let b = SearchStats {
            states_expanded: 8,
            states_generated: 25,
            heuristic_nodes: 41,
            heuristic_cache_hits: 9,
            heuristic_cache_entries: 12,
            truncated: true,
        };
        let delta = b.since(&a);
        assert_eq!(delta.states_expanded, 5);
        // The gauge and the flag pass through `since` …
        assert_eq!(delta.heuristic_cache_entries, 12);
        assert!(delta.truncated);
        // … so merging the delta back into `a` reproduces `b` exactly:
        // counters add, the gauge takes the max and the flag ORs.
        let mut merged = a;
        merged.absorb(&delta);
        assert_eq!(merged, b);
        // The gauge is a max, not a sum.
        let mut gauge = b;
        gauge.absorb(&a);
        assert_eq!(gauge.heuristic_cache_entries, 12);
    }
}
