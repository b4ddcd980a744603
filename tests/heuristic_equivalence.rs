//! The heuristic oracle suite: memoization is a pure acceleration.
//!
//! Three contracts, mirroring the incremental ≡ rebuild loop of
//! `tests/incremental.rs`:
//!
//! 1. **Memoized ≡ unmemoized, value-for-value**: for random problems,
//!    [`HeuristicCache`] evaluations reproduce the uncached
//!    [`goal_cost_estimate`] bit-for-bit on every state of a traversal
//!    sample, at every `τ` — including repeat queries served from the cache
//!    and descending-`τ` queries derived from a recorded run.
//! 2. **Sweeps are cache-independent**: [`RangeSearch`] spectra with
//!    `SearchConfig::heuristic_cache` on and off agree on every field
//!    [`Spectrum::bit_identical`] compares; the uncached path is the
//!    reference.
//! 3. **Admissibility on random problems**: against an exhaustive
//!    goal-enumeration oracle on ≤ 6-row instances, `gc(S)` never exceeds
//!    the true cheapest goal descendant and never prunes a state that still
//!    has one (extends `heuristic_is_admissible_on_figure2` beyond the
//!    paper's fixture).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::core::heuristic::{goal_cost_estimate, HeuristicCache, HeuristicConfig};
use relative_trust::core::{RepairProblem, RepairState};
use relative_trust::prelude::*;
use relative_trust::relation::AttrId;

/// A random instance with small column domains, so FDs actually conflict.
fn random_instance(rng: &mut StdRng, max_rows: usize) -> Instance {
    let arity = rng.gen_range(4..6usize);
    let rows = rng.gen_range(4..max_rows + 1);
    let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::new("R", name_refs).unwrap();
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..3i64)).collect())
        .collect();
    Instance::from_int_rows(schema, &data).unwrap()
}

/// A random FD set: two FDs with 1–2 LHS attributes.
fn random_fds(rng: &mut StdRng, arity: usize) -> FdSet {
    let mut fds = FdSet::new();
    for _ in 0..2 {
        let rhs = rng.gen_range(0..arity);
        let lhs_size = rng.gen_range(1..3usize);
        let mut lhs = AttrSet::new();
        while lhs.len() < lhs_size {
            let a = rng.gen_range(0..arity);
            if a != rhs {
                lhs.insert(AttrId(a as u16));
            }
        }
        fds.push(Fd::new(lhs, AttrId(rhs as u16)));
    }
    fds
}

const WEIGHTS: [WeightKind; 3] = [
    WeightKind::AttrCount,
    WeightKind::DistinctCount,
    WeightKind::Entropy,
];

/// A breadth-first sample of the state space, capped so dense spaces stay
/// cheap while small spaces are covered whole.
fn sample_states(problem: &RepairProblem, cap: usize) -> Vec<RepairState> {
    let mut sample = vec![RepairState::root(problem.fd_count())];
    let mut i = 0;
    while i < sample.len() && sample.len() < cap {
        let children = sample[i].children(problem.sigma(), problem.arity());
        sample.extend(children);
        i += 1;
    }
    sample.truncate(cap);
    sample
}

/// Contract 1: the 48-case memoized ≡ unmemoized loop.
///
/// Each case evaluates a state sample through one long-lived cache, three
/// times per `τ` (cold, warm, warm-after-tighter-τ), walking `τ`
/// *downwards* like the sweep does — every answer must match the uncached
/// oracle bit-for-bit, a miss must charge the oracle's nodes and a hit none.
#[test]
fn memoized_heuristic_matches_the_uncached_oracle() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x6C0CA + case);
        let instance = random_instance(&mut rng, 18);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let weight = WEIGHTS[(case % 3) as usize];
        let problem = RepairProblem::with_weight(&instance, &fds, weight);
        let config = HeuristicConfig::default();
        let context = format!("case {case} ({weight:?})");

        let states = sample_states(&problem, 40);
        let mut cache = HeuristicCache::new();
        let mut hits = 0usize;
        let taus: Vec<usize> = {
            let hi = problem.delta_p_original();
            [hi, hi.saturating_sub(1), hi / 2, 0]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .rev()
                .collect()
        };
        for tau in taus {
            for round in 0..2 {
                for state in &states {
                    let oracle = goal_cost_estimate(&problem, state, tau, &config);
                    let cached = cache.evaluate(&problem, state, tau, &config);
                    assert_eq!(
                        cached.lower_bound.map(f64::to_bits),
                        oracle.lower_bound.map(f64::to_bits),
                        "{context}: τ={tau} round {round} state {state}: \
                         cached gc diverged from the oracle"
                    );
                    if cached.cache_hit {
                        hits += 1;
                        assert_eq!(cached.nodes, 0, "{context}: a hit charges no nodes");
                    } else {
                        assert_eq!(
                            cached.nodes, oracle.nodes,
                            "{context}: a miss must charge the oracle's node count"
                        );
                    }
                }
            }
        }
        assert!(
            hits > 0,
            "{context}: repeat queries never hit the cache — the suite is vacuous"
        );
    }
}

/// Contract 2: full sweeps with the heuristic cache on and off are
/// bit-identical — the cache changes how much work the sweep does, never
/// what it records. Compares the fields `Spectrum::bit_identical` compares.
#[test]
fn sweeps_are_bit_identical_with_and_without_the_heuristic_cache() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5EE7 + case);
        let instance = random_instance(&mut rng, 14);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let weight = WEIGHTS[(case % 3) as usize];
        let problem = RepairProblem::with_weight(&instance, &fds, weight);
        let context = format!("case {case} ({weight:?})");

        let sweep = |heuristic_cache| {
            let config = SearchConfig {
                max_expansions: 100_000,
                parallelism: Parallelism::Serial,
                heuristic_cache,
                ..SearchConfig::default()
            };
            let outcome =
                RangeSearch::new(&problem, 0, problem.delta_p_original(), &config).run_to_end();
            assert!(!outcome.stats.truncated, "{context}: truncated");
            let repairs = outcome.materialize(&problem, case);
            (outcome.repairs, repairs)
        };
        let (uncached, uncached_repairs) = sweep(false);
        let (cached, cached_repairs) = sweep(true);
        assert_eq!(uncached.len(), cached.len(), "{context}: spectrum sizes");
        for (i, (u, c)) in uncached.iter().zip(&cached).enumerate() {
            assert_eq!(u.tau_range, c.tau_range, "{context}: point {i} interval");
        }
        for (i, (u, c)) in uncached_repairs.iter().zip(&cached_repairs).enumerate() {
            let at = format!("{context}: point {i}");
            assert_eq!(u.state, c.state, "{at} state");
            assert_eq!(u.delta_p, c.delta_p, "{at} δP");
            assert_eq!(u.dist_c.to_bits(), c.dist_c.to_bits(), "{at} dist_c");
            assert_eq!(u.modified_fds, c.modified_fds, "{at} Σ'");
            assert_eq!(u.repaired_instance, c.repaired_instance, "{at} I'");
            assert_eq!(u.changed_cells, c.changed_cells, "{at} Δd");
        }
    }
}

/// Exhaustively enumerates the cheapest true goal descendant of `state` in
/// the search tree — the oracle for admissibility.
fn exact_cheapest_goal(problem: &RepairProblem, state: &RepairState, tau: usize) -> Option<f64> {
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

/// Contract 3: admissibility on randomized problems. Instances are capped
/// at 6 rows so the exhaustive oracle over every descendant stays cheap;
/// the heuristic may report a bound when no *tree* descendant is a goal
/// (it explores component-wise extensions, a superset), but must never
/// overshoot an existing goal's cost and never prune a state that has one.
#[test]
fn heuristic_is_admissible_on_random_problems() {
    let mut checked = 0usize;
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xAD15 + case);
        let instance = random_instance(&mut rng, 6);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let weight = WEIGHTS[(case % 3) as usize];
        let problem = RepairProblem::with_weight(&instance, &fds, weight);
        let config = HeuristicConfig::default();
        let context = format!("case {case} ({weight:?})");

        let mut cache = HeuristicCache::new();
        let states = sample_states(&problem, 25);
        let taus = [
            0,
            problem.delta_p_original() / 2,
            problem.delta_p_original(),
        ];
        for state in &states {
            for tau in taus {
                let h = goal_cost_estimate(&problem, state, tau, &config);
                // The memoized path obeys the same admissibility bound.
                let cached = cache.evaluate(&problem, state, tau, &config);
                assert_eq!(
                    cached.lower_bound.map(f64::to_bits),
                    h.lower_bound.map(f64::to_bits),
                    "{context}: state {state} τ={tau}"
                );
                let exact = exact_cheapest_goal(&problem, state, tau);
                match (h.lower_bound, exact) {
                    (Some(lb), Some(opt)) => assert!(
                        lb <= opt + 1e-9,
                        "{context}: state {state} τ={tau}: gc={lb} exceeds optimum {opt}"
                    ),
                    (Some(_), None) => {}
                    (None, Some(opt)) => panic!(
                        "{context}: state {state} τ={tau}: pruned but a goal of cost {opt} exists"
                    ),
                    (None, None) => {}
                }
                checked += 1;
            }
        }
    }
    // 24 cases × ≤25 sampled states × 3 τ values, minus small state spaces
    // — 918 checks as seeded. The floor only guards against the sampler or
    // the τ grid silently collapsing.
    assert!(
        checked >= 900,
        "oracle coverage collapsed: {checked} checks"
    );
}
