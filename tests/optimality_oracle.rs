//! Exhaustive optimality oracle for the A* traversal.
//!
//! Algorithm 2 ([`run_search`], A* and best-first alike) and Algorithm 6
//! ([`RangeSearch`]) share one traversal, so one oracle checks both. On tiny
//! random problems (≤ 5 attributes, ≤ 3 FDs, ≤ 12 rows, a third of them
//! with V-instance variables among the cells) the oracle enumerates every
//! extension state — every per-FD subset of `R ∖ (X ∪ {A})` — with its
//! `dist_c` and `δ_P`. Then, for every `τ ∈ 0..=δ_P(Σ)`:
//!
//! * [`run_search`] returns a goal (`δ_P ≤ τ`) whose `dist_c` is the minimum
//!   over all states with `δ_P ≤ τ`, and `None` exactly when no state fits;
//! * the repair whose interval of the `[0, δ_P(Σ)]` spectrum contains `τ`
//!   has that same `dist_c`, and no interval contains a `τ` no state fits;
//! * so does every repair of [`sampling_search`] at step 1 whose interval
//!   contains `τ`.
//!
//! Costs compare by bits. Each materialized spectrum repair `(Σ′, I′)`
//! satisfies `Σ′` and changes at most `δ_P(Σ′, I)` cells (Theorem 3).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::core::{
    run_search, sampling_search, RangeSearch, RepairProblem, RepairState, SearchAlgorithm,
    SearchConfig,
};
use relative_trust::prelude::*;
use relative_trust::relation::AttrId;

const CASES: u64 = 48;

const WEIGHTS: [WeightKind; 3] = [
    WeightKind::AttrCount,
    WeightKind::DistinctCount,
    WeightKind::Entropy,
];

/// A random instance with 3–5 attributes, 4–12 rows and 3-value domains,
/// so FDs actually conflict.
fn random_instance(rng: &mut StdRng) -> Instance {
    let arity = rng.gen_range(3..6usize);
    let rows = rng.gen_range(4..13usize);
    let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::new("R", name_refs).unwrap();
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..3i64)).collect())
        .collect();
    Instance::from_int_rows(schema, &data).unwrap()
}

/// One to three FDs with 1–2 LHS attributes each.
fn random_fds(rng: &mut StdRng, arity: usize) -> FdSet {
    let mut fds = FdSet::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let rhs = rng.gen_range(0..arity);
        let lhs_size = rng.gen_range(1..3usize).min(arity - 1);
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

/// Every subset of `set`.
fn subsets(set: AttrSet) -> Vec<AttrSet> {
    let attrs = set.to_vec();
    (0..1u32 << attrs.len())
        .map(|mask| {
            (0..attrs.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| attrs[i])
                .collect()
        })
        .collect()
}

/// `(dist_c, δ_P)` of every state of the search space.
fn every_state(problem: &RepairProblem) -> Vec<(f64, usize)> {
    let mut states = vec![Vec::new()];
    for (_, fd) in problem.sigma().iter() {
        let options = subsets(fd.extension_candidates(problem.arity()));
        states = states
            .into_iter()
            .flat_map(|prefix: Vec<AttrSet>| {
                options.iter().map(move |&ext| {
                    let mut next = prefix.clone();
                    next.push(ext);
                    next
                })
            })
            .collect();
    }
    states
        .into_iter()
        .map(|extensions| {
            let state = RepairState::new(extensions);
            (problem.dist_c(&state), problem.delta_p(&state))
        })
        .collect()
}

/// The cheapest `dist_c` among states with `δ_P ≤ tau`.
fn cheapest_within(states: &[(f64, usize)], tau: usize) -> Option<f64> {
    states
        .iter()
        .filter(|(_, delta_p)| *delta_p <= tau)
        .map(|(cost, _)| *cost)
        .min_by(f64::total_cmp)
}

/// Overwrites one to three random cells with fresh V-instance variables.
fn add_variables(rng: &mut StdRng, instance: &mut Instance) {
    for _ in 0..rng.gen_range(1..4usize) {
        let row = rng.gen_range(0..instance.len());
        let attr = AttrId(rng.gen_range(0..instance.schema().arity()) as u16);
        let var = instance.fresh_var(attr);
        instance.set_cell(CellRef::new(row, attr), var).unwrap();
    }
}

/// Case `case` of the seeded loop: its problem and every state's
/// `(dist_c, δ_P)`. One case in each block of three carries V-instance
/// cells, rotating through the weightings.
fn problem(case: u64) -> (RepairProblem, Vec<(f64, usize)>) {
    let mut rng = StdRng::seed_from_u64(0x0A11_0000 + case);
    let mut instance = random_instance(&mut rng);
    let fds = random_fds(&mut rng, instance.schema().arity());
    if (case + case / 3).is_multiple_of(3) {
        add_variables(&mut rng, &mut instance);
    }
    let weight = WEIGHTS[case as usize % WEIGHTS.len()];
    let problem = RepairProblem::with_weight(&instance, &fds, weight);
    let states = every_state(&problem);
    (problem, states)
}

fn config() -> SearchConfig {
    SearchConfig {
        parallelism: Parallelism::Serial,
        ..SearchConfig::default()
    }
}

#[test]
fn every_budget_gets_a_cheapest_goal_from_single_tau_and_spectrum() {
    let config = config();
    let mut goals_checked = 0;
    for case in 0..CASES {
        let (problem, states) = problem(case);
        let hi = problem.delta_p_original();
        let spectrum = RangeSearch::new(&problem, 0, hi, &config).run_to_end();
        assert!(!spectrum.stats.truncated, "case {case}");

        for tau in 0..=hi {
            let expected = cheapest_within(&states, tau).map(f64::to_bits);
            for algorithm in [SearchAlgorithm::AStar, SearchAlgorithm::BestFirst] {
                let outcome = run_search(&problem, tau, &config, algorithm);
                assert!(!outcome.stats.truncated, "case {case} τ={tau}");
                let got = outcome.repair.map(|r| {
                    assert!(r.delta_p <= tau, "case {case} τ={tau}: not a goal");
                    assert_eq!(r.delta_p, problem.delta_p(&r.state));
                    r.dist_c.to_bits()
                });
                assert_eq!(got, expected, "case {case} τ={tau} {algorithm:?}");
            }
            let covering = spectrum
                .repairs
                .iter()
                .find(|r| r.tau_range.0 <= tau && tau <= r.tau_range.1)
                .map(|r| r.repair.dist_c.to_bits());
            assert_eq!(covering, expected, "case {case} τ={tau} spectrum");
            goals_checked += usize::from(expected.is_some());
        }
    }
    // The generator must actually produce budgets with goals to check.
    assert!(goals_checked > CASES as usize, "only {goals_checked} goals");
}

#[test]
fn sampled_repairs_are_cheapest_goals_at_every_budget_they_cover() {
    let config = config();
    for case in 0..CASES {
        let (problem, states) = problem(case);
        let hi = problem.delta_p_original();
        let sampled = sampling_search(&problem, 0, hi, 1, &config);
        assert!(!sampled.stats.truncated, "case {case}");
        for tau in 0..=hi {
            let expected = cheapest_within(&states, tau).map(f64::to_bits);
            let covering: Vec<u64> = sampled
                .repairs
                .iter()
                .filter(|r| r.tau_range.0 <= tau && tau <= r.tau_range.1)
                .map(|r| r.repair.dist_c.to_bits())
                .collect();
            assert_eq!(
                covering.is_empty(),
                expected.is_none(),
                "case {case} τ={tau}: coverage"
            );
            for got in covering {
                assert_eq!(Some(got), expected, "case {case} τ={tau} sampling");
            }
        }
    }
}

#[test]
fn every_materialized_spectrum_repair_satisfies_its_fds_within_delta_p() {
    let config = config();
    let mut variable_cases = 0;
    for case in 0..CASES {
        let (problem, _) = problem(case);
        variable_cases += usize::from(problem.instance().var_counters().iter().any(|&n| n > 0));
        let spectrum =
            RangeSearch::new(&problem, 0, problem.delta_p_original(), &config).run_to_end();
        let repairs = spectrum.materialize(&problem, case);
        assert_eq!(repairs.len(), spectrum.repairs.len(), "case {case}");
        for (ranged, repair) in spectrum.repairs.iter().zip(&repairs) {
            let at = format!("case {case} τ∈{:?}", ranged.tau_range);
            assert!(
                ConflictGraph::build(&repair.repaired_instance, &repair.modified_fds).is_empty(),
                "{at}: I′ violates Σ′"
            );
            assert!(
                repair.data_changes() <= repair.delta_p,
                "{at}: {} cells changed, δP = {}",
                repair.data_changes(),
                repair.delta_p
            );
        }
    }
    assert_eq!(variable_cases, 16, "a third of the cases carry variables");
}
