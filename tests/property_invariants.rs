//! Property-based tests over the core invariants of the repair system,
//! driven by seeded randomly generated instances and FD sets.
//!
//! The seed used `proptest`, which the offline build environment cannot
//! fetch; the same properties are checked here with an explicit
//! seeded-generation loop (48 cases per property, like the original
//! `ProptestConfig::with_cases(48)`), trading automatic shrinking for
//! zero dependencies. Failures print the offending case seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::prelude::*;
use rt_graph::{exact_vertex_cover, matching_vertex_cover};

const CASES: u64 = 48;

/// A small random instance over `arity` attributes with values in
/// `[0, max_value)` — small domains so FD violations are frequent.
fn random_instance(rng: &mut StdRng, arity: usize, max_rows: usize, max_value: i64) -> Instance {
    let rows = rng.gen_range(2..max_rows);
    let rows: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..max_value)).collect())
        .collect();
    let schema = Schema::with_arity(arity).unwrap();
    Instance::from_int_rows(schema, &rows).unwrap()
}

/// A random FD set over `arity` attributes with 1..=max_fds FDs, each with
/// 1..=2 LHS attributes and a guaranteed non-trivial, non-empty LHS.
fn random_fdset(rng: &mut StdRng, arity: usize, max_fds: usize) -> FdSet {
    let count = rng.gen_range(1..max_fds + 1);
    let fds: Vec<Fd> = (0..count)
        .map(|_| {
            let rhs = AttrId(rng.gen_range(0..arity) as u16);
            let mut lhs = AttrSet::singleton(AttrId(rng.gen_range(0..arity) as u16));
            if rng.gen_range(0..2) == 1 {
                lhs.insert(AttrId(rng.gen_range(0..arity) as u16));
            }
            let lhs = lhs.without(rhs);
            let lhs = if lhs.is_empty() {
                AttrSet::singleton(AttrId(((rhs.index() + 1) % arity) as u16))
            } else {
                lhs
            };
            Fd::new(lhs, rhs)
        })
        .collect();
    FdSet::from_fds(fds)
}

/// Algorithm 4: the repaired instance always satisfies the FDs and never
/// changes more than `|cover| · min(|R|-1, |Σ|)` cells (Theorem 3).
#[test]
fn data_repair_satisfies_fds_and_respects_bound() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1000 + case);
        let instance = random_instance(&mut rng, 4, 14, 3);
        let fds = random_fdset(&mut rng, 4, 2);
        let seed = rng.gen_range(0..1000u64);
        let out = repair_data(&instance, &fds, seed);
        assert!(fds.holds_on(&out.repaired), "case {case}");
        let alpha = (instance.schema().arity() - 1).min(fds.len()).max(1);
        assert!(out.distance() <= out.cover_size * alpha, "case {case}");
        // Tuple count never changes.
        assert_eq!(out.repaired.len(), instance.len(), "case {case}");
    }
}

/// The matching-based vertex cover is a valid cover and within twice the
/// optimum on small conflict graphs.
#[test]
fn vertex_cover_is_within_factor_two() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2000 + case);
        let instance = random_instance(&mut rng, 3, 10, 2);
        let fds = random_fdset(&mut rng, 3, 2);
        let cg = ConflictGraph::build(&instance, &fds);
        let graph = cg.to_graph();
        let approx = matching_vertex_cover(&graph);
        assert!(
            graph.is_vertex_cover(&approx.clone().into_set()),
            "case {case}"
        );
        if let Some(exact) = exact_vertex_cover(&graph, 200_000) {
            assert!(approx.len() <= 2 * exact.len().max(1), "case {case}");
            assert!(exact.len() <= approx.len(), "case {case}");
        }
    }
}

/// Conflict-graph filtering by difference sets agrees with rebuilding the
/// conflict graph from scratch for relaxed FD sets.
#[test]
fn subgraph_filtering_matches_rebuild() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3000 + case);
        let instance = random_instance(&mut rng, 4, 12, 3);
        let fds = random_fdset(&mut rng, 4, 2);
        let extension_attr = rng.gen_range(0..4usize);
        let cg = ConflictGraph::build(&instance, &fds);
        // Relax every FD by appending one attribute (when legal).
        let extensions: Vec<AttrSet> = fds
            .iter()
            .map(|(_, fd)| {
                let a = AttrId(extension_attr as u16);
                if fd.rhs == a || fd.lhs.contains(a) {
                    AttrSet::EMPTY
                } else {
                    AttrSet::singleton(a)
                }
            })
            .collect();
        let relaxed = fds.extend_lhs(&extensions);
        let filtered = cg.subgraph_for(&relaxed);
        let rebuilt = ConflictGraph::build(&instance, &relaxed).to_graph();
        let filtered_edges: Vec<(usize, usize)> = filtered.edges().collect();
        let rebuilt_edges: Vec<(usize, usize)> = rebuilt.edges().collect();
        assert_eq!(filtered_edges, rebuilt_edges, "case {case}");
    }
}

/// Algorithm 1: the τ-constrained repair satisfies its FDs, stays within
/// the budget, and its FD distance is non-increasing in τ.
#[test]
fn tau_constrained_repairs_are_sound_and_monotone() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4000 + case);
        let instance = random_instance(&mut rng, 4, 12, 2);
        let fds = random_fdset(&mut rng, 4, 2);
        let engine = RepairEngine::builder(instance.clone(), fds.clone())
            .weight(WeightKind::AttrCount)
            .build()
            .expect("valid engine configuration");
        let budget = engine.delta_p_original();
        let mut previous = f64::INFINITY;
        for tau in 0..=budget {
            let Ok(repair) = engine.repair_at(tau) else {
                continue;
            };
            assert!(
                repair.modified_fds.holds_on(&repair.repaired_instance),
                "case {case}"
            );
            assert!(repair.delta_p <= tau, "case {case}");
            assert!(
                repair.data_changes() <= repair.delta_p.max(tau),
                "case {case}"
            );
            assert!(fds.is_relaxation(&repair.modified_fds), "case {case}");
            assert!(repair.dist_c <= previous + 1e-9, "case {case}");
            previous = repair.dist_c;
        }
    }
}

/// V-instance semantics: fresh variables never collide with constants or
/// with each other, so substituting a fresh variable into a violating cell
/// always removes the violations that cell participates in.
#[test]
fn fresh_variables_break_equalities() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5000 + case);
        let mut inst = random_instance(&mut rng, 3, 10, 2);
        let row = rng.gen_range(0..inst.len());
        let attr = AttrId(rng.gen_range(0..3usize) as u16);
        let v = inst.fresh_var(attr);
        inst.set_cell(CellRef::new(row, attr), v).unwrap();
        let fresh = inst.cell(CellRef::new(row, attr)).unwrap();
        for other_row in (0..inst.len()).filter(|&r| r != row) {
            let other = inst.cell(CellRef::new(other_row, attr)).unwrap();
            assert!(!fresh.matches(other), "case {case}");
        }
    }
}

/// The perturbation machinery only reports cells it really changed, and
/// every reported cell differs from the clean instance.
#[test]
fn perturbation_reports_exact_diff() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6000 + case);
        let seed = rng.gen_range(0..500u64);
        let data_error = rng.gen_range(0.0..0.02f64);
        let (clean, fds) = generate_census_like(&CensusLikeConfig {
            seed,
            ..CensusLikeConfig::single_fd(200, 8, 3)
        });
        let truth = perturb(
            &clean,
            &fds,
            &PerturbConfig {
                data_error_rate: data_error,
                fd_error_rate: 0.3,
                rhs_violation_fraction: 0.5,
                seed,
            },
        );
        let diff = truth.clean.diff(&truth.dirty).unwrap();
        assert_eq!(diff.distance(), truth.perturbed_cells.len(), "case {case}");
        for cell in &truth.perturbed_cells {
            assert_ne!(
                truth.clean.cell(*cell).unwrap(),
                truth.dirty.cell(*cell).unwrap(),
                "case {case}"
            );
        }
        // The dirty FDs are a relaxation-inverse of the clean ones: adding
        // back the removed attributes restores the clean FD set.
        let restored = truth.sigma_dirty.extend_lhs(&truth.removed_lhs_attrs);
        assert_eq!(restored, truth.sigma_clean, "case {case}");
    }
}
