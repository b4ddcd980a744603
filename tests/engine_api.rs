//! Integration tests of the `RepairEngine` session API: builder
//! validation, equivalence with the deprecated free-function surface,
//! sweep laziness, session reuse and determinism under fixed parallelism.

use relative_trust::prelude::*;

/// The Figure-2 instance of the paper.
fn figure2() -> (Instance, FdSet) {
    let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
    let instance = Instance::from_int_rows(
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
    (instance, fds)
}

fn figure2_engine() -> RepairEngine {
    let (instance, fds) = figure2();
    RepairEngine::builder(instance, fds)
        .weight(WeightKind::AttrCount)
        .build()
        .unwrap()
}

// ---------------------------------------------------------------------------
// Builder validation
// ---------------------------------------------------------------------------

#[test]
fn builder_rejects_zero_max_expansions() {
    let (instance, fds) = figure2();
    let err = RepairEngine::builder(instance, fds)
        .max_expansions(0)
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
    assert!(err.to_string().contains("max_expansions"));
}

#[test]
fn builder_rejects_empty_fd_set() {
    let (instance, _) = figure2();
    let err = RepairEngine::builder(instance, FdSet::new())
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
    assert!(err.to_string().contains("empty"));
}

#[test]
fn builder_rejects_fds_outside_the_schema() {
    let (instance, _) = figure2();
    // An FD referring to attribute 9 of a 4-attribute schema.
    let fds = FdSet::from_fds(vec![Fd::from_indices(&[9], 1)]);
    let err = RepairEngine::builder(instance, fds).build().unwrap_err();
    assert!(matches!(err, EngineError::Fd(_)), "got {err:?}");
    assert!(err.to_string().contains("attribute"));
}

#[test]
fn builder_rejects_degenerate_heuristic_configs() {
    let (instance, fds) = figure2();
    let err = RepairEngine::builder(instance.clone(), fds.clone())
        .heuristic(rt_engine::HeuristicConfig {
            max_diff_sets: 0,
            node_budget: 100,
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
    let err = RepairEngine::builder(instance, fds)
        .heuristic(rt_engine::HeuristicConfig {
            max_diff_sets: 5,
            node_budget: 0,
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Equivalence with the rt-core primitives
// ---------------------------------------------------------------------------

#[test]
fn repair_at_relative_matches_core_primitive_bit_for_bit() {
    use relative_trust::core::repair::repair_data_fds_with;
    use relative_trust::core::SearchAlgorithm;

    let (instance, fds) = figure2();
    // The primitive with the DistinctCount default weighting, seed 0 and
    // the default search config — the engine's defaults.
    let problem = RepairProblem::new(&instance, &fds);
    let engine = RepairEngine::builder(instance.clone(), fds.clone())
        .build()
        .unwrap();
    for tau_r in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let old = repair_data_fds_with(
            &problem,
            problem.absolute_tau(tau_r),
            &SearchConfig::default(),
            SearchAlgorithm::AStar,
            0,
        )
        .unwrap();
        let new = engine.repair_at_relative(tau_r).unwrap();
        assert_eq!(old.tau, new.tau, "τ_r={tau_r}");
        assert_eq!(old.state, new.state, "τ_r={tau_r}");
        assert_eq!(old.modified_fds, new.modified_fds, "τ_r={tau_r}");
        assert_eq!(old.dist_c, new.dist_c, "τ_r={tau_r}");
        assert_eq!(old.delta_p, new.delta_p, "τ_r={tau_r}");
        assert_eq!(old.repaired_instance, new.repaired_instance, "τ_r={tau_r}");
        assert_eq!(old.changed_cells, new.changed_cells, "τ_r={tau_r}");
    }
}

/// The headline acceptance check: a full `sweep` produces repairs
/// bit-identical to a direct `RangeSearch` + `materialize`, and the
/// engine's telemetry shows conflict-graph construction ran exactly once
/// across the whole sweep.
#[test]
fn sweep_matches_range_search_with_one_graph_build() {
    use relative_trust::core::RangeSearch;

    let (instance, fds) = figure2();
    let problem = RepairProblem::with_weight(&instance, &fds, WeightKind::AttrCount);
    let engine = figure2_engine();
    let hi = engine.delta_p_original();

    let old_outcome = RangeSearch::new(&problem, 0, hi, &SearchConfig::default()).run_to_end();
    let old_materialized = old_outcome.materialize(&problem, 0);

    let new_points: Vec<RepairPoint> = engine.sweep(0..=hi).collect::<Result<Vec<_>, _>>().unwrap();

    assert_eq!(old_outcome.repairs.len(), new_points.len());
    for i in 0..new_points.len() {
        let (old_ranged, old_repair, point) = (
            &old_outcome.repairs[i],
            &old_materialized[i],
            &new_points[i],
        );
        assert_eq!(old_ranged.tau_range, point.tau_range);
        assert_eq!(old_repair.state, point.repair.state);
        assert_eq!(old_repair.modified_fds, point.repair.modified_fds);
        assert_eq!(old_repair.dist_c, point.repair.dist_c);
        assert_eq!(old_repair.delta_p, point.repair.delta_p);
        assert_eq!(old_repair.repaired_instance, point.repair.repaired_instance);
        assert_eq!(old_repair.changed_cells, point.repair.changed_cells);
    }

    let stats = engine.stats();
    assert_eq!(
        stats.conflict_graph_builds, 1,
        "the conflict graph must be built exactly once for the whole sweep"
    );
    // The search did real work and every point was materialized lazily.
    assert_eq!(stats.points_materialized, new_points.len());
    assert!(stats.states_expanded > 0);
}

// ---------------------------------------------------------------------------
// Sweep laziness
// ---------------------------------------------------------------------------

#[test]
fn sweep_is_lazy_and_materializes_on_demand() {
    let engine = figure2_engine();
    let hi = engine.delta_p_original();

    // Creating the stream does no search or materialization work.
    let mut stream = engine.sweep(0..=hi);
    let stats = engine.stats();
    assert_eq!(stats.states_expanded, 0, "sweep() must not search eagerly");
    assert_eq!(
        stats.points_materialized, 0,
        "sweep() must not materialize eagerly"
    );
    assert_eq!(stats.sweeps_started, 1);

    // Pulling the first point does exactly one repair's worth of work.
    let first = stream.next().unwrap().unwrap();
    assert!(first.repair.is_pure_data_repair());
    let stats = engine.stats();
    assert_eq!(stats.points_materialized, 1);
    let expanded_after_first = stats.states_expanded;
    assert!(expanded_after_first > 0);

    // Draining the rest costs more search work — which would already have
    // been spent had the sweep been eager.
    let rest: Vec<_> = stream.collect();
    assert_eq!(rest.len(), 2, "Figure 2 has 3 spectrum points");
    let stats = engine.stats();
    assert_eq!(stats.points_materialized, 3);
    assert!(stats.states_expanded > expanded_after_first);
}

#[test]
fn abandoned_sweep_costs_only_what_was_pulled() {
    let eager = figure2_engine();
    let full_cost = {
        let spectrum = eager.spectrum().unwrap();
        assert_eq!(spectrum.len(), 3);
        eager.stats().states_expanded
    };

    let lazy = figure2_engine();
    let mut stream = lazy.sweep(0..=lazy.delta_p_original());
    let _first = stream.next().unwrap().unwrap();
    drop(stream);
    assert!(
        lazy.stats().states_expanded < full_cost,
        "taking one point must expand fewer states ({}) than the full sweep ({full_cost})",
        lazy.stats().states_expanded
    );
}

// ---------------------------------------------------------------------------
// Session reuse and determinism
// ---------------------------------------------------------------------------

#[test]
fn engine_reuse_across_tau_is_deterministic_under_fixed_parallelism() {
    let (instance, fds) = figure2();
    let build = |par: Parallelism| {
        RepairEngine::builder(instance.clone(), fds.clone())
            .weight(WeightKind::AttrCount)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let reference = build(Parallelism::Serial);
    let engine = build(Parallelism::Fixed(4));
    let hi = engine.delta_p_original();

    // Interleave queries in both directions and repeat them: one session
    // must answer every τ identically to a fresh serial run, every time.
    let taus: Vec<usize> = (0..=hi).chain((0..=hi).rev()).chain(0..=hi).collect();
    for &tau in &taus {
        let serial = reference.repair_at(tau).unwrap();
        let parallel = engine.repair_at(tau).unwrap();
        assert_eq!(serial.state, parallel.state, "τ={tau}");
        assert_eq!(serial.modified_fds, parallel.modified_fds, "τ={tau}");
        assert_eq!(
            serial.repaired_instance, parallel.repaired_instance,
            "τ={tau}"
        );
        assert_eq!(serial.changed_cells, parallel.changed_cells, "τ={tau}");
    }
    // The engine served every query from the one prepared problem.
    assert_eq!(engine.stats().conflict_graph_builds, 1);
    assert_eq!(engine.stats().repair_queries, taus.len());

    // Sweeps are deterministic across parallelism settings too.
    let serial_spectrum = reference.spectrum().unwrap();
    let parallel_spectrum = engine.spectrum().unwrap();
    assert_eq!(serial_spectrum.len(), parallel_spectrum.len());
    for (a, b) in serial_spectrum
        .points
        .iter()
        .zip(parallel_spectrum.points.iter())
    {
        assert_eq!(a.tau_range, b.tau_range);
        assert_eq!(a.repair.repaired_instance, b.repair.repaired_instance);
        assert_eq!(a.repair.changed_cells, b.repair.changed_cells);
    }
}

#[test]
fn fd_repair_at_skips_materialization() {
    let engine = figure2_engine();
    let fd_repair = engine.fd_repair_at(2).unwrap();
    assert_eq!(fd_repair.delta_p, 2);
    assert_eq!(fd_repair.dist_c, 1.0);
    assert_eq!(engine.stats().points_materialized, 0);
}

#[test]
fn budget_exhaustion_is_a_typed_error() {
    let (instance, fds) = figure2();
    let engine = RepairEngine::builder(instance, fds)
        .weight(WeightKind::AttrCount)
        .max_expansions(1)
        .build()
        .unwrap();
    // τ = 0 needs a deep search; one expansion covers only the root.
    let err = engine.repair_at(0).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::BudgetExhausted {
                tau: 0,
                max_expansions: 1
            }
        ),
        "got {err:?}"
    );
    assert!(engine.stats().truncated);

    // The streaming sweep surfaces the same condition as a final Err item.
    let results: Vec<_> = engine.sweep(0..=0).collect();
    assert!(matches!(
        results.last(),
        Some(Err(EngineError::BudgetExhausted { .. }))
    ));
}

#[test]
fn a_budget_with_no_repair_is_not_budget_exhaustion() {
    // The rows agree on every attribute but the RHS, so even the fully
    // relaxed FD set keeps one conflict: no repair exists below τ = 1.
    let schema = Schema::new("R", vec!["A", "B"]).unwrap();
    let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
    let fds = FdSet::parse(&["A->B"], &schema).unwrap();
    let engine = RepairEngine::new(instance, fds).unwrap();
    assert_eq!(
        engine.repair_at(0).unwrap_err(),
        EngineError::NoRepair { tau: 0 }
    );
    assert!(!engine.stats().truncated);
    assert!(engine.repair_at(1).is_ok());
}

#[test]
fn unified_baseline_matches_free_function() {
    let (instance, fds) = figure2();
    let engine = RepairEngine::builder(instance.clone(), fds.clone())
        .build()
        .unwrap();
    let weight = relative_trust::constraints::DistinctCountWeight::new(&instance);
    let config = UnifiedCostConfig::default();
    let old = unified_cost_repair(&instance, &fds, &weight, &config);
    let new = engine.unified_baseline(&config);
    assert_eq!(old.modified_fds, new.modified_fds);
    assert_eq!(old.repaired_instance, new.repaired_instance);
    assert_eq!(old.changed_cells, new.changed_cells);
    assert_eq!(old.total_cost(), new.total_cost());
}

#[test]
fn empty_sweep_range_yields_nothing_on_clean_data() {
    let schema = Schema::new("R", vec!["A", "B"]).unwrap();
    let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![2, 3]]).unwrap();
    let fds = FdSet::parse(&["A->B"], &schema).unwrap();
    let engine = RepairEngine::new(instance, fds).unwrap();
    assert_eq!(engine.delta_p_original(), 0);
    let spectrum = engine.spectrum().unwrap();
    // Clean data: the root is the unique repair, with no cell changes.
    assert_eq!(spectrum.len(), 1);
    assert!(spectrum.points[0].repair.is_pure_fd_repair());
    assert!(spectrum.points[0].repair.is_pure_data_repair());
}
