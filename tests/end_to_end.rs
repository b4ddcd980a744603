//! Cross-crate integration tests: the full pipeline from raw data and FDs to
//! scored repairs, exercised through the public facade.

use relative_trust::prelude::*;

/// The running example of the paper (Figure 1): an employee relation whose
/// FD `Surname, GivenName -> Income` is violated by both genuine errors and
/// by distinct people sharing a name.
fn employee_example() -> (Instance, FdSet) {
    let schema = Schema::new(
        "Persons",
        vec![
            "GivenName",
            "Surname",
            "BirthDate",
            "Gender",
            "Phone",
            "Income",
        ],
    )
    .unwrap();
    let rows: Vec<Vec<&str>> = vec![
        vec!["Jack", "White", "5 Jan 1980", "Male", "923-234-4532", "60k"],
        vec![
            "Sam",
            "McCarthy",
            "19 Jul 1945",
            "Male",
            "989-321-4232",
            "92k",
        ],
        vec![
            "Danielle",
            "Blake",
            "9 Dec 1970",
            "Female",
            "817-213-1211",
            "120k",
        ],
        vec![
            "Matthew",
            "Webb",
            "23 Aug 1985",
            "Male",
            "246-481-0992",
            "87k",
        ],
        vec![
            "Danielle",
            "Blake",
            "9 Dec 1970",
            "Female",
            "817-988-9211",
            "100k",
        ],
        vec!["Hong", "Li", "27 Oct 1972", "Female", "591-977-1244", "90k"],
        vec![
            "Jian",
            "Zhang",
            "14 Apr 1990",
            "Male",
            "912-143-4981",
            "55k",
        ],
        vec!["Ning", "Wu", "3 Nov 1982", "Male", "313-134-9241", "90k"],
        vec!["Hong", "Li", "8 Mar 1979", "Female", "498-214-5822", "84k"],
        vec!["Ning", "Wu", "8 Nov 1982", "Male", "323-456-3452", "95k"],
    ];
    let tuples: Vec<Tuple> = rows
        .iter()
        .map(|r| Tuple::new(r.iter().map(|v| Value::str(*v)).collect()))
        .collect();
    let instance = Instance::from_tuples(schema.clone(), tuples).unwrap();
    let fds = FdSet::parse(&["Surname,GivenName->Income"], &schema).unwrap();
    (instance, fds)
}

#[test]
fn figure1_employee_example_produces_the_expected_spectrum() {
    let (instance, fds) = employee_example();
    assert!(!fds.holds_on(&instance));

    let engine = RepairEngine::builder(instance.clone(), fds.clone())
        .seed(3)
        .build()
        .unwrap();
    // Three name clashes (Blake, Li, Wu) → three conflict edges, cover 3.
    assert_eq!(engine.problem().conflict_graph().edge_count(), 3);
    assert_eq!(engine.delta_p_original(), 3);

    let spectrum = engine.spectrum().unwrap();
    assert!(
        spectrum.len() >= 2,
        "expected at least a pure-data and a pure-FD repair"
    );

    // Extremes of the spectrum.
    let pure_data = &spectrum.points.first().unwrap().repair;
    assert!(pure_data.is_pure_data_repair());
    assert!(pure_data
        .modified_fds
        .holds_on(&pure_data.repaired_instance));
    let pure_fd = &spectrum.points.last().unwrap().repair;
    assert!(pure_fd.is_pure_fd_repair());
    assert!(pure_fd.modified_fds.holds_on(&instance));
    // The pure FD repair must extend the LHS (e.g. with BirthDate or Phone).
    assert!(pure_fd.modified_fds.get(0).lhs.len() > fds.get(0).lhs.len());

    // Every repair satisfies its own FDs and respects its τ interval.
    for point in &spectrum.points {
        assert!(point
            .repair
            .modified_fds
            .holds_on(&point.repair.repaired_instance));
        assert!(point.repair.data_changes() <= point.tau_range.1.max(point.tau_range.0));
    }
}

#[test]
fn pareto_frontier_is_non_dominated_and_monotone() {
    let (instance, fds) = employee_example();
    let engine = RepairEngine::builder(instance, fds)
        .seed(1)
        .build()
        .unwrap();
    let spectrum = engine.spectrum().unwrap();
    let repairs: Vec<&Repair> = spectrum.repairs().collect();

    for (i, a) in repairs.iter().enumerate() {
        for (j, b) in repairs.iter().enumerate() {
            if i == j {
                continue;
            }
            let dominates = b.dist_c <= a.dist_c
                && b.data_changes() <= a.data_changes()
                && (b.dist_c < a.dist_c || b.data_changes() < a.data_changes());
            assert!(!dominates, "repair {j} dominates repair {i}");
        }
    }
    // Ordered from data-heavy to FD-heavy: dist_c must be non-decreasing and
    // δP non-increasing.
    for pair in repairs.windows(2) {
        assert!(pair[0].dist_c <= pair[1].dist_c);
        assert!(pair[0].delta_p >= pair[1].delta_p);
    }
}

#[test]
fn generated_workload_round_trip_with_metrics() {
    // Generate → perturb → repair → evaluate, end to end through the facade.
    let (clean, sigma) = generate_census_like(&CensusLikeConfig::single_fd(600, 10, 4));
    assert!(sigma.holds_on(&clean));
    let truth = perturb(
        &clean,
        &sigma,
        &PerturbConfig {
            data_error_rate: 0.002,
            fd_error_rate: 0.5,
            rhs_violation_fraction: 0.5,
            seed: 12,
        },
    );
    assert!(!truth.sigma_dirty.holds_on(&truth.dirty));

    let engine = RepairEngine::new(truth.dirty.clone(), truth.sigma_dirty.clone()).unwrap();
    for tau_r in [0.0, 0.5, 1.0] {
        let repair = engine
            .repair_at_relative(tau_r)
            .unwrap_or_else(|e| panic!("no repair at τ_r = {tau_r}: {e}"));
        assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
        let quality = evaluate_repair(&truth, &repair.modified_fds, &repair.repaired_instance);
        assert!((0.0..=1.0).contains(&quality.combined_f));
        assert!((0.0..=1.0).contains(&quality.data_precision));
        assert!((0.0..=1.0).contains(&quality.fd_recall));
    }
}

#[test]
fn relative_trust_dominates_unified_cost_on_fd_error_workload() {
    // The Figure 8 scenario where the difference is starkest: all the blame
    // lies with the FD (attributes were dropped), the data is clean.
    let (clean, sigma) = generate_census_like(&CensusLikeConfig::single_fd(500, 10, 4));
    let truth = perturb(
        &clean,
        &sigma,
        &PerturbConfig {
            data_error_rate: 0.0,
            fd_error_rate: 0.5,
            rhs_violation_fraction: 0.5,
            seed: 3,
        },
    );
    let engine = RepairEngine::new(truth.dirty.clone(), truth.sigma_dirty.clone()).unwrap();

    // Relative trust, τ = 0: keep the data, fix the FD.
    let rt = engine
        .repair_at_relative(0.0)
        .expect("pure FD repair exists");
    let rt_quality = evaluate_repair(&truth, &rt.modified_fds, &rt.repaired_instance);
    // Data untouched → perfect data scores.
    assert_eq!(rt_quality.data_precision, 1.0);
    assert_eq!(rt_quality.data_recall, 1.0);

    // Unified cost: single repair with its fixed trade-off, served by the
    // same engine session (same prepared conflict graph and weights).
    let unified = engine.unified_baseline(&UnifiedCostConfig::default());
    let unified_quality =
        evaluate_repair(&truth, &unified.modified_fds, &unified.repaired_instance);

    assert!(
        rt_quality.combined_f >= unified_quality.combined_f,
        "relative trust ({}) must not lose to unified cost ({}) when only the FD is wrong",
        rt_quality.combined_f,
        unified_quality.combined_f
    );
}

#[test]
fn csv_round_trip_feeds_the_repair_pipeline() {
    // Write the employee example to CSV, read it back, repair it.
    let (instance, fds) = employee_example();
    let mut buf = Vec::new();
    relative_trust::relation::csv::write_instance(&instance, &mut buf).unwrap();
    let reread = relative_trust::io::read_instance(
        buf.as_slice(),
        &relative_trust::io::CsvOptions::csv().relation("Persons"),
    )
    .unwrap()
    .instance;
    assert_eq!(reread.len(), instance.len());

    let engine = RepairEngine::new(reread, fds).unwrap();
    let repair = engine.repair_at(engine.delta_p_original()).unwrap();
    assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
}

#[test]
fn sampling_and_range_repair_agree_through_the_facade() {
    let (instance, fds) = employee_example();
    let engine = RepairEngine::new(instance, fds).unwrap();
    let hi = engine.delta_p_original();
    let range = engine.sweep(0..=hi).collect_spectrum().unwrap();
    let sampling = engine.sampling_spectrum(0..=hi, 1);
    assert_eq!(range.len(), sampling.len());
    for (a, b) in range.points.iter().zip(sampling.points.iter()) {
        assert_eq!(a.repair.delta_p, b.repair.delta_p);
        assert!((a.repair.dist_c - b.repair.dist_c).abs() < 1e-9);
    }
}

/// The engine must stay a thin session over the `rt-core` primitives it
/// wraps (`repair_data_fds_with`, `RangeSearch`): both spellings produce
/// bit-identical repairs, so code driving the primitives directly stays
/// correct.
#[test]
fn core_primitives_match_the_engine() {
    use relative_trust::core::repair::repair_data_fds_with;
    use relative_trust::core::{RangeSearch, SearchAlgorithm};

    let (instance, fds) = employee_example();
    let problem = RepairProblem::new(&instance, &fds);
    let engine = RepairEngine::builder(instance.clone(), fds.clone())
        .build()
        .unwrap();
    let hi = engine.delta_p_original();
    assert_eq!(problem.delta_p_original(), hi);

    let config = SearchConfig::default();
    for tau in 0..=hi {
        let old = repair_data_fds_with(&problem, tau, &config, SearchAlgorithm::AStar, 0).unwrap();
        let new = engine.repair_at(tau).unwrap();
        assert_eq!(old.state, new.state, "τ={tau}");
        assert_eq!(old.modified_fds, new.modified_fds, "τ={tau}");
        assert_eq!(old.repaired_instance, new.repaired_instance, "τ={tau}");
        assert_eq!(old.changed_cells, new.changed_cells, "τ={tau}");
    }

    let old_spectrum = RangeSearch::new(&problem, 0, hi, &config)
        .run_to_end()
        .materialize(&problem, 0);
    let new_spectrum = engine.spectrum().unwrap();
    assert_eq!(old_spectrum.len(), new_spectrum.len());
    for (old, new) in old_spectrum.iter().zip(new_spectrum.repairs()) {
        assert_eq!(old.repaired_instance, new.repaired_instance);
        assert_eq!(old.changed_cells, new.changed_cells);
    }
}
