//! The incremental ≡ rebuild contract of the mutable engine.
//!
//! Hard invariant (mirroring PR 1's parallel ≡ serial contract): after any
//! seeded mutation sequence, the incremental engine's repairs, spectrum and
//! stats-relevant outputs are **bit-identical** to a freshly built engine
//! on the mutated `(I, Σ)` — while the incremental engine's
//! `conflict_graph_builds` stays at `1`.
//!
//! The main test is a 48-case seeded property loop: random instances,
//! random FD sets, random mutation streams (inserts, deletes, cell
//! updates, FD edits), applied both per-op and as one atomic batch,
//! rotated across all three weighting functions.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::datagen::{generate_mutation_stream, MutationStreamConfig};
use relative_trust::prelude::*;
use relative_trust::relation::AttrId;

/// A random instance with small column domains, so FDs actually conflict.
fn random_instance(rng: &mut StdRng) -> Instance {
    let arity = rng.gen_range(4..6usize);
    let rows = rng.gen_range(8..19usize);
    let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::new("R", name_refs).unwrap();
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| {
            (0..arity)
                .map(|_| rng.gen_range(0..3i64))
                .collect::<Vec<i64>>()
        })
        .collect();
    Instance::from_int_rows(schema, &data).unwrap()
}

/// A random FD set: two FDs with distinct RHSs and 1–2 LHS attributes.
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

fn build(instance: Instance, fds: FdSet, weight: WeightKind, seed: u64) -> RepairEngine {
    RepairEngine::builder(instance, fds)
        .weight(weight)
        .parallelism(Parallelism::Serial)
        .max_expansions(100_000)
        .seed(seed)
        .build()
        .unwrap()
}

/// Asserts full bit-identity between two spectra, field by field so a
/// failure names the diverging point — then cross-checks against the
/// engine's own [`Spectrum::bit_identical`] predicate so the two can never
/// drift apart in what they compare.
fn assert_spectra_identical(a: &Spectrum, b: &Spectrum, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: spectrum sizes differ");
    for (i, (x, y)) in a.points.iter().zip(b.points.iter()).enumerate() {
        assert_eq!(x.tau_range, y.tau_range, "{context}: point {i} interval");
        assert_eq!(
            x.repair.delta_p, y.repair.delta_p,
            "{context}: point {i} δP"
        );
        assert_eq!(
            x.repair.dist_c.to_bits(),
            y.repair.dist_c.to_bits(),
            "{context}: point {i} dist_c"
        );
        assert_eq!(x.repair.state, y.repair.state, "{context}: point {i} state");
        assert_eq!(
            x.repair.modified_fds, y.repair.modified_fds,
            "{context}: point {i} Σ'"
        );
        assert_eq!(
            x.repair.repaired_instance, y.repair.repaired_instance,
            "{context}: point {i} I'"
        );
        assert_eq!(
            x.repair.changed_cells, y.repair.changed_cells,
            "{context}: point {i} Δd"
        );
    }
    assert!(a.bit_identical(b), "{context}: bit_identical disagrees");
}

/// The 48-case seeded property loop.
#[test]
fn incremental_matches_rebuild_on_random_mutation_sequences() {
    let weights = [
        WeightKind::AttrCount,
        WeightKind::DistinctCount,
        WeightKind::Entropy,
    ];
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xD3117A + case);
        let instance = random_instance(&mut rng);
        let arity = instance.schema().arity();
        let fds = random_fds(&mut rng, arity);
        let weight = weights[(case % 3) as usize];
        let context = format!("case {case} ({weight:?})");

        let mut engine = build(instance.clone(), fds.clone(), weight, case);
        let ops = generate_mutation_stream(
            &instance,
            &fds,
            &MutationStreamConfig {
                ops: rng.gen_range(5..11usize),
                seed: 0xFEED + case,
                ..Default::default()
            },
        );

        // Alternate replay styles: one batch per op vs one atomic batch.
        let mut batches = 0usize;
        if case % 2 == 0 {
            for op in &ops {
                engine
                    .apply(&MutationBatch::new().push(op.clone()))
                    .unwrap_or_else(|e| panic!("{context}: {e}"));
                batches += 1;
            }
        } else {
            let batch: MutationBatch = ops.iter().cloned().collect();
            engine
                .apply(&batch)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            batches += 1;
        }

        // The reference: a fresh engine on the mutated inputs, same knobs.
        let fresh = build(
            engine.problem().instance().clone(),
            engine.problem().sigma().clone(),
            weight,
            case,
        );

        // Prepared state matches a fresh build exactly.
        assert_eq!(
            engine.problem().conflict_graph(),
            fresh.problem().conflict_graph(),
            "{context}: conflict graphs differ"
        );
        assert_eq!(
            engine.delta_p_original(),
            fresh.delta_p_original(),
            "{context}: δP reference differs"
        );

        // Every output matches bit-for-bit.
        let inc_spectrum = engine
            .spectrum()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let fresh_spectrum = fresh
            .spectrum()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_spectra_identical(&inc_spectrum, &fresh_spectrum, &context);

        // Point queries agree too — including on budgets below the
        // irreducible conflict floor, where both must report the same
        // failure.
        for tau in [engine.delta_p_original() / 2, engine.delta_p_original()] {
            match (engine.repair_at(tau), fresh.repair_at(tau)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.repaired_instance, b.repaired_instance,
                        "{context}: τ={tau}"
                    );
                    assert_eq!(a.changed_cells, b.changed_cells, "{context}: τ={tau}");
                    assert_eq!(a.modified_fds, b.modified_fds, "{context}: τ={tau}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{context}: τ={tau}"),
                (a, b) => panic!(
                    "{context}: τ={tau}: engines disagree on feasibility \
                     (incremental {a:?} vs fresh {b:?})"
                ),
            }
        }

        // The acceptance invariant: incremental path never rebuilt the
        // graph, and every batch avoided a rebuild.
        let stats = engine.stats();
        assert_eq!(stats.conflict_graph_builds, 1, "{context}");
        assert_eq!(stats.mutation_batches, batches, "{context}");
    }
}

/// Batches are all-or-nothing: a batch whose *last* op is invalid leaves
/// the engine exactly as it was.
#[test]
fn failed_batches_leave_the_engine_untouched() {
    let schema = Schema::new("R", vec!["A", "B"]).unwrap();
    let instance =
        Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2], vec![2, 5]]).unwrap();
    let fds = FdSet::parse(&["A->B"], &schema).unwrap();
    let mut engine = build(instance, fds, WeightKind::AttrCount, 0);
    let before = engine.spectrum().unwrap();
    let edge_count_before = engine.problem().conflict_graph().edge_count();

    // Valid inserts followed by an out-of-range delete: nothing applies.
    let batch = MutationBatch::new()
        .insert_row(vec![Value::int(9), Value::int(9)])
        .delete_tuples(vec![99]);
    let err = engine.apply(&batch).unwrap_err();
    assert!(matches!(err, EngineError::Mutation(_)), "got {err:?}");

    assert_eq!(engine.problem().instance().len(), 3, "insert leaked");
    assert_eq!(
        engine.problem().conflict_graph().edge_count(),
        edge_count_before
    );
    let after = engine.spectrum().unwrap();
    assert_spectra_identical(&before, &after, "all-or-nothing");
    assert_eq!(engine.stats().mutation_batches, 0);
}

/// Invalidation-scoped cache reset: a conflict-free insert under the
/// data-independent AttrCount weighting provably changes no FD-level search
/// answer, so a completed sweep replays from its checkpoint with zero new
/// search work — while still reflecting the mutated instance in the
/// materialized repairs.
#[test]
fn sweep_checkpoint_survives_neutral_mutations() {
    let schema = Schema::new("R", vec!["A", "B", "C"]).unwrap();
    let instance = Instance::from_int_rows(
        schema.clone(),
        &[vec![1, 1, 1], vec![1, 2, 1], vec![2, 5, 3], vec![2, 5, 4]],
    )
    .unwrap();
    let fds = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
    let mut engine = build(instance, fds, WeightKind::AttrCount, 1);

    let first = engine.spectrum().unwrap();
    let expanded_after_first = engine.stats().states_expanded;
    assert!(expanded_after_first > 0);

    // A=7, C=7 occur nowhere: the insert shares no LHS class with any row.
    let outcome = engine
        .insert_tuples(vec![relative_trust::relation::Tuple::new(vec![
            Value::int(7),
            Value::int(7),
            Value::int(7),
        ])])
        .unwrap();
    assert_eq!(outcome.effect.edges_added, 0);
    assert!(!outcome.effect.search_state_invalidated);
    assert!(outcome.sweep_cache_retained);

    // The second spectrum replays the suspended sweep: same repairs, zero
    // additional search work, one cache hit.
    let second = engine.spectrum().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.states_expanded, expanded_after_first);
    assert_eq!(stats.sweep_cache_hits, 1);
    assert_eq!(first.len(), second.len());
    // The replayed spectrum is still correct w.r.t. the *mutated* instance
    // (one more row than before, materialized live).
    for point in &second.points {
        assert_eq!(point.repair.repaired_instance.len(), 5);
        assert!(point
            .repair
            .modified_fds
            .holds_on(&point.repair.repaired_instance));
    }
    // And it matches a fresh engine on the mutated inputs bit-for-bit.
    let fresh = build(
        engine.problem().instance().clone(),
        engine.problem().sigma().clone(),
        WeightKind::AttrCount,
        1,
    );
    assert_spectra_identical(&second, &fresh.spectrum().unwrap(), "cache survival");
}

/// The heuristic memo table rides the sweep checkpoint across conflict-free
/// mutations: a *partially* drained sweep, suspended by dropping its
/// stream, resumes after a neutral insert — the replayed prefix does zero
/// additional heuristic work, the live continuation hits the warm cache,
/// and the finished spectrum still matches a cold rebuild bit for bit.
#[test]
fn resumed_sweep_after_neutral_insert_reuses_the_heuristic_cache() {
    // A seeded random instance whose spectrum has several points past the
    // first, so the continuation does real heuristic work after the resume
    // (the tiny handcrafted fixtures finish before ever re-querying gc).
    let mut rng = StdRng::seed_from_u64(0xCAFE + 1);
    let instance = random_instance(&mut rng);
    let arity = instance.schema().arity();
    let fds = random_fds(&mut rng, arity);
    let mut engine = build(instance, fds, WeightKind::AttrCount, 1);
    let range = 0..=engine.delta_p_original();

    // Take only the first point, then drop the stream: the traversal (open
    // list *and* heuristic memo table) suspends into the engine.
    let first = {
        let mut stream = engine.sweep(range.clone());
        stream.next().expect("range is non-empty").unwrap()
    };
    let nodes_after_prefix = engine.stats().heuristic_nodes;
    let hits_after_prefix = engine.stats().heuristic_cache_hits;
    assert!(nodes_after_prefix > 0, "prefix did no heuristic work");

    // Value 7 occurs nowhere, so the row shares no LHS class with any
    // existing tuple: conflict-free, and the checkpoint survives.
    let row: Vec<Value> = (0..arity).map(|_| Value::int(7)).collect();
    let outcome = engine
        .insert_tuples(vec![relative_trust::relation::Tuple::new(row)])
        .unwrap();
    assert_eq!(outcome.effect.edges_added, 0);
    assert!(!outcome.effect.search_state_invalidated);
    assert!(outcome.sweep_cache_retained);

    // Re-taking the prefix replays the recorded repair: no search, no
    // heuristic recursion, not even a cache probe.
    let replayed = {
        let mut stream = engine.sweep(range.clone());
        stream.next().expect("replay is non-empty").unwrap()
    };
    assert_eq!(replayed.tau_range, first.tau_range);
    assert_eq!(replayed.repair.state, first.repair.state);
    assert_eq!(
        engine.stats().heuristic_nodes,
        nodes_after_prefix,
        "replaying the prefix re-ran the heuristic"
    );

    // Finishing the sweep resumes the live traversal; the suspended memo
    // table serves its repeat evaluations.
    let finished = engine.spectrum().unwrap();
    assert!(
        finished.len() > 1,
        "fixture too small to exercise the resume"
    );
    assert!(
        engine.stats().heuristic_cache_hits > hits_after_prefix,
        "the resumed traversal never hit the warm heuristic cache"
    );
    let fresh = build(
        engine.problem().instance().clone(),
        engine.problem().sigma().clone(),
        WeightKind::AttrCount,
        1,
    );
    assert_spectra_identical(&finished, &fresh.spectrum().unwrap(), "warm resume");
}

/// The complement: a mutation that *does* change FD-level search state
/// (here: a new conflict edge) resets the checkpoint, and the next sweep
/// does fresh work instead of replaying a stale prefix.
#[test]
fn sweep_checkpoint_resets_when_conflicts_change() {
    let schema = Schema::new("R", vec!["A", "B"]).unwrap();
    let instance =
        Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2], vec![2, 5]]).unwrap();
    let fds = FdSet::parse(&["A->B"], &schema).unwrap();
    let mut engine = build(instance, fds, WeightKind::AttrCount, 2);

    engine.spectrum().unwrap();
    let expanded_after_first = engine.stats().states_expanded;

    // Row (2, 6) conflicts with the existing (2, 5) row on A->B.
    let outcome = engine
        .insert_tuples(vec![relative_trust::relation::Tuple::new(vec![
            Value::int(2),
            Value::int(6),
        ])])
        .unwrap();
    assert!(outcome.effect.edges_added > 0);
    assert!(outcome.effect.search_state_invalidated);
    assert!(!outcome.sweep_cache_retained);

    let second = engine.spectrum().unwrap();
    let stats = engine.stats();
    assert!(
        stats.states_expanded > expanded_after_first,
        "no fresh work"
    );
    assert_eq!(stats.sweep_cache_hits, 0);
    let fresh = build(
        engine.problem().instance().clone(),
        engine.problem().sigma().clone(),
        WeightKind::AttrCount,
        2,
    );
    assert_spectra_identical(&second, &fresh.spectrum().unwrap(), "cache reset");
}

/// FD edits route through the same incremental machinery: adding then
/// removing FDs keeps the engine equivalent to a rebuild at every step.
#[test]
fn fd_edit_sequence_stays_equivalent_at_every_step() {
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
    let mut engine = build(instance, fds, WeightKind::AttrCount, 3);

    let steps: Vec<MutationOp> = vec![
        MutationOp::AddFd(Fd::parse("B->D", &schema).unwrap()),
        MutationOp::RemoveFd(0),
        MutationOp::AddFd(Fd::parse("D->B", &schema).unwrap()),
        MutationOp::RemoveFd(1),
    ];
    for (i, op) in steps.into_iter().enumerate() {
        engine.apply(&MutationBatch::new().push(op)).unwrap();
        let fresh = build(
            engine.problem().instance().clone(),
            engine.problem().sigma().clone(),
            WeightKind::AttrCount,
            3,
        );
        assert_eq!(
            engine.problem().conflict_graph(),
            fresh.problem().conflict_graph(),
            "step {i}"
        );
        assert_spectra_identical(
            &engine.spectrum().unwrap(),
            &fresh.spectrum().unwrap(),
            &format!("fd step {i}"),
        );
    }
    assert_eq!(engine.stats().conflict_graph_builds, 1);
}

/// One insert batch of more than 512 rows into a generated instance of a
/// few thousand: the partner search sorts the batch on its radix path, and
/// the result is bit-identical to a fresh build. Every other inserted row
/// is an existing row with a new value of the first FD's RHS, so it
/// conflicts with its LHS class; the rest are plain copies.
#[test]
fn a_large_insert_batch_matches_a_rebuild() {
    let config = CensusLikeConfig {
        seed: 0x5EED,
        ..CensusLikeConfig::multi_fd(3000, 8, 2, 2)
    };
    let (instance, fds) = generate_census_like(&config);
    let rhs = fds.get(0).rhs;
    let rows: Vec<Tuple> = (0..700)
        .map(|i| {
            let mut tuple = instance.tuple(i * 4).unwrap();
            if i % 2 == 0 {
                tuple.set(rhs, Value::int(1_000_000 + i as i64));
            }
            tuple
        })
        .collect();
    let mut engine = build(instance, fds, WeightKind::DistinctCount, 11);
    assert!(engine.problem().conflict_graph().is_empty());
    let outcome = engine
        .apply(&MutationBatch::new().insert_tuples(rows))
        .unwrap();
    assert_eq!(outcome.effect.rows_inserted, 700);

    let problem = engine.problem();
    let fresh = build(
        problem.instance().clone(),
        problem.sigma().clone(),
        WeightKind::DistinctCount,
        11,
    );
    assert!(problem.conflict_graph().edge_count() >= 350);
    assert_eq!(problem.conflict_graph(), fresh.problem().conflict_graph());
    assert_eq!(engine.delta_p_original(), fresh.delta_p_original());
    let tau = engine.delta_p_original();
    let (a, b) = (
        engine.repair_at(tau).unwrap(),
        fresh.repair_at(tau).unwrap(),
    );
    assert_eq!(a.repaired_instance, b.repaired_instance);
    assert_eq!(a.changed_cells, b.changed_cells);
    assert_eq!(a.modified_fds, b.modified_fds);
    assert_eq!(engine.stats().conflict_graph_builds, 1);
}
