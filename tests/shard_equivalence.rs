//! The shard ≡ monolithic contract of the scale-up build path.
//!
//! Hard invariant (mirroring the parallel ≡ serial and incremental ≡
//! rebuild contracts): a problem built per shard and merged
//! (`RepairProblem::from_sharded` over a [`ShardPlan`]) has the conflict
//! graph, repairs, spectra and search-trajectory stats of the monolithic
//! build (`RepairProblem::with_weight`) on the same `(I, Σ)`, **bit for
//! bit**.
//!
//! The main test is a 48-case seeded property loop: random instances,
//! random FD sets, rotated across all three weighting functions, then
//! extended with mutation batches that *bridge* two shards (an update that
//! drags a row into another shard's blocking class), driving the
//! deterministic shard merge/re-split path.
//!
//! The engine picks its build path by row count (sharded from 100 000 rows
//! on). The warehouse smoke test checks that choice and its accounting —
//! one conflict-graph build per shard, never a rebuild on mutation, the same
//! path again on restore — and compares the engine with the path its row
//! count did not pick.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::core::repair::materialize_fd_repair;
use relative_trust::core::{run_search, MultiRepairOutcome};
use relative_trust::prelude::*;
use relative_trust::relation::AttrId;

/// The row count from which `RepairEngineBuilder::build` shards the
/// conflict-graph build.
const ENGINE_SHARD_ROWS: usize = 100_000;

/// A random instance whose LHS domains are wide enough that the blocking
/// closure genuinely fragments: most cases decompose into several shards.
fn random_instance(rng: &mut StdRng) -> Instance {
    let arity = rng.gen_range(4..6usize);
    let rows = rng.gen_range(16..40usize);
    let domain = rng.gen_range(5..9i64);
    let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::new("R", name_refs).unwrap();
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..domain)).collect())
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

fn config() -> SearchConfig {
    SearchConfig {
        max_expansions: 100_000,
        parallelism: Parallelism::Serial,
        ..SearchConfig::default()
    }
}

/// The first `limit` points of the `[0, δ_P(Σ)]` spectrum of `problem`,
/// materialized with `seed` — what an engine's sweep yields.
fn spectrum_prefix(problem: &RepairProblem, seed: u64, limit: usize) -> Spectrum {
    let mut search = RangeSearch::new(problem, 0, problem.delta_p_original(), &config());
    let repairs: Vec<_> = std::iter::from_fn(|| search.next_repair())
        .take(limit)
        .collect();
    let outcome = MultiRepairOutcome {
        repairs,
        stats: search.stats(),
    };
    assert!(
        !outcome.stats.truncated,
        "the spectrum hit the expansion cap"
    );
    let points = outcome
        .repairs
        .iter()
        .zip(outcome.materialize(problem, seed))
        .map(|(ranged, repair)| RepairPoint {
            tau_range: ranged.tau_range,
            repair,
        })
        .collect();
    Spectrum {
        points,
        search_stats: outcome.stats,
    }
}

/// Field-by-field bit-identity, cross-checked against the engine's own
/// `Spectrum::bit_identical` predicate (same shape as the incremental
/// suite, so the two oracles can never drift in what they compare).
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

/// A cell update that drags `victim` into `target`'s blocking class under
/// the first FD (copying the LHS cells) while keeping the RHS different —
/// i.e. a mutation that *bridges* two shards with a genuine conflict edge.
fn bridging_ops(instance: &Instance, fds: &FdSet, target: usize, victim: usize) -> Vec<MutationOp> {
    let fd = fds.get(0);
    let mut ops = Vec::new();
    for attr in fd.lhs.iter() {
        let v = instance.cell(CellRef::new(target, attr)).unwrap().clone();
        ops.push(MutationOp::UpdateCell(CellRef::new(victim, attr), v));
    }
    let rhs_target = instance.cell(CellRef::new(target, fd.rhs)).unwrap();
    let rhs_victim = instance.cell(CellRef::new(victim, fd.rhs)).unwrap();
    if rhs_target == rhs_victim {
        // Same RHS would merely merge classes without a conflict; force one.
        ops.push(MutationOp::UpdateCell(
            CellRef::new(victim, fd.rhs),
            Value::int(777_777),
        ));
    }
    ops
}

/// Applies `ops` to both problems: the same effect, the same patched
/// conflict graph.
fn apply_to_both(
    sharded: &mut RepairProblem,
    monolithic: &mut RepairProblem,
    ops: &[MutationOp],
    context: &str,
) {
    let a = sharded
        .apply_mutations(ops)
        .unwrap_or_else(|e| panic!("{context}: sharded: {e}"));
    let b = monolithic
        .apply_mutations(ops)
        .unwrap_or_else(|e| panic!("{context}: monolithic: {e}"));
    assert_eq!(a, b, "{context}: mutation effects differ");
    assert_eq!(
        sharded.conflict_graph(),
        monolithic.conflict_graph(),
        "{context}: patched conflict graphs differ"
    );
}

/// The 48-case seeded property loop, with shard-bridging mutations.
#[test]
fn sharded_matches_monolithic_on_random_cases() {
    let weights = [
        WeightKind::AttrCount,
        WeightKind::DistinctCount,
        WeightKind::Entropy,
    ];
    let mut multi_shard_cases = 0usize;
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5A4D + case);
        let instance = random_instance(&mut rng);
        let arity = instance.schema().arity();
        let fds = random_fds(&mut rng, arity);
        let weight = weights[(case % 3) as usize];
        let context = format!("case {case} ({weight:?})");

        let plan = ShardPlan::compute(&instance, &fds);
        let shard_count = plan.shard_count();
        if shard_count >= 2 {
            multi_shard_cases += 1;
        }

        let mut sharded =
            RepairProblem::from_sharded(instance.clone(), &fds, &plan, weight, Parallelism::Serial)
                .unwrap_or_else(|e| panic!("{context}: {e}"));
        let mut monolithic = RepairProblem::with_weight(&instance, &fds, weight);

        // The prepared state is literally identical.
        assert_eq!(
            sharded.conflict_graph(),
            monolithic.conflict_graph(),
            "{context}: conflict graphs differ"
        );

        // Every output matches bit-for-bit, including search trajectories.
        let s = spectrum_prefix(&sharded, case, usize::MAX);
        let m = spectrum_prefix(&monolithic, case, usize::MAX);
        assert_spectra_identical(&s, &m, &context);
        assert_eq!(
            s.search_stats.states_expanded, m.search_stats.states_expanded,
            "{context}: search trajectory diverged"
        );
        assert_eq!(
            s.search_stats.states_generated, m.search_stats.states_generated,
            "{context}"
        );
        // Single-τ repairs (Algorithm 1): the same I′, Δd and Σ′, or the
        // same failure.
        let repair_at = |problem: &RepairProblem, tau| {
            let outcome = run_search(problem, tau, &config(), SearchAlgorithm::AStar);
            let repair = outcome.repair.map(|r| {
                let r = materialize_fd_repair(
                    problem,
                    &r,
                    tau,
                    case,
                    Parallelism::Serial,
                    outcome.stats,
                );
                (r.repaired_instance, r.changed_cells, r.modified_fds)
            });
            (repair, outcome.stats.truncated)
        };
        for tau in [sharded.delta_p_original() / 2, sharded.delta_p_original()] {
            assert_eq!(
                repair_at(&sharded, tau),
                repair_at(&monolithic, tau),
                "{context}: τ={tau}"
            );
        }

        // A mutation batch that bridges two shards: the merged graph is
        // patched, and stays bit-identical to the mutated monolithic one.
        if shard_count >= 2 {
            let target = plan.shards()[0][0];
            let victim = plan.shards()[1][0];
            let bridge = bridging_ops(&instance, &fds, target, victim);
            apply_to_both(&mut sharded, &mut monolithic, &bridge, &context);

            let replanned = ShardPlan::compute(sharded.instance(), sharded.sigma());
            assert_eq!(
                replanned.shard_of(target),
                replanned.shard_of(victim),
                "{context}: the bridge must merge the two shards"
            );
            let s = spectrum_prefix(&sharded, case, usize::MAX);
            let m = spectrum_prefix(&monolithic, case, usize::MAX);
            assert_spectra_identical(&s, &m, &format!("{context} post-bridge"));

            // Deleting the bridge row stays bit-identical too.
            let delete = [MutationOp::DeleteTuples(vec![victim])];
            apply_to_both(&mut sharded, &mut monolithic, &delete, &context);
            let s = spectrum_prefix(&sharded, case, usize::MAX);
            let m = spectrum_prefix(&monolithic, case, usize::MAX);
            assert_spectra_identical(&s, &m, &format!("{context} post-resplit"));
        }
    }
    // The loop must actually exercise sharding, not degenerate into
    // single-shard instances.
    assert!(
        multi_shard_cases >= 24,
        "only {multi_shard_cases}/48 cases produced ≥2 shards — generator drifted"
    );
}

/// Thread count must not leak into the merged graph.
#[test]
fn sharded_build_is_identical_across_parallelism_settings() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let instance = random_instance(&mut rng);
    let fds = random_fds(&mut rng, instance.schema().arity());
    let plan = ShardPlan::compute(&instance, &fds);
    let build = |par| {
        RepairProblem::from_sharded(
            instance.clone(),
            &fds,
            &plan,
            WeightKind::DistinctCount,
            par,
        )
        .unwrap()
    };
    let serial = build(Parallelism::Serial);
    for par in [
        Parallelism::Fixed(2),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        assert_eq!(
            serial.conflict_graph(),
            build(par).conflict_graph(),
            "{par:?}"
        );
    }
}

/// The scale smoke test: a default-built engine on the warehouse scenario
/// against the build path its row count did not pick, over the gated sweep
/// prefix and a shard-bridging mutation. Row count honors
/// `RT_WAREHOUSE_ROWS` (CI runs the 100k-row variant in release, where the
/// engine shards; the debug default stays small enough for `cargo test`,
/// where it builds monolithic).
#[test]
fn warehouse_sharded_matches_monolithic() {
    let rows: usize = std::env::var("RT_WAREHOUSE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    let scenario = relative_trust::scenarios::build(
        "warehouse",
        &ScenarioConfig {
            seed: 17,
            rows: Some(rows),
        },
    )
    .expect("warehouse scenario builds");
    let (instance, fds) = (&scenario.dirty, &scenario.dirty_fds);

    let plan = ShardPlan::compute(instance, fds);
    assert!(
        plan.shard_count() >= 2,
        "warehouse must decompose into region shards (got {})",
        plan.shard_count()
    );

    let mut engine = RepairEngine::builder(instance.clone(), fds.clone())
        .weight(WeightKind::DistinctCount)
        .parallelism(Parallelism::Serial)
        .max_expansions(100_000)
        .seed(17)
        .build()
        .unwrap();
    let stats = engine.stats();
    // The row count picks the path: sharded iff rows ≥ the threshold, with
    // one conflict-graph build per shard.
    let sharded = stats.shards > 0;
    assert_eq!(
        sharded,
        rows >= ENGINE_SHARD_ROWS,
        "{rows} rows built with {} shards",
        stats.shards
    );
    let (builds, shards) = if sharded {
        (plan.shard_count(), plan.shard_count())
    } else {
        (1, 0)
    };
    assert_eq!(
        (stats.conflict_graph_builds, stats.shards),
        (builds, shards)
    );

    // The path the row count did not pick, built in rt-core.
    let mut other = if sharded {
        RepairProblem::with_weight(instance, fds, WeightKind::DistinctCount)
    } else {
        RepairProblem::from_sharded(
            instance.clone(),
            fds,
            &plan,
            WeightKind::DistinctCount,
            Parallelism::Serial,
        )
        .unwrap()
    };
    assert_eq!(engine.problem().conflict_graph(), other.conflict_graph());

    // The gated prefix of the τ-sweep (a full spectrum at this scale is a
    // bench-only exercise), bit-identical.
    let mut points = Vec::new();
    for point in engine.sweep(0..=engine.delta_p_original()).take(3) {
        points.push(point.expect("sweep point materializes"));
    }
    let e = Spectrum {
        points,
        search_stats: Default::default(),
    };
    assert_spectra_identical(&e, &spectrum_prefix(&other, 17, 3), "warehouse prefix");
    assert!(!e.points.is_empty(), "prefix must materialize points");

    // A restore builds its engine through the builder, so the row count
    // picks the same path: the same shards and builds, the same graph, and
    // the suspended prefix replays bit for bit.
    let restored = RepairEngine::restore(&engine.snapshot().unwrap()).unwrap();
    assert_eq!(restored.stats(), engine.stats());
    assert_eq!(
        restored.problem().conflict_graph(),
        engine.problem().conflict_graph()
    );
    let replayed = Spectrum {
        points: restored
            .sweep(0..=restored.delta_p_original())
            .take(e.points.len())
            .map(|p| p.expect("restored sweep point materializes"))
            .collect(),
        search_stats: Default::default(),
    };
    assert_spectra_identical(&e, &replayed, "restored warehouse prefix");

    // A bridging batch patches the engine's graph: no rebuild, no replan.
    let target = plan.shards()[0][0];
    let victim = plan.shards()[1][0];
    let bridge = bridging_ops(instance, fds, target, victim);
    engine
        .apply(&bridge.iter().cloned().collect::<MutationBatch>())
        .expect("bridge applies");
    other.apply_mutations(&bridge).expect("bridge applies");
    let stats = engine.stats();
    assert_eq!(
        (stats.conflict_graph_builds, stats.shards),
        (builds, shards),
        "a mutation must never trigger a rebuild or a replan"
    );
    assert_eq!(stats.mutation_batches, 1);
    assert_eq!(engine.problem().conflict_graph(), other.conflict_graph());
}
