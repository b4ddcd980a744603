//! The shard ≡ monolithic contract of the scale-up build path.
//!
//! Hard invariant (mirroring the parallel ≡ serial and incremental ≡
//! rebuild contracts): an engine built with sharding forced on
//! (`ShardRows::Threshold(0)`) produces repairs, spectra and
//! search-trajectory stats **bit-identical** to a monolithic engine
//! (`ShardRows::Off`) on the same `(I, Σ)` — while its
//! `conflict_graph_builds` equals the shard count of the partition plan
//! (one per-shard build, never a monolithic one).
//!
//! The main test is a 48-case seeded property loop: random instances,
//! random FD sets, rotated across all three weighting functions, then
//! extended with mutation batches that *bridge* two shards (an update that
//! drags a row into another shard's blocking class), driving the
//! deterministic shard merge/re-split path.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::prelude::*;
use relative_trust::relation::AttrId;

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

fn build(
    instance: Instance,
    fds: FdSet,
    weight: WeightKind,
    seed: u64,
    shard_rows: ShardRows,
) -> RepairEngine {
    RepairEngine::builder(instance, fds)
        .weight(weight)
        .parallelism(Parallelism::Serial)
        .max_expansions(100_000)
        .seed(seed)
        .shard_rows(shard_rows)
        .build()
        .unwrap()
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
fn bridging_batch(instance: &Instance, fds: &FdSet, target: usize, victim: usize) -> MutationBatch {
    let fd = fds.get(0);
    let mut batch = MutationBatch::new();
    for attr in fd.lhs.iter() {
        let v = instance.cell(CellRef::new(target, attr)).unwrap().clone();
        batch = batch.update_cell(CellRef::new(victim, attr), v);
    }
    let rhs_target = instance.cell(CellRef::new(target, fd.rhs)).unwrap();
    let rhs_victim = instance.cell(CellRef::new(victim, fd.rhs)).unwrap();
    if rhs_target == rhs_victim {
        // Same RHS would merely merge classes without a conflict; force one.
        batch = batch.update_cell(CellRef::new(victim, fd.rhs), Value::int(777_777));
    }
    batch
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

        let mut sharded = build(
            instance.clone(),
            fds.clone(),
            weight,
            case,
            ShardRows::Threshold(0),
        );
        let mut monolithic = build(instance.clone(), fds.clone(), weight, case, ShardRows::Off);

        // The accounting contract: one conflict-graph build *per shard*,
        // never a monolithic one — and exactly one for the oracle.
        assert_eq!(
            sharded.stats().conflict_graph_builds,
            shard_count,
            "{context}: sharded build count"
        );
        assert_eq!(sharded.stats().shards, shard_count, "{context}");
        assert_eq!(monolithic.stats().conflict_graph_builds, 1, "{context}");
        assert_eq!(monolithic.stats().shards, 0, "{context}");

        // The prepared state is literally identical.
        assert_eq!(
            sharded.problem().conflict_graph(),
            monolithic.problem().conflict_graph(),
            "{context}: conflict graphs differ"
        );

        // Every output matches bit-for-bit, including search trajectories.
        let s = sharded
            .spectrum()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let m = monolithic
            .spectrum()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_spectra_identical(&s, &m, &context);
        assert_eq!(
            sharded.stats().states_expanded,
            monolithic.stats().states_expanded,
            "{context}: search trajectory diverged"
        );
        assert_eq!(
            sharded.stats().states_generated,
            monolithic.stats().states_generated,
            "{context}"
        );
        for tau in [sharded.delta_p_original() / 2, sharded.delta_p_original()] {
            match (sharded.repair_at(tau), monolithic.repair_at(tau)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.repaired_instance, b.repaired_instance,
                        "{context}: τ={tau}"
                    );
                    assert_eq!(a.changed_cells, b.changed_cells, "{context}: τ={tau}");
                    assert_eq!(a.modified_fds, b.modified_fds, "{context}: τ={tau}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{context}: τ={tau}"),
                (a, b) => panic!("{context}: τ={tau}: feasibility disagrees ({a:?} vs {b:?})"),
            }
        }

        // A mutation batch that bridges two shards: the sharded engine must
        // replan (merging the bridged shards) without ever rebuilding, and
        // stay bit-identical to the mutated monolithic engine.
        if shard_count >= 2 {
            let target = plan.shards()[0][0];
            let victim = plan.shards()[1][0];
            let batch = bridging_batch(&instance, &fds, target, victim);
            sharded
                .apply(&batch)
                .unwrap_or_else(|e| panic!("{context}: sharded bridge: {e}"));
            monolithic
                .apply(&batch)
                .unwrap_or_else(|e| panic!("{context}: monolithic bridge: {e}"));

            let replanned =
                ShardPlan::compute(sharded.problem().instance(), sharded.problem().sigma());
            assert_eq!(
                replanned.shard_of(target),
                replanned.shard_of(victim),
                "{context}: the bridge must merge the two shards"
            );
            let stats = sharded.stats();
            assert_eq!(
                stats.conflict_graph_builds, shard_count,
                "{context}: a mutation must never trigger a rebuild"
            );
            assert_eq!(stats.shard_replans, 1, "{context}");
            assert_eq!(stats.shards, replanned.shard_count(), "{context}");
            assert_eq!(stats.graph_rebuild_avoided, 1, "{context}");

            let s = sharded
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let m = monolithic
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert_spectra_identical(&s, &m, &format!("{context} post-bridge"));

            // Deleting the bridge row re-splits the plan deterministically.
            let before_replans = sharded.stats().shard_replans;
            let delete = MutationBatch::new().delete_tuples(vec![victim]);
            sharded
                .apply(&delete)
                .unwrap_or_else(|e| panic!("{context}: sharded delete: {e}"));
            monolithic
                .apply(&delete)
                .unwrap_or_else(|e| panic!("{context}: monolithic delete: {e}"));
            let resplit =
                ShardPlan::compute(sharded.problem().instance(), sharded.problem().sigma());
            let stats = sharded.stats();
            assert_eq!(stats.shard_replans, before_replans + 1, "{context}");
            assert_eq!(stats.shards, resplit.shard_count(), "{context}");
            assert_eq!(stats.conflict_graph_builds, shard_count, "{context}");
            let s = sharded
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            let m = monolithic
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}"));
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

/// Thread count must not leak into the partition or the merged graph.
#[test]
fn sharded_build_is_identical_across_parallelism_settings() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let instance = random_instance(&mut rng);
    let fds = random_fds(&mut rng, instance.schema().arity());
    let serial = RepairEngine::builder(instance.clone(), fds.clone())
        .parallelism(Parallelism::Serial)
        .shard_rows(ShardRows::Threshold(0))
        .build()
        .unwrap();
    for par in [
        Parallelism::Fixed(2),
        Parallelism::Fixed(4),
        Parallelism::Auto,
    ] {
        let parallel = RepairEngine::builder(instance.clone(), fds.clone())
            .parallelism(par)
            .shard_rows(ShardRows::Threshold(0))
            .build()
            .unwrap();
        assert_eq!(
            serial.problem().conflict_graph(),
            parallel.problem().conflict_graph(),
            "{par:?}"
        );
        assert_eq!(serial.stats().shards, parallel.stats().shards, "{par:?}");
    }
}

/// The scale smoke test: the warehouse scenario, sharded vs monolithic,
/// bit-identical over the gated sweep prefix. Row count honors
/// `RT_WAREHOUSE_ROWS` (CI runs the 100k-row variant in release; the debug
/// default stays small enough for `cargo test`).
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

    let plan = ShardPlan::compute(&scenario.dirty, &scenario.dirty_fds);
    assert!(
        plan.shard_count() >= 2,
        "warehouse must decompose into region shards (got {})",
        plan.shard_count()
    );

    let sharded = build(
        scenario.dirty.clone(),
        scenario.dirty_fds.clone(),
        WeightKind::DistinctCount,
        17,
        ShardRows::Threshold(0),
    );
    let monolithic = build(
        scenario.dirty.clone(),
        scenario.dirty_fds.clone(),
        WeightKind::DistinctCount,
        17,
        ShardRows::Off,
    );
    assert_eq!(sharded.stats().conflict_graph_builds, plan.shard_count());
    assert_eq!(sharded.stats().shards, plan.shard_count());
    assert_eq!(
        sharded.problem().conflict_graph(),
        monolithic.problem().conflict_graph()
    );

    // The gated prefix of the τ-sweep (a full spectrum at this scale is a
    // bench-only exercise), bit-identical.
    let prefix = |engine: &RepairEngine| {
        let mut points = Vec::new();
        for point in engine.sweep(0..=engine.delta_p_original()).take(3) {
            points.push(point.expect("sweep point materializes"));
        }
        Spectrum {
            points,
            search_stats: Default::default(),
        }
    };
    let s = prefix(&sharded);
    let m = prefix(&monolithic);
    assert_spectra_identical(&s, &m, "warehouse prefix");
    assert!(!s.points.is_empty(), "prefix must materialize points");
}
