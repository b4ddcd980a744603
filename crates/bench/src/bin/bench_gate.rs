//! `bench_gate` — deterministic work-metric regression gate for CI.
//!
//! Wall-clock numbers on a small shared host are too noisy to gate on (they
//! belong to `perfbench/`), so the gate counts *work*: A* node expansions,
//! heuristic recursion nodes, conflict-graph builds, cells changed,
//! incremental edge deltas. Every counter is bit-deterministic (the workspace's parallel ≡
//! serial and incremental ≡ rebuild contracts), so any drift is a real
//! behavioural change — improvements re-baseline, regressions fail.
//!
//! ```text
//! bench_gate --out ci/BENCH_smoke.json                    # measure + write
//! bench_gate --out ... --check ci/bench_baseline.json     # + gate against baseline
//! bench_gate --check ci/bench_baseline.json --selftest    # + prove the gate trips
//! bench_gate --check ... --inflate spectrum.states_expanded  # negative test
//! ```
//!
//! Regenerate the baseline after an intentional change with
//! `bench_gate --out ci/bench_baseline.json`.

use rt_bench::{Workload, WorkloadSpec};
use rt_core::{Parallelism, WeightKind};
use rt_datagen::{generate_mutation_stream, MutationStreamConfig};
use rt_engine::json::{self, JsonValue};
use rt_engine::{MutationBatch, RepairEngine, Spectrum};
use rt_relation::work::{Slot, Telemetry};
use std::process::ExitCode;

/// Ordered metric list (order is stable so baselines diff cleanly).
type Metrics = Vec<(String, u64)>;

fn spectrum_signature(s: &Spectrum) -> (usize, usize) {
    let cells: usize = s.repairs().map(|r| r.data_changes()).sum();
    (s.len(), cells)
}

/// Pushes every work counter accumulated since `work::reset()` under the
/// given scenario prefix, in the order of the
/// [`WorkSnapshot`](rt_relation::work::WorkSnapshot) table: bytes
/// hashed and heap allocations spent building equality keys, `Value`-level
/// comparisons in hot paths, and code cells copied out of shared columns.
fn push_work_counters(metrics: &mut Metrics, prefix: &str) {
    let mut w = rt_relation::work::snapshot();
    for (name, slot) in w.slots() {
        let Slot::Total(v) = slot else {
            unreachable!("every work counter is a total")
        };
        metrics.push((format!("{prefix}.{name}"), *v));
    }
}

/// Scenario 1: a full spectrum sweep on a fixed-seed workload.
fn measure_spectrum(metrics: &mut Metrics) {
    rt_relation::work::reset();
    let workload = Workload::build(&WorkloadSpec {
        tuples: 160,
        attributes: 10,
        fd_count: 2,
        lhs_size: 3,
        data_error_rate: 0.01,
        fd_error_rate: 0.4,
        seed: 31,
    });
    let engine = workload.engine(Parallelism::Serial, 200_000);
    let spectrum = engine.spectrum().expect("smoke spectrum completes");
    let stats = engine.stats();
    let (points, cells) = spectrum_signature(&spectrum);
    assert_eq!(stats.conflict_graph_builds, 1, "engine invariant violated");
    let m = |k: &str, v: u64| (format!("spectrum.{k}"), v);
    metrics.push(m("states_expanded", stats.states_expanded as u64));
    metrics.push(m("states_generated", stats.states_generated as u64));
    metrics.push(m("heuristic_nodes", stats.heuristic_nodes as u64));
    metrics.push(m("heuristic_cache_hits", stats.heuristic_cache_hits as u64));
    metrics.push(m(
        "heuristic_cache_entries",
        stats.heuristic_cache_entries as u64,
    ));
    metrics.push(m(
        "conflict_graph_builds",
        stats.conflict_graph_builds as u64,
    ));
    metrics.push(m("points", points as u64));
    metrics.push(m("cells_changed", cells as u64));
    push_work_counters(metrics, "spectrum");
}

/// Scenario 2: a live mutation stream replayed against one engine session,
/// verified bit-identical to a fresh rebuild at the end.
fn measure_mutations(metrics: &mut Metrics) {
    rt_relation::work::reset();
    let workload = Workload::build(&WorkloadSpec {
        tuples: 120,
        attributes: 8,
        fd_count: 2,
        lhs_size: 3,
        data_error_rate: 0.01,
        fd_error_rate: 0.3,
        seed: 7,
    });
    let mut engine = RepairEngine::builder(
        workload.dirty_instance().clone(),
        workload.dirty_fds().clone(),
    )
    .weight(WeightKind::DistinctCount)
    .parallelism(Parallelism::Serial)
    .max_expansions(200_000)
    .seed(workload.spec.seed)
    .build()
    .expect("gate workload builds");

    engine.spectrum().expect("pre-mutation spectrum completes");
    let ops = generate_mutation_stream(
        workload.dirty_instance(),
        workload.dirty_fds(),
        &MutationStreamConfig {
            ops: 15,
            fd_edit_weight: 1,
            fresh_value_rate: 0.5,
            seed: 11,
            ..Default::default()
        },
    );
    for op in &ops {
        engine
            .apply(&MutationBatch::new().push(op.clone()))
            .expect("generated stream applies cleanly");
    }
    let after = engine.spectrum().expect("post-mutation spectrum completes");
    let stats = engine.stats();
    assert_eq!(stats.conflict_graph_builds, 1, "engine invariant violated");
    assert_eq!(stats.graph_rebuild_avoided, ops.len());
    // Snapshot the equality-work counters *before* the fresh-rebuild
    // verification below: the gate measures the incremental session, not the
    // gate's own cross-check.
    let mut work_metrics = Metrics::new();
    push_work_counters(&mut work_metrics, "mutations");

    // Hard equivalence gate: the incremental session must be bit-identical
    // to a fresh engine on the mutated inputs.
    let fresh = RepairEngine::builder(
        engine.problem().instance().clone(),
        engine.problem().sigma().clone(),
    )
    .weight(WeightKind::DistinctCount)
    .parallelism(Parallelism::Serial)
    .max_expansions(200_000)
    .seed(workload.spec.seed)
    .build()
    .expect("fresh engine builds");
    let fresh_spectrum = fresh.spectrum().expect("fresh spectrum completes");
    assert!(
        after.bit_identical(&fresh_spectrum),
        "incremental engine diverged from a fresh rebuild"
    );

    let (points, cells) = spectrum_signature(&after);
    let m = |k: &str, v: u64| (format!("mutations.{k}"), v);
    metrics.push(m("states_expanded", stats.states_expanded as u64));
    metrics.push(m("heuristic_nodes", stats.heuristic_nodes as u64));
    metrics.push(m("heuristic_cache_hits", stats.heuristic_cache_hits as u64));
    metrics.push(m(
        "heuristic_cache_entries",
        stats.heuristic_cache_entries as u64,
    ));
    metrics.push(m(
        "conflict_graph_builds",
        stats.conflict_graph_builds as u64,
    ));
    metrics.push(m(
        "graph_rebuild_avoided",
        stats.graph_rebuild_avoided as u64,
    ));
    metrics.push(m("edges_added", stats.edges_added as u64));
    metrics.push(m("edges_removed", stats.edges_removed as u64));
    metrics.push(m("components_dirtied", stats.components_dirtied as u64));
    metrics.push(m("points", points as u64));
    metrics.push(m("cells_changed", cells as u64));
    metrics.extend(work_metrics);
}

/// Scenario 3: the typed CSV bulk load of the bundled hospital fixture.
/// The headline property is a hard assert, not just a gated counter: the
/// encoded path builds **zero** equality keys (`key_allocs == 0`).
fn measure_csv_load(metrics: &mut Metrics) {
    use rt_scenarios::HOSPITAL_CSV;

    rt_relation::work::reset();
    let typed = rt_io::read_instance(HOSPITAL_CSV.as_bytes(), &rt_io::CsvOptions::csv())
        .expect("fixture parses on the typed path");
    let w = rt_relation::work::snapshot();
    assert_eq!(
        w.key_allocs, 0,
        "the encoded CSV load path must not build equality keys"
    );
    // One record per non-empty line after the header.
    let fixture_rows = HOSPITAL_CSV
        .lines()
        .skip(1)
        .filter(|l| !l.is_empty())
        .count();
    assert_eq!(typed.instance.len(), fixture_rows);
    metrics.push(("csv_load.encoded_key_allocs".into(), w.key_allocs));
    metrics.push(("csv_load.encoded_key_bytes".into(), w.key_bytes_hashed));
    metrics.push(("csv_load.rows".into(), typed.instance.len() as u64));
}

/// How many spectrum points the catalog-scenario gate materializes per
/// sweep. A full τ-sweep down to `τ = 0` forces the deepest FD searches
/// and can take minutes per scenario; the sweep is lazy and the prefix is
/// where production sessions live (trust the constraints first), so the
/// gate pins the first few points — deterministic, bounded, and still
/// exercising the whole pipeline.
const SCENARIO_SWEEP_POINTS: usize = 3;

/// Materializes the first [`SCENARIO_SWEEP_POINTS`] points of an engine's
/// τ-sweep as a comparable `Spectrum` (the stats field is excluded from
/// `bit_identical`, so a default suffices).
fn sweep_prefix(engine: &RepairEngine, label: &str) -> Spectrum {
    let mut points = Vec::new();
    for point in engine
        .sweep(0..=engine.delta_p_original())
        .take(SCENARIO_SWEEP_POINTS)
    {
        points.push(point.unwrap_or_else(|e| panic!("{label}: sweep failed: {e}")));
    }
    Spectrum {
        points,
        search_stats: Default::default(),
    }
}

/// Scenarios 4..: every catalog workload end to end — build (typed load or
/// seeded generation + injection), a bounded prefix of the τ-sweep, a
/// short live mutation stream, and the hard incremental ≡ rebuild
/// bit-identity assert on the post-mutation prefix.
fn measure_catalog_scenario(metrics: &mut Metrics, name: &str) {
    use rt_scenarios::ScenarioConfig;

    rt_relation::work::reset();
    let scenario =
        rt_scenarios::build(name, &ScenarioConfig::default()).expect("catalog scenario builds");
    let mut engine = RepairEngine::builder(scenario.dirty.clone(), scenario.dirty_fds.clone())
        .weight(WeightKind::DistinctCount)
        .parallelism(Parallelism::Serial)
        .max_expansions(400_000)
        .seed(17)
        .build()
        .expect("scenario engine builds");
    let edge_count = engine.problem().conflict_graph().edge_count();
    let before = sweep_prefix(&engine, name);

    let ops = generate_mutation_stream(
        engine.problem().instance(),
        engine.problem().sigma(),
        &MutationStreamConfig {
            ops: 6,
            fd_edit_weight: 0,
            fresh_value_rate: 0.4,
            seed: 23,
            ..Default::default()
        },
    );
    for op in &ops {
        engine
            .apply(&MutationBatch::new().push(op.clone()))
            .expect("scenario mutation stream applies cleanly");
    }
    let after = sweep_prefix(&engine, name);
    let stats = engine.stats();
    assert_eq!(stats.conflict_graph_builds, 1, "engine invariant violated");

    // Snapshot before the fresh-rebuild cross-check: the gate measures the
    // scenario, not its own verification.
    let w = rt_relation::work::snapshot();

    let fresh = RepairEngine::builder(
        engine.problem().instance().clone(),
        engine.problem().sigma().clone(),
    )
    .weight(WeightKind::DistinctCount)
    .parallelism(Parallelism::Serial)
    .max_expansions(400_000)
    .seed(17)
    .build()
    .expect("fresh scenario engine builds");
    assert!(
        after.bit_identical(&sweep_prefix(&fresh, name)),
        "scenario `{name}`: incremental engine diverged from a fresh rebuild"
    );

    let (points, cells) = spectrum_signature(&before);
    let m = |k: &str, v: u64| (format!("scenario.{name}.{k}"), v);
    metrics.push(m("conflict_edges", edge_count as u64));
    metrics.push(m("states_expanded", stats.states_expanded as u64));
    metrics.push(m("heuristic_nodes", stats.heuristic_nodes as u64));
    metrics.push(m("heuristic_cache_hits", stats.heuristic_cache_hits as u64));
    metrics.push(m(
        "heuristic_cache_entries",
        stats.heuristic_cache_entries as u64,
    ));
    metrics.push(m("points", points as u64));
    metrics.push(m("cells_changed", cells as u64));
    metrics.push(m("edges_added", stats.edges_added as u64));
    metrics.push(m("edges_removed", stats.edges_removed as u64));
    metrics.push(m("key_bytes_hashed", w.key_bytes_hashed));
    metrics.push(m("key_allocs", w.key_allocs));
    metrics.push(m("value_compares", w.value_compares));
}

/// The warehouse row-count tiers. Per-row work must stay flat across two
/// orders of magnitude — that is the scale-up claim, stated as counters.
const WAREHOUSE_TIERS: [(usize, &str); 3] = [(10_000, "10k"), (100_000, "100k"), (1_000_000, "1m")];

/// Scenario: the memory-bounded scale-up path end to end — stream a seeded
/// warehouse CSV from disk in one pass, build the engine through the
/// sharded conflict-graph path, and sweep the gated prefix — at 10k, 100k
/// and 1M rows. The gate is *per-row* work: bytes hashed per row and the
/// peak resident-cell estimate must not grow with the tier (hard asserts,
/// on top of the baseline). At the smallest tier the sharded engine is also
/// hard-checked bit-identical to a monolithic build.
fn measure_warehouse(metrics: &mut Metrics) {
    use rt_core::ShardPlan;
    use rt_engine::ShardRows;
    use rt_scenarios::{gen, WAREHOUSE_ERRORS};

    // (tier label, milli-units per row) series for the flatness asserts.
    let mut per_row_bytes: Vec<(&str, u64)> = Vec::new();
    let mut peaks: Vec<(&str, u64)> = Vec::new();
    let mut per_row_copied: Vec<(&str, u64)> = Vec::new();
    for (rows, label) in WAREHOUSE_TIERS {
        let path = std::env::temp_dir().join(format!(
            "rt-bench-warehouse-{rows}-{}.csv",
            std::process::id()
        ));
        {
            let file = std::fs::File::create(&path).expect("temp CSV creates");
            let mut out = std::io::BufWriter::new(file);
            gen::write_warehouse_csv(&mut out, rows, 17, WAREHOUSE_ERRORS)
                .expect("warehouse CSV streams to disk");
        }

        rt_relation::work::reset();
        let report = rt_io::load_path(&path, &rt_io::CsvOptions::csv().relation("warehouse"))
            .expect("warehouse CSV loads");
        std::fs::remove_file(&path).ok();
        let load = rt_relation::work::snapshot();
        assert_eq!(
            load.key_allocs, 0,
            "warehouse.{label}: the load path must not build equality keys"
        );
        // The gauge counts the encoded columns; the raw text the load holds
        // is a few blocks in flight, bounded by the worker count rather
        // than the input, so the bound is the encoded relation itself.
        let peak = rt_relation::work::peak_resident_cells();
        let arity = report.instance.schema().arity();
        assert!(
            peak <= (rows * arity) as u64,
            "warehouse.{label}: resident cells exceeded the encoded relation ({peak} cells)"
        );

        let fds = gen::warehouse_fds(report.instance.schema());
        let engine = RepairEngine::builder(report.instance.clone(), fds.clone())
            .weight(WeightKind::DistinctCount)
            .parallelism(Parallelism::Serial)
            .max_expansions(400_000)
            .seed(17)
            .shard_rows(ShardRows::Threshold(0))
            .build()
            .expect("warehouse engine builds sharded");
        let stats = engine.stats();
        let plan_shards =
            ShardPlan::compute(engine.problem().instance(), engine.problem().sigma()).shard_count();
        // The acceptance invariant: one build per shard, never a monolithic
        // rebuild.
        assert_eq!(
            stats.conflict_graph_builds, plan_shards,
            "warehouse.{label}: sharded build count must equal the shard count"
        );
        assert_eq!(stats.shards, plan_shards, "warehouse.{label}");
        let edge_count = engine.problem().conflict_graph().edge_count();
        let prefix = sweep_prefix(&engine, label);
        let w = rt_relation::work::snapshot();

        // At the cheapest tier, cross-check the whole sharded pipeline
        // against a monolithic build of the same loaded instance.
        if rows == WAREHOUSE_TIERS[0].0 {
            let mono = RepairEngine::builder(report.instance.clone(), fds.clone())
                .weight(WeightKind::DistinctCount)
                .parallelism(Parallelism::Serial)
                .max_expansions(400_000)
                .seed(17)
                .shard_rows(ShardRows::Off)
                .build()
                .expect("warehouse engine builds monolithic");
            assert_eq!(
                engine.problem().conflict_graph(),
                mono.problem().conflict_graph(),
                "warehouse.{label}: sharded conflict graph diverged from monolithic"
            );
            assert!(
                prefix.bit_identical(&sweep_prefix(&mono, label)),
                "warehouse.{label}: sharded sweep diverged from monolithic"
            );
        }

        let bytes_per_row_x1000 = w.key_bytes_hashed * 1000 / rows as u64;
        let peak_per_row_x1000 = peak * 1000 / rows as u64;
        let copied_per_row_x1000 = w.cells_copied * 1000 / rows as u64;
        per_row_bytes.push((label, bytes_per_row_x1000));
        peaks.push((label, peak_per_row_x1000));
        per_row_copied.push((label, copied_per_row_x1000));

        let (points, cells) = spectrum_signature(&prefix);
        let m = |k: &str, v: u64| (format!("warehouse.{label}.{k}"), v);
        metrics.push(m("rows", rows as u64));
        metrics.push(m("shards", stats.shards as u64));
        metrics.push(m("conflict_edges", edge_count as u64));
        metrics.push(m("states_expanded", stats.states_expanded as u64));
        metrics.push(m("points", points as u64));
        metrics.push(m("cells_changed", cells as u64));
        metrics.push(m("key_bytes_per_row_x1000", bytes_per_row_x1000));
        metrics.push(m(
            "key_allocs_per_row_x1000",
            w.key_allocs * 1000 / rows as u64,
        ));
        metrics.push(m("peak_resident_cells_per_row_x1000", peak_per_row_x1000));
        metrics.push(m("cells_copied_per_row_x1000", copied_per_row_x1000));
    }

    // Flatness across two orders of magnitude: per-row hashing, per-row
    // resident peak and per-row column copies within 1.5× of the smallest
    // tier. (The baseline gates drift run-over-run; these asserts gate the
    // *shape*.)
    for series in [&per_row_bytes, &peaks, &per_row_copied] {
        let (base_label, base) = series[0];
        for &(label, v) in &series[1..] {
            assert!(
                v <= base + base / 2,
                "warehouse per-row work grew with scale: {base_label}={base} vs {label}={v} \
                 (milli-units/row)"
            );
        }
    }
}

/// Scenario: the service layer end to end — several named sessions
/// interleaved over one loopback TCP connection, with `max_sessions` low
/// enough to force an LRU eviction mid-run. The driving client is a single
/// thread issuing a fixed request sequence, and the server's idleness
/// clock is logical (a request counter), so every gated counter is exact.
/// The headline property is a hard assert: the post-mutation spectrum that
/// crosses the wire is bit-identical to an in-process engine fed the same
/// CSV text and mutation log.
fn measure_serve(metrics: &mut Metrics) {
    use rt_client::Client;
    use rt_engine::decode_mutation_log;
    use rt_proto::EngineOpts;
    use rt_server::{Server, ServerConfig};

    let config = ServerConfig {
        max_sessions: 2,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp_with("127.0.0.1:0", config).expect("loopback bind");
    let addr = server.local_addr().expect("tcp server has an address");
    let worker = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr.to_string()).expect("loopback connect");

    let mut opts = EngineOpts::new(7);
    opts.threads = Parallelism::Serial;

    // Two interleaved sessions on distinct workloads...
    let hospital_text = rt_scenarios::HOSPITAL_CSV;
    let hospital_fds = ["zip->city", "provider_id->hospital_name"];
    let small_text = "A,B,C\n1,1,2\n1,2,2\n2,5,3\n2,5,4\n3,7,4\n";
    let mut s1 = client.create_session("s1", opts).expect("s1 creates");
    let mut s2 = client.create_session("s2", opts).expect("s2 creates");
    s1.load_csv(small_text, false, &["A->B", "C->A"])
        .expect("s1 loads");
    s2.load_csv(hospital_text, false, &hospital_fds)
        .expect("s2 loads");
    let s1_spectrum = s1.spectrum().expect("s1 spectrum");
    let s2_spectrum = s2.spectrum().expect("s2 spectrum");

    // ...a third session evicts the LRU one (s1: s2 was used after it)...
    let mut s3 = client.create_session("s3", opts).expect("s3 creates");
    s3.load_csv("X,Y\n1,1\n1,2\n", false, &["X->Y"])
        .expect("s3 loads");
    s3.spectrum().expect("s3 spectrum");

    // ...and a mutation batch against the surviving hospital session.
    let ops_text = r#"[
        {"op": "update", "row": 3, "attr": "city", "value": "Mobile"},
        {"op": "insert", "rows": [
            [77001, "Bayou City Medical", "1 Main St", "Houston", "TX", 77001,
             "Harris", 7135550100, "AMI-1", "Aspirin at arrival", "Heart Attack", 88.5, 10]
        ]}
    ]"#;
    let (wire_effect, _) = s2.apply_text(ops_text).expect("wire mutation applies");
    let wire_after = s2.spectrum().expect("post-mutation wire spectrum");
    let wire_stats = s2.stats().expect("s2 stats");
    assert_eq!(
        wire_stats.conflict_graph_builds, 1,
        "a wire session must build its conflict graph exactly once"
    );

    // Hard bit-identity gate: in-process twin of s2, same text, same log.
    // The server loads wire text under the fixed relation name "input";
    // the twin must match for the instances to compare bit-identical.
    let report = rt_io::read_instance(
        hospital_text.as_bytes(),
        &rt_io::CsvOptions::csv().relation("input"),
    )
    .expect("hospital fixture parses");
    let schema = report.instance.schema().clone();
    let sigma = rt_constraints::FdSet::parse(&hospital_fds, &schema).expect("hospital FDs parse");
    let mut twin = opts
        .configure(RepairEngine::builder(report.instance, sigma))
        .build()
        .expect("twin engine builds");
    twin.spectrum().expect("twin pre-mutation spectrum");
    let doc = json::parse(ops_text).expect("mutation log parses");
    let decoded = decode_mutation_log(&doc, &schema).expect("mutation log decodes");
    let local_outcome = twin
        .apply(&decoded.into_iter().collect::<MutationBatch>())
        .expect("twin mutation applies");
    assert_eq!(
        wire_effect, local_outcome.effect,
        "wire and in-process mutation effects diverged"
    );
    assert!(
        wire_after.bit_identical(&twin.spectrum().expect("twin post-mutation spectrum")),
        "serve: wire spectrum diverged from the in-process engine"
    );

    let counters = client.server_stats().expect("server counters");
    let lookup = |name: &str| -> u64 {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("server counter `{name}` missing"))
            .1
    };
    assert!(lookup("sessions_evicted") >= 1, "no eviction happened");

    let (s2_points, s2_cells) = spectrum_signature(&wire_after);
    let (s1_points, s1_cells) = spectrum_signature(&s1_spectrum);
    let m = |k: &str, v: u64| (format!("serve.multi_session.{k}"), v);
    metrics.push(m("frames_decoded", lookup("frames_decoded")));
    metrics.push(m("requests_served", lookup("requests_served")));
    metrics.push(m("sessions_created", lookup("sessions_created")));
    metrics.push(m("sessions_evicted", lookup("sessions_evicted")));
    metrics.push(m("states_expanded", wire_stats.states_expanded as u64));
    metrics.push(m(
        "points",
        (s1_points + s2_points + s2_spectrum.len()) as u64,
    ));
    metrics.push(m("cells_changed", (s1_cells + s2_cells) as u64));

    client.shutdown().expect("graceful shutdown");
    worker
        .join()
        .expect("server thread joins")
        .expect("server run succeeds");
}

/// Scenario: crash-safe sessions end to end — load, mutate, snapshot,
/// crash (an armed fault point kills the server before a rotation's
/// rename), restart on the same data dir, restore, sweep. The headline
/// properties are hard asserts: the recovered spectrum is bit-identical to
/// an uninterrupted in-process twin, recovery replays the WAL instead of
/// rebuilding (`conflict_graph_builds == 0`), and every durability counter
/// is exact (the journal is synchronous and the workload is fixed).
fn measure_recover_restart(metrics: &mut Metrics) {
    use rt_client::Client;
    use rt_engine::decode_mutation_log;
    use rt_proto::EngineOpts;
    use rt_server::{FaultPoint, Server, ServerConfig};

    let dir = std::env::temp_dir().join(format!("rt-bench-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let mut opts = EngineOpts::new(7);
    opts.threads = Parallelism::Serial;

    let text = "A,B,C\n1,1,2\n1,2,2\n2,5,3\n2,5,4\n3,7,4\n";
    let fds = ["A->B", "C->A"];
    let ops_snapshotted = r#"[{"op": "update", "row": 1, "attr": "B", "value": 1}]"#;
    let ops_journaled = r#"[{"op": "insert", "rows": [[3, 8, 5]]}]"#;

    // --- First life: load, mutate, rotate, mutate again, crash. ---------
    let server = Server::bind_tcp_with("127.0.0.1:0", config.clone()).expect("loopback bind");
    let addr = server.local_addr().expect("tcp server has an address");
    let handle = server.handle();
    let worker = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr.to_string()).expect("loopback connect");

    let mut session = client
        .create_session("recover", opts)
        .expect("session creates");
    session.load_csv(text, false, &fds).expect("session loads");
    session
        .apply_text(ops_snapshotted)
        .expect("first mutation applies");
    session.snapshot().expect("explicit rotation succeeds");
    session
        .apply_text(ops_journaled)
        .expect("second mutation applies");

    let counters = client.server_stats().expect("server counters");
    let lookup = |counters: &[(String, u64)], name: &str| -> u64 {
        counters
            .iter()
            .find(|(k, _)| k == name)
            .unwrap_or_else(|| panic!("server counter `{name}` missing"))
            .1
    };
    // Two rotations: the load_csv baseline and the explicit snapshot.
    let snapshots_written = lookup(&counters, "snapshots_written");
    assert_eq!(snapshots_written, 2, "rotation count drifted");

    // Crash mid-rotation: the rename never lands, the WAL must carry it.
    assert!(handle.arm_fault(FaultPoint::BeforeSnapshotRename));
    assert!(
        session.snapshot().is_err(),
        "the armed fault point must kill the rotation"
    );
    drop(session);
    drop(client);
    worker
        .join()
        .expect("server thread joins")
        .expect("crashed server still returns cleanly");

    // --- Second life: restart on the same dir and recover. --------------
    let server = Server::bind_tcp_with("127.0.0.1:0", config).expect("loopback rebind");
    let addr = server.local_addr().expect("tcp server has an address");
    let worker = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr.to_string()).expect("loopback reconnect");

    let (mut restored, _summary, replayed) =
        client.restore_session("recover").expect("session restores");
    let wire = restored.spectrum().expect("recovered spectrum");
    let stats = restored.stats().expect("recovered stats");
    assert_eq!(
        stats.conflict_graph_builds, 0,
        "recovery must replay, never rebuild"
    );

    // Hard bit-identity gate: an uninterrupted twin fed the same text and
    // the same acknowledged mutation log.
    let report = rt_io::read_instance(text.as_bytes(), &rt_io::CsvOptions::csv().relation("input"))
        .expect("fixture parses");
    let schema = report.instance.schema().clone();
    let sigma = rt_constraints::FdSet::parse(&fds, &schema).expect("FDs parse");
    let mut twin = opts
        .configure(RepairEngine::builder(report.instance, sigma))
        .build()
        .expect("twin engine builds");
    for ops_text in [ops_snapshotted, ops_journaled] {
        let doc = json::parse(ops_text).expect("mutation log parses");
        let decoded = decode_mutation_log(&doc, &schema).expect("mutation log decodes");
        twin.apply(&decoded.into_iter().collect::<MutationBatch>())
            .expect("twin mutation applies");
    }
    assert!(
        wire.bit_identical(&twin.spectrum().expect("twin spectrum")),
        "recover.restart: recovered spectrum diverged from the uninterrupted twin"
    );

    let counters = client.server_stats().expect("server counters");
    assert_eq!(lookup(&counters, "recovery_failures"), 0);

    let (points, cells) = spectrum_signature(&wire);
    let m = |k: &str, v: u64| (format!("recover.restart.{k}"), v);
    metrics.push(m("snapshots_written", snapshots_written));
    metrics.push(m(
        "wal_records_replayed",
        lookup(&counters, "wal_records_replayed"),
    ));
    metrics.push(m(
        "sessions_recovered",
        lookup(&counters, "sessions_recovered"),
    ));
    metrics.push(m("wal_tail_replayed", replayed as u64));
    metrics.push(m(
        "conflict_graph_builds",
        stats.conflict_graph_builds as u64,
    ));
    metrics.push(m("points", points as u64));
    metrics.push(m("cells_changed", cells as u64));

    client.shutdown().expect("graceful shutdown");
    worker
        .join()
        .expect("server thread joins")
        .expect("server run succeeds");
    let _ = std::fs::remove_dir_all(&dir);
}

fn measure() -> Metrics {
    let mut metrics = Metrics::new();
    measure_spectrum(&mut metrics);
    measure_mutations(&mut metrics);
    measure_csv_load(&mut metrics);
    for name in rt_scenarios::SCENARIO_NAMES {
        measure_catalog_scenario(&mut metrics, name);
    }
    measure_warehouse(&mut metrics);
    measure_serve(&mut metrics);
    measure_recover_restart(&mut metrics);
    metrics
}

/// One metric per line (so baselines diff cleanly); keys are escaped by
/// the workspace JSON codec.
fn render(metrics: &Metrics) -> String {
    let mut out = String::from("{\"format\": 1,\n \"metrics\": {\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let key = json::render(&JsonValue::Str(k.clone()));
        out.push_str(&format!("  {key}: {v}"));
    }
    out.push_str("\n }}\n");
    out
}

fn parse_metrics(text: &str) -> Result<Metrics, String> {
    let doc = json::parse(text)?;
    let fields = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("baseline has no \"metrics\" object")?;
    fields
        .iter()
        .map(|(k, v)| {
            v.as_usize()
                .map(|n| (k.clone(), n as u64))
                .ok_or(format!("metric {k} is not a non-negative integer"))
        })
        .collect()
}

/// Gate rule: a counter above its baseline is a work regression → fail.
/// Below baseline (an improvement) or metrics only on one side → warn, so
/// intentional changes re-baseline explicitly.
fn check(current: &Metrics, baseline: &Metrics) -> Result<Vec<String>, Vec<String>> {
    let mut warnings = Vec::new();
    let mut failures = Vec::new();
    for (key, base) in baseline {
        match current.iter().find(|(k, _)| k == key) {
            None => failures.push(format!("metric `{key}` disappeared (baseline {base})")),
            Some((_, cur)) if cur > base => failures.push(format!(
                "work regression: `{key}` rose {base} -> {cur} (+{:.1}%)",
                ((*cur as f64 / *base as f64) - 1.0) * 100.0
            )),
            Some((_, cur)) if cur < base => warnings.push(format!(
                "improvement: `{key}` fell {base} -> {cur}; re-baseline to lock it in"
            )),
            _ => {}
        }
    }
    for (key, _) in current {
        if !baseline.iter().any(|(k, _)| k == key) {
            warnings.push(format!("new metric `{key}` not in baseline; re-baseline"));
        }
    }
    if failures.is_empty() {
        Ok(warnings)
    } else {
        Err(failures)
    }
}

/// Proves the gate actually trips: inflating any counter by 10% (rounding
/// up) against the same metrics as baseline must fail the check.
fn selftest(metrics: &Metrics) -> Result<(), String> {
    if check(metrics, metrics).is_err() {
        return Err("identical metrics must pass the gate".to_string());
    }
    for i in 0..metrics.len() {
        let mut inflated = metrics.clone();
        inflated[i].1 += (inflated[i].1 / 10).max(1);
        if check(&inflated, metrics).is_ok() {
            return Err(format!(
                "inflating `{}` was not caught by the gate",
                metrics[i].0
            ));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut inflate: Option<String> = None;
    let mut run_selftest = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).cloned();
            }
            "--check" => {
                i += 1;
                check_path = args.get(i).cloned();
            }
            "--inflate" => {
                i += 1;
                inflate = args.get(i).cloned();
            }
            "--selftest" => run_selftest = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: bench_gate [--out <path>] [--check <baseline>] [--selftest] \
                     [--inflate <metric>]"
                );
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    println!("bench_gate: measuring deterministic work counters...");
    let mut metrics = measure();
    for (k, v) in &metrics {
        println!("  {k:<40} {v}");
    }

    if let Some(path) = &out_path {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        if let Err(e) = std::fs::write(path, render(&metrics)) {
            eprintln!("bench_gate: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench_gate: wrote {path}");
    }

    if let Some(metric) = &inflate {
        match metrics.iter_mut().find(|(k, _)| k == metric) {
            Some(entry) => {
                entry.1 += (entry.1 / 10).max(1);
                println!(
                    "bench_gate: artificially inflated `{metric}` to {}",
                    entry.1
                );
            }
            None => {
                eprintln!("bench_gate: unknown metric `{metric}`");
                return ExitCode::FAILURE;
            }
        }
    }

    if run_selftest {
        match selftest(&metrics) {
            Ok(()) => println!("bench_gate: selftest OK (every inflated counter trips the gate)"),
            Err(e) => {
                eprintln!("bench_gate: selftest FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(path) = &check_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_gate: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_metrics(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_gate: bad baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check(&metrics, &baseline) {
            Ok(warnings) => {
                for w in &warnings {
                    println!("bench_gate: note: {w}");
                }
                println!("bench_gate: OK against {path}");
            }
            Err(failures) => {
                for f in &failures {
                    eprintln!("bench_gate: FAIL: {f}");
                }
                eprintln!(
                    "bench_gate: counters regressed; if intentional, re-baseline with \
                     `cargo run --release -p rt-bench --bin bench_gate -- --out {path}`"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
