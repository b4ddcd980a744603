//! Load → engine → sweep → mutation replay, end to end on a bundled CSV.
//!
//! This example drives the typed ingestion front door on the scenario
//! catalog's hospital fixture: the CSV is parsed **directly into
//! dictionary codes** (column types inferred, nulls classified per cell),
//! an engine session is built once, a lazy τ-sweep prints the head of the
//! repair spectrum, and a small mutation batch is then replayed against
//! the *live* session — the conflict graph is patched, never rebuilt.
//!
//! ```sh
//! cargo run --release --example csv_repair
//! ```

use relative_trust::prelude::*;
use relative_trust::scenarios::HOSPITAL_CSV;

fn main() -> Result<(), EngineError> {
    // --- 1. typed CSV load ------------------------------------------------
    // The fixture ships inside the binary; `rt_io::read_instance` infers a
    // type per column (provider_id:int, score:float, names:str, ...) and
    // interns raw field text straight into the dictionary encoding.
    let report = relative_trust::io::read_instance(
        HOSPITAL_CSV.as_bytes(),
        &CsvOptions::csv().relation("hospital"),
    )
    .map_err(|e| EngineError::Parse {
        path: "hospital.csv (bundled)".into(),
        line: 0,
        message: e.to_string(),
    })?;
    let instance = report.instance;
    let schema = instance.schema().clone();
    println!(
        "loaded {} tuples × {} attributes ({} null cells)",
        instance.len(),
        schema.arity(),
        report.null_cells
    );
    let types: Vec<String> = schema
        .attributes()
        .zip(report.columns.iter())
        .map(|((_, n), t)| format!("{n}:{t}"))
        .collect();
    println!("inferred types: {}\n", types.join(", "));

    // --- 2. engine session ------------------------------------------------
    // Hospital-style dependencies, plus one *inaccurate* constraint: a
    // condition spans several measure codes, so `condition->measure_code`
    // is false on the data and must be relaxed rather than enforced.
    let fds = FdSet::parse(
        &[
            "zip->city",
            "provider_id->hospital_name",
            "measure_code->measure_name",
            "condition->measure_code",
        ],
        &schema,
    )
    .map_err(EngineError::Fd)?;
    let mut engine = RepairEngine::builder(instance, fds)
        .weight(WeightKind::DistinctCount)
        .parallelism(Parallelism::Auto)
        .build()?;
    println!(
        "{} conflicting tuple pairs, δP = {}",
        engine.problem().conflict_graph().edge_count(),
        engine.delta_p_original()
    );

    // --- 3. lazy sweep ----------------------------------------------------
    // The stream materializes one spectrum point per `next()`; taking the
    // head costs only the head (the deep small-τ searches never run).
    println!("\nhead of the repair spectrum (largest τ first):");
    for point in engine.sweep(0..=engine.delta_p_original()).take(3) {
        let point = point?;
        println!(
            "  τ ∈ [{:>3}, {:>3}]  FD cost {:>6.1}  cell changes {:>3}   {}",
            point.tau_range.0,
            point.tau_range.1,
            point.repair.dist_c,
            point.repair.data_changes(),
            point.repair.modified_fds.display_with(&schema)
        );
    }

    // --- 4. live mutation replay -------------------------------------------
    // New records arrive and an upstream fix lands; the session absorbs
    // both incrementally and stays bit-identical to a fresh rebuild. The
    // inserted row is parsed under the column types the load inferred, so
    // its cells compare equal to loaded cells of the same value.
    let zip = schema.attr_id("zip").map_err(EngineError::Relation)?;
    let score = schema.attr_id("score").map_err(EngineError::Relation)?;
    let new_row: Vec<Value> = "10011,Lakeside General,1 Pier Rd,Mobile,AL,36608,Mobile,\
                               2515550111,AMI-1,Aspirin at arrival,Heart Attack,91.5,120"
        .split(',')
        .zip(&report.columns)
        .map(|(field, column)| column.parse(field))
        .collect::<Result<_, _>>()
        .map_err(|message| EngineError::Parse {
            path: "inserted row".into(),
            line: 0,
            message,
        })?;
    let outcome = engine.apply(
        &MutationBatch::new()
            .insert_row(new_row)
            .update_cell(CellRef::new(3, zip), Value::int(35233)),
    )?;
    let inserted = CellRef::new(engine.problem().instance().len() - 1, score);
    assert_eq!(
        *engine
            .problem()
            .instance()
            .cell(inserted)
            .map_err(EngineError::Relation)?,
        Value::float(91.5)
    );
    println!(
        "\napplied a live batch: +{} rows, ~{} cells, conflict edges +{}/-{}",
        outcome.effect.rows_inserted,
        outcome.effect.cells_updated,
        outcome.effect.edges_added,
        outcome.effect.edges_removed
    );
    let stats = engine.stats();
    println!(
        "conflict graph builds: {} (rebuilds avoided: {})",
        stats.conflict_graph_builds, stats.mutation_batches
    );
    assert_eq!(stats.conflict_graph_builds, 1);

    // The post-mutation spectrum head reflects the new data.
    println!("\npost-mutation spectrum head:");
    for point in engine.sweep(0..=engine.delta_p_original()).take(2) {
        let point = point?;
        println!(
            "  τ ∈ [{:>3}, {:>3}]  FD cost {:>6.1}  cell changes {:>3}",
            point.tau_range.0,
            point.tau_range.1,
            point.repair.dist_c,
            point.repair.data_changes(),
        );
    }
    Ok(())
}
