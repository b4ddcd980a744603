//! The columnar contract: an `Instance` stores each cell only as a code in
//! its column's dictionary, and every way of reading cells back must agree
//! with the plain decode of that code.
//!
//! * `write_instance` (each distinct value rendered once per column) is
//!   byte-identical to a row-major reference renderer that formats every
//!   cell's `Value` on its own, on every catalog scenario, dirty and
//!   repaired at τ_r = 0.5, with the warehouse at `RT_WAREHOUSE_ROWS` rows
//!   (default 10k), and on a V-instance full of quoting edge cases;
//! * `cell()`, `tuple()` and `tuples()` agree with a decode of the exported
//!   dictionary parts for every cell, V-instance variables included;
//! * equality does not depend on dictionary order, but sees one changed
//!   cell and one changed variable counter;
//! * `RepairEngine::snapshot` → `restore` yields an equal instance with the
//!   same codes, and snapshot bytes are a fixed point of restore.

use relative_trust::prelude::*;
use relative_trust::relation::csv::{write_instance, NULL_TOKENS};
use relative_trust::relation::{AttrDict, Code, VarId, VAR_CODE_BASE};
use relative_trust::scenarios::SCENARIO_NAMES;

fn quoted(field: &str) -> String {
    format!("\"{}\"", field.replace('"', "\"\""))
}

fn escape_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        quoted(field)
    } else {
        field.to_string()
    }
}

/// One cell as the CSV writer must render it: the `Value`'s display form,
/// quoted when `rt-io` would otherwise misread it.
fn cell_field(value: &Value) -> String {
    match value {
        Value::Str(s) if NULL_TOKENS.contains(&s.as_str()) || s.trim().len() != s.len() => {
            quoted(s)
        }
        other => escape_field(&other.to_string()),
    }
}

/// The reference writer: row by row, every cell formatted on its own.
fn reference_csv(instance: &Instance) -> Vec<u8> {
    let header: Vec<String> = instance
        .schema()
        .attributes()
        .map(|(_, n)| escape_field(n))
        .collect();
    let mut out = header.join(",") + "\n";
    for (_, tuple) in instance.tuples() {
        let row: Vec<String> = tuple.cells().map(|(_, v)| cell_field(v)).collect();
        out += &row.join(",");
        out.push('\n');
    }
    out.into_bytes()
}

fn assert_writer_matches_reference(instance: &Instance, context: &str) {
    let mut written = Vec::new();
    write_instance(instance, &mut written).unwrap();
    let reference = reference_csv(instance);
    assert!(
        written == reference,
        "{context}: written CSV differs from the reference ({} vs {} bytes)",
        written.len(),
        reference.len()
    );
}

/// Decodes a code from the dictionary's exported parts — independent of
/// the lookups `cell()` and `tuple()` use.
fn decode_via_parts(parts: &(Vec<Value>, Vec<VarId>), code: Code) -> Value {
    if AttrDict::is_var_code(code) {
        Value::Var(parts.1[(code - VAR_CODE_BASE) as usize])
    } else {
        parts.0[code as usize].clone()
    }
}

fn assert_reads_decode(instance: &Instance, context: &str) {
    let attrs: Vec<AttrId> = instance.schema().attr_ids().collect();
    let parts: Vec<(Vec<Value>, Vec<VarId>)> = attrs
        .iter()
        .map(|&a| instance.dict(a).export_parts())
        .collect();
    let mut rows = 0;
    for (row, tuple) in instance.tuples() {
        assert_eq!(tuple, instance.tuple(row).unwrap(), "{context}: row {row}");
        for &attr in &attrs {
            let expected = decode_via_parts(&parts[attr.index()], instance.code_at(row, attr));
            let cell = CellRef::new(row, attr);
            assert_eq!(instance.cell(cell).unwrap(), &expected, "{context}: {cell}");
            assert_eq!(tuple.get(attr), &expected, "{context}: {cell}");
        }
        rows += 1;
    }
    assert_eq!(rows, instance.len(), "{context}: tuples() row count");
    assert!(instance.tuple(instance.len()).is_err());
    assert!(instance
        .cell(CellRef::new(instance.len(), AttrId(0)))
        .is_err());
}

fn scenario(name: &str) -> Scenario {
    let rows = (name == "warehouse").then(|| {
        std::env::var("RT_WAREHOUSE_ROWS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10_000)
    });
    relative_trust::scenarios::build(name, &ScenarioConfig { seed: 17, rows })
        .expect("catalog scenario builds")
}

fn repaired(scenario: &Scenario) -> Instance {
    EngineOpts::new(17)
        .configure(RepairEngine::builder(
            scenario.dirty.clone(),
            scenario.dirty_fds.clone(),
        ))
        .build()
        .unwrap()
        .repair_at_relative(0.5)
        .unwrap()
        .repaired_instance
}

/// A V-instance with every rendering edge case: nulls, floats, quotes,
/// delimiters, null tokens, padding, carriage returns and variables.
fn edge_case_instance() -> Instance {
    let schema = Schema::new("edge", vec!["s", "n", "x"]).unwrap();
    let strings = [
        "plain",
        "",
        "NULL",
        "null",
        "NA",
        " padded",
        "tail ",
        "a,b",
        "say \"hi\"",
        "cr\rlf",
        "multi\nline",
        "NULLs",
    ];
    let mut instance = Instance::new(schema);
    for (i, &s) in strings.iter().enumerate() {
        let n = if i % 3 == 0 {
            Value::Null
        } else {
            Value::int(i as i64 - 5)
        };
        let x = Value::float(0.5 * i as f64 - 1.0);
        instance
            .push(Tuple::new(vec![Value::str(s), n, x]))
            .unwrap();
    }
    for (row, attr) in [(1, 0), (4, 1), (7, 2), (8, 0)] {
        let var = instance.fresh_var(AttrId(attr));
        instance
            .set_cell(CellRef::new(row, AttrId(attr)), var)
            .unwrap();
    }
    instance
}

#[test]
fn writer_is_byte_identical_to_the_row_major_reference() {
    for name in SCENARIO_NAMES.iter().copied().chain(["warehouse"]) {
        let scenario = scenario(name);
        assert_writer_matches_reference(&scenario.dirty, &format!("{name} dirty"));
        let repaired = repaired(&scenario);
        assert_writer_matches_reference(&repaired, &format!("{name} repaired"));
    }
    assert_writer_matches_reference(&edge_case_instance(), "edge cases");
}

#[test]
fn cells_and_tuples_agree_with_the_dictionary_decode() {
    let edge = edge_case_instance();
    assert!(edge.var_cell_count() > 0);
    assert_reads_decode(&edge, "edge cases");
    for name in SCENARIO_NAMES {
        let scenario = scenario(name);
        assert_reads_decode(&scenario.dirty, &format!("{name} dirty"));
        assert_reads_decode(&repaired(&scenario), &format!("{name} repaired"));
    }
}

#[test]
fn equality_ignores_dictionary_order_but_not_content() {
    let original = edge_case_instance();
    let rows: Vec<Tuple> = original.tuples().map(|(_, t)| t).collect();
    let n = rows.len();
    // Push the rows in reverse, so every dictionary interns in reverse
    // order, then write each row's cells back into place.
    let mut reversed = Instance::new(original.schema().clone());
    for tuple in rows.iter().rev() {
        reversed.push(tuple.clone()).unwrap();
    }
    for (row, tuple) in rows.iter().enumerate() {
        for (attr, value) in tuple.cells() {
            reversed
                .set_cell(CellRef::new(row, attr), value.clone())
                .unwrap();
        }
    }
    reversed
        .restore_var_counters(original.var_counters())
        .unwrap();
    assert_eq!(reversed.len(), n);
    assert!(
        original
            .schema()
            .attr_ids()
            .any(|a| original.codes(a) != reversed.codes(a)),
        "the two instances must encode differently for this test to mean anything"
    );
    assert_eq!(reversed, original);
    assert_eq!(original.diff(&reversed).unwrap().distance(), 0);

    // One changed cell breaks equality.
    let mut changed = reversed.clone();
    changed
        .set_cell(CellRef::new(n - 1, AttrId(2)), Value::float(1e9))
        .unwrap();
    assert_ne!(changed, original);
    assert_eq!(original.diff(&changed).unwrap().distance(), 1);

    // So does one variable counter.
    let mut counted = reversed.clone();
    counted.fresh_var(AttrId(1));
    assert_ne!(counted, original);
}

#[test]
fn snapshot_restore_keeps_the_instance_and_the_bytes() {
    let scenario = scenario("hospital");
    // Engine over a repaired V-instance, so the snapshot carries variables.
    let repaired = repaired(&scenario);
    assert!(repaired.var_cell_count() > 0 || repaired != scenario.dirty);
    for instance in [scenario.dirty.clone(), repaired] {
        let engine = RepairEngine::builder(instance, scenario.dirty_fds.clone())
            .build()
            .unwrap();
        let bytes = engine.snapshot().unwrap();
        let restored = RepairEngine::restore(&bytes).unwrap();
        let (a, b) = (engine.problem().instance(), restored.problem().instance());
        assert_eq!(a, b);
        for attr in a.schema().attr_ids() {
            assert_eq!(a.codes(attr), b.codes(attr));
        }
        // The first restore resets the engine's build counters; from then
        // on a snapshot is a fixed point, byte for byte.
        let second = restored.snapshot().unwrap();
        let third = RepairEngine::restore(&second).unwrap().snapshot().unwrap();
        assert!(second == third, "snapshot bytes moved across a restore");
    }
}
