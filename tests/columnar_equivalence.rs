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
//!   same codes, and snapshot bytes are a fixed point of restore;
//! * columns are shared copy-on-write, and no write through one instance
//!   is seen through another: a seeded 48-case loop writes a clone through
//!   every write path (and then the original) and checks the other side's
//!   codes, dictionaries, `==` and `Display` after each write, an engine's
//!   earlier sweep points survive `apply`, an unchanged `set_cell` copies
//!   nothing, and a warehouse repair copies only the columns it changed.
//!
//! `work::cells_copied` is process-global, so every test here holds
//! [`serial`] while it runs: a copy made by one test would otherwise show
//! up in another's deltas.

use relative_trust::prelude::*;
use relative_trust::relation::csv::{write_instance, NULL_TOKENS};
use relative_trust::relation::{work, AttrDict, Code, VarId, VAR_CODE_BASE};
use relative_trust::scenarios::SCENARIO_NAMES;
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes this file's tests (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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
    let _serial = serial();
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

/// SplitMix64 — the aliasing loop's seeded randomness, no dependencies.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Everything a reader can see of an instance: each column's codes and
/// dictionary parts, the variable counters and the `Display` rendering.
#[derive(Debug, PartialEq)]
struct Observed {
    codes: Vec<Vec<Code>>,
    dicts: Vec<(Vec<Value>, Vec<VarId>)>,
    var_counters: Vec<u32>,
    display: String,
}

fn observe(instance: &Instance) -> Observed {
    let attrs: Vec<AttrId> = instance.schema().attr_ids().collect();
    Observed {
        codes: attrs.iter().map(|&a| instance.codes(a).to_vec()).collect(),
        dicts: attrs
            .iter()
            .map(|&a| instance.dict(a).export_parts())
            .collect(),
        var_counters: instance.var_counters().to_vec(),
        display: instance.to_string(),
    }
}

/// Whether `attr`'s column is one shared column in both instances.
fn shares(a: &Instance, b: &Instance, attr: AttrId) -> bool {
    Arc::ptr_eq(a.column(attr), b.column(attr))
}

/// An instance rebuilt from `instance`'s parts: equal codes, dictionaries
/// and counters, sharing no column with anything.
fn deep_copy(instance: &Instance) -> Instance {
    let attrs: Vec<AttrId> = instance.schema().attr_ids().collect();
    Instance::from_encoded_parts(
        instance.schema().clone(),
        attrs.iter().map(|&a| instance.dict(a).clone()).collect(),
        attrs.iter().map(|&a| instance.codes(a).to_vec()).collect(),
        instance.var_counters().to_vec(),
    )
    .unwrap()
}

/// A small random value of column `attr`: ints or strings from a small
/// domain (so rows collide and FDs break), now and then null.
fn random_value(mix: &mut Mix, attr: usize) -> Value {
    match mix.below(10) {
        0 => Value::Null,
        _ if attr.is_multiple_of(2) => Value::int(mix.below(4) as i64),
        _ => Value::str(["x", "y", "z", "w"][mix.below(4)]),
    }
}

fn random_tuple(mix: &mut Mix, arity: usize) -> Tuple {
    Tuple::new((0..arity).map(|a| random_value(mix, a)).collect())
}

fn random_instance(mix: &mut Mix) -> Instance {
    let arity = 2 + mix.below(3);
    let names: Vec<String> = (0..arity).map(|a| format!("c{a}")).collect();
    let schema = Schema::new("alias", names.iter().map(String::as_str).collect()).unwrap();
    let mut instance = Instance::new(schema);
    for _ in 0..3 + mix.below(10) {
        instance.push(random_tuple(mix, arity)).unwrap();
    }
    instance
}

/// One random write through one of `Instance`'s write paths, applied to
/// `target` and to `model` alike. Returns what it did, for messages.
fn random_write(mix: &mut Mix, target: &mut Instance, model: &mut Instance) -> String {
    let arity = target.schema().arity();
    let attr = AttrId(mix.below(arity) as u16);
    let rows = target.len();
    match mix.below(6) {
        0 if rows > 0 => {
            // The value the cell already holds: no column may be copied.
            let cell = CellRef::new(mix.below(rows), attr);
            let value = target.cell(cell).unwrap().clone();
            let shared_before = target.column(attr).clone();
            let before = work::snapshot().cells_copied;
            target.set_cell(cell, value.clone()).unwrap();
            assert_eq!(
                work::snapshot().cells_copied,
                before,
                "an unchanged set_cell copied cells"
            );
            assert!(Arc::ptr_eq(&shared_before, target.column(attr)));
            model.set_cell(cell, value).unwrap();
            format!("set_cell({cell}, same value)")
        }
        1 if rows > 0 => {
            let cell = CellRef::new(mix.below(rows), attr);
            let value = random_value(mix, attr.index());
            target.set_cell(cell, value.clone()).unwrap();
            model.set_cell(cell, value.clone()).unwrap();
            format!("set_cell({cell}, {value})")
        }
        2 if rows > 0 => {
            let cell = CellRef::new(mix.below(rows), attr);
            let var = target.fresh_var(attr);
            assert_eq!(model.fresh_var(attr), var);
            target.set_cell(cell, var.clone()).unwrap();
            model.set_cell(cell, var.clone()).unwrap();
            format!("set_cell({cell}, fresh {var})")
        }
        3 if rows > 1 => {
            let doomed: Vec<usize> = (0..1 + mix.below(2)).map(|_| mix.below(rows)).collect();
            target.remove_rows(&doomed).unwrap();
            model.remove_rows(&doomed).unwrap();
            format!("remove_rows({doomed:?})")
        }
        4 => {
            let var = target.fresh_var(attr);
            assert_eq!(model.fresh_var(attr), var);
            format!("fresh_var({attr})")
        }
        _ => {
            let tuple = random_tuple(mix, arity);
            target.push(tuple.clone()).unwrap();
            model.push(tuple).unwrap();
            "push".to_string()
        }
    }
}

/// Writes `writer` `steps` times; after each write `writer` must read as
/// an unshared model given the same writes, and `watched` must read
/// exactly as it did before.
fn write_and_watch(mix: &mut Mix, writer: &mut Instance, watched: &Instance, context: &str) {
    let seen = observe(watched);
    let frozen = deep_copy(watched);
    let mut model = deep_copy(writer);
    for step in 0..8 {
        let op = random_write(mix, writer, &mut model);
        let context = format!("{context}, step {step} ({op})");
        assert_eq!(observe(watched), seen, "{context}: the write leaked");
        assert!(*watched == frozen, "{context}: `==` moved");
        assert_eq!(observe(writer), observe(&model), "{context}: write lost");
        assert!(*writer == model, "{context}");
    }
}

#[test]
fn writes_through_a_clone_never_reach_the_original_or_back() {
    let _serial = serial();
    for case in 0..48u64 {
        let mut mix = Mix(0xA11A5 + case);
        let original = random_instance(&mut mix);

        // A clone copies nothing and shares every column...
        let before = work::snapshot().cells_copied;
        let mut clone = original.clone();
        assert_eq!(
            work::snapshot().cells_copied,
            before,
            "case {case}: clone copied"
        );
        for attr in original.schema().attr_ids() {
            assert!(shares(&clone, &original, attr), "case {case}");
        }
        // ...and its writes stay its own; then the original's stay its own.
        write_and_watch(
            &mut mix,
            &mut clone,
            &original,
            &format!("case {case}, clone"),
        );
        let mut original = original;
        write_and_watch(
            &mut mix,
            &mut original,
            &clone,
            &format!("case {case}, original"),
        );

        // Engine mutations: the caller's instance, and every sweep point
        // pulled before `apply`, read the same afterwards.
        let instance = random_instance(&mut mix);
        let fds = FdSet::parse(&["c0->c1"], instance.schema()).unwrap();
        let seen = observe(&instance);
        let mut engine = RepairEngine::builder(instance.clone(), fds)
            .seed(case)
            .build()
            .unwrap();
        let points: Vec<RepairPoint> = engine
            .sweep(0..=engine.delta_p_original())
            .map(Result::unwrap)
            .collect();
        let kept: Vec<Observed> = points
            .iter()
            .map(|p| observe(&p.repair.repaired_instance))
            .collect();
        let copies: Vec<Instance> = points
            .iter()
            .map(|p| deep_copy(&p.repair.repaired_instance))
            .collect();
        for batch in 0..3 {
            let rows = engine.problem().instance().len();
            let arity = instance.schema().arity();
            let cell = CellRef::new(mix.below(rows), AttrId(mix.below(arity) as u16));
            let mut ops = MutationBatch::new()
                .update_cell(cell, random_value(&mut mix, cell.attr.index()))
                .insert_tuples(vec![random_tuple(&mut mix, arity)]);
            if rows > 2 {
                ops = ops.delete_tuples(vec![mix.below(rows)]);
            }
            engine.apply(&ops).unwrap();
            let context = format!("case {case}, batch {batch}");
            assert_eq!(
                observe(&instance),
                seen,
                "{context}: caller's instance moved"
            );
            for (i, point) in points.iter().enumerate() {
                let repaired = &point.repair.repaired_instance;
                assert_eq!(observe(repaired), kept[i], "{context}: point {i} moved");
                assert!(*repaired == copies[i], "{context}: point {i}");
            }
        }
    }
}

#[test]
fn a_warehouse_repair_copies_only_the_columns_it_changed() {
    let _serial = serial();
    let scenario = relative_trust::scenarios::build(
        "warehouse",
        &ScenarioConfig {
            seed: 17,
            rows: Some(10_000),
        },
    )
    .unwrap();
    let engine = EngineOpts::new(17)
        .configure(RepairEngine::builder(
            scenario.dirty.clone(),
            scenario.dirty_fds.clone(),
        ))
        .build()
        .unwrap();
    let input = engine.problem().instance();
    let before = work::snapshot().cells_copied;
    let repair = engine.repair_at_relative(0.5).unwrap();
    let copied = work::snapshot().cells_copied - before;

    let mut changed: Vec<AttrId> = repair.changed_cells.iter().map(|c| c.attr).collect();
    changed.sort_unstable();
    changed.dedup();
    let arity = input.schema().arity();
    assert!(
        !changed.is_empty() && changed.len() < arity,
        "the repair must change some columns and leave others for this test to mean anything"
    );
    let repaired = &repair.repaired_instance;
    for attr in input.schema().attr_ids() {
        assert_eq!(
            shares(repaired, input, attr),
            !changed.contains(&attr),
            "column {attr}"
        );
    }
    assert_eq!(copied, (changed.len() * input.len()) as u64);
}
