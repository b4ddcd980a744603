//! The JSON mutation-log format `rtclean apply` replays.
//!
//! A log is a JSON array of op objects, applied in order:
//!
//! ```json
//! [
//!   {"op": "insert", "rows": [[1, "x", 3], [2, "y", 3]]},
//!   {"op": "update", "row": 0, "attr": "B", "value": 7},
//!   {"op": "delete", "rows": [4, 2]},
//!   {"op": "add_fd", "fd": "A,B->C"},
//!   {"op": "remove_fd", "index": 0}
//! ]
//! ```
//!
//! Cell values use the workspace's one cell-value codec, [`encode_value`] /
//! [`decode_value`], which the `rt-proto` wire shares: integers below 2^53
//! in magnitude and fractional floats are JSON numbers, strings are
//! strings, `null` is `Null`, and every other value is a reserved tagged
//! string (`"int:…"`, `"float:…"`, `"var:attr:id"`; a string cell that
//! starts with a tag is escaped as `"str:…"`), so the round trip never
//! changes a cell's type. Variable cells decode, but the engine rejects them
//! at the mutation boundary: logs describe *input* mutations. Attributes may
//! be named (schema lookup) or numeric indices; FDs use the usual
//! `"X1,X2->A"` spec syntax. [`render_mutation_log`] writes this format,
//! [`parse_mutation_log`] reads it back; the two round-trip.

use crate::json::{self, JsonValue};
use rt_constraints::Fd;
use rt_core::MutationOp;
use rt_relation::{AttrId, CellRef, Schema, Tuple, Value, VarId};

/// Exclusive bound on the integers a JSON number carries exactly: below
/// 2^53 every integer round-trips through f64; at and above it, a written
/// number may already have been rounded by the float parse, so it cannot be
/// trusted.
const MAX_EXACT_INT: i64 = 1 << 53;

/// Encodes a cell value as JSON — the workspace's one cell-value codec,
/// used by mutation logs and by the `rt-proto` wire (which carries repaired
/// V-instances, hence the variable tag).
///
/// Values map JSON-naturally when that round-trips exactly. Integers of
/// magnitude ≥ 2^53, integral or non-finite floats and variables use the
/// reserved tagged strings `"int:…"`, `"float:…"` and `"var:attr:id"`, and
/// a string cell that starts with a tag is escaped as `"str:…"`.
/// [`decode_value`] reproduces the value bit-for-bit.
pub fn encode_value(value: &Value) -> JsonValue {
    match value {
        Value::Null => JsonValue::Null,
        Value::Int(i) if *i > -MAX_EXACT_INT && *i < MAX_EXACT_INT => JsonValue::Num(*i as f64),
        Value::Int(i) => JsonValue::Str(format!("int:{i}")),
        Value::Float(x) if x.get().is_finite() && x.get().fract() != 0.0 => JsonValue::Num(x.get()),
        Value::Float(x) => JsonValue::Str(format!("float:{}", x.get())),
        Value::Str(s) if is_reserved(s) => JsonValue::Str(format!("str:{s}")),
        Value::Str(s) => JsonValue::Str(s.clone()),
        Value::Var(v) => JsonValue::Str(format!("var:{}:{}", v.attr, v.id)),
    }
}

fn is_reserved(s: &str) -> bool {
    ["str:", "float:", "int:", "var:"]
        .iter()
        .any(|tag| s.starts_with(tag))
}

/// Decodes a cell value written by [`encode_value`]. An integral JSON
/// number of magnitude ≥ 2^53 is rejected rather than truncated.
pub fn decode_value(value: &JsonValue) -> Result<Value, String> {
    match value {
        JsonValue::Null => Ok(Value::Null),
        JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < MAX_EXACT_INT as f64 => {
            Ok(Value::int(*n as i64))
        }
        JsonValue::Num(n) if n.fract() != 0.0 => Ok(Value::float(*n)),
        JsonValue::Num(n) => Err(format!(
            "cell value {n} is not exactly representable in JSON (integers need |v| < 2^53; \
             use the \"int:\" spelling for a larger integer, \"float:\" for an integral float)"
        )),
        JsonValue::Str(s) => {
            let bad = |kind: &str| format!("bad {kind} literal `{s}`");
            if let Some(rest) = s.strip_prefix("str:") {
                Ok(Value::str(rest))
            } else if let Some(rest) = s.strip_prefix("float:") {
                rest.parse::<f64>()
                    .map(Value::float)
                    .map_err(|_| bad("float"))
            } else if let Some(rest) = s.strip_prefix("int:") {
                rest.parse::<i64>().map(Value::int).map_err(|_| bad("int"))
            } else if let Some(rest) = s.strip_prefix("var:") {
                let (attr, id) = rest.split_once(':').ok_or_else(|| bad("variable"))?;
                let attr = attr.parse::<u16>().map_err(|_| bad("variable"))?;
                let id = id.parse::<u32>().map_err(|_| bad("variable"))?;
                Ok(Value::Var(VarId::new(attr, id)))
            } else {
                Ok(Value::str(s.clone()))
            }
        }
        other => Err(format!("unsupported cell value {other:?}")),
    }
}

/// An attribute by schema name, or by index when the schema has no such
/// attribute.
fn attr_ref(attr: AttrId, schema: &Schema) -> JsonValue {
    match schema.attr_name(attr) {
        Ok(name) => JsonValue::Str(name.to_string()),
        Err(_) => JsonValue::Num(f64::from(attr.0)),
    }
}

/// Renders ops as a JSON mutation log (attribute references are written as
/// schema names).
pub fn render_mutation_log(ops: &[MutationOp], schema: &Schema) -> String {
    fn arr(items: impl Iterator<Item = JsonValue>) -> JsonValue {
        JsonValue::Arr(items.collect())
    }
    let num = |n: usize| JsonValue::Num(n as f64);
    let entries = ops.iter().map(|op| {
        let (kind, fields) = match op {
            MutationOp::InsertTuples(tuples) => {
                let rows = tuples
                    .iter()
                    .map(|t| arr(t.cells().map(|(_, v)| encode_value(v))));
                ("insert", vec![("rows", arr(rows))])
            }
            MutationOp::DeleteTuples(rows) => {
                ("delete", vec![("rows", arr(rows.iter().map(|&r| num(r))))])
            }
            MutationOp::UpdateCell(cell, value) => (
                "update",
                vec![
                    ("row", num(cell.row)),
                    ("attr", attr_ref(cell.attr, schema)),
                    ("value", encode_value(value)),
                ],
            ),
            MutationOp::AddFd(fd) => {
                let name = |a| schema.attr_name(a).unwrap_or("?");
                let lhs: Vec<&str> = fd.lhs.iter().map(name).collect();
                let spec = format!("{}->{}", lhs.join(","), name(fd.rhs));
                ("add_fd", vec![("fd", JsonValue::Str(spec))])
            }
            MutationOp::RemoveFd(idx) => ("remove_fd", vec![("index", num(*idx))]),
        };
        let fields = std::iter::once(("op", JsonValue::Str(kind.to_string()))).chain(fields);
        JsonValue::Obj(fields.map(|(k, v)| (k.to_string(), v)).collect())
    });
    json::render(&arr(entries))
}

fn decode_attr(v: &JsonValue, schema: &Schema) -> Result<AttrId, String> {
    if let Some(name) = v.as_str() {
        return schema.attr_id(name).map_err(|e| e.to_string());
    }
    if let Some(idx) = v.as_usize() {
        if idx < schema.arity() {
            return Ok(AttrId(idx as u16));
        }
        return Err(format!(
            "attribute index {idx} out of range (arity {})",
            schema.arity()
        ));
    }
    Err(format!("unsupported attribute reference {v:?}"))
}

/// Parses a JSON mutation log against a schema.
pub fn parse_mutation_log(text: &str, schema: &Schema) -> Result<Vec<MutationOp>, String> {
    let doc = json::parse(text)?;
    decode_mutation_log(&doc, schema)
}

/// Decodes an already-parsed mutation log (the JSON array of op objects)
/// against a schema.
///
/// This is the [`parse_mutation_log`] back half, split out so callers that
/// receive the log embedded in a larger JSON document — the `rt-proto`
/// `apply` request carries it as a subtree of the frame — can decode it
/// without re-rendering to text first.
pub fn decode_mutation_log(doc: &JsonValue, schema: &Schema) -> Result<Vec<MutationOp>, String> {
    let entries = doc
        .as_array()
        .ok_or("mutation log must be a JSON array of op objects")?;
    let mut ops = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let op = entry
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or(format!("entry #{i}: missing \"op\" field"))?;
        let parsed = match op {
            "insert" => {
                let rows = entry
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or(format!("entry #{i}: insert needs a \"rows\" array"))?;
                let mut tuples = Vec::with_capacity(rows.len());
                for row in rows {
                    let cells = row
                        .as_array()
                        .ok_or(format!("entry #{i}: each inserted row must be an array"))?;
                    if cells.len() != schema.arity() {
                        return Err(format!(
                            "entry #{i}: inserted row has {} cells but the schema has {} \
                             attributes",
                            cells.len(),
                            schema.arity()
                        ));
                    }
                    let values = cells
                        .iter()
                        .map(decode_value)
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| format!("entry #{i}: {e}"))?;
                    tuples.push(Tuple::new(values));
                }
                MutationOp::InsertTuples(tuples)
            }
            "delete" => {
                let rows = entry
                    .get("rows")
                    .and_then(JsonValue::as_array)
                    .ok_or(format!("entry #{i}: delete needs a \"rows\" array"))?;
                let indices = rows
                    .iter()
                    .map(|r| {
                        r.as_usize()
                            .ok_or("row indices must be non-negative integers")
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("entry #{i}: {e}"))?;
                MutationOp::DeleteTuples(indices)
            }
            "update" => {
                let row = entry
                    .get("row")
                    .and_then(JsonValue::as_usize)
                    .ok_or(format!("entry #{i}: update needs a \"row\" index"))?;
                let attr = decode_attr(
                    entry
                        .get("attr")
                        .ok_or(format!("entry #{i}: update needs an \"attr\""))?,
                    schema,
                )
                .map_err(|e| format!("entry #{i}: {e}"))?;
                let value = decode_value(
                    entry
                        .get("value")
                        .ok_or(format!("entry #{i}: update needs a \"value\""))?,
                )
                .map_err(|e| format!("entry #{i}: {e}"))?;
                MutationOp::UpdateCell(CellRef::new(row, attr), value)
            }
            "add_fd" => {
                let spec = entry
                    .get("fd")
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("entry #{i}: add_fd needs an \"fd\" spec string"))?;
                MutationOp::AddFd(Fd::parse(spec, schema).map_err(|e| format!("entry #{i}: {e}"))?)
            }
            "remove_fd" => {
                let idx = entry
                    .get("index")
                    .and_then(JsonValue::as_usize)
                    .ok_or(format!("entry #{i}: remove_fd needs an \"index\""))?;
                MutationOp::RemoveFd(idx)
            }
            other => return Err(format!("entry #{i}: unknown op \"{other}\"")),
        };
        ops.push(parsed);
    }
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_constraints::FdSet;
    use rt_datagen::{generate_mutation_stream, MutationStreamConfig};
    use rt_relation::Instance;

    fn schema() -> Schema {
        Schema::new("R", vec!["A", "B", "C"]).unwrap()
    }

    #[test]
    fn round_trips_every_op_kind() {
        let s = schema();
        let ops = vec![
            MutationOp::InsertTuples(vec![
                Tuple::new(vec![Value::int(1), Value::str("x"), Value::Null]),
                Tuple::new(vec![Value::int(2), Value::str("y\"z"), Value::int(3)]),
            ]),
            MutationOp::UpdateCell(CellRef::new(0, AttrId(1)), Value::int(7)),
            MutationOp::DeleteTuples(vec![4, 2]),
            MutationOp::AddFd(Fd::parse("A,B->C", &s).unwrap()),
            MutationOp::RemoveFd(0),
        ];
        let text = render_mutation_log(&ops, &s);
        let parsed = parse_mutation_log(&text, &s).unwrap();
        assert_eq!(parsed, ops);
    }

    #[test]
    fn round_trips_floats_and_reserved_prefixes_without_type_flips() {
        let s = schema();
        let ops = vec![MutationOp::InsertTuples(vec![
            // Fractional float (JSON number), integral float (tagged),
            // negative zero and a huge integral float (both tagged).
            Tuple::new(vec![
                Value::float(1.5),
                Value::float(3.0),
                Value::float(-0.0),
            ]),
            // Strings that *look* like tagged values must stay strings.
            Tuple::new(vec![
                Value::str("float:3"),
                Value::str("str:float:9"),
                Value::str("float:not-a-number"),
            ]),
            // Integers a JSON number cannot carry exactly (tagged).
            Tuple::new(vec![
                Value::int(1 << 60),
                Value::int(-(1 << 53)),
                Value::int(i64::MIN),
            ]),
            // Strings that look like the integer and variable tags.
            Tuple::new(vec![
                Value::str("int:9"),
                Value::str("var:0:1"),
                Value::str("str:int:1"),
            ]),
        ])];
        let text = render_mutation_log(&ops, &s);
        let parsed = parse_mutation_log(&text, &s).unwrap();
        assert_eq!(parsed, ops);
        // And the explicit tagged spelling decodes as a float.
        let log = r#"[{"op": "update", "row": 0, "attr": "A", "value": "float:3"}]"#;
        let parsed = parse_mutation_log(log, &s).unwrap();
        assert_eq!(
            parsed,
            vec![MutationOp::UpdateCell(
                CellRef::new(0, AttrId(0)),
                Value::float(3.0)
            )]
        );
    }

    #[test]
    fn round_trips_generated_streams() {
        let s = schema();
        let inst = Instance::from_int_rows(
            s.clone(),
            &[vec![1, 1, 1], vec![1, 2, 1], vec![2, 2, 3], vec![3, 1, 3]],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B"], &s).unwrap();
        for seed in 0..4 {
            let ops = generate_mutation_stream(
                &inst,
                &fds,
                &MutationStreamConfig {
                    ops: 25,
                    seed,
                    ..Default::default()
                },
            );
            let text = render_mutation_log(&ops, &s);
            assert_eq!(parse_mutation_log(&text, &s).unwrap(), ops, "seed {seed}");
        }
    }

    #[test]
    fn numeric_attr_references_and_errors() {
        let s = schema();
        let ops = parse_mutation_log(
            "[{\"op\": \"update\", \"row\": 1, \"attr\": 2, \"value\": null}]",
            &s,
        )
        .unwrap();
        assert_eq!(
            ops,
            vec![MutationOp::UpdateCell(
                CellRef::new(1, AttrId(2)),
                Value::Null
            )]
        );
        assert!(parse_mutation_log("{}", &s).is_err());
        assert!(parse_mutation_log("[{\"op\": \"frobnicate\"}]", &s).is_err());
        assert!(parse_mutation_log("[{\"op\": \"insert\", \"rows\": [[1]]}]", &s).is_err());
        assert!(parse_mutation_log("[{\"op\": \"add_fd\", \"fd\": \"A->Z\"}]", &s).is_err());
        assert!(parse_mutation_log(
            "[{\"op\": \"update\", \"row\": 0, \"attr\": 9, \"value\": 1}]",
            &s
        )
        .is_err());
    }

    #[test]
    fn oversized_integers_are_rejected_not_truncated() {
        let s = schema();
        // 2^53 + 1 already rounded to 2^53 inside the float parse, so any
        // magnitude ≥ 2^53 is untrustworthy and must be rejected rather
        // than silently truncated; 2^53 − 1 is the largest accepted value.
        let too_big =
            "[{\"op\": \"update\", \"row\": 0, \"attr\": 0, \"value\": 9007199254740993}]";
        assert!(parse_mutation_log(too_big, &s).is_err());
        let at_bound =
            "[{\"op\": \"update\", \"row\": 0, \"attr\": 0, \"value\": 9007199254740992}]";
        assert!(parse_mutation_log(at_bound, &s).is_err());
        let exact = "[{\"op\": \"update\", \"row\": 0, \"attr\": 0, \"value\": 9007199254740991}]";
        let ops = parse_mutation_log(exact, &s).unwrap();
        assert_eq!(
            ops,
            vec![MutationOp::UpdateCell(
                CellRef::new(0, AttrId(0)),
                Value::int((1 << 53) - 1)
            )]
        );
    }
}
