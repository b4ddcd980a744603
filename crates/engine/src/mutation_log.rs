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
//! Cell values map JSON-naturally: integral numbers (within ±2^53 so they
//! survive the float representation exactly) become `Int`, fractional
//! numbers become `Float`, strings become `Str`, `null` becomes `Null`.
//! Integral-valued floats use the reserved string prefix `"float:3"` so
//! they do not collapse into `Int` on the way back in, and string cells
//! that happen to start with a reserved prefix are escaped as
//! `"str:<original>"` — the round trip never changes a cell's type.
//! V-instance variables are deliberately not
//! representable — logs describe *input* mutations, and the engine rejects
//! variable cells at the mutation boundary. Attributes may be named
//! (schema lookup) or numeric indices; FDs use the usual `"X1,X2->A"` spec
//! syntax. [`render_mutation_log`] writes this format,
//! [`parse_mutation_log`] reads it back; the two round-trip.

use crate::json::{self, JsonValue};
use rt_constraints::Fd;
use rt_core::MutationOp;
use rt_relation::{AttrId, CellRef, Schema, Tuple, Value};

/// Exclusive bound on integer magnitudes accepted from JSON: below 2^53
/// every integer round-trips through f64 exactly; at and above it, a
/// written value may already have been silently rounded by the float
/// representation, so it cannot be trusted.
const MAX_EXACT_INT: i64 = 1 << 53;

fn render_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Int(i) => out.push_str(&i.to_string()),
        // Fractional floats are JSON-natural (the shortest decimal form
        // round-trips exactly); integral-valued or non-finite floats would
        // read back as Int (or not parse at all), so they use the reserved
        // "float:" string prefix instead.
        Value::Float(x) if x.get().is_finite() && x.get().fract() != 0.0 => {
            out.push_str(&x.get().to_string())
        }
        Value::Float(x) => json::render_str(&format!("float:{}", x.get()), out),
        // String cells that *look* like a tagged value are escaped with the
        // "str:" prefix so the round trip never changes their type.
        Value::Str(s) if s.starts_with("float:") || s.starts_with("str:") => {
            json::render_str(&format!("str:{s}"), out)
        }
        Value::Str(s) => json::render_str(s, out),
        // Variables only appear in *repaired* V-instances, never in logged
        // input mutations; render defensively as a tagged string.
        Value::Var(v) => json::render_str(&format!("var:{}:{}", v.attr, v.id), out),
    }
}

/// Renders ops as a JSON mutation log (attribute references are written as
/// schema names).
pub fn render_mutation_log(ops: &[MutationOp], schema: &Schema) -> String {
    let mut out = String::from("[");
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n ");
        }
        match op {
            MutationOp::InsertTuples(tuples) => {
                out.push_str("{\"op\": \"insert\", \"rows\": [");
                for (j, tuple) in tuples.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push('[');
                    for (k, (_, value)) in tuple.cells().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        render_value(value, &mut out);
                    }
                    out.push(']');
                }
                out.push_str("]}");
            }
            MutationOp::DeleteTuples(rows) => {
                out.push_str("{\"op\": \"delete\", \"rows\": [");
                for (j, row) in rows.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&row.to_string());
                }
                out.push_str("]}");
            }
            MutationOp::UpdateCell(cell, value) => {
                out.push_str(&format!(
                    "{{\"op\": \"update\", \"row\": {}, \"attr\": ",
                    cell.row
                ));
                match schema.attr_name(cell.attr) {
                    Ok(name) => json::render_str(name, &mut out),
                    Err(_) => json::render_str(&cell.attr.0.to_string(), &mut out),
                }
                out.push_str(", \"value\": ");
                render_value(value, &mut out);
                out.push('}');
            }
            MutationOp::AddFd(fd) => {
                out.push_str("{\"op\": \"add_fd\", \"fd\": ");
                let lhs: Vec<&str> = fd
                    .lhs
                    .iter()
                    .map(|a| schema.attr_name(a).unwrap_or("?"))
                    .collect();
                json::render_str(
                    &format!(
                        "{}->{}",
                        lhs.join(","),
                        schema.attr_name(fd.rhs).unwrap_or("?")
                    ),
                    &mut out,
                );
                out.push('}');
            }
            MutationOp::RemoveFd(idx) => {
                out.push_str(&format!("{{\"op\": \"remove_fd\", \"index\": {idx}}}"));
            }
        }
    }
    out.push(']');
    out
}

fn decode_value(v: &JsonValue) -> Result<Value, String> {
    match v {
        JsonValue::Null => Ok(Value::Null),
        JsonValue::Num(n) if n.fract() == 0.0 && n.abs() < MAX_EXACT_INT as f64 => {
            Ok(Value::int(*n as i64))
        }
        JsonValue::Num(n) if n.fract() != 0.0 => Ok(Value::float(*n)),
        JsonValue::Num(n) => Err(format!(
            "cell value {n} is not exactly representable in JSON (integers need |v| < 2^53; \
             use the \"float:{n}\" spelling for an integral float)"
        )),
        JsonValue::Str(s) => {
            if let Some(rest) = s.strip_prefix("str:") {
                Ok(Value::str(rest))
            } else if let Some(rest) = s.strip_prefix("float:") {
                rest.parse::<f64>()
                    .map(Value::float)
                    .map_err(|_| format!("bad float literal in `{s}`"))
            } else {
                Ok(Value::str(s.clone()))
            }
        }
        other => Err(format!("unsupported cell value {other:?}")),
    }
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
