//! The wire's cell-value codec and small JSON field-access helpers shared
//! by the codec modules.
//!
//! Cells travel in the workspace's one cell-value encoding,
//! [`encode_value`] / [`decode_value`], which mutation logs share; it lives
//! next to the log format in `rt_engine::mutation_log`.

use rt_engine::json::JsonValue;
pub use rt_engine::mutation_log::{decode_value, encode_value};

// ---------------------------------------------------------------------------
// JSON field-access helpers used by every codec in this crate. They turn
// missing/mistyped fields into one-line messages naming the field, which is
// what a protocol peer needs to debug a rejected frame.

pub(crate) fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub(crate) fn num(n: usize) -> JsonValue {
    JsonValue::Num(n as f64)
}

pub(crate) fn field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

pub(crate) fn str_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

pub(crate) fn usize_field(v: &JsonValue, key: &str) -> Result<usize, String> {
    field(v, key)?
        .as_usize()
        .ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

pub(crate) fn f64_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    field(v, key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` must be a number"))
}

pub(crate) fn bool_field(v: &JsonValue, key: &str) -> Result<bool, String> {
    match field(v, key)? {
        JsonValue::Bool(b) => Ok(*b),
        _ => Err(format!("field `{key}` must be a boolean")),
    }
}

pub(crate) fn array_field<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("field `{key}` must be an array"))
}

/// A `u64` carried as a decimal string (JSON numbers hold only 53 bits).
pub(crate) fn u64_field(v: &JsonValue, key: &str) -> Result<u64, String> {
    str_field(v, key)?
        .parse::<u64>()
        .map_err(|_| format!("field `{key}` must be a decimal u64 string"))
}

pub(crate) fn u64_str(n: u64) -> JsonValue {
    JsonValue::Str(n.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{Value, VarId};

    #[test]
    fn every_value_kind_round_trips_bit_exactly() {
        let values = vec![
            Value::Null,
            Value::int(0),
            Value::int(-7),
            Value::int((1 << 53) - 1),
            Value::int(1 << 53), // tagged: beyond exact-f64 range
            Value::int(i64::MIN),
            Value::float(1.5),
            Value::float(3.0),  // integral float: tagged
            Value::float(-0.0), // negative zero: tagged, sign preserved
            Value::float(f64::INFINITY),
            Value::float(f64::NEG_INFINITY),
            Value::float(f64::NAN),
            Value::str(""),
            Value::str("plain"),
            Value::str("float:3"), // collides with a tag: escaped
            Value::str("str:x"),
            Value::str("int:9"),
            Value::str("var:0:1"),
            Value::Var(VarId::new(3, 41)),
        ];
        for v in &values {
            let decoded = decode_value(&encode_value(v)).unwrap();
            // FloatBits equality is bit equality, so NaN == NaN here.
            assert_eq!(&decoded, v, "value {v:?} changed across the wire");
        }
    }

    #[test]
    fn malformed_tags_and_kinds_are_rejected() {
        assert!(decode_value(&JsonValue::Str("var:3".into())).is_err());
        assert!(decode_value(&JsonValue::Str("var:a:b".into())).is_err());
        assert!(decode_value(&JsonValue::Str("int:xyz".into())).is_err());
        assert!(decode_value(&JsonValue::Str("float:xyz".into())).is_err());
        assert!(decode_value(&JsonValue::Bool(true)).is_err());
        // An integral number at or beyond 2^53 may already be rounded.
        assert!(decode_value(&JsonValue::Num(9_007_199_254_740_992.0)).is_err());
        assert!(decode_value(&JsonValue::Num(-1.152_921_504_606_847e18)).is_err());
        assert!(decode_value(&JsonValue::Arr(vec![])).is_err());
    }
}
