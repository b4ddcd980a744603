//! Typed error frames: protocol-level failures and lossless
//! [`EngineError`] round-tripping.

use crate::value::{field, obj, str_field, u64_field, u64_str, usize_field};
use rt_engine::json::JsonValue;
use rt_engine::EngineError;
use rt_relation::RelationError;

/// The payload of a `{"type": "error"}` response.
///
/// `code` keys the failure: engine failures use the stable
/// [`EngineError::code`] strings and additionally carry the full structured
/// error (so the client reconstructs the exact variant, fields and all);
/// protocol failures use server-defined codes (`"malformed"`,
/// `"oversized"`, `"unknown_session"`, `"session_exists"`, `"not_loaded"`,
/// `"already_loaded"`, `"memory_limit"`, `"shutting_down"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// Stable machine-readable failure code.
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// The structured engine error, when the failure came from the engine.
    pub engine: Option<EngineError>,
}

impl ErrorFrame {
    /// A protocol-level failure (no engine error attached).
    pub fn protocol(code: &str, message: impl Into<String>) -> Self {
        ErrorFrame {
            code: code.to_string(),
            message: message.into(),
            engine: None,
        }
    }

    /// Wraps an engine failure; the frame's code is the error's
    /// [`EngineError::code`] and the message its `Display` form.
    pub fn engine(err: EngineError) -> Self {
        ErrorFrame {
            code: err.code().to_string(),
            message: err.to_string(),
            engine: Some(err),
        }
    }

    pub(crate) fn encode_fields(&self) -> Vec<(&'static str, JsonValue)> {
        let mut fields = vec![
            ("code", JsonValue::Str(self.code.clone())),
            ("message", JsonValue::Str(self.message.clone())),
        ];
        if let Some(err) = &self.engine {
            fields.push(("engine", encode_engine_error(err)));
        }
        fields
    }

    pub(crate) fn decode(v: &JsonValue) -> Result<ErrorFrame, String> {
        Ok(ErrorFrame {
            code: str_field(v, "code")?.to_string(),
            message: str_field(v, "message")?.to_string(),
            engine: match v.get("engine") {
                Some(e) => Some(decode_engine_error(e)?),
                None => None,
            },
        })
    }
}

/// Encodes an [`EngineError`] structurally (satellite of the wire mapping:
/// every variant's fields survive, not just its `Display` string).
pub fn encode_engine_error(err: &EngineError) -> JsonValue {
    let code = JsonValue::Str(err.code().to_string());
    match err {
        EngineError::InvalidConfig(msg)
        | EngineError::Fd(msg)
        | EngineError::Mutation(msg)
        | EngineError::Snapshot(msg) => obj(vec![
            ("code", code),
            ("message", JsonValue::Str(msg.clone())),
        ]),
        EngineError::Relation(e) => {
            obj(vec![("code", code), ("relation", encode_relation_error(e))])
        }
        EngineError::Io { path, message } => obj(vec![
            ("code", code),
            ("path", JsonValue::Str(path.clone())),
            ("message", JsonValue::Str(message.clone())),
        ]),
        EngineError::Parse {
            path,
            line,
            message,
        } => obj(vec![
            ("code", code),
            ("path", JsonValue::Str(path.clone())),
            ("line", JsonValue::Num(*line as f64)),
            ("message", JsonValue::Str(message.clone())),
        ]),
        EngineError::BudgetExhausted {
            tau,
            max_expansions,
        } => obj(vec![
            ("code", code),
            ("tau", u64_str(*tau as u64)),
            ("max_expansions", u64_str(*max_expansions as u64)),
        ]),
        EngineError::NoRepair { tau } => obj(vec![("code", code), ("tau", u64_str(*tau as u64))]),
    }
}

/// Decodes an engine error written by [`encode_engine_error`].
pub fn decode_engine_error(v: &JsonValue) -> Result<EngineError, String> {
    match str_field(v, "code")? {
        "invalid_config" => Ok(EngineError::InvalidConfig(
            str_field(v, "message")?.to_string(),
        )),
        "fd" => Ok(EngineError::Fd(str_field(v, "message")?.to_string())),
        "mutation" => Ok(EngineError::Mutation(str_field(v, "message")?.to_string())),
        "snapshot" => Ok(EngineError::Snapshot(str_field(v, "message")?.to_string())),
        "relation" => Ok(EngineError::Relation(decode_relation_error(field(
            v, "relation",
        )?)?)),
        "io" => Ok(EngineError::Io {
            path: str_field(v, "path")?.to_string(),
            message: str_field(v, "message")?.to_string(),
        }),
        "parse" => Ok(EngineError::Parse {
            path: str_field(v, "path")?.to_string(),
            line: usize_field(v, "line")?,
            message: str_field(v, "message")?.to_string(),
        }),
        "budget_exhausted" => Ok(EngineError::BudgetExhausted {
            tau: u64_field(v, "tau")? as usize,
            max_expansions: u64_field(v, "max_expansions")? as usize,
        }),
        "no_repair" => Ok(EngineError::NoRepair {
            tau: u64_field(v, "tau")? as usize,
        }),
        other => Err(format!("unknown engine error code `{other}`")),
    }
}

fn encode_relation_error(err: &RelationError) -> JsonValue {
    match err {
        RelationError::TooManyAttributes { requested, max } => obj(vec![
            ("kind", JsonValue::Str("too_many_attributes".into())),
            ("requested", crate::value::num(*requested)),
            ("max", crate::value::num(*max)),
        ]),
        RelationError::DuplicateAttribute(name) => obj(vec![
            ("kind", JsonValue::Str("duplicate_attribute".into())),
            ("name", JsonValue::Str(name.clone())),
        ]),
        RelationError::UnknownAttribute(name) => obj(vec![
            ("kind", JsonValue::Str("unknown_attribute".into())),
            ("name", JsonValue::Str(name.clone())),
        ]),
        RelationError::AttributeOutOfRange { index, arity } => obj(vec![
            ("kind", JsonValue::Str("attribute_out_of_range".into())),
            ("index", crate::value::num(*index)),
            ("arity", crate::value::num(*arity)),
        ]),
        RelationError::ArityMismatch { tuple, schema } => obj(vec![
            ("kind", JsonValue::Str("arity_mismatch".into())),
            ("tuple", crate::value::num(*tuple)),
            ("schema", crate::value::num(*schema)),
        ]),
        RelationError::RowOutOfRange { row, rows } => obj(vec![
            ("kind", JsonValue::Str("row_out_of_range".into())),
            ("row", crate::value::num(*row)),
            ("rows", crate::value::num(*rows)),
        ]),
        RelationError::IncompatibleInstances(msg) => obj(vec![
            ("kind", JsonValue::Str("incompatible_instances".into())),
            ("message", JsonValue::Str(msg.clone())),
        ]),
        RelationError::Csv(msg) => obj(vec![
            ("kind", JsonValue::Str("csv".into())),
            ("message", JsonValue::Str(msg.clone())),
        ]),
        RelationError::Io(msg) => obj(vec![
            ("kind", JsonValue::Str("io".into())),
            ("message", JsonValue::Str(msg.clone())),
        ]),
    }
}

fn decode_relation_error(v: &JsonValue) -> Result<RelationError, String> {
    match str_field(v, "kind")? {
        "too_many_attributes" => Ok(RelationError::TooManyAttributes {
            requested: usize_field(v, "requested")?,
            max: usize_field(v, "max")?,
        }),
        "duplicate_attribute" => Ok(RelationError::DuplicateAttribute(
            str_field(v, "name")?.to_string(),
        )),
        "unknown_attribute" => Ok(RelationError::UnknownAttribute(
            str_field(v, "name")?.to_string(),
        )),
        "attribute_out_of_range" => Ok(RelationError::AttributeOutOfRange {
            index: usize_field(v, "index")?,
            arity: usize_field(v, "arity")?,
        }),
        "arity_mismatch" => Ok(RelationError::ArityMismatch {
            tuple: usize_field(v, "tuple")?,
            schema: usize_field(v, "schema")?,
        }),
        "row_out_of_range" => Ok(RelationError::RowOutOfRange {
            row: usize_field(v, "row")?,
            rows: usize_field(v, "rows")?,
        }),
        "incompatible_instances" => Ok(RelationError::IncompatibleInstances(
            str_field(v, "message")?.to_string(),
        )),
        "csv" => Ok(RelationError::Csv(str_field(v, "message")?.to_string())),
        "io" => Ok(RelationError::Io(str_field(v, "message")?.to_string())),
        other => Err(format!("unknown relation error kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_engine_error_round_trips_losslessly() {
        let errors = vec![
            EngineError::InvalidConfig("bad knob".into()),
            EngineError::Fd("A->Z".into()),
            EngineError::Mutation("row 99 out of range".into()),
            EngineError::Io {
                path: "x.csv".into(),
                message: "no such file".into(),
            },
            EngineError::Parse {
                path: "x.csv".into(),
                line: 17,
                message: "ragged record".into(),
            },
            EngineError::BudgetExhausted {
                tau: 3,
                max_expansions: 10_000,
            },
            EngineError::NoRepair { tau: 0 },
            EngineError::Snapshot("bad magic".into()),
            EngineError::Relation(RelationError::TooManyAttributes {
                requested: 70,
                max: 64,
            }),
            EngineError::Relation(RelationError::DuplicateAttribute("A".into())),
            EngineError::Relation(RelationError::UnknownAttribute("Z".into())),
            EngineError::Relation(RelationError::AttributeOutOfRange { index: 9, arity: 3 }),
            EngineError::Relation(RelationError::ArityMismatch {
                tuple: 2,
                schema: 3,
            }),
            EngineError::Relation(RelationError::RowOutOfRange { row: 5, rows: 4 }),
            EngineError::Relation(RelationError::IncompatibleInstances("sizes".into())),
            EngineError::Relation(RelationError::Csv("bad header".into())),
            EngineError::Relation(RelationError::Io("pipe".into())),
        ];
        for err in errors {
            let decoded = decode_engine_error(&encode_engine_error(&err)).unwrap();
            assert_eq!(decoded, err);
        }
    }

    #[test]
    fn error_frames_keep_code_message_and_structure() {
        let frame = ErrorFrame::engine(EngineError::BudgetExhausted {
            tau: 2,
            max_expansions: 5,
        });
        assert_eq!(frame.code, "budget_exhausted");
        let encoded = obj(frame.encode_fields());
        let decoded = ErrorFrame::decode(&encoded).unwrap();
        assert_eq!(decoded, frame);

        let plain = ErrorFrame::protocol("unknown_session", "no session `x`");
        let decoded = ErrorFrame::decode(&obj(plain.encode_fields())).unwrap();
        assert_eq!(decoded, plain);
        assert!(decoded.engine.is_none());
    }
}
