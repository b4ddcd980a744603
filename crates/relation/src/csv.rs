//! Minimal CSV writing.
//!
//! Repaired instances are written back out as CSV; reading CSV is `rt-io`'s
//! job (typed, dictionary-encoded loads). The writer quotes exactly the
//! fields `rt-io` would otherwise misread, so its output loads back as the
//! same data under `rt-io`'s default dialect.

use crate::instance::Instance;
use crate::value::Value;
use crate::Result;
use std::io::Write;
use std::path::Path;

/// The unquoted fields `rt-io`'s default CSV dialect reads as `Null`. A
/// string cell equal to one of them is written quoted, so it reads back as
/// that string.
pub const NULL_TOKENS: [&str; 4] = ["", "NULL", "null", "NA"];

fn quoted(field: &str) -> String {
    format!("\"{}\"", field.replace('"', "\"\""))
}

/// Escapes one field for CSV output.
fn escape_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        quoted(field)
    } else {
        field.to_string()
    }
}

/// Renders one cell. A string that an unquoted field would not carry back
/// — a null token, or text with leading or trailing whitespace (which
/// `rt-io` trims) — is quoted; `Null` is the empty unquoted field.
fn cell_field(value: &Value) -> String {
    match value {
        Value::Str(s) if NULL_TOKENS.contains(&s.as_str()) || s.trim().len() != s.len() => {
            quoted(s)
        }
        other => escape_field(&other.to_string()),
    }
}

/// Writes an instance as CSV (header + one line per tuple). V-instance
/// variables are rendered using their display form (`v3^A2`), which keeps the
/// output lossless enough for human inspection of suggested repairs.
pub fn write_instance<W: Write>(instance: &Instance, mut writer: W) -> Result<()> {
    let header: Vec<String> = instance
        .schema()
        .attributes()
        .map(|(_, n)| escape_field(n))
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    for (_, tuple) in instance.tuples() {
        let row: Vec<String> = instance
            .schema()
            .attr_ids()
            .map(|a| cell_field(tuple.get(a)))
            .collect();
        writeln!(writer, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes an instance to a CSV file.
pub fn write_instance_to_path(instance: &Instance, path: impl AsRef<Path>) -> Result<()> {
    let file = std::fs::File::create(path)?;
    write_instance(instance, file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::Tuple;

    #[test]
    fn escape_round_trip() {
        assert_eq!(escape_field("plain"), "plain");
        assert_eq!(escape_field("a,b"), "\"a,b\"");
        assert_eq!(escape_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(cell_field(&Value::Null), "");
        assert_eq!(cell_field(&Value::str("")), "\"\"");
        assert_eq!(cell_field(&Value::str("null")), "\"null\"");
        assert_eq!(cell_field(&Value::str("NULLs")), "NULLs");
        assert_eq!(cell_field(&Value::str("\tx")), "\"\tx\"");
        assert_eq!(cell_field(&Value::str("a b")), "a b");
    }

    #[test]
    fn file_round_trip() {
        let mut inst = Instance::new(Schema::new("people", vec!["Name", "Age", "City"]).unwrap());
        for row in [
            [Value::str("Cara \"C\""), Value::Int(25), Value::Null],
            [Value::str("Bob"), Value::Int(41), Value::str("Doha, Qatar")],
            [Value::str("NA"), Value::float(0.5), Value::str(" padded ")],
        ] {
            inst.push(Tuple::new(row.to_vec())).unwrap();
        }
        let dir = std::env::temp_dir().join("rt_relation_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        write_instance_to_path(&inst, &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            text,
            "Name,Age,City\n\
             \"Cara \"\"C\"\"\",25,\n\
             Bob,41,\"Doha, Qatar\"\n\
             \"NA\",0.5,\" padded \"\n"
        );
    }
}
