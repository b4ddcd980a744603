//! Minimal CSV writing.
//!
//! Repaired instances are written back out as CSV; reading CSV is `rt-io`'s
//! job (typed, dictionary-encoded loads). The writer quotes exactly the
//! fields `rt-io` would otherwise misread, so its output loads back as the
//! same data through `rt-io`.

use crate::dict::{AttrDict, Code, CodeSpace};
use crate::instance::Instance;
use crate::value::Value;
use crate::Result;
use std::io::Write;
use std::path::Path;

/// The unquoted fields `rt-io` reads as `Null` (after trimming them). A
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

/// One column's fields, each dictionary entry rendered once: the field of
/// the entry in dense slot `i` (see [`CodeSpace`]) is
/// `text[bounds[i]..bounds[i + 1]]`.
struct RenderedColumn {
    space: CodeSpace,
    text: Vec<u8>,
    bounds: Vec<usize>,
}

impl RenderedColumn {
    fn new(dict: &AttrDict) -> Self {
        let space = dict.code_space();
        let mut text = Vec::new();
        let mut bounds = Vec::with_capacity(space.size() + 1);
        bounds.push(0);
        let consts = dict.constants().iter().map(cell_field);
        let vars = dict.var_ids().map(|vid| cell_field(&Value::Var(vid)));
        for field in consts.chain(vars) {
            text.extend_from_slice(field.as_bytes());
            bounds.push(text.len());
        }
        RenderedColumn {
            space,
            text,
            bounds,
        }
    }

    fn field(&self, code: Code) -> &[u8] {
        let slot = self.space.index(code);
        &self.text[self.bounds[slot]..self.bounds[slot + 1]]
    }
}

/// Bytes gathered before each hand-off to the writer.
const WRITE_CHUNK: usize = 1 << 16;

/// Writes an instance as CSV (header + one line per tuple). V-instance
/// variables are rendered using their display form (`v3^A2`), which keeps the
/// output lossless enough for human inspection of suggested repairs.
///
/// Each column's distinct values are rendered once; the rows are then
/// assembled from those bytes by code.
pub fn write_instance<W: Write>(instance: &Instance, mut writer: W) -> Result<()> {
    let header: Vec<String> = instance
        .schema()
        .attributes()
        .map(|(_, n)| escape_field(n))
        .collect();
    writeln!(writer, "{}", header.join(","))?;
    let columns: Vec<(RenderedColumn, &[Code])> = instance
        .schema()
        .attr_ids()
        .map(|a| (RenderedColumn::new(instance.dict(a)), instance.codes(a)))
        .collect();
    let mut buf: Vec<u8> = Vec::with_capacity(WRITE_CHUNK);
    for row in 0..instance.len() {
        for (i, (column, codes)) in columns.iter().enumerate() {
            if i > 0 {
                buf.push(b',');
            }
            buf.extend_from_slice(column.field(codes[row]));
        }
        buf.push(b'\n');
        if buf.len() >= WRITE_CHUNK {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)?;
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
