//! # rt-io
//!
//! Typed, streaming CSV/TSV ingestion for the relative-trust repair system.
//!
//! This crate is the workspace's one way to read CSV (`rt_relation::csv`
//! only writes it). It never builds a per-cell `Value` to find a cell's
//! code: a hand-rolled, offline, streaming record parser
//! ([`record::RecordReader`]: quoting, escaped quotes, CRLF, multiline
//! quoted fields, configurable delimiter, header handling, a leading
//! byte-order mark) feeds raw field text **directly into the dictionary
//! encoding** via `rt_relation::EncodedLoader`, with a configurable
//! per-cell null policy. Every load is one streaming pass: each record is
//! read and parsed once, each non-null cell costs one hash probe by its raw
//! text and zero allocations (the `csv_load` scenario of `bench_gate` holds
//! the `key_allocs` counter at exactly 0), and column types (`Int` /
//! `Float` / `Str`, conflicts falling back to `Str`) are inferred from the
//! *distinct* texts of each column and fixed at the end of the input.
//! Memory is the encoded columns, the distinct texts and one record.
//!
//! Entry points, from most to least convenient:
//!
//! * [`load_path`] — a file, with inferred column types.
//! * [`read_instance`] — any `Read` source, with inferred column types.
//! * [`read_instance_with_types`] — any `Read` source, with the column
//!   types given; a field that does not parse under its type fails the load
//!   on its own line.
//! * [`InstanceCsvExt`] — the `Instance::from_csv` convenience.
//!
//! ```
//! use rt_io::{read_instance, CsvOptions};
//! use rt_relation::ColumnType;
//!
//! let csv = "city,population,area\nWaterloo,121436,64.1\n\"Doha, Qatar\",2382000,132.1\n";
//! let report = read_instance(csv.as_bytes(), &CsvOptions::csv()).unwrap();
//! assert_eq!(report.instance.len(), 2);
//! assert_eq!(
//!     report.columns,
//!     vec![ColumnType::Str, ColumnType::Int, ColumnType::Float]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod record;

pub use error::IoError;

use record::{Record, RecordReader};
use rt_relation::{ColumnType, EncodedLoader, Instance, Schema};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Dialect and policy knobs for the typed reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter (a single ASCII byte; `,` for CSV, `\t` for TSV).
    pub delimiter: u8,
    /// When `true` (the default) the first record names the columns;
    /// otherwise columns are named `c0`, `c1`, ….
    pub has_header: bool,
    /// Trim ASCII whitespace around *unquoted* fields before null
    /// classification and type inference (quoted fields are always
    /// literal). Default `true`.
    pub trim: bool,
    /// Unquoted fields equal to any of these tokens become `Null`. Quoted
    /// fields are never null — `""` loads as an empty string, `,,` as a
    /// null. Default: `""`, `"NULL"`, `"null"`, `"NA"`.
    pub null_tokens: Vec<String>,
    /// Relation name given to the loaded schema.
    pub relation_name: String,
}

impl CsvOptions {
    /// Comma-separated, with a header row and the default null policy.
    pub fn csv() -> Self {
        CsvOptions {
            delimiter: b',',
            has_header: true,
            trim: true,
            null_tokens: rt_relation::csv::NULL_TOKENS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            relation_name: "csv".to_string(),
        }
    }

    /// Tab-separated, otherwise like [`CsvOptions::csv`].
    pub fn tsv() -> Self {
        CsvOptions {
            delimiter: b'\t',
            relation_name: "tsv".to_string(),
            ..CsvOptions::csv()
        }
    }

    /// Replaces the relation name.
    pub fn relation(mut self, name: impl Into<String>) -> Self {
        self.relation_name = name.into();
        self
    }

    /// Sets whether the first record is a header.
    pub fn header(mut self, has_header: bool) -> Self {
        self.has_header = has_header;
        self
    }

    /// Replaces the null-token list.
    pub fn nulls<I: IntoIterator<Item = S>, S: Into<String>>(mut self, tokens: I) -> Self {
        self.null_tokens = tokens.into_iter().map(Into::into).collect();
        self
    }

    /// Normalizes one raw field: applies trimming, then the null policy.
    /// `None` means the cell is null.
    fn normalize<'a>(&self, text: &'a str, quoted: bool) -> Option<&'a str> {
        if quoted {
            return Some(text);
        }
        let t = if self.trim { text.trim() } else { text };
        if self.null_tokens.iter().any(|n| n == t) {
            None
        } else {
            Some(t)
        }
    }
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions::csv()
    }
}

/// A fully loaded instance plus what the loader learned on the way in.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The loaded instance, dictionary-encoded as it was read.
    pub instance: Instance,
    /// The column types the cells were parsed under.
    pub columns: Vec<ColumnType>,
    /// Number of null cells produced by the null policy.
    pub null_cells: usize,
}

fn check_arity(found: usize, expected: usize, line: usize) -> Result<(), IoError> {
    if found != expected {
        return Err(IoError::parse(
            line,
            format!("expected {expected} fields, found {found}"),
        ));
    }
    Ok(())
}

/// Normalizes one record and appends it to `loader`.
fn push_record(
    loader: &mut EncodedLoader,
    record: Record<'_>,
    arity: usize,
    options: &CsvOptions,
) -> Result<(), IoError> {
    check_arity(record.len(), arity, record.line)?;
    loader
        .push_row(record.fields().map(|(t, q)| options.normalize(t, q)))
        .map_err(|e| IoError::parse(record.line, e.to_string()))
}

/// The one load loop: reads the header (or, for headerless input, names
/// the columns after the first record's width and loads it as data), then
/// streams every record into an encoded loader. Column types are
/// `columns` when given, inferred otherwise.
fn load<R: BufRead>(
    input: R,
    columns: Option<&[ColumnType]>,
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let mut records = RecordReader::new(input, options.delimiter)?;
    let Some(first) = records.next_record()? else {
        return Err(IoError::parse(0, "empty input: missing header"));
    };
    let names: Vec<String> = if options.has_header {
        first
            .fields()
            .map(|(t, quoted)| {
                if !quoted && options.trim {
                    t.trim().to_string()
                } else {
                    t.to_string()
                }
            })
            .collect()
    } else {
        (0..first.len()).map(|i| format!("c{i}")).collect()
    };
    let arity = names.len();
    if let Some(columns) = columns {
        if columns.len() != arity {
            return Err(IoError::parse(
                1,
                format!(
                    "{} column types provided for {arity} columns",
                    columns.len()
                ),
            ));
        }
    }
    let mut loader = EncodedLoader::new(Schema::new(&options.relation_name, names)?, columns)?;
    if !options.has_header {
        push_record(&mut loader, first, arity, options)?;
    }
    while let Some(record) = records.next_record()? {
        push_record(&mut loader, record, arity, options)?;
    }
    let null_cells = loader.null_cells();
    let (instance, columns) = loader.finish();
    Ok(LoadReport {
        instance,
        columns,
        null_cells,
    })
}

/// Loads a file with inferred column types, in one streaming pass.
pub fn load_path(path: impl AsRef<Path>, options: &CsvOptions) -> Result<LoadReport, IoError> {
    load(BufReader::new(std::fs::File::open(path)?), None, options)
}

/// An alias of [`load_path`]; `chunk_rows` is ignored, since the one-pass
/// loader holds no raw text beyond the current record. It stays while
/// `perfbench` calls it.
pub fn load_path_chunked(
    path: impl AsRef<Path>,
    _chunk_rows: usize,
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    load_path(path, options)
}

/// Loads any `Read` source with inferred column types, in one streaming
/// pass (the source is never buffered whole).
pub fn read_instance<R: Read>(reader: R, options: &CsvOptions) -> Result<LoadReport, IoError> {
    load(BufReader::new(reader), None, options)
}

/// Loads any `Read` source in one streaming pass with caller-provided
/// column types. Each distinct field text is parsed under its column's
/// type when first seen, so a bad field fails the load on its own line.
pub fn read_instance_with_types<R: Read>(
    reader: R,
    columns: &[ColumnType],
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    load(BufReader::new(reader), Some(columns), options)
}

/// `Instance::from_csv`-style conveniences, as an extension trait so the
/// inherent-looking spelling works without `rt-relation` depending on this
/// crate.
pub trait InstanceCsvExt: Sized {
    /// Loads a CSV/TSV file into a new instance (typed, encoded path).
    fn from_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Self, IoError>;

    /// Loads CSV/TSV text into a new instance (typed, encoded path).
    fn from_csv_str(text: &str, options: &CsvOptions) -> Result<Self, IoError>;
}

impl InstanceCsvExt for Instance {
    fn from_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Self, IoError> {
        Ok(load_path(path, options)?.instance)
    }

    fn from_csv_str(text: &str, options: &CsvOptions) -> Result<Self, IoError> {
        Ok(read_instance(text.as_bytes(), options)?.instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{AttrId, CellRef, Value};

    const SAMPLE: &str = "\
name,age,score,city
Alice,30,1.5,Waterloo
Bob,41,2.0,\"Doha, Qatar\"
Cara,NA,-0.5,
";

    #[test]
    fn inference_types_every_column() {
        let report = read_instance(SAMPLE.as_bytes(), &CsvOptions::csv()).unwrap();
        let names: Vec<&str> = report
            .instance
            .schema()
            .attributes()
            .map(|(_, n)| n)
            .collect();
        assert_eq!(names, vec!["name", "age", "score", "city"]);
        assert_eq!(
            report.columns,
            vec![
                ColumnType::Str,
                ColumnType::Int,
                ColumnType::Float,
                ColumnType::Str
            ]
        );
        assert_eq!(report.instance.len(), 3);
    }

    #[test]
    fn typed_load_produces_typed_cells_and_nulls() {
        let report = read_instance(SAMPLE.as_bytes(), &CsvOptions::csv()).unwrap();
        let inst = &report.instance;
        assert_eq!(inst.len(), 3);
        assert_eq!(report.null_cells, 2); // Cara's age (NA) and city ("")
        assert_eq!(
            *inst.cell(CellRef::new(0, AttrId(1))).unwrap(),
            Value::Int(30)
        );
        assert_eq!(
            *inst.cell(CellRef::new(1, AttrId(2))).unwrap(),
            Value::float(2.0)
        );
        assert_eq!(
            *inst.cell(CellRef::new(1, AttrId(3))).unwrap(),
            Value::str("Doha, Qatar")
        );
        assert_eq!(*inst.cell(CellRef::new(2, AttrId(1))).unwrap(), Value::Null);
        assert_eq!(*inst.cell(CellRef::new(2, AttrId(3))).unwrap(), Value::Null);
    }

    #[test]
    fn headerless_and_tsv_dialects() {
        let report = read_instance(
            "1\t2.5\n3\t4.5\n".as_bytes(),
            &CsvOptions::tsv().header(false),
        )
        .unwrap();
        assert_eq!(report.instance.len(), 2);
        assert_eq!(
            report
                .instance
                .schema()
                .attributes()
                .map(|(_, n)| n.to_string())
                .collect::<Vec<_>>(),
            vec!["c0", "c1"]
        );
        assert_eq!(report.columns, vec![ColumnType::Int, ColumnType::Float]);
    }

    #[test]
    fn explicit_types_stream_in_one_pass() {
        let report = read_instance_with_types(
            "a,b\n1,x\n2,y\n".as_bytes(),
            &[ColumnType::Str, ColumnType::Str],
            &CsvOptions::csv(),
        )
        .unwrap();
        assert_eq!(
            *report.instance.cell(CellRef::new(0, AttrId(0))).unwrap(),
            Value::str("1")
        );
        // Wrong arity of the type list is a typed error.
        assert!(read_instance_with_types(
            "a,b\n1,2\n".as_bytes(),
            &[ColumnType::Int],
            &CsvOptions::csv(),
        )
        .is_err());
    }

    #[test]
    fn from_csv_extension_round_trips_a_file() {
        let dir = std::env::temp_dir().join("rt_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let inst = Instance::from_csv(&path, &CsvOptions::csv().relation("people")).unwrap();
        assert_eq!(inst.schema().name(), "people");
        assert_eq!(inst.len(), 3);
        // The file and the in-memory text load alike.
        let buffered =
            Instance::from_csv_str(SAMPLE, &CsvOptions::csv().relation("people")).unwrap();
        assert_eq!(inst, buffered);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_path("/definitely/not/here.csv", &CsvOptions::csv()).unwrap_err();
        assert!(matches!(err, IoError::Io(_)));
    }
}
