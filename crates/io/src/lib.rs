//! # rt-io
//!
//! Typed, streaming CSV/TSV ingestion for the relative-trust repair system.
//!
//! The legacy reader (`rt_relation::csv`) parses every cell into an owned
//! `Value` and pushes whole tuples — one transient heap key per string
//! cell. This crate is the bulk-load front door that avoids that round
//! trip: a hand-rolled, offline, streaming record parser
//! ([`record::RecordReader`]: quoting, escaped quotes, CRLF, multiline
//! quoted fields, configurable delimiter, header handling) feeds raw field
//! text **directly into the dictionary encoding** via
//! `Instance::encoded_loader`, with per-column types inferred up front
//! (`Int` / `Float` / `Str`, conflicts falling back to `Str`) and a
//! configurable per-cell null policy. On the encoded path an already-seen
//! value costs one hash probe and zero allocations — the `csv_load`
//! scenario of `bench_gate` holds the `key_allocs` counter at exactly 0.
//!
//! Entry points, from most to least convenient:
//!
//! * [`load_path`] — two streaming passes over a file (infer, then
//!   encode); memory stays bounded by the widest record.
//! * [`read_instance`] — any `Read` source; buffers the text once, then
//!   runs the same two passes over the buffer.
//! * [`read_instance_with_types`] — single streaming pass when the column
//!   types are already known.
//! * [`infer_schema`] / [`infer_schema_path`] — the inference pass alone.
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

use record::RecordReader;
use rt_relation::{ChunkBuffer, ColumnType, Instance, Schema};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Dialect and policy knobs for the typed reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter (a single byte; `,` for CSV, `\t` for TSV).
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

/// The outcome of the inference pass: column names, inferred types and the
/// number of data records seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferredSchema {
    /// Column names (from the header, or synthesized `c0`, `c1`, …).
    pub names: Vec<String>,
    /// Inferred type per column.
    pub columns: Vec<ColumnType>,
    /// Number of data records scanned.
    pub rows: usize,
}

/// Per-column accumulator for the inference pass.
#[derive(Debug, Clone, Copy)]
struct ColumnState {
    saw_value: bool,
    can_int: bool,
    can_float: bool,
}

impl ColumnState {
    fn new() -> Self {
        ColumnState {
            saw_value: false,
            can_int: true,
            can_float: true,
        }
    }

    fn observe(&mut self, text: &str) {
        self.saw_value = true;
        if self.can_int && text.parse::<i64>().is_err() {
            self.can_int = false;
        }
        if self.can_float && !matches!(text.parse::<f64>(), Ok(f) if f.is_finite()) {
            // Non-finite spellings ("inf", "NaN") deliberately demote to
            // Str: instances only ever hold finite numbers.
            self.can_float = false;
        }
    }

    fn conclude(self) -> ColumnType {
        match self {
            // An all-null column carries no type evidence: Str, the
            // universal fallback.
            ColumnState {
                saw_value: false, ..
            } => ColumnType::Str,
            ColumnState { can_int: true, .. } => ColumnType::Int,
            ColumnState {
                can_float: true, ..
            } => ColumnType::Float,
            _ => ColumnType::Str,
        }
    }
}

/// A first record carried over for re-processing when the input has no
/// header: `(raw text, was quoted)` per field.
type CarriedRecord = Vec<(String, bool)>;

/// What [`read_names`] learned from the first record: the column names and
/// (for headerless input) the record itself, to be re-processed as data.
type NamesAndCarry = (Vec<String>, Option<CarriedRecord>);

/// Reads the header (or synthesizes names from the first record's width)
/// and returns the names plus the arity. Leaves the reader positioned at
/// the first data record — when there is no header, the first record is
/// returned for re-processing via the carried record.
fn read_names<R: BufRead>(
    reader: &mut RecordReader<R>,
    options: &CsvOptions,
) -> Result<Option<NamesAndCarry>, IoError> {
    let first = match reader.next_record()? {
        Some(r) => r,
        None => return Ok(None),
    };
    if options.has_header {
        let names: Vec<String> = first
            .fields()
            .map(|(t, quoted)| {
                if !quoted && options.trim {
                    t.trim().to_string()
                } else {
                    t.to_string()
                }
            })
            .collect();
        Ok(Some((names, None)))
    } else {
        let names = (0..first.len()).map(|i| format!("c{i}")).collect();
        let carry = first.fields().map(|(t, q)| (t.to_string(), q)).collect();
        Ok(Some((names, Some(carry))))
    }
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

/// Runs the inference pass over a buffered source.
pub fn infer_schema<R: Read>(reader: R, options: &CsvOptions) -> Result<InferredSchema, IoError> {
    let mut records = RecordReader::new(BufReader::new(reader), options.delimiter)?;
    let (names, carry) = match read_names(&mut records, options)? {
        Some(x) => x,
        None => return Err(IoError::parse(0, "empty input: missing header")),
    };
    let arity = names.len();
    let mut states = vec![ColumnState::new(); arity];
    let mut rows = 0usize;
    let mut observe_row = |fields: &mut dyn Iterator<Item = (&str, bool)>| {
        for (state, (text, quoted)) in states.iter_mut().zip(fields) {
            if let Some(t) = options.normalize(text, quoted) {
                state.observe(t);
            }
        }
        rows += 1;
    };
    if let Some(first) = carry {
        check_arity(first.len(), arity, 1)?;
        observe_row(&mut first.iter().map(|(t, q)| (t.as_str(), *q)));
    }
    while let Some(rec) = records.next_record()? {
        check_arity(rec.len(), arity, rec.line)?;
        observe_row(&mut rec.fields());
    }
    Ok(InferredSchema {
        names,
        columns: states.into_iter().map(ColumnState::conclude).collect(),
        rows,
    })
}

/// Runs the inference pass over a file.
pub fn infer_schema_path(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<InferredSchema, IoError> {
    infer_schema(std::fs::File::open(path)?, options)
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

/// Empties a record's field list and hands its allocation back for the
/// next record's borrows, so a load allocates the list once, not once per
/// record.
fn recycle<'a>(mut fields: Vec<Option<&str>>) -> Vec<Option<&'a str>> {
    fields.clear();
    fields.into_iter().map(|_| None).collect()
}

/// Shared encode loop: streams the remaining records of `records` (plus an
/// optional carried-over first record) into an encoded loader over a fresh
/// instance.
fn encode_records<R: BufRead>(
    records: &mut RecordReader<R>,
    carry: Option<CarriedRecord>,
    names: Vec<String>,
    columns: &[ColumnType],
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let schema = Schema::new(&options.relation_name, names)?;
    let mut instance = Instance::new(schema);
    let mut null_cells = 0usize;
    {
        let mut loader = instance.encoded_loader(columns.to_vec())?;
        if let Some(first) = &carry {
            let fields: Vec<Option<&str>> = first
                .iter()
                .map(|(t, q)| options.normalize(t, *q))
                .collect();
            check_arity(fields.len(), columns.len(), 1)?;
            null_cells += fields.iter().filter(|f| f.is_none()).count();
            loader
                .push_row(&fields)
                .map_err(|e| IoError::parse(1, e.to_string()))?;
        }
        let mut spare = Vec::with_capacity(columns.len());
        while let Some(rec) = records.next_record()? {
            let mut fields = recycle(std::mem::take(&mut spare));
            fields.extend(rec.fields().map(|(t, q)| options.normalize(t, q)));
            check_arity(fields.len(), columns.len(), rec.line)?;
            null_cells += fields.iter().filter(|f| f.is_none()).count();
            loader
                .push_row(&fields)
                .map_err(|e| IoError::parse(rec.line, e.to_string()))?;
            spare = recycle(fields);
        }
    }
    Ok(LoadReport {
        instance,
        columns: columns.to_vec(),
        null_cells,
    })
}

/// Single encode pass over a rewound source whose schema is already known.
fn encode_pass<R: Read>(
    reader: R,
    names: &[String],
    columns: &[ColumnType],
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let mut records = RecordReader::new(BufReader::new(reader), options.delimiter)?;
    let carry = match read_names(&mut records, options)? {
        Some((_, carry)) => carry,
        None => None,
    };
    encode_records(&mut records, carry, names.to_vec(), columns, options)
}

/// Chunked encode loop: batches raw records into a [`ChunkBuffer`] of
/// `chunk_rows` rows and flushes each full chunk through the encoded
/// loader. Behaviourally identical to [`encode_records`] — same instance,
/// same dictionaries, same codes, same first-error semantics — but the
/// undecoded text held at any moment is bounded by one chunk, and the
/// buffered cells are charged to the `resident_cells` gauge
/// ([`rt_relation::work::peak_resident_cells`]) so the bound is testable.
fn encode_records_chunked<R: BufRead>(
    records: &mut RecordReader<R>,
    carry: Option<CarriedRecord>,
    names: Vec<String>,
    columns: &[ColumnType],
    options: &CsvOptions,
    chunk_rows: usize,
) -> Result<LoadReport, IoError> {
    let schema = Schema::new(&options.relation_name, names)?;
    let mut instance = Instance::new(schema);
    let mut null_cells = 0usize;
    {
        let mut loader = instance.encoded_loader(columns.to_vec())?;
        let mut buffer = ChunkBuffer::new(chunk_rows);
        if let Some(first) = &carry {
            let fields: Vec<Option<&str>> = first
                .iter()
                .map(|(t, q)| options.normalize(t, *q))
                .collect();
            check_arity(fields.len(), columns.len(), 1)?;
            null_cells += fields.iter().filter(|f| f.is_none()).count();
            buffer.push(&fields, 1);
            if buffer.is_full() {
                buffer
                    .flush(&mut loader)
                    .map_err(|(line, e)| IoError::parse(line, e.to_string()))?;
            }
        }
        let mut spare = Vec::with_capacity(columns.len());
        while let Some(rec) = records.next_record()? {
            let mut fields = recycle(std::mem::take(&mut spare));
            fields.extend(rec.fields().map(|(t, q)| options.normalize(t, q)));
            check_arity(fields.len(), columns.len(), rec.line)?;
            null_cells += fields.iter().filter(|f| f.is_none()).count();
            buffer.push(&fields, rec.line);
            spare = recycle(fields);
            if buffer.is_full() {
                buffer
                    .flush(&mut loader)
                    .map_err(|(line, e)| IoError::parse(line, e.to_string()))?;
            }
        }
        buffer
            .flush(&mut loader)
            .map_err(|(line, e)| IoError::parse(line, e.to_string()))?;
    }
    Ok(LoadReport {
        instance,
        columns: columns.to_vec(),
        null_cells,
    })
}

/// Loads a file with inferred column types: one streaming pass to infer,
/// one to encode. Memory stays bounded by the widest record — the file is
/// read twice instead of being buffered.
pub fn load_path(path: impl AsRef<Path>, options: &CsvOptions) -> Result<LoadReport, IoError> {
    let path = path.as_ref();
    let inferred = infer_schema(std::fs::File::open(path)?, options)?;
    encode_pass(
        std::fs::File::open(path)?,
        &inferred.names,
        &inferred.columns,
        options,
    )
}

/// [`load_path`] with the encode pass running in `chunk_rows`-row batches
/// through a [`ChunkBuffer`]. The result is identical to [`load_path`] for
/// every chunk size; the difference is the accounting contract — at any
/// moment at most one chunk of undecoded field text is resident, on top of
/// the (dictionary-coded) columns already flushed. This is the scale-up
/// ingestion path the `warehouse` scenario and the sharded engine build on.
pub fn load_path_chunked(
    path: impl AsRef<Path>,
    chunk_rows: usize,
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let path = path.as_ref();
    let inferred = infer_schema(std::fs::File::open(path)?, options)?;
    let mut records = RecordReader::new(
        BufReader::new(std::fs::File::open(path)?),
        options.delimiter,
    )?;
    let carry = match read_names(&mut records, options)? {
        Some((_, carry)) => carry,
        None => None,
    };
    encode_records_chunked(
        &mut records,
        carry,
        inferred.names,
        &inferred.columns,
        options,
        chunk_rows,
    )
}

/// [`read_instance`]'s chunked sibling: buffers the text once, infers, then
/// encodes in `chunk_rows`-row batches (see [`load_path_chunked`]).
pub fn read_instance_chunked<R: Read>(
    mut reader: R,
    chunk_rows: usize,
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let inferred = infer_schema(text.as_bytes(), options)?;
    let mut records = RecordReader::new(BufReader::new(text.as_bytes()), options.delimiter)?;
    let carry = match read_names(&mut records, options)? {
        Some((_, carry)) => carry,
        None => None,
    };
    encode_records_chunked(
        &mut records,
        carry,
        inferred.names,
        &inferred.columns,
        options,
        chunk_rows,
    )
}

/// Loads any `Read` source with inferred column types. The text is
/// buffered once (generic readers cannot be rewound), then the same two
/// passes as [`load_path`] run over the buffer.
pub fn read_instance<R: Read>(mut reader: R, options: &CsvOptions) -> Result<LoadReport, IoError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    let inferred = infer_schema(text.as_bytes(), options)?;
    encode_pass(text.as_bytes(), &inferred.names, &inferred.columns, options)
}

/// Loads a `Read` source in a single streaming pass with caller-provided
/// column types (skips inference entirely).
pub fn read_instance_with_types<R: Read>(
    reader: R,
    columns: &[ColumnType],
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    let mut records = RecordReader::new(BufReader::new(reader), options.delimiter)?;
    let (names, carry) = match read_names(&mut records, options)? {
        Some(x) => x,
        None => return Err(IoError::parse(0, "empty input: missing header")),
    };
    if columns.len() != names.len() {
        return Err(IoError::parse(
            1,
            format!(
                "{} column types provided for {} columns",
                columns.len(),
                names.len()
            ),
        ));
    }
    encode_records(&mut records, carry, names, columns, options)
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
        let s = infer_schema(SAMPLE.as_bytes(), &CsvOptions::csv()).unwrap();
        assert_eq!(s.names, vec!["name", "age", "score", "city"]);
        assert_eq!(
            s.columns,
            vec![
                ColumnType::Str,
                ColumnType::Int,
                ColumnType::Float,
                ColumnType::Str
            ]
        );
        assert_eq!(s.rows, 3);
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
        // load_path (two streaming passes) agrees with the buffered reader.
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
