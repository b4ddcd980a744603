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
//! per-cell null policy. Every load is one streaming pass on every core:
//! after the header, the input is cut into blocks of about 256 KiB that
//! end at record boundaries; one worker per core (the loading thread is
//! one) parses each block once and encodes it against block-local
//! dictionaries, hashing each non-null
//! cell once at zero allocations (the `csv_load` scenario of `bench_gate`
//! holds the `key_allocs` counter at exactly 0); and the loading thread
//! merges the blocks in file order. Column types (`Int` / `Float` / `Str`,
//! conflicts falling back to `Str`) are inferred from the *distinct* texts
//! of each column and fixed at the end of the input. The result — codes,
//! dictionaries, types, null count and the first error reported — does not
//! depend on the block size or the number of cores. Memory is the encoded
//! columns, the distinct texts and at most one block per worker plus one.
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

use record::{BlockCutter, Record, RecordReader};
use rt_par::Parallelism;
use rt_relation::{ColumnType, EncodedBlock, EncodedLoader, Instance, Schema};
use std::any::Any;
use std::io::{BufRead, BufReader, Read};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::{mpsc, Mutex};

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

/// Normalizes one record and appends it to `block`.
fn push_record(
    block: &mut EncodedBlock,
    record: Record<'_>,
    arity: usize,
    options: &CsvOptions,
) -> Result<(), IoError> {
    check_arity(record.len(), arity, record.line)?;
    block
        .push_row(record.fields().map(|(t, q)| options.normalize(t, q)))
        .map_err(|e| IoError::parse(record.line, e.to_string()))
}

/// Raw text per block: large enough that handing a block to a worker costs
/// little next to encoding it, small enough that the blocks in flight are a
/// small part of a large load's memory, and that small files load inline.
const BLOCK_BYTES: usize = 256 * 1024;

/// One block on its way through the load: its raw text, then its encoded
/// rows and the first error in it. Slots are reused from block to block.
struct Slot {
    /// Position of the block in the input.
    seq: usize,
    text: Vec<u8>,
    first_line: usize,
    block: EncodedBlock,
    error: Option<IoError>,
    /// A worker's panic, carried back to be resumed on the loading thread.
    panic: Option<Box<dyn Any + Send>>,
}

impl Slot {
    fn new(block: EncodedBlock) -> Slot {
        Slot {
            seq: 0,
            text: Vec::new(),
            first_line: 0,
            block,
            error: None,
            panic: None,
        }
    }

    /// Parses the block's records into its encoded rows, stopping at the
    /// first error.
    fn encode(&mut self, arity: usize, options: &CsvOptions) {
        let mut records =
            RecordReader::starting_at(&self.text[..], options.delimiter, self.first_line);
        self.error = loop {
            match records.next_record() {
                Ok(Some(record)) => {
                    if let Err(e) = push_record(&mut self.block, record, arity, options) {
                        break Some(e);
                    }
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
    }
}

/// The load loop: reads the header (or, for headerless input, names the
/// columns after the first record's width and loads it as data), then cuts
/// the rest of the input into blocks of about [`BLOCK_BYTES`] and encodes
/// them. Column types are `columns` when given, inferred otherwise.
fn load<R: BufRead>(
    input: R,
    columns: Option<&[ColumnType]>,
    options: &CsvOptions,
) -> Result<LoadReport, IoError> {
    load_blocks(input, columns, options, BLOCK_BYTES, Parallelism::Auto)
}

/// [`load`] with the block size and worker count as arguments. Blocks are
/// encoded by `workers` threads against block-local dictionaries and
/// merged in input order, so the result, the first error reported
/// included, does not depend on either. Input that fits in one block is
/// encoded inline.
fn load_blocks<R: BufRead>(
    input: R,
    columns: Option<&[ColumnType]>,
    options: &CsvOptions,
    block_bytes: usize,
    workers: Parallelism,
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
    let mut slot = Slot::new(loader.block());
    if !options.has_header {
        push_record(&mut slot.block, first, arity, options)?;
        loader.merge(&mut slot.block);
    }
    let (lines, input) = records.into_input();
    let mut cutter = BlockCutter::new(input, options.delimiter, lines);
    if let Some(first_line) = cutter.next_block(&mut slot.text, block_bytes) {
        slot.first_line = first_line;
        if cutter.is_done() {
            slot.encode(arity, options);
            if let Some(e) = slot.error {
                return Err(e);
            }
            loader.merge(&mut slot.block);
        } else {
            // One slot per encoding thread besides the first, already cut.
            let rows = cutter.lines() + 1 - first_line;
            let free: Vec<Slot> = (0..workers.effective_threads())
                .map(|_| Slot::new(loader.block()))
                .collect();
            let plan = (arity, block_bytes, rows + rows / 8);
            run_workers(&mut loader, &mut cutter, slot, free, plan, options)?;
        }
    }
    assert!(
        !cutter.end()?,
        "the block cutter rejected a line the record reader accepted"
    );
    let null_cells = loader.null_cells();
    let (instance, columns) = loader.finish();
    Ok(LoadReport {
        instance,
        columns,
        null_cells,
    })
}

/// Encodes the blocks `cutter` cuts on one thread per `free` slot, `first`
/// being already cut, and merges them into `loader` in input order,
/// returning the first block's error in that order. The slots are all the
/// blocks in flight, reused from block to block. Every block is sized here,
/// on the loading thread, for `rows` rows (see `EncodedBlock::reserve`).
///
/// The loading thread is one of the encoding threads: when no encoded block
/// is back, it encodes a queued one itself. So a load spawns one thread
/// fewer than it uses, as `rt_par`'s maps do.
fn run_workers<R: BufRead>(
    loader: &mut EncodedLoader,
    cutter: &mut BlockCutter<R>,
    mut first: Slot,
    mut free: Vec<Slot>,
    (arity, block_bytes, rows): (usize, usize, usize),
    options: &CsvOptions,
) -> Result<(), IoError> {
    for slot in std::iter::once(&mut first).chain(&mut free) {
        slot.block.reserve(rows);
    }
    let capacity = free.len() + 1;
    let (to_workers, jobs) = mpsc::sync_channel::<Slot>(capacity);
    let jobs = Mutex::new(jobs);
    let (to_loader, done) = mpsc::sync_channel::<Slot>(capacity);
    std::thread::scope(|scope| {
        for _ in 1..free.len() {
            let (jobs, to_loader) = (&jobs, to_loader.clone());
            scope.spawn(move || loop {
                let job = jobs
                    .lock()
                    .expect("the queue lock is never held in a panic")
                    .recv();
                let Ok(mut slot) = job else { break };
                let encoded =
                    std::panic::catch_unwind(AssertUnwindSafe(|| slot.encode(arity, options)));
                slot.panic = encoded.err();
                if to_loader.send(slot).is_err() {
                    break;
                }
            });
        }
        // Dropped when this closure returns, which stops the workers.
        let to_workers = to_workers;
        let mut ready: Vec<Option<Slot>> = (0..capacity).map(|_| None).collect();
        let (mut sent, mut merged) = (0, 0);
        let mut next = Some(first);
        loop {
            while sent - merged < capacity {
                let mut slot = match next.take() {
                    Some(slot) => slot,
                    None => {
                        let mut slot = free
                            .pop()
                            .expect("a slot is free when one is not in flight");
                        match cutter.next_block(&mut slot.text, block_bytes) {
                            Some(first_line) => {
                                slot.first_line = first_line;
                                slot
                            }
                            None => {
                                free.push(slot);
                                break;
                            }
                        }
                    }
                };
                slot.seq = sent;
                to_workers
                    .send(slot)
                    .expect("workers run until the queue closes");
                sent += 1;
            }
            if merged == sent {
                return Ok(());
            }
            let queued = || jobs.try_lock().ok()?.try_recv().ok();
            let slot = match done.try_recv() {
                Ok(slot) => slot,
                Err(_) => match queued() {
                    // Nothing is back yet: encode a queued block here.
                    Some(mut slot) => {
                        slot.encode(arity, options);
                        slot
                    }
                    None => done.recv().expect("every block in flight comes back"),
                },
            };
            if let Some(panic) = slot.panic {
                std::panic::resume_unwind(panic);
            }
            let at = slot.seq % capacity;
            ready[at] = Some(slot);
            while let Some(mut slot) = ready[merged % capacity].take() {
                if let Some(e) = slot.error.take() {
                    return Err(e);
                }
                loader.merge(&mut slot.block);
                // A no-op unless the merge took the block's buffers over.
                slot.block.reserve(rows);
                merged += 1;
                free.push(slot);
            }
        }
    })
}

/// Loads a file with inferred column types, in one streaming pass.
pub fn load_path(path: impl AsRef<Path>, options: &CsvOptions) -> Result<LoadReport, IoError> {
    load(BufReader::new(std::fs::File::open(path)?), None, options)
}

/// An alias of [`load_path`]; `chunk_rows` is ignored, since the loader
/// sizes its blocks of raw text itself. It stays while `perfbench` calls
/// it.
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

    /// SplitMix64: the block oracle's seeded randomness.
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

    /// One oracle case: CSV text and, for a typed load, its column types.
    /// Fields mix plain and quoted text, quoted line breaks and doubled
    /// quotes, nulls, padding and U+FEFF; lines end in LF or CRLF with
    /// blank lines between records. `case % 8` picks one fault, placed in
    /// a late record: none (three in eight), a ragged row, a stray quote,
    /// text after a closing quote, an unterminated quote at EOF or invalid
    /// UTF-8. Every third case is a typed load, with bad fields in two
    /// columns of neighbouring rows.
    fn oracle_case(case: usize) -> (Vec<u8>, Option<Vec<ColumnType>>) {
        const TEXT: &[&str] = &[
            "ab",
            "7",
            "07",
            "2.5",
            "",
            "NA",
            "  padded  ",
            "   ",
            "\"x,y\"",
            "\"say \"\"hi\"\"\"",
            "\"two\nlines\"",
            "\"crlf\r\ninside\"",
            "\"\"",
            "\u{feff}bom",
            "caf\u{e9}",
        ];
        const NUMBERS: &[&str] = &["1", "07", "-3", "", "NA", "42"];
        let mut rng = Mix(0x5EED ^ case as u64);
        let typed = case.is_multiple_of(3);
        let arity = 1 + rng.below(4);
        let rows = 20 + rng.below(400);
        let eol = if rng.below(2) == 0 { "\n" } else { "\r\n" };
        let columns: Vec<ColumnType> = (0..arity)
            .map(|a| match (typed, a % 2) {
                (true, 0) => ColumnType::Int,
                _ => ColumnType::Str,
            })
            .collect();
        let mut lines: Vec<String> = Vec::with_capacity(rows + 1);
        lines.push(
            (0..arity)
                .map(|a| format!("c{a}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        for _ in 0..rows {
            let fields: Vec<&str> = columns
                .iter()
                .map(|ty| match ty {
                    ColumnType::Int => NUMBERS[rng.below(NUMBERS.len())],
                    _ => TEXT[rng.below(TEXT.len())],
                })
                .collect();
            let mut line = fields.join(",");
            if line.is_empty() {
                // A lone null field, spelled so the record is not a blank.
                line = "NA".to_string();
            }
            lines.push(line);
        }
        let late = rows / 2 + rng.below(rows / 2);
        let row = &mut lines[late];
        match case % 8 {
            3 => row.push_str(",extra"),
            4 => row.insert_str(0, "x\"y"),
            5 => row.insert_str(0, "\"ab\"c"),
            6 => lines.push("\"open, never closed".to_string()),
            _ => {}
        }
        if typed && arity > 2 {
            let bad = late.min(rows - 1);
            let mut second: Vec<&str> = lines[bad].split(',').collect();
            if second.len() == arity && !lines[bad].contains('"') {
                second[0] = "oops";
                lines[bad] = second.join(",");
                let first = bad - 1 - rng.below(3);
                let mut fields: Vec<&str> = lines[first].split(',').collect();
                if fields.len() == arity && !lines[first].contains('"') {
                    fields[2] = "1.5";
                    lines[first] = fields.join(",");
                }
            }
        }
        let mut text = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            text.extend_from_slice(line.as_bytes());
            if case % 8 == 7 && i == late {
                text.push(0xff);
            }
            if i + 1 < lines.len() || case % 8 != 6 {
                text.extend_from_slice(eol.as_bytes());
            }
            if rng.below(17) == 0 {
                text.extend_from_slice(eol.as_bytes());
            }
        }
        (text, typed.then_some(columns))
    }

    /// Everything a load reports, in a comparable form.
    type Summary = Result<(Vec<Vec<u32>>, Vec<Vec<Value>>, Vec<ColumnType>, usize), IoError>;

    fn summary(report: Result<LoadReport, IoError>) -> Summary {
        let report = report?;
        let inst = &report.instance;
        let attrs: Vec<AttrId> = inst.schema().attributes().map(|(a, _)| a).collect();
        Ok((
            attrs.iter().map(|&a| inst.codes(a).to_vec()).collect(),
            attrs
                .iter()
                .map(|&a| inst.dict(a).constants().to_vec())
                .collect(),
            report.columns,
            report.null_cells,
        ))
    }

    #[test]
    fn any_block_size_and_worker_count_loads_like_one_block() {
        let options = CsvOptions::csv();
        let (mut loaded, mut failed) = (0, 0);
        for case in 0..48 {
            let (text, columns) = oracle_case(case);
            let load = |block_bytes, workers| {
                summary(load_blocks(
                    &text[..],
                    columns.as_deref(),
                    &options,
                    block_bytes,
                    workers,
                ))
            };
            let reference = load(text.len().max(1), Parallelism::Serial);
            match &reference {
                Ok(_) => loaded += 1,
                Err(_) => failed += 1,
            }
            for block_bytes in [1, 2, 7, 64, 4096, BLOCK_BYTES] {
                for workers in [1, 2, 4].map(Parallelism::Fixed) {
                    assert_eq!(
                        load(block_bytes, workers),
                        reference,
                        "case {case}, {block_bytes}-byte blocks, {workers}"
                    );
                }
            }
        }
        // The corpus exercises both outcomes.
        assert!(
            loaded >= 12 && failed >= 12,
            "{loaded} loaded, {failed} failed"
        );
    }
}
