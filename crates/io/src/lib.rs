//! # rt-io
//!
//! Typed, streaming CSV/TSV ingestion for the relative-trust repair system.
//!
//! This crate is the workspace's one way to read CSV (`rt_relation::csv`
//! only writes it). It never builds a per-cell `Value` to find a cell's
//! code: a hand-rolled, offline, streaming record parser
//! ([`record::RecordReader`]: quoting, escaped quotes, CRLF, multiline
//! quoted fields, configurable delimiter, a leading byte-order mark) feeds
//! raw field text **directly into the dictionary encoding** via
//! `rt_relation::EncodedLoader`.
//!
//! The dialect is fixed apart from the delimiter. The first record names
//! the columns. Unquoted fields are trimmed, and are null exactly when they
//! are one of [`rt_relation::csv::NULL_TOKENS`] — the tokens the CSV writer
//! quotes, so whatever it writes reads back as the same data. Quoted fields
//! are literal: `""` loads as an empty string, `,,` as a null.
//!
//! Every load is one streaming pass on every core:
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
//! Entry points (both infer every column's type):
//!
//! * [`load_path`] — a file.
//! * [`read_instance`] — any `Read` source, never buffered whole.
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
use rt_relation::csv::NULL_TOKENS;
use rt_relation::{ColumnType, EncodedBlock, EncodedLoader, Instance, Schema};
use std::any::Any;
use std::io::{BufRead, BufReader, Read};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::{mpsc, Mutex};

/// The reader's delimiter and the loaded relation's name; the rest of the
/// dialect is fixed (see the [crate docs](crate)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter (a single ASCII byte; `,` for CSV, `\t` for TSV).
    pub delimiter: u8,
    /// Relation name given to the loaded schema.
    pub relation_name: String,
}

impl CsvOptions {
    /// Comma-separated.
    pub fn csv() -> Self {
        CsvOptions {
            delimiter: b',',
            relation_name: "csv".to_string(),
        }
    }

    /// Tab-separated.
    pub fn tsv() -> Self {
        CsvOptions {
            delimiter: b'\t',
            relation_name: "tsv".to_string(),
        }
    }

    /// Replaces the relation name.
    pub fn relation(mut self, name: impl Into<String>) -> Self {
        self.relation_name = name.into();
        self
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
    /// Each column's type, inferred from its cells.
    pub columns: Vec<ColumnType>,
    /// Number of null cells (unquoted [`NULL_TOKENS`]).
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

/// One raw field as a cell's text: a quoted field is literal; an unquoted
/// one is trimmed, and is null (`None`) when it is one of [`NULL_TOKENS`].
fn normalize(text: &str, quoted: bool) -> Option<&str> {
    if quoted {
        return Some(text);
    }
    let text = text.trim();
    (!NULL_TOKENS.contains(&text)).then_some(text)
}

/// Normalizes one record and appends it to `block`.
fn push_record(block: &mut EncodedBlock, record: Record<'_>, arity: usize) -> Result<(), IoError> {
    check_arity(record.len(), arity, record.line)?;
    block
        .push_row(record.fields().map(|(t, q)| normalize(t, q)))
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
    fn encode(&mut self, arity: usize, delimiter: u8) {
        let mut records = RecordReader::starting_at(&self.text[..], delimiter, self.first_line);
        self.error = loop {
            match records.next_record() {
                Ok(Some(record)) => {
                    if let Err(e) = push_record(&mut self.block, record, arity) {
                        break Some(e);
                    }
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
    }
}

/// The load loop: reads the header, then cuts the rest of the input into
/// blocks of about [`BLOCK_BYTES`] and encodes them.
fn load<R: BufRead>(input: R, options: &CsvOptions) -> Result<LoadReport, IoError> {
    load_blocks(input, options, BLOCK_BYTES, Parallelism::Auto)
}

/// [`load`] with the block size and worker count as arguments. Blocks are
/// encoded by `workers` threads against block-local dictionaries and
/// merged in input order, so the result, the first error reported
/// included, does not depend on either. Input that fits in one block is
/// encoded inline.
fn load_blocks<R: BufRead>(
    input: R,
    options: &CsvOptions,
    block_bytes: usize,
    workers: Parallelism,
) -> Result<LoadReport, IoError> {
    let delimiter = options.delimiter;
    let mut records = RecordReader::new(input, delimiter)?;
    let Some(header) = records.next_record()? else {
        return Err(IoError::parse(0, "empty input: missing header"));
    };
    let names: Vec<String> = header
        .fields()
        .map(|(t, quoted)| if quoted { t } else { t.trim() }.to_string())
        .collect();
    let arity = names.len();
    let mut loader = EncodedLoader::new(Schema::new(&options.relation_name, names)?);
    let mut slot = Slot::new(loader.block());
    let (lines, input) = records.into_input();
    let mut cutter = BlockCutter::new(input, delimiter, lines);
    if let Some(first_line) = cutter.next_block(&mut slot.text, block_bytes) {
        slot.first_line = first_line;
        if cutter.is_done() {
            slot.encode(arity, delimiter);
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
            run_workers(&mut loader, &mut cutter, slot, free, plan, delimiter)?;
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
    delimiter: u8,
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
                    std::panic::catch_unwind(AssertUnwindSafe(|| slot.encode(arity, delimiter)));
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
                        slot.encode(arity, delimiter);
                        slot
                    }
                    None => done.recv().expect("every block in flight comes back"),
                },
            };
            if let Some(panic) = slot.panic {
                std::panic::resume_unwind(panic);
            }
            merge_in_order(loader, &mut ready, &mut merged, slot, &mut free, rows)?;
        }
    })
}

/// Parks `slot` at its place in the `ready` ring, then merges into
/// `loader` every parked block that is next in input order, advancing
/// `merged` and handing each merged slot back to `free` (sized again for
/// `rows` rows). A block's error is returned when the block's turn comes,
/// so the first error in input order wins whatever order blocks come back
/// in.
fn merge_in_order(
    loader: &mut EncodedLoader,
    ready: &mut [Option<Slot>],
    merged: &mut usize,
    slot: Slot,
    free: &mut Vec<Slot>,
    rows: usize,
) -> Result<(), IoError> {
    let capacity = ready.len();
    let at = slot.seq % capacity;
    ready[at] = Some(slot);
    while let Some(mut slot) = ready[*merged % capacity].take() {
        if let Some(e) = slot.error.take() {
            return Err(e);
        }
        loader.merge(&mut slot.block);
        // A no-op unless the merge took the block's buffers over.
        slot.block.reserve(rows);
        *merged += 1;
        free.push(slot);
    }
    Ok(())
}

/// Loads a file with inferred column types, in one streaming pass.
pub fn load_path(path: impl AsRef<Path>, options: &CsvOptions) -> Result<LoadReport, IoError> {
    load(BufReader::new(std::fs::File::open(path)?), options)
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
    load(BufReader::new(reader), options)
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
    fn tsv_dialect_infers_every_column() {
        let report =
            read_instance("a\tb\n1\t2.5\n3\t4.5\n".as_bytes(), &CsvOptions::tsv()).unwrap();
        assert_eq!(report.instance.len(), 2);
        assert_eq!(report.instance.schema().name(), "tsv");
        assert_eq!(report.columns, vec![ColumnType::Int, ColumnType::Float]);
    }

    #[test]
    fn a_file_and_its_text_load_alike() {
        let dir = std::env::temp_dir().join("rt_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let options = CsvOptions::csv().relation("people");
        let inst = load_path(&path, &options).unwrap().instance;
        assert_eq!(inst.schema().name(), "people");
        assert_eq!(inst.len(), 3);
        let buffered = read_instance(SAMPLE.as_bytes(), &options).unwrap().instance;
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

    /// One oracle case's CSV text. Fields mix plain and quoted text,
    /// quoted line breaks and doubled quotes, nulls, padding, numbers and
    /// U+FEFF; lines end in LF or CRLF with blank lines between records.
    /// `case % 8` picks one fault, placed in a late record: none (three in
    /// eight), a ragged row, a stray quote, text after a closing quote, an
    /// unterminated quote at EOF or invalid UTF-8. Every third case also
    /// has a ragged row a few rows before that record, followed a few rows
    /// later by a stray quote, so the first error is not the last one.
    fn oracle_case(case: usize) -> Vec<u8> {
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
        let arity = 1 + rng.below(4);
        let rows = 20 + rng.below(400);
        let eol = if rng.below(2) == 0 { "\n" } else { "\r\n" };
        let mut lines: Vec<String> = Vec::with_capacity(rows + 1);
        lines.push(
            (0..arity)
                .map(|a| format!("c{a}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        for _ in 0..rows {
            let fields: Vec<&str> = (0..arity)
                .map(|a| match a % 2 {
                    0 => NUMBERS[rng.below(NUMBERS.len())],
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
        if case.is_multiple_of(3) {
            let ragged = late - 4 - rng.below(3);
            lines[ragged].push_str(",extra");
            lines[ragged + 1 + rng.below(3)].insert_str(0, "x\"y");
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
        text
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
            let text = oracle_case(case);
            let load = |block_bytes, workers| {
                summary(load_blocks(&text[..], &options, block_bytes, workers))
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

    /// A block that fails with `error` (or, without one, holds the rows of
    /// `text`) at position `seq` of a two-column input.
    fn hand_built_slot(
        loader: &EncodedLoader,
        seq: usize,
        text: &str,
        error: Option<IoError>,
    ) -> Slot {
        let mut slot = Slot::new(loader.block());
        slot.seq = seq;
        slot.text = text.as_bytes().to_vec();
        slot.first_line = 2;
        slot.encode(2, b',');
        slot.error = error;
        slot
    }

    #[test]
    fn blocks_merge_and_fail_in_input_order_whatever_order_they_return_in() {
        let schema = || Schema::new("R", vec!["a", "b"]).unwrap();
        let late = || IoError::parse(9, "late");

        // Both blocks fail, the later one first back: the earlier error wins.
        let mut loader = EncodedLoader::new(schema());
        let (mut ready, mut merged, mut free) = (vec![None, None], 0, Vec::new());
        let failed = hand_built_slot(&loader, 1, "", Some(late()));
        assert_eq!(
            merge_in_order(&mut loader, &mut ready, &mut merged, failed, &mut free, 4),
            Ok(())
        );
        let early = hand_built_slot(&loader, 0, "", Some(IoError::parse(2, "early")));
        assert_eq!(
            merge_in_order(&mut loader, &mut ready, &mut merged, early, &mut free, 4),
            Err(IoError::parse(2, "early"))
        );
        assert_eq!(merged, 0);

        // The later block fails, the clean earlier one comes back second: it
        // is merged, then the later block's error is returned.
        let mut loader = EncodedLoader::new(schema());
        let (mut ready, mut merged, mut free) = (vec![None, None], 0, Vec::new());
        let failed = hand_built_slot(&loader, 1, "", Some(late()));
        assert_eq!(
            merge_in_order(&mut loader, &mut ready, &mut merged, failed, &mut free, 4),
            Ok(())
        );
        let clean = hand_built_slot(&loader, 0, "1,x\n2,y\n", None);
        assert_eq!(
            merge_in_order(&mut loader, &mut ready, &mut merged, clean, &mut free, 4),
            Err(late())
        );
        assert_eq!((merged, free.len()), (1, 1));
        assert_eq!(loader.finish().0.len(), 2);
    }
}
