//! Typed, dictionary-direct bulk ingestion.
//!
//! The ordinary load path ([`Instance::push`]) receives fully materialized
//! [`Value`]s: a CSV reader allocates an owned `String` per string cell just
//! to build the `Value` that probes the dictionary — one transient equality
//! key per cell, counted by the `key_allocs` work counter. The encoded path
//! here inverts that: an [`EncodedLoader`] probes each attribute's
//! dictionary **by the raw field text** (`&str`, no allocation), so an
//! already-seen value costs one hash probe and zero heap allocations. Only
//! the *first* occurrence of a value parses and interns it — and that
//! allocation is permanent storage, not a probe key, so the bulk-load
//! `key_allocs` counter stays at exactly zero (provable: the `csv_load`
//! scenario of `bench_gate` asserts it).
//!
//! A pushed row becomes one code per column and nothing else: the instance
//! has no row store, so a repeated value costs a probe and a `u32` append.
//!
//! Fields arrive pre-classified as `Option<&str>` (`None` = null under the
//! caller's null policy) together with a per-column [`ColumnType`]; the
//! typed CSV reader in `rt-io` infers those types and drives this loader.

use crate::dict::Code;
use crate::error::RelationError;
use crate::instance::Instance;
use crate::value::Value;
use crate::{work, Result};
use std::collections::HashMap;
use std::fmt;

/// The column types the typed ingestion layer distinguishes.
///
/// Inference is monotone along `Int → Float → Str`: every integer literal
/// is also a float literal, and everything is a string. A column whose
/// cells conflict (some parse as numbers, some do not) falls back to
/// [`ColumnType::Str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// Every non-null cell is an `i64` literal.
    Int,
    /// Every non-null cell is a finite `f64` literal (and at least one is
    /// not an integer).
    Float,
    /// Anything else — the universal fallback.
    Str,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColumnType::Int => write!(f, "int"),
            ColumnType::Float => write!(f, "float"),
            ColumnType::Str => write!(f, "str"),
        }
    }
}

impl ColumnType {
    /// Parses one raw field under this type. `Int`/`Float` reject
    /// non-conforming text (the caller's inference should have prevented
    /// it); non-finite floats are rejected so instances only ever hold
    /// finite numbers.
    fn parse_field(self, text: &str) -> std::result::Result<Value, String> {
        match self {
            ColumnType::Int => text
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| format!("`{text}` is not an integer")),
            ColumnType::Float => match text.parse::<f64>() {
                Ok(f) if f.is_finite() => Ok(Value::float(f)),
                _ => Err(format!("`{text}` is not a finite float")),
            },
            ColumnType::Str => Ok(Value::str(text)),
        }
    }
}

/// A bulk loader that appends rows to an [`Instance`] by interning raw
/// field text directly into the per-attribute dictionaries.
///
/// Created by [`Instance::encoded_loader`]; see the [module docs](self) for
/// why this exists. The loader keeps a per-attribute `raw text → code` map,
/// so repeated values cost one hash probe and no allocation.
#[derive(Debug)]
pub struct EncodedLoader<'a> {
    instance: &'a mut Instance,
    types: Vec<ColumnType>,
    /// Per-attribute: raw field text → code. Distinct spellings of the same
    /// typed value ("7" and "07") map to the same code.
    seen: Vec<HashMap<Box<str>, Code>>,
    /// Cached code of `Value::Null` per attribute.
    null_code: Vec<Option<Code>>,
    /// The row being pushed, one code per column (reused across rows).
    row_codes: Vec<Code>,
    rows_pushed: usize,
}

impl Instance {
    /// Starts a typed bulk load: returns an [`EncodedLoader`] that appends
    /// rows parsed from raw text fields, probing the dictionaries without
    /// building per-cell `Value` keys.
    ///
    /// # Errors
    ///
    /// Fails when `types` does not provide exactly one type per attribute.
    pub fn encoded_loader(&mut self, types: Vec<ColumnType>) -> Result<EncodedLoader<'_>> {
        if types.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                tuple: types.len(),
                schema: self.schema.arity(),
            });
        }
        let arity = types.len();
        Ok(EncodedLoader {
            instance: self,
            types,
            seen: (0..arity).map(|_| HashMap::new()).collect(),
            null_code: vec![None; arity],
            row_codes: Vec::with_capacity(arity),
            rows_pushed: 0,
        })
    }
}

impl EncodedLoader<'_> {
    /// Appends one row. `fields[i]` is the raw text of column `i`, already
    /// classified by the caller's null policy (`None` = null).
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch or on a field that does not parse under its
    /// column's [`ColumnType`]; the instance is left unchanged in that case.
    pub fn push_row(&mut self, fields: &[Option<&str>]) -> Result<()> {
        if fields.len() != self.types.len() {
            return Err(RelationError::ArityMismatch {
                tuple: fields.len(),
                schema: self.types.len(),
            });
        }
        self.row_codes.clear();
        for (a, field) in fields.iter().enumerate() {
            let code = match field {
                None => match self.null_code[a] {
                    Some(c) => c,
                    None => {
                        let c = self.instance.dicts[a].intern_uncounted(&Value::Null);
                        self.null_code[a] = Some(c);
                        c
                    }
                },
                Some(text) => {
                    // The hot probe: raw bytes, no Value, no allocation.
                    work::count_key_hash(text.len());
                    match self.seen[a].get(*text) {
                        Some(&code) => code,
                        None => {
                            let value = self.types[a].parse_field(text).map_err(|e| {
                                RelationError::Csv(format!(
                                    "column `{}`: {e}",
                                    self.instance
                                        .schema
                                        .attr_name(crate::AttrId(a as u16))
                                        .unwrap_or("?")
                                ))
                            })?;
                            let code = self.instance.dicts[a].intern_uncounted(&value);
                            self.seen[a].insert((*text).into(), code);
                            code
                        }
                    }
                }
            };
            self.row_codes.push(code);
        }
        for (col, &code) in self.instance.codes.iter_mut().zip(&self.row_codes) {
            col.push(code);
        }
        self.instance.rows += 1;
        self.rows_pushed += 1;
        Ok(())
    }

    /// Number of rows this loader has appended.
    pub fn rows_pushed(&self) -> usize {
        self.rows_pushed
    }

    /// The column types the loader parses with.
    pub fn types(&self) -> &[ColumnType] {
        &self.types
    }
}

/// A bounded buffer of raw, undecoded rows feeding an [`EncodedLoader`]
/// chunk by chunk — the memory-bounded half of streaming ingestion.
///
/// A large file is streamed as: parse records into the buffer until it is
/// [full](ChunkBuffer::is_full), [flush](ChunkBuffer::flush) the chunk into
/// the loader, repeat. At any instant the process holds the growing encoded
/// columns plus **at most one chunk** of raw field text, never the whole
/// undecoded file. The buffer charges the resident-cell gauge
/// ([`work::add_resident_cells`]) for the raw cells it holds and releases
/// them on flush, charging the (permanent) encoded cells instead — which is
/// what makes the peak-resident-cell estimate gated by `bench_gate` an
/// honest account of this path.
///
/// Flushing a chunk is bit-identical to pushing the same rows straight into
/// the loader: the buffer only delays the `push_row` calls, it never
/// reorders or re-interprets them (chunk size 1 ≡ chunk size 10 000 ≡
/// whole file; the workspace's CSV tests assert this on a real fixture).
#[derive(Debug)]
pub struct ChunkBuffer {
    capacity_rows: usize,
    /// The buffered fields' text, back to back in one arena.
    text: String,
    /// Per buffered field: its byte range in `text`, `None` for a null.
    fields: Vec<Option<(usize, usize)>>,
    /// Per buffered row: its first entry in `fields`, and an opaque caller
    /// label (rt-io passes the source line number) echoed back on flush
    /// errors.
    rows: Vec<(usize, usize)>,
    /// Raw cells currently charged to the resident gauge.
    cells_charged: usize,
}

impl ChunkBuffer {
    /// A buffer holding at most `capacity_rows` rows per chunk (clamped to
    /// at least 1).
    pub fn new(capacity_rows: usize) -> Self {
        ChunkBuffer {
            capacity_rows: capacity_rows.max(1),
            text: String::new(),
            fields: Vec::new(),
            rows: Vec::new(),
            cells_charged: 0,
        }
    }

    /// `true` once the buffer holds a full chunk and must be flushed before
    /// the next push.
    pub fn is_full(&self) -> bool {
        self.rows.len() >= self.capacity_rows
    }

    /// Number of buffered (unflushed) rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Buffers one raw row (copying the field text into the chunk's arena)
    /// under an opaque `tag`.
    pub fn push(&mut self, fields: &[Option<&str>], tag: usize) {
        self.rows.push((self.fields.len(), tag));
        for field in fields {
            self.fields.push(field.map(|text| {
                let start = self.text.len();
                self.text.push_str(text);
                (start, self.text.len())
            }));
        }
        work::add_resident_cells(fields.len());
        self.cells_charged += fields.len();
    }

    /// Flushes every buffered row into `loader`, in push order, and empties
    /// the buffer. Returns the number of rows flushed.
    ///
    /// # Errors
    ///
    /// On the first row the loader rejects, returns that row's `tag`
    /// together with the underlying error. Rows before it are already
    /// appended (exactly as if they had been pushed unbuffered); the failing
    /// row and everything after it are dropped with their resident charge.
    pub fn flush(
        &mut self,
        loader: &mut EncodedLoader<'_>,
    ) -> std::result::Result<usize, (usize, RelationError)> {
        let arity = loader.types().len();
        let mut flushed = 0usize;
        let mut failed: Option<(usize, RelationError)> = None;
        let mut row: Vec<Option<&str>> = Vec::with_capacity(arity);
        for (i, &(first, tag)) in self.rows.iter().enumerate() {
            let end = self.rows.get(i + 1).map_or(self.fields.len(), |r| r.0);
            row.clear();
            row.extend(
                self.fields[first..end]
                    .iter()
                    .map(|f| f.map(|(a, b)| &self.text[a..b])),
            );
            match loader.push_row(&row) {
                // The raw cells die with this chunk; the encoded row (one
                // code per column) is permanent storage from here on.
                Ok(()) => {
                    work::add_resident_cells(arity);
                    flushed += 1;
                }
                Err(e) => {
                    failed = Some((tag, e));
                    break;
                }
            }
        }
        drop(row);
        self.text.clear();
        self.fields.clear();
        self.rows.clear();
        work::sub_resident_cells(self.cells_charged);
        self.cells_charged = 0;
        match failed {
            Some(err) => Err(err),
            None => Ok(flushed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, Schema};
    use crate::{CellRef, Tuple};

    fn loader_instance() -> Instance {
        let schema = Schema::new("t", vec!["name", "score", "count"]).unwrap();
        Instance::new(schema)
    }

    #[test]
    fn typed_rows_land_with_codes_in_lockstep() {
        let mut inst = loader_instance();
        {
            let mut loader = inst
                .encoded_loader(vec![ColumnType::Str, ColumnType::Float, ColumnType::Int])
                .unwrap();
            loader
                .push_row(&[Some("alice"), Some("1.5"), Some("3")])
                .unwrap();
            loader.push_row(&[Some("bob"), None, Some("3")]).unwrap();
            loader
                .push_row(&[Some("alice"), Some("2.5"), Some("4")])
                .unwrap();
            assert_eq!(loader.rows_pushed(), 3);
        }
        assert_eq!(inst.len(), 3);
        assert_eq!(
            *inst.cell(CellRef::new(0, AttrId(1))).unwrap(),
            Value::float(1.5)
        );
        assert_eq!(*inst.cell(CellRef::new(1, AttrId(1))).unwrap(), Value::Null);
        // Repeated values share codes; the code columns match a value-level
        // re-encoding of the same data.
        assert_eq!(inst.code_at(0, AttrId(0)), inst.code_at(2, AttrId(0)));
        assert_eq!(inst.code_at(0, AttrId(2)), inst.code_at(1, AttrId(2)));
        assert_ne!(inst.code_at(0, AttrId(2)), inst.code_at(2, AttrId(2)));
        // The dictionaries stay consistent with the ordinary intern path:
        // pushing the same logical tuple again reuses the loader's codes.
        let before = inst.dict_entries();
        inst.push(Tuple::new(vec![
            Value::str("bob"),
            Value::Null,
            Value::int(3),
        ]))
        .unwrap();
        assert_eq!(inst.dict_entries(), before);
        assert_eq!(inst.code_at(3, AttrId(0)), inst.code_at(1, AttrId(0)));
    }

    #[test]
    fn alternate_spellings_share_one_code() {
        let mut inst = Instance::new(Schema::new("t", vec!["n"]).unwrap());
        let mut loader = inst.encoded_loader(vec![ColumnType::Int]).unwrap();
        loader.push_row(&[Some("7")]).unwrap();
        loader.push_row(&[Some("07")]).unwrap();
        loader.push_row(&[Some(" 7".trim())]).unwrap();
        drop(loader);
        assert_eq!(inst.code_at(0, AttrId(0)), inst.code_at(1, AttrId(0)));
        assert_eq!(inst.dict(AttrId(0)).constant_count(), 1);
    }

    #[test]
    fn bad_fields_are_typed_errors_and_leave_the_instance_unchanged() {
        let mut inst = loader_instance();
        let mut loader = inst
            .encoded_loader(vec![ColumnType::Str, ColumnType::Float, ColumnType::Int])
            .unwrap();
        loader
            .push_row(&[Some("a"), Some("1.0"), Some("1")])
            .unwrap();
        let err = loader
            .push_row(&[Some("b"), Some("oops"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        assert!(err.to_string().contains("score"));
        // Non-finite floats never enter an instance.
        let err = loader
            .push_row(&[Some("b"), Some("inf"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        // Ragged rows are arity errors.
        assert!(matches!(
            loader.push_row(&[Some("b")]),
            Err(RelationError::ArityMismatch { .. })
        ));
        drop(loader);
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.codes(AttrId(0)).len(), 1);
    }

    #[test]
    fn loader_requires_one_type_per_attribute() {
        let mut inst = loader_instance();
        assert!(matches!(
            inst.encoded_loader(vec![ColumnType::Str]),
            Err(RelationError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn chunked_flushes_match_direct_pushes() {
        let rows: Vec<Vec<Option<&str>>> = vec![
            vec![Some("alice"), Some("1.5"), Some("3")],
            vec![Some("bob"), None, Some("3")],
            vec![Some("alice"), Some("2.5"), Some("4")],
            vec![None, Some("1.5"), Some("9")],
            vec![Some("carol"), Some("0.5"), Some("3")],
        ];
        let types = vec![ColumnType::Str, ColumnType::Float, ColumnType::Int];
        let mut direct = loader_instance();
        {
            let mut loader = direct.encoded_loader(types.clone()).unwrap();
            for row in &rows {
                loader.push_row(row).unwrap();
            }
        }
        for chunk_rows in [1usize, 2, 100] {
            let mut inst = loader_instance();
            {
                let mut loader = inst.encoded_loader(types.clone()).unwrap();
                let mut buffer = ChunkBuffer::new(chunk_rows);
                for (i, row) in rows.iter().enumerate() {
                    if buffer.is_full() {
                        buffer.flush(&mut loader).unwrap();
                    }
                    buffer.push(row, i);
                }
                let last = buffer.len();
                assert_eq!(buffer.flush(&mut loader).unwrap(), last);
            }
            assert_eq!(inst, direct, "chunk size {chunk_rows}");
            for a in 0..3 {
                let attr = AttrId(a);
                assert_eq!(inst.codes(attr), direct.codes(attr));
                assert_eq!(
                    inst.dict(attr).constant_count(),
                    direct.dict(attr).constant_count()
                );
            }
        }
    }

    #[test]
    fn chunk_flush_errors_carry_the_row_tag() {
        let mut inst = Instance::new(Schema::new("t", vec!["n"]).unwrap());
        let mut loader = inst.encoded_loader(vec![ColumnType::Int]).unwrap();
        let mut buffer = ChunkBuffer::new(10);
        buffer.push(&[Some("1")], 41);
        buffer.push(&[Some("oops")], 42);
        buffer.push(&[Some("3")], 43);
        let (tag, err) = buffer.flush(&mut loader).unwrap_err();
        assert_eq!(tag, 42);
        assert!(matches!(err, RelationError::Csv(_)));
        assert!(buffer.is_empty());
        // Rows before the failure landed; the rest were dropped.
        assert_eq!(loader.rows_pushed(), 1);
    }

    // The `key_allocs == 0` claim for this path is asserted where counters
    // can be read race-free (the work counters are process-global and unit
    // tests run concurrently): the sequential `bench_gate` binary's
    // `csv_load` scenario hard-asserts it on every CI run.
}
