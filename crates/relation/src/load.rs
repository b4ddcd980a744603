//! Typed, dictionary-direct bulk ingestion, block by block.
//!
//! The ordinary load path ([`Instance::push`]) receives fully materialized
//! [`Value`]s: a CSV reader allocates an owned `String` per string cell just
//! to build the `Value` that probes the dictionary — one transient equality
//! key per cell, counted by the `key_allocs` work counter. The encoded path
//! here inverts that: rows are pushed as raw field text (`&str`, no
//! allocation) into an [`EncodedBlock`], which hashes each non-null cell
//! once and finds it among the block's distinct texts by that hash. Only
//! the *first* sighting of a text in a block stores or inspects it.
//!
//! Blocks are independent, so a caller may fill several at once on
//! different threads. [`EncodedLoader::merge`] then appends them to the
//! instance, in the caller's order: each of a block's distinct values is
//! looked up in the load's per-column index by the hash the block carries
//! (nothing is hashed twice), new ones are numbered, and the block's rows
//! are rewritten to the load's numbering. A value's number is its place in
//! first-occurrence order, and the first occurrences in a run of blocks are
//! the block's own, block after block — so the result is the same however
//! the rows were split into blocks.
//!
//! Column types need not be known up front. While a column's type is open,
//! each distinct raw text gets a *provisional id* on first sight (in
//! first-occurrence order, null taking an id of its own) and rows store
//! provisional ids; each block records what its distinct texts say about
//! the column's type. At the end of the input, [`EncodedLoader::finish`]
//! fixes each column's [`ColumnType`], parses every distinct text once and
//! interns the values in provisional-id order — which hands out exactly the
//! codes, in exactly the dictionary order, that a value-by-value load of
//! the typed cells would. The code column is rewritten only where distinct
//! spellings collapse to one value (`7` and `07` under `Int`, `1` and `1.0`
//! under `Float`). With types given by the caller, a block parses each
//! first sighting under its column's type, so a bad field fails the row
//! that carries it, and the merge interns new values as it meets them.
//!
//! The work counters see one `key_bytes_hashed` charge per non-null cell
//! (its length) and one per interned value, and no `key_allocs`: a first
//! sighting appends its text to a reused arena, and no probe builds a key
//! (the `csv_load` scenario of `bench_gate` asserts `key_allocs == 0`).
//! A merged row becomes one code per column and nothing else: the instance
//! has no row store and no raw text outlives the block that carried it.

use crate::dict::{AttrDict, Code};
use crate::error::RelationError;
use crate::instance::{Column, Instance};
use crate::schema::Schema;
use crate::value::Value;
use crate::{work, Result};
// rtlint: allow(D004) -- counted once per cell: a block charges each hashed cell's length to key_bytes_hashed, the merge reuses the hash, and the per-load seed only locates texts, never ordering an output
use std::collections::hash_map::RandomState as CellHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

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
    /// Parses one raw (non-null) field under this type — the typed value a
    /// loaded cell of the column holds. `Int`/`Float` reject
    /// non-conforming text (the caller's inference should have prevented
    /// it); non-finite floats are rejected so instances only ever hold
    /// finite numbers.
    ///
    /// ```
    /// use rt_relation::{ColumnType, Value};
    /// assert_eq!(ColumnType::Float.parse("91.5"), Ok(Value::float(91.5)));
    /// assert_eq!(ColumnType::Str.parse("91.5"), Ok(Value::str("91.5")));
    /// assert!(ColumnType::Int.parse("91.5").is_err());
    /// ```
    pub fn parse(self, text: &str) -> std::result::Result<Value, String> {
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

/// Type inference for one column, fed each distinct non-null raw text
/// once.
///
/// Inference is monotone along `Int → Float → Str` (see [`ColumnType`]):
/// a text only ever takes candidate types away, so the order texts are seen
/// in does not matter, and observing a repeated text again would change
/// nothing.
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

    /// Folds in the evidence of another set of texts. Inference is
    /// monotone, so the result is the evidence of the union.
    fn absorb(&mut self, other: ColumnState) {
        self.saw_value |= other.saw_value;
        self.can_int &= other.can_int;
        self.can_float &= other.can_float;
    }

    /// The narrowest type every observed text parses under — so
    /// [`ColumnType::parse`] accepts each of them.
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

/// A [`Hasher`] for keys that already are hashes: it returns the one `u64`
/// it is fed, so a map keyed by a text's hash never hashes again. The keys
/// are SipHash outputs under the load's random seed, so crafted input
/// cannot aim texts at one bucket any more than with the default hasher.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 hashes are keyed through PassThrough")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// Marks the end of a chain of texts that share a hash.
const NO_TEXT: u32 = u32::MAX;

/// One column's distinct values in first-occurrence order: its non-null
/// raw texts, found by their hash, and null's place among them. A value's
/// *id* is its position in that order.
#[derive(Debug, Default)]
struct Distinct {
    /// Hash → the latest text with that hash (collisions chain via `next`).
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The text with the same hash seen before text `i`, or [`NO_TEXT`].
    next: Vec<u32>,
    hashes: Vec<u64>,
    /// Text `i` is `arena[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
    arena: String,
    /// The id of null, once a null was seen.
    null: Option<Code>,
}

impl Distinct {
    /// Number of distinct values, null included.
    fn len(&self) -> usize {
        self.hashes.len() + usize::from(self.null.is_some())
    }

    /// The hash and text of text `i`.
    fn text(&self, i: usize) -> (u64, &str) {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        (self.hashes[i], &self.arena[start..self.ends[i]])
    }

    /// The id of text `i`: its index, plus one if null came before it.
    fn text_id(&self, i: usize) -> Code {
        (i + usize::from(self.null.is_some_and(|n| n as usize <= i))) as Code
    }

    /// The text whose id is `id`, or `None` when `id` is null's.
    fn text_of(&self, id: usize) -> Option<usize> {
        match self.null {
            Some(n) if n as usize == id => None,
            Some(n) if (n as usize) < id => Some(id - 1),
            _ => Some(id),
        }
    }

    /// The index of `text`, whose hash is `hash`, if it was seen.
    fn find(&self, hash: u64, text: &str) -> Option<usize> {
        let mut i = *self.heads.get(&hash)?;
        while i != NO_TEXT {
            if self.text(i as usize).1 == text {
                return Some(i as usize);
            }
            i = self.next[i as usize];
        }
        None
    }

    /// Adds a text not seen before and returns its id.
    fn insert(&mut self, hash: u64, text: &str) -> Code {
        let i = self.hashes.len();
        self.next
            .push(self.heads.insert(hash, i as Code).unwrap_or(NO_TEXT));
        self.hashes.push(hash);
        self.arena.push_str(text);
        self.ends.push(self.arena.len());
        self.text_id(i)
    }

    /// Gives null the next id, on its first sighting.
    fn insert_null(&mut self) -> Code {
        let id = self.len() as Code;
        self.null = Some(id);
        id
    }

    /// Forgets every value, keeping the allocations.
    fn clear(&mut self) {
        self.heads.clear();
        self.next.clear();
        self.hashes.clear();
        self.ends.clear();
        self.arena.clear();
        self.null = None;
    }
}

/// One column of an [`EncodedBlock`].
#[derive(Debug)]
struct BlockColumn {
    /// The caller's type, checked on every first sighting; `None` while
    /// the type is inferred.
    ty: Option<ColumnType>,
    /// What the block's distinct texts say about an inferred type.
    state: ColumnState,
    distinct: Distinct,
    /// The block-local id of each row's cell.
    ids: Vec<Code>,
}

/// Rows encoded against block-local dictionaries, waiting to be merged
/// into the [`EncodedLoader`] that made them.
///
/// A block hashes each non-null cell once and numbers the block's distinct
/// values in first-occurrence order. It shares nothing with other blocks,
/// so blocks can be filled on different threads; [`EncodedLoader::merge`]
/// empties a block again, allocations kept, for reuse.
#[derive(Debug)]
pub struct EncodedBlock {
    /// The load's hasher, the same in every block.
    hasher: CellHasher,
    names: Vec<String>,
    columns: Vec<BlockColumn>,
    rows: usize,
    null_cells: usize,
    /// Bytes hashed so far, charged to the work counters by the merge.
    hashed_bytes: usize,
}

impl EncodedBlock {
    /// Appends one row. Field `i` is the raw text of column `i`, already
    /// classified by the caller's null policy (`None` = null).
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch or on a field that does not parse under its
    /// column's given [`ColumnType`]; no row is appended in that case.
    pub fn push_row<'t, I>(&mut self, fields: I) -> Result<()>
    where
        I: IntoIterator<Item = Option<&'t str>>,
        I::IntoIter: ExactSizeIterator,
    {
        let fields = fields.into_iter();
        if fields.len() != self.columns.len() {
            return Err(RelationError::ArityMismatch {
                tuple: fields.len(),
                schema: self.columns.len(),
            });
        }
        let mut nulls = 0;
        for (a, (field, col)) in fields.zip(&mut self.columns).enumerate() {
            let distinct = &mut col.distinct;
            let id = match field {
                None => {
                    nulls += 1;
                    match distinct.null {
                        Some(id) => id,
                        None => distinct.insert_null(),
                    }
                }
                Some(text) => {
                    // The one hash of this cell, reused by the merge.
                    self.hashed_bytes += text.len();
                    let mut hasher = self.hasher.build_hasher();
                    hasher.write(text.as_bytes());
                    let hash = hasher.finish();
                    match distinct.find(hash, text) {
                        Some(i) => distinct.text_id(i),
                        None => {
                            match col.ty {
                                None => col.state.observe(text),
                                Some(ty) => {
                                    if let Err(e) = ty.parse(text) {
                                        // Take back the row's earlier cells.
                                        for col in &mut self.columns[..a] {
                                            col.ids.pop();
                                        }
                                        let name = &self.names[a];
                                        return Err(RelationError::Csv(format!(
                                            "column `{name}`: {e}"
                                        )));
                                    }
                                }
                            }
                            distinct.insert(hash, text)
                        }
                    }
                }
            };
            col.ids.push(id);
        }
        self.rows += 1;
        self.null_cells += nulls;
        Ok(())
    }

    /// Number of rows pushed since the block was made or last merged.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Makes room for `rows` more rows. (A block's distinct values grow as
    /// they come: a block usually holds far fewer than it has rows.)
    ///
    /// A block that another thread will fill is best sized by the thread
    /// that made it: the memory then comes from, and goes back to, that
    /// thread's allocator, where the rest of the load can reuse it once
    /// the block is dropped.
    pub fn reserve(&mut self, rows: usize) {
        for col in &mut self.columns {
            col.ids.reserve(rows);
        }
    }
}

/// One column of an [`EncodedLoader`].
#[derive(Debug)]
struct ColumnLoad {
    /// The caller's type, or `None` while it is inferred.
    ty: Option<ColumnType>,
    state: ColumnState,
    /// Every distinct value merged so far; ids are provisional ids.
    distinct: Distinct,
    /// With a given type: the code of each id. Empty while inferred, where
    /// codes are fixed at finish.
    codes: Vec<Code>,
}

impl ColumnLoad {
    /// The id of a value the merge meets for the first time — the text
    /// with `hash`, or null for `None` — interned at once when the type is
    /// given.
    fn first_sighting(&mut self, value: Option<(u64, &str)>, dict: &mut AttrDict) -> Code {
        let id = match value {
            None => self.distinct.insert_null(),
            Some((hash, text)) => self.distinct.insert(hash, text),
        };
        if let Some(ty) = self.ty {
            let value = value.map_or(Value::Null, |(_, text)| {
                ty.parse(text)
                    .expect("the block parsed this text under the column's type")
            });
            self.codes.push(dict.intern_uncounted(&value));
        }
        id
    }

    /// The code (given type) or provisional id (inferred) of `id`.
    fn code(&self, id: Code) -> Code {
        match self.ty {
            Some(_) => self.codes[id as usize],
            None => id,
        }
    }

    /// Fixes an inferred column's type, interns its distinct values in
    /// first-occurrence order and rewrites `codes` from provisional ids to
    /// codes where the two differ. A typed column is already final.
    fn finish(self, dict: &mut AttrDict, codes: &mut [Code]) -> ColumnType {
        if let Some(ty) = self.ty {
            return ty;
        }
        let ty = self.state.conclude();
        let distinct = &self.distinct;
        let remap: Vec<Code> = (0..distinct.len())
            .map(|id| {
                let value = distinct.text_of(id).map_or(Value::Null, |i| {
                    ty.parse(distinct.text(i).1)
                        .expect("inference concludes a type every observed text parses under")
                });
                dict.intern_uncounted(&value)
            })
            .collect();
        // Codes are dense in first-occurrence order, so they equal the
        // provisional ids unless two spellings collapsed to one value.
        if remap
            .iter()
            .enumerate()
            .any(|(id, &code)| code as usize != id)
        {
            for code in codes {
                *code = remap[*code as usize];
            }
        }
        ty
    }
}

/// A bulk loader that builds a new [`Instance`] from blocks of raw text
/// rows, interning them directly into the per-attribute dictionaries.
///
/// See the [module docs](self) for why this exists, how blocks merge and
/// how column types are inferred while loading.
#[derive(Debug)]
pub struct EncodedLoader {
    schema: Schema,
    /// The instance's columns, filled in file order.
    out: Vec<Column>,
    rows: usize,
    columns: Vec<ColumnLoad>,
    /// One hasher per load, cloned into every block.
    hasher: CellHasher,
    /// Block-local id → code or provisional id (reused across merges).
    remap: Vec<Code>,
    null_cells: usize,
}

impl EncodedLoader {
    /// Starts a typed bulk load of an empty instance over `schema`. With
    /// `types`, cells parse under those column types; with `None`, each
    /// column's type is inferred from its cells and fixed by
    /// [`EncodedLoader::finish`].
    ///
    /// # Errors
    ///
    /// Fails when `types` does not provide exactly one type per attribute.
    pub fn new(schema: Schema, types: Option<&[ColumnType]>) -> Result<Self> {
        let arity = schema.arity();
        if let Some(types) = types {
            if types.len() != arity {
                return Err(RelationError::ArityMismatch {
                    tuple: types.len(),
                    schema: arity,
                });
            }
        }
        let columns = (0..arity)
            .map(|a| ColumnLoad {
                ty: types.map(|types| types[a]),
                state: ColumnState::new(),
                distinct: Distinct::default(),
                codes: Vec::new(),
            })
            .collect();
        Ok(EncodedLoader {
            out: vec![Column::default(); arity],
            schema,
            rows: 0,
            columns,
            hasher: CellHasher::new(),
            remap: Vec::new(),
            null_cells: 0,
        })
    }

    /// An empty block for this load.
    pub fn block(&self) -> EncodedBlock {
        let schema = &self.schema;
        EncodedBlock {
            hasher: self.hasher.clone(),
            names: schema.attributes().map(|(_, n)| n.to_string()).collect(),
            columns: self
                .columns
                .iter()
                .map(|col| BlockColumn {
                    ty: col.ty,
                    state: ColumnState::new(),
                    distinct: Distinct::default(),
                    ids: Vec::new(),
                })
                .collect(),
            rows: 0,
            null_cells: 0,
            hashed_bytes: 0,
        }
    }

    /// Appends a block's rows after every row merged so far and empties the
    /// block for reuse. Merging the blocks of a run of rows in order gives
    /// the same instance however the rows were split into blocks.
    ///
    /// # Panics
    ///
    /// When `block` was made by another loader.
    pub fn merge(&mut self, block: &mut EncodedBlock) {
        assert_eq!(
            block.hasher.hash_one(0u64),
            self.hasher.hash_one(0u64),
            "a block merges only into the loader that made it"
        );
        work::count_key_hash(block.hashed_bytes);
        for ((col, local), Column { dict, codes }) in self
            .columns
            .iter_mut()
            .zip(&mut block.columns)
            .zip(&mut self.out)
        {
            col.state.absorb(local.state);
            local.state = ColumnState::new();
            if col.ty.is_none() && col.distinct.len() == 0 {
                // The column's first rows: their block-local ids are the
                // load's provisional ids, so the block's values and ids are
                // taken over as they are.
                std::mem::swap(&mut col.distinct, &mut local.distinct);
                std::mem::swap(codes, &mut local.ids);
                continue;
            }
            let distinct = &local.distinct;
            self.remap.clear();
            for id in 0..distinct.len() {
                let value = distinct.text_of(id).map(|i| distinct.text(i));
                let found = match value {
                    None => col.distinct.null,
                    Some((hash, text)) => col
                        .distinct
                        .find(hash, text)
                        .map(|i| col.distinct.text_id(i)),
                };
                let id = found.unwrap_or_else(|| col.first_sighting(value, dict));
                self.remap.push(col.code(id));
            }
            // Grow to the next power of two, as pushing row by row would,
            // so the column's capacity does not depend on the block sizes.
            let len = codes.len() + local.ids.len();
            if len > codes.capacity() {
                codes.reserve_exact(len.next_power_of_two() - codes.len());
            }
            codes.extend(local.ids.iter().map(|&id| self.remap[id as usize]));
            local.distinct.clear();
            local.ids.clear();
        }
        self.rows += block.rows;
        self.null_cells += block.null_cells;
        block.rows = 0;
        block.null_cells = 0;
        block.hashed_bytes = 0;
    }

    /// Number of null cells among the rows merged so far.
    pub fn null_cells(&self) -> usize {
        self.null_cells
    }

    /// Ends the load: fixes every inferred column type and returns the
    /// instance together with the type of each column.
    pub fn finish(self) -> (Instance, Vec<ColumnType>) {
        let EncodedLoader {
            schema,
            mut out,
            rows,
            columns,
            ..
        } = self;
        let types = columns
            .into_iter()
            .zip(&mut out)
            .map(|(col, Column { dict, codes })| col.finish(dict, codes))
            .collect();
        // The encoded columns are the load's only resident cells.
        work::add_resident_cells(rows * schema.arity());
        (Instance::from_columns(schema, rows, out), types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrId, CellRef, Tuple};

    fn schema() -> Schema {
        Schema::new("t", vec!["name", "score", "count"]).unwrap()
    }

    const TYPES: [ColumnType; 3] = [ColumnType::Str, ColumnType::Float, ColumnType::Int];

    #[test]
    fn typed_rows_land_with_codes_in_lockstep() {
        let mut loader = EncodedLoader::new(schema(), Some(&TYPES)).unwrap();
        let mut block = loader.block();
        block
            .push_row([Some("alice"), Some("1.5"), Some("3")])
            .unwrap();
        block.push_row([Some("bob"), None, Some("3")]).unwrap();
        block
            .push_row([Some("alice"), Some("2.5"), Some("4")])
            .unwrap();
        assert_eq!(block.rows(), 3);
        loader.merge(&mut block);
        assert_eq!(block.rows(), 0);
        assert_eq!(loader.null_cells(), 1);
        let (mut inst, types) = loader.finish();
        assert_eq!(types, TYPES);
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
        // With the type given, and with it inferred at the end of the load.
        for types in [Some(&[ColumnType::Int][..]), None] {
            let schema = Schema::new("t", vec!["n"]).unwrap();
            let mut loader = EncodedLoader::new(schema, types).unwrap();
            let mut block = loader.block();
            for text in ["07", "7", " 7".trim(), "8"] {
                block.push_row([Some(text)]).unwrap();
            }
            loader.merge(&mut block);
            let (inst, types) = loader.finish();
            assert_eq!(types, [ColumnType::Int]);
            assert_eq!(inst.code_at(0, AttrId(0)), inst.code_at(1, AttrId(0)));
            assert_eq!(inst.code_at(0, AttrId(0)), inst.code_at(2, AttrId(0)));
            assert_eq!(inst.codes(AttrId(0)), [0, 0, 0, 1]);
            assert_eq!(
                inst.dict(AttrId(0)).constants(),
                [Value::Int(7), Value::Int(8)]
            );
        }
    }

    #[test]
    fn bad_fields_are_typed_errors_and_leave_the_instance_unchanged() {
        let mut loader = EncodedLoader::new(schema(), Some(&TYPES)).unwrap();
        let mut block = loader.block();
        block.push_row([Some("a"), Some("1.0"), Some("1")]).unwrap();
        let err = block
            .push_row([Some("b"), Some("oops"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        assert!(err.to_string().contains("score"));
        // Non-finite floats never enter an instance.
        let err = block
            .push_row([Some("b"), Some("inf"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        // Ragged rows are arity errors.
        assert!(matches!(
            block.push_row([Some("b")]),
            Err(RelationError::ArityMismatch { .. })
        ));
        assert_eq!(block.rows(), 1);
        loader.merge(&mut block);
        let (inst, _) = loader.finish();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst.codes(AttrId(0)).len(), 1);
    }

    #[test]
    fn loader_requires_one_type_per_attribute() {
        assert!(matches!(
            EncodedLoader::new(schema(), Some(&[ColumnType::Str])),
            Err(RelationError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn any_split_into_blocks_loads_the_same_instance() {
        // Nulls, repeats and spellings that collapse under the inferred
        // Int type, split at every row boundary.
        let rows: [[Option<&str>; 2]; 6] = [
            [Some("07"), None],
            [Some("7"), Some("x")],
            [None, Some("y")],
            [Some("8"), Some("x")],
            [Some("07"), None],
            [Some("9"), Some("z")],
        ];
        let load = |split: usize| {
            let schema = Schema::new("t", vec!["n", "s"]).unwrap();
            let mut loader = EncodedLoader::new(schema, None).unwrap();
            let mut block = loader.block();
            for part in [&rows[..split], &rows[split..]] {
                for row in part {
                    block.push_row(*row).unwrap();
                }
                loader.merge(&mut block);
            }
            let nulls = loader.null_cells();
            let (inst, types) = loader.finish();
            let codes: Vec<Vec<Code>> = (0..2).map(|a| inst.codes(AttrId(a)).to_vec()).collect();
            let dicts: Vec<Vec<Value>> = (0..2)
                .map(|a| inst.dict(AttrId(a)).constants().to_vec())
                .collect();
            (codes, dicts, types, nulls)
        };
        let whole = load(rows.len());
        assert_eq!(whole.0[0], [0, 0, 1, 2, 0, 3]);
        assert_eq!(whole.2, [ColumnType::Int, ColumnType::Str]);
        assert_eq!(whole.3, 3);
        for split in 0..rows.len() {
            assert_eq!(load(split), whole, "split at row {split}");
        }
    }

    #[test]
    fn texts_sharing_a_hash_stay_apart() {
        let mut distinct = Distinct::default();
        assert_eq!(distinct.insert(7, "a"), 0);
        assert_eq!(distinct.insert_null(), 1);
        assert_eq!(distinct.insert(7, "b"), 2);
        assert_eq!(distinct.find(7, "a"), Some(0));
        assert_eq!(distinct.find(7, "b"), Some(1));
        assert_eq!(distinct.find(7, "c"), None);
        assert_eq!(distinct.find(8, "a"), None);
        assert_eq!(
            (0..3).map(|id| distinct.text_of(id)).collect::<Vec<_>>(),
            [Some(0), None, Some(1)]
        );
    }

    #[test]
    #[should_panic(expected = "only into the loader that made it")]
    fn a_block_merges_only_into_its_own_loader() {
        let mut loader = EncodedLoader::new(schema(), None).unwrap();
        let mut other = EncodedLoader::new(schema(), None).unwrap().block();
        loader.merge(&mut other);
    }

    // The `key_allocs == 0` claim for this path is asserted where counters
    // can be read race-free (the work counters are process-global and unit
    // tests run concurrently): the sequential `bench_gate` binary's
    // `csv_load` scenario hard-asserts it on every CI run.
}
