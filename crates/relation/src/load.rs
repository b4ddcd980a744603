//! Typed, dictionary-direct bulk ingestion in one streaming pass.
//!
//! The ordinary load path ([`Instance::push`]) receives fully materialized
//! [`Value`]s: a CSV reader allocates an owned `String` per string cell just
//! to build the `Value` that probes the dictionary — one transient equality
//! key per cell, counted by the `key_allocs` work counter. The encoded path
//! here inverts that: an [`EncodedLoader`] probes a per-attribute map **by
//! the raw field text** (`&str`, no allocation), so an already-seen text
//! costs one hash probe and zero heap allocations. Only the *first*
//! occurrence of a text parses or inspects it — and the one allocation it
//! makes is permanent storage, not a probe key, so the bulk-load
//! `key_allocs` counter stays at exactly zero (provable: the `csv_load`
//! scenario of `bench_gate` asserts it).
//!
//! Column types need not be known up front. While a column's type is open,
//! each distinct raw text gets a *provisional id* on first sight (in
//! first-occurrence order, null taking an id of its own) and is shown once
//! to the type inference; rows store provisional ids. At the end of the
//! input, [`EncodedLoader::finish`] fixes each column's [`ColumnType`],
//! parses every distinct text once and interns the values in provisional-id
//! order — which hands out exactly the codes, in exactly the dictionary
//! order, that a value-by-value load of the typed cells would. The code
//! column is rewritten only where distinct spellings collapse to one value
//! (`7` and `07` under `Int`, `1` and `1.0` under `Float`). With types given
//! by the caller, the first sighting parses and interns at once, so a bad
//! field fails on its own row.
//!
//! A pushed row becomes one code per column and nothing else: the instance
//! has no row store and no raw text outlives the row that carried it.

use crate::dict::{AttrDict, Code};
use crate::error::RelationError;
use crate::instance::Instance;
use crate::schema::{AttrId, Schema};
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

/// One column of an [`EncodedLoader`].
#[derive(Debug)]
struct ColumnLoad {
    /// The caller's type: first sightings parse and intern at once, and
    /// `seen` maps to final codes. `None` while the type is inferred:
    /// `seen` maps to provisional ids, typed and interned at finish.
    ty: Option<ColumnType>,
    state: ColumnState,
    /// Raw field text → code or provisional id.
    seen: HashMap<Box<str>, Code>,
    /// The code or provisional id of null, once a null was pushed.
    null: Option<Code>,
}

impl ColumnLoad {
    /// Records a value seen for the first time — `text`, or null for
    /// `None` — and returns its code (typed column) or provisional id
    /// (inferred column).
    fn first_sighting(
        &mut self,
        text: Option<&str>,
        dict: &mut AttrDict,
        name: &str,
    ) -> Result<Code> {
        let code = match self.ty {
            None => {
                if let Some(text) = text {
                    self.state.observe(text);
                }
                (self.seen.len() + usize::from(self.null.is_some())) as Code
            }
            Some(ty) => {
                let value = match text {
                    None => Value::Null,
                    Some(text) => ty
                        .parse(text)
                        .map_err(|e| RelationError::Csv(format!("column `{name}`: {e}")))?,
                };
                dict.intern_uncounted(&value)
            }
        };
        match text {
            None => self.null = Some(code),
            Some(text) => {
                self.seen.insert(text.into(), code);
            }
        }
        Ok(code)
    }

    /// Fixes an inferred column's type, interns its distinct values in
    /// first-occurrence order and rewrites `codes` from provisional ids to
    /// codes where the two differ. A typed column is already final.
    fn finish(self, dict: &mut AttrDict, codes: &mut [Code]) -> ColumnType {
        if let Some(ty) = self.ty {
            return ty;
        }
        let ty = self.state.conclude();
        let mut by_id: Vec<Option<&str>> =
            vec![None; self.seen.len() + usize::from(self.null.is_some())];
        // rtlint: allow(D001) -- each text lands in its own id's slot; the result is the same in any visit order
        for (text, &id) in &self.seen {
            by_id[id as usize] = Some(text);
        }
        // The one `None` left is null's slot.
        let remap: Vec<Code> = by_id
            .into_iter()
            .map(|text| {
                let value = text.map_or(Value::Null, |text| {
                    ty.parse(text)
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

/// A bulk loader that builds a new [`Instance`] from raw text fields,
/// interning them directly into the per-attribute dictionaries.
///
/// See the [module docs](self) for why this exists and how column types
/// are inferred while loading.
#[derive(Debug)]
pub struct EncodedLoader {
    instance: Instance,
    columns: Vec<ColumnLoad>,
    /// The row being pushed, one code per column (reused across rows).
    row_codes: Vec<Code>,
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
                seen: HashMap::new(),
                null: None,
            })
            .collect();
        Ok(EncodedLoader {
            instance: Instance::new(schema),
            columns,
            row_codes: Vec::with_capacity(arity),
            null_cells: 0,
        })
    }

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
        self.row_codes.clear();
        let mut nulls = 0;
        for (a, (field, col)) in fields.zip(&mut self.columns).enumerate() {
            let code = match field {
                None => {
                    nulls += 1;
                    col.null
                }
                Some(text) => {
                    // The hot probe: raw bytes, no Value, no allocation.
                    work::count_key_hash(text.len());
                    col.seen.get(text).copied()
                }
            };
            let code = match code {
                Some(code) => code,
                None => col.first_sighting(
                    field,
                    &mut self.instance.dicts[a],
                    self.instance
                        .schema
                        .attr_name(AttrId(a as u16))
                        .unwrap_or("?"),
                )?,
            };
            self.row_codes.push(code);
        }
        for (col, &code) in self.instance.codes.iter_mut().zip(&self.row_codes) {
            col.push(code);
        }
        self.instance.rows += 1;
        self.null_cells += nulls;
        Ok(())
    }

    /// Number of rows appended so far.
    pub fn rows_pushed(&self) -> usize {
        self.instance.rows
    }

    /// Number of null cells among the rows appended so far.
    pub fn null_cells(&self) -> usize {
        self.null_cells
    }

    /// Ends the load: fixes every inferred column type and returns the
    /// instance together with the type of each column.
    pub fn finish(self) -> (Instance, Vec<ColumnType>) {
        let EncodedLoader {
            mut instance,
            columns,
            ..
        } = self;
        let Instance { dicts, codes, .. } = &mut instance;
        let types = columns
            .into_iter()
            .zip(dicts.iter_mut().zip(codes.iter_mut()))
            .map(|(col, (dict, codes))| col.finish(dict, codes))
            .collect();
        // The encoded columns are the load's only resident cells.
        work::add_resident_cells(instance.rows * instance.schema.arity());
        (instance, types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellRef, Tuple};

    fn schema() -> Schema {
        Schema::new("t", vec!["name", "score", "count"]).unwrap()
    }

    const TYPES: [ColumnType; 3] = [ColumnType::Str, ColumnType::Float, ColumnType::Int];

    #[test]
    fn typed_rows_land_with_codes_in_lockstep() {
        let mut loader = EncodedLoader::new(schema(), Some(&TYPES)).unwrap();
        loader
            .push_row([Some("alice"), Some("1.5"), Some("3")])
            .unwrap();
        loader.push_row([Some("bob"), None, Some("3")]).unwrap();
        loader
            .push_row([Some("alice"), Some("2.5"), Some("4")])
            .unwrap();
        assert_eq!(loader.rows_pushed(), 3);
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
            for text in ["07", "7", " 7".trim(), "8"] {
                loader.push_row([Some(text)]).unwrap();
            }
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
        loader
            .push_row([Some("a"), Some("1.0"), Some("1")])
            .unwrap();
        let err = loader
            .push_row([Some("b"), Some("oops"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        assert!(err.to_string().contains("score"));
        // Non-finite floats never enter an instance.
        let err = loader
            .push_row([Some("b"), Some("inf"), Some("2")])
            .unwrap_err();
        assert!(matches!(err, RelationError::Csv(_)));
        // Ragged rows are arity errors.
        assert!(matches!(
            loader.push_row([Some("b")]),
            Err(RelationError::ArityMismatch { .. })
        ));
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

    // The `key_allocs == 0` claim for this path is asserted where counters
    // can be read race-free (the work counters are process-global and unit
    // tests run concurrently): the sequential `bench_gate` binary's
    // `csv_load` scenario hard-asserts it on every CI run.
}
