//! Database instances (and V-instances).
//!
//! An [`Instance`] couples a [`Schema`] with one dictionary-coded column per
//! attribute: an [`AttrDict`] of the column's distinct values and a `Code`
//! per row. There is no row store — [`Instance::cell`] borrows a value from
//! its dictionary and [`Instance::tuple`] decodes an owned [`Tuple`]. The
//! repair algorithms never delete or insert tuples (Section 3.1 of the
//! paper: all repairs in `S(I)` have the same number of tuples as `I`), so
//! rows keep stable indices, cells are addressed with [`CellRef`] =
//! `(row, attr)`, and a repaired copy is the input's code columns plus a
//! few cell edits.
//!
//! A [`Column`] — one attribute's dictionary and codes — is the unit of
//! sharing: each sits behind an `Arc`, so cloning an instance costs
//! O(arity), and a column still shared with another instance (or a
//! weight) is copied on its first write. A repaired copy therefore holds
//! its own copy of only the columns a repair changed.
//!
//! The instance also owns the V-instance variable counters: fresh variables
//! are handed out through [`Instance::fresh_var`], which guarantees the
//! "distinct variables are never equal" semantics simply by never reusing an
//! id.

use crate::dict::{distinct_rows, row_u32, sort_rows_by_codes, AttrDict, Code, CodeSpace};
use crate::error::RelationError;
use crate::schema::{AttrId, Schema};
use crate::tuple::Tuple;
use crate::value::{Value, VarId};
use crate::{work, Result};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Address of a single cell `t[A]` inside an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef {
    /// Row (tuple) index.
    pub row: usize,
    /// Attribute.
    pub attr: AttrId,
}

impl CellRef {
    /// Creates a cell reference.
    pub fn new(row: usize, attr: AttrId) -> Self {
        CellRef { row, attr }
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}[{}]", self.row, self.attr)
    }
}

/// The cell-wise difference `Δ_d(I, I')` between two instances, plus the
/// derived distance `dist_d(I, I') = |Δ_d(I, I')|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceDiff {
    /// Cells whose value differs between the two instances.
    pub changed_cells: Vec<CellRef>,
}

impl InstanceDiff {
    /// `dist_d(I, I')`: the number of changed cells.
    pub fn distance(&self) -> usize {
        self.changed_cells.len()
    }

    /// `true` when no cell changed.
    pub fn is_empty(&self) -> bool {
        self.changed_cells.is_empty()
    }

    /// Rows touched by at least one cell change.
    pub fn changed_rows(&self) -> Vec<usize> {
        let mut rows: Vec<usize> = self.changed_cells.iter().map(|c| c.row).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// One attribute's column: an [`AttrDict`] interning the column's distinct
/// values and the [`Code`] of each row under it. Instances share columns
/// ([`Instance::column`]); a shared column is copied on its first write.
#[derive(Debug, Clone, Default)]
pub struct Column {
    pub(crate) dict: AttrDict,
    pub(crate) codes: Vec<Code>,
}

impl Column {
    /// The column's value dictionary.
    pub fn dict(&self) -> &AttrDict {
        &self.dict
    }

    /// The code of each row: `codes()[row]` is the code of the row's cell.
    pub fn codes(&self) -> &[Code] {
        &self.codes
    }

    /// The codes with the dense space they come from, the input of the
    /// code-slot kernels ([`crate::distinct_rows`],
    /// [`crate::sort_rows_by_codes`]).
    pub fn code_column(&self) -> (&[Code], CodeSpace) {
        (&self.codes, self.dict.code_space())
    }
}

/// A (V-)instance of a relation schema, stored column by column.
///
/// Each attribute owns a [`Column`]: an [`AttrDict`] that interns the
/// column's distinct values, and a [`Code`] per row. That pair is the only
/// place a cell lives: there is no row store. [`Instance::cell`]
/// borrows the value from the dictionary, [`Instance::tuple`] and
/// [`Instance::tuples`] decode owned rows on demand, and every mutation
/// ([`Instance::push`], [`Instance::set_cell`], [`Instance::remove_rows`])
/// touches only codes and dictionaries, so untouched rows are never
/// re-encoded. Equality hot paths read the codes via [`Instance::codes`]
/// and compare/hash `u32`s instead of values; the encoding is
/// `Value::matches`-faithful (equal codes ⟺ matching cells), so results
/// are bit-identical to value-level comparison.
///
/// Columns are shared copy-on-write: `clone` costs O(arity) and copies no
/// cell, and every mutation copies a column that another instance (or a
/// weight holding [`Instance::column`]) still shares before writing it —
/// only the columns it writes, each on its first write, counted by
/// [`work::cells_copied`](crate::work::WorkSnapshot::cells_copied).
#[derive(Debug, Clone)]
pub struct Instance {
    pub(crate) schema: Schema,
    /// Number of rows (kept apart from the code columns so a zero-attribute
    /// schema still has a length).
    pub(crate) rows: usize,
    /// Next fresh-variable counter, one per attribute.
    pub(crate) var_counters: Vec<u32>,
    /// One shared column per attribute: `columns[attr].codes[row]` is the
    /// code of cell `(row, attr)` under `columns[attr].dict` (append-only).
    columns: Vec<Arc<Column>>,
}

/// Two instances are equal when their logical content is equal: schema,
/// variable counters, and the decoded value of every cell. Codes and
/// dictionaries are an encoding detail and deliberately excluded — equal
/// data interned in different orders carries different codes.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.rows == other.rows
            && self.var_counters == other.var_counters
            && (0..self.columns.len()).all(|a| self.column_eq(other, a))
    }
}

impl Instance {
    /// Whether column `a` decodes to the same values in both instances.
    ///
    /// Interning is injective, so a code of `self` can only ever match one
    /// code of `other`; once a pair is verified by value, later rows
    /// holding the same pair cost one array lookup.
    fn column_eq(&self, other: &Instance, a: usize) -> bool {
        let (mine, theirs) = (&self.columns[a], &other.columns[a]);
        if Arc::ptr_eq(mine, theirs) {
            return true;
        }
        let space = mine.dict.code_space();
        let mut matched: Vec<Option<Code>> = vec![None; space.size()];
        mine.codes
            .iter()
            .zip(&theirs.codes)
            .all(|(&x, &y)| match &mut matched[space.index(x)] {
                Some(known) => *known == y,
                slot @ None => {
                    let equal = mine.dict.value(x) == theirs.dict.value(y);
                    if equal {
                        *slot = Some(y);
                    }
                    equal
                }
            })
    }

    /// Creates an empty instance of the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Column::default(); schema.arity()];
        Instance::from_columns(schema, 0, columns)
    }

    /// An instance of `rows` rows over freshly built columns, with every
    /// variable counter at zero. The columns must match `schema` and `rows`.
    pub(crate) fn from_columns(schema: Schema, rows: usize, columns: Vec<Column>) -> Self {
        Instance {
            var_counters: vec![0; schema.arity()],
            schema,
            rows,
            columns: columns.into_iter().map(Arc::new).collect(),
        }
    }

    /// The one write path: column `a`, copied first when another instance
    /// or a weight still shares it. The copy is charged to
    /// [`work::WorkSnapshot::cells_copied`].
    fn column_mut(&mut self, a: usize) -> &mut Column {
        let col = &mut self.columns[a];
        if Arc::get_mut(col).is_none() {
            work::count_cells_copied(col.codes.len());
            *col = Arc::new(Column::clone(col));
        }
        // Unique now, so this never clones.
        Arc::make_mut(col)
    }

    /// Creates an instance from pre-built tuples.
    ///
    /// # Errors
    ///
    /// Fails when any tuple's arity does not match the schema.
    pub fn from_tuples(schema: Schema, tuples: Vec<Tuple>) -> Result<Self> {
        let mut inst = Instance::new(schema);
        for t in tuples {
            inst.push(t)?;
        }
        Ok(inst)
    }

    /// Convenience constructor from rows of integers (common in tests and
    /// synthetic workloads).
    pub fn from_int_rows(schema: Schema, rows: &[Vec<i64>]) -> Result<Self> {
        let tuples = rows
            .iter()
            .map(|r| Tuple::new(r.iter().map(|v| Value::Int(*v)).collect()))
            .collect();
        Instance::from_tuples(schema, tuples)
    }

    /// Appends a tuple, interning each cell into its column's dictionary.
    ///
    /// # Errors
    ///
    /// Fails when the tuple's arity does not match the schema.
    pub fn push(&mut self, tuple: Tuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                tuple: tuple.arity(),
                schema: self.schema.arity(),
            });
        }
        for (attr, value) in tuple.cells() {
            let col = self.column_mut(attr.index());
            let code = col.dict.intern(value);
            col.codes.push(code);
        }
        self.rows += 1;
        Ok(())
    }

    /// Rebuilds an instance from its encoded representation: per-attribute
    /// dictionaries, columnar code arrays and fresh-variable counters — the
    /// snapshot-restore path. The rebuilt instance carries *exactly* the
    /// original codes (not merely logically equal ones interned in a
    /// different order).
    ///
    /// # Errors
    ///
    /// Fails when the part counts do not match the schema's arity, the code
    /// columns have ragged lengths, or any code was never issued by its
    /// dictionary — corrupt snapshots must fail typed, never panic.
    pub fn from_encoded_parts(
        schema: Schema,
        dicts: Vec<AttrDict>,
        codes: Vec<Vec<Code>>,
        var_counters: Vec<u32>,
    ) -> Result<Self> {
        let arity = schema.arity();
        if dicts.len() != arity || codes.len() != arity || var_counters.len() != arity {
            return Err(RelationError::IncompatibleInstances(format!(
                "encoded parts do not match arity {arity}: {} dicts, {} code columns, \
                 {} var counters",
                dicts.len(),
                codes.len(),
                var_counters.len()
            )));
        }
        let rows = codes.first().map_or(0, Vec::len);
        if codes.iter().any(|col| col.len() != rows) {
            return Err(RelationError::IncompatibleInstances(
                "ragged code columns in encoded instance".into(),
            ));
        }
        for (attr, (col, dict)) in codes.iter().zip(&dicts).enumerate() {
            if let Some(code) = col.iter().find(|&&c| dict.try_value(c).is_none()) {
                return Err(RelationError::IncompatibleInstances(format!(
                    "code {code} in column {attr} was never issued by its dictionary"
                )));
            }
        }
        let columns = dicts
            .into_iter()
            .zip(codes)
            .map(|(dict, codes)| Column { dict, codes })
            .collect();
        Ok(Instance {
            var_counters,
            ..Instance::from_columns(schema, rows, columns)
        })
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples `n = |I|`.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` when the instance holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row < self.rows {
            Ok(())
        } else {
            Err(RelationError::RowOutOfRange {
                row,
                rows: self.rows,
            })
        }
    }

    /// Decodes a row into an owned tuple.
    ///
    /// # Errors
    ///
    /// Fails when the row is out of range.
    pub fn tuple(&self, row: usize) -> Result<Tuple> {
        self.check_row(row)?;
        Ok(self.decode_row(row))
    }

    fn decode_row(&self, row: usize) -> Tuple {
        Tuple::new(
            self.columns
                .iter()
                .map(|col| col.dict.decode(col.codes[row]))
                .collect(),
        )
    }

    /// Iterates over `(row, Tuple)`, decoding each row on demand.
    pub fn tuples(&self) -> impl Iterator<Item = (usize, Tuple)> + '_ {
        (0..self.rows).map(|row| (row, self.decode_row(row)))
    }

    /// Reads a cell, borrowing its value from the column's dictionary.
    ///
    /// # Errors
    ///
    /// Fails when the row is out of range.
    pub fn cell(&self, cell: CellRef) -> Result<&Value> {
        self.check_row(cell.row)?;
        Ok(self.cell_value(cell))
    }

    /// Overwrites a cell. A cell that already holds `value` is left alone,
    /// so its column is not copied; either way the dictionary probe is
    /// counted as one [`AttrDict::intern`].
    ///
    /// # Errors
    ///
    /// Fails when the row is out of range.
    pub fn set_cell(&mut self, cell: CellRef, value: Value) -> Result<()> {
        self.check_row(cell.row)?;
        let a = cell.attr.index();
        let code = match self.columns[a].dict.probe(&value) {
            Some(code) if code == self.columns[a].codes[cell.row] => return Ok(()),
            Some(code) => code,
            None => self.column_mut(a).dict.insert_new(&value),
        };
        self.column_mut(a).codes[cell.row] = code;
        Ok(())
    }

    /// Removes the given rows (deduplicated), compacting the remaining rows
    /// downwards while preserving their relative order.
    ///
    /// Returns the number of rows actually removed. A surviving row's new
    /// index is its old index minus the number of removed rows below it —
    /// the monotonic renumbering incremental consumers (conflict-graph
    /// retraction, partition indexes) rely on.
    ///
    /// # Errors
    ///
    /// Fails when any row index is out of range; the instance is left
    /// unchanged in that case.
    pub fn remove_rows(&mut self, rows: &[usize]) -> Result<usize> {
        let n = self.rows;
        if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
            return Err(RelationError::RowOutOfRange { row: bad, rows: n });
        }
        let mut doomed = vec![false; n];
        let mut removed = 0usize;
        for &r in rows {
            if !doomed[r] {
                doomed[r] = true;
                removed += 1;
            }
        }
        if removed == 0 {
            return Ok(0);
        }
        for a in 0..self.columns.len() {
            let mut keep = doomed.iter().map(|d| !d);
            self.column_mut(a).codes.retain(|_| keep.next().unwrap());
        }
        self.rows -= removed;
        Ok(removed)
    }

    /// Hands out a fresh V-instance variable for attribute `attr`.
    ///
    /// Fresh variables are never reused, which is exactly what guarantees the
    /// V-instance semantics ("no two distinct variables can have equal
    /// values" and "a variable never equals an existing constant").
    pub fn fresh_var(&mut self, attr: AttrId) -> Value {
        let c = &mut self.var_counters[attr.index()];
        let id = *c;
        *c += 1;
        Value::Var(VarId::new(attr.0, id))
    }

    /// The per-attribute fresh-variable counters: `var_counters()[a]` is the
    /// id [`Instance::fresh_var`] would hand out next for attribute `a`.
    ///
    /// The counters are part of an instance's logical identity (two equal
    /// instances must agree on them — see the `PartialEq` impl), so codecs
    /// that serialize an instance cell-by-cell must carry them alongside the
    /// cells and replay them with [`Instance::restore_var_counters`].
    pub fn var_counters(&self) -> &[u32] {
        &self.var_counters
    }

    /// Restores fresh-variable counters captured from
    /// [`Instance::var_counters`], e.g. when rebuilding an instance from a
    /// wire or file representation.
    ///
    /// Counters may only move forward: lowering one below the ids already
    /// handed out could let [`Instance::fresh_var`] re-issue a live
    /// variable, so each counter is clamped to at least its current value.
    /// Returns an error when `counters` does not match the schema's arity.
    pub fn restore_var_counters(&mut self, counters: &[u32]) -> Result<()> {
        if counters.len() != self.schema.arity() {
            return Err(RelationError::ArityMismatch {
                tuple: counters.len(),
                schema: self.schema.arity(),
            });
        }
        for (current, &restored) in self.var_counters.iter_mut().zip(counters) {
            *current = (*current).max(restored);
        }
        Ok(())
    }

    /// The code column of attribute `attr`: `codes(a)[row]` is the
    /// dictionary code of cell `(row, a)`. Two cells of the column match
    /// (under [`Value::matches`]) iff their codes are equal.
    pub fn codes(&self, attr: AttrId) -> &[Code] {
        &self.columns[attr.index()].codes
    }

    /// The code column of `attr` with the dense space its codes come from:
    /// the input of the code-slot kernels ([`crate::distinct_rows`],
    /// [`crate::sort_rows_by_codes`]).
    pub fn code_column(&self, attr: AttrId) -> (&[Code], CodeSpace) {
        self.columns[attr.index()].code_column()
    }

    /// The shared column of `attr`. Cloning the `Arc` keeps this version
    /// of the column alive without copying it: a later write to this
    /// instance copies the column first, so the holder never sees it.
    pub fn column(&self, attr: AttrId) -> &Arc<Column> {
        &self.columns[attr.index()]
    }

    /// Every row id, sorted by the rows' codes on `attrs` and then by row
    /// ([`crate::sort_rows_by_codes`]): rows agreeing on `attrs` form
    /// contiguous runs.
    pub fn rows_sorted_by(&self, attrs: &[AttrId]) -> Vec<u32> {
        let cols: Vec<(&[Code], CodeSpace)> = attrs.iter().map(|&a| self.code_column(a)).collect();
        let mut rows: Vec<u32> = (0..row_u32(self.rows)).collect();
        sort_rows_by_codes(&mut rows, &cols);
        rows
    }

    /// The code of a single cell (panics on out-of-range indices).
    pub fn code_at(&self, row: usize, attr: AttrId) -> Code {
        self.codes(attr)[row]
    }

    /// The value dictionary of attribute `attr`.
    pub fn dict(&self, attr: AttrId) -> &AttrDict {
        &self.columns[attr.index()].dict
    }

    /// Total number of dictionary entries (interned constants + variables)
    /// across all attributes — the footprint of the encoding layer.
    pub fn dict_entries(&self) -> usize {
        self.columns.iter().map(|col| col.dict.len()).sum()
    }

    /// Attributes on which rows `u` and `v` differ (under V-instance
    /// semantics), computed from the code columns — the code-level
    /// equivalent of [`Tuple::differing_attrs`] for in-instance rows.
    pub fn differing_attrs_coded(&self, u: usize, v: usize) -> Vec<AttrId> {
        self.columns
            .iter()
            .enumerate()
            .filter(|(_, col)| col.codes[u] != col.codes[v])
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }

    /// Number of distinct values (constants and variables) in a column.
    pub fn distinct_count(&self, attr: AttrId) -> usize {
        let mut seen: HashSet<Code> = HashSet::with_capacity(self.rows);
        for &code in self.codes(attr) {
            work::count_key_hash(4);
            seen.insert(code);
        }
        seen.len()
    }

    /// Number of distinct projections over a set of attributes.
    ///
    /// This is the paper's experimental weighting function
    /// `w(Y) = |Π_Y(I)|` (Section 8.1).
    pub fn distinct_projection_count(&self, attrs: &[AttrId]) -> usize {
        let cols: Vec<(&[Code], CodeSpace)> = attrs.iter().map(|&a| self.code_column(a)).collect();
        distinct_rows(self.rows, &cols)
    }

    /// Shannon entropy (in bits) of the value distribution of a column.
    /// Used by the entropy-based weighting function.
    pub fn column_entropy(&self, attr: AttrId) -> f64 {
        use std::collections::HashMap;
        if self.rows == 0 {
            return 0.0;
        }
        let mut counts: HashMap<Code, usize> = HashMap::new();
        for &code in self.codes(attr) {
            work::count_key_hash(4);
            *counts.entry(code).or_insert(0) += 1;
        }
        // Sum in *value* order, not HashMap or code order: float addition is
        // not associative, and two builds over equal instances must produce
        // bit-identical entropies (the incremental engine compares weight
        // fingerprints across rebuilds) even though their dictionaries may
        // have interned the values in different orders.
        let dict = self.dict(attr);
        let mut counts: Vec<(Code, usize)> = counts.into_iter().collect();
        counts.sort_unstable_by(|(a, _), (b, _)| dict.cmp_codes(*a, *b));
        let n = self.rows as f64;
        counts
            .into_iter()
            .map(|(_, c)| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    /// Cell-wise difference `Δ_d(self, other)`.
    ///
    /// # Errors
    ///
    /// Fails when the schemas differ or the instances have different numbers
    /// of tuples (repairs never add or remove tuples).
    pub fn diff(&self, other: &Instance) -> Result<InstanceDiff> {
        if self.schema != other.schema {
            return Err(RelationError::IncompatibleInstances(
                "schemas differ".into(),
            ));
        }
        if self.rows != other.rows {
            return Err(RelationError::IncompatibleInstances(format!(
                "tuple counts differ ({} vs {})",
                self.rows, other.rows
            )));
        }
        let mut changed = Vec::new();
        for row in 0..self.rows {
            for attr in self.schema.attr_ids() {
                let cell = CellRef::new(row, attr);
                if self.cell_value(cell) != other.cell_value(cell) {
                    changed.push(cell);
                }
            }
        }
        Ok(InstanceDiff {
            changed_cells: changed,
        })
    }

    /// Projects the instance onto the first `k` attributes, dropping the rest
    /// (Figure 10's attribute-scalability workload). The kept columns are
    /// shared, not copied.
    pub fn project_prefix(&self, k: usize) -> Result<Instance> {
        let schema = self.schema.project_prefix(k)?;
        let arity = schema.arity();
        Ok(Instance {
            schema,
            rows: self.rows,
            var_counters: self.var_counters[..arity].to_vec(),
            columns: self.columns[..arity].to_vec(),
        })
    }

    /// Keeps only the first `n` tuples (used when sampling smaller workloads
    /// from a generated data set). With `n` at least the row count the
    /// columns are shared; otherwise each column's code prefix is copied
    /// with its dictionary.
    pub fn truncate(&self, n: usize) -> Instance {
        if n >= self.rows {
            return self.clone();
        }
        let columns = self
            .columns
            .iter()
            .map(|col| {
                Arc::new(Column {
                    dict: col.dict.clone(),
                    codes: col.codes[..n].to_vec(),
                })
            })
            .collect();
        Instance {
            schema: self.schema.clone(),
            rows: n,
            var_counters: self.var_counters.clone(),
            columns,
        }
    }

    /// Total number of cells `n · |R|`.
    pub fn cell_count(&self) -> usize {
        self.rows * self.schema.arity()
    }

    /// Number of cells currently holding V-instance variables.
    pub fn var_cell_count(&self) -> usize {
        self.columns
            .iter()
            .map(|col| {
                col.codes
                    .iter()
                    .filter(|&&c| AttrDict::is_var_code(c))
                    .count()
            })
            .sum()
    }

    /// The value of an in-range cell (panics on out-of-range indices).
    fn cell_value(&self, cell: CellRef) -> &Value {
        self.dict(cell.attr)
            .value(self.code_at(cell.row, cell.attr))
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.schema.attributes().map(|(_, n)| n).collect();
        writeln!(f, "{}", names.join(" | "))?;
        for row in 0..self.rows {
            let row: Vec<String> = self
                .schema
                .attr_ids()
                .map(|a| self.cell_value(CellRef::new(row, a)).to_string())
                .collect();
            writeln!(f, "{}", row.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_instance() -> Instance {
        // Figure 2 of the paper: R = {A, B, C, D}, four tuples.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        Instance::from_int_rows(
            schema,
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let inst = small_instance();
        assert_eq!(inst.len(), 4);
        assert_eq!(inst.cell_count(), 16);
        assert_eq!(
            *inst.cell(CellRef::new(1, AttrId(3))).unwrap(),
            Value::Int(3)
        );
        assert!(inst.cell(CellRef::new(9, AttrId(0))).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let schema = Schema::with_arity(3).unwrap();
        let mut inst = Instance::new(schema);
        let r = inst.push(Tuple::nulls(2));
        assert!(matches!(r, Err(RelationError::ArityMismatch { .. })));
    }

    #[test]
    fn set_cell_and_diff() {
        let inst = small_instance();
        let mut repaired = inst.clone();
        repaired
            .set_cell(CellRef::new(1, AttrId(1)), Value::int(1))
            .unwrap();
        repaired
            .set_cell(CellRef::new(1, AttrId(3)), Value::int(1))
            .unwrap();
        let diff = inst.diff(&repaired).unwrap();
        assert_eq!(diff.distance(), 2);
        assert_eq!(diff.changed_rows(), vec![1]);
        assert!(inst.diff(&inst).unwrap().is_empty());
    }

    #[test]
    fn diff_requires_compatible_instances() {
        let inst = small_instance();
        let truncated = inst.truncate(2);
        assert!(inst.diff(&truncated).is_err());
        let other_schema = Instance::new(Schema::with_arity(4).unwrap());
        assert!(inst.diff(&other_schema).is_err());
    }

    #[test]
    fn remove_rows_compacts_and_validates() {
        let mut inst = small_instance();
        // Duplicates collapse; rows 1 and 3 go, rows 0 and 2 slide together.
        assert_eq!(inst.remove_rows(&[3, 1, 1]).unwrap(), 2);
        assert_eq!(inst.len(), 2);
        assert_eq!(
            *inst.cell(CellRef::new(0, AttrId(1))).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            *inst.cell(CellRef::new(1, AttrId(0))).unwrap(),
            Value::Int(2)
        );
        // Out-of-range leaves the instance untouched.
        assert!(inst.remove_rows(&[0, 9]).is_err());
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.remove_rows(&[]).unwrap(), 0);
    }

    #[test]
    fn fresh_vars_are_unique() {
        let mut inst = small_instance();
        let v1 = inst.fresh_var(AttrId(0));
        let v2 = inst.fresh_var(AttrId(0));
        let v3 = inst.fresh_var(AttrId(1));
        assert!(!v1.matches(&v2));
        assert!(!v1.matches(&v3));
        assert!(v1.matches(&v1));
    }

    #[test]
    fn distinct_counts_and_projections() {
        let inst = small_instance();
        assert_eq!(inst.distinct_count(AttrId(0)), 2); // {1, 2}
        assert_eq!(inst.distinct_count(AttrId(1)), 3); // {1, 2, 3}
        assert_eq!(inst.distinct_projection_count(&[AttrId(0), AttrId(1)]), 4);
        assert_eq!(inst.distinct_projection_count(&[]), 1);
        let empty = Instance::new(Schema::with_arity(2).unwrap());
        assert_eq!(empty.distinct_projection_count(&[]), 0);
    }

    #[test]
    fn entropy_is_zero_for_constant_column_and_positive_otherwise() {
        let schema = Schema::with_arity(2).unwrap();
        let inst =
            Instance::from_int_rows(schema, &[vec![1, 1], vec![1, 2], vec![1, 3], vec![1, 4]])
                .unwrap();
        assert_eq!(inst.column_entropy(AttrId(0)), 0.0);
        assert!((inst.column_entropy(AttrId(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn project_prefix_and_truncate() {
        let inst = small_instance();
        let p = inst.project_prefix(2).unwrap();
        assert_eq!(p.schema().arity(), 2);
        assert_eq!(p.len(), 4);
        let t = inst.truncate(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.schema().arity(), 4);
    }

    #[test]
    fn var_cell_count_counts_variables() {
        let mut inst = small_instance();
        assert_eq!(inst.var_cell_count(), 0);
        let v = inst.fresh_var(AttrId(2));
        inst.set_cell(CellRef::new(0, AttrId(2)), v).unwrap();
        assert_eq!(inst.var_cell_count(), 1);
    }

    #[test]
    fn from_encoded_parts_round_trips_exact_codes() {
        let mut inst = small_instance();
        let v = inst.fresh_var(AttrId(2));
        inst.set_cell(CellRef::new(0, AttrId(2)), v).unwrap();
        let arity = inst.schema().arity();
        let dicts: Vec<AttrDict> = (0..arity)
            .map(|a| inst.dict(AttrId(a as u16)).clone())
            .collect();
        let codes: Vec<Vec<Code>> = (0..arity)
            .map(|a| inst.codes(AttrId(a as u16)).to_vec())
            .collect();
        let rebuilt = Instance::from_encoded_parts(
            inst.schema().clone(),
            dicts,
            codes,
            inst.var_counters().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt, inst);
        for a in 0..arity {
            let attr = AttrId(a as u16);
            assert_eq!(rebuilt.codes(attr), inst.codes(attr));
        }
        // Corrupt inputs fail typed: ragged columns and unissued codes.
        let bad = Instance::from_encoded_parts(
            inst.schema().clone(),
            vec![AttrDict::new(); arity],
            vec![vec![0], vec![], vec![], vec![]],
            vec![0; arity],
        );
        assert!(bad.is_err());
        let bad = Instance::from_encoded_parts(
            inst.schema().clone(),
            vec![AttrDict::new(); arity],
            vec![vec![7]; arity],
            vec![0; arity],
        );
        assert!(bad.is_err());
    }

    #[test]
    fn display_renders_header_and_rows() {
        let inst = small_instance();
        let s = inst.to_string();
        assert!(s.starts_with("A | B | C | D"));
        assert_eq!(s.lines().count(), 5);
    }
}
