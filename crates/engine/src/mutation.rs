//! Validated, all-or-nothing mutation batches.
//!
//! [`MutationBatch`] is the engine-level face of the incremental mutation
//! layer ([`rt_core::mutation`]): a builder collecting inserts, deletes,
//! cell updates and FD edits that [`crate::RepairEngine::apply`] validates
//! *in full* against the engine's current state before touching anything —
//! either every op applies, or none does and the engine is untouched.

use crate::error::EngineError;
use rt_constraints::Fd;
use rt_core::{MutationEffect, MutationOp};
use rt_relation::{CellRef, Schema, Tuple, Value};

/// A batch of mutations, applied atomically by
/// [`crate::RepairEngine::apply`].
///
/// Ops apply in the order they were added; row indices in later ops refer
/// to the instance as earlier ops left it (inserts append at the end,
/// deletes compact the survivors downwards).
///
/// ```
/// use rt_engine::MutationBatch;
/// use rt_relation::{CellRef, AttrId, Value};
///
/// let batch = MutationBatch::new()
///     .insert_row(vec![Value::int(1), Value::int(2)])
///     .update_cell(CellRef::new(0, AttrId(1)), Value::int(7))
///     .delete_tuples(vec![1]);
/// assert_eq!(batch.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MutationBatch {
    ops: Vec<MutationOp>,
}

impl MutationBatch {
    /// An empty batch.
    pub fn new() -> Self {
        MutationBatch::default()
    }

    /// Appends tuples at the end of the instance.
    pub fn insert_tuples(mut self, tuples: Vec<Tuple>) -> Self {
        self.ops.push(MutationOp::InsertTuples(tuples));
        self
    }

    /// Convenience: appends one tuple given its cells.
    pub fn insert_row(self, cells: Vec<Value>) -> Self {
        self.insert_tuples(vec![Tuple::new(cells)])
    }

    /// Deletes the tuples at these row indices (duplicates collapse);
    /// surviving rows are compacted downwards, preserving relative order.
    pub fn delete_tuples(mut self, rows: Vec<usize>) -> Self {
        self.ops.push(MutationOp::DeleteTuples(rows));
        self
    }

    /// Overwrites one cell.
    pub fn update_cell(mut self, cell: CellRef, value: Value) -> Self {
        self.ops.push(MutationOp::UpdateCell(cell, value));
        self
    }

    /// Appends an FD to `Σ`.
    pub fn add_fd(mut self, fd: Fd) -> Self {
        self.ops.push(MutationOp::AddFd(fd));
        self
    }

    /// Removes the FD at this index; later FDs shift down one position.
    pub fn remove_fd(mut self, idx: usize) -> Self {
        self.ops.push(MutationOp::RemoveFd(idx));
        self
    }

    /// Appends an already-built op.
    pub fn push(mut self, op: MutationOp) -> Self {
        self.ops.push(op);
        self
    }

    /// The collected ops, in application order.
    pub fn ops(&self) -> &[MutationOp] {
        &self.ops
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when the batch contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Validates the whole batch against an engine state of `rows` tuples,
    /// `fd_count` FDs and the given schema, simulating the row/FD counts
    /// through the sequence. Returns the simulated final `(rows, fd_count)`
    /// on success; the first offending op fails the batch.
    pub(crate) fn validate(
        &self,
        schema: &Schema,
        mut rows: usize,
        mut fd_count: usize,
    ) -> Result<(usize, usize), EngineError> {
        let arity = schema.arity();
        let err = |i: usize, msg: String| Err(EngineError::Mutation(format!("op #{i}: {msg}")));
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                MutationOp::InsertTuples(tuples) => {
                    for t in tuples {
                        if t.arity() != arity {
                            return err(
                                i,
                                format!(
                                    "inserted tuple has arity {} but the schema has {arity} \
                                     attributes",
                                    t.arity()
                                ),
                            );
                        }
                        if t.as_slice().iter().any(Value::is_var) {
                            return err(
                                i,
                                "inserted tuples must hold constants: V-instance variables \
                                 are minted by the repair step (Instance::fresh_var), and an \
                                 injected one could collide with a future fresh variable"
                                    .to_string(),
                            );
                        }
                    }
                    rows += tuples.len();
                }
                MutationOp::DeleteTuples(doomed) => {
                    let mut distinct: Vec<usize> = doomed.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    if let Some(&bad) = distinct.last().filter(|&&r| r >= rows) {
                        return err(
                            i,
                            format!("cannot delete row {bad}: the instance has {rows} rows"),
                        );
                    }
                    rows -= distinct.len();
                }
                MutationOp::UpdateCell(cell, value) => {
                    if cell.row >= rows {
                        return err(
                            i,
                            format!("cannot update {cell}: the instance has {rows} rows"),
                        );
                    }
                    if cell.attr.index() >= arity {
                        return err(
                            i,
                            format!("cannot update {cell}: the schema has {arity} attributes"),
                        );
                    }
                    if value.is_var() {
                        return err(
                            i,
                            "cell updates must write constants: V-instance variables are \
                             minted by the repair step, and an injected one could collide \
                             with a future fresh variable"
                                .to_string(),
                        );
                    }
                }
                MutationOp::AddFd(fd) => {
                    if let Some(max) = fd.attributes().max_attr() {
                        if max.index() >= arity {
                            return err(
                                i,
                                format!(
                                    "FD refers to attribute {} but the schema has only {arity} \
                                     attributes",
                                    max.0
                                ),
                            );
                        }
                    }
                    if fd.lhs.contains(fd.rhs) {
                        return err(i, "trivial FD: the RHS appears in the LHS".to_string());
                    }
                    fd_count += 1;
                }
                MutationOp::RemoveFd(idx) => {
                    if *idx >= fd_count {
                        return err(i, format!("cannot remove FD #{idx}: Σ has {fd_count} FDs"));
                    }
                    fd_count -= 1;
                }
            }
        }
        if fd_count == 0 {
            return Err(EngineError::Mutation(
                "the batch would leave Σ empty — the engine requires at least one FD".to_string(),
            ));
        }
        Ok((rows, fd_count))
    }
}

impl FromIterator<MutationOp> for MutationBatch {
    fn from_iter<I: IntoIterator<Item = MutationOp>>(iter: I) -> Self {
        MutationBatch {
            ops: iter.into_iter().collect(),
        }
    }
}

/// What [`crate::RepairEngine::apply`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Aggregated per-op effects (rows/FDs touched, edge delta,
    /// invalidation verdict).
    pub effect: MutationEffect,
    /// `true` when the engine's suspended sweep checkpoint survived the
    /// batch: the mutation provably left every FD-level search answer
    /// unchanged, so resumable sweep prefixes are still valid.
    pub sweep_cache_retained: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{AttrId, Schema};

    fn schema() -> Schema {
        Schema::new("R", vec!["A", "B", "C"]).unwrap()
    }

    #[test]
    fn builder_collects_ops_in_order() {
        let batch = MutationBatch::new()
            .insert_row(vec![Value::int(1), Value::int(2), Value::int(3)])
            .update_cell(CellRef::new(0, AttrId(1)), Value::int(9))
            .delete_tuples(vec![0])
            .add_fd(Fd::from_indices(&[0], 1))
            .remove_fd(0);
        assert_eq!(batch.len(), 5);
        assert!(matches!(batch.ops()[0], MutationOp::InsertTuples(_)));
        assert!(matches!(batch.ops()[4], MutationOp::RemoveFd(0)));
        assert!(MutationBatch::new().is_empty());
    }

    #[test]
    fn validation_simulates_row_and_fd_counts() {
        let s = schema();
        // Start: 2 rows, 1 FD. Insert 1 → 3 rows; delete rows 0 and 2 → 1
        // row; updating row 0 is fine, row 1 is not.
        let ok = MutationBatch::new()
            .insert_row(vec![Value::int(1), Value::int(2), Value::int(3)])
            .delete_tuples(vec![0, 2])
            .update_cell(CellRef::new(0, AttrId(0)), Value::int(5));
        assert_eq!(ok.validate(&s, 2, 1).unwrap(), (1, 1));
        let bad = MutationBatch::new()
            .insert_row(vec![Value::int(1), Value::int(2), Value::int(3)])
            .delete_tuples(vec![0, 2])
            .update_cell(CellRef::new(1, AttrId(0)), Value::int(5));
        assert!(bad.validate(&s, 2, 1).is_err());
    }

    #[test]
    fn validation_rejects_bad_ops() {
        let s = schema();
        let arity_mismatch = MutationBatch::new().insert_row(vec![Value::int(1)]);
        assert!(arity_mismatch.validate(&s, 2, 1).is_err());
        let oob_delete = MutationBatch::new().delete_tuples(vec![7]);
        assert!(oob_delete.validate(&s, 2, 1).is_err());
        let oob_attr = MutationBatch::new().update_cell(CellRef::new(0, AttrId(9)), Value::Null);
        assert!(oob_attr.validate(&s, 2, 1).is_err());
        let oob_fd_attr = MutationBatch::new().add_fd(Fd::from_indices(&[5], 6));
        assert!(oob_fd_attr.validate(&s, 2, 1).is_err());
        let oob_fd_idx = MutationBatch::new().remove_fd(3);
        assert!(oob_fd_idx.validate(&s, 2, 1).is_err());
        // Variables are the repair step's to mint, never a mutation's.
        let var = Value::Var(rt_relation::VarId::new(0, 0));
        let var_insert =
            MutationBatch::new().insert_row(vec![var.clone(), Value::int(1), Value::int(1)]);
        assert!(var_insert.validate(&s, 2, 1).is_err());
        let var_update = MutationBatch::new().update_cell(CellRef::new(0, AttrId(0)), var);
        assert!(var_update.validate(&s, 2, 1).is_err());
        let empties_sigma = MutationBatch::new().remove_fd(0);
        assert!(empties_sigma.validate(&s, 2, 1).is_err());
        // Removing the last FD is fine if another is added.
        let swap = MutationBatch::new()
            .remove_fd(0)
            .add_fd(Fd::from_indices(&[0], 2));
        assert_eq!(swap.validate(&s, 2, 1).unwrap(), (2, 1));
    }
}
