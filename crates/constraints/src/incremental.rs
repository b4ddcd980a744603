//! Delta maintenance of equivalence partitions.
//!
//! The conflict-graph construction of [`crate::violations`] partitions the
//! tuples by every FD's LHS projection and emits edges between RHS
//! sub-classes. That blocking pass is linear in the data and is exactly the
//! work a *mutation* of the instance should not repeat: inserting, deleting
//! or updating a handful of tuples only moves those tuples between
//! equivalence classes, and only conflict edges *incident to the touched
//! rows* can appear or disappear.
//!
//! [`FdPartitionIndex`] keeps one LHS partition per FD — the same
//! equivalence classes the batch build sorts into runs from scratch — and
//! maintains them under row insertion, removal, renumbering and FD edits.
//! [`incident_conflict_edges`] then answers the delta question ("which
//! conflict edges touch these rows *now*?") by looking only at the touched
//! rows' classes, never at the rest of the data.

use crate::fd::FdSet;
use crate::violations::ConflictEdge;
use rt_relation::{CodeKey, Instance};
use std::collections::{BTreeSet, HashMap};

/// The LHS equivalence partitions of every FD in a set, maintained
/// incrementally.
///
/// For FD `X → A`, rows are grouped by their `X`-projection, keyed on
/// packed dictionary codes ([`rt_relation::Instance::codes`]) — the same
/// `Value::matches`-faithful grouping [`crate::ConflictGraph::build`] uses,
/// so the classes are exactly the "agree on `X`" classes of the paper,
/// without allocating or hashing a `Vec<Value>` per probe. Codes are
/// append-only in the instance's dictionaries, so stored keys stay valid
/// across every mutation.
/// Singleton classes are kept: a row alone in its class today may receive a
/// peer from the next insert.
#[derive(Debug, Clone, Default)]
pub struct FdPartitionIndex {
    /// `per_fd[i]` maps the (code-keyed) LHS projection of FD `i` to the
    /// sorted rows sharing it.
    per_fd: Vec<HashMap<CodeKey, Vec<usize>>>,
}

impl FdPartitionIndex {
    /// Builds the index for `(instance, fds)` from scratch — the one linear
    /// pass a mutable problem pays on its first mutation.
    pub fn build(instance: &Instance, fds: &FdSet) -> Self {
        let mut per_fd = Vec::with_capacity(fds.len());
        for (fd_idx, _) in fds.iter() {
            per_fd.push(Self::partition_for(instance, fds, fd_idx));
        }
        FdPartitionIndex { per_fd }
    }

    fn partition_for(
        instance: &Instance,
        fds: &FdSet,
        fd_idx: usize,
    ) -> HashMap<CodeKey, Vec<usize>> {
        let cols: Vec<&[rt_relation::Code]> = fds
            .get(fd_idx)
            .lhs
            .iter()
            .map(|a| instance.codes(a))
            .collect();
        let mut map: HashMap<CodeKey, Vec<usize>> = HashMap::with_capacity(instance.len());
        for row in 0..instance.len() {
            map.entry(CodeKey::from_cols(&cols, row))
                .or_default()
                .push(row);
        }
        map
    }

    /// Number of indexed FDs.
    pub fn fd_count(&self) -> usize {
        self.per_fd.len()
    }

    fn key_of(&self, instance: &Instance, fds: &FdSet, fd_idx: usize, row: usize) -> CodeKey {
        CodeKey::from_codes(fds.get(fd_idx).lhs.iter().map(|a| instance.code_at(row, a)))
    }

    /// Registers `row` (whose tuple must already be present in `instance`)
    /// in every FD's partition.
    pub fn insert_row(&mut self, instance: &Instance, fds: &FdSet, row: usize) {
        for fd_idx in 0..self.per_fd.len() {
            let key = self.key_of(instance, fds, fd_idx, row);
            let class = self.per_fd[fd_idx].entry(key).or_default();
            if let Err(pos) = class.binary_search(&row) {
                class.insert(pos, row);
            }
        }
    }

    /// Unregisters `row` from every FD's partition. The instance must still
    /// hold the row's *current* tuple (call this before overwriting or
    /// removing it — the class is found by projecting that tuple).
    pub fn remove_row(&mut self, instance: &Instance, fds: &FdSet, row: usize) {
        for fd_idx in 0..self.per_fd.len() {
            let key = self.key_of(instance, fds, fd_idx, row);
            if let Some(class) = self.per_fd[fd_idx].get_mut(&key) {
                if let Ok(pos) = class.binary_search(&row) {
                    class.remove(pos);
                }
                if class.is_empty() {
                    self.per_fd[fd_idx].remove(&key);
                }
            }
        }
    }

    /// Renumbers the surviving rows after `removed` (sorted, deduplicated)
    /// were deleted from the instance: every id drops by the number of
    /// removed rows below it. The removed rows themselves must already have
    /// been unregistered via [`FdPartitionIndex::remove_row`].
    pub fn shift_after_removal(&mut self, removed: &[usize]) {
        if removed.is_empty() {
            return;
        }
        for map in &mut self.per_fd {
            // rtlint: allow(D001) -- each class is renumbered in place, independently; no output depends on visit order
            for class in map.values_mut() {
                for row in class.iter_mut() {
                    *row -= removed.partition_point(|&d| d < *row);
                }
            }
        }
    }

    /// Appends the partition of a newly added FD (one linear pass over the
    /// data for that FD only).
    pub fn push_fd(&mut self, instance: &Instance, fds: &FdSet) {
        let fd_idx = self.per_fd.len();
        self.per_fd.push(Self::partition_for(instance, fds, fd_idx));
    }

    /// Drops the partition of the FD at `fd_idx` (later FDs shift down, in
    /// step with [`FdSet`] positions).
    pub fn remove_fd(&mut self, fd_idx: usize) {
        self.per_fd.remove(fd_idx);
    }

    /// The rows sharing `row`'s LHS class for FD `fd_idx` (including `row`
    /// itself), or an empty slice when the row is not indexed.
    pub fn class_of(
        &self,
        instance: &Instance,
        fds: &FdSet,
        fd_idx: usize,
        row: usize,
    ) -> &[usize] {
        let key = self.key_of(instance, fds, fd_idx, row);
        self.per_fd[fd_idx]
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Recomputes the conflict edges incident to `dirty_rows` against the
/// *current* state of `instance`, using the maintained partitions to find
/// candidate partners — the delta half of an incremental conflict-graph
/// update.
///
/// For every dirty row `r` and FD `X → A`, the only rows that can conflict
/// with `r` on that FD are the members of `r`'s `X`-class, and among those
/// exactly the ones differing on `A`. The union over FDs is therefore the
/// complete set of conflicting pairs involving a dirty row; difference sets
/// are recomputed per pair, so the returned edges are
/// bit-identical to what a from-scratch [`crate::ConflictGraph::build`]
/// would produce for them.
pub fn incident_conflict_edges(
    instance: &Instance,
    fds: &FdSet,
    index: &FdPartitionIndex,
    dirty_rows: &[usize],
) -> Vec<ConflictEdge> {
    debug_assert_eq!(index.fd_count(), fds.len());
    let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &row in dirty_rows {
        for (fd_idx, fd) in fds.iter() {
            let rhs_col = instance.codes(fd.rhs);
            let rhs_code = rhs_col[row];
            for &peer in index.class_of(instance, fds, fd_idx, row) {
                if peer == row {
                    continue;
                }
                if rhs_code != rhs_col[peer] {
                    pairs.insert((row.min(peer), row.max(peer)));
                }
            }
        }
    }
    pairs
        .into_iter()
        .map(|pair| ConflictEdge::of(instance, pair))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violations::ConflictGraph;
    use rt_relation::{AttrId, CellRef, Schema, Value};

    fn figure2() -> (Instance, FdSet) {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        (inst, fds)
    }

    fn assert_index_matches_rebuild(index: &FdPartitionIndex, inst: &Instance, fds: &FdSet) {
        let fresh = FdPartitionIndex::build(inst, fds);
        assert_eq!(index.per_fd.len(), fresh.per_fd.len());
        for (a, b) in index.per_fd.iter().zip(fresh.per_fd.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn build_groups_rows_by_lhs_projection() {
        let (inst, fds) = figure2();
        let index = FdPartitionIndex::build(&inst, &fds);
        // FD A->B: classes {0,1} (A=1) and {2,3} (A=2).
        assert_eq!(index.class_of(&inst, &fds, 0, 0), &[0, 1]);
        assert_eq!(index.class_of(&inst, &fds, 0, 3), &[2, 3]);
        // FD C->D: class {0,1,2} (C=1), singleton {3} (C=4) kept.
        assert_eq!(index.class_of(&inst, &fds, 1, 1), &[0, 1, 2]);
        assert_eq!(index.class_of(&inst, &fds, 1, 3), &[3]);
    }

    #[test]
    fn insert_remove_and_shift_track_a_rebuild() {
        let (mut inst, fds) = figure2();
        let mut index = FdPartitionIndex::build(&inst, &fds);

        // Insert a row joining the A=1 class.
        inst.push(rt_relation::Tuple::new(vec![
            Value::int(1),
            Value::int(9),
            Value::int(4),
            Value::int(3),
        ]))
        .unwrap();
        index.insert_row(&inst, &fds, 4);
        assert_index_matches_rebuild(&index, &inst, &fds);
        assert_eq!(index.class_of(&inst, &fds, 0, 4), &[0, 1, 4]);

        // Update row 2's A cell: remove under the old key, reinsert.
        index.remove_row(&inst, &fds, 2);
        inst.set_cell(CellRef::new(2, AttrId(0)), Value::int(1))
            .unwrap();
        index.insert_row(&inst, &fds, 2);
        assert_index_matches_rebuild(&index, &inst, &fds);

        // Delete rows 0 and 3: unregister, remove, renumber.
        for &r in &[0usize, 3] {
            index.remove_row(&inst, &fds, r);
        }
        inst.remove_rows(&[0, 3]).unwrap();
        index.shift_after_removal(&[0, 3]);
        assert_index_matches_rebuild(&index, &inst, &fds);
    }

    #[test]
    fn fd_edits_keep_index_aligned() {
        let (inst, mut fds) = figure2();
        let mut index = FdPartitionIndex::build(&inst, &fds);
        let schema = inst.schema().clone();
        fds.push(crate::Fd::parse("B->D", &schema).unwrap());
        index.push_fd(&inst, &fds);
        assert_index_matches_rebuild(&index, &inst, &fds);
        fds.remove(0);
        index.remove_fd(0);
        assert_index_matches_rebuild(&index, &inst, &fds);
    }

    #[test]
    fn incident_edges_match_batch_build() {
        let (inst, fds) = figure2();
        let index = FdPartitionIndex::build(&inst, &fds);
        let batch = ConflictGraph::build(&inst, &fds);
        // Asking for every row must reproduce the batch edges exactly.
        let all: Vec<usize> = (0..inst.len()).collect();
        let edges = incident_conflict_edges(&inst, &fds, &index, &all);
        assert_eq!(edges, batch.edges().to_vec());
        // Asking for row 3 yields exactly the batch edges touching row 3.
        let local = incident_conflict_edges(&inst, &fds, &index, &[3]);
        let expected: Vec<ConflictEdge> = batch
            .edges()
            .iter()
            .filter(|e| e.rows.0 == 3 || e.rows.1 == 3)
            .copied()
            .collect();
        assert_eq!(local, expected);
    }
}
