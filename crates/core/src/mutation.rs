//! Live mutations of a prepared [`RepairProblem`].
//!
//! The expensive, data-dependent part of problem preparation is the
//! conflict-graph construction — a blocking pass over all tuples per FD plus
//! a pair scan per block. A mutation (a few inserted, deleted or updated
//! tuples; an added or removed FD) invalidates only the conflicts *incident
//! to the touched rows* (or carrying the touched FD), so
//! [`RepairProblem::apply_mutations`] patches the prepared state instead of
//! rebuilding it:
//!
//! * inserted and updated rows find their conflict partners in one pass per
//!   FD over the code columns, which define the LHS classes; no index is
//!   kept beside them ([`rt_constraints::ConflictGraph::apply_delta`]). A
//!   run of consecutive insert and update ops collects its dirty rows and
//!   patches the graph once, before the next delete or FD op and at the end
//!   of the batch;
//! * deleted rows take their edges with them and the rest are renumbered
//!   ([`ConflictGraph::retract_tuples`](rt_constraints::ConflictGraph::retract_tuples));
//! * an added FD costs one blocking pass for that FD
//!   ([`ConflictGraph::integrate_fd`](rt_constraints::ConflictGraph::integrate_fd)),
//!   a removed one a filter over the edges' difference sets;
//! * the difference-set groups, `α` and (for built-in weightings) the
//!   weighting function are refreshed from the patched state.
//!
//! The contract, mirrored by the workspace's incremental test suite: after
//! any mutation sequence, the problem is bit-identical — same conflict
//! graph, same repairs, same spectrum — to a [`RepairProblem`] freshly built
//! on the mutated `(I, Σ)`.

use crate::problem::{RepairProblem, WeightKind};
use rt_constraints::Fd;
use rt_relation::work::{Slot, Telemetry};
use rt_relation::{CellRef, Tuple, Value};

/// One primitive mutation of a repair problem's `(I, Σ)`.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Append tuples at the end of the instance.
    InsertTuples(Vec<Tuple>),
    /// Delete the tuples at these (current) row indices; surviving rows are
    /// compacted downwards, preserving relative order.
    DeleteTuples(Vec<usize>),
    /// Overwrite one cell.
    UpdateCell(CellRef, Value),
    /// Append an FD to `Σ`.
    AddFd(Fd),
    /// Remove the FD at this (current) index; later FDs shift down.
    RemoveFd(usize),
}

/// What a mutation (batch) did to the prepared state. Effects fold together
/// through [`Telemetry::absorb`]; the two flags are sticky.
///
/// The edge counts compare the graph before and after each patch, and a
/// run of consecutive insert and update ops is patched once: its counts
/// are net over the run. An edge that one update of the run creates and a
/// later one removes is counted in neither `edges_added` nor
/// `edges_removed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationEffect {
    /// Tuples appended.
    pub rows_inserted: usize,
    /// Tuples deleted.
    pub rows_deleted: usize,
    /// Cells overwritten.
    pub cells_updated: usize,
    /// FDs appended to `Σ`.
    pub fds_added: usize,
    /// FDs removed from `Σ`.
    pub fds_removed: usize,
    /// Conflict edges that exist now but did not before.
    pub edges_added: usize,
    /// Conflict edges that existed before but do not now.
    pub edges_removed: usize,
    /// Conflict edges whose difference set or violated-FD positions changed
    /// in place.
    pub edges_relabeled: usize,
    /// `true` when FD-level search results computed against the
    /// pre-mutation state may now differ — the signal consumers use to
    /// decide whether cached sweeps survive. `false` means every
    /// `δ_P`/`dist_c`/cover question has provably the same answer as
    /// before (e.g. conflict-free inserts under a data-independent
    /// weighting).
    pub search_state_invalidated: bool,
    /// `true` when the difference-set groups (or `α`, or the FD set) may
    /// differ from before — the signal for dropping *structural* heuristic
    /// caches keyed on difference sets. Implied by
    /// `search_state_invalidated`; a weight-only refresh (e.g. a
    /// conflict-free insert under a data-dependent weighting) sets the
    /// latter but not this, so such caches survive it.
    pub diff_groups_changed: bool,
}

impl Telemetry for MutationEffect {
    #[rustfmt::skip]
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("rows_inserted", Slot::Count(&mut self.rows_inserted)),
            ("rows_deleted", Slot::Count(&mut self.rows_deleted)),
            ("cells_updated", Slot::Count(&mut self.cells_updated)),
            ("fds_added", Slot::Count(&mut self.fds_added)),
            ("fds_removed", Slot::Count(&mut self.fds_removed)),
            ("edges_added", Slot::Count(&mut self.edges_added)),
            ("edges_removed", Slot::Count(&mut self.edges_removed)),
            ("edges_relabeled", Slot::Count(&mut self.edges_relabeled)),
            ("search_state_invalidated", Slot::Flag(&mut self.search_state_invalidated)),
            ("diff_groups_changed", Slot::Flag(&mut self.diff_groups_changed)),
        ]
    }
}

impl RepairProblem {
    /// Applies a sequence of mutations, incrementally maintaining the
    /// prepared state, and reports what changed.
    ///
    /// Later ops see the effects of earlier ones (row indices refer to the
    /// state at that point of the sequence). Ops are *not* validated here
    /// beyond what the substrate enforces; on error the problem may be
    /// partially mutated — validate up front when atomicity matters (the
    /// engine's `MutationBatch` does exactly that).
    pub fn apply_mutations(&mut self, ops: &[MutationOp]) -> Result<MutationEffect, String> {
        let alpha_before = self.alpha;
        let mut effect = MutationEffect::default();
        // A data-dependent weight shares the instance's columns. Drop it
        // while data ops run, so their writes land in place instead of
        // copying each written column, and rebuild it on every exit.
        let old_fp = self.weight.fingerprint();
        let writes_data = ops
            .iter()
            .any(|op| !matches!(op, MutationOp::AddFd(_) | MutationOp::RemoveFd(_)));
        if writes_data {
            self.weight = Self::build_weight(&self.instance, WeightKind::AttrCount);
        }
        // Rows inserted or overwritten since the graph was last patched.
        let mut dirty = Vec::new();
        let applied = ops
            .iter()
            .try_for_each(|op| self.apply_one(op, &mut dirty, &mut effect));
        self.patch_dirty(&mut dirty, &mut effect);
        if writes_data {
            self.weight = Self::build_weight(&self.instance, self.weight_kind);
        }
        applied?;
        self.alpha = Self::compute_alpha(self.instance.schema().arity(), self.sigma.len());
        self.diff_groups = Self::group_by_difference_set(&self.conflict);

        let data_changed = effect.rows_inserted + effect.rows_deleted + effect.cells_updated > 0;
        let weight_changed =
            data_changed && (old_fp.is_none() || old_fp != self.weight.fingerprint());
        effect.diff_groups_changed = effect.fds_added > 0
            || effect.fds_removed > 0
            || effect.rows_deleted > 0
            || effect.edges_added > 0
            || effect.edges_removed > 0
            || effect.edges_relabeled > 0
            || self.alpha != alpha_before;
        effect.search_state_invalidated = effect.diff_groups_changed || weight_changed;
        Ok(effect)
    }

    /// Applies one op. Inserts and updates only write the instance and
    /// record their rows in `dirty`; every other op reads or renumbers the
    /// graph, so the pending rows are patched in first.
    fn apply_one(
        &mut self,
        op: &MutationOp,
        dirty: &mut Vec<usize>,
        effect: &mut MutationEffect,
    ) -> Result<(), String> {
        match op {
            MutationOp::InsertTuples(rows) => self.insert_tuples_inner(rows, dirty, effect),
            MutationOp::UpdateCell(cell, value) => {
                self.update_cell_inner(*cell, value, dirty, effect)
            }
            MutationOp::DeleteTuples(rows) => {
                self.patch_dirty(dirty, effect);
                self.delete_tuples_inner(rows, effect)
            }
            MutationOp::AddFd(fd) => {
                self.patch_dirty(dirty, effect);
                self.add_fd_inner(*fd, effect)
            }
            MutationOp::RemoveFd(idx) => {
                self.patch_dirty(dirty, effect);
                self.remove_fd_inner(*idx, effect)
            }
        }
    }

    /// Patches the graph around the rows written since the last patch, in
    /// one [`ConflictGraph::apply_delta`](rt_constraints::ConflictGraph::apply_delta)
    /// pass, and empties `dirty`.
    fn patch_dirty(&mut self, dirty: &mut Vec<usize>, effect: &mut MutationEffect) {
        if dirty.is_empty() {
            return;
        }
        dirty.sort_unstable();
        dirty.dedup();
        let summary = self
            .conflict
            .apply_delta(&self.instance, &self.sigma, dirty);
        effect.absorb(&summary);
        dirty.clear();
    }

    fn insert_tuples_inner(
        &mut self,
        rows: &[Tuple],
        dirty: &mut Vec<usize>,
        effect: &mut MutationEffect,
    ) -> Result<(), String> {
        for tuple in rows {
            self.instance
                .push(tuple.clone())
                .map_err(|e| e.to_string())?;
            dirty.push(self.instance.len() - 1);
            effect.rows_inserted += 1;
        }
        Ok(())
    }

    fn delete_tuples_inner(
        &mut self,
        rows: &[usize],
        effect: &mut MutationEffect,
    ) -> Result<(), String> {
        let mut doomed: Vec<usize> = rows.to_vec();
        doomed.sort_unstable();
        doomed.dedup();
        if doomed.is_empty() {
            return Ok(());
        }
        if let Some(&bad) = doomed.last().filter(|&&r| r >= self.instance.len()) {
            return Err(format!(
                "cannot delete row {bad}: the instance has {} rows",
                self.instance.len()
            ));
        }
        effect.edges_removed += self.conflict.retract_tuples(&doomed);
        self.instance
            .remove_rows(&doomed)
            .map_err(|e| e.to_string())?;
        effect.rows_deleted += doomed.len();
        Ok(())
    }

    fn update_cell_inner(
        &mut self,
        cell: CellRef,
        value: &Value,
        dirty: &mut Vec<usize>,
        effect: &mut MutationEffect,
    ) -> Result<(), String> {
        if cell.attr.index() >= self.instance.schema().arity() {
            return Err(format!(
                "cannot update {cell}: the schema has {} attributes",
                self.instance.schema().arity()
            ));
        }
        if cell.row >= self.instance.len() {
            return Err(format!(
                "cannot update {cell}: the instance has {} rows",
                self.instance.len()
            ));
        }
        self.instance
            .set_cell(cell, value.clone())
            .map_err(|e| e.to_string())?;
        dirty.push(cell.row);
        effect.cells_updated += 1;
        Ok(())
    }

    fn add_fd_inner(&mut self, fd: Fd, effect: &mut MutationEffect) -> Result<(), String> {
        let arity = self.instance.schema().arity();
        if let Some(max) = fd.attributes().max_attr() {
            if max.index() >= arity {
                return Err(format!(
                    "FD refers to attribute {} but the instance has only {arity} attributes",
                    max.0
                ));
            }
        }
        self.sigma.push(fd);
        let summary = self.conflict.integrate_fd(&self.instance, &fd);
        effect.absorb(&summary);
        effect.fds_added += 1;
        Ok(())
    }

    fn remove_fd_inner(&mut self, idx: usize, effect: &mut MutationEffect) -> Result<(), String> {
        if idx >= self.sigma.len() {
            return Err(format!(
                "cannot remove FD #{idx}: Σ has {} FDs",
                self.sigma.len()
            ));
        }
        let summary = self.conflict.remove_fd(&self.sigma, idx);
        self.sigma.remove(idx);
        effect.absorb(&summary);
        effect.fds_removed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_constraints::FdSet;
    use rt_relation::{AttrId, Instance, Schema};
    use std::sync::Arc;

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

    /// The headline contract: after mutations, the problem's conflict graph
    /// equals a fresh build on the mutated inputs.
    fn assert_matches_fresh(problem: &RepairProblem, weight: WeightKind) {
        let fresh = RepairProblem::with_weight(problem.instance(), problem.sigma(), weight);
        assert_eq!(problem.conflict_graph(), fresh.conflict_graph());
        assert_eq!(problem.alpha(), fresh.alpha());
        assert_eq!(problem.delta_p_original(), fresh.delta_p_original());
        assert_eq!(problem.diff_groups().len(), fresh.diff_groups().len());
    }

    #[test]
    fn insert_update_delete_sequence_matches_fresh_build() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let ops = vec![
            MutationOp::InsertTuples(vec![rt_relation::Tuple::new(vec![
                Value::int(1),
                Value::int(5),
                Value::int(4),
                Value::int(3),
            ])]),
            MutationOp::UpdateCell(CellRef::new(2, AttrId(0)), Value::int(7)),
            MutationOp::DeleteTuples(vec![0]),
        ];
        let effect = p.apply_mutations(&ops).unwrap();
        assert_eq!(effect.rows_inserted, 1);
        assert_eq!(effect.cells_updated, 1);
        assert_eq!(effect.rows_deleted, 1);
        assert!(effect.search_state_invalidated);
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn fd_edits_match_fresh_build() {
        let (inst, fds) = figure2();
        let schema = inst.schema().clone();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let effect = p
            .apply_mutations(&[MutationOp::AddFd(Fd::parse("B->D", &schema).unwrap())])
            .unwrap();
        assert_eq!(effect.fds_added, 1);
        assert!(effect.search_state_invalidated);
        assert_matches_fresh(&p, WeightKind::AttrCount);
        let effect = p.apply_mutations(&[MutationOp::RemoveFd(0)]).unwrap();
        assert_eq!(effect.fds_removed, 1);
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn conflict_free_insert_under_attr_count_does_not_invalidate() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        // A=9 and C=9 appear nowhere: the new row shares no LHS class with
        // any existing one, so no conflicts appear.
        let effect = p
            .apply_mutations(&[MutationOp::InsertTuples(vec![rt_relation::Tuple::new(
                vec![Value::int(9), Value::int(9), Value::int(9), Value::int(9)],
            )])])
            .unwrap();
        assert_eq!(effect.edges_added, 0);
        assert!(!effect.search_state_invalidated);
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn distinct_count_weight_refresh_invalidates_on_data_change() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::DistinctCount);
        let effect = p
            .apply_mutations(&[MutationOp::InsertTuples(vec![rt_relation::Tuple::new(
                vec![Value::int(9), Value::int(9), Value::int(9), Value::int(9)],
            )])])
            .unwrap();
        // No conflicts, but the distinct-count weighting has no fingerprint:
        // it must be assumed changed.
        assert!(effect.search_state_invalidated);
        assert_matches_fresh(&p, WeightKind::DistinctCount);
    }

    #[test]
    fn repeated_updates_write_their_column_in_place() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::DistinctCount);
        let b = AttrId(1);
        // The first write copies column B away from `inst`; the rebuilt
        // weight must not hold the copy when the second batch writes it.
        for (value, first) in [(5, true), (6, false)] {
            // A raw pointer, not a handle: holding one would force the copy.
            // A copied column is allocated while its original is still held,
            // so equal addresses mean the write landed in place.
            let before = Arc::as_ptr(p.instance().column(b));
            let effect = p
                .apply_mutations(&[MutationOp::UpdateCell(
                    CellRef::new(0, b),
                    Value::int(value),
                )])
                .unwrap();
            assert_eq!(effect.cells_updated, 1);
            assert_eq!(before == Arc::as_ptr(p.instance().column(b)), !first);
        }
        assert_matches_fresh(&p, WeightKind::DistinctCount);
    }

    #[test]
    fn invalid_ops_report_errors() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        assert!(p
            .apply_mutations(&[MutationOp::DeleteTuples(vec![99])])
            .is_err());
        assert!(p
            .apply_mutations(&[MutationOp::UpdateCell(
                CellRef::new(0, AttrId(9)),
                Value::int(1)
            )])
            .is_err());
        assert!(p.apply_mutations(&[MutationOp::RemoveFd(5)]).is_err());
        assert!(p
            .apply_mutations(&[MutationOp::AddFd(Fd::from_indices(&[6], 7))])
            .is_err());
    }

    #[test]
    fn bridging_insert_merges_two_components_like_a_fresh_build() {
        // Components before: {0,1} (conflict on A->B) and {2,3} (conflict
        // on C->D). The inserted row conflicts into both, merging them.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 9, 9],
                vec![1, 2, 8, 8],
                vec![5, 5, 3, 1],
                vec![6, 6, 3, 2],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        assert_eq!(
            p.conflict_graph().to_graph().connected_components().len(),
            2
        );
        p.apply_mutations(&[MutationOp::InsertTuples(vec![rt_relation::Tuple::new(
            vec![Value::int(1), Value::int(3), Value::int(3), Value::int(7)],
        )])])
        .unwrap();
        assert_eq!(
            p.conflict_graph().to_graph().connected_components().len(),
            1
        );
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn resolving_update_empties_the_graph_like_a_fresh_build() {
        // Instance [[1,1],[1,2]] with A->B: one conflict edge (0,1). Fixing
        // t2[B] resolves it and leaves the graph empty.
        let schema = Schema::with_arity(2).unwrap();
        let inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
        let fds = FdSet::parse(&["A0->A1"], &schema).unwrap();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let effect = p
            .apply_mutations(&[MutationOp::UpdateCell(
                CellRef::new(1, AttrId(1)),
                Value::int(1),
            )])
            .unwrap();
        assert_eq!(effect.edges_removed, 1);
        assert!(p.conflict_graph().is_empty());
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    /// A run of updates is patched once, so its edge counts are net: the
    /// conflict the first update creates and the second one resolves is
    /// counted in neither.
    #[test]
    fn an_update_undone_in_the_same_run_counts_no_edges() {
        let schema = Schema::with_arity(2).unwrap();
        let inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 1]]).unwrap();
        let fds = FdSet::parse(&["A0->A1"], &schema).unwrap();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        let cell = CellRef::new(1, AttrId(1));
        let effect = p
            .apply_mutations(&[
                MutationOp::UpdateCell(cell, Value::int(2)),
                MutationOp::UpdateCell(cell, Value::int(1)),
            ])
            .unwrap();
        assert_eq!(effect.cells_updated, 2);
        assert_eq!((effect.edges_added, effect.edges_removed), (0, 0));
        assert!(p.conflict_graph().is_empty());
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn single_update_matches_fresh_build() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        p.apply_mutations(&[MutationOp::UpdateCell(
            CellRef::new(0, AttrId(1)),
            Value::int(2),
        )])
        .unwrap();
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }
}
