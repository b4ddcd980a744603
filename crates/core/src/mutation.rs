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
//! * the per-FD LHS equivalence partitions
//!   ([`rt_constraints::FdPartitionIndex`], built lazily on the first
//!   mutation) move the touched rows between classes;
//! * the conflict graph is patched edge-level via
//!   [`rt_constraints::ConflictGraph::apply_delta`] /
//!   [`ConflictGraph::retract_tuples`](rt_constraints::ConflictGraph::retract_tuples),
//!   touching only the affected components;
//! * the difference-set groups, `α` and (for built-in weightings) the
//!   weighting function are refreshed from the patched state.
//!
//! The contract, mirrored by the workspace's incremental test suite: after
//! any mutation sequence, the problem is bit-identical — same conflict
//! graph, same repairs, same spectrum — to a [`RepairProblem`] freshly built
//! on the mutated `(I, Σ)`.

use crate::problem::RepairProblem;
use rt_constraints::{incident_conflict_edges, Fd, FdPartitionIndex};
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
/// through [`Telemetry::absorb`]; the three flags are sticky.
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
    /// Conflict edges whose labels or difference set changed in place.
    pub edges_relabeled: usize,
    /// Connected components of the conflict graph the mutation touched.
    pub components_dirtied: usize,
    /// `true` when the weighting function was rebuilt against the mutated
    /// instance (built-in weightings after a data change).
    pub weight_refreshed: bool,
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
            ("components_dirtied", Slot::Count(&mut self.components_dirtied)),
            ("weight_refreshed", Slot::Flag(&mut self.weight_refreshed)),
            ("search_state_invalidated", Slot::Flag(&mut self.search_state_invalidated)),
            ("diff_groups_changed", Slot::Flag(&mut self.diff_groups_changed)),
        ]
    }
}

impl RepairProblem {
    /// The lazily built partition index (one linear pass on first use).
    fn index(&mut self) -> &mut FdPartitionIndex {
        if self.incremental.is_none() {
            self.incremental = Some(FdPartitionIndex::build(&self.instance, &self.sigma));
        }
        self.incremental.as_mut().expect("index was just built")
    }

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
        for op in ops {
            self.apply_one(op, &mut effect)?;
        }
        self.alpha = Self::compute_alpha(self.instance.schema().arity(), self.sigma.len());
        self.diff_groups = Self::group_by_difference_set(&self.conflict);

        let data_changed = effect.rows_inserted + effect.rows_deleted + effect.cells_updated > 0;
        let mut weight_changed = false;
        if data_changed {
            let old_fp = self.weight.fingerprint();
            self.weight = Self::build_weight(&self.instance, self.weight_kind);
            let new_fp = self.weight.fingerprint();
            weight_changed = !(old_fp.is_some() && old_fp == new_fp);
            effect.weight_refreshed = true;
        }
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

    fn apply_one(&mut self, op: &MutationOp, effect: &mut MutationEffect) -> Result<(), String> {
        match op {
            MutationOp::InsertTuples(rows) => self.insert_tuples_inner(rows, effect),
            MutationOp::DeleteTuples(rows) => self.delete_tuples_inner(rows, effect),
            MutationOp::UpdateCell(cell, value) => self.update_cell_inner(*cell, value, effect),
            MutationOp::AddFd(fd) => self.add_fd_inner(*fd, effect),
            MutationOp::RemoveFd(idx) => self.remove_fd_inner(*idx, effect),
        }
    }

    fn insert_tuples_inner(
        &mut self,
        rows: &[Tuple],
        effect: &mut MutationEffect,
    ) -> Result<(), String> {
        if rows.is_empty() {
            return Ok(());
        }
        let start = self.instance.len();
        for tuple in rows {
            self.instance
                .push(tuple.clone())
                .map_err(|e| e.to_string())?;
        }
        let dirty: Vec<usize> = (start..self.instance.len()).collect();
        self.index();
        let index = self.incremental.as_mut().expect("index built above");
        for &row in &dirty {
            index.insert_row(&self.instance, &self.sigma, row);
        }
        let recomputed = incident_conflict_edges(&self.instance, &self.sigma, index, &dirty);
        // Pre-patch count included, seeded with the *existing* rows the new
        // edges attach to: a new row bridging two old components merges
        // them in the post graph, but both count as dirtied.
        let partners: Vec<usize> = {
            let mut rows: Vec<usize> = recomputed
                .iter()
                .flat_map(|e| [e.rows.0, e.rows.1])
                .filter(|&r| r < start)
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        let before = self.conflict.to_graph().components_touching(&partners);
        let summary = self
            .conflict
            .apply_delta(&dirty, recomputed, self.instance.len());
        effect.absorb(&summary);
        effect.rows_inserted += dirty.len();
        let after = self.conflict.to_graph().components_touching(&dirty);
        effect.components_dirtied += before.max(after);
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
        // Surviving endpoints of dying edges, for the dirtied-component
        // count (their ids after compaction).
        let neighbors: Vec<usize> = {
            let is_doomed = |r: usize| doomed.binary_search(&r).is_ok();
            let mut n: Vec<usize> = self
                .conflict
                .edges()
                .iter()
                .filter(|e| is_doomed(e.rows.0) || is_doomed(e.rows.1))
                .flat_map(|e| [e.rows.0, e.rows.1])
                .filter(|&r| !is_doomed(r))
                .map(|r| r - doomed.partition_point(|&d| d < r))
                .collect();
            n.sort_unstable();
            n.dedup();
            n
        };
        self.index();
        let index = self.incremental.as_mut().expect("index built above");
        for &row in &doomed {
            index.remove_row(&self.instance, &self.sigma, row);
        }
        // Count components on both sides of the patch: the pre-graph run
        // (seeded with the doomed rows) sees components the deletion empties
        // outright; the post-graph run (seeded with the surviving
        // neighbours) sees the remnants, including a component the deletion
        // split in two.
        let before = self.conflict.to_graph().components_touching(&doomed);
        effect.edges_removed += self.conflict.retract_tuples(&doomed);
        self.instance
            .remove_rows(&doomed)
            .map_err(|e| e.to_string())?;
        self.incremental
            .as_mut()
            .expect("index built above")
            .shift_after_removal(&doomed);
        effect.rows_deleted += doomed.len();
        let after = self.conflict.to_graph().components_touching(&neighbors);
        effect.components_dirtied += before.max(after);
        Ok(())
    }

    fn update_cell_inner(
        &mut self,
        cell: CellRef,
        value: &Value,
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
        self.index();
        let index = self.incremental.as_mut().expect("index built above");
        index.remove_row(&self.instance, &self.sigma, cell.row);
        self.instance
            .set_cell(cell, value.clone())
            .map_err(|e| e.to_string())?;
        let index = self.incremental.as_mut().expect("index built above");
        index.insert_row(&self.instance, &self.sigma, cell.row);
        let recomputed = incident_conflict_edges(&self.instance, &self.sigma, index, &[cell.row]);
        // Pre-patch count included: an update that *resolves* the row's
        // conflicts leaves it isolated afterwards, but it still dirtied the
        // component it used to sit in.
        let before = self.conflict.to_graph().components_touching(&[cell.row]);
        let summary = self
            .conflict
            .apply_delta(&[cell.row], recomputed, self.instance.len());
        effect.absorb(&summary);
        effect.cells_updated += 1;
        let after = self.conflict.to_graph().components_touching(&[cell.row]);
        effect.components_dirtied += before.max(after);
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
        if let Some(index) = self.incremental.as_mut() {
            index.push_fd(&self.instance, &self.sigma);
        }
        let fd_idx = self.sigma.len() - 1;
        let before_graph = self.conflict.to_graph();
        let summary = self
            .conflict
            .integrate_fd(&self.instance, &self.sigma, fd_idx);
        effect.absorb(&summary);
        effect.fds_added += 1;
        let dirty: Vec<usize> = {
            let mut rows: Vec<usize> = self
                .conflict
                .edges()
                .iter()
                .filter(|e| e.violated_fds.binary_search(&fd_idx).is_ok())
                .flat_map(|e| [e.rows.0, e.rows.1])
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        // Pre-patch count included: a new FD's edges can merge several old
        // components into one, and each of those counts as dirtied.
        let before = before_graph.components_touching(&dirty);
        let after = self.conflict.to_graph().components_touching(&dirty);
        effect.components_dirtied += before.max(after);
        Ok(())
    }

    fn remove_fd_inner(&mut self, idx: usize, effect: &mut MutationEffect) -> Result<(), String> {
        if idx >= self.sigma.len() {
            return Err(format!(
                "cannot remove FD #{idx}: Σ has {} FDs",
                self.sigma.len()
            ));
        }
        let dirty: Vec<usize> = {
            let mut rows: Vec<usize> = self
                .conflict
                .edges()
                .iter()
                .filter(|e| e.violated_fds.binary_search(&idx).is_ok())
                .flat_map(|e| [e.rows.0, e.rows.1])
                .collect();
            rows.sort_unstable();
            rows.dedup();
            rows
        };
        self.sigma.remove(idx);
        if let Some(index) = self.incremental.as_mut() {
            index.remove_fd(idx);
        }
        // Pre-patch count included: components carried entirely by this
        // FD's edges vanish from the post graph but were still dirtied.
        let before = self.conflict.to_graph().components_touching(&dirty);
        let summary = self.conflict.remove_fd_labels(idx);
        effect.absorb(&summary);
        effect.fds_removed += 1;
        let after = self.conflict.to_graph().components_touching(&dirty);
        effect.components_dirtied += before.max(after);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::WeightKind;
    use rt_constraints::FdSet;
    use rt_relation::{AttrId, Instance, Schema};

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
        assert_eq!(effect.components_dirtied, 0);
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
        assert!(effect.weight_refreshed);
        assert!(effect.search_state_invalidated);
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
    fn bridging_insert_counts_both_merged_components() {
        // Components before: {0,1} (conflict on A->B) and {2,3} (conflict
        // on C->D). The inserted row conflicts into both, merging them —
        // the merge dirtied two components, not the one that remains.
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
        let effect = p
            .apply_mutations(&[MutationOp::InsertTuples(vec![rt_relation::Tuple::new(
                vec![Value::int(1), Value::int(3), Value::int(3), Value::int(7)],
            )])])
            .unwrap();
        assert_eq!(effect.components_dirtied, 2);
        assert_eq!(
            p.conflict_graph().to_graph().connected_components().len(),
            1
        );
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn resolving_a_conflict_still_counts_the_dirtied_component() {
        // Instance [[1,1],[1,2]] with A->B: one conflict edge (0,1). Fixing
        // t2[B] resolves it — the post graph is empty, but the mutation
        // dirtied the component that used to exist.
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
        assert_eq!(effect.components_dirtied, 1);
        assert!(p.conflict_graph().is_empty());
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }

    #[test]
    fn update_dirties_only_touched_components() {
        let (inst, fds) = figure2();
        let mut p = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
        // Figure 2's conflict graph is one path 0-1-2-3: a single component.
        let effect = p
            .apply_mutations(&[MutationOp::UpdateCell(
                CellRef::new(0, AttrId(1)),
                Value::int(2),
            )])
            .unwrap();
        assert_eq!(effect.components_dirtied, 1);
        assert_matches_fresh(&p, WeightKind::AttrCount);
    }
}
