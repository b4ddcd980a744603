//! Controlled perturbation of data and FDs (Section 8.1 of the paper).
//!
//! Starting from a clean instance `I_c` and its FDs `Σ_c`, the experiments
//! build the *dirty* inputs handed to the repair algorithms:
//!
//! * **FD perturbation** removes a fraction (`fd_error_rate`) of the LHS
//!   attributes of each FD, yielding `Σ_d`. The removed attributes are the
//!   ground truth the FD repair should re-append.
//! * **Data perturbation** modifies a fraction (`data_error_rate`) of the
//!   cells such that every modification introduces an FD violation, using
//!   the paper's two mechanisms:
//!   - *right-hand-side violations*: pick two tuples agreeing on `X ∪ {A}`
//!     for some FD `X → A ∈ Σ_c` and change one of their `A` values;
//!   - *left-hand-side violations*: pick two tuples that agree on
//!     `X \ {B}`, disagree on `B ∈ X` and on `A`, and overwrite `t_i[B]`
//!     with `t_j[B]` so the pair now violates `X → A`.
//!
//! The result is a [`GroundTruth`] bundling everything the metrics need.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rt_constraints::{AttrSet, Fd, FdSet};
use rt_relation::{AttrId, CellRef, Code, Instance, Value};
use std::collections::HashMap;

/// Perturbation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PerturbConfig {
    /// Fraction of cells to modify (each modification introduces an FD
    /// violation).
    pub data_error_rate: f64,
    /// Fraction of LHS attributes removed from each FD.
    pub fd_error_rate: f64,
    /// Fraction of injected violations that are right-hand-side violations
    /// (the rest are left-hand-side violations).
    pub rhs_violation_fraction: f64,
    /// Random seed.
    pub seed: u64,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig {
            data_error_rate: 0.05,
            fd_error_rate: 0.3,
            rhs_violation_fraction: 0.5,
            seed: 0xDECAF,
        }
    }
}

/// Everything the evaluation metrics need to score a repair.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The clean instance `I_c`.
    pub clean: Instance,
    /// The dirty instance `I_d` handed to the repair algorithms.
    pub dirty: Instance,
    /// The clean FDs `Σ_c`.
    pub sigma_clean: FdSet,
    /// The perturbed FDs `Σ_d` handed to the repair algorithms.
    pub sigma_dirty: FdSet,
    /// Per FD (positionally aligned with `sigma_dirty`): the attributes that
    /// were removed from the clean LHS — what a perfect FD repair would
    /// re-append.
    pub removed_lhs_attrs: Vec<AttrSet>,
    /// Cells whose value differs between `I_c` and `I_d`.
    pub perturbed_cells: Vec<CellRef>,
}

impl GroundTruth {
    /// Number of injected erroneous cells.
    pub fn error_count(&self) -> usize {
        self.perturbed_cells.len()
    }

    /// Total number of LHS attributes removed while building `Σ_d`.
    pub fn removed_attr_count(&self) -> usize {
        self.removed_lhs_attrs.iter().map(|s| s.len()).sum()
    }
}

/// Applies FD and data perturbation to a clean instance.
pub fn perturb(clean: &Instance, sigma_clean: &FdSet, config: &PerturbConfig) -> GroundTruth {
    let mut rng = StdRng::seed_from_u64(config.seed);

    // --- FD perturbation -------------------------------------------------
    let mut dirty_fds = Vec::with_capacity(sigma_clean.len());
    let mut removed_per_fd = Vec::with_capacity(sigma_clean.len());
    for (_, fd) in sigma_clean.iter() {
        let lhs: Vec<AttrId> = fd.lhs.iter().collect();
        let remove_count =
            ((lhs.len() as f64) * config.fd_error_rate.clamp(0.0, 1.0)).round() as usize;
        // Never remove every attribute: Σ_d FDs keep at least one LHS column
        // unless the clean FD already had an empty LHS.
        let remove_count = remove_count.min(lhs.len().saturating_sub(1));
        let mut shuffled = lhs.clone();
        shuffled.shuffle(&mut rng);
        let removed: AttrSet = shuffled.iter().take(remove_count).copied().collect();
        let new_lhs = fd.lhs.difference(removed);
        dirty_fds.push(Fd::new(new_lhs, fd.rhs));
        removed_per_fd.push(removed);
    }
    let sigma_dirty = FdSet::from_fds(dirty_fds);

    // --- Data perturbation ------------------------------------------------
    let mut dirty = clean.clone();
    let total_cells = clean.cell_count();
    let target_errors =
        ((total_cells as f64) * config.data_error_rate.clamp(0.0, 1.0)).round() as usize;
    let mut perturbed_cells: Vec<CellRef> = Vec::with_capacity(target_errors);

    if target_errors > 0 && !sigma_clean.is_empty() && clean.len() >= 2 {
        // Index tuples by their X∪{A} projection (for RHS violations) and by
        // X\{B} projections (for LHS violations), per FD.
        let mut attempts = 0usize;
        let max_attempts = target_errors * 50 + 100;
        while perturbed_cells.len() < target_errors && attempts < max_attempts {
            attempts += 1;
            let fd_idx = rng.gen_range(0..sigma_clean.len());
            let fd = sigma_clean.get(fd_idx);
            let make_rhs_violation =
                rng.gen_range(0.0..1.0) < config.rhs_violation_fraction.clamp(0.0, 1.0);
            let injected = if make_rhs_violation {
                inject_rhs_violation(&mut dirty, clean, fd, &mut rng)
            } else {
                inject_lhs_violation(&mut dirty, clean, fd, &mut rng)
            };
            if let Some(cell) = injected {
                if !perturbed_cells.contains(&cell) {
                    perturbed_cells.push(cell);
                }
            }
        }
    }

    GroundTruth {
        clean: clean.clone(),
        dirty,
        sigma_clean: sigma_clean.clone(),
        sigma_dirty,
        removed_lhs_attrs: removed_per_fd,
        perturbed_cells,
    }
}

/// Picks a group of tuples agreeing on `X ∪ {A}` and corrupts the RHS of one
/// of them. Returns the modified cell on success.
fn inject_rhs_violation(
    dirty: &mut Instance,
    clean: &Instance,
    fd: &Fd,
    rng: &mut StdRng,
) -> Option<CellRef> {
    let key_attrs: Vec<AttrId> = fd.lhs.with(fd.rhs).iter().collect();
    let mut groups: HashMap<Vec<Code>, Vec<usize>> = HashMap::new();
    for row in 0..dirty.len() {
        let key: Vec<Code> = key_attrs.iter().map(|&a| dirty.code_at(row, a)).collect();
        groups.entry(key).or_default().push(row);
    }
    let mut candidates: Vec<&Vec<usize>> = groups.values().filter(|g| g.len() >= 2).collect();
    if candidates.is_empty() {
        return None;
    }
    // HashMap iteration order is nondeterministic; sort so a fixed seed
    // always produces the same perturbation.
    candidates.sort_by_key(|g| g[0]);
    let group = candidates[rng.gen_range(0..candidates.len())];
    let &victim = group.choose(rng).expect("group has at least two rows");
    let cell = CellRef::new(victim, fd.rhs);
    // Only corrupt cells that are still clean, so the error count is exact.
    if dirty.cell(cell).ok()? != clean.cell(cell).ok()? {
        return None;
    }
    let new_value = corrupted_value(dirty.cell(cell).ok()?, rng);
    dirty.set_cell(cell, new_value).ok()?;
    Some(cell)
}

/// Picks two tuples agreeing on `X \ {B}` but differing on `B` and on `A`,
/// then overwrites `t_i[B]` with `t_j[B]`. Returns the modified cell.
fn inject_lhs_violation(
    dirty: &mut Instance,
    clean: &Instance,
    fd: &Fd,
    rng: &mut StdRng,
) -> Option<CellRef> {
    let lhs: Vec<AttrId> = fd.lhs.iter().collect();
    if lhs.is_empty() {
        return None;
    }
    let b = *lhs.choose(rng).expect("non-empty lhs");
    let key_attrs: Vec<AttrId> = lhs.iter().copied().filter(|a| *a != b).collect();
    let mut groups: HashMap<Vec<Code>, Vec<usize>> = HashMap::new();
    for row in 0..dirty.len() {
        let key: Vec<Code> = key_attrs.iter().map(|&a| dirty.code_at(row, a)).collect();
        groups.entry(key).or_default().push(row);
    }
    let mut group_list: Vec<&Vec<usize>> = groups.values().filter(|g| g.len() >= 2).collect();
    // Sort before shuffling so a fixed seed always yields the same order
    // (HashMap iteration order is nondeterministic).
    group_list.sort_by_key(|g| g[0]);
    group_list.shuffle(rng);
    for group in group_list.into_iter().take(20) {
        // Look for a pair differing on B and on the RHS.
        for (i, &ti) in group.iter().enumerate() {
            for &tj in group.iter().skip(i + 1) {
                let differ = |a: AttrId| dirty.code_at(ti, a) != dirty.code_at(tj, a);
                if differ(b) && differ(fd.rhs) {
                    let cell = CellRef::new(ti, b);
                    if dirty.cell(cell).ok()? != clean.cell(cell).ok()? {
                        continue;
                    }
                    let new_value = dirty.cell(CellRef::new(tj, b)).ok()?.clone();
                    dirty.set_cell(cell, new_value).ok()?;
                    return Some(cell);
                }
            }
        }
    }
    None
}

/// Produces a value different from `current` (integers get shifted into a
/// reserved "corrupted" range so collisions with legitimate categories are
/// impossible; other values get a marker suffix).
fn corrupted_value(current: &Value, rng: &mut StdRng) -> Value {
    match current {
        Value::Int(v) => Value::Int(1_000_000 + (v.abs() % 1000) * 7 + rng.gen_range(0..5)),
        Value::Float(x) => Value::float(1_000_000.5 + (x.get().abs() % 1000.0)),
        Value::Str(s) => Value::Str(format!("{s}_ERR{}", rng.gen_range(0..100))),
        Value::Null => Value::Int(1_000_000 + rng.gen_range(0..1000)),
        Value::Var(_) => Value::Int(1_000_000 + rng.gen_range(0..1000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_census_like, CensusLikeConfig};

    fn clean_workload() -> (Instance, FdSet) {
        generate_census_like(&CensusLikeConfig::single_fd(600, 10, 4))
    }

    #[test]
    fn fd_perturbation_removes_the_requested_fraction() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.5,
            data_error_rate: 0.0,
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        assert_eq!(truth.sigma_dirty.len(), fds.len());
        // Half of the 4 LHS attributes removed → 2 removed attributes.
        assert_eq!(truth.removed_attr_count(), 2);
        // Removed attributes really are gone from the dirty FD.
        let dirty_fd = truth.sigma_dirty.get(0);
        let clean_fd = fds.get(0);
        assert!(dirty_fd.lhs.is_subset_of(clean_fd.lhs));
        assert_eq!(dirty_fd.lhs.len(), 2);
        assert!(truth.removed_lhs_attrs[0].is_disjoint_from(dirty_fd.lhs));
        // No data errors requested → instances identical.
        assert_eq!(truth.error_count(), 0);
        assert_eq!(truth.clean, truth.dirty);
    }

    #[test]
    fn fd_perturbation_never_empties_a_lhs() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 1.0,
            data_error_rate: 0.0,
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        assert!(!truth.sigma_dirty.get(0).lhs.is_empty());
    }

    #[test]
    fn data_perturbation_injects_violations_of_the_clean_fds() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.0,
            data_error_rate: 0.01,
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        assert!(truth.error_count() > 0, "some errors must be injected");
        // Every perturbed cell really differs from the clean instance.
        for cell in &truth.perturbed_cells {
            assert_ne!(
                truth.clean.cell(*cell).unwrap(),
                truth.dirty.cell(*cell).unwrap()
            );
        }
        // The diff between clean and dirty is exactly the recorded cells.
        let diff = truth.clean.diff(&truth.dirty).unwrap();
        assert_eq!(diff.distance(), truth.error_count());
        // The clean FDs are now violated.
        assert!(!fds.holds_on(&truth.dirty));
        // The FDs themselves were not perturbed.
        assert_eq!(truth.sigma_dirty, fds);
    }

    #[test]
    fn error_count_tracks_the_requested_rate() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.0,
            data_error_rate: 0.005,
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        let requested = (clean.cell_count() as f64 * 0.005).round() as usize;
        // The injector may fall slightly short when it runs out of candidate
        // pairs, but should reach at least half of the requested errors and
        // never exceed them.
        assert!(truth.error_count() <= requested);
        assert!(
            truth.error_count() * 2 >= requested,
            "only {} of {requested} errors injected",
            truth.error_count()
        );
    }

    #[test]
    fn zero_rates_are_a_no_op() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.0,
            data_error_rate: 0.0,
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        assert_eq!(truth.clean, truth.dirty);
        assert_eq!(truth.sigma_clean, truth.sigma_dirty);
        assert_eq!(truth.error_count(), 0);
        assert_eq!(truth.removed_attr_count(), 0);
    }

    #[test]
    fn perturbation_is_deterministic_per_seed() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            data_error_rate: 0.01,
            fd_error_rate: 0.5,
            seed: 5,
            ..Default::default()
        };
        let a = perturb(&clean, &fds, &config);
        let b = perturb(&clean, &fds, &config);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.perturbed_cells, b.perturbed_cells);
        assert_eq!(a.removed_lhs_attrs, b.removed_lhs_attrs);
    }

    #[test]
    fn lhs_violations_affect_lhs_columns() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.0,
            data_error_rate: 0.005,
            rhs_violation_fraction: 0.0, // LHS violations only
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        let lhs = fds.get(0).lhs;
        for cell in &truth.perturbed_cells {
            assert!(
                lhs.contains(cell.attr),
                "LHS violation touched non-LHS column {}",
                cell.attr
            );
        }
        if truth.error_count() > 0 {
            assert!(!fds.holds_on(&truth.dirty));
        }
    }

    #[test]
    fn rhs_violations_affect_rhs_column_only() {
        let (clean, fds) = clean_workload();
        let config = PerturbConfig {
            fd_error_rate: 0.0,
            data_error_rate: 0.005,
            rhs_violation_fraction: 1.0, // RHS violations only
            ..Default::default()
        };
        let truth = perturb(&clean, &fds, &config);
        assert!(truth.error_count() > 0);
        for cell in &truth.perturbed_cells {
            assert_eq!(cell.attr, fds.get(0).rhs);
        }
    }
}
