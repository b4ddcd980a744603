//! Seeded mutation-stream generation for incremental-engine benchmarks.
//!
//! The incremental mutation layer (`rt_core::mutation`, surfaced as the
//! engine's `MutationBatch`) needs realistic, *reproducible* workloads:
//! streams of inserts, deletes, cell updates and FD edits that sometimes
//! create conflicts (values drawn from the live column domains collide with
//! existing LHS classes) and sometimes do not (fresh values). Everything is
//! deterministic given a seed, so benchmark counters and the
//! incremental ≡ rebuild property tests are stable across runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_constraints::{AttrSet, Fd, FdSet};
use rt_core::MutationOp;
use rt_relation::{AttrId, CellRef, Instance, Tuple, Value};

/// Shape of a generated mutation stream.
///
/// The per-kind weights need not sum to anything; each op kind is drawn
/// with probability proportional to its weight. Kinds whose preconditions
/// cannot be met at some point of the stream (deleting from an empty
/// instance, removing the last FD) fall back to an insert.
#[derive(Debug, Clone)]
pub struct MutationStreamConfig {
    /// Number of ops to generate.
    pub ops: usize,
    /// Relative weight of tuple-insert ops.
    pub insert_weight: u32,
    /// Relative weight of tuple-delete ops.
    pub delete_weight: u32,
    /// Relative weight of cell-update ops.
    pub update_weight: u32,
    /// Relative weight of FD edits (alternating add / remove).
    pub fd_edit_weight: u32,
    /// Maximum tuples per insert op (at least 1).
    pub max_insert_batch: usize,
    /// Maximum rows per delete op (at least 1).
    pub max_delete_batch: usize,
    /// Probability that a generated cell value is a *fresh* constant never
    /// seen in the column (no conflicts possible through it), rather than a
    /// draw from the column's existing domain.
    pub fresh_value_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MutationStreamConfig {
    fn default() -> Self {
        MutationStreamConfig {
            ops: 20,
            insert_weight: 4,
            delete_weight: 2,
            update_weight: 6,
            fd_edit_weight: 1,
            max_insert_batch: 3,
            max_delete_batch: 2,
            fresh_value_rate: 0.25,
            seed: 0xBEEF,
        }
    }
}

/// Generates a mutation stream valid against `(instance, fds)` when the ops
/// are applied *in order* (each op sees the row/FD counts the previous ones
/// left behind — the same sequencing `MutationBatch` validates).
pub fn generate_mutation_stream(
    instance: &Instance,
    fds: &FdSet,
    config: &MutationStreamConfig,
) -> Vec<MutationOp> {
    let arity = instance.schema().arity();
    assert!(arity > 0, "cannot mutate a zero-attribute schema");
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Column domains of the *initial* instance: the pool realistic values
    // are drawn from. Fresh values use a counter far outside any domain.
    let mut domains: Vec<Vec<Value>> = (0..arity)
        .map(|a| {
            let attr = AttrId(a as u16);
            let dict = instance.dict(attr);
            let mut values: Vec<Value> = Vec::new();
            for &code in instance.codes(attr) {
                let v = dict.value(code);
                if v.is_constant() && !values.contains(v) {
                    values.push(v.clone());
                }
            }
            if values.is_empty() {
                values.push(Value::int(0));
            }
            values
        })
        .collect();
    let mut fresh_counter: i64 = 1_000_000;

    // Simulated state the ops must stay valid against.
    let mut rows = instance.len();
    let mut fd_count = fds.len();
    let mut add_next_fd = true;

    let weights = [
        config.insert_weight,
        config.delete_weight,
        config.update_weight,
        config.fd_edit_weight,
    ];
    let total: u32 = weights.iter().sum::<u32>().max(1);

    let mut draw_value = |rng: &mut StdRng, domains: &mut Vec<Vec<Value>>, attr: usize| -> Value {
        if rng.gen_range(0.0..1.0) < config.fresh_value_rate {
            fresh_counter += 1;
            let v = Value::int(fresh_counter);
            domains[attr].push(v.clone());
            v
        } else {
            let pool = &domains[attr];
            pool[rng.gen_range(0..pool.len())].clone()
        }
    };

    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        let mut pick = rng.gen_range(0..total);
        let mut kind = 0usize;
        for (k, w) in weights.iter().enumerate() {
            if pick < *w {
                kind = k;
                break;
            }
            pick -= w;
            kind = k + 1;
        }
        // Fall back to an insert when the drawn kind is impossible now:
        // nothing to delete/update, no FD to remove but the last one, or —
        // for FD adds — an arity-1 schema, where no non-trivial FD exists.
        if (kind == 1 || kind == 2) && rows == 0 {
            kind = 0;
        }
        if kind == 3 && ((add_next_fd && arity < 2) || (!add_next_fd && fd_count <= 1)) {
            kind = 0;
        }
        match kind {
            0 => {
                let batch = rng.gen_range(1..config.max_insert_batch.max(1) + 1);
                let tuples: Vec<Tuple> = (0..batch)
                    .map(|_| {
                        Tuple::new(
                            (0..arity)
                                .map(|a| draw_value(&mut rng, &mut domains, a))
                                .collect(),
                        )
                    })
                    .collect();
                rows += tuples.len();
                ops.push(MutationOp::InsertTuples(tuples));
            }
            1 => {
                let batch = rng
                    .gen_range(1..config.max_delete_batch.max(1) + 1)
                    .min(rows);
                let mut doomed = Vec::with_capacity(batch);
                while doomed.len() < batch {
                    let r = rng.gen_range(0..rows);
                    if !doomed.contains(&r) {
                        doomed.push(r);
                    }
                }
                rows -= doomed.len();
                ops.push(MutationOp::DeleteTuples(doomed));
            }
            2 => {
                let row = rng.gen_range(0..rows);
                let attr = rng.gen_range(0..arity);
                let value = draw_value(&mut rng, &mut domains, attr);
                ops.push(MutationOp::UpdateCell(
                    CellRef::new(row, AttrId(attr as u16)),
                    value,
                ));
            }
            _ => {
                if add_next_fd {
                    let rhs = rng.gen_range(0..arity);
                    let lhs_size = rng.gen_range(1..3usize.min(arity.max(2)));
                    let mut lhs = AttrSet::new();
                    while lhs.len() < lhs_size {
                        let a = rng.gen_range(0..arity);
                        if a != rhs {
                            lhs.insert(AttrId(a as u16));
                        }
                    }
                    fd_count += 1;
                    ops.push(MutationOp::AddFd(Fd::new(lhs, AttrId(rhs as u16))));
                } else {
                    let idx = rng.gen_range(0..fd_count);
                    fd_count -= 1;
                    ops.push(MutationOp::RemoveFd(idx));
                }
                add_next_fd = !add_next_fd;
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::Schema;

    fn base() -> (Instance, FdSet) {
        let schema = Schema::new("R", vec!["A", "B", "C"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[vec![1, 1, 1], vec![1, 2, 1], vec![2, 2, 3], vec![3, 1, 3]],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
        (inst, fds)
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let (inst, fds) = base();
        let config = MutationStreamConfig::default();
        let a = generate_mutation_stream(&inst, &fds, &config);
        let b = generate_mutation_stream(&inst, &fds, &config);
        assert_eq!(a, b);
        let other = generate_mutation_stream(
            &inst,
            &fds,
            &MutationStreamConfig {
                seed: 1,
                ..config.clone()
            },
        );
        assert_ne!(a, other);
        assert_eq!(a.len(), config.ops);
    }

    #[test]
    fn streams_apply_cleanly_to_the_problem() {
        use rt_core::{RepairProblem, WeightKind};
        let (inst, fds) = base();
        for seed in 0..8 {
            let config = MutationStreamConfig {
                ops: 15,
                seed,
                ..Default::default()
            };
            let ops = generate_mutation_stream(&inst, &fds, &config);
            let mut problem = RepairProblem::with_weight(&inst, &fds, WeightKind::AttrCount);
            problem
                .apply_mutations(&ops)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // The maintained graph matches a fresh build on the mutated
            // inputs.
            let fresh = RepairProblem::with_weight(
                problem.instance(),
                problem.sigma(),
                WeightKind::AttrCount,
            );
            assert_eq!(problem.conflict_graph(), fresh.conflict_graph());
        }
    }

    #[test]
    fn arity_one_schemas_generate_without_hanging() {
        // A single-attribute schema admits no non-trivial FD, so FD-add
        // draws must fall back to inserts instead of spinning forever.
        let schema = Schema::new("R", vec!["A"]).unwrap();
        let inst = Instance::from_int_rows(schema, &[vec![1], vec![1], vec![2]]).unwrap();
        let fds = FdSet::from_fds(vec![]);
        let ops = generate_mutation_stream(
            &inst,
            &fds,
            &MutationStreamConfig {
                ops: 30,
                fd_edit_weight: 10,
                seed: 9,
                ..Default::default()
            },
        );
        assert_eq!(ops.len(), 30);
        assert!(ops
            .iter()
            .all(|op| !matches!(op, MutationOp::AddFd(_) | MutationOp::RemoveFd(_))));
    }

    #[test]
    fn delete_heavy_streams_never_underflow() {
        let (inst, fds) = base();
        let config = MutationStreamConfig {
            ops: 40,
            insert_weight: 1,
            delete_weight: 10,
            update_weight: 1,
            fd_edit_weight: 0,
            max_delete_batch: 3,
            seed: 5,
            ..Default::default()
        };
        let ops = generate_mutation_stream(&inst, &fds, &config);
        // Replay the simulated row count: it must never go negative and
        // every op must be valid at its point in the stream.
        let mut rows = inst.len();
        for op in &ops {
            match op {
                MutationOp::InsertTuples(t) => rows += t.len(),
                MutationOp::DeleteTuples(d) => {
                    assert!(d.iter().all(|&r| r < rows));
                    rows -= d.len();
                }
                MutationOp::UpdateCell(c, _) => assert!(c.row < rows),
                _ => {}
            }
        }
    }
}
