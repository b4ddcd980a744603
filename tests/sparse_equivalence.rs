//! The conflict-sized ≡ row-sized contract.
//!
//! Algorithm 4, the weighting `w(Y) = |Π_Y(I)|` and the search's conflict
//! graphs do work proportional to the conflicts, not to the instance's row
//! count. Each shortcut is pinned here against the whole-instance
//! computation it replaces:
//!
//! * the distinct-projection kernel against a `HashSet<CodeKey>` count,
//!   across nulls, floats, V-variables, wide (spilling) keys and stale
//!   dictionary entries left by mutations;
//! * covers of the conflict-row-indexed graphs against covers of the
//!   row-indexed graph, on the warehouse scenario (`RT_WAREHOUSE_ROWS`,
//!   default 10k), whose conflicts touch a small share of its rows;
//! * Algorithm 4's cross-unit check (only pairs containing a cover row)
//!   against a full conflict-graph rebuild, and its changed cells (only
//!   repaired rows diffed) against the full `Instance::diff`, in a 48-case
//!   seeded loop over multi-unit repairs;
//! * a constructed collision between two repair units, which must still
//!   take the sequential fallback.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::prelude::*;
use rt_constraints::DistinctCountWeight;
use rt_core::data_repair::{
    cover_rows_consistent, repair_data_with_cover, repair_data_with_cover_par,
};
use rt_graph::approx_vertex_cover_with;
use rt_relation::{Code, CodeKey};
use std::collections::HashSet;

const CASES: u64 = 48;

/// `|Π_attrs(I)|` the straightforward way: one hashed key per row.
fn reference_count(instance: &Instance, attrs: &[AttrId]) -> usize {
    let cols: Vec<&[Code]> = attrs.iter().map(|a| instance.codes(*a)).collect();
    (0..instance.len())
        .map(|row| CodeKey::from_cols(&cols, row))
        .collect::<HashSet<CodeKey>>()
        .len()
}

/// A random cell from a small mixed domain: nulls, ints, strings, floats.
fn random_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..5) {
        0 => Value::Null,
        1 => Value::int(rng.gen_range(0..4)),
        2 => Value::str(["a", "b", "c"][rng.gen_range(0..3)]),
        3 => Value::float([0.5, -0.0, 0.0, 2.25][rng.gen_range(0..4)]),
        _ => Value::int(rng.gen_range(0..2)),
    }
}

/// A random mixed-type instance with V-variables (some shared between
/// rows), then mutated so its dictionaries hold entries no row uses.
fn mutated_mixed_instance(rng: &mut StdRng, arity: usize) -> Instance {
    let schema = Schema::with_arity(arity).unwrap();
    let rows = rng.gen_range(20..80usize);
    let tuples: Vec<Tuple> = (0..rows)
        .map(|_| Tuple::new((0..arity).map(|_| random_value(rng)).collect()))
        .collect();
    let mut instance = Instance::from_tuples(schema, tuples).unwrap();
    for _ in 0..rng.gen_range(1..6) {
        let attr = AttrId(rng.gen_range(0..arity) as u16);
        let var = instance.fresh_var(attr);
        for _ in 0..rng.gen_range(1..3) {
            let row = rng.gen_range(0..instance.len());
            instance
                .set_cell(CellRef::new(row, attr), var.clone())
                .unwrap();
        }
    }
    // Stale entries: overwrite cells with values unique to the mutation,
    // then overwrite or delete some of them again.
    for i in 0..rng.gen_range(3..12) {
        let cell = CellRef::new(
            rng.gen_range(0..instance.len()),
            AttrId(rng.gen_range(0..arity) as u16),
        );
        instance
            .set_cell(cell, Value::str(format!("stale{i}")))
            .unwrap();
        if rng.gen_range(0..2) == 0 {
            instance.set_cell(cell, random_value(rng)).unwrap();
        }
    }
    let doomed: Vec<usize> = (0..rng.gen_range(1..5))
        .map(|_| rng.gen_range(0..instance.len()))
        .collect();
    instance.remove_rows(&doomed).unwrap();
    instance
}

#[test]
fn distinct_count_kernel_matches_hash_reference() {
    let arity = 7;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD15C_0000 + case);
        let instance = mutated_mixed_instance(&mut rng, arity);
        let stale: usize = (0..arity)
            .map(|a| {
                let attr = AttrId(a as u16);
                instance.dict(attr).len() - reference_count(&instance, &[attr])
            })
            .sum();
        assert!(stale > 0, "case {case}: mutations must leave stale entries");
        let weight = DistinctCountWeight::new(&instance);
        // Every attribute set with 1..=6 members (5 and 6 spill CodeKey).
        for bits in 1u64..(1 << arity) - 1 {
            let set = AttrSet::from_bits(bits);
            let attrs: Vec<AttrId> = set.iter().collect();
            let expected = reference_count(&instance, &attrs);
            assert_eq!(
                instance.distinct_projection_count(&attrs),
                expected,
                "case {case}, Y = {set}"
            );
            assert_eq!(
                weight.weight(set),
                expected as f64,
                "case {case}, Y = {set}"
            );
        }
        assert_eq!(instance.distinct_projection_count(&[]), 1);
    }
}

/// The warehouse scenario at `RT_WAREHOUSE_ROWS` rows (default 10k).
fn warehouse() -> Scenario {
    let rows: usize = std::env::var("RT_WAREHOUSE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    relative_trust::scenarios::build(
        "warehouse",
        &ScenarioConfig {
            seed: 17,
            rows: Some(rows),
        },
    )
    .expect("warehouse scenario builds")
}

#[test]
fn conflict_row_graphs_cover_like_row_indexed_graphs_on_warehouse() {
    let scenario = warehouse();
    let rows = scenario.dirty.len();
    let problem =
        RepairProblem::with_weight(&scenario.dirty, &scenario.dirty_fds, WeightKind::AttrCount);
    let root = RepairState::root(problem.fd_count());
    let mut states = vec![root.clone()];
    for child in root.children(problem.sigma(), problem.arity()) {
        states.extend(child.children(problem.sigma(), problem.arity()));
        states.push(child);
    }
    let mut nonempty = 0;
    for state in &states {
        let relaxed = problem.relaxed_fds(state);
        // The row-indexed graph: one adjacency slot per row of the instance.
        let mut row_indexed = UndirectedGraph::with_vertices(rows);
        for e in problem.conflict_graph().edges() {
            if e.violates_any(&relaxed) {
                row_indexed.add_edge(e.rows.0, e.rows.1);
            }
        }
        let compact = problem.violating_subgraph(state);
        assert!(
            2 * compact.rows().len() < rows,
            "{state}: conflicts touch {} of {rows} rows",
            compact.rows().len()
        );
        assert_eq!(
            compact.edges().collect::<Vec<_>>(),
            row_indexed.edges().collect::<Vec<_>>(),
            "{state}"
        );
        assert_eq!(
            compact.connected_components(),
            row_indexed.connected_components(),
            "{state}"
        );
        for par in [Parallelism::Serial, Parallelism::Fixed(2)] {
            assert_eq!(
                problem.cover_for_with(state, par),
                approx_vertex_cover_with(&row_indexed, par),
                "{state}, {par:?}"
            );
        }
        nonempty += usize::from(!compact.is_empty());
    }
    assert!(nonempty > 0, "some state must leave conflicts");

    // Algorithm 4 on the whole scenario: the cover-row diff and check agree
    // with their whole-instance counterparts.
    let fds = &scenario.dirty_fds;
    let cover: Vec<usize> = problem.cover_for(&root).iter().collect();
    let out = repair_data_with_cover_par(&scenario.dirty, fds, &cover, 17, Parallelism::Fixed(2));
    assert!(!out.changed_cells.is_empty());
    assert_eq!(
        out.changed_cells,
        scenario.dirty.diff(&out.repaired).unwrap().changed_cells
    );
    assert!(ConflictGraph::build(&out.repaired, fds).is_empty());
    assert!(cover_rows_consistent(&out.repaired, fds, &cover));
}

/// A random instance over small domains (so conflict components are
/// several and small), with a few nulls and V-variables.
fn random_instance(rng: &mut StdRng) -> Instance {
    let arity = rng.gen_range(4..7usize);
    let rows = rng.gen_range(16..40usize);
    let domain = rng.gen_range(5..9i64);
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..domain)).collect())
        .collect();
    let mut instance = Instance::from_int_rows(Schema::with_arity(arity).unwrap(), &data).unwrap();
    for _ in 0..rng.gen_range(0..4) {
        let cell = CellRef::new(
            rng.gen_range(0..rows),
            AttrId(rng.gen_range(0..arity) as u16),
        );
        let value = if rng.gen_range(0..2) == 0 {
            Value::Null
        } else {
            instance.fresh_var(cell.attr)
        };
        instance.set_cell(cell, value).unwrap();
    }
    instance
}

/// Two or three FDs with 1–2 LHS attributes, sharing attributes often.
fn random_fds(rng: &mut StdRng, arity: usize) -> FdSet {
    let mut fds = FdSet::new();
    for _ in 0..rng.gen_range(2..4) {
        let rhs = rng.gen_range(0..arity);
        let lhs_size = rng.gen_range(1..3usize);
        let mut lhs = AttrSet::new();
        while lhs.len() < lhs_size {
            let a = rng.gen_range(0..arity);
            if a != rhs {
                lhs.insert(AttrId(a as u16));
            }
        }
        fds.push(Fd::new(lhs, AttrId(rhs as u16)));
    }
    fds
}

#[test]
fn cover_row_check_and_diff_match_full_rebuild() {
    let (mut consistent, mut violated) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA190_0000 + case);
        // Draw until the repair splits into at least two units.
        let (instance, fds, cover) = loop {
            let instance = random_instance(&mut rng);
            let fds = random_fds(&mut rng, instance.schema().arity());
            let graph = ConflictGraph::build(&instance, &fds).subgraph_for(&fds);
            if graph.connected_components().len() >= 2 {
                let cover: Vec<usize> = graph
                    .vertex_cover_with(Parallelism::Serial)
                    .iter()
                    .collect();
                break (instance, fds, cover);
            }
        };
        let out = repair_data_with_cover_par(&instance, &fds, &cover, case, Parallelism::Serial);
        let twin = repair_data_with_cover_par(&instance, &fds, &cover, case, Parallelism::Fixed(2));
        assert_eq!(out.repaired, twin.repaired, "case {case}");
        assert_eq!(out.changed_cells, twin.changed_cells, "case {case}");
        assert_eq!(
            out.changed_cells,
            instance.diff(&out.repaired).unwrap().changed_cells,
            "case {case}"
        );
        assert!(
            ConflictGraph::build(&out.repaired, &fds).is_empty(),
            "case {case}"
        );
        assert!(
            cover_rows_consistent(&out.repaired, &fds, &cover),
            "case {case}"
        );
        if out.sequential_fallback {
            let sequential = repair_data_with_cover(&instance, &fds, &cover, case);
            assert_eq!(out.repaired, sequential.repaired, "case {case}");
        }

        // Rewrite cover-row cells with values from other rows: the check
        // must flag exactly the instances a full rebuild finds violated.
        for _ in 0..8 {
            let mut perturbed = out.repaired.clone();
            for _ in 0..rng.gen_range(1..4) {
                let row = cover[rng.gen_range(0..cover.len())];
                let attr = AttrId(rng.gen_range(0..instance.schema().arity()) as u16);
                let donor = rng.gen_range(0..instance.len());
                let value = perturbed.cell(CellRef::new(donor, attr)).unwrap().clone();
                perturbed.set_cell(CellRef::new(row, attr), value).unwrap();
            }
            let expected = ConflictGraph::build(&perturbed, &fds).is_empty();
            assert_eq!(
                cover_rows_consistent(&perturbed, &fds, &cover),
                expected,
                "case {case}"
            );
            if expected {
                consistent += 1;
            } else {
                violated += 1;
            }
        }
    }
    assert!(consistent > 0 && violated > 0, "{consistent} / {violated}");
}

/// Two units that each copy the same clean value into a shared LHS:
/// `D → C` forces `C = 5` onto rows 0 and 1 (from clean rows 2 and 3),
/// after which the untouched `A = 1` makes them collide on `A,C → B`.
/// Neither unit sees the other, so only the cross-unit check catches it.
#[test]
fn two_unit_collision_takes_sequential_fallback() {
    let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
    let instance = Instance::from_int_rows(
        schema.clone(),
        &[
            vec![1, 10, 100, 1000],
            vec![1, 20, 200, 2000],
            vec![7, 70, 5, 1000],
            vec![8, 80, 5, 2000],
        ],
    )
    .unwrap();
    let fds = FdSet::parse(&["A,C->B", "D->C"], &schema).unwrap();
    let graph = ConflictGraph::build(&instance, &fds).subgraph_for(&fds);
    assert_eq!(graph.connected_components(), vec![vec![0, 2], vec![1, 3]]);
    let cover = [0, 1];
    let mut fallbacks = 0;
    for seed in 0..64 {
        let out = repair_data_with_cover_par(&instance, &fds, &cover, seed, Parallelism::Serial);
        assert!(
            ConflictGraph::build(&out.repaired, &fds).is_empty(),
            "seed {seed}"
        );
        if out.sequential_fallback {
            fallbacks += 1;
            let sequential = repair_data_with_cover(&instance, &fds, &cover, seed);
            assert_eq!(out.repaired, sequential.repaired, "seed {seed}");
            assert_eq!(out.changed_cells, sequential.changed_cells, "seed {seed}");
        }
    }
    assert!(fallbacks > 0, "no seed produced the collision");
}
