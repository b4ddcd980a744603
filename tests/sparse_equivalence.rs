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
//!   take the sequential fallback;
//! * the hash-free grouping kernel (a radix sort of row ids by dictionary
//!   codes) against the `HashMap<CodeKey, Vec<usize>>` grouping it
//!   replaced, its binary-search lookups against a hashed clean index, and
//!   its consumers — `ShardPlan`, `StrippedPartition`, the conflict-graph
//!   build and `integrate_fd` — against hash-loop references kept here;
//! * per-shard graph builds over many 2-row shards of a column with a
//!   large code space, which must cost what the shards cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::prelude::*;
use rt_constraints::{DistinctCountWeight, StrippedPartition};
use rt_core::data_repair::{
    cover_rows_consistent, repair_data_with_cover, repair_data_with_cover_par,
};
use rt_core::ShardPlan;
use rt_graph::approx_vertex_cover_with;
use rt_relation::{
    code_range, code_runs, row_u32, sort_rows_by_codes, Code, CodeKey, CodeSpace, OVERLAY_CODE_BASE,
};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

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
    let rows = rng.gen_range(20..80usize);
    mutated_mixed_instance_of(rng, arity, rows)
}

/// [`mutated_mixed_instance`] with a given row count.
fn mutated_mixed_instance_of(rng: &mut StdRng, arity: usize, rows: usize) -> Instance {
    let schema = Schema::with_arity(arity).unwrap();
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

/// The grouping the kernel replaced: one hashed key per row, classes
/// ordered by first row, rows ascending within a class.
fn reference_groups(instance: &Instance, attrs: &[AttrId], rows: &[usize]) -> Vec<Vec<usize>> {
    let cols: Vec<&[Code]> = attrs.iter().map(|a| instance.codes(*a)).collect();
    let mut groups: HashMap<CodeKey, Vec<usize>> = HashMap::new();
    for &row in rows {
        groups
            .entry(CodeKey::from_cols(&cols, row))
            .or_default()
            .push(row);
    }
    let mut classes: Vec<Vec<usize>> = groups.into_values().collect();
    classes.sort_by_key(|c| c[0]);
    classes
}

/// The kernel's grouping of `rows` by `attrs`, classes ordered by first
/// row; also checks the sorted order itself (raw code tuple, then row).
fn kernel_groups(instance: &Instance, attrs: &[AttrId], rows: &[usize]) -> Vec<Vec<usize>> {
    let cols: Vec<(&[Code], CodeSpace)> = attrs.iter().map(|&a| instance.code_column(a)).collect();
    let codes: Vec<&[Code]> = cols.iter().map(|&(col, _)| col).collect();
    let mut sorted: Vec<u32> = rows.iter().map(|&r| row_u32(r)).collect();
    sort_rows_by_codes(&mut sorted, &cols);
    let key = |r: u32| -> Vec<Code> { codes.iter().map(|col| col[r as usize]).collect() };
    assert!(
        sorted
            .windows(2)
            .all(|w| (key(w[0]), w[0]) < (key(w[1]), w[1])),
        "rows not ordered by code tuple, then row"
    );
    let mut classes: Vec<Vec<usize>> = code_runs(&sorted, &codes)
        .map(|run| run.iter().map(|&r| r as usize).collect())
        .collect();
    classes.sort_by_key(|c| c[0]);
    classes
}

/// A mutated mixed instance (see [`mutated_mixed_instance`]); every third
/// case is large enough for the radix path, with a wide-space int column
/// and a column of many distinct V-variables so sorts need several digits.
fn kernel_case(rng: &mut StdRng, case: u64, arity: usize) -> Instance {
    if !case.is_multiple_of(3) {
        return mutated_mixed_instance(rng, arity);
    }
    let rows = rng.gen_range(600..3000usize);
    let mut instance = mutated_mixed_instance_of(rng, arity, rows);
    for row in 0..instance.len() {
        let wide = Value::int(rng.gen_range(0..1_000_000));
        instance
            .set_cell(CellRef::new(row, AttrId(0)), wide)
            .unwrap();
        if rng.gen_range(0..2) == 0 {
            let var = instance.fresh_var(AttrId(1));
            instance
                .set_cell(CellRef::new(row, AttrId(1)), var)
                .unwrap();
        }
    }
    instance
}

/// A random attribute list of `len` distinct attributes, in random order.
fn random_attrs(rng: &mut StdRng, arity: usize, len: usize) -> Vec<AttrId> {
    let mut attrs: Vec<AttrId> = (0..arity as u16).map(AttrId).collect();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..i + 1));
    }
    attrs.truncate(len);
    attrs
}

#[test]
fn grouping_kernel_matches_hash_reference() {
    let arity = 7;
    let mut radix_cases = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6E0_0000 + case);
        let instance = kernel_case(&mut rng, case, arity);
        let all: Vec<usize> = (0..instance.len()).collect();
        let subset: Vec<usize> = all
            .iter()
            .copied()
            .filter(|_| rng.gen_range(0..3) != 0)
            .collect();
        radix_cases += usize::from(all.len() > 512);
        // |LHS| = 1..6: 5 and 6 spilled the old packed keys.
        for len in 1..=6 {
            let attrs = random_attrs(&mut rng, arity, len);
            for rows in [&all, &subset] {
                assert_eq!(
                    kernel_groups(&instance, &attrs, rows),
                    reference_groups(&instance, &attrs, rows),
                    "case {case}, attrs {attrs:?}, {} rows",
                    rows.len()
                );
            }
        }
    }
    assert!(
        radix_cases >= 10,
        "only {radix_cases} cases reached the radix path"
    );
}

#[test]
fn sorted_lookups_match_hashed_clean_index() {
    let arity = 7;
    let (mut hits, mut misses) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC1EA_0000 + case);
        let instance = kernel_case(&mut rng, case, arity);
        let len = rng.gen_range(1..5);
        let attrs = random_attrs(&mut rng, arity, len);
        let cols: Vec<(&[Code], CodeSpace)> =
            attrs.iter().map(|&a| instance.code_column(a)).collect();
        let codes: Vec<&[Code]> = cols.iter().map(|&(col, _)| col).collect();
        // The "clean" rows: a random subset, indexed the old way (the last
        // row inserted under a key wins) and the new way (sorted).
        let clean: Vec<u32> = (0..row_u32(instance.len()))
            .filter(|_| rng.gen_range(0..4) != 0)
            .collect();
        let mut hashed: HashMap<CodeKey, usize> = HashMap::new();
        let mut sizes: HashMap<CodeKey, usize> = HashMap::new();
        for &row in &clean {
            let key = CodeKey::from_cols(&codes, row as usize);
            *sizes.entry(key.clone()).or_default() += 1;
            hashed.insert(key, row as usize);
        }
        let mut sorted = clean.clone();
        sort_rows_by_codes(&mut sorted, &cols);

        // Probes: every row's own key (clean or not), recombined keys that
        // are mostly absent, and keys holding overlay codes.
        let mut probes: Vec<Vec<Code>> = (0..instance.len())
            .map(|row| codes.iter().map(|col| col[row]).collect())
            .collect();
        for _ in 0..200 {
            let mut probe: Vec<Code> = codes
                .iter()
                .map(|col| col[rng.gen_range(0..col.len())])
                .collect();
            if rng.gen_range(0..3) == 0 {
                let i = rng.gen_range(0..probe.len());
                probe[i] = OVERLAY_CODE_BASE + rng.gen_range(0..4);
            }
            probes.push(probe);
        }
        for probe in &probes {
            let run = code_range(&sorted, &codes, |i| probe[i]);
            let key = CodeKey::from_codes(probe.iter().copied());
            let expected = hashed.get(&key);
            assert_eq!(
                run.last().map(|&r| r as usize),
                expected.copied(),
                "case {case}, probe {probe:?}"
            );
            assert!(run.iter().all(|&r| codes
                .iter()
                .zip(probe)
                .all(|(col, &c)| col[r as usize] == c)));
            assert_eq!(
                run.len(),
                sizes.get(&key).copied().unwrap_or(0),
                "case {case}, probe {probe:?}"
            );
            if expected.is_some() {
                hits += 1;
            } else {
                misses += 1;
            }
        }
    }
    assert!(hits > 0 && misses > 0, "{hits} hits / {misses} misses");
}

/// An instance above the kernel's comparison-sort size, over domains wide
/// enough to keep the conflicts few, with nulls and V-variables (some
/// shared by two rows).
fn wide_instance(rng: &mut StdRng) -> Instance {
    let arity = 6;
    let rows = rng.gen_range(520..800usize);
    let data: Vec<Vec<i64>> = (0..rows)
        .map(|_| (0..arity).map(|_| rng.gen_range(0..40i64)).collect())
        .collect();
    let mut instance = Instance::from_int_rows(Schema::with_arity(arity).unwrap(), &data).unwrap();
    for _ in 0..rng.gen_range(10..30) {
        let attr = AttrId(rng.gen_range(0..arity) as u16);
        let value = if rng.gen_range(0..2) == 0 {
            Value::Null
        } else {
            instance.fresh_var(attr)
        };
        for _ in 0..rng.gen_range(1..3) {
            let row = rng.gen_range(0..rows);
            instance
                .set_cell(CellRef::new(row, attr), value.clone())
                .unwrap();
        }
    }
    instance
}

/// The shard plan the kernel replaced: first row per hashed LHS key,
/// union-find closure, singletons pooled, shards ordered by first row.
fn reference_shards(instance: &Instance, fds: &FdSet) -> Vec<Vec<usize>> {
    let n = instance.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (_, fd) in fds.iter() {
        let cols: Vec<&[Code]> = fd.lhs.iter().map(|a| instance.codes(a)).collect();
        let mut first: HashMap<CodeKey, usize> = HashMap::new();
        for row in 0..n {
            let head = *first.entry(CodeKey::from_cols(&cols, row)).or_insert(row);
            let (a, b) = (find(&mut parent, head), find(&mut parent, row));
            parent[a.max(b)] = a.min(b);
        }
    }
    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for row in 0..n {
        let root = find(&mut parent, row);
        groups.entry(root).or_default().push(row);
    }
    let mut shards: Vec<Vec<usize>> = Vec::new();
    let mut residual: Vec<usize> = Vec::new();
    for rows in groups.into_values() {
        if rows.len() >= 2 {
            shards.push(rows);
        } else {
            residual.extend(rows);
        }
    }
    if !residual.is_empty() {
        residual.sort_unstable();
        shards.push(residual);
    }
    shards.sort_by_key(|s| s[0]);
    shards
}

/// One FD's violating pairs the way blocking used to find them: hashed LHS
/// classes, hashed RHS sub-classes, every cross-sub-class pair.
fn reference_pairs(instance: &Instance, fd: &Fd) -> Vec<(usize, usize)> {
    let all: Vec<usize> = (0..instance.len()).collect();
    let rhs = instance.codes(fd.rhs);
    let mut pairs = Vec::new();
    for class in reference_groups(instance, &fd.lhs.to_vec(), &all) {
        for (i, &u) in class.iter().enumerate() {
            for &v in &class[i + 1..] {
                if rhs[u] != rhs[v] {
                    pairs.push((u, v));
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

#[test]
fn shard_plan_partitions_and_graph_blocking_match_hash_references() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A8D_0000 + case);
        let instance = if case.is_multiple_of(4) {
            wide_instance(&mut rng)
        } else {
            random_instance(&mut rng)
        };
        let arity = instance.schema().arity();
        let fds = random_fds(&mut rng, arity);

        let plan = ShardPlan::compute(&instance, &fds);
        assert_eq!(
            plan.shards(),
            reference_shards(&instance, &fds).as_slice(),
            "case {case}"
        );

        let all: Vec<usize> = (0..instance.len()).collect();
        for (_, fd) in fds.iter() {
            let expected: Vec<Vec<usize>> = reference_groups(&instance, &fd.lhs.to_vec(), &all)
                .into_iter()
                .filter(|c| c.len() > 1)
                .collect();
            let partition = StrippedPartition::compute(&instance, fd.lhs);
            assert_eq!(
                partition.classes().collect::<Vec<&[usize]>>(),
                expected.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                "case {case}"
            );
        }

        // The whole-instance build, FD by FD: every edge is some FD's
        // reference pair, labelled with exactly the FDs that pair violates.
        let mut labels: HashMap<(usize, usize), Vec<usize>> = HashMap::new();
        for (fd_idx, fd) in fds.iter() {
            for pair in reference_pairs(&instance, fd) {
                labels.entry(pair).or_default().push(fd_idx);
            }
        }
        let graph = ConflictGraph::build_with(&instance, &fds, Parallelism::Fixed(2));
        assert_eq!(graph.edge_count(), labels.len(), "case {case}");
        for e in graph.edges() {
            assert_eq!(Some(&e.violated_fds), labels.get(&e.rows), "case {case}");
        }

        // integrate_fd: from an empty graph, each FD adds exactly its
        // reference pairs; FD by FD, the result is the batch build.
        let mut grown = ConflictGraph::from_parts(instance.len(), Vec::new()).unwrap();
        for (fd_idx, fd) in fds.iter() {
            let mut alone = ConflictGraph::from_parts(instance.len(), Vec::new()).unwrap();
            alone.integrate_fd(&instance, &fds, fd_idx);
            let rows: Vec<(usize, usize)> = alone.edges().iter().map(|e| e.rows).collect();
            assert_eq!(rows, reference_pairs(&instance, fd), "case {case}");
            grown.integrate_fd(&instance, &fds, fd_idx);
        }
        assert_eq!(grown, graph, "case {case}");
    }
}

#[test]
fn many_two_row_shards_over_a_wide_code_space_stay_cheap() {
    // Row 2i and 2i+1 share key i, and half of the pairs disagree on the
    // RHS, so the plan is ~rows/2 two-row shards over a key column whose
    // code space is ~rows/2 wide: blocking cost must follow the shards.
    let rows: usize = std::env::var("RT_WAREHOUSE_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let data: Vec<Vec<i64>> = (0..rows as i64)
        .map(|r| vec![r / 2, (r / 2) % 2 * (r % 2), r])
        .collect();
    let schema = Schema::with_arity(3).unwrap();
    let instance = Instance::from_int_rows(schema.clone(), &data).unwrap();
    let fds = FdSet::parse(&["A0->A1"], &schema).unwrap();
    let plan = ShardPlan::compute(&instance, &fds);
    assert_eq!(plan.shard_count(), rows / 2);

    let start = Instant::now();
    let whole = ConflictGraph::build_with(&instance, &fds, Parallelism::Serial);
    let whole_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parts: Vec<ConflictGraph> = plan
        .shards()
        .iter()
        .map(|shard| ConflictGraph::build_for_rows(&instance, &fds, shard, Parallelism::Serial))
        .collect();
    let sharded_s = start.elapsed().as_secs_f64();
    let merged = ConflictGraph::merge_shards(instance.len(), parts).unwrap();
    assert_eq!(merged, whole);
    assert_eq!(whole.edge_count(), rows / 4);
    // A per-shard cost in the code space (~rows/2 slots per shard) would
    // make the sharded build quadratic: thousands of times the whole build.
    assert!(
        sharded_s < 50.0 * whole_s + 1.0,
        "{} two-row shards took {sharded_s:.3} s; the whole build took {whole_s:.3} s",
        rows / 2
    );
}
