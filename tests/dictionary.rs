//! The code-path ≡ value-path contract of the dictionary-encoding layer.
//!
//! PR 4 moved every equality hot path — conflict-graph blocking, stripped
//! partitions, FD partition indexes, the data-repair clean index — from
//! `Vec<Value>` keys onto per-attribute dictionary codes
//! ([`relative_trust::relation::Instance::codes`]). The hard invariant,
//! mirroring the parallel ≡ serial and incremental ≡ rebuild contracts of
//! PRs 1–3: the code-keyed paths are **bit-identical** to value-level
//! semantics ([`Value::matches`]) —
//!
//! * partition classes and conflict graphs equal naive value-keyed
//!   reference implementations (re-implemented here, on values, as the
//!   oracle);
//! * full repair spectra do not depend on *which* codes the dictionary
//!   assigned (instances with scrambled interning orders produce
//!   bit-identical spectra);
//! * under random mutation streams the incrementally maintained encoding
//!   stays decode-faithful and the engine stays bit-identical to a fresh
//!   rebuild with `conflict_graph_builds == 1`.
//!
//! The harness shape (seeded 24/48-case loops over random instances, FD
//! sets and mutation streams) follows `tests/incremental.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relative_trust::constraints::{PartitionStore, StrippedPartition};
use relative_trust::datagen::{generate_mutation_stream, MutationStreamConfig};
use relative_trust::prelude::*;
use relative_trust::relation::{AttrId, Tuple, Value};
use std::collections::HashMap;

/// A random instance mixing integer, string and null cells over small
/// domains (so FDs actually conflict and strings actually collide).
fn random_instance(rng: &mut StdRng) -> Instance {
    let arity = rng.gen_range(4..6usize);
    let rows = rng.gen_range(8..19usize);
    let names: Vec<String> = (0..arity).map(|a| format!("A{a}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let schema = Schema::new("R", name_refs).unwrap();
    let mut instance = Instance::new(schema);
    for _ in 0..rows {
        let cells: Vec<Value> = (0..arity)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => Value::Null,
                1 => Value::int(rng.gen_range(0..3i64)),
                2 => Value::str(["x", "y", "z"][rng.gen_range(0..3usize)]),
                _ => Value::int(rng.gen_range(0..2i64)),
            })
            .collect();
        instance.push(Tuple::new(cells)).unwrap();
    }
    // Sprinkle V-instance variables: some repeated (sharing a class), some
    // unique.
    for _ in 0..rng.gen_range(0..3usize) {
        let attr = AttrId(rng.gen_range(0..arity) as u16);
        let var = instance.fresh_var(attr);
        for _ in 0..rng.gen_range(1..3usize) {
            let row = rng.gen_range(0..rows);
            instance
                .set_cell(
                    relative_trust::relation::CellRef::new(row, attr),
                    var.clone(),
                )
                .unwrap();
        }
    }
    instance
}

/// A random FD set: two FDs with 1–2 LHS attributes.
fn random_fds(rng: &mut StdRng, arity: usize) -> FdSet {
    let mut fds = FdSet::new();
    for _ in 0..2 {
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

/// Value-level oracle for stripped partitions: group rows by their
/// `Vec<Value>` projection, drop singletons, order classes by first row.
fn value_partition_classes(instance: &Instance, attrs: AttrSet) -> Vec<Vec<usize>> {
    let attr_vec = attrs.to_vec();
    let mut groups: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (row, tuple) in instance.tuples() {
        let key: Vec<Value> = attr_vec.iter().map(|a| tuple.get(*a).clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    let mut classes: Vec<Vec<usize>> = groups.into_values().filter(|c| c.len() > 1).collect();
    classes.sort_unstable_by_key(|c| c[0]);
    classes
}

/// Value-level oracle for the conflict graph: the quadratic definition —
/// one edge per pair violating at least one FD, labelled via the
/// value-level [`FdSet::violated_by`] and [`Tuple::differing_attrs`].
fn value_conflict_edges(
    instance: &Instance,
    fds: &FdSet,
) -> Vec<((usize, usize), Vec<usize>, AttrSet)> {
    let tuples: Vec<Tuple> = instance.tuples().map(|(_, t)| t).collect();
    let mut edges = Vec::new();
    for (u, tu) in tuples.iter().enumerate() {
        for (v, tv) in tuples.iter().enumerate().skip(u + 1) {
            let violated = fds.violated_by(tu, tv);
            if !violated.is_empty() {
                edges.push((
                    (u, v),
                    violated,
                    AttrSet::from_attrs(tu.differing_attrs(tv)),
                ));
            }
        }
    }
    edges
}

/// The maintained encoding is decode-faithful: every cell's stored code
/// decodes back to exactly the cell's value, for every attribute and row.
/// (Interning assigns distinct codes to distinct values, so decode
/// faithfulness implies code equality ⟺ `Value::matches`.)
fn assert_encoding_faithful(instance: &Instance, context: &str) {
    for attr in instance.schema().attr_ids() {
        let dict = instance.dict(attr);
        let codes = instance.codes(attr);
        assert_eq!(codes.len(), instance.len(), "{context}: column length");
        for (row, tuple) in instance.tuples() {
            assert_eq!(
                &dict.decode(codes[row]),
                tuple.get(attr),
                "{context}: cell ({row}, {attr}) decodes wrong"
            );
        }
    }
}

fn assert_spectra_identical(a: &Spectrum, b: &Spectrum, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: spectrum sizes differ");
    assert!(a.bit_identical(b), "{context}: spectra differ");
}

fn build(instance: Instance, fds: FdSet, weight: WeightKind, seed: u64) -> RepairEngine {
    RepairEngine::builder(instance, fds)
        .weight(weight)
        .parallelism(Parallelism::Serial)
        .max_expansions(100_000)
        .seed(seed)
        .build()
        .unwrap()
}

/// Partitions: code-keyed compute/refine and the cached store all equal the
/// value-level oracle on random instances (including V-instance variables).
#[test]
fn partition_classes_match_value_oracle() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xD1C7 + case);
        let instance = random_instance(&mut rng);
        let arity = instance.schema().arity();
        let mut store = PartitionStore::new(arity);
        for _ in 0..4 {
            let size = rng.gen_range(1..4usize);
            let mut attrs = AttrSet::new();
            while attrs.len() < size {
                attrs.insert(AttrId(rng.gen_range(0..arity) as u16));
            }
            let context = format!("case {case}, attrs {attrs}");
            let expected = value_partition_classes(&instance, attrs);
            let computed = StrippedPartition::compute(&instance, attrs);
            let got: Vec<Vec<usize>> = computed.classes().map(<[usize]>::to_vec).collect();
            assert_eq!(got, expected, "{context}: compute");
            // The store's TANE-style refinement is bit-identical to the
            // direct computation (same classes, same order).
            assert_eq!(
                store.partition(&instance, attrs),
                computed,
                "{context}: store"
            );
            // Refining by a further attribute equals direct computation too.
            let extra = AttrId(rng.gen_range(0..arity) as u16);
            if !attrs.contains(extra) {
                assert_eq!(
                    computed.refine(&instance, AttrSet::singleton(extra)),
                    StrippedPartition::compute(&instance, attrs.with(extra)),
                    "{context}: refine by {extra}"
                );
            }
        }
        assert!(store.cached_singles() <= arity);
    }
}

/// Conflict graphs: the code-keyed blocking build equals the quadratic
/// value-level definition — rows, FD labels and difference sets.
#[test]
fn conflict_graphs_match_value_oracle() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE + case);
        let instance = random_instance(&mut rng);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let context = format!("case {case}");
        let graph = relative_trust::constraints::ConflictGraph::build(&instance, &fds);
        let got: Vec<((usize, usize), Vec<usize>, AttrSet)> = graph
            .edges()
            .iter()
            .map(|e| (e.rows, e.violated_fds.clone(), e.difference_set))
            .collect();
        assert_eq!(got, value_conflict_edges(&instance, &fds), "{context}");
        assert_encoding_faithful(&instance, &context);
    }
}

/// Repair spectra must not depend on which codes the dictionaries assigned:
/// an instance whose dictionaries interned extra values first (scrambled
/// code order) is logically equal and produces a bit-identical spectrum.
#[test]
fn spectra_are_invariant_under_code_assignment_order() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x5C4A + case);
        let instance = random_instance(&mut rng);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let context = format!("case {case}");

        // Re-build the same logical instance with a polluted interning
        // order: push scrap rows first (interning unrelated values), delete
        // them, then push the real tuples. Codes now differ; content and
        // variable counters do not.
        let mut scrambled = Instance::new(instance.schema().clone());
        for i in 0..3i64 {
            let scrap: Vec<Value> = (0..instance.schema().arity())
                .map(|a| Value::int(1000 + i * 17 + a as i64))
                .collect();
            scrambled.push(Tuple::new(scrap)).unwrap();
        }
        scrambled.remove_rows(&[0, 1, 2]).unwrap();
        for (_, tuple) in instance.tuples() {
            scrambled.push(tuple).unwrap();
        }
        for attr in instance.schema().attr_ids() {
            for _ in 0..instance.dict(attr).var_count() {
                // Keep the fresh-variable counters aligned with the
                // original so downstream variable allocation matches.
                scrambled.fresh_var(attr);
            }
        }
        assert_eq!(scrambled, instance, "{context}: logical content differs");
        assert_ne!(
            (0..instance.len())
                .map(|r| instance.code_at(r, AttrId(0)))
                .collect::<Vec<_>>(),
            (0..scrambled.len())
                .map(|r| scrambled.code_at(r, AttrId(0)))
                .collect::<Vec<_>>(),
            "{context}: scrambling did not change the codes"
        );
        assert_encoding_faithful(&scrambled, &context);

        let a = build(instance, fds.clone(), WeightKind::DistinctCount, case);
        let b = build(scrambled, fds, WeightKind::DistinctCount, case);
        assert_spectra_identical(&a.spectrum().unwrap(), &b.spectrum().unwrap(), &context);
    }
}

/// Mutation streams: the incrementally maintained encoding stays
/// decode-faithful, and the engine's spectrum stays bit-identical to a
/// fresh rebuild on the mutated inputs — with `conflict_graph_builds == 1`.
#[test]
fn mutation_streams_keep_encoding_and_spectra_identical() {
    let weights = [
        WeightKind::AttrCount,
        WeightKind::DistinctCount,
        WeightKind::Entropy,
    ];
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xD1C7_FEED + case);
        let instance = random_instance(&mut rng);
        let fds = random_fds(&mut rng, instance.schema().arity());
        let weight = weights[(case % 3) as usize];
        let context = format!("case {case} ({weight:?})");

        let mut engine = build(instance.clone(), fds.clone(), weight, case);
        let ops = generate_mutation_stream(
            &instance,
            &fds,
            &MutationStreamConfig {
                ops: rng.gen_range(5..11usize),
                // Fresh values force new dictionary entries mid-session.
                fresh_value_rate: 0.5,
                seed: 0xBEEF + case,
                ..Default::default()
            },
        );
        for op in &ops {
            engine
                .apply(&MutationBatch::new().push(op.clone()))
                .unwrap_or_else(|e| panic!("{context}: {e}"));
        }

        // The mutated instance's encoding is still exact, cell by cell.
        assert_encoding_faithful(engine.problem().instance(), &context);
        // Dictionaries only grow (append-only), and the stats surface
        // tracks their footprint.
        let stats = engine.stats();
        assert_eq!(
            stats.dict_entries,
            engine.problem().instance().dict_entries(),
            "{context}: stats out of step"
        );

        let fresh = build(
            engine.problem().instance().clone(),
            engine.problem().sigma().clone(),
            weight,
            case,
        );
        assert_eq!(
            engine.problem().conflict_graph(),
            fresh.problem().conflict_graph(),
            "{context}: conflict graphs differ"
        );
        assert_spectra_identical(
            &engine
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}")),
            &fresh
                .spectrum()
                .unwrap_or_else(|e| panic!("{context}: {e}")),
            &context,
        );
        assert_eq!(
            engine.stats().conflict_graph_builds,
            1,
            "{context}: graph was rebuilt"
        );
    }
}

/// Spot check of the reserved variable range: variables land above
/// `VAR_CODE_BASE`, constants below, and shared variables share a class in
/// the code-keyed partition exactly like the value-level semantics demand.
#[test]
fn variable_codes_respect_the_reserved_range() {
    use relative_trust::relation::{AttrDict, CellRef, VAR_CODE_BASE};
    let schema = Schema::new("R", vec!["A", "B"]).unwrap();
    let mut instance =
        Instance::from_int_rows(schema, &[vec![1, 1], vec![1, 2], vec![1, 3]]).unwrap();
    let v = instance.fresh_var(AttrId(0));
    instance
        .set_cell(CellRef::new(1, AttrId(0)), v.clone())
        .unwrap();
    instance.set_cell(CellRef::new(2, AttrId(0)), v).unwrap();

    let codes = instance.codes(AttrId(0));
    assert!(codes[0] < VAR_CODE_BASE);
    assert!(AttrDict::is_var_code(codes[1]));
    assert_eq!(codes[1], codes[2], "same variable, same code");

    // Rows 1 and 2 share the variable → one class {1, 2}; row 0 is a
    // singleton. Identical to the value-level oracle.
    let p = StrippedPartition::compute(&instance, AttrSet::singleton(AttrId(0)));
    let got: Vec<Vec<usize>> = p.classes().map(<[usize]>::to_vec).collect();
    assert_eq!(got, vec![vec![1, 2]]);
    assert_eq!(
        got,
        value_partition_classes(&instance, AttrSet::singleton(AttrId(0)))
    );
}
