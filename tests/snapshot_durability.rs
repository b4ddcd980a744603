//! Engine snapshot durability: a restored engine, built from the stored
//! `(I, Σ)` through the builder, is bit-identical to the original, and
//! corrupt, truncated or crafted snapshot bytes always fail typed — never
//! panic.

use relative_trust::prelude::*;
use rt_engine::{crc32, SNAPSHOT_MAGIC};
use rt_relation::work::{Slot, Telemetry};

/// The Figure-2 instance of the paper.
fn figure2() -> (Instance, FdSet) {
    let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
    let instance = Instance::from_int_rows(
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
    (instance, fds)
}

fn figure2_engine() -> RepairEngine {
    let (instance, fds) = figure2();
    RepairEngine::builder(instance, fds)
        .weight(WeightKind::AttrCount)
        .build()
        .unwrap()
}

/// The catalog's `census` scenario under the default engine settings.
fn census_engine() -> RepairEngine {
    let scenario = relative_trust::scenarios::build("census", &ScenarioConfig::default()).unwrap();
    RepairEngine::new(scenario.dirty, scenario.dirty_fds).unwrap()
}

/// Every point of `b` equals the same point of `a` bit for bit: τ range,
/// state, `Σ'`, `dist_c` bits, `δ_P`, the repaired instance and its changed
/// cells.
fn assert_points_identical(a: &[RepairPoint], b: &[RepairPoint], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: point count");
    for (i, (a, b)) in a.iter().zip(b).enumerate() {
        assert_eq!(a.tau_range, b.tau_range, "{context}: point {i} τ range");
        let (a, b) = (&a.repair, &b.repair);
        assert_eq!(a.state, b.state, "{context}: point {i} state");
        assert_eq!(a.modified_fds, b.modified_fds, "{context}: point {i} Σ'");
        assert_eq!(
            a.dist_c.to_bits(),
            b.dist_c.to_bits(),
            "{context}: point {i} dist_c"
        );
        assert_eq!(a.delta_p, b.delta_p, "{context}: point {i} δP");
        assert_eq!(
            a.repaired_instance, b.repaired_instance,
            "{context}: point {i} instance"
        );
        assert_eq!(
            a.changed_cells, b.changed_cells,
            "{context}: point {i} changed cells"
        );
    }
}

#[test]
fn crc32_matches_known_vectors() {
    // The classic IEEE check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

/// Restoring builds the conflict graph of the stored `(I, Σ)`: the restored
/// graph is `ConflictGraph::build` of the restored instance and FDs, the
/// stats are the original's field for field, and the spectrum is
/// bit-identical — on Figure 2, on census after a sweep, and on a mutated
/// engine.
#[test]
fn restore_is_bit_identical_and_builds_the_graph_of_its_i_and_sigma() {
    let census_after_a_sweep = || {
        let engine = census_engine();
        engine.spectrum().unwrap();
        engine
    };
    let mutated = || {
        let mut engine = figure2_engine();
        engine
            .apply(
                &MutationBatch::new()
                    .insert_row(vec![
                        Value::int(7),
                        Value::int(7),
                        Value::int(1),
                        Value::int(2),
                    ])
                    .update_cell(CellRef::new(1, AttrId(1)), Value::int(9)),
            )
            .unwrap();
        engine
    };
    let cases = [
        ("figure 2", figure2_engine as fn() -> RepairEngine),
        ("census after a sweep", census_after_a_sweep),
        ("mutated", mutated),
    ];
    for (name, build) in cases {
        let engine = build();
        let bytes = engine.snapshot().unwrap();
        assert_eq!(&bytes[..8], SNAPSHOT_MAGIC);

        let restored = RepairEngine::restore(&bytes).unwrap();
        assert_eq!(restored.stats(), engine.stats(), "{name}: stats");
        let problem = restored.problem();
        assert_eq!(
            problem.conflict_graph(),
            &ConflictGraph::build(problem.instance(), problem.sigma()),
            "{name}: the restored graph is the build of the restored (I, Σ)"
        );
        assert!(
            engine
                .spectrum()
                .unwrap()
                .bit_identical(&restored.spectrum().unwrap()),
            "{name}: restored spectrum must be bit-identical to the original"
        );
    }
}

#[test]
fn snapshot_survives_a_second_generation() {
    // snapshot(restore(snapshot(e))) must describe the same engine.
    let engine = figure2_engine();
    let spectrum = engine.spectrum().unwrap();
    let first = engine.snapshot().unwrap();
    let second = RepairEngine::restore(&first).unwrap().snapshot().unwrap();
    let grandchild = RepairEngine::restore(&second).unwrap();
    assert_eq!(grandchild.stats(), engine.stats());
    assert!(spectrum.bit_identical(&grandchild.spectrum().unwrap()));
}

#[test]
fn restore_preserves_mutated_state() {
    let mut engine = figure2_engine();
    engine
        .apply(
            &MutationBatch::new()
                .insert_row(vec![
                    Value::int(7),
                    Value::int(7),
                    Value::int(1),
                    Value::int(2),
                ])
                .update_cell(CellRef::new(1, AttrId(1)), Value::int(9)),
        )
        .unwrap();
    let spectrum = engine.spectrum().unwrap();

    let restored = RepairEngine::restore(&engine.snapshot().unwrap()).unwrap();
    // Counters carried over: the original ran one mutation batch.
    assert_eq!(restored.stats(), engine.stats());
    assert_eq!(restored.stats().mutation_batches, 1);
    assert!(spectrum.bit_identical(&restored.spectrum().unwrap()));
}

/// A restored engine mutates as the original does: after one batch of
/// every op kind, the original, the restored engine and a fresh build on
/// the final `(I, Σ)` agree bit for bit.
#[test]
fn a_restored_engine_mutates_like_the_original() {
    let mut original = figure2_engine();
    let schema = original.problem().instance().schema().clone();
    // One mutation first, so the original is itself a mutated engine.
    original
        .update_cell(CellRef::new(3, AttrId(1)), Value::int(2))
        .unwrap();
    let mut restored = RepairEngine::restore(&original.snapshot().unwrap()).unwrap();
    let batch = MutationBatch::new()
        .insert_row(vec![
            Value::int(2),
            Value::int(5),
            Value::int(4),
            Value::int(1),
        ])
        .update_cell(CellRef::new(0, AttrId(2)), Value::int(4))
        .delete_tuples(vec![1])
        .add_fd(Fd::parse("B->D", &schema).unwrap())
        .remove_fd(0);
    original.apply(&batch).unwrap();
    restored.apply(&batch).unwrap();

    let a = original.problem();
    let fresh = RepairEngine::builder(a.instance().clone(), a.sigma().clone())
        .weight(WeightKind::AttrCount)
        .build()
        .unwrap();
    let spectrum = original.spectrum().unwrap();
    for (name, other) in [("restored", &restored), ("fresh", &fresh)] {
        let c = other.problem();
        assert_eq!(a.instance(), c.instance(), "{name}: instance");
        assert_eq!(a.sigma(), c.sigma(), "{name}: FD set");
        assert_eq!(a.conflict_graph(), c.conflict_graph(), "{name}: graph");
        assert!(
            spectrum.bit_identical(&other.spectrum().unwrap()),
            "{name}: spectrum"
        );
    }
    assert!(!a.conflict_graph().is_empty(), "the batch leaves conflicts");
}

/// A snapshot holds no search state: an engine snapshotted in the middle of
/// a sweep restores with an empty sweep cache, and its sweep over the same
/// range runs the search again to exactly the points of an uninterrupted
/// sweep, on Figure 2 and on the census scenario.
#[test]
fn a_restored_engine_re_sweeps_a_partly_drained_sweep() {
    let cases = [
        ("figure 2", figure2_engine as fn() -> RepairEngine, 1),
        ("census", census_engine, 3),
    ];
    for (name, build, pulled) in cases {
        let uninterrupted = build().spectrum().unwrap().points;
        assert!(uninterrupted.len() > pulled, "{name}: points left to sweep");

        let engine = build();
        let range = 0..=engine.delta_p_original();
        // Materialize only part of the range, leaving a suspended checkpoint
        // in the engine's sweep cache.
        let first: Vec<_> = engine
            .sweep(range.clone())
            .take(pulled)
            .map(|p| p.unwrap())
            .collect();
        assert_points_identical(&uninterrupted[..pulled], &first, name);

        let restored = RepairEngine::restore(&engine.snapshot().unwrap()).unwrap();
        assert_eq!(restored.stats(), engine.stats(), "{name}: stats");
        let swept: Vec<_> = restored.sweep(range).map(|p| p.unwrap()).collect();
        assert_points_identical(&uninterrupted, &swept, name);
        // The sweep did not resume a stored checkpoint: no cache hit.
        assert_eq!(
            restored.stats().sweep_cache_hits,
            engine.stats().sweep_cache_hits,
            "{name}"
        );
    }
}

#[test]
fn every_truncation_fails_typed() {
    let bytes = figure2_engine().snapshot().unwrap();
    for len in 0..bytes.len() {
        let err = RepairEngine::restore(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("truncation to {len} bytes must not restore"));
        assert!(
            matches!(err, EngineError::Snapshot(_)),
            "truncation to {len} bytes: got {err:?}"
        );
    }
}

#[test]
fn corrupt_bytes_fail_typed_and_never_panic() {
    let bytes = figure2_engine().snapshot().unwrap();
    // Flip one bit in every byte position; restore must either fail with the
    // typed snapshot error or (never) succeed silently — a flipped payload
    // byte is caught by the section CRC, a flipped header byte by framing.
    for pos in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x40;
        if let Err(err) = RepairEngine::restore(&corrupt) {
            assert!(
                matches!(err, EngineError::Snapshot(_)),
                "flip at {pos}: got {err:?}"
            );
        } else {
            panic!("bit flip at byte {pos} restored successfully");
        }
    }
}

#[test]
fn wrong_magic_and_version_fail_typed() {
    let bytes = figure2_engine().snapshot().unwrap();

    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    let err = RepairEngine::restore(&wrong_magic).unwrap_err();
    assert!(err.to_string().contains("magic"), "got {err}");

    // A version from the future and the previous ones alike fail the typed
    // version check; there is no compatibility reader.
    for version in [0xFF_u32, 2, 3, 4, 5, 6, 7, 8, 9] {
        let mut stamped = bytes.clone();
        stamped[8..12].copy_from_slice(&version.to_le_bytes());
        let err = RepairEngine::restore(&stamped).unwrap_err();
        assert!(matches!(err, EngineError::Snapshot(_)), "got {err}");
        let expected = format!("unsupported snapshot version {version}");
        assert!(err.to_string().contains(&expected), "got {err}");
    }

    let err = RepairEngine::restore(b"").unwrap_err();
    assert!(matches!(err, EngineError::Snapshot(_)));
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = figure2_engine().snapshot().unwrap();
    bytes.extend_from_slice(b"junk");
    let err = RepairEngine::restore(&bytes).unwrap_err();
    assert!(err.to_string().contains("trailing"), "got {err}");
}

#[test]
fn zero_search_limits_in_the_config_fail_typed() {
    let mut bytes = figure2_engine().snapshot().unwrap();
    // Header: magic (8), version (4), section count (4); then the config
    // section's tag (4), payload length (8) and CRC (4).
    let (len_at, crc_at, payload_at) = (20, 28, 32);
    let len = u64::from_le_bytes(bytes[len_at..crc_at].try_into().unwrap()) as usize;
    // Config payload: weight tag (1), seed (8), then max_expansions as a u64.
    let at = payload_at + 9;
    bytes[at..at + 8].fill(0);
    // Re-seal the section so the decoder reaches the field check.
    let crc = crc32(&bytes[payload_at..payload_at + len]);
    bytes[crc_at..payload_at].copy_from_slice(&crc.to_le_bytes());
    let err = RepairEngine::restore(&bytes).unwrap_err();
    assert!(matches!(err, EngineError::Snapshot(_)), "{err:?}");
    assert!(err.to_string().contains("max_expansions"), "{err}");
}

// ---------------------------------------------------------------------------
// Crafted snapshots: well-framed bytes with a section the decoder no longer
// reads. Each section is sealed, so the tag check, not the framing, must
// reject it.
// ---------------------------------------------------------------------------

/// The conflict graph's section before version 9; now an unknown tag.
const SEC_GRAPH: u32 = 6;
/// The suspended sweep's section before version 10; now an unknown tag.
const SEC_SWEEP: u32 = 8;
/// The heuristic memo's section before version 7; now an unknown tag.
const SEC_WARM: u32 = 9;

fn assert_snapshot_error(bytes: &[u8], expected: &str, context: &str) {
    let err = RepairEngine::restore(bytes)
        .err()
        .unwrap_or_else(|| panic!("{context}: the crafted snapshot restored"));
    assert!(
        matches!(err, EngineError::Snapshot(_)),
        "{context}: {err:?}"
    );
    assert!(err.to_string().contains(expected), "{context}: {err}");
}

/// Appends a sealed section with `tag` and `payload` to a snapshot and
/// counts it in the header.
fn append_section(bytes: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(count + 1).to_le_bytes());
    bytes.extend(tag.to_le_bytes());
    bytes.extend((payload.len() as u64).to_le_bytes());
    bytes.extend(crc32(payload).to_le_bytes());
    bytes.extend(payload);
}

/// Tag 9 carried the heuristic memo before version 7; a section with it,
/// even an empty memo, now fails typed as unknown.
#[test]
fn a_heuristic_memo_section_fails_typed_as_unknown() {
    let mut bytes = figure2_engine().snapshot().unwrap();
    // An empty memo at version 6: entry count, hits and nodes spent.
    append_section(&mut bytes, SEC_WARM, &[0u8; 24]);
    assert_snapshot_error(&bytes, "unknown section tag 9", "tag 9");
}

/// Tag 6 carried the conflict graph before version 9. The restore builds
/// the graph from `(I, Σ)`, so a stored one, even an empty graph of the
/// right row count, fails typed as unknown instead of being skipped.
#[test]
fn a_conflict_graph_section_fails_typed_as_unknown() {
    let mut bytes = figure2_engine().snapshot().unwrap();
    // A version 8 graph: row count, then the edge count.
    let payload: Vec<u8> = [4u64, 0].iter().flat_map(|v| v.to_le_bytes()).collect();
    append_section(&mut bytes, SEC_GRAPH, &payload);
    assert_snapshot_error(&bytes, "unknown section tag 6", "tag 6");
}

/// Tag 8 carried the suspended sweep before version 10. A restored engine
/// runs its sweeps again, so a stored one, even the sweep a version 9
/// snapshot held before its first point, fails typed as unknown instead of
/// being resumed.
#[test]
fn a_sweep_section_fails_typed_as_unknown() {
    let mut bytes = figure2_engine().snapshot().unwrap();
    let mut stats = SearchStats::default();
    let mut payload = Vec::new();
    // One open entry, the root: one empty extension per FD, priority 0.0.
    for v in [1u64, 2, 0, 0, 0f64.to_bits()] {
        payload.extend(v.to_le_bytes());
    }
    // τ, τ_low, τ_high and the current upper end of the range [0, 4].
    for v in [4u64, 0, 4, 4] {
        payload.extend(v.to_le_bytes());
    }
    // The search stats' slots, the exhausted flag and no found repair.
    for (_, slot) in stats.slots() {
        let len = if matches!(slot, Slot::Flag(_)) { 1 } else { 8 };
        payload.extend(std::iter::repeat_n(0u8, len));
    }
    payload.push(0);
    payload.extend(0u64.to_le_bytes());
    append_section(&mut bytes, SEC_SWEEP, &payload);
    assert_snapshot_error(&bytes, "unknown section tag 8", "tag 8");
}
