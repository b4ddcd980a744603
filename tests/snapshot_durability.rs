//! Engine snapshot durability: a restored engine is bit-identical to the
//! original without ever rebuilding the conflict graph, and corrupt,
//! truncated or crafted snapshot bytes always fail typed — never panic.

use relative_trust::prelude::*;
use rt_core::repair::materialize_fd_repair;
use rt_core::search::FdRepair;
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

#[test]
fn crc32_matches_known_vectors() {
    // The classic IEEE check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn restore_is_bit_identical_and_never_rebuilds_the_graph() {
    let engine = figure2_engine();
    let spectrum = engine.spectrum().unwrap();

    let bytes = engine.snapshot().unwrap();
    assert_eq!(&bytes[..8], SNAPSHOT_MAGIC);

    let restored = RepairEngine::restore(&bytes).unwrap();
    assert_eq!(
        restored.stats().conflict_graph_builds,
        0,
        "a restored engine adopts the snapshot's conflict graph verbatim"
    );
    let restored_spectrum = restored.spectrum().unwrap();
    assert!(
        spectrum.bit_identical(&restored_spectrum),
        "restored spectrum must be bit-identical to the original"
    );
    // Querying the restored engine still never builds a graph.
    assert_eq!(restored.stats().conflict_graph_builds, 0);
}

#[test]
fn snapshot_survives_a_second_generation() {
    // snapshot(restore(snapshot(e))) must describe the same engine.
    let engine = figure2_engine();
    let spectrum = engine.spectrum().unwrap();
    let first = engine.snapshot().unwrap();
    let second = RepairEngine::restore(&first).unwrap().snapshot().unwrap();
    let grandchild = RepairEngine::restore(&second).unwrap();
    assert!(spectrum.bit_identical(&grandchild.spectrum().unwrap()));
    assert_eq!(grandchild.stats().conflict_graph_builds, 0);
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
    assert!(spectrum.bit_identical(&restored.spectrum().unwrap()));
    assert_eq!(restored.stats().conflict_graph_builds, 0);
    // Counters carried over: the original ran one mutation batch.
    assert_eq!(restored.stats().mutation_batches, 1);
}

/// A restored engine rebuilds its per-FD partition index on its first
/// mutation, as a freshly built one does: after one batch of every op kind,
/// the original, the restored engine and a fresh build on the final
/// `(I, Σ)` agree bit for bit.
#[test]
fn a_restored_engine_mutates_like_the_original() {
    let mut original = figure2_engine();
    let schema = original.problem().instance().schema().clone();
    // One mutation first, so the original holds a built partition index.
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

#[test]
fn restore_carries_the_suspended_sweep_checkpoint() {
    let engine = figure2_engine();
    // Materialize only part of the range, leaving a suspended checkpoint.
    let mut stream = engine.sweep(0..=engine.delta_p_original());
    let first = stream.next().unwrap().unwrap();
    drop(stream);

    let restored = RepairEngine::restore(&engine.snapshot().unwrap()).unwrap();
    // Resuming on the restored engine replays the same points the original
    // would have produced, from the same checkpoint.
    let original: Vec<_> = engine
        .sweep(0..=engine.delta_p_original())
        .map(|p| p.unwrap())
        .collect();
    let resumed: Vec<_> = restored
        .sweep(0..=restored.delta_p_original())
        .map(|p| p.unwrap())
        .collect();
    assert_eq!(original.len(), resumed.len());
    assert_eq!(first.tau_range, original[0].tau_range);
    for (a, b) in original.iter().zip(&resumed) {
        assert_eq!(a.tau_range, b.tau_range);
        assert_eq!(a.repair.data_changes(), b.repair.data_changes());
    }
    assert_eq!(restored.stats().conflict_graph_builds, 0);
    // The checkpoint resume shows up as a sweep-cache hit on both sides.
    assert_eq!(
        engine.stats().sweep_cache_hits,
        restored.stats().sweep_cache_hits
    );
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
    for version in [0xFF_u32, 2, 3, 4, 5] {
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
// Crafted snapshots: well-framed bytes whose fields lie. Each case rewrites
// one section's payload and reseals its CRC, so the decoder's field checks,
// not the framing, must reject it.
// ---------------------------------------------------------------------------

/// Snapshot header: magic (8), version (4), section count (4).
const HEADER: usize = 16;
/// Section tags of the conflict graph and of the suspended sweep.
const SEC_GRAPH: u32 = 6;
const SEC_SWEEP: u32 = 8;
/// A Figure-2 search state: extension count, then one extension per FD.
const STATE_LEN: usize = 8 + 2 * 8;

/// Rewrites the payload of section `tag` with `edit` and reseals its length
/// and CRC. Each section is `tag:u32 len:u64 crc:u32 payload`.
fn reseal(bytes: &[u8], tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut edit = Some(edit);
    let mut out = bytes[..HEADER].to_vec();
    let mut at = HEADER;
    while at < bytes.len() {
        let t = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let len = get(bytes, at + 4) as usize;
        let mut payload = bytes[at + 16..at + 16 + len].to_vec();
        if t == tag {
            edit.take().expect("one section per tag")(&mut payload);
        }
        out.extend(t.to_le_bytes());
        out.extend((payload.len() as u64).to_le_bytes());
        out.extend(crc32(&payload).to_le_bytes());
        out.extend(payload);
        at += 16 + len;
    }
    assert!(edit.is_none(), "the snapshot has no section {tag}");
    out
}

fn get(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn put(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Offset of the found-repair count in a Figure-2 SWEEP payload: the open
/// list (state, priority, cost per entry), then τ, τ_low, τ_high and the
/// current upper end, the search stats' slots and the exhausted flag.
fn found_at(sweep: &[u8]) -> usize {
    let mut stats = SearchStats::default();
    let stats_len: usize = stats
        .slots()
        .iter()
        .map(|(_, slot)| if matches!(slot, Slot::Flag(_)) { 1 } else { 8 })
        .sum();
    8 + get(sweep, 0) as usize * (STATE_LEN + 16) + 4 * 8 + stats_len + 1
}

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

/// An open-list state must be one extension per FD inside `R \ (X ∪ {A})`:
/// attribute 40 of a 4-attribute schema, or the FD's own RHS, fails typed
/// instead of reaching the weight or the instance on the resumed sweep.
#[test]
fn an_open_state_outside_its_fds_candidates_fails_typed() {
    for weight in [WeightKind::AttrCount, WeightKind::DistinctCount] {
        let (instance, fds) = figure2();
        let engine = RepairEngine::builder(instance, fds)
            .weight(weight)
            .build()
            .unwrap();
        let mut stream = engine.sweep(0..=engine.delta_p_original());
        stream.next().unwrap().unwrap();
        drop(stream);
        let bytes = engine.snapshot().unwrap();
        // The first open state's extension of A -> B sits after the open
        // count (8) and the state's extension count (8).
        for (bits, what) in [(1u64 << 40, "attribute 40"), (1 << 1, "its RHS B")] {
            let crafted = reseal(&bytes, SEC_SWEEP, |sweep| {
                assert!(
                    get(sweep, 0) > 0,
                    "a partly drained sweep keeps open states"
                );
                put(sweep, 16, bits);
            });
            assert_snapshot_error(&crafted, "extension", &format!("{weight:?}, {what}"));
        }
    }
}

/// A GRAPH edge is its row pair and difference set; the decoder checks the
/// difference set against the two restored rows and against `Σ`.
#[test]
fn a_graph_edge_with_a_wrong_difference_set_fails_typed() {
    let bytes = figure2_engine().snapshot().unwrap();
    // Payload: row count, edge count, then (u, v, difference set) per edge.
    // Figure 2's first edge is (t1, t2) with difference set BD.
    let edge = 16;
    let cases = [
        // BCD: an FD-violating set, but not where t1 and t2 differ.
        ((0, 1), 0b1110, "differing attributes"),
        // A: neither t1 and t2's differences nor a violation.
        ((0, 1), 0b0001, "differing attributes"),
        // t1 and t3 differ on exactly AB, which violates neither A -> B nor C -> D.
        ((0, 2), 0b0011, "violates no FD"),
    ];
    for ((u, v), diff, expected) in cases {
        let crafted = reseal(&bytes, SEC_GRAPH, |graph| {
            assert_eq!(get(graph, edge + 16), 0b1010, "t1, t2 differ on BD");
            put(graph, edge, u);
            put(graph, edge + 8, v);
            put(graph, edge + 16, diff);
        });
        assert_snapshot_error(&crafted, expected, &format!("edge ({u}, {v}) {diff:#b}"));
    }
}

/// A SWEEP found repair is its state and τ range: swapping in another valid
/// state replays that state's `Σ'`, `dist_c`, `δ_P` and cover, as the search
/// would have found them.
#[test]
fn found_repairs_replay_from_their_states() {
    let engine = figure2_engine();
    let hi = engine.delta_p_original();
    for point in engine.sweep(0..=hi) {
        point.unwrap();
    }
    let bytes = engine.snapshot().unwrap();
    // Overwrites one extension of the first found repair (the root, τ range
    // [4, 4]) with `bits`.
    let swap = |fd: usize, bits: u64| {
        reseal(&bytes, SEC_SWEEP, |sweep| {
            let found = found_at(sweep);
            assert_eq!(
                get(sweep, found),
                3,
                "Figure 2's spectrum has three repairs"
            );
            let state = found + 8;
            assert_eq!(get(sweep, state), 2, "one extension per FD");
            assert_eq!((get(sweep, state + 8), get(sweep, state + 16)), (0, 0));
            assert_eq!((get(sweep, state + 24), get(sweep, state + 32)), (4, 4));
            put(sweep, state + 8 + 8 * fd, bits);
        })
    };

    // A -> B, A,C -> D: like the root, δP = 4 (Figure 3), but dist_c 1.
    let swapped = RepairState::new(vec![AttrSet::EMPTY, AttrSet::singleton(AttrId(0))]);
    let restored = RepairEngine::restore(&swap(1, 0b0001)).unwrap();
    let problem = restored.problem();
    let expected = FdRepair {
        fd_set: problem.relaxed_fds(&swapped),
        dist_c: problem.dist_c(&swapped),
        delta_p: problem.delta_p(&swapped),
        cover_rows: problem.cover_for(&swapped).iter().collect(),
        state: swapped.clone(),
    };
    let point = restored.sweep(0..=hi).next().unwrap().unwrap();
    assert_eq!(point.tau_range, (4, 4));
    let got = point.repair;
    assert_eq!(got.state, swapped);
    assert_eq!(got.modified_fds, expected.fd_set);
    assert_eq!(got.dist_c.to_bits(), expected.dist_c.to_bits());
    assert_eq!(got.delta_p, expected.delta_p);
    // Algorithm 4 repairs exactly the cover rows it is handed.
    let want = materialize_fd_repair(
        problem,
        &expected,
        4,
        restored.seed(),
        Parallelism::Serial,
        SearchStats::default(),
    );
    assert_eq!(got.repaired_instance, want.repaired_instance);
    assert_eq!(got.changed_cells, want.changed_cells);

    // C,A -> B has δP 2, which does not open the stored range [4, 4].
    assert_snapshot_error(&swap(0, 0b0100), "τ range", "δP 2 at [4, 4]");
}
