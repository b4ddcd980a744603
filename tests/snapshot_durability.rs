//! Engine snapshot durability: a restored engine is bit-identical to the
//! original without ever rebuilding the conflict graph, and corrupt or
//! truncated snapshot bytes always fail typed — never panic.

use relative_trust::prelude::*;
use rt_engine::{crc32, SNAPSHOT_MAGIC};

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
    for version in [0xFF_u32, 2, 3] {
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
