//! Deterministic work counters for the equality hot paths.
//!
//! This workspace runs its perf gates on work *counts*, not wall clock (the
//! CI container is single-core and offline, see `ci/bench_baseline.json`).
//! The three counters here measure what dictionary encoding is supposed to
//! remove from the equality hot paths:
//!
//! * [`count_key_alloc`] — one heap allocation made solely to build a
//!   grouping or probe key (a `Vec<Value>`/`Vec<&Value>` key, or a spilled
//!   code key for very wide attribute sets);
//! * [`count_key_hash`] — bytes fed to a hasher while building or probing
//!   such a key, under the accounting convention of
//!   [`Value::hash_cost`](crate::Value::hash_cost) (string keys cost their
//!   length, packed code keys cost 4 bytes per attribute);
//! * [`count_value_compares`] — `Value`-level equality tests
//!   ([`Value::matches`](crate::Value::matches)) performed by hot paths;
//!   code-keyed paths compare `u32`s instead and count nothing.
//!
//! The counters are process-global atomics. Totals are bit-deterministic for
//! a deterministic workload even under the workspace's parallel execution
//! layer: the multiset of counted operations is fixed by the inputs (the
//! parallel ≡ serial contract), and addition is commutative. They exist for
//! the benchmark gate and for tests; production logic must never branch on
//! them.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static KEY_BYTES_HASHED: AtomicU64 = AtomicU64::new(0);
static KEY_ALLOCS: AtomicU64 = AtomicU64::new(0);
static VALUE_COMPARES: AtomicU64 = AtomicU64::new(0);
static RESIDENT_CELLS: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_CELLS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the three work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Bytes fed to hashers while building/probing equality keys.
    pub key_bytes_hashed: u64,
    /// Heap allocations made solely to build equality keys.
    pub key_allocs: u64,
    /// `Value`-level equality tests in hot paths.
    pub value_compares: u64,
}

impl WorkSnapshot {
    /// Counter-wise difference `self - earlier` (saturating, so an
    /// interleaved reset cannot underflow).
    pub fn since(&self, earlier: &WorkSnapshot) -> WorkSnapshot {
        WorkSnapshot {
            key_bytes_hashed: self
                .key_bytes_hashed
                .saturating_sub(earlier.key_bytes_hashed),
            key_allocs: self.key_allocs.saturating_sub(earlier.key_allocs),
            value_compares: self.value_compares.saturating_sub(earlier.value_compares),
        }
    }
}

/// Records `bytes` fed to a hasher for an equality key.
#[inline]
pub fn count_key_hash(bytes: usize) {
    KEY_BYTES_HASHED.fetch_add(bytes as u64, Relaxed);
}

/// Records one heap allocation made to build an equality key.
#[inline]
pub fn count_key_alloc() {
    KEY_ALLOCS.fetch_add(1, Relaxed);
}

/// Records `n` `Value`-level equality tests.
#[inline]
pub fn count_value_compares(n: usize) {
    VALUE_COMPARES.fetch_add(n as u64, Relaxed);
}

/// Raises the resident-cell gauge by `n` cells and folds the new level into
/// the peak.
///
/// The gauge is a deterministic *memory estimate*, not an allocator probe:
/// the bulk loader charges one cell per dictionary code it appends (it
/// holds no raw field beyond the current record). The resulting peak — the
/// code columns — is what the memory-bounded-ingest gate in `bench_gate`
/// divides by the row count.
#[inline]
pub fn add_resident_cells(n: usize) {
    let now = RESIDENT_CELLS.fetch_add(n as u64, Relaxed) + n as u64;
    PEAK_RESIDENT_CELLS.fetch_max(now, Relaxed);
}

/// Lowers the resident-cell gauge by `n` cells (saturating; the peak keeps
/// the high-water mark).
#[inline]
pub fn sub_resident_cells(n: usize) {
    let _ = RESIDENT_CELLS.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(n as u64)));
}

/// The high-water mark of the resident-cell gauge since the last [`reset`].
pub fn peak_resident_cells() -> u64 {
    PEAK_RESIDENT_CELLS.load(Relaxed)
}

/// Reads the current counter totals.
pub fn snapshot() -> WorkSnapshot {
    WorkSnapshot {
        key_bytes_hashed: KEY_BYTES_HASHED.load(Relaxed),
        key_allocs: KEY_ALLOCS.load(Relaxed),
        value_compares: VALUE_COMPARES.load(Relaxed),
    }
}

/// Resets all counters to zero (benchmark scenarios call this at their
/// start; concurrent measurement scopes are not supported).
pub fn reset() {
    KEY_BYTES_HASHED.store(0, Relaxed);
    KEY_ALLOCS.store(0, Relaxed);
    VALUE_COMPARES.store(0, Relaxed);
    RESIDENT_CELLS.store(0, Relaxed);
    PEAK_RESIDENT_CELLS.store(0, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        // Other tests in this process may touch the global counters
        // concurrently, so assert on deltas with `>=` rather than resetting.
        let before = snapshot();
        count_key_hash(12);
        count_key_hash(4);
        count_key_alloc();
        count_value_compares(3);
        let delta = snapshot().since(&before);
        assert!(delta.key_bytes_hashed >= 16);
        assert!(delta.key_allocs >= 1);
        assert!(delta.value_compares >= 3);
        // `since` saturates instead of underflowing.
        assert_eq!(before.since(&snapshot()), WorkSnapshot::default());
    }

    #[test]
    fn resident_gauge_tracks_peak_and_saturates() {
        let before = peak_resident_cells();
        add_resident_cells(100);
        assert!(peak_resident_cells() >= before.max(100));
        sub_resident_cells(60);
        let peak_after_sub = peak_resident_cells();
        add_resident_cells(10);
        // Lowering then raising below the high-water mark keeps the peak.
        assert!(peak_resident_cells() >= peak_after_sub);
        // Release exactly what this test still holds.
        sub_resident_cells(50);
    }
}
