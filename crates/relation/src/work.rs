//! Deterministic work counters for the equality hot paths and column copies.
//!
//! This workspace runs its perf gates on work *counts*, not wall clock (the
//! CI container is single-core and offline, see `ci/bench_baseline.json`).
//! The first three counters here measure what dictionary encoding is
//! supposed to remove from the equality hot paths; the fourth measures what
//! copy-on-write columns are supposed to remove from instance copies:
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
//!   code-keyed paths compare `u32`s instead and count nothing;
//! * [`count_cells_copied`] — code cells copied because a column shared
//!   between instances was written: an instance's one column write path
//!   charges the copied column's length, so a clone that writes nothing,
//!   or writes a value a cell already holds, counts nothing.
//!
//! The counters are process-global atomics. Totals are bit-deterministic for
//! a deterministic workload even under the workspace's parallel execution
//! layer: the multiset of counted operations is fixed by the inputs (the
//! parallel ≡ serial contract), and addition is commutative. They exist for
//! the benchmark gate and for tests; production logic must never branch on
//! them.
//!
//! The module also declares the shape of per-query telemetry: a struct that
//! implements [`Telemetry`] lists each of its fields once, as a named
//! [`Slot`], and every consumer — merges, `since`, the snapshot and wire
//! codecs, the REPL — iterates that one table instead of naming fields.
//! [`WorkSnapshot`] is such a table too, so the benchmark gate reports
//! every work counter by iterating it.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static KEY_BYTES_HASHED: AtomicU64 = AtomicU64::new(0);
static KEY_ALLOCS: AtomicU64 = AtomicU64::new(0);
static VALUE_COMPARES: AtomicU64 = AtomicU64::new(0);
static CELLS_COPIED: AtomicU64 = AtomicU64::new(0);
static RESIDENT_CELLS: AtomicU64 = AtomicU64::new(0);
static PEAK_RESIDENT_CELLS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Bytes fed to hashers while building/probing equality keys.
    pub key_bytes_hashed: u64,
    /// Heap allocations made solely to build equality keys.
    pub key_allocs: u64,
    /// `Value`-level equality tests in hot paths.
    pub value_compares: u64,
    /// Code cells copied out of shared columns on their first write.
    pub cells_copied: u64,
}

impl Telemetry for WorkSnapshot {
    #[rustfmt::skip]
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("key_bytes_hashed", Slot::Total(&mut self.key_bytes_hashed)),
            ("key_allocs", Slot::Total(&mut self.key_allocs)),
            ("value_compares", Slot::Total(&mut self.value_compares)),
            ("cells_copied", Slot::Total(&mut self.cells_copied)),
        ]
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

/// Records `n` code cells copied out of a shared column.
#[inline]
pub fn count_cells_copied(n: usize) {
    CELLS_COPIED.fetch_add(n as u64, Relaxed);
}

/// Raises the resident-cell gauge by `n` cells and folds the new level into
/// the peak.
///
/// The gauge is a deterministic *memory estimate*, not an allocator probe:
/// the bulk loader charges one cell per dictionary code it appends. The raw
/// text it holds — a few blocks in flight, bounded by the worker count, not
/// by the input — is not charged. The resulting peak — the code columns —
/// is what the memory-bounded-ingest gate in `bench_gate` divides by the
/// row count.
#[inline]
pub fn add_resident_cells(n: usize) {
    let now = RESIDENT_CELLS.fetch_add(n as u64, Relaxed) + n as u64;
    PEAK_RESIDENT_CELLS.fetch_max(now, Relaxed);
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
        cells_copied: CELLS_COPIED.load(Relaxed),
    }
}

/// Resets all counters to zero (benchmark scenarios call this at their
/// start; concurrent measurement scopes are not supported).
pub fn reset() {
    KEY_BYTES_HASHED.store(0, Relaxed);
    KEY_ALLOCS.store(0, Relaxed);
    VALUE_COMPARES.store(0, Relaxed);
    CELLS_COPIED.store(0, Relaxed);
    RESIDENT_CELLS.store(0, Relaxed);
    PEAK_RESIDENT_CELLS.store(0, Relaxed);
}

/// One field of a [`Telemetry`] struct, borrowed so a generic consumer can
/// read or write it. The variant fixes how two readings combine.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A cumulative count: summed on merge, subtracted by `since`.
    Count(&'a mut usize),
    /// A level, such as a cache size: the larger value on merge, the later
    /// value on `since`.
    Gauge(&'a mut usize),
    /// A sticky condition: OR-ed on merge, the later value on `since`.
    Flag(&'a mut bool),
    /// A process-wide cumulative count at the [`WorkSnapshot`] width:
    /// summed on merge, subtracted by `since` (saturating, so a [`reset`]
    /// between the two readings cannot underflow).
    Total(&'a mut u64),
}

impl fmt::Display for Slot<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Count(v) | Slot::Gauge(v) => write!(f, "{v}"),
            Slot::Flag(b) => write!(f, "{b}"),
            Slot::Total(v) => write!(f, "{v}"),
        }
    }
}

/// A telemetry struct declared as a table: [`Telemetry::slots`] returns one
/// `(field name, slot)` row per field, in field order, and the provided
/// methods are the generic consumers every merge goes through.
pub trait Telemetry: Copy + Default {
    /// The struct's fields, each under its own name, in declaration order.
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)>;

    /// Folds `other` into `self` by field name: counts and totals add,
    /// gauges keep the larger value and flags OR. Fields of `other` that
    /// `self` does not have are ignored, so a session total can absorb one
    /// query's stats.
    ///
    /// # Panics
    ///
    /// When a shared name is a different kind of slot on the two sides — a
    /// table bug, not a runtime condition.
    fn absorb<T: Telemetry>(&mut self, other: &T) {
        let mut other = *other;
        let theirs = other.slots();
        for (name, mine) in self.slots() {
            let Some((_, from)) = theirs.iter().find(|(n, _)| *n == name) else {
                continue;
            };
            match (mine, from) {
                (Slot::Count(a), Slot::Count(b)) => *a += **b,
                (Slot::Gauge(a), Slot::Gauge(b)) => *a = (*a).max(**b),
                (Slot::Flag(a), Slot::Flag(b)) => *a |= **b,
                (Slot::Total(a), Slot::Total(b)) => *a += **b,
                _ => panic!("telemetry field `{name}` is declared with two slot kinds"),
            }
        }
    }

    /// The work done since `earlier`, a cumulative reading of the same run:
    /// counts and totals subtract, while gauges and flags keep `self`'s
    /// value.
    /// Absorbing the result into `earlier` gives back `self`.
    fn since(&self, earlier: &Self) -> Self {
        let mut delta = *self;
        let mut earlier = *earlier;
        for ((_, d), (_, e)) in delta.slots().into_iter().zip(earlier.slots()) {
            match (d, e) {
                (Slot::Count(d), Slot::Count(e)) => *d -= *e,
                (Slot::Total(d), Slot::Total(e)) => *d = d.saturating_sub(*e),
                _ => {}
            }
        }
        delta
    }
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
        count_cells_copied(5);
        let delta = snapshot().since(&before);
        assert!(delta.key_bytes_hashed >= 16);
        assert!(delta.key_allocs >= 1);
        assert!(delta.value_compares >= 3);
        assert!(delta.cells_copied >= 5);
        // `since` saturates instead of underflowing.
        assert_eq!(before.since(&snapshot()), WorkSnapshot::default());
    }

    #[test]
    fn resident_gauge_tracks_peak() {
        let before = peak_resident_cells();
        add_resident_cells(100);
        assert!(peak_resident_cells() >= before.max(100));
    }
}
