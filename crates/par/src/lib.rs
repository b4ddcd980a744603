//! # rt-par
//!
//! The workspace's parallel execution layer: a [`Parallelism`] configuration
//! shared by every crate and a handful of deterministic data-parallel
//! primitives built on [`std::thread::scope`].
//!
//! The build environment cannot fetch `rayon`, so this crate provides the
//! small subset the repair pipeline needs — fork/join maps over slices and
//! index ranges — with one hard guarantee the whole workspace relies on:
//!
//! > **Determinism.** For any `Parallelism` setting, [`par_map`] and
//! > [`par_map_indexed`] return results in input order, and callers merge
//! > them in that order. Parallel runs are therefore bit-identical to
//! > serial runs; thread count only changes wall-clock time.
//!
//! The primitives deliberately mirror a tiny slice of rayon's API surface
//! (`par_map` ≈ `par_iter().map().collect()`), so swapping rayon in later is
//! a local change to this crate.
//!
//! ```
//! use rt_par::{par_map, Parallelism};
//!
//! let squares = par_map(Parallelism::Fixed(4), &[1, 2, 3, 4], |&x| x * x);
//! // Results come back in input order for every thread count.
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! assert_eq!(squares, par_map(Parallelism::Serial, &[1, 2, 3, 4], |&x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::{Condvar, Mutex};

/// How many worker threads the parallel primitives may use.
///
/// Threaded through `SearchConfig` in `rt-core` and exposed as `--threads`
/// on the `rtclean` CLI. The default is [`Parallelism::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use every available core ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Single-threaded: run everything inline on the calling thread.
    Serial,
    /// Use exactly `n` threads (`Fixed(0)` and `Fixed(1)` behave like
    /// [`Parallelism::Serial`]).
    Fixed(usize),
}

impl Parallelism {
    /// The number of worker threads this setting resolves to on the current
    /// machine (always at least 1).
    pub fn effective_threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }

    /// Parses the CLI spelling used by `rtclean --threads`:
    /// `"auto"`, `"serial"`, `"1"` (= serial) or a thread count.
    pub fn parse(s: &str) -> Result<Parallelism, String> {
        match s {
            "auto" => Ok(Parallelism::Auto),
            "serial" => Ok(Parallelism::Serial),
            n => match n.parse::<usize>() {
                Ok(0) | Ok(1) => Ok(Parallelism::Serial),
                Ok(n) => Ok(Parallelism::Fixed(n)),
                Err(_) => Err(format!(
                    "invalid thread count `{n}` (use auto, serial, or a number)"
                )),
            },
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Auto => write!(f, "auto ({} threads)", self.effective_threads()),
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Fixed(n) => write!(f, "{n} threads"),
        }
    }
}

/// Below this many items a parallel map runs inline: spawning threads costs
/// more than it saves on tiny inputs.
const MIN_ITEMS_PER_THREAD: usize = 16;

/// Maps `f` over `items`, possibly in parallel, returning results in input
/// order (bit-identical to `items.iter().map(...).collect()`).
///
/// The slice is split into one contiguous chunk per worker; workers never
/// share mutable state, so ordering is deterministic by construction.
pub fn par_map<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

/// Maps `f` over the index range `0..len`, possibly in parallel, returning
/// results in index order.
///
/// This is the core primitive: [`par_map`] delegates to it, and callers that
/// fan out over something other than a slice (components, τ values, blocks)
/// use it directly.
pub fn par_map_indexed<R, F>(par: Parallelism, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = par.effective_threads().min(len / MIN_ITEMS_PER_THREAD);
    fork_join(threads, len, f)
}

/// Like [`par_map_indexed`] but without the small-input cutoff: always uses
/// up to `len` workers even for a handful of items.
///
/// Intended for coarse-grained fan-out where each item is a large unit of
/// work (a whole experiment, a τ-search, a graph component), so thread-spawn
/// overhead is negligible compared to the per-item cost.
pub fn par_map_coarse<R, F>(par: Parallelism, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    fork_join(par.effective_threads().min(len), len, f)
}

/// Maps `f` over `0..len` on up to `threads` threads (inline when that is
/// one or fewer), returning results in index order.
fn fork_join<R, F>(threads: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }

    // One contiguous index chunk per worker; chunk results are concatenated
    // in chunk order, which equals index order.
    let chunk_len = len.div_ceil(threads);
    let chunks: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|t| (t * chunk_len).min(len)..((t + 1) * chunk_len).min(len))
        .filter(|r| !r.is_empty())
        .collect();

    let f = &f;
    let mut per_chunk: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(chunks.len().saturating_sub(1));
        let mut iter = chunks.iter().cloned();
        let first = iter.next().expect("at least one non-empty chunk");
        for range in iter {
            handles.push(scope.spawn(move || range.map(f).collect::<Vec<R>>()));
        }
        // The calling thread works on the first chunk instead of idling.
        per_chunk.push(first.map(f).collect());
        for handle in handles {
            per_chunk.push(handle.join().expect("worker thread panicked"));
        }
    });
    per_chunk.into_iter().flatten().collect()
}

/// A counting gate bounding how many threads may be inside a section at
/// once — the blocking complement to the fork/join maps above, used by
/// `rt-server` to cap concurrent connection handlers.
///
/// [`Gate::enter`] blocks until one of the `capacity` slots is free and
/// returns a [`GatePass`] guard; dropping the guard releases the slot and
/// wakes one waiter. Admission order among blocked waiters is left to the
/// OS — the primitive bounds *concurrency*, and callers that need
/// deterministic results must not depend on admission order (the same rule
/// the parallel maps follow).
#[derive(Debug)]
pub struct Gate {
    in_use: Mutex<usize>,
    freed: Condvar,
    capacity: usize,
}

impl Gate {
    /// A gate admitting at most `capacity` concurrent passes (clamped to at
    /// least 1 — a zero-capacity gate would deadlock its first caller).
    pub fn new(capacity: usize) -> Gate {
        Gate {
            in_use: Mutex::new(0),
            freed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks until a slot is free, then occupies it for the lifetime of
    /// the returned pass.
    pub fn enter(&self) -> GatePass<'_> {
        let mut in_use = self.in_use.lock().expect("gate lock poisoned");
        while *in_use >= self.capacity {
            in_use = self.freed.wait(in_use).expect("gate lock poisoned");
        }
        *in_use += 1;
        GatePass { gate: self }
    }
}

/// An occupied [`Gate`] slot; dropping it releases the slot.
#[derive(Debug)]
pub struct GatePass<'g> {
    gate: &'g Gate,
}

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        let mut in_use = self.gate.in_use.lock().expect("gate lock poisoned");
        *in_use -= 1;
        drop(in_use);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};

    #[test]
    fn effective_threads_floor_is_one() {
        assert_eq!(Parallelism::Serial.effective_threads(), 1);
        assert_eq!(Parallelism::Fixed(0).effective_threads(), 1);
        assert_eq!(Parallelism::Fixed(5).effective_threads(), 5);
        assert!(Parallelism::Auto.effective_threads() >= 1);
    }

    #[test]
    fn parse_accepts_cli_spellings() {
        assert_eq!(Parallelism::parse("auto"), Ok(Parallelism::Auto));
        assert_eq!(Parallelism::parse("serial"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("1"), Ok(Parallelism::Serial));
        assert_eq!(Parallelism::parse("8"), Ok(Parallelism::Fixed(8)));
        assert!(Parallelism::parse("lots").is_err());
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ] {
            assert_eq!(par_map(par, &items, |x| x * x + 1), serial, "{par:?}");
        }
    }

    #[test]
    fn par_map_indexed_handles_edge_sizes() {
        for len in [0usize, 1, 2, 15, 16, 17, 1000] {
            let expected: Vec<usize> = (0..len).map(|i| i * 3).collect();
            assert_eq!(
                par_map_indexed(Parallelism::Fixed(4), len, |i| i * 3),
                expected
            );
        }
    }

    #[test]
    fn coarse_map_parallelizes_small_fanouts() {
        let results = par_map_coarse(Parallelism::Fixed(4), 4, |i| i * 2);
        assert_eq!(results, vec![0, 2, 4, 6]);
    }

    /// Enters `gate` `passes` times from a helper thread, holding every
    /// pass until all are in, and returns the channel it reports on: a slot
    /// that is never freed times the test out instead of hanging it.
    fn enter_from_helper(
        gate: &Arc<Gate>,
        passes: usize,
    ) -> (mpsc::Receiver<()>, std::thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let gate = Arc::clone(gate);
        let helper = std::thread::spawn(move || {
            let _held: Vec<GatePass<'_>> = (0..passes).map(|_| gate.enter()).collect();
            tx.send(()).expect("the test holds the receiver");
        });
        (rx, helper)
    }

    #[test]
    fn gate_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;

        let wait = Duration::from_secs(10);
        let gate = Arc::new(Gate::new(2));
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let _pass = gate.enter();
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
        // Every pass was released: both slots can be held at once again.
        let (entered, helper) = enter_from_helper(&gate, 2);
        assert_eq!(entered.recv_timeout(wait), Ok(()));
        helper.join().expect("helper thread panicked");

        // A zero capacity is clamped to one: a second pass waits for the
        // first to be dropped.
        let single = Arc::new(Gate::new(0));
        let first = single.enter();
        let (second, helper) = enter_from_helper(&single, 1);
        assert_eq!(
            second.recv_timeout(Duration::from_millis(100)),
            Err(mpsc::RecvTimeoutError::Timeout),
            "a zero-capacity gate admitted two passes"
        );
        drop(first);
        assert_eq!(second.recv_timeout(wait), Ok(()));
        helper.join().expect("helper thread panicked");
    }
}
