//! Lazy, streaming access to the repair spectrum.

use crate::engine::RepairEngine;
use crate::error::EngineError;
use rt_core::{RangeSearch, SearchStats};

/// One point of the repair spectrum: a materialized repair together with
/// the inclusive `τ` interval for which it is *the* τ-constrained repair.
#[derive(Debug, Clone)]
pub struct RepairPoint {
    /// Inclusive `τ` interval this repair covers.
    pub tau_range: (usize, usize),
    /// The materialized joint repair `(Σ', I')`.
    pub repair: rt_core::Repair,
}

/// The fully collected output of a sweep: every distinct repair of the
/// range, ordered from largest to smallest `τ`, plus the statistics of the
/// single Range-Repair traversal that produced them.
#[derive(Debug, Clone)]
pub struct Spectrum {
    /// The repair points, largest `τ` first.
    pub points: Vec<RepairPoint>,
    /// Statistics of the underlying search pass.
    pub search_stats: SearchStats,
}

impl Spectrum {
    /// Number of distinct repairs in the spectrum.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the range contained no repair.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The materialized repairs, largest `τ` first.
    pub fn repairs(&self) -> impl Iterator<Item = &rt_core::Repair> {
        self.points.iter().map(|p| &p.repair)
    }

    /// Full bit-identity with another spectrum: same points, same
    /// intervals, same FD states and sets, same costs (compared as raw
    /// bits), same repaired instances and changed cells.
    ///
    /// This is the single predicate behind the workspace's
    /// incremental ≡ rebuild checks (`rtclean apply --verify`, the CI
    /// `bench_gate`); search statistics are deliberately excluded — two
    /// identical spectra may cost different amounts of work to produce
    /// (that difference is the point of the caches).
    pub fn bit_identical(&self, other: &Spectrum) -> bool {
        self.len() == other.len()
            && self.points.iter().zip(other.points.iter()).all(|(a, b)| {
                a.tau_range == b.tau_range
                    && a.repair.state == b.repair.state
                    && a.repair.delta_p == b.repair.delta_p
                    && a.repair.dist_c.to_bits() == b.repair.dist_c.to_bits()
                    && a.repair.modified_fds == b.repair.modified_fds
                    && a.repair.repaired_instance == b.repair.repaired_instance
                    && a.repair.changed_cells == b.repair.changed_cells
            })
    }
}

/// A lazy iterator over the repair spectrum, returned by
/// [`RepairEngine::sweep`].
///
/// Nothing is computed up front: each [`Iterator::next`] call resumes the
/// engine's Range-Repair traversal (Algorithm 6) until the next distinct FD
/// repair is found, materializes the corresponding data repair, and returns
/// it. The open list, vertex-cover work and heuristic estimates are shared
/// across adjacent `τ` values inside the one traversal, and the conflict
/// graph the engine built at construction time answers every violating
/// subgraph — the stream never rescans the data.
///
/// The stream yields `Err(EngineError::BudgetExhausted)` (once, then ends)
/// when the expansion cap stops the traversal before the range is
/// exhausted.
pub struct RepairStream<'e> {
    engine: &'e RepairEngine,
    /// `Some` until the stream is dropped; `Drop` suspends the traversal
    /// into the engine's sweep cache so a later sweep over the same range
    /// can resume instead of restarting.
    search: Option<RangeSearch<'e>>,
    /// Stats snapshot already folded into the engine totals (non-zero for a
    /// stream resumed from a checkpoint: its past work was published by the
    /// stream that suspended it).
    absorbed: SearchStats,
    /// The τ the sweep was asked about (for error reporting).
    tau_high: usize,
    finished: bool,
}

impl<'e> RepairStream<'e> {
    pub(crate) fn new(
        engine: &'e RepairEngine,
        search: RangeSearch<'e>,
        tau_high: usize,
        absorbed: SearchStats,
    ) -> Self {
        RepairStream {
            engine,
            search: Some(search),
            absorbed,
            tau_high,
            finished: false,
        }
    }

    fn search(&self) -> &RangeSearch<'e> {
        // rtlint: allow(D006) -- the Option is only taken in Drop; every method sees Some
        self.search.as_ref().expect("search present until drop")
    }

    /// Statistics of the underlying traversal so far (this traversal,
    /// including any resumed prefix; the engine's [`RepairEngine::stats`]
    /// aggregates across all queries).
    pub fn search_stats(&self) -> SearchStats {
        self.search().stats()
    }

    /// Drains the stream into a [`Spectrum`], propagating a truncation
    /// error if the expansion cap was hit.
    pub fn collect_spectrum(mut self) -> Result<Spectrum, EngineError> {
        let mut points = Vec::new();
        for point in &mut self {
            points.push(point?);
        }
        Ok(Spectrum {
            points,
            search_stats: self.search().stats(),
        })
    }

    /// Folds the not-yet-reported part of the search statistics into the
    /// engine's cumulative totals.
    fn publish_stats(&mut self) {
        let now = self.search().stats();
        // `since` passes the cache-size gauge through; the engine folds it
        // in with `max`, not `+`.
        let delta = now.since(&self.absorbed);
        self.absorbed = now;
        self.engine.absorb_search_stats(&delta);
    }
}

impl Iterator for RepairStream<'_> {
    type Item = Result<RepairPoint, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.finished {
            return None;
        }
        let ranged = self
            .search
            .as_mut()
            // rtlint: allow(D006) -- the Option is only taken in Drop; every method sees Some
            .expect("search present until drop")
            .next_repair();
        match ranged {
            Some(ranged) => {
                let stats_snapshot = self.search().stats();
                let repair = self.engine.materialize(&ranged, stats_snapshot);
                self.publish_stats();
                self.engine.note_point_materialized();
                Some(Ok(RepairPoint {
                    tau_range: ranged.tau_range,
                    repair,
                }))
            }
            None => {
                self.finished = true;
                self.publish_stats();
                if self.search().stats().truncated {
                    // Report the (tightened) budget the traversal stalled
                    // at, not the range's upper bound: repairs above it
                    // were already yielded.
                    Some(Err(EngineError::BudgetExhausted {
                        tau: self.search().current_tau().unwrap_or(self.tau_high),
                        max_expansions: self.engine.search_config().max_expansions,
                    }))
                } else {
                    None
                }
            }
        }
    }
}

impl Drop for RepairStream<'_> {
    fn drop(&mut self) {
        if let Some(search) = self.search.take() {
            // Suspend whatever the traversal reached — a partial prefix or
            // the exhausted range — so the next sweep over this range can
            // replay / resume it. Mutations invalidate the checkpoint when
            // (and only when) they change FD-level search state.
            self.engine.stash_sweep(search.suspend());
        }
    }
}
