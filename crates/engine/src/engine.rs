//! The engine session type.

use crate::builder::RepairEngineBuilder;
use crate::error::EngineError;
use crate::mutation::{MutationBatch, MutationOutcome};
use crate::stats::EngineStats;
use crate::stream::{RepairPoint, RepairStream, Spectrum};
use rt_baseline::{unified_cost_repair_with_graph, UnifiedCostConfig, UnifiedRepair};
use rt_constraints::{Fd, FdSet};
use rt_core::repair::materialize_fd_repair;
use rt_core::search::FdRepair;
use rt_core::{
    run_search, RangeSearch, RangedFdRepair, Repair, RepairProblem, SearchAlgorithm, SearchConfig,
    SearchStats, SweepCheckpoint,
};
use rt_relation::work::Telemetry;
use rt_relation::{CellRef, Instance, Tuple, Value};
use std::ops::RangeInclusive;
use std::sync::{Mutex, MutexGuard};

/// Acquires an engine-internal mutex. All engine locks are leaf locks held
/// for a few statements of bookkeeping; the only way `lock()` fails is
/// poisoning, i.e. another thread already panicked mid-update, and then the
/// guarded telemetry is unrecoverable anyway.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // rtlint: allow(D006) -- poisoning means a prior panic corrupted the guarded state; propagating is the only sound move
    m.lock().expect("engine internal lock poisoned")
}

/// A long-lived repair session over one fixed `(I, Σ)`.
///
/// The engine is built once — paying for the conflict graph, the
/// difference-set index and the weighting function exactly once — and then
/// serves any number of queries across the relative-trust spectrum:
///
/// * [`RepairEngine::repair_at`] / [`RepairEngine::repair_at_relative`] —
///   one τ-constrained repair (Algorithm 1);
/// * [`RepairEngine::fd_repair_at`] — the FD half only (Algorithm 2), no
///   data materialization;
/// * [`RepairEngine::sweep`] — a lazy stream over the distinct repairs of a
///   τ range (Algorithm 6), materialized on demand;
/// * [`RepairEngine::spectrum`] — the full range-repair, collected;
/// * [`RepairEngine::sampling_spectrum`] — the naive per-τ comparator;
/// * [`RepairEngine::unified_baseline`] — the unified-cost baseline over
///   the same prepared conflict graph;
/// * [`RepairEngine::stats`] — cumulative telemetry of the session.
///
/// The engine is `Sync`: concurrent scenarios can share one engine behind
/// an `Arc` and query it from several threads.
///
/// The engine is also *mutable*: [`RepairEngine::apply`] (and the per-op
/// conveniences [`RepairEngine::insert_tuples`],
/// [`RepairEngine::delete_tuples`], [`RepairEngine::update_cell`],
/// [`RepairEngine::add_fd`], [`RepairEngine::remove_fd`]) edit the live
/// `(I, Σ)` while the prepared state is maintained *incrementally* — the
/// conflict graph is patched edge-level around the touched rows, never
/// rebuilt ([`EngineStats::conflict_graph_builds`] stays at `1`), and
/// suspended sweeps survive any mutation that provably leaves the FD-level
/// search unchanged.
pub struct RepairEngine {
    problem: RepairProblem,
    search_config: SearchConfig,
    seed: u64,
    stats: Mutex<EngineStats>,
    /// The most recent suspended sweep, resumable by the next `sweep` over
    /// the same range. Mutations drop it exactly when they invalidate
    /// FD-level search state (`MutationEffect::search_state_invalidated`).
    sweep_cache: Mutex<Option<SweepCheckpoint>>,
    /// A heuristic memo table salvaged from a dropped checkpoint. When a
    /// mutation invalidates the sweep (stale priorities) but provably leaves
    /// the difference-set groups unchanged
    /// (`!MutationEffect::diff_groups_changed` — e.g. a weight-only refresh
    /// after a conflict-free insert), the checkpoint's cache is still valid;
    /// it is kept here and seeds the next fresh sweep. Dropped whenever the
    /// groups actually change.
    warm_heuristic: Mutex<Option<rt_core::HeuristicCache>>,
}

impl RepairEngine {
    /// Starts building an engine for `(instance, fds)`; see
    /// [`RepairEngineBuilder`] for the knobs.
    pub fn builder(instance: Instance, fds: FdSet) -> RepairEngineBuilder {
        RepairEngineBuilder::new(instance, fds)
    }

    /// Builds an engine with all-default settings.
    pub fn new(instance: Instance, fds: FdSet) -> Result<RepairEngine, EngineError> {
        Self::builder(instance, fds).build()
    }

    pub(crate) fn from_parts(
        problem: RepairProblem,
        search_config: SearchConfig,
        seed: u64,
        stats: EngineStats,
    ) -> Self {
        RepairEngine {
            problem,
            search_config,
            seed,
            stats: Mutex::new(stats),
            sweep_cache: Mutex::new(None),
            warm_heuristic: Mutex::new(None),
        }
    }

    /// Serializes the engine's `(I, Σ)` — dictionaries, code columns and
    /// FDs — with its settings and cumulative stats into the versioned,
    /// checksummed [`crate::snapshot`] binary format. Neither the conflict
    /// graph nor any search state (a suspended sweep, the heuristic memo)
    /// is stored: all of them follow from `(I, Σ)`.
    ///
    /// A [`RepairEngine::restore`] of these bytes answers every query
    /// bit-identically to this engine. Every engine state can be encoded,
    /// so this returns `Ok`.
    pub fn snapshot(&self) -> Result<Vec<u8>, EngineError> {
        let stats = *lock(&self.stats);
        Ok(crate::snapshot::encode(
            &self.problem,
            &self.search_config,
            self.seed,
            &stats,
        ))
    }

    /// Reconstructs an engine from [`RepairEngine::snapshot`] bytes.
    ///
    /// The stored `(I, Σ)` and settings go through
    /// [`RepairEngine::builder`], so the conflict graph is built as any
    /// build builds it: [`EngineStats::conflict_graph_builds`] and
    /// [`EngineStats::shards`] describe that build, and every other counter
    /// is the snapshot's. The sweep cache starts empty and the heuristic
    /// memo cold, so the first sweep after a restore runs the search again:
    /// answers are bit-identical, while the work counters count the search
    /// the restored engine redoes. Truncated, corrupt or version-skewed
    /// input, and an `(I, Σ)` the builder rejects, fail with a typed
    /// [`EngineError::Snapshot`], never a panic.
    pub fn restore(bytes: &[u8]) -> Result<RepairEngine, EngineError> {
        let decoded = crate::snapshot::decode(bytes)?;
        Ok(RepairEngine {
            stats: Mutex::new(decoded.stats),
            ..decoded.engine
        })
    }

    /// Applies a validated, all-or-nothing batch of mutations to the live
    /// `(I, Σ)`, incrementally maintaining the prepared state.
    ///
    /// The whole batch is validated against the current state first; on any
    /// validation error nothing is applied and the engine is untouched.
    /// After a successful apply, the engine answers every query exactly as
    /// a freshly built engine on the mutated inputs would — bit-identically
    /// — while [`EngineStats::conflict_graph_builds`] stays at `1`: each
    /// batch counted in [`EngineStats::mutation_batches`] is a rebuild saved.
    pub fn apply(&mut self, batch: &MutationBatch) -> Result<MutationOutcome, EngineError> {
        if batch.is_empty() {
            return Ok(MutationOutcome {
                sweep_cache_retained: lock(&self.sweep_cache).is_some(),
                ..Default::default()
            });
        }
        batch.validate(
            self.problem.instance().schema(),
            self.problem.instance().len(),
            self.problem.fd_count(),
        )?;
        // Validation is complete, so the incremental apply cannot fail.
        let effect = self
            .problem
            .apply_mutations(batch.ops())
            .map_err(EngineError::Mutation)?;
        {
            let mut stats = lock(&self.stats);
            stats.mutation_batches += 1;
            stats.absorb(&effect);
            // The dictionaries were maintained in-place by the mutated
            // instance (append-only; untouched rows were not re-encoded) —
            // refresh the footprint figure.
            stats.dict_entries = self.problem.instance().dict_entries();
        }
        let mut cache = lock(&self.sweep_cache);
        let sweep_cache_retained = if effect.search_state_invalidated {
            let stale = cache.take();
            let mut warm = lock(&self.warm_heuristic);
            if effect.diff_groups_changed {
                // The difference sets themselves changed: structural cache
                // entries are meaningless against the new groups.
                *warm = None;
            } else if let Some(cp) = stale {
                // Weight-only invalidation: the checkpoint's priorities are
                // stale, but its heuristic cache stores pure resolution
                // structure — salvage it for the next sweep.
                *warm = Some(cp.into_heuristic_cache());
            }
            false
        } else {
            cache.is_some()
        };
        Ok(MutationOutcome {
            effect,
            sweep_cache_retained,
        })
    }

    /// Appends tuples to the live instance (one-op [`MutationBatch`]).
    pub fn insert_tuples(&mut self, tuples: Vec<Tuple>) -> Result<MutationOutcome, EngineError> {
        self.apply(&MutationBatch::new().insert_tuples(tuples))
    }

    /// Deletes tuples from the live instance; surviving rows compact
    /// downwards (one-op [`MutationBatch`]).
    pub fn delete_tuples(&mut self, rows: &[usize]) -> Result<MutationOutcome, EngineError> {
        self.apply(&MutationBatch::new().delete_tuples(rows.to_vec()))
    }

    /// Overwrites one cell of the live instance (one-op [`MutationBatch`]).
    pub fn update_cell(
        &mut self,
        cell: CellRef,
        value: Value,
    ) -> Result<MutationOutcome, EngineError> {
        self.apply(&MutationBatch::new().update_cell(cell, value))
    }

    /// Appends an FD to the live `Σ` (one-op [`MutationBatch`]).
    pub fn add_fd(&mut self, fd: Fd) -> Result<MutationOutcome, EngineError> {
        self.apply(&MutationBatch::new().add_fd(fd))
    }

    /// Removes the FD at `idx` from the live `Σ`; later FDs shift down
    /// (one-op [`MutationBatch`]).
    pub fn remove_fd(&mut self, idx: usize) -> Result<MutationOutcome, EngineError> {
        self.apply(&MutationBatch::new().remove_fd(idx))
    }

    pub(crate) fn stash_sweep(&self, checkpoint: SweepCheckpoint) {
        *lock(&self.sweep_cache) = Some(checkpoint);
    }

    /// The prepared repair problem (instance, FDs, conflict graph, weights).
    pub fn problem(&self) -> &RepairProblem {
        &self.problem
    }

    /// The search configuration every query runs with.
    pub fn search_config(&self) -> &SearchConfig {
        &self.search_config
    }

    /// The seed of the randomized data-repair step.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `δ_P(Σ, I)` of the original FD set — the reference budget: repairs
    /// at `τ = delta_p_original()` touch data only, repairs at `τ = 0`
    /// touch FDs only.
    pub fn delta_p_original(&self) -> usize {
        self.problem.delta_p_original()
    }

    /// Converts relative trust `τ_r ∈ [0, 1]` into an absolute cell budget.
    pub fn absolute_tau(&self, tau_r: f64) -> usize {
        self.problem.absolute_tau(tau_r)
    }

    /// Cumulative telemetry over every query this engine has served.
    pub fn stats(&self) -> EngineStats {
        *lock(&self.stats)
    }

    pub(crate) fn absorb_search_stats(&self, stats: &SearchStats) {
        lock(&self.stats).absorb(stats);
    }

    pub(crate) fn note_point_materialized(&self) {
        lock(&self.stats).points_materialized += 1;
    }

    fn run_fd_search(&self, tau: usize) -> Result<(FdRepair, SearchStats), EngineError> {
        let outcome = run_search(
            &self.problem,
            tau,
            &self.search_config,
            SearchAlgorithm::AStar,
        );
        {
            let mut stats = lock(&self.stats);
            stats.absorb(&outcome.stats);
            stats.repair_queries += 1;
        }
        match outcome.repair {
            Some(repair) => Ok((repair, outcome.stats)),
            None if outcome.stats.truncated => Err(EngineError::BudgetExhausted {
                tau,
                max_expansions: self.search_config.max_expansions,
            }),
            None => Err(EngineError::NoRepair { tau }),
        }
    }

    /// Algorithm 2: the cheapest FD relaxation whose `δ_P(Σ', I) ≤ tau`,
    /// without materializing the data half.
    pub fn fd_repair_at(&self, tau: usize) -> Result<FdRepair, EngineError> {
        self.run_fd_search(tau).map(|(repair, _)| repair)
    }

    /// Algorithm 1: one joint repair `(Σ', I')` for the absolute cell
    /// budget `tau`.
    pub fn repair_at(&self, tau: usize) -> Result<Repair, EngineError> {
        let (fd_repair, stats) = self.run_fd_search(tau)?;
        Ok(materialize_fd_repair(
            &self.problem,
            &fd_repair,
            tau,
            self.seed,
            self.search_config.parallelism,
            stats,
        ))
    }

    /// [`RepairEngine::repair_at`] with the budget expressed as *relative*
    /// trust `τ_r ∈ [0, 1]` (clamped), the form used throughout the paper's
    /// experiments: `τ = ⌈τ_r · δ_P(Σ, I)⌉`.
    pub fn repair_at_relative(&self, tau_r: f64) -> Result<Repair, EngineError> {
        self.repair_at(self.absolute_tau(tau_r))
    }

    /// A lazy, streaming sweep over `τ ∈ range`: yields every distinct
    /// repair of the range, largest `τ` first, materializing each one only
    /// when the iterator is advanced. The whole sweep is a single
    /// Range-Repair traversal (Algorithm 6) over the engine's prepared
    /// conflict graph — construction work is never repeated per τ.
    /// When a suspended sweep over the *same range* is cached (a previous
    /// stream over this range was dropped or drained, and no mutation has
    /// invalidated FD-level search since), the traversal resumes from that
    /// checkpoint: already-found repairs replay with no search work, and
    /// the open list continues where it stopped.
    pub fn sweep(&self, range: RangeInclusive<usize>) -> RepairStream<'_> {
        let (tau_low, tau_high) = (*range.start(), *range.end());
        let checkpoint = {
            let mut cache = lock(&self.sweep_cache);
            match cache.take() {
                Some(cp) if cp.range() == (tau_low, tau_high) => Some(cp),
                other => {
                    // A sweep over a different range leaves the checkpoint
                    // in place — but the cache is a single slot with
                    // latest-wins eviction, so it only survives until the
                    // new stream is dropped and stashes its own checkpoint.
                    *cache = other;
                    None
                }
            }
        };
        {
            let mut stats = lock(&self.stats);
            stats.sweeps_started += 1;
            if checkpoint.is_some() {
                stats.sweep_cache_hits += 1;
            }
        }
        match checkpoint {
            Some(cp) => {
                // The checkpoint's stats were already published to the
                // engine by the stream that suspended it.
                let absorbed = cp.stats();
                let search = RangeSearch::resume(&self.problem, cp, &self.search_config);
                RepairStream::new(self, search, tau_high, absorbed)
            }
            None => {
                // Seed a fresh sweep with any salvaged heuristic cache (a
                // no-op empty cache otherwise); bit-identical either way.
                let warm = lock(&self.warm_heuristic).take().unwrap_or_default();
                let search = RangeSearch::new_with_cache(
                    &self.problem,
                    tau_low,
                    tau_high,
                    &self.search_config,
                    warm,
                );
                RepairStream::new(self, search, tau_high, SearchStats::default())
            }
        }
    }

    /// The full range-repair: every distinct repair between "trust the
    /// data" (`τ = 0`) and "trust the constraints"
    /// (`τ = δ_P(Σ, I)`), collected into a [`Spectrum`].
    pub fn spectrum(&self) -> Result<Spectrum, EngineError> {
        self.sweep(0..=self.delta_p_original()).collect_spectrum()
    }

    /// The naive Sampling-Repair comparator (Figure 13 of the paper): one
    /// independent A* search per sampled `τ`, duplicates removed. Provided
    /// for comparison with [`RepairEngine::sweep`]; the streaming sweep
    /// dominates it.
    ///
    /// The per-τ searches are independent, so an expansion cap hit in one
    /// of them does not invalidate the others: the partial spectrum is
    /// returned with [`SearchStats::truncated`] set in its stats.
    pub fn sampling_spectrum(&self, range: RangeInclusive<usize>, step: usize) -> Spectrum {
        let (tau_low, tau_high) = (*range.start(), *range.end());
        let outcome =
            rt_core::sampling_search(&self.problem, tau_low, tau_high, step, &self.search_config);
        {
            let mut stats = lock(&self.stats);
            stats.absorb(&outcome.stats);
            stats.sweeps_started += 1;
            stats.points_materialized += outcome.repairs.len();
        }
        let points = outcome
            .repairs
            .iter()
            .map(|ranged| RepairPoint {
                tau_range: ranged.tau_range,
                repair: self.materialize(ranged, outcome.stats),
            })
            .collect();
        Spectrum {
            points,
            search_stats: outcome.stats,
        }
    }

    /// The greedy unified-cost baseline (Section 7 comparator), run over
    /// the engine's prepared conflict graph — no per-call reconstruction.
    pub fn unified_baseline(&self, config: &UnifiedCostConfig) -> UnifiedRepair {
        unified_cost_repair_with_graph(
            self.problem.instance(),
            self.problem.sigma(),
            self.problem.weight(),
            config,
            self.problem.conflict_graph(),
        )
    }

    /// Materializes the data half of a ranged FD repair (Algorithm 4) using
    /// the engine's seed and parallelism — delegating to the single shared
    /// implementation in `rt-core` so the engine stays bit-identical to the
    /// spectrum materializer.
    pub(crate) fn materialize(&self, ranged: &RangedFdRepair, stats: SearchStats) -> Repair {
        materialize_fd_repair(
            &self.problem,
            &ranged.repair,
            ranged.tau_range.1,
            self.seed,
            self.search_config.parallelism,
            stats,
        )
    }
}

impl std::fmt::Debug for RepairEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RepairEngine")
            .field("problem", &self.problem)
            .field("seed", &self.seed)
            .field("stats", &self.stats())
            .finish()
    }
}
