//! Cumulative telemetry of an engine session.

use rt_relation::work::{Slot, Telemetry};

/// Counters accumulated over every query an engine has served.
///
/// The headline invariant of the session API:
/// `conflict_graph_builds` stays at `1` no matter how many `repair_at`
/// calls, sweeps, spectra or mutations the engine serves — the expensive
/// data-dependent preparation happens exactly once, when the engine is
/// built or restored.
///
/// Search and mutation telemetry folds in by field name through
/// [`Telemetry::absorb`]: the fields shared with [`rt_core::SearchStats`]
/// and [`rt_core::MutationEffect`] are the ones that accumulate here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// How many times the conflict graph of `(I, Σ)` was built: `1` for an
    /// engine built monolithic, one per shard for a sharded build, counted
    /// at [`crate::RepairEngineBuilder::build`] time. A
    /// [`crate::RepairEngine::restore`] builds through the builder too, so
    /// a restored engine counts its own build, not the original's.
    pub conflict_graph_builds: usize,
    /// Completed single-repair queries ([`crate::RepairEngine::repair_at`]
    /// and friends).
    pub repair_queries: usize,
    /// Sweeps started ([`crate::RepairEngine::sweep`],
    /// [`crate::RepairEngine::spectrum`],
    /// [`crate::RepairEngine::sampling_spectrum`]).
    pub sweeps_started: usize,
    /// Repair points materialized by streaming sweeps (one per
    /// [`crate::RepairPoint`] actually pulled from a stream).
    pub points_materialized: usize,
    /// States popped from FD-search open lists, across all queries.
    pub states_expanded: usize,
    /// States pushed onto FD-search open lists, across all queries.
    pub states_generated: usize,
    /// Recursion nodes spent inside the A* heuristic, across all queries.
    /// Cache hits charge zero nodes, so this counts actual enumeration work.
    pub heuristic_nodes: usize,
    /// Heuristic evaluations served from the memo cache
    /// ([`rt_core::HeuristicCache`]) without running the enumeration,
    /// across all queries.
    pub heuristic_cache_hits: usize,
    /// Largest heuristic-cache size (distinct `(V, τ)` entries) observed in
    /// any search — a gauge, not a cumulative counter.
    pub heuristic_cache_entries: usize,
    /// `true` when any query hit the expansion cap.
    pub truncated: bool,
    /// Mutation batches applied ([`crate::RepairEngine::apply`] and the
    /// per-op conveniences).
    pub mutation_batches: usize,
    /// Conflict edges added by incremental maintenance, across all batches.
    pub edges_added: usize,
    /// Conflict edges removed by incremental maintenance, across all
    /// batches.
    pub edges_removed: usize,
    /// Sweeps answered (partially or fully) from a retained
    /// [`rt_core::SweepCheckpoint`] instead of a fresh traversal.
    pub sweep_cache_hits: usize,
    /// Current footprint of the dictionary-encoding layer: total interned
    /// entries (constants + V-instance variables) across the live
    /// instance's per-attribute dictionaries. Set at build time and
    /// refreshed after every applied mutation batch; dictionaries are
    /// append-only, so within a session this only grows.
    pub dict_entries: usize,
    /// Shards of the [`rt_core::ShardPlan`] the engine was built with (an
    /// instance of at least 100 000 rows builds sharded); `0` for a
    /// monolithic build. Fixed at build
    /// time: mutations patch the merged conflict graph and never replan; a
    /// restore plans afresh from the restored row count.
    /// For a sharded build, `conflict_graph_builds` equals this count — one
    /// per-shard build, never a monolithic one.
    pub shards: usize,
}

impl Telemetry for EngineStats {
    #[rustfmt::skip]
    fn slots(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        vec![
            ("conflict_graph_builds", Slot::Count(&mut self.conflict_graph_builds)),
            ("repair_queries", Slot::Count(&mut self.repair_queries)),
            ("sweeps_started", Slot::Count(&mut self.sweeps_started)),
            ("points_materialized", Slot::Count(&mut self.points_materialized)),
            ("states_expanded", Slot::Count(&mut self.states_expanded)),
            ("states_generated", Slot::Count(&mut self.states_generated)),
            ("heuristic_nodes", Slot::Count(&mut self.heuristic_nodes)),
            ("heuristic_cache_hits", Slot::Count(&mut self.heuristic_cache_hits)),
            ("heuristic_cache_entries", Slot::Gauge(&mut self.heuristic_cache_entries)),
            ("truncated", Slot::Flag(&mut self.truncated)),
            ("mutation_batches", Slot::Count(&mut self.mutation_batches)),
            ("edges_added", Slot::Count(&mut self.edges_added)),
            ("edges_removed", Slot::Count(&mut self.edges_removed)),
            ("sweep_cache_hits", Slot::Count(&mut self.sweep_cache_hits)),
            ("dict_entries", Slot::Gauge(&mut self.dict_entries)),
            ("shards", Slot::Gauge(&mut self.shards)),
        ]
    }
}
