//! Cumulative telemetry of an engine session.

use rt_relation::work::{Slot, Telemetry};

/// Counters accumulated over every query an engine has served.
///
/// The headline invariant of the session API:
/// `conflict_graph_builds` stays at `1` no matter how many `repair_at`
/// calls, sweeps or spectra the engine serves — the expensive
/// data-dependent preparation happens exactly once, at build time.
///
/// Search and mutation telemetry folds in by field name through
/// [`Telemetry::absorb`]: the fields shared with [`rt_core::SearchStats`]
/// and [`rt_core::MutationEffect`] are the ones that accumulate here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStats {
    /// How many times the conflict graph of `(I, Σ)` was built. Always `1`
    /// for an engine (at [`crate::RepairEngineBuilder::build`] time).
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
    /// Connected components of the conflict graph dirtied by mutations,
    /// across all batches.
    pub components_dirtied: usize,
    /// Full conflict-graph rebuilds that incremental maintenance made
    /// unnecessary — one per applied non-empty batch. The headline
    /// invariant extends to the mutable engine: `conflict_graph_builds`
    /// stays at `1` while this counter grows.
    pub graph_rebuild_avoided: usize,
    /// Sweeps answered (partially or fully) from a retained
    /// [`rt_core::SweepCheckpoint`] instead of a fresh traversal.
    pub sweep_cache_hits: usize,
    /// Current footprint of the dictionary-encoding layer: total interned
    /// entries (constants + V-instance variables) across the live
    /// instance's per-attribute dictionaries. Set at build time and
    /// refreshed after every applied mutation batch; dictionaries are
    /// append-only, so within a session this only grows.
    pub dict_entries: usize,
    /// Shards of the [`rt_core::ShardPlan`] the engine was built with
    /// ([`crate::ShardRows`]); `0` for a monolithic build. Fixed at build
    /// time: mutations patch the merged conflict graph and never replan.
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
            ("components_dirtied", Slot::Count(&mut self.components_dirtied)),
            ("graph_rebuild_avoided", Slot::Count(&mut self.graph_rebuild_avoided)),
            ("sweep_cache_hits", Slot::Count(&mut self.sweep_cache_hits)),
            ("dict_entries", Slot::Gauge(&mut self.dict_entries)),
            ("shards", Slot::Gauge(&mut self.shards)),
        ]
    }
}
