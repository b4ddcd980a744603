//! # relative-trust
//!
//! Joint repair of inconsistent data and inaccurate functional dependencies
//! under *relative trust* — a Rust implementation of Beskales, Ilyas, Golab
//! and Galiullin, *"On the Relative Trust between Inconsistent Data and
//! Inaccurate Constraints"* (ICDE 2013).
//!
//! The primary public surface is the session type
//! [`RepairEngine`](prelude::RepairEngine) from the [`engine`] crate: build
//! it once from an instance and an FD set, then query it repeatedly across
//! the relative-trust spectrum. The workspace crates underneath are
//! re-exported for direct access:
//!
//! * [`engine`] — **start here**: the [`prelude::RepairEngine`] session,
//!   its fluent builder, the lazy [`prelude::RepairStream`] sweep and the
//!   unified [`prelude::EngineError`];
//! * [`relation`] — schemas, tuples, instances and V-instances;
//! * [`io`] — typed, streaming CSV/TSV ingestion that parses directly into
//!   dictionary codes (`rt_io::load_path`, `rt_io::read_instance`);
//! * [`scenarios`] — the catalog of named, seeded end-to-end workloads
//!   behind `rtclean scenario <name>`;
//! * [`par`] — the parallel execution layer: the [`prelude::Parallelism`]
//!   config and deterministic fork/join maps every other crate fans out
//!   with (results are bit-identical for every thread count);
//! * [`constraints`] — functional dependencies, violation detection,
//!   conflict graphs, difference sets and weights;
//! * [`graph`] — undirected graphs, connected components and approximate
//!   vertex cover;
//! * [`core`] — the repair algorithms themselves (τ-constrained repairs, A*
//!   FD modification, near-optimal data repair, Range-Repair);
//! * [`baseline`] — the unified-cost comparator;
//! * [`datagen`] — census-like workload generation, error injection,
//!   repair-quality metrics and seeded mutation streams;
//! * [`proto`] — the service wire protocol: typed
//!   [`Request`](prelude::Request) / [`Response`](prelude::Response) frames,
//!   line-delimited JSON framing, and the one
//!   [`EngineOpts`](prelude::EngineOpts) option surface shared by the CLI,
//!   the REPL and the server;
//! * [`server`] — `rtclean serve`: hosts named engine sessions over
//!   TCP/Unix sockets with LRU eviction and bounded memory;
//! * [`client`] — the driver: [`Client`](prelude::Client)`::connect` →
//!   [`Session`](prelude::Session) → typed methods, bit-identical results
//!   across the wire.
//!
//! ## Quick start
//!
//! ```
//! use relative_trust::prelude::*;
//!
//! // The employee relation of the paper's Figure 2.
//! let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
//! let instance = Instance::from_int_rows(
//!     schema.clone(),
//!     &[vec![1, 1, 1, 1], vec![1, 2, 1, 3], vec![2, 2, 1, 1], vec![2, 3, 4, 3]],
//! )
//! .unwrap();
//! let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
//!
//! // Build the engine once, then ask for repairs at any trust level.
//! let engine = RepairEngine::builder(instance, fds).build().unwrap();
//! for point in engine.sweep(0..=engine.delta_p_original()) {
//!     let point = point.unwrap();
//!     assert!(point.repair.modified_fds.holds_on(&point.repair.repaired_instance));
//! }
//! // The conflict graph was built exactly once, at `build()` time.
//! assert_eq!(engine.stats().conflict_graph_builds, 1);
//! ```
//!
//! ## Migrating from the free functions
//!
//! Versions up to 0.1 exposed the algorithms as free functions taking a
//! `&RepairProblem`. That surface is **removed** (a call to one no longer
//! compiles); each former function maps to one engine query:
//!
//! | removed free function               | engine replacement                          |
//! |-------------------------------------|---------------------------------------------|
//! | `RepairProblem::new(&i, &fds)`      | `RepairEngine::builder(i, fds).build()?`    |
//! | `repair_data_fds(&p, tau)`          | `engine.repair_at(tau)?`                    |
//! | `repair_data_fds_relative(&p, t)`   | `engine.repair_at_relative(t)?`             |
//! | `modify_fds_astar(&p, tau, &cfg)`   | `engine.fd_repair_at(tau)?`                 |
//! | `modify_fds_best_first(&p, tau, …)` | `engine.fd_repair_at(tau)?`                 |
//! | `find_repairs_range(&p, lo, hi, …)` | `engine.sweep(lo..=hi)` (lazy) or           |
//! |                                     | `engine.spectrum()?` (collected)            |
//! | `find_repairs_sampling(&p, …)`      | `engine.sampling_spectrum(lo..=hi, step)`   |
//! | `unified_cost_repair(&i, &fds, …)`  | `engine.unified_baseline(&cfg)`             |
//!
//! Configuration that used to be scattered across `SearchConfig`,
//! `WeightKind` and per-call seeds moves onto the builder:
//! `RepairEngine::builder(i, fds).weight(..).max_expansions(..)
//! .parallelism(..).seed(..).build()?`. Failures that used to be `Option`s
//! or panics surface as the typed [`prelude::EngineError`].
//!
//! Out of process, the same queries travel over the wire: `rtclean serve`
//! hosts sessions, and every [`Session`](prelude::Session) method maps
//! one-to-one onto an engine query (`session.repair_at(tau)` ↔
//! `engine.repair_at(tau)`), with spectra bit-identical across the two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rt_baseline as baseline;
pub use rt_client as client;
pub use rt_constraints as constraints;
pub use rt_core as core;
pub use rt_datagen as datagen;
pub use rt_engine as engine;
pub use rt_graph as graph;
pub use rt_io as io;
pub use rt_par as par;
pub use rt_proto as proto;
pub use rt_relation as relation;
pub use rt_scenarios as scenarios;
pub use rt_server as server;

/// The most commonly used items, re-exported flat. Engine first: new code
/// should only need [`RepairEngine`](prelude::RepairEngine) plus the data
/// types.
pub mod prelude {
    pub use rt_engine::{
        EngineError, EngineStats, MutationBatch, MutationEffect, MutationOp, MutationOutcome,
        RepairEngine, RepairEngineBuilder, RepairPoint, RepairStream, Spectrum,
    };

    pub use rt_baseline::{unified_cost_repair, UnifiedCostConfig, UnifiedRepair};
    pub use rt_constraints::{AttrSet, ConflictGraph, Fd, FdSet, Weight};
    pub use rt_core::{
        goal_cost_estimate, repair_data, sampling_search, HeuristicCache, HeuristicConfig,
        Parallelism, RangeSearch, Repair, RepairProblem, RepairState, SearchAlgorithm,
        SearchConfig, SearchStats, ShardPlan, WeightKind,
    };
    pub use rt_datagen::{
        evaluate_repair, generate_census_like, perturb, CensusLikeConfig, PerturbConfig,
        RepairQuality,
    };
    pub use rt_graph::{approx_vertex_cover, UndirectedGraph};
    pub use rt_io::{CsvOptions, IoError, LoadReport};
    pub use rt_relation::{
        AttrId, CellRef, ColumnType, Instance, RelationError, Schema, Tuple, Value,
    };
    pub use rt_scenarios::{Scenario, ScenarioConfig};

    pub use rt_client::{Client, ClientError, RetryPolicy, Session};
    pub use rt_proto::{EngineOpts, ErrorFrame, FrameError, Request, Response, TauSpec};
    pub use rt_server::{FaultPoint, Server, ServerConfig, ServerHandle};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_the_full_pipeline() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let engine = RepairEngine::new(instance, fds).unwrap();
        let repair = engine.repair_at(engine.delta_p_original()).unwrap();
        assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
        assert_eq!(engine.stats().conflict_graph_builds, 1);
    }
}
