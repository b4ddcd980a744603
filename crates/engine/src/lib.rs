//! # rt-engine
//!
//! The session-oriented public surface of the relative-trust repair system
//! (Beskales, Ilyas, Golab and Galiullin, ICDE 2013).
//!
//! The paper's central object is the *spectrum* of repairs obtained by
//! sweeping the relative-trust budget `τ` over one fixed `(I, Σ)`. A
//! [`RepairEngine`] embodies exactly that workflow: it is built **once**
//! from an instance and an FD set — paying for the conflict graph and its
//! difference-set index exactly once — and then serves repeated queries
//! anywhere on the spectrum, lazily and from cached state.
//!
//! ```
//! use rt_engine::{RepairEngine, WeightKind};
//! use rt_relation::{Instance, Schema};
//! use rt_constraints::FdSet;
//!
//! // Figure 2 of the paper.
//! let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
//! let instance = Instance::from_int_rows(
//!     schema.clone(),
//!     &[vec![1, 1, 1, 1], vec![1, 2, 1, 3], vec![2, 2, 1, 1], vec![2, 3, 4, 3]],
//! )
//! .unwrap();
//! let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
//!
//! // Build the session once...
//! let engine = RepairEngine::builder(instance, fds)
//!     .weight(WeightKind::AttrCount)
//!     .build()
//!     .unwrap();
//!
//! // ...then query it: one repair at a chosen trust level...
//! let repair = engine.repair_at(2).unwrap();
//! assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
//!
//! // ...or the whole spectrum, streamed lazily.
//! for point in engine.sweep(0..=engine.delta_p_original()) {
//!     let point = point.unwrap();
//!     assert!(point.repair.modified_fds.holds_on(&point.repair.repaired_instance));
//! }
//!
//! // The expensive preparation ran exactly once for all of the above.
//! assert_eq!(engine.stats().conflict_graph_builds, 1);
//! ```
//!
//! ## Live mutations
//!
//! The session survives changes to its data and constraints: a
//! [`MutationBatch`] (or the per-op conveniences) edits `(I, Σ)` in place
//! and the prepared state is patched *incrementally* — equivalence
//! partitions move the touched rows, the conflict graph is patched at the
//! edge level around them, and the conflict graph is **never rebuilt**:
//!
//! ```
//! use rt_engine::{MutationBatch, RepairEngine, WeightKind};
//! use rt_relation::{CellRef, AttrId, Instance, Schema, Value};
//! use rt_constraints::FdSet;
//!
//! let schema = Schema::new("R", vec!["A", "B"]).unwrap();
//! let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
//! let fds = FdSet::parse(&["A->B"], &schema).unwrap();
//! let mut engine = RepairEngine::builder(instance, fds)
//!     .weight(WeightKind::AttrCount)
//!     .build()
//!     .unwrap();
//!
//! // A live insert and a cell fix, applied atomically.
//! let outcome = engine
//!     .apply(
//!         &MutationBatch::new()
//!             .insert_row(vec![Value::int(2), Value::int(5)])
//!             .update_cell(CellRef::new(1, AttrId(1)), Value::int(1)),
//!     )
//!     .unwrap();
//! assert_eq!(outcome.effect.rows_inserted, 1);
//!
//! // Still the same session — and still exactly one graph build; the
//! // batch patched the graph instead of forcing a rebuild.
//! let stats = engine.stats();
//! assert_eq!(stats.conflict_graph_builds, 1);
//! assert_eq!(stats.mutation_batches, 1);
//! assert!(engine.spectrum().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod engine;
mod error;
pub mod json;
mod mutation;
pub mod mutation_log;
pub mod snapshot;
mod stats;
mod stream;

pub use builder::RepairEngineBuilder;
pub use engine::RepairEngine;
pub use error::EngineError;
pub use mutation::{MutationBatch, MutationOutcome};
pub use mutation_log::{decode_mutation_log, parse_mutation_log, render_mutation_log};
pub use snapshot::{crc32, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stats::EngineStats;
pub use stream::{RepairPoint, RepairStream, Spectrum};

// The vocabulary types an engine user needs, re-exported so `rt_engine`
// works as a one-stop import.
pub use rt_baseline::{UnifiedCostConfig, UnifiedRepair};
pub use rt_constraints::{Fd, FdSet};
pub use rt_core::heuristic::HeuristicCache;
pub use rt_core::{
    FdRepair, MutationEffect, MutationOp, Parallelism, Repair, RepairProblem, SearchStats,
    ShardPlan, WeightKind,
};
