//! # rt-core
//!
//! Relative-trust-aware joint repair of data and functional dependencies —
//! the primary contribution of Beskales, Ilyas, Golab and Galiullin,
//! *"On the Relative Trust between Inconsistent Data and Inaccurate
//! Constraints"* (ICDE 2013).
//!
//! Given an instance `I` and an FD set `Σ` that `I` violates, the library
//! produces repairs `(Σ', I')` where `Σ'` relaxes FDs of `Σ` by appending
//! attributes to their left-hand sides and `I'` modifies at most `τ` cells of
//! `I`, such that `I' |= Σ'`. The *relative trust* parameter `τ` spans the
//! spectrum from "trust the constraints, fix the data" (`τ` large) to "trust
//! the data, fix the constraints" (`τ = 0`).
//!
//! ## Entry points
//!
//! The recommended public surface is the session type
//! `rt_engine::RepairEngine`, which owns a prepared [`RepairProblem`] and
//! serves repeated queries. The primitives it is built from live here:
//!
//! * [`RepairProblem`] — bundles the instance, the FDs, the conflict graph
//!   and the weighting function; everything else operates on it.
//! * [`repair::repair_data_fds_with`] — Algorithm 1: one `τ`-constrained
//!   repair.
//! * [`search::run_search`] — Algorithm 2 (A*) and the best-first baseline:
//!   minimal FD relaxation for a given `τ`.
//! * [`data_repair::repair_data`] — Algorithms 4 & 5: near-optimal data
//!   repair for a fixed (possibly relaxed) FD set, returning a V-instance.
//! * [`multi::RangeSearch`] / [`multi::sampling_search`] — Algorithm 6
//!   (Range-Repair, resumable and checkpointable) and the Sampling-Repair
//!   comparator: a set of repairs covering a whole range of relative-trust
//!   values.
//! * [`mutation`] — live inserts/deletes/cell updates and FD edits of a
//!   prepared [`RepairProblem`], maintained incrementally (delta partition
//!   maintenance + edge-level conflict-graph patching) instead of rebuilt.
//!
//! The historical free-function conveniences (`repair_data_fds`,
//! `find_repairs_range`, `modify_fds_astar`, …) are gone — `rt-lint` D005
//! fails the build if one is reintroduced. New code should go through the
//! engine (or, for one-shot use, these fully parameterized primitives).
//!
//! ```
//! use rt_relation::{Instance, Schema};
//! use rt_constraints::FdSet;
//! use rt_core::{RepairProblem, SearchAlgorithm, SearchConfig, repair::repair_data_fds_with};
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
//! let problem = RepairProblem::new(&instance, &fds);
//! // Allow at most 2 cell changes: the paper says the best FD repairs are
//! // then CA->B / DA->B combined with C->D.
//! let repair =
//!     repair_data_fds_with(&problem, 2, &SearchConfig::default(), SearchAlgorithm::AStar, 0)
//!         .expect("a repair exists");
//! assert!(repair.modified_fds.holds_on(&repair.repaired_instance));
//! assert!(repair.data_changes() <= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data_repair;
pub mod heuristic;
pub mod multi;
pub mod mutation;
pub mod problem;
pub mod repair;
pub mod search;
pub mod shard;
pub mod state;

pub use data_repair::{repair_data, repair_data_par, DataRepairOutcome};
pub use heuristic::{
    goal_cost_estimate, CacheEntryExport, HeuristicCache, HeuristicConfig, HeuristicValue,
};
pub use multi::{
    sampling_search, MultiRepairOutcome, RangeSearch, RangedFdRepair, SweepCheckpoint,
    SweepCheckpointParts,
};
pub use mutation::{MutationEffect, MutationOp};
pub use problem::{RepairProblem, WeightKind};
pub use repair::Repair;
pub use rt_par::Parallelism;
pub use search::{
    run_search, FdRepair, FdRepairOutcome, SearchAlgorithm, SearchConfig, SearchStats,
};
pub use shard::ShardPlan;
pub use state::RepairState;
