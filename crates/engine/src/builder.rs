//! Fluent construction of a [`RepairEngine`].

use crate::engine::RepairEngine;
use crate::error::EngineError;
use crate::stats::EngineStats;
use rt_constraints::FdSet;
use rt_core::{Parallelism, RepairProblem, SearchConfig, ShardPlan, WeightKind};
use rt_relation::Instance;

/// Row count from which [`RepairEngineBuilder::build`] shards the
/// conflict-graph construction: it partitions the rows into
/// blocking-closed shards ([`ShardPlan`]), builds one conflict graph per
/// shard and merges them, bit-identical to the monolithic build but without
/// a whole-instance blocking pass. Below it the extra partitioning pass is
/// not worth it.
const SHARD_ROWS: usize = 100_000;

/// Builder returned by [`RepairEngine::builder`].
///
/// Four options, each with the default of the paper's experimental setup:
/// distinct-count weighting, automatic parallelism, a 500 000-state
/// expansion cap and seed 0 for the data-repair step. Queries always run
/// A* with the memoized heuristic; the conflict graph is built sharded
/// from 100 000 rows on. Best-first search, the uncached heuristic and a
/// forced build path are reached through `rt_core` directly.
///
/// ```
/// use rt_engine::{RepairEngine, WeightKind, Parallelism};
/// use rt_relation::{Instance, Schema};
/// use rt_constraints::FdSet;
///
/// let schema = Schema::new("R", vec!["A", "B"]).unwrap();
/// let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
/// let fds = FdSet::parse(&["A->B"], &schema).unwrap();
/// let engine = RepairEngine::builder(instance, fds)
///     .weight(WeightKind::Entropy)
///     .parallelism(Parallelism::Auto)
///     .max_expansions(100_000)
///     .build()
///     .unwrap();
/// assert!(engine.delta_p_original() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RepairEngineBuilder {
    instance: Instance,
    fds: FdSet,
    weight: WeightKind,
    parallelism: Parallelism,
    max_expansions: usize,
    seed: u64,
}

impl RepairEngineBuilder {
    pub(crate) fn new(instance: Instance, fds: FdSet) -> Self {
        let defaults = SearchConfig::default();
        RepairEngineBuilder {
            instance,
            fds,
            weight: WeightKind::DistinctCount,
            parallelism: defaults.parallelism,
            max_expansions: defaults.max_expansions,
            seed: 0,
        }
    }

    /// Which weighting function `w(Y)` prices LHS extensions
    /// (default: [`WeightKind::DistinctCount`], the paper's choice).
    pub fn weight(mut self, weight: WeightKind) -> Self {
        self.weight = weight;
        self
    }

    /// Worker threads for every parallel stage of the pipeline (default:
    /// [`Parallelism::Auto`]). Results are bit-identical for every setting.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Hard cap on expanded search states per query (default: 500 000).
    /// Must be at least 1.
    pub fn max_expansions(mut self, max_expansions: usize) -> Self {
        self.max_expansions = max_expansions;
        self
    }

    /// Seed for the randomized data-repair step (default: 0). Two engines
    /// built with the same seed produce identical repaired instances.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration and prepares the engine: the conflict
    /// graph of `(I, Σ)` and its difference-set index are built here,
    /// exactly once for the lifetime of the engine, sharded when the
    /// instance has at least 100 000 rows.
    pub fn build(self) -> Result<RepairEngine, EngineError> {
        if self.max_expansions == 0 {
            return Err(EngineError::InvalidConfig(
                "max_expansions must be at least 1 (the search has to expand the root)".into(),
            ));
        }
        if self.fds.is_empty() {
            return Err(EngineError::InvalidConfig(
                "the FD set is empty — there is nothing to repair against".into(),
            ));
        }
        let arity = self.instance.schema().arity();
        for (i, fd) in self.fds.iter() {
            if let Some(max) = fd.attributes().max_attr() {
                if max.0 as usize >= arity {
                    return Err(EngineError::Fd(format!(
                        "FD #{i} refers to attribute {} but the instance has only {arity} \
                         attributes",
                        max.0
                    )));
                }
            }
        }

        let (problem, graph_builds, shards) = if self.instance.len() >= SHARD_ROWS {
            let plan = ShardPlan::compute(&self.instance, &self.fds);
            let problem = RepairProblem::from_sharded(
                self.instance,
                &self.fds,
                &plan,
                self.weight,
                self.parallelism,
            )
            .map_err(EngineError::InvalidConfig)?;
            (problem, plan.shard_count(), plan.shard_count())
        } else {
            let problem = RepairProblem::with_weight_par(
                &self.instance,
                &self.fds,
                self.weight,
                self.parallelism,
            );
            (problem, 1, 0)
        };
        let stats = EngineStats {
            conflict_graph_builds: graph_builds,
            shards,
            dict_entries: problem.instance().dict_entries(),
            ..Default::default()
        };
        let search_config = SearchConfig {
            max_expansions: self.max_expansions,
            parallelism: self.parallelism,
            ..SearchConfig::default()
        };
        Ok(RepairEngine::from_parts(
            problem,
            search_config,
            self.seed,
            stats,
        ))
    }
}
