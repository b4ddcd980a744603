//! Fluent construction of a [`RepairEngine`].

use crate::engine::RepairEngine;
use crate::error::EngineError;
use crate::stats::EngineStats;
use rt_constraints::FdSet;
use rt_core::{Parallelism, RepairProblem, SearchAlgorithm, SearchConfig, ShardPlan, WeightKind};
use rt_relation::Instance;

/// When (and whether) the builder shards the conflict-graph construction.
///
/// Sharding partitions the rows into blocking-closed shards
/// ([`rt_core::ShardPlan`]), builds one conflict graph per shard and merges
/// them — bit-identical to the monolithic build, but without a
/// whole-instance blocking pass and with the instance moved (never cloned)
/// into the problem. On small instances the extra partitioning pass is not
/// worth it, hence the row threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRows {
    /// Shard when the instance has at least
    /// [`ShardRows::AUTO_THRESHOLD`] rows (the default).
    #[default]
    Auto,
    /// Never shard: always run the monolithic build.
    Off,
    /// Shard when the instance has at least this many rows
    /// (`Threshold(0)` shards always).
    Threshold(usize),
}

impl ShardRows {
    /// Row count at which [`ShardRows::Auto`] starts sharding.
    pub const AUTO_THRESHOLD: usize = 100_000;

    /// Should an instance with `rows` rows be built sharded?
    pub fn applies_to(self, rows: usize) -> bool {
        match self {
            ShardRows::Auto => rows >= Self::AUTO_THRESHOLD,
            ShardRows::Off => false,
            ShardRows::Threshold(t) => rows >= t,
        }
    }

    /// Parses the CLI spelling: `auto`, `off`, or a row threshold.
    pub fn parse(s: &str) -> Result<ShardRows, String> {
        match s {
            "auto" => Ok(ShardRows::Auto),
            "off" => Ok(ShardRows::Off),
            n => n.parse::<usize>().map(ShardRows::Threshold).map_err(|_| {
                format!("invalid shard threshold `{n}` (use auto, off, or a row count)")
            }),
        }
    }

    /// The stable spelling (inverse of [`ShardRows::parse`]).
    pub fn spec(self) -> String {
        match self {
            ShardRows::Auto => "auto".to_string(),
            ShardRows::Off => "off".to_string(),
            ShardRows::Threshold(t) => t.to_string(),
        }
    }
}

/// Builder returned by [`RepairEngine::builder`].
///
/// Every knob has a sensible default (the paper's experimental setup):
/// distinct-count weighting, A* search, a 500 000-state expansion cap,
/// automatic parallelism and seed 0 for the data-repair step.
///
/// ```
/// use rt_engine::{RepairEngine, SearchAlgorithm, WeightKind, Parallelism};
/// use rt_relation::{Instance, Schema};
/// use rt_constraints::FdSet;
///
/// let schema = Schema::new("R", vec!["A", "B"]).unwrap();
/// let instance = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
/// let fds = FdSet::parse(&["A->B"], &schema).unwrap();
/// let engine = RepairEngine::builder(instance, fds)
///     .weight(WeightKind::Entropy)
///     .parallelism(Parallelism::Auto)
///     .algorithm(SearchAlgorithm::AStar)
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
    algorithm: SearchAlgorithm,
    max_expansions: usize,
    heuristic_cache: bool,
    seed: u64,
    shard_rows: ShardRows,
}

impl RepairEngineBuilder {
    pub(crate) fn new(instance: Instance, fds: FdSet) -> Self {
        let defaults = SearchConfig::default();
        RepairEngineBuilder {
            instance,
            fds,
            weight: WeightKind::DistinctCount,
            parallelism: defaults.parallelism,
            algorithm: SearchAlgorithm::AStar,
            max_expansions: defaults.max_expansions,
            heuristic_cache: defaults.heuristic_cache,
            seed: 0,
            shard_rows: ShardRows::Auto,
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

    /// Which FD-modification search to run (default:
    /// [`SearchAlgorithm::AStar`]).
    pub fn algorithm(mut self, algorithm: SearchAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Hard cap on expanded search states per query (default: 500 000).
    /// Must be at least 1.
    pub fn max_expansions(mut self, max_expansions: usize) -> Self {
        self.max_expansions = max_expansions;
        self
    }

    /// Memoize the structural half of the A* heuristic `gc(S)` across
    /// states and `τ` values (default: `true`). Results are bit-identical
    /// either way; `false` forces the uncached per-state enumeration, the
    /// reference path the equivalence tests compare against.
    pub fn heuristic_cache(mut self, enabled: bool) -> Self {
        self.heuristic_cache = enabled;
        self
    }

    /// Seed for the randomized data-repair step (default: 0). Two engines
    /// built with the same seed produce identical repaired instances.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// When to shard the conflict-graph build (default:
    /// [`ShardRows::Auto`]). Sharded and monolithic builds are bit-identical;
    /// sharding only changes how the graph is constructed (per blocking-closed
    /// row shard, then merged) and the `conflict_graph_builds` / `shards`
    /// accounting in [`EngineStats`].
    pub fn shard_rows(mut self, shard_rows: ShardRows) -> Self {
        self.shard_rows = shard_rows;
        self
    }

    /// Validates the configuration and prepares the engine: the conflict
    /// graph of `(I, Σ)` and its difference-set index are built here,
    /// exactly once for the lifetime of the engine.
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

        let sharded = self.shard_rows.applies_to(self.instance.len());
        let (problem, graph_builds, shards) = if sharded {
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
            let problem = RepairProblem::with_weight_owned(
                self.instance,
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
            heuristic_cache: self.heuristic_cache,
            ..SearchConfig::default()
        };
        Ok(RepairEngine::from_parts(
            problem,
            search_config,
            self.algorithm,
            self.seed,
            stats,
        ))
    }
}
