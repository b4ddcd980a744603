//! Per-call costs of the stages that run inside the FD search.
//!
//! The goal test, the heuristic's cache key and the heuristic's
//! enumeration run inside `RangeSearch::next_repair`, so no span from
//! outside the search can see them. This module times the same public
//! functions the search calls — `RepairProblem::cover_for_with` and
//! `HeuristicCache::evaluate_many` — on a fixed sample of states (the
//! root's children, then grandchildren), and multiplies the per-call costs
//! by the search's exact counts. The products are estimates and are
//! labelled as such wherever they are printed.

use crate::common::{now, secs};
use crate::layers::Layers;
use rt_core::{HeuristicCache, Parallelism, RepairProblem, RepairState, SearchConfig, SearchStats};
use rt_engine::EngineStats;

/// Measured per-call costs on one problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageCosts {
    /// Goal test at the workload's thread setting, at Serial, at Auto.
    pub goal_us: f64,
    pub goal_us_serial: f64,
    pub goal_us_auto: f64,
    /// `evaluate_many` per state on a warm cache: key building plus lookup.
    pub key_us: f64,
    /// Cold minus warm `evaluate_many` time, per miss and per node.
    pub enum_us_per_miss: f64,
    pub enum_us_per_node: f64,
}

/// In-search time estimates for one search: per-call cost × exact count.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageEstimate {
    pub goal_s: f64,
    pub key_s: f64,
    pub enum_s: f64,
}

impl StageCosts {
    pub fn estimate(&self, stats: &SearchStats) -> StageEstimate {
        StageEstimate {
            goal_s: self.goal_us * stats.states_expanded as f64 / 1e6,
            key_s: self.key_us * stats.states_generated as f64 / 1e6,
            enum_s: self.enum_us_per_node * stats.heuristic_nodes as f64 / 1e6,
        }
    }
}

/// The search counters of an engine's cumulative statistics.
pub fn search_stats(es: &EngineStats) -> SearchStats {
    SearchStats {
        states_expanded: es.states_expanded,
        states_generated: es.states_generated,
        heuristic_nodes: es.heuristic_nodes,
        heuristic_cache_hits: es.heuristic_cache_hits,
        heuristic_cache_entries: es.heuristic_cache_entries,
        ..SearchStats::default()
    }
}

/// The root's children followed by their children, at most `cap` states.
fn sample_states(problem: &RepairProblem, cap: usize) -> Vec<RepairState> {
    let root = RepairState::root(problem.fd_count());
    let children = root.children(problem.sigma(), problem.arity());
    let mut out: Vec<RepairState> = children.iter().take(cap).cloned().collect();
    for child in &children {
        for grandchild in child.children(problem.sigma(), problem.arity()) {
            if out.len() >= cap {
                return out;
            }
            out.push(grandchild);
        }
    }
    out
}

/// Mean microseconds per goal test over the sample, repeating whole passes
/// until at least `min_s` seconds were measured.
fn goal_us(problem: &RepairProblem, states: &[RepairState], par: Parallelism, min_s: f64) -> f64 {
    let start = now();
    let mut calls = 0usize;
    loop {
        for s in states {
            std::hint::black_box(problem.cover_for_with(std::hint::black_box(s), par));
        }
        calls += states.len();
        if secs(start) >= min_s {
            break;
        }
    }
    secs(start) * 1e6 / calls as f64
}

/// Times the in-search stages on `problem` at budget `tau`.
pub fn measure(
    problem: &RepairProblem,
    config: &SearchConfig,
    tau: usize,
    cap: usize,
    min_s: f64,
) -> StageCosts {
    let states = sample_states(problem, cap);
    if states.is_empty() {
        return StageCosts::default();
    }
    let goal_serial = goal_us(problem, &states, Parallelism::Serial, min_s);
    let goal_auto = goal_us(problem, &states, Parallelism::Auto, min_s);
    let goal_workload = match config.parallelism {
        Parallelism::Serial => goal_serial,
        Parallelism::Auto => goal_auto,
        other => goal_us(problem, &states, other, min_s),
    };

    let refs: Vec<&RepairState> = states.iter().collect();
    let mut cache = HeuristicCache::new();
    let t = now();
    let cold = cache.evaluate_many(problem, &refs, tau, &config.heuristic, config.parallelism);
    let cold_s = secs(t);
    let misses = cold.iter().filter(|v| !v.cache_hit).count();
    let nodes: usize = cold.iter().map(|v| v.nodes).sum();
    // Warm passes are all hits: what remains is key building and lookup.
    let t = now();
    let mut passes = 0usize;
    loop {
        std::hint::black_box(cache.evaluate_many(
            problem,
            &refs,
            tau,
            &config.heuristic,
            config.parallelism,
        ));
        passes += 1;
        if secs(t) >= min_s {
            break;
        }
    }
    let warm_s = secs(t) / passes as f64;
    let enum_s = (cold_s - warm_s).max(0.0);
    StageCosts {
        goal_us: goal_workload,
        goal_us_serial: goal_serial,
        goal_us_auto: goal_auto,
        key_us: warm_s * 1e6 / states.len() as f64,
        enum_us_per_miss: if misses == 0 {
            0.0
        } else {
            enum_s * 1e6 / misses as f64
        },
        enum_us_per_node: if nodes == 0 {
            0.0
        } else {
            enum_s * 1e6 / nodes as f64
        },
    }
}

/// Exact search counters and in-search estimates summed over the searches
/// of one traced job; per-call figures are weighted by call count.
#[derive(Debug, Default)]
pub struct SearchAcc {
    expanded: f64,
    generated: f64,
    nodes: f64,
    hits: f64,
    entries: f64,
    est: StageEstimate,
    serial_s: f64,
    auto_s: f64,
    /// Per-miss cost weighted by cache entries.
    miss_weighted: f64,
}

impl SearchAcc {
    pub fn add(&mut self, costs: &StageCosts, stats: &SearchStats) {
        let est = costs.estimate(stats);
        let expanded = stats.states_expanded as f64;
        self.expanded += expanded;
        self.generated += stats.states_generated as f64;
        self.nodes += stats.heuristic_nodes as f64;
        self.hits += stats.heuristic_cache_hits as f64;
        self.entries += stats.heuristic_cache_entries as f64;
        self.est.goal_s += est.goal_s;
        self.est.key_s += est.key_s;
        self.est.enum_s += est.enum_s;
        self.serial_s += costs.goal_us_serial * expanded / 1e6;
        self.auto_s += costs.goal_us_auto * expanded / 1e6;
        self.miss_weighted += costs.enum_us_per_miss * stats.heuristic_cache_entries as f64;
    }

    /// Writes the search layers, given the measured search time.
    pub fn emit(&self, layers: &mut Layers, search_s: f64) {
        let per = |x: f64, n: f64| if n > 0.0 { x / n } else { 0.0 };
        layers.set("goal_test.calls", self.expanded);
        layers.set(
            "goal_test.us_per_call",
            per(self.est.goal_s * 1e6, self.expanded),
        );
        layers.set(
            "goal_test.us_per_call_serial",
            per(self.serial_s * 1e6, self.expanded),
        );
        layers.set(
            "goal_test.us_per_call_auto",
            per(self.auto_s * 1e6, self.expanded),
        );
        layers.set("goal_test.est_s", self.est.goal_s);
        layers.set("heuristic_key.calls", self.generated);
        layers.set(
            "heuristic_key.us_per_call",
            per(self.est.key_s * 1e6, self.generated),
        );
        layers.set("heuristic_key.est_s", self.est.key_s);
        layers.set("heuristic_enum.nodes", self.nodes);
        // Cache entries stand in for the search's misses (each entry cost
        // at least one).
        layers.set(
            "heuristic_enum.us_per_miss",
            per(self.miss_weighted, self.entries),
        );
        layers.set("heuristic_enum.est_s", self.est.enum_s);
        layers.set("heuristic.cache_hits", self.hits);
        layers.set(
            "heuristic.cache_hit_ratio",
            per(self.hits, self.hits + self.entries),
        );
        layers.set("search.s", search_s);
        layers.set("search.states_expanded", self.expanded);
        layers.set("search.states_generated", self.generated);
        layers.set("search.expansions_per_s", per(self.expanded, search_s));
        layers.set(
            "search.unestimated_s",
            search_s - self.est.goal_s - self.est.key_s - self.est.enum_s,
        );
    }
}
