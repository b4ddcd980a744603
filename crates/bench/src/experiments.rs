//! Experiment drivers — one function per table/figure of the paper.
//!
//! Every driver returns plain rows (each converts to a JSON object) so the
//! `exp` binary can print them as a table and dump them as JSON. [`ExpArgs`]
//! is that binary's command line.

use crate::report::json_row;
use crate::workloads::{Scale, Workload, WorkloadSpec};
use rt_baseline::UnifiedCostConfig;
use rt_constraints::ConflictGraph;
use rt_core::data_repair::repair_data_with_cover_par;
use rt_core::{
    sampling_search, Parallelism, RangeSearch, RepairProblem, SearchAlgorithm, SearchConfig,
    WeightKind,
};
use rt_datagen::evaluate_repair;
use rt_graph::approx_vertex_cover_with;
use rt_par::par_map_coarse;
use std::time::Instant;

/// The four error-rate mixes of Figures 7 and 8: `(fd_error, data_error)`.
pub const ERROR_MIXES: [(f64, f64); 4] = [(0.8, 0.0), (0.5, 0.05), (0.3, 0.05), (0.0, 0.05)];

// ---------------------------------------------------------------------------
// The `exp` command line
// ---------------------------------------------------------------------------

/// The experiments `exp` runs, by command-line name: Figures 7–13 in paper
/// order, then the parallel layer's serial-vs-parallel check.
pub const FIGURES: [&str; 8] = [
    "quality-vs-trust",
    "vs-unified-cost",
    "scal-tuples",
    "scal-attrs",
    "scal-fds",
    "effect-tau",
    "multi-repairs",
    "par-speedup",
];

/// The parsed `exp <figure> [--scale smoke|default|paper] [--threads N]`
/// command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpArgs {
    /// Which experiment to run, one of [`FIGURES`].
    pub figure: &'static str,
    /// Workload size (default [`Scale::Default`]).
    pub scale: Scale,
    /// Parallel setting for the figures with parallel stages (7, 8, 13 and
    /// `par-speedup`); default [`Parallelism::Auto`].
    pub threads: Parallelism,
}

impl ExpArgs {
    /// Parses the arguments after the program name. Unknown figures,
    /// scales, thread counts and flags are errors, never silent defaults.
    pub fn parse(args: &[String]) -> Result<ExpArgs, String> {
        let mut figure = None;
        let mut scale = Scale::Default;
        let mut threads = Parallelism::Auto;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let mut value = || args.next().ok_or(format!("`{arg}` needs a value"));
            match arg.as_str() {
                "--scale" => scale = value()?.parse()?,
                "--threads" => threads = Parallelism::parse(value()?)?,
                flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
                name if figure.is_none() => {
                    let known = FIGURES.into_iter().find(|f| *f == name);
                    figure = Some(known.ok_or(format!("unknown figure `{name}`"))?);
                }
                extra => return Err(format!("unexpected argument `{extra}`")),
            }
        }
        Ok(ExpArgs {
            figure: figure.ok_or("missing figure")?,
            scale,
            threads,
        })
    }
}

// ---------------------------------------------------------------------------
// Figure 7: repair quality vs. relative trust
// ---------------------------------------------------------------------------

json_row! {
    /// One point of Figure 7.
    #[derive(Debug, Clone)]
    pub struct QualityRow {
        /// Fraction of LHS attributes removed from the clean FD.
        pub fd_error_rate: f64,
        /// Fraction of corrupted cells.
        pub data_error_rate: f64,
        /// Relative trust (fraction of `δ_P(Σ_d, I_d)` allowed as cell changes).
        pub tau_r: f64,
        /// Data F-score.
        pub data_f: f64,
        /// FD F-score.
        pub fd_f: f64,
        /// Combined F-score (the paper's y-axis).
        pub combined_f: f64,
        /// Cells the repair modified.
        pub cells_modified: usize,
        /// Attributes the repair appended.
        pub attrs_appended: usize,
    }
}

/// Figure 7: combined F-score for each error mix across a sweep of `τ_r`.
///
/// The four error mixes are independent end-to-end pipelines (generate →
/// perturb → repair → score), so each runs on its own worker thread; rows
/// come back in mix order, identical to the serial sweep. The search inside
/// each mix runs serially — the mixes are the coarsest unit of work.
pub fn quality_vs_trust(scale: Scale, par: Parallelism) -> Vec<QualityRow> {
    let tuples = scale.tuples(1000);
    let tau_values = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];
    let per_mix: Vec<Vec<QualityRow>> = par_map_coarse(par, ERROR_MIXES.len(), |m| {
        let (fd_error_rate, data_error_rate) = ERROR_MIXES[m];
        let workload = Workload::build(&WorkloadSpec {
            tuples,
            attributes: 12,
            fd_count: 1,
            lhs_size: 6,
            data_error_rate,
            fd_error_rate,
            seed: 17,
        });
        // One engine session per mix: the conflict graph is built once and
        // every τ_r of the sweep queries it.
        let engine = workload.engine(Parallelism::Serial, SearchConfig::default().max_expansions);
        let mut rows = Vec::new();
        for &tau_r in &tau_values {
            let Ok(repair) = engine.repair_at_relative(tau_r) else {
                continue;
            };
            let quality = evaluate_repair(
                &workload.truth,
                &repair.modified_fds,
                &repair.repaired_instance,
            );
            rows.push(QualityRow {
                fd_error_rate,
                data_error_rate,
                tau_r,
                data_f: quality.data_f,
                fd_f: quality.fd_f,
                combined_f: quality.combined_f,
                cells_modified: quality.cells_modified,
                attrs_appended: quality.attrs_appended,
            });
        }
        rows
    });
    per_mix.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Figure 8: best achievable quality, relative-trust vs. unified-cost
// ---------------------------------------------------------------------------

json_row! {
    /// One row of the Figure 8 table.
    #[derive(Debug, Clone)]
    pub struct ComparisonRow {
        /// Which repair system produced the row.
        pub algorithm: String,
        /// Fraction of LHS attributes removed from the clean FD.
        pub fd_error_rate: f64,
        /// Fraction of corrupted cells.
        pub data_error_rate: f64,
        /// FD precision.
        pub fd_precision: f64,
        /// FD recall.
        pub fd_recall: f64,
        /// Data precision.
        pub data_precision: f64,
        /// Data recall.
        pub data_recall: f64,
        /// Combined F-score (the paper reports the best setting per algorithm).
        pub combined_f: f64,
        /// For the relative-trust system: the τ_r that achieved the best score.
        pub best_tau_r: Option<f64>,
    }
}

/// Figure 8: the maximum quality achievable by the relative-trust approach
/// (over a sweep of `τ_r`) versus the single repair of the unified-cost
/// baseline, for each error mix. Like [`quality_vs_trust`], the error mixes
/// fan out one per worker thread.
pub fn versus_unified_cost(scale: Scale, par: Parallelism) -> Vec<ComparisonRow> {
    let tuples = scale.tuples(800);
    let tau_values = [0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0];
    let per_mix: Vec<Vec<ComparisonRow>> = par_map_coarse(par, ERROR_MIXES.len(), |m| {
        let (fd_error_rate, data_error_rate) = ERROR_MIXES[m];
        let mut rows = Vec::new();
        let workload = Workload::build(&WorkloadSpec {
            tuples,
            attributes: 12,
            fd_count: 1,
            lhs_size: 6,
            data_error_rate,
            fd_error_rate,
            seed: 23,
        });
        // One engine session per mix serves both systems: the unified-cost
        // baseline and the relative-trust sweep share its conflict graph.
        let engine = workload.engine(Parallelism::Serial, SearchConfig::default().max_expansions);

        // --- unified-cost baseline (one repair, fixed trade-off) ---
        let unified = engine.unified_baseline(&UnifiedCostConfig {
            seed: workload.spec.seed,
            ..Default::default()
        });
        let unified_quality = evaluate_repair(
            &workload.truth,
            &unified.modified_fds,
            &unified.repaired_instance,
        );
        rows.push(ComparisonRow {
            algorithm: "Uniform-Cost".to_string(),
            fd_error_rate,
            data_error_rate,
            fd_precision: unified_quality.fd_precision,
            fd_recall: unified_quality.fd_recall,
            data_precision: unified_quality.data_precision,
            data_recall: unified_quality.data_recall,
            combined_f: unified_quality.combined_f,
            best_tau_r: None,
        });

        // --- relative-trust repairs across τ_r; keep the best ---
        let mut best: Option<(f64, rt_datagen::RepairQuality)> = None;
        for &tau_r in &tau_values {
            let Ok(repair) = engine.repair_at_relative(tau_r) else {
                continue;
            };
            let quality = evaluate_repair(
                &workload.truth,
                &repair.modified_fds,
                &repair.repaired_instance,
            );
            if best
                .as_ref()
                .map(|(_, q)| quality.combined_f > q.combined_f)
                .unwrap_or(true)
            {
                best = Some((tau_r, quality));
            }
        }
        if let Some((tau_r, quality)) = best {
            rows.push(ComparisonRow {
                algorithm: "Relative-Trust".to_string(),
                fd_error_rate,
                data_error_rate,
                fd_precision: quality.fd_precision,
                fd_recall: quality.fd_recall,
                data_precision: quality.data_precision,
                data_recall: quality.data_recall,
                combined_f: quality.combined_f,
                best_tau_r: Some(tau_r),
            });
        }
        rows
    });
    per_mix.into_iter().flatten().collect()
}

// ---------------------------------------------------------------------------
// Figures 9–12: performance of A*-Repair vs Best-First-Repair
// ---------------------------------------------------------------------------

json_row! {
    /// One performance measurement (a point on Figures 9–12).
    #[derive(Debug, Clone)]
    pub struct PerfRow {
        /// Which search produced the row (`A*-Repair` / `Best-First-Repair`).
        pub algorithm: String,
        /// Number of tuples of the workload.
        pub tuples: usize,
        /// Number of attributes of the workload.
        pub attributes: usize,
        /// Number of FDs.
        pub fds: usize,
        /// Relative trust used.
        pub tau_r: f64,
        /// Wall-clock seconds of the search.
        pub seconds: f64,
        /// States popped from the open list.
        pub states_visited: usize,
        /// `true` when the expansion cap stopped the search early.
        pub truncated: bool,
    }
}

fn measure_search(
    workload: &Workload,
    tau_r: f64,
    algorithm: SearchAlgorithm,
    config: &SearchConfig,
) -> PerfRow {
    let problem = RepairProblem::with_weight(
        workload.dirty_instance(),
        workload.dirty_fds(),
        WeightKind::DistinctCount,
    );
    let tau = problem.absolute_tau(tau_r);
    let (outcome, seconds) =
        timed(|| rt_core::search::run_search(&problem, tau, config, algorithm));
    PerfRow {
        algorithm: match algorithm {
            SearchAlgorithm::AStar => "A*-Repair".to_string(),
            SearchAlgorithm::BestFirst => "Best-First-Repair".to_string(),
        },
        tuples: workload.spec.tuples,
        attributes: workload.spec.attributes,
        fds: workload.spec.fd_count,
        tau_r,
        seconds,
        states_visited: outcome.stats.states_expanded,
        truncated: outcome.stats.truncated,
    }
}

/// Default expansion cap used by the performance experiments: large enough
/// that A* never hits it on the default workloads, small enough that
/// Best-First terminates in reasonable time when it struggles (the paper
/// simply reports ">24h" in those cases).
fn perf_config() -> SearchConfig {
    SearchConfig {
        max_expansions: 10_000,
        ..Default::default()
    }
}

/// Figure 9: runtime and visited states as the number of tuples grows
/// (2 FDs, τ_r = 1%).
pub fn scalability_tuples(scale: Scale) -> Vec<PerfRow> {
    let base = match scale {
        Scale::Smoke => vec![200, 400],
        Scale::Default => vec![500, 1000, 2000],
        Scale::Paper => vec![1000, 5000, 10_000, 20_000, 40_000, 60_000],
    };
    let mut rows = Vec::new();
    for tuples in base {
        let workload = Workload::build(&WorkloadSpec {
            tuples,
            attributes: 12,
            fd_count: 2,
            lhs_size: 4,
            data_error_rate: 0.002,
            fd_error_rate: 0.5,
            seed: 31,
        });
        for algorithm in [SearchAlgorithm::AStar, SearchAlgorithm::BestFirst] {
            rows.push(measure_search(&workload, 0.01, algorithm, &perf_config()));
        }
    }
    rows
}

/// Figure 10: runtime as the number of attributes grows (2 FDs, τ_r = 1%).
pub fn scalability_attributes(scale: Scale) -> Vec<PerfRow> {
    let attrs = match scale {
        Scale::Smoke => vec![8, 10],
        Scale::Default => vec![8, 12, 16, 20],
        Scale::Paper => vec![8, 12, 16, 20, 26, 32],
    };
    let tuples = scale.tuples(1000);
    let mut rows = Vec::new();
    for attributes in attrs {
        let workload = Workload::build(&WorkloadSpec {
            tuples,
            attributes,
            fd_count: 2,
            lhs_size: 4,
            data_error_rate: 0.002,
            fd_error_rate: 0.5,
            seed: 37,
        });
        for algorithm in [SearchAlgorithm::AStar, SearchAlgorithm::BestFirst] {
            rows.push(measure_search(&workload, 0.01, algorithm, &perf_config()));
        }
    }
    rows
}

/// Figure 11: runtime as the number of FDs grows (τ_r = 1%).
pub fn scalability_fds(scale: Scale) -> Vec<PerfRow> {
    let fd_counts = match scale {
        Scale::Smoke => vec![1, 2],
        Scale::Default => vec![1, 2, 3, 4],
        Scale::Paper => vec![1, 2, 3, 4],
    };
    let tuples = scale.tuples(500);
    let mut rows = Vec::new();
    for fd_count in fd_counts {
        let workload = Workload::build(&WorkloadSpec {
            tuples,
            attributes: 14,
            fd_count,
            lhs_size: 3,
            data_error_rate: 0.002,
            fd_error_rate: 0.4,
            seed: 41,
        });
        for algorithm in [SearchAlgorithm::AStar, SearchAlgorithm::BestFirst] {
            rows.push(measure_search(&workload, 0.01, algorithm, &perf_config()));
        }
    }
    rows
}

/// Figure 12: runtime and visited states as `τ_r` varies (1 FD).
pub fn effect_of_tau(scale: Scale) -> Vec<PerfRow> {
    let tuples = scale.tuples(1000);
    let tau_values = [0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.99];
    let workload = Workload::build(&WorkloadSpec {
        tuples,
        attributes: 12,
        fd_count: 1,
        lhs_size: 6,
        data_error_rate: 0.005,
        fd_error_rate: 0.5,
        seed: 43,
    });
    let mut rows = Vec::new();
    for &tau_r in &tau_values {
        for algorithm in [SearchAlgorithm::AStar, SearchAlgorithm::BestFirst] {
            rows.push(measure_search(&workload, tau_r, algorithm, &perf_config()));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 13: generating multiple repairs
// ---------------------------------------------------------------------------

json_row! {
    /// One point of Figure 13.
    #[derive(Debug, Clone)]
    pub struct MultiRepairRow {
        /// Strategy (`Range-Repair` or `Sampling-Repair`).
        pub algorithm: String,
        /// Upper end of the τ_r range (the x-axis of Figure 13).
        pub max_tau_r: f64,
        /// Wall-clock seconds.
        pub seconds: f64,
        /// Number of distinct FD repairs found.
        pub repairs_found: usize,
        /// States expanded in total.
        pub states_visited: usize,
    }
}

/// Figure 13: Range-Repair (Algorithm 6) vs Sampling-Repair runtime for a
/// growing range `τ_r ∈ [0, max]`; `par` drives the engine's parallel stages.
pub fn multi_repair_comparison(scale: Scale, par: Parallelism) -> Vec<MultiRepairRow> {
    let tuples = scale.tuples(1000);
    let max_values = [0.1, 0.2, 0.3];
    // No injected cell errors: every conflict stems from the weakened FD, so
    // every τ-range down to τ = 0 contains at least one repair (mirroring the
    // paper's Figure 13 setup, which always finds repairs in [0, max τ_r]).
    let workload = Workload::build(&WorkloadSpec {
        tuples,
        attributes: 12,
        fd_count: 1,
        lhs_size: 6,
        data_error_rate: 0.0,
        fd_error_rate: 0.5,
        seed: 47,
    });
    // One engine serves every range of the figure; Range-Repair and
    // Sampling-Repair are two query styles over the same session.
    let engine = workload.engine(par, perf_config().max_expansions);
    let reference = engine.delta_p_original();
    let mut rows = Vec::new();
    for &max_tau_r in &max_values {
        let tau_high = ((reference as f64) * max_tau_r).ceil() as usize;

        // This figure measures the FD search only, so drive the engine's
        // resumable RangeSearch directly instead of the materializing
        // sweep: same traversal and stats, no data repairs built just to
        // be counted.
        let search = RangeSearch::new(engine.problem(), 0, tau_high, engine.search_config());
        let (range, seconds) = timed(|| search.run_to_end());
        rows.push(MultiRepairRow {
            algorithm: "Range-Repair".to_string(),
            max_tau_r,
            seconds,
            repairs_found: range.repairs.len(),
            states_visited: range.stats.states_expanded,
        });

        // The paper samples τ_r in steps of 1.7% of δ_P.
        let step = (((reference as f64) * 0.017).ceil() as usize).max(1);
        let (sampling, seconds) = timed(|| {
            rt_core::sampling_search(engine.problem(), 0, tau_high, step, engine.search_config())
        });
        rows.push(MultiRepairRow {
            algorithm: "Sampling-Repair".to_string(),
            max_tau_r,
            seconds,
            repairs_found: sampling.repairs.len(),
            states_visited: sampling.stats.states_expanded,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Parallel execution layer: serial vs parallel, stage by stage
// ---------------------------------------------------------------------------

json_row! {
    /// One stage's serial-vs-parallel measurement.
    #[derive(Debug, Clone)]
    pub struct SpeedupRow {
        /// Pipeline stage.
        pub stage: String,
        /// Wall-clock seconds under [`Parallelism::Serial`].
        pub serial_seconds: f64,
        /// Wall-clock seconds under the requested setting.
        pub parallel_seconds: f64,
        /// `serial_seconds / parallel_seconds`.
        pub speedup: f64,
        /// Whether the two outputs are equal (the layer's hard invariant).
        pub identical: bool,
    }
}

/// Runs `f` once and returns its output with the wall-clock seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Times `f` under both settings and checks the outputs match.
fn measure_speedup<T: PartialEq>(
    stage: &str,
    par: Parallelism,
    f: impl Fn(Parallelism) -> T,
) -> SpeedupRow {
    // Untimed warm-up so allocator and page-cache effects don't skew the
    // serial (first) measurement.
    let _ = f(Parallelism::Serial);
    let (serial_out, serial_seconds) = timed(|| f(Parallelism::Serial));
    let (parallel_out, parallel_seconds) = timed(|| f(par));
    SpeedupRow {
        stage: stage.to_string(),
        serial_seconds,
        parallel_seconds,
        speedup: serial_seconds / parallel_seconds.max(1e-12),
        identical: serial_out == parallel_out,
    }
}

/// Wall-clock speedup of the parallel execution layer over the serial path
/// on one conflict-heavy workload: every stage runs under
/// [`Parallelism::Serial`] and under `par`, and each row records whether
/// the two outputs are identical.
pub fn par_speedup(scale: Scale, par: Parallelism) -> Vec<SpeedupRow> {
    // One weakened 6-attribute FD over 5k tuples (paper-scale conflict
    // graphs at Default scale).
    let workload = Workload::build(&WorkloadSpec {
        tuples: scale.tuples(5000),
        attributes: 12,
        fd_count: 1,
        lhs_size: 6,
        data_error_rate: 0.01,
        fd_error_rate: 0.5,
        seed: 3,
    });
    let instance = workload.dirty_instance();
    let fds = workload.dirty_fds();

    let mut rows = vec![measure_speedup("conflict_graph_build", par, |p| {
        ConflictGraph::build_with(instance, fds, p)
    })];

    let graph = ConflictGraph::build(instance, fds).to_graph();
    rows.push(measure_speedup("vertex_cover", par, |p| {
        approx_vertex_cover_with(&graph, p)
    }));

    let cover: Vec<usize> = approx_vertex_cover_with(&graph, par).iter().collect();
    rows.push(measure_speedup("data_repair_alg4", par, |p| {
        let out = repair_data_with_cover_par(instance, fds, &cover, 7, p);
        (out.repaired, out.changed_cells)
    }));

    let problem = RepairProblem::with_weight_par(instance, fds, WeightKind::DistinctCount, par);
    let budget = problem.delta_p_original();
    rows.push(measure_speedup("tau_sweep_sampling", par, |p| {
        let config = SearchConfig {
            max_expansions: 10_000,
            parallelism: p,
            ..Default::default()
        };
        let out = sampling_search(&problem, 0, budget, (budget / 8).max(1), &config);
        out.repairs
            .iter()
            .map(|r| (r.repair.delta_p, r.tau_range))
            .collect::<Vec<_>>()
    }));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn exp_args_parse_every_figure_and_scale() {
        for figure in FIGURES {
            assert_eq!(
                ExpArgs::parse(&args(figure)),
                Ok(ExpArgs {
                    figure,
                    scale: Scale::Default,
                    threads: Parallelism::Auto,
                })
            );
        }
        for (name, scale) in [
            ("smoke", Scale::Smoke),
            ("default", Scale::Default),
            ("paper", Scale::Paper),
        ] {
            let parsed = ExpArgs::parse(&args(&format!("scal-fds --scale {name} --threads 2")));
            assert_eq!(
                parsed.map(|a| (a.scale, a.threads)),
                Ok((scale, Parallelism::Fixed(2)))
            );
        }
        // Flags may come before the figure.
        let parsed = ExpArgs::parse(&args("--threads serial --scale smoke par-speedup")).unwrap();
        assert_eq!(parsed.figure, "par-speedup");
        assert_eq!(parsed.threads, Parallelism::Serial);
    }

    #[test]
    fn exp_args_reject_unknown_input() {
        for (line, error) in [
            ("", "missing figure"),
            ("--scale smoke", "missing figure"),
            ("figure7", "unknown figure `figure7`"),
            ("scal-fds --scale smok", "unknown scale `smok`"),
            ("scal-fds --scale", "`--scale` needs a value"),
            ("scal-fds --threads many", "invalid thread count `many`"),
            ("scal-fds --thread 2", "unknown flag `--thread`"),
            ("scal-fds effect-tau", "unexpected argument `effect-tau`"),
        ] {
            let err = ExpArgs::parse(&args(line)).unwrap_err();
            assert!(err.starts_with(error), "`{line}`: {err}");
        }
    }

    #[test]
    fn quality_experiment_produces_rows_for_every_mix() {
        let rows = quality_vs_trust(Scale::Smoke, Parallelism::Auto);
        assert!(!rows.is_empty());
        for &(fd_err, data_err) in ERROR_MIXES.iter() {
            assert!(
                rows.iter()
                    .any(|r| r.fd_error_rate == fd_err && r.data_error_rate == data_err),
                "missing mix ({fd_err}, {data_err})"
            );
        }
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.combined_f));
        }
    }

    #[test]
    fn comparison_experiment_reports_both_algorithms() {
        let rows = versus_unified_cost(Scale::Smoke, Parallelism::Auto);
        assert!(rows.iter().any(|r| r.algorithm == "Uniform-Cost"));
        assert!(rows.iter().any(|r| r.algorithm == "Relative-Trust"));
        // One row per algorithm per mix.
        assert_eq!(rows.len(), 2 * ERROR_MIXES.len());
    }

    #[test]
    fn multi_repair_experiment_finds_repairs() {
        let rows = multi_repair_comparison(Scale::Smoke, Parallelism::Auto);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.repairs_found >= 1, "{} found no repairs", r.algorithm);
        }
        // Range and sampling agree on the number of repairs for the same
        // range (sampling may only miss repairs, never invent them).
        for pair in rows.chunks(2) {
            assert!(pair[1].repairs_found <= pair[0].repairs_found);
        }
    }

    #[test]
    fn perf_experiments_produce_paired_rows() {
        let rows = scalability_fds(Scale::Smoke);
        assert_eq!(rows.len() % 2, 0);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].tuples, pair[1].tuples);
            assert_eq!(pair[0].fds, pair[1].fds);
            assert_ne!(pair[0].algorithm, pair[1].algorithm);
        }
    }
}
