//! `spectrum`: bounded τ-sweeps (Algorithm 6) on the hospital and orders
//! catalog scenarios, in process, at `--threads 1`, each sweep on a freshly
//! built engine.

use crate::common::{median, now, peak_rss_mib, secs, Report, Trace};
use crate::layers::{check_golden, Layers};
use crate::probe::{self, SearchAcc};
use crate::Ctx;
use rt_constraints::ConflictGraph;
use rt_core::repair::materialize_fd_repair;
use rt_core::{Parallelism, RangeSearch, Repair, SearchStats};
use rt_engine::RepairEngine;
use rt_proto::EngineOpts;
use rt_scenarios::{Scenario, ScenarioConfig};
use std::time::Instant;

/// One bounded sweep: the scenario and the τ floor of its range (the range
/// runs from the floor up to δP). The floors are the lowest points that
/// still finish in seconds at the catalog seed; the tiny floors serve the
/// harness self-test.
struct SweepSpec {
    scenario: &'static str,
    floor: usize,
    tiny_floor: usize,
}

const SWEEPS: [SweepSpec; 2] = [
    SweepSpec {
        scenario: "hospital",
        floor: 48,
        tiny_floor: 72,
    },
    SweepSpec {
        scenario: "orders",
        floor: 30,
        tiny_floor: 415,
    },
];

/// Engine builds timed for `setup_s` before each sweep (the last one runs
/// the sweep), so set-up samples spread over the whole run.
const BUILDS_PER_SWEEP: usize = 4;

struct Prepared {
    spec: &'static SweepSpec,
    scenario: Scenario,
    floor: usize,
}

/// One point of a sweep, reduced to what the goldens pin.
#[derive(Debug, Clone, PartialEq)]
struct PointPrint {
    tau: (usize, usize),
    dist_c_bits: u64,
    delta_p: usize,
    cells: usize,
}

/// A finished sweep: its points, its search counters, its wall time.
struct SweepRun {
    points: Vec<PointPrint>,
    stats: SearchStats,
    secs: f64,
}

fn opts(ctx: &Ctx) -> EngineOpts {
    let mut opts = EngineOpts::new(ctx.seed);
    opts.threads = Parallelism::Serial;
    opts
}

/// Builds a fresh engine for `p`; returns it with the build's wall time
/// (the instance is cloned before the clock starts).
fn build(ctx: &Ctx, p: &Prepared) -> (RepairEngine, f64) {
    let (instance, fds) = (p.scenario.dirty.clone(), p.scenario.dirty_fds.clone());
    let start = now();
    let engine = opts(ctx)
        .configure(RepairEngine::builder(instance, fds))
        .build()
        .expect("catalog scenario engine builds");
    (engine, secs(start))
}

fn print_of(tau: (usize, usize), r: &Repair) -> PointPrint {
    PointPrint {
        tau,
        dist_c_bits: r.dist_c.to_bits(),
        delta_p: r.delta_p,
        cells: r.data_changes(),
    }
}

/// Checks one materialized point: the repaired instance satisfies Σ′
/// (checked by a partition-based conflict-graph build) and changes no
/// more cells than the point's τ allows.
fn check_point(report: &mut Report, label: &str, tau: (usize, usize), r: &Repair) {
    let violations =
        ConflictGraph::build_with(&r.repaired_instance, &r.modified_fds, Parallelism::Serial)
            .edge_count();
    report.check(violations == 0 && r.data_changes() <= tau.1, || {
        format!(
            "{label} point {tau:?}: {violations} violations of Σ′ remain, {} cells changed",
            r.data_changes()
        )
    });
}

/// The untraced sweep: the engine's own lazy stream, every point
/// materialized. Output checks run after the clock stops.
fn sweep(report: &mut Report, p: &Prepared, engine: &RepairEngine) -> SweepRun {
    let dp = engine.delta_p_original();
    let start = now();
    let mut repairs = Vec::new();
    let mut error = None;
    for item in engine.sweep(p.floor..=dp) {
        match item {
            Ok(point) => repairs.push(point),
            Err(e) => error = Some(e),
        }
    }
    let elapsed = secs(start);
    report.check(error.is_none(), || {
        format!("{} sweep failed: {error:?}", p.spec.scenario)
    });
    for point in &repairs {
        check_point(report, p.spec.scenario, point.tau_range, &point.repair);
    }
    let es = engine.stats();
    SweepRun {
        points: repairs
            .iter()
            .map(|pt| print_of(pt.tau_range, &pt.repair))
            .collect(),
        stats: probe::search_stats(&es),
        secs: elapsed,
    }
}

/// The traced sweep: the same Range-Repair traversal and materializer the
/// engine's stream calls, driven step by step so search and
/// materialization get spans of their own.
fn traced_sweep(
    report: &mut Report,
    trace: &mut Trace,
    p: &Prepared,
    engine: &RepairEngine,
) -> SweepRun {
    let problem = engine.problem();
    let config = engine.search_config();
    let start = now();
    let mut search = RangeSearch::new(problem, p.floor, engine.delta_p_original(), config);
    let mut points = Vec::new();
    while let Some(ranged) = trace.span("search", |_| search.next_repair()) {
        let stats = search.stats();
        let repair = trace.span("materialize", |_| {
            materialize_fd_repair(
                problem,
                &ranged.repair,
                ranged.tau_range.1,
                engine.seed(),
                config.parallelism,
                stats,
            )
        });
        points.push((ranged.tau_range, repair));
    }
    let elapsed = secs(start);
    report.check(!search.stats().truncated, || {
        format!("{} traced sweep truncated", p.spec.scenario)
    });
    for (tau, r) in &points {
        check_point(report, p.spec.scenario, *tau, r);
    }
    SweepRun {
        points: points.iter().map(|(tau, r)| print_of(*tau, r)).collect(),
        stats: search.stats(),
        secs: elapsed,
    }
}

fn golden_keys(ctx: &Ctx, p: &Prepared) -> (String, String) {
    let size = if ctx.tiny { ".tiny" } else { "" };
    let base = format!(
        "spectrum.{}{size}.scenario{}",
        p.spec.scenario, ctx.scenario_seed
    );
    let cells = format!("{base}.seed{}.cells", ctx.seed);
    (base, cells)
}

/// Checks a sweep against the goldens: τ ranges, `dist_c` bits and δP
/// (independent of the data-repair seed), then cell changes per point
/// (recorded per seed).
fn check_sweep(ctx: &Ctx, report: &mut Report, p: &Prepared, run: &SweepRun) {
    let (base, cells_key) = golden_keys(ctx, p);
    let fingerprint: Vec<String> = run
        .points
        .iter()
        .map(|pt| {
            format!(
                "{}-{}:{:016x}:{}",
                pt.tau.0, pt.tau.1, pt.dist_c_bits, pt.delta_p
            )
        })
        .collect();
    check_golden(
        report,
        &base,
        &fingerprint.join(","),
        ctx.record_golden,
        ctx.corrupt_golden,
    );
    let cells: Vec<String> = run.points.iter().map(|pt| pt.cells.to_string()).collect();
    check_golden(
        report,
        &cells_key,
        &cells.join(","),
        ctx.record_golden,
        ctx.corrupt_golden,
    );
}

fn counters(run: &SweepRun) -> Vec<(String, u64)> {
    let s = &run.stats;
    vec![
        ("points".into(), run.points.len() as u64),
        ("states_expanded".into(), s.states_expanded as u64),
        ("states_generated".into(), s.states_generated as u64),
        ("heuristic_nodes".into(), s.heuristic_nodes as u64),
        ("heuristic_cache_hits".into(), s.heuristic_cache_hits as u64),
        (
            "cells_changed".into(),
            run.points.iter().map(|p| p.cells as u64).sum(),
        ),
    ]
}

fn prepare(ctx: &Ctx) -> Vec<Prepared> {
    SWEEPS
        .iter()
        .map(|spec| Prepared {
            spec,
            scenario: rt_scenarios::build(
                spec.scenario,
                &ScenarioConfig {
                    seed: ctx.scenario_seed,
                    rows: None,
                },
            )
            .expect("catalog scenario builds"),
            floor: if ctx.tiny {
                spec.tiny_floor
            } else {
                spec.floor
            },
        })
        .collect()
}

/// Builds [`BUILDS_PER_SWEEP`] fresh engines, recording each build time;
/// returns the last.
fn build_sampled(ctx: &Ctx, p: &Prepared, samples: &mut Vec<f64>) -> RepairEngine {
    let mut engine = None;
    for _ in 0..BUILDS_PER_SWEEP {
        let (e, s) = build(ctx, p);
        samples.push(s);
        engine = Some(e);
    }
    engine.expect("at least one build per sweep")
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Option<Trace> {
    let prepared = prepare(ctx);
    let start = now();
    if ctx.trace {
        return Some(traced(ctx, report, &prepared, start));
    }
    let mut builds: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut sweep_secs: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut jobs = Vec::new();
    let mut first: Vec<Option<Vec<(String, u64)>>> = vec![None; prepared.len()];
    while jobs.is_empty() || secs(start) < ctx.seconds {
        let mut job = 0.0;
        for (i, p) in prepared.iter().enumerate() {
            let engine = build_sampled(ctx, p, &mut builds[i]);
            let run = sweep(report, p, &engine);
            job += run.secs;
            sweep_secs[i].push(run.secs);
            check_sweep(ctx, report, p, &run);
            let c = counters(&run);
            match &first[i] {
                None => first[i] = Some(c),
                Some(f) => report.check_repeat(p.spec.scenario, f, &c),
            }
        }
        jobs.push(job);
    }
    let setup: f64 = builds.iter().map(|b| median(b)).sum();
    report.result(
        "setup_s",
        setup,
        "s",
        format!(
            "sum of median engine builds, n={} per scenario",
            builds[0].len()
        ),
    );
    report.result(
        "job_s",
        median(&jobs),
        "s",
        format!(
            "median of n={} jobs (hospital sweep + orders sweep)",
            jobs.len()
        ),
    );
    report.result("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM");
    for (i, p) in prepared.iter().enumerate() {
        report.detail_samples(&format!("sweep_{}_s", p.spec.scenario), &sweep_secs[i], "s");
        for (name, v) in first[i].as_deref().unwrap_or_default() {
            report.detail(
                &format!("{}.{name}", p.spec.scenario),
                *v as f64,
                "count",
                "exact, repeats every job",
            );
        }
    }
    None
}

/// The traced run: one untraced job for reference, then one job with
/// spans, then the out-of-search probes.
fn traced(ctx: &Ctx, report: &mut Report, prepared: &[Prepared], origin: Instant) -> Trace {
    let mut untraced = 0.0;
    for p in prepared {
        let (engine, build_s) = build(ctx, p);
        untraced += build_s + sweep(report, p, &engine).secs;
    }

    let mut trace = Trace::new(origin);
    let mut runs = Vec::new();
    let mut engines = Vec::new();
    trace.span("job", |trace| {
        for p in prepared {
            let engine = trace.span("engine_build", |_| build(ctx, p).0);
            runs.push(traced_sweep(report, trace, p, &engine));
            engines.push(engine);
        }
    });
    for (p, run) in prepared.iter().zip(&runs) {
        check_sweep(ctx, report, p, run);
    }

    let mut layers = Layers::default();
    let mut search = SearchAcc::default();
    for ((p, run), engine) in prepared.iter().zip(&runs).zip(&engines) {
        let problem = engine.problem();
        let graph_s = median(
            &(0..5)
                .map(|_| {
                    let t = now();
                    std::hint::black_box(ConflictGraph::build_with(
                        problem.instance(),
                        problem.sigma(),
                        Parallelism::Serial,
                    ));
                    secs(t)
                })
                .collect::<Vec<_>>(),
        );
        layers.add("graph_build.s", graph_s);
        layers.add(
            "graph_build.edges",
            problem.conflict_graph().edge_count() as f64,
        );
        search.add(
            &probe::measure(problem, engine.search_config(), p.floor, 200, 0.2),
            &run.stats,
        );
        layers.add(
            "materialize.cells_changed",
            run.points.iter().map(|pt| pt.cells as f64).sum(),
        );
    }
    search.emit(&mut layers, trace.total("search"));
    layers.set("materialize.s", trace.total("materialize"));
    layers.trace(&trace, untraced);
    layers.emit(report);
    trace
}
