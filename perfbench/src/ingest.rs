//! `ingest_1m`: a 1M-row `warehouse` CSV file (generated from the scenario
//! seed) to a repaired CSV file at
//! τ_r = 0.5, with the shipped engine defaults (`Auto` threads, automatic
//! sharding).

use crate::common::{median, now, peak_rss_mib, secs, Report, Trace};
use crate::layers::{check_golden, Layers};
use crate::probe::{self, SearchAcc};
use crate::Ctx;
use rt_constraints::{ConflictGraph, FdSet};
use rt_core::repair::materialize_fd_repair;
use rt_core::{Parallelism, Repair, SearchStats, ShardPlan};
use rt_engine::{EngineStats, RepairEngine};
use rt_io::record::RecordReader;
use rt_io::CsvOptions;
use rt_proto::EngineOpts;
use rt_relation::Instance;
use rt_scenarios::{gen, WAREHOUSE_ERRORS};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

const ROWS: usize = 1_000_000;
/// Self-test size: still above the automatic sharding threshold.
const TINY_ROWS: usize = 120_000;
/// Rows per encode chunk of the memory-bounded loader.
const CHUNK_ROWS: usize = 8192;
const TAU_R: f64 = 0.5;

fn rows(ctx: &Ctx) -> usize {
    if ctx.tiny {
        TINY_ROWS
    } else {
        ROWS
    }
}

/// Writes the seeded warehouse CSV; not timed.
fn generate(ctx: &Ctx) -> PathBuf {
    let path = ctx.tmp.join("warehouse.csv");
    let mut out = BufWriter::new(File::create(&path).expect("scratch CSV creates"));
    gen::write_warehouse_csv(&mut out, rows(ctx), ctx.scenario_seed, WAREHOUSE_ERRORS)
        .expect("warehouse CSV writes");
    out.flush().expect("warehouse CSV flushes");
    path
}

fn options() -> CsvOptions {
    CsvOptions::csv().relation("warehouse")
}

fn load(input: &Path) -> (Instance, FdSet) {
    let report =
        rt_io::load_path_chunked(input, CHUNK_ROWS, &options()).expect("warehouse CSV loads");
    let fds = gen::warehouse_fds(report.instance.schema());
    (report.instance, fds)
}

fn build(ctx: &Ctx, instance: Instance, fds: FdSet) -> RepairEngine {
    EngineOpts::new(ctx.seed)
        .configure(RepairEngine::builder(instance, fds))
        .build()
        .expect("warehouse engine builds")
}

/// Writes the repaired instance and flushes it; returns the bytes written.
fn write(instance: &Instance, output: &Path) -> u64 {
    let mut out = BufWriter::new(File::create(output).expect("output CSV creates"));
    rt_relation::csv::write_instance(instance, &mut out).expect("repaired CSV writes");
    out.flush().expect("repaired CSV flushes");
    std::fs::metadata(output).map_or(0, |m| m.len())
}

/// What one job produced, for the checks and the counters.
struct Outcome {
    engine_stats: EngineStats,
    delta_p_original: usize,
    tau: usize,
    edges: usize,
    key_bytes_hashed: u64,
    repair: Repair,
}

impl Outcome {
    fn new(engine: &RepairEngine, tau: usize, key_bytes_hashed: u64, repair: Repair) -> Outcome {
        Outcome {
            engine_stats: engine.stats(),
            delta_p_original: engine.delta_p_original(),
            tau,
            edges: engine.problem().conflict_graph().edge_count(),
            key_bytes_hashed,
            repair,
        }
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let s = &self.engine_stats;
        [
            ("conflict_edges", self.edges),
            ("shards", s.shards),
            ("states_expanded", s.states_expanded),
            ("states_generated", s.states_generated),
            ("heuristic_nodes", s.heuristic_nodes),
            ("heuristic_cache_hits", s.heuristic_cache_hits),
            ("cells_changed", self.repair.data_changes()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v as u64))
        .chain([("key_bytes_hashed".to_string(), self.key_bytes_hashed)])
        .collect()
    }

    /// The repaired instance satisfies Σ′ (partition-based check, not
    /// pairwise), stays within τ, and matches the golden.
    fn check(&self, ctx: &Ctx, report: &mut Report) {
        let r = &self.repair;
        let violations =
            ConflictGraph::build_with(&r.repaired_instance, &r.modified_fds, Parallelism::Auto)
                .edge_count();
        report.check(violations == 0, || {
            format!("repaired instance violates Σ′ on {violations} pairs")
        });
        report.check(r.data_changes() <= self.tau, || {
            format!("{} cells changed, above τ = {}", r.data_changes(), self.tau)
        });
        let size = if ctx.tiny { ".tiny" } else { "" };
        check_golden(
            report,
            &format!(
                "ingest_1m{size}.scenario{}.seed{}",
                ctx.scenario_seed, ctx.seed
            ),
            &format!(
                "delta_p={};tau={};repair_delta_p={};cells={};edges={};shards={}",
                self.delta_p_original,
                self.tau,
                r.delta_p,
                r.data_changes(),
                self.edges,
                self.engine_stats.shards
            ),
            ctx.record_golden,
            ctx.corrupt_golden,
        );
    }
}

/// Timings of one untraced job.
struct JobTimes {
    setup: f64,
    repair: f64,
    total: f64,
}

fn job(ctx: &Ctx, input: &Path, output: &Path) -> (JobTimes, Outcome) {
    rt_relation::work::reset();
    let start = now();
    let (instance, fds) = load(input);
    let engine = build(ctx, instance, fds);
    let setup = secs(start);
    let tau = engine.absolute_tau(TAU_R);
    let t = now();
    let repair = engine
        .repair_at_relative(TAU_R)
        .expect("warehouse repair completes");
    let repair_s = secs(t);
    write(&repair.repaired_instance, output);
    let total = secs(start);
    let key_bytes = rt_relation::work::snapshot().key_bytes_hashed;
    (
        JobTimes {
            setup,
            repair: repair_s,
            total,
        },
        Outcome::new(&engine, tau, key_bytes, repair),
    )
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Option<Trace> {
    let input = generate(ctx);
    let output = ctx.tmp.join("repaired.csv");
    let start = now();
    if ctx.trace {
        return Some(traced(ctx, report, &input, &output, start));
    }
    let mut times = Vec::new();
    let mut first: Option<Vec<(String, u64)>> = None;
    while times.is_empty() || secs(start) < ctx.seconds {
        let (t, outcome) = job(ctx, &input, &output);
        outcome.check(ctx, report);
        let counters = outcome.counters();
        match &first {
            None => first = Some(counters),
            Some(f) => report.check_repeat("ingest_1m", f, &counters),
        }
        times.push(t);
    }
    let pick = |f: fn(&JobTimes) -> f64| times.iter().map(f).collect::<Vec<_>>();
    let n = times.len();
    report.result(
        "setup_s",
        median(&pick(|t| t.setup)),
        "s",
        format!("median of n={n}: load + engine build"),
    );
    report.result(
        "job_s",
        median(&pick(|t| t.total)),
        "s",
        format!("median of n={n}: CSV file to repaired CSV file"),
    );
    report.result("peak_rss_mb", peak_rss_mib(), "MiB", "VmHWM");
    report.detail_samples("csv_to_csv_s", &pick(|t| t.total), "s");
    report.detail_samples("repair_s", &pick(|t| t.repair), "s");
    for (name, v) in first.as_deref().unwrap_or_default() {
        report.detail(
            &format!("ingest.{name}"),
            *v as f64,
            "count",
            "exact, repeats every job",
        );
    }
    None
}

/// A plain record pass over the file: the parse layer alone.
fn parse_pass(input: &Path) -> usize {
    let file = File::open(input).expect("input CSV opens");
    let mut records = RecordReader::new(BufReader::new(file), b',').expect("record reader starts");
    let mut n = 0usize;
    while records.next_record().expect("record parses").is_some() {
        n += 1;
    }
    n
}

/// The traced run: one untraced job for reference, then the same job with
/// each step's public function called separately inside its own span.
fn traced(ctx: &Ctx, report: &mut Report, input: &Path, output: &Path, origin: Instant) -> Trace {
    let (untraced, outcome) = job(ctx, input, output);
    outcome.check(ctx, report);
    drop(outcome);

    let mut layers = Layers::default();
    let mut trace = Trace::new(origin);
    let outcome = trace.span("job", |trace| {
        let records = trace.span("parse", |_| parse_pass(input));
        rt_relation::work::reset();
        let (instance, fds) = trace.span("load", |_| load(input));
        let work = rt_relation::work::snapshot();
        layers.set("parse.rows_per_s", records as f64 / trace.total("parse"));
        layers.set("encode.key_bytes_hashed", work.key_bytes_hashed as f64);
        layers.set(
            "encode.peak_resident_cells",
            rt_relation::work::peak_resident_cells() as f64,
        );
        let plan = trace.span("shard_plan", |_| ShardPlan::compute(&instance, &fds));
        let graph = trace.span("graph_build", |_| {
            let parts = rt_par::par_map_coarse(Parallelism::Auto, plan.shard_count(), |s| {
                ConflictGraph::build_for_rows(
                    &instance,
                    &fds,
                    &plan.shards()[s],
                    Parallelism::Serial,
                )
            });
            ConflictGraph::merge_shards(instance.len(), parts).expect("shard graphs merge")
        });
        layers.set("shard_plan.shards", plan.shard_count() as f64);
        layers.set("graph_build.edges", graph.edge_count() as f64);
        drop(graph);
        let engine = trace.span("engine_build", |_| build(ctx, instance, fds));
        let tau = engine.absolute_tau(TAU_R);
        let fd_repair = trace
            .span("search", |_| engine.fd_repair_at(tau))
            .expect("warehouse FD search completes");
        let config = engine.search_config();
        let repair = trace.span("materialize", |_| {
            materialize_fd_repair(
                engine.problem(),
                &fd_repair,
                tau,
                engine.seed(),
                config.parallelism,
                SearchStats::default(),
            )
        });
        let bytes = trace.span("csv_write", |_| write(&repair.repaired_instance, output));
        layers.set("csv_write.bytes", bytes as f64);

        let es = engine.stats();
        let stats = probe::search_stats(&es);
        (
            Outcome::new(&engine, tau, work.key_bytes_hashed, repair),
            stats,
            engine,
        )
    });
    let (outcome, stats, engine) = outcome;
    outcome.check(ctx, report);

    let mut search = SearchAcc::default();
    search.add(
        &probe::measure(
            engine.problem(),
            engine.search_config(),
            outcome.tau,
            12,
            0.2,
        ),
        &stats,
    );
    search.emit(&mut layers, trace.total("search"));
    layers.set("parse.s", trace.total("parse"));
    layers.set("encode.s", trace.total("load") - trace.total("parse"));
    layers.set("shard_plan.s", trace.total("shard_plan"));
    layers.set("graph_build.s", trace.total("graph_build"));
    layers.set("materialize.s", trace.total("materialize"));
    layers.set(
        "materialize.cells_changed",
        outcome.repair.data_changes() as f64,
    );
    layers.set("csv_write.s", trace.total("csv_write"));
    layers.trace(&trace, untraced.total);
    layers.emit(report);
    trace
}
