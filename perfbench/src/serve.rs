//! `serve_mutate`: a server as shipped (`--data-dir` set, `wal_sync` off)
//! and two closed-loop clients, each owning one census session and
//! running a fixed script: load, full spectrum, then per iteration one
//! mutation batch, a paged re-sweep, `repair_at` at τ_r = 0.5 and `stats`,
//! plus `snapshot` every tenth iteration.

use crate::common::{median, now, peak_rss_mib, secs, Report, Trace};
use crate::layers::{check_golden, Layers};
use crate::probe::{self, SearchAcc};
use crate::Ctx;
use rt_client::{Client, ClientError, Session};
use rt_constraints::{ConflictGraph, FdSet};
use rt_core::{Repair, SearchStats};
use rt_datagen::{generate_mutation_stream, MutationStreamConfig};
use rt_engine::json;
use rt_engine::{
    parse_mutation_log, render_mutation_log, EngineError, EngineStats, MutationBatch, MutationOp,
    RepairEngine, RepairPoint, Spectrum,
};
use rt_io::record::RecordReader;
use rt_io::CsvOptions;
use rt_proto::{EngineOpts, Request, Response, TauSpec};
use rt_relation::{AttrId, CellRef, Schema, Value};
use rt_scenarios::ScenarioConfig;
use rt_server::{Server, ServerConfig, SessionStore};
use std::io::BufReader;
use std::time::Instant;

const CLIENTS: usize = 2;
/// Iterations of each client's script (K).
const ITERATIONS: usize = 10;
const TINY_ITERATIONS: usize = 2;
/// Mutation ops per batch.
const OPS_PER_BATCH: usize = 3;
/// Points per `sweep_page` request.
const PAGE_POINTS: usize = 8;
const SNAPSHOT_EVERY: usize = 10;
const TAU_R: f64 = 0.5;

/// One request of the script, as sent; the traced run replays these.
#[derive(Debug, Clone)]
enum Step {
    Apply(String),
    SweepPage { lo: usize, hi: usize, offset: usize },
    RepairAt,
    Stats,
    Snapshot,
}

impl Step {
    fn kind(&self) -> &'static str {
        match self {
            Step::Apply(_) => "apply",
            Step::SweepPage { .. } => "sweep_page",
            Step::RepairAt => "repair_at",
            Step::Stats => "stats",
            Step::Snapshot => "snapshot",
        }
    }

    fn request(&self, session: &str) -> Request {
        let session = session.to_string();
        match self {
            Step::Apply(text) => Request::Apply {
                session,
                ops: json::parse(text).expect("rendered mutation log parses"),
            },
            Step::SweepPage { lo, hi, offset } => Request::SweepPage {
                session,
                lo: *lo,
                hi: *hi,
                offset: *offset,
                limit: PAGE_POINTS,
            },
            Step::RepairAt => Request::RepairAt {
                session,
                tau: TauSpec::Relative(TAU_R),
            },
            Step::Stats => Request::Stats { session },
            Step::Snapshot => Request::Snapshot { session },
        }
    }
}

/// A client's fixed inputs: the census CSV text, its FD specs, and the
/// mutation batches, generated against the instance as the server will
/// parse it.
struct Plan {
    text: String,
    fds: Vec<String>,
    schema: Schema,
    sigma: FdSet,
    batches: Vec<String>,
    opts: EngineOpts,
}

fn wire_options() -> CsvOptions {
    CsvOptions::csv().relation("input")
}

fn plan(ctx: &Ctx, client: usize) -> Plan {
    let scenario = rt_scenarios::build(
        "census",
        &ScenarioConfig {
            seed: ctx.scenario_seed + client as u64,
            rows: None,
        },
    )
    .expect("census scenario builds");
    let mut text = Vec::new();
    rt_relation::csv::write_instance(&scenario.dirty, &mut text).expect("census CSV renders");
    let text = String::from_utf8(text).expect("CSV is UTF-8");
    let schema = scenario.dirty.schema();
    let name = |a: AttrId| {
        schema
            .attr_name(a)
            .expect("FD attribute is in the schema")
            .to_string()
    };
    let fds: Vec<String> = scenario
        .dirty_fds
        .iter()
        .map(|(_, fd)| {
            format!(
                "{}->{}",
                fd.lhs.iter().map(name).collect::<Vec<_>>().join(","),
                name(fd.rhs)
            )
        })
        .collect();
    let parsed = rt_io::read_instance(text.as_bytes(), &wire_options()).expect("census CSV parses");
    let schema = parsed.instance.schema().clone();
    let specs: Vec<&str> = fds.iter().map(String::as_str).collect();
    let sigma = FdSet::parse(&specs, &schema).expect("census FDs parse");
    let iterations = if ctx.tiny {
        TINY_ITERATIONS
    } else {
        ITERATIONS
    };
    let ops = generate_mutation_stream(
        &parsed.instance,
        &sigma,
        &MutationStreamConfig {
            ops: iterations * OPS_PER_BATCH,
            fd_edit_weight: 0,
            fresh_value_rate: 0.4,
            seed: ctx
                .scenario_seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(client as u64),
            ..MutationStreamConfig::default()
        },
    );
    let batches = ops
        .chunks(OPS_PER_BATCH)
        .map(|c| render_mutation_log(c, &schema))
        .collect();
    Plan {
        text,
        fds,
        schema,
        sigma,
        batches,
        opts: EngineOpts::new(ctx.seed),
    }
}

/// One timed request.
#[derive(Debug, Clone)]
struct Timed {
    step: Step,
    start: Instant,
    end: Instant,
}

impl Timed {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// What one client's script produced.
#[derive(Default)]
struct ScriptRun {
    session: String,
    setup_s: Vec<f64>,
    requests: Vec<Timed>,
    resweep_ms: Vec<f64>,
    iteration_s: Vec<f64>,
    /// When the script started and how long it ran.
    start: Option<Instant>,
    wall_s: f64,
    final_points: Vec<RepairPoint>,
    final_repair: Option<Repair>,
    stats: Option<EngineStats>,
    /// Requests answered with an error response.
    rejected: usize,
    error: Option<String>,
}

/// Runs one request, recording its timing.
fn timed<T>(
    out: &mut Vec<Timed>,
    step: Step,
    f: impl FnOnce() -> Result<T, ClientError>,
) -> Result<T, String> {
    let start = now();
    let result = f();
    let end = now();
    let kind = step.kind();
    out.push(Timed { step, start, end });
    result.map_err(|e| format!("{kind}: {e}"))
}

/// Pages through the sweep over `0..=hi`; returns every point.
fn paged_sweep(
    session: &mut Session,
    hi: usize,
    out: &mut Vec<Timed>,
) -> Result<Vec<RepairPoint>, String> {
    let mut points = Vec::new();
    loop {
        let step = Step::SweepPage {
            lo: 0,
            hi,
            offset: points.len(),
        };
        let (page, done) = timed(out, step, || {
            session.sweep_page(0, hi, points.len(), PAGE_POINTS)
        })?;
        points.extend(page);
        if done {
            return Ok(points);
        }
    }
}

fn script(ctx: &Ctx, addr: &str, plan: &Plan, session_name: &str) -> ScriptRun {
    let mut run = ScriptRun {
        session: session_name.to_string(),
        ..ScriptRun::default()
    };
    let start = now();
    run.start = Some(start);
    if let Err(e) = script_body(ctx, addr, plan, &mut run) {
        run.error = Some(e);
    }
    run.wall_s = secs(start);
    run
}

fn script_body(ctx: &Ctx, addr: &str, plan: &Plan, run: &mut ScriptRun) -> Result<(), String> {
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let t = now();
    let mut session = client
        .create_session(&run.session, plan.opts)
        .map_err(|e| format!("create_session: {e}"))?;
    let specs: Vec<&str> = plan.fds.iter().map(String::as_str).collect();
    let summary = session
        .load_csv(&plan.text, false, &specs)
        .map_err(|e| format!("load_csv: {e}"))?;
    run.setup_s.push(secs(t));
    // The range stays fixed for the whole script; twice the loaded δP
    // leaves room for the conflicts inserts add.
    let hi = 2 * summary.delta_p;
    run.final_points = paged_sweep(&mut session, hi, &mut run.requests)?;
    for (k, batch) in plan.batches.iter().enumerate() {
        let t = now();
        if ctx.inject_error && k == 0 {
            // A batch the server must reject: the row does not exist.
            let bad = render_mutation_log(
                &[MutationOp::UpdateCell(
                    CellRef::new(1_000_000, AttrId(0)),
                    Value::int(1),
                )],
                &plan.schema,
            );
            if timed(&mut run.requests, Step::Apply(bad.clone()), || {
                session.apply_text(&bad)
            })
            .is_err()
            {
                run.rejected += 1;
            }
        }
        timed(&mut run.requests, Step::Apply(batch.clone()), || {
            session.apply_text(batch)
        })?;
        run.final_points = paged_sweep(&mut session, hi, &mut run.requests)?;
        run.resweep_ms.push(secs(t) * 1e3);
        run.final_repair = Some(timed(&mut run.requests, Step::RepairAt, || {
            session.repair_at_relative(TAU_R)
        })?);
        run.stats = Some(timed(&mut run.requests, Step::Stats, || session.stats())?);
        if (k + 1) % SNAPSHOT_EVERY == 0 {
            timed(&mut run.requests, Step::Snapshot, || session.snapshot())?;
        }
        run.iteration_s.push(secs(t));
        run.setup_s.push(setup_probe(
            &client,
            plan,
            &format!("{}-setup{k}", run.session),
        )?);
    }
    session.close().map_err(|e| format!("close: {e}"))?;
    Ok(())
}

/// Times one more set-up (create a scratch session and load it), then
/// closes it: set-up samples spread over the run instead of bunching at
/// its start.
fn setup_probe(client: &Client, plan: &Plan, name: &str) -> Result<f64, String> {
    let t = now();
    let mut session = client
        .create_session(name, plan.opts)
        .map_err(|e| format!("create_session: {e}"))?;
    let specs: Vec<&str> = plan.fds.iter().map(String::as_str).collect();
    session
        .load_csv(&plan.text, false, &specs)
        .map_err(|e| format!("load_csv: {e}"))?;
    let elapsed = secs(t);
    session.close().map_err(|e| format!("close: {e}"))?;
    Ok(elapsed)
}

/// A served round: both clients' scripts, concurrently, on fresh sessions.
fn round(ctx: &Ctx, addr: &str, plans: &[Plan], r: usize) -> Vec<ScriptRun> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .enumerate()
            .map(|(c, plan)| scope.spawn(move || script(ctx, addr, plan, &format!("c{c}-r{r}"))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    })
}

/// The in-process twin of a client's session after its script: the same
/// text, the same options, the same mutation log.
fn twin(plan: &Plan) -> RepairEngine {
    let parsed =
        rt_io::read_instance(plan.text.as_bytes(), &wire_options()).expect("census CSV parses");
    let mut engine = plan
        .opts
        .configure(RepairEngine::builder(parsed.instance, plan.sigma.clone()))
        .build()
        .expect("twin engine builds");
    for batch in &plan.batches {
        let ops = parse_mutation_log(batch, &plan.schema).expect("mutation log parses");
        engine
            .apply(&ops.into_iter().collect::<MutationBatch>())
            .expect("twin mutation applies");
    }
    engine
}

/// The output checks of one script: it ran without an error response,
/// its final wire spectrum and repair are bit-identical to the twin's,
/// and its counters match the golden.
fn check_script(ctx: &Ctx, report: &mut Report, plan: &Plan, run: &ScriptRun, client: usize) {
    let failed = run.rejected + usize::from(run.error.is_some());
    report.ok_ops(run.requests.len().saturating_sub(failed));
    for _ in 0..run.rejected {
        report.check(false, || {
            format!("{}: a request got an error response", run.session)
        });
    }
    report.check(run.error.is_none(), || {
        format!("{}: {}", run.session, run.error.clone().unwrap_or_default())
    });
    if run.error.is_some() {
        return;
    }
    let engine = twin(plan);
    let hi = run.final_points.first().map_or(0, |p| p.tau_range.1);
    let local = engine
        .sweep(0..=hi)
        .collect_spectrum()
        .expect("twin spectrum completes");
    let wire = Spectrum {
        points: run.final_points.clone(),
        search_stats: SearchStats::default(),
    };
    report.check(wire.bit_identical(&local), || {
        format!(
            "{}: wire spectrum differs from the in-process twin",
            run.session
        )
    });
    let local_repair = engine
        .repair_at_relative(TAU_R)
        .expect("twin repair completes");
    let same_repair = run.final_repair.as_ref().is_some_and(|r| {
        r.dist_c.to_bits() == local_repair.dist_c.to_bits()
            && r.modified_fds == local_repair.modified_fds
            && r.repaired_instance == local_repair.repaired_instance
            && r.changed_cells == local_repair.changed_cells
    });
    report.check(same_repair, || {
        format!(
            "{}: wire repair differs from the in-process twin",
            run.session
        )
    });
    let points: Vec<String> = wire
        .points
        .iter()
        .map(|p| {
            format!(
                "{}-{}:{:016x}:{}",
                p.tau_range.0,
                p.tau_range.1,
                p.repair.dist_c.to_bits(),
                p.repair.data_changes()
            )
        })
        .collect();
    let size = if ctx.tiny { ".tiny" } else { "" };
    check_golden(
        report,
        &format!(
            "serve_mutate{size}.scenario{}.seed{}.client{client}",
            ctx.scenario_seed, ctx.seed
        ),
        &points.join(","),
        ctx.record_golden,
        ctx.corrupt_golden,
    );
}

fn counters(run: &ScriptRun) -> Vec<(String, u64)> {
    let s = run.stats.unwrap_or_default();
    [
        ("requests", run.requests.len()),
        ("states_expanded", s.states_expanded),
        ("states_generated", s.states_generated),
        ("heuristic_nodes", s.heuristic_nodes),
        ("heuristic_cache_hits", s.heuristic_cache_hits),
        ("sweeps_started", s.sweeps_started),
        ("sweep_cache_hits", s.sweep_cache_hits),
        ("edges_added", s.edges_added),
        ("edges_removed", s.edges_removed),
        ("points", run.final_points.len()),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v as u64))
    .collect()
}

/// The running server and its scratch data directory.
struct Served {
    addr: String,
    worker: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_server(ctx: &Ctx) -> Served {
    let config = ServerConfig {
        data_dir: Some(ctx.tmp.join("serve-data")),
        wal_sync: false,
        ..ServerConfig::default()
    };
    let server = Server::bind_tcp_with("127.0.0.1:0", config).expect("loopback bind");
    let addr = server
        .local_addr()
        .expect("tcp server has an address")
        .to_string();
    Served {
        addr,
        worker: std::thread::spawn(move || server.run()),
    }
}

fn stop_server(served: Served, report: &mut Report) -> Vec<(String, u64)> {
    let client = Client::connect(&served.addr).expect("loopback connect");
    let counters = client.server_stats().unwrap_or_default();
    let stopped = client.shutdown();
    drop(client);
    let joined = served.worker.join();
    report.check(stopped.is_ok() && matches!(joined, Ok(Ok(()))), || {
        "server did not shut down cleanly".to_string()
    });
    counters
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Option<Trace> {
    let plans: Vec<Plan> = (0..CLIENTS).map(|c| plan(ctx, c)).collect();
    let served = start_server(ctx);
    let start = now();
    let trace = if ctx.trace {
        Some(traced(ctx, report, &plans, &served.addr, start))
    } else {
        untraced(ctx, report, &plans, &served.addr, start);
        None
    };
    let server = stop_server(served, report);
    for (name, v) in server
        .iter()
        .filter(|(k, _)| k == "frames_decoded" || k == "snapshots_written")
    {
        report.detail(
            &format!("server.{name}"),
            *v as f64,
            "count",
            "server counter, whole run",
        );
    }
    trace
}

fn untraced(ctx: &Ctx, report: &mut Report, plans: &[Plan], addr: &str, start: Instant) {
    let mut runs: Vec<ScriptRun> = Vec::new();
    let mut first: Vec<Vec<(String, u64)>> = Vec::new();
    let mut r = 0;
    let mut last = 0.0;
    // Another round only when one more fits in the measuring time.
    while r == 0 || secs(start) + last <= ctx.seconds {
        let t = now();
        for (c, run) in round(ctx, addr, plans, r).into_iter().enumerate() {
            check_script(ctx, report, &plans[c], &run, c);
            let counts = counters(&run);
            match first.get(c) {
                None => first.push(counts),
                Some(f) => report.check_repeat(&run.session, f, &counts),
            }
            runs.push(run);
        }
        last = secs(t);
        r += 1;
    }
    let all = |f: fn(&ScriptRun) -> Vec<f64>| runs.iter().flat_map(f).collect::<Vec<f64>>();
    let setup = all(|r| r.setup_s.clone());
    let iterations = all(|r| r.iteration_s.clone());
    let requests: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.requests.iter().map(Timed::ms))
        .collect();
    let completed: usize = runs.iter().map(|r| r.requests.len()).sum();
    let wall: f64 = runs.iter().map(|r| r.wall_s).sum::<f64>() / CLIENTS as f64;
    report.result(
        "setup_s",
        median(&setup),
        "s",
        format!("median of n={}: create_session + load_csv", setup.len()),
    );
    report.result(
        "job_s",
        median(&iterations),
        "s",
        format!("median of n={} script iterations", iterations.len()),
    );
    report.result(
        "peak_rss_mb",
        peak_rss_mib(),
        "MiB",
        "VmHWM, server and clients in one process",
    );
    report.detail_samples("resweep_ms", &all(|r| r.resweep_ms.clone()), "ms");
    report.detail_samples("request_ms", &requests, "ms");
    report.detail(
        "requests_per_s",
        completed as f64 / wall,
        "1/s",
        format!("{completed} requests over {} rounds", r),
    );
    for (c, counts) in first.iter().enumerate() {
        for (name, v) in counts {
            report.detail(
                &format!("client{c}.{name}"),
                *v as f64,
                "count",
                "exact, repeats every round",
            );
        }
    }
}

/// Per-request replay cost, split by layer.
#[derive(Default)]
struct Replay {
    engine_s: f64,
    codec_s: f64,
    wal_s: f64,
}

/// Layer totals of an in-process replay.
#[derive(Default)]
struct ReplayTotals {
    rows: usize,
    key_bytes: u64,
    peak_cells: u64,
    parse_s: f64,
    load_s: f64,
    graph_s: f64,
    frames: usize,
    frame_bytes: usize,
    codec_s: f64,
    applies: usize,
    apply_s: f64,
    wal_append_s: f64,
    wal_bytes: u64,
    snapshots: usize,
    snapshot_s: f64,
    snapshot_bytes: usize,
    rotations: usize,
    rotate_s: f64,
}

/// The traced run: one round over the wire, then the recorded scripts
/// replayed in process — through the request and response codecs, against
/// a twin engine, and into a scratch session store — so each request's
/// wire round trip can be split into engine, codec, WAL and wire waiting
/// time. Request spans are built after the round from the timestamps every
/// run takes, so tracing adds no work inside the round; the overhead is
/// the span bookkeeping.
fn traced(ctx: &Ctx, report: &mut Report, plans: &[Plan], addr: &str, origin: Instant) -> Trace {
    let mut trace = Trace::new(origin);
    let mut untraced_s = 0.0;
    let runs = trace.span("job", |trace| {
        let t = now();
        let runs = round(ctx, addr, plans, 0);
        untraced_s = secs(t);
        // Each client's script is a child span of the job, and each of its
        // wire requests a child of the script.
        for (c, run) in runs.iter().enumerate() {
            let start = run.start.expect("the script records its start");
            let end = start + std::time::Duration::from_secs_f64(run.wall_s);
            let client = trace.record_child(0, &format!("client{c}"), start, end);
            for req in &run.requests {
                trace.record_child(client, req.step.kind(), req.start, req.end);
            }
        }
        runs
    });
    for (c, run) in runs.iter().enumerate() {
        check_script(ctx, report, &plans[c], run, c);
    }

    let mut layers = Layers::default();
    let store_dir = ctx.tmp.join("replay-store");
    let store = SessionStore::open(&store_dir, false).expect("scratch store opens");
    // One client's script is replayed: both clients run the same script
    // shape, and replaying both would double the traced run's time.
    let (plan, run) = (&plans[0], &runs[0]);
    let mut totals = ReplayTotals::default();
    let (engine, per_request) = replay(&mut totals, &store, &store_dir, plan, run);
    let (mut wire_s, mut replayed_s, mut search_s) = (0.0, 0.0, 0.0);
    for (req, cost) in run.requests.iter().zip(&per_request) {
        wire_s += req.ms() / 1e3;
        replayed_s += cost.engine_s + cost.codec_s + cost.wal_s;
        if matches!(req.step, Step::SweepPage { .. } | Step::RepairAt) {
            search_s += cost.engine_s;
        }
    }
    let es = engine.stats();
    let wire_stats = run.stats.unwrap_or_default();
    report.check(
        (es.states_expanded, es.heuristic_nodes)
            == (wire_stats.states_expanded, wire_stats.heuristic_nodes),
        || {
            format!(
                "{}: the in-process replay did other search work than the server",
                run.session
            )
        },
    );
    let mut search = SearchAcc::default();
    let costs = probe::measure(
        engine.problem(),
        engine.search_config(),
        engine.absolute_tau(TAU_R),
        200,
        0.1,
    );
    search.add(&costs, &probe::search_stats(&es));
    layers.set(
        "graph_build.edges",
        engine.problem().conflict_graph().edge_count() as f64,
    );
    layers.set("apply.edges_added", es.edges_added as f64);
    layers.set("apply.edges_removed", es.edges_removed as f64);
    layers.set(
        "sweep_cache.hit_ratio",
        es.sweep_cache_hits as f64 / es.sweeps_started.max(1) as f64,
    );
    layers.set(
        "materialize.cells_changed",
        run.final_repair
            .as_ref()
            .map_or(0.0, |r| r.data_changes() as f64),
    );
    // Search time here is the engine time of `sweep_page` and `repair_at`
    // requests, which includes materializing their points.
    search.emit(&mut layers, search_s);
    let per = |x: f64, n: usize| if n > 0 { x / n as f64 } else { 0.0 };
    let t = &totals;
    layers.set("parse.s", t.parse_s);
    layers.set(
        "parse.rows_per_s",
        t.rows as f64 / t.parse_s.max(f64::MIN_POSITIVE),
    );
    layers.set("encode.s", t.load_s - t.parse_s);
    layers.set("encode.key_bytes_hashed", t.key_bytes as f64);
    layers.set("encode.peak_resident_cells", t.peak_cells as f64);
    layers.set("graph_build.s", t.graph_s);
    layers.set("codec.us_per_frame", per(t.codec_s * 1e6, t.frames));
    layers.set("codec.bytes_per_frame", per(t.frame_bytes as f64, t.frames));
    layers.set("apply.ms_per_batch", per(t.apply_s * 1e3, t.applies));
    layers.set("wal.append_us", per(t.wal_append_s * 1e6, t.applies));
    layers.set("wal.records", t.applies as f64);
    layers.set("wal.bytes", t.wal_bytes as f64);
    layers.set("wal.rotate_ms", per(t.rotate_s * 1e3, t.rotations));
    layers.set("snapshot.ms", per(t.snapshot_s * 1e3, t.snapshots));
    layers.set("snapshot.bytes", per(t.snapshot_bytes as f64, t.snapshots));
    let requests = run.requests.len();
    layers.set("wire.requests", requests as f64);
    layers.set(
        "wire.wait_ms_per_request",
        per((wire_s - replayed_s) * 1e3, requests),
    );
    // Coverage: the share of wire round-trip time the replayed engine,
    // codec and WAL work accounts for; the rest is waiting on the wire.
    let job = trace.spans[0].end - trace.spans[0].start;
    layers.set("trace.job_s", job);
    layers.set("trace.untraced_job_s", untraced_s);
    layers.set("trace.overhead_s", job - untraced_s);
    layers.set("trace.coverage", replayed_s / wire_s.max(f64::MIN_POSITIVE));
    layers.set("trace.unattributed_s", wire_s - replayed_s);
    layers.emit(report);
    trace
}

/// Total size of the write-ahead logs in the scratch store.
fn wal_size(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "wal"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Replays one client's script in process: load, then every recorded
/// request through the codecs, the twin engine and the scratch store.
/// Returns the twin and each request's replay cost.
fn replay(
    t: &mut ReplayTotals,
    store: &SessionStore,
    dir: &std::path::Path,
    plan: &Plan,
    run: &ScriptRun,
) -> (RepairEngine, Vec<Replay>) {
    let start = now();
    let mut records = RecordReader::new(BufReader::new(plan.text.as_bytes()), b',')
        .expect("record reader starts");
    while records.next_record().expect("record parses").is_some() {
        t.rows += 1;
    }
    t.parse_s += secs(start);
    rt_relation::work::reset();
    let start = now();
    let parsed =
        rt_io::read_instance(plan.text.as_bytes(), &wire_options()).expect("census CSV parses");
    t.load_s += secs(start);
    t.key_bytes += rt_relation::work::snapshot().key_bytes_hashed;
    t.peak_cells = t.peak_cells.max(rt_relation::work::peak_resident_cells());
    let start = now();
    std::hint::black_box(ConflictGraph::build_with(
        &parsed.instance,
        &plan.sigma,
        plan.opts.threads,
    ));
    t.graph_s += secs(start);
    let mut engine = plan
        .opts
        .configure(RepairEngine::builder(parsed.instance, plan.sigma.clone()))
        .build()
        .expect("twin engine builds");
    let schema = engine.problem().instance().schema().clone();
    let mut wal_seq = 0u64;
    let rotate = |t: &mut ReplayTotals, engine: &RepairEngine, wal_seq: u64| {
        let start = now();
        let blob = engine.snapshot().expect("twin snapshots");
        let snapshot_s = secs(start);
        t.wal_bytes += wal_size(dir);
        let start = now();
        store
            .rotate(&run.session, &blob, wal_seq)
            .expect("scratch rotation");
        let rotate_s = secs(start);
        t.rotations += 1;
        t.rotate_s += rotate_s;
        (blob.len(), snapshot_s, rotate_s)
    };
    // `load_csv` rotates a baseline snapshot.
    rotate(t, &engine, 0);

    let mut costs = Vec::with_capacity(run.requests.len());
    for req in &run.requests {
        let mut cost = Replay::default();
        let start = now();
        let payload = req.step.request(&run.session).encode();
        let request = Request::decode(&payload).expect("request round-trips");
        cost.codec_s += secs(start);
        let start = now();
        let response = match request {
            Request::Apply { ops, .. } => {
                let applied = rt_engine::decode_mutation_log(&ops, &schema)
                    .map_err(EngineError::Mutation)
                    .and_then(|decoded| {
                        engine.apply(&decoded.into_iter().collect::<MutationBatch>())
                    });
                match applied {
                    Ok(outcome) => {
                        t.apply_s += secs(start);
                        t.applies += 1;
                        let w = now();
                        wal_seq += 1;
                        store
                            .append_wal(&run.session, wal_seq, &ops)
                            .expect("scratch WAL append");
                        cost.wal_s += secs(w);
                        t.wal_append_s += secs(w);
                        Response::Applied {
                            effect: outcome.effect,
                            sweep_cache_retained: outcome.sweep_cache_retained,
                        }
                    }
                    // A rejected batch (the self-test's injected error)
                    // leaves the engine untouched, as on the server.
                    Err(e) => Response::Error(rt_proto::ErrorFrame::engine(e)),
                }
            }
            Request::SweepPage {
                lo,
                hi,
                offset,
                limit,
                ..
            } => {
                let mut points: Vec<RepairPoint> = engine
                    .sweep(lo..=hi)
                    .skip(offset)
                    .take(limit + 1)
                    .map(|p| p.expect("twin sweep point"))
                    .collect();
                let done = points.len() <= limit;
                points.truncate(limit);
                Response::SweepPage { points, done }
            }
            Request::RepairAt { .. } => Response::Repaired(Box::new(
                engine.repair_at_relative(TAU_R).expect("twin repair"),
            )),
            Request::Stats { .. } => Response::Stats(engine.stats()),
            Request::Snapshot { session } => {
                let (bytes, snapshot_s, rotate_s) = rotate(t, &engine, wal_seq);
                t.snapshots += 1;
                t.snapshot_s += snapshot_s;
                t.snapshot_bytes += bytes;
                cost.wal_s += rotate_s;
                Response::SnapshotWritten { session, bytes }
            }
            other => unreachable!("the script sends no {} request", other.kind()),
        };
        cost.engine_s += secs(start) - cost.wal_s;
        let start = now();
        let encoded = response.encode();
        std::hint::black_box(
            Response::decode(&encoded, Some(&schema)).expect("response round-trips"),
        );
        cost.codec_s += secs(start);
        t.frames += 2;
        t.frame_bytes += payload.len() + encoded.len();
        t.codec_s += cost.codec_s;
        costs.push(cost);
    }
    t.wal_bytes += wal_size(dir);
    store.remove(&run.session).ok();
    (engine, costs)
}
