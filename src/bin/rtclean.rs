//! `rtclean` — command-line front end for relative-trust repair.
//!
//! Reads a CSV/TSV file (typed ingestion: column types are inferred and
//! the data is parsed directly into dictionary codes) and a set of
//! functional dependencies, and either
//!
//! * produces one repair for a chosen trust level (`--tau` / `--tau-r`), or
//! * enumerates the whole spectrum of non-dominated repairs (`--spectrum`),
//!   or
//! * replays a JSON mutation log against a live engine (`apply`), keeping
//!   the prepared state maintained incrementally — the conflict graph is
//!   never rebuilt, or
//! * builds and repairs a named workload from the scenario catalog
//!   (`scenario`), or
//! * hosts repair sessions as a service (`serve`) / drives one
//!   interactively (`connect`).
//!
//! Examples:
//!
//! ```text
//! rtclean employees.csv --fd "Surname,GivenName->Income" --spectrum
//! rtclean employees.csv --fd "Surname,GivenName->Income" --tau-r 0.5 \
//!         --output repaired.csv
//! rtclean apply employees.csv --fd "Surname,GivenName->Income" \
//!         --log mutations.json --verify
//! rtclean scenario list
//! rtclean scenario hospital --seed 3
//! rtclean serve --listen 127.0.0.1:7171
//! rtclean connect 127.0.0.1:7171
//! ```
//!
//! Every subcommand shares the `rt-proto` option surface: the engine flags
//! (`--weight`, `--seed`, `--max-expansions`, `--threads`, `--shard-rows`)
//! parse through
//! [`EngineOpts::consume_flag`] whether they come from the command line,
//! the `connect` REPL, or a `create_session` wire request.

use relative_trust::prelude::*;
use std::process::ExitCode;

/// Reads the value following `args[*i]`, advancing `i` past it.
fn take_value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = args[*i].clone();
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("missing value after `{flag}`"))
}

/// Tries to consume `args[*i]` as one of the repair-selection options
/// shared by the CSV and scenario front ends
/// (`--tau`, `--tau-r`, `--spectrum`, `--output`).
fn consume_mode_option(
    args: &[String],
    i: &mut usize,
    mode: &mut Option<Mode>,
    output: &mut Option<String>,
) -> Result<bool, String> {
    match args[*i].as_str() {
        "--tau" => {
            let v = take_value(args, i)?;
            let n = v
                .parse::<usize>()
                .map_err(|_| format!("invalid --tau value `{v}`"))?;
            *mode = Some(Mode::Repair(TauSpec::Absolute(n)));
        }
        "--tau-r" => {
            let v = take_value(args, i)?;
            let f = v
                .parse::<f64>()
                .map_err(|_| format!("invalid --tau-r value `{v}`"))?;
            *mode = Some(Mode::Repair(
                TauSpec::relative(f).map_err(|e| format!("--tau-r: {e}"))?,
            ));
        }
        "--spectrum" => *mode = Some(Mode::Spectrum),
        "--output" => *output = Some(take_value(args, i)?),
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    input: String,
    fd_specs: Vec<String>,
    mode: Mode,
    output: Option<String>,
    tsv: bool,
    engine: EngineOpts,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Single repair at a budget — the wire's [`TauSpec`], so the CLI and
    /// the protocol validate trust levels through the same code.
    Repair(TauSpec),
    /// Enumerate the full spectrum of repairs.
    Spectrum,
}

const USAGE: &str = "\
usage: rtclean <input.csv> --fd \"X1,X2->A\" [--fd ...] [options]
       rtclean apply <input.csv> --fd \"X1,X2->A\" [--fd ...] --log <mutations.json> [options]
       rtclean scenario list
       rtclean scenario <name> [--seed N] [--rows N] [options]
       rtclean snapshot <input.csv> --fd <spec> [--fd ...] --output <file.snap> [options]
       rtclean restore <file.snap> [--tau N | --tau-r F | --spectrum] [--output <file.csv>]
       rtclean serve [--listen <host:port>] [--unix <path>] [serve options]
       rtclean connect [<host:port> | unix:<path>]

Input files load through the typed ingestion layer: column types
(int/float/str) are inferred, a configurable null policy applies per cell,
and the data is parsed directly into dictionary codes. Use --tsv for
tab-separated input.

`rtclean apply` replays a JSON mutation log (inserts / deletes / cell
updates / FD edits) against a live engine session, maintaining the prepared
state incrementally, then reports the session and prints the post-mutation
spectrum. With --verify it additionally rebuilds an engine from scratch on
the mutated inputs and checks the outputs are bit-identical.

`rtclean scenario <name>` builds a named workload from the scenario
catalog (seeded generation or a bundled fixture + seeded error injection)
and repairs it; `rtclean scenario list` prints the catalog.

`rtclean snapshot` builds an engine and writes its full prepared state
(dictionaries, code columns, conflict graph, heuristic warm-start) to a
versioned, checksummed binary snapshot; `rtclean restore` rebuilds the
engine from such a file — without ever rebuilding the conflict graph —
and answers repair queries from it.

`rtclean serve` hosts named repair sessions over TCP (and optionally a
Unix socket) speaking the line-delimited JSON protocol of rt-proto;
`rtclean connect` opens an interactive REPL against a running server
(type `help` at the prompt). Results over the wire are bit-identical to
in-process runs. With --data-dir, sessions are durable: every mutation is
journaled to a per-session WAL, snapshots rotate atomically, and a
restarted server recovers every session by restore + replay.

serve options:
  --listen <host:port> TCP listen address (default: 127.0.0.1:7171)
  --unix <path>        listen on a Unix socket instead of TCP
  --max-sessions <N>   resident session cap; LRU-evicts beyond it (default: 16)
  --max-cells <N>      per-session instance cell cap (default: 4000000)
  --idle-ops <N>       evict sessions idle for N logical ops; 0 = never
  --max-connections <N> concurrently served connections (default: 8)
  --data-dir <dir>     durable session store: snapshot + WAL per session,
                       recovered on restart (default: in-memory only)
  --wal-sync           fsync the WAL on every mutation (stronger durability,
                       slower acks)

scenario options:
  --seed <N>           scenario seed (generation + injection; default: 17)
  --rows <N>           override the scenario's default size

apply options:
  --log <file>         JSON mutation log to replay (required)
  --per-op | --batch   replay one engine batch per log entry (default) or
                       apply the whole log as a single atomic batch
  --verify             compare against a freshly built engine afterwards

options:
  --fd <spec>          functional dependency, e.g. \"Surname,GivenName->Income\"
                       (repeat the flag for several FDs; at least one required)
  --tsv                treat the input as tab-separated
  --tau <N>            allow at most N cell changes (single repair)
  --tau-r <F>          relative trust in [0,1]; 0 = trust the data (default: --spectrum)
  --spectrum           enumerate all non-dominated repairs
  --weight <kind>      distinct | count | entropy   (default: distinct)
  --output <file>      write the repaired instance as CSV (single-repair modes)
  --seed <N>           seed for the data-repair step (default: 0)
  --max-expansions <N> search budget (default: 500000)
  --threads <T>        worker threads: auto | serial | <count>  (default: auto)
                       results are identical for every setting; more threads
                       only make the repair faster
  --shard-rows <S>     shard the conflict-graph build: auto | off | <row
                       threshold> (default: auto = shard at 100000 rows).
                       Shards are blocking-closed row groups built
                       independently and merged; results are bit-identical
                       to the monolithic build at every setting
  --help               print this help
";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut input: Option<String> = None;
    let mut fd_specs = Vec::new();
    let mut mode: Option<Mode> = None;
    let mut output = None;
    let mut tsv = false;
    let mut engine = EngineOpts::new(0);

    let mut i = 0;
    while i < args.len() {
        if engine.consume_flag(args, &mut i)?
            || consume_mode_option(args, &mut i, &mut mode, &mut output)?
        {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--fd" => fd_specs.push(take_value(args, &mut i)?),
            "--tsv" => tsv = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => {
                if input.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                input = Some(other.to_string());
            }
        }
        i += 1;
    }

    let input = input.ok_or_else(|| USAGE.to_string())?;
    if fd_specs.is_empty() {
        return Err("at least one --fd is required".to_string());
    }
    Ok(Options {
        input,
        fd_specs,
        mode: mode.unwrap_or(Mode::Spectrum),
        output,
        tsv,
        engine,
    })
}

/// Maps a failure from the CSV writer (`relation::csv`) onto the right `EngineError`
/// variant: file-access problems become `Io` (with the path), parse
/// problems keep their structured `Relation` form.
fn file_error(path: &str, e: RelationError) -> EngineError {
    match e {
        RelationError::Io(message) => EngineError::Io {
            path: path.to_string(),
            message,
        },
        other => EngineError::Relation(other),
    }
}

/// Maps a typed-ingestion failure onto the engine boundary: access
/// problems become `Io`, syntax/typing problems become `Parse` (with the
/// line number), substrate problems stay `Relation`.
fn load_error(path: &str, e: IoError) -> EngineError {
    match e {
        IoError::Io(message) => EngineError::Io {
            path: path.to_string(),
            message,
        },
        IoError::Parse { line, message } => EngineError::Parse {
            path: path.to_string(),
            line,
            message,
        },
        IoError::Relation(e) => EngineError::Relation(e),
    }
}

/// Loads the input through the typed ingestion layer (inferred column
/// types, dictionary-direct encoding) and reports what was inferred.
fn load_input(path: &str, tsv: bool) -> Result<relative_trust::io::LoadReport, EngineError> {
    let base = if tsv {
        CsvOptions::tsv()
    } else {
        CsvOptions::csv()
    };
    let report = relative_trust::io::load_path(path, &base.relation("input"))
        .map_err(|e| load_error(path, e))?;
    let types: Vec<String> = report
        .instance
        .schema()
        .attributes()
        .zip(report.columns.iter())
        .map(|((_, name), ty)| format!("{name}:{ty}"))
        .collect();
    println!(
        "loaded {} tuples × {} attributes from {path} ({} null cells)",
        report.instance.len(),
        report.instance.schema().arity(),
        report.null_cells,
    );
    println!("inferred column types: {}", types.join(", "));
    Ok(report)
}

fn run(options: &Options) -> Result<(), EngineError> {
    // File I/O and CSV parsing surface as typed `EngineError`s, never as
    // panics: bad user input exits non-zero with a one-line message.
    let instance = load_input(&options.input, options.tsv)?.instance;
    let schema = instance.schema().clone();
    let specs: Vec<&str> = options.fd_specs.iter().map(String::as_str).collect();
    let fds = FdSet::parse(&specs, &schema).map_err(EngineError::Fd)?;
    println!("FDs: {}", fds.display_with(&schema));
    if fds.holds_on(&instance) {
        println!("the data already satisfies the FDs — nothing to repair");
        return Ok(());
    }

    let engine = options
        .engine
        .configure(RepairEngine::builder(instance.clone(), fds))
        .build()?;
    let budget = engine.delta_p_original();
    println!(
        "{} conflicting tuple pairs; repairing everything by cell changes would \
         touch at most {budget} cells\n",
        engine.problem().conflict_graph().edge_count()
    );

    report_results(
        &engine,
        &instance,
        &schema,
        options.mode,
        options.output.as_deref(),
    )
}

/// Shared reporting tail of the CSV and scenario front ends: the lazy
/// spectrum sweep, or one materialized repair (optionally written out).
fn report_results(
    engine: &RepairEngine,
    instance: &Instance,
    schema: &Schema,
    mode: Mode,
    output: Option<&str>,
) -> Result<(), EngineError> {
    let budget = engine.delta_p_original();
    match mode {
        Mode::Spectrum => {
            // The sweep is lazy: each repair is materialized as it is
            // printed, off one shared Range-Repair traversal.
            let mut count = 0usize;
            for point in engine.sweep(0..=budget) {
                let point = point?;
                count += 1;
                println!(
                    "  τ ∈ [{:>4}, {:>4}]  FD cost {:>10.1}  cell changes {:>5}   {}",
                    point.tau_range.0,
                    point.tau_range.1,
                    point.repair.dist_c,
                    point.repair.data_changes(),
                    point.repair.modified_fds.display_with(schema)
                );
            }
            println!("{count} non-dominated repairs.");
            println!(
                "\nre-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one."
            );
        }
        Mode::Repair(spec) => {
            let tau = match spec {
                TauSpec::Absolute(t) => t.min(budget),
                TauSpec::Relative(f) => engine.absolute_tau(f),
            };
            let repair = engine.repair_at(tau)?;
            println!("repair for τ = {tau}:");
            println!(
                "  modified FDs : {}",
                repair.modified_fds.display_with(schema)
            );
            println!("  FD distance  : {:.1}", repair.dist_c);
            println!("  cell changes : {}", repair.data_changes());
            for cell in repair.changed_cells.iter().take(25) {
                println!(
                    "    row {} [{}]: {} -> {}",
                    cell.row,
                    schema.attr_name(cell.attr).unwrap_or("?"),
                    instance
                        .cell(*cell)
                        .map(|v| v.to_string())
                        .unwrap_or_default(),
                    repair
                        .repaired_instance
                        .cell(*cell)
                        .map(|v| v.to_string())
                        .unwrap_or_default()
                );
            }
            if repair.changed_cells.len() > 25 {
                println!("    ... and {} more", repair.changed_cells.len() - 25);
            }
            if let Some(path) = output {
                relative_trust::relation::csv::write_instance_to_path(
                    &repair.repaired_instance,
                    path,
                )
                .map_err(|e| file_error(path, e))?;
                println!("repaired instance written to {path}");
            }
        }
    }
    Ok(())
}

/// Options of the `apply` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct ApplyOptions {
    input: String,
    fd_specs: Vec<String>,
    log: String,
    tsv: bool,
    /// One engine batch per log entry (streaming replay) vs one atomic
    /// batch for the whole log.
    per_op: bool,
    verify: bool,
    engine: EngineOpts,
}

fn parse_apply_args(args: &[String]) -> Result<ApplyOptions, String> {
    let mut input: Option<String> = None;
    let mut fd_specs = Vec::new();
    let mut log: Option<String> = None;
    let mut tsv = false;
    let mut per_op = true;
    let mut verify = false;
    let mut engine = EngineOpts::new(0);

    let mut i = 0;
    while i < args.len() {
        if engine.consume_flag(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--fd" => fd_specs.push(take_value(args, &mut i)?),
            "--log" => log = Some(take_value(args, &mut i)?),
            "--tsv" => tsv = true,
            "--per-op" => per_op = true,
            "--batch" => per_op = false,
            "--verify" => verify = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => {
                if input.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                input = Some(other.to_string());
            }
        }
        i += 1;
    }

    Ok(ApplyOptions {
        input: input.ok_or_else(|| USAGE.to_string())?,
        fd_specs: if fd_specs.is_empty() {
            return Err("at least one --fd is required".to_string());
        } else {
            fd_specs
        },
        log: log.ok_or_else(|| "apply requires --log <mutations.json>".to_string())?,
        tsv,
        per_op,
        verify,
        engine,
    })
}

fn run_apply(options: &ApplyOptions) -> Result<(), EngineError> {
    let instance = load_input(&options.input, options.tsv)?.instance;
    let schema = instance.schema().clone();
    let specs: Vec<&str> = options.fd_specs.iter().map(String::as_str).collect();
    let fds = FdSet::parse(&specs, &schema).map_err(EngineError::Fd)?;

    let log_text =
        std::fs::read_to_string(&options.log).map_err(|e| EngineError::io(&options.log, e))?;
    let ops = relative_trust::engine::parse_mutation_log(&log_text, &schema)
        .map_err(EngineError::Mutation)?;

    println!("{} log entries from {}", ops.len(), options.log);

    let mut engine = options
        .engine
        .configure(RepairEngine::builder(instance, fds))
        .build()?;

    if options.per_op {
        for (i, op) in ops.iter().enumerate() {
            let outcome = engine.apply(&MutationBatch::new().push(op.clone()))?;
            let e = outcome.effect;
            println!(
                "  op #{i:<3} rows +{}/-{}  cells ~{}  fds +{}/-{}  edges +{}/-{}  \
                 components {}  sweep cache {}",
                e.rows_inserted,
                e.rows_deleted,
                e.cells_updated,
                e.fds_added,
                e.fds_removed,
                e.edges_added,
                e.edges_removed,
                e.components_dirtied,
                if outcome.sweep_cache_retained {
                    "kept"
                } else {
                    "reset"
                }
            );
        }
    } else {
        let batch: MutationBatch = ops.iter().cloned().collect();
        let outcome = engine.apply(&batch)?;
        let e = outcome.effect;
        println!(
            "  batch of {}: rows +{}/-{}  cells ~{}  fds +{}/-{}  edges +{}/-{}  components {}",
            batch.len(),
            e.rows_inserted,
            e.rows_deleted,
            e.cells_updated,
            e.fds_added,
            e.fds_removed,
            e.edges_added,
            e.edges_removed,
            e.components_dirtied,
        );
    }

    let stats = engine.stats();
    println!(
        "\nlive session after replay: {} tuples, {} FDs, {} conflict edges",
        engine.problem().instance().len(),
        engine.problem().fd_count(),
        engine.problem().conflict_graph().edge_count()
    );
    println!(
        "  conflict graph builds : {} (rebuilds avoided: {})",
        stats.conflict_graph_builds, stats.graph_rebuild_avoided
    );
    println!(
        "  incremental edge delta: +{} / -{}  ({} components dirtied)",
        stats.edges_added, stats.edges_removed, stats.components_dirtied
    );

    let budget = engine.delta_p_original();
    println!("\npost-mutation spectrum (δP reference {budget}):");
    let spectrum = engine.spectrum()?;
    for point in &spectrum.points {
        println!(
            "  τ ∈ [{:>4}, {:>4}]  FD cost {:>10.1}  cell changes {:>5}   {}",
            point.tau_range.0,
            point.tau_range.1,
            point.repair.dist_c,
            point.repair.data_changes(),
            point.repair.modified_fds.display_with(&schema)
        );
    }

    if options.verify {
        let fresh = options
            .engine
            .configure(RepairEngine::builder(
                engine.problem().instance().clone(),
                engine.problem().sigma().clone(),
            ))
            .build()?;
        let fresh_spectrum = fresh.spectrum()?;
        if spectrum.bit_identical(&fresh_spectrum) {
            println!(
                "\nverify: OK — incremental session is bit-identical to a fresh rebuild \
                 ({} spectrum points)",
                spectrum.len()
            );
        } else {
            return Err(EngineError::Mutation(
                "verification failed: incremental session diverged from a fresh rebuild".into(),
            ));
        }
    }
    Ok(())
}

/// Options of the `scenario` subcommand. The engine seed doubles as the
/// scenario seed (generation + injection), so one `--seed` controls the
/// whole run.
#[derive(Debug, Clone, PartialEq)]
struct ScenarioOptions {
    name: String,
    rows: Option<usize>,
    mode: Mode,
    output: Option<String>,
    engine: EngineOpts,
}

fn parse_scenario_args(args: &[String]) -> Result<ScenarioOptions, String> {
    let mut name: Option<String> = None;
    let mut rows: Option<usize> = None;
    let mut mode: Option<Mode> = None;
    let mut output = None;
    let mut engine = EngineOpts::new(17);

    let mut i = 0;
    while i < args.len() {
        if engine.consume_flag(args, &mut i)?
            || consume_mode_option(args, &mut i, &mut mode, &mut output)?
        {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--rows" => {
                let v = take_value(args, &mut i)?;
                rows = Some(
                    v.parse()
                        .map_err(|_| format!("invalid --rows value `{v}`"))?,
                );
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => {
                if name.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                name = Some(other.to_string());
            }
        }
        i += 1;
    }

    Ok(ScenarioOptions {
        name: name.ok_or_else(|| USAGE.to_string())?,
        rows,
        mode: mode.unwrap_or(Mode::Spectrum),
        output,
        engine,
    })
}

fn run_scenario(options: &ScenarioOptions) -> Result<(), EngineError> {
    if options.name == "list" {
        println!("available scenarios:");
        for info in relative_trust::scenarios::catalog() {
            println!("  {:<10} {}", info.name, info.description);
        }
        println!("\nrun one with: rtclean scenario <name> [--seed N] [--rows N]");
        return Ok(());
    }
    let scenario = relative_trust::scenarios::build(
        &options.name,
        &ScenarioConfig {
            seed: options.engine.seed,
            rows: options.rows,
        },
    )
    .map_err(EngineError::InvalidConfig)?;
    let schema = scenario.dirty.schema().clone();
    println!("scenario `{}`: {}", scenario.name, scenario.description);
    println!(
        "  {} tuples × {} attributes (seed {})",
        scenario.dirty.len(),
        schema.arity(),
        options.engine.seed
    );
    println!("  FDs: {}", scenario.dirty_fds.display_with(&schema));
    let r = &scenario.report;
    println!(
        "  injected errors: {} typos, {} swaps, {} corruptions, {} FD attrs dropped",
        r.typos, r.swaps, r.corruptions, r.fd_attrs_dropped
    );

    let engine = options
        .engine
        .configure(RepairEngine::builder(
            scenario.dirty.clone(),
            scenario.dirty_fds.clone(),
        ))
        .build()?;
    println!(
        "  {} conflicting tuple pairs; δP reference {}\n",
        engine.problem().conflict_graph().edge_count(),
        engine.delta_p_original()
    );
    report_results(
        &engine,
        &scenario.dirty,
        &schema,
        options.mode,
        options.output.as_deref(),
    )
}

/// Options of the `snapshot` subcommand: the main form's load surface
/// plus a mandatory snapshot destination.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotOptions {
    input: String,
    fd_specs: Vec<String>,
    output: String,
    tsv: bool,
    engine: EngineOpts,
}

fn parse_snapshot_args(args: &[String]) -> Result<SnapshotOptions, String> {
    let mut input: Option<String> = None;
    let mut fd_specs = Vec::new();
    let mut output: Option<String> = None;
    let mut tsv = false;
    let mut engine = EngineOpts::new(0);

    let mut i = 0;
    while i < args.len() {
        if engine.consume_flag(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--fd" => fd_specs.push(take_value(args, &mut i)?),
            "--output" => output = Some(take_value(args, &mut i)?),
            "--tsv" => tsv = true,
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => {
                if input.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                input = Some(other.to_string());
            }
        }
        i += 1;
    }
    if fd_specs.is_empty() {
        return Err("at least one --fd is required".to_string());
    }
    Ok(SnapshotOptions {
        input: input.ok_or_else(|| USAGE.to_string())?,
        fd_specs,
        output: output.ok_or_else(|| "snapshot requires --output <file.snap>".to_string())?,
        tsv,
        engine,
    })
}

fn run_snapshot(options: &SnapshotOptions) -> Result<(), EngineError> {
    let instance = load_input(&options.input, options.tsv)?.instance;
    let schema = instance.schema().clone();
    let specs: Vec<&str> = options.fd_specs.iter().map(String::as_str).collect();
    let fds = FdSet::parse(&specs, &schema).map_err(EngineError::Fd)?;
    let engine = options
        .engine
        .configure(RepairEngine::builder(instance, fds))
        .build()?;
    let blob = engine.snapshot()?;
    std::fs::write(&options.output, &blob).map_err(|e| EngineError::io(&options.output, e))?;
    println!(
        "snapshot: {} bytes ({} tuples, {} FDs, {} conflict edges) written to {}",
        blob.len(),
        engine.problem().instance().len(),
        engine.problem().fd_count(),
        engine.problem().conflict_graph().edge_count(),
        options.output,
    );
    println!("restore it with: rtclean restore {}", options.output);
    Ok(())
}

/// Options of the `restore` subcommand: a snapshot file plus the shared
/// repair-selection surface.
#[derive(Debug, Clone, PartialEq)]
struct RestoreOptions {
    input: String,
    mode: Mode,
    output: Option<String>,
}

fn parse_restore_args(args: &[String]) -> Result<RestoreOptions, String> {
    let mut input: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut output = None;

    let mut i = 0;
    while i < args.len() {
        if consume_mode_option(args, &mut i, &mut mode, &mut output)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            other => {
                if input.is_some() {
                    return Err(format!("unexpected positional argument `{other}`"));
                }
                input = Some(other.to_string());
            }
        }
        i += 1;
    }
    Ok(RestoreOptions {
        input: input.ok_or_else(|| USAGE.to_string())?,
        mode: mode.unwrap_or(Mode::Spectrum),
        output,
    })
}

fn run_restore(options: &RestoreOptions) -> Result<(), EngineError> {
    let bytes = std::fs::read(&options.input).map_err(|e| EngineError::io(&options.input, e))?;
    let engine = RepairEngine::restore(&bytes)?;
    let instance = engine.problem().instance().clone();
    let schema = instance.schema().clone();
    let stats = engine.stats();
    println!(
        "restored {} tuples × {} attributes, {} FDs, {} conflict edges from {}",
        instance.len(),
        schema.arity(),
        engine.problem().fd_count(),
        engine.problem().conflict_graph().edge_count(),
        options.input,
    );
    println!(
        "prepared state came back warm: conflict graph builds since restore = {}\n",
        stats.conflict_graph_builds
    );
    report_results(
        &engine,
        &instance,
        &schema,
        options.mode,
        options.output.as_deref(),
    )
}

/// Options of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
struct ServeOptions {
    listen: String,
    unix: Option<String>,
    config: ServerConfig,
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        listen: "127.0.0.1:7171".to_string(),
        unix: None,
        config: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--listen" => options.listen = take_value(args, &mut i)?,
            "--unix" => options.unix = Some(take_value(args, &mut i)?),
            "--max-sessions" => {
                let v = take_value(args, &mut i)?;
                options.config.max_sessions = v
                    .parse()
                    .map_err(|_| format!("invalid --max-sessions value `{v}`"))?;
            }
            "--max-cells" => {
                let v = take_value(args, &mut i)?;
                options.config.max_session_cells = v
                    .parse()
                    .map_err(|_| format!("invalid --max-cells value `{v}`"))?;
            }
            "--idle-ops" => {
                let v = take_value(args, &mut i)?;
                options.config.idle_ops = v
                    .parse()
                    .map_err(|_| format!("invalid --idle-ops value `{v}`"))?;
            }
            "--max-connections" => {
                let v = take_value(args, &mut i)?;
                options.config.max_connections = v
                    .parse()
                    .map_err(|_| format!("invalid --max-connections value `{v}`"))?;
            }
            "--data-dir" => {
                options.config.data_dir = Some(std::path::PathBuf::from(take_value(args, &mut i)?));
            }
            "--wal-sync" => options.config.wal_sync = true,
            other => return Err(format!("unknown serve option `{other}`")),
        }
        i += 1;
    }
    Ok(options)
}

fn run_serve(options: &ServeOptions) -> Result<(), String> {
    let server = match &options.unix {
        Some(path) => {
            #[cfg(unix)]
            {
                Server::bind_unix_with(path, options.config.clone())
                    .map_err(|e| format!("cannot bind unix socket {path}: {e}"))?
            }
            #[cfg(not(unix))]
            {
                return Err("unix sockets are not available on this platform".to_string());
            }
        }
        None => Server::bind_tcp_with(&options.listen, options.config.clone())
            .map_err(|e| format!("cannot bind {}: {e}", options.listen))?,
    };
    match server.local_addr() {
        Some(addr) => println!("rtclean serve: listening on {addr}"),
        None => println!(
            "rtclean serve: listening on unix socket {}",
            options.unix.as_deref().unwrap_or("?")
        ),
    }
    if let Some(dir) = &options.config.data_dir {
        println!(
            "durable sessions in {} ({}); restarts recover them by restore + WAL replay",
            dir.display(),
            if options.config.wal_sync {
                "WAL fsynced per mutation"
            } else {
                "WAL buffered"
            }
        );
    }
    println!("send a `shutdown` request (or `shutdown` in the REPL) to stop");
    server.run().map_err(|e| format!("server failed: {e}"))
}

const REPL_HELP: &str = "\
commands:
  open <name> [--weight K] [--seed N] [--max-expansions N] [--threads T]
              [--shard-rows S]
                         create a session and make it current
  load <file.csv> --fd <spec> [--fd ...] [--tsv]
                         load CSV/TSV + FDs, building the session's engine
  apply <log.json>       replay a JSON mutation log as one atomic batch
  repair --tau <N> | --tau-r <F>
                         one repair at an absolute / relative budget
  sweep <lo> <hi> [<offset> [<limit>]]
                         one page of the spectrum sweep
  spectrum               the full spectrum
  stats                  the session's engine statistics
  server-stats           server-wide counters
  snapshot               rotate the session's durable snapshot now
                         (server must run with --data-dir)
  restore <name>         reattach to a session from the server's durable
                         store (after a restart or eviction)
  close                  close the current session
  ping                   liveness probe
  shutdown               stop the server
  quit | exit            leave the REPL (the session stays resident)";

/// Evaluates one REPL line against the server; returns the text to print.
/// Every engine/protocol failure comes back as `Err` with the server's
/// typed message — the REPL never panics on bad input.
fn repl_eval(client: &Client, session: &mut Option<Session>, line: &str) -> Result<String, String> {
    let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    let command = tokens.first().map(String::as_str).unwrap_or("");
    let need_session = |session: &mut Option<Session>| -> Result<(), String> {
        if session.is_none() {
            return Err("no open session — use `open <name>` first".to_string());
        }
        Ok(())
    };
    match command {
        "help" => Ok(REPL_HELP.to_string()),
        "ping" => {
            client.ping().map_err(|e| e.to_string())?;
            Ok("pong".to_string())
        }
        "open" => {
            let name = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: open <name> [engine flags]")?
                .clone();
            // The REPL parses engine flags through the same EngineOpts
            // path as the command line and the wire.
            let mut opts = EngineOpts::new(0);
            let mut i = 2;
            while i < tokens.len() {
                if !opts.consume_flag(&tokens, &mut i)? {
                    return Err(format!("unknown open option `{}`", tokens[i]));
                }
                i += 1;
            }
            let created = client
                .create_session(&name, opts)
                .map_err(|e| e.to_string())?;
            *session = Some(created);
            Ok(format!("session `{name}` opened"))
        }
        "load" => {
            need_session(session)?;
            let path = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: load <file.csv> --fd <spec> [--fd ...] [--tsv]")?;
            let mut fds = Vec::new();
            let mut tsv = false;
            let mut i = 2;
            while i < tokens.len() {
                match tokens[i].as_str() {
                    "--fd" => fds.push(take_value(&tokens, &mut i)?),
                    "--tsv" => tsv = true,
                    other => return Err(format!("unknown load option `{other}`")),
                }
                i += 1;
            }
            if fds.is_empty() {
                return Err("at least one --fd is required".to_string());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let specs: Vec<&str> = fds.iter().map(String::as_str).collect();
            let active = session.as_mut().expect("checked above");
            let summary = active
                .load_csv(&text, tsv, &specs)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "loaded {} rows × {} attributes ({}; {} null cells)\n\
                 {} conflict edges; δP reference {}",
                summary.rows,
                summary.attributes.len(),
                summary
                    .attributes
                    .iter()
                    .zip(summary.types.iter())
                    .map(|(a, t)| format!("{a}:{t}"))
                    .collect::<Vec<_>>()
                    .join(", "),
                summary.null_cells,
                summary.conflict_edges,
                summary.delta_p,
            ))
        }
        "apply" => {
            need_session(session)?;
            let path = tokens.get(1).ok_or("usage: apply <log.json>")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let active = session.as_mut().expect("checked above");
            let (effect, retained) = active.apply_text(&text).map_err(|e| e.to_string())?;
            Ok(format!(
                "applied: rows +{}/-{}  cells ~{}  fds +{}/-{}  edges +{}/-{}  sweep cache {}",
                effect.rows_inserted,
                effect.rows_deleted,
                effect.cells_updated,
                effect.fds_added,
                effect.fds_removed,
                effect.edges_added,
                effect.edges_removed,
                if retained { "kept" } else { "reset" },
            ))
        }
        "repair" => {
            need_session(session)?;
            let mut spec: Option<TauSpec> = None;
            let mut i = 1;
            while i < tokens.len() {
                match tokens[i].as_str() {
                    "--tau" => {
                        let v = take_value(&tokens, &mut i)?;
                        spec = Some(TauSpec::Absolute(
                            v.parse()
                                .map_err(|_| format!("invalid --tau value `{v}`"))?,
                        ));
                    }
                    "--tau-r" => {
                        let v = take_value(&tokens, &mut i)?;
                        let f: f64 = v
                            .parse()
                            .map_err(|_| format!("invalid --tau-r value `{v}`"))?;
                        spec = Some(TauSpec::relative(f).map_err(|e| format!("--tau-r: {e}"))?);
                    }
                    other => return Err(format!("unknown repair option `{other}`")),
                }
                i += 1;
            }
            let spec = spec.ok_or("usage: repair --tau <N> | --tau-r <F>")?;
            let active = session.as_mut().expect("checked above");
            let schema = active.schema().cloned();
            let repair = match spec {
                TauSpec::Absolute(t) => active.repair_at(t),
                TauSpec::Relative(f) => active.repair_at_relative(f),
            }
            .map_err(|e| e.to_string())?;
            let fds = match &schema {
                Some(s) => repair.modified_fds.display_with(s),
                None => format!("{} FDs", repair.modified_fds.len()),
            };
            Ok(format!(
                "repair for τ = {}:\n  modified FDs : {}\n  FD distance  : {:.1}\n  cell changes : {}",
                repair.tau,
                fds,
                repair.dist_c,
                repair.data_changes(),
            ))
        }
        "sweep" | "spectrum" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let (points, trailer) = if command == "spectrum" {
                let spectrum = active.spectrum().map_err(|e| e.to_string())?;
                let n = spectrum.len();
                (spectrum.points, format!("{n} non-dominated repairs."))
            } else {
                let parse_at = |idx: usize, what: &str, default: usize| -> Result<usize, String> {
                    match tokens.get(idx) {
                        None => Ok(default),
                        Some(v) => v.parse().map_err(|_| format!("invalid {what} `{v}`")),
                    }
                };
                let lo = parse_at(1, "lo", 0)?;
                let hi = match tokens.get(2) {
                    Some(v) => v.parse().map_err(|_| format!("invalid hi `{v}`"))?,
                    None => return Err("usage: sweep <lo> <hi> [<offset> [<limit>]]".to_string()),
                };
                let offset = parse_at(3, "offset", 0)?;
                let limit = parse_at(4, "limit", 0)?;
                let (points, done) = active
                    .sweep_page(lo, hi, offset, limit)
                    .map_err(|e| e.to_string())?;
                let n = points.len();
                (
                    points,
                    format!("{n} points{}", if done { " (range exhausted)" } else { "" }),
                )
            };
            let schema = active.schema().cloned();
            let mut out = String::new();
            for point in &points {
                let fds = match &schema {
                    Some(s) => point.repair.modified_fds.display_with(s),
                    None => format!("{} FDs", point.repair.modified_fds.len()),
                };
                out.push_str(&format!(
                    "  τ ∈ [{:>4}, {:>4}]  FD cost {:>10.1}  cell changes {:>5}   {}\n",
                    point.tau_range.0,
                    point.tau_range.1,
                    point.repair.dist_c,
                    point.repair.data_changes(),
                    fds,
                ));
            }
            out.push_str(&trailer);
            Ok(out)
        }
        "stats" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let stats = active.stats().map_err(|e| e.to_string())?;
            Ok(format!(
                "conflict graph builds {} (rebuilds avoided {})\n\
                 repair queries {}  sweeps {}  points {}\n\
                 states expanded {}  generated {}  truncated {}",
                stats.conflict_graph_builds,
                stats.graph_rebuild_avoided,
                stats.repair_queries,
                stats.sweeps_started,
                stats.points_materialized,
                stats.states_expanded,
                stats.states_generated,
                stats.truncated,
            ))
        }
        "server-stats" => {
            let counters = client.server_stats().map_err(|e| e.to_string())?;
            Ok(counters
                .iter()
                .map(|(name, value)| format!("  {name:<20} {value}"))
                .collect::<Vec<_>>()
                .join("\n"))
        }
        "snapshot" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let bytes = active.snapshot().map_err(|e| e.to_string())?;
            Ok(format!("snapshot rotated ({bytes} bytes)"))
        }
        "restore" => {
            let name = tokens
                .get(1)
                .filter(|t| !t.starts_with("--"))
                .ok_or("usage: restore <name>")?
                .clone();
            let (restored, summary, replayed) =
                client.restore_session(&name).map_err(|e| e.to_string())?;
            *session = Some(restored);
            Ok(format!(
                "session `{name}` restored: {} rows × {} attributes, {} WAL records replayed",
                summary.rows,
                summary.attributes.len(),
                replayed,
            ))
        }
        "close" => {
            need_session(session)?;
            let active = session.take().expect("checked above");
            let name = active.name().to_string();
            active.close().map_err(|e| e.to_string())?;
            Ok(format!("session `{name}` closed"))
        }
        "shutdown" => {
            client.shutdown().map_err(|e| e.to_string())?;
            *session = None;
            Ok("server is shutting down".to_string())
        }
        "" => Ok(String::new()),
        other => Err(format!("unknown command `{other}` — type `help`")),
    }
}

fn run_connect(target: &str) -> Result<(), String> {
    let client = Client::connect(target).map_err(|e| format!("cannot connect to {target}: {e}"))?;
    client.ping().map_err(|e| e.to_string())?;
    println!("connected to {target} — type `help` for commands, `quit` to leave");
    let mut session: Option<Session> = None;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        use std::io::Write;
        print!("rt> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(format!("stdin: {e}")),
        }
        let trimmed = line.trim();
        if trimmed == "quit" || trimmed == "exit" {
            break;
        }
        match repl_eval(&client, &mut session, trimmed) {
            Ok(output) if output.is_empty() => {}
            Ok(output) => println!("{output}"),
            Err(message) => eprintln!("error: {message}"),
        }
        if trimmed == "shutdown" {
            break;
        }
    }
    Ok(())
}

/// Parses `connect`'s optional target (default `127.0.0.1:7171`). A flag
/// other than `--help`, or more than one argument, gets the one-line usage.
fn parse_connect_args(args: &[String]) -> Result<String, String> {
    let target = args.first().map_or("127.0.0.1:7171", String::as_str);
    if args.len() > 1 || target.starts_with("--") && target != "--help" {
        return Err("usage: rtclean connect [<host:port> | unix:<path>]".to_string());
    }
    if target == "--help" {
        return Err(USAGE.to_string());
    }
    Ok(target.to_string())
}

/// Runs one subcommand to its exit code. A parse error is usage text and
/// prints bare; a run error prints with an `error: ` prefix.
fn exit_with<O, E: std::fmt::Display>(
    parsed: Result<O, String>,
    run: impl FnOnce(&O) -> Result<(), E>,
) -> ExitCode {
    let result = match parsed {
        Ok(options) => run(&options),
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        Some("serve") => exit_with(parse_serve_args(rest), run_serve),
        Some("connect") => exit_with(parse_connect_args(rest), |target| run_connect(target)),
        Some("scenario") => exit_with(parse_scenario_args(rest), run_scenario),
        Some("snapshot") => exit_with(parse_snapshot_args(rest), run_snapshot),
        Some("restore") => exit_with(parse_restore_args(rest), run_restore),
        Some("apply") => exit_with(parse_apply_args(rest), run_apply),
        _ => exit_with(parse_args(&args), run),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_minimal_spectrum_invocation() {
        let o = parse_args(&args(&["data.csv", "--fd", "A->B"])).unwrap();
        assert_eq!(o.input, "data.csv");
        assert_eq!(o.fd_specs, vec!["A->B".to_string()]);
        assert_eq!(o.mode, Mode::Spectrum);
        assert_eq!(o.engine.weight, WeightKind::DistinctCount);
        assert_eq!(o.engine.seed, 0);
    }

    #[test]
    fn parses_full_single_repair_invocation() {
        let o = parse_args(&args(&[
            "d.csv",
            "--fd",
            "A->B",
            "--fd",
            "C,D->E",
            "--tau-r",
            "0.25",
            "--weight",
            "entropy",
            "--output",
            "out.csv",
            "--seed",
            "9",
            "--max-expansions",
            "1234",
        ]))
        .unwrap();
        assert_eq!(o.fd_specs.len(), 2);
        assert_eq!(o.mode, Mode::Repair(TauSpec::Relative(0.25)));
        assert_eq!(o.engine.weight, WeightKind::Entropy);
        assert_eq!(o.output.as_deref(), Some("out.csv"));
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.engine.max_expansions, 1234);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&["--fd", "A->B"])).is_err()); // no input file
        assert!(parse_args(&args(&["d.csv"])).is_err()); // no FDs
        assert!(parse_args(&args(&["d.csv", "--fd", "A->B", "--tau", "x"])).is_err());
        assert!(parse_args(&args(&["d.csv", "--fd", "A->B", "--tau-r", "1.5"])).is_err());
        assert!(parse_args(&args(&["d.csv", "--fd", "A->B", "--weight", "bogus"])).is_err());
        assert!(parse_args(&args(&["d.csv", "--fd", "A->B", "--bogus"])).is_err());
        assert!(parse_args(&args(&["d.csv", "extra.csv", "--fd", "A->B"])).is_err());
        assert!(parse_args(&args(&["--help"])).is_err());
    }

    #[test]
    fn tau_mode_parses_absolute_budget() {
        let o = parse_args(&args(&["d.csv", "--fd", "A->B", "--tau", "7"])).unwrap();
        assert_eq!(o.mode, Mode::Repair(TauSpec::Absolute(7)));
    }

    #[test]
    fn threads_flag_parses_all_spellings() {
        let o = parse_args(&args(&["d.csv", "--fd", "A->B"])).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Auto);
        let o = parse_args(&args(&["d.csv", "--fd", "A->B", "--threads", "serial"])).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Serial);
        let o = parse_args(&args(&["d.csv", "--fd", "A->B", "--threads", "4"])).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Fixed(4));
        assert!(parse_args(&args(&["d.csv", "--fd", "A->B", "--threads", "x"])).is_err());
    }

    #[test]
    fn missing_input_file_is_a_typed_error_not_a_panic() {
        let options = Options {
            input: "/nonexistent/definitely_missing.csv".to_string(),
            fd_specs: vec!["A->B".to_string()],
            mode: Mode::Repair(TauSpec::Absolute(1)),
            output: None,
            tsv: false,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 0,
                max_expansions: 1000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        let err = run(&options).unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }), "got {err:?}");
        assert!(err.to_string().contains("definitely_missing.csv"));
    }

    #[test]
    fn malformed_csv_is_a_typed_error_not_a_panic() {
        let dir = std::env::temp_dir().join("rtclean_test_bad_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("ragged.csv");
        // Second data row has the wrong number of fields.
        std::fs::write(&input, "A,B\n1,1\n2\n").unwrap();
        let options = Options {
            input: input.to_string_lossy().to_string(),
            fd_specs: vec!["A->B".to_string()],
            mode: Mode::Repair(TauSpec::Absolute(1)),
            output: None,
            tsv: false,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 0,
                max_expansions: 1000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        let err = run(&options).unwrap_err();
        // A parse failure is not an access failure: it surfaces as the
        // structured Parse error with the offending line, not Io.
        assert!(
            matches!(err, EngineError::Parse { line: 3, .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("line 3"));
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn unknown_fd_attribute_is_a_typed_error() {
        let dir = std::env::temp_dir().join("rtclean_test_bad_fd");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        std::fs::write(&input, "A,B\n1,1\n1,2\n").unwrap();
        let options = Options {
            input: input.to_string_lossy().to_string(),
            fd_specs: vec!["A->Nope".to_string()],
            mode: Mode::Spectrum,
            output: None,
            tsv: false,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 0,
                max_expansions: 1000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        let err = run(&options).unwrap_err();
        assert!(matches!(err, EngineError::Fd(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn apply_arg_parsing() {
        let o = parse_apply_args(&args(&[
            "d.csv", "--fd", "A->B", "--log", "m.json", "--verify", "--batch", "--weight", "count",
        ]))
        .unwrap();
        assert_eq!(o.input, "d.csv");
        assert_eq!(o.log, "m.json");
        assert!(o.verify);
        assert!(!o.per_op);
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // apply accepts --tsv like the main form (the usage text promises
        // it for input files generally).
        let o = parse_apply_args(&args(&[
            "d.tsv", "--fd", "A->B", "--log", "m.json", "--tsv",
        ]))
        .unwrap();
        assert!(o.tsv);
        // --log is mandatory, as is an input and at least one FD.
        assert!(parse_apply_args(&args(&["d.csv", "--fd", "A->B"])).is_err());
        assert!(parse_apply_args(&args(&["d.csv", "--log", "m.json"])).is_err());
        assert!(parse_apply_args(&args(&["--fd", "A->B", "--log", "m.json"])).is_err());
        assert!(parse_apply_args(&args(&["d.csv", "--fd", "A->B", "--log"])).is_err());
    }

    #[test]
    fn apply_replays_a_log_and_verifies() {
        let dir = std::env::temp_dir().join("rtclean_test_apply");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let log = dir.join("mutations.json");
        std::fs::write(&input, "A,B,C\n1,1,1\n1,2,1\n2,5,3\n2,5,4\n").unwrap();
        std::fs::write(
            &log,
            r#"[
              {"op": "insert", "rows": [[1, 3, 9], [7, 7, 7]]},
              {"op": "update", "row": 0, "attr": "B", "value": 2},
              {"op": "delete", "rows": [3]},
              {"op": "add_fd", "fd": "C->B"},
              {"op": "remove_fd", "index": 0}
            ]"#,
        )
        .unwrap();
        for per_op in [true, false] {
            let options = ApplyOptions {
                input: input.to_string_lossy().to_string(),
                fd_specs: vec!["A->B".to_string()],
                log: log.to_string_lossy().to_string(),
                tsv: false,
                per_op,
                verify: true,
                engine: EngineOpts {
                    weight: WeightKind::AttrCount,
                    seed: 3,
                    max_expansions: 100_000,
                    threads: Parallelism::Serial,
                    shard_rows: ShardRows::Auto,
                },
            };
            run_apply(&options).unwrap();
        }
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn apply_rejects_invalid_logs_without_mutating() {
        let dir = std::env::temp_dir().join("rtclean_test_apply_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let log = dir.join("bad.json");
        std::fs::write(&input, "A,B\n1,1\n1,2\n").unwrap();
        std::fs::write(&log, r#"[{"op": "delete", "rows": [99]}]"#).unwrap();
        let options = ApplyOptions {
            input: input.to_string_lossy().to_string(),
            fd_specs: vec!["A->B".to_string()],
            log: log.to_string_lossy().to_string(),
            tsv: false,
            per_op: true,
            verify: false,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 0,
                max_expansions: 10_000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        let err = run_apply(&options).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&log).ok();
    }

    #[test]
    fn scenario_arg_parsing() {
        let o = parse_scenario_args(&args(&[
            "hospital",
            "--seed",
            "9",
            "--rows",
            "25",
            "--tau",
            "2",
            "--weight",
            "count",
            "--threads",
            "serial",
        ]))
        .unwrap();
        assert_eq!(o.name, "hospital");
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.rows, Some(25));
        assert_eq!(o.mode, Mode::Repair(TauSpec::Absolute(2)));
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // Defaults: catalog seed, scenario-default rows, spectrum mode.
        let o = parse_scenario_args(&args(&["sensors"])).unwrap();
        assert_eq!(o.engine.seed, 17);
        assert_eq!(o.rows, None);
        assert_eq!(o.mode, Mode::Spectrum);
        assert!(parse_scenario_args(&args(&[])).is_err());
        assert!(parse_scenario_args(&args(&["sensors", "--rows", "x"])).is_err());
        assert!(parse_scenario_args(&args(&["sensors", "--bogus"])).is_err());
    }

    #[test]
    fn scenario_list_and_unknown_names() {
        let list = ScenarioOptions {
            name: "list".to_string(),
            rows: None,
            mode: Mode::Spectrum,
            output: None,
            engine: EngineOpts {
                weight: WeightKind::DistinctCount,
                seed: 17,
                max_expansions: 1000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        run_scenario(&list).unwrap();
        let err = run_scenario(&ScenarioOptions {
            name: "nope".to_string(),
            ..list
        })
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
        assert!(err.to_string().contains("hospital"));
    }

    #[test]
    fn scenario_end_to_end_single_repair() {
        // τ far above δP: the search accepts the unmodified FDs immediately
        // and only the data-repair half runs, keeping this test fast in
        // debug builds.
        let options = ScenarioOptions {
            name: "hospital".to_string(),
            rows: Some(30),
            mode: Mode::Repair(TauSpec::Absolute(100_000)),
            output: None,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 3,
                max_expansions: 200_000,
                threads: Parallelism::Serial,
                shard_rows: ShardRows::Auto,
            },
        };
        run_scenario(&options).unwrap();
    }

    #[test]
    fn end_to_end_on_a_temporary_csv() {
        // Write a tiny violating instance, run the single-repair path.
        let dir = std::env::temp_dir().join("rtclean_test");
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let output = dir.join("out.csv");
        std::fs::write(&input, "A,B\n1,1\n1,2\n2,5\n").unwrap();
        let options = Options {
            input: input.to_string_lossy().to_string(),
            fd_specs: vec!["A->B".to_string()],
            mode: Mode::Repair(TauSpec::Absolute(2)),
            output: Some(output.to_string_lossy().to_string()),
            tsv: false,
            engine: EngineOpts {
                weight: WeightKind::AttrCount,
                seed: 1,
                max_expansions: 10_000,
                threads: Parallelism::Fixed(2),
                shard_rows: ShardRows::Auto,
            },
        };
        run(&options).unwrap();
        let repaired = relative_trust::io::load_path(&output, &CsvOptions::csv())
            .unwrap()
            .instance;
        assert_eq!(repaired.len(), 3);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn serve_args_parse_every_flag() {
        let options = parse_serve_args(&args(&[
            "--listen",
            "0.0.0.0:9000",
            "--max-sessions",
            "3",
            "--max-cells",
            "1000",
            "--idle-ops",
            "50",
            "--max-connections",
            "2",
        ]))
        .unwrap();
        assert_eq!(options.listen, "0.0.0.0:9000");
        assert_eq!(options.unix, None);
        assert_eq!(options.config.max_sessions, 3);
        assert_eq!(options.config.max_session_cells, 1000);
        assert_eq!(options.config.idle_ops, 50);
        assert_eq!(options.config.max_connections, 2);

        let defaults = parse_serve_args(&[]).unwrap();
        assert_eq!(defaults.listen, "127.0.0.1:7171");
        assert_eq!(defaults.config, ServerConfig::default());

        assert!(parse_serve_args(&args(&["--max-sessions", "x"])).is_err());
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
    }

    #[test]
    fn repl_drives_a_loopback_server_end_to_end() {
        let server = Server::bind_tcp_with("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join("rtclean_repl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("in.csv");
        std::fs::write(&csv, "A,B\n1,1\n1,2\n2,5\n").unwrap();

        let client = Client::connect(&addr.to_string()).unwrap();
        let mut session: Option<Session> = None;
        let eval = |session: &mut Option<Session>, line: &str| repl_eval(&client, session, line);

        assert_eq!(eval(&mut session, "ping").unwrap(), "pong");
        assert!(eval(&mut session, "repair --tau 1")
            .unwrap_err()
            .contains("no open session"));
        assert!(eval(&mut session, "frobnicate")
            .unwrap_err()
            .contains("unknown command"));
        assert!(eval(&mut session, "help").unwrap().contains("spectrum"));

        eval(&mut session, "open s1 --seed 1 --threads serial").unwrap();
        let loaded = eval(
            &mut session,
            &format!("load {} --fd A->B", csv.to_string_lossy()),
        )
        .unwrap();
        assert!(loaded.contains("3 rows"), "got {loaded}");
        // Bad relative trust is rejected by the shared TauSpec validation.
        assert!(eval(&mut session, "repair --tau-r 1.5")
            .unwrap_err()
            .contains("[0,1]"));
        let repaired = eval(&mut session, "repair --tau 1").unwrap();
        assert!(repaired.contains("cell changes"), "got {repaired}");
        let spectrum = eval(&mut session, "spectrum").unwrap();
        assert!(spectrum.contains("non-dominated"), "got {spectrum}");
        let stats = eval(&mut session, "stats").unwrap();
        assert!(stats.contains("conflict graph builds 1"), "got {stats}");
        let counters = eval(&mut session, "server-stats").unwrap();
        assert!(counters.contains("sessions_created"), "got {counters}");
        assert_eq!(eval(&mut session, "close").unwrap(), "session `s1` closed");
        assert!(session.is_none());

        assert_eq!(
            eval(&mut session, "shutdown").unwrap(),
            "server is shutting down"
        );
        worker.join().unwrap().unwrap();
        assert!(handle.is_shutting_down());
        std::fs::remove_file(&csv).ok();
    }
}
