//! `rtclean` — command-line front end for relative-trust repair.
//!
//! Reads a CSV/TSV file (typed ingestion: column types are inferred and
//! the data is parsed directly into dictionary codes) and a set of
//! functional dependencies, and either
//!
//! * produces one repair for a chosen trust level (`--tau` / `--tau-r`), or
//! * enumerates the whole spectrum of distinct repairs (`--spectrum`),
//!   or
//! * replays a JSON mutation log against a live engine (`apply`), keeping
//!   the prepared state maintained incrementally — the conflict graph is
//!   never rebuilt, or
//! * builds and repairs a named workload from the scenario catalog
//!   (`scenario`), or
//! * writes a built engine to a snapshot file (`snapshot`) and answers
//!   repair queries from one (`restore`), or
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
//! Every command — each subcommand and the `connect` REPL's `open`, `load`
//! and `repair` — parses through one loop, [`parse`], against its row of
//! the flag table ([`COMMANDS`], [`OPEN`], [`LOAD`], [`REPAIR`]): the row
//! names the flags the command accepts and the arguments it requires.
//! The engine flags (`--weight`, `--seed`, `--max-expansions`, `--threads`)
//! go through [`EngineOpts::consume_flag`], the same path a
//! `create_session` wire request takes. `--help` prints the usage to stdout
//! and exits 0; a parse error prints to stderr and exits 1.

use relative_trust::engine::parse_mutation_log;
use relative_trust::prelude::*;
use relative_trust::proto::take_value;
use relative_trust::relation::work::Telemetry;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rtclean <input.csv> --fd \"X1,X2->A\" [--fd ...] [options]
       rtclean apply <input.csv> --fd \"X1,X2->A\" [--fd ...] --log <mutations.json> [options]
       rtclean scenario list
       rtclean scenario <name> [--seed N] [--rows N] [options]
       rtclean snapshot <input.csv> --fd <spec> [--fd ...] --output <file.snap> [options]
       rtclean restore <file.snap> [--tau N | --tau-r F | --spectrum] [--output <file.csv>]
       rtclean serve [--listen <host:port>] [--unix <path>] [serve options]
       rtclean connect [<host:port> | unix:<path>]

Input files load through the typed ingestion layer: the first row names
the columns, column types (int/float/str) are inferred, an unquoted field
is trimmed and is null when empty or NULL, null or NA, and the data is
parsed directly into dictionary codes. Use --tsv for tab-separated input.

`rtclean apply` replays a JSON mutation log (inserts / deletes / cell
updates / FD edits) against a live engine session, maintaining the prepared
state incrementally, then reports the session and prints the post-mutation
spectrum. With --verify it additionally rebuilds an engine from scratch on
the mutated inputs and checks the outputs are bit-identical.

`rtclean scenario <name>` builds a named workload from the scenario
catalog (seeded generation or a bundled fixture + seeded error injection)
and repairs it; `rtclean scenario list` prints the catalog.

`rtclean snapshot` builds an engine and writes its state (dictionaries,
code columns, FDs, settings, stats) to a versioned, checksummed binary
snapshot; `rtclean restore` builds the engine of the stored (I, Σ) from
such a file — its conflict graph among it — and answers repair queries
from it.

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
  --spectrum           enumerate all distinct repairs
  --weight <kind>      distinct | count | entropy   (default: distinct)
  --output <file>      write the repaired instance as CSV (needs --tau or --tau-r;
                       for snapshot: the snapshot file)
  --seed <N>           seed for the data-repair step (default: 0)
  --max-expansions <N> search budget (default: 500000)
  --threads <T>        worker threads: auto | serial | <count>  (default: auto)
                       results are identical for every setting; more threads
                       only make the repair faster
  --help               print this help
";

/// What `connect` prints for any argument other than one target or `--help`.
const CONNECT_USAGE: &str = "usage: rtclean connect [<host:port> | unix:<path>]";

/// The address `serve` listens on and `connect` dials by default.
const DEFAULT_ADDR: &str = "127.0.0.1:7171";

/// One command's row of the flag table.
struct Command {
    name: &'static str,
    /// The flags it accepts, in groups.
    flags: &'static [&'static [&'static str]],
    /// Whether it takes one positional argument (input file, scenario name,
    /// snapshot file or connect target). Without one, any token outside
    /// `flags` is an "unknown `name` option".
    positional: bool,
    /// The arguments it requires, in the order they are checked, each with
    /// the message for its absence; `"input"` is the positional argument.
    required: &'static [(&'static str, &'static str)],
    /// The default engine seed.
    seed: u64,
}

// Flag groups shared between rows.
const HELP: &[&str] = &["--help", "-h"];
const ENGINE: &[&str] = &["--weight", "--seed", "--max-expansions", "--threads"];
const DATA: &[&str] = &["--fd", "--tsv"];
const TAU: &[&str] = &["--tau", "--tau-r"];
const SELECT: &[&str] = &["--spectrum", "--output"];

// Required arguments shared between rows.
const INPUT: (&str, &str) = ("input", USAGE);
const FD: (&str, &str) = ("--fd", "at least one --fd is required");

/// The subcommands; the first row is the main form, which has no name.
const COMMANDS: [Command; 7] = [
    Command {
        name: "",
        flags: &[HELP, ENGINE, DATA, TAU, SELECT],
        positional: true,
        required: &[INPUT, FD],
        seed: 0,
    },
    Command {
        name: "apply",
        flags: &[
            HELP,
            ENGINE,
            DATA,
            &["--log", "--per-op", "--batch", "--verify"],
        ],
        positional: true,
        required: &[
            INPUT,
            FD,
            ("--log", "apply requires --log <mutations.json>"),
        ],
        seed: 0,
    },
    Command {
        name: "scenario",
        flags: &[HELP, ENGINE, TAU, SELECT, &["--rows"]],
        positional: true,
        required: &[INPUT],
        // The engine seed doubles as the scenario seed (generation +
        // injection), so one `--seed` controls the whole run.
        seed: 17,
    },
    Command {
        name: "snapshot",
        flags: &[HELP, ENGINE, DATA, &["--output"]],
        positional: true,
        required: &[
            FD,
            INPUT,
            ("--output", "snapshot requires --output <file.snap>"),
        ],
        seed: 0,
    },
    Command {
        name: "restore",
        flags: &[HELP, TAU, SELECT],
        positional: true,
        required: &[INPUT],
        seed: 0,
    },
    Command {
        name: "serve",
        flags: &[
            HELP,
            &[
                "--listen",
                "--unix",
                "--max-sessions",
                "--max-cells",
                "--idle-ops",
                "--max-connections",
                "--data-dir",
                "--wal-sync",
            ],
        ],
        positional: false,
        required: &[],
        seed: 0,
    },
    Command {
        name: "connect",
        flags: &[&["--help"]],
        positional: true,
        required: &[],
        seed: 0,
    },
];

/// The REPL's `open <name>` flags.
const OPEN: Command = Command {
    name: "open",
    flags: &[ENGINE],
    positional: false,
    required: &[],
    seed: 0,
};

/// The REPL's `load <file.csv>` flags.
const LOAD: Command = Command {
    name: "load",
    flags: &[DATA],
    positional: false,
    required: &[FD],
    seed: 0,
};

/// The REPL's `repair` flags.
const REPAIR: Command = Command {
    name: "repair",
    flags: &[TAU],
    positional: false,
    required: &[],
    seed: 0,
};

impl Command {
    fn accepts(&self, flag: &str) -> bool {
        self.flags.iter().any(|group| group.contains(&flag))
    }
}

/// Parsed arguments of any command; each command reads the fields its row
/// accepts.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    /// `--help` was given; parsing stopped there.
    help: bool,
    input: Option<String>,
    fd_specs: Vec<String>,
    tsv: bool,
    /// The trust level of a single repair; `None` enumerates the spectrum.
    tau: Option<TauSpec>,
    output: Option<String>,
    log: Option<String>,
    /// One engine batch per log entry (streaming replay) vs one atomic
    /// batch for the whole log.
    per_op: bool,
    verify: bool,
    rows: Option<usize>,
    engine: EngineOpts,
    listen: String,
    unix: Option<String>,
    server: ServerConfig,
}

/// Reads the value after the flag at `args[*i]` as a number.
fn number<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    let v = take_value(args, i)?;
    v.parse().map_err(|_| format!("invalid {flag} value `{v}`"))
}

/// Parses `args` against `command`'s row of the flag table: the one place
/// every `rtclean` flag is matched.
fn parse(command: &Command, args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        help: false,
        input: None,
        fd_specs: Vec::new(),
        tsv: false,
        tau: None,
        output: None,
        log: None,
        per_op: true,
        verify: false,
        rows: None,
        engine: EngineOpts::new(command.seed),
        listen: DEFAULT_ADDR.to_string(),
        unix: None,
        server: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if !command.accepts(arg) {
            if !command.positional {
                return Err(format!("unknown {} option `{arg}`", command.name));
            }
            if arg.starts_with("--") {
                return Err(format!("unknown option `{arg}`"));
            }
            if o.input.is_some() {
                return Err(format!("unexpected positional argument `{arg}`"));
            }
            o.input = Some(arg.to_string());
        } else if !o.engine.consume_flag(args, &mut i)? {
            match arg {
                "--help" | "-h" => {
                    o.help = true;
                    return Ok(o);
                }
                "--fd" => o.fd_specs.push(take_value(args, &mut i)?),
                "--tsv" => o.tsv = true,
                "--tau" => o.tau = Some(TauSpec::Absolute(number(args, &mut i)?)),
                "--tau-r" => {
                    let f = number(args, &mut i)?;
                    o.tau = Some(TauSpec::relative(f).map_err(|e| format!("--tau-r: {e}"))?);
                }
                "--spectrum" => o.tau = None,
                "--output" => o.output = Some(take_value(args, &mut i)?),
                "--log" => o.log = Some(take_value(args, &mut i)?),
                "--per-op" => o.per_op = true,
                "--batch" => o.per_op = false,
                "--verify" => o.verify = true,
                "--rows" => o.rows = Some(number(args, &mut i)?),
                "--listen" => o.listen = take_value(args, &mut i)?,
                "--unix" => o.unix = Some(take_value(args, &mut i)?),
                "--max-sessions" => o.server.max_sessions = number(args, &mut i)?,
                "--max-cells" => o.server.max_session_cells = number(args, &mut i)?,
                "--idle-ops" => o.server.idle_ops = number(args, &mut i)?,
                "--max-connections" => o.server.max_connections = number(args, &mut i)?,
                "--data-dir" => o.server.data_dir = Some(take_value(args, &mut i)?.into()),
                "--wal-sync" => o.server.wal_sync = true,
                other => unreachable!("flag `{other}` is in the table but not matched"),
            }
        }
        i += 1;
    }
    for &(argument, message) in command.required {
        let absent = match argument {
            "input" => o.input.is_none(),
            "--fd" => o.fd_specs.is_empty(),
            "--log" => o.log.is_none(),
            "--output" => o.output.is_none(),
            other => unreachable!("no check for required `{other}`"),
        };
        if absent {
            return Err(message.to_string());
        }
    }
    // `--output` writes one repair; only `snapshot` reads it otherwise.
    if o.output.is_some() && o.tau.is_none() && command.accepts("--tau") {
        return Err("--output needs a single repair: add --tau <N> or --tau-r <F>".to_string());
    }
    Ok(o)
}

/// A value that the command's row of the flag table requires, so [`parse`]
/// has checked that it is set.
fn required(value: &Option<String>) -> &str {
    value.as_deref().expect("required by the flag table")
}

/// Maps a failure from the CSV writer (`relation::csv`) onto the right `EngineError`
/// variant: file-access problems become `Io` (with the path), parse
/// problems keep their structured `Relation` form.
fn file_error(path: &str, e: RelationError) -> EngineError {
    match e {
        RelationError::Io(message) => EngineError::io(path, message),
        other => EngineError::Relation(other),
    }
}

/// Maps a typed-ingestion failure onto the engine boundary: access
/// problems become `Io`, syntax/typing problems become `Parse` (with the
/// line number), substrate problems stay `Relation`.
fn load_error(path: &str, e: IoError) -> EngineError {
    match e {
        IoError::Io(message) => EngineError::io(path, message),
        IoError::Parse { line, message } => EngineError::Parse {
            path: path.to_string(),
            line,
            message,
        },
        IoError::Relation(e) => EngineError::Relation(e),
    }
}

/// Loads the input through the typed ingestion layer (inferred column
/// types, dictionary-direct encoding), reports what was inferred, parses
/// the FDs against it and builds the engine — the prelude of the main
/// form, `apply` and `snapshot`. File I/O and CSV parsing surface as typed
/// `EngineError`s, never as panics.
fn build_engine(options: &Options) -> Result<RepairEngine, EngineError> {
    let path = required(&options.input);
    let base = if options.tsv {
        CsvOptions::tsv()
    } else {
        CsvOptions::csv()
    };
    let report = relative_trust::io::load_path(path, &base.relation("input"))
        .map_err(|e| load_error(path, e))?;
    let instance = report.instance;
    let schema = instance.schema();
    let types: Vec<String> = schema
        .attributes()
        .zip(report.columns.iter())
        .map(|((_, name), ty)| format!("{name}:{ty}"))
        .collect();
    println!(
        "loaded {} × {} from {path} ({})",
        counted(instance.len(), "tuple"),
        counted(schema.arity(), "attribute"),
        counted(report.null_cells, "null cell"),
    );
    println!("inferred column types: {}", types.join(", "));
    let specs: Vec<&str> = options.fd_specs.iter().map(String::as_str).collect();
    let fds = FdSet::parse(&specs, schema).map_err(EngineError::Fd)?;
    options
        .engine
        .configure(RepairEngine::builder(instance, fds))
        .build()
}

/// `n` and `noun`, with the noun's plural `s` unless `n` is 1.
fn counted(n: usize, noun: &str) -> String {
    if n == 1 {
        format!("1 {noun}")
    } else {
        format!("{n} {noun}s")
    }
}

/// An FD set by attribute names, or by count when the schema is unknown.
fn fds_text(fds: &FdSet, schema: Option<&Schema>) -> String {
    schema.map_or_else(|| counted(fds.len(), "FD"), |s| fds.display_with(s))
}

/// One spectrum point, as every front end prints it.
fn point_line(point: &RepairPoint, schema: Option<&Schema>) -> String {
    format!(
        "  τ ∈ [{:>4}, {:>4}]  FD cost {:>10.1}  cell changes {:>5}   {}",
        point.tau_range.0,
        point.tau_range.1,
        point.repair.dist_c,
        point.repair.data_changes(),
        fds_text(&point.repair.modified_fds, schema)
    )
}

/// The summary of one repair, as every front end prints it.
fn repair_summary(repair: &Repair, schema: Option<&Schema>) -> String {
    format!(
        "repair for τ = {}:\n  modified FDs : {}\n  FD distance  : {:.1}\n  cell changes : {}",
        repair.tau,
        fds_text(&repair.modified_fds, schema),
        repair.dist_c,
        repair.data_changes(),
    )
}

/// The counts of one mutation batch's effect.
fn effect_line(e: &MutationEffect) -> String {
    format!(
        "rows +{}/-{}  cells ~{}  fds +{}/-{}  edges +{}/-{}",
        e.rows_inserted,
        e.rows_deleted,
        e.cells_updated,
        e.fds_added,
        e.fds_removed,
        e.edges_added,
        e.edges_removed,
    )
}

fn sweep_cache(retained: bool) -> &'static str {
    if retained {
        "kept"
    } else {
        "reset"
    }
}

fn run(options: &Options) -> Result<(), EngineError> {
    let engine = build_engine(options)?;
    let problem = engine.problem();
    println!(
        "FDs: {}",
        problem.sigma().display_with(problem.instance().schema())
    );
    println!(
        "{}; repairing everything by cell changes would touch at most {}\n",
        counted(
            problem.conflict_graph().edge_count(),
            "conflicting tuple pair"
        ),
        counted(engine.delta_p_original(), "cell")
    );
    report_results(&engine, options)
}

/// Shared reporting tail of the main form, `scenario` and `restore`: the
/// lazy spectrum sweep, or one materialized repair (optionally written
/// out).
fn report_results(engine: &RepairEngine, options: &Options) -> Result<(), EngineError> {
    let instance = engine.problem().instance();
    let schema = instance.schema();
    match options.tau {
        None => {
            // The sweep is lazy: each repair is materialized as it is
            // printed, off one shared Range-Repair traversal.
            let mut count = 0usize;
            for point in engine.sweep(0..=engine.delta_p_original()) {
                println!("{}", point_line(&point?, Some(schema)));
                count += 1;
            }
            println!("{}.", counted(count, "distinct repair"));
            println!(
                "\nre-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one."
            );
        }
        Some(spec) => {
            let repair = match spec {
                TauSpec::Absolute(t) => engine.repair_at(t)?,
                TauSpec::Relative(f) => engine.repair_at_relative(f)?,
            };
            println!("{}", repair_summary(&repair, Some(schema)));
            let value = |source: &Instance, cell| {
                source.cell(cell).map(|v| v.to_string()).unwrap_or_default()
            };
            for &cell in repair.changed_cells.iter().take(25) {
                println!(
                    "    row {} [{}]: {} -> {}",
                    cell.row,
                    schema.attr_name(cell.attr).unwrap_or("?"),
                    value(instance, cell),
                    value(&repair.repaired_instance, cell)
                );
            }
            if repair.changed_cells.len() > 25 {
                println!("    ... and {} more", repair.changed_cells.len() - 25);
            }
            if let Some(path) = &options.output {
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

fn run_apply(options: &Options) -> Result<(), EngineError> {
    let mut engine = build_engine(options)?;
    let log = required(&options.log);
    let log_text = std::fs::read_to_string(log).map_err(|e| EngineError::io(log, e))?;
    let ops = parse_mutation_log(&log_text, engine.problem().instance().schema())
        .map_err(EngineError::Mutation)?;
    println!("{} log entries from {log}", ops.len());

    if options.per_op {
        for (i, op) in ops.iter().enumerate() {
            let outcome = engine.apply(&MutationBatch::new().push(op.clone()))?;
            println!(
                "  op #{i:<3} {}  sweep cache {}",
                effect_line(&outcome.effect),
                sweep_cache(outcome.sweep_cache_retained)
            );
        }
    } else {
        let batch: MutationBatch = ops.iter().cloned().collect();
        let effect = engine.apply(&batch)?.effect;
        println!("  batch of {}: {}", batch.len(), effect_line(&effect));
    }

    let stats = engine.stats();
    println!(
        "\nlive session after replay: {}, {}, {}",
        counted(engine.problem().instance().len(), "tuple"),
        counted(engine.problem().fd_count(), "FD"),
        counted(
            engine.problem().conflict_graph().edge_count(),
            "conflict edge"
        )
    );
    println!(
        "  conflict graph builds : {} (rebuilds avoided: {})",
        stats.conflict_graph_builds, stats.mutation_batches
    );
    println!(
        "  incremental edge delta: +{} / -{}",
        stats.edges_added, stats.edges_removed
    );

    let budget = engine.delta_p_original();
    println!("\npost-mutation spectrum (δP reference {budget}):");
    let spectrum = engine.spectrum()?;
    let schema = engine.problem().instance().schema();
    for point in &spectrum.points {
        println!("{}", point_line(point, Some(schema)));
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
                 ({})",
                counted(spectrum.len(), "spectrum point")
            );
        } else {
            return Err(EngineError::Mutation(
                "verification failed: incremental session diverged from a fresh rebuild".into(),
            ));
        }
    }
    Ok(())
}

fn run_scenario(options: &Options) -> Result<(), EngineError> {
    let name = required(&options.input);
    if name == "list" {
        println!("available scenarios:");
        for info in relative_trust::scenarios::catalog() {
            println!("  {:<10} {}", info.name, info.description);
        }
        println!("\nrun one with: rtclean scenario <name> [--seed N] [--rows N]");
        return Ok(());
    }
    let scenario = relative_trust::scenarios::build(
        name,
        &ScenarioConfig {
            seed: options.engine.seed,
            rows: options.rows,
        },
    )
    .map_err(EngineError::InvalidConfig)?;
    let schema = scenario.dirty.schema();
    println!("scenario `{}`: {}", scenario.name, scenario.description);
    println!(
        "  {} × {} (seed {})",
        counted(scenario.dirty.len(), "tuple"),
        counted(schema.arity(), "attribute"),
        options.engine.seed
    );
    println!("  FDs: {}", scenario.dirty_fds.display_with(schema));
    let r = &scenario.report;
    println!(
        "  injected errors: {} typos, {} swaps, {} corruptions, {} FD attrs dropped",
        r.typos, r.swaps, r.corruptions, r.fd_attrs_dropped
    );

    let engine = options
        .engine
        .configure(RepairEngine::builder(scenario.dirty, scenario.dirty_fds))
        .build()?;
    println!(
        "  {}; δP reference {}\n",
        counted(
            engine.problem().conflict_graph().edge_count(),
            "conflicting tuple pair"
        ),
        engine.delta_p_original()
    );
    report_results(&engine, options)
}

fn run_snapshot(options: &Options) -> Result<(), EngineError> {
    let engine = build_engine(options)?;
    let output = required(&options.output);
    let blob = engine.snapshot()?;
    std::fs::write(output, &blob).map_err(|e| EngineError::io(output, e))?;
    println!(
        "snapshot: {} ({}, {}, {}) written to {output}",
        counted(blob.len(), "byte"),
        counted(engine.problem().instance().len(), "tuple"),
        counted(engine.problem().fd_count(), "FD"),
        counted(
            engine.problem().conflict_graph().edge_count(),
            "conflict edge"
        ),
    );
    println!("restore it with: rtclean restore {output}");
    Ok(())
}

fn run_restore(options: &Options) -> Result<(), EngineError> {
    let path = required(&options.input);
    let bytes = std::fs::read(path).map_err(|e| EngineError::io(path, e))?;
    let engine = RepairEngine::restore(&bytes)?;
    let instance = engine.problem().instance();
    println!(
        "restored {} × {}, {}, {} from {path}",
        counted(instance.len(), "tuple"),
        counted(instance.schema().arity(), "attribute"),
        counted(engine.problem().fd_count(), "FD"),
        counted(
            engine.problem().conflict_graph().edge_count(),
            "conflict edge"
        ),
    );
    println!(
        "engine built from the stored (I, Σ): conflict graph builds = {}\n",
        engine.stats().conflict_graph_builds
    );
    report_results(&engine, options)
}

fn run_serve(options: &Options) -> Result<(), String> {
    let config = options.server.clone();
    let server = match &options.unix {
        Some(path) => {
            #[cfg(unix)]
            {
                Server::bind_unix_with(path, config)
                    .map_err(|e| format!("cannot bind unix socket {path}: {e}"))?
            }
            #[cfg(not(unix))]
            {
                return Err("unix sockets are not available on this platform".to_string());
            }
        }
        None => Server::bind_tcp_with(&options.listen, config)
            .map_err(|e| format!("cannot bind {}: {e}", options.listen))?,
    };
    match server.local_addr() {
        Some(addr) => println!("rtclean serve: listening on {addr}"),
        None => println!(
            "rtclean serve: listening on unix socket {}",
            options.unix.as_deref().unwrap_or("?")
        ),
    }
    if let Some(dir) = &options.server.data_dir {
        println!(
            "durable sessions in {} ({}); restarts recover them by restore + WAL replay",
            dir.display(),
            if options.server.wal_sync {
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

/// One `  name value` line per row: the REPL's format for every counter
/// table (`stats`, `server-stats`).
fn name_value_lines<N: std::fmt::Display, V: std::fmt::Display>(
    rows: impl IntoIterator<Item = (N, V)>,
) -> String {
    rows.into_iter()
        .map(|(name, value)| format!("  {name:<20} {value}"))
        .collect::<Vec<_>>()
        .join("\n")
}

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
            let opts = parse(&OPEN, &tokens[2..])?.engine;
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
            let load = parse(&LOAD, &tokens[2..])?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let specs: Vec<&str> = load.fd_specs.iter().map(String::as_str).collect();
            let active = session.as_mut().expect("checked above");
            let summary = active
                .load_csv(&text, load.tsv, &specs)
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
                "applied: {}  sweep cache {}",
                effect_line(&effect),
                sweep_cache(retained)
            ))
        }
        "repair" => {
            need_session(session)?;
            let spec = parse(&REPAIR, &tokens[1..])?
                .tau
                .ok_or("usage: repair --tau <N> | --tau-r <F>")?;
            let active = session.as_mut().expect("checked above");
            let repair = match spec {
                TauSpec::Absolute(t) => active.repair_at(t),
                TauSpec::Relative(f) => active.repair_at_relative(f),
            }
            .map_err(|e| e.to_string())?;
            Ok(repair_summary(&repair, active.schema()))
        }
        "sweep" | "spectrum" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let (points, trailer) = if command == "spectrum" {
                let spectrum = active.spectrum().map_err(|e| e.to_string())?;
                let n = spectrum.len();
                (
                    spectrum.points,
                    format!("{}.", counted(n, "distinct repair")),
                )
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
                    format!(
                        "{}{}",
                        counted(n, "point"),
                        if done { " (range exhausted)" } else { "" }
                    ),
                )
            };
            let mut out = String::new();
            for point in &points {
                out.push_str(&point_line(point, active.schema()));
                out.push('\n');
            }
            out.push_str(&trailer);
            Ok(out)
        }
        "stats" => {
            need_session(session)?;
            let active = session.as_mut().expect("checked above");
            let mut stats = active.stats().map_err(|e| e.to_string())?;
            Ok(name_value_lines(stats.slots()))
        }
        "server-stats" => {
            let counters = client.server_stats().map_err(|e| e.to_string())?;
            Ok(name_value_lines(counters))
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

/// Prints a run error with an `error: ` prefix and maps the result to the
/// exit code.
fn report<E: std::fmt::Display>(result: Result<(), E>) -> ExitCode {
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
    let (command, rest) = match args
        .first()
        .and_then(|a| COMMANDS[1..].iter().find(|c| c.name == a))
    {
        Some(command) => (command, &args[1..]),
        None => (&COMMANDS[0], &args[..]),
    };
    let options = match parse(command, rest) {
        Ok(options) if options.help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(options) => options,
        Err(message) => {
            let message = if command.name == "connect" {
                CONNECT_USAGE
            } else {
                &message
            };
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match command.name {
        "apply" => report(run_apply(&options)),
        "scenario" => report(run_scenario(&options)),
        "snapshot" => report(run_snapshot(&options)),
        "restore" => report(run_restore(&options)),
        "serve" => report(run_serve(&options)),
        "connect" => report(run_connect(
            options.input.as_deref().unwrap_or(DEFAULT_ADDR),
        )),
        _ => report(run(&options)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The row of subcommand `name` (`""` is the main form).
    fn command(name: &str) -> &'static Command {
        COMMANDS.iter().find(|c| c.name == name).unwrap()
    }

    fn parse_main(list: &[&str]) -> Result<Options, String> {
        parse(command(""), &args(list))
    }

    /// Options of the main form on a small engine budget, serial.
    fn main_options(list: &[&str]) -> Options {
        let common = ["--weight", "count", "--threads", "serial"];
        parse_main(&[list, &common[..]].concat()).unwrap()
    }

    #[test]
    fn parses_minimal_spectrum_invocation() {
        let o = parse_main(&["data.csv", "--fd", "A->B"]).unwrap();
        assert_eq!(o.input.as_deref(), Some("data.csv"));
        assert_eq!(o.fd_specs, vec!["A->B".to_string()]);
        assert_eq!(o.tau, None);
        assert_eq!(o.engine, EngineOpts::new(0));
    }

    #[test]
    fn parses_full_single_repair_invocation() {
        let o = parse_main(&[
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
        ])
        .unwrap();
        assert_eq!(o.fd_specs.len(), 2);
        assert_eq!(o.tau, Some(TauSpec::Relative(0.25)));
        assert_eq!(o.engine.weight, WeightKind::Entropy);
        assert_eq!(o.output.as_deref(), Some("out.csv"));
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.engine.max_expansions, 1234);
    }

    #[test]
    fn rejects_bad_input() {
        assert_eq!(parse_main(&["--fd", "A->B"]).unwrap_err(), USAGE); // no input file
        assert!(parse_main(&["d.csv"]).is_err()); // no FDs
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--tau", "x"]).is_err());
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--tau-r", "1.5"]).is_err());
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--weight", "bogus"]).is_err());
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--bogus"]).is_err());
        assert!(parse_main(&["d.csv", "extra.csv", "--fd", "A->B"]).is_err());
        // --output writes a single repair, so it needs a trust level.
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--output", "o.csv"]).is_err());
        // --help is not an error: it stops parsing, even before the input.
        assert!(parse_main(&["--help"]).unwrap().help);
        assert!(parse_main(&["d.csv", "-h", "--bogus"]).unwrap().help);
    }

    #[test]
    fn tau_mode_parses_absolute_budget() {
        let o = parse_main(&["d.csv", "--fd", "A->B", "--tau", "7"]).unwrap();
        assert_eq!(o.tau, Some(TauSpec::Absolute(7)));
        // The last of --tau / --tau-r / --spectrum wins.
        let o = parse_main(&["d.csv", "--fd", "A->B", "--tau", "7", "--spectrum"]).unwrap();
        assert_eq!(o.tau, None);
    }

    #[test]
    fn threads_flag_parses_all_spellings() {
        let o = parse_main(&["d.csv", "--fd", "A->B"]).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Auto);
        let o = parse_main(&["d.csv", "--fd", "A->B", "--threads", "serial"]).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Serial);
        let o = parse_main(&["d.csv", "--fd", "A->B", "--threads", "4"]).unwrap();
        assert_eq!(o.engine.threads, Parallelism::Fixed(4));
        assert!(parse_main(&["d.csv", "--fd", "A->B", "--threads", "x"]).is_err());
    }

    /// Every subcommand × every flag of the union, accepted exactly where
    /// listed. A flag counts as accepted when parsing gets past it to a
    /// trailing unknown flag (for `--help`/`-h`: when parsing stops with
    /// `help` set).
    #[test]
    fn flag_acceptance_matrix() {
        let expected: [(&str, &str); 7] = [
            (
                "",
                "--help -h --weight --seed --max-expansions --threads --fd --tsv \
                 --tau --tau-r --spectrum --output",
            ),
            (
                "apply",
                "--help -h --weight --seed --max-expansions --threads --fd --tsv \
                 --log --per-op --batch --verify",
            ),
            (
                "scenario",
                "--help -h --weight --seed --max-expansions --threads \
                 --tau --tau-r --spectrum --output --rows",
            ),
            (
                "snapshot",
                "--help -h --weight --seed --max-expansions --threads --fd --tsv \
                 --output",
            ),
            ("restore", "--help -h --tau --tau-r --spectrum --output"),
            (
                "serve",
                "--help -h --listen --unix --max-sessions --max-cells --idle-ops \
                 --max-connections --data-dir --wal-sync",
            ),
            // `-h` is a connect target, as it always was.
            ("connect", "--help"),
        ];
        let union: &[(&str, Option<&str>)] = &[
            ("--help", None),
            ("-h", None),
            ("--weight", Some("count")),
            ("--seed", Some("1")),
            ("--max-expansions", Some("5")),
            ("--threads", Some("serial")),
            ("--fd", Some("A->B")),
            ("--tsv", None),
            ("--tau", Some("1")),
            ("--tau-r", Some("0.5")),
            ("--spectrum", None),
            ("--output", Some("o.csv")),
            ("--log", Some("m.json")),
            ("--per-op", None),
            ("--batch", None),
            ("--verify", None),
            ("--rows", Some("3")),
            ("--listen", Some("127.0.0.1:0")),
            ("--unix", Some("/tmp/s")),
            ("--max-sessions", Some("2")),
            ("--max-cells", Some("2")),
            ("--idle-ops", Some("2")),
            ("--max-connections", Some("2")),
            ("--data-dir", Some("dd")),
            ("--wal-sync", None),
        ];
        for (name, accepted) in expected {
            let accepted: Vec<&str> = accepted.split_whitespace().collect();
            for &(flag, value) in union {
                let help = matches!(flag, "--help" | "-h");
                let mut argv = vec![flag];
                argv.extend(value);
                if !help {
                    argv.push("--zzz");
                }
                let got = match parse(command(name), &args(&argv)) {
                    Ok(o) => o.help,
                    Err(e) => !help && e.contains("`--zzz`"),
                };
                assert_eq!(got, accepted.contains(&flag), "`{name}` × `{flag}`");
            }
        }
    }

    #[test]
    fn missing_input_file_is_a_typed_error_not_a_panic() {
        let options = main_options(&[
            "/nonexistent/definitely_missing.csv",
            "--fd",
            "A->B",
            "--tau",
            "1",
        ]);
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
        let options = main_options(&[&input.to_string_lossy(), "--fd", "A->B", "--tau", "1"]);
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
        let options = main_options(&[&input.to_string_lossy(), "--fd", "A->Nope"]);
        let err = run(&options).unwrap_err();
        assert!(matches!(err, EngineError::Fd(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
    }

    #[test]
    fn apply_arg_parsing() {
        let apply = |list: &[&str]| parse(command("apply"), &args(list));
        let o = apply(&[
            "d.csv", "--fd", "A->B", "--log", "m.json", "--verify", "--batch", "--weight", "count",
        ])
        .unwrap();
        assert_eq!(o.input.as_deref(), Some("d.csv"));
        assert_eq!(o.log.as_deref(), Some("m.json"));
        assert!(o.verify);
        assert!(!o.per_op);
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // apply accepts --tsv like the main form (the usage text promises
        // it for input files generally).
        let o = apply(&["d.tsv", "--fd", "A->B", "--log", "m.json", "--tsv"]).unwrap();
        assert!(o.tsv);
        assert!(o.per_op);
        // --log is mandatory, as is an input and at least one FD.
        assert!(apply(&["d.csv", "--fd", "A->B"]).is_err());
        assert!(apply(&["d.csv", "--log", "m.json"]).is_err());
        assert!(apply(&["--fd", "A->B", "--log", "m.json"]).is_err());
        assert!(apply(&["d.csv", "--fd", "A->B", "--log"]).is_err());
    }

    fn apply_options(input: &Path, log: &Path, extra: &[&str]) -> Options {
        let list = [
            &["--fd", "A->B", "--weight", "count", "--threads", "serial"][..],
            &["--max-expansions", "100000", "--seed", "3"],
            extra,
        ]
        .concat();
        let mut list = args(&list);
        list.extend([
            input.to_string_lossy().to_string(),
            "--log".to_string(),
            log.to_string_lossy().to_string(),
        ]);
        parse(command("apply"), &list).unwrap()
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
        for mode in ["--per-op", "--batch"] {
            run_apply(&apply_options(&input, &log, &[mode, "--verify"])).unwrap();
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
        let err = run_apply(&apply_options(&input, &log, &[])).unwrap_err();
        assert!(matches!(err, EngineError::Mutation(_)), "got {err:?}");
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&log).ok();
    }

    fn parse_scenario(list: &[&str]) -> Result<Options, String> {
        parse(command("scenario"), &args(list))
    }

    #[test]
    fn scenario_arg_parsing() {
        let o = parse_scenario(&[
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
        ])
        .unwrap();
        assert_eq!(o.input.as_deref(), Some("hospital"));
        assert_eq!(o.engine.seed, 9);
        assert_eq!(o.rows, Some(25));
        assert_eq!(o.tau, Some(TauSpec::Absolute(2)));
        assert_eq!(o.engine.weight, WeightKind::AttrCount);
        // Defaults: catalog seed, scenario-default rows, spectrum mode.
        let o = parse_scenario(&["sensors"]).unwrap();
        assert_eq!(o.engine.seed, 17);
        assert_eq!(o.rows, None);
        assert_eq!(o.tau, None);
        assert!(parse_scenario(&[]).is_err());
        assert!(parse_scenario(&["sensors", "--rows", "x"]).is_err());
        assert!(parse_scenario(&["sensors", "--bogus"]).is_err());
    }

    #[test]
    fn scenario_list_and_unknown_names() {
        run_scenario(&parse_scenario(&["list"]).unwrap()).unwrap();
        let err = run_scenario(&parse_scenario(&["nope"]).unwrap()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)), "got {err:?}");
        assert!(err.to_string().contains("hospital"));
    }

    #[test]
    fn scenario_end_to_end_single_repair() {
        // τ far above δP: the search accepts the unmodified FDs immediately
        // and only the data-repair half runs, keeping this test fast in
        // debug builds.
        let options = parse_scenario(&[
            "hospital",
            "--rows",
            "30",
            "--tau",
            "100000",
            "--weight",
            "count",
            "--seed",
            "3",
            "--max-expansions",
            "200000",
            "--threads",
            "serial",
        ])
        .unwrap();
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
        let options = parse_main(&[
            &input.to_string_lossy(),
            "--fd",
            "A->B",
            "--tau",
            "2",
            "--output",
            &output.to_string_lossy(),
            "--weight",
            "count",
            "--seed",
            "1",
            "--threads",
            "2",
        ])
        .unwrap();
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
        let serve = |list: &[&str]| parse(command("serve"), &args(list));
        let options = serve(&[
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
            "--data-dir",
            "store",
            "--wal-sync",
        ])
        .unwrap();
        assert_eq!(options.listen, "0.0.0.0:9000");
        assert_eq!(options.unix, None);
        assert_eq!(options.server.max_sessions, 3);
        assert_eq!(options.server.max_session_cells, 1000);
        assert_eq!(options.server.idle_ops, 50);
        assert_eq!(options.server.max_connections, 2);
        assert_eq!(options.server.data_dir, Some("store".into()));
        assert!(options.server.wal_sync);

        let defaults = serve(&[]).unwrap();
        assert_eq!(defaults.listen, "127.0.0.1:7171");
        assert_eq!(defaults.server, ServerConfig::default());

        assert!(serve(&["--max-sessions", "x"]).is_err());
        assert_eq!(
            serve(&["--bogus"]).unwrap_err(),
            "unknown serve option `--bogus`"
        );
        assert_eq!(serve(&["foo"]).unwrap_err(), "unknown serve option `foo`");
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

        // The REPL's flags go through the command line's parser, with the
        // REPL's own wording for a flag its command does not take.
        assert_eq!(
            eval(&mut session, "open s1 --tau 1").unwrap_err(),
            "unknown open option `--tau`"
        );
        eval(&mut session, "open s1 --seed 1 --threads serial").unwrap();
        let path = csv.to_string_lossy();
        assert_eq!(
            eval(&mut session, &format!("load {path} --fd A->B --help")).unwrap_err(),
            "unknown load option `--help`"
        );
        assert_eq!(
            eval(&mut session, &format!("load {path} --tsv")).unwrap_err(),
            "at least one --fd is required"
        );
        let loaded = eval(&mut session, &format!("load {path} --fd A->B")).unwrap();
        assert!(loaded.contains("3 rows"), "got {loaded}");
        // Bad relative trust is rejected by the shared TauSpec validation.
        assert!(eval(&mut session, "repair --tau-r 1.5")
            .unwrap_err()
            .contains("[0,1]"));
        assert_eq!(
            eval(&mut session, "repair --spectrum").unwrap_err(),
            "unknown repair option `--spectrum`"
        );
        assert_eq!(
            eval(&mut session, "repair").unwrap_err(),
            "usage: repair --tau <N> | --tau-r <F>"
        );
        let repaired = eval(&mut session, "repair --tau 1").unwrap();
        assert!(repaired.contains("cell changes"), "got {repaired}");
        let spectrum = eval(&mut session, "spectrum").unwrap();
        assert!(spectrum.contains("distinct repair"), "got {spectrum}");
        let stats = eval(&mut session, "stats").unwrap();
        assert!(stats.contains("  conflict_graph_builds 1\n"), "got {stats}");
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
