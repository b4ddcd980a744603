//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spectrum|ingest_1m|serve_mutate [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! The untraced run (`--trace 0`) times each workload's jobs and prints the
//! end-to-end metrics; the traced run (`--trace 1`) records spans around
//! every call into a layer and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod common;
mod ingest;
mod layers;
mod probe;
mod serve;
mod spectrum;

use common::{Report, Trace};
use std::path::PathBuf;
use std::process::ExitCode;

/// The catalog's default scenario seed, and the workload seed's default.
pub const DEFAULT_SEED: u64 = 17;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: the data-repair (Algorithm 4) seed of every engine.
    pub seed: u64,
    /// Scenario seed: the data of every workload (hospital, orders,
    /// warehouse, census) and the serve workload's mutation scripts.
    pub scenario_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes: shallow sweeps, a small warehouse, a short script.
    pub tiny: bool,
    /// Print goldens instead of checking them.
    pub record_golden: bool,
    /// Self-test: every golden reads as damaged.
    pub corrupt_golden: bool,
    /// Self-test: the serve script sends one request the server rejects.
    pub inject_error: bool,
    /// Scratch directory inside the working directory.
    pub tmp: PathBuf,
}

const WORKLOADS: [&str; 3] = ["spectrum", "ingest_1m", "serve_mutate"];

fn run_workload(name: &str, ctx: &Ctx) -> (Report, Option<Trace>) {
    let mut report = Report::default();
    let trace = match name {
        "spectrum" => spectrum::run(ctx, &mut report),
        "ingest_1m" => ingest::run(ctx, &mut report),
        "serve_mutate" => serve::run(ctx, &mut report),
        other => unreachable!("workload `{other}` was validated"),
    };
    (report, trace)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--scenario-seed N] [--seconds S] \
         [--trace 0|1] [--record-golden] [--tiny]\n       perfbench --selftest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    value
        .ok_or_else(|| format!("missing value after {flag}"))?
        .parse()
        .map_err(|_| format!("invalid value for {flag}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut ctx = Ctx {
        seed: DEFAULT_SEED,
        scenario_seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        tiny: false,
        record_golden: false,
        corrupt_golden: false,
        inject_error: false,
        tmp: PathBuf::from(".bench_tmp").join(std::process::id().to_string()),
    };
    let mut selftest = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1);
        let mut step = 2;
        let parsed = match args[i].as_str() {
            "--workload" => parse::<String>("--workload", value).map(|w| workload = Some(w)),
            "--seed" => parse("--seed", value).map(|v| ctx.seed = v),
            "--scenario-seed" => parse("--scenario-seed", value).map(|v| ctx.scenario_seed = v),
            "--seconds" => parse("--seconds", value).map(|v| ctx.seconds = v),
            "--trace" => parse::<u8>("--trace", value).and_then(|v| match v {
                0 | 1 => {
                    ctx.trace = v == 1;
                    Ok(())
                }
                _ => Err("--trace takes 0 or 1".to_string()),
            }),
            flag @ ("--record-golden" | "--tiny" | "--selftest") => {
                match flag {
                    "--record-golden" => ctx.record_golden = true,
                    "--tiny" => ctx.tiny = true,
                    _ => selftest = true,
                }
                step = 1;
                Ok(())
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("perfbench: {e}");
            return usage();
        }
        i += step;
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::FAILURE;
    }
    let code = if selftest {
        self_test(&ctx)
    } else {
        match workload.as_deref() {
            Some(name) if WORKLOADS.contains(&name) => {
                println!(
                    "perfbench: workload {name}, seed {}, scenario seed {}, {} s, trace {}, {} cores",
                    ctx.seed,
                    ctx.scenario_seed,
                    ctx.seconds,
                    u8::from(ctx.trace),
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                );
                let (mut report, trace) = run_workload(name, &ctx);
                if let Some(trace) = trace {
                    for (span, t) in trace.layers() {
                        let note = format!("{} spans; total {:.6} s", t.count, t.total);
                        report.detail(&format!("span.{span}.self_s"), t.self_time, "s", note);
                    }
                    write_trace(name, &ctx, &trace);
                }
                report.print();
                ExitCode::SUCCESS
            }
            _ => {
                let _ = std::fs::remove_dir_all(&ctx.tmp);
                return usage();
            }
        }
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let _ = std::fs::remove_dir(".bench_tmp");
    code
}

/// Writes the traced run's spans to `.bench_out/`.
fn write_trace(name: &str, ctx: &Ctx, trace: &Trace) {
    let dir = PathBuf::from(".bench_out");
    let path = dir.join(format!("trace-{name}-seed{}.json", ctx.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, trace.to_json())) {
        Ok(()) => println!(
            "perfbench: {} spans written to {}",
            trace.spans.len(),
            path.display()
        ),
        Err(e) => println!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The harness self-test, at tiny sizes: every declared metric is emitted
/// by every workload in both modes, a corrupted golden and an injected
/// error response each raise the failure count, and a clean run has none.
fn self_test(base: &Ctx) -> ExitCode {
    let mut problems = Vec::new();
    let tiny = Ctx {
        tiny: true,
        seconds: 0.0,
        ..base.clone()
    };
    for name in WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx {
                trace,
                ..tiny.clone()
            };
            let (report, _) = run_workload(name, &ctx);
            let expected: Vec<&str> = if trace {
                layers::PER_LAYER.iter().map(|(n, _)| *n).collect()
            } else {
                layers::END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            let emitted: Vec<&str> = report.result.iter().map(|m| m.name.as_str()).collect();
            if emitted != expected {
                problems.push(format!("{name} trace={trace}: emitted {emitted:?}"));
            }
            if report.failed != 0 {
                problems.push(format!(
                    "{name} trace={trace}: clean run failed: {:?}",
                    report.failures
                ));
            }
            if !trace
                && report
                    .result
                    .iter()
                    .any(|m| !m.value.is_finite() || m.value <= 0.0)
            {
                problems.push(format!("{name}: an end-to-end metric is not positive"));
            }
        }
        let (corrupted, _) = run_workload(
            name,
            &Ctx {
                corrupt_golden: true,
                ..tiny.clone()
            },
        );
        if corrupted.failed == 0 {
            problems.push(format!(
                "{name}: a corrupted golden did not raise failed_frac"
            ));
        }
    }
    let (injected, _) = run_workload(
        "serve_mutate",
        &Ctx {
            inject_error: true,
            ..tiny.clone()
        },
    );
    if injected.failed == 0 {
        problems.push("serve_mutate: an injected error response did not raise failed_frac".into());
    }
    if problems.is_empty() {
        println!("perfbench selftest: OK");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            println!("perfbench selftest: FAIL: {p}");
        }
        ExitCode::FAILURE
    }
}
