//! `exp` — runs one experiment of the paper's evaluation (Section 8),
//! prints its table and writes its rows as JSON under `target/experiments/`.
//!
//! ```text
//! exp <figure> [--scale smoke|default|paper] [--threads auto|serial|N]
//! ```
//!
//! `par-speedup` runs every stage serially and under `--threads`, and panics
//! if any parallel output differs from the serial one. Unknown figures,
//! scales and flags print the usage and exit 2.

use rt_bench::experiments::{self, ExpArgs, PerfRow, FIGURES};
use rt_bench::report::{fmt_score, fmt_secs};
use rt_bench::{render_table, write_json_report};
use rt_engine::json::JsonValue;
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: exp <figure> [--scale smoke|default|paper] [--threads auto|serial|N]\n\
         figures: {}",
        FIGURES.join(", ")
    )
}

/// One table column: its header and how a row renders into it.
type Column<R> = (&'static str, fn(&R) -> String);

/// Prints `rows` as a table and writes them to
/// `target/experiments/<report>.json`.
fn emit<R>(report: &str, rows: &[R], columns: &[Column<R>])
where
    for<'r> &'r R: Into<JsonValue>,
{
    let header: Vec<&str> = columns.iter().map(|(name, _)| *name).collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
        .collect();
    println!("{}", render_table(&header, &table));
    if let Some(path) = write_json_report(report, rows) {
        eprintln!("wrote {}", path.display());
    }
}

fn pct(v: f64) -> String {
    format!("{:.0}%", v * 100.0)
}

/// The Figures 9–12 table: the varied parameter, then the search's cost.
fn emit_perf(report: &str, rows: &[PerfRow], param: Column<PerfRow>, truncated: Column<PerfRow>) {
    let columns: [Column<PerfRow>; 5] = [
        param,
        ("algorithm", |r| r.algorithm.clone()),
        ("seconds", |r| fmt_secs(r.seconds)),
        ("visited states", |r| r.states_visited.to_string()),
        truncated,
    ];
    emit(report, rows, &columns);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (figure, scale, threads) = match ExpArgs::parse(&args) {
        Ok(a) => (a.figure, a.scale, a.threads),
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    eprintln!("[exp {figure}] scale = {scale:?}, parallel setting = {threads}");
    let truncated: Column<PerfRow> = ("truncated", |r| {
        if r.truncated { "yes" } else { "no" }.into()
    });
    match figure {
        "quality-vs-trust" => emit(
            "figure7_quality_vs_trust",
            &experiments::quality_vs_trust(scale, threads),
            &[
                ("FD err", |r| pct(r.fd_error_rate)),
                ("Data err", |r| pct(r.data_error_rate)),
                ("tau_r", |r| pct(r.tau_r)),
                ("Data F", |r| fmt_score(r.data_f)),
                ("FD F", |r| fmt_score(r.fd_f)),
                ("Combined F", |r| fmt_score(r.combined_f)),
                ("cells", |r| r.cells_modified.to_string()),
                ("attrs", |r| r.attrs_appended.to_string()),
            ],
        ),
        "vs-unified-cost" => emit(
            "figure8_vs_unified_cost",
            &experiments::versus_unified_cost(scale, threads),
            &[
                ("Algorithm", |r| r.algorithm.clone()),
                ("FD err", |r| pct(r.fd_error_rate)),
                ("Data err", |r| pct(r.data_error_rate)),
                ("FD prec", |r| format!("{:.2}", r.fd_precision)),
                ("FD rec", |r| format!("{:.2}", r.fd_recall)),
                ("Data prec", |r| format!("{:.2}", r.data_precision)),
                ("Data rec", |r| format!("{:.2}", r.data_recall)),
                ("Combined F", |r| fmt_score(r.combined_f)),
                ("best tau_r", |r| {
                    r.best_tau_r.map_or_else(|| "-".into(), pct)
                }),
            ],
        ),
        "scal-tuples" => emit_perf(
            "figure9_scalability_tuples",
            &experiments::scalability_tuples(scale),
            ("tuples", |r| r.tuples.to_string()),
            truncated,
        ),
        "scal-attrs" => emit_perf(
            "figure10_scalability_attributes",
            &experiments::scalability_attributes(scale),
            ("attributes", |r| r.attributes.to_string()),
            truncated,
        ),
        "scal-fds" => emit_perf(
            "figure11_scalability_fds",
            &experiments::scalability_fds(scale),
            ("FDs", |r| r.fds.to_string()),
            ("truncated", |r| {
                if r.truncated { "yes (cap hit)" } else { "no" }.to_string()
            }),
        ),
        "effect-tau" => emit_perf(
            "figure12_effect_of_tau",
            &experiments::effect_of_tau(scale),
            ("tau_r", |r| pct(r.tau_r)),
            truncated,
        ),
        "multi-repairs" => emit(
            "figure13_multi_repairs",
            &experiments::multi_repair_comparison(scale, threads),
            &[
                ("max tau_r", |r| pct(r.max_tau_r)),
                ("algorithm", |r| r.algorithm.clone()),
                ("seconds", |r| fmt_secs(r.seconds)),
                ("repairs found", |r| r.repairs_found.to_string()),
                ("visited states", |r| r.states_visited.to_string()),
            ],
        ),
        "par-speedup" => {
            let rows = experiments::par_speedup(scale, threads);
            emit(
                "parallel_speedup",
                &rows,
                &[
                    ("stage", |r| r.stage.clone()),
                    ("serial s", |r| format!("{:.4}", r.serial_seconds)),
                    ("parallel s", |r| format!("{:.4}", r.parallel_seconds)),
                    ("speedup", |r| format!("{:.2}x", r.speedup)),
                    ("identical", |r| {
                        if r.identical { "yes" } else { "NO" }.into()
                    }),
                ],
            );
            assert!(
                rows.iter().all(|r| r.identical),
                "parallel output diverged from serial — determinism invariant broken"
            );
        }
        other => unreachable!("ExpArgs::parse accepted unknown figure `{other}`"),
    }
    ExitCode::SUCCESS
}
