//! End-to-end tests of the `rtclean` binary itself: usage text and exit
//! codes, each subcommand's parse errors, and the batch, snapshot/restore,
//! `apply` and `serve`/`connect` paths on tiny inputs.
//!
//! Expected stdout, stderr and exit codes are spelled out literally, so any
//! change to what a user sees on the command line shows up here as a diff.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_rtclean");

/// Violates `A -> B` twice and `C -> B` once; two spectrum points.
const DIRTY: &str = "A,B,C\n1,1,p\n1,2,p\n2,5,q\n2,6,r\n3,7,s\n";
/// Satisfies `A -> B`.
const CLEAN: &str = "A,B\n1,1\n2,2\n";
const TSV: &str = "A\tB\tC\n1\t1\tp\n1\t2\tp\n2\t5\tq\n";
const LOG: &str = r#"[
  {"op": "insert", "rows": [[1, 3, "p"], [7, 7, "t"]]},
  {"op": "update", "row": 0, "attr": "B", "value": 2},
  {"op": "delete", "rows": [3]},
  {"op": "add_fd", "fd": "C->B"},
  {"op": "remove_fd", "index": 0}
]"#;

const CONNECT_USAGE: &str = "usage: rtclean connect [<host:port> | unix:<path>]\n";

/// What one run of the binary printed and returned.
#[derive(Debug, PartialEq)]
struct Run {
    code: i32,
    stdout: String,
    stderr: String,
}

fn run(code: i32, stdout: &str, stderr: &str) -> Run {
    Run {
        code,
        stdout: stdout.to_string(),
        stderr: stderr.to_string(),
    }
}

/// A fresh directory holding the fixture files. Every invocation runs
/// inside it, so the paths the binary prints are the short relative names.
struct Dir(PathBuf);

impl Dir {
    fn new(name: &str) -> Dir {
        let path = std::env::temp_dir().join(format!("rtclean_cli_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        for (file, text) in [
            ("d.csv", DIRTY),
            ("clean.csv", CLEAN),
            ("d.tsv", TSV),
            ("m.json", LOG),
        ] {
            std::fs::write(path.join(file), text).unwrap();
        }
        Dir(path)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }

    fn command(&self, args: &[&str]) -> Command {
        let mut command = Command::new(BIN);
        command.args(args).current_dir(&self.0);
        command
    }

    fn run(&self, args: &[&str]) -> Run {
        let output = self.command(args).output().unwrap();
        Run {
            code: output.status.code().expect("rtclean exited by signal"),
            stdout: String::from_utf8(output.stdout).unwrap(),
            stderr: String::from_utf8(output.stderr).unwrap(),
        }
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The spectrum lines (`τ ∈ [..]`) of some output, with any REPL prompt
/// stripped.
fn spectrum_lines(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter_map(|line| line.find("  τ ∈").map(|at| line[at..].to_string()))
        .collect()
}

fn usage(dir: &Dir) -> String {
    let bare = dir.run(&[]);
    assert_eq!((bare.code, bare.stdout.as_str()), (1, ""));
    assert!(bare.stderr.starts_with("usage: rtclean <input.csv>"));
    bare.stderr
}

#[test]
fn usage_goes_to_stderr_with_exit_1_when_there_is_no_input() {
    let dir = Dir::new("usage");
    let usage = usage(&dir);
    assert!(usage.ends_with("  --help               print this help\n\n"));
    for args in [
        &["--fd", "A->B"][..],
        &["apply", "--fd", "A->B", "--log", "m.json"],
        &["scenario"],
        &["snapshot", "--fd", "A->B", "--output", "s.snap"],
        &["restore"],
    ] {
        assert_eq!(dir.run(args), run(1, "", &usage), "{args:?}");
    }
}

#[test]
fn help_prints_usage_to_stdout_with_exit_0() {
    let dir = Dir::new("help");
    let usage = usage(&dir);
    for args in [
        &["--help"][..],
        &["-h"],
        &["d.csv", "--fd", "A->B", "--help"],
        &["apply", "--help"],
        &["scenario", "-h"],
        &["snapshot", "--help"],
        &["restore", "-h"],
        &["serve", "--help"],
        &["connect", "--help"],
    ] {
        assert_eq!(dir.run(args), run(0, &usage, ""), "{args:?}");
    }
}

#[test]
fn every_subcommand_reports_its_parse_errors_on_stderr_with_exit_1() {
    let dir = Dir::new("errors");
    let cases: &[(&[&str], &str)] = &[
        // Main form: unknown flag, missing value, bad numbers, missing
        // required argument, a second positional.
        (
            &["d.csv", "--fd", "A->B", "--bogus"],
            "unknown option `--bogus`",
        ),
        (&["d.csv", "--fd"], "missing value after `--fd`"),
        (
            &["d.csv", "--fd", "A->B", "--tau", "x"],
            "invalid --tau value `x`",
        ),
        (
            &["d.csv", "--fd", "A->B", "--tau-r", "1.5"],
            "--tau-r: relative trust must be in [0,1], got 1.5",
        ),
        (
            &["d.csv", "--fd", "A->B", "--threads", "x"],
            "--threads: invalid thread count `x` (use auto, serial, or a number)",
        ),
        (&["d.csv"], "at least one --fd is required"),
        (
            &["d.csv", "e.csv", "--fd", "A->B"],
            "unexpected positional argument `e.csv`",
        ),
        // apply
        (
            &[
                "apply", "d.csv", "--fd", "A->B", "--log", "m.json", "--tau", "1",
            ],
            "unknown option `--tau`",
        ),
        (
            &["apply", "d.csv", "--fd", "A->B", "--log"],
            "missing value after `--log`",
        ),
        (
            &[
                "apply", "d.csv", "--fd", "A->B", "--log", "m.json", "--seed", "x",
            ],
            "invalid --seed value `x`",
        ),
        (
            &["apply", "d.csv", "--fd", "A->B"],
            "apply requires --log <mutations.json>",
        ),
        (
            &["apply", "d.csv", "--log", "m.json"],
            "at least one --fd is required",
        ),
        // scenario
        (
            &["scenario", "hospital", "--fd", "A->B"],
            "unknown option `--fd`",
        ),
        (
            &["scenario", "hospital", "--rows"],
            "missing value after `--rows`",
        ),
        (
            &["scenario", "hospital", "--rows", "x"],
            "invalid --rows value `x`",
        ),
        // snapshot: the FD check comes before the input check.
        (
            &["snapshot", "d.csv", "--fd", "A->B", "--tau", "1"],
            "unknown option `--tau`",
        ),
        (
            &["snapshot", "d.csv", "--fd", "A->B", "--output"],
            "missing value after `--output`",
        ),
        (
            &["snapshot", "d.csv", "--fd", "A->B", "--max-expansions", "x"],
            "invalid --max-expansions value `x`",
        ),
        (
            &["snapshot", "d.csv", "--fd", "A->B"],
            "snapshot requires --output <file.snap>",
        ),
        (&["snapshot"], "at least one --fd is required"),
        // restore takes no engine flags.
        (
            &["restore", "d.snap", "--seed", "1"],
            "unknown option `--seed`",
        ),
        (
            &["restore", "d.snap", "--tau"],
            "missing value after `--tau`",
        ),
        (
            &["restore", "d.snap", "--tau", "-1"],
            "invalid --tau value `-1`",
        ),
        // serve takes no positional argument.
        (&["serve", "--bogus"], "unknown serve option `--bogus`"),
        (&["serve", "foo"], "unknown serve option `foo`"),
        (&["serve", "--listen"], "missing value after `--listen`"),
        (
            &["serve", "--max-sessions", "x"],
            "invalid --max-sessions value `x`",
        ),
    ];
    for (args, message) in cases {
        assert_eq!(
            dir.run(args),
            run(1, "", &format!("{message}\n")),
            "{args:?}"
        );
    }
    for args in [&["connect", "a", "b"][..], &["connect", "--bogus"]] {
        assert_eq!(dir.run(args), run(1, "", CONNECT_USAGE), "{args:?}");
    }
}

const DIRTY_HEADER: &str = "\
loaded 5 tuples × 3 attributes from d.csv (0 null cells)
inferred column types: A:int, B:int, C:str
FDs: {A -> B; C -> B}
2 conflicting tuple pairs; repairing everything by cell changes would touch at most 4 cells

";

const DIRTY_SPECTRUM: &str =
    "  τ ∈ [   4,    4]  FD cost        0.0  cell changes     2   {A -> B; C -> B}
  τ ∈ [   2,    3]  FD cost        4.0  cell changes     1   {A,C -> B; C -> B}
2 non-dominated repairs.

re-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one.
";

#[test]
fn spectrum_on_a_tiny_csv() {
    let dir = Dir::new("spectrum");
    let expected = format!("{DIRTY_HEADER}{DIRTY_SPECTRUM}");
    assert_eq!(
        dir.run(&["d.csv", "--fd", "A->B", "--fd", "C->B"]),
        run(0, &expected, "")
    );
    // --spectrum is the default, and the thread count changes nothing.
    assert_eq!(
        dir.run(&[
            "d.csv",
            "--fd",
            "A->B",
            "--fd",
            "C->B",
            "--spectrum",
            "--threads",
            "serial"
        ]),
        run(0, &expected, "")
    );
}

#[test]
fn relative_trust_with_output_writes_a_csv_that_reloads() {
    let dir = Dir::new("tau_r");
    let args = [
        "d.csv", "--fd", "A->B", "--fd", "C->B", "--tau-r", "0.5", "--output", "out.csv",
    ];
    let expected = format!(
        "{DIRTY_HEADER}repair for τ = 2:
  modified FDs : {{A,C -> B; C -> B}}
  FD distance  : 4.0
  cell changes : 1
    row 0 [B]: 1 -> 2
repaired instance written to out.csv
"
    );
    assert_eq!(dir.run(&args), run(0, &expected, ""));
    assert_eq!(
        std::fs::read_to_string(dir.path("out.csv")).unwrap(),
        "A,B,C\n1,2,p\n1,2,p\n2,5,q\n2,6,r\n3,7,s\n"
    );
    let reloaded = relative_trust::io::load_path(
        dir.path("out.csv"),
        &relative_trust::prelude::CsvOptions::csv(),
    )
    .unwrap();
    assert_eq!(reloaded.instance.len(), 5);
}

#[test]
fn tsv_input() {
    let dir = Dir::new("tsv");
    let expected = "\
loaded 3 tuples × 3 attributes from d.tsv (0 null cells)
inferred column types: A:int, B:int, C:str
FDs: {A -> B}
1 conflicting tuple pairs; repairing everything by cell changes would touch at most 1 cells

  τ ∈ [   1,    1]  FD cost        0.0  cell changes     1   {A -> B}
1 non-dominated repairs.

re-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one.
";
    assert_eq!(
        dir.run(&["d.tsv", "--tsv", "--fd", "A->B"]),
        run(0, expected, "")
    );
}

#[test]
fn scenario_list_prints_the_catalog() {
    let dir = Dir::new("scenario_list");
    let mut expected = "available scenarios:\n".to_string();
    for info in relative_trust::scenarios::catalog() {
        expected.push_str(&format!("  {:<10} {}\n", info.name, info.description));
    }
    expected.push_str("\nrun one with: rtclean scenario <name> [--seed N] [--rows N]\n");
    assert_eq!(dir.run(&["scenario", "list"]), run(0, &expected, ""));

    let unknown = dir.run(&["scenario", "nope"]);
    assert_eq!((unknown.code, unknown.stdout.as_str()), (1, ""));
    assert!(
        unknown
            .stderr
            .starts_with("error: invalid engine configuration: unknown scenario `nope`"),
        "{unknown:?}"
    );
}

#[test]
fn snapshot_then_restore_gives_the_direct_spectrum() {
    let dir = Dir::new("snapshot");
    let snap = dir.run(&[
        "snapshot", "d.csv", "--fd", "A->B", "--fd", "C->B", "--output", "d.snap",
    ]);
    assert_eq!((snap.code, snap.stderr.as_str()), (0, ""));
    let lines: Vec<&str> = snap.stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{snap:?}");
    assert_eq!(
        lines[0],
        "loaded 5 tuples × 3 attributes from d.csv (0 null cells)"
    );
    assert!(lines[2].starts_with("snapshot: "), "{snap:?}");
    assert!(
        lines[2].ends_with(" bytes (5 tuples, 2 FDs, 2 conflict edges) written to d.snap"),
        "{snap:?}"
    );
    assert_eq!(lines[3], "restore it with: rtclean restore d.snap");

    let expected = format!(
        "restored 5 tuples × 3 attributes, 2 FDs, 2 conflict edges from d.snap
prepared state came back warm: conflict graph builds since restore = 0

{DIRTY_SPECTRUM}"
    );
    let restored = dir.run(&["restore", "d.snap"]);
    assert_eq!(restored, run(0, &expected, ""));
    let direct = dir.run(&["d.csv", "--fd", "A->B", "--fd", "C->B"]);
    assert_eq!(
        spectrum_lines(&restored.stdout),
        spectrum_lines(&direct.stdout)
    );
}

#[test]
fn apply_verifies_per_op_and_batch_replays() {
    let dir = Dir::new("apply");
    let head = "\
loaded 5 tuples × 3 attributes from d.csv (0 null cells)
inferred column types: A:int, B:int, C:str
5 log entries from m.json
";
    let tail = |avoided: usize| {
        format!(
            "
live session after replay: 6 tuples, 1 FDs, 2 conflict edges
  conflict graph builds : 1 (rebuilds avoided: {avoided})
  incremental edge delta: +2 / -2  (5 components dirtied)

post-mutation spectrum (δP reference 1):
  τ ∈ [   1,    1]  FD cost        0.0  cell changes     1   {{C -> B}}

verify: OK — incremental session is bit-identical to a fresh rebuild (1 spectrum points)
"
        )
    };
    let per_op = "  \
op #0   rows +2/-0  cells ~0  fds +0/-0  edges +2/-0  components 1  sweep cache reset
  op #1   rows +0/-0  cells ~1  fds +0/-0  edges +0/-1  components 1  sweep cache reset
  op #2   rows +0/-1  cells ~0  fds +0/-0  edges +0/-1  components 1  sweep cache reset
  op #3   rows +0/-0  cells ~0  fds +1/-0  edges +0/-0  components 1  sweep cache reset
  op #4   rows +0/-0  cells ~0  fds +0/-1  edges +0/-0  components 1  sweep cache reset
";
    let base = [
        "apply", "d.csv", "--fd", "A->B", "--log", "m.json", "--verify",
    ];
    assert_eq!(
        dir.run(&[&base[..], &["--per-op"]].concat()),
        run(0, &format!("{head}{per_op}{}", tail(5)), "")
    );
    let batch = "  batch of 5: rows +2/-1  cells ~1  fds +1/-1  edges +2/-2  components 5\n";
    assert_eq!(
        dir.run(&[&base[..], &["--batch"]].concat()),
        run(0, &format!("{head}{batch}{}", tail(1)), "")
    );
}

#[test]
fn connect_to_a_closed_port_exits_1() {
    let dir = Dir::new("connect_closed");
    // Bind and drop a listener so the port is known to be closed.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    let target = format!("127.0.0.1:{port}");
    let refused = dir.run(&["connect", &target]);
    assert_eq!((refused.code, refused.stdout.as_str()), (1, ""));
    assert!(
        refused
            .stderr
            .starts_with(&format!("error: cannot connect to {target}: ")),
        "{refused:?}"
    );
}

#[test]
fn clean_input_goes_through_the_engine_and_writes_its_output() {
    let dir = Dir::new("clean");
    let header = "\
loaded 2 tuples × 2 attributes from clean.csv (0 null cells)
inferred column types: A:int, B:int
FDs: {A -> B}
0 conflicting tuple pairs; repairing everything by cell changes would touch at most 0 cells

";
    let expected = format!(
        "{header}repair for τ = 0:
  modified FDs : {{A -> B}}
  FD distance  : 0.0
  cell changes : 0
repaired instance written to out.csv
"
    );
    assert_eq!(
        dir.run(&[
            "clean.csv",
            "--fd",
            "A->B",
            "--tau",
            "0",
            "--output",
            "out.csv"
        ]),
        run(0, &expected, "")
    );
    assert_eq!(std::fs::read_to_string(dir.path("out.csv")).unwrap(), CLEAN);

    let expected = format!(
        "{header}  τ ∈ [   0,    0]  FD cost        0.0  cell changes     0   {{A -> B}}
1 non-dominated repairs.

re-run with --tau <N> (or --tau-r <F>) and --output <file> to materialize one.
"
    );
    assert_eq!(
        dir.run(&["clean.csv", "--fd", "A->B"]),
        run(0, &expected, "")
    );
}

#[test]
fn output_without_a_trust_level_is_a_parse_error() {
    let dir = Dir::new("output_mode");
    let snap = dir.run(&["snapshot", "d.csv", "--fd", "A->B", "--output", "d.snap"]);
    assert_eq!(snap.code, 0, "{snap:?}");
    let message = "--output needs a single repair: add --tau <N> or --tau-r <F>\n";
    for args in [
        &["d.csv", "--fd", "A->B", "--output", "out.csv"][..],
        &[
            "d.csv",
            "--fd",
            "A->B",
            "--tau",
            "1",
            "--spectrum",
            "--output",
            "out.csv",
        ],
        &["scenario", "census", "--rows", "20", "--output", "out.csv"],
        &["restore", "d.snap", "--output", "out.csv"],
    ] {
        assert_eq!(dir.run(args), run(1, "", message), "{args:?}");
    }
    assert!(!dir.path("out.csv").exists());
}

#[test]
fn an_absolute_budget_above_delta_p_is_reported_as_requested() {
    let dir = Dir::new("tau_above");
    let expected = "\
loaded 5 tuples × 3 attributes from d.csv (0 null cells)
inferred column types: A:int, B:int, C:str
FDs: {A -> B}
2 conflicting tuple pairs; repairing everything by cell changes would touch at most 2 cells

repair for τ = 100:
  modified FDs : {A -> B}
  FD distance  : 0.0
  cell changes : 2
    row 0 [B]: 1 -> 2
    row 2 [B]: 5 -> 6
";
    assert_eq!(
        dir.run(&["d.csv", "--fd", "A->B", "--tau", "100"]),
        run(0, expected, "")
    );
}

/// Waits up to 30 s (1500 polls 20 ms apart) for `child` to exit.
fn wait(child: &mut Child) -> ExitStatus {
    for _ in 0..1500 {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("rtclean did not exit in time");
}

/// Kills the child on drop, so a failing assertion never leaves a server
/// running or a test hanging.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn repl_spectrum_over_the_wire_matches_the_batch_cli() {
    let dir = Dir::new("repl");
    let mut server = Reap(
        dir.command(&["serve", "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    // Keep the pipe open for the server's later lines.
    let mut server_stdout = BufReader::new(server.0.stdout.take().unwrap());
    let mut first = String::new();
    server_stdout.read_line(&mut first).unwrap();
    let addr = first
        .trim()
        .strip_prefix("rtclean serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .to_string();

    let mut client = Reap(
        dir.command(&["connect", &addr])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap(),
    );
    client
        .0
        .stdin
        .take()
        .unwrap()
        .write_all(b"open demo --seed 7\nload d.csv --fd A->B --fd C->B\nspectrum\nshutdown\n")
        .unwrap();
    // The REPL's output is far below a pipe buffer, so it can exit before
    // anyone reads it.
    assert!(wait(&mut client.0).success());
    let mut stdout = String::new();
    let mut stderr = String::new();
    client
        .0
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    client
        .0
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    assert_eq!(stderr, "");
    assert!(stdout.contains("2 non-dominated repairs."), "{stdout}");

    let batch = dir.run(&["d.csv", "--fd", "A->B", "--fd", "C->B"]);
    assert_eq!(spectrum_lines(&stdout), spectrum_lines(&batch.stdout));
    assert_eq!(spectrum_lines(&stdout).len(), 2);

    let status = wait(&mut server.0);
    assert!(status.success(), "server exited with {status}");
}
