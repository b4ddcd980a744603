//! End-to-end CLI tests: the JSON report over the fixture tree must match
//! the committed snapshot byte for byte, the selftest must prove every
//! catalog lint trips, and the workspace itself must be lint-clean.

use std::path::Path;
use std::process::Command;

fn rt_lint() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rt-lint"));
    cmd.current_dir(env!("CARGO_MANIFEST_DIR"));
    cmd
}

#[test]
fn json_over_fixtures_matches_snapshot() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = rt_lint()
        .arg("--json")
        .arg(manifest.join("fixtures"))
        .output()
        .expect("rt-lint binary runs");
    let stdout = String::from_utf8(out.stdout).expect("JSON output is UTF-8");
    let snapshot = std::fs::read_to_string(manifest.join("tests/snapshots/fixtures.json"))
        .expect("committed snapshot exists");
    assert_eq!(
        stdout, snapshot,
        "rt-lint --json drifted from the committed snapshot; if the change is \
         intentional, regenerate crates/lint/tests/snapshots/fixtures.json with \
         `cargo run -p rt-lint -- --json crates/lint/fixtures`"
    );
    // The fixtures violate on purpose, so the run must fail.
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn selftest_covers_the_whole_catalog() {
    let out = rt_lint()
        .arg("--selftest")
        .output()
        .expect("rt-lint binary runs");
    assert!(
        out.status.success(),
        "selftest failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn workspace_is_lint_clean() {
    let out = rt_lint()
        .arg("--deny-warnings")
        .output()
        .expect("rt-lint binary runs");
    assert!(
        out.status.success(),
        "the workspace must stay rt-lint clean (fix the finding or add a \
         justified `// rtlint: allow(...)`):\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn list_prints_the_full_catalog() {
    let out = rt_lint()
        .arg("--list")
        .output()
        .expect("rt-lint binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    for id in [
        "D001", "D002", "D003", "D004", "D006", "D007", "A001", "A002", "U001",
    ] {
        assert!(stdout.contains(id), "--list is missing {id}:\n{stdout}");
    }
    assert!(out.status.success());
}
