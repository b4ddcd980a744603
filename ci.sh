#!/usr/bin/env bash
# CI gate for the relative-trust workspace.
#
# Mirrors the tier-1 verify command (build + test) and adds the
# documentation, lint and work-metric gates the repo holds itself to:
#
#   ./ci.sh          # build + tests + fmt + doc + clippy + rt-lint
#   ./ci.sh --quick  # build + tests + rt-lint only (skip doc + clippy)
#   ./ci.sh --bench  # everything above + deterministic work-metric gate
#
# The workspace is fully vendored (path deps + local shims); no crates.io
# access is required, so every mode also runs offline (CARGO_NET_OFFLINE).
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE="${CARGO_NET_OFFLINE:-true}"

quick=0
bench=0
case "${1:-}" in
    --quick) quick=1 ;;
    --bench) bench=1 ;;
    "") ;;
    *) echo "usage: ./ci.sh [--quick|--bench]" >&2; exit 2 ;;
esac

echo "==> checking that no build artifacts are tracked"
if git ls-files -- 'target/' | grep -q .; then
    echo "error: files under target/ are tracked by git; run: git rm -r --cached target/" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The service-layer contract is load-bearing enough to name: everything a
# client sees over a socket must be bit-identical to an in-process engine.
# `cargo test -q` above already ran these; rerunning the one suite is cheap
# and keeps the wire ≡ in-process gate visible in every CI mode.
echo "==> cargo test --test protocol_roundtrip (wire results ≡ in-process, bit for bit)"
cargo test -q --test protocol_roundtrip

# The crash-safety contract is equally load-bearing: a server killed at an
# armed fault point, restarted on the same data dir, must recover every
# session to a spectrum bit-identical to an uninterrupted twin, and every
# injected wire fault must surface as a typed error (no hangs, no panics).
echo "==> cargo test --test recovery (crash recovery ≡ uninterrupted, chaos faults typed)"
cargo test -q --test recovery

# The scale-up contract: the sharded conflict-graph build must be
# bit-identical to the monolithic engine — spectra, repairs and search
# stats — including under shard-bridging mutation batches. Runs in every
# mode at the 100k-row warehouse variant (release, so the big smoke stays
# cheap; the debug default inside `cargo test -q` above covers 20k rows).
echo "==> cargo test --release --test shard_equivalence (sharded ≡ monolithic, 100k warehouse)"
RT_WAREHOUSE_ROWS=100000 cargo test -q --release --test shard_equivalence

# The conflict-sized contract: Algorithm 4's cover-row check and diff, the
# hash-free distinct-count kernel and the conflict-row-indexed search graphs
# must agree with the whole-instance computations they replace, checked at
# the 100k-row warehouse variant where conflicts touch few of the rows.
echo "==> cargo test --release --test sparse_equivalence (conflict-sized ≡ row-sized, 100k warehouse)"
RT_WAREHOUSE_ROWS=100000 cargo test -q --release --test sparse_equivalence

# The columnar contract: CSV writer, cell()/tuple(), equality and snapshots ≡ a row-major decode of the codes.
echo "==> cargo test --release --test columnar_equivalence (code columns ≡ row-major decode, 100k warehouse)"
RT_WAREHOUSE_ROWS=100000 cargo test -q --release --test columnar_equivalence

# The block-parallel ingest contract: a warehouse CSV cut into blocks that are
# encoded on every core and merged in file order, its column types fixed only
# at EOF, loads back as the generated instance, codes included.
echo "==> cargo test --release --test csv_io (block-parallel CSV load ≡ generated instance, 100k warehouse)"
RT_WAREHOUSE_ROWS=100000 cargo test -q --release --test csv_io

# The one self-checking experiment: every parallel stage (graph build,
# vertex cover, Algorithm 4, τ-sweep) must reproduce its serial output
# bit for bit; `exp` panics otherwise. Smoke scale keeps it to seconds.
echo "==> exp par-speedup --scale smoke --threads 2 (serial ≡ parallel, stage by stage)"
cargo run --release -q -p rt-bench --bin exp -- par-speedup --scale smoke --threads 2

# The examples are runnable documentation with their own assertions (one
# conflict-graph build per session, typed cells on a live insert); run them
# rather than only compiling them. All four together take well under 1 s.
for example in quickstart census_cleaning trust_exploration csv_repair; do
    echo "==> cargo run --release --example $example"
    cargo run --release -q --example "$example" > /dev/null
done

if [ "$quick" -eq 0 ]; then
    echo "==> cargo fmt --check"
    cargo fmt --check

    echo "==> cargo doc --no-deps -q (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

    # Every workspace crate carries a runnable example in its crate-level
    # docs; run them explicitly so a broken example fails fast here rather
    # than hiding inside the main test sweep.
    echo "==> cargo test --doc -q (crate-level doc examples)"
    cargo test --doc -q

    echo "==> cargo clippy -- -D warnings"
    cargo clippy --all-targets -- -D warnings
fi

# Repo-specific determinism lints (rt-lint): the workspace must be clean
# (every finding fixed or carrying a justified `// rtlint: allow(...)`),
# and the selftest proves each catalog lint still trips on its fixture —
# a lint that silently stopped firing is as bad as a violation.
echo "==> rt-lint --deny-warnings (workspace determinism lints)"
cargo run --release -q -p rt-lint -- --deny-warnings

echo "==> rt-lint --selftest (every lint trips on its fixture)"
cargo run --release -q -p rt-lint -- --selftest

if [ "$bench" -eq 1 ]; then
    # Deterministic work-metric regression gate: counts A* expansions,
    # heuristic nodes, conflict-graph builds, incremental edge deltas and
    # cells changed on fixed-seed workloads, plus the typed-CSV-load
    # counters (the encoded path is hard-asserted at key_allocs == 0) and
    # one bounded sweep + mutation stream per catalog scenario
    # (hospital/census/sensors/orders), each verified incremental ≡
    # rebuild bit-identically, and a serve.multi_session scenario driving
    # interleaved sessions over loopback TCP through an LRU eviction with
    # the wire spectrum hard-asserted bit-identical to an in-process twin
    # (wall-clock numbers on a shared 2-core host are noisy and belong to
    # perfbench/ — work counters are exact; the server's idle clock is a
    # logical request counter, so even the serve counters are exact),
    # and the warehouse scale tiers (10k/100k/1M rows streamed through the
    # one-pass loader into the sharded engine build, per-row counters
    # hard-asserted flat and the 10k tier sharded ≡ monolithic).
    # --selftest additionally proves the gate trips when any counter is
    # artificially inflated. Re-baseline intentional changes with:
    # cargo run --release -p rt-bench --bin bench_gate -- --out ci/bench_baseline.json
    echo "==> bench gate (deterministic work counters vs ci/bench_baseline.json)"
    cargo run --release -q -p rt-bench --bin bench_gate -- \
        --out ci/BENCH_smoke.json \
        --check ci/bench_baseline.json \
        --selftest

    # The wall-clock benchmark (perfbench/, its own workspace) must build
    # against the changed crates and pass its goldens: its self-test runs
    # every workload at tiny sizes (about two minutes) in the gitignored
    # .bench_tmp/ scratch directory.
    echo "==> perfbench --selftest (benchmark builds, every metric emitted, goldens pass)"
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --selftest
fi

# Code size is tracked next to the bench trajectory (ROADMAP). The second
# count leaves out test directories and lint fixtures, so a change that
# shrinks the program while adding tests shows as a fall there.
echo "==> tracked .rs lines: $(git ls-files '*.rs' | xargs cat | wc -l)"
echo "==> tracked .rs lines outside tests/ and crates/lint/fixtures/: $(git ls-files '*.rs' \
    | grep -Ev '(^|/)tests/|^crates/lint/fixtures/' | xargs cat | wc -l)"

echo "==> CI OK"
