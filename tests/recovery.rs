//! Crash-safety: snapshot + WAL durability, recovery, client resilience.
//!
//! Three layers of proof, all seeded and deterministic:
//!
//! * a 48-case crash-recovery loop (workload seed × kill mode × restart):
//!   a durable server is killed mid-flight via an armed [`FaultPoint`],
//!   restarted on the same data dir, and the recovered session's spectrum
//!   must be [`Spectrum::bit_identical`] to an uninterrupted in-process
//!   twin that applied exactly the acknowledged mutations — with
//!   `conflict_graph_builds == 1` (the restore builds the graph of the
//!   snapshot's `(I, Σ)` once; the WAL replay patches it, never rebuilds);
//! * client-resilience regressions through the `rt-chaos` proxy: a
//!   mid-frame disconnect is a typed [`ClientError::Io`] *immediately*,
//!   retries are deterministic, capped, and only ever cover idempotent
//!   requests;
//! * a seeded chaos fuzz sweep over [`ChaosPlan::from_seed`]: every
//!   injected wire fault yields a typed error or a clean result — zero
//!   hangs, zero panics — and the real server survives every run.

use relative_trust::engine::{decode_mutation_log, MutationBatch};
use relative_trust::io as rt_io;
use relative_trust::prelude::*;
use rt_chaos::{ChaosPlan, ChaosProxy, WireFault};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

const BASE_CSV: &str = "A,B\n1,1\n1,2\n2,5\n2,5\n3,7\n3,8\n4,9\n4,9\n";
const BASE_FDS: [&str; 1] = ["A->B"];

/// Binds a server on an ephemeral loopback port, runs it on a worker
/// thread, and hands back a connected client plus handle and address.
fn loopback(
    config: ServerConfig,
) -> (
    Client,
    ServerHandle,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind_tcp_with("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let worker = std::thread::spawn(move || server.run());
    let client = Client::connect(&addr.to_string()).unwrap();
    (client, handle, addr, worker)
}

fn opts() -> EngineOpts {
    let mut o = EngineOpts::new(7);
    o.threads = Parallelism::Serial;
    o
}

/// In-process twin of a wire session: same CSV text, same FDs, same
/// engine options.
fn local_engine(text: &str, fds: &[&str]) -> RepairEngine {
    let report =
        rt_io::read_instance(text.as_bytes(), &CsvOptions::csv().relation("input")).unwrap();
    let schema = report.instance.schema().clone();
    let sigma = FdSet::parse(fds, &schema).unwrap();
    opts()
        .configure(RepairEngine::builder(report.instance, sigma))
        .build()
        .unwrap()
}

fn apply_to_twin(twin: &mut RepairEngine, ops_text: &str) {
    let doc = relative_trust::engine::json::parse(ops_text).unwrap();
    let decoded = decode_mutation_log(&doc, twin.problem().instance().schema()).unwrap();
    twin.apply(&decoded.into_iter().collect::<MutationBatch>())
        .unwrap();
}

/// A fresh per-test data dir under the OS temp root; no timestamps — the
/// process id plus a tag keeps parallel test binaries apart.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rt-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// Tiny deterministic generator (xorshift64*), same as the protocol fuzz.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One seeded mutation batch as `apply` JSON text. Updates stay within the
/// eight base rows so batches compose regardless of interleaved inserts.
fn seeded_batch(rng: &mut Rng) -> String {
    let row = rng.below(8);
    let value = rng.below(9);
    if rng.below(4) == 0 {
        let a = rng.below(5);
        let b = rng.below(9);
        format!(
            "[{{\"op\": \"update\", \"row\": {row}, \"attr\": \"B\", \"value\": {value}}}, \
             {{\"op\": \"insert\", \"rows\": [[{a}, {b}]]}}]"
        )
    } else {
        format!("[{{\"op\": \"update\", \"row\": {row}, \"attr\": \"B\", \"value\": {value}}}]")
    }
}

/// How a server run is killed after the acknowledged workload.
#[derive(Debug, Clone, Copy)]
enum Kill {
    /// Clean shutdown (the wire `shutdown` request).
    Clean,
    /// Crash during snapshot rotation: the temp file is written and
    /// fsynced, the rename never happens — the WAL must carry everything.
    BeforeSnapshotRename,
    /// Crash halfway through a WAL append: the torn record was never
    /// acknowledged, so recovery must drop it.
    MidWalAppend,
}

/// An error from a fault-killed request: the server severs the connection
/// as it goes down, so the client sees a typed transport error (or, if the
/// reply raced out first, the `fault_injected` protocol code).
fn assert_crash_error(err: ClientError) {
    match err {
        ClientError::Io(_) => {}
        ClientError::Protocol { ref code, .. } if code == "fault_injected" => {}
        other => panic!("expected a crash-typed error, got {other}"),
    }
}

#[test]
fn seeded_crash_recovery_spectra_are_bit_identical_to_the_twin() {
    let kills = [Kill::Clean, Kill::BeforeSnapshotRename, Kill::MidWalAppend];
    let mut cases = 0;
    for seed in 0..16u64 {
        for kill in kills {
            cases += 1;
            let dir = temp_dir(&format!("case-{seed}-{cases}"));
            let mut rng = Rng(0x5EED_0000 + seed + 1);
            let mut twin = local_engine(BASE_CSV, &BASE_FDS);

            // --- First life: load, mutate, die. -------------------------
            let (client, handle, _addr, worker) = loopback(durable_config(&dir));
            let mut session = client.create_session("w", opts()).unwrap();
            session.load_csv(BASE_CSV, false, &BASE_FDS).unwrap();

            // `tail` tracks acked WAL records since the last rotation —
            // exactly what a restart must replay.
            let mut tail = 0usize;
            let batches = 1 + (seed % 3) as usize;
            for b in 0..batches {
                let ops = seeded_batch(&mut rng);
                session.apply_text(&ops).unwrap();
                apply_to_twin(&mut twin, &ops);
                tail += 1;
                if b == 0 && batches >= 2 && seed % 2 == 1 {
                    // A mid-workload rotation: snapshot absorbs the WAL.
                    session.snapshot().unwrap();
                    tail = 0;
                }
            }

            match kill {
                Kill::Clean => client.shutdown().unwrap(),
                Kill::BeforeSnapshotRename => {
                    assert!(handle.arm_fault(FaultPoint::BeforeSnapshotRename));
                    assert_crash_error(session.snapshot().unwrap_err());
                }
                Kill::MidWalAppend => {
                    assert!(handle.arm_fault(FaultPoint::MidWalAppend));
                    // This mutation is torn mid-record and never acked —
                    // the twin must not see it.
                    let doomed = seeded_batch(&mut rng);
                    assert_crash_error(session.apply_text(&doomed).unwrap_err());
                }
            }
            drop(session);
            drop(client);
            worker.join().unwrap().unwrap();

            // --- Second life: restart on the same dir, recover. ---------
            let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
            let (mut restored, summary, replayed) = client.restore_session("w").unwrap();
            assert_eq!(
                replayed, tail,
                "case seed={seed} kill={kill:?}: wrong WAL tail replayed"
            );
            assert_eq!(summary.rows, twin.problem().instance().len());

            let wire = restored.spectrum().unwrap();
            let local = twin.spectrum().unwrap();
            assert!(
                wire.bit_identical(&local),
                "case seed={seed} kill={kill:?}: recovered spectrum diverged from the twin"
            );
            let stats = restored.stats().unwrap();
            assert_eq!(
                stats.conflict_graph_builds, 1,
                "case seed={seed} kill={kill:?}: one build at restore, none during WAL replay"
            );

            let counters = client.server_stats().unwrap();
            let counter = |name: &str| {
                counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("missing counter {name}"))
            };
            assert!(counter("sessions_recovered") >= 1);
            assert_eq!(counter("recovery_failures"), 0);
            assert!(counter("wal_records_replayed") >= tail as u64);

            client.shutdown().unwrap();
            worker.join().unwrap().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert_eq!(cases, 48);
}

#[test]
fn restore_without_durable_state_is_a_typed_error() {
    // No data dir at all: `no_data_dir`.
    let (client, _handle, _addr, worker) = loopback(ServerConfig::default());
    match client.restore_session("ghost") {
        Err(ClientError::Protocol { code, .. }) => assert_eq!(code, "no_data_dir"),
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("restoring without a data dir must fail"),
    }
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();

    // A data dir with no files for the name: `unknown_session`.
    let dir = temp_dir("restore-unknown");
    let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
    match client.restore_session("ghost") {
        Err(ClientError::Protocol { code, .. }) => assert_eq!(code, "unknown_session"),
        Err(other) => panic!("expected a protocol error, got {other}"),
        Ok(_) => panic!("restoring an unknown session must fail"),
    }
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restored_summary_reports_the_loaded_column_types() {
    // `note` is null in every row: the loader types it `str`, and so must
    // the summaries a load and a restore compute from the engine.
    const CSV: &str = "A,B,note,score\n1,x,,1.5\n1,y,NA,2\n2,x,,2\n";
    let report = rt_io::read_instance(CSV.as_bytes(), &CsvOptions::csv()).unwrap();
    let types: Vec<String> = report.columns.iter().map(ToString::to_string).collect();
    assert_eq!(types, ["int", "str", "str", "float"]);
    let dir = temp_dir("restore-types");
    let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
    let mut session = client.create_session("t", opts()).unwrap();
    let loaded = session.load_csv(CSV, false, &["A->B"]).unwrap();
    drop(session);
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();

    let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
    let (_session, restored, _) = client.restore_session("t").unwrap();
    for summary in [&loaded, &restored] {
        assert_eq!(summary.types, types);
        assert_eq!(summary.null_cells, report.null_cells);
        assert_eq!(summary.rows, report.instance.len());
    }
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session evicted in the middle of a pagination reopens from its data
/// dir on its next page. The snapshot taken at eviction holds no suspended
/// sweep, so the reopened session runs the search again, and the pages
/// still concatenate to the in-process sweep, bit for bit.
#[test]
fn an_evicted_session_reopens_in_the_middle_of_a_pagination() {
    let scenario = relative_trust::scenarios::build("census", &ScenarioConfig::default()).unwrap();
    let mut csv = Vec::new();
    relative_trust::relation::csv::write_instance(&scenario.dirty, &mut csv).unwrap();
    let csv = String::from_utf8(csv).unwrap();
    let schema = scenario.dirty.schema();
    let specs: Vec<String> = scenario
        .dirty_fds
        .iter()
        .map(|(_, fd)| fd.display_with(schema).replace(' ', ""))
        .collect();
    let specs: Vec<&str> = specs.iter().map(String::as_str).collect();
    let twin = local_engine(&csv, &specs);
    let hi = twin.delta_p_original();
    let local: Vec<RepairPoint> = twin.sweep(0..=hi).map(|p| p.unwrap()).collect();
    const PAGE: usize = 4;
    assert!(local.len() > 2 * PAGE, "census has pages left to page");

    let dir = temp_dir("evict-mid-page");
    let config = ServerConfig {
        max_sessions: 1,
        ..durable_config(&dir)
    };
    let (client, _handle, _addr, worker) = loopback(config);
    let mut session = client.create_session("census", opts()).unwrap();
    session.load_csv(&csv, false, &specs).unwrap();
    let (mut wire, done) = session.sweep_page(0, hi, 0, PAGE).unwrap();
    assert!(!done);
    // The table holds one session: creating a second evicts the first.
    let other = client.create_session("other", opts()).unwrap();
    loop {
        let (points, done) = session.sweep_page(0, hi, wire.len(), PAGE).unwrap();
        wire.extend(points);
        if done {
            break;
        }
    }
    let as_spectrum = |points: Vec<RepairPoint>| Spectrum {
        points,
        search_stats: SearchStats::default(),
    };
    assert!(
        as_spectrum(wire).bit_identical(&as_spectrum(local)),
        "the pages of a reopened session diverged from the in-process sweep"
    );

    let counters = client.server_stats().unwrap();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    assert_eq!(counter("sessions_evicted"), 1);
    assert_eq!(counter("sessions_recovered"), 1);
    assert_eq!(counter("recovery_failures"), 0);

    drop((session, other));
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_disconnect_is_a_typed_io_error_immediately() {
    let (client, _handle, addr, worker) = loopback(ServerConfig::default());

    // Sever the pong three bytes in: the reply can never finish.
    let mut proxy = ChaosProxy::spawn(addr, ChaosPlan::sever_after(3)).unwrap();
    let chaos_client = Client::connect(&proxy.target()).unwrap();
    match chaos_client.request(&Request::Ping, None).unwrap_err() {
        ClientError::Io(message) => assert!(!message.is_empty()),
        other => panic!("expected ClientError::Io, got {other}"),
    }
    // No retry policy: zero reconnect attempts were made.
    assert_eq!(chaos_client.retry_stats(), (0, 0));

    drop(chaos_client);
    proxy.shutdown();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn retry_budget_is_deterministic_and_exhausts_with_a_typed_error() {
    let (client, _handle, addr, worker) = loopback(ServerConfig::default());

    // Every connection through this proxy severs at byte 3, so each retry
    // reconnects successfully and then fails again.
    let mut proxy = ChaosProxy::spawn(addr, ChaosPlan::sever_after(3)).unwrap();
    let policy = RetryPolicy::new(3, 42);
    let expected_backoff = policy.backoff_units(1) + policy.backoff_units(2);
    let chaos_client = Client::connect_with(&proxy.target(), policy).unwrap();

    match chaos_client.request(&Request::Ping, None).unwrap_err() {
        ClientError::Exhausted { attempts } => assert_eq!(attempts, 3),
        other => panic!("expected ClientError::Exhausted, got {other}"),
    }
    let (reconnects, backoff_units) = chaos_client.retry_stats();
    assert_eq!(reconnects, 2, "one reconnect per non-final failed attempt");
    assert_eq!(backoff_units, expected_backoff, "backoff must be seeded");

    drop(chaos_client);
    proxy.shutdown();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

#[test]
fn non_idempotent_requests_are_never_retried() {
    let (client, _handle, addr, worker) = loopback(ServerConfig::default());
    let mut proxy = ChaosProxy::spawn(addr, ChaosPlan::sever_after(3)).unwrap();
    let chaos_client = Client::connect_with(&proxy.target(), RetryPolicy::new(5, 9)).unwrap();

    // `close` mutates server state: the generous retry budget must not
    // apply, and the error is the raw transport failure, not Exhausted.
    let err = chaos_client
        .request(
            &Request::Close {
                session: "ghost".to_string(),
            },
            None,
        )
        .unwrap_err();
    assert!(
        matches!(err, ClientError::Io(_)),
        "expected an immediate ClientError::Io, got {err}"
    );
    assert_eq!(
        chaos_client.retry_stats().0,
        0,
        "no reconnects for mutations"
    );

    drop(chaos_client);
    proxy.shutdown();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

/// Forwards one relay direction until either side hangs up.
fn copy_stream(mut from: TcpStream, mut to: TcpStream) {
    let mut buf = [0u8; 4096];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                let _ = to.flush();
            }
        }
    }
    let _ = to.shutdown(Shutdown::Both);
}

/// A forwarder that drops its first accepted connection on the floor and
/// relays the second faithfully — the shape of a server restart from the
/// client's point of view.
fn flaky_then_healthy(upstream: SocketAddr) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let mut first = true;
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            if first {
                first = false;
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            let server = TcpStream::connect(upstream).unwrap();
            let client_read = stream.try_clone().unwrap();
            let server_read = server.try_clone().unwrap();
            std::thread::spawn(move || copy_stream(client_read, server));
            std::thread::spawn(move || copy_stream(server_read, stream));
            break;
        }
    });
    (addr, handle)
}

#[test]
fn idempotent_requests_reconnect_and_succeed_after_a_dropped_connection() {
    let (client, _handle, addr, worker) = loopback(ServerConfig::default());
    let (flaky_addr, forwarder) = flaky_then_healthy(addr);

    let resilient = Client::connect_with(&flaky_addr.to_string(), RetryPolicy::new(4, 7)).unwrap();
    // First attempt lands on the dropped connection -> Io; the retry
    // layer reconnects and the ping answers.
    match resilient.request(&Request::Ping, None).unwrap() {
        Response::Pong => {}
        other => panic!("expected pong, got {}", other.kind()),
    }
    assert_eq!(resilient.retry_stats().0, 1, "exactly one reconnect");

    drop(resilient);
    forwarder.join().unwrap();
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();
}

/// How long one chaos seed may run before the watchdog fails the test. A
/// seed takes well under a second; a hang fails with the seed and fault
/// that reproduce it instead of stalling the suite.
const CHAOS_SEED_DEADLINE: Duration = Duration::from_secs(60);

/// One chaos seed end to end: a session through the fault proxy, then a
/// direct ping proving the server behind it survived. `Ok(true)` is a clean
/// arm, `Ok(false)` a typed client error.
fn chaos_seed(seed: u64, plan: ChaosPlan) -> bool {
    let (_client, _handle, addr, worker) = loopback(ServerConfig::default());
    let mut proxy = ChaosProxy::spawn(addr, plan).unwrap();

    let chaos_client = Client::connect(&proxy.target()).unwrap();
    let outcome: Result<(), ClientError> = (|| {
        let mut session = chaos_client.create_session(&format!("fuzz-{seed}"), opts())?;
        session.load_csv(BASE_CSV, false, &BASE_FDS)?;
        let spectrum = session.spectrum()?;
        let _ = session.stats()?;
        // A faithful relay must not lose results either.
        if plan.fault == WireFault::None {
            let twin = local_engine(BASE_CSV, &BASE_FDS);
            assert!(spectrum.bit_identical(&twin.spectrum().unwrap()));
        }
        Ok(())
    })();
    let clean = match outcome {
        Ok(()) => true,
        Err(err) => {
            // Typed means displayable and classified — never a panic.
            assert!(!err.to_string().is_empty());
            assert!(
                plan.fault != WireFault::None,
                "control arm (seed {seed}) must stay clean, got {err}"
            );
            false
        }
    };

    drop(chaos_client);
    proxy.shutdown();

    // The real server behind the proxy survived the abuse.
    let direct = Client::connect(&addr.to_string()).unwrap();
    match direct.request(&Request::Ping, None).unwrap() {
        Response::Pong => {}
        other => panic!("seed {seed}: expected pong, got {}", other.kind()),
    }
    direct.shutdown().unwrap();
    worker.join().unwrap().unwrap();
    clean
}

#[test]
fn seeded_chaos_fuzz_yields_typed_errors_and_a_surviving_server() {
    let mut clean_arms = 0;
    let mut typed_errors = 0;
    for seed in 0..24u64 {
        let plan = ChaosPlan::from_seed(seed);
        let fault = plan.fault;
        // Each seed runs on its own thread under a watchdog deadline.
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || done.send(chaos_seed(seed, plan)));
        match outcome.recv_timeout(CHAOS_SEED_DEADLINE) {
            Ok(true) => clean_arms += 1,
            Ok(false) => typed_errors += 1,
            Err(RecvTimeoutError::Timeout) => {
                panic!("chaos seed {seed} ({fault:?}) hung past {CHAOS_SEED_DEADLINE:?}")
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic!("chaos seed {seed} ({fault:?}) panicked")
            }
        }
    }
    // The seed sweep must actually exercise both outcomes.
    assert!(clean_arms > 0, "no chaos seed completed cleanly");
    assert!(typed_errors > 0, "no chaos seed produced a typed error");
}
