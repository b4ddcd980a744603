//! Crash-safety: snapshot + WAL durability, recovery, client resilience.
//!
//! Three layers of proof, all seeded and deterministic:
//!
//! * a 48-case crash-recovery loop (workload seed × kill mode × restart):
//!   a durable server is killed mid-flight via an armed [`FaultPoint`],
//!   restarted on the same data dir, and the recovered session's spectrum
//!   must be [`Spectrum::bit_identical`] to an uninterrupted in-process
//!   twin that applied exactly the acknowledged mutations — with
//!   `conflict_graph_builds == 0` (recovery decodes and replays, it never
//!   rebuilds);
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
                stats.conflict_graph_builds, 0,
                "case seed={seed} kill={kill:?}: recovery rebuilt the conflict graph"
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
    // the summary a restore recomputes from the engine.
    const CSV: &str = "A,B,note,score\n1,x,,1.5\n1,y,NA,2\n2,x,,2\n";
    let dir = temp_dir("restore-types");
    let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
    let mut session = client.create_session("t", opts()).unwrap();
    let loaded = session.load_csv(CSV, false, &["A->B"]).unwrap();
    assert_eq!(loaded.types, ["int", "str", "str", "float"]);
    drop(session);
    client.shutdown().unwrap();
    worker.join().unwrap().unwrap();

    let (client, _handle, _addr, worker) = loopback(durable_config(&dir));
    let (_session, restored, _) = client.restore_session("t").unwrap();
    assert_eq!(restored.types, loaded.types);
    assert_eq!(restored.null_cells, loaded.null_cells);
    assert_eq!(restored.rows, loaded.rows);
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

#[test]
fn seeded_chaos_fuzz_yields_typed_errors_and_a_surviving_server() {
    let mut clean_arms = 0;
    let mut typed_errors = 0;
    for seed in 0..24u64 {
        let plan = ChaosPlan::from_seed(seed);
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
        match outcome {
            Ok(()) => clean_arms += 1,
            Err(err) => {
                // Typed means displayable and classified — never a panic,
                // never a hang (reaching here at all proves no hang).
                assert!(!err.to_string().is_empty());
                assert!(
                    plan.fault != WireFault::None,
                    "control arm (seed {seed}) must stay clean, got {err}"
                );
                typed_errors += 1;
            }
        }

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
    }
    // The seed sweep must actually exercise both outcomes.
    assert!(clean_arms > 0, "no chaos seed completed cleanly");
    assert!(typed_errors > 0, "no chaos seed produced a typed error");
}
