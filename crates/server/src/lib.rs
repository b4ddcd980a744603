//! # rt-server
//!
//! Repair-as-a-service: hosts many concurrent named
//! [`rt_engine::RepairEngine`] sessions behind the `rt-proto` wire
//! protocol, over TCP or Unix-domain sockets.
//!
//! ```text
//! client ──frame──▶ accept loop ──thread──▶ serve_connection
//!                                              │ read_frame / Request::decode
//!                                              ▼
//!                                          dispatch ──▶ Registry ──▶ SessionSlot{ RepairEngine }
//! ```
//!
//! Design constraints, in order:
//!
//! * **Bit-identity.** A scripted workload through the wire must produce
//!   spectra bit-identical to an in-process engine. The server therefore
//!   adds no approximation anywhere: `load_csv` uses the same `rt-io`
//!   reader and relation name (`"input"`) as the CLI, engines are
//!   configured through the same [`rt_proto::EngineOpts`], and repairs are
//!   shipped with the lossless `rt-proto` codec (raw `f64` bits, fresh-var
//!   counters and all).
//! * **Determinism.** No wall clocks (the repo-wide `rt-lint` D003
//!   contract): session idleness and LRU age are measured with a global
//!   logical operation counter, and the per-session memory bound is a
//!   structural cell count. A scripted workload evicts the same sessions
//!   on every run.
//! * **One build per session.** The conflict graph is built once, by
//!   `load_csv`, or, for a session recovered from its data dir, by the
//!   snapshot restore, which stores `(I, Σ)` and not the graph; every
//!   later request, WAL replay included, goes through the engine's
//!   incremental paths (`conflict_graph_builds` stays 1 while
//!   `mutation_batches` grows).
//! * **Bounded everything.** Frames are capped (8 MiB), connections are
//!   bounded by an [`rt_par::Gate`], sessions by count and by cells, and
//!   capacity pressure evicts idle sessions LRU-first — busy sessions are
//!   never evicted.
//!
//! The daemon is embeddable: `rtclean serve` is a thin wrapper over
//! [`Server::bind_tcp_with`] + [`Server::run`], and the protocol
//! round-trip tests run a real server on a loopback socket inside the test
//! process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod counters;
mod dispatch;
mod durability;
mod net;
mod registry;
mod state;

pub use config::ServerConfig;
pub use durability::{FaultPoint, SessionStore, StoreError};
pub use net::{Server, ServerHandle};
