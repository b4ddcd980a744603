//! Listeners, the accept loop, and the per-connection frame loop.

use crate::config::ServerConfig;
use crate::counters::Counters;
use crate::dispatch::dispatch;
use crate::state::{ConnHandle, ServerState, WakeAddr};
use rt_par::Gate;
use rt_proto::{read_frame, write_frame, ErrorFrame, FrameError, Request, Response};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;

enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixListener, std::path::PathBuf),
}

enum Accepted {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl ListenerKind {
    fn accept(&self) -> std::io::Result<Accepted> {
        match self {
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Accepted::Tcp(s)),
            #[cfg(unix)]
            ListenerKind::Unix(l, _) => l.accept().map(|(s, _)| Accepted::Unix(s)),
        }
    }
}

/// A bound-but-not-yet-running repair server.
///
/// `bind_*` reserves the socket (so `local_addr` is known before any
/// thread starts); [`Server::run`] then blocks serving connections until a
/// `shutdown` request arrives or [`ServerHandle::shutdown`] is called.
pub struct Server {
    state: Arc<ServerState>,
    listener: ListenerKind,
}

/// A cheap clone-free handle onto a running (or about-to-run) server:
/// triggers shutdown and reads counters from another thread.
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Flips the shutdown latch, severs live connections, and wakes the
    /// accept loop; [`Server::run`] returns once in-flight handlers finish.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.is_shutting_down()
    }

    /// Arms a one-shot durability fault (crash injection for recovery
    /// tests). Returns `false` when the server has no data dir — there is
    /// no durability path for the fault to fire in.
    pub fn arm_fault(&self, point: crate::durability::FaultPoint) -> bool {
        match &self.state.store {
            Some(store) => {
                store.arm_fault(point);
                true
            }
            None => false,
        }
    }

    /// Snapshot of the server counters (same content as the
    /// `server_stats` response).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut counters = self.state.counters.snapshot();
        counters.push((
            "sessions_live".to_string(),
            self.state.registry.live() as u64,
        ));
        counters
    }
}

impl Server {
    /// Binds a TCP listener with explicit limits.
    pub fn bind_tcp_with(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState::new(config)?);
        crate::dispatch::recover_all(&state);
        state.set_wake(WakeAddr::Tcp(listener.local_addr()?));
        Ok(Server {
            state,
            listener: ListenerKind::Tcp(listener),
        })
    }

    /// Binds a Unix-domain listener with explicit limits. A stale socket
    /// file at `path` is removed first.
    #[cfg(unix)]
    pub fn bind_unix_with(
        path: impl Into<std::path::PathBuf>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        let state = Arc::new(ServerState::new(config)?);
        crate::dispatch::recover_all(&state);
        state.set_wake(WakeAddr::Unix(path.clone()));
        Ok(Server {
            state,
            listener: ListenerKind::Unix(listener, path),
        })
    }

    /// The bound TCP address (`None` for Unix sockets).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            ListenerKind::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            ListenerKind::Unix(..) => None,
        }
    }

    /// A handle for shutting the server down from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves connections until shutdown. Each connection gets a thread;
    /// concurrency is bounded by [`ServerConfig::max_connections`] via a
    /// counting gate (further accepts queue, none are dropped).
    ///
    /// A connection is registered on the accept loop, before its handler
    /// thread starts, so a shutdown severs every connection that could
    /// still block `run` from returning. One accepted after the shutdown
    /// has severed the others is dropped unserved.
    pub fn run(self) -> std::io::Result<()> {
        let Server { state, listener } = self;
        let gate = Gate::new(state.config.max_connections);
        std::thread::scope(|scope| {
            loop {
                let accepted = match listener.accept() {
                    Ok(a) => a,
                    Err(_) if state.is_shutting_down() => break,
                    Err(_) => continue,
                };
                let token = accepted.register(&state);
                if state.is_shutting_down() {
                    // The wake self-connect (or a straggler): drop it.
                    if let Some(token) = token {
                        state.deregister(token);
                    }
                    break;
                }
                let pass = gate.enter();
                let state = &state;
                scope.spawn(move || {
                    let _pass = pass;
                    match accepted {
                        Accepted::Tcp(stream) => serve_connection(stream, state),
                        #[cfg(unix)]
                        Accepted::Unix(stream) => serve_connection(stream, state),
                    }
                    if let Some(token) = token {
                        state.deregister(token);
                    }
                });
            }
        });
        #[cfg(unix)]
        if let ListenerKind::Unix(_, path) = &listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

impl Accepted {
    /// Registers a clone of the connection for a shutdown to sever, and
    /// returns its token (`None` when the socket cannot be cloned).
    fn register(&self, state: &ServerState) -> Option<usize> {
        let handle = match self {
            Accepted::Tcp(stream) => ConnHandle::Tcp(stream.try_clone().ok()?),
            #[cfg(unix)]
            Accepted::Unix(stream) => ConnHandle::Unix(stream.try_clone().ok()?),
        };
        Some(state.register(handle))
    }
}

/// The per-connection loop: read a frame, dispatch, write the reply.
///
/// Frame-layer failures are typed, not fatal where recovery is possible:
/// an oversized frame has already been drained to its newline, so the
/// connection answers with code `oversized` and keeps going; a bad-UTF-8
/// frame answers `malformed` and keeps going; a truncated stream answers
/// best-effort and closes (the peer is gone mid-frame).
fn serve_connection<S: Read + Write>(stream: S, state: &ServerState) {
    let mut reader = BufReader::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(payload) => payload,
            Err(FrameError::Closed) | Err(FrameError::Io(_)) => return,
            Err(err) => {
                Counters::bump(&state.counters.frames_rejected);
                let code = match err {
                    FrameError::Oversized => "oversized",
                    _ => "malformed",
                };
                let response = Response::Error(ErrorFrame::protocol(code, err.to_string()));
                if write_frame(reader.get_mut(), &response.encode()).is_err() {
                    return;
                }
                match err {
                    FrameError::Truncated => return,
                    _ => continue,
                }
            }
        };
        Counters::bump(&state.counters.frames_decoded);
        let response = match Request::decode(&payload) {
            Ok(request) => dispatch(state, request),
            Err(message) => Response::Error(ErrorFrame::protocol("malformed", message)),
        };
        let shutting_down = matches!(response, Response::ShuttingDown);
        if write_frame(reader.get_mut(), &response.encode()).is_err() {
            return;
        }
        if shutting_down {
            state.trigger_shutdown();
            return;
        }
    }
}
