//! Request dispatch: one function from [`Request`] to [`Response`].

use crate::counters::Counters;
use crate::durability::StoreError;
use crate::registry::{SessionSlot, SessionState};
use crate::state::ServerState;
use rt_engine::{decode_mutation_log, EngineError, FdSet, MutationBatch, MutationOp, RepairEngine};
use rt_io::{read_instance, CsvOptions, IoError};
use rt_proto::{EngineOpts, ErrorFrame, LoadSummary, Request, Response, TauSpec};
use rt_relation::{ColumnType, Value};
use std::sync::Arc;

/// Relation name given to instances loaded over the wire (matches the CLI
/// front end, so spectra are comparable bit-for-bit).
const WIRE_RELATION: &str = "input";

/// Pseudo-path reported in parse errors for wire-loaded CSV text.
const WIRE_PATH: &str = "<wire>";

/// Handles one well-formed request. Never panics: every failure becomes a
/// typed [`Response::Error`].
pub(crate) fn dispatch(state: &ServerState, request: Request) -> Response {
    crate::counters::Counters::bump(&state.counters.requests_served);
    match try_dispatch(state, request) {
        Ok(response) => response,
        Err(frame) => Response::Error(frame),
    }
}

fn try_dispatch(state: &ServerState, request: Request) -> Result<Response, ErrorFrame> {
    let op = state.registry.next_op();
    match request {
        Request::Ping => Ok(Response::Pong),
        Request::ServerStats => {
            let mut counters = state.counters.snapshot();
            counters.push(("sessions_live".to_string(), state.registry.live() as u64));
            Ok(Response::ServerStats(counters))
        }
        // The connection loop triggers the actual shutdown *after* writing
        // this response, so the requester still gets its acknowledgement
        // before every connection is severed.
        Request::Shutdown => Ok(Response::ShuttingDown),
        Request::CreateSession { name, opts } => {
            if state.is_shutting_down() {
                return Err(ErrorFrame::protocol(
                    "shutting_down",
                    "server is shutting down",
                ));
            }
            if state
                .store
                .as_ref()
                .is_some_and(|store| store.has_session(&name))
            {
                return Err(ErrorFrame::protocol(
                    "session_exists",
                    format!("session `{name}` exists durably; `restore` or `close` it first"),
                ));
            }
            state.registry.create(
                &name,
                opts,
                op,
                &state.config,
                &state.counters,
                state.store.as_ref(),
            )?;
            Ok(Response::Created { session: name })
        }
        Request::Close { session } => {
            let resident = state.registry.close(&session, &state.counters);
            let durable = match &state.store {
                Some(store) if store.has_session(&session) => {
                    store
                        .remove(&session)
                        .map_err(|e| ErrorFrame::protocol("io", e))?;
                    true
                }
                _ => false,
            };
            match (resident, durable) {
                // An evicted-but-durable session closes cleanly too.
                (Err(_), true) => {
                    Counters::bump(&state.counters.sessions_closed);
                    Ok(Response::Closed { session })
                }
                (Err(frame), false) => Err(frame),
                (Ok(()), _) => Ok(Response::Closed { session }),
            }
        }
        Request::LoadCsv {
            session,
            text,
            tsv,
            fds,
        } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            if guard.engine.is_some() {
                return Err(ErrorFrame::protocol(
                    "already_loaded",
                    format!("session `{session}` already has an engine"),
                ));
            }
            let options = if tsv {
                CsvOptions::tsv()
            } else {
                CsvOptions::csv()
            }
            .relation(WIRE_RELATION);
            let report = read_instance(text.as_bytes(), &options)
                .map_err(|e| ErrorFrame::engine(io_to_engine(e)))?;
            let cells = report.instance.len() * report.instance.schema().arity();
            if cells > state.config.max_session_cells {
                return Err(memory_limit(cells, state.config.max_session_cells));
            }
            let schema = report.instance.schema().clone();
            let specs: Vec<&str> = fds.iter().map(String::as_str).collect();
            let sigma = FdSet::parse(&specs, &schema)
                .map_err(|e| ErrorFrame::engine(EngineError::Fd(e)))?;
            let engine = guard
                .opts
                .configure(RepairEngine::builder(report.instance, sigma))
                .build()
                .map_err(ErrorFrame::engine)?;
            let summary = LoadSummary {
                relation: schema.name().to_string(),
                attributes: (0..schema.arity())
                    .map(|i| {
                        schema
                            .attr_name(rt_relation::AttrId(i as u16))
                            .unwrap_or("?")
                            .to_string()
                    })
                    .collect(),
                types: report.columns.iter().map(|c| c.to_string()).collect(),
                rows: engine.problem().instance().len(),
                null_cells: report.null_cells,
                delta_p: engine.delta_p_original(),
                conflict_edges: engine.problem().conflict_graph().edge_count(),
            };
            guard.engine = Some(engine);
            // A fresh engine is a fresh durability baseline: rotate a
            // snapshot now so every later mutation only needs the WAL.
            guard.degraded = None;
            guard.wal_seq = 0;
            if state.store.is_some() {
                persist_rotation(state, &session, &mut guard)?;
            }
            Ok(Response::Loaded(summary))
        }
        Request::Apply { session, ops } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            let engine = loaded(&mut guard, &session)?;
            let schema = engine.problem().instance().schema().clone();
            let decoded = decode_mutation_log(&ops, &schema)
                .map_err(|e| ErrorFrame::engine(EngineError::Mutation(e)))?;
            let inserted: usize = decoded
                .iter()
                .map(|op| match op {
                    MutationOp::InsertTuples(tuples) => tuples.len(),
                    _ => 0,
                })
                .sum();
            let cells = (engine.problem().instance().len() + inserted) * schema.arity();
            if cells > state.config.max_session_cells {
                return Err(memory_limit(cells, state.config.max_session_cells));
            }
            let batch: MutationBatch = decoded.into_iter().collect();
            let outcome = engine.apply(&batch).map_err(ErrorFrame::engine)?;
            // Journal the acknowledged mutation. WAL-append order matters:
            // the in-memory apply happened first, but the client only sees
            // the ack after the record is durable, so a crash between the
            // two loses an op the client never had confirmed.
            if let Some(store) = &state.store {
                let seq = guard.wal_seq + 1;
                match store.append_wal(&session, seq, &ops) {
                    Ok(()) => guard.wal_seq = seq,
                    Err(StoreError::Fault(point)) => {
                        state.trigger_shutdown();
                        return Err(ErrorFrame::protocol(
                            "fault_injected",
                            format!("injected fault at {point:?}; server is going down"),
                        ));
                    }
                    Err(StoreError::Io(message)) => {
                        guard.engine = None;
                        guard.degraded = Some(format!("WAL append failed: {message}"));
                        return Err(needs_reload(&session, &message));
                    }
                }
            }
            Ok(Response::Applied {
                effect: outcome.effect,
                sweep_cache_retained: outcome.sweep_cache_retained,
            })
        }
        Request::RepairAt { session, tau } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            let engine = loaded(&mut guard, &session)?;
            let repair = match tau {
                TauSpec::Absolute(t) => engine.repair_at(t),
                TauSpec::Relative(f) => engine.repair_at_relative(f),
            }
            .map_err(ErrorFrame::engine)?;
            Ok(Response::Repaired(Box::new(repair)))
        }
        Request::SweepPage {
            session,
            lo,
            hi,
            offset,
            limit,
        } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            let engine = loaded(&mut guard, &session)?;
            let mut points = Vec::new();
            let mut skipped = 0usize;
            let mut done = true;
            for item in engine.sweep(lo..=hi) {
                let point = item.map_err(ErrorFrame::engine)?;
                if skipped < offset {
                    skipped += 1;
                    continue;
                }
                if limit > 0 && points.len() == limit {
                    done = false;
                    break;
                }
                points.push(point);
            }
            Ok(Response::SweepPage { points, done })
        }
        Request::Spectrum { session } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            let engine = loaded(&mut guard, &session)?;
            let spectrum = engine.spectrum().map_err(ErrorFrame::engine)?;
            Ok(Response::Spectrum {
                points: spectrum.points,
            })
        }
        Request::Stats { session } => {
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            let engine = loaded(&mut guard, &session)?;
            Ok(Response::Stats(engine.stats()))
        }
        Request::Snapshot { session } => {
            if state.store.is_none() {
                return Err(no_data_dir());
            }
            let slot = session_slot(state, &session, op)?;
            let mut guard = slot.lock();
            loaded(&mut guard, &session)?;
            let bytes = persist_rotation(state, &session, &mut guard)?;
            Ok(Response::SnapshotWritten { session, bytes })
        }
        Request::Restore { session } => {
            let Some(store) = &state.store else {
                return Err(no_data_dir());
            };
            if !store.has_session(&session) {
                return Err(ErrorFrame::protocol(
                    "unknown_session",
                    format!("no durable files for session `{session}`"),
                ));
            }
            let (slot, replayed) = install_recovered(state, &session, op)?;
            let guard = slot.lock();
            let engine = guard.engine.as_ref().ok_or_else(|| {
                ErrorFrame::protocol("needs_reload", "restored slot lost its engine")
            })?;
            Ok(Response::Restored {
                summary: summary_of(engine),
                replayed,
            })
        }
    }
}

/// Looks a session up, lazily reopening it from durable files when it was
/// evicted (or the server restarted) — eviction with a data dir is
/// transparent to clients.
fn session_slot(
    state: &ServerState,
    session: &str,
    op: u64,
) -> Result<Arc<SessionSlot>, ErrorFrame> {
    match state.registry.get(session, op) {
        Ok(slot) => Ok(slot),
        Err(frame) if frame.code == "unknown_session" => {
            let durable = state
                .store
                .as_ref()
                .is_some_and(|store| store.has_session(session));
            if !durable {
                return Err(frame);
            }
            install_recovered(state, session, op).map(|(slot, _)| slot)
        }
        Err(frame) => Err(frame),
    }
}

/// Rebuilds a session from its durable files and installs it in the
/// registry. On failure the session is installed *degraded* (so the files
/// are not retried on every request) and the caller gets `needs_reload`.
fn install_recovered(
    state: &ServerState,
    session: &str,
    op: u64,
) -> Result<(Arc<SessionSlot>, usize), ErrorFrame> {
    match restore_from_store(state, session) {
        Ok((session_state, replayed)) => {
            let slot = state.registry.insert_recovered(session, session_state, op);
            Counters::bump(&state.counters.sessions_recovered);
            Ok((slot, replayed))
        }
        Err(reason) => {
            Counters::bump(&state.counters.recovery_failures);
            let mut degraded = SessionState::new(EngineOpts::new(0));
            degraded.degraded = Some(reason.clone());
            state.registry.insert_recovered(session, degraded, op);
            Err(needs_reload(session, &reason))
        }
    }
}

/// Decodes a session's snapshot blob and replays its WAL tail, producing
/// the slot state plus the number of records replayed. Every failure is a
/// `String` reason — the caller decides whether that degrades the slot.
fn restore_from_store(state: &ServerState, session: &str) -> Result<(SessionState, usize), String> {
    let store = state.store.as_ref().ok_or("server has no data dir")?;
    let loaded = store
        .load(session)?
        .ok_or_else(|| format!("session `{session}` has no durable files"))?;
    let mut engine = RepairEngine::restore(&loaded.blob)
        .map_err(|e| format!("snapshot blob does not decode: {e}"))?;
    let schema = engine.problem().instance().schema().clone();
    let mut last_seq = loaded.applied_records;
    let mut replayed = 0usize;
    for (seq, ops) in &loaded.tail {
        let decoded = decode_mutation_log(ops, &schema)
            .map_err(|e| format!("WAL record {seq} does not decode: {e}"))?;
        let batch: MutationBatch = decoded.into_iter().collect();
        engine
            .apply(&batch)
            .map_err(|e| format!("WAL record {seq} does not re-apply: {e}"))?;
        last_seq = *seq;
        replayed += 1;
        Counters::bump(&state.counters.wal_records_replayed);
    }
    let mut session_state = SessionState::new(EngineOpts::new(0));
    session_state.engine = Some(engine);
    session_state.wal_seq = last_seq;
    Ok((session_state, replayed))
}

/// Startup recovery: reopens every session the data dir holds, in sorted
/// name order. Failures degrade the session (clients get `needs_reload`)
/// instead of aborting the whole server.
pub(crate) fn recover_all(state: &ServerState) {
    let Some(store) = &state.store else {
        return;
    };
    for name in store.list_sessions() {
        let op = state.registry.next_op();
        let _ = install_recovered(state, &name, op);
    }
}

/// Snapshots the session's engine and rotates it into the durable store,
/// returning the blob size. An injected fault escalates to a server
/// "crash"; a real I/O failure degrades the session.
fn persist_rotation(
    state: &ServerState,
    session: &str,
    guard: &mut SessionState,
) -> Result<usize, ErrorFrame> {
    let Some(store) = &state.store else {
        return Err(no_data_dir());
    };
    let engine = guard.engine.as_ref().expect("caller checked `loaded`");
    let blob = engine.snapshot().map_err(ErrorFrame::engine)?;
    let bytes = blob.len();
    match store.rotate(session, &blob, guard.wal_seq) {
        Ok(()) => {
            Counters::bump(&state.counters.snapshots_written);
            Ok(bytes)
        }
        Err(StoreError::Fault(point)) => {
            state.trigger_shutdown();
            Err(ErrorFrame::protocol(
                "fault_injected",
                format!("injected fault at {point:?}; server is going down"),
            ))
        }
        Err(StoreError::Io(message)) => {
            guard.engine = None;
            guard.degraded = Some(format!("snapshot rotation failed: {message}"));
            Err(needs_reload(session, &message))
        }
    }
}

/// Recomputes the `load_csv`-shaped summary from a restored engine, so a
/// reconnecting client learns the schema it is talking to. Each column's
/// type follows the loader's rule (`rt-io`'s inference) over the column's
/// dictionary constants: any string makes it `str`, else any float
/// `float`, else any integer `int`, and a column with no non-null value
/// is `str`.
fn summary_of(engine: &RepairEngine) -> LoadSummary {
    let instance = engine.problem().instance();
    let schema = instance.schema();
    let arity = schema.arity();
    let mut types = Vec::with_capacity(arity);
    let mut null_cells = 0usize;
    for attr in schema.attr_ids() {
        let (mut int, mut float, mut string) = (false, false, false);
        for (code, value) in instance.dict(attr).constants().iter().enumerate() {
            match value {
                Value::Null => {
                    let null = code as rt_relation::Code;
                    null_cells += instance.codes(attr).iter().filter(|&&c| c == null).count();
                }
                Value::Int(_) => int = true,
                Value::Float(_) => float = true,
                Value::Str(_) => string = true,
                // Dictionary constants never hold variables.
                Value::Var(_) => {}
            }
        }
        types.push(match (int, float, string) {
            (_, _, true) | (false, false, _) => ColumnType::Str,
            (_, true, _) => ColumnType::Float,
            _ => ColumnType::Int,
        });
    }
    LoadSummary {
        relation: schema.name().to_string(),
        attributes: (0..arity)
            .map(|i| {
                schema
                    .attr_name(rt_relation::AttrId(i as u16))
                    .unwrap_or("?")
                    .to_string()
            })
            .collect(),
        types: types.iter().map(ColumnType::to_string).collect(),
        rows: instance.len(),
        null_cells,
        delta_p: engine.delta_p_original(),
        conflict_edges: engine.problem().conflict_graph().edge_count(),
    }
}

fn needs_reload(session: &str, reason: &str) -> ErrorFrame {
    ErrorFrame::protocol(
        "needs_reload",
        format!(
            "session `{session}` is degraded ({reason}); `load_csv` a fresh baseline or `close` it"
        ),
    )
}

fn no_data_dir() -> ErrorFrame {
    ErrorFrame::protocol(
        "no_data_dir",
        "server is running without --data-dir; durability requests are unavailable",
    )
}

fn loaded<'a>(
    state: &'a mut SessionState,
    session: &str,
) -> Result<&'a mut RepairEngine, ErrorFrame> {
    if let Some(reason) = &state.degraded {
        return Err(needs_reload(session, reason));
    }
    state.engine.as_mut().ok_or_else(|| {
        ErrorFrame::protocol(
            "not_loaded",
            format!("session `{session}` has no engine yet; send `load_csv` first"),
        )
    })
}

fn memory_limit(cells: usize, cap: usize) -> ErrorFrame {
    ErrorFrame::protocol(
        "memory_limit",
        format!("instance would hold {cells} cells, above the per-session cap of {cap}"),
    )
}

fn io_to_engine(err: IoError) -> EngineError {
    match err {
        IoError::Io(message) => EngineError::Io {
            path: WIRE_PATH.to_string(),
            message,
        },
        IoError::Parse { line, message } => EngineError::Parse {
            path: WIRE_PATH.to_string(),
            line,
            message,
        },
        IoError::Relation(e) => EngineError::Relation(e),
    }
}
