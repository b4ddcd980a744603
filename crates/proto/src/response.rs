//! The response half of the protocol.

use crate::error::ErrorFrame;
use crate::repair::{decode_point, decode_repair, encode_point, encode_repair};
use crate::value::{
    array_field, bool_field, field, num, obj, str_field, u64_field, u64_str, usize_field,
};
use rt_core::{MutationEffect, Repair};
use rt_engine::json::{self, JsonValue};
use rt_engine::{EngineStats, RepairPoint};
use rt_relation::Schema;
use std::time::Duration;

/// What a `load_csv` built: enough for the client to reconstruct the
/// session's [`Schema`] and report the load like the CLI front end does.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSummary {
    /// Relation name of the loaded instance.
    pub relation: String,
    /// Attribute names, in schema order.
    pub attributes: Vec<String>,
    /// Inferred column types (display names, parallel to `attributes`).
    pub types: Vec<String>,
    /// Number of loaded tuples.
    pub rows: usize,
    /// Null cells produced by the null policy.
    pub null_cells: usize,
    /// `δ_P(Σ, I)` — the session's spectrum budget reference.
    pub delta_p: usize,
    /// Conflicting tuple pairs in the freshly built conflict graph.
    pub conflict_edges: usize,
}

impl LoadSummary {
    /// The schema this summary describes.
    pub fn schema(&self) -> Result<Schema, String> {
        Schema::new(self.relation.clone(), self.attributes.clone()).map_err(|e| e.to_string())
    }
}

/// One server→client reply. Each variant mirrors the request that
/// produced it.
#[derive(Debug, Clone)]
pub enum Response {
    /// Reply to `ping`.
    Pong,
    /// The session was created (engine not yet built).
    Created {
        /// The session's name, echoed back.
        session: String,
    },
    /// The session's engine was built from the loaded CSV.
    Loaded(LoadSummary),
    /// A mutation batch was applied atomically.
    Applied {
        /// What the batch changed, structurally.
        effect: MutationEffect,
        /// Whether the sweep checkpoint survived the batch.
        sweep_cache_retained: bool,
    },
    /// One repair.
    Repaired(Box<Repair>),
    /// One page of a sweep.
    SweepPage {
        /// The page's points (at most the requested `limit`).
        points: Vec<RepairPoint>,
        /// `true` when the sweep range is exhausted after this page.
        done: bool,
    },
    /// The full spectrum.
    Spectrum {
        /// All points, largest τ first.
        points: Vec<RepairPoint>,
    },
    /// Cumulative engine statistics of a session.
    Stats(EngineStats),
    /// The session was closed.
    Closed {
        /// The closed session's name.
        session: String,
    },
    /// A durable snapshot of the session was rotated to disk.
    SnapshotWritten {
        /// The session's name, echoed back.
        session: String,
        /// Size of the engine snapshot blob, in bytes.
        bytes: usize,
    },
    /// The session was re-opened from its durable files. Carries the same
    /// schema information as `loaded` (so a freshly connected client can
    /// decode repairs) plus the number of WAL records replayed on top of
    /// the snapshot.
    Restored {
        /// The load summary of the recovered engine.
        summary: LoadSummary,
        /// WAL records replayed on top of the snapshot.
        replayed: usize,
    },
    /// Server-wide counters, as stable `(name, value)` pairs.
    ServerStats(Vec<(String, u64)>),
    /// The server acknowledged `shutdown` and will stop accepting.
    ShuttingDown,
    /// The request failed.
    Error(ErrorFrame),
}

impl Response {
    /// The frame discriminator of this response.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::Pong => "pong",
            Response::Created { .. } => "created",
            Response::Loaded(_) => "loaded",
            Response::Applied { .. } => "applied",
            Response::Repaired(_) => "repair",
            Response::SweepPage { .. } => "sweep_page",
            Response::Spectrum { .. } => "spectrum",
            Response::Stats(_) => "stats",
            Response::Closed { .. } => "closed",
            Response::SnapshotWritten { .. } => "snapshot_written",
            Response::Restored { .. } => "restored",
            Response::ServerStats(_) => "server_stats",
            Response::ShuttingDown => "shutting_down",
            Response::Error(_) => "error",
        }
    }

    /// Renders this response as one frame payload.
    pub fn encode(&self) -> String {
        let mut fields = vec![("type", JsonValue::Str(self.kind().to_string()))];
        match self {
            Response::Pong | Response::ShuttingDown => {}
            Response::Created { session } | Response::Closed { session } => {
                fields.push(("session", JsonValue::Str(session.clone())));
            }
            Response::Loaded(summary) => {
                fields.extend(encode_summary_fields(summary));
            }
            Response::SnapshotWritten { session, bytes } => {
                fields.push(("session", JsonValue::Str(session.clone())));
                fields.push(("bytes", num(*bytes)));
            }
            Response::Restored { summary, replayed } => {
                fields.extend(encode_summary_fields(summary));
                fields.push(("replayed", num(*replayed)));
            }
            Response::Applied {
                effect,
                sweep_cache_retained,
            } => {
                fields.push(("effect", encode_effect(effect)));
                fields.push((
                    "sweep_cache_retained",
                    JsonValue::Bool(*sweep_cache_retained),
                ));
            }
            Response::Repaired(repair) => {
                fields.push(("repair", encode_repair(repair)));
            }
            Response::SweepPage { points, done } => {
                fields.push((
                    "points",
                    JsonValue::Arr(points.iter().map(encode_point).collect()),
                ));
                fields.push(("done", JsonValue::Bool(*done)));
            }
            Response::Spectrum { points } => {
                fields.push((
                    "points",
                    JsonValue::Arr(points.iter().map(encode_point).collect()),
                ));
            }
            Response::Stats(stats) => {
                fields.push(("stats", encode_engine_stats(stats)));
            }
            Response::ServerStats(counters) => {
                fields.push((
                    "counters",
                    JsonValue::Obj(
                        counters
                            .iter()
                            .map(|(k, v)| (k.clone(), u64_str(*v)))
                            .collect(),
                    ),
                ));
            }
            Response::Error(frame) => {
                fields.extend(frame.encode_fields());
            }
        }
        json::render(&obj(fields))
    }

    /// Parses a frame payload into a response.
    ///
    /// Responses carrying repairs need the session's `schema` (learned from
    /// the `loaded` response) to rebuild instances; passing `None` for
    /// those is an error. The pairing is safe because the protocol is
    /// strictly request→response on one connection.
    pub fn decode(payload: &str, schema: Option<&Schema>) -> Result<Response, String> {
        let v = json::parse(payload).map_err(|e| format!("invalid JSON: {e}"))?;
        let need_schema = || schema.ok_or("response carries repairs but no schema is known");
        let decode_points = |v: &JsonValue, schema: &Schema| -> Result<Vec<RepairPoint>, String> {
            array_field(v, "points")?
                .iter()
                .map(|p| decode_point(p, schema))
                .collect()
        };
        match str_field(&v, "type")? {
            "pong" => Ok(Response::Pong),
            "shutting_down" => Ok(Response::ShuttingDown),
            "created" => Ok(Response::Created {
                session: str_field(&v, "session")?.to_string(),
            }),
            "closed" => Ok(Response::Closed {
                session: str_field(&v, "session")?.to_string(),
            }),
            "loaded" => Ok(Response::Loaded(decode_summary(&v)?)),
            "snapshot_written" => Ok(Response::SnapshotWritten {
                session: str_field(&v, "session")?.to_string(),
                bytes: usize_field(&v, "bytes")?,
            }),
            "restored" => Ok(Response::Restored {
                summary: decode_summary(&v)?,
                replayed: usize_field(&v, "replayed")?,
            }),
            "applied" => Ok(Response::Applied {
                effect: decode_effect(field(&v, "effect")?)?,
                sweep_cache_retained: bool_field(&v, "sweep_cache_retained")?,
            }),
            "repair" => Ok(Response::Repaired(Box::new(decode_repair(
                field(&v, "repair")?,
                need_schema()?,
            )?))),
            "sweep_page" => Ok(Response::SweepPage {
                points: decode_points(&v, need_schema()?)?,
                done: bool_field(&v, "done")?,
            }),
            "spectrum" => Ok(Response::Spectrum {
                points: decode_points(&v, need_schema()?)?,
            }),
            "stats" => Ok(Response::Stats(decode_engine_stats(field(&v, "stats")?)?)),
            "server_stats" => {
                let counters = field(&v, "counters")?
                    .as_object()
                    .ok_or("field `counters` must be an object")?;
                let mut out = Vec::with_capacity(counters.len());
                for (k, val) in counters {
                    let n = val
                        .as_str()
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| format!("counter `{k}` must be a decimal u64 string"))?;
                    out.push((k.clone(), n));
                }
                Ok(Response::ServerStats(out))
            }
            "error" => Ok(Response::Error(ErrorFrame::decode(&v)?)),
            other => Err(format!("unknown response type `{other}`")),
        }
    }
}

fn encode_summary_fields(summary: &LoadSummary) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("relation", JsonValue::Str(summary.relation.clone())),
        (
            "attributes",
            JsonValue::Arr(
                summary
                    .attributes
                    .iter()
                    .map(|a| JsonValue::Str(a.clone()))
                    .collect(),
            ),
        ),
        (
            "types",
            JsonValue::Arr(
                summary
                    .types
                    .iter()
                    .map(|t| JsonValue::Str(t.clone()))
                    .collect(),
            ),
        ),
        ("rows", num(summary.rows)),
        ("null_cells", num(summary.null_cells)),
        ("delta_p", num(summary.delta_p)),
        ("conflict_edges", num(summary.conflict_edges)),
    ]
}

fn decode_summary(v: &JsonValue) -> Result<LoadSummary, String> {
    let strings = |key: &str| -> Result<Vec<String>, String> {
        array_field(v, key)?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("field `{key}` must contain strings"))
            })
            .collect()
    };
    Ok(LoadSummary {
        relation: str_field(v, "relation")?.to_string(),
        attributes: strings("attributes")?,
        types: strings("types")?,
        rows: usize_field(v, "rows")?,
        null_cells: usize_field(v, "null_cells")?,
        delta_p: usize_field(v, "delta_p")?,
        conflict_edges: usize_field(v, "conflict_edges")?,
    })
}

fn encode_effect(e: &MutationEffect) -> JsonValue {
    obj(vec![
        ("rows_inserted", num(e.rows_inserted)),
        ("rows_deleted", num(e.rows_deleted)),
        ("cells_updated", num(e.cells_updated)),
        ("fds_added", num(e.fds_added)),
        ("fds_removed", num(e.fds_removed)),
        ("edges_added", num(e.edges_added)),
        ("edges_removed", num(e.edges_removed)),
        ("edges_relabeled", num(e.edges_relabeled)),
        ("components_dirtied", num(e.components_dirtied)),
        ("weight_refreshed", JsonValue::Bool(e.weight_refreshed)),
        (
            "search_state_invalidated",
            JsonValue::Bool(e.search_state_invalidated),
        ),
        (
            "diff_groups_changed",
            JsonValue::Bool(e.diff_groups_changed),
        ),
    ])
}

fn decode_effect(v: &JsonValue) -> Result<MutationEffect, String> {
    Ok(MutationEffect {
        rows_inserted: usize_field(v, "rows_inserted")?,
        rows_deleted: usize_field(v, "rows_deleted")?,
        cells_updated: usize_field(v, "cells_updated")?,
        fds_added: usize_field(v, "fds_added")?,
        fds_removed: usize_field(v, "fds_removed")?,
        edges_added: usize_field(v, "edges_added")?,
        edges_removed: usize_field(v, "edges_removed")?,
        edges_relabeled: usize_field(v, "edges_relabeled")?,
        components_dirtied: usize_field(v, "components_dirtied")?,
        weight_refreshed: bool_field(v, "weight_refreshed")?,
        search_state_invalidated: bool_field(v, "search_state_invalidated")?,
        diff_groups_changed: bool_field(v, "diff_groups_changed")?,
    })
}

/// Encodes cumulative engine statistics (durations travel as nanoseconds).
pub fn encode_engine_stats(stats: &EngineStats) -> JsonValue {
    obj(vec![
        ("conflict_graph_builds", num(stats.conflict_graph_builds)),
        (
            "build_elapsed_ns",
            u64_str(stats.build_elapsed.as_nanos() as u64),
        ),
        ("repair_queries", num(stats.repair_queries)),
        ("sweeps_started", num(stats.sweeps_started)),
        ("points_materialized", num(stats.points_materialized)),
        ("states_expanded", num(stats.states_expanded)),
        ("states_generated", num(stats.states_generated)),
        ("heuristic_nodes", num(stats.heuristic_nodes)),
        ("heuristic_cache_hits", num(stats.heuristic_cache_hits)),
        (
            "heuristic_cache_entries",
            num(stats.heuristic_cache_entries),
        ),
        (
            "search_elapsed_ns",
            u64_str(stats.search_elapsed.as_nanos() as u64),
        ),
        ("truncated", JsonValue::Bool(stats.truncated)),
        ("mutation_batches", num(stats.mutation_batches)),
        ("edges_added", num(stats.edges_added)),
        ("edges_removed", num(stats.edges_removed)),
        ("components_dirtied", num(stats.components_dirtied)),
        ("graph_rebuild_avoided", num(stats.graph_rebuild_avoided)),
        ("sweep_cache_hits", num(stats.sweep_cache_hits)),
        ("dict_entries", num(stats.dict_entries)),
        ("shards", num(stats.shards)),
        ("shard_replans", num(stats.shard_replans)),
    ])
}

/// Decodes statistics written by [`encode_engine_stats`].
pub fn decode_engine_stats(v: &JsonValue) -> Result<EngineStats, String> {
    Ok(EngineStats {
        conflict_graph_builds: usize_field(v, "conflict_graph_builds")?,
        build_elapsed: Duration::from_nanos(u64_field(v, "build_elapsed_ns")?),
        repair_queries: usize_field(v, "repair_queries")?,
        sweeps_started: usize_field(v, "sweeps_started")?,
        points_materialized: usize_field(v, "points_materialized")?,
        states_expanded: usize_field(v, "states_expanded")?,
        states_generated: usize_field(v, "states_generated")?,
        heuristic_nodes: usize_field(v, "heuristic_nodes")?,
        heuristic_cache_hits: usize_field(v, "heuristic_cache_hits")?,
        heuristic_cache_entries: usize_field(v, "heuristic_cache_entries")?,
        search_elapsed: Duration::from_nanos(u64_field(v, "search_elapsed_ns")?),
        truncated: bool_field(v, "truncated")?,
        mutation_batches: usize_field(v, "mutation_batches")?,
        edges_added: usize_field(v, "edges_added")?,
        edges_removed: usize_field(v, "edges_removed")?,
        components_dirtied: usize_field(v, "components_dirtied")?,
        graph_rebuild_avoided: usize_field(v, "graph_rebuild_avoided")?,
        sweep_cache_hits: usize_field(v, "sweep_cache_hits")?,
        dict_entries: usize_field(v, "dict_entries")?,
        shards: usize_field(v, "shards")?,
        shard_replans: usize_field(v, "shard_replans")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_engine::EngineError;

    #[test]
    fn schemaless_responses_round_trip() {
        let stats = EngineStats {
            conflict_graph_builds: 1,
            build_elapsed: Duration::from_nanos(12345),
            repair_queries: 2,
            states_expanded: 99,
            truncated: true,
            shards: 3,
            ..Default::default()
        };
        // Every stats field is required: a frame missing one (here from a
        // peer that predates sharding) is a typed error, not a zero.
        assert_eq!(decode_engine_stats(&encode_engine_stats(&stats)), Ok(stats));
        let JsonValue::Obj(mut fields) = encode_engine_stats(&stats) else {
            panic!("stats encode to an object");
        };
        fields.retain(|(key, _)| key != "shards");
        assert_eq!(
            decode_engine_stats(&JsonValue::Obj(fields)),
            Err("missing field `shards`".to_string())
        );
        let responses = vec![
            Response::Pong,
            Response::Created {
                session: "s1".into(),
            },
            Response::Loaded(LoadSummary {
                relation: "input".into(),
                attributes: vec!["A".into(), "B".into()],
                types: vec!["int".into(), "str".into()],
                rows: 10,
                null_cells: 1,
                delta_p: 4,
                conflict_edges: 3,
            }),
            Response::Applied {
                effect: MutationEffect {
                    rows_inserted: 2,
                    cells_updated: 1,
                    weight_refreshed: true,
                    ..Default::default()
                },
                sweep_cache_retained: true,
            },
            Response::Stats(stats),
            Response::Closed {
                session: "s1".into(),
            },
            Response::SnapshotWritten {
                session: "s1".into(),
                bytes: 4096,
            },
            Response::Restored {
                summary: LoadSummary {
                    relation: "input".into(),
                    attributes: vec!["A".into(), "B".into()],
                    types: vec!["int".into(), "int".into()],
                    rows: 7,
                    null_cells: 0,
                    delta_p: 3,
                    conflict_edges: 2,
                },
                replayed: 5,
            },
            Response::ServerStats(vec![
                ("frames_decoded".into(), 41),
                ("sessions_evicted".into(), 1),
            ]),
            Response::ShuttingDown,
            Response::Error(ErrorFrame::engine(EngineError::Mutation("bad".into()))),
            Response::Error(ErrorFrame::protocol("unknown_session", "no such session")),
        ];
        for response in responses {
            let payload = response.encode();
            assert!(!payload.contains('\n'));
            // `Repair` has no `PartialEq`; a re-encode being byte-identical
            // proves the decode was lossless (encode is deterministic).
            assert_eq!(Response::decode(&payload, None).unwrap().encode(), payload);
        }
    }

    #[test]
    fn repair_responses_need_a_schema() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let instance =
            rt_relation::Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]])
                .unwrap();
        let fds = rt_engine::FdSet::parse(&["A->B"], &schema).unwrap();
        let engine = rt_engine::RepairEngine::new(instance, fds).unwrap();
        let spectrum = engine.spectrum().unwrap();
        let response = Response::Spectrum {
            points: spectrum.points.clone(),
        };
        let payload = response.encode();
        assert!(Response::decode(&payload, None).is_err());
        let decoded = Response::decode(&payload, Some(&schema)).unwrap();
        match decoded {
            Response::Spectrum { points } => {
                let decoded_spectrum = rt_engine::Spectrum {
                    points,
                    search_stats: Default::default(),
                };
                assert!(spectrum.bit_identical(&decoded_spectrum));
            }
            other => panic!("expected spectrum, got {other:?}"),
        }
    }
}
