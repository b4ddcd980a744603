//! The response half of the protocol.

use crate::error::ErrorFrame;
use crate::repair::{decode_point, decode_repair, encode_point, encode_repair};
use crate::value::{
    array_field, bool_field, field, num, obj, str_field, u64_field, u64_str, usize_field,
};
use rt_core::{MutationEffect, Repair};
use rt_engine::json::{self, JsonValue};
use rt_engine::{EngineStats, RepairPoint};
use rt_relation::work::{Slot, Telemetry};
use rt_relation::Schema;

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
    /// Null cells: unquoted fields the loader read as null.
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
                fields.push(("effect", encode_telemetry(*effect)));
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
                fields.push(("stats", encode_telemetry(*stats)));
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
                effect: decode_telemetry(field(&v, "effect")?)?,
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
            "stats" => Ok(Response::Stats(decode_telemetry(field(&v, "stats")?)?)),
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

/// Encodes a telemetry struct as an object with one member per slot:
/// counts and gauges as numbers, flags as booleans, totals as decimal
/// strings.
pub fn encode_telemetry<T: Telemetry>(mut t: T) -> JsonValue {
    obj(t
        .slots()
        .into_iter()
        .map(|(name, slot)| match slot {
            Slot::Count(v) | Slot::Gauge(v) => (name, num(*v)),
            Slot::Flag(b) => (name, JsonValue::Bool(*b)),
            Slot::Total(v) => (name, u64_str(*v)),
        })
        .collect())
}

/// Decodes a telemetry struct written by [`encode_telemetry`]. Every slot
/// is required: a frame missing one is a typed error, not a zero.
pub fn decode_telemetry<T: Telemetry>(v: &JsonValue) -> Result<T, String> {
    let mut t = T::default();
    for (name, slot) in t.slots() {
        match slot {
            Slot::Count(n) | Slot::Gauge(n) => *n = usize_field(v, name)?,
            Slot::Flag(b) => *b = bool_field(v, name)?,
            Slot::Total(n) => *n = u64_field(v, name)?,
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::SearchStats;
    use rt_engine::EngineError;

    // Every telemetry struct below is built without `..Default::default()`
    // and with no field at its default, so a field missing from its slot
    // table either fails to compile here or fails the round trip.
    #[test]
    fn every_telemetry_field_survives_the_wire() {
        let stats = EngineStats {
            conflict_graph_builds: 1,
            repair_queries: 2,
            sweeps_started: 3,
            points_materialized: 4,
            states_expanded: 5,
            states_generated: 6,
            heuristic_nodes: 7,
            heuristic_cache_hits: 8,
            heuristic_cache_entries: 9,
            truncated: true,
            mutation_batches: 10,
            edges_added: 11,
            edges_removed: 12,
            sweep_cache_hits: 13,
            dict_entries: 14,
            shards: 15,
        };
        assert_eq!(decode_telemetry(&encode_telemetry(stats)), Ok(stats));
        let search = SearchStats {
            states_expanded: 1,
            states_generated: 2,
            heuristic_nodes: 3,
            heuristic_cache_hits: 4,
            heuristic_cache_entries: 5,
            truncated: true,
        };
        assert_eq!(decode_telemetry(&encode_telemetry(search)), Ok(search));
        let effect = MutationEffect {
            rows_inserted: 1,
            rows_deleted: 2,
            cells_updated: 3,
            fds_added: 4,
            fds_removed: 5,
            edges_added: 6,
            edges_removed: 7,
            edges_relabeled: 8,
            search_state_invalidated: true,
            diff_groups_changed: true,
        };
        let applied = Response::Applied {
            effect,
            sweep_cache_retained: false,
        };
        match Response::decode(&applied.encode(), None) {
            Ok(Response::Applied {
                effect: decoded, ..
            }) => assert_eq!(decoded, effect),
            other => panic!("expected an applied response, got {other:?}"),
        }
    }

    #[test]
    fn schemaless_responses_round_trip() {
        let stats = EngineStats {
            conflict_graph_builds: 1,
            repair_queries: 2,
            states_expanded: 99,
            truncated: true,
            shards: 3,
            ..Default::default()
        };
        // Every stats field is required: a frame missing one (here from a
        // peer that predates sharding) is a typed error, not a zero.
        assert_eq!(decode_telemetry(&encode_telemetry(stats)), Ok(stats));
        let JsonValue::Obj(mut fields) = encode_telemetry(stats) else {
            panic!("stats encode to an object");
        };
        fields.retain(|(key, _)| key != "shards");
        assert_eq!(
            decode_telemetry::<EngineStats>(&JsonValue::Obj(fields)),
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
                    search_state_invalidated: true,
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
