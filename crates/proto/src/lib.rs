//! # rt-proto
//!
//! The wire protocol of the repair service — the *one* public command
//! surface of the workspace. Every way of driving a repair session speaks
//! these types: the `rtclean` CLI parses its flags into them, the
//! `rtclean connect` REPL translates lines into them, `rt-client` sends
//! them over a socket, and `rt-server` validates and executes them.
//!
//! ## Framing
//!
//! One frame = one line of compact JSON terminated by `\n` (see
//! [`read_frame`] / [`write_frame`]). Frames are capped at
//! [`MAX_FRAME_BYTES`]; an oversized frame is consumed up to its newline so
//! the stream stays synchronized, and surfaces as a typed error instead of
//! a desync. The JSON dialect is exactly the hand-rolled reader/writer of
//! `rt_engine::json` — no serde, the build environment is offline.
//!
//! ## Grammar
//!
//! Every request is an object with a `"type"` discriminator:
//!
//! ```json
//! {"type": "create_session", "name": "s1", "opts": {"weight": "distinct",
//!  "seed": "17", "max_expansions": 500000, "threads": "auto"}}
//! {"type": "load_csv", "session": "s1", "text": "A,B\n1,1\n1,2\n",
//!  "tsv": false, "fds": ["A->B"]}
//! {"type": "apply", "session": "s1", "ops": [{"op": "delete", "rows": [0]}]}
//! {"type": "repair_at", "session": "s1", "tau": 2}
//! {"type": "sweep_page", "session": "s1", "lo": 0, "hi": 9, "offset": 0, "limit": 4}
//! {"type": "spectrum", "session": "s1"}
//! {"type": "stats", "session": "s1"}
//! {"type": "close", "session": "s1"}
//! ```
//!
//! and every response mirrors it (`"pong"`, `"created"`, `"loaded"`,
//! `"applied"`, `"repair"`, `"sweep_page"`, `"spectrum"`, `"stats"`,
//! `"closed"`, `"server_stats"`, `"shutting_down"`, `"error"`).
//!
//! ## Bit-identity across the wire
//!
//! Repairs are encoded losslessly: float costs travel as their raw `u64`
//! bits (decimal strings — JSON numbers cannot carry 64 bits), instance
//! cells use a self-describing value encoding with reserved `"str:"` /
//! `"float:"` / `"int:"` / `"var:"` prefixes, and fresh-variable counters
//! ride along so a decoded V-instance is `==` to the server's. A spectrum
//! decoded by a client is [`Spectrum::bit_identical`](rt_engine::Spectrum)
//! to the one the server computed — the protocol's hard invariant, enforced
//! by `tests/protocol_roundtrip.rs` and the `serve.multi_session` bench
//! gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod frame;
mod opts;
mod repair;
mod request;
mod response;
mod value;

pub use error::{decode_engine_error, encode_engine_error, ErrorFrame};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use opts::{take_value, EngineOpts};
pub use repair::{decode_point, decode_repair, encode_point, encode_repair};
pub use request::{Request, TauSpec};
pub use response::{decode_telemetry, encode_telemetry, LoadSummary, Response};
pub use value::{decode_value, encode_value};
