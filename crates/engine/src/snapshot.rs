//! The engine snapshot codec: the full state of a [`crate::RepairEngine`]
//! as one versioned, checksummed binary blob.
//!
//! A snapshot stores `(I, Σ)` and what the engine accumulated since it was
//! built — per-attribute dictionaries, columnar code arrays, the FD set and
//! cumulative stats. The conflict graph is not stored: it is a function of
//! `(I, Σ)` (Section 6 of the paper), so the decoder builds its engine with
//! [`crate::RepairEngine::builder`] from the stored instance, FDs and
//! settings, exactly as a fresh build would, and a restored engine answers
//! every query bit-identically to the original.
//!
//! No search state is stored either: neither a suspended sweep nor the
//! heuristic memo ([`rt_core::HeuristicCache`]). Range-Repair (Algorithm 6)
//! computes every point of a sweep from `(I, Σ)` and the `τ` range, so a
//! restored engine starts with an empty sweep cache and a cold memo, and
//! its first sweep runs the search again. Only the work counters it reports
//! after the restore differ.
//!
//! # Format grammar
//!
//! ```text
//! snapshot   := magic version section_count section*
//! magic      := "RTSNAP01"                      (8 bytes)
//! version    := u32                             (SNAPSHOT_VERSION)
//! section    := tag:u32 len:u64 crc:u32 payload (len bytes)
//! config     := weight:u8 seed:u64 max_expansions:u64
//!               parallelism_tag:u8 threads:u64
//! ```
//!
//! The sections are CONFIG (1), SCHEMA (2), DICTS (3), CODES (4), FDS (5)
//! and STATS (7); any other tag fails as unknown, among them tag 6 (the
//! conflict graph before version 9) and tag 8 (the suspended sweep before
//! version 10).
//!
//! CONFIG holds only what a builder can set; the rest of the restored
//! [`rt_core::SearchConfig`] is its default. The decoder hands CONFIG, the
//! instance and the FDs to the builder, whose checks (a non-empty `Σ`, FD
//! attributes inside the arity, `max_expansions ≥ 1`) reject what no
//! engine can be built from. STATS is read against the built engine: every
//! counter is the stored one except `conflict_graph_builds` and `shards`,
//! which describe the build the restore ran.
//!
//! All integers are little-endian; `crc` is the IEEE CRC-32 of the payload.
//! Floats travel as raw bit patterns, so a round trip is exact. Telemetry
//! structs ([`Telemetry`]) travel as their slot table in field order: a
//! count, gauge or total as a `u64`, a flag as one byte. Truncated, corrupt or
//! version-skewed input fails with a typed [`EngineError::Snapshot`] —
//! never a panic: every length is bounds-checked against the remaining
//! bytes before it allocates, and every decoded index is validated against
//! the structure it points into.

use crate::engine::RepairEngine;
use crate::error::EngineError;
use crate::stats::EngineStats;
use rt_constraints::{AttrSet, Fd, FdSet};
use rt_core::{Parallelism, RepairProblem, SearchConfig, WeightKind};
use rt_relation::work::{Slot, Telemetry};
use rt_relation::{AttrDict, AttrId, Code, Instance, Schema, Value, VarId};

/// Magic prefix of every engine snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RTSNAP01";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 10;

// Section tags, all required.
const SEC_CONFIG: u32 = 1;
const SEC_SCHEMA: u32 = 2;
const SEC_DICTS: u32 = 3;
const SEC_CODES: u32 = 4;
const SEC_FDS: u32 = 5;
const SEC_STATS: u32 = 7;
/// Every tag the decoder reads; a section with any other tag is rejected.
const KNOWN_SECTIONS: [u32; 6] = [
    SEC_CONFIG, SEC_SCHEMA, SEC_DICTS, SEC_CODES, SEC_FDS, SEC_STATS,
];

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), hand-rolled: the build environment is offline.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Int(i) => {
            put_u8(out, 1);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 2);
            put_u64(out, f.bits());
        }
        Value::Str(s) => {
            put_u8(out, 3);
            put_str(out, s);
        }
        Value::Var(vid) => {
            put_u8(out, 4);
            put_u16(out, vid.attr);
            put_u32(out, vid.id);
        }
    }
}

fn put_telemetry<T: Telemetry>(out: &mut Vec<u8>, mut t: T) {
    for (_, slot) in t.slots() {
        match slot {
            Slot::Count(v) | Slot::Gauge(v) => put_usize(out, *v),
            Slot::Flag(b) => put_bool(out, *b),
            Slot::Total(v) => put_u64(out, *v),
        }
    }
}

fn push_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

// ---------------------------------------------------------------------------
// Primitive reader
// ---------------------------------------------------------------------------

fn bad(msg: impl Into<String>) -> EngineError {
    EngineError::Snapshot(msg.into())
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], EngineError> {
        if self.remaining() < n {
            return Err(bad(format!(
                "truncated: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, EngineError> {
        Ok(self.take(1)?[0])
    }

    fn bool_(&mut self) -> Result<bool, EngineError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(bad(format!("invalid boolean byte {b}"))),
        }
    }

    fn u16(&mut self) -> Result<u16, EngineError> {
        // rtlint: allow(D006) -- take(2) just returned exactly 2 bytes
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }

    fn u32(&mut self) -> Result<u32, EngineError> {
        // rtlint: allow(D006) -- take(4) just returned exactly 4 bytes
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, EngineError> {
        // rtlint: allow(D006) -- take(8) just returned exactly 8 bytes
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn usize_(&mut self) -> Result<usize, EngineError> {
        usize::try_from(self.u64()?).map_err(|_| bad("usize overflow"))
    }

    fn i64(&mut self) -> Result<i64, EngineError> {
        // rtlint: allow(D006) -- take(8) just returned exactly 8 bytes
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an element count, bounds-checking it against the bytes that
    /// remain (each element occupies at least `min_elem` bytes) so corrupt
    /// counts cannot trigger huge allocations.
    fn count(&mut self, min_elem: usize) -> Result<usize, EngineError> {
        let n = self.usize_()?;
        if n.checked_mul(min_elem.max(1))
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(bad(format!(
                "count {n} exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn str_(&mut self) -> Result<String, EngineError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("invalid UTF-8 in string"))
    }

    fn value(&mut self) -> Result<Value, EngineError> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::float(f64::from_bits(self.u64()?))),
            3 => Ok(Value::Str(self.str_()?)),
            4 => {
                let attr = self.u16()?;
                let id = self.u32()?;
                Ok(Value::Var(VarId::new(attr, id)))
            }
            t => Err(bad(format!("unknown value tag {t}"))),
        }
    }

    fn telemetry<T: Telemetry>(&mut self) -> Result<T, EngineError> {
        let mut t = T::default();
        for (_, slot) in t.slots() {
            match slot {
                Slot::Count(v) | Slot::Gauge(v) => *v = self.usize_()?,
                Slot::Flag(b) => *b = self.bool_()?,
                Slot::Total(v) => *v = self.u64()?,
            }
        }
        Ok(t)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn weight_tag(weight: WeightKind) -> u8 {
    match weight {
        WeightKind::AttrCount => 0,
        WeightKind::DistinctCount => 1,
        WeightKind::Entropy => 2,
    }
}

/// Serializes an engine's `(I, Σ)`, settings and stats.
pub(crate) fn encode(
    problem: &RepairProblem,
    search_config: &SearchConfig,
    seed: u64,
    stats: &EngineStats,
) -> Vec<u8> {
    let instance = problem.instance();
    let schema = instance.schema();
    let arity = schema.arity();

    let mut config = Vec::new();
    put_u8(&mut config, weight_tag(problem.weight_kind()));
    put_u64(&mut config, seed);
    put_usize(&mut config, search_config.max_expansions);
    match search_config.parallelism {
        Parallelism::Auto => {
            put_u8(&mut config, 0);
            put_u64(&mut config, 0);
        }
        Parallelism::Serial => {
            put_u8(&mut config, 1);
            put_u64(&mut config, 0);
        }
        Parallelism::Fixed(n) => {
            put_u8(&mut config, 2);
            put_usize(&mut config, n);
        }
    }

    let mut schema_sec = Vec::new();
    put_str(&mut schema_sec, schema.name());
    put_usize(&mut schema_sec, arity);
    for i in 0..arity {
        put_str(
            &mut schema_sec,
            schema.attr_name(AttrId(i as u16)).unwrap_or("?"),
        );
    }

    let mut dicts = Vec::new();
    for i in 0..arity {
        let (consts, vars) = instance.dict(AttrId(i as u16)).export_parts();
        put_usize(&mut dicts, consts.len());
        for v in &consts {
            put_value(&mut dicts, v);
        }
        put_usize(&mut dicts, vars.len());
        for vid in &vars {
            put_u16(&mut dicts, vid.attr);
            put_u32(&mut dicts, vid.id);
        }
    }

    let mut codes = Vec::new();
    put_usize(&mut codes, instance.len());
    for i in 0..arity {
        for &c in instance.codes(AttrId(i as u16)) {
            put_u32(&mut codes, c);
        }
    }
    for &c in instance.var_counters() {
        put_u32(&mut codes, c);
    }

    let mut fds = Vec::new();
    put_usize(&mut fds, problem.sigma().len());
    for (_, fd) in problem.sigma().iter() {
        put_u64(&mut fds, fd.lhs.bits());
        put_u16(&mut fds, fd.rhs.0);
    }

    let mut stats_sec = Vec::new();
    put_telemetry(&mut stats_sec, *stats);

    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, KNOWN_SECTIONS.len() as u32);
    push_section(&mut out, SEC_CONFIG, &config);
    push_section(&mut out, SEC_SCHEMA, &schema_sec);
    push_section(&mut out, SEC_DICTS, &dicts);
    push_section(&mut out, SEC_CODES, &codes);
    push_section(&mut out, SEC_FDS, &fds);
    push_section(&mut out, SEC_STATS, &stats_sec);

    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A decoded snapshot: the engine the builder made of the stored `(I, Σ)`
/// and settings, with the stats [`crate::RepairEngine::restore`] installs
/// in it.
pub(crate) struct DecodedEngine {
    pub engine: RepairEngine,
    pub stats: EngineStats,
}

/// Reads one FD. Its attributes are checked against the arity by the
/// builder; the RHS is range-checked here because the trivial-FD test
/// shifts by it.
fn read_fd(r: &mut Reader<'_>, arity: usize) -> Result<Fd, EngineError> {
    let lhs = AttrSet::from_bits(r.u64()?);
    let rhs = r.u16()?;
    if rhs as usize >= arity {
        return Err(bad(format!("FD RHS {rhs} out of range for arity {arity}")));
    }
    let rhs = AttrId(rhs);
    if lhs.contains(rhs) {
        return Err(bad("trivial FD in snapshot: RHS appears in LHS"));
    }
    Ok(Fd::new(lhs, rhs))
}

pub(crate) fn decode(bytes: &[u8]) -> Result<DecodedEngine, EngineError> {
    let mut top = Reader::new(bytes);
    let magic = top.take(8)?;
    if magic != SNAPSHOT_MAGIC {
        return Err(bad("bad magic: not an engine snapshot"));
    }
    let version = top.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(bad(format!(
            "unsupported snapshot version {version} (expected {SNAPSHOT_VERSION})"
        )));
    }
    let section_count = top.u32()?;
    let mut sections: Vec<(u32, &[u8])> = Vec::new();
    for _ in 0..section_count {
        let tag = top.u32()?;
        let len = top.u64()?;
        let crc = top.u32()?;
        let len = usize::try_from(len).map_err(|_| bad("section length overflow"))?;
        let payload = top.take(len)?;
        if crc32(payload) != crc {
            return Err(bad(format!("section {tag}: CRC mismatch")));
        }
        if sections.iter().any(|(t, _)| *t == tag) {
            return Err(bad(format!("duplicate section {tag}")));
        }
        sections.push((tag, payload));
    }
    if !top.is_done() {
        return Err(bad(format!(
            "{} trailing bytes after the last section",
            top.remaining()
        )));
    }
    let section = |tag: u32, name: &str| -> Result<Reader<'_>, EngineError> {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| Reader::new(p))
            .ok_or_else(|| bad(format!("missing {name} section")))
    };
    for (tag, _) in &sections {
        if !KNOWN_SECTIONS.contains(tag) {
            return Err(bad(format!("unknown section tag {tag}")));
        }
    }

    // CONFIG
    let mut r = section(SEC_CONFIG, "config")?;
    let weight = match r.u8()? {
        0 => WeightKind::AttrCount,
        1 => WeightKind::DistinctCount,
        2 => WeightKind::Entropy,
        t => return Err(bad(format!("unknown weight kind {t}"))),
    };
    let seed = r.u64()?;
    let max_expansions = r.usize_()?;
    let parallelism = match (r.u8()?, r.usize_()?) {
        (0, _) => Parallelism::Auto,
        (1, _) => Parallelism::Serial,
        (2, n) => Parallelism::Fixed(n),
        (t, _) => return Err(bad(format!("unknown parallelism tag {t}"))),
    };

    // SCHEMA
    let mut r = section(SEC_SCHEMA, "schema")?;
    let relation = r.str_()?;
    let arity = r.count(1)?;
    let mut names = Vec::with_capacity(arity);
    for _ in 0..arity {
        names.push(r.str_()?);
    }
    let schema = Schema::new(relation, names).map_err(|e| bad(format!("bad schema: {e}")))?;
    if schema.arity() != arity {
        return Err(bad("schema arity drifted during rebuild"));
    }

    // DICTS
    let mut r = section(SEC_DICTS, "dictionaries")?;
    let mut dicts = Vec::with_capacity(arity);
    for attr in 0..arity {
        let const_n = r.count(1)?;
        let mut consts = Vec::with_capacity(const_n);
        for _ in 0..const_n {
            consts.push(r.value()?);
        }
        let var_n = r.count(6)?;
        let mut vars = Vec::with_capacity(var_n);
        for _ in 0..var_n {
            let a = r.u16()?;
            let id = r.u32()?;
            vars.push(VarId::new(a, id));
        }
        dicts.push(
            AttrDict::from_parts(consts, vars)
                .map_err(|e| bad(format!("bad dictionary for attribute {attr}: {e}")))?,
        );
    }

    // CODES
    let mut r = section(SEC_CODES, "codes")?;
    let rows = r.count(1)?;
    let mut codes: Vec<Vec<Code>> = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut col = Vec::with_capacity(rows);
        for _ in 0..rows {
            col.push(r.u32()?);
        }
        codes.push(col);
    }
    let mut var_counters = Vec::with_capacity(arity);
    for _ in 0..arity {
        var_counters.push(r.u32()?);
    }
    let instance = Instance::from_encoded_parts(schema, dicts, codes, var_counters)
        .map_err(|e| bad(format!("bad encoded instance: {e}")))?;

    // FDS
    let mut r = section(SEC_FDS, "FDs")?;
    let fd_n = r.count(10)?;
    let mut fd_vec = Vec::with_capacity(fd_n);
    for _ in 0..fd_n {
        fd_vec.push(read_fd(&mut r, arity)?);
    }
    let sigma = FdSet::from_fds(fd_vec);

    // The engine is built as the builder builds any engine: its checks
    // reject an `(I, Σ)` or a setting no engine can be built from.
    let engine = RepairEngine::builder(instance, sigma)
        .weight(weight)
        .parallelism(parallelism)
        .max_expansions(max_expansions)
        .seed(seed)
        .build()
        .map_err(|e| bad(format!("cannot build the engine: {e}")))?;

    // STATS: the build's graph counters replace the stored ones.
    let mut r = section(SEC_STATS, "stats")?;
    let stored: EngineStats = r.telemetry()?;
    let built = engine.stats();
    let stats = EngineStats {
        conflict_graph_builds: built.conflict_graph_builds,
        shards: built.shards,
        ..stored
    };

    Ok(DecodedEngine { engine, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The stats are built without `..Default::default()` and with no field
    // at its default, so a field missing from the slot table either fails
    // to compile here or fails the round trip.
    #[test]
    fn every_stats_field_survives_a_snapshot() {
        let schema = Schema::new("R", vec!["A", "B", "C"]).unwrap();
        let rows = [vec![1, 1, 1], vec![1, 2, 1], vec![2, 3, 4], vec![2, 4, 5]];
        let instance = Instance::from_int_rows(schema.clone(), &rows).unwrap();
        let fds = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&instance, &fds, WeightKind::AttrCount);
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
        let bytes = encode(&problem, &SearchConfig::default(), 0, &stats);
        let decoded = decode(&bytes).unwrap();
        // The graph counters describe the build the restore ran: one
        // monolithic build of four rows.
        let expected = EngineStats {
            conflict_graph_builds: 1,
            shards: 0,
            ..stats
        };
        assert_eq!(decoded.stats, expected);
    }
}
