//! The engine snapshot codec: the full prepared state of a
//! [`crate::RepairEngine`] as one versioned, checksummed binary blob.
//!
//! A snapshot captures everything the engine paid for at build time and
//! accumulated since — per-attribute dictionaries, columnar code arrays,
//! the FD set, the conflict graph with its difference sets, cumulative
//! stats, the suspended sweep checkpoint and any salvaged heuristic cache —
//! so a restored engine answers every query bit-identically to the original
//! **without rebuilding the conflict graph**
//! ([`crate::EngineStats::conflict_graph_builds`] is `0` after a restore:
//! the restored engine never built one).
//!
//! # Format grammar
//!
//! ```text
//! snapshot   := magic version section_count section*
//! magic      := "RTSNAP01"                      (8 bytes)
//! version    := u32                             (SNAPSHOT_VERSION)
//! section    := tag:u32 len:u64 crc:u32 payload (len bytes)
//! ```
//!
//! All integers are little-endian; `crc` is the IEEE CRC-32 of the payload.
//! Floats travel as raw bit patterns, so a round trip is exact. Telemetry
//! structs ([`Telemetry`]) travel as their slot table in field order: a
//! count, gauge or total as a `u64`, a flag as one byte. Truncated, corrupt or
//! version-skewed input fails with a typed [`EngineError::Snapshot`] —
//! never a panic: every length is bounds-checked against the remaining
//! bytes before it allocates, and every decoded index is validated against
//! the structure it points into.

use crate::error::EngineError;
use crate::stats::EngineStats;
use rt_constraints::{AttrSet, ConflictEdge, ConflictGraph, Fd, FdSet};
use rt_core::heuristic::HeuristicConfig;
use rt_core::search::FdRepair;
use rt_core::{
    CacheEntryExport, HeuristicCache, Parallelism, RangedFdRepair, RepairProblem, RepairState,
    SearchAlgorithm, SearchConfig, SweepCheckpoint, SweepCheckpointParts, WeightKind,
};
use rt_relation::work::{Slot, Telemetry};
use rt_relation::{AttrDict, AttrId, Code, Instance, Schema, Value, VarId};

/// Magic prefix of every engine snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RTSNAP01";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 4;

// Section tags. CONFIG..STATS are required; SWEEP and WARM are present only
// when the engine holds the corresponding cache.
const SEC_CONFIG: u32 = 1;
const SEC_SCHEMA: u32 = 2;
const SEC_DICTS: u32 = 3;
const SEC_CODES: u32 = 4;
const SEC_FDS: u32 = 5;
const SEC_GRAPH: u32 = 6;
const SEC_STATS: u32 = 7;
const SEC_SWEEP: u32 = 8;
const SEC_WARM: u32 = 9;

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

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
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

fn put_state(out: &mut Vec<u8>, state: &RepairState) {
    put_usize(out, state.extensions().len());
    for ext in state.extensions() {
        put_u64(out, ext.bits());
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

fn put_cache(out: &mut Vec<u8>, entries: &[CacheEntryExport], hits: usize, nodes_spent: usize) {
    put_usize(out, entries.len());
    for e in entries {
        put_usize(out, e.selection.len());
        for &s in &e.selection {
            put_u32(out, s);
        }
        put_usize(out, e.violation.len());
        for &v in &e.violation {
            put_u64(out, v);
        }
        put_usize(out, e.tau);
        put_bool(out, e.truncated);
        put_bool(out, e.skipped_any);
        put_usize(out, e.nodes);
        put_usize(out, e.pushes.len());
        for (adds, threshold) in &e.pushes {
            put_usize(out, adds.len());
            for a in adds {
                put_u64(out, a.bits());
            }
            put_usize(out, *threshold);
        }
    }
    put_usize(out, hits);
    put_usize(out, nodes_spent);
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

    fn f64_(&mut self) -> Result<f64, EngineError> {
        Ok(f64::from_bits(self.u64()?))
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

    fn state(&mut self, fd_count: usize) -> Result<RepairState, EngineError> {
        let n = self.count(8)?;
        if n != fd_count {
            return Err(bad(format!(
                "repair state has {n} extensions for {fd_count} FDs"
            )));
        }
        let mut exts = Vec::with_capacity(n);
        for _ in 0..n {
            exts.push(AttrSet::from_bits(self.u64()?));
        }
        Ok(RepairState::new(exts))
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

    fn cache(&mut self) -> Result<(Vec<CacheEntryExport>, usize, usize), EngineError> {
        let n = self.count(8)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let sel_n = self.count(4)?;
            let mut selection = Vec::with_capacity(sel_n);
            for _ in 0..sel_n {
                selection.push(self.u32()?);
            }
            let vio_n = self.count(8)?;
            let mut violation = Vec::with_capacity(vio_n);
            for _ in 0..vio_n {
                violation.push(self.u64()?);
            }
            let tau = self.usize_()?;
            let truncated = self.bool_()?;
            let skipped_any = self.bool_()?;
            let nodes = self.usize_()?;
            let push_n = self.count(8)?;
            let mut pushes = Vec::with_capacity(push_n);
            for _ in 0..push_n {
                let add_n = self.count(8)?;
                let mut adds = Vec::with_capacity(add_n);
                for _ in 0..add_n {
                    adds.push(AttrSet::from_bits(self.u64()?));
                }
                let threshold = self.usize_()?;
                pushes.push((adds, threshold));
            }
            entries.push(CacheEntryExport {
                selection,
                violation,
                tau,
                truncated,
                skipped_any,
                nodes,
                pushes,
            });
        }
        let hits = self.usize_()?;
        let nodes_spent = self.usize_()?;
        Ok((entries, hits, nodes_spent))
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

fn algorithm_tag(algorithm: SearchAlgorithm) -> u8 {
    match algorithm {
        SearchAlgorithm::AStar => 0,
        SearchAlgorithm::BestFirst => 1,
    }
}

/// Serializes an engine's full prepared state.
pub(crate) fn encode(
    problem: &RepairProblem,
    search_config: &SearchConfig,
    algorithm: SearchAlgorithm,
    seed: u64,
    stats: &EngineStats,
    sweep: Option<SweepCheckpointParts>,
    warm: Option<(Vec<CacheEntryExport>, usize, usize)>,
) -> Vec<u8> {
    let instance = problem.instance();
    let schema = instance.schema();
    let arity = schema.arity();

    let mut config = Vec::new();
    put_u8(&mut config, weight_tag(problem.weight_kind()));
    put_u8(&mut config, algorithm_tag(algorithm));
    put_u64(&mut config, seed);
    put_usize(&mut config, search_config.max_expansions);
    put_usize(&mut config, search_config.heuristic.max_diff_sets);
    put_usize(&mut config, search_config.heuristic.node_budget);
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
    put_bool(&mut config, search_config.heuristic_cache);
    put_bool(&mut config, problem.has_partition_index());

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

    let graph = problem.conflict_graph();
    let mut graph_sec = Vec::new();
    put_usize(&mut graph_sec, graph.row_count());
    put_usize(&mut graph_sec, graph.edge_count());
    for e in graph.edges() {
        put_usize(&mut graph_sec, e.rows.0);
        put_usize(&mut graph_sec, e.rows.1);
        put_usize(&mut graph_sec, e.violated_fds.len());
        for &f in &e.violated_fds {
            put_usize(&mut graph_sec, f);
        }
        put_u64(&mut graph_sec, e.difference_set.bits());
    }

    let mut stats_sec = Vec::new();
    put_telemetry(&mut stats_sec, *stats);

    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    let section_count = 7 + sweep.is_some() as u32 + warm.is_some() as u32;
    put_u32(&mut out, section_count);
    push_section(&mut out, SEC_CONFIG, &config);
    push_section(&mut out, SEC_SCHEMA, &schema_sec);
    push_section(&mut out, SEC_DICTS, &dicts);
    push_section(&mut out, SEC_CODES, &codes);
    push_section(&mut out, SEC_FDS, &fds);
    push_section(&mut out, SEC_GRAPH, &graph_sec);
    push_section(&mut out, SEC_STATS, &stats_sec);

    if let Some(parts) = sweep {
        let mut sec = Vec::new();
        put_usize(&mut sec, parts.open.len());
        for (state, priority, cost) in &parts.open {
            put_state(&mut sec, state);
            put_f64(&mut sec, *priority);
            put_f64(&mut sec, *cost);
        }
        put_i64(&mut sec, parts.tau);
        put_i64(&mut sec, parts.tau_low);
        put_usize(&mut sec, parts.tau_high);
        put_usize(&mut sec, parts.current_upper);
        put_telemetry(&mut sec, parts.stats);
        put_bool(&mut sec, parts.exhausted);
        put_usize(&mut sec, parts.found.len());
        for ranged in &parts.found {
            put_state(&mut sec, &ranged.repair.state);
            put_usize(&mut sec, ranged.repair.fd_set.len());
            for (_, fd) in ranged.repair.fd_set.iter() {
                put_u64(&mut sec, fd.lhs.bits());
                put_u16(&mut sec, fd.rhs.0);
            }
            put_f64(&mut sec, ranged.repair.dist_c);
            put_usize(&mut sec, ranged.repair.delta_p);
            put_usize(&mut sec, ranged.repair.cover_rows.len());
            for &r in &ranged.repair.cover_rows {
                put_usize(&mut sec, r);
            }
            put_usize(&mut sec, ranged.tau_range.0);
            put_usize(&mut sec, ranged.tau_range.1);
        }
        put_cache(
            &mut sec,
            &parts.cache_entries,
            parts.cache_hits,
            parts.cache_nodes_spent,
        );
        push_section(&mut out, SEC_SWEEP, &sec);
    }

    if let Some((entries, hits, nodes_spent)) = warm {
        let mut sec = Vec::new();
        put_cache(&mut sec, &entries, hits, nodes_spent);
        push_section(&mut out, SEC_WARM, &sec);
    }

    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// The decoded engine state [`crate::RepairEngine::restore`] reassembles.
pub(crate) struct DecodedEngine {
    pub problem: RepairProblem,
    pub search_config: SearchConfig,
    pub algorithm: SearchAlgorithm,
    pub seed: u64,
    pub stats: EngineStats,
    pub sweep: Option<SweepCheckpoint>,
    pub warm: Option<HeuristicCache>,
}

fn read_fd(r: &mut Reader<'_>, arity: usize) -> Result<Fd, EngineError> {
    let lhs = AttrSet::from_bits(r.u64()?);
    let rhs = r.u16()?;
    let mask = AttrSet::all(arity);
    if rhs as usize >= arity {
        return Err(bad(format!("FD RHS {rhs} out of range for arity {arity}")));
    }
    if !lhs.is_subset_of(mask) {
        return Err(bad(format!(
            "FD LHS {:#x} has attributes outside arity {arity}",
            lhs.bits()
        )));
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
    let optional = |tag: u32| -> Option<Reader<'_>> {
        sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| Reader::new(p))
    };
    for (tag, _) in &sections {
        if !(SEC_CONFIG..=SEC_WARM).contains(tag) {
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
    let algorithm = match r.u8()? {
        0 => SearchAlgorithm::AStar,
        1 => SearchAlgorithm::BestFirst,
        t => return Err(bad(format!("unknown search algorithm {t}"))),
    };
    let seed = r.u64()?;
    let max_expansions = r.usize_()?;
    let max_diff_sets = r.usize_()?;
    let node_budget = r.usize_()?;
    let parallelism = match (r.u8()?, r.usize_()?) {
        (0, _) => Parallelism::Auto,
        (1, _) => Parallelism::Serial,
        (2, n) => Parallelism::Fixed(n),
        (t, _) => return Err(bad(format!("unknown parallelism tag {t}"))),
    };
    let heuristic_cache = r.bool_()?;
    let has_partition_index = r.bool_()?;
    let search_config = SearchConfig {
        max_expansions,
        heuristic: HeuristicConfig {
            max_diff_sets,
            node_budget,
        },
        parallelism,
        heuristic_cache,
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
    if sigma.is_empty() {
        return Err(bad("snapshot carries an empty FD set"));
    }

    // GRAPH
    let mut r = section(SEC_GRAPH, "conflict graph")?;
    let row_count = r.usize_()?;
    if row_count != instance.len() {
        return Err(bad(format!(
            "conflict graph row count {row_count} does not match the {} instance rows",
            instance.len()
        )));
    }
    let edge_n = r.count(32)?;
    let mask = AttrSet::all(arity);
    let mut edges = Vec::with_capacity(edge_n);
    for _ in 0..edge_n {
        let u = r.usize_()?;
        let v = r.usize_()?;
        let label_n = r.count(8)?;
        let mut violated_fds = Vec::with_capacity(label_n);
        for _ in 0..label_n {
            let f = r.usize_()?;
            if f >= sigma.len() {
                return Err(bad(format!("edge label {f} out of range")));
            }
            violated_fds.push(f);
        }
        let diff = AttrSet::from_bits(r.u64()?);
        if !diff.is_subset_of(mask) {
            return Err(bad("difference set has attributes outside the schema"));
        }
        edges.push(ConflictEdge {
            rows: (u, v),
            violated_fds,
            difference_set: diff,
        });
    }
    let conflict = ConflictGraph::from_parts(row_count, edges)
        .map_err(|e| bad(format!("bad conflict graph: {e}")))?;

    // STATS
    let mut r = section(SEC_STATS, "stats")?;
    let mut stats: EngineStats = r.telemetry()?;
    // The restored engine never built a conflict graph — the headline
    // invariant of restore (ROADMAP item 3): warm state, zero builds.
    stats.conflict_graph_builds = 0;

    let problem =
        RepairProblem::from_restored(instance, sigma, conflict, weight, has_partition_index);

    // SWEEP (optional)
    let sweep = match optional(SEC_SWEEP) {
        None => None,
        Some(mut r) => {
            let fd_count = problem.fd_count();
            let open_n = r.count(8)?;
            let mut open = Vec::with_capacity(open_n);
            for _ in 0..open_n {
                let state = r.state(fd_count)?;
                let priority = r.f64_()?;
                let cost = r.f64_()?;
                open.push((state, priority, cost));
            }
            let tau = r.i64()?;
            let tau_low = r.i64()?;
            let tau_high = r.usize_()?;
            let current_upper = r.usize_()?;
            let stats = r.telemetry()?;
            let exhausted = r.bool_()?;
            let found_n = r.count(8)?;
            let mut found = Vec::with_capacity(found_n);
            for _ in 0..found_n {
                let state = r.state(fd_count)?;
                let set_n = r.count(10)?;
                if set_n != fd_count {
                    return Err(bad(format!(
                        "found repair has {set_n} FDs, expected {fd_count}"
                    )));
                }
                let mut fd_vec = Vec::with_capacity(set_n);
                for _ in 0..set_n {
                    fd_vec.push(read_fd(&mut r, arity)?);
                }
                let fd_set = FdSet::from_fds(fd_vec);
                let dist_c = r.f64_()?;
                let delta_p = r.usize_()?;
                let cover_n = r.count(8)?;
                let mut cover_rows = Vec::with_capacity(cover_n);
                for _ in 0..cover_n {
                    cover_rows.push(r.usize_()?);
                }
                let lo = r.usize_()?;
                let hi = r.usize_()?;
                found.push(RangedFdRepair {
                    repair: FdRepair {
                        state,
                        fd_set,
                        dist_c,
                        delta_p,
                        cover_rows,
                    },
                    tau_range: (lo, hi),
                });
            }
            let (cache_entries, cache_hits, cache_nodes_spent) = r.cache()?;
            if !r.is_done() {
                return Err(bad("trailing bytes in sweep section"));
            }
            Some(SweepCheckpoint::from_parts(SweepCheckpointParts {
                open,
                tau,
                tau_low,
                tau_high,
                current_upper,
                stats,
                exhausted,
                found,
                cache_entries,
                cache_hits,
                cache_nodes_spent,
            }))
        }
    };

    // WARM (optional)
    let warm = match optional(SEC_WARM) {
        None => None,
        Some(mut r) => {
            let (entries, hits, nodes_spent) = r.cache()?;
            if !r.is_done() {
                return Err(bad("trailing bytes in warm-cache section"));
            }
            Some(HeuristicCache::from_exported(entries, hits, nodes_spent))
        }
    };

    Ok(DecodedEngine {
        problem,
        search_config,
        algorithm,
        seed,
        stats,
        sweep,
        warm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_core::{RangeSearch, SearchStats};

    // Both stats structs are built without `..Default::default()` and with
    // no field at its default, so a field missing from a slot table either
    // fails to compile here or fails the round trip.
    #[test]
    fn every_stats_field_survives_a_snapshot() {
        let schema = Schema::new("R", vec!["A", "B", "C"]).unwrap();
        let rows = [vec![1, 1, 1], vec![1, 2, 1], vec![2, 3, 4], vec![2, 4, 5]];
        let instance = Instance::from_int_rows(schema.clone(), &rows).unwrap();
        let fds = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
        let problem = RepairProblem::with_weight(&instance, &fds, WeightKind::AttrCount);
        let config = SearchConfig::default();
        let mut search = RangeSearch::new(&problem, 0, problem.delta_p_original(), &config);
        search.next_repair().unwrap();
        let search_stats = SearchStats {
            states_expanded: 1,
            states_generated: 2,
            heuristic_nodes: 3,
            heuristic_cache_hits: 4,
            heuristic_cache_entries: 5,
            truncated: true,
        };
        let mut sweep = search.suspend().export_parts();
        sweep.stats = search_stats;
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
            components_dirtied: 13,
            graph_rebuild_avoided: 14,
            sweep_cache_hits: 15,
            dict_entries: 16,
            shards: 17,
        };
        let bytes = encode(
            &problem,
            &config,
            SearchAlgorithm::AStar,
            0,
            &stats,
            Some(sweep),
            None,
        );
        let decoded = decode(&bytes).unwrap();
        // A restored engine never built a conflict graph, by design.
        let expected = EngineStats {
            conflict_graph_builds: 0,
            ..stats
        };
        assert_eq!(decoded.stats, expected);
        assert_eq!(decoded.sweep.unwrap().stats(), search_stats);
    }
}
