//! Per-attribute dictionary encoding of cell values.
//!
//! Every algorithm in this workspace compares cells **for equality only**
//! (FD semantics are equality based, and for [`Value`] the V-instance
//! `matches` relation coincides with plain equality — see
//! [`Value::matches`]). That makes each column a candidate for classic
//! dictionary encoding: intern the distinct values of attribute `A` once,
//! hand out dense `u32` [`Code`]s, and let every hot path — conflict-graph
//! blocking, stripped partitions, partition indexes, clean-tuple lookups —
//! sort, hash and compare 4-byte codes instead of heap-allocated
//! `Vec<Value>` keys. Whole-instance grouping sorts rows by their codes'
//! dense slots ([`sort_rows_by_codes`]) and hashes nothing; maps updated in
//! place key on packed [`CodeKey`]s.
//!
//! # Code layout
//!
//! ```text
//! 0 .. 2^31                constants, dense in interning order
//! 2^31 .. 0xC000_0000      V-instance variables, dense in interning order
//! 0xC000_0000 .. 2^32      reserved for external overlay encoders
//! ```
//!
//! Variables live in a reserved range ([`VAR_CODE_BASE`]) so a code is
//! `Value::matches`-faithful by construction: two cells match **iff** their
//! codes are equal (distinct constants, distinct variables and
//! constant-vs-variable pairs all receive distinct codes; the same constant
//! or the same variable always receives the same code). The top range
//! ([`OVERLAY_CODE_BASE`]) is never handed out by [`AttrDict`]; scoped
//! encoders (e.g. the data-repair units, which see scratch variables that
//! are not part of the instance) allocate private codes there without
//! colliding with instance codes.
//!
//! A dictionary is **append-only**: interning never re-assigns or frees a
//! code, so codes stored by long-lived consumers (partition indexes, clean
//! indexes) stay valid across row deletions and cell updates. Codes are
//! meaningful only *within* the dictionary (and its clones) that issued
//! them; comparing codes across independently built instances is a bug —
//! equal data interned in different orders yields different codes.

use crate::value::{Value, VarId};
use crate::work;
use std::collections::HashMap;

/// Dense per-attribute value code. See the module docs for the layout.
pub type Code = u32;

/// First code of the reserved V-instance-variable range.
pub const VAR_CODE_BASE: Code = 1 << 31;

/// First code of the range reserved for external overlay encoders. Never
/// issued by [`AttrDict`]; see [`crate::Instance::codes`] consumers that
/// need to encode values outside the instance (scratch variables).
pub const OVERLAY_CODE_BASE: Code = 0xC000_0000;

/// Interner of one attribute's values: constants to `0..`, V-instance
/// variables to `VAR_CODE_BASE..`.
#[derive(Debug, Clone, Default)]
pub struct AttrDict {
    constants: HashMap<Value, Code>,
    const_values: Vec<Value>,
    vars: HashMap<VarId, Code>,
    /// Every entry is a `Value::Var`, so [`AttrDict::value`] can lend it.
    var_values: Vec<Value>,
}

impl AttrDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        AttrDict::default()
    }

    /// Interns a value, returning its (new or existing) code.
    ///
    /// Probing with a heap-carrying value ([`Value::Str`]) counts one
    /// `key_alloc`: the caller had to materialize an owned string to build
    /// the probe key. Bulk ingestion avoids that cost by probing with the
    /// raw field text instead (see `EncodedLoader`), which is what keeps
    /// the encoded CSV load path at `key_allocs == 0`.
    ///
    /// Panics if a code range overflows — 2^31 distinct constants or 2^30
    /// distinct variables in one column, far beyond anything this workspace
    /// can hold in memory.
    pub fn intern(&mut self, value: &Value) -> Code {
        self.probe(value).unwrap_or_else(|| self.insert_new(value))
    }

    /// [`AttrDict::intern`] without the `key_alloc` accounting, for callers
    /// that probed by raw text and only fall through here on the *first*
    /// occurrence of a value (the allocation they make is permanent storage,
    /// not a transient probe key).
    pub(crate) fn intern_uncounted(&mut self, value: &Value) -> Code {
        work::count_key_hash(value.hash_cost());
        self.find(value).unwrap_or_else(|| self.insert_new(value))
    }

    /// The probe half of [`AttrDict::intern`], counted as `intern` counts:
    /// the code of `value` if it has been interned. A `None` is completed
    /// by [`AttrDict::insert_new`].
    pub(crate) fn probe(&self, value: &Value) -> Option<Code> {
        if matches!(value, Value::Str(_)) {
            work::count_key_alloc();
        }
        self.lookup(value)
    }

    fn find(&self, value: &Value) -> Option<Code> {
        match value {
            Value::Var(vid) => self.vars.get(vid).copied(),
            _ => self.constants.get(value).copied(),
        }
    }

    /// Issues the next code to `value`, which the dictionary does not hold
    /// yet.
    pub(crate) fn insert_new(&mut self, value: &Value) -> Code {
        match value {
            Value::Var(vid) => {
                let idx = self.var_values.len() as Code;
                assert!(
                    VAR_CODE_BASE + idx < OVERLAY_CODE_BASE,
                    "variable code range exhausted"
                );
                let code = VAR_CODE_BASE + idx;
                self.vars.insert(*vid, code);
                self.var_values.push(value.clone());
                code
            }
            _ => {
                let code = self.const_values.len() as Code;
                assert!(code < VAR_CODE_BASE, "constant code range exhausted");
                self.constants.insert(value.clone(), code);
                self.const_values.push(value.clone());
                code
            }
        }
    }

    /// Read-only probe: the code of `value` if it has been interned.
    pub fn lookup(&self, value: &Value) -> Option<Code> {
        work::count_key_hash(value.hash_cost());
        self.find(value)
    }

    /// The value a code stands for, borrowed from the dictionary — the one
    /// place an instance stores its cells' values.
    ///
    /// Panics on a code this dictionary never issued (including overlay
    /// codes).
    pub fn value(&self, code: Code) -> &Value {
        if Self::is_var_code(code) {
            &self.var_values[(code - VAR_CODE_BASE) as usize]
        } else {
            &self.const_values[code as usize]
        }
    }

    /// Decodes a code back to an owned value ([`AttrDict::value`], cloned).
    pub fn decode(&self, code: Code) -> Value {
        self.value(code).clone()
    }

    /// Compares two codes by the **order of their decoded values** (the
    /// derived `Ord` of [`Value`]: `Null < Int < Str < Var`). Lets
    /// consumers that need value order (e.g. the entropy summation) keep
    /// bit-identical behaviour without materializing values.
    pub fn cmp_codes(&self, a: Code, b: Code) -> std::cmp::Ordering {
        match (Self::is_var_code(a), Self::is_var_code(b)) {
            (false, false) => self.const_values[a as usize].cmp(&self.const_values[b as usize]),
            (true, true) => self.var_values[(a - VAR_CODE_BASE) as usize]
                .cmp(&self.var_values[(b - VAR_CODE_BASE) as usize]),
            // Any constant sorts before any variable (enum variant order).
            (false, true) => std::cmp::Ordering::Less,
            (true, false) => std::cmp::Ordering::Greater,
        }
    }

    /// Checked [`AttrDict::value`]: `None` on a code this dictionary never
    /// issued (including overlay codes) instead of a panic — the
    /// snapshot-restore path must fail typed on corrupt input.
    pub fn try_value(&self, code: Code) -> Option<&Value> {
        if code >= OVERLAY_CODE_BASE {
            None
        } else if Self::is_var_code(code) {
            self.var_values.get((code - VAR_CODE_BASE) as usize)
        } else {
            self.const_values.get(code as usize)
        }
    }

    /// Exports the dictionary as plain vectors: constants in code order
    /// (`const_values[c]` decodes code `c`) and variable ids in code order
    /// (`var_ids[i]` decodes code `VAR_CODE_BASE + i`). Together with
    /// [`AttrDict::from_parts`] this round-trips the dictionary exactly,
    /// preserving every issued code.
    pub fn export_parts(&self) -> (Vec<Value>, Vec<VarId>) {
        (self.const_values.clone(), self.var_ids().collect())
    }

    /// Rebuilds a dictionary from exported parts, reassigning code `c` to
    /// `const_values[c]` and code `VAR_CODE_BASE + i` to `var_ids[i]`.
    /// Fails on duplicate entries (which could never have been issued by a
    /// real dictionary) or on a `Value::Var` smuggled into the constants.
    pub fn from_parts(const_values: Vec<Value>, var_ids: Vec<VarId>) -> Result<Self, String> {
        let mut constants = HashMap::with_capacity(const_values.len());
        for (i, v) in const_values.iter().enumerate() {
            if matches!(v, Value::Var(_)) {
                return Err(format!("constant slot {i} holds a variable: {v:?}"));
            }
            if constants.insert(v.clone(), i as Code).is_some() {
                return Err(format!("duplicate constant in dictionary: {v:?}"));
            }
        }
        let mut vars = HashMap::with_capacity(var_ids.len());
        for (i, vid) in var_ids.iter().enumerate() {
            if vars.insert(*vid, VAR_CODE_BASE + i as Code).is_some() {
                return Err(format!("duplicate variable in dictionary: {vid:?}"));
            }
        }
        Ok(AttrDict {
            constants,
            const_values,
            vars,
            var_values: var_ids.into_iter().map(Value::Var).collect(),
        })
    }

    /// `true` when the code lies in the reserved variable range.
    pub fn is_var_code(code: Code) -> bool {
        code >= VAR_CODE_BASE
    }

    /// Number of interned entries (constants + variables).
    pub fn len(&self) -> usize {
        self.const_values.len() + self.var_values.len()
    }

    /// `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of interned constants.
    pub fn constant_count(&self) -> usize {
        self.const_values.len()
    }

    /// Number of interned variables.
    pub fn var_count(&self) -> usize {
        self.var_values.len()
    }

    /// The interned variables, in code order.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        self.var_values.iter().map(|v| match v {
            Value::Var(vid) => *vid,
            _ => unreachable!("variable slots hold variables"),
        })
    }

    /// The interned constants, in code order (`constants()[c]` is the value
    /// of code `c`).
    pub fn constants(&self) -> &[Value] {
        &self.const_values
    }

    /// The dense index space of the codes issued so far.
    pub fn code_space(&self) -> CodeSpace {
        CodeSpace {
            consts: self.const_values.len() as u32,
            vars: self.var_values.len() as u32,
        }
    }
}

/// The codes a dictionary has issued, laid out densely: constants at
/// `0..consts`, then variables. Lets counting kernels index flat arrays by
/// code instead of hashing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSpace {
    consts: u32,
    vars: u32,
}

impl CodeSpace {
    /// Number of dense slots.
    pub fn size(self) -> usize {
        self.consts as usize + self.vars as usize
    }

    /// The dense slot of an issued code.
    #[inline]
    pub fn index(self, code: Code) -> usize {
        if code < VAR_CODE_BASE {
            code as usize
        } else {
            self.consts as usize + (code - VAR_CODE_BASE) as usize
        }
    }
}

/// Number of distinct rows of the projection of `rows` rows onto `cols`
/// (each a code column with the space its codes come from): the weighting
/// `|Π_Y(I)|` of Section 8.1.
///
/// Partition refinement over dense ids, with no hashing and no per-row key:
/// rows start in one class; each column splits every class by code, the
/// rows of a class visited together so a stamp array (one slot per code)
/// finds the class's distinct codes. Cost per column is
/// `O(rows + classes + space)`. Dictionary entries no longer present in a
/// column only widen its space; they never add a class.
pub fn distinct_rows(rows: usize, cols: &[(&[Code], CodeSpace)]) -> usize {
    if rows == 0 || cols.is_empty() {
        return rows.min(1);
    }
    // `class[r]` is row r's class id in `0..classes`; `order` lists the
    // rows grouped by class, `starts[c]..starts[c + 1]` being class c.
    let mut class = vec![0u32; rows];
    let mut classes = 1usize;
    let mut order: Vec<u32> = (0..rows as u32).collect();
    let mut starts: Vec<usize> = vec![0, rows];
    for (i, &(col, space)) in cols.iter().enumerate() {
        debug_assert_eq!(col.len(), rows);
        let mut stamp = vec![u32::MAX; space.size()];
        let mut slot = vec![0u32; space.size()];
        let mut next = 0u32;
        for c in 0..classes {
            for &r in &order[starts[c]..starts[c + 1]] {
                let x = space.index(col[r as usize]);
                if stamp[x] != c as u32 {
                    stamp[x] = c as u32;
                    slot[x] = next;
                    next += 1;
                }
                class[r as usize] = slot[x];
            }
        }
        classes = next as usize;
        if i + 1 < cols.len() {
            // Counting sort of the rows by their new class.
            starts = vec![0usize; classes + 1];
            for &k in &class {
                starts[k as usize + 1] += 1;
            }
            for k in 0..classes {
                starts[k + 1] += starts[k];
            }
            let mut fill = starts.clone();
            for (r, &k) in class.iter().enumerate() {
                order[fill[k as usize]] = r as u32;
                fill[k as usize] += 1;
            }
        }
    }
    classes
}

/// Digit width of the radix passes in [`sort_rows_by_codes`]: a 32-bit
/// slot takes at most three passes, and the count array stays in L1.
const RADIX_BITS: u32 = 11;
const RADIX: usize = 1 << RADIX_BITS;

/// Row lists up to this long are sorted by comparison instead: a radix pass
/// clears and sums its whole count array, which would dominate a small
/// subset (a 2-row shard), while a comparison sort's cost follows the rows.
const SMALL_SORT_ROWS: usize = 512;

/// Narrows a row id to the `u32` the grouping kernel sorts.
///
/// Panics past `u32::MAX` rows, far beyond what an instance can hold.
pub fn row_u32(row: usize) -> u32 {
    u32::try_from(row).expect("row ids fit in u32")
}

/// Groups rows by their codes without hashing: sorts `rows` (ascending on
/// entry) by their code tuple over `cols`, each column given with the space
/// its codes come from, and among equal tuples by row id. Rows with equal
/// codes on every column then form one contiguous run ([`code_runs`]), and
/// a sorted row list doubles as an index searched by [`code_range`].
///
/// A stable LSD radix sort on the dense slots ([`CodeSpace::index`]): one
/// counting pass per 11-bit digit a column's space needs (a pass whose
/// digits all agree is skipped), the columns taken last to first. A
/// column's space sets how many passes it needs, never how much memory a
/// pass touches, so sorting `k` rows costs `O(k · passes)` whatever the
/// space; lists of at most 512 rows are sorted by comparing codes instead.
/// The slot is monotone in the raw code, so the order is lexicographic by
/// raw code tuple.
pub fn sort_rows_by_codes(rows: &mut Vec<u32>, cols: &[(&[Code], CodeSpace)]) {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
    let k = rows.len();
    if k <= SMALL_SORT_ROWS {
        rows.sort_unstable_by(|&a, &b| {
            cols.iter()
                .map(|(col, _)| col[a as usize].cmp(&col[b as usize]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        return;
    }
    let mut buf = vec![0u32; k];
    for &(col, space) in cols.iter().rev() {
        let bits = usize::BITS - space.size().saturating_sub(1).leading_zeros();
        for shift in (0..bits).step_by(RADIX_BITS as usize) {
            let digit = |row: u32| (space.index(col[row as usize]) >> shift) & (RADIX - 1);
            let mut count = [0usize; RADIX];
            for &row in rows.iter() {
                count[digit(row)] += 1;
            }
            if count.contains(&k) {
                continue;
            }
            let mut sum = 0;
            for c in count.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            for &row in rows.iter() {
                let d = digit(row);
                buf[count[d]] = row;
                count[d] += 1;
            }
            std::mem::swap(rows, &mut buf);
        }
    }
}

/// The runs of rows of `sorted` (ordered by [`sort_rows_by_codes`] over the
/// same columns) that agree on every column of `cols`: the classes of the
/// grouping, each ascending by row, in code-tuple order.
pub fn code_runs<'s>(
    sorted: &'s [u32],
    cols: &'s [&'s [Code]],
) -> impl Iterator<Item = &'s [u32]> + 's {
    sorted.chunk_by(|&a, &b| cols.iter().all(|c| c[a as usize] == c[b as usize]))
}

/// The run of `sorted` (ordered by [`sort_rows_by_codes`] over `cols`)
/// whose codes equal the probe `key(i)` on every column `cols[i]`: two
/// binary searches comparing raw codes. A probe code the columns' spaces
/// never issued (e.g. an overlay code) matches no row.
pub fn code_range<'s>(
    sorted: &'s [u32],
    cols: &[&[Code]],
    key: impl Fn(usize) -> Code,
) -> &'s [u32] {
    let cmp = |row: u32| {
        cols.iter()
            .enumerate()
            .map(|(i, col)| col[row as usize].cmp(&key(i)))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let start = sorted.partition_point(|&r| cmp(r).is_lt());
    let len = sorted[start..].partition_point(|&r| cmp(r).is_eq());
    &sorted[start..start + len]
}

/// How many codes a [`CodeKey`] can hold without spilling to the heap.
pub const CODE_KEY_INLINE: usize = 4;

/// A packed multi-attribute equality key: up to [`CODE_KEY_INLINE`] codes in
/// one `u128`, wider keys in a boxed slice.
///
/// Two keys built over the **same attribute list** are equal iff the rows
/// agree (code-wise) on every listed attribute. Keys of different lengths
/// are never equal (the length is part of the key), so maps mixing arities
/// stay sound. Construction records the accounting costs used by the
/// benchmark gate: 4 bytes hashed per code, one key allocation when the key
/// spills.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CodeKey {
    /// Up to four codes, packed little-end first into a `u128`.
    Inline {
        /// Number of packed codes.
        len: u8,
        /// `codes[i]` at bits `32*i..32*i+32`; unused slots are zero.
        packed: u128,
    },
    /// Five or more codes.
    Spill(Box<[Code]>),
}

impl CodeKey {
    /// Builds the key of `row` over pre-fetched code columns.
    #[inline]
    pub fn from_cols(cols: &[&[Code]], row: usize) -> CodeKey {
        Self::from_codes(cols.iter().map(|c| c[row]))
    }

    /// Builds a key from a code iterator; stays allocation-free up to
    /// [`CODE_KEY_INLINE`] codes.
    #[inline]
    pub fn from_codes<I: IntoIterator<Item = Code>>(codes: I) -> CodeKey {
        let mut iter = codes.into_iter();
        let mut buf = [0 as Code; CODE_KEY_INLINE];
        let mut len = 0usize;
        for c in iter.by_ref() {
            if len == CODE_KEY_INLINE {
                // Wider than the inline capacity: spill to the heap.
                let mut spilled: Vec<Code> = buf.to_vec();
                spilled.push(c);
                spilled.extend(iter);
                work::count_key_alloc();
                work::count_key_hash(4 * spilled.len());
                return CodeKey::Spill(spilled.into_boxed_slice());
            }
            buf[len] = c;
            len += 1;
        }
        work::count_key_hash(4 * len);
        let mut packed = 0u128;
        for (i, &c) in buf[..len].iter().enumerate() {
            packed |= (c as u128) << (32 * i);
        }
        CodeKey::Inline {
            len: len as u8,
            packed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut d = AttrDict::new();
        let a = d.intern(&Value::str("a"));
        let b = d.intern(&Value::str("b"));
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(d.intern(&Value::str("a")), a);
        assert_eq!(d.constant_count(), 2);
        assert_eq!(d.decode(a), Value::str("a"));
        assert_eq!(d.lookup(&Value::str("b")), Some(b));
        assert_eq!(d.lookup(&Value::str("zzz")), None);
    }

    #[test]
    fn variables_land_in_the_reserved_range() {
        let mut d = AttrDict::new();
        let c = d.intern(&Value::int(7));
        let v1 = d.intern(&Value::Var(VarId::new(0, 1)));
        let v2 = d.intern(&Value::Var(VarId::new(0, 2)));
        assert!(!AttrDict::is_var_code(c));
        assert!(AttrDict::is_var_code(v1));
        assert_eq!(v1, VAR_CODE_BASE);
        assert_eq!(v2, VAR_CODE_BASE + 1);
        assert_ne!(v1, v2);
        assert_eq!(d.intern(&Value::Var(VarId::new(0, 1))), v1);
        assert_eq!(d.decode(v2), Value::Var(VarId::new(0, 2)));
        assert_eq!(d.len(), 3);
        assert_eq!(d.var_count(), 2);
    }

    #[test]
    fn codes_are_matches_faithful() {
        // Equal codes ⟺ Value::matches, across every kind pairing.
        let mut d = AttrDict::new();
        let vals = [
            Value::Null,
            Value::int(1),
            Value::int(2),
            Value::str("1"),
            Value::Var(VarId::new(0, 0)),
            Value::Var(VarId::new(0, 1)),
        ];
        let codes: Vec<Code> = vals.iter().map(|v| d.intern(v)).collect();
        for (i, a) in vals.iter().enumerate() {
            for (j, b) in vals.iter().enumerate() {
                assert_eq!(
                    codes[i] == codes[j],
                    a.matches(b),
                    "code faithfulness broken for {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn cmp_codes_follows_value_order() {
        let mut d = AttrDict::new();
        // Intern out of value order on purpose.
        let s = d.intern(&Value::str("x"));
        let n = d.intern(&Value::Null);
        let i = d.intern(&Value::int(5));
        let v = d.intern(&Value::Var(VarId::new(0, 0)));
        use std::cmp::Ordering::*;
        assert_eq!(d.cmp_codes(n, i), Less);
        assert_eq!(d.cmp_codes(i, s), Less);
        assert_eq!(d.cmp_codes(s, v), Less);
        assert_eq!(d.cmp_codes(v, s), Greater);
        assert_eq!(d.cmp_codes(i, i), Equal);
    }

    #[test]
    fn export_and_from_parts_round_trip_codes() {
        let mut d = AttrDict::new();
        let s = d.intern(&Value::str("x"));
        let n = d.intern(&Value::Null);
        let v = d.intern(&Value::Var(VarId::new(2, 7)));
        let (consts, vars) = d.export_parts();
        let rebuilt = AttrDict::from_parts(consts, vars).unwrap();
        for code in [s, n, v] {
            assert_eq!(rebuilt.decode(code), d.decode(code));
            assert_eq!(rebuilt.lookup(&d.decode(code)), Some(code));
        }
        assert_eq!(rebuilt.len(), d.len());
        // try_value is total: unknown and overlay codes come back as None.
        assert_eq!(rebuilt.try_value(s), Some(&Value::str("x")));
        assert_eq!(rebuilt.try_value(v), Some(&Value::Var(VarId::new(2, 7))));
        assert_eq!(rebuilt.try_value(99), None);
        assert_eq!(rebuilt.try_value(VAR_CODE_BASE + 9), None);
        assert_eq!(rebuilt.try_value(OVERLAY_CODE_BASE), None);
        // Corrupt parts fail typed.
        assert!(AttrDict::from_parts(vec![Value::int(1), Value::int(1)], vec![]).is_err());
        assert!(AttrDict::from_parts(vec![Value::Var(VarId::new(0, 0))], vec![]).is_err());
        assert!(AttrDict::from_parts(vec![], vec![VarId::new(0, 0), VarId::new(0, 0)]).is_err());
    }

    #[test]
    fn sorted_rows_group_and_search_by_code() {
        // Codes 0..40 plus variables; above 512 rows the radix path runs.
        let mut d = AttrDict::new();
        let consts: Vec<Code> = (0..40).map(|i| d.intern(&Value::int(i))).collect();
        let vars: Vec<Code> = (0..3)
            .map(|i| d.intern(&Value::Var(VarId::new(0, i))))
            .collect();
        for n in [7u32, 1500] {
            let col: Vec<Code> = (0..n)
                .map(|r| match r % 7 {
                    0 => vars[(r % 3) as usize],
                    _ => consts[(r * 13 % 40) as usize],
                })
                .collect();
            let cols = [(&col[..], d.code_space())];
            let mut rows: Vec<u32> = (0..n).collect();
            sort_rows_by_codes(&mut rows, &cols);
            assert!(rows
                .windows(2)
                .all(|w| (col[w[0] as usize], w[0]) < (col[w[1] as usize], w[1])));
            let codes = [&col[..]];
            let runs: Vec<&[u32]> = code_runs(&rows, &codes).collect();
            for run in &runs {
                let code = col[run[0] as usize];
                assert!(run.iter().all(|&r| col[r as usize] == code));
                assert_eq!(code_range(&rows, &codes, |_| code), *run);
            }
            let distinct: std::collections::BTreeSet<Code> = col.iter().copied().collect();
            assert_eq!(runs.len(), distinct.len());
            assert!(code_range(&rows, &codes, |_| OVERLAY_CODE_BASE).is_empty());
        }
    }

    #[test]
    fn code_keys_pack_and_spill() {
        let k1 = CodeKey::from_codes([1u32, 2, 3]);
        let k2 = CodeKey::from_codes([1u32, 2, 3]);
        let k3 = CodeKey::from_codes([1u32, 2, 4]);
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        // Length is part of the key: (1, 0) != (1).
        let short = CodeKey::from_codes([1u32]);
        let padded = CodeKey::from_codes([1u32, 0]);
        assert_ne!(short, padded);
        // Wide keys spill but stay comparable.
        let wide = CodeKey::from_codes([9u32, 8, 7, 6, 5]);
        let wide2 = CodeKey::from_codes([9u32, 8, 7, 6, 5]);
        assert_eq!(wide, wide2);
        assert!(matches!(wide, CodeKey::Spill(_)));
        // Column-based construction matches iterator-based construction.
        let cols: Vec<&[Code]> = vec![&[1, 9], &[2, 9], &[3, 9]];
        assert_eq!(CodeKey::from_cols(&cols, 0), k1);
    }
}
