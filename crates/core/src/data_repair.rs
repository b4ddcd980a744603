//! Near-optimal data repair for a fixed FD set (Algorithms 4 and 5).
//!
//! Given the (possibly relaxed) FD set `Σ'` chosen by the search, the data
//! must now actually be modified so that `I' |= Σ'`. The paper repairs the
//! data *tuple by tuple*:
//!
//! 1. compute a 2-approximate minimum vertex cover `C2opt` of the conflict
//!    graph of `(I, Σ')` — the tuples outside the cover already satisfy `Σ'`
//!    pairwise and are never touched;
//! 2. for each covered tuple, walk its attributes in random order, keeping a
//!    candidate assignment (`find_assignment`, Algorithm 5) that agrees
//!    with the already-fixed attributes and is consistent with every clean
//!    tuple; whenever fixing the next attribute would make consistency
//!    impossible, overwrite that attribute with the candidate's value
//!    (a constant copied from a clean tuple or a fresh V-instance variable);
//! 3. once processed, the tuple joins the clean set.
//!
//! Theorem 3: the result satisfies `Σ'`, changes at most
//! `|C2opt| · min(|R|-1, |Σ'|)` cells, and is within a factor
//! `2·min(|R|-1, |Σ'|)` of the minimum possible number of cell changes.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rt_constraints::{ConflictGraph, FdSet};
use rt_graph::CompactGraph;
use rt_par::{par_map_coarse, Parallelism};
use rt_relation::{
    code_range, row_u32, sort_rows_by_codes, AttrId, CellRef, Code, CodeKey, CodeSpace, Instance,
    Value, OVERLAY_CODE_BASE,
};
use std::collections::{BTreeSet, HashMap};

/// Outcome of a data repair.
#[derive(Debug, Clone)]
pub struct DataRepairOutcome {
    /// The repaired V-instance `I' |= Σ'`.
    pub repaired: Instance,
    /// Cells whose value differs between `I` and `I'`.
    pub changed_cells: Vec<CellRef>,
    /// Size of the 2-approximate vertex cover that was repaired.
    pub cover_size: usize,
    /// `true` when component-parallel repair units collided (see
    /// [`repair_data_with_cover_par`]) and this outcome is the sequential
    /// algorithm's instead.
    pub sequential_fallback: bool,
}

impl DataRepairOutcome {
    /// `dist_d(I, I')`: number of changed cells.
    pub fn distance(&self) -> usize {
        self.changed_cells.len()
    }
}

/// Algorithm 4's index of the initially-clean tuples (every row outside the
/// cover): per FD, the clean rows sorted by their LHS codes
/// ([`sort_rows_by_codes`]), so rows sharing an LHS projection form one run.
///
/// Because the clean set satisfies `Σ'`, each LHS projection determines one
/// RHS value, so [`find_assignment`] can detect violations with `O(|Σ'|)`
/// binary searches ([`code_range`]) instead of scanning all clean tuples
/// (this matches the complexity analysis in Section 6 of the paper). Probes
/// compare raw codes under the unit's encoding (instance dictionaries plus
/// the [`ScratchCodes`] overlay for scratch variables); an overlay code
/// sorts above every issued code and matches no clean row.
struct CleanRows<'a> {
    per_fd: Vec<FdCleanRows<'a>>,
}

/// One FD's slice of [`CleanRows`].
struct FdCleanRows<'a> {
    /// The LHS attributes, in the order the rows are sorted by.
    lhs: Vec<AttrId>,
    /// The indexed instance's code columns of `lhs`.
    cols: Vec<&'a [Code]>,
    /// The clean rows, sorted by their codes on `lhs`.
    rows: Vec<u32>,
}

impl<'a> CleanRows<'a> {
    /// Sorts the rows outside `cover_rows` once per FD: no value cloned,
    /// nothing hashed.
    fn build(instance: &'a Instance, fds: &FdSet, cover_rows: &[usize]) -> Self {
        let mut in_cover = vec![false; instance.len()];
        for &row in cover_rows {
            in_cover[row] = true;
        }
        let clean: Vec<u32> = (0..row_u32(instance.len()))
            .filter(|&r| !in_cover[r as usize])
            .collect();
        let mut per_fd: Vec<FdCleanRows<'a>> = Vec::with_capacity(fds.len());
        for (_, fd) in fds.iter() {
            let lhs = fd.lhs.to_vec();
            let key: Vec<(&[Code], CodeSpace)> =
                lhs.iter().map(|&a| instance.code_column(a)).collect();
            // FDs sharing an LHS share its order: sort once.
            let rows = match per_fd.iter().find(|f| f.lhs == lhs) {
                Some(same) => same.rows.clone(),
                None => {
                    let mut rows = clean.clone();
                    sort_rows_by_codes(&mut rows, &key);
                    rows
                }
            };
            per_fd.push(FdCleanRows {
                lhs,
                cols: key.into_iter().map(|(col, _)| col).collect(),
                rows,
            });
        }
        CleanRows { per_fd }
    }

    /// A clean row whose LHS codes of FD `fd_idx` equal the probe (`key(i)`
    /// for the `i`-th LHS attribute), if any: the largest such row.
    fn row_for(&self, fd_idx: usize, key: impl Fn(usize) -> Code) -> Option<usize> {
        let fd = &self.per_fd[fd_idx];
        code_range(&fd.rows, &fd.cols, key)
            .last()
            .map(|&row| row as usize)
    }
}

/// A unit's own repaired tuples, per FD: packed LHS code key → RHS code.
/// The tuples are not in the instance, and the map grows one insert per
/// repaired tuple, so it stays a hash map.
struct CleanIndex {
    per_fd: Vec<HashMap<CodeKey, Code>>,
}

/// The LHS key of FD `fd_idx` over a tuple's codes.
fn lhs_key(fds: &FdSet, fd_idx: usize, codes: &[Code]) -> CodeKey {
    CodeKey::from_codes(fds.get(fd_idx).lhs.iter().map(|a| codes[a.index()]))
}

/// The unit's view of the clean set: its own repaired tuples first, then
/// the frozen, shared index of the initially-clean tuples.
///
/// This is what lets repair units (connected components of the conflict
/// graph) run on worker threads: the base is read-only and shared, the
/// overlay is private to the unit.
struct ScopedIndex<'a> {
    instance: &'a Instance,
    base: &'a CleanRows<'a>,
    local: CleanIndex,
}

impl<'a> ScopedIndex<'a> {
    fn new(instance: &'a Instance, base: &'a CleanRows<'a>, fds: &FdSet) -> Self {
        ScopedIndex {
            instance,
            base,
            local: CleanIndex {
                per_fd: (0..fds.len()).map(|_| HashMap::new()).collect(),
            },
        }
    }

    /// Indexes a repaired tuple given its encoded cells.
    fn insert_coded(&mut self, fds: &FdSet, codes: &[Code]) {
        for (idx, fd) in fds.iter() {
            self.local.per_fd[idx].insert(lhs_key(fds, idx, codes), codes[fd.rhs.index()]);
        }
    }

    /// The RHS code the clean tuples force for the given candidate codes and
    /// FD, if any clean tuple shares the candidate's LHS projection.
    fn forced_rhs(&self, fds: &FdSet, fd_idx: usize, cand_codes: &[Code]) -> Option<Code> {
        // A fresh scratch variable in the LHS carries an overlay code no
        // clean tuple can share, so it never matches a stored key — exactly
        // the V-instance semantics.
        let key = lhs_key(fds, fd_idx, cand_codes);
        if let Some(&code) = self.local.per_fd[fd_idx].get(&key) {
            return Some(code);
        }
        let lhs = &self.base.per_fd[fd_idx].lhs;
        self.base
            .row_for(fd_idx, |i| cand_codes[lhs[i].index()])
            .map(|row| self.instance.code_at(row, fds.get(fd_idx).rhs))
    }
}

/// Hands out private codes from the reserved overlay range
/// ([`OVERLAY_CODE_BASE`]) for the unit's scratch variables: fresh
/// V-instance variables that exist only inside the unit until
/// [`apply_units`] replaces each with a real fresh variable of the output.
///
/// No hashing or interning is needed: an overlay code is never issued by
/// the instance dictionaries, and each scratch variable is encoded exactly
/// once (at creation; afterwards its code travels with it through the
/// candidate/working code slots). A bare per-attribute counter therefore
/// extends the instance encoding injectively, so **code equality keeps
/// coinciding with [`Value::matches`]** inside the unit; and because each
/// unit owns its allocator, units stay independent and the
/// component-parallel repair remains deterministic.
struct ScratchCodes {
    /// Per-attribute next overlay code.
    next: Vec<Code>,
}

impl ScratchCodes {
    fn new(arity: usize) -> Self {
        ScratchCodes {
            next: vec![OVERLAY_CODE_BASE; arity],
        }
    }

    /// The code of the next fresh scratch variable of `attr`.
    fn fresh_code(&mut self, attr: AttrId) -> Code {
        let slot = &mut self.next[attr.index()];
        let code = *slot;
        *slot = code.checked_add(1).expect("overlay code range exhausted");
        code
    }
}

/// Algorithm 5 (`Find_Assignment`): tries to complete the tuple encoded by
/// `tuple_codes` into an assignment that keeps the attributes in `fixed`
/// unchanged and does not violate any FD against the clean tuples indexed
/// in `index`.
///
/// Returns `None` when no such assignment exists (some fixed attribute is
/// forced to a conflicting value), otherwise the completed tuple's codes, in
/// which attributes outside `fixed` hold either codes copied from clean
/// tuples or fresh scratch variables.
fn find_assignment(
    tuple_codes: &[Code],
    fixed: &BTreeSet<AttrId>,
    fds: &FdSet,
    index: &ScopedIndex<'_>,
    scratch: &mut ScratchCodes,
) -> Option<Vec<Code>> {
    let mut fixed = fixed.clone();
    let mut cand_codes: Vec<Code> = tuple_codes
        .iter()
        .enumerate()
        .map(|(i, &code)| {
            let attr = AttrId(i as u16);
            if fixed.contains(&attr) {
                code
            } else {
                scratch.fresh_code(attr)
            }
        })
        .collect();
    // Iterate to a fixpoint; each round either returns, or fixes one more
    // attribute, so at most |Σ'| + 1 rounds run. Consistency against the
    // clean tuples is checked on codes only (code equality ≡ value
    // `matches` under the unit's encoding).
    loop {
        let mut changed = false;
        for (fd_idx, fd) in fds.iter() {
            if let Some(forced) = index.forced_rhs(fds, fd_idx, &cand_codes) {
                if cand_codes[fd.rhs.index()] != forced {
                    if fixed.contains(&fd.rhs) {
                        return None;
                    }
                    cand_codes[fd.rhs.index()] = forced;
                    fixed.insert(fd.rhs);
                    changed = true;
                }
            }
        }
        if !changed {
            return Some(cand_codes);
        }
    }
}

/// Algorithm 4 (`Repair_Data`): repairs `instance` so it satisfies `fds`,
/// changing at most `|C2opt| · min(|R|-1, |Σ'|)` cells.
///
/// `seed` drives the random attribute/tuple orderings; fixing it makes runs
/// reproducible.
pub fn repair_data(instance: &Instance, fds: &FdSet, seed: u64) -> DataRepairOutcome {
    let graph = ConflictGraph::build(instance, fds).subgraph_for(fds);
    let cover_rows: Vec<usize> = graph
        .vertex_cover_with(Parallelism::Serial)
        .iter()
        .collect();
    repair_data_with_cover(instance, fds, &cover_rows, seed)
}

/// [`repair_data`] with an explicit [`Parallelism`] setting: conflict-graph
/// construction, vertex cover and the per-component repair all fan out over
/// worker threads. Bit-identical to itself under every setting.
pub fn repair_data_par(
    instance: &Instance,
    fds: &FdSet,
    seed: u64,
    par: Parallelism,
) -> DataRepairOutcome {
    let graph = ConflictGraph::build_with(instance, fds, par).subgraph_for_with(fds, par);
    let cover_rows: Vec<usize> = graph.vertex_cover_with(par).iter().collect();
    repair_data_with_cover_and_graph(instance, fds, &cover_rows, seed, par, &graph)
}

/// Same as [`repair_data`] but reuses a previously computed vertex cover of
/// the conflict graph of `(instance, fds)` (for example the one produced by
/// the FD-modification search).
///
/// This is the paper's sequential Algorithm 4: one pass over the cover in
/// random order, each repaired tuple immediately joining the clean set.
pub fn repair_data_with_cover(
    instance: &Instance,
    fds: &FdSet,
    cover_rows: &[usize],
    seed: u64,
) -> DataRepairOutcome {
    // The whole cover forms a single repair unit with the caller's seed —
    // exactly the sequential algorithm.
    let base = CleanRows::build(instance, fds, cover_rows);
    let unit = repair_unit(instance, fds, cover_rows, &base, seed);
    apply_units(instance, vec![unit], cover_rows.len())
}

/// Component-parallel variant of [`repair_data_with_cover`] (the tentpole of
/// the parallel execution layer).
///
/// The cover rows are grouped by connected component of the conflict graph
/// of `(instance, fds)`; components are independent repair units that run on
/// worker threads against the shared frozen index of the initially-clean
/// tuples, then merge deterministically (components ordered by smallest row,
/// scratch variables renumbered in merge order).
///
/// **Determinism.** The unit decomposition, per-unit seeds, merge order and
/// variable renumbering depend only on the inputs — never on thread
/// scheduling — so every `Parallelism` setting produces bit-identical
/// output (`Serial` simply runs the same units on the calling thread).
///
/// **Soundness.** Units cannot see each other's repaired tuples, and with
/// several overlapping FDs two tuples from different components could in
/// principle be steered into a *new* joint violation (each copying the same
/// clean value into a shared LHS). The sequential algorithm excludes this by
/// construction, so after merging we verify `Σ'` actually holds
/// ([`cover_rows_consistent`]); in the rare failure case the sequential
/// path is rerun as the authoritative answer and the outcome says so
/// ([`DataRepairOutcome::sequential_fallback`]). The check is itself
/// deterministic, so the guarantee above still holds.
pub fn repair_data_with_cover_par(
    instance: &Instance,
    fds: &FdSet,
    cover_rows: &[usize],
    seed: u64,
    par: Parallelism,
) -> DataRepairOutcome {
    let graph = ConflictGraph::build_with(instance, fds, par).subgraph_for_with(fds, par);
    repair_data_with_cover_and_graph(instance, fds, cover_rows, seed, par, &graph)
}

/// Below this many cover rows the component fan-out runs inline: repairing a
/// tuple is cheap, so thread spawns would dominate.
const MIN_COVER_ROWS_FOR_PARALLEL: usize = 64;

/// [`repair_data_with_cover_par`] for callers that already hold the
/// (violating) conflict graph of `(instance, fds)` — e.g. the FD search,
/// whose `RepairProblem` answers any relaxation's subgraph from the stored
/// difference sets without touching the data again.
///
/// `cover_rows` must cover `graph` (debug-asserted): the cross-unit check
/// relies on it, since it tests only the pairs that contain a cover row.
pub fn repair_data_with_cover_and_graph(
    instance: &Instance,
    fds: &FdSet,
    cover_rows: &[usize],
    seed: u64,
    par: Parallelism,
    graph: &CompactGraph,
) -> DataRepairOutcome {
    // Group cover rows by connected component of the conflict graph.
    let cover_set: BTreeSet<usize> = cover_rows.iter().copied().collect();
    debug_assert!(
        graph
            .edges()
            .all(|(u, v)| cover_set.contains(&u) || cover_set.contains(&v)),
        "cover rows must cover the violating graph"
    );
    let mut units: Vec<Vec<usize>> = graph
        .connected_components()
        .into_iter()
        .map(|c| {
            c.into_iter()
                .filter(|r| cover_set.contains(r))
                .collect::<Vec<usize>>()
        })
        .filter(|u| !u.is_empty())
        .collect();
    // Defensive: cover rows outside the conflict graph (possible when the
    // caller passes a stale cover) form one trailing unit.
    let rest: Vec<usize> = cover_rows
        .iter()
        .copied()
        .filter(|r| graph.rows().binary_search(r).is_err())
        .collect();
    if !rest.is_empty() {
        units.push(rest);
    }

    let base = CleanRows::build(instance, fds, cover_rows);
    // Units are coarse, few and size-skewed, so bypass `par_map_indexed`'s
    // per-item cutoff; the work-size gate (cover rows, an input property)
    // keeps tiny repairs inline.
    let unit_par = if cover_rows.len() < MIN_COVER_ROWS_FOR_PARALLEL {
        Parallelism::Serial
    } else {
        par
    };
    let unit_results: Vec<Vec<(usize, Vec<Code>)>> = par_map_coarse(unit_par, units.len(), |u| {
        // Distinct, deterministic per-unit seed streams (the shim's
        // `seed_from_u64` scrambles, so XORing the index is safe).
        let unit_seed = seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        repair_unit(instance, fds, &units[u], &base, unit_seed)
    });
    let unit_count = unit_results.len();
    let merged = apply_units(instance, unit_results, cover_rows.len());

    // Units repaired in isolation: verify no *cross-unit* violation crept
    // in, falling back to the sequential algorithm when one did. A single
    // unit IS the sequential algorithm.
    if unit_count <= 1 || consistent_with_index(&merged.repaired, fds, cover_rows, &base) {
        merged
    } else {
        DataRepairOutcome {
            sequential_fallback: true,
            ..repair_data_with_cover(instance, fds, cover_rows, seed)
        }
    }
}

/// Algorithm 4's cross-unit check: does `repaired` satisfy `fds`, given
/// that the rows outside `cover_rows` already do pairwise?
///
/// Only pairs containing a cover row can violate then, so the check costs
/// `O(|cover| · |Σ'|)` lookups after sorting the clean rows by LHS codes:
/// each FD's cover rows are matched against each other through an LHS-key
/// map, and against the clean rows by binary search (clean rows sharing an
/// LHS key agree on the RHS, so one representative stands for all). It
/// agrees with `ConflictGraph::build(repaired, fds).is_empty()` whenever
/// the precondition holds, e.g. when `cover_rows` covers the violating
/// graph of the instance `repaired` was repaired from and only cover rows
/// changed.
pub fn cover_rows_consistent(repaired: &Instance, fds: &FdSet, cover_rows: &[usize]) -> bool {
    let base = CleanRows::build(repaired, fds, cover_rows);
    consistent_with_index(repaired, fds, cover_rows, &base)
}

/// [`cover_rows_consistent`] against an already built index of the clean
/// rows (keyed on the unrepaired instance, whose clean rows `repaired`
/// shares code for code).
fn consistent_with_index(
    repaired: &Instance,
    fds: &FdSet,
    cover_rows: &[usize],
    base: &CleanRows<'_>,
) -> bool {
    fds.iter().all(|(idx, fd)| {
        let lhs: Vec<&[Code]> = fd.lhs.iter().map(|a| repaired.codes(a)).collect();
        let rhs = repaired.codes(fd.rhs);
        let mut repaired_rhs: HashMap<CodeKey, Code> = HashMap::with_capacity(cover_rows.len());
        cover_rows.iter().all(|&row| {
            let agrees_with_clean = base
                .row_for(idx, |i| lhs[i][row])
                .is_none_or(|clean| rhs[clean] == rhs[row]);
            agrees_with_clean
                && *repaired_rhs
                    .entry(CodeKey::from_cols(&lhs, row))
                    .or_insert(rhs[row])
                    == rhs[row]
        })
    })
}

/// Repairs one unit (a set of cover rows) against the frozen clean index,
/// returning the repaired tuples' codes in processing order. Fresh
/// variables are scratch overlay codes; [`apply_units`] replaces them.
fn repair_unit(
    instance: &Instance,
    fds: &FdSet,
    rows: &[usize],
    base_index: &CleanRows<'_>,
    seed: u64,
) -> Vec<(usize, Vec<Code>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all_attrs: Vec<AttrId> = instance.schema().attr_ids().collect();
    let mut index = ScopedIndex::new(instance, base_index, fds);
    let mut scratch = ScratchCodes::new(instance.schema().arity());

    // Process covered tuples in random order.
    let mut order: Vec<usize> = rows.to_vec();
    order.shuffle(&mut rng);

    let mut out = Vec::with_capacity(order.len());
    for &row in &order {
        // The working tuple starts as the instance row's codes.
        let mut working: Vec<Code> = all_attrs
            .iter()
            .map(|&a| instance.code_at(row, a))
            .collect();

        // Random attribute order; the first attribute is only "anchored"
        // (it can never be changed — Theorem 3's |R|-1 bound).
        let mut attr_order = all_attrs.clone();
        attr_order.shuffle(&mut rng);
        let mut fixed: BTreeSet<AttrId> = BTreeSet::new();
        fixed.insert(attr_order[0]);

        let mut last_valid = find_assignment(&working, &fixed, fds, &index, &mut scratch)
            .expect("an assignment always exists when a single attribute is fixed");

        for &attr in &attr_order[1..] {
            fixed.insert(attr);
            match find_assignment(&working, &fixed, fds, &index, &mut scratch) {
                Some(assignment) => last_valid = assignment,
                None => {
                    // Keeping `attr` as-is is impossible: overwrite it with
                    // the value the previous valid assignment gave it.
                    working[attr.index()] = last_valid[attr.index()];
                    // `working[attr]` now equals `last_valid[attr]`, so
                    // `last_valid` remains a valid assignment for the grown
                    // fixed set.
                }
            }
        }

        // All attributes fixed: `working` equals the last valid assignment
        // and is consistent with every clean tuple. It joins the unit's
        // clean set.
        index.insert_coded(fds, &working);
        out.push((row, working));
    }
    out
}

/// Writes the units' repaired tuples into a clone of `instance`, replacing
/// scratch variables by real fresh variables in deterministic (unit, tuple,
/// attribute) order, and computes the changed-cell diff over the repaired
/// rows only, since no other row is written. The clone shares `instance`'s
/// columns and [`Instance::set_cell`] stores only cells whose code changes,
/// so the repair copies just the columns holding a changed cell.
fn apply_units(
    instance: &Instance,
    units: Vec<Vec<(usize, Vec<Code>)>>,
    cover_size: usize,
) -> DataRepairOutcome {
    let mut repaired = instance.clone();
    let all_attrs: Vec<AttrId> = instance.schema().attr_ids().collect();
    let mut rows: Vec<usize> = Vec::with_capacity(cover_size);
    for unit in units {
        // Scratch variables are scoped per unit: the same overlay code in
        // two units names two different variables.
        let mut remap: HashMap<(AttrId, Code), Value> = HashMap::new();
        for (row, codes) in unit {
            rows.push(row);
            for &attr in &all_attrs {
                let code = codes[attr.index()];
                let v = if code >= OVERLAY_CODE_BASE {
                    remap
                        .entry((attr, code))
                        .or_insert_with(|| repaired.fresh_var(attr))
                        .clone()
                } else {
                    instance.dict(attr).value(code).clone()
                };
                repaired
                    .set_cell(CellRef::new(row, attr), v)
                    .expect("row exists");
            }
        }
    }
    // Row-major, attribute-minor: the order `Instance::diff` reports in.
    // `repaired`'s dictionaries extend `instance`'s, so equal codes mean
    // equal values.
    rows.sort_unstable();
    rows.dedup();
    let changed_cells = rows
        .into_iter()
        .flat_map(|row| all_attrs.iter().map(move |&attr| CellRef::new(row, attr)))
        .filter(|&cell| {
            instance.code_at(cell.row, cell.attr) != repaired.code_at(cell.row, cell.attr)
        })
        .collect();
    DataRepairOutcome {
        repaired,
        changed_cells,
        cover_size,
        sequential_fallback: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::Schema;

    fn figure2() -> (Instance, FdSet) {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let inst = Instance::from_int_rows(
            schema.clone(),
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        (inst, fds)
    }

    #[test]
    fn repaired_instance_satisfies_fds() {
        let (inst, fds) = figure2();
        for seed in 0..10 {
            let out = repair_data(&inst, &fds, seed);
            assert!(
                fds.holds_on(&out.repaired),
                "seed {seed}: repaired instance still violates {fds}"
            );
            assert_eq!(out.repaired.len(), inst.len());
        }
    }

    #[test]
    fn change_bound_of_theorem3_holds() {
        let (inst, fds) = figure2();
        let alpha = (inst.schema().arity() - 1).min(fds.len());
        for seed in 0..10 {
            let out = repair_data(&inst, &fds, seed);
            assert!(
                out.distance() <= out.cover_size * alpha,
                "seed {seed}: changed {} cells, bound is {}",
                out.distance(),
                out.cover_size * alpha
            );
            // Only covered rows are ever modified.
            let changed_rows: BTreeSet<usize> = out.changed_cells.iter().map(|c| c.row).collect();
            assert!(changed_rows.len() <= out.cover_size);
        }
    }

    #[test]
    fn figure6_single_fd_repair_example() {
        // Figure 6 repairs Σ' = {CA→B, C→D} with cover {t2}; only tuple t2
        // (row 1) may change, by at most min(|R|-1, |Σ'|) = 2 cells.
        let (inst, _fds) = figure2();
        let schema = inst.schema().clone();
        let relaxed = FdSet::parse(&["C,A->B", "C->D"], &schema).unwrap();
        // The conflict graph of the relaxed FDs has edges (t1,t2), (t2,t3);
        // {t2} (row 1) is a valid optimal cover. Use it explicitly.
        let out = repair_data_with_cover(&inst, &relaxed, &[1], 7);
        assert!(relaxed.holds_on(&out.repaired));
        let changed_rows: BTreeSet<usize> = out.changed_cells.iter().map(|c| c.row).collect();
        assert!(changed_rows.is_subset(&BTreeSet::from([1usize])));
        assert!(out.distance() <= 2 * relaxed.len().min(schema.arity() - 1));
        // Rows outside the cover are untouched.
        for row in [0usize, 2, 3] {
            assert_eq!(inst.tuple(row).unwrap(), out.repaired.tuple(row).unwrap());
        }
    }

    #[test]
    fn clean_instance_is_returned_unchanged() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let inst =
            Instance::from_int_rows(schema.clone(), &[vec![1, 5], vec![2, 5], vec![3, 9]]).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        let out = repair_data(&inst, &fds, 3);
        assert_eq!(out.distance(), 0);
        assert_eq!(out.cover_size, 0);
        assert_eq!(out.repaired, inst);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let (inst, fds) = figure2();
        let a = repair_data(&inst, &fds, 42);
        let b = repair_data(&inst, &fds, 42);
        assert_eq!(a.repaired, b.repaired);
        assert_eq!(a.changed_cells, b.changed_cells);
    }

    #[test]
    fn repair_with_larger_synthetic_conflicts() {
        // 30 tuples, A -> B planted, then corrupted in several places.
        let schema = Schema::new("R", vec!["A", "B", "C"]).unwrap();
        let mut rows: Vec<Vec<i64>> = (0..30).map(|i| vec![i % 6, (i % 6) * 10, i]).collect();
        rows[3][1] = 999;
        rows[11][1] = 888;
        rows[20][0] = 5; // creates an A-group clash: B differs from group 5's value
        let inst = Instance::from_int_rows(schema.clone(), &rows).unwrap();
        let fds = FdSet::parse(&["A->B"], &schema).unwrap();
        assert!(!fds.holds_on(&inst));
        let out = repair_data(&inst, &fds, 1);
        assert!(fds.holds_on(&out.repaired));
        let alpha = (schema.arity() - 1).min(fds.len());
        assert!(out.distance() <= out.cover_size * alpha);
    }

    #[test]
    fn multiple_fds_with_overlapping_attributes() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D", "E"]).unwrap();
        let rows: Vec<Vec<i64>> = vec![
            vec![1, 1, 1, 1, 1],
            vec![1, 2, 1, 1, 2],
            vec![2, 2, 2, 3, 3],
            vec![2, 2, 2, 4, 3],
            vec![3, 3, 3, 5, 4],
        ];
        let inst = Instance::from_int_rows(schema.clone(), &rows).unwrap();
        let fds = FdSet::parse(&["A->B", "C->D", "A,B->E"], &schema).unwrap();
        assert!(!fds.holds_on(&inst));
        for seed in 0..5 {
            let out = repair_data(&inst, &fds, seed);
            assert!(fds.holds_on(&out.repaired), "seed {seed}");
            let alpha = (schema.arity() - 1).min(fds.len());
            assert!(out.distance() <= out.cover_size * alpha, "seed {seed}");
        }
    }
}
