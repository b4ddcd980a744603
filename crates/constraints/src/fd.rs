//! Functional dependencies and FD sets.
//!
//! Every FD is of the form `X → A` with a single right-hand-side attribute
//! (the paper assumes Σ is in this canonical/minimal form). The only
//! modification the repair algorithms apply is *relaxation by LHS extension*:
//! `X → A` becomes `X ∪ Y → A` for some `Y ⊆ R \ (X ∪ {A})`. [`FdSet::extend_lhs`]
//! implements that mapping and keeps the correspondence between original and
//! modified FDs, which is what `Δ_c(Σ, Σ')` (the vector of per-FD extensions)
//! is defined over.

use crate::attrset::AttrSet;
use rt_relation::{AttrId, Code, Instance, Schema, Tuple};
use std::fmt;

/// A functional dependency `X → A`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd {
    /// Left-hand side attribute set `X`.
    pub lhs: AttrSet,
    /// Right-hand side attribute `A`.
    pub rhs: AttrId,
}

impl Fd {
    /// Creates an FD. Panics (debug assertion) if `A ∈ X`, which would make
    /// the FD trivial.
    pub fn new(lhs: AttrSet, rhs: AttrId) -> Self {
        debug_assert!(
            !lhs.contains(rhs),
            "trivial FD: rhs {rhs} appears in lhs {lhs}"
        );
        Fd { lhs, rhs }
    }

    /// Convenience constructor from raw attribute indices.
    pub fn from_indices(lhs: &[u16], rhs: u16) -> Self {
        Fd::new(
            AttrSet::from_attrs(lhs.iter().map(|&i| AttrId(i))),
            AttrId(rhs),
        )
    }

    /// Parses an FD of the form `"X1,X2->A"` against a schema, using
    /// attribute names.
    pub fn parse(spec: &str, schema: &Schema) -> Result<Self, String> {
        let (lhs_str, rhs_str) = spec
            .split_once("->")
            .ok_or_else(|| format!("FD `{spec}` is missing `->`"))?;
        let mut lhs = AttrSet::new();
        for name in lhs_str.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let id = schema.attr_id(name).map_err(|e| e.to_string())?;
            lhs.insert(id);
        }
        let rhs = schema.attr_id(rhs_str.trim()).map_err(|e| e.to_string())?;
        if lhs.contains(rhs) {
            return Err(format!("FD `{spec}` is trivial: RHS appears in LHS"));
        }
        Ok(Fd::new(lhs, rhs))
    }

    /// All attributes mentioned by the FD (`X ∪ {A}`).
    pub fn attributes(&self) -> AttrSet {
        self.lhs.with(self.rhs)
    }

    /// Returns the relaxed FD `X ∪ Y → A`.
    ///
    /// Attributes of `Y` that already occur in `X` are ignored; the RHS is
    /// never added to the LHS (that would make the FD trivial), mirroring the
    /// paper's restriction on allowed modifications.
    pub fn extend_lhs(&self, extension: AttrSet) -> Fd {
        Fd {
            lhs: self.lhs.union(extension.without(self.rhs)),
            rhs: self.rhs,
        }
    }

    /// Attributes that may legally be appended to this FD's LHS given a
    /// schema of `arity` attributes: `R \ (X ∪ {A})`.
    pub fn extension_candidates(&self, arity: usize) -> AttrSet {
        AttrSet::all(arity).difference(self.attributes())
    }

    /// Do two tuples violate this FD? (agree on `X`, differ on `A`, under
    /// V-instance semantics)
    pub fn violated_by(&self, t1: &Tuple, t2: &Tuple) -> bool {
        t1.agree_on(t2, self.lhs) && !t1.get(self.rhs).matches(t2.get(self.rhs))
    }

    /// `true` when the whole instance satisfies the FD (`I |= X → A`).
    ///
    /// Quadratic fallback used by tests and small examples; production code
    /// paths use the partition-based checker in [`crate::violations`].
    pub fn holds_on(&self, instance: &Instance) -> bool {
        // Pairwise on the code columns: equal codes ⟺ matching cells.
        let lhs: Vec<&[Code]> = self.lhs.iter().map(|a| instance.codes(a)).collect();
        let rhs = instance.codes(self.rhs);
        let n = instance.len();
        (0..n)
            .all(|i| (i + 1..n).all(|j| rhs[i] == rhs[j] || lhs.iter().any(|col| col[i] != col[j])))
    }

    /// Renders the FD with schema attribute names, e.g. `Surname,GivenName -> Income`.
    pub fn display_with(&self, schema: &Schema) -> String {
        let lhs: Vec<&str> = self
            .lhs
            .iter()
            .map(|a| schema.attr_name(a).unwrap_or("?"))
            .collect();
        format!(
            "{} -> {}",
            lhs.join(","),
            schema.attr_name(self.rhs).unwrap_or("?")
        )
    }
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.lhs.iter().map(|a| a.to_string()).collect();
        write!(f, "{} -> {}", lhs.join(","), self.rhs)
    }
}

/// An ordered set of FDs `Σ = {X_1 → A_1, ..., X_z → A_z}`.
///
/// Order matters: the repair state space is a vector of per-FD LHS
/// extensions, indexed by position in this set. Duplicate FDs are allowed
/// (the paper normalizes `|Σ'| = |Σ|` by keeping duplicates when two FDs
/// collapse to the same relaxation).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Creates an empty FD set.
    pub fn new() -> Self {
        FdSet { fds: Vec::new() }
    }

    /// Creates an FD set from a vector of FDs.
    pub fn from_fds(fds: Vec<Fd>) -> Self {
        FdSet { fds }
    }

    /// Parses a list of `"X,Y->A"` specs against a schema.
    pub fn parse(specs: &[&str], schema: &Schema) -> Result<Self, String> {
        let fds = specs
            .iter()
            .map(|s| Fd::parse(s, schema))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FdSet { fds })
    }

    /// Adds an FD at the end.
    pub fn push(&mut self, fd: Fd) {
        self.fds.push(fd);
    }

    /// Removes and returns the FD at `idx`; later FDs shift down by one
    /// position (the positional indices incremental consumers renumber by).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn remove(&mut self, idx: usize) -> Fd {
        self.fds.remove(idx)
    }

    /// Number of FDs `|Σ|`.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// `true` when the set has no FDs.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Borrow an FD by index.
    pub fn get(&self, idx: usize) -> &Fd {
        &self.fds[idx]
    }

    /// Iterates over `(index, &Fd)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Fd)> {
        self.fds.iter().enumerate()
    }

    /// The FDs as a slice.
    pub fn as_slice(&self) -> &[Fd] {
        &self.fds
    }

    /// All attributes mentioned by any FD.
    pub fn attributes(&self) -> AttrSet {
        self.fds
            .iter()
            .fold(AttrSet::EMPTY, |acc, fd| acc.union(fd.attributes()))
    }

    /// Applies a vector of LHS extensions `Δ_c = (Y_1, ..., Y_z)`, producing
    /// the relaxed set `Σ' = {X_1 Y_1 → A_1, ..., X_z Y_z → A_z}`.
    ///
    /// # Panics
    ///
    /// Panics if the extension vector's length differs from `|Σ|`.
    pub fn extend_lhs(&self, extensions: &[AttrSet]) -> FdSet {
        assert_eq!(
            extensions.len(),
            self.fds.len(),
            "extension vector must have one entry per FD"
        );
        FdSet {
            fds: self
                .fds
                .iter()
                .zip(extensions.iter())
                .map(|(fd, ext)| fd.extend_lhs(*ext))
                .collect(),
        }
    }

    /// Computes the vector `Δ_c(Σ, Σ')` of per-FD LHS extensions between this
    /// set and a relaxation of it produced by [`FdSet::extend_lhs`].
    ///
    /// Returns `None` if `other` is not a positional relaxation of `self`
    /// (different length, different RHS, or missing original LHS attributes).
    pub fn extension_delta(&self, other: &FdSet) -> Option<Vec<AttrSet>> {
        if self.len() != other.len() {
            return None;
        }
        let mut deltas = Vec::with_capacity(self.len());
        for (a, b) in self.fds.iter().zip(other.fds.iter()) {
            if a.rhs != b.rhs || !a.lhs.is_subset_of(b.lhs) {
                return None;
            }
            deltas.push(b.lhs.difference(a.lhs));
        }
        Some(deltas)
    }

    /// `true` when the instance satisfies every FD (quadratic; see
    /// [`crate::violations`] for the partition-based checker).
    pub fn holds_on(&self, instance: &Instance) -> bool {
        self.fds.iter().all(|fd| fd.holds_on(instance))
    }

    /// The FDs violated by a specific pair of tuples.
    pub fn violated_by(&self, t1: &Tuple, t2: &Tuple) -> Vec<usize> {
        self.fds
            .iter()
            .enumerate()
            .filter(|(_, fd)| fd.violated_by(t1, t2))
            .map(|(i, _)| i)
            .collect()
    }

    /// Closure of an attribute set under this FD set (textbook fixpoint).
    ///
    /// Used to reason about implication, e.g. to price "appending a key
    /// attribute" differently, and by tests validating minimality of mined
    /// FD covers.
    pub fn closure(&self, attrs: AttrSet) -> AttrSet {
        let mut closure = attrs;
        loop {
            let mut changed = false;
            for fd in &self.fds {
                if fd.lhs.is_subset_of(closure) && !closure.contains(fd.rhs) {
                    closure.insert(fd.rhs);
                    changed = true;
                }
            }
            if !changed {
                return closure;
            }
        }
    }

    /// `true` when this FD set logically implies `fd`.
    pub fn implies(&self, fd: &Fd) -> bool {
        self.closure(fd.lhs).contains(fd.rhs)
    }

    /// `true` when `other` is a relaxation of `self`: every instance
    /// satisfying `self` also satisfies `other`. For the positional
    /// LHS-extension representation used here this reduces to
    /// [`FdSet::extension_delta`] succeeding.
    pub fn is_relaxation(&self, other: &FdSet) -> bool {
        self.extension_delta(other).is_some()
    }

    /// Renders the FD set with schema attribute names.
    pub fn display_with(&self, schema: &Schema) -> String {
        let parts: Vec<String> = self.fds.iter().map(|fd| fd.display_with(schema)).collect();
        format!("{{{}}}", parts.join("; "))
    }
}

impl fmt::Display for FdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fd) in self.fds.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{fd}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Fd> for FdSet {
    fn from_iter<I: IntoIterator<Item = Fd>>(iter: I) -> Self {
        FdSet {
            fds: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{Schema, Value};

    fn figure2_instance() -> Instance {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        Instance::from_int_rows(
            schema,
            &[
                vec![1, 1, 1, 1],
                vec![1, 2, 1, 3],
                vec![2, 2, 1, 1],
                vec![2, 3, 4, 3],
            ],
        )
        .unwrap()
    }

    fn figure2_fds(schema: &Schema) -> FdSet {
        FdSet::parse(&["A->B", "C->D"], schema).unwrap()
    }

    #[test]
    fn parse_and_display() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fd = Fd::parse("A, C -> D", &schema).unwrap();
        assert_eq!(fd.lhs.len(), 2);
        assert_eq!(fd.rhs, AttrId(3));
        assert_eq!(fd.display_with(&schema), "A,C -> D");
        assert!(Fd::parse("A -> Z", &schema).is_err());
        assert!(Fd::parse("A - B", &schema).is_err());
        assert!(Fd::parse("A -> A", &schema).is_err());
    }

    #[test]
    fn violation_detection_on_pairs() {
        let inst = figure2_instance();
        let schema = inst.schema().clone();
        let fds = figure2_fds(&schema);
        let a_b = fds.get(0);
        let c_d = fds.get(1);
        let rows: Vec<Tuple> = inst.tuples().map(|(_, t)| t).collect();
        let t = |i: usize| &rows[i];
        // (t1, t2) violate both FDs (paper's labelling: rows 0 and 1 here).
        assert!(a_b.violated_by(t(0), t(1)));
        assert!(c_d.violated_by(t(0), t(1)));
        // (t2, t3) violate A->B? t2=(1,2,..), t3=(2,2,..): lhs differ, no.
        assert!(!a_b.violated_by(t(1), t(2)));
        assert!(c_d.violated_by(t(1), t(2)));
        // (t3, t4) violate A->B only.
        assert!(a_b.violated_by(t(2), t(3)));
        assert!(!c_d.violated_by(t(2), t(3)));
        assert_eq!(fds.violated_by(t(0), t(1)), vec![0, 1]);
        assert_eq!(fds.violated_by(t(2), t(3)), vec![0]);
    }

    #[test]
    fn holds_on_detects_satisfaction() {
        let inst = figure2_instance();
        let schema = inst.schema().clone();
        let fds = figure2_fds(&schema);
        assert!(!fds.holds_on(&inst));
        // The paper's CA->B, AC->D relaxation (Figure 3, last row) leaves only
        // the (t1,t2) conflict, so it still does not hold...
        let relaxed =
            fds.extend_lhs(&[AttrSet::singleton(AttrId(2)), AttrSet::singleton(AttrId(0))]);
        assert!(!relaxed.holds_on(&inst));
        // ...but extending A->B with C and D makes the first FD hold.
        let fd = Fd::parse("A,C,D->B", &schema).unwrap();
        assert!(fd.holds_on(&inst));
    }

    #[test]
    fn extend_lhs_respects_rhs_and_maps_positionally() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = figure2_fds(&schema);
        let ext = vec![AttrSet::singleton(AttrId(2)), AttrSet::EMPTY];
        let relaxed = fds.extend_lhs(&ext);
        assert_eq!(relaxed.get(0).display_with(&schema), "A,C -> B");
        assert_eq!(relaxed.get(1).display_with(&schema), "C -> D");
        // Trying to append the RHS is a no-op.
        let fd = fds.get(0).extend_lhs(AttrSet::singleton(AttrId(1)));
        assert_eq!(*fds.get(0), fd);
        // Delta recovers the extension vector.
        assert_eq!(fds.extension_delta(&relaxed).unwrap(), ext);
        assert!(fds.is_relaxation(&relaxed));
        assert!(!relaxed.is_relaxation(&fds));
    }

    #[test]
    fn extension_delta_rejects_non_relaxations() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = figure2_fds(&schema);
        let other = FdSet::parse(&["A->B"], &schema).unwrap();
        assert!(fds.extension_delta(&other).is_none()); // length mismatch
        let different_rhs = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
        assert!(fds.extension_delta(&different_rhs).is_none());
        let dropped_lhs = FdSet::parse(&["B->B", "C->D"], &schema);
        assert!(dropped_lhs.is_err() || fds.extension_delta(&dropped_lhs.unwrap()).is_none());
    }

    #[test]
    fn closure_and_implication() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&["A->B", "B->C"], &schema).unwrap();
        let closure = fds.closure(AttrSet::singleton(AttrId(0)));
        assert!(closure.contains(AttrId(0)));
        assert!(closure.contains(AttrId(1)));
        assert!(closure.contains(AttrId(2)));
        assert!(!closure.contains(AttrId(3)));
        assert!(fds.implies(&Fd::parse("A->C", &schema).unwrap()));
        assert!(!fds.implies(&Fd::parse("A->D", &schema).unwrap()));
        assert!(fds.implies(&Fd::parse("A,D->B", &schema).unwrap()));
    }

    #[test]
    fn extension_candidates_exclude_fd_attributes() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D", "E"]).unwrap();
        let fd = Fd::parse("A->B", &schema).unwrap();
        let cands = fd.extension_candidates(schema.arity());
        assert_eq!(cands.to_vec(), vec![AttrId(2), AttrId(3), AttrId(4)]);
    }

    #[test]
    fn fd_set_attributes_union() {
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = figure2_fds(&schema);
        assert_eq!(fds.attributes(), AttrSet::all(4));
    }

    #[test]
    fn variables_break_agreement_in_violations() {
        let schema = Schema::new("R", vec!["A", "B"]).unwrap();
        let mut inst = Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2]]).unwrap();
        let fd = Fd::parse("A->B", &schema).unwrap();
        assert!(!fd.holds_on(&inst));
        // Replacing t2[A] by a fresh variable resolves the violation.
        let v = inst.fresh_var(AttrId(0));
        inst.set_cell(rt_relation::CellRef::new(1, AttrId(0)), v)
            .unwrap();
        assert!(fd.holds_on(&inst));
        assert_eq!(
            inst.cell(rt_relation::CellRef::new(1, AttrId(0))).unwrap(),
            &Value::Var(rt_relation::VarId::new(0, 0))
        );
    }

    #[test]
    fn from_iterator_and_push() {
        let fd1 = Fd::from_indices(&[0], 1);
        let fd2 = Fd::from_indices(&[2], 3);
        let mut set: FdSet = vec![fd1].into_iter().collect();
        set.push(fd2);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.as_slice().len(), 2);
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.to_string(), "{A0 -> A1; A2 -> A3}");
    }
}
