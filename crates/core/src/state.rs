//! Search states over FD relaxations.
//!
//! A state is the vector `Δ_c(Σ, Σ') = (Y_1, ..., Y_z)` of attribute sets
//! appended to the LHS of each FD. The root state is `(∅, ..., ∅)` (keep Σ
//! unchanged); extending a state adds attributes.
//!
//! Section 5.1 of the paper turns the natural *graph* of states (reachable by
//! adding one attribute at a time) into a *tree* so that no closed list is
//! needed: every non-root state has a unique parent, obtained by removing the
//! globally greatest appended attribute from the **last** FD extension that
//! contains it. [`RepairState::children`] enumerates exactly the states whose
//! parent (under that rule) is `self`, so a traversal from the root visits
//! every state at most once.

use rt_constraints::{AttrSet, FdSet};
use rt_relation::AttrId;
use std::fmt;

/// A state of the FD-modification search space: one LHS extension per FD.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RepairState {
    extensions: Vec<AttrSet>,
}

impl RepairState {
    /// The root state `(∅, ..., ∅)` for `fd_count` FDs.
    pub fn root(fd_count: usize) -> Self {
        RepairState {
            extensions: vec![AttrSet::EMPTY; fd_count],
        }
    }

    /// Builds a state from an explicit extension vector.
    pub fn new(extensions: Vec<AttrSet>) -> Self {
        RepairState { extensions }
    }

    /// The per-FD extension sets.
    pub fn extensions(&self) -> &[AttrSet] {
        &self.extensions
    }

    /// Number of FDs.
    pub fn fd_count(&self) -> usize {
        self.extensions.len()
    }

    /// Total number of appended attributes, counted with multiplicity across
    /// FDs (the depth of the state in the search tree).
    pub fn depth(&self) -> usize {
        self.extensions.iter().map(|e| e.len()).sum()
    }

    /// `true` when no FD is modified.
    pub fn is_root(&self) -> bool {
        self.extensions.iter().all(|e| e.is_empty())
    }

    /// Union of all appended attributes.
    pub fn appended_attrs(&self) -> AttrSet {
        self.extensions
            .iter()
            .fold(AttrSet::EMPTY, |acc, e| acc.union(*e))
    }

    /// `true` when `self` extends `other` component-wise (`other ⊑ self`),
    /// i.e. every extension of `other` is a subset of the corresponding
    /// extension of `self`.
    pub fn extends(&self, other: &RepairState) -> bool {
        self.extensions.len() == other.extensions.len()
            && other
                .extensions
                .iter()
                .zip(self.extensions.iter())
                .all(|(o, s)| o.is_subset_of(*s))
    }

    /// Returns a copy with `attr` added to the `fd_idx`-th extension.
    pub fn with_attr(&self, fd_idx: usize, attr: AttrId) -> RepairState {
        let mut extensions = self.extensions.clone();
        extensions[fd_idx] = extensions[fd_idx].with(attr);
        RepairState { extensions }
    }

    /// The unique parent under the tree rule of Section 5.1, or `None` for
    /// the root: remove the greatest appended attribute from the last FD
    /// extension containing it.
    pub fn parent(&self) -> Option<RepairState> {
        let greatest = self.appended_attrs().max_attr()?;
        let last_idx = self
            .extensions
            .iter()
            .rposition(|e| e.contains(greatest))
            .expect("greatest attribute must occur in some extension");
        let mut extensions = self.extensions.clone();
        extensions[last_idx] = extensions[last_idx].without(greatest);
        Some(RepairState { extensions })
    }

    /// Enumerates the children of this state in the search tree for the FD
    /// set `sigma` over a schema of `arity` attributes.
    ///
    /// A child adds exactly one attribute `A` to exactly one extension `Y_j`,
    /// subject to:
    ///
    /// * `A` is a legal extension of FD `j` (not already in its LHS, not its
    ///   RHS, not already appended);
    /// * applying the parent rule to the child yields `self` back, which
    ///   makes the enumeration a partition of the state space:
    ///   - if `A` is strictly greater than every currently appended
    ///     attribute, any `j` qualifies;
    ///   - if `A` equals the greatest appended attribute, `j` must lie
    ///     strictly after every extension currently containing `A`;
    ///   - if `A` is smaller, the child's parent would remove a different
    ///     attribute, so the child is not generated here.
    pub fn children(&self, sigma: &FdSet, arity: usize) -> Vec<RepairState> {
        let mut out = Vec::new();
        let appended = self.appended_attrs();
        let greatest = appended.max_attr();
        for (j, fd) in sigma.iter() {
            let candidates = fd
                .extension_candidates(arity)
                .difference(self.extensions[j]);
            for attr in candidates {
                let valid = match greatest {
                    None => true,
                    Some(g) => {
                        if attr > g {
                            true
                        } else if attr == g {
                            // Last extension currently containing `attr` must
                            // come strictly before j.
                            self.extensions
                                .iter()
                                .rposition(|e| e.contains(attr))
                                .map(|last| last < j)
                                .unwrap_or(true)
                        } else {
                            false
                        }
                    }
                };
                if valid {
                    out.push(self.with_attr(j, attr));
                }
            }
        }
        out
    }
}

impl fmt::Display for RepairState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.extensions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if e.is_empty() {
                write!(f, "φ")?;
            } else {
                write!(f, "{e}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::Schema;
    use std::collections::HashSet;

    fn single_fd_space() -> (FdSet, usize) {
        // Figure 4 of the paper: R = {A,...,F}, Σ = {A → F}.
        let schema = Schema::new("R", vec!["A", "B", "C", "D", "E", "F"]).unwrap();
        let fds = FdSet::parse(&["A->F"], &schema).unwrap();
        (fds, schema.arity())
    }

    fn two_fd_space() -> (FdSet, usize) {
        // Figure 5 of the paper: R = {A,B,C,D}, Σ = {A → B, C → D}.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&["A->B", "C->D"], &schema).unwrap();
        (fds, schema.arity())
    }

    #[test]
    fn root_properties() {
        let root = RepairState::root(2);
        assert!(root.is_root());
        assert_eq!(root.depth(), 0);
        assert_eq!(root.parent(), None);
        assert_eq!(root.appended_attrs(), AttrSet::EMPTY);
        assert_eq!(root.to_string(), "(φ, φ)");
    }

    #[test]
    fn figure4_root_children_are_the_four_candidate_attributes() {
        let (fds, arity) = single_fd_space();
        let root = RepairState::root(1);
        let children = root.children(&fds, arity);
        // Candidates are B, C, D, E (A is the LHS, F the RHS).
        assert_eq!(children.len(), 4);
        let attrs: HashSet<AttrSet> = children.iter().map(|c| c.extensions()[0]).collect();
        for name in [1u16, 2, 3, 4] {
            assert!(attrs.contains(&AttrSet::singleton(AttrId(name))));
        }
    }

    #[test]
    fn figure4_tree_has_unique_paths_and_covers_the_space() {
        // Enumerate the whole tree for Σ = {A→F}: every non-empty subset of
        // {B,C,D,E} must be generated exactly once → 2^4 = 16 states total.
        let (fds, arity) = single_fd_space();
        let mut seen: HashSet<RepairState> = HashSet::new();
        let mut stack = vec![RepairState::root(1)];
        while let Some(s) = stack.pop() {
            assert!(seen.insert(s.clone()), "state {s} generated twice");
            for c in s.children(&fds, arity) {
                assert_eq!(c.parent().as_ref(), Some(&s), "parent rule broken for {c}");
                stack.push(c);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn figure5_two_fd_tree_covers_the_space_once() {
        // Σ = {A→B, C→D} over R = {A,B,C,D}: FD1 may receive {C,D}, FD2 may
        // receive {A,B} → 4 · 4 = 16 states.
        let (fds, arity) = two_fd_space();
        let mut seen: HashSet<RepairState> = HashSet::new();
        let mut stack = vec![RepairState::root(2)];
        while let Some(s) = stack.pop() {
            assert!(seen.insert(s.clone()), "state {s} generated twice");
            for c in s.children(&fds, arity) {
                assert_eq!(c.parent().as_ref(), Some(&s));
                stack.push(c);
            }
        }
        assert_eq!(seen.len(), 16);
    }

    #[test]
    fn figure5_root_children_match_paper() {
        let (fds, arity) = two_fd_space();
        let root = RepairState::root(2);
        let children = root.children(&fds, arity);
        // (C,φ), (D,φ), (φ,A), (φ,B) — exactly four children.
        assert_eq!(children.len(), 4);
        let rendered: HashSet<String> = children.iter().map(|c| c.to_string()).collect();
        assert!(rendered.contains("({A2}, φ)"));
        assert!(rendered.contains("({A3}, φ)"));
        assert!(rendered.contains("(φ, {A0})"));
        assert!(rendered.contains("(φ, {A1})"));
    }

    #[test]
    fn extends_is_componentwise() {
        let a = RepairState::new(vec![AttrSet::singleton(AttrId(2)), AttrSet::EMPTY]);
        let b = RepairState::new(vec![
            AttrSet::from_attrs([AttrId(2), AttrId(3)]),
            AttrSet::singleton(AttrId(0)),
        ]);
        assert!(b.extends(&a));
        assert!(!a.extends(&b));
        assert!(a.extends(&a));
        assert!(a.extends(&RepairState::root(2)));
        // Different FD counts never extend each other.
        assert!(!a.extends(&RepairState::root(3)));
    }

    #[test]
    fn shared_attribute_across_fds_is_generated_once() {
        // Two FDs that can both receive attribute D: the state (D, D) must be
        // reachable exactly once.
        let schema = Schema::new("R", vec!["A", "B", "C", "D"]).unwrap();
        let fds = FdSet::parse(&["A->B", "C->B"], &schema).unwrap();
        let mut seen: HashSet<RepairState> = HashSet::new();
        let mut stack = vec![RepairState::root(2)];
        while let Some(s) = stack.pop() {
            assert!(seen.insert(s.clone()), "state {s} generated twice");
            for c in s.children(&fds, schema.arity()) {
                assert_eq!(c.parent().as_ref(), Some(&s));
                stack.push(c);
            }
        }
        // FD1 (A→B) may receive {C, D}; FD2 (C→B) may receive {A, D}:
        // 4 · 4 = 16 states.
        assert_eq!(seen.len(), 16);
        let both_d = RepairState::new(vec![
            AttrSet::singleton(AttrId(3)),
            AttrSet::singleton(AttrId(3)),
        ]);
        assert!(seen.contains(&both_d));
    }

    #[test]
    fn depth_counts_multiplicity() {
        let s = RepairState::new(vec![
            AttrSet::from_attrs([AttrId(2), AttrId(3)]),
            AttrSet::singleton(AttrId(3)),
        ]);
        assert_eq!(s.depth(), 3);
        assert_eq!(s.appended_attrs().len(), 2);
    }
}
