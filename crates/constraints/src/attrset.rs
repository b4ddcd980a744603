//! Compact attribute sets.
//!
//! The FD-repair search space is made of vectors of attribute sets (one LHS
//! extension per FD), and the A* heuristic manipulates *difference sets*
//! (attributes on which two conflicting tuples disagree). Both are hot paths,
//! so attribute sets are packed into a single `u64` (the schema layer caps
//! relations at 64 attributes; the paper's widest experiment uses 34).

use rt_relation::AttrId;
use std::fmt;

/// A set of attributes of one relation schema, stored as a 64-bit mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AttrSet(u64);

impl AttrSet {
    /// The empty set.
    pub const EMPTY: AttrSet = AttrSet(0);

    /// Creates an empty set.
    pub fn new() -> Self {
        AttrSet(0)
    }

    /// Creates a set from raw bits (bit `i` set ⇔ attribute `i` present).
    pub fn from_bits(bits: u64) -> Self {
        AttrSet(bits)
    }

    /// The raw bit mask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Creates a singleton set.
    pub fn singleton(attr: AttrId) -> Self {
        AttrSet(1u64 << attr.index())
    }

    /// Creates the full set over the first `arity` attributes.
    pub fn all(arity: usize) -> Self {
        debug_assert!(arity <= 64);
        if arity == 64 {
            AttrSet(u64::MAX)
        } else {
            AttrSet((1u64 << arity) - 1)
        }
    }

    /// Builds a set from an iterator of attributes.
    pub fn from_attrs<I: IntoIterator<Item = AttrId>>(attrs: I) -> Self {
        let mut s = AttrSet::new();
        for a in attrs {
            s.insert(a);
        }
        s
    }

    /// Number of attributes in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` when the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, attr: AttrId) -> bool {
        (self.0 >> attr.index()) & 1 == 1
    }

    /// Adds an attribute (in place). Returns `true` when it was not present.
    pub fn insert(&mut self, attr: AttrId) -> bool {
        let bit = 1u64 << attr.index();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Removes an attribute (in place). Returns `true` when it was present.
    pub fn remove(&mut self, attr: AttrId) -> bool {
        let bit = 1u64 << attr.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Returns `self ∪ {attr}` without mutating.
    pub fn with(self, attr: AttrId) -> Self {
        AttrSet(self.0 | (1u64 << attr.index()))
    }

    /// Returns `self \ {attr}` without mutating.
    pub fn without(self, attr: AttrId) -> Self {
        AttrSet(self.0 & !(1u64 << attr.index()))
    }

    /// Set union.
    pub fn union(self, other: AttrSet) -> Self {
        AttrSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: AttrSet) -> Self {
        AttrSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn difference(self, other: AttrSet) -> Self {
        AttrSet(self.0 & !other.0)
    }

    /// `true` when `self ⊆ other`.
    pub fn is_subset_of(self, other: AttrSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// `true` when the two sets share no attribute.
    pub fn is_disjoint_from(self, other: AttrSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterates over member attributes in ascending order.
    pub fn iter(self) -> AttrSetIter {
        AttrSetIter(self.0)
    }

    /// Member attributes as a vector (ascending).
    pub fn to_vec(self) -> Vec<AttrId> {
        self.iter().collect()
    }

    /// The greatest (highest-index) attribute, if any.
    ///
    /// The search-tree parent rule of Section 5.1 removes the greatest
    /// attribute of the last FD extension containing it, so this operation is
    /// on the hot path of state generation.
    pub fn max_attr(self) -> Option<AttrId> {
        if self.0 == 0 {
            None
        } else {
            Some(AttrId(63 - self.0.leading_zeros() as u16))
        }
    }

    /// Renders the set using schema attribute names, e.g. `{Surname, Phone}`.
    pub fn display_with(self, schema: &rt_relation::Schema) -> String {
        let names: Vec<String> = self
            .iter()
            .map(|a| schema.attr_name(a).unwrap_or("?").to_string())
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl fmt::Display for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        AttrSet::from_attrs(iter)
    }
}

impl IntoIterator for AttrSet {
    type Item = AttrId;
    type IntoIter = AttrSetIter;
    fn into_iter(self) -> AttrSetIter {
        self.iter()
    }
}

/// Iterator over the attributes of an [`AttrSet`], ascending.
#[derive(Debug, Clone)]
pub struct AttrSetIter(u64);

impl Iterator for AttrSetIter {
    type Item = AttrId;

    fn next(&mut self) -> Option<AttrId> {
        if self.0 == 0 {
            None
        } else {
            let idx = self.0.trailing_zeros() as u16;
            self.0 &= self.0 - 1; // clear lowest set bit
            Some(AttrId(idx))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AttrSetIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ids: &[u16]) -> AttrSet {
        AttrSet::from_attrs(ids.iter().map(|&i| AttrId(i)))
    }

    #[test]
    fn basic_membership() {
        let mut a = AttrSet::new();
        assert!(a.is_empty());
        assert!(a.insert(AttrId(3)));
        assert!(!a.insert(AttrId(3)));
        assert!(a.contains(AttrId(3)));
        assert!(!a.contains(AttrId(2)));
        assert_eq!(a.len(), 1);
        assert!(a.remove(AttrId(3)));
        assert!(!a.remove(AttrId(3)));
        assert!(a.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = s(&[0, 1, 2]);
        let b = s(&[2, 3]);
        assert_eq!(a.union(b), s(&[0, 1, 2, 3]));
        assert_eq!(a.intersection(b), s(&[2]));
        assert_eq!(a.difference(b), s(&[0, 1]));
        assert!(s(&[1]).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(s(&[5]).is_disjoint_from(a));
        assert!(!a.is_disjoint_from(b));
    }

    #[test]
    fn with_without_are_non_mutating() {
        let a = s(&[1]);
        assert_eq!(a.with(AttrId(4)), s(&[1, 4]));
        assert_eq!(a, s(&[1]));
        assert_eq!(s(&[1, 4]).without(AttrId(1)), s(&[4]));
    }

    #[test]
    fn all_and_singleton() {
        assert_eq!(AttrSet::all(3), s(&[0, 1, 2]));
        assert_eq!(AttrSet::all(64).len(), 64);
        assert_eq!(AttrSet::singleton(AttrId(7)), s(&[7]));
        assert_eq!(AttrSet::all(0), AttrSet::EMPTY);
    }

    #[test]
    fn iteration_is_ascending() {
        let a = s(&[9, 2, 40, 0]);
        let v: Vec<u16> = a.iter().map(|x| x.0).collect();
        assert_eq!(v, vec![0, 2, 9, 40]);
        assert_eq!(a.iter().len(), 4);
        assert_eq!(a.to_vec().len(), 4);
    }

    #[test]
    fn min_max_attr() {
        let a = s(&[5, 17, 3]);
        assert_eq!(a.max_attr(), Some(AttrId(17)));
        assert_eq!(AttrSet::EMPTY.max_attr(), None);
        assert_eq!(s(&[63]).max_attr(), Some(AttrId(63)));
    }

    #[test]
    fn display_forms() {
        let a = s(&[0, 2]);
        assert_eq!(a.to_string(), "{A0,A2}");
        let schema = rt_relation::Schema::new("R", vec!["X", "Y", "Z"]).unwrap();
        assert_eq!(a.display_with(&schema), "{X, Z}");
    }

    #[test]
    fn from_iterator_and_into_iterator() {
        let a: AttrSet = vec![AttrId(1), AttrId(3)].into_iter().collect();
        assert_eq!(a, s(&[1, 3]));
        let back: Vec<AttrId> = a.into_iter().collect();
        assert_eq!(back, vec![AttrId(1), AttrId(3)]);
    }
}
