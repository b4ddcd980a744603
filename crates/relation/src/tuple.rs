//! Tuples: fixed-arity rows of [`Value`]s.

use crate::schema::AttrId;
use crate::value::Value;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A tuple `t ∈ Dom(A_1) × ... × Dom(A_m)` (possibly containing V-instance
/// variables).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    cells: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple from its cells.
    pub fn new(cells: Vec<Value>) -> Self {
        Tuple { cells }
    }

    /// Creates a tuple of `arity` nulls.
    pub fn nulls(arity: usize) -> Self {
        Tuple {
            cells: vec![Value::Null; arity],
        }
    }

    /// Number of cells.
    pub fn arity(&self) -> usize {
        self.cells.len()
    }

    /// Borrow a cell by attribute.
    pub fn get(&self, attr: AttrId) -> &Value {
        &self.cells[attr.index()]
    }

    /// Mutably borrow a cell by attribute.
    pub fn get_mut(&mut self, attr: AttrId) -> &mut Value {
        &mut self.cells[attr.index()]
    }

    /// Overwrites a cell.
    pub fn set(&mut self, attr: AttrId, value: Value) {
        self.cells[attr.index()] = value;
    }

    /// Iterates over `(AttrId, &Value)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (AttrId, &Value)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, v)| (AttrId(i as u16), v))
    }

    /// Raw access to the underlying cell vector.
    pub fn as_slice(&self) -> &[Value] {
        &self.cells
    }

    /// `true` iff the two tuples agree (under V-instance semantics,
    /// [`Value::matches`]) on every attribute in `attrs`.
    pub fn agree_on<I: IntoIterator<Item = AttrId>>(&self, other: &Tuple, attrs: I) -> bool {
        attrs.into_iter().all(|a| {
            crate::work::count_value_compares(1);
            self.get(a).matches(other.get(a))
        })
    }

    /// Attributes on which the two tuples differ (under V-instance
    /// semantics). This is the *difference set* of the pair, in the sense of
    /// Section 5.2 of the paper.
    pub fn differing_attrs(&self, other: &Tuple) -> Vec<AttrId> {
        debug_assert_eq!(self.arity(), other.arity());
        crate::work::count_value_compares(self.arity());
        self.cells
            .iter()
            .zip(other.cells.iter())
            .enumerate()
            .filter(|(_, (a, b))| !a.matches(b))
            .map(|(i, _)| AttrId(i as u16))
            .collect()
    }
}

impl Index<AttrId> for Tuple {
    type Output = Value;
    fn index(&self, attr: AttrId) -> &Value {
        self.get(attr)
    }
}

impl IndexMut<AttrId> for Tuple {
    fn index_mut(&mut self, attr: AttrId) -> &mut Value {
        self.get_mut(attr)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(cells: Vec<Value>) -> Self {
        Tuple::new(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::VarId;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|v| Value::Int(*v)).collect())
    }

    #[test]
    fn get_set_index() {
        let mut tup = t(&[1, 2, 3]);
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup[AttrId(1)], Value::Int(2));
        tup.set(AttrId(1), Value::int(9));
        assert_eq!(tup[AttrId(1)], Value::Int(9));
        tup[AttrId(0)] = Value::str("x");
        assert_eq!(tup.get(AttrId(0)), &Value::Str("x".into()));
    }

    #[test]
    fn agreement_and_difference_sets() {
        let a = t(&[1, 1, 1, 1]);
        let b = t(&[1, 2, 1, 3]);
        assert!(a.agree_on(&b, [AttrId(0), AttrId(2)]));
        assert!(!a.agree_on(&b, [AttrId(0), AttrId(1)]));
        let diff = a.differing_attrs(&b);
        assert_eq!(diff, vec![AttrId(1), AttrId(3)]);
    }

    #[test]
    fn variables_never_agree_with_constants() {
        let mut a = t(&[1, 1]);
        let b = t(&[1, 1]);
        a.set(AttrId(1), Value::Var(VarId::new(1, 0)));
        assert!(a.agree_on(&b, [AttrId(0)]));
        assert!(!a.agree_on(&b, [AttrId(1)]));
        assert_eq!(a.differing_attrs(&b), vec![AttrId(1)]);
    }

    #[test]
    fn display_and_nulls() {
        let tup = Tuple::nulls(2);
        assert_eq!(tup.to_string(), "(, )");
        let tup = t(&[7, 8]);
        assert_eq!(tup.to_string(), "(7, 8)");
    }

    #[test]
    fn cells_iterator_yields_ids_in_order() {
        let tup = t(&[5, 6]);
        let ids: Vec<AttrId> = tup.cells().map(|(a, _)| a).collect();
        assert_eq!(ids, vec![AttrId(0), AttrId(1)]);
    }
}
