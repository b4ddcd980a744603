//! Cell values, including V-instance variables.
//!
//! The paper (Definition 1) represents repairs as *V-instances*: instances in
//! which a cell may hold either a constant from the attribute domain or a
//! variable `v_i^A`. A variable can be instantiated to any constant that does
//! not already occur in attribute `A` and distinct variables never take equal
//! values. Operationally this means:
//!
//! * `Var(x) == Var(x)` (a variable equals itself),
//! * `Var(x) != Var(y)` for `x != y`,
//! * `Var(_) != constant` for every constant.
//!
//! [`Value::matches`] implements exactly this semantics and is what the
//! violation-detection code uses when comparing cells.

use std::fmt;

/// Identifier of a V-instance variable.
///
/// Variables are scoped per attribute (`attr`) and numbered (`id`); the pair
/// uniquely identifies the variable within an instance. Two `VarId`s are the
/// same variable iff both components are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId {
    /// Attribute the variable ranges over (index into the schema).
    pub attr: u16,
    /// Per-attribute counter distinguishing variables of the same attribute.
    pub id: u32,
}

impl VarId {
    /// Creates a new variable identifier.
    pub fn new(attr: u16, id: u32) -> Self {
        VarId { attr, id }
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}^A{}", self.id, self.attr)
    }
}

/// An `f64` by bit pattern, so float cells stay `Eq + Hash + Ord`.
///
/// FD semantics only ever compare cells for equality, and equality of bit
/// patterns is exactly the equality the dictionary encoding needs: two
/// float cells match iff their bits are equal (`-0.0` and `+0.0` are
/// therefore *distinct* domain constants, as are NaNs with different
/// payloads — the typed CSV reader never produces non-finite floats, so in
/// practice every column value is a plain finite number). Ordering uses
/// [`f64::total_cmp`], which is consistent with bit equality and gives the
/// deterministic value order the entropy summation relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatBits(u64);

impl FloatBits {
    /// Wraps a float by bit pattern.
    pub fn new(value: f64) -> Self {
        FloatBits(value.to_bits())
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }

    /// The raw bit pattern.
    pub fn bits(self) -> u64 {
        self.0
    }
}

impl PartialOrd for FloatBits {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FloatBits {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.get().total_cmp(&other.get())
    }
}

impl fmt::Display for FloatBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.get();
        // `{}` on f64 prints the shortest decimal that round-trips, but
        // renders integral floats without a decimal point ("3"), which a
        // typed CSV round-trip would re-infer as Int. Force a float shape
        // for every finite integral value (the `.1` expansion prints the
        // exact decimal digits, so it still round-trips at any magnitude).
        if v.is_finite() && v.fract() == 0.0 {
            write!(f, "{v:.1}")
        } else {
            write!(f, "{v}")
        }
    }
}

/// A single cell value.
///
/// `Value` is intentionally small: the paper's algorithms only ever compare
/// values for equality (FD semantics are equality based), so we provide a
/// handful of constant kinds plus the V-instance variable case.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// SQL-style missing value. Two nulls compare equal here, which matches
    /// the behaviour of the paper's experiments (nulls are just another
    /// domain constant).
    Null,
    /// Integer constant.
    Int(i64),
    /// Float constant, compared by bit pattern (see [`FloatBits`]).
    Float(FloatBits),
    /// String constant.
    Str(String),
    /// V-instance variable (Definition 1).
    Var(VarId),
}

impl Value {
    /// Returns `true` when the value is a V-instance variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Value::Var(_))
    }

    /// Returns `true` when the value is a constant (including `Null`).
    pub fn is_constant(&self) -> bool {
        !self.is_var()
    }

    /// Returns `true` when the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Equality under V-instance semantics.
    ///
    /// * constant vs constant: ordinary equality;
    /// * variable vs variable: equal iff they are the *same* variable;
    /// * variable vs constant: never equal (a fresh variable is guaranteed to
    ///   be instantiated to a value not occurring elsewhere in the column).
    pub fn matches(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Var(a), Value::Var(b)) => a == b,
            (Value::Var(_), _) | (_, Value::Var(_)) => false,
            (a, b) => a == b,
        }
    }

    /// Accounting cost, in bytes, of feeding this value to a hasher — the
    /// convention the [`crate::work`] counters use for `key_bytes_hashed`.
    ///
    /// Strings cost their length; fixed-size constants cost their payload
    /// size (`Int` 8, `Var` 6 = `u16 + u32`, `Null` 1). This is a stable
    /// bookkeeping convention, not a promise about any particular hasher.
    pub fn hash_cost(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len(),
            Value::Var(_) => 6,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Convenience constructor for integer values.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Convenience constructor for float values (stored by bit pattern).
    pub fn float(f: f64) -> Self {
        Value::Float(FloatBits::new(f))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Var(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_compare_by_value() {
        assert!(Value::int(5).matches(&Value::int(5)));
        assert!(!Value::int(5).matches(&Value::int(6)));
        assert!(Value::str("a").matches(&Value::str("a")));
        assert!(!Value::str("a").matches(&Value::str("b")));
        assert!(Value::Null.matches(&Value::Null));
        assert!(!Value::Null.matches(&Value::int(0)));
    }

    #[test]
    fn variables_follow_v_instance_semantics() {
        let v1 = Value::Var(VarId::new(0, 1));
        let v1_again = Value::Var(VarId::new(0, 1));
        let v2 = Value::Var(VarId::new(0, 2));
        let other_attr = Value::Var(VarId::new(1, 1));

        // A variable equals itself.
        assert!(v1.matches(&v1_again));
        // Distinct variables are never equal.
        assert!(!v1.matches(&v2));
        assert!(!v1.matches(&other_attr));
        // A variable never equals a constant.
        assert!(!v1.matches(&Value::int(42)));
        assert!(!Value::str("x").matches(&v1));
    }

    #[test]
    fn floats_compare_by_bit_pattern() {
        assert!(Value::float(1.5).matches(&Value::float(1.5)));
        assert!(!Value::float(1.5).matches(&Value::float(2.5)));
        // -0.0 and +0.0 have different bit patterns: distinct constants.
        assert!(!Value::float(0.0).matches(&Value::float(-0.0)));
        // A float never equals the "same" integer: they are different kinds.
        assert!(!Value::float(3.0).matches(&Value::int(3)));
        // total_cmp ordering is deterministic and consistent with equality.
        assert!(FloatBits::new(-1.0) < FloatBits::new(1.0));
        assert_eq!(
            FloatBits::new(2.5).cmp(&FloatBits::new(2.5)),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn float_display_keeps_the_float_shape() {
        assert_eq!(Value::float(2.5).to_string(), "2.5");
        // Integral floats render with a decimal point, so a typed CSV
        // round-trip re-infers the column as Float, not Int.
        assert_eq!(Value::float(3.0).to_string(), "3.0");
        assert_eq!(Value::float(-0.125).to_string(), "-0.125");
        // Large integral floats keep the float shape too (and the digits
        // re-parse to the same f64 bits).
        let big = Value::float(1e15);
        assert_eq!(big.to_string(), "1000000000000000.0");
        assert_eq!(
            big.to_string().parse::<f64>().unwrap().to_bits(),
            1e15f64.to_bits()
        );
    }

    #[test]
    fn display_round_trips_simple_constants() {
        assert_eq!(Value::int(9).to_string(), "9");
        assert_eq!(Value::str("abc").to_string(), "abc");
        assert_eq!(Value::Null.to_string(), "");
        assert_eq!(Value::Var(VarId::new(2, 3)).to_string(), "v3^A2");
    }

    #[test]
    fn conversions() {
        let v: Value = 3i64.into();
        assert_eq!(v, Value::Int(3));
        let v: Value = "x".into();
        assert_eq!(v, Value::Str("x".into()));
        let v: Value = String::from("y").into();
        assert_eq!(v, Value::Str("y".into()));
    }

    #[test]
    fn predicates() {
        assert!(Value::Var(VarId::new(0, 0)).is_var());
        assert!(!Value::Var(VarId::new(0, 0)).is_constant());
        assert!(Value::Null.is_null());
        assert!(Value::Null.is_constant());
        assert!(Value::int(1).is_constant());
    }
}
