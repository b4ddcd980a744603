//! Weighting functions for LHS extensions.
//!
//! `dist_c(Σ, Σ') = Σ_{Y ∈ Δc(Σ,Σ')} w(Y)` prices a candidate FD repair by
//! the attribute sets appended to each FD's LHS. The paper requires `w` to be
//! non-negative and *monotone* (`X ⊆ Y ⇒ w(X) ≤ w(Y)`): monotonicity is what
//! allows the search to prune every extension of a goal state.
//!
//! Three concrete weightings are provided:
//!
//! * [`AttrCountWeight`] — `w(Y) = |Y|`, the simplest possible choice;
//! * [`DistinctCountWeight`] — `w(Y) = |Π_Y(I)|`, the number of distinct
//!   `Y`-projections of the initial instance. This is the weighting the
//!   paper's experiments use (Section 8.1); more "informative" attribute sets
//!   are more expensive to append.
//! * [`EntropyWeight`] — sum of column entropies, a smoother
//!   informativeness measure mentioned in Section 3.1.
//!
//! All weightings are evaluated against the *initial* instance `I` only (the
//! paper's simplifying assumption), so implementations may precompute and
//! cache whatever they need at construction time.

use crate::attrset::AttrSet;
use rt_relation::{distinct_rows, Code, CodeSpace, Instance};
use std::collections::HashMap;
use std::sync::Mutex;

/// A monotone, non-negative weighting of attribute sets.
pub trait Weight: Send + Sync {
    /// Weight of appending the attribute set `Y` to some FD's LHS.
    fn weight(&self, attrs: AttrSet) -> f64;

    /// Weight of a whole extension vector `Δc(Σ, Σ')`.
    fn extension_cost(&self, extensions: &[AttrSet]) -> f64 {
        extensions.iter().map(|y| self.weight(*y)).sum()
    }

    /// A cheap fingerprint of the weighting *function*: two weights with
    /// equal `Some` fingerprints assign the same weight to every attribute
    /// set. `None` means "unknown" — incremental maintenance then has to
    /// assume the function changed after a data mutation.
    ///
    /// This is what lets an engine keep FD-level search caches alive across
    /// mutations that happen not to move the weighting (always true for the
    /// data-independent [`AttrCountWeight`]).
    fn fingerprint(&self) -> Option<u64> {
        None
    }
}

/// `w(Y) = |Y|`: each appended attribute costs 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttrCountWeight;

impl Weight for AttrCountWeight {
    fn weight(&self, attrs: AttrSet) -> f64 {
        attrs.len() as f64
    }

    fn fingerprint(&self) -> Option<u64> {
        // Data-independent: every AttrCountWeight is the same function.
        Some(0xA77C_0047)
    }
}

/// `w(Y) = |Π_Y(I)|`: the number of distinct value combinations the appended
/// attributes take in the initial instance (0 for the empty set).
///
/// Holds no copy of the instance: only its code columns, each with the
/// code space of its dictionary, which is all [`distinct_rows`] reads.
/// Computed lazily per attribute set and cached, since the FD-repair search
/// evaluates the same extension sets over and over.
pub struct DistinctCountWeight {
    rows: usize,
    columns: Vec<(Vec<Code>, CodeSpace)>,
    cache: Mutex<HashMap<AttrSet, f64>>,
}

impl DistinctCountWeight {
    /// Captures the code columns of the initial instance.
    pub fn new(instance: &Instance) -> Self {
        DistinctCountWeight {
            rows: instance.len(),
            columns: instance
                .schema()
                .attr_ids()
                .map(|a| (instance.codes(a).to_vec(), instance.dict(a).code_space()))
                .collect(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// `|Π_attrs(I)|`.
    fn count(&self, attrs: AttrSet) -> usize {
        let cols: Vec<(&[Code], CodeSpace)> = attrs
            .iter()
            .map(|a| {
                let (codes, space) = &self.columns[a.index()];
                (codes.as_slice(), *space)
            })
            .collect();
        distinct_rows(self.rows, &cols)
    }
}

impl Weight for DistinctCountWeight {
    fn weight(&self, attrs: AttrSet) -> f64 {
        if attrs.is_empty() {
            return 0.0;
        }
        if let Some(w) = self.cache.lock().unwrap().get(&attrs) {
            return *w;
        }
        let w = self.count(attrs) as f64;
        self.cache.lock().unwrap().insert(attrs, w);
        w
    }
}

/// `w(Y) = Σ_{A ∈ Y} H(A)`: sum of the Shannon entropies of the appended
/// columns (0 for the empty set). Monotone because entropies are
/// non-negative.
pub struct EntropyWeight {
    entropies: Vec<f64>,
}

impl EntropyWeight {
    /// Precomputes per-column entropies of the initial instance.
    pub fn new(instance: &Instance) -> Self {
        let entropies = instance
            .schema()
            .attr_ids()
            .map(|a| instance.column_entropy(a))
            .collect();
        EntropyWeight { entropies }
    }
}

impl Weight for EntropyWeight {
    fn weight(&self, attrs: AttrSet) -> f64 {
        attrs
            .iter()
            .map(|a| self.entropies.get(a.index()).copied().unwrap_or(0.0))
            .sum()
    }

    fn fingerprint(&self) -> Option<u64> {
        // The precomputed entropy vector fully determines the function.
        use std::hash::{Hash, Hasher};
        // rtlint: allow(D004) -- cold cache-key path; fixed-key SipHash is deterministic and never touches row data
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for e in &self.entropies {
            e.to_bits().hash(&mut h);
        }
        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_relation::{AttrId, Schema};

    fn instance() -> Instance {
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

    fn set(ids: &[u16]) -> AttrSet {
        AttrSet::from_attrs(ids.iter().map(|&i| AttrId(i)))
    }

    #[test]
    fn attr_count_weight() {
        let w = AttrCountWeight;
        assert_eq!(w.weight(AttrSet::EMPTY), 0.0);
        assert_eq!(w.weight(set(&[1, 3])), 2.0);
        assert_eq!(
            w.extension_cost(&[set(&[1]), AttrSet::EMPTY, set(&[0, 2])]),
            3.0
        );
    }

    #[test]
    fn distinct_count_weight_matches_projections() {
        let inst = instance();
        let w = DistinctCountWeight::new(&inst);
        assert_eq!(w.weight(AttrSet::EMPTY), 0.0);
        assert_eq!(w.weight(set(&[0])), 2.0); // A ∈ {1,2}
        assert_eq!(w.weight(set(&[1])), 3.0); // B ∈ {1,2,3}
        assert_eq!(w.weight(set(&[2])), 2.0); // C ∈ {1,4}
        assert_eq!(w.weight(set(&[0, 1])), 4.0); // all AB combos distinct
                                                 // Cached second call returns the same value.
        assert_eq!(w.weight(set(&[0, 1])), 4.0);
    }

    #[test]
    fn entropy_weight_is_sum_of_column_entropies() {
        let inst = instance();
        let w = EntropyWeight::new(&inst);
        assert_eq!(w.weight(AttrSet::EMPTY), 0.0);
        // Column A has two values with probability 1/2 → entropy 1 bit.
        assert!((w.weight(set(&[0])) - 1.0).abs() < 1e-9);
        // Weight of a pair is the sum of individual weights.
        let sum = w.weight(set(&[0])) + w.weight(set(&[3]));
        assert!((w.weight(set(&[0, 3])) - sum).abs() < 1e-9);
    }

    #[test]
    fn fingerprints_identify_stable_functions() {
        let inst = instance();
        // AttrCount: constant fingerprint across values.
        assert_eq!(AttrCountWeight.fingerprint(), AttrCountWeight.fingerprint());
        assert!(AttrCountWeight.fingerprint().is_some());
        // Entropy: equal data → equal fingerprint; different data → different.
        let e1 = EntropyWeight::new(&inst);
        let e2 = EntropyWeight::new(&inst.clone());
        assert_eq!(e1.fingerprint(), e2.fingerprint());
        let truncated = EntropyWeight::new(&inst.truncate(2));
        assert_ne!(e1.fingerprint(), truncated.fingerprint());
        // DistinctCount: unknowable without a full pass → None.
        assert_eq!(DistinctCountWeight::new(&inst).fingerprint(), None);
    }

    #[test]
    fn weights_are_monotone() {
        let inst = instance();
        let weights: Vec<Box<dyn Weight>> = vec![
            Box::new(AttrCountWeight),
            Box::new(DistinctCountWeight::new(&inst)),
            Box::new(EntropyWeight::new(&inst)),
        ];
        let sets = [
            AttrSet::EMPTY,
            set(&[0]),
            set(&[1]),
            set(&[0, 1]),
            set(&[0, 2]),
            set(&[0, 1, 2]),
            set(&[0, 1, 2, 3]),
        ];
        for w in &weights {
            for &x in &sets {
                assert!(w.weight(x) >= 0.0);
                for &y in &sets {
                    if x.is_subset_of(y) {
                        assert!(
                            w.weight(x) <= w.weight(y) + 1e-12,
                            "monotonicity violated: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }
}
