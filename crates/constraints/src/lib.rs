//! # rt-constraints
//!
//! Functional dependencies and everything the repair algorithms need to know
//! about them:
//!
//! * [`AttrSet`] — compact bitset of attributes (≤ 64), the currency of the
//!   FD-modification search space;
//! * [`Fd`] / [`FdSet`] — functional dependencies `X → A` and sets thereof,
//!   including the LHS-extension mechanism used to *relax* FDs (the only FD
//!   modification the paper allows);
//! * [`violations`] — conflict-graph construction (Definition 6) and the
//!   per-edge *difference sets* that power the A* heuristic of Section 5.2,
//!   plus edge-level patching (`apply_delta`, `retract_tuples`) for live
//!   mutations, which recomputes conflicts only around the touched rows;
//! * [`weights`] — the monotone weighting functions `w(Y)` that price LHS
//!   extensions (attribute count, distinct-value count, entropy).
//!
//! ```
//! use rt_constraints::{ConflictGraph, FdSet};
//! use rt_relation::{Instance, Schema};
//!
//! let schema = Schema::new("R", vec!["A", "B"]).unwrap();
//! let instance =
//!     Instance::from_int_rows(schema.clone(), &[vec![1, 1], vec![1, 2], vec![2, 5]]).unwrap();
//! let fds = FdSet::parse(&["A->B"], &schema).unwrap();
//!
//! // Rows 0 and 1 agree on A but not B: one conflict edge (Definition 6).
//! assert!(!fds.holds_on(&instance));
//! let graph = ConflictGraph::build(&instance, &fds);
//! assert_eq!(graph.edge_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrset;
pub mod fd;
pub mod violations;
pub mod weights;

pub use attrset::AttrSet;
pub use fd::{Fd, FdSet};
pub use violations::{ConflictEdge, ConflictGraph, ConflictGraphDeltaSummary};
pub use weights::{AttrCountWeight, DistinctCountWeight, EntropyWeight, Weight};
