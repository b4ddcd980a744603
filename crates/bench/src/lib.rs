//! # rt-bench
//!
//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 8), plus `bench_gate`, the deterministic
//! work-counter gate CI runs.
//!
//! Each experiment lives in [`experiments`] as a plain function returning a
//! vector of result rows; `exp <figure>` prints those rows as a table
//! (mirroring the series the paper plots) and also dumps them as JSON under
//! `target/experiments/` so `EXPERIMENTS.md` can quote them.
//!
//! | Paper artefact | Function | `exp` figure |
//! |---|---|---|
//! | Figure 7 (quality vs. relative trust) | [`experiments::quality_vs_trust`] | `quality-vs-trust` |
//! | Figure 8 (vs. unified-cost repair) | [`experiments::versus_unified_cost`] | `vs-unified-cost` |
//! | Figure 9 (scalability in tuples) | [`experiments::scalability_tuples`] | `scal-tuples` |
//! | Figure 10 (scalability in attributes) | [`experiments::scalability_attributes`] | `scal-attrs` |
//! | Figure 11 (scalability in FDs) | [`experiments::scalability_fds`] | `scal-fds` |
//! | Figure 12 (effect of τ) | [`experiments::effect_of_tau`] | `effect-tau` |
//! | Figure 13 (multiple repairs) | [`experiments::multi_repair_comparison`] | `multi-repairs` |
//! | Parallel layer (serial ≡ parallel, speedup) | [`experiments::par_speedup`] | `par-speedup` |
//!
//! The default workload sizes are scaled down from the paper's (which used a
//! 300k-tuple Census extract on 2012-era server hardware) so that the whole
//! suite completes in minutes; every driver accepts a [`Scale`] to run the
//! paper-sized configuration instead.

//!
//! ```
//! use rt_bench::{Scale, Workload, WorkloadSpec};
//!
//! // Declarative workload: clean generation + Section 8.1 perturbation.
//! let spec = WorkloadSpec { tuples: Scale::Smoke.tuples(800), ..Default::default() };
//! let workload = Workload::build(&spec);
//! assert_eq!(workload.dirty_instance().len(), 200);
//! assert!(!workload.dirty_fds().holds_on(workload.dirty_instance()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::{render_table, write_json_report};
pub use workloads::{Scale, Workload, WorkloadSpec};
