//! Workload construction shared by the experiment drivers and `bench_gate`.

use rt_constraints::FdSet;
use rt_core::{Parallelism, WeightKind};
use rt_datagen::{generate_census_like, perturb, CensusLikeConfig, GroundTruth, PerturbConfig};
use rt_relation::Instance;

/// How large a workload to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few seconds per experiment; used by tests and CI.
    Smoke,
    /// Minutes for the whole suite; the default for the `exp` binary.
    Default,
    /// Paper-sized workloads (tens of minutes to hours on laptop hardware).
    Paper,
}

impl std::str::FromStr for Scale {
    type Err = String;

    /// Parses `smoke`, `default` or `paper`; anything else is an error.
    fn from_str(s: &str) -> Result<Scale, String> {
        match s {
            "smoke" => Ok(Scale::Smoke),
            "default" => Ok(Scale::Default),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown scale `{other}` (use smoke, default or paper)"
            )),
        }
    }
}

impl Scale {
    /// Multiplies a baseline tuple count by the scale factor.
    pub fn tuples(self, default_tuples: usize) -> usize {
        match self {
            Scale::Smoke => (default_tuples / 4).max(200),
            Scale::Default => default_tuples,
            Scale::Paper => default_tuples * 5,
        }
    }
}

/// Declarative description of one experiment workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of tuples.
    pub tuples: usize,
    /// Number of attributes.
    pub attributes: usize,
    /// Number of planted FDs.
    pub fd_count: usize,
    /// LHS size of each planted FD.
    pub lhs_size: usize,
    /// Fraction of cells corrupted.
    pub data_error_rate: f64,
    /// Fraction of LHS attributes removed.
    pub fd_error_rate: f64,
    /// RNG seed for both generation and perturbation.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            tuples: 1000,
            attributes: 12,
            fd_count: 1,
            lhs_size: 6,
            data_error_rate: 0.005,
            fd_error_rate: 0.3,
            seed: 17,
        }
    }
}

/// A fully built workload: the clean/dirty instances, the clean/dirty FDs,
/// and the perturbation ground truth.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The spec the workload was built from.
    pub spec: WorkloadSpec,
    /// Ground truth (clean + dirty instances and FDs, perturbation record).
    pub truth: GroundTruth,
}

impl Workload {
    /// Builds the workload described by `spec`.
    pub fn build(spec: &WorkloadSpec) -> Workload {
        let config = if spec.fd_count <= 1 {
            CensusLikeConfig {
                seed: spec.seed,
                ..CensusLikeConfig::single_fd(spec.tuples, spec.attributes, spec.lhs_size)
            }
        } else {
            CensusLikeConfig {
                seed: spec.seed,
                ..CensusLikeConfig::multi_fd(
                    spec.tuples,
                    spec.attributes,
                    spec.fd_count,
                    spec.lhs_size,
                )
            }
        };
        let (clean, fds) = generate_census_like(&config);
        // The experiment specs express the data error rate per *tuple* (as a
        // fraction of rows receiving one corrupted cell); `perturb` expects a
        // fraction of cells, so divide by the arity. The paper's 34-attribute
        // Census extract and this 8–20 attribute synthetic substitute would
        // otherwise receive wildly different numbers of errors per row for
        // the same nominal rate.
        let cell_rate = spec.data_error_rate / (spec.attributes.max(1) as f64);
        let truth = perturb(
            &clean,
            &fds,
            &PerturbConfig {
                data_error_rate: cell_rate,
                fd_error_rate: spec.fd_error_rate,
                rhs_violation_fraction: 0.5,
                seed: spec.seed.wrapping_mul(31).wrapping_add(7),
            },
        );
        Workload {
            spec: spec.clone(),
            truth,
        }
    }

    /// The dirty instance handed to the repair algorithms.
    pub fn dirty_instance(&self) -> &Instance {
        &self.truth.dirty
    }

    /// The dirty FD set handed to the repair algorithms.
    pub fn dirty_fds(&self) -> &FdSet {
        &self.truth.sigma_dirty
    }

    /// A repair-engine session over the dirty `(I, Σ)` of this workload,
    /// seeded with the workload's seed: the entry point every experiment
    /// driver queries. `parallelism` controls all parallel stages;
    /// `max_expansions` caps each FD search.
    pub fn engine(
        &self,
        parallelism: Parallelism,
        max_expansions: usize,
    ) -> rt_engine::RepairEngine {
        rt_engine::RepairEngine::builder(self.truth.dirty.clone(), self.truth.sigma_dirty.clone())
            .weight(WeightKind::DistinctCount)
            .parallelism(parallelism)
            .max_expansions(max_expansions)
            .seed(self.spec.seed)
            .build()
            .expect("workload always yields a valid engine configuration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builds_and_violates_dirty_fds_when_perturbed() {
        let spec = WorkloadSpec {
            tuples: 400,
            attributes: 10,
            lhs_size: 4,
            data_error_rate: 0.01,
            fd_error_rate: 0.0,
            ..Default::default()
        };
        let w = Workload::build(&spec);
        assert_eq!(w.dirty_instance().len(), 400);
        assert!(!w.dirty_fds().holds_on(w.dirty_instance()));
        assert!(w.truth.sigma_clean.holds_on(&w.truth.clean));
    }

    #[test]
    fn scale_parsing_and_sizing() {
        assert_eq!("smoke".parse(), Ok(Scale::Smoke));
        assert_eq!("default".parse(), Ok(Scale::Default));
        assert_eq!("paper".parse(), Ok(Scale::Paper));
        assert!("smok".parse::<Scale>().is_err());
        assert_eq!(Scale::Smoke.tuples(1000), 250);
        assert_eq!(Scale::Default.tuples(1000), 1000);
        assert_eq!(Scale::Paper.tuples(1000), 5000);
    }

    #[test]
    fn multi_fd_workload_has_requested_fd_count() {
        let spec = WorkloadSpec {
            tuples: 300,
            attributes: 14,
            fd_count: 2,
            lhs_size: 3,
            data_error_rate: 0.005,
            fd_error_rate: 0.3,
            ..Default::default()
        };
        let w = Workload::build(&spec);
        assert_eq!(w.dirty_fds().len(), 2);
    }
}
