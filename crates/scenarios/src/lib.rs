//! # rt-scenarios
//!
//! A catalog of named, seeded, end-to-end repair scenarios.
//!
//! Every workload used to enter the system through `rt-datagen`'s census
//! generator or hand-built instances. This crate is the scenario front
//! door the ROADMAP asks for: each scenario couples a data source (a
//! bundled CSV fixture loaded through the typed `rt-io` path, or a seeded
//! generator), a planted FD set that holds exactly on the clean data, and
//! a seeded error injector ([`inject()`]) producing the dirty `(I, Σ)` pair
//! a repair engine is pointed at. Everything is deterministic per seed, so
//! scenarios double as CI benchmark workloads (`bench_gate`) and are
//! runnable from the shell via `rtclean scenario <name>`.
//!
//! | name | source | flavour |
//! |---|---|---|
//! | `hospital` | bundled CSV fixture (typed load) | HOSP-style provider records, typos + corruption + a spurious FD |
//! | `census`   | `rt-datagen` generator | the paper's Section 8.1 perturbation |
//! | `sensors`  | seeded generator | float readings, swapped device/site pairs |
//! | `orders`   | seeded generator | denormalized reference data, composite-FD corruption |
//! | `warehouse` | seeded generator | 1M-row (default) region-sharded shipments; absolute error count, flat per-row work |
//!
//! ```
//! use rt_scenarios::{build, ScenarioConfig};
//!
//! let scenario = build("sensors", &ScenarioConfig::default()).unwrap();
//! assert!(scenario.clean_fds.holds_on(&scenario.clean));
//! assert!(!scenario.dirty_fds.holds_on(&scenario.dirty));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod inject;

pub use inject::{inject, ErrorSpec, InjectionReport};

use rt_constraints::{Fd, FdSet};
use rt_io::CsvOptions;
use rt_relation::Instance;

/// The bundled HOSP-style fixture (70 rows, 13 columns: quoted names,
/// null scores, a float column) — also the corpus of the `csv_load`
/// benchmark scenario.
pub const HOSPITAL_CSV: &str = include_str!("../fixtures/hospital.csv");

/// Names of the *small* benchmark scenarios, in display order — the set
/// `bench_gate` sweeps generically. The scale-up `warehouse` scenario is
/// deliberately not in this list (its 1M-row default would swamp the
/// generic sweep; `bench_gate` measures it with its own tiered driver) but
/// is in [`catalog`] like every other scenario.
pub const SCENARIO_NAMES: [&str; 4] = ["hospital", "census", "sensors", "orders"];

/// Errors injected into the `warehouse` scenario — an absolute count, not
/// a rate, so repair-search work is constant across row scales.
pub const WAREHOUSE_ERRORS: usize = 48;

/// Size and seed knobs common to every scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// RNG seed for generation and injection.
    pub seed: u64,
    /// Number of rows; `None` uses the scenario's default (fixture-backed
    /// scenarios cap at the fixture size).
    pub rows: Option<usize>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 17,
            rows: None,
        }
    }
}

/// A fully built scenario: the clean ground truth, the dirty pair handed
/// to the engine, and the injection record connecting them.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Catalog name.
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The clean instance the errors were injected into.
    pub clean: Instance,
    /// The FDs that hold exactly on `clean`.
    pub clean_fds: FdSet,
    /// The dirty instance handed to the repair engine.
    pub dirty: Instance,
    /// The (possibly corrupted) FD set handed to the repair engine.
    pub dirty_fds: FdSet,
    /// What the injector did.
    pub report: InjectionReport,
}

/// A catalog entry: name + description, without building anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioInfo {
    /// Catalog name (pass to [`build`]).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
}

const CATALOG: [ScenarioInfo; 5] = [
    ScenarioInfo {
        name: "hospital",
        description: "HOSP-style provider records from a bundled CSV fixture; \
                      typos and in-domain corruption, plus one spurious FD",
    },
    ScenarioInfo {
        name: "census",
        description: "census-like categorical data with the paper's Section 8.1 \
                      FD and data perturbation",
    },
    ScenarioInfo {
        name: "sensors",
        description: "sensor readings (float column) with swapped device/site \
                      pairs and in-domain corruption",
    },
    ScenarioInfo {
        name: "orders",
        description: "denormalized orders with customer/product reference FDs; \
                      the composite shipping FD is corrupted",
    },
    ScenarioInfo {
        name: "warehouse",
        description: "1M-row (default) shipments with region-scoped store/product \
                      keys — the sharded scale-up workload; 48 absolute errors",
    },
];

/// The scenario catalog, in display order.
pub fn catalog() -> &'static [ScenarioInfo] {
    &CATALOG
}

/// Builds a scenario by catalog name.
///
/// # Errors
///
/// Returns a message listing the known names when `name` is not in the
/// catalog.
pub fn build(name: &str, config: &ScenarioConfig) -> Result<Scenario, String> {
    match name {
        "hospital" => Ok(hospital(config)),
        "census" => Ok(census(config)),
        "sensors" => Ok(sensors(config)),
        "orders" => Ok(orders(config)),
        "warehouse" => Ok(warehouse(config)),
        other => Err(format!(
            "unknown scenario `{other}`; known scenarios: {}",
            CATALOG
                .iter()
                .map(|i| i.name)
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn info(name: &str) -> ScenarioInfo {
    *CATALOG
        .iter()
        .find(|i| i.name == name)
        .expect("catalog covers every builder")
}

/// HOSP-style hospital records from the bundled fixture, loaded through
/// the typed `rt-io` path. Data errors are typos and in-domain corruption;
/// the constraint error is a *spurious* FD (`condition → measure_code`)
/// that the clean data already violates — an inaccurate constraint rather
/// than a corrupted one.
fn hospital(config: &ScenarioConfig) -> Scenario {
    let options = CsvOptions::csv().relation("hospital");
    let clean = rt_io::read_instance(HOSPITAL_CSV.as_bytes(), &options)
        .expect("bundled fixture parses")
        .instance;
    let clean = match config.rows {
        Some(n) if n < clean.len() => clean.truncate(n),
        _ => clean,
    };
    let schema = clean.schema().clone();
    let clean_fds = FdSet::parse(
        &[
            "zip->city",
            "zip->state",
            "provider_id->hospital_name",
            "provider_id->phone",
            "measure_code->measure_name",
        ],
        &schema,
    )
    .expect("fixture FDs parse");
    let (dirty, mut dirty_fds, report) = inject(
        &clean,
        &clean_fds,
        &ErrorSpec {
            typo_rate: 0.012,
            swap_rate: 0.0,
            corrupt_rate: 0.006,
            fd_drop_rate: 0.0,
            seed: config.seed,
        },
    );
    // The inaccurate constraint: one condition spans several measure
    // codes, so this FD is false on the clean data and a τ = 0 repair must
    // relax it rather than touch the records.
    dirty_fds.push(Fd::parse("condition->measure_code", &schema).expect("spurious FD parses"));
    Scenario {
        name: info("hospital").name,
        description: info("hospital").description,
        clean,
        clean_fds,
        dirty,
        dirty_fds,
        report,
    }
}

/// The paper's census-like workload, wrapped as a catalog scenario (the
/// generation and Section 8.1 perturbation live in `rt-datagen`).
fn census(config: &ScenarioConfig) -> Scenario {
    use rt_datagen::{generate_census_like, perturb, CensusLikeConfig, PerturbConfig};
    let rows = config.rows.unwrap_or(240);
    let (clean, clean_fds) = generate_census_like(&CensusLikeConfig {
        seed: config.seed,
        ..CensusLikeConfig::multi_fd(rows, 10, 2, 3)
    });
    let truth = perturb(
        &clean,
        &clean_fds,
        &PerturbConfig {
            data_error_rate: 0.008,
            fd_error_rate: 0.34,
            rhs_violation_fraction: 0.5,
            seed: config.seed.wrapping_mul(31).wrapping_add(7),
        },
    );
    let report = InjectionReport {
        corruptions: truth.perturbed_cells.len(),
        fd_attrs_dropped: truth.removed_attr_count(),
        dropped_per_fd: truth.removed_lhs_attrs.clone(),
        ..Default::default()
    };
    Scenario {
        name: info("census").name,
        description: info("census").description,
        clean,
        clean_fds,
        dirty: truth.dirty,
        dirty_fds: truth.sigma_dirty,
        report,
    }
}

/// Sensor readings with value swaps (readings attached to the wrong
/// device) and in-domain corruption.
fn sensors(config: &ScenarioConfig) -> Scenario {
    let rows = config.rows.unwrap_or(160);
    let (clean, clean_fds) = gen::sensor_readings(rows, config.seed);
    let (dirty, dirty_fds, report) = inject(
        &clean,
        &clean_fds,
        &ErrorSpec {
            typo_rate: 0.004,
            swap_rate: 0.03,
            corrupt_rate: 0.004,
            fd_drop_rate: 0.0,
            seed: config.seed ^ 0x5E45,
        },
    );
    Scenario {
        name: info("sensors").name,
        description: info("sensors").description,
        clean,
        clean_fds,
        dirty,
        dirty_fds,
        report,
    }
}

/// Denormalized orders; the composite `sku, warehouse → ship_mode` FD
/// loses one of its LHS attributes to the FD-corruption channel (at rate
/// 0.9; a few seeds leave it intact), yielding a constraint that is
/// genuinely false on the clean data — `ship_mode` is determined only by
/// the full pair.
fn orders(config: &ScenarioConfig) -> Scenario {
    let rows = config.rows.unwrap_or(180);
    let (clean, clean_fds) = gen::orders(rows, config.seed);
    let (dirty, dirty_fds, report) = inject(
        &clean,
        &clean_fds,
        &ErrorSpec {
            typo_rate: 0.004,
            swap_rate: 0.0,
            corrupt_rate: 0.006,
            fd_drop_rate: 0.9,
            seed: config.seed ^ 0x08DE,
        },
    );
    Scenario {
        name: info("orders").name,
        description: info("orders").description,
        clean,
        clean_fds,
        dirty,
        dirty_fds,
        report,
    }
}

/// The scale-up workload: `rows` (default 1 000 000) shipment records whose
/// store/product keys are region-scoped, so the conflict graph decomposes
/// into ~one component per [`gen::WAREHOUSE_ROWS_PER_REGION`] rows and a
/// sharded engine build gets real, independent shards. Errors are an
/// absolute count ([`WAREHOUSE_ERRORS`]) of out-of-domain store cities —
/// constant search work at every scale; only the linear ingestion and
/// graph-build work grows with `rows`.
fn warehouse(config: &ScenarioConfig) -> Scenario {
    let rows = config.rows.unwrap_or(1_000_000);
    let (clean, clean_fds) = gen::warehouse(rows, config.seed);
    let (dirty, dirty_fds) = gen::warehouse_with_errors(rows, config.seed, WAREHOUSE_ERRORS);
    let report = InjectionReport {
        corruptions: WAREHOUSE_ERRORS.min(rows),
        ..Default::default()
    };
    Scenario {
        name: info("warehouse").name,
        description: info("warehouse").description,
        clean,
        clean_fds,
        dirty,
        dirty_fds,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_catalog_scenario_builds_dirty_and_deterministic() {
        for entry in catalog() {
            // The warehouse default is 1M rows — scale it down for a unit
            // test; everything it proves is row-count independent.
            let config = ScenarioConfig {
                rows: (entry.name == "warehouse").then_some(3000),
                ..ScenarioConfig::default()
            };
            let s = build(entry.name, &config).unwrap();
            assert_eq!(s.name, entry.name);
            assert!(!s.clean.is_empty(), "{}: empty clean instance", entry.name);
            assert!(
                s.clean_fds.holds_on(&s.clean),
                "{}: clean FDs must hold on clean data",
                entry.name
            );
            assert!(
                !s.dirty_fds.holds_on(&s.dirty),
                "{}: scenario must hand the engine a real conflict",
                entry.name
            );
            // Deterministic per seed, different across seeds.
            let again = build(entry.name, &config).unwrap();
            assert_eq!(s.dirty, again.dirty, "{}", entry.name);
            assert_eq!(s.dirty_fds, again.dirty_fds, "{}", entry.name);
            let other = build(
                entry.name,
                &ScenarioConfig {
                    seed: 99,
                    rows: config.rows,
                },
            )
            .unwrap();
            assert_ne!(s.dirty, other.dirty, "{}", entry.name);
        }
    }

    #[test]
    fn unknown_names_are_rejected_with_the_catalog() {
        let err = build("nope", &ScenarioConfig::default()).unwrap_err();
        assert!(err.contains("hospital") && err.contains("orders"));
    }

    #[test]
    fn hospital_fixture_loads_typed() {
        use rt_relation::ColumnType;
        let report = rt_io::read_instance(HOSPITAL_CSV.as_bytes(), &CsvOptions::csv()).unwrap();
        assert_eq!(report.instance.len(), 70);
        assert_eq!(report.instance.schema().arity(), 13);
        // provider_id int, score float (with nulls), sample_size int.
        assert_eq!(report.columns[0], ColumnType::Int);
        assert_eq!(report.columns[11], ColumnType::Float);
        assert_eq!(report.columns[12], ColumnType::Int);
        assert!(report.null_cells > 0);
    }

    #[test]
    fn rows_config_scales_generated_scenarios() {
        let small = build(
            "orders",
            &ScenarioConfig {
                rows: Some(60),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(small.dirty.len(), 60);
        let capped = build(
            "hospital",
            &ScenarioConfig {
                rows: Some(20),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(capped.dirty.len(), 20);
    }
}
