//! The unified error type of the engine boundary.
//!
//! The crates below the engine report failure in three different styles:
//! `rt-relation` has a structured [`RelationError`], `rt-constraints`
//! returns `String` messages from FD parsing, and `rt-core` signals "no
//! repair" with `Option::None` (and panics on programmer error). At the
//! public API boundary all of them surface as one hand-rolled
//! [`EngineError`] — no `thiserror`, the build environment is offline.

use rt_relation::RelationError;
use std::fmt;

/// Everything that can go wrong while building or querying a
/// [`crate::RepairEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The builder was given an inconsistent or unusable configuration.
    InvalidConfig(String),
    /// An error from the relational substrate (schemas, instances, CSV).
    Relation(RelationError),
    /// A functional-dependency specification failed to parse or refers to
    /// attributes the instance's schema does not have.
    Fd(String),
    /// File-level I/O failed; `path` names the offending file.
    Io {
        /// The file involved.
        path: String,
        /// Stringified cause (kept `Clone + Eq`).
        message: String,
    },
    /// An input file was readable but malformed (CSV/TSV syntax, a field
    /// that does not parse under its column type, a ragged record, …).
    Parse {
        /// The file involved.
        path: String,
        /// 1-based line the offending record starts on (0 when unknown).
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A mutation batch failed validation against the engine's current
    /// state (out-of-range row, arity mismatch, unknown FD index, …).
    /// Nothing was applied: batches are all-or-nothing.
    Mutation(String),
    /// The FD-modification search hit its expansion cap before finding a
    /// repair within the cell budget `tau`: `max_expansions` was too small
    /// for the problem, and a larger cap may find one.
    BudgetExhausted {
        /// The cell budget the query asked for.
        tau: usize,
        /// The expansion cap that stopped the search.
        max_expansions: usize,
    },
    /// The search explored every FD relaxation without exceeding its
    /// expansion cap, and none fits the cell budget `tau`. Relaxing every
    /// FD as far as the schema allows need not remove every conflict — two
    /// rows that agree on all attributes but the RHS still violate it — so
    /// some budgets have no repair at all.
    NoRepair {
        /// The cell budget the query asked for.
        tau: usize,
    },
    /// Snapshot bytes could not be restored: they are truncated, corrupt,
    /// or of an unsupported format version. Restoring never panics — every
    /// defect lands here.
    Snapshot(String),
}

impl EngineError {
    /// Convenience constructor for file-level I/O failures.
    pub fn io(path: impl Into<String>, err: impl fmt::Display) -> Self {
        EngineError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }

    /// The stable wire code of this error variant.
    ///
    /// `rt-proto` keys error frames on this string so an `EngineError` can
    /// round-trip losslessly through `Response::Error`; the codes are part
    /// of the protocol and must never change meaning. `Display` output, by
    /// contrast, is free to evolve.
    pub fn code(&self) -> &'static str {
        match self {
            EngineError::InvalidConfig(_) => "invalid_config",
            EngineError::Relation(_) => "relation",
            EngineError::Fd(_) => "fd",
            EngineError::Io { .. } => "io",
            EngineError::Parse { .. } => "parse",
            EngineError::Mutation(_) => "mutation",
            EngineError::BudgetExhausted { .. } => "budget_exhausted",
            EngineError::NoRepair { .. } => "no_repair",
            EngineError::Snapshot(_) => "snapshot",
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            EngineError::Relation(e) => write!(f, "{e}"),
            EngineError::Fd(msg) => write!(f, "invalid functional dependency: {msg}"),
            EngineError::Io { path, message } => write!(f, "cannot access `{path}`: {message}"),
            EngineError::Parse {
                path,
                line,
                message,
            } => {
                if *line > 0 {
                    write!(f, "cannot parse `{path}`: line {line}: {message}")
                } else {
                    write!(f, "cannot parse `{path}`: {message}")
                }
            }
            EngineError::Mutation(msg) => write!(f, "invalid mutation batch: {msg}"),
            EngineError::BudgetExhausted {
                tau,
                max_expansions,
            } => write!(
                f,
                "no repair found within τ = {tau}: the search was truncated after \
                 {max_expansions} expansions (raise max_expansions)"
            ),
            EngineError::NoRepair { tau } => write!(
                f,
                "no repair exists within τ = {tau}: no relaxation of the FDs fits the cell \
                 budget (raise τ)"
            ),
            EngineError::Snapshot(msg) => write!(f, "invalid snapshot: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RelationError> for EngineError {
    fn from(e: RelationError) -> Self {
        EngineError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EngineError::InvalidConfig("max_expansions must be at least 1".into());
        assert!(e.to_string().contains("max_expansions"));

        let e = EngineError::BudgetExhausted {
            tau: 3,
            max_expansions: 10,
        };
        assert!(e.to_string().contains("τ = 3"));
        assert!(e.to_string().contains("10"));

        let e = EngineError::NoRepair { tau: 0 };
        assert!(e.to_string().contains("τ = 0"));
        assert!(!e.to_string().contains("truncated"));

        let e = EngineError::io("data.csv", "no such file");
        assert!(e.to_string().contains("data.csv"));
        assert!(e.to_string().contains("no such file"));

        let e = EngineError::Parse {
            path: "data.csv".into(),
            line: 17,
            message: "expected 3 fields, found 2".into(),
        };
        assert!(e.to_string().contains("line 17"));
        assert!(e.to_string().contains("data.csv"));
    }

    #[test]
    fn wire_codes_are_stable_and_distinct() {
        let errors = [
            EngineError::InvalidConfig("x".into()),
            EngineError::Relation(RelationError::Csv("x".into())),
            EngineError::Fd("x".into()),
            EngineError::io("p", "m"),
            EngineError::Parse {
                path: "p".into(),
                line: 1,
                message: "m".into(),
            },
            EngineError::Mutation("x".into()),
            EngineError::BudgetExhausted {
                tau: 1,
                max_expansions: 2,
            },
            EngineError::NoRepair { tau: 1 },
            EngineError::Snapshot("x".into()),
        ];
        let codes: Vec<&str> = errors.iter().map(EngineError::code).collect();
        assert_eq!(
            codes,
            vec![
                "invalid_config",
                "relation",
                "fd",
                "io",
                "parse",
                "mutation",
                "budget_exhausted",
                "no_repair",
                "snapshot"
            ]
        );
    }

    #[test]
    fn relation_errors_convert() {
        let e: EngineError = RelationError::Csv("bad header".into()).into();
        assert!(matches!(e, EngineError::Relation(_)));
        assert!(e.to_string().contains("bad header"));
    }
}
