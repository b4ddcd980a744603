//! Error types for the relational substrate.

use std::fmt;

/// Errors raised while constructing or manipulating schemas, tuples and
/// instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationError {
    /// A schema was declared with more attributes than the bitset-based
    /// attribute sets support (64).
    TooManyAttributes {
        /// Number of attributes requested.
        requested: usize,
        /// Maximum supported.
        max: usize,
    },
    /// Two attributes with the same name were added to one schema.
    DuplicateAttribute(String),
    /// An attribute name was looked up but does not exist in the schema.
    UnknownAttribute(String),
    /// An attribute id was out of range for the schema.
    AttributeOutOfRange {
        /// Offending index.
        index: usize,
        /// Number of attributes in the schema.
        arity: usize,
    },
    /// A tuple had the wrong number of cells for the schema it was added to.
    ArityMismatch {
        /// Cells in the tuple.
        tuple: usize,
        /// Attributes in the schema.
        schema: usize,
    },
    /// A row index was out of range for the instance.
    RowOutOfRange {
        /// Offending row.
        row: usize,
        /// Number of rows.
        rows: usize,
    },
    /// Two instances were diffed/compared but have different schemas or sizes.
    IncompatibleInstances(String),
    /// Underlying I/O error (stringified so the error type stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for RelationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelationError::TooManyAttributes { requested, max } => {
                write!(
                    f,
                    "schema has {requested} attributes, at most {max} are supported"
                )
            }
            RelationError::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute name `{name}`")
            }
            RelationError::UnknownAttribute(name) => {
                write!(f, "unknown attribute `{name}`")
            }
            RelationError::AttributeOutOfRange { index, arity } => {
                write!(
                    f,
                    "attribute index {index} out of range for schema of arity {arity}"
                )
            }
            RelationError::ArityMismatch { tuple, schema } => {
                write!(
                    f,
                    "tuple has {tuple} cells but schema has {schema} attributes"
                )
            }
            RelationError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for instance with {rows} rows")
            }
            RelationError::IncompatibleInstances(msg) => {
                write!(f, "incompatible instances: {msg}")
            }
            RelationError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for RelationError {}

impl From<std::io::Error> for RelationError {
    fn from(e: std::io::Error) -> Self {
        RelationError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = RelationError::TooManyAttributes {
            requested: 70,
            max: 64,
        };
        assert!(e.to_string().contains("70"));
        assert!(e.to_string().contains("64"));

        let e = RelationError::DuplicateAttribute("Income".into());
        assert!(e.to_string().contains("Income"));

        let e = RelationError::ArityMismatch {
            tuple: 3,
            schema: 5,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('5'));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing file");
        let e: RelationError = io.into();
        assert!(matches!(e, RelationError::Io(_)));
        assert!(e.to_string().contains("missing file"));
    }
}
