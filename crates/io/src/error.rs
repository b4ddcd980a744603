//! The error type of the ingestion layer.

use rt_relation::RelationError;
use std::fmt;

/// Everything that can go wrong while reading a CSV/TSV source.
///
/// File-access failures and syntax failures are deliberately separate
/// variants: the CLI maps them onto `EngineError::Io` and
/// `EngineError::Parse` respectively, so "the file is missing" and "line 17
/// is malformed" exit with different messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// Underlying I/O failed (stringified so the type stays `Clone + Eq`).
    Io(String),
    /// The input text is not well-formed under the configured dialect, or a
    /// field does not parse under its column type. `line` is the 1-based
    /// physical line on which the offending record starts.
    Parse {
        /// 1-based physical line number of the record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A failure from the relational substrate (bad schema, arity, …).
    Relation(RelationError),
}

impl IoError {
    /// Convenience constructor for parse failures.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        IoError::Parse {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(msg) => write!(f, "io error: {msg}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Relation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e.to_string())
    }
}

impl From<RelationError> for IoError {
    fn from(e: RelationError) -> Self {
        IoError::Relation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = IoError::parse(17, "expected 3 fields, found 2");
        assert_eq!(e.to_string(), "line 17: expected 3 fields, found 2");
        let e: IoError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.to_string().contains("gone"));
        let e: IoError = RelationError::DuplicateAttribute("dup".into()).into();
        assert!(e.to_string().contains("dup"));
    }
}
