//! Error type shared by all tabular operations.

use std::fmt;

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, TabularError>;

/// Errors produced by frame construction, transformation and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TabularError {
    /// A column with this name already exists in the frame.
    DuplicateColumn(String),
    /// No column with this name exists in the frame.
    UnknownColumn(String),
    /// A column being added has a different length than the frame.
    LengthMismatch {
        /// Name of the offending column.
        column: String,
        /// Length the frame expects.
        expected: usize,
        /// Length the column actually has.
        actual: usize,
    },
    /// An operation required a different column type.
    TypeMismatch {
        /// Name of the offending column.
        column: String,
        /// Human-readable description of the expected type.
        expected: &'static str,
        /// Human-readable description of the actual type.
        actual: &'static str,
    },
    /// Row index out of bounds.
    RowOutOfBounds {
        /// The requested row.
        row: usize,
        /// Number of rows in the frame.
        n_rows: usize,
    },
    /// Malformed CSV input.
    Csv {
        /// 1-based line number where the problem was detected.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// Underlying I/O failure (message-only so the error stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for TabularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TabularError::DuplicateColumn(name) => {
                write!(f, "column '{name}' already exists")
            }
            TabularError::UnknownColumn(name) => write!(f, "unknown column '{name}'"),
            TabularError::LengthMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "column '{column}' has length {actual}, frame expects {expected}"
            ),
            TabularError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(f, "column '{column}' is {actual}, expected {expected}"),
            TabularError::RowOutOfBounds { row, n_rows } => {
                write!(f, "row {row} out of bounds for frame with {n_rows} rows")
            }
            TabularError::Csv { line, message } => write!(f, "csv error at line {line}: {message}"),
            TabularError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for TabularError {}

impl From<std::io::Error> for TabularError {
    fn from(e: std::io::Error) -> Self {
        TabularError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(TabularError, &str)> = vec![
            (TabularError::DuplicateColumn("x".into()), "x"),
            (TabularError::UnknownColumn("y".into()), "y"),
            (
                TabularError::LengthMismatch {
                    column: "z".into(),
                    expected: 3,
                    actual: 5,
                },
                "length 5",
            ),
            (
                TabularError::TypeMismatch {
                    column: "w".into(),
                    expected: "f64",
                    actual: "str",
                },
                "expected f64",
            ),
            (TabularError::RowOutOfBounds { row: 9, n_rows: 2 }, "row 9"),
            (
                TabularError::Csv {
                    line: 4,
                    message: "unterminated quote".into(),
                },
                "line 4",
            ),
            (TabularError::Io("boom".into()), "boom"),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let err: TabularError = io.into();
        assert!(matches!(err, TabularError::Io(_)));
    }
}
