//! Error type shared by the database substrate.

use std::fmt;

/// Errors raised while building or querying a [`crate::Database`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A table name was referenced that does not exist in the catalog.
    UnknownTable(String),
    /// A column name was referenced that does not exist in the given table.
    UnknownColumn { table: String, column: String },
    /// A table with this name was declared twice.
    DuplicateTable(String),
    /// A column with this name was declared twice within one table.
    DuplicateColumn { table: String, column: String },
    /// A row was inserted whose arity differs from the table schema.
    ArityMismatch {
        table: String,
        expected: usize,
        got: usize,
    },
    /// A value's runtime type disagrees with the declared column type.
    TypeMismatch {
        table: String,
        column: String,
        expected: crate::types::DataType,
        got: &'static str,
    },
    /// A NULL was inserted into a column declared NOT NULL.
    NullViolation { table: String, column: String },
    /// A bulk-append batch's columns disagree on row count.
    RaggedBatch {
        table: String,
        column: String,
        expected: usize,
        got: usize,
    },
    /// A file-backed ingest could not read its input.
    Io { path: String, message: String },
    /// `Value::Decimal` must hold a finite number; NaN/±inf are rejected so
    /// that values stay totally ordered and hashable.
    NonFiniteDecimal,
    /// A foreign key declaration referenced columns of differing types.
    ForeignKeyTypeMismatch { from: String, to: String },
    /// A foreign key joined a column pair already declared, in either
    /// direction.
    DuplicateForeignKey { from: String, to: String },
    /// A PJ query referenced a node slot or column that is out of range.
    InvalidQuery(String),
    /// Execution stopped at the deadline attached to its scratch
    /// ([`crate::ExecScratch::set_deadline`]). Not a query error: the
    /// caller asked the executor to stop.
    Cancelled,
    /// A typed batch push hit a column of a different kind (e.g.
    /// `push_str` into an int column).
    BatchKindMismatch {
        column: usize,
        pushed: &'static str,
        column_kind: &'static str,
    },
    /// A parallel CSV chunk parser panicked. Parsing is deterministic, so
    /// the chunk is parsed once; its starting row locates the bad input.
    IngestPanic { chunk_row: usize, message: String },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            DbError::UnknownColumn { table, column } => {
                write!(f, "unknown column `{table}.{column}`")
            }
            DbError::DuplicateTable(t) => write!(f, "table `{t}` declared twice"),
            DbError::DuplicateColumn { table, column } => {
                write!(f, "column `{table}.{column}` declared twice")
            }
            DbError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "row for `{table}` has {got} values but the schema has {expected} columns"
            ),
            DbError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "value of type {got} cannot be stored in `{table}.{column}` of type {expected}"
            ),
            DbError::NullViolation { table, column } => {
                write!(f, "NULL inserted into NOT NULL column `{table}.{column}`")
            }
            DbError::RaggedBatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "batch column `{table}.{column}` has {got} rows but the batch's first column has {expected}"
            ),
            DbError::Io { path, message } => {
                write!(f, "cannot read `{path}`: {message}")
            }
            DbError::NonFiniteDecimal => {
                write!(f, "decimal values must be finite (no NaN or infinity)")
            }
            DbError::ForeignKeyTypeMismatch { from, to } => {
                write!(
                    f,
                    "foreign key `{from}` -> `{to}` joins columns of different types"
                )
            }
            DbError::DuplicateForeignKey { from, to } => {
                write!(f, "join `{from}` = `{to}` declared twice")
            }
            DbError::InvalidQuery(msg) => write!(f, "invalid PJ query: {msg}"),
            DbError::Cancelled => write!(f, "execution cancelled at the deadline"),
            DbError::BatchKindMismatch {
                column,
                pushed,
                column_kind,
            } => write!(
                f,
                "{pushed} into a {column_kind} batch column (column {column})"
            ),
            DbError::IngestPanic { chunk_row, message } => write!(
                f,
                "CSV parse worker panicked on the chunk starting at row {chunk_row}: {message}"
            ),
        }
    }
}

impl std::error::Error for DbError {}

/// Best-effort text of a caught panic payload: the `&str` and `String`
/// forms cover `panic!` and `assert!`; anything else is opaque. Pass the
/// payload itself (`&*payload`), not the `Box` holding it.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_identifiers() {
        let e = DbError::UnknownTable("Lake".into());
        assert!(e.to_string().contains("Lake"));
        let e = DbError::UnknownColumn {
            table: "Lake".into(),
            column: "Area".into(),
        };
        assert!(e.to_string().contains("Lake.Area"));
        let e = DbError::ArityMismatch {
            table: "Lake".into(),
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&DbError::NonFiniteDecimal);
    }
}
