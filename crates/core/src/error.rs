//! The one error type of the public API.
//!
//! One enum covers what used to be three error surfaces — the session's
//! own error type, the constraint parser's [`ConstraintError`], and ad-hoc
//! protocol strings ("no search has been run", "no result #i"): a single
//! [`enum@Error`] implementing [`std::error::Error`], re-exported from the
//! facade crate.

use crate::constraints::ConstraintError;

/// Everything a discovery session can report to its caller.
#[derive(Debug)]
pub enum Error {
    /// Cell indices outside the configured grid.
    OutOfRange { row: usize, column: usize },
    /// Metadata entry attempted with metadata disabled.
    MetadataDisabled,
    /// Constraint text failed to parse/validate.
    Constraint(ConstraintError),
    /// `@name` predicates referenced functions missing from the session's
    /// [`prism_lang::UdfRegistry`].
    UnknownUdfs(Vec<String>),
    /// A result accessor was called before any search ran.
    NoSearchRun,
    /// A result index beyond the last search's query list.
    NoSuchResult(usize),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::OutOfRange { row, column } => {
                write!(f, "cell ({row}, {column}) is outside the constraint grid")
            }
            Error::MetadataDisabled => {
                write!(f, "metadata constraints are disabled in the configuration")
            }
            Error::Constraint(e) => write!(f, "{e}"),
            Error::UnknownUdfs(names) => {
                write!(f, "unknown user-defined functions: {}", names.join(", "))
            }
            Error::NoSearchRun => write!(f, "no search has been run"),
            Error::NoSuchResult(index) => write!(f, "no result #{index}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Constraint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstraintError> for Error {
    fn from(e: ConstraintError) -> Error {
        Error::Constraint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_strings_are_stable() {
        // The demo UI (and the old session error type) rendered exactly these.
        let cases: Vec<(Error, &str)> = vec![
            (
                Error::OutOfRange { row: 5, column: 0 },
                "cell (5, 0) is outside the constraint grid",
            ),
            (
                Error::MetadataDisabled,
                "metadata constraints are disabled in the configuration",
            ),
            (
                Error::UnknownUdfs(vec!["a".into(), "b".into()]),
                "unknown user-defined functions: a, b",
            ),
            (Error::NoSearchRun, "no search has been run"),
            (Error::NoSuchResult(3), "no result #3"),
        ];
        for (e, want) in cases {
            assert_eq!(e.to_string(), want);
        }
    }

    #[test]
    fn constraint_errors_convert_and_chain() {
        let e: Error = ConstraintError::Empty.into();
        assert!(matches!(e, Error::Constraint(ConstraintError::Empty)));
        let source = std::error::Error::source(&e);
        assert!(source.is_some(), "Constraint carries its source");
        assert!(std::error::Error::source(&Error::NoSearchRun).is_none());
    }
}
