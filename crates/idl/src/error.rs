//! Error type for the IDL pipeline.

use std::fmt;

/// Errors from parsing, type checking, or marshalling.
#[derive(Debug, Clone, PartialEq)]
pub enum IdlError {
    /// A lexical error at a source position.
    Lex {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What went wrong.
        message: String,
    },
    /// A syntax error at a source position.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        col: usize,
        /// What was expected / found.
        message: String,
    },
    /// A semantic error (duplicate procedure, bad type use, …).
    Semantic(String),
    /// A marshalling buffer was too small.
    BufferTooSmall {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        available: usize,
    },
    /// Marshalled data did not match the expected plan.
    Marshal(String),
    /// Wrong number of arguments for a procedure.
    ArityMismatch {
        /// Procedure name.
        procedure: String,
        /// Declared parameter count.
        expected: usize,
        /// Supplied argument count.
        found: usize,
    },
    /// No such procedure in the interface.
    NoSuchProcedure(String),
}

impl fmt::Display for IdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdlError::Lex { line, col, message } => {
                write!(f, "lex error at {line}:{col}: {message}")
            }
            IdlError::Parse { line, col, message } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            IdlError::Semantic(m) => write!(f, "semantic error: {m}"),
            IdlError::BufferTooSmall { needed, available } => {
                write!(
                    f,
                    "marshal buffer too small: need {needed}, have {available}"
                )
            }
            IdlError::Marshal(m) => write!(f, "marshal error: {m}"),
            IdlError::ArityMismatch {
                procedure,
                expected,
                found,
            } => write!(
                f,
                "procedure `{procedure}` takes {expected} arguments, {found} supplied"
            ),
            IdlError::NoSuchProcedure(p) => write!(f, "no such procedure `{p}`"),
        }
    }
}

impl std::error::Error for IdlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_stay_small() {
        // Every marshalling step returns `Result<_, IdlError>`; the error
        // sets the size of all of them.
        assert!(std::mem::size_of::<IdlError>() <= 48);
    }

    #[test]
    fn display_mentions_position() {
        let e = IdlError::Parse {
            line: 3,
            col: 14,
            message: "expected `;`".into(),
        };
        let s = e.to_string();
        assert!(s.contains("3:14"));
        assert!(s.contains("expected `;`"));
    }
}
