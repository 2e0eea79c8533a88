//! Error types for the ACE command language: lexical/syntactic errors from
//! the parser and semantic errors from command validation.

use crate::value::ValueType;
use std::fmt;

/// What went wrong while lexing/parsing a command string.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseErrorKind {
    /// A bare atom that is neither a number nor a `<WORD>` (e.g. `1.2.3`).
    BadAtom(String),
    /// A character outside the language's alphabet.
    UnexpectedChar(char),
    /// A `"` with no closing `"` on the same line.
    UnterminatedString,
    /// The input ended where a token was required.
    UnexpectedEnd(&'static str),
    /// A token appeared where a different one was required.
    Unexpected {
        expected: &'static str,
        found: String,
    },
    /// A vector mixed scalar types, e.g. `{1,foo}`.
    MixedVector {
        expected: &'static str,
        found: &'static str,
    },
    /// Extra input after the terminating `;`.
    TrailingInput,
    /// The command string was empty.
    Empty,
    /// The text part of a frame is not UTF-8.
    NotText,
    /// An `@<len>` reference and the frame's attachment section disagree:
    /// no section, fewer bytes than declared, or bytes nothing declared.
    Attachment(&'static str),
}

/// A lexical or syntactic error with the byte offset where it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub kind: ParseErrorKind,
    /// Byte offset into the source string.
    pub pos: usize,
}

impl ParseError {
    pub fn new(kind: ParseErrorKind, pos: usize) -> Self {
        ParseError { kind, pos }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::BadAtom(a) => write!(f, "bad token `{a}` at byte {}", self.pos),
            ParseErrorKind::UnexpectedChar(c) => {
                write!(f, "unexpected character `{c}` at byte {}", self.pos)
            }
            ParseErrorKind::UnterminatedString => {
                write!(f, "unterminated string starting at byte {}", self.pos)
            }
            ParseErrorKind::UnexpectedEnd(what) => {
                write!(f, "input ended while expecting {what}")
            }
            ParseErrorKind::Unexpected { expected, found } => {
                write!(f, "expected {expected}, found {found} at byte {}", self.pos)
            }
            ParseErrorKind::MixedVector { expected, found } => write!(
                f,
                "vector mixes element types ({expected} then {found}) at byte {}",
                self.pos
            ),
            ParseErrorKind::TrailingInput => {
                write!(f, "trailing input after `;` at byte {}", self.pos)
            }
            ParseErrorKind::Empty => write!(f, "empty command string"),
            ParseErrorKind::NotText => write!(f, "command text is not UTF-8"),
            ParseErrorKind::Attachment(what) => write!(f, "{what} at byte {}", self.pos),
        }
    }
}

impl std::error::Error for ParseError {}

/// What went wrong while validating a parsed command against a service's
/// command semantics (§2.2: "checks the incoming string for syntactic and
/// semantic correctness against those parameters defined within the
/// receiving daemon").
#[derive(Debug, Clone, PartialEq)]
pub enum SemanticError {
    /// The command name is not defined for this service.
    UnknownCommand(String),
    /// An argument name is not defined for this command.
    UnknownArg { cmd: String, arg: String },
    /// A required argument is missing.
    MissingArg { cmd: String, arg: String },
    /// An argument has the wrong type.
    TypeMismatch {
        cmd: String,
        arg: String,
        expected: String,
        found: ValueType,
    },
    /// The same argument appeared twice.
    DuplicateArg { cmd: String, arg: String },
}

impl fmt::Display for SemanticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticError::UnknownCommand(c) => write!(f, "unknown command `{c}`"),
            SemanticError::UnknownArg { cmd, arg } => {
                write!(f, "command `{cmd}` has no argument `{arg}`")
            }
            SemanticError::MissingArg { cmd, arg } => {
                write!(f, "command `{cmd}` requires argument `{arg}`")
            }
            SemanticError::TypeMismatch {
                cmd,
                arg,
                expected,
                found,
            } => write!(
                f,
                "argument `{arg}` of `{cmd}` must be {expected}, got {found}"
            ),
            SemanticError::DuplicateArg { cmd, arg } => {
                write!(f, "argument `{arg}` of `{cmd}` given more than once")
            }
        }
    }
}

impl std::error::Error for SemanticError {}

/// Either kind of language error; returned by the combined
/// parse-and-validate entry point used by daemons.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    Parse(ParseError),
    Semantic(SemanticError),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Parse(e) => write!(f, "parse error: {e}"),
            LangError::Semantic(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for LangError {}

impl From<ParseError> for LangError {
    fn from(e: ParseError) -> Self {
        LangError::Parse(e)
    }
}
impl From<SemanticError> for LangError {
    fn from(e: SemanticError) -> Self {
        LangError::Semantic(e)
    }
}
