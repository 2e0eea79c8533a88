//! # ace-lang — the ACE Service Command Language
//!
//! The common control language all ACE services share (§2.2 of the paper):
//! a Unix-flavoured `command arg=value …;` syntax with integers, floats,
//! words, strings, vectors, and arrays.  This crate provides:
//!
//! * [`Value`]/[`Scalar`] — the typed argument values,
//! * [`CmdLine`] — the `ACECmdLine` object built by clients and daemons,
//! * [`parser::parse`]/[`parser::parse_all`] — the ACE Command Parser,
//! * [`CmdLine::to_frame`]/[`parser::parse_frame`] — the link frame: the
//!   same text with [`Value::Blob`] arguments attached raw instead of
//!   written as hex words ([`hex`]),
//! * [`Semantics`]/[`CmdSpec`] — per-service command semantic definitions,
//!   with the inheritance mechanism that backs the service hierarchy (Fig. 6),
//! * [`Reply`]/[`ErrorCode`] — the return-command conventions.
//!
//! The design goal stated in the paper — "a very lightweight form of
//! communication … much more lightweight than utilizing something like
//! RMI" — is benchmarked against an RMI-style codec in `crates/baselines`
//! (experiment E3).
//!
//! ```
//! use ace_lang::{CmdLine, Semantics, CmdSpec, ArgType};
//!
//! let sem = Semantics::new().with(
//!     CmdSpec::new("ptzMove", "move the camera")
//!         .required("x", ArgType::Float, "pan angle")
//!         .required("y", ArgType::Float, "tilt angle"),
//! );
//!
//! let cmd = CmdLine::new("ptzMove").arg("x", 10).arg("y", -3);
//! let wire = cmd.to_wire();                 // "ptzMove x=10 y=-3;"
//! let back = CmdLine::parse(&wire).unwrap(); // exact copy on the far side
//! sem.validate(&back).unwrap();
//! assert_eq!(back, cmd);
//! ```

pub mod cmdline;
pub mod error;
pub mod hex;
pub mod lexer;
pub mod parser;
pub mod reply;
pub mod semantics;
pub mod value;

pub use cmdline::CmdLine;
pub use error::{LangError, ParseError, ParseErrorKind, SemanticError};
pub use hex::{hex_decode, hex_encode};
pub use parser::{parse, parse_all, parse_frame};
pub use reply::{ErrorCode, Reply};
pub use semantics::{ArgSpec, ArgType, CmdSpec, Semantics, DEADLINE_ARG};
pub use value::{Scalar, ScalarType, Value, ValueType};

/// Fetch a required text argument (word or string) from a [`CmdLine`], or
/// return an [`ErrorCode::Semantics`] error [`Reply`] from the enclosing
/// handler.  Semantic validation normally guarantees presence and type, but
/// handlers must stay panic-free even if spec and accessor drift apart.
#[macro_export]
macro_rules! req_text {
    ($cmd:expr, $name:literal) => {
        match $cmd.get_text($name) {
            Some(v) => v,
            None => {
                return $crate::Reply::err(
                    $crate::ErrorCode::Semantics,
                    concat!("missing or mistyped `", $name, "`"),
                )
            }
        }
    };
}

/// Fetch a required integer argument, or return a Semantics error [`Reply`]
/// from the enclosing handler.  See [`req_text!`].
#[macro_export]
macro_rules! req_int {
    ($cmd:expr, $name:literal) => {
        match $cmd.get_int($name) {
            Some(v) => v,
            None => {
                return $crate::Reply::err(
                    $crate::ErrorCode::Semantics,
                    concat!("missing or mistyped `", $name, "`"),
                )
            }
        }
    };
}

/// Fetch a required float argument (integers widen), or return a Semantics
/// error [`Reply`] from the enclosing handler.  See [`req_text!`].
#[macro_export]
macro_rules! req_f64 {
    ($cmd:expr, $name:literal) => {
        match $cmd.get_f64($name) {
            Some(v) => v,
            None => {
                return $crate::Reply::err(
                    $crate::ErrorCode::Semantics,
                    concat!("missing or mistyped `", $name, "`"),
                )
            }
        }
    };
}
