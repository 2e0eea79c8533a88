//! Command semantics (§2.2–2.3): the per-service definition of which
//! commands exist, which arguments they take, and of what types.
//!
//! "For each unique daemon implementation, a set of command and argument
//! semantics must be defined, within the basic language structure, and
//! tailored to fit the specific capabilities of that service daemon."
//!
//! Semantics objects are also how the daemon hierarchy (Fig. 6) works:
//! a child service *extends* its parent's semantics, inheriting every parent
//! command and adding (or overriding) its own.

use crate::cmdline::CmdLine;
use crate::error::SemanticError;
use crate::value::{ScalarType, Value};
use std::collections::HashMap;

/// Protocol-level argument carried by *any* command: the remaining
/// wall-clock budget, in milliseconds, that the sender is still willing to
/// wait for the reply.  Stamped by clients from their call timeout and
/// decremented across hops; a daemon sheds queued commands whose deadline
/// lapsed before execution (`E_DEADLINE`).  Accepted by every [`Semantics`]
/// vocabulary without per-command declaration, the same way transport
/// headers ride below application vocabularies.
pub const DEADLINE_ARG: &str = "deadline";

/// The type specification an argument must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgType {
    /// `<INTEGER>` only.
    Int,
    /// `<FLOAT>`; integers are accepted and widen (`x=3` satisfies a float).
    Float,
    /// `<WORD>` only.
    Word,
    /// `<STRING>` per the grammar: a quoted string *or* a word.
    Str,
    /// A vector whose elements are all of the given scalar type.  An empty
    /// vector satisfies any element type.
    Vector(ScalarType),
    /// An array whose elements are all of the given scalar type.
    Array(ScalarType),
    /// Binary data: a [`Value::Blob`], or its text form — a hex word
    /// (`x<hex>`, see [`crate::hex`]) — which is what a text-only client
    /// writes.  Handlers read either through [`CmdLine::get_blob`].
    Blob,
    /// Any value.
    Any,
}

impl ArgType {
    /// Does `value` satisfy this specification?
    pub fn accepts(&self, value: &Value) -> bool {
        match (self, value) {
            (ArgType::Any, _) => true,
            (ArgType::Int, Value::Int(_)) => true,
            (ArgType::Float, Value::Int(_) | Value::Float(_)) => true,
            (ArgType::Word, Value::Word(_)) => true,
            (ArgType::Str, Value::Str(_) | Value::Word(_)) => true,
            (ArgType::Blob, Value::Blob(_)) => true,
            (ArgType::Blob, Value::Word(w)) => crate::hex::is_hex_word(w),
            (ArgType::Vector(t), Value::Vector(v)) => {
                v.iter().all(|s| scalar_accepts(*t, s.scalar_type()))
            }
            (ArgType::Array(t), Value::Array(rows)) => rows
                .iter()
                .all(|row| row.iter().all(|s| scalar_accepts(*t, s.scalar_type()))),
            _ => false,
        }
    }

    /// Human-readable form for error messages.
    pub fn describe(&self) -> String {
        match self {
            ArgType::Int => "integer".into(),
            ArgType::Float => "float".into(),
            ArgType::Word => "word".into(),
            ArgType::Str => "string".into(),
            ArgType::Vector(t) => format!("vector of {t:?}"),
            ArgType::Array(t) => format!("array of {t:?}"),
            ArgType::Blob => "blob (or its hex word)".into(),
            ArgType::Any => "any value".into(),
        }
    }
}

fn scalar_accepts(spec: ScalarType, found: ScalarType) -> bool {
    match (spec, found) {
        (a, b) if a == b => true,
        // Integers widen to float, words narrow into strings — the same
        // coercions as at top level.
        (ScalarType::Float, ScalarType::Int) => true,
        (ScalarType::Str, ScalarType::Word) => true,
        _ => false,
    }
}

/// One argument of a command specification.
#[derive(Debug, Clone)]
pub struct ArgSpec {
    pub name: String,
    pub ty: ArgType,
    pub required: bool,
    /// One-line description, surfaced by the framework `describe` command.
    pub doc: String,
}

/// One command of a service's vocabulary.
#[derive(Debug, Clone)]
pub struct CmdSpec {
    pub name: String,
    pub args: Vec<ArgSpec>,
    pub doc: String,
}

impl CmdSpec {
    /// Start a command specification.
    pub fn new(name: impl Into<String>, doc: impl Into<String>) -> Self {
        CmdSpec {
            name: name.into(),
            args: Vec::new(),
            doc: doc.into(),
        }
    }

    /// Add a required argument.
    pub fn required(
        mut self,
        name: impl Into<String>,
        ty: ArgType,
        doc: impl Into<String>,
    ) -> Self {
        self.args.push(ArgSpec {
            name: name.into(),
            ty,
            required: true,
            doc: doc.into(),
        });
        self
    }

    /// Add an optional argument.
    pub fn optional(
        mut self,
        name: impl Into<String>,
        ty: ArgType,
        doc: impl Into<String>,
    ) -> Self {
        self.args.push(ArgSpec {
            name: name.into(),
            ty,
            required: false,
            doc: doc.into(),
        });
        self
    }

    fn arg(&self, name: &str) -> Option<&ArgSpec> {
        self.args.iter().find(|a| a.name == name)
    }
}

/// A service's full command vocabulary: the "command semantic definitions"
/// the receiving daemon validates every incoming string against.
#[derive(Debug, Clone, Default)]
pub struct Semantics {
    cmds: HashMap<String, CmdSpec>,
}

impl Semantics {
    /// An empty vocabulary.
    pub fn new() -> Self {
        Semantics::default()
    }

    /// Add (or override) a command definition.
    pub fn define(&mut self, spec: CmdSpec) -> &mut Self {
        self.cmds.insert(spec.name.clone(), spec);
        self
    }

    /// Builder-style [`Semantics::define`].
    pub fn with(mut self, spec: CmdSpec) -> Self {
        self.define(spec);
        self
    }

    /// Inherit every command of `parent` that this vocabulary does not
    /// already define.  This is the hierarchy mechanism of Fig. 6: "child
    /// nodes inherit methods, characteristics, and actions from the parent
    /// nodes … child nodes can be developed to be like their parent nodes
    /// but with additional functionalities."
    pub fn extend_from(&mut self, parent: &Semantics) -> &mut Self {
        for (name, spec) in &parent.cmds {
            self.cmds
                .entry(name.clone())
                .or_insert_with(|| spec.clone());
        }
        self
    }

    /// Builder-style [`Semantics::extend_from`].
    pub fn inheriting(mut self, parent: &Semantics) -> Self {
        self.extend_from(parent);
        self
    }

    /// Look up one command's specification.
    pub fn spec(&self, name: &str) -> Option<&CmdSpec> {
        self.cmds.get(name)
    }

    /// Iterate all command specifications (unordered).
    pub fn specs(&self) -> impl Iterator<Item = &CmdSpec> {
        self.cmds.values()
    }

    /// Number of commands defined.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// `true` if no commands are defined.
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Validate a parsed command against this vocabulary: known command name,
    /// no unknown/duplicate arguments, all required arguments present, every
    /// argument of the declared type.
    pub fn validate(&self, cmd: &CmdLine) -> Result<(), SemanticError> {
        let spec = self
            .cmds
            .get(cmd.name())
            .ok_or_else(|| SemanticError::UnknownCommand(cmd.name().to_string()))?;
        let mut seen: Vec<&str> = Vec::with_capacity(cmd.arg_count());
        for (name, value) in cmd.args() {
            if seen.contains(&name.as_str()) {
                return Err(SemanticError::DuplicateArg {
                    cmd: cmd.name().to_string(),
                    arg: name.clone(),
                });
            }
            seen.push(name);
            // The protocol-level deadline header is legal on every command
            // unless the vocabulary explicitly redefines it.
            if name == DEADLINE_ARG && spec.arg(name).is_none() {
                if !ArgType::Int.accepts(value) {
                    return Err(SemanticError::TypeMismatch {
                        cmd: cmd.name().to_string(),
                        arg: name.clone(),
                        expected: ArgType::Int.describe(),
                        found: value.value_type(),
                    });
                }
                continue;
            }
            let arg_spec = spec.arg(name).ok_or_else(|| SemanticError::UnknownArg {
                cmd: cmd.name().to_string(),
                arg: name.clone(),
            })?;
            if !arg_spec.ty.accepts(value) {
                return Err(SemanticError::TypeMismatch {
                    cmd: cmd.name().to_string(),
                    arg: name.clone(),
                    expected: arg_spec.ty.describe(),
                    found: value.value_type(),
                });
            }
        }
        for arg_spec in &spec.args {
            if arg_spec.required && !seen.contains(&arg_spec.name.as_str()) {
                return Err(SemanticError::MissingArg {
                    cmd: cmd.name().to_string(),
                    arg: arg_spec.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Render the vocabulary as a set of `command` reply lines, used by the
    /// built-in `describe` command.
    pub fn describe(&self) -> Vec<CmdLine> {
        let mut names: Vec<&String> = self.cmds.keys().collect();
        names.sort();
        names
            .iter()
            .map(|n| {
                let spec = &self.cmds[*n];
                let mut c = CmdLine::new("command")
                    .arg("name", spec.name.as_str())
                    .arg("doc", spec.doc.as_str());
                let args: Vec<crate::value::Scalar> = spec
                    .args
                    .iter()
                    .map(|a| crate::value::Scalar::Word(a.name.clone()))
                    .collect();
                c.push_arg("args", Value::Vector(args));
                c
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptz_semantics() -> Semantics {
        Semantics::new().with(
            CmdSpec::new("ptzMove", "move the camera")
                .required("x", ArgType::Float, "pan")
                .required("y", ArgType::Float, "tilt")
                .optional("zoom", ArgType::Float, "zoom factor")
                .optional("mode", ArgType::Word, "absolute|relative"),
        )
    }

    #[test]
    fn validate_ok() {
        let sem = ptz_semantics();
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 1.0)
            .arg("y", 2)
            .arg("mode", "absolute");
        assert!(sem.validate(&cmd).is_ok());
    }

    #[test]
    fn int_satisfies_float() {
        let sem = ptz_semantics();
        let cmd = CmdLine::new("ptzMove").arg("x", 1).arg("y", 2);
        assert!(sem.validate(&cmd).is_ok());
    }

    #[test]
    fn unknown_command_rejected() {
        let sem = ptz_semantics();
        let err = sem.validate(&CmdLine::new("fly")).unwrap_err();
        assert!(matches!(err, SemanticError::UnknownCommand(_)));
    }

    #[test]
    fn missing_required_rejected() {
        let sem = ptz_semantics();
        let err = sem
            .validate(&CmdLine::new("ptzMove").arg("x", 1))
            .unwrap_err();
        assert!(matches!(err, SemanticError::MissingArg { .. }));
    }

    #[test]
    fn unknown_arg_rejected() {
        let sem = ptz_semantics();
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 1)
            .arg("y", 2)
            .arg("speed", 3);
        let err = sem.validate(&cmd).unwrap_err();
        assert!(matches!(err, SemanticError::UnknownArg { .. }));
    }

    #[test]
    fn type_mismatch_rejected() {
        let sem = ptz_semantics();
        let cmd = CmdLine::new("ptzMove").arg("x", "left").arg("y", 2);
        let err = sem.validate(&cmd).unwrap_err();
        assert!(matches!(err, SemanticError::TypeMismatch { .. }));
    }

    #[test]
    fn duplicate_arg_rejected() {
        let sem = ptz_semantics();
        let mut cmd = CmdLine::new("ptzMove").arg("x", 1).arg("y", 2);
        cmd.push_arg("x", 3);
        let err = sem.validate(&cmd).unwrap_err();
        assert!(matches!(err, SemanticError::DuplicateArg { .. }));
    }

    #[test]
    fn word_satisfies_str_spec() {
        let sem = Semantics::new().with(CmdSpec::new("log", "log").required(
            "msg",
            ArgType::Str,
            "message",
        ));
        assert!(sem
            .validate(&CmdLine::new("log").arg("msg", "bareword"))
            .is_ok());
        assert!(sem
            .validate(&CmdLine::new("log").arg("msg", "two words"))
            .is_ok());
    }

    #[test]
    fn str_does_not_satisfy_word_spec() {
        let sem = Semantics::new().with(CmdSpec::new("c", "").required("w", ArgType::Word, ""));
        let err = sem
            .validate(&CmdLine::new("c").arg("w", "two words"))
            .unwrap_err();
        assert!(matches!(err, SemanticError::TypeMismatch { .. }));
    }

    #[test]
    fn vector_typing() {
        let sem = Semantics::new().with(CmdSpec::new("c", "").required(
            "v",
            ArgType::Vector(ScalarType::Float),
            "",
        ));
        let ints = CmdLine::parse("c v={1,2};").unwrap();
        assert!(sem.validate(&ints).is_ok(), "ints widen to float elements");
        let words = CmdLine::parse("c v={a,b};").unwrap();
        assert!(sem.validate(&words).is_err());
        let empty = CmdLine::parse("c v={};").unwrap();
        assert!(
            sem.validate(&empty).is_ok(),
            "empty vector satisfies any element type"
        );
    }

    #[test]
    fn blob_typing_accepts_the_text_form() {
        let sem = Semantics::new().with(CmdSpec::new("c", "").required("d", ArgType::Blob, ""));
        assert!(sem.validate(&CmdLine::new("c").arg("d", vec![0u8])).is_ok());
        assert!(sem.validate(&CmdLine::parse("c d=x00ff;").unwrap()).is_ok());
        for bad in ["c d=x00f;", "c d=notHex;", "c d=\"x00\";", "c d=7;"] {
            let err = sem.validate(&CmdLine::parse(bad).unwrap()).unwrap_err();
            assert!(matches!(err, SemanticError::TypeMismatch { .. }), "{bad}");
        }
        // A blob does not pass for text.
        let text = Semantics::new().with(CmdSpec::new("c", "").required("d", ArgType::Word, ""));
        assert!(text
            .validate(&CmdLine::new("c").arg("d", vec![0u8]))
            .is_err());
    }

    #[test]
    fn hierarchy_inheritance() {
        let base = Semantics::new().with(CmdSpec::new("ping", "liveness"));
        let child = Semantics::new()
            .with(CmdSpec::new("zoom", "camera-only").required("z", ArgType::Float, ""))
            .inheriting(&base);
        assert!(child.validate(&CmdLine::new("ping")).is_ok());
        assert!(child.validate(&CmdLine::new("zoom").arg("z", 2)).is_ok());
        // Parent does not gain child commands.
        assert!(base.validate(&CmdLine::new("zoom").arg("z", 2)).is_err());
    }

    #[test]
    fn child_overrides_win() {
        let base = Semantics::new().with(CmdSpec::new("set", "").required("a", ArgType::Int, ""));
        let child = Semantics::new()
            .with(CmdSpec::new("set", "").required("a", ArgType::Word, ""))
            .inheriting(&base);
        assert!(child.validate(&CmdLine::new("set").arg("a", "w")).is_ok());
        assert!(child.validate(&CmdLine::new("set").arg("a", 1)).is_err());
    }

    #[test]
    fn deadline_header_accepted_everywhere() {
        let sem = ptz_semantics();
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 1)
            .arg("y", 2)
            .arg(DEADLINE_ARG, 250);
        assert!(sem.validate(&cmd).is_ok());
        // Still typed: a non-integer deadline is rejected.
        let bad = CmdLine::new("ptzMove")
            .arg("x", 1)
            .arg("y", 2)
            .arg(DEADLINE_ARG, "soon");
        assert!(matches!(
            sem.validate(&bad).unwrap_err(),
            SemanticError::TypeMismatch { .. }
        ));
        // And still subject to the duplicate rule.
        let mut dup = CmdLine::new("ptzMove")
            .arg("x", 1)
            .arg("y", 2)
            .arg(DEADLINE_ARG, 250);
        dup.push_arg(DEADLINE_ARG, 300);
        assert!(matches!(
            sem.validate(&dup).unwrap_err(),
            SemanticError::DuplicateArg { .. }
        ));
    }

    #[test]
    fn explicit_deadline_spec_overrides_header() {
        // A vocabulary that declares its own `deadline` arg wins: the
        // declared type is enforced instead of the protocol Int.
        let sem = Semantics::new().with(CmdSpec::new("plan", "").required(
            DEADLINE_ARG,
            ArgType::Word,
            "symbolic deadline",
        ));
        assert!(sem
            .validate(&CmdLine::new("plan").arg(DEADLINE_ARG, "tonight"))
            .is_ok());
        assert!(sem
            .validate(&CmdLine::new("plan").arg(DEADLINE_ARG, 5))
            .is_err());
    }

    #[test]
    fn describe_lists_commands_sorted() {
        let sem = ptz_semantics();
        let d = sem.describe();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].get_text("name"), Some("ptzMove"));
    }
}
