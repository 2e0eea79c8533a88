//! The `ACECmdLine` object (§2.2): the in-memory form of a command.
//!
//! "Every command that is to be issued to an ACE service is first built as an
//! ACECmdLine object.  This object is then converted into a string by the
//! issuing client/daemon and is then transmitted over the network to the
//! receiving side."  [`CmdLine::to_wire`] is that conversion;
//! [`CmdLine::parse`] (in `parser.rs`) reconstructs an exact copy on the
//! receiving side.
//!
//! # The command frame
//!
//! A link carries a command as a *frame* ([`CmdLine::to_frame`] /
//! [`CmdLine::parse_frame`]): the same printable text, except that each
//! [`Value::Blob`] argument is written `name=@<len>` and its bytes follow
//! raw, in argument order, after a single `0x00` that ends the text:
//!
//! ```text
//! psPut ns=app key="k" data=@3 version=1;\0<3 bytes>
//! ```
//!
//! A command without a blob has no attachment section, so its frame is its
//! wire string byte for byte.  The declared lengths must add up to exactly
//! the bytes after the `0x00`.

use crate::error::ParseError;
use crate::value::{Scalar, Value};
use std::borrow::Cow;
use std::fmt::Write;

/// A parsed or under-construction ACE command: a command name plus an ordered
/// list of `name=value` arguments.
///
/// Argument order is preserved (it is part of the wire form), but lookup by
/// name is the primary access path.  Duplicate argument names are
/// representable here — semantics validation rejects them.
#[derive(Debug, Clone, PartialEq)]
pub struct CmdLine {
    name: String,
    args: Vec<(String, Value)>,
}

impl CmdLine {
    /// Start building a command.  `name` must be a valid `<WORD>`; this is
    /// asserted in debug builds and enforced at parse/validate time.
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        debug_assert!(crate::value::is_word(&name), "command name must be a word");
        CmdLine {
            name,
            args: Vec::new(),
        }
    }

    /// Builder-style argument append.
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push_arg(name, value);
        self
    }

    /// In-place argument append.
    pub fn push_arg(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        let name = name.into();
        debug_assert!(crate::value::is_word(&name), "argument name must be a word");
        self.args.push((name, value.into()));
    }

    /// Replace an argument's value, or append it if absent.
    pub fn set_arg(&mut self, name: &str, value: impl Into<Value>) {
        if let Some(slot) = self.args.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value.into();
        } else {
            self.args.push((name.to_string(), value.into()));
        }
    }

    /// Stamp (or tighten) the protocol-level `deadline` header: the
    /// remaining milliseconds the sender will wait for the reply.  Values
    /// clamp at zero so an already-expired budget still travels as a valid
    /// integer and is shed server-side.
    pub fn set_deadline_ms(&mut self, ms: i64) {
        self.set_arg(crate::semantics::DEADLINE_ARG, ms.max(0));
    }

    /// The protocol-level `deadline` header, if stamped.
    pub fn deadline_ms(&self) -> Option<i64> {
        self.get_int(crate::semantics::DEADLINE_ARG)
    }

    /// The command name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All arguments in wire order.
    pub fn args(&self) -> &[(String, Value)] {
        &self.args
    }

    /// Number of arguments.
    pub fn arg_count(&self) -> usize {
        self.args.len()
    }

    /// Look up an argument by name (first occurrence).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.args.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Integer argument accessor.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// Numeric argument accessor (integers widen).
    pub fn get_f64(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    /// Textual argument accessor (words and strings).
    pub fn get_text(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_text)
    }

    /// Vector argument accessor.
    pub fn get_vector(&self, name: &str) -> Option<&[Scalar]> {
        self.get(name).and_then(Value::as_vector)
    }

    /// Array argument accessor.
    pub fn get_array(&self, name: &str) -> Option<&[Vec<Scalar>]> {
        self.get(name).and_then(Value::as_array)
    }

    /// Binary argument accessor: a blob's bytes, or those its text form
    /// (a hex word) decodes to.
    pub fn get_blob(&self, name: &str) -> Option<Cow<'_, [u8]>> {
        self.get(name).and_then(Value::as_blob)
    }

    /// Boolean accessor: the words `true`/`false` (as produced by
    /// `Value::from(bool)`).
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        match self.get_text(name) {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        }
    }

    /// Convert to the wire string, terminated with `;` per the grammar:
    /// `<CMND> := <CMNDNAME><space>[<ARGLIST>];`
    ///
    /// Entirely printable: a blob renders as its hex word, which parses
    /// back to a `<WORD>` that [`CmdLine::get_blob`] reads as the same
    /// bytes.
    pub fn to_wire(&self) -> String {
        self.render(None, None, crate::hex::write_hex)
    }

    /// Convert to a link frame (see the module docs): the text with every
    /// blob as `@<len>`, then `0x00` and the blobs' bytes if there are any.
    pub fn to_frame(&self) -> Vec<u8> {
        self.frame(None)
    }

    /// The frame of this command stamped with [`CmdLine::set_deadline_ms`]`(ms)`
    /// — byte for byte — without building the stamped command: a caller
    /// holding `&CmdLine` stamps its budget while rendering instead of
    /// cloning every argument (a `psPut`'s whole blob) to append one integer.
    pub fn to_frame_with_deadline(&self, ms: i64) -> Vec<u8> {
        self.frame(Some(ms.max(0)))
    }

    fn frame(&self, deadline: Option<i64>) -> Vec<u8> {
        // Where `set_arg` would overwrite: the stamp goes there, else last.
        let replaced = deadline.and_then(|_| {
            let header = crate::semantics::DEADLINE_ARG;
            self.args.iter().position(|(name, _)| name == header)
        });
        // `Some` once any blob is seen: even an empty blob opens the section.
        let mut attached: Option<usize> = None;
        let text = self.render(deadline, replaced, |blob, out| {
            *attached.get_or_insert(0) += blob.len();
            let _ = write!(out, "@{}", blob.len());
        });
        let mut frame = text.into_bytes();
        if let Some(total) = attached {
            frame.reserve_exact(1 + total);
            frame.push(0);
            for (i, (_, value)) in self.args.iter().enumerate() {
                match value {
                    Value::Blob(b) if replaced != Some(i) => frame.extend_from_slice(b),
                    _ => {}
                }
            }
        }
        frame
    }

    /// The text of the command, blobs written by `write_blob`; with a
    /// `deadline`, that header's value stands at `replaced`, or is appended.
    fn render(
        &self,
        deadline: Option<i64>,
        replaced: Option<usize>,
        mut write_blob: impl FnMut(&[u8], &mut String),
    ) -> String {
        // Preallocate roughly: name + per-arg "name=value " with small values.
        let mut out = String::with_capacity(self.name.len() + 16 * (self.args.len() + 1) + 2);
        out.push_str(&self.name);
        for (i, (name, value)) in self.args.iter().enumerate() {
            out.push(' ');
            out.push_str(name);
            out.push('=');
            match (value, deadline) {
                (_, Some(ms)) if replaced == Some(i) => Value::Int(ms).write_wire(&mut out),
                (Value::Blob(b), _) => write_blob(b, &mut out),
                (other, _) => other.write_wire(&mut out),
            }
        }
        if let (Some(ms), None) = (deadline, replaced) {
            let _ = write!(out, " {}={ms}", crate::semantics::DEADLINE_ARG);
        }
        out.push(';');
        out
    }

    /// Parse a single wire command.  Convenience alias for
    /// [`crate::parser::parse`].
    pub fn parse(src: &str) -> Result<CmdLine, ParseError> {
        crate::parser::parse(src)
    }

    /// Parse a link frame.  Convenience alias for
    /// [`crate::parser::parse_frame`].
    pub fn parse_frame(frame: &[u8]) -> Result<CmdLine, ParseError> {
        crate::parser::parse_frame(frame)
    }
}

impl std::fmt::Display for CmdLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_wire())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_encode() {
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 10)
            .arg("y", -3)
            .arg("zoom", 1.5)
            .arg("mode", "absolute");
        assert_eq!(cmd.to_wire(), "ptzMove x=10 y=-3 zoom=1.5 mode=absolute;");
    }

    #[test]
    fn no_args_encodes_bare() {
        assert_eq!(CmdLine::new("ping").to_wire(), "ping;");
    }

    #[test]
    fn accessors() {
        let cmd = CmdLine::new("c")
            .arg("i", 4)
            .arg("f", 2.5)
            .arg("w", "word")
            .arg("s", "two words")
            .arg("b", true);
        assert_eq!(cmd.get_int("i"), Some(4));
        assert_eq!(cmd.get_f64("i"), Some(4.0));
        assert_eq!(cmd.get_f64("f"), Some(2.5));
        assert_eq!(cmd.get_text("w"), Some("word"));
        assert_eq!(cmd.get_text("s"), Some("two words"));
        assert_eq!(cmd.get_bool("b"), Some(true));
        assert_eq!(cmd.get_int("missing"), None);
    }

    #[test]
    fn set_arg_replaces() {
        let mut cmd = CmdLine::new("c").arg("x", 1);
        cmd.set_arg("x", 2);
        cmd.set_arg("y", 3);
        assert_eq!(cmd.get_int("x"), Some(2));
        assert_eq!(cmd.get_int("y"), Some(3));
        assert_eq!(cmd.arg_count(), 2);
    }

    #[test]
    fn frame_without_blob_is_the_wire_string() {
        let cmd = CmdLine::new("say").arg("text", "a; b").arg("n", 3);
        assert_eq!(cmd.to_frame(), cmd.to_wire().into_bytes());
    }

    #[test]
    fn frame_carries_blobs_raw_and_in_order() {
        let cmd = CmdLine::new("psPut")
            .arg("a", &b"\x00;"[..])
            .arg("n", 7)
            .arg("b", Vec::new())
            .arg("c", &b"\"@"[..]);
        assert_eq!(cmd.to_frame(), b"psPut a=@2 n=7 b=@0 c=@2;\0\x00;\"@");
        assert_eq!(cmd.to_wire(), "psPut a=x003b n=7 b=x c=x2240;");
        let back = CmdLine::parse_frame(&cmd.to_frame()).unwrap();
        assert_eq!(back, cmd);
        // The text form reads as the same bytes through the one accessor.
        let text = CmdLine::parse(&cmd.to_wire()).unwrap();
        for name in ["a", "b", "c"] {
            assert_eq!(text.get_blob(name), cmd.get_blob(name), "{name}");
        }
        assert_eq!(text.get_blob("n"), None);
    }

    /// Invariant: stamping while rendering is `set_deadline_ms` + `to_frame`,
    /// byte for byte — appended when absent, overwritten in place when
    /// present (whatever stood there), clamped at zero.
    #[test]
    fn frame_with_deadline_is_the_stamped_commands_frame() {
        let blob: Vec<u8> = (0..=255).collect();
        let cases = [
            CmdLine::new("ping"),
            CmdLine::new("say").arg("text", "a; b").arg("n", 3),
            CmdLine::new("psPut")
                .arg("key", "k")
                .arg("data", blob.clone()),
            CmdLine::new("echo")
                .arg("deadline", 250)
                .arg("text", "late"),
            CmdLine::new("echo").arg("deadline", "soon").arg("n", 1),
            CmdLine::new("psPut")
                .arg("a", &b"\0;"[..])
                .arg("deadline", blob)
                .arg("b", Vec::new()),
        ];
        for cmd in cases {
            for ms in [1000, 0, -5] {
                let mut stamped = cmd.clone();
                stamped.set_deadline_ms(ms);
                assert_eq!(cmd.to_frame_with_deadline(ms), stamped.to_frame(), "{cmd}");
            }
        }
        assert_eq!(
            CmdLine::new("log")
                .arg("msg", "hi")
                .to_frame_with_deadline(1000),
            b"log msg=hi deadline=1000;"
        );
        assert_eq!(
            CmdLine::new("psPut")
                .arg("data", &b"abc"[..])
                .to_frame_with_deadline(5000),
            b"psPut data=@3 deadline=5000;\0abc"
        );
    }

    #[test]
    fn display_matches_wire() {
        let cmd = CmdLine::new("c").arg("x", 1);
        assert_eq!(format!("{cmd}"), cmd.to_wire());
    }
}
