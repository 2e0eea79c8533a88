//! The ACE Command Parser (§2.2): reconstructs an [`CmdLine`] from its wire
//! string.
//!
//! Grammar (verbatim from the paper):
//!
//! ```text
//! <CMND>     := <CMNDNAME><space>[<ARGLIST>];
//! <CMNDNAME> := <WORD>
//! <ARGLIST>  := | <ARGUMENT> | <ARGUMENT><space><ARGLIST> | <ARGUMENT>','<ARGLIST>
//! <ARGUMENT> := <ARGNAME>'='<ARGVALUE>
//! <ARGVALUE> := <INTEGER> | <FLOAT> | <WORD> | <STRING> | <VECTOR> | <ARRAY>
//! <VECTOR>   := homogeneous '{'-list of scalars
//! <ARRAY>    := '{'-list of vectors
//! ```
//!
//! Arguments may be separated by spaces or commas.  Commands terminate with
//! `;`; [`parse_all`] accepts several commands in one string (the framing
//! used on ACE sockets).  [`parse_frame`] reads a link frame: one command
//! whose `@<len>` values are blobs taken from the bytes after the text (the
//! layout is described in [`crate::cmdline`]).

use crate::cmdline::CmdLine;
use crate::error::{ParseError, ParseErrorKind};
use crate::lexer::{lex, Token};
use crate::value::{Scalar, Value};

struct Cursor<'a> {
    toks: Vec<(Token<'a>, usize)>,
    i: usize,
    end: usize,
    /// The attachment bytes no `@<len>` has claimed yet; `None` when the
    /// source is plain text, where such a reference has nothing to point at.
    attachments: Option<&'a [u8]>,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.i).map(|(t, _)| t)
    }
    fn pos(&self) -> usize {
        self.toks.get(self.i).map(|(_, p)| *p).unwrap_or(self.end)
    }
    fn next(&mut self) -> Option<Token<'a>> {
        // Tokens are `Copy` (they borrow the source), so this is free.
        let t = self.toks.get(self.i).map(|(t, _)| *t);
        if t.is_some() {
            self.i += 1;
        }
        t
    }
    fn expect_end_or(&self) -> bool {
        self.i >= self.toks.len()
    }
    /// Claim the next `len` attachment bytes.  The length is checked against
    /// what the frame really holds before anything is sized by it.
    fn take_attachment(&mut self, len: usize, pos: usize) -> Result<Vec<u8>, ParseError> {
        let err = |what| ParseError::new(ParseErrorKind::Attachment(what), pos);
        let rest = self
            .attachments
            .ok_or_else(|| err("attachment reference without an attachment section"))?;
        if len > rest.len() {
            return Err(err("attachment longer than the bytes that follow"));
        }
        let (blob, rest) = rest.split_at(len);
        self.attachments = Some(rest);
        Ok(blob.to_vec())
    }
}

/// Parse exactly one command; trailing input after its `;` is an error.
pub fn parse(src: &str) -> Result<CmdLine, ParseError> {
    parse_single(src, None)
}

/// Parse a link frame: the text of exactly one command, then — only if the
/// command has blobs — `0x00` and their bytes.  Every attachment byte must
/// be claimed by an `@<len>` value and every `@<len>` satisfied.
pub fn parse_frame(frame: &[u8]) -> Result<CmdLine, ParseError> {
    // The text ends at the first 0x00 outside a quoted string (inside one
    // the lexer has always let any byte but `"` and a line break through).
    let mut quoted = false;
    let text_end = frame.iter().position(|&b| {
        quoted ^= b == b'"';
        b == 0 && !quoted
    });
    let (text, attachments) = match text_end {
        Some(end) => (&frame[..end], Some(&frame[end + 1..])),
        None => (frame, None),
    };
    let text =
        std::str::from_utf8(text).map_err(|_| ParseError::new(ParseErrorKind::NotText, 0))?;
    parse_single(text, attachments)
}

fn parse_single<'a>(src: &'a str, attachments: Option<&'a [u8]>) -> Result<CmdLine, ParseError> {
    let mut cur = Cursor {
        toks: lex(src)?,
        i: 0,
        end: src.len(),
        attachments,
    };
    let cmd = parse_one(&mut cur)?;
    if !cur.expect_end_or() {
        return Err(ParseError::new(ParseErrorKind::TrailingInput, cur.pos()));
    }
    if cur.attachments.is_some_and(|rest| !rest.is_empty()) {
        return Err(ParseError::new(
            ParseErrorKind::Attachment("attachment bytes no argument declared"),
            src.len(),
        ));
    }
    Ok(cmd)
}

/// Parse a sequence of `;`-terminated commands (socket framing may batch
/// several per read).
pub fn parse_all(src: &str) -> Result<Vec<CmdLine>, ParseError> {
    let mut cur = Cursor {
        toks: lex(src)?,
        i: 0,
        end: src.len(),
        attachments: None,
    };
    let mut cmds = Vec::new();
    while !cur.expect_end_or() {
        cmds.push(parse_one(&mut cur)?);
    }
    if cmds.is_empty() {
        return Err(ParseError::new(ParseErrorKind::Empty, 0));
    }
    Ok(cmds)
}

fn parse_one(cur: &mut Cursor<'_>) -> Result<CmdLine, ParseError> {
    let pos = cur.pos();
    let name = match cur.next() {
        Some(Token::Word(w)) => w,
        Some(other) => {
            return Err(ParseError::new(
                ParseErrorKind::Unexpected {
                    expected: "command name (word)",
                    found: other.describe().to_string(),
                },
                pos,
            ))
        }
        None => return Err(ParseError::new(ParseErrorKind::Empty, pos)),
    };
    let mut cmd = CmdLine::new(name);
    loop {
        let pos = cur.pos();
        match cur.next() {
            Some(Token::Semicolon) => return Ok(cmd),
            // Commas between arguments are permitted by <ARGLIST>.
            Some(Token::Comma) => continue,
            Some(Token::Word(arg_name)) => {
                let pos = cur.pos();
                match cur.next() {
                    Some(Token::Equals) => {}
                    Some(other) => {
                        return Err(ParseError::new(
                            ParseErrorKind::Unexpected {
                                expected: "'=' after argument name",
                                found: other.describe().to_string(),
                            },
                            pos,
                        ))
                    }
                    None => {
                        return Err(ParseError::new(
                            ParseErrorKind::UnexpectedEnd("'=' after argument name"),
                            pos,
                        ))
                    }
                }
                let value = parse_value(cur)?;
                cmd.push_arg(arg_name, value);
            }
            Some(other) => {
                return Err(ParseError::new(
                    ParseErrorKind::Unexpected {
                        expected: "argument name or ';'",
                        found: other.describe().to_string(),
                    },
                    pos,
                ))
            }
            None => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedEnd("';' terminating the command"),
                    pos,
                ))
            }
        }
    }
}

fn parse_value(cur: &mut Cursor<'_>) -> Result<Value, ParseError> {
    let pos = cur.pos();
    match cur.next() {
        Some(Token::Int(i)) => Ok(Value::Int(i)),
        Some(Token::Float(f)) => Ok(Value::Float(f)),
        Some(Token::Word(w)) => Ok(Value::Word(w.to_string())),
        Some(Token::Str(s)) => Ok(Value::Str(s.to_string())),
        Some(Token::Attachment(len)) => cur.take_attachment(len, pos).map(Value::Blob),
        Some(Token::OpenBrace) => parse_braced(cur, pos),
        Some(other) => Err(ParseError::new(
            ParseErrorKind::Unexpected {
                expected: "argument value",
                found: other.describe().to_string(),
            },
            pos,
        )),
        None => Err(ParseError::new(
            ParseErrorKind::UnexpectedEnd("argument value"),
            pos,
        )),
    }
}

/// Parse the interior of a `{…}`: either a vector of scalars or an array of
/// vectors, decided by the first token after the brace.
fn parse_braced(cur: &mut Cursor<'_>, open_pos: usize) -> Result<Value, ParseError> {
    match cur.peek() {
        Some(Token::CloseBrace) => {
            cur.next();
            Ok(Value::Vector(Vec::new()))
        }
        Some(Token::OpenBrace) => {
            // Array: one or more vectors.
            let mut rows = Vec::new();
            loop {
                let pos = cur.pos();
                match cur.next() {
                    Some(Token::OpenBrace) => rows.push(parse_scalar_list(cur)?),
                    Some(other) => {
                        return Err(ParseError::new(
                            ParseErrorKind::Unexpected {
                                expected: "'{' starting a vector",
                                found: other.describe().to_string(),
                            },
                            pos,
                        ))
                    }
                    None => {
                        return Err(ParseError::new(
                            ParseErrorKind::UnexpectedEnd("vector inside array"),
                            pos,
                        ))
                    }
                }
                let pos = cur.pos();
                match cur.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::CloseBrace) => break,
                    Some(other) => {
                        return Err(ParseError::new(
                            ParseErrorKind::Unexpected {
                                expected: "',' or '}' in array",
                                found: other.describe().to_string(),
                            },
                            pos,
                        ))
                    }
                    None => {
                        return Err(ParseError::new(
                            ParseErrorKind::UnexpectedEnd("'}' closing the array"),
                            pos,
                        ))
                    }
                }
            }
            // Arrays are homogeneous across all rows.
            enforce_array_homogeneity(&rows, open_pos)?;
            Ok(Value::Array(rows))
        }
        _ => {
            let scalars = parse_scalar_list(cur)?;
            Ok(Value::Vector(scalars))
        }
    }
}

/// Parse scalars up to and including the closing `}`.  Enforces vector
/// homogeneity per `<VECTOR> := {[<INTEGER>]','…} | {[<FLOAT>]','…} | …`.
fn parse_scalar_list(cur: &mut Cursor<'_>) -> Result<Vec<Scalar>, ParseError> {
    let mut out = Vec::new();
    // Empty vector inside an array: `{}`.
    if matches!(cur.peek(), Some(Token::CloseBrace)) {
        cur.next();
        return Ok(out);
    }
    loop {
        let pos = cur.pos();
        let scalar = match cur.next() {
            Some(Token::Int(i)) => Scalar::Int(i),
            Some(Token::Float(f)) => Scalar::Float(f),
            Some(Token::Word(w)) => Scalar::Word(w.to_string()),
            Some(Token::Str(s)) => Scalar::Str(s.to_string()),
            Some(other) => {
                return Err(ParseError::new(
                    ParseErrorKind::Unexpected {
                        expected: "scalar vector element",
                        found: other.describe().to_string(),
                    },
                    pos,
                ))
            }
            None => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedEnd("vector element"),
                    pos,
                ))
            }
        };
        if let Some(first) = out.first() {
            let a: &Scalar = first;
            if a.scalar_type() != scalar.scalar_type() {
                return Err(ParseError::new(
                    ParseErrorKind::MixedVector {
                        expected: type_name(a),
                        found: type_name(&scalar),
                    },
                    pos,
                ));
            }
        }
        out.push(scalar);
        let pos = cur.pos();
        match cur.next() {
            Some(Token::Comma) => continue,
            Some(Token::CloseBrace) => return Ok(out),
            Some(other) => {
                return Err(ParseError::new(
                    ParseErrorKind::Unexpected {
                        expected: "',' or '}' in vector",
                        found: other.describe().to_string(),
                    },
                    pos,
                ))
            }
            None => {
                return Err(ParseError::new(
                    ParseErrorKind::UnexpectedEnd("'}' closing the vector"),
                    pos,
                ))
            }
        }
    }
}

fn enforce_array_homogeneity(rows: &[Vec<Scalar>], pos: usize) -> Result<(), ParseError> {
    let mut first: Option<&Scalar> = None;
    for row in rows {
        for s in row {
            match first {
                None => first = Some(s),
                Some(f) => {
                    if f.scalar_type() != s.scalar_type() {
                        return Err(ParseError::new(
                            ParseErrorKind::MixedVector {
                                expected: type_name(f),
                                found: type_name(s),
                            },
                            pos,
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn type_name(s: &Scalar) -> &'static str {
    match s {
        Scalar::Int(_) => "integer",
        Scalar::Float(_) => "float",
        Scalar::Word(_) => "word",
        Scalar::Str(_) => "string",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let cmd = parse("ptzMove x=10 y=-3 zoom=1.5;").unwrap();
        assert_eq!(cmd.name(), "ptzMove");
        assert_eq!(cmd.get_int("x"), Some(10));
        assert_eq!(cmd.get_int("y"), Some(-3));
        assert_eq!(cmd.get_f64("zoom"), Some(1.5));
    }

    #[test]
    fn parse_no_args() {
        let cmd = parse("ping;").unwrap();
        assert_eq!(cmd.name(), "ping");
        assert_eq!(cmd.arg_count(), 0);
    }

    #[test]
    fn parse_comma_separated_args() {
        let cmd = parse("c a=1,b=2, c=3;").unwrap();
        assert_eq!(cmd.arg_count(), 3);
        assert_eq!(cmd.get_int("c"), Some(3));
    }

    #[test]
    fn parse_quoted_string() {
        let cmd = parse("say text=\"hello, world; ok={}\";").unwrap();
        assert_eq!(cmd.get_text("text"), Some("hello, world; ok={}"));
    }

    #[test]
    fn parse_vector() {
        let cmd = parse("c v={1,2,3};").unwrap();
        assert_eq!(
            cmd.get_vector("v").unwrap(),
            &[Scalar::Int(1), Scalar::Int(2), Scalar::Int(3)]
        );
    }

    #[test]
    fn parse_word_vector() {
        let cmd = parse("c v={red,green,blue};").unwrap();
        assert_eq!(cmd.get_vector("v").unwrap().len(), 3);
    }

    #[test]
    fn parse_empty_vector() {
        let cmd = parse("c v={};").unwrap();
        assert_eq!(cmd.get_vector("v").unwrap().len(), 0);
    }

    #[test]
    fn parse_array() {
        let cmd = parse("c m={{1,2},{3,4}};").unwrap();
        let rows = cmd.get_array("m").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec![Scalar::Int(3), Scalar::Int(4)]);
    }

    #[test]
    fn parse_array_with_empty_row() {
        let cmd = parse("c m={{},{1}};").unwrap();
        let rows = cmd.get_array("m").unwrap();
        assert_eq!(rows[0].len(), 0);
        assert_eq!(rows[1].len(), 1);
    }

    #[test]
    fn mixed_vector_rejected() {
        let err = parse("c v={1,foo};").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MixedVector { .. }));
    }

    #[test]
    fn mixed_array_rejected() {
        let err = parse("c m={{1},{foo}};").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MixedVector { .. }));
    }

    #[test]
    fn int_and_float_do_not_mix_in_vectors() {
        let err = parse("c v={1,2.5};").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::MixedVector { .. }));
    }

    #[test]
    fn missing_semicolon_rejected() {
        let err = parse("c a=1").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedEnd(_)));
    }

    #[test]
    fn missing_equals_rejected() {
        let err = parse("c a 1;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
    }

    #[test]
    fn trailing_input_rejected() {
        let err = parse("a; b;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::TrailingInput));
    }

    #[test]
    fn parse_all_accepts_batches() {
        let cmds = parse_all("a; b x=1; c;").unwrap();
        assert_eq!(cmds.len(), 3);
        assert_eq!(cmds[1].get_int("x"), Some(1));
    }

    #[test]
    fn parse_all_empty_rejected() {
        assert!(parse_all("   ").is_err());
    }

    #[test]
    fn command_name_must_be_word() {
        let err = parse("42 x=1;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
    }

    #[test]
    fn roundtrip_examples() {
        for src in [
            "ping;",
            "move x=1 y=2;",
            "say text=\"a b c\";",
            "cfg v={1,2,3} m={{1},{2,3}} f=1.5 w=word;",
        ] {
            let cmd = parse(src).unwrap();
            let re = parse(&cmd.to_wire()).unwrap();
            assert_eq!(cmd, re);
        }
    }

    #[test]
    fn malformed_frames_are_errors() {
        use ParseErrorKind::*;
        type Expect = fn(&ParseErrorKind) -> bool;
        let attachment: Expect = |k| matches!(k, Attachment(_));
        let cases: [(&[u8], Expect); 10] = [
            // Attachment section shorter, then longer, than declared.
            (b"c d=@4;\0abc", attachment),
            (b"c d=@2;\0abc", attachment),
            (b"c a=@1 b=@3;\0abc", attachment),
            // A section nothing refers to, and a reference with no section.
            (b"c n=1;\0abc", attachment),
            (b"c d=@3;", attachment),
            // A length no frame could hold must not size anything.
            (b"c d=@18446744073709551615;\0abc", attachment),
            (b"c d=@99999999999999999999;\0abc", |k| {
                matches!(k, BadAtom(_))
            }),
            // Blobs are top-level values only.
            (b"c v={@1};\0a", |k| matches!(k, Unexpected { .. })),
            (b"c d=\"\xff\";", |k| matches!(k, NotText)),
            (b"c d=@1; e=2;\0a", |k| matches!(k, TrailingInput)),
        ];
        for (frame, expected) in cases {
            let err = parse_frame(frame).unwrap_err();
            assert!(expected(&err.kind), "{frame:?} gave {err:?}");
        }
        // The text form has no attachment section to refer to.
        assert!(attachment(&parse("c d=@0;").unwrap_err().kind));
    }

    #[test]
    fn frame_text_ends_at_the_first_unquoted_nul() {
        // 0x00 inside a quoted string stays text, as it always has.
        let cmd = parse_frame(b"c s=\"a\0b\" d=@2;\0\0\"").unwrap();
        assert_eq!(cmd.get_text("s"), Some("a\0b"));
        assert_eq!(cmd.get_blob("d").unwrap(), &b"\0\""[..]);
        // An empty section is what a command whose blobs are all empty has.
        let cmd = parse_frame(b"c d=@0;\0").unwrap();
        assert_eq!(cmd.get_blob("d").unwrap(), &b""[..]);
    }

    #[test]
    fn value_after_equals_required() {
        let err = parse("c a=;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::Unexpected { .. }));
    }
}
