//! Lexer for the ACE command language wire form.
//!
//! Tokenizes a command string into the terminals of the §2.2 grammar:
//! bare atoms (words and numbers), quoted strings, and the punctuation
//! `=` `,` `{` `}` `;`.  Classification of bare atoms into
//! `<INTEGER>`/`<FLOAT>`/`<WORD>` happens here so the parser only deals with
//! typed tokens.  One token exists only in link frames: `@<len>`, a
//! reference to the next `len` bytes of the frame's attachment section.

use crate::error::{ParseError, ParseErrorKind};

/// A lexical token with its byte offset in the source (for error reporting).
///
/// Text tokens borrow from the source string — the hot parse path (every
/// command crossing every secure link) allocates nothing until a token is
/// promoted into an owned [`crate::value::Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    Int(i64),
    Float(f64),
    Word(&'a str),
    /// Quoted string, quotes stripped.
    Str(&'a str),
    /// `@<len>`: a blob of `len` bytes in the frame's attachment section.
    Attachment(usize),
    Equals,
    Comma,
    OpenBrace,
    CloseBrace,
    Semicolon,
}

impl Token<'_> {
    /// Short human name used in "expected X, found Y" errors.
    pub fn describe(&self) -> &'static str {
        match self {
            Token::Int(_) => "integer",
            Token::Float(_) => "float",
            Token::Word(_) => "word",
            Token::Str(_) => "string",
            Token::Attachment(_) => "attachment reference",
            Token::Equals => "'='",
            Token::Comma => "','",
            Token::OpenBrace => "'{'",
            Token::CloseBrace => "'}'",
            Token::Semicolon => "';'",
        }
    }
}

/// Characters that may start or continue a bare atom.  Beyond the word
/// charset this includes the sign, decimal point, and exponent characters of
/// numbers ('e'/'E' are already alphanumeric).
fn is_atom_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '+' | '.')
}

/// Classify a bare atom per the grammar: integers first, then floats, then
/// words.  Anything else (e.g. `1.2.3` or a stray `-`) is a lex error.
fn classify_atom(atom: &str, pos: usize) -> Result<Token<'_>, ParseError> {
    if let Ok(i) = atom.parse::<i64>() {
        return Ok(Token::Int(i));
    }
    // A float must actually look like a number (digit somewhere) and parse.
    if atom.bytes().any(|b| b.is_ascii_digit()) {
        if let Ok(f) = atom.parse::<f64>() {
            return Ok(Token::Float(f));
        }
    }
    if crate::value::is_word(atom) {
        return Ok(Token::Word(atom));
    }
    Err(ParseError::new(
        ParseErrorKind::BadAtom(atom.to_string()),
        pos,
    ))
}

/// Tokenize `src` into a vector of `(token, byte_offset)` pairs.
pub fn lex(src: &str) -> Result<Vec<(Token<'_>, usize)>, ParseError> {
    let mut out = Vec::with_capacity(16);
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '=' => {
                out.push((Token::Equals, i));
                i += 1;
            }
            ',' => {
                out.push((Token::Comma, i));
                i += 1;
            }
            '{' => {
                out.push((Token::OpenBrace, i));
                i += 1;
            }
            '}' => {
                out.push((Token::CloseBrace, i));
                i += 1;
            }
            ';' => {
                out.push((Token::Semicolon, i));
                i += 1;
            }
            '"' => {
                let start = i;
                i += 1;
                let content_start = i;
                while i < bytes.len() && bytes[i] != b'"' {
                    let b = bytes[i];
                    if b == b'\n' || b == b'\r' {
                        return Err(ParseError::new(ParseErrorKind::UnterminatedString, start));
                    }
                    i += 1;
                }
                if i >= bytes.len() {
                    return Err(ParseError::new(ParseErrorKind::UnterminatedString, start));
                }
                // Safety of slicing: '"' is a single-byte delimiter, so the
                // content is a valid UTF-8 substring.
                let content = &src[content_start..i];
                out.push((Token::Str(content), start));
                i += 1;
            }
            '@' if bytes.get(i + 1).is_some_and(u8::is_ascii_digit) => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                // A length too large for `usize` is no length at all.
                let len = src[start + 1..i].parse().map_err(|_| {
                    ParseError::new(ParseErrorKind::BadAtom(src[start..i].to_string()), start)
                })?;
                out.push((Token::Attachment(len), start));
            }
            c if is_atom_char(c) => {
                let start = i;
                while i < bytes.len() && is_atom_char(bytes[i] as char) {
                    i += 1;
                }
                let atom = &src[start..i];
                out.push((classify_atom(atom, start)?, start));
            }
            other => {
                return Err(ParseError::new(ParseErrorKind::UnexpectedChar(other), i));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn lex_simple_command() {
        assert_eq!(
            toks("move x=1 y=2;"),
            vec![
                Token::Word("move"),
                Token::Word("x"),
                Token::Equals,
                Token::Int(1),
                Token::Word("y"),
                Token::Equals,
                Token::Int(2),
                Token::Semicolon,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(toks("-3"), vec![Token::Int(-3)]);
        assert_eq!(toks("3.5"), vec![Token::Float(3.5)]);
        assert_eq!(toks("-0.25"), vec![Token::Float(-0.25)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks("+7"), vec![Token::Int(7)]);
    }

    #[test]
    fn lex_word_that_starts_with_digit() {
        // "3abc" is a legal <WORD> per the grammar (contiguous alphanumerics).
        assert_eq!(toks("3abc"), vec![Token::Word("3abc")]);
    }

    #[test]
    fn lex_quoted_string() {
        assert_eq!(toks("\"hello world\""), vec![Token::Str("hello world")]);
        assert_eq!(toks("\"\""), vec![Token::Str("")]);
    }

    #[test]
    fn lex_braces_and_commas() {
        assert_eq!(
            toks("{1,2}"),
            vec![
                Token::OpenBrace,
                Token::Int(1),
                Token::Comma,
                Token::Int(2),
                Token::CloseBrace,
            ]
        );
    }

    #[test]
    fn lex_unterminated_string() {
        let err = lex("\"abc").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnterminatedString));
    }

    #[test]
    fn lex_bad_atom() {
        let err = lex("1.2.3").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadAtom(_)));
        let err = lex("a-b").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadAtom(_)));
    }

    #[test]
    fn lex_unexpected_char() {
        let err = lex("cmd @x;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnexpectedChar('@')));
    }

    #[test]
    fn lex_attachment_reference() {
        assert_eq!(
            toks("d=@12;"),
            vec![
                Token::Word("d"),
                Token::Equals,
                Token::Attachment(12),
                Token::Semicolon
            ]
        );
        let err = lex("d=@99999999999999999999999;").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadAtom(_)));
    }

    #[test]
    fn offsets_are_byte_positions() {
        let lexed = lex("ab cd").unwrap();
        assert_eq!(lexed[0].1, 0);
        assert_eq!(lexed[1].1, 3);
    }

    #[test]
    fn newline_inside_string_rejected() {
        let err = lex("\"a\nb\"").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnterminatedString));
    }
}
