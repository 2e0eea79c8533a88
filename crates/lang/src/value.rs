//! Argument values of the ACE command language.
//!
//! The paper (§2.2) defines six value productions:
//!
//! ```text
//! <ARGVALUE> := <INTEGER> | <FLOAT> | <WORD> | <STRING> | <VECTOR> | <ARRAY>
//! ```
//!
//! A `WORD` is a contiguous run of alphanumerics and underscores, a `STRING`
//! is either a word or a quoted run of printable characters, a `VECTOR` is a
//! brace-enclosed homogeneous list of scalars, and an `ARRAY` is a
//! brace-enclosed list of vectors.  This module is the typed, in-memory form
//! of those productions; the wire form is produced by [`Value::write_wire`]
//! and consumed by the parser in [`crate::parser`].
//!
//! One value goes beyond the paper's productions: [`Value::Blob`], raw
//! bytes.  Its text form is a hex `<WORD>` (see [`crate::hex`]), so the
//! printable language is unchanged; only a link frame carries it raw.

use std::borrow::Cow;
use std::fmt;

/// A scalar value: the leaf types of the command language.
///
/// Vectors are homogeneous lists of scalars, so scalars get their own type
/// rather than being folded into [`Value`].
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// `<INTEGER>` — any integer-valued number.
    Int(i64),
    /// `<FLOAT>` — any real-valued number.  Always rendered with a decimal
    /// point or exponent so it re-parses as a float.
    Float(f64),
    /// `<WORD>` — contiguous alphanumerics and underscores, written bare.
    Word(String),
    /// Quoted `<STRING>` — printable characters, written inside `"…"`.
    Str(String),
}

/// The type tag of a [`Scalar`], used for vector homogeneity checks and for
/// command semantics (argument type specifications).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    Int,
    Float,
    Word,
    Str,
}

impl Scalar {
    /// The type tag of this scalar.
    pub fn scalar_type(&self) -> ScalarType {
        match self {
            Scalar::Int(_) => ScalarType::Int,
            Scalar::Float(_) => ScalarType::Float,
            Scalar::Word(_) => ScalarType::Word,
            Scalar::Str(_) => ScalarType::Str,
        }
    }

    /// Numeric view: integers widen to `f64`, floats pass through.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(*i as f64),
            Scalar::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Textual view: words and strings expose their content.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Scalar::Word(w) => Some(w),
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write_wire(&self, out: &mut String) {
        match self {
            Scalar::Int(i) => {
                out.push_str(itoa(*i).as_str());
            }
            Scalar::Float(f) => write_float(*f, out),
            Scalar::Word(w) => out.push_str(w),
            Scalar::Str(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
        }
    }
}

fn itoa(i: i64) -> String {
    i.to_string()
}

/// Render a float so that it always re-parses as a `<FLOAT>` (never as an
/// `<INTEGER>`): integral values gain a trailing `.0`.  Non-finite floats
/// are outside the grammar ("any real valued number") and degrade to the
/// words `nan`/`inf`/`neginf`.
fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str(if f.is_nan() {
            "nan"
        } else if f > 0.0 {
            "inf"
        } else {
            "neginf"
        });
        return;
    }
    let start = out.len();
    out.push_str(&format!("{f}"));
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// A full argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Word(String),
    Str(String),
    /// `<VECTOR>` — homogeneous list of scalars, e.g. `{1,2,3}`.
    Vector(Vec<Scalar>),
    /// `<ARRAY>` — list of vectors, e.g. `{{1,2},{3,4}}`.  Rows need not be
    /// equal length (the grammar places no such constraint) but every element
    /// across the whole array shares one scalar type.
    Array(Vec<Vec<Scalar>>),
    /// Raw bytes.  Written as the hex word `x<hex>` in text
    /// ([`Value::write_wire`]) and as an `@<len>` reference into the
    /// attachment section of a link frame ([`crate::CmdLine::to_frame`]);
    /// read back through [`Value::as_blob`] either way.
    Blob(Vec<u8>),
}

/// The type tag of a [`Value`]; vectors and arrays carry their element type
/// when it is known (an empty vector has no element type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    Int,
    Float,
    Word,
    Str,
    Vector(Option<ScalarType>),
    Array(Option<ScalarType>),
    Blob,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "integer"),
            ValueType::Float => write!(f, "float"),
            ValueType::Word => write!(f, "word"),
            ValueType::Str => write!(f, "string"),
            ValueType::Vector(Some(t)) => write!(f, "vector<{t:?}>"),
            ValueType::Vector(None) => write!(f, "vector<>"),
            ValueType::Array(Some(t)) => write!(f, "array<{t:?}>"),
            ValueType::Array(None) => write!(f, "array<>"),
            ValueType::Blob => write!(f, "blob"),
        }
    }
}

impl Value {
    /// The type tag of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Word(_) => ValueType::Word,
            Value::Str(_) => ValueType::Str,
            Value::Vector(v) => ValueType::Vector(v.first().map(Scalar::scalar_type)),
            Value::Array(a) => ValueType::Array(
                a.iter()
                    .flat_map(|row| row.first())
                    .map(Scalar::scalar_type)
                    .next(),
            ),
            Value::Blob(_) => ValueType::Blob,
        }
    }

    /// Integer view (exact; floats are not truncated).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Numeric view: integers widen to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Textual view: both `<WORD>` and `<STRING>` expose their content, which
    /// mirrors the grammar's `STRING := WORD | "…"` subsumption.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Word(w) => Some(w),
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Vector view.
    pub fn as_vector(&self) -> Option<&[Scalar]> {
        match self {
            Value::Vector(v) => Some(v),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Vec<Scalar>]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Binary view: a blob exposes its bytes, and a hex word — the text
    /// form a blob takes through [`Value::write_wire`] and the parser —
    /// decodes to them.  The one place that text form is decoded.
    pub fn as_blob(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Value::Blob(b) => Some(Cow::Borrowed(b)),
            Value::Word(w) => crate::hex::hex_decode(w).map(Cow::Owned),
            _ => None,
        }
    }

    /// Append the wire representation of this value to `out`.
    pub fn write_wire(&self, out: &mut String) {
        match self {
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => write_float(*f, out),
            Value::Word(w) => out.push_str(w),
            Value::Str(s) => {
                out.push('"');
                out.push_str(s);
                out.push('"');
            }
            Value::Vector(v) => {
                out.push('{');
                for (i, s) in v.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    s.write_wire(out);
                }
                out.push('}');
            }
            Value::Array(rows) => {
                out.push('{');
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('{');
                    for (j, s) in row.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        s.write_wire(out);
                    }
                    out.push('}');
                }
                out.push('}');
            }
            Value::Blob(b) => crate::hex::write_hex(b, out),
        }
    }

    /// Wire representation as a fresh string.
    pub fn to_wire(&self) -> String {
        let mut s = String::new();
        self.write_wire(&mut s);
        s
    }
}

/// `true` if `s` is a valid `<WORD>`: non-empty, contiguous alphanumerics and
/// underscores.
pub fn is_word(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u16> for Value {
    fn from(v: u16) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Word(if v { "true".into() } else { "false".into() })
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}
impl From<&[u8]> for Value {
    fn from(v: &[u8]) -> Self {
        Value::Blob(v.to_vec())
    }
}

/// Strings convert to the tightest production that round-trips: a valid
/// `<WORD>` stays a word, anything else becomes a quoted `<STRING>`.
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        if is_word(v) {
            Value::Word(v.to_string())
        } else {
            Value::Str(v.to_string())
        }
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        if is_word(&v) {
            Value::Word(v)
        } else {
            Value::Str(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_types() {
        assert_eq!(Scalar::Int(3).scalar_type(), ScalarType::Int);
        assert_eq!(Scalar::Float(3.0).scalar_type(), ScalarType::Float);
        assert_eq!(Scalar::Word("a".into()).scalar_type(), ScalarType::Word);
        assert_eq!(Scalar::Str("a b".into()).scalar_type(), ScalarType::Str);
    }

    #[test]
    fn float_wire_keeps_decimal_point() {
        assert_eq!(Value::Float(3.0).to_wire(), "3.0");
        assert_eq!(Value::Float(-1.5).to_wire(), "-1.5");
        assert_eq!(Value::Float(0.25).to_wire(), "0.25");
    }

    #[test]
    fn int_wire() {
        assert_eq!(Value::Int(-42).to_wire(), "-42");
        assert_eq!(Value::Int(i64::MAX).to_wire(), i64::MAX.to_string());
    }

    #[test]
    fn string_wire_is_quoted() {
        assert_eq!(
            Value::Str("hello world".into()).to_wire(),
            "\"hello world\""
        );
        assert_eq!(Value::Word("hello".into()).to_wire(), "hello");
    }

    #[test]
    fn vector_wire() {
        let v = Value::Vector(vec![Scalar::Int(1), Scalar::Int(2), Scalar::Int(3)]);
        assert_eq!(v.to_wire(), "{1,2,3}");
    }

    #[test]
    fn array_wire() {
        let a = Value::Array(vec![
            vec![Scalar::Int(1), Scalar::Int(2)],
            vec![Scalar::Int(3), Scalar::Int(4)],
        ]);
        assert_eq!(a.to_wire(), "{{1,2},{3,4}}");
    }

    #[test]
    fn empty_vector_wire() {
        assert_eq!(Value::Vector(vec![]).to_wire(), "{}");
    }

    #[test]
    fn word_detection() {
        assert!(is_word("abc_123"));
        assert!(is_word("3abc"));
        assert!(!is_word(""));
        assert!(!is_word("a b"));
        assert!(!is_word("a-b"));
    }

    #[test]
    fn from_str_picks_tightest_type() {
        assert_eq!(Value::from("word_1"), Value::Word("word_1".into()));
        assert_eq!(Value::from("two words"), Value::Str("two words".into()));
    }

    #[test]
    fn typed_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Float(7.5).as_int(), None);
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Word("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Str("x y".into()).as_text(), Some("x y"));
        assert!(Value::Vector(vec![]).as_vector().is_some());
        assert!(Value::Int(1).as_vector().is_none());
    }

    #[test]
    fn blob_text_form_is_a_hex_word() {
        let blob = Value::from(&b"\x00;\"@"[..]);
        assert_eq!(blob.to_wire(), "x003b2240");
        assert_eq!(blob.value_type(), ValueType::Blob);
        assert_eq!(blob.as_blob().unwrap(), &b"\x00;\"@"[..]);
        // The word the text form parses back to reads as the same bytes.
        let word = Value::Word(blob.to_wire());
        assert_eq!(word.as_blob().unwrap(), blob.as_blob().unwrap());
        assert_eq!(Value::Word("xabc".into()).as_blob(), None);
        assert_eq!(Value::Str("x00".into()).as_blob(), None);
    }

    #[test]
    fn value_type_of_vectors() {
        let v = Value::Vector(vec![Scalar::Word("a".into())]);
        assert_eq!(v.value_type(), ValueType::Vector(Some(ScalarType::Word)));
        assert_eq!(Value::Vector(vec![]).value_type(), ValueType::Vector(None));
    }
}
