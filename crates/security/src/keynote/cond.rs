//! The KeyNote condition expression language.
//!
//! Assertions carry a `conditions:` field — a boolean expression over the
//! *action attribute set* (RFC 2704's term for the key/value environment
//! describing the requested action).  ACE uses it to say things like
//!
//! ```text
//! conditions: app_domain == "ace" && service == "ptz_camera" &&
//!             cmd == "ptzMove" && zoom <= 10
//! ```
//!
//! Supported forms: `&&`, `||`, `!`, parentheses, comparisons
//! (`==`, `!=`, `<`, `<=`, `>`, `>=`), attribute references (bare words),
//! string literals (`"…"`), numeric literals, and the constants
//! `true`/`false`.  Per RFC 2704, a reference to an attribute that is not in
//! the action set evaluates as the empty string.  Ordering comparisons are
//! numeric when both operands parse as numbers and lexicographic otherwise.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The action attribute set: what the requester is trying to do.
///
/// `BTreeMap` keeps iteration deterministic.
pub type ActionEnv = BTreeMap<String, String>;

/// Build an [`ActionEnv`] from pairs.
pub fn action_env<const N: usize>(pairs: [(&str, &str); N]) -> ActionEnv {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// A parsed condition expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    True,
    False,
    Not(Box<Cond>),
    And(Box<Cond>, Box<Cond>),
    Or(Box<Cond>, Box<Cond>),
    Cmp {
        lhs: Operand,
        op: CmpOp,
        rhs: Operand,
    },
}

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// Attribute reference; missing attributes read as `""`.
    Attr(String),
    /// String literal.
    Str(String),
    /// Numeric literal.
    Num(f64),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cond {
    /// Evaluate against an action attribute set.
    pub fn eval(&self, env: &ActionEnv) -> bool {
        match self {
            Cond::True => true,
            Cond::False => false,
            Cond::Not(c) => !c.eval(env),
            Cond::And(a, b) => a.eval(env) && b.eval(env),
            Cond::Or(a, b) => a.eval(env) || b.eval(env),
            Cond::Cmp { lhs, op, rhs } => {
                let l = lhs.resolve(env);
                let r = rhs.resolve(env);
                compare(&l, *op, &r)
            }
        }
    }

    /// The *read set*: every attribute name [`Cond::eval`] can look up.
    ///
    /// The language has bare-word references and nothing that computes a
    /// name, so the set is exact: two action sets that agree on these
    /// names (an absent one reading as `""`) evaluate alike.
    pub fn attributes(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        self.collect_attributes(&mut out);
        out
    }

    fn collect_attributes<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Cond::True | Cond::False => {}
            Cond::Not(c) => c.collect_attributes(out),
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.collect_attributes(out);
                b.collect_attributes(out);
            }
            Cond::Cmp { lhs, rhs, .. } => {
                for side in [lhs, rhs] {
                    if let Operand::Attr(name) = side {
                        out.insert(name);
                    }
                }
            }
        }
    }
}

impl Operand {
    fn resolve<'a>(&'a self, env: &'a ActionEnv) -> std::borrow::Cow<'a, str> {
        match self {
            Operand::Attr(name) => {
                std::borrow::Cow::Borrowed(env.get(name).map(String::as_str).unwrap_or(""))
            }
            Operand::Str(s) => std::borrow::Cow::Borrowed(s),
            Operand::Num(n) => std::borrow::Cow::Owned(format_num(*n)),
        }
    }
}

fn format_num(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn compare(l: &str, op: CmpOp, r: &str) -> bool {
    match op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        _ => {
            // Numeric ordering when both sides are numbers, else
            // lexicographic.
            let ord = match (l.parse::<f64>(), r.parse::<f64>()) {
                (Ok(a), Ok(b)) => a.partial_cmp(&b),
                _ => Some(l.cmp(r)),
            };
            let Some(ord) = ord else { return false };
            match op {
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            }
        }
    }
}

/// A condition parse failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondParseError(pub String);

impl fmt::Display for CondParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "condition parse error: {}", self.0)
    }
}

impl std::error::Error for CondParseError {}

/// Parse a condition expression.
pub fn parse_cond(src: &str) -> Result<Cond, CondParseError> {
    let tokens = lex(src)?;
    let mut p = P { toks: tokens, i: 0 };
    let cond = p.or_expr()?;
    if p.i != p.toks.len() {
        return Err(CondParseError(format!(
            "trailing input starting with {:?}",
            p.toks[p.i]
        )));
    }
    Ok(cond)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    AndAnd,
    OrOr,
    Not,
    LParen,
    RParen,
    Op(CmpOp),
}

fn lex(src: &str) -> Result<Vec<Tok>, CondParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            b'&' if b.get(i + 1) == Some(&b'&') => {
                out.push(Tok::AndAnd);
                i += 2;
            }
            b'|' if b.get(i + 1) == Some(&b'|') => {
                out.push(Tok::OrOr);
                i += 2;
            }
            b'=' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Eq));
                i += 2;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Ne));
                i += 2;
            }
            b'!' => {
                out.push(Tok::Not);
                i += 1;
            }
            b'<' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Le));
                i += 2;
            }
            b'<' => {
                out.push(Tok::Op(CmpOp::Lt));
                i += 1;
            }
            b'>' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Op(CmpOp::Ge));
                i += 2;
            }
            b'>' => {
                out.push(Tok::Op(CmpOp::Gt));
                i += 1;
            }
            b'"' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'"' {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(CondParseError("unterminated string".into()));
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == b'-' || c == b'+' => {
                let start = i;
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'.' || b[i] == b'_')
                {
                    i += 1;
                }
                let text = &src[start..i];
                let n = text
                    .parse::<f64>()
                    .map_err(|_| CondParseError(format!("bad number `{text}`")))?;
                out.push(Tok::Num(n));
            }
            c if (c as char).is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b'.')
                {
                    i += 1;
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            other => {
                return Err(CondParseError(format!(
                    "unexpected character `{}`",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    i: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i)
    }
    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).cloned();
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn or_expr(&mut self) -> Result<Cond, CondParseError> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), Some(Tok::OrOr)) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Cond::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Cond, CondParseError> {
        let mut lhs = self.unary()?;
        while matches!(self.peek(), Some(Tok::AndAnd)) {
            self.bump();
            let rhs = self.unary()?;
            lhs = Cond::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Cond, CondParseError> {
        match self.peek() {
            Some(Tok::Not) => {
                self.bump();
                Ok(Cond::Not(Box::new(self.unary()?)))
            }
            Some(Tok::LParen) => {
                self.bump();
                let inner = self.or_expr()?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => Err(CondParseError("expected `)`".into())),
                }
            }
            _ => self.comparison(),
        }
    }

    fn comparison(&mut self) -> Result<Cond, CondParseError> {
        let lhs = self.operand()?;
        // Bare `true`/`false` need no comparator.
        if let Operand::Attr(name) = &lhs {
            if name == "true" && !matches!(self.peek(), Some(Tok::Op(_))) {
                return Ok(Cond::True);
            }
            if name == "false" && !matches!(self.peek(), Some(Tok::Op(_))) {
                return Ok(Cond::False);
            }
        }
        let op = match self.bump() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(CondParseError(format!(
                    "expected comparison operator, found {other:?}"
                )))
            }
        };
        let rhs = self.operand()?;
        Ok(Cond::Cmp { lhs, op, rhs })
    }

    fn operand(&mut self) -> Result<Operand, CondParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(Operand::Attr(name)),
            Some(Tok::Str(s)) => Ok(Operand::Str(s)),
            Some(Tok::Num(n)) => Ok(Operand::Num(n)),
            other => Err(CondParseError(format!(
                "expected attribute, string, or number, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ActionEnv {
        action_env([
            ("app_domain", "ace"),
            ("service", "ptz_camera"),
            ("cmd", "ptzMove"),
            ("zoom", "8"),
            ("room", "hawk"),
        ])
    }

    #[test]
    fn equality() {
        let c = parse_cond("app_domain == \"ace\"").unwrap();
        assert!(c.eval(&env()));
        let c = parse_cond("app_domain == \"oxygen\"").unwrap();
        assert!(!c.eval(&env()));
    }

    #[test]
    fn numeric_ordering() {
        assert!(parse_cond("zoom <= 10").unwrap().eval(&env()));
        assert!(!parse_cond("zoom > 10").unwrap().eval(&env()));
        // "8" < "10" numerically even though lexicographically "8" > "10".
        assert!(parse_cond("zoom < 10").unwrap().eval(&env()));
    }

    #[test]
    fn lexicographic_when_not_numeric() {
        assert!(parse_cond("room < \"zebra\"").unwrap().eval(&env()));
        assert!(!parse_cond("room > \"zebra\"").unwrap().eval(&env()));
    }

    #[test]
    fn boolean_connectives() {
        let c =
            parse_cond("app_domain == \"ace\" && (cmd == \"ptzMove\" || cmd == \"zoom\")").unwrap();
        assert!(c.eval(&env()));
        let c = parse_cond("!(cmd == \"shutdown\")").unwrap();
        assert!(c.eval(&env()));
    }

    #[test]
    fn missing_attribute_is_empty_string() {
        assert!(parse_cond("ghost == \"\"").unwrap().eval(&env()));
        assert!(!parse_cond("ghost == \"x\"").unwrap().eval(&env()));
    }

    #[test]
    fn constants() {
        assert!(parse_cond("true").unwrap().eval(&env()));
        assert!(!parse_cond("false").unwrap().eval(&env()));
        assert!(parse_cond("false || true").unwrap().eval(&env()));
    }

    #[test]
    fn attr_named_true_still_comparable() {
        let mut e = env();
        e.insert("true".into(), "yes".into());
        assert!(parse_cond("true == \"yes\"").unwrap().eval(&e));
    }

    #[test]
    fn precedence_and_binds_tighter() {
        // a || b && c  ==  a || (b && c)
        let c = parse_cond("true || false && false").unwrap();
        assert!(c.eval(&ActionEnv::new()));
    }

    #[test]
    fn parse_errors() {
        assert!(parse_cond("==").is_err());
        assert!(parse_cond("a ==").is_err());
        assert!(parse_cond("(a == 1").is_err());
        assert!(parse_cond("a == 1 extra").is_err());
        assert!(parse_cond("\"unterminated").is_err());
        assert!(parse_cond("a @ 1").is_err());
    }

    #[test]
    fn attributes_are_the_names_eval_reads() {
        let names = |src: &str| -> Vec<String> {
            let cond = parse_cond(src).unwrap();
            cond.attributes().into_iter().map(str::to_owned).collect()
        };
        assert_eq!(
            names("a == \"x\" && (!(b < 3) || c >= d) && a != \"y\""),
            ["a", "b", "c", "d"],
            "nested connectives, both comparison sides, each name once"
        );
        assert_eq!(names("5 <= zoom"), ["zoom"], "right-hand side");
        assert!(names("true || false").is_empty());
        assert!(
            names("\"room\" == \"room\" && 1 < 2").is_empty(),
            "literals"
        );
        // A comparison against `true` is a reference to an attribute of that
        // name (see `attr_named_true_still_comparable`), so it is read.
        assert_eq!(names("true == \"yes\""), ["true"]);
    }

    #[test]
    fn string_vs_number_literals() {
        let e = action_env([("n", "42")]);
        assert!(parse_cond("n == 42").unwrap().eval(&e));
        assert!(parse_cond("n == \"42\"").unwrap().eval(&e));
        assert!(parse_cond("n >= 41.5").unwrap().eval(&e));
    }
}
