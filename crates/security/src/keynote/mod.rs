//! A from-scratch KeyNote trust-management engine (RFC 2704 subset).
//!
//! "The KeyNote trust management system has been integrated into the ACE
//! service infrastructure.  Both users and services shall have credentials
//! and assertions defined for what can and can't be done within an ACE"
//! (§3.2).  This module implements the pieces ACE uses:
//!
//! * [`Assertion`] — policy and credential assertions with authorizer,
//!   licensee expression, condition expression, and (for credentials) an
//!   RSA signature over the canonical text,
//! * the text format (`authorizer: …` / `licensees: …` / …) stored in the
//!   Authorization Database service,
//! * [`KeyNoteEngine::query`] — the compliance checker: does POLICY
//!   delegate authority for this action to the requesting principals,
//!   through any chain of valid credentials?
//! * [`KeyNoteEngine::attributes`] — the attribute names that answer can
//!   depend on, which is what `ace_core::auth::Authorizer` keys its
//!   decision cache by (the E8 ablation is `Authorizer::without_cache`).

pub mod cond;
pub mod licensee;

pub use cond::{action_env, parse_cond, ActionEnv, Cond};
pub use licensee::{parse_licensees, Licensees};

use crate::keys::{KeyPair, PublicKey, Signature};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The distinguished principal whose authority is the root of every query.
pub const POLICY: &str = "POLICY";

/// One KeyNote assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct Assertion {
    /// The delegating principal: `POLICY` or a public-key string.
    pub authorizer: String,
    /// To whom authority is delegated.
    pub licensees: Licensees,
    /// Under what conditions on the action attribute set.
    pub conditions: Cond,
    /// Free-text comment (kept for the text round-trip).
    pub comment: String,
    /// Signature by the authorizer's key; `None` for local policy assertions.
    pub signature: Option<Signature>,
    /// The conditions field as written (canonical text for signing).
    conditions_src: String,
}

impl Assertion {
    /// Build an unsigned assertion.
    pub fn new(
        authorizer: impl Into<String>,
        licensees: Licensees,
        conditions_src: &str,
    ) -> Result<Assertion, KeyNoteError> {
        let conditions =
            parse_cond(conditions_src).map_err(|e| KeyNoteError::BadAssertion(e.to_string()))?;
        Ok(Assertion {
            authorizer: authorizer.into(),
            licensees,
            conditions,
            comment: String::new(),
            signature: None,
            conditions_src: conditions_src.to_string(),
        })
    }

    /// Attach a comment.
    pub fn with_comment(mut self, comment: impl Into<String>) -> Assertion {
        self.comment = comment.into();
        self
    }

    /// The canonical text that is signed: every field except `signature`.
    pub fn signing_text(&self) -> String {
        let mut s = String::new();
        s.push_str("keynote-version: 2\n");
        if !self.comment.is_empty() {
            s.push_str("comment: ");
            s.push_str(&self.comment);
            s.push('\n');
        }
        s.push_str("authorizer: \"");
        s.push_str(&self.authorizer);
        s.push_str("\"\n");
        s.push_str("licensees: ");
        s.push_str(&self.licensees.to_string());
        s.push('\n');
        s.push_str("conditions: ");
        s.push_str(&self.conditions_src);
        s.push('\n');
        s
    }

    /// Sign with the authorizer's key pair, producing a credential.  The key
    /// must match the `authorizer` field.
    pub fn sign(mut self, key: &KeyPair) -> Result<Assertion, KeyNoteError> {
        if key.principal() != self.authorizer {
            return Err(KeyNoteError::SignerMismatch {
                authorizer: self.authorizer.clone(),
                signer: key.principal(),
            });
        }
        self.signature = Some(key.sign(self.signing_text().as_bytes()));
        Ok(self)
    }

    /// Verify this credential's signature against its authorizer key.
    pub fn verify(&self) -> Result<(), KeyNoteError> {
        let sig = self.signature.ok_or(KeyNoteError::Unsigned)?;
        let key = PublicKey::from_principal(&self.authorizer).ok_or_else(|| {
            KeyNoteError::BadAssertion(format!(
                "authorizer `{}` is not a public key",
                self.authorizer
            ))
        })?;
        if key.verify(self.signing_text().as_bytes(), sig) {
            Ok(())
        } else {
            Err(KeyNoteError::BadSignature)
        }
    }

    /// Full text including the signature line (the form stored in the
    /// Authorization Database).
    pub fn to_text(&self) -> String {
        let mut s = self.signing_text();
        if let Some(sig) = self.signature {
            s.push_str("signature: \"");
            s.push_str(&sig.to_wire());
            s.push_str("\"\n");
        }
        s
    }

    /// Parse the text form.
    pub fn parse(text: &str) -> Result<Assertion, KeyNoteError> {
        let mut authorizer = None;
        let mut licensees = None;
        let mut conditions_src = None;
        let mut comment = String::new();
        let mut signature = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (field, value) = line
                .split_once(':')
                .ok_or_else(|| KeyNoteError::BadAssertion(format!("malformed line `{line}`")))?;
            let value = value.trim();
            match field.trim() {
                "keynote-version" => {
                    if value != "2" {
                        return Err(KeyNoteError::BadAssertion(format!(
                            "unsupported keynote-version `{value}`"
                        )));
                    }
                }
                "comment" => comment = value.to_string(),
                "authorizer" => authorizer = Some(unquote(value).to_string()),
                "licensees" => {
                    licensees = Some(
                        parse_licensees(value)
                            .map_err(|e| KeyNoteError::BadAssertion(e.to_string()))?,
                    )
                }
                "conditions" => conditions_src = Some(value.to_string()),
                "signature" => {
                    signature =
                        Some(Signature::from_wire(unquote(value)).ok_or_else(|| {
                            KeyNoteError::BadAssertion("malformed signature".into())
                        })?)
                }
                other => {
                    return Err(KeyNoteError::BadAssertion(format!(
                        "unknown field `{other}`"
                    )))
                }
            }
        }
        let authorizer =
            authorizer.ok_or_else(|| KeyNoteError::BadAssertion("missing authorizer".into()))?;
        let licensees =
            licensees.ok_or_else(|| KeyNoteError::BadAssertion("missing licensees".into()))?;
        let conditions_src = conditions_src.unwrap_or_else(|| "true".to_string());
        let mut a = Assertion::new(authorizer, licensees, &conditions_src)?;
        a.comment = comment;
        a.signature = signature;
        Ok(a)
    }
}

fn unquote(s: &str) -> &str {
    s.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s)
}

/// KeyNote errors.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyNoteError {
    /// A credential must carry a signature.
    Unsigned,
    /// Signature did not verify against the authorizer key.
    BadSignature,
    /// A policy assertion must have authorizer `POLICY`; a credential must
    /// be signed by its own authorizer.
    SignerMismatch { authorizer: String, signer: String },
    /// Not a policy assertion.
    NotPolicy(String),
    /// Structural/parse problem.
    BadAssertion(String),
}

impl fmt::Display for KeyNoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyNoteError::Unsigned => write!(f, "credential has no signature"),
            KeyNoteError::BadSignature => write!(f, "credential signature invalid"),
            KeyNoteError::SignerMismatch { authorizer, signer } => {
                write!(f, "signer {signer} does not match authorizer {authorizer}")
            }
            KeyNoteError::NotPolicy(a) => {
                write!(f, "assertion by `{a}` is not a policy assertion")
            }
            KeyNoteError::BadAssertion(m) => write!(f, "bad assertion: {m}"),
        }
    }
}
impl std::error::Error for KeyNoteError {}

/// The compliance checker over a set of policies and credentials.
#[derive(Debug, Default, Clone)]
pub struct KeyNoteEngine {
    /// Assertions indexed by authorizer, the recursion's fan-out edge.
    by_authorizer: HashMap<String, Vec<Assertion>>,
    assertion_count: usize,
}

impl KeyNoteEngine {
    pub fn new() -> KeyNoteEngine {
        KeyNoteEngine::default()
    }

    /// Install a locally-trusted policy assertion (authorizer `POLICY`,
    /// unsigned).
    pub fn add_policy(&mut self, assertion: Assertion) -> Result<(), KeyNoteError> {
        if assertion.authorizer != POLICY {
            return Err(KeyNoteError::NotPolicy(assertion.authorizer));
        }
        self.insert(assertion);
        Ok(())
    }

    /// Install a credential after verifying its signature.
    pub fn add_credential(&mut self, assertion: Assertion) -> Result<(), KeyNoteError> {
        assertion.verify()?;
        self.insert(assertion);
        Ok(())
    }

    fn insert(&mut self, assertion: Assertion) {
        self.by_authorizer
            .entry(assertion.authorizer.clone())
            .or_default()
            .push(assertion);
        self.assertion_count += 1;
    }

    /// Number of installed assertions.
    pub fn len(&self) -> usize {
        self.assertion_count
    }

    /// `true` if no assertions are installed.
    pub fn is_empty(&self) -> bool {
        self.assertion_count == 0
    }

    /// The read set of the installed assertions: the union of their
    /// conditions' [`Cond::attributes`].  [`KeyNoteEngine::query`] reads the
    /// action set through conditions only (licensee expressions name
    /// principals), so two action sets that agree on these names get the
    /// same answer for the same requesters.
    pub fn attributes(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        for assertion in self.by_authorizer.values().flatten() {
            out.append(&mut assertion.conditions.attributes());
        }
        out
    }

    /// The compliance query: does `POLICY` authorize `requesters` for the
    /// action described by `env`?
    ///
    /// A principal *supports* the request if it is a requester, or if any of
    /// its assertions has satisfied conditions and a licensee expression
    /// satisfied by supporting principals.  The query answer is whether
    /// `POLICY` supports the request.  Delegation cycles evaluate safely to
    /// "no additional authority".
    pub fn query(&self, env: &ActionEnv, requesters: &[&str]) -> bool {
        let mut memo: HashMap<&str, Option<bool>> = HashMap::new();
        self.supports(POLICY, env, requesters, &mut memo)
    }

    fn supports<'a>(
        &'a self,
        principal: &'a str,
        env: &ActionEnv,
        requesters: &[&str],
        memo: &mut HashMap<&'a str, Option<bool>>,
    ) -> bool {
        if requesters.contains(&principal) {
            return true;
        }
        match memo.get(principal) {
            Some(Some(v)) => return *v,
            Some(None) => return false, // cycle: no extra authority
            None => {}
        }
        memo.insert(principal, None);
        let mut result = false;
        if let Some(assertions) = self.by_authorizer.get(principal) {
            for a in assertions {
                if !a.conditions.eval(env) {
                    continue;
                }
                let ok = a.licensees.satisfied(&mut |p: &str| {
                    // Licensee principals live inside `a`, which borrows from
                    // self; extend to 'a via lookup so the memo can key them.
                    if let Some((key, _)) = self.by_authorizer.get_key_value(p) {
                        self.supports(key, env, requesters, memo)
                    } else {
                        requesters.contains(&p)
                    }
                });
                if ok {
                    result = true;
                    break;
                }
            }
        }
        memo.insert(principal, Some(result));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn keypair() -> KeyPair {
        KeyPair::generate(&mut rand::thread_rng())
    }

    fn policy_for(principal: &str, conditions: &str) -> Assertion {
        Assertion::new(
            POLICY,
            Licensees::Principal(principal.to_string()),
            conditions,
        )
        .unwrap()
    }

    #[test]
    fn direct_policy_grant() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(policy_for(&user.principal(), "cmd == \"ptzMove\""))
            .unwrap();

        let env = action_env([("cmd", "ptzMove")]);
        assert!(engine.query(&env, &[&user.principal()]));
        let env = action_env([("cmd", "shutdown")]);
        assert!(!engine.query(&env, &[&user.principal()]));
    }

    #[test]
    fn unknown_requester_denied() {
        let user = keypair();
        let stranger = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(policy_for(&user.principal(), "true"))
            .unwrap();
        assert!(!engine.query(&ActionEnv::new(), &[&stranger.principal()]));
    }

    #[test]
    fn empty_engine_denies_everything() {
        let engine = KeyNoteEngine::new();
        assert!(!engine.query(&ActionEnv::new(), &["anyone"]));
    }

    #[test]
    fn delegation_chain() {
        // POLICY -> admin -> user
        let admin = keypair();
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(policy_for(&admin.principal(), "true"))
            .unwrap();
        let cred = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "cmd == \"lookup\"",
        )
        .unwrap()
        .sign(&admin)
        .unwrap();
        engine.add_credential(cred).unwrap();

        let env = action_env([("cmd", "lookup")]);
        assert!(engine.query(&env, &[&user.principal()]));
        // Condition on the *delegation edge* restricts the chain.
        let env = action_env([("cmd", "shutdown")]);
        assert!(!engine.query(&env, &[&user.principal()]));
        // Admin retains broader authority.
        assert!(engine.query(&env, &[&admin.principal()]));
    }

    #[test]
    fn forged_credential_rejected_at_install() {
        let admin = keypair();
        let mallory = keypair();
        let user = keypair();
        let cred = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "true",
        )
        .unwrap();
        // Mallory cannot sign for admin.
        assert!(matches!(
            cred.clone().sign(&mallory),
            Err(KeyNoteError::SignerMismatch { .. })
        ));
        // An unsigned credential is rejected.
        let mut engine = KeyNoteEngine::new();
        assert!(matches!(
            engine.add_credential(cred),
            Err(KeyNoteError::Unsigned)
        ));
    }

    #[test]
    fn tampered_credential_rejected() {
        let admin = keypair();
        let user = keypair();
        let cred = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "cmd == \"lookup\"",
        )
        .unwrap()
        .sign(&admin)
        .unwrap();
        // Widen the conditions after signing.
        let mut text = cred.to_text();
        text = text.replace("cmd == \"lookup\"", "true");
        let forged = Assertion::parse(&text).unwrap();
        let mut engine = KeyNoteEngine::new();
        assert_eq!(
            engine.add_credential(forged),
            Err(KeyNoteError::BadSignature)
        );
    }

    #[test]
    fn and_licensees_require_both_requesters() {
        let a = keypair();
        let b = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(
                    POLICY,
                    Licensees::And(vec![
                        Licensees::Principal(a.principal()),
                        Licensees::Principal(b.principal()),
                    ]),
                    "true",
                )
                .unwrap(),
            )
            .unwrap();
        let env = ActionEnv::new();
        assert!(!engine.query(&env, &[&a.principal()]));
        assert!(engine.query(&env, &[&a.principal(), &b.principal()]));
    }

    #[test]
    fn delegation_cycle_terminates() {
        let a = keypair();
        let b = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(policy_for(&a.principal(), "true"))
            .unwrap();
        // a -> b and b -> a: a cycle granting nothing extra.
        engine
            .add_credential(
                Assertion::new(a.principal(), Licensees::Principal(b.principal()), "true")
                    .unwrap()
                    .sign(&a)
                    .unwrap(),
            )
            .unwrap();
        engine
            .add_credential(
                Assertion::new(b.principal(), Licensees::Principal(a.principal()), "true")
                    .unwrap()
                    .sign(&b)
                    .unwrap(),
            )
            .unwrap();
        let stranger = keypair();
        assert!(!engine.query(&ActionEnv::new(), &[&stranger.principal()]));
        // And b (reachable through the chain) is authorized.
        assert!(engine.query(&ActionEnv::new(), &[&b.principal()]));
    }

    #[test]
    fn text_roundtrip() {
        let admin = keypair();
        let user = keypair();
        let cred = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "app_domain == \"ace\" && cmd == \"lookup\"",
        )
        .unwrap()
        .with_comment("grant lookup to user")
        .sign(&admin)
        .unwrap();
        let text = cred.to_text();
        let parsed = Assertion::parse(&text).unwrap();
        assert_eq!(parsed, cred);
        parsed.verify().unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Assertion::parse("").is_err());
        assert!(Assertion::parse("authorizer: \"POLICY\"").is_err()); // no licensees
        assert!(Assertion::parse("licensees: \"a\"").is_err()); // no authorizer
        assert!(Assertion::parse("bogus-field: 1\nauthorizer: \"P\"\nlicensees: \"a\"").is_err());
        assert!(
            Assertion::parse("keynote-version: 9\nauthorizer: \"P\"\nlicensees: \"a\"").is_err()
        );
    }

    #[test]
    fn policy_must_be_policy() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        let a = Assertion::new(user.principal(), Licensees::Principal("x".into()), "true").unwrap();
        assert!(matches!(
            engine.add_policy(a),
            Err(KeyNoteError::NotPolicy(_))
        ));
    }
}
