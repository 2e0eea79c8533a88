//! # ace-security — the ACE security and authentication substrate
//!
//! Implements §3 of the paper:
//!
//! * **Session security** ([`cipher`]) — the SSL substitution: Diffie–Hellman
//!   key agreement plus an authenticated keystream cipher.  Every ACE socket
//!   frame is sealed/opened through a [`SecureChannel`].
//! * **Identities** ([`keys`]) — textbook RSA key pairs over 64-bit moduli;
//!   principals in assertions are public-key strings.
//! * **Trust management** ([`keynote`]) — a from-scratch KeyNote engine
//!   (RFC 2704 subset): policy/credential assertions, licensee expressions,
//!   the condition language over action attribute sets, delegation-chain
//!   compliance checking, and a verification cache.
//!
//! **This is simulation-grade cryptography** (see DESIGN.md substitutions):
//! the primitives are mathematically real — signatures genuinely verify,
//! MACs genuinely reject tampering, key agreement genuinely agrees — but
//! parameter sizes and hash functions are toy.  Never reuse outside the
//! simulation.
//!
//! ```
//! use ace_security::keynote::{KeyNoteEngine, Assertion, Licensees, action_env, POLICY};
//! use ace_security::keys::KeyPair;
//!
//! let mut rng = rand::thread_rng();
//! let admin = KeyPair::generate(&mut rng);
//! let user = KeyPair::generate(&mut rng);
//!
//! let mut engine = KeyNoteEngine::new();
//! // Local policy: the admin key may do anything.
//! engine.add_policy(Assertion::new(
//!     POLICY, Licensees::Principal(admin.principal()), "true").unwrap()).unwrap();
//! // The admin delegates camera moves to the user.
//! engine.add_credential(Assertion::new(
//!     admin.principal(),
//!     Licensees::Principal(user.principal()),
//!     "cmd == \"ptzMove\"").unwrap().sign(&admin).unwrap()).unwrap();
//!
//! let env = action_env([("cmd", "ptzMove")]);
//! assert!(engine.query(&env, &[&user.principal()]));
//! ```

pub mod cipher;
pub mod hash;
pub mod keynote;
pub mod keys;
pub mod numtheory;
pub mod ticket;

pub use cipher::{DhLocal, SealError, SecureChannel, SessionKey};
pub use keynote::{
    action_env, ActionEnv, Assertion, Cond, KeyNoteEngine, KeyNoteError, Licensees, POLICY,
};
pub use keys::{KeyPair, PublicKey, Signature};
pub use ticket::{resume_proof, ResumptionTicket};
