//! Per-command authorization (§3.2, Fig. 10).
//!
//! Every command a daemon executes is first checked: the daemon assembles
//! the *action attribute set* (who, which service, which command, which
//! arguments), gathers the relevant KeyNote assertions, and asks the
//! compliance checker for OK / NOT OK.
//!
//! Three modes mirror the deployment options in the paper:
//!
//! * [`AuthMode::Open`] — no restriction (development environments),
//! * [`AuthMode::Local`] — policies and credentials held by the daemon,
//! * `Authorizer::with_source` — Fig. 10's flow: per-command credential fetch
//!   from the Authorization Database service, combined with a local policy
//!   root (implemented by `crates/identity`'s `RemoteCredentials` source).

use crate::metrics::{Counter, MetricsRegistry};
use ace_lang::{CmdLine, Value};
use ace_security::keynote::{ActionEnv, Assertion, KeyNoteEngine, KeyNoteError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A pluggable source of additional credentials consulted per command —
/// the "Authentication DB service looks up the necessary information"
/// arrow of Fig. 10.
pub trait CredentialSource: Send + Sync {
    /// Credentials relevant to `principal` attempting the action in `env`.
    fn credentials_for(&self, principal: &str, env: &ActionEnv) -> Vec<Assertion>;
}

/// How a daemon authorizes commands.
#[derive(Clone)]
pub enum AuthMode {
    /// Allow everything (the daemon still authenticates principals).
    Open,
    /// Check against a fixed local engine.
    Local(Arc<Authorizer>),
}

impl AuthMode {
    /// Is `principal` allowed to perform the action described by `env`?
    pub fn check(&self, principal: &str, env: &ActionEnv) -> bool {
        match self {
            AuthMode::Open => true,
            AuthMode::Local(auth) => auth.check(principal, env),
        }
    }
}

impl std::fmt::Debug for AuthMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthMode::Open => write!(f, "AuthMode::Open"),
            AuthMode::Local(_) => write!(f, "AuthMode::Local"),
        }
    }
}

/// Default bound on cached decisions.  Every distinct (principal, action
/// attribute set) pair is one entry; unbounded growth was possible when a
/// hostile or chatty client varied an argument per call.
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// A KeyNote authorizer with an optional remote credential source and a
/// bounded decision cache (the E8 ablation switch).
pub struct Authorizer {
    base: Mutex<KeyNoteEngine>,
    source: Option<Arc<dyn CredentialSource>>,
    cache_enabled: bool,
    cache: Mutex<CacheState>,
}

/// Decision cache with insertion-order eviction and swappable counters
/// ([`Authorizer::bind_metrics`] points them at a daemon registry so
/// `aceStats` reports them).
struct CacheState {
    map: HashMap<u64, bool>,
    order: VecDeque<u64>,
    capacity: usize,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evicted: Arc<Counter>,
}

impl CacheState {
    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Insert a fresh decision, evicting oldest entries beyond capacity.
    fn insert_bounded(&mut self, key: u64, decision: bool) {
        if self.map.insert(key, decision).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if self.map.remove(&old).is_some() {
                        self.evicted.incr();
                    }
                }
                None => break,
            }
        }
    }
}

impl Authorizer {
    /// Authorizer over a local engine only.
    pub fn local(engine: KeyNoteEngine) -> Authorizer {
        Authorizer {
            base: Mutex::new(engine),
            source: None,
            cache_enabled: true,
            cache: Mutex::new(CacheState {
                map: HashMap::new(),
                order: VecDeque::new(),
                capacity: DEFAULT_CACHE_CAPACITY,
                hits: Arc::new(Counter::new()),
                misses: Arc::new(Counter::new()),
                evicted: Arc::new(Counter::new()),
            }),
        }
    }

    /// Authorizer that additionally pulls credentials from `source` for
    /// every decision (Fig. 10).
    pub fn with_source(engine: KeyNoteEngine, source: Arc<dyn CredentialSource>) -> Authorizer {
        Authorizer {
            source: Some(source),
            ..Authorizer::local(engine)
        }
    }

    /// Disable the decision cache (for the E8 ablation).
    pub fn without_cache(mut self) -> Authorizer {
        self.cache_enabled = false;
        self
    }

    /// Bound the decision cache at `capacity` entries (default 4096).
    pub fn with_cache_capacity(self, capacity: usize) -> Authorizer {
        self.cache.lock().capacity = capacity.max(1);
        self
    }

    /// Re-home the cache counters in `metrics` as `auth.cache_hits`,
    /// `auth.cache_misses`, and `auth.cache_evicted`, carrying over any
    /// counts accumulated so far.  The daemon runtime calls this at spawn
    /// so the counters surface through `aceStats`.
    pub fn bind_metrics(&self, metrics: &MetricsRegistry) {
        let mut guard = self.cache.lock();
        let CacheState {
            hits,
            misses,
            evicted,
            ..
        } = &mut *guard;
        for (name, counter) in [
            ("auth.cache_hits", hits),
            ("auth.cache_misses", misses),
            ("auth.cache_evicted", evicted),
        ] {
            let bound = metrics.counter(name);
            bound.add(counter.get());
            *counter = bound;
        }
    }

    /// Install a policy assertion (invalidates the cache).
    pub fn add_policy(&self, a: Assertion) -> Result<(), KeyNoteError> {
        self.cache.lock().clear();
        self.base.lock().add_policy(a)
    }

    /// Install a credential (invalidates the cache).
    pub fn add_credential(&self, a: Assertion) -> Result<(), KeyNoteError> {
        self.cache.lock().clear();
        self.base.lock().add_credential(a)
    }

    /// `(cache hits, cache misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.lock();
        (cache.hits.get(), cache.misses.get())
    }

    /// Decisions evicted by the capacity bound.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().evicted.get()
    }

    /// The compliance decision.
    pub fn check(&self, principal: &str, env: &ActionEnv) -> bool {
        let key = decision_key(principal, env);
        if self.cache_enabled {
            let cache = self.cache.lock();
            if let Some(&v) = cache.map.get(&key) {
                cache.hits.incr();
                return v;
            }
            cache.misses.incr();
        }
        // The cache lock is released while deciding: compliance checking
        // (possibly with a remote credential fetch) is the slow part.
        let decision = self.decide(principal, env);
        // With a remote credential source, only *positive* decisions are
        // cacheable: KeyNote authority is monotone under credential
        // addition, so a grant stays valid, but a denial may be reversed by
        // a credential stored in the AuthDB after the fact.  (Credential
        // *removal* is not tracked by the cache; deployments that revoke
        // should disable it.)
        if self.cache_enabled && (decision || self.source.is_none()) {
            self.cache.lock().insert_bounded(key, decision);
        }
        decision
    }

    fn decide(&self, principal: &str, env: &ActionEnv) -> bool {
        if let Some(source) = &self.source {
            // Fig. 10 steps 2–4: fetch the relevant credentials, extend a
            // scratch engine, evaluate.
            let mut engine = self.base.lock().clone();
            for cred in source.credentials_for(principal, env) {
                // Invalid credentials are skipped, not fatal — a bad record
                // in the DB must not grant or deny by crashing.
                let _ = engine.add_credential(cred);
            }
            engine.query(env, &[principal])
        } else {
            self.base.lock().query(env, &[principal])
        }
    }
}

impl std::fmt::Debug for Authorizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Authorizer(remote_source: {}, cache: {})",
            self.source.is_some(),
            self.cache_enabled
        )
    }
}

fn decision_key(principal: &str, env: &ActionEnv) -> u64 {
    let mut material = Vec::with_capacity(128);
    material.extend_from_slice(principal.as_bytes());
    material.push(0);
    for (k, v) in env {
        material.extend_from_slice(k.as_bytes());
        material.push(1);
        material.extend_from_slice(v.as_bytes());
        material.push(2);
    }
    ace_security::hash::fnv64(&material)
}

/// Assemble the action attribute set for a command arriving at a daemon.
///
/// Scalar arguments are promoted into the environment so conditions can
/// constrain them (`zoom <= 10`); vectors/arrays are summarized by length.
pub fn action_env_for(service: &str, class: &str, room: &str, cmd: &CmdLine) -> ActionEnv {
    let mut env = ActionEnv::new();
    env.insert("app_domain".into(), "ace".into());
    env.insert("service".into(), service.into());
    env.insert("class".into(), class.into());
    env.insert("room".into(), room.into());
    env.insert("cmd".into(), cmd.name().into());
    for (name, value) in cmd.args() {
        let key = format!("arg_{name}");
        let text = match value {
            Value::Int(i) => i.to_string(),
            Value::Float(f) => f.to_string(),
            Value::Word(w) => w.clone(),
            Value::Str(s) => s.clone(),
            Value::Vector(v) => format!("vector:{}", v.len()),
            Value::Array(a) => format!("array:{}", a.len()),
            Value::Blob(b) => format!("blob:{}", b.len()),
        };
        env.insert(key, text);
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_security::keynote::{Licensees, POLICY};
    use ace_security::keys::KeyPair;

    fn keypair() -> KeyPair {
        KeyPair::generate(&mut rand::thread_rng())
    }

    #[test]
    fn open_mode_allows_all() {
        assert!(AuthMode::Open.check("anyone", &ActionEnv::new()));
    }

    #[test]
    fn local_mode_enforces() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(
                    POLICY,
                    Licensees::Principal(user.principal()),
                    "cmd == \"ptzMove\" && arg_zoom <= 10",
                )
                .unwrap(),
            )
            .unwrap();
        let mode = AuthMode::Local(Arc::new(Authorizer::local(engine)));

        let ok_cmd = CmdLine::new("ptzMove").arg("zoom", 5);
        let env = action_env_for("cam1", "PTZCamera", "hawk", &ok_cmd);
        assert!(mode.check(&user.principal(), &env));

        let too_far = CmdLine::new("ptzMove").arg("zoom", 50);
        let env = action_env_for("cam1", "PTZCamera", "hawk", &too_far);
        assert!(!mode.check(&user.principal(), &env));

        assert!(!mode.check("stranger", &ActionEnv::new()));
    }

    #[test]
    fn action_env_promotes_args() {
        let cmd = CmdLine::new("ptzMove")
            .arg("x", 1)
            .arg("label", "door")
            .arg("path", Value::Vector(vec![]));
        let env = action_env_for("cam", "PTZCamera", "hawk", &cmd);
        assert_eq!(env.get("cmd").unwrap(), "ptzMove");
        assert_eq!(env.get("arg_x").unwrap(), "1");
        assert_eq!(env.get("arg_label").unwrap(), "door");
        assert_eq!(env.get("arg_path").unwrap(), "vector:0");
        assert_eq!(env.get("service").unwrap(), "cam");
    }

    #[test]
    fn cache_counts_and_ablation() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(user.principal()), "true").unwrap(),
            )
            .unwrap();
        let auth = Authorizer::local(engine.clone());
        let env = ActionEnv::new();
        let p = user.principal();
        for _ in 0..5 {
            assert!(auth.check(&p, &env));
        }
        assert_eq!(auth.cache_stats(), (4, 1));

        let uncached = Authorizer::local(engine).without_cache();
        for _ in 0..5 {
            assert!(uncached.check(&p, &env));
        }
        assert_eq!(uncached.cache_stats(), (0, 0));
    }

    #[test]
    fn cache_is_bounded_with_oldest_eviction() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(user.principal()), "true").unwrap(),
            )
            .unwrap();
        let auth = Authorizer::local(engine).with_cache_capacity(2);
        let p = user.principal();
        let env_n = |n: u32| {
            let mut e = ActionEnv::new();
            e.insert("cmd".into(), format!("cmd{n}"));
            e
        };
        for n in 0..3 {
            auth.check(&p, &env_n(n));
        }
        assert_eq!(auth.cache_evictions(), 1, "third insert evicts the oldest");
        // The oldest decision is gone — re-checking it is a miss again.
        auth.check(&p, &env_n(0));
        let (hits, misses) = auth.cache_stats();
        assert_eq!((hits, misses), (0, 4));
        // The newest is still cached.
        auth.check(&p, &env_n(2));
        assert_eq!(auth.cache_stats(), (1, 4));
    }

    #[test]
    fn bind_metrics_rehomes_counters_with_carryover() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(user.principal()), "true").unwrap(),
            )
            .unwrap();
        let auth = Authorizer::local(engine);
        let p = user.principal();
        let env = ActionEnv::new();
        auth.check(&p, &env); // miss
        auth.check(&p, &env); // hit

        let metrics = crate::metrics::MetricsRegistry::new();
        auth.bind_metrics(&metrics);
        assert_eq!(metrics.counter("auth.cache_hits").get(), 1);
        assert_eq!(metrics.counter("auth.cache_misses").get(), 1);

        auth.check(&p, &env); // hit, counted on the registry now
        assert_eq!(metrics.counter("auth.cache_hits").get(), 2);
        assert_eq!(auth.cache_stats(), (2, 1), "stats read the same counters");
    }

    #[test]
    fn remote_source_consulted() {
        struct OneCred(Assertion);
        impl CredentialSource for OneCred {
            fn credentials_for(&self, _p: &str, _e: &ActionEnv) -> Vec<Assertion> {
                vec![self.0.clone()]
            }
        }

        let admin = keypair();
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true").unwrap(),
            )
            .unwrap();
        let cred = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "true",
        )
        .unwrap()
        .sign(&admin)
        .unwrap();

        // Without the source the user is denied; with it, granted.
        let local_only = Authorizer::local(engine.clone());
        assert!(!local_only.check(&user.principal(), &ActionEnv::new()));
        let with_source = Authorizer::with_source(engine, Arc::new(OneCred(cred)));
        assert!(with_source.check(&user.principal(), &ActionEnv::new()));
    }

    #[test]
    fn invalid_remote_credentials_skipped() {
        struct Forged(Assertion);
        impl CredentialSource for Forged {
            fn credentials_for(&self, _p: &str, _e: &ActionEnv) -> Vec<Assertion> {
                vec![self.0.clone()]
            }
        }
        let admin = keypair();
        let user = keypair();
        // Unsigned "credential".
        let forged = Assertion::new(
            admin.principal(),
            Licensees::Principal(user.principal()),
            "true",
        )
        .unwrap();
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true").unwrap(),
            )
            .unwrap();
        let auth = Authorizer::with_source(engine, Arc::new(Forged(forged)));
        assert!(!auth.check(&user.principal(), &ActionEnv::new()));
    }
}
