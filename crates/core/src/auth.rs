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
//!
//! # The decision cache
//!
//! An [`Authorizer`] remembers decisions, keyed by the requester and the
//! action attribute set **restricted to its read set** `R`: the attribute
//! names that the conditions of its own assertions, and of every credential
//! set it has cached a decision from, refer to
//! (`KeyNoteEngine::attributes`).  KeyNote reads the action set through
//! conditions and nowhere else, and an absent attribute reads as `""`, so a
//! decision is a pure function of (assertion set, requester, action set
//! restricted to the names that set's conditions mention).  Credentials
//! that say `room == "hawk"` therefore cost one evaluation and one fetch
//! per (user, device), however many distinct pan/tilt/zoom tuples follow.
//!
//! The rules that keep it sound (DESIGN.md "Authorization fast path"):
//!
//! * every cached entry was computed from an assertion set whose read set
//!   is within the current `R`; when a fetched set mentions a new name, `R`
//!   grows, the cache is emptied (its keys were cut under the smaller `R`)
//!   and the decision goes in under the new key;
//! * with a remote source only **grants** are cached — authority is
//!   monotone under credential addition, so a grant stays right, while a
//!   denial may be reversed by a credential stored later;
//! * [`Authorizer::add_policy`] / [`Authorizer::add_credential`] empty the
//!   cache and extend `R`;
//! * credential **removal** at the source is not tracked: a grant outlives
//!   it until the cache is emptied or the entry evicted.  Deployments that
//!   revoke use [`Authorizer::without_cache`], which bypasses all of this.
//!
//! Assertions whose conditions read every `arg_*` make the restricted key
//! equal to the whole action set: the cache then behaves as one keyed on
//! everything.

use crate::metrics::{Counter, MetricsRegistry};
use ace_lang::{CmdLine, Value};
use ace_security::keynote::{ActionEnv, Assertion, KeyNoteEngine, KeyNoteError};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

/// A pluggable source of additional credentials consulted per command —
/// the "Authentication DB service looks up the necessary information"
/// arrow of Fig. 10.
pub trait CredentialSource: Send + Sync {
    /// Credentials relevant to `principal` attempting the action in `env`.
    ///
    /// `env` is a relevance hint: a source may leave out only credentials
    /// that cannot change the decision for `env`.  The decision cache
    /// relies on that — a grant computed from one answer is reused for
    /// every action set that agrees with `env` on the names the answer's
    /// conditions read.
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
/// attribute set restricted to the read set) pair is one entry; a client
/// can still vary an argument that some condition reads on every call.
const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// A KeyNote authorizer with an optional remote credential source and a
/// bounded decision cache ([`Authorizer::without_cache`] is the E8 ablation
/// switch).
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
    /// The attribute names `map`'s keys were cut by (module docs): a
    /// superset of the read set of every assertion set behind an entry.
    read_set: BTreeSet<String>,
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

    /// Add `names` to the read set.  A new name changes what every key
    /// means, so the entries cut under the smaller set go.
    fn read_also<'a>(&mut self, names: impl IntoIterator<Item = &'a str>) {
        let mut grew = false;
        for name in names {
            if !self.read_set.contains(name) {
                self.read_set.insert(name.to_owned());
                grew = true;
            }
        }
        if grew {
            self.clear();
        }
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
        let read_set = engine.attributes().into_iter().map(str::to_owned).collect();
        Authorizer {
            base: Mutex::new(engine),
            source: None,
            cache_enabled: true,
            cache: Mutex::new(CacheState {
                read_set,
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

    /// Install a policy assertion (empties the cache and extends the read
    /// set by the names its conditions mention).
    pub fn add_policy(&self, a: Assertion) -> Result<(), KeyNoteError> {
        self.invalidate_for(&a);
        self.base.lock().add_policy(a)
    }

    /// Install a credential (empties the cache and extends the read set by
    /// the names its conditions mention).
    pub fn add_credential(&self, a: Assertion) -> Result<(), KeyNoteError> {
        self.invalidate_for(&a);
        self.base.lock().add_credential(a)
    }

    /// Called before `a` reaches the engine, so that the read set covers
    /// the engine's at every instant a `check` may run.
    fn invalidate_for(&self, a: &Assertion) {
        let mut cache = self.cache.lock();
        cache.clear();
        cache.read_also(a.conditions.attributes());
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

    /// The compliance decision: is `principal` allowed the action `env`
    /// describes?
    ///
    /// Answered from the decision cache when it holds an entry for
    /// `principal` and `env` restricted to the read set (a *hit*); otherwise
    /// KeyNote evaluates — after fetching `principal`'s credentials when
    /// there is a source — and the answer is cached under the rules in the
    /// module docs (a *miss*).  Exactly one of `auth.cache_hits` /
    /// `auth.cache_misses` moves per call; neither does
    /// [`Authorizer::without_cache`].
    pub fn check(&self, principal: &str, env: &ActionEnv) -> bool {
        if !self.cache_enabled {
            return self.decide(principal, env).0;
        }
        let cached = {
            let cache = self.cache.lock();
            let key = decision_key(principal, env, &cache.read_set);
            let cached = cache.map.get(&key).copied();
            match cached {
                Some(_) => cache.hits.incr(),
                None => cache.misses.incr(),
            }
            cached
        };
        if let Some(decision) = cached {
            return decision;
        }
        // The cache lock is released while deciding: compliance checking
        // (possibly with a remote credential fetch) is the slow part.
        let (decision, fetched_reads) = self.decide(principal, env);
        // With a remote credential source, only *positive* decisions are
        // cacheable: KeyNote authority is monotone under credential
        // addition, so a grant stays valid, but a denial may be reversed by
        // a credential stored in the AuthDB after the fact.  (Credential
        // *removal* is not tracked by the cache; deployments that revoke
        // should disable it.)
        if decision || self.source.is_none() {
            let mut cache = self.cache.lock();
            cache.read_also(fetched_reads.iter().map(String::as_str));
            // Cut the key again: the read set may have grown, here or on
            // another thread, since the lookup.
            let key = decision_key(principal, env, &cache.read_set);
            cache.insert_bounded(key, decision);
        }
        decision
    }

    /// Evaluate, uncached.  Returns the decision and the attribute names
    /// the credentials fetched for it read (none without a source: the
    /// base engine's are in the read set already).
    fn decide(&self, principal: &str, env: &ActionEnv) -> (bool, BTreeSet<String>) {
        let mut fetched_reads = BTreeSet::new();
        let decision = if let Some(source) = &self.source {
            // Fig. 10 steps 2–4: fetch the relevant credentials, extend a
            // scratch engine, evaluate.
            let mut engine = self.base.lock().clone();
            for cred in source.credentials_for(principal, env) {
                // Invalid credentials are skipped, not fatal — a bad record
                // in the DB must not grant or deny by crashing.  Its names
                // are noted all the same: one too many only splits keys.
                fetched_reads.extend(cred.conditions.attributes().into_iter().map(str::to_owned));
                let _ = engine.add_credential(cred);
            }
            engine.query(env, &[principal])
        } else {
            self.base.lock().query(env, &[principal])
        };
        (decision, fetched_reads)
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

/// The cache key of `principal` attempting `env` under `read_set`:
/// `principal`, then the values of the set's names in order, an absent one
/// as `""` (which is how a condition reads it) — each behind its length, so
/// that no two such lists share a byte string.
fn decision_key(principal: &str, env: &ActionEnv, read_set: &BTreeSet<String>) -> u64 {
    let values = read_set
        .iter()
        .map(|name| env.get(name).map_or("", String::as_str));
    let mut material = Vec::with_capacity(128);
    for field in std::iter::once(principal).chain(values) {
        material.extend_from_slice(&(field.len() as u64).to_le_bytes());
        material.extend_from_slice(field.as_bytes());
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
                Assertion::new(
                    POLICY,
                    Licensees::Principal(user.principal()),
                    "cmd != \"halt\"",
                )
                .unwrap(),
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

    /// An in-memory Authorization Database: credentials can be stored while
    /// authorizers hold it, and it counts the fetches it served.
    #[derive(Default)]
    struct Shelf {
        credentials: Mutex<Vec<Assertion>>,
        fetches: AtomicU64,
    }

    impl Shelf {
        fn store(&self, admin: &KeyPair, licensee: &KeyPair, conditions: &str) {
            let credential = Assertion::new(
                admin.principal(),
                Licensees::Principal(licensee.principal()),
                conditions,
            )
            .unwrap()
            .sign(admin)
            .unwrap();
            self.credentials.lock().push(credential);
        }

        fn fetches(&self) -> u64 {
            self.fetches.load(Ordering::Relaxed)
        }
    }

    impl CredentialSource for Shelf {
        fn credentials_for(&self, principal: &str, _env: &ActionEnv) -> Vec<Assertion> {
            self.fetches.fetch_add(1, Ordering::Relaxed);
            let credentials = self.credentials.lock();
            let named = |c: &&Assertion| c.licensees.principals().contains(&principal);
            credentials.iter().filter(named).cloned().collect()
        }
    }

    /// An engine whose one policy trusts `admin` unconditionally, which is
    /// how a guarded device is set up: everything else comes from the source.
    fn trusting(admin: &KeyPair) -> KeyNoteEngine {
        let mut engine = KeyNoteEngine::new();
        engine
            .add_policy(
                Assertion::new(POLICY, Licensees::Principal(admin.principal()), "true").unwrap(),
            )
            .unwrap();
        engine
    }

    #[test]
    fn decisions_are_keyed_by_what_the_conditions_read() {
        let (admin, user, other) = (keypair(), keypair(), keypair());
        let shelf = Arc::new(Shelf::default());
        shelf.store(&admin, &user, "room == \"hawk\" && arg_zoom <= 10");
        let auth = Authorizer::with_source(trusting(&admin), shelf.clone());
        let p = user.principal();
        let ptz = |room: &str, x: i64, zoom: i64| {
            let cmd = CmdLine::new("ptzMove").arg("x", x).arg("zoom", zoom);
            action_env_for("cam", "PTZCamera", room, &cmd)
        };

        // One evaluation and one fetch, whatever `x` is: nothing reads it.
        for x in 0..20 {
            assert!(auth.check(&p, &ptz("hawk", x, 5)));
        }
        assert_eq!((auth.cache_stats(), shelf.fetches()), ((19, 1), 1));
        // What a condition does read still splits the key, both ways.
        assert!(!auth.check(&p, &ptz("hawk", 0, 50)));
        assert!(!auth.check(&p, &ptz("dove", 0, 5)));
        assert!(auth.check(&p, &ptz("hawk", 0, 7)));
        assert_eq!((auth.cache_stats(), shelf.fetches()), ((19, 4), 4));
        // Denials are not remembered: asking again asks the source again.
        assert!(!auth.check(&p, &ptz("hawk", 0, 50)));
        assert_eq!(shelf.fetches(), 5);

        // A credential set naming a new attribute grows the read set, which
        // empties the cache: the old grant is re-derived once, then hits.
        shelf.store(&admin, &other, "cmd == \"ptzMove\"");
        assert!(auth.check(&other.principal(), &ptz("dove", 0, 99)));
        let (hits, misses) = auth.cache_stats();
        assert!(auth.check(&p, &ptz("hawk", 3, 5)));
        assert!(auth.check(&p, &ptz("hawk", 4, 5)));
        assert_eq!(auth.cache_stats(), (hits + 1, misses + 1));
    }

    #[test]
    fn absent_and_empty_attributes_share_a_key() {
        let user = keypair();
        let mut engine = KeyNoteEngine::new();
        let only = Licensees::Principal(user.principal());
        engine
            .add_policy(Assertion::new(POLICY, only, "arg_mode == \"\"").unwrap())
            .unwrap();
        let auth = Authorizer::local(engine);
        let p = user.principal();
        let absent = action_env_for("s", "c", "r", &CmdLine::new("go"));
        let empty = action_env_for("s", "c", "r", &CmdLine::new("stop").arg("mode", ""));
        let set = action_env_for("s", "c", "r", &CmdLine::new("go").arg("mode", "fast"));
        assert!(auth.check(&p, &absent));
        assert!(auth.check(&p, &empty), "reads as the same action set");
        assert!(!auth.check(&p, &set));
        assert_eq!(auth.cache_stats(), (1, 2));
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        /// Attribute names conditions may mention.  `late` is kept out of
        /// the random conditions so that the fixed tail of each case stores
        /// the first credential to name it.
        const ATTRS: [&str; 4] = ["room", "cmd", "arg_zoom", "arg_x"];
        const VALUES: [&str; 5] = ["", "hawk", "ptzMove", "5", "50"];
        const USERS: usize = 3;

        fn atom() -> impl Strategy<Value = String> {
            let op = prop_oneof![Just("=="), Just("!="), Just("<="), Just(">")];
            prop_oneof![
                Just("true".to_string()),
                Just("false".to_string()),
                (0..ATTRS.len(), op, 0..VALUES.len())
                    .prop_map(|(a, op, v)| format!("{} {op} \"{}\"", ATTRS[a], VALUES[v])),
                (0..ATTRS.len(), 0..ATTRS.len())
                    .prop_map(|(a, b)| format!("{} == {}", ATTRS[a], ATTRS[b])),
            ]
        }

        fn condition() -> impl Strategy<Value = String> {
            // One sub-condition is negated, two are joined.
            atom().prop_recursive(2, 8, 2, |inner| {
                (prop::collection::vec(inner, 1..3), any::<bool>()).prop_map(|(parts, and)| match (
                    &parts[..],
                    and,
                ) {
                    ([a], _) => format!("!({a})"),
                    ([a, b], true) => format!("({a}) && ({b})"),
                    ([a, b], false) => format!("({a}) || ({b})"),
                    _ => unreachable!("one or two parts"),
                })
            })
        }

        fn environment() -> impl Strategy<Value = ActionEnv> {
            // Index VALUES.len() leaves the attribute out of the action set.
            prop::collection::vec(0..=VALUES.len(), ATTRS.len()).prop_map(|picks| {
                let present = |(name, pick): (&&str, &usize)| {
                    Some((name.to_string(), VALUES.get(*pick)?.to_string()))
                };
                ATTRS.iter().zip(&picks).filter_map(present).collect()
            })
        }

        #[derive(Debug, Clone)]
        enum Step {
            Check(usize, ActionEnv),
            /// A credential stored at the source, for one user.
            Store(usize, String),
            /// A policy installed at the daemon, for one user.
            Policy(usize, String),
        }

        /// Three checks to every two additions.
        fn step() -> impl Strategy<Value = Step> {
            (0..5usize, 0..USERS, environment(), condition()).prop_map(
                |(kind, user, env, conditions)| match kind {
                    0 => Step::Store(user, conditions),
                    1 => Step::Policy(user, conditions),
                    _ => Step::Check(user, env),
                },
            )
        }

        fn keys() -> &'static [KeyPair] {
            static KEYS: std::sync::OnceLock<Vec<KeyPair>> = std::sync::OnceLock::new();
            KEYS.get_or_init(|| (0..=USERS).map(|_| keypair()).collect())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The cached authorizer answers every check as the uncached one
            /// does, while credentials are added at the source and policies
            /// at the daemon — including a credential that names an
            /// attribute nothing named before and turns a denial into a
            /// grant — and while a small cache evicts.
            #[test]
            fn cached_check_equals_uncached_check(
                steps in prop::collection::vec(step(), 1..60),
                small_cache in any::<bool>(),
            ) {
                let (admin, users) = keys().split_first().expect("an admin key");
                let shelf = Arc::new(Shelf::default());
                let capacity = if small_cache { 3 } else { DEFAULT_CACHE_CAPACITY };
                let cached = Authorizer::with_source(trusting(admin), shelf.clone())
                    .with_cache_capacity(capacity);
                let uncached = Authorizer::with_source(trusting(admin), shelf.clone()).without_cache();
                let same = |user: &KeyPair, env: &ActionEnv| {
                    let p = user.principal();
                    let (got, want) = (cached.check(&p, env), uncached.check(&p, env));
                    prop_assert_eq!(got, want, "{:?}", env);
                    Ok(want)
                };

                for step in &steps {
                    match step {
                        Step::Check(u, env) => {
                            same(&users[*u], env)?;
                        }
                        Step::Store(u, conditions) => shelf.store(admin, &users[*u], conditions),
                        Step::Policy(u, conditions) => {
                            let to = Licensees::Principal(users[*u].principal());
                            let policy = Assertion::new(POLICY, to, conditions).unwrap();
                            cached.add_policy(policy.clone()).unwrap();
                            uncached.add_policy(policy).unwrap();
                        }
                    }
                }

                // The tail every case ends on: an action set that is denied
                // (so the cache may not hold it), then granted by a credential
                // stored afterwards that reads a name new to the read set.
                let mut env = action_env_for("s", "c", "nowhere", &CmdLine::new("never"));
                env.insert("late".into(), "yes".into());
                let denied = !same(&users[0], &env)?;
                shelf.store(admin, &users[0], "late == \"yes\"");
                prop_assert!(same(&users[0], &env)?, "the late credential grants");
                prop_assert!(same(&users[0], &env)?);
                env.insert("late".into(), "no".into());
                prop_assert_eq!(same(&users[0], &env)?, !denied, "`late` is read now");
            }
        }
    }
}
