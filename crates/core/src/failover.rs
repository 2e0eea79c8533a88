//! Mobile sockets: transparent client failover (§9).
//!
//! The paper lists as immediate future work "research and development of
//! mobile sockets … to handle downed ACE services allowing clients to
//! quickly resume their tasks with other service instances and to ensure
//! service mobility."  [`FailoverClient`] is that capability: a client
//! bound to a service *name* rather than an address.  On any link failure
//! it re-resolves the name through the ASD and retries against wherever the
//! service now lives — a restarted instance, or a replacement on a
//! different host.
//!
//! It has no retry loop of its own: a call is the pool's one call loop
//! (`LinkPool::call_with`, the loop [`ServiceCtx::call`] rides too) given
//! this client's policy as data — its backoff inside the retry window, its
//! optional retry budget and circuit breaker, its resolution cache.  The
//! link it holds between calls is the loop's held link; a resolution the
//! breaker admits is the loop's route.  A command that *executed* but
//! whose reply was lost is not silently executed twice unless the caller
//! opts in with [`FailoverClient::call_idempotent`].
//!
//! # Links and resolutions
//!
//! Every link — to the service and to the directory — is a checkout from a
//! [`LinkPool`]: a private one built at [`FailoverClient::bind`], or a
//! shared one injected with [`FailoverClient::with_pool`] so many clients
//! reuse each other's links and resumption tickets.  Either way a redial
//! resumes instead of re-handshaking, and a link is probed before a command
//! leaves on it.  The link to the service is held between calls; the
//! directory link is returned to the pool after each resolution.
//!
//! [`FailoverClient::with_resolution_cache`] remembers resolved addresses
//! in a [`ResolutionCache`] for a TTL derived from the ASD lease, so the
//! ASD round trip disappears from the steady state.  The same cache, keyed
//! by the whole `lookup` query, sits under every daemon's
//! [`ServiceCtx::lookup`]; this client's resolution is its `name=` case.
//!
//! Both layers invalidate eagerly: *any* link failure — and `E_UPGRADING` —
//! drops every cached answer naming the address (it may be stale) and
//! discards the link (it may have a reply in flight).  A cache can additionally be wired
//! to the ASD's `serviceExpired` event via [`ResolutionInvalidator`], so
//! lease expiry invalidates even idle clients.

use crate::behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
use crate::breaker::{BreakerRegistry, BreakerVerdict};
use crate::client::{ClientError, DEFAULT_CALL_TIMEOUT};
use crate::directory;
use crate::metrics::{Counter, MetricsRegistry};
use crate::pool::{LinkPool, PooledLink, Retrying};
use crate::protocol::{self, ServiceEntry};
use crate::retry::{RetryBudget, RetryPolicy};
use ace_lang::{ArgType, CmdLine, CmdSpec, ErrorCode, Reply, Semantics};
use ace_net::{Addr, HostId, SimNet};
use ace_security::keys::KeyPair;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fallback resolution TTL when the ASD reply does not carry a lease.
const DEFAULT_RESOLUTION_TTL: Duration = Duration::from_secs(2);

/// Upper bound on the TTL a lookup reply may impose on the cache.  A
/// corrupt or hostile `lease` argument (e.g. `i64::MAX` milliseconds)
/// must not produce an `Instant` arithmetic overflow in
/// [`ResolutionCache::store`] or an effectively-immortal cache entry.
const MAX_RESOLUTION_TTL: Duration = Duration::from_secs(3600);

/// Derive a cache TTL from the `lease` argument of an ASD lookup reply.
///
/// Absent, zero, or negative leases fall back to
/// [`DEFAULT_RESOLUTION_TTL`] (a zero TTL would turn every steady-state
/// resolve into a cache miss); oversized leases are clamped to
/// [`MAX_RESOLUTION_TTL`].
pub(crate) fn resolution_ttl(lease_ms: Option<i64>) -> Duration {
    match lease_ms {
        Some(ms) if ms > 0 => Duration::from_millis(ms as u64).min(MAX_RESOLUTION_TTL),
        _ => DEFAULT_RESOLUTION_TTL,
    }
}

// ---------------------------------------------------------------------------
// Resolution cache
// ---------------------------------------------------------------------------

/// What the directory answered, held for at most one lease: a `lookup`
/// query (any combination of the `name`, `class` and `room` filters) →
/// the entries it matched.  A [`FailoverClient`] holds the answer to its
/// one `name=` query here; a daemon holds every answer
/// [`ServiceCtx::lookup`] was given.
///
/// Four ways out, none of them a setting:
///
/// * **the lease** — the TTL is the `lease` argument of the lookup reply,
///   so a held answer outlives the registrations it lists by at most one
///   lease, which is how stale the directory itself may be (§2.4);
/// * **an empty answer is never held** — a name that is not registered
///   yet is asked for again;
/// * [`ResolutionCache::forget_addr`] — a link-level failure towards an
///   address, or its `E_UPGRADING`, drops every answer naming it;
/// * [`ResolutionCache::invalidate`] — `serviceExpired` for a name drops
///   every answer listing it.
pub struct ResolutionCache {
    inner: Mutex<HashMap<Query, Held>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    invalidations: Arc<Counter>,
}

/// The three `lookup` filters an answer was given to.
#[derive(PartialEq, Eq, Hash)]
struct Query {
    name: Option<String>,
    class: Option<String>,
    room: Option<String>,
}

impl Query {
    fn new(name: Option<&str>, class: Option<&str>, room: Option<&str>) -> Query {
        Query {
            name: name.map(str::to_string),
            class: class.map(str::to_string),
            room: room.map(str::to_string),
        }
    }
}

struct Held {
    entries: Vec<ServiceEntry>,
    expires: Instant,
}

impl ResolutionCache {
    /// A cache with its own private counters.
    pub fn new() -> ResolutionCache {
        Self::with_metrics(&MetricsRegistry::new())
    }

    /// A cache whose counters (`resolve.cache_hits`, `resolve.cache_misses`,
    /// `resolve.invalidations`) live in `metrics`.
    pub fn with_metrics(metrics: &MetricsRegistry) -> ResolutionCache {
        ResolutionCache {
            inner: Mutex::new(HashMap::new()),
            hits: metrics.counter("resolve.cache_hits"),
            misses: metrics.counter("resolve.cache_misses"),
            invalidations: metrics.counter("resolve.invalidations"),
        }
    }

    /// The answer to this query held and unexpired at `now`, if any.
    pub fn get(
        &self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
        now: Instant,
    ) -> Option<Vec<ServiceEntry>> {
        let query = Query::new(name, class, room);
        let mut inner = self.inner.lock();
        match inner.get(&query) {
            Some(held) if held.expires > now => {
                self.hits.incr();
                Some(held.entries.clone())
            }
            Some(_) => {
                inner.remove(&query);
                self.misses.incr();
                None
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Hold the directory's answer to this query, given at `now`, for
    /// `ttl`.  An empty answer is not held, and takes the place of one
    /// that was.
    pub fn store(
        &self,
        name: Option<&str>,
        class: Option<&str>,
        room: Option<&str>,
        entries: Vec<ServiceEntry>,
        ttl: Duration,
        now: Instant,
    ) {
        let query = Query::new(name, class, room);
        let mut inner = self.inner.lock();
        if entries.is_empty() {
            inner.remove(&query);
        } else {
            let expires = now + ttl;
            inner.insert(query, Held { entries, expires });
        }
    }

    /// Drop every held answer that lists the service `name`
    /// (`serviceExpired`).
    pub fn invalidate(&self, name: &str) {
        self.drop_listing(|entry| entry.name == name);
    }

    /// Drop every held answer that names `addr`: a call to it failed at
    /// the link or met `E_UPGRADING`, so whatever lived there may have
    /// moved, died or been replaced.
    pub fn forget_addr(&self, addr: &Addr) {
        self.drop_listing(|entry| entry.addr == *addr);
    }

    fn drop_listing(&self, suspect: impl Fn(&ServiceEntry) -> bool) {
        let mut inner = self.inner.lock();
        let before = inner.len();
        inner.retain(|_, held| !held.entries.iter().any(&suspect));
        self.invalidations.add((before - inner.len()) as u64);
    }

    /// Held (possibly expired) answers.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

impl Default for ResolutionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ResolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResolutionCache({} entries)", self.len())
    }
}

// ---------------------------------------------------------------------------
// serviceExpired → cache invalidation listener
// ---------------------------------------------------------------------------

/// A tiny service behavior that turns ASD `serviceExpired` notifications
/// into [`ResolutionCache::invalidate`] calls.  Spawn it as a daemon and
/// subscribe it with [`crate::directory::subscribe_expiry`]; every client
/// sharing the cache then drops dead addresses as soon as the ASD reaps
/// them, not just when their own calls fail.
pub struct ResolutionInvalidator {
    cache: Arc<ResolutionCache>,
}

impl ResolutionInvalidator {
    pub fn new(cache: Arc<ResolutionCache>) -> ResolutionInvalidator {
        ResolutionInvalidator { cache }
    }
}

impl ServiceBehavior for ResolutionInvalidator {
    fn semantics(&self) -> Semantics {
        Semantics::new().with(
            CmdSpec::new("onServiceExpired", "an ASD lease lapsed")
                .optional("service", ArgType::Str, "origin service")
                .optional("cmd", ArgType::Str, "origin command")
                .optional("name", ArgType::Word, "the expired service"),
        )
    }

    fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        if cmd.name() == "onServiceExpired" {
            if let Some(name) = cmd.get_text("name") {
                self.cache.invalidate(name);
            }
        }
        Reply::ok()
    }
}

// ---------------------------------------------------------------------------
// The failover client
// ---------------------------------------------------------------------------

/// A client bound to a service name, resolved through the ASD.
///
/// # Delivery semantics
///
/// * [`FailoverClient::call`] is **at-most-once**: resolution and
///   connection failures are retried within the retry window, but once a
///   command has been sent on an established link, a lost reply surfaces
///   as an error — the command may or may not have executed, and the
///   client never re-sends it.
/// * [`FailoverClient::call_idempotent`] is **at-least-once**: link
///   failures after send are also retried against a fresh resolution, so
///   the command can execute more than once.  Only use it for commands
///   that are safe to repeat (reads, absolute writes, registrations).
pub struct FailoverClient {
    /// Directory replicas to resolve through, tried in order.  A single
    /// ASD is the one-element case; the sharded directory plane passes
    /// the replica set of the shard owning `service_name`.
    directory: Vec<Addr>,
    service_name: String,
    /// How long to keep re-resolving before giving up.
    retry_window: Duration,
    /// Backoff between re-resolutions (lets leases expire / restarts
    /// finish).
    policy: RetryPolicy,
    /// The link to the service, held over from the previous call.
    current: Option<PooledLink>,
    pool: Arc<LinkPool>,
    cache: Option<Arc<ResolutionCache>>,
    breaker: Option<Arc<BreakerRegistry>>,
    retry_budget: Option<Arc<RetryBudget>>,
    /// Resolutions performed (observability for tests/experiments).
    resolutions: u64,
    /// Calls rejected locally by an open circuit breaker.
    breaker_fast_fails: u64,
}

impl FailoverClient {
    /// Bind to `service_name`, resolving through the ASD at `asd`.
    pub fn bind(
        net: SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        asd: Addr,
        service_name: impl Into<String>,
    ) -> FailoverClient {
        FailoverClient {
            pool: Arc::new(LinkPool::new(&net, from_host, identity)),
            directory: vec![asd],
            service_name: service_name.into(),
            retry_window: Duration::from_secs(10),
            policy: RetryPolicy::new(Duration::from_millis(50))
                .with_cap(Duration::from_millis(400)),
            current: None,
            cache: None,
            breaker: None,
            retry_budget: None,
            resolutions: 0,
            breaker_fast_fails: 0,
        }
    }

    /// Resolve through a replicated directory: `replicas` are tried in
    /// order until one answers, so a crashed directory replica costs one
    /// extra round trip instead of a failed resolution, and one that came
    /// back empty and is not repaired yet does not unregister the name.
    /// Replaces the single address given to [`FailoverClient::bind`]; an
    /// empty vector is ignored.
    pub fn with_directory_replicas(mut self, replicas: Vec<Addr>) -> FailoverClient {
        if !replicas.is_empty() {
            self.directory = replicas;
        }
        self
    }

    /// Adjust how long a failed call keeps hunting for a live instance.
    pub fn with_retry_window(mut self, window: Duration) -> FailoverClient {
        self.retry_window = window;
        self
    }

    /// Use a custom backoff policy between re-resolutions.  Any wall-clock
    /// budget on the policy is ignored; the retry window set by
    /// [`FailoverClient::with_retry_window`] governs how long a call hunts.
    pub fn with_policy(mut self, policy: RetryPolicy) -> FailoverClient {
        self.policy = policy;
        self
    }

    /// Check service links (and ASD lookup links) out of this shared `pool`
    /// instead of the client's private one.
    pub fn with_pool(mut self, pool: Arc<LinkPool>) -> FailoverClient {
        self.pool = pool;
        self
    }

    /// Cache resolved addresses in `cache` (TTL from the ASD lease).
    pub fn with_resolution_cache(mut self, cache: Arc<ResolutionCache>) -> FailoverClient {
        self.cache = Some(cache);
        self
    }

    /// Guard calls with per-target circuit breakers (shared across the
    /// process's clients).  Link failures and `E_BUSY` sheds count toward
    /// opening; an open breaker fails calls fast without touching the
    /// network, and opening evicts pooled links and the cached resolution
    /// exactly like an `E_UPGRADING` rejection does.
    pub fn with_breaker(mut self, breaker: Arc<BreakerRegistry>) -> FailoverClient {
        self.breaker = Some(breaker);
        self
    }

    /// Cap this client's retries with a shared [`RetryBudget`]: each call
    /// deposits a fraction of a retry, each actual retry withdraws one, so
    /// sustained failure degrades to roughly one attempt per call instead
    /// of a full retry storm.
    pub fn with_retry_budget(mut self, budget: Arc<RetryBudget>) -> FailoverClient {
        self.retry_budget = Some(budget);
        self
    }

    /// How many times the name has been (re-)resolved through the ASD
    /// (cache hits don't count — that is the point of the cache).
    pub fn resolutions(&self) -> u64 {
        self.resolutions
    }

    /// Calls rejected locally because the target's breaker was open.
    pub fn breaker_fast_fails(&self) -> u64 {
        self.breaker_fast_fails
    }

    /// Where the next attempt goes: the held resolution or a fresh one,
    /// unless the target's breaker is open — no route, then.
    fn route(&mut self) -> Result<Addr, ClientError> {
        let addr = self.resolve()?;
        let breaker = self.breaker.as_ref();
        let now = self.pool.clock().now();
        if breaker.is_some_and(|b| b.check(&addr, now) == BreakerVerdict::Rejected) {
            self.breaker_fast_fails += 1;
            return Err(ClientError::Service {
                code: ErrorCode::Busy,
                msg: format!("circuit breaker open for {addr}"),
            });
        }
        Ok(addr)
    }

    fn resolve(&mut self) -> Result<Addr, ClientError> {
        let name = Some(self.service_name.as_str());
        let now = self.pool.clock().now();
        let held = self
            .cache
            .as_ref()
            .and_then(|c| c.get(name, None, None, now));
        if let Some(entry) = held.and_then(|entries| entries.into_iter().next()) {
            return Ok(entry.addr);
        }
        // Hunt across the directory replica set in map order, under the
        // any-replica read rule `directory::lookup_any_replica` states.
        let lookup = protocol::lookup_cmd(name, None, None);
        let pool = &self.pool;
        let (entries, lease_ms) = directory::lookup_any_replica(
            &mut |addr, cmd| pool.checkout(addr)?.call(cmd),
            &self.directory,
            0,
            &lookup,
        )?;
        self.resolutions += 1;
        let addr = entries.first().map(|entry| entry.addr.clone());
        if let Some(cache) = &self.cache {
            let now = self.pool.clock().now();
            cache.store(name, None, None, entries, resolution_ttl(lease_ms), now);
        }
        addr.ok_or_else(|| ClientError::Service {
            code: ErrorCode::NotFound,
            msg: format!("{} not registered", self.service_name),
        })
    }

    /// Issue a command with at-most-once execution: on a *connection* or
    /// *resolution* failure the call hunts for a live instance within the
    /// retry window, but once a command has been sent on an established
    /// link, a lost reply surfaces as an error rather than being retried.
    pub fn call(&mut self, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.call_inner(cmd, false)
    }

    /// Issue an idempotent command with at-least-once semantics: link
    /// failures *after* send are also retried against a fresh resolution.
    pub fn call_idempotent(&mut self, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.call_inner(cmd, true)
    }

    /// The pool's one call loop with this client's policy (see the module
    /// docs).
    fn call_inner(&mut self, cmd: &CmdLine, at_least_once: bool) -> Result<CmdLine, ClientError> {
        let mut policy = self.policy.clone().with_budget(self.retry_window);
        if let Some(budget) = &self.retry_budget {
            policy = policy.with_retry_budget(Arc::clone(budget));
        }
        let (pool, cache, breaker) = (
            Arc::clone(&self.pool),
            self.cache.clone(),
            self.breaker.clone(),
        );
        let how = Retrying {
            policy,
            at_least_once,
            answers: cache.as_deref(),
            breaker: breaker.as_deref(),
        };
        let mut held = self.current.take();
        let outcome = pool.call_with(&mut held, || self.route(), cmd, DEFAULT_CALL_TIMEOUT, &how);
        self.current = held;
        outcome
    }
}

impl std::fmt::Debug for FailoverClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FailoverClient({} via {} directory replica{})",
            self.service_name,
            self.directory.len(),
            if self.directory.len() == 1 { "" } else { "s" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_net::Clock;

    fn entry(name: &str, host: &str, port: u16) -> ServiceEntry {
        ServiceEntry {
            name: name.into(),
            addr: Addr::new(host, port),
            class: "Service.Echo".into(),
            room: "lab".into(),
        }
    }

    #[test]
    fn cache_respects_ttl_and_invalidation() {
        let cache = ResolutionCache::new();
        let echo = vec![entry("echo", "svc", 700)];
        let t = Clock::real().now();
        let ttl = Duration::from_secs(5);
        cache.store(Some("echo"), None, None, echo.clone(), ttl, t);
        assert_eq!(cache.get(Some("echo"), None, None, t), Some(echo.clone()));
        cache.invalidate("echo");
        assert_eq!(cache.get(Some("echo"), None, None, t), None);

        let ttl = Duration::from_millis(10);
        cache.store(Some("echo"), None, None, echo, ttl, t);
        assert_eq!(
            cache.get(Some("echo"), None, None, t + ttl),
            None,
            "expired entry must not serve"
        );
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 2);
    }

    // Regression: a lookup reply carrying lease=0 (or a negative or
    // absurdly large value) must not poison the cache with a zero-duration
    // or overflowing TTL.
    #[test]
    fn resolution_ttl_clamps_degenerate_leases() {
        assert_eq!(resolution_ttl(None), DEFAULT_RESOLUTION_TTL);
        assert_eq!(resolution_ttl(Some(0)), DEFAULT_RESOLUTION_TTL);
        assert_eq!(resolution_ttl(Some(-5_000)), DEFAULT_RESOLUTION_TTL);
        assert_eq!(resolution_ttl(Some(i64::MIN)), DEFAULT_RESOLUTION_TTL);
        assert_eq!(resolution_ttl(Some(1_500)), Duration::from_millis(1_500));
        assert_eq!(resolution_ttl(Some(i64::MAX)), MAX_RESOLUTION_TTL);
    }

    #[test]
    fn overflowing_lease_does_not_panic_the_cache() {
        // Before the clamp, now + Duration::from_millis(i64::MAX as u64)
        // panicked inside ResolutionCache::store.
        let cache = ResolutionCache::new();
        let echo = vec![entry("echo", "svc", 700)];
        let ttl = resolution_ttl(Some(i64::MAX));
        let t = Clock::real().now();
        cache.store(Some("echo"), None, None, echo.clone(), ttl, t);
        assert_eq!(cache.get(Some("echo"), None, None, t), Some(echo));
    }

    /// The cache against a reference model that holds the rules and
    /// nothing else.  Mutation-checked: with `forget_addr` dropping only
    /// `name=` answers, and with `store` inserting empty answers, the
    /// property fails on its first cases.
    mod against_model {
        use super::*;
        use proptest::prelude::*;

        type Filters = (
            Option<&'static str>,
            Option<&'static str>,
            Option<&'static str>,
        );

        const QUERIES: [Filters; 6] = [
            (Some("a"), None, None),
            (Some("b"), None, None),
            (None, Some("Service.Echo"), None),
            (None, None, Some("lab")),
            (None, Some("Service.Echo"), Some("lab")),
            (None, None, None),
        ];

        /// Four services on three addresses: `c` and `d` share one, as a
        /// daemon registered under two names does.
        fn fleet() -> Vec<ServiceEntry> {
            vec![
                entry("a", "h1", 700),
                entry("b", "h2", 700),
                entry("c", "h3", 700),
                entry("d", "h3", 700),
            ]
        }

        /// Newest answer per query; an empty one is the absence of one.
        #[derive(Default)]
        struct Model(Vec<(Filters, Vec<ServiceEntry>, Instant)>);

        impl Model {
            fn store(&mut self, query: Filters, entries: Vec<ServiceEntry>, expires: Instant) {
                self.0.retain(|(held, ..)| *held != query);
                if !entries.is_empty() {
                    self.0.push((query, entries, expires));
                }
            }
            fn get(&self, query: Filters, now: Instant) -> Option<Vec<ServiceEntry>> {
                let fresh =
                    |(held, _, expires): &&(Filters, _, Instant)| *held == query && *expires > now;
                self.0
                    .iter()
                    .find(fresh)
                    .map(|(_, entries, _)| entries.clone())
            }
            fn drop_listing(&mut self, suspect: impl Fn(&ServiceEntry) -> bool) {
                self.0
                    .retain(|(_, entries, _)| !entries.iter().any(&suspect));
            }
        }

        #[derive(Debug, Clone)]
        enum Step {
            /// The directory answered `query` with this subset of the fleet.
            Fill(usize, u8, u64),
            Lookup(usize),
            /// The clock moves on.
            Wait(u64),
            Invalidate(usize),
            Forget(usize),
        }

        /// One step in three is a lookup; TTLs and waits are of one scale.
        fn step() -> impl Strategy<Value = Step> {
            (0..6usize, 0..QUERIES.len(), 0..16u8, 1..40u64, 0..4usize).prop_map(
                |(kind, query, subset, ms, service)| match kind {
                    0 => Step::Fill(query, subset, ms),
                    1 => Step::Wait(ms),
                    2 => Step::Invalidate(service),
                    3 => Step::Forget(service),
                    _ => Step::Lookup(query),
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Under any interleaving of fills, lookups, time, `invalidate`
            /// and `forget_addr`, a lookup is served exactly what the model
            /// serves: nothing past its TTL, nothing empty, nothing listing
            /// an invalidated name or a forgotten address.
            #[test]
            fn a_held_answer_obeys_the_four_rules(
                steps in prop::collection::vec(step(), 1..80),
            ) {
                let fleet = fleet();
                let cache = ResolutionCache::new();
                let mut model = Model::default();
                let mut now = Clock::real().now();
                for step in &steps {
                    match *step {
                        Step::Fill(q, subset, ttl_ms) => {
                            let answer: Vec<ServiceEntry> = (0..fleet.len())
                                .filter(|i| subset & (1 << i) != 0)
                                .map(|i| fleet[i].clone())
                                .collect();
                            let (name, class, room) = QUERIES[q];
                            let ttl = Duration::from_millis(ttl_ms);
                            cache.store(name, class, room, answer.clone(), ttl, now);
                            model.store(QUERIES[q], answer, now + ttl);
                        }
                        Step::Lookup(q) => {
                            let (name, class, room) = QUERIES[q];
                            let served = cache.get(name, class, room, now);
                            prop_assert!(served.as_ref().is_none_or(|held| !held.is_empty()));
                            prop_assert_eq!(served, model.get(QUERIES[q], now), "{:?}", QUERIES[q]);
                        }
                        Step::Wait(ms) => now += Duration::from_millis(ms),
                        Step::Invalidate(i) => {
                            cache.invalidate(&fleet[i].name);
                            model.drop_listing(|entry| entry.name == fleet[i].name);
                        }
                        Step::Forget(i) => {
                            cache.forget_addr(&fleet[i].addr);
                            model.drop_listing(|entry| entry.addr == fleet[i].addr);
                        }
                    }
                }
            }
        }
    }
}
