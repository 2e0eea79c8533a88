//! The one outbound path: every daemon and every composite client reaches
//! its peers through a [`LinkPool`].
//!
//! Who owns one: [`crate::daemon::Daemon::spawn`] creates one per daemon
//! (its host, its identity) and everything that daemon sends — the Fig. 9
//! start-up calls, lease renewals, [`crate::ServiceCtx::call`], the
//! notifier's deliveries — goes through it; [`crate::FailoverClient`] and
//! the store client build a private one unless handed a shared one.
//!
//! What [`LinkPool::checkout`] guarantees: the link it returns passed a
//! local health probe (see [`ace_net::Connection::is_healthy_idle`]) just
//! now, or was dialed just now.  A parked link to a daemon that has since
//! restarted, been replaced or partitioned away fails the probe and is
//! discarded *before* a command leaves, so pooling can never surface a
//! stale reply — the staleness rule is *discard, never repair*.  A dial
//! goes through the pool's [`TicketCache`], so every redial resumes the
//! session instead of paying the DH + signature handshake whenever the
//! target granted a ticket.  A link returns to the pool when its checkout
//! drops, with the default call timeout restored, if its [`ServiceClient`]
//! is still open: a link failure closes the client, never to be parked.
//!
//! **The one call loop.**  Every outbound call that waits for its reply —
//! [`crate::ServiceCtx::call`], [`crate::FailoverClient`], the Fig. 9
//! start-up registrations, [`LinkPool::call`] and through it the store
//! client — is `LinkPool::call_with`, which says once what each outcome
//! means.  The callers differ only in the policy they hand it as data, a
//! `Retrying`; [`LinkPool::call`] is the loop with one immediate retry.
//!
//! A caller that does not wait — the notifier — keeps its checkout and
//! drives it itself: [`PooledLink::cast`] / [`PooledLink::send`] write a
//! frame and return, [`PooledLink::try_recv`] reads what has come back,
//! [`PooledLink::register_waker`] says when to look.
//!
//! Counters (bindable to a registry with [`LinkPool::with_metrics`]):
//! `pool.checkouts`, `pool.reused`, `pool.stale`, `pool.dials`,
//! `link.resume_hits`, `link.full_handshakes`, and per verb
//! `wire.<verb>.frames|bytes` — every frame a link of the pool sends after
//! its handshake, sealed bytes.  A daemon's own pool keeps the first six
//! private — in a daemon's registry `link.resume_hits` and
//! `link.full_handshakes` count *accepted* links — and counts `wire.*` into
//! the daemon's registry.

use crate::breaker::BreakerRegistry;
use crate::client::{ClientError, ServiceClient, DEFAULT_CALL_TIMEOUT};
use crate::failover::ResolutionCache;
use crate::link::TicketCache;
use crate::metrics::{Counter, MetricsRegistry, WireCounts};
use crate::retry::RetryPolicy;
use ace_lang::{CmdLine, ErrorCode};
use ace_net::{Addr, Clock, HostId, SimNet};
use ace_security::keys::KeyPair;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Default cap on idle links retained per target address.
const DEFAULT_MAX_IDLE_PER_TARGET: usize = 8;

/// One caller's policy for [`LinkPool::call_with`]: all that tells its
/// callers apart.
pub(crate) struct Retrying<'a> {
    /// When to try again: delays, attempts, the retry budget, and — as its
    /// wall-clock budget — the window the whole call may take, which every
    /// attempt also carries as its `deadline=`.
    pub(crate) policy: RetryPolicy,
    /// Send again a command that may have run?
    pub(crate) at_least_once: bool,
    /// Directory answers to forget when a target fails at the link or is
    /// upgrading.
    pub(crate) answers: Option<&'a ResolutionCache>,
    /// Per-target breakers, told every outcome; one that opens lets go of
    /// its target as `E_UPGRADING` does.
    pub(crate) breaker: Option<&'a BreakerRegistry>,
}

/// A shared pool of authenticated secure links, keyed by target address.
pub struct LinkPool {
    net: SimNet,
    from_host: HostId,
    identity: KeyPair,
    tickets: TicketCache,
    idle: Mutex<HashMap<Addr, Vec<ServiceClient>>>,
    max_idle_per_target: usize,
    checkouts: Arc<Counter>,
    reused: Arc<Counter>,
    stale: Arc<Counter>,
    dials: Arc<Counter>,
    resume_hits: Arc<Counter>,
    full_handshakes: Arc<Counter>,
    /// Where every link this pool dials counts what it sends.
    wire: Arc<WireCounts>,
}

impl LinkPool {
    /// A pool dialing from `from_host` as `identity`, with its own private
    /// metrics registry.
    pub fn new(net: &SimNet, from_host: impl Into<HostId>, identity: KeyPair) -> LinkPool {
        Self::with_metrics(net, from_host, identity, &MetricsRegistry::new())
    }

    /// A pool whose counters live in `metrics` (so `aceStats` can observe
    /// them alongside the daemon's own).
    pub fn with_metrics(
        net: &SimNet,
        from_host: impl Into<HostId>,
        identity: KeyPair,
        metrics: &MetricsRegistry,
    ) -> LinkPool {
        LinkPool {
            net: net.clone(),
            from_host: from_host.into(),
            identity,
            tickets: TicketCache::new(),
            idle: Mutex::new(HashMap::new()),
            max_idle_per_target: DEFAULT_MAX_IDLE_PER_TARGET,
            checkouts: metrics.counter("pool.checkouts"),
            reused: metrics.counter("pool.reused"),
            stale: metrics.counter("pool.stale"),
            dials: metrics.counter("pool.dials"),
            resume_hits: metrics.counter("link.resume_hits"),
            full_handshakes: metrics.counter("link.full_handshakes"),
            wire: metrics.wire_out(),
        }
    }

    /// Count `wire.*` into `metrics`, whatever registry the other counters
    /// live in (builder style).
    pub(crate) fn with_wire_metrics(mut self, metrics: &MetricsRegistry) -> LinkPool {
        self.wire = metrics.wire_out();
        self
    }

    /// Adjust the per-target idle cap (builder style).
    pub fn with_max_idle(mut self, max_idle_per_target: usize) -> LinkPool {
        self.max_idle_per_target = max_idle_per_target;
        self
    }

    /// The shared ticket cache (e.g. to pre-invalidate a target).
    pub fn tickets(&self) -> &TicketCache {
        &self.tickets
    }

    /// The identity this pool dials with.
    pub fn identity(&self) -> &KeyPair {
        &self.identity
    }

    pub(crate) fn net(&self) -> &SimNet {
        &self.net
    }

    /// The clock of the net this pool dials through.
    pub fn clock(&self) -> &Clock {
        self.net.clock()
    }

    pub(crate) fn host(&self) -> &HostId {
        &self.from_host
    }

    /// Idle links currently parked for `target`.
    pub fn idle_count(&self, target: &Addr) -> usize {
        self.idle.lock().get(target).map_or(0, Vec::len)
    }

    /// Check a link to `target` out of the pool, reusing a healthy idle one
    /// or dialing (resumably) on miss.  Stale idle links are discarded here
    /// — their staleness is counted but never propagated to the caller.
    pub fn checkout(self: &Arc<Self>, target: &Addr) -> Result<PooledLink, ClientError> {
        self.checkouts.incr();
        loop {
            let candidate = self.idle.lock().get_mut(target).and_then(Vec::pop);
            let Some(client) = candidate else { break };
            if client.is_healthy_idle() {
                self.reused.incr();
                return Ok(PooledLink {
                    client: Some(client),
                    pool: Arc::clone(self),
                    reused: true,
                });
            }
            self.stale.incr();
            client.close();
        }

        self.dials.incr();
        let mut client = ServiceClient::connect_resumable(
            &self.net,
            &self.from_host,
            target.clone(),
            &self.identity,
            &self.tickets,
        )?;
        client.meter_wire(Arc::clone(&self.wire));
        if client.resumed() {
            self.resume_hits.incr();
        } else {
            self.full_handshakes.incr();
        }
        Ok(PooledLink {
            client: Some(client),
            pool: Arc::clone(self),
            reused: false,
        })
    }

    /// One command to `target` with a per-call `timeout`: the call loop
    /// with one immediate second attempt.  A refused dial, a shed command
    /// (`E_BUSY`, `E_DEADLINE`, `E_UPGRADING`, the last after evicting the
    /// links parked for `target`) and a link that fails under the command
    /// are each tried once more; anything else returns at once.  The
    /// re-send makes this at-least-once: a peer whose reply was lost sees
    /// the command twice.
    pub fn call(
        self: &Arc<Self>,
        target: &Addr,
        cmd: &CmdLine,
        timeout: Duration,
    ) -> Result<CmdLine, ClientError> {
        let how = Retrying {
            policy: RetryPolicy::fixed(Duration::ZERO).with_max_attempts(1),
            at_least_once: true,
            answers: None,
            breaker: None,
        };
        self.call_with(&mut None, || Ok(target.clone()), cmd, timeout, &how)
    }

    /// The one outbound call loop: send `cmd`, on the link in `held` or on
    /// a checkout to where `route` says, until the verb has run or `how`'s
    /// schedule is spent.  Each outcome means one thing:
    ///
    /// * a reply, or an error that is not retryable: the verb ran, and the
    ///   loop returns it;
    /// * no route (an open breaker is none), a refused dial, `E_BUSY`,
    ///   `E_DEADLINE` or `E_UPGRADING`: the verb did not run, and the loop
    ///   tries again — on `E_UPGRADING` after letting go of the target's
    ///   links, held and parked, so the retry dials the replacement;
    /// * a link failure under the command: the verb may have run, and the
    ///   loop tries again only if `how` is at-least-once or the link was
    ///   dialed for this attempt.
    ///
    /// A link failure or `E_UPGRADING` also forgets every directory answer
    /// in `how` that names the target.  Each attempt waits `timeout` for
    /// its reply, and a command without a `deadline=` carries what is left
    /// of `how`'s window, or `timeout` when it has none.  `held` keeps the
    /// link a reply came on.
    pub(crate) fn call_with(
        self: &Arc<Self>,
        held: &mut Option<PooledLink>,
        mut route: impl FnMut() -> Result<Addr, ClientError>,
        cmd: &CmdLine,
        timeout: Duration,
        how: &Retrying,
    ) -> Result<CmdLine, ClientError> {
        let mut retry = how.policy.start(self.clock());
        loop {
            // A held-over link whose peer closed it since the last call (it
            // retired for a replacement, or died) is let go before the send:
            // nothing of this call has left yet, where a failure after the
            // send would be ambiguous.  A link that fails the probe only
            // because the route is down is kept: that call fails fast.
            if let Some(link) = held.as_ref() {
                if !link.is_healthy_idle()
                    && self.net.reachable(&self.from_host, &link.target().host)
                {
                    let target = link.target().clone();
                    self.let_go(held, &target, how);
                }
            }
            let held_over = held.is_some();
            let failed = 'attempt: {
                if held.is_none() {
                    let target = match route() {
                        Ok(target) => target,
                        Err(err) => break 'attempt err,
                    };
                    match self.checkout(&target) {
                        Ok(link) => *held = Some(link),
                        Err(err) => {
                            self.failed_at_link(held, &target, how);
                            break 'attempt err;
                        }
                    }
                }
                let link = held.as_mut().expect("held over or just checked out");
                // Could a command already have run on this link?
                let established = held_over || link.was_reused();
                let target = link.target().clone();
                link.set_timeout(timeout);
                let stamp = retry.remaining().unwrap_or(timeout);
                let err = match link.client().call_within(cmd, stamp) {
                    Ok(reply) => {
                        if let Some(breaker) = how.breaker {
                            breaker.record_success(&target);
                        }
                        return Ok(reply);
                    }
                    Err(err) => err,
                };
                match err.code() {
                    Some(ErrorCode::Upgrading) => self.let_go(held, &target, how),
                    Some(code) if code.is_retryable() => self.trip(held, &target, how),
                    Some(_) => return Err(err),
                    None => {
                        self.failed_at_link(held, &target, how);
                        if established && !how.at_least_once {
                            return Err(err);
                        }
                    }
                }
                err
            };
            if !retry.backoff() {
                return Err(failed);
            }
        }
    }

    /// Let go of `target`: the link held to it, the links parked for it,
    /// and the directory answers naming it.
    fn let_go(&self, held: &mut Option<PooledLink>, target: &Addr, how: &Retrying) {
        if let Some(link) = held.take() {
            link.discard();
        }
        self.evict(target);
        if let Some(answers) = how.answers {
            answers.forget_addr(target);
        }
    }

    /// `target` failed at the link — a refused dial, or under the command:
    /// drop the (closed) held link and the answers naming `target`.
    fn failed_at_link(&self, held: &mut Option<PooledLink>, target: &Addr, how: &Retrying) {
        *held = None;
        if let Some(answers) = how.answers {
            answers.forget_addr(target);
        }
        self.trip(held, target, how);
    }

    /// Count a failure towards `target`'s breaker; one that opens lets go
    /// of the target.
    fn trip(&self, held: &mut Option<PooledLink>, target: &Addr, how: &Retrying) {
        let now = self.clock().now();
        let opened = how.breaker.is_some_and(|b| b.record_failure(target, now));
        if opened {
            self.let_go(held, target, how);
        }
    }

    /// Close and forget every idle link parked for `target`.  Used when a
    /// daemon at that address announces it is upgrading: parked links would
    /// otherwise hand the next checkout a connection to the quiescing
    /// instance.
    pub fn evict(&self, target: &Addr) {
        if let Some(links) = self.idle.lock().remove(target) {
            for client in links {
                client.close();
            }
        }
    }

    fn park(&self, mut client: ServiceClient) {
        // A timeout belongs to the checkout that set it, not to the link.
        client.set_timeout(DEFAULT_CALL_TIMEOUT);
        let mut idle = self.idle.lock();
        let slot = idle.entry(client.target().clone()).or_default();
        if slot.len() < self.max_idle_per_target {
            slot.push(client);
        }
        // Over the cap the client just drops, closing the link.
    }
}

impl fmt::Debug for LinkPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idle: usize = self.idle.lock().values().map(Vec::len).sum();
        write!(f, "LinkPool(from {}, idle: {})", self.from_host, idle)
    }
}

/// A checked-out pool link.  Dropping it returns the link to the pool
/// unless its client closed itself on a link failure.
pub struct PooledLink {
    client: Option<ServiceClient>,
    pool: Arc<LinkPool>,
    reused: bool,
}

impl PooledLink {
    /// Issue one command on the pooled link ([`ServiceClient::call`]).
    pub fn call(&mut self, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.client().call(cmd)
    }

    /// [`ServiceClient::send`] on the pooled link: a call frame whose reply
    /// the holder reads later, with [`PooledLink::try_recv`].
    pub fn send(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.client().send(cmd)
    }

    /// [`ServiceClient::cast`] on the pooled link.  A refusal that lands
    /// after the link is parked is skipped by the next checkout's call, or
    /// fails its probe and the link is discarded unread.
    pub fn cast(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.client().cast(cmd)
    }

    /// [`ServiceClient::try_recv`] on the pooled link.
    pub fn try_recv(&mut self) -> Result<Option<CmdLine>, ClientError> {
        self.client().try_recv()
    }

    /// Register the waker notified when the peer queues a frame or closes.
    pub fn register_waker(&self, waker: &std::task::Waker) {
        if let Some(client) = &self.client {
            client.register_waker(waker);
        }
    }

    fn client(&mut self) -> &mut ServiceClient {
        self.client.as_mut().expect("pooled link already consumed")
    }

    /// As [`PooledLink::call`], discarding a successful result.
    pub fn call_ok(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.call(cmd).map(|_| ())
    }

    /// Did the underlying link resume rather than full-handshake?
    pub fn resumed(&self) -> bool {
        self.client.as_ref().is_some_and(ServiceClient::resumed)
    }

    /// Was this link taken from the idle pool (as opposed to freshly
    /// dialed)?  At-most-once callers treat a reused link like an
    /// established connection: a failure after send is ambiguous.
    pub fn was_reused(&self) -> bool {
        self.reused
    }

    /// Is the checked-out link still fit to send on (the same probe
    /// checkout ran; see [`ServiceClient::is_healthy_idle`])?
    pub fn is_healthy_idle(&self) -> bool {
        self.client
            .as_ref()
            .is_some_and(ServiceClient::is_healthy_idle)
    }

    /// The target this link talks to.
    pub fn target(&self) -> &Addr {
        self.client
            .as_ref()
            .expect("pooled link already consumed")
            .target()
    }

    /// The service's authenticated principal.
    pub fn peer_principal(&self) -> &str {
        self.client
            .as_ref()
            .expect("pooled link already consumed")
            .peer_principal()
    }

    /// Adjust the per-call deadline for this checkout.
    pub fn set_timeout(&mut self, timeout: Duration) {
        if let Some(c) = self.client.as_mut() {
            c.set_timeout(timeout);
        }
    }

    /// Explicitly discard instead of returning to the pool.
    pub fn discard(mut self) {
        if let Some(client) = self.client.take() {
            client.close();
        }
    }
}

impl Drop for PooledLink {
    fn drop(&mut self) {
        if let Some(client) = self.client.take().filter(|c| !c.is_closed()) {
            self.pool.park(client);
        }
    }
}

impl fmt::Debug for PooledLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.client {
            Some(c) => write!(f, "PooledLink({}, closed: {})", c.target(), c.is_closed()),
            None => write!(f, "PooledLink(consumed)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
    use crate::daemon::{Daemon, DaemonConfig, DaemonHandle};
    use ace_lang::{CmdSpec, Reply, Semantics};

    struct Echo;
    impl ServiceBehavior for Echo {
        fn semantics(&self) -> Semantics {
            Semantics::new()
                .with(CmdSpec::new("echo", "echo back"))
                .with(CmdSpec::new("nap", "answer after 200 ms"))
        }
        fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
            if cmd.name() == "nap" {
                ctx.net().clock().sleep(Duration::from_millis(200));
            }
            Reply::ok()
        }
    }

    fn spawn_echo(net: &SimNet, host: &str, port: u16) -> DaemonHandle {
        net.add_host(host);
        Daemon::spawn(
            net,
            DaemonConfig::new("echo", "Service.Echo", "lab", host, port),
            Box::new(Echo),
        )
        .unwrap()
    }

    fn pool_on(net: &SimNet, host: &str) -> Arc<LinkPool> {
        net.add_host(host);
        Arc::new(LinkPool::new(
            net,
            host,
            KeyPair::generate(&mut rand::thread_rng()),
        ))
    }

    #[test]
    fn checkout_reuses_parked_links() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        let pool = pool_on(&net, "cli");
        let target = Addr::new("svc", 700);

        let mut a = pool.checkout(&target).unwrap();
        assert!(!a.resumed(), "first dial is a full handshake");
        a.call_ok(&CmdLine::new("echo")).unwrap();
        drop(a); // parks
        assert_eq!(pool.idle_count(&target), 1);

        let mut b = pool.checkout(&target).unwrap();
        b.call_ok(&CmdLine::new("echo")).unwrap();
        assert_eq!(pool.reused.get(), 1);
        assert_eq!(pool.dials.get(), 1);
        drop(b);
    }

    #[test]
    fn pool_miss_resumes_when_ticket_cached() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        let pool = pool_on(&net, "cli");
        let target = Addr::new("svc", 700);

        // First checkout dials fully (and harvests a ticket); discard it so
        // the second checkout must dial again.
        pool.checkout(&target).unwrap().discard();
        let b = pool.checkout(&target).unwrap();
        assert!(b.resumed(), "second dial must ride the ticket");
        assert_eq!(pool.resume_hits.get(), 1);
        assert_eq!(pool.full_handshakes.get(), 1);
    }

    #[test]
    fn stale_link_to_dead_host_is_discarded_at_checkout() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        let pool = pool_on(&net, "cli");
        let target = Addr::new("svc", 700);

        let mut a = pool.checkout(&target).unwrap();
        a.call_ok(&CmdLine::new("echo")).unwrap();
        drop(a);
        assert_eq!(pool.idle_count(&target), 1);

        net.kill_host(&"svc".into());
        let err = pool.checkout(&target);
        assert!(err.is_err(), "checkout to a dead host must fail fast");
        assert_eq!(pool.stale.get(), 1, "the parked link was found stale");
        assert_eq!(pool.idle_count(&target), 0);
    }

    #[test]
    fn a_link_that_failed_is_not_returned_to_the_pool() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        let pool = pool_on(&net, "cli");
        let target = Addr::new("svc", 700);

        let mut a = pool.checkout(&target).unwrap();
        a.set_timeout(Duration::from_millis(50));
        net.kill_host(&"svc".into());
        assert!(a.call(&CmdLine::new("echo")).is_err());
        drop(a);
        assert_eq!(
            pool.idle_count(&target),
            0,
            "a link that failed mid-call must not be parked"
        );
    }

    #[test]
    fn a_timeout_set_on_one_checkout_does_not_leak_into_the_next() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        let pool = pool_on(&net, "cli");
        let target = Addr::new("svc", 700);

        let mut a = pool.checkout(&target).unwrap();
        a.set_timeout(Duration::from_millis(50));
        drop(a); // parks
        let mut b = pool.checkout(&target).unwrap();
        assert!(b.was_reused(), "the same link came back");
        b.call_ok(&CmdLine::new("nap"))
            .expect("the next checkout waits the default timeout");
    }

    #[test]
    fn idle_cap_bounds_parked_links() {
        let net = SimNet::new();
        let _daemon = spawn_echo(&net, "svc", 700);
        net.add_host("cli");
        let pool = Arc::new(
            LinkPool::new(&net, "cli", KeyPair::generate(&mut rand::thread_rng())).with_max_idle(1),
        );
        let target = Addr::new("svc", 700);
        let a = pool.checkout(&target).unwrap();
        let b = pool.checkout(&target).unwrap();
        drop(a);
        drop(b);
        assert_eq!(pool.idle_count(&target), 1, "cap is enforced");
    }
}
