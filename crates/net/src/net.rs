//! The simulated building network.
//!
//! The paper's ACE ran on a physical LAN of Unix hosts.  [`SimNet`] is the
//! in-process substitute: a registry of named hosts, listeners, and datagram
//! sockets that provides the same observable behaviour — connect/refuse,
//! ordered reliable streams, lossy datagrams, host crashes, partitions, and
//! per-frame latency — plus traffic metrics for the experiments.
//!
//! `SimNet` is `Clone` (shared handle) and all operations are thread-safe;
//! every ACE daemon thread holds a handle.

use crate::addr::{Addr, HostId};
use crate::clock::Clock;
use crate::conn::{Connection, Listener};
use crate::datagram::{Datagram, DatagramSocket};
use crate::error::NetError;
use crate::metrics::NetMetrics;
use crate::wake::WakeCell;
use crossbeam_channel::Sender;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunable behaviour of the simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Added delay per frame/datagram send (models wire latency).
    pub latency: Duration,
    /// Probability in `[0, 1]` that a datagram is silently dropped
    /// (streams are always reliable, like TCP).
    pub datagram_loss: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            datagram_loss: 0.0,
        }
    }
}

#[derive(Debug, Default)]
struct HostState {
    up: bool,
}

/// A bound endpoint: its inbox, the wake cell its owning task parked on,
/// and the identity of the bind.  A crashed host's endpoints are removed
/// from the map while the owning `Listener`/`DatagramSocket` objects live
/// on; the id keeps their eventual `Drop` from unbinding a *replacement*
/// that re-bound the same address in the meantime.
struct Endpoint<T> {
    tx: Sender<T>,
    wake: Arc<WakeCell>,
    bind_id: u64,
}

type WakeableInbox<T> = HashMap<Addr, Endpoint<T>>;

pub(crate) struct NetInner {
    hosts: RwLock<HashMap<HostId, HostState>>,
    listeners: Mutex<WakeableInbox<Connection>>,
    dsockets: Mutex<WakeableInbox<Datagram>>,
    /// Severed host pairs, stored with the two names ordered.
    blocked: RwLock<HashSet<(HostId, HostId)>>,
    config: RwLock<NetConfig>,
    pub(crate) metrics: NetMetrics,
    ephemeral: AtomicU16,
    bind_ids: AtomicU64,
    /// Armed per-host storage faults (see `fault::StorageFaultHub`).
    storage_faults: crate::fault::StorageFaultHub,
    pub(crate) clock: Clock,
}

impl NetInner {
    fn host_up(&self, h: &HostId) -> Result<(), NetError> {
        match self.hosts.read().get(h) {
            None => Err(NetError::UnknownHost(h.to_string())),
            Some(s) if !s.up => Err(NetError::Unreachable {
                from: h.to_string(),
                to: h.to_string(),
            }),
            Some(_) => Ok(()),
        }
    }

    /// Both endpoints up and no partition between them.
    pub(crate) fn check_link(&self, a: &HostId, b: &HostId) -> Result<(), NetError> {
        let hosts = self.hosts.read();
        for h in [a, b] {
            match hosts.get(h) {
                None => return Err(NetError::UnknownHost(h.to_string())),
                Some(s) if !s.up => {
                    return Err(NetError::Unreachable {
                        from: a.to_string(),
                        to: b.to_string(),
                    })
                }
                Some(_) => {}
            }
        }
        drop(hosts);
        if a != b && self.blocked.read().contains(&ordered(a, b)) {
            return Err(NetError::Unreachable {
                from: a.to_string(),
                to: b.to_string(),
            });
        }
        Ok(())
    }

    pub(crate) fn apply_latency(&self) {
        let latency = self.config.read().latency;
        if !latency.is_zero() {
            self.clock.sleep(latency);
        }
    }

    /// Unbind, but only if the entry still belongs to the caller: a stale
    /// endpoint object dropped after a crash must not evict whoever
    /// re-bound the address since.
    pub(crate) fn unbind_listener(&self, addr: &Addr, bind_id: u64) {
        let mut listeners = self.listeners.lock();
        if listeners.get(addr).is_some_and(|e| e.bind_id == bind_id) {
            listeners.remove(addr);
        }
    }

    pub(crate) fn unbind_dsocket(&self, addr: &Addr, bind_id: u64) {
        let mut dsockets = self.dsockets.lock();
        if dsockets.get(addr).is_some_and(|e| e.bind_id == bind_id) {
            dsockets.remove(addr);
        }
    }

    fn drop_roll(&self) -> bool {
        let p = self.config.read().datagram_loss;
        p > 0.0 && rand::random::<f64>() < p
    }
}

fn ordered(a: &HostId, b: &HostId) -> (HostId, HostId) {
    if a <= b {
        (a.clone(), b.clone())
    } else {
        (b.clone(), a.clone())
    }
}

/// Shared handle to the simulated network.
#[derive(Clone)]
pub struct SimNet {
    inner: Arc<NetInner>,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// A fresh, empty network.
    pub fn new() -> Self {
        SimNet {
            inner: Arc::new(NetInner {
                hosts: RwLock::new(HashMap::new()),
                listeners: Mutex::new(HashMap::new()),
                dsockets: Mutex::new(HashMap::new()),
                blocked: RwLock::new(HashSet::new()),
                config: RwLock::new(NetConfig::default()),
                metrics: NetMetrics::default(),
                ephemeral: AtomicU16::new(49152),
                bind_ids: AtomicU64::new(0),
                storage_faults: crate::fault::StorageFaultHub::new(),
                clock: Clock::real(),
            }),
        }
    }

    /// The per-host storage-fault hub: fault plans arm byte-level disk
    /// faults here and the persistent store's backends consume them.
    pub fn storage_faults(&self) -> crate::fault::StorageFaultHub {
        self.inner.storage_faults.clone()
    }

    /// The clock of this net: every time read and timed wait of whoever
    /// dials through it.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Replace the network configuration.
    pub fn set_config(&self, config: NetConfig) {
        *self.inner.config.write() = config;
    }

    /// Current configuration.
    pub fn config(&self) -> NetConfig {
        self.inner.config.read().clone()
    }

    /// Traffic metrics.
    pub fn metrics(&self) -> &NetMetrics {
        &self.inner.metrics
    }

    /// Add a host (idempotent; re-adding a downed host does not revive it).
    pub fn add_host(&self, name: impl Into<HostId>) -> HostId {
        let id = name.into();
        self.inner
            .hosts
            .write()
            .entry(id.clone())
            .or_insert(HostState { up: true });
        id
    }

    /// All known host names, sorted.
    pub fn hosts(&self) -> Vec<HostId> {
        let mut v: Vec<HostId> = self.inner.hosts.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Is the host present and up?
    pub fn is_up(&self, host: &HostId) -> bool {
        self.inner
            .hosts
            .read()
            .get(host)
            .map(|s| s.up)
            .unwrap_or(false)
    }

    /// Crash a host: all its listeners and datagram sockets unbind, and every
    /// link to it fails until [`SimNet::revive_host`].
    pub fn kill_host(&self, host: &HostId) {
        if let Some(state) = self.inner.hosts.write().get_mut(host) {
            state.up = false;
        }
        // Dropping the accept/datagram senders wakes blocked accepts with
        // `Closed`, which is how daemons on that host observe the crash.
        // Registered reactor wakers fire too, so cooperative tasks polling
        // these endpoints notice the disconnect on their next poll.
        let mut dead_cells = Vec::new();
        self.inner.listeners.lock().retain(|addr, endpoint| {
            let keep = addr.host != *host;
            if !keep {
                dead_cells.push(Arc::clone(&endpoint.wake));
            }
            keep
        });
        self.inner.dsockets.lock().retain(|addr, endpoint| {
            let keep = addr.host != *host;
            if !keep {
                dead_cells.push(Arc::clone(&endpoint.wake));
            }
            keep
        });
        for cell in dead_cells {
            cell.wake();
        }
    }

    /// Bring a crashed host back (its services must re-bind and re-register,
    /// per the daemon startup sequence of Fig. 9).
    pub fn revive_host(&self, host: &HostId) {
        if let Some(state) = self.inner.hosts.write().get_mut(host) {
            state.up = true;
        }
    }

    /// Sever the link between two hosts (network partition).
    pub fn partition(&self, a: &HostId, b: &HostId) {
        self.inner.blocked.write().insert(ordered(a, b));
    }

    /// Restore the link between two hosts.
    pub fn heal(&self, a: &HostId, b: &HostId) {
        self.inner.blocked.write().remove(&ordered(a, b));
    }

    /// Restore every severed link.
    pub fn heal_all(&self) {
        self.inner.blocked.write().clear();
    }

    /// Can `a` currently talk to `b`?
    pub fn reachable(&self, a: &HostId, b: &HostId) -> bool {
        self.inner.check_link(a, b).is_ok()
    }

    /// Bind a listener at `addr`.  The host must exist and be up.
    pub fn listen(&self, addr: Addr) -> Result<Listener, NetError> {
        self.inner.host_up(&addr.host)?;
        let mut listeners = self.inner.listeners.lock();
        if listeners.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr));
        }
        let (tx, rx) = crossbeam_channel::unbounded();
        let wake = Arc::new(WakeCell::new());
        let bind_id = self.inner.bind_ids.fetch_add(1, Ordering::Relaxed);
        listeners.insert(
            addr.clone(),
            Endpoint {
                tx,
                wake: Arc::clone(&wake),
                bind_id,
            },
        );
        Ok(Listener::new(
            addr,
            rx,
            wake,
            Arc::clone(&self.inner),
            bind_id,
        ))
    }

    /// Connect from `from_host` to the listener at `to`.
    pub fn connect(&self, from_host: &HostId, to: Addr) -> Result<Connection, NetError> {
        self.inner.check_link(from_host, &to.host)?;
        self.inner.apply_latency();
        let local = Addr::new(
            from_host.clone(),
            self.inner.ephemeral.fetch_add(1, Ordering::Relaxed).max(1),
        );
        let (accept_tx, accept_wake) = {
            let listeners = self.inner.listeners.lock();
            let endpoint = listeners
                .get(&to)
                .ok_or_else(|| NetError::ConnectionRefused(to.clone()))?;
            (endpoint.tx.clone(), Arc::clone(&endpoint.wake))
        };
        let (client, server) = Connection::pair(&self.inner, local, to.clone());
        accept_tx
            .send(server)
            .map_err(|_| NetError::ConnectionRefused(to))?;
        accept_wake.wake();
        self.inner.metrics.record_connection();
        Ok(client)
    }

    /// Bind a datagram socket at `addr` (the daemon data thread's UDP
    /// channel, §2.1.1).
    pub fn bind_datagram(&self, addr: Addr) -> Result<DatagramSocket, NetError> {
        self.inner.host_up(&addr.host)?;
        let mut sockets = self.inner.dsockets.lock();
        if sockets.contains_key(&addr) {
            return Err(NetError::AddrInUse(addr));
        }
        let (tx, rx) = crossbeam_channel::unbounded();
        let wake = Arc::new(WakeCell::new());
        let bind_id = self.inner.bind_ids.fetch_add(1, Ordering::Relaxed);
        sockets.insert(
            addr.clone(),
            Endpoint {
                tx,
                wake: Arc::clone(&wake),
                bind_id,
            },
        );
        Ok(DatagramSocket::new(
            addr,
            rx,
            wake,
            Arc::clone(&self.inner),
            bind_id,
        ))
    }

    /// Send one datagram.  Unreliable: it is silently dropped if nothing is
    /// bound at `to` or the configured loss probability fires; reachability
    /// failures do error (the sender's OS would notice those).
    pub fn send_datagram(&self, from: &Addr, to: &Addr, payload: Vec<u8>) -> Result<(), NetError> {
        self.inner.check_link(&from.host, &to.host)?;
        self.inner.metrics.record_datagram(payload.len());
        if self.inner.drop_roll() {
            self.inner.metrics.record_datagram_drop();
            return Ok(());
        }
        self.inner.apply_latency();
        let target = {
            let dsockets = self.inner.dsockets.lock();
            dsockets
                .get(to)
                .map(|e| (e.tx.clone(), Arc::clone(&e.wake)))
        };
        if let Some((tx, wake)) = target {
            if tx
                .send(Datagram {
                    from: from.clone(),
                    to: to.clone(),
                    payload,
                })
                .is_ok()
            {
                wake.wake();
            }
        }
        Ok(())
    }

    /// Multicast a datagram to every socket bound on `port`, on every
    /// reachable host.  This is the discovery substrate the Jini baseline
    /// uses (§8.4: "a multicast mechanism is used to find the lookup
    /// service").
    pub fn multicast(&self, from: &Addr, port: u16, payload: &[u8]) -> usize {
        let targets: Vec<(Addr, Sender<Datagram>, Arc<WakeCell>)> = self
            .inner
            .dsockets
            .lock()
            .iter()
            .filter(|(addr, _)| addr.port == port)
            .map(|(addr, e)| (addr.clone(), e.tx.clone(), Arc::clone(&e.wake)))
            .collect();
        let mut delivered = 0;
        for (addr, tx, wake) in targets {
            if self.inner.check_link(&from.host, &addr.host).is_err() {
                continue;
            }
            self.inner.metrics.record_datagram(payload.len());
            if self.inner.drop_roll() {
                self.inner.metrics.record_datagram_drop();
                continue;
            }
            if tx
                .send(Datagram {
                    from: from.clone(),
                    to: addr,
                    payload: payload.to_vec(),
                })
                .is_ok()
            {
                wake.wake();
                delivered += 1;
            }
        }
        delivered
    }
}

impl std::fmt::Debug for SimNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimNet({} hosts)", self.inner.hosts.read().len())
    }
}
