//! Stream connections and listeners of the simulated network.
//!
//! A [`Connection`] models one ACE socket: an ordered, reliable, framed byte
//! stream between two endpoints.  Frames are whole encrypted command strings
//! or data blocks — the simulation frames at the message level rather than
//! emulating a byte stream, which preserves per-message wire cost and
//! ordering without a reassembly layer.
//!
//! **Zero-copy contract**: frames move by *ownership*.  [`Connection::send`]
//! takes the `Vec<u8>` the sender sealed in place and hands the same
//! allocation through the channel to the receiver, who gets it back from
//! [`Connection::recv`] and decrypts it in place — the wire hot path never
//! copies frame bytes between the seal and the open.

use crate::addr::Addr;
use crate::error::NetError;
use crate::net::NetInner;
use crate::wake::WakeCell;
use crossbeam_channel::{Receiver, Sender};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

/// One frame in flight.
#[derive(Debug)]
pub(crate) enum WireItem {
    Frame(Vec<u8>),
    /// Graceful close marker so the peer distinguishes shutdown from crash.
    Close,
}

/// One side of an established connection.
pub struct Connection {
    local: Addr,
    peer: Addr,
    tx: Sender<WireItem>,
    rx: Receiver<WireItem>,
    /// Woken whenever the *peer* queues something for us (reactor support).
    rx_wake: Arc<WakeCell>,
    /// The peer's `rx_wake`: our sends and close wake their consumer.
    peer_wake: Arc<WakeCell>,
    net: Arc<NetInner>,
}

impl Connection {
    pub(crate) fn pair(
        net: &Arc<NetInner>,
        client: Addr,
        server: Addr,
    ) -> (Connection, Connection) {
        let (c2s_tx, c2s_rx) = crossbeam_channel::unbounded();
        let (s2c_tx, s2c_rx) = crossbeam_channel::unbounded();
        let client_wake = Arc::new(WakeCell::new());
        let server_wake = Arc::new(WakeCell::new());
        let client_side = Connection {
            local: client.clone(),
            peer: server.clone(),
            tx: c2s_tx,
            rx: s2c_rx,
            rx_wake: Arc::clone(&client_wake),
            peer_wake: Arc::clone(&server_wake),
            net: Arc::clone(net),
        };
        let server_side = Connection {
            local: server,
            peer: client,
            tx: s2c_tx,
            rx: c2s_rx,
            rx_wake: server_wake,
            peer_wake: client_wake,
            net: Arc::clone(net),
        };
        (client_side, server_side)
    }

    /// The clock of the net this connection rides.
    pub fn clock(&self) -> &crate::Clock {
        &self.net.clock
    }

    /// Remote endpoint.
    pub fn peer_addr(&self) -> &Addr {
        &self.peer
    }

    /// Send one frame, transferring ownership of the buffer all the way to
    /// the receiver (no copy).  Fails if either host is down, a partition
    /// separates them, or the peer has gone away.
    pub fn send(&self, frame: Vec<u8>) -> Result<(), NetError> {
        self.net.check_link(&self.local.host, &self.peer.host)?;
        self.net.apply_latency();
        self.net.metrics.record_frame(frame.len());
        self.tx
            .send(WireItem::Frame(frame))
            .map_err(|_| NetError::Closed)?;
        self.peer_wake.wake();
        Ok(())
    }

    /// Receive the next frame, blocking until one arrives or the peer
    /// closes.  The returned buffer is the sender's own allocation —
    /// callers may decrypt it in place.
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        match self.rx.recv() {
            Ok(WireItem::Frame(f)) => Ok(f),
            Ok(WireItem::Close) | Err(_) => Err(NetError::Closed),
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(WireItem::Frame(f)) => Ok(f),
            Ok(WireItem::Close) => Err(NetError::Closed),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Health probe for an *idle* connection, as used by pooled-link
    /// checkout.  Returns `false` when the route to the peer is down
    /// (crashed host or partition), the peer has closed or vanished, or —
    /// crucially — when anything at all is queued inbound: on an idle
    /// request/reply link a queued frame can only be left-over state from a
    /// previous conversation, and reusing such a link could surface a stale
    /// reply.  Unhealthy links must be discarded, never repaired.
    pub fn is_healthy_idle(&self) -> bool {
        if self
            .net
            .check_link(&self.local.host, &self.peer.host)
            .is_err()
        {
            return false;
        }
        matches!(
            self.rx.try_recv(),
            Err(crossbeam_channel::TryRecvError::Empty)
        )
    }

    /// Non-blocking receive: `Ok(None)` when no frame is queued.
    pub fn try_recv(&self) -> Result<Option<Vec<u8>>, NetError> {
        match self.rx.try_recv() {
            Ok(WireItem::Frame(f)) => Ok(Some(f)),
            Ok(WireItem::Close) => Err(NetError::Closed),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Register the waker notified whenever the peer queues a frame (or
    /// closes).  Reactor contract: register first, then [`Self::try_recv`]
    /// until empty — anything arriving after the empty check wakes anew.
    pub fn register_waker(&self, waker: &Waker) {
        self.rx_wake.register(waker);
    }

    /// Is anything queued inbound right now?  (Cheap; used by the reactor
    /// to defer handshakes until the first frame has actually arrived.)
    pub fn has_pending(&self) -> bool {
        !self.rx.is_empty()
    }

    /// Graceful shutdown; the peer's next receive returns [`NetError::Closed`]
    /// once queued frames drain.
    pub fn close(&self) {
        let _ = self.tx.send(WireItem::Close);
        self.peer_wake.wake();
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Connection({} -> {})", self.local, self.peer)
    }
}

/// A bound accept queue, as produced by `SimNet::listen`.
pub struct Listener {
    addr: Addr,
    rx: Receiver<Connection>,
    wake: Arc<WakeCell>,
    net: Arc<NetInner>,
    bind_id: u64,
}

impl Listener {
    pub(crate) fn new(
        addr: Addr,
        rx: Receiver<Connection>,
        wake: Arc<WakeCell>,
        net: Arc<NetInner>,
        bind_id: u64,
    ) -> Self {
        Listener {
            addr,
            rx,
            wake,
            net,
            bind_id,
        }
    }

    /// The bound address.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// Block until a client connects.
    pub fn accept(&self) -> Result<Connection, NetError> {
        self.rx.recv().map_err(|_| NetError::Closed)
    }

    /// Accept with a deadline.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Connection, NetError> {
        match self.rx.recv_timeout(timeout) {
            Ok(c) => Ok(c),
            Err(crossbeam_channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(crossbeam_channel::RecvTimeoutError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Non-blocking accept: `Ok(None)` when nobody is connecting,
    /// `Err(Closed)` once the host is killed (accept sender dropped).
    pub fn try_accept(&self) -> Result<Option<Connection>, NetError> {
        match self.rx.try_recv() {
            Ok(c) => Ok(Some(c)),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(NetError::Closed),
        }
    }

    /// Register the waker notified on each inbound connection (or when the
    /// host is killed).  Register before polling [`Self::try_accept`].
    pub fn register_waker(&self, waker: &Waker) {
        self.wake.register(waker);
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.net.unbind_listener(&self.addr, self.bind_id);
    }
}

impl std::fmt::Debug for Listener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Listener({})", self.addr)
    }
}
