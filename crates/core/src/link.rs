//! Secure command links: the encrypted, authenticated sockets all ACE
//! daemon traffic flows over.
//!
//! "The daemon provides a structure for encrypted and certified socket
//! communications" (§2.1).  A [`SecureLink`] wraps a raw [`Connection`] with:
//!
//! 1. a Diffie–Hellman handshake (plaintext `hello dh=<hex>;` in each
//!    direction) establishing per-direction session keys,
//! 2. proof of identity: the client signs the handshake transcript with its
//!    RSA key and sends `auth principal=… proof=…;` sealed — so the server
//!    knows *which principal* is issuing commands (the input to KeyNote),
//! 3. sealed frames for every subsequent command/reply.
//!
//! # Casts
//!
//! A frame is a *call* — its sender waits for the one reply it is owed — or
//! a *cast*: [`SecureLink::send_cast`] seals the same frame behind one
//! marker byte, the sender does not wait, and the receiver answers only if
//! it did not run the command (the rule is the daemon shell's; see
//! [`crate::daemon`]).  A frame without the marker is byte for byte what it
//! was before casts existed.
//!
//! # Session resumption (the connection fast path)
//!
//! A full handshake costs a DH exchange plus an RSA transcript signature.
//! When the server holds a [`TicketVault`], the sealed `ok` it sends at the
//! end of a full handshake also carries a resumption ticket; both sides
//! independently derive the ticket's master key from the handshake secret
//! (it never travels).  A client holding a cached ticket reconnects with a
//! single plaintext `resume ticket=… nonce=… mac=…;` frame: the MAC proves
//! possession of the master key, the server-side single-use nonce check
//! makes replay impossible, and both sides derive fresh per-direction
//! session keys from the nonce.  The server's *sealed* `ok` reply proves it
//! too holds the master key, restoring mutual authentication without any
//! public-key operation.  On any rejection (restarted server, expired
//! ticket, bad proof) the server answers with a plaintext `reject …;` and
//! the client transparently falls back to the full handshake on the same
//! connection.

use crate::metrics::{Counter, WireCounts};
use ace_lang::{CmdLine, Value};
use ace_net::{Addr, Connection, NetError};
use ace_security::cipher::{DhLocal, SecureChannel, SessionKey};
use ace_security::keys::{KeyPair, PublicKey, Signature};
use ace_security::ticket::{resume_proof, ResumptionTicket};
use parking_lot::Mutex;
use rand::Rng;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors establishing or using a secure link.
#[derive(Debug)]
pub enum LinkError {
    Net(NetError),
    /// Frame failed to decrypt/authenticate.
    Seal(ace_security::cipher::SealError),
    /// A frame was not a parseable command: text that is not UTF-8 or not
    /// in the language, or an attachment section that does not hold exactly
    /// the blobs the text declares.
    Malformed(String),
    /// Handshake violated the protocol.
    Handshake(String),
    /// The client's identity proof did not verify.
    BadIdentity(String),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Net(e) => write!(f, "network: {e}"),
            LinkError::Seal(e) => write!(f, "seal: {e}"),
            LinkError::Malformed(m) => write!(f, "malformed frame: {m}"),
            LinkError::Handshake(m) => write!(f, "handshake: {m}"),
            LinkError::BadIdentity(m) => write!(f, "identity: {m}"),
        }
    }
}
impl std::error::Error for LinkError {}

impl From<NetError> for LinkError {
    fn from(e: NetError) -> Self {
        LinkError::Net(e)
    }
}

/// Direction labels for per-direction key derivation.
const DIR_CLIENT_TO_SERVER: u64 = 0xC15;
const DIR_SERVER_TO_CLIENT: u64 = 0x5C1;
/// Label under which the resumption master key is derived from a handshake
/// session key (mixed with the ticket id, so every ticket has its own
/// master).
const RESUME_MASTER_LABEL: u64 = 0x7e5a_11e7;

/// First plaintext byte of a cast's frame.  A command's text starts with
/// its name, a `<WORD>`, which no control byte can begin — so the marker
/// cannot be mistaken for the start of a call.
const CAST_MARKER: u8 = 0x01;

fn resume_master(handshake_key: &SessionKey, ticket_id: u64) -> SessionKey {
    handshake_key.derive(RESUME_MASTER_LABEL ^ ticket_id)
}

// ---------------------------------------------------------------------------
// Server-side ticket vault
// ---------------------------------------------------------------------------

/// Most live tickets a vault retains; oldest are evicted beyond this.
const VAULT_CAP: usize = 4096;
/// Most nonces remembered per ticket; a ticket that busy is retired rather
/// than risking an unbounded replay set.
const NONCES_PER_TICKET_CAP: usize = 1024;

struct VaultEntry {
    master: SessionKey,
    client_principal: String,
    expires: Instant,
    used_nonces: HashSet<u64>,
}

/// The server side of session resumption: every ticket this daemon has
/// issued and not yet expired, with its single-use nonce history.  Shared
/// (behind `Arc`) across all sessions of a daemon; a restarted
/// daemon starts with an empty vault, which is exactly why clients fall
/// back transparently.
pub struct TicketVault {
    ttl: Duration,
    inner: Mutex<VaultInner>,
}

struct VaultInner {
    entries: HashMap<u64, VaultEntry>,
    order: VecDeque<u64>,
}

impl TicketVault {
    /// A vault granting tickets of the given lifetime.
    pub fn new(ttl: Duration) -> TicketVault {
        TicketVault {
            ttl,
            inner: Mutex::new(VaultInner {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    /// The production default (30 s, matching the ASD's default lease).
    pub fn with_default_ttl() -> TicketVault {
        TicketVault::new(Duration::from_secs(30))
    }

    /// Granted ticket lifetime.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Held (possibly expired) tickets.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Does the vault hold no ticket?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mint a ticket id at `now` and remember its master key (computed by
    /// `make_master` from the chosen id, since the key derivation mixes the
    /// id in).  Called at the end of a full handshake; entries expired by
    /// `now` and over-cap entries are purged here so the vault stays
    /// bounded without a sweeper thread.
    fn issue(
        &self,
        client_principal: String,
        rng: &mut impl Rng,
        make_master: impl FnOnce(u64) -> SessionKey,
        now: Instant,
    ) -> u64 {
        let mut guard = self.inner.lock();
        let VaultInner { entries, order } = &mut *guard;
        order.retain(|id| {
            let keep = entries.get(id).is_some_and(|entry| entry.expires > now);
            if !keep {
                entries.remove(id);
            }
            keep
        });
        while entries.len() >= VAULT_CAP {
            match order.pop_front() {
                Some(old) => {
                    entries.remove(&old);
                }
                None => break,
            }
        }
        let mut id: u64 = rng.gen();
        while entries.contains_key(&id) {
            id = rng.gen();
        }
        entries.insert(
            id,
            VaultEntry {
                master: make_master(id),
                client_principal,
                expires: now + self.ttl,
                used_nonces: HashSet::new(),
            },
        );
        order.push_back(id);
        id
    }

    /// Validate one resume attempt made at `now`.  Success consumes the
    /// nonce (single use); the ticket itself stays valid until its TTL.
    fn redeem(
        &self,
        id: u64,
        nonce: u64,
        mac: u64,
        now: Instant,
    ) -> Result<(SessionKey, String), &'static str> {
        let mut inner = self.inner.lock();
        let entry = inner.entries.get_mut(&id).ok_or("unknown ticket")?;
        if entry.expires <= now {
            return Err("ticket expired");
        }
        if resume_proof(&entry.master, id, nonce) != mac {
            return Err("bad possession proof");
        }
        if entry.used_nonces.len() >= NONCES_PER_TICKET_CAP {
            return Err("ticket nonce budget exhausted");
        }
        if !entry.used_nonces.insert(nonce) {
            return Err("nonce replayed");
        }
        Ok((entry.master, entry.client_principal.clone()))
    }

    /// Drop every ticket — test hook simulating the state loss of a daemon
    /// restart without tearing down the listener.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.order.clear();
    }
}

impl fmt::Debug for TicketVault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TicketVault(ttl: {:?}, held: {})", self.ttl, self.len())
    }
}

// ---------------------------------------------------------------------------
// Client-side ticket cache
// ---------------------------------------------------------------------------

/// The client side of session resumption: one cached ticket (and locally
/// derived master key) per target address.  Shareable across clients and a
/// [`crate::pool::LinkPool`].
#[derive(Default)]
pub struct TicketCache {
    inner: Mutex<HashMap<Addr, CachedTicket>>,
}

#[derive(Clone)]
struct CachedTicket {
    ticket: ResumptionTicket,
    master: SessionKey,
    expires: Instant,
}

impl TicketCache {
    pub fn new() -> TicketCache {
        TicketCache::default()
    }

    /// Cache a ticket for `target`, granted at `now`.  The client-side
    /// expiry honours the server-granted TTL; a slightly stale cache is
    /// harmless because the server re-checks and the client falls back.
    pub fn store(&self, target: &Addr, ticket: ResumptionTicket, master: SessionKey, now: Instant) {
        let expires = now + Duration::from_millis(ticket.ttl_ms);
        self.inner.lock().insert(
            target.clone(),
            CachedTicket {
                ticket,
                master,
                expires,
            },
        );
    }

    /// The ticket for `target` unexpired at `now`, if any.
    pub fn get(&self, target: &Addr, now: Instant) -> Option<(ResumptionTicket, SessionKey)> {
        let mut inner = self.inner.lock();
        match inner.get(target) {
            Some(c) if c.expires > now => Some((c.ticket.clone(), c.master)),
            Some(_) => {
                inner.remove(target);
                None
            }
            None => None,
        }
    }

    /// Forget the ticket for `target` (after a rejection).
    pub fn invalidate(&self, target: &Addr) {
        self.inner.lock().remove(target);
    }

    /// Cached (possibly expired) tickets.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

impl fmt::Debug for TicketCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TicketCache({} targets)", self.len())
    }
}

// ---------------------------------------------------------------------------
// The link itself
// ---------------------------------------------------------------------------

/// An established, encrypted, identity-carrying command channel.
pub struct SecureLink {
    conn: Connection,
    tx: SecureChannel,
    rx: SecureChannel,
    /// The authenticated principal of the *peer*.
    peer_principal: String,
    /// Did this link skip the full handshake via a resumption ticket?
    resumed: bool,
    /// Was the frame last opened a cast?
    last_was_cast: bool,
    /// Optional counter of the bytes of every frame opened, fed per frame.
    /// What a link sends is counted by verb, in `wire`.
    opened_bytes: Option<Arc<Counter>>,
    /// Where what this link sends is counted by verb, if anywhere.
    wire: Option<Arc<WireCounts>>,
}

impl SecureLink {
    /// Client side: handshake and prove identity with `identity`.
    pub fn connect(conn: Connection, identity: &KeyPair) -> Result<SecureLink, LinkError> {
        Self::full_connect(conn, identity, None)
    }

    /// Client side with the fast path: try to resume from a cached ticket,
    /// transparently falling back to (and re-priming the cache from) the
    /// full handshake when the server rejects or no ticket is cached.
    pub fn connect_resumable(
        conn: Connection,
        identity: &KeyPair,
        tickets: &TicketCache,
    ) -> Result<SecureLink, LinkError> {
        let target = conn.peer_addr().clone();
        let Some((ticket, master)) = tickets.get(&target, conn.clock().now()) else {
            return Self::full_connect(conn, identity, Some(tickets));
        };

        let nonce: u64 = rand::thread_rng().gen();
        let mac = resume_proof(&master, ticket.id, nonce);
        let resume = CmdLine::new("resume")
            .arg("ticket", hex_word(ticket.id))
            .arg("nonce", hex_word(nonce))
            .arg("mac", hex_word(mac));
        conn.send(resume.to_wire().into_bytes())?;

        let session = master.derive(nonce);
        let mut rx = SecureChannel::new(session.derive(DIR_SERVER_TO_CLIENT));
        let mut frame = conn.recv_timeout(HANDSHAKE_TIMEOUT)?;
        match rx.open_in_place(&mut frame) {
            Ok(()) => {
                // Sealed reply: the server proved possession of the master
                // key.  Mutual authentication is restored.
                let text = std::str::from_utf8(&frame)
                    .map_err(|_| LinkError::Malformed("frame not UTF-8".into()))?;
                let reply =
                    CmdLine::parse(text).map_err(|e| LinkError::Malformed(e.to_string()))?;
                if reply.name() != "ok" {
                    return Err(LinkError::Handshake(format!(
                        "resume answered with `{}`",
                        reply.name()
                    )));
                }
                Ok(SecureLink {
                    conn,
                    tx: SecureChannel::new(session.derive(DIR_CLIENT_TO_SERVER)),
                    rx,
                    peer_principal: reply
                        .get_text("principal")
                        .unwrap_or(&ticket.server_principal)
                        .to_string(),
                    resumed: true,
                    last_was_cast: false,
                    opened_bytes: None,
                    wire: None,
                })
            }
            Err(_) => {
                // Not sealed for us: either a plaintext `reject …;` (fall
                // back to the full handshake) or garbage (fail).
                let text = std::str::from_utf8(&frame)
                    .map_err(|_| LinkError::Malformed("resume reply not UTF-8".into()))?;
                let reply =
                    CmdLine::parse(text).map_err(|e| LinkError::Malformed(e.to_string()))?;
                if reply.name() != "reject" {
                    return Err(LinkError::Handshake(format!(
                        "resume answered with `{}`",
                        reply.name()
                    )));
                }
                tickets.invalidate(&target);
                Self::full_connect(conn, identity, Some(tickets))
            }
        }
    }

    /// The full (DH + signature) client handshake; harvests a fresh
    /// resumption ticket into `tickets` when the server grants one.
    fn full_connect(
        conn: Connection,
        identity: &KeyPair,
        tickets: Option<&TicketCache>,
    ) -> Result<SecureLink, LinkError> {
        let mut rng = rand::thread_rng();
        let dh = DhLocal::generate(&mut rng);
        let hello = CmdLine::new("hello").arg("dh", hex_word(dh.public()));
        conn.send(hello.to_wire().into_bytes())?;

        let peer_hello = recv_plain(&conn, HANDSHAKE_TIMEOUT)?;
        let peer_pub = parse_hello(&peer_hello)?;
        let key = dh.agree(peer_pub);

        let mut link = SecureLink {
            conn,
            tx: SecureChannel::new(key.derive(DIR_CLIENT_TO_SERVER)),
            rx: SecureChannel::new(key.derive(DIR_SERVER_TO_CLIENT)),
            peer_principal: String::new(),
            resumed: false,
            last_was_cast: false,
            opened_bytes: None,
            wire: None,
        };

        // Prove identity: sign the DH transcript.
        let transcript = transcript(dh.public(), peer_pub);
        let proof = identity.sign(transcript.as_bytes());
        let auth = CmdLine::new("auth")
            .arg("principal", Value::Str(identity.principal()))
            .arg("proof", Value::Str(proof.to_wire()));
        link.send_cmd(&auth)?;

        let reply = link.recv_cmd(HANDSHAKE_TIMEOUT)?;
        match reply.name() {
            "ok" => {
                link.peer_principal = reply.get_text("principal").unwrap_or("").to_string();
                if let Some(tickets) = tickets {
                    if let Some(ticket) = reply
                        .get_text("ticket")
                        .and_then(ResumptionTicket::from_wire)
                    {
                        let master = resume_master(&key, ticket.id);
                        let now = link.conn.clock().now();
                        tickets.store(link.conn.peer_addr(), ticket, master, now);
                    }
                }
                Ok(link)
            }
            other => Err(LinkError::Handshake(format!(
                "server rejected handshake with `{other}`"
            ))),
        }
    }

    /// Server side: handshake, verify the client's identity proof, and
    /// answer with our own principal.
    pub fn accept(conn: Connection, identity: &KeyPair) -> Result<SecureLink, LinkError> {
        Self::accept_inner(conn, identity, None)
    }

    /// Server side with the fast path: honour `resume` attempts against
    /// `vault`, reject invalid ones (sending a plaintext `reject …;` and
    /// waiting for the client's fallback `hello`), and issue a fresh ticket
    /// with every full handshake.
    pub fn accept_with_tickets(
        conn: Connection,
        identity: &KeyPair,
        vault: &TicketVault,
    ) -> Result<SecureLink, LinkError> {
        Self::accept_inner(conn, identity, Some(vault))
    }

    fn accept_inner(
        conn: Connection,
        identity: &KeyPair,
        vault: Option<&TicketVault>,
    ) -> Result<SecureLink, LinkError> {
        let mut first = recv_plain(&conn, HANDSHAKE_TIMEOUT)?;

        if first.name() == "resume" {
            let Some(vault) = vault else {
                return Err(LinkError::Handshake(
                    "resume offered but resumption is not enabled".into(),
                ));
            };
            let parsed = (
                parse_hex_arg(&first, "ticket"),
                parse_hex_arg(&first, "nonce"),
                parse_hex_arg(&first, "mac"),
            );
            let verdict = match parsed {
                (Some(id), Some(nonce), Some(mac)) => vault
                    .redeem(id, nonce, mac, conn.clock().now())
                    .map(|(master, principal)| (master.derive(nonce), principal)),
                _ => Err("malformed resume frame"),
            };
            match verdict {
                Ok((session, client_principal)) => {
                    let mut link = SecureLink {
                        conn,
                        tx: SecureChannel::new(session.derive(DIR_SERVER_TO_CLIENT)),
                        rx: SecureChannel::new(session.derive(DIR_CLIENT_TO_SERVER)),
                        peer_principal: client_principal,
                        resumed: true,
                        last_was_cast: false,
                        opened_bytes: None,
                        wire: None,
                    };
                    // Sealed under the nonce-derived key: proves *we* hold
                    // the master too.
                    let ok = CmdLine::new("ok")
                        .arg("principal", Value::Str(identity.principal()))
                        .arg("resumed", 1);
                    link.send_cmd(&ok)?;
                    return Ok(link);
                }
                Err(reason) => {
                    let reject =
                        CmdLine::new("reject").arg("reason", Value::Str(reason.to_string()));
                    conn.send(reject.to_wire().into_bytes())?;
                    // The client falls back to a full handshake on the same
                    // connection; its `hello` is the next frame.
                    first = recv_plain(&conn, HANDSHAKE_TIMEOUT)?;
                }
            }
        }

        let peer_pub = parse_hello(&first)?;

        let mut rng = rand::thread_rng();
        let dh = DhLocal::generate(&mut rng);
        let hello = CmdLine::new("hello").arg("dh", hex_word(dh.public()));
        conn.send(hello.to_wire().into_bytes())?;
        let key = dh.agree(peer_pub);

        let mut link = SecureLink {
            conn,
            tx: SecureChannel::new(key.derive(DIR_SERVER_TO_CLIENT)),
            rx: SecureChannel::new(key.derive(DIR_CLIENT_TO_SERVER)),
            peer_principal: String::new(),
            resumed: false,
            last_was_cast: false,
            opened_bytes: None,
            wire: None,
        };

        let auth = link.recv_cmd(HANDSHAKE_TIMEOUT)?;
        if auth.name() != "auth" {
            return Err(LinkError::Handshake(format!(
                "expected `auth`, got `{}`",
                auth.name()
            )));
        }
        let principal = auth
            .get_text("principal")
            .ok_or_else(|| LinkError::Handshake("auth without principal".into()))?
            .to_string();
        let proof = auth
            .get_text("proof")
            .and_then(Signature::from_wire)
            .ok_or_else(|| LinkError::Handshake("auth without proof".into()))?;
        let key_of_peer = PublicKey::from_principal(&principal)
            .ok_or_else(|| LinkError::BadIdentity(format!("unparseable principal {principal}")))?;
        // The client signed (client_dh, server_dh) — from its perspective
        // its own key came first.
        let transcript = transcript(peer_pub, dh.public());
        if !key_of_peer.verify(transcript.as_bytes(), proof) {
            return Err(LinkError::BadIdentity(format!(
                "identity proof for {principal} failed"
            )));
        }
        link.peer_principal = principal.clone();

        let mut ok = CmdLine::new("ok").arg("principal", Value::Str(identity.principal()));
        if let Some(vault) = vault {
            let now = link.conn.clock().now();
            let id = vault.issue(
                principal.clone(),
                &mut rng,
                |id| resume_master(&key, id),
                now,
            );
            let ticket = ResumptionTicket {
                id,
                ttl_ms: vault.ttl().as_millis() as u64,
                client_principal: principal,
                server_principal: identity.principal(),
            };
            ok.push_arg("ticket", Value::Str(ticket.to_wire()));
        }
        link.send_cmd(&ok)?;
        Ok(link)
    }

    /// The authenticated principal on the far side.
    pub fn peer_principal(&self) -> &str {
        &self.peer_principal
    }

    /// Did this link skip the full handshake via a resumption ticket?
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// The far side's network address.
    pub fn peer_addr(&self) -> &ace_net::Addr {
        self.conn.peer_addr()
    }

    /// The clock of the net this link rides.
    pub(crate) fn clock(&self) -> &ace_net::Clock {
        self.conn.clock()
    }

    /// Is this (idle) link still worth reusing?  See
    /// [`Connection::is_healthy_idle`] for the exact contract.
    pub fn is_healthy_idle(&self) -> bool {
        self.conn.is_healthy_idle()
    }

    /// Count every opened (inbound) frame's bytes on `opened` — typically a
    /// daemon's `link.openedBytes`.
    pub fn attach_metrics(&mut self, opened: Arc<Counter>) {
        self.opened_bytes = Some(opened);
    }

    /// Count every frame sent from now on under its verb in `counts`.
    /// Frames of the handshake are sent before this can be called, so they
    /// are never counted.
    pub(crate) fn meter_wire(&mut self, counts: Arc<WireCounts>) {
        self.wire = Some(counts);
    }

    /// Seal and send one command.  One allocation end-to-end: the frame
    /// (the command's text, then its blobs raw — [`CmdLine::to_frame`]) is
    /// encrypted in place and handed to the connection by ownership (frames
    /// move through channels, they are never re-copied).
    pub fn send_cmd(&mut self, cmd: &CmdLine) -> Result<(), LinkError> {
        self.send_frame(cmd.name(), cmd.to_frame())
    }

    /// Seal and send one command as a cast: the frame [`Self::send_cmd`]
    /// would send, behind the marker.  Nothing comes back unless the
    /// receiver refuses it.
    pub fn send_cast(&mut self, cmd: &CmdLine) -> Result<(), LinkError> {
        let mut frame = cmd.to_frame();
        frame.insert(0, CAST_MARKER);
        self.send_frame(cmd.name(), frame)
    }

    /// Seal and send a frame rendered by the caller, metered under `verb`.
    pub(crate) fn send_frame(&mut self, verb: &str, mut frame: Vec<u8>) -> Result<(), LinkError> {
        self.tx.seal_in_place(&mut frame);
        // Counted before it leaves: whoever reads the answer to this frame
        // finds it counted.
        if let Some(wire) = &self.wire {
            wire.count(verb, frame.len());
        }
        self.conn.send(frame)?;
        Ok(())
    }

    /// Receive, open, and parse one command.  The received frame is
    /// decrypted in place — no ciphertext copy on the hot path.
    pub fn recv_cmd(&mut self, timeout: Duration) -> Result<CmdLine, LinkError> {
        let frame = self.conn.recv_timeout(timeout)?;
        self.open_frame(frame)
    }

    /// Non-blocking receive for reactor consumers: `Ok(None)` when no frame
    /// is queued, errors on close/tamper exactly like [`Self::recv_cmd`].
    pub fn try_recv_cmd(&mut self) -> Result<Option<CmdLine>, LinkError> {
        match self.conn.try_recv()? {
            Some(frame) => self.open_frame(frame).map(Some),
            None => Ok(None),
        }
    }

    fn open_frame(&mut self, mut frame: Vec<u8>) -> Result<CmdLine, LinkError> {
        if let Some(c) = &self.opened_bytes {
            c.add(frame.len() as u64);
        }
        self.rx.open_in_place(&mut frame).map_err(LinkError::Seal)?;
        self.last_was_cast = frame.first() == Some(&CAST_MARKER);
        let command = &frame[usize::from(self.last_was_cast)..];
        CmdLine::parse_frame(command).map_err(|e| LinkError::Malformed(e.to_string()))
    }

    /// Was the frame the last receive opened — parsed or
    /// [`LinkError::Malformed`] — a cast?
    pub fn last_frame_was_cast(&self) -> bool {
        self.last_was_cast
    }

    /// Register the waker notified when the peer queues a frame or closes
    /// (see [`Connection::register_waker`]).
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.conn.register_waker(waker);
    }

    /// Graceful close.
    pub fn close(&self) {
        self.conn.close();
    }
}

const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

fn hex_word(v: u64) -> Value {
    // The `x` prefix keeps the token a <WORD>: an all-digit hex value would
    // otherwise re-lex as an integer (and `12e5…` as a float).
    Value::Word(format!("x{v:016x}"))
}

fn parse_hex_arg(cmd: &CmdLine, name: &str) -> Option<u64> {
    let hex = cmd.get_text(name)?;
    let hex = hex.strip_prefix('x').unwrap_or(hex);
    u64::from_str_radix(hex, 16).ok()
}

fn transcript(client_dh: u64, server_dh: u64) -> String {
    format!("ace-link:{client_dh:016x}:{server_dh:016x}")
}

fn recv_plain(conn: &Connection, timeout: Duration) -> Result<CmdLine, LinkError> {
    let frame = conn.recv_timeout(timeout)?;
    let text = std::str::from_utf8(&frame)
        .map_err(|_| LinkError::Malformed("handshake frame not UTF-8".into()))?;
    CmdLine::parse(text).map_err(|e| LinkError::Malformed(e.to_string()))
}

fn parse_hello(cmd: &CmdLine) -> Result<u64, LinkError> {
    if cmd.name() != "hello" {
        return Err(LinkError::Handshake(format!(
            "expected `hello`, got `{}`",
            cmd.name()
        )));
    }
    let hex = cmd
        .get_text("dh")
        .ok_or_else(|| LinkError::Handshake("hello without dh".into()))?;
    let hex = hex.strip_prefix('x').unwrap_or(hex);
    u64::from_str_radix(hex, 16).map_err(|_| LinkError::Handshake("bad dh value".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_net::{Addr, SimNet};
    use proptest::prelude::*;

    fn setup() -> (SimNet, ace_net::Listener) {
        let net = SimNet::new();
        net.add_host("server");
        net.add_host("client");
        let listener = net.listen(Addr::new("server", 100)).unwrap();
        (net, listener)
    }

    fn keypair() -> KeyPair {
        KeyPair::generate(&mut rand::thread_rng())
    }

    #[test]
    fn handshake_and_exchange() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();
        let client_principal = client_id.principal();
        let server_principal = server_id.principal();

        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut link = SecureLink::accept(conn, &server_id).unwrap();
            assert_eq!(link.peer_principal(), client_principal);
            let cmd = link.recv_cmd(Duration::from_secs(5)).unwrap();
            assert_eq!(cmd.name(), "ping");
            link.send_cmd(&CmdLine::new("ok")).unwrap();
        });

        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        let mut link = SecureLink::connect(conn, &client_id).unwrap();
        assert_eq!(link.peer_principal(), server_principal);
        link.send_cmd(&CmdLine::new("ping")).unwrap();
        let reply = link.recv_cmd(Duration::from_secs(5)).unwrap();
        assert_eq!(reply.name(), "ok");
        server.join().unwrap();
    }

    #[test]
    fn command_bytes_are_encrypted_on_the_wire() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();

        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut link = SecureLink::accept(conn, &server_id).unwrap();
            // Read the raw frame underneath by receiving through the link —
            // the test on the client side checks the raw bytes.
            let _ = link.recv_cmd(Duration::from_secs(5));
        });

        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        let mut link = SecureLink::connect(conn, &client_id).unwrap();
        let secret_cmd = CmdLine::new("storeKey").arg("value", Value::Str("hunter2".into()));
        // Seal ourselves to inspect: the sealed frame must not contain the
        // plaintext.
        let sealed = {
            let mut probe = SecureChannel::new(SessionKey::from_seed(7));
            probe.seal(secret_cmd.to_wire().as_bytes())
        };
        assert!(!contains(&sealed, b"hunter2"));
        link.send_cmd(&secret_cmd).unwrap();
        server.join().unwrap();
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        haystack.windows(needle.len()).any(|w| w == needle)
    }

    #[test]
    fn identity_is_proven_not_asserted() {
        let (net, listener) = setup();
        let real = keypair();
        let server_id = keypair();

        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            SecureLink::accept(conn, &server_id)
        });

        // A client that claims `real`'s principal but signs with its own key.
        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        let mut rng = rand::thread_rng();
        let dh = DhLocal::generate(&mut rng);
        conn.send(
            CmdLine::new("hello")
                .arg("dh", hex_word(dh.public()))
                .to_wire()
                .into_bytes(),
        )
        .unwrap();
        let server_hello = recv_plain(&conn, Duration::from_secs(5)).unwrap();
        let server_pub = parse_hello(&server_hello).unwrap();
        let key = dh.agree(server_pub);
        let mut tx = SecureChannel::new(key.derive(DIR_CLIENT_TO_SERVER));

        let imposter = keypair();
        let forged_proof = imposter.sign(transcript(dh.public(), server_pub).as_bytes());
        let auth = CmdLine::new("auth")
            .arg("principal", Value::Str(real.principal()))
            .arg("proof", Value::Str(forged_proof.to_wire()));
        conn.send(tx.seal(auth.to_wire().as_bytes())).unwrap();

        let result = server.join().unwrap();
        assert!(matches!(result, Err(LinkError::BadIdentity(_))));
    }

    #[test]
    fn garbage_handshake_rejected() {
        let (net, listener) = setup();
        let server_id = keypair();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            SecureLink::accept(conn, &server_id)
        });
        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        conn.send(b"not a hello".to_vec()).unwrap();
        assert!(server.join().unwrap().is_err());
    }

    // -- resumption ---------------------------------------------------------

    /// Accept `n` connections against one shared vault, asserting the
    /// expected resumed-ness of each and echoing one ping per link.
    fn serve_n(
        listener: ace_net::Listener,
        server_id: KeyPair,
        vault: Arc<TicketVault>,
        expect_resumed: Vec<bool>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            for (i, expected) in expect_resumed.into_iter().enumerate() {
                let conn = listener.accept().unwrap();
                let mut link = SecureLink::accept_with_tickets(conn, &server_id, &vault).unwrap();
                assert_eq!(link.resumed(), expected, "connection {i}");
                let cmd = link.recv_cmd(Duration::from_secs(5)).unwrap();
                assert_eq!(cmd.name(), "ping");
                link.send_cmd(&CmdLine::new("ok")).unwrap();
            }
        })
    }

    fn connect_and_ping(net: &SimNet, identity: &KeyPair, tickets: &TicketCache) -> SecureLink {
        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        let mut link = SecureLink::connect_resumable(conn, identity, tickets).unwrap();
        link.send_cmd(&CmdLine::new("ping")).unwrap();
        assert_eq!(link.recv_cmd(Duration::from_secs(5)).unwrap().name(), "ok");
        link
    }

    #[test]
    fn second_connection_resumes_and_traffic_flows() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();
        let server_principal = server_id.principal();
        let client_principal = client_id.principal();
        let vault = Arc::new(TicketVault::new(Duration::from_secs(10)));
        let server = serve_n(listener, server_id, Arc::clone(&vault), vec![false, true]);

        let tickets = TicketCache::new();
        let first = connect_and_ping(&net, &client_id, &tickets);
        assert!(!first.resumed());
        assert_eq!(tickets.len(), 1, "full handshake must seed the cache");

        let second = connect_and_ping(&net, &client_id, &tickets);
        assert!(second.resumed());
        assert_eq!(second.peer_principal(), server_principal);
        server.join().unwrap();

        // The vault still knows the client's principal for the ticket.
        let (ticket, _) = tickets.get(first.peer_addr(), net.clock().now()).unwrap();
        assert_eq!(ticket.client_principal, client_principal);
    }

    #[test]
    fn expired_ticket_falls_back_to_full_handshake() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();
        let vault = Arc::new(TicketVault::new(Duration::from_millis(30)));
        let server = serve_n(listener, server_id, Arc::clone(&vault), vec![false, false]);

        let tickets = TicketCache::new();
        let first = connect_and_ping(&net, &client_id, &tickets);
        let addr = first.peer_addr().clone();
        net.clock().sleep(Duration::from_millis(60));
        // Re-arm the client cache with a long client-side TTL so the client
        // still *attempts* the resume — the server's expiry must reject it.
        let (mut ticket, master) = {
            let inner = tickets.inner.lock();
            let c = inner.get(&addr).cloned().unwrap();
            (c.ticket, c.master)
        };
        ticket.ttl_ms = 60_000;
        tickets.store(&addr, ticket, master, net.clock().now());

        let second = connect_and_ping(&net, &client_id, &tickets);
        assert!(!second.resumed(), "expired ticket must not resume");
        server.join().unwrap();
    }

    #[test]
    fn replayed_nonce_is_rejected() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();
        let vault = Arc::new(TicketVault::new(Duration::from_secs(10)));
        let server_id2 = server_id;
        let server = std::thread::spawn(move || {
            // First: full handshake.  Then one resume.  Then the replayed
            // frame, which must be rejected and fall back.
            for expected in [false, true, false] {
                let conn = listener.accept().unwrap();
                let mut link = SecureLink::accept_with_tickets(conn, &server_id2, &vault).unwrap();
                assert_eq!(link.resumed(), expected);
                let cmd = link.recv_cmd(Duration::from_secs(5)).unwrap();
                assert_eq!(cmd.name(), "ping");
                link.send_cmd(&CmdLine::new("ok")).unwrap();
            }
        });

        let tickets = TicketCache::new();
        let first = connect_and_ping(&net, &client_id, &tickets);
        let addr = first.peer_addr().clone();
        let (ticket, master) = tickets.get(&addr, net.clock().now()).unwrap();

        // Resume once by hand with a chosen nonce.
        let nonce = 0x1234u64;
        let resume = CmdLine::new("resume")
            .arg("ticket", hex_word(ticket.id))
            .arg("nonce", hex_word(nonce))
            .arg("mac", hex_word(resume_proof(&master, ticket.id, nonce)));
        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        conn.send(resume.to_wire().into_bytes()).unwrap();
        let session = master.derive(nonce);
        let mut rx = SecureChannel::new(session.derive(DIR_SERVER_TO_CLIENT));
        let mut tx = SecureChannel::new(session.derive(DIR_CLIENT_TO_SERVER));
        let mut frame = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        rx.open_in_place(&mut frame).expect("first resume accepted");
        conn.send(tx.seal(CmdLine::new("ping").to_wire().as_bytes()))
            .unwrap();
        let mut reply = conn.recv_timeout(Duration::from_secs(5)).unwrap();
        rx.open_in_place(&mut reply).unwrap();

        // Replay the *exact same* resume frame on a new connection: the
        // nonce is burnt, so the server must reject; a fresh
        // connect_resumable with the still-valid ticket would use a new
        // nonce, but here we assert the replay itself fails by driving the
        // fallback path with the full client.
        let conn2 = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        conn2.send(resume.to_wire().into_bytes()).unwrap();
        let frame2 = conn2.recv_timeout(Duration::from_secs(5)).unwrap();
        let text = std::str::from_utf8(&frame2).unwrap();
        let parsed = CmdLine::parse(text).expect("reject is plaintext");
        assert_eq!(parsed.name(), "reject");
        assert_eq!(parsed.get_text("reason"), Some("nonce replayed"));
        // Finish the server's expectations: complete a full handshake on
        // this same connection (the transparent fallback).
        let fresh_cache = TicketCache::new();
        let mut link = SecureLink::full_connect(conn2, &client_id, Some(&fresh_cache)).unwrap();
        link.send_cmd(&CmdLine::new("ping")).unwrap();
        assert_eq!(link.recv_cmd(Duration::from_secs(5)).unwrap().name(), "ok");
        server.join().unwrap();
    }

    #[test]
    fn stolen_ticket_without_master_key_cannot_resume() {
        let (net, listener) = setup();
        let honest = keypair();
        let thief = keypair();
        let server_id = keypair();
        let vault = Arc::new(TicketVault::new(Duration::from_secs(10)));
        // Honest full handshake, then the thief's attempt, which must fall
        // back to a full handshake under the thief's own identity.
        let server = serve_n(listener, server_id, Arc::clone(&vault), vec![false, false]);

        let honest_cache = TicketCache::new();
        let first = connect_and_ping(&net, &honest, &honest_cache);
        let addr = first.peer_addr().clone();

        // The thief learns the ticket id (say, from the plaintext resume
        // frame of a sniffed session) but not the master key.
        let now = net.clock().now();
        let (ticket, _) = honest_cache.get(&addr, now).unwrap();
        let thief_cache = TicketCache::new();
        thief_cache.store(&addr, ticket.clone(), SessionKey::from_seed(0xbad), now);

        let link = connect_and_ping(&net, &thief, &thief_cache);
        assert!(!link.resumed(), "forged proof must not resume");
        // The forged ticket was invalidated; what the cache now holds is
        // the fresh ticket issued by the fallback full handshake, bound to
        // the thief's *own* (authenticated) principal.
        let (fresh, _) = thief_cache.get(&addr, net.clock().now()).unwrap();
        assert_ne!(fresh.id, ticket.id);
        assert_eq!(fresh.client_principal, thief.principal());
        server.join().unwrap();
    }

    #[test]
    fn server_restart_falls_back_and_reprimes() {
        let (net, listener) = setup();
        let client_id = keypair();
        let server_id = keypair();
        let vault = Arc::new(TicketVault::new(Duration::from_secs(10)));
        let server = serve_n(
            listener,
            server_id,
            Arc::clone(&vault),
            vec![false, false, true],
        );

        let tickets = TicketCache::new();
        let _ = connect_and_ping(&net, &client_id, &tickets);
        // Simulate a daemon restart: all vault state is lost.
        vault.clear();
        let second = connect_and_ping(&net, &client_id, &tickets);
        assert!(!second.resumed(), "unknown ticket must fall back");
        // The fallback full handshake issued a fresh ticket; next resume
        // works again.
        let third = connect_and_ping(&net, &client_id, &tickets);
        assert!(third.resumed());
        server.join().unwrap();
    }

    // -- the command frame --------------------------------------------------

    /// An established (client, server) pair of links.
    fn link_pair() -> (SecureLink, SecureLink) {
        let (net, listener) = setup();
        let server_id = keypair();
        let server = std::thread::spawn(move || {
            SecureLink::accept(listener.accept().unwrap(), &server_id).unwrap()
        });
        let conn = net
            .connect(&"client".into(), Addr::new("server", 100))
            .unwrap();
        let client = SecureLink::connect(conn, &keypair()).unwrap();
        (client, server.join().unwrap())
    }

    #[test]
    fn blobs_cost_their_length_and_blobless_frames_are_unchanged() {
        let (mut client, mut server) = link_pair();
        // What the client sealed, counted as the server opens it.
        let sealed = Arc::new(Counter::default());
        server.attach_metrics(Arc::clone(&sealed));
        let mut cost_of = |cmd: &CmdLine| {
            let before = sealed.get() as usize;
            client.send_cmd(cmd).unwrap();
            assert_eq!(&server.recv_cmd(Duration::from_secs(5)).unwrap(), cmd);
            sealed.get() as usize - before
        };
        let plain = CmdLine::new("ping");
        let seal_overhead = cost_of(&plain) - plain.to_wire().len();
        // No blob: the frame is the wire string, as before blobs existed.
        let text = CmdLine::new("psGet").arg("ns", "app").arg("digest", true);
        assert_eq!(cost_of(&text), text.to_wire().len() + seal_overhead);
        // A 1 KiB blob costs 1 KiB plus a few bytes of text, not 2 KiB.
        let value: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let put = CmdLine::new("psPut").arg("key", "k").arg("data", value);
        let cost = cost_of(&put) - seal_overhead;
        assert!(cost <= 1024 + 32, "1 KiB blob cost {cost} B on the wire");
    }

    #[test]
    fn malformed_frames_are_refused_and_the_link_lives_on() {
        let (mut client, mut server) = link_pair();
        let frames: [&[u8]; 7] = [
            b"psPut data=@4;\0abc",                    // section shorter than declared
            b"psPut data=@2;\0abc",                    // section longer than declared
            b"psPut data=@3;",                         // reference, no section
            b"ping;\0abc",                             // section, no reference
            b"psPut data=@99999999999999999999;\0abc", // length overflows
            b"psPut key=\"\xff\xfe\";",                // text part not UTF-8
            b"psPut data=@1 ;\0ab;",                   // bytes after the declared blob
        ];
        for plain in frames {
            let mut frame = plain.to_vec();
            client.tx.seal_in_place(&mut frame);
            client.conn.send(frame).unwrap();
            let got = server.recv_cmd(Duration::from_secs(5));
            assert!(
                matches!(got, Err(LinkError::Malformed(_))),
                "{:?} gave {got:?}",
                String::from_utf8_lossy(plain)
            );
        }
        // The cipher stream is intact: the next well-formed frame opens.
        let put = CmdLine::new("psPut").arg("data", &b"\0;\"@"[..]);
        client.send_cmd(&put).unwrap();
        assert_eq!(server.recv_cmd(Duration::from_secs(5)).unwrap(), put);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// seal → open → parse is the identity for commands carrying 0..4
        /// blobs of arbitrary bytes, in both directions of one link.
        #[test]
        fn blobs_roundtrip_through_a_link(
            blobs in prop::collection::vec(
                prop_oneof![
                    prop::collection::vec(any::<u8>(), 0..64),
                    Just(b"\0;\"@\0".to_vec()),
                    Just(vec![0xA5u8; 256 * 1024]),
                ],
                0..5,
            )
        ) {
            let (mut client, mut server) = link_pair();
            let mut cmd = CmdLine::new("psPutBatch").arg("ns", "app");
            for (i, blob) in blobs.into_iter().enumerate() {
                cmd.push_arg(format!("d{i}"), blob);
                cmd.push_arg(format!("n{i}"), i as i64);
            }
            client.send_cmd(&cmd).unwrap();
            let got = server.recv_cmd(Duration::from_secs(5)).unwrap();
            prop_assert_eq!(&got, &cmd);
            server.send_cmd(&got).unwrap();
            prop_assert_eq!(client.recv_cmd(Duration::from_secs(5)).unwrap(), cmd);
        }
    }
}
