//! The client side of an ACE service conversation.
//!
//! An actor that wants an explicit session with one daemon — a user GUI, a
//! typed client, a scenario driver — holds a [`ServiceClient`]: a secure
//! link plus the call/reply discipline ("return commands are used to reply
//! on the status of the attempted command", §2.2).  Daemons and the
//! composite clients do not hold these themselves: they check them out of
//! a [`crate::pool::LinkPool`].
//!
//! A reply answers the call it was sent for.  The client pairs the two by
//! order, so a link failure closes it for good (a reply still in flight
//! would answer the next call), and a call skips a cast's refusal (an
//! `error` carrying `cast=`), which answers an earlier cast.

use crate::link::{LinkError, SecureLink, TicketCache};
use crate::metrics::WireCounts;
use crate::protocol::CAST_ARG;
use ace_lang::{CmdLine, ErrorCode, Reply};
use ace_net::{Addr, HostId, NetError, SimNet};
use ace_security::keys::KeyPair;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Default per-call deadline.
pub const DEFAULT_CALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Could not reach or talk to the service.
    Link(LinkError),
    /// The service replied with an error return command.
    Service { code: ErrorCode, msg: String },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Link(e) => write!(f, "link error: {e}"),
            ClientError::Service { code, msg } => write!(f, "service error {code}: {msg}"),
        }
    }
}
impl std::error::Error for ClientError {}

impl From<LinkError> for ClientError {
    fn from(e: LinkError) -> Self {
        ClientError::Link(e)
    }
}
impl From<NetError> for ClientError {
    fn from(e: NetError) -> Self {
        ClientError::Link(LinkError::Net(e))
    }
}

impl ClientError {
    /// The service-level error code, if this is a service error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Service { code, .. } => Some(*code),
            ClientError::Link(_) => None,
        }
    }
}

/// A connected, authenticated client of one ACE service.
pub struct ServiceClient {
    link: SecureLink,
    timeout: Duration,
    target: Addr,
    /// An operation failed at the link: nothing more is sent or read.
    closed: bool,
}

impl ServiceClient {
    /// Connect from `from_host` to the daemon at `target`, authenticating
    /// with `identity`.
    pub fn connect(
        net: &SimNet,
        from_host: &HostId,
        target: Addr,
        identity: &KeyPair,
    ) -> Result<ServiceClient, ClientError> {
        let conn = net.connect(from_host, target.clone())?;
        let link = SecureLink::connect(conn, identity)?;
        Ok(ServiceClient {
            link,
            timeout: DEFAULT_CALL_TIMEOUT,
            target,
            closed: false,
        })
    }

    /// Connect via the session-resumption fast path: a ticket cached in
    /// `tickets` skips the DH + signature handshake; otherwise (or on
    /// rejection) a full handshake runs and re-primes the cache.
    pub fn connect_resumable(
        net: &SimNet,
        from_host: &HostId,
        target: Addr,
        identity: &KeyPair,
        tickets: &TicketCache,
    ) -> Result<ServiceClient, ClientError> {
        let conn = net.connect(from_host, target.clone())?;
        let link = SecureLink::connect_resumable(conn, identity, tickets)?;
        Ok(ServiceClient {
            link,
            timeout: DEFAULT_CALL_TIMEOUT,
            target,
            closed: false,
        })
    }

    /// Did this client's link skip the full handshake via a resumption
    /// ticket?
    pub fn resumed(&self) -> bool {
        self.link.resumed()
    }

    /// Is this client open, and its idle link still worth reusing?  (Pool
    /// checkout health probe — see [`SecureLink::is_healthy_idle`].)
    pub fn is_healthy_idle(&self) -> bool {
        !self.closed && self.link.is_healthy_idle()
    }

    /// Did an operation fail at the link, closing this client?
    pub(crate) fn is_closed(&self) -> bool {
        self.closed
    }

    /// Count what this client sends by verb ([`SecureLink::meter_wire`]).
    pub(crate) fn meter_wire(&mut self, counts: Arc<WireCounts>) {
        self.link.meter_wire(counts);
    }

    /// Adjust the per-call deadline.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// The service's address.
    pub fn target(&self) -> &Addr {
        &self.target
    }

    /// The service's authenticated principal.
    pub fn peer_principal(&self) -> &str {
        self.link.peer_principal()
    }

    /// Issue one command and wait for its return command.
    ///
    /// `Ok(reply)` is the service's `ok …;` result; service-level failures
    /// (`error code=… msg=…;`) surface as [`ClientError::Service`].
    pub fn call(&mut self, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.call_within(cmd, self.timeout)
    }

    /// [`Self::call`], stamping a command without a `deadline=` with
    /// `budget`; the call timeout bounds the whole wait for the reply.
    pub(crate) fn call_within(
        &mut self,
        cmd: &CmdLine,
        budget: Duration,
    ) -> Result<CmdLine, ClientError> {
        self.send_within(cmd, budget)?;
        let clock = self.link.clock().clone();
        let deadline = clock.now() + self.timeout;
        loop {
            let wait = deadline.saturating_duration_since(clock.now());
            let frame = self.on_link(|link| link.recv_cmd(wait))?;
            match Reply::from_cmdline(&frame) {
                Reply::Ok(result) => return Ok(result),
                // A cast's refusal: it answers an earlier cast, not this call.
                Reply::Err { .. } if frame.get_int(CAST_ARG).is_some() => continue,
                Reply::Err { code, msg } => return Err(ClientError::Service { code, msg }),
            }
        }
    }

    /// The sending half of [`Self::call`]: write the call frame and return;
    /// its reply is the first frame [`Self::try_recv`] reads without `cast=`.
    ///
    /// Commands without an explicit `deadline=` are stamped with this
    /// client's call timeout, so the server can shed the request once we
    /// have given up waiting for its reply.  The stamp is rendered into the
    /// frame; the command is not cloned to carry it.
    pub fn send(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.send_within(cmd, self.timeout)
    }

    fn send_within(&mut self, cmd: &CmdLine, budget: Duration) -> Result<(), ClientError> {
        let frame = match cmd.deadline_ms() {
            None => cmd.to_frame_with_deadline(budget.as_millis() as i64),
            Some(_) => cmd.to_frame(),
        };
        self.on_link(|link| link.send_frame(cmd.name(), frame))
    }

    /// Send one command as a cast ([`SecureLink::send_cast`]): no reply is
    /// waited for, so no `deadline=` is stamped.  The service answers only
    /// a cast it did not run, with `error … cast=<n>;` — `n` counting the
    /// casts sent on this link — which [`Self::try_recv`] reads and a call skips.
    pub fn cast(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.on_link(|link| link.send_cast(cmd))
    }

    /// The next frame the service has sent, if one is queued: the reply to
    /// a [`Self::send`], or the refusal of a [`Self::cast`].
    pub fn try_recv(&mut self) -> Result<Option<CmdLine>, ClientError> {
        self.on_link(SecureLink::try_recv_cmd)
    }

    /// Run `op` on the link of an open client; a failure closes the client
    /// for good, since a reply still in flight would answer the next call.
    fn on_link<T>(
        &mut self,
        op: impl FnOnce(&mut SecureLink) -> Result<T, LinkError>,
    ) -> Result<T, ClientError> {
        if self.closed {
            return Err(NetError::Closed.into());
        }
        op(&mut self.link).map_err(|err| {
            self.closed = true;
            self.link.close();
            err.into()
        })
    }

    /// Register the waker notified when the service queues a frame or
    /// closes (see [`SecureLink::register_waker`]).
    pub fn register_waker(&self, waker: &std::task::Waker) {
        self.link.register_waker(waker);
    }

    /// Issue a command, discarding a successful result (convenience for
    /// imperative commands like `log` or `ptzOn`).
    pub fn call_ok(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        self.call(cmd).map(|_| ())
    }

    /// Close the link.
    pub fn close(&self) {
        self.link.close();
    }
}

impl fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ServiceClient({})", self.target)
    }
}
