//! The client side of an ACE service conversation.
//!
//! An actor that wants an explicit session with one daemon — a user GUI, a
//! typed client, a scenario driver — holds a [`ServiceClient`]: a secure
//! link plus the call/reply discipline ("return commands are used to reply
//! on the status of the attempted command", §2.2).  Daemons and the
//! composite clients do not hold these themselves: they check them out of
//! a [`crate::pool::LinkPool`].

use crate::link::{LinkError, SecureLink, TicketCache};
use crate::metrics::WireCounts;
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
        })
    }

    /// Did this client's link skip the full handshake via a resumption
    /// ticket?
    pub fn resumed(&self) -> bool {
        self.link.resumed()
    }

    /// Is the underlying idle link still worth reusing?  (Pool checkout
    /// health probe — see [`SecureLink::is_healthy_idle`].)
    pub fn is_healthy_idle(&self) -> bool {
        self.link.is_healthy_idle()
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
    /// `budget` instead of the call timeout.
    pub(crate) fn call_within(
        &mut self,
        cmd: &CmdLine,
        budget: Duration,
    ) -> Result<CmdLine, ClientError> {
        self.send_within(cmd, budget)?;
        let reply_cmd = self.link.recv_cmd(self.timeout)?;
        match Reply::from_cmdline(&reply_cmd) {
            Reply::Ok(result) => Ok(result),
            Reply::Err { code, msg } => Err(ClientError::Service { code, msg }),
        }
    }

    /// The sending half of [`Self::call`]: write the call frame and return;
    /// its reply is the next frame without a `cast=` ([`Self::try_recv`]).
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
        Ok(self.link.send_frame(cmd.name(), frame)?)
    }

    /// Send one command as a cast ([`SecureLink::send_cast`]): no reply is
    /// waited for, so no `deadline=` is stamped.  The service answers only
    /// a cast it did not run, with `error … cast=<n>;` — `n` counting the
    /// casts sent on this link — read with [`Self::try_recv`].
    pub fn cast(&mut self, cmd: &CmdLine) -> Result<(), ClientError> {
        Ok(self.link.send_cast(cmd)?)
    }

    /// The next frame the service has sent, if one is queued: the reply to
    /// a [`Self::send`], or the refusal of a [`Self::cast`].
    pub fn try_recv(&mut self) -> Result<Option<CmdLine>, ClientError> {
        Ok(self.link.try_recv_cmd()?)
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
