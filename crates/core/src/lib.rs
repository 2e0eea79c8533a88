//! # ace-core — the ACE service daemon framework
//!
//! The paper's primary contribution (§2): a modular infrastructure in which
//! every capability of an Ambient Computational Environment — device
//! control, databases, media processing, user identification — is a small
//! *service daemon* with a common shell:
//!
//! * **daemon shell** ([`daemon`]) — the paper's main, per-connection
//!   command, control, and data roles joined by a message queue (§2.1.1),
//!   run as one cooperative task on the shared [`runtime`];
//! * **secure links** ([`link`]) — encrypted sockets with proven principal
//!   identity (§3.1);
//! * **command language plumbing** — parsing and semantic validation on the
//!   intake side of every session (§2.2, via `ace-lang`);
//! * **authorization** ([`auth`]) — the Fig. 10 KeyNote check on every
//!   command (§3.2);
//! * **notifications** ([`notify`]) — the Fig. 8 listen/notify registry
//!   (§2.5);
//! * **startup sequence** — the Fig. 9 Room DB → ASD → Net Logger
//!   registration, plus lease renewal and graceful deregistration (§2.4,
//!   §2.6), under the directory's rules ([`directory`]);
//! * **client API** ([`client`]) — the call/return-command discipline;
//! * **outbound path** ([`pool`]) — the one way a daemon or a composite
//!   client reaches a peer: probed, pooled, resumable links.
//!
//! A complete service is a [`ServiceBehavior`] implementation plus a
//! [`DaemonConfig`]:
//!
//! ```
//! use ace_core::prelude::*;
//! use ace_net::SimNet;
//!
//! struct Echo;
//! impl ServiceBehavior for Echo {
//!     fn semantics(&self) -> Semantics {
//!         Semantics::new().with(
//!             CmdSpec::new("echo", "echo back").required("text", ArgType::Str, "payload"))
//!     }
//!     fn handle(&mut self, _ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
//!         let text = cmd.get_text("text").unwrap_or("").to_string();
//!         Reply::ok_with(|c| c.arg("text", text))
//!     }
//! }
//!
//! let net = SimNet::new();
//! net.add_host("bar");
//! let daemon = Daemon::spawn(
//!     &net,
//!     DaemonConfig::new("echo1", "Service.Echo", "hawk", "bar", 4100),
//!     Box::new(Echo),
//! ).unwrap();
//!
//! let me = ace_security::keys::KeyPair::generate(&mut rand::thread_rng());
//! let mut client = ServiceClient::connect(&net, &"bar".into(), daemon.addr().clone(), &me).unwrap();
//! let reply = client.call(&CmdLine::new("echo").arg("text", "hi")).unwrap();
//! assert_eq!(reply.get_text("text"), Some("hi"));
//! daemon.shutdown();
//! ```

pub mod admission;
pub mod auth;
pub mod behavior;
pub mod breaker;
pub mod client;
pub mod daemon;
pub mod directory;
pub mod failover;
pub mod link;
pub mod metrics;
pub mod notify;
pub mod placement;
pub mod pool;
pub mod protocol;
pub mod quorum;
pub mod retry;
pub mod runtime;
pub mod supervise;

pub use admission::{AdmissionConfig, Lane};
pub use auth::{action_env_for, AuthMode, Authorizer, CredentialSource};
pub use behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
pub use breaker::{BreakerConfig, BreakerRegistry, BreakerVerdict};
pub use client::{ClientError, ServiceClient};
pub use daemon::{Daemon, DaemonConfig, DaemonHandle, SpawnError};
pub use failover::{FailoverClient, ResolutionCache, ResolutionInvalidator};
pub use link::{LinkError, SecureLink, TicketCache, TicketVault};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, RegistrySnapshot, StatsReport};
pub use notify::{NotificationRegistry, Registration};
pub use placement::GroupMap;
pub use pool::{LinkPool, PooledLink};
pub use protocol::{ServiceEntry, ASD_PORT, LOGGER_PORT, ROOMDB_PORT};
pub use quorum::{majority, QuorumRound};
pub use retry::{Retry, RetryBudget, RetryPolicy};
pub use runtime::{Runtime, RuntimeTask, TaskContext, TaskHandle, TaskPoll};
pub use supervise::{
    live_upgrade, Respawn, RespawnFn, RestartPolicy, SupervisedSpec, Supervisor, SupervisorReport,
    UpgradeError, UpgradeStats,
};

/// Everything needed to implement and run a service.
pub mod prelude {
    pub use crate::admission::AdmissionConfig;
    pub use crate::auth::{AuthMode, Authorizer};
    pub use crate::behavior::{ClientInfo, ServiceBehavior, ServiceCtx};
    pub use crate::breaker::{BreakerConfig, BreakerRegistry};
    pub use crate::client::{ClientError, ServiceClient};
    pub use crate::daemon::{Daemon, DaemonConfig, DaemonHandle};
    pub use crate::failover::{FailoverClient, ResolutionCache, ResolutionInvalidator};
    pub use crate::link::{TicketCache, TicketVault};
    pub use crate::metrics::{MetricsRegistry, StatsReport};
    pub use crate::placement::GroupMap;
    pub use crate::pool::{LinkPool, PooledLink};
    pub use crate::protocol::ServiceEntry;
    pub use crate::quorum::{majority, QuorumRound};
    pub use crate::retry::{Retry, RetryBudget, RetryPolicy};
    pub use crate::runtime::Runtime;
    pub use crate::supervise::{
        live_upgrade, Respawn, RestartPolicy, SupervisedSpec, Supervisor, UpgradeError,
        UpgradeStats,
    };
    pub use ace_lang::{
        req_f64, req_int, req_text, ArgType, CmdLine, CmdSpec, ErrorCode, Reply, Scalar, Semantics,
        Value,
    };
    pub use ace_net::{Addr, HostId, SimNet};
}
