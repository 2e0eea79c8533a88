//! # ace-net — the simulated ACE building network
//!
//! The paper's ACE ran on a physical LAN spanning conference rooms, offices,
//! and hallways.  This crate is the substitution substrate (see DESIGN.md):
//! an in-process network of named hosts with
//!
//! * **stream connections** ([`Connection`]/[`Listener`]) — ordered,
//!   reliable, message-framed channels standing in for the SSL sockets all
//!   ACE command traffic uses (§3.1),
//! * **datagram sockets** ([`DatagramSocket`]) — the unreliable UDP channel
//!   the daemon data thread streams over (§2.1.1), with configurable loss,
//! * **multicast** — the discovery substrate of the Jini baseline (§8.4),
//! * **fault injection** — host crashes, revivals, and link partitions, used
//!   by the robustness experiments (E15, E19),
//! * **traffic metrics** ([`NetMetrics`]) — frame/byte accounting for the
//!   lightweight-vs-RMI comparison (E3),
//! * **the clock** ([`Clock`]) — the one time source everything that
//!   dials through the net reads ([`SimNet::clock`]).
//!
//! ```
//! use ace_net::{SimNet, Addr};
//! use std::time::Duration;
//!
//! let net = SimNet::new();
//! let bar = net.add_host("bar");
//! let tube = net.add_host("tube");
//!
//! let listener = net.listen(Addr::new("bar", 1234)).unwrap();
//! let client = net.connect(&tube, Addr::new("bar", 1234)).unwrap();
//! client.send(b"ping;".to_vec()).unwrap();
//!
//! let server = listener.accept().unwrap();
//! assert_eq!(server.recv().unwrap(), b"ping;");
//! ```

pub mod addr;
pub mod clock;
pub mod conn;
pub mod datagram;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod net;
pub mod wake;

pub use addr::{Addr, HostId};
pub use clock::Clock;
pub use conn::{Connection, Listener};
pub use datagram::{Datagram, DatagramSocket};
pub use error::NetError;
pub use fault::{
    FaultEvent, FaultKind, FaultPlan, FaultPlanConfig, FaultRunner, StorageFault, StorageFaultHub,
};
pub use metrics::{MetricsSnapshot, NetMetrics};
pub use net::{NetConfig, SimNet};
pub use wake::WakeCell;
