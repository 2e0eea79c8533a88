//! # ace-baselines — the systems ACE is compared against
//!
//! The paper's related-work section (§8) positions ACE against three
//! architectures; each is implemented here to the depth the experiments
//! need:
//!
//! * [`rmi`] — an RMI-style object-serialization codec: the per-call class
//!   descriptors that make RMI "bytecode transmissions" heavy, for the
//!   lightweight-language claim (E3);
//! * [`jini`] — a Jini-style lookup service with multicast discovery and
//!   RMI-framed register/lookup carrying serialized proxies (E5);
//! * [`central`] — a WebSphere-style centralized device server with
//!   single-dispatcher HTTP-shaped request handling (E20).

pub mod central;
pub mod jini;
pub mod rmi;

pub use central::{CentralClient, CentralServer};
pub use jini::{discover, JiniClient, JiniLookup, JiniProxy, DISCOVERY_PORT};
pub use rmi::{RmiCall, RmiValue};
