//! # ace-apps — ACE user applications
//!
//! Implements the §5 applications a Supervisor keeps alive (§9):
//!
//! * [`RobustCounter`] — a robust application (§5.3): it checkpoints its
//!   state into the persistent store and recovers it on relaunch (§6 →
//!   E19);
//! * [`FileStorage`] — media recordings in the redundant store (Fig. 13);
//! * [`OPhone`] — full-duplex audio over IP, voice on the datagram plane
//!   with a jitter buffer (§5.5).

pub mod mediastore;
pub mod ophone;
pub mod robust;

pub use mediastore::FileStorage;
pub use ophone::OPhone;
pub use robust::{RobustCounter, APPSTATE_NS};
