//! # ace-apps — ACE user applications and lifecycle
//!
//! Implements §5 and the §9 robustness machinery:
//!
//! * [`AppClass`] — the temporary / restart / robust taxonomy (§5.1–5.3);
//! * [`Watcher`] — the restart service the paper calls "the next step in
//!   our current development": listens for the ASD's `serviceExpired`
//!   events and relaunches watched services;
//! * [`Checkpoint`] / [`RobustCounter`] — robust-application state
//!   recovery over the persistent store (§6 → E19);
//! * [`OPhone`] — full-duplex audio over IP, voice on the datagram plane
//!   with a jitter buffer (§5.5).

pub mod lifecycle;
pub mod mediastore;
pub mod ophone;
pub mod robust;

pub use lifecycle::{AppClass, SpawnFn, WatchSpec, Watcher};
pub use mediastore::FileStorage;
pub use ophone::OPhone;
pub use robust::{Checkpoint, RobustCounter, APPSTATE_NS};
