//! `acebench`: the whole-building benchmark of the ACE reproduction.
//!
//! One building assembled from the crates' public APIs, four seeded
//! workloads, end-to-end metrics from an untraced run and a per-layer
//! breakdown from a traced one.  See `README.md` for the glossary.
pub mod building;
pub mod disturb;
pub mod drive;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod schedule;
pub mod sink;
pub mod stats;
pub mod trace;
