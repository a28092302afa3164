//! Seeded end-to-end benchmark of EvoStore.
//!
//! Four derived-model workloads drive the system through its public,
//! non-deprecated API only; each run checks bytes and reference counts
//! while it times them. See `README.md` in this directory.

#![deny(deprecated)]

pub mod gen;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
