//! Repeatable end-to-end and per-layer benchmark of the df3 simulator.
//!
//! `README.md` beside this package describes the workloads, the metrics
//! and which layer should move which end-to-end number.

pub mod clock;
pub mod metrics;
pub mod runner;
pub mod workload;
