//! End-to-end and per-layer benchmark of the semantic proximity search
//! engine: three seeded workloads, each set up, loaded open-loop, checked
//! for correct answers and restarted from its snapshot in one process.
//! See `README.md` in this directory for the workloads and metrics.

pub mod load;
pub mod ops;
pub mod run;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
