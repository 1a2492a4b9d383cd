//! # bench — the reproduction harness
//!
//! One function per table and figure of the paper (see [`experiments`]),
//! shared by the `repro` binary that prints every result and by the tests
//! that assert them (`tests/end_to_end_repro.rs` at the workspace root).
//! `EXPERIMENTS.md` at the workspace root records paper-vs-measured for each
//! experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::print_table;
