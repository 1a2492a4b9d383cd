//! # server-photonics
//!
//! Facade crate for the `server-photonics` workspace: a simulation and
//! algorithms library reproducing *"A case for server-scale photonic
//! connectivity"* (HotNets '24). Re-exports every sub-crate under one roof so
//! examples and downstream users need a single dependency.
//!
//! See the workspace `README.md` for a tour and `DESIGN.md` for the system
//! inventory and experiment index.

#![forbid(unsafe_code)]

pub use collectives;
pub use desim;
pub use fabricd;
pub use hostnet;
pub use lightpath;
pub use phy;
pub use pod;
pub use resilience;
pub use route;
pub use sweep;
pub use topo;
pub use workloads;
