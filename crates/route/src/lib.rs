//! # route — circuit routing and resource allocation for LIGHTPATH
//!
//! The algorithmic layer the paper's §5 calls for:
//!
//! * [`mod@astar`] — load-aware pathfinding over the waveguide grid ("exploding
//!   paths": thousands of candidate routes per circuit).
//! * [`cache`] — epoch-keyed memoisation of A* searches, so repeated
//!   circuit plans against an unchanged wafer skip redundant work.
//! * [`alloc`] — atomic batches of mutually edge-disjoint circuits, the
//!   primitive behind Fig 7's non-overlapping repair circuits.
//! * [`controllers`] — quantitative comparison of a centralized waveguide
//!   controller (serialized, state-scan-bound) against decentralized
//!   hop-local decisions ("this approach does not scale well when dealing
//!   with hundreds of accelerators").
//! * [`moe`] — dynamic circuit scheduling for Mixture-of-Experts inference
//!   with a warm-circuit LRU bounded by SerDes lanes.
//! * [`planlib`] — pre-routed circuit batches, one per batch and origin,
//!   with boundary-edge contracts: admission by collision-check + stamp
//!   instead of per-path A*.
//! * [`fault`] — fiber-frugal planning of cross-wafer repair circuits.
//! * [`protected`] — 1+1 protection: working + edge-disjoint backup
//!   circuits with a single-reconfiguration failover.
//! * [`rwa`] — first-fit wavelength assignment with the continuity
//!   constraint, for the scarce-waveguide regime (and its fragmentation
//!   pathology).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod astar;
pub mod cache;
pub mod controllers;
pub mod fault;
pub mod moe;
pub mod planlib;
pub mod protected;
pub mod rwa;

pub use alloc::{allocate_non_overlapping, allocate_non_overlapping_with, Demand};
pub use astar::{astar, SearchOptions, Searcher};
pub use cache::{CacheStats, PathCache};
pub use controllers::{central_setup, decentralized_setup, ControlParams, ControlReport};
pub use fault::{fibers_in_use, plan_pooled, CrossDemand, FiberPlan};
pub use lightpath::{FabricError, FaultKind, RouteFault};
pub use moe::{run_moe, MoeParams, MoeReport};
pub use planlib::{AuditEdge, PlanLibrary, PlanStats, StampAudit, StampRecord};
pub use protected::{establish_protected, establish_protected_with, ProtectedCircuit};
pub use rwa::{route_and_assign, wdm_capacity_multiplier, Assignment, WavelengthPlane};
