//! # workloads — synthetic ML workloads for the experiments
//!
//! Converts the paper's §2 framing into concrete experiment inputs:
//!
//! * [`models`] — a catalogue of real model scales (ResNet-50 through
//!   MoE-1.6T) fixing the collective buffer size N.
//! * [`training`] — data-parallel training jobs whose per-iteration
//!   AllReduce runs under any interconnect [`collectives::Mode`], exposing
//!   the communication fraction the paper argues about.
//! * [`arrivals`] — deterministic multi-tenant job arrivals over standard
//!   sub-rack slice shapes, the demand mix behind Fig 5's packing.
//! * [`placement`] — a desim-driven allocate/hold/free simulation measuring
//!   the stranded-bandwidth gap between the interconnects over time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod models;
pub mod placement;
pub mod training;

pub use arrivals::{generate, ArrivalParams, JobRequest, STANDARD_SHAPES};
pub use models::{by_name, catalogue, Dtype, ModelSpec};
pub use placement::{simulate, simulate_with_policy, PlacementPolicy, PlacementReport};
pub use training::{CollectiveStrategy, JobTiming, TrainingJob};
