//! # pod — sharded pod-scale simulation with a deterministic pod-level
//! control plane
//!
//! The paper's baseline system is a full TPUv4 pod: 64 racks × 16 servers
//! × 4 chips = 4096 chips. A single fabricd instance drives one control
//! domain well, but pod scale needs parallel execution — and parallel
//! execution must not cost determinism. This crate shards the pod state
//! across worker threads, one shard per rack group, and keeps every run a
//! pure function of `(config, seed)`:
//!
//! - **Shard layout** ([`layout`]): the pod torus is partitioned into
//!   contiguous rack groups along Z ([`topo::RackGroupPartition`]), a pure
//!   function of the chip count — never of worker count. Each group owns
//!   its own [`fabricd::FabricState`] seeded from the pod seed by
//!   [`desim::fnv::derive_seed`]`(seed, group)`.
//! - **Epoch execution** ([`shard`]): shards advance independently inside
//!   fixed sim-time epoch windows, meeting at barriers where the pod
//!   control plane collects their journal deltas through the canonical
//!   `(time, shard, seq)` exchange order of [`desim::epoch`].
//! - **Placement policies** ([`policy`]): admission placement is a
//!   pluggable, pure `(capacity view, demand) -> PlacementDecision`
//!   layer — `GreedyBestFit` (PR 7's delegation, bit-identical),
//!   `FragAwareScored` (fragmentation-aware packing with pristine-group
//!   reservation), and `CrossGroupStitch` (per-group Z-slab legs
//!   stitched over the rack-face OCS banks, admitted atomically as one
//!   `MultiGroupAdmit` journal record).
//! - **Pod control plane** ([`ctrl`]): `PodCtrl` admits jobs against the
//!   whole torus, delegates each admission through the configured
//!   placement policy (against the capacity view of the previous
//!   barrier), and folds the shards' journals into one pod-level
//!   append-only FNV journal whose hash — combined with per-shard
//!   fingerprints in group index order — is the run fingerprint
//!   `spsim pod` asserts is identical for 1 worker and N workers.
//! - **Benchmark report** ([`report`]): the table of the `BENCH_pod.json`
//!   and `BENCH_placement.json` format, gated by `cargo xtask lint`
//!   through [`fabricd::report::compare`] (fingerprint exact, events/sec
//!   floor).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
pub mod layout;
pub mod policy;
pub mod report;
pub mod shard;

pub use ctrl::{resume_pod, run_pod, run_pod_with, PodConfig, PodOptions, PodOutcome, PodSnapshot};
pub use layout::{PodLayout, CHIPS_PER_RACK, POD_CHIPS, POD_RACKS};
pub use policy::{
    CapacityView, CrossGroupStitch, FragAwareScored, GreedyBestFit, PlacementDecision,
    PlacementPolicy, PolicyKind, StitchLeg,
};
pub use report::{check_stitched, PodBenchReport};
pub use shard::{PodEvent, ShardDomain, ShardSnapshot};
