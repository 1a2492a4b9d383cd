//! # sweep — deterministic parallel scenario sweeps
//!
//! The paper's claims are backed by many small simulations: stitch-loss
//! Monte-Carlo (Fig 3b), control-plane admission/failure campaigns, the
//! slice-shape × collective cost matrix (Tables 1–2), and route-layer
//! churn. This crate fans a [grid](grid::GridSpec) of such scenarios across
//! OS threads on the [`desim::par`] pool and proves the parallelism
//! changed *nothing*:
//!
//! * **Seed partitioning** ([`desim::fnv::derive_seed`]) — each randomized
//!   scenario's RNG stream is fixed by `(base_seed, grid index)` alone.
//! * **Order-combined fingerprints** ([`desim::fnv::combine`]) — FNV-1a
//!   digests of each scenario's observable outcome, folded in grid order,
//!   so the sweep fingerprint is bit-identical for any worker count.
//! * **Deterministic merges** ([`run::MergedStats`]) — per-scenario stats
//!   registries folded in grid order (reporting only, never part of the
//!   fingerprint).
//! * **Perf baselines** ([`report::BenchReport`],
//!   [`route_bench::RouteBenchReport`]) — the field tables of
//!   `BENCH_sweep.json` and `BENCH_route.json`, written and compared by
//!   [`fabricd::report`]: exact determinism rows and tolerant throughput
//!   floors, gated by `cargo xtask lint`.
//!
//! `spsim sweep` is the CLI entry point; `crates/sweep/tests/` holds the
//! worker-count equivalence tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod report;
pub mod route_bench;
pub mod run;

pub use grid::{CollectiveAlgo, GridSpec, Scenario};
pub use report::{outcome_to_json, BenchReport};
pub use route_bench::{check_stamped_speedup, run_route_bench, RouteBenchReport};
pub use run::{run_scenario, run_sweep, MergedStats, ScenarioResult, SweepOutcome};
