//! spbench — the one benchmark of the photonic-fabric simulator.
//!
//! It drives the fabricd control plane and the sharded 4096-chip pod
//! through four closed-loop workloads ([`workload`]), times the calls into
//! each crate's public API from outside, verifies every output, and prints
//! end-to-end metrics (untraced) or per-layer metrics (traced, [`trace`],
//! [`probe`]). `README.md` in this directory is the glossary of every name
//! printed.

pub mod calibrate;
pub mod json;
pub mod probe;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// The benchmark's contract: workload names, metric names, units, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, never rounded.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics of an untraced run, `(name, unit)`, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of a traced run, `(name, unit)`, in output order.
/// A metric a workload does not exercise reads 0 (see `README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.accept_ratio", "ratio"),
    ("sim.wait_p99_s", "s"),
    ("workloads.generate_s", "s"),
    ("topo.place_ns.p50", "ns"),
    ("topo.place_ns.p99", "ns"),
    ("topo.place_ns.n", "count"),
    ("route.plan_hit_ratio", "ratio"),
    ("route.plan_misses", "count"),
    ("route.plan_fallbacks", "count"),
    ("route.stamped_circuits", "count"),
    ("route.cross_hit_ratio", "ratio"),
    ("route.cross_misses", "count"),
    ("route.cross_fallbacks", "count"),
    ("route.stamp_us.p50", "us"),
    ("route.stamp_us.p99", "us"),
    ("route.stamp_us.n", "count"),
    ("route.scratch_us.p50", "us"),
    ("route.scratch_us.p99", "us"),
    ("route.scratch_us.n", "count"),
    ("route.search_ns.p50", "ns"),
    ("route.search_ns.p99", "ns"),
    ("route.search_ns.n", "count"),
    ("phy.link_budget_ns.p50", "ns"),
    ("phy.link_budget_ns.p99", "ns"),
    ("phy.link_budget_ns.n", "count"),
    ("fabricd.campaign_s", "s"),
    ("fabricd.state_new_us", "us"),
    ("fabricd.events", "count"),
    ("fabricd.journal_records", "count"),
    ("fabricd.records_per_event", "ratio"),
    ("fabricd.admitted", "count"),
    ("fabricd.queued", "count"),
    ("fabricd.denied", "count"),
    ("fabricd.journal_hash_ns_per_record", "ns"),
    ("fabricd.fingerprint_us", "us"),
    ("fabricd.snapshot_overhead_s", "s"),
    ("fabricd.snapshots", "count"),
    ("fabricd.snapshot_bytes", "B"),
    ("fabricd.snapshot_text_s", "s"),
    ("fabricd.snapshot_parse_s", "s"),
    ("fabricd.replay_tail_s", "s"),
    ("fabricd.replay_tail_records", "count"),
    ("fabricd.replay_ns_per_record", "ns"),
    ("pod.run_s", "s"),
    ("pod.run_1w_s", "s"),
    ("pod.parallel_speedup", "ratio"),
    ("pod.events", "count"),
    ("pod.epochs", "count"),
    ("pod.events_per_epoch", "ratio"),
    ("pod.delegations", "count"),
    ("pod.journal_records", "count"),
    ("pod.place_ns.p50", "ns"),
    ("pod.place_ns.p99", "ns"),
    ("pod.place_ns.n", "count"),
    ("pod.occ_mean", "ratio"),
    ("pod.frag_mean", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];
