//! Route and sweep bench pins that plain `cargo test` checks: the default
//! `spsim routebench` workload must reproduce every exact field of
//! `BENCH_route.json`, and the one-worker smoke sweep every exact field of
//! `BENCH_sweep.json`. Only the tables' `Exact` rows are asserted; the
//! committed rates depend on the host and are gated by `cargo xtask lint`.
//!
//! The stamped fingerprint folds the stamp-vs-scratch byte-equality marker
//! and the plan-library and cross-plan counters over the cross-wafer hops
//! of a one-rack ring, so a stamp that stops matching fresh routing, or a
//! cross-wafer stamp that starts falling back to fresh routing, changes it.
//! The ring's hops join neighbouring servers over their only bundle, so
//! fiber-route choices are pinned elsewhere: by lightpath's oracle proptest
//! and by spbench's `ctrl-steady` and `ctrl-cold` fingerprints.

use fabricd::report::{compare, BenchFields, Gate};
use sweep::route_bench::{DEFAULT_BATCHES, DEFAULT_SEARCHES};
use sweep::{run_route_bench, run_sweep, BenchReport, GridSpec, RouteBenchReport};

#[test]
fn route_bench_reproduces_the_committed_fingerprints() {
    let fresh = run_route_bench(DEFAULT_SEARCHES, DEFAULT_BATCHES);
    let drift: Vec<_> = compare(
        RouteBenchReport::FIELDS,
        &fresh.to_json(),
        include_str!("../BENCH_route.json"),
    )
    .into_iter()
    .filter(|(gate, _)| *gate == Gate::Exact)
    .collect();
    assert!(drift.is_empty(), "BENCH_route.json drifted: {drift:#?}");
}

#[test]
fn smoke_sweep_reproduces_the_committed_fingerprint() {
    let run = run_sweep(&GridSpec::smoke(42), 1);
    let fresh = BenchReport::from_runs(&run, run.wall.as_secs_f64());
    let drift: Vec<_> = compare(
        BenchReport::FIELDS,
        &fresh.to_json(),
        include_str!("../BENCH_sweep.json"),
    )
    .into_iter()
    .filter(|(gate, _)| *gate == Gate::Exact)
    .collect();
    assert!(drift.is_empty(), "BENCH_sweep.json drifted: {drift:#?}");
}
