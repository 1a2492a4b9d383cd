//! Route and sweep bench pins that plain `cargo test` checks: the default
//! `spsim routebench` workload must reproduce both `BENCH_route.json`
//! fingerprints and the one-worker smoke sweep `BENCH_sweep.json`'s. Only
//! fingerprints are asserted; the committed rates depend on the host.
//!
//! The stamped fingerprint folds the stamp-vs-scratch byte-equality marker
//! and the plan-library and cross-plan counters over the cross-wafer hops
//! of a one-rack ring, so a stamp that stops matching fresh routing, or a
//! cross-wafer stamp that starts falling back to fresh routing, changes it.
//! The ring's hops join neighbouring servers over their only bundle, so
//! fiber-route choices are pinned elsewhere: by lightpath's oracle proptest
//! and by spbench's `ctrl-steady` and `ctrl-cold` fingerprints.

use sweep::route_bench::{DEFAULT_BATCHES, DEFAULT_SEARCHES};
use sweep::{run_route_bench, run_sweep, BenchReport, GridSpec, RouteBenchReport};

#[test]
fn route_bench_reproduces_the_committed_fingerprints() {
    let pinned = RouteBenchReport::parse(include_str!("../BENCH_route.json"))
        .expect("BENCH_route.json parses");
    let fresh = run_route_bench(DEFAULT_SEARCHES, DEFAULT_BATCHES);
    assert_eq!(fresh.fingerprint, pinned.fingerprint, "route fingerprint");
    assert_eq!(
        fresh.stamped_fingerprint, pinned.stamped_fingerprint,
        "stamped fingerprint"
    );
}

#[test]
fn smoke_sweep_reproduces_the_committed_fingerprint() {
    let pinned =
        BenchReport::parse(include_str!("../BENCH_sweep.json")).expect("BENCH_sweep.json parses");
    let fresh = run_sweep(&GridSpec::smoke(42), 1);
    assert_eq!(
        format!("{:#018x}", fresh.fingerprint),
        pinned.fingerprint,
        "sweep fingerprint"
    );
}
