//! Worker-count equivalence: the sweep's core promise, tested end to end.

use fabricd::report::{compare, json_str, BenchFields};
use sweep::{run_sweep, BenchReport, GridSpec};

/// The headline property: 1, 2, 4 and 8 workers produce bit-identical
/// fingerprints and per-scenario results on the same grid.
#[test]
fn fingerprints_are_worker_count_invariant() {
    let grid = GridSpec::smoke(42);
    let sequential = run_sweep(&grid, 1);
    for workers in [2, 4, 8] {
        let parallel = run_sweep(&grid, workers);
        assert_eq!(
            parallel.fingerprint, sequential.fingerprint,
            "{workers}-worker fingerprint diverged from sequential"
        );
        assert_eq!(parallel.results, sequential.results);
        assert_eq!(parallel.events, sequential.events);
    }
}

/// Merged statistics carry exact counts regardless of worker count, and
/// histogram bins (integer) merge identically; only float moments may
/// differ in the last bits across merge orders.
#[test]
fn merged_counts_are_worker_count_invariant() {
    let grid = GridSpec::smoke(7);
    let a = run_sweep(&grid, 1);
    let b = run_sweep(&grid, 4);
    assert_eq!(
        a.merged.stitch_loss_db.count(),
        b.merged.stitch_loss_db.count()
    );
    assert_eq!(
        a.merged.stitch_loss_db.counts(),
        b.merged.stitch_loss_db.counts()
    );
    assert_eq!(
        a.merged.admission_wait_s.count(),
        b.merged.admission_wait_s.count()
    );
    assert_eq!(
        a.merged.collective_us.count(),
        b.merged.collective_us.count()
    );
    assert_eq!(a.merged.churn_hops.count(), b.merged.churn_hops.count());
    // Means agree to tolerance even where bit-identity is not promised.
    assert!((a.merged.churn_hops.mean() - b.merged.churn_hops.mean()).abs() < 1e-9);
}

/// Two sweeps of the same grid in the same process agree — no hidden
/// global state leaks between runs.
#[test]
fn repeated_sweeps_agree() {
    let grid = GridSpec::smoke(3);
    let a = run_sweep(&grid, 2);
    let b = run_sweep(&grid, 2);
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.results, b.results);
}

/// The base seed flows into the fingerprint: different seeds, different
/// sweeps.
#[test]
fn base_seed_changes_the_fingerprint() {
    let a = run_sweep(&GridSpec::smoke(1), 2);
    let b = run_sweep(&GridSpec::smoke(2), 2);
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// A BenchReport built from a real outcome matches itself through the one
/// baseline comparison, and its written fingerprint is the run's.
#[test]
fn bench_report_of_a_real_run_matches_itself() {
    let grid = GridSpec::smoke(42);
    let sequential = run_sweep(&grid, 1);
    let parallel = run_sweep(&grid, 2);
    let report = BenchReport::from_runs(&parallel, sequential.wall.as_secs_f64());
    let text = report.to_json();
    assert!(compare(BenchReport::FIELDS, &text, &text).is_empty());
    assert_eq!(
        json_str(&text, "fingerprint"),
        Ok(format!("{:#018x}", parallel.fingerprint))
    );
}
