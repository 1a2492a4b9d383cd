//! Pod bench pins that plain `cargo test` checks: the `spsim pod --smoke`
//! scenario must reproduce every exact field of `BENCH_pod.json`, and the
//! stitch-policy placement scenario every exact field of
//! `BENCH_placement.json`: fingerprint, journal hash, plan, cross and
//! stitch counters, epochs and workload sizes. Only the table's `Exact`
//! rows are asserted; the committed rate depends on the host.
//!
//! Those two runs take no snapshots, so a link budget that drifts without
//! crossing zero margin changes neither pin. Each scenario therefore also
//! runs with a snapshot at every epoch barrier: the captured shard state
//! text carries every circuit's link-report bits, and its `Snapshot`
//! journal records fold them into the journal hash pinned below.
//!
//! Counters sit outside every fingerprint, so each scenario also pins an
//! FNV of its merged metrics text: a departing stitch leg counted under
//! `jobs.departed` instead of `stitch.legs.departed` fails here.

use desim::SnapWriter;
use fabricd::report::{compare, json_u64, BenchFields, Gate};
use pod::{run_pod_with, PodBenchReport, PodConfig, PodOptions, PolicyKind};

/// Run `cfg` at the committed file's shard count and check it against the
/// file's exact rows, then against the snapshotting and metrics pins.
fn assert_reproduces(
    cfg: &PodConfig,
    committed: &str,
    snapshot_pins: (u64, u64),
    metrics_pin: u64,
) {
    let shards = json_u64(committed, "shards").expect("the committed file names its shards");
    let run =
        run_pod_with(cfg, shards as usize, &PodOptions::default()).expect("pod scenario runs");
    let mut metrics = SnapWriter::new();
    run.metrics.write_snap(&mut metrics);
    assert_eq!(
        metrics.fingerprint(),
        metrics_pin,
        "merged metrics text FNV; the run's metrics:\n{}",
        run.metrics.summary()
    );
    let fresh = PodBenchReport::from_outcome(&run, cfg.jobs);
    let drift: Vec<_> = compare(PodBenchReport::FIELDS, &fresh.to_json(), committed)
        .into_iter()
        .filter(|(gate, _)| *gate == Gate::Exact)
        .collect();
    assert!(drift.is_empty(), "committed pins drifted: {drift:#?}");

    let every_epoch = PodOptions {
        snapshot_every: 1,
        ..PodOptions::default()
    };
    let snapped =
        run_pod_with(cfg, shards as usize, &every_epoch).expect("snapshotting pod scenario runs");
    assert!(!snapped.snapshots.is_empty(), "the run captured snapshots");
    assert_eq!(
        (snapped.fingerprint, snapped.journal.hash()),
        snapshot_pins,
        "snapshotting run (fingerprint, journal hash)"
    );
}

/// `spsim pod --smoke`: the full pod, two epoch windows, greedy policy.
#[test]
fn pod_smoke_reproduces_the_committed_pins() {
    let cfg = PodConfig {
        chips: 4096,
        max_epochs: 2,
        ..PodConfig::default()
    };
    assert_reproduces(
        &cfg,
        include_str!("../BENCH_pod.json"),
        (0x5ffe_0d8c_a039_d414, 0xa925_bb77_e9ee_247e),
        0xf5e6_c7a6_078b_f561,
    );
}

/// `spsim pod --chips 512 --jobs 96 --failures 2 --policy stitch`.
#[test]
fn stitch_placement_reproduces_the_committed_pins() {
    let cfg = PodConfig {
        chips: 512,
        jobs: 96,
        failures: 2,
        policy: PolicyKind::Stitch,
        ..PodConfig::default()
    };
    assert_reproduces(
        &cfg,
        include_str!("../BENCH_placement.json"),
        (0x47ae_a8a6_3f23_bedd, 0x6291_fced_d187_a335),
        0x8fc3_c47b_0daa_4474,
    );
}
