//! Snapshot-path pins that plain `cargo test` checks: the committed ctrl
//! bench scenario must reproduce every exact field of `BENCH_ctrl.json`
//! (fingerprint, journal hash, record, snapshot and admission counts, and
//! the tail-replay record count), and compaction must not move its
//! fingerprint, journal hash or record count; its last snapshot must
//! reproduce `golden/ctrl_snapshot.txt` byte for byte, and delta replay
//! from that artifact must land on the live run; and a pod run
//! resumed from a mid-run snapshot must land on the uninterrupted run. Any
//! drift in journal hashing, snapshot capture, or the admission engine's
//! queue and event codec fails here.

use desim::SimDuration;
use fabricd::report::{bench_config, compare, json_str, json_u64, BenchFields, Gate};
use fabricd::{
    replay_from, run_campaign, run_ctrl_bench, CampaignOptions, CtrlBenchReport, CtrlSnapshot,
};
use pod::{resume_pod, run_pod_with, PodConfig, PodOptions, PodSnapshot};
use workloads::ArrivalParams;

const BENCH_CTRL: &str = include_str!("../BENCH_ctrl.json");

#[test]
fn ctrl_bench_reproduces_the_committed_pins() {
    let (cfg, every) = bench_config();
    let run = run_ctrl_bench(&cfg, every).expect("ctrl bench runs");
    let drift: Vec<_> = compare(CtrlBenchReport::FIELDS, &run.to_json(), BENCH_CTRL)
        .into_iter()
        .filter(|(gate, _)| *gate == Gate::Exact)
        .collect();
    assert!(drift.is_empty(), "BENCH_ctrl.json drifted: {drift:#?}");
}

/// The event kind codes, the `(time, seq)` keys and the whole `[campaign]`
/// block live in these bytes.
#[test]
fn ctrl_bench_last_snapshot_is_the_golden_artifact() {
    let (cfg, every) = bench_config();
    let opts = CampaignOptions {
        snapshot_every: Some(every),
        ..CampaignOptions::default()
    };
    let out = run_campaign(&cfg, &opts).expect("snapshotting campaign runs");
    let last = out
        .snapshots
        .last()
        .expect("the campaign captured snapshots");
    let golden = include_str!("../golden/ctrl_snapshot.txt");
    assert!(
        last.to_text() == golden,
        "the last snapshot drifted from golden/ctrl_snapshot.txt"
    );
    let parsed = CtrlSnapshot::parse(golden).expect("the golden artifact parses");
    assert_eq!(&parsed, last);
    let replayed = replay_from(&parsed.fabric, out.state.journal()).expect("delta replay");
    assert_eq!(replayed.fingerprint(), out.state.fingerprint());
}

#[test]
fn compacted_ctrl_campaign_ends_on_the_committed_pins() {
    let (cfg, every) = bench_config();
    let opts = CampaignOptions {
        snapshot_every: Some(every),
        compact: true,
        crash_after_events: None,
    };
    let out = run_campaign(&cfg, &opts).expect("compacted campaign runs");
    assert!(out.state.journal().base_seq() > 0, "compaction happened");
    assert_eq!(
        Ok(format!("{:#018x}", out.state.fingerprint())),
        json_str(BENCH_CTRL, "fingerprint")
    );
    assert_eq!(
        Ok(format!("{:#018x}", out.state.journal().hash())),
        json_str(BENCH_CTRL, "journal_hash")
    );
    assert_eq!(
        Ok(out.state.journal().len() as u64),
        json_u64(BENCH_CTRL, "journal_records")
    );
}

#[test]
fn pod_resumed_from_a_mid_run_snapshot_matches_the_uninterrupted_run() {
    let cfg = PodConfig {
        chips: 256,
        seed: 7,
        jobs: 20,
        failures: 2,
        epoch: SimDuration::from_secs(300),
        queue_timeout: SimDuration::from_secs(900),
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(30),
            mean_duration: SimDuration::from_secs(600),
            ..ArrivalParams::default()
        },
        ..PodConfig::default()
    };
    for compact in [false, true] {
        let opts = PodOptions {
            snapshot_every: 2,
            compact,
            crash_after_epochs: None,
        };
        let full = run_pod_with(&cfg, 2, &opts).expect("uninterrupted run");
        assert!(full.snapshots.len() >= 2, "the run spans several captures");
        let mid = full
            .snapshots
            .get(full.snapshots.len() / 2)
            .expect("the run captured snapshots");
        let snap = PodSnapshot::parse(&mid.to_text()).expect("snapshot text round trips");
        let resumed = resume_pod(&snap, 1, &opts).expect("resumed run");
        assert_eq!(resumed.fingerprint, full.fingerprint, "compact={compact}");
        assert_eq!(
            resumed.journal.hash(),
            full.journal.hash(),
            "compact={compact}"
        );
        assert_eq!(resumed.journal.len(), full.journal.len());
    }
}
