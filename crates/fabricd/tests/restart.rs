//! The replay-equivalence harness pinning the snapshot/compaction/restart
//! contract:
//!
//! 1. For any seed, campaign length, and snapshot cadence, restoring the
//!    latest snapshot and folding only the journal tail reproduces the
//!    from-scratch replay bit for bit — same state fingerprint, same
//!    journal hash, same logical record count — with or without journal
//!    compaction.
//! 2. Crashing a campaign at an arbitrary event and restarting from the
//!    last snapshot yields a final state bit-identical to the
//!    uninterrupted run's.
//! 3. Every captured state text, written through the fabric's per-wafer
//!    text cache, is byte for byte the state's fresh serialization.

use desim::SimDuration;
use fabricd::{replay, replay_from, resume_campaign, run_campaign, CampaignOptions, CtrlConfig};
use proptest::prelude::*;
use workloads::ArrivalParams;

fn config(seed: u64, jobs: usize, failures: usize, interarrival_s: u64) -> CtrlConfig {
    CtrlConfig {
        jobs,
        seed,
        failures,
        arrivals: ArrivalParams {
            mean_interarrival: SimDuration::from_secs(interarrival_s),
            ..ArrivalParams::default()
        },
        ..CtrlConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite 1 (ctrl half): snapshot-restore + tail replay is
    /// bit-identical to a full from-scratch replay, for random seeds,
    /// campaign lengths, and snapshot intervals, compacted or not.
    #[test]
    fn delta_replay_matches_full_replay(
        seed in 0u64..1_000,
        jobs in 2usize..14,
        failures in 0usize..3,
        interarrival in 30u64..600,
        every_s in 120u64..1_200,
        compact in any::<bool>(),
    ) {
        let cfg = config(seed, jobs, failures, interarrival);
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(every_s)),
            compact,
            crash_after_events: None,
        };
        let out = run_campaign(&cfg, &opts).map_err(TestCaseError::Fail)?;
        let journal = out.state.journal();
        let live_fp = out.state.fingerprint();

        if let Some(snap) = out.snapshots.last() {
            // Delta replay: restore the snapshot, fold only the tail. The
            // state fingerprint (occupancy, fabric, jobs, incidents,
            // reservations) must match the live run's bit for bit; the
            // restored journal resumes the chain exactly at the snapshot
            // watermark (replayed journals are reconstructions, so their
            // hash equivalence is pinned by the live-resume test below).
            let tail = replay_from(&snap.fabric, journal)
                .map_err(|e| TestCaseError::Fail(e.to_string()))?;
            prop_assert_eq!(tail.fingerprint(), live_fp);
            prop_assert_eq!(tail.journal().next_seq(), snap.fabric.seq + 1);
            prop_assert_eq!(tail.journal().base_fnv(), snap.fabric.base_fnv);

            // Full replay only exists for uncompacted journals; when it
            // does, it must agree with the delta replay bit for bit.
            if !compact {
                let full = replay(journal)
                    .map_err(|e| TestCaseError::Fail(e.to_string()))?;
                prop_assert_eq!(full.fingerprint(), live_fp);
            } else {
                prop_assert!(journal.base_seq() > 0, "compaction happened");
                prop_assert!(replay(journal).is_err(), "full replay rejects a compacted journal");
            }
        }
    }

    /// Satellite 2 (ctrl half): kill the campaign at a random event count,
    /// restart from the latest snapshot, and the resumed run's final
    /// fingerprint, journal hash, horizon, and metrics equal the
    /// uninterrupted run's.
    #[test]
    fn crash_restart_matches_uninterrupted_run(
        seed in 0u64..1_000,
        jobs in 2usize..14,
        failures in 0usize..3,
        every_s in 120u64..900,
        crash_frac in 0.1f64..0.9,
        compact in any::<bool>(),
    ) {
        let cfg = config(seed, jobs, failures, 120);
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(every_s)),
            compact,
            crash_after_events: None,
        };
        let full = run_campaign(&cfg, &opts).map_err(TestCaseError::Fail)?;
        prop_assume!(full.events_executed >= 2);

        let crash_at = ((full.events_executed as f64 * crash_frac) as u64).max(1);
        let crashed = run_campaign(&cfg, &CampaignOptions {
            crash_after_events: Some(crash_at),
            ..opts
        }).map_err(TestCaseError::Fail)?;

        if crashed.crashed {
            // Only restartable if a snapshot landed before the crash;
            // otherwise a fresh run IS the restart, which `full` covers.
            if let Some(snap) = crashed.snapshots.last() {
                let resumed = resume_campaign(snap, &CampaignOptions {
                    crash_after_events: None,
                    ..opts
                }).map_err(TestCaseError::Fail)?;
                prop_assert!(!resumed.crashed);
                prop_assert_eq!(resumed.state.fingerprint(), full.state.fingerprint());
                prop_assert_eq!(resumed.state.journal().hash(), full.state.journal().hash());
                prop_assert_eq!(resumed.state.journal().len(), full.state.journal().len());
                prop_assert_eq!(resumed.horizon, full.horizon);
                prop_assert_eq!(resumed.metrics.summary(), full.metrics.summary());
                prop_assert_eq!(
                    resumed.metrics.rejection_report_json(),
                    full.metrics.rejection_report_json()
                );
            }
        } else {
            // The campaign drained before the crash point; the "crashed"
            // run is simply the full run.
            prop_assert_eq!(crashed.state.fingerprint(), full.state.fingerprint());
        }
    }

    /// Snapshot capture re-serializes only wafers whose revision moved and
    /// appends the rest from a cache. Whatever mix of failures, retried
    /// and rolled-back programming, infeasible plans, compaction and
    /// crash-restart a 4-rack campaign runs, each captured snapshot must
    /// restore (which re-fingerprints the decoded state from scratch), and
    /// that state's fresh serialization must be the captured text.
    #[test]
    fn captured_state_text_is_a_fresh_serialization(
        seed in 0u64..1_000,
        jobs in 8usize..24,
        failures in 1usize..4,
        infeasible_every in 2usize..6,
        every_s in 120u64..900,
        crash_frac in 0.2f64..0.8,
        compact in any::<bool>(),
    ) {
        let cfg = CtrlConfig {
            racks: 4,
            program_retries: 2,
            infeasible_every,
            ..config(seed, jobs, failures, 120)
        };
        let opts = CampaignOptions {
            snapshot_every: Some(SimDuration::from_secs(every_s)),
            compact,
            crash_after_events: None,
        };
        let full = run_campaign(&cfg, &opts).map_err(TestCaseError::Fail)?;
        let crash_at = ((full.events_executed as f64 * crash_frac) as u64).max(1);
        let crashed = run_campaign(&cfg, &CampaignOptions {
            crash_after_events: Some(crash_at),
            ..opts
        }).map_err(TestCaseError::Fail)?;
        let resumed = match crashed.snapshots.last() {
            Some(snap) if crashed.crashed => {
                let r = resume_campaign(snap, &opts).map_err(TestCaseError::Fail)?;
                prop_assert_eq!(r.state.fingerprint(), full.state.fingerprint());
                r.snapshots
            }
            _ => Vec::new(),
        };
        prop_assert!(!full.snapshots.is_empty(), "the campaign captured snapshots");
        for snap in full.snapshots.iter().chain(&crashed.snapshots).chain(&resumed) {
            let st = snap.fabric.restore().map_err(|e| TestCaseError::Fail(e.to_string()))?;
            prop_assert_eq!(st.state_text(), snap.fabric.state.as_str());
        }
    }
}
