//! Property tests of the control plane's determinism contract:
//!
//! 1. Running the same scenario twice produces bit-identical journals
//!    (same FNV-1a hash), whatever the seed or load mix.
//! 2. Replaying a journal against a fresh rack reproduces the live run's
//!    final per-wafer telemetry exactly — occupancy histograms, free-lane
//!    counts, reconfiguration counters and all.

use desim::{SimDuration, SimTime};
use fabricd::{
    replay, run_campaign, Admission, CampaignOptions, CampaignOutcome, CtrlConfig, FabricState,
};
use proptest::prelude::*;
use topo::Shape3;
use workloads::ArrivalParams;

/// A campaign run to quiescence, with no snapshots.
fn run(cfg: &CtrlConfig) -> CampaignOutcome {
    run_campaign(cfg, &CampaignOptions::default()).expect("campaign runs")
}

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
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_yields_identical_journal_hashes(
        seed in 0u64..1_000,
        jobs in 1usize..16,
        failures in 0usize..3,
        interarrival in 10u64..600,
    ) {
        let cfg = config(seed, jobs, failures, interarrival);
        let a = run(&cfg);
        let b = run(&cfg);
        prop_assert_eq!(a.state.journal().hash(), b.state.journal().hash());
        prop_assert_eq!(a.state.journal().len(), b.state.journal().len());
    }

    #[test]
    fn replay_reconstructs_the_live_telemetry(
        seed in 0u64..1_000,
        jobs in 1usize..12,
        failures in 0usize..2,
    ) {
        let cfg = config(seed, jobs, failures, 120);
        let live = run(&cfg);
        let replayed = match replay(live.state.journal()) {
            Ok(st) => st,
            Err(e) => return Err(TestCaseError::Fail(format!("replay diverged: {e}"))),
        };
        prop_assert_eq!(replayed.telemetry(), live.state.telemetry());
        prop_assert_eq!(replayed.live_jobs(), live.state.live_jobs());
        prop_assert_eq!(replayed.incidents().len(), live.state.incidents().len());
    }

    /// Fault campaigns — injected failures, programming retries, and
    /// periodic infeasible plans — never panic, are run-to-run
    /// deterministic, and their journals (now carrying `Reject` +
    /// `Rollback` pairs) still replay bit-for-bit.
    #[test]
    fn fault_campaigns_replay_cleanly(
        seed in 0u64..500,
        jobs in 1usize..14,
        failures in 0usize..3,
        retries in 0u32..3,
        infeasible_every in 0usize..6,
    ) {
        let cfg = CtrlConfig {
            program_retries: retries,
            infeasible_every,
            ..config(seed, jobs, failures, 120)
        };
        let a = run(&cfg);
        let b = run(&cfg);
        prop_assert_eq!(a.state.journal().hash(), b.state.journal().hash());
        let replayed = match replay(a.state.journal()) {
            Ok(st) => st,
            Err(e) => return Err(TestCaseError::Fail(format!("replay diverged: {e}"))),
        };
        prop_assert_eq!(replayed.telemetry(), a.state.telemetry());
    }

    /// A rejected (infeasible) plan is a perfect no-op on the fabric:
    /// telemetry and utilization gauges stay bit-identical, the journal
    /// grows by exactly its Reject + Rollback pair, the rejection is
    /// journaled deterministically (identical fingerprints across two
    /// identical histories), and the journal still replays cleanly.
    #[test]
    fn rejected_plans_leave_state_bit_identical(
        seed in 0u64..200,
        feasible in 1usize..6,
        dx in 1usize..4,
        dy in 0usize..4,
        dz in 0usize..4,
    ) {
        let build = |with_reject: bool| {
            let mut st = FabricState::new(1, 2, seed);
            for j in 0..feasible {
                let _ = st.admit(SimTime::ZERO, j as u32, Shape3::new(2, 2, 1));
            }
            if with_reject {
                let torus = st.rack().cluster.occupancy().shape();
                let shape = Shape3::new(
                    torus.dims[0] + dx,
                    torus.dims[1] + dy,
                    torus.dims[2] + dz,
                );
                let admission = st.admit_retryable(SimTime::ZERO, 99, shape, 0, false);
                return (st, Some(admission));
            }
            (st, None)
        };
        let (clean, _) = build(false);
        let (st, admission) = build(true);
        match admission {
            Some(Admission::Infeasible { error }) => {
                prop_assert_eq!(error.root_code(), "topo/out-of-bounds");
            }
            other => {
                return Err(TestCaseError::Fail(
                    format!("expected Infeasible, got {other:?}"),
                ))
            }
        }
        // The fabric is untouched by the rejection...
        prop_assert_eq!(st.telemetry(), clean.telemetry());
        prop_assert_eq!(st.utilization(), clean.utilization());
        prop_assert_eq!(st.live_jobs(), clean.live_jobs());
        // ...the journal grew by exactly the Reject + Rollback pair,
        // deterministically (same history → same fingerprint)...
        prop_assert_eq!(st.journal().len(), clean.journal().len() + 2);
        let (again, _) = build(true);
        prop_assert_eq!(st.journal().hash(), again.journal().hash());
        // ...and a journal carrying the rejection still replays exactly.
        let replayed = match replay(st.journal()) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::Fail(format!("replay diverged: {e}"))),
        };
        prop_assert_eq!(replayed.telemetry(), st.telemetry());
    }
}

/// The ISSUE's end-to-end acceptance scenario, pinned deterministically: a
/// single injected chip failure on a busy fabric is repaired optically with
/// a blast radius of exactly one server.
#[test]
fn acceptance_single_failure_blast_radius_one_server() {
    let out = run(&CtrlConfig::default());
    let repairs: Vec<_> = out
        .state
        .incidents()
        .iter()
        .filter_map(|i| i.repair)
        .collect();
    assert!(
        !repairs.is_empty(),
        "default scenario must repair a failure"
    );
    for rep in &repairs {
        assert_eq!(rep.blast_servers, 1, "paper claim: 1-server blast radius");
        assert!((rep.setup.as_micros_f64() - 3.7).abs() < 1e-9);
    }
    // And the journal round-trips even through the repair path.
    let replayed = match replay(out.state.journal()) {
        Ok(st) => st,
        Err(e) => panic!("replay diverged: {e}"),
    };
    assert_eq!(replayed.telemetry(), out.state.telemetry());
}
