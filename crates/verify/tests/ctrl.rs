//! The CTL rules and RTE501 against real control-plane campaigns: every
//! journal and every stamp trail a campaign produces must audit clean,
//! with and without programming retries, snapshots and compaction. The
//! forged journals and contracts that must trip each rule are the unit
//! tests of `ctrl_rules.rs` and `plan_rules.rs`.

use fabricd::{
    bench_config, run_campaign, CampaignOptions, CampaignOutcome, CtrlConfig, JournalEntry,
};
use verify::{check_journal, check_stamp_audit, RuleId};

/// A campaign run to quiescence, with no snapshots.
fn run(cfg: &CtrlConfig) -> CampaignOutcome {
    run_campaign(cfg, &CampaignOptions::default()).expect("campaign runs")
}

#[test]
fn live_scenario_journals_audit_clean() {
    let (mut rejects, mut stamps) = (0, 0);
    for program_retries in [0, 1] {
        for seed in [0u64, 7, 41] {
            let cfg = CtrlConfig {
                seed,
                program_retries,
                ..CtrlConfig::default()
            };
            let out = run(&cfg);
            let journal = out.state.journal();
            let report = check_journal(journal);
            assert!(
                report.is_clean(),
                "seed {seed}, {program_retries} retries: journal failed audit:\n{report}"
            );
            assert!(!journal.is_empty());
            // The plan library's stamps carry boundary contracts that must
            // hold on the wafers they landed on.
            let audit = out.state.plan_engine().audit();
            let report = check_stamp_audit(&audit);
            assert!(
                report.is_clean(),
                "seed {seed}, {program_retries} retries: stamps failed audit:\n{report}"
            );
            stamps += audit.records.len();
            if (seed, program_retries) == (7, 1) {
                rejects = journal
                    .records()
                    .iter()
                    .filter(|r| matches!(r.entry, JournalEntry::Reject { .. }))
                    .count();
            }
        }
    }
    assert!(stamps > 0, "no campaign admitted a batch by stamping");
    // With a retry allowed, a programming failure is journaled as a Reject
    // and its Rollback, which CTL403 and CTL404 audit.
    assert!(rejects > 0, "seed 7 with a retry journaled no Reject");
}

#[test]
fn scenario_with_failures_exercises_repair_records() {
    let cfg = CtrlConfig {
        jobs: 10,
        failures: 2,
        ..CtrlConfig::default()
    };
    let out = run(&cfg);
    let journal = out.state.journal();
    let fails = journal
        .records()
        .iter()
        .filter(|r| matches!(r.entry, JournalEntry::Fail { .. }))
        .count();
    assert!(fails > 0, "failure injection must journal Fail records");
    let report = check_journal(journal);
    assert!(report.is_clean(), "repair journal failed audit:\n{report}");
    assert!(!report.has(RuleId::Ctl402));
}

/// The committed ctrl bench campaign journals its snapshots: uncompacted,
/// each snapshot's fingerprint must equal its replayed prefix's (CTL406);
/// compacted, the journal must start at a snapshot watermark (CTL407).
#[test]
fn snapshotted_bench_campaign_audits_clean() {
    let (cfg, every) = bench_config();
    for compact in [false, true] {
        let opts = CampaignOptions {
            snapshot_every: Some(every),
            compact,
            crash_after_events: None,
        };
        let out = run_campaign(&cfg, &opts).expect("campaign runs");
        let journal = out.state.journal();
        assert!(
            journal
                .records()
                .iter()
                .any(|r| matches!(r.entry, JournalEntry::Snapshot { .. })),
            "compact={compact}: no Snapshot record"
        );
        assert_eq!(journal.base_seq() > 0, compact);
        let report = check_journal(journal);
        assert!(report.is_clean(), "compact={compact}:\n{report}");
    }
}
