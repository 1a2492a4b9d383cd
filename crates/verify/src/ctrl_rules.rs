//! Control-plane journal rules (CTL4xx): static audits of a
//! [`fabricd::Journal`] without touching a wafer.
//!
//! The journal is the control plane's system of record, so its internal
//! consistency is an invariant worth gating on:
//!
//! * **CTL401** — admissions must never oversubscribe slice capacity. The
//!   checker folds `Admit`/`Evict`/`Fail` records through a fresh
//!   [`topo::Occupancy`] of the header's shape; any placement the
//!   allocator rejects (overlap, out of bounds, duplicate live job id) or
//!   any eviction of a job that is not live is an error.
//! * **CTL402** — every `Repair`/`RepairFailed` record must reference an
//!   incident introduced by an earlier `Fail` record, and that incident
//!   must have had a victim tenant to repair.
//! * **CTL403** — every `Reject` record must carry a reason code from the
//!   workspace fault-code registry ([`lightpath::FabricError::is_valid_code`]),
//!   so rejections stay machine-readable across releases.
//! * **CTL404** — every `Reject` must be followed immediately by its
//!   paired `Rollback` (same job, same attempt), and every `Rollback` must
//!   have such an originating `Reject` — partial programming is rolled
//!   back atomically or not at all.
//! * **CTL406** — every `Snapshot` record's committed fingerprint must
//!   equal the fingerprint of the state replayed from the records before
//!   it; a forged snapshot would silently poison every later delta replay.
//! * **CTL407** — a compacted journal's first retained record must be the
//!   `Snapshot` record sitting exactly at the base watermark, with dense
//!   sequence numbers above it — compaction must never eat a live record.

use crate::diag::{Diagnostic, Location, Report, RuleId, Severity};
use fabricd::{Journal, JournalEntry, StitchLegRecord};
use lightpath::FabricError;
use std::collections::BTreeMap;
use topo::{Occupancy, Shape3, Slice, SliceId};

/// Audit a control-plane journal (CTL401–CTL404, CTL406–CTL407).
pub fn check_journal(journal: &Journal) -> Report {
    let mut report = Report::new();
    check_admission_capacity(journal, &mut report);
    check_repair_references(journal, &mut report);
    check_rejection_codes(journal, &mut report);
    check_rollback_pairing(journal, &mut report);
    check_snapshot_fingerprints(journal, &mut report);
    check_compaction_watermark(journal, &mut report);
    report
}

/// CTL401: replay the slice bookkeeping and flag any admit the allocator
/// would refuse, or any evict of a job that is not live.
pub fn check_admission_capacity(journal: &Journal, report: &mut Report) {
    let mut occ = Occupancy::new(journal.header().shape);
    for r in journal.records() {
        match &r.entry {
            JournalEntry::Admit {
                job,
                origin,
                extent,
            } => {
                if let Err(e) = occ.place(Slice::new(*job, *origin, *extent)) {
                    report.push(Diagnostic {
                        rule: RuleId::Ctl401,
                        severity: Severity::Error,
                        location: Location::JournalEntry(r.seq),
                        message: format!(
                            "admit of job {job} at {origin} extent {extent} \
                             oversubscribes capacity: {e:?}"
                        ),
                        hint: Some(
                            "admission control must re-check the allocator before journaling"
                                .into(),
                        ),
                    });
                }
            }
            JournalEntry::Evict { job } if occ.remove(SliceId(*job)).is_none() => {
                report.push(Diagnostic {
                    rule: RuleId::Ctl401,
                    severity: Severity::Error,
                    location: Location::JournalEntry(r.seq),
                    message: format!("evict of job {job}, which holds no slice"),
                    hint: None,
                });
            }
            JournalEntry::Fail { chip, .. } => occ.fail_chip(*chip),
            _ => {}
        }
    }
}

/// CTL402: every repair must point at a previously journaled failure with
/// a victim tenant.
pub fn check_repair_references(journal: &Journal, report: &mut Report) {
    // incident id -> had a victim tenant?
    let mut incidents: BTreeMap<u64, bool> = BTreeMap::new();
    for r in journal.records() {
        match &r.entry {
            JournalEntry::Fail {
                incident, victim, ..
            } => {
                incidents.insert(*incident, victim.is_some());
            }
            JournalEntry::Repair { incident, .. } | JournalEntry::RepairFailed { incident, .. } => {
                match incidents.get(incident) {
                    None => report.push(Diagnostic {
                        rule: RuleId::Ctl402,
                        severity: Severity::Error,
                        location: Location::JournalEntry(r.seq),
                        message: format!(
                            "repair references incident {incident}, but no earlier \
                         Fail record introduced it"
                        ),
                        hint: Some("journal the failure before its repair".into()),
                    }),
                    Some(false) => report.push(Diagnostic {
                        rule: RuleId::Ctl402,
                        severity: Severity::Error,
                        location: Location::JournalEntry(r.seq),
                        message: format!(
                            "repair of incident {incident}, whose failed chip had no \
                         victim tenant to splice"
                        ),
                        hint: None,
                    }),
                    Some(true) => {}
                }
            }
            _ => {}
        }
    }
}

/// CTL403: a `Reject`'s reason code must come from the workspace fault-code
/// registry, never free text.
pub fn check_rejection_codes(journal: &Journal, report: &mut Report) {
    for r in journal.records() {
        if let JournalEntry::Reject { job, code, .. } = &r.entry {
            if !FabricError::is_valid_code(code) {
                report.push(Diagnostic {
                    rule: RuleId::Ctl403,
                    severity: Severity::Error,
                    location: Location::JournalEntry(r.seq),
                    message: format!(
                        "rejection of job {job} carries unregistered reason code {code:?}"
                    ),
                    hint: Some(
                        "reason codes must be FabricError::root_code() values \
                         from lightpath::fault::CODES"
                            .into(),
                    ),
                });
            }
        }
    }
}

/// CTL404: `Reject` and `Rollback` records form adjacent pairs keyed by
/// `(job, attempt)` — a reject with no immediate rollback means partial
/// circuits may have leaked; a rollback with no originating reject means
/// state was mutated without a journaled cause.
pub fn check_rollback_pairing(journal: &Journal, report: &mut Report) {
    // The pending reject awaiting its paired rollback: (job, attempt, seq).
    let mut pending: Option<(u32, u32, u64)> = None;
    for r in journal.records() {
        if let Some((job, attempt, seq)) = pending {
            match &r.entry {
                JournalEntry::Rollback {
                    job: rj,
                    attempt: ra,
                    ..
                } if *rj == job && *ra == attempt => {
                    pending = None;
                    continue;
                }
                _ => {
                    report.push(Diagnostic {
                        rule: RuleId::Ctl404,
                        severity: Severity::Error,
                        location: Location::JournalEntry(seq),
                        message: format!(
                            "reject of job {job} attempt {attempt} is not followed by \
                             its rollback"
                        ),
                        hint: Some("journal Reject and Rollback as an adjacent pair".into()),
                    });
                    pending = None;
                }
            }
        }
        match &r.entry {
            JournalEntry::Reject { job, attempt, .. } => {
                pending = Some((*job, *attempt, r.seq));
            }
            JournalEntry::Rollback { job, attempt, .. } => {
                report.push(Diagnostic {
                    rule: RuleId::Ctl404,
                    severity: Severity::Error,
                    location: Location::JournalEntry(r.seq),
                    message: format!(
                        "rollback of job {job} attempt {attempt} has no originating \
                         reject record"
                    ),
                    hint: None,
                });
            }
            _ => {}
        }
    }
    if let Some((job, attempt, seq)) = pending {
        report.push(Diagnostic {
            rule: RuleId::Ctl404,
            severity: Severity::Error,
            location: Location::JournalEntry(seq),
            message: format!(
                "journal ends with reject of job {job} attempt {attempt} never rolled back"
            ),
            hint: None,
        });
    }
}

/// CTL406: every `Snapshot` record's committed fingerprint must equal the
/// fingerprint of the state obtained by replaying all records before it.
/// The checker rebuilds each snapshot's prefix journal and replays it from
/// scratch with the production replay path, so a forged fingerprint — or a
/// capture taken from a state the journal cannot explain — is caught even
/// though the live control plane would happily keep appending after it.
///
/// Skipped for compacted journals (`base_seq > 0`): their truncated prefix
/// cannot be replayed from scratch; audit before compaction, or audit the
/// pod-level journal that retains the folded history.
pub fn check_snapshot_fingerprints(journal: &Journal, report: &mut Report) {
    if journal.base_seq() != 0 {
        return;
    }
    let mut prefix = Journal::new(*journal.header());
    for r in journal.records() {
        if let JournalEntry::Snapshot { fingerprint } = &r.entry {
            match fabricd::replay(&prefix) {
                Ok(st) => {
                    let fp = st.fingerprint();
                    if fp != *fingerprint {
                        report.push(Diagnostic {
                            rule: RuleId::Ctl406,
                            severity: Severity::Error,
                            location: Location::JournalEntry(r.seq),
                            message: format!(
                                "snapshot commits fingerprint {fingerprint:#018x}, but \
                                 replaying the {} records before it yields {fp:#018x}",
                                r.seq
                            ),
                            hint: Some(
                                "capture snapshots from the journaled state only, never \
                                 from an out-of-band copy"
                                    .into(),
                            ),
                        });
                    }
                    // Seed the prefix with the *replayed* fingerprint so one
                    // forged snapshot is reported once, not once per
                    // snapshot after it.
                    prefix.push(r.at, JournalEntry::Snapshot { fingerprint: fp });
                    continue;
                }
                Err(e) => report.push(Diagnostic {
                    rule: RuleId::Ctl406,
                    severity: Severity::Error,
                    location: Location::JournalEntry(r.seq),
                    message: format!(
                        "snapshot fingerprint cannot be audited: prefix replay failed ({e})"
                    ),
                    hint: None,
                }),
            }
        }
        prefix.push(r.at, r.entry.clone());
    }
}

/// CTL407: compaction must be exact. In a compacted journal
/// (`base_seq > 0`) the first retained record must be the `Snapshot`
/// record sitting at the watermark itself — anything else means a record
/// above the watermark was eaten, or garbage below it survived — and
/// retained sequence numbers must be dense from the base in every journal.
pub fn check_compaction_watermark(journal: &Journal, report: &mut Report) {
    let base = journal.base_seq();
    for (i, r) in journal.records().iter().enumerate() {
        let expect = base + i as u64;
        if r.seq != expect {
            report.push(Diagnostic {
                rule: RuleId::Ctl407,
                severity: Severity::Error,
                location: Location::JournalEntry(r.seq),
                message: format!(
                    "retained record carries seq {}, expected {expect}: the sequence \
                     is not dense above the watermark",
                    r.seq
                ),
                hint: Some("compaction may only drop records below a snapshot".into()),
            });
            return;
        }
    }
    if base == 0 {
        return;
    }
    match journal.records().first() {
        Some(r) if matches!(r.entry, JournalEntry::Snapshot { .. }) => {}
        Some(r) => report.push(Diagnostic {
            rule: RuleId::Ctl407,
            severity: Severity::Error,
            location: Location::JournalEntry(r.seq),
            message: format!(
                "journal compacted to seq {base}, but the first retained record is a \
                 {} record, not the watermark snapshot",
                r.entry.kind()
            ),
            hint: Some(
                "truncate strictly below the snapshot record so delta replay can anchor on it"
                    .into(),
            ),
        }),
        None => report.push(Diagnostic {
            rule: RuleId::Ctl407,
            severity: Severity::Error,
            location: Location::JournalEntry(base),
            message: format!(
                "journal compacted to seq {base} retains no records at all — the \
                 watermark snapshot itself was eaten"
            ),
            hint: None,
        }),
    }
}

/// CTL408: cross-group admission audit for sharded pod runs, which may
/// stitch slices over the rack-face OCS banks.
///
/// Every `Admit` record must lie inside one shard domain's Z slab of
/// `group_z` chips: slice programming is delegated per shard, so a slice
/// straddling a boundary could never have been programmed by any single
/// per-shard fabricd (stitched legs are journaled as per-group `Admit`s,
/// so they are in-band by construction). A `MultiGroupAdmit` record must
/// additionally be **well-formed**:
///
/// * it carries at least two legs over *consecutive, ascending* rack
///   groups;
/// * the legs are an X/Y-preserving Z-split of the record's extent (each
///   leg keeps the job's X/Y cross-section; leg Z extents sum to it);
/// * every leg lies entirely inside its declared group's Z slab;
/// * the stitch-port assignment names one port per chip column per
///   crossed boundary — `(legs − 1) × (x·y)` ports, each a real port on a
///   `face_ports`-wide rack-face OCS bank, distinct within a boundary;
/// * teardown is atomic: by journal end a stitched job's legs are either
///   all evicted or none (a partially-released stitch leaks capacity).
///
/// Not part of [`check_journal`]: the shard geometry and face width are
/// properties of the pod run, not of the journal itself, so the pod
/// harness passes them explicitly.
pub fn check_multi_group_admission(
    journal: &Journal,
    group_z: usize,
    face_ports: usize,
    report: &mut Report,
) {
    if group_z == 0 {
        return;
    }
    let mut err = |seq: u64, message: String, hint: Option<String>| {
        report.push(Diagnostic {
            rule: RuleId::Ctl408,
            severity: Severity::Error,
            location: Location::JournalEntry(seq),
            message,
            hint,
        });
    };
    // Stitched job -> (record seq, leg slice ids, evicted-so-far count).
    let mut stitches: BTreeMap<u32, (u64, Vec<u32>, usize)> = BTreeMap::new();
    for r in journal.records() {
        match &r.entry {
            JournalEntry::Admit {
                job,
                origin,
                extent,
            } => {
                let z0 = origin.get(topo::Dim::Z);
                let ez = extent.extent(topo::Dim::Z);
                if ez == 0 || z0 / group_z != (z0 + ez - 1) / group_z {
                    err(
                        r.seq,
                        format!(
                            "admit of job {job} at {origin} extent {extent} straddles a \
                             shard-domain boundary (group Z extent {group_z}) with no \
                             covering multi-group record"
                        ),
                        Some(
                            "cross-group slices must be journaled as a MultiGroupAdmit \
                             with per-group legs"
                                .into(),
                        ),
                    );
                }
            }
            JournalEntry::MultiGroupAdmit {
                job,
                extent,
                legs,
                ports,
            } => {
                check_stitch_record(
                    r.seq, *job, *extent, legs, ports, group_z, face_ports, &mut err,
                );
                stitches.insert(*job, (r.seq, legs.iter().map(|l| l.leg).collect(), 0));
            }
            JournalEntry::Evict { job } => {
                for (_, (_, legs, evicted)) in stitches.iter_mut() {
                    if legs.contains(job) {
                        *evicted += 1;
                    }
                }
            }
            _ => {}
        }
    }
    for (job, (seq, legs, evicted)) in stitches {
        if evicted != 0 && evicted != legs.len() {
            err(
                seq,
                format!(
                    "stitched job {job} was torn down non-atomically: {evicted} of {} \
                     legs evicted by journal end",
                    legs.len()
                ),
                Some("release every leg of a stitched slice in the same teardown".into()),
            );
        }
    }
}

/// Well-formedness of one `MultiGroupAdmit` record (CTL408 helper).
#[allow(clippy::too_many_arguments)]
fn check_stitch_record(
    seq: u64,
    job: u32,
    extent: Shape3,
    legs: &[StitchLegRecord],
    ports: &[u32],
    group_z: usize,
    face_ports: usize,
    err: &mut impl FnMut(u64, String, Option<String>),
) {
    if legs.len() < 2 {
        err(
            seq,
            format!(
                "multi-group admit of job {job} carries {} leg(s); a stitch spans \
                 at least two rack groups",
                legs.len()
            ),
            Some("single-group slices are journaled as plain Admit records".into()),
        );
        return;
    }
    for pair in legs.windows(2) {
        if let [a, b] = pair {
            if b.group != a.group + 1 {
                err(
                    seq,
                    format!(
                        "job {job}'s legs jump from group {} to group {}: stitched legs \
                         ride consecutive rack faces",
                        a.group, b.group
                    ),
                    None,
                );
            }
        }
    }
    let (x, y, z) = (
        extent.extent(topo::Dim::X),
        extent.extent(topo::Dim::Y),
        extent.extent(topo::Dim::Z),
    );
    let mut z_sum = 0usize;
    for l in legs {
        z_sum += l.extent.extent(topo::Dim::Z);
        if l.extent.extent(topo::Dim::X) != x || l.extent.extent(topo::Dim::Y) != y {
            err(
                seq,
                format!(
                    "job {job}'s leg {} has cross-section {}, the job's extent is {extent}: \
                     legs must preserve the X/Y cross-section",
                    l.leg, l.extent
                ),
                None,
            );
        }
        let band_lo = (l.group as usize).saturating_mul(group_z);
        let band_hi = band_lo + group_z;
        let z0 = l.origin.get(topo::Dim::Z);
        let z1 = z0 + l.extent.extent(topo::Dim::Z);
        if z0 < band_lo || z1 > band_hi {
            err(
                seq,
                format!(
                    "job {job}'s leg {} spans Z [{z0}, {z1}) outside its declared group \
                     {}'s slab [{band_lo}, {band_hi})",
                    l.leg, l.group
                ),
                None,
            );
        }
    }
    if z_sum != z {
        err(
            seq,
            format!(
                "job {job}'s leg Z extents sum to {z_sum}, the job's extent is {extent}: \
                 legs must partition the slice"
            ),
            None,
        );
    }
    let unit = x * y;
    let boundaries = legs.len() - 1;
    if ports.len() != boundaries * unit {
        err(
            seq,
            format!(
                "job {job} stitches {boundaries} boundaries of {unit} chip columns but \
                 assigns {} ports",
                ports.len()
            ),
            Some("one OCS port per chip column per crossed rack face".into()),
        );
        return;
    }
    for (b, chunk) in ports.chunks(unit.max(1)).enumerate() {
        let mut seen = chunk.to_vec();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() != chunk.len() {
            err(
                seq,
                format!("job {job} assigns a duplicate stitch port on boundary {b}"),
                None,
            );
        }
        for &p in chunk {
            if !topo::band::port_in_face(face_ports, p) {
                err(
                    seq,
                    format!(
                        "job {job} assigns stitch port {p} on boundary {b}, but the \
                         rack-face OCS bank has {face_ports} ports"
                    ),
                    Some("stitch ports must come from topo::band::stitch_ports".into()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;
    use fabricd::JournalHeader;
    use topo::{Coord3, Shape3};

    fn journal() -> Journal {
        Journal::new(JournalHeader {
            racks: 1,
            lanes: 2,
            seed: 0,
            shape: Shape3::new(4, 4, 4),
        })
    }

    #[test]
    fn clean_admit_evict_sequence_passes() {
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Admit {
                job: 0,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
        j.push(SimTime::from_ps(1), JournalEntry::Evict { job: 0 });
        j.push(
            SimTime::from_ps(2),
            JournalEntry::Admit {
                job: 1,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
        assert!(check_journal(&j).is_clean());
    }

    #[test]
    fn overlapping_admits_trip_ctl401() {
        let mut j = journal();
        for job in [0u32, 1] {
            j.push(
                SimTime::ZERO,
                JournalEntry::Admit {
                    job,
                    origin: Coord3::new(0, 0, 0),
                    extent: Shape3::new(2, 2, 1),
                },
            );
        }
        let report = check_journal(&j);
        assert!(report.has(RuleId::Ctl401));
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn evicting_a_ghost_job_trips_ctl401() {
        let mut j = journal();
        j.push(SimTime::ZERO, JournalEntry::Evict { job: 9 });
        assert!(check_journal(&j).has(RuleId::Ctl401));
    }

    #[test]
    fn repair_without_prior_fail_trips_ctl402() {
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Repair {
                incident: 99,
                replacement: Coord3::new(0, 0, 3),
                circuits: 8,
                servers_touched: 2,
                blast_servers: 1,
            },
        );
        let report = check_journal(&j);
        assert!(report.has(RuleId::Ctl402));
        assert!(!report.has(RuleId::Ctl401));
    }

    #[test]
    fn repair_after_fail_is_clean_and_order_matters() {
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Admit {
                job: 0,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
        j.push(
            SimTime::from_ps(1),
            JournalEntry::Fail {
                incident: 0,
                chip: Coord3::new(0, 0, 0),
                victim: Some(0),
                spliced: 2,
            },
        );
        j.push(
            SimTime::from_ps(2),
            JournalEntry::Repair {
                incident: 0,
                replacement: Coord3::new(3, 3, 3),
                circuits: 4,
                servers_touched: 2,
                blast_servers: 1,
            },
        );
        assert!(check_journal(&j).is_clean());
        // A repair of a victimless failure is also flagged.
        let mut k = journal();
        k.push(
            SimTime::ZERO,
            JournalEntry::Fail {
                incident: 0,
                chip: Coord3::new(0, 0, 0),
                victim: None,
                spliced: 0,
            },
        );
        k.push(
            SimTime::from_ps(1),
            JournalEntry::RepairFailed {
                incident: 0,
                replacement: Coord3::new(3, 3, 3),
                error: "spurious".into(),
            },
        );
        assert!(check_journal(&k).has(RuleId::Ctl402));
    }

    #[test]
    fn registered_reject_with_paired_rollback_is_clean() {
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Reject {
                job: 4,
                shape: Shape3::new(2, 2, 1),
                attempt: 0,
                code: "circuit/insufficient-tx-lanes",
            },
        );
        j.push(
            SimTime::ZERO,
            JournalEntry::Rollback {
                job: 4,
                attempt: 0,
                circuits: 3,
            },
        );
        let report = check_journal(&j);
        assert!(!report.has(RuleId::Ctl403), "{report}");
        assert!(!report.has(RuleId::Ctl404), "{report}");
    }

    #[test]
    fn forged_reason_code_trips_ctl403() {
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Reject {
                job: 1,
                shape: Shape3::new(2, 2, 1),
                attempt: 0,
                code: "bogus/not-a-code",
            },
        );
        j.push(
            SimTime::ZERO,
            JournalEntry::Rollback {
                job: 1,
                attempt: 0,
                circuits: 0,
            },
        );
        assert!(check_journal(&j).has(RuleId::Ctl403));
    }

    /// A real campaign journal with snapshot records, produced by the
    /// production control plane.
    fn snapshotted_journal() -> Journal {
        let cfg = fabricd::CtrlConfig {
            jobs: 8,
            ..fabricd::CtrlConfig::default()
        };
        let opts = fabricd::CampaignOptions {
            snapshot_every: Some(desim::SimDuration::from_secs(300)),
            ..fabricd::CampaignOptions::default()
        };
        let out = fabricd::run_campaign(&cfg, &opts).expect("campaign runs");
        assert!(!out.snapshots.is_empty(), "campaign produced snapshots");
        out.state.journal().clone()
    }

    #[test]
    fn genuine_snapshots_pass_ctl406() {
        let j = snapshotted_journal();
        assert!(
            j.records()
                .iter()
                .any(|r| matches!(r.entry, JournalEntry::Snapshot { .. })),
            "journal carries snapshot records"
        );
        let report = check_journal(&j);
        assert!(!report.has(RuleId::Ctl406), "{report}");
        assert!(!report.has(RuleId::Ctl407), "{report}");
    }

    #[test]
    fn forged_snapshot_fingerprint_trips_ctl406() {
        // Seeded violation: rebuild the journal with one snapshot's
        // committed fingerprint flipped — CTL406 must localize it.
        let j = snapshotted_journal();
        let mut forged = Journal::new(*j.header());
        let mut forged_seq = None;
        for r in j.records() {
            let entry = match &r.entry {
                JournalEntry::Snapshot { fingerprint } if forged_seq.is_none() => {
                    forged_seq = Some(r.seq);
                    JournalEntry::Snapshot {
                        fingerprint: fingerprint ^ 1,
                    }
                }
                e => e.clone(),
            };
            forged.push(r.at, entry);
        }
        let seq = forged_seq.expect("a snapshot was forged");
        let report = check_journal(&forged);
        let hits = report.by_rule(RuleId::Ctl406);
        assert_eq!(hits.len(), 1, "one forgery, one finding: {report}");
        assert!(matches!(
            hits.first().map(|d| &d.location),
            Some(Location::JournalEntry(s)) if *s == seq
        ));
    }

    #[test]
    fn honest_compaction_passes_and_eaten_record_trips_ctl407() {
        let j = snapshotted_journal();
        let snap_seq = j
            .records()
            .iter()
            .find(|r| matches!(r.entry, JournalEntry::Snapshot { .. }))
            .map(|r| r.seq)
            .expect("snapshot record");

        // Honest compaction to the snapshot watermark is clean.
        let mut compacted = j.clone();
        compacted.compact_to(snap_seq).expect("compacts");
        let mut honest = Report::new();
        check_compaction_watermark(&compacted, &mut honest);
        assert!(honest.is_clean(), "{honest}");

        // Seeded violation: compaction that also ate the watermark
        // snapshot leaves a live (non-snapshot) record at the base.
        let mut hungry = Journal::with_base(*j.header(), snap_seq + 1, 0xdead_beef);
        hungry.push(
            SimTime::ZERO,
            JournalEntry::Admit {
                job: 0,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
        let mut report = Report::new();
        check_compaction_watermark(&hungry, &mut report);
        assert!(report.has(RuleId::Ctl407), "{report}");

        // Seeded violation: everything eaten, watermark included.
        let empty = Journal::with_base(*j.header(), snap_seq + 1, 0xdead_beef);
        let mut report = Report::new();
        check_compaction_watermark(&empty, &mut report);
        assert!(report.has(RuleId::Ctl407), "{report}");
    }

    #[test]
    fn compacted_journal_is_skipped_by_ctl406() {
        let j = snapshotted_journal();
        let snap_seq = j
            .records()
            .iter()
            .find(|r| matches!(r.entry, JournalEntry::Snapshot { .. }))
            .map(|r| r.seq)
            .expect("snapshot record");
        let mut compacted = j.clone();
        compacted.compact_to(snap_seq).expect("compacts");
        let mut report = Report::new();
        check_snapshot_fingerprints(&compacted, &mut report);
        assert!(
            report.is_clean(),
            "delta journals are not audited: {report}"
        );
    }

    #[test]
    fn orphan_rollback_and_unrolled_reject_trip_ctl404() {
        // Rollback with no reject before it.
        let mut j = journal();
        j.push(
            SimTime::ZERO,
            JournalEntry::Rollback {
                job: 2,
                attempt: 0,
                circuits: 1,
            },
        );
        assert!(check_journal(&j).has(RuleId::Ctl404));

        // Reject followed by an unrelated record instead of its rollback.
        let mut k = journal();
        k.push(
            SimTime::ZERO,
            JournalEntry::Reject {
                job: 3,
                shape: Shape3::new(2, 2, 1),
                attempt: 1,
                code: "route/no-disjoint-path",
            },
        );
        k.push(SimTime::from_ps(1), JournalEntry::Evict { job: 9 });
        assert!(check_journal(&k).has(RuleId::Ctl404));

        // Reject as the final record, never rolled back.
        let mut m = journal();
        m.push(
            SimTime::ZERO,
            JournalEntry::Reject {
                job: 5,
                shape: Shape3::new(2, 2, 1),
                attempt: 0,
                code: "route/no-disjoint-path",
            },
        );
        assert!(check_journal(&m).has(RuleId::Ctl404));

        // Mismatched attempt number between the pair.
        let mut n = journal();
        n.push(
            SimTime::ZERO,
            JournalEntry::Reject {
                job: 6,
                shape: Shape3::new(2, 2, 1),
                attempt: 0,
                code: "route/no-disjoint-path",
            },
        );
        n.push(
            SimTime::ZERO,
            JournalEntry::Rollback {
                job: 6,
                attempt: 1,
                circuits: 0,
            },
        );
        assert!(check_journal(&n).has(RuleId::Ctl404));
    }

    /// A pod journal over 2 groups of Z extent 8 (shape 4×4×16) carrying
    /// one well-formed stitch: two 4×4×2 legs on groups 0 and 1, 16-port
    /// rack faces, 16 chip columns per boundary.
    fn stitched_journal() -> Journal {
        let mut j = Journal::new(JournalHeader {
            racks: 4,
            lanes: 2,
            seed: 0,
            shape: Shape3::new(4, 4, 16),
        });
        let legs = vec![
            fabricd::StitchLegRecord {
                leg: 0x8000_0090,
                group: 0,
                origin: Coord3::new(0, 0, 6),
                extent: Shape3::new(4, 4, 2),
            },
            fabricd::StitchLegRecord {
                leg: 0x8000_0091,
                group: 1,
                origin: Coord3::new(0, 0, 8),
                extent: Shape3::new(4, 4, 2),
            },
        ];
        // The legs land as per-group Admit records in their shards...
        for l in &legs {
            j.push(
                SimTime::ZERO,
                JournalEntry::Admit {
                    job: l.leg,
                    origin: l.origin,
                    extent: l.extent,
                },
            );
        }
        // ...and the pod control plane journals the covering stitch.
        j.push(
            SimTime::ZERO,
            JournalEntry::MultiGroupAdmit {
                job: 9,
                extent: Shape3::new(4, 4, 4),
                legs,
                ports: (0..16).collect(),
            },
        );
        j
    }

    #[test]
    fn well_formed_stitch_passes_ctl408() {
        let mut j = stitched_journal();
        let mut live = Report::new();
        check_multi_group_admission(&j, 8, 16, &mut live);
        assert!(live.is_clean(), "{live}");
        // Atomic teardown — both legs evicted — stays clean.
        j.push(
            SimTime::from_ps(1),
            JournalEntry::Evict { job: 0x8000_0090 },
        );
        j.push(
            SimTime::from_ps(1),
            JournalEntry::Evict { job: 0x8000_0091 },
        );
        let mut done = Report::new();
        check_multi_group_admission(&j, 8, 16, &mut done);
        assert!(done.is_clean(), "{done}");
    }

    #[test]
    fn forged_straddling_admit_trips_ctl408() {
        // A pod journal over 2 groups of Z extent 8 (header shape 4×4×16).
        let mut j = Journal::new(JournalHeader {
            racks: 4,
            lanes: 2,
            seed: 0,
            shape: Shape3::new(4, 4, 16),
        });
        // Contained: entirely inside group 0's slab [0, 8), then entirely
        // inside group 1's slab [8, 16).
        for (job, z, e) in [(0, 4, 4), (1, 8, 2)] {
            j.push(
                SimTime::from_ps(job as u64),
                JournalEntry::Admit {
                    job,
                    origin: Coord3::new(0, 0, z),
                    extent: Shape3::new(e, e, e),
                },
            );
        }
        let mut clean = Report::new();
        check_multi_group_admission(&j, 8, 16, &mut clean);
        assert!(clean.is_clean(), "{clean}");

        // An Admit spanning Z [6, 10) with no covering stitch record
        // crosses the boundary at Z=8: no single shard could have
        // programmed it.
        j.push(
            SimTime::from_ps(2),
            JournalEntry::Admit {
                job: 2,
                origin: Coord3::new(0, 0, 6),
                extent: Shape3::new(4, 4, 4),
            },
        );
        let mut report = Report::new();
        check_multi_group_admission(&j, 8, 16, &mut report);
        assert!(report.has(RuleId::Ctl408), "{report}");
        assert_eq!(report.error_count(), 1, "{report}");
        // The straddling record is the one flagged.
        assert!(matches!(
            report.by_rule(RuleId::Ctl408).first().map(|d| &d.location),
            Some(Location::JournalEntry(2))
        ));
    }

    #[test]
    fn forged_stitch_port_trips_ctl408() {
        // Rebuild the stitch with one port off the 16-port rack face.
        let j = stitched_journal();
        let mut forged = Journal::new(*j.header());
        for r in j.records() {
            let entry = match &r.entry {
                JournalEntry::MultiGroupAdmit {
                    job,
                    extent,
                    legs,
                    ports,
                } => {
                    let mut ports = ports.clone();
                    if let Some(p) = ports.last_mut() {
                        *p = 16; // faces have ports 0..16
                    }
                    JournalEntry::MultiGroupAdmit {
                        job: *job,
                        extent: *extent,
                        legs: legs.clone(),
                        ports,
                    }
                }
                e => e.clone(),
            };
            forged.push(r.at, entry);
        }
        let mut report = Report::new();
        check_multi_group_admission(&forged, 8, 16, &mut report);
        assert!(report.has(RuleId::Ctl408), "{report}");
    }

    #[test]
    fn malformed_stitch_records_trip_ctl408() {
        let base = stitched_journal();
        let mutate = |f: &dyn Fn(&mut Vec<StitchLegRecord>, &mut Vec<u32>)| {
            let mut j = Journal::new(*base.header());
            for r in base.records() {
                let entry = match &r.entry {
                    JournalEntry::MultiGroupAdmit {
                        job,
                        extent,
                        legs,
                        ports,
                    } => {
                        let mut legs = legs.clone();
                        let mut ports = ports.clone();
                        f(&mut legs, &mut ports);
                        JournalEntry::MultiGroupAdmit {
                            job: *job,
                            extent: *extent,
                            legs,
                            ports,
                        }
                    }
                    e => e.clone(),
                };
                j.push(r.at, entry);
            }
            let mut report = Report::new();
            check_multi_group_admission(&j, 8, 16, &mut report);
            report
        };
        // One leg only: not a stitch.
        let r = mutate(&|legs, _| {
            legs.truncate(1);
        });
        assert!(r.has(RuleId::Ctl408), "{r}");
        // Non-consecutive groups.
        let r = mutate(&|legs, _| {
            if let Some(l) = legs.last_mut() {
                l.group = 3;
            }
        });
        assert!(r.has(RuleId::Ctl408), "{r}");
        // Legs no longer partition the Z extent.
        let r = mutate(&|legs, _| {
            if let Some(l) = legs.last_mut() {
                l.extent = Shape3::new(4, 4, 1);
            }
        });
        assert!(r.has(RuleId::Ctl408), "{r}");
        // Port count disagrees with the boundary cross-section.
        let r = mutate(&|_, ports| {
            ports.pop();
        });
        assert!(r.has(RuleId::Ctl408), "{r}");
        // Duplicate port within a boundary.
        let r = mutate(&|_, ports| {
            let first = ports.first().copied();
            if let (Some(first), Some(last)) = (first, ports.last_mut()) {
                *last = first;
            }
        });
        assert!(r.has(RuleId::Ctl408), "{r}");
    }

    #[test]
    fn partial_stitch_teardown_trips_ctl408() {
        let mut j = stitched_journal();
        j.push(
            SimTime::from_ps(1),
            JournalEntry::Evict { job: 0x8000_0090 },
        );
        let mut report = Report::new();
        check_multi_group_admission(&j, 8, 16, &mut report);
        assert!(report.has(RuleId::Ctl408), "{report}");
        let msgs = report.render();
        assert!(msgs.contains("non-atomically"), "{msgs}");
    }
}
