//! # verify — static invariant verifier for schedules and circuits
//!
//! A compiler-style analysis layer over the workspace's two executable
//! artifact kinds: collective transfer [`collectives::Schedule`]s and
//! photonic circuit allocations ([`lightpath::Wafer`] /
//! [`lightpath::Fabric`]). Nothing is
//! executed — every rule is a pure fold over the artifact — so the
//! verifier can gate experiments before they run and audit states after.
//!
//! ## Rule catalog
//!
//! | id     | artifact  | invariant |
//! |--------|-----------|-----------|
//! | SCH001 | schedule  | no directed electrical link carries >1 simultaneous transfer |
//! | SCH002 | schedule  | per-chip sent bytes equal the collective's closed form |
//! | SCH003 | schedule  | transfers are physical (no self-loops, bad sizes, stray chips) |
//! | SCH004 | schedule  | electrical hop paths chain contiguously src → dst |
//! | CKT101 | circuits  | waveguide edges within capacity, ledger consistent |
//! | CKT102 | circuits  | per-tile SerDes lanes conserved (≤16 λ each way) |
//! | CKT103 | circuits  | λ-sets disjoint at shared transmitters |
//! | PHY201 | circuits  | link budgets close, margins above the lint floor |
//! | RES301 | repair    | repair circuits terminate only on victim/free tiles |
//! | CTL401 | journal   | journaled admissions never oversubscribe slice capacity |
//! | CTL402 | journal   | every journaled repair references an earlier Fail record |
//! | CTL403 | journal   | journaled rejections carry registered fault-taxonomy codes |
//! | CTL404 | journal   | every Rollback pairs adjacently with its originating Reject |
//! | CTL406 | journal   | journaled snapshot fingerprints match the replayed state |
//! | CTL407 | journal   | compaction watermarks retain every live record |
//! | CTL408 | journal   | cross-group stitches are well-formed and torn down atomically |
//! | RTE501 | stamps    | stamped-plan boundary contracts match the landing wafer |
//!
//! Diagnostics are structured ([`Diagnostic`]: rule id, severity,
//! location, message, fix hint) so callers — the tests in `tests/`, and
//! the fabricd and pod suites — can assert on exactly which rule fired
//! where. Circuit rules run over
//! [`WaferView`] snapshots; the seeded-violation tests corrupt a view in
//! ways live admission control would refuse, proving each rule fires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blast_rules;
pub mod circuit_rules;
pub mod ctrl_rules;
pub mod diag;
pub mod plan_rules;
pub mod schedule_rules;

pub use blast_rules::{
    check_blast_radius, check_repair_fabric, endpoint_claims, EndpointClaim, TileOwnership,
};
pub use circuit_rules::{
    check_lambda_disjointness, check_lane_conservation, check_link_budgets, check_wafer_view,
    check_waveguide_conservation, CircuitView, PhyLintConfig, WaferView,
};
pub use ctrl_rules::{
    check_admission_capacity, check_journal, check_multi_group_admission, check_rejection_codes,
    check_repair_references, check_rollback_pairing,
};
pub use diag::{Diagnostic, Location, Report, RuleId, Severity};
pub use plan_rules::check_stamp_audit;
pub use schedule_rules::{
    check_byte_conservation, check_oversubscription, check_path_continuity,
    check_physical_transfers, check_schedule, CollectiveSpec, ScheduleContext,
};

use lightpath::{Fabric, Wafer, WaferId};

/// Analyze every circuit on a live wafer (CKT101–CKT103, PHY201).
pub fn check_wafer(wafer: &Wafer) -> Report {
    check_wafer_view(&WaferView::of(wafer, None))
}

/// Analyze every wafer of a fabric, tagging findings with wafer ids.
pub fn check_fabric(fabric: &Fabric) -> Report {
    let mut report = Report::new();
    for w in 0..fabric.wafer_count() {
        let id = WaferId(w);
        report.merge(check_wafer_view(&WaferView::of(fabric.wafer(id), Some(id))));
    }
    report
}
