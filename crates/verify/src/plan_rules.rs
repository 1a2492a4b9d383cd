//! RTE501: stamped-plan boundary contracts match the landing wafer.
//!
//! The plan library admits a batch by *stamping* a captured instance —
//! collision-check, establish over cached link budgets — instead of
//! re-running A* and the link-budget evaluator. That fast path is only
//! sound if the contract the plan was compiled against still describes the
//! wafer it lands on: every claimed border waveguide must carry exactly the
//! stitch loss the budget was computed with, and must have been unoccupied
//! when the stamp landed. Each stamp appends a [`StampRecord`] reading both
//! sides of that contract at admission time; this rule re-checks the trail
//! offline, bit for bit.

use crate::diag::{Diagnostic, Location, Report, RuleId, Severity};
use lightpath::TileCoord;
use route::StampAudit;

/// RTE501 — every audited stamp's boundary contract must match what the
/// wafer presented: observed stitch loss bit-equal to the budgeted value,
/// and zero waveguides already in use on each claimed border bus.
pub fn check_stamp_audit(audit: &StampAudit) -> Report {
    let mut report = Report::new();
    for (i, rec) in audit.records.iter().enumerate() {
        for edge in &rec.edges {
            let a = TileCoord::new(edge.a.0, edge.a.1);
            let b = TileCoord::new(edge.b.0, edge.b.1);
            if edge.observed_stitch_db.to_bits() != edge.expected_stitch_db.to_bits() {
                report.push(Diagnostic {
                    rule: RuleId::Rte501,
                    severity: Severity::Error,
                    location: Location::Tile {
                        wafer: None,
                        tile: a,
                    },
                    message: format!(
                        "stamp {i} at origin ({}, {}): border {a}–{b} budgeted at \
                         {} dB stitch loss but the wafer fabricates {} dB",
                        rec.origin.0,
                        rec.origin.1,
                        edge.expected_stitch_db,
                        edge.observed_stitch_db
                    ),
                    hint: Some(
                        "the plan's link budgets were compiled against a different stitch \
                         map; invalidate the library for this wafer configuration"
                            .into(),
                    ),
                });
            }
            if edge.pre_load != 0 {
                report.push(Diagnostic {
                    rule: RuleId::Rte501,
                    severity: Severity::Error,
                    location: Location::Tile {
                        wafer: None,
                        tile: a,
                    },
                    message: format!(
                        "stamp {i} at origin ({}, {}): border bus {a}–{b} already carried \
                         {} waveguide(s) when the stamp landed",
                        rec.origin.0, rec.origin.1, edge.pre_load
                    ),
                    hint: Some(
                        "the occupancy guard must prove every claimed edge unloaded \
                         before stamping; fall back to fresh routing here"
                            .into(),
                    ),
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use route::{AuditEdge, StampRecord};

    fn clean_edge() -> AuditEdge {
        AuditEdge {
            a: (0, 0),
            b: (0, 1),
            expected_stitch_db: 0.25,
            observed_stitch_db: 0.25,
            pre_load: 0,
        }
    }

    #[test]
    fn faithful_audit_is_clean() {
        let audit = StampAudit {
            records: vec![StampRecord {
                origin: (0, 0),
                edges: vec![clean_edge()],
            }],
        };
        assert!(check_stamp_audit(&audit).is_clean());
    }

    #[test]
    fn forged_stitch_loss_trips_rte501() {
        let mut edge = clean_edge();
        edge.observed_stitch_db = 0.25 + f64::EPSILON;
        let audit = StampAudit {
            records: vec![StampRecord {
                origin: (2, 3),
                edges: vec![edge],
            }],
        };
        let report = check_stamp_audit(&audit);
        assert!(report.has(RuleId::Rte501));
        assert_eq!(report.error_count(), 1);
    }

    #[test]
    fn occupied_border_bus_trips_rte501() {
        let mut edge = clean_edge();
        edge.pre_load = 3;
        let audit = StampAudit {
            records: vec![StampRecord {
                origin: (1, 1),
                edges: vec![edge],
            }],
        };
        let report = check_stamp_audit(&audit);
        assert!(report.has(RuleId::Rte501));
        assert!(report.render().contains("3 waveguide(s)"));
    }

    #[test]
    fn empty_audit_is_clean() {
        assert!(check_stamp_audit(&StampAudit::default()).is_clean());
    }
}
