//! Compiler-style diagnostics: rule identity, severity, source location,
//! message, and fix hint, collected into a [`Report`].
//!
//! Every rule in the catalog has a stable [`RuleId`] so violations can be
//! matched programmatically (the mutation tests assert on ids).

use lightpath::{EdgeId, TileCoord, WaferId};
use std::fmt;
use topo::DirLink;

/// Stable identifier of one rule in the catalog.
///
/// The numbering groups rules by the artifact they analyze:
///
/// * `SCH0xx` — transfer schedules ([`crate::schedule_rules`])
/// * `CKT1xx` — circuit allocations on a wafer ([`crate::circuit_rules`])
/// * `PHY2xx` — physical-layer link budgets ([`crate::circuit_rules`])
/// * `RES3xx` — repair blast radius ([`crate::blast_rules`])
/// * `CTL4xx` — control-plane journals ([`crate::ctrl_rules`])
/// * `RTE5xx` — stamped-plan admission audits ([`crate::plan_rules`])
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// A round oversubscribes a directed electrical link (load > 1).
    Sch001,
    /// A participant's total sent bytes contradict the collective's
    /// closed-form (byte conservation).
    Sch002,
    /// A transfer is non-physical: self-loop, non-positive or non-finite
    /// bytes, or an endpoint outside the rack.
    Sch003,
    /// An electrical transfer's hop path is discontinuous or does not
    /// connect its stated endpoints.
    Sch004,
    /// Waveguide-bus accounting broken: an edge over capacity, or the
    /// wafer's usage ledger disagrees with the live circuits.
    Ckt101,
    /// A tile's claimed SerDes lanes exceed its pool (λ > 16), or a circuit
    /// carries an empty λ-set.
    Ckt102,
    /// Two circuits claim overlapping wavelengths at a shared endpoint
    /// transceiver (λ-disjointness).
    Ckt103,
    /// A circuit's link budget does not close, or closes with thin margin.
    Phy201,
    /// A repair circuit terminates on a tile owned by a healthy slice
    /// (blast radius escapes the failed chip's neighbourhood).
    Res301,
    /// A journaled admission oversubscribes slice capacity: the slice
    /// overlaps a live tenant, leaves the cluster, or reuses a live job id.
    Ctl401,
    /// A journaled repair (successful or failed) references an incident no
    /// prior `Fail` record introduced, or one without a victim tenant.
    Ctl402,
    /// A journaled `Reject` carries a reason code outside the workspace
    /// fault-code registry (`lightpath::fault::CODES`).
    Ctl403,
    /// A journaled `Rollback` has no originating `Reject` for the same job
    /// and attempt immediately pending, or a `Reject` was never rolled
    /// back.
    Ctl404,
    /// A journaled `Snapshot` record's committed fingerprint disagrees
    /// with the fingerprint of the state replayed from the records before
    /// it — the snapshot does not describe the state it claims to.
    Ctl406,
    /// A compacted journal's watermark is corrupt: the first retained
    /// record is not the `Snapshot` record at `base_seq`, or retained
    /// sequence numbers are not dense — compaction ate a live record.
    Ctl407,
    /// A cross-group admission is malformed: a single-group `Admit`
    /// straddles a shard boundary without a covering `MultiGroupAdmit`,
    /// a stitch record's legs fail to partition its extent over
    /// consecutive groups, a stitch port falls outside the rack-face
    /// OCS bank, or a stitched job's legs were torn down non-atomically.
    Ctl408,
    /// A stamped plan's boundary contract contradicts the wafer it landed
    /// on: a claimed border bus fabricates a different stitch loss than
    /// the plan's link budgets were compiled with, or was already
    /// occupied when the stamp landed.
    Rte501,
}

impl RuleId {
    /// Every rule, in catalog order.
    pub const ALL: [RuleId; 17] = [
        RuleId::Sch001,
        RuleId::Sch002,
        RuleId::Sch003,
        RuleId::Sch004,
        RuleId::Ckt101,
        RuleId::Ckt102,
        RuleId::Ckt103,
        RuleId::Phy201,
        RuleId::Res301,
        RuleId::Ctl401,
        RuleId::Ctl402,
        RuleId::Ctl403,
        RuleId::Ctl404,
        RuleId::Ctl406,
        RuleId::Ctl407,
        RuleId::Ctl408,
        RuleId::Rte501,
    ];

    /// The stable code printed in diagnostics, e.g. `SCH001`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Sch001 => "SCH001",
            RuleId::Sch002 => "SCH002",
            RuleId::Sch003 => "SCH003",
            RuleId::Sch004 => "SCH004",
            RuleId::Ckt101 => "CKT101",
            RuleId::Ckt102 => "CKT102",
            RuleId::Ckt103 => "CKT103",
            RuleId::Phy201 => "PHY201",
            RuleId::Res301 => "RES301",
            RuleId::Ctl401 => "CTL401",
            RuleId::Ctl402 => "CTL402",
            RuleId::Ctl403 => "CTL403",
            RuleId::Ctl404 => "CTL404",
            RuleId::Ctl406 => "CTL406",
            RuleId::Ctl407 => "CTL407",
            RuleId::Ctl408 => "CTL408",
            RuleId::Rte501 => "RTE501",
        }
    }

    /// One-line summary shown by `cargo xtask catalog`.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::Sch001 => "round oversubscribes a directed electrical link",
            RuleId::Sch002 => "per-chip sent bytes contradict the collective's closed form",
            RuleId::Sch003 => "non-physical transfer (self-loop, bad bytes, out of rack)",
            RuleId::Sch004 => "electrical hop path discontinuous or mismatched endpoints",
            RuleId::Ckt101 => "waveguide edge over capacity or usage ledger inconsistent",
            RuleId::Ckt102 => "tile SerDes lane conservation violated (>16 λ claimed)",
            RuleId::Ckt103 => "overlapping wavelengths claimed at a shared transceiver",
            RuleId::Phy201 => "link budget does not close or margin below lint floor",
            RuleId::Res301 => "repair circuit touches a tile owned by a healthy slice",
            RuleId::Ctl401 => "journaled admission oversubscribes slice capacity",
            RuleId::Ctl402 => "journaled repair references an unknown incident",
            RuleId::Ctl403 => "journaled rejection carries an unregistered reason code",
            RuleId::Ctl404 => "journaled rollback unpaired with its originating reject",
            RuleId::Ctl406 => "journaled snapshot fingerprint contradicts the replayed state",
            RuleId::Ctl407 => "compaction watermark corrupt: a live record was truncated",
            RuleId::Ctl408 => "cross-group admission malformed or torn down non-atomically",
            RuleId::Rte501 => "stamped plan's boundary contract contradicts the landing wafer",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not a correctness violation (e.g. thin margin).
    Warning,
    /// An invariant of the model is violated.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where in the analyzed artifact a finding points.
#[derive(Debug, Clone, PartialEq)]
pub enum Location {
    /// The whole schedule.
    Schedule,
    /// One round, by index.
    Round(usize),
    /// One transfer within a round.
    Transfer {
        /// Round index.
        round: usize,
        /// Transfer index within the round.
        index: usize,
    },
    /// A directed electrical link within a round.
    Link {
        /// Round index.
        round: usize,
        /// The oversubscribed link.
        link: DirLink,
    },
    /// A chip participating in a collective.
    Chip(topo::Coord3),
    /// A circuit on a wafer, by its display id.
    Circuit {
        /// Owning wafer, when analyzing a fabric (`None` for a lone wafer).
        wafer: Option<WaferId>,
        /// The circuit's id as rendered by [`lightpath::CircuitId`].
        circuit: String,
    },
    /// A tile transceiver.
    Tile {
        /// Owning wafer, when analyzing a fabric.
        wafer: Option<WaferId>,
        /// The tile.
        tile: TileCoord,
    },
    /// A waveguide-bus edge between two tiles.
    Edge {
        /// Owning wafer, when analyzing a fabric.
        wafer: Option<WaferId>,
        /// The edge.
        edge: EdgeId,
    },
    /// A control-plane journal record, by sequence number.
    JournalEntry(u64),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn wafer_prefix(w: &Option<WaferId>) -> String {
            match w {
                Some(id) => format!("wafer {}, ", id.0),
                None => String::new(),
            }
        }
        match self {
            Location::Schedule => write!(f, "schedule"),
            Location::Round(r) => write!(f, "round {r}"),
            Location::Transfer { round, index } => {
                write!(f, "round {round}, transfer {index}")
            }
            Location::Link { round, link } => write!(f, "round {round}, link {link}"),
            Location::Chip(c) => write!(f, "chip {c}"),
            Location::Circuit { wafer, circuit } => {
                write!(f, "{}circuit {}", wafer_prefix(wafer), circuit)
            }
            Location::Tile { wafer, tile } => {
                write!(f, "{}tile {}", wafer_prefix(wafer), tile)
            }
            Location::Edge { wafer, edge } => {
                let (a, b) = edge.endpoints();
                write!(f, "{}edge {}–{}", wafer_prefix(wafer), a, b)
            }
            Location::JournalEntry(seq) => write!(f, "journal seq {seq}"),
        }
    }
}

/// One finding: rule, severity, location, message, and an optional fix hint.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleId,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub location: Location,
    /// What is wrong, with the numbers that prove it.
    pub message: String,
    /// How to fix it, when a remedy is known.
    pub hint: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] at {}: {}",
            self.severity, self.rule, self.location, self.message
        )?;
        if let Some(h) = &self.hint {
            write!(f, "\n  hint: {h}")?;
        }
        Ok(())
    }
}

/// An ordered collection of findings from one or more rules.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Findings in rule-execution order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Report::default()
    }

    /// Record a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Append all of `other`'s findings after this report's.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when nothing was found at any severity.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// True when at least one finding carries `rule`.
    pub fn has(&self, rule: RuleId) -> bool {
        self.diagnostics.iter().any(|d| d.rule == rule)
    }

    /// Findings carrying `rule`.
    pub fn by_rule(&self, rule: RuleId) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.rule == rule).collect()
    }

    /// Render every finding, one per line (with hints indented under them).
    pub fn render(&self) -> String {
        self.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean")
        } else {
            f.write_str(&self.render())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let codes: Vec<_> = RuleId::ALL.iter().map(|r| r.code()).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
        assert_eq!(RuleId::Sch001.code(), "SCH001");
        assert_eq!(RuleId::Res301.code(), "RES301");
    }

    #[test]
    fn rendering_includes_rule_location_and_hint() {
        let d = Diagnostic {
            rule: RuleId::Ckt102,
            severity: Severity::Error,
            location: Location::Tile {
                wafer: None,
                tile: TileCoord::new(1, 2),
            },
            message: "17 λ claimed, pool has 16".into(),
            hint: Some("split the circuit across two tiles".into()),
        };
        let s = d.to_string();
        assert!(s.contains("error[CKT102]"), "{s}");
        assert!(s.contains("tile"), "{s}");
        assert!(s.contains("hint:"), "{s}");
    }

    #[test]
    fn report_queries() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic {
            rule: RuleId::Sch001,
            severity: Severity::Error,
            location: Location::Round(2),
            message: "load 3".into(),
            hint: None,
        });
        r.push(Diagnostic {
            rule: RuleId::Phy201,
            severity: Severity::Warning,
            location: Location::Schedule,
            message: "thin margin".into(),
            hint: None,
        });
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert!(r.has(RuleId::Sch001));
        assert!(!r.has(RuleId::Res301));
        assert_eq!(r.by_rule(RuleId::Phy201).len(), 1);
    }
}
