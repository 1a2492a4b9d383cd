//! Append-only command journal.
//!
//! Every decision the control plane takes — admit, deny, program,
//! reconfigure, fail, repair, evict — is recorded here in execution order.
//! The journal is the system of record for two properties the paper's
//! control story needs:
//!
//! 1. **Determinism**: two runs from the same seed must take byte-identical
//!    decision sequences, so the journal carries a canonical encoding and a
//!    64-bit FNV-1a [`Journal::hash`] over it.
//! 2. **Replayability**: the journal holds enough information (header seed
//!    and geometry, plus per-entry slice placements and spare choices) to
//!    rebuild the final fabric state on a fresh wafer — see
//!    [`crate::state::replay`].
//!
//! Entries are never mutated or removed; [`Journal::push`] assigns
//! monotonic sequence numbers. [`Journal::to_json`] dumps the whole log as
//! hand-rolled JSON (the workspace is offline and carries no serde).

use desim::fnv::Fnv;
use desim::SimTime;
use topo::{Coord3, Shape3};

/// Immutable run parameters recorded at journal creation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// TPUv4 racks in the photonic fabric (16 servers each).
    pub racks: usize,
    /// Wavelength lanes per tenant ring circuit.
    pub lanes: usize,
    /// Arrival-stream seed.
    pub seed: u64,
    /// Chip-grid shape of the cluster the journal's slices live in.
    pub shape: Shape3,
}

/// Why an admission was denied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenyReason {
    /// The job waited in the admission queue past its deadline without a
    /// slice ever becoming free.
    QueueTimeout,
    /// A slice was free but its ring circuits could not be programmed
    /// (waveguide, lane, or fiber exhaustion); the slice was released.
    ProgramFailed,
}

impl DenyReason {
    fn canon(self) -> &'static str {
        match self {
            DenyReason::QueueTimeout => "timeout",
            DenyReason::ProgramFailed => "program-failed",
        }
    }
}

/// One journaled control-plane decision.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A job was granted the slice at `origin` with `extent`.
    Admit {
        /// Job id (doubles as the slice id).
        job: u32,
        /// Slice origin chip.
        origin: Coord3,
        /// Slice extent.
        extent: Shape3,
    },
    /// A job was turned away.
    Deny {
        /// Job id.
        job: u32,
        /// The shape it asked for (needed to replay failed programming).
        shape: Shape3,
        /// Why.
        reason: DenyReason,
    },
    /// The job's ring circuits were programmed atomically.
    Program {
        /// Job id.
        job: u32,
        /// Circuits established (intra-wafer + cross-wafer).
        circuits: usize,
        /// Per-wafer edge-disjoint batches executed.
        batches: usize,
        /// Cross-wafer circuits established.
        cross: usize,
    },
    /// The MZI mesh settled after a programming batch.
    Reconfigure {
        /// Job whose circuits triggered the reconfiguration.
        job: u32,
        /// Settling time, microseconds (3.7 µs per the paper).
        micros: f64,
    },
    /// A chip failed; its terminating circuits were spliced out.
    Fail {
        /// Incident id (dense, starting at 0).
        incident: u64,
        /// The failed chip.
        chip: Coord3,
        /// The tenant owning the chip, if any.
        victim: Option<u32>,
        /// Circuits torn down because they terminated on the failed chip.
        spliced: usize,
    },
    /// An incident was repaired by splicing in a spare chip optically.
    Repair {
        /// The incident being repaired (must be journaled earlier).
        incident: u64,
        /// The spare chip spliced in.
        replacement: Coord3,
        /// Repair circuits established.
        circuits: usize,
        /// Servers whose wafers terminate repair circuits.
        servers_touched: usize,
        /// Servers whose *tenant* chips were disturbed — the paper's blast
        /// radius (1: only the failed chip's own server).
        blast_servers: usize,
    },
    /// A repair was attempted and rolled back.
    RepairFailed {
        /// The incident (must be journaled earlier).
        incident: u64,
        /// The spare that could not be spliced in.
        replacement: Coord3,
        /// The circuit error, rendered.
        error: String,
    },
    /// A non-final programming attempt was rejected: the plan was
    /// infeasible or conflicted with live circuits, the slice was released,
    /// and the job re-enters the retry queue with bounded backoff. `code`
    /// is the machine-readable root-cause reason (see
    /// `lightpath::fault::CODES`; audited by verify CTL403).
    Reject {
        /// Job id.
        job: u32,
        /// The shape it asked for (needed to replay the failed attempt).
        shape: Shape3,
        /// Zero-based attempt number (0 = first try).
        attempt: u32,
        /// Machine-readable reason code of the root cause.
        code: &'static str,
    },
    /// The partial circuits of a rejected attempt were rolled back
    /// atomically. Always paired with the immediately preceding `Reject`
    /// for the same job and attempt (audited by verify CTL404).
    Rollback {
        /// Job id.
        job: u32,
        /// Attempt number, matching the originating `Reject`.
        attempt: u32,
        /// Circuits that had been established and were torn down.
        circuits: usize,
    },
    /// A job departed; its circuits and slice were released.
    Evict {
        /// Job id.
        job: u32,
    },
    /// A canonical state snapshot was captured. The fingerprint commits to
    /// the full control-plane state *after* applying every record with a
    /// smaller sequence number; delta replay restores the serialized state
    /// stored alongside the journal and folds only records above this
    /// record's `seq`. Replay verifies the fingerprint at every snapshot
    /// record it crosses (audited by verify CTL406), and compaction may
    /// truncate strictly below it (audited by CTL407).
    Snapshot {
        /// FNV-1a fingerprint of the canonical state serialization.
        fingerprint: u64,
    },
    /// A pod-level cross-group admission: one job split into per-group
    /// legs stitched over the rack-face OCS banks. The legs' `Admit`
    /// records appear separately (each in-band of its group); this record
    /// binds them into one atomic admission and carries the stitch-port
    /// assignment on every crossed rack face. Pod-journal only — domain
    /// replay treats it as a no-op (audited by verify CTL408).
    MultiGroupAdmit {
        /// Pod-global job id.
        job: u32,
        /// The job's requested extent (legs partition its Z axis).
        extent: Shape3,
        /// Per-group legs, in consecutive ascending group order.
        legs: Vec<StitchLegRecord>,
        /// Stitch-port assignments, boundary-major: for each of the
        /// `legs.len() - 1` crossed rack faces, one port index per chip
        /// of the job's X×Y cross-section.
        ports: Vec<u32>,
    },
}

/// High bit of every stitch-leg slice id. Leg ids live in this namespace
/// (`LEG_ID_BIT | job << 4 | leg_index`) so they can never collide with
/// trace job ids in the journal or the occupancy map; a departing leg is
/// counted as `stitch.legs.departed`, never as `jobs.departed`.
pub const LEG_ID_BIT: u32 = 0x8000_0000;

/// One leg of a [`JournalEntry::MultiGroupAdmit`], in pod coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StitchLegRecord {
    /// Leg slice id (high-bit namespaced; never a trace job id).
    pub leg: u32,
    /// Rack group the leg landed in.
    pub group: u64,
    /// Leg origin, pod coordinates.
    pub origin: Coord3,
    /// Leg extent (same X/Y as the job, a Z-slab of its extent).
    pub extent: Shape3,
}

impl StitchLegRecord {
    fn canon(&self) -> String {
        format!(
            "{}@g{}:{}+{}",
            self.leg, self.group, self.origin, self.extent
        )
    }
}

impl JournalEntry {
    fn canon(&self) -> String {
        match self {
            JournalEntry::Admit {
                job,
                origin,
                extent,
            } => {
                format!("admit job={job} origin={origin} extent={extent}")
            }
            JournalEntry::Deny { job, shape, reason } => {
                format!("deny job={job} shape={shape} reason={}", reason.canon())
            }
            JournalEntry::Program {
                job,
                circuits,
                batches,
                cross,
            } => {
                format!("program job={job} circuits={circuits} batches={batches} cross={cross}")
            }
            JournalEntry::Reconfigure { job, micros } => {
                format!("reconfigure job={job} micros={micros:.3}")
            }
            JournalEntry::Fail {
                incident,
                chip,
                victim,
                spliced,
            } => {
                let v = victim.map_or("-".to_string(), |v| v.to_string());
                format!("fail incident={incident} chip={chip} victim={v} spliced={spliced}")
            }
            JournalEntry::Repair {
                incident,
                replacement,
                circuits,
                servers_touched,
                blast_servers,
            } => format!(
                "repair incident={incident} replacement={replacement} circuits={circuits} \
                 servers={servers_touched} blast={blast_servers}"
            ),
            JournalEntry::RepairFailed {
                incident,
                replacement,
                error,
            } => {
                format!("repair-failed incident={incident} replacement={replacement} error={error}")
            }
            JournalEntry::Reject {
                job,
                shape,
                attempt,
                code,
            } => {
                format!("reject job={job} shape={shape} attempt={attempt} code={code}")
            }
            JournalEntry::Rollback {
                job,
                attempt,
                circuits,
            } => {
                format!("rollback job={job} attempt={attempt} circuits={circuits}")
            }
            JournalEntry::Evict { job } => format!("evict job={job}"),
            JournalEntry::Snapshot { fingerprint } => {
                format!("snapshot fingerprint={fingerprint:#018x}")
            }
            JournalEntry::MultiGroupAdmit {
                job,
                extent,
                legs,
                ports,
            } => {
                let legs: Vec<String> = legs.iter().map(|l| l.canon()).collect();
                let ports: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
                format!(
                    "multi-admit job={job} extent={extent} legs=[{}] ports=[{}]",
                    legs.join(";"),
                    ports.join(",")
                )
            }
        }
    }

    /// The record kind's canonical name (the first token of its canon line).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEntry::Admit { .. } => "admit",
            JournalEntry::Deny { .. } => "deny",
            JournalEntry::Program { .. } => "program",
            JournalEntry::Reconfigure { .. } => "reconfigure",
            JournalEntry::Fail { .. } => "fail",
            JournalEntry::Repair { .. } => "repair",
            JournalEntry::RepairFailed { .. } => "repair-failed",
            JournalEntry::Reject { .. } => "reject",
            JournalEntry::Rollback { .. } => "rollback",
            JournalEntry::Evict { .. } => "evict",
            JournalEntry::Snapshot { .. } => "snapshot",
            JournalEntry::MultiGroupAdmit { .. } => "multi-admit",
        }
    }
}

/// One record: a sequence number, the simulated instant, and the decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Monotonic sequence number, dense from 0.
    pub seq: u64,
    /// When the decision was taken.
    pub at: SimTime,
    /// The decision.
    pub entry: JournalEntry,
}

impl Record {
    /// Canonical single-line encoding; hashing and goldens key off this.
    pub fn canon(&self) -> String {
        format!(
            "seq={} t={}ps {}",
            self.seq,
            self.at.as_ps(),
            self.entry.canon()
        )
    }
}

/// The append-only command journal.
///
/// A journal is logically the full record stream from sequence 0; after
/// [`compact_to`](Journal::compact_to) (or when resumed from a snapshot via
/// [`with_base`](Journal::with_base)) only the tail above the snapshot
/// watermark is *retained*, with the hash contribution of the truncated
/// prefix folded into `base_fnv`. [`hash`](Journal::hash) and
/// [`len`](Journal::len) therefore report identical values before and
/// after compaction — truncation is a storage optimization, never an
/// observable history rewrite.
///
/// A private hash cursor `(sealed_seq, sealed_fnv)` holds the fold over
/// the header and every record below `sealed_seq`
/// (`base_seq <= sealed_seq <= next_seq`). [`seal`](Journal::seal)
/// advances it to the end of the journal, so [`hash`](Journal::hash) only
/// folds records appended since the last seal. The cursor is pure
/// bookkeeping: it never changes a hash and is ignored by equality.
#[derive(Debug, Clone)]
pub struct Journal {
    header: JournalHeader,
    records: Vec<Record>,
    /// Sequence number of the first retained record (0 = nothing
    /// compacted; the full history is present).
    base_seq: u64,
    /// Running FNV-1a state over the canonical header plus every
    /// compacted-away record, i.e. the hash fold up to (but excluding)
    /// record `base_seq`.
    base_fnv: u64,
    /// First record not yet folded into `sealed_fnv`.
    sealed_seq: u64,
    /// The hash fold up to (but excluding) record `sealed_seq`.
    sealed_fnv: u64,
}

impl PartialEq for Journal {
    /// Equal history, however often either journal was sealed.
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && self.records == other.records
            && self.base_seq == other.base_seq
            && self.base_fnv == other.base_fnv
    }
}

/// The header's canonical line (the first hash-fold contribution).
fn canon_header(h: &JournalHeader) -> String {
    format!(
        "journal racks={} lanes={} seed={} shape={}",
        h.racks, h.lanes, h.seed, h.shape
    )
}

/// Continue the hash fold at `fnv` over `records`: a newline, then each
/// record's canonical line.
fn fold<'a>(fnv: u64, records: impl IntoIterator<Item = &'a Record>) -> u64 {
    let mut h = Fnv::from_state(fnv);
    for r in records {
        h.write_bytes(b"\n").write_bytes(r.canon().as_bytes());
    }
    h.finish()
}

impl Journal {
    /// An empty journal for a run described by `header`.
    pub fn new(header: JournalHeader) -> Self {
        let base_fnv = Fnv::new()
            .write_bytes(canon_header(&header).as_bytes())
            .finish();
        Self::with_base(header, 0, base_fnv)
    }

    /// A journal resuming at sequence `base_seq` with the hash fold of the
    /// (absent) prefix already at `base_fnv` — the crash-restart
    /// constructor. A run resumed this way appends records at exactly the
    /// sequence numbers and hash-chain positions the uninterrupted run
    /// would have used, so its final [`hash`](Self::hash) is bit-identical
    /// to an uninterrupted run's.
    pub fn with_base(header: JournalHeader, base_seq: u64, base_fnv: u64) -> Self {
        Journal {
            header,
            records: Vec::new(),
            base_seq,
            base_fnv,
            sealed_seq: base_seq,
            sealed_fnv: base_fnv,
        }
    }

    /// The run parameters.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Sequence number of the first retained record; 0 when the full
    /// history is present.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The hash fold over the canonical header and all records below
    /// [`base_seq`](Self::base_seq).
    pub fn base_fnv(&self) -> u64 {
        self.base_fnv
    }

    /// Sequence number the next [`push`](Self::push) will assign.
    pub fn next_seq(&self) -> u64 {
        self.base_seq + self.records.len() as u64
    }

    /// Append a decision at simulated instant `at`; returns its sequence
    /// number.
    pub fn push(&mut self, at: SimTime, entry: JournalEntry) -> u64 {
        let seq = self.next_seq();
        self.records.push(Record { seq, at, entry });
        seq
    }

    /// Retained records, in append order. After compaction this is the
    /// tail from [`base_seq`](Self::base_seq) on.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// *Logical* number of records, counting compacted-away ones — the
    /// value is invariant under [`compact_to`](Self::compact_to), so
    /// fingerprints built over `len()` survive compaction.
    pub fn len(&self) -> usize {
        self.base_seq as usize + self.records.len()
    }

    /// True when nothing has been journaled (including before the base).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained records from sequence `seq` on (`seq >= base_seq`).
    fn records_from(&self, seq: u64) -> impl Iterator<Item = &Record> {
        self.records.iter().skip((seq - self.base_seq) as usize)
    }

    /// Drop every retained record with `seq < watermark`, folding its hash
    /// contribution into the base so [`hash`](Self::hash) and
    /// [`len`](Self::len) are unchanged. Downward-only and audited: the
    /// watermark must land exactly on a retained [`JournalEntry::Snapshot`]
    /// record (which becomes the first retained record), because records
    /// above a snapshot are still needed for delta replay and must never be
    /// eaten. Returns the number of records dropped.
    ///
    /// The new base fold starts from the hash cursor when the watermark is
    /// at or above it — free when compacting right after a capture sealed
    /// the journal — and from the old base otherwise.
    pub fn compact_to(&mut self, watermark: u64) -> Result<usize, String> {
        if watermark < self.base_seq {
            return Err(format!(
                "compact_to: watermark {watermark} below base_seq {} (compaction is downward-only)",
                self.base_seq
            ));
        }
        let keep_from = (watermark - self.base_seq) as usize;
        if keep_from > self.records.len() {
            return Err(format!(
                "compact_to: watermark {watermark} beyond next_seq {}",
                self.next_seq()
            ));
        }
        match self.records.get(keep_from) {
            Some(Record {
                entry: JournalEntry::Snapshot { .. },
                ..
            }) => {}
            _ => {
                return Err(format!(
                    "compact_to: watermark {watermark} is not a snapshot record"
                ));
            }
        }
        let (from_seq, from_fnv) = if watermark >= self.sealed_seq {
            (self.sealed_seq, self.sealed_fnv)
        } else {
            (self.base_seq, self.base_fnv)
        };
        let span = (watermark - from_seq) as usize;
        self.base_fnv = fold(from_fnv, self.records_from(from_seq).take(span));
        self.records.drain(..keep_from);
        self.base_seq = watermark;
        if self.sealed_seq < watermark {
            self.sealed_seq = watermark;
            self.sealed_fnv = self.base_fnv;
        }
        Ok(keep_from)
    }

    /// 64-bit FNV-1a over the canonical encoding of the header and every
    /// record (compacted-away ones included, via the folded base state).
    /// Two runs are decision-identical iff their hashes agree. Folds only
    /// the records appended since the last [`seal`](Self::seal).
    pub fn hash(&self) -> u64 {
        fold(self.sealed_fnv, self.records_from(self.sealed_seq))
    }

    /// [`hash`](Self::hash), advancing the hash cursor to the end of the
    /// journal so the next `hash` or `seal` folds only newer records.
    pub fn seal(&mut self) -> u64 {
        self.sealed_fnv = self.hash();
        self.sealed_seq = self.next_seq();
        self.sealed_fnv
    }

    /// Dump the journal as JSON (hand-rolled; the workspace has no serde).
    pub fn to_json(&self) -> String {
        let h = &self.header;
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        out.push_str("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"racks\": {},\n", h.racks));
        out.push_str(&format!("  \"lanes\": {},\n", h.lanes));
        out.push_str(&format!("  \"seed\": {},\n", h.seed));
        out.push_str(&format!(
            "  \"shape\": [{}, {}, {}],\n",
            h.shape.extent(topo::Dim::X),
            h.shape.extent(topo::Dim::Y),
            h.shape.extent(topo::Dim::Z)
        ));
        out.push_str(&format!("  \"hash\": \"{:#018x}\",\n", self.hash()));
        if self.base_seq > 0 {
            // Only compacted journals carry base fields, so uncompacted
            // dumps stay byte-identical to the pre-snapshot format (and to
            // the committed goldens).
            out.push_str(&format!("  \"base_seq\": {},\n", self.base_seq));
            out.push_str(&format!("  \"base_fnv\": \"{:#018x}\",\n", self.base_fnv));
        }
        out.push_str("  \"entries\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&record_json(r));
            out.push_str(if i + 1 < self.records.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn coord_json(c: Coord3) -> String {
    let [x, y, z] = c.p;
    format!("[{}, {}, {}]", x, y, z)
}

fn shape_json(s: Shape3) -> String {
    format!(
        "[{}, {}, {}]",
        s.extent(topo::Dim::X),
        s.extent(topo::Dim::Y),
        s.extent(topo::Dim::Z)
    )
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn record_json(r: &Record) -> String {
    let common = format!(
        "\"seq\": {}, \"t_ps\": {}, \"kind\": \"{}\"",
        r.seq,
        r.at.as_ps(),
        r.entry.kind()
    );
    let rest = match &r.entry {
        JournalEntry::Admit {
            job,
            origin,
            extent,
        } => format!(
            ", \"job\": {job}, \"origin\": {}, \"extent\": {}",
            coord_json(*origin),
            shape_json(*extent)
        ),
        JournalEntry::Deny { job, shape, reason } => format!(
            ", \"job\": {job}, \"shape\": {}, \"reason\": \"{}\"",
            shape_json(*shape),
            reason.canon()
        ),
        JournalEntry::Program {
            job,
            circuits,
            batches,
            cross,
        } => format!(
            ", \"job\": {job}, \"circuits\": {circuits}, \"batches\": {batches}, \
             \"cross\": {cross}"
        ),
        JournalEntry::Reconfigure { job, micros } => {
            format!(", \"job\": {job}, \"micros\": {micros:.3}")
        }
        JournalEntry::Fail {
            incident,
            chip,
            victim,
            spliced,
        } => format!(
            ", \"incident\": {incident}, \"chip\": {}, \"victim\": {}, \"spliced\": {spliced}",
            coord_json(*chip),
            victim.map_or("null".to_string(), |v| v.to_string())
        ),
        JournalEntry::Repair {
            incident,
            replacement,
            circuits,
            servers_touched,
            blast_servers,
        } => format!(
            ", \"incident\": {incident}, \"replacement\": {}, \"circuits\": {circuits}, \
             \"servers_touched\": {servers_touched}, \"blast_servers\": {blast_servers}",
            coord_json(*replacement)
        ),
        JournalEntry::RepairFailed {
            incident,
            replacement,
            error,
        } => format!(
            ", \"incident\": {incident}, \"replacement\": {}, \"error\": \"{}\"",
            coord_json(*replacement),
            escape_json(error)
        ),
        JournalEntry::Reject {
            job,
            shape,
            attempt,
            code,
        } => format!(
            ", \"job\": {job}, \"shape\": {}, \"attempt\": {attempt}, \"code\": \"{code}\"",
            shape_json(*shape)
        ),
        JournalEntry::Rollback {
            job,
            attempt,
            circuits,
        } => format!(", \"job\": {job}, \"attempt\": {attempt}, \"circuits\": {circuits}"),
        JournalEntry::Evict { job } => format!(", \"job\": {job}"),
        JournalEntry::Snapshot { fingerprint } => {
            format!(", \"fingerprint\": \"{fingerprint:#018x}\"")
        }
        JournalEntry::MultiGroupAdmit {
            job,
            extent,
            legs,
            ports,
        } => {
            let legs: Vec<String> = legs
                .iter()
                .map(|l| {
                    format!(
                        "{{\"leg\": {}, \"group\": {}, \"origin\": {}, \"extent\": {}}}",
                        l.leg,
                        l.group,
                        coord_json(l.origin),
                        shape_json(l.extent)
                    )
                })
                .collect();
            let ports: Vec<String> = ports.iter().map(|p| p.to_string()).collect();
            format!(
                ", \"job\": {job}, \"extent\": {}, \"legs\": [{}], \"ports\": [{}]",
                shape_json(*extent),
                legs.join(", "),
                ports.join(", ")
            )
        }
    };
    format!("{{{common}{rest}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            racks: 1,
            lanes: 2,
            seed: 7,
            shape: Shape3::rack_4x4x4(),
        }
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let mut j = Journal::new(header());
        assert!(j.is_empty());
        let s0 = j.push(
            SimTime::ZERO,
            JournalEntry::Admit {
                job: 0,
                origin: Coord3::new(0, 0, 0),
                extent: Shape3::new(2, 2, 1),
            },
        );
        let s1 = j.push(SimTime::from_ps(5), JournalEntry::Evict { job: 0 });
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(j.len(), 2);
        assert_eq!(j.records()[1].seq, 1);
    }

    #[test]
    fn hash_is_stable_and_sensitive() {
        let mut a = Journal::new(header());
        let mut b = Journal::new(header());
        for j in [&mut a, &mut b] {
            j.push(
                SimTime::ZERO,
                JournalEntry::Admit {
                    job: 3,
                    origin: Coord3::new(0, 0, 0),
                    extent: Shape3::new(4, 2, 1),
                },
            );
        }
        assert_eq!(a.hash(), b.hash());
        b.push(SimTime::from_ps(1), JournalEntry::Evict { job: 3 });
        assert_ne!(a.hash(), b.hash());
        // Header differences hash differently too.
        let c = Journal::new(JournalHeader {
            seed: 8,
            ..header()
        });
        assert_ne!(Journal::new(header()).hash(), c.hash());
    }

    #[test]
    fn reject_and_rollback_canon_and_json_are_stable() {
        let mut j = Journal::new(header());
        j.push(
            SimTime::from_ps(10),
            JournalEntry::Reject {
                job: 4,
                shape: Shape3::new(4, 2, 1),
                attempt: 1,
                code: "circuit/insufficient-tx-lanes",
            },
        );
        j.push(
            SimTime::from_ps(10),
            JournalEntry::Rollback {
                job: 4,
                attempt: 1,
                circuits: 3,
            },
        );
        let canons: Vec<String> = j.records().iter().map(|r| r.canon()).collect();
        assert_eq!(
            canons[0],
            "seq=0 t=10ps reject job=4 shape=4x2x1 attempt=1 code=circuit/insufficient-tx-lanes"
        );
        assert_eq!(
            canons[1],
            "seq=1 t=10ps rollback job=4 attempt=1 circuits=3"
        );
        let json = j.to_json();
        assert!(json.contains("\"kind\": \"reject\""), "{json}");
        assert!(
            json.contains("\"code\": \"circuit/insufficient-tx-lanes\""),
            "{json}"
        );
        assert!(json.contains("\"kind\": \"rollback\""), "{json}");
        assert!(json.contains("\"circuits\": 3"), "{json}");
    }

    #[test]
    fn multi_group_admit_canon_and_json_are_stable() {
        let mut j = Journal::new(header());
        j.push(
            SimTime::from_ps(20),
            JournalEntry::MultiGroupAdmit {
                job: 9,
                extent: Shape3::new(4, 4, 4),
                legs: vec![
                    StitchLegRecord {
                        leg: 0x8000_0090,
                        group: 1,
                        origin: Coord3::new(0, 0, 4),
                        extent: Shape3::new(4, 4, 2),
                    },
                    StitchLegRecord {
                        leg: 0x8000_0091,
                        group: 2,
                        origin: Coord3::new(0, 0, 8),
                        extent: Shape3::new(4, 4, 2),
                    },
                ],
                ports: vec![0, 1, 2],
            },
        );
        let canon = j.records().iter().map(|r| r.canon()).collect::<Vec<_>>();
        assert_eq!(
            canon.first().map(String::as_str),
            Some(
                "seq=0 t=20ps multi-admit job=9 extent=4x4x4 \
                 legs=[2147483792@g1:[0,0,4]+4x4x2;2147483793@g2:[0,0,8]+4x4x2] ports=[0,1,2]"
            )
        );
        let json = j.to_json();
        assert!(json.contains("\"kind\": \"multi-admit\""), "{json}");
        assert!(json.contains("\"legs\": [{\"leg\": 2147483792"), "{json}");
        assert!(json.contains("\"ports\": [0, 1, 2]"), "{json}");
    }

    #[test]
    fn compaction_preserves_hash_and_logical_len() {
        let mut j = Journal::new(header());
        for job in 0..4 {
            j.push(
                SimTime::from_ps(job as u64 * 10),
                JournalEntry::Admit {
                    job,
                    origin: Coord3::new(0, 0, 0),
                    extent: Shape3::new(2, 2, 1),
                },
            );
        }
        let snap_seq = j.push(
            SimTime::from_ps(50),
            JournalEntry::Snapshot {
                fingerprint: 0xdead_beef,
            },
        );
        j.push(SimTime::from_ps(60), JournalEntry::Evict { job: 0 });
        let full_hash = j.hash();
        let full_len = j.len();

        let dropped = j.compact_to(snap_seq).expect("compact at snapshot");
        assert_eq!(dropped, 4);
        assert_eq!(j.hash(), full_hash, "hash survives compaction");
        assert_eq!(j.len(), full_len, "logical length survives compaction");
        assert_eq!(j.base_seq(), snap_seq);
        assert_eq!(j.records().len(), 2, "snapshot + evict retained");
        assert!(matches!(
            j.records().first().map(|r| &r.entry),
            Some(JournalEntry::Snapshot { .. })
        ));
        // Appending after compaction continues the chain identically.
        j.push(SimTime::from_ps(70), JournalEntry::Evict { job: 1 });
        assert_eq!(j.records().last().map(|r| r.seq), Some(snap_seq + 2));

        // Downward-only: re-compacting below base is rejected.
        assert!(j.compact_to(snap_seq - 1).is_err());
        // Watermarks must land on snapshot records.
        assert!(j.compact_to(snap_seq + 1).is_err());
    }

    #[test]
    fn with_base_resumes_the_hash_chain() {
        let mut full = Journal::new(header());
        full.push(SimTime::from_ps(1), JournalEntry::Evict { job: 0 });
        let mid_fnv = full.hash();
        let mid_seq = full.next_seq();
        full.push(SimTime::from_ps(2), JournalEntry::Evict { job: 1 });

        let mut resumed = Journal::with_base(header(), mid_seq, mid_fnv);
        let seq = resumed.push(SimTime::from_ps(2), JournalEntry::Evict { job: 1 });
        assert_eq!(seq, mid_seq);
        assert_eq!(resumed.hash(), full.hash());
        assert_eq!(resumed.len(), full.len());
    }

    #[test]
    fn json_dump_is_well_formed() {
        let mut j = Journal::new(header());
        j.push(
            SimTime::from_ps(42),
            JournalEntry::Fail {
                incident: 0,
                chip: Coord3::new(1, 1, 1),
                victim: Some(2),
                spliced: 2,
            },
        );
        j.push(
            SimTime::from_ps(43),
            JournalEntry::RepairFailed {
                incident: 0,
                replacement: Coord3::new(0, 0, 3),
                error: "say \"no\"\n".into(),
            },
        );
        let json = j.to_json();
        assert!(json.contains("\"kind\": \"fail\""), "{json}");
        assert!(json.contains("\"victim\": 2"), "{json}");
        assert!(json.contains("\\\"no\\\"\\n"), "{json}");
        // Balanced braces/brackets (crude well-formedness check).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "{json}"
            );
        }
    }
}
