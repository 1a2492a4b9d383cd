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
//! monotonic sequence numbers.
//!
//! Each record kind is described once: `JournalEntry::describe` names the
//! kind and lists its `(key, value)` fields in canonical order, each value
//! tagged with how it is written. Two writers derive from that one
//! description: the canonical line ([`Record::canon`]), which the hash
//! fold streams straight into the FNV-1a state without building a
//! `String`, and the [`Journal::to_json`] dump (hand-rolled; the workspace
//! is offline and carries no serde), which uses the same keys. Nothing
//! reads either back yet.

use std::fmt;

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

impl JournalHeader {
    /// The header's fields in canonical order: the journal's first hashed
    /// line (`journal racks=… lanes=… seed=… shape=…`) and the dump's
    /// top-level keys.
    fn fields(&self) -> [Field<'static>; 4] {
        [
            ("racks", Val::Int(self.racks as u64)),
            ("lanes", Val::Int(self.lanes as u64)),
            ("seed", Val::Int(self.seed)),
            ("shape", Val::Shape(self.shape)),
        ]
    }
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

/// What precedes each of a stitch leg's four values in its canonical form,
/// `<leg>@g<group>:<origin>+<extent>`.
const LEG_SEPARATORS: [&str; 4] = ["", "@g", ":", "+"];

impl StitchLegRecord {
    /// The leg's fields in canonical order: the values of its canonical
    /// form and the keys of its JSON object.
    fn fields(&self) -> [Field<'static>; 4] {
        [
            ("leg", Val::Int(self.leg.into())),
            ("group", Val::Int(self.group)),
            ("origin", Val::Coord(self.origin)),
            ("extent", Val::Shape(self.extent)),
        ]
    }
}

impl JournalEntry {
    /// Hand the entry's kind and its fields, in canonical order, to `f`.
    /// This is the one description of every record kind: the canonical
    /// line, the JSON dump and [`kind`](Self::kind) all derive from it.
    /// Laid out by hand as a table, one row of fields per kind.
    #[rustfmt::skip]
    fn describe<'e, R>(&'e self, f: impl FnOnce(&'static str, &[Field<'e>]) -> R) -> R {
        use Val::{Coord, Hex, Int, Legs, Micros, Ports, Shape, Text, Victim};
        match *self {
            Self::Admit { job, origin, extent } => f("admit", &[
                ("job", Int(job.into())), ("origin", Coord(origin)), ("extent", Shape(extent)),
            ]),
            Self::Deny { job, shape, reason } => f("deny", &[
                ("job", Int(job.into())), ("shape", Shape(shape)), ("reason", Text(reason.canon())),
            ]),
            Self::Program { job, circuits, batches, cross } => f("program", &[
                ("job", Int(job.into())), ("circuits", Int(circuits as u64)),
                ("batches", Int(batches as u64)), ("cross", Int(cross as u64)),
            ]),
            Self::Reconfigure { job, micros } => f("reconfigure", &[
                ("job", Int(job.into())), ("micros", Micros(micros)),
            ]),
            Self::Fail { incident, chip, victim, spliced } => f("fail", &[
                ("incident", Int(incident)), ("chip", Coord(chip)), ("victim", Victim(victim)),
                ("spliced", Int(spliced as u64)),
            ]),
            Self::Repair { incident, replacement, circuits, servers_touched, blast_servers } => {
                f("repair", &[
                    ("incident", Int(incident)), ("replacement", Coord(replacement)),
                    ("circuits", Int(circuits as u64)), ("servers", Int(servers_touched as u64)),
                    ("blast", Int(blast_servers as u64)),
                ])
            }
            Self::RepairFailed { incident, replacement, ref error } => f("repair-failed", &[
                ("incident", Int(incident)), ("replacement", Coord(replacement)),
                ("error", Text(error)),
            ]),
            Self::Reject { job, shape, attempt, code } => f("reject", &[
                ("job", Int(job.into())), ("shape", Shape(shape)), ("attempt", Int(attempt.into())),
                ("code", Text(code)),
            ]),
            Self::Rollback { job, attempt, circuits } => f("rollback", &[
                ("job", Int(job.into())), ("attempt", Int(attempt.into())),
                ("circuits", Int(circuits as u64)),
            ]),
            Self::Evict { job } => f("evict", &[("job", Int(job.into()))]),
            Self::Snapshot { fingerprint } => f("snapshot", &[("fingerprint", Hex(fingerprint))]),
            Self::MultiGroupAdmit { job, extent, ref legs, ref ports } => f("multi-admit", &[
                ("job", Int(job.into())), ("extent", Shape(extent)), ("legs", Legs(legs)),
                ("ports", Ports(ports)),
            ]),
        }
    }

    /// The record kind's canonical name (the first token of its canon line).
    pub fn kind(&self) -> &'static str {
        self.describe(|kind, _| kind)
    }
}

/// How a field's value is written: one canonical form ([`Val::canon`]) and
/// one JSON form ([`Val::json`]) per tag.
#[derive(Debug, Clone, Copy)]
enum Val<'a> {
    /// An unsigned integer, in decimal.
    Int(u64),
    /// A chip, `[x,y,z]`; JSON `[x, y, z]`.
    Coord(Coord3),
    /// An extent, `XxYxZ`; JSON `[x, y, z]`.
    Shape(Shape3),
    /// Text, raw; JSON an escaped string.
    Text(&'a str),
    /// The tenant a failure hit, `-` when none; JSON `null`.
    Victim(Option<u32>),
    /// Microseconds rounded to three decimals, in both.
    Micros(f64),
    /// A 64-bit fingerprint, `0x` and 16 hex digits; JSON a string.
    Hex(u64),
    /// Stitch legs, `[<leg>;<leg>…]`; JSON an array of leg objects.
    Legs(&'a [StitchLegRecord]),
    /// Stitch ports, `[p,p…]`; JSON `[p, p…]`.
    Ports(&'a [u32]),
}

/// One `(key, value)` field of a record, a leg or the header.
type Field<'a> = (&'static str, Val<'a>);

impl Val<'_> {
    /// Write the value as it follows `key=` in a canonical line.
    fn canon(self, w: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Val::Int(n) => write!(w, "{n}"),
            Val::Coord(c) => write!(w, "{c}"),
            Val::Shape(s) => write!(w, "{s}"),
            Val::Text(t) => w.write_str(t),
            Val::Victim(Some(v)) => write!(w, "{v}"),
            Val::Victim(None) => w.write_char('-'),
            Val::Micros(us) => write!(w, "{us:.3}"),
            Val::Hex(x) => write!(w, "{x:#018x}"),
            Val::Legs(legs) => list(w, legs, ";", |w, leg| {
                for (sep, (_, v)) in LEG_SEPARATORS.into_iter().zip(leg.fields()) {
                    w.write_str(sep)?;
                    v.canon(w)?;
                }
                Ok(())
            }),
            Val::Ports(ports) => list(w, ports, ",", |w, p| write!(w, "{p}")),
        }
    }

    /// Write the value as JSON.
    fn json(self, w: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Val::Coord(Coord3 { p: [x, y, z] }) | Val::Shape(Shape3 { dims: [x, y, z] }) => {
                write!(w, "[{x}, {y}, {z}]")
            }
            Val::Text(t) => json_string(w, t),
            Val::Victim(None) => w.write_str("null"),
            Val::Hex(x) => write!(w, "\"{x:#018x}\""),
            Val::Legs(legs) => list(w, legs, ", ", |w, leg| json_object(w, leg.fields())),
            Val::Ports(ports) => list(w, ports, ", ", |w, p| write!(w, "{p}")),
            Val::Int(_) | Val::Victim(Some(_)) | Val::Micros(_) => self.canon(w),
        }
    }
}

/// Write `<kind> <key>=<value>…`: a canonical line after its sequence
/// number and instant, or the header's whole line.
fn canon_line(w: &mut impl fmt::Write, kind: &str, fields: &[Field<'_>]) -> fmt::Result {
    w.write_str(kind)?;
    for (key, v) in fields {
        w.write_char(' ')?;
        w.write_str(key)?;
        w.write_char('=')?;
        v.canon(w)?;
    }
    Ok(())
}

/// Write `[<item><sep><item>…]`.
fn list<W: fmt::Write, T>(
    w: &mut W,
    items: &[T],
    sep: &str,
    mut item: impl FnMut(&mut W, &T) -> fmt::Result,
) -> fmt::Result {
    w.write_char('[')?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            w.write_str(sep)?;
        }
        item(w, x)?;
    }
    w.write_char(']')
}

/// Write `{"<key>": <value>, …}`.
fn json_object<'v>(
    w: &mut impl fmt::Write,
    fields: impl IntoIterator<Item = Field<'v>>,
) -> fmt::Result {
    w.write_char('{')?;
    for (i, (key, v)) in fields.into_iter().enumerate() {
        w.write_str(if i == 0 { "\"" } else { ", \"" })?;
        w.write_str(key)?;
        w.write_str("\": ")?;
        v.json(w)?;
    }
    w.write_char('}')
}

/// Write `s` as a JSON string.
fn json_string(w: &mut impl fmt::Write, s: &str) -> fmt::Result {
    w.write_char('"')?;
    for ch in s.chars() {
        match ch {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            '\t' => w.write_str("\\t")?,
            '\r' => w.write_str("\\r")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_char(c)?,
        }
    }
    w.write_char('"')
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
        let mut line = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_canon(&mut line);
        line
    }

    /// Write the canonical line, `seq=<seq> t=<ps>ps <kind> <key>=<value>…`.
    fn write_canon(&self, w: &mut impl fmt::Write) -> fmt::Result {
        write!(w, "seq={} t={}ps ", self.seq, self.at.as_ps())?;
        self.entry
            .describe(|kind, fields| canon_line(w, kind, fields))
    }

    /// Write the record as one JSON object: `seq`, `t_ps` and `kind`, then
    /// the fields under their canonical keys.
    fn write_json(&self, w: &mut impl fmt::Write) -> fmt::Result {
        self.entry.describe(|kind, fields| {
            let head = [
                ("seq", Val::Int(self.seq)),
                ("t_ps", Val::Int(self.at.as_ps())),
                ("kind", Val::Text(kind)),
            ];
            json_object(w, head.into_iter().chain(fields.iter().copied()))
        })
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

/// A `fmt::Write` sink over an FNV-1a state, so the hash fold streams
/// canonical lines without building them. Text goes in through
/// [`Fnv::write_bytes`]: `Fnv`'s own `write_str` length-prefixes its
/// input, which would change every hash.
struct FnvSink(Fnv);

impl fmt::Write for FnvSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// Continue the hash fold at `fnv` over `records`: a newline, then each
/// record's canonical line.
fn fold<'a>(fnv: u64, records: impl IntoIterator<Item = &'a Record>) -> u64 {
    let mut sink = FnvSink(Fnv::from_state(fnv));
    for r in records {
        sink.0.write_bytes(b"\n");
        // The sink cannot fail.
        let _ = r.write_canon(&mut sink);
    }
    sink.0.finish()
}

impl Journal {
    /// An empty journal for a run described by `header`.
    pub fn new(header: JournalHeader) -> Self {
        let mut sink = FnvSink(Fnv::new());
        // The sink cannot fail.
        let _ = canon_line(&mut sink, "journal", &header.fields());
        Self::with_base(header, 0, sink.0.finish())
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

    /// Dump the journal as JSON: the header's fields, the hash, the base
    /// (compacted journals only), then one object per retained record.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.records.len() * 96);
        // Writing to a `String` cannot fail.
        let _ = self.write_json(&mut out);
        out
    }

    fn write_json(&self, w: &mut impl fmt::Write) -> fmt::Result {
        // Only compacted journals carry base fields, so uncompacted dumps
        // keep the layout they had before snapshots existed.
        let base = [
            ("base_seq", Val::Int(self.base_seq)),
            ("base_fnv", Val::Hex(self.base_fnv)),
        ]
        .into_iter()
        .filter(|_| self.base_seq > 0);
        let top = [("version", Val::Int(1))]
            .into_iter()
            .chain(self.header.fields())
            .chain([("hash", Val::Hex(self.hash()))])
            .chain(base);
        w.write_str("{\n")?;
        for (key, v) in top {
            write!(w, "  \"{key}\": ")?;
            v.json(w)?;
            w.write_str(",\n")?;
        }
        w.write_str("  \"entries\": [")?;
        for (i, r) in self.records.iter().enumerate() {
            w.write_str(if i == 0 { "\n    " } else { ",\n    " })?;
            r.write_json(w)?;
        }
        w.write_str("\n  ]\n}\n")
    }
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
