//! Workspace-wide fault taxonomy.
//!
//! The paper's §4.2 case for photonics is about *containing* failures —
//! shrinking the blast radius of a dead chip from a rack to one server — and
//! the control plane must hold itself to the same standard: an infeasible
//! request, an unroutable demand, or a mid-batch programming failure is an
//! *outcome* to be journaled, retried, or repaired, never a reason to abort
//! the process. This module is the single error currency for that contract:
//! every fallible mutation or planning path in the workspace returns
//! [`FabricError`] — a layer-tagged fault kind plus the entities involved and
//! an optional source chain — instead of a crate-local ad-hoc enum.
//!
//! Layering mirrors the crate graph (a fault at one layer may be *caused by*
//! a fault one layer down):
//!
//! ```text
//!   ctrl        admission, batch programming, replay        (fabricd)
//!    └─ route   path search, batch alloc, RWA, protection   (route)
//!    └─ topo    slice carving on the chip torus             (topo, lifted)
//!    └─ collective  ring/bucket schedule construction       (collectives)
//!        └─ circuit  wafer circuit establishment            (core)
//!            └─ phy  link budget / BER closure              (phy, lifted)
//! ```
//!
//! Every kind has a stable machine-readable reason code
//! (`layer/kebab-name`, see [`FabricError::code`]) used for journaled
//! rejections, telemetry counters, and the `verify` CTL403 audit. The full
//! registry is [`CODES`]; codes are append-only.

use crate::circuit::CircuitId;
use crate::geom::{EdgeId, TileCoord};
use std::fmt;

/// The layer of the stack a fault originates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Physical layer: link budget, BER.
    Phy,
    /// Wafer circuit establishment (core).
    Circuit,
    /// Slice carving on the chip torus (topo).
    Topo,
    /// Path search, batch allocation, RWA, protection (route).
    Route,
    /// Collective schedule construction (collectives).
    Collective,
    /// Control plane: admission, programming, replay (fabricd).
    Ctrl,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::Phy => "phy",
            Layer::Circuit => "circuit",
            Layer::Topo => "topo",
            Layer::Route => "route",
            Layer::Collective => "collective",
            Layer::Ctrl => "ctrl",
        };
        f.write_str(s)
    }
}

/// A reference to the entity a fault is about, for structured rendering and
/// diagnostics ("which tile / edge / job was that?").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntityRef {
    /// A wafer tile.
    Tile(TileCoord),
    /// A waveguide bus between adjacent tiles.
    Edge(EdgeId),
    /// An established (or formerly established) circuit.
    Circuit(CircuitId),
    /// A wafer by index within the fabric.
    Wafer(usize),
    /// A chip position on the rack torus (plain coords; `core` cannot see
    /// `topo` types).
    Chip {
        /// X position.
        x: usize,
        /// Y position.
        y: usize,
        /// Z position.
        z: usize,
    },
    /// A job / tenant slice id.
    Job(u32),
    /// A demand index within a batch.
    Demand(usize),
    /// A failure incident id.
    Incident(u64),
    /// A journal sequence number.
    Seq(u64),
}

impl fmt::Display for EntityRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntityRef::Tile(t) => write!(f, "tile {t}"),
            EntityRef::Edge(e) => write!(f, "edge {e}"),
            EntityRef::Circuit(c) => write!(f, "circuit {c}"),
            EntityRef::Wafer(w) => write!(f, "wafer {w}"),
            EntityRef::Chip { x, y, z } => write!(f, "chip [{x},{y},{z}]"),
            EntityRef::Job(j) => write!(f, "job {j}"),
            EntityRef::Demand(d) => write!(f, "demand #{d}"),
            EntityRef::Incident(i) => write!(f, "incident {i}"),
            EntityRef::Seq(s) => write!(f, "seq {s}"),
        }
    }
}

/// Why a circuit could not be established on a wafer.
///
/// This is the circuit-layer sub-enum of the taxonomy. The legacy name
/// `CircuitError` is re-exported from [`crate::circuit`] so existing match
/// sites keep reading naturally. Display strings are embedded in journal
/// canon (repair-failed records) and must stay byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitFault {
    /// Source and destination are the same tile.
    SameEndpoints(TileCoord),
    /// A referenced tile is outside the wafer grid.
    OutOfBounds(TileCoord),
    /// An endpoint tile's accelerator has failed (pass-through still works,
    /// but it cannot source or sink traffic).
    TileFailed(TileCoord),
    /// Zero lanes requested, or more than the tile's SerDes pool has.
    BadLaneCount(usize),
    /// The source tile has too few free transmit lanes.
    InsufficientTxLanes {
        /// Tile that was out of lanes.
        tile: TileCoord,
        /// Lanes free at request time.
        free: usize,
        /// Lanes requested.
        requested: usize,
    },
    /// The destination tile has too few free receive lanes.
    InsufficientRxLanes {
        /// Tile that was out of lanes.
        tile: TileCoord,
        /// Lanes free at request time.
        free: usize,
        /// Lanes requested.
        requested: usize,
    },
    /// A waveguide bus along the route is fully occupied.
    EdgeExhausted(EdgeId),
    /// The end-to-end optical budget does not close at the target BER.
    BudgetFailed {
        /// Shortfall (negative margin), dB.
        margin_db: f64,
    },
    /// A provided path does not start/end at the requested endpoints.
    PathMismatch,
    /// No such circuit (teardown/lookup of a stale id).
    UnknownCircuit(CircuitId),
    /// A fiber link needed by a cross-wafer circuit is exhausted.
    FiberExhausted {
        /// Fibers available on the link.
        capacity: u32,
    },
    /// Cross-wafer request between wafers with no fiber link.
    NoFiberLink,
}

impl fmt::Display for CircuitFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitFault::SameEndpoints(t) => write!(f, "endpoints are the same tile {t}"),
            CircuitFault::OutOfBounds(t) => write!(f, "tile {t} outside the wafer grid"),
            CircuitFault::TileFailed(t) => write!(f, "tile {t} has a failed accelerator"),
            CircuitFault::BadLaneCount(n) => write!(f, "invalid lane count {n}"),
            CircuitFault::InsufficientTxLanes {
                tile,
                free,
                requested,
            } => write!(
                f,
                "tile {tile}: {requested} tx lanes requested, {free} free"
            ),
            CircuitFault::InsufficientRxLanes {
                tile,
                free,
                requested,
            } => write!(
                f,
                "tile {tile}: {requested} rx lanes requested, {free} free"
            ),
            CircuitFault::EdgeExhausted(e) => write!(f, "waveguide bus {e} exhausted"),
            CircuitFault::BudgetFailed { margin_db } => {
                write!(
                    f,
                    "optical budget fails to close (margin {margin_db:.2} dB)"
                )
            }
            CircuitFault::PathMismatch => write!(f, "explicit path does not match endpoints"),
            CircuitFault::UnknownCircuit(id) => write!(f, "unknown circuit {id}"),
            CircuitFault::FiberExhausted { capacity } => {
                write!(f, "fiber link exhausted ({capacity} fibers)")
            }
            CircuitFault::NoFiberLink => write!(f, "no fiber link between the wafers"),
        }
    }
}

impl std::error::Error for CircuitFault {}

/// Physical-layer infeasibility: the optical budget does not close.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhyFault {
    /// Received power is below sensitivity at the target BER.
    BudgetNotClosed {
        /// Margin (negative = shortfall), dB.
        margin_db: f64,
    },
    /// Estimated BER exceeds the target.
    BerAboveTarget {
        /// Estimated bit error rate.
        ber: f64,
        /// Target bit error rate.
        target_ber: f64,
    },
}

impl fmt::Display for PhyFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhyFault::BudgetNotClosed { margin_db } => {
                write!(f, "link budget does not close (margin {margin_db:.2} dB)")
            }
            PhyFault::BerAboveTarget { ber, target_ber } => {
                write!(f, "BER {ber:.2e} above target {target_ber:.2e}")
            }
        }
    }
}

/// Slice-carving faults on the chip torus. Plain coordinate data because
/// `core` sits below `topo` in the crate graph; `fabricd` lifts
/// `topo::PlaceError` into this shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopoFault {
    /// The slice extends past the torus bounds (or can never fit).
    OutOfBounds,
    /// A chip of the requested box is already owned.
    Occupied {
        /// X position of the occupied chip.
        x: usize,
        /// Y position of the occupied chip.
        y: usize,
        /// Z position of the occupied chip.
        z: usize,
    },
    /// A slice with this id is already placed.
    DuplicateId(u32),
    /// No free box of the requested extent exists.
    NoSpace,
    /// A pod chip count that cannot form a rack-group partition (zero,
    /// or not a whole number of racks). Rejecting it here keeps the
    /// shard layout total: no chip is ever silently truncated away.
    DegenerateLayout {
        /// The rejected chip count.
        chips: usize,
    },
}

impl fmt::Display for TopoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoFault::OutOfBounds => write!(f, "slice outside the torus"),
            TopoFault::Occupied { x, y, z } => write!(f, "chip [{x},{y},{z}] already owned"),
            TopoFault::DuplicateId(id) => write!(f, "slice id {id} already placed"),
            TopoFault::NoSpace => write!(f, "no free box of the requested extent"),
            TopoFault::DegenerateLayout { chips } => {
                write!(f, "{chips} chips cannot form a rack-group partition")
            }
        }
    }
}

/// Routing-layer faults: unroutable is an outcome, not a bug.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteFault {
    /// No path edge-disjoint from the batch's earlier circuits exists.
    NoDisjointPath {
        /// Index of the demand within the batch.
        demand: usize,
    },
    /// No backup path edge-disjoint from the working path exists.
    NoDisjointBackup,
    /// Establishing a routed demand failed at the circuit layer (see the
    /// source chain).
    Establish {
        /// Index of the demand within the batch.
        demand: usize,
    },
    /// No `k` continuity-feasible wavelengths along the chosen path.
    WavelengthExhausted {
        /// Wavelengths requested.
        needed: usize,
    },
    /// Release of a wavelength assignment not held on some edge (double
    /// release or wrong path).
    ReleaseUnheld {
        /// The edge where the assignment was not held.
        edge: EdgeId,
    },
}

impl fmt::Display for RouteFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteFault::NoDisjointPath { demand } => {
                write!(f, "no edge-disjoint path for demand #{demand}")
            }
            RouteFault::NoDisjointBackup => write!(f, "no edge-disjoint backup path"),
            RouteFault::Establish { demand } => {
                write!(f, "establishing demand #{demand} failed")
            }
            RouteFault::WavelengthExhausted { needed } => {
                write!(f, "no {needed} continuity-feasible wavelengths")
            }
            RouteFault::ReleaseUnheld { edge } => {
                write!(f, "releasing unheld wavelengths on {edge}")
            }
        }
    }
}

/// Collective-schedule construction faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectiveFault {
    /// A ring collective needs at least two members.
    TooFewMembers {
        /// Members supplied.
        members: usize,
    },
    /// A bucket collective needs a non-degenerate 2-D extent.
    DegenerateExtent {
        /// X extent supplied.
        extent_x: usize,
        /// Y extent supplied.
        extent_y: usize,
    },
    /// Establishing a collective hop failed (see the source chain).
    Establish {
        /// Index of the hop within the schedule.
        hop: usize,
    },
}

impl fmt::Display for CollectiveFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveFault::TooFewMembers { members } => {
                write!(f, "ring collective needs >= 2 members, got {members}")
            }
            CollectiveFault::DegenerateExtent { extent_x, extent_y } => {
                write!(
                    f,
                    "bucket collective needs a >= 2x2 extent, got {extent_x}x{extent_y}"
                )
            }
            CollectiveFault::Establish { hop } => {
                write!(f, "establishing collective hop #{hop} failed")
            }
        }
    }
}

/// Control-plane faults: admission, batch programming, replay.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlFault {
    /// No slice of the requested shape fits the rack.
    NoSpace {
        /// The job that could not be placed.
        job: u32,
    },
    /// An intra-wafer batch of a circuit plan failed to program (see the
    /// source chain).
    ProgramBatch {
        /// Index of the wafer whose batch failed.
        wafer: usize,
    },
    /// A cross-wafer splice of a circuit plan failed to program (see the
    /// source chain).
    ProgramCross {
        /// Index of the splice within the plan.
        index: usize,
    },
    /// A queued job timed out before capacity freed up.
    QueueTimeout {
        /// The job that timed out.
        job: u32,
    },
    /// Bounded-backoff retries were exhausted without a successful program.
    RetriesExhausted {
        /// The job that gave up.
        job: u32,
        /// Attempts made (initial try plus retries).
        attempts: u32,
    },
    /// Journal replay diverged from the live run.
    ReplayDiverged {
        /// Journal sequence number where replay diverged.
        seq: u64,
        /// What diverged.
        what: String,
    },
    /// An operation referenced a job the control plane does not know.
    UnknownJob {
        /// The unknown job id.
        job: u32,
    },
    /// Optical repair of a failure incident could not be completed.
    RepairFailed {
        /// The incident that could not be repaired.
        incident: u64,
    },
}

impl fmt::Display for CtrlFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlFault::NoSpace { job } => write!(f, "no space for job {job}"),
            CtrlFault::ProgramBatch { wafer } => {
                write!(f, "batch programming failed on wafer {wafer}")
            }
            CtrlFault::ProgramCross { index } => {
                write!(f, "cross-wafer splice #{index} failed to program")
            }
            CtrlFault::QueueTimeout { job } => write!(f, "job {job} timed out in queue"),
            CtrlFault::RetriesExhausted { job, attempts } => {
                write!(f, "job {job} gave up after {attempts} attempts")
            }
            CtrlFault::ReplayDiverged { seq, what } => {
                write!(f, "replay diverged at seq {seq}: {what}")
            }
            CtrlFault::UnknownJob { job } => write!(f, "unknown job {job}"),
            CtrlFault::RepairFailed { incident } => {
                write!(f, "repair of incident {incident} failed")
            }
        }
    }
}

/// A fault kind: one variant of one layer's sub-enum.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Physical layer.
    Phy(PhyFault),
    /// Circuit layer.
    Circuit(CircuitFault),
    /// Topology layer.
    Topo(TopoFault),
    /// Routing layer.
    Route(RouteFault),
    /// Collective layer.
    Collective(CollectiveFault),
    /// Control plane.
    Ctrl(CtrlFault),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Phy(e) => e.fmt(f),
            FaultKind::Circuit(e) => e.fmt(f),
            FaultKind::Topo(e) => e.fmt(f),
            FaultKind::Route(e) => e.fmt(f),
            FaultKind::Collective(e) => e.fmt(f),
            FaultKind::Ctrl(e) => e.fmt(f),
        }
    }
}

/// The workspace-wide structured fault: a layer-tagged kind plus an optional
/// source chain (the lower-layer fault that caused this one).
#[derive(Debug, Clone, PartialEq)]
pub struct FabricError {
    /// What went wrong at this layer.
    pub kind: FaultKind,
    /// The lower-layer fault this one wraps, if any.
    pub source: Option<Box<FabricError>>,
}

/// Every reason code the taxonomy can emit, `layer/kebab-name`. Append-only:
/// journaled rejections reference these codes and `verify` CTL403 audits
/// journals against this registry.
pub const CODES: &[&str] = &[
    "phy/budget-not-closed",
    "phy/ber-above-target",
    "circuit/same-endpoints",
    "circuit/out-of-bounds",
    "circuit/tile-failed",
    "circuit/bad-lane-count",
    "circuit/insufficient-tx-lanes",
    "circuit/insufficient-rx-lanes",
    "circuit/edge-exhausted",
    "circuit/budget-failed",
    "circuit/path-mismatch",
    "circuit/unknown-circuit",
    "circuit/fiber-exhausted",
    "circuit/no-fiber-link",
    "topo/out-of-bounds",
    "topo/occupied",
    "topo/duplicate-id",
    "topo/no-space",
    "route/no-disjoint-path",
    "route/no-disjoint-backup",
    "route/establish",
    "route/wavelength-exhausted",
    "route/release-unheld",
    "collective/too-few-members",
    "collective/degenerate-extent",
    "collective/establish",
    "ctrl/no-space",
    "ctrl/program-batch",
    "ctrl/program-cross",
    "ctrl/queue-timeout",
    "ctrl/retries-exhausted",
    "ctrl/replay-diverged",
    "ctrl/unknown-job",
    "ctrl/repair-failed",
    "topo/degenerate-layout",
];

impl FabricError {
    /// A fault with no lower-layer cause.
    pub fn new(kind: impl Into<FaultKind>) -> Self {
        FabricError {
            kind: kind.into(),
            source: None,
        }
    }

    /// A fault caused by a lower-layer fault.
    pub fn caused_by(kind: impl Into<FaultKind>, source: FabricError) -> Self {
        FabricError {
            kind: kind.into(),
            source: Some(Box::new(source)),
        }
    }

    /// The layer this fault originates from.
    pub fn layer(&self) -> Layer {
        match self.kind {
            FaultKind::Phy(_) => Layer::Phy,
            FaultKind::Circuit(_) => Layer::Circuit,
            FaultKind::Topo(_) => Layer::Topo,
            FaultKind::Route(_) => Layer::Route,
            FaultKind::Collective(_) => Layer::Collective,
            FaultKind::Ctrl(_) => Layer::Ctrl,
        }
    }

    /// Stable machine-readable reason code, `layer/kebab-name`.
    pub fn code(&self) -> &'static str {
        match &self.kind {
            FaultKind::Phy(e) => match e {
                PhyFault::BudgetNotClosed { .. } => "phy/budget-not-closed",
                PhyFault::BerAboveTarget { .. } => "phy/ber-above-target",
            },
            FaultKind::Circuit(e) => match e {
                CircuitFault::SameEndpoints(_) => "circuit/same-endpoints",
                CircuitFault::OutOfBounds(_) => "circuit/out-of-bounds",
                CircuitFault::TileFailed(_) => "circuit/tile-failed",
                CircuitFault::BadLaneCount(_) => "circuit/bad-lane-count",
                CircuitFault::InsufficientTxLanes { .. } => "circuit/insufficient-tx-lanes",
                CircuitFault::InsufficientRxLanes { .. } => "circuit/insufficient-rx-lanes",
                CircuitFault::EdgeExhausted(_) => "circuit/edge-exhausted",
                CircuitFault::BudgetFailed { .. } => "circuit/budget-failed",
                CircuitFault::PathMismatch => "circuit/path-mismatch",
                CircuitFault::UnknownCircuit(_) => "circuit/unknown-circuit",
                CircuitFault::FiberExhausted { .. } => "circuit/fiber-exhausted",
                CircuitFault::NoFiberLink => "circuit/no-fiber-link",
            },
            FaultKind::Topo(e) => match e {
                TopoFault::OutOfBounds => "topo/out-of-bounds",
                TopoFault::Occupied { .. } => "topo/occupied",
                TopoFault::DuplicateId(_) => "topo/duplicate-id",
                TopoFault::NoSpace => "topo/no-space",
                TopoFault::DegenerateLayout { .. } => "topo/degenerate-layout",
            },
            FaultKind::Route(e) => match e {
                RouteFault::NoDisjointPath { .. } => "route/no-disjoint-path",
                RouteFault::NoDisjointBackup => "route/no-disjoint-backup",
                RouteFault::Establish { .. } => "route/establish",
                RouteFault::WavelengthExhausted { .. } => "route/wavelength-exhausted",
                RouteFault::ReleaseUnheld { .. } => "route/release-unheld",
            },
            FaultKind::Collective(e) => match e {
                CollectiveFault::TooFewMembers { .. } => "collective/too-few-members",
                CollectiveFault::DegenerateExtent { .. } => "collective/degenerate-extent",
                CollectiveFault::Establish { .. } => "collective/establish",
            },
            FaultKind::Ctrl(e) => match e {
                CtrlFault::NoSpace { .. } => "ctrl/no-space",
                CtrlFault::ProgramBatch { .. } => "ctrl/program-batch",
                CtrlFault::ProgramCross { .. } => "ctrl/program-cross",
                CtrlFault::QueueTimeout { .. } => "ctrl/queue-timeout",
                CtrlFault::RetriesExhausted { .. } => "ctrl/retries-exhausted",
                CtrlFault::ReplayDiverged { .. } => "ctrl/replay-diverged",
                CtrlFault::UnknownJob { .. } => "ctrl/unknown-job",
                CtrlFault::RepairFailed { .. } => "ctrl/repair-failed",
            },
        }
    }

    /// The deepest fault in the source chain (`self` if there is none).
    pub fn root_cause(&self) -> &FabricError {
        let mut cur = self;
        while let Some(src) = &cur.source {
            cur = src;
        }
        cur
    }

    /// Reason code of the root cause — the most specific "why" available,
    /// used for journaled rejections and per-reason counters.
    pub fn root_code(&self) -> &'static str {
        self.root_cause().code()
    }

    /// Whether `code` is a registered reason code (CTL403 audits journaled
    /// rejections against this).
    pub fn is_valid_code(code: &str) -> bool {
        CODES.contains(&code)
    }

    /// The entities this fault (top kind only) is about.
    pub fn entities(&self) -> Vec<EntityRef> {
        match &self.kind {
            FaultKind::Phy(_) => Vec::new(),
            FaultKind::Circuit(e) => match e {
                CircuitFault::SameEndpoints(t)
                | CircuitFault::OutOfBounds(t)
                | CircuitFault::TileFailed(t) => vec![EntityRef::Tile(*t)],
                CircuitFault::InsufficientTxLanes { tile, .. }
                | CircuitFault::InsufficientRxLanes { tile, .. } => vec![EntityRef::Tile(*tile)],
                CircuitFault::EdgeExhausted(edge) => vec![EntityRef::Edge(*edge)],
                CircuitFault::UnknownCircuit(id) => vec![EntityRef::Circuit(*id)],
                _ => Vec::new(),
            },
            FaultKind::Topo(e) => match e {
                TopoFault::Occupied { x, y, z } => vec![EntityRef::Chip {
                    x: *x,
                    y: *y,
                    z: *z,
                }],
                TopoFault::DuplicateId(id) => vec![EntityRef::Job(*id)],
                _ => Vec::new(),
            },
            FaultKind::Route(e) => match e {
                RouteFault::NoDisjointPath { demand } | RouteFault::Establish { demand } => {
                    vec![EntityRef::Demand(*demand)]
                }
                RouteFault::ReleaseUnheld { edge } => vec![EntityRef::Edge(*edge)],
                _ => Vec::new(),
            },
            FaultKind::Collective(e) => match e {
                CollectiveFault::Establish { hop } => vec![EntityRef::Demand(*hop)],
                _ => Vec::new(),
            },
            FaultKind::Ctrl(e) => match e {
                CtrlFault::NoSpace { job }
                | CtrlFault::QueueTimeout { job }
                | CtrlFault::RetriesExhausted { job, .. }
                | CtrlFault::UnknownJob { job } => vec![EntityRef::Job(*job)],
                CtrlFault::ProgramBatch { wafer } => vec![EntityRef::Wafer(*wafer)],
                CtrlFault::ProgramCross { index } => vec![EntityRef::Demand(*index)],
                CtrlFault::ReplayDiverged { seq, .. } => vec![EntityRef::Seq(*seq)],
                CtrlFault::RepairFailed { incident } => vec![EntityRef::Incident(*incident)],
            },
        }
    }
}

impl fmt::Display for FabricError {
    /// Renders the whole chain: `code: message: code: message ...`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.kind)?;
        if let Some(src) = &self.source {
            write!(f, ": {src}")?;
        }
        Ok(())
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        self.source
            .as_deref()
            .map(|e| e as &(dyn std::error::Error + 'static))
    }
}

impl From<PhyFault> for FaultKind {
    fn from(e: PhyFault) -> Self {
        FaultKind::Phy(e)
    }
}

impl From<CircuitFault> for FaultKind {
    fn from(e: CircuitFault) -> Self {
        FaultKind::Circuit(e)
    }
}

impl From<TopoFault> for FaultKind {
    fn from(e: TopoFault) -> Self {
        FaultKind::Topo(e)
    }
}

impl From<RouteFault> for FaultKind {
    fn from(e: RouteFault) -> Self {
        FaultKind::Route(e)
    }
}

impl From<CollectiveFault> for FaultKind {
    fn from(e: CollectiveFault) -> Self {
        FaultKind::Collective(e)
    }
}

impl From<CtrlFault> for FaultKind {
    fn from(e: CtrlFault) -> Self {
        FaultKind::Ctrl(e)
    }
}

impl From<CircuitFault> for FabricError {
    fn from(e: CircuitFault) -> Self {
        FabricError::new(e)
    }
}

impl From<phy::link_budget::LinkInfeasible> for FabricError {
    fn from(e: phy::link_budget::LinkInfeasible) -> Self {
        FabricError::new(PhyFault::BudgetNotClosed {
            margin_db: e.margin_db,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &c in CODES {
            assert!(seen.insert(c), "duplicate code {c}");
            let (layer, name) = c.split_once('/').expect("layer/name");
            assert!(
                ["phy", "circuit", "topo", "route", "collective", "ctrl"].contains(&layer),
                "bad layer in {c}"
            );
            assert!(
                name.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'),
                "bad name in {c}"
            );
        }
    }

    #[test]
    fn every_kind_code_is_registered() {
        let samples: Vec<FabricError> = vec![
            FabricError::new(PhyFault::BudgetNotClosed { margin_db: -1.0 }),
            FabricError::new(CircuitFault::NoFiberLink),
            FabricError::new(TopoFault::NoSpace),
            FabricError::new(RouteFault::NoDisjointBackup),
            FabricError::new(CollectiveFault::TooFewMembers { members: 1 }),
            FabricError::new(CtrlFault::NoSpace { job: 3 }),
        ];
        for e in &samples {
            assert!(
                FabricError::is_valid_code(e.code()),
                "{} unregistered",
                e.code()
            );
        }
        assert!(!FabricError::is_valid_code("bogus/never"));
    }

    #[test]
    fn chain_renders_outermost_first_with_codes() {
        let root = FabricError::new(CircuitFault::EdgeExhausted(EdgeId::between(
            TileCoord::new(0, 0),
            TileCoord::new(0, 1),
        )));
        let mid = FabricError::caused_by(RouteFault::Establish { demand: 2 }, root);
        let top = FabricError::caused_by(CtrlFault::ProgramBatch { wafer: 0 }, mid);
        let s = top.to_string();
        assert!(s.starts_with("ctrl/program-batch:"));
        assert!(s.contains("route/establish"));
        assert!(s.contains("circuit/edge-exhausted"));
        assert_eq!(top.root_code(), "circuit/edge-exhausted");
        assert_eq!(top.layer(), Layer::Ctrl);
    }

    #[test]
    fn std_error_source_walks_the_chain() {
        let root = FabricError::new(CircuitFault::PathMismatch);
        let top = FabricError::caused_by(RouteFault::Establish { demand: 0 }, root.clone());
        let src = std::error::Error::source(&top).expect("has source");
        assert_eq!(src.to_string(), root.to_string());
    }
}
