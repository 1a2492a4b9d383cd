//! Control-plane state: the photonic rack, tenant table, incident log, and
//! the journal, with one set of `apply_*` mutations shared by the live
//! event loop and journal replay.
//!
//! Determinism is the design constraint everything here bends around. The
//! wafer's establish path increments its reconfiguration and circuit-id
//! counters even when a batch is later rolled back, so *failed* programming
//! attempts and *failed* repairs are journaled too and mechanically
//! re-attempted during replay — otherwise a replayed wafer would drift from
//! the live one in exactly those counters. Spare chips are chosen by a pure
//! rule (first healthy free chip in coordinate order not already reserved),
//! and every container iterated during decision-making is ordered
//! (`BTreeMap`/`BTreeSet`/coordinate order), never hash-ordered.

use crate::journal::{DenyReason, Journal, JournalEntry, JournalHeader, Record};
use crate::plan::{program_planned, ring_plan, PlanEngine, ProgramFailure};
use crate::snapshot::FabricSnapshot;
use desim::{SimDuration, SimTime, SnapReader, SnapWriter};
use lightpath::{CtrlFault, FabricCircuit, FabricError, TopoFault, WaferId, WaferTelemetry};
use phy::thermal::RECONFIG_LATENCY_S;
use resilience::{chip_to_tile, optical_repair, PhotonicRack};
use std::collections::{BTreeMap, BTreeSet};
use topo::{Coord3, Shape3, Slice, SliceId};

/// Reason code journaled when a requested shape can never fit the torus.
const INFEASIBLE_CODE: &str = "topo/out-of-bounds";

/// A tenant holding a slice and the circuits programmed for it.
#[derive(Debug)]
pub struct JobRecord {
    /// The slice the tenant occupies.
    pub slice: Slice,
    /// Live circuits: the ring plan plus any repair splices.
    pub handles: Vec<FabricCircuit>,
    /// Spare chips spliced into this tenant by repairs.
    pub spares: Vec<Coord3>,
}

/// What a successful repair did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairOutcome {
    /// Repair circuits established.
    pub circuits: usize,
    /// Servers whose wafers terminate repair circuits (victim's + spare's).
    pub servers_touched: usize,
    /// Servers whose tenant chips were disturbed — the paper's blast
    /// radius.
    pub blast_servers: usize,
    /// MZI settling time for the splice.
    pub setup: SimDuration,
}

/// One failure incident and how it was handled.
#[derive(Debug, Clone)]
pub struct IncidentRecord {
    /// Dense incident id.
    pub incident: u64,
    /// The failed chip.
    pub chip: Coord3,
    /// The tenant that owned it, if any.
    pub victim: Option<u32>,
    /// Circuits spliced out because they terminated on the failed chip.
    pub spliced: usize,
    /// The successful repair, if one was made.
    pub repair: Option<RepairOutcome>,
    /// The error of a failed repair attempt, if one was made and failed.
    pub repair_error: Option<String>,
}

/// Outcome of an admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Slice granted and circuits programmed; ready after `setup`.
    Admitted {
        /// MZI settling time before the tenant's rings can run.
        setup: SimDuration,
        /// Circuits established (the journaled `Program` record's count).
        circuits: usize,
        /// Origin of the granted slice (the journaled `Admit` record's).
        origin: Coord3,
    },
    /// No slice of the requested shape is free; the caller may queue.
    NoSpace,
    /// A slice was free but programming its circuits failed on the final
    /// attempt; the slice was released and the job denied (journaled).
    ProgramDenied {
        /// The fault chain the failing plan commit produced.
        error: FabricError,
    },
    /// A non-final attempt failed: the slice was released, a `Reject` +
    /// `Rollback` pair was journaled, and the caller may retry after
    /// backoff.
    ProgramRejected {
        /// The fault chain the failing plan commit produced.
        error: FabricError,
    },
    /// The requested shape can never fit this torus, no matter how empty
    /// it is. Journaled as a `Reject` (code `topo/out-of-bounds`) with a
    /// zero-circuit `Rollback`; queueing or retrying cannot help.
    Infeasible {
        /// The topology fault describing the impossible extent.
        error: FabricError,
    },
}

/// The control plane's entire mutable world.
#[derive(Debug)]
pub struct FabricState {
    rack: PhotonicRack,
    lanes: usize,
    jobs: BTreeMap<u32, JobRecord>,
    incidents: Vec<IncidentRecord>,
    /// Spares spliced into running tenants; excluded from replacement
    /// choice until their tenant departs.
    reserved: BTreeSet<Coord3>,
    journal: Journal,
    /// Routing scratch and plan caches shared by every plan this daemon
    /// programs — one A* searcher per campaign (retries and replays never
    /// allocate a fresh scratch) plus the plan library and cross-plan
    /// cache. Pure accelerator: excluded from snapshots and
    /// fingerprints because a cold engine reproduces identical bytes.
    plans: PlanEngine,
    /// Replay bookkeeping: a `Reject` record awaiting its paired
    /// `Rollback` — `(job, attempt, circuits rolled back)`.
    pending_rollback: Option<(u32, u32, usize)>,
}

impl FabricState {
    /// A fresh fabric of `racks` TPUv4 racks with an empty journal.
    pub fn new(racks: usize, lanes: usize, seed: u64) -> Self {
        let rack = PhotonicRack::new(racks);
        let shape = rack.cluster.occupancy().shape();
        FabricState {
            rack,
            lanes,
            jobs: BTreeMap::new(),
            incidents: Vec::new(),
            reserved: BTreeSet::new(),
            journal: Journal::new(JournalHeader {
                racks,
                lanes,
                seed,
                shape,
            }),
            plans: PlanEngine::new(),
            pending_rollback: None,
        }
    }

    /// The underlying photonic rack.
    pub fn rack(&self) -> &PhotonicRack {
        &self.rack
    }

    /// The command journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The plan engine (routing scratch + plan caches), for telemetry.
    pub fn plan_engine(&self) -> &PlanEngine {
        &self.plans
    }

    /// Failure incidents, in injection order.
    pub fn incidents(&self) -> &[IncidentRecord] {
        &self.incidents
    }

    /// Tenants currently holding slices.
    pub fn live_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Per-wafer telemetry snapshots, in wafer-id order. Two states whose
    /// snapshots are equal ended in the same observable fabric state.
    pub fn telemetry(&self) -> Vec<WaferTelemetry> {
        (0..self.rack.fabric.wafer_count())
            .map(|w| self.rack.fabric.wafer(WaferId(w)).telemetry())
            .collect()
    }

    /// Instantaneous utilization gauges for metric sampling.
    pub fn utilization(&self) -> Utilization {
        let occ = self.rack.cluster.occupancy();
        let total = occ.shape().volume() as f64;
        let used: usize = occ.slices().map(|s| s.chips()).sum();
        let mut circuits = self.rack.fabric.cross_circuits().count();
        let mut reconfigs = 0u64;
        let mut gbps = 0.0;
        for w in 0..self.rack.fabric.wafer_count() {
            let wafer = self.rack.fabric.wafer(WaferId(w));
            circuits += wafer.circuits().count();
            reconfigs += wafer.reconfigs();
            gbps += wafer.aggregate_bandwidth().0;
        }
        Utilization {
            occupancy: used as f64 / total,
            circuits,
            reconfigs,
            aggregate_gbps: gbps,
        }
    }

    // ------------------------------------------------- snapshot layer ----

    /// FNV-1a fingerprint of the canonical serialization of all replayed
    /// state: config binding (racks/lanes/seed), occupancy, the full
    /// photonic fabric, tenant table, incidents, reserved spares, and
    /// replay bookkeeping. The journal itself is *excluded* — a replayed
    /// state carries an empty journal yet must fingerprint identically to
    /// the live state it reproduces — and so is the routing scratch
    /// (semantically stateless).
    pub fn fingerprint(&self) -> u64 {
        desim::snap::fingerprint(&self.state_text())
    }

    /// The canonical state text [`fingerprint`](Self::fingerprint) hashes,
    /// written from scratch: the bytes a snapshot captured here carries.
    pub fn state_text(&self) -> String {
        let mut w = SnapWriter::new();
        self.write_state(&mut w);
        w.finish()
    }

    /// Capture a canonical snapshot at instant `at` and journal the
    /// [`JournalEntry::Snapshot`] record committing to its fingerprint.
    ///
    /// Protocol: the snapshot's `seq` is the Snapshot record's own
    /// sequence number and its `base_fnv` is the journal hash fold *before*
    /// that record, so [`FabricSnapshot::restore`]'s resumed journal — base
    /// at `seq`, the identical Snapshot record re-pushed first — chains to
    /// byte-identical hashes with the uninterrupted run.
    pub fn capture_snapshot(&mut self, at: SimTime) -> FabricSnapshot {
        let seq = self.journal.next_seq();
        let base_fnv = self.journal.seal();
        let w = self.write_state_cached();
        let fingerprint = w.fingerprint();
        let state = w.finish();
        self.journal
            .push(at, JournalEntry::Snapshot { fingerprint });
        FabricSnapshot {
            at,
            seq,
            base_fnv,
            fingerprint,
            header: *self.journal.header(),
            state,
        }
    }

    /// Truncate journal records below `watermark`, which must be the
    /// sequence number of a captured snapshot's `Snapshot` record (see
    /// [`Journal::compact_to`]). Downward-only; the journal hash and
    /// logical length are invariant.
    pub fn compact_journal(&mut self, watermark: u64) -> Result<usize, String> {
        self.journal.compact_to(watermark)
    }

    /// Canonical encoding of all replayed state (see
    /// [`fingerprint`](Self::fingerprint) for what is covered and why the
    /// journal is not).
    fn write_state(&self, w: &mut SnapWriter) {
        self.write_occupancy(w);
        self.rack.fabric.write_snap(w);
        self.write_tenants(w);
    }

    /// [`write_state`](Self::write_state)'s bytes, with the fabric written
    /// through its per-wafer text cache: only wafers that changed since the
    /// last cached write are re-serialized.
    fn write_state_cached(&mut self) -> SnapWriter {
        let mut w = SnapWriter::new();
        self.write_occupancy(&mut w);
        self.rack.fabric.write_snap_cached(&mut w);
        self.write_tenants(&mut w);
        w
    }

    /// The config binding and the occupancy map: the state text before
    /// the fabric.
    fn write_occupancy(&self, w: &mut SnapWriter) {
        let h = self.journal.header();
        w.section("state");
        w.u64("racks", h.racks as u64);
        w.u64("lanes", h.lanes as u64);
        w.u64("seed", h.seed);

        w.section("occupancy");
        let occ = self.rack.cluster.occupancy();
        let slices: Vec<_> = occ.slices().collect();
        w.u64("slices", slices.len() as u64);
        for s in slices {
            w.u64("id", s.id.0 as u64);
            let [ox, oy, oz] = s.origin.p;
            for (k, v) in [("ox", ox), ("oy", oy), ("oz", oz)] {
                w.u64(k, v as u64);
            }
            let [ex, ey, ez] = s.extent.dims;
            for (k, v) in [("ex", ex), ("ey", ey), ("ez", ez)] {
                w.u64(k, v as u64);
            }
        }
        let failed: Vec<Coord3> = occ.shape().coords().filter(|&c| occ.is_failed(c)).collect();
        w.u64("failed", failed.len() as u64);
        for c in failed {
            let [x, y, z] = c.p;
            w.u64("x", x as u64);
            w.u64("y", y as u64);
            w.u64("z", z as u64);
        }
    }

    /// Tenants, incidents, reserved spares and replay bookkeeping: the
    /// state text after the fabric.
    fn write_tenants(&self, w: &mut SnapWriter) {
        w.section("jobs");
        w.u64("count", self.jobs.len() as u64);
        for (job, rec) in &self.jobs {
            w.u64("job", *job as u64);
            let [ox, oy, oz] = rec.slice.origin.p;
            let [ex, ey, ez] = rec.slice.extent.dims;
            w.u64("ox", ox as u64);
            w.u64("oy", oy as u64);
            w.u64("oz", oz as u64);
            w.u64("ex", ex as u64);
            w.u64("ey", ey as u64);
            w.u64("ez", ez as u64);
            w.u64("handles", rec.handles.len() as u64);
            for h in &rec.handles {
                match h {
                    FabricCircuit::Wafer(wid, cid) => {
                        w.u64("kind", 0);
                        w.u64("wafer", wid.0 as u64);
                        w.u64("ckt", cid.raw());
                    }
                    FabricCircuit::Cross(cid) => {
                        w.u64("kind", 1);
                        w.u64("cross", cid.raw());
                    }
                }
            }
            w.u64("spares", rec.spares.len() as u64);
            for s in &rec.spares {
                let [x, y, z] = s.p;
                w.u64("x", x as u64);
                w.u64("y", y as u64);
                w.u64("z", z as u64);
            }
        }

        w.section("incidents");
        w.u64("count", self.incidents.len() as u64);
        for i in &self.incidents {
            w.u64("incident", i.incident);
            let [x, y, z] = i.chip.p;
            w.u64("x", x as u64);
            w.u64("y", y as u64);
            w.u64("z", z as u64);
            match i.victim {
                Some(v) => {
                    w.bool("has_victim", true);
                    w.u64("victim", v as u64);
                }
                None => w.bool("has_victim", false),
            }
            w.u64("spliced", i.spliced as u64);
            match &i.repair {
                Some(rep) => {
                    w.bool("has_repair", true);
                    w.u64("circuits", rep.circuits as u64);
                    w.u64("servers_touched", rep.servers_touched as u64);
                    w.u64("blast_servers", rep.blast_servers as u64);
                    w.u64("setup_ps", rep.setup.as_ps());
                }
                None => w.bool("has_repair", false),
            }
            match &i.repair_error {
                Some(e) => {
                    w.bool("has_repair_error", true);
                    w.str("repair_error", e);
                }
                None => w.bool("has_repair_error", false),
            }
        }

        w.section("reserved");
        w.u64("count", self.reserved.len() as u64);
        for c in &self.reserved {
            let [x, y, z] = c.p;
            w.u64("x", x as u64);
            w.u64("y", y as u64);
            w.u64("z", z as u64);
        }

        w.section("pending");
        match self.pending_rollback {
            Some((job, attempt, circuits)) => {
                w.bool("has", true);
                w.u64("job", job as u64);
                w.u64("attempt", attempt as u64);
                w.u64("circuits", circuits as u64);
            }
            None => w.bool("has", false),
        }
    }

    /// Rebuild a state from a [`write_state`](Self::write_state) body,
    /// adopting `journal` as the (resumed or empty) journal. The fabric is
    /// re-fabricated from the header template and the recorded mutable
    /// state applied on top.
    pub(crate) fn restore_body(
        journal: Journal,
        r: &mut SnapReader<'_>,
    ) -> Result<FabricState, String> {
        r.section("state")?;
        let racks = r.u64("racks")? as usize;
        let lanes = r.u64("lanes")? as usize;
        let seed = r.u64("seed")?;
        let h = *journal.header();
        if racks != h.racks || lanes != h.lanes || seed != h.seed {
            return Err(format!(
                "state restore: snapshot config ({racks}, {lanes}, {seed}) does not match \
                 journal header ({}, {}, {})",
                h.racks, h.lanes, h.seed
            ));
        }
        let mut st = FabricState::new(racks, lanes, seed);
        st.journal = journal;

        r.section("occupancy")?;
        let slices = r.u64("slices")? as usize;
        for _ in 0..slices {
            let id = u32::try_from(r.u64("id")?)
                .map_err(|_| "state restore: slice id exceeds u32".to_string())?;
            let ox = r.u64("ox")? as usize;
            let oy = r.u64("oy")? as usize;
            let oz = r.u64("oz")? as usize;
            let ex = r.u64("ex")? as usize;
            let ey = r.u64("ey")? as usize;
            let ez = r.u64("ez")? as usize;
            st.rack
                .cluster
                .occupancy_mut()
                .place(Slice::new(
                    id,
                    Coord3::new(ox, oy, oz),
                    Shape3::new(ex, ey, ez),
                ))
                .map_err(|e| format!("state restore: slice {id} placement rejected: {e:?}"))?;
        }
        let failed = r.u64("failed")? as usize;
        for _ in 0..failed {
            let x = r.u64("x")? as usize;
            let y = r.u64("y")? as usize;
            let z = r.u64("z")? as usize;
            st.rack
                .cluster
                .occupancy_mut()
                .fail_chip(Coord3::new(x, y, z));
        }

        st.rack.fabric.read_snap(r)?;

        r.section("jobs")?;
        let jobs = r.u64("count")? as usize;
        // Every circuit a cross circuit or a tenant already holds: a second
        // holder would tear it down twice, or leave it held by no one.
        let mut held: BTreeSet<FabricCircuit> = st
            .rack
            .fabric
            .cross_circuits()
            .flat_map(|c| &c.segments)
            .map(|&(w, id)| FabricCircuit::Wafer(w, id))
            .collect();
        for _ in 0..jobs {
            let job = u32::try_from(r.u64("job")?)
                .map_err(|_| "state restore: job id exceeds u32".to_string())?;
            let ox = r.u64("ox")? as usize;
            let oy = r.u64("oy")? as usize;
            let oz = r.u64("oz")? as usize;
            let ex = r.u64("ex")? as usize;
            let ey = r.u64("ey")? as usize;
            let ez = r.u64("ez")? as usize;
            let nh = r.u64("handles")? as usize;
            let mut handles = Vec::new();
            for _ in 0..nh {
                let handle = match r.u64("kind")? {
                    0 => FabricCircuit::Wafer(
                        WaferId(r.u64("wafer")? as usize),
                        lightpath::CircuitId::from_raw(r.u64("ckt")?),
                    ),
                    1 => FabricCircuit::Cross(lightpath::CrossCircuitId::from_raw(r.u64("cross")?)),
                    k => return Err(format!("state restore: bad handle kind {k}")),
                };
                // A tenant tears its handles down on departure, so each must
                // name a circuit the restored fabric holds.
                let fabric = &st.rack.fabric;
                let live = match handle {
                    FabricCircuit::Wafer(w, id) => {
                        w.0 < fabric.wafer_count() && fabric.wafer(w).circuit(id).is_some()
                    }
                    FabricCircuit::Cross(id) => fabric.cross_circuit(id).is_some(),
                };
                if !live {
                    return Err(format!(
                        "state restore: job {job} holds {handle:?}, which is not live"
                    ));
                }
                if !held.insert(handle) {
                    return Err(format!(
                        "state restore: job {job} holds {handle:?}, which is already held"
                    ));
                }
                handles.push(handle);
            }
            let ns = r.u64("spares")? as usize;
            let mut spares = Vec::new();
            for _ in 0..ns {
                let x = r.u64("x")? as usize;
                let y = r.u64("y")? as usize;
                let z = r.u64("z")? as usize;
                spares.push(Coord3::new(x, y, z));
            }
            st.jobs.insert(
                job,
                JobRecord {
                    slice: Slice::new(job, Coord3::new(ox, oy, oz), Shape3::new(ex, ey, ez)),
                    handles,
                    spares,
                },
            );
        }

        r.section("incidents")?;
        let incidents = r.u64("count")? as usize;
        for _ in 0..incidents {
            let incident = r.u64("incident")?;
            let x = r.u64("x")? as usize;
            let y = r.u64("y")? as usize;
            let z = r.u64("z")? as usize;
            let victim = if r.bool("has_victim")? {
                Some(
                    u32::try_from(r.u64("victim")?)
                        .map_err(|_| "state restore: victim exceeds u32".to_string())?,
                )
            } else {
                None
            };
            let spliced = r.u64("spliced")? as usize;
            let repair = if r.bool("has_repair")? {
                Some(RepairOutcome {
                    circuits: r.u64("circuits")? as usize,
                    servers_touched: r.u64("servers_touched")? as usize,
                    blast_servers: r.u64("blast_servers")? as usize,
                    setup: SimDuration::from_ps(r.u64("setup_ps")?),
                })
            } else {
                None
            };
            let repair_error = if r.bool("has_repair_error")? {
                Some(r.str("repair_error")?)
            } else {
                None
            };
            st.incidents.push(IncidentRecord {
                incident,
                chip: Coord3::new(x, y, z),
                victim,
                spliced,
                repair,
                repair_error,
            });
        }

        r.section("reserved")?;
        let reserved = r.u64("count")? as usize;
        for _ in 0..reserved {
            let x = r.u64("x")? as usize;
            let y = r.u64("y")? as usize;
            let z = r.u64("z")? as usize;
            st.reserved.insert(Coord3::new(x, y, z));
        }

        r.section("pending")?;
        if r.bool("has")? {
            let job = u32::try_from(r.u64("job")?)
                .map_err(|_| "state restore: pending job exceeds u32".to_string())?;
            let attempt = u32::try_from(r.u64("attempt")?)
                .map_err(|_| "state restore: pending attempt exceeds u32".to_string())?;
            let circuits = r.u64("circuits")? as usize;
            st.pending_rollback = Some((job, attempt, circuits));
        }

        Ok(st)
    }

    // ------------------------------------------------------- live ops ----

    /// True when `shape` exceeds the torus in some dimension (or is
    /// empty): no eviction schedule can ever make it placeable, so
    /// admission rejects it outright instead of queueing it.
    fn shape_infeasible(&self, shape: Shape3) -> bool {
        let torus = self.rack.cluster.occupancy().shape();
        shape
            .dims
            .iter()
            .zip(torus.dims.iter())
            .any(|(&s, &t)| s == 0 || s > t)
    }

    /// Try to admit `job`: place a best-fit slice, program its ring. On
    /// success journals `Admit` + `Program` + `Reconfigure`; a programming
    /// failure releases the slice and journals a `Deny`.
    pub fn admit(&mut self, now: SimTime, job: u32, shape: Shape3) -> Admission {
        self.admit_retryable(now, job, shape, 0, true)
    }

    /// [`FabricState::admit`] with retry semantics: `attempt` is the
    /// zero-based attempt index and `last` marks the final try. A
    /// programming failure on the final attempt journals the legacy
    /// `Deny { ProgramFailed }`; a non-final failure journals a
    /// machine-readable `Reject` (carrying the root fault code) plus its
    /// paired `Rollback`, and the caller re-queues the job. Both paths
    /// release the slice before returning, so a rejected plan leaves the
    /// occupancy untouched.
    pub fn admit_retryable(
        &mut self,
        now: SimTime,
        job: u32,
        shape: Shape3,
        attempt: u32,
        last: bool,
    ) -> Admission {
        if self.shape_infeasible(shape) {
            // An impossible extent is a plan error, not congestion: reject
            // it immediately with a machine-readable code instead of
            // parking it in the queue until timeout.
            self.journal.push(
                now,
                JournalEntry::Reject {
                    job,
                    shape,
                    attempt,
                    code: INFEASIBLE_CODE,
                },
            );
            self.journal.push(
                now,
                JournalEntry::Rollback {
                    job,
                    attempt,
                    circuits: 0,
                },
            );
            return Admission::Infeasible {
                error: FabricError::new(TopoFault::OutOfBounds),
            };
        }
        let slice = match self.rack.cluster.occupancy_mut().place_best_fit(job, shape) {
            Ok(s) => s,
            Err(_) => return Admission::NoSpace,
        };
        let plan = ring_plan(&self.rack.cluster, &slice, self.lanes);
        match program_planned(&mut self.rack.fabric, &plan, &mut self.plans) {
            Ok(handles) => {
                let circuits = handles.len();
                self.journal.push(
                    now,
                    JournalEntry::Admit {
                        job,
                        origin: slice.origin,
                        extent: slice.extent,
                    },
                );
                self.journal.push(
                    now,
                    JournalEntry::Program {
                        job,
                        circuits,
                        batches: plan.batches.len(),
                        cross: plan.cross.len(),
                    },
                );
                self.journal.push(
                    now,
                    JournalEntry::Reconfigure {
                        job,
                        micros: RECONFIG_LATENCY_S * 1e6,
                    },
                );
                self.jobs.insert(
                    job,
                    JobRecord {
                        slice,
                        handles,
                        spares: Vec::new(),
                    },
                );
                Admission::Admitted {
                    setup: SimDuration::from_secs_f64(RECONFIG_LATENCY_S),
                    circuits,
                    origin: slice.origin,
                }
            }
            Err(failure) => {
                self.rack.cluster.occupancy_mut().remove(SliceId(job));
                if last {
                    self.journal.push(
                        now,
                        JournalEntry::Deny {
                            job,
                            shape,
                            reason: DenyReason::ProgramFailed,
                        },
                    );
                    Admission::ProgramDenied {
                        error: failure.error,
                    }
                } else {
                    self.journal.push(
                        now,
                        JournalEntry::Reject {
                            job,
                            shape,
                            attempt,
                            code: failure.error.root_code(),
                        },
                    );
                    self.journal.push(
                        now,
                        JournalEntry::Rollback {
                            job,
                            attempt,
                            circuits: failure.rolled_back,
                        },
                    );
                    Admission::ProgramRejected {
                        error: failure.error,
                    }
                }
            }
        }
    }

    /// Journal a queue-timeout denial (no fabric state changes).
    pub fn deny_timeout(&mut self, now: SimTime, job: u32, shape: Shape3) {
        self.journal.push(
            now,
            JournalEntry::Deny {
                job,
                shape,
                reason: DenyReason::QueueTimeout,
            },
        );
    }

    /// Evict a departing tenant: tear down its circuits (ring + repair
    /// splices), free its slice, release its reserved spares.
    pub fn evict(&mut self, now: SimTime, job: u32) {
        if self.apply_evict(job) {
            self.journal.push(now, JournalEntry::Evict { job });
        }
    }

    /// Inject a failure on the first in-coordinate-order chip owned by a
    /// multi-chip tenant, then orchestrate optical repair with the first
    /// unreserved healthy free chip. Journals `Fail` and `Repair` /
    /// `RepairFailed`. Returns the incident, or `None` when no eligible
    /// chip exists (nothing is journaled then).
    pub fn inject_failure(&mut self, now: SimTime) -> Option<&IncidentRecord> {
        let chip = {
            let occ = self.rack.cluster.occupancy();
            occ.shape().coords().find(|&c| {
                !occ.is_failed(c)
                    && occ
                        .owner(c)
                        .and_then(|id| occ.slice(id))
                        .is_some_and(|s| s.chips() >= 2)
            })?
        };
        let incident = self.incidents.len() as u64;
        let (victim, spliced) = self.apply_fail(chip);
        self.journal.push(
            now,
            JournalEntry::Fail {
                incident,
                chip,
                victim,
                spliced,
            },
        );
        let mut rec = IncidentRecord {
            incident,
            chip,
            victim,
            spliced,
            repair: None,
            repair_error: None,
        };
        if let Some(v) = victim {
            let replacement = {
                let occ = self.rack.cluster.occupancy();
                occ.healthy_free_chips()
                    .into_iter()
                    .find(|c| !self.reserved.contains(c))
            };
            if let Some(spare) = replacement {
                match self.apply_repair(chip, v, spare) {
                    Ok(out) => {
                        self.journal.push(
                            now,
                            JournalEntry::Repair {
                                incident,
                                replacement: spare,
                                circuits: out.circuits,
                                servers_touched: out.servers_touched,
                                blast_servers: out.blast_servers,
                            },
                        );
                        rec.repair = Some(out);
                    }
                    Err(error) => {
                        self.journal.push(
                            now,
                            JournalEntry::RepairFailed {
                                incident,
                                replacement: spare,
                                error: error.clone(),
                            },
                        );
                        rec.repair_error = Some(error);
                    }
                }
            }
        }
        self.incidents.push(rec);
        self.incidents.last()
    }

    // --------------------------------------------- shared apply layer ----

    /// Fail `chip`: mark it failed in the allocator and on its wafer, and
    /// splice out the victim's circuits that *terminate* there (light still
    /// passes through a failed tile). Returns the victim and splice count.
    fn apply_fail(&mut self, chip: Coord3) -> (Option<u32>, usize) {
        let victim = self.rack.cluster.occupancy().owner(chip).map(|s| s.0);
        self.rack.cluster.occupancy_mut().fail_chip(chip);
        let (w, t) = chip_to_tile(&self.rack.cluster, chip);
        self.rack.fabric.wafer_mut(w).fail_tile(t);
        let mut spliced = 0;
        if let Some(v) = victim {
            if let Some(rec) = self.jobs.get_mut(&v) {
                let handles = std::mem::take(&mut rec.handles);
                let mut kept = Vec::with_capacity(handles.len());
                for h in handles {
                    let terminates = match h {
                        FabricCircuit::Wafer(wid, cid) => {
                            wid == w && self.rack.fabric.wafer(wid).circuits_at(t).contains(&cid)
                        }
                        FabricCircuit::Cross(cid) => self
                            .rack
                            .fabric
                            .cross_circuit(cid)
                            .is_some_and(|c| c.src == (w, t) || c.dst == (w, t)),
                    };
                    if terminates {
                        let _ = self.rack.fabric.teardown_handle(h);
                        spliced += 1;
                    } else {
                        kept.push(h);
                    }
                }
                rec.handles = kept;
            }
        }
        (victim, spliced)
    }

    /// Splice `replacement` into `victim`'s broken ring around `chip`.
    /// Atomic (a failed attempt changes no circuit state) and journal-free;
    /// callers journal.
    fn apply_repair(
        &mut self,
        chip: Coord3,
        victim: u32,
        replacement: Coord3,
    ) -> Result<RepairOutcome, String> {
        let slice = match self.jobs.get(&victim) {
            Some(r) => Slice::new(victim, r.slice.origin, r.slice.extent),
            None => return Err(format!("victim job {victim} not live")),
        };
        let report =
            optical_repair(&mut self.rack, &slice, chip, replacement).map_err(|e| e.to_string())?;
        self.reserved.insert(replacement);
        if let Some(rec) = self.jobs.get_mut(&victim) {
            rec.handles.extend(report.handles.iter().copied());
            rec.spares.push(replacement);
        }
        Ok(RepairOutcome {
            circuits: report.circuits,
            // Tenant chips disturbed by the repair all sit on the failed
            // chip's own server: the spare was free and pass-through wafers
            // never terminate circuits — the paper's 1-server blast radius.
            blast_servers: 1,
            servers_touched: report.servers_touched,
            setup: report.setup,
        })
    }

    /// Remove a tenant and every resource it holds. True if it was live.
    fn apply_evict(&mut self, job: u32) -> bool {
        match self.jobs.remove(&job) {
            Some(rec) => {
                for h in rec.handles.into_iter().rev() {
                    let _ = self.rack.fabric.teardown_handle(h);
                }
                self.rack.cluster.occupancy_mut().remove(SliceId(job));
                for s in rec.spares {
                    self.reserved.remove(&s);
                }
                true
            }
            None => false,
        }
    }

    /// Re-run a failed admission attempt on replay: best-fit place `shape`,
    /// plan and program its ring, and release the slice again, so the
    /// wafers' reconfiguration and circuit-id counters advance exactly as
    /// they did live. Returns the programming failure. A placement that
    /// differs from live, or programming that succeeds (its circuits are
    /// torn down again), is a divergence; `live` says how the attempt
    /// ended live (`denied` or `rejected`).
    fn replay_failed_attempt(
        &mut self,
        seq: u64,
        job: u32,
        shape: Shape3,
        live: &str,
    ) -> Result<ProgramFailure, FabricError> {
        let slice = self
            .rack
            .cluster
            .occupancy_mut()
            .place_best_fit(job, shape)
            .map_err(|e| replay_diverged(seq, format!("{live} job placed differently: {e:?}")))?;
        let plan = ring_plan(&self.rack.cluster, &slice, self.lanes);
        let outcome = program_planned(&mut self.rack.fabric, &plan, &mut self.plans);
        self.rack.cluster.occupancy_mut().remove(SliceId(job));
        match outcome {
            Err(failure) => Ok(failure),
            Ok(handles) => {
                for h in handles.into_iter().rev() {
                    let _ = self.rack.fabric.teardown_handle(h);
                }
                Err(replay_diverged(
                    seq,
                    format!("programming succeeded on replay but was {live} live"),
                ))
            }
        }
    }

    /// Replay a `Reject`: re-run the failed non-final attempt, verify the
    /// failure reproduces the journaled reason code, and stage the pairing
    /// check for the record's `Rollback`.
    fn apply_reject(
        &mut self,
        seq: u64,
        job: u32,
        shape: Shape3,
        attempt: u32,
        code: &str,
    ) -> Result<(), FabricError> {
        if let Some((j, a, _)) = self.pending_rollback {
            return Err(replay_diverged(
                seq,
                format!("reject while rollback of job {j} attempt {a} still pending"),
            ));
        }
        if self.shape_infeasible(shape) {
            // Live admission rejected this shape before touching the
            // fabric; replay does the same, so there is nothing to re-run.
            if code != INFEASIBLE_CODE {
                return Err(replay_diverged(
                    seq,
                    format!(
                        "infeasible shape journaled with code {code}, expected {INFEASIBLE_CODE}"
                    ),
                ));
            }
            self.pending_rollback = Some((job, attempt, 0));
            return Ok(());
        }
        let failure = self.replay_failed_attempt(seq, job, shape, "rejected")?;
        let live = failure.error.root_code();
        if live != code {
            return Err(replay_diverged(
                seq,
                format!("reject reason diverged: replay {live}, journal {code}"),
            ));
        }
        self.pending_rollback = Some((job, attempt, failure.rolled_back));
        Ok(())
    }

    /// Apply one journal record to this state (replay path).
    fn apply_record(&mut self, r: &Record) -> Result<(), FabricError> {
        let diverged = |what: String| replay_diverged(r.seq, what);
        match &r.entry {
            JournalEntry::Admit {
                job,
                origin,
                extent,
            } => {
                self.rack
                    .cluster
                    .occupancy_mut()
                    .place(Slice::new(*job, *origin, *extent))
                    .map_err(|e| diverged(format!("admit placement rejected: {e:?}")))?;
                self.jobs.insert(
                    *job,
                    JobRecord {
                        slice: Slice::new(*job, *origin, *extent),
                        handles: Vec::new(),
                        spares: Vec::new(),
                    },
                );
                Ok(())
            }
            JournalEntry::Program { job, circuits, .. } => {
                let slice = match self.jobs.get(job) {
                    Some(rec) => Slice::new(*job, rec.slice.origin, rec.slice.extent),
                    None => return Err(diverged(format!("program for unknown job {job}"))),
                };
                let plan = ring_plan(&self.rack.cluster, &slice, self.lanes);
                match program_planned(&mut self.rack.fabric, &plan, &mut self.plans)
                    .map_err(|f| f.error)
                {
                    Ok(handles) if handles.len() == *circuits => {
                        if let Some(rec) = self.jobs.get_mut(job) {
                            rec.handles = handles;
                        }
                        Ok(())
                    }
                    Ok(handles) => Err(diverged(format!(
                        "programmed {} circuits, journal says {circuits}",
                        handles.len()
                    ))),
                    Err(e) => Err(diverged(format!("programming failed on replay: {e}"))),
                }
            }
            JournalEntry::Reconfigure { .. } => Ok(()),
            // Pod-level record: legs are admitted per-domain as ordinary
            // `Admit` records in each shard journal; the stitch record only
            // exists in the pod journal and carries no per-domain state.
            JournalEntry::MultiGroupAdmit { .. } => Ok(()),
            JournalEntry::Deny { job, shape, reason } => match reason {
                DenyReason::QueueTimeout => Ok(()),
                DenyReason::ProgramFailed => self
                    .replay_failed_attempt(r.seq, *job, *shape, "denied")
                    .map(drop),
            },
            JournalEntry::Reject {
                job,
                shape,
                attempt,
                code,
            } => self.apply_reject(r.seq, *job, *shape, *attempt, code),
            JournalEntry::Rollback {
                job,
                attempt,
                circuits,
            } => match self.pending_rollback.take() {
                Some((j, a, c)) if j == *job && a == *attempt && c == *circuits => Ok(()),
                Some((j, a, c)) => Err(diverged(format!(
                    "rollback mismatch: journal job {job} attempt {attempt} \
                     circuits {circuits}, replay job {j} attempt {a} circuits {c}"
                ))),
                None => Err(diverged("rollback without a preceding reject".to_string())),
            },
            JournalEntry::Fail {
                incident,
                chip,
                victim,
                spliced,
            } => {
                if *incident != self.incidents.len() as u64 {
                    return Err(diverged(format!(
                        "incident {incident} out of order (expected {})",
                        self.incidents.len()
                    )));
                }
                let (v, s) = self.apply_fail(*chip);
                if v != *victim || s != *spliced {
                    return Err(diverged(format!(
                        "failure outcome diverged: victim {v:?} spliced {s}, \
                         journal says {victim:?} / {spliced}"
                    )));
                }
                self.incidents.push(IncidentRecord {
                    incident: *incident,
                    chip: *chip,
                    victim: v,
                    spliced: s,
                    repair: None,
                    repair_error: None,
                });
                Ok(())
            }
            JournalEntry::Repair {
                incident,
                replacement,
                circuits,
                ..
            } => {
                let idx = *incident as usize;
                let (chip, victim) = match self.incidents.get(idx) {
                    Some(i) => (i.chip, i.victim),
                    None => return Err(diverged(format!("repair of unknown incident {incident}"))),
                };
                let v = victim
                    .ok_or_else(|| diverged("repair of a victimless incident".to_string()))?;
                match self.apply_repair(chip, v, *replacement) {
                    Ok(out) if out.circuits == *circuits => {
                        if let Some(i) = self.incidents.get_mut(idx) {
                            i.repair = Some(out);
                        }
                        Ok(())
                    }
                    Ok(out) => Err(diverged(format!(
                        "repair made {} circuits, journal says {circuits}",
                        out.circuits
                    ))),
                    Err(e) => Err(diverged(format!("repair failed on replay: {e}"))),
                }
            }
            JournalEntry::RepairFailed {
                incident,
                replacement,
                ..
            } => {
                let idx = *incident as usize;
                let (chip, victim) = match self.incidents.get(idx) {
                    Some(i) => (i.chip, i.victim),
                    None => {
                        return Err(diverged(format!(
                            "failed repair of unknown incident {incident}"
                        )))
                    }
                };
                let v = victim
                    .ok_or_else(|| diverged("repair of a victimless incident".to_string()))?;
                match self.apply_repair(chip, v, *replacement) {
                    Ok(_) => Err(diverged(
                        "repair succeeded on replay but failed live".to_string(),
                    )),
                    Err(e) => {
                        if let Some(i) = self.incidents.get_mut(idx) {
                            i.repair_error = Some(e);
                        }
                        Ok(())
                    }
                }
            }
            JournalEntry::Evict { job } => {
                if self.apply_evict(*job) {
                    Ok(())
                } else {
                    Err(diverged(format!("evict of unknown job {job}")))
                }
            }
            JournalEntry::Snapshot { fingerprint } => {
                // The record commits to the state after every earlier
                // record; replay must have reproduced it bit-exactly here.
                // This is the invariant verify CTL406 audits end-to-end.
                let fp = self.write_state_cached().fingerprint();
                if fp == *fingerprint {
                    Ok(())
                } else {
                    Err(diverged(format!(
                        "snapshot fingerprint diverged: replayed state {fp:#018x}, \
                         journal committed {fingerprint:#018x}"
                    )))
                }
            }
        }
    }
}

/// Instantaneous fabric gauges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Fraction of chips owned by tenants.
    pub occupancy: f64,
    /// Live circuits, fabric-wide (intra-wafer + cross-wafer handles).
    pub circuits: usize,
    /// Cumulative MZI reconfigurations, fabric-wide.
    pub reconfigs: u64,
    /// Aggregate circuit bandwidth, Gb/s.
    pub aggregate_gbps: f64,
}

/// A replay-divergence fault anchored at journal sequence `seq`.
fn replay_diverged(seq: u64, what: String) -> FabricError {
    FabricError::new(CtrlFault::ReplayDiverged { seq, what })
}

/// Rebuild the final fabric state by replaying `journal` against a fresh
/// rack. The replayed state's own journal stays empty; determinism is
/// asserted by comparing [`FabricState::telemetry`] snapshots (and tested
/// property-style in `tests/properties.rs`). A record the fresh fabric
/// cannot reproduce yields a [`CtrlFault::ReplayDiverged`] fault.
pub fn replay(journal: &Journal) -> Result<FabricState, FabricError> {
    if journal.base_seq() != 0 {
        return Err(replay_diverged(
            journal.base_seq(),
            format!(
                "journal was compacted to seq {}; replay from scratch needs the \
                 full record stream — use replay_from with the matching snapshot",
                journal.base_seq()
            ),
        ));
    }
    let h = *journal.header();
    replay_tail(FabricState::new(h.racks, h.lanes, h.seed), journal, 0)
}

/// Delta replay: restore `snap` and fold only the journal tail above the
/// snapshot watermark. Cost is O(tail), not O(journal) — this is what makes
/// crash-restart of long campaigns cheap.
///
/// `journal` may be the uninterrupted original or a compacted journal whose
/// base is at (or below) the snapshot's sequence number; records at or below
/// `snap.seq` are skipped (the snapshot already embodies them). The restored
/// state re-verifies the snapshot fingerprint, and any later `Snapshot`
/// record in the tail re-checks state equality (CTL406 semantics).
pub fn replay_from(snap: &FabricSnapshot, journal: &Journal) -> Result<FabricState, FabricError> {
    let st = snap.restore()?;
    if *journal.header() != snap.header {
        return Err(replay_diverged(
            snap.seq,
            "journal header does not match the snapshot's campaign binding".to_string(),
        ));
    }
    let base = journal.base_seq();
    if base > snap.seq {
        return Err(replay_diverged(
            base,
            format!(
                "journal compacted past the snapshot: base seq {base} > snapshot seq {}",
                snap.seq
            ),
        ));
    }
    // `records()` yields the retained tail starting at `base`; skip the
    // prefix the snapshot already covers (including the Snapshot record
    // itself, which restore() has re-pushed onto the resumed journal).
    replay_tail(st, journal, (snap.seq - base) as usize + 1)
}

/// Apply `journal`'s retained records after the first `skip` to `st`, in
/// order, then refuse a journal that ends with a rejected attempt whose
/// rollback never came.
fn replay_tail(
    mut st: FabricState,
    journal: &Journal,
    skip: usize,
) -> Result<FabricState, FabricError> {
    for r in journal.records().iter().skip(skip) {
        st.apply_record(r)?;
    }
    if let Some((j, a, _)) = st.pending_rollback {
        return Err(replay_diverged(
            journal.len() as u64,
            format!("journal ended with rollback of job {j} attempt {a} pending"),
        ));
    }
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_program_evict_roundtrip() {
        // One warm fabric admits and evicts each shape back to back, up to
        // a whole 4×4×1 layer: every admission succeeds, and every evict
        // leaves no circuit and no occupied chip behind.
        let mut st = FabricState::new(1, 2, 0);
        let mut t = SimTime::ZERO;
        let mut job = 0;
        for shape in [
            Shape3::new(2, 2, 1),
            Shape3::new(4, 2, 1),
            Shape3::new(4, 4, 1),
        ] {
            for cycle in 0..50 {
                match st.admit(t, job, shape) {
                    Admission::Admitted { setup, .. } => {
                        assert!((setup.as_micros_f64() - 3.7).abs() < 1e-9);
                    }
                    other => panic!("{shape} cycle {cycle}: expected admission, got {other:?}"),
                }
                if job == 0 {
                    assert_eq!(st.journal().len(), 3, "admit + program + reconfigure");
                }
                assert_eq!(st.live_jobs(), 1);
                let busy = st.utilization();
                assert!(busy.circuits > 0);
                assert!(busy.occupancy > 0.0);
                t += SimDuration::from_us(1);
                st.evict(t, job);
                t += SimDuration::from_us(1);
                assert_eq!(st.live_jobs(), 0);
                let idle = st.utilization();
                assert_eq!(idle.circuits, 0, "{shape} cycle {cycle}");
                assert_eq!(idle.occupancy, 0.0, "{shape} cycle {cycle}");
                job += 1;
            }
        }
    }

    #[test]
    fn failure_repairs_with_single_server_blast_radius() {
        let mut st = FabricState::new(1, 2, 0);
        assert!(matches!(
            st.admit(SimTime::ZERO, 0, Shape3::new(4, 2, 1)),
            Admission::Admitted { .. }
        ));
        let rec = match st.inject_failure(SimTime::from_ps(1)) {
            Some(r) => r.clone(),
            None => panic!("an owned chip exists; failure must inject"),
        };
        assert!(rec.victim.is_some());
        assert!(rec.spliced > 0, "ring circuits terminate on every chip");
        let rep = match rec.repair {
            Some(r) => r,
            None => panic!("spares are free; repair must succeed"),
        };
        assert_eq!(rep.blast_servers, 1, "paper §4.2: blast radius 1 server");
        assert_eq!(rep.servers_touched, 2, "victim's server + spare's server");
        assert!((rep.setup.as_micros_f64() - 3.7).abs() < 1e-9);
    }

    #[test]
    fn replay_reproduces_final_state() {
        let mut st = FabricState::new(1, 2, 0);
        let mut t = SimTime::ZERO;
        for (job, shape) in [(0u32, Shape3::new(4, 2, 1)), (1, Shape3::new(2, 2, 2))] {
            assert!(matches!(
                st.admit(t, job, shape),
                Admission::Admitted { .. }
            ));
            t += SimDuration::from_secs(10);
        }
        st.inject_failure(t);
        t += SimDuration::from_secs(10);
        st.evict(t, 1);
        let replayed = match replay(st.journal()) {
            Ok(r) => r,
            Err(e) => panic!("replay diverged: {e}"),
        };
        assert_eq!(replayed.telemetry(), st.telemetry());
        assert_eq!(replayed.live_jobs(), st.live_jobs());
        assert_eq!(replayed.incidents().len(), st.incidents().len());
    }
}
