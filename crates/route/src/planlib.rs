//! Pre-routed circuit-plan library: admission by stamp, not by search.
//!
//! Slices of the same (shape × collective mode × wavelength set) produce
//! identical circuit batches, yet every admission used to route each one
//! from scratch. Borrowing the pre-routed-FPGA-core idea (modules
//! precompiled against tightly constrained boundary-wire contracts), this
//! module captures each batch's routed form once, at the origin it was
//! routed at: the per-demand paths, their link reports, and an explicit
//! boundary-edge contract (which border waveguides the plan claims, at
//! what fabricated stitch loss). Admission then becomes *occupancy
//! collision-check (one bitset AND over the dense [`EdgeSet`]) + stamp*,
//! falling back to fresh A* when the check fails or the batch has not been
//! captured yet.
//!
//! The key names no wafer, only its config signature, so a batch captured
//! on one server's wafer stamps on every same-config wafer of the rack. A
//! batch is never moved to another origin of the same wafer. A* clips
//! off-grid neighbours, so a moved batch replays the search step for step
//! only where every demand touches the same grid borders; on the 2×2
//! server wafer every in-grid move changes some demand's border contact,
//! so a batch at a new origin routes fresh and is captured there.
//!
//! ## Why a stamp is byte-identical to fresh routing
//!
//! A stamped batch must be indistinguishable — circuit ids, paths, link
//! reports, error behaviour, snapshot bytes — from what
//! [`allocate_non_overlapping_with`] would have produced. That holds
//! because a stamp is only attempted under the **clearance guard**:
//!
//! * every bus with an endpoint inside any demand's source–destination
//!   bounding rectangle (the only loads a minimal-path batch search can
//!   read) carries zero load, verified by one `EdgeSet` intersection; and
//! * every cached path is *minimal* (hops == Manhattan distance), which
//!   certifies the capturing search never popped a node outside those
//!   rectangles — so the search is a pure function of the clearance, and a
//!   fresh run now would reproduce it step-for-step.
//!
//! Link reports are captured under the same guard, so the crosstalk terms
//! the budget reads are zero at capture and at stamp alike;
//! [`Wafer::establish_prebudgeted`] re-asserts the bit-equality in debug
//! builds. Anything the guard cannot certify routes fresh — slower, never
//! different.

use std::collections::{BTreeMap, VecDeque};

use desim::fnv::Fnv;
use phy::link_budget::LinkReport;

use crate::alloc::{allocate_non_overlapping_with, Demand};
use crate::astar::Searcher;
use lightpath::{
    CircuitId, CircuitRequest, Dir, EdgeId, EdgeSet, FabricError, Path, RouteFault, TileCoord,
    Wafer, WaferConfig,
};

/// Cap on captured batches across the whole library (FIFO eviction). Each
/// is a handful of short paths and link reports; 256 covers every
/// (shape × mode × origin) combination the pod-scale campaigns cycle
/// through.
const PLAN_CAPACITY: usize = 256;

/// Stamp records retained for the boundary-contract audit (RTE501).
const AUDIT_CAPACITY: usize = 64;

/// Identity of a captured batch: the wafer-config signature (loss model,
/// grid shape, fabrication seed — everything routing and budgeting read)
/// plus the demand list, order preserved.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    cfg_sig: u64,
    /// Per demand: (src row, src col, dst row, dst col, lanes).
    demands: Vec<(u8, u8, u8, u8, u16)>,
}

/// FNV-1a digest of every config field the batch router or link budget
/// reads. Two wafers with equal signatures fabricate identical stitch maps
/// (same `fab_seed`), so one capture serves all of them.
fn config_signature(cfg: &WaferConfig) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(cfg.rows as u64)
        .write_u64(cfg.cols as u64)
        .write_f64(cfg.tile_pitch_cm)
        .write_u64(cfg.waveguides_per_edge as u64)
        .write_u64(cfg.fibers_per_edge_tile as u64)
        .write_u64(cfg.wdm.channels as u64)
        .write_f64(cfg.wdm.start_nm)
        .write_f64(cfg.wdm.spacing_nm)
        .write_f64(cfg.wdm.rate.0)
        .write_f64(cfg.mzi.insertion_loss_db)
        .write_f64(cfg.stitch.mode_radius_um)
        .write_f64(cfg.stitch.overlay_sigma_um)
        .write_f64(cfg.stitch.base_loss_db)
        .write_f64(cfg.propagation_loss_db_per_cm)
        .write_u64(cfg.crossings_per_through_tile as u64)
        .write_u64(cfg.crossings_per_turn as u64)
        .write_f64(cfg.crosstalk_per_cochannel_db)
        .write_u64(cfg.fab_seed);
    h.finish()
}

/// A captured batch: paths, link reports, the clearance guard, and the
/// boundary contract.
#[derive(Debug, Clone)]
struct PlanInstance {
    paths: Vec<Path>,
    /// Captured under a clear clearance, where every crosstalk term the
    /// budget reads is zero — exactly what a fresh establish would compute.
    links: Vec<LinkReport>,
    /// Every bus with an endpoint inside any demand's bounding rectangle:
    /// all the loads a minimal-path batch search can read. A stamp requires
    /// every one of them unloaded.
    clearance: EdgeSet,
    /// Boundary contract: border waveguides the plan claims (footprint
    /// edges on the perimeter of the stamped region) and the fabricated
    /// stitch loss each was budgeted at.
    contract: Vec<(EdgeId, f64)>,
}

impl PlanInstance {
    /// Replay the captured paths through the prebudgeted establish fast
    /// path, mirroring the fresh allocator's rollback and error shape
    /// exactly. Also returns the boundary-contract readings, taken before
    /// the establishes mutate occupancy.
    fn stamp(
        &self,
        wafer: &mut Wafer,
        demands: &[Demand],
    ) -> Result<(Vec<CircuitId>, Vec<AuditEdge>), FabricError> {
        let edges: Vec<AuditEdge> = self
            .contract
            .iter()
            .map(|&(e, expected)| {
                let (a, b) = e.endpoints();
                AuditEdge {
                    a: (a.row, a.col),
                    b: (b.row, b.col),
                    expected_stitch_db: expected,
                    observed_stitch_db: wafer.stitch_loss_db(e),
                    pre_load: wafer.edge_used(e),
                }
            })
            .collect();
        let mut established: Vec<CircuitId> = Vec::with_capacity(self.paths.len());
        for (i, ((path, link), d)) in self.paths.iter().zip(&self.links).zip(demands).enumerate() {
            match wafer.establish_prebudgeted(
                CircuitRequest::new(d.src, d.dst, d.lanes).via(path.clone()),
                *link,
            ) {
                Ok(rep) => established.push(rep.id),
                Err(e) => {
                    // Mirror `allocate_non_overlapping_with`: tear down in
                    // establishment order, surface the same fault chain.
                    for &id in &established {
                        let _ = wafer.teardown(id);
                    }
                    return Err(FabricError::caused_by(
                        RouteFault::Establish { demand: i },
                        e.into(),
                    ));
                }
            }
        }
        Ok((established, edges))
    }
}

/// Plan-library hit/miss/evict counters. Telemetry only: never journaled,
/// snapshotted, or folded into fingerprints, so a warm and a cold library
/// replay bit-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Batches admitted by stamping a cached instance.
    pub hits: u64,
    /// Batches routed fresh because no instance was captured (captured
    /// afterwards when eligible).
    pub misses: u64,
    /// Instances dropped by the FIFO capacity bound.
    pub evictions: u64,
    /// Batches routed fresh because the occupancy guard rejected a stamp.
    pub fallbacks: u64,
    /// Circuits established through the stamp fast path.
    pub stamped_circuits: u64,
}

/// One boundary-contract reading taken as a stamp landed.
#[derive(Debug, Clone)]
pub struct AuditEdge {
    /// First endpoint of the border edge, `(row, col)`.
    pub a: (u8, u8),
    /// Second endpoint of the border edge, `(row, col)`.
    pub b: (u8, u8),
    /// Stitch loss the plan's contract budgeted this boundary at, dB.
    pub expected_stitch_db: f64,
    /// Stitch loss fabricated on the wafer the stamp landed on, dB.
    pub observed_stitch_db: f64,
    /// Waveguides already in use on the edge when the stamp landed.
    pub pre_load: u32,
}

/// One audited stamp: where a plan instance landed and what its boundary
/// contract read at that moment. Verify rule RTE501 checks every record:
/// the observed stitch losses must equal the contract bit-for-bit and the
/// claimed border buses must have been unoccupied.
#[derive(Debug, Clone)]
pub struct StampRecord {
    /// Grid origin (minimum corner) the instance was stamped at.
    pub origin: (u8, u8),
    /// Contract readings for every claimed border edge.
    pub edges: Vec<AuditEdge>,
}

/// The bounded trail of recent stamps, for offline contract verification.
#[derive(Debug, Clone, Default)]
pub struct StampAudit {
    /// Records, oldest first.
    pub records: Vec<StampRecord>,
}

/// A library of pre-routed circuit batches, one per batch and origin.
///
/// [`stamp_or_route`](Self::stamp_or_route) is a drop-in replacement for
/// [`allocate_non_overlapping_with`]: identical results and errors, with
/// repeated batches admitted by collision-check + stamp instead of
/// per-path A* and link-budget evaluation.
#[derive(Debug, Clone, Default)]
pub struct PlanLibrary {
    instances: BTreeMap<PlanKey, PlanInstance>,
    /// FIFO insertion order of the instances, for eviction.
    order: VecDeque<PlanKey>,
    audit: VecDeque<StampRecord>,
    stats: PlanStats,
}

impl PlanLibrary {
    /// An empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters since construction.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Cached instances currently resident.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// The recent-stamp audit trail (oldest first).
    pub fn audit(&self) -> StampAudit {
        StampAudit {
            records: self.audit.iter().cloned().collect(),
        }
    }

    /// Route and establish a batch exactly like
    /// [`allocate_non_overlapping_with`], stamping a cached plan when the
    /// occupancy guard proves the stamp byte-equivalent to fresh routing.
    pub fn stamp_or_route(
        &mut self,
        wafer: &mut Wafer,
        demands: &[Demand],
        searcher: &mut Searcher,
    ) -> Result<Vec<CircuitId>, FabricError> {
        if demands.is_empty() {
            return allocate_non_overlapping_with(wafer, demands, searcher);
        }
        let key = PlanKey {
            cfg_sig: config_signature(wafer.config()),
            demands: demands
                .iter()
                .map(|d| (d.src.row, d.src.col, d.dst.row, d.dst.col, d.lanes as u16))
                .collect(),
        };

        // The occupancy collision check: one AND over the dense bitsets.
        let clearance = clearance_set(wafer, demands);
        let mut loaded = EdgeSet::new(wafer.edge_loads().len());
        for (i, &used) in wafer.edge_loads().iter().enumerate() {
            if used > 0 {
                loaded.insert(i);
            }
        }
        if clearance.intersects(&loaded) {
            // Occupied clearance: a fresh search could read those loads, so
            // no cached decision is provably equivalent. Route fresh.
            self.stats.fallbacks += 1;
            return allocate_non_overlapping_with(wafer, demands, searcher);
        }

        let Some(inst) = self.instances.get(&key) else {
            return self.route_and_capture(wafer, demands, searcher, key, clearance);
        };
        // The instance was captured under this exact footprint; a drift here
        // would mean the key or guard under-constrains the plan.
        debug_assert!(
            inst.clearance == clearance,
            "plan instance clearance diverged from the admission guard"
        );
        let (established, edges) = inst.stamp(wafer, demands)?;
        self.stats.hits += 1;
        self.stats.stamped_circuits += established.len() as u64;
        let origin = demands
            .iter()
            .flat_map(|d| [d.src, d.dst])
            .fold((u8::MAX, u8::MAX), |(r, c), t| (r.min(t.row), c.min(t.col)));
        self.audit.push_back(StampRecord { origin, edges });
        if self.audit.len() > AUDIT_CAPACITY {
            self.audit.pop_front();
        }
        Ok(established)
    }

    /// Fresh-route the batch, then capture it when every path is minimal
    /// (the eligibility proof for later stamps), evicting the oldest
    /// instance past the capacity bound.
    fn route_and_capture(
        &mut self,
        wafer: &mut Wafer,
        demands: &[Demand],
        searcher: &mut Searcher,
        key: PlanKey,
        clearance: EdgeSet,
    ) -> Result<Vec<CircuitId>, FabricError> {
        self.stats.misses += 1;
        let ids = allocate_non_overlapping_with(wafer, demands, searcher)?;
        let minimal: Option<Vec<_>> = ids
            .iter()
            .zip(demands)
            .map(|(&id, d)| {
                wafer
                    .circuit(id)
                    .filter(|c| c.path.hops() as u32 == d.src.manhattan(d.dst))
            })
            .collect();
        let Some(circuits) = minimal.filter(|c| c.len() == demands.len()) else {
            return Ok(ids);
        };
        let paths: Vec<Path> = circuits.iter().map(|c| c.path.clone()).collect();
        let links = circuits.iter().map(|c| c.link).collect();
        let contract = contract_for(wafer, &paths);
        self.instances.insert(
            key.clone(),
            PlanInstance {
                paths,
                links,
                clearance,
                contract,
            },
        );
        self.order.push_back(key);
        if self.order.len() > PLAN_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.instances.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
        Ok(ids)
    }
}

/// Every bus a minimal-path batch search over `demands` can read: edges
/// with at least one endpoint inside some demand's source–destination
/// bounding rectangle (the rectangle's interior edges plus its one-ring of
/// incident edges).
fn clearance_set(wafer: &Wafer, demands: &[Demand]) -> EdgeSet {
    let idx = wafer.edge_index();
    let (rows, cols) = (wafer.config().rows, wafer.config().cols);
    let mut set = EdgeSet::new(wafer.edge_loads().len());
    for d in demands {
        let r0 = d.src.row.min(d.dst.row);
        let r1 = d.src.row.max(d.dst.row);
        let c0 = d.src.col.min(d.dst.col);
        let c1 = d.src.col.max(d.dst.col);
        for r in r0..=r1 {
            for c in c0..=c1 {
                let t = TileCoord::new(r, c);
                for dir in Dir::ALL {
                    if let Some(n) = t.step(dir, rows, cols) {
                        set.insert(idx.index(EdgeId::between(t, n)));
                    }
                }
            }
        }
    }
    set
}

/// Boundary-edge contract of a stamped region: footprint edges with an
/// endpoint on the perimeter of the region's bounding box, each with the
/// fabricated stitch loss it was budgeted at.
fn contract_for(wafer: &Wafer, paths: &[Path]) -> Vec<(EdgeId, f64)> {
    let mut r0 = u8::MAX;
    let mut r1 = 0u8;
    let mut c0 = u8::MAX;
    let mut c1 = 0u8;
    for p in paths {
        for t in p.tiles() {
            r0 = r0.min(t.row);
            r1 = r1.max(t.row);
            c0 = c0.min(t.col);
            c1 = c1.max(t.col);
        }
    }
    let on_border = |t: TileCoord| t.row == r0 || t.row == r1 || t.col == c0 || t.col == c1;
    let mut out: Vec<(EdgeId, f64)> = Vec::new();
    for p in paths {
        for e in p.edges() {
            let (a, b) = e.endpoints();
            if (on_border(a) || on_border(b)) && !out.iter().any(|&(seen, _)| seen == e) {
                out.push((e, wafer.stitch_loss_db(e)));
            }
        }
    }
    out
}
#[cfg(test)]
mod tests {
    use super::*;
    use lightpath::WaferConfig;

    fn t(r: u8, c: u8) -> TileCoord {
        TileCoord::new(r, c)
    }

    fn ring_demands(origin: TileCoord) -> Vec<Demand> {
        // A 2×2 ring at `origin`, the shape `fabricd::ring_plan` emits for
        // one server's worth of chips.
        let a = origin;
        let b = t(origin.row, origin.col + 1);
        let c = t(origin.row + 1, origin.col + 1);
        let d = t(origin.row + 1, origin.col);
        vec![
            Demand::new(a, b, 2),
            Demand::new(b, c, 2),
            Demand::new(c, d, 2),
            Demand::new(d, a, 2),
        ]
    }

    /// Snapshot a wafer's full mutable state as canonical bytes.
    fn snap(w: &Wafer) -> String {
        let mut sw = desim::SnapWriter::new();
        w.write_snap(&mut sw);
        sw.finish()
    }

    #[test]
    fn stamp_equals_fresh_bit_for_bit() {
        let demands = ring_demands(t(1, 2));
        let mut lib = PlanLibrary::new();
        let mut s1 = Searcher::new();
        let mut s2 = Searcher::new();

        let mut warm = Wafer::new(WaferConfig::default());
        // Capture pass (miss), then teardown.
        let ids = lib.stamp_or_route(&mut warm, &demands, &mut s1).unwrap();
        assert_eq!(lib.stats().misses, 1);
        for id in ids {
            warm.teardown(id).unwrap();
        }

        // Second admission stamps; a scratch wafer with the same history
        // routes fresh. Both must serialize identically.
        let mut fresh = warm.clone();
        let a = lib.stamp_or_route(&mut warm, &demands, &mut s1).unwrap();
        let b = allocate_non_overlapping_with(&mut fresh, &demands, &mut s2).unwrap();
        assert_eq!(a, b, "stamped ids equal fresh ids");
        assert_eq!(lib.stats().hits, 1);
        assert_eq!(lib.stats().stamped_circuits, 4);
        assert_eq!(snap(&warm), snap(&fresh), "stamped wafer state ≡ fresh");
    }

    #[test]
    fn occupied_clearance_falls_back_to_fresh() {
        let mut lib = PlanLibrary::new();
        let mut s = Searcher::new();
        let mut w = Wafer::new(WaferConfig::default());
        let demands = ring_demands(t(1, 2));
        let ids = lib.stamp_or_route(&mut w, &demands, &mut s).unwrap();
        for id in ids {
            w.teardown(id).unwrap();
        }
        // Load a bus inside the clearance; the stamp must be refused and
        // the fresh route must still succeed.
        w.establish(CircuitRequest::new(t(1, 2), t(1, 3), 1))
            .unwrap();
        let mut fresh = w.clone();
        let a = lib.stamp_or_route(&mut w, &demands, &mut s).unwrap();
        let b = allocate_non_overlapping_with(&mut fresh, &demands, &mut Searcher::new()).unwrap();
        assert_eq!(a, b);
        assert_eq!(lib.stats().fallbacks, 1);
        assert_eq!(lib.stats().hits, 0);
        assert_eq!(snap(&w), snap(&fresh));
    }

    #[test]
    fn rejected_stamp_is_a_byte_identical_no_op() {
        let mut lib = PlanLibrary::new();
        let mut s = Searcher::new();
        let mut w = Wafer::new(WaferConfig::default());
        let demands = ring_demands(t(1, 2));
        let ids = lib.stamp_or_route(&mut w, &demands, &mut s).unwrap();
        for id in ids {
            w.teardown(id).unwrap();
        }
        // Exhaust the tx SerDes at one demand's source: edges stay clear
        // (the stamp is attempted) but the establish fails mid-batch.
        let tile = w.tile_mut(t(2, 3));
        let all = tile.serdes.tx_available();
        tile.serdes.claim_tx(all).unwrap();
        let before_loads = w.edge_loads().to_vec();
        let mut fresh = w.clone();
        let a = lib.stamp_or_route(&mut w, &demands, &mut s).unwrap_err();
        let b =
            allocate_non_overlapping_with(&mut fresh, &demands, &mut Searcher::new()).unwrap_err();
        assert_eq!(a, b, "stamped failure equals fresh failure");
        assert_eq!(
            w.edge_loads(),
            &before_loads[..],
            "loads restored after rollback"
        );
        assert_eq!(snap(&w), snap(&fresh), "post-failure state ≡ fresh failure");
    }

    #[test]
    fn audit_records_contract_readings() {
        let mut lib = PlanLibrary::new();
        let mut s = Searcher::new();
        let mut w = Wafer::new(WaferConfig::default());
        let demands = ring_demands(t(0, 0));
        let ids = lib.stamp_or_route(&mut w, &demands, &mut s).unwrap();
        for id in ids {
            w.teardown(id).unwrap();
        }
        lib.stamp_or_route(&mut w, &demands, &mut s).unwrap();
        let audit = lib.audit();
        assert_eq!(audit.records.len(), 1);
        let rec = &audit.records[0];
        assert_eq!(rec.origin, (0, 0));
        assert!(!rec.edges.is_empty());
        for e in &rec.edges {
            assert_eq!(
                e.expected_stitch_db.to_bits(),
                e.observed_stitch_db.to_bits()
            );
            assert_eq!(e.pre_load, 0);
        }
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let mut lib = PlanLibrary::new();
        let mut s = Searcher::new();
        let mut w = Wafer::new(WaferConfig::default());
        // Single-demand batches over distinct tile pairs of the 4×8 wafer:
        // each is a new key, so each misses and is captured.
        let tiles: Vec<TileCoord> = w.coords().collect();
        let batches: Vec<Vec<Demand>> = tiles
            .iter()
            .flat_map(|&a| tiles.iter().map(move |&b| (a, b)))
            .filter(|(a, b)| a != b)
            .take(PLAN_CAPACITY + 3)
            .map(|(a, b)| vec![Demand::new(a, b, 1)])
            .collect();
        assert_eq!(batches.len(), PLAN_CAPACITY + 3);
        for demands in &batches {
            let ids = lib.stamp_or_route(&mut w, demands, &mut s).unwrap();
            for id in ids {
                w.teardown(id).unwrap();
            }
        }
        assert_eq!(lib.stats().misses, PLAN_CAPACITY as u64 + 3);
        assert_eq!(lib.instance_count(), PLAN_CAPACITY);
        assert_eq!(lib.stats().evictions, 3);
        // The oldest batch was evicted first: it routes fresh again, while
        // the newest still stamps.
        for (demands, misses, hits) in [
            (&batches[0], PLAN_CAPACITY as u64 + 4, 0),
            (&batches[PLAN_CAPACITY + 2], PLAN_CAPACITY as u64 + 4, 1),
        ] {
            let ids = lib.stamp_or_route(&mut w, demands, &mut s).unwrap();
            for id in ids {
                w.teardown(id).unwrap();
            }
            assert_eq!((lib.stats().misses, lib.stats().hits), (misses, hits));
        }
    }
}
