//! Multi-wafer photonic fabric: cascading LIGHTPATH wafers with fibers.
//!
//! "One LIGHTPATH wafer connects to others using attached fibers. With
//! attached fibers, we can cascade several LIGHTPATH wafers to create a
//! rack-scale photonic interconnect" (§3). A [`Fabric`] owns a set of
//! wafers (one per multi-accelerator server) and the fiber bundles between
//! their edge tiles, and establishes *cross-wafer* circuits — possibly
//! across several fiber hops: an intra-wafer segment to the attach tile,
//! a fiber, pass-through segments across intermediate wafers (light transits
//! their waveguides without touching any SerDes), and a final segment to
//! the destination. Cross-wafer circuits are what lets §4.2 repair a broken
//! ring with a free chip in another server without touching any electrical
//! switch.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use desim::SimDuration;
use phy::link_budget::{LinkModel, LinkReport};
use phy::loss::{LossBudget, LossElement};
use phy::thermal::RECONFIG_LATENCY_S;
use phy::units::Gbps;
use phy::wdm::LambdaSet;

use crate::circuit::{CircuitError, CircuitId, CircuitRequest};
use crate::config::WaferConfig;
use crate::geom::{EdgeId, Path, TileCoord};
use crate::wafer::Wafer;

/// Gain of the inline amplifier at each fiber ingress, dB. Cascading wafers
/// at rack scale needs the per-hop coupling/propagation loss roughly
/// cancelled, exactly as commercial multi-hop photonic fabrics place SOAs
/// at fiber attach points; 6 dB covers the two coupling facets per hop.
pub const FIBER_AMP_GAIN_DB: f64 = 6.0;

/// Index of a wafer within a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WaferId(pub usize);

/// A bundle of fibers attached between edge tiles of two wafers.
#[derive(Debug, Clone, Copy)]
pub struct FiberLink {
    /// Attach point on the first wafer.
    pub a: (WaferId, TileCoord),
    /// Attach point on the second wafer.
    pub b: (WaferId, TileCoord),
    /// Number of fibers in the bundle.
    pub capacity: u32,
    /// Fiber length, meters.
    pub length_m: f64,
}

#[derive(Debug, Clone)]
struct FiberState {
    link: FiberLink,
    used: u32,
}

impl FiberState {
    fn free(&self) -> u32 {
        self.link.capacity - self.used
    }

    fn joins(&self, a: WaferId, b: WaferId) -> bool {
        (self.link.a.0 == a && self.link.b.0 == b) || (self.link.a.0 == b && self.link.b.0 == a)
    }

    /// (near tile, far tile) oriented so `near` is on wafer `from`.
    fn oriented(&self, from: WaferId) -> (TileCoord, TileCoord) {
        if self.link.a.0 == from {
            (self.link.a.1, self.link.b.1)
        } else {
            (self.link.b.1, self.link.a.1)
        }
    }

    fn other_end(&self, from: WaferId) -> WaferId {
        if self.link.a.0 == from {
            self.link.b.0
        } else {
            self.link.a.0
        }
    }
}

/// Handle to a cross-wafer circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrossCircuitId(u64);

impl CrossCircuitId {
    /// The raw handle value, for canonical snapshot serialization.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from [`raw`](Self::raw) output. Only meaningful
    /// against the fabric state the value was captured from.
    pub const fn from_raw(v: u64) -> Self {
        CrossCircuitId(v)
    }
}

/// Handle to a circuit established somewhere in a [`Fabric`]: either wholly
/// within one wafer or spanning wafers over fibers. Control planes that mix
/// both kinds (ring segments inside a server, fiber hops between servers)
/// hold these so teardown does not need to remember which establish path
/// created each circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FabricCircuit {
    /// A circuit within a single wafer.
    Wafer(WaferId, CircuitId),
    /// A circuit crossing wafers over fibers.
    Cross(CrossCircuitId),
}

/// An established cross-wafer circuit.
#[derive(Debug, Clone)]
pub struct CrossCircuit {
    /// Handle.
    pub id: CrossCircuitId,
    /// Source endpoint.
    pub src: (WaferId, TileCoord),
    /// Destination endpoint.
    pub dst: (WaferId, TileCoord),
    /// Fiber links used, in hop order.
    pub fibers: Vec<usize>,
    /// Intra-wafer segments, in traversal order.
    pub segments: Vec<(WaferId, CircuitId)>,
    /// Wavelength lanes carried.
    pub lanes: usize,
    /// Data bandwidth.
    pub bandwidth: Gbps,
    /// End-to-end link budget evaluation.
    pub link: LinkReport,
    /// Lanes manually claimed at a degenerate source endpoint.
    manual_src_claim: Option<LambdaSet>,
    /// Lane count manually claimed at a degenerate destination endpoint.
    manual_dst_claim: Option<usize>,
}

impl CrossCircuit {
    /// Number of fiber hops.
    pub fn fiber_hops(&self) -> usize {
        self.fibers.len()
    }
}

/// Wafer-relative identity of a cross-wafer circuit: the source and
/// destination tiles, and per fiber hop the (near, far) attach tiles and
/// the fiber length bits. Two requests of one class on different wafer
/// pairs face the same geometry, so one captured [`CrossPlan`] can be
/// stamped at both. The lane count is not part of it: no path choice or
/// budget reads it, and a stamp checks SerDes lanes as a fresh establish
/// does.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct CrossClass {
    src: TileCoord,
    dst: TileCoord,
    hops: Vec<(TileCoord, TileCoord, u64)>,
}

/// A cross-wafer circuit planned over one fiber route before any of it is
/// built: each intra-wafer segment's route, link report and witness loads,
/// stored by hop position rather than by wafer, and the end-to-end link
/// report over those same routes, the fibers and the amplifier gain.
/// [`Fabric::commit_cross`] builds exactly this, and [`CrossPlans`] keeps
/// it to stamp at any wafer pair of its class.
#[derive(Debug, Clone)]
struct CrossPlan {
    link: LinkReport,
    segments: Vec<CrossSegmentPlan>,
}

/// One intra-wafer segment inside a [`CrossPlan`].
#[derive(Debug, Clone)]
struct CrossSegmentPlan {
    /// Position along the route: 0 is the source wafer, `i` the wafer
    /// fiber hop `i − 1` lands on.
    hop: usize,
    path: Path,
    link: LinkReport,
    /// `(edge, load)` for every bus of the segment's XY and YX routes:
    /// every load the route choice and the budget read. Equal loads imply
    /// the plan replays bit-identically.
    witnesses: Vec<(EdgeId, u32)>,
}

/// Plans are equal when they agree bit for bit: every route, witness load
/// and report.
impl PartialEq for CrossPlan {
    fn eq(&self, other: &Self) -> bool {
        self.link.to_bits() == other.link.to_bits() && self.segments == other.segments
    }
}

impl PartialEq for CrossSegmentPlan {
    fn eq(&self, other: &Self) -> bool {
        self.hop == other.hop
            && self.path == other.path
            && self.link.to_bits() == other.link.to_bits()
            && self.witnesses == other.witnesses
    }
}

/// Bound on the cross-wafer plans a [`CrossPlans`] retains.
const CROSS_PLAN_CAPACITY: usize = 256;

/// Cross-wafer plan cache counters. Telemetry only — never journaled or
/// fingerprinted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossPlanStats {
    /// Cross circuits established by stamping a cached plan.
    pub hits: u64,
    /// Cross circuits established fresh (and captured for next time).
    pub misses: u64,
    /// Lookups whose class was known but where no captured witness image
    /// held on the concrete wafers; the circuit was then established fresh
    /// and its image captured beside the others.
    pub fallbacks: u64,
    /// Captured plans not retained because the cache already held
    /// `CROSS_PLAN_CAPACITY` (256) plans.
    pub evictions: u64,
}

/// Captured cross-wafer plans for [`Fabric::establish_cross_planned`],
/// keyed by a wafer-relative class: the source and destination tiles, and
/// per fiber hop the (near, far) attach tiles and the fiber length. Each
/// class keeps one plan per distinct witness image, in capture order, and a
/// plan stamps at any wafer pair whose route has the class. A pure
/// accelerator: a stamp commits exactly the plan a fresh establish would
/// make, so the cache is never serialized.
///
/// Relocation is sound because every wafer of a [`Fabric`] is built from
/// one [`WaferConfig`] (one stitch-loss table), the class pins the attach
/// tiles and fiber lengths, and the witnesses pin every bus load the
/// XY/YX choice and the skipped budgets read.
#[derive(Debug, Clone, Default)]
pub struct CrossPlans {
    classes: BTreeMap<CrossClass, Vec<CrossPlan>>,
    resident: usize,
    stats: CrossPlanStats,
}

impl CrossPlans {
    /// Plans currently retained.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Hit, miss, fallback and eviction counters.
    pub fn stats(&self) -> CrossPlanStats {
        self.stats
    }

    fn retain(&mut self, class: CrossClass, plan: CrossPlan) {
        if self.resident >= CROSS_PLAN_CAPACITY {
            self.stats.evictions += 1;
            return;
        }
        self.resident += 1;
        self.classes.entry(class).or_default().push(plan);
    }
}

/// Segment handles and manual SerDes claims accumulated while building a
/// cross circuit, so a mid-build failure can roll all of it back.
struct CrossBuild {
    segments: Vec<(WaferId, CircuitId)>,
    manual_src_claim: Option<LambdaSet>,
    manual_dst_claim: Option<usize>,
}

/// One wafer's [`Wafer::write_snap`] text and the wafer revision it was
/// written at (`None`: never written).
#[derive(Debug, Clone, Default)]
struct WaferText {
    rev: Option<u64>,
    text: String,
}

/// A rack-scale assembly of LIGHTPATH wafers joined by fibers.
#[derive(Debug, Clone)]
pub struct Fabric {
    wafers: Vec<Wafer>,
    fibers: Vec<FiberState>,
    /// Fiber incidence for [`fiber_route`](Self::fiber_route): one
    /// `(wafer, neighbour, link)` entry per bundle end, sorted, so each
    /// wafer's bundles form one run grouped by neighbour in ascending
    /// wafer id, each group in ascending link index. Built on first use,
    /// and rebuilt when [`attach_fiber`](Self::attach_fiber) has grown the
    /// plant since, so construction allocates nothing for it. Never
    /// serialized.
    incidence: Vec<(WaferId, WaferId, usize)>,
    cross: BTreeMap<CrossCircuitId, CrossCircuit>,
    next_id: u64,
    /// Each wafer's snapshot text, by wafer id, for
    /// [`write_snap_cached`](Self::write_snap_cached). Never serialized.
    snap_text: Vec<WaferText>,
}

impl Fabric {
    /// A fabric of `n` identical wafers with no fiber links yet. Every
    /// wafer is built from the one `cfg`, so all share one stitch-loss
    /// table — what lets [`CrossPlans`] relocate a plan between wafers.
    pub fn new(n: usize, cfg: WaferConfig) -> Self {
        assert!(n >= 1, "a fabric needs at least one wafer");
        Fabric {
            wafers: (0..n).map(|_| Wafer::new(cfg.clone())).collect(),
            fibers: Vec::new(),
            incidence: Vec::new(),
            cross: BTreeMap::new(),
            next_id: 0,
            snap_text: Vec::new(),
        }
    }

    /// Number of wafers.
    pub fn wafer_count(&self) -> usize {
        self.wafers.len()
    }

    /// Inspect a wafer.
    ///
    /// Panics on a bad id.
    pub fn wafer(&self, id: WaferId) -> &Wafer {
        &self.wafers[id.0]
    }

    /// Mutate a wafer (intra-wafer circuits, failure injection).
    ///
    /// Panics on a bad id.
    pub fn wafer_mut(&mut self, id: WaferId) -> &mut Wafer {
        &mut self.wafers[id.0]
    }

    /// Attach a fiber bundle between two wafers. Returns its link index.
    ///
    /// Panics if the endpoints are on the same wafer or out of bounds.
    pub fn attach_fiber(&mut self, link: FiberLink) -> usize {
        assert_ne!(link.a.0, link.b.0, "fiber must join distinct wafers");
        assert!(link.capacity > 0, "fiber bundle must have capacity");
        assert!(link.length_m > 0.0, "fiber needs positive length");
        // Validate attach tiles exist.
        let _ = self.wafer(link.a.0).tile(link.a.1);
        let _ = self.wafer(link.b.0).tile(link.b.1);
        self.fibers.push(FiberState { link, used: 0 });
        self.fibers.len() - 1
    }

    /// Fibers free on a link.
    pub fn fiber_free(&self, index: usize) -> u32 {
        self.fibers[index].free()
    }

    /// BFS for the shortest wafer-level path; when `respect_capacity` only
    /// links with a free fiber count. Among parallel links between the same
    /// wafers the one with the most free fibers is chosen, the lowest link
    /// index on ties; neighbours are visited in ascending wafer id. Returns
    /// the fiber link indices in hop order.
    ///
    /// Each popped wafer costs its degree: its bundles are one run of the
    /// incidence index, (re)built here when it lags the plant. The search
    /// returns as soon as `to` is discovered: its `prev` entry is final at
    /// discovery, so the path is the one a return-at-pop BFS builds.
    fn fiber_route(
        &mut self,
        from: WaferId,
        to: WaferId,
        respect_capacity: bool,
    ) -> Option<Vec<usize>> {
        if self.incidence.len() != 2 * self.fibers.len() {
            self.incidence.clear();
            for (i, f) in self.fibers.iter().enumerate() {
                self.incidence.push((f.link.a.0, f.link.b.0, i));
                self.incidence.push((f.link.b.0, f.link.a.0, i));
            }
            self.incidence.sort_unstable();
        }
        // `prev[b]`: the wafer `b` was discovered from and the link taken.
        let mut prev: Vec<Option<(WaferId, usize)>> = vec![None; self.wafers.len()];
        let mut q = VecDeque::new();
        q.push_back(from);
        'search: while let Some(w) = q.pop_front() {
            let tail = self
                .incidence
                .get(self.incidence.partition_point(|&(a, _, _)| a < w)..)
                .unwrap_or_default();
            let run = tail
                .get(..tail.partition_point(|&(a, _, _)| a == w))
                .unwrap_or_default();
            for group in run.chunk_by(|x, y| x.1 == y.1) {
                let Some(&(_, b, _)) = group.first() else {
                    continue;
                };
                let Some(slot) = prev.get_mut(b.0).filter(|p| b != from && p.is_none()) else {
                    continue;
                };
                // The first of the most-free links: the lowest index on ties.
                let best = group
                    .iter()
                    .filter_map(|&(_, _, i)| Some((i, self.fibers.get(i)?.free())))
                    .filter(|&(_, free)| !respect_capacity || free > 0)
                    .min_by_key(|&(_, free)| Reverse(free));
                let Some((i, _)) = best else { continue };
                *slot = Some((w, i));
                if b == to {
                    break 'search;
                }
                q.push_back(b);
            }
        }
        // Walk back from `to`; an undiscovered `to` means no path.
        let mut path = Vec::new();
        let mut cur = to;
        while cur != from {
            let (p, link) = prev.get(cur.0).copied().flatten()?;
            path.push(link);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// The fiber route a fresh establish takes from `src` to `dst`, or the
    /// error it raises when no route has a free fiber on every hop.
    fn cross_route(&mut self, src: WaferId, dst: WaferId) -> Result<Vec<usize>, CircuitError> {
        assert_ne!(
            src, dst,
            "use Wafer::establish for circuits within one wafer"
        );
        if let Some(fibers) = self.fiber_route(src, dst, true) {
            return Ok(fibers);
        }
        // Distinguish "no fiber plant" from "plant exhausted", and report
        // the total capacity of the first saturated hop's wafer pair.
        let Some(unconstrained) = self.fiber_route(src, dst, false) else {
            return Err(CircuitError::NoFiberLink);
        };
        let mut wafer = src;
        let mut capacity = 0;
        for f in unconstrained.iter().filter_map(|&fi| self.fibers.get(fi)) {
            let next = f.other_end(wafer);
            let pair = || self.fibers.iter().filter(|g| g.joins(wafer, next));
            if pair().map(FiberState::free).sum::<u32>() == 0 {
                capacity = pair().map(|g| g.link.capacity).sum();
                break;
            }
            wafer = next;
        }
        Err(CircuitError::FiberExhausted { capacity })
    }

    /// The class of a request over `fibers`, and the wafers the route
    /// visits in hop order (source first).
    fn cross_class(
        &self,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        fibers: &[usize],
    ) -> (CrossClass, Vec<WaferId>) {
        let mut wafer = src.0;
        let mut wafers = vec![wafer];
        let mut hops = Vec::with_capacity(fibers.len());
        for f in fibers.iter().filter_map(|&fi| self.fibers.get(fi)) {
            let (near, far) = f.oriented(wafer);
            hops.push((near, far, f.link.length_m.to_bits()));
            wafer = f.other_end(wafer);
            wafers.push(wafer);
        }
        let class = CrossClass {
            src: src.1,
            dst: dst.1,
            hops,
        };
        (class, wafers)
    }

    /// Whether every witness load of `plan` holds on the route's wafers.
    fn witnesses_hold(&self, wafers: &[WaferId], plan: &CrossPlan) -> bool {
        plan.segments.iter().all(|sp| {
            let wafer = wafers.get(sp.hop).and_then(|w| self.wafers.get(w.0));
            wafer.is_some_and(|w| sp.witnesses.iter().all(|&(e, load)| w.edge_used(e) == load))
        })
    }

    /// A wafer of this fabric, or [`CircuitError::NoFiberLink`] for an id
    /// outside it (no fiber reaches such a wafer).
    fn wafer_at(&mut self, id: WaferId) -> Result<&mut Wafer, CircuitError> {
        self.wafers.get_mut(id.0).ok_or(CircuitError::NoFiberLink)
    }

    /// Plan a cross circuit over the probed `fibers` without changing the
    /// fabric. Each intra-wafer segment takes the route
    /// [`Wafer::default_route`] chooses and is budgeted once: that budget is
    /// the segment's own report, and it extends the end-to-end budget,
    /// which adds both fiber couplings, the fiber and the amplifier gain of
    /// every hop. A fiber route is a BFS shortest path, so it visits each
    /// wafer once: building one segment moves no load that another
    /// segment's plan read, and planning every segment first is exact.
    fn plan_cross(
        &self,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        fibers: &[usize],
    ) -> Result<CrossPlan, CircuitError> {
        let model = LinkModel::lightpath_default();
        let mut end_to_end = LossBudget::new();
        let mut segments = Vec::new();
        let (mut wafer, mut at) = src;
        for hop in 0..=fibers.len() {
            let fiber = fibers
                .get(hop)
                .map(|&fi| self.fibers.get(fi).ok_or(CircuitError::NoFiberLink))
                .transpose()?;
            let to = fiber.map_or(dst.1, |f| f.oriented(wafer).0);
            if at != to {
                let w = self.wafers.get(wafer.0).ok_or(CircuitError::NoFiberLink)?;
                let path = w.default_route(at, to);
                let budget = w.path_loss_budget(&path);
                end_to_end.extend(&budget);
                segments.push(CrossSegmentPlan {
                    hop,
                    path,
                    link: model.evaluate(&budget),
                    witnesses: witnesses(w, at, to),
                });
            }
            if let Some(f) = fiber {
                end_to_end.push(LossElement::FiberCoupling);
                end_to_end.push(LossElement::Fiber {
                    length_m: f.link.length_m,
                });
                end_to_end.push(LossElement::FiberCoupling);
                end_to_end.push(LossElement::Amplifier {
                    gain_db: FIBER_AMP_GAIN_DB,
                });
                at = f.oriented(wafer).1;
                wafer = f.other_end(wafer);
            }
        }
        debug_assert_eq!(wafer, dst.0);
        Ok(CrossPlan {
            link: model.evaluate(&end_to_end),
            segments,
        })
    }

    /// Establish a circuit between tiles on *different* wafers, routing
    /// over as many fiber hops as needed (shortest wafer path; between two
    /// wafers, the bundle with the most free fibers, lowest link index on
    /// ties). Atomic: on error nothing is committed.
    pub fn establish_cross(
        &mut self,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        lanes: usize,
    ) -> Result<(CrossCircuitId, SimDuration), CircuitError> {
        let fibers = self.cross_route(src.0, dst.0)?;
        let plan = self.plan_cross(src, dst, &fibers)?;
        self.commit_cross(src, dst, lanes, fibers, &plan)
    }

    /// [`establish_cross`](Self::establish_cross) through a class-keyed
    /// plan cache. The fiber route is probed once and defines the
    /// request's class; the first held plan of that class whose witness
    /// loads hold on the route's wafers is committed, with no link budget
    /// evaluated. Otherwise the route is planned fresh, committed, and its
    /// plan retained. Results, errors and every byte of fabric state equal
    /// a plain establish: the witnesses pin every load a fresh plan reads.
    pub fn establish_cross_planned(
        &mut self,
        plans: &mut CrossPlans,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        lanes: usize,
    ) -> Result<(CrossCircuitId, SimDuration), CircuitError> {
        let fibers = self.cross_route(src.0, dst.0).inspect_err(|_| {
            plans.stats.misses += 1;
        })?;
        let (class, wafers) = self.cross_class(src, dst, &fibers);
        if let Some(held) = plans.classes.get(&class) {
            match held.iter().find(|p| self.witnesses_hold(&wafers, p)) {
                Some(plan) => {
                    let done = self.commit_cross(src, dst, lanes, fibers, plan)?;
                    plans.stats.hits += 1;
                    return Ok(done);
                }
                None => plans.stats.fallbacks += 1,
            }
        }
        plans.stats.misses += 1;
        let plan = self.plan_cross(src, dst, &fibers)?;
        let done = self.commit_cross(src, dst, lanes, fibers, &plan)?;
        plans.retain(class, plan);
        Ok(done)
    }

    /// Build `plan` over the probed `fibers` and record the circuit: the
    /// end-to-end check before anything is built, then the segments, all
    /// rolled back on any failure. Debug builds check that `plan` equals a
    /// fresh plan of the same route, bit for bit.
    fn commit_cross(
        &mut self,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        lanes: usize,
        fibers: Vec<usize>,
        plan: &CrossPlan,
    ) -> Result<(CrossCircuitId, SimDuration), CircuitError> {
        let rate = self.wafer_at(src.0)?.config().wdm.rate;
        debug_assert_eq!(
            self.plan_cross(src, dst, &fibers).as_ref(),
            Ok(plan),
            "a committed cross plan diverged from a fresh plan of its route"
        );
        if !plan.link.closes() {
            return Err(CircuitError::BudgetFailed {
                margin_db: plan.link.margin.0,
            });
        }

        let mut build = CrossBuild {
            segments: Vec::new(),
            manual_src_claim: None,
            manual_dst_claim: None,
        };
        if let Err(e) = self.build_cross(src, dst, lanes, &fibers, plan, &mut build) {
            for (w, id) in build.segments.into_iter().rev() {
                // Just-established segments cannot fail to tear down; keep
                // the rollback panic-free regardless.
                if let Ok(wafer) = self.wafer_at(w) {
                    let _ = wafer.teardown(id);
                }
            }
            if let Some(set) = build.manual_src_claim {
                if let Ok(wafer) = self.wafer_at(src.0) {
                    wafer.tile_mut(src.1).serdes.release_tx(set);
                }
            }
            return Err(e);
        }

        for &fi in &fibers {
            if let Some(f) = self.fibers.get_mut(fi) {
                f.used += 1;
            }
        }
        let id = CrossCircuitId(self.next_id);
        self.next_id += 1;
        self.cross.insert(
            id,
            CrossCircuit {
                id,
                src,
                dst,
                fibers,
                segments: build.segments,
                lanes,
                bandwidth: Gbps(rate.0 * lanes as f64),
                link: plan.link,
                manual_src_claim: build.manual_src_claim,
                manual_dst_claim: build.manual_dst_claim,
            },
        );
        Ok((id, SimDuration::from_secs_f64(RECONFIG_LATENCY_S)))
    }

    /// The building pass of [`commit_cross`](Self::commit_cross), in route
    /// order: the source's SerDes claim when it sits on the attach tile
    /// (the plan has no segment there), each planned segment on its planned
    /// route with its planned report, and the destination's claim when it
    /// sits on the attach tile. Handles and manual claims are recorded into
    /// `build` so the caller can roll back on failure.
    fn build_cross(
        &mut self,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        lanes: usize,
        fibers: &[usize],
        plan: &CrossPlan,
        build: &mut CrossBuild,
    ) -> Result<(), CircuitError> {
        let last = fibers.len();
        if plan.segments.first().is_none_or(|sp| sp.hop != 0) {
            let tile = self.wafer_at(src.0)?.tile_mut(src.1);
            if tile.is_failed() {
                return Err(CircuitError::TileFailed(src.1));
            }
            let avail = tile.serdes.tx_available();
            let set = avail
                .take_lowest(lanes)
                .ok_or(CircuitError::InsufficientTxLanes {
                    tile: src.1,
                    free: avail.len(),
                    requested: lanes,
                })?;
            if tile.serdes.claim_tx(set).is_none() {
                return Err(CircuitError::InsufficientTxLanes {
                    tile: src.1,
                    free: tile.serdes.tx_available().len(),
                    requested: lanes,
                });
            }
            build.manual_src_claim = Some(set);
        }
        let (mut wafer, mut hop) = (src.0, 0);
        for sp in &plan.segments {
            // Walk the route on to the segment's wafer.
            for &fi in fibers.get(hop..sp.hop).unwrap_or_default() {
                let f = self.fibers.get(fi).ok_or(CircuitError::NoFiberLink)?;
                wafer = f.other_end(wafer);
            }
            hop = sp.hop;
            let mut req = CircuitRequest::new(sp.path.src(), sp.path.dst(), lanes);
            req.claim_src_serdes = hop == 0;
            req.claim_dst_serdes = hop == last;
            let w = self.wafer_at(wafer)?;
            let id = w
                .establish_prebudgeted(req.via(sp.path.clone()), sp.link)?
                .id;
            build.segments.push((wafer, id));
        }
        if plan.segments.last().is_none_or(|sp| sp.hop != last) {
            let tile = self.wafer_at(dst.0)?.tile_mut(dst.1);
            if tile.is_failed() {
                return Err(CircuitError::TileFailed(dst.1));
            }
            let avail = tile.serdes.rx_available();
            let set = avail
                .take_lowest(lanes)
                .ok_or(CircuitError::InsufficientRxLanes {
                    tile: dst.1,
                    free: avail.len(),
                    requested: lanes,
                })?;
            if tile.serdes.claim_rx(set).is_none() {
                return Err(CircuitError::InsufficientRxLanes {
                    tile: dst.1,
                    free: tile.serdes.rx_available().len(),
                    requested: lanes,
                });
            }
            build.manual_dst_claim = Some(lanes);
        }
        Ok(())
    }

    /// Tear a cross-wafer circuit down.
    pub fn teardown_cross(&mut self, id: CrossCircuitId) -> Result<(), CircuitError> {
        let ckt = self
            .cross
            .remove(&id)
            .ok_or(CircuitError::UnknownCircuit(CircuitId(id.0)))?;
        for &(w, seg) in &ckt.segments {
            self.wafer_at(w)?.teardown(seg)?;
        }
        if let Some(set) = ckt.manual_src_claim {
            self.wafer_at(ckt.src.0)?
                .tile_mut(ckt.src.1)
                .serdes
                .release_tx(set);
        }
        if let Some(lanes) = ckt.manual_dst_claim {
            let tile = self.wafer_at(ckt.dst.0)?.tile_mut(ckt.dst.1);
            let all = LambdaSet::first_n(tile.serdes.lanes());
            let in_use = all.difference(tile.serdes.rx_available());
            // The claim is recorded on the circuit, so the lanes are in
            // use; release whatever is held if bookkeeping ever disagreed.
            let set = in_use.take_lowest(lanes).unwrap_or(in_use);
            tile.serdes.release_rx(set);
        }
        for &fi in &ckt.fibers {
            if let Some(f) = self.fibers.get_mut(fi) {
                f.used -= 1;
            }
        }
        Ok(())
    }

    /// Tear down a circuit by its uniform handle (see [`FabricCircuit`]).
    pub fn teardown_handle(&mut self, handle: FabricCircuit) -> Result<(), CircuitError> {
        match handle {
            FabricCircuit::Wafer(w, id) => self.wafer_mut(w).teardown(id),
            FabricCircuit::Cross(id) => self.teardown_cross(id),
        }
    }

    /// Look up a cross-wafer circuit.
    pub fn cross_circuit(&self, id: CrossCircuitId) -> Option<&CrossCircuit> {
        self.cross.get(&id)
    }

    /// Live cross-wafer circuits in id order.
    pub fn cross_circuits(&self) -> impl Iterator<Item = &CrossCircuit> {
        self.cross.values()
    }

    /// Serialize all mutable fabric state into a canonical snapshot: every
    /// wafer's state, per-fiber-bundle usage counts, the cross-circuit
    /// table (including manual SerDes claims at degenerate attach-tile
    /// endpoints), and the id counter. The fiber *plant* (links, lengths,
    /// capacities) is template state rebuilt by the caller's constructor
    /// and is not written.
    pub fn write_snap(&self, w: &mut desim::SnapWriter) {
        self.write_snap_head(w);
        for wafer in &self.wafers {
            wafer.write_snap(w);
        }
        self.write_snap_links(w);
    }

    /// [`write_snap`](Self::write_snap), byte for byte, through a per-wafer
    /// text cache: a wafer whose revision has not moved since its text was
    /// last written is appended from the cache, and only the others are
    /// re-serialized, so serialization costs O(changed wafers). Debug
    /// builds check every cached text against a fresh write.
    pub fn write_snap_cached(&mut self, w: &mut desim::SnapWriter) {
        self.write_snap_head(w);
        self.snap_text
            .resize_with(self.wafers.len(), WaferText::default);
        for (wafer, cached) in self.wafers.iter().zip(&mut self.snap_text) {
            if cached.rev != Some(wafer.rev()) {
                cached.text = wafer_text(wafer);
                cached.rev = Some(wafer.rev());
            }
            debug_assert_eq!(
                cached.text,
                wafer_text(wafer),
                "cached wafer snapshot text diverged from a fresh write"
            );
            w.append(&cached.text);
        }
        self.write_snap_links(w);
    }

    fn write_snap_head(&self, w: &mut desim::SnapWriter) {
        w.section("fabric");
        w.u64("next_id", self.next_id);
        w.u64("wafers", self.wafers.len() as u64);
    }

    /// Fiber usage and the cross-circuit table: the part of the fabric's
    /// snapshot after its wafers.
    fn write_snap_links(&self, w: &mut desim::SnapWriter) {
        w.u64("fibers", self.fibers.len() as u64);
        for f in &self.fibers {
            w.u64("used", f.used as u64);
        }
        w.u64("cross", self.cross.len() as u64);
        for c in self.cross.values() {
            w.u64("id", c.id.0);
            w.u64("src_wafer", c.src.0 .0 as u64);
            w.u64("src_row", c.src.1.row as u64);
            w.u64("src_col", c.src.1.col as u64);
            w.u64("dst_wafer", c.dst.0 .0 as u64);
            w.u64("dst_row", c.dst.1.row as u64);
            w.u64("dst_col", c.dst.1.col as u64);
            w.u64("fiber_hops", c.fibers.len() as u64);
            for &fi in &c.fibers {
                w.u64("fiber", fi as u64);
            }
            w.u64("segments", c.segments.len() as u64);
            for (wid, cid) in &c.segments {
                w.u64("seg_wafer", wid.0 as u64);
                w.u64("seg_ckt", cid.0);
            }
            w.u64("lanes", c.lanes as u64);
            w.f64("bandwidth", c.bandwidth.0);
            w.f64("received", c.link.received.0);
            w.f64("sensitivity", c.link.sensitivity.0);
            w.f64("margin", c.link.margin.0);
            w.f64("ber", c.link.ber);
            w.f64("rate", c.link.rate.0);
            match c.manual_src_claim {
                Some(set) => {
                    w.bool("has_src_claim", true);
                    w.u64("src_claim", set.bits());
                }
                None => w.bool("has_src_claim", false),
            }
            match c.manual_dst_claim {
                Some(n) => {
                    w.bool("has_dst_claim", true);
                    w.u64("dst_claim", n as u64);
                }
                None => w.bool("has_dst_claim", false),
            }
        }
    }

    /// Apply a [`write_snap`](Self::write_snap) snapshot onto a freshly
    /// constructed fabric with the identical wafer configs and fiber plant.
    /// Every cross-circuit segment must name a live circuit on its wafer,
    /// and no circuit may be a segment of two cross circuits: the teardown
    /// of such a circuit would fail, or release what another still holds.
    /// Fiber usage and every tile's SerDes claims must be the ones the
    /// restored circuits hold, or a teardown would release what the
    /// restored pools do not hold.
    pub fn read_snap(&mut self, r: &mut desim::SnapReader<'_>) -> Result<(), String> {
        r.section("fabric")?;
        self.next_id = r.u64("next_id")?;
        let wafers = r.u64("wafers")? as usize;
        if wafers != self.wafers.len() {
            return Err(format!(
                "fabric restore: {wafers} wafers in snapshot, {} constructed",
                self.wafers.len()
            ));
        }
        for wafer in self.wafers.iter_mut() {
            wafer.read_snap(r)?;
        }
        let fibers = r.u64("fibers")? as usize;
        if fibers != self.fibers.len() {
            return Err(format!(
                "fabric restore: {fibers} fiber links in snapshot, {} attached",
                self.fibers.len()
            ));
        }
        for f in self.fibers.iter_mut() {
            let used = u32::try_from(r.u64("used")?)
                .map_err(|_| "fabric restore: fiber usage exceeds u32".to_string())?;
            if used > f.link.capacity {
                return Err(format!(
                    "fabric restore: fiber usage {used} exceeds capacity {}",
                    f.link.capacity
                ));
            }
            f.used = used;
        }
        let cross = r.u64("cross")? as usize;
        // Every (wafer, circuit) some cross circuit holds as a segment.
        let mut held = BTreeSet::new();
        for _ in 0..cross {
            let id = CrossCircuitId(r.u64("id")?);
            let coord = |r: &mut desim::SnapReader<'_>,
                         wk: &str,
                         rk: &str,
                         ck: &str|
             -> Result<(WaferId, TileCoord), String> {
                let wid = r.u64(wk)? as usize;
                if wid >= wafers {
                    return Err(format!("fabric restore: {wk} {wid} out of range"));
                }
                let row = u8::try_from(r.u64(rk)?)
                    .map_err(|_| "fabric restore: tile row exceeds u8".to_string())?;
                let col = u8::try_from(r.u64(ck)?)
                    .map_err(|_| "fabric restore: tile col exceeds u8".to_string())?;
                Ok((WaferId(wid), TileCoord::new(row, col)))
            };
            let src = coord(r, "src_wafer", "src_row", "src_col")?;
            let dst = coord(r, "dst_wafer", "dst_row", "dst_col")?;
            let hops = r.u64("fiber_hops")? as usize;
            let mut fibers = Vec::new();
            for _ in 0..hops {
                let fi = r.u64("fiber")? as usize;
                if fi >= self.fibers.len() {
                    return Err(format!("fabric restore: fiber index {fi} out of range"));
                }
                fibers.push(fi);
            }
            let nseg = r.u64("segments")? as usize;
            let mut segments = Vec::new();
            for _ in 0..nseg {
                let wid = r.u64("seg_wafer")? as usize;
                let Some(wafer) = self.wafers.get(wid) else {
                    return Err(format!("fabric restore: segment wafer {wid} out of range"));
                };
                let ckt = CircuitId::from_raw(r.u64("seg_ckt")?);
                if wafer.circuit(ckt).is_none() {
                    return Err(format!(
                        "fabric restore: cross circuit {} segment names {ckt} on wafer {wid}, \
                         which is not live",
                        id.0
                    ));
                }
                if !held.insert((wid, ckt)) {
                    return Err(format!(
                        "fabric restore: {ckt} on wafer {wid} is a segment of two cross circuits"
                    ));
                }
                segments.push((WaferId(wid), ckt));
            }
            let lanes = r.u64("lanes")? as usize;
            let bandwidth = Gbps(r.f64("bandwidth")?);
            let link = LinkReport {
                received: phy::units::Dbm(r.f64("received")?),
                sensitivity: phy::units::Dbm(r.f64("sensitivity")?),
                margin: phy::units::Db(r.f64("margin")?),
                ber: r.f64("ber")?,
                rate: Gbps(r.f64("rate")?),
            };
            let manual_src_claim = if r.bool("has_src_claim")? {
                Some(LambdaSet::from_bits(r.u64("src_claim")?))
            } else {
                None
            };
            let manual_dst_claim = if r.bool("has_dst_claim")? {
                Some(r.u64("dst_claim")? as usize)
            } else {
                None
            };
            if self
                .cross
                .insert(
                    id,
                    CrossCircuit {
                        id,
                        src,
                        dst,
                        fibers,
                        segments,
                        lanes,
                        bandwidth,
                        link,
                        manual_src_claim,
                        manual_dst_claim,
                    },
                )
                .is_some()
            {
                return Err(format!("fabric restore: duplicate cross circuit {}", id.0));
            }
        }
        // A cross circuit holds one fiber of each bundle it crosses, so the
        // usage follows from the cross circuits.
        let mut usage = vec![0u32; self.fibers.len()];
        for fi in self.cross.values().flat_map(|c| &c.fibers) {
            if let Some(n) = usage.get_mut(*fi) {
                *n += 1;
            }
        }
        for (i, (f, want)) in self.fibers.iter().zip(usage).enumerate() {
            if f.used != want {
                return Err(format!(
                    "fabric restore: fiber link {i} reads used={}, but its cross circuits hold {want}",
                    f.used
                ));
            }
        }
        self.check_serdes_claims()
    }

    /// A tile's SerDes claims follow from the circuits as well. Its tx
    /// lanes are the wavelengths of every circuit that claimed its source
    /// there, plus the manual source claim of a cross circuit that starts
    /// there, and no two of them share a lane. Its rx lanes in use number
    /// the lanes of every circuit that claimed its sink there, plus a
    /// manual sink claim. Which rx lanes those are depends on the order of
    /// earlier teardowns ([`Wafer::teardown`] releases the lowest in use),
    /// so only their count is fixed.
    fn check_serdes_claims(&self) -> Result<(), String> {
        let mut tx: BTreeMap<(WaferId, TileCoord), LambdaSet> = BTreeMap::new();
        let mut rx: BTreeMap<(WaferId, TileCoord), usize> = BTreeMap::new();
        let mut claim_tx = |(w, t): (WaferId, TileCoord), set: LambdaSet| {
            let held = tx.entry((w, t)).or_default();
            if !held.is_disjoint(&set) {
                return Err(format!(
                    "fabric restore: wafer {} tile {t}: two circuits claim one tx lane",
                    w.0
                ));
            }
            *held = held.union(set);
            Ok(())
        };
        for (w, wafer) in self.wafers.iter().enumerate() {
            for c in wafer.circuits() {
                if c.claimed_src {
                    claim_tx((WaferId(w), c.path.src()), c.lambdas)?;
                }
                if c.claimed_dst {
                    *rx.entry((WaferId(w), c.path.dst())).or_default() += c.lambdas.len();
                }
            }
        }
        for c in self.cross.values() {
            if let Some(set) = c.manual_src_claim {
                claim_tx(c.src, set)?;
            }
            if let Some(n) = c.manual_dst_claim {
                *rx.entry(c.dst).or_default() += n;
            }
        }
        for (w, wafer) in self.wafers.iter().enumerate() {
            for t in wafer.coords() {
                let serdes = &wafer.tile(t).serdes;
                let held = LambdaSet::first_n(serdes.lanes()).difference(serdes.tx_available());
                let want = tx.get(&(WaferId(w), t)).copied().unwrap_or_default();
                if held != want {
                    return Err(format!(
                        "fabric restore: wafer {w} tile {t} reads tx={}, but its circuits claim \
                         tx={}",
                        held.bits(),
                        want.bits()
                    ));
                }
                let held = serdes.lanes() - serdes.rx_free();
                let want = rx.get(&(WaferId(w), t)).copied().unwrap_or(0);
                if held != want {
                    return Err(format!(
                        "fabric restore: wafer {w} tile {t} holds {held} rx lanes, but its \
                         circuits claim {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One wafer's snapshot text, written from scratch.
fn wafer_text(wafer: &Wafer) -> String {
    let mut w = desim::SnapWriter::new();
    wafer.write_snap(&mut w);
    w.finish()
}

/// `(edge, load)` once for every bus of the XY and the YX route from `a` to
/// `b` on `wafer`: every load that [`Wafer::default_route`]'s choice and
/// the budget of either route read.
fn witnesses(wafer: &Wafer, a: TileCoord, b: TileCoord) -> Vec<(EdgeId, u32)> {
    let mut seen: Vec<(EdgeId, u32)> = Vec::new();
    for e in Path::xy(a, b).edges().chain(Path::yx(a, b).edges()) {
        if !seen.iter().any(|&(s, _)| s == e) {
            seen.push((e, wafer.edge_used(e)));
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dir;

    fn t(r: u8, c: u8) -> TileCoord {
        TileCoord::new(r, c)
    }

    fn two_wafer_fabric() -> (Fabric, usize) {
        let mut f = Fabric::new(2, WaferConfig::default());
        let idx = f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 4,
            length_m: 2.0,
        });
        (f, idx)
    }

    #[test]
    fn cross_circuit_establish_and_teardown() {
        let (mut f, idx) = two_wafer_fabric();
        let (id, setup) = f
            .establish_cross((WaferId(0), t(2, 1)), (WaferId(1), t(3, 5)), 4)
            .expect("cross circuit");
        assert_eq!(setup, SimDuration::from_secs_f64(3.7e-6));
        assert_eq!(f.fiber_free(idx), 3);
        let ckt = f.cross_circuit(id).unwrap();
        assert!(ckt.link.closes());
        assert_eq!(ckt.fiber_hops(), 1);
        assert!((ckt.bandwidth.0 - 896.0).abs() < 1e-9);
        assert_eq!(f.wafer(WaferId(0)).tile(t(2, 1)).serdes.tx_free(), 12);
        assert_eq!(f.wafer(WaferId(1)).tile(t(3, 5)).serdes.rx_free(), 12);
        // The attach tiles do NOT spend SerDes lanes (pure optical relay).
        assert_eq!(f.wafer(WaferId(0)).tile(t(0, 7)).serdes.rx_free(), 16);
        assert_eq!(f.wafer(WaferId(1)).tile(t(0, 0)).serdes.tx_free(), 16);

        f.teardown_cross(id).unwrap();
        assert_eq!(f.fiber_free(idx), 4);
        assert_eq!(f.wafer(WaferId(0)).tile(t(2, 1)).serdes.tx_free(), 16);
        assert_eq!(f.wafer(WaferId(1)).tile(t(3, 5)).serdes.rx_free(), 16);
        assert_eq!(f.wafer(WaferId(0)).circuits().count(), 0);
        assert_eq!(f.wafer(WaferId(1)).circuits().count(), 0);
    }

    #[test]
    fn degenerate_endpoints_at_attach_tiles() {
        let (mut f, _) = two_wafer_fabric();
        let (id, _) = f
            .establish_cross((WaferId(0), t(0, 7)), (WaferId(1), t(0, 0)), 2)
            .expect("attach-to-attach circuit");
        assert_eq!(f.wafer(WaferId(0)).tile(t(0, 7)).serdes.tx_free(), 14);
        assert_eq!(f.wafer(WaferId(1)).tile(t(0, 0)).serdes.rx_free(), 14);
        // No intra-wafer segments exist.
        let ckt = f.cross_circuit(id).unwrap();
        assert!(ckt.segments.is_empty());
        f.teardown_cross(id).unwrap();
        assert_eq!(f.wafer(WaferId(0)).tile(t(0, 7)).serdes.tx_free(), 16);
        assert_eq!(f.wafer(WaferId(1)).tile(t(0, 0)).serdes.rx_free(), 16);
    }

    #[test]
    fn fiber_capacity_enforced() {
        let (mut f, _) = two_wafer_fabric();
        for i in 0..4 {
            f.establish_cross((WaferId(0), t(1, i)), (WaferId(1), t(1, i)), 1)
                .expect("fits within the 4-fiber bundle");
        }
        let err = f
            .establish_cross((WaferId(0), t(3, 0)), (WaferId(1), t(3, 0)), 1)
            .unwrap_err();
        assert!(matches!(err, CircuitError::FiberExhausted { capacity: 4 }));
    }

    #[test]
    fn missing_link_is_reported() {
        let mut f = Fabric::new(3, WaferConfig::default());
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        let err = f
            .establish_cross((WaferId(0), t(0, 0)), (WaferId(2), t(0, 0)), 1)
            .unwrap_err();
        assert_eq!(err, CircuitError::NoFiberLink);
    }

    #[test]
    fn multi_hop_routes_through_intermediate_wafers() {
        // A chain 0 — 1 — 2: circuits from wafer 0 to wafer 2 transit
        // wafer 1 without consuming any of its SerDes lanes.
        let mut f = Fabric::new(3, WaferConfig::default());
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        f.attach_fiber(FiberLink {
            a: (WaferId(1), t(3, 7)),
            b: (WaferId(2), t(0, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        let (id, _) = f
            .establish_cross((WaferId(0), t(2, 2)), (WaferId(2), t(3, 3)), 4)
            .expect("two-hop circuit");
        let ckt = f.cross_circuit(id).unwrap();
        assert_eq!(ckt.fiber_hops(), 2);
        assert_eq!(ckt.segments.len(), 3, "src seg, pass-through, dst seg");
        // The intermediate wafer carries a pass-through circuit but spends
        // no lanes on any tile.
        let mid = f.wafer(WaferId(1));
        assert_eq!(mid.circuits().count(), 1);
        for c in mid.coords() {
            assert_eq!(mid.tile(c).serdes.tx_free(), 16);
            assert_eq!(mid.tile(c).serdes.rx_free(), 16);
        }
        f.teardown_cross(id).unwrap();
        assert_eq!(f.wafer(WaferId(1)).circuits().count(), 0);
        assert_eq!(f.fiber_free(0), 2);
        assert_eq!(f.fiber_free(1), 2);
    }

    #[test]
    fn multi_hop_respects_per_hop_capacity() {
        let mut f = Fabric::new(3, WaferConfig::default());
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        f.attach_fiber(FiberLink {
            a: (WaferId(1), t(3, 7)),
            b: (WaferId(2), t(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        f.establish_cross((WaferId(0), t(1, 1)), (WaferId(2), t(1, 1)), 1)
            .expect("first two-hop circuit");
        let err = f
            .establish_cross((WaferId(0), t(2, 1)), (WaferId(2), t(2, 1)), 1)
            .unwrap_err();
        assert!(matches!(err, CircuitError::FiberExhausted { capacity: 1 }));
    }

    #[test]
    fn rollback_on_far_side_failure() {
        let (mut f, idx) = two_wafer_fabric();
        f.wafer_mut(WaferId(1)).fail_tile(t(3, 5));
        let err = f
            .establish_cross((WaferId(0), t(2, 1)), (WaferId(1), t(3, 5)), 4)
            .unwrap_err();
        assert_eq!(err, CircuitError::TileFailed(t(3, 5)));
        // Nothing leaked on the near side.
        assert_eq!(f.wafer(WaferId(0)).tile(t(2, 1)).serdes.tx_free(), 16);
        assert_eq!(f.wafer(WaferId(0)).circuits().count(), 0);
        assert_eq!(f.fiber_free(idx), 4);
    }

    #[test]
    fn least_loaded_link_is_chosen() {
        let mut f = Fabric::new(2, WaferConfig::default());
        let l0 = f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        let l1 = f.attach_fiber(FiberLink {
            a: (WaferId(0), t(3, 7)),
            b: (WaferId(1), t(3, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        f.establish_cross((WaferId(0), t(1, 1)), (WaferId(1), t(1, 1)), 1)
            .unwrap();
        // l1 had more free fibers; it should have been used.
        assert_eq!(f.fiber_free(l0), 1);
        assert_eq!(f.fiber_free(l1), 1);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (mut f, _) = two_wafer_fabric();
        // One normal cross circuit, one degenerate (attach-to-attach, which
        // exercises the manual claim fields), one intra-wafer circuit.
        f.establish_cross((WaferId(0), t(2, 1)), (WaferId(1), t(3, 5)), 4)
            .unwrap();
        f.establish_cross((WaferId(0), t(0, 7)), (WaferId(1), t(0, 0)), 2)
            .unwrap();
        f.wafer_mut(WaferId(0))
            .establish(CircuitRequest::new(t(1, 1), t(2, 2), 3))
            .unwrap();

        let mut sw = desim::SnapWriter::new();
        f.write_snap(&mut sw);
        let text = sw.finish();

        let (mut g, _) = two_wafer_fabric();
        let mut r = desim::SnapReader::new(&text);
        g.read_snap(&mut r).expect("restore");
        r.done().expect("consumed fully");

        let mut sw2 = desim::SnapWriter::new();
        g.write_snap(&mut sw2);
        assert_eq!(
            sw2.finish(),
            text,
            "restored fabric re-serializes identically"
        );

        // Teardown through the restored fabric releases everything.
        let ids: Vec<CrossCircuitId> = g.cross_circuits().map(|c| c.id).collect();
        for id in ids {
            g.teardown_cross(id).unwrap();
        }
        assert_eq!(g.fiber_free(0), 4);
        assert_eq!(g.wafer(WaferId(0)).tile(t(0, 7)).serdes.tx_free(), 16);
        assert_eq!(g.wafer(WaferId(1)).tile(t(3, 5)).serdes.rx_free(), 16);
    }

    /// A restored cross circuit's segments must be live circuits of their
    /// wafers, each a segment of one cross circuit only.
    #[test]
    fn restore_refuses_segments_not_live_or_held_twice() {
        let (mut f, _) = two_wafer_fabric();
        for (a, b) in [(t(2, 1), t(3, 5)), (t(2, 2), t(3, 6))] {
            f.establish_cross((WaferId(0), a), (WaferId(1), b), 1)
                .expect("cross circuit");
        }
        let mut sw = desim::SnapWriter::new();
        f.write_snap(&mut sw);
        let text = sw.finish();
        let restore = |text: &str| {
            two_wafer_fabric()
                .0
                .read_snap(&mut desim::SnapReader::new(text))
        };
        assert_eq!(restore(&text), Ok(()));
        // The second circuit's first segment, wafer 0's circuit 1, renamed
        // to the first circuit's segment there, then to no circuit at all.
        let line = "seg_ckt=1\n";
        let at = text.find(line).expect("a segment");
        let (head, tail) = (&text[..at], &text[at + line.len()..]);
        for (ckt, want) in [
            (0, "ckt#0 on wafer 0 is a segment of two cross circuits"),
            (7, "segment names ckt#7 on wafer 0, which is not live"),
        ] {
            let forged = format!("{head}seg_ckt={ckt}\n{tail}");
            match restore(&forged) {
                Err(e) => assert!(e.contains(want), "{e}"),
                Ok(()) => panic!("a forged segment {ckt} restored"),
            }
        }
    }

    /// Serialize `f` fresh and through its cache; the bytes must agree.
    /// Returns the cached text and the ids of the wafers it re-serialized.
    fn cached_write(f: &mut Fabric) -> (String, Vec<usize>) {
        let before: Vec<Option<u64>> = f.snap_text.iter().map(|c| c.rev).collect();
        let mut cached = desim::SnapWriter::new();
        f.write_snap_cached(&mut cached);
        let mut fresh = desim::SnapWriter::new();
        f.write_snap(&mut fresh);
        let text = cached.finish();
        assert_eq!(text, fresh.finish(), "cached write diverged from fresh");
        let rewritten = f
            .snap_text
            .iter()
            .enumerate()
            .filter(|&(i, c)| before.get(i).copied().flatten() != c.rev)
            .map(|(i, _)| i)
            .collect();
        (text, rewritten)
    }

    #[test]
    fn every_wafer_mutation_forces_its_text_to_be_rewritten() {
        let (mut f, _) = two_wafer_fabric();
        let (text, rewritten) = cached_write(&mut f);
        assert_eq!(rewritten, [0, 1], "a cold cache writes every wafer");
        assert_eq!(cached_write(&mut f), (text.clone(), vec![]));

        // A SerDes claim straight through `tile_mut`, the way cross
        // circuits claim attach-tile lanes: the bytes move.
        f.wafer_mut(WaferId(1))
            .tile_mut(t(2, 3))
            .serdes
            .claim_tx(LambdaSet::first_n(2))
            .expect("free lanes");
        let (claimed, rewritten) = cached_write(&mut f);
        assert_eq!(rewritten, [1]);
        assert_ne!(claimed, text);

        // A failed establish changes no byte, yet still rewrites: a
        // rolled-back batch is a run of calls like this one.
        let same = CircuitRequest::new(t(1, 1), t(1, 1), 1);
        assert!(f.wafer_mut(WaferId(0)).establish(same).is_err());
        assert_eq!(cached_write(&mut f), (claimed.clone(), vec![0]));

        // A circuit and its teardown each rewrite their wafer.
        let id = f
            .wafer_mut(WaferId(0))
            .establish(CircuitRequest::new(t(1, 1), t(2, 2), 1))
            .expect("establish")
            .id;
        assert_eq!(cached_write(&mut f).1, [0]);
        f.wafer_mut(WaferId(0)).teardown(id).expect("teardown");
        assert_eq!(cached_write(&mut f).1, [0]);

        // The bare claim above is held by no circuit, so restore refuses
        // it by wafer and tile.
        let (mut g, _) = two_wafer_fabric();
        let refused = g.read_snap(&mut desim::SnapReader::new(&claimed));
        assert!(
            refused
                .as_ref()
                .is_err_and(|e| e.contains("wafer 1 tile (2,3) reads tx=3")),
            "{refused:?}"
        );

        // Restoring over a warm cache rewrites every wafer it reads.
        f.wafer_mut(WaferId(1))
            .establish(CircuitRequest::new(t(0, 0), t(1, 1), 1))
            .expect("establish");
        f.wafer_mut(WaferId(1))
            .tile_mut(t(2, 3))
            .serdes
            .release_tx(LambdaSet::first_n(2));
        let (held, _) = cached_write(&mut f);
        let (mut g, _) = two_wafer_fabric();
        assert_eq!(cached_write(&mut g).1, [0, 1]);
        let mut r = desim::SnapReader::new(&held);
        g.read_snap(&mut r).expect("restore");
        r.done().expect("consumed fully");
        assert_eq!(cached_write(&mut g), (held, vec![0, 1]));
    }

    /// Two circuits whose source claims share a tx lane: the tile's `tx=`
    /// reads their union, so only the overlap shows that a teardown would
    /// release a lane the other still holds.
    #[test]
    fn restore_refuses_two_circuits_on_one_tx_lane() {
        let (mut f, _) = two_wafer_fabric();
        for dst in [t(1, 1), t(2, 2)] {
            f.wafer_mut(WaferId(0))
                .establish(CircuitRequest::new(t(0, 0), dst, 1))
                .expect("establish");
        }
        let mut w = desim::SnapWriter::new();
        f.write_snap(&mut w);
        let text = w.finish();
        let forged =
            text.replacen("\ntx=3\n", "\ntx=1\n", 1)
                .replacen("\nlambdas=2\n", "\nlambdas=1\n", 1);
        let (mut g, _) = two_wafer_fabric();
        let refused = g.read_snap(&mut desim::SnapReader::new(&forged));
        assert!(
            refused
                .as_ref()
                .is_err_and(|e| e.contains("wafer 0 tile (0,0): two circuits claim one tx lane")),
            "{refused:?}"
        );
        let (mut g, _) = two_wafer_fabric();
        assert!(g.read_snap(&mut desim::SnapReader::new(&text)).is_ok());
    }

    /// Relocating a cross plan reuses its budgets on other wafers, which
    /// is sound only while every wafer of a fabric has one config and so
    /// one stitch-loss table.
    #[test]
    fn every_wafer_shares_one_config_and_stitch_table() {
        let cfg = WaferConfig {
            fab_seed: 0x5eed,
            ..WaferConfig::default()
        };
        let f = Fabric::new(5, cfg);
        let first = f.wafer(WaferId(0));
        let edges: Vec<EdgeId> = first
            .coords()
            .flat_map(|a| {
                [Dir::East, Dir::South]
                    .into_iter()
                    .filter_map(move |d| a.step(d, 4, 8))
                    .map(move |b| EdgeId::between(a, b))
            })
            .collect();
        assert_eq!(edges.len(), first.edge_index().len(), "every bus once");
        let losses: Vec<u64> = edges
            .iter()
            .map(|&e| first.stitch_loss_db(e).to_bits())
            .collect();
        assert!(
            losses.iter().any(|&l| l != losses[0]),
            "a fabricated wafer has varied stitch losses"
        );
        for w in (1..f.wafer_count()).map(|i| f.wafer(WaferId(i))) {
            assert_eq!(format!("{:?}", w.config()), format!("{:?}", first.config()));
            let here: Vec<u64> = edges
                .iter()
                .map(|&e| w.stitch_loss_db(e).to_bits())
                .collect();
            assert_eq!(here, losses);
        }
    }

    #[test]
    fn pass_through_over_failed_tiles_is_allowed() {
        // Light transits a wafer whose chips all failed: the photonic layer
        // is independent of the stacked accelerators.
        let mut f = Fabric::new(3, WaferConfig::default());
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        f.attach_fiber(FiberLink {
            a: (WaferId(1), t(3, 7)),
            b: (WaferId(2), t(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        let dead_tiles: Vec<TileCoord> = f.wafer(WaferId(1)).coords().collect();
        for c in dead_tiles {
            f.wafer_mut(WaferId(1)).fail_tile(c);
        }
        let res = f.establish_cross((WaferId(0), t(1, 1)), (WaferId(2), t(1, 1)), 2);
        assert!(res.is_ok(), "pass-through ignores accelerator failures");
    }
}

#[cfg(test)]
#[path = "../../phy/tests/support/budget_oracle.rs"]
mod budget_oracle;

/// Fresh intra-wafer and cross-wafer budgets against the per-call oracle,
/// on randomly fabricated and pre-loaded wafers: every report field must
/// match bit for bit, admitted or refused. Fiber routes against a
/// whole-plant reference BFS, on random fiber plants.
#[cfg(test)]
mod oracle_tests {
    use super::budget_oracle::OracleBudget;
    use super::*;
    use proptest::prelude::*;

    impl Fabric {
        /// Reference fiber route: the best bundle per ordered wafer pair,
        /// rebuilt over the whole plant on every call, then a BFS that
        /// returns when it pops `to`.
        fn fiber_route_oracle(
            &self,
            from: WaferId,
            to: WaferId,
            respect_capacity: bool,
        ) -> Option<Vec<usize>> {
            // Best link per ordered wafer pair.
            let mut best: BTreeMap<(WaferId, WaferId), usize> = BTreeMap::new();
            for (i, f) in self.fibers.iter().enumerate() {
                if respect_capacity && f.free() == 0 {
                    continue;
                }
                for (a, b) in [(f.link.a.0, f.link.b.0), (f.link.b.0, f.link.a.0)] {
                    let e = best.entry((a, b)).or_insert(i);
                    if self.fibers[*e].free() < f.free() {
                        *e = i;
                    }
                }
            }
            let mut prev: BTreeMap<WaferId, (WaferId, usize)> = BTreeMap::new();
            let mut q = VecDeque::new();
            q.push_back(from);
            while let Some(w) = q.pop_front() {
                if w == to {
                    let mut path = Vec::new();
                    let mut cur = to;
                    while cur != from {
                        let (p, link) = prev[&cur];
                        path.push(link);
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                // Deterministic neighbour order: ascending wafer id.
                let mut neighbours: Vec<(WaferId, usize)> = best
                    .iter()
                    .filter(|((a, _), _)| *a == w)
                    .map(|((_, b), &i)| (*b, i))
                    .collect();
                neighbours.sort_by_key(|&(b, _)| b);
                for (b, i) in neighbours {
                    if b != from && !prev.contains_key(&b) {
                        prev.insert(b, (w, i));
                        q.push_back(b);
                    }
                }
            }
            None
        }
    }

    fn tile(i: u8) -> TileCoord {
        TileCoord::new(i / 8, i % 8)
    }

    fn route(src: TileCoord, dst: TileCoord, xy: bool) -> Path {
        if xy {
            Path::xy(src, dst)
        } else {
            Path::yx(src, dst)
        }
    }

    fn oracle(path: LossBudget) -> [u64; 5] {
        OracleBudget::lightpath_default(path).evaluate().to_bits()
    }

    /// Whether an oracle report's margin bits close the budget.
    fn closes(margin: u64) -> bool {
        f64::from_bits(margin) >= 0.0
    }

    /// The oracle's reports for a cross circuit over `fibers`, on the wafers
    /// as they are now: the end-to-end report, then each segment's own, in
    /// route order. A segment is a wafer circuit on its default route (XY,
    /// or YX when an XY bus is full), budgeted with no amplifier gain; the
    /// end-to-end budget runs over those same routes, both fiber couplings,
    /// the fiber and the gain of every hop.
    fn oracle_reports(
        f: &Fabric,
        src: (WaferId, TileCoord),
        dst: (WaferId, TileCoord),
        fibers: &[usize],
    ) -> ([u64; 5], Vec<[u64; 5]>) {
        let mut end_to_end = LossBudget::new();
        let mut segments = Vec::new();
        let mut segment = |end_to_end: &mut LossBudget, w: WaferId, a: TileCoord, b: TileCoord| {
            if a == b {
                return;
            }
            let wafer = f.wafer(w);
            let xy_full = Path::xy(a, b)
                .edges()
                .any(|e| wafer.edge_used(e) >= wafer.edge_capacity());
            let budget = wafer.path_loss_budget(&route(a, b, !xy_full));
            end_to_end.extend(&budget);
            segments.push(oracle(budget));
        };
        let (mut wafer, mut at) = src;
        for link in fibers.iter().filter_map(|&fi| f.fibers.get(fi)) {
            let (near, far) = link.oriented(wafer);
            segment(&mut end_to_end, wafer, at, near);
            end_to_end.push(LossElement::FiberCoupling);
            end_to_end.push(LossElement::Fiber {
                length_m: link.link.length_m,
            });
            end_to_end.push(LossElement::FiberCoupling);
            end_to_end.push(LossElement::Amplifier {
                gain_db: FIBER_AMP_GAIN_DB,
            });
            wafer = link.other_end(wafer);
            at = far;
        }
        segment(&mut end_to_end, wafer, at, dst.1);
        (oracle(end_to_end), segments)
    }

    /// A cross circuit whose end-to-end budget closes on the amplifier's
    /// gain while its first segment, budgeted on its own, does not: the
    /// request is refused with that segment's margin, and nothing is
    /// committed.
    #[test]
    fn a_segment_that_does_not_close_refuses_the_circuit() {
        let mut f = Fabric::new(2, config(0xC0FFEE, 1.25));
        f.attach_fiber(FiberLink {
            a: (WaferId(0), TileCoord::new(0, 7)),
            b: (WaferId(1), TileCoord::new(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        // Thirteen co-propagating circuits on one bus of the segment's XY
        // route raise its crosstalk by 13 × 1.25 dB.
        for _ in 0..13 {
            let req = CircuitRequest::new(TileCoord::new(0, 3), TileCoord::new(0, 4), 1);
            assert!(f.wafer_mut(WaferId(0)).establish(req).is_ok());
        }
        let src = (WaferId(0), TileCoord::new(0, 0));
        let dst = (WaferId(1), TileCoord::new(0, 0));
        let fibers = f.fiber_route(src.0, dst.0, true).expect("a fiber route");
        let (end_to_end, segments) = oracle_reports(&f, src, dst, &fibers);
        let wafer = f.wafer(WaferId(0));
        let segment = oracle(wafer.path_loss_budget(&Path::xy(src.1, TileCoord::new(0, 7))));
        assert!(closes(end_to_end[2]), "the end-to-end budget closes");
        assert!(!closes(segment[2]), "the segment's own budget does not");
        assert_eq!(segments, vec![segment]);

        let before = snap(&f);
        match f.establish_cross(src, dst, 1) {
            Err(CircuitError::BudgetFailed { margin_db }) => {
                assert_eq!(margin_db.to_bits(), segment[2]);
            }
            other => panic!("expected the segment's refusal, got {other:?}"),
        }
        assert_eq!(snap(&f), before, "a refused request commits nothing");
    }

    /// A segment whose XY bus is full is built on YX, and the circuit's
    /// stored end-to-end report is budgeted over that YX route, not over
    /// the XY route the light does not take.
    #[test]
    fn a_segment_built_on_yx_is_budgeted_on_yx() {
        let cfg = WaferConfig {
            waveguides_per_edge: 1,
            crosstalk_per_cochannel_db: 1.0,
            ..WaferConfig::default()
        };
        let mut f = Fabric::new(2, cfg);
        let attach = TileCoord::new(0, 7);
        f.attach_fiber(FiberLink {
            a: (WaferId(0), attach),
            b: (WaferId(1), TileCoord::new(0, 0)),
            capacity: 1,
            length_m: 2.0,
        });
        // Fills the (1,3)–(1,4) bus of the segment's XY route.
        let req = CircuitRequest::new(TileCoord::new(1, 3), TileCoord::new(1, 4), 1);
        assert!(f.wafer_mut(WaferId(0)).establish(req).is_ok());
        let src = (WaferId(0), TileCoord::new(1, 0));
        let dst = (WaferId(1), TileCoord::new(0, 0));
        let fibers = f.fiber_route(src.0, dst.0, true).expect("a fiber route");
        let (end_to_end, segments) = oracle_reports(&f, src, dst, &fibers);
        let yx = Path::yx(src.1, attach);
        let mut want = f.wafer(WaferId(0)).path_loss_budget(&yx);
        assert_eq!(segments, vec![oracle(want.clone())]);
        for e in [
            LossElement::FiberCoupling,
            LossElement::Fiber { length_m: 2.0 },
            LossElement::FiberCoupling,
            LossElement::Amplifier {
                gain_db: FIBER_AMP_GAIN_DB,
            },
        ] {
            want.push(e);
        }
        assert_eq!(end_to_end, oracle(want));

        let (id, _) = f.establish_cross(src, dst, 1).expect("the circuit closes");
        let ckt = f.cross_circuit(id).expect("a live circuit");
        let [(w, seg)] = ckt.segments[..] else {
            panic!("one segment, got {:?}", ckt.segments);
        };
        let built = f.wafer(w).circuit(seg).expect("a live segment");
        assert_eq!(built.path, yx, "the segment runs YX");
        assert_eq!(built.link.to_bits(), segments[0]);
        assert_eq!(ckt.link.to_bits(), end_to_end);
        // Taken before the build, as every wafer circuit's report is. The
        // XY budget reads 16.311 dB (its full bus adds 1 dB of crosstalk);
        // YX re-read after the build reads 9.757 dB, as the circuit itself
        // then loads each of its 8 buses.
        assert_eq!(format!("{:.3}", ckt.link.margin.0), "17.757");
    }

    fn config(fab_seed: u64, crosstalk_per_cochannel_db: f64) -> WaferConfig {
        WaferConfig {
            fab_seed,
            crosstalk_per_cochannel_db,
            ..WaferConfig::default()
        }
    }

    fn snap(f: &Fabric) -> String {
        let mut w = desim::SnapWriter::new();
        f.write_snap(&mut w);
        w.finish()
    }

    /// Every field of a cross circuit, floats as bits.
    type CircuitBits = (
        (WaferId, TileCoord),
        (WaferId, TileCoord),
        Vec<usize>,
        Vec<(WaferId, CircuitId)>,
        usize,
        u64,
        [u64; 5],
    );

    fn circuit_bits(c: &CrossCircuit) -> CircuitBits {
        (
            c.src,
            c.dst,
            c.fibers.clone(),
            c.segments.clone(),
            c.lanes,
            c.bandwidth.0.to_bits(),
            c.link.to_bits(),
        )
    }

    /// Twin fabrics under one request sequence: `fresh` establishes every
    /// cross circuit from scratch, `cached` through `plans`.
    struct Twins {
        fresh: Fabric,
        cached: Fabric,
        plans: CrossPlans,
        /// The wafer pair that captured each image, per class and in
        /// image order.
        captured_at: BTreeMap<CrossClass, Vec<(WaferId, WaferId)>>,
        /// Stamps of an image captured at another wafer pair.
        relocated: usize,
        /// Lookups whose class was known but where no image held.
        refused: usize,
    }

    impl Twins {
        /// One request on both twins: the same result, the same circuit
        /// and the same snapshot bytes. The lookup alone — route probe,
        /// class and witness check — must leave the cached twin
        /// byte-identical, whether it finds an image or refuses them all.
        /// Returns whether the request was admitted.
        fn request(
            &mut self,
            src: (WaferId, TileCoord),
            dst: (WaferId, TileCoord),
            lanes: usize,
        ) -> Result<bool, TestCaseError> {
            let before = snap(&self.cached);
            let lookup = self.cached.fiber_route(src.0, dst.0, true).map(|fibers| {
                let (class, wafers) = self.cached.cross_class(src, dst, &fibers);
                let image = self.plans.classes.get(&class).map(|images| {
                    images
                        .iter()
                        .position(|p| self.cached.witnesses_hold(&wafers, p))
                });
                (class, image)
            });
            prop_assert_eq!(
                snap(&self.cached),
                before,
                "a lookup changed the cached twin"
            );

            let stats = self.plans.stats();
            let want = self.fresh.establish_cross(src, dst, lanes);
            let got = self
                .cached
                .establish_cross_planned(&mut self.plans, src, dst, lanes);
            prop_assert_eq!(&got, &want);
            if let Ok((id, _)) = want {
                prop_assert_eq!(
                    self.cached.cross_circuit(id).map(circuit_bits),
                    self.fresh.cross_circuit(id).map(circuit_bits)
                );
            }
            prop_assert_eq!(snap(&self.cached), snap(&self.fresh));

            let now = self.plans.stats();
            let pair = (src.0, dst.0);
            match lookup {
                Some((class, Some(Some(image)))) => {
                    prop_assert_eq!(now.hits, stats.hits + u64::from(want.is_ok()));
                    let at = self.captured_at.get(&class).and_then(|p| p.get(image));
                    if want.is_ok() && at != Some(&pair) {
                        self.relocated += 1;
                    }
                }
                Some((class, known)) => {
                    prop_assert_eq!(now.misses, stats.misses + 1);
                    if known.is_some() {
                        prop_assert_eq!(now.fallbacks, stats.fallbacks + 1);
                        self.refused += 1;
                    }
                    if want.is_ok() {
                        self.captured_at.entry(class).or_default().push(pair);
                    }
                }
                None => prop_assert_eq!(now.misses, stats.misses + 1),
            }
            Ok(want.is_ok())
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn wafer_budgets_match_the_oracle(
            fab_seed in any::<u64>(),
            crosstalk in 0.0f64..2.0,
            load in prop::collection::vec((0u8..32, 0u8..32, 1usize..=4, any::<bool>()), 0..40),
            probes in prop::collection::vec((0u8..32, 0u8..32, any::<bool>()), 1..24),
        ) {
            let mut w = Wafer::new(config(fab_seed, crosstalk));
            for (a, b, lanes, xy) in load {
                if a == b {
                    continue;
                }
                let path = route(tile(a), tile(b), xy);
                let want = oracle(w.path_loss_budget(&path));
                match w.establish(CircuitRequest::new(tile(a), tile(b), lanes).via(path)) {
                    Ok(rep) => prop_assert_eq!(rep.link.to_bits(), want),
                    Err(CircuitError::BudgetFailed { margin_db }) => {
                        prop_assert_eq!(margin_db.to_bits(), want[2]);
                    }
                    Err(_) => {}
                }
            }
            for (a, b, xy) in probes {
                if a == b {
                    continue;
                }
                let path = route(tile(a), tile(b), xy);
                prop_assert_eq!(
                    w.link_budget(&path).to_bits(),
                    oracle(w.path_loss_budget(&path))
                );
            }
        }

        #[test]
        fn cross_budgets_match_the_oracle(
            fab_seed in any::<u64>(),
            crosstalk in 0.0f64..2.0,
            narrow in any::<bool>(),
            fiber_m in 0.5f64..50.0,
            requests in prop::collection::vec(
                (0usize..3, 0u8..32, 0usize..3, 0u8..32, 1usize..=4),
                1..24,
            ),
        ) {
            // A triangle of wafers, so circuits take one or two fiber hops
            // as the direct bundles fill.
            // Half the cases give each bus 2 waveguides, so XY buses fill
            // and segments fall back to YX.
            let cfg = WaferConfig {
                waveguides_per_edge: if narrow { 2 } else { WaferConfig::default().waveguides_per_edge },
                ..config(fab_seed, crosstalk)
            };
            let mut f = Fabric::new(3, cfg);
            for (a, b) in [((0, 7), (0, 0)), ((3, 7), (3, 0))] {
                for (wa, wb) in [(0, 1), (1, 2)] {
                    f.attach_fiber(FiberLink {
                        a: (WaferId(wa), TileCoord::new(a.0, a.1)),
                        b: (WaferId(wb), TileCoord::new(b.0, b.1)),
                        capacity: 2,
                        length_m: fiber_m,
                    });
                }
            }
            f.attach_fiber(FiberLink {
                a: (WaferId(2), TileCoord::new(1, 7)),
                b: (WaferId(0), TileCoord::new(1, 0)),
                capacity: 1,
                length_m: fiber_m,
            });
            // Through the plan cache, so stamped reports meet the oracle too.
            // Both the end-to-end budget (amplifier gain included) and each
            // segment's own budget must close; a refusal carries the
            // end-to-end margin when that budget fails, else the margin of
            // the first segment, in route order, that does not close.
            let mut plans = CrossPlans::default();
            for (wa, a, wb, b, lanes) in requests {
                if wa == wb {
                    continue;
                }
                let (src, dst) = ((WaferId(wa), tile(a)), (WaferId(wb), tile(b)));
                let reports = f
                    .fiber_route(src.0, dst.0, true)
                    .map(|fibers| oracle_reports(&f, src, dst, &fibers));
                let want = reports.as_ref().map(|(end_to_end, _)| *end_to_end);
                let segments: Vec<u64> = reports
                    .iter()
                    .flat_map(|(_, segments)| segments.iter().map(|r| r[2]))
                    .collect();
                match f.establish_cross_planned(&mut plans, src, dst, lanes) {
                    Ok((id, _)) => {
                        let stored = f.cross_circuit(id).map(|c| c.link.to_bits());
                        prop_assert_eq!(stored, want);
                        prop_assert!(segments.iter().all(|&m| closes(m)));
                    }
                    Err(CircuitError::BudgetFailed { margin_db }) => {
                        let refusal = match want {
                            Some(w) if !closes(w[2]) => Some(w[2]),
                            _ => segments.iter().copied().find(|&m| !closes(m)),
                        };
                        prop_assert_eq!(Some(margin_db.to_bits()), refusal);
                    }
                    Err(_) => {}
                }
            }
        }

        /// Random plants of 2–12 wafers: parallel bundles (in either
        /// orientation), capacities 1–4, missing pairs, and random usage
        /// including saturated bundles. Every ordered wafer pair, with and
        /// without the capacity filter, must route exactly as the oracle.
        #[test]
        fn fiber_routes_match_the_oracle(
            wafers in 2usize..=12,
            bundles in prop::collection::vec(
                (0usize..12, 0usize..12, 1u32..=4, 0u32..=5, 0u8..3),
                0..40,
            ),
        ) {
            let mut f = Fabric::new(wafers, WaferConfig::default());
            let mut last = None;
            for (a, b, capacity, used, parallel) in bundles {
                let (a, b) = match last {
                    Some((pa, pb)) if parallel == 0 => (pb, pa),
                    _ => (a % wafers, b % wafers),
                };
                if a == b {
                    continue;
                }
                let i = f.attach_fiber(FiberLink {
                    a: (WaferId(a), tile(0)),
                    b: (WaferId(b), tile(9)),
                    capacity,
                    length_m: 2.0,
                });
                f.fibers[i].used = used.min(capacity);
                last = Some((a, b));
                // A probe between attaches: the index must follow the plant.
                let to = WaferId(a);
                prop_assert_eq!(
                    f.fiber_route(WaferId(0), to, true),
                    f.fiber_route_oracle(WaferId(0), to, true)
                );
            }
            for from in (0..wafers).map(WaferId) {
                for to in (0..wafers).map(WaferId) {
                    for respect_capacity in [true, false] {
                        prop_assert_eq!(
                            f.fiber_route(from, to, respect_capacity),
                            f.fiber_route_oracle(from, to, respect_capacity),
                            "route {:?} -> {:?}, respect_capacity {}",
                            from,
                            to,
                            respect_capacity
                        );
                    }
                }
            }
        }
    }

    proptest! {
        // More cases than the oracles above: a stale stamp needs a
        // capture and a later lookup whose witness loads differ on one
        // bus only, which a case meets rarely.
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Twin fabrics on random plants of 6–7 wafers whose bundles share
        /// two (attach tiles, length) templates, so classes repeat across
        /// wafer pairs; a third of the cases give both templates the same
        /// tiles, and a third the same near tile and length, so only one
        /// field of the class tells them apart. Random fab seed,
        /// crosstalk and bus capacity (1–2, so XY routes fill up and fall
        /// back to YX). Pairs 0–1 and 2–3 each have one bundle of the
        /// first template, pair 4–5 one of the second.
        ///
        /// A plan captured at 0 → 1 must stamp at 2 → 3, and be refused at
        /// 0 → 1 once its own circuit loads the buses it witnessed. Then
        /// one random sequence of cross requests, teardowns and intra-wafer
        /// pre-loads (XY or YX) runs on pair 0–1 and is replayed on pairs
        /// 2–3 and 4–5, skipping a quarter of its steps, so plans relocate
        /// under the loads the sequence builds up, are refused where the
        /// replays diverge, and must not stamp across templates.
        #[test]
        fn relocated_stamps_equal_fresh_establishes(
            fab_seed in any::<u64>(),
            crosstalk in 0.0f64..2.0,
            waveguides_per_edge in 1u32..=2,
            wafers in 6usize..=7,
            templates in (
                (0u8..32, 0u8..32, 0.5f64..10.0),
                (0u8..32, 0u8..32, 0.5f64..10.0),
                0u8..3,
            ),
            bundles in prop::collection::vec((0usize..7, 0usize..7, any::<bool>(), 1u32..=4), 0..10),
            first in (0u8..32, 0u8..32, 1usize..=4),
            pool in (0u8..32, 0u8..32),
            ops in prop::collection::vec(
                ((0u8..10, 0u8..4), any::<bool>(), 0usize..4, 0usize..4, 1usize..=2, any::<bool>()),
                1..40,
            ),
        ) {
            let (t0, t1, shared) = templates;
            let t1 = match shared {
                0 => t1,
                1 => (t0.0, t0.1, t1.2),
                _ => (t0.0, t1.1, t0.2),
            };
            let cfg = WaferConfig {
                waveguides_per_edge,
                ..config(fab_seed, crosstalk)
            };
            let mut twins = Twins {
                fresh: Fabric::new(wafers, cfg.clone()),
                cached: Fabric::new(wafers, cfg),
                plans: CrossPlans::default(),
                captured_at: BTreeMap::new(),
                relocated: 0,
                refused: 0,
            };
            let pairs = [(0, t0), (2, t0), (4, t1)];
            let extra = bundles
                .into_iter()
                .map(|(a, b, second, cap)| (a % wafers, b % wafers, if second { t1 } else { t0 }, cap))
                .filter(|&(a, b, _, _)| a / 2 != b / 2);
            for (a, b, (near, far, length_m), capacity) in
                pairs.map(|(w, t)| (w, w + 1, t, 4)).into_iter().chain(extra)
            {
                for f in [&mut twins.fresh, &mut twins.cached] {
                    f.attach_fiber(FiberLink {
                        a: (WaferId(a), tile(near)),
                        b: (WaferId(b), tile(far)),
                        capacity,
                        length_m,
                    });
                }
            }

            // Off the attach tiles, so both ends have a segment.
            let (src, dst, lanes) = first;
            let off = |t: u8, attach: u8| tile(if t == attach { (t + 1) % 32 } else { t });
            let (src, dst) = (off(src, t0.0), off(dst, t0.1));
            let admitted = twins.request((WaferId(0), src), (WaferId(1), dst), lanes)?;
            twins.request((WaferId(2), src), (WaferId(3), dst), lanes)?;
            prop_assert_eq!(twins.relocated, usize::from(admitted), "no stamp at 2 -> 3");
            twins.request((WaferId(0), src), (WaferId(1), dst), lanes)?;
            prop_assert_eq!(twins.refused, usize::from(admitted), "no refusal at 0 -> 1");
            let live: Vec<CrossCircuitId> = twins.fresh.cross_circuits().map(|c| c.id).collect();
            for id in live {
                prop_assert_eq!(twins.cached.teardown_cross(id), twins.fresh.teardown_cross(id));
            }

            for (base, t) in pairs {
                let pool = [pool.0, pool.1, t.0, t.1].map(tile);
                let in_pair = |w: WaferId| w.0 / 2 == base / 2;
                for &((kind, replay), forward, a, b, lanes, xy) in &ops {
                    if base > 0 && replay == 0 {
                        continue;
                    }
                    let (ta, tb) = (pool[a], pool[b]);
                    let (wa, wb) = if forward { (base, base + 1) } else { (base + 1, base) };
                    let (wa, wb) = (WaferId(wa), WaferId(wb));
                    match kind {
                        0..=4 => {
                            twins.request((wa, ta), (wb, tb), lanes)?;
                        }
                        5..=7 => {
                            let live: Vec<CrossCircuitId> = twins
                                .fresh
                                .cross_circuits()
                                .filter(|c| in_pair(c.src.0))
                                .map(|c| c.id)
                                .collect();
                            if let Some(&id) = live.get(a % live.len().max(1)) {
                                prop_assert_eq!(
                                    twins.cached.teardown_cross(id),
                                    twins.fresh.teardown_cross(id)
                                );
                            }
                        }
                        _ if ta != tb => {
                            let req = CircuitRequest::new(ta, tb, lanes).via(route(ta, tb, xy));
                            let want = twins.fresh.wafer_mut(wa).establish(req.clone()).map(|r| r.id);
                            prop_assert_eq!(twins.cached.wafer_mut(wa).establish(req).map(|r| r.id), want);
                        }
                        _ => {}
                    }
                    prop_assert_eq!(snap(&twins.cached), snap(&twins.fresh));
                }
            }
        }
    }
}
