//! Circuit planning: from an admitted slice to programmable demands.
//!
//! An admitted tenant runs ring collectives over its slice (§4.1), so the
//! control plane programs one circuit per directed ring hop along the
//! slice's snake order. Hops whose endpoints share a server become
//! intra-wafer demands, grouped per wafer and executed through
//! [`route::allocate_non_overlapping`] — the atomic, mutually
//! edge-disjoint batch primitive. Hops crossing servers become cross-wafer
//! circuits over the fiber plant. [`program_with`] and [`program_planned`]
//! commit the whole plan atomically: any establishment error rolls back
//! everything this plan placed, so admission control sees exact
//! all-or-nothing semantics.

use collectives::snake_order;
pub use lightpath::CrossPlanStats;
use lightpath::{
    CircuitError, CircuitId, CrossCircuitId, CrossPlans, CtrlFault, Fabric, FabricCircuit,
    FabricError, TileCoord, WaferId,
};
use resilience::chip_to_tile;
use route::{allocate_non_overlapping_with, Demand, PlanLibrary, PlanStats, Searcher, StampAudit};
use std::collections::BTreeMap;
use topo::{Cluster, Slice};

/// The circuits a slice's ring needs, split by execution mechanism.
#[derive(Debug, Clone)]
pub struct CircuitPlan {
    /// Intra-wafer demands, grouped per wafer in wafer-id order. Each
    /// group is established as one atomic edge-disjoint batch.
    pub batches: Vec<(WaferId, Vec<Demand>)>,
    /// Cross-wafer hops `(src, dst, lanes)`, in ring order.
    pub cross: Vec<CrossHop>,
}

impl CircuitPlan {
    /// Total circuits the plan will establish.
    pub fn circuits(&self) -> usize {
        self.batches.iter().map(|(_, d)| d.len()).sum::<usize>() + self.cross.len()
    }
}

/// The routing scratch and plan caches a control plane holds across every
/// plan it commits: one reusable A* [`Searcher`] (so retried and replayed
/// programs never allocate a fresh scratch per call), the intra-wafer
/// [`PlanLibrary`] of captured batches, and the class-keyed
/// [`CrossPlans`] of relocatable cross-wafer plans. All caches are pure
/// accelerators: a warm and a cold engine produce byte-identical fabric
/// state, which is why none of this is journaled, snapshotted, or
/// fingerprinted.
#[derive(Debug, Clone)]
pub struct PlanEngine {
    searcher: Searcher,
    library: PlanLibrary,
    cross: CrossPlans,
}

impl Default for PlanEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanEngine {
    /// A cold engine: empty caches, empty scratch.
    pub fn new() -> Self {
        PlanEngine {
            searcher: Searcher::new(),
            library: PlanLibrary::new(),
            cross: CrossPlans::default(),
        }
    }

    /// Intra-wafer plan-library counters.
    pub fn plan_stats(&self) -> PlanStats {
        self.library.stats()
    }

    /// Cross-wafer plan cache counters.
    pub fn cross_stats(&self) -> CrossPlanStats {
        self.cross.stats()
    }

    /// Recent stamped-batch audit records (boundary contracts), for
    /// verify rule RTE501.
    pub fn audit(&self) -> StampAudit {
        self.library.audit()
    }

    /// Plan-library instances currently resident.
    pub fn resident_instances(&self) -> usize {
        self.library.instance_count()
    }

    /// Cross-wafer plans currently resident.
    pub fn resident_cross_plans(&self) -> usize {
        self.cross.resident()
    }
}

/// A failed plan commit: the structured fault plus how many circuits this
/// call had already placed (and rolled back) before hitting it. The count
/// lets the control plane journal an honest `Rollback` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramFailure {
    /// What went wrong, as a workspace fault chain — the outer frame is
    /// [`CtrlFault::ProgramBatch`] or [`CtrlFault::ProgramCross`] and the
    /// source is the underlying route or circuit fault.
    pub error: FabricError,
    /// Circuits established by this plan and torn down again.
    pub rolled_back: usize,
}

/// Plan the ring circuits for `slice`: one circuit per directed snake-order
/// hop (including the wraparound), `lanes` wavelengths each. A 1-chip slice
/// needs no circuits and yields an empty plan.
pub fn ring_plan(cluster: &Cluster, slice: &Slice, lanes: usize) -> CircuitPlan {
    let order = snake_order(slice);
    let mut batches: BTreeMap<WaferId, Vec<Demand>> = BTreeMap::new();
    let mut cross = Vec::new();
    if order.len() >= 2 {
        // Every chip to its snake-order successor, then the last back to
        // the first.
        let successors = order.iter().skip(1).chain(order.first());
        for (&a, &b) in order.iter().zip(successors) {
            let (wa, ta) = chip_to_tile(cluster, a);
            let (wb, tb) = chip_to_tile(cluster, b);
            if wa == wb {
                batches
                    .entry(wa)
                    .or_default()
                    .push(Demand::new(ta, tb, lanes));
            } else {
                cross.push(((wa, ta), (wb, tb), lanes));
            }
        }
    }
    CircuitPlan {
        batches: batches.into_iter().collect(),
        cross,
    }
}

/// Execute a plan atomically with a caller-provided routing scratch: the
/// daemon holds one [`Searcher`] across every plan it commits, so
/// steady-state programming allocates nothing per search. Per-wafer
/// edge-disjoint batches go first, then cross-wafer circuits in ring order;
/// on any error every circuit this call established is torn down (in
/// reverse) before the error is returned.
pub fn program_with(
    fabric: &mut Fabric,
    plan: &CircuitPlan,
    searcher: &mut Searcher,
) -> Result<Vec<FabricCircuit>, FabricError> {
    commit(
        fabric,
        plan,
        |fabric, w, demands| allocate_non_overlapping_with(fabric.wafer_mut(w), demands, searcher),
        |fabric, (src, dst, lanes)| Ok(fabric.establish_cross(src, dst, lanes)?.0),
    )
    .map_err(|f| f.error)
}

/// [`program_with`] through a [`PlanEngine`]: per-wafer batches are
/// admitted via the plan library (collision-check + stamp, falling back
/// to fresh A* on an occupied clearance or a cache miss) and
/// cross-wafer hops via the cross-plan cache. A failure also reports how
/// many circuits were placed and rolled back before the faulting step — the
/// admission path journals that count in its `Rollback` record. Results,
/// errors, rollback behaviour, and every byte of fabric state are identical
/// to [`program_with`] — the engine only removes redundant search and
/// link-budget work.
pub fn program_planned(
    fabric: &mut Fabric,
    plan: &CircuitPlan,
    engine: &mut PlanEngine,
) -> Result<Vec<FabricCircuit>, ProgramFailure> {
    commit(
        fabric,
        plan,
        |fabric, w, demands| {
            engine
                .library
                .stamp_or_route(fabric.wafer_mut(w), demands, &mut engine.searcher)
        },
        |fabric, (src, dst, lanes)| {
            Ok(fabric
                .establish_cross_planned(&mut engine.cross, src, dst, lanes)?
                .0)
        },
    )
}

/// One cross-wafer hop of a [`CircuitPlan`]: source, destination, lanes.
type CrossHop = ((WaferId, TileCoord), (WaferId, TileCoord), usize);

/// The one commit loop of [`program_with`] and [`program_planned`], which
/// differ only in how `batch` establishes one wafer's demands and `cross`
/// one cross-wafer hop.
fn commit(
    fabric: &mut Fabric,
    plan: &CircuitPlan,
    mut batch: impl FnMut(&mut Fabric, WaferId, &[Demand]) -> Result<Vec<CircuitId>, FabricError>,
    mut cross: impl FnMut(&mut Fabric, CrossHop) -> Result<CrossCircuitId, CircuitError>,
) -> Result<Vec<FabricCircuit>, ProgramFailure> {
    let mut handles: Vec<FabricCircuit> = Vec::new();
    let rollback = |fabric: &mut Fabric, handles: Vec<FabricCircuit>| -> usize {
        let n = handles.len();
        for h in handles.into_iter().rev() {
            let _ = fabric.teardown_handle(h);
        }
        n
    };
    for (w, demands) in &plan.batches {
        match batch(fabric, *w, demands) {
            Ok(ids) => handles.extend(ids.into_iter().map(|id| FabricCircuit::Wafer(*w, id))),
            Err(e) => {
                let rolled_back = rollback(fabric, handles);
                return Err(ProgramFailure {
                    error: FabricError::caused_by(CtrlFault::ProgramBatch { wafer: w.0 }, e),
                    rolled_back,
                });
            }
        }
    }
    for (i, &hop) in plan.cross.iter().enumerate() {
        match cross(fabric, hop) {
            Ok(id) => handles.push(FabricCircuit::Cross(id)),
            Err(e) => {
                let rolled_back = rollback(fabric, handles);
                return Err(ProgramFailure {
                    error: FabricError::caused_by(CtrlFault::ProgramCross { index: i }, e.into()),
                    rolled_back,
                });
            }
        }
    }
    Ok(handles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resilience::PhotonicRack;
    use std::collections::BTreeSet;
    use topo::{Coord3, Shape3};

    #[test]
    fn one_chip_slice_plans_nothing() {
        let rack = PhotonicRack::new(1);
        let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(1, 1, 1));
        let plan = ring_plan(&rack.cluster, &slice, 2);
        assert_eq!(plan.circuits(), 0);
    }

    #[test]
    fn ring_plan_covers_every_hop_once() {
        let rack = PhotonicRack::new(1);
        // 4×2×1 = 8 chips spanning two servers: 8 directed ring hops.
        let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        let plan = ring_plan(&rack.cluster, &slice, 2);
        assert_eq!(plan.circuits(), 8);
        assert!(!plan.cross.is_empty(), "slice spans servers");
        assert!(!plan.batches.is_empty(), "servers hold internal hops");
    }

    #[test]
    fn program_is_atomic_under_exhaustion() {
        let mut rack = PhotonicRack::new(1);
        // Saturate one server's SerDes: a 2-chip ring at 16 λ consumes
        // every tx and rx lane on both of its tiles.
        let blocker = Slice::new(1, Coord3::new(2, 0, 0), Shape3::new(2, 1, 1));
        let plan_blocker = ring_plan(&rack.cluster, &blocker, 16);
        assert!(program_with(&mut rack.fabric, &plan_blocker, &mut Searcher::new()).is_ok());
        let count = |rack: &PhotonicRack| -> Vec<usize> {
            (0..rack.fabric.wafer_count())
                .map(|w| rack.fabric.wafer(lightpath::WaferId(w)).circuits().count())
                .collect()
        };
        let before = count(&rack);
        let cross_before = rack.fabric.cross_circuits().count();
        // A wider ring shares the saturated chips: its batch on the fresh
        // wafer establishes first, then the saturated wafer's batch fails
        // — everything already placed must be rolled back.
        let wide = Slice::new(2, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        let plan_wide = ring_plan(&rack.cluster, &wide, 16);
        assert!(plan_wide.batches.len() > 1, "spans both wafers");
        assert!(program_with(&mut rack.fabric, &plan_wide, &mut Searcher::new()).is_err());
        assert_eq!(
            count(&rack),
            before,
            "failed programming left circuits behind"
        );
        assert_eq!(rack.fabric.cross_circuits().count(), cross_before);
    }

    /// Legacy oracle for the plan engine: programming the same ring plans
    /// through a warm [`PlanEngine`] must leave the fabric byte-identical
    /// to the scratch-routed path, cross-wafer circuits included. One
    /// engine programs the shape at three origins on different servers,
    /// so the cross plans captured at the first stamp at the others.
    #[test]
    fn planned_program_equals_scratch_program_bit_for_bit() {
        let snap = |rack: &PhotonicRack| -> String {
            let mut w = desim::SnapWriter::new();
            rack.fabric.write_snap(&mut w);
            w.finish()
        };
        let mut scratch_rack = PhotonicRack::new(1);
        let mut planned_rack = PhotonicRack::new(1);
        let mut searcher = Searcher::new();
        let mut engine = PlanEngine::new();
        // 4×2×1 spans two servers: intra-wafer batches + cross hops. Three
        // cycles per origin so later ones run against a warm engine.
        let shape = Shape3::new(4, 2, 1);
        let origins = [(0, 0, 0), (0, 2, 1), (0, 0, 3)];
        let mut first_misses = None;
        for (x, y, z) in origins {
            let slice = Slice::new(1, Coord3::new(x, y, z), shape);
            let plan = ring_plan(&scratch_rack.cluster, &slice, 2);
            let servers: BTreeSet<_> = plan.cross.iter().map(|(s, _, _)| s.0).collect();
            assert_eq!(servers.len(), 2, "origin ({x}, {y}, {z}) spans two servers");
            for cycle in 0..3 {
                let a = program_with(&mut scratch_rack.fabric, &plan, &mut searcher)
                    .unwrap_or_else(|e| panic!("scratch cycle {cycle}: {e}"));
                let b = program_planned(&mut planned_rack.fabric, &plan, &mut engine)
                    .unwrap_or_else(|f| panic!("planned cycle {cycle}: {}", f.error));
                assert_eq!(a, b, "cycle {cycle}: handles diverged");
                assert_eq!(snap(&scratch_rack), snap(&planned_rack), "cycle {cycle}");
                for h in a.iter().rev() {
                    scratch_rack.fabric.teardown_handle(*h).unwrap();
                }
                for h in b.iter().rev() {
                    planned_rack.fabric.teardown_handle(*h).unwrap();
                }
                first_misses.get_or_insert(engine.cross_stats().misses);
            }
        }
        let stats = engine.plan_stats();
        assert!(stats.hits >= 2, "warm cycles must stamp: {stats:?}");
        let cross = engine.cross_stats();
        assert_eq!(
            Some(cross.misses),
            first_misses,
            "after the first cycle every cross hop stamps, at every origin: {cross:?}"
        );
        assert!(cross.hits >= 16, "cross plans relocate: {cross:?}");
        assert_eq!(engine.resident_cross_plans() as u64, cross.misses);
    }

    #[test]
    fn program_establishes_the_planned_count() {
        let mut rack = PhotonicRack::new(1);
        let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(2, 2, 1));
        let plan = ring_plan(&rack.cluster, &slice, 2);
        assert_eq!(plan.circuits(), 4);
        match program_with(&mut rack.fabric, &plan, &mut Searcher::new()) {
            Ok(handles) => assert_eq!(handles.len(), 4),
            Err(e) => panic!("programming a lone 2x2x1 ring failed: {e}"),
        }
    }
}
