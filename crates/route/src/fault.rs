//! Fiber-frugal fault-tolerant routing (paper §5, "Minimizing fiber
//! requirement for fault tolerance").
//!
//! Repairing a failed chip with a spare in another server needs cross-wafer
//! circuits over attached fibers. Fibers are the scarce resource (tens per
//! wafer edge vs thousands of on-wafer waveguides), so the planner should
//! satisfy as many repairs as possible from as few fiber *bundles* as
//! possible. We compare two policies over a [`Fabric`]:
//!
//! * **Naive** — dedicate a fresh bundle slot per circuit by always using
//!   the first link that joins the wafers (fills one bundle, then fails).
//! * **Pooled** — the fabric's most-free-fibers link selection (the default
//!   in [`Fabric::establish_cross`]) spreads circuits across every parallel
//!   bundle, covering strictly more repairs with the same fiber plant.

use lightpath::{CircuitError, CrossCircuitId, Fabric, TileCoord, WaferId};

/// One cross-wafer repair demand: connect a ring neighbour of a failed chip
/// to its replacement on another wafer.
#[derive(Debug, Clone, Copy)]
pub struct CrossDemand {
    /// Ring-neighbour endpoint.
    pub from: (WaferId, TileCoord),
    /// Replacement-chip endpoint.
    pub to: (WaferId, TileCoord),
    /// Wavelength lanes.
    pub lanes: usize,
}

/// Outcome of planning a batch of cross-wafer repairs.
#[derive(Debug, Clone)]
pub struct FiberPlan {
    /// Circuits established, in demand order (None where establishment
    /// failed).
    pub circuits: Vec<Option<CrossCircuitId>>,
    /// Demands satisfied.
    pub satisfied: usize,
    /// Total fibers in use across the fabric after planning.
    pub fibers_used: u32,
    /// First error encountered (if any demand failed).
    pub first_error: Option<CircuitError>,
}

/// Satisfy demands using the fabric's most-free-fibers link selection
/// (the fiber-frugal policy). Partial success is reported, not rolled back
/// — a repair that lands still helps.
pub fn plan_pooled(fabric: &mut Fabric, demands: &[CrossDemand]) -> FiberPlan {
    let mut circuits = Vec::with_capacity(demands.len());
    let mut satisfied = 0;
    let mut first_error = None;
    for d in demands {
        match fabric.establish_cross(d.from, d.to, d.lanes) {
            Ok((id, _)) => {
                circuits.push(Some(id));
                satisfied += 1;
            }
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
                circuits.push(None);
            }
        }
    }
    FiberPlan {
        circuits,
        satisfied,
        fibers_used: fibers_in_use(fabric),
        first_error,
    }
}

/// Total fibers currently claimed across every link of the fabric.
///
/// (Derived from live cross-circuits: each holds exactly one fiber.)
pub fn fibers_in_use(fabric: &Fabric) -> u32 {
    fabric.cross_circuits().count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightpath::{FiberLink, WaferConfig};

    fn t(r: u8, c: u8) -> TileCoord {
        TileCoord::new(r, c)
    }

    /// Two wafers joined by two parallel 2-fiber bundles.
    fn fabric() -> Fabric {
        let mut f = Fabric::new(2, WaferConfig::default());
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(0, 7)),
            b: (WaferId(1), t(0, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        f.attach_fiber(FiberLink {
            a: (WaferId(0), t(3, 7)),
            b: (WaferId(1), t(3, 0)),
            capacity: 2,
            length_m: 2.0,
        });
        f
    }

    fn demands(n: usize) -> Vec<CrossDemand> {
        (0..n)
            .map(|i| CrossDemand {
                from: (WaferId(0), t((i % 4) as u8, 2)),
                to: (WaferId(1), t((i % 4) as u8, 5)),
                lanes: 2,
            })
            .collect()
    }

    #[test]
    fn pooled_covers_all_bundles() {
        let mut f = fabric();
        let plan = plan_pooled(&mut f, &demands(4));
        assert_eq!(plan.satisfied, 4, "4 fibers exist across the two bundles");
        assert_eq!(plan.fibers_used, 4);
        assert!(plan.first_error.is_none());
    }

    #[test]
    fn pooled_reports_partial_success_beyond_capacity() {
        let mut f = fabric();
        let plan = plan_pooled(&mut f, &demands(6));
        assert_eq!(plan.satisfied, 4);
        assert_eq!(
            plan.circuits.iter().filter(|c| c.is_none()).count(),
            2,
            "two demands exceed the fiber plant"
        );
        assert!(matches!(
            plan.first_error,
            Some(CircuitError::FiberExhausted { .. })
        ));
    }

    #[test]
    fn fibers_in_use_tracks_teardown() {
        let mut f = fabric();
        let plan = plan_pooled(&mut f, &demands(2));
        assert_eq!(fibers_in_use(&f), 2);
        let id = plan.circuits[0].unwrap();
        f.teardown_cross(id).unwrap();
        assert_eq!(fibers_in_use(&f), 1);
    }
}
