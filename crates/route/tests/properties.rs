//! Property-based tests of the routing layer.

use lightpath::{CircuitRequest, EdgeId, TileCoord, Wafer, WaferConfig};
use proptest::prelude::*;
use route::{
    allocate_non_overlapping, allocate_non_overlapping_with, astar, Demand, PathCache, PlanLibrary,
    SearchOptions, Searcher,
};
use std::collections::HashSet;

fn tile() -> impl Strategy<Value = TileCoord> {
    (0u8..4, 0u8..8).prop_map(|(r, c)| TileCoord::new(r, c))
}

/// A 2×2 ring of demands at `origin` — the shape the control plane's
/// `ring_plan` emits for one server's worth of chips.
fn ring2x2(origin: TileCoord, lanes: usize) -> Vec<Demand> {
    let a = origin;
    let b = TileCoord::new(origin.row, origin.col + 1);
    let c = TileCoord::new(origin.row + 1, origin.col + 1);
    let d = TileCoord::new(origin.row + 1, origin.col);
    vec![
        Demand::new(a, b, lanes),
        Demand::new(b, c, lanes),
        Demand::new(c, d, lanes),
        Demand::new(d, a, lanes),
    ]
}

/// Serialize a wafer's full mutable state as canonical snapshot bytes.
fn snap(w: &Wafer) -> String {
    let mut sw = desim::SnapWriter::new();
    w.write_snap(&mut sw);
    sw.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A* always returns a valid simple path with the right endpoints, and
    /// it is hop-minimal on an empty wafer.
    #[test]
    fn astar_paths_are_valid_and_minimal(src in tile(), dst in tile()) {
        prop_assume!(src != dst);
        let w = Wafer::new(WaferConfig::lightpath_32());
        let p = astar(&w, src, dst, &SearchOptions::default()).expect("connected grid");
        prop_assert_eq!(p.src(), src);
        prop_assert_eq!(p.dst(), dst);
        prop_assert_eq!(p.hops() as u32, src.manhattan(dst));
    }

    /// Forbidden edges never appear in the result.
    #[test]
    fn astar_respects_forbidden(src in tile(), dst in tile(), seed in any::<u64>()) {
        prop_assume!(src != dst);
        let w = Wafer::new(WaferConfig::lightpath_32());
        // Forbid a pseudo-random set of edges (but never isolate src/dst:
        // if the search fails that is acceptable; if it succeeds the path
        // must avoid them).
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut opts = SearchOptions::default();
        for _ in 0..6 {
            let r = rng.gen_range_u64(4) as u8;
            let c = rng.gen_range_u64(7) as u8;
            opts.forbidden.insert(EdgeId::between(
                TileCoord::new(r, c),
                TileCoord::new(r, c + 1),
            ));
        }
        if let Some(p) = astar(&w, src, dst, &opts) {
            for e in p.edges() {
                prop_assert!(!opts.forbidden.contains(&e), "used forbidden edge {e}");
            }
        }
    }

    /// Batch allocation either yields fully edge-disjoint circuits or
    /// leaves the wafer untouched.
    #[test]
    fn batch_alloc_all_or_nothing(pairs in prop::collection::vec((tile(), tile()), 1..6)) {
        let mut w = Wafer::new(WaferConfig::lightpath_32());
        let demands: Vec<Demand> = pairs
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| Demand::new(a, b, 1))
            .collect();
        prop_assume!(!demands.is_empty());
        match allocate_non_overlapping(&mut w, &demands) {
            Ok(ids) => {
                prop_assert_eq!(ids.len(), demands.len());
                let mut seen: HashSet<EdgeId> = HashSet::new();
                for id in &ids {
                    for e in w.circuit(*id).unwrap().path.edges() {
                        prop_assert!(seen.insert(e), "edge {e} shared");
                    }
                }
            }
            Err(_) => {
                prop_assert_eq!(w.circuits().count(), 0, "failed batch left residue");
                for t in w.coords() {
                    prop_assert_eq!(w.tile(t).serdes.tx_free(), 16);
                }
            }
        }
    }

    /// The path cache returns byte-identical paths *and* loss budgets to an
    /// uncached A* across randomized occupancy sequences: interleaved
    /// establishes (which load buses) and teardowns (which must invalidate
    /// the cache via the occupancy epoch) never let a stale answer leak.
    #[test]
    fn cache_equals_uncached_astar_under_churn(seed in any::<u64>()) {
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut w = Wafer::new(WaferConfig::lightpath_32());
        let opts = SearchOptions { load_weight: 8.0, ..SearchOptions::default() };
        let mut cache = PathCache::new(opts.clone());
        let mut live: Vec<lightpath::CircuitId> = Vec::new();
        for _ in 0..40 {
            // Mutate the wafer ~every third step so lookups repeat within
            // an epoch (exercising hits) and across epochs (invalidation).
            match rng.gen_range_u64(3) {
                0 => {
                    let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
                    let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
                    if src != dst {
                        if let Ok(rep) = w.establish(CircuitRequest::new(src, dst, 1)) {
                            live.push(rep.id);
                        }
                    }
                }
                1 if !live.is_empty() => {
                    let id = live.swap_remove(rng.gen_range_usize(live.len()));
                    prop_assert!(w.teardown(id).is_ok());
                }
                _ => {}
            }
            // Probe a few pairs (drawn from a small pool so repeats occur).
            for _ in 0..3 {
                let src = TileCoord::new(rng.gen_range_u64(2) as u8, rng.gen_range_u64(3) as u8);
                let dst = TileCoord::new(2 + rng.gen_range_u64(2) as u8, 5 + rng.gen_range_u64(3) as u8);
                let cached = cache.find_path(&w, src, dst);
                let fresh = astar(&w, src, dst, &opts);
                prop_assert_eq!(&cached, &fresh, "path divergence {} -> {}", src, dst);
                if let (Some(c), Some(f)) = (cached, fresh) {
                    // Same tiles byte for byte implies the same loss budget,
                    // but assert the budget independently: it also covers
                    // crosstalk terms that depend on *current* bus loads.
                    let cb = w.path_loss_budget(&c).total_db();
                    let fb = w.path_loss_budget(&f).total_db();
                    prop_assert_eq!(cb.to_bits(), fb.to_bits(), "loss budget divergence");
                }
            }
        }
        let s = cache.stats();
        prop_assert!(s.hits > 0, "churn workload should produce cache hits");
        prop_assert!(s.misses > 0);
    }

    /// Stamping a cached plan at *every* legal origin of a randomly
    /// pre-loaded wafer is byte-equivalent to fresh A*: same ids or same
    /// error, and the full serialized wafer state identical either way.
    #[test]
    fn stamping_at_every_origin_equals_fresh_astar(seed in any::<u64>(), lanes in 1usize..=4) {
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut base = Wafer::new(WaferConfig::lightpath_32());
        // Random pre-load: short single-hop circuits, so some footprints
        // are occupied (exercising the guard's fallback) while most stay
        // clean (so stamps actually land).
        for _ in 0..1 + rng.gen_range_u64(2) {
            let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(7) as u8);
            let dst = TileCoord::new(src.row, src.col + 1);
            let _ = base.establish(CircuitRequest::new(src, dst, 1));
        }
        // Prime the library: the first admission misses, routes fresh, and
        // captures the ring at the primer's origin.
        let mut lib = PlanLibrary::new();
        let mut searcher = Searcher::new();
        let prime = TileCoord::new(rng.gen_range_u64(3) as u8, rng.gen_range_u64(7) as u8);
        if let Ok(ids) = lib.stamp_or_route(&mut base, &ring2x2(prime, lanes), &mut searcher) {
            for id in ids {
                prop_assert!(base.teardown(id).is_ok());
            }
        }
        // Every legal 2×2 origin on the 4×8 grid, twice: the first pass
        // captures each origin's batch (or stamps the primer's), the second
        // stamps the instance captured at every origin.
        for pass in 0..2 {
            for r in 0u8..3 {
                for c in 0u8..7 {
                    let demands = ring2x2(TileCoord::new(r, c), lanes);
                    let mut warm = base.clone();
                    let mut fresh = base.clone();
                    let a = lib.stamp_or_route(&mut warm, &demands, &mut searcher);
                    let b = allocate_non_overlapping_with(&mut fresh, &demands, &mut Searcher::new());
                    match (a, b) {
                        (Ok(x), Ok(y)) => {
                            prop_assert_eq!(x, y, "ids diverged at ({}, {}) pass {}", r, c, pass);
                        }
                        (Err(_), Err(_)) => {}
                        (x, y) => prop_assert!(
                            false,
                            "verdicts diverged at ({}, {}) pass {}: {:?} vs {:?}", r, c, pass, x, y
                        ),
                    }
                    prop_assert_eq!(
                        snap(&warm), snap(&fresh),
                        "wafer state diverged after admission at ({}, {}) pass {}", r, c, pass
                    );
                }
            }
        }
        let s = lib.stats();
        prop_assert!(s.hits > 0, "warm library must stamp at captured origins");
    }

    /// A rejected stamp is a zero-op: when admission fails, edge occupancy
    /// is byte-identical to before the attempt, and the wafer serializes
    /// identically to a twin that suffered the same fresh-routing failure.
    #[test]
    fn rejected_stamp_leaves_occupancy_byte_identical(seed in any::<u64>(), lanes in 9usize..=16) {
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let origin = TileCoord::new(rng.gen_range_u64(3) as u8, rng.gen_range_u64(7) as u8);
        let mut lib = PlanLibrary::new();
        let mut searcher = Searcher::new();
        let mut w = Wafer::new(WaferConfig::lightpath_32());
        // Prime and KEEP the ring live: with > half the SerDes pool per
        // tile claimed, a second ring on the same footprint cannot land.
        let ids = lib.stamp_or_route(&mut w, &ring2x2(origin, lanes), &mut searcher);
        prop_assert!(ids.is_ok(), "priming ring must route on an empty wafer");
        let before_loads = w.edge_loads().to_vec();
        let mut twin = w.clone();
        let r = lib.stamp_or_route(&mut w, &ring2x2(origin, lanes), &mut searcher);
        prop_assert!(r.is_err(), "overlapping ring must exhaust the SerDes pools");
        prop_assert!(
            allocate_non_overlapping_with(&mut twin, &ring2x2(origin, lanes), &mut Searcher::new()).is_err()
        );
        prop_assert_eq!(w.edge_loads(), &before_loads[..], "occupancy must be untouched");
        prop_assert_eq!(snap(&w), snap(&twin), "failed stamp must mirror failed fresh routing");
    }

    /// Protected pairs, when they establish, are always fault-independent,
    /// and teardown restores the wafer.
    #[test]
    fn protection_invariants(src in tile(), dst in tile(), lanes in 1usize..=8) {
        prop_assume!(src != dst);
        let mut w = Wafer::new(WaferConfig::lightpath_32());
        match route::establish_protected(&mut w, src, dst, lanes) {
            Ok(p) => {
                prop_assert!(p.is_fault_independent(&w));
                prop_assert_eq!(w.circuits().count(), 2);
                p.teardown(&mut w).unwrap();
                prop_assert_eq!(w.circuits().count(), 0);
            }
            Err(_) => {
                prop_assert_eq!(w.circuits().count(), 0);
            }
        }
    }
}
