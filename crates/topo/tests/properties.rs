//! Property-based tests of the torus substrate.

use proptest::prelude::*;
use std::collections::BTreeMap;
use topo::{Coord3, Dim, LoadMap, Occupancy, PlaceError, Shape3, Slice, SliceId, Torus};

fn shape() -> impl Strategy<Value = Shape3> {
    (1usize..=6, 1usize..=6, 1usize..=6).prop_map(|(x, y, z)| Shape3::new(x, y, z))
}

/// A random small torus, or one 4×4×16 rack group in four cases.
fn torus_shape() -> impl Strategy<Value = Shape3> {
    prop_oneof![shape(), shape(), shape(), Just(Shape3::new(4, 4, 16))]
}

/// Reference best-fit, chip by chip: the same (Z, Y, X) origin scan and
/// strict `>` tie-break as [`Occupancy::place_best_fit`], with each
/// candidate box tested one chip at a time. Returns the chosen origin.
fn reference_best_fit(occ: &Occupancy, extent: Shape3) -> Result<Coord3, PlaceError> {
    let shape = occ.shape();
    if Dim::ALL
        .iter()
        .any(|&d| extent.extent(d) == 0 || extent.extent(d) > shape.extent(d))
    {
        return Err(PlaceError::NoSpace);
    }
    let mut best: Option<(usize, Coord3)> = None;
    for z in 0..=(shape.extent(Dim::Z) - extent.extent(Dim::Z)) {
        for y in 0..=(shape.extent(Dim::Y) - extent.extent(Dim::Y)) {
            for x in 0..=(shape.extent(Dim::X) - extent.extent(Dim::X)) {
                let cand = Slice::new(0, Coord3::new(x, y, z), extent);
                if !cand.coords().all(|c| occ.is_free(c)) {
                    continue;
                }
                let snug = reference_snugness(occ, &cand);
                if best.is_none_or(|(s, _)| snug > s) {
                    best = Some((snug, cand.origin));
                }
            }
        }
    }
    best.map(|(_, origin)| origin).ok_or(PlaceError::NoSpace)
}

/// Reference snugness: for every chip of the box, each of its six face
/// neighbours that lies outside the box and is owned counts once.
fn reference_snugness(occ: &Occupancy, slice: &Slice) -> usize {
    let shape = occ.shape();
    let mut snug = 0;
    for c in slice.coords() {
        for d in Dim::ALL {
            for neighbour in [c.next_in(d, shape), c.prev_in(d, shape)] {
                if !slice.contains(neighbour) && !occ.is_free(neighbour) {
                    snug += 1;
                }
            }
        }
    }
    snug
}

/// What `place` must answer for `slice`: on overlap, the first owned chip
/// in (Z, Y, X) order.
fn reference_place(occ: &Occupancy, slice: &Slice) -> Result<(), PlaceError> {
    if occ.slice(slice.id).is_some() {
        return Err(PlaceError::DuplicateId(slice.id));
    }
    if !slice.fits(occ.shape()) {
        return Err(PlaceError::OutOfBounds);
    }
    match slice.coords().find(|&c| !occ.is_free(c)) {
        Some(c) => Err(PlaceError::Occupied(c)),
        None => Ok(()),
    }
}

/// A requested extent along an axis of extent `n`: mostly `n`, `n−1`, 1
/// or anything in between; one in eight is infeasible (0 or `n+1`).
fn axis_extent(rng: &mut desim::SimRng, n: usize) -> usize {
    match rng.gen_range_usize(8) {
        0 => [0, n + 1][rng.gen_range_usize(2)],
        1 | 2 => n,
        3 | 4 => n - 1,
        5 => 1,
        _ => 1 + rng.gen_range_usize(n),
    }
}

fn random_coord(rng: &mut desim::SimRng, s: Shape3) -> Coord3 {
    Coord3::new(
        rng.gen_range_usize(s.extent(Dim::X)),
        rng.gen_range_usize(s.extent(Dim::Y)),
        rng.gen_range_usize(s.extent(Dim::Z)),
    )
}

proptest! {
    /// Dimension-ordered routes always terminate at the destination and
    /// never exceed the per-dimension half-extent bound.
    #[test]
    fn routes_reach_and_are_short(s in shape(), seed in any::<u64>()) {
        let torus = Torus::new(s);
        let mut rng = desim::SimRng::seed_from_u64(seed);
        for _ in 0..20 {
            let a = Coord3::new(
                rng.gen_range_usize(s.extent(Dim::X)),
                rng.gen_range_usize(s.extent(Dim::Y)),
                rng.gen_range_usize(s.extent(Dim::Z)),
            );
            let b = Coord3::new(
                rng.gen_range_usize(s.extent(Dim::X)),
                rng.gen_range_usize(s.extent(Dim::Y)),
                rng.gen_range_usize(s.extent(Dim::Z)),
            );
            let route = torus.route(a, b);
            // Follow the links.
            let mut cur = a;
            for l in &route {
                prop_assert_eq!(l.from, cur);
                cur = torus.dest(*l);
            }
            prop_assert_eq!(cur, b);
            // Shortest-way bound: Σ min(d, extent − d) hops.
            let bound: usize = Dim::ALL
                .into_iter()
                .map(|d| {
                    let e = s.extent(d);
                    let fwd = (b.get(d) + e - a.get(d)) % e;
                    fwd.min(e - fwd)
                })
                .sum();
            prop_assert_eq!(route.len(), bound);
        }
    }

    /// Every full-dimension ring is a cycle covering the extent exactly once.
    #[test]
    fn ring_links_form_cycles(s in shape(), d_idx in 0usize..3) {
        let d = Dim::ALL[d_idx];
        let torus = Torus::new(s);
        let through = Coord3::new(0, 0, 0);
        let links = torus.ring_links(through, d);
        prop_assert_eq!(links.len(), s.extent(d));
        let mut cur = through;
        for _ in 0..s.extent(d) {
            let l = links.iter().find(|l| l.from == cur).expect("link from cur");
            cur = torus.dest(*l);
        }
        prop_assert_eq!(cur, through, "returns to start");
    }

    /// A slice's ring lines partition its chips for every dimension.
    #[test]
    fn ring_lines_partition(s in shape(), origin_seed in any::<u64>()) {
        let rack = Shape3::new(8, 8, 8);
        let mut rng = desim::SimRng::seed_from_u64(origin_seed);
        let origin = Coord3::new(
            rng.gen_range_usize(8 - s.extent(Dim::X) + 1),
            rng.gen_range_usize(8 - s.extent(Dim::Y) + 1),
            rng.gen_range_usize(8 - s.extent(Dim::Z) + 1),
        );
        let slice = Slice::new(1, origin, s);
        prop_assert!(slice.fits(rack));
        for d in Dim::ALL {
            let mut all: Vec<Coord3> = slice.ring_lines(d).into_iter().flatten().collect();
            prop_assert_eq!(all.len(), slice.chips());
            all.sort();
            all.dedup();
            prop_assert_eq!(all.len(), slice.chips(), "no chip appears twice");
            for c in &all {
                prop_assert!(slice.contains(*c));
            }
        }
    }

    /// Placement and removal round-trip for any placeable slice.
    #[test]
    fn place_remove_roundtrip(s in shape()) {
        prop_assume!(s.extent(Dim::X) <= 4 && s.extent(Dim::Y) <= 4 && s.extent(Dim::Z) <= 4);
        let mut occ = Occupancy::new(Shape3::rack_4x4x4());
        let slice = Slice::new(1, Coord3::new(0, 0, 0), s);
        occ.place(slice).unwrap();
        prop_assert_eq!(occ.free_chips().len(), 64 - s.volume());
        for c in slice.coords() {
            prop_assert_eq!(occ.owner(c), Some(slice.id));
        }
        occ.remove(slice.id).unwrap();
        prop_assert_eq!(occ.free_chips().len(), 64);
    }

    /// Best-fit, `place` and `remove` over X-rows and face slabs answer
    /// exactly as the chip-by-chip reference does, across random
    /// sequences of placements, removals, failures and repairs: the same
    /// origin or `NoSpace`, the same `Occupied` chip, and the same owner
    /// of every chip after every step. The healthy-free count always
    /// equals the length of the healthy-free list.
    #[test]
    fn best_fit_matches_the_chip_by_chip_reference(s in torus_shape(), seed in any::<u64>()) {
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut occ = Occupancy::new(s);
        let mut live: BTreeMap<SliceId, Slice> = BTreeMap::new();
        let mut next_id = 1u32;
        for step in 0..60 {
            let extent = Shape3::new(
                axis_extent(&mut rng, s.extent(Dim::X)),
                axis_extent(&mut rng, s.extent(Dim::Y)),
                axis_extent(&mut rng, s.extent(Dim::Z)),
            );
            match rng.gen_range_usize(8) {
                0..=2 => {
                    let want = reference_best_fit(&occ, extent);
                    let got = occ.place_best_fit(next_id, extent);
                    prop_assert_eq!(got.map(|sl| sl.origin), want, "step {}: best-fit {}", step, extent);
                    if let Ok(sl) = got {
                        prop_assert_eq!(sl, Slice::new(next_id, sl.origin, extent));
                        live.insert(sl.id, sl);
                    }
                    next_id += 1;
                }
                3 | 4 => {
                    // Any box at any origin: it may overhang, overlap or
                    // reuse a live id.
                    let id = match live.keys().next() {
                        Some(&SliceId(old)) if rng.gen_range_usize(8) == 0 => old,
                        _ => next_id,
                    };
                    let extent = Shape3::new(
                        1 + rng.gen_range_usize(s.extent(Dim::X)),
                        1 + rng.gen_range_usize(s.extent(Dim::Y)),
                        1 + rng.gen_range_usize(s.extent(Dim::Z)),
                    );
                    let sl = Slice::new(id, random_coord(&mut rng, s), extent);
                    let want = reference_place(&occ, &sl);
                    prop_assert_eq!(occ.place(sl), want, "step {}: place {}", step, sl);
                    if want.is_ok() {
                        live.insert(sl.id, sl);
                        next_id += 1;
                    }
                }
                5 => {
                    let id = match live.keys().nth(rng.gen_range_usize(live.len() + 1)) {
                        Some(&id) => id,
                        None => SliceId(next_id),
                    };
                    prop_assert_eq!(occ.remove(id), live.remove(&id), "step {}: remove {}", step, id);
                }
                6 => occ.fail_chip(random_coord(&mut rng, s)),
                _ => occ.restore_chip(random_coord(&mut rng, s)),
            }
            for c in s.coords() {
                let want = live.values().find(|sl| sl.contains(c)).map(|sl| sl.id);
                prop_assert_eq!(occ.owner(c), want, "step {}: owner of {}", step, c);
            }
            prop_assert_eq!(occ.healthy_free_count(), occ.healthy_free_chips().len());
        }
    }

    /// Electrical utilization is always a third-multiple in {0, 1/3, 2/3, 1}
    /// and never exceeds the optical utilization.
    #[test]
    fn utilization_bounds(s in shape()) {
        prop_assume!(s.extent(Dim::X) <= 4 && s.extent(Dim::Y) <= 4 && s.extent(Dim::Z) <= 4);
        let rack = Shape3::rack_4x4x4();
        let slice = Slice::new(1, Coord3::new(0, 0, 0), s);
        let e = slice.utilization_electrical(rack);
        let o = slice.utilization_optical();
        let thirds = (e * 3.0).round() / 3.0;
        prop_assert!((e - thirds).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&e));
        if !slice.active_dims().is_empty() {
            prop_assert!(e <= o + 1e-12, "optics never loses");
        }
    }

    /// Max-min rates never violate any link capacity, and every flow gets
    /// a strictly positive rate.
    #[test]
    fn max_min_rates_are_feasible(seed in any::<u64>(), n_flows in 1usize..12) {
        use topo::{max_min_rates, Flow};
        let torus = Torus::new(Shape3::rack_4x4x4());
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut flows = Vec::new();
        for _ in 0..n_flows {
            let a = Coord3::new(
                rng.gen_range_usize(4), rng.gen_range_usize(4), rng.gen_range_usize(4));
            let b = Coord3::new(
                rng.gen_range_usize(4), rng.gen_range_usize(4), rng.gen_range_usize(4));
            if a == b { continue; }
            flows.push(Flow { path: torus.route(a, b), bytes: 1e6 });
        }
        prop_assume!(!flows.is_empty());
        let cap = 100.0;
        let rates = max_min_rates(&flows, cap);
        // Positivity.
        for (i, r) in rates.iter().enumerate() {
            prop_assert!(*r > 0.0, "flow {i} starved");
            prop_assert!(*r <= cap + 1e-9);
        }
        // Per-link feasibility.
        let mut per_link: std::collections::HashMap<topo::DirLink, f64> =
            std::collections::HashMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for &l in &f.path {
                *per_link.entry(l).or_insert(0.0) += r;
            }
        }
        for (l, total) in per_link {
            prop_assert!(total <= cap + 1e-6, "link {l} oversubscribed: {total}");
        }
    }

    /// Completion simulation conserves flows and is monotone in volume.
    #[test]
    fn flow_sim_completions_are_sane(seed in any::<u64>()) {
        use topo::{simulate_flows, Flow};
        let torus = Torus::new(Shape3::rack_4x4x4());
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mut flows = Vec::new();
        for _ in 0..5 {
            let a = Coord3::new(
                rng.gen_range_usize(4), rng.gen_range_usize(4), rng.gen_range_usize(4));
            let b = Coord3::new(
                rng.gen_range_usize(4), rng.gen_range_usize(4), rng.gen_range_usize(4));
            if a == b { continue; }
            flows.push(Flow {
                path: torus.route(a, b),
                bytes: 1e6 + rng.next_f64() * 1e8,
            });
        }
        prop_assume!(!flows.is_empty());
        let r = simulate_flows(&flows, 100.0);
        prop_assert_eq!(r.completion.len(), flows.len());
        for c in &r.completion {
            prop_assert!(*c > desim::SimDuration::ZERO);
            prop_assert!(*c <= r.makespan);
        }
    }

    /// Load maps: merging two maps gives the sum of loads, and the
    /// congestion predicate is exactly max_load <= 1.
    #[test]
    fn loadmap_merge_adds(seed in any::<u64>()) {
        let torus = Torus::new(Shape3::rack_4x4x4());
        let mut rng = desim::SimRng::seed_from_u64(seed);
        let mk = |rng: &mut desim::SimRng| {
            let mut m = LoadMap::new();
            for _ in 0..rng.gen_range_usize(5) {
                let c = Coord3::new(
                    rng.gen_range_usize(4),
                    rng.gen_range_usize(4),
                    rng.gen_range_usize(4),
                );
                m.add_ring(&torus, c, Dim::ALL[rng.gen_range_usize(3)]);
            }
            m
        };
        let a = mk(&mut rng);
        let b = mk(&mut rng);
        let mut merged = a.clone();
        merged.merge(&b);
        prop_assert!(merged.max_load() >= a.max_load().max(b.max_load()));
        prop_assert_eq!(merged.is_congestion_free(), merged.max_load() <= 1);
    }
}
