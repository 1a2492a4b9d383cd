//! Route-throughput micro-benchmark with a committed baseline.
//!
//! The routing hot path — A* over the wafer's waveguide grid — sits under
//! every circuit the control plane programs: ring redirection (§4.1),
//! non-overlapping repair splices (Fig 7), and the sweep grids' churn
//! scenarios. This harness measures two steady-state rates on a loaded
//! 4×8 wafer:
//!
//! * **paths/sec** — load-aware searches over a fixed endpoint pool with a
//!   reusable [`route::Searcher`] scratch (the zero-allocation hot path);
//! * **batches/sec** — full ring-plan programming cycles
//!   (plan → atomic edge-disjoint batch → teardown) through
//!   [`fabricd::plan`];
//! * **stamped plans/sec** — the same cycles through a warm
//!   [`fabricd::PlanEngine`]: after one capture cycle, every circuit is
//!   admitted by stamping a captured batch (occupancy AND + pre-budgeted
//!   establish), never by a fresh search.
//!
//! Like the sweep baseline, the *outcome* is deterministic and the *rate*
//! is tolerant: `BENCH_route.json` commits an FNV-1a fingerprint of every
//! path found (exact-match gated — a routing change that moves a single
//! hop trips it) plus the measured rates (floor-gated at
//! [`MIN_PERF_RATIO`](fabricd::report::MIN_PERF_RATIO)). The stamped phase
//! keeps its own fingerprint stream (the legacy fingerprint's bytes are
//! untouched) which also folds in the plan-library hit/fallback counters
//! and a stamp-vs-scratch divergence marker, so a stamp that stops
//! matching fresh routing byte-for-byte trips the exact gate, not just
//! the rate floor.

use desim::fnv::Fnv;
use desim::SimRng;
use fabricd::report::Gate::{Exact, Floor, Info};
use fabricd::report::Value::{self, Str, F64, U64};
use fabricd::report::{json_f64, BenchFields, Field};
use fabricd::{program_planned, program_with, ring_plan, PlanEngine};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use resilience::PhotonicRack;
use route::{SearchOptions, Searcher};
use topo::{Coord3, Shape3, Slice};

/// Searches the default report performs (sized to finish in ~a second).
pub const DEFAULT_SEARCHES: u64 = 200_000;
/// Ring-programming cycles the default report performs.
pub const DEFAULT_BATCHES: u64 = 2_000;
/// Load weight of the benchmark searches (matches the churn scenarios).
const LOAD_WEIGHT: f64 = 8.0;
/// Distinct endpoint pairs probed round-robin.
const PAIR_POOL: usize = 64;
/// Establish attempts that pre-load the wafer's buses.
const PRELOAD_ATTEMPTS: usize = 48;
/// Seed fixing the preload circuits and the endpoint pool.
const SEED: u64 = 0x5eed_0042;
/// Scratch and stamped programming cycles timed per alternation.
const RATE_CHUNK: u64 = 50;
/// The stamped plan-library phase must beat the scratch batch rate by at
/// least this factor in release builds: stamping skips A* and the
/// loss-budget rebuild. With the two loops interleaved, 24 release runs
/// on a 2-vCPU VM measured 2.05–2.34× (median 2.22×, one outlier at
/// 3.1×) while the absolute rates moved by ±30 %. The gate stays ~37 %
/// below the lowest: the ratio moves whenever either loop gets cheaper,
/// and a library that stopped stamping would sit near 1×.
pub const MIN_STAMPED_SPEEDUP: f64 = 1.3;

/// The measured summary that is serialized, committed, and gated on.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteBenchReport {
    /// A* searches timed.
    pub searches: u64,
    /// Ring-programming cycles timed.
    pub batches: u64,
    /// FNV-1a digest of every path found and every batch programmed.
    pub fingerprint: String,
    /// Wall-clock seconds of both timed loops.
    pub wall_s: f64,
    /// Searches per second on the loaded wafer.
    pub paths_per_sec: f64,
    /// Ring plan → program → teardown cycles per second.
    pub batches_per_sec: f64,
    /// Warm plan-library programming cycles timed.
    pub stamped_batches: u64,
    /// FNV-1a digest of the stamped phase: per-cycle handle counts, the
    /// plan-library/cross-plan counters, and the scratch-equivalence
    /// marker. Separate stream — the legacy fingerprint is untouched.
    pub stamped_fingerprint: String,
    /// Stamped programming cycles per second through the warm library.
    pub stamped_plans_per_sec: f64,
}

impl BenchFields for RouteBenchReport {
    const FIELDS: &'static [Field] = &[
        ("searches", Exact),
        ("batches", Exact),
        ("fingerprint", Exact),
        ("wall_s", Info),
        ("paths_per_sec", Floor),
        ("batches_per_sec", Floor),
        ("stamped_batches", Exact),
        ("stamped_fingerprint", Exact),
        ("stamped_plans_per_sec", Floor),
    ];

    fn values(&self) -> Vec<Value<'_>> {
        vec![
            U64(self.searches),
            U64(self.batches),
            Str(&self.fingerprint),
            F64(self.wall_s),
            F64(self.paths_per_sec),
            F64(self.batches_per_sec),
            U64(self.stamped_batches),
            Str(&self.stamped_fingerprint),
            F64(self.stamped_plans_per_sec),
        ]
    }
}

/// The route gate's same-run check, beyond its per-field rows: warm
/// plan-library stamping beats scratch programming by at least
/// [`MIN_STAMPED_SPEEDUP`] in the same run.
///
/// Both rates come from the same process on the same machine, so the check
/// is immune to host-speed skew. Debug builds re-verify stamped == fresh
/// link budgets inside `establish_prebudgeted` debug_asserts, which erases
/// the speedup by design: the check is a release-build property.
pub fn check_stamped_speedup(current: &str) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Ok(());
    }
    let stamped = json_f64(current, "stamped_plans_per_sec")?;
    let scratch = json_f64(current, "batches_per_sec")?;
    if stamped < MIN_STAMPED_SPEEDUP * scratch {
        return Err(format!(
            "stamped plans/sec {stamped:.0} is below {MIN_STAMPED_SPEEDUP}x the scratch batch \
             rate {scratch:.0} — the plan library is no longer skipping the search hot path"
        ));
    }
    Ok(())
}

/// A deterministically loaded 4×8 wafer: `PRELOAD_ATTEMPTS` seeded
/// establish attempts (some fail on SerDes exhaustion, deterministically)
/// leave a mixed bus occupancy for the load-aware searches to react to.
fn loaded_wafer() -> Wafer {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    for _ in 0..PRELOAD_ATTEMPTS {
        let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        if src != dst {
            let _ = wafer.establish(CircuitRequest::new(src, dst, 1));
        }
    }
    wafer
}

/// The fixed endpoint pool the search loop cycles through.
fn endpoint_pool() -> Vec<(TileCoord, TileCoord)> {
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xffff);
    let mut pool = Vec::with_capacity(PAIR_POOL);
    while pool.len() < PAIR_POOL {
        let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
        if src != dst {
            pool.push((src, dst));
        }
    }
    pool
}

/// Run the benchmark: `searches` A* probes over the loaded wafer, then
/// `batches` ring-programming cycles. The fingerprint covers every path
/// and every programmed batch, so it is a pure function of the routing
/// code — independent of clock speed or how long the loops take.
pub fn run_route_bench(searches: u64, batches: u64) -> RouteBenchReport {
    let mut f = Fnv::new();
    f.write_str("route-bench").write_u64(SEED);

    // --- paths/sec: steady-state searches with one reused scratch --------
    let wafer = loaded_wafer();
    let pool = endpoint_pool();
    let opts = SearchOptions {
        load_weight: LOAD_WEIGHT,
        ..SearchOptions::default()
    };
    let mut searcher = Searcher::new();
    // detlint: allow(DET002) — wall-clock feeds paths/sec telemetry only;
    // the path fingerprint is a pure function of the workload.
    let t0 = std::time::Instant::now();
    for i in 0..searches {
        let (src, dst) = pool[(i % PAIR_POOL as u64) as usize];
        match searcher.find(&wafer, src, dst, &opts) {
            Some(p) => {
                f.write_u64(p.hops() as u64);
            }
            None => {
                f.write_u64(u64::MAX);
            }
        }
    }
    let search_wall = t0.elapsed().as_secs_f64();

    // --- batches/sec and stamped plans/sec --------------------------------
    // Scratch cycles (ring plan → program → teardown) feed the legacy
    // fingerprint; the same cycles through a warm plan library feed a
    // separate FNV stream, so the legacy fingerprint stays byte-identical
    // whether or not the stamped phase exists.
    let mut rack = PhotonicRack::new(1);
    let slice = Slice::new(0, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let plan = ring_plan(&rack.cluster, &slice, 2);
    let mut sf = Fnv::new();
    sf.write_str("route-bench-stamped").write_u64(SEED);
    let mut scratch = PhotonicRack::new(1);
    let mut stamped = PhotonicRack::new(1);
    let mut engine = PlanEngine::new();
    // Two untimed oracle cycles on fresh racks: cycle 1 exercises the
    // capture path, cycle 2 the stamp path, and after each the stamped
    // fabric must be byte-identical to the scratch fabric that ran the
    // identical plan. A divergence is folded into the stamped
    // fingerprint, so the committed exact gate — not a panic — reports it.
    let mut diverged = false;
    for _ in 0..2 {
        let a = program_with(&mut scratch.fabric, &plan, &mut searcher);
        let b = program_planned(&mut stamped.fabric, &plan, &mut engine);
        match (a, b) {
            (Ok(ha), Ok(hb)) => {
                if snap(&scratch) != snap(&stamped) || ha.len() != hb.len() {
                    diverged = true;
                }
                for h in ha.into_iter().rev() {
                    let _ = scratch.fabric.teardown_handle(h);
                }
                for h in hb.into_iter().rev() {
                    let _ = stamped.fabric.teardown_handle(h);
                }
            }
            (Err(_), Err(_)) => {}
            _ => diverged = true,
        }
    }
    sf.write_u64(u64::from(diverged));
    // The two timed loops alternate in chunks of `RATE_CHUNK` cycles, so a
    // slow phase of a shared host lands on both rates alike and their
    // ratio (the same-run speedup gate) stays stable.
    let (mut batch_wall, mut stamp_wall) = (0.0, 0.0);
    let mut done = 0;
    while done < batches {
        let n = RATE_CHUNK.min(batches - done);
        // detlint: allow(DET002) — wall-clock feeds batches/sec telemetry only.
        let t = std::time::Instant::now();
        for _ in 0..n {
            match program_with(&mut rack.fabric, &plan, &mut searcher) {
                Ok(handles) => {
                    f.write_u64(handles.len() as u64);
                    for h in handles.into_iter().rev() {
                        let _ = rack.fabric.teardown_handle(h);
                    }
                }
                Err(_) => {
                    f.write_u64(u64::MAX);
                }
            }
        }
        batch_wall += t.elapsed().as_secs_f64();
        // detlint: allow(DET002) — wall-clock feeds plans/sec telemetry only.
        let t = std::time::Instant::now();
        for _ in 0..n {
            match program_planned(&mut stamped.fabric, &plan, &mut engine) {
                Ok(handles) => {
                    sf.write_u64(handles.len() as u64);
                    for h in handles.into_iter().rev() {
                        let _ = stamped.fabric.teardown_handle(h);
                    }
                }
                Err(_) => {
                    sf.write_u64(u64::MAX);
                }
            }
        }
        stamp_wall += t.elapsed().as_secs_f64();
        done += n;
    }
    // Fold the library verdicts in: if admission quietly regressed to
    // fresh routing (fallbacks) the counter shift trips the exact gate.
    let ps = engine.plan_stats();
    let cs = engine.cross_stats();
    sf.write_u64(ps.hits)
        .write_u64(ps.misses)
        .write_u64(ps.fallbacks)
        .write_u64(ps.stamped_circuits)
        .write_u64(cs.hits)
        .write_u64(cs.misses)
        .write_u64(cs.fallbacks);

    RouteBenchReport {
        searches,
        batches,
        fingerprint: format!("{:#018x}", f.finish()),
        wall_s: search_wall + batch_wall + stamp_wall,
        paths_per_sec: if search_wall > 0.0 {
            searches as f64 / search_wall
        } else {
            0.0
        },
        batches_per_sec: if batch_wall > 0.0 {
            batches as f64 / batch_wall
        } else {
            0.0
        },
        stamped_batches: batches,
        stamped_fingerprint: format!("{:#018x}", sf.finish()),
        stamped_plans_per_sec: if stamp_wall > 0.0 {
            batches as f64 / stamp_wall
        } else {
            0.0
        },
    }
}

/// Byte-exact state snapshot of a rack's fabric (the stamp-vs-scratch
/// oracle: identical programs must leave identical fabrics).
fn snap(rack: &PhotonicRack) -> String {
    let mut w = desim::SnapWriter::new();
    rack.fabric.write_snap(&mut w);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricd::report::{compare, Gate, MIN_PERF_RATIO};

    fn failures(current: &RouteBenchReport, baseline: &RouteBenchReport) -> Vec<(Gate, String)> {
        compare(
            RouteBenchReport::FIELDS,
            &current.to_json(),
            &baseline.to_json(),
        )
    }

    #[test]
    fn fingerprint_is_deterministic_and_rate_independent() {
        let a = run_route_bench(200, 5);
        let b = run_route_bench(200, 5);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.stamped_fingerprint, b.stamped_fingerprint);
        assert_eq!(a.searches, 200);
        assert_eq!(a.batches, 5);
        assert_eq!(a.stamped_batches, 5);
        assert!(a.paths_per_sec > 0.0);
        assert!(a.batches_per_sec > 0.0);
        assert!(a.stamped_plans_per_sec > 0.0);
    }

    #[test]
    fn stamped_phase_matches_scratch_and_stays_on_the_stamp_path() {
        let batches = 4u64;
        let r = run_route_bench(10, batches);

        // Reconstruct the stamped digest from the scratch oracle: marker 0
        // (no divergence), then per-cycle handle counts taken from
        // *program_with* on a fresh rack — if the stamp path programmed a
        // different circuit count anywhere, the digests split. The library
        // counters are read from an engine driven identically, and the
        // drive asserts it never fell back to fresh routing.
        let mut searcher = Searcher::new();
        let mut scratch = PhotonicRack::new(1);
        let slice = Slice::new(0, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        let plan = ring_plan(&scratch.cluster, &slice, 2);
        let mut stamped = PhotonicRack::new(1);
        let mut engine = PlanEngine::new();
        let mut expect = Fnv::new();
        expect
            .write_str("route-bench-stamped")
            .write_u64(SEED)
            .write_u64(0);
        for cycle in 0..batches + 2 {
            let ha = program_with(&mut scratch.fabric, &plan, &mut searcher).unwrap();
            let hb = program_planned(&mut stamped.fabric, &plan, &mut engine).unwrap();
            assert_eq!(
                ha.len(),
                hb.len(),
                "cycle {cycle} programmed a different set"
            );
            if cycle >= 2 {
                expect.write_u64(ha.len() as u64);
            }
            for h in ha.into_iter().rev() {
                let _ = scratch.fabric.teardown_handle(h);
            }
            for h in hb.into_iter().rev() {
                let _ = stamped.fabric.teardown_handle(h);
            }
        }
        let ps = engine.plan_stats();
        let cs = engine.cross_stats();
        assert_eq!(ps.fallbacks, 0, "plan library fell back to fresh routing");
        assert_eq!(
            cs.fallbacks, 0,
            "cross-plan cache fell back to fresh routing"
        );
        assert!(ps.hits > 0 && cs.hits > 0, "warm cycles never stamped");
        expect
            .write_u64(ps.hits)
            .write_u64(ps.misses)
            .write_u64(ps.fallbacks)
            .write_u64(ps.stamped_circuits)
            .write_u64(cs.hits)
            .write_u64(cs.misses)
            .write_u64(cs.fallbacks);
        assert_eq!(
            r.stamped_fingerprint,
            format!("{:#018x}", expect.finish()),
            "stamped digest no longer matches the scratch-predicted stream"
        );
    }

    #[test]
    fn every_row_keeps_its_gate() {
        let rows = |gate| {
            RouteBenchReport::FIELDS
                .iter()
                .filter(move |(_, g)| *g == gate)
                .map(|(key, _)| *key)
                .collect::<Vec<_>>()
        };
        assert_eq!(rows(Gate::Exact).len(), 5);
        assert_eq!(
            rows(Gate::Floor),
            ["paths_per_sec", "batches_per_sec", "stamped_plans_per_sec"]
        );
        assert!(rows(Gate::Ceiling).is_empty());
        assert_eq!(rows(Gate::Info), ["wall_s"]);
    }

    #[test]
    fn to_json_writes_the_committed_layout() {
        let r = RouteBenchReport {
            searches: 200,
            batches: 5,
            fingerprint: "0x00000000deadbeef".into(),
            wall_s: 0.125,
            paths_per_sec: 1600.0,
            batches_per_sec: 40.5,
            stamped_batches: 5,
            stamped_fingerprint: "0x00000000cafef00d".into(),
            stamped_plans_per_sec: 91.25,
        };
        assert_eq!(
            r.to_json(),
            "{\n  \"searches\": 200,\n  \"batches\": 5,\n  \"fingerprint\": \"0x00000000deadbeef\",\n  \
             \"wall_s\": 0.125,\n  \"paths_per_sec\": 1600,\n  \"batches_per_sec\": 40.5,\n  \
             \"stamped_batches\": 5,\n  \"stamped_fingerprint\": \"0x00000000cafef00d\",\n  \
             \"stamped_plans_per_sec\": 91.25\n}\n"
        );
    }

    #[test]
    fn baseline_gates_have_teeth() {
        let r = run_route_bench(50, 2);
        assert!(failures(&r, &r).is_empty());
        let mut slow = r.clone();
        slow.paths_per_sec = r.paths_per_sec * MIN_PERF_RATIO * 0.5;
        assert_eq!(failures(&slow, &r).len(), 1);
        let mut slow_batches = r.clone();
        slow_batches.batches_per_sec = r.batches_per_sec * MIN_PERF_RATIO * 0.5;
        assert_eq!(failures(&slow_batches, &r).len(), 1);
        let mut moved = r.clone();
        moved.fingerprint = "0xdeadbeefdeadbeef".into();
        assert_eq!(failures(&moved, &r).len(), 1);
        let mut resized = r.clone();
        resized.searches += 1;
        resized.batches += 1;
        assert_eq!(failures(&resized, &r).len(), 2);
        let mut unstamped = r.clone();
        unstamped.stamped_fingerprint = "0xdeadbeefdeadbeef".into();
        assert_eq!(failures(&unstamped, &r).len(), 1);
        let mut slow_stamp = r.clone();
        slow_stamp.stamped_plans_per_sec = r.stamped_plans_per_sec * MIN_PERF_RATIO * 0.5;
        assert_eq!(failures(&slow_stamp, &r).len(), 1);
        let mut reshaped = r.clone();
        reshaped.stamped_batches += 1;
        reshaped.wall_s *= 3.0;
        assert_eq!(failures(&reshaped, &r).len(), 1);
    }

    #[test]
    fn the_speedup_check_is_a_release_property() {
        let mut r = run_route_bench(50, 2);
        r.batches_per_sec = 100.0;
        r.stamped_plans_per_sec = 129.0;
        let slow = check_stamped_speedup(&r.to_json());
        assert_eq!(slow.is_err(), !cfg!(debug_assertions), "{slow:?}");
        r.stamped_plans_per_sec = 131.0;
        assert_eq!(check_stamped_speedup(&r.to_json()), Ok(()));
    }
}
