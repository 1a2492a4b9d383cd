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
//!   admitted by translating a precompiled template and stamping it
//!   (occupancy AND + pre-budgeted establish), never by a fresh search.
//!
//! Like the sweep baseline, the *outcome* is deterministic and the *rate*
//! is tolerant: `BENCH_route.json` commits an FNV-1a fingerprint of every
//! path found (exact-match gated — a routing change that moves a single
//! hop trips it) plus the measured rates (floor-gated at
//! [`MIN_PERF_RATIO`](crate::report::MIN_PERF_RATIO)). The stamped phase
//! keeps its own fingerprint stream (the legacy fingerprint's bytes are
//! untouched) which also folds in the plan-library hit/fallback counters
//! and a stamp-vs-scratch divergence marker, so a stamp that stops
//! matching fresh routing byte-for-byte trips the exact gate, not just
//! the rate floor.

use crate::fingerprint::Fnv;
use crate::report::MIN_PERF_RATIO;
use desim::SimRng;
use fabricd::report::{json_f64, json_str, json_u64};
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

impl RouteBenchReport {
    /// Serialize to the committed JSON form (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"searches\": {},\n  \"batches\": {},\n  \"fingerprint\": \"{}\",\n  \
             \"wall_s\": {},\n  \"paths_per_sec\": {},\n  \"batches_per_sec\": {},\n  \
             \"stamped_batches\": {},\n  \"stamped_fingerprint\": \"{}\",\n  \
             \"stamped_plans_per_sec\": {}\n}}\n",
            self.searches,
            self.batches,
            self.fingerprint,
            self.wall_s,
            self.paths_per_sec,
            self.batches_per_sec,
            self.stamped_batches,
            self.stamped_fingerprint,
            self.stamped_plans_per_sec,
        )
    }

    /// Parse the JSON form produced by [`to_json`](Self::to_json).
    pub fn parse(text: &str) -> Result<RouteBenchReport, String> {
        Ok(RouteBenchReport {
            searches: json_u64(text, "searches")?,
            batches: json_u64(text, "batches")?,
            fingerprint: json_str(text, "fingerprint")?,
            wall_s: json_f64(text, "wall_s")?,
            paths_per_sec: json_f64(text, "paths_per_sec")?,
            batches_per_sec: json_f64(text, "batches_per_sec")?,
            stamped_batches: json_u64(text, "stamped_batches")?,
            stamped_fingerprint: json_str(text, "stamped_fingerprint")?,
            stamped_plans_per_sec: json_f64(text, "stamped_plans_per_sec")?,
        })
    }
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

/// Compare a fresh run against the committed baseline. Returns one message
/// per violated gate; empty means the baseline holds. Fingerprint and
/// workload sizes are exact gates; both rates are floor-gated.
pub fn compare_route_baseline(
    current: &RouteBenchReport,
    baseline: &RouteBenchReport,
) -> Vec<String> {
    let mut failures = Vec::new();
    if current.searches != baseline.searches
        || current.batches != baseline.batches
        || current.stamped_batches != baseline.stamped_batches
    {
        failures.push(format!(
            "workload mismatch: ran {}x{}x{}, baseline is {}x{}x{}",
            current.searches,
            current.batches,
            current.stamped_batches,
            baseline.searches,
            baseline.batches,
            baseline.stamped_batches
        ));
    }
    if current.fingerprint != baseline.fingerprint {
        failures.push(format!(
            "fingerprint {} != baseline {} — a routing result changed; if intended, \
             regenerate with `spsim routebench --write-baseline BENCH_route.json`",
            current.fingerprint, baseline.fingerprint
        ));
    }
    if current.stamped_fingerprint != baseline.stamped_fingerprint {
        failures.push(format!(
            "stamped fingerprint {} != baseline {} — a stamped plan diverged from fresh \
             routing or the library's hit/fallback profile shifted; if intended, \
             regenerate with `spsim routebench --write-baseline BENCH_route.json`",
            current.stamped_fingerprint, baseline.stamped_fingerprint
        ));
    }
    for (what, cur, base) in [
        ("paths/sec", current.paths_per_sec, baseline.paths_per_sec),
        (
            "batches/sec",
            current.batches_per_sec,
            baseline.batches_per_sec,
        ),
        (
            "stamped plans/sec",
            current.stamped_plans_per_sec,
            baseline.stamped_plans_per_sec,
        ),
    ] {
        let floor = base * MIN_PERF_RATIO;
        if cur < floor {
            failures.push(format!(
                "{what} {cur:.0} is below {floor:.0} ({MIN_PERF_RATIO}x of baseline {base:.0})"
            ));
        }
    }
    // The speedup gate is same-run (stamped vs scratch rate from the same
    // process on the same machine), so it is immune to host-speed skew.
    // Debug builds re-verify stamped == fresh link budgets inside
    // `establish_prebudgeted` debug_asserts, which erases the speedup by
    // design — the gate is a release-build property.
    if !cfg!(debug_assertions)
        && current.stamped_plans_per_sec < MIN_STAMPED_SPEEDUP * current.batches_per_sec
    {
        failures.push(format!(
            "stamped plans/sec {:.0} is below {MIN_STAMPED_SPEEDUP}x the scratch batch \
             rate {:.0} — the plan library is no longer skipping the search hot path",
            current.stamped_plans_per_sec, current.batches_per_sec
        ));
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn json_round_trips() {
        let r = run_route_bench(50, 2);
        let parsed = match RouteBenchReport::parse(&r.to_json()) {
            Ok(p) => p,
            Err(e) => panic!("parse own json: {e}"),
        };
        assert_eq!(parsed, r);
    }

    #[test]
    fn baseline_gates_have_teeth() {
        let r = run_route_bench(50, 2);
        assert!(compare_route_baseline(&r, &r).is_empty());
        let mut slow = r.clone();
        slow.paths_per_sec = r.paths_per_sec * MIN_PERF_RATIO * 0.5;
        assert_eq!(compare_route_baseline(&slow, &r).len(), 1);
        let mut moved = r.clone();
        moved.fingerprint = "0xdeadbeefdeadbeef".into();
        assert_eq!(compare_route_baseline(&moved, &r).len(), 1);
        let mut resized = r.clone();
        resized.searches += 1;
        assert_eq!(compare_route_baseline(&resized, &r).len(), 1);
        let mut unstamped = r.clone();
        unstamped.stamped_fingerprint = "0xdeadbeefdeadbeef".into();
        assert_eq!(compare_route_baseline(&unstamped, &r).len(), 1);
        let mut slow_stamp = r.clone();
        slow_stamp.stamped_plans_per_sec = r.stamped_plans_per_sec * MIN_PERF_RATIO * 0.5;
        // Floor gate always fires; release builds add the speedup gate.
        assert!(!compare_route_baseline(&slow_stamp, &r).is_empty());
        let mut reshaped = r.clone();
        reshaped.stamped_batches += 1;
        assert_eq!(compare_route_baseline(&reshaped, &r).len(), 1);
    }
}
