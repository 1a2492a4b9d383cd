//! Scenario execution and the parallel sweep driver.
//!
//! Determinism contract: a scenario's [fingerprint](ScenarioResult) is a
//! pure function of the scenario itself — it never reads the clock, another
//! scenario's output, or anything thread-dependent. Scenarios run on the
//! [`desim::par`] pull-queue pool (dynamic load balancing — a static stripe
//! idles behind one heavy scenario), each scenario fills a **private**
//! stats registry, the pool returns results in grid-index order, and both
//! the per-scenario fingerprints and the per-scenario registries combine
//! in that order. The sweep fingerprint *and* the merged
//! statistics are therefore bit-identical for any worker count and any
//! pull interleaving; stats still stay out of the fingerprint so the
//! fingerprint remains a pure routing/simulation digest — see `DESIGN.md`.

use crate::grid::{CollectiveAlgo, GridSpec, Scenario};
use collectives::{bucket_reduce_scatter, execute, ring_all_reduce, snake_order, CostParams, Mode};
use desim::fnv::{combine, Fnv};
use desim::stats::{Histogram, OnlineStats};
use desim::SimRng;
use fabricd::{metrics::COUNTERS, CtrlConfig};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use phy::StitchModel;
use route::{
    allocate_non_overlapping_with, astar, Demand, PathCache, PlanLibrary, SearchOptions, Searcher,
};
use topo::{Coord3, Shape3, Slice, Torus};

/// Histogram range for stitch-loss Monte-Carlo (matches Fig 3b).
const STITCH_HI_DB: f64 = 0.8;
/// Histogram bins for stitch-loss Monte-Carlo.
const STITCH_BINS: usize = 40;

/// What one scenario produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioResult {
    /// Position in the grid (identity; fingerprints combine in this order).
    pub index: usize,
    /// The scenario's stable label.
    pub label: String,
    /// FNV-1a digest of the scenario's observable outcome.
    pub fingerprint: u64,
    /// Discrete events the scenario processed (samples, journal records,
    /// transfers, churn ops) — the numerator of events/sec.
    pub events: u64,
}

/// Cross-scenario statistics, merged from per-scenario registries.
#[derive(Debug, Clone)]
pub struct MergedStats {
    /// Stitch-loss samples from every `PhyMonteCarlo` scenario.
    pub stitch_loss_db: Histogram,
    /// Admission waits from every `CtrlCampaign` scenario, seconds.
    pub admission_wait_s: Histogram,
    /// Measured collective completion times, microseconds.
    pub collective_us: OnlineStats,
    /// Hop counts of every successful churn probe.
    pub churn_hops: OnlineStats,
}

impl Default for MergedStats {
    fn default() -> Self {
        Self::new()
    }
}

impl MergedStats {
    /// Empty registries with the workspace-standard histogram shapes (the
    /// shapes must agree across workers for [`Histogram::merge`]).
    pub fn new() -> Self {
        MergedStats {
            stitch_loss_db: Histogram::new(0.0, STITCH_HI_DB, STITCH_BINS),
            admission_wait_s: Histogram::new(0.0, 3600.0, 64),
            collective_us: OnlineStats::new(),
            churn_hops: OnlineStats::new(),
        }
    }

    /// Fold another scenario's registries into this one.
    pub fn merge(&mut self, other: &MergedStats) {
        self.stitch_loss_db.merge(&other.stitch_loss_db);
        self.admission_wait_s.merge(&other.admission_wait_s);
        self.collective_us.merge(&other.collective_us);
        self.churn_hops.merge(&other.churn_hops);
    }
}

/// Everything a sweep returns.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Grid name the sweep ran.
    pub grid: String,
    /// Worker threads used.
    pub workers: usize,
    /// Per-scenario results in index order.
    pub results: Vec<ScenarioResult>,
    /// Order-combined sweep fingerprint (worker-count invariant).
    pub fingerprint: u64,
    /// Total events across scenarios.
    pub events: u64,
    /// Merged statistics (reporting only; not fingerprinted).
    pub merged: MergedStats,
    /// Wall-clock time of the scenario work.
    pub wall: std::time::Duration,
}

impl SweepOutcome {
    /// Events per wall-clock second (0 when the wall clock reads zero).
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }
}

/// Run one scenario, folding its samples into `merged` and returning
/// `(fingerprint, events)`.
pub fn run_scenario(scenario: &Scenario, merged: &mut MergedStats) -> (u64, u64) {
    match scenario {
        Scenario::PhyMonteCarlo { samples, seed } => {
            let h = StitchModel::default().loss_distribution(
                *samples,
                STITCH_HI_DB,
                STITCH_BINS,
                *seed,
            );
            let mut f = Fnv::new();
            f.write_str("phy-mc").write_u64(*seed);
            for &c in h.counts() {
                f.write_u64(c);
            }
            f.write_u64(h.underflow()).write_u64(h.overflow());
            f.write_f64(h.stats().mean())
                .write_f64(h.stats().min().unwrap_or(0.0))
                .write_f64(h.stats().max().unwrap_or(0.0));
            merged.stitch_loss_db.merge(&h);
            (f.finish(), *samples as u64)
        }
        Scenario::CtrlCampaign {
            racks,
            lanes,
            jobs,
            failures,
            seed,
        } => {
            let cfg = CtrlConfig {
                racks: *racks,
                lanes: *lanes,
                jobs: *jobs,
                failures: *failures,
                seed: *seed,
                ..CtrlConfig::default()
            };
            match fabricd::run_campaign(&cfg, &fabricd::CampaignOptions::default()) {
                Ok(out) => {
                    let journal = out.state.journal();
                    let mut f = Fnv::new();
                    f.write_str("ctrl").write_u64(*seed);
                    f.write_u64(journal.hash());
                    f.write_u64(journal.len() as u64);
                    f.write_u64(out.horizon.since_origin().as_ps());
                    for name in COUNTERS {
                        f.write_u64(out.metrics.counter(name));
                    }
                    for t in out.state.telemetry() {
                        f.write_u64(t.circuits as u64).write_f64(t.aggregate_gbps);
                    }
                    merged.admission_wait_s.merge(out.metrics.admission_wait());
                    (f.finish(), journal.len() as u64)
                }
                Err(e) => {
                    let mut f = Fnv::new();
                    f.write_str("ctrl-error").write_str(&e);
                    (f.finish(), 0)
                }
            }
        }
        Scenario::Collective {
            shape,
            mode,
            algo,
            n_bytes,
        } => run_collective(*shape, *mode, *algo, *n_bytes, merged),
        Scenario::RouteChurn { ops, seed } => run_route_churn(*ops, *seed, merged),
        Scenario::PlanLib {
            batches,
            lanes,
            seed,
        } => run_plan_lib(*batches, *lanes, *seed),
        Scenario::SnapshotChurn {
            jobs,
            failures,
            every_s,
            seed,
        } => {
            let cfg = CtrlConfig {
                jobs: *jobs,
                failures: *failures,
                seed: *seed,
                ..CtrlConfig::default()
            };
            let opts = fabricd::CampaignOptions {
                snapshot_every: Some(desim::SimDuration::from_secs(*every_s)),
                compact: true,
                crash_after_events: None,
            };
            match fabricd::run_campaign(&cfg, &opts) {
                Ok(out) => {
                    let journal = out.state.journal();
                    let mut f = Fnv::new();
                    f.write_str("snap-churn").write_u64(*seed);
                    f.write_u64(out.state.fingerprint());
                    f.write_u64(journal.hash());
                    f.write_u64(journal.len() as u64);
                    f.write_u64(journal.base_seq());
                    f.write_u64(journal.records().len() as u64);
                    f.write_u64(out.snapshots.len() as u64);
                    // The restart path, exercised in-sweep: delta replay
                    // from the last snapshot must land on the live
                    // fingerprint. The verdict is part of the scenario
                    // fingerprint, so a broken restore moves the sweep
                    // digest.
                    let replay_ok = out.snapshots.last().is_some_and(|snap| {
                        fabricd::replay_from(&snap.fabric, journal)
                            .map(|st| st.fingerprint() == out.state.fingerprint())
                            .unwrap_or(false)
                    });
                    f.write_u64(replay_ok as u64);
                    for name in COUNTERS {
                        f.write_u64(out.metrics.counter(name));
                    }
                    merged.admission_wait_s.merge(out.metrics.admission_wait());
                    (f.finish(), out.events_executed)
                }
                Err(e) => {
                    let mut f = Fnv::new();
                    f.write_str("snap-churn-error").write_str(&e);
                    (f.finish(), 0)
                }
            }
        }
        Scenario::PodCampaign {
            chips,
            jobs,
            failures,
            epochs,
            seed,
        } => {
            let cfg = pod::PodConfig {
                chips: *chips,
                jobs: *jobs,
                failures: *failures,
                max_epochs: *epochs,
                seed: *seed,
                ..pod::PodConfig::default()
            };
            // Scenario-level workers already saturate the machine: the pod
            // executes its shard domains on this worker's thread. Its
            // outputs are shard-count invariant, so this changes nothing
            // but scheduling.
            match pod::run_pod(&cfg, 1) {
                Ok(out) => {
                    let mut f = Fnv::new();
                    f.write_str("pod").write_u64(*seed);
                    f.write_u64(out.fingerprint);
                    f.write_u64(out.journal.hash());
                    f.write_u64(out.journal.len() as u64);
                    f.write_u64(out.epochs).write_u64(out.delegations);
                    for name in COUNTERS {
                        f.write_u64(out.metrics.counter(name));
                    }
                    merged.admission_wait_s.merge(out.metrics.admission_wait());
                    (f.finish(), out.events)
                }
                Err(e) => {
                    // A malformed campaign is itself a deterministic
                    // outcome: fingerprint the error, report zero events.
                    let mut f = Fnv::new();
                    f.write_str("pod-error").write_str(&e);
                    (f.finish(), 0)
                }
            }
        }
        Scenario::PlacementCampaign {
            chips,
            jobs,
            failures,
            epochs,
            policy,
            seed,
        } => {
            let cfg = pod::PodConfig {
                chips: *chips,
                jobs: *jobs,
                failures: *failures,
                max_epochs: *epochs,
                seed: *seed,
                policy: *policy,
                ..pod::PodConfig::default()
            };
            match pod::run_pod(&cfg, 1) {
                Ok(out) => {
                    let mut f = Fnv::new();
                    f.write_str("place")
                        .write_str(policy.name())
                        .write_u64(*seed);
                    f.write_u64(out.fingerprint);
                    f.write_u64(out.journal.hash());
                    f.write_u64(out.journal.len() as u64);
                    f.write_u64(out.epochs).write_u64(out.delegations);
                    for name in COUNTERS {
                        f.write_u64(out.metrics.counter(name));
                    }
                    // The comparison axes themselves — mean admission
                    // wait, mean occupancy, mean fragmentation — fold in
                    // as exact bit patterns. All three are worker-count
                    // invariant, so the sweep digest stays invariant too;
                    // a policy whose quality drifts moves the digest.
                    let wait = out.metrics.admission_wait();
                    f.write_u64(wait.count());
                    f.write_f64(wait.stats().mean());
                    f.write_f64(out.occ_mean);
                    f.write_f64(out.frag_mean);
                    merged.admission_wait_s.merge(wait);
                    (f.finish(), out.events)
                }
                Err(e) => {
                    let mut f = Fnv::new();
                    f.write_str("place-error")
                        .write_str(policy.name())
                        .write_str(&e);
                    (f.finish(), 0)
                }
            }
        }
    }
}

fn run_collective(
    shape: Shape3,
    mode: Mode,
    algo: CollectiveAlgo,
    n_bytes: f64,
    merged: &mut MergedStats,
) -> (u64, u64) {
    let rack = Shape3::rack_4x4x4();
    let params = CostParams::default();
    let torus = Torus::new(rack);
    let slice = Slice::new(0, Coord3::new(0, 0, 0), shape);
    let schedule = match algo {
        CollectiveAlgo::RingAllReduce => {
            ring_all_reduce(&snake_order(&slice), n_bytes, mode, rack, &torus, &params)
        }
        CollectiveAlgo::BucketReduceScatter => {
            let dims = slice.active_dims();
            bucket_reduce_scatter(&slice, &dims, n_bytes, mode, rack, &torus, &params)
        }
    };
    let report = execute(&schedule, &params);
    // The executor and the closed form must agree to the picosecond; a
    // divergence is a bug, not data.
    let analytic = schedule.analytic_total(&params);
    assert!(
        report.total == analytic,
        "executor ({}) diverged from closed form ({}) on {shape} {mode:?}",
        report.total,
        analytic
    );
    let sym = schedule.symbolic_cost(&params);
    let mut f = Fnv::new();
    f.write_str("coll").write_str(algo.name());
    f.write_u64(report.total.as_ps());
    f.write_u64(report.rounds as u64)
        .write_u64(report.congested_rounds as u64)
        .write_u64(report.max_link_load as u64)
        .write_u64(report.transfers)
        .write_u64(report.reconfigs as u64);
    f.write_u64(sym.alpha_steps as u64)
        .write_u64(sym.reconfigs as u64)
        .write_f64(sym.beta_bytes);
    merged.collective_us.push(report.total.as_micros_f64());
    (f.finish(), report.transfers)
}

/// Cold-vs-warm plan-library churn. A library wafer and a twin wafer see
/// the same ring batches at random origins — the library admits by stamp
/// once it has captured a batch at its origin, the twin always routes
/// fresh — and every batch's outcome must agree byte for byte (ids,
/// errors, and full wafer state).
/// Occasional blocker circuits occupy the landing region so the guard's
/// fallback path runs in-sweep too. The equality verdicts and the final
/// hit/miss/fallback counters all fold into the fingerprint: a stamp that
/// drifts from fresh routing — or a library that silently stops stamping —
/// moves the sweep digest, not just a test.
fn run_plan_lib(batches: usize, lanes: usize, seed: u64) -> (u64, u64) {
    fn snap(w: &Wafer) -> String {
        let mut sw = desim::SnapWriter::new();
        w.write_snap(&mut sw);
        sw.finish()
    }
    fn ring(origin: TileCoord, lanes: usize) -> Vec<Demand> {
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
    let mut rng = SimRng::seed_from_u64(seed);
    let cfg = WaferConfig::lightpath_32();
    let mut warm = Wafer::new(cfg.clone());
    let mut fresh = Wafer::new(cfg);
    let mut lib = PlanLibrary::new();
    let mut s_warm = Searcher::new();
    let mut s_fresh = Searcher::new();
    let mut f = Fnv::new();
    f.write_str("planlib").write_u64(seed);
    let mut circuits = 0u64;
    for _ in 0..batches {
        let origin = TileCoord::new(rng.gen_range_u64(3) as u8, rng.gen_range_u64(7) as u8);
        // One batch in four lands on an occupied region: a blocker circuit
        // through the footprint forces the occupancy guard to refuse the
        // stamp and fall back to fresh routing on both wafers.
        let blocker = if rng.gen_range_u64(4) == 0 {
            let req = CircuitRequest::new(
                TileCoord::new(origin.row, origin.col),
                TileCoord::new(origin.row, origin.col + 1),
                1,
            );
            let (a, b) = (warm.establish(req.clone()), fresh.establish(req));
            assert!(
                a.is_ok() == b.is_ok(),
                "blocker admission diverged between twin wafers"
            );
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert!(a.id == b.id, "blocker ids diverged");
                    Some(a.id)
                }
                _ => None,
            }
        } else {
            None
        };
        let demands = ring(origin, lanes);
        let stamped = lib.stamp_or_route(&mut warm, &demands, &mut s_warm);
        let routed = allocate_non_overlapping_with(&mut fresh, &demands, &mut s_fresh);
        assert!(
            stamped.is_ok() == routed.is_ok(),
            "stamped admission verdict diverged from fresh A*"
        );
        if let (Ok(a), Ok(b)) = (stamped, routed) {
            assert!(a == b, "stamped batch ids diverged from fresh A*");
            circuits += a.len() as u64;
            f.write_u64(a.len() as u64);
            for id in a {
                let _ = warm.teardown(id);
                let _ = fresh.teardown(id);
            }
        } else {
            f.write_u64(u64::MAX);
        }
        if let Some(id) = blocker {
            let _ = warm.teardown(id);
            let _ = fresh.teardown(id);
        }
        // The stamp must be transparent mid-sweep, not just in tests.
        assert!(
            snap(&warm) == snap(&fresh),
            "plan-library wafer state diverged from fresh A* twin"
        );
    }
    let stats = lib.stats();
    f.write_u64(stats.hits)
        .write_u64(stats.misses)
        .write_u64(stats.fallbacks)
        .write_u64(stats.evictions)
        .write_u64(stats.stamped_circuits);
    f.write_u64(lib.instance_count() as u64);
    (f.finish(), circuits)
}

fn run_route_churn(ops: usize, seed: u64, merged: &mut MergedStats) -> (u64, u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    let opts = SearchOptions {
        load_weight: 8.0,
        ..SearchOptions::default()
    };
    let mut cache = PathCache::new(opts.clone());
    let mut live = Vec::new();
    let mut f = Fnv::new();
    f.write_str("churn").write_u64(seed);
    for _ in 0..ops {
        match rng.gen_range_u64(3) {
            0 => {
                let src = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
                let dst = TileCoord::new(rng.gen_range_u64(4) as u8, rng.gen_range_u64(8) as u8);
                if src != dst {
                    if let Ok(rep) = wafer.establish(CircuitRequest::new(src, dst, 1)) {
                        live.push(rep.id);
                        f.write_u64(1);
                    }
                }
            }
            1 if !live.is_empty() => {
                let id = live.swap_remove(rng.gen_range_usize(live.len()));
                if wafer.teardown(id).is_ok() {
                    f.write_u64(2);
                }
            }
            _ => {}
        }
        let src = TileCoord::new(rng.gen_range_u64(2) as u8, rng.gen_range_u64(3) as u8);
        let dst = TileCoord::new(
            2 + rng.gen_range_u64(2) as u8,
            5 + rng.gen_range_u64(3) as u8,
        );
        let cached = cache.find_path(&wafer, src, dst);
        // The cache must be transparent mid-sweep, not just in tests.
        assert!(
            cached == astar(&wafer, src, dst, &opts),
            "path cache diverged from fresh A* at {src}->{dst}"
        );
        match &cached {
            Some(p) => {
                f.write_u64(p.hops() as u64);
                f.write_f64(wafer.path_loss_budget(p).total_db());
                merged.churn_hops.push(p.hops() as f64);
            }
            None => {
                f.write_u64(u64::MAX);
            }
        }
    }
    let s = cache.stats();
    f.write_u64(s.hits)
        .write_u64(s.misses)
        .write_u64(s.invalidations);
    f.write_u64(wafer.occupancy_epoch());
    (f.finish(), ops as u64)
}

/// A worker must have at least this many scenarios before another thread
/// is worth spawning: a short queue of cheap scenarios drains faster than
/// a thread spawns, so oversplitting a small grid *loses* wall-clock.
pub const MIN_SCENARIOS_PER_WORKER: usize = 4;

/// Run `grid` across `workers` threads (clamped to ≥ 1) and return the
/// order-combined outcome.
///
/// The requested worker count is capped so every worker averages at least
/// [`MIN_SCENARIOS_PER_WORKER`] scenarios, and never exceeds the
/// machine's available parallelism. The scenarios run on the
/// [`desim::par::map_pulled`] pool: a single heavy scenario (the smoke
/// grid's control campaign dwarfs its neighbours) occupies one worker
/// while the rest drain the queue, and a 1-worker sweep spawns no threads
/// at all. Each scenario fills a *private* stats registry; the pool
/// returns results in grid-index order and the registries merge in that
/// order, so both the fingerprint and the merged statistics are
/// bit-identical for **any** worker count, no matter which thread ran
/// which scenario.
pub fn run_sweep(grid: &GridSpec, workers: usize) -> SweepOutcome {
    let n = grid.len();
    // More threads than cores is pure loss on this workload: scenarios
    // never block, so an oversubscribed host just context-switches.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = workers
        .clamp(1, (n / MIN_SCENARIOS_PER_WORKER).max(1))
        .min(cores);
    // detlint: allow(DET002) — wall-clock measures events/sec telemetry
    // only; results and fingerprints are pure functions of the grid.
    let started = std::time::Instant::now();
    let scenarios = grid.scenarios.iter().enumerate();
    let parts = desim::par::map_pulled(scenarios, workers, |(index, scenario)| {
        let mut local = MergedStats::new();
        let (fingerprint, events) = run_scenario(scenario, &mut local);
        let result = ScenarioResult {
            index,
            label: scenario.label(),
            fingerprint,
            events,
        };
        (result, local)
    });
    let mut results: Vec<ScenarioResult> = Vec::with_capacity(n);
    let mut merged = MergedStats::new();
    for (r, local) in parts {
        merged.merge(&local);
        results.push(r);
    }
    let wall = started.elapsed();
    let fingerprint = combine(&results.iter().map(|r| r.fingerprint).collect::<Vec<u64>>());
    let events = results.iter().map(|r| r.events).sum();
    SweepOutcome {
        grid: grid.name.clone(),
        workers,
        results,
        fingerprint,
        events,
        merged,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_runs_are_pure() {
        // Same scenario, fresh registries: identical fingerprint and events.
        let s = Scenario::RouteChurn { ops: 20, seed: 9 };
        let mut m1 = MergedStats::new();
        let mut m2 = MergedStats::new();
        assert_eq!(run_scenario(&s, &mut m1), run_scenario(&s, &mut m2));
        assert_eq!(m1.churn_hops.count(), m2.churn_hops.count());
    }

    #[test]
    fn plan_lib_scenario_is_pure_and_establishes_circuits() {
        let s = Scenario::PlanLib {
            batches: 30,
            lanes: 2,
            seed: 4,
        };
        let mut m1 = MergedStats::new();
        let mut m2 = MergedStats::new();
        let a = run_scenario(&s, &mut m1);
        assert_eq!(a, run_scenario(&s, &mut m2));
        assert!(a.1 > 0, "batches established circuits");
        let b = run_scenario(
            &Scenario::PlanLib {
                batches: 30,
                lanes: 2,
                seed: 5,
            },
            &mut m1,
        );
        assert_ne!(a.0, b.0, "seed must matter");
    }

    #[test]
    fn planlib_grid_fingerprint_is_worker_count_invariant() {
        let grid = GridSpec::planlib(11);
        let seq = run_sweep(&grid, 1);
        let par = run_sweep(&grid, 4);
        assert_eq!(seq.fingerprint, par.fingerprint);
        assert_eq!(seq.events, par.events);
    }

    #[test]
    fn placement_scenarios_are_pure_and_policy_sensitive() {
        let cell = |policy| Scenario::PlacementCampaign {
            chips: 512,
            jobs: 48,
            failures: 2,
            epochs: 0,
            policy,
            seed: 11,
        };
        let mut m1 = MergedStats::new();
        let mut m2 = MergedStats::new();
        let greedy = run_scenario(&cell(pod::PolicyKind::Greedy), &mut m1);
        assert_eq!(
            greedy,
            run_scenario(&cell(pod::PolicyKind::Greedy), &mut m2),
            "placement scenarios are pure"
        );
        assert!(greedy.1 > 0, "the campaign executed events");
        // Same trace, different policy: at a scale where whole jobs span
        // a rack face, the stitch policy admits differently — and the
        // fingerprint must see it.
        let stitch = run_scenario(&cell(pod::PolicyKind::Stitch), &mut m1);
        assert_ne!(greedy.0, stitch.0, "policy must move the fingerprint");
    }

    #[test]
    fn different_seeds_give_different_fingerprints() {
        let mut m = MergedStats::new();
        let a = run_scenario(
            &Scenario::PhyMonteCarlo {
                samples: 500,
                seed: 1,
            },
            &mut m,
        );
        let b = run_scenario(
            &Scenario::PhyMonteCarlo {
                samples: 500,
                seed: 2,
            },
            &mut m,
        );
        assert_ne!(a.0, b.0);
        assert_eq!(a.1, b.1, "same sample count, same event count");
    }

    #[test]
    fn oversubscribed_worker_counts_clamp() {
        let grid = GridSpec::smoke(3);
        let out = run_sweep(&grid, 10_000);
        assert!(out.workers <= grid.len());
        assert_eq!(out.results.len(), grid.len());
    }

    #[test]
    fn small_grids_cap_workers_by_queue_share() {
        let grid = GridSpec::smoke(3);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let max = (grid.len() / MIN_SCENARIOS_PER_WORKER).max(1).min(cores);
        let out = run_sweep(&grid, grid.len());
        assert_eq!(out.workers, max, "every worker averages a full share");
        // The cap never changes the outcome, only the thread count.
        let seq = run_sweep(&grid, 1);
        assert_eq!(out.fingerprint, seq.fingerprint);
        assert_eq!(out.events, seq.events);
    }

    #[test]
    fn merged_stats_are_worker_count_invariant() {
        // Per-scenario registries merge in index order, so the merged
        // statistics — not just the fingerprint — are bit-identical no
        // matter how many threads ran the grid or which thread ran what.
        let grid = GridSpec::smoke(7);
        let seq = run_sweep(&grid, 1);
        let par = run_sweep(&grid, 2);
        assert_eq!(
            seq.merged.churn_hops.mean().to_bits(),
            par.merged.churn_hops.mean().to_bits()
        );
        assert_eq!(
            seq.merged.collective_us.mean().to_bits(),
            par.merged.collective_us.mean().to_bits()
        );
        assert_eq!(
            seq.merged.stitch_loss_db.counts(),
            par.merged.stitch_loss_db.counts()
        );
        assert_eq!(
            seq.merged.admission_wait_s.count(),
            par.merged.admission_wait_s.count()
        );
    }
}
