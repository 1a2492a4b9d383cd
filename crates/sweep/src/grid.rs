//! Scenario grids: what a sweep runs.
//!
//! A [`GridSpec`] is an ordered list of [`Scenario`]s spanning the
//! workspace's layers — phy Monte-Carlo, fabricd admission/failure
//! campaigns, slice-shape × collective matrices, and route-cache churn.
//! Randomized scenarios get their RNG seed partitioned up front by
//! [`derive_seed`](desim::fnv::derive_seed)`(base, index)`, so the
//! stream a scenario consumes is a pure function of the grid — independent
//! of worker count, scheduling, or which thread picks it up.

use collectives::Mode;
use desim::fnv::derive_seed;
use pod::PolicyKind;
use topo::Shape3;
use workloads::STANDARD_SHAPES;

/// Which collective a [`Scenario::Collective`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Ring AllReduce over the slice's snake order (Table 1's algorithm).
    RingAllReduce,
    /// Multi-dimensional bucket ReduceScatter (Table 2's algorithm).
    BucketReduceScatter,
}

impl CollectiveAlgo {
    /// Short name for labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CollectiveAlgo::RingAllReduce => "ring",
            CollectiveAlgo::BucketReduceScatter => "bucket",
        }
    }
}

/// One independent unit of sweep work.
#[derive(Debug, Clone, PartialEq)]
pub enum Scenario {
    /// Reticle-stitch loss Monte-Carlo (Fig 3b's distribution).
    PhyMonteCarlo {
        /// Stitches sampled.
        samples: usize,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// A fabricd admission + failure campaign; the journal hash is the
    /// scenario's natural fingerprint.
    CtrlCampaign {
        /// TPUv4 racks in the fabric.
        racks: usize,
        /// Wavelength lanes per ring circuit.
        lanes: usize,
        /// Jobs drawn from the arrival process.
        jobs: usize,
        /// Chip failures injected mid-trace.
        failures: usize,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// One cell of the slice-shape × mode × algorithm matrix, executed
    /// event-driven and cross-checked against the closed form.
    Collective {
        /// Slice shape (must fit the 4×4×4 rack).
        shape: Shape3,
        /// Interconnect mode.
        mode: Mode,
        /// Algorithm.
        algo: CollectiveAlgo,
        /// Collective buffer size, bytes.
        n_bytes: f64,
    },
    /// Wafer establish/teardown churn probed through the route-layer
    /// [`PathCache`](route::PathCache), fingerprinting paths and loss
    /// budgets.
    RouteChurn {
        /// Establish/teardown/probe iterations.
        ops: usize,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// A long-horizon snapshotted control-plane campaign under Poisson
    /// churn: jobs arrive and chips fail while [`fabricd::run_campaign`]
    /// captures a [`fabricd::CtrlSnapshot`] every `every_s` simulated
    /// seconds and compacts the journal down to each watermark. The
    /// scenario delta-replays from the last snapshot in-sweep and folds
    /// the equivalence verdict into its fingerprint, so a broken restart
    /// path shows up as a sweep fingerprint change, not just a test
    /// failure.
    SnapshotChurn {
        /// Jobs drawn from the arrival process (the horizon driver).
        jobs: usize,
        /// Chip failures injected mid-trace.
        failures: usize,
        /// Snapshot cadence, simulated seconds.
        every_s: u64,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// Plan-library admission churn: a cold [`route::PlanLibrary`] warms
    /// over ring-slice batches at random origins while a twin wafer admits
    /// the same batches by fresh A*. Every batch's stamp-vs-scratch byte
    /// equality is asserted in-sweep and the library's hit/miss/fallback
    /// counters fold into the scenario fingerprint, so a stamp that stops
    /// being byte-equivalent — or silently regresses to fresh routing —
    /// moves the sweep digest.
    PlanLib {
        /// Admission batches (each a ring demand set at a random origin).
        batches: usize,
        /// Wavelength lanes per demand (part of the plan key).
        lanes: usize,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// A sharded pod-scale campaign ([`pod::run_pod`]): rack-group shard
    /// domains under the pod-level control plane. The pod's own
    /// worker-count-invariant fingerprint is the scenario fingerprint.
    PodCampaign {
        /// Total chips (multiple of one 64-chip rack).
        chips: usize,
        /// Jobs in the pod arrival trace.
        jobs: usize,
        /// Chip failures injected across domains.
        failures: usize,
        /// Epoch cap (0 = run to quiescence).
        epochs: u64,
        /// RNG seed (already partitioned per scenario).
        seed: u64,
    },
    /// One cell of the placement-policy comparison: the *same* pod
    /// arrival trace (one seed per cell, shared across the cell's three
    /// policy scenarios) admitted under one [`PlacementPolicy`]
    /// (pod::PlacementPolicy). Policy telemetry — mean admission wait,
    /// occupancy, fragmentation — folds into the scenario fingerprint, so
    /// a policy whose decisions drift moves the sweep digest.
    PlacementCampaign {
        /// Total chips (multiple of one 64-chip rack).
        chips: usize,
        /// Jobs in the pod arrival trace.
        jobs: usize,
        /// Chip failures injected across domains.
        failures: usize,
        /// Epoch cap (0 = run to quiescence).
        epochs: u64,
        /// Placement policy under comparison.
        policy: PolicyKind,
        /// RNG seed (partitioned per *cell*, shared across its policies
        /// so the three scenarios admit the identical demand trace).
        seed: u64,
    },
}

impl Scenario {
    /// Human-readable label (stable; used in reports and JSON).
    pub fn label(&self) -> String {
        match self {
            Scenario::PhyMonteCarlo { samples, seed } => {
                format!("phy/stitch-mc/n{samples}/s{seed:x}")
            }
            Scenario::CtrlCampaign {
                racks,
                lanes,
                jobs,
                failures,
                seed,
            } => format!("ctrl/r{racks}l{lanes}j{jobs}f{failures}/s{seed:x}"),
            Scenario::Collective {
                shape,
                mode,
                algo,
                n_bytes,
            } => {
                let m = match mode {
                    Mode::Electrical => "elec",
                    Mode::OpticalStaticSplit => "osplit",
                    Mode::OpticalFullSteer => "osteer",
                };
                format!(
                    "coll/{}/{shape}/{m}/{:.0}MiB",
                    algo.name(),
                    n_bytes / (1u64 << 20) as f64
                )
            }
            Scenario::RouteChurn { ops, seed } => format!("route/churn/n{ops}/s{seed:x}"),
            Scenario::PlanLib {
                batches,
                lanes,
                seed,
            } => format!("route/planlib/b{batches}l{lanes}/s{seed:x}"),
            Scenario::SnapshotChurn {
                jobs,
                failures,
                every_s,
                seed,
            } => format!("ctrl/snap-churn/j{jobs}f{failures}e{every_s}/s{seed:x}"),
            Scenario::PodCampaign {
                chips,
                jobs,
                failures,
                epochs,
                seed,
            } => format!("pod/c{chips}j{jobs}f{failures}e{epochs}/s{seed:x}"),
            Scenario::PlacementCampaign {
                chips,
                jobs,
                failures,
                epochs,
                policy,
                seed,
            } => format!(
                "place/{}/c{chips}j{jobs}f{failures}e{epochs}/s{seed:x}",
                policy.name()
            ),
        }
    }
}

/// A named, ordered scenario list.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Grid name ("smoke", "full") recorded in reports and baselines.
    pub name: String,
    /// Scenarios in index order. Index is identity: fingerprints combine in
    /// this order.
    pub scenarios: Vec<Scenario>,
}

/// 64 MiB — the workspace's standard collective buffer (Fig 5b scale).
pub const N_BYTES: f64 = (64u64 << 20) as f64;

impl GridSpec {
    /// Resolve a grid by name.
    pub fn by_name(name: &str, base_seed: u64) -> Option<GridSpec> {
        match name {
            "smoke" => Some(GridSpec::smoke(base_seed)),
            "full" => Some(GridSpec::full(base_seed)),
            "pod" => Some(GridSpec::pod(base_seed)),
            "churn" => Some(GridSpec::churn(base_seed)),
            "churn-smoke" => Some(GridSpec::churn_smoke(base_seed)),
            "planlib" => Some(GridSpec::planlib(base_seed)),
            "placement" => Some(GridSpec::placement(base_seed)),
            _ => None,
        }
    }

    /// The CI grid: every scenario kind, sized to finish in seconds.
    pub fn smoke(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("smoke", base_seed);
        g.phy_monte_carlo(2_000);
        g.ctrl_campaign(1, 2, 8, 1);
        for shape in [Shape3::new(4, 2, 1), Shape3::new(4, 4, 1)] {
            for mode in [Mode::Electrical, Mode::OpticalFullSteer] {
                g.collective(shape, mode, CollectiveAlgo::RingAllReduce);
            }
        }
        g.collective(
            Shape3::new(4, 4, 1),
            Mode::OpticalStaticSplit,
            CollectiveAlgo::BucketReduceScatter,
        );
        g.route_churn(60);
        g.finish()
    }

    /// The benchmark grid: the full slice-shape × mode matrix, several
    /// Monte-Carlo and control-plane campaigns, heavier churn.
    pub fn full(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("full", base_seed);
        for _ in 0..4 {
            g.phy_monte_carlo(20_000);
        }
        g.ctrl_campaign(1, 2, 12, 1);
        g.ctrl_campaign(1, 2, 16, 2);
        g.ctrl_campaign(2, 2, 24, 2);
        g.ctrl_campaign(1, 4, 12, 1);
        for shape in STANDARD_SHAPES {
            for mode in [
                Mode::Electrical,
                Mode::OpticalStaticSplit,
                Mode::OpticalFullSteer,
            ] {
                g.collective(shape, mode, CollectiveAlgo::RingAllReduce);
                g.collective(shape, mode, CollectiveAlgo::BucketReduceScatter);
            }
        }
        for _ in 0..4 {
            g.route_churn(200);
        }
        g.finish()
    }

    /// The pod scenario grid: sharded pod campaigns from sub-pod scale up
    /// to the paper's 4096-chip baseline (epoch-capped so the big pod
    /// stays CI-sized). The existing smoke/full grids are untouched —
    /// their committed fingerprints must not move.
    pub fn pod(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("pod", base_seed);
        g.pod_campaign(512, 48, 4, 0);
        g.pod_campaign(1024, 64, 4, 0);
        g.pod_campaign(2048, 64, 8, 6);
        g.pod_campaign(4096, 96, 8, 4);
        g.finish()
    }

    /// The snapshot-churn grid: long-horizon control-plane campaigns
    /// (hundreds of Poisson arrivals, repeated chip failures) with
    /// snapshot cadences from tight to sparse, every journal compacted
    /// to its watermark, every restart delta-replayed in-sweep. The
    /// existing smoke/full/pod grids are untouched — their committed
    /// fingerprints must not move.
    pub fn churn(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("churn", base_seed);
        g.snapshot_churn(96, 4, 600);
        g.snapshot_churn(128, 6, 1_800);
        g.snapshot_churn(192, 8, 3_600);
        g.snapshot_churn(256, 8, 1_200);
        g.finish()
    }

    /// CI-sized variant of [`churn`](Self::churn): same scenario kind and
    /// shape, an order of magnitude fewer arrivals.
    pub fn churn_smoke(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("churn-smoke", base_seed);
        g.snapshot_churn(16, 2, 600);
        g.snapshot_churn(24, 2, 1_800);
        g.finish()
    }

    /// The plan-library grid: cold-to-warm admission churn across batch
    /// counts and lane widths (lanes are part of the plan key, so each
    /// width warms its own captured batches). The existing
    /// smoke/full/pod/churn grids are untouched — their committed
    /// fingerprints must not move.
    pub fn planlib(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("planlib", base_seed);
        g.plan_lib(40, 1);
        g.plan_lib(40, 2);
        g.plan_lib(80, 2);
        g.plan_lib(120, 4);
        g.finish()
    }

    /// The placement-policy comparison grid: each cell replays one pod
    /// arrival trace under every [`pod::PolicyKind`], so the per-policy
    /// admission wait, occupancy, and fragmentation are directly
    /// comparable (same jobs, same failures, same arrival times). The
    /// first cell is the committed stitch-exercising scale — 512 chips is
    /// eight single-rack domains, so 64-chip jobs cannot fit a broken
    /// group without crossing a rack face. The existing
    /// smoke/full/pod/churn/planlib grids are untouched — their committed
    /// fingerprints must not move.
    pub fn placement(base_seed: u64) -> GridSpec {
        let mut g = GridBuilder::new("placement", base_seed);
        g.placement_cell(512, 96, 2, 0);
        g.placement_cell(1024, 128, 4, 8);
        g.finish()
    }

    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// Builder that stamps each randomized scenario with its partitioned seed.
struct GridBuilder {
    name: &'static str,
    base_seed: u64,
    scenarios: Vec<Scenario>,
}

impl GridBuilder {
    fn new(name: &'static str, base_seed: u64) -> Self {
        GridBuilder {
            name,
            base_seed,
            scenarios: Vec::new(),
        }
    }

    /// The seed for the scenario about to be pushed.
    fn next_seed(&self) -> u64 {
        derive_seed(self.base_seed, self.scenarios.len() as u64)
    }

    fn phy_monte_carlo(&mut self, samples: usize) {
        let seed = self.next_seed();
        self.scenarios
            .push(Scenario::PhyMonteCarlo { samples, seed });
    }

    fn ctrl_campaign(&mut self, racks: usize, lanes: usize, jobs: usize, failures: usize) {
        let seed = self.next_seed();
        self.scenarios.push(Scenario::CtrlCampaign {
            racks,
            lanes,
            jobs,
            failures,
            seed,
        });
    }

    fn collective(&mut self, shape: Shape3, mode: Mode, algo: CollectiveAlgo) {
        self.scenarios.push(Scenario::Collective {
            shape,
            mode,
            algo,
            n_bytes: N_BYTES,
        });
    }

    fn route_churn(&mut self, ops: usize) {
        let seed = self.next_seed();
        self.scenarios.push(Scenario::RouteChurn { ops, seed });
    }

    fn snapshot_churn(&mut self, jobs: usize, failures: usize, every_s: u64) {
        let seed = self.next_seed();
        self.scenarios.push(Scenario::SnapshotChurn {
            jobs,
            failures,
            every_s,
            seed,
        });
    }

    fn plan_lib(&mut self, batches: usize, lanes: usize) {
        let seed = self.next_seed();
        self.scenarios.push(Scenario::PlanLib {
            batches,
            lanes,
            seed,
        });
    }

    fn pod_campaign(&mut self, chips: usize, jobs: usize, failures: usize, epochs: u64) {
        let seed = self.next_seed();
        self.scenarios.push(Scenario::PodCampaign {
            chips,
            jobs,
            failures,
            epochs,
            seed,
        });
    }

    fn placement_cell(&mut self, chips: usize, jobs: usize, failures: usize, epochs: u64) {
        // One seed per cell, shared by all three policy scenarios: the
        // comparison is only meaningful over the identical arrival trace.
        let seed = self.next_seed();
        for policy in PolicyKind::ALL {
            self.scenarios.push(Scenario::PlacementCampaign {
                chips,
                jobs,
                failures,
                epochs,
                policy,
                seed,
            });
        }
    }

    fn finish(self) -> GridSpec {
        GridSpec {
            name: self.name.to_string(),
            scenarios: self.scenarios,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_stable_for_a_seed() {
        let a = GridSpec::smoke(42);
        let b = GridSpec::smoke(42);
        assert_eq!(a.scenarios, b.scenarios);
        let c = GridSpec::smoke(43);
        assert_ne!(a.scenarios, c.scenarios, "base seed must matter");
    }

    #[test]
    fn full_covers_every_kind_and_every_shape() {
        let g = GridSpec::full(1);
        assert!(g.len() > 20);
        for shape in STANDARD_SHAPES {
            assert!(g
                .scenarios
                .iter()
                .any(|s| matches!(s, Scenario::Collective { shape: sh, .. } if *sh == shape)));
        }
        assert!(g
            .scenarios
            .iter()
            .any(|s| matches!(s, Scenario::PhyMonteCarlo { .. })));
        assert!(g
            .scenarios
            .iter()
            .any(|s| matches!(s, Scenario::CtrlCampaign { .. })));
        assert!(g
            .scenarios
            .iter()
            .any(|s| matches!(s, Scenario::RouteChurn { .. })));
    }

    #[test]
    fn labels_are_unique_within_a_grid() {
        for grid in [
            GridSpec::smoke(7),
            GridSpec::full(7),
            GridSpec::placement(7),
        ] {
            let mut seen = std::collections::HashSet::new();
            for s in &grid.scenarios {
                assert!(seen.insert(s.label()), "duplicate label {}", s.label());
            }
        }
    }

    #[test]
    fn by_name_resolves() {
        assert!(GridSpec::by_name("smoke", 1).is_some());
        assert!(GridSpec::by_name("full", 1).is_some());
        assert!(GridSpec::by_name("pod", 1).is_some());
        assert!(GridSpec::by_name("churn", 1).is_some());
        assert!(GridSpec::by_name("churn-smoke", 1).is_some());
        assert!(GridSpec::by_name("planlib", 1).is_some());
        assert!(GridSpec::by_name("placement", 1).is_some());
        assert!(GridSpec::by_name("nope", 1).is_none());
    }

    #[test]
    fn planlib_grid_spans_lane_widths_with_distinct_seeds() {
        let g = GridSpec::planlib(5);
        assert!(!g.is_empty());
        let mut lanes = Vec::new();
        let mut seeds = Vec::new();
        for s in &g.scenarios {
            match s {
                Scenario::PlanLib { lanes: l, seed, .. } => {
                    lanes.push(*l);
                    seeds.push(*seed);
                }
                other => panic!("non-planlib scenario in planlib grid: {other:?}"),
            }
        }
        lanes.sort_unstable();
        lanes.dedup();
        assert!(lanes.len() > 1, "multiple lane widths (plan-key families)");
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "per-scenario seeds are distinct");
    }

    #[test]
    fn churn_grids_are_snapshot_campaigns_with_distinct_seeds() {
        for grid in [GridSpec::churn(9), GridSpec::churn_smoke(9)] {
            assert!(!grid.is_empty());
            let seeds: Vec<u64> = grid
                .scenarios
                .iter()
                .map(|s| match s {
                    Scenario::SnapshotChurn { seed, .. } => *seed,
                    other => panic!("non-churn scenario in {}: {other:?}", grid.name),
                })
                .collect();
            let mut dedup = seeds.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), seeds.len(), "per-scenario seeds are distinct");
        }
        // The smoke variant is strictly lighter than the benchmark grid.
        let load = |g: &GridSpec| -> usize {
            g.scenarios
                .iter()
                .map(|s| match s {
                    Scenario::SnapshotChurn { jobs, .. } => *jobs,
                    _ => 0,
                })
                .sum()
        };
        assert!(load(&GridSpec::churn_smoke(9)) < load(&GridSpec::churn(9)) / 4);
    }

    #[test]
    fn placement_cells_replay_one_trace_per_policy() {
        let g = GridSpec::placement(3);
        assert!(!g.is_empty());
        // Every cell carries all three policies over the *same* seed:
        // group scenarios by (chips, jobs, failures, epochs, seed) and
        // demand each group is exactly PolicyKind::ALL in order.
        let mut cells: Vec<((usize, usize, usize, u64, u64), Vec<PolicyKind>)> = Vec::new();
        for s in &g.scenarios {
            let Scenario::PlacementCampaign {
                chips,
                jobs,
                failures,
                epochs,
                policy,
                seed,
            } = s
            else {
                panic!("non-placement scenario in placement grid: {s:?}");
            };
            let key = (*chips, *jobs, *failures, *epochs, *seed);
            match cells.last_mut() {
                Some((k, policies)) if *k == key => policies.push(*policy),
                _ => cells.push((key, vec![*policy])),
            }
        }
        assert!(cells.len() > 1, "multiple comparison cells");
        for (key, policies) in &cells {
            assert_eq!(policies, &PolicyKind::ALL, "cell {key:?}");
        }
        // Distinct cells draw distinct traces.
        let mut seeds: Vec<u64> = cells.iter().map(|(k, _)| k.4).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "per-cell seeds are distinct");
        // The committed stitch-exercising scale is present.
        assert!(g.scenarios.iter().any(|s| matches!(
            s,
            Scenario::PlacementCampaign {
                chips: 512,
                policy: PolicyKind::Stitch,
                ..
            }
        )));
    }

    #[test]
    fn pod_grid_scales_to_the_paper_baseline() {
        let g = GridSpec::pod(1);
        assert!(g
            .scenarios
            .iter()
            .any(|s| matches!(s, Scenario::PodCampaign { chips: 4096, .. })));
        // Seeds are partitioned per scenario, like every other grid.
        let seeds: Vec<u64> = g
            .scenarios
            .iter()
            .filter_map(|s| match s {
                Scenario::PodCampaign { seed, .. } => Some(*seed),
                _ => None,
            })
            .collect();
        assert_eq!(seeds.len(), g.len());
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "per-scenario seeds are distinct");
    }
}
