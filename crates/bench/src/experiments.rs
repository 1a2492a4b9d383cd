//! The experiment harness: one function per table/figure of the paper.
//!
//! Each function returns structured data; the `repro` binary renders it as
//! text and `EXPERIMENTS.md` records paper-vs-measured. The tests in
//! `tests/end_to_end_repro.rs` call the same functions, so the numbers in
//! the report and the assertions cannot drift apart.

use collectives::{
    bucket_reduce_scatter, bucket_reduce_scatter_cost, execute, ring_reduce_scatter,
    ring_reduce_scatter_cost, snake_order, subdivided_cost, CostParams, Mode,
};
use desim::{Histogram, SimDuration, TimeSeries};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use phy::{fit_settling_tau, Mzi, MziParams, MziState, StitchModel};
use resilience::{analyze, blast_radius, fig6a, fig6b, optical_repair, PhotonicRack, RepairPolicy};
use topo::{Cluster, Coord3, Dim, Shape3, Slice, Torus};

/// The rack shape every experiment runs against.
pub const RACK: Shape3 = Shape3::rack_4x4x4();

// ---------------------------------------------------------------- Fig 3a --

/// Fig 3a: the MZI switch step response.
pub struct Fig3a {
    /// Normalized amplitude trace (seconds, amplitude).
    pub trace: TimeSeries,
    /// Fitted settling time constant of the trace (paper: τ ≈ 1.2 µs with
    /// a ±0.94 µs error bar).
    pub fitted_tau_s: f64,
    /// Time at which the amplitude first reaches 99 % — the
    /// reconfiguration latency (paper: 3.7 µs).
    pub t99_s: f64,
}

/// Run the Fig 3a experiment: drive a settled bar-state MZI to cross and
/// record the bright-port amplitude.
pub fn run_fig3a() -> Fig3a {
    let mut mzi = Mzi::new(MziParams::default(), MziState::Bar);
    let trace = mzi.step_response_trace(MziState::Cross, 25e-9, 10e-6);
    // The trace settles to 1 (normalized): fit the straight region of the
    // semilog settling plot, as the paper's scope-trace fit does.
    let fitted_tau_s =
        fit_settling_tau(trace.points(), 1.0, 0.01, 0.5).expect("the switching trace settles");
    let t99_s = trace.first_crossing(0.99).expect("trace settles");
    Fig3a {
        trace,
        fitted_tau_s,
        t99_s,
    }
}

// ---------------------------------------------------------------- Fig 3b --

/// Fig 3b: the reticle stitch-loss distribution.
pub struct Fig3b {
    /// Binned losses over [0, 0.8) dB, 40 bins — the paper's axis range.
    pub histogram: Histogram,
    /// Mean loss, dB.
    pub mean_db: f64,
    /// 95th percentile, dB.
    pub p95_db: f64,
}

/// Run the Fig 3b experiment: Monte-Carlo sample `n` stitches.
pub fn run_fig3b(n: usize) -> Fig3b {
    let histogram = StitchModel::default().loss_distribution(n, 0.8, 40, 0x00F1_63B0);
    let mean_db = histogram.stats().mean();
    let p95_db = histogram.quantile(0.95).unwrap_or(f64::NAN);
    Fig3b {
        histogram,
        mean_db,
        p95_db,
    }
}

// --------------------------------------------------------------- Table 1 --

/// One row of Table 1 / Table 2: a mode's symbolic and measured cost.
pub struct CostRow {
    /// Row label ("Electrical" / "Optics").
    pub label: &'static str,
    /// α steps.
    pub alpha_steps: u32,
    /// Reconfigurations.
    pub reconfigs: u32,
    /// β-weighted bytes (bytes × bandwidth multiplier).
    pub beta_bytes: f64,
    /// Measured completion time from the desim executor.
    pub measured: SimDuration,
    /// Closed-form prediction.
    pub predicted: SimDuration,
}

/// Table 1: ReduceScatter on Slice-1 (4×2×1, p = 8), electrical vs optics.
pub fn run_table1(n_bytes: f64) -> Vec<CostRow> {
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let members = snake_order(&slice);
    let mut rows = Vec::new();
    for (label, mode) in [
        ("Electrical", Mode::Electrical),
        ("Optics", Mode::OpticalFullSteer),
    ] {
        let sched = ring_reduce_scatter(&members, n_bytes, mode, RACK, &torus, &params);
        let sym = sched.symbolic_cost(&params);
        let closed = ring_reduce_scatter_cost(members.len(), n_bytes, mode, RACK);
        debug_assert!((sym.beta_bytes - closed.beta_bytes).abs() < 1e-3);
        let measured = execute(&sched, &params).total;
        rows.push(CostRow {
            label,
            alpha_steps: sym.alpha_steps,
            reconfigs: sym.reconfigs,
            beta_bytes: sym.beta_bytes,
            measured,
            predicted: sym.total(&params),
        });
    }
    rows
}

/// Table 2: ReduceScatter on Slice-3 (4×4×1, D = 2, two stages).
pub fn run_table2(n_bytes: f64) -> Vec<CostRow> {
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let slice = Slice::new(3, Coord3::new(0, 0, 1), Shape3::new(4, 4, 1));
    let dims = [Dim::X, Dim::Y];
    let mut rows = Vec::new();
    for (label, mode) in [
        ("Electrical", Mode::Electrical),
        ("Optics", Mode::OpticalStaticSplit),
    ] {
        let sched = bucket_reduce_scatter(&slice, &dims, n_bytes, mode, RACK, &torus, &params);
        let sym = sched.symbolic_cost(&params);
        let closed = bucket_reduce_scatter_cost(&[4, 4], n_bytes, mode, RACK);
        debug_assert!((sym.beta_bytes - closed.beta_bytes).abs() < 1e-3);
        let measured = execute(&sched, &params).total;
        rows.push(CostRow {
            label,
            alpha_steps: sym.alpha_steps,
            reconfigs: sym.reconfigs,
            beta_bytes: sym.beta_bytes,
            measured,
            predicted: sym.total(&params),
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig 5c --

/// One bar pair of Fig 5c.
pub struct UtilizationRow {
    /// Slice label.
    pub name: String,
    /// Slice shape.
    pub shape: Shape3,
    /// Electrical bandwidth utilization (0..1).
    pub electrical: f64,
    /// Optical (redirected) utilization (0..1).
    pub optical: f64,
}

/// Fig 5c: per-slice bandwidth utilization under the Fig 5b packing.
pub fn run_fig5c() -> Vec<UtilizationRow> {
    let slices = [
        Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1)),
        Slice::new(2, Coord3::new(0, 2, 0), Shape3::new(4, 2, 1)),
        Slice::new(3, Coord3::new(0, 0, 1), Shape3::new(4, 4, 1)),
        Slice::new(4, Coord3::new(0, 0, 2), Shape3::new(4, 4, 2)),
    ];
    slices
        .iter()
        .map(|s| UtilizationRow {
            name: format!("Slice-{}", s.id.0),
            shape: s.extent,
            electrical: s.utilization_electrical(RACK),
            optical: s.utilization_optical(),
        })
        .collect()
}

// ------------------------------------------------------------- Fig 6a/6b --

/// Summary of an electrical repair analysis.
pub struct Fig6 {
    /// Free chips evaluated.
    pub candidates: usize,
    /// Congestion-free repair options found (paper: 0).
    pub clean_options: usize,
    /// Mean foreign chips a repair would forward through.
    pub mean_foreign: f64,
}

/// Fig 6a: single-rack electrical repair.
pub fn run_fig6a() -> Fig6 {
    let s = fig6a();
    let a = analyze(&s.occ, &s.victim, s.failed);
    summarize_fig6(&a)
}

/// Fig 6b: cross-rack electrical repair.
pub fn run_fig6b() -> Fig6 {
    let s = fig6b();
    let a = analyze(s.cluster.occupancy(), &s.victim, s.failed);
    summarize_fig6(&a)
}

fn summarize_fig6(a: &resilience::ElectricalRepairAnalysis) -> Fig6 {
    let mean_foreign = a
        .attempts
        .iter()
        .map(|x| x.foreign_traversals.len() as f64)
        .sum::<f64>()
        / a.attempts.len().max(1) as f64;
    Fig6 {
        candidates: a.attempts.len(),
        clean_options: a.clean_options,
        mean_foreign,
    }
}

// ----------------------------------------------------------------- Fig 7 --

/// Fig 7: optical repair outcome plus the blast-radius comparison.
pub struct Fig7 {
    /// Circuits established for the repair.
    pub circuits: usize,
    /// Setup latency (one parallel reconfiguration).
    pub setup: SimDuration,
    /// Blast radius of the TPUv4 rack-migration baseline, chips.
    pub blast_migration: usize,
    /// Blast radius of the optical repair, chips.
    pub blast_optical: usize,
}

/// Run the Fig 7 experiment on the Fig 6a scenario.
pub fn run_fig7() -> Fig7 {
    let scenario = fig6a();
    let mut rack = PhotonicRack::new(1);
    let report = optical_repair(
        &mut rack,
        &scenario.victim,
        scenario.failed,
        scenario.free[0],
    )
    .expect("optical repair succeeds");
    let cluster = Cluster::tpu_v4(2);
    let migration = blast_radius(
        RepairPolicy::RackMigration,
        &cluster,
        &scenario.victim,
        scenario.failed,
        0,
    );
    let optical = blast_radius(
        RepairPolicy::OpticalCircuits,
        &cluster,
        &scenario.victim,
        scenario.failed,
        0,
    );
    Fig7 {
        circuits: report.circuits,
        setup: report.setup,
        blast_migration: migration.chips_disturbed,
        blast_optical: optical.chips_disturbed,
    }
}

// ------------------------------------------------------------ Capability --

/// §3's capability summary, validated end-to-end on a full wafer.
pub struct Capability {
    /// Tiles on the wafer.
    pub tiles: usize,
    /// Lasers (λ) per tile.
    pub lambdas_per_tile: usize,
    /// Per-λ rate, Gb/s.
    pub gbps_per_lambda: f64,
    /// Waveguide capacity per tile edge.
    pub waveguides_per_edge: u32,
    /// Measured reconfiguration latency, µs.
    pub reconfig_us: f64,
    /// Crossing loss, dB.
    pub crossing_db: f64,
    /// Margin of the worst-case (corner-to-corner, 16-λ) circuit, dB.
    pub worst_margin_db: f64,
    /// Aggregate bandwidth of one tile's egress, Gb/s.
    pub tile_egress_gbps: f64,
}

/// Build a full 32-tile wafer and verify every §3 capability claim.
pub fn run_capability() -> Capability {
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    let rep = wafer
        .establish(CircuitRequest::new(
            TileCoord::new(0, 0),
            TileCoord::new(3, 7),
            16,
        ))
        .expect("corner-to-corner at full bandwidth");
    let cfg = wafer.config();
    Capability {
        tiles: cfg.tiles(),
        lambdas_per_tile: cfg.wdm.channels,
        gbps_per_lambda: cfg.wdm.rate.0,
        waveguides_per_edge: cfg.waveguides_per_edge,
        reconfig_us: rep.setup.as_micros_f64(),
        crossing_db: phy::CROSSING_LOSS_DB,
        worst_margin_db: rep.link.margin.0,
        tile_egress_gbps: cfg.wdm.aggregate_rate().0,
    }
}

// -------------------------------------------------------------- Ablation --

/// One point of the buffer-size crossover sweep (ablation a).
pub struct CrossoverPoint {
    /// Buffer size, bytes.
    pub n_bytes: f64,
    /// Electrical completion time.
    pub electrical: SimDuration,
    /// Optical completion time (incl. the 3.7 µs reconfiguration).
    pub optical: SimDuration,
    /// True when optics wins.
    pub optics_wins: bool,
}

/// Ablation (a): sweep buffer size to find where redirection starts paying
/// for its reconfiguration latency (§5's "appropriate trade-off between
/// optical reconfiguration delay and end-to-end performance").
pub fn run_crossover(sizes: &[f64]) -> Vec<CrossoverPoint> {
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let members = snake_order(&slice);
    sizes
        .iter()
        .map(|&n| {
            let e = execute(
                &ring_reduce_scatter(&members, n, Mode::Electrical, RACK, &torus, &params),
                &params,
            )
            .total;
            let o = execute(
                &ring_reduce_scatter(&members, n, Mode::OpticalFullSteer, RACK, &torus, &params),
                &params,
            )
            .total;
            CrossoverPoint {
                n_bytes: n,
                electrical: e,
                optical: o,
                optics_wins: o < e,
            }
        })
        .collect()
}

/// Ablation (d): the subdivided simultaneous baseline vs redirection on a
/// full-rack slice. Returns (subdivided β bytes, redirection β bytes,
/// naive-electrical β bytes).
pub fn run_subdivided(n_bytes: f64) -> (f64, f64, f64) {
    let sub = subdivided_cost(&[4, 4, 4], n_bytes, RACK);
    let redirect = bucket_reduce_scatter_cost(&[4, 4, 4], n_bytes, Mode::OpticalFullSteer, RACK);
    let naive = bucket_reduce_scatter_cost(&[4, 4, 4], n_bytes, Mode::Electrical, RACK);
    (sub.beta_bytes, redirect.beta_bytes, naive.beta_bytes)
}

/// One point of the controller-scaling sweep (ablation b).
pub struct ControllerPoint {
    /// Concurrent circuit requests.
    pub requests: usize,
    /// Centralized mean setup latency.
    pub central_mean: SimDuration,
    /// Decentralized mean setup latency.
    pub decentral_mean: SimDuration,
}

/// Ablation (b): centralized vs decentralized control-plane latency as the
/// request batch grows (§5's scalability argument).
pub fn run_controllers(batch_sizes: &[usize]) -> Vec<ControllerPoint> {
    let params = route::ControlParams::default();
    batch_sizes
        .iter()
        .map(|&n| {
            let requests: Vec<route::controllers::Request> = (0..n)
                .map(|i| ((0, (i % 8) as u8), (3, ((i + 3) % 8) as u8)))
                .collect();
            let c = route::central_setup(4, 8, &requests, &params);
            let d = route::decentralized_setup(4, 8, &requests, 1000, &params);
            ControllerPoint {
                requests: n,
                central_mean: c.mean_latency,
                decentral_mean: d.mean_latency,
            }
        })
        .collect()
}

/// One point of the MoE warm-circuit sweep (ablation of §5's dynamic
/// traffic challenge).
pub struct MoePoint {
    /// Live-circuit cache size.
    pub cache: usize,
    /// Fraction of time lost to reconfiguration.
    pub reconfig_fraction: f64,
    /// Circuit cache hit rate.
    pub hit_rate: f64,
}

/// Sweep the warm-circuit budget for MoE inference.
pub fn run_moe_sweep(caches: &[usize]) -> Vec<MoePoint> {
    caches
        .iter()
        .map(|&cache| {
            let r = route::run_moe(
                &route::MoeParams {
                    max_live_circuits: cache,
                    batches: 20_000,
                    ..route::MoeParams::default()
                },
                0xA03,
            );
            MoePoint {
                cache,
                reconfig_fraction: r.reconfig_fraction,
                hit_rate: r.hit_rate,
            }
        })
        .collect()
}

/// One point of the fiber-coverage sweep (ablation c).
pub struct FiberPoint {
    /// Fibers per inter-server bundle.
    pub fibers_per_bundle: u32,
    /// Concurrent failures repaired before the fiber plant exhausts.
    pub repairs_covered: usize,
}

/// Ablation (c): how much fiber the rack needs per failure coverage level.
/// Repairs are repeated optical splices of the Fig 6a failure against
/// distinct spare chips until any resource runs out.
pub fn run_fiber_coverage(bundle_sizes: &[u32]) -> Vec<FiberPoint> {
    bundle_sizes
        .iter()
        .map(|&cap| {
            let scenario = fig6a();
            let mut rack = PhotonicRack::with_fiber_capacity(1, cap);
            let mut covered = 0;
            for &spare in &scenario.free {
                match optical_repair(&mut rack, &scenario.victim, scenario.failed, spare) {
                    Ok(_) => covered += 1,
                    Err(_) => break,
                }
            }
            FiberPoint {
                fibers_per_bundle: cap,
                repairs_covered: covered,
            }
        })
        .collect()
}

/// One point of the all-to-all sweep (ablation f).
pub struct AllToAllPoint {
    /// Buffer per chip, bytes.
    pub n_bytes: f64,
    /// Electrical completion (multi-hop routes, congestion charged).
    pub electrical: SimDuration,
    /// Electrical congested rounds.
    pub congested_rounds: usize,
    /// Optical completion (clean matchings, r per round).
    pub optical: SimDuration,
    /// True when optics wins.
    pub optics_wins: bool,
}

/// Ablation (f): the §5 hard case — rotation all-to-all on Slice-1 under
/// both interconnects, across buffer sizes.
pub fn run_all_to_all(sizes: &[f64]) -> Vec<AllToAllPoint> {
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let members = snake_order(&slice);
    sizes
        .iter()
        .map(|&n| {
            let es = collectives::all_to_all(&members, n, Mode::Electrical, RACK, &torus, &params);
            let e = execute(&es, &params);
            let os =
                collectives::all_to_all(&members, n, Mode::OpticalFullSteer, RACK, &torus, &params);
            let o = execute(&os, &params);
            AllToAllPoint {
                n_bytes: n,
                electrical: e.total,
                congested_rounds: e.congested_rounds,
                optical: o.total,
                optics_wins: o.total < e.total,
            }
        })
        .collect()
}

/// Ablation (g): the multi-tenant placement simulation — time-averaged
/// stranded bandwidth over a realistic arrival mix.
pub fn run_placement(jobs: usize, seed: u64) -> workloads::PlacementReport {
    let stream = workloads::generate(jobs, &workloads::ArrivalParams::default(), seed);
    workloads::simulate(RACK, &stream)
}

/// One row of the host-stack policy comparison (ablation h).
pub struct HostPolicyRow {
    /// Policy label.
    pub label: &'static str,
    /// Mean message latency, seconds.
    pub mean_latency_s: f64,
    /// Circuit re-points performed.
    pub reconfigs: u64,
    /// Delivered goodput, Gb/s.
    pub goodput_gbps: f64,
}

/// Ablation (h): circuit-switched host stack policies (§5's "new host
/// networking software stacks") over a scattered small-message workload.
pub fn run_host_policies(messages: usize, msg_bytes: u64, peers: u32) -> Vec<HostPolicyRow> {
    use hostnet::{simulate, CircuitPolicy, HostParams, Message, PeerId};
    let params = HostParams::default();
    let workload: Vec<Message> = (0..messages)
        .map(|i| Message {
            dst: PeerId(i as u32 % peers),
            bytes: msg_bytes,
            enqueued: desim::SimTime::from_ps(i as u64 * 200_000), // 200 ns apart
        })
        .collect();
    let policies = [
        ("per-message", CircuitPolicy::PerMessage),
        ("hold-open", CircuitPolicy::HoldOpen),
        (
            "batch 256kB/50us",
            CircuitPolicy::Batch {
                threshold_bytes: 256 * 1024,
                max_delay: desim::SimDuration::from_us(50),
            },
        ),
    ];
    policies
        .iter()
        .map(|&(label, policy)| {
            let r = simulate(policy, params, &workload);
            HostPolicyRow {
                label,
                mean_latency_s: r.latency.mean(),
                reconfigs: r.reconfigs,
                goodput_gbps: r.goodput_gbps,
            }
        })
        .collect()
}

/// Ablation (i): recovery latency after a bus fault — 1+1 protected
/// failover vs reactive re-route (controller decision + establish).
pub struct RecoveryRow {
    /// Scheme label.
    pub label: &'static str,
    /// Time from fault to restored traffic.
    pub recovery: SimDuration,
}

/// Compare protection schemes on a loaded wafer.
pub fn run_recovery() -> Vec<RecoveryRow> {
    use route::{establish_protected, ControlParams};
    let mut wafer = Wafer::new(WaferConfig::lightpath_32());
    let mut pair = establish_protected(&mut wafer, TileCoord::new(0, 0), TileCoord::new(3, 5), 4)
        .expect("protected pair");
    // 1+1 failover: one reconfiguration, no control-plane round trip.
    let failover = pair.failover();

    // Reactive re-route: the centralized controller must notice, decide
    // (global scan), and then establish a fresh circuit (r).
    let ctrl = ControlParams::default();
    let decision = ctrl.decision_base + ctrl.decision_per_edge * 52; // 4×8 grid edges
    let reroute = decision + SimDuration::from_secs_f64(phy::thermal::RECONFIG_LATENCY_S);

    vec![
        RecoveryRow {
            label: "1+1 protected failover",
            recovery: failover,
        },
        RecoveryRow {
            label: "reactive re-route (central)",
            recovery: reroute,
        },
    ]
}

/// An extra Fig 5c row: a multi-rack slice composed via the OCS spans full
/// extents in every dimension and recovers full electrical utilization —
/// the paper's observation that only multi-rack slices avoid stranding.
pub fn run_multirack_utilization(racks: usize) -> (f64, f64) {
    let cluster = Cluster::tpu_v4(racks);
    let shape = cluster.occupancy().shape();
    let slice = Slice::new(1, Coord3::new(0, 0, 0), shape);
    (
        slice.utilization_electrical(shape),
        slice.utilization_optical(),
    )
}

/// E6 extension: the measured co-ring slowdown an electrical repair causes
/// (max-min fair flows), vs 1.0 for optical circuits.
pub struct InterferenceRow {
    /// Repair volume streamed to the spare, bytes.
    pub repair_bytes: f64,
    /// Surviving-ring slowdown under electrical repair.
    pub electrical_slowdown: f64,
    /// Slowdown under optical repair (dedicated circuits).
    pub optical_slowdown: f64,
}

/// Sweep repair volumes on the Fig 6a scenario.
pub fn run_interference(repair_sizes: &[f64]) -> Vec<InterferenceRow> {
    let scenario = fig6a();
    let spare = Coord3::new(3, 3, 3);
    repair_sizes
        .iter()
        .map(|&b| {
            let r = resilience::measure_interference(&scenario, spare, 1e9, b);
            InterferenceRow {
                repair_bytes: b,
                electrical_slowdown: r.electrical_slowdown,
                optical_slowdown: r.optical_slowdown,
            }
        })
        .collect()
}

/// Ablation (j): drift vs recalibration — the holdover trade-off.
pub struct RecalRow {
    /// Recalibration interval, seconds.
    pub interval_s: f64,
    /// Link downtime fraction spent recalibrating.
    pub downtime: f64,
    /// Worst-case drift penalty before recalibration, dB.
    pub penalty_db: f64,
}

/// Sweep recalibration intervals for the default drift model.
pub fn run_recal_tradeoff() -> Vec<RecalRow> {
    let drift = phy::DriftModel {
        sigma_rad_per_sqrt_s: 0.05,
    };
    let intervals: Vec<SimDuration> = (0..8)
        .map(|i| SimDuration::from_micros_f64(100.0 * 10f64.powi(i)))
        .collect();
    phy::recal_tradeoff(&drift, &intervals)
        .into_iter()
        .map(|p| RecalRow {
            interval_s: p.interval.as_secs_f64(),
            downtime: p.downtime_fraction,
            penalty_db: p.worst_penalty_db,
        })
        .collect()
}

/// Ablation (k): 30-day availability campaign under each repair policy.
pub struct CampaignRow {
    /// Policy label.
    pub label: &'static str,
    /// Failures over the horizon.
    pub failures: u32,
    /// Chip-hours of disturbed work.
    pub disturbed_chip_hours: f64,
    /// Availability (1 − disturbed / capacity).
    pub availability: f64,
}

/// Run the failure campaign for migration vs optical repair.
pub fn run_campaign_comparison() -> Vec<CampaignRow> {
    let params = resilience::CampaignParams::default();
    [
        ("rack migration", resilience::RepairPolicy::RackMigration),
        (
            "optical circuits",
            resilience::RepairPolicy::OpticalCircuits,
        ),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let r = resilience::run_campaign(policy, &params);
        CampaignRow {
            label,
            failures: r.failures,
            disturbed_chip_hours: r.disturbed_chip_seconds / 3600.0,
            availability: r.availability,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_reproduces_3_7us() {
        let r = run_fig3a();
        assert!(
            (r.t99_s * 1e6 - 3.7).abs() < 0.1,
            "t99 {} µs",
            r.t99_s * 1e6
        );
        // Fitted τ within the paper's own (wide) fit band: 1.2 ± 0.94 µs.
        assert!(
            r.fitted_tau_s > 0.26e-6 && r.fitted_tau_s < 2.14e-6,
            "tau {}",
            r.fitted_tau_s
        );
    }

    #[test]
    fn fig3b_distribution_is_low_loss() {
        let r = run_fig3b(20_000);
        assert!((0.15..0.35).contains(&r.mean_db), "mean {}", r.mean_db);
        assert!(r.p95_db < 0.8, "p95 {}", r.p95_db);
        assert_eq!(r.histogram.underflow(), 0);
    }

    #[test]
    fn table1_shows_3x() {
        let rows = run_table1(8e9);
        assert_eq!(rows[0].alpha_steps, 7);
        assert_eq!(rows[1].reconfigs, 1);
        let ratio = rows[0].beta_bytes / rows[1].beta_bytes;
        assert!((ratio - 3.0).abs() < 1e-9);
        // Executor agrees with the closed form up to per-round picosecond
        // rounding.
        for r in &rows {
            let diff = r.measured.as_secs_f64() - r.predicted.as_secs_f64();
            assert!(diff.abs() < 1e-9, "{}: {diff}", r.label);
        }
    }

    #[test]
    fn table2_shows_1_5x() {
        let rows = run_table2(16e9);
        let ratio = rows[0].beta_bytes / rows[1].beta_bytes;
        assert!((ratio - 1.5).abs() < 1e-9);
        assert_eq!(rows[1].reconfigs, 2);
    }

    #[test]
    fn fig5c_matches_paper_fractions() {
        let rows = run_fig5c();
        assert_eq!(rows.len(), 4);
        assert!((rows[0].electrical - 1.0 / 3.0).abs() < 1e-12); // Slice-1
        assert!((rows[1].electrical - 1.0 / 3.0).abs() < 1e-12); // Slice-2
        assert!((rows[2].electrical - 2.0 / 3.0).abs() < 1e-12); // Slice-3
        assert!((rows[3].electrical - 2.0 / 3.0).abs() < 1e-12); // Slice-4
        assert!(rows.iter().all(|r| r.optical == 1.0));
    }

    #[test]
    fn fig6_experiments_find_zero_clean_options() {
        assert_eq!(run_fig6a().clean_options, 0);
        assert_eq!(run_fig6b().clean_options, 0);
    }

    #[test]
    fn fig7_shrinks_blast_radius_16x() {
        let r = run_fig7();
        assert_eq!(r.blast_migration / r.blast_optical, 16);
        assert!((r.setup.as_micros_f64() - 3.7).abs() < 1e-9);
        assert_eq!(r.circuits, 8);
    }

    #[test]
    fn capability_claims_hold() {
        let c = run_capability();
        assert_eq!(c.tiles, 32);
        assert_eq!(c.lambdas_per_tile, 16);
        assert_eq!(c.gbps_per_lambda, 224.0);
        assert_eq!(c.waveguides_per_edge, 10_000);
        assert!((c.reconfig_us - 3.7).abs() < 1e-9);
        assert_eq!(c.crossing_db, 0.25);
        assert!(c.worst_margin_db > 0.0);
        assert_eq!(c.tile_egress_gbps, 3584.0);
    }

    #[test]
    fn crossover_exists_and_is_monotone() {
        let sizes: Vec<f64> = (0..10).map(|i| 10f64.powi(i + 2)).collect();
        let points = run_crossover(&sizes);
        // Small buffers: electrical wins; large: optics wins.
        assert!(!points.first().unwrap().optics_wins);
        assert!(points.last().unwrap().optics_wins);
        // Once optics wins it keeps winning (monotone crossover).
        let first_win = points.iter().position(|p| p.optics_wins).unwrap();
        assert!(points[first_win..].iter().all(|p| p.optics_wins));
    }

    #[test]
    fn all_to_all_ablation_shapes() {
        let pts = run_all_to_all(&[1e4, 1e9, 1e10]);
        assert!(!pts[0].optics_wins, "10 kB: reconfig storm dominates");
        assert!(pts[1].optics_wins, "1 GB: bandwidth + clean matchings win");
        assert!(pts[2].optics_wins, "10 GB: optics keeps winning");
        assert!(
            pts[1].congested_rounds > 0,
            "electrical all-to-all congests"
        );
    }

    #[test]
    fn placement_strands_electrical_bandwidth() {
        let r = run_placement(300, 0xF1C);
        assert!(r.accepted > 0);
        assert!(r.mean_optical_utilization > r.mean_electrical_utilization);
    }

    #[test]
    fn host_policy_ordering() {
        let rows = run_host_policies(500, 4_096, 8);
        assert_eq!(rows.len(), 3, "per-message, hold-open, batching");
        let per = &rows[0];
        let batch = &rows[2];
        assert!(batch.reconfigs < per.reconfigs / 4, "batching amortizes r");
        assert!(batch.goodput_gbps > per.goodput_gbps);
    }

    #[test]
    fn recovery_failover_is_much_faster() {
        let rows = run_recovery();
        assert!(rows[0].recovery < rows[1].recovery);
        assert!((rows[0].recovery.as_micros_f64() - 3.7).abs() < 1e-9);
    }

    #[test]
    fn multirack_slices_recover_full_electrical_utilization() {
        let (e, o) = run_multirack_utilization(4);
        assert_eq!(e, 1.0, "full-extent multi-rack slice");
        assert_eq!(o, 1.0);
    }

    #[test]
    fn interference_grows_with_repair_volume() {
        let rows = run_interference(&[1e8, 1e9, 8e9]);
        assert!(rows[0].electrical_slowdown >= 1.0);
        assert!(rows[2].electrical_slowdown > rows[0].electrical_slowdown);
        assert!(rows.iter().all(|r| r.optical_slowdown == 1.0));
    }

    #[test]
    fn recal_tradeoff_is_monotone_in_both_axes() {
        let rows = run_recal_tradeoff();
        for w in rows.windows(2) {
            assert!(w[1].downtime <= w[0].downtime + 1e-15);
            assert!(w[1].penalty_db >= w[0].penalty_db - 1e-15);
        }
    }

    #[test]
    fn campaign_favors_optical_by_orders_of_magnitude() {
        let rows = run_campaign_comparison();
        assert_eq!(rows[0].failures, rows[1].failures);
        assert!(rows[1].availability > rows[0].availability);
        assert!(rows[1].disturbed_chip_hours < rows[0].disturbed_chip_hours / 1e5);
    }

    #[test]
    fn subdivided_matches_redirection() {
        let (sub, redirect, naive) = run_subdivided(48e9);
        assert!((sub - redirect).abs() < 1e-3);
        assert!((naive / sub - 3.0).abs() < 1e-9);
    }
}
