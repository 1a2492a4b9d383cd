//! End-to-end reproduction checks: every experiment in the harness must
//! regenerate the paper's qualitative result — who wins, by what factor,
//! where the crossover falls.

use bench::*;

#[test]
fn fig3a_reconfiguration_is_3_7us() {
    let r = run_fig3a();
    assert!((r.t99_s * 1e6 - 3.7).abs() < 0.1);
    // The paper's fit: τ ≈ 1.2 µs with a ±0.94 µs error bar.
    assert!((0.26e-6..2.14e-6).contains(&r.fitted_tau_s));
    // The trace is monotone non-decreasing and normalized.
    let pts = r.trace.points();
    for w in pts.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-12);
    }
    assert!(pts.last().unwrap().1 > 0.999);
}

#[test]
fn fig3b_stitch_losses_are_low() {
    let r = run_fig3b(50_000);
    assert!((0.15..0.35).contains(&r.mean_db), "mean {}", r.mean_db);
    assert!(r.p95_db < 0.8);
    // Low-loss enough that a 10-stitch path still closes the budget:
    // 10 × p95 < the ~21 dB headroom.
    assert!(10.0 * r.p95_db < 21.0);
}

#[test]
fn table1_electrical_pays_3x_beta() {
    for n in [1e8, 8e9, 1e11] {
        let rows = run_table1(n);
        let ratio = rows[0].beta_bytes / rows[1].beta_bytes;
        assert!((ratio - 3.0).abs() < 1e-9, "N={n}: ratio {ratio}");
        assert_eq!(rows[0].alpha_steps, 7);
        assert_eq!(rows[1].alpha_steps, 7);
        assert_eq!(rows[0].reconfigs, 0);
        assert_eq!(rows[1].reconfigs, 1);
        // Optics hits the β lower bound.
        assert!((rows[1].beta_bytes - (n - n / 8.0)).abs() < 1e-3);
    }
}

#[test]
fn table2_electrical_pays_1_5x_beta() {
    for n in [1e8, 16e9] {
        let rows = run_table2(n);
        let ratio = rows[0].beta_bytes / rows[1].beta_bytes;
        assert!((ratio - 1.5).abs() < 1e-9, "N={n}: ratio {ratio}");
        assert_eq!(rows[0].alpha_steps, 6, "3 steps per stage, 2 stages");
        assert_eq!(rows[1].reconfigs, 2, "r per stage");
    }
}

#[test]
fn fig5c_utilization_pattern() {
    let rows = run_fig5c();
    // Slices 1 and 2: 66 % of bandwidth stranded electrically.
    assert!((rows[0].electrical - 1.0 / 3.0).abs() < 1e-12);
    assert!((rows[1].electrical - 1.0 / 3.0).abs() < 1e-12);
    // Slices 3 and 4: 33 % stranded.
    assert!((rows[2].electrical - 2.0 / 3.0).abs() < 1e-12);
    assert!((rows[3].electrical - 2.0 / 3.0).abs() < 1e-12);
    // Optics recovers everything for every slice.
    assert!(rows.iter().all(|r| r.optical == 1.0));
}

#[test]
fn fig6_no_clean_electrical_repairs() {
    let a = run_fig6a();
    assert_eq!(a.clean_options, 0);
    assert_eq!(a.candidates, 16);
    assert!(a.mean_foreign >= 1.0);
    let b = run_fig6b();
    assert_eq!(b.clean_options, 0);
    assert_eq!(b.candidates, 4);
}

#[test]
fn fig7_blast_radius_shrinks_to_one_server() {
    let r = run_fig7();
    assert_eq!(r.blast_optical, 4, "one 4-chip server");
    assert_eq!(r.blast_migration, 64, "a whole rack");
    assert!((r.setup.as_micros_f64() - 3.7).abs() < 1e-9);
}

#[test]
fn capability_summary_matches_section3() {
    let c = run_capability();
    assert_eq!(
        (c.tiles, c.lambdas_per_tile, c.waveguides_per_edge),
        (32, 16, 10_000)
    );
    assert_eq!(c.gbps_per_lambda, 224.0);
    assert!((c.reconfig_us - 3.7).abs() < 1e-9);
    assert_eq!(c.crossing_db, 0.25);
    assert!(c.worst_margin_db > 0.0, "worst-case circuit closes");
}

#[test]
fn crossover_lands_between_100kb_and_10mb() {
    // With B = 448 GB/s, α = 1 µs, r = 3.7 µs the break-even buffer for
    // 3× bandwidth vs one extra reconfiguration sits near N ≈ 1 MB.
    let sizes: Vec<f64> = (2..=9).map(|i| 10f64.powi(i)).collect();
    let pts = run_crossover(&sizes);
    let first_win = pts
        .iter()
        .position(|p| p.optics_wins)
        .expect("optics wins eventually");
    let n = pts[first_win].n_bytes;
    assert!(
        (1e5..=1e7).contains(&n),
        "crossover at {n:.0} bytes, expected ~1 MB"
    );
}

#[test]
fn controllers_diverge_with_scale() {
    let pts = run_controllers(&[1, 64]);
    // At batch size 1 the central controller is close; at 64 it is far
    // behind the flat decentralized latency.
    let slow_down = pts[1].central_mean.as_secs_f64() / pts[0].central_mean.as_secs_f64();
    assert!(slow_down > 10.0, "central serialization: {slow_down}");
    let flat = pts[1].decentral_mean.as_secs_f64() / pts[0].decentral_mean.as_secs_f64();
    assert!(flat < 2.0, "decentralized stays flat: {flat}");
    // Hop-local decisions never lose to the central controller, from a
    // small batch up to the largest one EXPERIMENTS.md reports.
    for p in run_controllers(&[16, 256]) {
        assert!(
            p.decentral_mean <= p.central_mean,
            "{} requests: decentral {:?} > central {:?}",
            p.requests,
            p.decentral_mean,
            p.central_mean
        );
    }
}

#[test]
fn fiber_coverage_grows_with_bundles() {
    let pts = run_fiber_coverage(&[1, 4, 16]);
    assert!(pts[0].repairs_covered <= pts[1].repairs_covered);
    assert!(pts[1].repairs_covered <= pts[2].repairs_covered);
    assert!(pts[2].repairs_covered >= 1);
}

#[test]
fn subdivided_baseline_matches_redirection_exactly() {
    for n in [1e6, 48e9] {
        let (sub, redirect, naive) = run_subdivided(n);
        assert!((sub - redirect).abs() < 1e-6 * n);
        assert!((naive / sub - 3.0).abs() < 1e-9);
    }
}

#[test]
fn moe_cache_sweep_is_monotone() {
    let pts = run_moe_sweep(&[2, 4, 8, 16]);
    for w in pts.windows(2) {
        assert!(w[1].hit_rate >= w[0].hit_rate - 1e-9);
        assert!(w[1].reconfig_fraction <= w[0].reconfig_fraction + 1e-9);
    }
    // With all experts warm, only the cold-start reconfigurations remain:
    // ≤16 events over 20k batches.
    assert!(pts.last().unwrap().reconfig_fraction < 1e-4);
}
