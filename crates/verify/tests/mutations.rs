//! Seeded-violation tests: every rule in the catalog is proven to fire.
//!
//! Each test starts from a known-good artifact (a compiled collective
//! schedule, a wafer with admitted circuits, a repaired photonic rack),
//! applies one targeted mutation that breaks exactly the invariant under
//! test, and asserts the verifier produces a structured diagnostic with
//! the right rule id and location. The pre-mutation artifact is always
//! checked clean first, so a firing rule is attributable to the mutation.

use collectives::cost::CostParams;
use collectives::{all_to_all, ring_reduce_scatter, snake_order, Mode, Schedule, Transfer};
use lightpath::{CircuitRequest, Path, TileCoord, Wafer, WaferConfig};
use phy::link_budget::LinkReport;
use phy::units::{Db, Dbm, Gbps};
use phy::wdm::LambdaSet;
use resilience::{chip_to_tile, fig6a, optical_repair, PhotonicRack};
use std::collections::BTreeMap;
use topo::{Coord3, Dim, Shape3, Slice, Torus};
use verify::{
    check_blast_radius, check_fabric, check_repair_fabric, check_schedule, check_wafer,
    check_wafer_view, endpoint_claims, CircuitView, CollectiveSpec, Location, RuleId,
    ScheduleContext, TileOwnership, WaferView,
};

const RACK: Shape3 = Shape3::rack_4x4x4();
const N: f64 = (1 << 20) as f64; // 1 MiB per chip

/// A congestion-free electrical ring ReduceScatter on Slice-1 (p = 8),
/// with the context that makes every schedule rule applicable.
fn ring_fixture() -> (Schedule, ScheduleContext) {
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
    let members = snake_order(&slice);
    let sched = ring_reduce_scatter(&members, N, Mode::Electrical, RACK, &torus, &params);
    let ctx =
        ScheduleContext::new(RACK, members.clone()).expecting(CollectiveSpec::ReduceScatter {
            n_bytes: N,
            p: members.len(),
        });
    (sched, ctx)
}

#[test]
fn ring_fixture_is_clean() {
    let (sched, ctx) = ring_fixture();
    let report = check_schedule(&sched, &ctx);
    assert!(
        report.is_clean(),
        "expected clean, got:\n{}",
        report.render()
    );
}

// ---------------------------------------------------------------- SCH001 --

#[test]
fn sch001_fires_on_duplicated_path() {
    let (mut sched, ctx) = ring_fixture();
    // Two transfers now cross the first transfer's first link.
    let stolen = sched.rounds[0].transfers[0].path.clone();
    sched.rounds[0].transfers[1].path = stolen.clone();
    let report = check_schedule(&sched, &ctx);
    let hits = report.by_rule(RuleId::Sch001);
    assert!(!hits.is_empty(), "SCH001 must fire:\n{}", report.render());
    match &hits[0].location {
        Location::Link { round, link } => {
            assert_eq!(*round, 0);
            assert!(
                stolen.contains(link),
                "diagnostic points into the shared path"
            );
        }
        other => panic!("SCH001 should point at a link, got {other:?}"),
    }
    assert!(hits[0].message.contains("2 simultaneous transfers"));
}

#[test]
fn sch001_flags_electrical_all_to_all_as_designed() {
    // §5's hard case: the rotation all-to-all congests the torus. The rule
    // must agree with the schedule's own predicate.
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let members: Vec<Coord3> = RACK.coords().collect();
    let sched = all_to_all(&members, N, Mode::Electrical, RACK, &torus, &params);
    assert!(!sched.is_congestion_free());
    let report = verify::check_oversubscription(&sched);
    assert!(report.has(RuleId::Sch001));
    // Its bytes still conserve although its links congest.
    let ctx = ScheduleContext::new(RACK, members.clone()).expecting(CollectiveSpec::AllToAll {
        n_bytes: N,
        p: members.len(),
    });
    let report = verify::check_byte_conservation(&sched, &ctx);
    assert!(report.is_clean(), "{}", report.render());
    // Optically the same collective is contention-free by construction,
    // and it passes every schedule rule.
    let optical = all_to_all(&members, N, Mode::OpticalFullSteer, RACK, &torus, &params);
    let report = check_schedule(&optical, &ctx);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------- SCH002 --

#[test]
fn sch002_fires_on_dropped_round() {
    let (mut sched, ctx) = ring_fixture();
    sched.rounds.pop();
    let report = check_schedule(&sched, &ctx);
    let hits = report.by_rule(RuleId::Sch002);
    // Every participant now under-sends.
    assert_eq!(hits.len(), ctx.participants.len(), "{}", report.render());
    assert!(matches!(hits[0].location, Location::Chip(_)));
    assert!(hits[0].message.contains("ReduceScatter"));
}

#[test]
fn sch002_fires_on_stranger_sender() {
    let (mut sched, ctx) = ring_fixture();
    let stranger = Coord3::new(0, 3, 3); // not in the 4×2×1 slice
    sched.rounds[0].transfers.push(Transfer {
        from: stranger,
        to: Coord3::new(0, 0, 0),
        bytes: 1.0,
        path: Vec::new(),
    });
    let report = verify::check_byte_conservation(&sched, &ctx);
    let hits = report.by_rule(RuleId::Sch002);
    assert!(
        hits.iter()
            .any(|d| d.location == Location::Chip(stranger)
                && d.message.contains("not a participant"))
    );
}

// ---------------------------------------------------------------- SCH003 --

#[test]
fn sch003_fires_on_self_loop_bad_bytes_and_stray_chip() {
    let (mut sched, ctx) = ring_fixture();
    let from = sched.rounds[0].transfers[0].from;
    sched.rounds[0].transfers[0].to = from;
    sched.rounds[0].transfers[0].path.clear();
    sched.rounds[1].transfers[0].bytes = -4.0;
    sched.rounds[2].transfers[0].to = Coord3::new(7, 7, 7);
    sched.rounds[2].transfers[0].path.clear();
    let report = verify::check_physical_transfers(&sched, &ctx);
    let hits = report.by_rule(RuleId::Sch003);
    assert!(hits.iter().any(|d| {
        d.location == Location::Transfer { round: 0, index: 0 } && d.message.contains("self-loop")
    }));
    assert!(hits.iter().any(|d| {
        d.location == Location::Transfer { round: 1, index: 0 } && d.message.contains("-4")
    }));
    assert!(hits.iter().any(|d| {
        d.location == Location::Transfer { round: 2, index: 0 } && d.message.contains("outside the")
    }));
}

#[test]
fn sch003_fires_on_nonpositive_round_bandwidth() {
    let (mut sched, ctx) = ring_fixture();
    sched.rounds[0].ring_gbps = 0.0;
    let report = verify::check_physical_transfers(&sched, &ctx);
    assert!(report
        .by_rule(RuleId::Sch003)
        .iter()
        .any(|d| d.location == Location::Round(0)));
}

// ---------------------------------------------------------------- SCH004 --

#[test]
fn sch004_fires_on_torn_hop_chain() {
    let (mut sched, ctx) = ring_fixture();
    let torus = Torus::new(RACK);
    // Replace a transfer with a deliberately torn two-hop route: keep the
    // endpoints three hops apart but delete the middle hop.
    let from = Coord3::new(0, 0, 0);
    let to = Coord3::new(2, 0, 0);
    let mut path = torus.route(from, to);
    assert!(path.len() >= 2);
    path.remove(1);
    sched.rounds[0].transfers[0] = Transfer {
        from,
        to,
        bytes: 1.0,
        path,
    };
    let report = verify::check_path_continuity(&sched, &ctx);
    let hits = report.by_rule(RuleId::Sch004);
    assert!(
        hits.iter()
            .any(|d| d.location == Location::Transfer { round: 0, index: 0 }),
        "{}",
        report.render()
    );
}

#[test]
fn sch004_fires_when_path_misses_destination() {
    let (mut sched, ctx) = ring_fixture();
    // Re-address a transfer without rerouting it.
    let t = &mut sched.rounds[0].transfers[0];
    assert!(!t.path.is_empty(), "electrical fixture has hop paths");
    t.to = t.to.next_in(Dim::Z, RACK);
    let report = verify::check_path_continuity(&sched, &ctx);
    assert!(report
        .by_rule(RuleId::Sch004)
        .iter()
        .any(|d| d.message.contains("delivers to")));
}

// ------------------------------------------------------- circuit fixtures --

/// A link report that closes comfortably.
fn good_link() -> LinkReport {
    LinkReport {
        received: Dbm(-8.0),
        sensitivity: Dbm(-17.0),
        margin: Db(9.0),
        ber: 1e-15,
        rate: Gbps(224.0),
    }
}

fn ckt(id: &str, tiles: &[(u8, u8)], lambdas: LambdaSet) -> CircuitView {
    let path = Path::from_tiles(tiles.iter().map(|&(r, c)| TileCoord::new(r, c)).collect())
        .expect("contiguous test path");
    CircuitView {
        id: id.into(),
        path,
        lambdas,
        claimed_src: true,
        claimed_dst: true,
        link: good_link(),
    }
}

/// A view whose ledger is recomputed from its circuits (self-consistent).
fn view_of(circuits: Vec<CircuitView>) -> WaferView {
    let mut ledger = BTreeMap::new();
    for c in &circuits {
        for e in c.path.edges() {
            *ledger.entry(e).or_insert(0) += 1;
        }
    }
    WaferView {
        wafer: None,
        rows: 4,
        cols: 8,
        edge_capacity: 10_000,
        lanes_per_tile: 16,
        ledger,
        circuits,
    }
}

#[test]
fn handmade_view_is_clean() {
    let view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1), (1, 1)], LambdaSet::first_n(4)),
        ckt("ckt#1", &[(2, 2), (2, 3)], LambdaSet::first_n(16)),
    ]);
    let report = check_wafer_view(&view);
    assert!(report.is_clean(), "{}", report.render());
}

// ---------------------------------------------------------------- CKT101 --

#[test]
fn ckt101_fires_on_edge_over_capacity() {
    let mut view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(2)),
        ckt("ckt#1", &[(0, 0), (0, 1), (1, 1)], {
            // disjoint λ so only the capacity rule is at stake
            LambdaSet::first_n(4).difference(LambdaSet::first_n(2))
        }),
    ]);
    view.edge_capacity = 1;
    let report = verify::check_waveguide_conservation(&view);
    let hits = report.by_rule(RuleId::Ckt101);
    assert!(hits.iter().any(|d| {
        matches!(&d.location, Location::Edge { .. }) && d.message.contains("capacity is 1")
    }));
}

#[test]
fn ckt101_fires_on_ledger_drift() {
    let mut view = view_of(vec![ckt("ckt#0", &[(1, 1), (1, 2)], LambdaSet::first_n(1))]);
    // Corrupt the ledger: pretend five circuits cross the edge.
    for used in view.ledger.values_mut() {
        *used = 5;
    }
    let report = verify::check_waveguide_conservation(&view);
    assert!(report
        .by_rule(RuleId::Ckt101)
        .iter()
        .any(|d| d.message.contains("ledger records 5")));
}

#[test]
fn ckt101_fires_on_phantom_ledger_entry() {
    // The ledger remembers an edge no live circuit crosses (leaked teardown).
    let mut view = view_of(vec![]);
    view.ledger.insert(
        lightpath::EdgeId::between(TileCoord::new(0, 0), TileCoord::new(0, 1)),
        1,
    );
    let report = verify::check_waveguide_conservation(&view);
    assert!(report
        .by_rule(RuleId::Ckt101)
        .iter()
        .any(|d| d.message.contains("ledger records 1")));
}

#[test]
fn ckt101_fires_on_path_off_grid() {
    let mut view = view_of(vec![ckt("ckt#0", &[(0, 6), (0, 7)], LambdaSet::first_n(1))]);
    view.cols = 4; // shrink the grid under the circuit
    view.ledger.clear();
    let report = verify::check_waveguide_conservation(&view);
    assert!(report
        .by_rule(RuleId::Ckt101)
        .iter()
        .any(|d| d.message.contains("outside the 4×4 grid")));
}

// ---------------------------------------------------------------- CKT102 --

#[test]
fn ckt102_fires_on_rx_overclaim() {
    // Two circuits converge on (1,1): 9 + 8 = 17 receive lanes claimed.
    // λ overlap is legal here — the transmitters are different tiles.
    let view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1), (1, 1)], LambdaSet::first_n(9)),
        ckt("ckt#1", &[(2, 1), (1, 1)], LambdaSet::first_n(8)),
    ]);
    let report = verify::check_lane_conservation(&view);
    let hits = report.by_rule(RuleId::Ckt102);
    assert!(
        hits.iter().any(|d| {
            d.location
                == Location::Tile {
                    wafer: None,
                    tile: TileCoord::new(1, 1),
                }
                && d.message.contains("17 receive lanes")
        }),
        "{}",
        report.render()
    );
}

#[test]
fn ckt102_fires_on_lambda_beyond_plan_and_empty_set() {
    let view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(17)),
        ckt("ckt#1", &[(2, 0), (2, 1)], LambdaSet::EMPTY),
    ]);
    let report = verify::check_lane_conservation(&view);
    let hits = report.by_rule(RuleId::Ckt102);
    assert!(hits
        .iter()
        .any(|d| d.message.contains("beyond the 16-lane")));
    assert!(hits.iter().any(|d| d.message.contains("no wavelengths")));
    // 17 tx lanes at (0,0) also breaches the pool.
    assert!(hits.iter().any(|d| d.message.contains("17 transmit lanes")));
}

// ---------------------------------------------------------------- CKT103 --

#[test]
fn ckt103_fires_on_shared_lambda_at_one_transmitter() {
    let view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(4)),
        ckt("ckt#1", &[(0, 0), (1, 0)], LambdaSet::first_n(2)),
    ]);
    let report = verify::check_lambda_disjointness(&view);
    let hits = report.by_rule(RuleId::Ckt103);
    assert_eq!(hits.len(), 1, "{}", report.render());
    assert_eq!(
        hits[0].location,
        Location::Tile {
            wafer: None,
            tile: TileCoord::new(0, 0),
        }
    );
    assert!(hits[0].message.contains("2 shared wavelength(s)"));
}

#[test]
fn ckt103_ignores_unclaimed_fiber_fed_segments() {
    // A fiber-fed segment reuses λ the local transmitter also launches —
    // legal, because the segment claims no local SerDes.
    let mut pass_through = ckt("ckt#1", &[(0, 0), (1, 0)], LambdaSet::first_n(2));
    pass_through.claimed_src = false;
    pass_through.claimed_dst = false;
    let view = view_of(vec![
        ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(4)),
        pass_through,
    ]);
    assert!(verify::check_lambda_disjointness(&view).is_clean());
}

// ---------------------------------------------------------------- PHY201 --

#[test]
fn phy201_fires_on_non_closing_budget() {
    let mut bad = ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(1));
    bad.link = LinkReport {
        received: Dbm(-21.0),
        sensitivity: Dbm(-17.0),
        margin: Db(-4.0),
        ber: 1e-3,
        rate: Gbps(224.0),
    };
    let view = view_of(vec![bad]);
    let report = verify::check_link_budgets(&view, verify::PhyLintConfig::default());
    let hits = report.by_rule(RuleId::Phy201);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].severity, verify::Severity::Error);
    assert!(hits[0].message.contains("does not close"));
    assert!(matches!(&hits[0].location, Location::Circuit { circuit, .. } if circuit == "ckt#0"));
}

#[test]
fn phy201_warns_on_thin_margin() {
    let mut thin = ckt("ckt#0", &[(0, 0), (0, 1)], LambdaSet::first_n(1));
    thin.link.margin = Db(0.2);
    let view = view_of(vec![thin]);
    let report = verify::check_link_budgets(&view, verify::PhyLintConfig::default());
    let hits = report.by_rule(RuleId::Phy201);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].severity, verify::Severity::Warning);
    assert!(hits[0].message.contains("lint floor"));
    assert_eq!(report.error_count(), 0);
}

// ------------------------------------------------------------ live wafer --

#[test]
fn admitted_wafer_passes_circuit_rules() {
    // §3's corner-to-corner circuit at full WDM (16 λ) alone, then three
    // circuits that share a source tile and buses.
    for requests in [
        &[((0, 0), (3, 7), 16)][..],
        &[
            ((0, 0), (3, 7), 8),
            ((0, 0), (2, 3), 8),
            ((1, 5), (0, 2), 16),
        ],
    ] {
        let mut wafer = Wafer::new(WaferConfig::lightpath_32());
        for &((r1, c1), (r2, c2), lanes) in requests {
            let (src, dst) = (TileCoord::new(r1, c1), TileCoord::new(r2, c2));
            wafer
                .establish(CircuitRequest::new(src, dst, lanes))
                .unwrap();
        }
        let report = check_wafer(&wafer);
        assert_eq!(report.error_count(), 0, "{}", report.render());
    }
}

// ---------------------------------------------------------------- RES301 --

#[test]
fn res301_clean_on_paper_repair() {
    let scenario = fig6a();
    let mut rack = PhotonicRack::new(1);
    optical_repair(
        &mut rack,
        &scenario.victim,
        scenario.failed,
        scenario.free[0],
    )
    .expect("repair succeeds");
    let report = check_fabric(&rack.fabric);
    assert!(report.is_clean(), "{}", report.render());
    let ownership = TileOwnership::from_occupancy(&rack.cluster, &scenario.occ);
    let report = check_repair_fabric(&rack.fabric, &ownership, scenario.victim.id);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn res301_fires_when_repair_lands_on_healthy_tenant() {
    let scenario = fig6a();
    let mut rack = PhotonicRack::new(1);
    optical_repair(
        &mut rack,
        &scenario.victim,
        scenario.failed,
        scenario.free[0],
    )
    .expect("repair succeeds");
    // Seed the violation: terminate an extra circuit on a Slice-4 chip
    // (layer z = 2 is a healthy tenant).
    let healthy_chip = Coord3::new(0, 0, 2);
    assert_ne!(scenario.occ.owner(healthy_chip), None);
    assert_ne!(scenario.occ.owner(healthy_chip), Some(scenario.victim.id));
    let (wafer, tile) = chip_to_tile(&rack.cluster, healthy_chip);
    let src = if tile == TileCoord::new(0, 0) {
        TileCoord::new(1, 1)
    } else {
        TileCoord::new(0, 0)
    };
    rack.fabric
        .wafer_mut(wafer)
        .establish(CircuitRequest::new(src, tile, 1))
        .expect("the healthy wafer has free lanes");
    let ownership = TileOwnership::from_occupancy(&rack.cluster, &scenario.occ);
    let report = check_repair_fabric(&rack.fabric, &ownership, scenario.victim.id);
    let hits = report.by_rule(RuleId::Res301);
    assert!(!hits.is_empty(), "{}", report.render());
    assert!(
        hits.iter().any(|d| {
            d.location
                == Location::Tile {
                    wafer: Some(wafer),
                    tile,
                }
                && d.message.contains("slice-4")
        }),
        "{}",
        report.render()
    );
}

#[test]
fn res301_check_is_endpoint_shaped_not_path_shaped() {
    // Pass-through is fine: a claim at an unowned tile next to a healthy
    // one must not fire even though the healthy tile is "touched" by the
    // ownership map's wafer.
    let mut ownership = TileOwnership::new();
    let healthy = topo::SliceId(9);
    ownership.claim(healthy, lightpath::WaferId(0), TileCoord::new(0, 0));
    let claims = vec![verify::EndpointClaim {
        circuit: "ckt#0".into(),
        wafer: lightpath::WaferId(0),
        tile: TileCoord::new(0, 1), // unowned neighbour
        role: "destination",
    }];
    let report = check_blast_radius(&claims, &ownership, topo::SliceId(3));
    assert!(report.is_clean());
}

#[test]
fn endpoint_claims_cover_cross_wafer_circuits() {
    let scenario = fig6a();
    let mut rack = PhotonicRack::new(1);
    optical_repair(
        &mut rack,
        &scenario.victim,
        scenario.failed,
        scenario.free[0],
    )
    .expect("repair succeeds");
    let claims = endpoint_claims(&rack.fabric);
    assert!(!claims.is_empty());
    let has_cross = rack.fabric.cross_circuits().next().is_some();
    assert!(has_cross, "fig6a repair crosses servers");
    // Every cross circuit's true endpoints appear among the claims.
    for x in rack.fabric.cross_circuits() {
        assert!(claims
            .iter()
            .any(|c| c.wafer == x.src.0 && c.tile == x.src.1));
        assert!(claims
            .iter()
            .any(|c| c.wafer == x.dst.0 && c.tile == x.dst.1));
    }
}
