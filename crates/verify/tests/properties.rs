//! Property tests: the verifier agrees with the paper's guarantees.
//!
//! * Ring and bucket schedules compiled by `collectives` are
//!   congestion-free and byte-conserving for every slice shape, buffer
//!   size, and bandwidth mode — so the full SCH rule set stays silent.
//! * The paper's Table 1/2 schedules verify clean at Fig 5b's 64 MiB
//!   buffer, which the drawn sizes stop short of.
//! * Any circuit set a `lightpath` wafer *admits* satisfies λ-disjointness,
//!   lane and waveguide conservation, and closes its link budgets — so the
//!   CKT/PHY rule set stays silent on live states (errors can only come
//!   from corrupted snapshots, which `mutations.rs` covers).

use collectives::cost::CostParams;
use collectives::{bucket_reduce_scatter, ring_all_reduce, ring_reduce_scatter, snake_order, Mode};
use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
use proptest::prelude::*;
use topo::{Coord3, Dim, Shape3, Slice, Torus};
use verify::{check_schedule, check_wafer, CollectiveSpec, ScheduleContext};

const RACK: Shape3 = Shape3::rack_4x4x4();

fn mode_strategy() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Electrical),
        Just(Mode::OpticalStaticSplit),
        Just(Mode::OpticalFullSteer),
    ]
}

/// Slices that fit the 4×4×4 rack and ring in at least one dimension.
fn slice_strategy() -> impl Strategy<Value = Slice> {
    (
        prop_oneof![
            Just((4usize, 2usize, 1usize)),
            Just((4, 4, 1)),
            Just((2, 2, 2))
        ],
        0usize..2,
        0usize..2,
    )
        .prop_map(|((x, y, z), oy, oz)| {
            let origin = Coord3::new(0, (oy * y).min(4 - y), (oz * z).min(4 - z));
            Slice::new(1, origin, Shape3::new(x, y, z))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ring ReduceScatter passes every schedule rule in every mode.
    #[test]
    fn ring_reduce_scatter_verifies_clean(
        slice in slice_strategy(),
        n_bytes in 1024.0f64..64e6,
        mode in mode_strategy(),
    ) {
        let params = CostParams::default();
        let torus = Torus::new(RACK);
        let members = snake_order(&slice);
        prop_assume!(members.len() >= 2);
        let sched = ring_reduce_scatter(&members, n_bytes, mode, RACK, &torus, &params);
        let ctx = ScheduleContext::new(RACK, members.clone())
            .expecting(CollectiveSpec::ReduceScatter { n_bytes, p: members.len() });
        let report = check_schedule(&sched, &ctx);
        prop_assert!(report.is_clean(), "mode {mode:?}, slice {:?}:\n{}", slice, report.render());
    }

    /// Ring AllReduce conserves twice the ReduceScatter bytes.
    #[test]
    fn ring_all_reduce_verifies_clean(
        n_bytes in 1024.0f64..64e6,
        mode in mode_strategy(),
    ) {
        let params = CostParams::default();
        let torus = Torus::new(RACK);
        let slice = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        let members = snake_order(&slice);
        let sched = ring_all_reduce(&members, n_bytes, mode, RACK, &torus, &params);
        let ctx = ScheduleContext::new(RACK, members.clone())
            .expecting(CollectiveSpec::AllReduce { n_bytes, p: members.len() });
        let report = check_schedule(&sched, &ctx);
        prop_assert!(report.is_clean(), "mode {mode:?}:\n{}", report.render());
    }

    /// The multi-dimensional bucket algorithm telescopes to the same
    /// closed form and never congests a link.
    #[test]
    fn bucket_reduce_scatter_verifies_clean(
        n_bytes in 1024.0f64..64e6,
        mode in mode_strategy(),
        z in 0usize..3,
    ) {
        let params = CostParams::default();
        let torus = Torus::new(RACK);
        let slice = Slice::new(3, Coord3::new(0, 0, z), Shape3::new(4, 4, 1));
        let dims = [Dim::X, Dim::Y];
        let sched = bucket_reduce_scatter(&slice, &dims, n_bytes, mode, RACK, &torus, &params);
        let p = slice.chips();
        let ctx = ScheduleContext::new(RACK, slice.coords().collect())
            .expecting(CollectiveSpec::ReduceScatter { n_bytes, p });
        let report = check_schedule(&sched, &ctx);
        prop_assert!(report.is_clean(), "mode {mode:?}:\n{}", report.render());
    }

    /// Whatever circuit set the wafer's admission control accepts passes
    /// the full circuit rule catalog (λ-disjointness, lane and waveguide
    /// conservation, budget closure) without errors.
    #[test]
    fn admitted_circuits_verify_clean(
        requests in prop::collection::vec(
            (0u8..4, 0u8..8, 0u8..4, 0u8..8, 1usize..=8),
            1..24,
        ),
    ) {
        let mut wafer = Wafer::new(WaferConfig::lightpath_32());
        let mut admitted = 0u32;
        for (r1, c1, r2, c2, lanes) in requests {
            let req = CircuitRequest::new(TileCoord::new(r1, c1), TileCoord::new(r2, c2), lanes);
            if wafer.establish(req).is_ok() {
                admitted += 1;
            }
        }
        let report = check_wafer(&wafer);
        prop_assert_eq!(
            report.error_count(), 0,
            "after {} admissions:\n{}", admitted, report.render()
        );
    }
}

/// The Table 1/2 schedules at Fig 5b's 64 MiB buffer: ring ReduceScatter
/// on Slice-1 (4×2×1) in both modes, its optical ring AllReduce, and
/// bucket ReduceScatter on Slice-3 (4×4×1) in both modes.
#[test]
fn table1_and_table2_schedules_verify_clean_at_64_mib() {
    const N_BYTES: f64 = (64u64 << 20) as f64;
    let params = CostParams::default();
    let torus = Torus::new(RACK);
    let ring = snake_order(&Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1)));
    let slice3 = Slice::new(3, Coord3::new(0, 0, 1), Shape3::new(4, 4, 1));
    let bucket: Vec<Coord3> = slice3.coords().collect();
    let ring_rs = |mode| ring_reduce_scatter(&ring, N_BYTES, mode, RACK, &torus, &params);
    let bucket_rs = |mode| {
        let dims = [Dim::X, Dim::Y];
        bucket_reduce_scatter(&slice3, &dims, N_BYTES, mode, RACK, &torus, &params)
    };
    let all_reduce = |mode| ring_all_reduce(&ring, N_BYTES, mode, RACK, &torus, &params);
    let rs = |p| CollectiveSpec::ReduceScatter {
        n_bytes: N_BYTES,
        p,
    };
    let ar = CollectiveSpec::AllReduce {
        n_bytes: N_BYTES,
        p: ring.len(),
    };
    let cases = [
        (
            "table1 ring (electrical)",
            ring_rs(Mode::Electrical),
            &ring,
            rs(ring.len()),
        ),
        (
            "table1 ring (optical)",
            ring_rs(Mode::OpticalFullSteer),
            &ring,
            rs(ring.len()),
        ),
        (
            "ring all-reduce (optical)",
            all_reduce(Mode::OpticalFullSteer),
            &ring,
            ar,
        ),
        (
            "table2 bucket (electrical)",
            bucket_rs(Mode::Electrical),
            &bucket,
            rs(bucket.len()),
        ),
        (
            "table2 bucket (optical)",
            bucket_rs(Mode::OpticalStaticSplit),
            &bucket,
            rs(bucket.len()),
        ),
    ];
    for (name, sched, members, spec) in cases {
        let ctx = ScheduleContext::new(RACK, members.clone()).expecting(spec);
        let report = check_schedule(&sched, &ctx);
        assert!(report.is_clean(), "{name}:\n{}", report.render());
    }
}
