//! Property-based tests of the physical-layer models.

use phy::units::Gbps;
use phy::{
    ber_from_q, q_from_ber, Db, Dbm, Lambda, LambdaSet, LossBudget, LossElement, Mzi, MziParams,
    MziState, Photodetector, SerdesPool,
};
use proptest::prelude::*;

fn lambda_set() -> impl Strategy<Value = LambdaSet> {
    prop::collection::vec(0u8..16, 0..16)
        .prop_map(|v| v.into_iter().map(Lambda).collect::<LambdaSet>())
}

proptest! {
    /// dB ↔ linear conversion round-trips.
    #[test]
    fn db_linear_roundtrip(x in 1e-6f64..1e6) {
        let db = Db::from_linear(x);
        prop_assert!((db.to_linear() - x).abs() / x < 1e-9);
    }

    /// Applying a loss then the equal gain restores the power.
    #[test]
    fn loss_gain_cancel(p in -30.0f64..20.0, loss in 0.0f64..40.0) {
        let restored = Dbm(p) + Db::loss(loss) + Db(loss);
        prop_assert!((restored.0 - p).abs() < 1e-9);
    }

    /// BER is monotone decreasing in Q, and q_from_ber inverts ber_from_q.
    #[test]
    fn ber_q_inverse(q in 0.5f64..20.0) {
        let ber = ber_from_q(q);
        prop_assert!(ber > 0.0 && ber < 0.5);
        prop_assert!(ber_from_q(q + 0.1) < ber);
        let back = q_from_ber(ber);
        prop_assert!((back - q).abs() < 1e-4, "q {q} back {back}");
    }

    /// Receiver sensitivity increases with line rate.
    #[test]
    fn sensitivity_monotone_in_rate(r1 in 10.0f64..100.0, extra in 1.0f64..200.0) {
        let pd = Photodetector::default();
        let s1 = pd.sensitivity(1e-12, Gbps(r1));
        let s2 = pd.sensitivity(1e-12, Gbps(r1 + extra));
        prop_assert!(s2.0 >= s1.0 - 1e-9);
    }

    /// A loss budget's total equals the sum of its items.
    #[test]
    fn budget_total_is_sum(losses in prop::collection::vec(0.0f64..5.0, 0..30)) {
        let mut b = LossBudget::new();
        for &l in &losses {
            b.push(LossElement::Other { loss_db: l });
        }
        let expect: f64 = losses.iter().sum();
        prop_assert!((b.total_db() - expect).abs() < 1e-9);
    }

    /// LambdaSet obeys basic set algebra.
    #[test]
    fn lambda_set_algebra(a in lambda_set(), b in lambda_set()) {
        let u = a.union(b);
        let i = a.intersection(b);
        // |A∪B| + |A∩B| = |A| + |B|
        prop_assert_eq!(u.len() + i.len(), a.len() + b.len());
        // difference and intersection partition A.
        let d = a.difference(b);
        prop_assert_eq!(d.len() + i.len(), a.len());
        prop_assert!(d.is_disjoint(&b));
        // disjoint ⇔ empty intersection.
        prop_assert_eq!(a.is_disjoint(&b), i.is_empty());
        // union is commutative and idempotent.
        prop_assert_eq!(u, b.union(a));
        prop_assert_eq!(u.union(u), u);
    }

    /// SerDes claims and releases conserve lane counts under any sequence.
    #[test]
    fn serdes_conservation(claims in prop::collection::vec(1usize..8, 1..10)) {
        let mut pool = SerdesPool::new(16);
        let mut held = Vec::new();
        for &k in &claims {
            let avail = pool.tx_available();
            if let Some(set) = avail.take_lowest(k) {
                if pool.claim_tx(set).is_some() {
                    held.push(set);
                }
            }
        }
        let claimed: usize = held.iter().map(|s| s.len()).sum();
        prop_assert_eq!(pool.tx_free(), 16 - claimed);
        for set in held {
            pool.release_tx(set);
        }
        prop_assert_eq!(pool.tx_free(), 16);
    }

    /// MZI transmissions stay within [0, 1] at every instant of any
    /// transition, and the two ports never exceed unity together.
    #[test]
    fn mzi_power_is_physical(t_us in 0.0f64..20.0, start_cross in any::<bool>()) {
        let start = if start_cross { MziState::Cross } else { MziState::Bar };
        let target = if start_cross { MziState::Bar } else { MziState::Cross };
        let mut m = Mzi::new(MziParams::default(), start);
        m.drive(target, 0.0);
        let t = t_us * 1e-6;
        let cross = m.cross_transmission(t);
        let bar = m.bar_transmission(t);
        prop_assert!((0.0..=1.0).contains(&cross));
        prop_assert!((0.0..=1.0).contains(&bar));
        prop_assert!(cross + bar <= 1.0 + 1e-2, "power conservation");
    }

    /// Transfer time scales linearly with bytes.
    #[test]
    fn gbps_transfer_linear(bytes in 1u64..1_000_000_000, rate in 1.0f64..1000.0) {
        let r = Gbps(rate);
        let t1 = r.transfer_secs(bytes);
        let t2 = r.transfer_secs(bytes * 2);
        prop_assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
