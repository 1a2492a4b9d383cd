//! `LinkModel` against the per-call oracle: hoisting the device constants
//! out of the budget must not move a single bit of any report field.

#[path = "support/budget_oracle.rs"]
mod budget_oracle;

use budget_oracle::OracleBudget;
use phy::units::Gbps;
use phy::{Laser, LinkModel, LossBudget, LossElement, MrrModulator, Photodetector};
use proptest::prelude::*;

/// Any loss element, every kind represented.
fn loss_element() -> impl Strategy<Value = LossElement> {
    prop_oneof![
        (0.0f64..20.0, 0.0f64..0.5).prop_map(|(length_cm, db_per_cm)| LossElement::Waveguide {
            length_cm,
            db_per_cm
        }),
        Just(LossElement::Crossing),
        (0.0f64..3.0).prop_map(|loss_db| LossElement::ReticleStitch { loss_db }),
        (0.0f64..1.0).prop_map(|loss_db| LossElement::MziStage { loss_db }),
        Just(LossElement::FiberCoupling),
        (0.0f64..50.0).prop_map(|length_m| LossElement::Fiber { length_m }),
        (0u32..10_000, 0.0f64..0.01).prop_map(|(neighbours, per_neighbour_db)| {
            LossElement::Crosstalk {
                neighbours,
                per_neighbour_db,
            }
        }),
        (0.0f64..10.0).prop_map(|gain_db| LossElement::Amplifier { gain_db }),
        (0.0f64..10.0).prop_map(|loss_db| LossElement::Other { loss_db }),
    ]
}

fn loss_budget() -> impl Strategy<Value = LossBudget> {
    prop::collection::vec(loss_element(), 0..40).prop_map(|items| {
        let mut b = LossBudget::new();
        for e in items {
            b.push(e);
        }
        b
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The shared LIGHTPATH model reproduces the oracle on any path.
    #[test]
    fn default_model_matches_the_oracle(path in loss_budget()) {
        let model = LinkModel::lightpath_default();
        let got = model.evaluate(&path);
        let want = OracleBudget::lightpath_default(path).evaluate();
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any transceiver pair: the derived launch power and sensitivity
    /// are the oracle's, and so is every report and the loss headroom.
    #[test]
    fn any_model_matches_the_oracle(
        laser in (1260.0f64..1360.0, 0.0f64..15.0),
        modulator in (0.0f64..6.0, 2.0f64..10.0, 25.0f64..224.0),
        detector in (0.5f64..1.2, 5e-12f64..30e-12, 1e-9f64..50e-9),
        target_ber in prop_oneof![Just(1e-9), Just(1e-12), Just(1e-15)],
        paths in prop::collection::vec(loss_budget(), 1..8),
    ) {
        let laser = Laser::new(laser.0, laser.1);
        let modulator = MrrModulator {
            insertion_loss_db: modulator.0,
            extinction_ratio_db: modulator.1,
            rate: Gbps(modulator.2),
        };
        let detector = Photodetector {
            responsivity_a_per_w: detector.0,
            thermal_noise_a_per_sqrt_hz: detector.1,
            dark_current_a: detector.2,
        };
        let model = LinkModel::new(laser, modulator, detector, target_ber);
        for path in paths {
            let oracle = OracleBudget {
                laser,
                modulator,
                detector,
                path,
                target_ber,
            };
            prop_assert_eq!(
                model.loss_headroom_db().to_bits(),
                oracle.loss_headroom_db().to_bits()
            );
            prop_assert_eq!(
                model.evaluate(&oracle.path).to_bits(),
                oracle.evaluate().to_bits()
            );
        }
    }
}
