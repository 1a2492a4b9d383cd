//! End-to-end link budget: does a proposed optical circuit close?
//!
//! Ties the device models together: laser launch power, transmitter
//! penalties, the itemized path loss of [`crate::loss`], and the receiver
//! sensitivity of [`crate::devices`]. The circuit layer (`lightpath` crate)
//! admits a circuit only when its budget closes with positive margin — this
//! is how §3's loss measurements gate §4's routing opportunities.
//!
//! The budget splits into two parts. Everything that depends only on the
//! transceiver pair — the launch power after the modulator's penalty and
//! the receiver sensitivity (two nested bisections) — is derived once when
//! a [`LinkModel`] is built. Each circuit then pays only for its own loss
//! sum and one BER evaluation at the received power.

use std::sync::OnceLock;

use crate::devices::{Laser, MrrModulator, Photodetector};
use crate::loss::LossBudget;
use crate::units::{Db, Dbm, Gbps};

/// Target bit error rate for circuit admission (pre-FEC threshold typical
/// of short-reach links).
pub const DEFAULT_TARGET_BER: f64 = 1e-12;

/// A transceiver pair that circuit budgets close against, reduced to what
/// a per-circuit evaluation reads: the line rate, the receive detector,
/// and the two path-independent terms derived once at construction.
#[derive(Debug, Clone)]
pub struct LinkModel {
    /// The modulator's line rate.
    rate: Gbps,
    detector: Photodetector,
    /// `laser.power + modulator.tx_penalty()`.
    launch: Dbm,
    /// `detector.sensitivity(target_ber, rate)`.
    sensitivity: Dbm,
}

/// Outcome of evaluating a link budget.
#[derive(Debug, Clone, Copy)]
pub struct LinkReport {
    /// Optical power arriving at the detector.
    pub received: Dbm,
    /// Receiver sensitivity at the target BER and line rate.
    pub sensitivity: Dbm,
    /// `received − sensitivity`; the link closes when this is ≥ 0.
    pub margin: Db,
    /// Estimated BER at the received power.
    pub ber: f64,
    /// Line rate evaluated.
    pub rate: Gbps,
}

/// A link budget that fails to close: the physical-layer infeasibility
/// carried up the stack (the circuit layer wraps this into its fault
/// taxonomy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkInfeasible {
    /// Margin shortfall (negative), dB.
    pub margin_db: f64,
    /// Estimated BER at the received power.
    pub ber: f64,
    /// Target BER the budget was evaluated against.
    pub target_ber: f64,
}

impl std::fmt::Display for LinkInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "link budget does not close: margin {:.2} dB, BER {:.2e} vs target {:.2e}",
            self.margin_db, self.ber, self.target_ber
        )
    }
}

impl std::error::Error for LinkInfeasible {}

impl LinkReport {
    /// True when the budget closes (non-negative margin).
    pub fn closes(&self) -> bool {
        self.margin.0 >= 0.0
    }

    /// `Ok(())` when the budget closes, otherwise the structured
    /// infeasibility (margin shortfall + BER vs target).
    pub fn require_closure(&self, target_ber: f64) -> Result<(), LinkInfeasible> {
        if self.closes() {
            Ok(())
        } else {
            Err(LinkInfeasible {
                margin_db: self.margin.0,
                ber: self.ber,
                target_ber,
            })
        }
    }

    /// Bitwise image of all five fields, for exact (not epsilon)
    /// comparison of two reports.
    pub fn to_bits(&self) -> [u64; 5] {
        [
            self.received.0.to_bits(),
            self.sensitivity.0.to_bits(),
            self.margin.0.to_bits(),
            self.ber.to_bits(),
            self.rate.0.to_bits(),
        ]
    }
}

impl LinkModel {
    /// Build a model, deriving the launch power and the receiver
    /// sensitivity at `target_ber` and the modulator's line rate.
    pub fn new(
        laser: Laser,
        modulator: MrrModulator,
        detector: Photodetector,
        target_ber: f64,
    ) -> Self {
        LinkModel {
            rate: modulator.rate,
            detector,
            launch: laser.power + modulator.tx_penalty(),
            sensitivity: detector.sensitivity(target_ber, modulator.rate),
        }
    }

    /// The LIGHTPATH-default transceiver pair, built once per process and
    /// shared by every caller.
    pub fn lightpath_default() -> &'static LinkModel {
        static DEFAULT: OnceLock<LinkModel> = OnceLock::new();
        DEFAULT.get_or_init(|| {
            LinkModel::new(
                Laser::new(1310.0, 12.0),
                MrrModulator::default(),
                Photodetector::default(),
                DEFAULT_TARGET_BER,
            )
        })
    }

    /// Evaluate a circuit over `path` at the modulator's line rate.
    pub fn evaluate(&self, path: &LossBudget) -> LinkReport {
        let received = self.launch + path.total();
        LinkReport {
            received,
            sensitivity: self.sensitivity,
            margin: received - self.sensitivity,
            ber: self.detector.ber(received.to_mw(), self.rate),
            rate: self.rate,
        }
    }

    /// The maximum tolerable path loss (dB, positive) for a budget to
    /// close — the figure of merit for "how far can a circuit route".
    pub fn loss_headroom_db(&self) -> f64 {
        (self.launch - self.sensitivity).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::LossElement;

    fn report_with_loss(db: f64) -> LinkReport {
        LinkModel::lightpath_default()
            .evaluate(&LossBudget::new().with(LossElement::Other { loss_db: db }))
    }

    #[test]
    fn short_path_closes_comfortably() {
        // Tile-to-neighbor circuit: ~1 cm waveguide, 2 crossings, 2 MZI
        // stages — the Fig 2c circuit from A to B.
        let path = LossBudget::new()
            .with(LossElement::Waveguide {
                length_cm: 1.0,
                db_per_cm: 0.1,
            })
            .with(LossElement::Crossing)
            .with(LossElement::Crossing)
            .with(LossElement::MziStage { loss_db: 0.15 })
            .with(LossElement::MziStage { loss_db: 0.15 });
        let report = LinkModel::lightpath_default().evaluate(&path);
        assert!(report.closes(), "margin {}", report.margin);
        assert!(report.margin.0 > 3.0, "short path should have >3 dB margin");
        assert!(report.ber < 1e-12);
    }

    #[test]
    fn margin_decreases_monotonically_with_loss() {
        let mut prev = f64::INFINITY;
        for loss in [0.0, 5.0, 10.0, 15.0, 20.0] {
            let m = report_with_loss(loss).margin.0;
            assert!(m < prev, "margin must fall as loss grows");
            prev = m;
        }
    }

    #[test]
    fn excessive_loss_fails_to_close() {
        let report = report_with_loss(60.0);
        assert!(!report.closes());
        assert!(report.ber > 1e-12);
    }

    #[test]
    fn headroom_is_the_break_even_loss() {
        let headroom = LinkModel::lightpath_default().loss_headroom_db();
        assert!(headroom > 0.0);
        // A path at exactly the headroom has ~zero margin.
        let at_limit = report_with_loss(headroom);
        assert!(at_limit.margin.abs() < 1e-6, "margin {}", at_limit.margin);
        // 1 dB under closes; 1 dB over fails.
        assert!(report_with_loss(headroom - 1.0).closes());
        assert!(!report_with_loss(headroom + 1.0).closes());
    }

    #[test]
    fn require_closure_is_result_shaped() {
        assert!(report_with_loss(1.0)
            .require_closure(DEFAULT_TARGET_BER)
            .is_ok());
        let err = report_with_loss(60.0)
            .require_closure(DEFAULT_TARGET_BER)
            .unwrap_err();
        assert!(err.margin_db < 0.0);
        assert!(err.ber > err.target_ber);
        assert!(err.to_string().contains("does not close"));
    }

    #[test]
    fn report_rate_matches_modulator() {
        let r = report_with_loss(1.0);
        assert_eq!(r.rate.0, 224.0);
    }

    #[test]
    fn default_model_is_built_once() {
        let a = LinkModel::lightpath_default();
        let b = LinkModel::lightpath_default();
        assert!(std::ptr::eq(a, b), "one shared instance per process");
    }
}
