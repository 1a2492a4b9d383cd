//! Test-only oracle: the link budget as it was evaluated before the device
//! constants moved into `LinkModel`, re-deriving the modulator penalty and
//! the receiver sensitivity on every call. `LinkModel::evaluate` must
//! reproduce its report bit for bit, because the report's bits are
//! written into every state snapshot and so pinned by fingerprints.
//!
//! Shared by the `phy` property tests and the `lightpath` wafer and fabric
//! oracle tests (included there by path).

// Each includer uses a subset of the oracle.
#![allow(dead_code)]

use phy::{Laser, LinkReport, LossBudget, MrrModulator, Photodetector, DEFAULT_TARGET_BER};

/// Inputs to one oracle evaluation.
#[derive(Debug, Clone)]
pub struct OracleBudget {
    pub laser: Laser,
    pub modulator: MrrModulator,
    pub detector: Photodetector,
    pub path: LossBudget,
    pub target_ber: f64,
}

impl OracleBudget {
    /// LIGHTPATH-default devices over `path`.
    pub fn lightpath_default(path: LossBudget) -> Self {
        OracleBudget {
            laser: Laser::new(1310.0, 12.0),
            modulator: MrrModulator::default(),
            detector: Photodetector::default(),
            path,
            target_ber: DEFAULT_TARGET_BER,
        }
    }

    /// Evaluate the budget at the modulator's line rate.
    pub fn evaluate(&self) -> LinkReport {
        let rate = self.modulator.rate;
        let received = self.laser.power + self.modulator.tx_penalty() + self.path.total();
        let sensitivity = self.detector.sensitivity(self.target_ber, rate);
        let margin = received - sensitivity;
        let ber = self.detector.ber(received.to_mw(), rate);
        LinkReport {
            received,
            sensitivity,
            margin,
            ber,
            rate,
        }
    }

    /// The maximum tolerable path loss (dB, positive) for this budget to
    /// close.
    pub fn loss_headroom_db(&self) -> f64 {
        let launch = self.laser.power + self.modulator.tx_penalty();
        let sensitivity = self
            .detector
            .sensitivity(self.target_ber, self.modulator.rate);
        (launch - sensitivity).0
    }
}
