//! First-order thermo-optic actuation dynamics.
//!
//! LIGHTPATH's MZI switches are driven by phase shifters whose phase follows
//! the drive with a first-order lag: `φ(t) = φ_target + (φ_start − φ_target)
//! · exp(−t/τ)`. The paper's Fig 3a measures the resulting *optical
//! amplitude* step response (the scope trace, fitted τ ≈ 1.2 µs) and reports
//! ~3.7 µs to reconfigure. Because the bright-port power `cos²(φ/2)` is flat
//! near the target, amplitude settles later than naive τ·ln(1/tol) would
//! suggest; the calibrated default below makes a full π phase swing's
//! amplitude reach 99 % of target at exactly 3.7 µs (see `phy::mzi`).

/// Phase residual (radians) at which a bright port is within 1 % of full
/// power: `2·acos(√0.99) ≈ 0.2003 rad`.
pub const AMPLITUDE_SETTLE_PHASE_RAD: f64 = 0.200_334_842_323_119_38;

/// The paper's measured end-to-end reconfiguration latency: 3.7 µs.
pub const RECONFIG_LATENCY_S: f64 = 3.7e-6;

/// Default thermo-optic time constant, calibrated so that a π phase swing's
/// optical amplitude settles to within 1 % at the paper's measured 3.7 µs:
/// `τ = 3.7 µs / ln(π / 0.2003) ≈ 1.34 µs`, consistent with Fig 3a's fitted
/// τ on the order of 1.2 µs.
pub const DEFAULT_TAU_S: f64 = RECONFIG_LATENCY_S / 2.752_494_986_597_869; // ln(π/0.2003…)

/// Default settle tolerance: "reconfigured" means within 1 % of target.
pub const DEFAULT_SETTLE_TOL: f64 = 0.01;

/// A first-order step response between two levels.
#[derive(Debug, Clone, Copy)]
pub struct FirstOrderStep {
    start: f64,
    target: f64,
    tau: f64,
}

impl FirstOrderStep {
    /// A step from `start` to `target` with time constant `tau` seconds.
    ///
    /// Panics unless `tau > 0`.
    pub fn new(start: f64, target: f64, tau: f64) -> Self {
        assert!(
            tau > 0.0 && tau.is_finite(),
            "tau must be positive, got {tau}"
        );
        FirstOrderStep { start, target, tau }
    }

    /// Value `t` seconds after the step is applied (clamped: `t < 0` returns
    /// the start value).
    pub fn value(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return self.start;
        }
        self.target + (self.start - self.target) * (-t / self.tau).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_and_monotonicity() {
        let s = FirstOrderStep::new(0.0, 1.0, 1e-6);
        assert_eq!(s.value(-1.0), 0.0);
        assert_eq!(s.value(0.0), 0.0);
        assert!(s.value(1e-6) > 0.6 && s.value(1e-6) < 0.7); // 1 − 1/e
        assert!(s.value(10e-6) > 0.9999);
        let mut prev = -1.0;
        for i in 0..100 {
            let v = s.value(i as f64 * 1e-7);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn default_tau_amplitude_settles_in_3_7_us() {
        // A π phase swing: amplitude is within 1 % once the phase residual
        // drops below AMPLITUDE_SETTLE_PHASE_RAD.
        let s = FirstOrderStep::new(std::f64::consts::PI, 0.0, DEFAULT_TAU_S);
        // Residual phase π·exp(−t/τ) = threshold at t = τ·ln(π/threshold).
        let t = DEFAULT_TAU_S * (std::f64::consts::PI / AMPLITUDE_SETTLE_PHASE_RAD).ln();
        assert!(
            (t - RECONFIG_LATENCY_S).abs() < 1e-11,
            "settle {t} != 3.7us"
        );
        let residual = s.value(t).abs();
        assert!((residual - AMPLITUDE_SETTLE_PHASE_RAD).abs() < 1e-9);
        // And the fitted τ is on the order of Fig 3a's ~1.2 µs.
        assert!(
            (1.0e-6..1.6e-6).contains(&DEFAULT_TAU_S),
            "tau {DEFAULT_TAU_S}"
        );
    }

    #[test]
    fn falling_step_decays() {
        let s = FirstOrderStep::new(1.0, 0.0, 1e-6);
        assert!(s.value(1e-6) < 0.4);
        assert!(s.value(1e-6) > 0.3);
    }
}
