//! Mach-Zehnder interferometer switches.
//!
//! A 2×2 MZI routes light between its *bar* and *cross* output ports as a
//! function of the phase difference Δφ between its arms: with ideal 50:50
//! couplers, `P_cross = cos²(Δφ/2)` and `P_bar = sin²(Δφ/2)`. LIGHTPATH
//! programs thermo-optic phase shifters to select a port; the phase follows
//! the drive with the first-order lag of [`crate::thermal`], which is what
//! the paper's Fig 3a trace shows.
//!
//! Each LIGHTPATH tile carries four switches of logical degree 1×3 (§3);
//! we realize one as a two-stage tree of 2×2 MZIs.

use crate::thermal::{FirstOrderStep, AMPLITUDE_SETTLE_PHASE_RAD, DEFAULT_TAU_S};
use crate::units::Db;
use desim::TimeSeries;

/// Which output port of a 2×2 MZI carries the light.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MziState {
    /// Light exits the same-side (bar) port: Δφ = π.
    Bar,
    /// Light exits the opposite-side (cross) port: Δφ = 0.
    Cross,
}

impl MziState {
    /// Arm phase difference that realizes this state, in radians.
    pub fn phase(self) -> f64 {
        match self {
            MziState::Bar => std::f64::consts::PI,
            MziState::Cross => 0.0,
        }
    }
}

/// Static electro-optic parameters of a fabricated MZI.
#[derive(Debug, Clone, Copy)]
pub struct MziParams {
    /// Thermo-optic time constant, seconds.
    pub tau_s: f64,
    /// Excess insertion loss of the device (couplers + waveguide), dB ≥ 0.
    pub insertion_loss_db: f64,
    /// Extinction ratio: how much darker the unselected port is, dB > 0.
    pub extinction_ratio_db: f64,
}

impl Default for MziParams {
    fn default() -> Self {
        MziParams {
            tau_s: DEFAULT_TAU_S,
            insertion_loss_db: 0.15,
            extinction_ratio_db: 25.0,
        }
    }
}

impl MziParams {
    /// Validate physical plausibility; returns `self` for chaining.
    ///
    /// Panics on a non-positive τ or extinction ratio, or negative loss.
    pub fn validated(self) -> Self {
        assert!(self.tau_s > 0.0, "tau must be positive");
        assert!(self.insertion_loss_db >= 0.0, "insertion loss must be >= 0");
        assert!(
            self.extinction_ratio_db > 0.0,
            "extinction ratio must be > 0"
        );
        self
    }
}

/// A single 2×2 MZI element with first-order phase dynamics.
#[derive(Debug, Clone)]
pub struct Mzi {
    params: MziParams,
    state: MziState,
    /// In-flight transition, if any: the phase step and its start time (s).
    transition: Option<(FirstOrderStep, f64)>,
}

impl Mzi {
    /// A settled MZI in the given state.
    pub fn new(params: MziParams, state: MziState) -> Self {
        Mzi {
            params: params.validated(),
            state,
            transition: None,
        }
    }

    /// Command a state change at absolute time `now_s`. Returns the latency
    /// (seconds) until the selected port's *optical amplitude* is within 1 %
    /// of its settled value — **3.7 µs** for a full bar↔cross swing with the
    /// calibrated default τ, and 0 if the device is already (nearly) there.
    pub fn drive(&mut self, target: MziState, now_s: f64) -> f64 {
        let current_phase = self.phase_at(now_s);
        let residual = (current_phase - target.phase()).abs();
        if target == self.state && residual <= AMPLITUDE_SETTLE_PHASE_RAD {
            // Already targeting this state and effectively settled.
            return 0.0;
        }
        let step = FirstOrderStep::new(current_phase, target.phase(), self.params.tau_s);
        self.state = target;
        self.transition = Some((step, now_s));
        if residual <= AMPLITUDE_SETTLE_PHASE_RAD {
            0.0
        } else {
            // Phase decays as residual·exp(−t/τ); amplitude is settled once
            // the residual falls below the 1 %-power threshold.
            self.params.tau_s * (residual / AMPLITUDE_SETTLE_PHASE_RAD).ln()
        }
    }

    /// Arm phase difference at absolute time `t_s`.
    pub fn phase_at(&self, t_s: f64) -> f64 {
        match &self.transition {
            Some((step, start)) => step.value(t_s - start),
            None => self.state.phase(),
        }
    }

    /// Power transmission (linear, ≤ 1) to the cross port at time `t_s`,
    /// including insertion loss and finite extinction.
    pub fn cross_transmission(&self, t_s: f64) -> f64 {
        self.port_transmission(t_s, MziState::Cross)
    }

    /// Power transmission (linear, ≤ 1) to the bar port at time `t_s`.
    pub fn bar_transmission(&self, t_s: f64) -> f64 {
        self.port_transmission(t_s, MziState::Bar)
    }

    fn port_transmission(&self, t_s: f64, port: MziState) -> f64 {
        let dphi = self.phase_at(t_s);
        let ideal = match port {
            MziState::Cross => (dphi / 2.0).cos().powi(2),
            MziState::Bar => (dphi / 2.0).sin().powi(2),
        };
        // Finite extinction: the dark port never goes below the leakage
        // floor set by imperfect couplers.
        let floor = Db::loss(self.params.extinction_ratio_db).to_linear();
        let il = Db::loss(self.params.insertion_loss_db).to_linear();
        (ideal.max(floor)) * il
    }

    /// Record the normalized optical amplitude at the port selected by
    /// `target` over a switch event at t=0, sampled every `dt_s` for
    /// `duration_s`. This regenerates the paper's Fig 3a trace.
    pub fn step_response_trace(
        &mut self,
        target: MziState,
        dt_s: f64,
        duration_s: f64,
    ) -> TimeSeries {
        assert!(dt_s > 0.0 && duration_s > dt_s, "bad sampling window");
        self.drive(target, 0.0);
        let il = Db::loss(self.params.insertion_loss_db).to_linear();
        let mut ts = TimeSeries::new();
        let steps = (duration_s / dt_s).ceil() as usize;
        for i in 0..=steps {
            let t = i as f64 * dt_s;
            let p = match target {
                MziState::Cross => self.cross_transmission(t),
                MziState::Bar => self.bar_transmission(t),
            };
            // Normalize out the static insertion loss: the scope trace in
            // Fig 3a is amplitude-normalized.
            ts.push(t, p / il);
        }
        ts
    }
}

/// Output ports of a 1×3 switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchPort {
    /// First output.
    Out0,
    /// Second output.
    Out1,
    /// Third output.
    Out2,
}

impl SwitchPort {
    /// All ports, in index order.
    pub const ALL: [SwitchPort; 3] = [SwitchPort::Out0, SwitchPort::Out1, SwitchPort::Out2];

    /// Port index in 0..3.
    pub fn index(self) -> usize {
        match self {
            SwitchPort::Out0 => 0,
            SwitchPort::Out1 => 1,
            SwitchPort::Out2 => 2,
        }
    }
}

/// A 1×3 optical switch: a two-stage tree of 2×2 MZIs, as on a LIGHTPATH
/// tile (each tile has four of these, §3).
///
/// Stage 1 routes the input either to `Out0` (bar) or onward to stage 2
/// (cross); stage 2 selects `Out1` (bar) or `Out2` (cross).
#[derive(Debug, Clone)]
pub struct Switch1x3 {
    stage1: Mzi,
    stage2: Mzi,
    selected: SwitchPort,
}

impl Switch1x3 {
    /// A settled switch pointing at `port`.
    pub fn new(params: MziParams, port: SwitchPort) -> Self {
        let (s1, s2) = Self::stage_states(port);
        Switch1x3 {
            stage1: Mzi::new(params, s1),
            stage2: Mzi::new(params, s2),
            selected: port,
        }
    }

    fn stage_states(port: SwitchPort) -> (MziState, MziState) {
        match port {
            SwitchPort::Out0 => (MziState::Bar, MziState::Bar),
            SwitchPort::Out1 => (MziState::Cross, MziState::Bar),
            SwitchPort::Out2 => (MziState::Cross, MziState::Cross),
        }
    }

    /// Command the switch to `port` at absolute time `now_s`; returns the
    /// reconfiguration latency in seconds (the slowest constituent MZI, i.e.
    /// 3.7 µs for any real state change with default parameters, 0 if
    /// already selected).
    pub fn select(&mut self, port: SwitchPort, now_s: f64) -> f64 {
        if port == self.selected {
            return 0.0;
        }
        let (s1, s2) = Self::stage_states(port);
        let l1 = self.stage1.drive(s1, now_s);
        let l2 = self.stage2.drive(s2, now_s);
        self.selected = port;
        l1.max(l2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ideal_params() -> MziParams {
        MziParams {
            insertion_loss_db: 0.0,
            ..MziParams::default()
        }
    }

    #[test]
    fn settled_states_route_power() {
        let m = Mzi::new(ideal_params(), MziState::Cross);
        assert!(m.cross_transmission(0.0) > 0.999);
        assert!(m.bar_transmission(0.0) < 0.01);
        let m = Mzi::new(ideal_params(), MziState::Bar);
        assert!(m.bar_transmission(0.0) > 0.999);
        assert!(m.cross_transmission(0.0) < 0.01);
    }

    #[test]
    fn extinction_floor_limits_dark_port() {
        let p = MziParams {
            extinction_ratio_db: 20.0,
            insertion_loss_db: 0.0,
            ..MziParams::default()
        };
        let m = Mzi::new(p, MziState::Cross);
        let dark = m.bar_transmission(0.0);
        assert!((dark - 0.01).abs() < 1e-9, "dark {dark}");
    }

    #[test]
    fn drive_reports_default_reconfiguration_latency() {
        let mut m = Mzi::new(MziParams::default(), MziState::Bar);
        let lat = m.drive(MziState::Cross, 0.0);
        assert!((lat - 3.7e-6).abs() < 1e-9, "latency {lat}");
        // Redundant drive is free.
        assert_eq!(m.drive(MziState::Cross, 10e-6), 0.0);
    }

    #[test]
    fn transition_is_continuous_and_settles() {
        let mut m = Mzi::new(ideal_params(), MziState::Bar);
        m.drive(MziState::Cross, 0.0);
        let before = m.cross_transmission(0.0);
        assert!(before < 0.02, "starts dark: {before}");
        let mid = m.cross_transmission(0.8e-6);
        assert!(mid > 0.05 && mid < 0.98, "mid-transition: {mid}");
        let after = m.cross_transmission(5e-6);
        assert!(after > 0.995, "settled: {after}");
    }

    #[test]
    fn step_response_trace_reaches_99pct_by_3_7us() {
        let mut m = Mzi::new(MziParams::default(), MziState::Bar);
        let ts = m.step_response_trace(MziState::Cross, 25e-9, 10e-6);
        let t99 = ts.first_crossing(0.99).expect("trace settles");
        assert!(
            (t99 - 3.7e-6).abs() < 0.3e-6,
            "99% crossing at {t99}, expected ~3.7e-6"
        );
        let last = ts.points().last().unwrap().1;
        assert!(last > 0.999);
    }

    #[test]
    fn switch_reconfiguration_latency_is_3_7us() {
        let mut s = Switch1x3::new(MziParams::default(), SwitchPort::Out0);
        let lat = s.select(SwitchPort::Out2, 0.0);
        assert!((lat - 3.7e-6).abs() < 1e-9);
        assert_eq!(s.select(SwitchPort::Out2, 1.0), 0.0);
    }
}
