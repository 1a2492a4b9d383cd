//! Simulation time: integer picoseconds.
//!
//! All simulated clocks in this workspace are integer picoseconds wrapped in
//! [`SimTime`] (an instant) or [`SimDuration`] (a span). Integer time keeps
//! the event schedule fully deterministic: two runs with the same seed
//! produce bit-identical event orders, which the reproduction harness relies
//! on. A picosecond granularity leaves headroom for both the fast photonic
//! timescales (MZI settling is microseconds, bit slots at 224 Gb/s are
//! ~4.5 ps) and long workload horizons (u64 picoseconds spans ~213 days).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

/// An instant on the simulated clock, in integer picoseconds since t=0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in integer picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant (used as an "infinity" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Instant `ps` picoseconds after the origin.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Raw picosecond count since the origin.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time since origin, as a [`SimDuration`].
    pub const fn since_origin(self) -> SimDuration {
        SimDuration(self.0)
    }

    /// Seconds since origin as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Microseconds since origin as a float (lossy; for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The longest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Span of `ps` picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Span of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Span of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Span of `ms` milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_S)
    }

    /// Span from fractional seconds, rounded to the nearest picosecond.
    ///
    /// Panics if `s` is negative, NaN, or too large for the clock.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration seconds must be finite and non-negative, got {s}"
        );
        let ps = s * PS_PER_S as f64;
        assert!(
            ps <= u64::MAX as f64,
            "duration {s}s overflows the ps clock"
        );
        SimDuration(ps.round() as u64)
    }

    /// Span from fractional microseconds, rounded to the nearest picosecond.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Seconds as a float (lossy; for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// Microseconds as a float (lossy; for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (zero-floored).
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Checked scaling by an integer factor.
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime overflow: instant + duration exceeds clock range"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: duration larger than instant"),
        )
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction: right operand is later than left"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    // Pick the largest unit that keeps the integer part non-zero.
    if ps == 0 {
        write!(f, "0ps")
    } else if ps.is_multiple_of(PS_PER_S) {
        write!(f, "{}s", ps / PS_PER_S)
    } else if ps >= PS_PER_S {
        write!(f, "{:.3}s", ps as f64 / PS_PER_S as f64)
    } else if ps >= PS_PER_MS {
        write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        write!(f, "{ps}ps")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimDuration::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimDuration::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_S);
    }

    #[test]
    fn float_roundtrip_is_close() {
        let d = SimDuration::from_secs_f64(3.7e-6);
        assert_eq!(d.as_ps(), 3_700_000);
        assert!((d.as_micros_f64() - 3.7).abs() < 1e-9);
    }

    #[test]
    fn instant_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_us(5);
        let u = t + SimDuration::from_us(3);
        assert_eq!(u - t, SimDuration::from_us(3));
        assert_eq!(u.saturating_since(t).as_ps(), 3 * PS_PER_US);
        assert_eq!(t.saturating_since(u), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "right operand is later than left")]
    fn backwards_subtraction_panics() {
        let _ = SimTime::from_ps(1) - SimTime::from_ps(2);
    }

    #[test]
    fn duration_scaling() {
        assert_eq!(SimDuration::from_ns(3) * 4, SimDuration::from_ns(12));
        assert_eq!(SimDuration::from_ns(12) / 4, SimDuration::from_ns(3));
        assert!((SimDuration::from_ns(12) / SimDuration::from_ns(4) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_picks_readable_units() {
        assert_eq!(SimDuration::ZERO.to_string(), "0ps");
        assert_eq!(SimDuration::from_ps(500).to_string(), "500ps");
        assert_eq!(SimDuration::from_us(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2s");
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_float_duration_panics() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }
}
