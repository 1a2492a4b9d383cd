//! Modulation formats: how 224 Gb/s per wavelength actually happens.
//!
//! LIGHTPATH's measured 224 Gb/s per λ (§3) is the product of a baud rate
//! and a format: 112 GBd PAM4 (2 bits/symbol) in practice. The format
//! matters to the link budget — PAM4's four levels squeeze the eye to a
//! third of the NRZ amplitude, costing ~9.5 dB of sensitivity — so the
//! choice is a real trade: NRZ at the same baud carries half the bits but
//! tolerates far more path loss.

use crate::devices::Photodetector;
use crate::math::ber_from_q;
use crate::units::{Dbm, Gbps, Milliwatts};

/// Line-coding format of a wavelength channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Two-level on-off keying: 1 bit/symbol.
    Nrz,
    /// Four-level pulse amplitude modulation: 2 bits/symbol.
    Pam4,
}

impl Format {
    /// Bits carried per symbol.
    pub fn bits_per_symbol(self) -> f64 {
        match self {
            Format::Nrz => 1.0,
            Format::Pam4 => 2.0,
        }
    }

    /// Eye-amplitude factor relative to NRZ at the same optical swing:
    /// PAM4 splits the swing into 3 eyes, each 1/3 of the NRZ eye.
    pub fn eye_fraction(self) -> f64 {
        match self {
            Format::Nrz => 1.0,
            Format::Pam4 => 1.0 / 3.0,
        }
    }
}

/// A modulated channel: baud rate × format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Symbol rate, gigabaud.
    pub gbaud: f64,
    /// Line coding.
    pub format: Format,
}

impl Channel {
    /// The LIGHTPATH channel: 112 GBd PAM4 → 224 Gb/s.
    pub fn lightpath_default() -> Self {
        Channel {
            gbaud: 112.0,
            format: Format::Pam4,
        }
    }

    /// Data rate.
    pub fn rate(&self) -> Gbps {
        Gbps(self.gbaud * self.format.bits_per_symbol())
    }

    /// Q-factor at received power `p` on detector `pd`, accounting for the
    /// format's eye compression (receiver bandwidth tracks the baud rate).
    pub fn q_factor(&self, pd: &Photodetector, p: Milliwatts) -> f64 {
        // Bandwidth follows symbols, not bits: evaluate at the baud rate
        // as an equivalent NRZ stream, then shrink the eye.
        let nrz_equivalent = Gbps(self.gbaud);
        pd.q_factor(p, nrz_equivalent) * self.format.eye_fraction()
    }

    /// BER at received power `p`.
    pub fn ber(&self, pd: &Photodetector, p: Milliwatts) -> f64 {
        ber_from_q(self.q_factor(pd, p))
    }

    /// Receiver sensitivity at `target_ber` (bisection over power).
    pub fn sensitivity(&self, pd: &Photodetector, target_ber: f64) -> Dbm {
        let q_needed = crate::math::q_from_ber(target_ber);
        let (mut lo, mut hi) = (1e-9f64, 1e3f64); // mW
        for _ in 0..200 {
            let mid = (lo * hi).sqrt();
            if self.q_factor(pd, Milliwatts(mid)) < q_needed {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Milliwatts((lo * hi).sqrt()).to_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lightpath_channel_is_224g() {
        let c = Channel::lightpath_default();
        assert_eq!(c.rate().0, 224.0);
        assert_eq!(c.format.bits_per_symbol(), 2.0);
    }

    #[test]
    fn pam4_needs_more_power_than_nrz_at_same_baud() {
        let pd = Photodetector::default();
        let nrz = Channel {
            gbaud: 112.0,
            format: Format::Nrz,
        };
        let pam4 = Channel {
            gbaud: 112.0,
            format: Format::Pam4,
        };
        let s_nrz = nrz.sensitivity(&pd, 1e-12);
        let s_pam4 = pam4.sensitivity(&pd, 1e-12);
        let gap = (s_pam4 - s_nrz).0;
        // Eye is 1/3 → ~10·log10(3) ≈ 4.8 dB optical (thermal-limited).
        assert!(
            (4.0..6.0).contains(&gap),
            "PAM4 penalty {gap} dB at equal baud"
        );
    }

    #[test]
    fn ber_is_monotone_in_power_for_both_formats() {
        let pd = Photodetector::default();
        for format in [Format::Nrz, Format::Pam4] {
            let c = Channel {
                gbaud: 112.0,
                format,
            };
            let mut prev = 0.5;
            for p_dbm in [-20.0, -15.0, -10.0, -5.0, 0.0] {
                let ber = c.ber(&pd, Dbm(p_dbm).to_mw());
                assert!(ber <= prev + 1e-15, "{format:?} at {p_dbm} dBm");
                prev = ber;
            }
        }
    }

    #[test]
    fn sensitivity_achieves_target() {
        let pd = Photodetector::default();
        let c = Channel::lightpath_default();
        let s = c.sensitivity(&pd, 1e-12);
        let ber = c.ber(&pd, s.to_mw());
        assert!((ber.log10() - (-12.0)).abs() < 0.1, "BER {ber:e}");
    }
}
