//! Wavelength-division multiplexing grid.
//!
//! Each LIGHTPATH tile has **16 wavelength-multiplexed lasers** and each
//! wavelength sustains **224 Gb/s** (paper §3). A [`WdmGrid`] describes the
//! channel plan; a [`LambdaSet`] is a bitmask of channels in use on a
//! waveguide, used by the circuit layer to pack multiple circuits onto the
//! same physical guide without collisions.

use crate::units::Gbps;
use std::fmt;

/// Number of WDM channels per LIGHTPATH tile.
pub const LAMBDAS_PER_TILE: usize = 16;

/// Per-wavelength line rate measured on LIGHTPATH.
pub const RATE_PER_LAMBDA: Gbps = Gbps(224.0);

/// A wavelength channel index on the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lambda(pub u8);

/// A WDM channel plan: evenly spaced channels around a center wavelength.
#[derive(Debug, Clone, Copy)]
pub struct WdmGrid {
    /// Number of channels.
    pub channels: usize,
    /// First channel's wavelength, nm.
    pub start_nm: f64,
    /// Channel spacing, nm (100 GHz ≈ 0.8 nm in the C-band).
    pub spacing_nm: f64,
    /// Line rate per channel.
    pub rate: Gbps,
}

impl Default for WdmGrid {
    fn default() -> Self {
        WdmGrid {
            channels: LAMBDAS_PER_TILE,
            start_nm: 1290.0,
            spacing_nm: 0.8,
            rate: RATE_PER_LAMBDA,
        }
    }
}

impl WdmGrid {
    /// Aggregate rate of the full grid.
    pub fn aggregate_rate(&self) -> Gbps {
        Gbps(self.rate.0 * self.channels as f64)
    }
}

/// A set of wavelength channels, stored as a bitmask (supports grids of up
/// to 64 channels, far above LIGHTPATH's 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct LambdaSet(u64);

impl LambdaSet {
    /// The empty set.
    pub const EMPTY: LambdaSet = LambdaSet(0);

    /// The raw channel bitmask (bit `i` ⇔ λᵢ), for canonical snapshot
    /// serialization. Round-trips exactly through
    /// [`from_bits`](Self::from_bits).
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild a set from a [`bits`](Self::bits) mask.
    pub const fn from_bits(bits: u64) -> Self {
        LambdaSet(bits)
    }

    /// The set {λ}.
    pub fn single(l: Lambda) -> Self {
        assert!((l.0 as usize) < 64, "lambda index {} too large", l.0);
        LambdaSet(1 << l.0)
    }

    /// The full set of the first `n` channels.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= 64, "at most 64 channels supported");
        if n == 64 {
            LambdaSet(u64::MAX)
        } else {
            LambdaSet((1u64 << n) - 1)
        }
    }

    /// Insert a channel; returns `true` if it was newly added.
    pub fn insert(&mut self, l: Lambda) -> bool {
        let bit = 1u64 << l.0;
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Remove a channel; returns `true` if it was present.
    pub fn remove(&mut self, l: Lambda) -> bool {
        let bit = 1u64 << l.0;
        let had = self.0 & bit != 0;
        self.0 &= !bit;
        had
    }

    /// Membership test.
    pub fn contains(&self, l: Lambda) -> bool {
        self.0 & (1 << l.0) != 0
    }

    /// Number of channels in the set.
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// True when no channels are present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set union.
    pub fn union(self, other: LambdaSet) -> LambdaSet {
        LambdaSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(self, other: LambdaSet) -> LambdaSet {
        LambdaSet(self.0 & other.0)
    }

    /// Channels in `self` but not `other`.
    pub fn difference(self, other: LambdaSet) -> LambdaSet {
        LambdaSet(self.0 & !other.0)
    }

    /// True when the sets share no channel (circuits can share a waveguide).
    pub fn is_disjoint(&self, other: &LambdaSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterate over members in ascending channel order.
    pub fn iter(&self) -> impl Iterator<Item = Lambda> + '_ {
        let bits = self.0;
        (0..64u8).filter(move |i| bits & (1 << i) != 0).map(Lambda)
    }

    /// The lowest `k` channels from this set, if at least `k` exist.
    pub fn take_lowest(&self, k: usize) -> Option<LambdaSet> {
        if self.len() < k {
            return None;
        }
        let mut out = LambdaSet::EMPTY;
        for l in self.iter().take(k) {
            out.insert(l);
        }
        Some(out)
    }

    /// Aggregate data rate carried by this set on a grid.
    pub fn rate(&self, grid: &WdmGrid) -> Gbps {
        Gbps(grid.rate.0 * self.len() as f64)
    }
}

impl fmt::Display for LambdaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, l) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "λ{}", l.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Lambda> for LambdaSet {
    fn from_iter<T: IntoIterator<Item = Lambda>>(iter: T) -> Self {
        let mut s = LambdaSet::EMPTY;
        for l in iter {
            s.insert(l);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_paper_capabilities() {
        let g = WdmGrid::default();
        assert_eq!(g.channels, 16);
        assert_eq!(g.rate.0, 224.0);
        // 16 λ × 224 Gb/s = 3.584 Tb/s per tile egress.
        assert!((g.aggregate_rate().0 - 3584.0).abs() < 1e-9);
    }

    #[test]
    fn set_operations() {
        let mut s = LambdaSet::EMPTY;
        assert!(s.insert(Lambda(3)));
        assert!(!s.insert(Lambda(3)));
        assert!(s.insert(Lambda(7)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Lambda(3)));
        assert!(!s.contains(Lambda(4)));
        assert!(s.remove(Lambda(3)));
        assert!(!s.remove(Lambda(3)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn disjointness_detects_collisions() {
        let a: LambdaSet = [Lambda(0), Lambda(1)].into_iter().collect();
        let b: LambdaSet = [Lambda(2), Lambda(3)].into_iter().collect();
        let c: LambdaSet = [Lambda(1), Lambda(2)].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(c).len(), 1);
        assert_eq!(a.difference(c).iter().next(), Some(Lambda(0)));
    }

    #[test]
    fn first_n_and_take_lowest() {
        let full = LambdaSet::first_n(16);
        assert_eq!(full.len(), 16);
        let four = full.take_lowest(4).unwrap();
        assert_eq!(four.len(), 4);
        assert!(four.contains(Lambda(0)) && four.contains(Lambda(3)));
        assert!(!four.contains(Lambda(4)));
        assert_eq!(LambdaSet::first_n(2).take_lowest(3), None);
    }

    #[test]
    fn set_rate_scales_with_members() {
        let g = WdmGrid::default();
        let s = LambdaSet::first_n(4);
        assert!((s.rate(&g).0 - 896.0).abs() < 1e-9);
    }

    #[test]
    fn display_formats_channels() {
        let s: LambdaSet = [Lambda(0), Lambda(5)].into_iter().collect();
        assert_eq!(s.to_string(), "{λ0,λ5}");
    }
}
