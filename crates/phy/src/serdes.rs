//! SerDes port accounting.
//!
//! The paper notes (§3) that although waveguides are abundant — over 10,000
//! per tile — "the number of connections that can be made by one LIGHTPATH
//! tile is limited by the number of SerDes ports available in the electrical
//! chip". This module models that electrical-side constraint: a pool of
//! full-duplex SerDes lanes that transmit/receive one wavelength each.

use crate::wdm::LambdaSet;

/// A pool of SerDes lanes on the accelerator chip bonded to a tile.
///
/// Each lane drives one modulator (Tx) or one photodetector (Rx) at the
/// per-λ line rate; the pool therefore caps how many wavelengths a chip can
/// simultaneously source or sink, independent of how many waveguides exist.
#[derive(Debug, Clone)]
pub struct SerdesPool {
    lanes: usize,
    tx_in_use: LambdaSet,
    rx_in_use: LambdaSet,
}

impl SerdesPool {
    /// A pool of `lanes` full-duplex lanes.
    ///
    /// Panics if `lanes` is 0 or exceeds the 64-channel ceiling of
    /// [`LambdaSet`].
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0 && lanes <= 64, "lanes must be in 1..=64");
        SerdesPool {
            lanes,
            tx_in_use: LambdaSet::EMPTY,
            rx_in_use: LambdaSet::EMPTY,
        }
    }

    /// Total lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Lanes currently free in the transmit direction.
    pub fn tx_free(&self) -> usize {
        self.lanes - self.tx_in_use.len()
    }

    /// Lanes currently free in the receive direction.
    pub fn rx_free(&self) -> usize {
        self.lanes - self.rx_in_use.len()
    }

    /// Claim `k` transmit lanes bound to specific wavelengths. Fails
    /// (returning `None`, claiming nothing) if fewer than `k` lanes are free
    /// or any wavelength is already in use.
    pub fn claim_tx(&mut self, lambdas: LambdaSet) -> Option<LambdaSet> {
        if !self.tx_in_use.is_disjoint(&lambdas)
            || self.tx_in_use.len() + lambdas.len() > self.lanes
        {
            return None;
        }
        self.tx_in_use = self.tx_in_use.union(lambdas);
        Some(lambdas)
    }

    /// Claim receive lanes bound to specific wavelengths; all-or-nothing.
    pub fn claim_rx(&mut self, lambdas: LambdaSet) -> Option<LambdaSet> {
        if !self.rx_in_use.is_disjoint(&lambdas)
            || self.rx_in_use.len() + lambdas.len() > self.lanes
        {
            return None;
        }
        self.rx_in_use = self.rx_in_use.union(lambdas);
        Some(lambdas)
    }

    /// Release transmit lanes. Panics if any was not claimed (double-free).
    pub fn release_tx(&mut self, lambdas: LambdaSet) {
        assert_eq!(
            self.tx_in_use.intersection(lambdas),
            lambdas,
            "releasing unclaimed tx lanes"
        );
        self.tx_in_use = self.tx_in_use.difference(lambdas);
    }

    /// Release receive lanes. Panics if any was not claimed.
    pub fn release_rx(&mut self, lambdas: LambdaSet) {
        assert_eq!(
            self.rx_in_use.intersection(lambdas),
            lambdas,
            "releasing unclaimed rx lanes"
        );
        self.rx_in_use = self.rx_in_use.difference(lambdas);
    }

    /// Wavelengths free in the transmit direction.
    pub fn tx_available(&self) -> LambdaSet {
        LambdaSet::first_n(self.lanes).difference(self.tx_in_use)
    }

    /// Wavelengths free in the receive direction.
    pub fn rx_available(&self) -> LambdaSet {
        LambdaSet::first_n(self.lanes).difference(self.rx_in_use)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wdm::Lambda;

    #[test]
    fn claim_and_release_roundtrip() {
        let mut p = SerdesPool::new(4);
        let set = LambdaSet::first_n(3);
        assert!(p.claim_tx(set).is_some());
        assert_eq!(p.tx_free(), 1);
        assert_eq!(p.rx_free(), 4, "rx unaffected by tx claims");
        p.release_tx(set);
        assert_eq!(p.tx_free(), 4);
    }

    #[test]
    fn overlapping_claim_fails_atomically() {
        let mut p = SerdesPool::new(4);
        let a: LambdaSet = [Lambda(0), Lambda(1)].into_iter().collect();
        let b: LambdaSet = [Lambda(1), Lambda(2)].into_iter().collect();
        assert!(p.claim_tx(a).is_some());
        assert!(p.claim_tx(b).is_none(), "λ1 is taken");
        assert_eq!(p.tx_free(), 2, "failed claim took nothing");
    }

    #[test]
    fn capacity_claim_fails() {
        let mut p = SerdesPool::new(2);
        assert!(p.claim_rx(LambdaSet::first_n(2)).is_some());
        let more = LambdaSet::single(Lambda(5));
        assert!(p.claim_rx(more).is_none());
    }

    #[test]
    fn availability_tracks_claims() {
        let mut p = SerdesPool::new(4);
        let a = LambdaSet::single(Lambda(2));
        p.claim_tx(a);
        let avail = p.tx_available();
        assert_eq!(avail.len(), 3);
        assert!(!avail.contains(Lambda(2)));
    }

    #[test]
    #[should_panic(expected = "unclaimed")]
    fn double_release_panics() {
        let mut p = SerdesPool::new(4);
        p.release_tx(LambdaSet::single(Lambda(0)));
    }
}
