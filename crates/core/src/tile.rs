//! One LIGHTPATH tile: the transceiver block under one accelerator.
//!
//! Circuit bookkeeping (waveguide capacity, wavelength claims, and the
//! 3.7 µs MZI reconfiguration charged per establish) lives at the wafer
//! level; the tile owns the *electrical-side* resources — its SerDes lane
//! pool — and the accelerator-failure flag.

use phy::serdes::SerdesPool;
use phy::wdm::WdmGrid;

/// A tile on the wafer grid with one accelerator stacked on top.
#[derive(Debug, Clone)]
pub struct Tile {
    /// SerDes lanes of the accelerator chip bonded to this tile.
    pub serdes: SerdesPool,
    /// True when the stacked accelerator has failed. Light still passes
    /// through the photonic layer, but the tile cannot source or sink.
    failed: bool,
}

impl Tile {
    /// A fresh tile with the given WDM plan.
    pub fn new(wdm: &WdmGrid) -> Self {
        Tile {
            serdes: SerdesPool::new(wdm.channels),
            failed: false,
        }
    }

    /// True when the stacked accelerator has failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Mark the stacked accelerator failed.
    pub fn fail(&mut self) {
        self.failed = true;
    }

    /// Restore the accelerator (chip replacement).
    pub fn restore(&mut self) {
        self.failed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Tile {
        Tile::new(&WdmGrid::default())
    }

    #[test]
    fn fresh_tile_has_full_serdes() {
        let t = tile();
        assert_eq!(t.serdes.tx_free(), 16);
        assert_eq!(t.serdes.rx_free(), 16);
        assert!(!t.is_failed());
    }

    #[test]
    fn failure_roundtrip() {
        let mut t = tile();
        t.fail();
        assert!(t.is_failed());
        t.restore();
        assert!(!t.is_failed());
    }
}
