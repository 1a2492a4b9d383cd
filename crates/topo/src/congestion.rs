//! Link-load accounting and the paper's congestion test.
//!
//! "We define congestion in a direct-connect topology as the scenario where
//! multiple transfers occur simultaneously on the same link" (§4.1). A
//! [`LoadMap`] accumulates the directed links of every simultaneous
//! transfer; any link with load > 1 is congested. The Fig 5b/6a/6b analyses
//! are all instances of building a load map from ring schedules and repair
//! paths and checking this predicate.

use crate::coords::{Coord3, Dim};
use crate::slice::Slice;
use crate::torus::{DirLink, Torus};
use std::collections::BTreeMap;

/// Accumulated directed-link loads for a set of simultaneous transfers.
#[derive(Debug, Clone, Default)]
pub struct LoadMap {
    loads: BTreeMap<DirLink, u32>,
}

impl LoadMap {
    /// An empty load map.
    pub fn new() -> Self {
        LoadMap::default()
    }

    /// Account one transfer crossing `link`.
    pub fn add_link(&mut self, link: DirLink) {
        *self.loads.entry(link).or_insert(0) += 1;
    }

    /// Account a transfer along a multi-hop path.
    pub fn add_path(&mut self, path: &[DirLink]) {
        for &l in path {
            self.add_link(l);
        }
    }

    /// Account the full-cycle ring of a slice line: every chip of the
    /// dimension-`d` cycle through `through` sends to its +d neighbour.
    ///
    /// Per the paper's model, a ring in `d` rides the *full physical cycle*
    /// of that dimension (partial-extent rings cannot shortcut back), which
    /// is exactly what makes stacked slices share links (Fig 5b).
    pub fn add_ring(&mut self, torus: &Torus, through: Coord3, d: Dim) {
        for l in torus.ring_links(through, d) {
            self.add_link(l);
        }
    }

    /// Account every ring of `slice` in dimension `d` (one per line of the
    /// slice footprint perpendicular to `d`).
    pub fn add_slice_rings(&mut self, torus: &Torus, slice: &Slice, d: Dim) {
        for line in slice.ring_lines(d) {
            // All chips of a line lie on the same full cycle; add it once.
            self.add_ring(torus, line[0], d);
        }
    }

    /// The largest load on any link (0 when empty).
    pub fn max_load(&self) -> u32 {
        self.loads.values().copied().max().unwrap_or(0)
    }

    /// Links carrying more than one simultaneous transfer, with their loads.
    pub fn congested_links(&self) -> Vec<(DirLink, u32)> {
        self.loads
            .iter()
            .filter(|&(_, &l)| l > 1)
            .map(|(&k, &v)| (k, v))
            .collect()
    }

    /// The paper's congestion predicate: no link carries two transfers.
    pub fn is_congestion_free(&self) -> bool {
        self.max_load() <= 1
    }

    /// Number of distinct links carrying any traffic.
    pub fn links_used(&self) -> usize {
        self.loads.len()
    }

    /// Merge another load map into this one (simultaneous transfer sets).
    pub fn merge(&mut self, other: &LoadMap) {
        for (&l, &n) in &other.loads {
            *self.loads.entry(l).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Shape3;
    use crate::slice::Slice;

    fn rack() -> Torus {
        Torus::new(Shape3::rack_4x4x4())
    }

    #[test]
    fn single_ring_is_congestion_free() {
        let t = rack();
        let mut m = LoadMap::new();
        m.add_ring(&t, Coord3::new(0, 0, 0), Dim::X);
        assert!(m.is_congestion_free());
        assert_eq!(m.links_used(), 4);
        assert_eq!(m.max_load(), 1);
    }

    #[test]
    fn overlapping_rings_congest() {
        let t = rack();
        let mut m = LoadMap::new();
        // Two slices both running Z rings through the same column share all
        // four Z links of the cycle — Fig 5b's scenario.
        m.add_ring(&t, Coord3::new(0, 0, 0), Dim::Z);
        m.add_ring(&t, Coord3::new(0, 0, 2), Dim::Z);
        assert!(!m.is_congestion_free());
        assert_eq!(m.max_load(), 2);
        assert_eq!(m.congested_links().len(), 4);
    }

    #[test]
    fn parallel_rings_in_different_lines_coexist() {
        let t = rack();
        let mut m = LoadMap::new();
        m.add_ring(&t, Coord3::new(0, 0, 0), Dim::X);
        m.add_ring(&t, Coord3::new(0, 1, 0), Dim::X);
        m.add_ring(&t, Coord3::new(0, 2, 0), Dim::X);
        assert!(m.is_congestion_free());
        assert_eq!(m.links_used(), 12);
    }

    #[test]
    fn slice_rings_cover_every_line() {
        let t = rack();
        let s = Slice::new(3, Coord3::new(0, 0, 1), Shape3::new(4, 4, 1));
        let mut m = LoadMap::new();
        m.add_slice_rings(&t, &s, Dim::X);
        // 4 lines × 4 links, all distinct, no congestion.
        assert_eq!(m.links_used(), 16);
        assert!(m.is_congestion_free());
    }

    #[test]
    fn fig5b_z_rings_of_stacked_slices_share_links() {
        // Two 4×4×2 slices stacked in Z: each line's Z ring must ride the
        // full 4-cycle, so the two tenants collide on every Z link.
        let t = rack();
        let a = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 4, 2));
        let b = Slice::new(2, Coord3::new(0, 0, 2), Shape3::new(4, 4, 2));
        let mut m = LoadMap::new();
        m.add_slice_rings(&t, &a, Dim::Z);
        m.add_slice_rings(&t, &b, Dim::Z);
        assert!(!m.is_congestion_free());
        // Every Z link of the rack is doubly loaded: 16 columns × 4 links.
        assert_eq!(m.congested_links().len(), 64);
        assert_eq!(m.max_load(), 2);
    }

    #[test]
    fn path_and_merge_accounting() {
        let t = rack();
        let path = t.route(Coord3::new(0, 0, 0), Coord3::new(2, 1, 0));
        let mut a = LoadMap::new();
        a.add_path(&path);
        assert_eq!(a.links_used(), 3);
        let mut b = LoadMap::new();
        b.add_path(&path);
        a.merge(&b);
        assert_eq!(a.max_load(), 2);
        assert!(!a.is_congestion_free());
    }
}
