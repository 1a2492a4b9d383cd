//! Optical circuit switches on the rack faces (paper §4, Fig 5a).
//!
//! "TPUs on every face of the cube are connected to OCSes which can be
//! reconfigured to build larger 3D tori with multiple cubes." An OCS is a
//! port-to-port crossbar: each chip on a cube face owns one port; the
//! switch's mapping decides whether a face wraps onto the opposite face of
//! the *same* cube (standalone 4×4×4 torus) or onto the facing side of
//! *another* cube (composing a 4×4×8, 4×4×16, … torus). Reconfiguring the
//! mapping is how TPUv4 migrates jobs between rack sets — the expensive
//! rack-granularity response whose blast radius §4.2 attacks.

use crate::coords::{Dim, Shape3};
use std::collections::BTreeMap;

/// One port of an OCS: a chip position on some cube's face.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OcsPort {
    /// Cube (rack) index.
    pub cube: usize,
    /// Which face of the cube (the dimension whose boundary it sits on).
    pub dim: Dim,
    /// `true` for the high face (coordinate = extent−1), `false` for the
    /// low face (coordinate = 0).
    pub high: bool,
    /// Position within the face (the two perpendicular coordinates,
    /// flattened row-major).
    pub index: usize,
}

/// A circulator-style OCS for one dimension of a row of cubes: maps every
/// high-face port to some cube's low-face port (same position), closing the
/// wraparound links.
#[derive(Debug, Clone)]
pub struct Ocs {
    cubes: usize,
    face_ports: usize,
    /// For each cube, which cube its high face feeds (same-face-position
    /// wiring, as in TPUv4's per-dimension OCS banks).
    high_to_low: BTreeMap<usize, usize>,
    reconfigs: u64,
}

impl Ocs {
    /// An OCS bank for dimension `d` over `cubes` cubes of shape
    /// `cube_shape`, initially configured as standalone tori (each cube's
    /// high face wraps to its own low face).
    pub fn new(d: Dim, cubes: usize, cube_shape: Shape3) -> Self {
        assert!(cubes >= 1);
        let perp: Vec<Dim> = Dim::ALL.into_iter().filter(|&x| x != d).collect();
        let face_ports = cube_shape.extent(perp[0]) * cube_shape.extent(perp[1]);
        Ocs {
            cubes,
            face_ports,
            high_to_low: (0..cubes).map(|c| (c, c)).collect(),
            reconfigs: 0,
        }
    }

    /// Ports per face.
    pub fn face_ports(&self) -> usize {
        self.face_ports
    }

    /// Which cube's low face the given cube's high face currently feeds.
    pub fn destination(&self, cube: usize) -> usize {
        self.high_to_low[&cube]
    }

    /// Reconfigurations performed.
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// Program the bank to chain `group` into one big torus along the
    /// dimension: `cube[i]` high → `cube[i+1]` low, last wrapping to first.
    /// Cubes outside the group are left untouched.
    ///
    /// Panics if the group has duplicates or out-of-range cubes.
    pub fn compose(&mut self, group: &[usize]) {
        assert!(!group.is_empty());
        let mut sorted = group.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), group.len(), "group has duplicate cubes");
        assert!(
            group.iter().all(|&c| c < self.cubes),
            "cube index out of range"
        );
        for (i, &c) in group.iter().enumerate() {
            let next = group[(i + 1) % group.len()];
            self.high_to_low.insert(c, next);
        }
        self.reconfigs += 1;
    }

    /// Split every cube in `group` back into a standalone torus.
    pub fn isolate(&mut self, group: &[usize]) {
        for &c in group {
            assert!(c < self.cubes, "cube index out of range");
            self.high_to_low.insert(c, c);
        }
        self.reconfigs += 1;
    }

    /// The composed torus groups implied by the current mapping: each
    /// cycle of the high→low permutation.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.cubes];
        let mut out = Vec::new();
        for start in 0..self.cubes {
            if seen[start] {
                continue;
            }
            let mut cycle = vec![start];
            seen[start] = true;
            let mut cur = self.destination(start);
            while cur != start {
                seen[cur] = true;
                cycle.push(cur);
                cur = self.destination(cur);
            }
            out.push(cycle);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CUBE: Shape3 = Shape3::rack_4x4x4();

    #[test]
    fn fresh_bank_isolates_every_cube() {
        let ocs = Ocs::new(Dim::Z, 4, CUBE);
        assert_eq!(ocs.face_ports(), 16);
        assert_eq!(ocs.groups().len(), 4);
        for c in 0..4 {
            assert_eq!(ocs.destination(c), c);
        }
    }

    #[test]
    fn composing_builds_one_cycle() {
        let mut ocs = Ocs::new(Dim::Z, 4, CUBE);
        ocs.compose(&[0, 2, 3]);
        let groups = ocs.groups();
        // One 3-cycle plus the untouched cube 1.
        assert_eq!(groups.len(), 2);
        let big = groups.iter().find(|g| g.len() == 3).unwrap();
        assert_eq!(big, &vec![0, 2, 3]);
        assert_eq!(ocs.destination(0), 2);
        assert_eq!(ocs.destination(3), 0);
        assert_eq!(ocs.destination(1), 1);
        assert_eq!(ocs.reconfigs(), 1);
    }

    #[test]
    fn isolate_reverses_compose() {
        let mut ocs = Ocs::new(Dim::Z, 3, CUBE);
        ocs.compose(&[0, 1, 2]);
        assert_eq!(ocs.groups().len(), 1);
        ocs.isolate(&[0, 1, 2]);
        assert_eq!(ocs.groups().len(), 3);
        assert_eq!(ocs.reconfigs(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_group_rejected() {
        let mut ocs = Ocs::new(Dim::Z, 3, CUBE);
        ocs.compose(&[0, 0]);
    }
}
