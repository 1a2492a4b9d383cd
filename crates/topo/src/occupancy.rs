//! Chip ownership within a torus: which slice holds which chip, which chips
//! are free, and first-fit placement of new slices.

use crate::coords::{Coord3, Dim, Shape3};
use crate::slice::{Slice, SliceId};
use crate::torus::Torus;
use std::collections::BTreeMap;

/// Occupancy state of one torus (a rack, or a multi-rack composition).
#[derive(Debug, Clone)]
pub struct Occupancy {
    torus: Torus,
    owner: Vec<Option<SliceId>>,
    slices: BTreeMap<SliceId, Slice>,
    /// Chips whose accelerator has failed (still owned, but unusable).
    failed: Vec<bool>,
}

/// Errors from slice placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The slice's box overhangs the torus.
    OutOfBounds,
    /// A chip in the slice's box is already owned.
    Occupied(Coord3),
    /// The slice id is already in use.
    DuplicateId(SliceId),
    /// No free box of the requested extent exists.
    NoSpace,
}

impl Occupancy {
    /// An empty torus.
    pub fn new(shape: Shape3) -> Self {
        let torus = Torus::new(shape);
        let n = shape.volume();
        Occupancy {
            torus,
            owner: vec![None; n],
            slices: BTreeMap::new(),
            failed: vec![false; n],
        }
    }

    /// The underlying torus.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Shape of the torus.
    pub fn shape(&self) -> Shape3 {
        self.torus.shape
    }

    /// Owner of a chip.
    pub fn owner(&self, c: Coord3) -> Option<SliceId> {
        self.owner[self.torus.shape.index_of(c)]
    }

    /// True when the chip is unowned.
    pub fn is_free(&self, c: Coord3) -> bool {
        self.owner(c).is_none()
    }

    /// All unowned chips.
    pub fn free_chips(&self) -> Vec<Coord3> {
        self.torus
            .shape
            .coords()
            .filter(|&c| self.is_free(c))
            .collect()
    }

    /// All unowned chips whose accelerator also works.
    pub fn healthy_free_chips(&self) -> Vec<Coord3> {
        self.torus
            .shape
            .coords()
            .filter(|&c| self.is_free(c) && !self.is_failed(c))
            .collect()
    }

    /// Place a slice at its stated origin. All-or-nothing.
    pub fn place(&mut self, slice: Slice) -> Result<(), PlaceError> {
        if self.slices.contains_key(&slice.id) {
            return Err(PlaceError::DuplicateId(slice.id));
        }
        if !slice.fits(self.torus.shape) {
            return Err(PlaceError::OutOfBounds);
        }
        for c in slice.coords() {
            if !self.is_free(c) {
                return Err(PlaceError::Occupied(c));
            }
        }
        for c in slice.coords() {
            let i = self.torus.shape.index_of(c);
            self.owner[i] = Some(slice.id);
        }
        self.slices.insert(slice.id, slice);
        Ok(())
    }

    /// True when a box of `extent` can never be carved from this torus:
    /// empty in some dimension, or larger than the torus in some dimension.
    /// Guarding on this keeps the free-scan from probing out-of-bounds
    /// coordinates — an infeasible request is an outcome, not a panic.
    fn extent_infeasible(&self, extent: Shape3) -> bool {
        let shape = self.torus.shape;
        Dim::ALL
            .iter()
            .any(|&d| extent.extent(d) == 0 || extent.extent(d) > shape.extent(d))
    }

    /// First-fit placement: find the lowest (Z, then Y, then X) origin where
    /// a box of `extent` is free, place it there with id `id`.
    pub fn place_first_fit(&mut self, id: u32, extent: Shape3) -> Result<Slice, PlaceError> {
        if self.extent_infeasible(extent) {
            return Err(PlaceError::NoSpace);
        }
        let shape = self.torus.shape;
        for z in 0..=(shape.extent(Dim::Z).saturating_sub(extent.extent(Dim::Z))) {
            for y in 0..=(shape.extent(Dim::Y).saturating_sub(extent.extent(Dim::Y))) {
                for x in 0..=(shape.extent(Dim::X).saturating_sub(extent.extent(Dim::X))) {
                    let cand = Slice::new(id, Coord3::new(x, y, z), extent);
                    if cand.coords().all(|c| self.is_free(c)) {
                        self.place(cand)?;
                        return Ok(cand);
                    }
                }
            }
        }
        Err(PlaceError::NoSpace)
    }

    /// Best-fit placement: among all free origins for `extent`, choose the
    /// snuggest — the one whose box touches the most occupied chips or
    /// walls — to keep free space contiguous. Ties break toward the lowest
    /// (Z, Y, X) origin, so best-fit degenerates to first-fit on an empty
    /// torus.
    pub fn place_best_fit(&mut self, id: u32, extent: Shape3) -> Result<Slice, PlaceError> {
        if self.extent_infeasible(extent) {
            return Err(PlaceError::NoSpace);
        }
        let shape = self.torus.shape;
        let mut best: Option<(usize, Coord3)> = None;
        for z in 0..=(shape.extent(Dim::Z).saturating_sub(extent.extent(Dim::Z))) {
            for y in 0..=(shape.extent(Dim::Y).saturating_sub(extent.extent(Dim::Y))) {
                for x in 0..=(shape.extent(Dim::X).saturating_sub(extent.extent(Dim::X))) {
                    let cand = Slice::new(id, Coord3::new(x, y, z), extent);
                    if !cand.coords().all(|c| self.is_free(c)) {
                        continue;
                    }
                    let snug = self.snugness(&cand);
                    if best.is_none_or(|(s, _)| snug > s) {
                        best = Some((snug, cand.origin));
                    }
                }
            }
        }
        match best {
            Some((_, origin)) => {
                let slice = Slice::new(id, origin, extent);
                self.place(slice)?;
                Ok(slice)
            }
            None => Err(PlaceError::NoSpace),
        }
    }

    /// How many of the box's face-adjacent outside positions are occupied
    /// chips or torus walls (not applicable on a torus — counts occupied
    /// only) — higher is snugger.
    fn snugness(&self, slice: &Slice) -> usize {
        let shape = self.torus.shape;
        let mut snug = 0;
        for c in slice.coords() {
            for d in Dim::ALL {
                for neighbour in [c.next_in(d, shape), c.prev_in(d, shape)] {
                    if !slice.contains(neighbour) && !self.is_free(neighbour) {
                        snug += 1;
                    }
                }
            }
        }
        snug
    }

    /// Remove a slice, freeing its chips. Returns the removed slice.
    pub fn remove(&mut self, id: SliceId) -> Option<Slice> {
        let slice = self.slices.remove(&id)?;
        for c in slice.coords() {
            let i = self.torus.shape.index_of(c);
            self.owner[i] = None;
        }
        Some(slice)
    }

    /// Look up a slice.
    pub fn slice(&self, id: SliceId) -> Option<&Slice> {
        self.slices.get(&id)
    }

    /// All placed slices in id order.
    pub fn slices(&self) -> impl Iterator<Item = &Slice> {
        self.slices.values()
    }

    /// Mark a chip's accelerator failed.
    pub fn fail_chip(&mut self, c: Coord3) {
        let i = self.torus.shape.index_of(c);
        self.failed[i] = true;
    }

    /// Clear a chip's failure flag (repair/replacement).
    pub fn restore_chip(&mut self, c: Coord3) {
        let i = self.torus.shape.index_of(c);
        self.failed[i] = false;
    }

    /// True when the chip's accelerator has failed.
    pub fn is_failed(&self, c: Coord3) -> bool {
        self.failed[self.torus.shape.index_of(c)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> Occupancy {
        Occupancy::new(Shape3::rack_4x4x4())
    }

    #[test]
    fn place_and_remove_roundtrip() {
        let mut occ = rack();
        let s = Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1));
        occ.place(s).unwrap();
        assert_eq!(occ.owner(Coord3::new(3, 1, 0)), Some(SliceId(1)));
        assert_eq!(occ.free_chips().len(), 64 - 8);
        occ.remove(SliceId(1)).unwrap();
        assert_eq!(occ.free_chips().len(), 64);
        assert!(occ.remove(SliceId(1)).is_none());
    }

    #[test]
    fn overlapping_place_fails_atomically() {
        let mut occ = rack();
        occ.place(Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(4, 2, 1)))
            .unwrap();
        let err = occ
            .place(Slice::new(2, Coord3::new(0, 1, 0), Shape3::new(4, 2, 1)))
            .unwrap_err();
        assert!(matches!(err, PlaceError::Occupied(_)));
        // Nothing from the failed slice was committed.
        assert_eq!(occ.owner(Coord3::new(0, 2, 0)), None);
        assert!(occ.slice(SliceId(2)).is_none());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut occ = rack();
        occ.place(Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(1, 1, 1)))
            .unwrap();
        let err = occ
            .place(Slice::new(1, Coord3::new(2, 2, 2), Shape3::new(1, 1, 1)))
            .unwrap_err();
        assert_eq!(err, PlaceError::DuplicateId(SliceId(1)));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut occ = rack();
        let err = occ
            .place(Slice::new(1, Coord3::new(0, 3, 0), Shape3::new(4, 2, 1)))
            .unwrap_err();
        assert_eq!(err, PlaceError::OutOfBounds);
    }

    #[test]
    fn first_fit_packs_fig5b() {
        // The Fig 5b rack: two 4×2×1, one 4×4×1, one 4×4×2 fill the cube.
        let mut occ = rack();
        let s1 = occ.place_first_fit(1, Shape3::new(4, 2, 1)).unwrap();
        let s2 = occ.place_first_fit(2, Shape3::new(4, 2, 1)).unwrap();
        let s3 = occ.place_first_fit(3, Shape3::new(4, 4, 1)).unwrap();
        let s4 = occ.place_first_fit(4, Shape3::new(4, 4, 2)).unwrap();
        assert_eq!(s1.origin, Coord3::new(0, 0, 0));
        assert_eq!(s2.origin, Coord3::new(0, 2, 0));
        assert_eq!(s3.origin, Coord3::new(0, 0, 1));
        assert_eq!(s4.origin, Coord3::new(0, 0, 2));
        assert!(occ.free_chips().is_empty());
        let err = occ.place_first_fit(5, Shape3::new(1, 1, 1)).unwrap_err();
        assert_eq!(err, PlaceError::NoSpace);
    }

    #[test]
    fn best_fit_packs_snugly() {
        let mut occ = rack();
        // Occupy the bottom layer's left half.
        occ.place(Slice::new(1, Coord3::new(0, 0, 0), Shape3::new(2, 4, 1)))
            .unwrap();
        // Best-fit for a 2x4x1 should hug the existing slice (origin x=2)
        // rather than any equally-free spot in an upper layer.
        let s = occ.place_best_fit(2, Shape3::new(2, 4, 1)).unwrap();
        assert_eq!(s.origin, Coord3::new(2, 0, 0));
        // A third 4x4x1 then fits in layer 1 — nothing was fragmented.
        assert!(occ.place_best_fit(3, Shape3::new(4, 4, 1)).is_ok());
    }

    #[test]
    fn best_fit_equals_first_fit_on_empty_rack() {
        let mut a = rack();
        let mut b = rack();
        let fa = a.place_first_fit(1, Shape3::new(4, 2, 1)).unwrap();
        let fb = b.place_best_fit(1, Shape3::new(4, 2, 1)).unwrap();
        assert_eq!(fa.origin, fb.origin);
    }

    #[test]
    fn best_fit_reports_no_space() {
        let mut occ = rack();
        occ.place(Slice::new(1, Coord3::new(0, 0, 0), Shape3::rack_4x4x4()))
            .unwrap();
        assert_eq!(
            occ.place_best_fit(2, Shape3::new(1, 1, 1)).unwrap_err(),
            PlaceError::NoSpace
        );
    }

    #[test]
    fn oversized_and_empty_extents_are_no_space_not_panics() {
        let mut occ = rack();
        // Larger than the torus in one dimension: can never fit.
        let err = occ.place_first_fit(1, Shape3::new(5, 1, 1)).unwrap_err();
        assert_eq!(err, PlaceError::NoSpace);
        let err = occ.place_best_fit(1, Shape3::new(4, 4, 9)).unwrap_err();
        assert_eq!(err, PlaceError::NoSpace);
        // Degenerate zero-volume extents are rejected too.
        let err = occ.place_first_fit(1, Shape3::new(0, 2, 2)).unwrap_err();
        assert_eq!(err, PlaceError::NoSpace);
        assert!(occ.slices().next().is_none());
    }

    #[test]
    fn failure_flags() {
        let mut occ = rack();
        let c = Coord3::new(1, 2, 3);
        assert!(!occ.is_failed(c));
        occ.fail_chip(c);
        assert!(occ.is_failed(c));
        assert_eq!(occ.healthy_free_chips().len(), 63);
        occ.restore_chip(c);
        assert_eq!(occ.healthy_free_chips().len(), 64);
    }
}
