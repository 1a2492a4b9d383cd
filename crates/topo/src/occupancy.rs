//! Chip ownership within a torus: which slice holds which chip, which chips
//! are free, and first-fit placement of new slices.

use crate::coords::{Coord3, Dim, Shape3};
use crate::slice::{Slice, SliceId};
use crate::torus::Torus;
use std::collections::BTreeMap;
use std::ops::Range;

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

    /// How many chips are unowned with a working accelerator: the length
    /// of [`Self::healthy_free_chips`], counted without collecting them.
    pub fn healthy_free_count(&self) -> usize {
        self.owner
            .iter()
            .zip(&self.failed)
            .filter(|&(owner, &failed)| owner.is_none() && !failed)
            .count()
    }

    /// The `owner` index range of the X-row of `len` chips that starts at
    /// `(x, y, z)`.
    fn row(&self, x: usize, y: usize, z: usize, len: usize) -> Range<usize> {
        let [nx, ny, _] = self.torus.shape.dims;
        let start = (z * ny + y) * nx + x;
        start..start + len
    }

    /// Place a slice at its stated origin. All-or-nothing: on overlap it
    /// reports the first owned chip in (Z, Y, X) order.
    pub fn place(&mut self, slice: Slice) -> Result<(), PlaceError> {
        if self.slices.contains_key(&slice.id) {
            return Err(PlaceError::DuplicateId(slice.id));
        }
        if !slice.fits(self.torus.shape) {
            return Err(PlaceError::OutOfBounds);
        }
        let [ox, oy, oz] = slice.origin.p;
        let [ex, ey, ez] = slice.extent.dims;
        for z in oz..oz + ez {
            for y in oy..oy + ey {
                let row = self.owner.get(self.row(ox, y, z, ex)).unwrap_or_default();
                if let Some(x) = row.iter().position(Option::is_some) {
                    return Err(PlaceError::Occupied(Coord3::new(ox + x, y, z)));
                }
            }
        }
        self.fill(&slice, Some(slice.id));
        self.slices.insert(slice.id, slice);
        Ok(())
    }

    /// Set the owner of every chip in `slice`'s box, one X-row at a time.
    fn fill(&mut self, slice: &Slice, owner: Option<SliceId>) {
        let [ox, oy, oz] = slice.origin.p;
        let [ex, ey, ez] = slice.extent.dims;
        for z in oz..oz + ez {
            for y in oy..oy + ey {
                let row = self.row(ox, y, z, ex);
                if let Some(row) = self.owner.get_mut(row) {
                    row.fill(owner);
                }
            }
        }
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

    /// Every origin where a box of `extent` fits inside the torus, lowest
    /// (Z, then Y, then X) first. `extent` must be feasible.
    fn origins(&self, extent: Shape3) -> impl Iterator<Item = Coord3> {
        let [nx, ny, nz] = self.torus.shape.dims;
        let [ex, ey, ez] = extent.dims;
        (0..=nz - ez).flat_map(move |z| {
            (0..=ny - ey).flat_map(move |y| (0..=nx - ex).map(move |x| Coord3::new(x, y, z)))
        })
    }

    /// True when every chip of the box at `origin` is unowned. Each X-row
    /// is one slice scan, and the first owned chip ends the test.
    fn box_free(&self, origin: Coord3, extent: Shape3) -> bool {
        let [ox, oy, oz] = origin.p;
        let [ex, ey, ez] = extent.dims;
        (oz..oz + ez).all(|z| {
            (oy..oy + ey).all(|y| {
                self.owner
                    .get(self.row(ox, y, z, ex))
                    .is_some_and(|row| row.iter().all(Option::is_none))
            })
        })
    }

    /// First-fit placement: find the lowest (Z, then Y, then X) origin where
    /// a box of `extent` is free, place it there with id `id`.
    pub fn place_first_fit(&mut self, id: u32, extent: Shape3) -> Result<Slice, PlaceError> {
        if self.extent_infeasible(extent) {
            return Err(PlaceError::NoSpace);
        }
        match self.origins(extent).find(|&o| self.box_free(o, extent)) {
            Some(origin) => {
                let slice = Slice::new(id, origin, extent);
                self.place(slice)?;
                Ok(slice)
            }
            None => Err(PlaceError::NoSpace),
        }
    }

    /// Best-fit placement: among all free origins for `extent`, choose the
    /// snuggest — the one whose box touches the most occupied chips — to
    /// keep free space contiguous. Ties break toward the lowest (Z, Y, X)
    /// origin, so best-fit degenerates to first-fit on an empty torus.
    pub fn place_best_fit(&mut self, id: u32, extent: Shape3) -> Result<Slice, PlaceError> {
        if self.extent_infeasible(extent) {
            return Err(PlaceError::NoSpace);
        }
        let mut best: Option<(usize, Coord3)> = None;
        for origin in self.origins(extent) {
            if !self.box_free(origin, extent) {
                continue;
            }
            let snug = self.snugness(origin, extent);
            if best.is_none_or(|(s, _)| snug > s) {
                best = Some((snug, origin));
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

    /// How many face-adjacent outside positions of the box at `origin` hold
    /// owned chips — higher is snugger. A torus has no walls, so only owned
    /// chips count. Each chip on a face has one outside neighbour across
    /// it, so per dimension this is the owned chips of two face slabs over
    /// the box's cross-section: the plane after the box and the plane
    /// before it (see [`faces`]). A box spanning the dimension has no
    /// outside there.
    fn snugness(&self, origin: Coord3, extent: Shape3) -> usize {
        let [nx, ny, nz] = self.torus.shape.dims;
        let [ox, oy, oz] = origin.p;
        let [ex, ey, ez] = extent.dims;
        let mut snug = 0;
        if ex < nx {
            let (after, before) = faces(ox, ex, nx);
            for z in oz..oz + ez {
                for y in oy..oy + ey {
                    snug += self.owned(self.row(after, y, z, 1));
                    snug += self.owned(self.row(before, y, z, 1));
                }
            }
        }
        if ey < ny {
            let (after, before) = faces(oy, ey, ny);
            for z in oz..oz + ez {
                snug += self.owned(self.row(ox, after, z, ex));
                snug += self.owned(self.row(ox, before, z, ex));
            }
        }
        if ez < nz {
            let (after, before) = faces(oz, ez, nz);
            for y in oy..oy + ey {
                snug += self.owned(self.row(ox, y, after, ex));
                snug += self.owned(self.row(ox, y, before, ex));
            }
        }
        snug
    }

    /// Owned chips in one `owner` range.
    fn owned(&self, run: Range<usize>) -> usize {
        self.owner
            .get(run)
            .map_or(0, |row| row.iter().filter(|o| o.is_some()).count())
    }

    /// Remove a slice, freeing its chips. Returns the removed slice.
    pub fn remove(&mut self, id: SliceId) -> Option<Slice> {
        let slice = self.slices.remove(&id)?;
        self.fill(&slice, None);
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

/// The planes just outside a box that starts at `o` with extent `e < n`
/// along a dimension of extent `n`: the one after it (`o+e`, wrapping to
/// 0) and the one before it (`o−1`, wrapping to `n−1`). At `e == n−1` the
/// two are the same plane, which the box then touches from both faces.
fn faces(o: usize, e: usize, n: usize) -> (usize, usize) {
    let after = if o + e == n { 0 } else { o + e };
    let before = if o == 0 { n - 1 } else { o - 1 };
    (after, before)
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
