//! The electrical direct-connect torus graph: links, rings, and routes.
//!
//! Each chip in a TPUv4-style rack has six ICI links (±X, ±Y, ±Z); the
//! wraparound links on opposite faces are closed by optical circuit
//! switches, making every full dimension a physical ring (paper §4,
//! Fig 5a). Transfers in ring collectives are directional, so congestion is
//! accounted on *directed* links.

use crate::coords::{Coord3, Dim, Shape3};
use std::fmt;

/// A directed electrical link from a chip to its next/previous neighbour in
/// one dimension (with wraparound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DirLink {
    /// Transmitting chip.
    pub from: Coord3,
    /// Dimension travelled.
    pub dim: Dim,
    /// `true` for the +dim direction.
    pub forward: bool,
}

impl fmt::Display for DirLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.from,
            if self.forward { "+" } else { "-" },
            self.dim
        )
    }
}

/// An electrical 3-D torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    /// Extents.
    pub shape: Shape3,
}

impl Torus {
    /// A torus of the given shape.
    pub fn new(shape: Shape3) -> Self {
        Torus {
            shape: shape.validated(),
        }
    }

    /// The chip a directed link delivers to.
    pub fn dest(&self, l: DirLink) -> Coord3 {
        if l.forward {
            l.from.next_in(l.dim, self.shape)
        } else {
            l.from.prev_in(l.dim, self.shape)
        }
    }

    /// The full-dimension ring (cycle of coordinates) through `through` along
    /// `d`: the physical cycle a bucket-algorithm ring in that dimension
    /// rides. Length equals the dimension's extent.
    pub fn ring_cycle(&self, through: Coord3, d: Dim) -> Vec<Coord3> {
        (0..self.shape.extent(d))
            .map(|i| through.with(d, i))
            .collect()
    }

    /// Directed links of a forward ring over the full-dimension cycle
    /// through `through` along `d` (every chip sends to its +d neighbour).
    pub fn ring_links(&self, through: Coord3, d: Dim) -> Vec<DirLink> {
        self.ring_cycle(through, d)
            .into_iter()
            .map(|c| DirLink {
                from: c,
                dim: d,
                forward: true,
            })
            .collect()
    }

    /// Shortest-direction hop sequence from `a` to `b` moving only in
    /// dimension `d` (wrapping when shorter). Returns the directed links in
    /// travel order; empty when the coordinates already agree in `d`.
    pub fn route_in_dim(&self, a: Coord3, b: Coord3, d: Dim) -> Vec<DirLink> {
        let e = self.shape.extent(d);
        let (from, to) = (a.get(d), b.get(d));
        if from == to {
            return Vec::new();
        }
        let fwd = (to + e - from) % e;
        let bwd = (from + e - to) % e;
        let forward = fwd <= bwd;
        let steps = fwd.min(bwd);
        let mut links = Vec::with_capacity(steps);
        let mut cur = a;
        for _ in 0..steps {
            links.push(DirLink {
                from: cur,
                dim: d,
                forward,
            });
            cur = if forward {
                cur.next_in(d, self.shape)
            } else {
                cur.prev_in(d, self.shape)
            };
        }
        links
    }

    /// Dimension-ordered (X, then Y, then Z) route between two chips, taking
    /// the shorter way around each ring.
    pub fn route(&self, a: Coord3, b: Coord3) -> Vec<DirLink> {
        let mut links = Vec::new();
        let mut cur = a;
        for d in Dim::ALL {
            let seg = self.route_in_dim(cur, b, d);
            if let Some(last) = seg.last() {
                cur = self.dest(*last);
            }
            links.extend(seg);
        }
        debug_assert_eq!(cur, b, "route must terminate at the destination");
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rack() -> Torus {
        Torus::new(Shape3::rack_4x4x4())
    }

    #[test]
    fn link_destinations_wrap() {
        let t = rack();
        let l = DirLink {
            from: Coord3::new(3, 1, 1),
            dim: Dim::X,
            forward: true,
        };
        assert_eq!(t.dest(l), Coord3::new(0, 1, 1));
    }

    #[test]
    fn ring_cycle_covers_dimension() {
        let t = rack();
        let cyc = t.ring_cycle(Coord3::new(2, 1, 3), Dim::Y);
        assert_eq!(cyc.len(), 4);
        for (i, c) in cyc.iter().enumerate() {
            assert_eq!(c.get(Dim::Y), i);
            assert_eq!(c.get(Dim::X), 2);
            assert_eq!(c.get(Dim::Z), 3);
        }
    }

    #[test]
    fn ring_links_form_a_cycle() {
        let t = rack();
        let links = t.ring_links(Coord3::new(0, 0, 0), Dim::X);
        assert_eq!(links.len(), 4);
        // Following the links returns to the start.
        let mut cur = Coord3::new(0, 0, 0);
        for _ in 0..4 {
            let l = links.iter().find(|l| l.from == cur).expect("link from cur");
            cur = t.dest(*l);
        }
        assert_eq!(cur, Coord3::new(0, 0, 0));
    }

    #[test]
    fn route_in_dim_takes_shorter_way() {
        let t = rack();
        // 0 → 3 in a 4-ring: one backward hop beats three forward.
        let links = t.route_in_dim(Coord3::new(0, 0, 0), Coord3::new(3, 0, 0), Dim::X);
        assert_eq!(links.len(), 1);
        assert!(!links[0].forward);
        // 0 → 2: tie, forward preferred, two hops.
        let links = t.route_in_dim(Coord3::new(0, 0, 0), Coord3::new(2, 0, 0), Dim::X);
        assert_eq!(links.len(), 2);
        assert!(links.iter().all(|l| l.forward));
    }

    #[test]
    fn dimension_ordered_route_reaches() {
        let t = rack();
        let a = Coord3::new(0, 3, 1);
        let b = Coord3::new(2, 0, 2);
        let links = t.route(a, b);
        // X: 2 hops; Y: 3→0 wraps in 1 hop; Z: 1 hop.
        assert_eq!(links.len(), 4);
        let mut cur = a;
        for l in &links {
            assert_eq!(l.from, cur);
            cur = t.dest(*l);
        }
        assert_eq!(cur, b);
    }

    #[test]
    fn route_to_self_is_empty() {
        let t = rack();
        assert!(t
            .route(Coord3::new(1, 1, 1), Coord3::new(1, 1, 1))
            .is_empty());
    }
}
