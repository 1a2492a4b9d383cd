//! Wafer-grid geometry: tile coordinates, directions, edges, and circuit
//! paths.
//!
//! LIGHTPATH tiles form a 2-D grid on the wafer (Fig 2c); waveguide buses
//! run along the grid's edges. A circuit's [`Path`] is a sequence of
//! adjacent tiles from the source to the destination tile.

use std::fmt;

/// Position of a tile on the wafer grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileCoord {
    /// Row index (0-based, increases southward).
    pub row: u8,
    /// Column index (0-based, increases eastward).
    pub col: u8,
}

impl TileCoord {
    /// Shorthand constructor.
    pub const fn new(row: u8, col: u8) -> Self {
        TileCoord { row, col }
    }

    /// The neighbouring coordinate in direction `d`, if it stays inside an
    /// `rows`×`cols` grid.
    pub fn step(self, d: Dir, rows: u8, cols: u8) -> Option<TileCoord> {
        let (r, c) = (self.row as i16, self.col as i16);
        let (nr, nc) = match d {
            Dir::North => (r - 1, c),
            Dir::South => (r + 1, c),
            Dir::East => (r, c + 1),
            Dir::West => (r, c - 1),
        };
        if nr < 0 || nc < 0 || nr >= rows as i16 || nc >= cols as i16 {
            None
        } else {
            Some(TileCoord::new(nr as u8, nc as u8))
        }
    }

    /// Manhattan distance to `other`.
    pub fn manhattan(self, other: TileCoord) -> u32 {
        self.row.abs_diff(other.row) as u32 + self.col.abs_diff(other.col) as u32
    }

    /// Direction of travel to an adjacent coordinate.
    ///
    /// Panics if `to` is not a 4-neighbour of `self`.
    pub fn dir_to(self, to: TileCoord) -> Dir {
        match (
            to.row as i16 - self.row as i16,
            to.col as i16 - self.col as i16,
        ) {
            (-1, 0) => Dir::North,
            (1, 0) => Dir::South,
            (0, 1) => Dir::East,
            (0, -1) => Dir::West,
            _ => panic!("{to} is not adjacent to {self}"),
        }
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A cardinal direction on the wafer grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward row 0.
    North,
    /// Toward increasing columns.
    East,
    /// Toward increasing rows.
    South,
    /// Toward column 0.
    West,
}

impl Dir {
    /// All four directions.
    pub const ALL: [Dir; 4] = [Dir::North, Dir::East, Dir::South, Dir::West];

    /// True when `self` and `other` lie on perpendicular axes.
    pub fn is_turn(self, other: Dir) -> bool {
        matches!(
            (self, other),
            (Dir::North | Dir::South, Dir::East | Dir::West)
                | (Dir::East | Dir::West, Dir::North | Dir::South)
        )
    }
}

/// An undirected waveguide-bus edge between two adjacent tiles, stored in
/// normalized (smaller endpoint first) order so each physical bus has one id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(TileCoord, TileCoord);

impl EdgeId {
    /// Edge between two adjacent tiles (order-insensitive).
    ///
    /// Panics if the tiles are not 4-adjacent.
    pub fn between(a: TileCoord, b: TileCoord) -> Self {
        assert_eq!(a.manhattan(b), 1, "edge requires adjacent tiles: {a} {b}");
        if a <= b {
            EdgeId(a, b)
        } else {
            EdgeId(b, a)
        }
    }

    /// The two endpoints (normalized order).
    pub fn endpoints(self) -> (TileCoord, TileCoord) {
        (self.0, self.1)
    }

    /// True for a horizontal (east-west) bus.
    pub fn is_horizontal(self) -> bool {
        self.0.row == self.1.row
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.0, self.1)
    }
}

/// Dense, stable `EdgeId -> usize` index for every bus of a `rows`×`cols`
/// wafer grid.
///
/// Horizontal edges come first in row-major order, then vertical edges in
/// row-major order:
///
/// * `(r,c)-(r,c+1)` → `r·(cols-1) + c`
/// * `(r,c)-(r+1,c)` → `rows·(cols-1) + r·cols + c`
///
/// The index is a pure function of the grid shape, so every structure keyed
/// by it (`Vec` occupancy in [`Wafer`](crate::Wafer), routing scratch
/// arrays, forbidden-edge bitsets) agrees on edge positions without any
/// shared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeIndex {
    rows: u8,
    cols: u8,
}

impl EdgeIndex {
    /// Index for a `rows`×`cols` grid.
    pub const fn new(rows: u8, cols: u8) -> EdgeIndex {
        EdgeIndex { rows, cols }
    }

    /// Grid rows.
    pub const fn rows(self) -> u8 {
        self.rows
    }

    /// Grid columns.
    pub const fn cols(self) -> u8 {
        self.cols
    }

    /// Number of horizontal (east-west) buses; vertical indices start here.
    pub const fn horizontal_count(self) -> usize {
        let (r, c) = (self.rows as usize, self.cols as usize);
        r * (c.saturating_sub(1))
    }

    /// Total buses on the grid.
    pub const fn len(self) -> usize {
        let (r, c) = (self.rows as usize, self.cols as usize);
        r * (c.saturating_sub(1)) + r.saturating_sub(1) * c
    }

    /// True for degenerate grids with no buses at all.
    pub const fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Number of tiles on the grid.
    pub const fn tiles(self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Dense position of a tile (row-major).
    pub const fn tile_index(self, t: TileCoord) -> usize {
        t.row as usize * self.cols as usize + t.col as usize
    }

    /// Dense position of `e`, or `None` when `e` is not a bus of this grid.
    pub fn try_index(self, e: EdgeId) -> Option<usize> {
        // Endpoints are normalized smaller-first, so the second one has the
        // larger row (vertical) or column (horizontal); bounds-checking it
        // covers both.
        let (a, b) = e.endpoints();
        if b.row >= self.rows || b.col >= self.cols {
            return None;
        }
        let (r, c) = (a.row as usize, a.col as usize);
        Some(if e.is_horizontal() {
            r * (self.cols as usize - 1) + c
        } else {
            self.horizontal_count() + r * self.cols as usize + c
        })
    }

    /// Dense position of `e`.
    ///
    /// Panics when `e` is not a bus of this grid.
    pub fn index(self, e: EdgeId) -> usize {
        match self.try_index(e) {
            Some(i) => i,
            None => panic!("edge {e} is not on a {}x{} grid", self.rows, self.cols),
        }
    }

    /// Dense position of the bus leaving tile `t` in direction `d`,
    /// computed arithmetically — the hot-path form of
    /// [`index`](Self::index) that skips `EdgeId` construction entirely.
    ///
    /// The caller must have verified the step stays on the grid (e.g. via
    /// [`TileCoord::step`]); out-of-grid steps yield a meaningless index.
    #[inline]
    pub fn step_index(self, t: TileCoord, d: Dir) -> usize {
        let (r, c) = (t.row as usize, t.col as usize);
        let cols = self.cols as usize;
        match d {
            Dir::East => r * (cols - 1) + c,
            Dir::West => r * (cols - 1) + c - 1,
            Dir::South => self.horizontal_count() + r * cols + c,
            Dir::North => self.horizontal_count() + (r - 1) * cols + c,
        }
    }
}

/// A fixed-size set of dense edge indices, stored as a bitset.
///
/// This is the zero-allocation form of `HashSet<EdgeId>` for hot routing
/// loops: membership is one shift-and-mask, clearing is a `memset`, and the
/// whole 4×8 grid (52 buses) fits in one cache line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeSet {
    words: Vec<u64>,
}

impl EdgeSet {
    /// An empty set sized for `len` edges.
    pub fn new(len: usize) -> EdgeSet {
        EdgeSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Re-size for `len` edges and clear every bit.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
    }

    /// Clear every bit, keeping the size.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Insert edge index `i`.
    ///
    /// Panics when `i` is beyond the size given at construction.
    pub fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// True when edge index `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// True when the two sets share at least one edge — one AND per word,
    /// the collision check a plan stamp runs instead of a route search.
    pub fn intersects(&self, other: &EdgeSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(&a, &b)| a & b != 0)
    }
}

/// A simple path of adjacent tiles on the wafer grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    tiles: Vec<TileCoord>,
}

impl Path {
    /// Build a path from an explicit tile sequence.
    ///
    /// Validates: at least two tiles, consecutive tiles adjacent, no tile
    /// visited twice (simple path). Returns `None` on violation.
    pub fn from_tiles(tiles: Vec<TileCoord>) -> Option<Path> {
        if tiles.len() < 2 {
            return None;
        }
        for w in tiles.windows(2) {
            if w[0].manhattan(w[1]) != 1 {
                return None;
            }
        }
        let mut seen = tiles.clone();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(Path { tiles })
    }

    /// Dimension-ordered (X-then-Y) route: travel along the row (columns
    /// first), then along the column. The default route shape on LIGHTPATH's
    /// bus grid.
    ///
    /// Panics if `src == dst`.
    pub fn xy(src: TileCoord, dst: TileCoord) -> Path {
        assert_ne!(src, dst, "path endpoints must differ");
        let mut tiles = vec![src];
        let mut cur = src;
        while cur.col != dst.col {
            cur.col = if dst.col > cur.col {
                cur.col + 1
            } else {
                cur.col - 1
            };
            tiles.push(cur);
        }
        while cur.row != dst.row {
            cur.row = if dst.row > cur.row {
                cur.row + 1
            } else {
                cur.row - 1
            };
            tiles.push(cur);
        }
        Path { tiles }
    }

    /// Dimension-ordered (Y-then-X) route: rows first, then columns. The
    /// alternate route shape, used to dodge congested buses.
    pub fn yx(src: TileCoord, dst: TileCoord) -> Path {
        assert_ne!(src, dst, "path endpoints must differ");
        let mut tiles = vec![src];
        let mut cur = src;
        while cur.row != dst.row {
            cur.row = if dst.row > cur.row {
                cur.row + 1
            } else {
                cur.row - 1
            };
            tiles.push(cur);
        }
        while cur.col != dst.col {
            cur.col = if dst.col > cur.col {
                cur.col + 1
            } else {
                cur.col - 1
            };
            tiles.push(cur);
        }
        Path { tiles }
    }

    /// Source tile.
    pub fn src(&self) -> TileCoord {
        self.tiles[0]
    }

    /// Destination tile.
    pub fn dst(&self) -> TileCoord {
        *self.tiles.last().expect("paths have >= 2 tiles")
    }

    /// Tiles in visit order.
    pub fn tiles(&self) -> &[TileCoord] {
        &self.tiles
    }

    /// Number of edges traversed.
    pub fn hops(&self) -> usize {
        self.tiles.len() - 1
    }

    /// Tiles strictly between the endpoints.
    pub fn intermediate_tiles(&self) -> &[TileCoord] {
        &self.tiles[1..self.tiles.len() - 1]
    }

    /// The edges traversed, in order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.tiles.windows(2).map(|w| EdgeId::between(w[0], w[1]))
    }

    /// Number of 90° turns along the path.
    pub fn turns(&self) -> usize {
        let dirs: Vec<Dir> = self.tiles.windows(2).map(|w| w[0].dir_to(w[1])).collect();
        dirs.windows(2).filter(|d| d[0].is_turn(d[1])).count()
    }

    /// True when this path shares no edge with `other` (the circuits can
    /// coexist on dedicated waveguides trivially; sharing an edge is also
    /// fine while bus capacity remains, this is the strict test).
    pub fn edge_disjoint(&self, other: &Path) -> bool {
        let mine: Vec<EdgeId> = self.edges().collect();
        !other.edges().any(|e| mine.contains(&e))
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, t) in self.tiles.iter().enumerate() {
            if i > 0 {
                write!(f, "→")?;
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: u8 = 4;
    const C: u8 = 8;

    #[test]
    fn step_respects_bounds() {
        let origin = TileCoord::new(0, 0);
        assert_eq!(origin.step(Dir::North, R, C), None);
        assert_eq!(origin.step(Dir::West, R, C), None);
        assert_eq!(origin.step(Dir::South, R, C), Some(TileCoord::new(1, 0)));
        assert_eq!(origin.step(Dir::East, R, C), Some(TileCoord::new(0, 1)));
        let corner = TileCoord::new(R - 1, C - 1);
        assert_eq!(corner.step(Dir::South, R, C), None);
        assert_eq!(corner.step(Dir::East, R, C), None);
    }

    #[test]
    fn dir_to_and_turns() {
        let a = TileCoord::new(1, 1);
        assert_eq!(a.dir_to(TileCoord::new(0, 1)), Dir::North);
        assert_eq!(a.dir_to(TileCoord::new(1, 2)), Dir::East);
        for d in Dir::ALL {
            assert!(!d.is_turn(d));
        }
        assert!(!Dir::North.is_turn(Dir::South));
        assert!(!Dir::East.is_turn(Dir::West));
        assert!(Dir::North.is_turn(Dir::East));
    }

    #[test]
    fn edge_id_is_order_insensitive() {
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(0, 1);
        assert_eq!(EdgeId::between(a, b), EdgeId::between(b, a));
        assert!(EdgeId::between(a, b).is_horizontal());
        let c = TileCoord::new(1, 0);
        assert!(!EdgeId::between(a, c).is_horizontal());
    }

    #[test]
    #[should_panic(expected = "adjacent")]
    fn edge_between_distant_tiles_panics() {
        EdgeId::between(TileCoord::new(0, 0), TileCoord::new(0, 2));
    }

    #[test]
    fn xy_route_shape() {
        let p = Path::xy(TileCoord::new(0, 0), TileCoord::new(2, 3));
        assert_eq!(p.hops(), 5);
        assert_eq!(p.turns(), 1);
        assert_eq!(p.src(), TileCoord::new(0, 0));
        assert_eq!(p.dst(), TileCoord::new(2, 3));
        // X first: second tile moves in the column direction.
        assert_eq!(p.tiles()[1], TileCoord::new(0, 1));
    }

    #[test]
    fn yx_route_shape() {
        let p = Path::yx(TileCoord::new(0, 0), TileCoord::new(2, 3));
        assert_eq!(p.hops(), 5);
        assert_eq!(p.tiles()[1], TileCoord::new(1, 0));
        assert_eq!(p.turns(), 1);
    }

    #[test]
    fn straight_routes_have_no_turns() {
        let p = Path::xy(TileCoord::new(1, 0), TileCoord::new(1, 5));
        assert_eq!(p.turns(), 0);
        assert_eq!(p.hops(), 5);
        assert_eq!(p.intermediate_tiles().len(), 4);
    }

    #[test]
    fn xy_and_yx_are_edge_disjoint_off_axis() {
        let (s, d) = (TileCoord::new(0, 0), TileCoord::new(3, 3));
        let a = Path::xy(s, d);
        let b = Path::yx(s, d);
        assert!(a.edge_disjoint(&b));
    }

    #[test]
    fn from_tiles_validates() {
        let ok = Path::from_tiles(vec![
            TileCoord::new(0, 0),
            TileCoord::new(0, 1),
            TileCoord::new(1, 1),
        ]);
        assert!(ok.is_some());
        assert_eq!(ok.unwrap().turns(), 1);
        // Non-adjacent.
        assert!(Path::from_tiles(vec![TileCoord::new(0, 0), TileCoord::new(2, 0)]).is_none());
        // Too short.
        assert!(Path::from_tiles(vec![TileCoord::new(0, 0)]).is_none());
        // Revisits a tile.
        assert!(Path::from_tiles(vec![
            TileCoord::new(0, 0),
            TileCoord::new(0, 1),
            TileCoord::new(0, 0),
        ])
        .is_none());
    }

    #[test]
    fn edge_index_is_a_bijection() {
        let ix = EdgeIndex::new(R, C);
        // 4×8: 4·7 horizontal + 3·8 vertical = 52 buses.
        assert_eq!(ix.len(), 52);
        assert_eq!(ix.horizontal_count(), 28);
        let mut seen = vec![false; ix.len()];
        for r in 0..R {
            for c in 0..C {
                let t = TileCoord::new(r, c);
                for d in [Dir::East, Dir::South] {
                    if let Some(n) = t.step(d, R, C) {
                        let e = EdgeId::between(t, n);
                        let i = ix.index(e);
                        assert!(!seen[i], "index {i} assigned twice");
                        seen[i] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every index assigned");
    }

    #[test]
    fn step_index_agrees_with_index() {
        let ix = EdgeIndex::new(R, C);
        for r in 0..R {
            for c in 0..C {
                let t = TileCoord::new(r, c);
                for d in Dir::ALL {
                    if let Some(n) = t.step(d, R, C) {
                        assert_eq!(
                            ix.step_index(t, d),
                            ix.index(EdgeId::between(t, n)),
                            "step_index mismatch at {t} {d:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn edge_index_rejects_foreign_edges() {
        let ix = EdgeIndex::new(2, 4);
        let inside = EdgeId::between(TileCoord::new(0, 0), TileCoord::new(0, 1));
        assert!(ix.try_index(inside).is_some());
        // Edges of a larger grid fall outside this one.
        let below = EdgeId::between(TileCoord::new(2, 0), TileCoord::new(3, 0));
        let right = EdgeId::between(TileCoord::new(0, 4), TileCoord::new(0, 5));
        assert_eq!(ix.try_index(below), None);
        assert_eq!(ix.try_index(right), None);
    }

    #[test]
    #[should_panic(expected = "not on a")]
    fn edge_index_panics_on_foreign_edge() {
        EdgeIndex::new(2, 2).index(EdgeId::between(TileCoord::new(5, 5), TileCoord::new(5, 6)));
    }

    #[test]
    fn edge_set_membership() {
        let ix = EdgeIndex::new(R, C);
        let mut s = EdgeSet::new(ix.len());
        assert!(s.is_empty());
        s.insert(0);
        s.insert(51);
        assert!(s.contains(0) && s.contains(51) && !s.contains(1));
        s.clear();
        assert!(s.is_empty());
        s.reset(4);
        s.insert(3);
        assert!(s.contains(3));
    }

    #[test]
    fn edges_match_hops() {
        let p = Path::xy(TileCoord::new(0, 0), TileCoord::new(1, 2));
        let edges: Vec<EdgeId> = p.edges().collect();
        assert_eq!(edges.len(), p.hops());
        assert_eq!(
            edges[0],
            EdgeId::between(TileCoord::new(0, 0), TileCoord::new(0, 1))
        );
    }

    #[test]
    fn edge_set_intersection() {
        let mut a = EdgeSet::new(130);
        let mut b = EdgeSet::new(130);
        assert!(!a.intersects(&b), "empty sets are disjoint");
        a.insert(0);
        a.insert(129);
        b.insert(64);
        assert!(!a.intersects(&b));
        b.insert(129);
        assert!(a.intersects(&b), "shared bit in the last word detected");
        assert!(b.intersects(&a), "intersection is symmetric");
    }
}
