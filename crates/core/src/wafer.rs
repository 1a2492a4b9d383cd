//! The LIGHTPATH wafer: a grid of tiles, waveguide buses, and the circuit
//! manager that establishes contention-free optical circuits between them.
//!
//! Admission control enforces the three physical constraints of §3:
//!
//! 1. **SerDes lanes** — a tile can source/sink at most 16 wavelengths.
//! 2. **Waveguide capacity** — each inter-tile bus carries up to ~10,000
//!    guides; every circuit reserves one *dedicated* guide per edge it
//!    crosses, so admitted circuits are congestion-free by construction
//!    (the paper's definition of congestion is two transfers on one link).
//! 3. **Optical budget** — the end-to-end loss (propagation, crossings at
//!    0.25 dB, fabricated reticle-stitch losses, MZI stages) must close
//!    against the receiver sensitivity at 224 Gb/s.
//!
//! Establishing a circuit programs MZI switches, which costs the measured
//! **3.7 µs** reconfiguration latency (returned to the caller so the
//! collective/resilience layers can account the `r` term of the paper's
//! α–β–r cost model).

use std::collections::BTreeMap;

use desim::{SimDuration, SimRng};
use phy::link_budget::LinkModel;
use phy::loss::{LossBudget, LossElement};
use phy::thermal::RECONFIG_LATENCY_S;
use phy::units::Gbps;
use phy::wdm::LambdaSet;

use crate::circuit::{Circuit, CircuitError, CircuitId, CircuitRequest};
use crate::config::WaferConfig;
use crate::geom::{Dir, EdgeId, EdgeIndex, Path, TileCoord};
use crate::tile::Tile;

/// Result of establishing a circuit.
#[derive(Debug, Clone, Copy)]
pub struct EstablishReport {
    /// Handle for teardown and lookup.
    pub id: CircuitId,
    /// Time until the circuit carries valid data: the MZI reconfiguration
    /// latency (switches along the path settle in parallel).
    pub setup: SimDuration,
    /// Link-budget margin and BER of the admitted circuit.
    pub link: phy::link_budget::LinkReport,
}

/// A LIGHTPATH wafer instance.
#[derive(Debug, Clone)]
pub struct Wafer {
    cfg: WaferConfig,
    tiles: Vec<Tile>,
    /// Dense `EdgeId -> usize` index for this grid; keys the two `Vec`s
    /// below and every routing scratch structure built against this wafer.
    edge_index: EdgeIndex,
    /// Waveguides in use per inter-tile bus, by dense edge index.
    edge_used: Vec<u32>,
    /// Fabricated stitch loss of each boundary (sampled once), by dense
    /// edge index.
    stitch_loss_db: Vec<f64>,
    circuits: BTreeMap<CircuitId, Circuit>,
    next_id: u64,
    reconfigs: u64,
    /// Monotonic counter bumped on every mutation that can change routing
    /// state (establish, teardown, tile failure/restore). Route-layer
    /// caches key on this: equal epochs guarantee identical search results.
    occupancy_epoch: u64,
    /// Revision keying [`Fabric`](crate::fabric::Fabric)'s cache of this
    /// wafer's snapshot text: bumped on entry to every `&mut self` method,
    /// failed attempts included, and never serialized. It is not
    /// `occupancy_epoch`, which is serialized and misses SerDes claims
    /// made through [`tile_mut`](Self::tile_mut).
    rev: u64,
}

impl Wafer {
    /// Fabricate a wafer: builds tiles and samples every boundary's reticle
    /// stitch loss from the config's fab model (deterministic in
    /// `cfg.fab_seed`).
    pub fn new(cfg: WaferConfig) -> Self {
        let cfg = cfg.validated();
        let tiles = (0..cfg.tiles()).map(|_| Tile::new(&cfg.wdm)).collect();
        let mut rng = SimRng::seed_from_u64(cfg.fab_seed);
        let edge_index = EdgeIndex::new(cfg.rows, cfg.cols);
        let mut stitch_loss_db = vec![0.0; edge_index.len()];
        // Sampling order (per tile: east bus, then south bus) is part of
        // the fabrication model: it fixes how the seed's RNG stream maps to
        // boundaries, so it must not change when the storage layout does.
        for r in 0..cfg.rows {
            for c in 0..cfg.cols {
                let here = TileCoord::new(r, c);
                if c + 1 < cfg.cols {
                    let e = EdgeId::between(here, TileCoord::new(r, c + 1));
                    stitch_loss_db[edge_index.index(e)] = cfg.stitch.sample(&mut rng);
                }
                if r + 1 < cfg.rows {
                    let e = EdgeId::between(here, TileCoord::new(r + 1, c));
                    stitch_loss_db[edge_index.index(e)] = cfg.stitch.sample(&mut rng);
                }
            }
        }
        Wafer {
            cfg,
            tiles,
            edge_index,
            edge_used: vec![0; edge_index.len()],
            stitch_loss_db,
            circuits: BTreeMap::new(),
            next_id: 0,
            reconfigs: 0,
            occupancy_epoch: 0,
            rev: 0,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &WaferConfig {
        &self.cfg
    }

    fn index(&self, t: TileCoord) -> Result<usize, CircuitError> {
        if t.row >= self.cfg.rows || t.col >= self.cfg.cols {
            return Err(CircuitError::OutOfBounds(t));
        }
        Ok(t.row as usize * self.cfg.cols as usize + t.col as usize)
    }

    /// Inspect a tile.
    ///
    /// Panics if `t` is outside the grid.
    pub fn tile(&self, t: TileCoord) -> &Tile {
        let i = self.index(t).expect("tile coordinate out of bounds");
        &self.tiles[i]
    }

    /// Mutate a tile (switch programming, failure injection).
    ///
    /// Panics if `t` is outside the grid.
    pub fn tile_mut(&mut self, t: TileCoord) -> &mut Tile {
        self.rev += 1;
        let i = self.index(t).expect("tile coordinate out of bounds");
        &mut self.tiles[i]
    }

    /// All tile coordinates, row-major.
    pub fn coords(&self) -> impl Iterator<Item = TileCoord> + '_ {
        let cols = self.cfg.cols;
        (0..self.cfg.rows).flat_map(move |r| (0..cols).map(move |c| TileCoord::new(r, c)))
    }

    /// Fabricated stitch loss of a boundary, dB.
    ///
    /// Panics if `e` is not a boundary of this wafer.
    pub fn stitch_loss_db(&self, e: EdgeId) -> f64 {
        match self.edge_index.try_index(e) {
            Some(i) => self.stitch_loss_db[i],
            None => panic!("edge is not a boundary of this wafer"),
        }
    }

    /// Waveguides currently reserved on a bus.
    pub fn edge_used(&self, e: EdgeId) -> u32 {
        self.edge_index
            .try_index(e)
            .map_or(0, |i| self.edge_used[i])
    }

    /// The dense edge index keying [`edge_loads`](Self::edge_loads) (and
    /// any routing scratch built for this wafer).
    pub fn edge_index(&self) -> EdgeIndex {
        self.edge_index
    }

    /// Waveguides in use on every bus, by dense edge index — the
    /// zero-overhead view the routing hot path reads instead of hashing
    /// `EdgeId`s.
    pub fn edge_loads(&self) -> &[u32] {
        &self.edge_used
    }

    /// Bus capacity (same for every edge).
    pub fn edge_capacity(&self) -> u32 {
        self.cfg.waveguides_per_edge
    }

    /// Total MZI reconfiguration events charged so far.
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// The wafer's occupancy epoch: advances on every establish, teardown,
    /// and tile failure/restore. Two calls returning the same epoch bracket
    /// a window in which routing inputs (bus loads, tile health) were
    /// unchanged, so a path computed inside the window is still valid —
    /// the contract [`route`]'s path cache relies on.
    ///
    /// [`route`]: https://docs.rs/route
    pub fn occupancy_epoch(&self) -> u64 {
        self.occupancy_epoch
    }

    /// The snapshot-text revision (see the `rev` field): equal revisions
    /// bracket a window in which [`write_snap`](Self::write_snap) writes
    /// the same bytes.
    pub(crate) fn rev(&self) -> u64 {
        self.rev
    }

    /// The itemized optical loss budget a circuit on `path` would incur.
    pub fn path_loss_budget(&self, path: &Path) -> LossBudget {
        let mut b = LossBudget::new();
        b.push(LossElement::Waveguide {
            length_cm: path.hops() as f64 * self.cfg.tile_pitch_cm,
            db_per_cm: self.cfg.propagation_loss_db_per_cm,
        });
        for e in path.edges() {
            b.push(LossElement::ReticleStitch {
                loss_db: self.stitch_loss_db(e),
            });
        }
        let through_crossings = path.intermediate_tiles().len() as u32
            * self.cfg.crossings_per_through_tile
            + path.turns() as u32 * self.cfg.crossings_per_turn;
        for _ in 0..through_crossings {
            b.push(LossElement::Crossing);
        }
        // Crosstalk from circuits already co-propagating on each bus.
        for e in path.edges() {
            b.push(LossElement::Crosstalk {
                neighbours: self.edge_used(e),
                per_neighbour_db: self.cfg.crosstalk_per_cochannel_db,
            });
        }
        // MZI switches are traversed where the circuit is steered: at the
        // source (onto the bus), at each turn (between perpendicular
        // buses), and at the destination (off the bus). Straight
        // pass-through rides the bus waveguide without entering a switch.
        for _ in 0..(2 + path.turns()) {
            b.push(LossElement::MziStage {
                loss_db: 2.0 * self.cfg.mzi.insertion_loss_db,
            });
        }
        b
    }

    /// Evaluate the link budget a circuit on `path` would see.
    pub fn link_budget(&self, path: &Path) -> phy::link_budget::LinkReport {
        LinkModel::lightpath_default().evaluate(&self.path_loss_budget(path))
    }

    /// Choose the default route for a request: XY, falling back to YX when
    /// any XY edge is exhausted. The one place that choice is made, for a
    /// wafer circuit without an explicit route and for every segment of a
    /// cross-wafer plan.
    pub(crate) fn default_route(&self, src: TileCoord, dst: TileCoord) -> Path {
        let xy = Path::xy(src, dst);
        let xy_fits = xy
            .edges()
            .all(|e| self.edge_used(e) < self.cfg.waveguides_per_edge);
        if xy_fits {
            xy
        } else {
            Path::yx(src, dst)
        }
    }

    /// Establish a circuit. On success the circuit's waveguides, SerDes
    /// lanes, and switch programming are committed atomically; on error
    /// nothing changes.
    pub fn establish(&mut self, req: CircuitRequest) -> Result<EstablishReport, CircuitError> {
        self.establish_impl(req, None)
    }

    /// Establish with a link report captured from an earlier evaluation of
    /// the *same* path under the *same* crosstalk loads — the plan-library
    /// stamp path, which skips rebuilding the path's loss budget and the
    /// BER evaluation at its received power.
    ///
    /// Contract: `link` must equal `self.link_budget(path)` bit-for-bit at
    /// the moment of the call; callers guarantee this by only stamping when
    /// every load the budget reads is unchanged since capture. Debug builds
    /// (the test suite) recompute and assert the equality.
    pub fn establish_prebudgeted(
        &mut self,
        req: CircuitRequest,
        link: phy::link_budget::LinkReport,
    ) -> Result<EstablishReport, CircuitError> {
        self.establish_impl(req, Some(link))
    }

    fn establish_impl(
        &mut self,
        req: CircuitRequest,
        prebudgeted: Option<phy::link_budget::LinkReport>,
    ) -> Result<EstablishReport, CircuitError> {
        self.rev += 1;
        // --- validate endpoints -------------------------------------------------
        if req.src == req.dst {
            return Err(CircuitError::SameEndpoints(req.src));
        }
        let src_idx = self.index(req.src)?;
        let dst_idx = self.index(req.dst)?;
        if req.lanes == 0 || req.lanes > self.cfg.wdm.channels {
            return Err(CircuitError::BadLaneCount(req.lanes));
        }
        if req.claim_src_serdes && self.tiles[src_idx].is_failed() {
            return Err(CircuitError::TileFailed(req.src));
        }
        if req.claim_dst_serdes && self.tiles[dst_idx].is_failed() {
            return Err(CircuitError::TileFailed(req.dst));
        }

        // --- resolve route -------------------------------------------------------
        let path = match req.path {
            Some(p) => {
                if p.src() != req.src || p.dst() != req.dst {
                    return Err(CircuitError::PathMismatch);
                }
                for t in p.tiles() {
                    self.index(*t)?;
                }
                p
            }
            None => self.default_route(req.src, req.dst),
        };

        // --- read-only admission checks -----------------------------------------
        for e in path.edges() {
            if self.edge_used(e) >= self.cfg.waveguides_per_edge {
                return Err(CircuitError::EdgeExhausted(e));
            }
        }
        let lambdas = if req.claim_src_serdes {
            let avail = self.tiles[src_idx].serdes.tx_available();
            avail
                .take_lowest(req.lanes)
                .ok_or(CircuitError::InsufficientTxLanes {
                    tile: req.src,
                    free: avail.len(),
                    requested: req.lanes,
                })?
        } else {
            // Fiber-fed segment: wavelengths were chosen by the true source.
            LambdaSet::first_n(req.lanes)
        };
        let rx_lambdas = if req.claim_dst_serdes {
            let avail = self.tiles[dst_idx].serdes.rx_available();
            avail
                .take_lowest(req.lanes)
                .ok_or(CircuitError::InsufficientRxLanes {
                    tile: req.dst,
                    free: avail.len(),
                    requested: req.lanes,
                })?
        } else {
            LambdaSet::EMPTY
        };
        let link = match prebudgeted {
            Some(given) => {
                debug_assert_eq!(
                    given.to_bits(),
                    self.link_budget(&path).to_bits(),
                    "prebudgeted link report diverged from a fresh evaluation"
                );
                given
            }
            None => self.link_budget(&path),
        };
        if let Err(infeasible) = link.require_closure(phy::DEFAULT_TARGET_BER) {
            return Err(CircuitError::BudgetFailed {
                margin_db: infeasible.margin_db,
            });
        }

        // --- commit --------------------------------------------------------------
        // Availability was checked above, so the claims cannot fail; handle
        // them fallibly anyway (with rollback) to keep this path panic-free.
        if req.claim_src_serdes && self.tiles[src_idx].serdes.claim_tx(lambdas).is_none() {
            return Err(CircuitError::InsufficientTxLanes {
                tile: req.src,
                free: self.tiles[src_idx].serdes.tx_available().len(),
                requested: req.lanes,
            });
        }
        if req.claim_dst_serdes && self.tiles[dst_idx].serdes.claim_rx(rx_lambdas).is_none() {
            if req.claim_src_serdes {
                self.tiles[src_idx].serdes.release_tx(lambdas);
            }
            return Err(CircuitError::InsufficientRxLanes {
                tile: req.dst,
                free: self.tiles[dst_idx].serdes.rx_available().len(),
                requested: req.lanes,
            });
        }
        for e in path.edges() {
            self.edge_used[self.edge_index.index(e)] += 1;
        }
        let id = CircuitId(self.next_id);
        self.next_id += 1;
        self.reconfigs += 1;
        self.occupancy_epoch += 1;
        let bandwidth = Gbps(self.cfg.wdm.rate.0 * req.lanes as f64);
        self.circuits.insert(
            id,
            Circuit {
                id,
                path,
                lambdas,
                claimed_src: req.claim_src_serdes,
                claimed_dst: req.claim_dst_serdes,
                bandwidth,
                link,
            },
        );
        Ok(EstablishReport {
            id,
            setup: SimDuration::from_secs_f64(RECONFIG_LATENCY_S),
            link,
        })
    }

    /// Tear a circuit down, releasing its waveguides and SerDes lanes.
    pub fn teardown(&mut self, id: CircuitId) -> Result<(), CircuitError> {
        self.rev += 1;
        // Resolve indices before removing so an (impossible) stale path
        // leaves the wafer untouched instead of panicking mid-teardown.
        let (src_idx, dst_idx) = {
            let ckt = self
                .circuits
                .get(&id)
                .ok_or(CircuitError::UnknownCircuit(id))?;
            (self.index(ckt.path.src())?, self.index(ckt.path.dst())?)
        };
        let ckt = self
            .circuits
            .remove(&id)
            .ok_or(CircuitError::UnknownCircuit(id))?;
        if ckt.claimed_src {
            self.tiles[src_idx].serdes.release_tx(ckt.lambdas);
        }
        if ckt.claimed_dst {
            // Rx lanes were claimed as the lowest-k at establish time; the
            // same count starting from the same base set is stored — we
            // re-derive by count since rx lane identity is interchangeable.
            let rx = rx_release_set(&self.tiles[dst_idx], ckt.lambdas.len());
            self.tiles[dst_idx].serdes.release_rx(rx);
        }
        for e in ckt.path.edges() {
            self.edge_used[self.edge_index.index(e)] -= 1;
        }
        self.occupancy_epoch += 1;
        Ok(())
    }

    /// Look up an established circuit.
    pub fn circuit(&self, id: CircuitId) -> Option<&Circuit> {
        self.circuits.get(&id)
    }

    /// All live circuits in id order.
    pub fn circuits(&self) -> impl Iterator<Item = &Circuit> {
        self.circuits.values()
    }

    /// Circuits that terminate (source or sink) at a tile.
    pub fn circuits_at(&self, t: TileCoord) -> Vec<CircuitId> {
        self.circuits
            .values()
            .filter(|c| c.path.src() == t || c.path.dst() == t)
            .map(|c| c.id)
            .collect()
    }

    /// Aggregate bandwidth of all live circuits.
    pub fn aggregate_bandwidth(&self) -> Gbps {
        self.circuits.values().map(|c| c.bandwidth).sum()
    }

    /// Mark a tile's accelerator failed. Existing circuits are untouched;
    /// the resilience layer decides what to tear down.
    pub fn fail_tile(&mut self, t: TileCoord) {
        self.rev += 1;
        self.tile_mut(t).fail();
        self.occupancy_epoch += 1;
    }

    /// Restore a tile's accelerator.
    pub fn restore_tile(&mut self, t: TileCoord) {
        self.rev += 1;
        self.tile_mut(t).restore();
        self.occupancy_epoch += 1;
    }

    /// Serialize all mutable wafer state into a canonical snapshot.
    ///
    /// The fabricated substrate (stitch losses, edge index, config) is NOT
    /// written: it is a pure function of `WaferConfig` and re-fabricated by
    /// [`new`](Self::new) on restore, so the snapshot carries only what a
    /// running campaign has changed — SerDes claims, tile health, bus
    /// loads, live circuits, and the monotonic counters.
    pub fn write_snap(&self, w: &mut desim::SnapWriter) {
        w.section("wafer");
        w.u64("next_id", self.next_id);
        w.u64("reconfigs", self.reconfigs);
        w.u64("occupancy_epoch", self.occupancy_epoch);
        w.u64("tiles", self.tiles.len() as u64);
        for t in &self.tiles {
            let all = LambdaSet::first_n(t.serdes.lanes());
            w.u64("tx", all.difference(t.serdes.tx_available()).bits());
            w.u64("rx", all.difference(t.serdes.rx_available()).bits());
            w.bool("failed", t.is_failed());
        }
        w.u64("edges", self.edge_used.len() as u64);
        for &used in &self.edge_used {
            w.u64("used", used as u64);
        }
        w.u64("circuits", self.circuits.len() as u64);
        for c in self.circuits.values() {
            w.u64("id", c.id.0);
            w.u64("hops", c.path.tiles().len() as u64);
            for t in c.path.tiles() {
                w.u64("row", t.row as u64);
                w.u64("col", t.col as u64);
            }
            w.u64("lambdas", c.lambdas.bits());
            w.bool("claimed_src", c.claimed_src);
            w.bool("claimed_dst", c.claimed_dst);
            w.f64("bandwidth", c.bandwidth.0);
            w.f64("received", c.link.received.0);
            w.f64("sensitivity", c.link.sensitivity.0);
            w.f64("margin", c.link.margin.0);
            w.f64("ber", c.link.ber);
            w.f64("rate", c.link.rate.0);
        }
    }

    /// Apply a [`write_snap`](Self::write_snap) snapshot onto a freshly
    /// fabricated wafer (same `WaferConfig`, no circuits established).
    ///
    /// Restoration goes through the SerDes pools' own claim API so their
    /// internal state is bit-identical to the original's, and errors out
    /// (leaving `self` possibly partially restored — callers discard it)
    /// on any inconsistency instead of panicking.
    pub fn read_snap(&mut self, r: &mut desim::SnapReader<'_>) -> Result<(), String> {
        self.rev += 1;
        r.section("wafer")?;
        self.next_id = r.u64("next_id")?;
        self.reconfigs = r.u64("reconfigs")?;
        self.occupancy_epoch = r.u64("occupancy_epoch")?;
        let tiles = r.u64("tiles")? as usize;
        if tiles != self.tiles.len() {
            return Err(format!(
                "wafer restore: {tiles} tiles in snapshot, {} fabricated",
                self.tiles.len()
            ));
        }
        for (i, t) in self.tiles.iter_mut().enumerate() {
            let tx = LambdaSet::from_bits(r.u64("tx")?);
            let rx = LambdaSet::from_bits(r.u64("rx")?);
            if !tx.is_empty() && t.serdes.claim_tx(tx).is_none() {
                return Err(format!("wafer restore: tile {i}: tx claim conflict"));
            }
            if !rx.is_empty() && t.serdes.claim_rx(rx).is_none() {
                return Err(format!("wafer restore: tile {i}: rx claim conflict"));
            }
            if r.bool("failed")? {
                t.fail();
            }
        }
        let edges = r.u64("edges")? as usize;
        if edges != self.edge_used.len() {
            return Err(format!(
                "wafer restore: {edges} edges in snapshot, {} fabricated",
                self.edge_used.len()
            ));
        }
        for used in self.edge_used.iter_mut() {
            *used = u32::try_from(r.u64("used")?)
                .map_err(|_| "wafer restore: edge load exceeds u32".to_string())?;
        }
        let circuits = r.u64("circuits")? as usize;
        for _ in 0..circuits {
            let id = CircuitId(r.u64("id")?);
            let hops = r.u64("hops")? as usize;
            let mut pts = Vec::new();
            for _ in 0..hops {
                let row = u8::try_from(r.u64("row")?)
                    .map_err(|_| "wafer restore: tile row exceeds u8".to_string())?;
                let col = u8::try_from(r.u64("col")?)
                    .map_err(|_| "wafer restore: tile col exceeds u8".to_string())?;
                pts.push(TileCoord::new(row, col));
            }
            let path = Path::from_tiles(pts)
                .ok_or_else(|| format!("wafer restore: circuit {id}: invalid path"))?;
            let lambdas = LambdaSet::from_bits(r.u64("lambdas")?);
            let claimed_src = r.bool("claimed_src")?;
            let claimed_dst = r.bool("claimed_dst")?;
            let bandwidth = Gbps(r.f64("bandwidth")?);
            let link = phy::link_budget::LinkReport {
                received: phy::units::Dbm(r.f64("received")?),
                sensitivity: phy::units::Dbm(r.f64("sensitivity")?),
                margin: phy::units::Db(r.f64("margin")?),
                ber: r.f64("ber")?,
                rate: Gbps(r.f64("rate")?),
            };
            if self
                .circuits
                .insert(
                    id,
                    Circuit {
                        id,
                        path,
                        lambdas,
                        claimed_src,
                        claimed_dst,
                        bandwidth,
                        link,
                    },
                )
                .is_some()
            {
                return Err(format!("wafer restore: duplicate circuit {id}"));
            }
        }
        // A circuit holds one waveguide on each bus it crosses, so the bus
        // loads follow from the circuits: a load that disagrees would
        // underflow at a teardown or admit a circuit onto a full bus.
        let mut load = vec![0u32; self.edge_used.len()];
        for c in self.circuits.values() {
            for e in c.path.edges() {
                let Some(n) = self.edge_index.try_index(e).and_then(|i| load.get_mut(i)) else {
                    return Err(format!(
                        "wafer restore: {} crosses {e}, which is off the wafer",
                        c.id
                    ));
                };
                *n += 1;
            }
        }
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        for a in self.coords() {
            for b in [Dir::East, Dir::South]
                .into_iter()
                .filter_map(|d| a.step(d, rows, cols))
            {
                let e = EdgeId::between(a, b);
                let used = self.edge_used(e);
                let want = load.get(self.edge_index.index(e)).copied().unwrap_or(0);
                if used != want {
                    return Err(format!(
                        "wafer restore: bus {e} reads used={used}, but its circuits load it {want}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The set of rx lanes a teardown should release: the *highest* `k` lanes
/// currently in use would be wrong if another circuit released first, so rx
/// lanes are modelled as interchangeable and we release the lowest `k` in
/// use. This is sound because rx claims are count-based (the receiver
/// demultiplexes whatever wavelengths arrive).
fn rx_release_set(tile: &Tile, k: usize) -> LambdaSet {
    let all = LambdaSet::first_n(tile.serdes.lanes());
    let free = tile.serdes.rx_available();
    let in_use = all.difference(free);
    // A live circuit holds at least k rx lanes; if bookkeeping ever
    // disagreed, releasing everything in use beats aborting the process.
    in_use.take_lowest(k).unwrap_or(in_use)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wafer() -> Wafer {
        Wafer::new(WaferConfig::default())
    }

    fn t(r: u8, c: u8) -> TileCoord {
        TileCoord::new(r, c)
    }

    #[test]
    fn fabrication_samples_every_boundary() {
        let w = wafer();
        // 4×8 grid: horizontal edges 4×7 = 28, vertical 3×8 = 24 → 52.
        assert_eq!(w.stitch_loss_db.len(), 52);
        assert_eq!(w.edge_index().len(), 52);
        for &l in &w.stitch_loss_db {
            assert!((0.0..3.0).contains(&l), "stitch loss {l} dB implausible");
        }
    }

    #[test]
    fn fabrication_is_deterministic_in_seed() {
        let a = Wafer::new(WaferConfig::default());
        let b = Wafer::new(WaferConfig::default());
        let e = EdgeId::between(t(0, 0), t(0, 1));
        assert_eq!(a.stitch_loss_db(e), b.stitch_loss_db(e));
        let c = Wafer::new(WaferConfig {
            fab_seed: 999,
            ..WaferConfig::default()
        });
        assert_ne!(a.stitch_loss_db(e), c.stitch_loss_db(e));
    }

    #[test]
    fn establish_reserves_and_reports() {
        let mut w = wafer();
        let rep = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 2), 4))
            .expect("establish");
        assert_eq!(rep.setup, SimDuration::from_secs_f64(3.7e-6));
        assert!(rep.link.closes());
        let ckt = w.circuit(rep.id).unwrap();
        assert_eq!(ckt.bandwidth.0, 4.0 * 224.0);
        assert_eq!(ckt.path.hops(), 3);
        assert_eq!(w.tile(t(0, 0)).serdes.tx_free(), 12);
        assert_eq!(w.tile(t(1, 2)).serdes.rx_free(), 12);
        for e in ckt.path.edges() {
            assert_eq!(w.edge_used(e), 1);
        }
        assert!((w.aggregate_bandwidth().0 - 896.0).abs() < 1e-9);
    }

    #[test]
    fn teardown_releases_everything() {
        let mut w = wafer();
        let rep = w
            .establish(CircuitRequest::new(t(0, 0), t(3, 7), 16))
            .unwrap();
        let path = w.circuit(rep.id).unwrap().path.clone();
        w.teardown(rep.id).unwrap();
        assert_eq!(w.tile(t(0, 0)).serdes.tx_free(), 16);
        assert_eq!(w.tile(t(3, 7)).serdes.rx_free(), 16);
        for e in path.edges() {
            assert_eq!(w.edge_used(e), 0);
        }
        assert!(matches!(
            w.teardown(rep.id),
            Err(CircuitError::UnknownCircuit(_))
        ));
    }

    #[test]
    fn serdes_exhaustion_is_detected() {
        let mut w = wafer();
        // 16 lanes: four 4-lane circuits fit, a fifth does not.
        for i in 0..4 {
            w.establish(CircuitRequest::new(t(0, 0), t(1, (i + 1) as u8), 4))
                .unwrap();
        }
        let err = w
            .establish(CircuitRequest::new(t(0, 0), t(2, 2), 4))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::InsufficientTxLanes { free: 0, .. }
        ));
    }

    #[test]
    fn rx_exhaustion_is_detected() {
        let mut w = wafer();
        w.establish(CircuitRequest::new(t(0, 0), t(1, 1), 16))
            .unwrap();
        let err = w
            .establish(CircuitRequest::new(t(2, 2), t(1, 1), 1))
            .unwrap_err();
        assert!(matches!(
            err,
            CircuitError::InsufficientRxLanes { free: 0, .. }
        ));
    }

    #[test]
    fn edge_capacity_is_enforced() {
        let mut w = Wafer::new(WaferConfig {
            waveguides_per_edge: 2,
            ..WaferConfig::default()
        });
        // Pin both XY and YX routes between distinct sources through the
        // single edge (0,0)-(0,1) using explicit paths.
        let p = |s: TileCoord, d: TileCoord| Path::from_tiles(vec![s, d]).unwrap();
        w.establish(CircuitRequest::new(t(0, 0), t(0, 1), 1).via(p(t(0, 0), t(0, 1))))
            .unwrap();
        w.establish(CircuitRequest::new(t(0, 1), t(0, 0), 1).via(p(t(0, 1), t(0, 0))))
            .unwrap();
        let err = w
            .establish(CircuitRequest::new(t(0, 0), t(0, 1), 2).via(p(t(0, 0), t(0, 1))))
            .unwrap_err();
        assert!(matches!(err, CircuitError::EdgeExhausted(_)));
    }

    #[test]
    fn default_route_falls_back_to_yx() {
        let mut w = Wafer::new(WaferConfig {
            waveguides_per_edge: 1,
            ..WaferConfig::default()
        });
        // Saturate the first XY edge out of (0,0).
        w.establish(CircuitRequest::new(t(0, 0), t(0, 1), 1))
            .unwrap();
        // Next circuit from (0,0) to (1,1): XY would reuse (0,0)-(0,1).
        let rep = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 1), 1))
            .unwrap();
        let path = &w.circuit(rep.id).unwrap().path;
        assert_eq!(path.tiles()[1], t(1, 0), "took the YX route");
    }

    #[test]
    fn failed_tile_cannot_terminate_but_passes_through() {
        let mut w = wafer();
        w.fail_tile(t(1, 1));
        let err = w
            .establish(CircuitRequest::new(t(1, 1), t(0, 0), 1))
            .unwrap_err();
        assert_eq!(err, CircuitError::TileFailed(t(1, 1)));
        let err = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 1), 1))
            .unwrap_err();
        assert_eq!(err, CircuitError::TileFailed(t(1, 1)));
        // Pass-through: (1,0) → (1,2) via the failed (1,1) succeeds.
        let via = Path::from_tiles(vec![t(1, 0), t(1, 1), t(1, 2)]).unwrap();
        assert!(w
            .establish(CircuitRequest::new(t(1, 0), t(1, 2), 1).via(via))
            .is_ok());
    }

    #[test]
    fn cross_wafer_segment_skips_serdes() {
        let mut w = wafer();
        let mut req = CircuitRequest::new(t(0, 0), t(0, 7), 4);
        req.claim_src_serdes = false;
        w.establish(req).unwrap();
        assert_eq!(w.tile(t(0, 0)).serdes.tx_free(), 16, "no tx lanes taken");
        assert_eq!(w.tile(t(0, 7)).serdes.rx_free(), 12);
    }

    #[test]
    fn longest_path_budget_closes() {
        let w = wafer();
        let link = w.link_budget(&Path::xy(t(0, 0), t(3, 7)));
        assert!(
            link.closes(),
            "corner-to-corner circuit must close: margin {}",
            link.margin
        );
    }

    #[test]
    fn loss_budget_itemization() {
        let w = wafer();
        let p = Path::xy(t(0, 0), t(1, 2)); // 3 hops, 1 turn, 2 intermediate
        let b = w.path_loss_budget(&p);
        assert_eq!(b.stitches(), 3);
        assert_eq!(b.crossings(), 2 + 1); // 2 through-tiles + 1 turn
        let expected_prop = 3.0 * 2.5 * 0.1;
        let prop: f64 = b
            .items()
            .iter()
            .filter_map(|e| match e {
                LossElement::Waveguide {
                    length_cm,
                    db_per_cm,
                } => Some(length_cm * db_per_cm),
                _ => None,
            })
            .sum();
        assert!((prop - expected_prop).abs() < 1e-12);
    }

    #[test]
    fn crosstalk_degrades_busy_buses() {
        let mut w = Wafer::new(WaferConfig {
            crosstalk_per_cochannel_db: 0.5, // exaggerated for the test
            ..WaferConfig::default()
        });
        let p = Path::from_tiles(vec![t(0, 0), t(0, 1)]).unwrap();
        let quiet = w.link_budget(&p).margin.0;
        // Load the same bus with unrelated circuits (distinct endpoints so
        // SerDes lanes suffice).
        for i in 0..8u8 {
            let via = Path::from_tiles(vec![t(0, 0), t(0, 1)]).unwrap();
            let mut req = CircuitRequest::new(t(0, 0), t(0, 1), 1).via(via);
            req.claim_src_serdes = i % 2 == 0; // vary to spread lane usage
            w.establish(req).unwrap();
        }
        let busy = w.link_budget(&p).margin.0;
        assert!(
            quiet - busy >= 8.0 * 0.5 - 1e-9,
            "8 co-channels at 0.5 dB each: {quiet} -> {busy}"
        );
    }

    #[test]
    fn bad_requests_rejected() {
        let mut w = wafer();
        assert!(matches!(
            w.establish(CircuitRequest::new(t(0, 0), t(0, 0), 1)),
            Err(CircuitError::SameEndpoints(_))
        ));
        assert!(matches!(
            w.establish(CircuitRequest::new(t(0, 0), t(9, 9), 1)),
            Err(CircuitError::OutOfBounds(_))
        ));
        assert!(matches!(
            w.establish(CircuitRequest::new(t(0, 0), t(0, 1), 0)),
            Err(CircuitError::BadLaneCount(0))
        ));
        assert!(matches!(
            w.establish(CircuitRequest::new(t(0, 0), t(0, 1), 17)),
            Err(CircuitError::BadLaneCount(17))
        ));
        let wrong = Path::xy(t(0, 0), t(1, 1));
        assert!(matches!(
            w.establish(CircuitRequest::new(t(0, 0), t(2, 2), 1).via(wrong)),
            Err(CircuitError::PathMismatch)
        ));
    }

    #[test]
    fn occupancy_epoch_tracks_every_mutation() {
        let mut w = wafer();
        assert_eq!(w.occupancy_epoch(), 0);
        let Ok(rep) = w.establish(CircuitRequest::new(t(0, 0), t(1, 1), 1)) else {
            panic!("establish failed");
        };
        assert_eq!(w.occupancy_epoch(), 1);
        // A failed establish commits nothing and must not advance the epoch.
        assert!(w
            .establish(CircuitRequest::new(t(0, 0), t(0, 0), 1))
            .is_err());
        assert_eq!(w.occupancy_epoch(), 1);
        w.fail_tile(t(2, 2));
        assert_eq!(w.occupancy_epoch(), 2);
        w.restore_tile(t(2, 2));
        assert_eq!(w.occupancy_epoch(), 3);
        assert!(w.teardown(rep.id).is_ok());
        assert_eq!(w.occupancy_epoch(), 4);
        // A failed teardown also leaves the epoch alone.
        assert!(w.teardown(rep.id).is_err());
        assert_eq!(w.occupancy_epoch(), 4);
    }

    #[test]
    fn circuits_at_finds_endpoints() {
        let mut w = wafer();
        let a = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 1), 1))
            .unwrap();
        let b = w
            .establish(CircuitRequest::new(t(2, 2), t(0, 0), 1))
            .unwrap();
        w.establish(CircuitRequest::new(t(3, 3), t(2, 0), 1))
            .unwrap();
        let at = w.circuits_at(t(0, 0));
        assert_eq!(at, vec![a.id, b.id]);
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut w = wafer();
        let a = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 2), 4))
            .unwrap();
        let _b = w
            .establish(CircuitRequest::new(t(2, 2), t(0, 0), 2))
            .unwrap();
        w.teardown(a.id).unwrap();
        w.fail_tile(t(3, 3));
        let mut fiber_fed = CircuitRequest::new(t(0, 5), t(0, 7), 3);
        fiber_fed.claim_src_serdes = false;
        w.establish(fiber_fed).unwrap();

        let mut sw = desim::SnapWriter::new();
        w.write_snap(&mut sw);
        let text = sw.finish();

        let mut restored = wafer();
        let mut r = desim::SnapReader::new(&text);
        restored.read_snap(&mut r).expect("restore");
        r.done().expect("consumed fully");

        // The restored wafer must re-serialize to the identical bytes…
        let mut sw2 = desim::SnapWriter::new();
        restored.write_snap(&mut sw2);
        assert_eq!(sw2.finish(), text);
        // …and behave identically: next establish gets the same id, lanes,
        // and loads on both.
        let r1 = w
            .establish(CircuitRequest::new(t(1, 0), t(2, 1), 1))
            .unwrap();
        let r2 = restored
            .establish(CircuitRequest::new(t(1, 0), t(2, 1), 1))
            .unwrap();
        assert_eq!(r1.id, r2.id);
        assert_eq!(w.occupancy_epoch(), restored.occupancy_epoch());
        assert_eq!(
            w.tile(t(0, 0)).serdes.rx_free(),
            restored.tile(t(0, 0)).serdes.rx_free()
        );
        assert!(restored.tile(t(3, 3)).is_failed());
    }

    #[test]
    fn failed_establish_leaves_no_residue() {
        let mut w = wafer();
        let before_tx = w.tile(t(0, 0)).serdes.tx_free();
        // Fails at rx check (dst saturated) after tx/edges were checked.
        w.establish(CircuitRequest::new(t(2, 2), t(1, 1), 16))
            .unwrap();
        let _ = w
            .establish(CircuitRequest::new(t(0, 0), t(1, 1), 4))
            .unwrap_err();
        assert_eq!(w.tile(t(0, 0)).serdes.tx_free(), before_tx);
        let p = Path::xy(t(0, 0), t(1, 1));
        for e in p.edges() {
            // Only the first circuit's edges may be loaded.
            assert!(w.edge_used(e) <= 1);
        }
    }
}
