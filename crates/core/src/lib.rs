//! # lightpath — the server-scale photonic interconnect
//!
//! The primary contribution of *"A case for server-scale photonic
//! connectivity"* (HotNets '24): a model of the LIGHTPATH wafer and the
//! circuits it carries.
//!
//! A [`Wafer`] is a grid of up to 32 [`tile::Tile`]s (§3, Fig 2), each with
//! 16 WDM lasers at 224 Gb/s, a Tx/Rx block, and MZI switches; waveguide
//! buses (~10,000 per edge) join adjacent tiles, and attached fibers join
//! wafers into a rack-scale [`Fabric`]. Circuits are admitted only when
//! SerDes lanes, waveguide capacity, and the end-to-end optical budget all
//! check out — so every admitted circuit is contention-free by construction,
//! the property §4 builds on. Establishing or re-pointing a circuit costs
//! the measured **3.7 µs** MZI reconfiguration latency, surfaced to callers
//! as the `r` term of the paper's α–β–r cost model.
//!
//! ## Quick tour
//!
//! ```
//! use lightpath::{CircuitRequest, TileCoord, Wafer, WaferConfig};
//!
//! let mut wafer = Wafer::new(WaferConfig::lightpath_32());
//! let report = wafer
//!     .establish(CircuitRequest::new(TileCoord::new(0, 0), TileCoord::new(3, 7), 16))
//!     .expect("corner-to-corner at full 16-lane bandwidth");
//! assert!(report.link.closes());
//! assert!((report.setup.as_micros_f64() - 3.7).abs() < 1e-9);
//! let ckt = wafer.circuit(report.id).unwrap();
//! assert_eq!(ckt.bandwidth.0, 16.0 * 224.0); // 3.584 Tb/s
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod config;
pub mod fabric;
pub mod fault;
pub mod geom;
pub mod telemetry;
pub mod tile;
pub mod wafer;

pub use circuit::{Circuit, CircuitError, CircuitId, CircuitRequest};
pub use config::WaferConfig;
pub use fabric::{
    CrossCircuit, CrossCircuitId, CrossPlanStats, CrossPlans, Fabric, FabricCircuit, FiberLink,
    WaferId,
};
pub use fault::{
    CircuitFault, CollectiveFault, CtrlFault, EntityRef, FabricError, FaultKind, Layer, PhyFault,
    RouteFault, TopoFault,
};
pub use geom::{Dir, EdgeId, EdgeIndex, EdgeSet, Path, TileCoord};
pub use telemetry::{WaferTelemetry, EDGE_OCCUPANCY_BUCKETS};
pub use tile::Tile;
pub use wafer::{EstablishReport, Wafer};
