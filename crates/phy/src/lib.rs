//! # phy — photonic physical layer
//!
//! Device- and signal-level models of the LIGHTPATH hardware characterized
//! in §3 of *"A case for server-scale photonic connectivity"* (HotNets '24):
//!
//! * [`mzi`] — 2×2 Mach-Zehnder elements and the 1×3 switches built from
//!   them, with first-order thermo-optic dynamics ([`thermal`]) calibrated
//!   to the paper's measured **3.7 µs** reconfiguration (Fig 3a).
//! * [`stitch`] — Monte-Carlo reticle stitch-loss distribution (Fig 3b)
//!   derived from Gaussian-mode overlap under overlay misalignment.
//! * [`loss`] — itemized loss budgets (crossings at the measured
//!   **0.25 dB**, propagation, stitches, coupling).
//! * [`devices`] / [`link_budget`] — lasers, MRR modulators, photodetectors,
//!   receiver sensitivity, and end-to-end budget closure at **224 Gb/s** per
//!   wavelength.
//! * [`modulation`] — where 224 Gb/s comes from: 112 GBd PAM4, with the
//!   format-dependent eye compression and sensitivity trade against NRZ.
//! * [`wdm`] / [`serdes`] — the 16-λ channel plan and the electrical-side
//!   SerDes lane limit that caps simultaneous connections per tile.
//!
//! The `lightpath` crate composes these into tiles, wafers, and circuits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod devices;
pub mod drift;
pub mod link_budget;
pub mod loss;
pub mod math;
pub mod modulation;
pub mod mzi;
pub mod serdes;
pub mod stitch;
pub mod thermal;
pub mod units;
pub mod wdm;

pub use devices::{Laser, MrrModulator, Photodetector};
pub use drift::{recal_tradeoff, DriftModel, RecalPoint};
pub use link_budget::{LinkInfeasible, LinkModel, LinkReport, DEFAULT_TARGET_BER};
pub use loss::{LossBudget, LossElement, CROSSING_LOSS_DB};
pub use math::{ber_from_q, erfc, fit_exponential_rise, fit_settling_tau, q_from_ber, ExpFit};
pub use modulation::{Channel, Format};
pub use mzi::{Mzi, MziParams, MziState, Switch1x3, SwitchPort};
pub use serdes::SerdesPool;
pub use stitch::StitchModel;
pub use thermal::{FirstOrderStep, DEFAULT_SETTLE_TOL, DEFAULT_TAU_S};
pub use units::{Db, Dbm, Gbps, Milliwatts};
pub use wdm::{Lambda, LambdaSet, WdmGrid, LAMBDAS_PER_TILE, RATE_PER_LAMBDA};
