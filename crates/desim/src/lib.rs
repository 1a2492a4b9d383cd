//! # desim — deterministic discrete-event simulation kernel
//!
//! The execution substrate for the `server-photonics` workspace. Everything
//! above this crate (physical-layer models, the LIGHTPATH interconnect, torus
//! clusters, collective schedules) advances time by scheduling events here.
//!
//! Design points (see `DESIGN.md` at the workspace root):
//!
//! * **Integer picosecond clock** ([`SimTime`], [`SimDuration`]) — no float
//!   drift in the schedule, bit-identical replays for a given seed.
//! * **Single-threaded, synchronous engine** ([`Engine`]) — events are
//!   `FnOnce(&mut Model, &mut Engine)` closures ordered by `(time, insertion)`.
//!   This is a CPU-bound simulation, so no async runtime is involved.
//! * **Self-contained RNG** ([`SimRng`], xoshiro256++) — the random stream
//!   for a seed is fixed by this crate alone, not by external crate versions.
//! * **Measurement collectors** ([`OnlineStats`], [`Histogram`],
//!   [`TimeSeries`]) — the primitives the experiment harnesses report from.
//! * **One worker pool** ([`par::map_pulled`]) — the scoped pull-queue pool
//!   that sweep grids and pod epoch windows share; results come back in
//!   item order, so the worker count is unobservable.
//!
//! ## Example
//!
//! ```
//! use desim::{Engine, SimDuration};
//!
//! #[derive(Default)]
//! struct World { arrivals: u32 }
//!
//! let mut engine = Engine::new();
//! let mut world = World::default();
//! // A self-rescheduling arrival process: one arrival every 2us, five total.
//! fn arrival(w: &mut World, e: &mut Engine<World>) {
//!     w.arrivals += 1;
//!     if w.arrivals < 5 {
//!         e.schedule_in(SimDuration::from_us(2), arrival);
//!     }
//! }
//! engine.schedule_in(SimDuration::from_us(2), arrival);
//! engine.run(&mut world);
//! assert_eq!(world.arrivals, 5);
//! assert_eq!(engine.now().as_ps(), 5 * 2 * 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod epoch;
pub mod fnv;
mod ord;
pub mod par;
mod quantile;
mod rng;
pub mod snap;
pub mod stats;
mod time;

pub use engine::{Engine, EventFn, EventId};
pub use ord::OrdF64;
pub use quantile::QuantileEstimator;
pub use rng::SimRng;
pub use snap::{SnapReader, SnapWriter};
pub use stats::{Histogram, OnlineStats, TimeSeries};
pub use time::{SimDuration, SimTime, PS_PER_MS, PS_PER_NS, PS_PER_S, PS_PER_US};
