//! Deterministic cycle-level simulation substrate.
//!
//! This crate provides the low-level building blocks shared by every other crate in the
//! workspace:
//!
//! * [`clock`] — the [`Cycle`] time base;
//! * [`stats`] — log-scale histograms and geometric means used by the experiment harnesses;
//! * [`rng`] — a small, fully deterministic pseudo-random number generator so that simulations
//!   are reproducible without pulling the `rand` crate into every component;
//! * [`hwqueue`] — bounded FIFO queues with occupancy accounting, modelling the Chisel `Queue`
//!   instances used throughout Picos Manager and Picos itself, plus the time-ordered
//!   [`TimedQueue`] backing the pipeline-completion models;
//! * [`fxhash`] — a deterministic, seedless, non-cryptographic hasher for host-side lookup
//!   tables on the simulator's hot paths;
//! * [`inline`] — [`InlineVec`], a small vector with inline storage for the short lists the
//!   Picos task memory and address table are made of;
//! * [`json`] — the dependency-free JSON value tree shared by the benchmark artifacts and the
//!   observability exports;
//! * [`rows`] — [`Rows`], graph adjacency in compressed-row form.
//!
//! The whole simulator is single-threaded and deterministic: given the same configuration and the
//! same seeds, every run produces bit-identical results. This mirrors the methodology of the
//! paper, which reports cycle counts measured on a deterministic FPGA prototype.
//!
//! # Example
//!
//! ```
//! use tis_sim::{geomean, Histogram};
//!
//! let mut latencies = Histogram::new();
//! for cycles in [1, 2, 125] {
//!     latencies.record(cycles);
//! }
//! assert_eq!(latencies.count(), 3);
//! assert_eq!(latencies.max(), Some(125.0));
//! assert_eq!(geomean([1.0, 4.0, 16.0]), Some(4.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod fxhash;
pub mod hwqueue;
pub mod inline;
pub mod json;
pub mod rng;
pub mod rows;
pub mod stats;

pub use clock::Cycle;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use hwqueue::{BoundedQueue, TimedQueue};
pub use inline::InlineVec;
pub use json::{Json, JsonParseError};
pub use rng::SimRng;
pub use rows::Rows;
pub use stats::{geomean, Histogram};
