//! Time base for the simulator.
//!
//! Everything in the workspace measures time in **core clock cycles** of the simulated Rocket
//! Chip (the paper's prototype runs at 80 MHz). [`Cycle`] is a plain `u64` so that arithmetic
//! stays ergonomic in hot simulation loops.

/// A point in (or duration of) simulated time, measured in core clock cycles.
pub type Cycle = u64;
