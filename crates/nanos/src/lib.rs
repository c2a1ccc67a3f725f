//! Behavioural models of the **Nanos** runtime family (Section V-A and the baselines of
//! Section VI).
//!
//! Nanos is the Barcelona Supercomputing Center's OmpSs runtime. The paper uses three flavours:
//!
//! * **Nanos-SW** — stock Nanos with its `plain` dependence plugin: dependence inference is done
//!   in software, under locks, with heap-allocated dependence objects;
//! * **Nanos-RV** — the authors' port: the `picos` plugin offloads dependence inference to the
//!   tightly-integrated hardware through the RoCC instructions, but the rest of Nanos (plugin
//!   virtual dispatch, WorkDescriptor allocation, the central Scheduler singleton and its
//!   mutexes/condition variables) is unchanged;
//! * **Nanos-AXI** — the previous state of the art (Tan et al.'s Picos++ system): the same Nanos
//!   structure, but the accelerator sits on the other side of an AXI/MMIO/DMA driver.
//!
//! This crate models all three on top of the workspace substrates:
//!
//! * [`tuning`] — the calibrated per-operation path lengths of the Nanos code base;
//! * [`shared`] — the shared-memory structures Nanos hammers (the scheduler lock, the central
//!   ready queue, the taskwait counter) and a deterministic lock/futex contention model;
//! * [`axi`] — [`AxiConfig`], the Picos++ link's price list, and [`AxiFabric`]: the one Picos
//!   fabric of `tis-core` over that link, so MMIO/DMA latencies replace 2-cycle instructions
//!   and nothing else changes;
//! * [`runtime`] — [`Nanos`], a [`RuntimeSystem`](tis_machine::RuntimeSystem)
//!   implementation parameterised by [`NanosVariant`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axi;
pub mod runtime;
pub mod shared;
pub mod tuning;

pub use axi::{AxiConfig, AxiFabric};
pub use runtime::{Nanos, NanosVariant};
pub use tuning::NanosTuning;
