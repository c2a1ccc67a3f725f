//! Multi-core machine model: the substrate every runtime in the workspace executes on.
//!
//! The paper evaluates its tightly-integrated scheduler on an eight-core, in-order, 80 MHz
//! Rocket Chip with private MESI L1 caches and no shared L2. This crate models that machine and
//! defines the interfaces the runtimes and the scheduler hardware plug into:
//!
//! * [`config`] — [`MachineConfig`]: core count, cache geometry, memory latencies, DRAM
//!   bandwidth, clocks;
//! * [`cost`] — [`CostModel`]: calibrated cycle costs of the *software* operations the runtimes
//!   perform (function calls, virtual dispatch, heap allocation, futex system calls, AXI/MMIO
//!   transactions, …). These are the knobs that make Nanos cost thousands of cycles per task
//!   while Phentos costs hundreds, and every constant is documented and overridable;
//! * [`fabric`] — the [`SchedulerFabric`] trait: the seven task-scheduling operations of
//!   Table I, as seen by a core. `tis-core` implements it with the RoCC-integrated Picos
//!   (2-cycle instructions); `tis-nanos` also provides an AXI/MMIO implementation reproducing
//!   the Picos++ baseline, and a null implementation for the software-only runtime;
//! * [`context`] — [`CoreCtx`]: the per-core micro-operation interface (compute, cache-coherent
//!   loads/stores, atomics, syscalls, payload DRAM traffic) through which runtime agents spend
//!   cycles;
//! * [`engine`] — the deterministic execution engine driving one agent per core, plus the
//!   [`RuntimeSystem`] trait runtimes implement;
//! * [`report`] — [`ExecutionReport`]: cycle counts, per-core utilisation, per-task execution
//!   records (validated against the reference dependence graph), speedups and the MTT-derived
//!   bound of Figure 6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod cost;
pub mod engine;
pub mod fabric;
pub mod report;

pub use config::MachineConfig;
pub use context::{CoreCtx, CoreStats};
// Re-exported so harness-level crates can select the interconnect without a direct `tis_mem`
// dependency.
pub use tis_mem::{
    AccessKind, DegradedOutcome, FaultConfig, FaultDiagnosis, FaultStats, LinkContention, MemoryModel,
    NocConfig, NocContention,
};
pub use cost::CostModel;
pub use engine::{
    run_machine, run_machine_counted, run_machine_observed, run_machine_reference, CoreStatus,
    EngineError, EngineStats, PollLoop, PollTouch, RuntimeSystem,
};
pub use fabric::{FabricStats, FailedOps, InternalEvents, NullFabric, PollChanges, SchedulerFabric};
pub use report::{mtt_speedup_bound, mtt_speedup_bound_from_throughput, CoreUtilisation, ExecutionReport};
