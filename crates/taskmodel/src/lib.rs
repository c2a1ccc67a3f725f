//! Task-parallel program model shared by the whole workspace.
//!
//! Task Parallelism (OmpSs / OpenMP 4.0 style) describes a program as a sequence of *task
//! spawns*, each annotated with the memory regions the task reads and/or writes. A runtime —
//! software (Nanos-SW), hardware-assisted (Nanos-RV, Nanos-AXI) or the paper's tightly-integrated
//! Phentos — infers dependences between tasks from those annotations and schedules ready tasks
//! onto cores.
//!
//! This crate defines the *input* side of that contract:
//!
//! * [`dep`] — dependence directionality ([`Direction`]) and annotated addresses
//!   ([`Dependence`]), including the RAW/WAW/WAR conflict rules of Section III-A of the paper;
//! * [`task`] — task descriptors ([`TaskSpec`]) with an abstract payload (compute cycles +
//!   memory bytes);
//! * [`program`] — whole programs ([`TaskProgram`]): an ordered stream of spawns and
//!   `taskwait` barriers, as emitted by the main thread of an OmpSs application;
//! * [`source`] — streaming programs ([`TaskSource`]): the same op stream pulled on demand
//!   with a bounded in-flight descriptor window, so million-task workloads run in
//!   `O(window)` memory ([`MaterializedSource`] adapts any built program losslessly);
//! * [`tenant`] — multi-tenant co-scheduling ([`TenantSet`] / [`TenantSource`]): N independent
//!   task graphs merged into one op stream under deterministic arrival processes, with
//!   per-tenant turnaround accounting and tracker-sharing policy;
//! * [`graph`] — a *reference* dependence graph builder used to validate every scheduler in the
//!   workspace against the paradigm's sequential-semantics definition, plus critical-path and
//!   parallelism analysis.
//!
//! The crate is intentionally independent of any simulator: workload generators produce
//! [`TaskProgram`]s, runtimes consume them, and the reference graph is the ground truth both are
//! tested against.
//!
//! # Example
//!
//! ```
//! use tis_taskmodel::{Dependence, Direction, Payload, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("example");
//! let a = b.spawn(Payload::compute(1_000), vec![Dependence::new(0x100, Direction::Out)]);
//! let c = b.spawn(Payload::compute(1_000), vec![Dependence::new(0x100, Direction::In)]);
//! b.taskwait();
//! let program = b.build();
//! let graph = program.reference_graph();
//! assert!(graph.has_edge(a, c)); // RAW dependence
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dep;
pub mod graph;
pub mod program;
pub mod source;
pub mod task;
pub mod tenant;

pub use dep::{DepAddr, Dependence, Direction};
pub use graph::{
    DepGraph, ExecRecord, ExecutionValidator, FrontierWalker, GraphStats, ValidationError,
};
pub use program::{ProgramBuilder, ProgramOp, ProgramStats, TaskProgram};
pub use source::{MaterializedSource, SourcePoll, TaskSource};
pub use task::{Payload, TaskId, TaskSpec, TaskSpecError, MAX_DEPENDENCES};
pub use tenant::{
    ArrivalGen, ArrivalProcess, TenantReport, TenantRunData, TenantSet, TenantSource, TenantSpec,
    TenantTrackerPolicy, TENANT_ADDR_SHIFT,
};
