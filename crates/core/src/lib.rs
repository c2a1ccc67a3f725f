//! **tis-core** — the paper's primary contribution: tightly-integrated task scheduling for a
//! RISC-V multi-core.
//!
//! The MICRO 2019 paper "Adding Tightly-Integrated Task Scheduling Acceleration to a RISC-V
//! Multi-core Processor" embeds the Picos hardware task-dependence manager *inside* a Rocket
//! Chip processor and exposes it to software through seven custom RoCC instructions (Table I),
//! eliminating the CPU↔FPGA communication that throttled earlier systems. This crate is the Rust
//! model of that contribution, layered on the substrates of the workspace:
//!
//! * [`rocc`] — the RoCC instruction format (Figure 1) and the Table-I instruction set;
//! * [`manager`] — **Picos Manager** (Section IV-F): the Submission Handler with its Guided
//!   Arbiter and Zero Padder, the Work-Fetch Arbiter, the Packet Encoder, the Round-Robin
//!   retirement arbiter, the per-core ready queues and the protocol-crossing glue around Picos,
//!   plus each core's *SW-ID-fetched* flag, the only state of a **Picos Delegate** (Section IV-E);
//! * [`fabric`] — [`PicosFabric`]: the per-core delegates of Figure 2, a
//!   [`SchedulerFabric`](tis_machine::SchedulerFabric) that carries out each custom instruction
//!   against the shared manager, counts it per core and has its [`PicosLink`] price it;
//!   [`TisFabric`] is the RoCC link cores drive with ~2-cycle instructions, and
//!   `tis_nanos::AxiFabric` the Picos++ AXI/MMIO link;
//! * [`phentos`] — the **Phentos** fly-weight runtime (Section V-B): no non-IO syscalls,
//!   cache-line-sized task metadata, private retirement counters with batched atomic updates,
//!   bounded spin polling;
//! * [`resources`] — the FPGA resource model behind Table II.
//!
//! # Quickstart
//!
//! ```
//! use tis_core::{Phentos, PhentosConfig, TisConfig, TisFabric};
//! use tis_machine::{run_machine, MachineConfig};
//! use tis_taskmodel::{Dependence, Payload, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new("demo");
//! let buf = 0x8000_0000;
//! b.spawn(Payload::compute(5_000), vec![Dependence::write(buf)]);
//! b.spawn(Payload::compute(5_000), vec![Dependence::read(buf)]);
//! b.taskwait();
//! let program = b.build();
//!
//! let machine = MachineConfig::rocket_octacore();
//! let mut runtime = Phentos::new(&program, machine.cores, PhentosConfig::default());
//! let mut fabric = TisFabric::new(machine.cores, TisConfig::default());
//! let report = run_machine(&machine, &mut runtime, &mut fabric).expect("simulation succeeds");
//! assert_eq!(report.tasks_retired, 2);
//! report.validate_against(&program).expect("dependences honoured");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod manager;
pub mod phentos;
pub mod resources;
pub mod rocc;

pub use fabric::{PicosFabric, PicosLink, TisConfig, TisFabric};
pub use phentos::{Phentos, PhentosConfig};
pub use resources::{ResourceReport, ResourceRow};
pub use rocc::{RoccInstruction, TaskSchedOp, CUSTOM0_OPCODE};
