//! Facade crate for the **TIS** workspace — a simulator reproduction of
//! *Adding Tightly-Integrated Task Scheduling Acceleration to a RISC-V Multi-core Processor*
//! (Morais et al., MICRO 2019).
//!
//! The workspace is split into thirteen layered crates; this crate simply re-exports all of them so
//! the top-level `examples/` and `tests/` directories have a single anchor package, and so
//! downstream users can depend on one crate:
//!
//! | Layer | Crate | Role |
//! |-------|-------|------|
//! | substrate | [`sim`] | deterministic clocks, stats, RNG, bounded hardware queues |
//! | model | [`taskmodel`] | task-parallel programs and the reference dependence graph |
//! | substrate | [`fault`] | deterministic fault injection: replayable drop/delay/dead-link and tracker-loss schedules |
//! | substrate | [`mem`] | MESI L1 caches, snooping interconnect, DRAM model |
//! | engine | [`machine`] | machine config, cost model, scheduler-fabric trait, execution engine |
//! | device | [`picos`] | the Picos hardware task-dependence manager (function + timing) |
//! | platform | [`core`] | RoCC instructions, Picos Delegate/Manager, TIS fabric, Phentos runtime |
//! | platform | [`nanos`] | Nanos-SW / Nanos-RV / Nanos-AXI behavioural runtime models |
//! | observability | [`obs`] | typed task-lifecycle events, metrics timelines, Perfetto export, critical-path profiler |
//! | input | [`workloads`] | blackscholes, jacobi, sparselu, stream, microbenches, Figure 9 catalog |
//! | harness | [`bench`](mod@bench) | the experiment harness reproducing the paper's tables and figures |
//! | harness | [`exp`] | declarative sweeps, synthetic task graphs, parallel sweep runner |
//! | verification | [`analyze`] | graph preflight, vector-clock race detection, protocol model check, `tis-lint` |
//!
//! See `README.md` for the quickstart and `ARCHITECTURE.md` for the paper-section-to-module map.
//!
//! # Example
//!
//! ```
//! use tis::bench::{Harness, Platform};
//! use tis::workloads::task_chain;
//!
//! let program = task_chain(64, 2);
//! let report = Harness::default().run(Platform::Phentos, &program).unwrap();
//! assert!(report.total_cycles > 0);
//! ```
//!
//! # Example: the NoC-contention sub-axis
//!
//! This is the README's "NoC contention" snippet, kept compiling and passing here so the
//! README can never rot:
//!
//! ```
//! use tis::bench::Platform;
//! use tis::exp::{MemoryModel, Sweep, SynthFamily, SynthSpec, WorkloadSpec};
//!
//! // Ideal vs contended mesh links on the same dense DAG, same 16-core machine:
//! // the contention penalty is the ratio of the two cells' mean memory latencies.
//! let report = Sweep::new("noc-demo")
//!     .over_cores([16])
//!     .over_memory_models([
//!         MemoryModel::directory_mesh(),           // infinite links (PR 4 baseline)
//!         MemoryModel::directory_mesh_contended(), // 8 B/cycle links, 4-flit buffers
//!     ])
//!     .over_platforms([Platform::Phentos])
//!     .with_workload(WorkloadSpec::synth(SynthSpec {
//!         family: SynthFamily::ErdosRenyi { density: 0.1 },
//!         tasks: 64,
//!         task_cycles: 6_000,
//!         jitter: 0.25,
//!     }))
//!     .run();
//! let (ideal, contended) = (&report.cells[0], &report.cells[1]);
//! assert!(contended.mean_mem_latency > ideal.mean_mem_latency);
//! assert!(contended.noc_link_wait_cycles > 0, "contended links queue");
//! assert_eq!(ideal.noc_link_wait_cycles, 0, "ideal links never do");
//! ```
//!
//! # Example: serving N tenants
//!
//! The README's "Serving N tenants on one machine" snippet, kept compiling and passing
//! here so the README can never rot:
//!
//! ```
//! use tis::bench::{Harness, Platform};
//! use tis::sim::SimRng;
//! use tis::taskmodel::{ArrivalProcess, MaterializedSource, TenantSet, TenantTrackerPolicy};
//! use tis::workloads::task_chain;
//!
//! // A Poisson-trickling service tenant and a bursty batch co-tenant share an 8-core
//! // machine; partitioning reserves tracker entries so neither can clog the other out.
//! let set = TenantSet::new()
//!     .tenant("svc", Box::new(MaterializedSource::new(&task_chain(24, 1))),
//!             ArrivalProcess::Poisson { mean_interarrival: 2_000 })
//!     .tenant("batch", Box::new(MaterializedSource::new(&task_chain(24, 1))),
//!             ArrivalProcess::Bursty { burst: 8, period: 30_000 })
//!     .with_policy(TenantTrackerPolicy::Partitioned { per_tenant_entries: 16 });
//! let (report, _tracks) = Harness::with_cores(8)
//!     .run_tenants(Platform::Phentos, set.into_source(SimRng::new(7)), true, None)
//!     .unwrap();
//! assert_eq!(report.tenants.iter().map(|t| t.tasks).sum::<u64>(), report.tasks_retired);
//! let svc = &report.tenants[0];
//! assert!(svc.p50 <= svc.p90 && svc.p90 <= svc.p99); // exact nearest-rank percentiles
//! assert!(report.tenant_jain_fairness() <= 1.0);
//! ```
//!
//! # Example: streaming execution
//!
//! The README's "Streaming a million tasks" snippet, kept compiling and passing here at
//! debug-build scale (the million-task version is the `sweep_streaming_scale` CI bench;
//! only the task count differs):
//!
//! ```
//! use tis::bench::{Harness, Platform};
//! use tis::exp::{StreamingSynth, SynthFamily, SynthSpec};
//! use tis::sim::SimRng;
//!
//! let spec = SynthSpec::uniform(SynthFamily::Chain, 20_000, 500);
//! let source = StreamingSynth::new(spec, 1_024, SimRng::new(42)); // 1 024-task window
//! let report = Harness::paper_prototype()
//!     .run_source(Platform::Phentos, Box::new(source), false) // false: no per-task records
//!     .unwrap();
//! assert_eq!(report.tasks_retired, 20_000);
//! assert!(report.peak_resident_tasks <= 1_024); // O(window) memory, machine-checked
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tis_analyze as analyze;
pub use tis_bench as bench;
pub use tis_core as core;
pub use tis_exp as exp;
pub use tis_fault as fault;
pub use tis_machine as machine;
pub use tis_mem as mem;
pub use tis_nanos as nanos;
pub use tis_obs as obs;
pub use tis_picos as picos;
pub use tis_sim as sim;
pub use tis_taskmodel as taskmodel;
pub use tis_workloads as workloads;
