//! The memory-system scaling experiment: snooping bus vs directory/NoC from 2 to 64 cores.
//!
//! The paper's snooping/no-L2 model is faithful to the 8-core prototype but **optimistic** at
//! 64 cores — its bus wait is capped, so coherence is essentially free at any scale. The
//! directory/NoC model pays per-hop mesh latency instead, which grows with the machine. This
//! bench runs both models side by side on the same workloads (same programs cell-for-cell:
//! the memory axis never perturbs generation) and reports how the memory latency gap opens as
//! the mesh grows, turning the 64-core speedup story from "assumed free coherence" into a
//! defensible sensitivity range.
//!
//! Run with `cargo bench -p tis-exp --bench sweep_memory_scaling`. Set `TIS_BENCH_JSON=<dir>`
//! to write the machine-readable `BENCH_sweep_memory-scaling.json` artifact and
//! `TIS_SWEEP_WORKERS=<n>` to override the host thread count.
//!
//! The bench exits non-zero if any cell exceeds its MTT bound, or if the 64-core directory
//! cells fail to show **strictly higher** mean memory latency than their snooping twins — the
//! whole point of the second model is that distance is not free.

use std::process::ExitCode;

use tis_bench::Platform;
use tis_exp::{
    run_sweep_with_workers, workers_from_env, CellSpec, MemoryModel, Sweep, SynthFamily,
    SynthSpec, WorkloadSpec,
};

fn main() -> ExitCode {
    let cores = [2usize, 4, 8, 16, 32, 64];
    let sweep = Sweep::new("memory-scaling")
        .over_cores(cores)
        .over_memory_models([MemoryModel::SnoopBus, MemoryModel::directory_mesh()])
        .over_platforms([Platform::Phentos])
        // The catalog's medium-granularity blackscholes with core-count context, plus a
        // coherence-heavy dense DAG whose cross-task dependences keep lines migrating.
        .with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"))
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.04 },
            tasks: 192,
            task_cycles: 6_000,
            jitter: 0.25,
        }));

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "memory-scaling sweep: {} cells ({} workloads x {} core counts x 2 memory models), {} workers",
        report.cells.len(),
        sweep.workloads.len(),
        cores.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // The headline trajectory: per workload and core count, mean memory latency and makespan
    // under each model (memory 0 is the bus, memory 1 the mesh), and the ratio between them.
    let mut failures = 0;
    for (workload, spec) in sweep.workloads.iter().enumerate() {
        let label = spec.label();
        println!("{label}:");
        println!(
            "  {:>5} | {:>14} | {:>14} | {:>9} | {:>11}",
            "cores", "bus mem lat", "mesh mem lat", "lat ratio", "cycle ratio"
        );
        for (core_axis, &n) in cores.iter().enumerate() {
            let at = |memory| {
                let at = CellSpec { workload, core_axis, memory, ..CellSpec::default() };
                &report.cells[sweep.index_of(&at)]
            };
            let (bus, mesh) = (at(0), at(1));
            println!(
                "  {:>5} | {:>14.2} | {:>14.2} | {:>8.2}x | {:>10.3}x",
                n,
                bus.mean_mem_latency,
                mesh.mean_mem_latency,
                mesh.mean_mem_latency / bus.mean_mem_latency.max(f64::MIN_POSITIVE),
                mesh.total_cycles as f64 / bus.total_cycles.max(1) as f64,
            );
            if n == 64 && mesh.mean_mem_latency <= bus.mean_mem_latency {
                eprintln!(
                    "SCALING GAP MISSING: {label} at 64 cores: mesh latency {:.2} <= bus latency {:.2}",
                    mesh.mean_mem_latency, bus.mean_mem_latency
                );
                failures += 1;
            }
        }
        println!();
    }

    report.finish(failures)
}
