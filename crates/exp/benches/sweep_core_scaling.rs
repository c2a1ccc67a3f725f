//! The "beyond 8 cores" experiment the paper leaves as future work (§VII): sweep the machine
//! from 2 to 64 cores across two platforms and three workload families (one Figure 9 catalog
//! entry with core-count-scaled input, plus two synthetic families) and compare every measured
//! speedup against the MTT-derived bound `min(cores, t × MTT)`, with the maximum task
//! throughput measured at the swept core count (the Figure 6 `t / Lo` shortcut is pessimistic
//! beyond 8 cores for runtimes whose per-task overhead parallelises across workers).
//!
//! Run with `cargo bench -p tis-exp --bench sweep_core_scaling`. Set `TIS_BENCH_JSON=<dir>` to
//! also write the machine-readable `BENCH_sweep_core-scaling.json` artifact, and `TIS_SWEEP_WORKERS=<n>` to
//! override the host thread count (the report is bit-identical for any worker count).
//!
//! The bench exits non-zero if any cell's measured speedup exceeds its MTT bound — the bound
//! is the model's own consistency check, so a violation is a cost-model bug.

use std::process::ExitCode;

use tis_bench::Platform;
use tis_exp::{
    run_sweep_with_workers, workers_from_env, CellSpec, Sweep, SynthFamily, SynthSpec,
    WorkloadSpec,
};

fn main() -> ExitCode {
    let sweep = Sweep::new("core-scaling")
        .over_cores([2, 4, 8, 16, 32, 64])
        .over_platforms([Platform::Phentos, Platform::NanosRv])
        // One catalog family with core-count context: 4K-option blackscholes at block size 64
        // (medium granularity; 64 tasks per 8 cores' worth of machine)...
        .with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"))
        // ...plus two synthetic families: barrier-style layered fork-join and a dependence-
        // dense Erdős–Rényi DAG, both scaling task count with the machine.
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ForkJoin { width: 64 },
            tasks: 256,
            task_cycles: 8_000,
            jitter: 0.25,
        }))
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.02 },
            tasks: 256,
            task_cycles: 12_000,
            jitter: 0.25,
        }));

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "core-scaling sweep: {} cells ({} workloads x {} core counts x {} platforms), {} workers",
        report.cells.len(),
        sweep.workloads.len(),
        sweep.cores.len(),
        sweep.platforms.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // The paper-style scaling summary: per workload, the measured Phentos (platform 0) speedup
    // trajectory.
    for (workload, spec) in sweep.workloads.iter().enumerate() {
        print!("{:<28}", spec.label());
        for (core_axis, &cores) in sweep.cores.iter().enumerate() {
            let at = CellSpec { workload, core_axis, ..CellSpec::default() };
            let cell = &report.cells[sweep.index_of(&at)];
            print!(" | {:>2}c {:>6.2}x", cores, cell.speedup);
        }
        println!();
    }
    println!();

    // Consistency gate: a measured speedup above the MTT bound is a cost-model bug.
    report.finish(0)
}
