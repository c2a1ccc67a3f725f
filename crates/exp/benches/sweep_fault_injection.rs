//! The fault-injection experiment: chaos with a replay guarantee.
//!
//! PR 6's `tis-fault` layer injects deterministic message drops/delays and transient
//! tracker-entry losses into the contended directory mesh, paired with timeout/retry recovery.
//! This bench runs the same workloads fault-free, under a **zero-rate** schedule (the fault
//! layer fully engaged but never firing) and under the canonical **recoverable** schedule, and
//! gates the robustness story:
//!
//! * zero-rate cells must be **cycle-identical** to fault-free cells — the fault layer itself
//!   is free until a fault actually fires;
//! * fault-free cells must stay **within noise** (1%) of a direct harness measurement of the
//!   same workload — the fault axis must not perturb the fault-free path;
//! * recoverable cells must complete with **functional identity** (same tasks, same serial
//!   baseline) and report non-zero fault/recovery metrics — only latency may differ;
//! * no cell may exceed its MTT speedup bound.
//!
//! Run with `cargo bench -p tis-exp --bench sweep_fault_injection`. Set `TIS_BENCH_JSON=<dir>`
//! to write the machine-readable `BENCH_sweep_fault-injection.json` artifact and
//! `TIS_SWEEP_WORKERS=<n>` to override the host thread count.

use std::process::ExitCode;

use tis_bench::{Harness, Platform};
use tis_exp::{
    run_sweep_with_workers, workers_from_env, CellSpec, FaultConfig, MemoryModel, Sweep,
    SynthFamily, SynthSpec, WorkloadSpec,
};

/// Maximum relative makespan drift a fault-free cell may show against the direct harness run.
const CATALOG_NOISE: f64 = 0.01;

fn main() -> ExitCode {
    // A dense windowed Erdős–Rényi DAG keeps coherence traffic criss-crossing the mesh (every
    // NoC leg is a fault opportunity); the catalog workload anchors the experiment at the
    // paper's scale.
    let dense = WorkloadSpec::synth(SynthSpec {
        family: SynthFamily::ErdosRenyi { density: 0.1 },
        tasks: 192,
        task_cycles: 6_000,
        jitter: 0.25,
    });
    let catalog = WorkloadSpec::catalog("blackscholes", "4K B64");
    let faults = [FaultConfig::none(), FaultConfig::zero_rate(), FaultConfig::recoverable()];
    let sweep = Sweep::new("fault-injection")
        .over_cores([8])
        .over_memory_models([MemoryModel::directory_mesh_contended()])
        .over_faults(faults)
        .over_platforms([Platform::Phentos])
        .with_workload(dense)
        .with_workload(catalog);

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "fault-injection sweep: {} cells ({} workloads x {} fault schedules), {} workers",
        report.cells.len(),
        sweep.workloads.len(),
        faults.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // Fault 0 is the fault-free schedule, 1 the zero-rate one, 2 the recoverable one; workload
    // 1 is the catalog entry.
    let at = |workload, fault| {
        &report.cells[sweep.index_of(&CellSpec { workload, fault, ..CellSpec::default() })]
    };

    let mut failures = 0;
    println!(
        "{:<32} | {:>12} | {:>13} | {:>12} | {:>6} | {:>7} | {:>7} | {:>7} | {:>13}",
        "workload", "clean cyc", "zero-rate cyc", "faulted cyc", "drops", "delays", "retries", "losses", "recovery cyc"
    );
    for (workload, spec) in sweep.workloads.iter().enumerate() {
        let label = spec.label();
        let (clean, zero, faulted) = (at(workload, 0), at(workload, 1), at(workload, 2));
        println!(
            "{:<32} | {:>12} | {:>13} | {:>12} | {:>6} | {:>7} | {:>7} | {:>7} | {:>13}",
            label,
            clean.total_cycles,
            zero.total_cycles,
            faulted.total_cycles,
            faulted.fault_drops,
            faulted.fault_delays,
            faulted.fault_retries,
            faulted.fault_tracker_losses,
            faulted.fault_recovery_cycles,
        );
        if zero.total_cycles != clean.total_cycles {
            eprintln!(
                "ZERO-RATE DRIFT: {label}: zero-rate fault layer moved the makespan from {} to {}",
                clean.total_cycles, zero.total_cycles
            );
            failures += 1;
        }
        if zero.fault_drops + zero.fault_delays + zero.fault_retries + zero.fault_tracker_losses != 0 {
            eprintln!("ZERO-RATE FIRED: {label}: a zero-rate schedule reported fault events");
            failures += 1;
        }
        if faulted.tasks != clean.tasks || faulted.serial_cycles != clean.serial_cycles {
            eprintln!(
                "FUNCTIONAL DRIFT: {label}: faulted cell ran different work ({} tasks / {} serial) than clean ({} / {})",
                faulted.tasks, faulted.serial_cycles, clean.tasks, clean.serial_cycles
            );
            failures += 1;
        }
        if faulted.total_cycles < clean.total_cycles {
            eprintln!(
                "NEGATIVE RECOVERY COST: {label}: faulted makespan {} beats clean {}",
                faulted.total_cycles, clean.total_cycles
            );
            failures += 1;
        }
        if faulted.fault_drops + faulted.fault_delays == 0 {
            eprintln!("SCHEDULE SILENT: {label}: the recoverable schedule injected no message faults");
            failures += 1;
        }
    }
    println!();

    // The fault axis must not perturb the fault-free path: the clean catalog cell has to match
    // a direct harness measurement of the same workload within noise.
    let clean_catalog = at(1, 0);
    let direct = Harness::with_cores(8)
        .with_memory_model(MemoryModel::directory_mesh_contended())
        .run(Platform::Phentos, &tis_workloads::entry_for_cores("blackscholes", "4K B64", 8).expect("catalog entry exists").program)
        .expect("direct catalog run completes");
    let drift = (clean_catalog.total_cycles as f64 / direct.total_cycles.max(1) as f64 - 1.0).abs();
    if drift > CATALOG_NOISE {
        eprintln!(
            "CATALOG PERTURBED: fault-free sweep cell {} vs direct run {} ({:.2}% > {:.0}%)",
            clean_catalog.total_cycles,
            direct.total_cycles,
            drift * 100.0,
            CATALOG_NOISE * 100.0
        );
        failures += 1;
    }

    report.finish(failures)
}
