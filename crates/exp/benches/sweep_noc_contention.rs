//! The NoC-contention experiment: ideal vs contended mesh links from 8 to 64 cores.
//!
//! PR 4's directory/NoC model made *distance* honest at scale but left links infinitely wide:
//! any number of concurrent messages crossed a link without queueing, so dense-communication
//! workloads looked optimistic exactly where the HTS study (arXiv:1907.00271) shows
//! scheduler/memory traffic interference dominating. The contended link model
//! (`NocContention::Contended`) adds per-link bandwidth and finite router buffers; this bench
//! quantifies what that changes, running the same workloads on the same mesh with ideal and
//! contended links side by side.
//!
//! Run with `cargo bench -p tis-exp --bench sweep_noc_contention`. Set `TIS_BENCH_JSON=<dir>`
//! to write the machine-readable `BENCH_sweep_noc-contention.json` artifact and
//! `TIS_SWEEP_WORKERS=<n>` to override the host thread count.
//!
//! The bench exits non-zero if any cell exceeds its MTT bound, or if contention fails its
//! scaling story on the dense workload (a high-density windowed Erdős–Rényi DAG whose
//! cross-task dependences keep coherence traffic criss-crossing the mesh):
//!
//! * at 64 cores, contended mean memory latency must be **strictly higher** than ideal;
//! * the contended/ideal latency ratio must be **monotonically non-decreasing** in core count
//!   over {8, 16, 32, 64} — contention is a scaling effect, not a constant tax;
//! * the ≤8-core catalog cell must stay **within noise** (makespan moved by at most 1%):
//!   at the paper's scale, where the figure reproductions live, link contention must not
//!   rewrite the story.

use std::process::ExitCode;

use tis_bench::Platform;
use tis_exp::{
    run_sweep_with_workers, workers_from_env, CellSpec, MemoryModel, Sweep, SynthFamily,
    SynthSpec, WorkloadSpec,
};

/// Maximum relative makespan change the 8-core catalog cell may see under contention.
const CATALOG_NOISE: f64 = 0.01;

fn main() -> ExitCode {
    let cores = [8usize, 16, 32, 64];
    // High density relative to the ER window: at 0.1 every task saturates its in-degree cap
    // (MAX_IN_DEGREE reads drawn from the 256-task window), so cross-task dependences keep
    // lines migrating across the whole mesh for the entire run.
    let dense = WorkloadSpec::synth(SynthSpec {
        family: SynthFamily::ErdosRenyi { density: 0.1 },
        tasks: 192,
        task_cycles: 6_000,
        jitter: 0.25,
    });
    let catalog = WorkloadSpec::catalog("blackscholes", "4K B64");
    let sweep = Sweep::new("noc-contention")
        .over_cores(cores)
        .over_memory_models([MemoryModel::directory_mesh(), MemoryModel::directory_mesh_contended()])
        .over_platforms([Platform::Phentos])
        .with_workload(dense)
        .with_workload(catalog);

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "noc-contention sweep: {} cells ({} workloads x {} core counts x 2 link models), {} workers",
        report.cells.len(),
        sweep.workloads.len(),
        cores.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // The headline trajectory: per workload and core count, mean memory latency under ideal
    // (memory 0) and contended (memory 1) links, the ratio between them, and the observed
    // queueing. Workload 0 is the dense DAG, workload 1 the catalog entry.
    let mut failures = 0;
    for (workload, spec) in sweep.workloads.iter().enumerate() {
        let (label, is_dense) = (spec.label(), workload == 0);
        println!("{label}:");
        println!(
            "  {:>5} | {:>13} | {:>13} | {:>9} | {:>11} | {:>14} | {:>9}",
            "cores", "ideal mem lat", "cont. mem lat", "lat ratio", "cycle ratio", "link wait cyc", "max occ"
        );
        let mut prev_ratio = 0.0f64;
        for (core_axis, &n) in cores.iter().enumerate() {
            let at = |memory| {
                let at = CellSpec { workload, core_axis, memory, ..CellSpec::default() };
                &report.cells[sweep.index_of(&at)]
            };
            let (ideal, contended) = (at(0), at(1));
            let ratio = contended.mean_mem_latency / ideal.mean_mem_latency.max(f64::MIN_POSITIVE);
            let cycle_ratio = contended.total_cycles as f64 / ideal.total_cycles.max(1) as f64;
            println!(
                "  {:>5} | {:>13.2} | {:>13.2} | {:>8.3}x | {:>10.3}x | {:>14} | {:>9}",
                n,
                ideal.mean_mem_latency,
                contended.mean_mem_latency,
                ratio,
                cycle_ratio,
                contended.noc_link_wait_cycles,
                contended.max_link_occupancy,
            );
            if is_dense {
                if n == 64 && contended.mean_mem_latency <= ideal.mean_mem_latency {
                    eprintln!(
                        "CONTENTION GAP MISSING: {label} at 64 cores: contended latency {:.2} <= ideal {:.2}",
                        contended.mean_mem_latency, ideal.mean_mem_latency
                    );
                    failures += 1;
                }
                if ratio + 1e-12 < prev_ratio {
                    eprintln!(
                        "RATIO NOT MONOTONE: {label} at {n} cores: contended/ideal {ratio:.4} < previous {prev_ratio:.4}"
                    );
                    failures += 1;
                }
                prev_ratio = ratio;
            } else if n == 8 {
                let drift = (cycle_ratio - 1.0).abs();
                if drift > CATALOG_NOISE {
                    eprintln!(
                        "CATALOG PERTURBED: {label} at 8 cores: contention moved the makespan by {:.2}% (> {:.0}%)",
                        drift * 100.0,
                        CATALOG_NOISE * 100.0
                    );
                    failures += 1;
                }
            }
        }
        println!();
    }

    report.finish(failures)
}
