//! The tracker-capacity experiment the ROADMAP asked for: the Picos task-memory and
//! address-table sizes have been a first-class sweep axis since the `tis-exp` engine landed,
//! but no curated experiment ever exercised it. This bench sweeps the paper's 8-core machine
//! across tracker sizings from starved (8-entry task memory — one in-flight task per core) to
//! the prototype's 256×2048, on two Picos-backed platforms and two dependence-heavy workloads,
//! answering the Table II question "how much tracker SRAM does the speedup actually need?".
//!
//! Run with `cargo bench -p tis-exp --bench sweep_tracker_capacity`. Set `TIS_BENCH_JSON=<dir>`
//! to write the machine-readable `BENCH_sweep_tracker-capacity.json` artifact and
//! `TIS_SWEEP_WORKERS=<n>` to override the host thread count.
//!
//! The bench exits non-zero if any cell exceeds its MTT bound, or on a **capacity inversion
//! at the envelope**: for each (workload, platform), the makespan with the starved tracker
//! must be at least the makespan with the prototype tracker. The gate deliberately compares
//! only the two envelope sizings, not adjacent pairs — a capacity change perturbs fetch
//! order, so mid-range sizings can jitter a few percent either way (the printed trajectory
//! shows it) — but a starved tracker beating the prototype would mean stalls somehow helped,
//! which is a model bug.

use std::process::ExitCode;

use tis_bench::Platform;
use tis_exp::{
    run_sweep_with_workers, workers_from_env, CellSpec, Sweep, SynthFamily, SynthSpec,
    WorkloadSpec,
};
use tis_picos::TrackerConfig;

fn main() -> ExitCode {
    // Starved → cramped → halved → the paper's prototype sizing (Table II).
    let trackers = [
        TrackerConfig::new(8, 64),
        TrackerConfig::new(32, 256),
        TrackerConfig::new(128, 1024),
        TrackerConfig::default(),
    ];
    let sweep = Sweep::new("tracker-capacity")
        .over_cores([8])
        .over_trackers(trackers)
        .over_platforms([Platform::Phentos, Platform::NanosRv])
        // A wide fork-join keeps many tasks in flight (task-memory pressure) and a dense
        // Erdős–Rényi DAG keeps many addresses live (address-table pressure).
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ForkJoin { width: 64 },
            tasks: 256,
            task_cycles: 4_000,
            jitter: 0.25,
        }))
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.06 },
            tasks: 192,
            task_cycles: 6_000,
            jitter: 0.25,
        }));

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "tracker-capacity sweep: {} cells ({} workloads x {} trackers x {} platforms), {} workers",
        report.cells.len(),
        sweep.workloads.len(),
        sweep.trackers.len(),
        sweep.platforms.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // Per (workload, platform): the starved-to-prototype makespan trajectory.
    let mut failures = 0;
    for (workload, spec) in sweep.workloads.iter().enumerate() {
        let label = spec.label();
        for (platform, key) in sweep.platforms.iter().map(|p| p.key()).enumerate() {
            let row: Vec<_> = (0..trackers.len())
                .map(|tracker| {
                    let at = CellSpec { workload, tracker, platform, ..CellSpec::default() };
                    &report.cells[sweep.index_of(&at)]
                })
                .collect();
            print!("{:<28} {:>9}", label, key);
            for cell in &row {
                print!(" | {:>13}: {:>9}", cell.tracker.label(), cell.total_cycles);
            }
            println!();
            let starved = row.first().expect("non-empty tracker axis").total_cycles;
            let roomy = row.last().expect("non-empty tracker axis").total_cycles;
            if starved < roomy {
                eprintln!(
                    "CAPACITY INVERSION: {label} on {key}: starved tracker {starved} beats \
                     prototype {roomy}"
                );
                failures += 1;
            }
        }
    }
    println!();

    report.finish(failures)
}
