//! The multi-tenant serving experiment: N co-scheduled task graphs on one machine.
//!
//! PR 10's tenant layer merges independent task graphs into one machine through a
//! [`tis_taskmodel::TenantSource`], with per-tenant turnaround distributions (exact
//! p50/p90/p99), Jain fairness, and a tracker-sharing policy axis. This bench sweeps
//! 1/2/4/8 tenants at 8 and 32 cores — tenant 0 is the *victim* (the cell's own workload,
//! batch-at-zero) and the co-tenants are *antagonists* arriving in deterministic on/off
//! bursts — under both tracker policies, and gates the serving story:
//!
//! * **Degenerate identity:** the 1-tenant batch/shared cell must be **cycle-identical** to
//!   the plain single-program control cell — the tenant layer is free until a second tenant
//!   actually exists;
//! * **Partitioning bounds p99 inflation:** under a bursty co-tenant flood, the victim's p99
//!   turnaround with a hard-partitioned task memory must be **strictly below** its p99 with
//!   the shared (first-come, first-tracked) policy, at every tenant count and core count —
//!   the admission cap is what keeps an antagonist from evicting the victim's share;
//! * **Accounting consistency:** per-tenant task counts must sum to each cell's total, and
//!   every per-tenant percentile must be ordered (p50 ≤ p90 ≤ p99 ≤ tenant makespan).
//!
//! Two 8-tenant cells run observed, so the artifact directory also carries per-tenant
//! Perfetto track groups (`TRACE_multi-tenant-*.json`) — one process track per tenant.
//!
//! Run with `cargo bench -p tis-exp --bench sweep_multi_tenant`. Set `TIS_BENCH_JSON=<dir>`
//! to write `BENCH_sweep_multi-tenant.json` (plus the TRACE_/METRICS_ documents) and
//! `TIS_SWEEP_WORKERS=<n>` to override the host thread count.

use std::process::ExitCode;

use tis_bench::Platform;
use tis_exp::{
    run_sweep_with_workers, workers_from_env, ArrivalProcess, CellSpec, ObsConfig, Sweep,
    SynthFamily, SynthSpec, TenantScenario, WorkloadSpec,
};
use tis_picos::TrackerConfig;

/// Antagonist burst length: each co-tenant releases this many tasks back to back — one
/// burst alone overflows the whole 16-entry task memory sixfold.
const BURST: u64 = 96;

/// Antagonist burst period in cycles: short enough that the backlog at the source never
/// clears while the victim is running, long enough that arrivals stay bursts rather than a
/// steady stream.
const PERIOD: u64 = 100_000;

/// Victim mean interarrival gap in cycles, slightly above the mean task length: an open-loop
/// Poisson trickle that a healthy machine serves at arrival rate with ~one task in flight.
/// The victim keeps arriving *into* the antagonist clog — a batch-at-zero victim would
/// already hold its share of entries when the first burst lands; the trickle is what makes
/// the reservation matter.
const VICTIM_GAP: u64 = 36_000;

/// The gate scenario at a given tenant count and policy: bursty antagonists, trickling
/// victim.
fn serving(tenants: usize, partitioned: bool) -> TenantScenario {
    TenantScenario::bursty(tenants, BURST, PERIOD, partitioned)
        .with_victim_arrival(ArrivalProcess::Poisson { mean_interarrival: VICTIM_GAP })
}

/// Grid index of the cell at core axis entry `core_axis` under `scenario`.
fn at(sweep: &Sweep, core_axis: usize, scenario: Option<TenantScenario>) -> usize {
    let tenant =
        sweep.tenants.iter().position(|&s| s == scenario).expect("scenario on the tenant axis");
    sweep.index_of(&CellSpec { core_axis, tenant, ..CellSpec::default() })
}

fn main() -> ExitCode {
    // Dependence chains are the tracker-clogging workload: a burst of chained tasks fills
    // the task memory with entries that are submitted but not ready (each waits on its
    // predecessor), so a shared tracker ends up full while cores sit idle — exactly the
    // pathology a per-tenant entry reservation exists to contain.
    let spec = SynthSpec {
        family: SynthFamily::Chain,
        tasks: 192,
        task_cycles: 30_000,
        jitter: 0.25,
    };
    let scenarios = [
        None,
        Some(TenantScenario::batch(1, false)),
        Some(serving(2, false)),
        Some(serving(2, true)),
        Some(serving(4, false)),
        Some(serving(4, true)),
        Some(serving(8, false)),
        Some(serving(8, true)),
    ];
    let scenario_count = scenarios.len();
    // A 16-entry task memory makes the tracker the contended resource (one antagonist burst
    // alone overflows it sixfold).
    let sweep = Sweep::new("multi-tenant")
        .over_cores([8, 32])
        .over_trackers([TrackerConfig::new(16, 1024)])
        .over_platforms([Platform::Phentos])
        .over_tenants(scenarios)
        .with_obs(ObsConfig::default())
        .with_workload(WorkloadSpec::synth(spec));
    // The two 8-tenant cells at 8 cores (core 0) run observed, so CI uploads per-tenant
    // Perfetto track groups for both policies.
    let observed = [false, true].map(|partitioned| at(&sweep, 0, Some(serving(8, partitioned))));
    let sweep = sweep.observe_only(observed);

    let workers = workers_from_env();
    let report = run_sweep_with_workers(&sweep, workers);

    println!(
        "multi-tenant sweep: {} cells ({} scenarios x {} core counts), {} workers",
        report.cells.len(),
        scenario_count,
        sweep.cores.len(),
        workers
    );
    println!();
    print!("{}", report.render_table());
    println!();

    // Per-cell serving metrics: the victim is tenant 0 (batch-at-zero), the antagonists are
    // tenants 1..n.
    println!(
        "{:>5} | {:<22} | {:>12} | {:>12} | {:>12} | {:>12} | {:>6}",
        "cores", "scenario", "cycles", "victim p50", "victim p99", "victim mksp", "jain"
    );
    for cell in &report.cells {
        let Some(data) = &cell.tenant else {
            println!(
                "{:>5} | {:<22} | {:>12} | {:>12} | {:>12} | {:>12} | {:>6}",
                cell.cores, "single (control)", cell.total_cycles, "-", "-", "-", "-"
            );
            continue;
        };
        let victim = &data.reports[0];
        println!(
            "{:>5} | {:<22} | {:>12} | {:>12} | {:>12} | {:>12} | {:>6.3}",
            cell.cores,
            data.scenario,
            cell.total_cycles,
            victim.p50,
            victim.p99,
            victim.makespan,
            data.jain,
        );
    }
    println!();

    let mut failures = 0;
    for (core_axis, &cores) in sweep.cores.iter().enumerate() {
        let cell = |scenario| &report.cells[at(&sweep, core_axis, scenario)];
        // Gate 1: the tenant layer is free until a second tenant exists.
        let control = cell(None);
        let degenerate = cell(Some(TenantScenario::batch(1, false)));
        if degenerate.total_cycles != control.total_cycles {
            eprintln!(
                "DEGENERATE DRIFT: {cores} cores: 1-tenant batch cell ran {} cycles vs {} for \
                 the plain single-program cell",
                degenerate.total_cycles, control.total_cycles
            );
            failures += 1;
        }
        // Gate 2: partitioning strictly bounds the victim's p99 under every antagonist count.
        for tenants in [2usize, 4, 8] {
            let shared = cell(Some(serving(tenants, false)));
            let part = cell(Some(serving(tenants, true)));
            let shared_p99 = shared.tenant.as_ref().expect("co-scheduled").reports[0].p99;
            let part_p99 = part.tenant.as_ref().expect("co-scheduled").reports[0].p99;
            if part_p99 >= shared_p99 {
                eprintln!(
                    "P99 NOT BOUNDED: {tenants} tenants at {cores} cores: partitioned victim \
                     p99 {part_p99} must be strictly below shared {shared_p99}"
                );
                failures += 1;
            }
        }
    }
    // Gate 3: per-tenant accounting is sum-consistent and distribution-ordered everywhere.
    for cell in &report.cells {
        let Some(data) = &cell.tenant else { continue };
        let label = format!("{} at {} cores", data.scenario, cell.cores);
        let total: u64 = data.reports.iter().map(|r| r.tasks).sum();
        if total != cell.tasks as u64 {
            eprintln!(
                "ACCOUNTING DRIFT: {label}: per-tenant tasks sum to {total}, cell retired {}",
                cell.tasks
            );
            failures += 1;
        }
        for r in &data.reports {
            if !(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.makespan) {
                eprintln!(
                    "DISORDERED DISTRIBUTION: {label}, tenant {}: p50 {} / p90 {} / p99 {} / \
                     makespan {}",
                    r.name, r.p50, r.p90, r.p99, r.makespan
                );
                failures += 1;
            }
        }
        if !(0.0..=1.0 + 1e-12).contains(&data.jain) {
            eprintln!("FAIRNESS OUT OF RANGE: {label}: Jain index {}", data.jain);
            failures += 1;
        }
    }

    let mut engine = tis_machine::EngineStats::default();
    for cell in &report.cells {
        engine.add(&cell.engine);
    }
    let tasks: u64 = report.cells.iter().map(|c| c.tasks as u64).sum();
    println!(
        "engine: {:.1} steps per task over {} cells ({} polls skipped)",
        engine.steps_per_task(tasks),
        report.cells.len(),
        engine.skipped_polls
    );
    let [parks, wakes, rechecks] = engine.parking_per_task(tasks);
    println!("engine: {parks:.2} parks, {wakes:.2} wakes and {rechecks:.2} rechecks per task");

    // Co-scheduled cells measure speedup against the summed serial baseline, which the MTT
    // bound still caps: a violation is a cost-model inconsistency, tenants or not.
    report.finish(failures)
}
