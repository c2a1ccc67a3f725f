//! The sweep runner: evaluates grid cells through `tis_machine::engine::run_machine`,
//! optionally fanning independent cells out across host threads.
//!
//! Every cell is a fully deterministic, self-contained simulation — it builds its own
//! [`Harness`], instantiates its own program from a pure per-cell RNG stream
//! ([`Sweep::cell_rng`]), and shares no mutable state with other cells. Workers pull cell
//! indices from an atomic counter and write results into the cell's own slot, so the report is
//! assembled in grid order and is **bit-identical for any worker count** (pinned by
//! `tests/sweep_determinism.rs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use tis_bench::{measure_lifetime_overhead, measure_task_throughput, Harness, Platform};
use tis_machine::{
    mtt_speedup_bound_from_throughput, EngineStats, ExecutionReport, FaultConfig, MemoryModel,
};
use tis_obs::{CriticalPath, ObsConfig, Observer, Recorder};
use tis_picos::TrackerConfig;
use tis_sim::SimRng;
use tis_taskmodel::{MaterializedSource, TaskProgram, TenantSet, TenantTrackerPolicy};
use tis_workloads::task_chain;

use crate::grid::{CellSpec, Sweep, TenantScenario, WorkloadSpec};
use crate::report::{cell_label, ObsCellData, SweepCell, SweepReport, TenantCellData};

/// Number of tasks in the Task-Chain probe used to measure per-platform lifetime overhead.
const OVERHEAD_PROBE_TASKS: usize = 100;

/// Scheduler-saturation probes measured once per `(memory model, tracker, cores, platform)`
/// combination and shared by every cell at that point: the single-core lifetime overhead `Lo`
/// (the Figure 7 metric, reported for context) and the maximum task throughput `MTT` at the
/// cell's core count, from which the cell's speedup bound `min(cores, t × MTT)` is derived.
/// Measuring MTT *at the swept core count* — instead of assuming `1 / Lo`, which is only tight
/// when per-task overhead serialises — is what keeps the bound honest for runtimes whose
/// overhead parallelises across workers (the 8-core shortcut the ROADMAP's sweep item calls
/// out). The memory model is part of the probe coordinates because directory/NoC latencies
/// slow the scheduling paths themselves: a bound measured on the snooping bus would be
/// inconsistent with cells simulated on the mesh.
struct SchedulerProbes {
    /// `Lo` per cell, in cycles per task.
    lifetime_overhead: Vec<f64>,
    /// `MTT` per cell, in tasks per cycle.
    throughput: Vec<f64>,
}

impl SchedulerProbes {
    fn measure(sweep: &Sweep, cells: &[CellSpec]) -> Self {
        let chain = task_chain(OVERHEAD_PROBE_TASKS, 1);
        let machine = |cell: &CellSpec, harness: Harness| {
            let harness = harness
                .with_tracker(sweep.trackers[cell.tracker])
                .with_memory_model(sweep.memory_models[cell.memory]);
            (harness, sweep.platforms[cell.platform])
        };
        // Neither probe depends on the workload, fault schedule or tenant scenario, and `Lo`
        // runs on the 8-core prototype whatever the cell's core count.
        let mtt_point = |c: &CellSpec| CellSpec { workload: 0, fault: 0, tenant: 0, ..*c };
        let lifetime_overhead = shared_per_point(
            sweep,
            cells,
            |c| CellSpec { core_axis: 0, ..mtt_point(c) },
            |cell| {
                let (prototype, platform) = machine(cell, Harness::paper_prototype());
                measure_lifetime_overhead(&prototype, platform, &chain)
            },
        );
        let throughput = shared_per_point(sweep, cells, mtt_point, |cell| {
            let (harness, platform) = machine(cell, Harness::with_cores(cell.cores));
            // Enough independent empty tasks that steady-state throughput dominates the ramp-up,
            // at every swept core count.
            measure_task_throughput(&harness, platform, (cell.cores * 32).max(256))
        });
        SchedulerProbes { lifetime_overhead, throughput }
    }
}

/// One value per cell, in grid order, computed once per grid point: `point` maps a cell to the
/// coordinates the value depends on, with every axis it ignores at its first entry, and each
/// cell shares the value of the first cell at its point. A point's grid index is never above
/// that of any of its cells, so the first cell at a point is reached before the others.
fn shared_per_point<T: Clone>(
    sweep: &Sweep,
    cells: &[CellSpec],
    point: impl Fn(&CellSpec) -> CellSpec,
    mut compute: impl FnMut(&CellSpec) -> T,
) -> Vec<T> {
    let mut values: Vec<T> = Vec::with_capacity(cells.len());
    for cell in cells {
        let value = match values.get(sweep.index_of(&point(cell))) {
            Some(shared) => shared.clone(),
            None => compute(cell),
        };
        values.push(value);
    }
    values
}

/// Runs a sweep sequentially (one worker).
pub fn run_sweep(sweep: &Sweep) -> SweepReport {
    run_sweep_with_workers(sweep, 1)
}

/// Worker count for the curated sweep benches: the `TIS_SWEEP_WORKERS` environment variable
/// when set to a valid number, otherwise the host's available parallelism (1 as a last
/// resort). One place, so the policy cannot diverge between bench targets.
pub fn workers_from_env() -> usize {
    std::env::var("TIS_SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs a sweep with `workers` host threads (clamped to the cell count; `0` is treated as 1).
///
/// # Panics
///
/// Panics if the sweep definition is invalid ([`Sweep::check`]), if any cell's simulation
/// deadlocks or exceeds its cycle cap, or if a single-program cell's schedule violates the
/// reference dependence graph.
pub fn run_sweep_with_workers(sweep: &Sweep, workers: usize) -> SweepReport {
    sweep.check();
    let cells = sweep.cells();

    // Scheduler probes depend only on axis coordinates, not on the workload; measuring them
    // once up front keeps the per-cell work purely cell-local. Likewise, all cells of one
    // (workload, cores) grid point schedule the same program, so it is instantiated once here
    // and shared, not regenerated per platform/tracker cell.
    let probes = SchedulerProbes::measure(sweep, &cells);
    let programs = shared_per_point(
        sweep,
        &cells,
        |c| CellSpec { workload: c.workload, core_axis: c.core_axis, ..CellSpec::default() },
        |cell| {
            let spec = &sweep.workloads[cell.workload];
            let program =
                spec.instantiate(cell.cores, &mut sweep.cell_rng(cell.workload, cell.cores));
            // Preflight chokepoint: prove the graph acyclic, reference-clean,
            // and conflict-covered before a single cell simulates it.
            if sweep.analysis.preflight {
                if let Err(e) = tis_analyze::analyze_program(&program) {
                    panic!(
                        "sweep '{}': preflight failed for {} at {} cores: {e}",
                        sweep.name,
                        spec.label(),
                        cell.cores
                    );
                }
            }
            Arc::new(program)
        },
    );
    let program_of = |cell: &CellSpec| programs[cell.index].as_ref();

    let workers = workers.max(1).min(cells.len().max(1));
    let mut slots: Vec<Option<SweepCell>> = vec![None; cells.len()];
    if workers <= 1 {
        for cell in &cells {
            slots[cell.index] = Some(evaluate_cell(sweep, cell, program_of(cell), &probes));
        }
    } else {
        let next = AtomicUsize::new(0);
        let results = Mutex::new(&mut slots);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    let done = evaluate_cell(sweep, cell, program_of(cell), &probes);
                    results.lock().expect("no worker panicked holding the slot lock")[cell.index] =
                        Some(done);
                });
            }
        });
    }

    SweepReport {
        name: sweep.name.clone(),
        seed: sweep.seed,
        cells: slots.into_iter().map(|c| c.expect("every cell index was evaluated")).collect(),
    }
}

/// Evaluates one cell on its grid point's shared program: resolves the cell once, runs its
/// single-program or co-scheduled path, and folds the run into a [`SweepCell`].
fn evaluate_cell(
    sweep: &Sweep,
    cell: &CellSpec,
    program: &TaskProgram,
    probes: &SchedulerProbes,
) -> SweepCell {
    let setup = CellSetup::new(sweep, cell, probes);
    let run = match setup.scenario {
        None => run_cell(&setup, program),
        Some(scenario) => run_tenant_cell(&setup, program, scenario),
    };
    setup.cell(run)
}

/// A cell's resolved axis values, machine and probe figures: everything both run paths share.
struct CellSetup<'a> {
    sweep: &'a Sweep,
    cell: &'a CellSpec,
    spec: &'a WorkloadSpec,
    platform: Platform,
    tracker: TrackerConfig,
    memory: MemoryModel,
    fault: FaultConfig,
    scenario: Option<TenantScenario>,
    harness: Harness,
    lifetime_overhead: f64,
    tasks_per_cycle: f64,
    obs: Option<ObsConfig>,
}

/// What one cell's run measured: the engine's report and work, the workload totals its speedup
/// and bound are taken against, and the path-specific extras.
struct CellRun {
    report: ExecutionReport,
    engine: EngineStats,
    tasks: usize,
    mean_task_cycles: f64,
    serial_cycles: u64,
    race_pairs_checked: u64,
    tenant: Option<Box<TenantCellData>>,
    obs: Option<Box<ObsCellData>>,
}

impl<'a> CellSetup<'a> {
    fn new(sweep: &'a Sweep, cell: &'a CellSpec, probes: &SchedulerProbes) -> Self {
        let tracker = sweep.trackers[cell.tracker];
        let memory = sweep.memory_models[cell.memory];
        // Each engaging cell replays its own fault schedule: the schedule seed is a pure
        // function of the sweep seed and the cell's grid index, so it is identical at any
        // worker count and the resolved config recorded in the report replays the cell exactly.
        // A non-engaging config is passed through untouched, constructing no fault layer at all.
        let base_fault = sweep.faults[cell.fault];
        let fault = if base_fault.engages() {
            let mut seeds = SimRng::new(sweep.seed).stream("sweep-fault", cell.index as u64);
            FaultConfig { seed: seeds.next_u64(), ..base_fault }
        } else {
            base_fault
        };
        CellSetup {
            sweep,
            cell,
            spec: &sweep.workloads[cell.workload],
            platform: sweep.platforms[cell.platform],
            tracker,
            memory,
            fault,
            scenario: sweep.tenants[cell.tenant],
            harness: Harness::with_cores(cell.cores)
                .with_tracker(tracker)
                .with_memory_model(memory)
                .with_faults(fault),
            lifetime_overhead: probes.lifetime_overhead[cell.index],
            tasks_per_cycle: probes.throughput[cell.index],
            obs: sweep.cell_obs(cell.index),
        }
    }

    /// The cell's coordinates, for failure messages.
    fn context(&self) -> String {
        let label = cell_label(
            &self.spec.label(),
            self.scenario.map(|s| s.key()).as_deref(),
            self.cell.cores,
            self.memory,
            self.platform,
            self.tracker,
            &self.fault,
        );
        format!("sweep '{}' cell {}: {label}", self.sweep.name, self.cell.index)
    }

    /// Title of the cell's trace and metrics documents.
    fn label(&self) -> String {
        format!("{} cell {} ({})", self.sweep.name, self.cell.index, self.spec.label())
    }

    /// Folds the cell's recorder into its observability data: the critical path over the run's
    /// happens-before `edges` plus the rendered trace and metrics documents.
    fn obs_data(
        &self,
        recorder: &Recorder,
        edges: &[(usize, usize)],
        total_cycles: u64,
        tenant_critical: Vec<CriticalPath>,
        trace_json: String,
    ) -> Box<ObsCellData> {
        Box::new(ObsCellData {
            config: self.obs.expect("a recorder implies an engaged obs config"),
            task_events: recorder.task_events(),
            samples: recorder.metrics().samples().len() as u64,
            critical: recorder.critical_path(edges, total_cycles),
            tenant_critical,
            trace_json,
            metrics_json: recorder.metrics_json(&self.label(), total_cycles).render(),
        })
    }

    /// The cell's row of the report.
    fn cell(&self, run: CellRun) -> SweepCell {
        let mem = &run.report.memory_stats;
        let fabric = &run.report.fabric_stats;
        SweepCell {
            workload: self.spec.label(),
            family: self.spec.family(),
            cores: self.cell.cores,
            memory: self.memory,
            platform: self.platform,
            tracker: self.tracker,
            tasks: run.tasks,
            mean_task_cycles: run.mean_task_cycles,
            serial_cycles: run.serial_cycles,
            total_cycles: run.report.total_cycles,
            speedup: run.report.speedup_over(run.serial_cycles),
            lifetime_overhead: self.lifetime_overhead,
            mtt_tasks_per_cycle: self.tasks_per_cycle,
            mtt_bound: mtt_speedup_bound_from_throughput(
                run.mean_task_cycles,
                self.tasks_per_cycle,
                self.cell.cores,
            ),
            mem_accesses: mem.accesses,
            mem_stall_cycles: mem.stall_cycles,
            mean_mem_latency: mem.mean_access_latency(),
            noc_link_wait_cycles: mem.noc_link_wait_cycles,
            max_link_occupancy: mem.max_link_occupancy,
            fault: self.fault,
            fault_drops: mem.fault.drops,
            fault_delays: mem.fault.delays,
            fault_retries: mem.fault.retries + fabric.tracker_resubmits,
            fault_tracker_losses: fabric.tracker_losses,
            fault_recovery_cycles: mem.fault.recovery_cycles + fabric.tracker_recovery_cycles,
            analysis: self.sweep.analysis,
            race_pairs_checked: run.race_pairs_checked,
            engine: run.engine,
            tenant: run.tenant,
            obs: run.obs,
        }
    }
}

/// Runs a single-program cell, validating its schedule, and race-checking its trace when the
/// sweep asks for it.
fn run_cell(setup: &CellSetup<'_>, program: &TaskProgram) -> CellRun {
    let sweep = setup.sweep;
    // An observed cell runs with a recorder attached through the engine's observer
    // chokepoint. Observation is a pure tap — the simulated cycle counts are identical either
    // way (`observing_a_sweep_changes_no_measurement` pins this) — so observed and unobserved
    // cells of one report remain directly comparable.
    let mut recorder = setup.obs.map(Recorder::new);
    let (result, engine) = setup.harness.run_counted(
        setup.platform,
        program,
        recorder.as_mut().map(|r| r as &mut dyn Observer),
    );
    let report = result.unwrap_or_else(|e| panic!("{} failed: {e}", setup.context()));
    report
        .validate_against(program)
        .unwrap_or_else(|e| panic!("{} produced an invalid schedule: {e}", setup.context()));
    // Dynamic race check over the dispatch/retire trace. A detected race means the
    // platform executed a conflicting pair without a happens-before path — like a
    // validation failure, that is a bug to surface, not a data point to record.
    // One analyzable graph serves both consumers of the program's happens-before edges: the
    // race detector and the critical path.
    let spec_graph = (sweep.analysis.races || recorder.is_some())
        .then(|| tis_analyze::GraphSpec::from_program(program));
    let race_pairs_checked = match &spec_graph {
        Some(spec_graph) if sweep.analysis.races => {
            let analysis = tis_analyze::detect_races(spec_graph, &report.records);
            if !analysis.is_race_free() {
                let mut detail = String::new();
                for race in &analysis.races {
                    detail.push_str(&format!("\n  {race}"));
                }
                panic!(
                    "{} raced ({} of {} conflicting pairs unordered, {} unrecorded):{detail}",
                    setup.context(),
                    analysis.races.len(),
                    analysis.pairs_checked,
                    analysis.pairs_skipped
                );
            }
            analysis.pairs_checked as u64
        }
        _ => 0,
    };
    // The critical path runs over the program's happens-before edges, the same edges the race
    // detector walks.
    let obs = recorder.zip(spec_graph).map(|(r, spec_graph)| {
        let trace_json = r.perfetto_json(&setup.label(), setup.cell.cores).render();
        setup.obs_data(&r, &spec_graph.edges, report.total_cycles, Vec::new(), trace_json)
    });
    let stats = program.stats(setup.harness.machine.dram_bytes_per_cycle);
    CellRun {
        engine,
        tasks: stats.tasks,
        mean_task_cycles: stats.mean_task_cycles,
        serial_cycles: setup.harness.serial_cycles(program),
        race_pairs_checked,
        tenant: None,
        obs,
        report,
    }
}

/// Runs a co-scheduled cell. Tenant 0 runs the grid point's shared program batch-at-zero — so
/// the 1-tenant batch/shared scenario is the degenerate case, pinned cycle-identical to the
/// plain single-program cell — and tenants `1..n` run independent instances of the same
/// workload spec drawn from per-tenant substreams of the cell RNG. The whole scenario replays
/// bit-exactly from `(sweep seed, cell coordinates)` alone.
///
/// Schedule validation and race detection are skipped here: both check against a single
/// program's reference graph, and a merged run's global task IDs span all tenants. The
/// per-tenant critical paths (observed cells) cover the merged run instead.
fn run_tenant_cell(
    setup: &CellSetup<'_>,
    program: &TaskProgram,
    scenario: TenantScenario,
) -> CellRun {
    let (sweep, cell) = (setup.sweep, setup.cell);
    let mut tenant_programs = vec![program.clone()];
    for t in 1..scenario.tenants {
        let mut rng = sweep.cell_rng(cell.workload, cell.cores).stream("tenant", t as u64);
        tenant_programs.push(setup.spec.instantiate(cell.cores, &mut rng));
    }
    let policy = if scenario.partitioned {
        TenantTrackerPolicy::Partitioned {
            per_tenant_entries: setup.tracker.per_tenant_entries(scenario.tenants),
        }
    } else {
        TenantTrackerPolicy::Shared
    };
    let mut set = TenantSet::new().with_policy(policy);
    for (t, p) in tenant_programs.iter().enumerate() {
        let arrival = if t == 0 { scenario.victim_arrival } else { scenario.co_arrival };
        set = set.tenant(format!("t{t}"), Box::new(MaterializedSource::new(p)), arrival);
    }
    // Arrival draws are offered load, not schedule: deriving them from the cell's
    // (workload, cores) stream — never from the policy or the grid index — keeps a
    // shared-vs-partitioned pair of cells facing byte-identical arrival times, so the pair
    // isolates the tracker policy and nothing else.
    let arrivals = sweep.cell_rng(cell.workload, cell.cores).stream("tenant-arrivals", 0);
    let source = set.into_source(arrivals);
    let mut recorder = setup.obs.map(Recorder::new);
    let (result, engine) = setup.harness.run_tenants_counted(
        setup.platform,
        source,
        false,
        recorder.as_mut().map(|r| r as &mut dyn Observer),
    );
    let (report, run_data) = result.unwrap_or_else(|e| panic!("{} failed: {e}", setup.context()));
    let obs = recorder.map(|r| {
        // The merged run's happens-before edges are each tenant's program edges remapped to
        // global task IDs through the release-order assignment (tenant t's k-th release is
        // the k-th global ID assigned to t), so the whole-run critical path stays
        // machine-checked; the per-tenant decompositions reuse the same assignment.
        let tenant_edges: Vec<Vec<(usize, usize)>> = tenant_programs
            .iter()
            .map(|p| tis_analyze::GraphSpec::from_program(p).edges)
            .collect();
        let mut globals: Vec<Vec<usize>> = vec![Vec::new(); tenant_programs.len()];
        for (global, &t) in run_data.assignment.iter().enumerate() {
            globals[t as usize].push(global);
        }
        let merged_edges: Vec<(usize, usize)> = tenant_edges
            .iter()
            .enumerate()
            .flat_map(|(t, edges)| {
                let map = &globals[t];
                edges.iter().map(move |&(a, b)| (map[a], map[b]))
            })
            .collect();
        let tenant_critical =
            tis_obs::critical_path_per_tenant(r.spans(), &run_data.assignment, &tenant_edges);
        let trace_json = tis_obs::trace_json_tenants(
            &setup.label(),
            cell.cores,
            r.spans(),
            r.metrics().samples(),
            &run_data.names,
            &run_data.assignment,
        )
        .render();
        setup.obs_data(&r, &merged_edges, report.total_cycles, tenant_critical, trace_json)
    });
    // Aggregate workload statistics across tenants; the serial baseline is one machine doing
    // every tenant's work back to back, so speedup stays speedup-over-serial for the whole
    // offered load.
    let mut tasks = 0usize;
    let mut weighted_cycles = 0.0;
    let mut serial = 0u64;
    for p in &tenant_programs {
        let stats = p.stats(setup.harness.machine.dram_bytes_per_cycle);
        weighted_cycles += stats.mean_task_cycles * stats.tasks as f64;
        tasks += stats.tasks;
        serial += setup.harness.serial_cycles(p);
    }
    let tenant = Box::new(TenantCellData {
        scenario: scenario.key(),
        reports: report.tenants.clone(),
        jain: report.tenant_jain_fairness(),
    });
    CellRun {
        engine,
        tasks,
        mean_task_cycles: if tasks == 0 { 0.0 } else { weighted_cycles / tasks as f64 },
        serial_cycles: serial,
        race_pairs_checked: 0,
        tenant: Some(tenant),
        obs,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::WorkloadSpec;
    use crate::synth::{SynthFamily, SynthSpec};

    fn small_sweep() -> Sweep {
        Sweep::new("unit")
            .over_cores([1, 4])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                20_000,
            )))
            .with_workload(WorkloadSpec::synth(SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.1 },
                tasks: 24,
                task_cycles: 10_000,
                jitter: 0.25,
            }))
    }

    #[test]
    fn sequential_run_fills_every_cell_in_grid_order() {
        let sweep = small_sweep();
        let report = sweep.run();
        assert_eq!(report.cells.len(), sweep.cell_count());
        for (cell, spec) in report.cells.iter().zip(sweep.cells()) {
            assert_eq!(cell.workload, sweep.workloads[spec.workload].label());
            assert_eq!(cell.cores, spec.cores);
            assert_eq!(cell.platform, sweep.platforms[spec.platform]);
            assert!(cell.total_cycles > 0);
            assert!(cell.speedup > 0.0);
            assert!(cell.lifetime_overhead > 0.0);
        }
        // Single-core speedup can never exceed 1; the 4-core fork-join must beat single-core.
        let single = &report.cells[0];
        assert_eq!(single.cores, 1);
        assert!(single.speedup <= 1.0 + 1e-9);
        let quad = &report.cells[2];
        assert_eq!(quad.cores, 4);
        assert!(quad.speedup > single.speedup, "more cores, more speedup on a fork-join");
        assert!(report.bound_violations().is_empty(), "{}", report.render_table());
    }

    #[test]
    fn shared_probes_and_programs_match_a_direct_computation_per_cell() {
        // Every axis a probe or a program depends on has two entries, so a value shared across
        // the wrong cells differs from the direct computation somewhere.
        let sweep = small_sweep()
            .over_memory_models([MemoryModel::SnoopBus, MemoryModel::directory_mesh()])
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(64, 256)]);
        let report = sweep.run();
        let chain = task_chain(OVERHEAD_PROBE_TASKS, 1);
        for (cell, spec) in report.cells.iter().zip(sweep.cells()) {
            let memory = sweep.memory_models[spec.memory];
            let tracker = sweep.trackers[spec.tracker];
            let platform = sweep.platforms[spec.platform];
            let prototype =
                Harness::paper_prototype().with_tracker(tracker).with_memory_model(memory);
            let lo = measure_lifetime_overhead(&prototype, platform, &chain);
            assert_eq!(cell.lifetime_overhead, lo, "cell {}", spec.index);
            let harness =
                Harness::with_cores(spec.cores).with_tracker(tracker).with_memory_model(memory);
            let mtt = measure_task_throughput(&harness, platform, (spec.cores * 32).max(256));
            assert_eq!(cell.mtt_tasks_per_cycle, mtt, "cell {}", spec.index);
            let mut rng = sweep.cell_rng(spec.workload, spec.cores);
            let program = sweep.workloads[spec.workload].instantiate(spec.cores, &mut rng);
            assert_eq!(cell.tasks, program.task_count(), "cell {}", spec.index);
            assert_eq!(cell.serial_cycles, harness.serial_cycles(&program), "cell {}", spec.index);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let sweep = small_sweep();
        let one = run_sweep_with_workers(&sweep, 1);
        let many = run_sweep_with_workers(&sweep, 8);
        assert_eq!(one, many);
        assert_eq!(one.to_json().render(), many.to_json().render());
    }

    #[test]
    fn fault_axis_reaches_the_machine_without_changing_the_work() {
        let sweep = Sweep::new("fault")
            .over_cores([4])
            .over_memory_models([tis_machine::MemoryModel::directory_mesh()])
            .over_faults([FaultConfig::none(), FaultConfig::recoverable()])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        assert_eq!(report.cells.len(), 2);
        let (clean, faulted) = (&report.cells[0], &report.cells[1]);
        assert!(!clean.fault.engages());
        assert_eq!(clean.fault_drops + clean.fault_retries + clean.fault_recovery_cycles, 0);
        assert!(faulted.fault.engages());
        assert_ne!(
            faulted.fault.seed,
            FaultConfig::recoverable().seed,
            "the cell's schedule seed is derived from the sweep seed and cell index"
        );
        // Faults are latency-only: the same program ran to completion, only slower.
        assert_eq!(faulted.tasks, clean.tasks);
        assert_eq!(faulted.serial_cycles, clean.serial_cycles);
        assert!(faulted.total_cycles > clean.total_cycles, "recovery latency must show up");
        assert!(faulted.fault_drops > 0 && faulted.fault_recovery_cycles > 0);
        // Replay: the same sweep produces the same faulted cell, bit for bit.
        assert_eq!(sweep.run().cells[1], *faulted);
    }

    #[test]
    fn analysis_passes_change_no_measurement() {
        // The analyses are pure observers: preflighting the graphs and race-checking the
        // traces must leave every simulated number — and the JSON the cells render to,
        // minus the analysis keys themselves — untouched.
        let plain = small_sweep().run();
        let analysed = small_sweep().with_analysis(tis_analyze::AnalysisConfig::full()).run();
        assert_eq!(plain.cells.len(), analysed.cells.len());
        for (p, a) in plain.cells.iter().zip(&analysed.cells) {
            assert_eq!(p.total_cycles, a.total_cycles);
            assert_eq!(p.speedup, a.speedup);
            assert_eq!(p.mem_stall_cycles, a.mem_stall_cycles);
            assert!(a.analysis.engages());
            assert!(!p.analysis.engages());
        }
        // The Erdős–Rényi cells declare address dependences, so their frontiers were
        // actually walked; fork-join cells order purely by barrier and have no conflicting
        // pairs at all. Nothing raced — the runner panics on a race, so reaching this
        // line is the proof.
        for c in &analysed.cells {
            if c.family == "synth-er" {
                assert!(c.race_pairs_checked > 0, "{} checked no pairs", c.workload);
            } else {
                assert_eq!(c.race_pairs_checked, 0, "{} has no conflicts to check", c.workload);
            }
        }
        assert!(plain.cells.iter().all(|c| c.race_pairs_checked == 0));
    }

    #[test]
    fn observing_a_sweep_changes_no_measurement() {
        // Observation is a pure tap on the engine: every simulated number is identical, and
        // the obs-off report renders byte-identical JSON (no obs keys at all).
        let plain = small_sweep().run();
        let observed = small_sweep().with_obs(tis_obs::ObsConfig::full()).run();
        assert_eq!(plain.cells.len(), observed.cells.len());
        for (p, o) in plain.cells.iter().zip(&observed.cells) {
            assert_eq!(p.total_cycles, o.total_cycles);
            assert_eq!(p.speedup, o.speedup);
            assert_eq!(p.mem_stall_cycles, o.mem_stall_cycles);
            assert!(p.obs.is_none());
            let obs = o.obs.as_ref().expect("every cell of a with_obs sweep is observed");
            // The critical path partitions the makespan exactly, and every task's full
            // lifecycle was seen (6 stages per task, minus software-tracked shortcuts).
            assert_eq!(obs.critical.total(), o.total_cycles);
            assert!(obs.task_events >= 6 * o.tasks as u64, "{}: {} events", o.workload, obs.task_events);
            assert!(obs.samples > 0, "full() samples every 1024 cycles");
            assert!(obs.trace_json.contains("traceEvents"));
            assert!(obs.metrics_json.contains("tis-metrics-v1"));
        }
        assert!(!plain.to_json().render().contains("obs_"));
    }

    #[test]
    fn per_cell_opt_in_observes_only_the_chosen_cells() {
        let report = small_sweep().with_obs(tis_obs::ObsConfig::default()).observe_only([2]).run();
        for (i, cell) in report.cells.iter().enumerate() {
            assert_eq!(cell.obs.is_some(), i == 2, "only cell 2 opted in");
        }
    }

    #[test]
    fn one_tenant_batch_cells_are_cycle_identical_to_the_plain_path() {
        // The degenerate scenario — one tenant, batch-at-zero, shared tracker — is a pure
        // passthrough: its cells must reproduce the plain single-program cells' cycle counts
        // exactly, on every platform in the sweep.
        let sweep = small_sweep().over_tenants([None, Some(TenantScenario::batch(1, false))]);
        let report = sweep.run();
        let (plain, tenant): (Vec<_>, Vec<_>) =
            report.cells.iter().partition(|c| c.tenant.is_none());
        assert_eq!(plain.len(), tenant.len());
        for (p, t) in plain.iter().zip(&tenant) {
            assert_eq!(p.total_cycles, t.total_cycles, "{}: degenerate tenant run", p.workload);
            assert_eq!(p.serial_cycles, t.serial_cycles);
            assert_eq!(p.speedup, t.speedup);
            assert_eq!(p.mem_stall_cycles, t.mem_stall_cycles);
            let data = t.tenant.as_ref().expect("co-scheduled cells carry tenant data");
            assert_eq!(data.scenario, "t1-batch-shared");
            assert_eq!(data.reports.len(), 1);
            assert_eq!(data.reports[0].tasks, t.tasks as u64);
            assert_eq!(data.jain, 1.0, "a single tenant is trivially fair");
        }
    }

    #[test]
    fn co_scheduled_cells_report_per_tenant_distributions() {
        let sweep = Sweep::new("mt")
            .over_cores([4])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .over_tenants([Some(TenantScenario::batch(3, false))])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        assert_eq!(report.cells.len(), 2);
        for cell in &report.cells {
            let data = cell.tenant.as_ref().expect("tenant axis engaged");
            assert_eq!(data.reports.len(), 3);
            let total: u64 = data.reports.iter().map(|r| r.tasks).sum();
            assert_eq!(total, cell.tasks as u64, "per-tenant tasks sum to the cell total");
            assert_eq!(cell.tasks, 96, "three instances of the 32-task workload");
            for r in &data.reports {
                assert!(r.tasks > 0 && r.makespan > 0);
                assert!(r.p50 <= r.p90 && r.p90 <= r.p99, "{}: percentiles are ordered", r.name);
                assert!(r.p99 <= r.makespan, "a turnaround cannot exceed the tenant makespan");
            }
            assert!(data.jain > 0.0 && data.jain <= 1.0 + 1e-12);
            assert!(cell.serial_cycles > 0 && cell.total_cycles > 0);
        }
        // Replay: same sweep, same cells, bit for bit — and worker count changes nothing.
        assert_eq!(sweep.run(), report);
        assert_eq!(run_sweep_with_workers(&sweep, 8), report);
    }

    #[test]
    fn observed_tenant_cells_carry_per_tenant_tracks_and_critical_paths() {
        let sweep = Sweep::new("mt-obs")
            .over_cores([4])
            .over_platforms([Platform::Phentos])
            .over_tenants([Some(TenantScenario::batch(2, false))])
            .with_obs(tis_obs::ObsConfig::default())
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = sweep.run();
        let cell = &report.cells[0];
        let obs = cell.obs.as_ref().expect("observed sweep");
        // The merged-run critical path still partitions the makespan exactly.
        assert_eq!(obs.critical.total(), cell.total_cycles);
        assert_eq!(obs.tenant_critical.len(), 2);
        for (cp, r) in obs.tenant_critical.iter().zip(
            &cell.tenant.as_ref().expect("tenant data").reports,
        ) {
            assert!(cp.makespan > 0);
            assert!(cp.makespan <= r.last_retire, "tenant path is bounded by its last retire");
        }
        // The trace groups tasks into per-tenant process tracks.
        assert!(obs.trace_json.contains("tenant 0"));
        assert!(obs.trace_json.contains("tenant 1"));
    }

    #[test]
    fn tracker_axis_reaches_the_fabric() {
        // A tracker with a single task-memory entry serialises Phentos completely: the
        // makespan must be strictly worse than with the prototype capacities.
        let base = Sweep::new("tracker")
            .over_cores([4])
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(1, 16)])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
                SynthFamily::ForkJoin { width: 8 },
                32,
                5_000,
            )));
        let report = base.run();
        assert_eq!(report.cells.len(), 2);
        let (roomy, starved) = (&report.cells[0], &report.cells[1]);
        assert_eq!(starved.tracker.task_memory_entries, 1);
        assert!(
            starved.total_cycles > roomy.total_cycles,
            "a one-entry task memory must hurt: {} vs {}",
            starved.total_cycles,
            roomy.total_cycles
        );
    }
}
