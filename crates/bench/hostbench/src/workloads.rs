//! The three workloads. Each repetition sets its inputs up (from the seed, where the workload
//! has one), builds every cell's runtime, fabric and source through their public
//! constructors, runs the cells back to back (a closed loop) and checks what they produced.

use std::rc::Rc;
use std::time::Instant;

use tis_analyze::{analyze_program, GraphSpec};
use tis_bench::{geomean_ratio, Harness, Platform, PlatformResult, WorkloadResult};
use tis_core::{Phentos, TisFabric};
use tis_exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis_machine::{
    run_machine, run_machine_observed, EngineError, ExecutionReport, MachineConfig, MemoryModel,
    NullFabric, RuntimeSystem, SchedulerFabric,
};
use tis_nanos::{AxiFabric, Nanos, NanosVariant};
use tis_obs::{critical_path_per_tenant, trace_json_tenants, ObsConfig, Observer, Recorder};
use tis_picos::TrackerConfig;
use tis_sim::{Json, SimRng};
use tis_taskmodel::{
    ArrivalProcess, MaterializedSource, TaskProgram, TaskSource, TenantSet, TenantSource,
    TenantTrackerPolicy,
};
use tis_workloads::{paper_catalog, WorkloadInstance};

use crate::calib::Speedometer;
use crate::trace::{TracedFabric, TracedObserver, TracedRuntime, TracedSource, Tracer};

/// Host seconds of one repetition's set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Catalog or synthetic program generation (the streaming generator's construction for
    /// `stream-er`, whose generation runs inside the source during the timed phase).
    pub generate_s: f64,
    /// Up-front `validate` plus `tis_analyze` preflight of every materialized program.
    pub preflight_s: f64,
    /// Source, tenant-set, runtime and fabric construction.
    pub build_s: f64,
}

impl Setup {
    /// Host time before the first simulated cycle.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.preflight_s + self.build_s
    }
}

/// One simulated cell of a repetition.
#[derive(Debug)]
pub struct CellOutcome {
    /// Human-readable cell name.
    pub label: String,
    /// Platform the cell ran on.
    pub platform: Platform,
    /// Host seconds inside `run_machine`.
    pub run_s: f64,
    /// Host seconds exporting the observer's trace and critical paths (`tenants` only).
    pub export_s: f64,
    /// The simulation's result, if it completed.
    pub report: Option<ExecutionReport>,
    /// Every output check the cell failed.
    pub failures: Vec<String>,
}

/// One repetition of a workload.
#[derive(Debug)]
pub struct Rep {
    /// Set-up time by phase.
    pub setup: Setup,
    /// The cells, in run order.
    pub cells: Vec<CellOutcome>,
    /// `fig09` only: mean absolute relative error of the three headline geomeans, in percent.
    pub paper_err_pct: Option<f64>,
    /// `tenants` only: p99 turnaround of tenant 0 in the first partitioned cell, in cycles.
    pub victim_p99_cycles: Option<u64>,
}

/// One tracer per platform a workload runs.
pub struct Tracers(pub Vec<(Platform, Rc<Tracer>)>);

impl Tracers {
    fn get(&self, platform: Platform) -> &Rc<Tracer> {
        &self
            .0
            .iter()
            .find(|(p, _)| *p == platform)
            .expect("every workload platform has a tracer")
            .1
    }
}

/// A benchmark workload.
pub trait Workload {
    /// The platforms its cells run on.
    fn platforms(&self) -> &'static [Platform];
    /// Whether the repository holds reference results for its simulated numbers.
    fn has_reference(&self) -> bool;
    /// Sets up, runs and checks one repetition, wrapping every layer when `tracers` is given
    /// and letting `speed` run its kernel between cells.
    fn rep(&self, tracers: Option<&Tracers>, speed: &Speedometer) -> Rep;
}

enum Runtime {
    Phentos(Box<Phentos>),
    Nanos(Box<Nanos>),
}

/// A cell ready to run: its machine plus the runtime and fabric built for it.
struct SimCell {
    machine: MachineConfig,
    runtime: Runtime,
    fabric: Box<dyn SchedulerFabric>,
}

impl SimCell {
    fn build(
        harness: &Harness,
        platform: Platform,
        source: Box<dyn TaskSource>,
        tracer: Option<&Rc<Tracer>>,
        collect_records: bool,
    ) -> SimCell {
        let source: Box<dyn TaskSource> = match tracer {
            Some(t) => Box::new(TracedSource {
                inner: source,
                tracer: Rc::clone(t),
            }),
            None => source,
        };
        let cores = harness.cores();
        let variant = match platform {
            Platform::Phentos => None,
            Platform::NanosRv => Some(NanosVariant::PicosRocc),
            Platform::NanosAxi => Some(NanosVariant::PicosAxi),
            Platform::NanosSw => Some(NanosVariant::Software),
        };
        let mut runtime = match variant {
            None => Runtime::Phentos(Box::new(Phentos::from_source(
                source,
                cores,
                harness.phentos,
            ))),
            Some(v) => Runtime::Nanos(Box::new(Nanos::from_source(
                source,
                cores,
                v,
                harness.nanos,
            ))),
        };
        let fabric: Box<dyn SchedulerFabric> = match platform {
            Platform::Phentos | Platform::NanosRv => Box::new(TisFabric::new(cores, harness.tis)),
            Platform::NanosAxi => Box::new(AxiFabric::new(cores, harness.axi)),
            Platform::NanosSw => Box::new(NullFabric::new()),
        };
        match &mut runtime {
            Runtime::Phentos(r) => r.set_collect_records(collect_records),
            Runtime::Nanos(r) => r.set_collect_records(collect_records),
        }
        SimCell {
            machine: harness.machine,
            runtime,
            fabric,
        }
    }

    /// Runs the cell, returning its result and the host seconds `run_machine` took.
    fn run(
        &mut self,
        tracer: Option<&Tracer>,
        obs: Option<&mut dyn Observer>,
        speed: &Speedometer,
    ) -> (Result<ExecutionReport, EngineError>, f64) {
        let runtime: &mut dyn RuntimeSystem = match &mut self.runtime {
            Runtime::Phentos(r) => r.as_mut(),
            Runtime::Nanos(r) => r.as_mut(),
        };
        let fabric = self.fabric.as_mut();
        let cfg = &self.machine;
        let t0 = Instant::now();
        let result = match tracer {
            None => match obs {
                Some(o) => run_machine_observed(cfg, runtime, fabric, o),
                None => run_machine(cfg, runtime, fabric),
            },
            Some(tracer) => {
                let mut runtime = TracedRuntime {
                    inner: runtime,
                    tracer,
                };
                let mut fabric = TracedFabric {
                    inner: fabric,
                    tracer,
                };
                match obs {
                    Some(o) => {
                        let mut obs = TracedObserver { inner: o, tracer };
                        run_machine_observed(cfg, &mut runtime, &mut fabric, &mut obs)
                    }
                    None => run_machine(cfg, &mut runtime, &mut fabric),
                }
            }
        };
        let run_s = seconds_since(t0);
        speed.measured(run_s);
        (result, run_s)
    }

    fn source_mut(&mut self) -> &mut dyn TaskSource {
        match &mut self.runtime {
            Runtime::Phentos(r) => r.source_mut(),
            Runtime::Nanos(r) => r.source_mut(),
        }
    }
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `validate` plus the `tis_analyze` preflight, as one message on failure.
fn preflight(program: &TaskProgram) -> Result<(), String> {
    program
        .validate()
        .map_err(|e| format!("invalid program: {e}"))?;
    analyze_program(program)
        .map(|_| ())
        .map_err(|e| format!("preflight failed: {e}"))
}

/// The Fig. 9 headline geomeans and the values the paper reports for them.
const FIG09_HEADLINES: [(Platform, Platform, f64); 3] = [
    (Platform::NanosRv, Platform::NanosSw, 2.13),
    (Platform::Phentos, Platform::NanosSw, 13.19),
    (Platform::Phentos, Platform::NanosRv, 6.20),
];

/// The paper's evaluation: the 37-input Fig. 9 catalog on Nanos-SW, Nanos-RV and Phentos,
/// on the 8-core snooping-bus prototype, with per-task records on.
pub struct Fig09 {
    harness: Harness,
    /// `(benchmark, input, platform key, cycles)` from the checked-in Fig. 9 baseline.
    baseline: Vec<(String, String, String, u64)>,
}

impl Fig09 {
    /// The workload. Its inputs are the paper's fixed catalog, so it takes no seed.
    pub fn new() -> Self {
        Fig09 {
            harness: Harness::paper_prototype(),
            baseline: fig09_baseline(),
        }
    }

    fn baseline_cycles(&self, w: &WorkloadInstance, platform: Platform) -> Option<u64> {
        self.baseline
            .iter()
            .find(|(b, i, p, _)| b == w.benchmark && *i == w.input && p == platform.key())
            .map(|e| e.3)
    }
}

/// Every cell's makespan from `bench-baselines/BENCH_fig09.json`, read at build time.
fn fig09_baseline() -> Vec<(String, String, String, u64)> {
    let doc = Json::parse(include_str!("../../../../bench-baselines/BENCH_fig09.json"))
        .expect("the checked-in Fig. 9 baseline parses");
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for w in workloads {
        let text = |k: &str| {
            w.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let Some(Json::Obj(platforms)) = w.get("platforms") else {
            continue;
        };
        for (key, p) in platforms {
            if let Some(cycles) = p.get("cycles").and_then(Json::as_f64) {
                out.push((text("benchmark"), text("input"), key.clone(), cycles as u64));
            }
        }
    }
    out
}

impl Workload for Fig09 {
    fn platforms(&self) -> &'static [Platform] {
        &Platform::FIGURE9
    }

    fn has_reference(&self) -> bool {
        true
    }

    fn rep(&self, tracers: Option<&Tracers>, speed: &Speedometer) -> Rep {
        let t = Instant::now();
        let catalog = paper_catalog();
        let generate_s = seconds_since(t);
        let t = Instant::now();
        let checked: Vec<Result<(), String>> =
            catalog.iter().map(|w| preflight(&w.program)).collect();
        let mut setup = Setup {
            generate_s,
            preflight_s: seconds_since(t),
            build_s: 0.0,
        };

        let mut cells = Vec::new();
        let mut results = Vec::new();
        for (w, checked) in catalog.iter().zip(&checked) {
            let serial = self.harness.serial_cycles(&w.program);
            let mut platforms = Vec::new();
            for &p in &Platform::FIGURE9 {
                let label = format!("{} on {}", w.label(), p.key());
                if let Err(e) = checked {
                    cells.push(CellOutcome {
                        label,
                        platform: p,
                        run_s: 0.0,
                        export_s: 0.0,
                        report: None,
                        failures: vec![e.clone()],
                    });
                    continue;
                }
                let tracer = tracers.map(|t| t.get(p));
                let t = Instant::now();
                let source = Box::new(MaterializedSource::new(&w.program));
                let mut cell = SimCell::build(&self.harness, p, source, tracer, true);
                setup.build_s += seconds_since(t);
                let (result, run_s) = cell.run(tracer.map(|t| &**t), None, speed);
                let mut failures = Vec::new();
                match &result {
                    Ok(report) => {
                        if let Err(e) = report.validate_against(&w.program) {
                            failures.push(format!("invalid schedule: {e}"));
                        }
                        if report.tasks_retired != w.program.task_count() as u64 {
                            failures.push(format!(
                                "retired {} of {} tasks",
                                report.tasks_retired,
                                w.program.task_count()
                            ));
                        }
                        match self.baseline_cycles(w, p) {
                            Some(c) if c == report.total_cycles => {}
                            Some(c) => failures.push(format!(
                                "{} cycles, BENCH_fig09.json has {c}",
                                report.total_cycles
                            )),
                            None => failures.push("missing from BENCH_fig09.json".to_string()),
                        }
                        platforms.push(PlatformResult {
                            platform: p,
                            cycles: report.total_cycles,
                            speedup_vs_serial: report.speedup_over(serial),
                        });
                    }
                    Err(e) => failures.push(e.to_string()),
                }
                cells.push(CellOutcome {
                    label,
                    platform: p,
                    run_s,
                    export_s: 0.0,
                    report: result.ok(),
                    failures,
                });
            }
            results.push(WorkloadResult {
                benchmark: w.benchmark,
                input: w.input.clone(),
                mean_task_cycles: 0.0,
                serial_cycles: serial,
                platforms,
            });
        }
        let errors: Option<Vec<f64>> = FIG09_HEADLINES
            .iter()
            .map(|&(num, den, paper)| {
                geomean_ratio(&results, num, den).map(|g| (g - paper).abs() / paper)
            })
            .collect();
        let paper_err_pct = errors.map(|e| 100.0 * e.iter().sum::<f64>() / e.len() as f64);
        Rep {
            setup,
            cells,
            paper_err_pct,
            victim_p99_cycles: None,
        }
    }
}

/// Tasks in each streamed Erdős–Rényi cell.
pub const STREAM_TASKS: usize = 50_000;
/// Resident-descriptor window of each streamed cell.
pub const STREAM_WINDOW: usize = 4_096;
/// Independently seeded cells per repetition. Four 50k-task cells instead of the sweep's one
/// 200k-task cell: the same work in four cells, each still 12 windows long, so host speed
/// (each cell at its fastest repetition) holds steadier.
const STREAM_INSTANCES: u64 = 4;

/// Streamed windowed Erdős–Rényi DAGs on Phentos over the contended directory mesh, with
/// records off: the shape of `sweep_streaming_scale`'s 200k-task cell.
pub struct StreamEr {
    seed: u64,
    harness: Harness,
}

impl StreamEr {
    /// The workload; `seed` seeds the graphs and task-size draws.
    pub fn new(seed: u64) -> Self {
        StreamEr {
            seed,
            harness: Harness::paper_prototype()
                .with_memory_model(MemoryModel::directory_mesh_contended()),
        }
    }
}

impl Workload for StreamEr {
    fn platforms(&self) -> &'static [Platform] {
        &[Platform::Phentos]
    }

    fn has_reference(&self) -> bool {
        false
    }

    fn rep(&self, tracers: Option<&Tracers>, speed: &Speedometer) -> Rep {
        let spec = SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.05 },
            tasks: STREAM_TASKS,
            task_cycles: 2_000,
            jitter: 0.25,
        };
        let tracer = tracers.map(|t| t.get(Platform::Phentos));
        let mut setup = Setup::default();
        let mut cells = Vec::new();
        for instance in 0..STREAM_INSTANCES {
            let t = Instant::now();
            let rng = SimRng::new(self.seed).stream("instance", instance);
            let source = StreamingSynth::new(spec, STREAM_WINDOW, rng);
            setup.generate_s += seconds_since(t);
            let t = Instant::now();
            let mut cell = SimCell::build(
                &self.harness,
                Platform::Phentos,
                Box::new(source),
                tracer,
                false,
            );
            setup.build_s += seconds_since(t);
            let (result, run_s) = cell.run(tracer.map(|t| &**t), None, speed);
            let mut failures = Vec::new();
            match &result {
                Ok(report) => {
                    if report.tasks_retired != STREAM_TASKS as u64 {
                        failures.push(format!(
                            "retired {} of {STREAM_TASKS} tasks",
                            report.tasks_retired
                        ));
                    }
                    if report.peak_resident_tasks > STREAM_WINDOW as u64 {
                        failures.push(format!(
                            "peak residency {} exceeds the {STREAM_WINDOW}-task window",
                            report.peak_resident_tasks
                        ));
                    }
                }
                Err(e) => failures.push(e.to_string()),
            }
            cells.push(CellOutcome {
                label: format!("{} instance {instance}", spec.name()),
                platform: Platform::Phentos,
                run_s,
                export_s: 0.0,
                report: result.ok(),
                failures,
            });
        }
        Rep {
            setup,
            cells,
            paper_err_pct: None,
            victim_p99_cycles: None,
        }
    }
}

/// Co-scheduled tenants: tenant 0 is the victim.
const TENANTS: usize = 8;
/// Antagonist burst length and period, in tasks and cycles.
const BURST: u64 = 96;
const PERIOD: u64 = 100_000;
/// Victim mean interarrival gap in cycles.
const VICTIM_GAP: u64 = 36_000;
/// Cores of the serving machine.
const TENANT_CORES: usize = 32;
/// Independently seeded instances of the scenario per repetition. Four 192-task instances
/// instead of the sweep's one 768-task instance at 32 cores: the same work and the same
/// serving behaviour, in eight cells instead of two, so host speed (each cell at its fastest
/// repetition) and the seed-to-seed spread both hold steadier.
const INSTANCES: u64 = 4;
/// Seed of the arrival draws, the same whatever `--seed` is. The victim's last arrival sets
/// the makespan, and with it the host time, since 32 cores poll through every simulated
/// cycle: with seeded arrivals, host time per repetition varied by about 6% (quartile
/// distance over median) from seed to seed. Fixed arrivals give every seed the same offered
/// load, so `tasks_per_host_s` is measured at one stated input size.
const ARRIVAL_SEED: u64 = 1;
/// Every tenant's program. Chains clog the tracker with submitted-but-not-ready entries.
const TENANT_PROGRAM: SynthSpec = SynthSpec {
    family: SynthFamily::Chain,
    tasks: 192,
    task_cycles: 30_000,
    jitter: 0.25,
};

/// The 8-tenant serving scenario of `sweep_multi_tenant` at 32 cores on Phentos: a 16-entry
/// tracker, a Poisson victim, bursty chain antagonists, and per instance a shared and a
/// partitioned cell, each observed by a `Recorder` whose per-tenant trace and critical paths
/// are exported.
pub struct Tenants {
    seed: u64,
    harness: Harness,
}

impl Tenants {
    /// The workload; `seed` seeds every tenant's program.
    pub fn new(seed: u64) -> Self {
        Tenants {
            seed,
            harness: Harness::with_cores(TENANT_CORES).with_tracker(TrackerConfig::new(16, 1024)),
        }
    }

    fn check(report: &ExecutionReport, expected_tasks: u64, critical_total: u64) -> Vec<String> {
        let mut failures = Vec::new();
        if report.tasks_retired != expected_tasks {
            failures.push(format!(
                "retired {} of {expected_tasks} tasks",
                report.tasks_retired
            ));
        }
        let per_tenant: u64 = report.tenants.iter().map(|r| r.tasks).sum();
        if report.tenants.len() != TENANTS || per_tenant != report.tasks_retired {
            failures.push(format!(
                "{} tenants' tasks sum to {per_tenant}, the cell retired {}",
                report.tenants.len(),
                report.tasks_retired
            ));
        }
        for r in &report.tenants {
            if !(r.p50 <= r.p90 && r.p90 <= r.p99 && r.p99 <= r.makespan) {
                failures.push(format!(
                    "tenant {}: p50 {} / p90 {} / p99 {} / makespan {} out of order",
                    r.name, r.p50, r.p90, r.p99, r.makespan
                ));
            }
        }
        if critical_total != report.total_cycles {
            failures.push(format!(
                "critical path sums to {critical_total}, makespan is {}",
                report.total_cycles
            ));
        }
        failures
    }
}

/// Exports an observed tenant cell as `sweep_multi_tenant` does: the whole-run critical path
/// over the merged edges, the per-tenant critical paths, the per-tenant Perfetto trace and the
/// metrics timeline. Returns the whole-run critical path's total.
fn export_tenant_cell(
    recorder: &Recorder,
    programs: &[TaskProgram],
    source: &mut dyn TaskSource,
    report: &ExecutionReport,
    label: &str,
) -> Result<u64, String> {
    let data = source
        .as_any_mut()
        .and_then(|any| any.downcast_mut::<TenantSource>())
        .map(TenantSource::take_run_data)
        .ok_or("the runtime's source is not a TenantSource")?;
    let tenant_edges: Vec<Vec<(usize, usize)>> = programs
        .iter()
        .map(|p| GraphSpec::from_program(p).edges)
        .collect();
    let mut globals: Vec<Vec<usize>> = vec![Vec::new(); programs.len()];
    for (global, &t) in data.assignment.iter().enumerate() {
        globals[t as usize].push(global);
    }
    let merged: Vec<(usize, usize)> = tenant_edges
        .iter()
        .zip(&globals)
        .flat_map(|(edges, map)| edges.iter().map(move |&(a, b)| (map[a], map[b])))
        .collect();
    let critical = recorder.critical_path(&merged, report.total_cycles);
    let per_tenant = critical_path_per_tenant(recorder.spans(), &data.assignment, &tenant_edges);
    let trace = trace_json_tenants(
        label,
        TENANT_CORES,
        recorder.spans(),
        recorder.metrics().samples(),
        &data.names,
        &data.assignment,
    )
    .render();
    let metrics = recorder.metrics_json(label, report.total_cycles).render();
    std::hint::black_box((per_tenant, trace, metrics));
    Ok(critical.total())
}

impl Workload for Tenants {
    fn platforms(&self) -> &'static [Platform] {
        &[Platform::Phentos]
    }

    fn has_reference(&self) -> bool {
        false
    }

    fn rep(&self, tracers: Option<&Tracers>, speed: &Speedometer) -> Rep {
        let tracer = tracers.map(|t| t.get(Platform::Phentos));
        let mut setup = Setup::default();
        let mut cells = Vec::new();
        let mut victim_p99_cycles = None;
        for instance in 0..INSTANCES {
            let rng = SimRng::new(self.seed).stream("instance", instance);
            let t = Instant::now();
            let programs: Vec<TaskProgram> = (0..TENANTS)
                .map(|i| TENANT_PROGRAM.generate(&mut rng.stream("tenant", i as u64)))
                .collect();
            setup.generate_s += seconds_since(t);
            let t = Instant::now();
            let checked: Result<(), String> = programs.iter().try_for_each(preflight);
            setup.preflight_s += seconds_since(t);
            let expected_tasks: u64 = programs.iter().map(|p| p.task_count() as u64).sum();

            for partitioned in [false, true] {
                let label = format!(
                    "tenants instance {instance} {}",
                    if partitioned { "partitioned" } else { "shared" }
                );
                if let Err(e) = &checked {
                    cells.push(CellOutcome {
                        label,
                        platform: Platform::Phentos,
                        run_s: 0.0,
                        export_s: 0.0,
                        report: None,
                        failures: vec![e.clone()],
                    });
                    continue;
                }
                let t = Instant::now();
                let policy = if partitioned {
                    let tracker = self.harness.tis.picos.tracker;
                    TenantTrackerPolicy::Partitioned {
                        per_tenant_entries: tracker.per_tenant_entries(TENANTS),
                    }
                } else {
                    TenantTrackerPolicy::Shared
                };
                let mut set = TenantSet::new().with_policy(policy);
                for (i, p) in programs.iter().enumerate() {
                    let arrival = if i == 0 {
                        ArrivalProcess::Poisson {
                            mean_interarrival: VICTIM_GAP,
                        }
                    } else {
                        ArrivalProcess::Bursty {
                            burst: BURST,
                            period: PERIOD,
                        }
                    };
                    set = set.tenant(
                        format!("t{i}"),
                        Box::new(MaterializedSource::new(p)),
                        arrival,
                    );
                }
                // Both cells face the same arrival draws, so the pair isolates the tracker
                // policy.
                let arrivals = SimRng::new(ARRIVAL_SEED).stream("instance", instance);
                let source = set.into_source(arrivals.stream("tenant-arrivals", 0));
                let mut cell = SimCell::build(
                    &self.harness,
                    Platform::Phentos,
                    Box::new(source),
                    tracer,
                    false,
                );
                setup.build_s += seconds_since(t);

                let mut recorder = Recorder::new(ObsConfig::default());
                let (result, run_s) = cell.run(tracer.map(|t| &**t), Some(&mut recorder), speed);
                let mut export_s = 0.0;
                let failures = result
                    .as_ref()
                    .map_err(|e| e.to_string())
                    .and_then(|report| {
                        let t = Instant::now();
                        let critical_total = export_tenant_cell(
                            &recorder,
                            &programs,
                            cell.source_mut(),
                            report,
                            &label,
                        )?;
                        export_s = seconds_since(t);
                        speed.measured(export_s);
                        Ok(Tenants::check(report, expected_tasks, critical_total))
                    })
                    .unwrap_or_else(|e| vec![e]);
                if partitioned && instance == 0 {
                    victim_p99_cycles = result
                        .as_ref()
                        .ok()
                        .and_then(|r| r.tenants.first())
                        .map(|victim| victim.p99);
                }
                cells.push(CellOutcome {
                    label,
                    platform: Platform::Phentos,
                    run_s,
                    export_s,
                    report: result.ok(),
                    failures,
                });
            }
        }
        Rep {
            setup,
            cells,
            paper_err_pct: None,
            victim_p99_cycles,
        }
    }
}
