//! Experiment harness shared by the figure/table bench targets, the integration tests and the
//! examples.
//!
//! The harness knows how to run any [`TaskProgram`] on any of the paper's four platforms
//! ([`Platform`]), how to measure the lifetime-overhead microbenchmarks of Figure 7, and how to
//! evaluate the 37-workload catalog of Figure 9. Each `benches/figNN_*.rs` target is a thin
//! `main` that calls into this crate and prints the same rows/series as the corresponding figure
//! or table of the paper, next to the paper's published values where they are scalar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;

use tis_core::{PhentosConfig, Phentos, TisConfig, TisFabric};
use tis_machine::{
    run_machine_counted, EngineError, EngineStats, ExecutionReport, MachineConfig, NullFabric,
    RuntimeSystem, SchedulerFabric,
};
use tis_nanos::{AxiConfig, AxiFabric, Nanos, NanosTuning, NanosVariant};
use tis_sim::{geomean, Json};
use tis_taskmodel::{MaterializedSource, TaskProgram, TaskSource, TenantRunData, TenantSource};
use tis_workloads::{paper_catalog, task_chain, task_free, WorkloadInstance};

/// The four Task Scheduling platforms compared throughout the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// The paper's fly-weight runtime on the tightly-integrated (RoCC) fabric.
    Phentos,
    /// Nanos with the `picos` plugin on the tightly-integrated (RoCC) fabric.
    NanosRv,
    /// Nanos with Picos behind an AXI/MMIO driver (the Picos++ baseline of Tan et al.).
    NanosAxi,
    /// Nanos with software dependence inference (no scheduling hardware).
    NanosSw,
}

impl Platform {
    /// All platforms in the order the paper's figures list them.
    pub const ALL: [Platform; 4] =
        [Platform::Phentos, Platform::NanosRv, Platform::NanosAxi, Platform::NanosSw];

    /// The three platforms of Figure 9 (Nanos-AXI only appears in the overhead/MTT figures).
    pub const FIGURE9: [Platform; 3] = [Platform::NanosSw, Platform::NanosRv, Platform::Phentos];

    /// Label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Platform::Phentos => "Phentos",
            Platform::NanosRv => "Nanos-RV",
            Platform::NanosAxi => "Nanos-AXI",
            Platform::NanosSw => "Nanos-SW",
        }
    }

    /// Stable lower-case key used in machine-readable output.
    pub fn key(self) -> &'static str {
        match self {
            Platform::Phentos => "phentos",
            Platform::NanosRv => "nanos-rv",
            Platform::NanosAxi => "nanos-axi",
            Platform::NanosSw => "nanos-sw",
        }
    }
}

/// Everything needed to run experiments: machine plus per-platform configuration.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Machine configuration (core count, caches, memory, cost model).
    pub machine: MachineConfig,
    /// Tightly-integrated fabric configuration.
    pub tis: TisConfig,
    /// AXI fabric configuration.
    pub axi: AxiConfig,
    /// Phentos tuning.
    pub phentos: PhentosConfig,
    /// Nanos tuning.
    pub nanos: NanosTuning,
}

impl Harness {
    /// The paper's eight-core prototype.
    pub fn paper_prototype() -> Self {
        Harness {
            machine: MachineConfig::rocket_octacore(),
            tis: TisConfig::default(),
            axi: AxiConfig::default(),
            phentos: PhentosConfig::default(),
            nanos: NanosTuning::default(),
        }
    }

    /// The same system with a different core count.
    pub fn with_cores(cores: usize) -> Self {
        Harness { machine: MachineConfig::rocket_with_cores(cores), ..Self::paper_prototype() }
    }

    /// The same system with the given Picos tracker capacities applied to **both** Picos-backed
    /// fabrics (RoCC and AXI) — the tracker-capacity axis of the `tis-exp` sweeps. The software
    /// runtime (Nanos-SW) has no tracker and is unaffected.
    pub fn with_tracker(mut self, tracker: tis_picos::TrackerConfig) -> Self {
        self.tis.picos.tracker = tracker;
        self.axi.picos.tracker = tracker;
        self
    }

    /// The same system with the given coherence interconnect model — the memory-model axis of
    /// the `tis-exp` sweeps. The default [`Harness::paper_prototype`] keeps the snooping bus
    /// every figure reproduction is pinned to.
    pub fn with_memory_model(mut self, model: tis_machine::MemoryModel) -> Self {
        self.machine.memory_model = model;
        self
    }

    /// The same system with the given deterministic fault schedule — the fault axis of the
    /// `tis-exp` sweeps. Message faults apply to the machine's NoC (mesh models only); tracker
    /// losses apply to **both** Picos-backed fabrics, mirroring [`Harness::with_tracker`]. The
    /// default [`tis_machine::FaultConfig::none`] constructs no fault layer at all, keeping
    /// every fault-free result bit-identical to the pre-fault harness.
    pub fn with_faults(mut self, fault: tis_machine::FaultConfig) -> Self {
        self.machine.fault = fault;
        self.tis.picos.fault = fault;
        self.axi.picos.fault = fault;
        self
    }

    /// Number of cores in the configured machine.
    pub fn cores(&self) -> usize {
        self.machine.cores
    }

    /// Serial-execution baseline of a program on this machine, in cycles.
    pub fn serial_cycles(&self, program: &TaskProgram) -> u64 {
        program.serial_cycles(self.machine.dram_bytes_per_cycle, self.machine.costs.serial_call_overhead)
    }

    /// Runs `program` on the given platform.
    ///
    /// # Errors
    ///
    /// Propagates any [`EngineError`] (deadlock / cycle-cap) from the simulation.
    pub fn run(&self, platform: Platform, program: &TaskProgram) -> Result<ExecutionReport, EngineError> {
        self.run_counted(platform, program, None).0
    }

    /// [`Harness::run`] with an observer attached (see
    /// [`tis_machine::run_machine_observed`]): task-lifecycle, memory and
    /// metrics events stream to `obs` while the simulation runs. Observation never spends
    /// simulated cycles, so the returned report is identical to [`Harness::run`]'s.
    ///
    /// # Errors
    ///
    /// Exactly as [`Harness::run`].
    pub fn run_observed(
        &self,
        platform: Platform,
        program: &TaskProgram,
        obs: &mut dyn tis_obs::Observer,
    ) -> Result<ExecutionReport, EngineError> {
        self.run_counted(platform, program, Some(obs)).0
    }

    /// Runs a streamed workload ([`TaskSource`]) on the given platform.
    ///
    /// The streaming counterpart of [`Harness::run`]: the runtime pulls ops on demand and
    /// frees each descriptor on retire, so a bounded-window source simulates millions of
    /// tasks in `O(window)` host memory. With `collect_records` off the runtime also skips
    /// accumulating per-task [`tis_taskmodel::ExecRecord`]s — the whole run is then
    /// `O(window)` resident, which is exactly what the streaming-scale gate measures (the
    /// report's `peak_resident_tasks` field carries the high-water mark).
    ///
    /// There is no up-front preflight pass here — a streamed program never exists in memory
    /// at once. Sources are expected to validate themselves as they generate (see
    /// `tis_analyze::WindowedPreflight`, which `tis_exp::StreamingSynth` runs inline).
    ///
    /// # Errors
    ///
    /// Propagates any [`EngineError`] (deadlock / cycle-cap) from the simulation.
    pub fn run_source(
        &self,
        platform: Platform,
        source: Box<dyn TaskSource>,
        collect_records: bool,
    ) -> Result<ExecutionReport, EngineError> {
        self.launch(platform, source, collect_records, None, |_| ()).0.map(|(report, ())| report)
    }

    /// Runs a multi-tenant co-scheduled workload ([`TenantSource`]) on the given platform,
    /// returning both the execution report (whose `tenants` field carries per-tenant
    /// makespan/turnaround metrics) and the run's [`TenantRunData`] — the tenant names plus
    /// the global-task-id → tenant assignment that per-tenant trace export
    /// ([`tis_obs::trace_json_tenants`]) and per-tenant critical-path decomposition
    /// ([`tis_obs::critical_path_per_tenant`]) consume.
    ///
    /// The runtime consumes the source, so the assignment is recovered after the run through
    /// the source's downcast hook. Pass an observer to capture spans/samples for the
    /// per-tenant artifacts; observation never changes the report.
    ///
    /// # Errors
    ///
    /// Propagates any [`EngineError`] (deadlock / cycle-cap) from the simulation.
    ///
    /// # Panics
    ///
    /// Panics if the runtime's source no longer downcasts to a [`TenantSource`] — that would
    /// be a harness bug, not a workload property.
    pub fn run_tenants(
        &self,
        platform: Platform,
        source: TenantSource,
        collect_records: bool,
        obs: Option<&mut dyn tis_obs::Observer>,
    ) -> Result<(ExecutionReport, TenantRunData), EngineError> {
        self.run_tenants_counted(platform, source, collect_records, obs).0
    }

    /// [`Harness::run_tenants`] that also returns the run's engine work counters.
    pub fn run_tenants_counted(
        &self,
        platform: Platform,
        source: TenantSource,
        collect_records: bool,
        obs: Option<&mut dyn tis_obs::Observer>,
    ) -> (Result<(ExecutionReport, TenantRunData), EngineError>, EngineStats) {
        self.launch(platform, Box::new(source), collect_records, obs, |src| {
            src.as_any_mut()
                .and_then(|any| any.downcast_mut::<TenantSource>())
                .map(TenantSource::take_run_data)
                .expect("run_tenants runtime must hold a TenantSource")
        })
    }

    /// [`Harness::run`], or [`Harness::run_observed`] when `obs` is given, that also returns
    /// the run's engine work counters.
    pub fn run_counted(
        &self,
        platform: Platform,
        program: &TaskProgram,
        obs: Option<&mut dyn tis_obs::Observer>,
    ) -> (Result<ExecutionReport, EngineError>, EngineStats) {
        program.validate().expect("program must satisfy the Picos descriptor constraints");
        // In debug builds every program entering the harness is preflighted: acyclic,
        // reference-clean, conflict-covered. Release benches skip the pass so pinned
        // figure timings are untouched; the generators' own chokepoints still cover them.
        #[cfg(debug_assertions)]
        if let Err(e) = tis_analyze::analyze_program(program) {
            panic!("program failed preflight before simulation: {e}");
        }
        let source = Box::new(MaterializedSource::new(program));
        let (result, engine) = self.launch(platform, source, true, obs, |_| ());
        (result.map(|(report, ())| report), engine)
    }

    /// The one launch path: builds `platform`'s runtime over `source` and its fabric, runs the
    /// engine, and on success hands the runtime's source to `finish`.
    fn launch<T>(
        &self,
        platform: Platform,
        source: Box<dyn TaskSource>,
        collect_records: bool,
        obs: Option<&mut dyn tis_obs::Observer>,
        finish: impl FnOnce(&mut dyn TaskSource) -> T,
    ) -> (Result<(ExecutionReport, T), EngineError>, EngineStats) {
        let cores = self.machine.cores;
        let tis = || Box::new(TisFabric::new(cores, self.tis));
        let (variant, mut fabric): (_, Box<dyn SchedulerFabric>) = match platform {
            Platform::Phentos => (None, tis()),
            Platform::NanosRv => (Some(NanosVariant::PicosRocc), tis()),
            Platform::NanosAxi => (Some(NanosVariant::PicosAxi), Box::new(AxiFabric::new(cores, self.axi))),
            Platform::NanosSw => (Some(NanosVariant::Software), Box::new(NullFabric::new())),
        };
        let run = |runtime: &mut dyn RuntimeSystem| {
            run_machine_counted(&self.machine, runtime, fabric.as_mut(), obs)
        };
        match variant {
            None => {
                let mut runtime = Phentos::from_source(source, cores, self.phentos);
                runtime.set_collect_records(collect_records);
                let (result, engine) = run(&mut runtime);
                (result.map(|report| (report, finish(runtime.source_mut()))), engine)
            }
            Some(variant) => {
                let mut runtime = Nanos::from_source(source, cores, variant, self.nanos);
                runtime.set_collect_records(collect_records);
                let (result, engine) = run(&mut runtime);
                (result.map(|report| (report, finish(runtime.source_mut()))), engine)
            }
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::paper_prototype()
    }
}

/// The paper's Figure 7 reference values (lifetime overhead in Rocket-equivalent cycles), used
/// by the harness output and the experiment-shape tests: rows are platforms, columns are
/// Task-Free(1), Task-Free(15), Task-Chain(1), Task-Chain(15).
pub fn figure7_paper_values(platform: Platform) -> [f64; 4] {
    match platform {
        Platform::Phentos => [185.0, 320.0, 329.0, 423.0],
        Platform::NanosRv => [12_348.0, 13_143.0, 12_835.0, 12_393.0],
        Platform::NanosAxi => [13_426.0, 17_042.0, 18_459.0, 18_668.0],
        Platform::NanosSw => [25_208.0, 99_008.0, 35_867.0, 58_214.0],
    }
}

/// The four lifetime-overhead workloads of Figure 7, in column order.
///
/// Labels are clean names with no baked-in padding; consumers that print tables align them
/// with width-parameterised format specifiers (`{:<width$}` / `{:>width$}`) at the print site.
pub fn figure7_workloads(tasks_per_run: usize) -> Vec<(&'static str, TaskProgram)> {
    vec![
        ("Task-Free 1 dep", task_free(tasks_per_run, 1)),
        ("Task-Free 15 deps", task_free(tasks_per_run, 15)),
        ("Task-Chain 1 dep", task_chain(tasks_per_run, 1)),
        ("Task-Chain 15 deps", task_chain(tasks_per_run, 15)),
    ]
}

/// Measures the lifetime task-scheduling overhead (cycles per task) of a platform on one of the
/// Figure 7 microbenchmarks. As in the paper, the measurement isolates scheduling cost: payloads
/// are empty and a single core plays both producer and consumer, so the makespan divided by the
/// task count is the per-task lifetime overhead.
pub fn measure_lifetime_overhead(harness: &Harness, platform: Platform, program: &TaskProgram) -> f64 {
    let single = Harness { machine: MachineConfig { cores: 1, ..harness.machine }, ..harness.clone() };
    let report = single.run(platform, program).expect("overhead microbenchmark must complete");
    report.mean_cycles_per_task()
}

/// Measures the **maximum task throughput** (MTT, Section VI-B2) of a platform in tasks per
/// cycle, at the harness's configured core count: an empty-payload Task-Free run floods the
/// scheduling system with `tasks` independent single-dependence tasks, so the retirement rate
/// is the system-wide scheduling ceiling. `min(cores, t × MTT)` (see
/// `tis_machine::mtt_speedup_bound_from_throughput`) then bounds the speedup of any workload
/// with mean task size `t` on this machine — the core-count-honest form of the Figure 6
/// bounds, which matters beyond 8 cores for the runtimes whose per-task overhead parallelises
/// across workers.
pub fn measure_task_throughput(harness: &Harness, platform: Platform, tasks: usize) -> f64 {
    let program = task_free(tasks, 1);
    let report = harness.run(platform, &program).expect("throughput microbenchmark must complete");
    if report.total_cycles == 0 {
        return 0.0;
    }
    report.tasks_retired as f64 / report.total_cycles as f64
}

/// Result of evaluating one catalog workload on one platform.
#[derive(Debug, Clone)]
pub struct PlatformResult {
    /// Which platform ran.
    pub platform: Platform,
    /// Makespan in cycles.
    pub cycles: u64,
    /// Speedup over the serial baseline.
    pub speedup_vs_serial: f64,
}

/// Result of evaluating one catalog workload across platforms.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Paper input label.
    pub input: String,
    /// Mean task size in cycles (the granularity axis of Figures 8 and 10).
    pub mean_task_cycles: f64,
    /// Serial baseline in cycles.
    pub serial_cycles: u64,
    /// One entry per evaluated platform.
    pub platforms: Vec<PlatformResult>,
}

impl WorkloadResult {
    /// Speedup of one platform over the serial baseline, if it was evaluated.
    pub fn speedup(&self, platform: Platform) -> Option<f64> {
        self.platforms.iter().find(|p| p.platform == platform).map(|p| p.speedup_vs_serial)
    }

    /// Ratio of two platforms' performance (first over second), if both were evaluated.
    pub fn ratio(&self, num: Platform, den: Platform) -> Option<f64> {
        match (self.speedup(num), self.speedup(den)) {
            (Some(a), Some(b)) if b > 0.0 => Some(a / b),
            _ => None,
        }
    }
}

/// Engine work counters of one platform summed over a set of runs, with the tasks those runs
/// retired (steps per task is the engine's host-work trajectory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlatformWork {
    /// Which platform ran.
    pub platform: Platform,
    /// Summed engine counters.
    pub engine: EngineStats,
    /// Tasks retired by the runs.
    pub tasks: u64,
}

impl PlatformWork {
    /// Engine steps per retired task.
    pub fn steps_per_task(&self) -> f64 {
        self.engine.steps_per_task(self.tasks)
    }
}

/// Evaluates one workload on the given platforms, validating every schedule against the
/// reference dependence graph.
pub fn evaluate_workload(
    harness: &Harness,
    workload: &WorkloadInstance,
    platforms: &[Platform],
) -> WorkloadResult {
    evaluate_workload_counted(harness, workload, platforms).0
}

/// [`evaluate_workload`] that also returns each platform's engine work, in `platforms` order.
pub fn evaluate_workload_counted(
    harness: &Harness,
    workload: &WorkloadInstance,
    platforms: &[Platform],
) -> (WorkloadResult, Vec<PlatformWork>) {
    // Catalog entries were preflighted at generation; hand-built instances get the same
    // soundness proof here before any platform simulates them.
    if let Err(e) = tis_analyze::analyze_program(&workload.program) {
        panic!("{} failed preflight: {e}", workload.label());
    }
    let serial = harness.serial_cycles(&workload.program);
    let mut results = Vec::new();
    let mut work = Vec::new();
    for &p in platforms {
        let (result, engine) = harness.run_counted(p, &workload.program, None);
        let report = result.unwrap_or_else(|e| panic!("{} on {}: {e}", workload.label(), p.label()));
        report
            .validate_against(&workload.program)
            .unwrap_or_else(|e| panic!("{} on {} produced an invalid schedule: {e}", workload.label(), p.label()));
        results.push(PlatformResult {
            platform: p,
            cycles: report.total_cycles,
            speedup_vs_serial: report.speedup_over(serial),
        });
        work.push(PlatformWork { platform: p, engine, tasks: report.tasks_retired });
    }
    let result = WorkloadResult {
        benchmark: workload.benchmark,
        input: workload.input.clone(),
        mean_task_cycles: workload.program.stats(harness.machine.dram_bytes_per_cycle).mean_task_cycles,
        serial_cycles: serial,
        platforms: results,
    };
    (result, work)
}

/// Evaluates the whole 37-workload catalog of Figure 9 on the given platforms.
pub fn evaluate_catalog(harness: &Harness, platforms: &[Platform]) -> Vec<WorkloadResult> {
    evaluate_catalog_counted(harness, platforms).0
}

/// [`evaluate_catalog`] that also returns each platform's engine work over the whole catalog,
/// in `platforms` order.
pub fn evaluate_catalog_counted(harness: &Harness, platforms: &[Platform]) -> (Vec<WorkloadResult>, Vec<PlatformWork>) {
    let mut total: Vec<PlatformWork> = platforms
        .iter()
        .map(|&platform| PlatformWork { platform, engine: EngineStats::default(), tasks: 0 })
        .collect();
    let results = paper_catalog()
        .iter()
        .map(|w| {
            let (result, work) = evaluate_workload_counted(harness, w, platforms);
            for (sum, run) in total.iter_mut().zip(&work) {
                sum.engine.add(&run.engine);
                sum.tasks += run.tasks;
            }
            result
        })
        .collect();
    (results, total)
}

/// Geometric mean of the ratio `num / den` over a set of workload results (the paper's headline
/// 2.13× / 13.19× / 6.20× numbers are computed this way over all 37 workloads).
pub fn geomean_ratio(results: &[WorkloadResult], num: Platform, den: Platform) -> Option<f64> {
    geomean(results.iter().filter_map(|r| r.ratio(num, den)))
}

/// Machine-readable snapshot of a Figure 9 evaluation: per-workload makespans and speedups
/// plus the paper's three headline geometric means, as a JSON value tree (ROADMAP: persist the
/// `BENCH_*.json` trajectory instead of losing every run to the terminal).
pub fn fig09_json(results: &[WorkloadResult]) -> Json {
    let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    let workloads = results
        .iter()
        .map(|r| {
            let platforms = r
                .platforms
                .iter()
                .map(|p| {
                    (
                        p.platform.key().to_string(),
                        Json::obj([
                            ("cycles", Json::UInt(p.cycles)),
                            ("speedup_over_serial", Json::Num(p.speedup_vs_serial)),
                        ]),
                    )
                })
                .collect();
            Json::obj([
                ("benchmark", Json::Str(r.benchmark.to_string())),
                ("input", Json::Str(r.input.clone())),
                ("mean_task_cycles", Json::Num(r.mean_task_cycles)),
                ("serial_cycles", Json::UInt(r.serial_cycles)),
                ("platforms", Json::Obj(platforms)),
            ])
        })
        .collect();
    Json::obj([
        ("figure", Json::Str("fig09".to_string())),
        ("workloads", Json::Arr(workloads)),
        (
            "geomeans",
            Json::obj([
                (
                    "nanos_rv_over_nanos_sw",
                    opt_num(geomean_ratio(results, Platform::NanosRv, Platform::NanosSw)),
                ),
                (
                    "phentos_over_nanos_sw",
                    opt_num(geomean_ratio(results, Platform::Phentos, Platform::NanosSw)),
                ),
                (
                    "phentos_over_nanos_rv",
                    opt_num(geomean_ratio(results, Platform::Phentos, Platform::NanosRv)),
                ),
            ]),
        ),
    ])
}

/// Writes each `(file name, contents)` pair into the directory named by the `TIS_BENCH_JSON`
/// environment variable, creating the directory if needed (an empty value means the current
/// directory), and returns the paths written. This is the one writer behind every `BENCH_`,
/// `TRACE_` and `METRICS_` artifact. When the variable is unset, or there is nothing to
/// write, it touches no file or directory, so plain bench runs stay side-effect free.
///
/// # Errors
///
/// Propagates any I/O error from creating the directory or writing a file.
pub fn write_artifacts_if_requested(
    files: &[(String, &str)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let Some(dir) = std::env::var_os("TIS_BENCH_JSON").filter(|_| !files.is_empty()) else {
        return Ok(Vec::new());
    };
    let dir = if dir.is_empty() { std::path::PathBuf::from(".") } else { dir.into() };
    std::fs::create_dir_all(&dir)?;
    files
        .iter()
        .map(|(name, contents)| {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            Ok(path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_workloads::blackscholes::blackscholes;

    #[test]
    fn harness_runs_every_platform_on_a_small_workload() {
        let harness = Harness::with_cores(2);
        let w = WorkloadInstance {
            benchmark: "blackscholes",
            input: "tiny".into(),
            program: blackscholes(256, 32),
        };
        let result = evaluate_workload(&harness, &w, &Platform::ALL);
        assert_eq!(result.platforms.len(), 4);
        for p in Platform::ALL {
            assert!(result.speedup(p).unwrap() > 0.0, "{} produced no speedup value", p.label());
        }
        // The tightly-integrated runtimes must not lose to the software baseline here.
        assert!(result.ratio(Platform::Phentos, Platform::NanosSw).unwrap() > 1.0);
    }

    #[test]
    fn lifetime_overhead_ordering_matches_figure_7() {
        let harness = Harness::paper_prototype();
        let program = task_chain(60, 1);
        let phentos = measure_lifetime_overhead(&harness, Platform::Phentos, &program);
        let rv = measure_lifetime_overhead(&harness, Platform::NanosRv, &program);
        let axi = measure_lifetime_overhead(&harness, Platform::NanosAxi, &program);
        let sw = measure_lifetime_overhead(&harness, Platform::NanosSw, &program);
        assert!(phentos < rv && rv < axi && axi < sw, "ordering: {phentos:.0} {rv:.0} {axi:.0} {sw:.0}");
        assert!(phentos < 1_500.0, "Phentos overhead must be hundreds of cycles, got {phentos:.0}");
        assert!(sw > 15_000.0, "Nanos-SW overhead must be tens of thousands of cycles, got {sw:.0}");
    }

    #[test]
    fn figure7_reference_values_are_the_paper_numbers() {
        assert_eq!(figure7_paper_values(Platform::Phentos)[0], 185.0);
        assert_eq!(figure7_paper_values(Platform::NanosSw)[1], 99_008.0);
        assert_eq!(figure7_workloads(10).len(), 4);
    }

    #[test]
    fn figure7_labels_are_clean() {
        for (label, _) in figure7_workloads(5) {
            assert_eq!(label, label.trim(), "label {label:?} carries baked-in padding");
            assert!(!label.contains("  "), "label {label:?} carries internal padding");
        }
    }

    #[test]
    fn fig09_json_shape_and_content() {
        let results = vec![WorkloadResult {
            benchmark: "blackscholes",
            input: "64x\"quoted\"".into(),
            mean_task_cycles: 512.5,
            serial_cycles: 1_000_000,
            platforms: vec![
                PlatformResult { platform: Platform::NanosSw, cycles: 500_000, speedup_vs_serial: 2.0 },
                PlatformResult { platform: Platform::Phentos, cycles: 125_000, speedup_vs_serial: 8.0 },
            ],
        }];
        let rendered = fig09_json(&results).render();
        assert!(rendered.contains("\"figure\": \"fig09\""));
        assert!(rendered.contains("\"benchmark\": \"blackscholes\""));
        assert!(rendered.contains("\"64x\\\"quoted\\\"\""), "inputs are escaped");
        assert!(rendered.contains("\"nanos-sw\"") && rendered.contains("\"phentos\""));
        assert!(rendered.contains("\"serial_cycles\": 1000000"));
        assert!(
            rendered.contains("\"phentos_over_nanos_sw\": 4.0"),
            "geomean of a single ratio is the ratio:\n{rendered}"
        );
        assert!(
            rendered.contains("\"phentos_over_nanos_rv\": null"),
            "platforms that were not evaluated produce null geomeans"
        );
    }

    #[test]
    fn geomean_ratio_over_two_workloads() {
        let harness = Harness::with_cores(2);
        let results: Vec<WorkloadResult> = [blackscholes(256, 16), blackscholes(256, 64)]
            .into_iter()
            .enumerate()
            .map(|(i, program)| {
                evaluate_workload(
                    &harness,
                    &WorkloadInstance { benchmark: "blackscholes", input: format!("t{i}"), program },
                    &[Platform::Phentos, Platform::NanosSw],
                )
            })
            .collect();
        let g = geomean_ratio(&results, Platform::Phentos, Platform::NanosSw).unwrap();
        assert!(g > 1.0, "Phentos beats Nanos-SW in geomean, got {g:.2}");
    }
}
