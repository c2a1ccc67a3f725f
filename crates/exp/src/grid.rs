//! Declarative sweep definitions: a cartesian grid over the design space.
//!
//! A [`Sweep`] names the axes the related design-space-exploration literature varies — core
//! count, memory-system model, runtime/fabric platform, Picos tracker capacities, fault
//! schedule, multi-tenant scenario, workload — and expands them into a flat list of
//! [`CellSpec`]s in a fixed **grid order** (workloads ▸ cores ▸ memory models ▸ trackers ▸
//! faults ▸ tenants ▸ platforms). Grid order is part of the contract: the
//! runner may evaluate cells on any worker in any order, but reports are always assembled in
//! grid order, so sweep output is bit-identical regardless of parallelism.

use tis_analyze::AnalysisConfig;
use tis_bench::Platform;
use tis_obs::ObsConfig;
use tis_machine::{FaultConfig, MemoryModel};
use tis_picos::TrackerConfig;
use tis_sim::SimRng;
use tis_taskmodel::{ArrivalProcess, TaskProgram};
use tis_workloads::entry_for_cores;

use crate::synth::SynthSpec;

/// One workload axis entry.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// An entry of the paper's Figure 9 catalog, identified by benchmark name and input label,
    /// instantiated with the cell's **core-count context**
    /// ([`entry_for_cores`]), so bigger machines get proportionally more parallel work
    /// at unchanged task granularity.
    Catalog {
        /// Benchmark name (`"blackscholes"`, `"jacobi"`, `"sparselu"`, `"stream-barr"`,
        /// `"stream-deps"`).
        benchmark: &'static str,
        /// Input label as in Figure 9 (e.g. `"4K B64"`).
        input: &'static str,
    },
    /// A synthetic graph family (see [`crate::synth`]) whose task count is multiplied by
    /// `ceil(cores / 8)`, so the per-core work matches the 8-core baseline.
    Synth {
        /// The generator parameters.
        spec: SynthSpec,
    },
    /// A fixed, pre-built program replayed identically in every cell (no core-count context).
    Fixed {
        /// Row label.
        label: String,
        /// Family key for grouping in reports.
        family: String,
        /// The program.
        program: TaskProgram,
    },
}

impl WorkloadSpec {
    /// A catalog workload with core-count context.
    pub fn catalog(benchmark: &'static str, input: &'static str) -> Self {
        WorkloadSpec::Catalog { benchmark, input }
    }

    /// A synthetic workload whose task count scales with the cell's core count.
    pub fn synth(spec: SynthSpec) -> Self {
        WorkloadSpec::Synth { spec }
    }

    /// A fixed program.
    pub fn fixed(label: impl Into<String>, family: impl Into<String>, program: TaskProgram) -> Self {
        WorkloadSpec::Fixed { label: label.into(), family: family.into(), program }
    }

    /// Row label of this workload in reports. Labels are injective over distinct specs (the
    /// synthetic name carries every parameter), so rows never collide within one sweep.
    pub fn label(&self) -> String {
        match self {
            WorkloadSpec::Catalog { benchmark, input } => format!("{benchmark} {input}"),
            WorkloadSpec::Synth { spec } => spec.name(),
            WorkloadSpec::Fixed { label, .. } => label.clone(),
        }
    }

    /// Family key of this workload (benchmark name or synthetic family).
    pub fn family(&self) -> String {
        match self {
            WorkloadSpec::Catalog { benchmark, .. } => (*benchmark).to_string(),
            WorkloadSpec::Synth { spec } => spec.family.key().to_string(),
            WorkloadSpec::Fixed { family, .. } => family.clone(),
        }
    }

    /// Builds the cell's program. `rng` must be the cell's derived stream (a pure function of
    /// the sweep seed and the cell coordinates); catalog and fixed workloads consume no
    /// randomness. The runner calls this once per `(workload, cores)` grid point and shares
    /// the program across that point's platform/tracker cells.
    pub fn instantiate(&self, cores: usize, rng: &mut SimRng) -> TaskProgram {
        match self {
            WorkloadSpec::Catalog { benchmark, input } => entry_for_cores(benchmark, input, cores)
                .unwrap_or_else(|| panic!("no catalog entry named '{benchmark} {input}'"))
                .program,
            WorkloadSpec::Synth { spec } => {
                // Same scaling rule as the catalog's core-count context, so catalog and
                // synthetic workloads in one sweep grow in lockstep.
                let sized = SynthSpec {
                    tasks: spec.tasks * tis_workloads::catalog::parallel_scale_for_cores(cores),
                    ..*spec
                };
                sized.generate(rng)
            }
            WorkloadSpec::Fixed { program, .. } => program.clone(),
        }
    }

    /// Panics early (at sweep build time, not mid-run) on specs that could never instantiate.
    fn check(&self) {
        match self {
            WorkloadSpec::Catalog { benchmark, input } => {
                assert!(
                    entry_for_cores(benchmark, input, 1).is_some(),
                    "no catalog entry named '{benchmark} {input}'"
                );
            }
            WorkloadSpec::Synth { spec } => spec.assert_params(),
            WorkloadSpec::Fixed { program, .. } => {
                program.validate().expect("fixed sweep program must be valid");
                // Hand-supplied programs get the same preflight the generated
                // and catalog ones do: acyclic, no dangling references, every
                // conflicting pair ordered.
                if let Err(e) = tis_analyze::analyze_program(program) {
                    panic!("fixed sweep program '{}' failed preflight: {e}", program.name());
                }
            }
        }
    }
}

/// One entry of the multi-tenant axis: co-schedule `tenants` independent instances of the
/// cell's workload on one machine under a deterministic arrival process and tracker policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantScenario {
    /// Number of co-scheduled tenants (≥ 1). Tenant 0 — the *victim* — runs the cell's own
    /// instantiated program under [`TenantScenario::victim_arrival`], so a 1-tenant
    /// batch-at-zero scenario is the degenerate case — the runner's differential wall pins it
    /// cycle-identical to the plain single-program cell. Tenants `1..n` run independent
    /// instances drawn from the cell RNG's per-tenant substreams.
    pub tenants: usize,
    /// Arrival process of the victim (tenant 0). Batch-at-zero by default; a Poisson trickle
    /// here is what exposes the reservation value of partitioning — a trickling victim task
    /// can find the shared tracker flooded by a co-tenant burst, while a partitioned tracker
    /// always holds its share free.
    pub victim_arrival: ArrivalProcess,
    /// Arrival process of the co-tenants (tenants `1..n`).
    pub co_arrival: ArrivalProcess,
    /// When true the Picos task memory is hard-partitioned: every tenant's in-flight window
    /// is admission-capped at `tracker.per_tenant_entries(tenants)`, so a flooding co-tenant
    /// cannot evict a victim's share. When false all tenants contend for the full tracker
    /// (shared-with-tagging).
    pub partitioned: bool,
}

impl TenantScenario {
    /// All tenants released at cycle zero.
    pub fn batch(tenants: usize, partitioned: bool) -> Self {
        TenantScenario {
            tenants,
            victim_arrival: ArrivalProcess::BatchAtZero,
            co_arrival: ArrivalProcess::BatchAtZero,
            partitioned,
        }
    }

    /// Co-tenants arrive open-loop Poisson with the given mean interarrival gap.
    pub fn poisson(tenants: usize, mean_interarrival: u64, partitioned: bool) -> Self {
        TenantScenario {
            tenants,
            victim_arrival: ArrivalProcess::BatchAtZero,
            co_arrival: ArrivalProcess::Poisson { mean_interarrival },
            partitioned,
        }
    }

    /// Co-tenants arrive in deterministic on/off bursts: `burst` back-to-back spawns every
    /// `period` cycles — the antagonist of the `sweep_multi_tenant` p99-inflation gate.
    pub fn bursty(tenants: usize, burst: u64, period: u64, partitioned: bool) -> Self {
        TenantScenario {
            tenants,
            victim_arrival: ArrivalProcess::BatchAtZero,
            co_arrival: ArrivalProcess::Bursty { burst, period },
            partitioned,
        }
    }

    /// Replaces the victim's arrival process (tenant 0; batch-at-zero by default).
    pub fn with_victim_arrival(mut self, arrival: ArrivalProcess) -> Self {
        self.victim_arrival = arrival;
        self
    }

    /// Stable column label, e.g. `t4-burst64x200000-part` / `t1-batch-shared`. A non-batch
    /// victim appends its own arrival key (`…-vpoi2000`), so scenario keys stay unique per
    /// configuration.
    pub fn key(&self) -> String {
        let mut key = format!(
            "t{}-{}-{}",
            self.tenants,
            self.co_arrival.key(),
            if self.partitioned { "part" } else { "shared" }
        );
        if self.victim_arrival != ArrivalProcess::BatchAtZero {
            key.push_str(&format!("-v{}", self.victim_arrival.key()));
        }
        key
    }
}

/// Coordinates of one grid cell (indices into the sweep's axes, plus the resolved values).
#[derive(Debug, Clone, Copy, Default)]
pub struct CellSpec {
    /// Position in grid order; reports are assembled by this index.
    pub index: usize,
    /// Index into [`Sweep::workloads`].
    pub workload: usize,
    /// Index into [`Sweep::cores`].
    pub core_axis: usize,
    /// Resolved core count.
    pub cores: usize,
    /// Index into [`Sweep::memory_models`].
    pub memory: usize,
    /// Index into [`Sweep::trackers`].
    pub tracker: usize,
    /// Index into [`Sweep::faults`].
    pub fault: usize,
    /// Index into [`Sweep::tenants`].
    pub tenant: usize,
    /// Index into [`Sweep::platforms`].
    pub platform: usize,
}

/// Number of sweep axes.
const AXES: usize = 7;

impl CellSpec {
    /// The axis indices in grid order (the order of `Sweep::axes`).
    fn coordinates(&self) -> [usize; AXES] {
        let CellSpec { workload, core_axis, memory, tracker, fault, tenant, platform, .. } = *self;
        [workload, core_axis, memory, tracker, fault, tenant, platform]
    }
}

/// A declarative experiment: a cartesian grid over workloads, core counts, tracker capacities
/// and platforms, all run through `tis_machine::engine::run_machine` by the
/// [runner](crate::runner).
///
/// ```
/// use tis_exp::{Sweep, SynthFamily, SynthSpec, WorkloadSpec};
/// use tis_bench::Platform;
///
/// let sweep = Sweep::new("quick")
///     .over_cores([2, 4])
///     .over_platforms([Platform::Phentos])
///     .with_workload(WorkloadSpec::synth(SynthSpec::uniform(
///         SynthFamily::ForkJoin { width: 8 },
///         64,
///         4_000,
///     )));
/// let report = sweep.run();
/// assert_eq!(report.cells.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Experiment name (recorded in reports and the `BENCH_sweep_<name>.json` artifact).
    pub name: String,
    /// Root seed for synthetic workload generation.
    pub seed: u64,
    /// Core-count axis.
    pub cores: Vec<usize>,
    /// Memory-system model axis (the paper's snooping bus, the directory/NoC model, or both
    /// side by side — the `sweep_memory_scaling` experiment).
    pub memory_models: Vec<MemoryModel>,
    /// Platform axis.
    pub platforms: Vec<Platform>,
    /// Picos tracker-capacity axis (applied to both RoCC- and AXI-attached Picos).
    pub trackers: Vec<TrackerConfig>,
    /// Deterministic fault-schedule axis (NoC message faults plus tracker-entry losses; see
    /// `tis-fault`). The default single [`FaultConfig::none`] entry constructs no fault layer
    /// at all, so fault-free sweeps stay bit-identical to the pre-fault engine.
    pub faults: Vec<FaultConfig>,
    /// Multi-tenant scenario axis. The default single `None` entry runs every cell on the
    /// plain single-program path, so sweeps that never touch this axis stay byte-identical
    /// to the pre-tenant runner; a `Some` entry co-schedules N instances of the cell's
    /// workload through a [`tis_taskmodel::TenantSource`].
    pub tenants: Vec<Option<TenantScenario>>,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Which `tis-analyze` passes the runner performs: a preflight graph
    /// analysis of every instantiated program and/or a vector-clock race
    /// check of every cell's schedule. Off by default — analysis is an
    /// observer, so it never changes simulated cycles, and report artifacts
    /// gain analysis keys only when it engages.
    pub analysis: AnalysisConfig,
    /// Observability: when `Some`, observed cells run under a [`tis_obs::Recorder`] attached
    /// through the engine's observer chokepoint, and their [`SweepCell`](crate::SweepCell)s
    /// carry an obs summary plus rendered `TRACE_`/`METRICS_` documents. Off by default —
    /// observation never moves a simulated cycle, and report artifacts gain obs keys only for
    /// observed cells, so obs-off sweeps stay byte-identical.
    pub obs: Option<ObsConfig>,
    /// Per-cell opt-in: grid indices of the cells to observe when [`Sweep::obs`] engages.
    /// Empty means *every* cell; tracing one heavy sweep cell costs nothing for the others.
    pub observe_cells: Vec<usize>,
}

impl Sweep {
    /// Creates a sweep with the paper's defaults on every axis: 8 cores, the snooping-bus
    /// memory model, the Phentos platform, the prototype tracker capacities, no workloads.
    pub fn new(name: impl Into<String>) -> Self {
        Sweep {
            name: name.into(),
            seed: 0x5EED_5EED_5EED_5EED,
            cores: vec![8],
            memory_models: vec![MemoryModel::SnoopBus],
            platforms: vec![Platform::Phentos],
            trackers: vec![TrackerConfig::default()],
            faults: vec![FaultConfig::none()],
            tenants: vec![None],
            workloads: Vec::new(),
            analysis: AnalysisConfig::off(),
            obs: None,
            observe_cells: Vec::new(),
        }
    }

    /// Replaces the core-count axis.
    pub fn over_cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores = cores.into_iter().collect();
        self
    }

    /// Replaces the memory-model axis.
    pub fn over_memory_models(mut self, models: impl IntoIterator<Item = MemoryModel>) -> Self {
        self.memory_models = models.into_iter().collect();
        self
    }

    /// Replaces the platform axis.
    pub fn over_platforms(mut self, platforms: impl IntoIterator<Item = Platform>) -> Self {
        self.platforms = platforms.into_iter().collect();
        self
    }

    /// Replaces the tracker-capacity axis.
    pub fn over_trackers(mut self, trackers: impl IntoIterator<Item = TrackerConfig>) -> Self {
        self.trackers = trackers.into_iter().collect();
        self
    }

    /// Replaces the fault-schedule axis. Each engaging entry derives a per-cell fault seed from
    /// the sweep seed and the cell index (see [`crate::runner`]), so every cell replays its own
    /// fault schedule exactly at any worker count.
    pub fn over_faults(mut self, faults: impl IntoIterator<Item = FaultConfig>) -> Self {
        self.faults = faults.into_iter().collect();
        self
    }

    /// Replaces the multi-tenant scenario axis. `None` entries run the plain single-program
    /// path; `Some` entries co-schedule. Mixing both in one sweep puts single-tenant control
    /// columns next to co-scheduled ones (how the `sweep_multi_tenant` bench pins its
    /// 1-tenant column cycle-identical to the control).
    pub fn over_tenants(mut self, tenants: impl IntoIterator<Item = Option<TenantScenario>>) -> Self {
        self.tenants = tenants.into_iter().collect();
        self
    }

    /// Appends a workload to the workload axis.
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Sets the synthetic-generation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables `tis-analyze` passes for this sweep (see [`Sweep::analysis`]).
    pub fn with_analysis(mut self, analysis: AnalysisConfig) -> Self {
        self.analysis = analysis;
        self
    }

    /// Attaches observability to this sweep (see [`Sweep::obs`]): every cell — or the subset
    /// opted in via [`Sweep::observe_only`] — runs under a recorder and reports trace,
    /// metrics-timeline, and critical-path data alongside its measurements.
    pub fn with_obs(mut self, config: ObsConfig) -> Self {
        self.obs = Some(config);
        self
    }

    /// Restricts observation to the given grid cell indices (no effect unless
    /// [`Sweep::with_obs`] engages).
    pub fn observe_only(mut self, cells: impl IntoIterator<Item = usize>) -> Self {
        self.observe_cells = cells.into_iter().collect();
        self
    }

    /// The observer config cell `index` runs under, or `None` for an unobserved cell.
    pub fn cell_obs(&self, index: usize) -> Option<ObsConfig> {
        self.obs.filter(|_| self.observe_cells.is_empty() || self.observe_cells.contains(&index))
    }

    /// The axes in grid order, slowest-varying first, each as what an empty axis lacks and the
    /// axis length. This list is the only place the set and order of the axes is written down:
    /// [`Sweep::cells`] decodes a grid index over it and [`Sweep::index_of`] encodes one.
    fn axes(&self) -> [(&'static str, usize); AXES] {
        [
            ("no workloads", self.workloads.len()),
            ("an empty core axis", self.cores.len()),
            ("an empty memory-model axis", self.memory_models.len()),
            ("an empty tracker axis", self.trackers.len()),
            ("an empty fault axis", self.faults.len()),
            ("an empty tenant axis", self.tenants.len()),
            ("an empty platform axis", self.platforms.len()),
        ]
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.axes().iter().map(|&(_, len)| len).product()
    }

    /// Expands the grid into cells, in grid order (workloads ▸ cores ▸ memory models ▸
    /// trackers ▸ faults ▸ tenants ▸ platforms): cell `i` sits at the coordinates grid index
    /// `i` decodes to, platforms varying fastest.
    pub fn cells(&self) -> Vec<CellSpec> {
        let axes = self.axes();
        (0..self.cell_count())
            .map(|index| {
                let mut coordinates = [0; AXES];
                let mut rest = index;
                for (c, &(_, len)) in coordinates.iter_mut().zip(&axes).rev() {
                    *c = rest % len;
                    rest /= len;
                }
                let [workload, core_axis, memory, tracker, fault, tenant, platform] = coordinates;
                CellSpec {
                    index,
                    workload,
                    core_axis,
                    cores: self.cores[core_axis],
                    memory,
                    tracker,
                    fault,
                    tenant,
                    platform,
                }
            })
            .collect()
    }

    /// The grid index of the cell at `cell`'s axis coordinates: the inverse of
    /// [`Sweep::cells`], so `sweep.index_of(&sweep.cells()[i]) == i`. Only the axis indices are
    /// read (`index` and the resolved `cores` are ignored), so a lookup names the coordinates
    /// it fixes and leaves the rest at the first entry:
    /// `sweep.index_of(&CellSpec { core_axis: 2, ..CellSpec::default() })`.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is outside its axis.
    pub fn index_of(&self, cell: &CellSpec) -> usize {
        cell.coordinates().into_iter().zip(self.axes()).fold(0, |index, (c, (_, len))| {
            assert!(c < len, "sweep '{}': coordinate {c} is outside an axis of {len}", self.name);
            index * len + c
        })
    }

    /// The RNG stream for a cell's workload instantiation. Depends only on the sweep seed and
    /// the cell's `(workload, cores)` coordinates — *not* on memory model, tracker or platform
    /// — so every memory/platform/tracker combination of one workload×cores point schedules
    /// the **same** program, and parallel evaluation order cannot perturb generation.
    pub fn cell_rng(&self, workload: usize, cores: usize) -> SimRng {
        SimRng::new(self.seed).stream("sweep-workload", workload as u64).stream("cores", cores as u64)
    }

    /// Validates the whole sweep definition.
    ///
    /// # Panics
    ///
    /// Panics on an empty axis, a zero core count, degenerate tracker capacities, or a
    /// workload spec that could never instantiate.
    pub fn check(&self) {
        for (missing, len) in self.axes() {
            assert!(len > 0, "sweep '{}' has {missing}", self.name);
        }
        for scenario in self.tenants.iter().flatten() {
            assert!(
                scenario.tenants >= 1,
                "sweep '{}': a tenant scenario needs at least one tenant",
                self.name
            );
        }
        for &c in &self.cores {
            assert!(c > 0, "sweep '{}': zero-core machines cannot run", self.name);
        }
        for &i in &self.observe_cells {
            assert!(
                i < self.cell_count(),
                "sweep '{}': observed cell {i} is out of range ({} cells)",
                self.name,
                self.cell_count()
            );
        }
        for t in &self.trackers {
            t.validate();
        }
        for f in &self.faults {
            f.validate();
        }
        for w in &self.workloads {
            w.check();
        }
    }

    /// Runs the sweep sequentially. See [`crate::runner::run_sweep`].
    pub fn run(&self) -> crate::report::SweepReport {
        crate::runner::run_sweep(self)
    }

    /// Runs the sweep on `workers` host threads. See [`crate::runner::run_sweep_with_workers`].
    pub fn run_parallel(&self, workers: usize) -> crate::report::SweepReport {
        crate::runner::run_sweep_with_workers(self, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthFamily;

    #[test]
    fn cells_enumerate_in_grid_order() {
        let sweep = Sweep::new("order")
            .over_cores([2, 4])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(64, 256)])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(SynthFamily::Chain, 10, 100)))
            .with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"));
        assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2);
        let cells = sweep.cells();
        assert_eq!(cells.len(), 16);
        // Platforms vary fastest, then trackers, then cores, then workloads.
        assert_eq!((cells[0].workload, cells[0].cores, cells[0].tracker, cells[0].platform), (0, 2, 0, 0));
        assert_eq!((cells[1].workload, cells[1].cores, cells[1].tracker, cells[1].platform), (0, 2, 0, 1));
        assert_eq!((cells[2].workload, cells[2].cores, cells[2].tracker, cells[2].platform), (0, 2, 1, 0));
        assert_eq!((cells[4].workload, cells[4].cores, cells[4].tracker, cells[4].platform), (0, 4, 0, 0));
        assert_eq!((cells[8].workload, cells[8].cores, cells[8].tracker, cells[8].platform), (1, 2, 0, 0));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.memory, 0, "a single-entry memory axis stays at index 0");
        }
        sweep.check();
    }

    #[test]
    fn memory_axis_sits_between_cores_and_trackers() {
        let sweep = Sweep::new("mem-order")
            .over_cores([2, 4])
            .over_memory_models([MemoryModel::SnoopBus, MemoryModel::directory_mesh()])
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(64, 256)])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(SynthFamily::Chain, 10, 100)));
        assert_eq!(sweep.cell_count(), 2 * 2 * 2 * 2);
        let cells = sweep.cells();
        // Memory varies slower than trackers/platforms, faster than cores.
        assert_eq!((cells[0].memory, cells[0].tracker, cells[0].platform), (0, 0, 0));
        assert_eq!((cells[3].memory, cells[3].tracker, cells[3].platform), (0, 1, 1));
        assert_eq!((cells[4].memory, cells[4].tracker, cells[4].platform), (1, 0, 0));
        assert_eq!(cells[7].cores, 2);
        assert_eq!((cells[8].cores, cells[8].memory), (4, 0));
        sweep.check();
    }

    #[test]
    fn fault_axis_sits_between_trackers_and_platforms() {
        let sweep = Sweep::new("fault-order")
            .over_trackers([TrackerConfig::default(), TrackerConfig::new(64, 256)])
            .over_faults([FaultConfig::none(), FaultConfig::recoverable()])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(SynthFamily::Chain, 10, 100)));
        assert_eq!(sweep.cell_count(), 2 * 2 * 2);
        let cells = sweep.cells();
        assert_eq!((cells[0].tracker, cells[0].fault, cells[0].platform), (0, 0, 0));
        assert_eq!((cells[1].tracker, cells[1].fault, cells[1].platform), (0, 0, 1));
        assert_eq!((cells[2].tracker, cells[2].fault, cells[2].platform), (0, 1, 0));
        assert_eq!((cells[4].tracker, cells[4].fault, cells[4].platform), (1, 0, 0));
        sweep.check();
    }

    #[test]
    fn tenant_axis_sits_between_faults_and_platforms() {
        let sweep = Sweep::new("tenant-order")
            .over_faults([FaultConfig::none(), FaultConfig::recoverable()])
            .over_tenants([None, Some(TenantScenario::batch(2, false))])
            .over_platforms([Platform::Phentos, Platform::NanosSw])
            .with_workload(WorkloadSpec::synth(SynthSpec::uniform(SynthFamily::Chain, 10, 100)));
        assert_eq!(sweep.cell_count(), 2 * 2 * 2);
        let cells = sweep.cells();
        assert_eq!((cells[0].fault, cells[0].tenant, cells[0].platform), (0, 0, 0));
        assert_eq!((cells[1].fault, cells[1].tenant, cells[1].platform), (0, 0, 1));
        assert_eq!((cells[2].fault, cells[2].tenant, cells[2].platform), (0, 1, 0));
        assert_eq!((cells[4].fault, cells[4].tenant, cells[4].platform), (1, 0, 0));
        sweep.check();
    }

    proptest::proptest! {
        /// Decoding and encoding grid indices are inverse on every axis shape, cells come out
        /// with platforms varying fastest and workloads slowest, and the count matches.
        #[test]
        fn grid_indices_round_trip(lens in proptest::collection::vec(1usize..=3, 7)) {
            let sweep = Sweep {
                cores: [1, 2, 3][..lens[1]].to_vec(),
                memory_models: [
                    MemoryModel::SnoopBus,
                    MemoryModel::directory_mesh(),
                    MemoryModel::directory_mesh_contended(),
                ][..lens[2]]
                    .to_vec(),
                trackers: vec![TrackerConfig::default(); lens[3]],
                faults: vec![FaultConfig::none(); lens[4]],
                tenants: vec![None; lens[5]],
                platforms: [Platform::Phentos, Platform::NanosSw, Platform::NanosRv][..lens[6]]
                    .to_vec(),
                ..Sweep::new("round-trip")
            };
            let sweep = (0..lens[0]).fold(sweep, |s, _| {
                s.with_workload(WorkloadSpec::synth(SynthSpec::uniform(SynthFamily::Chain, 4, 100)))
            });
            let cells = sweep.cells();
            proptest::prop_assert_eq!(sweep.cell_count(), cells.len());
            proptest::prop_assert_eq!(cells.len(), lens.iter().product::<usize>());
            for (i, cell) in cells.iter().enumerate() {
                proptest::prop_assert_eq!(cell.index, i);
                proptest::prop_assert_eq!(sweep.index_of(cell), i);
                proptest::prop_assert_eq!(cell.cores, sweep.cores[cell.core_axis]);
            }
            // Strictly increasing coordinates, workload first and platform last, with the count
            // above, is exactly the enumeration with platforms fastest and workloads slowest.
            for pair in cells.windows(2) {
                proptest::prop_assert!(pair[0].coordinates() < pair[1].coordinates());
            }
            proptest::prop_assert_eq!(cells[0].coordinates(), [0; AXES]);
            if lens[6] > 1 {
                proptest::prop_assert_eq!(cells[1].platform, 1);
            }
            if lens[0] > 1 {
                proptest::prop_assert_eq!(cells[cells.len() / lens[0]].workload, 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside an axis")]
    fn out_of_range_coordinates_are_rejected() {
        let sweep =
            Sweep::new("range").with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"));
        sweep.index_of(&CellSpec { platform: 1, ..CellSpec::default() });
    }

    #[test]
    fn tenant_scenario_keys_are_stable() {
        assert_eq!(TenantScenario::batch(1, false).key(), "t1-batch-shared");
        assert_eq!(TenantScenario::poisson(4, 200, true).key(), "t4-poi200-part");
        assert_eq!(TenantScenario::bursty(2, 64, 200_000, true).key(), "t2-burst64x200000-part");
        assert_eq!(
            TenantScenario::bursty(2, 64, 200_000, true)
                .with_victim_arrival(ArrivalProcess::Poisson { mean_interarrival: 2_000 })
                .key(),
            "t2-burst64x200000-part-vpoi2000"
        );
    }

    #[test]
    #[should_panic(expected = "at least one tenant")]
    fn zero_tenant_scenarios_fail_at_check_time() {
        Sweep::new("bad-tenants")
            .over_tenants([Some(TenantScenario::batch(0, false))])
            .with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"))
            .check();
    }

    #[test]
    #[should_panic(expected = "detection timeout")]
    fn degenerate_fault_axis_entries_fail_at_check_time() {
        let bad = FaultConfig { retry_timeout: 0, ..FaultConfig::recoverable() };
        Sweep::new("bad-fault")
            .over_faults([bad])
            .with_workload(WorkloadSpec::catalog("blackscholes", "4K B64"))
            .check();
    }

    #[test]
    fn cell_rng_ignores_platform_and_tracker_axes() {
        let sweep = Sweep::new("rng");
        let mut a = sweep.cell_rng(0, 4);
        let mut b = sweep.cell_rng(0, 4);
        let mut c = sweep.cell_rng(1, 4);
        let mut d = sweep.cell_rng(0, 8);
        let first = a.next_u64();
        assert_eq!(first, b.next_u64());
        assert_ne!(first, c.next_u64());
        assert_ne!(first, d.next_u64());
    }

    #[test]
    fn workload_spec_labels_and_instantiation() {
        let cat = WorkloadSpec::catalog("blackscholes", "4K B64");
        assert_eq!(cat.label(), "blackscholes 4K B64");
        assert_eq!(cat.family(), "blackscholes");
        let mut rng = SimRng::new(1);
        let p8 = cat.instantiate(8, &mut rng);
        let p64 = cat.instantiate(64, &mut rng);
        assert_eq!(p8.task_count() * 8, p64.task_count(), "catalog scales with cores");

        let spec = SynthSpec::uniform(SynthFamily::ForkJoin { width: 4 }, 16, 1_000);
        let synth = WorkloadSpec::synth(spec);
        assert_eq!(synth.family(), "synth-forkjoin");
        assert_eq!(synth.instantiate(64, &mut SimRng::new(2)).task_count(), 16 * 8);

        let fixed = WorkloadSpec::fixed("probe", "micro", p8.clone());
        assert_eq!(fixed.label(), "probe");
        assert_eq!(fixed.family(), "micro");
        assert_eq!(fixed.instantiate(64, &mut rng), p8);
    }

    #[test]
    #[should_panic(expected = "no catalog entry")]
    fn unknown_catalog_entry_fails_at_check_time() {
        Sweep::new("bad").with_workload(WorkloadSpec::catalog("blackscholes", "9K B7")).check();
    }

    #[test]
    #[should_panic(expected = "no workloads")]
    fn empty_sweep_is_rejected() {
        Sweep::new("empty").check();
    }
}
