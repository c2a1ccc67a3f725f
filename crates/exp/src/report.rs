//! Structured sweep results and their machine-readable serialisation.

use std::process::ExitCode;

use tis_analyze::AnalysisConfig;
use tis_bench::{write_artifacts_if_requested, Platform};
use tis_machine::{EngineStats, FaultConfig, MemoryModel};
use tis_obs::{CriticalPath, ObsConfig};
use tis_picos::TrackerConfig;
use tis_sim::Json;
use tis_taskmodel::TenantReport;

/// Per-tenant serving measurements of one co-scheduled cell.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantCellData {
    /// The scenario key the cell ran under (e.g. `t4-burst64x200000-part`).
    pub scenario: String,
    /// Per-tenant serving reports, in tenant order (tenant 0 is the cell's own shared
    /// program; co-tenants follow).
    pub reports: Vec<TenantReport>,
    /// Jain fairness index over the tenants' throughputs (1.0 = perfectly even service).
    pub jain: f64,
}

/// The measurements of one grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Workload row label (catalog label or synthetic spec name).
    pub workload: String,
    /// Workload family key (benchmark name or synthetic family).
    pub family: String,
    /// Core count of the simulated machine.
    pub cores: usize,
    /// Memory-system model the cell was simulated on.
    pub memory: MemoryModel,
    /// Platform that ran the cell.
    pub platform: Platform,
    /// Picos tracker capacities in effect.
    pub tracker: TrackerConfig,
    /// Fault schedule the cell ran under (with its per-cell derived seed resolved, so the cell
    /// is replayable from this value alone). [`FaultConfig::none`] for fault-free cells.
    pub fault: FaultConfig,
    /// Messages the fault layer dropped (and the retry protocol recovered).
    pub fault_drops: u64,
    /// Messages the fault layer delayed in flight.
    pub fault_delays: u64,
    /// Retransmissions issued by the timeout/retry protocol (message legs plus tracker
    /// resubmits).
    pub fault_retries: u64,
    /// Tracker entries transiently lost and resubmitted.
    pub fault_tracker_losses: u64,
    /// Total cycles spent detecting faults and recovering (timeouts, backoff, resubmits).
    pub fault_recovery_cycles: u64,
    /// Number of tasks in the instantiated program.
    pub tasks: usize,
    /// Mean serial task duration in cycles (the paper's granularity axis).
    pub mean_task_cycles: f64,
    /// Serial baseline of the instantiated program, in cycles.
    pub serial_cycles: u64,
    /// Measured makespan, in cycles.
    pub total_cycles: u64,
    /// Measured speedup over the serial baseline.
    pub speedup: f64,
    /// Single-core lifetime overhead of the platform/tracker pair (Task-Chain, 1 dep) — the
    /// Figure 7 metric, reported for context.
    pub lifetime_overhead: f64,
    /// Measured maximum task throughput of the scheduling system at this cell's core count,
    /// in tasks per cycle (empty-payload Task-Free probe).
    pub mtt_tasks_per_cycle: f64,
    /// The MTT-derived maximum speedup `min(cores, mean_task_cycles × mtt_tasks_per_cycle)`
    /// for this cell's core count.
    pub mtt_bound: f64,
    /// Number of coherent memory accesses the runtimes issued during the cell's run.
    pub mem_accesses: u64,
    /// Total stall cycles those accesses charged — the metric `sweep_memory_scaling` compares
    /// between the snooping-bus and directory/NoC models.
    pub mem_stall_cycles: u64,
    /// Mean stall cycles per access (`mem_stall_cycles / mem_accesses`).
    pub mean_mem_latency: f64,
    /// Total cycles NoC messages spent queueing for busy links — non-zero only on a contended
    /// directory mesh; the metric `sweep_noc_contention` tracks.
    pub noc_link_wait_cycles: u64,
    /// Maximum observed occupancy of one directed mesh link, in flits (zero off the contended
    /// mesh).
    pub max_link_occupancy: u64,
    /// Analysis passes the cell ran under. [`AnalysisConfig::off`] for unanalysed cells; the
    /// passes are pure observers, so the simulated cycle counts are identical either way.
    pub analysis: AnalysisConfig,
    /// Conflicting frontier pairs the race detector proved happens-before-ordered in this
    /// cell's trace (zero when race detection was off).
    pub race_pairs_checked: u64,
    /// The engine's work counters for the cell's run: host work, not a simulated result, so
    /// they stay out of the rendered JSON.
    pub engine: EngineStats,
    /// Per-tenant serving metrics for co-scheduled cells (`None` on the single-program path,
    /// so legacy sweeps — and every checked-in baseline — render byte-identical JSON). Boxed
    /// so the common single-tenant cell stays small.
    pub tenant: Option<Box<TenantCellData>>,
    /// What the cell's observer collected, for observed cells only (`None` otherwise — and
    /// observation is a pure tap, so every other field is identical either way). Boxed so the
    /// common unobserved cell stays small.
    pub obs: Option<Box<ObsCellData>>,
}

/// Everything one observed cell recorded: counts of the event streams, the machine-checked
/// critical-path decomposition, and the rendered Perfetto/metrics documents that
/// [`SweepReport::obs_artifacts`] names as `TRACE_`/`METRICS_` files.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsCellData {
    /// The observer configuration the cell ran under.
    pub config: ObsConfig,
    /// Task-lifecycle events observed.
    pub task_events: u64,
    /// Gauge-timeline samples taken.
    pub samples: u64,
    /// The critical-path decomposition of the cell's makespan (segment totals sum to the
    /// makespan exactly).
    pub critical: CriticalPath,
    /// Per-tenant critical-path decompositions, in tenant order — populated only for
    /// co-scheduled cells (empty on the single-program path). Each decomposition sums to
    /// that tenant's own makespan.
    pub tenant_critical: Vec<CriticalPath>,
    /// The rendered Chrome trace-event / Perfetto document.
    pub trace_json: String,
    /// The rendered metrics document (counters, histograms, gauge timeline).
    pub metrics_json: String,
}

impl SweepCell {
    /// Whether the measured speedup respects the MTT-derived bound. The bound uses the
    /// throughput measured at the cell's own core count, so no parallelisation slack is
    /// needed; a violation is a cost-model inconsistency.
    pub fn within_bound(&self) -> bool {
        self.speedup <= self.mtt_bound
    }

    /// The cell's coordinates as one line of text (see [`SweepReport::finish`]).
    pub fn label(&self) -> String {
        cell_label(
            &self.workload,
            self.tenant.as_ref().map(|t| t.scenario.as_str()),
            self.cores,
            self.memory,
            self.platform,
            self.tracker,
            &self.fault,
        )
    }
}

/// The complete result of one sweep, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep's name.
    pub name: String,
    /// The seed synthetic workloads were generated from.
    pub seed: u64,
    /// One entry per grid cell, in grid order (independent of how the sweep was scheduled
    /// across workers).
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Cells whose measured speedup exceeds the MTT-derived bound — each one is either a
    /// model bug or a discovery.
    pub fn bound_violations(&self) -> Vec<&SweepCell> {
        self.cells.iter().filter(|c| !c.within_bound()).collect()
    }

    /// Machine-readable snapshot, written as [`Self::artifact_filename`] by
    /// [`finish`](Self::finish).
    pub fn to_json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let mut pairs = vec![
                    ("workload", Json::Str(c.workload.clone())),
                    ("family", Json::Str(c.family.clone())),
                    ("cores", Json::UInt(c.cores as u64)),
                    ("memory", Json::Str(c.memory.key().to_string())),
                    // The NoC-contention coordinate ("none" / "ideal" / the link-parameter
                    // key): part of the cell's identity, so `bench-diff` keeps rows
                    // label-stable when a sweep varies the contention sub-axis.
                    ("noc", Json::Str(c.memory.noc_key())),
                    ("platform", Json::Str(c.platform.key().to_string())),
                    (
                        "tracker",
                        Json::obj([
                            ("task_memory_entries", Json::UInt(c.tracker.task_memory_entries as u64)),
                            (
                                "address_table_entries",
                                Json::UInt(c.tracker.address_table_entries as u64),
                            ),
                        ]),
                    ),
                    ("tasks", Json::UInt(c.tasks as u64)),
                    ("mean_task_cycles", Json::Num(c.mean_task_cycles)),
                    ("serial_cycles", Json::UInt(c.serial_cycles)),
                    ("cycles", Json::UInt(c.total_cycles)),
                    ("speedup_over_serial", Json::Num(c.speedup)),
                    ("lifetime_overhead_cycles", Json::Num(c.lifetime_overhead)),
                    ("mtt_tasks_per_cycle", Json::Num(c.mtt_tasks_per_cycle)),
                    ("mtt_speedup_bound", Json::Num(c.mtt_bound)),
                    ("mem_accesses", Json::UInt(c.mem_accesses)),
                    ("mem_stall_cycles", Json::UInt(c.mem_stall_cycles)),
                    ("mean_mem_latency", Json::Num(c.mean_mem_latency)),
                    ("noc_link_wait_cycles", Json::UInt(c.noc_link_wait_cycles)),
                    ("max_link_occupancy", Json::UInt(c.max_link_occupancy)),
                ];
                // Fault, analysis, tenant and obs keys appear only for cells that engage the
                // feature, so artifacts of sweeps that never touch it (and every checked-in
                // baseline) stay byte-identical.
                if c.fault.engages() {
                    pairs.extend([
                        ("fault", Json::Str(c.fault.key())),
                        ("fault_drops", Json::UInt(c.fault_drops)),
                        ("fault_delays", Json::UInt(c.fault_delays)),
                        ("fault_retries", Json::UInt(c.fault_retries)),
                        ("fault_tracker_losses", Json::UInt(c.fault_tracker_losses)),
                        ("fault_recovery_cycles", Json::UInt(c.fault_recovery_cycles)),
                    ]);
                }
                if c.analysis.engages() {
                    pairs.extend([
                        ("analysis", Json::Str(c.analysis.key().to_string())),
                        ("race_pairs_checked", Json::UInt(c.race_pairs_checked)),
                    ]);
                }
                if let Some(tenant) = &c.tenant {
                    let reports = tenant
                        .reports
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("tasks", Json::UInt(r.tasks)),
                                ("first_arrival", Json::UInt(r.first_arrival)),
                                ("last_retire", Json::UInt(r.last_retire)),
                                ("makespan", Json::UInt(r.makespan)),
                                ("mean_turnaround", Json::Num(r.mean_turnaround())),
                                ("p50_turnaround", Json::UInt(r.p50)),
                                ("p90_turnaround", Json::UInt(r.p90)),
                                ("p99_turnaround", Json::UInt(r.p99)),
                                ("throughput_tasks_per_cycle", Json::Num(r.throughput())),
                            ])
                        })
                        .collect();
                    pairs.extend([
                        ("tenants", Json::Str(tenant.scenario.clone())),
                        ("tenant_jain_fairness", Json::Num(tenant.jain)),
                        ("tenant_reports", Json::Arr(reports)),
                    ]);
                }
                // The full trace/metrics documents are separate TRACE_/METRICS_ artifacts; the
                // sweep report inlines only the critical-path summary and stream counts.
                if let Some(obs) = &c.obs {
                    pairs.extend([
                        ("obs_sample_interval", Json::UInt(obs.config.sample_interval)),
                        ("obs_task_events", Json::UInt(obs.task_events)),
                        ("obs_samples", Json::UInt(obs.samples)),
                        ("critical_path", critical_path_json(&obs.critical)),
                    ]);
                    // Per-tenant decompositions ride along only for observed co-scheduled
                    // cells, keeping every single-tenant observed artifact byte-identical.
                    if !obs.tenant_critical.is_empty() {
                        let per_tenant =
                            obs.tenant_critical.iter().map(critical_path_json).collect();
                        pairs.push(("tenant_critical_paths", Json::Arr(per_tenant)));
                    }
                }
                Json::obj(pairs)
            })
            .collect();
        Json::obj([
            ("experiment", Json::Str(self.name.clone())),
            ("seed", Json::UInt(self.seed)),
            ("cells", Json::Arr(cells)),
        ])
    }

    /// Renders an aligned text table of all cells, one row per cell in grid order. The `noc`
    /// column carries the contention coordinate, so two contended cells at different link
    /// parameter points stay distinguishable in text output, not just in JSON.
    pub fn render_table(&self) -> String {
        let label_width =
            self.cells.iter().map(|c| c.workload.len()).max().unwrap_or(8).max("workload".len());
        let noc_width = self
            .cells
            .iter()
            .map(|c| c.memory.noc_key().len())
            .max()
            .unwrap_or(3)
            .max("noc".len());
        // An optional column appears only when some cell engages its feature, so tables of
        // sweeps that never touch it render exactly as before it existed. Its width covers the
        // header and the engaged cells' values.
        let columns: Vec<_> = OPTIONAL_COLUMNS
            .iter()
            .filter_map(|&(header, value)| {
                let widest = self
                    .cells
                    .iter()
                    .map(value)
                    .filter(|(engaged, _)| *engaged)
                    .map(|(_, shown)| shown.len())
                    .max()?;
                Some((header, widest.max(header.len()), value))
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<label_width$} | {:>5} | {:>10} | {:>noc_width$} | {:>9} | {:>13} | {:>6} | {:>8} | {:>9} | {:>8} | {:>6}",
            "workload", "cores", "memory", "noc", "platform", "tracker", "tasks", "speedup", "MTT bound", "mem lat", "within"
        ));
        for (header, width, _) in &columns {
            out.push_str(&format!(" | {header:>width$}"));
        }
        out.push('\n');
        let optional_width: usize = columns.iter().map(|(_, width, _)| width + 3).sum();
        out.push_str(&"-".repeat(label_width + noc_width + 103 + optional_width));
        out.push('\n');
        for c in &self.cells {
            out.push_str(&format!(
                "{:<label_width$} | {:>5} | {:>10} | {:>noc_width$} | {:>9} | {:>13} | {:>6} | {:>7.2}x | {:>8.2}x | {:>8.2} | {:>6}",
                c.workload,
                c.cores,
                c.memory.key(),
                c.memory.noc_key(),
                c.platform.key(),
                c.tracker.label(),
                c.tasks,
                c.speedup,
                c.mtt_bound,
                c.mean_mem_latency,
                if c.within_bound() { "yes" } else { "NO" },
            ));
            for (_, width, value) in &columns {
                out.push_str(&format!(" | {:>width$}", value(c).1));
            }
            out.push('\n');
        }
        out
    }

    /// The artifact filename this report writes: `BENCH_sweep_<name>.json`, with the sweep name
    /// sanitised to `[A-Za-z0-9_-]`. Per-sweep names let CI collect several sweeps' artifacts
    /// into one directory without collisions.
    pub fn artifact_filename(&self) -> String {
        format!("BENCH_sweep_{}.json", self.sanitised_name())
    }

    /// The sweep name restricted to `[A-Za-z0-9_-]`, shared by every artifact filename.
    fn sanitised_name(&self) -> String {
        self.name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect()
    }

    /// Every observed cell's trace and metrics documents, named `TRACE_<sweep>-<cell>.json` /
    /// `METRICS_<sweep>-<cell>.json` after the cell's grid index, ready for
    /// [`tis_bench::write_artifacts_if_requested`]. Empty for an unobserved sweep.
    pub fn obs_artifacts(&self) -> Vec<(String, &str)> {
        let name = self.sanitised_name();
        let mut files = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let Some(obs) = &cell.obs else { continue };
            files.push((format!("TRACE_{name}-{i:03}.json"), obs.trace_json.as_str()));
            files.push((format!("METRICS_{name}-{i:03}.json"), obs.metrics_json.as_str()));
        }
        files
    }

    /// Ends a sweep bench: names every cell over its MTT bound, prints the summary line with
    /// the bench's own gate `failures`, writes [`Self::artifact_filename`] plus the observed
    /// cells' `TRACE_`/`METRICS_` documents when `TIS_BENCH_JSON` asks for them, and returns
    /// the bench's exit code: failure on a bound violation, a failed gate or a write error.
    pub fn finish(&self, failures: usize) -> ExitCode {
        let violations = self.bound_violations();
        for c in &violations {
            eprintln!(
                "BOUND EXCEEDED: {}: measured {:.2}x > bound {:.2}x",
                c.label(),
                c.speedup,
                c.mtt_bound
            );
        }
        println!(
            "{} of {} cells exceed their MTT bound, {failures} gate failure(s)",
            violations.len(),
            self.cells.len()
        );
        let json = self.to_json().render();
        let mut files = vec![(self.artifact_filename(), json.as_str())];
        files.extend(self.obs_artifacts());
        match write_artifacts_if_requested(&files) {
            Ok(paths) => {
                for path in paths {
                    println!("wrote {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("failed to write the sweep artifacts: {e}");
                return ExitCode::FAILURE;
            }
        }
        if violations.is_empty() && failures == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// The table's optional columns: header, and per cell whether it engages the column's feature
/// plus the value its row shows (rows that do not engage show the feature's off value).
type OptionalColumn = (&'static str, fn(&SweepCell) -> (bool, String));

const OPTIONAL_COLUMNS: [OptionalColumn; 3] = [
    ("fault", |c| (c.fault.engages(), c.fault.key())),
    ("analysis", |c| (c.analysis.engages(), c.analysis.key().to_string())),
    ("tenants", |c| match &c.tenant {
        Some(t) => (true, t.scenario.clone()),
        None => (false, "single".to_string()),
    }),
];

/// A critical-path decomposition as a JSON object.
fn critical_path_json(cp: &CriticalPath) -> Json {
    Json::obj([
        ("task_body", Json::UInt(cp.task_body)),
        ("memory_stall", Json::UInt(cp.memory_stall)),
        ("dispatch_wait", Json::UInt(cp.dispatch_wait)),
        ("scheduler", Json::UInt(cp.scheduler)),
        ("makespan", Json::UInt(cp.makespan)),
    ])
}

/// Names a cell by its coordinates:
/// `<workload>[ (<tenants>)] on <n> cores, <memory>, <platform>, <tracker>, fault <fault>`.
/// Bench gates ([`SweepReport::finish`]) and the runner's failure messages both name cells
/// this way.
pub(crate) fn cell_label(
    workload: &str,
    tenants: Option<&str>,
    cores: usize,
    memory: MemoryModel,
    platform: Platform,
    tracker: TrackerConfig,
    fault: &FaultConfig,
) -> String {
    let tenants = tenants.map(|t| format!(" ({t})")).unwrap_or_default();
    format!(
        "{workload}{tenants} on {cores} cores, {}, {}, {}, fault {}",
        memory.label(),
        platform.label(),
        tracker.label(),
        fault.key()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(speedup: f64, bound: f64) -> SweepCell {
        SweepCell {
            workload: "synth-chain x10 t100".into(),
            family: "synth-chain".into(),
            cores: 4,
            memory: MemoryModel::SnoopBus,
            platform: Platform::Phentos,
            tracker: TrackerConfig::default(),
            tasks: 10,
            mean_task_cycles: 100.0,
            serial_cycles: 1_000,
            total_cycles: 500,
            speedup,
            lifetime_overhead: 162.0,
            mtt_tasks_per_cycle: 1.0 / 162.0,
            mtt_bound: bound,
            mem_accesses: 120,
            mem_stall_cycles: 600,
            mean_mem_latency: 5.0,
            noc_link_wait_cycles: 0,
            max_link_occupancy: 0,
            fault: FaultConfig::none(),
            fault_drops: 0,
            fault_delays: 0,
            fault_retries: 0,
            fault_tracker_losses: 0,
            fault_recovery_cycles: 0,
            analysis: AnalysisConfig::off(),
            race_pairs_checked: 0,
            engine: EngineStats::default(),
            tenant: None,
            obs: None,
        }
    }

    #[test]
    fn bound_violations_are_strict() {
        let report = SweepReport {
            name: "t".into(),
            seed: 1,
            cells: vec![cell(2.0, 4.0), cell(4.0, 4.0), cell(6.0, 4.0)],
        };
        assert_eq!(report.bound_violations().len(), 1);
        assert_eq!(report.bound_violations()[0].speedup, 6.0);
        let table = report.render_table();
        assert!(table.contains("NO"), "violations are flagged in the table:\n{table}");
        assert!(table.contains("tm256-at2048"));
    }

    #[test]
    fn json_round_trips_through_the_bench_parser() {
        let report =
            SweepReport { name: "core-scaling".into(), seed: 7, cells: vec![cell(2.0, 4.0)] };
        let rendered = report.to_json().render();
        let parsed = Json::parse(&rendered).unwrap();
        assert_eq!(parsed.get("experiment").and_then(Json::as_str), Some("core-scaling"));
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].get("platform").and_then(Json::as_str), Some("phentos"));
        assert_eq!(cells[0].get("memory").and_then(Json::as_str), Some("snoop-bus"));
        assert_eq!(cells[0].get("noc").and_then(Json::as_str), Some("none"));
        assert_eq!(cells[0].get("noc_link_wait_cycles").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cells[0].get("max_link_occupancy").and_then(Json::as_f64), Some(0.0));
        assert_eq!(cells[0].get("speedup_over_serial").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cells[0].get("mem_stall_cycles").and_then(Json::as_f64), Some(600.0));
        assert_eq!(cells[0].get("mean_mem_latency").and_then(Json::as_f64), Some(5.0));
        assert_eq!(
            cells[0].get("tracker").and_then(|t| t.get("task_memory_entries")).and_then(Json::as_f64),
            Some(256.0)
        );
    }

    #[test]
    fn artifact_filenames_are_per_sweep_and_sanitised() {
        let mut report = SweepReport { name: "core-scaling".into(), seed: 1, cells: vec![] };
        assert_eq!(report.artifact_filename(), "BENCH_sweep_core-scaling.json");
        report.name = "weird name/π".into();
        assert_eq!(report.artifact_filename(), "BENCH_sweep_weird-name--.json");
    }

    #[test]
    fn table_shows_the_memory_model_column() {
        let mut dir_cell = cell(2.0, 4.0);
        dir_cell.memory = MemoryModel::directory_mesh();
        let mut contended_cell = cell(2.0, 4.0);
        contended_cell.memory = MemoryModel::directory_mesh_contended();
        let report = SweepReport {
            name: "t".into(),
            seed: 1,
            cells: vec![cell(2.0, 4.0), dir_cell, contended_cell],
        };
        let table = report.render_table();
        assert!(table.contains("snoop-bus"), "table names the bus model:\n{table}");
        assert!(table.contains("dir-mesh"), "table names the mesh model:\n{table}");
        assert!(table.contains("dir-mesh-c"), "table names the contended mesh:\n{table}");
        assert!(table.contains("mem lat"), "table carries the memory-latency column:\n{table}");
    }

    #[test]
    fn fault_keys_and_column_appear_only_for_engaging_cells() {
        let clean = SweepReport { name: "f".into(), seed: 1, cells: vec![cell(2.0, 4.0)] };
        let rendered = clean.to_json().render();
        assert!(!rendered.contains("fault"), "fault-free cells carry no fault keys:\n{rendered}");
        assert!(!clean.render_table().contains("fault"));

        let mut faulted_cell = cell(2.0, 4.0);
        faulted_cell.fault = FaultConfig::recoverable();
        faulted_cell.fault_drops = 3;
        faulted_cell.fault_retries = 3;
        faulted_cell.fault_recovery_cycles = 210;
        let faulted =
            SweepReport { name: "f".into(), seed: 1, cells: vec![cell(2.0, 4.0), faulted_cell] };
        let parsed = Json::parse(&faulted.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert!(cells[0].get("fault").is_none(), "the fault-free cell stays key-free");
        assert_eq!(
            cells[1].get("fault").and_then(Json::as_str),
            Some(FaultConfig::recoverable().key().as_str())
        );
        assert_eq!(cells[1].get("fault_drops").and_then(Json::as_f64), Some(3.0));
        assert_eq!(cells[1].get("fault_recovery_cycles").and_then(Json::as_f64), Some(210.0));
        let table = faulted.render_table();
        assert!(table.contains("fault"), "an engaging cell brings the fault column:\n{table}");
        assert!(table.contains(&FaultConfig::recoverable().key()));
        assert!(table.contains("none"), "fault-free rows show 'none' in the fault column");
    }

    #[test]
    fn analysis_keys_and_column_appear_only_for_analysed_cells() {
        let plain = SweepReport { name: "a".into(), seed: 1, cells: vec![cell(2.0, 4.0)] };
        let rendered = plain.to_json().render();
        assert!(
            !rendered.contains("analysis"),
            "analysis-off cells carry no analysis keys:\n{rendered}"
        );
        assert!(!plain.render_table().contains("analysis"));

        let mut analysed_cell = cell(2.0, 4.0);
        analysed_cell.analysis = AnalysisConfig::full();
        analysed_cell.race_pairs_checked = 42;
        let analysed =
            SweepReport { name: "a".into(), seed: 1, cells: vec![cell(2.0, 4.0), analysed_cell] };
        let parsed = Json::parse(&analysed.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert!(cells[0].get("analysis").is_none(), "the analysis-off cell stays key-free");
        assert_eq!(cells[1].get("analysis").and_then(Json::as_str), Some("full"));
        assert_eq!(cells[1].get("race_pairs_checked").and_then(Json::as_f64), Some(42.0));
        let table = analysed.render_table();
        assert!(table.contains("analysis"), "an analysed cell brings the column:\n{table}");
        assert!(table.contains("full"));
        assert!(table.contains("off"), "analysis-off rows show 'off' in the analysis column");
    }

    #[test]
    fn obs_keys_appear_only_for_observed_cells() {
        let plain = SweepReport { name: "o".into(), seed: 1, cells: vec![cell(2.0, 4.0)] };
        let rendered = plain.to_json().render();
        assert!(!rendered.contains("obs_"), "unobserved cells carry no obs keys:\n{rendered}");
        assert!(!rendered.contains("critical_path"));

        let mut observed_cell = cell(2.0, 4.0);
        observed_cell.obs = Some(Box::new(ObsCellData {
            config: ObsConfig::default(),
            task_events: 60,
            samples: 3,
            critical: CriticalPath {
                makespan: 500,
                segments: vec![],
                task_body: 300,
                memory_stall: 50,
                dispatch_wait: 20,
                scheduler: 130,
            },
            tenant_critical: Vec::new(),
            trace_json: "{}".into(),
            metrics_json: "{}".into(),
        }));
        let observed =
            SweepReport { name: "o".into(), seed: 1, cells: vec![cell(2.0, 4.0), observed_cell] };
        let parsed = Json::parse(&observed.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert!(cells[0].get("obs_task_events").is_none(), "the unobserved cell stays key-free");
        assert_eq!(cells[1].get("obs_task_events").and_then(Json::as_f64), Some(60.0));
        assert_eq!(cells[1].get("obs_samples").and_then(Json::as_f64), Some(3.0));
        let cp = cells[1].get("critical_path").expect("observed cells inline the decomposition");
        assert_eq!(cp.get("task_body").and_then(Json::as_f64), Some(300.0));
        assert_eq!(cp.get("makespan").and_then(Json::as_f64), Some(500.0));
    }

    #[test]
    fn tenant_keys_and_column_appear_only_for_co_scheduled_cells() {
        let plain = SweepReport { name: "mt".into(), seed: 1, cells: vec![cell(2.0, 4.0)] };
        let rendered = plain.to_json().render();
        assert!(
            !rendered.contains("tenant"),
            "single-tenant cells carry no tenant keys:\n{rendered}"
        );
        assert!(!plain.render_table().contains("tenants"));

        let mut co_cell = cell(2.0, 4.0);
        co_cell.tenant = Some(Box::new(TenantCellData {
            scenario: "t2-burst64x200000-part".into(),
            reports: vec![
                TenantReport {
                    name: "t0".into(),
                    tasks: 10,
                    first_arrival: 0,
                    last_retire: 500,
                    makespan: 500,
                    turnaround_total: 1_000,
                    p50: 90,
                    p90: 180,
                    p99: 240,
                },
                TenantReport {
                    name: "t1".into(),
                    tasks: 10,
                    first_arrival: 100,
                    last_retire: 600,
                    makespan: 500,
                    turnaround_total: 1_500,
                    p50: 120,
                    p90: 260,
                    p99: 380,
                },
            ],
            jain: 1.0,
        }));
        let co = SweepReport { name: "mt".into(), seed: 1, cells: vec![cell(2.0, 4.0), co_cell] };
        let parsed = Json::parse(&co.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert!(cells[0].get("tenants").is_none(), "the single-tenant cell stays key-free");
        assert_eq!(
            cells[1].get("tenants").and_then(Json::as_str),
            Some("t2-burst64x200000-part")
        );
        assert_eq!(cells[1].get("tenant_jain_fairness").and_then(Json::as_f64), Some(1.0));
        let reports = match cells[1].get("tenant_reports") {
            Some(Json::Arr(r)) => r,
            other => panic!("tenant_reports must be an array, got {other:?}"),
        };
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].get("name").and_then(Json::as_str), Some("t0"));
        assert_eq!(reports[0].get("p99_turnaround").and_then(Json::as_f64), Some(240.0));
        assert_eq!(reports[1].get("mean_turnaround").and_then(Json::as_f64), Some(150.0));
        assert_eq!(reports[1].get("makespan").and_then(Json::as_f64), Some(500.0));
        let table = co.render_table();
        assert!(table.contains("tenants"), "a co-scheduled cell brings the column:\n{table}");
        assert!(table.contains("t2-burst64x200000-part"));
        assert!(table.contains("single"), "single-tenant rows show 'single' in the column");
    }

    #[test]
    fn per_tenant_critical_paths_ride_only_on_observed_co_scheduled_cells() {
        let mut observed_cell = cell(2.0, 4.0);
        observed_cell.obs = Some(Box::new(ObsCellData {
            config: ObsConfig::default(),
            task_events: 60,
            samples: 3,
            critical: CriticalPath {
                makespan: 500,
                segments: vec![],
                task_body: 300,
                memory_stall: 50,
                dispatch_wait: 20,
                scheduler: 130,
            },
            tenant_critical: vec![CriticalPath {
                makespan: 220,
                segments: vec![],
                task_body: 150,
                memory_stall: 40,
                dispatch_wait: 10,
                scheduler: 20,
            }],
            trace_json: "{}".into(),
            metrics_json: "{}".into(),
        }));
        let report =
            SweepReport { name: "mtc".into(), seed: 1, cells: vec![cell(2.0, 4.0), observed_cell] };
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert!(cells[0].get("tenant_critical_paths").is_none());
        let per_tenant = match cells[1].get("tenant_critical_paths") {
            Some(Json::Arr(t)) => t,
            other => panic!("tenant_critical_paths must be an array, got {other:?}"),
        };
        assert_eq!(per_tenant.len(), 1);
        assert_eq!(per_tenant[0].get("makespan").and_then(Json::as_f64), Some(220.0));
        assert_eq!(per_tenant[0].get("task_body").and_then(Json::as_f64), Some(150.0));
    }

    #[test]
    fn table_bytes_are_pinned_for_mixed_optional_columns() {
        let mut faulted = cell(2.0, 4.0);
        faulted.fault = FaultConfig::recoverable();
        let mut analysed = cell(3.0, 4.0);
        analysed.analysis = AnalysisConfig::full();
        let mut co = cell(1.5, 4.0);
        co.tenant = Some(Box::new(TenantCellData {
            scenario: "t2-burst64x200000-part".into(),
            reports: Vec::new(),
            jain: 1.0,
        }));
        let mut contended = cell(6.0, 4.0);
        contended.memory = MemoryModel::directory_mesh_contended();
        contended.workload = "blackscholes 4K B64".into();
        contended.cores = 64;
        let report = SweepReport {
            name: "pin".into(),
            seed: 1,
            cells: vec![cell(2.0, 4.0), faulted, analysed, co, contended],
        };
        let rule = "-".repeat(226);
        let expected = [
            "workload             | cores |     memory |             noc |  platform |       tracker |  tasks |  speedup | MTT bound |  mem lat | within |                                             fault | analysis |                tenants",
            &rule,
            "synth-chain x10 t100 |     4 |  snoop-bus |            none |   phentos |  tm256-at2048 |     10 |    2.00x |     4.00x |     5.00 |    yes |                                              none |      off |                 single",
            "synth-chain x10 t100 |     4 |  snoop-bus |            none |   phentos |  tm256-at2048 |     10 |    2.00x |     4.00x |     5.00 |    yes | sc4a05000-drop20000-delay50000-dead0-loss10000-r3 |      off |                 single",
            "synth-chain x10 t100 |     4 |  snoop-bus |            none |   phentos |  tm256-at2048 |     10 |    3.00x |     4.00x |     5.00 |    yes |                                              none |     full |                 single",
            "synth-chain x10 t100 |     4 |  snoop-bus |            none |   phentos |  tm256-at2048 |     10 |    1.50x |     4.00x |     5.00 |    yes |                                              none |      off | t2-burst64x200000-part",
            "blackscholes 4K B64  |    64 | dir-mesh-c | bw8-buf4-flit16 |   phentos |  tm256-at2048 |     10 |    6.00x |     4.00x |     5.00 |     NO |                                              none |      off |                 single",
        ]
        .map(|line| format!("{line}\n"))
        .concat();
        assert_eq!(report.render_table(), expected);
    }

    #[test]
    fn cells_are_labelled_by_their_coordinates() {
        assert_eq!(
            cell(2.0, 4.0).label(),
            "synth-chain x10 t100 on 4 cores, snoop-bus, Phentos, tm256-at2048, fault none"
        );
        let mut co = cell(2.0, 4.0);
        co.tenant = Some(Box::new(TenantCellData {
            scenario: "t2-batch-shared".into(),
            reports: Vec::new(),
            jain: 1.0,
        }));
        assert!(co.label().starts_with("synth-chain x10 t100 (t2-batch-shared) on 4 cores, "));
    }

    #[test]
    fn bench_diff_keys_every_identity_coordinate_the_report_emits() {
        // One cell per identity coordinate, each differing from the base cell in that
        // coordinate alone (the memory model moves the `noc` coordinate with it; two contended
        // link points move `noc` alone). If the report emits a coordinate that `bench-diff`
        // does not key on, two of these cells share a key and pair as `#1`.
        let base = cell(2.0, 4.0);
        let with = |edit: fn(&mut SweepCell)| {
            let mut c = base.clone();
            edit(&mut c);
            c
        };
        let cells = vec![
            base.clone(),
            with(|c| c.cores = 8),
            with(|c| c.memory = MemoryModel::directory_mesh()),
            with(|c| c.memory = MemoryModel::directory_mesh_contended()),
            with(|c| {
                let mut noc = tis_machine::NocConfig::contended();
                if let tis_machine::NocContention::Contended(link) = &mut noc.contention {
                    link.buffer_flits += 1;
                }
                c.memory = MemoryModel::DirectoryMesh(noc);
            }),
            with(|c| c.platform = Platform::NanosSw),
            with(|c| c.tracker = TrackerConfig::new(64, 256)),
            with(|c| c.fault = FaultConfig::recoverable()),
            with(|c| {
                c.tenant = Some(Box::new(TenantCellData {
                    scenario: "t2-batch-shared".into(),
                    reports: Vec::new(),
                    jain: 1.0,
                }))
            }),
            with(|c| c.analysis = AnalysisConfig::full()),
        ];
        let json = SweepReport { name: "keys".into(), seed: 1, cells }.to_json();
        let d = tis_bench::diff::diff(&json, &json);
        assert!(d.only_before.is_empty() && d.only_after.is_empty(), "{d:?}");
        assert!(d.rows.iter().all(|r| !r.path.contains('#')), "{:#?}", d.rows);
        let keys: std::collections::BTreeSet<&str> = d
            .rows
            .iter()
            .filter_map(|r| r.path.strip_prefix("cells[")?.split(']').next())
            .collect();
        assert_eq!(keys.len(), 10, "every cell pairs by its own key: {keys:#?}");
    }

    #[test]
    fn json_carries_the_noc_coordinate_per_model() {
        let mut contended_cell = cell(2.0, 4.0);
        contended_cell.memory = MemoryModel::directory_mesh_contended();
        contended_cell.noc_link_wait_cycles = 1234;
        contended_cell.max_link_occupancy = 17;
        let report = SweepReport { name: "noc".into(), seed: 1, cells: vec![contended_cell] };
        let parsed = Json::parse(&report.to_json().render()).unwrap();
        let cells = match parsed.get("cells") {
            Some(Json::Arr(c)) => c,
            other => panic!("cells must be an array, got {other:?}"),
        };
        assert_eq!(cells[0].get("memory").and_then(Json::as_str), Some("dir-mesh-c"));
        assert_eq!(cells[0].get("noc").and_then(Json::as_str), Some("bw8-buf4-flit16"));
        assert_eq!(cells[0].get("noc_link_wait_cycles").and_then(Json::as_f64), Some(1234.0));
        assert_eq!(cells[0].get("max_link_occupancy").and_then(Json::as_f64), Some(17.0));
    }
}
