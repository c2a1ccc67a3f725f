//! Execution reports and the derived metrics used by the paper's figures.

use tis_mem::MemoryStats;
use tis_sim::Cycle;
use tis_taskmodel::{ExecRecord, ExecutionValidator, TaskProgram, TenantReport, ValidationError};

use crate::context::CoreStats;
use crate::fabric::FabricStats;

/// The result of simulating one program on one runtime/fabric combination.
///
/// Reports are plainly comparable: every field is an integer-valued simulation outcome, so two
/// equal reports are *bit-identical* executions — the property the fault layer's replay
/// guarantee is stated (and tested) in terms of.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionReport {
    /// Runtime that produced the schedule (`"phentos"`, `"nanos-rv"`, …).
    pub runtime: String,
    /// Fabric the runtime used (`"rocc-picos"`, `"axi-picos"`, `"null"`).
    pub fabric: String,
    /// Number of cores in the machine.
    pub cores: usize,
    /// Makespan of the program in core cycles.
    pub total_cycles: Cycle,
    /// Per-core activity breakdown.
    pub core_stats: Vec<CoreStats>,
    /// Per-task execution records (start/end/core of every task body).
    pub records: Vec<ExecRecord>,
    /// Scheduler-fabric statistics.
    pub fabric_stats: FabricStats,
    /// Memory-system statistics.
    pub memory_stats: MemoryStats,
    /// Number of tasks the runtime retired.
    pub tasks_retired: u64,
    /// High-water mark of task descriptors resident in the runtime's task source (0 for
    /// runtimes predating the streaming refactor and for engine test doubles). For a streamed
    /// run this is the `O(window)` memory-footprint proxy the streaming-scale bench gates on;
    /// for a materialized run it is the true maximum number of simultaneously in-flight tasks.
    pub peak_resident_tasks: u64,
    /// Per-tenant serving metrics for multi-tenant runs (one entry per tenant, in tenant
    /// order). Empty for single-program runs, so legacy reports stay bit-identical and the
    /// `Eq`-means-identical-execution property is preserved.
    pub tenants: Vec<TenantReport>,
}

impl ExecutionReport {
    /// Speedup of this execution with respect to a serial execution taking `serial_cycles`.
    pub fn speedup_over(&self, serial_cycles: Cycle) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        serial_cycles as f64 / self.total_cycles as f64
    }

    /// Mean cycles per retired task (makespan divided by task count). On a single-core run of an
    /// empty-payload microbenchmark this is exactly the paper's *lifetime task scheduling
    /// overhead* (Figure 7).
    pub fn mean_cycles_per_task(&self) -> f64 {
        if self.tasks_retired == 0 {
            return 0.0;
        }
        self.total_cycles as f64 / self.tasks_retired as f64
    }

    /// Per-core busy/idle split of the makespan: each core's busy time is its accounted
    /// payload + runtime cycles (clamped to the makespan), and its idle time is the remainder —
    /// so by construction busy + idle sums to exactly `cores × total_cycles`, with parked
    /// workers (whose local clocks ran past the makespan waiting for work that never came)
    /// charged as idle for the whole run.
    pub fn core_utilisation(&self) -> Vec<CoreUtilisation> {
        let split: Vec<CoreUtilisation> = self
            .core_stats
            .iter()
            .map(|s| {
                // Checked rather than bare addition: at 10⁶–10⁷ streamed tasks the per-core
                // counters are far from u64::MAX, but a silent wrap here would corrupt the
                // partition invariant below instead of failing loudly.
                let accounted = s
                    .payload_cycles
                    .checked_add(s.runtime_cycles)
                    .expect("per-core busy cycles overflow u64");
                let busy = accounted.min(self.total_cycles);
                CoreUtilisation { busy_cycles: busy, idle_cycles: self.total_cycles - busy }
            })
            .collect();
        debug_assert_eq!(
            split
                .iter()
                .try_fold(0u64, |acc, u| acc
                    .checked_add(u.busy_cycles)
                    .and_then(|a| a.checked_add(u.idle_cycles)))
                .expect("utilisation sum overflows u64"),
            self.total_cycles
                .checked_mul(self.cores as u64)
                .expect("cores x makespan overflows u64"),
            "busy + idle must partition cores x makespan exactly"
        );
        split
    }

    /// Validates the recorded schedule against the program's reference dependence graph.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found (missing/duplicated task, dependence or
    /// barrier violation, or two task bodies overlapping on one core).
    pub fn validate_against(&self, program: &TaskProgram) -> Result<(), ValidationError> {
        ExecutionValidator::new(program).check(&self.records)
    }

    /// Jain fairness index over the per-tenant task throughputs of a multi-tenant run:
    /// `(Σx)² / (n·Σx²)`, which is `1.0` for a perfectly even split and `1/n` when one tenant
    /// monopolises the machine. Returns `1.0` for runs with fewer than two tenants (a single
    /// tenant is trivially fair to itself).
    pub fn tenant_jain_fairness(&self) -> f64 {
        if self.tenants.len() < 2 {
            return 1.0;
        }
        let throughputs: Vec<f64> = self.tenants.iter().map(|t| t.throughput()).collect();
        jain_fairness(&throughputs)
    }
}

/// Jain's fairness index of a set of non-negative allocations: `(Σx)² / (n·Σx²)`.
///
/// Bounded in `[1/n, 1]`: `1.0` when every allocation is equal, `1/n` when a single party
/// receives everything. Returns `1.0` for empty input and `0.0` when every allocation is zero
/// (no work was served, so no fairness claim can be made).
pub fn jain_fairness(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 0.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// One core's share of the makespan, as split by [`ExecutionReport::core_utilisation`].
/// `busy_cycles + idle_cycles` is always exactly the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreUtilisation {
    /// Cycles the core spent on payload or runtime work within the makespan.
    pub busy_cycles: u64,
    /// Cycles the core was idle (or parked past the end of the program) within the makespan.
    pub idle_cycles: u64,
}

/// The MTT-derived maximum speedup bound of Section VI-B2, in its single-core-overhead form:
/// `MS(t) = min(cores, t / Lo)` for mean task size `t` and lifetime overhead `Lo`.
///
/// This is the form the paper's Figures 6 and 10 plot. It treats `1 / Lo` — the task
/// throughput of a *single* core playing producer and consumer — as the system's maximum task
/// throughput, which is exact for platforms whose per-task overhead serialises on a shared
/// resource (Phentos' submission path, the AXI driver) but **pessimistic** for runtimes whose
/// overhead is paid on the worker cores and therefore parallelises (Nanos' software paths).
/// On the paper's 8-core prototype the distinction barely shows; on bigger machines it does,
/// so core-count sweeps must use [`mtt_speedup_bound_from_throughput`] with an MTT measured at
/// the swept core count instead.
///
/// Returns `cores as f64` when the overhead is zero (infinite throughput).
pub fn mtt_speedup_bound(task_cycles: f64, lifetime_overhead: f64, cores: usize) -> f64 {
    if lifetime_overhead <= 0.0 {
        return cores as f64;
    }
    (task_cycles / lifetime_overhead).min(cores as f64)
}

/// The MTT-derived maximum speedup bound in its general form: `MS(t) = min(cores, t × MTT)`
/// where `MTT` is the **measured maximum task throughput** of the whole scheduling system (in
/// tasks per cycle), e.g. from an empty-payload Task-Free run on the same machine. A workload
/// of mean task size `t` cannot retire tasks faster than the scheduling system can process
/// them, so its speedup over serial execution is capped by `t × MTT` — at any core count.
///
/// Returns `cores as f64` when the throughput is non-positive (treated as unmeasured).
pub fn mtt_speedup_bound_from_throughput(
    task_cycles: f64,
    tasks_per_cycle: f64,
    cores: usize,
) -> f64 {
    if tasks_per_cycle <= 0.0 {
        return cores as f64;
    }
    (task_cycles * tasks_per_cycle).min(cores as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::{Payload, ProgramBuilder, TaskId};

    fn report_with(records: Vec<ExecRecord>, total: Cycle, tasks: u64) -> ExecutionReport {
        ExecutionReport {
            runtime: "test".into(),
            fabric: "null".into(),
            cores: 2,
            total_cycles: total,
            core_stats: vec![CoreStats::default(); 2],
            records,
            fabric_stats: FabricStats::default(),
            memory_stats: MemoryStats::default(),
            tasks_retired: tasks,
            peak_resident_tasks: 0,
            tenants: Vec::new(),
        }
    }

    #[test]
    fn speedup_and_per_task_metrics() {
        let r = report_with(Vec::new(), 500, 10);
        assert!((r.speedup_over(2_000) - 4.0).abs() < 1e-12);
        assert!((r.mean_cycles_per_task() - 50.0).abs() < 1e-12);
        let empty = report_with(Vec::new(), 0, 0);
        assert_eq!(empty.speedup_over(100), 0.0);
        assert_eq!(empty.mean_cycles_per_task(), 0.0);
    }

    #[test]
    fn validation_round_trip() {
        let mut b = ProgramBuilder::new("p");
        b.spawn(Payload::compute(10), vec![]);
        b.spawn(Payload::compute(10), vec![]);
        let program = b.build();
        let ok = report_with(
            vec![
                ExecRecord { task: TaskId(0), core: 0, start: 0, end: 10 },
                ExecRecord { task: TaskId(1), core: 1, start: 0, end: 10 },
            ],
            10,
            2,
        );
        assert!(ok.validate_against(&program).is_ok());
        let bad = report_with(vec![ExecRecord { task: TaskId(0), core: 0, start: 0, end: 10 }], 10, 1);
        assert!(bad.validate_against(&program).is_err());
    }

    #[test]
    fn mtt_bound_matches_figure_6_shape() {
        // Phentos Task-Chain(1 dep) overhead is ~329 cycles; at 1000-cycle tasks the bound is
        // just below 3x, and by 10k-cycle tasks it has saturated at the core count — exactly the
        // narrative of Section VI-B2.
        let phentos = mtt_speedup_bound(1_000.0, 329.0, 8);
        assert!(phentos > 2.5 && phentos < 3.5);
        assert_eq!(mtt_speedup_bound(10_000.0, 329.0, 8), 8.0);
        // Software runtimes with ~36k-cycle overheads cannot exceed 1x even at 10k-cycle tasks.
        assert!(mtt_speedup_bound(10_000.0, 35_867.0, 8) < 1.0);
        // Degenerate cases.
        assert_eq!(mtt_speedup_bound(1_000.0, 0.0, 8), 8.0);
    }

    #[test]
    fn throughput_bound_scales_with_the_swept_core_count() {
        // A system retiring one task every 500 cycles caps 1000-cycle tasks at 2x — whether
        // the machine has 8 or 64 cores.
        let mtt = 1.0 / 500.0;
        assert!((mtt_speedup_bound_from_throughput(1_000.0, mtt, 8) - 2.0).abs() < 1e-12);
        assert!((mtt_speedup_bound_from_throughput(1_000.0, mtt, 64) - 2.0).abs() < 1e-12);
        // Coarse tasks saturate at the core count, which must follow the sweep axis.
        assert_eq!(mtt_speedup_bound_from_throughput(1_000_000.0, mtt, 1), 1.0);
        assert_eq!(mtt_speedup_bound_from_throughput(1_000_000.0, mtt, 64), 64.0);
        // Unmeasured throughput degenerates to the trivial core-count bound.
        assert_eq!(mtt_speedup_bound_from_throughput(1_000.0, 0.0, 16), 16.0);
        // When the single-core overhead really is the serial bottleneck the two forms agree.
        let lo = 500.0;
        assert!(
            (mtt_speedup_bound(1_000.0, lo, 8) - mtt_speedup_bound_from_throughput(1_000.0, 1.0 / lo, 8)).abs()
                < 1e-12
        );
    }

    #[test]
    fn core_utilisation_partitions_the_makespan_exactly() {
        let mut r = report_with(Vec::new(), 1_000, 4);
        r.core_stats[0].payload_cycles = 700;
        r.core_stats[0].runtime_cycles = 200;
        // Core 1 parked far past the makespan: busy clamps, the rest is idle.
        r.core_stats[1].runtime_cycles = 1_500;
        let u = r.core_utilisation();
        assert_eq!(u[0], CoreUtilisation { busy_cycles: 900, idle_cycles: 100 });
        assert_eq!(u[1], CoreUtilisation { busy_cycles: 1_000, idle_cycles: 0 });
        let total: u64 = u.iter().map(|c| c.busy_cycles + c.idle_cycles).sum();
        assert_eq!(total, r.total_cycles * r.cores as u64);
    }

    #[test]
    fn jain_fairness_spans_its_bounds() {
        // Even split → 1.0; total monopoly among n parties → 1/n.
        assert!((jain_fairness(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mixed allocation: (1+2+3)² / (3 · (1+4+9)) = 36/42.
        assert!((jain_fairness(&[1.0, 2.0, 3.0]) - 36.0 / 42.0).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tenant_fairness_reads_per_tenant_throughput() {
        let mut r = report_with(Vec::new(), 1_000, 20);
        // Fewer than two tenants: trivially fair, and legacy reports carry no tenants at all.
        assert_eq!(r.tenant_jain_fairness(), 1.0);
        let tenant = |name: &str, tasks: u64, makespan: u64| TenantReport {
            name: name.into(),
            tasks,
            first_arrival: 0,
            last_retire: makespan,
            makespan,
            turnaround_total: 0,
            p50: 0,
            p90: 0,
            p99: 0,
        };
        // Equal throughput (10 tasks / 1000 cycles each) → perfectly fair.
        r.tenants = vec![tenant("a", 10, 1_000), tenant("b", 10, 1_000)];
        assert!((r.tenant_jain_fairness() - 1.0).abs() < 1e-12);
        // One tenant served 3x the throughput: (1+3)²/(2·(1+9)) = 16/20.
        r.tenants = vec![tenant("a", 10, 1_000), tenant("b", 30, 1_000)];
        assert!((r.tenant_jain_fairness() - 0.8).abs() < 1e-12);
    }
}
