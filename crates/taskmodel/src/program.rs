//! Whole task-parallel programs.
//!
//! A [`TaskProgram`] is the trace of actions performed by the *main thread* of an OmpSs
//! application, in program order: spawn a task, spawn another, hit a `taskwait`, spawn more, …
//! This is exactly the information a Task Scheduling runtime consumes, and it is what the
//! workload generators in `tis-workloads` produce for each benchmark input of the paper.

use crate::dep::Dependence;
use crate::graph::DepGraph;
use crate::task::{Payload, TaskId, TaskSpec, TaskSpecError};

/// One action of the main thread, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramOp {
    /// Spawn (submit) a task.
    Spawn(TaskSpec),
    /// Wait until every task spawned so far has retired (`#pragma omp taskwait`).
    TaskWait,
}

/// A complete task-parallel program: an ordered stream of spawns and barriers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskProgram {
    name: String,
    ops: Vec<ProgramOp>,
}

impl TaskProgram {
    /// Human-readable program name (e.g. `"sparselu N32 M4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered operation stream.
    pub fn ops(&self) -> &[ProgramOp] {
        &self.ops
    }

    /// Iterates over the task specs in program (submission) order.
    pub fn tasks(&self) -> impl Iterator<Item = &TaskSpec> {
        self.ops.iter().filter_map(|op| match op {
            ProgramOp::Spawn(t) => Some(t),
            ProgramOp::TaskWait => None,
        })
    }

    /// Number of spawned tasks.
    pub fn task_count(&self) -> usize {
        self.tasks().count()
    }

    /// Number of `taskwait` barriers.
    pub fn taskwait_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, ProgramOp::TaskWait)).count()
    }

    /// Validates every task in the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`TaskSpecError`] found, plus a synthetic duplicate-ID error mapped to
    /// [`TaskSpecError::DuplicateAddress`]-style failure is *not* produced here: duplicate task
    /// IDs are a generator bug and are reported as a panic by [`ProgramBuilder`].
    pub fn validate(&self) -> Result<(), TaskSpecError> {
        for t in self.tasks() {
            t.validate()?;
        }
        Ok(())
    }

    /// Builds the reference dependence graph (sequential-semantics ground truth) for this
    /// program. `taskwait` barriers are modelled as all-to-all orderings between the tasks before
    /// and after the barrier.
    pub fn reference_graph(&self) -> DepGraph {
        DepGraph::from_program(self)
    }

    /// Summary statistics used by the experiment harnesses (task count, granularity…).
    pub fn stats(&self, bytes_per_cycle: f64) -> ProgramStats {
        let mut total_compute = 0u64;
        let mut total_bytes = 0u64;
        let mut total_serial = 0u64;
        let mut min_serial = u64::MAX;
        let mut max_serial = 0u64;
        let mut deps = 0usize;
        let mut n = 0usize;
        for t in self.tasks() {
            let s = t.payload.serial_cycles(bytes_per_cycle);
            total_compute += t.payload.compute_cycles;
            total_bytes += t.payload.memory_bytes;
            total_serial += s;
            min_serial = min_serial.min(s);
            max_serial = max_serial.max(s);
            deps += t.dep_count();
            n += 1;
        }
        ProgramStats {
            tasks: n,
            taskwaits: self.taskwait_count(),
            total_compute_cycles: total_compute,
            total_memory_bytes: total_bytes,
            total_serial_cycles: total_serial,
            mean_task_cycles: if n == 0 { 0.0 } else { total_serial as f64 / n as f64 },
            min_task_cycles: if n == 0 { 0 } else { min_serial },
            max_task_cycles: max_serial,
            mean_deps_per_task: if n == 0 { 0.0 } else { deps as f64 / n as f64 },
        }
    }

    /// Serial-execution time of the program in cycles: every task body executed back-to-back on
    /// one core, plus `per_task_call_overhead` cycles of plain function-call overhead per task
    /// (the serial versions of the benchmarks call the task body as an ordinary function).
    pub fn serial_cycles(&self, bytes_per_cycle: f64, per_task_call_overhead: u64) -> u64 {
        self.tasks()
            .map(|t| t.payload.serial_cycles(bytes_per_cycle) + per_task_call_overhead)
            .sum()
    }
}

/// Aggregate program statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramStats {
    /// Number of spawned tasks.
    pub tasks: usize,
    /// Number of taskwait barriers.
    pub taskwaits: usize,
    /// Sum of task compute cycles.
    pub total_compute_cycles: u64,
    /// Sum of task memory bytes.
    pub total_memory_bytes: u64,
    /// Sum of serial task durations (compute + single-core memory time).
    pub total_serial_cycles: u64,
    /// Mean serial task duration — the paper's "task granularity"/"task size" axis.
    pub mean_task_cycles: f64,
    /// Smallest serial task duration.
    pub min_task_cycles: u64,
    /// Largest serial task duration.
    pub max_task_cycles: u64,
    /// Mean number of annotated dependences per task.
    pub mean_deps_per_task: f64,
}

/// Incremental builder for [`TaskProgram`]s.
///
/// The builder assigns consecutive [`TaskId`]s in spawn order — matching how every runtime in the
/// paper identifies tasks by submission order — and panics on malformed tasks so that workload
/// generator bugs surface immediately in tests.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    name: String,
    ops: Vec<ProgramOp>,
    next_id: u64,
}

impl ProgramBuilder {
    /// Creates an empty builder for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder { name: name.into(), ops: Vec::new(), next_id: 0 }
    }

    /// Spawns a task with the given payload and dependence annotations, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the task would violate the Picos descriptor constraints (more than 15
    /// dependences or a duplicated address); this is a workload-generator bug.
    pub fn spawn(&mut self, payload: Payload, deps: Vec<Dependence>) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        let spec = TaskSpec::new(id, payload, deps);
        if let Err(e) = spec.validate() {
            panic!("invalid task produced by workload generator: {e}");
        }
        self.ops.push(ProgramOp::Spawn(spec));
        id
    }

    /// Inserts a `taskwait` barrier.
    pub fn taskwait(&mut self) {
        self.ops.push(ProgramOp::TaskWait);
    }

    /// Number of tasks spawned so far.
    pub fn spawned(&self) -> usize {
        self.next_id as usize
    }

    /// Finalises the program.
    pub fn build(self) -> TaskProgram {
        TaskProgram { name: self.name, ops: self.ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{Dependence, Direction};

    fn small_program() -> TaskProgram {
        let mut b = ProgramBuilder::new("unit");
        b.spawn(Payload::compute(100), vec![Dependence::write(0x10)]);
        b.spawn(Payload::compute(200), vec![Dependence::read(0x10)]);
        b.taskwait();
        b.spawn(Payload::new(300, 64), vec![]);
        b.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let p = small_program();
        let ids: Vec<u64> = p.tasks().map(|t| t.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(p.task_count(), 3);
        assert_eq!(p.taskwait_count(), 1);
        assert_eq!(p.name(), "unit");
    }

    #[test]
    fn stats_aggregation() {
        let p = small_program();
        let s = p.stats(8.0);
        assert_eq!(s.tasks, 3);
        assert_eq!(s.taskwaits, 1);
        assert_eq!(s.total_compute_cycles, 600);
        assert_eq!(s.total_memory_bytes, 64);
        assert_eq!(s.total_serial_cycles, 100 + 200 + 308);
        assert_eq!(s.min_task_cycles, 100);
        assert_eq!(s.max_task_cycles, 308);
        assert!((s.mean_deps_per_task - (2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn serial_cycles_includes_call_overhead() {
        let p = small_program();
        assert_eq!(p.serial_cycles(8.0, 0), 608);
        assert_eq!(p.serial_cycles(8.0, 10), 638);
    }

    #[test]
    fn empty_program_stats() {
        let p = ProgramBuilder::new("empty").build();
        let s = p.stats(8.0);
        assert_eq!(s.tasks, 0);
        assert_eq!(s.mean_task_cycles, 0.0);
        assert_eq!(s.min_task_cycles, 0);
        assert_eq!(p.serial_cycles(8.0, 7), 0);
        assert!(p.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid task")]
    fn builder_panics_on_invalid_task() {
        let mut b = ProgramBuilder::new("bad");
        let deps: Vec<_> = (0..16u64).map(|i| Dependence::new(i * 8, Direction::In)).collect();
        b.spawn(Payload::empty(), deps);
    }
}
