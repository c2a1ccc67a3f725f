//! Reference dependence graph and execution validation.
//!
//! Every scheduler in this workspace — the Picos hardware model, the Nanos-SW software
//! dependence domain and the Phentos/Nanos-RV paths through the RoCC fabric — must agree with
//! the *sequential semantics* definition of task dependences (Section III-A of the paper).
//! [`DepGraph::from_program`] computes that ground truth directly from program order and the
//! RAW/WAW/WAR rules, and [`ExecutionValidator`] checks that a simulated execution honoured it.
//! These two types are the backbone of the workspace's correctness tests.
//!
//! # One frontier walk
//!
//! The RAW/WAW/WAR rules are applied in exactly one place, the [`FrontierWalker`]. Per address
//! it keeps the last writer and the readers since that write; for each access, in program
//! order, it names the *conflict frontier*: the last writer, then (for a write) the readers
//! since that write, oldest first, each task once and never the accessing task itself. The
//! reference graph's edges are these pairs, deduplicated per task pair, and `tis-analyze`'s
//! `conflict_frontier` and preflight read the same pairs in the same order.
//!
//! The graph is stored as compressed rows ([`tis_sim::Rows`]): one offsets vector and one
//! targets vector. Frontier pairs arrive grouped by their later task in spawn order, so the
//! stable counting sort of [`Rows::by_source`] leaves every successor row ascending.

use tis_sim::{FxHashMap, Rows};

use crate::dep::{DepAddr, Dependence};
use crate::program::{ProgramOp, TaskProgram};
use crate::task::TaskId;

/// Marks "no task" and "end of run" in the [`FrontierWalker`]'s slots and links.
const NONE: u32 = u32::MAX;

/// A task index as stored in the compact graph structures.
fn index(task: usize) -> u32 {
    u32::try_from(task).expect("task indices fit in u32")
}

/// One address's frontier state: its last writer and the run of readers since that write,
/// a linked list through [`FrontierWalker::links`].
#[derive(Debug, Clone, Copy)]
struct AddrSlot {
    last_writer: u32,
    first_reader: u32,
    last_reader: u32,
}

/// One reader in an address's run, and the link to the next-newer one.
#[derive(Debug, Clone, Copy)]
struct ReaderLink {
    task: u32,
    next: u32,
}

/// The sequential-semantics conflict frontier, walked one access at a time.
///
/// Feed every task's declared accesses through [`FrontierWalker::access`] in program order
/// (task indices never decreasing). Each call first names the earlier tasks the access
/// conflicts with — the address's last writer, then, if the access writes, the readers since
/// that write, oldest first — each once and never the accessing task itself, and then records
/// the access. Per address the state is one slot (found through a single map lookup) plus a run
/// of readers in one shared arena, so a walk allocates nothing per access.
#[derive(Debug, Clone, Default)]
pub struct FrontierWalker {
    slot_of: FxHashMap<DepAddr, u32>,
    slots: Vec<AddrSlot>,
    links: Vec<ReaderLink>,
}

impl FrontierWalker {
    /// A walker that has seen no access.
    pub fn new() -> Self {
        Self::default()
    }

    /// Calls `earlier` with each task that `task`'s access `dep` conflicts with, in frontier
    /// order, then records the access.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not fit in `u32`.
    pub fn access(&mut self, task: usize, dep: &Dependence, mut earlier: impl FnMut(usize)) {
        let task = index(task);
        let fresh = self.slots.len() as u32;
        let slot = *self.slot_of.entry(dep.addr).or_insert(fresh) as usize;
        if slot == self.slots.len() {
            self.slots.push(AddrSlot { last_writer: NONE, first_reader: NONE, last_reader: NONE });
        }
        let st = &mut self.slots[slot];
        // Readers join a run in walk order, so the run never decreases and its only possible
        // repeats — of the last writer (an `inout` write reads too) or of one reader — are
        // adjacent: skipping the task named just before is the per-access dedup.
        let mut named = st.last_writer;
        if named != NONE {
            earlier(named as usize);
        }
        if dep.dir.writes() {
            let mut link = st.first_reader;
            while link != NONE {
                let ReaderLink { task: r, next } = self.links[link as usize];
                if r != task && r != named {
                    earlier(r as usize);
                    named = r;
                }
                link = next;
            }
            st.last_writer = task;
            st.first_reader = NONE;
        }
        if dep.dir.reads() {
            let link = index(self.links.len());
            self.links.push(ReaderLink { task, next: NONE });
            if st.first_reader == NONE {
                st.first_reader = link;
            } else {
                self.links[st.last_reader as usize].next = link;
            }
            st.last_reader = link;
        }
    }
}

/// Sequential-semantics dependence graph of a [`TaskProgram`].
///
/// Nodes are tasks (indexed by their [`TaskId`], which the [`crate::ProgramBuilder`] assigns
/// densely in spawn order); edges point from a task to the later tasks that must wait for it.
/// `taskwait` barriers are recorded as *phases* rather than as edges: a task spawned after the
/// k-th barrier belongs to phase k and may not start before every task of earlier phases has
/// finished (because the main thread cannot even spawn it until then).
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// Successor rows, each ascending.
    successors: Rows,
    /// Task `i` has `pred_offsets[i + 1] - pred_offsets[i]` direct predecessors.
    pred_offsets: Vec<u32>,
    phase: Vec<usize>,
}

impl DepGraph {
    /// Builds the reference graph for a program.
    ///
    /// # Panics
    ///
    /// Panics if task ids are not dense (0..n in spawn order); the [`crate::ProgramBuilder`]
    /// guarantees density, so a violation indicates a hand-built, inconsistent program.
    pub fn from_program(program: &TaskProgram) -> Self {
        Self::from_program_with_frontier(program, |_, _, _| {})
    }

    /// Builds the reference graph for a program and hands every conflict-frontier pair to
    /// `pair(earlier, later, addr)` in walk order: spawn order, then each task's declaration
    /// order, then [`FrontierWalker`] order. A pair repeats per shared address; the graph
    /// holds each task pair once.
    ///
    /// # Panics
    ///
    /// As [`DepGraph::from_program`].
    pub fn from_program_with_frontier(
        program: &TaskProgram,
        mut pair: impl FnMut(usize, usize, DepAddr),
    ) -> Self {
        let n = program.task_count();
        let mut phase = Vec::with_capacity(n);
        let mut walker = FrontierWalker::new();
        // Each task's distinct predecessors, grouped by task in spawn order: task i's are
        // `sources[pred_offsets[i]..pred_offsets[i + 1]]`.
        let mut sources: Vec<u32> = Vec::new();
        let mut pred_offsets = Vec::with_capacity(n + 1);
        pred_offsets.push(0u32);
        // The last task each task gained a successor edge to: the per-task-pair dedup.
        let mut last_target = vec![NONE; n];
        let mut current_phase = 0usize;

        for op in program.ops() {
            match op {
                ProgramOp::TaskWait => current_phase += 1,
                ProgramOp::Spawn(spec) => {
                    let idx = spec.id.raw() as usize;
                    let next_index = phase.len();
                    assert_eq!(
                        idx, next_index,
                        "task ids must be dense and in spawn order (got {idx}, expected {next_index})"
                    );
                    phase.push(current_phase);
                    for dep in &spec.deps {
                        walker.access(idx, dep, |from| {
                            debug_assert!(from < idx, "dependence edges always point forward in program order");
                            pair(from, idx, dep.addr);
                            if last_target[from] != idx as u32 {
                                last_target[from] = idx as u32;
                                sources.push(from as u32);
                            }
                        });
                    }
                    pred_offsets.push(index(sources.len()));
                }
            }
        }

        let edges = (0..n).flat_map(|to| {
            let run = &sources[pred_offsets[to] as usize..pred_offsets[to + 1] as usize];
            run.iter().map(move |&from| (from as usize, to))
        });
        let successors = Rows::by_source(n, edges);
        DepGraph { successors, pred_offsets, phase }
    }

    /// Number of tasks (nodes).
    pub fn task_count(&self) -> usize {
        self.phase.len()
    }

    /// Number of distinct dependence edges.
    pub fn edge_count(&self) -> usize {
        self.successors.edges()
    }

    /// Whether there is a direct dependence edge from `from` to `to`.
    pub fn has_edge(&self, from: TaskId, to: TaskId) -> bool {
        let (from, to) = (from.raw() as usize, to.raw());
        from < self.task_count()
            && u32::try_from(to).is_ok_and(|to| self.successors.row(from).binary_search(&to).is_ok())
    }

    /// Direct successors of a task, in ascending order.
    pub fn successors(&self, of: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        let of = of.raw() as usize;
        let row = if of < self.task_count() { self.successors.row(of) } else { &[] };
        row.iter().map(|&i| TaskId(u64::from(i)))
    }

    /// Every task's direct successors as compressed rows, each row ascending.
    pub fn successor_rows(&self) -> &Rows {
        &self.successors
    }

    /// Number of direct predecessors (in-degree) of a task.
    pub fn predecessor_count(&self, of: TaskId) -> usize {
        let of = of.raw() as usize;
        if of < self.task_count() {
            (self.pred_offsets[of + 1] - self.pred_offsets[of]) as usize
        } else {
            0
        }
    }

    /// Taskwait phase of a task: the number of `taskwait` barriers the main thread executed
    /// before spawning it.
    pub fn phase(&self, of: TaskId) -> usize {
        self.phase.get(of.raw() as usize).copied().unwrap_or(0)
    }

    /// Every task's taskwait phase, in task order.
    pub fn phases(&self) -> &[usize] {
        &self.phase
    }

    /// Structural statistics: critical path and an ideal-parallelism profile.
    ///
    /// `weights[i]` is the execution cost of task `i` (use `1.0` everywhere for a purely
    /// structural view). Both the dependence edges and the phase (taskwait) constraints are
    /// honoured. The returned [`GraphStats::max_width`] is the largest number of tasks that an
    /// infinitely wide machine would run concurrently under list scheduling — an upper bound on
    /// exploitable parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the number of tasks.
    pub fn stats(&self, weights: &[f64]) -> GraphStats {
        let n = self.task_count();
        assert_eq!(weights.len(), n, "one weight per task required");
        if n == 0 {
            return GraphStats {
                tasks: 0,
                edges: 0,
                phases: 1,
                critical_path_weight: 0.0,
                total_weight: 0.0,
                ideal_parallelism: 0.0,
                max_width: 0,
            };
        }
        // Longest path to each node, processed in topological (= id) order. Phases are handled
        // by forcing each task to start no earlier than the completion of the previous phases.
        let mut finish = vec![0.0f64; n];
        let mut phase_end: Vec<f64> = Vec::new();
        let max_phase = self.phase.iter().copied().max().unwrap_or(0);
        phase_end.resize(max_phase + 1, 0.0);
        let mut earliest = vec![0.0f64; n];
        for i in 0..n {
            let ph = self.phase[i];
            let barrier_floor = if ph == 0 { 0.0 } else { phase_end[ph - 1] };
            let start = earliest[i].max(barrier_floor);
            finish[i] = start + weights[i];
            phase_end[ph] = phase_end[ph].max(finish[i]);
            for &s in self.successors.row(i) {
                earliest[s as usize] = earliest[s as usize].max(finish[i]);
            }
        }
        // Propagate barrier floors forward so phase_end is monotone even for empty phases.
        for p in 1..phase_end.len() {
            if phase_end[p] < phase_end[p - 1] {
                phase_end[p] = phase_end[p - 1];
            }
        }
        let critical = finish.iter().copied().fold(0.0f64, f64::max);
        let total: f64 = weights.iter().sum();
        // Structural width: schedule every task at its earliest start on infinite cores and take
        // the maximum number of overlapping tasks (sampled at start events).
        let mut intervals: Vec<(f64, f64)> = (0..n)
            .map(|i| (finish[i] - weights[i], finish[i]))
            .collect();
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut max_width = 0usize;
        for &(start, _) in &intervals {
            let width = intervals
                .iter()
                .filter(|&&(s, e)| s <= start && start < e || (s == e && s == start))
                .count();
            max_width = max_width.max(width);
        }
        GraphStats {
            tasks: n,
            edges: self.edge_count(),
            phases: max_phase + 1,
            critical_path_weight: critical,
            total_weight: total,
            ideal_parallelism: if critical > 0.0 { total / critical } else { n as f64 },
            max_width,
        }
    }
}

/// Structural statistics of a dependence graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of dependence edges.
    pub edges: usize,
    /// Number of taskwait-delimited phases.
    pub phases: usize,
    /// Weight of the heaviest dependence chain (including barrier constraints).
    pub critical_path_weight: f64,
    /// Sum of all task weights.
    pub total_weight: f64,
    /// `total_weight / critical_path_weight`: the parallelism an infinitely wide machine could
    /// exploit (Amdahl-style bound).
    pub ideal_parallelism: f64,
    /// Maximum number of tasks simultaneously in flight under earliest-start scheduling on
    /// infinite cores.
    pub max_width: usize,
}

/// A record of one task's simulated execution, as reported by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Which task executed.
    pub task: TaskId,
    /// Core the task body ran on.
    pub core: usize,
    /// Cycle at which the task body started executing.
    pub start: u64,
    /// Cycle at which the task body finished executing (before retirement bookkeeping).
    pub end: u64,
}

/// Errors detected by [`ExecutionValidator::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A spawned task never executed.
    MissingTask(TaskId),
    /// A task executed more than once.
    DuplicateTask(TaskId),
    /// A task that was never part of the program appeared in the execution.
    UnknownTask(TaskId),
    /// A record has `end < start`.
    NegativeDuration(TaskId),
    /// A dependence edge was violated: the successor started before the predecessor finished.
    OrderViolation {
        /// The earlier task of the violated edge.
        predecessor: TaskId,
        /// The later task of the violated edge.
        successor: TaskId,
        /// Cycle at which the predecessor finished.
        predecessor_end: u64,
        /// Cycle at which the successor started.
        successor_start: u64,
    },
    /// A task from a later taskwait phase started before an earlier-phase task finished.
    BarrierViolation {
        /// Task from the earlier phase.
        earlier: TaskId,
        /// Task from the later phase that started too soon.
        later: TaskId,
    },
    /// Two records overlap in time on the same core.
    CoreOverlap {
        /// Core on which the overlap happened.
        core: usize,
        /// First of the two overlapping tasks.
        first: TaskId,
        /// Second of the two overlapping tasks.
        second: TaskId,
    },
}

impl core::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ValidationError::MissingTask(t) => write!(f, "task {t} was spawned but never executed"),
            ValidationError::DuplicateTask(t) => write!(f, "task {t} executed more than once"),
            ValidationError::UnknownTask(t) => write!(f, "task {t} is not part of the program"),
            ValidationError::NegativeDuration(t) => write!(f, "task {t} has end before start"),
            ValidationError::OrderViolation { predecessor, successor, predecessor_end, successor_start } => write!(
                f,
                "dependence violated: {successor} started at {successor_start} before {predecessor} finished at {predecessor_end}"
            ),
            ValidationError::BarrierViolation { earlier, later } => {
                write!(f, "taskwait violated: {later} started before {earlier} finished")
            }
            ValidationError::CoreOverlap { core, first, second } => {
                write!(f, "core {core} ran {first} and {second} at overlapping times")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Checks a simulated execution against a program's sequential semantics.
#[derive(Debug, Clone)]
pub struct ExecutionValidator {
    graph: DepGraph,
}

impl ExecutionValidator {
    /// Creates a validator for a program.
    pub fn new(program: &TaskProgram) -> Self {
        ExecutionValidator { graph: program.reference_graph() }
    }

    /// Validates an execution trace, in time linear in tasks and edges plus a sort of the
    /// records by core and start.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: every task executes exactly once, dependence edges and
    /// taskwait phases are honoured, and no core runs two task bodies at once. Of several
    /// barrier violations the one with the lowest earlier task, then the lowest later task, is
    /// reported; of several overlaps, the lowest core's first.
    pub fn check(&self, records: &[ExecRecord]) -> Result<(), ValidationError> {
        let recs = self.records_by_task(records)?;
        self.check_edges(&recs)?;
        self.check_phases(&recs)?;
        check_cores(recs)
    }

    /// Each task's record, in task order, after checking that every record names a task of the
    /// program, has a non-negative duration and is the only one of its task, and that no task
    /// lacks one.
    fn records_by_task(&self, records: &[ExecRecord]) -> Result<Vec<ExecRecord>, ValidationError> {
        let n = self.graph.task_count();
        let mut by_task: Vec<Option<ExecRecord>> = vec![None; n];
        for r in records {
            let idx = r.task.raw() as usize;
            if idx >= n {
                return Err(ValidationError::UnknownTask(r.task));
            }
            if r.end < r.start {
                return Err(ValidationError::NegativeDuration(r.task));
            }
            if by_task[idx].is_some() {
                return Err(ValidationError::DuplicateTask(r.task));
            }
            by_task[idx] = Some(*r);
        }
        by_task
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or(ValidationError::MissingTask(TaskId(i as u64))))
            .collect()
    }

    /// Checks that no task started before a predecessor of it finished.
    fn check_edges(&self, recs: &[ExecRecord]) -> Result<(), ValidationError> {
        for (i, p) in recs.iter().enumerate() {
            for s in self.graph.successors(TaskId(i as u64)) {
                let c = recs[s.raw() as usize];
                if c.start < p.end {
                    return Err(ValidationError::OrderViolation {
                        predecessor: TaskId(i as u64),
                        successor: s,
                        predecessor_end: p.end,
                        successor_start: c.start,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks that no task started before a task of an earlier phase finished. Phases never
    /// decrease in spawn order, so the tasks of phases later than task `i`'s are a suffix of
    /// the tasks, and `i` is violated exactly when the earliest start in that suffix comes
    /// before `i` ends.
    fn check_phases(&self, recs: &[ExecRecord]) -> Result<(), ValidationError> {
        let phase = &self.graph.phase;
        debug_assert!(phase.windows(2).all(|p| p[0] <= p[1]), "phases follow spawn order");
        let n = recs.len();
        let mut earliest_start = vec![u64::MAX; n + 1];
        for i in (0..n).rev() {
            earliest_start[i] = earliest_start[i + 1].min(recs[i].start);
        }
        let mut later = 0;
        for (i, r) in recs.iter().enumerate() {
            while later < n && phase[later] <= phase[i] {
                later += 1;
            }
            if earliest_start[later] < r.end {
                let j = (later..n).find(|&j| recs[j].start < r.end).expect("the suffix holds the earliest start");
                return Err(ValidationError::BarrierViolation { earlier: TaskId(i as u64), later: TaskId(j as u64) });
            }
        }
        Ok(())
    }
}

/// Checks that no core ran two task bodies at once: each core's records in start order, cores
/// in index order.
fn check_cores(mut recs: Vec<ExecRecord>) -> Result<(), ValidationError> {
    recs.sort_by_key(|r| (r.core, r.start));
    for pair in recs.windows(2) {
        // Zero-length records (empty payloads) may share a start cycle.
        if pair[0].core == pair[1].core && pair[1].start < pair[0].end {
            return Err(ValidationError::CoreOverlap { core: pair[0].core, first: pair[0].task, second: pair[1].task });
        }
    }
    Ok(())
}

/// The reference graph as [`DepGraph::from_program`] built it before the [`FrontierWalker`]:
/// a `Vec` of successors per task and a `Vec` of readers per address, kept as the oracle of
/// the walker's differential property test.
#[cfg(test)]
struct ReferenceGraph {
    successors: Vec<Vec<usize>>,
    predecessor_count: Vec<usize>,
    phase: Vec<usize>,
    edge_count: usize,
}

#[cfg(test)]
impl ReferenceGraph {
    fn from_program(program: &TaskProgram) -> Self {
        let n = program.task_count();
        let mut g = ReferenceGraph {
            successors: vec![Vec::new(); n],
            predecessor_count: vec![0; n],
            phase: vec![0; n],
            edge_count: 0,
        };
        #[derive(Default)]
        struct AddrState {
            last_writer: Option<usize>,
            readers_since_write: Vec<usize>,
        }
        let mut addr_state: FxHashMap<DepAddr, AddrState> = FxHashMap::default();
        let mut current_phase = 0usize;
        let add_edge = |g: &mut ReferenceGraph, from: usize, to: usize| {
            if !g.successors[from].contains(&to) {
                g.successors[from].push(to);
                g.predecessor_count[to] += 1;
                g.edge_count += 1;
            }
        };
        for op in program.ops() {
            match op {
                ProgramOp::TaskWait => current_phase += 1,
                ProgramOp::Spawn(spec) => {
                    let idx = spec.id.raw() as usize;
                    g.phase[idx] = current_phase;
                    for dep in &spec.deps {
                        let st = addr_state.entry(dep.addr).or_default();
                        if dep.dir.reads() {
                            if let Some(w) = st.last_writer {
                                add_edge(&mut g, w, idx);
                            }
                        }
                        if dep.dir.writes() {
                            if let Some(w) = st.last_writer {
                                add_edge(&mut g, w, idx);
                            }
                            for &r in &st.readers_since_write {
                                if r != idx {
                                    add_edge(&mut g, r, idx);
                                }
                            }
                        }
                        if dep.dir.writes() {
                            st.last_writer = Some(idx);
                            st.readers_since_write.clear();
                            if dep.dir.reads() {
                                st.readers_since_write.push(idx);
                            }
                        } else {
                            st.readers_since_write.push(idx);
                        }
                    }
                }
            }
        }
        g
    }
}

#[cfg(test)]
impl ExecutionValidator {
    /// The all-pairs check that [`ExecutionValidator::check`] replaced, kept as the reference of
    /// its property test. It visits cores in index order (a `BTreeMap`), where it visited them
    /// in a randomly seeded `HashMap`'s order and so reported an arbitrary core's overlap.
    fn reference_check(&self, records: &[ExecRecord]) -> Result<(), ValidationError> {
        let n = self.graph.task_count();
        let mut by_task: Vec<Option<ExecRecord>> = vec![None; n];
        for r in records {
            let idx = r.task.raw() as usize;
            if idx >= n {
                return Err(ValidationError::UnknownTask(r.task));
            }
            if r.end < r.start {
                return Err(ValidationError::NegativeDuration(r.task));
            }
            if by_task[idx].is_some() {
                return Err(ValidationError::DuplicateTask(r.task));
            }
            by_task[idx] = Some(*r);
        }
        for (i, slot) in by_task.iter().enumerate() {
            if slot.is_none() {
                return Err(ValidationError::MissingTask(TaskId(i as u64)));
            }
        }
        let rec = |i: usize| by_task[i].expect("verified present above");
        for i in 0..n {
            for s in self.graph.successors(TaskId(i as u64)) {
                let p = rec(i);
                let c = rec(s.raw() as usize);
                if c.start < p.end {
                    return Err(ValidationError::OrderViolation {
                        predecessor: TaskId(i as u64),
                        successor: s,
                        predecessor_end: p.end,
                        successor_start: c.start,
                    });
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                if self.graph.phase(TaskId(j as u64)) > self.graph.phase(TaskId(i as u64))
                    && rec(j).start < rec(i).end
                {
                    return Err(ValidationError::BarrierViolation {
                        earlier: TaskId(i as u64),
                        later: TaskId(j as u64),
                    });
                }
            }
        }
        let mut by_core: std::collections::BTreeMap<usize, Vec<ExecRecord>> = std::collections::BTreeMap::new();
        for r in by_task.iter().flatten() {
            by_core.entry(r.core).or_default().push(*r);
        }
        for (core, mut recs) in by_core {
            recs.sort_by_key(|r| r.start);
            for pair in recs.windows(2) {
                if pair[1].start < pair[0].end {
                    return Err(ValidationError::CoreOverlap { core, first: pair[0].task, second: pair[1].task });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::Dependence;
    use crate::program::ProgramBuilder;
    use crate::task::Payload;

    /// a writes X; b reads X (RAW); c reads X (no dep on b); d writes X (WAR on b and c, WAW on a).
    fn diamond() -> TaskProgram {
        let mut b = ProgramBuilder::new("diamond");
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xA)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xA)]);
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA)]);
        b.build()
    }

    #[test]
    fn raw_war_waw_edges() {
        let g = diamond().reference_graph();
        assert!(g.has_edge(TaskId(0), TaskId(1)), "RAW");
        assert!(g.has_edge(TaskId(0), TaskId(2)), "RAW");
        assert!(!g.has_edge(TaskId(1), TaskId(2)), "read-read must not create an edge");
        assert!(g.has_edge(TaskId(1), TaskId(3)), "WAR");
        assert!(g.has_edge(TaskId(2), TaskId(3)), "WAR");
        assert!(g.has_edge(TaskId(0), TaskId(3)), "WAW");
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.predecessor_count(TaskId(0)), 0);
        assert_eq!(g.predecessor_count(TaskId(3)), 3);
    }

    #[test]
    fn independent_tasks_have_no_edges() {
        let mut b = ProgramBuilder::new("indep");
        for i in 0..8u64 {
            b.spawn(Payload::compute(5), vec![Dependence::write(0x100 + i * 8)]);
        }
        let g = b.build().reference_graph();
        assert_eq!(g.edge_count(), 0);
        assert!((0..8).all(|i| g.predecessor_count(TaskId(i)) == 0));
        let stats = g.stats(&[1.0; 8]);
        assert_eq!(stats.max_width, 8);
        assert!((stats.ideal_parallelism - 8.0).abs() < 1e-9);
    }

    #[test]
    fn chain_has_linear_critical_path() {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..6 {
            b.spawn(Payload::compute(7), vec![Dependence::read_write(0x40)]);
        }
        let g = b.build().reference_graph();
        assert_eq!(g.edge_count(), 5);
        let stats = g.stats(&[7.0; 6]);
        assert!((stats.critical_path_weight - 42.0).abs() < 1e-9);
        assert!((stats.ideal_parallelism - 1.0).abs() < 1e-9);
        assert_eq!(stats.max_width, 1);
    }

    #[test]
    fn taskwait_partitions_phases() {
        let mut b = ProgramBuilder::new("phases");
        b.spawn(Payload::compute(1), vec![Dependence::write(0x1)]);
        b.taskwait();
        b.spawn(Payload::compute(1), vec![Dependence::write(0x2)]);
        let p = b.build();
        let g = p.reference_graph();
        assert_eq!(g.phase(TaskId(0)), 0);
        assert_eq!(g.phase(TaskId(1)), 1);
        assert_eq!(g.edge_count(), 0, "barrier ordering is a phase, not a data edge");
        let stats = g.stats(&[1.0, 1.0]);
        assert_eq!(stats.phases, 2);
        assert!((stats.critical_path_weight - 2.0).abs() < 1e-9, "barrier serialises the two tasks");
    }

    #[test]
    fn validator_accepts_serial_execution() {
        let p = diamond();
        let v = ExecutionValidator::new(&p);
        let recs: Vec<ExecRecord> = (0..4)
            .map(|i| ExecRecord { task: TaskId(i), core: 0, start: i * 10, end: i * 10 + 10 })
            .collect();
        assert_eq!(v.check(&recs), Ok(()));
    }

    #[test]
    fn validator_detects_order_violation() {
        let p = diamond();
        let v = ExecutionValidator::new(&p);
        let recs = vec![
            ExecRecord { task: TaskId(0), core: 0, start: 0, end: 10 },
            ExecRecord { task: TaskId(1), core: 1, start: 5, end: 15 }, // starts before T0 ends
            ExecRecord { task: TaskId(2), core: 2, start: 10, end: 20 },
            ExecRecord { task: TaskId(3), core: 0, start: 30, end: 40 },
        ];
        match v.check(&recs) {
            Err(ValidationError::OrderViolation { predecessor, successor, .. }) => {
                assert_eq!(predecessor, TaskId(0));
                assert_eq!(successor, TaskId(1));
            }
            other => panic!("expected OrderViolation, got {other:?}"),
        }
    }

    #[test]
    fn validator_detects_missing_duplicate_unknown_and_overlap() {
        let p = diamond();
        let v = ExecutionValidator::new(&p);
        // Missing task 3.
        let recs: Vec<ExecRecord> = (0..3)
            .map(|i| ExecRecord { task: TaskId(i), core: 0, start: i * 10, end: i * 10 + 10 })
            .collect();
        assert_eq!(v.check(&recs), Err(ValidationError::MissingTask(TaskId(3))));
        // Duplicate.
        let mut dup: Vec<ExecRecord> = (0..4)
            .map(|i| ExecRecord { task: TaskId(i), core: 0, start: i * 10, end: i * 10 + 10 })
            .collect();
        dup.push(ExecRecord { task: TaskId(2), core: 1, start: 100, end: 110 });
        assert_eq!(v.check(&dup), Err(ValidationError::DuplicateTask(TaskId(2))));
        // Unknown.
        let mut unk = dup.clone();
        unk.pop();
        unk.push(ExecRecord { task: TaskId(77), core: 1, start: 100, end: 110 });
        assert_eq!(v.check(&unk), Err(ValidationError::UnknownTask(TaskId(77))));
        // Core overlap (independent tasks on the same core at the same time).
        let mut b = ProgramBuilder::new("overlap");
        b.spawn(Payload::compute(10), vec![]);
        b.spawn(Payload::compute(10), vec![]);
        let v2 = ExecutionValidator::new(&b.build());
        let recs = vec![
            ExecRecord { task: TaskId(0), core: 0, start: 0, end: 10 },
            ExecRecord { task: TaskId(1), core: 0, start: 5, end: 15 },
        ];
        match v2.check(&recs) {
            Err(ValidationError::CoreOverlap { core: 0, .. }) => {}
            other => panic!("expected CoreOverlap, got {other:?}"),
        }
    }

    #[test]
    fn of_several_overlaps_the_lowest_core_is_reported() {
        let mut b = ProgramBuilder::new("overlaps");
        for _ in 0..4 {
            b.spawn(Payload::compute(10), vec![]);
        }
        let v = ExecutionValidator::new(&b.build());
        let recs = vec![
            ExecRecord { task: TaskId(0), core: 3, start: 0, end: 10 },
            ExecRecord { task: TaskId(1), core: 3, start: 5, end: 15 },
            ExecRecord { task: TaskId(2), core: 1, start: 0, end: 10 },
            ExecRecord { task: TaskId(3), core: 1, start: 5, end: 15 },
        ];
        assert_eq!(
            v.check(&recs),
            Err(ValidationError::CoreOverlap { core: 1, first: TaskId(2), second: TaskId(3) })
        );
    }

    #[test]
    fn validator_detects_barrier_violation() {
        let mut b = ProgramBuilder::new("barrier");
        b.spawn(Payload::compute(10), vec![Dependence::write(0x1)]);
        b.taskwait();
        b.spawn(Payload::compute(10), vec![Dependence::write(0x2)]);
        let v = ExecutionValidator::new(&b.build());
        let recs = vec![
            ExecRecord { task: TaskId(0), core: 0, start: 0, end: 10 },
            ExecRecord { task: TaskId(1), core: 1, start: 5, end: 15 },
        ];
        match v.check(&recs) {
            Err(ValidationError::BarrierViolation { earlier, later }) => {
                assert_eq!(earlier, TaskId(0));
                assert_eq!(later, TaskId(1));
            }
            other => panic!("expected BarrierViolation, got {other:?}"),
        }
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError::OrderViolation {
            predecessor: TaskId(1),
            successor: TaskId(2),
            predecessor_end: 50,
            successor_start: 40,
        };
        let s = e.to_string();
        assert!(s.contains("T1") && s.contains("T2") && s.contains("50") && s.contains("40"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::dep::{Dependence, Direction};
    use crate::program::ProgramBuilder;
    use crate::task::Payload;
    use proptest::prelude::*;

    fn arbitrary_program(max_tasks: usize, max_addrs: u64) -> impl Strategy<Value = TaskProgram> {
        arbitrary_program_with(max_tasks, max_addrs, 5)
    }

    fn arbitrary_program_with(
        max_tasks: usize,
        max_addrs: u64,
        max_deps: usize,
    ) -> impl Strategy<Value = TaskProgram> {
        let task = (
            proptest::collection::vec((0..max_addrs, 0..3u8), 0..max_deps),
            1u64..50,
            proptest::bool::ANY,
        );
        proptest::collection::vec(task, 1..max_tasks).prop_map(|tasks| {
            let mut b = ProgramBuilder::new("prop");
            for (deps, cycles, wait) in tasks {
                let mut seen = std::collections::HashSet::new();
                let deps: Vec<Dependence> = deps
                    .into_iter()
                    .filter(|(a, _)| seen.insert(*a))
                    .map(|(a, d)| {
                        let dir = match d {
                            0 => Direction::In,
                            1 => Direction::Out,
                            _ => Direction::InOut,
                        };
                        Dependence::new(0x1000 + a * 64, dir)
                    })
                    .collect();
                b.spawn(Payload::compute(cycles), deps);
                if wait {
                    b.taskwait();
                }
            }
            b.build()
        })
    }

    proptest! {
        /// Edges only ever point forward in program order and never exceed the all-pairs bound.
        #[test]
        fn edges_point_forward(p in arbitrary_program(24, 6)) {
            let g = p.reference_graph();
            let n = g.task_count();
            for i in 0..n {
                for s in g.successors(TaskId(i as u64)) {
                    prop_assert!(s.raw() as usize > i);
                }
            }
            prop_assert!(g.edge_count() <= n * (n - 1) / 2);
        }

        /// Executing tasks serially, in program order, is always a valid schedule — the defining
        /// property of sequential semantics.
        #[test]
        fn serial_order_is_always_valid(p in arbitrary_program(24, 6)) {
            let v = ExecutionValidator::new(&p);
            let mut t = 0u64;
            let mut recs = Vec::new();
            for spec in p.tasks() {
                let d = spec.payload.compute_cycles.max(1);
                recs.push(ExecRecord { task: spec.id, core: 0, start: t, end: t + d });
                t += d;
            }
            prop_assert_eq!(v.check(&recs), Ok(()));
        }

        /// The linear-time validator reports exactly what the all-pairs reference reports, on
        /// serial schedules spread over four cores with planted violations of every kind:
        /// shifted starts and ends (order, barrier and overlap violations, negative durations),
        /// moved cores, and dropped, duplicated and unknown records.
        #[test]
        fn validator_matches_the_all_pairs_reference(
            p in arbitrary_program(24, 6),
            plants in proptest::collection::vec((0u8..8, any::<u64>(), 0u64..60), 0..4),
        ) {
            let v = ExecutionValidator::new(&p);
            let mut t = 0u64;
            let mut recs: Vec<ExecRecord> = Vec::new();
            for (i, spec) in p.tasks().enumerate() {
                let d = spec.payload.compute_cycles.max(1);
                recs.push(ExecRecord { task: spec.id, core: i % 4, start: t, end: t + d });
                t += d;
            }
            prop_assert_eq!(v.check(&recs), Ok(()));
            for (kind, pick, amount) in plants {
                let i = (pick % recs.len() as u64) as usize;
                let n = p.task_count() as u64;
                match kind {
                    0 => recs[i].start = recs[i].start.saturating_sub(amount),
                    1 => recs[i].end += amount,
                    2 => recs[i].start += amount,
                    3 => recs[i].core = (pick >> 8) as usize % 4,
                    4 => {
                        recs.remove(i);
                        if recs.is_empty() {
                            break;
                        }
                    }
                    5 => recs.push(recs[i]),
                    6 => recs.push(ExecRecord { task: TaskId(n + amount), ..recs[i] }),
                    _ => {
                        // Run a later task alongside an earlier one on its core.
                        let j = (pick >> 8) as usize % recs.len();
                        let (a, b) = (recs[i.min(j)], i.max(j));
                        recs[b].core = a.core;
                        recs[b].start = a.start + amount % (a.end - a.start).max(1);
                    }
                }
            }
            prop_assert_eq!(v.check(&recs), v.reference_check(&recs));
        }

        /// The walker-built graph equals the per-address-`Vec` reference build: the same
        /// successor rows (ascending), predecessor counts, phases and edge count, on programs of
        /// 1–60 tasks with 0–6 dependences over 6 addresses in every direction, with taskwaits.
        #[test]
        fn walker_graph_matches_the_reference_build(p in arbitrary_program_with(61, 6, 7)) {
            let g = p.reference_graph();
            let r = ReferenceGraph::from_program(&p);
            prop_assert_eq!(g.task_count(), r.successors.len());
            prop_assert_eq!(g.edge_count(), r.edge_count);
            prop_assert_eq!(g.phases(), &r.phase[..]);
            for (i, row) in r.successors.iter().enumerate() {
                let id = TaskId(i as u64);
                let got: Vec<usize> = g.successors(id).map(|s| s.raw() as usize).collect();
                prop_assert_eq!(&got, row);
                prop_assert_eq!(g.predecessor_count(id), r.predecessor_count[i]);
                for &s in row {
                    prop_assert!(g.has_edge(id, TaskId(s as u64)));
                }
            }
        }

        /// The critical path never exceeds the total weight and parallelism is at least 1.
        #[test]
        fn critical_path_bounds(p in arbitrary_program(24, 6)) {
            let g = p.reference_graph();
            let weights: Vec<f64> = p.tasks().map(|t| t.payload.compute_cycles as f64).collect();
            let s = g.stats(&weights);
            prop_assert!(s.critical_path_weight <= s.total_weight + 1e-9);
            prop_assert!(s.ideal_parallelism >= 1.0 - 1e-9);
            prop_assert!(s.max_width >= 1);
            prop_assert!(s.max_width <= s.tasks);
        }
    }
}
