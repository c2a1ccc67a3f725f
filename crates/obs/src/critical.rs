//! The critical-path profiler: attributes every makespan cycle to a cause.
//!
//! Walks the *executed* happens-before graph backwards from the last retirement: at each hop
//! the profiler cuts the remaining window into segments — task body, payload memory stall,
//! dispatch wait, scheduler overhead — then jumps to the latest-retiring predecessor (the edge
//! that actually gated the task) and repeats. The dependence edges are the same
//! happens-before edges `tis-analyze` derives for its vector-clock race detector
//! (`GraphSpec::from_program(...).edges`); callers pass them in so this crate stays below the
//! analysis layer.
//!
//! The decomposition is machine-checked: segments are constructed as a gap-free partition of
//! `[0, makespan)`, so their sum equals the makespan *exactly* — [`critical_path`] asserts it
//! and [`CriticalPath::total`] lets tests re-assert it.

use crate::span::TaskSpan;
use tis_sim::{Cycle, FxHashMap};

/// What a stretch of the critical path was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathCategory {
    /// Private computation inside a task body.
    TaskBody,
    /// DRAM-bandwidth share of a task body (the payload's memory transfer time).
    MemoryStall,
    /// A ready task waiting to be fetched by a core (ready-queue residence + the NoC/fabric
    /// round trips of the work-fetch path).
    DispatchWait,
    /// Everything the scheduler adds: submission, dependence resolution and ready
    /// publication, fetch-to-body overhead, retirement notification, and end-of-run
    /// wind-down.
    Scheduler,
}

impl PathCategory {
    /// Short stable label used in JSON and tables.
    pub fn label(self) -> &'static str {
        match self {
            PathCategory::TaskBody => "task-body",
            PathCategory::MemoryStall => "memory-stall",
            PathCategory::DispatchWait => "dispatch-wait",
            PathCategory::Scheduler => "scheduler",
        }
    }
}

/// One contiguous stretch of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// Start cycle (inclusive).
    pub start: Cycle,
    /// End cycle (exclusive); `end - start` is the segment's weight.
    pub end: Cycle,
    /// Attribution.
    pub category: PathCategory,
    /// The task this segment belongs to, when one does (`None` for the pre-first-task prefix
    /// and the post-last-retire tail).
    pub task: Option<u64>,
}

impl PathSegment {
    /// Segment weight in cycles.
    pub fn cycles(&self) -> Cycle {
        self.end - self.start
    }
}

/// The machine-checked decomposition of a run's makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// The makespan that was decomposed.
    pub makespan: Cycle,
    /// Segments in increasing time order, partitioning `[0, makespan)` without gaps.
    pub segments: Vec<PathSegment>,
    /// Cycles attributed to task bodies (private compute).
    pub task_body: Cycle,
    /// Cycles attributed to payload DRAM transfers.
    pub memory_stall: Cycle,
    /// Cycles attributed to ready tasks waiting for a core.
    pub dispatch_wait: Cycle,
    /// Cycles attributed to scheduler overhead.
    pub scheduler: Cycle,
}

impl CriticalPath {
    /// Sum of all four category totals — always exactly the makespan.
    pub fn total(&self) -> Cycle {
        self.task_body + self.memory_stall + self.dispatch_wait + self.scheduler
    }

    /// Fraction of the makespan attributed to the given category (0 for an empty run).
    pub fn fraction(&self, category: PathCategory) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let cycles = match category {
            PathCategory::TaskBody => self.task_body,
            PathCategory::MemoryStall => self.memory_stall,
            PathCategory::DispatchWait => self.dispatch_wait,
            PathCategory::Scheduler => self.scheduler,
        };
        cycles as f64 / self.makespan as f64
    }

    /// The tasks on the critical path, in execution order.
    pub fn tasks(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for seg in &self.segments {
            if let Some(t) = seg.task {
                if out.last() != Some(&t) {
                    out.push(t);
                }
            }
        }
        out.dedup();
        out
    }

    /// Renders a small human-readable table of the decomposition.
    pub fn render_table(&self) -> String {
        use PathCategory::*;
        let mut s = String::from("critical path (cycles, % of makespan)\n");
        for (cat, cycles) in [
            (TaskBody, self.task_body),
            (MemoryStall, self.memory_stall),
            (DispatchWait, self.dispatch_wait),
            (Scheduler, self.scheduler),
        ] {
            s.push_str(&format!(
                "  {:<14} {:>12}  {:>6.2}%\n",
                cat.label(),
                cycles,
                100.0 * self.fraction(cat)
            ));
        }
        s.push_str(&format!("  {:<14} {:>12}  100.00%\n", "makespan", self.makespan));
        s
    }
}

/// Why a run cannot be critical-path profiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CriticalPathError {
    /// The run retired tasks but the trace holds no complete span for any of them. This is
    /// the signature of a *streamed* run profiled without task tracing (records off, no
    /// observer): the walk would have nothing to anchor on and would silently attribute the
    /// entire makespan to [`PathCategory::Scheduler`] — a decomposition that type-checks but
    /// means nothing. Re-run with an observer attached to profile a streamed cell.
    NoObservedSpans {
        /// How many tasks the unprofileable run retired.
        tasks_retired: u64,
    },
}

impl std::fmt::Display for CriticalPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CriticalPathError::NoObservedSpans { tasks_retired } => write!(
                f,
                "run retired {tasks_retired} tasks but the trace observed none of them \
                 (streamed records-off run?) — a critical-path decomposition would be \
                 all-scheduler noise; attach an observer to profile this run"
            ),
        }
    }
}

impl std::error::Error for CriticalPathError {}

/// The checked front door to [`critical_path`] for whole-run profiling: `tasks_retired`
/// comes from the run's `ExecutionReport`, and a run that retired tasks the trace never saw
/// — a streamed records-off run — is rejected with a typed error instead of decomposed into
/// meaningless all-scheduler segments.
///
/// # Errors
///
/// [`CriticalPathError::NoObservedSpans`] when `tasks_retired > 0` but no span is complete
/// (executed and retired).
pub fn critical_path_for_run(
    spans: &[TaskSpan],
    edges: &[(usize, usize)],
    makespan: Cycle,
    tasks_retired: u64,
) -> Result<CriticalPath, CriticalPathError> {
    let complete = spans.iter().any(|s| s.retire.is_some() && s.exec_start.is_some());
    if tasks_retired > 0 && !complete {
        return Err(CriticalPathError::NoObservedSpans { tasks_retired });
    }
    Ok(critical_path(spans, edges, makespan))
}

/// Per-tenant critical-path decomposition of a multi-tenant run.
///
/// A co-scheduled run merges N independent task graphs into one span stream under *global*
/// task ids; profiling the merged stream as one program attributes every tenant's gating to a
/// single fictitious critical chain. This splits the spans by the run's tenant `assignment`
/// (global id → tenant, as recovered from the multi-tenant source after the run), remaps each
/// tenant's global ids back to its local id space — global ids are handed out densely in
/// release order, and release order preserves each tenant's own spawn order, so tenant `t`'s
/// `k`-th smallest global id is its local task `k` — and decomposes each tenant over its *own*
/// makespan (the retire cycle of its last observed task) against its *own* dependence edges.
///
/// `tenant_edges[t]` are the `(from, to)` local-id dependence pairs of tenant `t` (empty for
/// tenants whose graphs are not materialized); the returned vector has one decomposition per
/// entry of `tenant_edges`, in tenant order.
pub fn critical_path_per_tenant(
    spans: &[TaskSpan],
    assignment: &[u32],
    tenant_edges: &[Vec<(usize, usize)>],
) -> Vec<CriticalPath> {
    let tenants = tenant_edges.len();
    // Local id of every global id, derived from the dense release-order assignment (global
    // ids index it directly).
    let mut counters = vec![0u64; tenants];
    let locals: Vec<u64> = assignment
        .iter()
        .map(|&t| {
            counters.get_mut(t as usize).map_or(0, |next| {
                *next += 1;
                *next - 1
            })
        })
        .collect();
    let mut per_tenant: Vec<Vec<TaskSpan>> = vec![Vec::new(); tenants];
    for s in spans {
        let Some(&t) = assignment.get(s.task as usize) else { continue };
        let t = t as usize;
        if t >= tenants {
            continue;
        }
        let mut local = *s;
        local.task = locals[s.task as usize];
        per_tenant[t].push(local);
    }
    per_tenant
        .iter()
        .zip(tenant_edges)
        .map(|(spans, edges)| {
            let makespan = spans.iter().filter_map(|s| s.retire).max().unwrap_or(0);
            critical_path(spans, edges, makespan)
        })
        .collect()
}

/// Decomposes `makespan` over the executed happens-before graph.
///
/// `spans` are the observed task lifecycles; `edges` are `(from, to)` dependence pairs over
/// task ids (`to` may not dispatch before `from` retires). Tasks never observed executing are
/// ignored; time before the critical chain's first observable stage and any window the chain
/// cannot explain are attributed to [`PathCategory::Scheduler`] (the scheduler owns the
/// machine whenever no traced task does).
///
/// # Panics
///
/// Panics if the constructed segments fail to partition `[0, makespan)` exactly — the
/// machine-check this profiler exists to provide.
pub fn critical_path(spans: &[TaskSpan], edges: &[(usize, usize)], makespan: Cycle) -> CriticalPath {
    let by_task: FxHashMap<u64, &TaskSpan> = spans.iter().map(|s| (s.task, s)).collect();
    // Predecessor lists over tasks that actually executed.
    let mut preds: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
    for &(from, to) in edges {
        preds.entry(to as u64).or_default().push(from as u64);
    }

    let mut segments: Vec<PathSegment> = Vec::new();
    let mut cursor = makespan;
    // Cut `[max(at, …), cursor)` off the remaining window. Clamping keeps the partition exact
    // even if a span stamp lands outside the remaining window (e.g. a deferred retirement
    // applied after a lagging core's submission).
    let mut cut = |cursor: &mut Cycle, at: Cycle, category: PathCategory, task: Option<u64>| {
        let start = at.min(*cursor);
        if start < *cursor {
            segments.push(PathSegment { start, end: *cursor, category, task });
            *cursor = start;
        }
    };

    let complete = |s: &&TaskSpan| -> bool { s.retire.is_some() && s.exec_start.is_some() };
    // Deterministic choice: latest retirement, ties broken by task id.
    let mut current = spans
        .iter()
        .filter(complete)
        .max_by_key(|s| (s.retire, s.task))
        .map(|s| s.task);

    while let Some(task) = current {
        let span = by_task[&task];
        let t = Some(task);
        if let Some(retire) = span.retire {
            cut(&mut cursor, retire, PathCategory::Scheduler, None);
        }
        let (start, end) = (span.exec_start.unwrap_or(cursor), span.exec_end.unwrap_or(cursor));
        cut(&mut cursor, end, PathCategory::Scheduler, t);
        let mem = span.payload_mem_cycles.min(end.saturating_sub(start));
        cut(&mut cursor, end.saturating_sub(mem).max(start), PathCategory::MemoryStall, t);
        cut(&mut cursor, start, PathCategory::TaskBody, t);
        if let Some(dispatch) = span.dispatch {
            cut(&mut cursor, dispatch, PathCategory::Scheduler, t);
        }
        if let Some(ready) = span.ready {
            cut(&mut cursor, ready, PathCategory::DispatchWait, t);
        }
        // Hop to the predecessor whose retirement gated this task's readiness.
        current = preds
            .get(&task)
            .into_iter()
            .flatten()
            .filter_map(|p| by_task.get(p).copied())
            .filter(complete)
            .max_by_key(|s| (s.retire, s.task))
            .map(|s| s.task);
        if current.is_some() {
            // The gap between the predecessor's retirement and this task's readiness is the
            // tracker's wake/publish pipeline.
            continue;
        }
        if let Some(submit) = span.submit {
            cut(&mut cursor, submit, PathCategory::Scheduler, t);
        }
    }
    // Whatever precedes the chain's first stamp: submission loop, program setup.
    cut(&mut cursor, 0, PathCategory::Scheduler, None);
    segments.reverse();

    let mut totals = [0u64; 4];
    for seg in &segments {
        let i = match seg.category {
            PathCategory::TaskBody => 0,
            PathCategory::MemoryStall => 1,
            PathCategory::DispatchWait => 2,
            PathCategory::Scheduler => 3,
        };
        totals[i] += seg.cycles();
    }
    let path = CriticalPath {
        makespan,
        segments,
        task_body: totals[0],
        memory_stall: totals[1],
        dispatch_wait: totals[2],
        scheduler: totals[3],
    };
    assert_eq!(
        path.total(),
        makespan,
        "critical-path segments must partition the makespan exactly"
    );
    let mut expected_start = 0;
    for seg in &path.segments {
        assert_eq!(seg.start, expected_start, "segments must be gap-free");
        expected_start = seg.end;
    }
    assert_eq!(expected_start, makespan, "segments must end at the makespan");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn span(task: u64, submit: u64, ready: u64, dispatch: u64, start: u64, end: u64, retire: u64, mem: u64) -> TaskSpan {
        TaskSpan {
            task,
            core: Some(0),
            submit: Some(submit),
            ready: Some(ready),
            dispatch: Some(dispatch),
            exec_start: Some(start),
            exec_end: Some(end),
            retire: Some(retire),
            payload_mem_cycles: mem,
        }
    }

    #[test]
    fn a_two_task_chain_decomposes_exactly() {
        // task 0: submit 0, ready 10, dispatch 15, body 20..120 (30 mem), retire 125
        // task 1: ready 135 (woken by 0), dispatch 140, body 145..245, retire 250
        let spans = [
            span(0, 0, 10, 15, 20, 120, 125, 30),
            span(1, 2, 135, 140, 145, 245, 250, 0),
        ];
        let cp = critical_path(&spans, &[(0, 1)], 260);
        assert_eq!(cp.total(), 260);
        assert_eq!(cp.task_body, (120 - 20 - 30) + (245 - 145));
        assert_eq!(cp.memory_stall, 30);
        // task 0 waited 15-10, task 1 waited 140-135.
        assert_eq!(cp.dispatch_wait, 10);
        assert_eq!(cp.tasks(), vec![0, 1]);
        // Scheduler picks up everything else, including the 250..260 tail and 125..135 wake.
        assert_eq!(cp.scheduler, 260 - cp.task_body - cp.memory_stall - cp.dispatch_wait);
    }

    #[test]
    fn independent_tasks_follow_only_the_last_retiree() {
        let spans = [
            span(0, 0, 5, 6, 10, 50, 55, 0),
            span(1, 1, 5, 7, 12, 90, 95, 0),
        ];
        let cp = critical_path(&spans, &[], 100);
        assert_eq!(cp.total(), 100);
        assert_eq!(cp.tasks(), vec![1]);
        assert_eq!(cp.task_body, 90 - 12);
    }

    #[test]
    fn empty_run_is_pure_scheduler() {
        let cp = critical_path(&[], &[], 42);
        assert_eq!(cp.total(), 42);
        assert_eq!(cp.scheduler, 42);
        assert_eq!(cp.segments.len(), 1);
        assert!(cp.tasks().is_empty());
    }

    #[test]
    fn clamping_survives_overlapping_stamps() {
        // Predecessor retires *after* the successor's ready stamp (deferred retirement applied
        // late): the walk must still produce an exact partition.
        let spans = [
            span(0, 0, 5, 6, 10, 300, 310, 0),
            span(1, 1, 200, 205, 210, 400, 405, 50),
        ];
        let cp = critical_path(&spans, &[(0, 1)], 410);
        assert_eq!(cp.total(), 410);
    }

    #[test]
    fn streamed_records_off_runs_are_rejected_with_a_typed_error() {
        // 1M retired tasks, zero observed spans: the profiler must refuse, not hand back a
        // 100%-scheduler decomposition.
        let err = critical_path_for_run(&[], &[], 5_000, 1_000_000).unwrap_err();
        assert_eq!(err, CriticalPathError::NoObservedSpans { tasks_retired: 1_000_000 });
        assert!(err.to_string().contains("streamed"), "error must name the cause: {err}");

        // A genuinely empty run (nothing retired) still profiles: all scheduler.
        let cp = critical_path_for_run(&[], &[], 42, 0).unwrap();
        assert_eq!(cp.scheduler, 42);

        // And a traced run goes through unchanged.
        let spans = [span(0, 0, 5, 6, 10, 50, 55, 0)];
        let cp = critical_path_for_run(&spans, &[], 60, 1).unwrap();
        assert_eq!(cp.total(), 60);
        assert_eq!(cp, critical_path(&spans, &[], 60));
    }

    #[test]
    fn per_tenant_decomposition_splits_and_remaps_the_merged_run() {
        // Two round-robin tenants: globals 0,2 belong to tenant 0 (a local chain 0→1),
        // globals 1,3 to tenant 1 (independent local tasks).
        let assignment = [0u32, 1, 0, 1];
        let spans = [
            span(0, 0, 5, 6, 10, 100, 105, 0),
            span(1, 1, 5, 7, 12, 60, 65, 0),
            span(2, 3, 110, 112, 115, 215, 220, 40),
            span(3, 4, 70, 72, 75, 300, 305, 0),
        ];
        let edges = vec![vec![(0usize, 1usize)], Vec::new()];
        let cps = critical_path_per_tenant(&spans, &assignment, &edges);
        assert_eq!(cps.len(), 2);
        // Tenant 0: own makespan is its last retire (220), its chain is local 0 → local 1.
        assert_eq!(cps[0].makespan, 220);
        assert_eq!(cps[0].total(), 220);
        assert_eq!(cps[0].tasks(), vec![0, 1], "global ids 0 and 2 remap to local 0 and 1");
        assert_eq!(cps[0].memory_stall, 40);
        // Tenant 1: independent tasks, the walk follows only its last retiree (global 3 = local 1).
        assert_eq!(cps[1].makespan, 305);
        assert_eq!(cps[1].total(), 305);
        assert_eq!(cps[1].tasks(), vec![1]);
        // A tenant with no observed spans decomposes its zero makespan to nothing.
        let cps = critical_path_per_tenant(&[], &assignment, &edges);
        assert!(cps.iter().all(|c| c.makespan == 0 && c.total() == 0));
    }

    #[test]
    fn render_table_shows_all_categories() {
        let cp = critical_path(&[span(0, 0, 5, 6, 10, 50, 55, 20)], &[], 60);
        let table = cp.render_table();
        for label in ["task-body", "memory-stall", "dispatch-wait", "scheduler", "makespan"] {
            assert!(table.contains(label), "missing {label} in:\n{table}");
        }
    }
}
