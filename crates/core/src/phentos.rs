//! Phentos — the fly-weight Task Scheduling runtime of Section V-B.
//!
//! Phentos was written from scratch to squeeze every cycle out of the tightly-integrated
//! hardware. Its design goals, and how this model realises each of them:
//!
//! 1. **No non-IO syscalls** — the agents below never call [`CoreCtx::syscall`]; waiting is done
//!    with bounded spinning.
//! 2. **Few cache-line invalidations per submission** — task metadata lives in a *Task Metadata
//!    Array* whose elements are exactly one or two cache lines (64 B for up to 7 dependences,
//!    128 B for up to 15), so a submission writes one or two lines and a fetch reads them back.
//! 3. **Few cache-line moves per work fetch** — ready-task identity travels through the RoCC
//!    fabric (registers), not memory; only the metadata element is read.
//! 4. **Inlinable API** — modelled as plain function-call costs (no virtual dispatch).
//! 5. **Minimal writes to shared atomics** — each core keeps a *private* retirement counter and
//!    only folds it into the single shared atomic counter after a number of failed work fetches;
//!    the thread waiting in `taskwait` polls that counter only every few tens of cycles.
//! 6. **No false sharing** — metadata elements are cache-line aligned and the shared counter and
//!    done flag live on their own lines.
//!
//! The only simulated-memory data structures are therefore the metadata array, the shared
//! retirement counter and the done flag; everything else is per-core state.

use tis_machine::fabric::{FabricOutcome, FailedOps, SchedulerFabric};
use tis_machine::{AccessKind, CoreCtx, CoreStatus, PollLoop, PollTouch, RuntimeSystem};
use tis_obs::TaskStage;
use tis_picos::encode_prefix_into;
use tis_sim::Cycle;
use tis_taskmodel::{
    ExecRecord, MaterializedSource, ProgramOp, SourcePoll, TaskProgram, TaskSource, TaskSpec,
};

/// Base simulated address of the Task Metadata Array.
const META_BASE: u64 = 0x9000_0000;
/// Simulated address of the single shared retirement counter (its own cache line).
const SHARED_RETIRE_COUNTER: u64 = 0x9F00_0000;
/// Simulated address of the program-done flag (its own cache line).
const DONE_FLAG: u64 = 0x9F00_0040;

/// Tuning knobs of the Phentos runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhentosConfig {
    /// Number of elements in the Task Metadata Array. Must exceed the number of tasks the
    /// hardware can keep in flight so that slot reuse (sw_id modulo slots) never collides with a
    /// live task.
    pub metadata_slots: usize,
    /// Cycles between two consecutive polls of the shared retirement counter while the main
    /// thread sits in `taskwait` (the paper uses 10–100 depending on the taskwait flavour).
    pub taskwait_poll_interval: Cycle,
    /// Number of consecutive failed work fetches after which a worker folds its private
    /// retirement counter into the shared atomic counter.
    pub flush_after_failures: u32,
    /// Cycles a worker backs off after a failed work fetch before polling again.
    pub worker_backoff: Cycle,
    /// Ablation switch: update the shared retirement counter after **every** retirement instead
    /// of batching through the per-core private counters (design goal 5 disabled). The
    /// `ablation_retirement_counters` bench uses this to quantify the cache-bouncing the private
    /// counters avoid.
    pub eager_shared_counter: bool,
}

impl Default for PhentosConfig {
    fn default() -> Self {
        PhentosConfig {
            metadata_slots: 512,
            taskwait_poll_interval: 50,
            flush_after_failures: 4,
            worker_backoff: 40,
            eager_shared_counter: false,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct WorkerState {
    /// Retirements not yet folded into the shared counter.
    private_retired: u64,
    /// Failed fetches since the last flush.
    failures_since_flush: u32,
    /// Ready-task requests issued but not yet answered by a successful Fetch Picos ID.
    outstanding_requests: u32,
    /// The worker observed the done flag and terminated.
    finished: bool,
    /// The last step was a failed poll that repeats identically (see
    /// [`RuntimeSystem::poll_loop`]).
    poll: Option<PollLoop>,
}

/// The Phentos runtime plugged into the machine engine.
#[derive(Debug)]
pub struct Phentos {
    cfg: PhentosConfig,
    /// Where main-thread ops come from: a [`MaterializedSource`] for built programs, or a true
    /// streaming source holding only `O(window)` descriptors for million-task runs.
    source: Box<dyn TaskSource>,
    /// A pulled-but-not-yet-completed op. Sources consume ops on poll, so a submission that the
    /// saturated hardware rejects parks here and is retried — reproducing the old
    /// cursor-does-not-advance semantics exactly.
    pending: Option<ProgramOp>,
    /// The source answered [`SourcePoll::Done`]; only the final barrier remains.
    source_done: bool,
    element_bytes: u64,
    submitted: u64,
    /// Ground truth of the shared retirement counter's value in simulated memory.
    shared_retired: u64,
    total_retired: u64,
    done: bool,
    workers: Vec<WorkerState>,
    records: Vec<ExecRecord>,
    collect_records: bool,
    /// Scratch buffer for descriptor packets, reused across submissions.
    packet_scratch: Vec<u32>,
}

impl Phentos {
    /// Instantiates Phentos for a program on a machine with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation (a workload-generator bug).
    pub fn new(program: &TaskProgram, cores: usize, cfg: PhentosConfig) -> Self {
        program.validate().expect("program must satisfy the Picos descriptor constraints");
        Phentos::from_source(Box::new(MaterializedSource::new(program)), cores, cfg)
    }

    /// Instantiates Phentos over a streaming [`TaskSource`]: descriptors are pulled on demand
    /// and freed on retire, so memory stays `O(window)` no matter how many tasks the source
    /// streams. Driving a [`MaterializedSource`] through this constructor is byte-identical to
    /// [`Phentos::new`] on the underlying program.
    pub fn from_source(source: Box<dyn TaskSource>, cores: usize, cfg: PhentosConfig) -> Self {
        // Section V-B: one cache line is enough for up to 7 dependences, two for up to 15. A
        // pre-processor macro picks the size per application; we pick it per program, from the
        // source's declared bound (a stream cannot be scanned up front).
        let element_bytes = if source.max_deps() <= 7 { 64 } else { 128 };
        Phentos {
            cfg,
            source,
            pending: None,
            source_done: false,
            element_bytes,
            submitted: 0,
            shared_retired: 0,
            total_retired: 0,
            done: false,
            workers: vec![WorkerState::default(); cores],
            records: Vec::new(),
            collect_records: true,
            packet_scratch: Vec::new(),
        }
    }

    /// Disables per-task [`ExecRecord`] collection. Records are `O(tasks)` host memory — the
    /// one thing a bounded-window streamed run cannot afford — so million-task cells switch
    /// them off; every differential and validation path keeps the default (on).
    pub fn set_collect_records(&mut self, on: bool) {
        self.collect_records = on;
    }

    /// Size in bytes of one Task Metadata Array element for this program (64 or 128).
    pub fn metadata_element_bytes(&self) -> u64 {
        self.element_bytes
    }

    fn meta_addr(&self, sw_id: u64) -> u64 {
        META_BASE + (sw_id % self.cfg.metadata_slots as u64) * self.element_bytes
    }

    /// Worker-side fast path: request / fetch / execute / retire one task.
    fn try_execute_one(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> Fetch {
        let core = ctx.core();
        let mut failed = FailedOps::default();
        let mut changed = false;
        if self.workers[core].outstanding_requests == 0 {
            let (lat, out) = fabric.ready_task_request(core, ctx.now());
            ctx.spend(lat);
            if out.is_success() {
                self.workers[core].outstanding_requests += 1;
                changed = true;
            } else {
                failed.ready_task_request = true;
            }
        }
        let (lat, out) = fabric.fetch_sw_id(core, ctx.now());
        ctx.spend(lat);
        let FabricOutcome::Success(sw_id) = out else {
            failed.fetch_sw_id = true;
            return Fetch::Empty((!changed).then_some(failed));
        };
        let (lat, out) = fabric.fetch_picos_id(core, ctx.now());
        ctx.spend(lat);
        let FabricOutcome::Success(picos_id) = out else { return Fetch::Empty(None) };
        ctx.observe_task(TaskStage::Dispatched, sw_id);
        self.workers[core].outstanding_requests =
            self.workers[core].outstanding_requests.saturating_sub(1);

        // Read the task metadata element (one or two cache lines, written by the submitter).
        ctx.read(self.meta_addr(sw_id), self.element_bytes);
        let spec = self.source.spec(sw_id);
        let (task, payload) = (spec.id, spec.payload);
        let start = ctx.now();
        ctx.execute_task_payload(sw_id, payload);
        let end = ctx.now();
        if self.collect_records {
            self.records.push(ExecRecord { task, core, start, end });
        }

        let lat = fabric.retire_task(core, picos_id, ctx.now());
        ctx.spend(lat);
        ctx.observe_task(TaskStage::Retired, sw_id);
        self.source.retire_at(sw_id, ctx.now());
        self.workers[core].private_retired += 1;
        self.workers[core].failures_since_flush = 0;
        self.total_retired += 1;
        if self.cfg.eager_shared_counter {
            self.flush_private(ctx);
        }
        Fetch::Ran
    }

    /// Folds a core's private retirement counter into the shared atomic counter.
    fn flush_private(&mut self, ctx: &mut CoreCtx<'_>) {
        let core = ctx.core();
        if self.workers[core].private_retired == 0 {
            return;
        }
        ctx.atomic(SHARED_RETIRE_COUNTER);
        self.shared_retired += self.workers[core].private_retired;
        self.workers[core].private_retired = 0;
        self.workers[core].failures_since_flush = 0;
    }

    /// Submits the task at the program cursor. Returns `true` if the submission completed.
    fn submit_current(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric, spec: &TaskSpec) -> bool {
        let core = ctx.core();
        ctx.observe_task(TaskStage::Submitted, spec.id.raw());
        // Fill the metadata element (function arguments, payload description).
        ctx.call();
        ctx.write(self.meta_addr(spec.id.raw()), self.element_bytes);
        encode_prefix_into(spec.id.raw(), &spec.deps, &mut self.packet_scratch);
        let (lat, out) = fabric.submission_request(core, self.packet_scratch.len() as u32, ctx.now());
        ctx.spend(lat);
        if !out.is_success() {
            return false;
        }
        // Submit Three Packets: the non-zero packet count is always a multiple of three.
        for chunk in self.packet_scratch.chunks(3) {
            let (lat, out) = fabric.submit_packets(core, chunk, ctx.now());
            ctx.spend(lat);
            debug_assert!(out.is_success(), "packets following an accepted request are always accepted");
        }
        self.submitted += 1;
        true
    }

    /// One poll of a barrier (a `taskwait`, or the implicit final one): fold this core's
    /// private retirements, read the shared counter, and help with the work while it lags.
    /// Returns `None` once every submitted task has retired.
    fn wait_for_retirements(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> Option<CoreStatus> {
        let core = ctx.core();
        let target = self.submitted;
        let flushed = self.workers[core].private_retired > 0;
        self.flush_private(ctx);
        ctx.read(SHARED_RETIRE_COUNTER, 8);
        if self.shared_retired >= target {
            return None;
        }
        let Fetch::Empty(failed) = self.try_execute_one(ctx, fabric) else {
            return Some(CoreStatus::Progressed);
        };
        if !flushed {
            let touch = PollTouch { addr: SHARED_RETIRE_COUNTER, bytes: 8, kind: AccessKind::Read };
            self.workers[core].poll = failed.map(|ops| PollLoop { touch: Some(touch), ..poll(ops) });
        }
        Some(CoreStatus::Waiting { until: ctx.now() + self.cfg.taskwait_poll_interval })
    }

    fn step_main(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        if self.done {
            return CoreStatus::Finished;
        }
        let core = ctx.core();
        // Pull the next op on demand. A blocked source (in-flight window full) is handled like
        // saturated hardware: execute resident work so retirements free the window. Streamed
        // dependences only point backwards, so the in-flight set always holds runnable work and
        // this cannot deadlock.
        if self.pending.is_none() && !self.source_done {
            // Time-aware sources (the multi-tenant merger) gate spawn release on the polling
            // core's clock; plain sources ignore this (default no-op).
            self.source.advance_to(ctx.now());
            match self.source.poll() {
                SourcePoll::Op(op) => self.pending = Some(op),
                SourcePoll::Blocked => {
                    if let Fetch::Empty(failed) = self.try_execute_one(ctx, fabric) {
                        ctx.spin_backoff();
                        // The source answers the same until its next arrival or a retire.
                        self.workers[core].poll = failed
                            .zip(self.source.blocked_until())
                            .map(|(ops, until)| PollLoop { until, ..poll(ops) });
                    }
                    return CoreStatus::Progressed;
                }
                SourcePoll::Done => self.source_done = true,
            }
        }
        match self.pending.take() {
            Some(ProgramOp::Spawn(spec)) => {
                if !self.submit_current(ctx, fabric, &spec) {
                    // Non-blocking submission failed (hardware saturated): do useful work
                    // instead of stalling — the deadlock-avoidance pattern of Section IV-C.
                    if let Fetch::Empty(failed) = self.try_execute_one(ctx, fabric) {
                        ctx.spin_backoff();
                        let sw_id = spec.id.raw();
                        let submission_packets = self.packet_scratch.len() as u32;
                        let touch =
                            PollTouch { addr: self.meta_addr(sw_id), bytes: self.element_bytes, kind: AccessKind::Write };
                        self.workers[core].poll = failed.map(|ops| PollLoop {
                            touch: Some(touch),
                            event: Some((TaskStage::Submitted, sw_id)),
                            ..poll(FailedOps { submission_packets, ..ops })
                        });
                    }
                    self.pending = Some(ProgramOp::Spawn(spec));
                }
                CoreStatus::Progressed
            }
            Some(ProgramOp::TaskWait) => match self.wait_for_retirements(ctx, fabric) {
                Some(status) => {
                    self.pending = Some(ProgramOp::TaskWait);
                    status
                }
                None => CoreStatus::Progressed,
            },
            None => {
                // Implicit final barrier, then publish the done flag.
                if let Some(status) = self.wait_for_retirements(ctx, fabric) {
                    return status;
                }
                ctx.write(DONE_FLAG, 8);
                self.done = true;
                self.workers[core].finished = true;
                CoreStatus::Progressed
            }
        }
    }

    fn step_worker(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        let core = ctx.core();
        if self.workers[core].finished {
            return CoreStatus::Finished;
        }
        let Fetch::Empty(failed) = self.try_execute_one(ctx, fabric) else {
            return CoreStatus::Progressed;
        };
        let threshold = self.cfg.flush_after_failures;
        let worker = &mut self.workers[core];
        worker.failures_since_flush = worker.failures_since_flush.saturating_add(1);
        if worker.private_retired > 0 && worker.failures_since_flush >= threshold {
            self.flush_private(ctx);
            return CoreStatus::Progressed;
        }
        if self.done {
            // Observe the done flag (a real read of the shared line) and terminate.
            ctx.read(DONE_FLAG, 8);
            self.workers[core].finished = true;
            return CoreStatus::Finished;
        }
        // Failed fetches repeat identically until the one that reaches the flush threshold.
        let repeats = if worker.private_retired > 0 {
            u64::from(threshold - worker.failures_since_flush - 1)
        } else {
            u64::MAX
        };
        worker.poll = failed.map(|ops| PollLoop { repeats, ..poll(ops) });
        CoreStatus::Waiting { until: ctx.now() + self.cfg.worker_backoff }
    }
}

/// What one work-fetch attempt did.
enum Fetch {
    /// A task was executed and retired.
    Ran,
    /// No task was available. Holds the attempt's failed operations if it changed no state, so
    /// that a repeat does the same; `None` if an accepted ready request changed the fabric.
    Empty(Option<FailedOps>),
}

/// A poll loop of fabric traffic only, with no bound on its repeats.
fn poll(ops: FailedOps) -> PollLoop {
    PollLoop { ops, touch: None, event: None, repeats: u64::MAX, until: Cycle::MAX }
}

impl RuntimeSystem for Phentos {
    fn name(&self) -> &'static str {
        "phentos"
    }

    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        self.workers[ctx.core()].poll = None;
        if ctx.core() == 0 {
            self.step_main(ctx, fabric)
        } else {
            self.step_worker(ctx, fabric)
        }
    }

    fn is_finished(&self) -> bool {
        self.done
    }

    fn exec_records(&self) -> Vec<ExecRecord> {
        self.records.clone()
    }

    fn tasks_retired(&self) -> u64 {
        self.total_retired
    }

    fn peak_resident_tasks(&self) -> u64 {
        self.source.peak_resident() as u64
    }

    fn tenant_reports(&self) -> Vec<tis_taskmodel::TenantReport> {
        self.source.tenant_reports()
    }

    fn poll_loop(&self, core: usize) -> Option<PollLoop> {
        self.workers[core].poll
    }

    fn observed_epoch(&self, core: usize) -> u64 {
        if core != 0 {
            // A worker's failed fetch reads only the fabric and the done flag.
            return u64::from(self.done);
        }
        match self.pending {
            // A refused submission reads only the fabric and its own metadata line.
            Some(ProgramOp::Spawn(_)) => 0,
            // A blocked source moves on retirements; a barrier on the shared counter.
            None if !self.source_done => self.total_retired,
            _ => self.shared_retired,
        }
    }

    fn observed_version(&self) -> u64 {
        // Every epoch above reads these, or `pending`, which only core 0's own steps change.
        self.total_retired + self.shared_retired + u64::from(self.done)
    }

    fn drain_epoch_changes(&mut self, sink: &mut dyn FnMut(usize)) -> bool {
        // Retirements and flushes move only the main thread's epoch; `done` moves every core's.
        if self.done {
            return false;
        }
        sink(0);
        true
    }

    fn skip_polls(&mut self, core: usize, polls: u64, last_start: Cycle) {
        if core != 0 {
            let worker = &mut self.workers[core];
            let polls = u32::try_from(polls).unwrap_or(u32::MAX);
            worker.failures_since_flush = worker.failures_since_flush.saturating_add(polls);
        } else if self.pending.is_none() && !self.source_done {
            self.source.advance_to(last_start);
        }
    }
}

impl Phentos {
    /// Mutable access to the task source, for post-run recovery of source-side state (the
    /// multi-tenant harness downcasts it to take the tenant assignment).
    pub fn source_mut(&mut self) -> &mut dyn TaskSource {
        self.source.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::TisFabric;
    use tis_machine::{run_machine, MachineConfig};
    use tis_taskmodel::{Dependence, Payload, ProgramBuilder};

    fn run(program: &TaskProgram, cores: usize) -> tis_machine::ExecutionReport {
        let cfg = MachineConfig::rocket_with_cores(cores);
        let mut runtime = Phentos::new(program, cores, PhentosConfig::default());
        let mut fabric = TisFabric::with_cores(cores);
        run_machine(&cfg, &mut runtime, &mut fabric).expect("phentos run completes")
    }

    #[test]
    fn independent_tasks_run_and_validate() {
        let mut b = ProgramBuilder::new("indep");
        for i in 0..20u64 {
            b.spawn(Payload::compute(2_000), vec![Dependence::write(0x1_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 20);
        assert_eq!(report.records.len(), 20);
        report.validate_against(&p).expect("dependences and core exclusivity hold");
    }

    #[test]
    fn dependent_chain_executes_in_order() {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..10 {
            b.spawn(Payload::compute(500), vec![Dependence::read_write(0x2_0000)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 10);
        report.validate_against(&p).expect("chain order must hold");
        // A pure chain cannot go faster than the sum of its payloads.
        assert!(report.total_cycles >= 10 * 500);
    }

    #[test]
    fn parallel_speedup_on_coarse_tasks() {
        let mut b = ProgramBuilder::new("coarse");
        for i in 0..64u64 {
            b.spawn(Payload::compute(100_000), vec![Dependence::write(0x3_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let serial = p.serial_cycles(16.0, 8);
        let report = run(&p, 8);
        let speedup = report.speedup_over(serial);
        assert!(speedup > 5.0, "coarse independent tasks on 8 cores should scale well, got {speedup:.2}");
        report.validate_against(&p).unwrap();
    }

    #[test]
    fn fine_grained_overhead_is_hundreds_of_cycles() {
        // Task-Free-style microbenchmark on a single core: total cycles per task is the
        // lifetime scheduling overhead, which must land in the few-hundred-cycle range of
        // Figure 7 (Phentos row), far below the ~12k of Nanos-RV.
        let mut b = ProgramBuilder::new("taskfree");
        for i in 0..200u64 {
            b.spawn(Payload::empty(), vec![Dependence::write(0x5_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 1);
        let per_task = report.mean_cycles_per_task();
        assert!(
            per_task > 50.0 && per_task < 1_500.0,
            "phentos lifetime overhead should be hundreds of cycles, got {per_task:.0}"
        );
    }

    #[test]
    fn taskwait_phases_are_respected() {
        let mut b = ProgramBuilder::new("phases");
        for i in 0..6u64 {
            b.spawn(Payload::compute(1_000), vec![Dependence::write(0x6_0000 + i * 64)]);
        }
        b.taskwait();
        for i in 0..6u64 {
            b.spawn(Payload::compute(1_000), vec![Dependence::write(0x7_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let report = run(&p, 4);
        assert_eq!(report.tasks_retired, 12);
        report.validate_against(&p).expect("barrier must separate the two phases");
    }

    #[test]
    fn metadata_element_size_follows_dependence_count() {
        let mut small = ProgramBuilder::new("small");
        small.spawn(Payload::empty(), (0..7u64).map(|i| Dependence::write(i * 64)).collect());
        let mut big = ProgramBuilder::new("big");
        big.spawn(Payload::empty(), (0..15u64).map(|i| Dependence::write(i * 64)).collect());
        assert_eq!(Phentos::new(&small.build(), 2, PhentosConfig::default()).metadata_element_bytes(), 64);
        assert_eq!(Phentos::new(&big.build(), 2, PhentosConfig::default()).metadata_element_bytes(), 128);
    }

    #[test]
    fn a_parked_worker_still_flushes_on_its_fourth_failed_fetch() {
        use tis_machine::{run_machine_counted, run_machine_reference};
        use tis_obs::{MemAccessKind, MemEvent, Observer, TaskEvent};

        /// Every task and memory event, in order.
        #[derive(Default)]
        struct Log(Vec<(Option<TaskEvent>, Option<MemEvent>)>);
        impl Observer for Log {
            fn on_task(&mut self, e: &TaskEvent) {
                self.0.push((Some(*e), None));
            }
            fn on_mem(&mut self, e: &MemEvent) {
                self.0.push((None, Some(*e)));
            }
            fn wants_mem_events(&self) -> bool {
                true
            }
        }

        // The worker runs the short task, retires it into its private counter and then idles
        // while the main thread runs the long one.
        let mut b = ProgramBuilder::new("flush");
        b.spawn(Payload::compute(300), vec![Dependence::write(0xA_0000)]);
        b.spawn(Payload::compute(30_000), vec![Dependence::write(0xA_0040)]);
        b.taskwait();
        let p = b.build();
        let cfg = MachineConfig::rocket_with_cores(2);
        let run = |fast: bool| {
            let mut runtime = Phentos::new(&p, 2, PhentosConfig::default());
            let mut log = Log::default();
            let run = if fast { run_machine_counted } else { run_machine_reference };
            let (result, stats) = run(&cfg, &mut runtime, &mut TisFabric::with_cores(2), Some(&mut log));
            (result.expect("run completes"), stats, log.0)
        };
        let (fast, fast_stats, fast_log) = run(true);
        let (reference, _, ref_log) = run(false);
        assert_eq!(fast, reference);
        assert_eq!(fast_log, ref_log);
        assert!(fast_stats.skipped_polls > 0, "the idle worker parks");

        let retired = fast_log
            .iter()
            .find_map(|(t, _)| t.filter(|t| t.core == Some(1) && t.stage == TaskStage::Retired))
            .expect("the worker retires a task")
            .cycle;
        let flush = fast_log
            .iter()
            .find_map(|(_, m)| match m {
                Some(MemEvent::Coherence { cycle, core: 1, kind: MemAccessKind::Atomic, .. }) => Some(*cycle),
                _ => None,
            })
            .expect("the worker folds its private counter");
        // Failed fetch 1 re-arms a ready request (2 + 2 cycles, then 40 idle); fetches 2 and 3
        // take 2 + 40 each; fetch 4 fails after 2 cycles and flushes.
        assert_eq!(flush, retired + 44 + 2 * 42 + 2);
    }

    #[test]
    fn main_thread_executes_tasks_when_hardware_saturates() {
        // More independent tasks than the Picos task memory can hold: the main thread's
        // submissions start failing and it must pick up work itself (Section IV-C pattern).
        use crate::fabric::TisConfig;
        use tis_picos::{PicosConfig, TrackerConfig};
        let mut b = ProgramBuilder::new("saturate");
        for i in 0..40u64 {
            b.spawn(Payload::compute(200), vec![Dependence::write(0x8_0000 + i * 64)]);
        }
        b.taskwait();
        let p = b.build();
        let cores = 1usize; // only the main thread exists, so it must execute everything
        let cfg = MachineConfig::rocket_with_cores(cores);
        let tis = TisConfig {
            picos: PicosConfig {
                tracker: TrackerConfig { task_memory_entries: 4, address_table_entries: 64 },
                ..PicosConfig::default()
            },
            ..TisConfig::default()
        };
        let mut runtime = Phentos::new(&p, cores, PhentosConfig::default());
        let mut fabric = TisFabric::new(cores, tis);
        let report = run_machine(&cfg, &mut runtime, &mut fabric).expect("no deadlock despite saturation");
        assert_eq!(report.tasks_retired, 40);
        report.validate_against(&p).unwrap();
    }
}
