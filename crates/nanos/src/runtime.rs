//! The Nanos runtime model: one implementation, three variants.
//!
//! [`Nanos`] reproduces the structure the paper describes in Section V-A: WorkDescriptors are
//! heap-allocated, every phase goes through plugin (virtual) dispatch, all ready tasks funnel
//! through the Scheduler singleton's central queue under a mutex, idle workers and `taskwait`
//! park on condition variables, and — crucially for Nanos-RV — even tasks identified as ready by
//! the hardware are first pushed into that central queue and popped back out of it instead of
//! being run directly by the fetching core.
//!
//! The three [`NanosVariant`]s differ only in who tracks dependences and how the hardware is
//! reached:
//!
//! * [`NanosVariant::Software`] (Nanos-SW) — a lock-protected software dependence domain (the
//!   functional tracker is shared with the Picos model, so semantics are identical; only the
//!   cost differs);
//! * [`NanosVariant::PicosRocc`] (Nanos-RV) — dependences tracked by the hardware through the
//!   RoCC fabric of `tis-core`;
//! * [`NanosVariant::PicosAxi`] (Nanos-AXI) — the same, but the caller supplies an
//!   [`AxiFabric`](crate::axi::AxiFabric), reproducing the Picos++ baseline. It is the same
//!   Picos fabric as Nanos-RV's with AXI prices, so the runtime code path is identical too.

use tis_machine::fabric::{FabricOutcome, SchedulerFabric};
use tis_machine::{CoreCtx, CoreStatus, RuntimeSystem};
use tis_obs::TaskStage;
use tis_picos::{encode_prefix_into, DependenceTracker, PicosId, SubmittedTask, TrackerConfig};
use tis_sim::TimedQueue;
use tis_taskmodel::{ExecRecord, MaterializedSource, ProgramOp, SourcePoll, TaskProgram, TaskSource, TaskSpec};

use crate::shared::{addrs, CentralEntry, CentralReadyQueue, NanosLock};
use crate::tuning::NanosTuning;

/// Base address of the simulated WorkDescriptor heap.
const WD_BASE: u64 = 0xB000_0000;
/// Size of one WorkDescriptor (two cache lines).
const WD_BYTES: u64 = 128;

/// Which Nanos flavour is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NanosVariant {
    /// Nanos-SW: software dependence inference, no scheduling hardware.
    Software,
    /// Nanos-RV: dependence inference offloaded through the RoCC fabric.
    PicosRocc,
    /// Nanos-AXI: dependence inference offloaded through the AXI/MMIO fabric (Picos++ baseline).
    PicosAxi,
}

impl NanosVariant {
    /// Whether the variant drives scheduling hardware through the fabric.
    pub fn uses_hardware(self) -> bool {
        !matches!(self, NanosVariant::Software)
    }

    /// Runtime name used in reports ("nanos-sw", "nanos-rv", "nanos-axi").
    pub fn name(self) -> &'static str {
        match self {
            NanosVariant::Software => "nanos-sw",
            NanosVariant::PicosRocc => "nanos-rv",
            NanosVariant::PicosAxi => "nanos-axi",
        }
    }
}

#[derive(Debug, Clone, Default)]
struct NanosWorker {
    outstanding_requests: u32,
    finished: bool,
}

/// The Nanos runtime plugged into the machine engine.
#[derive(Debug)]
pub struct Nanos {
    variant: NanosVariant,
    tuning: NanosTuning,
    source: Box<dyn TaskSource>,
    /// Op pulled from the source but not yet acted on (a refused hardware submission or an
    /// unsatisfied `taskwait` keeps the main thread on the same op across steps).
    pending: Option<ProgramOp>,
    source_done: bool,
    submitted: u64,
    /// Simulated cycle of every retirement *not yet folded into `retired_base`*, in the order
    /// they were performed. Kept as a log so that a `taskwait` polling at simulated time `t`
    /// only observes retirements that had completed by `t` (cores are stepped in relaxed time
    /// order).
    retire_log: Vec<u64>,
    /// Retirements whose completion time is at or before the current step's start — visible to
    /// every core from now on, so their individual timestamps no longer matter. Folding them
    /// out of `retire_log` keeps the `taskwait` poll O(in-flight) instead of O(total tasks).
    retired_base: u64,
    /// Software-variant retirements accepted but not yet applied to the dependence domain,
    /// keyed by completion cycle — applied once simulated time catches up, mirroring the
    /// deferral inside the Picos device.
    sw_pending: TimedQueue<PicosId>,
    done: bool,
    main_in_taskwait: bool,
    sched_lock: NanosLock,
    dep_lock: NanosLock,
    ready_queue: CentralReadyQueue,
    sw_tracker: DependenceTracker,
    workers: Vec<NanosWorker>,
    records: Vec<ExecRecord>,
    /// Whether per-task [`ExecRecord`]s are collected. On by default; streamed million-task
    /// runs switch this off so record storage stays O(1) instead of O(tasks).
    collect_records: bool,
    /// Scratch buffer for descriptor packets, reused across hardware submissions.
    packet_scratch: Vec<u32>,
    /// Scratch buffer for the software tracker's wake-up lists, reused across retirements.
    sw_woken_scratch: Vec<PicosId>,
    /// Scratch task handed to the software tracker at submission, reused across submissions.
    sw_submit_scratch: SubmittedTask,
}

impl Nanos {
    /// Instantiates a Nanos variant for a program on a machine with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation.
    pub fn new(program: &TaskProgram, cores: usize, variant: NanosVariant, tuning: NanosTuning) -> Self {
        program.validate().expect("program must satisfy the descriptor constraints");
        Nanos::from_source(Box::new(MaterializedSource::new(program)), cores, variant, tuning)
    }

    /// Instantiates a Nanos variant over a streaming [`TaskSource`].
    ///
    /// The source is trusted to uphold the [`TaskSource`] contract (dense sequential SW IDs,
    /// backward-only dependences); streamed workloads validate themselves incrementally as they
    /// generate, since an unbounded stream cannot be scanned up front.
    pub fn from_source(source: Box<dyn TaskSource>, cores: usize, variant: NanosVariant, tuning: NanosTuning) -> Self {
        Nanos {
            variant,
            tuning,
            source,
            pending: None,
            source_done: false,
            submitted: 0,
            retire_log: Vec::new(),
            retired_base: 0,
            sw_pending: TimedQueue::new(),
            done: false,
            main_in_taskwait: false,
            sched_lock: NanosLock::new(addrs::SCHED_LOCK, tuning.lock_contention_window),
            dep_lock: NanosLock::new(addrs::DEP_DOMAIN_LOCK, tuning.lock_contention_window),
            ready_queue: CentralReadyQueue::new(),
            sw_tracker: DependenceTracker::new(TrackerConfig {
                task_memory_entries: 1 << 16,
                address_table_entries: 1 << 16,
            }),
            workers: vec![NanosWorker::default(); cores],
            records: Vec::new(),
            collect_records: true,
            packet_scratch: Vec::new(),
            sw_woken_scratch: Vec::new(),
            sw_submit_scratch: SubmittedTask::new(0, Vec::new()),
        }
    }

    /// The variant being modelled.
    pub fn variant(&self) -> NanosVariant {
        self.variant
    }

    /// Switches per-task [`ExecRecord`] collection on or off (on by default).
    pub fn set_collect_records(&mut self, on: bool) {
        self.collect_records = on;
    }

    fn wd_addr(sw_id: u64) -> u64 {
        WD_BASE + (sw_id % 4096) * WD_BYTES
    }

    /// Number of retirements visible at simulated cycle `now`.
    ///
    /// Callers query with `now >= ctx.step_start()`, so everything folded into `retired_base`
    /// (completion time at or before some earlier step's start) is always visible.
    fn retired_at(&self, now: u64) -> u64 {
        self.retired_base + self.retire_log.iter().filter(|&&t| t <= now).count() as u64
    }

    /// Folds retirements that completed at or before `horizon` into `retired_base`.
    ///
    /// The step-start time is monotone across steps, so once a retirement's completion time is
    /// at or before it, every later query observes it regardless of its exact timestamp. Without
    /// this, the `taskwait` poll rescans an ever-growing log — O(tasks²) over a million-task
    /// run.
    fn compact_retirements(&mut self, horizon: u64) {
        let before = self.retire_log.len();
        self.retire_log.retain(|&t| t > horizon);
        self.retired_base += (before - self.retire_log.len()) as u64;
    }

    /// Applies software-variant retirements whose completion time has been reached, waking their
    /// successors into the central ready queue.
    fn process_sw_pending(&mut self, ctx: &mut CoreCtx<'_>) {
        if self.variant.uses_hardware() || self.sw_pending.is_empty() {
            return;
        }
        // Gate on the step's start time: no later step can begin before it, so a retirement due
        // by then is visible to everyone without violating causality.
        let now = ctx.step_start();
        let mut woken_entries = Vec::new();
        while let Some((t, pid)) = self.sw_pending.pop_due(now) {
            self.sw_tracker
                .retire_into(pid, &mut self.sw_woken_scratch)
                .expect("pending software retirement refers to an in-flight task");
            for &w in &self.sw_woken_scratch {
                let sw = self.sw_tracker.sw_id(w).expect("woken task is in flight");
                woken_entries.push(CentralEntry { sw_id: sw, picos_id: w.0, available_at: t });
            }
        }
        if !woken_entries.is_empty() {
            self.sched_lock.acquire(ctx);
            for e in woken_entries {
                // Software-tracked dependence resolution: the wake was decided at the
                // retirement's completion time, not on this core at this instant.
                ctx.observe_task_at(e.available_at, TaskStage::Ready, e.sw_id);
                self.ready_queue.push(ctx, e);
            }
            self.sched_lock.release(ctx);
        }
    }

    /// Plugin-layer virtual dispatch charged on every scheduling phase.
    fn charge_plugin_calls(&self, ctx: &mut CoreCtx<'_>) {
        for _ in 0..self.tuning.virtual_calls_per_phase {
            ctx.virtual_call();
        }
    }

    /// Software dependence inference at submission (Nanos-SW): hash probes and dependency-object
    /// maintenance under the domain lock. Returns the task's software-domain ID and whether the
    /// task starts ready.
    fn sw_submit(&mut self, ctx: &mut CoreCtx<'_>, spec: &TaskSpec) -> (PicosId, bool) {
        self.process_sw_pending(ctx);
        self.dep_lock.acquire(ctx);
        ctx.spend(self.tuning.sw_dependence_cycles(spec.dep_count()));
        for d in &spec.deps {
            ctx.spend(ctx.costs().hash_probe);
            let bucket = addrs::DEP_MAP + (d.addr % 1024) * 64;
            ctx.read(bucket, 64);
            ctx.write(bucket, 16);
            ctx.spend(ctx.costs().heap_alloc); // dependency object
        }
        self.sw_submit_scratch.sw_id = spec.id.raw();
        self.sw_submit_scratch.deps.clear();
        self.sw_submit_scratch.deps.extend_from_slice(&spec.deps);
        let inserted = self
            .sw_tracker
            .insert(&self.sw_submit_scratch)
            .expect("software dependence domain has effectively unbounded capacity");
        self.dep_lock.release(ctx);
        inserted
    }

    /// Hardware submission through the fabric (Nanos-RV / Nanos-AXI). Returns `false` when the
    /// hardware refused the submission and it must be retried.
    fn hw_submit(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric, spec: &TaskSpec) -> bool {
        encode_prefix_into(spec.id.raw(), &spec.deps, &mut self.packet_scratch);
        let (lat, out) = fabric.submission_request(ctx.core(), self.packet_scratch.len() as u32, ctx.now());
        ctx.spend(lat);
        if !out.is_success() {
            return false;
        }
        for chunk in self.packet_scratch.chunks(3) {
            let (lat, out) = fabric.submit_packets(ctx.core(), chunk, ctx.now());
            ctx.spend(lat);
            debug_assert!(out.is_success());
        }
        true
    }

    /// Pops one entry from the Scheduler singleton, refilling it from the hardware if necessary.
    fn acquire_work(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> Option<CentralEntry> {
        self.process_sw_pending(ctx);
        // First look at the central queue.
        self.sched_lock.acquire(ctx);
        let entry = self.ready_queue.pop(ctx);
        self.sched_lock.release(ctx);
        if entry.is_some() {
            return entry;
        }
        if !self.variant.uses_hardware() {
            return None;
        }
        // Poll the hardware for a ready descriptor...
        let core = ctx.core();
        if self.workers[core].outstanding_requests == 0 {
            let (lat, out) = fabric.ready_task_request(core, ctx.now());
            ctx.spend(lat);
            if out.is_success() {
                self.workers[core].outstanding_requests += 1;
            }
        }
        // The plugin polls the ready queue a few times before giving up: with the RoCC path the
        // instructions are so fast that a descriptor routed a handful of cycles ago may not be
        // visible yet on the very first try.
        let mut sw = None;
        for attempt in 0..4 {
            let (lat, out) = fabric.fetch_sw_id(core, ctx.now());
            ctx.spend(lat);
            if let FabricOutcome::Success(id) = out {
                sw = Some(id);
                break;
            }
            if attempt + 1 < 4 {
                ctx.spend(ctx.costs().spin_backoff);
            }
        }
        let sw_id = sw?;
        let (lat, out) = fabric.fetch_picos_id(core, ctx.now());
        ctx.spend(lat);
        let FabricOutcome::Success(picos_id) = out else { return None };
        self.workers[core].outstanding_requests = self.workers[core].outstanding_requests.saturating_sub(1);
        // ...and, as Nanos does, route it through the Scheduler singleton instead of running it
        // directly: push under the lock, then pop it back out (Section V-A).
        self.charge_plugin_calls(ctx);
        self.sched_lock.acquire(ctx);
        self.ready_queue.push(ctx, CentralEntry { sw_id, picos_id, available_at: ctx.now() });
        self.sched_lock.release(ctx);
        self.sched_lock.acquire(ctx);
        let entry = self.ready_queue.pop(ctx);
        self.sched_lock.release(ctx);
        entry
    }

    /// Executes one ready task if any can be acquired. Returns `true` if a task ran.
    fn try_execute_one(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> bool {
        let Some(entry) = self.acquire_work(ctx, fabric) else { return false };
        let core = ctx.core();
        ctx.observe_task(TaskStage::Dispatched, entry.sw_id);
        // Scheduler policy code + WorkDescriptor load.
        ctx.spend(self.tuning.fetch_bookkeeping);
        self.charge_plugin_calls(ctx);
        ctx.read(Self::wd_addr(entry.sw_id), WD_BYTES);

        let spec = self.source.spec(entry.sw_id);
        let (task, payload, dep_count) = (spec.id, spec.payload, spec.dep_count());
        let start = ctx.now();
        ctx.execute_task_payload(entry.sw_id, payload);
        let end = ctx.now();
        if self.collect_records {
            self.records.push(ExecRecord { task, core, start, end });
        }

        // Retirement.
        ctx.spend(self.tuning.retire_bookkeeping);
        self.charge_plugin_calls(ctx);
        if self.variant.uses_hardware() {
            let lat = fabric.retire_task(core, entry.picos_id, ctx.now());
            ctx.spend(lat);
        } else {
            // Software release: walk the dependence domain under its lock. The actual removal
            // from the tracker is deferred to `process_sw_pending` so that a core whose clock
            // still lags this instant keeps seeing the task as in flight.
            self.dep_lock.acquire(ctx);
            ctx.spend(ctx.costs().hash_probe * dep_count.max(1) as u64);
            self.dep_lock.release(ctx);
            self.sw_pending.schedule(ctx.now(), PicosId(entry.picos_id));
            self.process_sw_pending(ctx);
        }
        ctx.spend(ctx.costs().heap_free);
        ctx.atomic(addrs::TASKWAIT_COUNTER);
        self.retire_log.push(ctx.now());
        ctx.observe_task(TaskStage::Retired, entry.sw_id);
        self.source.retire_at(entry.sw_id, ctx.now());
        if self.main_in_taskwait && core != 0 {
            // Signal the condition variable the taskwait is parked on (the waiter itself does
            // not need to wake anyone).
            let wake = ctx.costs().futex_wake;
            ctx.syscall(wake.saturating_sub(ctx.costs().syscall_base));
        }
        true
    }

    fn step_main(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        if self.done {
            return CoreStatus::Finished;
        }
        if self.pending.is_none() && !self.source_done {
            // Time-aware sources (the multi-tenant merger) gate spawn release on the polling
            // core's clock; plain sources ignore this (default no-op).
            self.source.advance_to(ctx.now());
            match self.source.poll() {
                SourcePoll::Op(op) => self.pending = Some(op),
                SourcePoll::Blocked => {
                    // The source's in-flight window is full: drain resident work instead of
                    // spawning, exactly as on a refused hardware submission.
                    if !self.try_execute_one(ctx, fabric) {
                        ctx.spend(ctx.costs().mutex_uncontended);
                    }
                    return CoreStatus::Progressed;
                }
                SourcePoll::Done => self.source_done = true,
            }
        }
        match self.pending.clone() {
            Some(ProgramOp::Spawn(spec)) => {
                self.main_in_taskwait = false;
                ctx.observe_task(TaskStage::Submitted, spec.id.raw());
                // WorkDescriptor construction and plugin hooks.
                ctx.spend(self.tuning.submit_bookkeeping);
                self.charge_plugin_calls(ctx);
                ctx.spend(ctx.costs().heap_alloc);
                ctx.write(Self::wd_addr(spec.id.raw()), WD_BYTES);
                let submitted = if self.variant.uses_hardware() {
                    self.hw_submit(ctx, fabric, &spec)
                } else {
                    let (pid, ready) = self.sw_submit(ctx, &spec);
                    if ready {
                        ctx.observe_task_at(ctx.now(), TaskStage::Ready, spec.id.raw());
                        self.sched_lock.acquire(ctx);
                        self.ready_queue.push(
                            ctx,
                            CentralEntry { sw_id: spec.id.raw(), picos_id: pid.0, available_at: ctx.now() },
                        );
                        self.sched_lock.release(ctx);
                    }
                    true
                };
                if submitted {
                    self.submitted += 1;
                    self.pending = None;
                } else if !self.try_execute_one(ctx, fabric) {
                    ctx.spend(ctx.costs().mutex_uncontended);
                }
                CoreStatus::Progressed
            }
            Some(ProgramOp::TaskWait) | None => {
                // `pending` can only be `None` here once the source has answered `Done`, so a
                // missing op is the implicit final barrier.
                let final_barrier = self.pending.is_none();
                let target = self.submitted;
                self.process_sw_pending(ctx);
                self.compact_retirements(ctx.step_start());
                ctx.read(addrs::TASKWAIT_COUNTER, 8);
                if self.retired_at(ctx.now()) >= target {
                    self.main_in_taskwait = false;
                    if final_barrier {
                        ctx.write(addrs::SHUTDOWN_FLAG, 8);
                        self.done = true;
                        self.workers[ctx.core()].finished = true;
                    } else {
                        self.pending = None;
                    }
                    return CoreStatus::Progressed;
                }
                self.main_in_taskwait = true;
                if self.try_execute_one(ctx, fabric) {
                    return CoreStatus::Progressed;
                }
                // Park on the taskwait condition variable.
                let wait = ctx.costs().futex_wait;
                ctx.syscall(wait.saturating_sub(ctx.costs().syscall_base));
                CoreStatus::Waiting { until: ctx.now() + self.tuning.idle_sleep_quantum }
            }
        }
    }

    fn step_worker(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        let core = ctx.core();
        if self.workers[core].finished {
            return CoreStatus::Finished;
        }
        if self.try_execute_one(ctx, fabric) {
            return CoreStatus::Progressed;
        }
        if self.done {
            ctx.read(addrs::SHUTDOWN_FLAG, 8);
            self.workers[core].finished = true;
            return CoreStatus::Finished;
        }
        // Idle worker: park on the team condition variable.
        let wait = ctx.costs().futex_wait;
        ctx.syscall(wait.saturating_sub(ctx.costs().syscall_base));
        CoreStatus::Waiting { until: ctx.now() + self.tuning.idle_sleep_quantum }
    }
}

impl RuntimeSystem for Nanos {
    fn name(&self) -> &'static str {
        self.variant.name()
    }

    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
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
        self.retired_base + self.retire_log.len() as u64
    }

    fn peak_resident_tasks(&self) -> u64 {
        self.source.peak_resident() as u64
    }

    fn tenant_reports(&self) -> Vec<tis_taskmodel::TenantReport> {
        self.source.tenant_reports()
    }
}

impl Nanos {
    /// Mutable access to the task source, for post-run recovery of source-side state (the
    /// multi-tenant harness downcasts it to take the tenant assignment).
    pub fn source_mut(&mut self) -> &mut dyn TaskSource {
        self.source.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axi::AxiFabric;
    use tis_core::TisFabric;
    use tis_machine::{run_machine, ExecutionReport, MachineConfig, NullFabric};
    use tis_taskmodel::{Dependence, Payload, ProgramBuilder};

    fn chain_program(n: u64, cycles: u64) -> TaskProgram {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..n {
            b.spawn(Payload::compute(cycles), vec![Dependence::read_write(0x4_0000)]);
        }
        b.taskwait();
        b.build()
    }

    fn independent_program(n: u64, cycles: u64) -> TaskProgram {
        let mut b = ProgramBuilder::new("indep");
        for i in 0..n {
            b.spawn(Payload::compute(cycles), vec![Dependence::write(0x5_0000 + i * 64)]);
        }
        b.taskwait();
        b.build()
    }

    fn run_variant(program: &TaskProgram, cores: usize, variant: NanosVariant) -> ExecutionReport {
        let cfg = MachineConfig::rocket_with_cores(cores);
        let mut runtime = Nanos::new(program, cores, variant, NanosTuning::default());
        match variant {
            NanosVariant::Software => {
                run_machine(&cfg, &mut runtime, &mut NullFabric::new()).expect("nanos-sw run")
            }
            NanosVariant::PicosRocc => {
                run_machine(&cfg, &mut runtime, &mut TisFabric::with_cores(cores)).expect("nanos-rv run")
            }
            NanosVariant::PicosAxi => {
                run_machine(&cfg, &mut runtime, &mut AxiFabric::with_cores(cores)).expect("nanos-axi run")
            }
        }
    }

    #[test]
    fn all_variants_execute_and_validate_a_chain() {
        let p = chain_program(12, 2_000);
        for variant in [NanosVariant::Software, NanosVariant::PicosRocc, NanosVariant::PicosAxi] {
            let report = run_variant(&p, 2, variant);
            assert_eq!(report.tasks_retired, 12, "{variant:?}");
            report.validate_against(&p).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        }
    }

    #[test]
    fn all_variants_execute_and_validate_independent_tasks() {
        let p = independent_program(24, 30_000);
        for variant in [NanosVariant::Software, NanosVariant::PicosRocc, NanosVariant::PicosAxi] {
            let report = run_variant(&p, 4, variant);
            assert_eq!(report.tasks_retired, 24, "{variant:?}");
            report.validate_against(&p).unwrap_or_else(|e| panic!("{variant:?}: {e}"));
        }
    }

    #[test]
    fn nanos_rv_overhead_sits_between_phentos_and_nanos_sw() {
        // Single-core, empty-payload runs measure lifetime scheduling overhead (Figure 7).
        let p = independent_program(60, 0);
        let sw = run_variant(&p, 1, NanosVariant::Software).mean_cycles_per_task();
        let rv = run_variant(&p, 1, NanosVariant::PicosRocc).mean_cycles_per_task();
        let axi = run_variant(&p, 1, NanosVariant::PicosAxi).mean_cycles_per_task();
        assert!(rv < sw, "hardware dependence tracking must beat software: rv={rv:.0} sw={sw:.0}");
        assert!(rv < axi, "tight integration must beat the AXI path: rv={rv:.0} axi={axi:.0}");
        assert!(rv > 5_000.0 && rv < 25_000.0, "nanos-rv overhead in the paper's range, got {rv:.0}");
        assert!(sw > 15_000.0, "nanos-sw overhead is tens of thousands of cycles, got {sw:.0}");
    }

    #[test]
    fn software_dependence_cost_grows_with_dependence_count() {
        let mut few = ProgramBuilder::new("few");
        let mut many = ProgramBuilder::new("many");
        for i in 0..30u64 {
            few.spawn(Payload::empty(), vec![Dependence::write(0x9_0000 + i * 64)]);
            let deps: Vec<_> = (0..15u64)
                .map(|d| Dependence::write(0x10_0000 + (i * 15 + d) * 64))
                .collect();
            many.spawn(Payload::empty(), deps);
        }
        few.taskwait();
        many.taskwait();
        let few_cost = run_variant(&few.build(), 1, NanosVariant::Software).mean_cycles_per_task();
        let many_cost = run_variant(&many.build(), 1, NanosVariant::Software).mean_cycles_per_task();
        assert!(
            many_cost > 2.0 * few_cost,
            "15-dependence tasks must cost far more than 1-dependence tasks in software ({many_cost:.0} vs {few_cost:.0})"
        );
    }

    #[test]
    fn coarse_tasks_still_scale_under_nanos() {
        // With sufficiently coarse tasks even Nanos-SW delivers parallel speedup — the paper's
        // hypothesis 3 (the gap closes as granularity grows).
        let p = independent_program(32, 400_000);
        let serial = p.serial_cycles(16.0, 8);
        let report = run_variant(&p, 4, NanosVariant::Software);
        let speedup = report.speedup_over(serial);
        assert!(speedup > 2.0, "coarse tasks should scale even in software, got {speedup:.2}");
        assert!(
            report.core_stats.iter().filter(|s| s.tasks_executed > 0).count() >= 3,
            "work must actually be distributed across cores"
        );
    }

    #[test]
    fn variant_names_match_paper_labels() {
        assert_eq!(NanosVariant::Software.name(), "nanos-sw");
        assert_eq!(NanosVariant::PicosRocc.name(), "nanos-rv");
        assert_eq!(NanosVariant::PicosAxi.name(), "nanos-axi");
        assert!(!NanosVariant::Software.uses_hardware());
        assert!(NanosVariant::PicosRocc.uses_hardware());
    }
}
