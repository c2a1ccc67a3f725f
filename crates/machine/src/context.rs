//! Per-core execution context.
//!
//! A runtime agent (the main thread or a worker pinned to a core) spends cycles exclusively by
//! calling methods on its [`CoreCtx`]: plain computation, cache-coherent memory accesses that go
//! through the MESI model, atomic read-modify-writes, system calls, task-payload execution and
//! idle waiting. The engine owns the shared structures (memory system, DRAM channel) and lends
//! them to the context for the duration of one agent step.

use tis_mem::{AccessKind, BandwidthModel, MemorySystem};
use tis_obs::{MemAccessKind, MemEvent, Observer, TaskEvent, TaskStage};
use tis_sim::Cycle;
use tis_taskmodel::Payload;

use crate::cost::CostModel;

/// Per-core activity statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles spent executing task payloads.
    pub payload_cycles: u64,
    /// Cycles spent in runtime code (everything except payloads and idling).
    pub runtime_cycles: u64,
    /// Cycles spent idle (waiting for work or for a barrier).
    pub idle_cycles: u64,
    /// Number of memory operations issued by runtime code.
    pub memory_ops: u64,
    /// Number of task payloads executed on this core.
    pub tasks_executed: u64,
    /// Number of system calls issued.
    pub syscalls: u64,
}

impl CoreStats {
    /// Total accounted cycles (payload + runtime + idle).
    pub fn total_cycles(&self) -> u64 {
        self.payload_cycles + self.runtime_cycles + self.idle_cycles
    }
}

/// The micro-operation interface a runtime agent uses to spend cycles on its core.
pub struct CoreCtx<'a> {
    core: usize,
    time: Cycle,
    step_start: Cycle,
    mem: &'a mut MemorySystem,
    dram: &'a mut BandwidthModel,
    costs: &'a CostModel,
    stats: &'a mut CoreStats,
    /// Observer chokepoint for this step; `None` on unobserved runs, where every emission
    /// helper is a single branch.
    obs: Option<&'a mut dyn Observer>,
    /// Cached `wants_mem_events()` so the per-access hot path never makes a virtual call.
    obs_mem: bool,
    /// Some memory access of this step missed in the L1 (the engine only parks a poll whose
    /// accesses all hit, so that its cost is the cost of every repeat).
    l1_missed: bool,
}

impl core::fmt::Debug for CoreCtx<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("core", &self.core)
            .field("time", &self.time)
            .field("step_start", &self.step_start)
            .field("observed", &self.obs.is_some())
            .finish_non_exhaustive()
    }
}

impl<'a> CoreCtx<'a> {
    /// Creates a context for one agent step. Used by the engine; runtimes receive it ready-made.
    pub fn new(
        core: usize,
        time: Cycle,
        mem: &'a mut MemorySystem,
        dram: &'a mut BandwidthModel,
        costs: &'a CostModel,
        stats: &'a mut CoreStats,
    ) -> Self {
        CoreCtx {
            core,
            time,
            step_start: time,
            mem,
            dram,
            costs,
            stats,
            obs: None,
            obs_mem: false,
            l1_missed: false,
        }
    }

    /// Attaches the run's observer to this step (engine-only). Task-lifecycle and memory
    /// events emitted through the context flow to it; timing is unaffected.
    pub fn with_observer(mut self, obs: &'a mut dyn Observer) -> Self {
        self.obs_mem = obs.wants_mem_events();
        self.obs = Some(obs);
        self
    }

    /// Simulated cycle at which this agent step began. Because the engine always steps the core
    /// with the smallest local clock, no later step can begin before this instant — making it
    /// the safe horizon for observing other cores' state changes.
    pub fn step_start(&self) -> Cycle {
        self.step_start
    }

    /// Index of the core this context belongs to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Current local time of this core.
    pub fn now(&self) -> Cycle {
        self.time
    }

    /// The machine's software cost model.
    pub fn costs(&self) -> &CostModel {
        self.costs
    }

    /// Advances local time by `cycles` of runtime work (used for fabric latencies and modelled
    /// software costs).
    pub fn spend(&mut self, cycles: Cycle) {
        self.time += cycles;
        self.stats.runtime_cycles += cycles;
    }

    /// Spends one plain function call worth of cycles.
    pub fn call(&mut self) {
        self.spend(self.costs.function_call);
    }

    /// Spends one virtual-dispatch call worth of cycles.
    pub fn virtual_call(&mut self) {
        self.spend(self.costs.virtual_call);
    }

    /// Issues a system call of the given additional cost (on top of the base trap cost).
    pub fn syscall(&mut self, extra: Cycle) {
        self.stats.syscalls += 1;
        self.spend(self.costs.syscall_base + extra);
    }

    /// Performs a cache-coherent read of `bytes` bytes at `addr`, charging the MESI latency.
    pub fn read(&mut self, addr: u64, bytes: u64) -> Cycle {
        self.mem_access(addr, bytes, AccessKind::Read)
    }

    /// Performs a cache-coherent write of `bytes` bytes at `addr`.
    pub fn write(&mut self, addr: u64, bytes: u64) -> Cycle {
        self.mem_access(addr, bytes, AccessKind::Write)
    }

    /// Performs an atomic read-modify-write at `addr`.
    pub fn atomic(&mut self, addr: u64) -> Cycle {
        self.mem_access(addr, 8, AccessKind::Atomic)
    }

    fn mem_access(&mut self, addr: u64, bytes: u64, kind: AccessKind) -> Cycle {
        let issued_at = self.time;
        let out = self.mem.access(self.core, addr, kind, bytes, self.time);
        self.time += out.latency;
        self.stats.runtime_cycles += out.latency;
        self.stats.memory_ops += 1;
        self.l1_missed |= !out.l1_hit;
        if self.obs_mem {
            let kind = match kind {
                AccessKind::Read => MemAccessKind::Read,
                AccessKind::Write => MemAccessKind::Write,
                AccessKind::Atomic => MemAccessKind::Atomic,
            };
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.on_mem(&MemEvent::Coherence {
                    cycle: issued_at,
                    core: self.core,
                    kind,
                    latency: out.latency,
                    l1_hit: out.l1_hit,
                    remote_dirty: out.remote_dirty,
                });
            }
        }
        out.latency
    }

    /// Emits a task-lifecycle event stamped at the core's current local time. Pure observation:
    /// spends no cycles, and is a no-op on unobserved runs.
    pub fn observe_task(&mut self, stage: TaskStage, task: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_task(&TaskEvent { cycle: self.time, task, core: Some(self.core), stage, arg: 0 });
        }
    }

    /// Emits a task-lifecycle event with an explicit timestamp and no core attribution — used
    /// for state changes whose simulated instant is not "this core, now" (e.g. a software
    /// runtime discovering that a dependence was resolved at `available_at`).
    pub fn observe_task_at(&mut self, cycle: Cycle, stage: TaskStage, task: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_task(&TaskEvent { cycle, task, core: None, stage, arg: 0 });
        }
    }

    /// Executes task `task`'s payload: `compute_cycles` of private computation plus the DRAM
    /// time of its `memory_bytes`, charged against the shared bandwidth channel. Emits
    /// `ExecStart` before and `ExecEnd` after, with the DRAM-stall share of the payload carried
    /// in the event's `arg`; observation spends no cycles.
    ///
    /// Returns the total payload duration in cycles.
    pub fn execute_task_payload(&mut self, task: u64, payload: Payload) -> Cycle {
        self.observe_task(TaskStage::ExecStart, task);
        let mem_cycles = self.dram.transfer(self.time, payload.memory_bytes);
        let total = payload.compute_cycles + mem_cycles;
        self.time += total;
        self.stats.payload_cycles += total;
        self.stats.tasks_executed += 1;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.on_task(&TaskEvent {
                cycle: self.time,
                task,
                core: Some(self.core),
                stage: TaskStage::ExecEnd,
                arg: mem_cycles,
            });
        }
        total
    }

    /// Spends `cycles` doing nothing useful (waiting for work, backing off, blocked at a
    /// barrier). Accounted as idle time.
    pub fn idle(&mut self, cycles: Cycle) {
        self.time += cycles;
        self.stats.idle_cycles += cycles;
    }

    /// One spin-wait backoff iteration, as performed by Phentos when a fetch fails.
    pub fn spin_backoff(&mut self) {
        let c = self.costs.spin_backoff;
        self.time += c;
        self.stats.idle_cycles += c;
    }

    /// Whether any memory access of this step missed in the L1 (used by the engine).
    pub(crate) fn l1_missed(&self) -> bool {
        self.l1_missed
    }

    /// Snapshot of the local time when the step ends (used by the engine).
    pub fn finish(self) -> Cycle {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_mem::{CacheConfig, MemLatencies};

    fn harness() -> (MemorySystem, BandwidthModel, CostModel, CoreStats) {
        (
            MemorySystem::new(2, CacheConfig::rocket_l1d(), MemLatencies::default()),
            BandwidthModel::new(16.0),
            CostModel::default(),
            CoreStats::default(),
        )
    }

    #[test]
    fn spend_and_call_accumulate_runtime_cycles() {
        let (mut mem, mut dram, costs, mut stats) = harness();
        let mut ctx = CoreCtx::new(0, 100, &mut mem, &mut dram, &costs, &mut stats);
        ctx.spend(10);
        ctx.call();
        ctx.virtual_call();
        let end = ctx.finish();
        assert_eq!(end, 100 + 10 + costs.function_call + costs.virtual_call);
        assert_eq!(stats.runtime_cycles, 10 + costs.function_call + costs.virtual_call);
        assert_eq!(stats.idle_cycles, 0);
    }

    #[test]
    fn memory_accesses_go_through_the_mesi_model() {
        let (mut mem, mut dram, costs, mut stats) = harness();
        {
            let mut ctx = CoreCtx::new(0, 0, &mut mem, &mut dram, &costs, &mut stats);
            let miss = ctx.read(0x1000, 8);
            let hit = ctx.read(0x1000, 8);
            assert!(miss > hit);
            assert_eq!(hit, MemLatencies::default().l1_hit);
        }
        assert_eq!(stats.memory_ops, 2);
        assert!(stats.runtime_cycles > 0);
    }

    #[test]
    fn payload_execution_charges_compute_and_bandwidth() {
        let (mut mem, mut dram, costs, mut stats) = harness();
        let mut ctx = CoreCtx::new(1, 0, &mut mem, &mut dram, &costs, &mut stats);
        let d = ctx.execute_task_payload(0, Payload::new(100, 160));
        assert_eq!(d, 110, "100 compute + 160 bytes at 16 B/cycle");
        assert_eq!(ctx.finish(), 110);
        assert_eq!(stats.payload_cycles, 110);
        assert_eq!(stats.tasks_executed, 1);
    }

    #[test]
    fn idle_and_spin_are_accounted_as_idle() {
        let (mut mem, mut dram, costs, mut stats) = harness();
        let mut ctx = CoreCtx::new(0, 0, &mut mem, &mut dram, &costs, &mut stats);
        ctx.idle(50);
        ctx.spin_backoff();
        ctx.finish();
        assert_eq!(stats.idle_cycles, 50 + costs.spin_backoff);
        assert_eq!(stats.runtime_cycles, 0);
    }

    #[test]
    fn syscall_counts_and_costs() {
        let (mut mem, mut dram, costs, mut stats) = harness();
        let mut ctx = CoreCtx::new(0, 0, &mut mem, &mut dram, &costs, &mut stats);
        ctx.syscall(300);
        ctx.finish();
        assert_eq!(stats.syscalls, 1);
        assert_eq!(stats.runtime_cycles, costs.syscall_base + 300);
    }

    #[test]
    fn stats_totals_and_fractions() {
        assert_eq!(CoreStats::default().total_cycles(), 0);
        let s = CoreStats { payload_cycles: 75, runtime_cycles: 20, idle_cycles: 5, ..Default::default() };
        assert_eq!(s.total_cycles(), 100);
    }
}
