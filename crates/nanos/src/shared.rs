//! The shared-memory structures of the Nanos runtime and a deterministic contention model.
//!
//! The paper's critique of Nanos (Section V-A) is structural: every scheduling interaction goes
//! through shared data — the Scheduler singleton's ready queue, its mutex, condition variables
//! and the taskwait counters — so cores constantly invalidate each other's cache lines and, when
//! they collide, fall into the kernel via futexes. This module models those structures explicitly
//! so that the cost of centralisation *emerges* from the MESI model plus a simple deterministic
//! contention rule, rather than being a single hand-tuned constant.

use std::collections::VecDeque;

use tis_machine::CoreCtx;
use tis_sim::Cycle;

/// Simulated addresses of the Nanos shared structures (each on its own cache line).
pub mod addrs {
    /// The Scheduler singleton's mutex.
    pub const SCHED_LOCK: u64 = 0xA000_0000;
    /// Head/tail/size words of the central ready queue.
    pub const READY_QUEUE_HEADER: u64 = 0xA000_0040;
    /// Start of the central ready queue's entry storage.
    pub const READY_QUEUE_ENTRIES: u64 = 0xA000_0080;
    /// The DependenciesDomain lock (Nanos-SW only).
    pub const DEP_DOMAIN_LOCK: u64 = 0xA100_0000;
    /// Start of the software dependence hash map (Nanos-SW only).
    pub const DEP_MAP: u64 = 0xA200_0000;
    /// The taskwait / retirement counter.
    pub const TASKWAIT_COUNTER: u64 = 0xA000_00C0;
    /// The "team is shutting down" flag checked by idle workers.
    pub const SHUTDOWN_FLAG: u64 = 0xA000_0100;
}

/// A mutex protecting a shared Nanos structure.
///
/// The simulator executes one agent step at a time, so a lock can always be acquired *logically*;
/// what matters for timing is whether the acquisition was contended. The deterministic rule is
/// the one the paper's narrative implies: if a different core used the lock within the last
/// `contention_window` cycles, the acquirer pays the futex path (kernel round trip), otherwise it
/// pays only the atomic + fences. Either way the lock word bounces between caches through the
/// MESI model.
#[derive(Debug, Clone)]
pub struct NanosLock {
    addr: u64,
    contention_window: Cycle,
    last_user: Option<usize>,
    last_release: Cycle,
    /// Number of acquisitions that went through the futex path.
    pub contended_acquisitions: u64,
    /// Total acquisitions.
    pub acquisitions: u64,
}

impl NanosLock {
    /// Creates a lock living at `addr`.
    pub fn new(addr: u64, contention_window: Cycle) -> Self {
        NanosLock {
            addr,
            contention_window,
            last_user: None,
            last_release: 0,
            contended_acquisitions: 0,
            acquisitions: 0,
        }
    }

    /// Acquires the lock from the context's core, charging the appropriate cycles.
    pub fn acquire(&mut self, ctx: &mut CoreCtx<'_>) {
        self.acquisitions += 1;
        ctx.atomic(self.addr);
        let contended = match self.last_user {
            Some(u) if u != ctx.core() => {
                ctx.now().saturating_sub(self.last_release) < self.contention_window
            }
            _ => false,
        };
        if contended {
            self.contended_acquisitions += 1;
            let wait = ctx.costs().futex_wait;
            ctx.syscall(wait.saturating_sub(ctx.costs().syscall_base));
        } else {
            ctx.spend(ctx.costs().mutex_uncontended);
        }
    }

    /// Releases the lock, charging the unlock store and (if anyone was recently spinning) the
    /// futex wake.
    pub fn release(&mut self, ctx: &mut CoreCtx<'_>) {
        ctx.write(self.addr, 8);
        if self.contended_acquisitions > 0 && self.acquisitions.is_multiple_of(2) {
            // Roughly every other release after contention has a sleeper to wake.
            let wake = ctx.costs().futex_wake;
            ctx.syscall(wake.saturating_sub(ctx.costs().syscall_base));
        }
        self.last_user = Some(ctx.core());
        self.last_release = ctx.now();
    }

}

/// The Scheduler singleton's central ready queue.
///
/// Every ready task — whether identified by the software dependence domain or fetched from the
/// hardware — is pushed here and popped from here, under [`NanosLock`]. The entries themselves
/// live in simulated memory so pushes and pops move cache lines between cores.
#[derive(Debug, Clone, Default)]
pub struct CentralReadyQueue {
    entries: VecDeque<CentralEntry>,
    /// Total pushes.
    pub pushes: u64,
    /// Total pops.
    pub pops: u64,
}

/// One entry of the central ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralEntry {
    /// Software task identifier.
    pub sw_id: u64,
    /// ID of the task in the tracker that resolved it: Picos' ID under Nanos-RV and Nanos-AXI,
    /// the software dependence domain's ID under Nanos-SW.
    pub picos_id: u32,
    /// Simulated cycle from which the entry is visible to consumers. Cores are stepped in a
    /// relaxed time order, so entries pushed by a core whose clock runs ahead must not be popped
    /// by a core whose clock is still behind that instant.
    pub available_at: Cycle,
}

impl CentralReadyQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CentralReadyQueue::default()
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes an entry, charging the header update and the entry store.
    pub fn push(&mut self, ctx: &mut CoreCtx<'_>, entry: CentralEntry) {
        ctx.read(addrs::READY_QUEUE_HEADER, 8);
        ctx.write(addrs::READY_QUEUE_HEADER, 8);
        let slot = self.pushes % 64;
        ctx.write(addrs::READY_QUEUE_ENTRIES + slot * 16, 16);
        self.entries.push_back(entry);
        self.pushes += 1;
    }

    /// Pops the oldest entry that is visible at the caller's current cycle, charging the header
    /// update and the entry load.
    pub fn pop(&mut self, ctx: &mut CoreCtx<'_>) -> Option<CentralEntry> {
        ctx.read(addrs::READY_QUEUE_HEADER, 8);
        let now = ctx.now();
        let pos = self.entries.iter().position(|e| e.available_at <= now);
        let e = pos.and_then(|p| self.entries.remove(p));
        if e.is_some() {
            ctx.write(addrs::READY_QUEUE_HEADER, 8);
            let slot = self.pops % 64;
            ctx.read(addrs::READY_QUEUE_ENTRIES + slot * 16, 16);
            self.pops += 1;
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_machine::{CoreStats, CostModel};
    use tis_mem::{BandwidthModel, CacheConfig, MemLatencies, MemorySystem};

    fn harness(cores: usize) -> (MemorySystem, BandwidthModel, CostModel, Vec<CoreStats>) {
        (
            MemorySystem::new(cores, CacheConfig::rocket_l1d(), MemLatencies::default()),
            BandwidthModel::new(16.0),
            CostModel::default(),
            vec![CoreStats::default(); cores],
        )
    }

    #[test]
    fn uncontended_lock_is_cheap_contended_is_a_syscall() {
        let (mut mem, mut dram, costs, mut stats) = harness(2);
        let mut lock = NanosLock::new(addrs::SCHED_LOCK, 400);
        // Core 0 acquires and releases at t=0.
        let (s0, rest) = stats.split_at_mut(1);
        let mut ctx0 = CoreCtx::new(0, 0, &mut mem, &mut dram, &costs, &mut s0[0]);
        lock.acquire(&mut ctx0);
        lock.release(&mut ctx0);
        let t0 = ctx0.finish();
        assert!(t0 < 500, "uncontended acquisition stays in user space, took {t0}");
        // Core 1 acquires immediately afterwards: contended, pays the futex path.
        let mut ctx1 = CoreCtx::new(1, t0 + 10, &mut mem, &mut dram, &costs, &mut rest[0]);
        lock.acquire(&mut ctx1);
        lock.release(&mut ctx1);
        let t1 = ctx1.finish() - (t0 + 10);
        assert!(t1 > costs.futex_wait / 2, "contended acquisition must pay the kernel, took {t1}");
        assert_eq!(lock.contended_acquisitions, 1);
    }

    #[test]
    fn central_queue_fifo_and_stats() {
        let (mut mem, mut dram, costs, mut stats) = harness(1);
        let mut q = CentralReadyQueue::new();
        let mut ctx = CoreCtx::new(0, 0, &mut mem, &mut dram, &costs, &mut stats[0]);
        assert!(q.pop(&mut ctx).is_none());
        q.push(&mut ctx, CentralEntry { sw_id: 1, picos_id: 0, available_at: 0 });
        q.push(&mut ctx, CentralEntry { sw_id: 2, picos_id: 9, available_at: 0 });
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(&mut ctx).unwrap().sw_id, 1);
        assert_eq!(q.pop(&mut ctx).unwrap().picos_id, 9);
        assert!(q.is_empty());
        assert_eq!(q.pushes, 2);
        assert_eq!(q.pops, 2);
    }

    #[test]
    fn queue_traffic_bounces_lines_between_cores() {
        // Pushing from one core and popping from another forces the queue header line to move
        // through memory every time — the centralisation cost the paper calls out.
        let (mut mem, mut dram, costs, mut stats) = harness(2);
        let mut q = CentralReadyQueue::new();
        let mut total_cross = 0;
        for i in 0..10u64 {
            let (s0, rest) = stats.split_at_mut(1);
            let mut producer = CoreCtx::new(0, i * 1_000, &mut mem, &mut dram, &costs, &mut s0[0]);
            q.push(&mut producer, CentralEntry { sw_id: i, picos_id: 0, available_at: i * 1_000 });
            producer.finish();
            let mut consumer = CoreCtx::new(1, i * 1_000 + 500, &mut mem, &mut dram, &costs, &mut rest[0]);
            let before = consumer.now();
            q.pop(&mut consumer).unwrap();
            total_cross += consumer.finish() - before;
        }
        let per_pop = total_cross / 10;
        assert!(per_pop > MemLatencies::default().dram_fetch, "cross-core pops must miss, got {per_pop}");
    }
}
