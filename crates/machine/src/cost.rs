//! Calibrated cycle costs of software-level operations.
//!
//! The performance difference between the four platforms of the paper comes from *which* of these
//! operations each runtime performs per task, multiplied by what each costs on an 80 MHz in-order
//! Rocket core running Linux:
//!
//! * **Phentos** performs only RoCC instructions, a handful of L1-resident loads/stores and an
//!   occasional atomic — a few hundred cycles per task (Figure 7: 185–423 cycles).
//! * **Nanos-RV** keeps the hardware dependence tracking but pays Nanos' software structure:
//!   virtual dispatch, work-descriptor allocation, the central scheduler queue and its mutexes
//!   and condition variables — ~12–13 k cycles per task.
//! * **Nanos-AXI** (the Picos++ baseline of Tan et al.) additionally crosses the CPU–FPGA
//!   boundary through MMIO/DMA driver calls — ~13–19 k cycles per task.
//! * **Nanos-SW** replaces the hardware tracker with a lock-protected software dependence domain
//!   — ~25–99 k cycles per task, growing steeply with the number of dependences.
//!
//! The constants below are *inputs* to the model, not the paper's results: they come from the
//! structure of each code path (documented per field) and from public measurements of Linux
//! futex/syscall costs on small in-order cores, scaled to 80 MHz. EXPERIMENTS.md compares the
//! end-to-end overheads that *emerge* from composing them against Figure 7. The prices of the
//! CPU–accelerator links live with the links: `tis_core::TisConfig` and `tis_nanos::AxiConfig`.

use tis_sim::Cycle;

/// Cycle costs of the software operations performed by the runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    // --- plain code ---
    /// A plain (inlinable) function call, including argument setup.
    pub function_call: Cycle,
    /// A virtual (indirect) call through a vtable, as used pervasively by Nanos' plugin
    /// architecture; includes the frequent I-cache/branch-predictor misses of an in-order core.
    pub virtual_call: Cycle,
    /// Computing a hash and probing a bucket in a software hash map (Nanos-SW dependence domain).
    pub hash_probe: Cycle,
    /// Allocating a heap object (Nanos WorkDescriptor / dependence nodes); glibc malloc on a
    /// small in-order core.
    pub heap_alloc: Cycle,
    /// Freeing a heap object.
    pub heap_free: Cycle,

    // --- synchronisation ---
    /// Acquiring an uncontended mutex (atomic compare-and-swap + fences, no syscall).
    pub mutex_uncontended: Cycle,
    /// Parking on a contended mutex or condition variable: a futex_wait system call plus the
    /// eventual wake-up path. Thousands of cycles at 80 MHz under Linux.
    pub futex_wait: Cycle,
    /// Waking a thread blocked on a futex (futex_wake system call issued by the releaser).
    pub futex_wake: Cycle,
    /// One spin-wait backoff iteration (pause + reload), used by Phentos' bounded polling.
    pub spin_backoff: Cycle,
    /// Base cost of an arbitrary system call (trap, kernel entry/exit) — Nanos' scheduler
    /// yields, sleeps and timer queries.
    pub syscall_base: Cycle,

    // --- serial-baseline ---
    /// Call overhead per task body in the serial (non-task) version of a benchmark.
    pub serial_call_overhead: Cycle,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            function_call: 6,
            virtual_call: 22,
            hash_probe: 35,
            heap_alloc: 180,
            heap_free: 120,
            mutex_uncontended: 45,
            futex_wait: 2_600,
            futex_wake: 900,
            spin_backoff: 12,
            syscall_base: 700,
            serial_call_overhead: 8,
        }
    }
}

impl CostModel {
    /// A cost model in which every software operation is free.
    ///
    /// Useful in tests that want to isolate the hardware (Picos + memory) component of a
    /// latency, and as the limiting case "infinitely fast runtime code".
    pub fn zero() -> Self {
        CostModel {
            function_call: 0,
            virtual_call: 0,
            hash_probe: 0,
            heap_alloc: 0,
            heap_free: 0,
            mutex_uncontended: 0,
            futex_wait: 0,
            futex_wake: 0,
            spin_backoff: 1,
            syscall_base: 0,
            serial_call_overhead: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered_sensibly() {
        let c = CostModel::default();
        // The whole premise of the paper, encoded as orderings rather than absolute values.
        assert!(c.function_call < c.virtual_call);
        assert!(c.mutex_uncontended < c.futex_wait);
        assert!(c.spin_backoff < c.mutex_uncontended);
        assert!(c.heap_alloc > c.function_call);
    }

    #[test]
    fn zero_model_is_almost_all_zeros() {
        let z = CostModel::zero();
        assert_eq!(z.function_call, 0);
        assert_eq!(z.futex_wait, 0);
        assert_eq!(z.spin_backoff, 1, "spin backoff must stay positive to avoid zero-time loops");
    }
}
