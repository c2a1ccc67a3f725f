//! The scheduler fabric: Table I as a trait.
//!
//! A [`SchedulerFabric`] is what a core "sees" when it asks for task-scheduling services. The
//! seven operations correspond one-to-one to the custom instructions of Table I of the paper.
//! Two implementations exist in the workspace:
//!
//! * `tis-core::PicosFabric` — the shared Picos Manager driven directly by each core's Table-I
//!   operations (the per-core Picos Delegates of the paper), behind one of two CPU–accelerator
//!   links that differ only in what each operation costs:
//!   `tis-core::TisFabric`, the paper's contribution, where every RoCC instruction takes a couple
//!   of cycles, and `tis-nanos::AxiFabric`, the Picos++ baseline, where each operation crosses an
//!   AXI/MMIO driver for hundreds to thousands of cycles;
//! * [`NullFabric`] — used by the software-only Nanos-SW runtime, which never touches scheduling
//!   hardware (every operation fails).
//!
//! Every operation is **non-blocking** in the sense of Section IV-B: it returns a latency (the
//! cycles the issuing core is stalled) plus a success/failure outcome; only `Retire Task` has no
//! failure outcome because the hardware always accepts retirements.

use tis_sim::Cycle;

/// Identifier of a core issuing fabric operations.
pub type CoreId = usize;

/// Outcome of a fabric operation that can fail (the failure-flag value of the non-blocking
/// custom instructions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricOutcome<T> {
    /// The operation succeeded and produced a value.
    Success(T),
    /// The operation could not complete; the runtime is free to retry, do other work, or yield.
    Failure,
}

impl<T> FabricOutcome<T> {
    /// Whether the operation succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, FabricOutcome::Success(_))
    }

    /// Converts to an `Option`, discarding the failure case.
    pub fn success(self) -> Option<T> {
        match self {
            FabricOutcome::Success(v) => Some(v),
            FabricOutcome::Failure => None,
        }
    }
}

/// Aggregate statistics of a fabric implementation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Successful task submissions (complete descriptors accepted).
    pub tasks_submitted: u64,
    /// Submission requests that returned the failure flag.
    pub submission_failures: u64,
    /// Ready-task descriptors handed to cores.
    pub tasks_dispatched: u64,
    /// Fetch operations that returned the failure flag (empty ready queue).
    pub fetch_failures: u64,
    /// Retirements processed.
    pub tasks_retired: u64,
    /// Total fabric operations issued.
    pub operations: u64,
    /// Injected tracker-entry losses detected during submission (fault injection only).
    pub tracker_losses: u64,
    /// Submissions replayed after a detected tracker-entry loss (fault injection only).
    pub tracker_resubmits: u64,
    /// Extra cycles spent detecting and replaying lost tracker entries (fault injection only).
    pub tracker_recovery_cycles: u64,
}

/// The Table-I operations one failed poll issues, each of which returned the failure flag.
///
/// A runtime that declares a [`PollLoop`](crate::engine::PollLoop) names its fabric traffic
/// with this, so the fabric can charge skipped repeats in closed form
/// ([`SchedulerFabric::charge_failed_polls`]) and say when a repeat could stop failing
/// ([`SchedulerFabric::poll_blocked_until`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailedOps {
    /// Packet count of a refused *Submission Request*, or 0 if the poll issues none.
    pub submission_packets: u32,
    /// The poll issues a refused *Ready Task Request*.
    pub ready_task_request: bool,
    /// The poll issues a *Fetch SW ID* that finds the ready queue empty.
    pub fetch_sw_id: bool,
}

impl FailedOps {
    /// Number of fabric operations one poll issues.
    pub fn count(&self) -> u64 {
        u64::from(self.submission_packets > 0) + u64::from(self.ready_task_request) + u64::from(self.fetch_sw_id)
    }
}

/// The fabric's next internal events as a failed poll reaches them (see
/// [`SchedulerFabric::next_internal_events`]), by the rule that gates each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternalEvents {
    /// Earliest cycle at which an operation issued at or after it finds an event due (a ready
    /// publication, a routing or a forwarding); `Cycle::MAX` if none.
    pub by_op: Cycle,
    /// Earliest cycle at which an operation of a step that starts at or after it finds an
    /// event due: an event that the fabric applies only up to the time horizon the engine
    /// sets at the start of each step ([`SchedulerFabric::set_time_horizon`]), such as a Picos
    /// retirement. `Cycle::MAX` if none.
    pub by_start: Cycle,
}

impl InternalEvents {
    /// Nothing is pending that a failed poll could reach.
    pub const NONE: InternalEvents = InternalEvents { by_op: Cycle::MAX, by_start: Cycle::MAX };
}

/// Which parked polls may see a new answer from [`SchedulerFabric::poll_blocked_until`] (see
/// [`SchedulerFabric::drain_poll_changes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollChanges {
    /// Any core's, for any poll: the fabric does not track its changes.
    Untracked,
    /// The listed cores', and, if the flag is set, every core's for a poll that issues a
    /// request or a submission (what decides whether those are accepted moved).
    Tracked(bool),
}

/// The per-core task-scheduling interface (Table I of the paper).
///
/// All operations take the issuing core and the current cycle, and return the number of cycles
/// the core is occupied by the operation together with its outcome.
///
/// # Idle fast-forward
///
/// The last six methods let the engine park a core whose step was a failed poll (see
/// [`PollLoop`](crate::engine::PollLoop)) instead of stepping every repeat. A fabric that
/// supports it returns `Some` from [`SchedulerFabric::park_epoch`] and must then keep the
/// promises of the others exactly. A refused or failed operation may change its state only by
/// applying the internal events it finds due ([`SchedulerFabric::next_internal_events`]). The
/// defaults opt out, or give the answer that is always exact, so every existing fabric keeps
/// the per-poll behaviour, and a wrapper that forwards only some of them stays exact.
pub trait SchedulerFabric {
    /// Human-readable name of the fabric (used in reports).
    fn name(&self) -> &'static str;

    /// Informs the fabric that no future agent step will begin before `safe_now`. Implementations
    /// use this to release internal state changes (retirement processing) no earlier than the
    /// simulated instant every core has reached, preserving causality under the engine's relaxed
    /// step ordering. The default implementation ignores the hint.
    fn set_time_horizon(&mut self, _safe_now: Cycle) {}

    /// *Submission Request*: announce that `packet_count` non-zero submission packets follow.
    /// Fails when the scheduler cannot currently accept a new task.
    fn submission_request(&mut self, core: CoreId, packet_count: u32, now: Cycle) -> (Cycle, FabricOutcome<()>);

    /// *Submit Packet* / *Submit Three Packets*: transfer up to three 32-bit submission packets.
    /// Fails if the per-core submission buffer cannot accept them (the runtime retries).
    fn submit_packets(&mut self, core: CoreId, packets: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>);

    /// *Ready Task Request*: ask the scheduler to route one ready descriptor to this core's
    /// private ready queue. Fails if the routing queue is full.
    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>);

    /// *Fetch SW ID*: peek the software ID at the front of this core's private ready queue.
    /// Fails if the queue is empty.
    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>);

    /// *Fetch Picos ID*: pop the front of this core's private ready queue, returning the Picos
    /// ID; only succeeds after a matching successful *Fetch SW ID*.
    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>);

    /// *Retire Task*: report that the task with the given Picos ID finished. Blocking in the
    /// paper (always succeeds), so only a latency is returned.
    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle;

    /// Statistics snapshot.
    fn stats(&self) -> FabricStats;

    /// Arms (or disarms) observability logging inside the fabric. While armed, the fabric
    /// buffers ready-publication timestamps for [`SchedulerFabric::drain_ready_log`]; while
    /// disarmed (the default, and the default implementation) it buffers nothing and costs
    /// nothing — the engine only arms it when a run carries an observer.
    fn set_observing(&mut self, _on: bool) {}

    /// Drains buffered dependence-resolution events as `(publish_cycle, sw_id)` pairs, oldest
    /// first. The engine calls this after every agent step on observed runs; the default
    /// implementation has nothing to drain.
    fn drain_ready_log(&mut self, _sink: &mut dyn FnMut(Cycle, u64)) {}

    /// Occupancy gauges for the metrics timeline: `(tasks in flight inside the scheduler,
    /// ready-queue depth)`. Fabrics without tracking hardware report `(0, 0)`.
    fn occupancy(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Version of the fabric's state, bumped by every operation or internal event that changes
    /// anything a later operation could observe (statistics counters excluded). `None`, the
    /// default, means the fabric does not support idle fast-forward and no core ever parks.
    fn park_epoch(&self) -> Option<u64> {
        None
    }

    /// The fabric's next internal events, as a failed poll reaches them: the earliest cycle at
    /// which one of its refused or failed operations would find internal work due (a timed
    /// completion, or a queue that can drain now) and so change the state. Only consulted when
    /// [`SchedulerFabric::park_epoch`] is `Some`. The default, an event due at cycle 0 for every
    /// operation, makes the engine step every poll that some other step does not already
    /// cover, which is always exact.
    fn next_internal_events(&self) -> InternalEvents {
        InternalEvents { by_op: 0, by_start: Cycle::MAX }
    }

    /// Earliest operation time at which `core` repeating the failed operations `ops` could see
    /// a different outcome, assuming no other operation changes the state first and ignoring
    /// [`SchedulerFabric::next_internal_events`]. `Cycle::MAX` if only a state change can.
    fn poll_blocked_until(&self, _core: CoreId, _ops: FailedOps) -> Cycle {
        0
    }

    /// Reports whose [`SchedulerFabric::poll_blocked_until`] answers may differ from what they
    /// were at the last call: the cores handed to `sink`, for any poll, and, as
    /// [`PollChanges::Tracked`]'s flag, every core's answer for a poll that issues a request or
    /// a submission. The engine calls it after each step that moved
    /// [`SchedulerFabric::park_epoch`] while a core is parked, and when a first core parks.
    /// The default, [`PollChanges::Untracked`], means that any answer may have moved.
    fn drain_poll_changes(&mut self, _sink: &mut dyn FnMut(CoreId)) -> PollChanges {
        PollChanges::Untracked
    }

    /// Issue time of `core`'s last operation, if the fabric records it. A repeat of a parked
    /// poll reaches a cycle only through its operations, so the engine measures how far into
    /// the poll its last one falls. The default, `None`, lets the engine assume they may run to
    /// the end of the poll's runtime cycles, which is always exact.
    fn last_operation(&self, _core: CoreId) -> Option<Cycle> {
        None
    }

    /// Charges `polls` repeats of the failed operations `ops` by `core` to every statistic the
    /// real operations would have counted, without touching any other state.
    fn charge_failed_polls(&mut self, _core: CoreId, _ops: FailedOps, _polls: u64) {}
}

/// A fabric with no hardware behind it: every operation fails immediately.
///
/// Used by the pure-software Nanos-SW runtime (which performs dependence management in memory)
/// and by tests that need a stand-in fabric.
#[derive(Debug, Clone, Default)]
pub struct NullFabric {
    stats: FabricStats,
}

impl NullFabric {
    /// Creates a null fabric.
    pub fn new() -> Self {
        NullFabric::default()
    }
}

impl SchedulerFabric for NullFabric {
    fn name(&self) -> &'static str {
        "null"
    }

    fn submission_request(&mut self, _core: CoreId, _n: u32, _now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        self.stats.submission_failures += 1;
        (1, FabricOutcome::Failure)
    }

    fn submit_packets(&mut self, _core: CoreId, _p: &[u32], _now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        (1, FabricOutcome::Failure)
    }

    fn ready_task_request(&mut self, _core: CoreId, _now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        (1, FabricOutcome::Failure)
    }

    fn fetch_sw_id(&mut self, _core: CoreId, _now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.stats.operations += 1;
        self.stats.fetch_failures += 1;
        (1, FabricOutcome::Failure)
    }

    fn fetch_picos_id(&mut self, _core: CoreId, _now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.stats.operations += 1;
        self.stats.fetch_failures += 1;
        (1, FabricOutcome::Failure)
    }

    fn retire_task(&mut self, _core: CoreId, _picos_id: u32, _now: Cycle) -> Cycle {
        self.stats.operations += 1;
        1
    }

    fn stats(&self) -> FabricStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        let s: FabricOutcome<u32> = FabricOutcome::Success(7);
        let f: FabricOutcome<u32> = FabricOutcome::Failure;
        assert!(s.is_success() && !f.is_success());
        assert_eq!(s.success(), Some(7));
        assert_eq!(f.success(), None);
    }

    #[test]
    fn null_fabric_always_fails_cheaply() {
        let mut f = NullFabric::new();
        assert_eq!(f.name(), "null");
        let (lat, out) = f.submission_request(0, 6, 0);
        assert_eq!(lat, 1);
        assert!(!out.is_success());
        let (_, out) = f.fetch_sw_id(1, 5);
        assert!(!out.is_success());
        let lat = f.retire_task(0, 3, 10);
        assert_eq!(lat, 1);
        let stats = f.stats();
        assert_eq!(stats.operations, 3);
        assert_eq!(stats.submission_failures, 1);
        assert_eq!(stats.fetch_failures, 1);
    }
}
