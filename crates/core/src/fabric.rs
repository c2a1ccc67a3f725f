//! The Picos scheduler fabric: Table I served by one Picos accelerator behind either
//! CPU–accelerator link.
//!
//! [`PicosFabric`] is the per-core Picos Delegates of Figure 2 (Section IV-E) around a shared
//! [`PicosManager`] (which owns the Picos device), exposed as a [`SchedulerFabric`], the interface
//! runtimes program against. Each operation goes straight to the manager, which also keeps the
//! one bit of delegate state, the *SW-ID-fetched* flag; the fabric counts its outcome per core
//! ([`OpCounts`]) and has its link, a [`PicosLink`], price it. [`TisFabric`] is the paper's link:
//! each RoCC instruction costs the core a fixed latency (2 cycles on Rocket, Section IV-F2) plus
//! whatever the blocking *Retire Task* transaction adds, which is the "FPGA-CPU communication
//! latency eliminated" property the paper's speedups come from. `tis_nanos::AxiFabric` prices
//! the same operations as the Picos++ driver's MMIO and DMA transfers.

use tis_machine::fabric::{
    CoreId, FabricOutcome, FabricStats, FailedOps, InternalEvents, PollChanges, SchedulerFabric,
};
use tis_picos::PicosConfig;
use tis_sim::Cycle;

use crate::manager::{ManagerConfig, PicosManager};
use crate::rocc::TaskSchedOp;

/// A CPU–accelerator link: the configuration of a [`PicosFabric`] and the price of each
/// Table-I operation on it.
pub trait PicosLink: Copy {
    /// Name of the fabric over this link (used in reports).
    const NAME: &'static str;

    /// Picos Manager sizing and crossing latencies.
    fn manager(&self) -> ManagerConfig;

    /// Picos device configuration.
    fn picos(&self) -> PicosConfig;

    /// Cycles the issuing core spends on `op` transferring `packets` submission packets, before
    /// the manager's latency that a *Retire Task* adds.
    fn price(&self, op: TaskSchedOp, packets: u32) -> Cycle;
}

/// Configuration of the tightly-integrated scheduling subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TisConfig {
    /// Latency of one RoCC custom instruction as seen by the issuing core.
    pub rocc_latency: Cycle,
    /// Picos Manager sizing and crossing latencies.
    pub manager: ManagerConfig,
    /// Picos device configuration (tracker capacities, pipeline timing, ready-queue depth).
    pub picos: PicosConfig,
}

impl Default for TisConfig {
    fn default() -> Self {
        TisConfig {
            rocc_latency: 2,
            manager: ManagerConfig::default(),
            picos: PicosConfig::default(),
        }
    }
}

impl PicosLink for TisConfig {
    const NAME: &'static str = "rocc-picos";

    fn manager(&self) -> ManagerConfig {
        self.manager
    }

    fn picos(&self) -> PicosConfig {
        self.picos
    }

    fn price(&self, _op: TaskSchedOp, _packets: u32) -> Cycle {
        self.rocc_latency
    }
}

/// One core's Table-I operation counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Operations issued, indexed by `op as usize` (the order of [`TaskSchedOp::ALL`]).
    pub issued: [u64; 7],
    /// Operations that returned the failure flag, indexed like `issued`.
    pub failed: [u64; 7],
}

impl OpCounts {
    fn record(&mut self, op: TaskSchedOp, issued: u64, failed: u64) {
        self.issued[op as usize] += issued;
        self.failed[op as usize] += failed;
    }

    /// Total operations issued.
    pub fn total_issued(&self) -> u64 {
        self.issued.iter().sum()
    }
}

/// The Picos accelerator behind the link `L`: one shared manager and per-core operation counts.
#[derive(Debug, Clone)]
pub struct PicosFabric<L> {
    link: L,
    manager: PicosManager,
    ops: Vec<OpCounts>,
    /// Issue time of each core's last operation.
    last_op: Vec<Cycle>,
}

/// The RoCC-integrated Picos scheduling fabric (the paper's contribution).
pub type TisFabric = PicosFabric<TisConfig>;

impl<L: PicosLink> PicosFabric<L> {
    /// Builds the fabric for a machine with `cores` cores.
    pub fn new(cores: usize, link: L) -> Self {
        PicosFabric {
            link,
            manager: PicosManager::new(cores, link.manager(), link.picos()),
            ops: vec![OpCounts::default(); cores],
            last_op: vec![0; cores],
        }
    }

    /// Builds the fabric with the link's default configuration.
    pub fn with_cores(cores: usize) -> Self
    where
        L: Default,
    {
        PicosFabric::new(cores, L::default())
    }

    /// Configuration in use.
    pub fn config(&self) -> L {
        self.link
    }

    /// Operations issued by `core`.
    pub fn op_counts(&self, core: CoreId) -> &OpCounts {
        &self.ops[core]
    }

    /// Number of tasks currently tracked by Picos.
    pub fn tasks_in_flight(&self) -> usize {
        self.manager.tasks_in_flight()
    }

    /// Counts `op`'s result for `core`, issued at `now`, and returns the link's price with the
    /// outcome.
    fn issue<T>(
        &mut self,
        core: CoreId,
        now: Cycle,
        op: TaskSchedOp,
        packets: u32,
        result: Option<T>,
    ) -> (Cycle, FabricOutcome<T>) {
        self.ops[core].record(op, 1, u64::from(result.is_none()));
        self.last_op[core] = now;
        (self.link.price(op, packets), result.map_or(FabricOutcome::Failure, FabricOutcome::Success))
    }
}

impl<L: PicosLink> SchedulerFabric for PicosFabric<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.manager.set_time_horizon(safe_now);
    }

    fn submission_request(&mut self, core: CoreId, packet_count: u32, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        let ok = self.manager.submission_request(core, packet_count, now);
        self.issue(core, now, TaskSchedOp::SubmissionRequest, 0, ok.then_some(()))
    }

    fn submit_packets(&mut self, core: CoreId, packets: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>) {
        let ok = self.manager.push_packets(core, packets, now);
        self.issue(core, now, TaskSchedOp::submit_for(packets.len()), packets.len() as u32, ok.then_some(()))
    }

    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        let ok = self.manager.ready_task_request(core, now);
        self.issue(core, now, TaskSchedOp::ReadyTaskRequest, 0, ok.then_some(()))
    }

    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        let sw_id = self.manager.fetch_sw_id(core, now);
        self.issue(core, now, TaskSchedOp::FetchSwId, 0, sw_id)
    }

    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        let picos_id = self.manager.fetch_picos_id(core, now);
        self.issue(core, now, TaskSchedOp::FetchPicosId, 0, picos_id)
    }

    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle {
        let manager_latency = self.manager.retire(picos_id, now);
        self.issue(core, now, TaskSchedOp::RetireTask, 0, Some(())).0 + manager_latency
    }

    fn stats(&self) -> FabricStats {
        use TaskSchedOp::{FetchPicosId, FetchSwId, RetireTask, SubmissionRequest};
        let issued = |op: TaskSchedOp| self.ops.iter().map(|c| c.issued[op as usize]).sum::<u64>();
        let failed = |op: TaskSchedOp| self.ops.iter().map(|c| c.failed[op as usize]).sum::<u64>();
        let picos = self.manager.picos().stats();
        FabricStats {
            // A descriptor may reach Picos during any later operation's advance, so the count
            // comes from the manager rather than from the submit that completed it.
            tasks_submitted: self.manager.stats().descriptors_forwarded,
            submission_failures: failed(SubmissionRequest),
            tasks_dispatched: issued(FetchPicosId) - failed(FetchPicosId),
            fetch_failures: failed(FetchSwId) + failed(FetchPicosId),
            tasks_retired: issued(RetireTask),
            operations: self.ops.iter().map(OpCounts::total_issued).sum(),
            tracker_losses: picos.tracker_losses,
            tracker_resubmits: picos.tracker_resubmits,
            tracker_recovery_cycles: picos.tracker_recovery_cycles,
        }
    }

    fn set_observing(&mut self, on: bool) {
        self.manager.set_observing(on);
    }

    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.manager.drain_ready_log(sink);
    }

    fn occupancy(&self) -> (usize, usize) {
        self.manager.occupancy()
    }

    fn park_epoch(&self) -> Option<u64> {
        Some(self.manager.epoch())
    }

    fn next_internal_events(&self) -> InternalEvents {
        self.manager.next_events()
    }

    fn poll_blocked_until(&self, core: CoreId, ops: FailedOps) -> Cycle {
        self.manager.poll_blocked_until(core, ops)
    }

    fn drain_poll_changes(&mut self, sink: &mut dyn FnMut(CoreId)) -> PollChanges {
        PollChanges::Tracked(self.manager.drain_poll_changes(sink))
    }

    fn last_operation(&self, core: CoreId) -> Option<Cycle> {
        Some(self.last_op[core])
    }

    fn charge_failed_polls(&mut self, core: CoreId, ops: FailedOps, polls: u64) {
        use TaskSchedOp::{FetchSwId, ReadyTaskRequest, SubmissionRequest};
        for (op, fails) in [
            (SubmissionRequest, ops.submission_packets > 0),
            (ReadyTaskRequest, ops.ready_task_request),
            (FetchSwId, ops.fetch_sw_id),
        ] {
            let repeats = polls * u64::from(fails);
            self.ops[core].record(op, repeats, repeats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_picos::{encode_nonzero_prefix, SubmittedTask};
    use tis_taskmodel::Dependence;

    /// Submit a task through the public fabric API, exactly as a runtime would.
    fn submit(fabric: &mut TisFabric, core: usize, sw_id: u64, deps: Vec<Dependence>, now: u64) -> bool {
        let pkts = encode_nonzero_prefix(&SubmittedTask::new(sw_id, deps));
        let (_, out) = fabric.submission_request(core, pkts.len() as u32, now);
        if !out.is_success() {
            return false;
        }
        for chunk in pkts.chunks(3) {
            let (_, out) = fabric.submit_packets(core, chunk, now);
            assert!(out.is_success());
        }
        true
    }

    #[test]
    fn rocc_instruction_cost_matches_paper() {
        // Section IV-F2: ready descriptors are fetched "with two 2-cycle-long RoCC instructions".
        assert_eq!(TisConfig::default().rocc_latency, 2);
    }

    #[test]
    fn every_instruction_costs_the_rocc_latency() {
        let mut f = TisFabric::with_cores(2);
        let (lat, _) = f.submission_request(0, 3, 0);
        assert_eq!(lat, 2);
        let (lat, _) = f.ready_task_request(1, 0);
        assert_eq!(lat, 2);
        let (lat, _) = f.fetch_sw_id(1, 0);
        assert_eq!(lat, 2);
    }

    #[test]
    fn end_to_end_task_lifecycle_through_the_fabric() {
        let mut f = TisFabric::with_cores(2);
        assert!(submit(&mut f, 0, 99, vec![Dependence::write(0x1000)], 0));
        let (_, out) = f.ready_task_request(1, 10);
        assert!(out.is_success());
        let mut now = 10;
        let sw = loop {
            now += 4;
            let (_, out) = f.fetch_sw_id(1, now);
            if let FabricOutcome::Success(sw) = out {
                break sw;
            }
            assert!(now < 10_000, "task never became ready");
        };
        assert_eq!(sw, 99);
        let (_, out) = f.fetch_picos_id(1, now);
        let pid = out.success().expect("picos id after sw id");
        let lat = f.retire_task(1, pid, now + 500);
        assert!(lat >= f.config().rocc_latency);
        assert_eq!(f.tasks_in_flight(), 0);
        let stats = SchedulerFabric::stats(&f);
        assert_eq!(stats.tasks_dispatched, 1);
        assert_eq!(stats.tasks_retired, 1);
        assert!(stats.operations >= 6);
    }

    #[test]
    fn dependent_task_is_withheld_until_predecessor_retires() {
        let mut f = TisFabric::with_cores(2);
        assert!(submit(&mut f, 0, 1, vec![Dependence::write(0x2000)], 0));
        assert!(submit(&mut f, 0, 2, vec![Dependence::read(0x2000)], 5));
        let (_, out) = f.ready_task_request(1, 10);
        assert!(out.is_success());
        let mut now = 10;
        let first = loop {
            now += 4;
            if let FabricOutcome::Success(sw) = f.fetch_sw_id(1, now).1 {
                break sw;
            }
            assert!(now < 10_000);
        };
        assert_eq!(first, 1);
        let pid1 = f.fetch_picos_id(1, now).1.success().unwrap();
        // Ask for more work: nothing can arrive until task 1 retires.
        let (_, out) = f.ready_task_request(1, now);
        assert!(out.is_success());
        for probe in 0..20 {
            assert!(!f.fetch_sw_id(1, now + probe * 10).1.is_success());
        }
        f.retire_task(1, pid1, now + 300);
        let mut now2 = now + 300;
        let second = loop {
            now2 += 4;
            if let FabricOutcome::Success(sw) = f.fetch_sw_id(1, now2).1 {
                break sw;
            }
            assert!(now2 < now + 10_000);
        };
        assert_eq!(second, 2);
    }

    #[test]
    fn submission_failure_when_picos_saturated_is_non_blocking() {
        use tis_picos::{PicosConfig, TrackerConfig};
        let cfg = TisConfig {
            picos: PicosConfig {
                tracker: TrackerConfig { task_memory_entries: 2, address_table_entries: 64 },
                ..PicosConfig::default()
            },
            ..TisConfig::default()
        };
        let mut f = TisFabric::new(1, cfg);
        assert!(submit(&mut f, 0, 1, vec![], 0));
        assert!(submit(&mut f, 0, 2, vec![], 1));
        // Third task: task memory holds 2 in-flight tasks, the forward queue backs up, and the
        // next submission request fails fast instead of stalling the core.
        let mut accepted = 0;
        for i in 0..4 {
            if submit(&mut f, 0, 10 + i, vec![], 10 + i) {
                accepted += 1;
            }
        }
        assert!(accepted < 4, "saturated hardware must reject some submissions");
        assert!(SchedulerFabric::stats(&f).submission_failures > 0);
    }

    #[test]
    fn refused_requests_are_counted_as_the_issuing_core_s_failures() {
        use TaskSchedOp::{ReadyTaskRequest, SubmissionRequest};
        let manager = ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() };
        let mut f = TisFabric::new(2, TisConfig { manager, ..TisConfig::default() });
        assert!(f.submission_request(0, 6, 0).1.is_success());
        assert!(!f.submission_request(0, 6, 1).1.is_success(), "buffer still open");
        assert!(f.submission_request(1, 6, 2).1.is_success(), "another core's buffer is independent");
        assert!(f.ready_task_request(0, 3).1.is_success());
        assert!(!f.ready_task_request(1, 4).1.is_success(), "routing queue holds a single outstanding request");
        assert_eq!(f.op_counts(0).failed[SubmissionRequest as usize], 1);
        assert_eq!(f.op_counts(1).failed[SubmissionRequest as usize], 0);
        assert_eq!(f.op_counts(0).failed[ReadyTaskRequest as usize], 0);
        assert_eq!(f.op_counts(1).failed[ReadyTaskRequest as usize], 1);
        assert_eq!(SchedulerFabric::stats(&f).submission_failures, 1);
    }

    #[test]
    fn per_core_delegates_are_independent() {
        let mut f = TisFabric::with_cores(4);
        assert!(submit(&mut f, 2, 5, vec![], 0));
        assert!(f.ready_task_request(3, 1).1.is_success());
        let mut now = 1;
        while !f.fetch_sw_id(3, now).1.is_success() {
            now += 4;
            assert!(now < 10_000);
        }
        // Core 1 never fetched a SW ID, so its Fetch Picos ID must fail even though core 3's
        // queue has an armed entry.
        assert!(!f.fetch_picos_id(1, now).1.is_success());
        assert!(f.fetch_picos_id(3, now).1.is_success());
        assert!(f.op_counts(3).total_issued() > 0);
        assert_eq!(f.op_counts(0).total_issued(), 0);
    }
}
