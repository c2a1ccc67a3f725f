//! The per-core Picos Delegate (Section IV-E).
//!
//! One delegate is instantiated per Rocket core (the "ROCC Acc-Stub" of Figure 2). It decodes
//! the custom instructions issued by its core and carries them out against the shared
//! [`PicosManager`]. The only per-core architectural state it
//! keeps is the *SW-ID-fetched* flag that couples `Fetch SW ID` and `Fetch Picos ID`: the
//! Picos ID of a ready task can only be fetched (and the entry popped) after its SW ID has been
//! successfully read, exactly as specified in Sections IV-E5 and IV-E6.
//!
//! The delegate is link-agnostic: [`PicosFabric`](crate::fabric::PicosFabric) routes every
//! operation of either CPU–accelerator link through it and only prices the operation by link, so
//! its counters are the fabric's statistics on both.

use tis_machine::FailedOps;
use tis_sim::Cycle;

use crate::manager::{CoreId, PicosManager};
use crate::rocc::TaskSchedOp;

/// Per-core instruction counters (one slot per Table-I operation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DelegateStats {
    /// Instructions issued, indexed by `op as usize` (the order of [`TaskSchedOp::ALL`]).
    pub issued: [u64; 7],
    /// Instructions that returned the failure flag, indexed like `issued`.
    pub failed: [u64; 7],
}

impl DelegateStats {
    fn record(&mut self, op: TaskSchedOp, ok: bool) {
        self.issued[op as usize] += 1;
        if !ok {
            self.failed[op as usize] += 1;
        }
    }

    fn record_failures(&mut self, op: TaskSchedOp, times: u64) {
        self.issued[op as usize] += times;
        self.failed[op as usize] += times;
    }

    /// Total instructions issued by this core.
    pub fn total_issued(&self) -> u64 {
        self.issued.iter().sum()
    }

    /// Total instructions that reported failure.
    pub fn total_failed(&self) -> u64 {
        self.failed.iter().sum()
    }
}

impl<'a> std::iter::Sum<&'a DelegateStats> for DelegateStats {
    fn sum<I: Iterator<Item = &'a DelegateStats>>(iter: I) -> Self {
        iter.fold(DelegateStats::default(), |mut total, s| {
            for (sum, n) in total.issued.iter_mut().zip(s.issued) {
                *sum += n;
            }
            for (sum, n) in total.failed.iter_mut().zip(s.failed) {
                *sum += n;
            }
            total
        })
    }
}

/// The RoCC accelerator stub instantiated in every core.
#[derive(Debug, Clone, Default)]
pub struct PicosDelegate {
    core: CoreId,
    sw_id_fetched: bool,
    stats: DelegateStats,
}

impl PicosDelegate {
    /// Creates the delegate for a given core.
    pub fn new(core: CoreId) -> Self {
        PicosDelegate { core, sw_id_fetched: false, stats: DelegateStats::default() }
    }

    /// Core this delegate belongs to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Instruction statistics.
    pub fn stats(&self) -> &DelegateStats {
        &self.stats
    }

    /// *Submission Request* — returns `true` on success.
    pub fn submission_request(&mut self, manager: &mut PicosManager, packet_count: u32, now: Cycle) -> bool {
        let ok = manager.submission_request(self.core, packet_count, now);
        self.stats.record(TaskSchedOp::SubmissionRequest, ok);
        ok
    }

    /// *Submit Packet* (one packet) or *Submit Three Packets* (three packets) — returns `true`
    /// on success.
    pub fn submit_packets(&mut self, manager: &mut PicosManager, packets: &[u32], now: Cycle) -> bool {
        let ok = manager.push_packets(self.core, packets, now);
        self.stats.record(TaskSchedOp::submit_for(packets.len()), ok);
        ok
    }

    /// *Ready Task Request* — returns `true` on success.
    pub fn ready_task_request(&mut self, manager: &mut PicosManager, now: Cycle) -> bool {
        let ok = manager.ready_task_request(self.core, now);
        self.stats.record(TaskSchedOp::ReadyTaskRequest, ok);
        ok
    }

    /// *Fetch SW ID* — peeks the front of the core's private ready queue without popping it and
    /// arms the SW-ID-fetched flag on success.
    pub fn fetch_sw_id(&mut self, manager: &mut PicosManager, now: Cycle) -> Option<u64> {
        let result = manager.front_ready(self.core, now).map(|e| e.sw_id);
        if result.is_some() {
            self.sw_id_fetched = true;
        }
        self.stats.record(TaskSchedOp::FetchSwId, result.is_some());
        result
    }

    /// *Fetch Picos ID* — pops the front of the queue, but only if a previous *Fetch SW ID*
    /// succeeded for it; otherwise returns `None` and changes nothing.
    pub fn fetch_picos_id(&mut self, manager: &mut PicosManager, now: Cycle) -> Option<u32> {
        if !self.sw_id_fetched {
            self.stats.record(TaskSchedOp::FetchPicosId, false);
            return None;
        }
        let result = manager.pop_ready(self.core, now).map(|e| e.picos_id);
        if result.is_some() {
            self.sw_id_fetched = false;
        }
        self.stats.record(TaskSchedOp::FetchPicosId, result.is_some());
        result
    }

    /// Counts `polls` repeats of the failed instructions in `ops`, exactly as issuing them would.
    pub(crate) fn charge_failed_polls(&mut self, ops: FailedOps, polls: u64) {
        if ops.submission_packets > 0 {
            self.stats.record_failures(TaskSchedOp::SubmissionRequest, polls);
        }
        if ops.ready_task_request {
            self.stats.record_failures(TaskSchedOp::ReadyTaskRequest, polls);
        }
        if ops.fetch_sw_id {
            self.stats.record_failures(TaskSchedOp::FetchSwId, polls);
        }
    }

    /// *Retire Task* — blocking; returns the cycles the core is held.
    pub fn retire_task(&mut self, manager: &mut PicosManager, picos_id: u32, now: Cycle) -> Cycle {
        self.stats.record(TaskSchedOp::RetireTask, true);
        manager.retire(self.core, picos_id, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ManagerConfig;
    use tis_picos::{encode_nonzero_prefix, PicosConfig, SubmittedTask};

    fn setup() -> (PicosManager, PicosDelegate, PicosDelegate) {
        let manager = PicosManager::new(2, ManagerConfig::default(), PicosConfig::default());
        (manager, PicosDelegate::new(0), PicosDelegate::new(1))
    }

    fn submit_simple(manager: &mut PicosManager, delegate: &mut PicosDelegate, sw_id: u64, now: u64) {
        let pkts = encode_nonzero_prefix(&SubmittedTask::new(sw_id, vec![]));
        assert!(delegate.submission_request(manager, pkts.len() as u32, now));
        for chunk in pkts.chunks(3) {
            assert!(delegate.submit_packets(manager, chunk, now));
        }
    }

    #[test]
    fn fetch_picos_id_requires_prior_sw_id_fetch() {
        let (mut manager, mut d0, mut d1) = setup();
        submit_simple(&mut manager, &mut d0, 77, 0);
        assert!(d1.ready_task_request(&mut manager, 10));
        let mut now = 10;
        while manager.front_ready(1, now).is_none() {
            now += 5;
            assert!(now < 10_000);
        }
        // Without fetching the SW ID first, the Picos ID fetch must fail and not pop anything.
        assert_eq!(d1.fetch_picos_id(&mut manager, now), None);
        assert_eq!(d1.fetch_sw_id(&mut manager, now), Some(77));
        let pid = d1.fetch_picos_id(&mut manager, now).expect("armed by the SW ID fetch");
        // The entry was popped: a second pair of fetches fails until new work arrives.
        assert_eq!(d1.fetch_sw_id(&mut manager, now), None);
        assert_eq!(d1.fetch_picos_id(&mut manager, now), None);
        d1.retire_task(&mut manager, pid, now + 50);
        assert_eq!(manager.tasks_in_flight(), 0);
    }

    #[test]
    fn sw_id_fetch_does_not_pop_the_queue() {
        let (mut manager, mut d0, _d1) = setup();
        submit_simple(&mut manager, &mut d0, 5, 0);
        assert!(d0.ready_task_request(&mut manager, 5));
        let mut now = 5;
        while d0.fetch_sw_id(&mut manager, now).is_none() {
            now += 5;
            assert!(now < 10_000);
        }
        // Fetching the SW ID again still sees the same task: the entry is only consumed by
        // Fetch Picos ID.
        assert_eq!(d0.fetch_sw_id(&mut manager, now), Some(5));
        assert!(d0.fetch_picos_id(&mut manager, now).is_some());
    }

    #[test]
    fn counters_are_indexed_in_table_i_order() {
        for (i, op) in TaskSchedOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
    }

    #[test]
    fn stats_count_failures() {
        let (mut manager, mut d0, _d1) = setup();
        assert_eq!(d0.fetch_sw_id(&mut manager, 0), None);
        assert_eq!(d0.fetch_picos_id(&mut manager, 0), None);
        assert_eq!(d0.stats().total_issued(), 2);
        assert_eq!(d0.stats().total_failed(), 2);
        submit_simple(&mut manager, &mut d0, 1, 10);
        assert!(d0.stats().total_issued() > 2);
    }
}
