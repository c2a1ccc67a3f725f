//! The AXI/MMIO link to Picos — the previous state of the art (Picos++ of Tan et al.).
//!
//! Functionally this is the *same* Picos Manager and Picos device as the tightly-integrated
//! system (`tis-core`), which is exactly the comparison the paper sets up: the accelerator is
//! identical, only the CPU↔accelerator path differs. [`AxiFabric`] is therefore the one
//! [`PicosFabric`] of `tis-core` with [`AxiConfig`] as its link, which prices every Table-I
//! operation as a crossing of the processor–FPGA boundary through the Linux driver and the AXI
//! interconnect:
//!
//! * a submission pays one DMA/driver setup plus a per-word transfer cost for its packets;
//! * work fetches and ready-queue peeks are uncached MMIO reads through the driver;
//! * ready-task requests and retirements are MMIO writes.
//!
//! Those per-operation costs (hundreds to thousands of cycles at the prototype's 80 MHz) are the
//! ones the RoCC integration eliminates, and they reproduce the Nanos-AXI column of Figure 7.

use tis_core::fabric::{PicosFabric, PicosLink};
use tis_core::manager::ManagerConfig;
use tis_core::TaskSchedOp;
use tis_picos::PicosConfig;
use tis_sim::Cycle;

/// Latency parameters of the AXI/MMIO path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiConfig {
    /// Driver/ioctl entry cost paid once per scheduler interaction.
    pub driver_call: Cycle,
    /// DMA descriptor setup (the "DMA-like communication module" of Picos++) paid once per task
    /// submission. Fitted against Figure 7's Nanos-AXI row (the one per-task knob on that
    /// path): 753 cycles puts the composed Task-Free(15) overhead within 0.5% of the paper's
    /// 17 042.
    pub dma_setup: Cycle,
    /// Per-32-bit-word cost of streaming submission packets over AXI by DMA.
    pub dma_per_word: Cycle,
    /// One uncached MMIO read (round trip over the AXI bridge).
    pub mmio_read: Cycle,
    /// One uncached MMIO write.
    pub mmio_write: Cycle,
    /// Manager sizing (same structure as the tightly-integrated system).
    pub manager: ManagerConfig,
    /// Picos device configuration.
    pub picos: PicosConfig,
}

impl Default for AxiConfig {
    fn default() -> Self {
        AxiConfig {
            driver_call: 650,
            dma_setup: 753,
            dma_per_word: 30,
            mmio_read: 160,
            mmio_write: 110,
            manager: ManagerConfig::default(),
            picos: PicosConfig::default(),
        }
    }
}

impl PicosLink for AxiConfig {
    const NAME: &'static str = "axi-picos";

    fn manager(&self) -> ManagerConfig {
        self.manager
    }

    fn picos(&self) -> PicosConfig {
        self.picos
    }

    fn price(&self, op: TaskSchedOp, packets: u32) -> Cycle {
        match op {
            TaskSchedOp::SubmissionRequest => self.driver_call + self.dma_setup,
            TaskSchedOp::SubmitPacket | TaskSchedOp::SubmitThreePackets => {
                self.dma_per_word * Cycle::from(packets)
            }
            TaskSchedOp::ReadyTaskRequest => self.mmio_write,
            TaskSchedOp::FetchSwId => self.driver_call + self.mmio_read,
            TaskSchedOp::FetchPicosId => self.mmio_read,
            TaskSchedOp::RetireTask => self.driver_call + self.mmio_write,
        }
    }
}

/// The Picos accelerator reached over AXI/MMIO, as in the Picos++ full-system baseline.
pub type AxiFabric = PicosFabric<AxiConfig>;

#[cfg(test)]
mod tests {
    use super::*;
    use tis_core::{TisConfig, TisFabric};
    use tis_machine::fabric::{FabricOutcome, SchedulerFabric};
    use tis_machine::CostModel;
    use tis_picos::{encode_nonzero_prefix, SubmittedTask};
    use tis_taskmodel::Dependence;

    fn submit(fabric: &mut dyn SchedulerFabric, core: usize, sw_id: u64, now: u64) -> Cycle {
        let pkts = encode_nonzero_prefix(&SubmittedTask::new(sw_id, vec![]));
        let (l1, out) = fabric.submission_request(core, pkts.len() as u32, now);
        assert!(out.is_success());
        let mut total = l1;
        for chunk in pkts.chunks(3) {
            let (l, out) = fabric.submit_packets(core, chunk, now + total);
            assert!(out.is_success());
            total += l;
        }
        total
    }

    #[test]
    fn rocc_beats_every_axi_price() {
        let rocc = TisConfig::default().rocc_latency;
        let axi = AxiConfig::default();
        for price in [axi.driver_call, axi.dma_setup, axi.dma_per_word, axi.mmio_read, axi.mmio_write] {
            assert!(rocc < price, "RoCC must beat MMIO");
        }
        assert!(axi.mmio_write < CostModel::default().futex_wait, "an MMIO write is cheaper than parking a thread");
    }

    #[test]
    fn fetch_picos_id_without_a_fetched_sw_id_fails_and_pops_nothing() {
        let mut f = AxiFabric::with_cores(2);
        submit(&mut f, 0, 7, 0);
        // By cycle 5 000 the task is ready, so the request routes it to core 1 at once.
        assert!(f.ready_task_request(1, 5_000).1.is_success());
        // Long after the entry became visible, a Picos ID fetch that no SW ID fetch armed still
        // fails, pays its MMIO read, and leaves the entry in place.
        let (lat, out) = f.fetch_picos_id(1, 10_000);
        assert_eq!(out, FabricOutcome::Failure);
        assert_eq!(lat, AxiConfig::default().mmio_read);
        assert_eq!(f.fetch_sw_id(1, 10_000).1, FabricOutcome::Success(7));
        assert!(f.fetch_picos_id(1, 10_000).1.is_success());
        assert_eq!(f.stats().tasks_dispatched, 1);
        assert_eq!(f.stats().fetch_failures, 1);
    }

    #[test]
    fn fetch_picos_id_requires_prior_sw_id_fetch() {
        fn check<L: PicosLink + Default>() {
            let mut f = PicosFabric::<L>::with_cores(2);
            submit(&mut f, 0, 77, 0);
            // By cycle 5 000 the task is ready, so the request routes it to core 1 at once.
            assert!(f.ready_task_request(1, 5_000).1.is_success());
            // Long after the entry became visible, a Picos ID fetch without a SW ID fetch first
            // must fail and not pop anything.
            assert_eq!(f.fetch_picos_id(1, 10_000).1, FabricOutcome::Failure);
            assert_eq!(f.fetch_sw_id(1, 10_000).1, FabricOutcome::Success(77));
            let pid = f.fetch_picos_id(1, 10_000).1.success().expect("armed by the SW ID fetch");
            // The entry was popped: a second pair of fetches fails until new work arrives.
            assert_eq!(f.fetch_sw_id(1, 10_000).1, FabricOutcome::Failure);
            assert_eq!(f.fetch_picos_id(1, 10_000).1, FabricOutcome::Failure);
            f.retire_task(1, pid, 10_050);
            assert_eq!(f.tasks_in_flight(), 0);
        }
        check::<TisConfig>();
        check::<AxiConfig>();
    }

    #[test]
    fn sw_id_fetch_does_not_pop_the_queue() {
        fn check<L: PicosLink + Default>() {
            let mut f = PicosFabric::<L>::with_cores(2);
            submit(&mut f, 0, 5, 0);
            assert!(f.ready_task_request(0, 5).1.is_success());
            let mut now = 5;
            while !f.fetch_sw_id(0, now).1.is_success() {
                now += 5;
                assert!(now < 10_000);
            }
            // Fetching the SW ID again still sees the same task: the entry is only consumed by
            // Fetch Picos ID.
            assert_eq!(f.fetch_sw_id(0, now).1, FabricOutcome::Success(5));
            assert!(f.fetch_picos_id(0, now).1.is_success());
        }
        check::<TisConfig>();
        check::<AxiConfig>();
    }

    #[test]
    fn stats_count_failures() {
        fn check<L: PicosLink + Default>() {
            let mut f = PicosFabric::<L>::with_cores(2);
            assert_eq!(f.fetch_sw_id(0, 0).1, FabricOutcome::Failure);
            assert_eq!(f.fetch_picos_id(0, 0).1, FabricOutcome::Failure);
            assert_eq!(f.op_counts(0).issued.iter().sum::<u64>(), 2);
            assert_eq!(f.op_counts(0).failed.iter().sum::<u64>(), 2);
            assert_eq!(f.op_counts(0).failed[TaskSchedOp::FetchSwId as usize], 1);
            assert_eq!(f.op_counts(0).failed[TaskSchedOp::FetchPicosId as usize], 1);
            assert_eq!(f.stats().fetch_failures, 2);
            submit(&mut f, 0, 1, 10);
            assert!(f.op_counts(0).issued.iter().sum::<u64>() > 2);
            assert_eq!(f.op_counts(1).issued, [0; 7]);
        }
        check::<TisConfig>();
        check::<AxiConfig>();
    }

    #[test]
    fn counters_are_indexed_in_table_i_order() {
        for (i, op) in TaskSchedOp::ALL.into_iter().enumerate() {
            assert_eq!(op as usize, i, "{op:?}");
        }
        fn check<L: PicosLink + Default>() {
            let mut f = PicosFabric::<L>::with_cores(1);
            let mut expected = [0; 7];
            let mut counted = |f: &PicosFabric<L>, op: TaskSchedOp| {
                expected[op as usize] += 1;
                assert_eq!(f.op_counts(0).issued, expected, "{op:?}");
            };
            let pkts = encode_nonzero_prefix(&SubmittedTask::new(3, vec![Dependence::write(0x40)]));
            assert!(f.submission_request(0, pkts.len() as u32, 0).1.is_success());
            counted(&f, TaskSchedOp::SubmissionRequest);
            assert!(f.submit_packets(0, &pkts[..3], 0).1.is_success());
            counted(&f, TaskSchedOp::SubmitThreePackets);
            for packet in &pkts[3..] {
                assert!(f.submit_packets(0, std::slice::from_ref(packet), 0).1.is_success());
                counted(&f, TaskSchedOp::SubmitPacket);
            }
            assert!(f.ready_task_request(0, 5_000).1.is_success());
            counted(&f, TaskSchedOp::ReadyTaskRequest);
            assert_eq!(f.fetch_sw_id(0, 10_000).1, FabricOutcome::Success(3));
            counted(&f, TaskSchedOp::FetchSwId);
            let pid = f.fetch_picos_id(0, 10_000).1.success().unwrap();
            counted(&f, TaskSchedOp::FetchPicosId);
            f.retire_task(0, pid, 10_000);
            counted(&f, TaskSchedOp::RetireTask);
            assert_eq!(f.op_counts(0).failed, [0; 7]);
        }
        check::<TisConfig>();
        check::<AxiConfig>();
    }

    #[test]
    fn axi_submission_is_orders_of_magnitude_slower_than_rocc() {
        let mut axi = AxiFabric::with_cores(2);
        let mut rocc = TisFabric::new(2, TisConfig::default());
        let axi_cycles = submit(&mut axi, 0, 1, 0);
        let rocc_cycles = submit(&mut rocc, 0, 1, 0);
        assert!(
            axi_cycles > 20 * rocc_cycles,
            "AXI path ({axi_cycles}) must dwarf the RoCC path ({rocc_cycles})"
        );
    }

    #[test]
    fn axi_lifecycle_still_works_end_to_end() {
        let mut f = AxiFabric::with_cores(2);
        submit(&mut f, 0, 42, 0);
        let (_, out) = f.ready_task_request(1, 100);
        assert!(out.is_success());
        let mut now = 100;
        let sw = loop {
            now += 20;
            if let FabricOutcome::Success(sw) = f.fetch_sw_id(1, now).1 {
                break sw;
            }
            assert!(now < 100_000);
        };
        assert_eq!(sw, 42);
        let pid = f.fetch_picos_id(1, now).1.success().unwrap();
        let lat = f.retire_task(1, pid, now + 10);
        assert!(lat > AxiConfig::default().driver_call);
        assert_eq!(f.tasks_in_flight(), 0);
    }

    #[test]
    fn fetch_failure_still_pays_the_driver_round_trip() {
        // The expensive part of polling an empty accelerator over MMIO is that even failure
        // costs a full driver round trip — one reason the paper's fine-grained workloads sink.
        let mut f = AxiFabric::with_cores(1);
        let (lat, out) = f.fetch_sw_id(0, 0);
        assert!(!out.is_success());
        assert!(lat >= AxiConfig::default().driver_call);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tis_core::{TisConfig, TisFabric};
    use tis_machine::fabric::{FabricOutcome, FabricStats, FailedOps, SchedulerFabric};
    use tis_picos::{encode_nonzero_prefix, SubmittedTask, TrackerConfig};
    use tis_taskmodel::Dependence;

    /// Issues one operation on both links. The outcomes must agree and each latency must be its
    /// link's price plus the same extra on both; returns the outcome and that extra.
    fn on_both<T: PartialEq + std::fmt::Debug>(
        rocc: &mut TisFabric,
        axi: &mut AxiFabric,
        op: TaskSchedOp,
        packets: u32,
        mut call: impl FnMut(&mut dyn SchedulerFabric) -> (Cycle, FabricOutcome<T>),
    ) -> (FabricOutcome<T>, Cycle) {
        let (rocc_latency, rocc_out) = call(rocc);
        let (axi_latency, axi_out) = call(axi);
        assert_eq!(rocc_out, axi_out, "{op:?}");
        let extra = rocc_latency - rocc.config().price(op, packets);
        assert_eq!(axi_latency - axi.config().price(op, packets), extra, "{op:?}");
        (rocc_out, extra)
    }

    /// From a state where each core's submission buffer is open and the one-entry routing queue
    /// is full, so that every operation a parked poll can repeat fails, charges `rounds` of
    /// `(core, refused submission packets, refused request, empty fetch, repeats)` to one fabric
    /// and issues the same failed operations for real on another.
    fn charge_and_issue<L: PicosLink>(link: L, cores: usize, rounds: &[(usize, u32, bool, bool, u64)]) {
        let [mut charged, mut issued] = [0, 1].map(|_| PicosFabric::new(cores, link));
        for f in [&mut charged, &mut issued] {
            for core in 0..cores {
                assert!(f.submission_request(core, 3, 0).1.is_success());
            }
            assert!(f.ready_task_request(0, 0).1.is_success());
        }
        for (round, &(core, submission_packets, ready_task_request, fetch_sw_id, repeats)) in rounds.iter().enumerate() {
            let core = core % cores;
            let now = 100 * (round as Cycle + 1);
            charged.charge_failed_polls(core, FailedOps { submission_packets, ready_task_request, fetch_sw_id }, repeats);
            for _ in 0..repeats {
                if submission_packets > 0 {
                    assert!(!issued.submission_request(core, submission_packets, now).1.is_success());
                }
                if ready_task_request {
                    assert!(!issued.ready_task_request(core, now).1.is_success());
                }
                if fetch_sw_id {
                    assert!(!issued.fetch_sw_id(core, now).1.is_success());
                }
            }
            assert_eq!(charged.stats(), issued.stats());
            for c in 0..cores {
                assert_eq!(charged.op_counts(c), issued.op_counts(c));
            }
        }
    }

    /// The five counters a fabric derives from its per-core counters.
    fn op_counts(s: &FabricStats) -> [u64; 5] {
        [s.operations, s.submission_failures, s.fetch_failures, s.tasks_dispatched, s.tasks_retired]
    }

    proptest! {
        /// Random Table-I traffic from several cores, with random dependences and advancing
        /// time, has the same outcomes, statistics and per-core counters over RoCC and over
        /// AXI; only each operation's price differs.
        #[test]
        fn rocc_and_axi_differ_only_in_price(
            cores in 1usize..5,
            small_tracker in any::<bool>(),
            ops in proptest::collection::vec((0u8..12, 0usize..4, 0u64..40, 0u64..4096), 1..300),
        ) {
            let picos = if small_tracker {
                PicosConfig { tracker: TrackerConfig::new(4, 16), ..PicosConfig::default() }
            } else {
                PicosConfig::default()
            };
            let mut rocc = TisFabric::new(cores, TisConfig { picos, ..TisConfig::default() });
            let mut axi = AxiFabric::new(cores, AxiConfig { picos, ..AxiConfig::default() });
            // Per core: announced packets not yet pushed, and dispatched Picos IDs not retired.
            let mut unpushed: Vec<Vec<u32>> = vec![Vec::new(); cores];
            let mut dispatched: Vec<Vec<u32>> = vec![Vec::new(); cores];
            let mut expected = FabricStats::default();
            let mut completed_submissions = 0;
            let mut now = 0;
            for (step, (kind, core, dt, param)) in ops.into_iter().enumerate() {
                let core = core % cores;
                now += dt;
                rocc.set_time_horizon(now);
                axi.set_time_horizon(now);
                match kind {
                    0 => {
                        let deps = (0..param % 4)
                            .map(|i| {
                                let bits = param >> (2 + 4 * i);
                                let addr = 0x1000 + (bits % 8) * 64;
                                if bits & 8 == 0 { Dependence::read(addr) } else { Dependence::write(addr) }
                            })
                            .collect();
                        let packets = encode_nonzero_prefix(&SubmittedTask::new(step as u64, deps));
                        let n = packets.len() as u32;
                        let (out, extra) = on_both(&mut rocc, &mut axi, TaskSchedOp::SubmissionRequest, 0, |f| {
                            f.submission_request(core, n, now)
                        });
                        prop_assert_eq!(extra, 0);
                        expected.operations += 1;
                        if out.is_success() {
                            prop_assert!(unpushed[core].is_empty(), "a request succeeded mid-submission");
                            unpushed[core] = packets;
                        } else {
                            expected.submission_failures += 1;
                        }
                    }
                    1..=3 => {
                        // With nothing announced the buffer is closed or complete, so a stray
                        // packet must be refused.
                        let chunk: Vec<u32> = if unpushed[core].is_empty() {
                            vec![1]
                        } else {
                            let take = if param % 2 == 0 { 1 } else { 3 };
                            unpushed[core].iter().copied().take(take).collect()
                        };
                        let op = TaskSchedOp::submit_for(chunk.len());
                        let (out, extra) =
                            on_both(&mut rocc, &mut axi, op, chunk.len() as u32, |f| f.submit_packets(core, &chunk, now));
                        prop_assert_eq!(extra, 0);
                        prop_assert_eq!(out.is_success(), !unpushed[core].is_empty());
                        expected.operations += 1;
                        if out.is_success() {
                            unpushed[core].drain(..chunk.len());
                            completed_submissions += u64::from(unpushed[core].is_empty());
                        }
                    }
                    4 => {
                        let (_, extra) =
                            on_both(&mut rocc, &mut axi, TaskSchedOp::ReadyTaskRequest, 0, |f| f.ready_task_request(core, now));
                        prop_assert_eq!(extra, 0);
                        expected.operations += 1;
                    }
                    5 | 10 => {
                        let (out, extra) = on_both(&mut rocc, &mut axi, TaskSchedOp::FetchSwId, 0, |f| f.fetch_sw_id(core, now));
                        prop_assert_eq!(extra, 0);
                        expected.operations += 1;
                        expected.fetch_failures += u64::from(!out.is_success());
                    }
                    6 | 11 => {
                        let (out, extra) =
                            on_both(&mut rocc, &mut axi, TaskSchedOp::FetchPicosId, 0, |f| f.fetch_picos_id(core, now));
                        prop_assert_eq!(extra, 0);
                        expected.operations += 1;
                        match out {
                            FabricOutcome::Success(picos_id) => {
                                dispatched[core].push(picos_id);
                                expected.tasks_dispatched += 1;
                            }
                            FabricOutcome::Failure => expected.fetch_failures += 1,
                        }
                    }
                    7 if !dispatched[core].is_empty() => {
                        let held = dispatched[core].len();
                        let picos_id = dispatched[core].swap_remove(param as usize % held);
                        // The manager's latency is the extra, equal on both links.
                        on_both(&mut rocc, &mut axi, TaskSchedOp::RetireTask, 0, |f| {
                            (f.retire_task(core, picos_id, now), FabricOutcome::Success(()))
                        });
                        expected.operations += 1;
                        expected.tasks_retired += 1;
                    }
                    8 => {
                        let ops = FailedOps {
                            submission_packets: if param & 1 == 1 { 3 } else { 0 },
                            ready_task_request: param & 2 == 2,
                            fetch_sw_id: param & 4 == 4,
                        };
                        let polls = (param >> 3) % 5;
                        rocc.charge_failed_polls(core, ops, polls);
                        axi.charge_failed_polls(core, ops, polls);
                        expected.operations += polls * ops.count();
                        expected.submission_failures += polls * u64::from(ops.submission_packets > 0);
                        expected.fetch_failures += polls * u64::from(ops.fetch_sw_id);
                    }
                    _ => now += param,
                }
                let stats = rocc.stats();
                prop_assert_eq!(&stats, &axi.stats());
                prop_assert_eq!(op_counts(&stats), op_counts(&expected));
                prop_assert!(stats.tasks_submitted <= completed_submissions);
            }
            for core in 0..cores {
                prop_assert_eq!(rocc.op_counts(core), axi.op_counts(core));
            }
        }

        /// Charging `n` repeats of a parked poll's failed operations leaves `FabricStats` and
        /// every core's counters exactly as issuing those `n` failed operations would, on both
        /// links.
        #[test]
        fn charged_polls_count_like_issued_ones(
            cores in 1usize..5,
            rounds in proptest::collection::vec((0usize..4, 0u32..49, any::<bool>(), any::<bool>(), 0u64..6), 1..12),
        ) {
            let manager = ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() };
            charge_and_issue(TisConfig { manager, ..TisConfig::default() }, cores, &rounds);
            charge_and_issue(AxiConfig { manager, ..AxiConfig::default() }, cores, &rounds);
        }
    }
}
