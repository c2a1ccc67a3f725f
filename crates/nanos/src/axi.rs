//! The AXI/MMIO scheduler fabric — the previous state of the art (Picos++ of Tan et al.).
//!
//! Functionally this is the *same* Picos Manager and Picos device as the tightly-integrated
//! system (`tis-core`), which is exactly the comparison the paper sets up: the accelerator is
//! identical, only the CPU↔accelerator path differs. Here every Table-I operation crosses the
//! processor–FPGA boundary through the Linux driver and the AXI interconnect:
//!
//! * a submission pays one DMA/driver setup plus a per-word transfer cost for its packets;
//! * work fetches and ready-queue peeks are uncached MMIO reads through the driver;
//! * retirements are MMIO writes.
//!
//! Those per-operation costs (hundreds to thousands of cycles at the prototype's 80 MHz) are the
//! ones the RoCC integration eliminates, and they reproduce the Nanos-AXI column of Figure 7.

use tis_core::manager::{ManagerConfig, PicosManager};
use tis_machine::fabric::{CoreId, FabricOutcome, FabricStats, SchedulerFabric};
use tis_machine::CostModel;
use tis_picos::PicosConfig;
use tis_sim::Cycle;

/// Latency parameters of the AXI/MMIO path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxiConfig {
    /// Driver/ioctl entry cost paid once per scheduler interaction.
    pub driver_call: Cycle,
    /// DMA descriptor setup paid once per task submission.
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
        let costs = CostModel::default();
        AxiConfig {
            driver_call: costs.axi_driver_call,
            dma_setup: costs.axi_dma_setup,
            dma_per_word: 30,
            mmio_read: costs.axi_mmio_read,
            mmio_write: costs.axi_mmio_write,
            manager: ManagerConfig::default(),
            picos: PicosConfig::default(),
        }
    }
}

/// The Picos accelerator reached over AXI/MMIO, as in the Picos++ full-system baseline.
#[derive(Debug, Clone)]
pub struct AxiFabric {
    config: AxiConfig,
    manager: PicosManager,
    stats: FabricStats,
}

impl AxiFabric {
    /// Builds the fabric for `cores` cores.
    pub fn new(cores: usize, config: AxiConfig) -> Self {
        AxiFabric {
            config,
            manager: PicosManager::new(cores, config.manager, config.picos),
            stats: FabricStats::default(),
        }
    }

    /// Builds the fabric with default configuration.
    pub fn with_cores(cores: usize) -> Self {
        AxiFabric::new(cores, AxiConfig::default())
    }

    /// Configuration in use.
    pub fn config(&self) -> AxiConfig {
        self.config
    }

    /// Number of tasks currently in flight inside the accelerator.
    pub fn tasks_in_flight(&self) -> usize {
        self.manager.tasks_in_flight()
    }
}

impl SchedulerFabric for AxiFabric {
    fn name(&self) -> &'static str {
        "axi-picos"
    }

    fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.manager.set_time_horizon(safe_now);
    }

    fn submission_request(&mut self, core: CoreId, packet_count: u32, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        let ok = self.manager.submission_request(core, packet_count, now);
        let latency = self.config.driver_call + self.config.dma_setup;
        if !ok {
            self.stats.submission_failures += 1;
        }
        (latency, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn submit_packets(&mut self, core: CoreId, packets: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        let ok = self.manager.push_packets(core, packets, now);
        let latency = self.config.dma_per_word * packets.len() as Cycle;
        (latency, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.stats.operations += 1;
        let ok = self.manager.ready_task_request(core, now);
        (self.config.mmio_write, if ok { FabricOutcome::Success(()) } else { FabricOutcome::Failure })
    }

    fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.stats.operations += 1;
        let latency = self.config.driver_call + self.config.mmio_read;
        match self.manager.front_ready(core, now) {
            Some(e) => (latency, FabricOutcome::Success(e.sw_id)),
            None => {
                self.stats.fetch_failures += 1;
                (latency, FabricOutcome::Failure)
            }
        }
    }

    fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.stats.operations += 1;
        match self.manager.pop_ready(core, now) {
            Some(e) => {
                self.stats.tasks_dispatched += 1;
                (self.config.mmio_read, FabricOutcome::Success(e.picos_id))
            }
            None => {
                self.stats.fetch_failures += 1;
                (self.config.mmio_read, FabricOutcome::Failure)
            }
        }
    }

    fn retire_task(&mut self, core: CoreId, picos_id: u32, now: Cycle) -> Cycle {
        self.stats.operations += 1;
        self.stats.tasks_retired += 1;
        let manager_latency = self.manager.retire(core, picos_id, now);
        self.config.driver_call + self.config.mmio_write + manager_latency
    }

    fn stats(&self) -> FabricStats {
        let picos = self.manager.picos().stats();
        FabricStats {
            // A descriptor may reach Picos during any later operation's advance, so the count
            // comes from the manager rather than from the submit that completed it.
            tasks_submitted: self.manager.stats().descriptors_forwarded,
            tracker_losses: picos.tracker_losses,
            tracker_resubmits: picos.tracker_resubmits,
            tracker_recovery_cycles: picos.tracker_recovery_cycles,
            ..self.stats.clone()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_core::{TisConfig, TisFabric};
    use tis_picos::{encode_nonzero_prefix, SubmittedTask};

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
        assert!(lat > CostModel::default().axi_driver_call);
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
