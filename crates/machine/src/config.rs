//! Machine configuration.

use tis_mem::{CacheConfig, FaultConfig, MemLatencies, MemoryModel};

use crate::cost::CostModel;

/// Configuration of the simulated multi-core machine.
///
/// The default reproduces the paper's prototype (Section VI-A1): eight in-order cores at 80 MHz,
/// eight-way 32 KB private L1 data caches with MESI coherence over a snooping bus, no shared
/// L2, and 667 MHz DRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (and hardware threads; one runtime thread is pinned per core).
    pub cores: usize,
    /// Geometry of each core's private L1 data cache.
    pub l1: CacheConfig,
    /// Latency parameters of the coherent memory system.
    pub mem_latencies: MemLatencies,
    /// Coherence interconnect model: the paper's snooping bus (default, faithful at 8 cores)
    /// or the directory/NoC model that keeps latencies honest on big meshes.
    pub memory_model: MemoryModel,
    /// Effective shared DRAM bandwidth available to task payloads, in bytes per core cycle.
    pub dram_bytes_per_cycle: f64,
    /// Cycle costs of software-level operations (calls, locks, syscalls, MMIO…).
    pub costs: CostModel,
    /// Safety cap on simulated cycles; runs exceeding it abort with an error instead of hanging.
    pub max_cycles: u64,
    /// Deterministic fault schedule injected into the memory system's NoC messages.
    /// [`FaultConfig::none`] (the default) constructs no fault layer at all; see `tis-fault`.
    pub fault: FaultConfig,
}

impl MachineConfig {
    /// The paper's eight-core Rocket Chip FPGA prototype.
    pub fn rocket_octacore() -> Self {
        MachineConfig {
            cores: 8,
            l1: CacheConfig::rocket_l1d(),
            mem_latencies: MemLatencies::default(),
            memory_model: MemoryModel::SnoopBus,
            dram_bytes_per_cycle: 16.0,
            costs: CostModel::default(),
            max_cycles: 20_000_000_000,
            fault: FaultConfig::none(),
        }
    }

    /// Same machine with a different core count (the paper also discusses how scheduling
    /// throughput requirements grow with the number of cores).
    pub fn rocket_with_cores(cores: usize) -> Self {
        MachineConfig { cores, ..Self::rocket_octacore() }
    }

    /// Same machine with the given coherence interconnect model.
    pub fn with_memory_model(mut self, model: MemoryModel) -> Self {
        self.memory_model = model;
        self
    }

    /// A small two-core configuration handy for fast unit tests.
    pub fn small_test() -> Self {
        MachineConfig {
            cores: 2,
            max_cycles: 50_000_000,
            ..Self::rocket_octacore()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero cores, non-positive bandwidth, zero
    /// cycle cap).
    pub fn validate(&self) {
        assert!(self.cores > 0, "machine needs at least one core");
        assert!(self.dram_bytes_per_cycle > 0.0, "DRAM bandwidth must be positive");
        assert!(self.max_cycles > 0, "cycle cap must be positive");
        self.fault.validate();
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::rocket_octacore()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_prototype() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 8);
        assert_eq!(c.l1, CacheConfig::rocket_l1d());
        assert_eq!(c.memory_model, MemoryModel::SnoopBus, "figures are pinned to the snoop model");
        c.validate();
    }

    #[test]
    fn memory_model_override() {
        let c = MachineConfig::rocket_with_cores(64).with_memory_model(MemoryModel::directory_mesh());
        assert_eq!(c.cores, 64);
        assert_eq!(c.memory_model, MemoryModel::directory_mesh());
        c.validate();
    }

    #[test]
    fn core_count_override() {
        let c = MachineConfig::rocket_with_cores(4);
        assert_eq!(c.cores, 4);
        MachineConfig::small_test().validate();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_invalid() {
        let c = MachineConfig { cores: 0, ..Default::default() };
        c.validate();
    }
}
