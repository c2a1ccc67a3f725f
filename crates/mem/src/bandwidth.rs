//! Shared DRAM bandwidth model for task payload traffic.
//!
//! Runtime metadata (task descriptors, scheduler queues, counters) is simulated at cache-line
//! granularity by [`crate::MemorySystem`]; the *payload* traffic of task bodies — megabytes of
//! array data in the stream benchmarks — would be far too expensive to simulate per access.
//! Instead each task declares how many bytes it moves and the machine charges that against a
//! single shared DRAM channel. The channel is a simple FIFO server: concurrent tasks queue
//! behind each other, so eight memory-bound tasks see roughly one eighth of the peak bandwidth
//! each, which is what caps the stream benchmarks' speedup below the core count in the paper.

use tis_sim::Cycle;

/// A shared, FIFO-served DRAM channel.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    bytes_per_cycle: f64,
    free_at: Cycle,
    total_bytes: u64,
    total_wait_cycles: u64,
    requests: u64,
}

impl BandwidthModel {
    /// Default effective DRAM bandwidth, in bytes per *core* cycle.
    ///
    /// The ZCU102's DDR4 runs at 667 MHz while the Rocket cores run at 80 MHz, so even a modest
    /// effective DRAM throughput is plentiful per core cycle; 16 B/cycle (≈1.3 GB/s at 80 MHz)
    /// reflects the single in-order memory port of the prototype rather than raw DDR4 peak.
    pub const DEFAULT_BYTES_PER_CYCLE: f64 = 16.0;

    /// Creates a channel with the given peak bandwidth in bytes per core cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is not strictly positive.
    pub fn new(bytes_per_cycle: f64) -> Self {
        assert!(bytes_per_cycle > 0.0, "bandwidth must be positive");
        BandwidthModel {
            bytes_per_cycle,
            free_at: 0,
            total_bytes: 0,
            total_wait_cycles: 0,
            requests: 0,
        }
    }

    /// Requests a transfer of `bytes` starting at cycle `now`; returns the number of cycles the
    /// requesting core is stalled (queueing delay plus service time).
    pub fn transfer(&mut self, now: Cycle, bytes: u64) -> Cycle {
        if bytes == 0 {
            return 0;
        }
        self.requests += 1;
        self.total_bytes += bytes;
        let service = (bytes as f64 / self.bytes_per_cycle).ceil() as Cycle;
        let start = self.free_at.max(now);
        let wait = start - now;
        self.total_wait_cycles += wait;
        self.free_at = start + service;
        wait + service
    }

    /// Total bytes transferred so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles requests spent queueing (not being served).
    pub fn total_wait_cycles(&self) -> u64 {
        self.total_wait_cycles
    }

    /// Number of transfer requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Cycle at which the channel becomes idle.
    pub fn free_at(&self) -> Cycle {
        self.free_at
    }
}

impl Default for BandwidthModel {
    fn default() -> Self {
        BandwidthModel::new(Self::DEFAULT_BYTES_PER_CYCLE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_is_free() {
        let mut b = BandwidthModel::default();
        assert_eq!(b.transfer(100, 0), 0);
        assert_eq!(b.requests(), 0);
    }

    #[test]
    fn uncontended_transfer_is_service_time_only() {
        let mut b = BandwidthModel::new(16.0);
        assert_eq!(b.transfer(0, 160), 10);
        assert_eq!(b.total_bytes(), 160);
        assert_eq!(b.total_wait_cycles(), 0);
    }

    #[test]
    fn concurrent_transfers_queue() {
        let mut b = BandwidthModel::new(16.0);
        // Two cores request 160 bytes at the same cycle: the second waits for the first.
        let l1 = b.transfer(0, 160);
        let l2 = b.transfer(0, 160);
        assert_eq!(l1, 10);
        assert_eq!(l2, 20);
        assert_eq!(b.total_wait_cycles(), 10);
        // A later request after the channel drained sees no wait.
        let l3 = b.transfer(100, 16);
        assert_eq!(l3, 1);
    }

    #[test]
    fn service_time_rounds_up() {
        let mut b = BandwidthModel::new(16.0);
        assert_eq!(b.transfer(0, 1), 1);
        assert_eq!(b.transfer(1000, 17), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_bandwidth_panics() {
        BandwidthModel::new(0.0);
    }

    #[test]
    fn eight_way_sharing_divides_bandwidth() {
        // Eight cores each moving the same number of bytes at the same time finish in about
        // eight times the single-core time — the effect that caps stream's speedup in the paper.
        let mut b = BandwidthModel::new(16.0);
        let solo = {
            let mut solo_b = BandwidthModel::new(16.0);
            solo_b.transfer(0, 1600)
        };
        let mut last = 0;
        for _ in 0..8 {
            last = b.transfer(0, 1600);
        }
        assert_eq!(solo, 100);
        assert_eq!(last, 800);
    }
}
