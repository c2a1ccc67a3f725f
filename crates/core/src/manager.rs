//! Picos Manager (Section IV-F): the glue between the per-core Picos Delegates and Picos itself.
//! The fabric carries out each core's Table-I instructions directly against the manager.
//!
//! The manager decouples the CPU from the accelerator's API and adds the structures that make the
//! integration fast:
//!
//! * **Submission Handler** — per-core submission buffers serialized by a *Guided Arbiter* (only
//!   one core transmits a descriptor to Picos at a time, and a started descriptor finishes before
//!   another begins), plus the *Zero Padder* that expands the compact 3+3·D-packet sequences the
//!   cores send into the 48-packet descriptors Picos expects;
//! * **Work-Fetch Arbiter** — a FIFO routing queue that serves *Ready Task Request*s in the exact
//!   order cores issued them;
//! * **Packet Encoder** — compresses the three 32-bit ready packets produced by Picos into one
//!   96-bit `(Picos ID, SW ID)` tuple stored in the per-core ready queues;
//! * **per-core ready queues** — small buffers that hide roughly half of Picos' 8-cycle ready
//!   fetch latency from the cores, each gated by its core's *SW-ID-fetched* flag, the one bit
//!   of state a Picos Delegate keeps (Sections IV-E5 and IV-E6): *Fetch Picos ID* pops the
//!   head only after *Fetch SW ID* has read it;
//! * **Round-Robin Arbiter** — merges the retirement packets of all cores into Picos' single
//!   retirement interface;
//! * **protocol crossings** — modelled as a fixed per-transfer latency between the manager's
//!   queues and Picos' non-fallthrough queues.

use tis_machine::{FailedOps, InternalEvents};
use tis_picos::{decode_descriptor_into, Picos, PicosConfig, SubmittedTask, PACKETS_PER_DESCRIPTOR};
use tis_sim::{BoundedQueue, Cycle};

/// Identifier of a core attached to the manager.
pub type CoreId = usize;

/// Timing and sizing knobs of the Picos Manager itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManagerConfig {
    /// Entries in each core-specific ready queue.
    pub ready_queue_per_core: usize,
    /// Depth of the work-fetch arbiter's routing queue.
    pub routing_queue_depth: usize,
    /// Latency of a protocol crossing between Chisel queues and Picos queues, in cycles.
    pub protocol_crossing: Cycle,
    /// Latency of the Packet Encoder compressing three ready packets into one tuple.
    pub packet_encode: Cycle,
    /// Occupancy of the Round-Robin retirement arbiter per retirement packet.
    pub retire_arbiter_occupancy: Cycle,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            ready_queue_per_core: 2,
            routing_queue_depth: 16,
            protocol_crossing: 2,
            packet_encode: 1,
            retire_arbiter_occupancy: 1,
        }
    }
}

/// A 96-bit ready-task tuple sitting in a core-specific ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyEntry {
    /// Picos task-memory index, needed at retirement.
    picos_id: u32,
    /// Software identifier chosen by the submitting runtime.
    sw_id: u64,
    /// Cycle from which the entry is visible to Fetch SW ID.
    available_at: Cycle,
}

/// One core's submission buffer. It is reused for every descriptor the core sends: opening it
/// clears the packets and keeps their capacity, so steady-state submissions allocate nothing.
#[derive(Debug, Clone, Default)]
struct SubmissionBuffer {
    /// Whether a *Submission Request* reserved the buffer and its descriptor is not yet
    /// forwarded to Picos.
    open: bool,
    expected: usize,
    packets: Vec<u32>,
}

/// Aggregate statistics of the manager.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Descriptors forwarded to Picos.
    pub descriptors_forwarded: u64,
    /// Zero packets appended by the Zero Padder.
    pub zero_packets_padded: u64,
    /// Ready tuples routed to core-specific queues.
    pub ready_routed: u64,
}

/// The Picos Manager.
#[derive(Debug, Clone)]
pub struct PicosManager {
    config: ManagerConfig,
    picos: Picos,
    submission_buffers: Vec<SubmissionBuffer>,
    /// Guided-arbiter forwarding order: cores whose buffers are complete, oldest first.
    forward_queue: BoundedQueue<CoreId>,
    routing_queue: BoundedQueue<CoreId>,
    ready_queues: Vec<BoundedQueue<ReadyEntry>>,
    /// Per core: a *Fetch SW ID* read the ready-queue head and no *Fetch Picos ID* popped it yet.
    sw_id_fetched: Vec<bool>,
    retire_arbiter_free_at: Cycle,
    stats: ManagerStats,
    /// Scratch buffer the Zero Padder expands descriptors into, reused across submissions.
    scratch_descriptor: Vec<u32>,
    /// Scratch task the expanded descriptor is decoded into, reused across submissions.
    scratch_task: SubmittedTask,
    /// Count of the manager's own state changes; with the device's, a version number of
    /// everything an operation can observe (see [`PicosManager::epoch`]).
    changes: u64,
    /// Cores whose ready-queue head changed since the last drain, each listed once, and
    /// which of them are listed.
    moved_heads: Vec<CoreId>,
    head_moved: Vec<bool>,
    /// [`PicosManager::acceptance`] at the last drain of the poll changes.
    drained_acceptance: (bool, bool, usize, u64),
}

impl PicosManager {
    /// Creates a manager for `cores` cores around a Picos device.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, config: ManagerConfig, picos_config: PicosConfig) -> Self {
        assert!(cores > 0, "manager needs at least one core");
        let mut manager = PicosManager {
            config,
            picos: Picos::new(picos_config),
            submission_buffers: vec![SubmissionBuffer::default(); cores],
            forward_queue: BoundedQueue::new(cores.max(1)),
            routing_queue: BoundedQueue::new(config.routing_queue_depth),
            ready_queues: (0..cores)
                .map(|_| BoundedQueue::new(config.ready_queue_per_core))
                .collect(),
            sw_id_fetched: vec![false; cores],
            retire_arbiter_free_at: 0,
            stats: ManagerStats::default(),
            scratch_descriptor: Vec::with_capacity(PACKETS_PER_DESCRIPTOR),
            scratch_task: SubmittedTask::new(0, Vec::new()),
            changes: 0,
            moved_heads: Vec::new(),
            head_moved: vec![false; cores],
            drained_acceptance: (false, false, 0, 0),
        };
        manager.drained_acceptance = manager.acceptance();
        manager
    }

    /// Immutable access to the underlying Picos device (for statistics).
    pub fn picos(&self) -> &Picos {
        &self.picos
    }

    /// Manager statistics.
    pub fn stats(&self) -> &ManagerStats {
        &self.stats
    }

    /// Forwards the engine's safe-time horizon to the Picos device (see
    /// [`Picos::set_time_horizon`](tis_picos::Picos::set_time_horizon)).
    pub fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.picos.set_time_horizon(safe_now);
    }

    /// Services internal data movement up to cycle `now`:
    /// complete submission buffers are forwarded to Picos (Guided Arbiter + Zero Padder), and
    /// ready descriptors are routed to the cores waiting in the work-fetch routing queue.
    pub fn advance(&mut self, now: Cycle) {
        // 1. Forward complete descriptors to Picos, in guided-arbiter order.
        while let Some(&core) = self.forward_queue.front() {
            if !self.picos.can_accept_submission() {
                break;
            }
            let buffer = &self.submission_buffers[core];
            assert!(buffer.open, "forward queue only holds cores with an open buffer");
            debug_assert!(buffer.packets.len() >= buffer.expected);
            // Zero Padder: expand the non-zero prefix into a full descriptor in the reused
            // scratch buffer and decode it into the reused scratch task — no allocation.
            self.scratch_descriptor.clear();
            self.scratch_descriptor.extend_from_slice(&buffer.packets);
            let padded = PACKETS_PER_DESCRIPTOR - self.scratch_descriptor.len();
            self.scratch_descriptor.resize(PACKETS_PER_DESCRIPTOR, 0);
            if let Err(e) = decode_descriptor_into(&self.scratch_descriptor, &mut self.scratch_task)
            {
                panic!("runtime submitted a malformed descriptor: {e}");
            }
            match self.picos.try_submit(&self.scratch_task, now) {
                Ok(_) => {
                    self.changes += 1;
                    self.stats.descriptors_forwarded += 1;
                    self.stats.zero_packets_padded += padded as u64;
                    self.submission_buffers[core].open = false;
                    self.forward_queue.pop();
                }
                Err(_) => break, // Picos filled up between the check and the submit; retry later.
            }
        }
        // 2. Route ready descriptors to requesting cores, strictly in request order.
        while let Some(&core) = self.routing_queue.front() {
            if self.ready_queues[core].is_full() {
                break; // in-order service: the head blocks until its target queue has space
            }
            let Some(rt) = self.picos.pop_ready(now) else { break };
            let entry = ReadyEntry {
                picos_id: rt.picos_id.0,
                sw_id: rt.sw_id,
                available_at: now + self.config.protocol_crossing + self.config.packet_encode,
            };
            if self.ready_queues[core].is_empty() {
                self.note_head_moved(core);
            }
            self.ready_queues[core]
                .push(entry)
                .expect("checked for space above");
            self.routing_queue.pop();
            self.changes += 1;
            self.stats.ready_routed += 1;
        }
    }

    /// *Submission Request* (Section IV-E1): reserve this core's submission buffer for a
    /// descriptor of `packet_count` non-zero packets. Fails if the core still has an unfinished
    /// submission buffered or if Picos cannot currently accept new tasks.
    pub fn submission_request(&mut self, core: CoreId, packet_count: u32, now: Cycle) -> bool {
        self.advance(now);
        if self.refuses_submission(core, packet_count) {
            return false;
        }
        self.changes += 1;
        let buffer = &mut self.submission_buffers[core];
        buffer.open = true;
        buffer.expected = packet_count as usize;
        buffer.packets.clear();
        true
    }

    /// Whether a *Submission Request* of `packet_count` packets from `core` is refused in the
    /// current state: the core's buffer is busy, the count is malformed, or the accelerator is
    /// saturated (Picos is full and cannot drain the already-queued descriptors).
    fn refuses_submission(&self, core: CoreId, packet_count: u32) -> bool {
        self.submission_buffers[core].open
            || packet_count as usize > PACKETS_PER_DESCRIPTOR
            || packet_count < 3
            || (!self.picos.can_accept_submission() && !self.forward_queue.is_empty())
            || self.forward_queue.is_full()
    }

    /// *Submit Packet* / *Submit Three Packets*: append packets to this core's submission buffer.
    /// Fails if no submission request is outstanding or the packets overflow the announced count.
    pub fn push_packets(&mut self, core: CoreId, packets: &[u32], now: Cycle) -> bool {
        let buffer = &mut self.submission_buffers[core];
        if !buffer.open || buffer.packets.len() + packets.len() > buffer.expected {
            return false;
        }
        buffer.packets.extend_from_slice(packets);
        self.changes += 1;
        if buffer.packets.len() == buffer.expected {
            self.forward_queue
                .push(core)
                .expect("forward queue sized to core count, one entry per core at most");
        }
        self.advance(now);
        true
    }

    /// *Ready Task Request*: enqueue this core in the work-fetch arbiter. Fails when the routing
    /// queue is full — the non-blocking behaviour that avoids Deadlock Scenario 2 of the paper.
    pub fn ready_task_request(&mut self, core: CoreId, now: Cycle) -> bool {
        self.advance(now);
        if self.routing_queue.push(core).is_err() {
            return false;
        }
        self.changes += 1;
        self.advance(now);
        true
    }

    /// *Fetch SW ID*: the SW ID at the head of the core's private ready queue, if visible at
    /// `now`. Does not pop; a success arms the core's *Fetch Picos ID*.
    pub fn fetch_sw_id(&mut self, core: CoreId, now: Cycle) -> Option<u64> {
        self.advance(now);
        let sw_id = self.ready_queues[core].front().filter(|e| e.available_at <= now)?.sw_id;
        self.sw_id_fetched[core] = true;
        Some(sw_id)
    }

    /// *Fetch Picos ID*: pops the head of the core's private ready queue and returns its Picos
    /// ID, but only after a successful *Fetch SW ID*; otherwise fails and changes nothing.
    pub fn fetch_picos_id(&mut self, core: CoreId, now: Cycle) -> Option<u32> {
        if !self.sw_id_fetched[core] {
            return None;
        }
        self.advance(now);
        self.ready_queues[core].front().filter(|e| e.available_at <= now)?;
        self.sw_id_fetched[core] = false;
        self.changes += 1;
        self.note_head_moved(core);
        self.ready_queues[core].pop().map(|e| e.picos_id)
    }

    /// *Retire Task*: push a retirement packet through the Round-Robin arbiter into Picos.
    /// Returns the cycles the issuing core is held by the (blocking) transaction.
    ///
    /// # Panics
    ///
    /// Panics if the Picos ID does not name an in-flight task — that is a runtime bug (double
    /// retirement), not a recoverable hardware condition.
    pub fn retire(&mut self, picos_id: u32, now: Cycle) -> Cycle {
        self.advance(now);
        let wait = self.retire_arbiter_free_at.saturating_sub(now);
        let start = now + wait;
        self.changes += 1;
        self.retire_arbiter_free_at = start + self.config.retire_arbiter_occupancy;
        self.picos
            .retire(tis_picos::PicosId(picos_id), start)
            .unwrap_or_else(|e| panic!("retirement of an unknown task: {e}"));
        self.advance(now);
        wait + self.config.retire_arbiter_occupancy + self.config.protocol_crossing
    }

    /// Version number of everything an operation can observe: it moves with every state change
    /// of the manager or the device, and never otherwise.
    pub(crate) fn epoch(&self) -> u64 {
        self.changes + self.picos.changes()
    }

    /// The next internal events a failed poll's [`PicosManager::advance`] would find due: a
    /// complete descriptor Picos can take now, a ready descriptor the head of the routing queue
    /// can take, and the device's own completions. A failed poll reaches the device only
    /// through those two queues, so while neither can move, nothing is reachable.
    pub(crate) fn next_events(&self) -> InternalEvents {
        let forwards = !self.forward_queue.is_empty() && self.picos.can_accept_submission();
        let routes = self.routing_queue.front().is_some_and(|&core| !self.ready_queues[core].is_full());
        if !forwards && !routes {
            return InternalEvents::NONE;
        }
        let (publish, retire) = self.picos.next_events();
        let head = if routes { self.picos.ready_head().unwrap_or(Cycle::MAX) } else { Cycle::MAX };
        let by_op = if forwards { 0 } else { publish.min(head) };
        InternalEvents { by_op, by_start: retire }
    }

    /// Earliest operation time at which `core` repeating the failed operations `ops` could
    /// succeed, if nothing changes the state first: when its ready-queue head becomes visible,
    /// or now if a refused request would be accepted. `Cycle::MAX` if only a state change can
    /// make a difference.
    pub(crate) fn poll_blocked_until(&self, core: CoreId, ops: FailedOps) -> Cycle {
        let accepts_request = ops.ready_task_request && !self.routing_queue.is_full();
        let accepts_submission =
            ops.submission_packets > 0 && !self.refuses_submission(core, ops.submission_packets);
        if accepts_request || accepts_submission {
            return 0;
        }
        match self.ready_queues[core].front() {
            Some(e) if ops.fetch_sw_id => e.available_at,
            _ => Cycle::MAX,
        }
    }

    fn note_head_moved(&mut self, core: CoreId) {
        if !self.head_moved[core] {
            self.head_moved[core] = true;
            self.moved_heads.push(core);
        }
    }

    /// Hands `sink` every core whose ready-queue head changed since the last call, and returns
    /// whether what decides the acceptance of a request or a submission differs from what it
    /// was at the last call. Together these are everything
    /// [`PicosManager::poll_blocked_until`] reads besides the poll itself.
    pub(crate) fn drain_poll_changes(&mut self, sink: &mut dyn FnMut(CoreId)) -> bool {
        for core in self.moved_heads.drain(..) {
            self.head_moved[core] = false;
            sink(core);
        }
        let acceptance = self.acceptance();
        std::mem::replace(&mut self.drained_acceptance, acceptance) != acceptance
    }

    /// What [`PicosManager::refuses_submission`] and a *Ready Task Request* read of the shared
    /// state: whether the routing queue is full, whether Picos can take a descriptor, the
    /// forward queue's length, and the descriptors forwarded so far (each forwarding closes a
    /// submission buffer).
    fn acceptance(&self) -> (bool, bool, usize, u64) {
        (
            self.routing_queue.is_full(),
            self.picos.can_accept_submission(),
            self.forward_queue.len(),
            self.stats.descriptors_forwarded,
        )
    }

    /// Whether any task is still in flight inside Picos.
    pub fn tasks_in_flight(&self) -> usize {
        self.picos.in_flight()
    }

    /// Arms (or disarms) ready-publication logging in the underlying Picos device (see
    /// [`Picos::set_observing`](tis_picos::Picos::set_observing)).
    pub fn set_observing(&mut self, on: bool) {
        self.picos.set_observing(on);
    }

    /// Drains the device's buffered ready publications as `(publish_cycle, sw_id)` pairs.
    pub fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.picos.drain_ready_log(sink);
    }

    /// Occupancy gauges for the metrics timeline: `(tasks in flight inside Picos, ready
    /// descriptors anywhere in the fetch path)` — the device's ready queue plus the per-core
    /// staging queues.
    pub fn occupancy(&self) -> (usize, usize) {
        let staged: usize = self.ready_queues.iter().map(BoundedQueue::len).sum();
        (self.picos.in_flight(), self.picos.ready_queue_len() + staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_picos::{PicosTiming, SubmittedTask};
    use tis_taskmodel::Dependence;

    fn manager(cores: usize) -> PicosManager {
        PicosManager::new(cores, ManagerConfig::default(), PicosConfig::default())
    }

    fn packets_for(sw_id: u64, deps: Vec<Dependence>) -> Vec<u32> {
        tis_picos::encode_nonzero_prefix(&SubmittedTask::new(sw_id, deps))
    }

    #[test]
    fn submit_fetch_retire_happy_path() {
        let mut m = manager(2);
        let pkts = packets_for(42, vec![]);
        assert!(m.submission_request(0, pkts.len() as u32, 0));
        assert!(m.push_packets(0, &pkts, 1));
        // Core 1 asks for work and eventually receives the task.
        assert!(m.ready_task_request(1, 10));
        let mut now = 10;
        let sw_id = loop {
            now += 5;
            if let Some(sw_id) = m.fetch_sw_id(1, now) {
                break sw_id;
            }
            assert!(now < 10_000, "ready task never arrived");
        };
        assert_eq!(sw_id, 42);
        let picos_id = m.fetch_picos_id(1, now).unwrap();
        let lat = m.retire(picos_id, now + 100);
        assert!(lat >= 1);
        assert_eq!(m.tasks_in_flight(), 0);
        assert_eq!(m.stats().descriptors_forwarded, 1);
        assert_eq!(m.stats().zero_packets_padded, 45, "task with 0 deps pads 45 zero packets");
    }

    #[test]
    fn moved_ready_heads_are_handed_over_once_per_drain() {
        let mut m = manager(3);
        let drain = |m: &mut PicosManager| {
            let mut cores = Vec::new();
            m.drain_poll_changes(&mut |core| cores.push(core));
            cores
        };
        for sw_id in [1, 2] {
            let pkts = packets_for(sw_id, vec![]);
            assert!(m.submission_request(0, pkts.len() as u32, 0));
            assert!(m.push_packets(0, &pkts, 0));
            assert!(m.ready_task_request(2, 0));
        }
        m.advance(10_000);
        assert_eq!(m.stats().ready_routed, 2);
        assert_eq!(drain(&mut m), vec![2], "the second entry queues behind the first");
        assert!(drain(&mut m).is_empty());
        assert_eq!(m.fetch_sw_id(2, 20_000), Some(1));
        assert!(drain(&mut m).is_empty(), "a SW ID fetch moves no head");
        assert!(m.fetch_picos_id(2, 20_000).is_some());
        assert_eq!(drain(&mut m), vec![2], "a pop exposes the next entry");
    }

    #[test]
    fn acceptance_changes_are_reported_once_per_drain() {
        let cfg = ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() };
        let mut m = PicosManager::new(2, cfg, PicosConfig::default());
        let drain = |m: &mut PicosManager| m.drain_poll_changes(&mut |_| {});
        assert!(!drain(&mut m));
        assert!(m.ready_task_request(0, 0));
        assert!(drain(&mut m), "the routing queue filled up");
        assert!(!drain(&mut m));
        assert!(!m.ready_task_request(1, 1));
        assert!(!drain(&mut m), "a refused request changes nothing");
    }

    #[test]
    fn a_failed_poll_reaches_the_device_only_through_its_queues() {
        let mut m = manager(2);
        let pkts = packets_for(1, vec![]);
        assert!(m.submission_request(0, pkts.len() as u32, 0));
        assert!(m.push_packets(0, &pkts, 0));
        assert_eq!(m.next_events(), InternalEvents::NONE, "nothing routes the pending publication");
        assert!(m.ready_task_request(1, 0));
        let published = PicosTiming::default().submission_cycles(0) + PicosTiming::default().ready_publish;
        assert_eq!(m.next_events(), InternalEvents { by_op: published, by_start: Cycle::MAX });
        assert_eq!(m.fetch_sw_id(1, 1_000), None, "routed at 1,000, visible after the crossing");
        assert_eq!(m.fetch_sw_id(1, 1_003), Some(1));
        let picos_id = m.fetch_picos_id(1, 1_003).expect("the fetched head pops");
        m.retire(picos_id, 2_000);
        assert_eq!(m.next_events(), InternalEvents::NONE, "no poll reaches the retirement");
        assert!(m.ready_task_request(1, 2_001));
        let retired = 2_000 + PicosTiming::default().retirement_cycles(0);
        assert_eq!(m.next_events(), InternalEvents { by_op: Cycle::MAX, by_start: retired });
    }

    #[test]
    fn zero_padder_accounts_per_dependence() {
        let mut m = manager(1);
        let pkts = packets_for(7, vec![Dependence::write(0x100), Dependence::read(0x200)]);
        assert_eq!(pkts.len(), 9);
        assert!(m.submission_request(0, 9, 0));
        assert!(m.push_packets(0, &pkts, 0));
        m.advance(1_000);
        assert_eq!(m.stats().zero_packets_padded, 48 - 9);
    }

    #[test]
    fn submission_request_rejects_second_request_while_buffer_busy() {
        let mut m = manager(2);
        assert!(m.submission_request(0, 6, 0));
        assert!(!m.submission_request(0, 6, 1), "buffer still open");
        assert!(m.submission_request(1, 6, 2), "another core's buffer is independent");
    }

    #[test]
    fn submission_request_validates_packet_count() {
        let mut m = manager(1);
        assert!(!m.submission_request(0, 2, 0), "fewer than a header is malformed");
        assert!(!m.submission_request(0, 49, 0), "more than a descriptor is malformed");
    }

    #[test]
    fn push_without_request_fails() {
        let mut m = manager(1);
        assert!(!m.push_packets(0, &[1, 2, 3], 0));
    }

    #[test]
    fn push_more_than_announced_fails() {
        let mut m = manager(1);
        let pkts = packets_for(1, vec![]);
        assert!(m.submission_request(0, 3, 0));
        assert!(m.push_packets(0, &pkts, 0));
        assert!(!m.push_packets(0, &[9], 1), "descriptor already complete");
        m.advance(1_000);
        assert_eq!(m.stats().descriptors_forwarded, 1);
        assert!(!m.push_packets(0, &pkts, 1_000), "forwarding closes the buffer");
    }

    #[test]
    fn ready_requests_served_in_request_order() {
        let mut m = manager(3);
        // Submit two independent tasks.
        for (i, sw) in [11u64, 22].iter().enumerate() {
            let pkts = packets_for(*sw, vec![]);
            assert!(m.submission_request(i, pkts.len() as u32, 0));
            assert!(m.push_packets(i, &pkts, 0));
        }
        // Core 2 asks first, then core 0: core 2 must get the first ready task (sw 11).
        assert!(m.ready_task_request(2, 5));
        assert!(m.ready_task_request(0, 6));
        let mut now = 6;
        let (mut got2, mut got0) = (None, None);
        while (got2.is_none() || got0.is_none()) && now < 10_000 {
            now += 5;
            if got2.is_none() {
                got2 = m.fetch_sw_id(2, now);
            }
            if got0.is_none() {
                got0 = m.fetch_sw_id(0, now);
            }
        }
        assert_eq!(got2, Some(11), "first requester gets the first ready task");
        assert_eq!(got0, Some(22));
    }

    #[test]
    fn routing_queue_full_returns_failure() {
        let cfg = ManagerConfig { routing_queue_depth: 1, ..ManagerConfig::default() };
        let mut m = PicosManager::new(2, cfg, PicosConfig::default());
        assert!(m.ready_task_request(0, 0));
        assert!(!m.ready_task_request(1, 1), "routing queue holds a single outstanding request");
    }

    #[test]
    fn fetch_from_empty_queue_is_none() {
        let mut m = manager(1);
        assert!(m.fetch_sw_id(0, 100).is_none());
        assert!(m.fetch_picos_id(0, 100).is_none());
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn double_retire_panics() {
        let mut m = manager(1);
        let pkts = packets_for(5, vec![]);
        assert!(m.submission_request(0, pkts.len() as u32, 0));
        assert!(m.push_packets(0, &pkts, 0));
        m.ready_task_request(0, 10);
        let mut now = 10;
        while m.fetch_sw_id(0, now).is_none() {
            now += 5;
        }
        let picos_id = m.fetch_picos_id(0, now).unwrap();
        m.retire(picos_id, now);
        m.retire(picos_id, now + 10);
    }

    #[test]
    fn ready_latency_reflects_picos_pipeline_and_crossing() {
        let mut m = manager(1);
        let pkts = packets_for(9, vec![]);
        assert!(m.submission_request(0, pkts.len() as u32, 0));
        assert!(m.push_packets(0, &pkts, 0));
        assert!(m.ready_task_request(0, 0));
        // The entry cannot be visible before Picos' submission pipeline + ready publication.
        let floor = PicosTiming::default().submission_cycles(0);
        assert!(m.fetch_sw_id(0, floor / 2).is_none());
        let mut now = floor;
        while m.fetch_sw_id(0, now).is_none() {
            now += 1;
            assert!(now < 1_000);
        }
        assert!(now >= floor);
    }
}
