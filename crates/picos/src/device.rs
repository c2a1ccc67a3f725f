//! The timed Picos device: queues plus tracker plus pipeline timing.
//!
//! [`Picos`] is what Picos Manager (in `tis-core`) talks to. Its interface mirrors the three
//! hardware queues of Section IV-D:
//!
//! * [`Picos::try_submit`] — push a complete (already zero-padded) 48-packet descriptor;
//! * [`Picos::pop_ready`] — pop a ready-task descriptor, if one has been published;
//! * [`Picos::retire`] — push a retirement packet.
//!
//! The device is advanced lazily: every call carries the current cycle, and internal pipeline
//! completions that should have happened by then are applied first. This keeps the simulator
//! synchronous while still modelling the accelerator's processing latencies.

use tis_fault::{FaultConfig, TrackerFaults};
use tis_sim::{BoundedQueue, Cycle, TimedQueue};

use crate::packet::SubmittedTask;
use crate::timing::PicosTiming;
use crate::tracker::{DependenceTracker, PicosId, TrackerConfig, TrackerError, TrackerStats};

/// Configuration of the Picos device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PicosConfig {
    /// Capacity parameters of the dependence tracker.
    pub tracker: TrackerConfig,
    /// Pipeline timing parameters.
    pub timing: PicosTiming,
    /// Depth of the hardware ready queue (descriptors published and waiting to be fetched).
    pub ready_queue_depth: usize,
    /// Deterministic fault schedule for transient tracker-entry loss at the submission port.
    /// [`FaultConfig::none`] (the default) constructs no fault state at all; an engaging
    /// config draws a replayable loss fate per submission — each loss is detected by timeout
    /// and recovered by a resubmit, delaying (never losing) the commit.
    pub fault: FaultConfig,
}

impl Default for PicosConfig {
    fn default() -> Self {
        PicosConfig {
            tracker: TrackerConfig::default(),
            timing: PicosTiming::default(),
            ready_queue_depth: 16,
            fault: FaultConfig::none(),
        }
    }
}

/// A ready-to-run task descriptor as produced by Picos (before Picos Manager's Packet Encoder
/// compresses it into a 96-bit tuple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyTask {
    /// Task-memory index to hand back at retirement.
    pub picos_id: PicosId,
    /// Software identifier chosen by the runtime at submission.
    pub sw_id: u64,
    /// Cycle at which the descriptor became visible in the ready queue.
    pub available_at: Cycle,
}

/// Lifetime statistics of the device.
#[derive(Debug, Clone, Default)]
pub struct PicosStats {
    /// Tracker-level statistics.
    pub tracker: TrackerStats,
    /// Descriptors published to the ready queue.
    pub ready_published: u64,
    /// Submissions rejected because the tracker was full.
    pub submissions_rejected: u64,
    /// Submissions transiently lost by an injected fault before their commit (each one was
    /// detected by timeout and recovered by a resubmit).
    pub tracker_losses: u64,
    /// Resubmissions issued to recover lost submissions (equals `tracker_losses`).
    pub tracker_resubmits: u64,
    /// Total cycles the submission port spent detecting losses and resubmitting.
    pub tracker_recovery_cycles: u64,
}

/// The Picos hardware task scheduler.
#[derive(Debug, Clone)]
pub struct Picos {
    config: PicosConfig,
    tracker: DependenceTracker,
    /// Tasks whose dependences are satisfied but whose ready descriptors are still being
    /// generated, keyed by publication time.
    pending_ready: TimedQueue<PicosId>,
    /// Retirement packets accepted but not yet applied to the task graph, keyed by completion
    /// time.
    ///
    /// Retirements are deferred until their simulated completion time so that a task submitted
    /// at an earlier simulated cycle (by a core whose clock lags the retiring core) still links
    /// to the producer — the hardware never reorders retirements ahead of earlier submissions.
    pending_retire: TimedQueue<PicosId>,
    ready_queue: BoundedQueue<ReadyTask>,
    /// Scratch buffer for the tracker's wake-up lists, reused across retirements.
    woken_scratch: Vec<PicosId>,
    submit_busy_until: Cycle,
    retire_busy_until: Cycle,
    /// Latest simulated instant every core is known to have reached (set by the integration
    /// layer). Retirements are only applied up to this horizon so that a core whose clock still
    /// lags cannot observe a retirement from its future.
    time_horizon: Option<Cycle>,
    /// Deterministic submission-loss state; `None` unless [`PicosConfig::fault`] engages.
    faults: Option<TrackerFaults>,
    stats: PicosStats,
    /// Observability: while `true`, every ready publication appends `(publish_cycle, sw_id)`
    /// to [`Picos::drain_ready_log`]'s buffer. Plain data — this crate carries no observer
    /// dependency — and nothing is buffered while disarmed (the default).
    observing: bool,
    ready_log: Vec<(Cycle, u64)>,
    /// Count of state changes (accepted submissions, retirements, applied retirements, ready
    /// publications and pops): a version number for callers that skip repeated failed polls.
    changes: u64,
}

impl Picos {
    /// Creates a Picos device.
    pub fn new(config: PicosConfig) -> Self {
        Picos {
            config,
            tracker: DependenceTracker::new(config.tracker),
            pending_ready: TimedQueue::new(),
            pending_retire: TimedQueue::new(),
            ready_queue: BoundedQueue::new(config.ready_queue_depth),
            woken_scratch: Vec::new(),
            submit_busy_until: 0,
            retire_busy_until: 0,
            time_horizon: None,
            faults: config.fault.engages().then(|| TrackerFaults::new(config.fault)),
            stats: PicosStats::default(),
            observing: false,
            ready_log: Vec::new(),
            changes: 0,
        }
    }

    /// Arms (or disarms) ready-publication logging (see the `observing` field).
    pub fn set_observing(&mut self, on: bool) {
        self.observing = on;
        if !on {
            self.ready_log.clear();
        }
    }

    /// Drains buffered ready publications as `(publish_cycle, sw_id)` pairs, oldest first.
    pub fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        for (t, sw_id) in self.ready_log.drain(..) {
            sink(t, sw_id);
        }
    }

    /// Declares that no core will issue an operation timestamped earlier than `safe_now`.
    pub fn set_time_horizon(&mut self, safe_now: Cycle) {
        let new = match self.time_horizon {
            Some(h) => h.max(safe_now),
            None => safe_now,
        };
        self.time_horizon = Some(new);
    }

    /// Configuration in use.
    pub fn config(&self) -> PicosConfig {
        self.config
    }

    /// Number of in-flight tasks: inserted and not yet retired by the program. Tasks whose
    /// retirement packet has been accepted but is still being processed by the retirement
    /// pipeline are no longer counted (the program is done with them), although they still
    /// occupy task-memory entries until the pipeline drains.
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight() - self.pending_retire.len()
    }

    /// Whether the device can currently accept a new task descriptor.
    pub fn can_accept_submission(&self) -> bool {
        !self.tracker.is_full()
    }

    /// Applies all internal pipeline completions up to `now`: retirements whose processing time
    /// has been reached are applied to the task graph, and pending ready descriptors are
    /// published into the bounded ready queue, oldest first.
    pub fn advance(&mut self, now: Cycle) {
        // Retirements become visible no earlier than both their completion time and the horizon
        // every core has provably reached.
        let retire_gate = match self.time_horizon {
            Some(h) => now.min(h),
            None => now,
        };
        while let Some((t, id)) = self.pending_retire.pop_due(retire_gate) {
            self.changes += 1;
            self.tracker
                .retire_into(id, &mut self.woken_scratch)
                .expect("pending retirement refers to an in-flight task (validated at queue time)");
            for &w in &self.woken_scratch {
                self.pending_ready.schedule(t + self.config.timing.ready_publish, w);
            }
        }
        while let Some(t) = self.pending_ready.next_due() {
            if t > now || self.ready_queue.is_full() {
                break;
            }
            let (_, id) = self.pending_ready.pop_due(now).expect("head checked due above");
            self.changes += 1;
            let sw_id = self
                .tracker
                .sw_id(id)
                .expect("a pending-ready task is still in flight until it retires");
            let entry = ReadyTask { picos_id: id, sw_id, available_at: t };
            self.ready_queue
                .push(entry)
                .expect("checked for space above");
            if self.observing {
                self.ready_log.push((t, sw_id));
            }
            self.stats.ready_published += 1;
        }
    }

    /// Submits a complete task descriptor at cycle `now`.
    ///
    /// Returns the assigned Picos ID and the cycle at which the accelerator finishes absorbing
    /// the descriptor (the submission pipeline is busy until then).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TrackerError`] if the task memory or address table is full; the
    /// caller (Picos Manager) is expected to have checked [`Picos::can_accept_submission`] and to
    /// retry later otherwise.
    pub fn try_submit(&mut self, task: &SubmittedTask, now: Cycle) -> Result<(PicosId, Cycle), TrackerError> {
        self.advance(now);
        let (id, ready) = self.tracker.insert(task).inspect_err(|_e| {
            self.stats.submissions_rejected += 1;
        })?;
        self.changes += 1;
        // Injected tracker-entry loss: the descriptor may be lost (a bounded number of times)
        // before the insert above commits. A lost attempt leaves no semantic trace — detection
        // is a timeout at the submission port, recovery is a resubmit — so the fault shows up
        // purely as extra pipeline occupancy ahead of the commit.
        let mut loss_penalty = 0;
        if let Some(f) = &mut self.faults {
            let (lost, penalty) = f.submission_losses();
            self.stats.tracker_losses += lost as u64;
            self.stats.tracker_resubmits += lost as u64;
            self.stats.tracker_recovery_cycles += penalty;
            loss_penalty = penalty;
        }
        let start = self.submit_busy_until.max(now);
        let done = start + loss_penalty + self.config.timing.submission_cycles(task.deps.len());
        self.submit_busy_until = done;
        if ready {
            self.pending_ready.schedule(done + self.config.timing.ready_publish, id);
        }
        self.advance(now);
        Ok((id, done))
    }

    /// Pops the oldest ready descriptor that is visible at cycle `now`, if any.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<ReadyTask> {
        self.advance(now);
        match self.ready_queue.front() {
            Some(rt) if rt.available_at <= now => {
                self.changes += 1;
                self.ready_queue.pop()
            }
            _ => None,
        }
    }

    /// Number of descriptors currently sitting in the ready queue (regardless of visibility).
    pub fn ready_queue_len(&self) -> usize {
        self.ready_queue.len() + self.pending_ready.len()
    }

    /// Retires a task at cycle `now`.
    ///
    /// Returns the cycle at which the retirement finishes processing inside the accelerator;
    /// tasks woken by this retirement become visible in the ready queue shortly afterwards.
    /// Picos always accepts retirement packets (Section IV-B), so this never reports "full".
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::UnknownTask`] on a double retire or a corrupted ID.
    pub fn retire(&mut self, id: PicosId, now: Cycle) -> Result<Cycle, TrackerError> {
        self.advance(now);
        if self.tracker.sw_id(id).is_none() || self.pending_retire.iter().any(|&(_, p)| p == id) {
            return Err(TrackerError::UnknownTask(id));
        }
        let fanout = self.tracker.successor_count(id);
        let start = self.retire_busy_until.max(now);
        let done = start + self.config.timing.retirement_cycles(fanout);
        self.retire_busy_until = done;
        self.pending_retire.schedule(done, id);
        self.changes += 1;
        self.advance(now);
        Ok(done)
    }

    /// Number of state changes so far: it moves whenever anything a later call could observe
    /// changes, and never otherwise (rejected submissions only count statistics).
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// The pending internal completions [`Picos::advance`] would apply, as `(publication,
    /// retirement)`: the head of pending ready publication while the ready queue has room,
    /// which an `advance(now)` applies once `now` reaches it, and the head of the retirement
    /// pipeline, which it applies only once both `now` and the time horizon reach it.
    /// `Cycle::MAX` where none is pending.
    pub fn next_events(&self) -> (Cycle, Cycle) {
        let publish = if self.ready_queue.is_full() {
            Cycle::MAX
        } else {
            self.pending_ready.next_due().unwrap_or(Cycle::MAX)
        };
        (publish, self.pending_retire.next_due().unwrap_or(Cycle::MAX))
    }

    /// Publication cycle of the oldest descriptor in the ready queue, if any.
    pub fn ready_head(&self) -> Option<Cycle> {
        self.ready_queue.front().map(|rt| rt.available_at)
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> PicosStats {
        PicosStats { tracker: self.tracker.stats().clone(), ..self.stats.clone() }
    }
}

impl Default for Picos {
    fn default() -> Self {
        Picos::new(PicosConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::Dependence;

    fn t(sw_id: u64, deps: Vec<Dependence>) -> SubmittedTask {
        SubmittedTask::new(sw_id, deps)
    }

    #[test]
    fn independent_task_becomes_ready_after_pipeline_latency() {
        let mut p = Picos::default();
        let (_id, done) = p.try_submit(&t(7, vec![]), 0).unwrap();
        assert!(done >= PicosTiming::default().submission_cycles(0));
        assert!(p.pop_ready(0).is_none(), "not visible before the pipeline finishes");
        let visible_at = done + PicosTiming::default().ready_publish;
        assert!(p.pop_ready(visible_at - 1).is_none());
        let rt = p.pop_ready(visible_at).expect("ready after publication latency");
        assert_eq!(rt.sw_id, 7);
    }

    #[test]
    fn dependent_task_only_ready_after_predecessor_retires() {
        let mut p = Picos::default();
        let (a, _) = p.try_submit(&t(1, vec![Dependence::write(0x100)]), 0).unwrap();
        let (_b, _) = p.try_submit(&t(2, vec![Dependence::read(0x100)]), 10).unwrap();
        let ra = p.pop_ready(1_000).expect("first task ready");
        assert_eq!(ra.picos_id, a);
        assert!(p.pop_ready(1_000).is_none(), "second task still blocked");
        let done = p.retire(a, 2_000).unwrap();
        assert!(p.pop_ready(done).is_none() || done >= 2_000);
        let rb = p.pop_ready(done + PicosTiming::default().ready_publish).expect("woken by retirement");
        assert_eq!(rb.sw_id, 2);
    }

    #[test]
    fn ready_queue_backpressure_holds_descriptors() {
        let cfg = PicosConfig { ready_queue_depth: 2, ..PicosConfig::default() };
        let mut p = Picos::new(cfg);
        for i in 0..5 {
            p.try_submit(&t(i, vec![]), i * 10).unwrap();
        }
        p.advance(10_000);
        assert_eq!(p.ready_queue_len(), 5, "all five stay buffered somewhere");
        // Only two fit in the hardware ready queue; the rest are still pending publication.
        let mut popped = Vec::new();
        let mut now = 10_000;
        while let Some(rt) = p.pop_ready(now) {
            popped.push(rt.sw_id);
            now += 1;
        }
        assert_eq!(popped.len(), 5, "popping drains the backlog as space frees up");
        assert_eq!(popped, vec![0, 1, 2, 3, 4], "FIFO order by submission");
    }

    #[test]
    fn submission_rejected_when_task_memory_full() {
        let cfg = PicosConfig {
            tracker: TrackerConfig { task_memory_entries: 1, address_table_entries: 8 },
            ..PicosConfig::default()
        };
        let mut p = Picos::new(cfg);
        let (a, _) = p.try_submit(&t(1, vec![]), 0).unwrap();
        assert!(!p.can_accept_submission());
        assert!(p.try_submit(&t(2, vec![]), 5).is_err());
        assert_eq!(p.stats().submissions_rejected, 1);
        let done = p.retire(a, 100).unwrap();
        p.advance(done); // the task-memory entry frees once the retirement pipeline drains
        assert!(p.can_accept_submission());
        assert!(p.try_submit(&t(2, vec![]), 200).is_ok());
    }

    #[test]
    fn back_to_back_submissions_serialize_in_the_pipeline() {
        let mut p = Picos::default();
        let (_, d1) = p.try_submit(&t(1, vec![]), 0).unwrap();
        let (_, d2) = p.try_submit(&t(2, vec![]), 0).unwrap();
        assert!(d2 >= d1 + PicosTiming::default().submission_cycles(0));
    }

    #[test]
    fn retire_unknown_id_is_an_error() {
        let mut p = Picos::default();
        assert!(p.retire(PicosId(3), 0).is_err());
    }

    #[test]
    fn tracker_loss_delays_but_never_loses_submissions() {
        // 100% loss rate with a retry budget of 2: every submission is lost twice, resubmitted
        // and then commits — later by exactly the detection/backoff ramp, with nothing dropped.
        let fault = tis_fault::FaultConfig {
            tracker_loss_ppm: 1_000_000,
            max_retries: 2,
            retry_timeout: 50,
            retry_backoff: 10,
            ..tis_fault::FaultConfig::zero_rate()
        };
        let mut clean = Picos::default();
        let mut lossy = Picos::new(PicosConfig { fault, ..PicosConfig::default() });
        let (_, d_clean) = clean.try_submit(&t(1, vec![]), 0).unwrap();
        let (_, d_lossy) = lossy.try_submit(&t(1, vec![]), 0).unwrap();
        assert_eq!(d_lossy, d_clean + 50 + 60, "two losses, linear backoff, then commit");
        let rt = lossy.pop_ready(100_000).expect("the submission must still commit");
        assert_eq!(rt.sw_id, 1);
        let s = lossy.stats();
        assert_eq!(s.tracker_losses, 2);
        assert_eq!(s.tracker_resubmits, 2);
        assert_eq!(s.tracker_recovery_cycles, 110);
        // A zero-rate engaged config is cycle-identical to the fault-free device.
        let mut zeroed =
            Picos::new(PicosConfig { fault: tis_fault::FaultConfig::zero_rate(), ..PicosConfig::default() });
        let (_, d_zero) = zeroed.try_submit(&t(1, vec![]), 0).unwrap();
        assert_eq!(d_zero, d_clean);
        assert_eq!(zeroed.stats().tracker_losses, 0);
    }

    #[test]
    fn stats_reflect_activity() {
        let mut p = Picos::default();
        let (a, _) = p.try_submit(&t(1, vec![Dependence::write(0x10)]), 0).unwrap();
        let (_b, _) = p.try_submit(&t(2, vec![Dependence::read(0x10)]), 1).unwrap();
        let done = p.retire(a, 1_000).unwrap();
        p.advance(done + 100); // let the retirement pipeline drain
        let s = p.stats();
        assert_eq!(s.tracker.inserted, 2);
        assert_eq!(s.tracker.retired, 1);
        assert!(s.ready_published >= 1);
    }
}
