//! The deterministic execution engine.
//!
//! One runtime *agent* runs per core (the paper pins one runtime thread per hardware core). The
//! engine repeatedly advances the agent whose local clock is furthest behind (ties go to the
//! lowest core index), handing it a [`CoreCtx`] to spend cycles through and the machine's
//! [`SchedulerFabric`] to issue Table-I operations against. The run ends when the
//! [`RuntimeSystem`] declares the program finished, or with an error if no agent makes progress
//! (a genuine deadlock, e.g. when the blocking-instruction ablation of Section IV-C is enabled)
//! or the configured cycle cap is exceeded.
//!
//! # Idle fast-forward
//!
//! Runtimes wait by polling: a Phentos worker whose fetch fails backs off 40 cycles and polls
//! again. Stepping every such poll is where almost all host time of an idle-heavy run goes, so
//! the engine *parks* a core whose step was a failed poll that repeats identically (a
//! [`PollLoop`]): it leaves the run queue, its skipped polls are charged in closed form, and it
//! resumes for real at its *wake*, the first poll of its own grid that could behave
//! differently. The step that parks a core may itself have changed the fabric, by applying
//! internal events that its failed operations found due; its repeats find none due before the
//! fabric's next ones. A wake is the earliest of four parts:
//!
//! * the declaration's own bound, fixed when the core parks: the repeat at which the runtime
//!   must run for real ([`PollLoop::repeats`]) or its own inputs could change
//!   ([`PollLoop::until`]);
//! * the first poll after a change the core saw since parking: a step that moved its
//!   [`RuntimeSystem::observed_epoch`] or took its repeated line out of its L1. This part only
//!   moves earlier;
//! * the first poll that the fabric's current state could let succeed
//!   ([`SchedulerFabric::poll_blocked_until`]). Each recheck after a fabric change replaces
//!   it, later as well as earlier: a core woken for a routing slot that another core then
//!   took goes back to sleep;
//! * while this core's poll is the first of the parked cores' to reach the fabric's next
//!   internal events ([`SchedulerFabric::next_internal_events`]), that poll. It goes when the
//!   events move: whichever step moved them has already applied or displaced them.
//!
//! Only the parked cores a step could wake are rechecked: the runtime and the fabric name the
//! cores whose answers a change may have moved ([`RuntimeSystem::drain_epoch_changes`],
//! [`SchedulerFabric::drain_poll_changes`]). The first reacher of the fabric's next events is
//! chosen only when a run-queue entry, filed at a lower bound of every parked core's reach,
//! comes due. Every observable effect lands exactly where stepping every poll would put it:
//! reports, task events, metrics samples and errors are identical to the per-poll loop, which
//! stays available to tests as [`run_machine_reference`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tis_mem::{AccessKind, BandwidthModel, FaultDiagnosis, MemorySystem};
use tis_obs::{MemEvent, MetricsSample, Observer, TaskEvent, TaskStage};
use tis_sim::Cycle;

use crate::config::MachineConfig;
use crate::context::{CoreCtx, CoreStats};
use crate::fabric::{FailedOps, InternalEvents, PollChanges, SchedulerFabric};
use crate::report::ExecutionReport;
use tis_taskmodel::ExecRecord;

/// What a runtime agent reports after one step on its core.
///
/// A `Progressed` or `Waiting` step may also be a failed poll the runtime declares repeatable
/// through [`RuntimeSystem::poll_loop`]; the engine may then skip the repeats (see the module
/// docs), with no difference to anything the run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// The agent did useful work and should be stepped again.
    Progressed,
    /// The agent has nothing to do before (approximately) the given cycle.
    Waiting {
        /// Cycle at which the agent wants to be polled again.
        until: Cycle,
    },
    /// The agent has terminated and must not be stepped again.
    Finished,
}

/// The one memory access a [`PollLoop`] repeats on every poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollTouch {
    /// Address accessed.
    pub addr: u64,
    /// Bytes accessed.
    pub bytes: u64,
    /// Kind of access.
    pub kind: AccessKind,
}

/// A failed poll that repeats identically while nothing it observes changes, declared by a
/// runtime after the step that performed it (see [`RuntimeSystem::poll_loop`]).
///
/// The engine measures the poll's cycles and period from the step itself. The declaration
/// names everything else a repeat does, so that skipped repeats can be charged in closed form:
/// its failed fabric operations, its one memory access (which must hit in the L1 without
/// changing state) and its one task event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollLoop {
    /// The fabric operations every repeat issues, each failing.
    pub ops: FailedOps,
    /// The memory access every repeat makes, if any.
    pub touch: Option<PollTouch>,
    /// The task event every repeat emits at its first cycle, as `(stage, task)`.
    pub event: Option<(TaskStage, u64)>,
    /// How many repeats stay identical before the runtime must run for real (Phentos folds
    /// its private retirement counter after a bounded number of failed fetches); `u64::MAX`
    /// if unbounded.
    pub repeats: u64,
    /// Earliest cycle at which a repeat starting then could behave differently because of the
    /// runtime's own inputs (a task source's next arrival); `Cycle::MAX` if none.
    pub until: Cycle,
}

/// A runtime plugged into the machine: it owns the program being executed and the per-core agent
/// state, and spends cycles exclusively through the [`CoreCtx`] it is handed.
///
/// Runtimes are *pull-based*: the engine never hands them work — each step the agent decides
/// what to do next, pulling ops from its task source (materialized or streaming) and task
/// identities from the fabric. This keeps the single inner loop of the engine workload-shape
/// agnostic: a million-task streamed cell and a 40-task materialized one drive the exact same
/// engine code.
pub trait RuntimeSystem {
    /// Human-readable runtime name (e.g. `"phentos"`, `"nanos-sw"`).
    fn name(&self) -> &'static str;

    /// Advances the agent pinned to `ctx.core()` by one step.
    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus;

    /// Whether the whole program has completed (every task submitted, executed and retired, and
    /// the main thread has passed its final barrier).
    fn is_finished(&self) -> bool;

    /// Per-task execution records for validation against the reference dependence graph.
    fn exec_records(&self) -> Vec<ExecRecord>;

    /// Number of tasks the runtime has retired so far.
    fn tasks_retired(&self) -> u64;

    /// High-water mark of task descriptors resident in the runtime's task source over the whole
    /// run — the memory-footprint proxy the streaming-scale gate checks against the configured
    /// in-flight window. Runtimes that do not stream (every test double, and any runtime built
    /// before the streaming refactor) report `0`.
    fn peak_resident_tasks(&self) -> u64 {
        0
    }

    /// Per-tenant serving metrics, if the runtime's task source multiplexes tenants. Empty for
    /// single-program runs and for every runtime predating multi-tenant serving, which keeps
    /// legacy [`ExecutionReport`]s bit-identical.
    fn tenant_reports(&self) -> Vec<tis_taskmodel::TenantReport> {
        Vec::new()
    }

    /// Idle fast-forward: called right after every step of `core`. `Some` declares that the
    /// step was a failed poll which, repeated while nothing in [`RuntimeSystem::observed_epoch`]
    /// or the fabric changes, does exactly the same thing every time and changes no runtime
    /// state beyond what [`RuntimeSystem::skip_polls`] replays. Every fabric operation of the
    /// step failed; the step may still have changed the fabric by applying its internal
    /// events. The default, `None`, never parks.
    fn poll_loop(&self, _core: usize) -> Option<PollLoop> {
        None
    }

    /// Version of the runtime state that `core`'s declared poll loop reads (shared flags and
    /// counters, its task source). A parked core resumes after any step that changes it.
    fn observed_epoch(&self, _core: usize) -> u64 {
        0
    }

    /// One version of the whole runtime that moves, and never returns to an earlier value,
    /// whenever [`RuntimeSystem::observed_epoch`] of any parked core could change. The engine
    /// re-reads the per-core epochs only after a step that moved it. A change that only a
    /// core's own steps make need not move it, since a core never steps while parked. The
    /// default is constant, like the default epochs.
    fn observed_version(&self) -> u64 {
        0
    }

    /// Hands `sink` every core whose [`RuntimeSystem::observed_epoch`] may have moved since the
    /// last call, and returns `true`; a core not handed over keeps its epoch. The engine calls
    /// it when it finds [`RuntimeSystem::observed_version`] moved after a step taken while a
    /// core is parked. The default returns `false`: any change may have moved any core's epoch.
    fn drain_epoch_changes(&mut self, _sink: &mut dyn FnMut(usize)) -> bool {
        false
    }

    /// Applies `polls` skipped repeats of `core`'s poll loop to the runtime's own state; the
    /// last of them started at `last_start`.
    fn skip_polls(&mut self, _core: usize, _polls: u64, _last_start: Cycle) {}
}

/// Deterministic work counters of one run, kept outside [`ExecutionReport`] so that reports
/// compare behaviour, not how much host work produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Steps that returned [`CoreStatus::Progressed`].
    pub progressed_steps: u64,
    /// Steps that returned [`CoreStatus::Waiting`].
    pub waiting_steps: u64,
    /// Steps that returned [`CoreStatus::Finished`].
    pub finished_steps: u64,
    /// Times a core left the run queue to have its polls charged in closed form.
    pub parks: u64,
    /// Times a parked core resumed stepping.
    pub wakes: u64,
    /// Polls charged in closed form instead of stepped. Steps plus skipped polls equal the
    /// steps of the per-poll reference run.
    pub skipped_polls: u64,
    /// Parked cores examined for something that could wake them: after a step, and when the
    /// first reach of the fabric's next internal events is chosen.
    pub rechecks: u64,
    /// Closed-form charges of at least one skipped poll. A parked core is charged when it
    /// wakes and when the run ends or fails; metrics samples read parked cores without
    /// charging them.
    pub settles: u64,
}

impl EngineStats {
    /// Every runtime step the engine executed.
    pub fn steps(&self) -> u64 {
        self.progressed_steps + self.waiting_steps + self.finished_steps
    }

    /// Steps per retired task (0 for a run that retired none).
    pub fn steps_per_task(&self, tasks: u64) -> f64 {
        per_task(self.steps(), tasks)
    }

    /// Parks, wakes and rechecks per retired task, in that order (0 for a run that retired
    /// none).
    pub fn parking_per_task(&self, tasks: u64) -> [f64; 3] {
        [self.parks, self.wakes, self.rechecks].map(|n| per_task(n, tasks))
    }

    /// Adds another run's counters to these.
    pub fn add(&mut self, other: &EngineStats) {
        self.progressed_steps += other.progressed_steps;
        self.waiting_steps += other.waiting_steps;
        self.finished_steps += other.finished_steps;
        self.parks += other.parks;
        self.wakes += other.wakes;
        self.skipped_polls += other.skipped_polls;
        self.rechecks += other.rechecks;
        self.settles += other.settles;
    }
}

/// `count` per retired task (0 for a run that retired none).
fn per_task(count: u64, tasks: u64) -> f64 {
    if tasks == 0 {
        0.0
    } else {
        count as f64 / tasks as f64
    }
}

/// Errors terminating a simulation without a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No agent made progress for a long stretch of simulated time while the program was still
    /// unfinished — the system is deadlocked or livelocked.
    NoProgress {
        /// Simulated cycle at which the engine gave up.
        cycle: Cycle,
        /// Runtime that was executing.
        runtime: String,
    },
    /// The configured `max_cycles` cap was exceeded.
    CycleLimitExceeded {
        /// The configured limit.
        limit: Cycle,
        /// Runtime that was executing.
        runtime: String,
    },
    /// Every agent terminated but the runtime still reports unfinished work.
    AllAgentsFinishedEarly {
        /// Runtime that was executing.
        runtime: String,
    },
    /// An injected fault exhausted its recovery budget (a message's route crosses a dead NoC
    /// link): the engine aborts with the detector's precise diagnosis — which resource
    /// faulted, which message hit it, and how many tasks were left blocked — instead of
    /// hanging or silently computing a wrong answer.
    UnrecoverableFault {
        /// What the fault detector recorded: the dead link and the message that hit it.
        diagnosis: FaultDiagnosis,
        /// Simulated cycle at which the engine observed the diagnosis and gave up.
        cycle: Cycle,
        /// Tasks retired before the fault struck.
        tasks_retired: u64,
        /// Submitted tasks left blocked by the fault (submitted minus retired).
        tasks_blocked: u64,
        /// Runtime that was executing.
        runtime: String,
    },
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::NoProgress { cycle, runtime } => {
                write!(f, "no progress by any core of runtime '{runtime}' around cycle {cycle} (deadlock)")
            }
            EngineError::CycleLimitExceeded { limit, runtime } => {
                write!(f, "runtime '{runtime}' exceeded the {limit}-cycle simulation cap")
            }
            EngineError::AllAgentsFinishedEarly { runtime } => {
                write!(f, "all agents of runtime '{runtime}' terminated before the program completed")
            }
            EngineError::UnrecoverableFault { diagnosis, cycle, tasks_retired, tasks_blocked, runtime } => {
                write!(
                    f,
                    "unrecoverable fault in runtime '{runtime}': dead link {} never delivered the \
                     message from core {} to core {} issued at cycle {} ({} attempts); detected at \
                     cycle {cycle} with {tasks_retired} tasks retired and {tasks_blocked} blocked",
                    diagnosis.link, diagnosis.from, diagnosis.to, diagnosis.cycle, diagnosis.attempts
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// How long (in simulated cycles) the engine tolerates a complete absence of progress before
/// declaring a deadlock.
const NO_PROGRESS_WINDOW: Cycle = 50_000_000;

/// Runs `runtime` on a machine described by `cfg`, using `fabric` as the task-scheduling
/// hardware, and returns the execution report.
///
/// # Errors
///
/// Returns an [`EngineError`] if the simulation deadlocks, exceeds the configured cycle cap, or
/// every agent terminates with work outstanding.
pub fn run_machine(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
) -> Result<ExecutionReport, EngineError> {
    run_machine_counted(cfg, runtime, fabric, None).0
}

/// [`run_machine`] with an observer attached: task-lifecycle events, memory events (when the
/// observer wants them) and cycle-bucketed metrics samples flow to `obs` as the run executes.
///
/// Observation is pure: it never spends simulated cycles, so the returned report — makespan,
/// per-core stats, fabric and memory statistics — is identical to the unobserved run's.
///
/// # Errors
///
/// Exactly as [`run_machine`].
pub fn run_machine_observed(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
    obs: &mut dyn Observer,
) -> Result<ExecutionReport, EngineError> {
    run_machine_counted(cfg, runtime, fabric, Some(obs)).0
}

/// [`run_machine`], or [`run_machine_observed`] when `obs` is given, that also returns the
/// run's [`EngineStats`] whatever its outcome.
pub fn run_machine_counted(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
    obs: Option<&mut dyn Observer>,
) -> (Result<ExecutionReport, EngineError>, EngineStats) {
    Engine::new(cfg, runtime, fabric, obs.map(|o| o as &mut dyn Observer), true).run()
}

/// The per-poll reference loop: [`run_machine_counted`] with idle fast-forward disabled, so
/// every poll is a step. It exists for differential tests of the fast path.
#[doc(hidden)]
pub fn run_machine_reference(
    cfg: &MachineConfig,
    runtime: &mut dyn RuntimeSystem,
    fabric: &mut dyn SchedulerFabric,
    obs: Option<&mut dyn Observer>,
) -> (Result<ExecutionReport, EngineError>, EngineStats) {
    Engine::new(cfg, runtime, fabric, obs.map(|o| o as &mut dyn Observer), false).run()
}

/// A position in the engine's step order: `(start cycle, core)`.
type StepAt = (Cycle, usize);

/// The first cycle at which a poll of core `me` would come after `step` in the step order.
fn after(me: usize, step: StepAt) -> Cycle {
    if me > step.1 {
        step.0
    } else {
        step.0 + 1
    }
}

/// A set of cores with constant-time insertion and removal, iterated in no particular order.
#[derive(Debug)]
struct CoreSet {
    cores: Vec<usize>,
    /// Each core's position in `cores`, or `usize::MAX` if it is not a member.
    slot: Vec<usize>,
}

impl CoreSet {
    fn new(cores: usize) -> Self {
        CoreSet { cores: Vec::new(), slot: vec![usize::MAX; cores] }
    }

    fn insert(&mut self, core: usize) {
        self.slot[core] = self.cores.len();
        self.cores.push(core);
    }

    fn remove(&mut self, core: usize) {
        let i = std::mem::replace(&mut self.slot[core], usize::MAX);
        if i != usize::MAX {
            self.cores.swap_remove(i);
            if let Some(&moved) = self.cores.get(i) {
                self.slot[moved] = i;
            }
        }
    }

    fn contains(&self, core: usize) -> bool {
        self.slot[core] != usize::MAX
    }
}

/// The parked cores grouped by the shape of their poll, each group in the order of its polls'
/// phase, so that the first poll to reach a cycle is found without examining every parked core.
#[derive(Debug, Default)]
struct ReachIndex {
    groups: Vec<PhaseGroup>,
}

/// The parked cores whose polls have one period and one lead.
#[derive(Debug)]
struct PhaseGroup {
    /// `(period, lead)` of the members' polls.
    shape: (Cycle, u64),
    /// `(poll start modulo period, core)` of each member, sorted.
    members: Vec<(Cycle, usize)>,
}

impl ReachIndex {
    fn insert(&mut self, core: usize, park: &Parked) {
        let shape = (park.period, park.lead);
        let member = (park.next % park.period, core);
        let g = self.groups.iter().position(|g| g.shape == shape).unwrap_or_else(|| {
            self.groups.push(PhaseGroup { shape, members: Vec::new() });
            self.groups.len() - 1
        });
        let members = &mut self.groups[g].members;
        members.insert(members.partition_point(|&m| m < member), member);
    }

    fn remove(&mut self, core: usize, park: &Parked) {
        let shape = (park.period, park.lead);
        let member = (park.next % park.period, core);
        let g = self.groups.iter().position(|g| g.shape == shape).expect("parked cores are indexed");
        let members = &mut self.groups[g].members;
        members.remove(members.partition_point(|&m| m < member));
        if members.is_empty() {
            self.groups.swap_remove(g);
        }
    }

    /// The parked core whose poll first reaches `events` after `step`, as `(its poll's
    /// start, core)`, and how many cores were examined. In each group and for each event,
    /// the cores come in the order of a lower bound of their reach, the first grid point at
    /// or after the event that their phase allows; the walk stops once that bound passes the
    /// best reach found.
    fn first_reach(
        &self,
        parked: &[Option<Parked>],
        step: StepAt,
        events: InternalEvents,
    ) -> (Option<StepAt>, u64) {
        let mut best: Option<StepAt> = None;
        let mut examined = 0;
        for PhaseGroup { shape: (period, lead), members } in &self.groups {
            let period = *period;
            for (t, lead) in [(events.by_op, *lead), (events.by_start, 0)] {
                if t == Cycle::MAX {
                    continue;
                }
                let x = step.0.max(t.saturating_sub(lead));
                let phase = x % period;
                let start = members.partition_point(|&(p, _)| p < phase);
                for k in 0..members.len() {
                    let (p, core) = members[(start + k) % members.len()];
                    let bound = x.saturating_add((p + period - phase) % period);
                    if best.is_some_and(|b| (bound, core) >= b) {
                        break;
                    }
                    examined += 1;
                    let park = parked[core].as_ref().expect("indexed cores are parked");
                    if let Some(reach) = park.poll_reaching_events(after(core, step), events) {
                        best = Some(best.map_or((reach, core), |b| b.min((reach, core))));
                    }
                }
            }
        }
        (best, examined)
    }
}

/// A parked core: out of the run queue, its polls charged in closed form until its wake.
#[derive(Debug)]
struct Parked {
    poll: PollLoop,
    /// Cycles from one poll's start to the next.
    period: Cycle,
    /// Runtime cycles one poll charges; its fabric operations all fall within them.
    runtime_cycles: u64,
    /// Cycles from a poll's start to its last fabric operation, or `runtime_cycles` if the
    /// fabric does not say (see [`SchedulerFabric::last_operation`]).
    lead: u64,
    /// Idle cycles one poll charges, of which `idle_tail` are the wait the engine files after
    /// a `Waiting` poll, once its metrics sample (if any) is taken.
    idle_cycles: u64,
    idle_tail: u64,
    /// Memory operations one poll issues.
    memory_ops: u64,
    /// The poll returns `Progressed`, which resets the deadlock watchdog.
    progressed: bool,
    /// Start of the first poll not charged yet.
    next: Cycle,
    /// Start of the first poll whose task event has not been emitted yet.
    next_event: Cycle,
    /// [`RuntimeSystem::observed_epoch`] when the core parked.
    epoch: u64,
    /// The four parts of the wake, the start of the first poll that must run for real (see
    /// the module docs). The declaration's own bound, fixed when the core parks.
    bound: Cycle,
    /// The first poll after a change seen since parking, a moved epoch or a lost line. It
    /// only moves earlier.
    changed: Cycle,
    /// The first poll that the fabric's current state lets reach the cycle from which its
    /// failed operations could succeed. Each recheck replaces it.
    blocked: Cycle,
    /// The poll that reaches the fabric's next internal events, while this core's reaches
    /// them first; `Cycle::MAX` otherwise.
    reach: Cycle,
}

impl Parked {
    /// Start of the first poll that must run for real.
    fn wake(&self) -> Cycle {
        self.bound.min(self.changed).min(self.blocked).min(self.reach)
    }

    /// Start of the first uncharged poll at or after `t`.
    fn poll_at_or_after(&self, t: Cycle) -> Cycle {
        if t <= self.next {
            return self.next;
        }
        let polls = (t - self.next).div_ceil(self.period);
        self.next.saturating_add(polls.saturating_mul(self.period))
    }

    /// Start of this core's first poll that the step order puts after `step`.
    fn poll_after(&self, me: usize, step: StepAt) -> Cycle {
        self.poll_at_or_after(after(me, step))
    }

    /// Start of the first poll at or after `from` whose operations could reach cycle `t`.
    /// Equal to `poll_reaching(poll_at_or_after(from), t)`, with one grid rounding fewer.
    fn poll_reaching(&self, from: Cycle, t: Cycle) -> Cycle {
        self.poll_at_or_after(from.max(t.saturating_sub(self.lead)))
    }

    /// Start of the first poll at or after `from` that reaches one of `events`, if any.
    fn poll_reaching_events(&self, from: Cycle, events: InternalEvents) -> Option<Cycle> {
        let by_op = (events.by_op < Cycle::MAX).then(|| self.poll_reaching(from, events.by_op));
        let by_start = events.by_start;
        let by_start = (by_start < Cycle::MAX).then(|| self.poll_at_or_after(from.max(by_start)));
        by_op.into_iter().chain(by_start).min()
    }

    /// Number of polls from the one starting at `from` that the step order puts before `bound`.
    fn polls_before(&self, from: Cycle, me: usize, bound: StepAt) -> u64 {
        let end = if me < bound.1 { bound.0.saturating_add(1) } else { bound.0 };
        end.saturating_sub(from).div_ceil(self.period)
    }
}

/// One run: the machine's state plus the run queue and the parked cores.
struct Engine<'a> {
    cfg: &'a MachineConfig,
    runtime: &'a mut dyn RuntimeSystem,
    fabric: &'a mut dyn SchedulerFabric,
    obs: Option<&'a mut dyn Observer>,
    mem: MemorySystem,
    dram: BandwidthModel,
    /// Idle fast-forward is allowed and the fabric supports it.
    parking: bool,
    /// The observer wants memory events, which a skipped memory access cannot replay.
    obs_mem: bool,
    sample_interval: Option<Cycle>,
    /// Next metrics bucket boundary; the first step at or after it takes a sample.
    next_sample: Cycle,
    watchdog_window: Cycle,
    last_progress: Cycle,
    core_time: Vec<Cycle>,
    core_stats: Vec<CoreStats>,
    /// Cycle of each core's next step (its wake, if parked); `Cycle::MAX` once finished or
    /// parked with nothing to wake it. One more slot, `reach_slot`, holds the entry at a lower
    /// bound of the first reach of the fabric's next internal events, `Cycle::MAX` if none is
    /// filed. Queue entries that disagree with it are stale.
    key: Vec<Cycle>,
    /// Min-heap of `(key, slot)`: equal cycles step in core-index order.
    queue: BinaryHeap<Reverse<StepAt>>,
    /// The queue slot of the first-reach entry, after every core's.
    reach_slot: usize,
    /// The last real step.
    last_step: StepAt,
    parked: Vec<Option<Parked>>,
    /// Cores currently parked, those of them whose poll emits a task event, those whose poll
    /// repeats a memory access, and those whose poll issues more than a fetch.
    parked_cores: CoreSet,
    event_cores: CoreSet,
    touch_cores: CoreSet,
    request_cores: CoreSet,
    /// The parked cores in the order their polls reach a cycle.
    reach_index: ReachIndex,
    /// Scratch lists of the cores [`SchedulerFabric::drain_poll_changes`] and
    /// [`RuntimeSystem::drain_epoch_changes`] hand over.
    poll_changes: Vec<usize>,
    epoch_changes: Vec<usize>,
    /// Parked cores whose poll returns `Progressed`. While one is parked its skipped polls keep
    /// resetting the watchdog, so no step can trip it.
    progress_parked: usize,
    fabric_epoch: u64,
    /// [`RuntimeSystem::observed_version`] after the last step that found parked cores.
    runtime_version: u64,
    /// The fabric's next internal events, and whether a fabric change since they were fetched
    /// may have moved them.
    events: InternalEvents,
    events_stale: bool,
    /// The longest lead of any poll parked so far, and its value when the first-reach entry was
    /// filed: the entry sits that far before the next operation-reached event.
    reach_lead: u64,
    filed_lead: u64,
    /// The parked core whose poll reaches `events` first, as `(its poll's start, core)`, once
    /// the first-reach entry came due; `None` before, and after it unparks, which sets
    /// `reach_lost` until the entry is filed again.
    first_reach: Option<StepAt>,
    reach_lost: bool,
    /// The sample handed to the observer, its per-core lists reused.
    sample_buf: MetricsSample,
    stats: EngineStats,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a MachineConfig,
        runtime: &'a mut dyn RuntimeSystem,
        fabric: &'a mut dyn SchedulerFabric,
        mut obs: Option<&'a mut dyn Observer>,
        allow_parking: bool,
    ) -> Self {
        cfg.validate();
        let cores = cfg.cores;
        let mut mem =
            MemorySystem::with_model_and_faults(cores, cfg.l1, cfg.mem_latencies, cfg.memory_model, cfg.fault);
        // Arm the buffered observability paths only when a run carries an observer; unobserved
        // runs keep every flag false and every emission a dead branch.
        let (sample_interval, obs_mem) = match obs.as_deref_mut() {
            Some(o) => {
                fabric.set_observing(true);
                mem.set_observing(o.wants_mem_events());
                (o.sample_interval(), o.wants_mem_events())
            }
            None => (None, false),
        };
        let fabric_epoch = fabric.park_epoch();
        let mut key = vec![0; cores];
        key.push(Cycle::MAX);
        Engine {
            cfg,
            mem,
            dram: BandwidthModel::new(cfg.dram_bytes_per_cycle),
            parking: allow_parking && fabric_epoch.is_some(),
            obs_mem,
            sample_interval,
            next_sample: sample_interval.unwrap_or(Cycle::MAX),
            // Under fault injection the caller may tighten the deadlock watchdog so a dead link
            // is diagnosed in test-sized budgets rather than after the default 50M-cycle window.
            watchdog_window: if cfg.fault.watchdog_cycles > 0 {
                cfg.fault.watchdog_cycles
            } else {
                NO_PROGRESS_WINDOW
            },
            last_progress: 0,
            core_time: vec![0; cores],
            core_stats: vec![CoreStats::default(); cores],
            key,
            queue: (0..cores).map(|c| Reverse((0, c))).collect(),
            reach_slot: cores,
            last_step: (0, 0),
            parked: (0..cores).map(|_| None).collect(),
            parked_cores: CoreSet::new(cores),
            event_cores: CoreSet::new(cores),
            touch_cores: CoreSet::new(cores),
            request_cores: CoreSet::new(cores),
            reach_index: ReachIndex::default(),
            poll_changes: Vec::new(),
            epoch_changes: Vec::new(),
            progress_parked: 0,
            fabric_epoch: fabric_epoch.unwrap_or(0),
            runtime_version: runtime.observed_version(),
            events: InternalEvents::NONE,
            events_stale: true,
            reach_lead: 0,
            filed_lead: 0,
            first_reach: None,
            reach_lost: false,
            sample_buf: MetricsSample::default(),
            stats: EngineStats::default(),
            runtime,
            fabric,
            obs,
        }
    }

    fn run(mut self) -> (Result<ExecutionReport, EngineError>, EngineStats) {
        let result = self.run_loop();
        (result, self.stats)
    }

    fn runtime_name(&self) -> String {
        self.runtime.name().to_string()
    }

    fn run_loop(&mut self) -> Result<ExecutionReport, EngineError> {
        // Debug builds audit the memory system's global invariants (SWMR, directory precision)
        // every few thousand steps, catching a corrupted sharer set mid-run instead of at the
        // end of a property test. Stride-based so the check stays off the per-step hot path;
        // compiled out entirely in release builds.
        #[cfg(debug_assertions)]
        let mut steps_since_audit: u32 = 0;

        loop {
            if self.runtime.is_finished() {
                break;
            }
            #[cfg(debug_assertions)]
            {
                steps_since_audit += 1;
                if steps_since_audit >= 8192 {
                    steps_since_audit = 0;
                    if let Err(e) = self.mem.check_coherence_invariants() {
                        panic!("coherence invariant violated mid-run (runtime '{}'): {e}", self.runtime.name());
                    }
                }
            }
            // The next real step: the live core furthest behind in time, or a parked core at
            // its wake. Skipped polls before it are replayed first.
            let next = self.peek();
            if next.is_some_and(|(_, slot)| slot == self.reach_slot) {
                self.choose_first_reach();
                continue;
            }
            if next.is_none() && self.parked_cores.cores.is_empty() {
                return Err(EngineError::AllAgentsFinishedEarly { runtime: self.runtime_name() });
            }
            let step = next.unwrap_or((Cycle::MAX, usize::MAX));
            let deadline = if self.progress_parked > 0 {
                Cycle::MAX
            } else {
                self.last_progress.saturating_add(self.watchdog_window)
            };
            // With every live core parked and nothing to wake them, the run ends at a limit.
            let limit = self.cfg.max_cycles.min(deadline).min(Cycle::MAX - 1);
            if step.0 > limit {
                return Err(self.fail_after(limit, step));
            }
            let (now, core) = step;
            if !self.parked_cores.cores.is_empty() {
                self.replay_until(step);
                if self.parked[core].is_some() {
                    self.unpark(core, now);
                }
            }
            self.last_step = step;
            self.step(now, core)?;
        }
        self.settle_all(self.last_step);

        // The program's makespan is the time of the latest agent that actually did something;
        // idle workers parked far in the future (waiting for work that never came) do not
        // extend it.
        let total_cycles = self
            .core_time
            .iter()
            .zip(self.core_stats.iter())
            .filter(|(_, s)| s.total_cycles() > 0)
            .map(|(&t, _)| t)
            .max()
            .unwrap_or_else(|| self.core_time.iter().copied().max().unwrap_or(0));

        if self.obs.is_some() {
            // One closing sample at the makespan so the timeline always ends on the final state.
            if self.sample_interval.is_some() {
                self.sample_through(total_cycles, self.last_step, None);
            }
            self.fabric.set_observing(false);
            self.mem.set_observing(false);
        }

        Ok(ExecutionReport {
            runtime: self.runtime_name(),
            fabric: self.fabric.name().to_string(),
            cores: self.cfg.cores,
            total_cycles,
            core_stats: std::mem::take(&mut self.core_stats),
            records: self.runtime.exec_records(),
            fabric_stats: self.fabric.stats(),
            memory_stats: self.mem.stats(),
            tasks_retired: self.runtime.tasks_retired(),
            peak_resident_tasks: self.runtime.peak_resident_tasks(),
            tenants: self.runtime.tenant_reports(),
        })
    }

    /// Runs one agent step of `core` at `now` and files the core back into the run queue,
    /// parks it, or retires it.
    fn step(&mut self, now: Cycle, core: usize) -> Result<(), EngineError> {
        let before = self.parking.then(|| self.core_stats[core].clone());
        let status;
        let end_time;
        let l1_missed;
        {
            self.fabric.set_time_horizon(now);
            let mut ctx =
                CoreCtx::new(core, now, &mut self.mem, &mut self.dram, &self.cfg.costs, &mut self.core_stats[core]);
            if let Some(o) = self.obs.as_deref_mut() {
                ctx = ctx.with_observer(o);
            }
            status = self.runtime.step_core(&mut ctx, &mut *self.fabric);
            l1_missed = ctx.l1_missed();
            end_time = ctx.finish();
        }
        match status {
            CoreStatus::Progressed => self.stats.progressed_steps += 1,
            CoreStatus::Waiting { .. } => self.stats.waiting_steps += 1,
            CoreStatus::Finished => self.stats.finished_steps += 1,
        }
        if let Some(o) = self.obs.as_deref_mut() {
            // Device-side dependence resolutions surface through the fabric's ready log: the
            // scheduler, not a core, crossed these tasks into Ready.
            self.fabric.drain_ready_log(&mut |cycle, sw_id| {
                o.on_task(&TaskEvent { cycle, task: sw_id, core: None, stage: TaskStage::Ready, arg: 0 });
            });
            self.mem.drain_noc_legs(&mut |leg| {
                o.on_mem(&MemEvent::NocLeg {
                    cycle: leg.at,
                    from: leg.from,
                    to: leg.to,
                    flits: leg.flits,
                    wait_cycles: leg.wait_cycles,
                });
            });
        }
        if self.obs.is_some() && now >= self.next_sample {
            // The sample sees every skipped poll ordered before this step as done.
            self.sample_through(now, (now, core), None);
        }
        match status {
            CoreStatus::Progressed => {
                // Guarantee forward motion even if the agent forgot to spend cycles.
                self.core_time[core] = end_time.max(now + 1);
                self.last_progress = self.last_progress.max(self.core_time[core]);
            }
            CoreStatus::Waiting { until } => {
                let resume = until.max(end_time).max(now + 1);
                self.core_stats[core].idle_cycles += resume - end_time;
                self.core_time[core] = resume;
            }
            CoreStatus::Finished => {
                self.core_time[core] = end_time.max(now);
                self.last_progress = self.last_progress.max(self.core_time[core]);
            }
        }
        // A dead-link diagnosis recorded during this step means some message can never be
        // delivered: abort with the detector's report instead of spinning until the watchdog.
        if let Some(diagnosis) = self.mem.fault_diagnosis() {
            self.settle_all((now, core));
            let retired = self.runtime.tasks_retired();
            let submitted = self.fabric.stats().tasks_submitted;
            return Err(EngineError::UnrecoverableFault {
                diagnosis,
                cycle: self.core_time[core],
                tasks_retired: retired,
                tasks_blocked: submitted.saturating_sub(retired),
                runtime: self.runtime_name(),
            });
        }
        let fabric_changed = self.parking && {
            let epoch = self.fabric.park_epoch().unwrap_or(0);
            let changed = epoch != self.fabric_epoch;
            self.fabric_epoch = epoch;
            changed
        };
        // This core's queue entry is still the top of the queue: refile it in place. If the core
        // parks, its wake supersedes the refiled entry.
        if status == CoreStatus::Finished {
            self.key[core] = Cycle::MAX;
            self.queue.pop();
        } else {
            self.key[core] = self.core_time[core];
            *self.queue.peek_mut().expect("the stepped core is queued") = Reverse((self.core_time[core], core));
            // A step that missed in the L1 did something its repeat would not. One that changed
            // the fabric with failed operations only applied internal events found due, which
            // its repeats find applied.
            if let Some(b) = before.filter(|_| !l1_missed) {
                self.try_park(core, now, end_time, status, &b);
            }
        }
        if self.parking {
            self.wake_observers((now, core), fabric_changed);
        }
        Ok(())
    }

    /// The next entry of the run queue in step order, dropping stale ones: a live core, or the
    /// first-reach entry.
    fn peek(&mut self) -> Option<StepAt> {
        while let Some(&Reverse((t, c))) = self.queue.peek() {
            if self.key[c] == t {
                return Some((t, c));
            }
            self.queue.pop();
        }
        None
    }

    /// Takes a metrics sample of every gauge at `cycle` that sees every skipped poll ordered
    /// before `bound` as done, except the wait that ends the poll of `crossing` (the sample
    /// falls inside it), and moves the next bucket boundary past it.
    ///
    /// Parked cores stay uncharged: their busy and idle cycles and their repeated hits' memory
    /// counters are read as the charged values plus the uncharged polls times one poll's
    /// charges, which is exactly what charging them would leave.
    fn sample_through(&mut self, cycle: Cycle, bound: StepAt, crossing: Option<usize>) {
        let (in_flight, ready) = self.fabric.occupancy();
        let ms = self.mem.totals();
        let sample = &mut self.sample_buf;
        sample.cycle = cycle;
        sample.tracker_in_flight = in_flight as u64;
        sample.ready_queue_len = ready as u64;
        sample.core_busy_cycles.clear();
        sample.core_busy_cycles.extend(self.core_stats.iter().map(|s| s.payload_cycles + s.runtime_cycles));
        sample.core_idle_cycles.clear();
        sample.core_idle_cycles.extend(self.core_stats.iter().map(|s| s.idle_cycles));
        sample.mem_accesses = ms.accesses;
        sample.mem_stall_cycles = ms.stall_cycles;
        sample.dram_fetches = ms.dram_fetches;
        sample.dram_writebacks = ms.dram_writebacks;
        sample.invalidations = ms.invalidations;
        sample.dirty_bounces = ms.dirty_bounces;
        sample.noc_messages = ms.noc_messages;
        sample.noc_flits = ms.noc_flits;
        sample.noc_link_wait_cycles = ms.noc_link_wait_cycles;
        sample.max_link_occupancy = ms.max_link_occupancy;
        for &p in &self.parked_cores.cores {
            let park = self.parked[p].as_ref().expect("listed cores are parked");
            let polls = park.polls_before(park.next, p, bound);
            sample.core_busy_cycles[p] += polls * park.runtime_cycles;
            sample.core_idle_cycles[p] += polls * park.idle_cycles;
            if let Some(t) = park.poll.touch {
                sample.mem_accesses += polls;
                sample.mem_stall_cycles += polls * self.mem.hit_latency(t.kind);
            }
        }
        if let Some(p) = crossing {
            sample.core_idle_cycles[p] -= self.parked[p].as_ref().expect("the crossing core is parked").idle_tail;
        }
        if let Some(o) = self.obs.as_deref_mut() {
            o.on_sample(&self.sample_buf);
        }
        let interval = self.sample_interval.unwrap_or(Cycle::MAX);
        self.next_sample = (cycle / interval + 1).saturating_mul(interval);
    }

    /// The error of the first step, skipped poll or real, that starts after `limit`; `real` is
    /// the next real step.
    fn fail_after(&mut self, limit: Cycle, real: StepAt) -> EngineError {
        let first = self
            .parked_cores
            .cores
            .iter()
            .map(|&p| (self.parked[p].as_ref().expect("listed cores are parked").poll_at_or_after(limit + 1), p))
            .fold(real, std::cmp::min);
        self.replay_until(first);
        self.settle_all(first);
        let runtime = self.runtime_name();
        if first.0 > self.cfg.max_cycles {
            EngineError::CycleLimitExceeded { limit: self.cfg.max_cycles, runtime }
        } else {
            EngineError::NoProgress { cycle: first.0, runtime }
        }
    }

    /// Emits what the skipped polls ordered before `bound` would have shown an observer: their
    /// task events, and a metrics sample after each one that crosses a bucket boundary.
    fn replay_until(&mut self, bound: StepAt) {
        if self.obs.is_none() || self.parked_cores.cores.is_empty() {
            return;
        }
        while bound.0 >= self.next_sample {
            let crossing = self
                .parked_cores
                .cores
                .iter()
                .map(|&p| {
                    let park = self.parked[p].as_ref().expect("listed cores are parked");
                    (park.poll_at_or_after(self.next_sample), p)
                })
                .min()
                .filter(|&c| c < bound);
            let Some((cycle, p)) = crossing else { break };
            let through = (cycle, p + 1);
            self.emit_events(through);
            self.sample_through(cycle, through, Some(p));
        }
        self.emit_events(bound);
    }

    /// Emits the task events of every skipped poll ordered before `bound`, in step order: the
    /// first event core's run of repeats up to the next other event core's event goes to the
    /// observer as one batch.
    fn emit_events(&mut self, bound: StepAt) {
        loop {
            let mut first: Option<StepAt> = None;
            let mut limit = bound;
            for &p in &self.event_cores.cores {
                let at = (self.parked[p].as_ref().expect("listed cores are parked").next_event, p);
                match first {
                    Some(f) if f < at => limit = limit.min(at),
                    _ => {
                        limit = first.map_or(limit, |f| limit.min(f));
                        first = Some(at);
                    }
                }
            }
            let Some((cycle, p)) = first.filter(|&f| f < bound) else { return };
            let park = self.parked[p].as_mut().expect("listed cores are parked");
            let count = park.polls_before(cycle, p, limit);
            park.next_event += count * park.period;
            let (stage, task) = park.poll.event.expect("event cores declare an event");
            let period = park.period;
            if let Some(o) = self.obs.as_deref_mut() {
                o.on_task_repeated(&TaskEvent { cycle, task, core: Some(p), stage, arg: 0 }, period, count);
            }
        }
    }

    /// Charges every parked core's skipped polls ordered before `bound`.
    fn settle_all(&mut self, bound: StepAt) {
        for i in 0..self.parked_cores.cores.len() {
            let p = self.parked_cores.cores[i];
            let mut park = self.parked[p].take().expect("listed cores are parked");
            self.settle(p, &mut park, bound);
            self.parked[p] = Some(park);
        }
    }

    /// Charges `core`'s skipped polls ordered before `bound`, in closed form.
    fn settle(&mut self, core: usize, park: &mut Parked, bound: StepAt) {
        let polls = park.polls_before(park.next, core, bound);
        if polls == 0 {
            return;
        }
        let last_start = park.next + (polls - 1) * park.period;
        let stats = &mut self.core_stats[core];
        stats.runtime_cycles += polls * park.runtime_cycles;
        stats.idle_cycles += polls * park.idle_cycles;
        stats.memory_ops += polls * park.memory_ops;
        self.fabric.charge_failed_polls(core, park.poll.ops, polls);
        if let Some(t) = park.poll.touch {
            self.mem.repeat_hits(core, t.addr, t.kind, t.bytes, polls);
        }
        self.runtime.skip_polls(core, polls, last_start);
        park.next = last_start + park.period;
        self.core_time[core] = park.next;
        if park.progressed {
            self.last_progress = self.last_progress.max(park.next);
        }
        self.stats.skipped_polls += polls;
        self.stats.settles += 1;
    }

    /// Parks `core` after its step from `now` to `end` if the runtime declared the step a
    /// repeatable poll. `before` holds the core's statistics from before the step.
    fn try_park(&mut self, core: usize, now: Cycle, end: Cycle, status: CoreStatus, before: &CoreStats) {
        let Some(poll) = self.runtime.poll_loop(core) else { return };
        if poll.repeats == 0 {
            return;
        }
        if let Some(t) = poll.touch {
            if self.obs_mem || !self.mem.hit_keeps_state(core, t.addr, t.kind, t.bytes) {
                return;
            }
        }
        let after = &self.core_stats[core];
        if (after.payload_cycles, after.tasks_executed, after.syscalls)
            != (before.payload_cycles, before.tasks_executed, before.syscalls)
        {
            return;
        }
        let next = self.core_time[core];
        let runtime_cycles = after.runtime_cycles - before.runtime_cycles;
        let mut park = Parked {
            poll,
            period: next - now,
            runtime_cycles,
            lead: self
                .fabric
                .last_operation(core)
                .and_then(|t| t.checked_sub(now))
                .filter(|&lead| lead <= runtime_cycles)
                .unwrap_or(runtime_cycles),
            idle_cycles: after.idle_cycles - before.idle_cycles,
            idle_tail: if status == CoreStatus::Progressed { 0 } else { next - end },
            memory_ops: after.memory_ops - before.memory_ops,
            progressed: status == CoreStatus::Progressed,
            next,
            next_event: next,
            epoch: self.runtime.observed_epoch(core),
            bound: Cycle::MAX,
            changed: Cycle::MAX,
            blocked: Cycle::MAX,
            reach: Cycle::MAX,
        };
        park.bound = next
            .saturating_add(poll.repeats.saturating_mul(park.period))
            .min(park.poll_at_or_after(poll.until));
        let blocked = self.fabric.poll_blocked_until(core, poll.ops);
        if blocked != Cycle::MAX {
            park.blocked = park.poll_reaching(next, blocked);
        }
        let wake = park.wake();
        if wake == next {
            return;
        }
        self.key[core] = wake;
        if wake < Cycle::MAX {
            self.queue.push(Reverse((wake, core)));
        }
        if self.parked_cores.cores.is_empty() {
            // The fabric's change reports go unread while no core is parked: catch up, so that
            // the next report starts from the state this core saw.
            self.fabric.drain_poll_changes(&mut |_| {});
        }
        self.progress_parked += usize::from(park.progressed);
        self.reach_lead = self.reach_lead.max(park.lead);
        if park.poll.event.is_some() {
            self.event_cores.insert(core);
        }
        if park.poll.touch.is_some() {
            self.touch_cores.insert(core);
        }
        if park.poll.ops.ready_task_request || park.poll.ops.submission_packets > 0 {
            self.request_cores.insert(core);
        }
        self.reach_index.insert(core, &park);
        self.parked[core] = Some(park);
        self.parked_cores.insert(core);
        self.stats.parks += 1;
    }

    /// Returns parked `core` to the run queue for its real poll at `now`, charging the polls it
    /// skipped.
    fn unpark(&mut self, core: usize, now: Cycle) {
        let mut park = self.parked[core].take().expect("unpark of a parked core");
        self.reach_index.remove(core, &park);
        for set in [&mut self.parked_cores, &mut self.event_cores, &mut self.touch_cores, &mut self.request_cores] {
            set.remove(core);
        }
        if self.first_reach.is_some_and(|(_, p)| p == core) {
            // Refiled after the step: until then its queue entry is the top of the queue.
            self.first_reach = None;
            self.reach_lost = true;
        }
        self.progress_parked -= usize::from(park.progressed);
        self.settle(core, &mut park, (now, core));
        debug_assert_eq!(park.next, now, "a parked core wakes on its own poll grid");
        self.stats.wakes += 1;
    }

    /// After the step `step`, moves each parked core's wake to its first poll that could now
    /// behave differently: after a change to something its poll reads, when the fabric's state
    /// lets its failed operations succeed, or when its poll is the first to reach the fabric's
    /// next internal events.
    ///
    /// Only the cores the step could wake are rechecked: those with a memory line, those whose
    /// epoch the runtime reports moved, and after a fabric change those whose answer from
    /// [`SchedulerFabric::poll_blocked_until`] the fabric reports could have moved.
    fn wake_observers(&mut self, step: StepAt, fabric_changed: bool) {
        self.events_stale |= fabric_changed;
        if self.parked_cores.cores.is_empty() {
            return;
        }
        self.recheck_touches(step);
        self.recheck_epochs(step);
        if fabric_changed {
            self.recheck_poll_changes(step);
        }
        self.follow_events(step);
    }

    /// After a fabric change in the step `step`, rechecks the parked cores whose answer from
    /// [`SchedulerFabric::poll_blocked_until`] the fabric reports could have moved.
    fn recheck_poll_changes(&mut self, step: StepAt) {
        let mut listed = std::mem::take(&mut self.poll_changes);
        listed.clear();
        match self.fabric.drain_poll_changes(&mut |core| listed.push(core)) {
            PollChanges::Untracked => {
                for i in 0..self.parked_cores.cores.len() {
                    self.recheck_blocked(self.parked_cores.cores[i], step);
                }
            }
            PollChanges::Tracked(acceptance) => {
                if acceptance {
                    for i in 0..self.request_cores.cores.len() {
                        self.recheck_blocked(self.request_cores.cores[i], step);
                    }
                }
                for &p in &listed {
                    if self.parked[p].is_some() && !(acceptance && self.request_cores.contains(p)) {
                        self.recheck_blocked(p, step);
                    }
                }
            }
        }
        self.poll_changes = listed;
    }

    /// Moves up the wake of each parked core, other than the one that stepped at `step` (it
    /// saw the current state), whose repeated access no longer hits without a state change.
    fn recheck_touches(&mut self, step: StepAt) {
        for i in 0..self.touch_cores.cores.len() {
            let p = self.touch_cores.cores[i];
            if p == step.1 {
                continue;
            }
            self.stats.rechecks += 1;
            let park = self.parked[p].as_ref().expect("listed cores are parked");
            let t = park.poll.touch.expect("touch cores declare a touch");
            if !self.mem.hit_keeps_state(p, t.addr, t.kind, t.bytes) {
                let wake = park.poll_after(p, step);
                self.lower_changed(p, wake);
            }
        }
    }

    /// After a step that moved the runtime's observed version, moves up the wake of each
    /// parked core whose epoch moved.
    fn recheck_epochs(&mut self, step: StepAt) {
        let version = self.runtime.observed_version();
        if version == self.runtime_version {
            return;
        }
        self.runtime_version = version;
        let mut listed = std::mem::take(&mut self.epoch_changes);
        listed.clear();
        if !self.runtime.drain_epoch_changes(&mut |core| listed.push(core)) {
            listed.clear();
            listed.extend_from_slice(&self.parked_cores.cores);
        }
        for &p in &listed {
            // The core that just parked saw the current state in its own step.
            let Some(park) = self.parked[p].as_ref().filter(|_| p != step.1) else { continue };
            self.stats.rechecks += 1;
            if self.runtime.observed_epoch(p) != park.epoch {
                let wake = park.poll_after(p, step);
                self.lower_changed(p, wake);
            }
        }
        self.epoch_changes = listed;
    }

    /// After a fabric change in the step `step`, moves parked `core`'s wake to its first poll
    /// that could reach the cycle from which its failed operations could succeed, earlier or
    /// later than before.
    fn recheck_blocked(&mut self, core: usize, step: StepAt) {
        // The core that just parked saw the current state in its own step.
        if core == step.1 {
            return;
        }
        self.stats.rechecks += 1;
        let park = self.parked[core].as_mut().expect("only parked cores are rechecked");
        let answer = self.fabric.poll_blocked_until(core, park.poll.ops);
        let blocked = if answer == Cycle::MAX { Cycle::MAX } else { park.poll_reaching(after(core, step), answer) };
        if blocked != park.blocked {
            park.blocked = blocked;
            self.file_wake(core);
        }
    }

    /// After the step `step`, keeps the first reach of the fabric's next internal events
    /// tracked: refiles its entry when the events moved, and compares a newly parked core
    /// with the first reacher once that is known.
    fn follow_events(&mut self, step: StepAt) {
        let mut refile = std::mem::take(&mut self.reach_lost);
        if std::mem::take(&mut self.events_stale) {
            let events = self.fabric.next_internal_events();
            refile |= events != self.events;
            self.events = events;
        }
        // A filed entry must also stay at or before the reach of every core parked since.
        let filed = self.key[self.reach_slot] != Cycle::MAX;
        if refile || (filed && self.reach_lead > self.filed_lead) {
            return self.file_reach();
        }
        let Some(park) = self.parked[step.1].as_ref() else { return };
        if filed {
            return;
        }
        if let Some(reach) = park.poll_reaching_events(after(step.1, step), self.events) {
            self.stats.rechecks += 1;
            if self.first_reach.is_none_or(|first| (reach, step.1) < first) {
                self.set_first_reach(Some((reach, step.1)));
            }
        }
    }

    /// Files the run-queue entry for the first reach of the fabric's next internal events at
    /// a lower bound of every parked core's reach, now and of any core that parks before it
    /// comes due, and forgets the first reacher.
    fn file_reach(&mut self) {
        self.set_first_reach(None);
        self.filed_lead = self.reach_lead;
        let by_op = match self.events.by_op {
            Cycle::MAX => Cycle::MAX,
            t => t.saturating_sub(self.reach_lead),
        };
        // The entry sits just before `bound` in the step order; at bound 0 it sits after every
        // core at cycle 0, where no parked core polls.
        let bound = by_op.min(self.events.by_start);
        let entry = if bound == Cycle::MAX { Cycle::MAX } else { bound.saturating_sub(1) };
        self.key[self.reach_slot] = entry;
        if entry < Cycle::MAX {
            self.queue.push(Reverse((entry, self.reach_slot)));
        }
    }

    /// The first-reach entry came due: wakes the parked core whose poll reaches the fabric's
    /// next internal events first. Its poll changes the fabric, which refiles the entry.
    fn choose_first_reach(&mut self) {
        self.queue.pop();
        self.key[self.reach_slot] = Cycle::MAX;
        let (first, examined) = self.reach_index.first_reach(&self.parked, self.last_step, self.events);
        self.stats.rechecks += examined;
        self.set_first_reach(first);
    }

    /// Makes `first` the first reacher of the fabric's next internal events, moving the wake
    /// of the one it replaces, if still parked, back to its other parts.
    fn set_first_reach(&mut self, first: Option<StepAt>) {
        if let Some((_, p)) = std::mem::replace(&mut self.first_reach, first) {
            if let Some(park) = self.parked[p].as_mut() {
                park.reach = Cycle::MAX;
                self.file_wake(p);
            }
        }
        if let Some((reach, p)) = first {
            self.parked[p].as_mut().expect("the first reacher is parked").reach = reach;
            self.file_wake(p);
        }
    }

    /// Moves parked `core`'s wake up to `wake` for a change it saw.
    fn lower_changed(&mut self, core: usize, wake: Cycle) {
        let park = self.parked[core].as_mut().expect("only parked cores have a wake");
        if wake < park.changed {
            park.changed = wake;
            self.file_wake(core);
        }
    }

    /// Files parked `core` in the run queue at its wake, if that moved.
    fn file_wake(&mut self, core: usize) {
        let wake = self.parked[core].as_ref().expect("only parked cores have a wake").wake();
        if wake != self.key[core] {
            self.key[core] = wake;
            if wake < Cycle::MAX {
                self.queue.push(Reverse((wake, core)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::NullFabric;
    use tis_taskmodel::TaskId;

    /// A toy runtime: each core executes `per_core` dummy "tasks" of 100 cycles each.
    struct ToyRuntime {
        per_core: u64,
        done: Vec<u64>,
        records: Vec<ExecRecord>,
    }

    impl ToyRuntime {
        fn new(cores: usize, per_core: u64) -> Self {
            ToyRuntime { per_core, done: vec![0; cores], records: Vec::new() }
        }
    }

    impl RuntimeSystem for ToyRuntime {
        fn name(&self) -> &'static str {
            "toy"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _fabric: &mut dyn SchedulerFabric) -> CoreStatus {
            let core = ctx.core();
            if self.done[core] >= self.per_core {
                return CoreStatus::Finished;
            }
            let start = ctx.now();
            ctx.spend(100);
            let id = (core as u64) * self.per_core + self.done[core];
            self.records.push(ExecRecord { task: TaskId(id), core, start, end: ctx.now() });
            self.done[core] += 1;
            CoreStatus::Progressed
        }
        fn is_finished(&self) -> bool {
            self.done.iter().all(|&d| d >= self.per_core)
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            self.records.clone()
        }
        fn tasks_retired(&self) -> u64 {
            self.done.iter().sum()
        }
    }

    /// A runtime that never progresses: every core waits forever.
    struct StuckRuntime;
    impl RuntimeSystem for StuckRuntime {
        fn name(&self) -> &'static str {
            "stuck"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
            CoreStatus::Waiting { until: ctx.now() + 1_000 }
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            Vec::new()
        }
        fn tasks_retired(&self) -> u64 {
            0
        }
    }

    #[test]
    fn toy_runtime_runs_to_completion() {
        let cfg = MachineConfig::small_test();
        let mut rt = ToyRuntime::new(cfg.cores, 5);
        let mut fabric = NullFabric::new();
        let report = run_machine(&cfg, &mut rt, &mut fabric).unwrap();
        assert_eq!(report.tasks_retired, 10);
        assert_eq!(report.records.len(), 10);
        assert_eq!(report.total_cycles, 500, "each core runs 5 x 100 cycles in parallel");
        assert_eq!(report.cores, 2);
        assert_eq!(report.runtime, "toy");
        assert!(report.core_stats.iter().all(|s| s.runtime_cycles == 500));
    }

    #[test]
    fn toy_runtime_runs_under_the_directory_model_too() {
        let cfg =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        let mut rt = ToyRuntime::new(cfg.cores, 5);
        let mut fabric = NullFabric::new();
        let report = run_machine(&cfg, &mut rt, &mut fabric).unwrap();
        assert_eq!(report.tasks_retired, 10);
        assert_eq!(report.total_cycles, 500, "a memory-silent runtime is model-independent");
        assert_eq!(report.memory_stats.bus_transactions, 0);
    }

    #[test]
    fn stuck_runtime_is_detected() {
        let mut cfg = MachineConfig::small_test();
        cfg.max_cycles = 1_000_000;
        let mut rt = StuckRuntime;
        let mut fabric = NullFabric::new();
        let err = run_machine(&cfg, &mut rt, &mut fabric).unwrap_err();
        match err {
            EngineError::CycleLimitExceeded { limit, .. } => assert_eq!(limit, 1_000_000),
            EngineError::NoProgress { .. } => {}
            other => panic!("expected a progress error, got {other:?}"),
        }
    }

    #[test]
    fn all_agents_finished_early_is_an_error() {
        struct QuitRuntime;
        impl RuntimeSystem for QuitRuntime {
            fn name(&self) -> &'static str {
                "quit"
            }
            fn step_core(&mut self, _ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
                CoreStatus::Finished
            }
            fn is_finished(&self) -> bool {
                false
            }
            fn exec_records(&self) -> Vec<ExecRecord> {
                Vec::new()
            }
            fn tasks_retired(&self) -> u64 {
                0
            }
        }
        let cfg = MachineConfig::small_test();
        let err = run_machine(&cfg, &mut QuitRuntime, &mut NullFabric::new()).unwrap_err();
        assert!(matches!(err, EngineError::AllAgentsFinishedEarly { .. }));
        assert!(err.to_string().contains("quit"));
    }

    #[test]
    fn engine_error_display() {
        let e = EngineError::NoProgress { cycle: 123, runtime: "x".into() };
        assert!(e.to_string().contains("deadlock"));
        let e = EngineError::CycleLimitExceeded { limit: 7, runtime: "x".into() };
        assert!(e.to_string().contains('7'));
    }

    /// A runtime whose cores read each other's cache lines, so directory traffic crosses the
    /// mesh and the fault layer (when configured) sees real NoC messages.
    struct SharingRuntime {
        rounds: u64,
        done: Vec<u64>,
    }

    impl SharingRuntime {
        fn new(cores: usize, rounds: u64) -> Self {
            SharingRuntime { rounds, done: vec![0; cores] }
        }
    }

    impl RuntimeSystem for SharingRuntime {
        fn name(&self) -> &'static str {
            "sharing"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, _f: &mut dyn SchedulerFabric) -> CoreStatus {
            let core = ctx.core();
            if self.done[core] >= self.rounds {
                return CoreStatus::Finished;
            }
            // Read a line homed on (and written by) the *other* core.
            let peer = (core + 1) % self.done.len();
            ctx.write(64 * core as u64, 8);
            ctx.read(64 * peer as u64, 8);
            self.done[core] += 1;
            CoreStatus::Progressed
        }
        fn is_finished(&self) -> bool {
            self.done.iter().all(|&d| d >= self.rounds)
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            Vec::new()
        }
        fn tasks_retired(&self) -> u64 {
            self.done.iter().sum()
        }
    }

    #[test]
    fn zero_rate_faults_leave_the_engine_bit_identical() {
        let base =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        let mut faulted = base;
        faulted.fault = tis_mem::FaultConfig::zero_rate();
        let a = run_machine(&base, &mut SharingRuntime::new(base.cores, 50), &mut NullFabric::new())
            .unwrap();
        let b = run_machine(&faulted, &mut SharingRuntime::new(base.cores, 50), &mut NullFabric::new())
            .unwrap();
        assert!(a.memory_stats.noc_messages > 0, "the runtime must exercise the mesh");
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.memory_stats, b.memory_stats);
        assert_eq!(a.core_stats, b.core_stats);
    }

    #[test]
    fn dead_links_surface_as_a_diagnosed_unrecoverable_fault() {
        let mut cfg =
            MachineConfig::small_test().with_memory_model(tis_mem::MemoryModel::directory_mesh());
        cfg.fault = tis_mem::FaultConfig { dead_links: u32::MAX, ..tis_mem::FaultConfig::none() };
        let err = run_machine(&cfg, &mut SharingRuntime::new(cfg.cores, 50), &mut NullFabric::new())
            .unwrap_err();
        match err {
            EngineError::UnrecoverableFault { diagnosis, runtime, .. } => {
                assert_eq!(runtime, "sharing");
                assert_ne!(diagnosis.from, diagnosis.to, "the faulted leg crosses tiles");
                assert_eq!(diagnosis.attempts, cfg.fault.max_retries + 1);
            }
            other => panic!("expected an unrecoverable-fault diagnosis, got {other:?}"),
        }
    }

    #[test]
    fn fault_watchdog_tightens_the_no_progress_window() {
        let mut cfg = MachineConfig::small_test();
        cfg.fault = tis_mem::FaultConfig { watchdog_cycles: 10_000, ..tis_mem::FaultConfig::none() };
        let err = run_machine(&cfg, &mut StuckRuntime, &mut NullFabric::new()).unwrap_err();
        match err {
            EngineError::NoProgress { cycle, .. } => {
                assert!(cycle < 100_000, "the tightened watchdog fires early, at cycle {cycle}")
            }
            other => panic!("expected the watchdog, got {other:?}"),
        }
    }

    /// A fabric with no work that supports idle fast-forward: every fetch fails, nothing ever
    /// changes, and skipped polls are charged to its counters.
    #[derive(Default)]
    struct IdleFabric {
        stats: crate::fabric::FabricStats,
    }

    impl SchedulerFabric for IdleFabric {
        fn name(&self) -> &'static str {
            "idle"
        }
        fn submission_request(&mut self, _: usize, _: u32, _: Cycle) -> (Cycle, crate::fabric::FabricOutcome<()>) {
            unreachable!("pollers never submit")
        }
        fn submit_packets(&mut self, _: usize, _: &[u32], _: Cycle) -> (Cycle, crate::fabric::FabricOutcome<()>) {
            unreachable!("pollers never submit")
        }
        fn ready_task_request(&mut self, _: usize, _: Cycle) -> (Cycle, crate::fabric::FabricOutcome<()>) {
            unreachable!("pollers never request")
        }
        fn fetch_sw_id(&mut self, _: usize, _: Cycle) -> (Cycle, crate::fabric::FabricOutcome<u64>) {
            self.stats.operations += 1;
            self.stats.fetch_failures += 1;
            (2, crate::fabric::FabricOutcome::Failure)
        }
        fn fetch_picos_id(&mut self, _: usize, _: Cycle) -> (Cycle, crate::fabric::FabricOutcome<u32>) {
            unreachable!("fetches never succeed")
        }
        fn retire_task(&mut self, _: usize, _: u32, _: Cycle) -> Cycle {
            unreachable!("nothing runs")
        }
        fn stats(&self) -> crate::fabric::FabricStats {
            self.stats.clone()
        }
        fn park_epoch(&self) -> Option<u64> {
            Some(0)
        }
        fn next_internal_events(&self) -> InternalEvents {
            InternalEvents::NONE
        }
        fn poll_blocked_until(&self, _: usize, _: FailedOps) -> Cycle {
            Cycle::MAX
        }
        fn charge_failed_polls(&mut self, _: usize, ops: FailedOps, polls: u64) {
            self.stats.operations += polls * ops.count();
            self.stats.fetch_failures += polls;
        }
    }

    /// Cores that poll an empty fabric forever. Core 0 spins (`Progressed`, which keeps the
    /// watchdog quiet) when `spinner` is set; every other core backs off (`Waiting`) for
    /// `40 + stride * core` cycles. With `events`, every poll of core `c` first emits a
    /// `Submitted` event for task `c`.
    struct Pollers {
        spinner: bool,
        stride: Cycle,
        events: bool,
    }

    impl Pollers {
        fn new(spinner: bool) -> Self {
            Pollers { spinner, stride: 1, events: false }
        }
    }

    impl RuntimeSystem for Pollers {
        fn name(&self) -> &'static str {
            "pollers"
        }
        fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
            let core = ctx.core();
            if self.events {
                ctx.observe_task(TaskStage::Submitted, core as u64);
            }
            let (lat, _) = fabric.fetch_sw_id(core, ctx.now());
            ctx.spend(lat);
            if self.spinner && core == 0 {
                ctx.spin_backoff();
                CoreStatus::Progressed
            } else {
                CoreStatus::Waiting { until: ctx.now() + 40 + self.stride * core as Cycle }
            }
        }
        fn is_finished(&self) -> bool {
            false
        }
        fn exec_records(&self) -> Vec<ExecRecord> {
            Vec::new()
        }
        fn tasks_retired(&self) -> u64 {
            0
        }
        fn poll_loop(&self, core: usize) -> Option<PollLoop> {
            let ops = FailedOps { fetch_sw_id: true, ..FailedOps::default() };
            let event = self.events.then_some((TaskStage::Submitted, core as u64));
            Some(PollLoop { ops, touch: None, event, repeats: u64::MAX, until: Cycle::MAX })
        }
    }

    /// Runs `Pollers` on `cfg` through the fast path and the reference; both must fail alike.
    fn pollers_fail_alike(cfg: &MachineConfig, spinner: bool) -> EngineError {
        let mut fast = Pollers::new(spinner);
        let (fast_result, fast_stats) = run_machine_counted(cfg, &mut fast, &mut IdleFabric::default(), None);
        let mut reference = Pollers::new(spinner);
        let (ref_result, ref_stats) = run_machine_reference(cfg, &mut reference, &mut IdleFabric::default(), None);
        assert_eq!(fast_result, ref_result);
        assert!(fast_stats.skipped_polls > ref_stats.steps() / 2, "the fast path parks the pollers");
        assert_eq!(fast_stats.steps() + fast_stats.skipped_polls, ref_stats.steps());
        fast_result.unwrap_err()
    }

    #[test]
    fn equal_time_cores_step_in_index_order() {
        let cfg = MachineConfig::rocket_with_cores(4);
        let mut rt = ToyRuntime::new(cfg.cores, 3);
        let mut order = Vec::new();
        struct Logged<'a>(&'a mut ToyRuntime, &'a mut Vec<(Cycle, usize)>);
        impl RuntimeSystem for Logged<'_> {
            fn name(&self) -> &'static str {
                "logged"
            }
            fn step_core(&mut self, ctx: &mut CoreCtx<'_>, f: &mut dyn SchedulerFabric) -> CoreStatus {
                self.1.push((ctx.now(), ctx.core()));
                self.0.step_core(ctx, f)
            }
            fn is_finished(&self) -> bool {
                self.0.is_finished()
            }
            fn exec_records(&self) -> Vec<ExecRecord> {
                self.0.exec_records()
            }
            fn tasks_retired(&self) -> u64 {
                self.0.tasks_retired()
            }
        }
        run_machine(&cfg, &mut Logged(&mut rt, &mut order), &mut NullFabric::new()).unwrap();
        let mut expected = order.clone();
        expected.sort_unstable();
        assert_eq!(order, expected, "steps run in (cycle, core) order");
        assert_eq!(&order[..4], &[(0, 0), (0, 1), (0, 2), (0, 3)], "ties go to the lowest core");
    }

    #[test]
    fn an_all_parked_deadlock_fails_at_the_reference_cycle() {
        let mut cfg = MachineConfig::rocket_with_cores(3);
        cfg.fault = tis_mem::FaultConfig { watchdog_cycles: 10_000, ..tis_mem::FaultConfig::none() };
        match pollers_fail_alike(&cfg, false) {
            EngineError::NoProgress { cycle, .. } => assert!(cycle > 10_000 && cycle < 10_050, "cycle {cycle}"),
            other => panic!("expected the watchdog, got {other:?}"),
        }
    }

    #[test]
    fn a_parked_core_crossing_the_cycle_cap_fails_like_the_reference() {
        let mut cfg = MachineConfig::rocket_with_cores(3);
        cfg.max_cycles = 100_000;
        let err = pollers_fail_alike(&cfg, true);
        assert!(matches!(err, EngineError::CycleLimitExceeded { limit: 100_000, .. }), "{err:?}");
    }

    #[derive(Debug, PartialEq)]
    enum Seen {
        Task(TaskEvent),
        Sample(MetricsSample),
    }

    /// Every task event and metrics sample, in the order the engine made them. Repeated
    /// events arrive through the default `on_task_repeated`, one `on_task` each.
    #[derive(Default)]
    struct EventLog(Vec<Seen>);

    impl Observer for EventLog {
        fn on_task(&mut self, event: &TaskEvent) {
            self.0.push(Seen::Task(*event));
        }
        fn on_sample(&mut self, sample: &MetricsSample) {
            self.0.push(Seen::Sample(sample.clone()));
        }
        fn sample_interval(&self) -> Option<Cycle> {
            Some(97)
        }
    }

    #[test]
    fn batched_replay_of_several_event_cores_matches_the_reference() {
        let mut cfg = MachineConfig::rocket_with_cores(5);
        cfg.max_cycles = 20_000;
        let run = |fast: bool| {
            let mut pollers = Pollers { spinner: true, stride: 37, events: true };
            let mut log = EventLog::default();
            let run = if fast { run_machine_counted } else { run_machine_reference };
            let (result, stats) = run(&cfg, &mut pollers, &mut IdleFabric::default(), Some(&mut log));
            (result, stats, log.0)
        };
        let (fast, fast_stats, fast_events) = run(true);
        let (reference, ref_stats, ref_events) = run(false);
        assert_eq!(fast, reference);
        assert!(fast_stats.skipped_polls > ref_stats.steps() / 2, "the fast path parks the pollers");
        assert_eq!(fast_events.len(), ref_events.len());
        if let Some(i) = (0..fast_events.len()).find(|&i| fast_events[i] != ref_events[i]) {
            panic!("event {i} differs: fast {:?}, reference {:?}", fast_events[i], ref_events[i]);
        }
        let emits = |c: usize| ref_events.iter().any(|e| matches!(e, Seen::Task(t) if t.core == Some(c)));
        assert!((0..cfg.cores).all(emits), "every core emits events");
    }

    #[test]
    fn unrecoverable_fault_display_names_the_resource_and_blocked_work() {
        let e = EngineError::UnrecoverableFault {
            diagnosis: tis_mem::FaultDiagnosis { link: 9, from: 1, to: 2, cycle: 40, attempts: 4 },
            cycle: 500,
            tasks_retired: 3,
            tasks_blocked: 2,
            runtime: "x".into(),
        };
        let msg = e.to_string();
        for needle in ["dead link 9", "core 1", "core 2", "4 attempts", "3 tasks retired", "2 blocked"] {
            assert!(msg.contains(needle), "missing {needle:?} in {msg:?}");
        }
    }
}
