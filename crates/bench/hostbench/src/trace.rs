//! Timing wrappers on the simulator's layer boundaries.
//!
//! The engine already meets every layer at a trait object: `dyn RuntimeSystem`,
//! `dyn SchedulerFabric`, `Box<dyn TaskSource>` and `dyn Observer`. Each wrapper here forwards
//! every call unchanged, counts it exactly, and times a pseudo-random sample of one call in
//! [`SAMPLE_EVERY`], or every call of a layer whose calls prove long. Reading the clock on
//! every short call would make the traced run several times slower than the untraced one and
//! the layer shares meaningless. The measured cost of counting and of the clock reads is
//! subtracted from every timed call that encloses them.
//!
//! Calls made while a runtime step is on the stack are kept apart from calls the engine makes
//! directly, so a layer's self time can be split from its parent: the runtime's self time is
//! `step_core` minus the fabric, source and observer calls inside it, and the engine's is
//! `run_machine` minus `step_core` and the calls it makes itself.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use tis_machine::fabric::FabricOutcome;
use tis_machine::{CoreCtx, CoreStatus, FabricStats, RuntimeSystem, SchedulerFabric};
use tis_obs::{MemEvent, MetricsSample, Observer, TaskEvent};
use tis_sim::Cycle;
use tis_taskmodel::{ExecRecord, SourcePoll, TaskSource, TaskSpec, TenantReport};

/// Inverse sampling rate: one call in this many is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// The wrapped layers, as indices into [`Counts::spans`].
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `RuntimeSystem::step_core`.
    Step = 0,
    /// Every `SchedulerFabric` operation.
    Fabric = 1,
    /// Every `TaskSource` call.
    Source = 2,
    /// Every `Observer` callback.
    Obs = 3,
}

/// Calls into one layer from one context, with the sampled host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Every call, timed or not.
    pub calls: u64,
    /// Calls whose duration was read.
    pub sampled: u64,
    /// Summed duration of the sampled calls, clock overhead removed.
    pub ns: u64,
}

impl Span {
    /// Estimated host seconds over all calls: the sampled mean times the call count.
    pub fn estimate_s(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.ns as f64 * self.calls as f64 / self.sampled as f64 * 1e-9
    }
}

/// Exact call and outcome counts plus sampled times, per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// `spans[layer][inside_step]`: `inside_step` is 1 for calls made while `step_core` runs.
    pub spans: [[Span; 2]; 4],
    /// Steps that returned `CoreStatus::Waiting`.
    pub waiting_steps: u64,
    /// Table-I operations (every fabric call except the engine's time-horizon hint and log drain).
    pub fabric_ops: u64,
    /// `fetch_sw_id` calls and how many succeeded.
    pub fetch_attempts: u64,
    /// Successful `fetch_sw_id` calls.
    pub fetch_successes: u64,
    /// `submission_request` calls and how many the fabric refused.
    pub submit_requests: u64,
    /// Refused `submission_request` calls.
    pub submit_rejects: u64,
    /// `TaskSource::poll` calls.
    pub polls: u64,
    /// Polls answered `SourcePoll::Blocked`.
    pub blocked_polls: u64,
    /// Observer callbacks (task, memory and sample events).
    pub obs_events: u64,
    /// Estimated host time the tracing itself cost: counting every call plus the clock reads.
    pub overhead_ns: u64,
}

impl Counts {
    /// Engine steps: every `step_core` call.
    pub fn steps(&self) -> u64 {
        self.spans[Layer::Step as usize][0].calls
    }

    /// Estimated host seconds in `layer`, split into (inside a step, outside).
    pub fn layer_s(&self, layer: Layer) -> (f64, f64) {
        let [outside, inside] = &self.spans[layer as usize];
        (inside.estimate_s(), outside.estimate_s())
    }
}

/// Shared state of one traced platform: the sampler, the step context flag and the counts.
#[derive(Debug)]
pub struct Tracer {
    /// Cost of one clock read as seen inside a timed interval, subtracted from every sample.
    clock_ns: u64,
    /// Cost of counting one call without timing it.
    call_ns: u64,
    /// Xorshift state choosing which calls are timed.
    sampler: Cell<u64>,
    in_step: Cell<bool>,
    /// Tracing overhead spent so far; a timed call subtracts the part that fell inside it.
    overhead_ns: Cell<u64>,
    counts: RefCell<Counts>,
}

/// A call layer whose sampled calls average longer than this is timed on every call: the
/// clock then costs little next to the call, and long calls are the ones whose durations
/// vary enough for sampling to miss.
const LONG_CALL_NS: u64 = 256;

impl Tracer {
    /// A tracer with no calls recorded, its overheads measured on this host.
    pub fn new() -> Rc<Self> {
        const CALLS: u64 = 100_000;
        let mut tracer = Tracer {
            clock_ns: clock_read_ns(),
            call_ns: 0,
            sampler: Cell::new(0),
            in_step: Cell::new(false),
            overhead_ns: Cell::new(0),
            counts: RefCell::new(Counts::default()),
        };
        tracer.reset();
        let t0 = Instant::now();
        for _ in 0..CALLS {
            tracer.call(Layer::Obs, || std::hint::black_box(0));
        }
        let total_ns = t0.elapsed().as_nanos() as u64;
        let sampled = tracer.counts.borrow().spans[Layer::Obs as usize][0].sampled;
        tracer.call_ns = total_ns.saturating_sub(sampled * 2 * tracer.clock_ns) / CALLS;
        tracer.reset();
        Rc::new(tracer)
    }

    fn reset(&mut self) {
        self.sampler.set(0x9E37_79B9_7F4A_7C15);
        self.overhead_ns.set(0);
        self.counts.replace(Counts::default());
    }

    /// A copy of everything recorded so far.
    pub fn counts(&self) -> Counts {
        Counts {
            overhead_ns: self.overhead_ns.get(),
            ..*self.counts.borrow()
        }
    }

    /// The measured overheads subtracted from timed calls: (clock read, counting), in ns.
    pub fn overheads_ns(&self) -> (u64, u64) {
        (self.clock_ns, self.call_ns)
    }

    fn count(&self, f: impl FnOnce(&mut Counts)) {
        f(&mut self.counts.borrow_mut());
    }

    /// Runs `f` as one call into `layer`: always counted, timed one time in [`SAMPLE_EVERY`]
    /// (every time once the layer's calls prove long).
    fn call<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let slot = self.in_step.get() as usize;
        let mut x = self.sampler.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.sampler.set(x);
        let timed = {
            let mut counts = self.counts.borrow_mut();
            let span = &mut counts.spans[layer as usize][slot];
            span.calls += 1;
            x.is_multiple_of(SAMPLE_EVERY) || span.ns > LONG_CALL_NS * span.sampled
        };
        if !timed {
            self.overhead_ns.set(self.overhead_ns.get() + self.call_ns);
            return f();
        }
        let overhead_before = self.overhead_ns.get();
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_nanos() as u64;
        let nested = self.overhead_ns.get() - overhead_before;
        // Counting plus two clock reads land inside whichever timed call encloses this one.
        self.overhead_ns
            .set(self.overhead_ns.get() + self.call_ns + 2 * self.clock_ns);
        let mut counts = self.counts.borrow_mut();
        let span = &mut counts.spans[layer as usize][slot];
        span.sampled += 1;
        span.ns += dt.saturating_sub(self.clock_ns + nested);
        r
    }
}

/// Median cost of reading the clock, as a timed interval around nothing measures it.
fn clock_read_ns() -> u64 {
    let mut samples: Vec<u64> = (0..1001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A runtime whose steps are counted, classified and sampled.
pub struct TracedRuntime<'a> {
    /// The runtime being measured.
    pub inner: &'a mut dyn RuntimeSystem,
    /// Where the measurements go.
    pub tracer: &'a Tracer,
}

impl RuntimeSystem for TracedRuntime<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        let tracer = self.tracer;
        let inner = &mut *self.inner;
        let status = tracer.call(Layer::Step, || {
            tracer.in_step.set(true);
            let status = inner.step_core(ctx, fabric);
            tracer.in_step.set(false);
            status
        });
        if matches!(status, CoreStatus::Waiting { .. }) {
            tracer.count(|c| c.waiting_steps += 1);
        }
        status
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    fn exec_records(&self) -> Vec<ExecRecord> {
        self.inner.exec_records()
    }

    fn tasks_retired(&self) -> u64 {
        self.inner.tasks_retired()
    }

    fn peak_resident_tasks(&self) -> u64 {
        self.inner.peak_resident_tasks()
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }
}

/// A scheduler fabric whose operations are counted by outcome and sampled.
pub struct TracedFabric<'a> {
    /// The fabric being measured.
    pub inner: &'a mut dyn SchedulerFabric,
    /// Where the measurements go.
    pub tracer: &'a Tracer,
}

impl TracedFabric<'_> {
    fn op<T>(&mut self, f: impl FnOnce(&mut dyn SchedulerFabric) -> T) -> T {
        let inner = &mut *self.inner;
        let r = self.tracer.call(Layer::Fabric, || f(inner));
        self.tracer.count(|c| c.fabric_ops += 1);
        r
    }
}

impl SchedulerFabric for TracedFabric<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_time_horizon(&mut self, safe_now: Cycle) {
        let inner = &mut *self.inner;
        self.tracer
            .call(Layer::Fabric, || inner.set_time_horizon(safe_now));
    }

    fn submission_request(
        &mut self,
        core: usize,
        packet_count: u32,
        now: Cycle,
    ) -> (Cycle, FabricOutcome<()>) {
        let r = self.op(|f| f.submission_request(core, packet_count, now));
        self.tracer.count(|c| {
            c.submit_requests += 1;
            c.submit_rejects += u64::from(!r.1.is_success());
        });
        r
    }

    fn submit_packets(
        &mut self,
        core: usize,
        packets: &[u32],
        now: Cycle,
    ) -> (Cycle, FabricOutcome<()>) {
        self.op(|f| f.submit_packets(core, packets, now))
    }

    fn ready_task_request(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.op(|f| f.ready_task_request(core, now))
    }

    fn fetch_sw_id(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        let r = self.op(|f| f.fetch_sw_id(core, now));
        self.tracer.count(|c| {
            c.fetch_attempts += 1;
            c.fetch_successes += u64::from(r.1.is_success());
        });
        r
    }

    fn fetch_picos_id(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.op(|f| f.fetch_picos_id(core, now))
    }

    fn retire_task(&mut self, core: usize, picos_id: u32, now: Cycle) -> Cycle {
        self.op(|f| f.retire_task(core, picos_id, now))
    }

    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }

    fn set_observing(&mut self, on: bool) {
        self.inner.set_observing(on);
    }

    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        let inner = &mut *self.inner;
        self.tracer
            .call(Layer::Fabric, || inner.drain_ready_log(sink));
    }

    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }
}

/// A task source whose polls are counted by outcome and sampled. It owns the source it wraps
/// because runtimes own theirs.
#[derive(Debug)]
pub struct TracedSource {
    /// The source being measured.
    pub inner: Box<dyn TaskSource>,
    /// Where the measurements go.
    pub tracer: Rc<Tracer>,
}

impl TaskSource for TracedSource {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn poll(&mut self) -> SourcePoll {
        let inner = &mut self.inner;
        let r = self.tracer.call(Layer::Source, || inner.poll());
        self.tracer.count(|c| {
            c.polls += 1;
            c.blocked_polls += u64::from(r == SourcePoll::Blocked);
        });
        r
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        self.tracer.call(Layer::Source, || self.inner.spec(sw_id))
    }

    fn retire(&mut self, sw_id: u64) {
        let inner = &mut self.inner;
        self.tracer.call(Layer::Source, || inner.retire(sw_id));
    }

    fn retire_at(&mut self, sw_id: u64, now: u64) {
        let inner = &mut self.inner;
        self.tracer
            .call(Layer::Source, || inner.retire_at(sw_id, now));
    }

    fn advance_to(&mut self, now: u64) {
        let inner = &mut self.inner;
        self.tracer.call(Layer::Source, || inner.advance_to(now));
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.inner.tenant_reports()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }

    fn max_deps(&self) -> usize {
        self.inner.max_deps()
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }

    fn peak_resident(&self) -> usize {
        self.inner.peak_resident()
    }
}

/// An observer whose callbacks are counted and sampled.
pub struct TracedObserver<'a> {
    /// The observer being measured.
    pub inner: &'a mut dyn Observer,
    /// Where the measurements go.
    pub tracer: &'a Tracer,
}

impl TracedObserver<'_> {
    fn event(&mut self, f: impl FnOnce(&mut dyn Observer)) {
        let inner = &mut *self.inner;
        self.tracer.call(Layer::Obs, || f(inner));
        self.tracer.count(|c| c.obs_events += 1);
    }
}

impl Observer for TracedObserver<'_> {
    fn on_task(&mut self, event: &TaskEvent) {
        self.event(|o| o.on_task(event)); // tis-lint: allow(observer-chokepoint)
    }

    fn on_mem(&mut self, event: &MemEvent) {
        self.event(|o| o.on_mem(event)); // tis-lint: allow(observer-chokepoint)
    }

    fn on_sample(&mut self, sample: &MetricsSample) {
        self.event(|o| o.on_sample(sample)); // tis-lint: allow(observer-chokepoint)
    }

    fn wants_mem_events(&self) -> bool {
        self.inner.wants_mem_events()
    }

    fn sample_interval(&self) -> Option<Cycle> {
        self.inner.sample_interval()
    }
}
