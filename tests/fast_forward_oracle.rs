//! Differential oracle for the engine's idle fast-forward.
//!
//! The engine parks cores whose steps are repeatable failed polls and charges the skipped
//! polls in closed form. The per-poll loop it replaces stays available as
//! `run_machine_reference`; this file runs both on the same generated programs, across all four
//! platforms, materialized, streamed and multi-tenant sources, fault-injected machines and
//! every observation mode, and requires them to agree on everything a caller can see: the
//! `Result` (report or error), every observer event in order, and the recorder's spans,
//! samples, event count and rendered Perfetto, tenant Perfetto and metrics documents. A
//! many-core Phentos case also compares bare recorders, which take a parked core's repeated
//! events as one batch.

use proptest::prelude::*;
use tis::bench::{Harness, Platform};
use tis::core::{Phentos, TisFabric};
use tis::exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis::machine::fabric::FabricOutcome;
use tis::machine::{
    run_machine_counted, run_machine_reference, CoreCtx, CoreStatus, EngineError, EngineStats,
    ExecutionReport, FabricStats, FailedOps, FaultConfig, MemoryModel, NullFabric, PollLoop,
    RuntimeSystem, SchedulerFabric,
};
use tis::nanos::{AxiFabric, Nanos, NanosVariant};
use tis::obs::{trace_json_tenants, MemEvent, MetricsSample, ObsConfig, Observer, Recorder, TaskEvent};
use tis::picos::TrackerConfig;
use tis::sim::{Cycle, SimRng};
use tis::taskmodel::{
    ArrivalProcess, ExecRecord, MaterializedSource, TaskProgram, TaskSource, TenantReport, TenantSet,
    TenantTrackerPolicy,
};

/// One observer callback, in the order the engine made it.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Task(TaskEvent),
    Mem(MemEvent),
    Sample(MetricsSample),
}

/// A recorder that also logs every event it sees, in order.
struct Logged {
    recorder: Recorder,
    events: Vec<Event>,
}

impl Observer for Logged {
    fn on_task(&mut self, event: &TaskEvent) {
        self.events.push(Event::Task(*event));
        self.recorder.on_task(event); // tis-lint: allow(observer-chokepoint)
    }

    fn on_mem(&mut self, event: &MemEvent) {
        self.events.push(Event::Mem(*event));
        self.recorder.on_mem(event); // tis-lint: allow(observer-chokepoint)
    }

    fn on_sample(&mut self, sample: &MetricsSample) {
        self.events.push(Event::Sample(sample.clone()));
        self.recorder.on_sample(sample); // tis-lint: allow(observer-chokepoint)
    }

    fn wants_mem_events(&self) -> bool {
        self.recorder.wants_mem_events()
    }

    fn sample_interval(&self) -> Option<Cycle> {
        self.recorder.sample_interval()
    }
}

/// The runtime and fabric `platform` runs on, as `Harness` builds them, over `source`.
fn machine(
    harness: &Harness,
    platform: Platform,
    source: Box<dyn TaskSource>,
) -> (Box<dyn RuntimeSystem>, Box<dyn SchedulerFabric>) {
    let cores = harness.cores();
    match platform {
        Platform::Phentos => (
            Box::new(Phentos::from_source(source, cores, harness.phentos)),
            Box::new(TisFabric::new(cores, harness.tis)),
        ),
        Platform::NanosRv => (
            Box::new(Nanos::from_source(source, cores, NanosVariant::PicosRocc, harness.nanos)),
            Box::new(TisFabric::new(cores, harness.tis)),
        ),
        Platform::NanosAxi => (
            Box::new(Nanos::from_source(source, cores, NanosVariant::PicosAxi, harness.nanos)),
            Box::new(AxiFabric::new(cores, harness.axi)),
        ),
        Platform::NanosSw => (
            Box::new(Nanos::from_source(source, cores, NanosVariant::Software, harness.nanos)),
            Box::new(NullFabric::new()),
        ),
    }
}

type Outcome = (Result<ExecutionReport, EngineError>, EngineStats, Option<Logged>);

fn run_once(
    harness: &Harness,
    platform: Platform,
    source: Box<dyn TaskSource>,
    obs: Option<ObsConfig>,
    fast: bool,
) -> Outcome {
    let (mut runtime, mut fabric) = machine(harness, platform, source);
    let mut logged = obs.map(|config| Logged { recorder: Recorder::new(config), events: Vec::new() });
    let observer = logged.as_mut().map(|l| l as &mut dyn Observer);
    let run = if fast { run_machine_counted } else { run_machine_reference };
    let (result, stats) = run(&harness.machine, runtime.as_mut(), fabric.as_mut(), observer);
    (result, stats, logged)
}

/// Runs `source()` through both loops and checks they agree; returns the fast run's stats.
fn assert_fast_matches_reference(
    harness: &Harness,
    platform: Platform,
    source: &dyn Fn() -> Box<dyn TaskSource>,
    obs: Option<ObsConfig>,
    what: &str,
) -> EngineStats {
    let (fast, fast_stats, fast_obs) = run_once(harness, platform, source(), obs, true);
    let (reference, ref_stats, ref_obs) = run_once(harness, platform, source(), obs, false);
    assert_eq!(fast, reference, "{what}: results differ");
    assert_eq!(ref_stats.skipped_polls, 0, "{what}: the reference steps every poll");
    assert_eq!(
        fast_stats.steps() + fast_stats.skipped_polls,
        ref_stats.steps(),
        "{what}: every reference step is either stepped or charged"
    );
    if let (Some(f), Some(r)) = (fast_obs, ref_obs) {
        assert_eq!(f.events.len(), r.events.len(), "{what}: observer event counts differ");
        if let Some(i) = (0..f.events.len()).find(|&i| f.events[i] != r.events[i]) {
            panic!("{what}: event {i} differs: fast {:?}, reference {:?}", f.events[i], r.events[i]);
        }
        assert_recorders_equal(&f.recorder, &r.recorder, harness.cores(), what);
    }
    fast_stats
}

/// Runs `source()` through both loops observed by a bare `Recorder`, which takes repeated poll
/// events in one batched call where `Logged` takes them one by one, and checks they agree.
fn assert_bare_recorders_match(
    harness: &Harness,
    platform: Platform,
    source: &dyn Fn() -> Box<dyn TaskSource>,
    config: ObsConfig,
    what: &str,
) {
    let record = |fast: bool| {
        let (mut runtime, mut fabric) = machine(harness, platform, source());
        let mut recorder = Recorder::new(config);
        let run = if fast { run_machine_counted } else { run_machine_reference };
        let (result, _) = run(&harness.machine, runtime.as_mut(), fabric.as_mut(), Some(&mut recorder));
        (result, recorder)
    };
    let (fast, f) = record(true);
    let (reference, r) = record(false);
    assert_eq!(fast, reference, "{what}: results differ under a bare recorder");
    assert_recorders_equal(&f, &r, harness.cores(), what);
}

/// Checks that two recorders hold the same spans, samples and event count, and render the same
/// Perfetto trace, tenant Perfetto trace (over a round-robin assignment of three tenants) and
/// metrics document.
fn assert_recorders_equal(f: &Recorder, r: &Recorder, cores: usize, what: &str) {
    assert_eq!(f.spans(), r.spans(), "{what}: spans differ");
    assert_eq!(f.metrics().samples(), r.metrics().samples(), "{what}: samples differ");
    assert_eq!(f.task_events(), r.task_events(), "{what}: task events differ");
    assert_eq!(
        f.perfetto_json(what, cores).render(),
        r.perfetto_json(what, cores).render(),
        "{what}: Perfetto traces differ"
    );
    let names: Vec<String> = (0..3).map(|t| format!("t{t}")).collect();
    let assignment: Vec<u32> = (0..f.spans().len() as u32).map(|task| task % 3).collect();
    let tenant_trace = |rec: &Recorder| {
        trace_json_tenants(what, cores, rec.spans(), rec.metrics().samples(), &names, &assignment).render()
    };
    assert_eq!(tenant_trace(f), tenant_trace(r), "{what}: tenant Perfetto traces differ");
    // The closing sample sits at the makespan.
    let makespan = f.metrics().samples().last().map_or(0, |s| s.cycle);
    assert_eq!(
        f.metrics_json(what, makespan).render(),
        r.metrics_json(what, makespan).render(),
        "{what}: metrics documents differ"
    );
}

/// Observation modes: none, the default recorder, fine sampling, and everything on.
fn observation_modes() -> [Option<ObsConfig>; 4] {
    [
        None,
        Some(ObsConfig::default()),
        Some(ObsConfig { sample_interval: 97, mem_events: false }),
        Some(ObsConfig::full()),
    ]
}

/// A small machine, in one of five shapes: the default, a tiny tracker that refuses
/// submissions, a faulted directory mesh, a mesh with dead links (runs end in a diagnosed
/// fault), and a cycle cap the run exceeds.
fn harness(shape: u8, cores: usize) -> Harness {
    let h = Harness::with_cores(cores);
    match shape {
        0 => h,
        1 => h.with_tracker(TrackerConfig::new(4, 64)),
        2 => h
            .with_memory_model(MemoryModel::directory_mesh())
            .with_faults(FaultConfig::recoverable()),
        3 => h.with_memory_model(MemoryModel::directory_mesh()).with_faults(FaultConfig {
            dead_links: 2,
            watchdog_cycles: 200_000,
            ..FaultConfig::none()
        }),
        _ => {
            let mut h = h.with_tracker(TrackerConfig::new(8, 64));
            h.machine.max_cycles = 30_000;
            h
        }
    }
}

fn spec_from(kind: u8, width: usize, tasks: usize, task_cycles: u64) -> SynthSpec {
    let family = match kind {
        0 => SynthFamily::Chain,
        1 => SynthFamily::ForkJoin { width },
        2 => SynthFamily::ErdosRenyi { density: 0.05 },
        _ => SynthFamily::ErdosRenyi { density: 0.2 },
    };
    SynthSpec { family, tasks, task_cycles, jitter: 0.5 }
}

/// `tenants` tenants over `spec`'s family: a Poisson victim and bursty antagonists.
fn tenant_source(
    spec: SynthSpec,
    tenants: u64,
    seed: u64,
    tracker: TrackerConfig,
    partitioned: bool,
) -> Box<dyn TaskSource> {
    let policy = if partitioned {
        TenantTrackerPolicy::Partitioned { per_tenant_entries: tracker.per_tenant_entries(tenants as usize) }
    } else {
        TenantTrackerPolicy::Shared
    };
    let mut set = TenantSet::new().with_policy(policy);
    for t in 0..tenants {
        let program: TaskProgram = spec.generate(&mut SimRng::new(seed).stream("tenant", t));
        let arrival = if t == 0 {
            ArrivalProcess::Poisson { mean_interarrival: 3 * spec.task_cycles }
        } else {
            ArrivalProcess::Bursty { burst: 6, period: 40 * spec.task_cycles }
        };
        set = set.tenant(format!("t{t}"), Box::new(MaterializedSource::new(&program)), arrival);
    }
    Box::new(set.into_source(SimRng::new(seed).stream("arrivals", 0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The fast path equals the per-poll reference on every platform, source kind, machine
    /// shape and observation mode.
    #[test]
    fn fast_forward_equals_the_per_poll_reference(
        kind in 0u8..4,
        width in 1usize..4,
        tasks in 1usize..28,
        task_cycles in 50u64..3_000,
        seed in 0u64..10_000,
        cores in 1usize..5,
        shape in 0u8..5,
        source_kind in 0u8..4,
    ) {
        let spec = spec_from(kind, width, tasks, task_cycles);
        let harness = harness(shape, cores);
        let program = spec.generate(&mut SimRng::new(seed));
        let tracker = harness.tis.picos.tracker;
        let source: Box<dyn Fn() -> Box<dyn TaskSource>> = match source_kind {
            0 => Box::new(|| Box::new(MaterializedSource::new(&program))),
            1 => Box::new(|| Box::new(StreamingSynth::new(spec, 3, SimRng::new(seed)))),
            k => Box::new(move || tenant_source(spec, 3, seed, tracker, k == 3)),
        };
        for platform in Platform::ALL {
            for obs in observation_modes() {
                let what = format!("{spec:?} seed {seed}, {cores} cores, shape {shape}, source {source_kind}, {} {obs:?}", platform.label());
                assert_fast_matches_reference(&harness, platform, source.as_ref(), obs, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Phentos on 8 to 32 cores, where many workers park at once and the engine rechecks only
    /// the ones a step could wake, over streamed and tenant sources: the fast path equals the
    /// reference in every observation mode, and also under a bare recorder.
    #[test]
    fn many_core_phentos_equals_the_per_poll_reference(
        kind in 0u8..4,
        width in 1usize..8,
        tasks in 8usize..24,
        task_cycles in 200u64..2_000,
        seed in 0u64..10_000,
        cores in 8usize..33,
        shape in 0u8..5,
        source_kind in 1u8..4,
    ) {
        let spec = spec_from(kind, width, tasks, task_cycles);
        let harness = harness(shape, cores);
        let tracker = harness.tis.picos.tracker;
        let source: Box<dyn Fn() -> Box<dyn TaskSource>> = match source_kind {
            1 => Box::new(|| Box::new(StreamingSynth::new(spec, 3, SimRng::new(seed)))),
            k => Box::new(move || tenant_source(spec, 3, seed, tracker, k == 3)),
        };
        for obs in observation_modes() {
            let what = format!("{spec:?} seed {seed}, {cores} cores, shape {shape}, source {source_kind}, {obs:?}");
            assert_fast_matches_reference(&harness, Platform::Phentos, source.as_ref(), obs, &what);
            if let Some(config) = obs {
                assert_bare_recorders_match(&harness, Platform::Phentos, source.as_ref(), config, &what);
            }
        }
    }
}

/// The shape of the 8-tenant serving scenario (`sweep_multi_tenant`, hostbench `tenants`) at a
/// size the per-poll reference runs quickly: 32 cores, 8 chain tenants on a 16-entry tracker,
/// under both tracker policies, in every observation mode.
#[test]
fn serving_shape_equals_the_per_poll_reference() {
    let tracker = TrackerConfig::new(16, 1024);
    let harness = Harness::with_cores(32).with_tracker(tracker);
    let spec = SynthSpec { family: SynthFamily::Chain, tasks: 6, task_cycles: 1_500, jitter: 0.25 };
    for partitioned in [false, true] {
        let source = || tenant_source(spec, 8, 1, tracker, partitioned);
        for obs in observation_modes() {
            let what = format!("serving shape, partitioned {partitioned}, {obs:?}");
            let stats = assert_fast_matches_reference(&harness, Platform::Phentos, &source, obs, &what);
            assert!(stats.parks > 0 && stats.skipped_polls > stats.steps(), "{what}: the idle workers park");
        }
    }
}

/// A chain of long tasks on 2 to 4 cores: while one core runs a task the others park, so the
/// retirement of each task comes due with every other core parked, and the first of them to
/// start a poll at or after it applies it.
#[test]
fn a_retirement_due_while_the_others_park_equals_the_per_poll_reference() {
    let spec = SynthSpec { family: SynthFamily::Chain, tasks: 40, task_cycles: 4_000, jitter: 0.5 };
    let program = spec.generate(&mut SimRng::new(3));
    for cores in 2..=4 {
        let harness = Harness::with_cores(cores);
        let source = || Box::new(MaterializedSource::new(&program)) as Box<dyn TaskSource>;
        for obs in observation_modes() {
            let what = format!("long chain on {cores} cores, {obs:?}");
            let stats = assert_fast_matches_reference(&harness, Platform::Phentos, &source, obs, &what);
            assert!(stats.wakes >= spec.tasks as u64, "{what}: parked cores wake for the chain's tasks");
        }
    }
}

/// Forwards a runtime's or a fabric's hooks the way a decorator written before some of them
/// would. With `parking` off it forwards only the Table-I operations, the reports and the
/// observation hooks, like a tracing decorator, so that no core parks. With it on it also
/// forwards every idle fast-forward hook except `RuntimeSystem::drain_epoch_changes` and
/// `SchedulerFabric::next_internal_events`, `drain_poll_changes` and `last_operation`, which
/// then keep their defaults.
struct Forwarding<'a, T: ?Sized> {
    inner: &'a mut T,
    parking: bool,
}

impl RuntimeSystem for Forwarding<'_, dyn RuntimeSystem> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn step_core(&mut self, ctx: &mut CoreCtx<'_>, fabric: &mut dyn SchedulerFabric) -> CoreStatus {
        self.inner.step_core(ctx, fabric)
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
    fn poll_loop(&self, core: usize) -> Option<PollLoop> {
        self.inner.poll_loop(core).filter(|_| self.parking)
    }
    fn observed_epoch(&self, core: usize) -> u64 {
        if self.parking { self.inner.observed_epoch(core) } else { 0 }
    }
    fn observed_version(&self) -> u64 {
        if self.parking { self.inner.observed_version() } else { 0 }
    }
    fn skip_polls(&mut self, core: usize, polls: u64, last_start: Cycle) {
        if self.parking {
            self.inner.skip_polls(core, polls, last_start);
        }
    }
}

impl SchedulerFabric for Forwarding<'_, dyn SchedulerFabric> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn set_time_horizon(&mut self, safe_now: Cycle) {
        self.inner.set_time_horizon(safe_now);
    }
    fn submission_request(&mut self, core: usize, packets: u32, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.inner.submission_request(core, packets, now)
    }
    fn submit_packets(&mut self, core: usize, packets: &[u32], now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.inner.submit_packets(core, packets, now)
    }
    fn ready_task_request(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<()>) {
        self.inner.ready_task_request(core, now)
    }
    fn fetch_sw_id(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<u64>) {
        self.inner.fetch_sw_id(core, now)
    }
    fn fetch_picos_id(&mut self, core: usize, now: Cycle) -> (Cycle, FabricOutcome<u32>) {
        self.inner.fetch_picos_id(core, now)
    }
    fn retire_task(&mut self, core: usize, picos_id: u32, now: Cycle) -> Cycle {
        self.inner.retire_task(core, picos_id, now)
    }
    fn stats(&self) -> FabricStats {
        self.inner.stats()
    }
    fn set_observing(&mut self, on: bool) {
        self.inner.set_observing(on);
    }
    fn drain_ready_log(&mut self, sink: &mut dyn FnMut(Cycle, u64)) {
        self.inner.drain_ready_log(sink);
    }
    fn occupancy(&self) -> (usize, usize) {
        self.inner.occupancy()
    }
    fn park_epoch(&self) -> Option<u64> {
        self.inner.park_epoch().filter(|_| self.parking)
    }
    fn poll_blocked_until(&self, core: usize, ops: FailedOps) -> Cycle {
        if self.parking { self.inner.poll_blocked_until(core, ops) } else { 0 }
    }
    fn charge_failed_polls(&mut self, core: usize, ops: FailedOps, polls: u64) {
        if self.parking {
            self.inner.charge_failed_polls(core, ops, polls);
        }
    }
}

/// Runs `source()` on Phentos bare and through both `Forwarding` decorators, and checks that
/// each gives the bare run's result and observer events.
fn assert_decorators_keep_the_bare_run(harness: &Harness, source: &dyn Fn() -> Box<dyn TaskSource>) {
    for obs in [None, Some(ObsConfig::default()), Some(ObsConfig::full())] {
        let run = |parking: Option<bool>| {
            let (mut runtime, mut fabric) = machine(harness, Platform::Phentos, source());
            let mut logged = obs.map(|config| Logged { recorder: Recorder::new(config), events: Vec::new() });
            let observer = logged.as_mut().map(|l| l as &mut dyn Observer);
            let (result, stats) = match parking {
                None => run_machine_counted(&harness.machine, runtime.as_mut(), fabric.as_mut(), observer),
                Some(parking) => {
                    let mut runtime = Forwarding { inner: runtime.as_mut(), parking };
                    let mut fabric = Forwarding { inner: fabric.as_mut(), parking };
                    run_machine_counted(&harness.machine, &mut runtime, &mut fabric, observer)
                }
            };
            (result, stats, logged.map(|l| l.events))
        };
        let (bare, bare_stats, bare_events) = run(None);
        assert!(bare_stats.parks > 0, "the bare run parks");
        for parking in [false, true] {
            let what = format!("{} cores, {obs:?}, parking hooks {parking}", harness.cores());
            let (result, stats, events) = run(Some(parking));
            assert_eq!(result, bare, "{what}: results differ");
            assert_eq!(events, bare_events, "{what}: observer events differ");
            let polls = |s: EngineStats| s.steps() + s.skipped_polls;
            assert_eq!(polls(stats), polls(bare_stats), "{what}: every poll is stepped or charged");
            assert_eq!(stats.parks > 0, parking, "{what}: only the second decorator parks");
        }
    }
}

/// Every idle fast-forward hook a decorator may leave out defaults to an answer that is exact:
/// a run through a decorator that forwards no parking hook (it steps every poll) and through
/// one that forwards all but the newest ones gives the bare run's report and observer events.
#[test]
fn decorators_that_leave_hooks_out_keep_the_bare_run() {
    let tracker = TrackerConfig::new(16, 1024);
    let spec = SynthSpec { family: SynthFamily::Chain, tasks: 5, task_cycles: 1_500, jitter: 0.25 };
    let harness = Harness::with_cores(16).with_tracker(tracker);
    assert_decorators_keep_the_bare_run(&harness, &|| tenant_source(spec, 8, 2, tracker, true));
    let fork_join = spec_from(1, 3, 12, 800).generate(&mut SimRng::new(5));
    assert_decorators_keep_the_bare_run(&Harness::with_cores(4), &|| Box::new(MaterializedSource::new(&fork_join)));
}
