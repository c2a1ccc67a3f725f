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
use tis::machine::{
    run_machine_counted, run_machine_reference, EngineError, EngineStats, ExecutionReport,
    FaultConfig, MemoryModel, NullFabric, RuntimeSystem, SchedulerFabric,
};
use tis::nanos::{AxiFabric, Nanos, NanosVariant};
use tis::obs::{trace_json_tenants, MemEvent, MetricsSample, ObsConfig, Observer, Recorder, TaskEvent};
use tis::picos::TrackerConfig;
use tis::sim::{Cycle, SimRng};
use tis::taskmodel::{
    ArrivalProcess, MaterializedSource, TaskProgram, TaskSource, TenantSet, TenantTrackerPolicy,
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

/// Three tenants over `program`'s family: a Poisson victim and two bursty antagonists.
fn tenant_source(spec: SynthSpec, seed: u64, tracker: TrackerConfig, partitioned: bool) -> Box<dyn TaskSource> {
    let policy = if partitioned {
        TenantTrackerPolicy::Partitioned { per_tenant_entries: tracker.per_tenant_entries(3) }
    } else {
        TenantTrackerPolicy::Shared
    };
    let mut set = TenantSet::new().with_policy(policy);
    for t in 0..3u64 {
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
            k => Box::new(move || tenant_source(spec, seed, tracker, k == 3)),
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
            k => Box::new(move || tenant_source(spec, seed, tracker, k == 3)),
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
