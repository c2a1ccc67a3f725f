//! Host-work bounds of the engine's idle fast-forward, in deterministic engine steps per
//! retired task. Before it, Phentos spent 146.7 steps per task on the Fig. 9 catalog and
//! about 2,764 on the 8-tenant serving scenario, almost all of them idle polls. The parked
//! cores are rechecked only when a step changed something they poll: 22.6 rechecks per step
//! on the serving scenario when every parked core was rechecked after every step. Metrics
//! samples read parked cores in closed form instead of charging them: 2.35 closed-form
//! charges per step on the serving scenario when every sample settled every parked core.
//! A parked core wakes only for a poll that can behave differently: when wakes could only
//! move earlier and a fabric event woke its first reacher a poll early, the serving scenario
//! took 16.3 steps and 10.3 parks per task, and Phentos 3.46 steps per task on the catalog.

use tis::bench::{evaluate_catalog_counted, Harness, Platform};
use tis::exp::{SynthFamily, SynthSpec};
use tis::obs::{ObsConfig, Recorder};
use tis::picos::TrackerConfig;
use tis::sim::SimRng;
use tis::taskmodel::{ArrivalProcess, MaterializedSource, TenantSet, TenantTrackerPolicy};

#[test]
fn phentos_runs_the_fig09_catalog_in_at_most_four_steps_per_task() {
    let (_, work) = evaluate_catalog_counted(&Harness::paper_prototype(), &[Platform::Phentos]);
    let steps = work[0].steps_per_task();
    assert!(steps <= 4.0, "Phentos took {steps:.2} engine steps per task over the catalog");
}

/// The 8-tenant serving scenario of `sweep_multi_tenant` at 32 cores: dependence chains on a
/// 16-entry tracker, a Poisson victim and bursty antagonists, observed by a recorder, under
/// both tracker policies. Each step also rechecks at most twelve parked cores and charges
/// at most one in closed form.
#[test]
fn eight_tenant_serving_takes_at_most_twelve_steps_and_six_parks_per_task() {
    const TENANTS: usize = 8;
    let tracker = TrackerConfig::new(16, 1024);
    let harness = Harness::with_cores(32).with_tracker(tracker);
    let spec = SynthSpec { family: SynthFamily::Chain, tasks: 192, task_cycles: 30_000, jitter: 0.25 };
    let rng = SimRng::new(1);
    let programs: Vec<_> = (0..TENANTS).map(|t| spec.generate(&mut rng.stream("tenant", t as u64))).collect();
    for policy in [
        TenantTrackerPolicy::Shared,
        TenantTrackerPolicy::Partitioned { per_tenant_entries: tracker.per_tenant_entries(TENANTS) },
    ] {
        let mut set = TenantSet::new().with_policy(policy);
        for (t, program) in programs.iter().enumerate() {
            let arrival = if t == 0 {
                ArrivalProcess::Poisson { mean_interarrival: 36_000 }
            } else {
                ArrivalProcess::Bursty { burst: 96, period: 100_000 }
            };
            set = set.tenant(format!("t{t}"), Box::new(MaterializedSource::new(program)), arrival);
        }
        let source = set.into_source(rng.stream("tenant-arrivals", 0));
        let mut recorder = Recorder::new(ObsConfig::default());
        let (result, engine) = harness.run_tenants_counted(Platform::Phentos, source, false, Some(&mut recorder));
        let (report, _) = result.expect("the serving scenario completes");
        assert_eq!(report.tasks_retired, (TENANTS * spec.tasks) as u64);
        let steps = engine.steps_per_task(report.tasks_retired);
        assert!(steps <= 12.0, "{policy:?}: {steps:.1} engine steps per task");
        let [parks, ..] = engine.parking_per_task(report.tasks_retired);
        assert!(parks <= 6.0, "{policy:?}: {parks:.1} parks per task");
        let rechecks = engine.rechecks as f64 / engine.steps() as f64;
        assert!(rechecks <= 12.0, "{policy:?}: {rechecks:.1} parked-core rechecks per step");
        let settles = engine.settles as f64 / engine.steps() as f64;
        assert!(settles <= 1.0, "{policy:?}: {settles:.2} closed-form charges per step");
    }
}
