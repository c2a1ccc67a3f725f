//! Quickstart for the observability layer (`tis-obs`): observe one sweep cell end to end.
//!
//! The example runs a small dependence-dense sweep twice — once observed, once not — and
//! walks through everything the observed run produced:
//!
//! * the per-cell critical-path table, attributing every makespan cycle to task bodies,
//!   memory stalls, dispatch waits, or scheduler overhead (machine-checked to sum exactly);
//! * the `TRACE_*.json` Chrome trace-event documents — set `TIS_BENCH_JSON=out` and load
//!   them in <https://ui.perfetto.dev> to see per-core tracks and counter timelines;
//! * the `METRICS_*.json` cycle-bucketed gauge timelines.
//!
//! It then proves, by byte comparison, that the unobserved sweep's artifact is identical to
//! one produced with observability compiled in but switched off — the zero-cost-when-off
//! property CI re-checks on every push. A mismatch panics (non-zero exit).
//!
//! Run with `cargo run --release --example trace_explorer`
//! (add `TIS_BENCH_JSON=out` to keep the trace/metrics files).

use tis::exp::{ObsConfig, Sweep, SynthFamily, SynthSpec, WorkloadSpec};
use tis::bench::{write_artifacts_if_requested, Platform};
use tis::obs::PathCategory;

fn sweep() -> Sweep {
    Sweep::new("trace-explorer")
        .over_cores([8])
        .over_platforms([Platform::Phentos, Platform::NanosRv])
        .with_workload(WorkloadSpec::synth(SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.1 },
            tasks: 96,
            task_cycles: 8_000,
            jitter: 0.25,
        }))
}

fn main() {
    let observed = sweep().with_obs(ObsConfig::full()).run();

    print!("{}", observed.render_table());
    println!();
    for (i, cell) in observed.cells.iter().enumerate() {
        let obs = cell.obs.as_ref().expect("every cell of a with_obs sweep is observed");
        println!(
            "cell {i}: {} on {} — {} task events, {} samples",
            cell.workload, cell.platform.key(), obs.task_events, obs.samples
        );
        print!("{}", obs.critical.render_table());
        println!(
            "  critical-path tasks: {:?} (scheduler share {:.1}%)",
            obs.critical.tasks(),
            100.0 * obs.critical.fraction(PathCategory::Scheduler)
        );
        println!();
    }

    match write_artifacts_if_requested(&observed.obs_artifacts()) {
        Ok(paths) if paths.is_empty() => {
            println!("set TIS_BENCH_JSON=<dir> to keep the TRACE_/METRICS_ JSON files");
        }
        Ok(paths) => {
            println!("wrote {} observability artifacts:", paths.len());
            for p in &paths {
                println!("  {} (TRACE_* files load in ui.perfetto.dev)", p.display());
            }
        }
        Err(e) => panic!("could not write observability artifacts: {e}"),
    }
    println!();

    // The obs-off gate: a sweep without `with_obs` must render the exact bytes it rendered
    // before observability existed — and running it twice pins determinism on top.
    let off_a = sweep().run().to_json().render();
    let off_b = sweep().run().to_json().render();
    assert_eq!(off_a, off_b, "obs-off sweep artifacts must be deterministic");
    assert!(
        !off_a.contains("obs_") && !off_a.contains("critical_path"),
        "an obs-off sweep may not emit observability keys"
    );
    // Observation must not move a single simulated cycle.
    for (plain, obs) in sweep().run().cells.iter().zip(&observed.cells) {
        assert_eq!(
            plain.total_cycles, obs.total_cycles,
            "{} on {}: observing the cell changed its makespan",
            plain.workload,
            plain.platform.key()
        );
    }
    println!("obs-off byte-identity and obs-on cycle-identity checks passed");
}
