//! The streaming-scale gate: a **million-task cell in O(window) memory**. This bench drives
//! [`tis_exp::StreamingSynth`] sources straight through [`tis_bench::Harness::run_source`]
//! (records off), so no `TaskProgram` — and no O(tasks) descriptor table — ever exists:
//!
//! * a 1,000,000-task dependence chain, the acceptance workload for the streaming engine;
//! * a 200,000-task windowed Erdős–Rényi DAG, the family whose sliding-window structure
//!   motivated streaming in the first place (every spawn passes the inline
//!   `tis_analyze::WindowedPreflight`).
//!
//! Two gates, both hard failures (non-zero exit):
//!
//! * **Peak-residency (the RSS proxy):** the report's `peak_resident_tasks` high-water mark
//!   must stay within each cell's configured window. A regression back to O(tasks) residency
//!   — a runtime that stops retiring into the source, or a source that stops blocking —
//!   trips this on the first CI run.
//! * **Host throughput:** simulated tasks per host second must clear a floor set far below
//!   the locally observed rate, so it catches an algorithmic regression (an O(tasks) scan in
//!   the per-step path), not a slow CI host. Strict mode is unconditional here — unlike the
//!   `micro_components` guards, a 1M-task cell that slows 50x would stall CI anyway.
//!
//! Run with `cargo bench -p tis-exp --bench sweep_streaming_scale`. Set `TIS_BENCH_JSON=<dir>`
//! to write `BENCH_sweep_streaming-scale.json`; the artifact carries only deterministic
//! simulation fields (cycles, retirements, residency — never host time), so it diffs cleanly
//! under the `bench-diff` trajectory gate.

use std::time::Instant;
use tis_bench::{write_artifacts_if_requested, Harness, Platform};
use tis_exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis_sim::{Json, SimRng};

/// One streamed cell: a spec, its residency window, and the platform that runs it.
struct Cell {
    spec: SynthSpec,
    window: usize,
    platform: Platform,
}

/// Tasks per host second below which the bench fails. Locally the chain runs at >100k tasks/s;
/// the floor leaves a ~10x margin for slower CI hosts.
const FLOOR_TASKS_PER_HOST_SECOND: f64 = 10_000.0;

fn main() {
    let seed = 0x5EED_57AE;
    let cells = [
        Cell {
            spec: SynthSpec::uniform(SynthFamily::Chain, 1_000_000, 500),
            window: 1_024,
            platform: Platform::Phentos,
        },
        Cell {
            spec: SynthSpec {
                family: SynthFamily::ErdosRenyi { density: 0.05 },
                tasks: 200_000,
                task_cycles: 2_000,
                jitter: 0.25,
            },
            window: 4_096,
            platform: Platform::Phentos,
        },
    ];

    let harness = Harness::paper_prototype();
    let mut rows = Vec::new();
    let mut failures = 0;
    println!(
        "streaming-scale sweep: {} cells, {} cores, records off",
        cells.len(),
        harness.cores()
    );
    println!();

    for cell in &cells {
        let source = StreamingSynth::new(cell.spec, cell.window, SimRng::new(seed));
        let name = source.synth_spec().name();
        let t0 = Instant::now();
        let report = harness
            .run_source(cell.platform, Box::new(source), false)
            .unwrap_or_else(|e| panic!("streamed cell {name} failed: {e}"));
        let elapsed = t0.elapsed().as_secs_f64();
        let tasks = cell.spec.tasks as u64;
        let tasks_per_host_second = tasks as f64 / elapsed;

        let resident_ok = report.peak_resident_tasks <= cell.window as u64;
        let retired_ok = report.tasks_retired == tasks;
        let throughput_ok = tasks_per_host_second >= FLOOR_TASKS_PER_HOST_SECOND;
        if !resident_ok {
            eprintln!(
                "RESIDENCY REGRESSION: {name}: peak resident {} exceeds the {}-task window",
                report.peak_resident_tasks, cell.window
            );
            failures += 1;
        }
        if !retired_ok {
            eprintln!(
                "LOST TASKS: {name}: retired {} of {} streamed tasks",
                report.tasks_retired, tasks
            );
            failures += 1;
        }
        if !throughput_ok {
            eprintln!(
                "THROUGHPUT REGRESSION: {name}: {tasks_per_host_second:.0} tasks/host-second \
                 (floor {FLOOR_TASKS_PER_HOST_SECOND:.0})"
            );
            failures += 1;
        }
        println!(
            "{:<34} {:>9} | {} tasks | {:>12} cycles | window {:>5} | peak resident {:>4} | {:>7.0} tasks/host-s ... {}",
            name,
            cell.platform.key(),
            tasks,
            report.total_cycles,
            cell.window,
            report.peak_resident_tasks,
            tasks_per_host_second,
            if resident_ok && retired_ok && throughput_ok { "ok" } else { "FAIL" },
        );

        // Deterministic fields only: host-time figures stay on stdout so the artifact is
        // byte-stable run to run and machine to machine.
        rows.push(Json::obj([
            ("workload", Json::Str(name.clone())),
            ("family", Json::Str(cell.spec.family.key().to_string())),
            ("platform", Json::Str(cell.platform.key().to_string())),
            ("cores", Json::UInt(harness.cores() as u64)),
            ("tasks", Json::UInt(tasks)),
            ("window", Json::UInt(cell.window as u64)),
            ("cycles", Json::UInt(report.total_cycles)),
            ("tasks_retired", Json::UInt(report.tasks_retired)),
            ("peak_resident_tasks", Json::UInt(report.peak_resident_tasks)),
            ("mean_cycles_per_task", Json::Num(report.mean_cycles_per_task())),
        ]));
    }
    println!();

    let doc = Json::obj([
        ("experiment", Json::Str("streaming-scale".to_string())),
        ("seed", Json::UInt(seed)),
        ("cells", Json::Arr(rows)),
    ]);
    let json = doc.render();
    match write_artifacts_if_requested(&[("BENCH_sweep_streaming-scale.json".to_string(), &json)]) {
        Ok(paths) => {
            for path in paths {
                println!("wrote machine-readable results to {}", path.display());
            }
        }
        Err(e) => {
            eprintln!("failed to write the streaming-scale artifact: {e}");
            std::process::exit(1);
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
