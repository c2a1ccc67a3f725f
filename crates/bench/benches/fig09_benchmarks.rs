//! Figure 9 — normalized benchmark performance (speedup over serial) for every one of the 37
//! workload inputs under Nanos-SW, Nanos-RV and Phentos, plus the paper's headline geometric
//! means.
//!
//! Run with `cargo bench -p tis-bench --bench fig09_benchmarks`.
//!
//! Set `TIS_BENCH_JSON=<dir>` to additionally write the results as `BENCH_fig09.json` into
//! `<dir>` (machine-readable: per-workload cycles/speedups plus the headline geomeans); CI
//! uploads that file as an artifact so the benchmark trajectory is preserved across commits.

use tis_bench::{
    evaluate_catalog_counted, fig09_json, geomean_ratio, write_artifacts_if_requested, Harness,
    Platform,
};

fn main() {
    let harness = Harness::paper_prototype();
    let (results, work) = evaluate_catalog_counted(&harness, &Platform::FIGURE9);

    println!("Figure 9: speedup over serial execution, 8 cores");
    println!(
        "{:<14} {:<12} | {:>10} | {:>10} | {:>10} | {:>14}",
        "benchmark", "input", "Nanos-SW", "Nanos-RV", "Phentos", "task size (cyc)"
    );
    println!("{}", "-".repeat(84));
    let mut current = "";
    for r in &results {
        if r.benchmark != current {
            current = r.benchmark;
            println!("{}", "-".repeat(84));
        }
        println!(
            "{:<14} {:<12} | {:>10.2} | {:>10.2} | {:>10.2} | {:>14.0}",
            r.benchmark,
            r.input,
            r.speedup(Platform::NanosSw).unwrap_or(0.0),
            r.speedup(Platform::NanosRv).unwrap_or(0.0),
            r.speedup(Platform::Phentos).unwrap_or(0.0),
            r.mean_task_cycles
        );
    }

    let rv_over_sw = geomean_ratio(&results, Platform::NanosRv, Platform::NanosSw).unwrap_or(0.0);
    let ph_over_sw = geomean_ratio(&results, Platform::Phentos, Platform::NanosSw).unwrap_or(0.0);
    let ph_over_rv = geomean_ratio(&results, Platform::Phentos, Platform::NanosRv).unwrap_or(0.0);
    let max = |p: Platform| {
        results.iter().filter_map(|r| r.speedup(p)).fold(0.0f64, f64::max)
    };
    let wins = |a: Platform, b: Platform| {
        results.iter().filter(|r| r.ratio(a, b).map(|x| x > 1.0).unwrap_or(false)).count()
    };

    println!();
    println!("Headline comparison (geometric means over the 37 workloads):");
    println!("  Nanos-RV / Nanos-SW : {:>6.2}x   (paper: 2.13x)", rv_over_sw);
    println!("  Phentos  / Nanos-SW : {:>6.2}x   (paper: 13.19x)", ph_over_sw);
    println!("  Phentos  / Nanos-RV : {:>6.2}x   (paper: 6.20x)", ph_over_rv);
    println!("  max speedup over serial: Nanos-RV {:.2}x (paper 5.62x), Phentos {:.2}x (paper 5.72x)", max(Platform::NanosRv), max(Platform::Phentos));
    println!(
        "  Nanos-RV beats Nanos-SW on {}/37 workloads (paper: 34/37); Phentos beats Nanos-SW on {}/37 (paper: 36/37); Phentos beats Nanos-RV on {}/37 (paper: 34/37)",
        wins(Platform::NanosRv, Platform::NanosSw),
        wins(Platform::Phentos, Platform::NanosSw),
        wins(Platform::Phentos, Platform::NanosRv)
    );
    let steps: Vec<String> = work
        .iter()
        .map(|w| {
            format!(
                "{} {:.1} ({} polls skipped)",
                w.platform.label(),
                w.steps_per_task(),
                w.engine.skipped_polls
            )
        })
        .collect();
    println!("  engine steps per task: {}", steps.join(", "));
    let parking: Vec<String> = work
        .iter()
        .map(|w| {
            let [parks, wakes, rechecks] = w.engine.parking_per_task(w.tasks);
            format!("{} {parks:.2} / {wakes:.2} / {rechecks:.2}", w.platform.label())
        })
        .collect();
    println!("  engine parks / wakes / rechecks per task: {}", parking.join(", "));

    let json = fig09_json(&results).render();
    match write_artifacts_if_requested(&[("BENCH_fig09.json".to_string(), &json)]) {
        Ok(paths) => {
            for path in paths {
                println!("\nwrote machine-readable results to {}", path.display());
            }
        }
        Err(e) => {
            eprintln!("failed to write BENCH_fig09.json: {e}");
            std::process::exit(1);
        }
    }
}
