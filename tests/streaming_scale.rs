//! Scale regression tests for the streaming engine: long dependence chains through a
//! bounded-window [`tis::exp::StreamingSynth`] source with per-task records off, checking the
//! counter arithmetic that only goes wrong when `tasks` is far beyond what any materialized
//! cell reaches.
//!
//! These run in debug builds on purpose: `ExecutionReport::core_utilisation` carries
//! debug-assert partition invariants (busy + idle must equal cores × makespan exactly, with
//! every intermediate add checked), so the decomposition is machine-verified here, and the
//! explicit assertions below re-state the same sums for release runs. The default-size test
//! keeps `cargo test` fast; the full 2,000,000-task soak of the satellite audit is `#[ignore]`d
//! (run it with `cargo test -q --test streaming_scale -- --ignored`), and the release-built
//! `sweep_streaming_scale` bench gates a 1,000,000-task cell on every CI run.

use tis::bench::{Harness, Platform};
use tis::exp::{StreamingSynth, SynthFamily, SynthSpec};
use tis::machine::{FabricStats, MemoryModel};
use tis::sim::SimRng;

/// Streams a `tasks`-long chain (records off) and checks the makespan decomposition sums
/// exactly: every per-core busy/idle split partitions cores × makespan, retirements match the
/// streamed task count, and residency stayed within the window.
fn chain_decomposition(tasks: usize, window: usize) {
    let spec = SynthSpec::uniform(SynthFamily::Chain, tasks, 500);
    let source = StreamingSynth::new(spec, window, SimRng::new(0xCAFE));
    let harness = Harness::paper_prototype();
    let report = harness
        .run_source(Platform::Phentos, Box::new(source), false)
        .expect("streamed chain must complete");

    assert_eq!(report.tasks_retired, tasks as u64, "every streamed task must retire");
    assert!(
        report.peak_resident_tasks <= window as u64,
        "peak resident descriptors {} exceeded the {window}-task window",
        report.peak_resident_tasks
    );

    // The per-phase totals of the makespan decomposition, summed exactly (checked arithmetic —
    // a silent wrap at 10⁶-task scale is precisely what the satellite audit guards against).
    let split = report.core_utilisation(); // debug builds also re-assert the partition here
    let accounted: u64 = split
        .iter()
        .try_fold(0u64, |acc, u| {
            acc.checked_add(u.busy_cycles).and_then(|a| a.checked_add(u.idle_cycles))
        })
        .expect("decomposition sum overflows u64");
    let capacity = report
        .total_cycles
        .checked_mul(report.cores as u64)
        .expect("cores x makespan overflows u64");
    assert_eq!(accounted, capacity, "busy + idle must sum exactly to cores x makespan");
    for (core, (u, s)) in split.iter().zip(&report.core_stats).enumerate() {
        assert_eq!(
            u.busy_cycles,
            s.payload_cycles
                .checked_add(s.runtime_cycles)
                .expect("per-core busy cycles overflow u64")
                .min(report.total_cycles),
            "core {core}: busy cycles must equal accounted payload + runtime (clamped)"
        );
        assert_eq!(
            u.busy_cycles + u.idle_cycles,
            report.total_cycles,
            "core {core}: busy + idle must equal the makespan exactly"
        );
    }

    // A chain executes serially: the makespan is at least the sum of every payload, and the
    // mean per-task cycle figure divides back out without rounding surprises.
    assert!(report.total_cycles >= 500u64 * tasks as u64, "chain payloads execute back to back");
    let mean = report.mean_cycles_per_task();
    assert!(
        (mean - report.total_cycles as f64 / tasks as f64).abs() < 1e-9,
        "mean cycles/task must be makespan / tasks"
    );
}

#[test]
fn streamed_chain_phase_totals_sum_exactly_to_the_makespan_decomposition() {
    chain_decomposition(120_000, 1_024);
}

/// The full-scale satellite soak: two million streamed tasks through the same decomposition
/// audit. Several minutes in a debug build, so opt-in; the release-built streaming-scale
/// bench covers the million-task regime on every CI run.
#[test]
#[ignore = "multi-minute debug-build soak: cargo test -q --test streaming_scale -- --ignored"]
fn two_million_task_chain_decomposition_soak() {
    chain_decomposition(2_000_000, 1_024);
}

/// Exact pin of one streamed wide-fan-in cell: a windowed Erdős–Rényi DAG (density 0.05, about
/// 13 dependences per task) on 8-core Phentos over the contended directory mesh. Every task
/// goes through the Picos tracker's insert and retire with wide reader lists, so a host-side
/// change to the tracker, the manager or the memory path that moves a single simulated cycle
/// or fabric counter fails here, in a blocking test, rather than only in a benchmark digest.
#[test]
fn streamed_erdos_renyi_cell_is_pinned_exactly() {
    let spec = SynthSpec {
        family: SynthFamily::ErdosRenyi { density: 0.05 },
        tasks: 4_096,
        task_cycles: 2_000,
        jitter: 0.25,
    };
    let source = StreamingSynth::new(spec, 1_024, SimRng::new(1).stream("instance", 0));
    let harness =
        Harness::paper_prototype().with_memory_model(MemoryModel::directory_mesh_contended());
    let report = harness
        .run_source(Platform::Phentos, Box::new(source), false)
        .expect("streamed Erdős–Rényi cell must complete");
    assert_eq!(report.cores, 8);
    assert_eq!(report.tasks_retired, 4_096);
    assert_eq!(report.total_cycles, 1_358_077);
    assert_eq!(
        report.fabric_stats,
        FabricStats {
            tasks_submitted: 4_096,
            submission_failures: 325,
            tasks_dispatched: 4_096,
            fetch_failures: 5_556,
            tasks_retired: 4_096,
            operations: 81_784,
            tracker_losses: 0,
            tracker_resubmits: 0,
            tracker_recovery_cycles: 0,
        }
    );
}
