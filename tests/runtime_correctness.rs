//! Cross-crate correctness: randomly generated programs run on every runtime must produce
//! schedules that respect the sequential semantics, retire every task exactly once, and never
//! deadlock.

use tis_bench::{Harness, Platform};
use tis_sim::SimRng;
use tis_taskmodel::{Dependence, Direction, Payload, ProgramBuilder, TaskProgram};

/// Deterministic pseudo-random program generator (no proptest shrinking needed here; failures
/// print the seed).
fn random_program(seed: u64, tasks: usize) -> TaskProgram {
    let mut rng = SimRng::new(seed);
    let mut b = ProgramBuilder::new(format!("random-{seed}"));
    for _ in 0..tasks {
        let ndeps = rng.below(4) as usize;
        let mut deps = Vec::new();
        let mut used = Vec::new();
        for _ in 0..ndeps {
            let addr = 0x6000_0000 + rng.below(12) * 64;
            if used.contains(&addr) {
                continue;
            }
            used.push(addr);
            let dir = match rng.below(3) {
                0 => Direction::In,
                1 => Direction::Out,
                _ => Direction::InOut,
            };
            deps.push(Dependence::new(addr, dir));
        }
        b.spawn(Payload::compute(rng.range(100, 3_000)), deps);
        if rng.chance(0.1) {
            b.taskwait();
        }
    }
    b.taskwait();
    b.build()
}

#[test]
fn random_programs_are_scheduled_correctly_by_every_platform() {
    let harness = Harness::with_cores(3);
    for seed in [1u64, 7, 42, 1234] {
        let program = random_program(seed, 40);
        let expected = program.task_count() as u64;
        for platform in Platform::ALL {
            let report = harness
                .run(platform, &program)
                .unwrap_or_else(|e| panic!("seed {seed} on {}: {e}", platform.label()));
            assert_eq!(report.tasks_retired, expected, "seed {seed} on {}", platform.label());
            assert_eq!(report.records.len() as u64, expected, "seed {seed} on {}", platform.label());
            report
                .validate_against(&program)
                .unwrap_or_else(|e| panic!("seed {seed} on {} violated semantics: {e}", platform.label()));
        }
    }
}

#[test]
fn single_core_execution_is_equivalent_to_a_serial_schedule() {
    let harness = Harness::with_cores(1);
    let program = random_program(99, 30);
    for platform in [Platform::Phentos, Platform::NanosSw] {
        let report = harness.run(platform, &program).unwrap();
        report.validate_against(&program).unwrap();
        // On one core, the payload time alone already accounts for the serial sum.
        let payload: u64 = report.core_stats.iter().map(|s| s.payload_cycles).sum();
        let serial_payload: u64 = program.tasks().map(|t| t.payload.compute_cycles).sum();
        assert_eq!(payload, serial_payload, "{}", platform.label());
        assert!(report.total_cycles >= serial_payload);
    }
}

#[test]
fn dependence_chains_serialise_on_every_platform() {
    // A pure chain can never run faster than the sum of its payloads, no matter the runtime.
    let mut b = ProgramBuilder::new("chain");
    for _ in 0..15 {
        b.spawn(Payload::compute(4_000), vec![Dependence::read_write(0x1234_0000)]);
    }
    b.taskwait();
    let program = b.build();
    let harness = Harness::with_cores(4);
    for platform in Platform::ALL {
        let report = harness.run(platform, &program).unwrap();
        assert!(
            report.total_cycles >= 15 * 4_000,
            "{} finished a serial chain impossibly fast",
            platform.label()
        );
        report.validate_against(&program).unwrap();
    }
}

#[test]
fn speedup_never_exceeds_core_count() {
    let harness = Harness::with_cores(4);
    for seed in [5u64, 17] {
        let program = random_program(seed, 60);
        let serial = harness.serial_cycles(&program);
        for platform in [Platform::Phentos, Platform::NanosRv] {
            let report = harness.run(platform, &program).unwrap();
            let speedup = report.speedup_over(serial);
            assert!(
                speedup <= harness.cores() as f64 + 1e-9,
                "seed {seed} on {}: speedup {speedup:.2} exceeds the core count",
                platform.label()
            );
        }
    }
}

/// Under saturation a completed descriptor often reaches Picos only during a later
/// operation's internal advance. Every one of them still counts as submitted, on both
/// Picos-backed fabrics.
#[test]
fn saturated_hardware_counts_every_submission() {
    let mut b = ProgramBuilder::new("saturate");
    for i in 0..40u64 {
        b.spawn(Payload::compute(200), vec![Dependence::write(0x8_0000 + i * 64)]);
    }
    b.taskwait();
    let program = b.build();
    let harness = Harness::with_cores(1).with_tracker(tis_picos::TrackerConfig::new(4, 64));
    for platform in [Platform::Phentos, Platform::NanosRv, Platform::NanosAxi] {
        let report = harness.run(platform, &program).expect("no deadlock despite saturation");
        assert_eq!(report.tasks_retired, 40);
        assert_eq!(report.fabric_stats.tasks_submitted, 40, "{}", platform.label());
    }
}
