//! Quickstart: build a small task-parallel program, run it on the tightly-integrated system
//! with the Phentos runtime, and inspect the result.
//!
//! Run with `cargo run -p tis-bench --release --example quickstart`.

use tis_bench::{Harness, Platform};
use tis_taskmodel::{Dependence, Payload, ProgramBuilder};

fn main() {
    // A tiny blocked pipeline: produce two blocks, combine them, then post-process the result.
    let block_a = 0x1000;
    let block_b = 0x2000;
    let result = 0x3000;

    let mut program = ProgramBuilder::new("quickstart");
    program.spawn(Payload::compute(20_000), vec![Dependence::write(block_a)]);
    program.spawn(Payload::compute(20_000), vec![Dependence::write(block_b)]);
    program.spawn(
        Payload::compute(30_000),
        vec![Dependence::read(block_a), Dependence::read(block_b), Dependence::write(result)],
    );
    program.taskwait();
    program.spawn(Payload::compute(10_000), vec![Dependence::read_write(result)]);
    let program = program.build();

    let graph = program.reference_graph();
    println!("program '{}' spawns {} tasks with {} dependence edges", program.name(), program.task_count(), graph.edge_count());

    let harness = Harness::paper_prototype();
    let report = harness.run(Platform::Phentos, &program).expect("simulation completes");
    report.validate_against(&program).expect("the schedule honours every dependence");

    println!("ran on {} cores in {} cycles using the {} fabric", report.cores, report.total_cycles, report.fabric);
    println!("speedup over serial execution: {:.2}x", report.speedup_over(harness.serial_cycles(&program)));
    for rec in &report.records {
        println!("  {} ran on core {} from cycle {} to {}", rec.task, rec.core, rec.start, rec.end);
    }
}
