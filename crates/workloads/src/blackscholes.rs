//! Blackscholes — the Financial Analysis benchmark (parsec-ompss).
//!
//! The application prices a portfolio of European options by evaluating the closed-form
//! Black–Scholes formula once per option. The OmpSs version partitions the portfolio into blocks
//! of `block_size` options; each block becomes one task that reads the option parameters and
//! writes the block of prices — a highly data-parallel workload with no inter-task dependences.
//!
//! Granularity model: evaluating one option on an in-order, FPU-equipped Rocket core (several
//! `exp`/`log`/`sqrt` calls plus arithmetic) is a few hundred cycles; each option touches ~40
//! bytes of input and 8 bytes of output.

use tis_taskmodel::{Dependence, Payload, ProgramBuilder, TaskProgram};

/// Cycles to price one option (calls into softish-float `exp`/`log` on the in-order core).
const CYCLES_PER_OPTION: u64 = 320;
/// Bytes of memory traffic per option (parameters in, price out).
const BYTES_PER_OPTION: u64 = 48;
/// Base address of the option and price arrays.
const DATA_BASE: u64 = 0xD000_0000;

/// Generates the blackscholes program for `num_options` options priced in blocks of
/// `block_size`.
///
/// # Panics
///
/// Panics if either parameter is zero.
pub fn blackscholes(num_options: usize, block_size: usize) -> TaskProgram {
    assert!(num_options > 0 && block_size > 0, "degenerate blackscholes input");
    let label = if num_options.is_multiple_of(1024) {
        format!("blackscholes {}K B{}", num_options / 1024, block_size)
    } else {
        format!("blackscholes {num_options} B{block_size}")
    };
    let mut b = ProgramBuilder::new(label);
    let blocks = num_options.div_ceil(block_size);
    for blk in 0..blocks {
        let options_here = block_size.min(num_options - blk * block_size) as u64;
        let out_addr = DATA_BASE + (blk as u64) * block_size as u64 * 8;
        b.spawn(
            Payload::new(options_here * CYCLES_PER_OPTION, options_here * BYTES_PER_OPTION),
            vec![Dependence::write(out_addr)],
        );
    }
    b.taskwait();
    b.build()
}

/// The twelve blackscholes input labels of Figure 9 (4 K and 16 K options, block sizes 8–256),
/// as `(label, num_options, block_size)` — the single source of truth for the catalog's
/// blackscholes grid.
pub fn paper_input_sizes() -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for &options in &[4 * 1024usize, 16 * 1024] {
        for &block in &[8usize, 16, 32, 64, 128, 256] {
            out.push((format!("{}K B{}", options / 1024, block), options, block));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_count_matches_partitioning() {
        let p = blackscholes(4096, 8);
        assert_eq!(p.task_count(), 512);
        let p = blackscholes(4096, 256);
        assert_eq!(p.task_count(), 16);
        // Non-divisible case keeps every option.
        let p = blackscholes(100, 32);
        assert_eq!(p.task_count(), 4);
        let total: u64 = p.tasks().map(|t| t.payload.compute_cycles).sum();
        assert_eq!(total, 100 * CYCLES_PER_OPTION);
    }

    #[test]
    fn tasks_are_independent_and_granularity_scales_with_block() {
        let p = blackscholes(4096, 64);
        assert_eq!(p.reference_graph().edge_count(), 0);
        let small = blackscholes(4096, 8).stats(16.0).mean_task_cycles;
        let large = blackscholes(4096, 256).stats(16.0).mean_task_cycles;
        assert!((large / small - 32.0).abs() < 1.0, "granularity tracks the block size");
    }

    #[test]
    fn paper_inputs_are_twelve() {
        let inputs = paper_input_sizes();
        assert_eq!(inputs.len(), 12);
        assert!(inputs.iter().any(|(l, ..)| l == "4K B8"));
        assert!(inputs.iter().any(|(l, ..)| l == "16K B256"));
        for (_, options, block) in inputs {
            blackscholes(options, block).validate().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_options_panics() {
        blackscholes(0, 8);
    }
}
