//! stream-deps and stream-barr — memory-intensive micro-apps (ompss-ee).
//!
//! Both run the four STREAM kernels (copy, scale, add, triad) over blocked arrays for several
//! iterations. They differ in how kernels are ordered:
//!
//! * **stream-barr** separates consecutive kernels with a `taskwait` barrier;
//! * **stream-deps** instead annotates the per-block data dependences (copy(b) → scale(b) →
//!   add(b) → triad(b) → next iteration's copy(b)), letting blocks from different kernels
//!   overlap — the "complex scheme of data dependencies" the paper mentions.
//!
//! Tasks are memory-bound: a block of `elems` doubles moves `8·elems` bytes per array touched,
//! so the shared-DRAM-bandwidth model caps the achievable speedup well below the core count, as
//! in the paper.
//!
//! The paper labels the inputs `64`, `16x16`, `16x128`, `128x128`, `128x1024` and `4096x4096`;
//! they are interpreted as `blocks × kibi-elements-per-block` (the single-number input `64`
//! being 64 blocks of 1 Ki elements).

use tis_taskmodel::{Dependence, Payload, ProgramBuilder, TaskProgram};

/// Arrays a, b, c used by the STREAM kernels.
const ARRAY_A: u64 = 0x1_0000_0000;
const ARRAY_B: u64 = 0x1_4000_0000;
const ARRAY_C: u64 = 0x1_8000_0000;
/// Number of iterations of the four-kernel sequence.
const ITERATIONS: usize = 4;
/// Cycles of loads/stores/FP per element on the in-order core. At 80 MHz the DRAM is relatively
/// fast, so the kernels are only partially bandwidth-bound on the prototype — which is why the
/// paper still sees stream speedups around 5× on eight cores rather than a hard bandwidth wall.
const CYCLES_PER_ELEM: u64 = 4;

fn blk(array: u64, b: usize) -> u64 {
    array + (b as u64) * 0x1000
}

fn kernel_payload(elems: usize, arrays_touched: u64) -> Payload {
    Payload::new(elems as u64 * CYCLES_PER_ELEM, elems as u64 * 8 * arrays_touched)
}

/// Generates one of the two stream variants for `blocks` blocks of `elems` elements.
///
/// # Panics
///
/// Panics if `blocks` or `elems` is zero.
pub fn stream(blocks: usize, elems: usize, with_barriers: bool) -> TaskProgram {
    assert!(blocks > 0 && elems > 0, "degenerate stream input");
    let variant = if with_barriers { "stream-barr" } else { "stream-deps" };
    let mut b = ProgramBuilder::new(format!("{variant} {blocks}x{elems}"));
    for _ in 0..ITERATIONS {
        // copy: c = a
        for blk_i in 0..blocks {
            b.spawn(
                kernel_payload(elems, 2),
                vec![Dependence::read(blk(ARRAY_A, blk_i)), Dependence::write(blk(ARRAY_C, blk_i))],
            );
        }
        if with_barriers {
            b.taskwait();
        }
        // scale: b = k * c
        for blk_i in 0..blocks {
            b.spawn(
                kernel_payload(elems, 2),
                vec![Dependence::read(blk(ARRAY_C, blk_i)), Dependence::write(blk(ARRAY_B, blk_i))],
            );
        }
        if with_barriers {
            b.taskwait();
        }
        // add: c = a + b
        for blk_i in 0..blocks {
            b.spawn(
                kernel_payload(elems, 3),
                vec![
                    Dependence::read(blk(ARRAY_A, blk_i)),
                    Dependence::read(blk(ARRAY_B, blk_i)),
                    Dependence::write(blk(ARRAY_C, blk_i)),
                ],
            );
        }
        if with_barriers {
            b.taskwait();
        }
        // triad: a = b + k * c
        for blk_i in 0..blocks {
            b.spawn(
                kernel_payload(elems, 3),
                vec![
                    Dependence::read(blk(ARRAY_B, blk_i)),
                    Dependence::read(blk(ARRAY_C, blk_i)),
                    Dependence::write(blk(ARRAY_A, blk_i)),
                ],
            );
        }
        if with_barriers {
            b.taskwait();
        }
    }
    if !with_barriers {
        b.taskwait();
    }
    b.build()
}

/// The six input labels of Figure 9, as `(label, blocks, elements_per_block)` — the single
/// source of truth for the catalog's stream-barr and stream-deps grids.
pub fn paper_input_sizes() -> Vec<(&'static str, usize, usize)> {
    vec![
        ("64", 64, 1024),
        ("16x16", 16, 16 * 1024),
        ("16x128", 16, 128 * 1024),
        ("128x128", 128, 128 * 1024 / 8),
        ("128x1024", 128, 1024 * 1024 / 64),
        ("4096x4096", 256, 64 * 1024),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deps_variant_chains_kernels_per_block() {
        let p = stream(2, 100, false);
        assert_eq!(p.task_count(), 2 * 4 * ITERATIONS);
        assert_eq!(p.taskwait_count(), 1, "only the final taskwait");
        let g = p.reference_graph();
        // copy(block0) -> scale(block0): scale reads c which copy wrote.
        assert!(g.has_edge(tis_taskmodel::TaskId(0), tis_taskmodel::TaskId(2)));
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn barr_variant_uses_barriers_instead_of_fine_deps() {
        let p = stream(2, 100, true);
        assert_eq!(p.taskwait_count(), 4 * ITERATIONS);
        let deps = stream(2, 100, false);
        assert!(p.reference_graph().stats(&vec![1.0; p.task_count()]).phases > 1);
        assert!(
            deps.reference_graph().edge_count() > p.reference_graph().edge_count() / 2,
            "the deps variant expresses ordering through edges rather than barriers"
        );
    }

    #[test]
    fn tasks_are_memory_intense() {
        let p = stream(16, 16 * 1024, false);
        let stats = p.stats(16.0);
        // Memory time (bytes / 16 B per cycle) is a significant fraction of the task time, so
        // the shared-bandwidth model visibly limits scaling.
        let mem_cycles = stats.total_memory_bytes / 16;
        assert!(mem_cycles * 5 > stats.total_compute_cycles, "memory time should be at least a fifth of compute");
        assert!(stats.total_memory_bytes > 10 * 1024 * 1024, "stream moves tens of megabytes");
    }

    #[test]
    fn paper_inputs_cover_six_sizes_each() {
        for barriers in [false, true] {
            let inputs = paper_input_sizes();
            assert_eq!(inputs.len(), 6);
            for (label, blocks, elems) in inputs {
                let p = stream(blocks, elems, barriers);
                p.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(p.task_count() <= 8_192, "{label} must stay simulable");
            }
        }
        // Problem size grows across the catalog (the paper: performance increases with size).
        let sizes = paper_input_sizes();
        let first = sizes[0].1 * sizes[0].2;
        let last = sizes[5].1 * sizes[5].2;
        assert!(last > first);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_blocks_panics() {
        stream(0, 10, false);
    }
}
