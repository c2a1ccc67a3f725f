//! Jacobi — blocked iterative Poisson solver (KaStORS).
//!
//! The KaStORS `jacobi` benchmark applies Jacobi sweeps to a grid, double-buffered between
//! `u_old` and `u_new`. The blocked task version spawns one task per block per sweep; a block
//! task reads its own block and its two neighbours from the previous sweep and writes its block
//! of the new buffer, producing a classic neighbour-dependence (stencil) task graph with WAR/RAW
//! edges across sweeps.
//!
//! Granularity model: updating one grid point is a handful of flops on the in-order core
//! (~12 cycles); a block moves `16 × elements` bytes between the two buffers.

use tis_taskmodel::{Dependence, Payload, ProgramBuilder, TaskProgram};

/// Cycles to update one grid point.
const CYCLES_PER_POINT: u64 = 12;
/// Bytes moved per grid point per sweep (read old + neighbours, write new).
const BYTES_PER_POINT: u64 = 16;
/// Number of Jacobi sweeps performed.
const SWEEPS: usize = 8;
/// Base addresses of the two buffers.
const U_OLD: u64 = 0xE000_0000;
const U_NEW: u64 = 0xE800_0000;

fn block_addr(buffer: u64, block: usize) -> u64 {
    buffer + (block as u64) * 0x100
}

/// Generates the jacobi program for a grid of `n` points partitioned into blocks of
/// `block_points` points, running a fixed number of sweeps (`SWEEPS`, currently 8).
///
/// # Panics
///
/// Panics if the parameters are degenerate (zero, or block larger than the grid).
pub fn jacobi(n: usize, block_points: usize) -> TaskProgram {
    assert!(n > 0 && block_points > 0 && block_points <= n, "degenerate jacobi input");
    let blocks = n / block_points;
    let mut b = ProgramBuilder::new(format!("jacobi N{n} B{block_points}"));
    for sweep in 0..SWEEPS {
        // Buffers swap every sweep.
        let (src, dst) = if sweep % 2 == 0 { (U_OLD, U_NEW) } else { (U_NEW, U_OLD) };
        for blk in 0..blocks {
            let mut deps = vec![Dependence::read(block_addr(src, blk)), Dependence::write(block_addr(dst, blk))];
            if blk > 0 {
                deps.push(Dependence::read(block_addr(src, blk - 1)));
            }
            if blk + 1 < blocks {
                deps.push(Dependence::read(block_addr(src, blk + 1)));
            }
            b.spawn(
                Payload::new(block_points as u64 * CYCLES_PER_POINT, block_points as u64 * BYTES_PER_POINT),
                deps,
            );
        }
    }
    b.taskwait();
    b.build()
}

/// The three jacobi input labels of Figure 9 (`N128 B1`, `N256 B1`, `N512 B1`), as
/// `(label, n)` — the single source of truth for the catalog's jacobi grid.
///
/// The KaStORS input names refer to a 2-D grid of N×N points blocked by rows; one row of the
/// N-point-per-row grid is the unit of work here, so "B1" spawns one task per row per sweep with
/// a per-task granularity of roughly `N × 12` cycles — the very fine tasks that motivate the
/// paper.
pub fn paper_input_sizes() -> Vec<(String, usize)> {
    [128usize, 256, 512].iter().map(|&n| (format!("N{n} B1"), n)).collect()
}

/// One Figure 9 jacobi input (`N{n} B1`: one task per row, rows of `n` points) with the row
/// count — the parallel dimension — multiplied by `scale`, keeping the per-task granularity
/// (row length `n`) unchanged. `scale = 1` is the paper's input; larger machines use larger
/// scales so every core still has work (see [`crate::catalog::paper_catalog_for_cores`]).
///
/// # Panics
///
/// Panics if `n` or `scale` is zero.
pub fn paper_input(n: usize, scale: usize) -> TaskProgram {
    assert!(n > 0 && scale > 0, "degenerate jacobi input");
    let rows = n * scale;
    let mut b = ProgramBuilder::new(format!("jacobi N{n} B1"));
    for sweep in 0..SWEEPS {
        let (src, dst) = if sweep % 2 == 0 { (U_OLD, U_NEW) } else { (U_NEW, U_OLD) };
        for row in 0..rows {
            let mut deps =
                vec![Dependence::read(block_addr(src, row)), Dependence::write(block_addr(dst, row))];
            if row > 0 {
                deps.push(Dependence::read(block_addr(src, row - 1)));
            }
            if row + 1 < rows {
                deps.push(Dependence::read(block_addr(src, row + 1)));
            }
            b.spawn(Payload::new(n as u64 * CYCLES_PER_POINT, n as u64 * BYTES_PER_POINT), deps);
        }
    }
    b.taskwait();
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::TaskId;

    #[test]
    fn stencil_dependences_link_sweeps() {
        let p = jacobi(8, 2); // 4 blocks, 8 sweeps
        assert_eq!(p.task_count(), 4 * SWEEPS);
        let g = p.reference_graph();
        // A block task of sweep 1 depends on its own block task of sweep 0 (it writes what the
        // earlier task read — WAR — and reads what it wrote via the swapped buffer).
        assert!(g.has_edge(TaskId(0), TaskId(4)));
        // And on its neighbour from sweep 0.
        assert!(g.has_edge(TaskId(1), TaskId(4)));
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn paper_inputs_are_three_fine_grained_ones() {
        let inputs: Vec<_> =
            paper_input_sizes().into_iter().map(|(label, n)| (label, paper_input(n, 1))).collect();
        assert_eq!(inputs.len(), 3);
        for (label, p) in &inputs {
            assert!(label.ends_with("B1"));
            p.validate().unwrap();
            let stats = p.stats(16.0);
            assert!(
                stats.mean_task_cycles < 10_000.0,
                "jacobi B1 tasks are fine-grained, got {}",
                stats.mean_task_cycles
            );
        }
        // Larger grids mean more and bigger tasks.
        assert!(inputs[2].1.task_count() > inputs[0].1.task_count());
    }

    #[test]
    fn sweeps_are_serialised_per_block() {
        let p = jacobi(4, 1);
        let g = p.reference_graph();
        let weights = vec![1.0; p.task_count()];
        let stats = g.stats(&weights);
        assert!(stats.critical_path_weight >= SWEEPS as f64, "each sweep depends on the previous");
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn block_larger_than_grid_panics() {
        jacobi(4, 8);
    }
}
