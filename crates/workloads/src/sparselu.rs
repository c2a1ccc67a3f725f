//! SparseLU — sparse blocked LU factorisation (KaStORS).
//!
//! The matrix is partitioned into `nb × nb` blocks of `m × m` elements, with a deterministic
//! sparsity pattern (some blocks are null and skipped). Each factorisation step `k` spawns:
//!
//! * `lu0(A[k][k])` — factorise the diagonal block (`inout`);
//! * `fwd(A[k][k], A[k][j])` for j > k — forward substitution on row k (`in`, `inout`);
//! * `bdiv(A[k][k], A[i][k])` for i > k — backward division on column k (`in`, `inout`);
//! * `bmod(A[i][k], A[k][j], A[i][j])` for i, j > k — trailing update (`in`, `in`, `inout`),
//!   allocating the target block if it was null.
//!
//! This produces the classic LU task graph whose parallelism shrinks as `k` grows — a good
//! stress test for dependence tracking. Per-task granularity is `O(m³)` cycles, so the paper's
//! `M1` inputs are extremely fine-grained while `M16` is moderately coarse.
//!
//! The paper's labels are `N32/N128` with `M1..M16`. Simulating the full N128 input (hundreds of
//! thousands of tasks) per runtime would dominate harness time, so `N` is mapped to the number of
//! blocks per dimension divided by four (N32 → 8×8 blocks, N128 → 32×32 blocks); the dependence
//! structure and per-task granularity — the properties the evaluation depends on — are
//! unchanged. DESIGN.md records this substitution.

use tis_taskmodel::{Dependence, Payload, ProgramBuilder, TaskProgram};

/// Base address of the block pointer table.
const BLOCK_BASE: u64 = 0xF000_0000;

fn block_addr(nb: usize, i: usize, j: usize) -> u64 {
    BLOCK_BASE + ((i * nb + j) as u64) * 0x80
}

/// Deterministic sparsity pattern used by the KaStORS generator: roughly half the off-diagonal
/// blocks start null.
fn is_null_block(i: usize, j: usize) -> bool {
    i != j && ((i + j * 7).is_multiple_of(5) || (i * 3 + j).is_multiple_of(7))
}

fn gemm_cycles(m: usize) -> u64 {
    // ~2 flops per element-multiply-add on the in-order FPU.
    (2 * m * m * m) as u64
}

fn block_bytes(m: usize) -> u64 {
    (m * m * 8) as u64
}

/// Generates the sparseLU program for an `nb × nb` block matrix with `m × m` element blocks.
///
/// # Panics
///
/// Panics if `nb` or `m` is zero.
pub fn sparselu(nb: usize, m: usize) -> TaskProgram {
    assert!(nb > 0 && m > 0, "degenerate sparselu input");
    let mut b = ProgramBuilder::new(format!("sparselu NB{nb} M{m}"));
    let mut present: Vec<bool> = (0..nb * nb).map(|idx| !is_null_block(idx / nb, idx % nb)).collect();
    for k in 0..nb {
        // lu0 on the diagonal block.
        b.spawn(
            Payload::new(gemm_cycles(m), 2 * block_bytes(m)),
            vec![Dependence::read_write(block_addr(nb, k, k))],
        );
        // fwd on row k.
        for j in (k + 1)..nb {
            if present[k * nb + j] {
                b.spawn(
                    Payload::new(gemm_cycles(m) * 3 / 4, 2 * block_bytes(m)),
                    vec![
                        Dependence::read(block_addr(nb, k, k)),
                        Dependence::read_write(block_addr(nb, k, j)),
                    ],
                );
            }
        }
        // bdiv on column k.
        for i in (k + 1)..nb {
            if present[i * nb + k] {
                b.spawn(
                    Payload::new(gemm_cycles(m) * 3 / 4, 2 * block_bytes(m)),
                    vec![
                        Dependence::read(block_addr(nb, k, k)),
                        Dependence::read_write(block_addr(nb, i, k)),
                    ],
                );
            }
        }
        // bmod trailing updates.
        for i in (k + 1)..nb {
            if !present[i * nb + k] {
                continue;
            }
            for j in (k + 1)..nb {
                if !present[k * nb + j] {
                    continue;
                }
                present[i * nb + j] = true; // fill-in
                b.spawn(
                    Payload::new(gemm_cycles(m), 3 * block_bytes(m)),
                    vec![
                        Dependence::read(block_addr(nb, i, k)),
                        Dependence::read(block_addr(nb, k, j)),
                        Dependence::read_write(block_addr(nb, i, j)),
                    ],
                );
            }
        }
    }
    b.taskwait();
    b.build()
}

/// The ten sparseLU input labels of Figure 9 (`N32`/`N128` × `M1,2,4,8,16`), as `(label, nb, m)`
/// with `N` mapped to the block count as described in the module docs — the single source of
/// truth for the catalog's sparseLU grid.
pub fn paper_input_sizes() -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for &(n_label, nb) in &[(32usize, 8usize), (128, 16)] {
        for &m in &[1usize, 2, 4, 8, 16] {
            out.push((format!("N{n_label} M{m}"), nb, m));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_structure_serialises_on_the_diagonal() {
        let p = sparselu(4, 2);
        let g = p.reference_graph();
        assert!(g.edge_count() > 0);
        let stats = g.stats(&p.tasks().map(|t| t.payload.compute_cycles as f64).collect::<Vec<_>>());
        // LU has a long critical path through the diagonal factorisations.
        assert!(stats.critical_path_weight > gemm_cycles(2) as f64 * 3.0);
        assert!(stats.ideal_parallelism > 1.0);
    }

    #[test]
    fn granularity_scales_cubically_with_block_size() {
        let fine = sparselu(8, 1).stats(16.0).mean_task_cycles;
        let coarse = sparselu(8, 16).stats(16.0).mean_task_cycles;
        assert!(coarse / fine > 500.0, "M16 tasks are ~16^3 bigger than M1 tasks");
    }

    #[test]
    fn paper_inputs_are_ten_and_valid() {
        let inputs = paper_input_sizes();
        assert_eq!(inputs.len(), 10);
        for (label, nb, m) in inputs {
            let p = sparselu(nb, m);
            p.validate().unwrap_or_else(|e| panic!("{label}: {e}"));
            assert!(p.task_count() > 50, "{label} should have a real task graph");
            assert!(p.task_count() < 60_000, "{label} must stay simulable");
        }
    }

    #[test]
    fn sparsity_skips_some_blocks() {
        let dense_count = {
            // A dense 6x6 LU would have sum_k (1 + 2(nb-k-1) + (nb-k-1)^2) tasks.
            let nb = 6usize;
            (0..nb).map(|k| 1 + 2 * (nb - k - 1) + (nb - k - 1) * (nb - k - 1)).sum::<usize>()
        };
        let sparse_count = sparselu(6, 2).task_count();
        assert!(sparse_count < dense_count, "sparsity must reduce the task count");
    }
}
