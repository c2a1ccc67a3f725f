//! The full 37-workload evaluation catalog of Figure 9.

use tis_taskmodel::TaskProgram;

use crate::{blackscholes, jacobi, sparselu, stream};

/// One workload instance of the paper's evaluation: a benchmark, the paper's input label, and
/// the generated task program.
#[derive(Debug, Clone)]
pub struct WorkloadInstance {
    /// Benchmark name (`"blackscholes"`, `"jacobi"`, `"sparselu"`, `"stream-barr"`,
    /// `"stream-deps"`).
    pub benchmark: &'static str,
    /// Input label as it appears on the x-axis of Figure 9 (e.g. `"4K B64"`, `"N32 M4"`).
    pub input: String,
    /// The generated task program.
    pub program: TaskProgram,
}

impl WorkloadInstance {
    /// `benchmark input` combined label.
    pub fn label(&self) -> String {
        format!("{} {}", self.benchmark, self.input)
    }
}

/// Generates all 37 workloads of Figure 9 (12 blackscholes + 3 jacobi + 10 sparselu +
/// 6 stream-barr + 6 stream-deps), sized as in the paper's 8-core evaluation.
pub fn paper_catalog() -> Vec<WorkloadInstance> {
    paper_catalog_for_cores(8)
}

/// Multiplier applied to each benchmark's *parallel* dimension so that a machine with `cores`
/// cores gets at least as much concurrent work per core as the paper's 8-core prototype did.
/// Machines up to 8 cores use the paper's inputs unchanged.
pub fn parallel_scale_for_cores(cores: usize) -> usize {
    cores.div_ceil(8).max(1)
}

/// The Figure 9 catalog with every input given a **core-count context**: the paper sized its
/// inputs for the 8-core prototype, so replaying them unmodified on a 64-core machine measures
/// starvation, not scheduling. This generator multiplies each benchmark's parallel dimension
/// (option count, stencil rows, matrix blocks, stream blocks) by
/// [`parallel_scale_for_cores`] while keeping the per-task granularity — the axis the paper's
/// analysis is built on — unchanged. For `cores <= 8` the result is exactly [`paper_catalog`];
/// the input labels always keep the paper's names so sweep rows stay comparable across core
/// counts. The input grids themselves live in each benchmark module's `paper_input_sizes`,
/// and [`entry_for_cores`] is the only path from a grid entry to its program.
pub fn paper_catalog_for_cores(cores: usize) -> Vec<WorkloadInstance> {
    let mut all = Vec::with_capacity(37);
    for (label, _, _) in blackscholes::paper_input_sizes() {
        all.push(entry("blackscholes", &label, cores));
    }
    for (label, _) in jacobi::paper_input_sizes() {
        all.push(entry("jacobi", &label, cores));
    }
    for (label, _, _) in sparselu::paper_input_sizes() {
        all.push(entry("sparselu", &label, cores));
    }
    for benchmark in ["stream-barr", "stream-deps"] {
        for (label, _, _) in stream::paper_input_sizes() {
            all.push(entry(benchmark, label, cores));
        }
    }
    all
}

fn entry(benchmark: &'static str, input: &str, cores: usize) -> WorkloadInstance {
    entry_for_cores(benchmark, input, cores)
        .unwrap_or_else(|| panic!("catalog grid names its own entries: {benchmark} {input}"))
}

/// Generates **one** catalog entry with core-count context, without building the other 36
/// programs — what sweep cells use to instantiate their workload. Returns `None` when no
/// catalog entry has that benchmark/input label.
pub fn entry_for_cores(benchmark: &str, input: &str, cores: usize) -> Option<WorkloadInstance> {
    assert!(cores > 0, "machine needs at least one core");
    let s = parallel_scale_for_cores(cores);
    let (benchmark, program) = match benchmark {
        "blackscholes" => {
            let (_, options, block) =
                blackscholes::paper_input_sizes().into_iter().find(|(l, ..)| l == input)?;
            ("blackscholes", blackscholes::blackscholes(options * s, block))
        }
        "jacobi" => {
            let (_, n) = jacobi::paper_input_sizes().into_iter().find(|(l, _)| l == input)?;
            ("jacobi", jacobi::paper_input(n, s))
        }
        "sparselu" => {
            let (_, nb, m) =
                sparselu::paper_input_sizes().into_iter().find(|(l, ..)| l == input)?;
            // SparseLU's exploitable width grows with the square of the block count, so the
            // block count only needs to grow with the square root of the machine scale (and
            // the task count grows cubically — scaling `nb` linearly would make 64-core cells
            // intractable).
            let nb_scale = (1..=s).find(|k| k * k >= s).unwrap_or(s);
            ("sparselu", sparselu::sparselu(nb * nb_scale, m))
        }
        "stream-barr" | "stream-deps" => {
            let (_, blocks, elems) =
                stream::paper_input_sizes().into_iter().find(|(l, ..)| *l == input)?;
            let barriers = benchmark == "stream-barr";
            (
                if barriers { "stream-barr" } else { "stream-deps" },
                stream::stream(blocks * s, elems, barriers),
            )
        }
        _ => return None,
    };
    let instance = WorkloadInstance { benchmark, input: input.to_string(), program };
    // Every catalog program leaves through this chokepoint, so each one is proven acyclic,
    // reference-clean, and conflict-covered before anything simulates it.
    if let Err(e) = tis_analyze::analyze_program(&instance.program) {
        panic!("catalog generator produced an unsound graph for {}: {e}", instance.label());
    }
    Some(instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_exactly_37_workloads() {
        let c = paper_catalog();
        assert_eq!(c.len(), 37, "the paper evaluates 37 workloads");
        let per_bench = |name: &str| c.iter().filter(|w| w.benchmark == name).count();
        assert_eq!(per_bench("blackscholes"), 12);
        assert_eq!(per_bench("jacobi"), 3);
        assert_eq!(per_bench("sparselu"), 10);
        assert_eq!(per_bench("stream-barr"), 6);
        assert_eq!(per_bench("stream-deps"), 6);
    }

    #[test]
    fn every_workload_is_valid_and_nontrivial() {
        for w in paper_catalog() {
            w.program.validate().unwrap_or_else(|e| panic!("{}: {e}", w.label()));
            assert!(w.program.task_count() >= 10, "{} has too few tasks", w.label());
            assert!(!w.label().is_empty());
        }
    }

    #[test]
    fn task_granularities_span_several_orders_of_magnitude() {
        // Figure 8's x-axis runs from ~10^2 to ~10^7 cycles; the catalog must cover a wide span.
        let sizes: Vec<f64> = paper_catalog()
            .iter()
            .map(|w| w.program.stats(16.0).mean_task_cycles)
            .collect();
        let min = sizes.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = sizes.iter().cloned().fold(0.0, f64::max);
        assert!(min < 5_000.0, "the catalog must include fine-grained workloads (min {min:.0})");
        assert!(max > 50_000.0, "the catalog must include coarse-grained workloads (max {max:.0})");
        assert!(max / min > 100.0, "granularity span too narrow: {min:.0}..{max:.0}");
    }

    #[test]
    fn core_count_context_is_identity_at_or_below_eight_cores() {
        assert_eq!(parallel_scale_for_cores(1), 1);
        assert_eq!(parallel_scale_for_cores(8), 1);
        assert_eq!(parallel_scale_for_cores(9), 2);
        assert_eq!(parallel_scale_for_cores(64), 8);
        // The catalog must agree with each module's paper_input_sizes() fed to its generator
        // exactly — the grids have a single source of truth, and this pins the scale-1
        // passthrough of entry_for_cores' dispatch against the generators called directly.
        let mut reference: Vec<(&'static str, String, tis_taskmodel::TaskProgram)> = Vec::new();
        for (input, options, block) in blackscholes::paper_input_sizes() {
            reference.push(("blackscholes", input, blackscholes::blackscholes(options, block)));
        }
        for (input, n) in jacobi::paper_input_sizes() {
            reference.push(("jacobi", input, jacobi::paper_input(n, 1)));
        }
        for (input, nb, m) in sparselu::paper_input_sizes() {
            reference.push(("sparselu", input, sparselu::sparselu(nb, m)));
        }
        for (benchmark, barriers) in [("stream-barr", true), ("stream-deps", false)] {
            for (input, blocks, elems) in stream::paper_input_sizes() {
                reference.push((benchmark, input.to_string(), stream::stream(blocks, elems, barriers)));
            }
        }
        for catalog in [paper_catalog(), paper_catalog_for_cores(1)] {
            assert_eq!(catalog.len(), reference.len());
            for (w, (benchmark, input, program)) in catalog.iter().zip(&reference) {
                assert_eq!(w.benchmark, *benchmark);
                assert_eq!(&w.input, input);
                assert_eq!(&w.program, program, "{} must be untouched below 8 cores", w.label());
            }
        }
    }

    #[test]
    fn entry_for_cores_matches_the_full_catalog() {
        for cores in [4usize, 64] {
            for w in paper_catalog_for_cores(cores) {
                let single = entry_for_cores(w.benchmark, &w.input, cores)
                    .unwrap_or_else(|| panic!("{} missing from entry_for_cores", w.label()));
                assert_eq!(single.program, w.program, "{} diverges at {cores} cores", w.label());
            }
        }
        assert!(entry_for_cores("blackscholes", "9K B7", 8).is_none());
        assert!(entry_for_cores("no-such-bench", "4K B64", 8).is_none());
    }

    #[test]
    fn scaled_catalog_keeps_labels_and_granularity_but_widens_parallelism() {
        let base = paper_catalog();
        let scaled = paper_catalog_for_cores(64);
        assert_eq!(scaled.len(), base.len());
        for (b, s) in base.iter().zip(scaled.iter()) {
            assert_eq!(b.label(), s.label(), "labels key sweep rows across core counts");
            s.program.validate().unwrap_or_else(|e| panic!("{}: {e}", s.label()));
            assert!(
                s.program.task_count() > b.program.task_count(),
                "{}: 64-core input must carry more tasks ({} vs {})",
                s.label(),
                s.program.task_count(),
                b.program.task_count()
            );
            // Granularity (the paper's analysis axis) stays put: mean task size within 2x.
            let bm = b.program.stats(16.0).mean_task_cycles;
            let sm = s.program.stats(16.0).mean_task_cycles;
            assert!(
                sm / bm < 2.0 && bm / sm < 2.0,
                "{}: scaling must not change granularity ({bm:.0} -> {sm:.0})",
                s.label()
            );
        }
    }

    #[test]
    fn total_catalog_size_is_simulable() {
        let total_tasks: usize = paper_catalog().iter().map(|w| w.program.task_count()).sum();
        assert!(total_tasks < 150_000, "catalog too large to simulate repeatedly: {total_tasks}");
        assert!(total_tasks > 10_000, "catalog suspiciously small: {total_tasks}");
    }
}
