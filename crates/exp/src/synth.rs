//! Deterministic synthetic task-graph generation.
//!
//! The paper evaluates a fixed 37-workload catalog; exploring the design space (core counts,
//! tracker capacities, scheduling fabrics) needs workload *families* whose shape and size are
//! free parameters. Every generator here is a pure function of its [`SynthSpec`] and the
//! [`SimRng`] it is handed, so a sweep cell's program depends only on the sweep seed and the
//! cell's coordinates — never on evaluation order or worker count.
//!
//! Encoding: task `i` writes one private output address and reads the output addresses of its
//! predecessors, so the sequential-semantics reference graph of the generated program contains
//! exactly the intended RAW edges (each address has a single writer, hence no WAW/WAR edges).
//! Every family therefore respects the Picos descriptor limit by capping the in-degree at
//! [`MAX_IN_DEGREE`] (15 dependences = 1 write + 14 reads).

use tis_sim::SimRng;
use tis_taskmodel::{Dependence, Payload, ProgramBuilder, TaskProgram, MAX_DEPENDENCES};

/// Base address of the synthetic per-task output slots (distinct from the workload crates'
/// address ranges only for readability in traces; programs never share an address space).
const SYNTH_BASE: u64 = 0xD000_0000;

/// Output address of synthetic task `i`.
fn out_addr(i: usize) -> u64 {
    SYNTH_BASE + (i as u64) * 64
}

/// Maximum number of predecessors a synthetic task may read: one dependence slot is reserved
/// for the task's own output write.
pub const MAX_IN_DEGREE: usize = MAX_DEPENDENCES - 1;

/// How many preceding tasks an Erdős–Rényi task draws candidate edges from. Bounding the
/// window keeps generation `O(window × tasks)` instead of quadratic while preserving the
/// family's character (dense local dependence structure).
pub const ER_WINDOW: usize = 256;

/// The structural family of a synthetic graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynthFamily {
    /// A single dependence chain: task `i` reads task `i-1`. Zero parallelism; the pure
    /// scheduling-latency probe.
    Chain,
    /// An out-tree: task `i` reads its parent `(i-1)/arity`. Parallelism grows geometrically
    /// with depth.
    Tree {
        /// Fan-out of every node (≥ 1).
        arity: usize,
    },
    /// Repeated source → `width` middles → sink blocks, each sink feeding the next source.
    /// Alternates full fan-out with full fan-in, the classic reduction shape.
    Diamond {
        /// Number of parallel middle tasks per block (1 ..= [`MAX_IN_DEGREE`]).
        width: usize,
    },
    /// Layered fork-join: layers of `width` independent tasks separated by `taskwait`
    /// barriers — the shape OpenMP-style loop parallelism produces.
    ForkJoin {
        /// Tasks per layer (≥ 1).
        width: usize,
    },
    /// Windowed Erdős–Rényi DAG: each task draws a Bernoulli(`density`) edge from each of its
    /// up to [`ER_WINDOW`] most recent predecessors, capped at [`MAX_IN_DEGREE`] reads.
    ErdosRenyi {
        /// Edge probability per candidate predecessor (0.0 ..= 1.0).
        density: f64,
    },
}

impl SynthFamily {
    /// Stable short key naming the family in reports (`synth-chain`, `synth-er`, …).
    pub fn key(self) -> &'static str {
        match self {
            SynthFamily::Chain => "synth-chain",
            SynthFamily::Tree { .. } => "synth-tree",
            SynthFamily::Diamond { .. } => "synth-diamond",
            SynthFamily::ForkJoin { .. } => "synth-forkjoin",
            SynthFamily::ErdosRenyi { .. } => "synth-er",
        }
    }
}

/// A complete description of one synthetic workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthSpec {
    /// Graph family and its structural parameter.
    pub family: SynthFamily,
    /// Number of tasks to generate (≥ 1).
    pub tasks: usize,
    /// Mean compute cycles per task.
    pub task_cycles: u64,
    /// Relative half-width of the uniform task-size jitter (`0.0` = every task identical,
    /// `0.25` = sizes drawn from `[0.75, 1.25] × task_cycles`). Must be in `[0, 1)`.
    pub jitter: f64,
}

impl SynthSpec {
    /// A spec with no size jitter.
    pub const fn uniform(family: SynthFamily, tasks: usize, task_cycles: u64) -> Self {
        SynthSpec { family, tasks, task_cycles, jitter: 0.0 }
    }

    /// Human-readable instance label carrying every generation parameter, e.g.
    /// `synth-er(d=0.02) x384 t6000 j0.25` — two distinct specs never share a label, which
    /// keeps sweep rows and `bench-diff` keys unambiguous.
    pub fn name(&self) -> String {
        let family = match self.family {
            SynthFamily::Chain => "synth-chain".to_string(),
            SynthFamily::Tree { arity } => format!("synth-tree(a={arity})"),
            SynthFamily::Diamond { width } => format!("synth-diamond(w={width})"),
            SynthFamily::ForkJoin { width } => format!("synth-forkjoin(w={width})"),
            SynthFamily::ErdosRenyi { density } => format!("synth-er(d={density})"),
        };
        let jitter = if self.jitter > 0.0 { format!(" j{}", self.jitter) } else { String::new() };
        format!("{family} x{} t{}{jitter}", self.tasks, self.task_cycles)
    }

    /// Checks the generation parameters (graph-level soundness — cycles,
    /// dangling references, conflict coverage — is proven separately: every
    /// generated program is routed through the [`tis_analyze::analyze_graph`]
    /// preflight chokepoint at the end of [`SynthSpec::generate`]).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec (zero tasks or cycles, out-of-range density/jitter/width).
    pub(crate) fn assert_params(&self) {
        assert!(self.tasks > 0, "synthetic graph needs at least one task");
        assert!(self.task_cycles > 0, "tasks must cost cycles");
        assert!((0.0..1.0).contains(&self.jitter), "jitter must be in [0, 1)");
        match self.family {
            SynthFamily::Tree { arity } => assert!(arity >= 1, "tree arity must be at least 1"),
            SynthFamily::Diamond { width } => assert!(
                (1..=MAX_IN_DEGREE).contains(&width),
                "diamond width must be 1..={MAX_IN_DEGREE} (sink fan-in is capped by the \
                 Picos descriptor)"
            ),
            SynthFamily::ForkJoin { width } => assert!(width >= 1, "fork-join width must be at least 1"),
            SynthFamily::ErdosRenyi { density } => {
                assert!((0.0..=1.0).contains(&density), "density is a probability")
            }
            SynthFamily::Chain => {}
        }
    }

    /// An upper bound on the number of RAW edges any program generated from this spec can
    /// contain — the "declared density bound" the property tests pin.
    pub fn max_edges(&self) -> usize {
        let n = self.tasks;
        match self.family {
            SynthFamily::Chain | SynthFamily::Tree { .. } => n.saturating_sub(1),
            // Every task has at most MAX_IN_DEGREE predecessors by construction.
            SynthFamily::Diamond { .. } | SynthFamily::ErdosRenyi { .. } => n * MAX_IN_DEGREE,
            SynthFamily::ForkJoin { .. } => 0,
        }
    }

    /// Generates the task program, consuming randomness only from `rng`.
    ///
    /// Every generated program passes the [`tis_analyze::analyze_graph`]
    /// preflight before it is returned: an acyclic graph, no dangling or
    /// duplicate references, and every conflicting task pair covered by an
    /// ordering edge or barrier. A generator bug that breaks any of those
    /// panics here rather than producing a silently-racy sweep cell.
    pub fn generate(&self, rng: &mut SimRng) -> TaskProgram {
        self.assert_params();
        let n = self.tasks;
        let mut b = ProgramBuilder::new(self.name());
        for i in 0..n {
            if let SynthFamily::ForkJoin { width } = self.family {
                // Data-independent layers; the barrier provides the join.
                if i > 0 && i % width == 0 {
                    b.taskwait();
                }
            }
            let deps = self.task_deps(i, rng);
            b.spawn(Payload::compute(self.draw_cycles(rng)), deps);
        }
        b.taskwait();
        let program = b.build();
        if let Err(e) = tis_analyze::analyze_program(&program) {
            panic!("synthetic generator produced an unsound graph for {}: {e}", self.name());
        }
        program
    }

    /// The declared dependences of task `i`: its output write, then reads of its
    /// predecessors' outputs. Erdős–Rényi tasks consume `rng`; no other family draws.
    ///
    /// Shared by [`generate`](Self::generate) and the streaming source, so both emit the same
    /// descriptors and consume the RNG in the same order.
    pub(crate) fn task_deps(&self, i: usize, rng: &mut SimRng) -> Vec<Dependence> {
        let write = Dependence::write(out_addr(i));
        let read = |pred: usize| Dependence::read(out_addr(pred));
        match self.family {
            SynthFamily::Chain if i > 0 => vec![write, read(i - 1)],
            SynthFamily::Tree { arity } if i > 0 => vec![write, read((i - 1) / arity)],
            SynthFamily::Chain | SynthFamily::Tree { .. } | SynthFamily::ForkJoin { .. } => {
                vec![write]
            }
            SynthFamily::Diamond { width } => {
                // Block layout: [source, width × middle, sink], truncated at the task count.
                let block_len = width + 2;
                let block_start = (i / block_len) * block_len;
                let pos = i - block_start;
                let mut deps = vec![write];
                if pos == 0 {
                    // Source reads the previous block's sink, if one exists.
                    if block_start > 0 {
                        deps.push(read(block_start - 1));
                    }
                } else if pos <= width {
                    deps.push(read(block_start));
                } else {
                    deps.extend((block_start + 1..i).map(read));
                }
                deps
            }
            SynthFamily::ErdosRenyi { density } => {
                // One draw per candidate, oldest first, stopping once the descriptor is full:
                // the draw count and order are part of the family's RNG contract.
                let threshold = SimRng::chance_threshold(density);
                let mut deps = Vec::with_capacity(MAX_DEPENDENCES);
                deps.push(write);
                for pred in i.saturating_sub(ER_WINDOW)..i {
                    if deps.len() > MAX_IN_DEGREE {
                        break;
                    }
                    if rng.chance_below(threshold) {
                        deps.push(read(pred));
                    }
                }
                deps
            }
        }
    }

    /// Draws one task's compute cycles (mean `task_cycles`, uniform ±`jitter`).
    pub(crate) fn draw_cycles(&self, rng: &mut SimRng) -> u64 {
        if self.jitter == 0.0 {
            return self.task_cycles;
        }
        let half = (self.task_cycles as f64 * self.jitter) as u64;
        let lo = self.task_cycles.saturating_sub(half).max(1);
        let hi = self.task_cycles + half;
        rng.range(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::TaskId;

    fn gen(spec: SynthSpec) -> TaskProgram {
        spec.generate(&mut SimRng::new(0xDEC0DE))
    }

    #[test]
    fn chain_is_a_single_dependence_chain() {
        let p = gen(SynthSpec::uniform(SynthFamily::Chain, 20, 500));
        p.validate().unwrap();
        let g = p.reference_graph();
        assert_eq!(g.task_count(), 20);
        assert_eq!(g.edge_count(), 19);
        let s = g.stats(&[1.0; 20]);
        assert_eq!(s.max_width, 1, "a chain has no parallelism");
    }

    #[test]
    fn tree_fans_out_geometrically() {
        let p = gen(SynthSpec::uniform(SynthFamily::Tree { arity: 3 }, 40, 500));
        let g = p.reference_graph();
        assert_eq!(g.edge_count(), 39, "a tree has n-1 edges");
        assert!(g.has_edge(TaskId(0), TaskId(1)) && g.has_edge(TaskId(0), TaskId(3)));
        assert!(g.stats(&vec![1.0; 40]).max_width > 8);
    }

    #[test]
    fn diamond_alternates_fan_out_and_fan_in() {
        let width = 4;
        let p = gen(SynthSpec::uniform(SynthFamily::Diamond { width }, 12, 500));
        let g = p.reference_graph();
        // Block 0: source 0, middles 1..=4, sink 5; block 1: source 6 reads sink 5.
        for mid in 1..=width {
            assert!(g.has_edge(TaskId(0), TaskId(mid as u64)), "source feeds middle {mid}");
            assert!(g.has_edge(TaskId(mid as u64), TaskId(5)), "middle {mid} feeds the sink");
        }
        assert!(g.has_edge(TaskId(5), TaskId(6)), "sink feeds the next source");
        assert_eq!(g.stats(&[1.0; 12]).max_width, width);
    }

    #[test]
    fn forkjoin_layers_are_barrier_separated() {
        let p = gen(SynthSpec::uniform(SynthFamily::ForkJoin { width: 8 }, 32, 500));
        let g = p.reference_graph();
        assert_eq!(g.edge_count(), 0, "fork-join parallelism is phase-based, not edge-based");
        let s = g.stats(&vec![1.0; 32]);
        assert_eq!(s.phases, 4, "one phase per layer (the trailing taskwait spawns no tasks)");
        assert_eq!(s.max_width, 8);
    }

    #[test]
    fn erdos_renyi_extremes_are_exact() {
        let empty = gen(SynthSpec::uniform(SynthFamily::ErdosRenyi { density: 0.0 }, 30, 500));
        assert_eq!(empty.reference_graph().edge_count(), 0);
        let full = gen(SynthSpec::uniform(SynthFamily::ErdosRenyi { density: 1.0 }, 30, 500));
        let g = full.reference_graph();
        for v in 1..30usize {
            assert_eq!(
                g.predecessor_count(TaskId(v as u64)),
                v.min(MAX_IN_DEGREE),
                "at density 1 every task saturates its in-degree cap"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_rng() {
        let spec = SynthSpec {
            family: SynthFamily::ErdosRenyi { density: 0.1 },
            tasks: 60,
            task_cycles: 2_000,
            jitter: 0.5,
        };
        let a = spec.generate(&mut SimRng::new(7));
        let b = spec.generate(&mut SimRng::new(7));
        let c = spec.generate(&mut SimRng::new(8));
        assert_eq!(a, b, "same seed, same program");
        assert_ne!(a, c, "different seed, different jitter/edges");
    }

    #[test]
    fn jitter_respects_mean_band() {
        let spec = SynthSpec {
            family: SynthFamily::Chain,
            tasks: 200,
            task_cycles: 1_000,
            jitter: 0.25,
        };
        let p = gen(spec);
        let stats = p.stats(16.0);
        assert!(stats.min_task_cycles >= 750 && stats.max_task_cycles <= 1_250);
        assert!((stats.mean_task_cycles - 1_000.0).abs() < 100.0, "mean stays near the target");
    }

    #[test]
    fn names_and_keys_are_stable() {
        let spec = SynthSpec::uniform(SynthFamily::ErdosRenyi { density: 0.02 }, 384, 6_000);
        assert_eq!(spec.name(), "synth-er(d=0.02) x384 t6000");
        assert_eq!(spec.family.key(), "synth-er");
        assert_eq!(SynthFamily::ForkJoin { width: 3 }.key(), "synth-forkjoin");
    }

    #[test]
    #[should_panic(expected = "diamond width")]
    fn oversized_diamond_is_rejected() {
        gen(SynthSpec::uniform(SynthFamily::Diamond { width: MAX_IN_DEGREE + 1 }, 10, 100));
    }
}
