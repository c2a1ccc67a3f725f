//! Streaming synthetic workloads: million-task graphs in `O(window)` memory.
//!
//! [`SynthSpec::generate`] materializes every descriptor before the first simulated cycle,
//! which caps a cell at however many tasks fit in host memory. [`StreamingSynth`] is the
//! [`TaskSource`] counterpart for the families whose structure is *local* — chain, layered
//! fork-join, and windowed Erdős–Rényi — generating each descriptor the moment the runtime
//! pulls it and freeing it on retire, so only the in-flight window is ever resident.
//!
//! Two invariants make the streamed and materialized paths interchangeable:
//!
//! * **Bit-identical op streams.** The source consumes its [`SimRng`] in exactly the order
//!   `generate` does (per task: edge draws, then the size draw), builds each descriptor's
//!   dependences with the same `SynthSpec::task_deps` (one private write per task plus reads
//!   of predecessor outputs), and emits the same `taskwait` placement. With a window the run
//!   never fills, a streamed cell's [`ExecutionReport`](tis_machine::ExecutionReport) is
//!   byte-identical to its materialized twin.
//! * **Inline validation.** Where `generate` routes the finished program through the
//!   [`tis_analyze::analyze_program`] preflight, a stream cannot be scanned up front: every
//!   spawn instead passes through a [`WindowedPreflight`], which proves the same structural
//!   properties and enumerates the conflict frontier over a bounded history window. A
//!   generator bug panics at the offending spawn rather than producing a racy cell.
//!
//! Blocking cannot deadlock: a streamed task only reads outputs of *earlier* tasks, so when
//! the window is full the in-flight set always contains runnable work and the runtime drains
//! it exactly as it does when the hardware tracker refuses a submission.

use tis_analyze::WindowedPreflight;
use tis_sim::{FxHashMap, SimRng};
use tis_taskmodel::{Payload, ProgramOp, SourcePoll, TaskId, TaskSource, TaskSpec, MAX_DEPENDENCES};

use crate::synth::{SynthFamily, SynthSpec, ER_WINDOW};

/// A bounded-residency [`TaskSource`] over a streamable [`SynthSpec`].
///
/// Streamable families are [`SynthFamily::Chain`], [`SynthFamily::ForkJoin`] and
/// [`SynthFamily::ErdosRenyi`]; [`new`](StreamingSynth::new) panics on the others (their
/// fan-in structure is what the materializing generator is for).
#[derive(Debug)]
pub struct StreamingSynth {
    spec: SynthSpec,
    name: String,
    rng: SimRng,
    /// Maximum number of resident (pulled, unretired) descriptors before `poll` blocks.
    window: usize,
    /// Next task to emit; every id below it has been pulled.
    next_id: u64,
    /// Whether the barrier preceding `next_id`'s layer has been emitted (fork-join only).
    layer_barrier_emitted: bool,
    /// Whether the trailing `taskwait` that ends every synthetic program has been emitted.
    trailing_wait_emitted: bool,
    resident: FxHashMap<u64, TaskSpec>,
    peak_resident: usize,
    preflight: WindowedPreflight,
}

impl StreamingSynth {
    /// Creates a streaming source for `spec`, blocking whenever more than `window` descriptors
    /// are in flight. Randomness comes only from `rng`, in the exact order
    /// [`SynthSpec::generate`] would consume it.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate spec, a zero window, or a non-streamable family.
    pub fn new(spec: SynthSpec, window: usize, rng: SimRng) -> Self {
        spec.assert_params();
        assert!(window > 0, "a streaming source needs a nonzero in-flight window");
        assert!(
            matches!(
                spec.family,
                SynthFamily::Chain | SynthFamily::ForkJoin { .. } | SynthFamily::ErdosRenyi { .. }
            ),
            "{} is not a streamable family (tree and diamond graphs are materialized)",
            spec.family.key()
        );
        StreamingSynth {
            name: spec.name(),
            spec,
            rng,
            window,
            next_id: 0,
            layer_barrier_emitted: false,
            trailing_wait_emitted: false,
            resident: FxHashMap::default(),
            peak_resident: 0,
            // The preflight's history window tracks the dependence structure's reach, not the
            // residency window: ER reads up to ER_WINDOW back, the others one task back.
            preflight: WindowedPreflight::new(ER_WINDOW.max(window)),
        }
    }

    /// The generation parameters this source streams.
    pub fn synth_spec(&self) -> &SynthSpec {
        &self.spec
    }

    /// The completed windowed-preflight summary; call once the stream is exhausted.
    pub fn preflight_summary(&self) -> tis_analyze::WindowedAnalysis {
        self.preflight.summary()
    }

    /// Generates the descriptor of task `next_id`, consuming RNG in `generate` order.
    fn next_spec(&mut self) -> TaskSpec {
        let deps = self.spec.task_deps(self.next_id as usize, &mut self.rng);
        let payload = Payload::compute(self.spec.draw_cycles(&mut self.rng));
        TaskSpec::new(TaskId(self.next_id), payload, deps)
    }

    /// Whether a fork-join layer barrier precedes task `next_id`.
    fn barrier_due(&self) -> bool {
        match self.spec.family {
            SynthFamily::ForkJoin { width } => {
                self.next_id > 0 && self.next_id.is_multiple_of(width as u64)
            }
            _ => false,
        }
    }
}

impl TaskSource for StreamingSynth {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> SourcePoll {
        if self.next_id as usize >= self.spec.tasks {
            // Every synthetic program ends with one trailing taskwait; after it the source
            // is fused Done.
            if self.trailing_wait_emitted {
                return SourcePoll::Done;
            }
            self.trailing_wait_emitted = true;
            self.preflight.observe_taskwait();
            return SourcePoll::Op(ProgramOp::TaskWait);
        }
        if self.barrier_due() && !self.layer_barrier_emitted {
            self.layer_barrier_emitted = true;
            self.preflight.observe_taskwait();
            return SourcePoll::Op(ProgramOp::TaskWait);
        }
        if self.resident.len() >= self.window {
            return SourcePoll::Blocked;
        }
        let spec = self.next_spec();
        if let Err(e) = self.preflight.observe_spawn(self.next_id, &spec.deps) {
            panic!("streaming generator produced an unsound spawn for {}: {e:?}", self.name);
        }
        self.next_id += 1;
        self.layer_barrier_emitted = false;
        self.resident.insert(spec.id.raw(), spec.clone());
        self.peak_resident = self.peak_resident.max(self.resident.len());
        SourcePoll::Op(ProgramOp::Spawn(spec))
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        self.resident
            .get(&sw_id)
            .unwrap_or_else(|| panic!("T{sw_id} is not resident (pulled and unretired)"))
    }

    fn retire(&mut self, sw_id: u64) {
        let freed = self.resident.remove(&sw_id);
        debug_assert!(freed.is_some(), "retire of non-resident task T{sw_id}");
    }

    fn blocked_until(&self) -> Option<u64> {
        // The source only blocks on a full window, and only a retire frees a slot.
        Some(u64::MAX)
    }

    fn max_deps(&self) -> usize {
        match self.spec.family {
            SynthFamily::Chain => 2,
            SynthFamily::ForkJoin { .. } => 1,
            // 1 write + up to MAX_IN_DEGREE reads — the descriptor-format cap.
            _ => MAX_DEPENDENCES,
        }
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn peak_resident(&self) -> usize {
        self.peak_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut src: StreamingSynth) -> Vec<ProgramOp> {
        let mut ops = Vec::new();
        loop {
            match src.poll() {
                SourcePoll::Op(op) => {
                    if let ProgramOp::Spawn(s) = &op {
                        let id = s.id.raw();
                        src.retire(id); // retire immediately: the window never fills
                    }
                    ops.push(op);
                }
                SourcePoll::Blocked => panic!("window cannot fill with immediate retirement"),
                SourcePoll::Done => break,
            }
        }
        assert_eq!(src.poll(), SourcePoll::Done, "sources are fused");
        ops
    }

    #[test]
    fn streamed_ops_equal_generated_ops_for_every_streamable_family() {
        // Density 1.0 reaches the in-degree cap on every task past the first few, so the
        // draw loop's early break is exercised on both paths.
        let families = [
            SynthFamily::Chain,
            SynthFamily::ForkJoin { width: 7 },
            SynthFamily::ErdosRenyi { density: 0.0 },
            SynthFamily::ErdosRenyi { density: 0.05 },
            SynthFamily::ErdosRenyi { density: 0.08 },
            SynthFamily::ErdosRenyi { density: 0.5 },
            SynthFamily::ErdosRenyi { density: 1.0 },
        ];
        for family in families {
            for seed in [0xFEED, 1, 7, 0xDEAD_BEEF] {
                let spec = SynthSpec { family, tasks: 300, task_cycles: 2_000, jitter: 0.3 };
                let program = spec.generate(&mut SimRng::new(seed));
                let streamed = drain(StreamingSynth::new(spec, 4096, SimRng::new(seed)));
                assert_eq!(
                    streamed,
                    program.ops().to_vec(),
                    "{} seed {seed}: streamed op sequence must be bit-identical to the \
                     materialized program",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn window_blocks_and_frees_exactly_at_capacity() {
        let spec = SynthSpec::uniform(SynthFamily::Chain, 10, 500);
        let mut src = StreamingSynth::new(spec, 3, SimRng::new(1));
        for _ in 0..3 {
            assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        }
        assert_eq!(src.poll(), SourcePoll::Blocked);
        assert_eq!(src.resident(), 3);
        src.retire(0);
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert_eq!(src.peak_resident(), 3);
        assert_eq!(src.spec(2).payload.compute_cycles, 500);
    }

    #[test]
    fn preflight_summary_sees_the_whole_stream() {
        let spec = SynthSpec::uniform(SynthFamily::ForkJoin { width: 4 }, 16, 100);
        let src = StreamingSynth::new(spec, 64, SimRng::new(2));
        let ops = drain_count(src);
        assert_eq!(ops.0, 16);
        assert_eq!(ops.1, 4); // three layer barriers + the trailing taskwait
    }

    fn drain_count(mut src: StreamingSynth) -> (u64, u64) {
        loop {
            match src.poll() {
                SourcePoll::Op(ProgramOp::Spawn(s)) => {
                    let id = s.id.raw();
                    src.retire(id);
                }
                SourcePoll::Op(ProgramOp::TaskWait) => {}
                SourcePoll::Blocked => unreachable!(),
                SourcePoll::Done => break,
            }
        }
        let a = src.preflight_summary();
        (a.tasks, a.taskwaits)
    }

    #[test]
    #[should_panic(expected = "not a streamable family")]
    fn tree_is_rejected() {
        StreamingSynth::new(
            SynthSpec::uniform(SynthFamily::Tree { arity: 2 }, 10, 100),
            8,
            SimRng::new(0),
        );
    }
}
