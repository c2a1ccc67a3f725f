//! Incremental preflight for streamed task sources.
//!
//! [`analyze_graph`](crate::analyze_graph) needs the whole program materialized: it builds the
//! reference graph, enumerates every conflict pair, and proves coverage by edge, phase, or
//! transitive path. A streamed million-task workload never exists in memory all at once, so the
//! streaming entry points use this module instead: a [`WindowedPreflight`] observes each spawn
//! as the source generates it, holding only a bounded history window of address state.
//!
//! # What a window can and cannot prove
//!
//! Within the window the checker proves exactly what the full analysis proves *structurally*:
//! dense sequential IDs, the per-task dependence cap, and no duplicate declared addresses. For
//! conflict coverage it enumerates the same writer/reader frontier as
//! [`conflict_frontier`](crate::conflict_frontier), but only over pairs whose earlier endpoint
//! is still inside the window; pairs separated by a `taskwait` are classified as phase-covered,
//! the rest as window-covered.
//!
//! What it *cannot* see is a conflict whose earlier access aged out of the window before the
//! later task spawned. Those are counted ([`WindowedAnalysis::aged_out_addresses`]), not
//! errored, because in a streamed run they are still safe by construction: a streamed task may
//! only depend on earlier tasks, so at the moment the later task is submitted its conflicting
//! predecessor is either still in the tracker (which orders the pair with a real edge) or
//! already retired (which is a happens-before ordering by definition). The window bounds what
//! preflight can *prove*, not what the runtime *enforces*.

use tis_sim::FxHashMap;
use tis_taskmodel::{DepAddr, Dependence, MAX_DEPENDENCES};

use crate::graph::GraphError;

/// Per-address frontier state, the incremental analogue of the address slot of the
/// [`FrontierWalker`](tis_taskmodel::FrontierWalker) that
/// [`conflict_frontier`](crate::conflict_frontier) runs.
///
/// The readers since the last write are kept as counts, not a list: a later write only needs
/// to know how many of them share its phase. Readers arrive in spawn order and phases never
/// decrease, so every reader outside the newest-phase run belongs to an earlier phase.
#[derive(Debug, Clone, Default)]
struct AddrState {
    /// Phase of the most recent writer of the address.
    last_writer_phase: Option<usize>,
    /// Readers since that write.
    readers: u64,
    /// Phase of the newest reader to arrive.
    newest_reader_phase: usize,
    /// How many of `readers` are in `newest_reader_phase` (zero when `readers` is).
    newest_phase_readers: u64,
    /// Most recent task (of any direction) to touch the address, for age-out.
    last_touch: u64,
}

/// Incremental structural + conflict-frontier checker for a streamed spawn sequence.
///
/// Feed every spawn through [`observe_spawn`](WindowedPreflight::observe_spawn) and every
/// barrier through [`observe_taskwait`](WindowedPreflight::observe_taskwait); call
/// [`summary`](WindowedPreflight::summary) when the source is exhausted. Memory stays
/// `O(window x max_deps)` regardless of how many tasks stream through.
#[derive(Debug, Clone)]
pub struct WindowedPreflight {
    /// History window in tasks: address state older than this is discarded.
    window: usize,
    /// Next expected task id (ids must be dense `0, 1, 2, ...` in spawn order).
    next_id: u64,
    /// Current taskwait phase.
    phase: usize,
    taskwaits: u64,
    frontier: FxHashMap<DepAddr, AddrState>,
    conflict_pairs: u64,
    covered_in_window: u64,
    covered_by_phase: u64,
    aged_out_addresses: u64,
    peak_tracked_addresses: usize,
}

/// Summary of a completed windowed preflight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedAnalysis {
    /// Tasks observed.
    pub tasks: u64,
    /// Taskwait barriers observed.
    pub taskwaits: u64,
    /// Phases the stream was divided into (`taskwaits + 1`).
    pub phases: u64,
    /// Conflict pairs enumerated inside the window (same-address, at least one write).
    pub conflict_pairs: u64,
    /// Conflict pairs whose endpoints share a phase: the runtime must order these with a real
    /// dependence edge, and the windowed frontier proves the pair was visible to it.
    pub covered_in_window: u64,
    /// Conflict pairs separated by at least one `taskwait`: ordered by the barrier.
    pub covered_by_phase: u64,
    /// Addresses whose frontier state aged out of the window while the stream continued. Any
    /// later conflict on such an address is unprovable per-window (though still ordered by
    /// construction in a streamed run — see the module docs).
    pub aged_out_addresses: u64,
    /// History window the analysis ran with.
    pub window: usize,
    /// High-water mark of tracked addresses — the checker's own memory proxy.
    pub peak_tracked_addresses: usize,
}

impl WindowedPreflight {
    /// Creates a checker with a history window of `window` tasks (clamped to at least 1).
    pub fn new(window: usize) -> Self {
        WindowedPreflight {
            window: window.max(1),
            next_id: 0,
            phase: 0,
            taskwaits: 0,
            frontier: FxHashMap::default(),
            conflict_pairs: 0,
            covered_in_window: 0,
            covered_by_phase: 0,
            aged_out_addresses: 0,
            peak_tracked_addresses: 0,
        }
    }

    /// Observes the next spawned task. `sw_id` must be the next dense id; `deps` are the
    /// task's declared accesses in declaration order.
    pub fn observe_spawn(&mut self, sw_id: u64, deps: &[Dependence]) -> Result<(), GraphError> {
        if sw_id != self.next_id {
            return Err(GraphError::Malformed {
                detail: format!(
                    "streamed task ids must be dense and sequential: expected T{}, got T{sw_id}",
                    self.next_id
                ),
            });
        }
        if deps.len() > MAX_DEPENDENCES {
            return Err(GraphError::Malformed {
                detail: format!(
                    "T{sw_id} declares {} dependences, above the descriptor limit of {MAX_DEPENDENCES}",
                    deps.len()
                ),
            });
        }
        for (i, d) in deps.iter().enumerate() {
            if deps[..i].iter().any(|earlier| earlier.addr == d.addr) {
                return Err(GraphError::DuplicateDependence { task: sw_id as usize, addr: d.addr });
            }
        }
        self.next_id += 1;

        let phase = self.phase;
        let (mut in_window, mut by_phase) = (0u64, 0u64);
        for d in deps {
            let state = self.frontier.entry(d.addr).or_default();
            // Enumerate the frontier pairs this access closes, mirroring `conflict_frontier`:
            // a write conflicts with the previous writer and every reader since; a read
            // conflicts with the previous writer only.
            match state.last_writer_phase {
                Some(wp) if wp < phase => by_phase += 1,
                Some(_) => in_window += 1,
                None => {}
            }
            if d.dir.writes() {
                let same_phase =
                    if state.newest_reader_phase == phase { state.newest_phase_readers } else { 0 };
                in_window += same_phase;
                by_phase += state.readers - same_phase;
                // An InOut task's read needs no separate frontier entry: the write already
                // pairs every later access with it through `last_writer_phase`.
                state.last_writer_phase = Some(phase);
                state.readers = 0;
                state.newest_phase_readers = 0;
            } else {
                if state.newest_reader_phase != phase {
                    state.newest_reader_phase = phase;
                    state.newest_phase_readers = 0;
                }
                state.newest_phase_readers += 1;
                state.readers += 1;
            }
            state.last_touch = sw_id;
        }
        self.conflict_pairs += in_window + by_phase;
        self.covered_in_window += in_window;
        self.covered_by_phase += by_phase;
        self.peak_tracked_addresses = self.peak_tracked_addresses.max(self.frontier.len());

        // Amortised age-out sweep: once per window's worth of spawns, drop address state no
        // task inside the window has touched. Between sweeps the map holds at most two
        // windows' worth of addresses, so memory stays bounded.
        if self.next_id.is_multiple_of(self.window as u64) {
            let horizon = self.next_id.saturating_sub(self.window as u64);
            let before = self.frontier.len();
            self.frontier.retain(|_, s| s.last_touch >= horizon);
            self.aged_out_addresses += (before - self.frontier.len()) as u64;
        }
        Ok(())
    }

    /// Observes a `taskwait` barrier: later tasks are phase-ordered after earlier ones.
    pub fn observe_taskwait(&mut self) {
        self.taskwaits += 1;
        self.phase += 1;
    }

    /// The summary of every spawn and barrier observed so far; once the source is exhausted,
    /// the summary of the whole stream.
    pub fn summary(&self) -> WindowedAnalysis {
        WindowedAnalysis {
            tasks: self.next_id,
            taskwaits: self.taskwaits,
            phases: self.taskwaits + 1,
            conflict_pairs: self.conflict_pairs,
            covered_in_window: self.covered_in_window,
            covered_by_phase: self.covered_by_phase,
            aged_out_addresses: self.aged_out_addresses,
            window: self.window,
            peak_tracked_addresses: self.peak_tracked_addresses,
        }
    }
}

/// The list-based preflight the count-based [`AddrState`] replaced, kept as the oracle the
/// differential property test compares against: every reader since the last write is
/// remembered with its phase, and a write classifies each one individually.
#[cfg(test)]
mod reference {
    use std::collections::HashMap;

    use tis_taskmodel::{DepAddr, Dependence, MAX_DEPENDENCES};

    use super::WindowedAnalysis;
    use crate::graph::GraphError;

    #[derive(Debug, Clone, Default)]
    struct AddrState {
        last_writer: Option<(u64, usize)>,
        readers_since_write: Vec<(u64, usize)>,
        last_touch: u64,
    }

    #[derive(Debug, Clone)]
    pub(super) struct VecPreflight {
        window: usize,
        next_id: u64,
        phase: usize,
        taskwaits: u64,
        frontier: HashMap<DepAddr, AddrState>,
        conflict_pairs: u64,
        covered_in_window: u64,
        covered_by_phase: u64,
        aged_out_addresses: u64,
        peak_tracked_addresses: usize,
    }

    impl VecPreflight {
        pub(super) fn new(window: usize) -> Self {
            VecPreflight {
                window: window.max(1),
                next_id: 0,
                phase: 0,
                taskwaits: 0,
                frontier: HashMap::new(),
                conflict_pairs: 0,
                covered_in_window: 0,
                covered_by_phase: 0,
                aged_out_addresses: 0,
                peak_tracked_addresses: 0,
            }
        }

        pub(super) fn observe_spawn(&mut self, sw_id: u64, deps: &[Dependence]) -> Result<(), GraphError> {
            if sw_id != self.next_id {
                return Err(GraphError::Malformed {
                    detail: format!(
                        "streamed task ids must be dense and sequential: expected T{}, got T{sw_id}",
                        self.next_id
                    ),
                });
            }
            if deps.len() > MAX_DEPENDENCES {
                return Err(GraphError::Malformed {
                    detail: format!(
                        "T{sw_id} declares {} dependences, above the descriptor limit of {MAX_DEPENDENCES}",
                        deps.len()
                    ),
                });
            }
            for (i, d) in deps.iter().enumerate() {
                if deps[..i].iter().any(|earlier| earlier.addr == d.addr) {
                    return Err(GraphError::DuplicateDependence { task: sw_id as usize, addr: d.addr });
                }
            }
            self.next_id += 1;
            for d in deps {
                let state = self.frontier.entry(d.addr).or_default();
                let mut earlier_phases = Vec::new();
                if d.dir.writes() {
                    earlier_phases.extend(state.last_writer.map(|(_, wp)| wp));
                    earlier_phases.extend(state.readers_since_write.iter().map(|&(_, rp)| rp));
                    state.last_writer = Some((sw_id, self.phase));
                    state.readers_since_write.clear();
                } else {
                    earlier_phases.extend(state.last_writer.map(|(_, wp)| wp));
                    state.readers_since_write.push((sw_id, self.phase));
                }
                state.last_touch = sw_id;
                for earlier in earlier_phases {
                    self.conflict_pairs += 1;
                    if earlier < self.phase {
                        self.covered_by_phase += 1;
                    } else {
                        self.covered_in_window += 1;
                    }
                }
            }
            self.peak_tracked_addresses = self.peak_tracked_addresses.max(self.frontier.len());
            if self.next_id.is_multiple_of(self.window as u64) {
                let horizon = self.next_id.saturating_sub(self.window as u64);
                let before = self.frontier.len();
                self.frontier.retain(|_, s| s.last_touch >= horizon);
                self.aged_out_addresses += (before - self.frontier.len()) as u64;
            }
            Ok(())
        }

        pub(super) fn observe_taskwait(&mut self) {
            self.taskwaits += 1;
            self.phase += 1;
        }

        pub(super) fn summary(&self) -> WindowedAnalysis {
            WindowedAnalysis {
                tasks: self.next_id,
                taskwaits: self.taskwaits,
                phases: self.taskwaits + 1,
                conflict_pairs: self.conflict_pairs,
                covered_in_window: self.covered_in_window,
                covered_by_phase: self.covered_by_phase,
                aged_out_addresses: self.aged_out_addresses,
                window: self.window,
                peak_tracked_addresses: self.peak_tracked_addresses,
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::VecPreflight;
    use super::*;
    use proptest::prelude::*;
    use tis_sim::SimRng;
    use tis_taskmodel::Direction;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The count-based preflight agrees with the list-based reference on every call and in
        /// its final summary, over random spawn/taskwait streams that rewrite a small address
        /// pool in every direction and mix in duplicate-address, over-cap and out-of-order
        /// spawns.
        #[test]
        fn counts_match_the_reader_list_reference(seed in any::<u64>(), window in 1usize..65) {
            let mut rng = SimRng::new(seed);
            let pool = 1 + rng.below(8);
            let mut counted = WindowedPreflight::new(window);
            let mut listed = VecPreflight::new(window);
            let mut next_id = 0u64;
            for _ in 0..rng.below(300) {
                if rng.chance(0.15) {
                    counted.observe_taskwait();
                    listed.observe_taskwait();
                    continue;
                }
                let dep_count = if rng.chance(0.03) { MAX_DEPENDENCES + 1 } else { rng.below(5) as usize };
                let deps: Vec<Dependence> = (0..dep_count)
                    .map(|_| {
                        let dir = Direction::ALL[rng.below(3) as usize];
                        Dependence::new(0x4000 + rng.below(pool) * 64, dir)
                    })
                    .collect();
                let sw_id = if rng.chance(0.03) { next_id + 1 + rng.below(3) } else { next_id };
                let got = counted.observe_spawn(sw_id, &deps);
                prop_assert_eq!(&got, &listed.observe_spawn(sw_id, &deps));
                if got.is_ok() {
                    next_id += 1;
                }
                prop_assert_eq!(counted.summary(), listed.summary());
            }
            prop_assert_eq!(counted.summary(), listed.summary());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphSpec;
    use tis_taskmodel::{Payload, ProgramBuilder};

    fn observe_program(pf: &mut WindowedPreflight, b: &ProgramBuilder) {
        let program = b.clone().build();
        for op in program.ops() {
            match op {
                tis_taskmodel::ProgramOp::Spawn(spec) => {
                    pf.observe_spawn(spec.id.raw(), &spec.deps).expect("valid spawn")
                }
                tis_taskmodel::ProgramOp::TaskWait => pf.observe_taskwait(),
            }
        }
    }

    #[test]
    fn matches_full_frontier_when_window_covers_the_program() {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..20 {
            b.spawn(Payload::compute(100), vec![Dependence::read_write(0x100)]);
        }
        b.taskwait();
        for _ in 0..5 {
            b.spawn(Payload::compute(100), vec![Dependence::read_write(0x100)]);
        }
        let mut pf = WindowedPreflight::new(1024);
        observe_program(&mut pf, &b);
        let a = pf.summary();
        let full = crate::conflict_frontier(&GraphSpec::from_program(&b.build()));
        assert_eq!(a.conflict_pairs, full.len() as u64);
        assert_eq!(a.tasks, 25);
        assert_eq!(a.taskwaits, 1);
        assert_eq!(a.phases, 2);
        // Exactly one frontier pair crosses the barrier (writer chain: T19 -> T20).
        assert_eq!(a.covered_by_phase, 1);
        assert_eq!(a.covered_in_window + a.covered_by_phase, a.conflict_pairs);
        assert_eq!(a.aged_out_addresses, 0);
    }

    #[test]
    fn rejects_non_dense_ids_duplicate_addresses_and_dep_overflow() {
        let mut pf = WindowedPreflight::new(8);
        pf.observe_spawn(0, &[Dependence::write(0x10)]).unwrap();
        assert!(matches!(pf.observe_spawn(2, &[]), Err(GraphError::Malformed { .. })));

        let mut pf = WindowedPreflight::new(8);
        let dup = [Dependence::read(0x40), Dependence::write(0x40)];
        assert!(matches!(
            pf.observe_spawn(0, &dup),
            Err(GraphError::DuplicateDependence { task: 0, .. })
        ));

        let mut pf = WindowedPreflight::new(8);
        let too_many: Vec<_> = (0..MAX_DEPENDENCES as u64 + 1).map(|i| Dependence::write(i * 64)).collect();
        assert!(matches!(pf.observe_spawn(0, &too_many), Err(GraphError::Malformed { .. })));
    }

    #[test]
    fn aged_out_state_is_counted_not_errored() {
        // Touch one address, then stream enough disjoint tasks to push it out of the window.
        let mut pf = WindowedPreflight::new(16);
        pf.observe_spawn(0, &[Dependence::write(0xAAAA_0000)]).unwrap();
        for i in 1..64u64 {
            pf.observe_spawn(i, &[Dependence::write(0x100 + i * 64)]).unwrap();
        }
        let a = pf.summary();
        assert!(a.aged_out_addresses > 0, "stale addresses must age out, got {a:?}");
        assert!(a.peak_tracked_addresses <= 2 * 16 + 1, "frontier must stay O(window), got {a:?}");
        // The writes were all to distinct addresses: no conflicts at all.
        assert_eq!(a.conflict_pairs, 0);
    }

    #[test]
    fn read_read_does_not_conflict_but_raw_war_waw_do() {
        let mut pf = WindowedPreflight::new(64);
        pf.observe_spawn(0, &[Dependence::write(0x100)]).unwrap(); // writer
        pf.observe_spawn(1, &[Dependence::read(0x100)]).unwrap(); // RaW with T0
        pf.observe_spawn(2, &[Dependence::read(0x100)]).unwrap(); // RaW with T0, no pair with T1
        pf.observe_spawn(3, &[Dependence::write(0x100)]).unwrap(); // WaW T0 + WaR T1, T2
        let a = pf.summary();
        assert_eq!(a.conflict_pairs, 5);
        assert_eq!(a.covered_in_window, 5);
        assert_eq!(a.covered_by_phase, 0);
    }
}
