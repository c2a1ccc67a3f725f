//! Streaming task sources.
//!
//! A [`TaskProgram`] materialises every task descriptor up front, which caps an experiment at
//! however many descriptors fit in host memory — tens of thousands of tasks, nowhere near the
//! steady-state regimes a finite hardware tracker is designed for. A [`TaskSource`] is the
//! streaming generalisation of the main-thread op stream: the runtime *pulls* one
//! [`ProgramOp`] at a time, the source keeps descriptors only for tasks that are in flight
//! (pulled but not yet retired), and [`TaskSource::retire`] frees a descriptor the moment the
//! runtime is done with it. A source with a bounded in-flight window therefore lets a single
//! cell simulate millions of tasks in `O(window)` memory.
//!
//! The contract mirrors how the main thread of an OmpSs application actually behaves:
//!
//! * ops are pulled in program order, exactly once each;
//! * a pulled `Spawn` makes its descriptor *resident* until the runtime retires it;
//! * a source may answer [`SourcePoll::Blocked`] when its in-flight window is full — the
//!   runtime should execute and retire in-flight work, then poll again (the same thing it
//!   already does when the hardware tracker is saturated). Because a streamed task may only
//!   depend on *earlier* tasks, the in-flight set always contains runnable work, so blocking
//!   cannot deadlock;
//! * once a source answers [`SourcePoll::Done`] it must keep answering `Done` (sources are
//!   fused).
//!
//! [`MaterializedSource`] adapts any existing [`TaskProgram`] to this interface without
//! changing a single simulated cycle: it never blocks, and it hands out exactly the ops the
//! program contains, so every materialized workload, figure pin and checked-in baseline stays
//! byte-identical through the streaming engine.

use crate::program::{ProgramOp, TaskProgram};
use crate::task::TaskSpec;

/// One pull from a [`TaskSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourcePoll {
    /// The next main-thread operation, consumed from the stream.
    Op(ProgramOp),
    /// The source's in-flight window is full: retire resident tasks and poll again.
    Blocked,
    /// The stream is exhausted (fused: every later poll also answers `Done`).
    Done,
}

/// A pull-based stream of main-thread operations with bounded descriptor residency.
///
/// Implementors own the descriptors of in-flight tasks; [`spec`](TaskSource::spec) looks one
/// up by SW ID between its `Spawn` being pulled and [`retire`](TaskSource::retire) being
/// called. SW IDs are assigned densely in spawn order (`0, 1, 2, …`), matching
/// [`crate::ProgramBuilder`].
pub trait TaskSource: std::fmt::Debug {
    /// Human-readable name of the workload this source streams (the analogue of
    /// [`TaskProgram::name`]).
    fn name(&self) -> &str;

    /// Pulls the next operation. A returned [`SourcePoll::Op`] is consumed: the source will
    /// never hand it out again, so a runtime that cannot act on it immediately must hold it
    /// (e.g. in a pending-op slot) rather than re-poll.
    fn poll(&mut self) -> SourcePoll;

    /// The descriptor of an in-flight task.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `sw_id` does not name a task that is currently resident
    /// (pulled and not yet retired) — that is a runtime bug, not a workload property.
    fn spec(&self, sw_id: u64) -> &TaskSpec;

    /// Frees the descriptor of a retired task. After this call [`spec`](TaskSource::spec) for
    /// the same ID is allowed to panic.
    fn retire(&mut self, sw_id: u64);

    /// [`retire`](TaskSource::retire) with the retiring core's simulated timestamp attached.
    ///
    /// Runtimes call this variant so time-aware sources (the multi-tenant merger measures
    /// per-task turnaround from it) see when each task finished; the default simply drops the
    /// timestamp, so plain sources behave exactly as before.
    fn retire_at(&mut self, sw_id: u64, _now: u64) {
        self.retire(sw_id);
    }

    /// Informs the source of the polling core's current simulated time.
    ///
    /// Runtimes call this immediately before [`poll`](TaskSource::poll); sources with
    /// deterministic arrival processes ([`crate::TenantSource`]) gate spawn release on it.
    /// The default is a no-op, so time-blind sources are unaffected.
    fn advance_to(&mut self, _now: u64) {}

    /// Called right after a [`poll`](TaskSource::poll) that answered [`SourcePoll::Blocked`]:
    /// `Some(t)` promises that polling again, after [`advance_to`](TaskSource::advance_to) any
    /// time before `t` and with no [`retire`](TaskSource::retire) in between, answers `Blocked`
    /// again and changes nothing but the source's clock; `t` is `u64::MAX` if only a retire
    /// can unblock it. The default, `None`, makes no promise, so a runtime keeps polling for
    /// real.
    fn blocked_until(&self) -> Option<u64> {
        None
    }

    /// Per-tenant serving metrics, if this source multiplexes tenants
    /// ([`crate::TenantSource`]). Single-tenant sources report none.
    fn tenant_reports(&self) -> Vec<crate::tenant::TenantReport> {
        Vec::new()
    }

    /// Downcast hook for sources that expose post-run state beyond this trait (the
    /// multi-tenant merger hands back its tenant assignment through it). `None` by default.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }

    /// Upper bound on [`TaskSpec::dep_count`] over every task the source will ever emit.
    ///
    /// Runtimes size per-task metadata (e.g. the Phentos packed-metadata element) from this
    /// hint, since a streaming source cannot be scanned up front.
    fn max_deps(&self) -> usize;

    /// Number of descriptors currently resident (pulled, not yet retired).
    fn resident(&self) -> usize;

    /// High-water mark of [`resident`](TaskSource::resident) over the source's lifetime —
    /// the memory-footprint proxy the streaming-scale gate checks against the configured
    /// window.
    fn peak_resident(&self) -> usize;
}

/// A [`TaskSource`] over a fully materialized [`TaskProgram`].
///
/// Never blocks, keeps every descriptor alive for the program's whole lifetime (retirement
/// only updates the residency accounting), and yields exactly `program.ops()` in order — so a
/// runtime driven through this adapter behaves byte-identically to one holding the program
/// directly, while still reporting a true peak-residency figure.
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    name: String,
    ops: Vec<ProgramOp>,
    specs: Vec<TaskSpec>,
    cursor: usize,
    max_deps: usize,
    resident: usize,
    peak_resident: usize,
}

impl MaterializedSource {
    /// Wraps a program. The descriptor table is cloned once, exactly as the runtimes used to
    /// do before the streaming refactor.
    pub fn new(program: &TaskProgram) -> Self {
        let specs: Vec<TaskSpec> = program.tasks().cloned().collect();
        let max_deps = specs.iter().map(|t| t.dep_count()).max().unwrap_or(0);
        MaterializedSource {
            name: program.name().to_string(),
            ops: program.ops().to_vec(),
            specs,
            cursor: 0,
            max_deps,
            resident: 0,
            peak_resident: 0,
        }
    }
}

impl TaskSource for MaterializedSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> SourcePoll {
        match self.ops.get(self.cursor).cloned() {
            Some(op) => {
                self.cursor += 1;
                if matches!(op, ProgramOp::Spawn(_)) {
                    self.resident += 1;
                    self.peak_resident = self.peak_resident.max(self.resident);
                }
                SourcePoll::Op(op)
            }
            None => SourcePoll::Done,
        }
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        &self.specs[sw_id as usize]
    }

    fn retire(&mut self, sw_id: u64) {
        debug_assert!((sw_id as usize) < self.specs.len(), "retire of unknown task T{sw_id}");
        debug_assert!(self.resident > 0, "retire with no resident tasks");
        self.resident = self.resident.saturating_sub(1);
    }

    fn max_deps(&self) -> usize {
        self.max_deps
    }

    fn resident(&self) -> usize {
        self.resident
    }

    fn peak_resident(&self) -> usize {
        self.peak_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::Dependence;
    use crate::program::ProgramBuilder;
    use crate::task::Payload;

    fn sample() -> TaskProgram {
        let mut b = ProgramBuilder::new("sample");
        b.spawn(Payload::compute(100), vec![Dependence::write(0x10)]);
        b.spawn(Payload::compute(200), vec![Dependence::read(0x10), Dependence::write(0x20)]);
        b.taskwait();
        b.spawn(Payload::compute(300), vec![]);
        b.build()
    }

    #[test]
    fn materialized_source_replays_the_program_in_order() {
        let program = sample();
        let mut src = MaterializedSource::new(&program);
        assert_eq!(src.name(), "sample");
        assert_eq!(src.max_deps(), 2);
        let mut ops = Vec::new();
        loop {
            match src.poll() {
                SourcePoll::Op(op) => ops.push(op),
                SourcePoll::Blocked => panic!("materialized sources never block"),
                SourcePoll::Done => break,
            }
        }
        assert_eq!(ops, program.ops().to_vec());
        // Fused: polling past the end keeps answering Done.
        assert_eq!(src.poll(), SourcePoll::Done);
    }

    #[test]
    fn residency_tracks_spawns_and_retires() {
        let program = sample();
        let mut src = MaterializedSource::new(&program);
        assert_eq!(src.resident(), 0);
        src.poll(); // spawn T0
        src.poll(); // spawn T1
        assert_eq!(src.resident(), 2);
        assert_eq!(src.spec(1).payload.compute_cycles, 200);
        src.retire(0);
        assert_eq!(src.resident(), 1);
        src.poll(); // taskwait: no residency change
        assert_eq!(src.resident(), 1);
        src.poll(); // spawn T2
        src.retire(1);
        src.retire(2);
        assert_eq!(src.resident(), 0);
        assert_eq!(src.peak_resident(), 2);
        // Specs stay addressable after retirement in the materialized adapter.
        assert_eq!(src.spec(0).payload.compute_cycles, 100);
    }

    #[test]
    fn empty_program_is_immediately_done() {
        let mut src = MaterializedSource::new(&ProgramBuilder::new("empty").build());
        assert_eq!(src.poll(), SourcePoll::Done);
        assert_eq!(src.max_deps(), 0);
        assert_eq!(src.peak_resident(), 0);
    }
}
