//! Task descriptors.
//!
//! A [`TaskSpec`] is what an application hands to a runtime when it spawns a task: an identifier,
//! the list of annotated pointer parameters ([`Dependence`]s), and an abstract *payload*
//! describing how much work the task body performs. Payloads are abstract because the paper's
//! evaluation depends only on task *granularity* (execution cycles) and memory intensity, not on
//! the actual arithmetic the task performs.

use crate::dep::Dependence;

/// Maximum number of annotated dependences per task supported by Picos.
///
/// Figure 3 of the paper: a task descriptor always occupies 48 32-bit packets — a 3-packet header
/// plus 15 dependence slots of 3 packets each — so a task may carry at most 15 dependences.
pub const MAX_DEPENDENCES: usize = 15;

/// Identifier of a task within one program.
///
/// This is the "SW ID" of the paper: the value the runtime hands to Picos at submission time and
/// receives back from `Fetch SW ID` when the task becomes ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TaskId(pub u64);

impl TaskId {
    /// Returns the raw identifier value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl From<u64> for TaskId {
    fn from(v: u64) -> Self {
        TaskId(v)
    }
}

/// Abstract description of the work performed by a task body.
///
/// * `compute_cycles` — cycles the task spends executing instructions whose operands hit in the
///   private L1 (or in registers);
/// * `memory_bytes` — bytes the task moves to/from DRAM. These are charged against the machine's
///   shared memory bandwidth, so memory-bound workloads (the stream benchmarks) stop scaling
///   before the compute-bound ones, as observed in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Payload {
    /// Cycles of core-private computation.
    pub compute_cycles: u64,
    /// Bytes transferred to/from main memory by the task body.
    pub memory_bytes: u64,
}

impl Payload {
    /// A purely compute-bound payload.
    pub fn compute(cycles: u64) -> Self {
        Payload { compute_cycles: cycles, memory_bytes: 0 }
    }

    /// A payload with both a compute and a memory component.
    pub fn new(compute_cycles: u64, memory_bytes: u64) -> Self {
        Payload { compute_cycles, memory_bytes }
    }

    /// An empty payload, used by the Task-Free / Task-Chain overhead microbenchmarks, whose
    /// tasks do nothing so that the measured per-task cost is pure scheduling overhead.
    pub fn empty() -> Self {
        Payload::default()
    }

    /// Whether the payload performs no work at all.
    pub fn is_empty(&self) -> bool {
        self.compute_cycles == 0 && self.memory_bytes == 0
    }

    /// A lower bound on the task's serial execution time in cycles, assuming the machine can
    /// stream `bytes_per_cycle` bytes from DRAM when a single core is active.
    pub fn serial_cycles(&self, bytes_per_cycle: f64) -> u64 {
        let mem = if self.memory_bytes == 0 {
            0.0
        } else {
            self.memory_bytes as f64 / bytes_per_cycle.max(f64::MIN_POSITIVE)
        };
        self.compute_cycles + mem.ceil() as u64
    }
}

/// Errors produced when validating a [`TaskSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskSpecError {
    /// The task declares more dependences than Picos can encode (more than
    /// [`MAX_DEPENDENCES`]).
    TooManyDependences {
        /// Identifier of the offending task.
        task: TaskId,
        /// Number of dependences the task declared.
        count: usize,
    },
    /// The task declares the same address twice.
    ///
    /// OmpSs collapses repeated annotations on the same address into the strongest direction;
    /// our generators are expected to do that collapsing themselves, so a duplicate reaching the
    /// model indicates a workload bug.
    DuplicateAddress {
        /// Identifier of the offending task.
        task: TaskId,
        /// The duplicated address.
        addr: u64,
    },
}

impl core::fmt::Display for TaskSpecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TaskSpecError::TooManyDependences { task, count } => write!(
                f,
                "task {task} declares {count} dependences, more than the Picos limit of {MAX_DEPENDENCES}"
            ),
            TaskSpecError::DuplicateAddress { task, addr } => {
                write!(f, "task {task} annotates address 0x{addr:x} more than once")
            }
        }
    }
}

impl std::error::Error for TaskSpecError {}

/// A task as spawned by an application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskSpec {
    /// Program-unique identifier (the SW ID handed to the scheduler).
    pub id: TaskId,
    /// Annotated pointer parameters.
    pub deps: Vec<Dependence>,
    /// Abstract work performed by the task body.
    pub payload: Payload,
}

impl TaskSpec {
    /// Creates a task descriptor.
    pub fn new(id: impl Into<TaskId>, payload: Payload, deps: Vec<Dependence>) -> Self {
        TaskSpec { id: id.into(), deps, payload }
    }

    /// Number of annotated dependences.
    pub fn dep_count(&self) -> usize {
        self.deps.len()
    }

    /// Validates the descriptor against the constraints of the Picos encoding.
    ///
    /// # Errors
    ///
    /// Returns [`TaskSpecError::TooManyDependences`] if more than [`MAX_DEPENDENCES`] addresses
    /// are annotated and [`TaskSpecError::DuplicateAddress`] if an address appears twice.
    pub fn validate(&self) -> Result<(), TaskSpecError> {
        if self.deps.len() > MAX_DEPENDENCES {
            return Err(TaskSpecError::TooManyDependences { task: self.id, count: self.deps.len() });
        }
        for (i, d) in self.deps.iter().enumerate() {
            if self.deps[..i].iter().any(|prev| prev.addr == d.addr) {
                return Err(TaskSpecError::DuplicateAddress { task: self.id, addr: d.addr });
            }
        }
        Ok(())
    }

    /// Number of non-zero 32-bit submission packets needed to describe this task (paper
    /// Figure 3): a 3-packet header plus 3 packets per dependence.
    pub fn nonzero_packet_count(&self) -> usize {
        3 + 3 * self.deps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::{Dependence, Direction};

    fn dep(addr: u64) -> Dependence {
        Dependence::new(addr, Direction::InOut)
    }

    #[test]
    fn task_id_display_and_conversion() {
        let id: TaskId = 7u64.into();
        assert_eq!(id.to_string(), "T7");
        assert_eq!(id.raw(), 7);
    }

    #[test]
    fn payload_serial_cycles() {
        assert_eq!(Payload::compute(100).serial_cycles(8.0), 100);
        assert_eq!(Payload::new(100, 80).serial_cycles(8.0), 110);
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::empty().serial_cycles(8.0), 0);
    }

    #[test]
    fn packet_counts_match_figure_3() {
        // A task with N dependences needs 3 + 3N non-zero packets and 48 total.
        for n in 0..=MAX_DEPENDENCES {
            let t = TaskSpec::new(1u64, Payload::empty(), (0..n as u64).map(|i| dep(0x1000 + i * 8)).collect());
            assert_eq!(t.nonzero_packet_count(), 3 + 3 * n);
            assert!(t.nonzero_packet_count() <= 48);
            assert!(t.validate().is_ok());
        }
    }

    #[test]
    fn too_many_dependences_rejected() {
        let t = TaskSpec::new(
            9u64,
            Payload::empty(),
            (0..16u64).map(|i| dep(0x2000 + i * 8)).collect(),
        );
        match t.validate() {
            Err(TaskSpecError::TooManyDependences { task, count }) => {
                assert_eq!(task, TaskId(9));
                assert_eq!(count, 16);
            }
            other => panic!("expected TooManyDependences, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_address_rejected() {
        let t = TaskSpec::new(3u64, Payload::empty(), vec![dep(0x10), dep(0x20), dep(0x10)]);
        let err = t.validate().unwrap_err();
        assert_eq!(err, TaskSpecError::DuplicateAddress { task: TaskId(3), addr: 0x10 });
        assert!(err.to_string().contains("0x10"));
    }

    #[test]
    fn error_messages_are_informative() {
        let t = TaskSpec::new(1u64, Payload::empty(), (0..16u64).map(|i| dep(i * 8)).collect());
        let msg = t.validate().unwrap_err().to_string();
        assert!(msg.contains("16"));
        assert!(msg.contains("15"));
    }
}
