//! The RoCC instruction format (Figure 1) and the custom task-scheduling instruction set
//! (Table I).
//!
//! Rocket Core's RoCC interface lets an accelerator claim one of four `custom0..custom3` major
//! opcodes. An instruction word carries two optional source registers, an optional destination
//! register, three bits saying which of those are used, and a 7-bit `funct7` field selecting the
//! accelerator operation:
//!
//! ```text
//!  31      25 24  20 19  15 14 13 12 11   7 6      0
//! +----------+------+------+--+---+--+------+--------+
//! |  funct7  | rs2  | rs1  |xd|xs1|xs2|  rd  | opcode |
//! +----------+------+------+--+---+--+------+--------+
//! ```
//!
//! The seven task-scheduling operations of Table I are encoded in `funct7`. The concrete
//! numbering is our choice (the paper does not publish it); what matters — and what the tests
//! pin down — is that the fields round-trip and that each operation declares exactly the
//! registers its semantics need (e.g. *Retire Task* has no destination register, which is why
//! the paper made it blocking).

/// The RISC-V `custom0` major opcode claimed by the Picos Delegate.
pub const CUSTOM0_OPCODE: u32 = 0b000_1011;

/// The seven custom task-scheduling operations of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskSchedOp {
    /// Announce an upcoming submission of `rs1` non-zero packets.
    SubmissionRequest,
    /// Submit a single 32-bit packet (low half of `rs1`).
    SubmitPacket,
    /// Submit three 32-bit packets packed into `rs1` (two) and `rs2` (one).
    SubmitThreePackets,
    /// Ask Picos Manager to route one ready descriptor to this core's private ready queue.
    ReadyTaskRequest,
    /// Return the SW ID at the front of this core's private ready queue (peek).
    FetchSwId,
    /// Return the Picos ID at the front of the queue and pop it (requires a prior successful
    /// `FetchSwId`).
    FetchPicosId,
    /// Report the retirement of the task whose Picos ID is in `rs1`.
    RetireTask,
}

impl TaskSchedOp {
    /// All operations, in Table I order.
    pub const ALL: [TaskSchedOp; 7] = [
        TaskSchedOp::SubmissionRequest,
        TaskSchedOp::SubmitPacket,
        TaskSchedOp::SubmitThreePackets,
        TaskSchedOp::ReadyTaskRequest,
        TaskSchedOp::FetchSwId,
        TaskSchedOp::FetchPicosId,
        TaskSchedOp::RetireTask,
    ];

    /// The submit instruction that carries `packets` packets: *Submit Three Packets* for three,
    /// *Submit Packet* otherwise.
    pub fn submit_for(packets: usize) -> TaskSchedOp {
        if packets >= 3 {
            TaskSchedOp::SubmitThreePackets
        } else {
            TaskSchedOp::SubmitPacket
        }
    }

    /// The `funct7` encoding of the operation.
    pub fn funct7(self) -> u32 {
        match self {
            TaskSchedOp::SubmissionRequest => 0x01,
            TaskSchedOp::SubmitPacket => 0x02,
            TaskSchedOp::SubmitThreePackets => 0x03,
            TaskSchedOp::ReadyTaskRequest => 0x04,
            TaskSchedOp::FetchSwId => 0x05,
            TaskSchedOp::FetchPicosId => 0x06,
            TaskSchedOp::RetireTask => 0x07,
        }
    }

    /// Decodes a `funct7` value back into an operation.
    pub fn from_funct7(funct7: u32) -> Option<TaskSchedOp> {
        TaskSchedOp::ALL.into_iter().find(|op| op.funct7() == funct7)
    }

    /// Whether the operation writes a result register (`xd`). All non-blocking operations do,
    /// because they must report the failure flag; *Retire Task* deliberately does not, which is
    /// what lets it be blocking without increasing register pressure (Section IV-B).
    pub fn uses_rd(self) -> bool {
        !matches!(self, TaskSchedOp::RetireTask)
    }

    /// Whether the operation reads `rs1`.
    pub fn uses_rs1(self) -> bool {
        matches!(
            self,
            TaskSchedOp::SubmissionRequest
                | TaskSchedOp::SubmitPacket
                | TaskSchedOp::SubmitThreePackets
                | TaskSchedOp::RetireTask
        )
    }

    /// Whether the operation reads `rs2`.
    pub fn uses_rs2(self) -> bool {
        matches!(self, TaskSchedOp::SubmitThreePackets)
    }

    /// Whether the instruction is non-blocking (returns a failure flag instead of stalling).
    pub fn is_non_blocking(self) -> bool {
        !matches!(self, TaskSchedOp::RetireTask)
    }

    /// Short mnemonic used in traces and the Table-I harness.
    pub fn mnemonic(self) -> &'static str {
        match self {
            TaskSchedOp::SubmissionRequest => "sub.req",
            TaskSchedOp::SubmitPacket => "sub.pkt",
            TaskSchedOp::SubmitThreePackets => "sub.pkt3",
            TaskSchedOp::ReadyTaskRequest => "rdy.req",
            TaskSchedOp::FetchSwId => "fetch.swid",
            TaskSchedOp::FetchPicosId => "fetch.pid",
            TaskSchedOp::RetireTask => "retire",
        }
    }

    /// One-line description matching Table I of the paper.
    pub fn description(self) -> &'static str {
        match self {
            TaskSchedOp::SubmissionRequest => {
                "informs the system that the core will attempt to submit a task"
            }
            TaskSchedOp::SubmitPacket => "submits a single 32-bit wide submission packet",
            TaskSchedOp::SubmitThreePackets => "submits three 32-bit wide submission packets",
            TaskSchedOp::ReadyTaskRequest => {
                "requests one ready-task packet be moved to the executing core's queue"
            }
            TaskSchedOp::FetchSwId => "returns the SW ID at the front of the core's ready queue",
            TaskSchedOp::FetchPicosId => {
                "returns the Picos ID at the front of the ready queue and pops it"
            }
            TaskSchedOp::RetireTask => "informs the system that the task with the given Picos ID retired",
        }
    }
}

/// A decoded RoCC instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoccInstruction {
    /// Accelerator operation selector.
    pub funct7: u32,
    /// Second source register index.
    pub rs2: u32,
    /// First source register index.
    pub rs1: u32,
    /// Whether the instruction writes `rd`.
    pub xd: bool,
    /// Whether the instruction reads `rs1`.
    pub xs1: bool,
    /// Whether the instruction reads `rs2`.
    pub xs2: bool,
    /// Destination register index.
    pub rd: u32,
    /// Major opcode (`custom0..custom3`).
    pub opcode: u32,
}

impl RoccInstruction {
    /// Builds the canonical instruction word for a task-scheduling operation using registers
    /// `rd`, `rs1`, `rs2` (register indices 0–31).
    ///
    /// # Panics
    ///
    /// Panics if a register index exceeds 31.
    pub fn for_op(op: TaskSchedOp, rd: u32, rs1: u32, rs2: u32) -> Self {
        assert!(rd < 32 && rs1 < 32 && rs2 < 32, "register indices are 5 bits");
        RoccInstruction {
            funct7: op.funct7(),
            rs2,
            rs1,
            xd: op.uses_rd(),
            xs1: op.uses_rs1(),
            xs2: op.uses_rs2(),
            rd,
            opcode: CUSTOM0_OPCODE,
        }
    }

    /// Encodes the instruction into its 32-bit word (Figure 1 layout).
    pub fn encode(&self) -> u32 {
        (self.funct7 & 0x7f) << 25
            | (self.rs2 & 0x1f) << 20
            | (self.rs1 & 0x1f) << 15
            | (self.xd as u32) << 14
            | (self.xs1 as u32) << 13
            | (self.xs2 as u32) << 12
            | (self.rd & 0x1f) << 7
            | (self.opcode & 0x7f)
    }

    /// Decodes a 32-bit instruction word.
    pub fn decode(word: u32) -> Self {
        RoccInstruction {
            funct7: (word >> 25) & 0x7f,
            rs2: (word >> 20) & 0x1f,
            rs1: (word >> 15) & 0x1f,
            xd: (word >> 14) & 1 == 1,
            xs1: (word >> 13) & 1 == 1,
            xs2: (word >> 12) & 1 == 1,
            rd: (word >> 7) & 0x1f,
            opcode: word & 0x7f,
        }
    }

    /// The task-scheduling operation this word encodes, if it targets our accelerator.
    pub fn task_sched_op(&self) -> Option<TaskSchedOp> {
        if self.opcode != CUSTOM0_OPCODE {
            return None;
        }
        TaskSchedOp::from_funct7(self.funct7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funct7_values_are_distinct_and_roundtrip() {
        let mut seen = std::collections::HashSet::new();
        for op in TaskSchedOp::ALL {
            assert!(seen.insert(op.funct7()), "duplicate funct7 for {op:?}");
            assert_eq!(TaskSchedOp::from_funct7(op.funct7()), Some(op));
            assert!(!op.mnemonic().is_empty());
            assert!(!op.description().is_empty());
        }
        assert_eq!(TaskSchedOp::from_funct7(0x55), None);
    }

    #[test]
    fn only_retire_task_is_blocking_and_has_no_rd() {
        for op in TaskSchedOp::ALL {
            if op == TaskSchedOp::RetireTask {
                assert!(!op.is_non_blocking());
                assert!(!op.uses_rd());
            } else {
                assert!(op.is_non_blocking());
                assert!(op.uses_rd(), "{op:?} must return a failure flag / value");
            }
        }
    }

    #[test]
    fn submit_three_packets_is_the_only_two_operand_op() {
        for op in TaskSchedOp::ALL {
            assert_eq!(op.uses_rs2(), op == TaskSchedOp::SubmitThreePackets);
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_ops() {
        for op in TaskSchedOp::ALL {
            let instr = RoccInstruction::for_op(op, 5, 10, 11);
            let decoded = RoccInstruction::decode(instr.encode());
            assert_eq!(decoded, instr);
            assert_eq!(decoded.task_sched_op(), Some(op));
        }
    }

    #[test]
    fn field_placement_matches_figure_1() {
        let instr = RoccInstruction::for_op(TaskSchedOp::SubmitThreePackets, 3, 7, 9);
        let w = instr.encode();
        assert_eq!(w & 0x7f, CUSTOM0_OPCODE, "opcode in bits 6:0");
        assert_eq!((w >> 7) & 0x1f, 3, "rd in bits 11:7");
        assert_eq!((w >> 15) & 0x1f, 7, "rs1 in bits 19:15");
        assert_eq!((w >> 20) & 0x1f, 9, "rs2 in bits 24:20");
        assert_eq!((w >> 25) & 0x7f, TaskSchedOp::SubmitThreePackets.funct7(), "funct7 in bits 31:25");
        assert_eq!((w >> 12) & 0b111, 0b111, "xd, xs1, xs2 all set for SubmitThreePackets");
    }

    #[test]
    fn foreign_opcode_is_not_ours() {
        let mut instr = RoccInstruction::for_op(TaskSchedOp::RetireTask, 0, 4, 0);
        instr.opcode = 0b010_1011; // custom1
        assert_eq!(instr.task_sched_op(), None);
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn oversized_register_index_panics() {
        RoccInstruction::for_op(TaskSchedOp::SubmitPacket, 32, 0, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any 32-bit word decodes and re-encodes to itself once the reserved bits are masked,
        /// i.e. the codec is a bijection on the fields it models.
        #[test]
        fn decode_encode_is_stable(word in any::<u32>()) {
            let decoded = RoccInstruction::decode(word);
            let reencoded = decoded.encode();
            prop_assert_eq!(RoccInstruction::decode(reencoded), decoded);
        }

        /// Encoding never loses register indices or funct7 values.
        #[test]
        fn fields_survive(rd in 0u32..32, rs1 in 0u32..32, rs2 in 0u32..32, op_idx in 0usize..7) {
            let op = TaskSchedOp::ALL[op_idx];
            let instr = RoccInstruction::for_op(op, rd, rs1, rs2);
            let d = RoccInstruction::decode(instr.encode());
            prop_assert_eq!(d.rd, rd);
            prop_assert_eq!(d.rs1, rs1);
            prop_assert_eq!(d.rs2, rs2);
            prop_assert_eq!(d.task_sched_op(), Some(op));
        }
    }
}
