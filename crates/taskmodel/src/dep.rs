//! Dependence annotations.
//!
//! A task annotates each pointer parameter with a [`Direction`]: whether the task reads the
//! pointed-to data (`in`), writes it (`out`) or both (`inout`). Section III-A of the paper
//! defines when a later task *B* depends on an earlier task *A*:
//!
//! * **RAW** — A writes position *p*, B reads *p*;
//! * **WAW** — A writes position *p*, B writes *p*;
//! * **WAR** — A reads position *p*, B writes *p*.
//!
//! [`Direction::creates_dependence`] encodes exactly this table and is the single source of truth
//! used by the reference graph builder, the software dependence tracker of Nanos-SW and the Picos
//! hardware model, so all three are guaranteed to agree on semantics (their *timing* of course
//! differs — that is the whole point of the paper).

/// Virtual address of a task parameter used for dependence tracking.
///
/// The paper's Picos encodes addresses as two 32-bit packets (high/low); we keep the full 64-bit
/// value and let the packet codec split it.
pub type DepAddr = u64;

/// How a task accesses one of its annotated pointer parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// The task only reads through the pointer (`in` clause).
    In,
    /// The task only writes through the pointer (`out` clause).
    Out,
    /// The task both reads and writes through the pointer (`inout` clause).
    InOut,
}

impl Default for Direction {
    /// Defaults to [`Direction::In`], the weakest access — used only to zero-initialise inline
    /// buffers (e.g. `tis_sim::InlineVec`), never as a semantic fallback.
    fn default() -> Self {
        Direction::In
    }
}

impl Direction {
    /// All directions, useful for exhaustive tests and property generators.
    pub const ALL: [Direction; 3] = [Direction::In, Direction::Out, Direction::InOut];

    /// Whether this access reads the data.
    pub fn reads(self) -> bool {
        matches!(self, Direction::In | Direction::InOut)
    }

    /// Whether this access writes the data.
    pub fn writes(self) -> bool {
        matches!(self, Direction::Out | Direction::InOut)
    }

    /// Whether an *earlier* access with direction `self` followed by a *later* access with
    /// direction `later` on the same address creates a dependence (RAW, WAW or WAR).
    ///
    /// Two reads never conflict; every other combination does.
    pub fn creates_dependence(self, later: Direction) -> bool {
        self.writes() || later.writes()
    }

    /// The combined direction of two accesses by the *same* task to the *same* address: the
    /// union of their read/write sets (`in` + `out` = `inout`, `in` + `in` = `in`, …).
    ///
    /// Used to collapse duplicate same-address annotations at submission: a task declaring
    /// `[read(a), write(a)]` occupies one address-table slot with direction `inout`, exactly as
    /// if the programmer had written the collapsed clause.
    pub fn merge(self, other: Direction) -> Direction {
        match (self.reads() || other.reads(), self.writes() || other.writes()) {
            (true, true) => Direction::InOut,
            (true, false) => Direction::In,
            (false, true) => Direction::Out,
            (false, false) => unreachable!("every Direction reads or writes"),
        }
    }

    /// The 2-bit encoding used in the Picos submission packet `directionality` field.
    ///
    /// The concrete bit assignment is an implementation detail of our packet codec (the paper
    /// does not publish Picos' internal encoding); what matters is that it round-trips.
    pub fn encode(self) -> u32 {
        match self {
            Direction::In => 0b01,
            Direction::Out => 0b10,
            Direction::InOut => 0b11,
        }
    }

    /// Decodes the 2-bit directionality field. Returns `None` for the reserved value `0b00`.
    pub fn decode(bits: u32) -> Option<Direction> {
        match bits & 0b11 {
            0b01 => Some(Direction::In),
            0b10 => Some(Direction::Out),
            0b11 => Some(Direction::InOut),
            _ => None,
        }
    }
}

impl core::fmt::Display for Direction {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Direction::In => "in",
            Direction::Out => "out",
            Direction::InOut => "inout",
        };
        f.write_str(s)
    }
}

/// One annotated pointer parameter of a task: an address plus its access direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dependence {
    /// Address of the data the task accesses.
    pub addr: DepAddr,
    /// How the task accesses it.
    pub dir: Direction,
}

impl Dependence {
    /// Creates a dependence annotation.
    pub fn new(addr: DepAddr, dir: Direction) -> Self {
        Dependence { addr, dir }
    }

    /// Shorthand for an `in` annotation.
    pub fn read(addr: DepAddr) -> Self {
        Dependence::new(addr, Direction::In)
    }

    /// Shorthand for an `out` annotation.
    pub fn write(addr: DepAddr) -> Self {
        Dependence::new(addr, Direction::Out)
    }

    /// Shorthand for an `inout` annotation.
    pub fn read_write(addr: DepAddr) -> Self {
        Dependence::new(addr, Direction::InOut)
    }
}

impl core::fmt::Display for Dependence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}(0x{:x})", self.dir, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes_classification() {
        assert!(Direction::In.reads() && !Direction::In.writes());
        assert!(!Direction::Out.reads() && Direction::Out.writes());
        assert!(Direction::InOut.reads() && Direction::InOut.writes());
    }

    #[test]
    fn dependence_table_matches_paper_section_iii_a() {
        use Direction::*;
        // (earlier, later, expected dependence?)
        let cases = [
            (In, In, false),     // read after read: no dependence
            (In, Out, true),     // WAR
            (In, InOut, true),   // WAR
            (Out, In, true),     // RAW
            (Out, Out, true),    // WAW
            (Out, InOut, true),  // RAW+WAW
            (InOut, In, true),   // RAW
            (InOut, Out, true),  // WAW+WAR
            (InOut, InOut, true),
        ];
        for (a, b, expected) in cases {
            assert_eq!(a.creates_dependence(b), expected, "{a} -> {b}");
        }
    }

    #[test]
    fn merge_is_the_union_of_access_sets() {
        use Direction::*;
        for a in Direction::ALL {
            for b in Direction::ALL {
                let m = a.merge(b);
                assert_eq!(m.reads(), a.reads() || b.reads(), "{a} + {b}");
                assert_eq!(m.writes(), a.writes() || b.writes(), "{a} + {b}");
                assert_eq!(m, b.merge(a), "merge is commutative");
            }
        }
        assert_eq!(In.merge(Out), InOut);
        assert_eq!(In.merge(In), In);
        assert_eq!(Out.merge(InOut), InOut);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::decode(d.encode()), Some(d));
        }
        assert_eq!(Direction::decode(0), None);
        // Only the low two bits participate.
        assert_eq!(Direction::decode(0b101), Some(Direction::In));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Dependence::read_write(0xff).to_string(), "inout(0xff)");
        assert_eq!(Direction::Out.to_string(), "out");
    }
}
