//! The MESI coherence protocol as a pure transition table.
//!
//! Keeping the protocol logic separate from the cache structure lets the test suite check the
//! textbook invariants exhaustively (at most one core holds a line Modified or Exclusive, no
//! Modified coexists with Shared, …) independently of replacement-policy details.

/// MESI stability states of one cache line in one core's L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MesiState {
    /// The line is present and dirty; no other cache holds it.
    Modified,
    /// The line is present, clean and exclusive to this cache.
    Exclusive,
    /// The line is present and clean; other caches may also hold it.
    Shared,
    /// The line is not present (or has been invalidated).
    Invalid,
}

impl MesiState {
    /// Whether the line holds dirty data that must be written back before eviction or transfer.
    pub fn is_dirty(self) -> bool {
        self == MesiState::Modified
    }
}

/// The kind of processor access driving a coherence transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An atomic read-modify-write (`amoadd`, `lr/sc`, …). Coherence-wise this behaves like a
    /// store (needs ownership) but the latency model charges extra serialization cycles.
    Atomic,
}

/// What the local cache must do to satisfy an access, given the line's current local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalAction {
    /// The access hits; no bus transaction is needed.
    Hit,
    /// The access misses; issue a bus read (`BusRd`).
    IssueBusRead,
    /// The access misses or lacks ownership; issue a bus read-for-ownership (`BusRdX` /
    /// upgrade), invalidating other copies.
    IssueBusReadExclusive,
}

/// Computes the local action and the resulting local state for an access.
pub fn local_transition(state: MesiState, kind: AccessKind) -> (LocalAction, MesiState) {
    use AccessKind::*;
    use LocalAction::*;
    use MesiState::*;
    match (state, kind) {
        (Modified, _) => (Hit, Modified),
        (Exclusive, Read) => (Hit, Exclusive),
        (Exclusive, Write | Atomic) => (Hit, Modified),
        (Shared, Read) => (Hit, Shared),
        (Shared, Write | Atomic) => (IssueBusReadExclusive, Modified),
        (Invalid, Read) => (IssueBusRead, Shared), // may be promoted to Exclusive if no sharers
        (Invalid, Write | Atomic) => (IssueBusReadExclusive, Modified),
    }
}

/// Bus transactions observed by remote caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusOp {
    /// Another core wants to read the line.
    BusRead,
    /// Another core wants exclusive ownership of the line.
    BusReadExclusive,
}

/// The state a *remote* cache holding `state` moves to when it observes `op`: a read leaves a
/// held copy Shared, a read-for-ownership invalidates it. A copy leaving Modified writes its
/// dirty data back to memory first (MESI without an L2 cannot forward dirty data directly), so
/// a snooped copy writes back exactly when its old state [`MesiState::is_dirty`].
pub fn snoop_transition(state: MesiState, op: BusOp) -> MesiState {
    match op {
        BusOp::BusRead if state != MesiState::Invalid => MesiState::Shared,
        BusOp::BusRead | BusOp::BusReadExclusive => MesiState::Invalid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AccessKind::*;
    use MesiState::*;

    #[test]
    fn state_predicates() {
        assert!(Modified.is_dirty());
        assert!(!Exclusive.is_dirty() && !Shared.is_dirty() && !Invalid.is_dirty());
    }

    #[test]
    fn local_hits_do_not_touch_the_bus() {
        assert_eq!(local_transition(Modified, Read), (LocalAction::Hit, Modified));
        assert_eq!(local_transition(Modified, Write), (LocalAction::Hit, Modified));
        assert_eq!(local_transition(Exclusive, Read), (LocalAction::Hit, Exclusive));
        // The silent E->M upgrade is the whole point of the Exclusive state.
        assert_eq!(local_transition(Exclusive, Write), (LocalAction::Hit, Modified));
        assert_eq!(local_transition(Shared, Read), (LocalAction::Hit, Shared));
    }

    #[test]
    fn local_misses_issue_the_right_bus_op() {
        assert_eq!(local_transition(Invalid, Read), (LocalAction::IssueBusRead, Shared));
        assert_eq!(
            local_transition(Invalid, Write),
            (LocalAction::IssueBusReadExclusive, Modified)
        );
        assert_eq!(
            local_transition(Shared, Write),
            (LocalAction::IssueBusReadExclusive, Modified)
        );
        assert_eq!(
            local_transition(Shared, Atomic),
            (LocalAction::IssueBusReadExclusive, Modified)
        );
    }

    #[test]
    fn snoop_transitions_match_mesi_textbook() {
        use BusOp::*;
        assert_eq!(snoop_transition(Modified, BusRead), Shared);
        assert_eq!(snoop_transition(Modified, BusReadExclusive), Invalid);
        assert_eq!(snoop_transition(Shared, BusReadExclusive), Invalid);
        assert_eq!(snoop_transition(Shared, BusRead), Shared);
        assert_eq!(snoop_transition(Invalid, BusRead), Invalid);
        assert_eq!(snoop_transition(Invalid, BusReadExclusive), Invalid);
        assert_eq!(snoop_transition(Exclusive, BusRead), Shared);
        assert_eq!(snoop_transition(Exclusive, BusReadExclusive), Invalid);
    }

    #[test]
    fn write_always_ends_modified_locally() {
        for s in [Modified, Exclusive, Shared, Invalid] {
            let (_, next) = local_transition(s, Write);
            assert_eq!(next, Modified);
            let (_, next) = local_transition(s, Atomic);
            assert_eq!(next, Modified);
        }
    }

    #[test]
    fn bus_read_exclusive_always_invalidates_remotes() {
        for s in [Modified, Exclusive, Shared] {
            assert_eq!(snoop_transition(s, BusOp::BusReadExclusive), Invalid);
        }
    }
}
