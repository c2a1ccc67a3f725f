//! A directory-based coherence protocol as a pure transition table, mirroring [`crate::mesi`].
//!
//! Past one snoop domain, broadcasting every miss to every core stops scaling; the standard
//! answer is a **directory**: per-line bookkeeping at a *home tile* that records exactly which
//! cores hold the line ([`SharerSet`]) and routes coherence messages point-to-point over the
//! NoC ([`crate::noc`]) instead of snooping a bus. This module is the functional half of that
//! design — states, operations and transitions, unit-tested over every `(state, op)` pair —
//! while [`crate::system`] layers the latency accounting on top.
//!
//! The protocol is MESI-equivalent by construction: the directory serialises requests per line
//! exactly as the snoop bus does, grants Exclusive on a read when no other core holds the line,
//! and (like the paper's no-L2 prototype) moves dirty data between cores **through memory** —
//! an owner recalled or downgraded must write back before the requester fetches. Caches notify
//! the home on every eviction ([`DirOp::Evict`]), clean or dirty, so the directory is always
//! *precise*. Both memory models keep this record and act on its transitions: a miss's
//! [`DirAction`] alone decides which remote copies change ([`DirAction::snoops`]), and the bus
//! or the mesh only prices the resulting traffic.

use crate::mesi::BusOp;

/// A bitset of cores holding a line, supporting machines up to 256 cores (the sweep grid goes
/// to 64; four words leave headroom without heap allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet {
    bits: [u64; 4],
}

/// Maximum number of cores a [`SharerSet`] can track.
pub const MAX_SHARERS: usize = 256;

impl SharerSet {
    /// The empty set.
    pub fn empty() -> Self {
        SharerSet::default()
    }

    /// The set containing exactly `core`.
    pub fn only(core: usize) -> Self {
        let mut s = SharerSet::empty();
        s.insert(core);
        s
    }

    /// Adds a core to the set.
    ///
    /// # Panics
    ///
    /// Panics if `core` is at or beyond [`MAX_SHARERS`].
    pub fn insert(&mut self, core: usize) {
        assert!(core < MAX_SHARERS, "sharer bitset supports up to {MAX_SHARERS} cores");
        self.bits[core / 64] |= 1u64 << (core % 64);
    }

    /// Removes a core from the set (no-op if absent).
    pub fn remove(&mut self, core: usize) {
        if core < MAX_SHARERS {
            self.bits[core / 64] &= !(1u64 << (core % 64));
        }
    }

    /// Whether the set contains `core`.
    pub fn contains(&self, core: usize) -> bool {
        core < MAX_SHARERS && self.bits[core / 64] & (1u64 << (core % 64)) != 0
    }

    /// Number of cores in the set.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Iterates over the cores in the set, in ascending order. Walks the set bits of each word,
    /// so the cost follows the set's size, not [`MAX_SHARERS`].
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bits = self.bits;
        let mut word = 0;
        std::iter::from_fn(move || {
            while word < bits.len() {
                let w = bits[word];
                if w != 0 {
                    bits[word] = w & (w - 1);
                    return Some(word * 64 + w.trailing_zeros() as usize);
                }
                word += 1;
            }
            None
        })
    }

    /// This set minus `core`.
    pub fn without(mut self, core: usize) -> Self {
        self.remove(core);
        self
    }
}

/// Directory state of one cache line at its home tile.
///
/// The directory cannot distinguish a clean-Exclusive from a Modified owner without asking
/// (the silent E→M upgrade is local), so a single [`DirState::Owned`] covers both — the
/// recall/downgrade path checks the owner's actual cache state to decide whether a writeback
/// is due, exactly as a snooped cache does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirState {
    /// No cache holds the line; memory is the only copy.
    Uncached,
    /// One core holds the line Exclusive or Modified.
    Owned(usize),
    /// The recorded cores hold the line Shared (clean).
    Shared(SharerSet),
}

/// Requests arriving at a line's home tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirOp {
    /// A core missed on a read and wants a readable copy.
    GetS(usize),
    /// A core wants an exclusive (writable) copy — a write miss or an S→M upgrade.
    GetM(usize),
    /// A core evicted its copy (clean or dirty) and notifies the home so the directory stays
    /// precise. Dirty data travels with the notification as an ordinary writeback.
    Evict(usize),
}

/// What the home tile must orchestrate to satisfy a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirAction {
    /// No remote cache is involved: fetch the line from memory for the requester.
    FetchFromMemory,
    /// The owner keeps a copy but downgrades to Shared; if its copy is dirty it writes back
    /// first, then the requester fetches from memory (no-L2: no cache-to-cache data transfer).
    DowngradeOwner(usize),
    /// The owner invalidates its copy; if dirty it writes back first, then the requester
    /// fetches from memory.
    RecallOwner(usize),
    /// The requester already holds the line Shared: invalidate the other sharers and grant
    /// ownership in place — no data fetch.
    InvalidateForUpgrade(SharerSet),
    /// Invalidate all sharers, then fetch the line from memory for the requester.
    InvalidateAndFetch(SharerSet),
    /// Pure bookkeeping; nothing to orchestrate.
    None,
}

impl DirAction {
    /// The remote caches the action acts on and the bus operation each of them observes,
    /// to be applied through [`crate::mesi::snoop_transition`]: a downgrade is a read seen by
    /// the owner, a recall or an invalidation a read-for-ownership seen by the owner or by
    /// each sharer. An action that involves no remote cache yields the empty set.
    pub fn snoops(self) -> (SharerSet, BusOp) {
        match self {
            DirAction::DowngradeOwner(owner) => (SharerSet::only(owner), BusOp::BusRead),
            DirAction::RecallOwner(owner) => (SharerSet::only(owner), BusOp::BusReadExclusive),
            DirAction::InvalidateForUpgrade(sharers) | DirAction::InvalidateAndFetch(sharers) => {
                (sharers, BusOp::BusReadExclusive)
            }
            DirAction::FetchFromMemory | DirAction::None => (SharerSet::empty(), BusOp::BusRead),
        }
    }
}

/// Computes the home tile's action and the line's next directory state for a request.
///
/// Mirrors [`crate::mesi::local_transition`] / [`crate::mesi::snoop_transition`]: a pure
/// function over the full `(state, op)` cross product, exhaustively unit-tested below.
/// Requests from a core the directory already records as owner (possible only if protocol
/// bookkeeping desynchronised) and evictions by non-holders are treated as precise-directory
/// violations and tolerated as no-ops; the system-level invariant checker reports them.
pub fn dir_transition(state: DirState, op: DirOp) -> (DirAction, DirState) {
    use DirAction::*;
    use DirOp::*;
    use DirState::*;
    match (state, op) {
        // Cold or memory-only lines: the requester becomes owner (Exclusive on a read when no
        // one else holds the line — same rule the snoop model applies when zero sharers answer).
        (Uncached, GetS(r)) | (Uncached, GetM(r)) => (FetchFromMemory, Owned(r)),
        (Uncached, Evict(_)) => (None, Uncached),

        // An owned line: a reader forces a downgrade to Shared, a writer a full recall.
        (Owned(o), GetS(r)) if r != o => {
            let mut sharers = SharerSet::only(o);
            sharers.insert(r);
            (DowngradeOwner(o), Shared(sharers))
        }
        (Owned(o), GetM(r)) if r != o => (RecallOwner(o), Owned(r)),
        // The owner can already read and write locally; a request from it means the directory
        // lost an eviction notification. Tolerate (the invariant checker flags it).
        (Owned(o), GetS(r)) | (Owned(o), GetM(r)) if r == o => (None, Owned(o)),
        (Owned(o), Evict(c)) if c == o => (None, Uncached),
        (Owned(o), Evict(_)) => (None, Owned(o)),

        // A shared line: readers join the sharer set (data still comes from memory — clean
        // sharers do not forward in the no-L2 hierarchy); writers invalidate everyone else.
        (Shared(mut s), GetS(r)) => {
            s.insert(r);
            (FetchFromMemory, Shared(s))
        }
        (Shared(s), GetM(r)) if s.contains(r) => {
            let others = s.without(r);
            (InvalidateForUpgrade(others), Owned(r))
        }
        (Shared(s), GetM(r)) => (InvalidateAndFetch(s), Owned(r)),
        (Shared(s), Evict(c)) => {
            let rest = s.without(c);
            if rest.is_empty() {
                (None, Uncached)
            } else {
                (None, Shared(rest))
            }
        }

        // Unreachable arm-wise, but the guards above are not exhaustive for the compiler.
        (s, _) => (None, s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DirAction as A;
    use DirOp::*;
    use DirState::*;

    fn sharers(cores: &[usize]) -> SharerSet {
        let mut s = SharerSet::empty();
        for &c in cores {
            s.insert(c);
        }
        s
    }

    fn shared(cores: &[usize]) -> DirState {
        Shared(sharers(cores))
    }

    #[test]
    fn sharer_set_basics() {
        let mut s = SharerSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        s.insert(0);
        s.insert(63);
        s.insert(64); // crosses the word boundary
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(!s.contains(1));
        assert_eq!(s.count(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64]);
        s.remove(63);
        assert!(!s.contains(63));
        assert_eq!(s.count(), 2);
        s.remove(200); // absent: no-op
        assert_eq!(s.count(), 2);
        assert_eq!(SharerSet::only(5).iter().collect::<Vec<_>>(), vec![5]);
        assert_eq!(SharerSet::only(5).without(5), SharerSet::empty());
    }

    #[test]
    fn sharer_set_saturates_at_64_cores() {
        // The sweep grid's largest machine: all 64 cores share one line, then one of them
        // upgrades and the directory must fan the other 63 invalidations out.
        let mut s = SharerSet::empty();
        for c in 0..64 {
            s.insert(c);
        }
        assert_eq!(s.count(), 64);
        assert!((0..64).all(|c| s.contains(c)));
        assert_eq!(s.iter().count(), 64);
        let (action, next) = dir_transition(Shared(s), GetM(7));
        match action {
            A::InvalidateForUpgrade(inv) => {
                assert_eq!(inv.count(), 63);
                assert!(!inv.contains(7), "the upgrader is not invalidated");
                assert!((0..64).filter(|&c| c != 7).all(|c| inv.contains(c)));
            }
            other => panic!("expected an upgrade fan-out, got {other:?}"),
        }
        assert_eq!(next, Owned(7));
    }

    #[test]
    #[should_panic(expected = "up to 256 cores")]
    fn sharer_set_rejects_cores_beyond_capacity() {
        SharerSet::empty().insert(MAX_SHARERS);
    }

    #[test]
    fn uncached_requests_install_an_owner() {
        // Like the snoop model's zero-sharer answer, a cold read installs Exclusive (Owned).
        assert_eq!(dir_transition(Uncached, GetS(2)), (A::FetchFromMemory, Owned(2)));
        assert_eq!(dir_transition(Uncached, GetM(2)), (A::FetchFromMemory, Owned(2)));
        assert_eq!(dir_transition(Uncached, Evict(0)), (A::None, Uncached));
    }

    #[test]
    fn owned_read_downgrades_owner_to_shared() {
        let (action, next) = dir_transition(Owned(1), GetS(3));
        assert_eq!(action, A::DowngradeOwner(1));
        assert_eq!(next, shared(&[1, 3]));
    }

    #[test]
    fn owned_write_recalls_owner() {
        assert_eq!(dir_transition(Owned(1), GetM(3)), (A::RecallOwner(1), Owned(3)));
    }

    #[test]
    fn owned_eviction_returns_line_to_memory() {
        assert_eq!(dir_transition(Owned(1), Evict(1)), (A::None, Uncached));
        // A non-owner eviction of an owned line is bookkeeping noise: tolerated, state kept.
        assert_eq!(dir_transition(Owned(1), Evict(2)), (A::None, Owned(1)));
    }

    #[test]
    fn owner_self_requests_are_tolerated_no_ops() {
        assert_eq!(dir_transition(Owned(4), GetS(4)), (A::None, Owned(4)));
        assert_eq!(dir_transition(Owned(4), GetM(4)), (A::None, Owned(4)));
    }

    #[test]
    fn shared_read_joins_the_sharer_set() {
        let (action, next) = dir_transition(shared(&[0, 2]), GetS(5));
        assert_eq!(action, A::FetchFromMemory, "clean sharers do not forward without an L2");
        assert_eq!(next, shared(&[0, 2, 5]));
        // Re-reading as an existing sharer is idempotent on the set.
        assert_eq!(dir_transition(shared(&[0, 2]), GetS(2)).1, shared(&[0, 2]));
    }

    #[test]
    fn shared_upgrade_invalidates_only_the_others() {
        let (action, next) = dir_transition(shared(&[0, 2, 5]), GetM(2));
        match action {
            A::InvalidateForUpgrade(inv) => {
                assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0, 5]);
            }
            other => panic!("expected an upgrade, got {other:?}"),
        }
        assert_eq!(next, Owned(2));
    }

    #[test]
    fn shared_write_by_non_sharer_invalidates_and_fetches() {
        let (action, next) = dir_transition(shared(&[0, 5]), GetM(3));
        match action {
            A::InvalidateAndFetch(inv) => {
                assert_eq!(inv.iter().collect::<Vec<_>>(), vec![0, 5]);
            }
            other => panic!("expected invalidate-and-fetch, got {other:?}"),
        }
        assert_eq!(next, Owned(3));
    }

    #[test]
    fn shared_evictions_shrink_then_clear_the_set() {
        assert_eq!(dir_transition(shared(&[0, 5]), Evict(0)), (A::None, shared(&[5])));
        assert_eq!(dir_transition(shared(&[5]), Evict(5)), (A::None, Uncached));
        // Evicting a core that was never a sharer leaves the set untouched.
        assert_eq!(dir_transition(shared(&[0, 5]), Evict(3)), (A::None, shared(&[0, 5])));
    }

    #[test]
    fn actions_snoop_the_owner_or_the_sharers() {
        use BusOp::*;
        assert_eq!(A::DowngradeOwner(2).snoops(), (sharers(&[2]), BusRead));
        assert_eq!(A::RecallOwner(2).snoops(), (sharers(&[2]), BusReadExclusive));
        let upgrade = A::InvalidateForUpgrade(sharers(&[0, 5]));
        assert_eq!(upgrade.snoops(), (sharers(&[0, 5]), BusReadExclusive));
        let fetch = A::InvalidateAndFetch(sharers(&[1]));
        assert_eq!(fetch.snoops(), (sharers(&[1]), BusReadExclusive));
        assert!(A::FetchFromMemory.snoops().0.is_empty());
        assert!(A::None.snoops().0.is_empty());
    }

    #[test]
    fn every_transition_preserves_single_owner() {
        // Sweep the full (state, op) cross product on a 4-core machine: the next state never
        // names more than one owner and never lists an owner inside a sharer set.
        let states = [
            Uncached,
            Owned(0),
            Owned(3),
            shared(&[0]),
            shared(&[1, 2]),
            shared(&[0, 1, 2, 3]),
        ];
        for state in states {
            for core in 0..4 {
                for op in [GetS(core), GetM(core), Evict(core)] {
                    let (_, next) = dir_transition(state, op);
                    match next {
                        Uncached | Owned(_) => {}
                        Shared(s) => {
                            assert!(!s.is_empty(), "{state:?} + {op:?} produced an empty Shared");
                        }
                    }
                    // GetM always ends with the requester owning the line (unless it already
                    // owned it and the request was spurious).
                    if let (GetM(r), Owned(o)) = (op, next) {
                        if state != Owned(o) || o == r {
                            assert_eq!(o, r, "{state:?} + {op:?} must give {r} ownership");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The first and last core of each 64-core word the edge cases cover.
    const EDGES: [usize; 6] = [0, 63, 64, 127, 128, 255];

    proptest! {
        /// Walking the set bits yields exactly the cores the per-core scan finds, in the same
        /// ascending order.
        #[test]
        fn iter_matches_the_per_core_scan(
            cores in proptest::collection::vec(0usize..MAX_SHARERS, 0..40),
            edges in 0u8..64,
        ) {
            let mut s = SharerSet::empty();
            for c in cores {
                s.insert(c);
            }
            for (i, &c) in EDGES.iter().enumerate() {
                if edges & (1 << i) != 0 {
                    s.insert(c);
                }
            }
            let scanned: Vec<usize> = (0..MAX_SHARERS).filter(|&c| s.contains(c)).collect();
            prop_assert_eq!(s.iter().collect::<Vec<_>>(), scanned);
        }
    }
}
