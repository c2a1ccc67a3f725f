//! Exhaustive model check of the coherence protocol tables.
//!
//! The runtime invariant checker in `tis-mem` (`check_coherence_invariants`)
//! only sees the states a particular workload happens to visit. This module
//! closes the gap: it enumerates **every** reachable global state of one
//! cache line — a per-core MESI state vector plus the home directory entry —
//! under the pure transition tables [`tis_mem::mesi::local_transition`],
//! [`tis_mem::mesi::snoop_transition`] and
//! [`tis_mem::directory::dir_transition`], and proves two invariants over the
//! whole space. A miss composes them exactly as `tis_mem::MemorySystem` does
//! under both memory models: the directory transition's action, through
//! [`tis_mem::directory::DirAction::snoops`], alone picks the remote copies
//! that take a snoop transition, and a read of a line no cache holds fills
//! Exclusive. The snooping bus and the directory mesh differ only in how they
//! price the traffic, so this check covers the protocol both of them run:
//!
//! - **SWMR** (single writer / multiple readers): at most one core holds the
//!   line writable (M/E), and a writable copy excludes every other copy.
//! - **Directory precision**: the directory entry names exactly the holders —
//!   `Uncached` means no copies, `Owned(o)` means core `o` alone holds M/E,
//!   `Shared(s)` means exactly the cores in `s` hold clean Shared copies.
//!
//! Lines are independent in both memory models, so one line generalises. The
//! reachable space for `n >= 2` cores is exactly `2^n + 2n` states (all-invalid,
//! `n × {E, M}` owned states, and one `Shared(s)` per non-empty sharer set);
//! a test pins that count so a protocol change that grows or shrinks the
//! space is noticed.

use tis_mem::directory::{dir_transition, DirAction, DirOp, DirState};
use tis_mem::mesi::{local_transition, snoop_transition, AccessKind, LocalAction};
use tis_mem::MesiState;

/// An invariant breach found in a global `(caches, directory)` state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolViolation {
    /// Two cores hold copies and at least one of them is writable.
    SwmrViolation {
        /// The core holding a writable (M/E) copy.
        writer: usize,
        /// Another core simultaneously holding any copy.
        other: usize,
        /// That other core's cache state.
        other_state: MesiState,
    },
    /// The directory entry disagrees with a core's actual cache state.
    DirectoryImprecise {
        /// The core whose cache state contradicts the directory.
        core: usize,
        /// That core's cache state.
        cache_state: MesiState,
        /// The directory entry.
        dir: DirState,
    },
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::SwmrViolation { writer, other, other_state } => write!(
                f,
                "SWMR violated: core {writer} holds a writable copy while core {other} is {other_state:?}"
            ),
            ProtocolViolation::DirectoryImprecise { core, cache_state, dir } => write!(
                f,
                "directory imprecise: core {core} is {cache_state:?} but the directory says {dir:?}"
            ),
        }
    }
}

impl std::error::Error for ProtocolViolation {}

/// Checks SWMR and directory precision for one global state.
///
/// Public so runtime layers (and mutation tests that corrupt a
/// [`tis_mem::SharerSet`] bit) can apply the exact invariant the model check proves.
pub fn check_global_invariants(
    caches: &[MesiState],
    dir: DirState,
) -> Result<(), ProtocolViolation> {
    // SWMR: a writable copy excludes every other copy.
    for (writer, &ws) in caches.iter().enumerate() {
        if !matches!(ws, MesiState::Modified | MesiState::Exclusive) {
            continue;
        }
        for (other, &os) in caches.iter().enumerate() {
            if other != writer && os != MesiState::Invalid {
                return Err(ProtocolViolation::SwmrViolation { writer, other, other_state: os });
            }
        }
    }

    // Directory precision: the entry names exactly the holders.
    for (core, &cs) in caches.iter().enumerate() {
        let expected_holder = match dir {
            DirState::Uncached => false,
            DirState::Owned(o) => core == o,
            DirState::Shared(s) => s.contains(core),
        };
        let precise = match (expected_holder, cs) {
            (false, MesiState::Invalid) => true,
            (false, _) => false,
            (true, MesiState::Invalid) => false,
            (true, MesiState::Shared) => matches!(dir, DirState::Shared(_)),
            (true, MesiState::Modified | MesiState::Exclusive) => {
                matches!(dir, DirState::Owned(_))
            }
        };
        if !precise {
            return Err(ProtocolViolation::DirectoryImprecise { core, cache_state: cs, dir });
        }
    }
    Ok(())
}

/// Outcome of an exhaustive reachability run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelCheckReport {
    /// Cores modelled.
    pub cores: usize,
    /// Distinct reachable global states, all invariant-checked.
    pub states_explored: usize,
    /// Transitions taken (edges of the reachability graph).
    pub transitions: usize,
    /// Which `(DirState, DirOp)` shape pairs were driven through
    /// `dir_transition`, indexed `[Uncached|Owned|Shared][GetS|GetM|Evict]`.
    pub dir_pairs: [[bool; 3]; 3],
    /// Which `(MesiState, AccessKind)` pairs were driven through
    /// `local_transition`.
    pub local_pairs_covered: usize,
}

impl ModelCheckReport {
    /// Count of distinct `(DirState, DirOp)` shape pairs exercised.
    pub fn dir_pairs_covered(&self) -> usize {
        self.dir_pairs.iter().flatten().filter(|&&c| c).count()
    }

    /// True when every *reachable* `(DirState, DirOp)` shape pair was
    /// exercised. `(Uncached, Evict)` is provably unreachable under a precise
    /// directory — an eviction implies a holder, a holder implies a non-
    /// `Uncached` entry — so full coverage is 8 of the 9 shape pairs.
    pub fn full_reachable_dir_coverage(&self) -> bool {
        let unreachable = [(0usize, 2usize)]; // (Uncached, Evict)
        (0..3).all(|s| {
            (0..3).all(|o| self.dir_pairs[s][o] != unreachable.contains(&(s, o)))
        })
    }
}

fn dir_shape(d: DirState) -> usize {
    match d {
        DirState::Uncached => 0,
        DirState::Owned(_) => 1,
        DirState::Shared(_) => 2,
    }
}

fn op_shape(op: DirOp) -> usize {
    match op {
        DirOp::GetS(_) => 0,
        DirOp::GetM(_) => 1,
        DirOp::Evict(_) => 2,
    }
}

/// One global state of the modelled line.
#[derive(Clone)]
struct Global {
    caches: Vec<MesiState>,
    dir: DirState,
}

impl Global {
    /// Canonical key: 2 bits per cache state, then the directory entry.
    /// `SharerSet` supports 256 cores but the model check never needs more
    /// than 64, so the sharer bits fit one word.
    fn key(&self) -> (u64, u8, u64) {
        let mut bits = 0u64;
        for (i, &s) in self.caches.iter().enumerate() {
            let code = match s {
                MesiState::Invalid => 0u64,
                MesiState::Shared => 1,
                MesiState::Exclusive => 2,
                MesiState::Modified => 3,
            };
            bits |= code << (2 * i);
        }
        match self.dir {
            DirState::Uncached => (bits, 0, 0),
            DirState::Owned(o) => (bits, 1, o as u64),
            DirState::Shared(s) => {
                let mut set = 0u64;
                for c in s.iter() {
                    set |= 1 << c;
                }
                (bits, 2, set)
            }
        }
    }
}

/// Applies a directory action's remote side effects through the snoop table, as
/// `tis_mem::MemorySystem` does on every miss under both memory models.
fn apply_dir_action(caches: &mut [MesiState], action: DirAction) {
    let (targets, op) = action.snoops();
    for c in targets.iter() {
        caches[c] = snoop_transition(caches[c], op);
    }
}

/// Exhaustively enumerates every reachable global state of one line for
/// `cores` cores, checking [`check_global_invariants`] at each state.
///
/// From every state, every core attempts every [`AccessKind`] (misses route
/// through `dir_transition`, remote effects through `snoop_transition`) and
/// every holder attempts an eviction.
///
/// Returns the first invariant violation as an error — a correct protocol
/// yields `Ok` with the full reachable space enumerated.
pub fn model_check_protocol(cores: usize) -> Result<ModelCheckReport, ProtocolViolation> {
    assert!(
        (1..=16).contains(&cores),
        "model check is exponential in cores; 1..=16 covers every real configuration"
    );

    let initial = Global { caches: vec![MesiState::Invalid; cores], dir: DirState::Uncached };
    let mut seen = std::collections::HashSet::new();
    seen.insert(initial.key());
    let mut frontier = vec![initial];
    let mut report = ModelCheckReport {
        cores,
        states_explored: 0,
        transitions: 0,
        dir_pairs: [[false; 3]; 3],
        local_pairs_covered: 0,
    };
    let mut local_pairs = std::collections::HashSet::new();

    while let Some(state) = frontier.pop() {
        report.states_explored += 1;
        check_global_invariants(&state.caches, state.dir)?;

        let mut successors: Vec<Global> = Vec::new();

        for core in 0..cores {
            for kind in [AccessKind::Read, AccessKind::Write, AccessKind::Atomic] {
                local_pairs.insert((state.caches[core] as u8, kind as u8));
                let (action, hit_next) = local_transition(state.caches[core], kind);
                let mut next = state.clone();
                match action {
                    LocalAction::Hit => {
                        next.caches[core] = hit_next;
                    }
                    LocalAction::IssueBusRead => {
                        let op = DirOp::GetS(core);
                        report.dir_pairs[dir_shape(next.dir)][op_shape(op)] = true;
                        let (dir_action, dir_next) = dir_transition(next.dir, op);
                        apply_dir_action(&mut next.caches, dir_action);
                        // The simulator's fill rule: a read of a line no
                        // cache holds installs Exclusive.
                        next.caches[core] = if next.dir == DirState::Uncached {
                            MesiState::Exclusive
                        } else {
                            MesiState::Shared
                        };
                        next.dir = dir_next;
                    }
                    LocalAction::IssueBusReadExclusive => {
                        let op = DirOp::GetM(core);
                        report.dir_pairs[dir_shape(next.dir)][op_shape(op)] = true;
                        let (dir_action, dir_next) = dir_transition(next.dir, op);
                        apply_dir_action(&mut next.caches, dir_action);
                        next.caches[core] = MesiState::Modified;
                        next.dir = dir_next;
                    }
                }
                successors.push(next);
            }

            if state.caches[core] != MesiState::Invalid {
                let mut next = state.clone();
                let op = DirOp::Evict(core);
                report.dir_pairs[dir_shape(next.dir)][op_shape(op)] = true;
                let (dir_action, dir_next) = dir_transition(next.dir, op);
                apply_dir_action(&mut next.caches, dir_action);
                next.caches[core] = MesiState::Invalid;
                next.dir = dir_next;
                successors.push(next);
            }
        }

        for next in successors {
            report.transitions += 1;
            if seen.insert(next.key()) {
                frontier.push(next);
            }
        }
    }

    report.local_pairs_covered = local_pairs.len();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_mem::SharerSet;

    #[test]
    fn reachable_space_is_exactly_2n_plus_2_to_the_n() {
        for cores in 2..=8 {
            let report = model_check_protocol(cores).unwrap();
            assert_eq!(
                report.states_explored,
                (1usize << cores) + 2 * cores,
                "unexpected reachable-state count for {cores} cores"
            );
        }
        // A lone core can never be downgraded to Shared (that takes a second
        // reader), so its space is just {Invalid, Exclusive, Modified}.
        assert_eq!(model_check_protocol(1).unwrap().states_explored, 3);
    }

    #[test]
    fn full_reachable_dir_pair_coverage_and_all_local_pairs() {
        let report = model_check_protocol(4).unwrap();
        assert!(report.full_reachable_dir_coverage(), "pairs: {:?}", report.dir_pairs);
        assert_eq!(report.dir_pairs_covered(), 8);
        // 4 MESI states x 3 access kinds, every combination driven.
        assert_eq!(report.local_pairs_covered, 12);
    }

    #[test]
    fn uncached_evict_is_unreachable_but_defensively_tolerated() {
        let report = model_check_protocol(4).unwrap();
        assert!(!report.dir_pairs[0][2], "(Uncached, Evict) must be unreachable");
        // The table still tolerates the desync defensively.
        let (action, next) = dir_transition(DirState::Uncached, DirOp::Evict(1));
        assert_eq!(action, DirAction::None);
        assert_eq!(next, DirState::Uncached);
    }

    #[test]
    fn ghost_sharer_bit_is_caught() {
        // Cores 0 and 2 legitimately share; corrupt the entry by setting a
        // ghost bit for core 1, which holds nothing.
        let caches =
            [MesiState::Shared, MesiState::Invalid, MesiState::Shared, MesiState::Invalid];
        let mut s = SharerSet::only(0);
        s.insert(2);
        assert!(check_global_invariants(&caches, DirState::Shared(s)).is_ok());
        s.insert(1);
        let err = check_global_invariants(&caches, DirState::Shared(s)).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::DirectoryImprecise {
                core: 1,
                cache_state: MesiState::Invalid,
                dir: DirState::Shared(s),
            }
        );
    }

    #[test]
    fn dropped_sharer_bit_is_caught() {
        let caches = [MesiState::Shared, MesiState::Invalid, MesiState::Shared];
        let full = {
            let mut s = SharerSet::only(0);
            s.insert(2);
            s
        };
        let corrupted = full.without(2);
        let err = check_global_invariants(&caches, DirState::Shared(corrupted)).unwrap_err();
        assert!(
            matches!(err, ProtocolViolation::DirectoryImprecise { core: 2, .. }),
            "dropping a real sharer must be imprecise: {err:?}"
        );
    }

    #[test]
    fn two_writers_violate_swmr() {
        let caches = [MesiState::Modified, MesiState::Modified];
        let err = check_global_invariants(&caches, DirState::Owned(0)).unwrap_err();
        assert!(matches!(err, ProtocolViolation::SwmrViolation { .. }));
    }

    #[test]
    fn writer_alongside_reader_violates_swmr() {
        let caches = [MesiState::Exclusive, MesiState::Shared];
        let err = check_global_invariants(&caches, DirState::Owned(0)).unwrap_err();
        assert_eq!(
            err,
            ProtocolViolation::SwmrViolation {
                writer: 0,
                other: 1,
                other_state: MesiState::Shared,
            }
        );
    }
}
