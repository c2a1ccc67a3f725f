//! Set-associative L1 cache with per-line MESI state and LRU replacement.
//!
//! The structure matches the paper's prototype: each Rocket core has an eight-way, 32 KB,
//! 64-byte-line data cache ([`CacheConfig::rocket_l1d`]). The cache tracks *which* lines are
//! present and in what coherence state; data values are never simulated because only timing and
//! traffic matter for the reproduction.
//!
//! # Layout
//!
//! Every memory access looks lines up here, so the cache is three flat `sets × ways` arrays
//! rather than a list per set: line tags (with a sentinel for a free way), MESI states and
//! recency stamps, indexed by slot `set * ways + way`. A set's tags sit side by side, so a
//! lookup is one short scan, and the slot it returns lets a caller read a line's state and then
//! update it without looking it up again.
//!
//! Way order carries no meaning. Every fill and hit takes a fresh value of a per-cache use
//! clock as its recency stamp, so no two resident lines share a stamp and the LRU victim — the
//! way with the lowest stamp — is the same line wherever the lines sit in their set. A fill
//! takes any free way, and an invalidation frees its way in place.

use crate::addr::{line_of, Addr, LINE_SIZE};
use crate::mesi::MesiState;

/// Geometry of an L1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// The eight-way 32 KB Rocket Chip L1 data cache used by the paper's prototype.
    pub fn rocket_l1d() -> Self {
        CacheConfig { capacity_bytes: 32 * 1024, ways: 8 }
    }

    /// A tiny cache useful in tests that want to exercise evictions quickly.
    pub fn tiny() -> Self {
        CacheConfig { capacity_bytes: 4 * LINE_SIZE, ways: 2 }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, capacity not a multiple of
    /// `ways * LINE_SIZE`, or a non-power-of-two set count).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        let per_way = self.capacity_bytes / self.ways as u64;
        assert!(
            per_way.is_multiple_of(LINE_SIZE),
            "capacity must be a whole number of lines per way"
        );
        let sets = (per_way / LINE_SIZE) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets
    }

    /// Total number of lines the cache can hold.
    pub fn total_lines(&self) -> usize {
        self.sets() * self.ways
    }
}

/// Lifetime statistics of one L1 cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in a usable state.
    pub hits: u64,
    /// Accesses that required a line fill from memory.
    pub misses: u64,
    /// Write accesses that hit a Shared line and required an upgrade (invalidation of peers).
    pub upgrades: u64,
    /// Lines evicted to make room for a fill.
    pub evictions: u64,
    /// Evicted or snooped-out lines that were dirty and had to be written back.
    pub writebacks: u64,
    /// Lines invalidated by remote cores' ownership requests.
    pub snoop_invalidations: u64,
}

/// Tag of a way that holds no line. A line number is a byte address divided by [`LINE_SIZE`], so
/// no real line ever reaches it.
const EMPTY: u64 = u64::MAX;

/// A single core's L1 cache directory.
#[derive(Debug, Clone)]
pub struct L1Cache {
    config: CacheConfig,
    /// Line held by each slot, [`EMPTY`] when the way is free. Way `w` of set `s` is slot
    /// `s * ways + w` in this and the two arrays below.
    tags: Vec<u64>,
    /// MESI state of each occupied slot.
    states: Vec<MesiState>,
    /// Use-clock stamp of each occupied slot's last fill or hit: the LRU key.
    last_use: Vec<u64>,
    use_clock: u64,
    stats: CacheStats,
    /// Lines map to sets by modulo, and the set count is a power of two.
    set_mask: u64,
}

/// The result of installing a line: which victim (line number, dirty?) was evicted, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Line number of the evicted victim.
    pub line: u64,
    /// Whether the victim was dirty and requires a writeback to memory.
    pub dirty: bool,
}

impl L1Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let slots = config.total_lines();
        L1Cache {
            config,
            tags: vec![EMPTY; slots],
            states: vec![MesiState::Invalid; slots],
            last_use: vec![0; slots],
            use_clock: 0,
            stats: CacheStats::default(),
            set_mask: config.sets() as u64 - 1,
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The slots of the set `line` maps to.
    fn set_slots(&self, line: u64) -> std::ops::Range<usize> {
        let first = (line & self.set_mask) as usize * self.config.ways;
        first..first + self.config.ways
    }

    /// The slot holding `line`, if it is resident. Every lookup goes through here, and a caller
    /// that reads a line's state and then updates it passes the slot on instead of looking the
    /// line up again.
    pub(crate) fn slot_of(&self, line: u64) -> Option<usize> {
        let set = self.set_slots(line);
        let first = set.start;
        self.tags[set].iter().position(|&tag| tag == line).map(|way| first + way)
    }

    /// MESI state of the line in `slot`.
    pub(crate) fn state_at(&self, slot: usize) -> MesiState {
        self.states[slot]
    }

    /// Current MESI state of the line containing `addr`.
    pub fn state_of(&self, addr: Addr) -> MesiState {
        self.slot_of(line_of(addr)).map_or(MesiState::Invalid, |slot| self.states[slot])
    }

    /// Records a processor access outcome for statistics purposes.
    pub(crate) fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records a miss for statistics purposes.
    pub(crate) fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Records an upgrade (S->M ownership acquisition) for statistics purposes.
    pub(crate) fn note_upgrade(&mut self) {
        self.stats.upgrades += 1;
    }

    /// Marks the line as recently used and sets its state (used on hits and upgrades).
    ///
    /// # Panics
    ///
    /// Panics if the line is not present; callers must only touch resident lines.
    pub fn touch(&mut self, addr: Addr, state: MesiState) {
        let slot = self.slot_of(line_of(addr)).expect("touch() requires the line to be resident");
        self.touch_slot(slot, state);
    }

    /// [`L1Cache::touch`] of the line in `slot`.
    pub(crate) fn touch_slot(&mut self, slot: usize, state: MesiState) {
        self.use_clock += 1;
        self.states[slot] = state;
        self.last_use[slot] = self.use_clock;
    }

    /// Replays `times` back-to-back hits on `lines` (line numbers, touched in order on every
    /// repeat) in closed form: the same hit count, use clock and per-line recency as `times`
    /// rounds of [`L1Cache::note_hit`] plus [`L1Cache::touch`] that leave every state
    /// unchanged. The hits may be charged after a remote core has since invalidated a line;
    /// such a line has no recency left to update.
    pub(crate) fn repeat_hits(&mut self, lines: std::ops::RangeInclusive<u64>, times: u64) {
        let per_round = lines.end() - lines.start() + 1;
        let last_round = self.use_clock + (times - 1) * per_round;
        self.use_clock += times * per_round;
        self.stats.hits += times * per_round;
        for (i, line) in lines.enumerate() {
            if let Some(slot) = self.slot_of(line) {
                self.last_use[slot] = last_round + i as u64 + 1;
            }
        }
    }

    /// Fills the line containing `addr`, which must not be resident, in the given state,
    /// evicting the LRU way of its set if the set is full. Returns the eviction, if one
    /// happened.
    pub fn fill(&mut self, addr: Addr, state: MesiState) -> Option<Eviction> {
        let line = line_of(addr);
        debug_assert!(self.slot_of(line).is_none(), "fill() requires the line to be absent");
        // One pass over the set finds a free way, else the LRU way.
        let mut free = None;
        let mut lru = None::<usize>;
        for slot in self.set_slots(line) {
            if self.tags[slot] == EMPTY {
                free.get_or_insert(slot);
            } else if lru.is_none_or(|l| self.last_use[slot] < self.last_use[l]) {
                lru = Some(slot);
            }
        }
        let (slot, eviction) = match free {
            Some(slot) => (slot, None),
            None => {
                let victim = lru.expect("a full set has an LRU way");
                let dirty = self.states[victim].is_dirty();
                self.stats.evictions += 1;
                if dirty {
                    self.stats.writebacks += 1;
                }
                (victim, Some(Eviction { line: self.tags[victim], dirty }))
            }
        };
        self.tags[slot] = line;
        self.touch_slot(slot, state);
        eviction
    }

    /// [`L1Cache::fill`], or an in-place state update of a line already resident (test helper).
    #[cfg(test)]
    pub(crate) fn install(&mut self, addr: Addr, state: MesiState) -> Option<Eviction> {
        match self.slot_of(line_of(addr)) {
            Some(slot) => {
                self.touch_slot(slot, state);
                None
            }
            None => self.fill(addr, state),
        }
    }

    /// Applies a snoop result to the line in `slot`: sets its state (possibly Invalid), recording
    /// writeback and invalidation statistics.
    pub(crate) fn snoop_slot(&mut self, slot: usize, new_state: MesiState, wrote_back: bool) {
        if wrote_back {
            self.stats.writebacks += 1;
        }
        if new_state == MesiState::Invalid {
            self.tags[slot] = EMPTY;
            self.stats.snoop_invalidations += 1;
        }
        self.states[slot] = new_state;
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != EMPTY).count()
    }

    /// Iterates over `(line, state)` of resident lines (test helper).
    pub fn resident(&self) -> impl Iterator<Item = (u64, MesiState)> + '_ {
        self.tags
            .iter()
            .zip(&self.states)
            .filter(|(&tag, _)| tag != EMPTY)
            .map(|(&tag, &state)| (tag, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rocket_geometry() {
        let c = CacheConfig::rocket_l1d();
        assert_eq!(c.sets(), 64);
        assert_eq!(c.total_lines(), 512);
        assert_eq!(CacheConfig::tiny().sets(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        CacheConfig { capacity_bytes: 1024, ways: 0 }.sets();
    }

    #[test]
    fn install_and_state() {
        let mut c = L1Cache::new(CacheConfig::rocket_l1d());
        assert_eq!(c.state_of(0x1000), MesiState::Invalid);
        assert_eq!(c.install(0x1000, MesiState::Exclusive), None);
        assert_eq!(c.state_of(0x1000), MesiState::Exclusive);
        assert_eq!(c.state_of(0x1004), MesiState::Exclusive, "same line");
        assert_eq!(c.state_of(0x1040), MesiState::Invalid, "next line");
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_eviction_of_dirty_line_reports_writeback() {
        let mut c = L1Cache::new(CacheConfig::tiny()); // 2 sets x 2 ways
        // Three lines mapping to set 0: lines 0, 2, 4 (stride of 2 lines = 128 bytes).
        assert!(c.install(0, MesiState::Modified).is_none());
        assert!(c.install(128, MesiState::Exclusive).is_none());
        // Touch line 0 so line 2 (addr 128) becomes LRU.
        c.touch(0, MesiState::Modified);
        let ev = c.install(256, MesiState::Shared).expect("set is full, someone must go");
        assert_eq!(ev.line, 2);
        assert!(!ev.dirty);
        // Now evict the dirty line 0 by filling another conflicting line.
        let ev = c.install(384, MesiState::Shared).expect("eviction");
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn snoop_invalidation_removes_line() {
        let mut c = L1Cache::new(CacheConfig::rocket_l1d());
        c.install(0x2000, MesiState::Modified);
        let slot = c.slot_of(line_of(0x2000)).expect("resident");
        c.snoop_slot(slot, MesiState::Invalid, true);
        assert_eq!(c.state_of(0x2000), MesiState::Invalid);
        assert_eq!(c.slot_of(line_of(0x2000)), None, "the slot is free again");
        assert_eq!(c.stats().snoop_invalidations, 1);
        assert_eq!(c.stats().writebacks, 1);
        // An absent line has no slot to snoop.
        assert_eq!(c.slot_of(line_of(0x9999)), None);
    }

    #[test]
    fn snoop_downgrade_keeps_line_shared() {
        let mut c = L1Cache::new(CacheConfig::rocket_l1d());
        c.install(0x3000, MesiState::Modified);
        let slot = c.slot_of(line_of(0x3000)).expect("resident");
        c.snoop_slot(slot, MesiState::Shared, true);
        assert_eq!(c.state_of(0x3000), MesiState::Shared);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn reinstall_same_line_updates_state_without_eviction() {
        let mut c = L1Cache::new(CacheConfig::tiny());
        c.install(0, MesiState::Shared);
        assert!(c.install(0, MesiState::Modified).is_none());
        assert_eq!(c.state_of(0), MesiState::Modified);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    #[should_panic(expected = "resident")]
    fn touch_missing_line_panics() {
        let mut c = L1Cache::new(CacheConfig::tiny());
        c.touch(0x500, MesiState::Shared);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The cache never holds more lines than its capacity allows, and every set respects its
        /// associativity, under arbitrary interleavings of installs and snoops.
        #[test]
        fn capacity_never_exceeded(ops in proptest::collection::vec((0u64..64, 0u8..3), 1..300)) {
            let cfg = CacheConfig::tiny();
            let mut c = L1Cache::new(cfg);
            for (line, op) in ops {
                let addr = line * LINE_SIZE;
                match op {
                    0 => { c.install(addr, MesiState::Shared); }
                    1 => { c.install(addr, MesiState::Modified); }
                    _ => {
                        if let Some(slot) = c.slot_of(line_of(addr)) {
                            c.snoop_slot(slot, MesiState::Invalid, false);
                        }
                    }
                }
                prop_assert!(c.resident_lines() <= cfg.total_lines());
                for set in 0..cfg.sets() as u64 {
                    let held =
                        c.resident().filter(|(line, _)| line % cfg.sets() as u64 == set).count();
                    prop_assert!(held <= cfg.ways);
                }
            }
        }
    }

    /// Line `k` of a pool crowded into four sets, so that the eight-way geometry evicts too.
    fn pool_line(cfg: CacheConfig, k: u64) -> u64 {
        k % 4 + k / 4 * cfg.sets() as u64
    }

    fn resident_set(lines: impl Iterator<Item = (u64, MesiState)>) -> Vec<(u64, MesiState)> {
        let mut v: Vec<_> = lines.collect();
        v.sort_unstable();
        v
    }

    proptest! {
        /// The flat cache and the original per-set `Vec` cache agree on every eviction, state,
        /// statistic and resident set under the same random operation sequence.
        #[test]
        fn flat_cache_matches_the_reference(
            rocket in any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..5, 0u64..48, 0usize..3, 1u64..4, 1u64..5, any::<bool>()),
                1..400,
            ),
        ) {
            let cfg = if rocket { CacheConfig::rocket_l1d() } else { CacheConfig::tiny() };
            let mut flat = L1Cache::new(cfg);
            let mut reference = reference::RefCache::new(cfg);
            for (op, k, state, n, times, wrote_back) in ops {
                let first = pool_line(cfg, k);
                let addr = first * LINE_SIZE;
                let state = [MesiState::Modified, MesiState::Exclusive, MesiState::Shared][state];
                match op {
                    0 => prop_assert_eq!(flat.install(addr, state), reference.install(addr, state)),
                    1 => {
                        if reference.state_of(addr) != MesiState::Invalid {
                            flat.touch(addr, state);
                            reference.touch(addr, state);
                        }
                    }
                    2 => {
                        // A snoop leaves a line Shared or takes it away.
                        let next =
                            if state == MesiState::Shared { state } else { MesiState::Invalid };
                        if let Some(slot) = flat.slot_of(first) {
                            flat.snoop_slot(slot, next, wrote_back);
                        }
                        reference.apply_snoop(addr, next, wrote_back);
                    }
                    3 => {
                        flat.repeat_hits(first..=first + n - 1, times);
                        reference.repeat_hits(first..=first + n - 1, times);
                    }
                    _ => prop_assert_eq!(flat.state_of(addr), reference.state_of(addr)),
                }
                prop_assert_eq!(flat.stats(), reference.stats());
                prop_assert_eq!(resident_set(flat.resident()), resident_set(reference.resident()));
            }
        }
    }
}

/// The original cache, one `Vec` of entries per set, kept as the oracle the flat [`L1Cache`] is
/// checked against.
#[cfg(test)]
mod reference {
    use super::*;

    #[derive(Debug, Clone)]
    struct LineEntry {
        line: u64,
        state: MesiState,
        last_use: u64,
    }

    pub(super) struct RefCache {
        config: CacheConfig,
        sets: Vec<Vec<LineEntry>>,
        use_clock: u64,
        stats: CacheStats,
        set_mask: u64,
    }

    impl RefCache {
        pub(super) fn new(config: CacheConfig) -> Self {
            let sets = config.sets();
            RefCache {
                config,
                sets: vec![Vec::new(); sets],
                use_clock: 0,
                stats: CacheStats::default(),
                set_mask: sets as u64 - 1,
            }
        }

        pub(super) fn stats(&self) -> &CacheStats {
            &self.stats
        }

        fn set_index(&self, line: u64) -> usize {
            (line & self.set_mask) as usize
        }

        pub(super) fn state_of(&self, addr: Addr) -> MesiState {
            let line = line_of(addr);
            let set = &self.sets[self.set_index(line)];
            set.iter()
                .find(|e| e.line == line)
                .map(|e| e.state)
                .unwrap_or(MesiState::Invalid)
        }

        pub(super) fn touch(&mut self, addr: Addr, state: MesiState) {
            self.use_clock += 1;
            let line = line_of(addr);
            let idx = self.set_index(line);
            let clock = self.use_clock;
            let entry = self.sets[idx]
                .iter_mut()
                .find(|e| e.line == line)
                .expect("touch() requires the line to be resident");
            entry.state = state;
            entry.last_use = clock;
        }

        pub(super) fn repeat_hits(&mut self, lines: std::ops::RangeInclusive<u64>, times: u64) {
            let per_round = lines.end() - lines.start() + 1;
            let last_round = self.use_clock + (times - 1) * per_round;
            self.use_clock += times * per_round;
            self.stats.hits += times * per_round;
            for (i, line) in lines.enumerate() {
                let idx = self.set_index(line);
                if let Some(entry) = self.sets[idx].iter_mut().find(|e| e.line == line) {
                    entry.last_use = last_round + i as u64 + 1;
                }
            }
        }

        pub(super) fn install(&mut self, addr: Addr, state: MesiState) -> Option<Eviction> {
            self.use_clock += 1;
            let line = line_of(addr);
            let idx = self.set_index(line);
            let clock = self.use_clock;
            if let Some(entry) = self.sets[idx].iter_mut().find(|e| e.line == line) {
                entry.state = state;
                entry.last_use = clock;
                return None;
            }
            let mut eviction = None;
            if self.sets[idx].len() >= self.config.ways {
                let lru_pos = self.sets[idx]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_use)
                    .map(|(i, _)| i)
                    .expect("set is non-empty");
                let victim = self.sets[idx].swap_remove(lru_pos);
                self.stats.evictions += 1;
                let dirty = victim.state.is_dirty();
                if dirty {
                    self.stats.writebacks += 1;
                }
                eviction = Some(Eviction { line: victim.line, dirty });
            }
            self.sets[idx].push(LineEntry { line, state, last_use: clock });
            eviction
        }

        pub(super) fn apply_snoop(&mut self, addr: Addr, new_state: MesiState, wrote_back: bool) {
            let line = line_of(addr);
            let idx = self.set_index(line);
            if let Some(pos) = self.sets[idx].iter().position(|e| e.line == line) {
                if wrote_back {
                    self.stats.writebacks += 1;
                }
                if new_state == MesiState::Invalid {
                    self.sets[idx].swap_remove(pos);
                    self.stats.snoop_invalidations += 1;
                } else {
                    self.sets[idx][pos].state = new_state;
                }
            }
        }

        pub(super) fn resident(&self) -> impl Iterator<Item = (u64, MesiState)> + '_ {
            self.sets.iter().flatten().map(|e| (e.line, e.state))
        }
    }
}
