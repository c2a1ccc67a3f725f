//! Functional core of Picos: the task memory and the dependence-matching logic.
//!
//! The hardware keeps a bounded *task memory* (one entry per in-flight task, identified by a
//! **Picos ID**) and a bounded *address table* that maps dependence addresses to the producers
//! and consumers currently in flight. [`DependenceTracker`] reproduces that structure and the
//! RAW/WAW/WAR matching rules; its capacity limits are what eventually make the hardware refuse
//! new submissions, triggering the non-blocking failure paths of the RoCC instructions.
//!
//! # Host-side performance
//!
//! The tracker sits on the simulator's hottest path: every simulated task goes through one
//! `insert` and one `retire`, so its *host* cost bounds how large an experiment the harness can
//! run (the *simulated* cost is charged separately, by `PicosTiming`). Both cost O(1) per
//! dependence and allocate nothing in steady state:
//!
//! * **A slab-indexed address table.** An [`FxHashMap`] maps each live address to the index of
//!   its entry in a slab of address entries: the address, its last in-flight writer, its
//!   readers since that writer and a generation number. The slab grows on demand and recycles
//!   freed entries through a free list; a recycled entry keeps its reader list's capacity.
//! * **Records that know their position.** For each of its collapsed dependences, a task slot
//!   keeps a record of the entry it touched, its position in that entry's reader list and the
//!   entry's generation at insert time. Each reader-list element names the task slot and the
//!   record index that point back at it. Retirement follows its records straight to the
//!   entries: it unsets the writer, or `swap_remove`s its reader element and repoints the
//!   moved reader's record at the vacated position. It hashes an address only to drop an entry
//!   that it left empty.
//! * **The generation rule.** Every write to an address clears its readers and bumps the
//!   entry's generation, and generations are never reset, not even when the entry is freed and
//!   reused for another address. A record whose generation differs from its entry's was
//!   superseded by a later writer and is skipped; a record whose generation matches is still
//!   the entry's writer or reader. So an entry is freed only by the retirement that removes its
//!   last live reference, never through a stale record (whose entry may by then be free, or
//!   hold another address). When tasks retire only once ready, as every runtime retires them,
//!   the writers that superseded a stale record stay in flight until its task retires, so
//!   fewer writes than the task memory has entries can follow it: the 32-bit generation cannot
//!   wrap back to a stale record's value.
//! * **Reader order is not observable**, which is what lets `swap_remove` reorder reader
//!   lists. A writer's WAR predecessors are de-duplicated by epoch-stamped marks (one array
//!   compare per check), each predecessor's successor list gains the new task exactly once,
//!   and the unresolved count is the number of distinct predecessors. Wake lists,
//!   `successor_count` (the retirement timing's fanout), statistics and rejections are the same
//!   for any order of the readers.
//! * Per-task successor and dependence lists use [`InlineVec`] — no heap traffic for the common
//!   ≤4-entry case — and the per-insert working sets live in scratch arenas reused across
//!   calls.
//!
//! None of this affects simulated cycle counts: `micro_components` measures the host-side gain
//! against a seed-era implementation, the previous tracker is kept as the oracle of a
//! differential property test, and the figure benches pin the cycle counts themselves.

use std::collections::hash_map::Entry;

use tis_sim::{FxHashMap, InlineVec};
use tis_taskmodel::Direction;

use crate::packet::SubmittedTask;

/// Inline capacity of the per-task lists: dependence records and successor lists stay
/// heap-free while they hold at most this many entries (the overwhelmingly common case in the
/// paper's workloads).
const INLINE_LEN: usize = 4;

/// [`DepRecord::reader_pos`] of a dependence that does not read its address.
const NOT_A_READER: u32 = u32::MAX;

/// Index of a task inside Picos' task memory — the "Picos ID" returned by `Fetch Picos ID` and
/// passed back through `Retire Task`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PicosId(pub u32);

impl core::fmt::Display for PicosId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Capacity parameters of the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerConfig {
    /// Number of task-memory entries (maximum in-flight tasks).
    pub task_memory_entries: usize,
    /// Number of address-table entries (maximum distinct live dependence addresses).
    pub address_table_entries: usize,
}

impl TrackerConfig {
    /// Creates a capacity configuration. The two capacities are first-class experiment axes
    /// (the `tis-exp` sweeps explore them the way the HTS design-space studies do), so a
    /// dedicated constructor keeps sweep definitions terse.
    pub const fn new(task_memory_entries: usize, address_table_entries: usize) -> Self {
        TrackerConfig { task_memory_entries, address_table_entries }
    }

    /// Stable short label for experiment rows, e.g. `tm256-at2048`.
    pub fn label(&self) -> String {
        format!("tm{}-at{}", self.task_memory_entries, self.address_table_entries)
    }

    /// Task-memory entries available to each of `tenants` co-scheduled clients under hard
    /// partitioning: an even split of the task memory, never below one entry. The Picos
    /// descriptor encoding has no spare bits for a tenant tag, so partitioning is enforced at
    /// admission (`tis_taskmodel::TenantTrackerPolicy::Partitioned`) — capping every tenant's
    /// in-flight tasks at this share reserves the remaining entries for the other tenants
    /// exactly as a physically partitioned task memory would.
    pub const fn per_tenant_entries(&self, tenants: usize) -> usize {
        let n = if tenants == 0 { 1 } else { tenants };
        let share = self.task_memory_entries / n;
        if share == 0 {
            1
        } else {
            share
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero (a tracker that can hold no task or no address could
    /// never accept a submission).
    pub fn validate(&self) {
        assert!(self.task_memory_entries > 0, "task memory must have entries");
        assert!(self.address_table_entries > 0, "address table must have entries");
    }
}

impl Default for TrackerConfig {
    fn default() -> Self {
        // The Picos VHDL prototype tracks a few hundred in-flight tasks; 256 task-memory entries
        // and a 2048-entry address table keep the same order of magnitude.
        TrackerConfig { task_memory_entries: 256, address_table_entries: 2048 }
    }
}

/// Errors returned by the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerError {
    /// All task-memory entries are occupied by in-flight tasks.
    TaskMemoryFull,
    /// The address table cannot hold the new task's addresses.
    AddressTableFull,
    /// The Picos ID does not name an in-flight task (double retire or corruption).
    UnknownTask(PicosId),
    /// The task still waits on an in-flight predecessor, so it cannot have run: retiring it
    /// would free a slot that its predecessors' retirements still decrement.
    NotReady(PicosId),
}

impl core::fmt::Display for TrackerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrackerError::TaskMemoryFull => write!(f, "picos task memory is full"),
            TrackerError::AddressTableFull => write!(f, "picos address table is full"),
            TrackerError::UnknownTask(id) => write!(f, "picos id {id} does not name an in-flight task"),
            TrackerError::NotReady(id) => write!(f, "picos id {id} still waits on a predecessor"),
        }
    }
}

impl std::error::Error for TrackerError {}

/// Aggregate statistics of the tracker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrackerStats {
    /// Tasks ever inserted.
    pub inserted: u64,
    /// Tasks ever retired.
    pub retired: u64,
    /// Dependence edges created.
    pub edges: u64,
    /// Maximum number of simultaneously in-flight tasks.
    pub max_in_flight: usize,
    /// Maximum number of live address-table entries.
    pub max_addresses: usize,
    /// Insertions rejected because the task memory was full.
    pub rejected_task_memory: u64,
    /// Insertions rejected because the address table was full.
    pub rejected_address_table: u64,
}

/// One address-table entry, a slot of the tracker's address slab.
#[derive(Debug, Clone, Default)]
struct AddrEntry {
    /// The address this entry tracks (meaningless while the entry is on the free list).
    addr: u64,
    /// Last in-flight writer of this address.
    last_writer: Option<PicosId>,
    /// In-flight readers that arrived after the last writer, as `(task slot, record index)`:
    /// the reader's [`DepRecord`] for this entry is `deps[slot][index]`.
    readers: Vec<(u32, u32)>,
    /// Number of writes this slab slot has seen, across every address it has held.
    generation: u32,
}

/// A task's record of one collapsed dependence: where its reference in the address table is.
#[derive(Debug, Clone, Copy, Default)]
struct DepRecord {
    /// Slab index of the address entry.
    entry: u32,
    /// Position of the task in the entry's reader list, or [`NOT_A_READER`].
    reader_pos: u32,
    /// The entry's generation right after this task's insert.
    generation: u32,
}

/// The task memory plus dependence-matching engine.
///
/// The task memory is stored struct-of-arrays: one parallel array per field, indexed by the
/// Picos ID's slot. Inserting a task writes each field in place and retiring clears the slot's
/// lists for reuse, so no multi-hundred-byte entry struct is ever constructed, moved or
/// dropped on the hot path — and lookups that need a single field (`sw_id`, the aliveness
/// check) touch a single dense array. The arrays grow on demand, one slot the first time the
/// free list runs dry, so a large task memory that only ever holds a few tasks is never built
/// or touched beyond them. The address slab grows the same way.
#[derive(Debug, Clone)]
pub struct DependenceTracker {
    config: TrackerConfig,
    /// Whether each slot holds an in-flight task.
    live: Vec<bool>,
    /// Software ID per occupied slot.
    sw_ids: Vec<u64>,
    /// Unresolved-predecessor count per occupied slot.
    unresolved: Vec<u32>,
    /// In-flight successors per occupied slot, in edge creation order.
    successors: Vec<InlineVec<PicosId, INLINE_LEN>>,
    /// One record per collapsed dependence (see [`DependenceTracker::insert`]) per occupied
    /// slot; retirement follows them to scrub the address table.
    deps: Vec<InlineVec<DepRecord, INLINE_LEN>>,
    /// Vacant slots below `live.len()`, reused LIFO. When it is empty the next slot is
    /// `live.len()`, which hands out the same IDs as a free list pre-filled with every slot:
    /// fresh slots ascending, freed slots most recent first.
    free_list: Vec<u32>,
    /// Live address → slab index of its entry. Its length is the address-table occupancy.
    addr_table: FxHashMap<u64, u32>,
    /// The address entries; the ones not named by `addr_table` are on `addr_free`.
    addr_slab: Vec<AddrEntry>,
    /// Free slab indices, reused LIFO.
    addr_free: Vec<u32>,
    in_flight: usize,
    stats: TrackerStats,
    /// Scratch arena: the current insert's deduplicated `(address, merged direction)` list.
    /// Reused across inserts so the hot path never allocates; never observable between calls.
    scratch_deps: Vec<(u64, Direction)>,
    /// Scratch arena: distinct predecessors discovered by the current insert, in first-match
    /// order (the order successor edges — and therefore wake-ups — are created in).
    scratch_preds: Vec<PicosId>,
    /// Epoch-stamped membership marks, one per task-memory slot: `pred_mark[s] == mark_epoch`
    /// iff slot `s` is already in `scratch_preds` for the insert in progress. Turns predecessor
    /// de-duplication into one array compare instead of a scan of `scratch_preds`.
    pred_mark: Vec<u64>,
    mark_epoch: u64,
}

impl DependenceTracker {
    /// Creates an empty tracker.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(config: TrackerConfig) -> Self {
        config.validate();
        DependenceTracker {
            config,
            live: Vec::new(),
            sw_ids: Vec::new(),
            unresolved: Vec::new(),
            successors: Vec::new(),
            deps: Vec::new(),
            free_list: Vec::new(),
            addr_table: FxHashMap::default(),
            addr_slab: Vec::new(),
            addr_free: Vec::new(),
            in_flight: 0,
            stats: TrackerStats::default(),
            scratch_deps: Vec::new(),
            scratch_preds: Vec::new(),
            pred_mark: Vec::new(),
            mark_epoch: 0,
        }
    }

    /// Capacity parameters.
    pub fn config(&self) -> TrackerConfig {
        self.config
    }

    /// Number of in-flight (inserted, not yet retired) tasks.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether the task memory has no free entry.
    pub fn is_full(&self) -> bool {
        self.in_flight >= self.config.task_memory_entries
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &TrackerStats {
        &self.stats
    }

    fn is_live(&self, id: PicosId) -> bool {
        self.live.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Software ID of an in-flight task.
    pub fn sw_id(&self, id: PicosId) -> Option<u64> {
        self.is_live(id).then(|| self.sw_ids[id.0 as usize])
    }

    /// Number of in-flight successors currently linked to a task.
    pub fn successor_count(&self, id: PicosId) -> usize {
        if self.is_live(id) {
            self.successors[id.0 as usize].len()
        } else {
            0
        }
    }

    /// Diagnostic view of one address-table entry: whether it records an in-flight last writer,
    /// and how many reader entries it holds. Returns `None` if the address is not in the table.
    ///
    /// Exposed so tests can pin the table's accounting (e.g. that duplicate same-address
    /// annotations within one task collapse to a single reader entry); not part of the modelled
    /// hardware interface.
    pub fn address_occupancy(&self, addr: u64) -> Option<(bool, usize)> {
        self.addr_table.get(&addr).map(|&e| {
            let e = &self.addr_slab[e as usize];
            (e.last_writer.is_some(), e.readers.len())
        })
    }

    /// Number of live address-table entries. Retirement drops every entry it leaves without a
    /// reference, so each one names at least one in-flight task.
    pub fn live_addresses(&self) -> usize {
        self.addr_table.len()
    }

    /// Inserts a new task, returning its Picos ID and whether it is immediately ready (carries
    /// no unresolved dependence).
    ///
    /// Duplicate same-address annotations within the task are collapsed to a single entry whose
    /// direction is the union of the duplicates' ([`Direction::merge`]): `[read(a), write(a)]`
    /// matches and occupies the address table exactly like `[inout(a)]`. The runtime layers
    /// normally collapse duplicates before submission, but descriptors built by hand (or by a
    /// buggy runtime) must not inflate the table's accounting.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::TaskMemoryFull`] or [`TrackerError::AddressTableFull`]; a
    /// rejected insert changes nothing but the matching rejection counter in [`TrackerStats`],
    /// so it can simply be retried later — the hardware behaviour the non-blocking
    /// instructions rely on. A property test pins the reject-then-retry-equals-first-try
    /// behaviour.
    pub fn insert(&mut self, task: &SubmittedTask) -> Result<(PicosId, bool), TrackerError> {
        if self.is_full() {
            self.stats.rejected_task_memory += 1;
            return Err(TrackerError::TaskMemoryFull);
        }
        // Collapse duplicate same-address annotations, merging directions. The descriptor holds
        // at most 15 dependences, so the quadratic scan is a bounded handful of compares on a
        // reused arena — cheaper than any hashing for these sizes.
        self.scratch_deps.clear();
        'deps: for d in &task.deps {
            for s in self.scratch_deps.iter_mut() {
                if s.0 == d.addr {
                    s.1 = s.1.merge(d.dir);
                    continue 'deps;
                }
            }
            self.scratch_deps.push((d.addr, d.dir));
        }
        // Check address-table capacity before touching the table. Fast path: when the table
        // could absorb every annotated address as a new entry, skip the per-address probes
        // entirely — only near saturation is the precise new-address count worth computing.
        let capacity = self.config.address_table_entries;
        if self.addr_table.len() + self.scratch_deps.len() > capacity {
            let new_addresses =
                self.scratch_deps.iter().filter(|(a, _)| !self.addr_table.contains_key(a)).count();
            if self.addr_table.len() + new_addresses > capacity {
                self.stats.rejected_address_table += 1;
                return Err(TrackerError::AddressTableFull);
            }
        }

        let slot = match self.free_list.pop() {
            Some(slot) => slot,
            None => self.grow_slot(),
        };
        let id = PicosId(slot);

        // Start a fresh mark epoch: a slot is a known predecessor iff its mark equals the new
        // epoch, so "have I seen this predecessor?" is one load instead of a list scan.
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        self.scratch_preds.clear();
        let pred_mark = &mut self.pred_mark;
        let preds = &mut self.scratch_preds;
        let mut link = |p: PicosId| {
            if pred_mark[p.0 as usize] != epoch {
                pred_mark[p.0 as usize] = epoch;
                preds.push(p);
            }
        };
        let records = &mut self.deps[slot as usize];
        debug_assert!(records.is_empty(), "a vacant slot holds no dependence records");
        for (index, &(addr, dir)) in self.scratch_deps.iter().enumerate() {
            let e = match self.addr_table.entry(addr) {
                Entry::Occupied(o) => *o.get(),
                Entry::Vacant(v) => {
                    let e = match self.addr_free.pop() {
                        Some(e) => e,
                        None => {
                            self.addr_slab.push(AddrEntry::default());
                            (self.addr_slab.len() - 1) as u32
                        }
                    };
                    let entry = &mut self.addr_slab[e as usize];
                    debug_assert!(entry.last_writer.is_none() && entry.readers.is_empty());
                    entry.addr = addr;
                    *v.insert(e)
                }
            };
            let entry = &mut self.addr_slab[e as usize];
            // RAW (a read) and WAW (a write) both order the new task after the last writer.
            if let Some(w) = entry.last_writer {
                link(w);
            }
            if dir.writes() {
                // WAR: the new task writes after every in-flight reader, and supersedes them.
                for &(r, _) in &entry.readers {
                    link(PicosId(r));
                }
                entry.last_writer = Some(id);
                entry.readers.clear();
                entry.generation = entry.generation.wrapping_add(1);
            }
            let reader_pos = if dir.reads() {
                entry.readers.push((slot, index as u32));
                (entry.readers.len() - 1) as u32
            } else {
                NOT_A_READER
            };
            records.push(DepRecord { entry: e, reader_pos, generation: entry.generation });
        }

        let unresolved = self.scratch_preds.len();
        for &pred in &self.scratch_preds {
            debug_assert!(self.live[pred.0 as usize], "an address-table predecessor is in flight");
            self.successors[pred.0 as usize].push(id);
        }
        self.stats.edges += unresolved as u64;

        // Fill the slot's parallel arrays in place; the list storage was cleared at the slot's
        // last retirement (or is pristine), so this writes only what the task actually uses.
        let slot = slot as usize;
        self.live[slot] = true;
        self.sw_ids[slot] = task.sw_id;
        self.unresolved[slot] = unresolved as u32;
        debug_assert!(self.successors[slot].is_empty());
        self.in_flight += 1;
        self.stats.inserted += 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(self.in_flight);
        self.stats.max_addresses = self.stats.max_addresses.max(self.addr_table.len());
        Ok((id, unresolved == 0))
    }

    /// Appends one vacant slot to every parallel array and returns its index. Called only when
    /// the free list is empty and the task memory is not full, so the new slot is below the
    /// configured capacity.
    fn grow_slot(&mut self) -> u32 {
        let slot = self.live.len();
        debug_assert!(slot < self.config.task_memory_entries, "grew past the task memory");
        self.live.push(false);
        self.sw_ids.push(0);
        self.unresolved.push(0);
        self.successors.push(InlineVec::new());
        self.deps.push(InlineVec::new());
        self.pred_mark.push(0);
        slot as u32
    }

    /// Retires an in-flight task, freeing its task-memory entry and returning the Picos IDs of
    /// tasks that became ready as a consequence.
    ///
    /// This is the allocating convenience wrapper around [`retire_into`](Self::retire_into);
    /// steady-state callers (the Picos device pipeline) hand in a reused buffer instead.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::UnknownTask`] if the ID does not name an in-flight task, and
    /// [`TrackerError::NotReady`] if the task still waits on a predecessor.
    pub fn retire(&mut self, id: PicosId) -> Result<Vec<PicosId>, TrackerError> {
        let mut newly_ready = Vec::new();
        self.retire_into(id, &mut newly_ready)?;
        Ok(newly_ready)
    }

    /// Retires an in-flight task, freeing its task-memory entry. `newly_ready` is cleared and
    /// then filled with the Picos IDs of tasks that became ready as a consequence, in edge
    /// creation order (the order their submissions discovered this task as a predecessor).
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::UnknownTask`] if the ID does not name an in-flight task, and
    /// [`TrackerError::NotReady`] if the task still waits on a predecessor; the tracker is
    /// left unchanged and the buffer cleared in both cases.
    pub fn retire_into(
        &mut self,
        id: PicosId,
        newly_ready: &mut Vec<PicosId>,
    ) -> Result<(), TrackerError> {
        newly_ready.clear();
        if !self.is_live(id) {
            return Err(TrackerError::UnknownTask(id));
        }
        let slot = id.0 as usize;
        if self.unresolved[slot] > 0 {
            return Err(TrackerError::NotReady(id));
        }
        self.live[slot] = false;
        self.in_flight -= 1;
        self.stats.retired += 1;
        self.free_list.push(id.0);

        // Remove this task's live references from the address table so future tasks do not
        // link to it; records a later writer superseded are skipped (the generation rule).
        for index in 0..self.deps[slot].len() {
            let rec = self.deps[slot].as_slice()[index];
            let entry = &mut self.addr_slab[rec.entry as usize];
            if entry.generation != rec.generation {
                continue;
            }
            if entry.last_writer == Some(id) {
                entry.last_writer = None;
            }
            if rec.reader_pos != NOT_A_READER {
                let pos = rec.reader_pos as usize;
                debug_assert_eq!(entry.readers[pos], (id.0, index as u32));
                entry.readers.swap_remove(pos);
                if let Some(&(moved, moved_index)) = entry.readers.get(pos) {
                    self.deps[moved as usize].as_mut_slice()[moved_index as usize].reader_pos =
                        rec.reader_pos;
                }
            }
            if entry.last_writer.is_none() && entry.readers.is_empty() {
                self.addr_table.remove(&entry.addr);
                self.addr_free.push(rec.entry);
            }
        }

        let successors = &self.successors[slot];
        for &succ in successors.iter() {
            if self.live[succ.0 as usize] {
                let u = &mut self.unresolved[succ.0 as usize];
                debug_assert!(*u > 0, "successor must have counted this edge");
                *u -= 1;
                if *u == 0 {
                    newly_ready.push(succ);
                }
            }
        }
        // Clear the slot's list storage so the next occupant starts empty (and inline).
        self.successors[slot].clear();
        self.deps[slot].clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::Dependence;

    fn task(sw_id: u64, deps: Vec<Dependence>) -> SubmittedTask {
        SubmittedTask::new(sw_id, deps)
    }

    #[test]
    fn tracker_config_helpers() {
        let c = TrackerConfig::new(64, 512);
        assert_eq!(c, TrackerConfig { task_memory_entries: 64, address_table_entries: 512 });
        assert_eq!(c.label(), "tm64-at512");
        c.validate();
        assert_eq!(TrackerConfig::default().label(), "tm256-at2048");
    }

    #[test]
    fn per_tenant_partitioning_splits_the_task_memory_evenly() {
        let c = TrackerConfig::new(64, 512);
        assert_eq!(c.per_tenant_entries(1), 64);
        assert_eq!(c.per_tenant_entries(2), 32);
        assert_eq!(c.per_tenant_entries(8), 8);
        // Never starves a tenant completely, even in degenerate splits.
        assert_eq!(c.per_tenant_entries(128), 1);
        assert_eq!(c.per_tenant_entries(0), 64);
    }

    #[test]
    #[should_panic(expected = "task memory must have entries")]
    fn zero_task_memory_is_rejected() {
        TrackerConfig::new(0, 16).validate();
    }

    #[test]
    fn independent_task_is_immediately_ready() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (id, ready) = t.insert(&task(1, vec![Dependence::write(0x100)])).unwrap();
        assert!(ready);
        assert_eq!(t.sw_id(id), Some(1));
        assert_eq!(t.in_flight(), 1);
    }

    #[test]
    fn raw_chain_orders_tasks() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (a, ra) = t.insert(&task(1, vec![Dependence::write(0x100)])).unwrap();
        let (b, rb) = t.insert(&task(2, vec![Dependence::read(0x100)])).unwrap();
        let (c, rc) = t.insert(&task(3, vec![Dependence::read_write(0x100)])).unwrap();
        assert!(ra && !rb && !rc);
        assert_eq!(t.successor_count(a), 2, "b reads after a, c writes after a");
        let woke = t.retire(a).unwrap();
        assert_eq!(woke, vec![b], "b becomes ready; c still waits for b (WAR)");
        let woke = t.retire(b).unwrap();
        assert_eq!(woke, vec![c]);
        assert_eq!(t.retire(c).unwrap(), vec![]);
        assert_eq!(t.in_flight(), 0);
    }

    #[test]
    fn war_and_waw_dependences_are_tracked() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (r1, _) = t.insert(&task(1, vec![Dependence::read(0x200)])).unwrap();
        let (r2, _) = t.insert(&task(2, vec![Dependence::read(0x200)])).unwrap();
        let (w, ready) = t.insert(&task(3, vec![Dependence::write(0x200)])).unwrap();
        assert!(!ready, "WAR: the writer waits for both readers");
        assert!(t.retire(r1).unwrap().is_empty());
        assert_eq!(t.retire(r2).unwrap(), vec![w]);
        // A second writer after the first: WAW.
        let (w2, ready2) = t.insert(&task(4, vec![Dependence::write(0x200)])).unwrap();
        assert!(!ready2);
        assert_eq!(t.retire(w).unwrap(), vec![w2]);
        t.retire(w2).unwrap();
    }

    #[test]
    fn readers_do_not_depend_on_each_other() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (_w, _) = t.insert(&task(1, vec![Dependence::write(0x300)])).unwrap();
        let (_r1, ready1) = t.insert(&task(2, vec![Dependence::read(0x300)])).unwrap();
        let (_r2, ready2) = t.insert(&task(3, vec![Dependence::read(0x300)])).unwrap();
        assert!(!ready1 && !ready2);
        let woke = t.retire(_w).unwrap();
        assert_eq!(woke.len(), 2, "both readers wake together");
    }

    #[test]
    fn retired_producers_do_not_create_dependences() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (w, _) = t.insert(&task(1, vec![Dependence::write(0x400)])).unwrap();
        t.retire(w).unwrap();
        let (_, ready) = t.insert(&task(2, vec![Dependence::read(0x400)])).unwrap();
        assert!(ready, "the producer already retired, so the reader starts ready");
    }

    #[test]
    fn task_memory_full_is_reported_and_recoverable() {
        let cfg = TrackerConfig { task_memory_entries: 2, address_table_entries: 64 };
        let mut t = DependenceTracker::new(cfg);
        let (a, _) = t.insert(&task(1, vec![])).unwrap();
        let (_b, _) = t.insert(&task(2, vec![])).unwrap();
        assert!(t.is_full());
        assert_eq!(t.insert(&task(3, vec![])), Err(TrackerError::TaskMemoryFull));
        assert_eq!(t.stats().rejected_task_memory, 1);
        t.retire(a).unwrap();
        assert!(t.insert(&task(3, vec![])).is_ok(), "space frees up after retirement");
    }

    #[test]
    fn address_table_full_is_reported() {
        let cfg = TrackerConfig { task_memory_entries: 16, address_table_entries: 2 };
        let mut t = DependenceTracker::new(cfg);
        t.insert(&task(1, vec![Dependence::write(0x1), Dependence::write(0x2)])).unwrap();
        let err = t.insert(&task(2, vec![Dependence::write(0x3)])).unwrap_err();
        assert_eq!(err, TrackerError::AddressTableFull);
        assert_eq!(t.stats().rejected_address_table, 1);
    }

    #[test]
    fn double_retire_is_an_error() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (a, _) = t.insert(&task(1, vec![])).unwrap();
        t.retire(a).unwrap();
        assert_eq!(t.retire(a), Err(TrackerError::UnknownTask(a)));
    }

    #[test]
    fn retiring_a_waiting_task_is_rejected_and_changes_nothing() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (writer, _) = t.insert(&task(1, vec![Dependence::write(0x40)])).unwrap();
        let (reader, ready) = t.insert(&task(2, vec![Dependence::read(0x40)])).unwrap();
        assert!(!ready);
        let before = (t.in_flight(), t.stats().clone(), t.address_occupancy(0x40));
        assert_eq!(t.retire(reader), Err(TrackerError::NotReady(reader)));
        assert_eq!((t.in_flight(), t.stats().clone(), t.address_occupancy(0x40)), before);
        assert_eq!(t.retire(writer), Ok(vec![reader]), "the reader still counts its edge");
        assert_eq!(t.retire(reader), Ok(vec![]));
    }

    #[test]
    fn picos_id_reuse_does_not_resurrect_old_edges() {
        let cfg = TrackerConfig { task_memory_entries: 1, address_table_entries: 16 };
        let mut t = DependenceTracker::new(cfg);
        let (a, _) = t.insert(&task(1, vec![Dependence::write(0x10)])).unwrap();
        t.retire(a).unwrap();
        // The same Picos ID will be reused; the new task must not inherit stale address links.
        let (b, ready) = t.insert(&task(2, vec![Dependence::read(0x10)])).unwrap();
        assert_eq!(a, b, "single-entry task memory must reuse the slot");
        assert!(ready);
    }

    #[test]
    fn duplicate_read_annotations_collapse_to_one_reader_entry() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let (r, ready) =
            t.insert(&task(1, vec![Dependence::read(0xA0), Dependence::read(0xA0)])).unwrap();
        assert!(ready);
        assert_eq!(
            t.address_occupancy(0xA0),
            Some((false, 1)),
            "duplicate reads must occupy a single reader entry"
        );
        // A subsequent writer carries exactly one WAR edge, and the WAR scan sees one reader.
        let (w, wready) = t.insert(&task(2, vec![Dependence::write(0xA0)])).unwrap();
        assert!(!wready);
        assert_eq!(t.successor_count(r), 1);
        assert_eq!(t.stats().edges, 1);
        assert_eq!(t.retire(r).unwrap(), vec![w]);
        t.retire(w).unwrap();
    }

    #[test]
    fn mixed_direction_duplicates_merge_like_inout() {
        // [write(a), read(a)] must be indistinguishable from [inout(a)].
        let mut dup = DependenceTracker::new(TrackerConfig::default());
        let mut inout = DependenceTracker::new(TrackerConfig::default());
        let (xd, rd) =
            dup.insert(&task(1, vec![Dependence::write(0xB0), Dependence::read(0xB0)])).unwrap();
        let (xi, ri) = inout.insert(&task(1, vec![Dependence::read_write(0xB0)])).unwrap();
        assert_eq!((xd, rd), (xi, ri));
        assert_eq!(dup.address_occupancy(0xB0), inout.address_occupancy(0xB0));
        assert_eq!(dup.address_occupancy(0xB0), Some((true, 1)));
        for t in [&mut dup, &mut inout] {
            let (r, ready) = t.insert(&task(2, vec![Dependence::read(0xB0)])).unwrap();
            assert!(!ready, "RAW on the merged inout access");
            assert_eq!(t.successor_count(xd), 1);
            assert_eq!(t.retire(xd).unwrap(), vec![r]);
            t.retire(r).unwrap();
        }
        assert_eq!(dup.stats(), inout.stats());
    }

    #[test]
    fn id_reuse_at_saturation_never_links_to_recycled_ids() {
        // Drive the tracker at task-memory saturation for many rounds so every slot is recycled
        // over and over while the address table keeps live entries for the same addresses.
        // Retirement must scrub every reference, so a new task never links to a predecessor
        // that only shares a recycled Picos ID with the true (already retired) producer.
        let n = 4usize;
        let cfg = TrackerConfig { task_memory_entries: n, address_table_entries: 16 };
        let mut t = DependenceTracker::new(cfg);
        let addr = |i: usize| 0x4000u64 + (i as u64) * 64;
        let mut sw = 0u64;
        let rounds = 32usize;
        for round in 0..rounds {
            // Fill the task memory with one writer per address.
            let writers: Vec<PicosId> = (0..n)
                .map(|i| {
                    sw += 1;
                    let (id, ready) = t.insert(&task(sw, vec![Dependence::write(addr(i))])).unwrap();
                    assert!(ready, "round {round}: address {i}'s previous owners all retired");
                    id
                })
                .collect();
            assert!(t.is_full());
            // Retire all writers except one rotating survivor; its address-table entry stays
            // live while the peers' slots are recycled underneath it.
            let survivor = writers[round % n];
            let survivor_addr = addr(round % n);
            for &w in &writers {
                if w != survivor {
                    t.retire(w).unwrap();
                }
            }
            // Recycle the freed slots with readers: one of the survivor's address (must block on
            // the survivor and nothing else) and two of retired addresses (must start ready — a
            // resurrected recycled ID would block them).
            sw += 1;
            let (blocked, blocked_ready) =
                t.insert(&task(sw, vec![Dependence::read(survivor_addr)])).unwrap();
            assert!(!blocked_ready, "round {round}: the survivor's reader must wait");
            let mut free_readers = Vec::new();
            for i in (0..n).filter(|&i| addr(i) != survivor_addr).take(2) {
                sw += 1;
                let (id, ready) = t.insert(&task(sw, vec![Dependence::read(addr(i))])).unwrap();
                assert!(ready, "round {round}: reader of a retired writer must start ready");
                free_readers.push(id);
            }
            assert!(t.is_full());
            assert_eq!(t.successor_count(survivor), 1, "round {round}: exactly one RAW edge");
            assert_eq!(t.retire(survivor).unwrap(), vec![blocked]);
            t.retire(blocked).unwrap();
            for r in free_readers {
                t.retire(r).unwrap();
            }
            assert_eq!(t.in_flight(), 0);
        }
        assert_eq!(t.live_addresses(), 0, "retirement scrubs every address entry");
        assert_eq!(
            t.stats().edges,
            rounds as u64,
            "one survivor edge per round and not a single edge to a recycled ID"
        );
    }

    #[test]
    fn stats_track_extremes() {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let ids: Vec<_> = (0..10)
            .map(|i| t.insert(&task(i, vec![Dependence::write(0x1000 + i * 64)])).unwrap().0)
            .collect();
        assert_eq!(t.stats().max_in_flight, 10);
        assert!(t.stats().max_addresses >= 10);
        for id in ids {
            t.retire(id).unwrap();
        }
        assert_eq!(t.stats().retired, 10);
        assert_eq!(t.live_addresses(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::ReferenceTracker;
    use super::*;
    use proptest::prelude::*;
    use tis_taskmodel::{Dependence, Direction, Payload, ProgramBuilder, TaskId};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The on-demand task memory hands out exactly the IDs of a free list pre-filled with
        /// every slot: under random insert/retire churn up to saturation, the returned IDs, the
        /// `UnknownTask` errors and `is_full` all match a model stack initialised `n-1..=0`.
        #[test]
        fn lazy_task_memory_matches_a_prefilled_free_list(
            n in 1usize..40,
            ops in proptest::collection::vec((0u8..3, any::<u64>()), 0..300)
        ) {
            let mut t = DependenceTracker::new(TrackerConfig::new(n, 1024));
            let mut model: Vec<u32> = (0..n as u32).rev().collect();
            let mut live: Vec<PicosId> = Vec::new();
            for (sw, &(op, pick)) in ops.iter().enumerate() {
                prop_assert_eq!(t.is_full(), model.is_empty());
                match op {
                    0 | 1 => {
                        let got = t.insert(&SubmittedTask::new(sw as u64, vec![]));
                        match model.pop() {
                            Some(slot) => {
                                prop_assert_eq!(got, Ok((PicosId(slot), true)));
                                live.push(PicosId(slot));
                            }
                            None => prop_assert_eq!(got, Err(TrackerError::TaskMemoryFull)),
                        }
                    }
                    _ if !live.is_empty() && pick % 4 != 0 => {
                        let victim = live.swap_remove((pick % live.len() as u64) as usize);
                        prop_assert_eq!(t.retire(victim), Ok(vec![]));
                        model.push(victim.0);
                    }
                    _ => {
                        // A vacant slot, grown or not, or an ID past the capacity.
                        let id = PicosId((pick % (n as u64 + 2)) as u32);
                        if !live.contains(&id) {
                            prop_assert_eq!(t.retire(id), Err(TrackerError::UnknownTask(id)));
                        }
                    }
                }
            }
            prop_assert_eq!(t.in_flight(), live.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Rejected inserts leave no semantic trace: at tiny capacities, a tracker hammered with
        /// doomed duplicate attempts before every eventual success behaves identically — same
        /// IDs, same readiness, same wake-ups, same dependence edges — to one that saw each
        /// submission exactly once. (Raw `SubmittedTask`s, so duplicate same-address
        /// annotations within a task are exercised too.)
        #[test]
        fn reject_then_retry_equals_first_try(
            tasks in proptest::collection::vec(
                proptest::collection::vec((0u64..6, 0u8..3), 0..5),
                1..30,
            )
        ) {
            let cfg = TrackerConfig { task_memory_entries: 3, address_table_entries: 4 };
            let mut once = DependenceTracker::new(cfg);
            let mut hammered = DependenceTracker::new(cfg);
            // Ready-but-not-yet-retired tasks, identical for both trackers by construction.
            let mut ready: Vec<PicosId> = Vec::new();
            for (sw, deps) in tasks.iter().enumerate() {
                let st = SubmittedTask::new(sw as u64, deps
                    .iter()
                    .map(|&(a, d)| Dependence::new(0x1000 + a * 64, Direction::ALL[d as usize]))
                    .collect());
                loop {
                    let r_once = once.insert(&st);
                    match r_once {
                        Ok((id, is_ready)) => {
                            // The hammered tracker suffers extra doomed attempts elsewhere, but
                            // this particular submission must succeed identically.
                            prop_assert_eq!(hammered.insert(&st), Ok((id, is_ready)));
                            if is_ready {
                                ready.push(id);
                            }
                            break;
                        }
                        Err(e) => {
                            // Hammer the failing submission: every repeat must fail the same
                            // way and change nothing observable.
                            for _ in 0..3 {
                                prop_assert_eq!(hammered.insert(&st), Err(e));
                            }
                            // Make progress by retiring one ready task on both trackers.
                            prop_assert!(!ready.is_empty(), "an acyclic in-flight set always has a ready task");
                            let victim = ready.swap_remove(0);
                            let woke_once = once.retire(victim).unwrap();
                            let woke_hammered = hammered.retire(victim).unwrap();
                            prop_assert_eq!(&woke_once, &woke_hammered);
                            ready.extend(woke_once);
                        }
                    }
                }
            }
            // Drain both trackers, comparing wake-ups step by step.
            while let Some(victim) = ready.pop() {
                let woke_once = once.retire(victim).unwrap();
                let woke_hammered = hammered.retire(victim).unwrap();
                prop_assert_eq!(&woke_once, &woke_hammered);
                ready.extend(woke_once);
            }
            prop_assert_eq!(once.in_flight(), 0, "every submitted task eventually retires");
            // Semantic statistics agree; only the rejection counters may differ.
            let (a, b) = (once.stats(), hammered.stats());
            prop_assert_eq!(a.inserted, b.inserted);
            prop_assert_eq!(a.retired, b.retired);
            prop_assert_eq!(a.edges, b.edges);
            prop_assert_eq!(a.max_in_flight, b.max_in_flight);
            prop_assert!(b.rejected_task_memory >= a.rejected_task_memory);
            prop_assert!(b.rejected_address_table >= a.rejected_address_table);
        }
    }

    /// Checks every observable of `new` against `reference` after a call: the live tasks'
    /// successor counts, every pool address's occupancy, the in-flight and live-address counts
    /// and all statistics.
    fn assert_same_state(
        new: &DependenceTracker,
        reference: &mut ReferenceTracker,
        live: &[PicosId],
        pool: u64,
    ) -> Result<(), TestCaseError> {
        for &id in live {
            prop_assert_eq!(new.successor_count(id), reference.successor_count(id), "{}", id);
        }
        for a in 0..pool {
            let addr = 0x1000 + a * 64;
            prop_assert_eq!(new.address_occupancy(addr), reference.address_occupancy(addr));
        }
        prop_assert_eq!(new.in_flight(), reference.in_flight());
        prop_assert_eq!(new.live_addresses(), reference.live_addresses());
        prop_assert_eq!(new.stats(), reference.stats());
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The slab-indexed tracker is indistinguishable from the hash-and-scan tracker it
        /// replaced. Both see the same generated calls: inserts of up to 15 annotations in all
        /// three directions (duplicate same-address annotations included), retirements of
        /// ready tasks, retirements of live tasks that may not be ready (both must reject those
        /// that are not, unchanged), and retirements of arbitrary IDs, vacant ones included.
        /// Capacities of 1–8 make both rejections fire; reads outnumber writes so reader lists
        /// outgrow four entries and are superseded by writers while their readers live on.
        /// After every call all observables must agree.
        #[test]
        fn matches_the_reference_tracker(
            task_memory in 1usize..9,
            address_table in 1usize..9,
            ops in proptest::collection::vec(
                (0u8..12, proptest::collection::vec((0u64..10, 0u8..6), 0..16), any::<u64>()),
                1..150,
            )
        ) {
            let cfg = TrackerConfig::new(task_memory, address_table);
            let mut new = DependenceTracker::new(cfg);
            let mut reference = ReferenceTracker::new(cfg);
            let pool = address_table as u64 + 2;
            let mut live: Vec<PicosId> = Vec::new();
            let mut ready: Vec<PicosId> = Vec::new();
            let (mut new_woken, mut ref_woken) = (Vec::new(), Vec::new());
            for (sw, (op, deps, pick)) in ops.into_iter().enumerate() {
                let victim = match op {
                    0..=6 => {
                        // Directions 0–3 read, 4 writes, 5 reads and writes.
                        use Direction::{In, InOut, Out};
                        let dir = [In, In, In, In, Out, InOut];
                        // One insert in seven carries all its 0–15 annotations over the
                        // whole pool; the others keep 1–3 over three hot addresses, so they fit
                        // the table and pile up as readers.
                        let (keep, span) =
                            if op == 0 { (deps.len(), pool) } else { (1 + (pick % 3) as usize, 3) };
                        let task = SubmittedTask::new(sw as u64, deps
                            .iter()
                            .take(keep)
                            .map(|&(a, d)| {
                                Dependence::new(0x1000 + (a % span) * 64, dir[d as usize])
                            })
                            .collect());
                        let got = new.insert(&task);
                        prop_assert_eq!(got, reference.insert(&task));
                        if let Ok((id, is_ready)) = got {
                            live.push(id);
                            if is_ready {
                                ready.push(id);
                            }
                        }
                        None
                    }
                    7..=9 if !ready.is_empty() => Some(ready[(pick % ready.len() as u64) as usize]),
                    10 if !live.is_empty() => Some(live[(pick % live.len() as u64) as usize]),
                    _ => Some(PicosId((pick % (task_memory as u64 + 1)) as u32)),
                };
                if let Some(id) = victim {
                    let got = new.retire_into(id, &mut new_woken);
                    prop_assert_eq!(got, reference.retire_into(id, &mut ref_woken));
                    prop_assert_eq!(&new_woken, &ref_woken);
                    let waiting = live.contains(&id) && !ready.contains(&id);
                    prop_assert_eq!(got == Err(TrackerError::NotReady(id)), waiting, "{}", id);
                    if got.is_ok() {
                        live.retain(|&t| t != id);
                        ready.retain(|&t| t != id);
                        ready.extend_from_slice(&new_woken);
                    }
                }
                assert_same_state(&new, &mut reference, &live, pool)?;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]
        /// Long-churn soak: 120k tasks stream through a 64-entry task memory, so every slot is
        /// recycled ~2000 times and every record, address-table scrub and wake-up list is
        /// exercised deep into the ID-reuse regime a streamed million-task run lives in.
        ///
        /// The oracle is an independent mirror of the matching rules keyed by *software* IDs —
        /// which are never reused — so any defect where the tracker confuses a recycled Picos
        /// ID for its retired predecessor (stale address-table reference, misplaced reader
        /// record, lost or spurious wake-up) shows up as a divergence between the two.
        #[test]
        fn long_churn_through_a_tiny_task_memory_matches_a_sw_id_oracle(
            seed in 1u64..1_000_000u64
        ) {
            use tis_sim::SimRng;

            #[derive(Default)]
            struct MirrorAddr {
                last_writer: Option<u64>,
                readers: Vec<u64>,
            }

            let total: u64 = 120_000;
            let cfg = TrackerConfig { task_memory_entries: 64, address_table_entries: 256 };
            let mut t = DependenceTracker::new(cfg);
            let mut rng = SimRng::new(seed);
            let addr_of = |i: u64| 0x7000_0000 + i * 64;

            // The sw-id oracle: per-address frontier, per-task unresolved counts, successor
            // lists and collapsed dependence lists (for the retire-time scrub).
            let mut mirror: FxHashMap<u64, MirrorAddr> = FxHashMap::default();
            let mut unresolved: FxHashMap<u64, usize> = FxHashMap::default();
            let mut succs: FxHashMap<u64, Vec<u64>> = FxHashMap::default();
            let mut mirror_deps: FxHashMap<u64, Vec<(u64, Direction)>> = FxHashMap::default();
            let mut mirror_edges = 0u64;

            let mut ready: Vec<(PicosId, u64)> = Vec::new();
            let mut next_sw = 0u64;
            let mut retired = 0u64;
            while retired < total {
                let can_insert = next_sw < total && !t.is_full();
                if can_insert && (ready.is_empty() || rng.chance(0.6)) {
                    // 0..=3 annotations over a 96-address pool: small enough for constant
                    // conflict churn, occasional within-task duplicates included.
                    let n_deps = rng.below(4) as usize;
                    let deps: Vec<Dependence> = (0..n_deps)
                        .map(|_| Dependence::new(addr_of(rng.below(96)), Direction::ALL[rng.below(3) as usize]))
                        .collect();
                    let sw = next_sw;
                    next_sw += 1;

                    // Oracle: collapse duplicates, gather predecessors, update the frontier.
                    let mut collapsed: Vec<(u64, Direction)> = Vec::new();
                    'dd: for d in &deps {
                        for c in collapsed.iter_mut() {
                            if c.0 == d.addr {
                                c.1 = c.1.merge(d.dir);
                                continue 'dd;
                            }
                        }
                        collapsed.push((d.addr, d.dir));
                    }
                    let mut preds: Vec<u64> = Vec::new();
                    for &(addr, dir) in &collapsed {
                        let e = mirror.entry(addr).or_default();
                        if dir.reads() {
                            if let Some(w) = e.last_writer {
                                if !preds.contains(&w) {
                                    preds.push(w);
                                }
                            }
                        }
                        if dir.writes() {
                            if let Some(w) = e.last_writer {
                                if !preds.contains(&w) {
                                    preds.push(w);
                                }
                            }
                            for &r in &e.readers {
                                if !preds.contains(&r) {
                                    preds.push(r);
                                }
                            }
                            e.last_writer = Some(sw);
                            e.readers.clear();
                            if dir.reads() {
                                e.readers.push(sw);
                            }
                        } else {
                            e.readers.push(sw);
                        }
                    }
                    for &p in &preds {
                        succs.entry(p).or_default().push(sw);
                        mirror_edges += 1;
                    }
                    unresolved.insert(sw, preds.len());
                    mirror_deps.insert(sw, collapsed);

                    let (pid, is_ready) = t.insert(&SubmittedTask::new(sw, deps)).unwrap();
                    prop_assert_eq!(t.sw_id(pid), Some(sw));
                    prop_assert_eq!(
                        is_ready, preds.is_empty(),
                        "T{} readiness diverges from the oracle (preds {:?})", sw, preds
                    );
                    if is_ready {
                        ready.push((pid, sw));
                    }
                } else {
                    // Lost-wakeup detector: an acyclic in-flight set always has a ready task.
                    prop_assert!(!ready.is_empty(), "tracker stalled with {} in flight", t.in_flight());
                    let idx = rng.below(ready.len() as u64) as usize;
                    let (pid, sw) = ready.swap_remove(idx);

                    // Oracle: scrub the frontier and wake successors.
                    for (addr, _) in mirror_deps.remove(&sw).unwrap() {
                        if let Some(e) = mirror.get_mut(&addr) {
                            if e.last_writer == Some(sw) {
                                e.last_writer = None;
                            }
                            e.readers.retain(|&r| r != sw);
                            if e.last_writer.is_none() && e.readers.is_empty() {
                                mirror.remove(&addr);
                            }
                        }
                    }
                    let mut expected_woke: Vec<u64> = Vec::new();
                    for s in succs.remove(&sw).unwrap_or_default() {
                        if let Some(u) = unresolved.get_mut(&s) {
                            *u -= 1;
                            if *u == 0 {
                                expected_woke.push(s);
                            }
                        }
                    }
                    unresolved.remove(&sw);

                    let woke = t.retire(pid).unwrap();
                    let woke_sw: Vec<u64> =
                        woke.iter().map(|&w| t.sw_id(w).expect("woken task is in flight")).collect();
                    prop_assert_eq!(
                        &woke_sw, &expected_woke,
                        "T{}'s wake-ups diverge from the oracle", sw
                    );
                    ready.extend(woke.into_iter().zip(expected_woke));
                    retired += 1;
                }
            }
            prop_assert_eq!(t.in_flight(), 0);
            prop_assert_eq!(t.live_addresses(), 0, "retirement must scrub every address entry");
            prop_assert_eq!(t.stats().inserted, total);
            prop_assert_eq!(t.stats().retired, total);
            prop_assert_eq!(t.stats().edges, mirror_edges);
            prop_assert!(t.stats().max_in_flight <= 64);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Driving the tracker with an arbitrary program and greedily retiring ready tasks
        /// produces an execution order that the reference dependence graph accepts, and every
        /// task eventually retires (no lost wakeups, no spurious deadlock).
        #[test]
        fn tracker_agrees_with_reference_graph(
            tasks in proptest::collection::vec(
                (proptest::collection::vec((0u64..8, 0u8..3), 0..4), 1u64..4),
                1..40,
            )
        ) {
            let mut builder = ProgramBuilder::new("prop");
            for (deps, _w) in &tasks {
                let mut seen = std::collections::HashSet::new();
                let deps: Vec<Dependence> = deps
                    .iter()
                    .filter(|(a, _)| seen.insert(*a))
                    .map(|&(a, d)| Dependence::new(0x1000 + a * 64, Direction::ALL[d as usize]))
                    .collect();
                builder.spawn(Payload::compute(1), deps);
            }
            let program = builder.build();
            let graph = program.reference_graph();

            let mut tracker = DependenceTracker::new(TrackerConfig::default());
            let mut ready: Vec<(PicosId, u64)> = Vec::new();
            let mut id_map = std::collections::HashMap::new();
            for spec in program.tasks() {
                let st = SubmittedTask::new(spec.id.raw(), spec.deps.clone());
                let (pid, is_ready) = tracker.insert(&st).unwrap();
                id_map.insert(pid, spec.id.raw());
                if is_ready {
                    ready.push((pid, spec.id.raw()));
                }
            }
            // Greedily retire ready tasks (lowest sw_id first for determinism) and record order.
            let mut finished_order = Vec::new();
            let mut finished = std::collections::HashSet::new();
            while let Some(pos) = ready.iter().enumerate().min_by_key(|(_, (_, sw))| *sw).map(|(i, _)| i) {
                let (pid, sw) = ready.swap_remove(pos);
                finished_order.push(sw);
                finished.insert(sw);
                let woke = tracker.retire(pid).unwrap();
                for w in woke {
                    let sw = tracker.sw_id(w).unwrap();
                    ready.push((w, sw));
                }
            }
            prop_assert_eq!(finished_order.len(), program.task_count(), "every task must retire");
            // Check that the observed retirement order never violates a reference edge.
            let position: std::collections::HashMap<u64, usize> =
                finished_order.iter().enumerate().map(|(i, &sw)| (sw, i)).collect();
            for i in 0..graph.task_count() {
                for s in graph.successors(TaskId(i as u64)) {
                    prop_assert!(
                        position[&(i as u64)] < position[&s.raw()],
                        "edge {} -> {} violated", i, s.raw()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod reference;
