//! The tracker before the slab-indexed address table, kept as the oracle the production
//! [`DependenceTracker`](super::DependenceTracker) is checked against: an `FxHashMap` of address
//! entries whose reader lists hold `(Picos ID, serial)` tags, scrubbed at retirement by a hash
//! probe and a `retain` scan per dependence.

use tis_sim::{FxHashMap, InlineVec};
use tis_taskmodel::Direction;

use super::{PicosId, TrackerConfig, TrackerError, TrackerStats, INLINE_LEN};
use crate::packet::SubmittedTask;

#[derive(Debug, Clone, Default)]
struct AddrEntry {
    /// Last in-flight writer of this address, tagged with its serial number.
    last_writer: Option<(PicosId, u64)>,
    /// In-flight readers that arrived after the last writer.
    readers: InlineVec<(PicosId, u64), INLINE_LEN>,
}

/// The task memory plus dependence-matching engine.
///
/// The task memory is stored struct-of-arrays: one parallel array per field, indexed by the
/// Picos ID's slot. Inserting a task writes each field in place and retiring clears the slot's
/// lists for reuse, so no multi-hundred-byte entry struct is ever constructed, moved or
/// dropped on the hot path — and lookups that need a single field (`sw_id`, the serial-tag
/// aliveness check) touch a single dense array. The arrays grow on demand, one slot the first
/// time the free list runs dry, so a large task memory that only ever holds a few tasks is
/// never built or touched beyond them.
#[derive(Debug, Clone)]
pub(super) struct ReferenceTracker {
    config: TrackerConfig,
    /// Serial number per slot; `0` marks a vacant slot (live serials start at 1).
    serials: Vec<u64>,
    /// Software ID per occupied slot.
    sw_ids: Vec<u64>,
    /// Unresolved-predecessor count per occupied slot.
    unresolved: Vec<u32>,
    /// In-flight successors per occupied slot, in edge creation order.
    successors: Vec<InlineVec<PicosId, INLINE_LEN>>,
    /// Annotated addresses per occupied slot, already collapsed to one entry per distinct
    /// address (see [`ReferenceTracker::insert`]); consulted at retirement to scrub the
    /// address table.
    deps: Vec<InlineVec<(u64, Direction), INLINE_LEN>>,
    /// Vacant slots below `serials.len()`, reused LIFO. When it is empty the next slot is
    /// `serials.len()`, which hands out the same IDs as a free list pre-filled with every slot:
    /// fresh slots ascending, freed slots most recent first.
    free_list: Vec<u32>,
    addr_table: FxHashMap<u64, AddrEntry>,
    next_serial: u64,
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

impl ReferenceTracker {
    /// Creates an empty tracker.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub(super) fn new(config: TrackerConfig) -> Self {
        config.validate();
        ReferenceTracker {
            config,
            serials: Vec::new(),
            sw_ids: Vec::new(),
            unresolved: Vec::new(),
            successors: Vec::new(),
            deps: Vec::new(),
            free_list: Vec::new(),
            addr_table: FxHashMap::default(),
            next_serial: 1, // 0 is the vacant-slot sentinel
            in_flight: 0,
            stats: TrackerStats::default(),
            scratch_deps: Vec::new(),
            scratch_preds: Vec::new(),
            pred_mark: Vec::new(),
            mark_epoch: 0,
        }
    }

    /// Number of in-flight (inserted, not yet retired) tasks.
    pub(super) fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether the task memory has no free entry.
    pub(super) fn is_full(&self) -> bool {
        self.in_flight >= self.config.task_memory_entries
    }

    /// Lifetime statistics.
    pub(super) fn stats(&self) -> &TrackerStats {
        &self.stats
    }

    /// Number of in-flight successors currently linked to a task.
    pub(super) fn successor_count(&self, id: PicosId) -> usize {
        let slot = id.0 as usize;
        match self.serials.get(slot) {
            Some(&s) if s != 0 => self.successors[slot].len(),
            _ => 0,
        }
    }

    /// Diagnostic view of one address-table entry: whether it records an in-flight last writer,
    /// and how many reader entries it holds. Returns `None` if the address is not in the table.
    ///
    /// Exposed so tests can pin the table's accounting (e.g. that duplicate same-address
    /// annotations within one task collapse to a single reader entry); not part of the modelled
    /// hardware interface.
    pub(super) fn address_occupancy(&self, addr: u64) -> Option<(bool, usize)> {
        self.addr_table.get(&addr).map(|e| (e.last_writer.is_some(), e.readers.len()))
    }

    fn prune_addr_entry(serials: &[u64], entry: &mut AddrEntry) {
        // A live serial is never 0, so the vacant-slot sentinel can never match.
        let alive = |id: PicosId, serial: u64| {
            serials.get(id.0 as usize).map(|&s| s == serial).unwrap_or(false)
        };
        if let Some((id, serial)) = entry.last_writer {
            if !alive(id, serial) {
                entry.last_writer = None;
            }
        }
        entry.readers.retain(|&(id, serial)| alive(id, serial));
    }

    /// Whether every `(id, serial)` reference in an address entry names a task that is still in
    /// flight. This is an *invariant*, not a condition the hot path must re-establish:
    /// references are only ever added by the owning task's `insert`, and that task's
    /// `retire` scrubs them (or a superseding writer drops them) before the slot can be
    /// recycled, so nothing stale can survive in the table. `insert` checks it under
    /// `debug_assert!` instead of paying per-dependence aliveness loads in release builds.
    fn addr_entry_refs_alive(serials: &[u64], entry: &AddrEntry) -> bool {
        let alive = |id: PicosId, serial: u64| {
            serials.get(id.0 as usize).map(|&s| s == serial).unwrap_or(false)
        };
        entry.last_writer.is_none_or(|(id, s)| alive(id, s))
            && entry.readers.iter().all(|&(id, s)| alive(id, s))
            && (entry.last_writer.is_some() || !entry.readers.is_empty())
    }

    /// Drops address-table entries that no longer reference any in-flight task.
    fn gc_address_table(&mut self) {
        let serials = &self.serials;
        self.addr_table.retain(|_, e| {
            Self::prune_addr_entry(serials, e);
            e.last_writer.is_some() || !e.readers.is_empty()
        });
    }

    /// Number of live address-table entries (after a GC pass).
    pub(super) fn live_addresses(&mut self) -> usize {
        self.gc_address_table();
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
    /// Returns [`TrackerError::TaskMemoryFull`] or [`TrackerError::AddressTableFull`] without
    /// modifying any *semantic* state, so a rejected submission can simply be retried later —
    /// the hardware behaviour the non-blocking instructions rely on. ("Semantic" scopes the
    /// guarantee precisely: a rejected insert never changes which dependences any later
    /// submission observes, but the `AddressTableFull` check may garbage-collect address-table
    /// entries whose tasks have all retired, and the rejection counters in [`TrackerStats`] do
    /// advance. A property test pins the reject-then-retry-equals-first-try behaviour.)
    pub(super) fn insert(&mut self, task: &SubmittedTask) -> Result<(PicosId, bool), TrackerError> {
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
        if self.addr_table.len() + self.scratch_deps.len() > self.config.address_table_entries {
            let mut new_addresses = 0usize;
            for &(addr, _) in &self.scratch_deps {
                if !self.addr_table.contains_key(&addr) {
                    new_addresses += 1;
                }
            }
            if self.addr_table.len() + new_addresses > self.config.address_table_entries {
                self.gc_address_table();
                if self.addr_table.len() + new_addresses > self.config.address_table_entries {
                    self.stats.rejected_address_table += 1;
                    return Err(TrackerError::AddressTableFull);
                }
            }
        }

        let slot = match self.free_list.pop() {
            Some(slot) => slot,
            None => self.grow_slot(),
        };
        let id = PicosId(slot);
        let serial = self.next_serial;
        self.next_serial += 1;

        // Start a fresh mark epoch: a slot is a known predecessor iff its mark equals the new
        // epoch, so "have I seen this predecessor?" is one load instead of a list scan.
        self.mark_epoch += 1;
        let epoch = self.mark_epoch;
        self.scratch_preds.clear();
        for &(addr, dir) in &self.scratch_deps {
            let serials = &self.serials;
            let entry = self.addr_table.entry(addr).or_default();
            // Every (id, serial) reference in the entry names a task that is still in flight —
            // see `addr_entry_refs_alive` — so the matching below needs no aliveness checks.
            debug_assert!(
                entry.last_writer.is_none() && entry.readers.is_empty()
                    || Self::addr_entry_refs_alive(serials, entry),
                "address-table entry for {addr:#x} holds a stale task reference"
            );
            if dir.reads() {
                // RAW: the new task reads after the last in-flight writer.
                if let Some((w, _)) = entry.last_writer {
                    if w != id && self.pred_mark[w.0 as usize] != epoch {
                        self.pred_mark[w.0 as usize] = epoch;
                        self.scratch_preds.push(w);
                    }
                }
            }
            if dir.writes() {
                // WAW: the new task writes after the last in-flight writer.
                if let Some((w, _)) = entry.last_writer {
                    if w != id && self.pred_mark[w.0 as usize] != epoch {
                        self.pred_mark[w.0 as usize] = epoch;
                        self.scratch_preds.push(w);
                    }
                }
                // WAR: the new task writes after every in-flight reader.
                for &(r, _) in entry.readers.iter() {
                    if r != id && self.pred_mark[r.0 as usize] != epoch {
                        self.pred_mark[r.0 as usize] = epoch;
                        self.scratch_preds.push(r);
                    }
                }
            }
            // Update the address entry to reflect this task as the newest accessor.
            if dir.writes() {
                entry.last_writer = Some((id, serial));
                entry.readers.clear();
                if dir.reads() {
                    entry.readers.push((id, serial));
                }
            } else {
                entry.readers.push((id, serial));
            }
        }

        let unresolved = self.scratch_preds.len();
        for &pred in &self.scratch_preds {
            debug_assert_ne!(
                self.serials[pred.0 as usize], 0,
                "predecessor recorded in the address table must be in flight"
            );
            self.successors[pred.0 as usize].push(id);
            self.stats.edges += 1;
        }

        // Fill the slot's parallel arrays in place; the list storage was cleared at the slot's
        // last retirement (or is pristine), so this writes only what the task actually uses.
        let slot = slot as usize;
        self.serials[slot] = serial;
        self.sw_ids[slot] = task.sw_id;
        self.unresolved[slot] = unresolved as u32;
        debug_assert!(self.successors[slot].is_empty() && self.deps[slot].is_empty());
        let deps = &mut self.deps[slot];
        for &d in &self.scratch_deps {
            deps.push(d);
        }
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
        let slot = self.serials.len();
        debug_assert!(slot < self.config.task_memory_entries, "grew past the task memory");
        self.serials.push(0);
        self.sw_ids.push(0);
        self.unresolved.push(0);
        self.successors.push(InlineVec::new());
        self.deps.push(InlineVec::new());
        self.pred_mark.push(0);
        slot as u32
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
    pub(super) fn retire_into(
        &mut self,
        id: PicosId,
        newly_ready: &mut Vec<PicosId>,
    ) -> Result<(), TrackerError> {
        newly_ready.clear();
        let slot = id.0 as usize;
        let serial = match self.serials.get(slot) {
            Some(&s) if s != 0 => s,
            _ => return Err(TrackerError::UnknownTask(id)),
        };
        if self.unresolved[slot] > 0 {
            return Err(TrackerError::NotReady(id));
        }
        self.serials[slot] = 0;
        self.in_flight -= 1;
        self.stats.retired += 1;
        self.free_list.push(id.0);

        // Remove this task from the address table so future tasks do not link to it.
        let deps = &self.deps[slot];
        for &(addr, _) in deps.iter() {
            if let Some(a) = self.addr_table.get_mut(&addr) {
                if matches!(a.last_writer, Some((w, s)) if w == id && s == serial) {
                    a.last_writer = None;
                }
                a.readers.retain(|&(r, s)| !(r == id && s == serial));
                if a.last_writer.is_none() && a.readers.is_empty() {
                    self.addr_table.remove(&addr);
                }
            }
        }

        let successors = &self.successors[slot];
        for &succ in successors.iter() {
            if self.serials[succ.0 as usize] != 0 {
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
