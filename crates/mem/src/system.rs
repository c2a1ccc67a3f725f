//! The multi-core coherent memory system.
//!
//! [`MemorySystem`] glues the per-core [`L1Cache`]s together with a coherence interconnect and
//! a DRAM backend. Both interconnect models run one protocol path: a miss or upgrade moves the
//! line's precise directory entry ([`crate::directory`]) once, and the [`DirAction`] that
//! transition orders alone decides which remote copies are downgraded, recalled or invalidated
//! (each through [`crate::mesi::snoop_transition`]), whether a dirty copy bounces through
//! memory, and which state the requester fills. [`MemoryModel`] chooses only the price list:
//!
//! * [`MemoryModel::SnoopBus`] — the paper's prototype (Section V-B): a snooping bus with
//!   **no shared L2**, so a line that is dirty in one core's cache can only reach another core
//!   by being written back to main memory and re-fetched — this is why cache-line bouncing on
//!   shared runtime data is so expensive on the prototype. The memory clock (667 MHz) is much
//!   faster than the 80 MHz core clock, so plain DRAM misses are comparatively cheap: a miss
//!   pays the bus wait, any writeback and the DRAM fetch, and an upgrade (a core writing a
//!   Shared line) a bus transaction that invalidates every other copy. Faithful at 8 cores,
//!   *optimistic* beyond one snoop domain. The bus is priced as a broadcast, but the host
//!   snoops only the caches the directory action names, as a snoop filter would.
//! * [`MemoryModel::DirectoryMesh`] — a directory protocol over a 2D mesh NoC
//!   ([`crate::noc`]): misses travel to the line's home tile, the directory's sharer bitset
//!   routes downgrades/recalls/invalidations point-to-point, and every message pays per-hop
//!   latency. Functionally the bus by construction (same states, same hit/miss/bounce
//!   outcomes, still pinned by the differential suite in `tests/mem_model_equivalence.rs`),
//!   but with latencies that grow with the mesh diameter, which is what makes 64-core results
//!   defensible.
//!
//! Every runtime in the workspace performs its metadata accesses through this model, so the
//! difference between, say, Phentos' per-core metadata layout and Nanos' centralised queues shows
//! up as genuine simulated coherence traffic rather than as a hand-tuned constant.

use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

use tis_fault::{FaultConfig, FaultDiagnosis, FaultStats, LinkFaults};
use tis_sim::{Cycle, FxHashMap};

use crate::addr::{line_of, line_range, Addr, LINE_SIZE};
use crate::cache::{CacheConfig, CacheStats, L1Cache};
use crate::directory::{dir_transition, DirAction, DirOp, DirState, SharerSet, MAX_SHARERS};
use crate::mesi::{local_transition, snoop_transition, AccessKind, BusOp, LocalAction, MesiState};
use crate::noc::{Mesh, NocConfig, NocContention, NocTraffic, CTRL_MSG_BYTES, DATA_MSG_BYTES};

/// Which coherence interconnect the [`MemorySystem`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[derive(Default)]
pub enum MemoryModel {
    /// The paper's single snoop domain: MESI over a broadcast bus, no shared L2. The default,
    /// and the model every figure reproduction is pinned to.
    #[default]
    SnoopBus,
    /// Directory-based MESI over a 2D-mesh NoC with the given latency parameters. Selectable
    /// per [`crate::noc::NocConfig`]; functionally equivalent to [`MemoryModel::SnoopBus`] but
    /// with distance-dependent latencies.
    DirectoryMesh(NocConfig),
}


impl MemoryModel {
    /// The directory/NoC model with default mesh latencies and the ideal (contention-free)
    /// link model.
    pub fn directory_mesh() -> Self {
        MemoryModel::DirectoryMesh(NocConfig::default())
    }

    /// The directory/NoC model with the default contended link parameters (finite link
    /// bandwidth and router buffers — see [`crate::noc::LinkContention`]).
    pub fn directory_mesh_contended() -> Self {
        MemoryModel::DirectoryMesh(NocConfig::contended())
    }

    /// Stable lower-case key used in machine-readable output and sweep-row labels. The
    /// contended mesh gets its own key so sweep rows and `bench-diff` cell identities never
    /// conflate the two link models.
    pub fn key(self) -> &'static str {
        match self {
            MemoryModel::SnoopBus => "snoop-bus",
            MemoryModel::DirectoryMesh(noc) => match noc.contention {
                NocContention::Ideal => "dir-mesh",
                NocContention::Contended(_) => "dir-mesh-c",
            },
        }
    }

    /// Human-readable label (same as [`MemoryModel::key`]).
    pub fn label(self) -> &'static str {
        self.key()
    }

    /// Key of the NoC-contention coordinate for machine-readable output: `none` for the
    /// snooping bus (no NoC at all), `ideal` for the contention-free mesh, or the
    /// parameter-bearing [`crate::noc::LinkContention::key_string`] for a contended mesh.
    pub fn noc_key(self) -> String {
        match self {
            MemoryModel::SnoopBus => "none".to_string(),
            MemoryModel::DirectoryMesh(noc) => noc.contention.key_string(),
        }
    }
}

/// Latency parameters of the memory system, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatencies {
    /// An access that hits in the local L1.
    pub l1_hit: Cycle,
    /// Fetching a line from DRAM (includes the miss handling overhead of the in-order core).
    pub dram_fetch: Cycle,
    /// Writing a dirty line back to DRAM.
    pub writeback: Cycle,
    /// An ownership upgrade (invalidating remote copies) that does not need a data fetch.
    pub upgrade: Cycle,
    /// Occupancy of the snoop bus per transaction; concurrent misses queue behind each other.
    pub bus_occupancy: Cycle,
    /// Extra serialization cycles of an atomic read-modify-write beyond the plain store cost.
    pub atomic_extra: Cycle,
}

impl Default for MemLatencies {
    fn default() -> Self {
        // Calibrated for the 80 MHz Rocket / 667 MHz DDR prototype: a DRAM round trip of a few
        // hundred nanoseconds is only a couple dozen 12.5 ns core cycles.
        MemLatencies {
            l1_hit: 1,
            dram_fetch: 24,
            writeback: 12,
            upgrade: 8,
            bus_occupancy: 4,
            atomic_extra: 6,
        }
    }
}

/// Outcome of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryAccessOutcome {
    /// Total stall cycles charged to the requesting core.
    pub latency: Cycle,
    /// Whether every touched line hit in the local L1 in a sufficient state.
    pub l1_hit: bool,
    /// Whether a remote cache held one of the lines in Modified state (dirty bounce).
    pub remote_dirty: bool,
    /// Number of cache lines the access touched.
    pub lines: usize,
}

/// Aggregate statistics of the memory system.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Per-core L1 statistics.
    pub per_core: Vec<CacheStats>,
    /// Number of lines fetched from DRAM.
    pub dram_fetches: u64,
    /// Number of dirty lines written back to DRAM.
    pub dram_writebacks: u64,
    /// Number of snoop-bus transactions (always zero under [`MemoryModel::DirectoryMesh`]). An
    /// upgrade counts twice today: it waits for the bus once for its transaction and once more
    /// for its invalidation round trip, so on the snooping bus this is misses plus twice the
    /// upgrades.
    pub bus_transactions: u64,
    /// Number of accesses that found the line dirty in a remote cache.
    pub dirty_bounces: u64,
    /// Number of processor accesses observed ([`MemorySystem::access`] calls).
    pub accesses: u64,
    /// Total stall cycles charged to cores across all accesses — the memory-latency metric the
    /// `sweep_memory_scaling` experiment compares across models.
    pub stall_cycles: u64,
    /// Number of NoC messages sent (always zero under [`MemoryModel::SnoopBus`]).
    pub noc_messages: u64,
    /// Total hops traversed by NoC messages.
    pub noc_hop_total: u64,
    /// Number of point-to-point invalidations fanned out by directory homes.
    pub invalidations: u64,
    /// Total cycles NoC messages spent queueing for busy links. Non-zero only under a
    /// [`MemoryModel::DirectoryMesh`] with [`NocContention::Contended`] links — the headline
    /// contention metric of the `sweep_noc_contention` experiment.
    pub noc_link_wait_cycles: u64,
    /// Maximum observed occupancy of any one directed link, in flits: queued work ahead of an
    /// arriving message plus that message's own flits (zero under the bus or the ideal mesh).
    pub max_link_occupancy: u64,
    /// Total flits carried by NoC messages under the contended link model (zero otherwise).
    pub noc_flits: u64,
    /// Injected-fault counters (all zero unless a [`FaultConfig`] engages the fault layer).
    pub fault: FaultStats,
}

impl MemoryStats {
    /// Mean stall cycles per processor access, or zero when idle.
    pub fn mean_access_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.accesses as f64
        }
    }
}

/// The coherent multi-core memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    caches: Vec<L1Cache>,
    latencies: MemLatencies,
    model: MemoryModel,
    mesh: Mesh,
    /// Per-line directory state, keyed by line number, kept precise under both models: every
    /// miss's transition of it decides which remote copies change, and the mesh also routes
    /// its coherence messages by it. Entries are removed when a line returns to `Uncached`, so
    /// the map tracks exactly the lines some cache holds.
    directory: FxHashMap<u64, DirState>,
    /// Per-link occupancy state; populated only under a [`MemoryModel::DirectoryMesh`] whose
    /// [`NocConfig::contention`] is [`NocContention::Contended`]. `None` means messages are
    /// priced by the closed-form ideal formula, bit-identical to the bandwidth-free model.
    noc: Option<NocTraffic>,
    /// Deterministic message-fault state; present only when a [`FaultConfig`] engages the
    /// fault layer **and** the model has a mesh to fault (drop/delay/dead-link faults are
    /// defined on directed mesh links — the snooping bus has none). `None` means
    /// [`MemorySystem::noc_send`] is exactly the fault-free path.
    faults: Option<LinkFaults>,
    bus_free_at: Cycle,
    dram_fetches: u64,
    dram_writebacks: u64,
    bus_transactions: u64,
    dirty_bounces: u64,
    accesses: u64,
    stall_cycles: u64,
    noc_messages: u64,
    noc_hop_total: u64,
    invalidations: u64,
    /// Observability: while `true`, every [`MemorySystem::noc_send`] appends a
    /// [`NocLegRecord`] for the engine to drain. Plain data — this crate has no observer
    /// dependency — and nothing is buffered while disarmed (the default).
    observing: bool,
    noc_leg_log: Vec<NocLegRecord>,
    /// Test-only reference mode: a miss snoops every remote cache with the requester's bus
    /// operation, as a broadcast bus without a snoop filter does, instead of the caches its
    /// directory action names.
    #[cfg(test)]
    snoop_every_cache: bool,
}

/// One NoC protocol leg, recorded while observability logging is armed
/// (see [`MemorySystem::set_observing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocLegRecord {
    /// Cycle at which the message was injected.
    pub at: Cycle,
    /// Source tile.
    pub from: usize,
    /// Destination tile.
    pub to: usize,
    /// Flits carried (zero under the ideal, bandwidth-free link model).
    pub flits: u64,
    /// Cycles the message queued behind concurrent traffic (zero under the ideal model).
    pub wait_cycles: u64,
}

/// The state a line is filled in after a miss: a read installs Exclusive when no other cache
/// holds the line and Shared otherwise, a write or atomic installs Modified.
fn fill_state(op: BusOp, alone: bool) -> MesiState {
    match op {
        BusOp::BusRead if alone => MesiState::Exclusive,
        BusOp::BusRead => MesiState::Shared,
        BusOp::BusReadExclusive => MesiState::Modified,
    }
}

/// The directory request of `core`'s bus operation.
fn dir_request(op: BusOp, core: usize) -> DirOp {
    match op {
        BusOp::BusRead => DirOp::GetS(core),
        BusOp::BusReadExclusive => DirOp::GetM(core),
    }
}

impl MemorySystem {
    /// Creates a memory system with `cores` private L1 caches on the default snooping bus.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, cache: CacheConfig, latencies: MemLatencies) -> Self {
        Self::with_model(cores, cache, latencies, MemoryModel::SnoopBus)
    }

    /// Creates a memory system with the given coherence interconnect model.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_model(
        cores: usize,
        cache: CacheConfig,
        latencies: MemLatencies,
        model: MemoryModel,
    ) -> Self {
        Self::with_model_and_faults(cores, cache, latencies, model, FaultConfig::none())
    }

    /// Creates a memory system with the given interconnect model and fault schedule.
    ///
    /// Message faults (drop/delay/dead-link) are defined on the mesh's directed links, so an
    /// engaging `fault` only constructs fault state under [`MemoryModel::DirectoryMesh`]; the
    /// snooping bus is never message-faulted. A non-engaging config
    /// ([`FaultConfig::none`]) makes this identical to [`MemorySystem::with_model`].
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or above [`MAX_SHARERS`], the most cores the per-line holder
    /// record tracks, or if the fault configuration is invalid.
    pub fn with_model_and_faults(
        cores: usize,
        cache: CacheConfig,
        latencies: MemLatencies,
        model: MemoryModel,
        fault: FaultConfig,
    ) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        assert!(
            cores <= MAX_SHARERS,
            "the memory system tracks at most {MAX_SHARERS} cores, got {cores}"
        );
        let mesh = Mesh::new(cores);
        let noc = match model {
            MemoryModel::DirectoryMesh(NocConfig { contention: NocContention::Contended(params), .. }) => {
                Some(NocTraffic::new(&mesh, params))
            }
            _ => None,
        };
        let faults = (fault.engages() && matches!(model, MemoryModel::DirectoryMesh(_)))
            .then(|| LinkFaults::new(fault, mesh.link_slots()));
        MemorySystem {
            caches: (0..cores).map(|_| L1Cache::new(cache)).collect(),
            latencies,
            model,
            mesh,
            directory: FxHashMap::default(),
            noc,
            faults,
            bus_free_at: 0,
            dram_fetches: 0,
            dram_writebacks: 0,
            bus_transactions: 0,
            dirty_bounces: 0,
            accesses: 0,
            stall_cycles: 0,
            noc_messages: 0,
            noc_hop_total: 0,
            invalidations: 0,
            observing: false,
            noc_leg_log: Vec::new(),
            #[cfg(test)]
            snoop_every_cache: false,
        }
    }

    /// Arms (or disarms) NoC-leg logging. While armed, every protocol leg sent through the
    /// interconnect is buffered as a [`NocLegRecord`] until drained; while disarmed — the
    /// default — nothing is buffered and the send path is untouched.
    pub fn set_observing(&mut self, on: bool) {
        self.observing = on;
        if !on {
            self.noc_leg_log.clear();
        }
    }

    /// Drains buffered NoC-leg records, oldest first, into `sink`. Called by the engine after
    /// every agent step on observed runs.
    pub fn drain_noc_legs(&mut self, sink: &mut dyn FnMut(&NocLegRecord)) {
        for leg in self.noc_leg_log.drain(..) {
            sink(&leg);
        }
    }

    /// Number of cores / caches.
    pub fn cores(&self) -> usize {
        self.caches.len()
    }

    /// The latency parameters in use.
    pub fn latencies(&self) -> MemLatencies {
        self.latencies
    }

    /// The coherence interconnect model in use.
    pub fn model(&self) -> MemoryModel {
        self.model
    }

    /// Immutable view of one core's cache (for tests and statistics).
    pub fn cache(&self, core: usize) -> &L1Cache {
        &self.caches[core]
    }

    /// Performs a memory access of `bytes` bytes at `addr` from `core` at time `now`, returning
    /// the latency to charge to that core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(
        &mut self,
        core: usize,
        addr: Addr,
        kind: AccessKind,
        bytes: u64,
        now: Cycle,
    ) -> MemoryAccessOutcome {
        assert!(core < self.caches.len(), "core index out of range");
        let lines = line_range(addr, bytes);
        let count = (lines.end() - lines.start() + 1) as usize;
        let mut latency = 0;
        let mut all_hit = true;
        let mut any_remote_dirty = false;
        for (i, line) in lines.enumerate() {
            let line_addr = line * LINE_SIZE;
            let (l, hit, dirty) = self.access_line(core, line_addr, kind, now + latency);
            // The first line's latency is fully exposed; subsequent lines of a multi-line access
            // overlap with the consumption of the previous one, so only their miss portion adds.
            if i == 0 {
                latency += l;
            } else {
                latency += l.saturating_sub(self.latencies.l1_hit);
            }
            all_hit &= hit;
            any_remote_dirty |= dirty;
        }
        if kind == AccessKind::Atomic {
            latency += self.latencies.atomic_extra;
        }
        self.accesses += 1;
        self.stall_cycles += latency;
        MemoryAccessOutcome {
            latency,
            l1_hit: all_hit,
            remote_dirty: any_remote_dirty,
            lines: count,
        }
    }

    /// Whether an access of `bytes` bytes at `addr` by `core` would hit in its L1 on every line
    /// without changing any line's state, so that repeating it changes nothing but counters
    /// and recency (see [`MemorySystem::repeat_hits`]).
    pub fn hit_keeps_state(&self, core: usize, addr: Addr, kind: AccessKind, bytes: u64) -> bool {
        line_range(addr, bytes).all(|line| {
            let state = self.caches[core].state_of(line * LINE_SIZE);
            local_transition(state, kind) == (LocalAction::Hit, state)
        })
    }

    /// Charges `times` repeats of an access for which [`MemorySystem::hit_keeps_state`] held
    /// when they were made, in closed form: exactly the statistics, stall cycles and cache
    /// recency that `times` calls of [`MemorySystem::access`] would have left behind.
    pub fn repeat_hits(&mut self, core: usize, addr: Addr, kind: AccessKind, bytes: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.caches[core].repeat_hits(line_range(addr, bytes), times);
        self.accesses += times;
        self.stall_cycles += times * self.hit_latency(kind);
    }

    /// Stall cycles of an access of `kind` that hits in the L1 on every line: one exposed L1
    /// hit (later lines overlap with the first), plus the atomic surcharge. What
    /// [`MemorySystem::repeat_hits`] charges per repeat.
    pub fn hit_latency(&self, kind: AccessKind) -> Cycle {
        self.latencies.l1_hit + if kind == AccessKind::Atomic { self.latencies.atomic_extra } else { 0 }
    }

    /// Access of a single line; returns (latency, was_hit, remote_was_dirty). The line is looked
    /// up once, and everything but the price is the same under both models: a hit is served
    /// locally; a miss or upgrade moves the line's directory entry once with
    /// [`MemorySystem::request_line`], applies the resulting action to the remote copies, lets
    /// the model price the transaction, and fills or upgrades the line.
    fn access_line(
        &mut self,
        core: usize,
        line_addr: Addr,
        kind: AccessKind,
        now: Cycle,
    ) -> (Cycle, bool, bool) {
        let line = line_of(line_addr);
        let cache = &mut self.caches[core];
        let slot = cache.slot_of(line);
        let state = slot.map_or(MesiState::Invalid, |slot| cache.state_at(slot));
        let (action, new_state) = local_transition(state, kind);
        let op = match action {
            LocalAction::Hit => {
                cache.note_hit();
                cache.touch_slot(slot.expect("only a resident line hits"), new_state);
                return (self.latencies.l1_hit, true, false);
            }
            LocalAction::IssueBusRead => BusOp::BusRead,
            LocalAction::IssueBusReadExclusive => BusOp::BusReadExclusive,
        };
        // A write to a Shared line upgrades it in place; every other miss fills the line.
        let upgrade = slot.filter(|_| state == MesiState::Shared);
        let (holders, action) = self.request_line(line, dir_request(op, core));
        let snoops = action.snoops();
        #[cfg(test)]
        let snoops = if self.snoop_every_cache { (self.every_cache_but(core), op) } else { snoops };
        let dirty = self.snoop_remotes(line, snoops);
        if upgrade.is_none() {
            self.dram_fetches += 1;
        }
        if dirty {
            self.dirty_bounces += 1;
        }
        let latency = match self.model {
            MemoryModel::SnoopBus => {
                // Wait for the bus, write a dirty copy back, fetch the line from DRAM: without
                // an L2 dirty data goes through memory, and clean sharers do not forward. An
                // upgrade already has the data, so only its invalidation round trip counts.
                let writeback = if dirty { self.latencies.writeback } else { 0 };
                let miss = self.wait_for_bus(now) + writeback + self.latencies.dram_fetch;
                match upgrade {
                    Some(_) => miss.min(self.latencies.upgrade + self.wait_for_bus(now)),
                    None => miss,
                }
            }
            MemoryModel::DirectoryMesh(noc) => self.mesh_latency(core, line, action, dirty, noc, now),
        };
        let cache = &mut self.caches[core];
        match upgrade {
            Some(slot) => {
                cache.note_upgrade();
                cache.touch_slot(slot, MesiState::Modified);
            }
            None => {
                cache.note_miss();
                // A read installs Exclusive when no cache held the line. The eviction (and, on
                // the mesh, its Put notification) happens when the fill arrives.
                let fill = fill_state(op, holders == DirState::Uncached);
                self.install_with_eviction(core, line_addr, fill, now + latency);
            }
        }
        (latency, false, dirty)
    }

    /// Applies a directory action's remote effects, the `(targets, op)` of
    /// [`DirAction::snoops`]: every target cache that holds `line` takes its
    /// [`snoop_transition`] under `op`, a dirty copy writing back through memory first. Returns
    /// whether a copy was dirty, which only the owner's can be.
    fn snoop_remotes(&mut self, line: u64, (targets, op): (SharerSet, BusOp)) -> bool {
        let mut dirty = false;
        for core in targets.iter() {
            let cache = &mut self.caches[core];
            let Some(slot) = cache.slot_of(line) else { continue };
            let state = cache.state_at(slot);
            cache.snoop_slot(slot, snoop_transition(state, op), state.is_dirty());
            self.dram_writebacks += u64::from(state.is_dirty());
            dirty |= state.is_dirty();
        }
        dirty
    }

    /// Sends one protocol message over the NoC and returns its latency. Under the ideal link
    /// model this is the closed-form [`NocConfig::message_latency`] — bit-identical to the
    /// bandwidth-free model, regardless of `bytes` or `now`. Under
    /// [`NocContention::Contended`] the message walks its XY route through the per-link FIFO
    /// state, paying serialisation proportional to `bytes` and queueing behind concurrent
    /// traffic. Traffic statistics are recorded either way.
    ///
    /// When a fault layer is engaged it adds — on top of whichever base cost applies — the
    /// drop/delay recovery penalty of the leg, or, if the XY route crosses a dead link, the
    /// full retry-exhaustion detection cost (recording a [`FaultDiagnosis`] for the engine to
    /// surface). Recoverable faults are therefore pure added latency: the protocol's state
    /// effects are untouched, which is what keeps faulted runs functionally identical.
    fn noc_send(&mut self, from: usize, to: usize, bytes: u64, noc: &NocConfig, now: Cycle) -> Cycle {
        let hops = self.mesh.hops(from, to);
        self.note_noc(1, hops);
        let snapshot = self
            .observing
            .then(|| self.noc.as_ref().map_or((0, 0), |t| (t.flits(), t.link_wait_cycles())));
        let base = match &mut self.noc {
            Some(traffic) => traffic.send(&self.mesh, noc, from, to, bytes, now),
            None => noc.message_latency(hops),
        };
        if let Some((flits0, wait0)) = snapshot {
            let (flits1, wait1) =
                self.noc.as_ref().map_or((0, 0), |t| (t.flits(), t.link_wait_cycles()));
            self.noc_leg_log.push(NocLegRecord {
                at: now,
                from,
                to,
                flits: flits1 - flits0,
                wait_cycles: wait1 - wait0,
            });
        }
        let Some(faults) = &mut self.faults else { return base };
        match faults.dead_route_check(self.mesh.xy_route(from, to), from, to, now) {
            Some(detect) => base + detect,
            None => base + faults.leg_penalty(),
        }
    }

    /// Prices a miss or upgrade on the mesh: the request travels to the line's home tile, the
    /// directory looks the line up, `action`'s remote legs run (owner downgrade or recall
    /// through memory, as the no-L2 hierarchy demands, or the invalidation fan-out), memory
    /// supplies the line, and the response returns to the requester. `dirty` says whether the
    /// owner's copy was dirty.
    ///
    /// Every protocol leg is an explicit [`MemorySystem::noc_send`] with its true payload
    /// size — control-sized requests/acks/invalidations, data-sized fill responses and dirty
    /// writebacks — so under [`NocContention::Contended`] each leg loads the links it crosses.
    /// Under the ideal model the per-leg sum telescopes to exactly the closed-form pricing of
    /// the bandwidth-free model (pinned by `tests/figure_pins.rs`).
    fn mesh_latency(
        &mut self,
        requester: usize,
        line: u64,
        action: DirAction,
        dirty: bool,
        noc: NocConfig,
        now: Cycle,
    ) -> Cycle {
        let home = self.mesh.home_of(line);
        let mut latency = self.noc_send(requester, home, CTRL_MSG_BYTES, &noc, now);
        latency += noc.directory_lookup;
        match action {
            DirAction::DowngradeOwner(owner) | DirAction::RecallOwner(owner) => {
                // Forward to the owner; its reply carries the dirty line when a writeback is
                // due, so the bounce costs proportionally to the payload on contended links.
                latency += self.noc_send(home, owner, CTRL_MSG_BYTES, &noc, now + latency);
                let reply = if dirty { DATA_MSG_BYTES } else { CTRL_MSG_BYTES };
                latency += self.noc_send(owner, home, reply, &noc, now + latency);
                if dirty {
                    // No shared L2: the dirty line goes through DRAM before the refetch.
                    latency += self.latencies.writeback;
                }
            }
            DirAction::InvalidateForUpgrade(sharers) | DirAction::InvalidateAndFetch(sharers) => {
                let count = sharers.count() as u64;
                self.invalidations += count;
                // Invalidations serialise at the home's NI (the k-th leaves k×per_invalidation
                // after the first), travel in parallel, and the home waits for the farthest
                // acknowledgement round trip. Each invalidation and each ack is a
                // control-sized message on its own XY route; the ack only enters the mesh
                // once the invalidation has reached the sharer.
                let mut max_round_trip = 0;
                for (k, s) in sharers.iter().enumerate() {
                    let issue = now + latency + k as u64 * noc.per_invalidation;
                    let inv = self.noc_send(home, s, CTRL_MSG_BYTES, &noc, issue);
                    let ack = self.noc_send(s, home, CTRL_MSG_BYTES, &noc, issue + inv);
                    max_round_trip = max_round_trip.max(inv + ack);
                }
                if count > 0 {
                    latency += noc.per_invalidation * count + max_round_trip;
                }
            }
            DirAction::FetchFromMemory | DirAction::None => {}
        }
        // Every action but an in-place upgrade fetches the line, and the response carries it.
        let fetch = !matches!(action, DirAction::InvalidateForUpgrade(_) | DirAction::None);
        if fetch {
            latency += self.latencies.dram_fetch;
        }
        let response = if fetch { DATA_MSG_BYTES } else { CTRL_MSG_BYTES };
        latency + self.noc_send(home, requester, response, &noc, now + latency)
    }

    /// Records NoC traffic statistics.
    fn note_noc(&mut self, messages: u64, hops: u64) {
        self.noc_messages += messages;
        self.noc_hop_total += hops;
    }

    /// Moves `line`'s directory entry through a `GetS` or `GetM` request with one lookup, and
    /// returns the state it held before — the line's holders — with the action the transition
    /// orders. A request always leaves the line held, so the entry is never left `Uncached`.
    fn request_line(&mut self, line: u64, request: DirOp) -> (DirState, DirAction) {
        let entry = self.directory.entry(line).or_insert(DirState::Uncached);
        let holders = *entry;
        let (action, next) = dir_transition(holders, request);
        *entry = next;
        (holders, action)
    }

    fn wait_for_bus(&mut self, now: Cycle) -> Cycle {
        // Cores are stepped in a relaxed time order (a core executing a long task payload can
        // reserve the bus far in the future before a slower core issues an earlier access), so
        // queueing delay is capped at a small number of back-to-back transactions. This keeps
        // the model meaningful — bursts of misses still queue — without letting out-of-order
        // stepping manufacture absurd waits.
        let max_queue = self.latencies.bus_occupancy * 4;
        let wait = self.bus_free_at.saturating_sub(now).min(max_queue);
        self.bus_free_at = now.max(self.bus_free_at.min(now + max_queue)) + self.latencies.bus_occupancy;
        self.bus_transactions += 1;
        wait
    }

    /// Fills a line the requester has just missed on, after its bus or directory transaction.
    fn install_with_eviction(&mut self, core: usize, line_addr: Addr, state: MesiState, now: Cycle) {
        let Some(ev) = self.caches[core].fill(line_addr, state) else { return };
        if ev.dirty {
            self.dram_writebacks += 1;
        }
        if let MemoryModel::DirectoryMesh(noc) = self.model {
            // Every eviction (clean or dirty) notifies the home. Put messages are
            // fire-and-forget: no latency is charged to the evicting core, same as the snoop
            // model's silent evictions — but on a contended mesh the notification still
            // occupies links (data-sized when it carries a dirty line), so heavy eviction
            // traffic slows everyone else. The message is counted under both link tiers, so
            // noc_messages/noc_hop_total stay comparable across the ideal-vs-contended axis.
            let home = self.mesh.home_of(ev.line);
            let bytes = if ev.dirty { DATA_MSG_BYTES } else { CTRL_MSG_BYTES };
            self.noc_send(core, home, bytes, &noc, now);
        }
        // Under both models the eviction leaves the line's record, keeping it precise.
        if let Entry::Occupied(mut entry) = self.directory.entry(ev.line) {
            match dir_transition(*entry.get(), DirOp::Evict(core)).1 {
                DirState::Uncached => {
                    entry.remove();
                }
                next => *entry.get_mut() = next,
            }
        }
    }

    /// Snapshot of the aggregate statistics.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats { per_core: self.caches.iter().map(|c| c.stats().clone()).collect(), ..self.totals() }
    }

    /// [`MemorySystem::stats`] without the per-core cache statistics (`per_core` is empty):
    /// the machine-wide counters alone, read without allocating.
    pub fn totals(&self) -> MemoryStats {
        MemoryStats {
            per_core: Vec::new(),
            dram_fetches: self.dram_fetches,
            dram_writebacks: self.dram_writebacks,
            bus_transactions: self.bus_transactions,
            dirty_bounces: self.dirty_bounces,
            accesses: self.accesses,
            stall_cycles: self.stall_cycles,
            noc_messages: self.noc_messages,
            noc_hop_total: self.noc_hop_total,
            invalidations: self.invalidations,
            noc_link_wait_cycles: self.noc.as_ref().map_or(0, NocTraffic::link_wait_cycles),
            max_link_occupancy: self.noc.as_ref().map_or(0, NocTraffic::max_link_occupancy),
            noc_flits: self.noc.as_ref().map_or(0, NocTraffic::flits),
            fault: self.fault_stats(),
        }
    }

    /// Counters of injected message faults, all-zero when no fault layer is engaged.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map_or_else(FaultStats::default, LinkFaults::stats)
    }

    /// The diagnosis of the first *unrecoverable* fault (a message whose XY route crosses a
    /// dead link, with the retry budget exhausted), if one has occurred. The execution engine
    /// polls this every iteration and aborts the run with a precise error instead of letting a
    /// lost wakeup hang the machine.
    pub fn fault_diagnosis(&self) -> Option<FaultDiagnosis> {
        self.faults.as_ref().and_then(LinkFaults::diagnosis)
    }

    /// Checks the fundamental MESI coherence invariants across all caches — and, under both
    /// models, that the directory is *precise* (its sharer sets and owners match the caches'
    /// actual resident states exactly). Returns an error message describing the first
    /// violation found, if any, checking lines in ascending order so that the message is the
    /// same on every run. Used by property tests.
    pub fn check_coherence_invariants(&self) -> Result<(), String> {
        let mut owners: BTreeMap<u64, Vec<(usize, MesiState)>> = BTreeMap::new();
        for (i, c) in self.caches.iter().enumerate() {
            for (line, state) in c.resident() {
                owners.entry(line).or_default().push((i, state));
            }
        }
        for (&line, holders) in &owners {
            let exclusive_like = holders
                .iter()
                .filter(|(_, s)| matches!(s, MesiState::Modified | MesiState::Exclusive))
                .count();
            if exclusive_like > 1 {
                return Err(format!("line {line:#x} is owned exclusively by {exclusive_like} caches"));
            }
            if exclusive_like == 1 && holders.len() > 1 {
                return Err(format!(
                    "line {line:#x} is both exclusively owned and shared ({} holders)",
                    holders.len()
                ));
            }
        }
        self.check_directory_precision(&owners)
    }

    /// Directory extension of the invariant check: every resident line is recorded with
    /// exactly the right holders, and the directory records no ghost lines.
    fn check_directory_precision(
        &self,
        owners: &BTreeMap<u64, Vec<(usize, MesiState)>>,
    ) -> Result<(), String> {
        for (&line, holders) in owners {
            match self.directory.get(&line) {
                None => {
                    return Err(format!(
                        "line {line:#x} is resident in {} cache(s) but Uncached in the directory",
                        holders.len()
                    ));
                }
                Some(DirState::Owned(owner)) => {
                    let [(holder, state)] = holders.as_slice() else {
                        return Err(format!(
                            "line {line:#x} is directory-Owned but held by {} caches",
                            holders.len()
                        ));
                    };
                    if holder != owner || !matches!(state, MesiState::Modified | MesiState::Exclusive) {
                        return Err(format!(
                            "line {line:#x}: directory says core {owner} owns it, cache says core {holder} holds it {state:?}"
                        ));
                    }
                }
                Some(DirState::Shared(sharers)) => {
                    if holders.len() != sharers.count()
                        || holders.iter().any(|(c, s)| *s != MesiState::Shared || !sharers.contains(*c))
                    {
                        return Err(format!(
                            "line {line:#x}: directory sharer set {:?} disagrees with cache holders {holders:?}",
                            sharers.iter().collect::<Vec<_>>()
                        ));
                    }
                }
                Some(DirState::Uncached) => {
                    return Err(format!("line {line:#x} has an explicit Uncached directory entry"));
                }
            }
        }
        let ghost = self.directory.keys().filter(|line| !owners.contains_key(line)).min();
        if let Some(line) = ghost {
            return Err(format!("directory records ghost line {line:#x} no cache holds"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: usize) -> MemorySystem {
        MemorySystem::new(cores, CacheConfig::rocket_l1d(), MemLatencies::default())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut m = sys(2);
        let lat = MemLatencies::default();
        let first = m.access(0, 0x1000, AccessKind::Read, 8, 0);
        assert!(!first.l1_hit);
        assert!(first.latency >= lat.dram_fetch);
        let second = m.access(0, 0x1000, AccessKind::Read, 8, first.latency);
        assert!(second.l1_hit);
        assert_eq!(second.latency, lat.l1_hit);
        // Reading an uncached line when no one else has it installs Exclusive, so a subsequent
        // local write is a silent hit.
        let w = m.access(0, 0x1000, AccessKind::Write, 8, 100);
        assert!(w.l1_hit);
    }

    #[test]
    fn dirty_line_bounces_through_memory() {
        let mut m = sys(2);
        let lat = MemLatencies::default();
        m.access(0, 0x2000, AccessKind::Write, 8, 0);
        let r = m.access(1, 0x2000, AccessKind::Read, 8, 50);
        assert!(r.remote_dirty, "core 1 must observe the dirty copy in core 0");
        assert!(
            r.latency >= lat.writeback + lat.dram_fetch,
            "no-L2 MESI forces writeback + refetch, got {}",
            r.latency
        );
        let stats = m.stats();
        assert_eq!(stats.dirty_bounces, 1);
        assert!(stats.dram_writebacks >= 1);
    }

    #[test]
    fn write_to_shared_line_is_an_upgrade() {
        let mut m = sys(2);
        // Both cores read the line -> Shared everywhere.
        m.access(0, 0x3000, AccessKind::Read, 8, 0);
        m.access(1, 0x3000, AccessKind::Read, 8, 10);
        // Core 0 writes: upgrade, and core 1 loses its copy.
        let w = m.access(0, 0x3000, AccessKind::Write, 8, 20);
        assert!(w.latency < MemLatencies::default().dram_fetch, "upgrade should not refetch data");
        assert_eq!(m.cache(1).state_of(0x3000), MesiState::Invalid);
        assert_eq!(m.cache(0).state_of(0x3000), MesiState::Modified);
        assert!(m.cache(0).stats().upgrades >= 1);
    }

    #[test]
    fn atomic_charges_extra_and_owns_line() {
        let mut m = sys(2);
        let plain = m.access(0, 0x4000, AccessKind::Write, 8, 0);
        let mut m2 = sys(2);
        let atomic = m2.access(0, 0x4000, AccessKind::Atomic, 8, 0);
        assert_eq!(atomic.latency, plain.latency + MemLatencies::default().atomic_extra);
        assert_eq!(m2.cache(0).state_of(0x4000), MesiState::Modified);
    }

    #[test]
    fn ping_pong_is_much_more_expensive_than_private_access() {
        // The cache-line bouncing scenario of Section V-B: two cores alternately updating the
        // same line pay the writeback+fetch round trip every time, while a core updating its own
        // private line pays one cold miss and then hits.
        let mut shared = sys(2);
        let mut bounce_cycles = 0;
        for i in 0..20 {
            let core = i % 2;
            bounce_cycles += shared.access(core, 0x8000, AccessKind::Atomic, 8, (i * 100) as u64).latency;
        }
        let mut private = sys(2);
        let mut private_cycles = 0;
        for i in 0..20 {
            private_cycles += private.access(0, 0x8000, AccessKind::Atomic, 8, (i * 100) as u64).latency;
        }
        assert!(
            bounce_cycles > 3 * private_cycles,
            "bouncing ({bounce_cycles}) should dwarf private access ({private_cycles})"
        );
    }

    #[test]
    fn multi_line_access_touches_every_line() {
        let mut m = sys(1);
        let out = m.access(0, 0x5000, AccessKind::Read, 256, 0);
        assert_eq!(out.lines, 4);
        assert!(!out.l1_hit);
        let again = m.access(0, 0x5000, AccessKind::Read, 256, 1000);
        assert!(again.l1_hit);
        assert_eq!(again.latency, MemLatencies::default().l1_hit);
    }

    #[test]
    fn bus_contention_adds_wait() {
        let mut m = sys(2);
        // Two misses at the same instant: the second pays bus occupancy of the first.
        let a = m.access(0, 0x6000, AccessKind::Read, 8, 0);
        let b = m.access(1, 0x7000, AccessKind::Read, 8, 0);
        assert!(b.latency >= a.latency, "second miss at same cycle waits for the bus");
    }

    #[test]
    fn coherence_invariants_hold_after_random_traffic() {
        let mut m = sys(4);
        let mut rng = tis_sim::SimRng::new(1234);
        for i in 0..5000u64 {
            let core = (rng.next_u64() % 4) as usize;
            let addr = 0x1_0000 + (rng.next_u64() % 64) * 8;
            let kind = match rng.next_u64() % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            m.access(core, addr, kind, 8, i * 3);
        }
        m.check_coherence_invariants().expect("MESI invariants must hold");
    }

    #[test]
    fn invariant_check_names_the_lowest_violating_line() {
        // Eight lines each held Modified by two caches: every one violates, and the message must
        // name the lowest on every run, whatever order the lines were found in.
        let mut m = sys(2);
        for line in (1..=8u64).rev() {
            for core in 0..2 {
                m.caches[core].install(line * 0x1000, MesiState::Modified);
            }
        }
        let err = m.check_coherence_invariants().expect_err("planted violations");
        assert_eq!(err, format!("line {:#x} is owned exclusively by 2 caches", line_of(0x1000)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        let mut m = sys(2);
        m.access(5, 0x0, AccessKind::Read, 8, 0);
    }

    fn dir_sys(cores: usize) -> MemorySystem {
        MemorySystem::with_model(
            cores,
            CacheConfig::rocket_l1d(),
            MemLatencies::default(),
            MemoryModel::directory_mesh(),
        )
    }

    #[test]
    fn model_selection_and_keys() {
        assert_eq!(sys(2).model(), MemoryModel::SnoopBus);
        assert_eq!(dir_sys(2).model(), MemoryModel::directory_mesh());
        assert_eq!(MemoryModel::SnoopBus.key(), "snoop-bus");
        assert_eq!(MemoryModel::directory_mesh().key(), "dir-mesh");
        assert_eq!(MemoryModel::default(), MemoryModel::SnoopBus);
    }

    #[test]
    fn directory_dirty_line_still_bounces_through_memory() {
        // The no-L2 rule survives the interconnect swap: a dirty line moves between cores
        // through DRAM under the directory exactly as under the snooping bus.
        let mut m = dir_sys(4);
        let lat = MemLatencies::default();
        m.access(0, 0x2000, AccessKind::Write, 8, 0);
        let r = m.access(1, 0x2000, AccessKind::Read, 8, 50);
        assert!(r.remote_dirty);
        assert!(r.latency >= lat.writeback + lat.dram_fetch);
        let stats = m.stats();
        assert_eq!(stats.dirty_bounces, 1);
        assert!(stats.dram_writebacks >= 1);
        assert_eq!(stats.bus_transactions, 0, "no bus in the mesh model");
        assert!(stats.noc_messages > 0, "coherence travelled the NoC");
    }

    #[test]
    fn directory_upgrade_fans_out_invalidations() {
        let mut m = dir_sys(4);
        for core in 0..4 {
            m.access(core, 0x3000, AccessKind::Read, 8, core as u64 * 10);
        }
        let w = m.access(2, 0x3000, AccessKind::Write, 8, 100);
        assert!(w.latency < MemLatencies::default().dram_fetch + 50, "upgrade does not refetch");
        for core in [0usize, 1, 3] {
            assert_eq!(m.cache(core).state_of(0x3000), MesiState::Invalid);
        }
        assert_eq!(m.cache(2).state_of(0x3000), MesiState::Modified);
        assert_eq!(m.stats().invalidations, 3);
        m.check_coherence_invariants().expect("directory stays precise");
    }

    #[test]
    fn directory_cold_read_installs_exclusive() {
        let mut m = dir_sys(2);
        m.access(0, 0x1000, AccessKind::Read, 8, 0);
        assert_eq!(m.cache(0).state_of(0x1000), MesiState::Exclusive);
        // The silent E->M upgrade then hits locally, exactly as on the bus.
        let w = m.access(0, 0x1000, AccessKind::Write, 8, 10);
        assert!(w.l1_hit);
    }

    #[test]
    fn directory_miss_latency_grows_with_mesh_distance() {
        // Same cold miss, increasingly distant home tile: a 64-core mesh pays more hops than a
        // 4-core one. Line 0's home is core 0; request it from the farthest corner.
        let mut small = dir_sys(4);
        let mut large = dir_sys(64);
        let near = small.access(3, 0, AccessKind::Read, 8, 0);
        let far = large.access(63, 0, AccessKind::Read, 8, 0);
        assert!(
            far.latency > near.latency,
            "64-core corner-to-corner miss ({}) must out-pay the 4-core one ({})",
            far.latency,
            near.latency
        );
    }

    #[test]
    fn directory_invariants_hold_after_random_traffic_at_64_cores() {
        let mut m = dir_sys(64);
        let mut rng = tis_sim::SimRng::new(99);
        for i in 0..8000u64 {
            let core = (rng.next_u64() % 64) as usize;
            let addr = 0x1_0000 + (rng.next_u64() % 96) * 8;
            let kind = match rng.next_u64() % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            m.access(core, addr, kind, 8, i * 3);
        }
        m.check_coherence_invariants().expect("directory invariants must hold at 64 cores");
        let stats = m.stats();
        assert!(stats.accesses == 8000);
        assert!(stats.stall_cycles > 0);
        assert!(stats.mean_access_latency() > 1.0);
    }

    fn contended_sys(cores: usize) -> MemorySystem {
        MemorySystem::with_model(
            cores,
            CacheConfig::rocket_l1d(),
            MemLatencies::default(),
            MemoryModel::directory_mesh_contended(),
        )
    }

    #[test]
    fn contended_mesh_is_functionally_identical_and_never_faster() {
        // Contention changes *when*, never *what*: the same random trace through the ideal and
        // the contended mesh must produce identical functional outcomes and identical resident
        // states, with contended per-access latency >= ideal (queueing and serialisation only
        // ever add cycles).
        let mut ideal = dir_sys(16);
        let mut contended = contended_sys(16);
        let mut rng = tis_sim::SimRng::new(7);
        let mut total_ideal = 0u64;
        let mut total_contended = 0u64;
        for i in 0..4000u64 {
            let core = (rng.next_u64() % 16) as usize;
            let addr = 0x1_0000 + (rng.next_u64() % 64) * 8;
            let kind = match rng.next_u64() % 3 {
                0 => AccessKind::Read,
                1 => AccessKind::Write,
                _ => AccessKind::Atomic,
            };
            let a = ideal.access(core, addr, kind, 8, i * 3);
            let b = contended.access(core, addr, kind, 8, i * 3);
            assert_eq!(
                (a.l1_hit, a.remote_dirty, a.lines),
                (b.l1_hit, b.remote_dirty, b.lines),
                "functional outcome diverged at access {i}"
            );
            assert!(
                b.latency >= a.latency,
                "contended access {i} ({}) beat the ideal mesh ({})",
                b.latency,
                a.latency
            );
            total_ideal += a.latency;
            total_contended += b.latency;
        }
        assert!(total_contended > total_ideal, "a 16-core hotspot trace must queue somewhere");
        contended.check_coherence_invariants().expect("contention must not break coherence");
        let stats = contended.stats();
        assert!(stats.noc_link_wait_cycles > 0, "queueing must be observed");
        assert!(stats.max_link_occupancy > 0);
        assert!(stats.noc_flits >= stats.noc_messages, "every message carries >= 1 flit");
        let ideal_stats = ideal.stats();
        assert_eq!(ideal_stats.noc_link_wait_cycles, 0, "the ideal mesh never queues");
        assert_eq!(ideal_stats.max_link_occupancy, 0);
        assert_eq!(ideal_stats.noc_flits, 0);
    }

    #[test]
    fn contended_uncontended_miss_pays_serialisation_over_ideal() {
        // A single cold miss on an otherwise idle mesh: the contended latency exceeds the
        // ideal one by exactly the wormhole serialisation of the request (control) and
        // response (data) messages — no queueing on idle links.
        let mut ideal = dir_sys(4);
        let mut contended = contended_sys(4);
        let a = ideal.access(3, 0, AccessKind::Read, 8, 0);
        let b = contended.access(3, 0, AccessKind::Read, 8, 0);
        let params = crate::noc::LinkContention::default();
        let expected =
            params.serialization(CTRL_MSG_BYTES) + params.serialization(DATA_MSG_BYTES);
        assert_eq!(b.latency, a.latency + expected);
        assert_eq!(contended.stats().noc_link_wait_cycles, 0);
    }

    #[test]
    fn memory_model_keys_distinguish_contention() {
        assert_eq!(MemoryModel::directory_mesh_contended().key(), "dir-mesh-c");
        assert_eq!(MemoryModel::directory_mesh().key(), "dir-mesh");
        assert_eq!(MemoryModel::SnoopBus.noc_key(), "none");
        assert_eq!(MemoryModel::directory_mesh().noc_key(), "ideal");
        assert_eq!(MemoryModel::directory_mesh_contended().noc_key(), "bw8-buf4-flit16");
    }

    #[test]
    fn stats_track_stalls_and_accesses_in_both_models() {
        for mut m in [sys(2), dir_sys(2)] {
            let a = m.access(0, 0x100, AccessKind::Read, 8, 0);
            let b = m.access(0, 0x100, AccessKind::Read, 8, 50);
            let stats = m.stats();
            assert_eq!(stats.accesses, 2);
            assert_eq!(stats.stall_cycles, a.latency + b.latency);
            assert!((stats.mean_access_latency() - (a.latency + b.latency) as f64 / 2.0).abs() < 1e-12);
        }
        assert_eq!(MemoryStats::default().mean_access_latency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_system_panics() {
        MemorySystem::new(0, CacheConfig::rocket_l1d(), MemLatencies::default());
    }

    #[test]
    fn core_count_is_capped_at_the_holder_record_limit() {
        // The per-line holder record tracks at most 256 cores; past that the constructor says
        // so, instead of a run panicking mid-way the first time a line is shared that widely.
        let build = |cores, model| {
            MemorySystem::with_model(cores, CacheConfig::tiny(), MemLatencies::default(), model)
        };
        for model in [MemoryModel::SnoopBus, MemoryModel::directory_mesh()] {
            assert_eq!(build(MAX_SHARERS, model).cores(), 256);
            let panic = std::panic::catch_unwind(|| build(MAX_SHARERS + 1, model))
                .expect_err("257 cores must be refused");
            let message = panic.downcast_ref::<String>().expect("a formatted panic message");
            assert_eq!(message, "the memory system tracks at most 256 cores, got 257");
        }
    }

    #[test]
    fn bus_transactions_count_each_upgrade_twice() {
        // A known modelling quirk, kept until a re-pin: an upgrade waits for the bus in its
        // transaction and again for its invalidation round trip, so it is counted twice.
        let mut m = sys(4);
        for (i, (core, addr, kind)) in random_trace(4, 3000, 0xB05).into_iter().enumerate() {
            m.access(core, addr, kind, 8, i as u64 * 3);
        }
        let stats = m.stats();
        let misses: u64 = stats.per_core.iter().map(|c| c.misses).sum();
        let upgrades: u64 = stats.per_core.iter().map(|c| c.upgrades).sum();
        assert!(upgrades > 0, "the trace must upgrade some Shared lines");
        assert_eq!(stats.bus_transactions, misses + 2 * upgrades);
    }

    #[test]
    fn snooping_bus_directory_with_a_dropped_holder_fails_the_invariant_check() {
        // The bus's snoop filter is held to the directory's precision: a holder missing from
        // the record would go unsnooped, and the check must name the line.
        let mut m = sys(4);
        m.access(0, 0x3000, AccessKind::Read, 8, 0);
        m.access(2, 0x3000, AccessKind::Read, 8, 10);
        m.check_coherence_invariants().expect("the record is precise after two reads");
        let line = line_of(0x3000);
        m.directory.insert(line, DirState::Shared(crate::directory::SharerSet::only(2)));
        let err = m.check_coherence_invariants().expect_err("a dropped holder must be caught");
        assert!(err.starts_with(&format!("line {line:#x}:")), "{err}");
    }

    #[test]
    fn snoop_filter_matches_the_broadcast_bus_past_64_cores() {
        let mut rng = tis_sim::SimRng::new(0x5F);
        let trace: Vec<_> = (0..1500)
            .map(|_| {
                let r = rng.next_u64();
                ((r % 72) as usize, r >> 8 & 63, (r >> 16) as u8, r >> 24 & 3)
            })
            .collect();
        for cache in [CacheConfig::tiny(), CacheConfig::rocket_l1d()] {
            assert_filter_matches_broadcast(72, cache, &trace);
        }
    }

    impl MemorySystem {
        /// Every core but `core`: the caches the broadcast reference snoops.
        pub(super) fn every_cache_but(&self, core: usize) -> SharerSet {
            let mut every = SharerSet::empty();
            (0..self.cores()).filter(|&c| c != core).for_each(|c| every.insert(c));
            every
        }
    }

    /// Drives `trace` — `(core, line, kind, extra lines)` per access, with lines crowded into
    /// four sets so that both geometries evict — through a snoop-filtered bus and the
    /// broadcast reference that probes every remote cache. They must agree on every access
    /// outcome, the final statistics with every per-core cache's, and every resident set, and
    /// the filtered bus's directory must stay precise after every access.
    pub(super) fn assert_filter_matches_broadcast(
        cores: usize,
        cache: CacheConfig,
        trace: &[(usize, u64, u8, u64)],
    ) {
        let mut filtered = MemorySystem::new(cores, cache, MemLatencies::default());
        let mut broadcast = filtered.clone();
        broadcast.snoop_every_cache = true;
        let sets = cache.sets() as u64;
        let mut now = 0;
        for (i, &(core, k, kind, extra)) in trace.iter().enumerate() {
            let core = core % cores;
            let addr = (k % 4 + k / 4 * sets) * LINE_SIZE;
            let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Atomic][kind as usize % 3];
            let bytes = 8 + extra * LINE_SIZE;
            let a = filtered.access(core, addr, kind, bytes, now);
            let b = broadcast.access(core, addr, kind, bytes, now);
            assert_eq!(a, b, "access {i} ({kind:?} by core {core} of {cores}) diverged");
            if let Err(e) = filtered.check_coherence_invariants() {
                panic!("after access {i} on {cores} cores: {e}");
            }
            now += a.latency;
        }
        assert_eq!(filtered.stats(), broadcast.stats());
        for core in 0..cores {
            let mut a: Vec<_> = filtered.cache(core).resident().collect();
            let mut b: Vec<_> = broadcast.cache(core).resident().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "core {core} resident set diverged");
        }
    }

    fn faulted_sys(cores: usize, model: MemoryModel, fault: FaultConfig) -> MemorySystem {
        MemorySystem::with_model_and_faults(
            cores,
            CacheConfig::rocket_l1d(),
            MemLatencies::default(),
            model,
            fault,
        )
    }

    fn random_trace(cores: usize, len: u64, seed: u64) -> Vec<(usize, Addr, AccessKind)> {
        let mut rng = tis_sim::SimRng::new(seed);
        (0..len)
            .map(|_| {
                let core = (rng.next_u64() % cores as u64) as usize;
                let addr = 0x1_0000 + (rng.next_u64() % 64) * 8;
                let kind = match rng.next_u64() % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Atomic,
                };
                (core, addr, kind)
            })
            .collect()
    }

    #[test]
    fn zero_rate_fault_layer_is_cycle_identical() {
        // The engaged-but-zero-rate config walks the whole injection path yet must not move a
        // single cycle, on the ideal and the contended mesh alike.
        for model in [MemoryModel::directory_mesh(), MemoryModel::directory_mesh_contended()] {
            let mut plain = faulted_sys(8, model, FaultConfig::none());
            let mut zeroed = faulted_sys(8, model, FaultConfig::zero_rate());
            for (i, (core, addr, kind)) in random_trace(8, 3000, 0xFA0).into_iter().enumerate() {
                let a = plain.access(core, addr, kind, 8, i as u64 * 3);
                let b = zeroed.access(core, addr, kind, 8, i as u64 * 3);
                assert_eq!(a, b, "zero-rate faults moved access {i} under {model:?}");
            }
            assert_eq!(zeroed.fault_stats(), FaultStats::default());
            assert!(zeroed.fault_diagnosis().is_none());
        }
    }

    #[test]
    fn recoverable_faults_only_add_latency() {
        // Recoverable drops/delays must leave every functional outcome and final cache state
        // untouched — only per-access latency may (and does) grow.
        let mut clean = faulted_sys(8, MemoryModel::directory_mesh(), FaultConfig::none());
        let mut chaos = faulted_sys(8, MemoryModel::directory_mesh(), FaultConfig::recoverable());
        for (i, (core, addr, kind)) in random_trace(8, 4000, 0xFA1).into_iter().enumerate() {
            let a = clean.access(core, addr, kind, 8, i as u64 * 3);
            let b = chaos.access(core, addr, kind, 8, i as u64 * 3);
            assert_eq!(
                (a.l1_hit, a.remote_dirty, a.lines),
                (b.l1_hit, b.remote_dirty, b.lines),
                "a recoverable fault changed function at access {i}"
            );
            assert!(b.latency >= a.latency, "recovery can only add cycles (access {i})");
        }
        for core in 0..8 {
            let mut a: Vec<_> = clean.cache(core).resident().collect();
            let mut b: Vec<_> = chaos.cache(core).resident().collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "core {core} cache state diverged under recoverable faults");
        }
        chaos.check_coherence_invariants().expect("faults must not break coherence");
        let fs = chaos.fault_stats();
        assert!(fs.drops > 0 && fs.delays > 0, "the 2%/5% rates must fire on this trace");
        assert_eq!(fs.drops, fs.retries, "every drop is recovered by exactly one retry");
        assert!(fs.recovery_cycles > 0);
        assert_eq!(fs.dead_link_hits, 0);
        assert!(chaos.fault_diagnosis().is_none(), "recoverable faults never diagnose");
        assert_eq!(chaos.stats().fault, fs);
    }

    #[test]
    fn dead_links_are_detected_with_a_precise_diagnosis() {
        // Kill every directed link: the very first cross-tile message must exhaust its retry
        // budget, pay the full detection ramp and record which link/message/cycle failed.
        let fault = FaultConfig { dead_links: u32::MAX, ..FaultConfig::zero_rate() };
        let mut m = faulted_sys(4, MemoryModel::directory_mesh(), fault);
        let mut clean = faulted_sys(4, MemoryModel::directory_mesh(), FaultConfig::none());
        // Line 0 is homed on core 0; requesting it from core 3 crosses dead links.
        let faulted = m.access(3, 0, AccessKind::Read, 8, 17);
        let baseline = clean.access(3, 0, AccessKind::Read, 8, 17);
        assert!(faulted.latency >= baseline.latency + fault.exhaustion_cycles());
        let d = m.fault_diagnosis().expect("detection must record a diagnosis");
        assert_eq!(d.from, 3);
        assert_eq!(d.to, 0);
        assert_eq!(d.cycle, 17);
        assert_eq!(d.attempts, fault.max_retries + 1);
        assert!(m.fault_stats().dead_link_hits > 0);
        // The snooping bus has no links to kill: the same config engages nothing there.
        let mut bus = faulted_sys(4, MemoryModel::SnoopBus, fault);
        bus.access(3, 0, AccessKind::Read, 8, 17);
        assert!(bus.fault_diagnosis().is_none());
        assert_eq!(bus.fault_stats(), FaultStats::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// MESI single-writer / no-dirty-sharing invariants hold under arbitrary access traces,
        /// and latency is always at least the L1 hit latency.
        #[test]
        fn coherence_invariants(
            ops in proptest::collection::vec((0usize..4, 0u64..32, 0u8..3), 1..400)
        ) {
            let mut m = MemorySystem::new(4, CacheConfig::tiny(), MemLatencies::default());
            let mut now = 0u64;
            for (core, line, kindsel) in ops {
                let kind = match kindsel {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Atomic,
                };
                let out = m.access(core, line * LINE_SIZE, kind, 8, now);
                prop_assert!(out.latency >= MemLatencies::default().l1_hit);
                now += out.latency.max(1);
                prop_assert!(m.check_coherence_invariants().is_ok());
            }
        }

        /// Whenever an access would hit without changing state, charging `times` repeats of it
        /// in closed form leaves exactly what `times` real accesses leave: the same statistics and
        /// the same recency, seen through the victims of later conflicting fills. A remote core
        /// may write one of the lines between the repeats and their closed-form charge, as when
        /// the engine replays a parked core's polls late.
        #[test]
        fn repeat_hits_match_real_accesses(
            dir in any::<bool>(),
            trace in proptest::collection::vec((0usize..3, 0u64..12, 0u8..3), 0..60),
            probe in (0usize..3, 0u64..12, 0u64..LINE_SIZE, 1u64..100, 0u8..3),
            times in 1u64..5,
            remote in any::<Option<u64>>(),
        ) {
            let model = if dir { MemoryModel::directory_mesh() } else { MemoryModel::SnoopBus };
            let mut m =
                MemorySystem::with_model(3, CacheConfig::tiny(), MemLatencies::default(), model);
            let kind_of =
                |sel: u8| [AccessKind::Read, AccessKind::Write, AccessKind::Atomic][sel as usize];
            let mut now = 0;
            for (core, line, sel) in trace {
                now += m.access(core, line * LINE_SIZE, kind_of(sel), 8, now).latency;
            }
            let (core, line, offset, bytes, sel) = probe;
            let (addr, kind) = (line * LINE_SIZE + offset, kind_of(sel));
            // One real access brings every probed line into a state the repeats keep; a read of
            // another line in the first probed set then makes that line the more recent one,
            // until the repeats are charged.
            let sets = CacheConfig::tiny().sets() as u64;
            now += m.access(core, addr, kind, bytes, now).latency;
            now += m.access(core, (line + 32 * sets) * LINE_SIZE, AccessKind::Read, 8, now).latency;
            prop_assume!(m.hit_keeps_state(core, addr, kind, bytes));
            let mut real = m.clone();
            let mut replayed = m;
            for i in 0..times {
                real.access(core, addr, kind, bytes, now + i);
            }
            // The remote write lands on one of the probed lines, after the real repeats but
            // before the closed-form charge.
            if let Some(pick) = remote {
                let other = (core + 1 + (pick % 2) as usize) % 3;
                let lines = line_range(addr, bytes);
                let target = lines.start() + pick / 2 % (lines.end() - lines.start() + 1);
                let at = now + times;
                real.access(other, target * LINE_SIZE, AccessKind::Write, 8, at);
                replayed.access(other, target * LINE_SIZE, AccessKind::Write, 8, at);
            }
            replayed.repeat_hits(core, addr, kind, bytes, times);
            prop_assert_eq!(real.stats(), replayed.stats());
            // Conflicting fills into every probed set: each evicts the least recent line, so
            // any recency the closed form got wrong shows up as a different victim.
            for (i, line) in line_range(addr, bytes).enumerate() {
                for k in 1..=2 {
                    let conflict = (line + 64 * sets * k) * LINE_SIZE;
                    let at = now + 100 + i as u64 * 10 + k;
                    real.access(core, conflict, AccessKind::Read, 8, at);
                    replayed.access(core, conflict, AccessKind::Read, 8, at);
                    prop_assert_eq!(real.stats(), replayed.stats());
                    for c in 0..3 {
                        let mut a: Vec<_> = real.cache(c).resident().collect();
                        let mut b: Vec<_> = replayed.cache(c).resident().collect();
                        a.sort_unstable();
                        b.sort_unstable();
                        prop_assert_eq!(a, b);
                    }
                }
            }
        }

        /// Snooping only the recorded holders is exact: on random traces of reads, writes and
        /// atomics, some spanning several lines, the filtered bus and the broadcast reference
        /// agree on everything observable, from 1 to 16 cores on both geometries.
        #[test]
        fn snoop_filter_matches_the_broadcast_bus(
            cores in 1usize..17,
            rocket in any::<bool>(),
            trace in proptest::collection::vec((0usize..16, 0u64..40, 0u8..3, 0u64..3), 1..300),
        ) {
            let cache = if rocket { CacheConfig::rocket_l1d() } else { CacheConfig::tiny() };
            super::tests::assert_filter_matches_broadcast(cores, cache, &trace);
        }

        /// After any trace, a core that just wrote a line can read it back as a hit.
        #[test]
        fn write_then_read_hits(
            ops in proptest::collection::vec((0usize..3, 0u64..16), 0..100),
            final_core in 0usize..3,
            final_line in 0u64..16,
        ) {
            let mut m = MemorySystem::new(3, CacheConfig::rocket_l1d(), MemLatencies::default());
            let mut now = 0u64;
            for (core, line) in ops {
                now += m.access(core, line * LINE_SIZE, AccessKind::Write, 8, now).latency;
            }
            now += m.access(final_core, final_line * LINE_SIZE, AccessKind::Write, 8, now).latency;
            let read = m.access(final_core, final_line * LINE_SIZE, AccessKind::Read, 8, now);
            prop_assert!(read.l1_hit);
        }
    }
}
