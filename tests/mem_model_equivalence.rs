//! Differential suite pinning the two memory-system models to each other.
//!
//! The directory/NoC model exists to make *latencies* honest on big meshes; its *functional*
//! behaviour — which accesses hit, which find a dirty remote copy, which MESI states every
//! cache ends up in — must be exactly the snooping baseline's, or the ≤8-core figure
//! reproductions would no longer vouch for the 64-core story. These tests drive **identical
//! access traces** through both models for 2–8 cores and assert:
//!
//! * identical per-access observed values (`l1_hit`, `remote_dirty`, `lines`);
//! * identical resident `(line, MESI state)` sets in every core's cache after every step;
//! * `check_coherence_invariants` on both — which additionally proves the directory stays
//!   *precise* (it mirrors actual cache residency exactly); the snooping bus keeps the same
//!   record as its snoop filter;
//! * identical per-core cache statistics (hits, misses, upgrades, evictions, writebacks and
//!   snoop invalidations) at the end of the trace, while each model reports only its own
//!   pricing counters (no NoC messages or invalidation fan-out on the bus, no bus
//!   transactions on the mesh).
//!
//! Latencies are deliberately **not** compared: distance-dependent NoC costs are the whole
//! point of the second model.
//!
//! The contended mesh (`MemoryModel::directory_mesh_contended()`) rides the same traces as a
//! third participant: link bandwidth and finite buffers may only change *when* things happen,
//! never *what* happens, so its functional outcomes and resident states must match the other
//! two models step for step, and its per-access latency must never beat the ideal mesh's.
//!
//! A fourth participant pins the fault layer's zero-rate exactness: the contended mesh with a
//! fully-engaged but never-firing `FaultConfig::zero_rate()` schedule must be **bit-identical**
//! to the third — every access outcome *including latency*, every resident state, and the final
//! statistics. The fault layer costs nothing until a fault actually fires.

use tis::mem::{
    AccessKind, CacheConfig, FaultConfig, MemLatencies, MemoryModel, MemorySystem, LINE_SIZE,
};
use tis::sim::SimRng;

/// Builds the snooping reference, the ideal-mesh candidate, the contended-mesh candidate and
/// the zero-rate-faulted contended mesh with identical geometry.
fn quartet(
    cores: usize,
    cache: CacheConfig,
) -> (MemorySystem, MemorySystem, MemorySystem, MemorySystem) {
    let lat = MemLatencies::default();
    let snoop = MemorySystem::with_model(cores, cache, lat, MemoryModel::SnoopBus);
    let dir = MemorySystem::with_model(cores, cache, lat, MemoryModel::directory_mesh());
    let contended =
        MemorySystem::with_model(cores, cache, lat, MemoryModel::directory_mesh_contended());
    let zero_faulted = MemorySystem::with_model_and_faults(
        cores,
        cache,
        lat,
        MemoryModel::directory_mesh_contended(),
        FaultConfig::zero_rate(),
    );
    (snoop, dir, contended, zero_faulted)
}

fn kind_of(sel: u64) -> AccessKind {
    match sel % 3 {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        _ => AccessKind::Atomic,
    }
}

/// Asserts both systems' caches hold identical `(line, state)` sets on every core.
fn assert_same_resident_states(snoop: &MemorySystem, dir: &MemorySystem, step: usize) {
    for core in 0..snoop.cores() {
        let mut a: Vec<_> = snoop.cache(core).resident().collect();
        let mut b: Vec<_> = dir.cache(core).resident().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(
            a, b,
            "core {core} cache state diverged between the models after step {step}"
        );
    }
}

/// Drives one identical trace through both models, checking equivalence at every step.
/// Each model advances its own clock by its own latency, so timing feedback (bus queueing in
/// the snoop model) is exercised rather than bypassed.
fn drive_trace(cores: usize, cache: CacheConfig, trace: &[(usize, u64, AccessKind)]) {
    let (mut snoop, mut dir, mut contended, mut zero_faulted) = quartet(cores, cache);
    let (mut now_snoop, mut now_dir, mut now_contended) = (0u64, 0u64, 0u64);
    for (step, &(core, line, kind)) in trace.iter().enumerate() {
        let addr = line * LINE_SIZE;
        let a = snoop.access(core, addr, kind, 8, now_snoop);
        let b = dir.access(core, addr, kind, 8, now_dir);
        let c = contended.access(core, addr, kind, 8, now_contended);
        // The zero-rate faulted mesh shares the contended clock: it must be bit-identical.
        let z = zero_faulted.access(core, addr, kind, 8, now_contended);
        assert_eq!(
            c, z,
            "step {step} (core {core}, line {line:#x}, {kind:?}): the zero-rate fault layer \
             changed the outcome"
        );
        now_snoop += a.latency.max(1);
        now_dir += b.latency.max(1);
        now_contended += c.latency.max(1);
        assert_eq!(
            (a.l1_hit, a.remote_dirty, a.lines),
            (b.l1_hit, b.remote_dirty, b.lines),
            "step {step} (core {core}, line {line:#x}, {kind:?}) observed different outcomes"
        );
        assert_eq!(
            (b.l1_hit, b.remote_dirty, b.lines),
            (c.l1_hit, c.remote_dirty, c.lines),
            "step {step} (core {core}, line {line:#x}, {kind:?}): contention changed function"
        );
        assert!(
            c.latency >= b.latency,
            "step {step}: the contended mesh ({}) beat the ideal mesh ({})",
            c.latency,
            b.latency
        );
        assert_same_resident_states(&snoop, &dir, step);
        assert_same_resident_states(&dir, &contended, step);
        assert_same_resident_states(&contended, &zero_faulted, step);
        snoop.check_coherence_invariants().expect("snoop invariants");
        dir.check_coherence_invariants().expect("directory invariants");
        contended.check_coherence_invariants().expect("contended-mesh invariants");
        zero_faulted.check_coherence_invariants().expect("zero-rate-faulted mesh invariants");
    }
    // Coherence *traffic* must agree too: all models moved the same lines through memory
    // the same number of times (fetches, writebacks and dirty bounces are protocol-level
    // facts, not interconnect choices).
    let (sa, sb, sc) = (snoop.stats(), dir.stats(), contended.stats());
    assert_eq!(sa.dirty_bounces, sb.dirty_bounces, "dirty-bounce counts diverged");
    assert_eq!(sa.dram_fetches, sb.dram_fetches, "DRAM fetch counts diverged");
    assert_eq!(sa.dram_writebacks, sb.dram_writebacks, "DRAM writeback counts diverged");
    assert_eq!(sa.accesses, sb.accesses);
    assert_eq!(sb.dirty_bounces, sc.dirty_bounces, "contention changed dirty bounces");
    assert_eq!(sb.dram_fetches, sc.dram_fetches, "contention changed DRAM fetches");
    assert_eq!(sb.dram_writebacks, sc.dram_writebacks, "contention changed writebacks");
    assert_eq!(sb.invalidations, sc.invalidations, "contention changed invalidation fan-out");
    // Every cache saw the same protocol events: hits, misses, upgrades, evictions, writebacks
    // and snoop invalidations are per-core facts of the protocol, not of the interconnect.
    assert_eq!(sa.per_core, sb.per_core, "per-core cache statistics diverged");
    assert_eq!(sb.per_core, sc.per_core, "contention changed per-core cache statistics");
    // Each model keeps only its own price list's counters: the bus sends no NoC message and
    // fans out no point-to-point invalidation, the mesh has no bus.
    assert_eq!((sa.invalidations, sa.noc_messages), (0, 0), "the bus counted mesh traffic");
    assert_eq!(sb.bus_transactions, 0, "the ideal mesh counted bus transactions");
    assert_eq!(sc.bus_transactions, 0, "the contended mesh counted bus transactions");
    // The zero-rate fault layer is *statistically* invisible too: every counter — including
    // the fault counters themselves — matches the fault-free contended mesh exactly.
    assert_eq!(sc, zero_faulted.stats(), "zero-rate fault stats diverged from fault-free");
    assert!(zero_faulted.fault_diagnosis().is_none(), "zero-rate schedules never diagnose");
}

#[test]
fn randomized_traces_are_equivalent_for_two_to_eight_cores() {
    // Deterministic heavy traces: per core count, 4000 accesses over a 48-line working set —
    // enough collisions for every protocol interaction (cold fills, upgrades, recalls,
    // downgrades, ping-pong) to appear many times.
    for cores in 2..=8 {
        let mut rng = SimRng::new(0xD1FF_0000 + cores as u64);
        let trace: Vec<(usize, u64, AccessKind)> = (0..4000)
            .map(|_| {
                (
                    (rng.next_u64() % cores as u64) as usize,
                    rng.next_u64() % 48,
                    kind_of(rng.next_u64()),
                )
            })
            .collect();
        drive_trace(cores, CacheConfig::rocket_l1d(), &trace);
    }
}

#[test]
fn eviction_heavy_traces_stay_equivalent_on_a_tiny_cache() {
    // The tiny 2-set/2-way cache forces constant LRU evictions, exercising the directory's
    // Put-on-evict bookkeeping — the piece that keeps sharer bitsets precise.
    for cores in [2usize, 3, 5, 8] {
        let mut rng = SimRng::new(0xE71C_7000 + cores as u64);
        let trace: Vec<(usize, u64, AccessKind)> = (0..3000)
            .map(|_| {
                (
                    (rng.next_u64() % cores as u64) as usize,
                    rng.next_u64() % 24,
                    kind_of(rng.next_u64()),
                )
            })
            .collect();
        drive_trace(cores, CacheConfig::tiny(), &trace);
    }
}

#[test]
fn directed_sharing_patterns_are_equivalent() {
    // Hand-built scenarios hitting each protocol edge by name rather than by chance.
    let scenarios: [&[(usize, u64, AccessKind)]; 5] = [
        // Cold read then silent E->M upgrade, observed by a second core.
        &[(0, 1, AccessKind::Read), (0, 1, AccessKind::Write), (1, 1, AccessKind::Read)],
        // All cores share, then one upgrades (invalidation fan-out), then all re-read.
        &[
            (0, 2, AccessKind::Read),
            (1, 2, AccessKind::Read),
            (2, 2, AccessKind::Read),
            (3, 2, AccessKind::Read),
            (2, 2, AccessKind::Write),
            (0, 2, AccessKind::Read),
            (1, 2, AccessKind::Read),
            (3, 2, AccessKind::Read),
        ],
        // Dirty ping-pong between two cores (the Section V-B bouncing pattern).
        &[
            (0, 3, AccessKind::Atomic),
            (1, 3, AccessKind::Atomic),
            (0, 3, AccessKind::Atomic),
            (1, 3, AccessKind::Atomic),
        ],
        // Writer drained by a reader (M -> downgrade), then a third core writes (recall).
        &[
            (0, 4, AccessKind::Write),
            (1, 4, AccessKind::Read),
            (2, 4, AccessKind::Write),
            (0, 4, AccessKind::Read),
        ],
        // Upgrade race shape: two sharers, one upgrades, the other immediately re-writes.
        &[
            (0, 5, AccessKind::Read),
            (1, 5, AccessKind::Read),
            (0, 5, AccessKind::Write),
            (1, 5, AccessKind::Write),
        ],
    ];
    for trace in scenarios {
        drive_trace(4, CacheConfig::rocket_l1d(), trace);
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Arbitrary traces over arbitrary machine sizes (2–8 cores) observe identical values
        /// through both models, with both models' invariants intact at every step.
        #[test]
        fn observed_values_match_between_models(
            cores in 2usize..=8,
            ops in proptest::collection::vec((0usize..8, 0u64..32, 0u8..3), 1..300),
        ) {
            let trace: Vec<(usize, u64, AccessKind)> = ops
                .into_iter()
                .map(|(core, line, k)| (core % cores, line, super::kind_of(k as u64)))
                .collect();
            drive_trace(cores, CacheConfig::tiny(), &trace);
        }
    }
}
