//! Criterion microbenchmarks of the core data paths: the Picos dependence tracker, the packet
//! codec, the RoCC instruction codec, the Picos fabric over each CPU–accelerator link, the
//! MESI memory system and the preflight analysis of the Fig. 9 catalog — plus a **tracker regression
//! guard** that measures the current tracker against a faithful copy of the seed-era
//! implementation, so the hot-path speedup is measured on every run, not asserted once in a
//! commit message.
//!
//! These measure the *simulator's* throughput (host-side), which is what bounds how large an
//! experiment the harness can run; the simulated latencies are covered by the figure benches.
//! A second guard reports `tasks_per_host_second` through the full streaming engine (a
//! bounded-window [`TaskSource`] chain on Phentos with records off), so the end-to-end cost of
//! simulating one task is a number every CI run prints.
//! The tracker chains drive both implementations identically and in steady state (persistent
//! tracker, reused descriptor and wake buffers) — the same shape the Picos device model uses —
//! so the ratio isolates the implementation difference.
//!
//! Set `TIS_BENCH_STRICT=1` to turn a guard shortfall into a non-zero exit.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use std::time::Instant;
use tis_bench::{Harness, Platform};
use tis_core::rocc::{RoccInstruction, TaskSchedOp};
use tis_core::TisFabric;
use tis_machine::fabric::{FabricOutcome, SchedulerFabric};
use tis_mem::{AccessKind, CacheConfig, MemLatencies, MemoryModel, MemorySystem};
use tis_nanos::AxiFabric;
use tis_picos::{
    decode_descriptor, encode_descriptor, encode_nonzero_prefix, DependenceTracker, PicosId, SubmittedTask,
    TrackerConfig,
};
use tis_taskmodel::{
    Dependence, Payload, ProgramOp, SourcePoll, TaskId, TaskSource, TaskSpec,
};

/// Tasks per measured chain (one insert + one retire each).
const CHAIN: u64 = 200;

/// Drives one 200-task dependence chain through the current tracker: every task `inout`s the
/// same address, so each insert matches against the previous task and each retire wakes the
/// next — the worst-case lock-step pattern of the Figure 7 Task-Chain microbenchmark.
fn drive_chain(t: &mut DependenceTracker, task: &mut SubmittedTask, woken: &mut Vec<PicosId>) -> usize {
    let mut prev = None;
    for i in 0..CHAIN {
        task.sw_id = i;
        let (id, _) = t.insert(task).unwrap();
        if let Some(p) = prev {
            t.retire_into(p, woken).unwrap();
        }
        prev = Some(id);
    }
    if let Some(p) = prev {
        t.retire_into(p, woken).unwrap();
    }
    t.in_flight()
}

/// The seed-era tracker, reproduced verbatim in miniature: `std::collections::HashMap` with the
/// default (SipHash) hasher, `Vec` storage for every list, linear `contains` scans for
/// predecessor de-duplication, per-insert allocation of the working sets, and an allocating
/// `retire`. This is what `picos_tracker_insert_retire_chain` measured before the hot-path
/// rework; keeping it here makes the speedup a number this bench reports, not a claim.
mod seed {
    use std::collections::HashMap;
    use tis_picos::{PicosId, SubmittedTask};

    #[derive(Clone)]
    struct TaskEntry {
        sw_id: u64,
        serial: u64,
        unresolved: usize,
        successors: Vec<PicosId>,
        deps: Vec<(u64, tis_taskmodel::Direction)>,
    }

    #[derive(Clone, Default)]
    struct AddrEntry {
        last_writer: Option<(PicosId, u64)>,
        readers: Vec<(PicosId, u64)>,
    }

    pub struct Tracker {
        entries: Vec<Option<TaskEntry>>,
        free_list: Vec<u32>,
        addr_table: HashMap<u64, AddrEntry>,
        next_serial: u64,
        in_flight: usize,
    }

    impl Tracker {
        pub fn new(task_memory_entries: usize) -> Self {
            Tracker {
                entries: vec![None; task_memory_entries],
                free_list: (0..task_memory_entries as u32).rev().collect(),
                addr_table: HashMap::new(),
                next_serial: 0,
                in_flight: 0,
            }
        }

        pub fn in_flight(&self) -> usize {
            self.in_flight
        }

        fn prune(entries: &[Option<TaskEntry>], entry: &mut AddrEntry) {
            let alive = |id: PicosId, serial: u64| {
                entries
                    .get(id.0 as usize)
                    .and_then(|e| e.as_ref())
                    .map(|e| e.serial == serial)
                    .unwrap_or(false)
            };
            if let Some((id, serial)) = entry.last_writer {
                if !alive(id, serial) {
                    entry.last_writer = None;
                }
            }
            entry.readers.retain(|&(id, serial)| alive(id, serial));
        }

        pub fn insert(&mut self, task: &SubmittedTask) -> (PicosId, bool) {
            let mut seen = Vec::new();
            for d in &task.deps {
                if !self.addr_table.contains_key(&d.addr) && !seen.contains(&d.addr) {
                    seen.push(d.addr);
                }
            }
            let slot = self.free_list.pop().expect("seed tracker driven within capacity");
            let id = PicosId(slot);
            let serial = self.next_serial;
            self.next_serial += 1;
            let mut unresolved_from: Vec<PicosId> = Vec::new();
            for d in &task.deps {
                let entries = &self.entries;
                let entry = self.addr_table.entry(d.addr).or_default();
                Self::prune(entries, entry);
                if d.dir.reads() {
                    if let Some((w, wserial)) = entry.last_writer {
                        if entries
                            .get(w.0 as usize)
                            .and_then(|e| e.as_ref())
                            .map(|e| e.serial == wserial)
                            .unwrap_or(false)
                            && !unresolved_from.contains(&w)
                        {
                            unresolved_from.push(w);
                        }
                    }
                }
                if d.dir.writes() {
                    if let Some((w, _)) = entry.last_writer {
                        if !unresolved_from.contains(&w) {
                            unresolved_from.push(w);
                        }
                    }
                    for &(r, _) in &entry.readers {
                        if r != id && !unresolved_from.contains(&r) {
                            unresolved_from.push(r);
                        }
                    }
                }
                if d.dir.writes() {
                    entry.last_writer = Some((id, serial));
                    entry.readers.clear();
                    if d.dir.reads() {
                        entry.readers.push((id, serial));
                    }
                } else {
                    entry.readers.push((id, serial));
                }
            }
            let unresolved = unresolved_from.len();
            for pred in &unresolved_from {
                self.entries[pred.0 as usize]
                    .as_mut()
                    .expect("predecessor in flight")
                    .successors
                    .push(id);
            }
            self.entries[slot as usize] = Some(TaskEntry {
                sw_id: task.sw_id,
                serial,
                unresolved,
                successors: Vec::new(),
                deps: task.deps.iter().map(|d| (d.addr, d.dir)).collect(),
            });
            self.in_flight += 1;
            (id, unresolved == 0)
        }

        pub fn retire(&mut self, id: PicosId) -> Vec<PicosId> {
            let slot = id.0 as usize;
            let entry = self.entries[slot].take().expect("retire of an in-flight task");
            self.in_flight -= 1;
            self.free_list.push(id.0);
            for (addr, _) in &entry.deps {
                if let Some(a) = self.addr_table.get_mut(addr) {
                    if matches!(a.last_writer, Some((w, s)) if w == id && s == entry.serial) {
                        a.last_writer = None;
                    }
                    a.readers.retain(|&(r, s)| !(r == id && s == entry.serial));
                    if a.last_writer.is_none() && a.readers.is_empty() {
                        self.addr_table.remove(addr);
                    }
                }
            }
            let mut newly_ready = Vec::new();
            for succ in entry.successors {
                if let Some(s) = self.entries[succ.0 as usize].as_mut() {
                    s.unresolved -= 1;
                    if s.unresolved == 0 {
                        newly_ready.push(succ);
                    }
                }
            }
            let _ = entry.sw_id;
            newly_ready
        }
    }
}

/// The same 200-task chain through the seed-era implementation, driven identically.
fn drive_chain_seed(t: &mut seed::Tracker, task: &mut SubmittedTask) -> usize {
    let mut prev = None;
    for i in 0..CHAIN {
        task.sw_id = i;
        let (id, _) = t.insert(task);
        if let Some(p) = prev {
            black_box(t.retire(p));
        }
        prev = Some(id);
    }
    if let Some(p) = prev {
        black_box(t.retire(p));
    }
    t.in_flight()
}

fn bench_tracker(c: &mut Criterion) {
    c.bench_function("picos_tracker_insert_retire_chain", |b| {
        let mut t = DependenceTracker::new(TrackerConfig::default());
        let mut task = SubmittedTask::new(0, vec![Dependence::read_write(0x1000)]);
        let mut woken = Vec::new();
        b.iter(|| black_box(drive_chain(&mut t, &mut task, &mut woken)))
    });
    c.bench_function("picos_tracker_chain_seed_impl", |b| {
        let mut t = seed::Tracker::new(TrackerConfig::default().task_memory_entries);
        let mut task = SubmittedTask::new(0, vec![Dependence::read_write(0x1000)]);
        b.iter(|| black_box(drive_chain_seed(&mut t, &mut task)))
    });
}

fn bench_packet_codec(c: &mut Criterion) {
    let task = SubmittedTask::new(
        0x1234_5678_9ABC_DEF0,
        (0..15u64).map(|i| Dependence::read_write(0x8000_0000 + i * 64)).collect(),
    );
    c.bench_function("picos_descriptor_roundtrip_15deps", |b| {
        b.iter(|| {
            let packets = encode_descriptor(black_box(&task));
            black_box(decode_descriptor(&packets).unwrap())
        })
    });
}

fn bench_rocc_codec(c: &mut Criterion) {
    c.bench_function("rocc_encode_decode_all_ops", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for op in TaskSchedOp::ALL {
                let w = RoccInstruction::for_op(op, 5, 6, 7).encode();
                acc ^= RoccInstruction::decode(w).encode();
            }
            black_box(acc)
        })
    });
}

/// Runs 1,000 tasks, each `inout` on one address, through a one-core fabric: submit, request,
/// fetch (polling until the task is visible), retire. Returns the simulated cycles taken.
fn drive_fabric(f: &mut impl SchedulerFabric, packets: &[u32]) -> u64 {
    let mut now = 0;
    for _ in 0..1000 {
        loop {
            let (latency, out) = f.submission_request(0, packets.len() as u32, now);
            now += latency;
            if out.is_success() {
                break;
            }
        }
        for chunk in packets.chunks(3) {
            now += f.submit_packets(0, chunk, now).0;
        }
        now += f.ready_task_request(0, now).0;
        loop {
            let (latency, out) = f.fetch_sw_id(0, now);
            now += latency;
            if out.is_success() {
                break;
            }
        }
        let (latency, out) = f.fetch_picos_id(0, now);
        let FabricOutcome::Success(picos_id) = out else { unreachable!("armed by the SW ID fetch") };
        now += latency;
        now += f.retire_task(0, picos_id, now);
    }
    now
}

/// The same task loop over each link's price list of the one Picos fabric.
fn bench_fabric(c: &mut Criterion) {
    let packets = encode_nonzero_prefix(&SubmittedTask::new(7, vec![Dependence::read_write(0x1000)]));
    c.bench_function("picos_fabric_1000_tasks_rocc", |b| {
        b.iter(|| black_box(drive_fabric(&mut TisFabric::with_cores(1), &packets)))
    });
    c.bench_function("picos_fabric_1000_tasks_axi", |b| {
        b.iter(|| black_box(drive_fabric(&mut AxiFabric::with_cores(1), &packets)))
    });
}

/// One line bounced between four cores: every access after the first is a dirty recall, priced
/// by the bus and by the mesh through the same miss path.
fn bench_mesi(c: &mut Criterion) {
    let models = [
        ("mesi_ping_pong_1000_accesses", MemoryModel::SnoopBus),
        ("mesi_ping_pong_1000_accesses_dir_mesh", MemoryModel::directory_mesh()),
    ];
    for (name, model) in models {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut m = MemorySystem::with_model(
                    4,
                    CacheConfig::rocket_l1d(),
                    MemLatencies::default(),
                    model,
                );
                let mut total = 0u64;
                for i in 0..1000u64 {
                    let core = (i % 4) as usize;
                    total += m.access(core, 0x9000, AccessKind::Atomic, 8, i * 10).latency;
                }
                black_box(total)
            })
        });
    }
}

/// The preflight over the whole Fig. 9 catalog: one `analyze_program` per program, the
/// set-up cost every Fig. 9 run and every sweep cell pays before it simulates.
fn bench_preflight(c: &mut Criterion) {
    let catalog = tis_workloads::paper_catalog();
    c.bench_function("preflight_fig09_catalog", |b| {
        b.iter(|| {
            for w in &catalog {
                black_box(tis_analyze::analyze_program(&w.program).expect("catalog graphs are sound"));
            }
        })
    });
}

/// Median nanoseconds per call of `f` over `samples` batches of `batch` calls each.
fn measure_median_ns(mut f: impl FnMut(), batch: u32, samples: usize) -> f64 {
    // Warm-up.
    for _ in 0..batch {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[samples / 2]
}

/// The regression guard: measure seed vs current on the identical steady-state chain and
/// report the speedup. The floor is deliberately below the locally observed ratio so the guard
/// trips on real regressions (e.g. someone reintroducing a linear scan), not on CI noise.
fn tracker_regression_guard() {
    const FLOOR: f64 = 2.0;
    let mut cur = DependenceTracker::new(TrackerConfig::default());
    let mut cur_task = SubmittedTask::new(0, vec![Dependence::read_write(0x1000)]);
    let mut woken = Vec::new();
    let current = measure_median_ns(
        || {
            black_box(drive_chain(&mut cur, &mut cur_task, &mut woken));
        },
        64,
        15,
    );
    let mut old = seed::Tracker::new(TrackerConfig::default().task_memory_entries);
    let mut old_task = SubmittedTask::new(0, vec![Dependence::read_write(0x1000)]);
    let seed_ns = measure_median_ns(
        || {
            black_box(drive_chain_seed(&mut old, &mut old_task));
        },
        64,
        15,
    );
    let speedup = seed_ns / current;
    let verdict = if speedup >= FLOOR { "ok" } else { "REGRESSION" };
    println!();
    println!(
        "tracker regression guard: seed impl {:.0} ns/chain, current {:.0} ns/chain, speedup {:.2}x (floor {:.1}x) ... {}",
        seed_ns, current, speedup, FLOOR, verdict
    );
    if speedup < FLOOR && std::env::var_os("TIS_BENCH_STRICT").is_some() {
        std::process::exit(1);
    }
}

/// A minimal dependence-chain [`TaskSource`], implemented here from scratch rather than via
/// `tis_exp::StreamingSynth`: the bench crate sits below `tis-exp`, and a from-first-principles
/// implementation doubles as proof that the trait is usable outside the workspace's own
/// generators. Task `i` writes its slot and reads slot `i-1`; only `window` descriptors are
/// ever resident.
#[derive(Debug)]
struct ChainSource {
    tasks: u64,
    window: usize,
    next_id: u64,
    wait_emitted: bool,
    resident: std::collections::BTreeMap<u64, TaskSpec>,
    peak_resident: usize,
}

impl ChainSource {
    fn new(tasks: u64, window: usize) -> Self {
        ChainSource {
            tasks,
            window,
            next_id: 0,
            wait_emitted: false,
            resident: std::collections::BTreeMap::new(),
            peak_resident: 0,
        }
    }
}

impl TaskSource for ChainSource {
    fn name(&self) -> &str {
        "host-throughput-chain"
    }

    fn poll(&mut self) -> SourcePoll {
        if self.next_id >= self.tasks {
            if self.wait_emitted {
                return SourcePoll::Done;
            }
            self.wait_emitted = true;
            return SourcePoll::Op(ProgramOp::TaskWait);
        }
        if self.resident.len() >= self.window {
            return SourcePoll::Blocked;
        }
        let i = self.next_id;
        let addr = |id: u64| 0xC000_0000 + id * 64;
        let mut deps = vec![Dependence::write(addr(i))];
        if i > 0 {
            deps.push(Dependence::read(addr(i - 1)));
        }
        let spec = TaskSpec::new(TaskId(i), Payload::compute(500), deps);
        self.resident.insert(i, spec.clone());
        self.peak_resident = self.peak_resident.max(self.resident.len());
        self.next_id += 1;
        SourcePoll::Op(ProgramOp::Spawn(spec))
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        &self.resident[&sw_id]
    }

    fn retire(&mut self, sw_id: u64) {
        self.resident.remove(&sw_id);
    }

    fn max_deps(&self) -> usize {
        2
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn peak_resident(&self) -> usize {
        self.peak_resident
    }
}

/// The host-throughput guard for the streaming engine: simulated **tasks per host second**
/// through the full machine (Phentos + TIS fabric, records off), the figure that bounds how
/// large a streamed cell the harness can afford. The floor is far below the locally observed
/// rate so the guard trips on an algorithmic regression (e.g. an O(tasks) scan sneaking back
/// into the per-step path), not on a slow CI host.
fn streaming_host_throughput_guard() {
    const TASKS: u64 = 200_000;
    const WINDOW: usize = 1_024;
    const FLOOR_TASKS_PER_SEC: f64 = 50_000.0;
    let harness = Harness::paper_prototype();
    // Warm-up run (page-in, branch training), then the measured run.
    for _ in 0..1 {
        let r = harness
            .run_source(Platform::Phentos, Box::new(ChainSource::new(TASKS, WINDOW)), false)
            .expect("streamed warm-up chain must complete");
        assert_eq!(r.tasks_retired, TASKS);
    }
    let t0 = Instant::now();
    let report = harness
        .run_source(Platform::Phentos, Box::new(ChainSource::new(TASKS, WINDOW)), false)
        .expect("streamed chain must complete");
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(report.tasks_retired, TASKS);
    assert!(
        report.peak_resident_tasks <= WINDOW as u64,
        "peak resident descriptors {} exceeded the {}-task window",
        report.peak_resident_tasks,
        WINDOW
    );
    let tasks_per_host_second = TASKS as f64 / elapsed;
    let verdict = if tasks_per_host_second >= FLOOR_TASKS_PER_SEC { "ok" } else { "REGRESSION" };
    println!(
        "tasks_per_host_second: {:.0} ({} tasks in {:.3} s, window {}, peak resident {}, floor {:.0}) ... {}",
        tasks_per_host_second,
        TASKS,
        elapsed,
        WINDOW,
        report.peak_resident_tasks,
        FLOOR_TASKS_PER_SEC,
        verdict
    );
    if tasks_per_host_second < FLOOR_TASKS_PER_SEC && std::env::var_os("TIS_BENCH_STRICT").is_some()
    {
        std::process::exit(1);
    }
}

criterion_group!(
    benches,
    bench_tracker,
    bench_packet_codec,
    bench_rocc_codec,
    bench_fabric,
    bench_mesi,
    bench_preflight
);

fn main() {
    benches();
    tracker_regression_guard();
    streaming_host_throughput_guard();
}
