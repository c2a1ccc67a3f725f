//! The differential oracle for the streamed exports.
//!
//! The Perfetto and metrics documents are streamed through `JsonWriter` without building a
//! value tree. The tree builders they replaced stay here (the metrics one beside its private
//! fields, as `MetricsRegistry::reference_json`) as the reference: property tests render
//! both ways on generated spans, samples and memory events and require identical bytes.

use crate::events::{MemAccessKind, MemEvent, MetricsSample};
use crate::metrics::MetricsRegistry;
use crate::perfetto;
use crate::span::TaskSpan;
use proptest::prelude::*;
use tis_sim::json::Json;
use tis_sim::SimRng;

/// Process id used for all tracks of a single-tenant run.
const PID: u64 = 0;

/// The tree-building [`perfetto::trace_json`].
pub(crate) fn trace_json(
    label: &str,
    cores: usize,
    spans: &[TaskSpan],
    samples: &[MetricsSample],
) -> Json {
    let mut events: Vec<Json> = Vec::new();
    events.push(meta_event("process_name", PID, None, label));
    for core in 0..cores {
        events.push(meta_event(
            "thread_name",
            PID,
            Some(core as u64),
            &format!("core {core}"),
        ));
        events.push(Json::obj([
            ("name", Json::Str("thread_sort_index".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::UInt(PID)),
            ("tid", Json::UInt(core as u64)),
            ("args", Json::obj([("sort_index", Json::UInt(core as u64))])),
        ]));
    }
    for span in spans {
        let (Some(core), Some(dispatch), Some(start), Some(end), Some(retire)) = (
            span.core,
            span.dispatch,
            span.exec_start,
            span.exec_end,
            span.retire,
        ) else {
            continue; // incomplete span: nothing executed, nothing to draw
        };
        let tid = core as u64;
        // Fetch/meta-read overhead between the work fetch and the body.
        events.push(slice(
            "fetch",
            "sched",
            tid,
            dispatch,
            start - dispatch,
            span.task,
        ));
        // The task body, with the full lifecycle in args for the selection panel.
        events.push(Json::obj([
            ("name", Json::Str(format!("task {}", span.task))),
            ("cat", Json::Str("task".to_string())),
            ("ph", Json::Str("X".to_string())),
            ("ts", Json::UInt(start)),
            ("dur", Json::UInt(end - start)),
            ("pid", Json::UInt(PID)),
            ("tid", Json::UInt(tid)),
            (
                "args",
                Json::obj([
                    ("task", Json::UInt(span.task)),
                    ("submit", opt_cycle(span.submit)),
                    ("ready", opt_cycle(span.ready)),
                    ("dispatch", Json::UInt(dispatch)),
                    ("retire", Json::UInt(retire)),
                    ("payload_mem_cycles", Json::UInt(span.payload_mem_cycles)),
                ]),
            ),
        ]));
        // Retirement notification overhead after the body.
        events.push(slice("retire", "sched", tid, end, retire - end, span.task));
    }
    for s in samples {
        events.push(counter(
            "tracker in-flight",
            s.cycle,
            "tasks",
            s.tracker_in_flight,
        ));
        events.push(counter("ready queue", s.cycle, "tasks", s.ready_queue_len));
        events.push(counter("noc flits (cum)", s.cycle, "flits", s.noc_flits));
        events.push(counter(
            "noc link wait (cum)",
            s.cycle,
            "cycles",
            s.noc_link_wait_cycles,
        ));
        events.push(counter(
            "mem stall (cum)",
            s.cycle,
            "cycles",
            s.mem_stall_cycles,
        ));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "otherData",
            Json::obj([("timeUnit", Json::Str("simulated cycles".to_string()))]),
        ),
    ])
}

/// The tree-building [`perfetto::trace_json_tenants`].
pub(crate) fn trace_json_tenants(
    label: &str,
    cores: usize,
    spans: &[TaskSpan],
    samples: &[MetricsSample],
    names: &[String],
    assignment: &[u32],
) -> Json {
    let machine_pid = names.len() as u64;
    let mut events: Vec<Json> = Vec::new();
    for (t, name) in names.iter().enumerate() {
        let pid = t as u64;
        events.push(meta_event(
            "process_name",
            pid,
            None,
            &format!("{label} / tenant {t}: {name}"),
        ));
        events.push(Json::obj([
            ("name", Json::Str("process_sort_index".to_string())),
            ("ph", Json::Str("M".to_string())),
            ("pid", Json::UInt(pid)),
            ("args", Json::obj([("sort_index", Json::UInt(pid))])),
        ]));
        for core in 0..cores {
            events.push(meta_event(
                "thread_name",
                pid,
                Some(core as u64),
                &format!("core {core}"),
            ));
        }
    }
    events.push(meta_event(
        "process_name",
        machine_pid,
        None,
        &format!("{label} / machine"),
    ));
    for span in spans {
        let (Some(core), Some(dispatch), Some(start), Some(end), Some(retire)) = (
            span.core,
            span.dispatch,
            span.exec_start,
            span.exec_end,
            span.retire,
        ) else {
            continue;
        };
        let Some(&tenant) = assignment.get(span.task as usize) else {
            continue; // task not in the tenant assignment: nothing to attribute it to
        };
        let pid = tenant as u64;
        let tid = core as u64;
        events.push(slice_on(
            pid,
            "fetch",
            "sched",
            tid,
            dispatch,
            start - dispatch,
            span.task,
        ));
        events.push(Json::obj([
            ("name", Json::Str(format!("task {}", span.task))),
            ("cat", Json::Str("task".to_string())),
            ("ph", Json::Str("X".to_string())),
            ("ts", Json::UInt(start)),
            ("dur", Json::UInt(end - start)),
            ("pid", Json::UInt(pid)),
            ("tid", Json::UInt(tid)),
            (
                "args",
                Json::obj([
                    ("task", Json::UInt(span.task)),
                    ("tenant", Json::UInt(pid)),
                    ("submit", opt_cycle(span.submit)),
                    ("ready", opt_cycle(span.ready)),
                    ("dispatch", Json::UInt(dispatch)),
                    ("retire", Json::UInt(retire)),
                    ("payload_mem_cycles", Json::UInt(span.payload_mem_cycles)),
                ]),
            ),
        ]));
        events.push(slice_on(
            pid,
            "retire",
            "sched",
            tid,
            end,
            retire - end,
            span.task,
        ));
    }
    for s in samples {
        events.push(counter_on(
            machine_pid,
            "tracker in-flight",
            s.cycle,
            "tasks",
            s.tracker_in_flight,
        ));
        events.push(counter_on(
            machine_pid,
            "ready queue",
            s.cycle,
            "tasks",
            s.ready_queue_len,
        ));
        events.push(counter_on(
            machine_pid,
            "noc flits (cum)",
            s.cycle,
            "flits",
            s.noc_flits,
        ));
        events.push(counter_on(
            machine_pid,
            "noc link wait (cum)",
            s.cycle,
            "cycles",
            s.noc_link_wait_cycles,
        ));
        events.push(counter_on(
            machine_pid,
            "mem stall (cum)",
            s.cycle,
            "cycles",
            s.mem_stall_cycles,
        ));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
        (
            "otherData",
            Json::obj([("timeUnit", Json::Str("simulated cycles".to_string()))]),
        ),
    ])
}

fn meta_event(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), Json::UInt(pid)),
    ];
    if let Some(t) = tid {
        pairs.push(("tid".to_string(), Json::UInt(t)));
    }
    pairs.push((
        "args".to_string(),
        Json::obj([("name", Json::Str(value.to_string()))]),
    ));
    Json::Obj(pairs)
}

fn opt_cycle(c: Option<u64>) -> Json {
    match c {
        Some(v) => Json::UInt(v),
        None => Json::Null,
    }
}

fn slice(name: &str, cat: &str, tid: u64, ts: u64, dur: u64, task: u64) -> Json {
    slice_on(PID, name, cat, tid, ts, dur, task)
}

fn slice_on(pid: u64, name: &str, cat: &str, tid: u64, ts: u64, dur: u64, task: u64) -> Json {
    Json::obj([
        ("name", Json::Str(format!("{name} {task}"))),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("X".to_string())),
        ("ts", Json::UInt(ts)),
        ("dur", Json::UInt(dur)),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("args", Json::obj([("task", Json::UInt(task))])),
    ])
}

fn counter(name: &str, ts: u64, series: &str, value: u64) -> Json {
    counter_on(PID, name, ts, series, value)
}

fn counter_on(pid: u64, name: &str, ts: u64, series: &str, value: u64) -> Json {
    Json::obj([
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("C".to_string())),
        ("ts", Json::UInt(ts)),
        ("pid", Json::UInt(pid)),
        (
            "args",
            Json::Obj(vec![(series.to_string(), Json::UInt(value))]),
        ),
    ])
}

/// Characters for generated labels and tenant names: plain ASCII, everything the writer
/// escapes, DEL (which it does not), and multi-byte UTF-8.
const ALPHABET: [char; 15] = [
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '→', '😀',
];

fn text(rng: &mut SimRng) -> String {
    (0..rng.below(12))
        .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
        .collect()
}

/// A number of any digit count, from 1 to 20.
fn number(rng: &mut SimRng) -> u64 {
    rng.next_u64() >> rng.below(64)
}

/// A span whose stages are each observed with probability 0.8, in non-decreasing time order.
fn span(rng: &mut SimRng, tasks: u64, cores: usize) -> TaskSpan {
    let mut cycle = rng.below(1 << 48);
    let mut stages = [None; 6];
    for stage in &mut stages {
        cycle += rng.below(5_000);
        *stage = rng.chance(0.8).then_some(cycle);
    }
    let [submit, ready, dispatch, exec_start, exec_end, retire] = stages;
    TaskSpan {
        task: rng.below(tasks),
        core: rng
            .chance(0.9)
            .then(|| rng.below(cores.max(1) as u64) as usize),
        submit,
        ready,
        dispatch,
        exec_start,
        exec_end,
        retire,
        payload_mem_cycles: rng.below(5_000),
    }
}

fn sample(rng: &mut SimRng, cores: usize) -> MetricsSample {
    MetricsSample {
        cycle: number(rng),
        tracker_in_flight: number(rng),
        ready_queue_len: number(rng),
        core_busy_cycles: (0..cores).map(|_| number(rng)).collect(),
        core_idle_cycles: (0..cores).map(|_| number(rng)).collect(),
        mem_accesses: number(rng),
        mem_stall_cycles: number(rng),
        dram_fetches: number(rng),
        dram_writebacks: number(rng),
        invalidations: number(rng),
        dirty_bounces: number(rng),
        noc_messages: number(rng),
        noc_flits: number(rng),
        noc_link_wait_cycles: number(rng),
        max_link_occupancy: number(rng),
    }
}

/// A generated run: 0–64 cores, up to 40 spans over up to 60 task ids, and up to 12 samples
/// (none in a quarter of the runs).
struct Run {
    label: String,
    cores: usize,
    spans: Vec<TaskSpan>,
    samples: Vec<MetricsSample>,
}

fn run(rng: &mut SimRng) -> Run {
    let cores = rng.below(65) as usize;
    let tasks = 1 + rng.below(60);
    let spans = (0..rng.below(41))
        .map(|_| span(rng, tasks, cores))
        .collect();
    let samples = if rng.chance(0.25) { 0 } else { rng.below(13) };
    let samples = (0..samples).map(|_| sample(rng, cores)).collect();
    Run {
        label: text(rng),
        cores,
        spans,
        samples,
    }
}

fn mem_event(rng: &mut SimRng) -> MemEvent {
    let cycle = number(rng);
    if rng.chance(0.7) {
        let kinds = [
            MemAccessKind::Read,
            MemAccessKind::Write,
            MemAccessKind::Atomic,
        ];
        MemEvent::Coherence {
            cycle,
            core: 0,
            kind: kinds[rng.below(3) as usize],
            latency: number(rng) % 1_000_000,
            l1_hit: rng.chance(0.5),
            remote_dirty: rng.chance(0.2),
        }
    } else {
        MemEvent::NocLeg {
            cycle,
            from: 0,
            to: 1,
            flits: 4,
            wait_cycles: number(rng) % 100_000,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn streamed_trace_matches_the_reference_tree(seed in any::<u64>()) {
        let r = run(&mut SimRng::new(seed));
        let streamed = perfetto::trace_json(&r.label, r.cores, &r.spans, &r.samples).render();
        prop_assert_eq!(streamed, trace_json(&r.label, r.cores, &r.spans, &r.samples).render());
    }

    #[test]
    fn streamed_tenant_trace_matches_the_reference_tree(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let r = run(&mut rng);
        let names: Vec<String> = (0..rng.below(5)).map(|_| text(&mut rng)).collect();
        // Up to 50 entries against up to 60 task ids, so some spans fall outside it.
        let assignment: Vec<u32> =
            (0..rng.below(51)).map(|_| rng.below(names.len().max(1) as u64) as u32).collect();
        let streamed =
            perfetto::trace_json_tenants(&r.label, r.cores, &r.spans, &r.samples, &names, &assignment);
        let reference = trace_json_tenants(&r.label, r.cores, &r.spans, &r.samples, &names, &assignment);
        prop_assert_eq!(streamed.render(), reference.render());
    }

    #[test]
    fn streamed_metrics_match_the_reference_tree(seed in any::<u64>()) {
        let mut rng = SimRng::new(seed);
        let r = run(&mut rng);
        let mut m = MetricsRegistry::new();
        for s in &r.samples {
            m.push_sample(s);
        }
        // Half the runs see no memory events, leaving the counters zero and histograms empty.
        let events = if rng.chance(0.5) { 0 } else { rng.below(200) };
        for _ in 0..events {
            m.record_mem(&mem_event(&mut rng));
        }
        let makespan = number(&mut rng);
        let streamed = m.to_json(&r.label, makespan).render();
        prop_assert_eq!(streamed, m.reference_json(&r.label, makespan).render());
    }
}
