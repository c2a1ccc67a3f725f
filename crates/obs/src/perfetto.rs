//! Chrome trace-event / Perfetto export.
//!
//! Renders an observed run as a JSON document in the [Chrome trace-event format] — the
//! `TRACE_*.json` artifacts load directly in `ui.perfetto.dev` (or `chrome://tracing`). Task
//! spans become three slices per task on the executing core's track (dispatch overhead, task
//! body, retire overhead), and the sampled gauges become counter tracks (tracker occupancy,
//! ready-queue depth, NoC activity). Timestamps are simulated cycles reported in the format's
//! microsecond field: read "1 µs" as "1 cycle".
//!
//! The exporters return a [`TraceDoc`], a view borrowing the spans and samples; its
//! [`TraceDoc::render`] streams the document through [`JsonWriter`] without building a value
//! tree.
//!
//! [Chrome trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::events::MetricsSample;
use crate::span::TaskSpan;
use core::fmt::Arguments;
use tis_sim::json::JsonWriter;

/// Process id used for all tracks of a single-tenant run (one simulated machine = one
/// Perfetto process).
const PID: u64 = 0;

/// Approximate rendered bytes per track metadata event, per complete span (three slices) and
/// per gauge sample (five counter events), with cycle stamps of up to ten digits; sizes the
/// output buffer up front.
const TRACK_BYTES: usize = 160;
const SPAN_BYTES: usize = 1_000;
const SAMPLE_BYTES: usize = 5 * 160;

/// Reads one gauge out of a sample.
type Gauge = fn(&MetricsSample) -> u64;

/// The gauge series drawn as counter tracks: track name, series name, value.
const COUNTERS: [(&str, &str, Gauge); 5] = [
    ("tracker in-flight", "tasks", |s| s.tracker_in_flight),
    ("ready queue", "tasks", |s| s.ready_queue_len),
    ("noc flits (cum)", "flits", |s| s.noc_flits),
    ("noc link wait (cum)", "cycles", |s| s.noc_link_wait_cycles),
    ("mem stall (cum)", "cycles", |s| s.mem_stall_cycles),
];

/// A Chrome trace-event document over one run's spans and gauge samples, borrowed from the
/// recorder; [`TraceDoc::render`] streams it. Built by [`trace_json`] and
/// [`trace_json_tenants`].
#[derive(Debug, Clone, Copy)]
pub struct TraceDoc<'a> {
    label: &'a str,
    cores: usize,
    spans: &'a [TaskSpan],
    samples: &'a [MetricsSample],
    tenants: Option<Tenants<'a>>,
}

/// The tenant dimension of a co-scheduled run.
#[derive(Debug, Clone, Copy)]
struct Tenants<'a> {
    names: &'a [String],
    assignment: &'a [u32],
}

/// The Chrome trace-event document of a run's task spans plus its gauge timeline.
///
/// `label` names the process in the UI (typically the sweep cell or workload label);
/// `cores` sizes the per-core thread tracks (cores with no executed task still get a named
/// track, making idle cores visible).
pub fn trace_json<'a>(
    label: &'a str,
    cores: usize,
    spans: &'a [TaskSpan],
    samples: &'a [MetricsSample],
) -> TraceDoc<'a> {
    TraceDoc { label, cores, spans, samples, tenants: None }
}

/// [`trace_json`] with a tenant dimension: each tenant of a co-scheduled run becomes its own
/// Perfetto *process* (track group), so the UI collapses and filters per tenant.
///
/// `names[t]` labels tenant `t`'s track group; `assignment` maps global task id → tenant (as
/// recovered from the multi-tenant source after the run). Task slices are drawn on thread
/// `core` of the owning tenant's process; tasks outside `assignment` are skipped. The sampled
/// machine-wide gauges land in a separate `machine` process (pid `names.len()`) since
/// tracker/NoC occupancy is shared hardware, not any one tenant's.
pub fn trace_json_tenants<'a>(
    label: &'a str,
    cores: usize,
    spans: &'a [TaskSpan],
    samples: &'a [MetricsSample],
    names: &'a [String],
    assignment: &'a [u32],
) -> TraceDoc<'a> {
    TraceDoc { label, cores, spans, samples, tenants: Some(Tenants { names, assignment }) }
}

impl TraceDoc<'_> {
    /// Renders the document as pretty-printed JSON.
    pub fn render(&self) -> String {
        let tracks = self.tenants.map_or(1, |t| t.names.len() + 1) * (self.cores + 1);
        let events = self.spans.len() * SPAN_BYTES + self.samples.len() * SAMPLE_BYTES;
        let mut w = JsonWriter::with_capacity(tracks * TRACK_BYTES + events);
        w.begin_obj();
        w.key("traceEvents").begin_arr();
        let counter_pid = self.tracks(&mut w);
        for span in self.spans {
            let (Some(core), Some(dispatch), Some(start), Some(end), Some(retire)) =
                (span.core, span.dispatch, span.exec_start, span.exec_end, span.retire)
            else {
                continue; // incomplete span: nothing executed, nothing to draw
            };
            let tenant = match self.tenants {
                None => None,
                // A task outside the tenant assignment has no track group to be drawn in.
                Some(t) => match t.assignment.get(span.task as usize) {
                    Some(&tenant) => Some(u64::from(tenant)),
                    None => continue,
                },
            };
            let pid = tenant.unwrap_or(PID);
            let tid = core as u64;
            // Fetch/meta-read overhead between the work fetch and the body.
            slice(&mut w, "fetch ", pid, tid, dispatch, start - dispatch, span.task);
            // The task body, with the full lifecycle in args for the selection panel.
            w.begin_obj();
            w.key("name").str_uint("task ", span.task);
            w.key("cat").str("task");
            w.key("ph").str("X");
            w.key("ts").uint(start);
            w.key("dur").uint(end - start);
            w.key("pid").uint(pid);
            w.key("tid").uint(tid);
            w.key("args").begin_obj();
            w.key("task").uint(span.task);
            if let Some(tenant) = tenant {
                w.key("tenant").uint(tenant);
            }
            w.key("submit").opt_uint(span.submit);
            w.key("ready").opt_uint(span.ready);
            w.key("dispatch").uint(dispatch);
            w.key("retire").uint(retire);
            w.key("payload_mem_cycles").uint(span.payload_mem_cycles);
            w.end_obj().end_obj();
            // Retirement notification overhead after the body.
            slice(&mut w, "retire ", pid, tid, end, retire - end, span.task);
        }
        for s in self.samples {
            for (name, series, value) in COUNTERS {
                w.begin_obj();
                w.key("name").str(name);
                w.key("ph").str("C");
                w.key("ts").uint(s.cycle);
                w.key("pid").uint(counter_pid);
                w.key("args").begin_obj().key(series).uint(value(s)).end_obj();
                w.end_obj();
            }
        }
        w.end_arr();
        w.key("displayTimeUnit").str("ns");
        w.key("otherData").begin_obj().key("timeUnit").str("simulated cycles").end_obj();
        w.end_obj();
        w.finish()
    }

    /// Writes the process and thread track metadata; returns the pid of the process that
    /// holds the counter tracks.
    fn tracks(&self, w: &mut JsonWriter) -> u64 {
        let label = self.label;
        let Some(tenants) = self.tenants else {
            process_name(w, PID, format_args!("{label}"));
            for core in 0..self.cores as u64 {
                thread_name(w, PID, core);
                meta_sort(w, "thread_sort_index", PID, Some(core), core);
            }
            return PID;
        };
        for (t, name) in tenants.names.iter().enumerate() {
            let pid = t as u64;
            process_name(w, pid, format_args!("{label} / tenant {t}: {name}"));
            meta_sort(w, "process_sort_index", pid, None, pid);
            for core in 0..self.cores as u64 {
                thread_name(w, pid, core);
            }
        }
        let machine_pid = tenants.names.len() as u64;
        process_name(w, machine_pid, format_args!("{label} / machine"));
        machine_pid
    }
}

/// Writes the opening of a metadata event, up to and including its `args` object.
fn meta_header(w: &mut JsonWriter, name: &str, pid: u64, tid: Option<u64>) {
    w.begin_obj();
    w.key("name").str(name);
    w.key("ph").str("M");
    w.key("pid").uint(pid);
    if let Some(tid) = tid {
        w.key("tid").uint(tid);
    }
    w.key("args").begin_obj();
}

/// A metadata event naming a process track.
fn process_name(w: &mut JsonWriter, pid: u64, value: Arguments<'_>) {
    meta_header(w, "process_name", pid, None);
    w.key("name").str_fmt(value);
    w.end_obj().end_obj();
}

/// A metadata event naming core `core`'s thread track.
fn thread_name(w: &mut JsonWriter, pid: u64, core: u64) {
    meta_header(w, "thread_name", pid, Some(core));
    w.key("name").str_uint("core ", core);
    w.end_obj().end_obj();
}

/// A metadata event ordering a process or thread track.
fn meta_sort(w: &mut JsonWriter, name: &str, pid: u64, tid: Option<u64>, index: u64) {
    meta_header(w, name, pid, tid);
    w.key("sort_index").uint(index);
    w.end_obj().end_obj();
}

/// A scheduler-overhead slice of one task, named `prefix` (`"fetch "` or `"retire "`) and the
/// task id.
fn slice(w: &mut JsonWriter, prefix: &str, pid: u64, tid: u64, ts: u64, dur: u64, task: u64) {
    w.begin_obj();
    w.key("name").str_uint(prefix, task);
    w.key("cat").str("sched");
    w.key("ph").str("X");
    w.key("ts").uint(ts);
    w.key("dur").uint(dur);
    w.key("pid").uint(pid);
    w.key("tid").uint(tid);
    w.key("args").begin_obj().key("task").uint(task).end_obj();
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_sim::json::Json;

    fn complete_span(task: u64, core: usize, base: u64) -> TaskSpan {
        TaskSpan {
            task,
            core: Some(core),
            submit: Some(base),
            ready: Some(base + 10),
            dispatch: Some(base + 20),
            exec_start: Some(base + 25),
            exec_end: Some(base + 125),
            retire: Some(base + 130),
            payload_mem_cycles: 40,
        }
    }

    #[test]
    fn every_event_satisfies_the_trace_event_schema() {
        let spans = [complete_span(0, 0, 0), complete_span(1, 1, 50)];
        let samples =
            [MetricsSample { cycle: 0, ..Default::default() }, MetricsSample { cycle: 1024, ..Default::default() }];
        let doc = Json::parse(&trace_json("unit", 2, &spans, &samples).render()).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents must be an array");
        };
        assert!(!events.is_empty());
        for e in events {
            let ph = e.get("ph").and_then(|p| p.as_str()).expect("every event has a phase");
            assert!(matches!(ph, "M" | "X" | "C"), "unexpected phase {ph}");
            assert!(e.get("name").is_some());
            assert!(e.get("pid").is_some());
            if ph == "X" {
                assert!(e.get("ts").is_some() && e.get("dur").is_some() && e.get("tid").is_some());
            }
            if ph == "C" {
                assert!(e.get("ts").is_some() && e.get("args").is_some());
            }
        }
        // Three slices per complete span.
        let slices = events.iter().filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"));
        assert_eq!(slices.count(), 6);
    }

    #[test]
    fn tenant_export_groups_tasks_into_per_tenant_processes() {
        // Round-robin assignment: globals 0,2 → tenant 0; globals 1,3 → tenant 1.
        let spans = [
            complete_span(0, 0, 0),
            complete_span(1, 1, 50),
            complete_span(2, 0, 200),
            complete_span(3, 1, 250),
        ];
        let names = vec!["alpha".to_string(), "beta".to_string()];
        let assignment = [0u32, 1, 0, 1];
        let samples = [MetricsSample { cycle: 1024, ..Default::default() }];
        let doc = trace_json_tenants("mt", 2, &spans, &samples, &names, &assignment).render();
        let doc = Json::parse(&doc).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { panic!("traceEvents") };
        // Every task slice lives on its tenant's pid.
        for e in events {
            if e.get("cat").and_then(|c| c.as_str()) == Some("task") {
                let task = e.get("args").and_then(|a| a.get("task")).and_then(|t| t.as_f64()).unwrap();
                let pid = e.get("pid").and_then(|p| p.as_f64()).unwrap();
                assert_eq!(pid, f64::from(assignment[task as usize]));
            }
        }
        // Counters land on the separate machine process, pid = tenant count.
        for e in events {
            if e.get("ph").and_then(|p| p.as_str()) == Some("C") {
                assert_eq!(e.get("pid").and_then(|p| p.as_f64()), Some(2.0));
            }
        }
        // Both tenant track groups are named after their tenant.
        let process_names: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("process_name"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(|n| n.as_str()).map(String::from))
            .collect();
        assert!(process_names.iter().any(|n| n.contains("tenant 0: alpha")));
        assert!(process_names.iter().any(|n| n.contains("tenant 1: beta")));
        assert!(process_names.iter().any(|n| n.contains("machine")));
    }

    #[test]
    fn incomplete_spans_draw_nothing_but_tracks_remain() {
        let spans = [TaskSpan { task: 9, submit: Some(3), ..TaskSpan::default() }];
        let doc = Json::parse(&trace_json("unit", 4, &spans, &[]).render()).expect("valid JSON");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else { unreachable!() };
        assert!(events.iter().all(|e| e.get("ph").and_then(|p| p.as_str()) != Some("X")));
        // 1 process_name + 4 × (thread_name + thread_sort_index).
        assert_eq!(events.len(), 9);
    }
}
