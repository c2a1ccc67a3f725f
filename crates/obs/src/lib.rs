//! Zero-cost-when-off observability for the simulated machine.
//!
//! The paper argues for Picos by *measuring* it — per-phase task-lifetime overheads (Fig. 7)
//! and end-to-end speedups (Fig. 9) — and this crate gives the reproduction the same
//! introspective power: every layer of the simulation (engine, memory system, Picos tracker,
//! scheduler fabrics, sweep runner) can stream typed events into an [`Observer`] without
//! moving a single simulated cycle.
//!
//! The crate is organised around four pieces:
//!
//! * [`events`] — the typed event vocabulary: [`TaskEvent`] (the task-lifecycle stages
//!   submit → deps-ready → dispatch → execute → retire), [`MemEvent`] (coherence transactions
//!   and NoC legs) and [`MetricsSample`] (a cycle-bucketed gauge snapshot), all flowing
//!   through the single [`Observer`] trait chokepoint;
//! * [`metrics`] — a registry of counters, gauges and histograms with cycle-bucketed
//!   time-series sampling, exported as the `tis-metrics-v1` JSON document;
//! * [`perfetto`] — a Chrome trace-event exporter: task spans become per-core tracks (one
//!   track group per tenant for co-scheduled runs) and tracker/NoC activity become counter
//!   tracks, loadable in `ui.perfetto.dev`;
//! * [`critical`] — a critical-path profiler that walks the executed happens-before graph and
//!   attributes the makespan to task-body vs memory-stall vs dispatch-wait vs
//!   scheduler-overhead cycles, machine-checked to sum exactly to the makespan.
//!
//! # Exports
//!
//! The exporters ([`trace_json`], [`trace_json_tenants`], [`Recorder::perfetto_json`],
//! [`Recorder::metrics_json`]) return document views, [`TraceDoc`] and [`MetricsDoc`], that
//! borrow the recorded spans and samples. Their `render()` reserves the output up front and
//! streams the document through [`tis_sim::json::JsonWriter`], the workspace's one
//! pretty-printer, without building a value tree. The tree builders they replaced are kept
//! in the crate's tests as the reference the streamed bytes must equal, and three exports are
//! byte-pinned in `bench-baselines/`: `TRACE_diamond_golden.json`,
//! `METRICS_diamond_golden.json` and `TRACE_tenants_golden.json` (regenerate with
//! `TIS_REPIN=1 cargo test --test observability`).
//!
//! # The chokepoint contract
//!
//! Observer methods are invoked from exactly two places outside this crate: the engine's step
//! loop and the core-context emission helpers (`tis-machine`). Everything else — fabrics, the
//! Picos device, the memory system — buffers plain data behind an `observing` flag and is
//! drained *by* the engine. `tis-lint` enforces this statically, and the figure pins plus the
//! five `bench-baselines/` artifacts prove the [`NullObserver`] path byte-identical to a build
//! without observability at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod critical;
pub mod events;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod perfetto;
pub mod recorder;
pub mod span;

pub use critical::{
    critical_path, critical_path_for_run, critical_path_per_tenant, CriticalPath,
    CriticalPathError, PathCategory, PathSegment,
};
pub use perfetto::{trace_json, trace_json_tenants, TraceDoc};
pub use events::{MemAccessKind, MemEvent, MetricsSample, TaskEvent, TaskStage};
pub use metrics::{MetricsDoc, MetricsRegistry};
pub use recorder::{ObsConfig, Recorder};
pub use span::{SpanCollector, TaskSpan};

/// The single chokepoint through which every simulation layer reports what happened.
///
/// All methods have no-op defaults, so an observer implements only what it cares about. The
/// engine consults [`Observer::wants_mem_events`] and [`Observer::sample_interval`] once per
/// run to decide which producers to arm — a disarmed producer buffers nothing and the
/// simulation's cycle arithmetic never changes either way.
pub trait Observer {
    /// A task crossed a lifecycle stage (submit, deps-ready, dispatch, execute, retire).
    fn on_task(&mut self, _event: &TaskEvent) {}

    /// `count` repeats of `event`, `period` cycles apart, with nothing else in between: the
    /// engine replaying a parked core's skipped polls. The default hands each repeat to
    /// [`Observer::on_task`] in turn.
    fn on_task_repeated(&mut self, event: &TaskEvent, period: tis_sim::Cycle, count: u64) {
        for i in 0..count {
            self.on_task(&TaskEvent { cycle: event.cycle + i * period, ..*event });
        }
    }

    /// A coherence transaction completed or a NoC message traversed its route.
    fn on_mem(&mut self, _event: &MemEvent) {}

    /// A cycle-bucket boundary was crossed: a snapshot of every gauge at that instant.
    fn on_sample(&mut self, _sample: &MetricsSample) {}

    /// Whether per-transaction memory events should be produced (they are the highest-volume
    /// stream; gauges and task events flow regardless).
    fn wants_mem_events(&self) -> bool {
        false
    }

    /// Bucket width for gauge sampling, or `None` to disable the timeline.
    fn sample_interval(&self) -> Option<tis_sim::Cycle> {
        None
    }
}

/// The do-nothing observer: proves the obs-off path is free.
///
/// Running a simulation with a `NullObserver` attached produces bit-identical
/// [`ExecutionReport`]s (and therefore artifacts) to running with no observer at all — the
/// figure-pin tests assert this.
///
/// [`ExecutionReport`]: https://docs.rs/tis-machine
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_accepts_everything_and_requests_nothing() {
        let mut o = NullObserver;
        assert!(!o.wants_mem_events());
        assert_eq!(o.sample_interval(), None);
        o.on_task(&TaskEvent {
            cycle: 1,
            task: 0,
            core: Some(0),
            stage: TaskStage::Submitted,
            arg: 0,
        });
        o.on_mem(&MemEvent::NocLeg { cycle: 1, from: 0, to: 1, flits: 1, wait_cycles: 0 });
    }
}
