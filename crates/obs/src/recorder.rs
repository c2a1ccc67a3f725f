//! The one-stop observer: spans + metrics + exporters behind a single config.

use crate::critical::{critical_path, CriticalPath};
use crate::events::{MemEvent, MetricsSample, TaskEvent};
use crate::metrics::{MetricsDoc, MetricsRegistry};
use crate::perfetto::{self, TraceDoc};
use crate::span::{SpanCollector, TaskSpan};
use crate::Observer;
use tis_sim::Cycle;

/// What a [`Recorder`] collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Gauge-sampling bucket width in cycles; `0` disables the timeline.
    pub sample_interval: Cycle,
    /// Whether to stream per-transaction memory events (the highest-volume stream; off by
    /// default so observing a long run stays cheap).
    pub mem_events: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { sample_interval: 4096, mem_events: false }
    }
}

impl ObsConfig {
    /// Everything on: fine sampling and the full memory-event stream.
    pub fn full() -> Self {
        ObsConfig { sample_interval: 1024, mem_events: true }
    }
}

/// Collects everything an observed run produces: task spans, the metrics registry, and the
/// gauge timeline — ready to export as Perfetto/metrics JSON or a critical-path table.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    config: ObsConfig,
    spans: SpanCollector,
    metrics: MetricsRegistry,
    task_events: u64,
}

impl Recorder {
    /// Creates a recorder with the given config.
    pub fn new(config: ObsConfig) -> Self {
        Recorder { config, ..Recorder::default() }
    }

    /// The assembled task spans, in first-submission order.
    pub fn spans(&self) -> &[TaskSpan] {
        self.spans.spans()
    }

    /// The metrics registry (counters, histograms, timeline).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Total task events observed.
    pub fn task_events(&self) -> u64 {
        self.task_events
    }

    /// The Chrome trace-event / Perfetto document for this run; `render()` streams it.
    pub fn perfetto_json<'a>(&'a self, label: &'a str, cores: usize) -> TraceDoc<'a> {
        perfetto::trace_json(label, cores, self.spans.spans(), self.metrics.samples())
    }

    /// The metrics document for this run; `render()` streams it.
    pub fn metrics_json<'a>(&'a self, label: &'a str, makespan: Cycle) -> MetricsDoc<'a> {
        self.metrics.to_json(label, makespan)
    }

    /// Decomposes the makespan over the executed happens-before graph (see
    /// [`critical_path`]); `edges` are the program's dependence edges, e.g.
    /// `GraphSpec::from_program(&program).edges` from `tis-analyze`.
    pub fn critical_path(&self, edges: &[(usize, usize)], makespan: Cycle) -> CriticalPath {
        critical_path(self.spans.spans(), edges, makespan)
    }
}

impl Observer for Recorder {
    fn on_task(&mut self, event: &TaskEvent) {
        self.task_events += 1;
        self.spans.apply(event);
    }

    /// In O(1): spans keep each stage's first stamp, and the repeats differ from the first
    /// only in their cycle, so only the first changes a span.
    fn on_task_repeated(&mut self, event: &TaskEvent, _period: Cycle, count: u64) {
        if count > 0 {
            self.task_events += count;
            self.spans.apply(event);
        }
    }

    fn on_mem(&mut self, event: &MemEvent) {
        self.metrics.record_mem(event);
    }

    fn on_sample(&mut self, sample: &MetricsSample) {
        self.metrics.push_sample(sample);
    }

    fn wants_mem_events(&self) -> bool {
        self.config.mem_events
    }

    fn sample_interval(&self) -> Option<Cycle> {
        (self.config.sample_interval > 0).then_some(self.config.sample_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::TaskStage;

    #[test]
    fn recorder_routes_streams_to_the_right_collectors() {
        let mut r = Recorder::new(ObsConfig::full());
        assert!(r.wants_mem_events());
        assert_eq!(r.sample_interval(), Some(1024));
        r.on_task(&TaskEvent { cycle: 5, task: 0, core: None, stage: TaskStage::Submitted, arg: 0 });
        r.on_sample(&MetricsSample { cycle: 0, ..Default::default() });
        assert_eq!(r.task_events(), 1);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.metrics().samples().len(), 1);
    }

    #[test]
    fn repeated_events_leave_what_looped_events_leave() {
        let first = TaskEvent { cycle: 40, task: 7, core: Some(2), stage: TaskStage::Submitted, arg: 0 };
        let dispatch = TaskEvent { cycle: 900, stage: TaskStage::Dispatched, ..first };
        let mut batched = Recorder::default();
        let mut looped = Recorder::default();
        for (event, count) in [(first, 5), (dispatch, 3), (TaskEvent { task: 8, ..first }, 0)] {
            batched.on_task_repeated(&event, 44, count);
            for i in 0..count {
                looped.on_task(&TaskEvent { cycle: event.cycle + i * 44, ..event });
            }
        }
        assert_eq!(batched.task_events(), 8);
        assert_eq!(batched.task_events(), looped.task_events());
        assert_eq!(batched.spans(), looped.spans());
        assert_eq!(batched.spans()[0].submit, Some(40), "the first repeat's stamp is kept");
    }

    #[test]
    fn zero_interval_disables_sampling() {
        let r = Recorder::new(ObsConfig { sample_interval: 0, mem_events: false });
        assert_eq!(r.sample_interval(), None);
    }
}
