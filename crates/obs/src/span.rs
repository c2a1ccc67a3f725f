//! Task spans: the lifecycle of every task assembled from its events.

use crate::events::{TaskEvent, TaskStage};
use tis_sim::{Cycle, FxHashMap};

/// The assembled lifecycle of one task: submit → deps-ready → dispatch → execute → retire.
///
/// Stages are `Option` because a span is built incrementally from events and a run can end (or
/// an observer attach) mid-lifecycle; [`TaskSpan::is_complete`] distinguishes fully-observed
/// spans. Within a complete span the stage timestamps are monotonically non-decreasing
/// ([`TaskSpan::is_well_formed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskSpan {
    /// Software task id.
    pub task: u64,
    /// Core that executed the task, once known.
    pub core: Option<usize>,
    /// Cycle the runtime began submitting the descriptor.
    pub submit: Option<Cycle>,
    /// Cycle the scheduler published the task as ready (all dependences satisfied).
    pub ready: Option<Cycle>,
    /// Cycle a core fetched the task.
    pub dispatch: Option<Cycle>,
    /// Cycle the task body started.
    pub exec_start: Option<Cycle>,
    /// Cycle the task body ended.
    pub exec_end: Option<Cycle>,
    /// Cycle the retirement was issued to the scheduler.
    pub retire: Option<Cycle>,
    /// DRAM-stall share of the task body, in cycles (the rest is private compute).
    pub payload_mem_cycles: u64,
}

impl TaskSpan {
    /// Whether every lifecycle stage was observed.
    pub fn is_complete(&self) -> bool {
        self.submit.is_some()
            && self.ready.is_some()
            && self.dispatch.is_some()
            && self.exec_start.is_some()
            && self.exec_end.is_some()
            && self.retire.is_some()
    }

    /// Whether the observed stages are monotonically non-decreasing in time and the memory
    /// share fits inside the body.
    pub fn is_well_formed(&self) -> bool {
        let stamps = [self.submit, self.ready, self.dispatch, self.exec_start, self.exec_end, self.retire];
        let mut last: Option<Cycle> = None;
        for t in stamps.into_iter().flatten() {
            if let Some(prev) = last {
                if t < prev {
                    return false;
                }
            }
            last = Some(t);
        }
        match (self.exec_start, self.exec_end) {
            (Some(s), Some(e)) => self.payload_mem_cycles <= e - s,
            _ => true,
        }
    }
}

/// Builds [`TaskSpan`]s from the task-event stream, in first-submission order.
///
/// Events may arrive out of global time order (the engine steps whichever core lags furthest),
/// and a stage can fire twice for one task under fault injection (a lost submission is
/// resubmitted); the collector keys by task id and keeps the *earliest* stamp per stage, which
/// is the one the paper's lifetime decomposition measures from.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    spans: Vec<TaskSpan>,
    index: FxHashMap<u64, usize>,
}

impl SpanCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Applies one task event.
    pub fn apply(&mut self, event: &TaskEvent) {
        let slot = *self.index.entry(event.task).or_insert_with(|| {
            self.spans.push(TaskSpan { task: event.task, ..TaskSpan::default() });
            self.spans.len() - 1
        });
        let span = &mut self.spans[slot];
        if span.core.is_none() && event.stage >= TaskStage::Dispatched {
            span.core = event.core;
        }
        let stamp = match event.stage {
            TaskStage::Submitted => &mut span.submit,
            TaskStage::Ready => &mut span.ready,
            TaskStage::Dispatched => &mut span.dispatch,
            TaskStage::ExecStart => &mut span.exec_start,
            TaskStage::ExecEnd => {
                span.payload_mem_cycles = event.arg;
                &mut span.exec_end
            }
            TaskStage::Retired => &mut span.retire,
        };
        if stamp.is_none() {
            *stamp = Some(event.cycle);
        }
    }

    /// The spans assembled so far, in first-submission order.
    pub fn spans(&self) -> &[TaskSpan] {
        &self.spans
    }

    /// The span of a specific task, if any of its events were seen.
    pub fn get(&self, task: u64) -> Option<&TaskSpan> {
        self.index.get(&task).map(|&i| &self.spans[i])
    }

    /// Number of tasks with at least one observed event.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no events were observed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(task: u64, stage: TaskStage, cycle: Cycle) -> TaskEvent {
        TaskEvent { cycle, task, core: Some(1), stage, arg: 0 }
    }

    #[test]
    fn spans_assemble_from_out_of_order_streams() {
        let mut c = SpanCollector::new();
        c.apply(&ev(7, TaskStage::Dispatched, 50));
        c.apply(&ev(3, TaskStage::Submitted, 10));
        c.apply(&ev(7, TaskStage::Submitted, 5));
        c.apply(&ev(7, TaskStage::Ready, 20));
        c.apply(&ev(7, TaskStage::ExecStart, 60));
        c.apply(&TaskEvent { cycle: 90, task: 7, core: Some(1), stage: TaskStage::ExecEnd, arg: 12 });
        c.apply(&ev(7, TaskStage::Retired, 95));
        let span = c.get(7).unwrap();
        assert!(span.is_complete());
        assert!(span.is_well_formed());
        assert_eq!(span.core, Some(1));
        assert_eq!((span.exec_start, span.exec_end), (Some(60), Some(90)));
        assert_eq!((span.submit, span.retire), (Some(5), Some(95)));
        assert_eq!(span.payload_mem_cycles, 12);
        assert!(!c.get(3).unwrap().is_complete());
        // First-submission order, not task-id order.
        assert_eq!(c.spans()[0].task, 7);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn resubmission_keeps_the_earliest_stamp() {
        let mut c = SpanCollector::new();
        c.apply(&ev(0, TaskStage::Submitted, 10));
        c.apply(&ev(0, TaskStage::Submitted, 500));
        assert_eq!(c.get(0).unwrap().submit, Some(10));
    }

    #[test]
    fn non_monotone_span_is_rejected() {
        let span = TaskSpan {
            task: 0,
            ready: Some(10),
            dispatch: Some(5),
            ..TaskSpan::default()
        };
        assert!(!span.is_well_formed());
    }
}
