//! The metrics registry: counters, histograms, and the cycle-bucketed gauge timeline.
//!
//! The registry is owned by the run's [`Recorder`](crate::Recorder) and exported as one
//! hand-rolled JSON document (`METRICS_*.json`) in the same style as the `BENCH_*.json`
//! artifacts — the same two-space pretty-printing, no dependencies. [`MetricsRegistry::to_json`]
//! returns a [`MetricsDoc`] view whose [`MetricsDoc::render`] streams the document through
//! [`JsonWriter`] without building a value tree.

use crate::events::{MemAccessKind, MemEvent, MetricsSample};
use tis_sim::json::JsonWriter;
use tis_sim::stats::Histogram;
use tis_sim::Cycle;

/// Counters, histograms and the sampled gauge timeline of one observed run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    samples: Vec<MetricsSample>,
    // Named counters fed by the memory-event stream (all zero when it is disarmed).
    coherence_reads: u64,
    coherence_writes: u64,
    coherence_atomics: u64,
    l1_misses: u64,
    remote_dirty_hits: u64,
    noc_legs: u64,
    noc_wait_cycles: u64,
    access_latency: Histogram,
    noc_leg_wait: Histogram,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Ingests one memory event into the counter/histogram set.
    pub fn record_mem(&mut self, event: &MemEvent) {
        match *event {
            MemEvent::Coherence { kind, latency, l1_hit, remote_dirty, .. } => {
                match kind {
                    MemAccessKind::Read => self.coherence_reads += 1,
                    MemAccessKind::Write => self.coherence_writes += 1,
                    MemAccessKind::Atomic => self.coherence_atomics += 1,
                }
                if !l1_hit {
                    self.l1_misses += 1;
                }
                if remote_dirty {
                    self.remote_dirty_hits += 1;
                }
                self.access_latency.record(latency);
            }
            MemEvent::NocLeg { flits: _, wait_cycles, .. } => {
                self.noc_legs += 1;
                self.noc_wait_cycles += wait_cycles;
                self.noc_leg_wait.record(wait_cycles);
            }
        }
    }

    /// Appends one gauge snapshot to the timeline.
    pub fn push_sample(&mut self, sample: &MetricsSample) {
        self.samples.push(sample.clone());
    }

    /// The sampled timeline, oldest first.
    pub fn samples(&self) -> &[MetricsSample] {
        &self.samples
    }

    /// Number of NoC legs seen on the event stream.
    pub fn noc_legs(&self) -> u64 {
        self.noc_legs
    }

    /// The registry as the `METRICS_*.json` document, titled `label`.
    ///
    /// Shape: a `counters` object, a `histograms` object (count/mean/quantiles per histogram),
    /// and a `timeline` object of parallel arrays keyed by gauge name — the cycle-bucketed
    /// time series. Cumulative series are monotone; consumers difference adjacent entries for
    /// per-bucket rates.
    pub fn to_json<'a>(&'a self, label: &'a str, makespan: Cycle) -> MetricsDoc<'a> {
        MetricsDoc { registry: self, label, makespan }
    }
}

/// One series of the timeline: a number per sample, or an array (one number per core) per
/// sample.
#[derive(Clone, Copy)]
enum Series {
    Gauge(fn(&MetricsSample) -> u64),
    PerCore(fn(&MetricsSample) -> &[u64]),
}

/// The timeline's series, in document order.
const TIMELINE: [(&str, Series); 15] = [
    ("cycle", Series::Gauge(|s| s.cycle)),
    ("tracker_in_flight", Series::Gauge(|s| s.tracker_in_flight)),
    ("ready_queue_len", Series::Gauge(|s| s.ready_queue_len)),
    ("core_busy_cycles", Series::PerCore(|s| &s.core_busy_cycles)),
    ("core_idle_cycles", Series::PerCore(|s| &s.core_idle_cycles)),
    ("mem_accesses", Series::Gauge(|s| s.mem_accesses)),
    ("mem_stall_cycles", Series::Gauge(|s| s.mem_stall_cycles)),
    ("dram_fetches", Series::Gauge(|s| s.dram_fetches)),
    ("dram_writebacks", Series::Gauge(|s| s.dram_writebacks)),
    ("invalidations", Series::Gauge(|s| s.invalidations)),
    ("dirty_bounces", Series::Gauge(|s| s.dirty_bounces)),
    ("noc_messages", Series::Gauge(|s| s.noc_messages)),
    ("noc_flits", Series::Gauge(|s| s.noc_flits)),
    ("noc_link_wait_cycles", Series::Gauge(|s| s.noc_link_wait_cycles)),
    ("max_link_occupancy", Series::Gauge(|s| s.max_link_occupancy)),
];

/// Approximate rendered bytes per timeline number, with values of up to ten digits; sizes the
/// output buffer up front.
const NUMBER_BYTES: usize = 18;

/// The `METRICS_*.json` document of one registry, borrowed from it; [`MetricsDoc::render`]
/// streams it. Built by [`MetricsRegistry::to_json`].
#[derive(Debug, Clone, Copy)]
pub struct MetricsDoc<'a> {
    registry: &'a MetricsRegistry,
    label: &'a str,
    makespan: Cycle,
}

impl MetricsDoc<'_> {
    /// Renders the document as pretty-printed JSON.
    pub fn render(&self) -> String {
        let m = self.registry;
        let numbers: usize = m
            .samples
            .iter()
            .map(|s| TIMELINE.len() + s.core_busy_cycles.len() + s.core_idle_cycles.len())
            .sum();
        let mut w = JsonWriter::with_capacity(2_048 + self.label.len() + numbers * NUMBER_BYTES);
        w.begin_obj();
        w.key("schema").str("tis-metrics-v1");
        w.key("label").str(self.label);
        w.key("makespan_cycles").uint(self.makespan);
        w.key("sample_count").uint(m.samples.len() as u64);
        w.key("counters").begin_obj();
        w.key("coherence_reads").uint(m.coherence_reads);
        w.key("coherence_writes").uint(m.coherence_writes);
        w.key("coherence_atomics").uint(m.coherence_atomics);
        w.key("l1_misses").uint(m.l1_misses);
        w.key("remote_dirty_hits").uint(m.remote_dirty_hits);
        w.key("noc_legs").uint(m.noc_legs);
        w.key("noc_wait_cycles").uint(m.noc_wait_cycles);
        w.end_obj();
        w.key("histograms").begin_obj();
        histogram(&mut w, "access_latency", &m.access_latency);
        histogram(&mut w, "noc_leg_wait", &m.noc_leg_wait);
        w.end_obj();
        w.key("timeline").begin_obj();
        for (name, series) in TIMELINE {
            w.key(name).begin_arr();
            for s in &m.samples {
                match series {
                    Series::Gauge(value) => {
                        w.uint(value(s));
                    }
                    Series::PerCore(values) => {
                        w.begin_arr();
                        for &v in values(s) {
                            w.uint(v);
                        }
                        w.end_arr();
                    }
                }
            }
            w.end_arr();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

fn histogram(w: &mut JsonWriter, name: &str, h: &Histogram) {
    w.key(name).begin_obj();
    w.key("count").uint(h.count());
    w.key("mean").num(h.mean());
    w.key("p50").opt_uint(h.quantile(0.50));
    w.key("p90").opt_uint(h.quantile(0.90));
    w.key("p99").opt_uint(h.quantile(0.99));
    w.key("max");
    match h.max() {
        Some(m) => w.num(m),
        None => w.null(),
    };
    w.end_obj();
}

#[cfg(test)]
use tis_sim::json::Json;

#[cfg(test)]
impl MetricsRegistry {
    /// The tree-building exporter that [`MetricsDoc::render`] must match byte for byte.
    pub(crate) fn reference_json(&self, label: &str, makespan: Cycle) -> Json {
        let counters = Json::obj([
            ("coherence_reads", Json::UInt(self.coherence_reads)),
            ("coherence_writes", Json::UInt(self.coherence_writes)),
            ("coherence_atomics", Json::UInt(self.coherence_atomics)),
            ("l1_misses", Json::UInt(self.l1_misses)),
            ("remote_dirty_hits", Json::UInt(self.remote_dirty_hits)),
            ("noc_legs", Json::UInt(self.noc_legs)),
            ("noc_wait_cycles", Json::UInt(self.noc_wait_cycles)),
        ]);
        let histograms = Json::obj([
            ("access_latency", histogram_json(&self.access_latency)),
            ("noc_leg_wait", histogram_json(&self.noc_leg_wait)),
        ]);
        let series = |f: &dyn Fn(&MetricsSample) -> u64| {
            Json::Arr(self.samples.iter().map(|s| Json::UInt(f(s))).collect())
        };
        let per_core = |f: &dyn Fn(&MetricsSample) -> &Vec<u64>| {
            Json::Arr(
                self.samples
                    .iter()
                    .map(|s| Json::Arr(f(s).iter().map(|&v| Json::UInt(v)).collect()))
                    .collect(),
            )
        };
        let timeline = Json::obj([
            ("cycle", series(&|s| s.cycle)),
            ("tracker_in_flight", series(&|s| s.tracker_in_flight)),
            ("ready_queue_len", series(&|s| s.ready_queue_len)),
            ("core_busy_cycles", per_core(&|s| &s.core_busy_cycles)),
            ("core_idle_cycles", per_core(&|s| &s.core_idle_cycles)),
            ("mem_accesses", series(&|s| s.mem_accesses)),
            ("mem_stall_cycles", series(&|s| s.mem_stall_cycles)),
            ("dram_fetches", series(&|s| s.dram_fetches)),
            ("dram_writebacks", series(&|s| s.dram_writebacks)),
            ("invalidations", series(&|s| s.invalidations)),
            ("dirty_bounces", series(&|s| s.dirty_bounces)),
            ("noc_messages", series(&|s| s.noc_messages)),
            ("noc_flits", series(&|s| s.noc_flits)),
            ("noc_link_wait_cycles", series(&|s| s.noc_link_wait_cycles)),
            ("max_link_occupancy", series(&|s| s.max_link_occupancy)),
        ]);
        Json::obj([
            ("schema", Json::Str("tis-metrics-v1".to_string())),
            ("label", Json::Str(label.to_string())),
            ("makespan_cycles", Json::UInt(makespan)),
            ("sample_count", Json::UInt(self.samples.len() as u64)),
            ("counters", counters),
            ("histograms", histograms),
            ("timeline", timeline),
        ])
    }
}

#[cfg(test)]
fn histogram_json(h: &Histogram) -> Json {
    let q = |p: f64| match h.quantile(p) {
        Some(v) => Json::UInt(v),
        None => Json::Null,
    };
    Json::obj([
        ("count", Json::UInt(h.count())),
        ("mean", Json::Num(h.mean())),
        ("p50", q(0.50)),
        ("p90", q(0.90)),
        ("p99", q(0.99)),
        ("max", match h.max() {
            Some(m) => Json::Num(m),
            None => Json::Null,
        }),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_events_feed_the_counters_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.record_mem(&MemEvent::Coherence {
            cycle: 10,
            core: 0,
            kind: MemAccessKind::Read,
            latency: 40,
            l1_hit: false,
            remote_dirty: true,
        });
        m.record_mem(&MemEvent::Coherence {
            cycle: 12,
            core: 1,
            kind: MemAccessKind::Write,
            latency: 1,
            l1_hit: true,
            remote_dirty: false,
        });
        m.record_mem(&MemEvent::NocLeg { cycle: 15, from: 0, to: 3, flits: 4, wait_cycles: 9 });
        assert_eq!(m.coherence_reads + m.coherence_writes + m.coherence_atomics, 2);
        assert_eq!(m.noc_legs(), 1);
        let doc = Json::parse(&m.to_json("unit", 100).render()).expect("valid JSON");
        assert_eq!(doc.get("counters").unwrap().get("l1_misses"), Some(&Json::UInt(1)));
        assert_eq!(doc.get("counters").unwrap().get("noc_wait_cycles"), Some(&Json::UInt(9)));
        let lat = doc.get("histograms").unwrap().get("access_latency").unwrap();
        assert_eq!(lat.get("count"), Some(&Json::UInt(2)));
    }

    #[test]
    fn timeline_arrays_stay_parallel() {
        let mut m = MetricsRegistry::new();
        for cycle in [0u64, 1024, 2048] {
            m.push_sample(&MetricsSample {
                cycle,
                tracker_in_flight: cycle / 100,
                core_busy_cycles: vec![cycle, cycle / 2],
                core_idle_cycles: vec![0, cycle / 2],
                ..MetricsSample::default()
            });
        }
        let doc = Json::parse(&m.to_json("unit", 2048).render()).expect("valid JSON");
        let t = doc.get("timeline").unwrap();
        for key in ["cycle", "tracker_in_flight", "core_busy_cycles", "noc_flits"] {
            match t.get(key) {
                Some(Json::Arr(a)) => assert_eq!(a.len(), 3, "series {key}"),
                other => panic!("series {key} missing or not an array: {other:?}"),
            }
        }
    }
}
