//! Host-speed and simulated-fidelity benchmark of the TIS simulator.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/hostbench/Cargo.toml -- \
//!     --workload <fig09|stream-er|tenants> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one host thread. The workload's cells run back to back for `--seconds`
//! (at least three repetitions), every repetition's outputs are checked, and the end-to-end
//! metrics are printed by name with their units. Host times are scaled to calm host speed by
//! a calibration kernel timed between cells (see `calib.rs`). With `--trace 1` the time is
//! split between an untraced pass and a traced pass whose wrappers sit on the engine's layer
//! boundaries (see `trace.rs`); the per-layer metrics and the tracing overhead come from
//! comparing the two. The last line of standard output is one JSON object: the end-to-end
//! metrics without tracing, the per-layer metrics with it. The exit code is non-zero if any
//! check failed.

mod alloc;
mod calib;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use calib::Speedometer;
use trace::{Counts, Layer, Tracer, SAMPLE_EVERY};
use workloads::{CellOutcome, Fig09, Rep, Setup, StreamEr, Tenants, Tracers, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when none is given; the held-out seed for confirming a claimed gain is 7.
const DEFAULT_SEED: u64 = 1;
/// Fewest repetitions a pass makes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "fig09".to_string(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Per-platform (or whole-workload) totals over a pass's repetitions.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    run_s: f64,
    export_s: f64,
    tasks: u64,
    mem_accesses: u64,
    mem_stall_cycles: u64,
    noc_flits: u64,
    link_wait_cycles: u64,
    peak_resident: u64,
}

impl Acc {
    fn add(&mut self, cell: &CellOutcome) {
        self.run_s += cell.run_s;
        self.export_s += cell.export_s;
        if let Some(r) = &cell.report {
            self.tasks += r.tasks_retired;
            self.mem_accesses += r.memory_stats.accesses;
            self.mem_stall_cycles += r.memory_stats.stall_cycles;
            self.noc_flits += r.memory_stats.noc_flits;
            self.link_wait_cycles += r.memory_stats.noc_link_wait_cycles;
            self.peak_resident = self.peak_resident.max(r.peak_resident_tasks);
        }
    }

    fn timed_s(&self) -> f64 {
        self.run_s + self.export_s
    }
}

/// What one pass (untraced or traced) measured.
#[derive(Default)]
struct Pass {
    reps: usize,
    /// The host's slowdown over the pass and the kernel runs it comes from (see `calib`).
    slowdown: f64,
    kernel_runs: usize,
    setups: Vec<Setup>,
    /// Each cell's platform key and the host seconds of its timed phase (simulation plus
    /// export, set-up excluded) in every repetition, in run order.
    cell_s: Vec<(&'static str, Vec<f64>)>,
    /// Tasks one repetition retires.
    tasks_per_rep: u64,
    /// Keyed by platform key, plus `all`.
    groups: BTreeMap<&'static str, Acc>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Pass {
    fn absorb(&mut self, rep: &Rep, timed: bool) {
        for cell in &rep.cells {
            self.attempted += 1;
            if !cell.failures.is_empty() {
                self.failed += 1;
                self.failures
                    .extend(cell.failures.iter().map(|f| format!("{}: {f}", cell.label)));
            }
        }
        if !timed {
            return;
        }
        self.reps += 1;
        self.setups.push(rep.setup);
        self.cell_s.resize(rep.cells.len(), ("", Vec::new()));
        let mut this_rep = Acc::default();
        for (cell, (key, times)) in rep.cells.iter().zip(&mut self.cell_s) {
            *key = cell.platform.key();
            times.push(cell.run_s + cell.export_s);
            this_rep.add(cell);
            for key in [cell.platform.key(), "all"] {
                self.groups.entry(key).or_default().add(cell);
            }
        }
        self.tasks_per_rep = this_rep.tasks;
    }

    fn group(&self, key: &str) -> Acc {
        self.groups.get(key).copied().unwrap_or_default()
    }

    /// Median over repetitions of a set-up time, at calm host speed.
    fn median_setup(&self, f: impl Fn(&Setup) -> f64) -> f64 {
        median(self.setups.iter().map(f).collect()) / self.slowdown
    }

    /// Seconds of one repetition of the cells of `key` (a platform key, or `all`), each cell
    /// timed at its fastest repetition, at calm host speed. Interference from other tenants
    /// of the host only ever slows a repetition down, so the fastest one is the closest to the
    /// simulator's own speed; the kernel's slowdown then removes a slow spell that lasted the
    /// whole pass.
    fn fastest_rep_s(&self, key: &str) -> f64 {
        let host_s: f64 = self
            .cell_s
            .iter()
            .filter(|(k, _)| key == "all" || *k == key)
            .map(|(_, times)| times.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        host_s / self.slowdown
    }
}

/// Runs timed repetitions until `budget` has passed (and at least [`MIN_REPS`]), with the
/// calibration kernel run before each and between cells. Every cell's report is compared with
/// the same cell of `first`, the first untraced repetition, which the first call stores.
fn run_pass(
    workload: &dyn Workload,
    tracers: Option<&Tracers>,
    budget: Duration,
    first: &mut Option<Rep>,
    speed: &Speedometer,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    while pass.reps < MIN_REPS || start.elapsed() < budget {
        speed.sample();
        let mut rep = workload.rep(tracers, speed);
        if let Some(first) = first.as_ref() {
            for (cell, reference) in rep.cells.iter_mut().zip(&first.cells) {
                if cell.report != reference.report {
                    cell.failures
                        .push("report differs from the first untraced repetition".to_string());
                }
            }
        }
        // The first repetition of the process warms caches and the allocator up: it is
        // checked and becomes the reference, but its times are left out.
        pass.absorb(&rep, first.is_some());
        if first.is_none() {
            *first = Some(rep);
        }
    }
    (pass.kernel_runs, pass.slowdown) = speed.take_slowdown();
    pass
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over every cell's full report, so a host-only change can show bit-identity.
fn digest(rep: &Rep) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for cell in &rep.cells {
        for b in format!("{:?}", cell.report).bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn print_metric(m: &Metric, note: &str) {
    println!("  {:<40} {:>18.4} {:<14} {note}", m.name, m.value, m.unit);
}

/// The per-layer metrics of one group of cells, from the traced pass. Layer times are
/// estimated from the sampled calls and expressed as shares of the traced timed phase, with the
/// tracing overhead removed from both; the engine's self time is what the other layers leave.
/// The `ns_*` figures scale a share by the untraced pass's fastest time per repetition.
fn layer_metrics(tracers: &[Counts], traced: &Pass, untraced: &Pass, key: &str) -> Vec<Metric> {
    let t = traced.group(key);
    let traced_reps = traced.reps.max(1) as f64;
    let rep_s = untraced.fastest_rep_s(key);
    let tasks = t.tasks as f64;
    let count = |f: fn(&Counts) -> u64| tracers.iter().map(f).sum::<u64>() as f64;
    // Each tracer samples at its own rate, so estimates are summed, never the raw samples.
    let layer_s = |layer| {
        tracers
            .iter()
            .map(|c| c.layer_s(layer))
            .fold((0.0, 0.0), |(a, b), (i, o)| (a + i, b + o))
    };
    let steps = count(Counts::steps);
    let (_, step_s) = layer_s(Layer::Step);
    let (fabric_in, fabric_out) = layer_s(Layer::Fabric);
    let (source_in, source_out) = layer_s(Layer::Source);
    let (obs_in, obs_out) = layer_s(Layer::Obs);
    let fabric_ops = count(|c| c.fabric_ops);
    let polls = count(|c| c.polls);
    let traced_s = t.timed_s() - count(|c| c.overhead_ns) * 1e-9;
    let runtime = step_s - fabric_in - source_in - obs_in;
    let fabric = fabric_in + fabric_out;
    let source = source_in + source_out;
    let obs = obs_in + obs_out + t.export_s;
    let engine = traced_s - runtime - fabric - source - obs;
    let share = |s: f64| ratio(s, traced_s);
    let ns_per = |share: f64, count: f64| ratio(share * rep_s * 1e9, count / traced_reps);
    vec![
        metric("engine.steps_per_task", ratio(steps, tasks), "steps/task"),
        metric(
            "engine.waiting_share",
            ratio(count(|c| c.waiting_steps), steps),
            "fraction",
        ),
        metric("engine.self_share", share(engine), "fraction"),
        metric("engine.ns_per_step", ns_per(1.0, steps), "ns"),
        metric("runtime.self_share", share(runtime), "fraction"),
        metric("runtime.ns_per_task", ns_per(share(runtime), tasks), "ns"),
        metric("fabric.ops_per_task", ratio(fabric_ops, tasks), "ops/task"),
        metric(
            "fabric.fetch_success_ratio",
            ratio(count(|c| c.fetch_successes), count(|c| c.fetch_attempts)),
            "fraction",
        ),
        metric(
            "fabric.submit_reject_ratio",
            ratio(count(|c| c.submit_rejects), count(|c| c.submit_requests)),
            "fraction",
        ),
        metric("fabric.self_share", share(fabric), "fraction"),
        metric("fabric.ns_per_op", ns_per(share(fabric), fabric_ops), "ns"),
        metric("source.polls_per_task", ratio(polls, tasks), "polls/task"),
        metric(
            "source.blocked_share",
            ratio(count(|c| c.blocked_polls), polls),
            "fraction",
        ),
        metric("source.self_share", share(source), "fraction"),
        metric("source.peak_resident", t.peak_resident as f64, "tasks"),
        metric(
            "mem.accesses_per_task",
            ratio(t.mem_accesses as f64, tasks),
            "accesses/task",
        ),
        metric(
            "mem.stall_cycles_per_task",
            ratio(t.mem_stall_cycles as f64, tasks),
            "cycles/task",
        ),
        metric(
            "mem.noc_flits_per_task",
            ratio(t.noc_flits as f64, tasks),
            "flits/task",
        ),
        metric(
            "mem.link_wait_cycles",
            t.link_wait_cycles as f64 / traced_reps,
            "cycles",
        ),
        metric("obs.self_share", share(obs), "fraction"),
        metric(
            "obs.events_per_task",
            ratio(count(|c| c.obs_events), tasks),
            "events/task",
        ),
        metric("obs.export_share", share(t.export_s), "fraction"),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            std::process::exit(2);
        }
    };
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "fig09" => Box::new(Fig09::new()),
        "stream-er" => Box::new(StreamEr::new(args.seed)),
        "tenants" => Box::new(Tenants::new(args.seed)),
        other => {
            eprintln!("hostbench: unknown workload {other} (fig09, stream-er, tenants)");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    println!(
        "hostbench: workload {}, seed {}, {} s, {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace {
            "untraced then traced"
        } else {
            "untraced"
        }
    );

    let speed = Speedometer::new();
    let mut first = None;
    let untraced = run_pass(workload.as_ref(), None, budget, &mut first, &speed);
    let (heap, rss) = (alloc::peak_heap_mib(), peak_rss_mib());
    let traced = args.trace.then(|| {
        let tracers = Tracers(
            workload
                .platforms()
                .iter()
                .map(|&p| (p, Tracer::new()))
                .collect(),
        );
        let pass = run_pass(
            workload.as_ref(),
            Some(&tracers),
            budget,
            &mut first,
            &speed,
        );
        (tracers, pass)
    });
    let first = first.expect("a pass makes at least one repetition");

    let sim_cycles: u64 = first
        .cells
        .iter()
        .filter(|c| c.platform == tis_bench::Platform::Phentos)
        .filter_map(|c| c.report.as_ref())
        .map(|r| r.total_cycles)
        .sum();
    let end_to_end = vec![
        metric(
            "tasks_per_host_s",
            ratio(untraced.tasks_per_rep as f64, untraced.fastest_rep_s("all")),
            "tasks/s",
        ),
        metric("setup_s", untraced.median_setup(Setup::total_s), "s"),
        metric("peak_heap_mb", heap, "MiB"),
        metric("sim_cycles", sim_cycles as f64, "cycles"),
    ];
    let unvalidated = if workload.has_reference() {
        ""
    } else {
        "unvalidated: no reference"
    };
    println!("end-to-end (untraced, {} repetitions):", untraced.reps);
    print_metric(
        &end_to_end[0],
        &format!(
            "each cell at its fastest of {} repetitions, at calm host speed",
            untraced.reps
        ),
    );
    print_metric(
        &end_to_end[1],
        &format!("median of {} set-ups, at calm host speed", untraced.reps),
    );
    print_metric(&end_to_end[2], "most heap bytes live at once");
    print_metric(&end_to_end[3], unvalidated);
    print_metric(
        &metric("peak_rss_mb", rss, "MiB"),
        "VmHWM, includes allocator fragmentation",
    );
    print_metric(
        &metric("host_slowdown", untraced.slowdown, "x"),
        &format!(
            "tenth-percentile calibration kernel of {} runs over nominal; host times are divided by it",
            untraced.kernel_runs
        ),
    );
    if let Some(err) = first.paper_err_pct {
        print_metric(
            &metric("paper_err_pct", err, "%"),
            "Fig. 9 headline geomeans vs 2.13 / 13.19 / 6.20",
        );
    }
    if let Some(p99) = first.victim_p99_cycles {
        print_metric(
            &metric("victim_p99_cycles", p99 as f64, "cycles"),
            unvalidated,
        );
    }

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut failures = untraced.failures.clone();
    let mut json_metrics = end_to_end;
    if let Some((tracers, pass)) = &traced {
        attempted += pass.attempted;
        failed += pass.failed;
        failures.extend(pass.failures.iter().cloned());
        let (clock_ns, call_ns) = tracers.0[0].1.overheads_ns();
        println!(
            "per-layer (traced, {} repetitions, one call in {SAMPLE_EVERY} timed, \
             {clock_ns} ns per clock read and {call_ns} ns per counted call removed):",
            pass.reps
        );
        let counts: Vec<Counts> = tracers.0.iter().map(|(_, t)| t.counts()).collect();
        if counts.len() > 1 {
            for ((p, _), c) in tracers.0.iter().zip(&counts) {
                for m in layer_metrics(std::slice::from_ref(c), pass, &untraced, p.key()) {
                    print_metric(
                        &metric(format!("{}.{}", m.name, p.key()), m.value, m.unit),
                        "",
                    );
                }
            }
        }
        let mut layers = layer_metrics(&counts, pass, &untraced, "all");
        let setup = untraced.median_setup(Setup::total_s);
        layers.push(metric(
            "setup.generate_share",
            ratio(untraced.median_setup(|s| s.generate_s), setup),
            "fraction",
        ));
        layers.push(metric(
            "setup.preflight_share",
            ratio(untraced.median_setup(|s| s.preflight_s), setup),
            "fraction",
        ));
        let overhead = ratio(pass.fastest_rep_s("all"), untraced.fastest_rep_s("all")) - 1.0;
        layers.push(metric("trace.overhead", overhead, "fraction"));
        for m in &layers {
            print_metric(m, "");
        }
        let obs_export_s = untraced.group("all").export_s / untraced.reps as f64;
        print_metric(
            &metric("obs.export_s", obs_export_s, "s"),
            "untraced, per repetition",
        );
        print_metric(
            &metric(
                "setup.generate_s",
                untraced.median_setup(|s| s.generate_s),
                "s",
            ),
            "",
        );
        print_metric(
            &metric(
                "setup.preflight_s",
                untraced.median_setup(|s| s.preflight_s),
                "s",
            ),
            "",
        );
        json_metrics = layers;
    }
    let error_rate = ratio(failed as f64, attempted as f64);
    print_metric(
        &metric("error_rate", error_rate, "fraction"),
        &format!("{failed} of {attempted} cells failed"),
    );
    println!("  simulated-statistics digest {:016x}", digest(&first));
    for f in failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }

    let correct = failed == 0 && json_metrics.iter().all(|m| m.value.is_finite());
    println!("{}", json_line(correct, attempted, failed, &json_metrics));
    if !correct {
        std::process::exit(1);
    }
}
