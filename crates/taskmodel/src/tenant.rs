//! Multi-tenant co-scheduling: N independent task graphs merged into one op stream.
//!
//! The paper — and every sweep before this module — runs one task graph at a time. A serving
//! system runs *many*: independent clients (tenants) submit their own task graphs to one
//! machine, tasks arrive over time rather than all at cycle zero, and the metrics that matter
//! are per-tenant (makespan, turnaround percentiles, fairness) rather than aggregate speedup.
//!
//! [`TenantSource`] is the merged [`TaskSource`]: it owns one inner source per tenant (each
//! may itself be a bounded-window streaming source, so million-task tenants work unchanged),
//! assigns **global** SW IDs densely in pull order, remaps each tenant's dependence addresses
//! into a private window so tenants never alias, and gates each tenant's spawns behind a
//! deterministic [`ArrivalProcess`]. Per-task turnaround (retire cycle − arrival cycle) is
//! accumulated into an exact per-tenant histogram, surfaced as [`TenantReport`]s through
//! `ExecutionReport`.
//!
//! # The degenerate case is byte-identical
//!
//! A 1-tenant set under [`ArrivalProcess::BatchAtZero`] and [`TenantTrackerPolicy::Shared`]
//! is a pure pass-through: global IDs equal the inner source's local IDs, the tenant-0
//! address offset is zero, `taskwait` ops are forwarded verbatim, and arrivals never gate —
//! so the merged source emits a bit-identical op stream and the run's `ExecutionReport`
//! matches the legacy single-program path field for field (the differential wall in
//! `tests/multi_tenant.rs` machine-enforces this across all four platforms).
//!
//! # Tenant-local barriers
//!
//! With more than one tenant, an inner `taskwait` must not barrier the whole machine: the
//! merged source consumes it internally and simply refuses to release that tenant's later
//! ops until the tenant's own in-flight count drains to zero — the same semantics at tenant
//! granularity, while other tenants keep the cores busy.
//!
//! # Tracker policy
//!
//! The Picos descriptor encoding has no spare bits for a tenant tag, so partitioning is
//! enforced at *admission*: [`TenantTrackerPolicy::Partitioned`] caps each tenant's in-flight
//! tasks at its share of the tracker's task-memory entries (see
//! `tis_picos::TrackerConfig::per_tenant_entries`), which reserves the remaining entries for
//! the other tenants exactly as a hard-partitioned task memory would.

use tis_sim::{FxHashMap, SimRng};

use crate::program::ProgramOp;
use crate::source::{SourcePoll, TaskSource};
use crate::task::{TaskId, TaskSpec};

/// Address-window shift per tenant: tenant `t`'s dependence addresses are offset by
/// `t << TENANT_ADDR_SHIFT`, so tenants can never alias as long as each tenant's own
/// addresses stay below `1 << TENANT_ADDR_SHIFT` (every generator in the workspace uses
/// addresses far below 2⁴⁰). Tenant 0's offset is zero — the degenerate case is untouched.
pub const TENANT_ADDR_SHIFT: u32 = 40;

/// When the k-th spawn of a tenant becomes *pullable* (simulated-cycle arrival time).
///
/// Arrival draws are a pure function of `(seed, process)` via [`SimRng::stream`] substreams,
/// so any arrival trace replays bit-exactly — the chaos/property suites rely on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// The whole graph is available at cycle 0 (the paper's implicit model).
    BatchAtZero,
    /// Open-loop Poisson arrivals: exponential interarrival gaps with the given mean,
    /// rounded to whole cycles and accumulated.
    Poisson {
        /// Mean interarrival gap in cycles.
        mean_interarrival: u64,
    },
    /// Deterministic on/off trace: spawns arrive in back-to-back bursts of `burst` tasks,
    /// one burst every `period` cycles (the k-th spawn arrives at `(k / burst) * period`).
    Bursty {
        /// Tasks per burst.
        burst: u64,
        /// Cycles between burst starts.
        period: u64,
    },
}

impl ArrivalProcess {
    /// Stable short key for experiment labels, e.g. `batch`, `poi200`, `burst256x100000`.
    pub fn key(&self) -> String {
        match self {
            ArrivalProcess::BatchAtZero => "batch".to_string(),
            ArrivalProcess::Poisson { mean_interarrival } => format!("poi{mean_interarrival}"),
            ArrivalProcess::Bursty { burst, period } => format!("burst{burst}x{period}"),
        }
    }
}

/// Deterministic arrival-time generator for one tenant: the k-th call to
/// [`next_arrival`](ArrivalGen::next_arrival) returns the arrival cycle of that tenant's
/// k-th spawn (non-decreasing).
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SimRng,
    clock: u64,
    generated: u64,
}

impl ArrivalGen {
    /// Creates a generator; `rng` should be a dedicated [`SimRng::stream`] substream so the
    /// trace is a pure function of `(seed, process)`.
    pub fn new(process: ArrivalProcess, rng: SimRng) -> Self {
        ArrivalGen { process, rng, clock: 0, generated: 0 }
    }

    /// Arrival cycle of the next spawn. Monotone non-decreasing across calls.
    pub fn next_arrival(&mut self) -> u64 {
        let arrival = match self.process {
            ArrivalProcess::BatchAtZero => 0,
            ArrivalProcess::Poisson { mean_interarrival } => {
                // Inverse-CDF exponential draw; `1 - u` is in (0, 1], so `ln` is finite and
                // the gap is bounded by ~37 × mean (u is a 53-bit uniform).
                let u = self.rng.next_f64();
                let gap = (-(1.0 - u).ln() * mean_interarrival as f64).round() as u64;
                self.clock = self.clock.checked_add(gap).expect("arrival clock overflows u64");
                self.clock
            }
            ArrivalProcess::Bursty { burst, period } => (self.generated / burst.max(1))
                .checked_mul(period)
                .expect("arrival clock overflows u64"),
        };
        self.generated += 1;
        arrival
    }
}

/// How tenants share the hardware tracker's task-memory entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantTrackerPolicy {
    /// All tenants compete for the full tracker (first come, first tracked).
    Shared,
    /// Each tenant's in-flight tasks are capped at `per_tenant_entries`, reserving the rest
    /// of the task memory for the other tenants (admission-enforced hard partitioning).
    Partitioned {
        /// In-flight task cap per tenant (typically `task_memory_entries / tenants`).
        per_tenant_entries: usize,
    },
}

impl TenantTrackerPolicy {
    /// Stable short key for experiment labels, e.g. `shared`, `part32`.
    pub fn key(&self) -> String {
        match self {
            TenantTrackerPolicy::Shared => "shared".to_string(),
            TenantTrackerPolicy::Partitioned { per_tenant_entries } => {
                format!("part{per_tenant_entries}")
            }
        }
    }
}

/// Per-tenant serving metrics, carried on `ExecutionReport::tenants`.
///
/// Two equal reports still describe bit-identical executions: every field here is a pure
/// function of the simulated schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Tasks retired by this tenant.
    pub tasks: u64,
    /// Arrival cycle of the tenant's first released spawn.
    pub first_arrival: u64,
    /// Retire cycle of the tenant's last task.
    pub last_retire: u64,
    /// `last_retire − first_arrival`: the tenant's own makespan.
    pub makespan: u64,
    /// Sum of per-task turnarounds (retire − arrival), for sum-consistency checks.
    pub turnaround_total: u64,
    /// Exact (nearest-rank) median task turnaround in cycles.
    pub p50: u64,
    /// Exact 90th-percentile task turnaround in cycles.
    pub p90: u64,
    /// Exact 99th-percentile task turnaround in cycles.
    pub p99: u64,
}

impl TenantReport {
    /// Mean task turnaround in cycles.
    pub fn mean_turnaround(&self) -> f64 {
        if self.tasks == 0 {
            return 0.0;
        }
        self.turnaround_total as f64 / self.tasks as f64
    }

    /// Task throughput over the tenant's own makespan, in tasks per cycle.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.tasks as f64 / self.makespan as f64
    }
}

/// One tenant: a name, its own task stream, and its arrival process.
#[derive(Debug)]
pub struct TenantSpec {
    /// Tenant name (used in reports and trace track groups).
    pub name: String,
    /// The tenant's own op stream (materialized or streaming).
    pub source: Box<dyn TaskSource>,
    /// When the tenant's spawns become pullable.
    pub arrival: ArrivalProcess,
}

/// Builder for a multi-tenant scenario: N tenants plus the tracker-sharing policy.
#[derive(Debug, Default)]
pub struct TenantSet {
    tenants: Vec<TenantSpec>,
    policy: Option<TenantTrackerPolicy>,
}

impl TenantSet {
    /// An empty set (add tenants with [`tenant`](TenantSet::tenant)).
    pub fn new() -> Self {
        TenantSet::default()
    }

    /// Adds a tenant.
    pub fn tenant(
        mut self,
        name: impl Into<String>,
        source: Box<dyn TaskSource>,
        arrival: ArrivalProcess,
    ) -> Self {
        self.tenants.push(TenantSpec { name: name.into(), source, arrival });
        self
    }

    /// Sets the tracker-sharing policy (default: [`TenantTrackerPolicy::Shared`]).
    pub fn with_policy(mut self, policy: TenantTrackerPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Number of tenants added so far.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenant has been added yet.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Builds the merged [`TaskSource`]. `rng` seeds the per-tenant arrival substreams
    /// (tenant `t` draws from `rng.stream("tenant-arrivals", t)`), so the whole scenario is a
    /// pure function of `(rng seed, tenant specs, policy)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn into_source(self, rng: SimRng) -> TenantSource {
        assert!(!self.tenants.is_empty(), "a tenant set needs at least one tenant");
        let policy = self.policy.unwrap_or(TenantTrackerPolicy::Shared);
        let name = format!(
            "tenants[{}]",
            self.tenants.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join("+")
        );
        let max_deps = self.tenants.iter().map(|t| t.source.max_deps()).max().unwrap_or(0);
        let tenants = self
            .tenants
            .into_iter()
            .enumerate()
            .map(|(i, spec)| TenantState {
                name: spec.name,
                source: spec.source,
                arrivals: ArrivalGen::new(spec.arrival, rng.stream("tenant-arrivals", i as u64)),
                pending: None,
                done: false,
                gated: false,
                resident: 0,
                first_arrival: None,
                last_retire: 0,
                turnaround_total: 0,
                tasks_retired: 0,
                histogram: FxHashMap::default(),
            })
            .collect();
        TenantSource {
            name,
            tenants,
            policy,
            now: 0,
            cursor: 0,
            next_global: 0,
            resident: FxHashMap::default(),
            peak_resident: 0,
            assignment: Vec::new(),
            max_deps,
        }
    }
}

/// An op the merged source pulled from a tenant but has not released yet.
#[derive(Debug)]
enum PendingOp {
    /// A spawn waiting for its arrival time and/or a free admission slot.
    Spawn { spec: TaskSpec, arrival: u64 },
    /// A tenant-local barrier waiting to be consumed.
    Wait,
}

/// Per-tenant live state inside the merged source.
#[derive(Debug)]
struct TenantState {
    name: String,
    source: Box<dyn TaskSource>,
    arrivals: ArrivalGen,
    pending: Option<PendingOp>,
    /// Inner source answered `Done` (fused).
    done: bool,
    /// A tenant-local `taskwait` is draining: no more pulls until `resident == 0`.
    gated: bool,
    /// Tenant tasks currently in flight (released, not yet retired).
    resident: u64,
    first_arrival: Option<u64>,
    last_retire: u64,
    turnaround_total: u64,
    tasks_retired: u64,
    /// Exact turnaround distribution: value → count.
    histogram: FxHashMap<u64, u64>,
}

/// A resident (released, unretired) task's bookkeeping in the merged source.
#[derive(Debug)]
struct ResidentTask {
    tenant: u32,
    local_id: u64,
    arrival: u64,
    spec: TaskSpec,
}

/// Everything the post-run consumers (per-tenant traces, per-tenant critical paths) need
/// beyond the [`TenantReport`]s: the tenant names and the global-ID → tenant assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantRunData {
    /// Tenant names, indexed by tenant.
    pub names: Vec<String>,
    /// `assignment[global_sw_id]` is the tenant index that spawned that task, in global
    /// spawn order.
    pub assignment: Vec<u32>,
}

/// The merged multi-tenant [`TaskSource`] built by [`TenantSet::into_source`].
#[derive(Debug)]
pub struct TenantSource {
    name: String,
    tenants: Vec<TenantState>,
    policy: TenantTrackerPolicy,
    /// Latest main-core time observed through [`TaskSource::advance_to`]; arrivals gate on it.
    now: u64,
    /// Round-robin release cursor, advanced after every released spawn.
    cursor: usize,
    next_global: u64,
    resident: FxHashMap<u64, ResidentTask>,
    peak_resident: usize,
    assignment: Vec<u32>,
    max_deps: usize,
}

impl TenantSource {
    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The tracker-sharing policy in force.
    pub fn policy(&self) -> TenantTrackerPolicy {
        self.policy
    }

    /// Takes the tenant names + global-ID assignment out of the source (call after the run;
    /// the assignment vector is left empty).
    pub fn take_run_data(&mut self) -> TenantRunData {
        TenantRunData {
            names: self.tenants.iter().map(|t| t.name.clone()).collect(),
            assignment: std::mem::take(&mut self.assignment),
        }
    }

    /// Whether tenant `t` is at its admission cap under the current policy.
    fn quota_full(&self, t: usize) -> bool {
        match self.policy {
            TenantTrackerPolicy::Shared => false,
            TenantTrackerPolicy::Partitioned { per_tenant_entries } => {
                self.tenants[t].resident as usize >= per_tenant_entries.max(1)
            }
        }
    }

    /// Releases tenant `t`'s pending spawn: assigns the next global SW ID, remaps the
    /// dependence addresses into the tenant's private window, and records the arrival.
    fn release_spawn(&mut self, t: usize, spec: TaskSpec, arrival: u64) -> SourcePoll {
        let global = self.next_global;
        self.next_global += 1;
        let offset = (t as u64) << TENANT_ADDR_SHIFT;
        let mut deps = spec.deps.clone();
        for d in &mut deps {
            debug_assert!(
                d.addr < 1u64 << TENANT_ADDR_SHIFT,
                "tenant address {:#x} collides with the tenant window",
                d.addr
            );
            d.addr += offset;
        }
        let local_id = spec.id.raw();
        let remapped = TaskSpec::new(TaskId(global), spec.payload, deps);
        let state = &mut self.tenants[t];
        state.resident += 1;
        if state.first_arrival.is_none() {
            state.first_arrival = Some(arrival);
        }
        self.resident.insert(
            global,
            ResidentTask { tenant: t as u32, local_id, arrival, spec: remapped.clone() },
        );
        self.peak_resident = self.peak_resident.max(self.resident.len());
        self.assignment.push(t as u32);
        self.cursor = (t + 1) % self.tenants.len();
        SourcePoll::Op(ProgramOp::Spawn(remapped))
    }
}

impl TaskSource for TenantSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn poll(&mut self) -> SourcePoll {
        let n = self.tenants.len();
        for offset in 0..n {
            let t = (self.cursor + offset) % n;
            loop {
                {
                    let state = &mut self.tenants[t];
                    if state.gated && state.resident == 0 {
                        state.gated = false;
                    }
                    if state.done || state.gated {
                        break;
                    }
                    if state.pending.is_none() {
                        match state.source.poll() {
                            SourcePoll::Op(ProgramOp::Spawn(spec)) => {
                                let arrival = state.arrivals.next_arrival();
                                state.pending = Some(PendingOp::Spawn { spec, arrival });
                            }
                            SourcePoll::Op(ProgramOp::TaskWait) => {
                                state.pending = Some(PendingOp::Wait);
                            }
                            // Inner window full: the tenant's in-flight set contains runnable
                            // work, so the run always makes progress.
                            SourcePoll::Blocked => break,
                            SourcePoll::Done => {
                                state.done = true;
                                break;
                            }
                        }
                    }
                }
                let releasable = match self.tenants[t].pending.as_ref() {
                    Some(PendingOp::Wait) => true,
                    Some(PendingOp::Spawn { arrival, .. }) => {
                        *arrival <= self.now && !self.quota_full(t)
                    }
                    None => unreachable!("pending op was just filled"),
                };
                if !releasable {
                    break; // not yet arrived / admission cap: keep it pending
                }
                match self.tenants[t].pending.take() {
                    Some(PendingOp::Wait) => {
                        if n == 1 {
                            // Degenerate single-tenant case: forward the barrier verbatim so
                            // the op stream stays bit-identical to the inner source.
                            return SourcePoll::Op(ProgramOp::TaskWait);
                        }
                        // Tenant-local barrier: drain this tenant's own in-flight set before
                        // releasing its later ops; other tenants are unaffected.
                        self.tenants[t].gated = self.tenants[t].resident > 0;
                        continue;
                    }
                    Some(PendingOp::Spawn { spec, arrival }) => {
                        return self.release_spawn(t, spec, arrival);
                    }
                    None => unreachable!("pending op was just matched"),
                }
            }
        }
        if self.tenants.iter().all(|t| t.done && t.pending.is_none()) {
            SourcePoll::Done
        } else {
            SourcePoll::Blocked
        }
    }

    fn spec(&self, sw_id: u64) -> &TaskSpec {
        &self
            .resident
            .get(&sw_id)
            .unwrap_or_else(|| panic!("T{sw_id} is not resident (released and unretired)"))
            .spec
    }

    fn retire(&mut self, sw_id: u64) {
        let now = self.now;
        self.retire_at(sw_id, now);
    }

    fn retire_at(&mut self, sw_id: u64, now: u64) {
        let task = self
            .resident
            .remove(&sw_id)
            .unwrap_or_else(|| panic!("retire of non-resident task T{sw_id}"));
        let state = &mut self.tenants[task.tenant as usize];
        debug_assert!(state.resident > 0, "tenant retire with no resident tasks");
        state.resident -= 1;
        state.source.retire_at(task.local_id, now);
        state.tasks_retired += 1;
        state.last_retire = state.last_retire.max(now);
        let turnaround = now.saturating_sub(task.arrival);
        state.turnaround_total = state
            .turnaround_total
            .checked_add(turnaround)
            .expect("tenant turnaround total overflows u64");
        *state.histogram.entry(turnaround).or_insert(0) += 1;
    }

    fn advance_to(&mut self, now: u64) {
        self.now = self.now.max(now);
    }

    fn blocked_until(&self) -> Option<u64> {
        let mut until = u64::MAX;
        for (t, state) in self.tenants.iter().enumerate() {
            // A finished tenant, a draining barrier or an admission cap only moves on a retire.
            if state.done || (state.gated && state.resident > 0) {
                continue;
            }
            match &state.pending {
                Some(PendingOp::Spawn { .. }) if self.quota_full(t) => {}
                Some(PendingOp::Spawn { arrival, .. }) if *arrival > self.now => {
                    until = until.min(*arrival);
                }
                // An inner source that answered Blocked holds nothing pending.
                None => until = until.min(state.source.blocked_until()?),
                _ => return None,
            }
        }
        Some(until)
    }

    fn max_deps(&self) -> usize {
        self.max_deps
    }

    fn resident(&self) -> usize {
        self.resident.len()
    }

    fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    fn tenant_reports(&self) -> Vec<TenantReport> {
        self.tenants
            .iter()
            .map(|t| {
                let (p50, p90, p99) = exact_percentiles(&t.histogram, t.tasks_retired);
                let first = t.first_arrival.unwrap_or(0);
                TenantReport {
                    name: t.name.clone(),
                    tasks: t.tasks_retired,
                    first_arrival: first,
                    last_retire: t.last_retire,
                    makespan: t.last_retire.saturating_sub(first),
                    turnaround_total: t.turnaround_total,
                    p50,
                    p90,
                    p99,
                }
            })
            .collect()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// Exact nearest-rank percentiles over a value → count histogram: the p-th percentile is the
/// smallest value whose cumulative count reaches `ceil(p/100 × total)`.
fn exact_percentiles(histogram: &FxHashMap<u64, u64>, total: u64) -> (u64, u64, u64) {
    if total == 0 {
        return (0, 0, 0);
    }
    let mut values: Vec<(u64, u64)> = histogram.iter().map(|(&v, &c)| (v, c)).collect();
    values.sort_unstable();
    let rank = |p: u64| total.saturating_mul(p).div_ceil(100).max(1);
    let mut targets = [(rank(50), 0u64), (rank(90), 0u64), (rank(99), 0u64)];
    let mut cumulative = 0u64;
    for (value, count) in values {
        cumulative += count;
        for (target, out) in &mut targets {
            if *target != u64::MAX && cumulative >= *target {
                *out = value;
                *target = u64::MAX; // resolved
            }
        }
        if targets.iter().all(|(t, _)| *t == u64::MAX) {
            break;
        }
    }
    (targets[0].1, targets[1].1, targets[2].1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dep::Dependence;
    use crate::program::ProgramBuilder;
    use crate::source::MaterializedSource;
    use crate::task::Payload;

    fn chain(name: &str, tasks: u64) -> Box<dyn TaskSource> {
        let mut b = ProgramBuilder::new(name);
        for i in 0..tasks {
            let mut deps = vec![Dependence::write(0x1000 + i * 64)];
            if i > 0 {
                deps.push(Dependence::read(0x1000 + (i - 1) * 64));
            }
            b.spawn(Payload::compute(100), deps);
        }
        b.taskwait();
        Box::new(MaterializedSource::new(&b.build()))
    }

    fn drain(src: &mut TenantSource, now: u64) -> Vec<ProgramOp> {
        src.advance_to(now);
        let mut ops = Vec::new();
        loop {
            match src.poll() {
                SourcePoll::Op(op) => {
                    if let ProgramOp::Spawn(s) = &op {
                        src.retire_at(s.id.raw(), now + 1);
                    }
                    ops.push(op);
                }
                SourcePoll::Blocked => break,
                SourcePoll::Done => break,
            }
        }
        ops
    }

    #[test]
    fn single_tenant_batch_is_a_pure_passthrough() {
        let mut b = ProgramBuilder::new("p");
        b.spawn(Payload::compute(10), vec![Dependence::write(0x10)]);
        b.spawn(Payload::compute(20), vec![Dependence::read(0x10), Dependence::write(0x20)]);
        b.taskwait();
        b.spawn(Payload::compute(30), vec![]);
        let program = b.build();

        let mut merged = TenantSet::new()
            .tenant("solo", Box::new(MaterializedSource::new(&program)), ArrivalProcess::BatchAtZero)
            .into_source(SimRng::new(7));
        let mut inner = MaterializedSource::new(&program);

        loop {
            let got = merged.poll();
            let want = inner.poll();
            assert_eq!(got, want, "merged 1-tenant stream must be bit-identical");
            match got {
                SourcePoll::Op(ProgramOp::Spawn(s)) => {
                    assert_eq!(merged.spec(s.id.raw()), inner.spec(s.id.raw()));
                    merged.retire_at(s.id.raw(), 5);
                    inner.retire(s.id.raw());
                }
                SourcePoll::Done => break,
                _ => {}
            }
        }
        let reports = merged.tenant_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tasks, 3);
        assert_eq!(reports[0].first_arrival, 0);
    }

    #[test]
    fn two_tenants_interleave_with_disjoint_addresses_and_dense_global_ids() {
        let mut src = TenantSet::new()
            .tenant("a", chain("a", 3), ArrivalProcess::BatchAtZero)
            .tenant("b", chain("b", 3), ArrivalProcess::BatchAtZero)
            .into_source(SimRng::new(1));
        let ops = drain(&mut src, 0);
        let spawns: Vec<&TaskSpec> = ops
            .iter()
            .filter_map(|op| match op {
                ProgramOp::Spawn(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(spawns.len(), 6);
        // Global IDs are dense in release order.
        for (i, s) in spawns.iter().enumerate() {
            assert_eq!(s.id.raw(), i as u64);
        }
        // Round-robin: tenants alternate while both are pullable.
        let mut data = src.take_run_data();
        assert_eq!(data.names, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(data.assignment, vec![0, 1, 0, 1, 0, 1]);
        // Tenant-local `taskwait`s were consumed internally, never forwarded.
        assert!(ops.iter().all(|op| !matches!(op, ProgramOp::TaskWait)));
        // Tenant 1's addresses live in a disjoint window.
        for s in &spawns {
            let tenant = data.assignment[s.id.raw() as usize];
            for d in &s.deps {
                assert_eq!(d.addr >> TENANT_ADDR_SHIFT, tenant as u64);
            }
        }
        // Taking the run data drains the assignment.
        data = src.take_run_data();
        assert!(data.assignment.is_empty());
    }

    #[test]
    fn arrivals_gate_spawns_until_time_advances() {
        let mut src = TenantSet::new()
            .tenant("t", chain("t", 4), ArrivalProcess::Bursty { burst: 2, period: 1_000 })
            .into_source(SimRng::new(2));
        // At time 0 only the first burst (2 tasks) is pullable.
        src.advance_to(0);
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert_eq!(src.poll(), SourcePoll::Blocked);
        // The second burst arrives at cycle 1000.
        src.advance_to(999);
        assert_eq!(src.poll(), SourcePoll::Blocked);
        src.advance_to(1_000);
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
    }

    #[test]
    fn partitioned_policy_caps_per_tenant_in_flight() {
        let mut src = TenantSet::new()
            .tenant("greedy", chain("g", 8), ArrivalProcess::BatchAtZero)
            .with_policy(TenantTrackerPolicy::Partitioned { per_tenant_entries: 2 })
            .into_source(SimRng::new(3));
        src.advance_to(0);
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert_eq!(src.poll(), SourcePoll::Blocked, "admission cap reached");
        src.retire_at(0, 10);
        assert!(matches!(src.poll(), SourcePoll::Op(ProgramOp::Spawn(_))));
        assert_eq!(src.resident(), 2);
    }

    #[test]
    fn turnaround_percentiles_are_exact_nearest_rank() {
        let mut h = FxHashMap::default();
        // 100 samples: values 1..=100, one each.
        for v in 1..=100u64 {
            h.insert(v, 1);
        }
        assert_eq!(exact_percentiles(&h, 100), (50, 90, 99));
        // Skewed: 99 fast + 1 slow.
        let mut h = FxHashMap::default();
        h.insert(10, 99);
        h.insert(1_000, 1);
        assert_eq!(exact_percentiles(&h, 100), (10, 10, 10));
        let mut h = FxHashMap::default();
        h.insert(10, 98);
        h.insert(1_000, 2);
        assert_eq!(exact_percentiles(&h, 100), (10, 10, 1_000));
        assert_eq!(exact_percentiles(&FxHashMap::default(), 0), (0, 0, 0));
    }

    #[test]
    fn poisson_arrivals_replay_bit_exact_from_seed_and_config() {
        let process = ArrivalProcess::Poisson { mean_interarrival: 250 };
        let a: Vec<u64> = {
            let mut g = ArrivalGen::new(process, SimRng::new(9).stream("tenant-arrivals", 0));
            (0..500).map(|_| g.next_arrival()).collect()
        };
        let b: Vec<u64> = {
            let mut g = ArrivalGen::new(process, SimRng::new(9).stream("tenant-arrivals", 0));
            (0..500).map(|_| g.next_arrival()).collect()
        };
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals are monotone");
        let mean_gap = a.last().unwrap() / 499;
        assert!((100..=500).contains(&mean_gap), "mean gap {mean_gap} far from 250");
    }

    #[test]
    fn tenant_reports_sum_to_the_released_task_count() {
        let mut src = TenantSet::new()
            .tenant("a", chain("a", 5), ArrivalProcess::BatchAtZero)
            .tenant("b", chain("b", 3), ArrivalProcess::Poisson { mean_interarrival: 1 })
            .into_source(SimRng::new(4));
        let _ = drain(&mut src, 1_000_000);
        let reports = src.tenant_reports();
        assert_eq!(reports.iter().map(|r| r.tasks).sum::<u64>(), 8);
        for r in &reports {
            assert!(r.p50 <= r.p90 && r.p90 <= r.p99);
            assert!(r.turnaround_total >= r.p50 * (r.tasks / 2));
        }
    }
}
