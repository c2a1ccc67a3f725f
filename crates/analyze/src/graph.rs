//! Preflight static analysis of task dependence graphs.
//!
//! Every experiment's graph passes through [`analyze_graph`] (usually via the
//! [`analyze_program`] convenience) before any cell runs. The checks are the
//! classic preflight trio — cycles, dangling references, duplicates — plus a
//! scheduling-specific one: *conflict coverage*. Two tasks conflict when they
//! declare accesses to the same address and at least one writes (RaW, WaR or
//! WaW); sequential task semantics require every such pair to be ordered. The
//! analysis enumerates the conflict frontier per address (exactly the pairs
//! the reference graph builder orders) and proves each pair is covered by a
//! direct edge, a taskwait phase boundary, or a transitive edge path.
//!
//! Covering the *frontier* suffices for all conflicting pairs: per address the
//! frontier chains writer → readers → next writer, so any two conflicting
//! accesses are connected by a path of frontier pairs, and happens-before is
//! transitive.

use tis_sim::{FxHashMap, FxHashSet};
use tis_taskmodel::{DepAddr, Dependence, TaskId, TaskProgram};

/// A task graph in analyzable form: plain edge list plus per-task metadata.
///
/// Fields are public so tests (and mutation studies) can corrupt a valid
/// graph — drop an edge, retarget one — and verify the analyses catch it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSpec {
    /// Number of tasks; ids are dense `0..tasks` in spawn order.
    pub tasks: usize,
    /// Ordering edges `(from, to)`: `to` may not dispatch before `from` retires.
    pub edges: Vec<(usize, usize)>,
    /// Taskwait phase of each task; a barrier separates adjacent phases.
    pub phase: Vec<usize>,
    /// Declared dependences of each task, in declaration order.
    pub deps: Vec<Vec<Dependence>>,
}

impl GraphSpec {
    /// Extracts the analyzable form of a program: the reference dependence
    /// graph's edges and phases plus each task's declared accesses.
    pub fn from_program(program: &TaskProgram) -> Self {
        let graph = program.reference_graph();
        let n = graph.task_count();
        let mut edges = Vec::with_capacity(graph.edge_count());
        let mut phase = Vec::with_capacity(n);
        for from in 0..n {
            let id = TaskId(from as u64);
            phase.push(graph.phase(id));
            for to in graph.successors(id) {
                edges.push((from, to.raw() as usize));
            }
        }
        let mut deps = vec![Vec::new(); n];
        for spec in program.tasks() {
            deps[spec.id.raw() as usize] = spec.deps.clone();
        }
        GraphSpec { tasks: n, edges, phase, deps }
    }

    /// Successor adjacency built from the edge list (no dedup, no checks).
    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.tasks];
        for &(from, to) in &self.edges {
            adj[from].push(to);
        }
        adj
    }
}

/// A structural or coverage defect found by [`analyze_graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The spec's per-task vectors do not match its task count.
    Malformed {
        /// What is inconsistent.
        detail: String,
    },
    /// An edge endpoint references a task id outside `0..tasks`.
    DanglingEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// The same ordering edge appears more than once.
    DuplicateEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// A task declares the same address twice.
    DuplicateDependence {
        /// The offending task.
        task: usize,
        /// The address declared more than once.
        addr: DepAddr,
    },
    /// The ordering edges contain a cycle; no schedule can satisfy them.
    Cycle {
        /// One witness cycle: a path of task ids whose last edge closes back
        /// on the first element.
        path: Vec<usize>,
    },
    /// Two tasks conflict on an address but no edge, phase boundary, or
    /// transitive path orders them — the scheduler would be free to race them.
    UncoveredConflict {
        /// The earlier task (spawn order).
        earlier: usize,
        /// The later task (spawn order).
        later: usize,
        /// The shared address.
        addr: DepAddr,
        /// The earlier task's declared access to `addr`.
        earlier_access: Dependence,
        /// The later task's declared access to `addr`.
        later_access: Dependence,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::Malformed { detail } => write!(f, "malformed graph spec: {detail}"),
            GraphError::DanglingEdge { from, to } => {
                write!(f, "edge ({from} -> {to}) references a task outside the graph")
            }
            GraphError::DuplicateEdge { from, to } => {
                write!(f, "edge ({from} -> {to}) appears more than once")
            }
            GraphError::DuplicateDependence { task, addr } => {
                write!(f, "task {task} declares address {addr:#x} more than once")
            }
            GraphError::Cycle { path } => {
                write!(f, "dependence cycle through tasks {path:?}")
            }
            GraphError::UncoveredConflict { earlier, later, addr, .. } => {
                write!(
                    f,
                    "tasks {earlier} and {later} conflict on {addr:#x} but nothing orders them"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Summary of a successful preflight analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphAnalysis {
    /// Tasks in the graph.
    pub tasks: usize,
    /// Ordering edges.
    pub edges: usize,
    /// Taskwait phases (1 for a barrier-free program, 0 for an empty one).
    pub phases: usize,
    /// Conflicting frontier pairs examined.
    pub conflict_pairs: usize,
    /// Pairs covered by a direct ordering edge.
    pub covered_by_edge: usize,
    /// Pairs covered by a taskwait phase boundary.
    pub covered_by_phase: usize,
    /// Pairs covered only by a transitive edge path.
    pub covered_transitively: usize,
}

/// Runs the full preflight analysis on a program.
///
/// Equivalent to `analyze_graph(&GraphSpec::from_program(program))`.
pub fn analyze_program(program: &TaskProgram) -> Result<GraphAnalysis, GraphError> {
    analyze_graph(&GraphSpec::from_program(program))
}

/// The preflight chokepoint: structural checks, cycle detection, and conflict
/// coverage, in that order. Returns the first defect found.
pub fn analyze_graph(spec: &GraphSpec) -> Result<GraphAnalysis, GraphError> {
    if spec.phase.len() != spec.tasks {
        return Err(GraphError::Malformed {
            detail: format!("{} phases for {} tasks", spec.phase.len(), spec.tasks),
        });
    }
    if spec.deps.len() != spec.tasks {
        return Err(GraphError::Malformed {
            detail: format!("{} dep lists for {} tasks", spec.deps.len(), spec.tasks),
        });
    }

    // Dangling and duplicate edges.
    let mut seen = FxHashSet::with_capacity_and_hasher(spec.edges.len(), Default::default());
    for &(from, to) in &spec.edges {
        if from >= spec.tasks || to >= spec.tasks {
            return Err(GraphError::DanglingEdge { from, to });
        }
        if !seen.insert((from, to)) {
            return Err(GraphError::DuplicateEdge { from, to });
        }
    }

    // Duplicate declared addresses (mirrors `TaskSpec::validate`, but also
    // covers hand-built specs that never went through a builder).
    for (task, deps) in spec.deps.iter().enumerate() {
        for (i, dep) in deps.iter().enumerate() {
            if deps[..i].iter().any(|d| d.addr == dep.addr) {
                return Err(GraphError::DuplicateDependence { task, addr: dep.addr });
            }
        }
    }

    let adj = spec.adjacency();
    find_cycle(&adj)?;
    let coverage = check_conflict_coverage(spec, &adj)?;

    Ok(GraphAnalysis {
        tasks: spec.tasks,
        edges: spec.edges.len(),
        phases: spec.phase.iter().copied().max().map_or(0, |p| p + 1),
        conflict_pairs: coverage.0,
        covered_by_edge: coverage.1,
        covered_by_phase: coverage.2,
        covered_transitively: coverage.3,
    })
}

/// Iterative three-colour DFS. White = unvisited, grey = on the current DFS
/// path, black = finished. A grey→grey edge closes a cycle; the witness path
/// is the grey stack segment from the re-entered node to the top.
///
/// Iterative on an explicit stack: catalog chains run to tens of thousands of
/// tasks, far past any recursion limit.
fn find_cycle(adj: &[Vec<usize>]) -> Result<(), GraphError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; adj.len()];
    // (node, index of the next successor to visit)
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for root in 0..adj.len() {
        if colour[root] != Colour::White {
            continue;
        }
        colour[root] = Colour::Grey;
        stack.push((root, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&succ) = adj[node].get(*next) {
                *next += 1;
                match colour[succ] {
                    Colour::White => {
                        colour[succ] = Colour::Grey;
                        stack.push((succ, 0));
                    }
                    Colour::Grey => {
                        let start = stack.iter().position(|&(n, _)| n == succ).unwrap();
                        let path = stack[start..].iter().map(|&(n, _)| n).collect();
                        return Err(GraphError::Cycle { path });
                    }
                    Colour::Black => {}
                }
            } else {
                colour[node] = Colour::Black;
                stack.pop();
            }
        }
    }
    Ok(())
}

/// One conflicting task pair on the per-address frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictPair {
    /// The earlier task (spawn order).
    pub earlier: usize,
    /// The later task (spawn order).
    pub later: usize,
    /// The shared address.
    pub addr: DepAddr,
}

/// Enumerates the conflict frontier: for each declared access, the unique
/// earlier tasks it conflicts with (the last writer of its address plus, for
/// writes, the readers since that write) — exactly the pairs the reference
/// graph builder orders. Any two conflicting accesses are connected through
/// frontier pairs transitively, so ordering the frontier orders everything.
pub fn conflict_frontier(spec: &GraphSpec) -> Vec<ConflictPair> {
    #[derive(Default)]
    struct AddrState {
        last_writer: Option<usize>,
        readers_since_write: Vec<usize>,
    }

    let mut addr_state: FxHashMap<DepAddr, AddrState> = FxHashMap::default();
    let mut pairs = Vec::new();
    for idx in 0..spec.tasks {
        for dep in &spec.deps[idx] {
            let st = addr_state.entry(dep.addr).or_default();
            // Unique earlier tasks this access conflicts with. An InOut writer
            // appears both as last writer and in its own reader list, so
            // dedup before emitting.
            let mut earlier: Vec<usize> = Vec::new();
            if let Some(w) = st.last_writer {
                earlier.push(w);
            }
            if dep.dir.writes() {
                for &r in &st.readers_since_write {
                    if r != idx && !earlier.contains(&r) {
                        earlier.push(r);
                    }
                }
            }
            pairs.extend(
                earlier.iter().map(|&e| ConflictPair { earlier: e, later: idx, addr: dep.addr }),
            );
            if dep.dir.writes() {
                st.last_writer = Some(idx);
                st.readers_since_write.clear();
                if dep.dir.reads() {
                    st.readers_since_write.push(idx);
                }
            } else {
                st.readers_since_write.push(idx);
            }
        }
    }
    pairs
}

/// Proves every frontier conflict pair is ordered by a direct edge, a
/// taskwait phase boundary, or a transitive edge path.
///
/// Returns `(conflict_pairs, by_edge, by_phase, transitive)`.
fn check_conflict_coverage(
    spec: &GraphSpec,
    adj: &[Vec<usize>],
) -> Result<(usize, usize, usize, usize), GraphError> {
    let edge_set: FxHashSet<(usize, usize)> = spec.edges.iter().copied().collect();
    let frontier = conflict_frontier(spec);
    let pairs = frontier.len();
    let mut by_edge = 0usize;
    let mut by_phase = 0usize;
    let mut transitive = 0usize;

    for ConflictPair { earlier, later, addr } in frontier {
        if edge_set.contains(&(earlier, later)) {
            by_edge += 1;
        } else if spec.phase[earlier] != spec.phase[later] {
            by_phase += 1;
        } else if reaches(adj, earlier, later) {
            transitive += 1;
        } else {
            let access_to = |task: usize| {
                spec.deps[task]
                    .iter()
                    .find(|d| d.addr == addr)
                    .copied()
                    .expect("conflict pair tasks both declare the address")
            };
            return Err(GraphError::UncoveredConflict {
                earlier,
                later,
                addr,
                earlier_access: access_to(earlier),
                later_access: access_to(later),
            });
        }
    }
    Ok((pairs, by_edge, by_phase, transitive))
}

/// Breadth-first reachability over ordering edges. Only consulted for pairs
/// not already covered by a direct edge or phase boundary, which is rare in
/// practice (the reference builder emits direct frontier edges).
fn reaches(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
    let mut visited = vec![false; adj.len()];
    let mut queue = std::collections::VecDeque::new();
    visited[from] = true;
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        for &succ in &adj[node] {
            if succ == to {
                return true;
            }
            if !visited[succ] {
                visited[succ] = true;
                queue.push_back(succ);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use tis_taskmodel::{Payload, ProgramBuilder};

    fn chain(n: usize) -> TaskProgram {
        let mut b = ProgramBuilder::new("chain");
        for _ in 0..n {
            b.spawn(Payload::compute(100), vec![Dependence::read_write(0x1000)]);
        }
        b.build()
    }

    #[test]
    fn clean_chain_passes_with_edge_coverage() {
        let a = analyze_program(&chain(100)).unwrap();
        assert_eq!(a.tasks, 100);
        assert_eq!(a.edges, 99);
        assert_eq!(a.conflict_pairs, 99);
        assert_eq!(a.covered_by_edge, 99);
        assert_eq!(a.covered_by_phase, 0);
        assert_eq!(a.covered_transitively, 0);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // The recursion-based DFS this guards against dies around a few
        // thousand frames; 50k proves the implementation is iterative.
        analyze_program(&chain(50_000)).unwrap();
    }

    #[test]
    fn dangling_edge_is_reported() {
        let mut spec = GraphSpec::from_program(&chain(3));
        spec.edges.push((1, 7));
        assert_eq!(analyze_graph(&spec), Err(GraphError::DanglingEdge { from: 1, to: 7 }));
    }

    #[test]
    fn duplicate_edge_is_reported() {
        let mut spec = GraphSpec::from_program(&chain(3));
        spec.edges.push(spec.edges[0]);
        let (from, to) = spec.edges[0];
        assert_eq!(analyze_graph(&spec), Err(GraphError::DuplicateEdge { from, to }));
    }

    #[test]
    fn duplicate_declared_address_is_reported() {
        let mut spec = GraphSpec::from_program(&chain(2));
        spec.deps[1].push(Dependence::read(0x1000));
        assert_eq!(
            analyze_graph(&spec),
            Err(GraphError::DuplicateDependence { task: 1, addr: 0x1000 })
        );
    }

    #[test]
    fn cycle_is_reported_with_a_witness_path() {
        let mut spec = GraphSpec::from_program(&chain(4));
        spec.edges.push((3, 1));
        match analyze_graph(&spec) {
            Err(GraphError::Cycle { path }) => {
                assert!(path.contains(&1) && path.contains(&3), "witness {path:?}");
                // The witness must actually be a cycle in the edge set.
                let edges: std::collections::HashSet<_> = spec.edges.iter().copied().collect();
                for i in 0..path.len() {
                    let a = path[i];
                    let b = path[(i + 1) % path.len()];
                    assert!(edges.contains(&(a, b)), "missing cycle edge {a}->{b}");
                }
            }
            other => panic!("expected cycle, got {other:?}"),
        }
    }

    #[test]
    fn dropped_edge_on_a_conflicting_pair_is_uncovered() {
        let mut spec = GraphSpec::from_program(&chain(3));
        spec.edges.retain(|&e| e != (1, 2));
        match analyze_graph(&spec) {
            Err(GraphError::UncoveredConflict { earlier: 1, later: 2, addr: 0x1000, .. }) => {}
            other => panic!("expected uncovered conflict, got {other:?}"),
        }
    }

    #[test]
    fn phase_boundary_covers_a_dropped_edge() {
        let mut b = ProgramBuilder::new("barrier");
        b.spawn(Payload::compute(10), vec![Dependence::write(0x2000)]);
        b.taskwait();
        b.spawn(Payload::compute(10), vec![Dependence::read(0x2000)]);
        let mut spec = GraphSpec::from_program(&b.build());
        spec.edges.clear();
        let a = analyze_graph(&spec).unwrap();
        assert_eq!(a.conflict_pairs, 1);
        assert_eq!(a.covered_by_phase, 1);
    }

    #[test]
    fn transitive_path_covers_a_dropped_direct_edge() {
        // Task 0 writes A, task 1 reads A and writes B, task 2 reads B and
        // writes A. Dropping the direct WaW edge 0->2 leaves the path
        // 0->1->2, which still orders the (0, 2) conflict on A.
        let mut b = ProgramBuilder::new("transitive");
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA0)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xA0), Dependence::write(0xB0)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xB0), Dependence::write(0xA0)]);
        let mut spec = GraphSpec::from_program(&b.build());
        // Conflicts: (0,1) RaW on A, (1,2) RaW on B, (1,2) WaR on A, (0,2) WaW on A.
        // Drop the direct 0->2 edge if present; path 0->1->2 still covers it.
        spec.edges.retain(|&e| e != (0, 2));
        let a = analyze_graph(&spec).unwrap();
        assert_eq!(a.conflict_pairs, 4);
        assert_eq!(a.covered_transitively, 1);
    }

    #[test]
    fn empty_program_is_clean() {
        let a = analyze_program(&ProgramBuilder::new("empty").build()).unwrap();
        assert_eq!(a.tasks, 0);
        assert_eq!(a.phases, 0);
    }
}
