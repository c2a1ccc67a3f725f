//! Preflight static analysis of task dependence graphs.
//!
//! Every experiment's graph passes through [`analyze_graph`] (usually via the
//! [`analyze_program`] convenience) before any cell runs. The checks are the
//! classic preflight trio — cycles, dangling references, duplicates — plus a
//! scheduling-specific one: *conflict coverage*. Two tasks conflict when they
//! declare accesses to the same address and at least one writes (RaW, WaR or
//! WaW); sequential task semantics require every such pair to be ordered. The
//! analysis enumerates the conflict frontier per address and proves each pair
//! is covered by a direct edge, a taskwait phase boundary, or a transitive
//! edge path.
//!
//! Covering the *frontier* suffices for all conflicting pairs: per address the
//! frontier chains writer → readers → next writer, so any two conflicting
//! accesses are connected by a path of frontier pairs, and happens-before is
//! transitive.
//!
//! # One walk
//!
//! The frontier is the one [`tis_taskmodel::FrontierWalker`] walk that also
//! builds the reference graph: [`conflict_frontier`] runs it over a spec's own
//! `deps`, and [`analyze_program`] walks the program once, building the
//! graph's compressed successor rows and collecting the same pairs for the
//! coverage check — which then proves the rows hold every frontier pair.
//! Pairs come out in walk order: spawn order, then each task's declaration
//! order, then the address's last writer followed (for a write) by its readers
//! since that write, oldest first. Edge checks, the cycle search and edge
//! lookups run over [`Rows`] in `spec.edges` order, so the cycle witness is the
//! one a DFS over the edge list finds; dangling and repeated edges are found by
//! one ordered scan of `spec.edges`, which names the first bad edge.

use tis_sim::{FxHashSet, Rows};
use tis_taskmodel::{DepAddr, Dependence, DepGraph, FrontierWalker, TaskProgram};

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
    /// graph's edges (by source, each row ascending) and phases plus each
    /// task's declared accesses.
    pub fn from_program(program: &TaskProgram) -> Self {
        let graph = program.reference_graph();
        let rows = graph.successor_rows();
        let n = graph.task_count();
        let mut edges = Vec::with_capacity(rows.edges());
        for from in 0..n {
            edges.extend(rows.row(from).iter().map(|&to| (from, to as usize)));
        }
        let deps = program.tasks().map(|spec| spec.deps.clone()).collect();
        GraphSpec { tasks: n, edges, phase: graph.phases().to_vec(), deps }
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
/// Equal to `analyze_graph(&GraphSpec::from_program(program))`, in one
/// frontier walk: the walk that builds the reference graph hands its pairs to
/// the coverage check. The graph's edges point forward in spawn order, each
/// row strictly ascending, so no edge can dangle, repeat or close a cycle;
/// the declared-address and coverage checks still run.
pub fn analyze_program(program: &TaskProgram) -> Result<GraphAnalysis, GraphError> {
    let mut frontier = Vec::new();
    let graph = DepGraph::from_program_with_frontier(program, |earlier, later, addr| {
        frontier.push(ConflictPair { earlier, later, addr });
    });
    let deps: Vec<&[Dependence]> = program.tasks().map(|t| t.deps.as_slice()).collect();
    check_declared_addresses(&deps)?;
    let edges = EdgeRows { rows: graph.successor_rows(), sorted: true };
    let coverage = check_conflict_coverage(&edges, graph.phases(), &deps, &frontier)?;
    Ok(coverage.summary(graph.task_count(), graph.edge_count(), graph.phases()))
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
    check_declared_addresses(&spec.deps)?;

    let rows = Rows::by_source(spec.tasks, spec.edges.iter().copied());
    find_cycle(&rows)?;
    let sorted = (0..spec.tasks).all(|i| rows.row(i).windows(2).all(|w| w[0] < w[1]));
    let edges = EdgeRows { rows: &rows, sorted };
    let frontier = conflict_frontier(spec);
    let coverage = check_conflict_coverage(&edges, &spec.phase, &spec.deps, &frontier)?;
    Ok(coverage.summary(spec.tasks, spec.edges.len(), &spec.phase))
}

/// Successor rows in `spec.edges` order, over which edges are looked up:
/// binary search when every row is ascending, a scan otherwise.
struct EdgeRows<'a> {
    rows: &'a Rows,
    sorted: bool,
}

impl EdgeRows<'_> {
    fn contains(&self, from: usize, to: usize) -> bool {
        let row = self.rows.row(from);
        let to = to as u32;
        if self.sorted {
            row.binary_search(&to).is_ok()
        } else {
            row.contains(&to)
        }
    }
}

/// Duplicate declared addresses (mirrors `TaskSpec::validate`, but also
/// covers hand-built specs that never went through a builder).
fn check_declared_addresses<D: AsRef<[Dependence]>>(deps: &[D]) -> Result<(), GraphError> {
    for (task, deps) in deps.iter().enumerate() {
        let deps = deps.as_ref();
        for (i, dep) in deps.iter().enumerate() {
            if deps[..i].iter().any(|d| d.addr == dep.addr) {
                return Err(GraphError::DuplicateDependence { task, addr: dep.addr });
            }
        }
    }
    Ok(())
}

/// Iterative three-colour DFS. White = unvisited, grey = on the current DFS
/// path, black = finished. A grey→grey edge closes a cycle; the witness path
/// is the grey stack segment from the re-entered node to the top.
///
/// Iterative on an explicit stack: catalog chains run to tens of thousands of
/// tasks, far past any recursion limit.
fn find_cycle(rows: &Rows) -> Result<(), GraphError> {
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour = vec![Colour::White; rows.nodes()];
    // (node, index of the next successor to visit)
    let mut stack: Vec<(usize, usize)> = Vec::new();

    for root in 0..rows.nodes() {
        if colour[root] != Colour::White {
            continue;
        }
        colour[root] = Colour::Grey;
        stack.push((root, 0));
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&succ) = rows.row(node).get(*next) {
                let succ = succ as usize;
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
/// writes, the readers since that write, oldest first) — exactly the pairs the
/// reference graph builder orders, from the same [`FrontierWalker`]. Any two
/// conflicting accesses are connected through frontier pairs transitively, so
/// ordering the frontier orders everything.
pub fn conflict_frontier(spec: &GraphSpec) -> Vec<ConflictPair> {
    let mut walker = FrontierWalker::new();
    let mut pairs = Vec::new();
    for (later, deps) in spec.deps[..spec.tasks].iter().enumerate() {
        for dep in deps {
            walker.access(later, dep, |earlier| {
                pairs.push(ConflictPair { earlier, later, addr: dep.addr });
            });
        }
    }
    pairs
}

/// How the frontier pairs were covered.
#[derive(Debug, Default)]
struct Coverage {
    pairs: usize,
    by_edge: usize,
    by_phase: usize,
    transitive: usize,
}

impl Coverage {
    fn summary(&self, tasks: usize, edges: usize, phase: &[usize]) -> GraphAnalysis {
        GraphAnalysis {
            tasks,
            edges,
            phases: phase.iter().copied().max().map_or(0, |p| p + 1),
            conflict_pairs: self.pairs,
            covered_by_edge: self.by_edge,
            covered_by_phase: self.by_phase,
            covered_transitively: self.transitive,
        }
    }
}

/// Proves every frontier conflict pair is ordered by a direct edge, a
/// taskwait phase boundary, or a transitive edge path.
fn check_conflict_coverage<D: AsRef<[Dependence]>>(
    edges: &EdgeRows<'_>,
    phase: &[usize],
    deps: &[D],
    frontier: &[ConflictPair],
) -> Result<Coverage, GraphError> {
    let mut coverage = Coverage { pairs: frontier.len(), ..Coverage::default() };
    for &ConflictPair { earlier, later, addr } in frontier {
        if edges.contains(earlier, later) {
            coverage.by_edge += 1;
        } else if phase[earlier] != phase[later] {
            coverage.by_phase += 1;
        } else if reaches(edges.rows, earlier, later) {
            coverage.transitive += 1;
        } else {
            let access_to = |task: usize| {
                deps[task]
                    .as_ref()
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
    Ok(coverage)
}

/// Breadth-first reachability over ordering edges. Only consulted for pairs
/// not already covered by a direct edge or phase boundary, which is rare in
/// practice (the reference builder emits direct frontier edges).
fn reaches(rows: &Rows, from: usize, to: usize) -> bool {
    let mut visited = vec![false; rows.nodes()];
    let mut queue = std::collections::VecDeque::new();
    visited[from] = true;
    queue.push_back(from);
    while let Some(node) = queue.pop_front() {
        for &succ in rows.row(node) {
            let succ = succ as usize;
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

/// The preflight as it was before the single frontier walk, kept as the
/// differential oracle of the walker and the compressed rows: a `Vec` of
/// readers per address, an adjacency `Vec` per task and two edge hash sets.
#[cfg(test)]
mod reference {
    use super::{ConflictPair, GraphAnalysis, GraphError, GraphSpec};
    use tis_sim::{FxHashMap, FxHashSet};
    use tis_taskmodel::{DepAddr, Dependence, ProgramOp, TaskProgram};

    /// The per-address-`Vec` frontier enumeration.
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

    /// The spec of a program derived from the reference frontier alone: its
    /// distinct task pairs, by source and then target, are the reference
    /// graph's edges.
    pub fn spec(program: &TaskProgram) -> GraphSpec {
        let mut phase = Vec::new();
        let mut deps: Vec<Vec<Dependence>> = Vec::new();
        let mut current = 0;
        for op in program.ops() {
            match op {
                ProgramOp::TaskWait => current += 1,
                ProgramOp::Spawn(t) => {
                    phase.push(current);
                    deps.push(t.deps.clone());
                }
            }
        }
        let mut spec = GraphSpec { tasks: phase.len(), edges: Vec::new(), phase, deps };
        let mut edges: Vec<(usize, usize)> =
            conflict_frontier(&spec).iter().map(|p| (p.earlier, p.later)).collect();
        edges.sort_unstable();
        edges.dedup();
        spec.edges = edges;
        spec
    }

    /// The hash-set preflight.
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
        let mut seen = FxHashSet::default();
        for &(from, to) in &spec.edges {
            if from >= spec.tasks || to >= spec.tasks {
                return Err(GraphError::DanglingEdge { from, to });
            }
            if !seen.insert((from, to)) {
                return Err(GraphError::DuplicateEdge { from, to });
            }
        }
        for (task, deps) in spec.deps.iter().enumerate() {
            for (i, dep) in deps.iter().enumerate() {
                if deps[..i].iter().any(|d| d.addr == dep.addr) {
                    return Err(GraphError::DuplicateDependence { task, addr: dep.addr });
                }
            }
        }
        let mut adj = vec![Vec::new(); spec.tasks];
        for &(from, to) in &spec.edges {
            adj[from].push(to);
        }
        find_cycle(&adj)?;
        let edge_set: FxHashSet<(usize, usize)> = spec.edges.iter().copied().collect();
        let frontier = conflict_frontier(spec);
        let mut a = GraphAnalysis {
            tasks: spec.tasks,
            edges: spec.edges.len(),
            phases: spec.phase.iter().copied().max().map_or(0, |p| p + 1),
            conflict_pairs: frontier.len(),
            ..GraphAnalysis::default()
        };
        for ConflictPair { earlier, later, addr } in frontier {
            if edge_set.contains(&(earlier, later)) {
                a.covered_by_edge += 1;
            } else if spec.phase[earlier] != spec.phase[later] {
                a.covered_by_phase += 1;
            } else if reaches(&adj, earlier, later) {
                a.covered_transitively += 1;
            } else {
                let access_to = |task: usize| {
                    *spec.deps[task].iter().find(|d| d.addr == addr).expect("declared")
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
        Ok(a)
    }

    fn find_cycle(adj: &[Vec<usize>]) -> Result<(), GraphError> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour = vec![Colour::White; adj.len()];
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

    fn reaches(adj: &[Vec<usize>], from: usize, to: usize) -> bool {
        let mut visited = vec![false; adj.len()];
        let mut queue = std::collections::VecDeque::from([from]);
        visited[from] = true;
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

    /// `analyze_graph` on `spec`, after checking it reports what the ordered
    /// hash-set scan and DFS of the reference report.
    fn analyze_like_the_reference(spec: &GraphSpec) -> Result<GraphAnalysis, GraphError> {
        let got = analyze_graph(spec);
        assert_eq!(got, reference::analyze_graph(spec), "spec {spec:?}");
        got
    }

    /// 0 writes A; 1 and 2 read A; 3 writes A: rows 0 -> [1, 2, 3], 1 -> [3], 2 -> [3].
    fn fan() -> GraphSpec {
        let mut b = ProgramBuilder::new("fan");
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA0)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xA0)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xA0)]);
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA0)]);
        GraphSpec::from_program(&b.build())
    }

    #[test]
    fn an_unsorted_row_repeat_before_a_dangling_edge_is_the_duplicate() {
        let mut spec = fan();
        assert_eq!(spec.edges, vec![(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
        spec.edges.push((0, 1));
        spec.edges.push((2, 9));
        assert_eq!(
            analyze_like_the_reference(&spec),
            Err(GraphError::DuplicateEdge { from: 0, to: 1 })
        );
    }

    #[test]
    fn of_two_duplicate_edges_the_first_repeat_in_edge_order_is_reported() {
        let mut spec = fan();
        spec.edges.push((1, 3));
        spec.edges.push((0, 1));
        assert_eq!(
            analyze_like_the_reference(&spec),
            Err(GraphError::DuplicateEdge { from: 1, to: 3 })
        );
    }

    #[test]
    fn a_cycle_through_unsorted_rows_keeps_the_edge_order_witness() {
        let mut spec = GraphSpec::from_program(&chain(4));
        // Row 0 is [2, 1]: the DFS follows 0 -> 2 first, so the witness is
        // 2 -> 3 -> 1 -> 2, not the 1 -> 2 -> 3 -> 1 a sorted row would give.
        spec.edges = vec![(0, 2), (0, 1), (1, 2), (2, 3), (3, 1)];
        assert_eq!(analyze_like_the_reference(&spec), Err(GraphError::Cycle { path: vec![2, 3, 1] }));
    }

    #[test]
    fn of_two_uncovered_pairs_the_first_in_walk_order_is_named() {
        // Task 2 reads B (written by 1), then A (written by 0): its frontier
        // pairs are (1, 2) on B, then (0, 2) on A.
        let mut b = ProgramBuilder::new("two-uncovered");
        b.spawn(Payload::compute(10), vec![Dependence::write(0xA0)]);
        b.spawn(Payload::compute(10), vec![Dependence::write(0xB0)]);
        b.spawn(Payload::compute(10), vec![Dependence::read(0xB0), Dependence::read(0xA0)]);
        let mut spec = GraphSpec::from_program(&b.build());
        spec.edges.clear();
        assert_eq!(
            analyze_like_the_reference(&spec),
            Err(GraphError::UncoveredConflict {
                earlier: 1,
                later: 2,
                addr: 0xB0,
                earlier_access: Dependence::write(0xB0),
                later_access: Dependence::read(0xB0),
            })
        );
    }

    #[test]
    fn an_unsorted_row_without_repeats_is_analyzed_in_full() {
        let mut spec = fan();
        spec.edges.swap(0, 2);
        assert_eq!(analyze_like_the_reference(&spec), analyze_graph(&fan()));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tis_taskmodel::{Direction, Payload, ProgramBuilder};

    /// Programs of 1–60 tasks, each declaring 0–6 dependences over a pool of
    /// six addresses in every direction, with random taskwaits.
    fn arbitrary_program() -> impl Strategy<Value = TaskProgram> {
        let task = (proptest::collection::vec((0..6u64, 0..3u8), 0..7), proptest::bool::ANY);
        proptest::collection::vec(task, 1..61).prop_map(|tasks| {
            let mut b = ProgramBuilder::new("prop");
            for (deps, wait) in tasks {
                let mut seen = std::collections::HashSet::new();
                let deps: Vec<Dependence> = deps
                    .into_iter()
                    .filter(|(a, _)| seen.insert(*a))
                    .map(|(a, d)| Dependence::new(0x1000 + a * 64, Direction::ALL[d as usize]))
                    .collect();
                b.spawn(Payload::compute(10), deps);
                if wait {
                    b.taskwait();
                }
            }
            b.build()
        })
    }

    /// Applies one corruption to a spec: drop, add (possibly dangling),
    /// repeat, reverse or move an edge, reverse the edge list, redeclare an
    /// address, or move a task to another phase.
    fn mutate(spec: &mut GraphSpec, kind: u8, a: usize, b: usize) {
        let n = spec.tasks;
        let e = spec.edges.len();
        match kind {
            0 if e > 0 => {
                spec.edges.remove(a % e);
            }
            1 => spec.edges.push((a % (n + 2), b % (n + 2))),
            2 if e > 0 => spec.edges.push(spec.edges[a % e]),
            3 if e > 0 => {
                let (from, to) = spec.edges[a % e];
                spec.edges[a % e] = (to, from);
            }
            4 if e > 1 => spec.edges.swap(a % e, b % e),
            5 => spec.edges.reverse(),
            6 => {
                let task = a % n;
                if let Some(&d) = spec.deps[b % n].first() {
                    spec.deps[task].push(d);
                }
            }
            _ => {
                let task = a % n;
                spec.phase[task] = b % 3;
            }
        }
    }

    proptest! {
        /// The walker's frontier is the per-address-`Vec` enumeration's, pair
        /// for pair and in order, and the walk-built spec and analysis equal
        /// the reference ones.
        #[test]
        fn the_single_walk_matches_the_reference(p in arbitrary_program()) {
            let spec = GraphSpec::from_program(&p);
            prop_assert_eq!(&spec, &reference::spec(&p));
            prop_assert_eq!(conflict_frontier(&spec), reference::conflict_frontier(&spec));
            let analysis = analyze_program(&p);
            prop_assert_eq!(&analysis, &analyze_graph(&spec));
            prop_assert_eq!(&analysis, &reference::analyze_graph(&spec));
            prop_assert!(analysis.is_ok());
        }

        /// On corrupted specs, the compressed-row preflight reports exactly
        /// what the hash-set preflight reports, and the frontier of a spec
        /// that redeclares addresses is still the reference's.
        #[test]
        fn corrupted_specs_fail_like_the_reference(
            p in arbitrary_program(),
            mutations in proptest::collection::vec((0u8..8, any::<usize>(), any::<usize>()), 1..4),
        ) {
            let mut spec = GraphSpec::from_program(&p);
            for (kind, a, b) in mutations {
                mutate(&mut spec, kind, a, b);
            }
            prop_assert_eq!(analyze_graph(&spec), reference::analyze_graph(&spec));
            prop_assert_eq!(conflict_frontier(&spec), reference::conflict_frontier(&spec));
        }
    }
}
