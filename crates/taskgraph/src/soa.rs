//! Structure-of-arrays view of an [`Application`]'s task graph.
//!
//! [`TaskGraph`] stores tasks as a vector of structs with per-task
//! adjacency vectors — convenient to build and mutate, but the list
//! scheduler's hot loop pays a pointer chase per predecessor edge and a
//! `Vec<Vec<_>>` indirection per task. [`TaskGraphSoa`] flattens
//! everything the scheduler reads into contiguous arrays, built **once**
//! per application and immutable afterwards:
//!
//! * per-task worst-case execution cycles ([`TaskGraphSoa::wcec`]) as
//!   `f64`, matching the `Cycles::as_f64` conversion the scheduler
//!   performed per visit;
//! * predecessor and successor adjacency in CSR form (offsets plus a
//!   flat `(task, comm_cycles)` array, preserving the graph's insertion
//!   order so iteration visits edges in exactly the order
//!   `TaskGraph::predecessors` does);
//! * per-task predecessor counts and bottom levels (downstream critical
//!   paths, the list scheduler's priority key);
//! * the **static schedule order** ([`TaskGraphSoa::schedule_order`]):
//!   the sequence in which bottom-level list scheduling visits tasks.
//!
//! The static order is the key enabler for incremental evaluation
//! (`sea-sched`'s `IncrementalEvaluator`). The scheduler picks, among
//! ready tasks, the one with the highest bottom level, breaking ties on
//! the smaller task id — a *total* order on distinct tasks that depends
//! only on the graph, never on the mapping or scaling. The visit
//! sequence is therefore a fixed topological order that can be
//! precomputed here; a candidate evaluation just walks it, and a
//! single-task move can replay only the suffix at and after the moved
//! task's position ([`TaskGraphSoa::position`]).
//!
//! The view belongs to its application: [`Application::soa`] builds it on
//! first use and every reader takes it from there, so campaign units that
//! share an `Arc<Application>` (and the per-scaling workers inside one
//! unit) read one build.

use crate::application::Application;
use crate::graph::TaskGraph;
use crate::task::TaskId;
use crate::units::Cycles;

/// Immutable, cache-friendly arrays describing one application's task
/// graph, in exactly the layout the list scheduler consumes.
///
/// Obtained from [`Application::soa`]; all accessors are O(1) slices into
/// contiguous storage.
#[derive(Debug, Clone)]
pub struct TaskGraphSoa {
    n: usize,
    /// Per-task computation cost in cycles, pre-converted to `f64`.
    wcec: Vec<f64>,
    /// CSR offsets into `pred_adj`: task `t`'s predecessors live at
    /// `pred_adj[pred_off[t] .. pred_off[t + 1]]`.
    pred_off: Vec<u32>,
    /// Flat `(predecessor index, comm cycles as f64)` pairs, insertion
    /// order per task (matches `TaskGraph::predecessors`).
    pred_adj: Vec<(u32, f64)>,
    /// CSR offsets into `succ_adj` (same layout as `pred_off`).
    succ_off: Vec<u32>,
    /// Flat `(successor index, comm cycles as f64)` pairs.
    succ_adj: Vec<(u32, f64)>,
    /// Downstream critical path per task (the scheduling priority).
    bottom_levels: Vec<Cycles>,
    /// The static visit sequence of bottom-level list scheduling; a
    /// topological order of the graph.
    order: Vec<TaskId>,
    /// Inverse of `order`: `pos[t.index()]` is the step at which task
    /// `t` is scheduled.
    pos: Vec<u32>,
    /// Sum of all per-task computation costs, in cycles.
    total_wcec: f64,
    /// Largest single-task computation cost, in cycles.
    max_wcec: f64,
    /// Computation-only critical path in cycles: the longest path through
    /// the DAG counting task costs but **no** communication. Unlike
    /// [`TaskGraphSoa::bottom_levels`] (which include edge costs because
    /// the list scheduler's priority must anticipate communication), this
    /// is a valid ingredient for mapping-independent `TM` lower bounds —
    /// communication is only charged when an edge crosses cores, which a
    /// bound quantifying over *all* mappings cannot assume.
    comp_critical_path: f64,
}

impl TaskGraphSoa {
    /// Builds the view of a graph; [`Application::soa`] is its one caller.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` tasks (far beyond
    /// the paper's design spaces).
    pub(crate) fn from_graph(g: &TaskGraph) -> Self {
        let n = g.len();
        assert!(u32::try_from(n).is_ok(), "task count exceeds u32 range");
        let wcec: Vec<f64> = g
            .task_ids()
            .map(|t| g.task(t).computation().as_f64())
            .collect();

        let mut pred_off = Vec::with_capacity(n + 1);
        let mut pred_adj = Vec::new();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ_adj = Vec::new();
        let mut pred_count = Vec::with_capacity(n);
        pred_off.push(0u32);
        succ_off.push(0u32);
        for t in g.task_ids() {
            for &(p, comm) in g.predecessors(t) {
                pred_adj.push((p.index() as u32, comm.as_f64()));
            }
            for &(s, comm) in g.successors(t) {
                succ_adj.push((s.index() as u32, comm.as_f64()));
            }
            pred_off.push(pred_adj.len() as u32);
            succ_off.push(succ_adj.len() as u32);
            pred_count.push(g.predecessors(t).len() as u32);
        }

        let bottom_levels = g.bottom_levels();
        let (order, pos) =
            static_schedule_order(n, &pred_count, &succ_off, &succ_adj, &bottom_levels);

        let total_wcec: f64 = wcec.iter().sum();
        let max_wcec = wcec.iter().fold(0.0f64, |acc, &w| acc.max(w));
        // Computation-only downstream critical path, walked in reverse
        // topological order (`order` is topological, so every successor's
        // value is final before its predecessors read it).
        let mut comp_bl = vec![0.0f64; n];
        for &t in order.iter().rev() {
            let i = t.index();
            let tail = succ_adj[succ_off[i] as usize..succ_off[i + 1] as usize]
                .iter()
                .fold(0.0f64, |acc, &(s, _)| acc.max(comp_bl[s as usize]));
            comp_bl[i] = wcec[i] + tail;
        }
        let comp_critical_path = comp_bl.iter().fold(0.0f64, |acc, &x| acc.max(x));

        TaskGraphSoa {
            n,
            wcec,
            pred_off,
            pred_adj,
            succ_off,
            succ_adj,
            bottom_levels,
            order,
            pos,
            total_wcec,
            max_wcec,
            comp_critical_path,
        }
    }

    /// The application's view: an alias of [`Application::soa`], kept
    /// for the `seabench` harness, which calls it.
    #[must_use]
    pub fn shared(app: &Application) -> &TaskGraphSoa {
        app.soa()
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for an empty graph.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Per-task computation cost in cycles (as `f64`).
    #[must_use]
    pub fn wcec(&self, t: TaskId) -> f64 {
        self.wcec[t.index()]
    }

    /// Predecessor edges of `t` as `(producer index, comm cycles)`, in
    /// the graph's insertion order.
    #[must_use]
    pub fn predecessors(&self, t: TaskId) -> &[(u32, f64)] {
        let i = t.index();
        &self.pred_adj[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// Successor edges of `t` as `(consumer index, comm cycles)`, in the
    /// graph's insertion order.
    #[must_use]
    pub fn successors(&self, t: TaskId) -> &[(u32, f64)] {
        let i = t.index();
        &self.succ_adj[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Downstream critical path (bottom level) per task.
    #[must_use]
    pub fn bottom_levels(&self) -> &[Cycles] {
        &self.bottom_levels
    }

    /// The static visit sequence of bottom-level list scheduling — a
    /// topological order independent of mapping and scaling.
    #[must_use]
    pub fn schedule_order(&self) -> &[TaskId] {
        &self.order
    }

    /// The step at which `t` is scheduled (inverse of
    /// [`TaskGraphSoa::schedule_order`]).
    #[must_use]
    pub fn position(&self, t: TaskId) -> usize {
        self.pos[t.index()] as usize
    }

    /// Total computation cost of all tasks, in cycles.
    #[must_use]
    pub fn total_wcec(&self) -> f64 {
        self.total_wcec
    }

    /// Largest single-task computation cost, in cycles.
    #[must_use]
    pub fn max_wcec(&self) -> f64 {
        self.max_wcec
    }

    /// Computation-only critical path in cycles (no communication —
    /// see the field docs for why bounds need this instead of
    /// [`TaskGraphSoa::bottom_levels`]).
    #[must_use]
    pub fn comp_critical_path(&self) -> f64 {
        self.comp_critical_path
    }
}

/// Simulates the list scheduler's ready-set evolution to precompute the
/// visit sequence. Selection — highest bottom level, ties to the smaller
/// task id — is a total order on distinct tasks, so the winner at each
/// step is unique and independent of how the ready set is stored; and
/// since tasks become ready exactly when their last predecessor is
/// *selected* (finishing order never reorders selection), the sequence
/// depends only on the graph.
fn static_schedule_order(
    n: usize,
    pred_count: &[u32],
    succ_off: &[u32],
    succ_adj: &[(u32, f64)],
    bl: &[Cycles],
) -> (Vec<TaskId>, Vec<u32>) {
    let mut pending: Vec<u32> = pred_count.to_vec();
    let mut ready: Vec<usize> = (0..n).filter(|&t| pending[t] == 0).collect();
    let mut order = Vec::with_capacity(n);
    let mut pos = vec![0u32; n];
    while order.len() < n {
        let (slot, _) = ready
            .iter()
            .enumerate()
            .max_by(|(_, &a), (_, &b)| bl[a].cmp(&bl[b]).then_with(|| b.cmp(&a)))
            .expect("ready set non-empty while tasks remain (graph is a DAG)");
        let t = ready.swap_remove(slot);
        pos[t] = order.len() as u32;
        order.push(TaskId::new(t));
        for &(s, _) in &succ_adj[succ_off[t] as usize..succ_off[t + 1] as usize] {
            let s = s as usize;
            pending[s] -= 1;
            if pending[s] == 0 {
                ready.push(s);
            }
        }
    }
    (order, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;
    use crate::mpeg2;

    #[test]
    fn csr_matches_graph_adjacency() {
        let app = mpeg2::application();
        let g = app.graph();
        let soa = app.soa();
        assert_eq!(soa.len(), g.len());
        for t in g.task_ids() {
            assert_eq!(soa.wcec(t), g.task(t).computation().as_f64());
            let preds: Vec<(u32, f64)> = g
                .predecessors(t)
                .iter()
                .map(|&(p, c)| (p.index() as u32, c.as_f64()))
                .collect();
            assert_eq!(soa.predecessors(t), preds.as_slice());
            let succs: Vec<(u32, f64)> = g
                .successors(t)
                .iter()
                .map(|&(s, c)| (s.index() as u32, c.as_f64()))
                .collect();
            assert_eq!(soa.successors(t), succs.as_slice());
        }
        assert_eq!(soa.bottom_levels(), g.bottom_levels().as_slice());
    }

    #[test]
    fn schedule_order_is_topological_and_complete() {
        let app = mpeg2::application();
        let soa = app.soa();
        let n = soa.len();
        assert_eq!(soa.schedule_order().len(), n);
        let mut seen = vec![false; n];
        for (step, &t) in soa.schedule_order().iter().enumerate() {
            assert_eq!(soa.position(t), step);
            for &(p, _) in soa.predecessors(t) {
                assert!(seen[p as usize], "predecessor scheduled before {t:?}");
            }
            seen[t.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn schedule_order_prefers_bottom_level() {
        // head -> tail chain plus an independent task: head's bottom level
        // dominates, so it is visited first; solo (higher id, lower
        // priority) comes after.
        let mut b = TaskGraphBuilder::new("prio");
        let head = b.add_task("head", Cycles::new(100));
        let tail = b.add_task("tail", Cycles::new(400));
        let solo = b.add_task("solo", Cycles::new(100));
        b.add_edge(head, tail, Cycles::ZERO).unwrap();
        let g = b.build().unwrap();
        let soa = TaskGraphSoa::from_graph(&g);
        assert_eq!(soa.schedule_order()[0], head);
        assert_eq!(soa.schedule_order()[2], solo);
    }

    #[test]
    fn work_aggregates_match_graph() {
        let app = mpeg2::application();
        let g = app.graph();
        let soa = app.soa();
        let total: f64 = g.task_ids().map(|t| g.task(t).computation().as_f64()).sum();
        let max = g
            .task_ids()
            .map(|t| g.task(t).computation().as_f64())
            .fold(0.0f64, f64::max);
        assert_eq!(soa.total_wcec(), total);
        assert_eq!(soa.max_wcec(), max);
        // The computation-only critical path ignores edge costs, so it is
        // bounded by the comm-inclusive bottom level and by the total
        // work, and is at least the heaviest task.
        let bl_max = g
            .bottom_levels()
            .iter()
            .map(|c| c.as_f64())
            .fold(0.0f64, f64::max);
        assert!(soa.comp_critical_path() <= bl_max);
        assert!(soa.comp_critical_path() <= total);
        assert!(soa.comp_critical_path() >= max);
    }

    #[test]
    fn comp_critical_path_follows_longest_chain() {
        // head(100) -> tail(400) chain: comp CP = 500, even with a heavy
        // edge cost that bottom levels would count.
        let mut b = TaskGraphBuilder::new("cp");
        let head = b.add_task("head", Cycles::new(100));
        let tail = b.add_task("tail", Cycles::new(400));
        let _solo = b.add_task("solo", Cycles::new(450));
        b.add_edge(head, tail, Cycles::new(10_000)).unwrap();
        let g = b.build().unwrap();
        let soa = TaskGraphSoa::from_graph(&g);
        assert_eq!(soa.comp_critical_path(), 500.0);
        assert_eq!(soa.max_wcec(), 450.0);
        assert_eq!(soa.total_wcec(), 950.0);
    }
}
