//! Task-to-core mappings and the neighbourhood moves of the search-based
//! optimizations (paper Fig. 7, "task movement in M for neighbouring
//! solution").

use std::fmt;

use serde::{Deserialize, Serialize};

use sea_arch::CoreId;
use sea_taskgraph::TaskId;

use crate::SchedError;

/// A complete assignment of every task to one core.
///
/// Besides the assignment, a mapping keeps its per-core task counts in
/// step with [`Mapping::apply`], so occupancy queries and the
/// neighbourhood size are `O(C)` and drawing a neighbourhood move is
/// `O(N)`. The counts are derived state, which equality, hashing and
/// `Debug` ignore.
#[derive(Serialize, Deserialize)]
pub struct Mapping {
    /// `assign[t]` = core of task `t`.
    assign: Vec<CoreId>,
    n_cores: usize,
    /// `counts[c]` = number of tasks on core `c`.
    counts: Vec<usize>,
}

impl Mapping {
    /// Creates a mapping from a per-task core vector.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::OutOfRange`] if any core index is `≥ n_cores`
    /// and [`SchedError::IncompleteMapping`] for an empty assignment.
    pub fn try_new(assign: Vec<CoreId>, n_cores: usize) -> Result<Self, SchedError> {
        if assign.is_empty() {
            return Err(SchedError::IncompleteMapping);
        }
        for (t, c) in assign.iter().enumerate() {
            if c.index() >= n_cores {
                return Err(SchedError::OutOfRange {
                    what: format!("task t{} mapped to {} of {} cores", t + 1, c, n_cores),
                });
            }
        }
        Ok(Mapping::with_counts(assign, n_cores))
    }

    /// The mapping of a validated assignment, with its per-core counts.
    fn with_counts(assign: Vec<CoreId>, n_cores: usize) -> Self {
        let mut counts = vec![0; n_cores];
        for c in &assign {
            counts[c.index()] += 1;
        }
        Mapping {
            assign,
            n_cores,
            counts,
        }
    }

    /// Creates a mapping from per-core task groups (0-based task indices),
    /// the notation of Table II. Cores may be empty.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::IncompleteMapping`] if the groups do not cover
    /// the union of the mentioned tasks exactly once, and
    /// [`SchedError::OutOfRange`] if there are more groups than cores.
    pub fn from_groups(groups: &[&[usize]], n_cores: usize) -> Result<Self, SchedError> {
        if groups.len() > n_cores {
            return Err(SchedError::OutOfRange {
                what: format!("{} groups for {} cores", groups.len(), n_cores),
            });
        }
        let n_tasks: usize = groups.iter().map(|g| g.len()).sum();
        let mut assign = vec![None; n_tasks];
        for (c, group) in groups.iter().enumerate() {
            for &t in group.iter() {
                if t >= n_tasks || assign[t].is_some() {
                    return Err(SchedError::IncompleteMapping);
                }
                assign[t] = Some(CoreId::new(c));
            }
        }
        let assign: Vec<CoreId> = assign
            .into_iter()
            .map(|c| c.expect("all covered"))
            .collect();
        Mapping::try_new(assign, n_cores)
    }

    /// Maps every task to core 0 (useful as a degenerate baseline).
    #[must_use]
    pub fn all_on_one_core(n_tasks: usize, n_cores: usize) -> Self {
        Mapping::with_counts(vec![CoreId::new(0); n_tasks], n_cores)
    }

    /// Number of tasks covered.
    #[must_use]
    pub fn n_tasks(&self) -> usize {
        self.assign.len()
    }

    /// Number of cores in the target architecture.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Core of one task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn core_of(&self, task: TaskId) -> CoreId {
        self.assign[task.index()]
    }

    /// Tasks mapped on `core`, in task-id order, without allocating
    /// (the borrowing variant of [`Mapping::tasks_on`] for hot paths).
    pub fn tasks_on_iter(&self, core: CoreId) -> impl Iterator<Item = TaskId> + '_ {
        self.assign
            .iter()
            .enumerate()
            .filter(move |&(_, c)| *c == core)
            .map(|(t, _)| TaskId::new(t))
    }

    /// Tasks mapped on `core`, in task-id order.
    #[must_use]
    pub fn tasks_on(&self, core: CoreId) -> Vec<TaskId> {
        self.tasks_on_iter(core).collect()
    }

    /// Number of tasks mapped on `core`, in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn count_on(&self, core: CoreId) -> usize {
        self.counts[core.index()]
    }

    /// All per-core groups, in core order (empty cores yield empty groups).
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<TaskId>> {
        let mut out = vec![Vec::new(); self.n_cores];
        for (t, c) in self.assign.iter().enumerate() {
            out[c.index()].push(TaskId::new(t));
        }
        out
    }

    /// True if every core holds at least one task (the paper's
    /// `InitialSEAMapping` guarantees this when `N ≥ C`), in O(C).
    #[must_use]
    pub fn uses_all_cores(&self) -> bool {
        self.counts.iter().all(|&k| k > 0)
    }

    /// Applies a move in place, in O(1). Returns the inverse move for
    /// backtracking.
    ///
    /// # Panics
    ///
    /// Panics if the move references tasks or cores out of range.
    pub fn apply(&mut self, mv: Move) -> Move {
        match mv {
            Move::Relocate { task, to } => {
                assert!(to.index() < self.n_cores, "{to} out of range");
                let from = self.assign[task.index()];
                self.assign[task.index()] = to;
                self.counts[from.index()] -= 1;
                self.counts[to.index()] += 1;
                Move::Relocate { task, to: from }
            }
            Move::Swap { a, b } => {
                self.assign.swap(a.index(), b.index());
                Move::Swap { a, b }
            }
        }
    }

    /// Returns a copy with the move applied.
    #[must_use]
    pub fn with_move(&self, mv: Move) -> Self {
        let mut next = self.clone();
        next.apply(mv);
        next
    }

    /// Enumerates the full task-movement neighbourhood lazily, in the
    /// deterministic order of [`Mapping::neighbourhood`]: every relocation
    /// of a task to a different core, then every swap of two tasks on
    /// different cores. This is the "maximum two task movements"
    /// neighbourhood of the paper's `OptimizedMapping` (a swap moves two
    /// tasks, a relocation one). The iterator borrows the mapping and
    /// performs no heap allocation.
    pub fn neighbourhood_iter(&self) -> impl Iterator<Item = Move> + '_ {
        let n = self.assign.len();
        let n_cores = self.n_cores;
        let relocations = (0..n).flat_map(move |t| {
            (0..n_cores)
                .filter(move |&c| self.assign[t].index() != c)
                .map(move |c| Move::Relocate {
                    task: TaskId::new(t),
                    to: CoreId::new(c),
                })
        });
        let swaps = (0..n).flat_map(move |a| {
            ((a + 1)..n)
                .filter(move |&b| self.assign[a] != self.assign[b])
                .map(move |b| Move::Swap {
                    a: TaskId::new(a),
                    b: TaskId::new(b),
                })
        });
        relocations.chain(swaps)
    }

    /// Size of [`Mapping::neighbourhood`] without materializing it, in
    /// O(C): `N·(C−1)` relocations plus the cross-core task pairs (all
    /// pairs minus the same-core ones).
    #[must_use]
    pub fn neighbourhood_len(&self) -> usize {
        let n = self.assign.len();
        n * (self.n_cores - 1) + pairs(n) - self.counts.iter().map(|&k| pairs(k)).sum::<usize>()
    }

    /// The `index`-th move of [`Mapping::neighbourhood`] without
    /// materializing the list (`None` past the end), in O(N) and with no
    /// heap allocation on up to 64 cores. Relocations are addressed in
    /// O(1). Swaps are ordered by their first task `a`, and row `a` holds
    /// `(N−1−a) − |{b > a on a's core}|` cross-core pairs, so the draw
    /// skips whole rows by that size and scans only the row holding
    /// `index`. Together with [`Mapping::neighbourhood_len`] this lets a
    /// search sample the neighbourhood uniformly, drawing the same move
    /// the materialized `Vec<Move>` would yield at the same index.
    #[must_use]
    pub fn nth_neighbourhood_move(&self, index: usize) -> Option<Move> {
        let n = self.assign.len();
        let per_task = self.n_cores - 1;
        let reloc_total = n * per_task;
        if index < reloc_total {
            let t = index / per_task;
            let k = index % per_task;
            let own = self.assign[t].index();
            let c = if k < own { k } else { k + 1 };
            return Some(Move::Relocate {
                task: TaskId::new(t),
                to: CoreId::new(c),
            });
        }
        let mut rest = index - reloc_total;
        // `passed[c]` = tasks on core `c` among the rows already skipped.
        let mut stack = [0usize; STACK_CORES];
        let mut heap = Vec::new();
        let passed: &mut [usize] = if self.n_cores <= STACK_CORES {
            &mut stack[..self.n_cores]
        } else {
            heap.resize(self.n_cores, 0);
            &mut heap
        };
        for a in 0..n {
            let core = self.assign[a];
            let own = core.index();
            passed[own] += 1;
            let row = (n - 1 - a) - (self.counts[own] - passed[own]);
            if rest >= row {
                rest -= row;
                continue;
            }
            let b = ((a + 1)..n)
                .filter(|&b| self.assign[b] != core)
                .nth(rest)
                .expect("the row holds `row` cross-core partners");
            return Some(Move::Swap {
                a: TaskId::new(a),
                b: TaskId::new(b),
            });
        }
        None
    }

    /// Materialized neighbourhood (see [`Mapping::neighbourhood_iter`]).
    #[must_use]
    pub fn neighbourhood(&self) -> Vec<Move> {
        self.neighbourhood_iter().collect()
    }
}

/// Cores up to which [`Mapping::nth_neighbourhood_move`] keeps its
/// per-core scratch on the stack; larger architectures take one heap
/// allocation per swap draw.
const STACK_CORES: usize = 64;

/// Unordered pairs among `k` items.
fn pairs(k: usize) -> usize {
    k * k.saturating_sub(1) / 2
}

impl Clone for Mapping {
    fn clone(&self) -> Self {
        Mapping {
            assign: self.assign.clone(),
            n_cores: self.n_cores,
            counts: self.counts.clone(),
        }
    }

    /// Field-wise, so the annealing loop's `best.clone_from(&current)` reuses
    /// `best`'s buffers instead of allocating (the derived impl would
    /// fall back to `*self = source.clone()`).
    fn clone_from(&mut self, source: &Self) {
        self.assign.clone_from(&source.assign);
        self.n_cores = source.n_cores;
        self.counts.clone_from(&source.counts);
    }
}

impl PartialEq for Mapping {
    fn eq(&self, other: &Self) -> bool {
        self.n_cores == other.n_cores && self.assign == other.assign
    }
}

impl Eq for Mapping {}

impl std::hash::Hash for Mapping {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.assign.hash(state);
        self.n_cores.hash(state);
    }
}

impl fmt::Debug for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mapping")
            .field("assign", &self.assign)
            .field("n_cores", &self.n_cores)
            .finish()
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, group) in self.groups().iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{}:", CoreId::new(i))?;
            for t in group {
                write!(f, " {t}")?;
            }
        }
        Ok(())
    }
}

/// One neighbourhood move over a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Move {
    /// Move `task` to core `to`.
    Relocate {
        /// The task to move.
        task: TaskId,
        /// Destination core.
        to: CoreId,
    },
    /// Exchange the cores of tasks `a` and `b`.
    Swap {
        /// First task.
        a: TaskId,
        /// Second task.
        b: TaskId,
    },
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Move::Relocate { task, to } => write!(f, "move {task} -> {to}"),
            Move::Swap { a, b } => write!(f, "swap {a} <-> {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> TaskId {
        TaskId::new(i)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn from_groups_matches_table2_notation() {
        let m = Mapping::from_groups(&[&[0, 1, 2], &[3, 4], &[5, 6, 7, 8, 9], &[10]], 4).unwrap();
        assert_eq!(m.core_of(t(0)), c(0));
        assert_eq!(m.core_of(t(4)), c(1));
        assert_eq!(m.core_of(t(9)), c(2));
        assert_eq!(m.core_of(t(10)), c(3));
        assert!(m.uses_all_cores());
        assert_eq!(m.n_tasks(), 11);
    }

    #[test]
    fn from_groups_rejects_double_coverage() {
        assert!(Mapping::from_groups(&[&[0, 1], &[1]], 2).is_err());
        assert!(
            Mapping::from_groups(&[&[0, 2]], 2).is_err(),
            "gap at task 1"
        );
        assert!(Mapping::from_groups(&[&[0], &[1], &[2]], 2).is_err());
    }

    #[test]
    fn try_new_validates_cores() {
        assert!(Mapping::try_new(vec![c(0), c(5)], 2).is_err());
        assert!(Mapping::try_new(vec![], 2).is_err());
    }

    #[test]
    fn relocate_and_inverse() {
        let mut m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let inv = m.apply(Move::Relocate {
            task: t(0),
            to: c(1),
        });
        assert_eq!(m.core_of(t(0)), c(1));
        m.apply(inv);
        assert_eq!(m.core_of(t(0)), c(0));
    }

    #[test]
    fn swap_exchanges_cores() {
        let mut m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        m.apply(Move::Swap { a: t(0), b: t(2) });
        assert_eq!(m.core_of(t(0)), c(1));
        assert_eq!(m.core_of(t(2)), c(0));
    }

    #[test]
    fn neighbourhood_counts() {
        // 3 tasks on 2 cores: 3 relocations (each task has exactly one other
        // core) + swaps between cross-core pairs.
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let n = m.neighbourhood();
        let relocations = n
            .iter()
            .filter(|mv| matches!(mv, Move::Relocate { .. }))
            .count();
        let swaps = n
            .iter()
            .filter(|mv| matches!(mv, Move::Swap { .. }))
            .count();
        assert_eq!(relocations, 3);
        assert_eq!(swaps, 2); // (0,2) and (1,2)
    }

    #[test]
    fn neighbourhood_moves_are_valid() {
        let m = Mapping::from_groups(&[&[0, 1, 2], &[3], &[4]], 3).unwrap();
        for mv in m.neighbourhood() {
            let next = m.with_move(mv);
            assert_ne!(next, m, "a move must change the mapping: {mv}");
        }
    }

    #[test]
    fn lazy_neighbourhood_matches_materialized() {
        // Deterministic xorshift draws: sea-sched has no RNG dependency.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut mappings = Vec::new();
        for (groups, cores) in [
            (vec![vec![0usize, 1], vec![2]], 2),
            (vec![vec![0, 1, 2], vec![3], vec![4, 5]], 3),
            (vec![vec![0], vec![1], vec![2], vec![3]], 4),
            // An empty core.
            (vec![vec![0, 3], vec![], vec![1, 2, 4]], 3),
            // C = 1: no relocations and no cross-core pairs.
            (vec![vec![0, 1, 2, 3]], 1),
        ] {
            let refs: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            mappings.push(Mapping::from_groups(&refs, cores).unwrap());
        }
        // The last shape exceeds the draw's on-stack per-core scratch.
        for (n, cores) in [(7, 2), (30, 3), (64, 6), (100, 6), (120, 8), (90, 70)] {
            let assign = (0..n).map(|_| c(draw(cores))).collect();
            mappings.push(Mapping::try_new(assign, cores).unwrap());
        }

        let check_every_index = |m: &Mapping| {
            let lazy: Vec<Move> = m.neighbourhood_iter().collect();
            assert_eq!(m.neighbourhood(), lazy);
            assert_eq!(lazy.len(), m.neighbourhood_len());
            for (i, &mv) in lazy.iter().enumerate() {
                assert_eq!(m.nth_neighbourhood_move(i), Some(mv), "index {i} of {m}");
            }
            assert_eq!(m.nth_neighbourhood_move(lazy.len()), None);
        };
        let hash = |m: &Mapping| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        for mut m in mappings {
            check_every_index(&m);
            // A random walk of moves and undos keeps the derived per-core
            // counts equal to a recount from the assignment.
            for step in 0..300 {
                let len = m.neighbourhood_len();
                if len == 0 {
                    break;
                }
                let mv = m.nth_neighbourhood_move(draw(len)).unwrap();
                let inverse = m.apply(mv);
                if step % 3 == 0 {
                    m.apply(inverse);
                }
                assert_eq!(m.neighbourhood_len(), m.neighbourhood_iter().count());
                let groups = m.groups();
                assert_eq!(m.uses_all_cores(), groups.iter().all(|g| !g.is_empty()));
                for (core, group) in groups.iter().enumerate() {
                    assert_eq!(m.count_on(c(core)), group.len());
                }
                // Equality and hashing are functions of the assignment.
                let recounted = Mapping::try_new(m.assign.clone(), m.n_cores()).unwrap();
                assert_eq!(m, recounted);
                assert_eq!(hash(&m), hash(&recounted));
            }
            check_every_index(&m);
        }
    }

    #[test]
    fn borrowing_accessors_match_owned() {
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 3).unwrap();
        for core in 0..3 {
            let c = CoreId::new(core);
            let owned = m.tasks_on(c);
            let lazy: Vec<TaskId> = m.tasks_on_iter(c).collect();
            assert_eq!(owned, lazy);
            assert_eq!(m.count_on(c), owned.len());
        }
    }

    #[test]
    fn groups_round_trip() {
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 3).unwrap();
        let g = m.groups();
        assert_eq!(g[0], vec![t(0), t(2)]);
        assert_eq!(g[1], vec![t(1)]);
        assert!(g[2].is_empty());
        assert!(!m.uses_all_cores());
    }

    #[test]
    fn display_is_readable() {
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let s = m.to_string();
        assert!(s.contains("core1: t1 t2"), "got {s}");
        assert!(s.contains("core2: t3"), "got {s}");
    }

    #[test]
    fn all_on_one_core_is_degenerate() {
        let m = Mapping::all_on_one_core(4, 3);
        assert!(!m.uses_all_cores());
        assert_eq!(m.tasks_on(c(0)).len(), 4);
    }
}
