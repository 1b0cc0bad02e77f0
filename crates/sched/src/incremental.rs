//! Delta evaluation: incremental list scheduling for single-move searches.
//!
//! The annealer's hot loop perturbs one accepted mapping by a single
//! [`Move`] — relocate one task or swap two — evaluates the neighbour, and
//! accepts or rejects. The reference [`EvalContext::evaluate`] re-schedules
//! every task and allocates a per-core breakdown for every candidate;
//! [`IncrementalEvaluator`], the hot path, instead caches the last
//! *accepted* schedule (per-task placements, per-core lanes and busy
//! times, per-core register unions) in buffers sized at construction,
//! replays only what a move can invalidate, and returns the `Copy`
//! [`EvalSummary`].
//!
//! # What a `Move` may invalidate
//!
//! The scheduler visits tasks in the graph's static priority order
//! ([`TaskGraphSoa::schedule_order`]), which no move can change. A task's
//! placement depends only on earlier-visited tasks (its predecessors'
//! finish times and its core's lane state) plus its own core assignment.
//! Let `p` be the smallest order position among the moved tasks. Every
//! placement at positions `< p` is therefore *bitwise unchanged*. From
//! `p` onward the evaluator walks the order tracking the move's *cone of
//! influence*: a task is re-placed (through the same `place_task`
//! routine the full pass uses) only if it moved, a predecessor's
//! placement changed, or its core's timeline diverged — everything else
//! provably keeps its committed placement bit for bit and is skipped.
//! Core state is reconstructed lazily the first time a re-placement
//! lands on a core: the lane is the committed lane filtered to
//! earlier-visited clean tasks (insertion never reorders surviving
//! entries) and busy is the committed partial-sum snapshot at `p` plus
//! the clean durations re-added in visit order — the same additions, in
//! the same order, the full pass performs. Per-core register unions
//! depend only on the mapping; because block bits are integers, each
//! union is maintained as block-occupancy counts updated *in place* by
//! the moved tasks' count transitions (reverted on reject). Per-core
//! SER rates (`λ`, an `exp` of the operating voltage) depend only on
//! the scaling, which is fixed across one anneal, and are cached at
//! [`IncrementalEvaluator::prime`].
//!
//! # One replay
//!
//! Every evaluation runs that one replay. Without a move to replay —
//! [`IncrementalEvaluator::prime`], or a move with no committed base for
//! the active scaling — it starts at position 0 with every core marked
//! dirty, so every task is re-placed on a lane rebuilt from empty: the
//! full list schedule, through the same loop.
//!
//! # Early rejection
//!
//! An annealer schedules a candidate only to compare it with the
//! incumbent, and most comparisons reject. So
//! [`IncrementalEvaluator::evaluate_move`] takes the caller's acceptance
//! rule as a [`RejectionTest`] and stops scheduling as soon as the rule
//! proves the candidate rejected.
//! Register unions depend on the mapping only, so the move's count shift
//! runs before the replay. The candidate's makespan `TM` is then bounded
//! below, before any placement, by the largest of
//!
//! * the unchanged prefix makespan `fill_at[p]` at the move's first order
//!   position `p`,
//! * the scaling's mapping-independent [`tm_lower_bound`], and
//! * the busiest core's busy time under the new mapping. Durations depend
//!   on the mapping only, so the committed busy times are patched in
//!   O(degree) from the moved tasks and their successors, then scaled by
//!   [`BOUND_SLACK`] (the patch rounds differently from the replay's
//!   visit-order sums); in pipelined mode that busy time also bounds the
//!   period, which adds `(I − 1) ·` it.
//!
//! During the replay the bound rises with the running makespan. At fixed
//! register unions every annealer score is non-decreasing in `TM`, and
//! `Γ` at the bound, computed through the same per-core expression, is at
//! most the real `Γ` bit for bit — so a rule that rejects at the bound
//! rejects the finished candidate. The rule supplies the `TM` checkpoint
//! at which a proof is worth its cost; a failed proof stops the checks
//! for that candidate, so the checkpoint decides only when a proof runs,
//! never what it concludes. A rejected candidate is never committed:
//! follow it with [`IncrementalEvaluator::reject`]. The
//! [`ExposurePolicy::BusyOnly`] policy never rejects early (its `Γ` does
//! not factor through `TM`).
//!
//! # Determinism cross-check
//!
//! Debug builds re-evaluate every candidate through the reference path
//! ([`IncrementalEvaluator::evaluate_full`]: [`EvalContext::evaluate`]'s
//! schedule-then-score, on the evaluator's shared graph view) and
//! `debug_assert!` bitwise equality of the summaries, or, for an early
//! rejection, that the rule rejects the reference summary too, so any
//! drift between the paths fails the test suite immediately. Release
//! builds compile the cross-check out; there, `tests/small_scope.rs`
//! checks every move of every small instance (all 4-task graphs on 2 and
//! 3 cores) against the reference exhaustively.

use std::sync::Arc;

use sea_arch::power::watts_to_mw;
use sea_arch::{CoreId, ScalingVector, VoltageLevel};
use sea_taskgraph::units::Bits;
use sea_taskgraph::{ExecutionMode, RegisterModel, TaskGraphSoa, TaskId};

use crate::bounds::{tm_lower_bound, BOUND_SLACK};
use crate::mapping::{Mapping, Move};
use crate::metrics::{core_scalars, EvalContext, EvalSummary, ExposurePolicy, MappingEvaluation};
use crate::schedule::{check_shapes, list_schedule_on, place_task, task_duration, ScheduledTask};
use crate::SchedError;

/// True when every field of two summaries is bit-for-bit identical
/// (`f64` fields compared through `to_bits`, so `-0.0 != 0.0` and NaNs
/// compare by payload — stricter than `PartialEq`).
#[must_use]
pub fn summaries_bitwise_eq(a: &EvalSummary, b: &EvalSummary) -> bool {
    a.tm_seconds.to_bits() == b.tm_seconds.to_bits()
        && a.tm_nominal_cycles.to_bits() == b.tm_nominal_cycles.to_bits()
        && a.meets_deadline == b.meets_deadline
        && a.power_mw.to_bits() == b.power_mw.to_bits()
        && a.gamma.to_bits() == b.gamma.to_bits()
        && a.r_total == b.r_total
}

/// A caller's acceptance rule, consulted by
/// [`IncrementalEvaluator::evaluate_move`] to stop scheduling a candidate
/// once its rejection is proven (see the module docs).
///
/// The evaluator hands the rule *bound summaries*: the candidate's exact
/// register usage evaluated at a lower bound on its makespan. Their
/// `tm_seconds`, `tm_nominal_cycles` and `gamma` are at most the finished
/// candidate's, bit for bit; `power_mw` is 0, a trivial bound; and
/// `meets_deadline` compares the bound with the deadline, so it holds
/// whenever the candidate's own flag does. Every score either flow anneals
/// is non-decreasing in `TM` at fixed register usage.
pub trait RejectionTest {
    /// The makespan bound, in seconds, from which
    /// [`RejectionTest::proves_rejection`] is worth running, given the
    /// bound summary before the replay. It only decides when the proof
    /// runs: a wrong checkpoint costs speed, never exactness.
    fn checkpoint(&self, bound: &EvalSummary) -> f64;

    /// True only if every candidate with `bound`'s register usage and a
    /// makespan at or above `bound.tm_seconds` is rejected.
    fn proves_rejection(&self, bound: &EvalSummary) -> bool;

    /// The rule's decision on a finished summary: true if it rejects.
    /// Debug builds check every early rejection against it.
    fn rejects(&self, summary: &EvalSummary) -> bool;
}

/// Counters describing how candidates were evaluated (observability for
/// benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Full evaluations that (re)established the committed cache.
    pub primes: u64,
    /// Moves evaluated against a committed base: every move once the
    /// active scaling is primed, replayed from its first order position.
    pub incremental: u64,
    /// Moves evaluated without a committed base for the active scaling,
    /// replayed from position 0.
    pub fallback: u64,
    /// Tasks actually re-placed across all replays (the cone of
    /// influence), versus `replay_window`: tasks *visited*. Their ratio
    /// is the fraction of the replay window the cone covers.
    pub replayed_tasks: u64,
    /// Total replay lengths (visit-order positions from the replay's
    /// start to the end) across all replays, primes included.
    pub replay_window: u64,
    /// Moves whose rejection was proven before any task was placed.
    pub rejected_before_replay: u64,
    /// Moves whose rejection was proven part-way through the replay.
    pub rejected_during_replay: u64,
}

/// One complete cached schedule: everything needed to reconstruct any
/// prefix of the static visit order without re-placing a task.
#[derive(Debug, Clone, Default)]
struct ScheduleCache {
    /// Per-task finish seconds, indexed by task id.
    finish: Vec<f64>,
    /// Per-task duration seconds (computation + inbound comm), indexed
    /// by task id. Busy times are re-accumulated from these in visit
    /// order; `finish - start` would round differently.
    dur: Vec<f64>,
    /// The mapping this schedule was computed for.
    core: Vec<CoreId>,
    /// Per-core busy seconds (fill pass).
    busy: Vec<f64>,
    /// Per-core timelines, sorted by start time.
    lanes: Vec<Vec<ScheduledTask>>,
}

impl ScheduleCache {
    fn with_shapes(n_tasks: usize, n_cores: usize) -> Self {
        ScheduleCache {
            finish: Vec::with_capacity(n_tasks),
            dur: Vec::with_capacity(n_tasks),
            core: Vec::with_capacity(n_tasks),
            busy: Vec::with_capacity(n_cores),
            lanes: (0..n_cores).map(|_| Vec::with_capacity(n_tasks)).collect(),
        }
    }
}

/// The hot-path evaluator for one `(application, architecture)` pair: an
/// evaluation context and its shared graph view, plus the
/// committed-schedule cache that makes single-move candidates cheap.
/// Construction sizes every buffer from the two shapes, so not even the
/// first call allocates; each thread of a parallel search owns one.
///
/// The protocol mirrors the annealer's apply/undo loop:
///
/// 1. [`IncrementalEvaluator::prime`] evaluates the current design fully
///    and commits it as the cache base (once per scaling).
/// 2. [`IncrementalEvaluator::evaluate_move`] evaluates `current + move`
///    into a candidate buffer without touching the committed base, or
///    answers that the caller's [`RejectionTest`] rejects it.
/// 3. [`IncrementalEvaluator::accept`] promotes the candidate to the new
///    base (two buffer swaps); [`IncrementalEvaluator::reject`] simply
///    discards it, and is the only valid follow-up to a rejection.
#[derive(Debug, Clone)]
pub struct IncrementalEvaluator<'a> {
    ctx: EvalContext<'a>,
    /// Structure-of-arrays graph view (static schedule order, CSR
    /// adjacency, costs), fixed for the application.
    soa: Arc<TaskGraphSoa>,
    /// True when `committed` holds the schedule of the last accepted
    /// mapping under the cached scaling constants.
    primed: bool,
    /// True when `candidate` holds a just-evaluated move.
    candidate_valid: bool,
    /// Scaling coefficients the cached constants below were derived from.
    scaling: Vec<u8>,
    /// Per-core effective frequency under the cached scaling.
    freq: Vec<f64>,
    /// Per-core operating point under the cached scaling.
    levels: Vec<VoltageLevel>,
    /// Per-core SER rate `λ(vdd)` — caches the `exp` per scaling.
    lambdas: Vec<f64>,
    /// Cost scale for one fill pass (1 / iterations).
    scale: f64,
    /// [`tm_lower_bound`] under the cached scaling.
    tm_lb: f64,
    /// Nominal (level-1) frequency — architecture constant.
    nominal_f: f64,
    /// Switched-capacitance load — architecture constant.
    c_load: f64,
    /// Register-block count — application constant.
    n_blocks: usize,
    /// Per-core register-block union for the counts state below.
    r_bits: Vec<Bits>,
    /// `n_cores × n_blocks` row-major occupancy counts: how many tasks on
    /// each core use each register block. Bits are integers, so a move's
    /// effect on `r_bits` reduces to count transitions (`1 → 0` removes a
    /// block's bits, `0 → 1` adds them) — no per-core union rescan.
    /// Maintained *in place* (the matrix can dwarf the schedule, so a
    /// copy per candidate would dominate): evaluating a move shifts the
    /// moved tasks' blocks, rejecting shifts them back, accepting keeps
    /// them. `pending_shift` tracks which of the two states the matrix
    /// is in.
    block_counts: Vec<u32>,
    /// The move whose block shift is currently applied to `block_counts`
    /// without having been accepted yet; reverted on reject (or before
    /// the next candidate, whichever comes first).
    pending_shift: Option<Move>,
    committed: ScheduleCache,
    candidate: ScheduleCache,
    /// Prefix snapshots of the *committed* schedule, `(n + 1) × n_cores`
    /// row-major: row `i` is the per-core busy vector before the task at
    /// order position `i` was placed (row 0 all zeros, row `n` final). A
    /// replay from position `p` starts from a `memcpy` of row `p` instead
    /// of re-accumulating `p` durations.
    busy_at: Vec<f64>,
    /// Prefix maxima of the committed finish times in visit order:
    /// `fill_at[i]` is the fold of the first `i` placements' finishes
    /// (seeded 0.0). Exact because `f64::max` over the positive finish
    /// values is order-insensitive bit for bit, so the full pass's fold
    /// over all `n` finishes equals `max(fill_at[p], suffix maxima)`.
    fill_at: Vec<f64>,
    /// Per-task dirty flags for the cone-of-influence replay: a task is
    /// dirty when its placement may differ from the committed one (it
    /// moved, its core's timeline diverged, or a predecessor's placement
    /// changed). Non-dirty suffix tasks are *skipped* — their committed
    /// placements are provably bitwise identical.
    dirty_task: Vec<bool>,
    /// Per-core flag: the core's timeline diverged from the committed
    /// schedule (a moved task left/joined it, or a dirty task was
    /// re-placed on it), so every later task on it must be re-placed.
    dirty_cores: Vec<bool>,
    /// Per-core flag: the candidate lane buffer has been materialized
    /// for the current candidate. Clean cores skip materialization and
    /// keep their committed lane (patched up on accept).
    lane_done: Vec<bool>,
    /// Scratch: per-core busy excluding dirty tasks, maintained in visit
    /// order as the replay loop skips clean tasks (seeded from the
    /// `busy_at` row at the replay start). Materializing a core reads
    /// its clean busy in O(1) — the partial sums equal a re-accumulation
    /// of the same durations in the same order, so they are exact.
    clean_busy: Vec<f64>,
    /// Order position the last candidate was replayed from.
    cand_from_pos: usize,
    /// Scratch: per-core busy times of the candidate mapping, patched
    /// from the committed ones for the early-rejection bound.
    busy_bound: Vec<f64>,
    /// Scratch: per-task marks deduplicating the tasks whose duration a
    /// move changes (all false between calls).
    touched: Vec<bool>,
    /// True when the last `evaluate_move` proved its candidate rejected;
    /// its schedule was never finished, so it must not be accepted.
    rejected: bool,
    stats: IncrementalStats,
}

impl<'a> IncrementalEvaluator<'a> {
    /// Creates an incremental evaluator around a context, building the
    /// graph view and pre-sizing every buffer.
    #[must_use]
    pub fn new(ctx: EvalContext<'a>) -> Self {
        let soa = Arc::new(TaskGraphSoa::new(ctx.app()));
        Self::with_soa(ctx, soa)
    }

    /// Creates an incremental evaluator around a pre-built (typically
    /// [`TaskGraphSoa::shared`]-memoized) graph view.
    #[must_use]
    pub fn with_soa(ctx: EvalContext<'a>, soa: Arc<TaskGraphSoa>) -> Self {
        let n = soa.len();
        debug_assert_eq!(n, ctx.app().graph().len(), "SoA/application mismatch");
        let n_cores = ctx.arch().n_cores();
        let n_blocks = ctx.app().registers().blocks().len();
        let nominal_f = ctx.arch().levels().level(1).f_hz;
        let c_load = ctx.arch().c_load_farads();
        IncrementalEvaluator {
            ctx,
            soa,
            primed: false,
            candidate_valid: false,
            scaling: Vec::with_capacity(n_cores),
            freq: Vec::with_capacity(n_cores),
            levels: Vec::with_capacity(n_cores),
            lambdas: Vec::with_capacity(n_cores),
            scale: 1.0,
            tm_lb: 0.0,
            nominal_f,
            c_load,
            n_blocks,
            r_bits: vec![Bits::ZERO; n_cores],
            block_counts: vec![0; n_cores * n_blocks],
            pending_shift: None,
            committed: ScheduleCache::with_shapes(n, n_cores),
            candidate: ScheduleCache::with_shapes(n, n_cores),
            busy_at: vec![0.0; (n + 1) * n_cores],
            fill_at: vec![0.0; n + 1],
            dirty_task: vec![false; n],
            dirty_cores: vec![false; n_cores],
            lane_done: vec![false; n_cores],
            clean_busy: vec![0.0; n_cores],
            cand_from_pos: 0,
            busy_bound: vec![0.0; n_cores],
            touched: vec![false; n],
            rejected: false,
            stats: IncrementalStats::default(),
        }
    }

    /// The evaluation context.
    #[must_use]
    pub fn ctx(&self) -> &EvalContext<'a> {
        &self.ctx
    }

    /// The structure-of-arrays graph view.
    #[must_use]
    pub fn soa(&self) -> &Arc<TaskGraphSoa> {
        &self.soa
    }

    /// How candidates have been evaluated so far.
    #[must_use]
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// The reference evaluation, with the per-core breakdown:
    /// [`EvalContext::evaluate`] scheduled on the shared graph view. It
    /// allocates and leaves the committed cache alone, so it serves off
    /// the hot loop (warm-start comparisons, the returned best design)
    /// and the debug cross-check.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::ShapeMismatch`] for inconsistent shapes.
    pub fn evaluate_full(
        &self,
        mapping: &Mapping,
        scaling: &ScalingVector,
    ) -> Result<MappingEvaluation, SchedError> {
        let (app, arch) = (self.ctx.app(), self.ctx.arch());
        let schedule = list_schedule_on(&self.soa, app, arch, mapping, scaling)?;
        Ok(self.ctx.evaluate_scheduled(mapping, scaling, &schedule))
    }

    /// Fully evaluates `mapping` under `scaling`, commits the schedule
    /// as the incremental base and caches the per-scaling constants
    /// (frequencies, operating points, SER rates). Call once per
    /// scaling before a run of [`IncrementalEvaluator::evaluate_move`].
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::ShapeMismatch`] for inconsistent shapes.
    pub fn prime(
        &mut self,
        mapping: &Mapping,
        scaling: &ScalingVector,
    ) -> Result<EvalSummary, SchedError> {
        check_shapes(self.ctx.app(), self.ctx.arch(), mapping, scaling)?;
        self.load_scaling(scaling);
        let summary = self
            .compute_candidate(mapping, None, None)
            .expect("no rejection test, no rejection");
        self.candidate.summary_commit_guard();
        std::mem::swap(&mut self.committed, &mut self.candidate);
        self.commit_candidate();
        self.primed = true;
        self.candidate_valid = false;
        self.rejected = false;
        self.stats.primes += 1;
        Ok(summary)
    }

    /// Evaluates `mapping` (= the committed mapping with `mv` applied)
    /// into the candidate buffer by replaying the move's cone of
    /// influence from the moved tasks' first order position. Follow with
    /// [`IncrementalEvaluator::accept`] or
    /// [`IncrementalEvaluator::reject`].
    ///
    /// With a `test`, returns `Ok(None)` as soon as the test proves the
    /// candidate rejected (see the module docs); its schedule is left
    /// unfinished, so only [`IncrementalEvaluator::reject`] may follow.
    /// Every summary returned is the complete one, bitwise equal to the
    /// reference path.
    ///
    /// Without a committed base for the active scaling the replay starts
    /// at position 0, as [`IncrementalEvaluator::prime`]'s does, with no
    /// rejection test (the candidate may still be accepted); callers need
    /// not track priming themselves.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::ShapeMismatch`] for inconsistent shapes.
    pub fn evaluate_move(
        &mut self,
        mapping: &Mapping,
        scaling: &ScalingVector,
        mv: Move,
        test: Option<&dyn RejectionTest>,
    ) -> Result<Option<EvalSummary>, SchedError> {
        self.rejected = false;
        let outcome = if self.primed && self.scaling == scaling.coefficients() {
            debug_assert_eq!(mapping.n_tasks(), self.soa().len());
            let p = match mv {
                Move::Relocate { task, .. } => self.soa().position(task),
                Move::Swap { a, b } => self.soa().position(a).min(self.soa().position(b)),
            };
            self.stats.incremental += 1;
            self.compute_candidate(mapping, Some((mv, p)), test)
        } else {
            check_shapes(self.ctx.app(), self.ctx.arch(), mapping, scaling)?;
            self.load_scaling(scaling);
            self.stats.fallback += 1;
            self.compute_candidate(mapping, None, None)
        };
        #[cfg(debug_assertions)]
        {
            let reference = self.evaluate_full(mapping, scaling)?.summary();
            match (&outcome, test) {
                (Some(summary), _) => debug_assert!(
                    summaries_bitwise_eq(summary, &reference),
                    "incremental evaluation diverged from the reference path for {mv}:\n  incremental: {summary:?}\n  reference:   {reference:?}"
                ),
                (None, Some(test)) => debug_assert!(
                    test.rejects(&reference),
                    "early rejection of {mv} disagrees with the rule on the reference path: {reference:?}"
                ),
                (None, None) => unreachable!("rejected without a rejection test"),
            }
        }
        self.candidate_valid = outcome.is_some();
        self.rejected = outcome.is_none();
        Ok(outcome)
    }

    /// Promotes the last evaluated candidate to the committed base (the
    /// caller accepted the move). No-op when nothing was evaluated since
    /// the last accept/reject.
    ///
    /// # Panics
    ///
    /// Debug builds panic when the last `evaluate_move` proved its
    /// candidate rejected: that schedule was never finished.
    pub fn accept(&mut self) {
        debug_assert!(
            !self.rejected,
            "accept() after evaluate_move proved the candidate rejected"
        );
        if self.candidate_valid {
            // The candidate's block shift (if any) now describes the
            // committed mapping — keep it.
            self.pending_shift = None;
            std::mem::swap(&mut self.committed, &mut self.candidate);
            self.commit_candidate();
            self.primed = true;
        }
        self.candidate_valid = false;
    }

    /// Finalizes a just-promoted candidate (called right after the
    /// committed/candidate buffer swap). Clean cores were never
    /// materialized into the accepted buffer — their lanes are bitwise
    /// unchanged, so the valid copy is pulled back from the other buffer
    /// (which held the previous committed schedule). The busy/fill
    /// prefix snapshots are then rebuilt for the replayed tail from the
    /// accepted durations and finishes: the same additions, in the same
    /// visit order, that placement performed. Rejects pay none of this.
    fn commit_candidate(&mut self) {
        let Self {
            soa,
            committed,
            candidate,
            busy_at,
            fill_at,
            lane_done,
            cand_from_pos,
            ..
        } = self;
        let n_cores = committed.busy.len();
        for ((done, accepted), previous) in lane_done
            .iter()
            .zip(committed.lanes.iter_mut())
            .zip(candidate.lanes.iter_mut())
        {
            if !*done {
                std::mem::swap(accepted, previous);
            }
        }
        let order = soa.schedule_order();
        for q in *cand_from_pos..order.len() {
            let ti = order[q].index();
            let ci = committed.core[ti].index();
            busy_at.copy_within(q * n_cores..(q + 1) * n_cores, (q + 1) * n_cores);
            busy_at[(q + 1) * n_cores + ci] += committed.dur[ti];
            fill_at[q + 1] = fill_at[q].max(committed.finish[ti]);
        }
        #[cfg(debug_assertions)]
        for (ci, &b) in committed.busy.iter().enumerate() {
            debug_assert_eq!(
                busy_at[order.len() * n_cores + ci].to_bits(),
                b.to_bits(),
                "rebuilt busy snapshot diverged on core {ci}"
            );
        }
    }

    /// Discards the last evaluated candidate (the caller rejected the
    /// move and undid it); the committed base stays authoritative. The
    /// candidate's block shift is reverted, restoring the occupancy
    /// counts to the committed mapping's.
    pub fn reject(&mut self) {
        if let Some(mv) = self.pending_shift.take() {
            shift_move(
                self.ctx.app().registers(),
                self.n_blocks,
                &mut self.block_counts,
                &mut self.r_bits,
                &self.committed.core,
                mv,
                true,
            );
        }
        self.candidate_valid = false;
        self.rejected = false;
    }

    /// Caches the per-scaling constants: effective frequencies,
    /// operating points and SER rates per core, the fill-pass cost scale
    /// and the makespan lower bound. Invalidates the committed base.
    fn load_scaling(&mut self, scaling: &ScalingVector) {
        let Self {
            ctx,
            soa,
            scaling: cached,
            freq,
            levels,
            lambdas,
            scale,
            tm_lb,
            primed,
            ..
        } = self;
        let arch = ctx.arch();
        let ser = *ctx.ser();
        cached.clear();
        cached.extend_from_slice(scaling.coefficients());
        freq.clear();
        freq.extend(arch.cores().map(|c| arch.effective_frequency(c, scaling)));
        levels.clear();
        lambdas.clear();
        for core in arch.cores() {
            let level = arch.operating_point(core, scaling);
            levels.push(level);
            lambdas.push(ser.lambda(level.vdd));
        }
        *scale = 1.0 / f64::from(ctx.app().mode().iterations());
        *tm_lb = tm_lower_bound(soa, ctx.app().mode(), arch, scaling);
        *primed = false;
    }

    /// Evaluates `mapping` into the candidate buffer by replaying its
    /// cone of influence (dirty tasks/cores) on prefix state
    /// reconstructed from the committed cache. `delta` is the move
    /// separating `mapping` from the committed base, with its first order
    /// position `p`; with it, the replay starts at `p`, register unions
    /// are updated by occupancy-count transitions instead of per-core
    /// rescans, and `test` may end the evaluation early with `None` (see
    /// the module docs). Without it the replay starts at position 0 with
    /// every core dirty, which recomputes everything. Shares
    /// [`place_task`] with the reference scheduler and accumulates in the
    /// same order, so a returned summary is bitwise identical to the
    /// reference evaluation of `mapping`.
    #[allow(clippy::too_many_lines)]
    fn compute_candidate(
        &mut self,
        mapping: &Mapping,
        delta: Option<(Move, usize)>,
        test: Option<&dyn RejectionTest>,
    ) -> Option<EvalSummary> {
        let Self {
            ctx,
            soa,
            committed,
            candidate,
            freq,
            scale,
            levels,
            lambdas,
            tm_lb,
            nominal_f,
            c_load,
            n_blocks,
            r_bits,
            block_counts,
            pending_shift,
            busy_at,
            fill_at,
            dirty_task,
            dirty_cores,
            lane_done,
            clean_busy,
            cand_from_pos,
            busy_bound,
            touched,
            stats,
            ..
        } = self;
        let n_blocks = *n_blocks;
        let from_pos = delta.map_or(0, |(_, p)| p);
        *cand_from_pos = from_pos;
        let soa: &TaskGraphSoa = soa;
        let app = ctx.app();
        let arch = ctx.arch();
        let registers = app.registers();
        let exposure = ctx.exposure();
        let n = soa.len();
        let n_cores = arch.n_cores();
        let order = soa.schedule_order();

        // A shift left in place by a candidate that was never accepted or
        // rejected (protocol misuse) would corrupt the counts — undo it
        // so every path starts from the committed mapping's state.
        if let Some(prev) = pending_shift.take() {
            shift_move(
                registers,
                n_blocks,
                block_counts,
                r_bits,
                &committed.core,
                prev,
                true,
            );
        }

        // Register unions: a pure function of the mapping per core, so
        // they are settled before the replay (the rejection bounds below
        // need them). Bits are integers, so each core's union is the
        // (order-insensitive) sum of the bits of its occupied blocks, and
        // a move only shifts occupancy counts for the moved tasks' blocks
        // — applied in place (undone on reject) rather than copied per
        // candidate.
        match delta {
            None => {
                block_counts.fill(0);
                for t in 0..n {
                    let t = TaskId::new(t);
                    let base = mapping.core_of(t).index() * n_blocks;
                    for &b in registers.task_blocks(t) {
                        block_counts[base + b.index()] += 1;
                    }
                }
                for c in 0..n_cores {
                    let row = &block_counts[c * n_blocks..(c + 1) * n_blocks];
                    let mut r = Bits::ZERO;
                    for (blk, &count) in registers.blocks().iter().zip(row) {
                        if count > 0 {
                            r += blk.bits();
                        }
                    }
                    r_bits[c] = r;
                }
            }
            Some((mv, _)) => {
                shift_move(
                    registers,
                    n_blocks,
                    block_counts,
                    r_bits,
                    &committed.core,
                    mv,
                    false,
                );
                *pending_shift = Some(mv);
            }
        }
        let (levels, lambdas, r_bits): (&[VoltageLevel], &[f64], &[Bits]) =
            (levels, lambdas, r_bits);
        let deadline = app.deadline_s();
        let bound_at =
            |tm: f64| bound_summary(tm, levels, lambdas, r_bits, exposure, *nominal_f, deadline);

        // Early rejection: `tm_bound` is a lower bound on the candidate's
        // makespan before any placement, and `period_tail` the pipelined
        // steady-state share of it; the running fill plus that tail
        // raises it during the replay. `check_fill` is the running fill
        // at which the single in-replay proof runs (never, by default).
        let mut tm_bound = 0.0f64;
        let mut period_tail = 0.0f64;
        let mut check_fill = f64::INFINITY;
        let test = test.filter(|_| exposure == ExposurePolicy::WholeRun);
        if let (Some(test), Some((mv, p))) = (test, delta) {
            let busiest = busiest_core_busy(
                soa, mapping, freq, *scale, committed, mv, busy_bound, touched,
            ) * BOUND_SLACK;
            period_tail = match app.mode() {
                ExecutionMode::Batch => 0.0,
                ExecutionMode::Pipelined { iterations } => busiest * f64::from(iterations - 1),
            };
            tm_bound = (fill_at[p].max(busiest) + period_tail).max(*tm_lb);
            let bound = bound_at(tm_bound);
            let checkpoint = test.checkpoint(&bound);
            if tm_bound >= checkpoint {
                if test.proves_rejection(&bound) {
                    stats.rejected_before_replay += 1;
                    return None;
                }
            } else {
                check_fill = checkpoint - period_tail;
            }
        }
        // The in-replay proof, once the running fill reaches `check_fill`:
        // `fill + period_tail` bounds the makespan from below (fill only
        // grows, and the tail's busy time bounds the period).
        let proven_at = |fill: f64| {
            test.is_some_and(|test| {
                test.proves_rejection(&bound_at((fill + period_tail).max(tm_bound)))
            })
        };

        // Cone-of-influence replay. A task's placement can differ from
        // the committed one only if the task moved, its core's timeline
        // diverged (a moved task left/joined it, or a dirty task was
        // re-placed on it), or a predecessor's placement changed —
        // everything else is bitwise unchanged and simply kept. The visit
        // order is topological, so each task's predecessors are
        // classified before it.
        dirty_task.fill(false);
        lane_done.fill(false);
        candidate.finish.clear();
        candidate.dur.clear();
        candidate.busy.clear();
        match delta {
            Some((mv, _)) => {
                dirty_cores.fill(false);
                match mv {
                    Move::Relocate { task, to } => {
                        dirty_task[task.index()] = true;
                        dirty_cores[committed.core[task.index()].index()] = true;
                        dirty_cores[to.index()] = true;
                    }
                    Move::Swap { a, b } => {
                        dirty_task[a.index()] = true;
                        dirty_task[b.index()] = true;
                        dirty_cores[committed.core[a.index()].index()] = true;
                        dirty_cores[committed.core[b.index()].index()] = true;
                    }
                }
                // Prefix placements (and skipped suffix placements) are
                // the committed ones; replayed tasks overwrite their slots.
                candidate.finish.extend_from_slice(&committed.finish);
                candidate.dur.extend_from_slice(&committed.dur);
                candidate.busy.extend_from_slice(&committed.busy);
            }
            // No base to keep: every core is dirty, so every task is
            // re-placed and every lane is rebuilt from empty (the
            // committed lanes hold no clean task to filter in).
            None => {
                dirty_cores.fill(true);
                candidate.finish.resize(n, f64::NAN);
                candidate.dur.resize(n, 0.0);
                candidate.busy.resize(n_cores, 0.0);
            }
        }
        candidate.lanes.resize_with(n_cores, Vec::new);
        let mut fill = fill_at[from_pos];
        let row = from_pos * n_cores;
        clean_busy.copy_from_slice(&busy_at[row..row + n_cores]);
        stats.replay_window += (n - from_pos) as u64;
        for (q, &t) in order.iter().enumerate().skip(from_pos) {
            let ti = t.index();
            let c = mapping.core_of(t);
            let ci = c.index();
            let mut dirty = dirty_task[ti] || dirty_cores[ci];
            if !dirty {
                for &(p, _) in soa.predecessors(t) {
                    if dirty_task[p as usize] {
                        dirty = true;
                        break;
                    }
                }
            }
            if dirty {
                stats.replayed_tasks += 1;
                dirty_task[ti] = true;
                dirty_cores[ci] = true;
                if !lane_done[ci] {
                    materialize_lane(
                        soa,
                        committed,
                        dirty_task,
                        q,
                        ci,
                        clean_busy[ci],
                        &mut candidate.lanes[ci],
                        &mut candidate.busy[ci],
                    );
                    lane_done[ci] = true;
                }
                let placed = place_task(
                    soa,
                    mapping,
                    freq,
                    *scale,
                    t,
                    &mut candidate.finish,
                    &mut candidate.busy,
                    &mut candidate.lanes,
                );
                candidate.dur[ti] = placed.dur_s;
                fill = fill.max(candidate.finish[ti]);
                // Only a re-placement is worth stopping for; a skipped
                // task that lifts the fill past the checkpoint is seen at
                // the next one.
                if fill >= check_fill {
                    if proven_at(fill) {
                        stats.rejected_during_replay += 1;
                        return None;
                    }
                    check_fill = f64::INFINITY;
                }
            } else {
                // Skipped: keep accumulating the core's clean busy in
                // visit order (a dirty core receives no clean tasks, so
                // its value freezes exactly at materialization).
                clean_busy[ci] += candidate.dur[ti];
                fill = fill.max(candidate.finish[ti]);
            }
        }
        // A dirty core that received no placement (e.g. the move's source
        // core emptied of suffix tasks) still needs its lane and busy
        // reconstructed without the departed tasks.
        for ci in 0..n_cores {
            if dirty_cores[ci] && !lane_done[ci] {
                materialize_lane(
                    soa,
                    committed,
                    dirty_task,
                    n,
                    ci,
                    clean_busy[ci],
                    &mut candidate.lanes[ci],
                    &mut candidate.busy[ci],
                );
                lane_done[ci] = true;
            }
        }
        // The core array is the committed one patched by the move (exact:
        // core ids are discrete); without a delta it is rebuilt.
        candidate.core.clear();
        match delta {
            Some((Move::Relocate { task, to }, _)) => {
                candidate.core.extend_from_slice(&committed.core);
                candidate.core[task.index()] = to;
            }
            Some((Move::Swap { a, b }, _)) => {
                candidate.core.extend_from_slice(&committed.core);
                candidate.core.swap(a.index(), b.index());
            }
            None => candidate
                .core
                .extend((0..n).map(|t| mapping.core_of(TaskId::new(t)))),
        }

        // `fill` equals the full pass's fold over all `n` finishes:
        // prefix finishes are bitwise unchanged, their maximum is the
        // `fill_at` snapshot, and `f64::max` over the (strictly positive)
        // finish values is order-insensitive bit for bit.
        let (tm, iter_mult) = match app.mode() {
            ExecutionMode::Batch => (fill, 1.0),
            ExecutionMode::Pipelined { iterations } => {
                let period = candidate.busy.iter().fold(0.0f64, |acc, &b| acc.max(b));
                (
                    fill + period * f64::from(iterations - 1),
                    f64::from(iterations),
                )
            }
        };
        debug_assert!(
            tm_bound <= tm,
            "makespan bound {tm_bound} exceeds the makespan {tm}"
        );

        // Same accumulation order as the reference path (core order), with
        // the per-scaling λ cache supplying the rates. The power sum
        // reproduces `dynamic_power_w` term by term (left fold from 0.0
        // in core order), fused here to skip the activity staging pass.
        let mut gamma = 0.0f64;
        let mut r_total = Bits::ZERO;
        let mut power_acc = 0.0f64;
        for i in 0..n_cores {
            let level = levels[i];
            let busy = candidate.busy[i] * iter_mult;
            let r = r_bits[i];
            let s = core_scalars(level, lambdas[i], busy, tm, r, exposure);
            gamma += s.gamma;
            r_total += r;
            power_acc += s.alpha * level.f_hz * level.vdd * level.vdd;
        }

        let power_mw = watts_to_mw(power_acc * *c_load);
        Some(EvalSummary {
            tm_seconds: tm,
            tm_nominal_cycles: tm * *nominal_f,
            meets_deadline: tm <= deadline,
            power_mw,
            gamma,
            r_total,
        })
    }
}

/// The summary a [`RejectionTest`] sees at makespan lower bound `tm`:
/// `Γ` through the same per-core expression, in the same core order, as
/// the finished summary (so at most it, bit for bit), the exact register
/// usage, and power 0.
fn bound_summary(
    tm: f64,
    levels: &[VoltageLevel],
    lambdas: &[f64],
    r_bits: &[Bits],
    exposure: ExposurePolicy,
    nominal_f: f64,
    deadline: f64,
) -> EvalSummary {
    let mut gamma = 0.0f64;
    let mut r_total = Bits::ZERO;
    for ((&level, &lambda), &r) in levels.iter().zip(lambdas).zip(r_bits) {
        gamma += core_scalars(level, lambda, 0.0, tm, r, exposure).gamma;
        r_total += r;
    }
    EvalSummary {
        tm_seconds: tm,
        tm_nominal_cycles: tm * nominal_f,
        meets_deadline: tm <= deadline,
        power_mw: 0.0,
        gamma,
        r_total,
    }
}

/// The busiest core's fill-pass busy time under `mapping` (the committed
/// mapping with `mv` applied). A task's duration depends on the mapping
/// only, and a move changes it for the moved tasks and their successors
/// alone, so the committed busy times are patched in O(degree) instead
/// of re-summed. The patch rounds differently from the replay's
/// visit-order sums; callers scale the result by [`BOUND_SLACK`].
#[allow(clippy::too_many_arguments)]
fn busiest_core_busy(
    soa: &TaskGraphSoa,
    mapping: &Mapping,
    freq: &[f64],
    scale: f64,
    committed: &ScheduleCache,
    mv: Move,
    busy: &mut [f64],
    touched: &mut [bool],
) -> f64 {
    let (first, second) = match mv {
        Move::Relocate { task, .. } => (task, None),
        Move::Swap { a, b } => (a, Some(b)),
    };
    let affected = || {
        std::iter::once(first).chain(second).flat_map(|m| {
            std::iter::once(m).chain(
                soa.successors(m)
                    .iter()
                    .map(|&(s, _)| TaskId::new(s as usize)),
            )
        })
    };
    busy.copy_from_slice(&committed.busy);
    for t in affected() {
        let ti = t.index();
        if !touched[ti] {
            touched[ti] = true;
            busy[committed.core[ti].index()] -= committed.dur[ti];
            busy[mapping.core_of(t).index()] += task_duration(soa, mapping, freq, scale, t, |_| {});
        }
    }
    for t in affected() {
        touched[t.index()] = false;
    }
    busy.iter().fold(0.0f64, |acc, &b| acc.max(b))
}

/// Applies (or, with `revert`, exactly undoes) the occupancy-count
/// transitions of `mv` against the committed core assignment: each moved
/// task's blocks shift between its committed core and its destination.
fn shift_move(
    registers: &RegisterModel,
    n_blocks: usize,
    counts: &mut [u32],
    r_bits: &mut [Bits],
    committed_core: &[CoreId],
    mv: Move,
    revert: bool,
) {
    let mut shift = |task: TaskId, from: CoreId, to: CoreId| {
        if revert {
            shift_blocks(registers, n_blocks, counts, r_bits, task, to, from);
        } else {
            shift_blocks(registers, n_blocks, counts, r_bits, task, from, to);
        }
    };
    match mv {
        Move::Relocate { task, to } => shift(task, committed_core[task.index()], to),
        Move::Swap { a, b } => {
            let ca = committed_core[a.index()];
            let cb = committed_core[b.index()];
            shift(a, ca, cb);
            shift(b, cb, ca);
        }
    }
}

/// Moves one task's register blocks from core `from` to core `to` in the
/// occupancy-count matrix, adjusting the two cores' unions on `1 → 0` /
/// `0 → 1` transitions. Exact because block bits are integers: the union
/// is the sum of the occupied blocks' bits in any order.
fn shift_blocks(
    registers: &RegisterModel,
    n_blocks: usize,
    counts: &mut [u32],
    r_bits: &mut [Bits],
    task: TaskId,
    from: CoreId,
    to: CoreId,
) {
    for &b in registers.task_blocks(task) {
        let bits = registers.block(b).bits();
        let f = from.index() * n_blocks + b.index();
        counts[f] -= 1;
        if counts[f] == 0 {
            r_bits[from.index()] = r_bits[from.index()] - bits;
        }
        let t = to.index() * n_blocks + b.index();
        counts[t] += 1;
        if counts[t] == 1 {
            r_bits[to.index()] = r_bits[to.index()] + bits;
        }
    }
}

/// Reconstructs core `ci`'s lane and busy time as they stand just before
/// visit step `q`, excluding dirty tasks (they are re-placed, or left the
/// core entirely). The lane is the committed lane filtered to
/// earlier-visited clean tasks — insertion never reorders surviving
/// entries, so the filter preserves start order. `clean_busy` is the
/// caller's visit-order partial sum of the core's clean durations (see
/// [`IncrementalEvaluator::clean_busy`]'s field docs).
#[allow(clippy::too_many_arguments)]
fn materialize_lane(
    soa: &TaskGraphSoa,
    committed: &ScheduleCache,
    dirty_task: &[bool],
    q: usize,
    ci: usize,
    clean_busy: f64,
    lane: &mut Vec<ScheduledTask>,
    busy: &mut f64,
) {
    lane.clear();
    lane.extend(
        committed.lanes[ci]
            .iter()
            .filter(|e| soa.position(e.task) < q && !dirty_task[e.task.index()]),
    );
    *busy = clean_busy;
}

impl ScheduleCache {
    /// Shape sanity for a cache about to become the committed base.
    fn summary_commit_guard(&self) {
        debug_assert_eq!(self.core.len(), self.finish.len());
        debug_assert_eq!(self.busy.len(), self.lanes.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::{Architecture, LevelSet};
    use sea_taskgraph::{fig8, mpeg2, Application};

    fn setup(app: &Application, cores: usize) -> (Architecture, Mapping) {
        let arch = Architecture::homogeneous(cores, LevelSet::arm7_three_level());
        let n = app.graph().len();
        let assign: Vec<CoreId> = (0..n).map(|t| CoreId::new(t % cores)).collect();
        (arch, Mapping::try_new(assign, cores).unwrap())
    }

    /// Rejects every candidate whose makespan reaches the threshold:
    /// exact, because a makespan bound at or past it proves the rejection.
    struct RejectFrom(f64);

    impl RejectionTest for RejectFrom {
        fn checkpoint(&self, _bound: &EvalSummary) -> f64 {
            self.0
        }

        fn proves_rejection(&self, bound: &EvalSummary) -> bool {
            bound.tm_seconds >= self.0
        }

        fn rejects(&self, summary: &EvalSummary) -> bool {
            summary.tm_seconds >= self.0
        }
    }

    fn walk_neighbourhood(app: &Application, cores: usize) {
        let (arch, mut current) = setup(app, cores);
        let ctx = EvalContext::new(app, &arch);
        let mut ev = IncrementalEvaluator::new(ctx.clone());
        for s in [
            ScalingVector::all_nominal(&arch),
            ScalingVector::uniform(2, &arch).unwrap(),
        ] {
            let primed = ev.prime(&current, &s).unwrap();
            assert!(summaries_bitwise_eq(
                &primed,
                &ctx.evaluate(&current, &s).unwrap().summary()
            ));
            let mut committed_tm = primed.tm_seconds;
            // Evaluate every neighbour; accept every third move.
            let moves: Vec<Move> = current.neighbourhood();
            for (i, mv) in moves.into_iter().enumerate() {
                let inverse = current.apply(mv);
                let full = ctx.evaluate(&current, &s).unwrap().summary();
                // Beside the walk: the neighbour first meets a makespan
                // threshold around the committed one, and an early
                // rejection must agree with the full path.
                let test = RejectFrom(committed_tm * [0.9, 1.0, 1.1][(i / 3) % 3]);
                match ev.evaluate_move(&current, &s, mv, Some(&test)).unwrap() {
                    Some(fast) => assert!(
                        summaries_bitwise_eq(&fast, &full),
                        "divergence under a test on {mv}: {fast:?} vs {full:?}"
                    ),
                    None => assert!(test.rejects(&full), "wrong rejection of {mv}"),
                }
                ev.reject();
                let fast = ev.evaluate_move(&current, &s, mv, None).unwrap().unwrap();
                assert!(
                    summaries_bitwise_eq(&fast, &full),
                    "divergence on {mv}: {fast:?} vs {full:?}"
                );
                if i % 3 == 0 {
                    ev.accept();
                    committed_tm = fast.tm_seconds;
                } else {
                    ev.reject();
                    current.apply(inverse);
                }
            }
        }
        let stats = ev.stats();
        assert!(
            stats.incremental > 0,
            "no incremental evaluations: {stats:?}"
        );
        assert!(
            stats.rejected_before_replay > 0 && stats.rejected_during_replay > 0,
            "both early-rejection points must fire: {stats:?}"
        );
    }

    #[test]
    fn matches_full_evaluator_on_mpeg2_neighbourhood() {
        walk_neighbourhood(&mpeg2::application(), 4);
    }

    #[test]
    fn matches_full_evaluator_on_fig8_neighbourhood() {
        walk_neighbourhood(&fig8::application(), 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "accept() after evaluate_move proved the candidate rejected")]
    fn accept_after_a_rejection_panics_in_debug_builds() {
        let app = mpeg2::application();
        let (arch, mut current) = setup(&app, 4);
        let ctx = EvalContext::new(&app, &arch);
        let mut ev = IncrementalEvaluator::new(ctx);
        let s = ScalingVector::all_nominal(&arch);
        ev.prime(&current, &s).unwrap();
        let mv = current.nth_neighbourhood_move(0).unwrap();
        current.apply(mv);
        let outcome = ev
            .evaluate_move(&current, &s, mv, Some(&RejectFrom(0.0)))
            .unwrap();
        assert!(outcome.is_none());
        ev.accept();
    }

    #[test]
    fn unprimed_moves_recover_without_explicit_prime() {
        let app = fig8::application();
        let (arch, mut current) = setup(&app, 3);
        let ctx = EvalContext::new(&app, &arch);
        let mut ev = IncrementalEvaluator::new(ctx.clone());
        let s = ScalingVector::all_nominal(&arch);
        // No prime: the first move computes fully and can be accepted.
        let mv = current.nth_neighbourhood_move(1).unwrap();
        current.apply(mv);
        let fast = ev.evaluate_move(&current, &s, mv, None).unwrap().unwrap();
        assert!(summaries_bitwise_eq(
            &fast,
            &ctx.evaluate(&current, &s).unwrap().summary()
        ));
        ev.accept();
        // Subsequent moves run incrementally off the recovered base.
        let mv = current.nth_neighbourhood_move(4).unwrap();
        current.apply(mv);
        let fast = ev.evaluate_move(&current, &s, mv, None).unwrap().unwrap();
        assert!(summaries_bitwise_eq(
            &fast,
            &ctx.evaluate(&current, &s).unwrap().summary()
        ));
        assert_eq!(ev.stats().fallback, 1);
    }

    #[test]
    fn shape_mismatch_propagates() {
        let app = mpeg2::application();
        let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
        let bad = Mapping::all_on_one_core(app.graph().len(), 3);
        let s = ScalingVector::all_nominal(&arch);
        let mut ev = IncrementalEvaluator::new(EvalContext::new(&app, &arch));
        assert!(matches!(
            ev.prime(&bad, &s).unwrap_err(),
            SchedError::ShapeMismatch { .. }
        ));
        let mv = Move::Relocate {
            task: TaskId::new(0),
            to: CoreId::new(1),
        };
        assert!(matches!(
            ev.evaluate_move(&bad, &s, mv, None).unwrap_err(),
            SchedError::ShapeMismatch { .. }
        ));
    }
}
