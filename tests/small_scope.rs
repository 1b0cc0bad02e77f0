//! Exhaustive small-scope check of the exact engine: the delta evaluator,
//! its early rejection and the pruning bound, against the reference
//! evaluation (`EvalContext::evaluate`) on every small instance.
//!
//! The scope is every 4-task graph over the fixed topological order
//! `0, 1, 2, 3` — each subset of the six forward edges, with all-zero or
//! all-nonzero edge weights, equal or distinct task costs, shared or
//! private register blocks, in batch mode or pipelined over three
//! iterations — crossed with 2 and 3 calibrated ARM7 cores, each with the
//! 2- and the 3-level set, every scaling vector of that set and every
//! mapping. From every mapping that occupies all cores, every relocation
//! and swap is evaluated. The checks:
//!
//! * every summary `evaluate_move` returns is bitwise the reference's;
//! * every bound summary the evaluator hands a [`RejectionTest`] (at the
//!   checkpoint and at every proof) stays at or below the reference: `TM`,
//!   nominal cycles and `Γ` no larger, the same register usage, and
//!   `meets_deadline` whenever the reference meets it;
//! * every early rejection under `Acceptance::at(current, T, u)`, for each
//!   of the annealers' four score shapes, agrees with the rule on the
//!   reference summary. `(current, T, u)` runs through a grid of current
//!   score (below, at and above the committed one), temperature (down to
//!   the 1e-12 clamp) and draw (0, a middle value, just below 1): each
//!   move takes the next of its 27 points, so every point decides about
//!   every 27th move;
//! * `tm_lower_bound` of a scaling never exceeds the smallest `TM` over
//!   all mappings at that scaling, so at any deadline a pruned scaling has
//!   no feasible mapping.
//!
//! One evaluator walks all mappings of a scaling in reflected Gray-code
//! order: each step is a relocation it evaluates and accepts, and at each
//! all-cores mapping it evaluates and rejects the whole neighbourhood. So
//! every move is checked after a history of accepts and rejects, against
//! a committed base reached through both.
//!
//! Release builds compile out the evaluator's per-move debug
//! cross-check, so this suite is what checks the delta path there; it
//! prints the number of move evaluations and its run time (run it with
//! `cargo test --release --test small_scope -- --nocapture`). Debug
//! builds, where every move is cross-checked again, run every 203rd graph.

use std::cell::Cell;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use sea_dse::arch::{Architecture, CoreId, LevelSet, ScalingVector};
use sea_dse::baselines::Objective;
use sea_dse::opt::default_jobs;
use sea_dse::opt::optimized::{deadline_penalty_factor, Acceptance};
use sea_dse::sched::metrics::{EvalContext, EvalSummary};
use sea_dse::sched::{
    summaries_bitwise_eq, tm_lower_bound, IncrementalEvaluator, Mapping, Move, RejectionTest,
};
use sea_dse::taskgraph::graph::TaskGraphBuilder;
use sea_dse::taskgraph::par::par;
use sea_dse::taskgraph::registers::RegisterModelBuilder;
use sea_dse::taskgraph::units::{Bits, Cycles};
use sea_dse::taskgraph::{Application, ExecutionMode, TaskGraphSoa, TaskId};

/// Tasks per graph.
const TASKS: usize = 4;
/// The forward edges over the fixed order; a graph is a subset of them.
const EDGES: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
/// Iterations of the pipelined variant.
const ITERATIONS: u32 = 3;
/// Current annealing scores, relative to the committed one.
const CURRENT: [f64; 3] = [0.9, 1.0, 1.1];
/// Temperatures, down to the acceptance rule's clamp.
const TEMPERATURES: [f64; 3] = [0.1, 1e-3, 1e-12];
/// Uniform draws: zero, a middle value and the largest below 1.
const DRAWS: [f64; 3] = [0.0, 0.5, 1.0 - f64::EPSILON / 2.0];

/// One point of the graph space.
#[derive(Debug, Clone, Copy)]
struct Variant {
    /// Bit `i` set: `EDGES[i]` is present.
    edges: u8,
    weighted: bool,
    distinct_costs: bool,
    shared_blocks: bool,
    pipelined: bool,
}

/// Every graph of the scope. Without edges the weights cannot matter,
/// so the empty graph appears once per other combination.
fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    for edges in 0..1u8 << EDGES.len() {
        for bits in 0..16u8 {
            let weighted = bits & 1 != 0;
            if edges == 0 && weighted {
                continue;
            }
            out.push(Variant {
                edges,
                weighted,
                distinct_costs: bits & 2 != 0,
                shared_blocks: bits & 4 != 0,
                pipelined: bits & 8 != 0,
            });
        }
    }
    out
}

/// The application of `v`, with a deadline a quarter above the makespan of
/// the alternating 2-core mapping at nominal speed, so the scope's
/// designs fall on both sides of it.
fn application(v: Variant) -> Application {
    const DISTINCT: [u64; TASKS] = [3, 1, 4, 2];
    let mut graph = TaskGraphBuilder::new("small");
    let ids: Vec<TaskId> = (0..TASKS)
        .map(|t| {
            let cost = if v.distinct_costs { DISTINCT[t] } else { 2 };
            graph.add_task(format!("t{t}"), Cycles::new(cost * 1_000_000))
        })
        .collect();
    for (i, &(a, b)) in EDGES.iter().enumerate() {
        if v.edges & (1 << i) != 0 {
            let comm = if v.weighted {
                (1 + a + 2 * b) as u64 * 250_000
            } else {
                0
            };
            graph.add_edge(ids[a], ids[b], Cycles::new(comm)).unwrap();
        }
    }
    let mut registers = RegisterModelBuilder::new(TASKS);
    if v.shared_blocks {
        // Every task shares a block with another, and two hold two.
        for (name, bits, users) in [
            ("a", 128, &[0, 1, 3][..]),
            ("b", 64, &[1, 2][..]),
            ("c", 32, &[2, 3][..]),
        ] {
            let users: Vec<TaskId> = users.iter().map(|&t| ids[t]).collect();
            registers
                .add_shared_block(name, Bits::new(bits), &users)
                .unwrap();
        }
    } else {
        for (t, &id) in ids.iter().enumerate() {
            let block = registers.add_block(format!("p{t}"), Bits::new(100 + 10 * t as u64));
            registers.assign(id, block).unwrap();
        }
    }
    let mode = if v.pipelined {
        ExecutionMode::Pipelined {
            iterations: ITERATIONS,
        }
    } else {
        ExecutionMode::Batch
    };
    let app = Application::new(
        "small",
        graph.build().unwrap(),
        registers.build(),
        mode,
        1.0,
    )
    .unwrap();
    let arch = Architecture::arm7_calibrated(2, LevelSet::arm7_three_level());
    let alternating = mapping(&[0, 1, 0, 1], 2);
    let tm = EvalContext::new(&app, &arch)
        .evaluate(&alternating, &ScalingVector::all_nominal(&arch))
        .unwrap()
        .tm_seconds;
    app.with_deadline(tm * 1.25).unwrap()
}

fn mapping(cores: &[usize], n_cores: usize) -> Mapping {
    Mapping::try_new(cores.iter().map(|&c| CoreId::new(c)).collect(), n_cores).unwrap()
}

/// The `k`-th word of the reflected `base`-ary Gray code over `TASKS`
/// digits: consecutive words differ in one digit, by one.
fn gray(k: usize, base: usize) -> [usize; TASKS] {
    let mut digits = [0; TASKS];
    let mut rest = k;
    for d in &mut digits {
        *d = rest % base;
        rest /= base;
    }
    let mut word = [0; TASKS];
    let mut higher = 0;
    for t in (0..TASKS).rev() {
        word[t] = if higher % 2 == 0 {
            digits[t]
        } else {
            base - 1 - digits[t]
        };
        higher += digits[t];
    }
    word
}

/// The index of `m` in the reference table: its cores as a base-`C`
/// number.
fn code(m: &Mapping) -> usize {
    (0..TASKS).rev().fold(0, |acc, t| {
        acc * m.n_cores() + m.core_of(TaskId::new(t)).index()
    })
}

/// Every scaling vector of `arch`: each core at each level of its set.
fn scalings(arch: &Architecture) -> Vec<ScalingVector> {
    let (cores, levels) = (arch.n_cores(), arch.levels().len());
    (0..levels.pow(cores as u32))
        .map(|k| {
            let coefficients = (0..cores)
                .map(|i| 1 + (k / levels.pow(i as u32) % levels) as u8)
                .collect();
            ScalingVector::try_new(coefficients, arch).unwrap()
        })
        .collect()
}

/// An annealer's score: the proposed flow's penalized `Γ` (shape 0) or
/// a soft error-unaware baseline's objective (shapes 1–3).
fn score(shape: usize, deadline: f64, e: &EvalSummary) -> f64 {
    match shape {
        0 => e.gamma * deadline_penalty_factor(e, deadline),
        1 => Objective::RegisterUsage.score_summary(e),
        2 => Objective::Parallelism.score_summary(e),
        _ => Objective::RegTimeProduct.score_summary(e),
    }
}

/// Wraps a rule, recording the first bound summary that exceeds the
/// reference and whether any bound was seen at all.
struct Probe<'a, T> {
    rule: &'a T,
    reference: &'a EvalSummary,
    seen: Cell<bool>,
    violation: Cell<Option<EvalSummary>>,
}

impl<'a, T: RejectionTest> Probe<'a, T> {
    fn new(rule: &'a T, reference: &'a EvalSummary) -> Self {
        Probe {
            rule,
            reference,
            seen: Cell::new(false),
            violation: Cell::new(None),
        }
    }

    fn see(&self, bound: &EvalSummary) {
        let r = self.reference;
        let below = bound.tm_seconds <= r.tm_seconds
            && bound.tm_nominal_cycles <= r.tm_nominal_cycles
            && bound.gamma <= r.gamma
            && bound.r_total == r.r_total
            && (bound.meets_deadline || !r.meets_deadline);
        self.seen.set(true);
        if !below && self.violation.get().is_none() {
            self.violation.set(Some(*bound));
        }
    }
}

impl<T: RejectionTest> RejectionTest for Probe<'_, T> {
    fn checkpoint(&self, bound: &EvalSummary) -> f64 {
        self.see(bound);
        self.rule.checkpoint(bound)
    }

    fn proves_rejection(&self, bound: &EvalSummary) -> bool {
        self.see(bound);
        self.rule.proves_rejection(bound)
    }

    fn rejects(&self, summary: &EvalSummary) -> bool {
        self.rule.rejects(summary)
    }
}

/// What one graph contributed.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    moves: u64,
    evaluations: u64,
    rejected_before_replay: u64,
    rejected_during_replay: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.moves += other.moves;
        self.evaluations += other.evaluations;
        self.rejected_before_replay += other.rejected_before_replay;
        self.rejected_during_replay += other.rejected_during_replay;
    }
}

/// Checks one graph across every architecture, scaling, mapping and move
/// of the scope, panicking with the failing case.
fn check_graph(v: Variant) -> Tally {
    let app = application(v);
    let soa = Arc::new(TaskGraphSoa::new(&app));
    let mut tally = Tally::default();
    for cores in [2, 3] {
        for levels in [LevelSet::arm7_two_level(), LevelSet::arm7_three_level()] {
            let arch = Architecture::arm7_calibrated(cores, levels);
            let ctx = EvalContext::new(&app, &arch);
            let mut ev = IncrementalEvaluator::with_soa(ctx.clone(), Arc::clone(&soa));
            let n_mappings = cores.pow(TASKS as u32);
            for scaling in scalings(&arch) {
                let case = format!("{v:?} on {cores} cores at {scaling}");
                let reference: Vec<EvalSummary> = (0..n_mappings)
                    .map(|k| {
                        let cores_of: Vec<usize> = (0..TASKS)
                            .map(|t| k / cores.pow(t as u32) % cores)
                            .collect();
                        let m = mapping(&cores_of, cores);
                        debug_assert_eq!(code(&m), k);
                        ctx.evaluate(&m, &scaling).unwrap().summary()
                    })
                    .collect();

                let min_tm = reference
                    .iter()
                    .map(|s| s.tm_seconds)
                    .fold(f64::INFINITY, f64::min);
                let bound = tm_lower_bound(&soa, app.mode(), &arch, &scaling);
                assert!(
                    bound <= min_tm,
                    "{case}: tm_lower_bound {bound} exceeds the smallest TM {min_tm}"
                );

                let mut current = mapping(&gray(0, cores), cores);
                let primed = ev.prime(&current, &scaling).unwrap();
                assert!(
                    summaries_bitwise_eq(&primed, &reference[code(&current)]),
                    "{case}: prime diverged on {current:?}"
                );
                for k in 0..n_mappings {
                    if k > 0 {
                        let next = gray(k, cores);
                        let task = (0..TASKS)
                            .find(|&t| current.core_of(TaskId::new(t)).index() != next[t])
                            .expect("Gray steps change one task");
                        let mv = Move::Relocate {
                            task: TaskId::new(task),
                            to: CoreId::new(next[task]),
                        };
                        current.apply(mv);
                        let got = ev.evaluate_move(&current, &scaling, mv, None).unwrap();
                        tally.evaluations += 1;
                        let want = &reference[code(&current)];
                        assert!(
                            got.is_some_and(|got| summaries_bitwise_eq(&got, want)),
                            "{case}: walk step {mv} to {current:?} gave {got:?}, want {want:?}"
                        );
                        ev.accept();
                    }
                    if current.uses_all_cores() {
                        let committed = reference[code(&current)];
                        for i in 0..current.neighbourhood_len() {
                            let mv = current.nth_neighbourhood_move(i).unwrap();
                            let inverse = current.apply(mv);
                            let want = reference[code(&current)];
                            check_move(
                                &mut ev, &current, &scaling, mv, &committed, &want, &case,
                                &mut tally,
                            );
                            current.apply(inverse);
                        }
                    }
                }
            }
            let stats = ev.stats();
            tally.rejected_before_replay += stats.rejected_before_replay;
            tally.rejected_during_replay += stats.rejected_during_replay;
        }
    }
    tally
}

/// Evaluates `mv` (already applied to `current`) without a rule and under
/// every score shape at one point of the grid, rejecting after each. The
/// point rotates from move to move.
#[allow(clippy::too_many_arguments)]
fn check_move(
    ev: &mut IncrementalEvaluator<'_>,
    current: &Mapping,
    scaling: &ScalingVector,
    mv: Move,
    committed: &EvalSummary,
    want: &EvalSummary,
    case: &str,
    tally: &mut Tally,
) {
    let point = (tally.moves % 27) as usize;
    let (factor, temperature, draw) = (
        CURRENT[point / 9],
        TEMPERATURES[point / 3 % 3],
        DRAWS[point % 3],
    );
    tally.moves += 1;
    let deadline = ev.ctx().app().deadline_s();
    let mut evaluate = |test: Option<&dyn RejectionTest>| {
        tally.evaluations += 1;
        let got = ev.evaluate_move(current, scaling, mv, test).unwrap();
        ev.reject();
        got
    };

    let got = evaluate(None);
    assert!(
        got.is_some_and(|got| summaries_bitwise_eq(&got, want)),
        "{case}: {mv} to {current:?} gave {got:?}, want {want:?}"
    );
    for shape in 0..4 {
        let rule = Acceptance::new(move |e: &EvalSummary| score(shape, deadline, e));
        let committed_score = rule.score(committed);
        let step = rule.at(committed_score * factor, temperature, draw);
        let probe = Probe::new(&step, want);
        let got = evaluate(Some(&probe));
        let exact = match got {
            None => step.rejects(want),
            Some(got) => summaries_bitwise_eq(&got, want),
        };
        let violation = probe.violation.get();
        assert!(
            exact && probe.seen.get() && violation.is_none(),
            "{case}: {mv} to {current:?}, shape {shape}, current {factor} x {committed_score}, \
             T {temperature}, u {draw}: got {got:?} (None: rejected early), want {want:?}; \
             bound seen: {}, first bound above it: {violation:?}",
            probe.seen.get()
        );
    }
}

#[test]
fn the_engine_is_exact_on_every_small_instance() {
    let started = Instant::now();
    let all = variants();
    // Debug builds cross-check every move inside the evaluator as well,
    // which makes each one many times slower: a slice keeps them quick.
    let stride = if cfg!(debug_assertions) { 203 } else { 1 };
    let chosen: Vec<Variant> = all.iter().copied().step_by(stride).collect();
    let order: Vec<usize> = (0..chosen.len()).collect();
    let mut total = Tally::default();
    par(
        default_jobs(),
        &order,
        |i| check_graph(chosen[i]),
        |_, tally| {
            total.add(tally);
            ControlFlow::Continue(())
        },
    );
    assert!(
        total.rejected_before_replay > 0 && total.rejected_during_replay > 0,
        "both early-rejection points must fire: {total:?}"
    );
    println!(
        "small scope: {} of {} graphs, {} moves, {} move evaluations \
         ({} rejected before the replay, {} during it) in {:.1} s",
        chosen.len(),
        all.len(),
        total.moves,
        total.evaluations,
        total.rejected_before_replay,
        total.rejected_during_replay,
        started.elapsed().as_secs_f64()
    );
}
