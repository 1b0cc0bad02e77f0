//! Engine benchmarks for the allocation-free DSE pipeline:
//!
//! * evaluations/second of the reference path as the seed used it
//!   (`Mapping::with_move` + `EvalContext::evaluate` per candidate) vs. the
//!   hot-path [`IncrementalEvaluator`] with the in-place apply/undo move
//!   protocol, replaying only the affected schedule suffix;
//! * full-optimizer wall-clock on `OptimizerConfig::paper(4)` / MPEG-2 as
//!   a function of `--jobs` (the outcome is bitwise identical for every
//!   job count, so the ratio is pure speedup).
//!
//! The binary also *asserts* the engine's no-alloc contract before timing
//! anything: a counting global allocator checks that the incremental
//! evaluator, pre-sized at construction, never touches the allocator —
//! from the very first call, not merely at steady state — and neither do
//! the annealing loop's per-step mapping operations
//! (`nth_neighbourhood_move`, `apply` and the new-best `clone_from`) on a
//! 100-task × 6-core mapping, nor `evaluate_move` when it proves a
//! candidate rejected before or during the replay on that mapping.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, Criterion};
use sea_arch::{Architecture, CoreId, LevelSet, ScalingVector};
use sea_opt::{DesignOptimizer, OptimizerConfig, SearchBudget};
use sea_sched::metrics::{EvalContext, EvalSummary};
use sea_sched::{IncrementalEvaluator, Mapping, Move, RejectionTest};
use sea_taskgraph::generator::RandomGraphConfig;
use sea_taskgraph::mpeg2;

/// Counts allocator entries (alloc/realloc); frees are uncounted — the
/// contract under test is "no new memory", not "no churn".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Rejects every candidate whose makespan reaches the threshold — exact,
/// because a makespan bound at or past it proves the rejection.
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

fn main() {
    let app = mpeg2::application();
    let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
    let ctx = EvalContext::new(&app, &arch);
    let scaling = ScalingVector::try_new(vec![2, 2, 3, 2], &arch).unwrap();
    let mapping = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4).unwrap();
    // One full neighbourhood sweep per sample (the annealer's unit of work).
    let moves = mapping.neighbourhood();

    // No-alloc contract, from call one: construction pre-sizes every
    // buffer from the (app, arch) shapes, so not even the first
    // evaluation may allocate.
    {
        let mut ev = IncrementalEvaluator::new(ctx.clone());
        let mut m = mapping.clone();
        let before = allocations();
        ev.prime(&m, &scaling).unwrap();
        for (i, &mv) in moves.iter().enumerate() {
            let inverse = m.apply(mv);
            black_box(
                ev.evaluate_move(&m, &scaling, mv, None)
                    .unwrap()
                    .unwrap()
                    .gamma,
            );
            if i % 3 == 0 {
                ev.accept();
            } else {
                ev.reject();
                m.apply(inverse);
            }
        }
        assert_eq!(
            allocations(),
            before,
            "IncrementalEvaluator allocated during prime or its first sweep"
        );
    }
    let app100 = RandomGraphConfig::paper(100)
        .generate(7)
        .expect("paper(100) generates");
    let assign100x6 = (0..100).map(|t| CoreId::new((t * 7 + t / 9) % 6)).collect();
    let mapping100x6 = Mapping::try_new(assign100x6, 6).unwrap();
    // Early rejection: one candidate proven rejected before any placement
    // (a zero makespan threshold) and one part-way through the replay (a
    // threshold at its own makespan, which only the replay reaches).
    {
        let arch6 = Architecture::homogeneous(6, LevelSet::arm7_three_level());
        let ctx6 = EvalContext::new(&app100, &arch6);
        let scaling6 = ScalingVector::uniform(2, &arch6).unwrap();
        let mut ev = IncrementalEvaluator::new(ctx6.clone());
        let mut m = mapping100x6.clone();
        ev.prime(&m, &scaling6).unwrap();
        let task = ev.soa().schedule_order()[20];
        let mv = Move::Relocate {
            task,
            to: CoreId::new((m.core_of(task).index() + 1) % 6),
        };
        m.apply(mv);
        let tm = ctx6.evaluate(&m, &scaling6).unwrap().tm_seconds;
        let (before_replay, during_replay) = (RejectFrom(0.0), RejectFrom(tm));
        let before = allocations();
        for test in [&before_replay, &during_replay] {
            let outcome = ev.evaluate_move(&m, &scaling6, mv, Some(test)).unwrap();
            assert!(outcome.is_none(), "the rejection was not proven");
            ev.reject();
        }
        assert_eq!(
            allocations(),
            before,
            "evaluate_move allocated while proving a rejection"
        );
        let stats = ev.stats();
        assert_eq!(
            (stats.rejected_before_replay, stats.rejected_during_replay),
            (1, 1),
            "the rejections were not proven where expected: {stats:?}"
        );
    }
    // The annealing loop's per-step mapping operations: index draws across the
    // whole neighbourhood, in-place moves and undos, and the new-best copy.
    {
        let mut current = mapping100x6.clone();
        let mut best = current.clone();
        let len = current.neighbourhood_len();
        let before = allocations();
        for i in (0..len).step_by(7) {
            let mv = current.nth_neighbourhood_move(i).unwrap();
            let inverse = current.apply(mv);
            if i % 2 == 0 {
                best.clone_from(&current);
            } else {
                current.apply(inverse);
            }
        }
        black_box(&best);
        assert_eq!(
            allocations(),
            before,
            "nth_neighbourhood_move, apply or clone_from allocated"
        );
    }

    let mut c = Criterion::default().sample_size(20);
    c.bench_function("engine/evaluate seed clone-per-candidate", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &mv in &moves {
                let candidate = mapping.with_move(mv);
                acc += ctx.evaluate(&candidate, &scaling).unwrap().gamma;
            }
            black_box(acc)
        })
    });
    c.bench_function("engine/evaluate incremental neighbourhood sweep", |b| {
        let mut ev = IncrementalEvaluator::new(ctx.clone());
        let mut m = mapping.clone();
        ev.prime(&m, &scaling).unwrap();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &mv in &moves {
                let inverse = m.apply(mv);
                acc += ev
                    .evaluate_move(&m, &scaling, mv, None)
                    .unwrap()
                    .unwrap()
                    .gamma;
                ev.reject();
                m.apply(inverse);
            }
            black_box(acc)
        })
    });

    // The delta path on a paper §V random workload (100 tasks, 8 cores):
    // the regime larger design spaces live in. It replays only the move's
    // cone of influence and shifts occupancy counts instead of rescanning
    // register unions. Dense random graphs cascade (the cone covers ~70 %
    // of the replay window here); late-order relocations, whose cones
    // stay narrow, are the fast outliers. A deterministic stride keeps the
    // sweep to ~1/16 of the ~5k neighbourhood moves so one sample stays in
    // the tens of milliseconds.
    let arch8 = Architecture::homogeneous(8, LevelSet::arm7_three_level());
    let ctx100 = EvalContext::new(&app100, &arch8);
    let scaling8 = ScalingVector::uniform(2, &arch8).unwrap();
    let mapping100 = Mapping::try_new((0..100).map(|t| CoreId::new(t % 8)).collect(), 8).unwrap();
    let moves100: Vec<_> = mapping100.neighbourhood().into_iter().step_by(16).collect();
    let mut c = Criterion::default().sample_size(10);
    c.bench_function("engine/evaluate random100x8 incremental sweep", |b| {
        let mut ev = IncrementalEvaluator::new(ctx100.clone());
        let mut m = mapping100.clone();
        ev.prime(&m, &scaling8).unwrap();
        b.iter(|| {
            let mut acc = 0.0f64;
            for &mv in &moves100 {
                let inverse = m.apply(mv);
                acc += ev
                    .evaluate_move(&m, &scaling8, mv, None)
                    .unwrap()
                    .unwrap()
                    .gamma;
                ev.reject();
                m.apply(inverse);
            }
            black_box(acc)
        })
    });

    // Full-flow scaling: 15 scalings × 60k evaluations (paper budget).
    let mut c = Criterion::default().sample_size(3);
    for jobs in [1, 2, 4, 8] {
        c.bench_function(
            &format!("engine/optimize paper(4) mpeg2 jobs={jobs}"),
            |b| {
                b.iter(|| {
                    let out = DesignOptimizer::new(OptimizerConfig::paper(4).with_jobs(jobs))
                        .optimize(&app)
                        .unwrap();
                    black_box(out.total_evaluations)
                })
            },
        );
    }

    // Bound-and-prune on a deadline-tight mpeg2 (38% of the nominal
    // deadline): 12 of 15 scalings carry a TM lower bound past the
    // deadline, so the pruned run searches only 3.
    let tight = app
        .with_deadline(app.deadline_s() * 0.38)
        .expect("positive deadline");
    let mut c = Criterion::default().sample_size(10);
    c.bench_function("engine/optimize fast(4) mpeg2@d0.38 pruned", |b| {
        b.iter(|| {
            // The campaign configuration: calibrated platform overhead
            // (the bound only bites there) at fast budget.
            let mut config = OptimizerConfig::paper(4).with_jobs(1);
            config.budget = SearchBudget::fast();
            let out = DesignOptimizer::new(config).optimize(&tight).unwrap();
            black_box(out.total_evaluations)
        })
    });

    criterion::write_summary(env!("CARGO_CRATE_NAME"));
}
