//! Simulated-annealing task mapping (the paper's ref. \[13\], used by the
//! soft error-unaware experiments Exp:1–Exp:3).
//!
//! Standard geometric-cooling annealing over the task-movement
//! neighbourhood: start from a topology-aware balanced mapping, propose a
//! random relocation/swap, always accept improvements, accept regressions
//! with probability `exp(−Δ/T)` where `Δ` is the *relative* score increase
//! (scale-free, so one schedule works for register-usage and
//! execution-time objectives alike).
//!
//! The loop is the proposed flow's own, [`sea_opt::optimized::anneal`],
//! with the objective as its score: the same temperature schedule, budget
//! accounting, `O(N)` move draws, hot-path [`IncrementalEvaluator`] and
//! [`Acceptance`] rule. Early rejection therefore applies here too: every
//! objective (`R`, `TM`, `TM·R`) is non-decreasing in `TM`, and a
//! rejection under `R` is proven before any placement (barring a draw
//! within the proof's margin). Budget parity between the flows holds by
//! construction, so comparisons between them measure mapping
//! *objectives*, not search machinery.

use sea_arch::{CoreId, ScalingVector};
use sea_opt::clock::Clock;
use sea_opt::optimized::{anneal, Acceptance};
use sea_opt::{OptError, SearchBudget, SearchOutcome};
use sea_sched::metrics::{EvalContext, EvalSummary};
use sea_sched::{IncrementalEvaluator, Mapping};

use crate::objectives::Objective;

/// Maps `ctx.app()` onto the architecture minimizing the *pure*
/// `objective` under `scaling`, ignoring the deadline — the paper's soft
/// error-unaware mapping stage, where a separate voltage scaling pass deals
/// with the real-time constraint afterwards. The returned design is the
/// lowest-scoring one seen, except that a feasible design always replaces
/// an infeasible best.
///
/// The run gets `budget`'s evaluation count (at least 100) and time limit,
/// read from `clock`: one annealing run costs what one of the proposed
/// flow's per-scaling searches costs — the paper grants both mapping
/// stages the same per-problem wall-clock (40 minutes per scaling), so
/// matched-scaling comparisons like Figs. 9/10 measure mapping quality,
/// not budget asymmetry. The stale-sweep stop does not apply: the annealer
/// spends its whole budget.
///
/// # Errors
///
/// Propagates evaluation errors ([`OptError::Sched`]).
pub fn map_unconstrained(
    ctx: &EvalContext<'_>,
    scaling: &ScalingVector,
    objective: Objective,
    budget: SearchBudget,
    seed: u64,
    clock: &dyn Clock,
) -> Result<SearchOutcome, OptError> {
    let budget = SearchBudget {
        max_evaluations: budget.max_evaluations.max(100),
        max_stale_sweeps: usize::MAX,
        time_limit: budget.time_limit,
    };
    let score = move |eval: &EvalSummary| objective.score_summary(eval);
    let better = |candidate: &EvalSummary, best: &EvalSummary| {
        score(candidate) < score(best) || (candidate.meets_deadline && !best.meets_deadline)
    };
    let mut ev = IncrementalEvaluator::new(ctx.clone());
    let initial = balanced_seed(ctx, ctx.arch().n_cores());
    let rule = Acceptance::new(score);
    anneal(&mut ev, scaling, initial, rule, better, budget, seed, clock)
}

/// Topology-aware starting point: tasks in topological order are dealt onto
/// cores in contiguous runs of roughly `N/C`, which keeps chains together
/// and every core occupied.
fn balanced_seed(ctx: &EvalContext<'_>, n_cores: usize) -> Mapping {
    let g = ctx.app().graph();
    let n = g.len();
    let mut assign = vec![CoreId::new(0); n];
    let chunk = n.div_ceil(n_cores);
    for (pos, &t) in g.topological_order().iter().enumerate() {
        assign[t.index()] = CoreId::new((pos / chunk).min(n_cores - 1));
    }
    Mapping::try_new(assign, n_cores).expect("balanced seed is complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::{Architecture, LevelSet};
    use sea_opt::clock::WallClock;
    use sea_taskgraph::mpeg2;

    fn setup() -> (sea_taskgraph::Application, Architecture) {
        (
            mpeg2::application(),
            Architecture::homogeneous(4, LevelSet::arm7_three_level()),
        )
    }

    fn budget(max_evaluations: usize) -> SearchBudget {
        SearchBudget {
            max_evaluations,
            max_stale_sweeps: 0,
            time_limit: None,
        }
    }

    fn map(
        ctx: &EvalContext<'_>,
        s: &ScalingVector,
        objective: Objective,
        budget: SearchBudget,
        seed: u64,
    ) -> SearchOutcome {
        map_unconstrained(ctx, s, objective, budget, seed, &WallClock::start()).unwrap()
    }

    fn fast() -> SearchBudget {
        budget(1_500)
    }

    #[test]
    fn minimizing_r_beats_minimizing_tm_on_r() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let r_run = map(&ctx, &s, Objective::RegisterUsage, fast(), 1);
        let tm_run = map(&ctx, &s, Objective::Parallelism, fast(), 1);
        assert!(
            r_run.evaluation.r_total <= tm_run.evaluation.r_total,
            "R-objective should find lower R: {} vs {}",
            r_run.evaluation.r_total_kbits(),
            tm_run.evaluation.r_total_kbits()
        );
        assert!(
            tm_run.evaluation.tm_seconds <= r_run.evaluation.tm_seconds,
            "TM-objective should find lower TM"
        );
    }

    #[test]
    fn balanced_seed_uses_all_cores() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let m = balanced_seed(&ctx, 4);
        assert!(m.uses_all_cores());
        assert_eq!(m.n_tasks(), 11);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let a = map(&ctx, &s, Objective::RegTimeProduct, fast(), 7);
        let b = map(&ctx, &s, Objective::RegTimeProduct, fast(), 7);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn annealing_improves_on_the_seed() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let seed_eval = ctx.evaluate(&balanced_seed(&ctx, 4), &s).unwrap();
        let out = map(&ctx, &s, Objective::RegisterUsage, fast(), 3);
        assert!(out.evaluation.r_total <= seed_eval.r_total);
    }

    #[test]
    fn step_clock_time_limit_is_deterministic() {
        use sea_opt::StepClock;
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let step = std::time::Duration::from_millis(1);
        let budget = budget(usize::MAX).with_time_limit(step * 30);
        let run = || {
            let clock = StepClock::new(step);
            map_unconstrained(&ctx, &s, Objective::RegisterUsage, budget, 4, &clock).unwrap()
        };
        let a = run();
        let b = run();
        // The clock expires after exactly 30 queries on any machine.
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.evaluations <= 31);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn respects_the_evaluation_budget_and_its_floor() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        // Budgets under 100 evaluations are raised to 100.
        for (max_evaluations, spent) in [(64, 100), (250, 250)] {
            let out = map(&ctx, &s, Objective::Parallelism, budget(max_evaluations), 0);
            assert_eq!(out.evaluations, spent);
        }
    }
}
