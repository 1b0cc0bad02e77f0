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
//! The proposal loop runs on the same allocation-free machinery as the
//! proposed flow's search ([`sea_opt::optimized`]): moves are drawn by
//! index from the lazy neighbourhood in `O(N)`, applied in place and
//! undone via the inverse move on rejection, with the mapping's own
//! per-core counts answering the size and validity queries in `O(C)`,
//! and candidates are evaluated through the
//! delta-based [`IncrementalEvaluator`] into `Copy` summaries (bitwise
//! identical to the full path — see the README's "Engine internals"). The
//! acceptance rule is the proposed flow's own [`Acceptance`], so the
//! evaluator stops scheduling a candidate once its rejection is proven
//! here too: every objective (`R`, `TM`, `TM·R`, penalized or not) is
//! non-decreasing in `TM`, and a rejection under the unpenalized `R`
//! score is proven before any placement (barring a draw within the
//! proof's margin). The budget-parity contract therefore keeps comparing
//! mapping *objectives*, not allocator pressure: both flows pay the same
//! per-candidate cost.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use sea_arch::{CoreId, ScalingVector};
use sea_opt::clock::{Clock, WallClock};
use sea_opt::optimized::{move_keeps_all_cores, Acceptance};
use sea_opt::{OptError, SearchBudget};
use sea_sched::metrics::{EvalContext, EvalSummary, MappingEvaluation};
use sea_sched::{IncrementalEvaluator, Mapping};

use crate::objectives::Objective;

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SaConfig {
    /// Number of proposals (evaluations).
    pub iterations: usize,
    /// Initial temperature on the relative-delta scale.
    pub initial_temperature: f64,
    /// Geometric cooling factor per proposal.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
    /// Optional wall-clock cap, carried over from the search budget so a
    /// time-limited budget bounds the annealer too (its `iterations` are
    /// effectively unbounded in that mode).
    pub time_limit: Option<std::time::Duration>,
}

impl SaConfig {
    /// Derives an annealing schedule comparable to a local-search budget,
    /// with a cooling rate that reaches ~1 % of the initial temperature at
    /// the end. One annealing run gets the same evaluation count as one of
    /// the proposed flow's per-scaling searches — the paper grants both
    /// mapping stages the same per-problem wall-clock (40 minutes per
    /// scaling), so matched-scaling comparisons like Figs. 9/10 measure
    /// mapping quality, not budget asymmetry.
    #[must_use]
    pub fn from_budget(budget: SearchBudget, seed: u64) -> Self {
        let iterations = budget.max_evaluations.max(100);
        // T_end / T_0 = 0.01 over the schedule — the same derivation the
        // proposed flow's annealer uses, so the flows stay budget-matched.
        let cooling = sea_opt::optimized::geometric_cooling(iterations);
        SaConfig {
            iterations,
            initial_temperature: 0.1,
            cooling,
            seed,
            time_limit: budget.time_limit,
        }
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig::from_budget(SearchBudget::default(), 0x5A)
    }
}

/// Outcome of one annealing run.
#[derive(Debug, Clone)]
pub struct SaOutcome {
    /// Best mapping found (by penalized objective).
    pub mapping: Mapping,
    /// Evaluation of the best mapping.
    pub evaluation: MappingEvaluation,
    /// Evaluations spent.
    pub evaluations: usize,
}

/// Simulated-annealing mapper.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    config: SaConfig,
}

impl SimulatedAnnealing {
    /// Creates an annealer with the given schedule.
    #[must_use]
    pub fn new(config: SaConfig) -> Self {
        SimulatedAnnealing { config }
    }

    /// Maps `ctx.app()` onto the architecture minimizing `objective` under
    /// `scaling`, with infeasible (deadline-violating) designs penalized.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`OptError::Sched`]).
    pub fn map(
        &self,
        ctx: &EvalContext<'_>,
        scaling: &ScalingVector,
        objective: Objective,
    ) -> Result<SaOutcome, OptError> {
        self.map_inner(ctx, scaling, objective, true, &WallClock::start())
    }

    /// [`SimulatedAnnealing::map`] with an injectable [`Clock`], so
    /// time-limited annealing runs are testable without real sleeps (the
    /// same contract [`sea_opt::optimized::optimized_mapping_scratch`]
    /// gives the proposed flow).
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`OptError::Sched`]).
    pub fn map_with_clock(
        &self,
        ctx: &EvalContext<'_>,
        scaling: &ScalingVector,
        objective: Objective,
        clock: &dyn Clock,
    ) -> Result<SaOutcome, OptError> {
        self.map_inner(ctx, scaling, objective, true, clock)
    }

    /// Maps minimizing the *pure* objective, ignoring the deadline — the
    /// paper's soft error-unaware mapping stage, where a separate voltage
    /// scaling pass deals with the real-time constraint afterwards.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors ([`OptError::Sched`]).
    pub fn map_unconstrained(
        &self,
        ctx: &EvalContext<'_>,
        scaling: &ScalingVector,
        objective: Objective,
    ) -> Result<SaOutcome, OptError> {
        self.map_inner(ctx, scaling, objective, false, &WallClock::start())
    }

    fn map_inner(
        &self,
        ctx: &EvalContext<'_>,
        scaling: &ScalingVector,
        objective: Objective,
        penalize_deadline: bool,
        clock: &dyn Clock,
    ) -> Result<SaOutcome, OptError> {
        let deadline = ctx.app().deadline_s();
        let rule = Acceptance::new(|eval: &EvalSummary| {
            if penalize_deadline {
                objective.penalized_summary(eval, deadline)
            } else {
                objective.score_summary(eval)
            }
        });
        let n_cores = ctx.arch().n_cores();
        let require_all_cores = ctx.app().graph().len() >= n_cores;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut ev = IncrementalEvaluator::new(ctx.clone());

        let mut current = balanced_seed(ctx, n_cores);
        let mut current_summary = ev.prime(&current, scaling)?;
        let mut current_score = rule.score(&current_summary);
        let mut evaluations = 1usize;

        let mut best = current.clone();
        let mut best_summary = current_summary;
        let mut best_score = current_score;

        // The mapping keeps its per-core counts in step with `apply`, so
        // the neighbourhood size and the validity check are O(C).
        let mut n_moves = current.neighbourhood_len();

        let mut temperature = self.config.initial_temperature;
        let mut consecutive_skips = 0usize;
        while evaluations < self.config.iterations
            && self
                .config
                .time_limit
                .is_none_or(|limit| clock.elapsed() < limit)
        {
            if n_moves == 0 {
                break;
            }
            let mv = current
                .nth_neighbourhood_move(rng.gen_range(0..n_moves))
                .expect("index drawn within the neighbourhood");
            // Skipped (structurally-invalid) moves consume no evaluation,
            // so they must not cool the schedule either — the proposed
            // flow's annealer freezes cooling on skips for the same
            // reason, keeping the two schedules budget-matched. The skip
            // cap guards a degenerate all-invalid neighbourhood.
            if require_all_cores && !move_keeps_all_cores(&current, mv) {
                consecutive_skips += 1;
                if consecutive_skips > n_moves.saturating_mul(50) {
                    break;
                }
                continue;
            }
            consecutive_skips = 0;
            let inverse = current.apply(mv);
            let accepted = rule.step(
                &mut ev,
                &current,
                scaling,
                mv,
                current_score,
                temperature,
                &mut rng,
            )?;
            evaluations += 1;
            if let Some((summary, score)) = accepted {
                ev.accept();
                current_summary = summary;
                current_score = score;
                n_moves = current.neighbourhood_len();
                if current_score < best_score
                    || (current_summary.meets_deadline && !best_summary.meets_deadline)
                {
                    best.clone_from(&current);
                    best_summary = current_summary;
                    best_score = current_score;
                }
            } else {
                ev.reject();
                current.apply(inverse);
            }
            temperature *= self.config.cooling;
        }

        // Off-budget full evaluation of the returned best design.
        let evaluation = ev.evaluate_full(&best, scaling)?;
        Ok(SaOutcome {
            mapping: best,
            evaluation,
            evaluations,
        })
    }
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
    use sea_taskgraph::mpeg2;

    fn setup() -> (sea_taskgraph::Application, Architecture) {
        (
            mpeg2::application(),
            Architecture::homogeneous(4, LevelSet::arm7_three_level()),
        )
    }

    fn fast_sa(seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing::new(SaConfig {
            iterations: 1_500,
            initial_temperature: 0.1,
            cooling: 0.997,
            seed,
            time_limit: None,
        })
    }

    #[test]
    fn minimizing_r_beats_minimizing_tm_on_r() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let r_run = fast_sa(1).map(&ctx, &s, Objective::RegisterUsage).unwrap();
        let tm_run = fast_sa(1).map(&ctx, &s, Objective::Parallelism).unwrap();
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
        let a = fast_sa(7).map(&ctx, &s, Objective::RegTimeProduct).unwrap();
        let b = fast_sa(7).map(&ctx, &s, Objective::RegTimeProduct).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn annealing_improves_on_the_seed() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let seed_eval = ctx.evaluate(&balanced_seed(&ctx, 4), &s).unwrap();
        let out = fast_sa(3).map(&ctx, &s, Objective::RegisterUsage).unwrap();
        assert!(out.evaluation.r_total <= seed_eval.r_total);
    }

    #[test]
    fn step_clock_time_limit_is_deterministic() {
        use sea_opt::StepClock;
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let step = std::time::Duration::from_millis(1);
        let sa = SimulatedAnnealing::new(SaConfig {
            iterations: usize::MAX,
            initial_temperature: 0.1,
            cooling: 0.997,
            seed: 4,
            time_limit: Some(step * 30),
        });
        let run = || {
            sa.map_with_clock(&ctx, &s, Objective::RegisterUsage, &StepClock::new(step))
                .unwrap()
        };
        let a = run();
        let b = run();
        // The clock expires after exactly 30 queries on any machine.
        assert_eq!(a.evaluations, b.evaluations);
        assert!(a.evaluations <= 31);
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn respects_iteration_budget() {
        let (app, arch) = setup();
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::uniform(2, &arch).unwrap();
        let sa = SimulatedAnnealing::new(SaConfig {
            iterations: 64,
            initial_temperature: 0.1,
            cooling: 0.9,
            seed: 0,
            time_limit: None,
        });
        let out = sa.map(&ctx, &s, Objective::Parallelism).unwrap();
        assert!(out.evaluations <= 64);
    }
}
