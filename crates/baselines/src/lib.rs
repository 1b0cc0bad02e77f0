//! Soft error-unaware baseline optimizations (paper §V, Exp:1–Exp:3).
//!
//! The paper compares its proposed flow against designs produced by
//! simulated-annealing task mapping (Orsila et al., the paper's ref. \[13\])
//! under three soft error-*unaware* objectives:
//!
//! * **Exp:1** — minimize register usage `R` ([`Objective::RegisterUsage`]),
//! * **Exp:2** — maximize parallelism, i.e. minimize the multiprocessor
//!   execution time `TM` ([`Objective::Parallelism`]),
//! * **Exp:3** — minimize the product `TM · R`
//!   ([`Objective::RegTimeProduct`]).
//!
//! Each baseline runs inside the same iterative power-minimization loop as
//! the proposed flow (voltage scaling enumeration + feasibility + power
//! selection); only the mapping stage differs. [`sweep`] additionally
//! provides the 120-random-mappings study behind Fig. 3.
//!
//! # Example
//!
//! ```
//! use sea_baselines::{BaselineOptimizer, Objective};
//! use sea_opt::OptimizerConfig;
//! use sea_taskgraph::mpeg2;
//!
//! let app = mpeg2::application();
//! let out = BaselineOptimizer::new(OptimizerConfig::fast(4), Objective::Parallelism)
//!     .optimize(&app)
//!     .expect("feasible");
//! assert!(out.best.evaluation.meets_deadline);
//! ```

pub mod objectives;
pub mod sa;
pub mod sweep;

pub use objectives::Objective;

use sea_arch::ScalingVector;
use sea_opt::clock::WallClock;
use sea_opt::scaling::ScalingIter;
use sea_opt::{DesignPoint, OptError, OptimizationOutcome, OptimizerConfig, ScalingOutcome};
use sea_sched::metrics::EvalContext;
use sea_taskgraph::Application;

/// A soft error-unaware design optimizer: the paper's Fig. 4 outer loop
/// with a simulated-annealing mapping stage driven by a classic objective.
#[derive(Debug, Clone)]
pub struct BaselineOptimizer {
    config: OptimizerConfig,
    objective: Objective,
}

impl BaselineOptimizer {
    /// Creates a baseline optimizer. The `OptimizerConfig` supplies the
    /// architecture, budget and selection policy; `objective` picks the
    /// experiment (Exp:1/2/3).
    #[must_use]
    pub fn new(config: OptimizerConfig, objective: Objective) -> Self {
        BaselineOptimizer { config, objective }
    }

    /// The objective in use.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Runs the baseline flow on `app` — two stages, as in the paper's
    /// soft error-unaware experiments:
    ///
    /// 1. **Mapping** — simulated annealing minimizes the *pure* objective
    ///    (`R`, `TM` or `TM·R`) at nominal uniform scaling. The mapping is
    ///    soft error-unaware and scaling-unaware, exactly like a
    ///    memory-/performance-aware distribution tool (ref. \[13\]).
    /// 2. **Power minimization** — iterative voltage scaling over the
    ///    `nextScaling` enumeration finds the lowest-power combination at
    ///    which the *fixed* mapping still meets the real-time constraint.
    ///
    /// This reproduces Table II's contrasts: the min-`R` mapping (Exp:1)
    /// has a long `TM`, cannot be scaled far down, and ends up with the
    /// highest power; the max-parallelism mapping (Exp:2) scales deepest.
    ///
    /// The run is sequential by construction — stage 1 is one annealing
    /// chain and stage 2 one cheap evaluation per scaling — so
    /// [`OptimizerConfig::jobs`] is intentionally ignored here (it fans
    /// out `sea_opt::DesignOptimizer`'s per-scaling searches, which the
    /// baseline does not have).
    ///
    /// # Errors
    ///
    /// Mirrors [`sea_opt::DesignOptimizer::optimize`]: [`OptError::TooFewTasks`]
    /// or [`OptError::Infeasible`].
    pub fn optimize(&self, app: &Application) -> Result<OptimizationOutcome, OptError> {
        let arch = &self.config.arch;
        if app.graph().len() < arch.n_cores() {
            return Err(OptError::TooFewTasks {
                tasks: app.graph().len(),
                cores: arch.n_cores(),
            });
        }
        let ctx = EvalContext::new(app, arch)
            .with_ser(self.config.ser)
            .with_exposure(self.config.exposure);

        // Stage 1: objective-driven mapping at nominal scaling.
        let nominal = ScalingVector::all_nominal(arch);
        let (budget, seed) = (self.config.budget, self.config.seed);
        let clock = WallClock::start();
        let mapped = sa::map_unconstrained(&ctx, &nominal, self.objective, budget, seed, &clock)?;
        let mapping = mapped.mapping;
        let mut total_evaluations = mapped.evaluations;

        // Stage 2: iterative voltage scaling for the fixed mapping.
        let mut explored = Vec::new();
        let mut best: Option<DesignPoint> = None;
        let mut best_tm = f64::INFINITY;
        for raw in ScalingIter::for_architecture(arch) {
            let scaling = ScalingVector::try_new(raw, arch)?;
            let evaluation = ctx.evaluate(&mapping, &scaling)?;
            total_evaluations += 1;
            best_tm = best_tm.min(evaluation.tm_seconds);
            let feasible = evaluation.meets_deadline;
            let point = DesignPoint {
                scaling: scaling.clone(),
                mapping: mapping.clone(),
                evaluation,
            };
            if feasible {
                let replace = match &best {
                    None => true,
                    Some(incumbent) => point.evaluation.power_mw < incumbent.evaluation.power_mw,
                };
                if replace {
                    best = Some(point.clone());
                }
            }
            explored.push(ScalingOutcome {
                scaling,
                best: Some(point),
                feasible,
                evaluations: 1,
            });
        }

        match best {
            Some(best) => Ok(OptimizationOutcome {
                best,
                explored,
                total_evaluations,
            }),
            None => Err(OptError::Infeasible {
                best_tm_seconds: best_tm,
                deadline_s: app.deadline_s(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_taskgraph::mpeg2;

    #[test]
    fn all_three_baselines_find_feasible_designs() {
        let app = mpeg2::application();
        for obj in [
            Objective::RegisterUsage,
            Objective::Parallelism,
            Objective::RegTimeProduct,
        ] {
            let out = BaselineOptimizer::new(OptimizerConfig::fast(4), obj)
                .optimize(&app)
                .unwrap_or_else(|e| panic!("{obj:?} failed: {e}"));
            assert!(out.best.evaluation.meets_deadline, "{obj:?}");
            assert!(out.best.mapping.uses_all_cores(), "{obj:?}");
        }
    }

    #[test]
    fn objectives_shape_the_designs_as_in_table2() {
        let app = mpeg2::application();
        let reg = BaselineOptimizer::new(OptimizerConfig::fast(4), Objective::RegisterUsage)
            .optimize(&app)
            .unwrap();
        let par = BaselineOptimizer::new(OptimizerConfig::fast(4), Objective::Parallelism)
            .optimize(&app)
            .unwrap();
        // Exp:1 yields lower R than Exp:2; Exp:2 yields lower TM than Exp:1
        // (Table II's defining contrast).
        assert!(
            reg.best.evaluation.r_total < par.best.evaluation.r_total,
            "R: {} vs {}",
            reg.best.evaluation.r_total_kbits(),
            par.best.evaluation.r_total_kbits()
        );
        assert!(
            par.best.evaluation.tm_seconds < reg.best.evaluation.tm_seconds,
            "TM: {} vs {}",
            par.best.evaluation.tm_seconds,
            reg.best.evaluation.tm_seconds
        );
    }

    #[test]
    fn too_few_tasks_rejected() {
        let app = sea_taskgraph::fig8::application();
        let err = BaselineOptimizer::new(OptimizerConfig::fast(8), Objective::Parallelism)
            .optimize(&app)
            .unwrap_err();
        assert!(matches!(err, OptError::TooFewTasks { .. }));
    }
}
