//! The proposed soft error-aware design optimization (paper §IV).
//!
//! This crate is the paper's primary contribution: a joint
//! power-minimization / reliability-improvement flow for low-power,
//! time-constrained MPSoCs (Fig. 4). It iterates three steps:
//!
//! 1. **Power minimization** — walk the discrete voltage-scaling space with
//!    the non-repetitive [`scaling::ScalingIter`] enumeration (Fig. 5),
//!    starting from the lowest-voltage combination.
//! 2. **Soft error-aware task mapping** — for each scaling, build an
//!    [`initial::initial_sea_mapping`] greedy seed (Fig. 6) and refine it
//!    with the [`optimized::optimized_mapping`] neighbourhood search under
//!    list scheduling (Fig. 7), minimizing the expected SEUs `Γ` subject to
//!    the real-time constraint `TM ≤ TMref`.
//! 3. **Iterative assessment** — keep the best feasible design by the
//!    configured [`driver::SelectionPolicy`] (joint `P·Γ` by default, as in
//!    the paper's Table II outcome).
//!
//! The entry point is [`driver::DesignOptimizer`].
//!
//! The scaling enumeration runs on a chunked `std::thread::scope` worker
//! pool ([`OptimizerConfig::jobs`]); the chunk partition and search seeds
//! are functions of the enumeration alone, so **the outcome is bitwise
//! identical for every job count** — see [`driver`] for the scheme. Each
//! per-scaling search is one run of [`optimized::anneal`], the annealing
//! loop the soft error-unaware baselines run too; its per-candidate
//! objective goes through the allocation-free
//! [`sea_sched::IncrementalEvaluator`], and wall-clock-limited budgets read
//! time from an injectable [`clock::Clock`].
//!
//! # Example
//!
//! ```
//! use sea_opt::{DesignOptimizer, OptimizerConfig};
//! use sea_taskgraph::fig8;
//!
//! let app = fig8::application();
//! let outcome = DesignOptimizer::new(OptimizerConfig::fast(3))
//!     .optimize(&app)
//!     .expect("the Fig. 8 walkthrough has feasible designs");
//! assert!(outcome.best.evaluation.meets_deadline);
//! ```

pub mod clock;
pub mod codec;
pub mod driver;
pub mod initial;
pub mod optimized;
pub mod scaling;

pub use clock::{Clock, StepClock, WallClock};
pub use codec::{decode_outcome, encode_outcome, CodecError};
pub use driver::{
    default_jobs, DesignOptimizer, DesignPoint, OptimizationOutcome, OptimizerConfig,
    ScalingOutcome, SelectionPolicy, SCALING_CHUNK,
};
pub use optimized::{SearchBudget, SearchOutcome};
pub use scaling::ScalingIter;

use std::error::Error;
use std::fmt;

use sea_arch::ArchError;
use sea_sched::SchedError;

/// Errors produced by the optimization flow.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// The application has fewer tasks than the architecture has cores, so
    /// no mapping can keep every core busy.
    TooFewTasks {
        /// Tasks available.
        tasks: usize,
        /// Cores to fill.
        cores: usize,
    },
    /// No voltage scaling and mapping meets the real-time constraint.
    Infeasible {
        /// Tightest multiprocessor execution time found, in seconds.
        best_tm_seconds: f64,
        /// The deadline that could not be met.
        deadline_s: f64,
    },
    /// Underlying scheduling error.
    Sched(SchedError),
    /// Underlying architecture error.
    Arch(ArchError),
    /// The run was interrupted by a cooperative cancellation request
    /// ([`OptimizerConfig::with_cancel`]) before the enumeration finished.
    Cancelled,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::TooFewTasks { tasks, cores } => {
                write!(f, "{tasks} tasks cannot occupy {cores} cores")
            }
            OptError::Infeasible {
                best_tm_seconds,
                deadline_s,
            } => write!(
                f,
                "no design meets the deadline: best TM {best_tm_seconds:.4} s vs {deadline_s:.4} s"
            ),
            OptError::Sched(e) => write!(f, "scheduling error: {e}"),
            OptError::Arch(e) => write!(f, "architecture error: {e}"),
            OptError::Cancelled => write!(f, "optimization cancelled"),
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Sched(e) => Some(e),
            OptError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for OptError {
    fn from(e: SchedError) -> Self {
        OptError::Sched(e)
    }
}

impl From<ArchError> for OptError {
    fn from(e: ArchError) -> Self {
        OptError::Arch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<OptError>();
        let e = OptError::Infeasible {
            best_tm_seconds: 2.0,
            deadline_s: 1.0,
        };
        assert!(e.to_string().contains("deadline"));
    }
}
