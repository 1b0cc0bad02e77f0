//! Task mapping, list scheduling and the analytic `TM`/`R`/`Γ` metrics of
//! the DATE 2010 paper (§IV-B, eqs. 3–8).
//!
//! * [`mapping`] — assignment of tasks to cores, with the neighbourhood
//!   moves used by the search-based optimizations.
//! * [`schedule`] — a deterministic list scheduler supporting the two
//!   execution models: one-shot *batch* DAG execution (random graphs) and
//!   *pipelined* streaming execution (the MPEG-2 decoder, one graph
//!   iteration per frame).
//! * [`metrics`] — the evaluation context that turns (application,
//!   architecture, mapping, scaling vector) into multiprocessor execution
//!   time `TM` (eq. 6), per-core times `T_i` (eq. 7), register usage `R_i`
//!   (eq. 8), dynamic power `P` (eq. 5) and expected SEUs `Γ` (eq. 3).
//!   [`EvalContext::evaluate`] is the reference evaluation.
//! * [`incremental`] — the delta-evaluation [`IncrementalEvaluator`], the
//!   one hot path of the optimizers' annealing loop: an allocation-free
//!   cached-schedule evaluator that replays only the suffix a single
//!   neighbourhood move can invalidate, bitwise identical to the
//!   reference, and stops early once the caller's [`RejectionTest`] proves
//!   a candidate rejected (see the README's "Engine internals" sections).
//! * [`bounds`] — mapping-independent lower bounds on `TM`
//!   ([`tm_lower_bound`]), the foundation of `sea-opt`'s bound-and-prune
//!   scaling enumeration.
//!
//! # Example
//!
//! ```
//! use sea_arch::{Architecture, LevelSet, ScalingVector};
//! use sea_sched::mapping::Mapping;
//! use sea_sched::metrics::EvalContext;
//! use sea_taskgraph::mpeg2;
//!
//! # fn main() -> Result<(), sea_sched::SchedError> {
//! let app = mpeg2::application();
//! let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
//! // The proposed design of Table II, Exp:4.
//! let mapping = Mapping::from_groups(&[
//!     &[0, 1, 2, 3, 4, 5],
//!     &[6, 7],
//!     &[8],
//!     &[9, 10],
//! ], 4)?;
//! let s = ScalingVector::try_new(vec![2, 2, 3, 2], &arch)?;
//! let eval = EvalContext::new(&app, &arch).evaluate(&mapping, &s)?;
//! assert!(eval.tm_seconds > 0.0);
//! assert!(eval.gamma > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod bounds;
pub mod incremental;
pub mod mapping;
pub mod metrics;
pub mod recovery;
pub mod schedule;

pub use bounds::tm_lower_bound;
pub use incremental::{
    summaries_bitwise_eq, IncrementalEvaluator, IncrementalStats, RejectionTest,
};
pub use mapping::{Mapping, Move};
pub use metrics::{CoreEval, EvalContext, EvalSummary, ExposurePolicy, MappingEvaluation};
pub use schedule::{Schedule, ScheduledTask};

use std::error::Error;
use std::fmt;

use sea_arch::ArchError;
use sea_taskgraph::GraphError;

/// Errors produced by mapping construction, scheduling or evaluation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SchedError {
    /// A task id was outside the graph, or a core id outside the
    /// architecture.
    OutOfRange {
        /// Description of the offending id.
        what: String,
    },
    /// A mapping did not cover every task exactly once.
    IncompleteMapping,
    /// The mapping and evaluation context disagree on task or core counts.
    ShapeMismatch {
        /// Description of the mismatch.
        what: String,
    },
    /// An underlying architecture error.
    Arch(ArchError),
    /// An underlying task-graph error.
    Graph(GraphError),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::OutOfRange { what } => write!(f, "id out of range: {what}"),
            SchedError::IncompleteMapping => {
                write!(f, "mapping does not cover every task exactly once")
            }
            SchedError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            SchedError::Arch(e) => write!(f, "architecture error: {e}"),
            SchedError::Graph(e) => write!(f, "task graph error: {e}"),
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Arch(e) => Some(e),
            SchedError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArchError> for SchedError {
    fn from(e: ArchError) -> Self {
        SchedError::Arch(e)
    }
}

impl From<GraphError> for SchedError {
    fn from(e: GraphError) -> Self {
        SchedError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: SchedError = ArchError::WrongCoreCount {
            got: 1,
            expected: 2,
        }
        .into();
        assert!(e.to_string().contains("architecture error"));
        let e: SchedError = GraphError::Cyclic.into();
        assert!(e.to_string().contains("task graph error"));
        assert!(Error::source(&e).is_some());
    }
}
