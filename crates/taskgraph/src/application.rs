//! An application = task graph + register model + execution profile.

use serde::{Deserialize, Serialize};

use crate::error::GraphError;
use crate::graph::TaskGraph;
use crate::registers::RegisterModel;

/// How the application executes on the MPSoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// One-shot execution of the DAG (used for the paper's random task
    /// graphs): parallelism comes from DAG branching; makespan is the
    /// list-scheduled finish time.
    Batch,
    /// Streaming execution of `iterations` successive instances of the DAG
    /// (used for the MPEG-2 decoder: one instance per video frame, 437
    /// frames for the `tennis` bitstream). Task costs stored in the graph
    /// are whole-stream totals; per-iteration cost = total / iterations.
    /// Throughput is limited by the busiest core, which is why distributing
    /// tasks reduces the multiprocessor execution time `TM` (§III).
    Pipelined {
        /// Number of iterations (frames) in the stream. Must be ≥ 1.
        iterations: u32,
    },
}

impl ExecutionMode {
    /// Number of iterations the mode executes (1 for batch).
    #[must_use]
    pub fn iterations(self) -> u32 {
        match self {
            ExecutionMode::Batch => 1,
            ExecutionMode::Pipelined { iterations } => iterations,
        }
    }
}

/// A complete application workload for the design-optimization flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Application {
    name: String,
    graph: TaskGraph,
    registers: RegisterModel,
    mode: ExecutionMode,
    deadline_s: f64,
}

impl Application {
    /// Bundles a task graph with its register model and timing requirements.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::RegisterModelMismatch`] if the register model
    /// does not cover the graph's tasks, and [`GraphError::InvalidParameter`]
    /// for a non-positive deadline or zero pipeline iterations.
    pub fn new(
        name: impl Into<String>,
        graph: TaskGraph,
        registers: RegisterModel,
        mode: ExecutionMode,
        deadline_s: f64,
    ) -> Result<Self, GraphError> {
        registers.validate_for(graph.len())?;
        if deadline_s.is_nan() || deadline_s <= 0.0 {
            return Err(GraphError::InvalidParameter {
                message: format!("deadline must be positive, got {deadline_s}"),
            });
        }
        if let ExecutionMode::Pipelined { iterations } = mode {
            if iterations == 0 {
                return Err(GraphError::InvalidParameter {
                    message: "pipelined execution needs at least one iteration".into(),
                });
            }
        }
        Ok(Application {
            name: name.into(),
            graph,
            registers,
            mode,
            deadline_s,
        })
    }

    /// The application's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task graph.
    #[must_use]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The register-sharing model.
    #[must_use]
    pub fn registers(&self) -> &RegisterModel {
        &self.registers
    }

    /// The execution mode (batch or pipelined).
    #[must_use]
    pub fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The real-time constraint `TMref` in seconds.
    #[must_use]
    pub fn deadline_s(&self) -> f64 {
        self.deadline_s
    }

    /// Returns a copy with a different deadline (for sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidParameter`] for a non-positive deadline.
    pub fn with_deadline(&self, deadline_s: f64) -> Result<Self, GraphError> {
        Application::new(
            self.name.clone(),
            self.graph.clone(),
            self.registers.clone(),
            self.mode,
            deadline_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraphBuilder;
    use crate::registers::RegisterModelBuilder;
    use crate::units::Bits;
    use crate::units::Cycles;

    fn app(mode: ExecutionMode, deadline: f64) -> Result<Application, GraphError> {
        let mut b = TaskGraphBuilder::new("g");
        let a = b.add_task("a", Cycles::new(100));
        let c = b.add_task("b", Cycles::new(100));
        b.add_edge(a, c, Cycles::new(10)).unwrap();
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(2);
        let blk = rm.add_block("x", Bits::new(8));
        rm.assign(a, blk).unwrap();
        rm.assign(c, blk).unwrap();
        Application::new("app", g, rm.build(), mode, deadline)
    }

    #[test]
    fn builds_valid_application() {
        let a = app(ExecutionMode::Batch, 1.0).unwrap();
        assert_eq!(a.name(), "app");
        assert_eq!(a.mode().iterations(), 1);
        assert_eq!(a.deadline_s(), 1.0);
    }

    #[test]
    fn rejects_bad_deadline() {
        assert!(app(ExecutionMode::Batch, 0.0).is_err());
        assert!(app(ExecutionMode::Batch, -2.0).is_err());
        assert!(app(ExecutionMode::Batch, f64::NAN).is_err());
    }

    #[test]
    fn rejects_zero_iterations() {
        assert!(app(ExecutionMode::Pipelined { iterations: 0 }, 1.0).is_err());
        assert!(app(ExecutionMode::Pipelined { iterations: 4 }, 1.0).is_ok());
    }

    #[test]
    fn rejects_register_mismatch() {
        let mut b = TaskGraphBuilder::new("g");
        b.add_task("a", Cycles::new(1));
        let g = b.build().unwrap();
        let rm = RegisterModelBuilder::new(3).build();
        assert!(matches!(
            Application::new("x", g, rm, ExecutionMode::Batch, 1.0).unwrap_err(),
            GraphError::RegisterModelMismatch { .. }
        ));
    }

    #[test]
    fn with_deadline_replaces_only_deadline() {
        let a = app(ExecutionMode::Batch, 1.0).unwrap();
        let b = a.with_deadline(2.5).unwrap();
        assert_eq!(b.deadline_s(), 2.5);
        assert_eq!(b.graph().len(), a.graph().len());
    }
}
