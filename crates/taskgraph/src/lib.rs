//! Application task-graph models for soft error-aware MPSoC design optimization.
//!
//! This crate provides the *application side* of the DATE 2010 paper
//! "Soft Error-Aware Design Optimization of Low Power and Time-Constrained
//! Embedded Systems" (Shafik, Al-Hashimi, Chakrabarty):
//!
//! * [`graph::TaskGraph`] — directed acyclic task graphs `G(V, E)` with
//!   per-task computation costs and per-edge communication costs, both in
//!   clock cycles (paper §II-B).
//! * [`registers::RegisterModel`] — per-task register footprints built from
//!   possibly-*shared* register blocks. Sharing is what creates the
//!   register-usage/execution-time trade-off at the heart of the paper
//!   (§III): co-locating sharing tasks avoids duplicating blocks across
//!   cores, distributing them replicates the blocks.
//! * [`application::Application`] — a task graph + register model + execution
//!   profile (batch or pipelined/streaming) + real-time deadline.
//! * [`mpeg2`] — the 11-task MPEG-2 decoder of Fig. 2, including a
//!   register-sharing model calibrated to the constraints published in §III.
//! * [`fig8`] — the six-task tutorial example of Fig. 8 with the exact
//!   register table r1..r9.
//! * [`generator`] — the random task-graph generator used in §V
//!   (uniform computation/communication costs, exponential out-degree).
//! * [`par`](mod@par) — the workspace's one scoped thread pool, shared by the
//!   optimizer's chunk driver, the campaign pool and the cache scans.
//!
//! # Example
//!
//! ```
//! use sea_taskgraph::graph::TaskGraphBuilder;
//! use sea_taskgraph::units::Cycles;
//!
//! # fn main() -> Result<(), sea_taskgraph::error::GraphError> {
//! let mut b = TaskGraphBuilder::new("pipeline");
//! let a = b.add_task("produce", Cycles::new(1_000));
//! let c = b.add_task("consume", Cycles::new(2_000));
//! b.add_edge(a, c, Cycles::new(100))?;
//! let g = b.build()?;
//! assert_eq!(g.len(), 2);
//! assert_eq!(g.total_computation(), Cycles::new(3_000));
//! # Ok(())
//! # }
//! ```

pub mod application;
pub mod error;
pub mod fig8;
pub mod generator;
pub mod graph;
pub mod mpeg2;
pub mod par;
pub mod presets;
pub mod registers;
pub mod soa;
pub mod spec;
pub mod task;
pub mod units;

pub use application::{Application, ExecutionMode};
pub use error::GraphError;
pub use graph::{Edge, TaskGraph, TaskGraphBuilder};
pub use registers::{RegisterBlock, RegisterBlockId, RegisterModel, RegisterModelBuilder};
pub use soa::TaskGraphSoa;
pub use spec::{AppSpec, SpecError};
pub use task::{Task, TaskId};
pub use units::{Bits, Cycles};
