//! `sea-dse` — umbrella crate for the DATE 2010 reproduction
//! *"Soft Error-Aware Design Optimization of Low Power and Time-Constrained
//! Embedded Systems"* (Shafik, Al-Hashimi, Chakrabarty).
//!
//! This crate re-exports the workspace members under stable module names so
//! downstream users can depend on a single crate:
//!
//! * [`taskgraph`] — application task graphs, register-sharing models,
//!   MPEG-2 / Fig. 8 presets, random workload generator.
//! * [`arch`] — MPSoC architecture, ARM7TDMI DVS levels, power and SER
//!   models.
//! * [`sched`] — mapping, list scheduling, and the analytic `TM`/`R`/`Γ`
//!   metrics of eqs. (3)–(8).
//! * [`sim`] — discrete-event MPSoC simulator with Poisson SEU fault
//!   injection (the SystemC substitute).
//! * [`opt`] — the proposed optimization: `nextScaling`, `InitialSEAMapping`,
//!   `OptimizedMapping`, and the iterative-assessment driver.
//! * [`baselines`] — simulated-annealing mappers for the soft error-unaware
//!   experiments Exp:1–Exp:3 and the random-mapping sweep of Fig. 3.
//! * [`campaign`] — declarative multi-scenario campaigns: spec grammar,
//!   deterministic cross-scenario worker pool, streaming result sinks.
//! * [`dist`] — distributed campaigns over TCP: workers, the
//!   length-prefixed frame protocol, and the one coordinator — an event
//!   loop that runs wire-submitted campaigns (the daemon) and in-process
//!   ones (`serve`, `reproduce --distributed`) alike, with fair
//!   scheduling over a shared worker fleet, dedupe and live result
//!   streaming.
//! * [`serve`] — the daemon's client verbs (submit, watch, status,
//!   cancel, stop), plus the daemon re-exported from [`dist`].
//! * [`experiments`] — harnesses regenerating every table and figure,
//!   defined as campaign unit lists.
//!
//! # Quickstart
//!
//! ```
//! use sea_dse::opt::{DesignOptimizer, OptimizerConfig};
//! use sea_dse::taskgraph::mpeg2;
//!
//! let app = mpeg2::application();
//! let config = OptimizerConfig::fast(4); // four cores, small search budget
//! let outcome = DesignOptimizer::new(config).optimize(&app).expect("feasible");
//! println!(
//!     "P = {:.2} mW, Gamma = {:.3e}, TM = {:.2} s",
//!     outcome.best.evaluation.power_mw,
//!     outcome.best.evaluation.gamma,
//!     outcome.best.evaluation.tm_seconds
//! );
//! ```

pub mod cli;

pub use sea_arch as arch;
pub use sea_baselines as baselines;
pub use sea_campaign as campaign;
pub use sea_dist as dist;
pub use sea_experiments as experiments;
pub use sea_opt as opt;
pub use sea_sched as sched;
pub use sea_serve as serve;
pub use sea_sim as sim;
pub use sea_taskgraph as taskgraph;
