//! Discrete-event MPSoC simulation with SEU fault injection.
//!
//! This crate is the workspace's substitute for the paper's SystemC
//! cycle-accurate simulation and the minimum-intrusive fault-injection flow
//! of the authors' IOLTS'08 technique (paper §II-B, ref. \[11\]):
//!
//! * [`kernel`] — a small discrete-event simulation kernel (time-ordered
//!   event queue with deterministic tie-breaking).
//! * [`engine`] — event-driven execution of a mapped, voltage-scaled
//!   application on the MPSoC: per-core clock domains, dedicated inter-core
//!   links charged on the consumer core, batch and pipelined (per-frame)
//!   execution. Produces a measured [`engine::ExecutionTrace`]; the list
//!   scheduler of `sea-sched` *estimates* the same quantities.
//! * [`fault`] — Poisson SEU injection over each core's full register space
//!   (register file + caches + private memory). An injected upset landing
//!   inside the core's *allocated* working set is **experienced**; hits on
//!   unused bits are masked. `E[experienced] = λ_i · R_i · T_i` matches
//!   eq. (3) exactly.
//! * [`rng`] — numerically robust Poisson sampling for the huge means that
//!   arise from multi-second runs over ~537 kbit register spaces.
//!
//! # Example
//!
//! ```
//! use sea_arch::{Architecture, LevelSet, ScalingVector};
//! use sea_sched::mapping::Mapping;
//! use sea_sim::{simulate_design, SimConfig};
//! use sea_taskgraph::mpeg2;
//!
//! # fn main() -> Result<(), sea_sim::SimError> {
//! let app = mpeg2::application();
//! let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level());
//! let mapping = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4)?;
//! let s = ScalingVector::try_new(vec![2, 2, 3, 2], &arch)?;
//! let report = simulate_design(&app, &arch, &mapping, &s, &SimConfig::seeded(7))?;
//! // The Monte-Carlo count clusters around the analytic expectation.
//! let rel = (report.faults.total_experienced as f64 - report.analytic.gamma).abs()
//!     / report.analytic.gamma;
//! assert!(rel < 0.05, "relative deviation {rel}");
//! # Ok(())
//! # }
//! ```

pub mod engine;
pub mod fault;
pub mod kernel;
pub mod rng;

pub use engine::{simulate_execution, ExecutionTrace, TaskEvent};
pub use fault::{FaultReport, InjectionMode, SeuEvent};

use std::error::Error;
use std::fmt;

use sea_arch::{Architecture, ScalingVector};
use sea_sched::metrics::{EvalContext, ExposurePolicy, MappingEvaluation};
use sea_sched::{Mapping, SchedError};
use sea_taskgraph::Application;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// Underlying scheduling/shape error.
    Sched(SchedError),
    /// A configuration parameter was invalid; the message names it.
    InvalidConfig {
        /// Human-readable description.
        message: String,
    },
    /// Literal per-cycle injection was requested for a run too long to
    /// iterate cycle-by-cycle.
    RunTooLongForPerCycle {
        /// Total cycles the run would need.
        cycles: u64,
        /// The configured cap.
        cap: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Sched(e) => write!(f, "scheduling error: {e}"),
            SimError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
            SimError::RunTooLongForPerCycle { cycles, cap } => write!(
                f,
                "per-cycle injection infeasible: {cycles} cycles exceeds cap {cap}"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedError> for SimError {
    fn from(e: SchedError) -> Self {
        SimError::Sched(e)
    }
}

impl From<sea_arch::ArchError> for SimError {
    fn from(e: sea_arch::ArchError) -> Self {
        SimError::Sched(SchedError::Arch(e))
    }
}

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed for fault injection (simulation itself is deterministic).
    pub seed: u64,
    /// SER model; defaults to the paper calibration at 10⁻⁹ SEU/bit/cycle.
    pub ser: sea_arch::SerModel,
    /// Register exposure policy (see `sea_sched::metrics`).
    pub exposure: ExposurePolicy,
    /// Injection acceleration mode.
    pub mode: InjectionMode,
    /// At most this many individual SEU events are materialized with
    /// time/location detail; the rest are only counted.
    pub max_detailed_events: usize,
}

impl SimConfig {
    /// Default configuration with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        SimConfig {
            seed,
            ser: sea_arch::SerModel::default(),
            exposure: ExposurePolicy::default(),
            mode: InjectionMode::Segmented,
            max_detailed_events: 1_000,
        }
    }
}

/// Complete result of simulating one design point.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Measured execution trace.
    pub trace: ExecutionTrace,
    /// Monte-Carlo fault-injection outcome.
    pub faults: FaultReport,
    /// Analytic evaluation of the same design point (eqs. 3/5/6/7/8) for
    /// comparison — `faults.total_experienced` clusters around
    /// `analytic.gamma`.
    pub analytic: MappingEvaluation,
}

/// A [`SimReport`] without its two event lists: the measured timing, the
/// fault counts and the analytic evaluation. This is all a campaign
/// keeps of a simulation; the task events of the execution trace and the
/// sampled SEU events stay with callers of [`simulate_design`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Measured multiprocessor execution time in seconds.
    pub tm_seconds: f64,
    /// Iterations executed.
    pub iterations: u32,
    /// Busy seconds per core.
    pub busy_s: Vec<f64>,
    /// Per-core injection outcome.
    pub per_core: Vec<fault::CoreFaults>,
    /// Total injected upsets (experienced + masked).
    pub total_injected: u64,
    /// Total experienced upsets — the Monte-Carlo counterpart of `Γ`.
    pub total_experienced: u64,
    /// Analytic `Γ` (sum of per-core expectations).
    pub gamma_expected: f64,
    /// Analytic evaluation of the same design point.
    pub analytic: MappingEvaluation,
}

impl SimReport {
    /// Drops the trace's task events and the sampled SEU events.
    #[must_use]
    pub fn into_summary(self) -> SimSummary {
        SimSummary {
            tm_seconds: self.trace.tm_seconds,
            iterations: self.trace.iterations,
            busy_s: self.trace.busy_s,
            per_core: self.faults.per_core,
            total_injected: self.faults.total_injected,
            total_experienced: self.faults.total_experienced,
            gamma_expected: self.faults.gamma_expected,
            analytic: self.analytic,
        }
    }
}

/// Simulates one design point end-to-end: event-driven execution followed by
/// fault injection, plus the analytic evaluation for cross-checking.
///
/// # Errors
///
/// Returns [`SimError::Sched`] for shape mismatches and
/// [`SimError::RunTooLongForPerCycle`] when literal injection is infeasible.
pub fn simulate_design(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
    config: &SimConfig,
) -> Result<SimReport, SimError> {
    let trace = simulate_execution(app, arch, mapping, scaling)?;
    let faults = fault::inject(app, arch, mapping, scaling, &trace, config)?;
    let analytic = EvalContext::new(app, arch)
        .with_ser(config.ser)
        .with_exposure(config.exposure)
        .evaluate(mapping, scaling)?;
    Ok(SimReport {
        trace,
        faults,
        analytic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_is_well_behaved() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<SimError>();
        let e: SimError = SchedError::IncompleteMapping.into();
        assert!(e.to_string().contains("scheduling error"));
        assert!(Error::source(&e).is_some());
    }
}
