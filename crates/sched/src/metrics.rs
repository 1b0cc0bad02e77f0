//! Analytic evaluation of a mapped, scaled design (eqs. 3, 5, 6, 7, 8).
//!
//! [`EvalContext::evaluate`] is the objective function used by every
//! optimizer in the workspace, and its reference implementation: it
//! list-schedules a mapping and derives
//!
//! * `TM` — multiprocessor execution time in seconds (measured on the
//!   schedule; the paper's eq. 6 estimates the same quantity),
//! * `T_i` and `α_i` — per-core busy time (eq. 7) and utilization,
//! * `R_i` — per-core register usage as the union of the mapped tasks'
//!   register blocks (eq. 8), in bits,
//! * `P` — dynamic power (eq. 5),
//! * `Γ` — expected number of SEUs experienced (eq. 3):
//!   `Γ = Σ_i R_i · T_i^exp · λ_i(Vdd_i)`.
//!
//! It allocates a schedule and a per-core breakdown on every call. The
//! annealing loop instead scores candidates through
//! [`crate::IncrementalEvaluator`], which computes the same
//! [`EvalSummary`] bit for bit and checks itself against this reference in
//! debug builds.
//!
//! # Exposure policy
//!
//! The paper's eq. (3) multiplies register usage by the core's execution
//! time in cycles. For the streaming decoder a core's working set stays
//! resident across frames, so the default [`ExposurePolicy::WholeRun`]
//! exposes `R_i` for the whole run (`T_i^exp = TM · f_i`): an SEU striking
//! an idle-but-live register still corrupts state. This reproduces the
//! concave Γ-vs-TM curve of Fig. 3(b). [`ExposurePolicy::BusyOnly`] counts
//! only busy cycles (the literal reading of eq. 7) and is kept as an
//! ablation (`crates/bench`, ablation benches).

use serde::{Deserialize, Serialize};

use sea_arch::power::{dynamic_power_w, watts_to_mw, CoreActivity};
use sea_arch::{Architecture, CoreId, ScalingVector, SerModel, VoltageLevel};
use sea_taskgraph::units::Bits;
use sea_taskgraph::Application;

use crate::mapping::Mapping;
use crate::schedule::{list_schedule, Schedule};
use crate::SchedError;

/// Which cycles expose a core's register working set to SEUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ExposurePolicy {
    /// Registers are allocated for the entire multiprocessor run:
    /// `T_i^exp = TM · f_i` (default; see module docs).
    #[default]
    WholeRun,
    /// Registers are only exposed while the core is busy:
    /// `T_i^exp = T_i^busy · f_i`.
    BusyOnly,
}

/// Per-core slice of an evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreEval {
    /// The core.
    pub core: CoreId,
    /// Scaling coefficient `s_i`.
    pub coefficient: u8,
    /// Clock frequency in Hz.
    pub f_hz: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Busy time in seconds (computation + inbound cross-core comm).
    pub busy_s: f64,
    /// Utilization `α_i = busy_s / TM`.
    pub alpha: f64,
    /// Register usage `R_i` (eq. 8), bits.
    pub r_bits: Bits,
    /// Exposure time in cycles of this core's clock.
    pub exposure_cycles: f64,
    /// Per-bit-per-cycle SEU rate `λ_i` at this core's voltage.
    pub lambda: f64,
    /// Expected SEUs on this core: `R_i · T_i^exp · λ_i`.
    pub gamma: f64,
}

/// Result of evaluating one `(mapping, scaling)` design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingEvaluation {
    /// Multiprocessor execution time in seconds.
    pub tm_seconds: f64,
    /// `TM` expressed in nominal-frequency clock cycles (Table II reports
    /// cycles; nominal = the level set's s=1 frequency).
    pub tm_nominal_cycles: f64,
    /// True if `TM ≤` the application's deadline.
    pub meets_deadline: bool,
    /// Dynamic power in milliwatts (eq. 5).
    pub power_mw: f64,
    /// Expected SEUs experienced `Γ` (eq. 3).
    pub gamma: f64,
    /// Total register usage `R = Σ_i R_i`, bits.
    pub r_total: Bits,
    /// Per-core breakdown.
    pub per_core: Vec<CoreEval>,
}

impl MappingEvaluation {
    /// Total register usage in the paper's reporting unit (kbit/cycle).
    #[must_use]
    pub fn r_total_kbits(&self) -> f64 {
        self.r_total.as_kbits()
    }

    /// The scalar slice of this evaluation (drops the per-core breakdown).
    #[must_use]
    pub fn summary(&self) -> EvalSummary {
        EvalSummary {
            tm_seconds: self.tm_seconds,
            tm_nominal_cycles: self.tm_nominal_cycles,
            meets_deadline: self.meets_deadline,
            power_mw: self.power_mw,
            gamma: self.gamma,
            r_total: self.r_total,
        }
    }
}

/// The scalar slice of a [`MappingEvaluation`] — everything the optimizers'
/// acceptance and selection rules need, as a `Copy` value so hot search
/// loops can keep, compare and clone scores without heap allocation. The
/// fields carry exactly the values of the corresponding
/// [`MappingEvaluation`] fields ([`crate::IncrementalEvaluator`] computes
/// them with the same operation order, so they are bitwise identical).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Multiprocessor execution time in seconds.
    pub tm_seconds: f64,
    /// `TM` in nominal-frequency clock cycles.
    pub tm_nominal_cycles: f64,
    /// True if `TM ≤` the application's deadline.
    pub meets_deadline: bool,
    /// Dynamic power in milliwatts (eq. 5).
    pub power_mw: f64,
    /// Expected SEUs experienced `Γ` (eq. 3).
    pub gamma: f64,
    /// Total register usage `R = Σ_i R_i`, bits.
    pub r_total: Bits,
}

/// Per-core scalar metrics derived from one core's operating point and
/// schedule slice.
pub(crate) struct CoreScalars {
    pub alpha: f64,
    pub exposure_cycles: f64,
    pub lambda: f64,
    pub gamma: f64,
}

/// The single source of the per-core metric arithmetic (eqs. 3, 7), shared
/// by [`EvalContext::evaluate_scheduled`] and the incremental evaluator so
/// the reference and hot paths cannot drift: both must produce
/// bitwise-identical scalars for the same inputs. The caller supplies the
/// SER rate `lambda = ser.lambda(level.vdd)`: it depends only on the core's
/// operating point, so the incremental evaluator, which holds the scaling
/// fixed across thousands of candidates, computes it once per scaling
/// instead of paying the `exp` per core per evaluation.
pub(crate) fn core_scalars(
    level: VoltageLevel,
    lambda: f64,
    busy: f64,
    tm: f64,
    r_bits: Bits,
    exposure: ExposurePolicy,
) -> CoreScalars {
    let alpha = if tm > 0.0 { (busy / tm).min(1.0) } else { 0.0 };
    let exposure_cycles = match exposure {
        ExposurePolicy::WholeRun => tm * level.f_hz,
        ExposurePolicy::BusyOnly => busy * level.f_hz,
    };
    CoreScalars {
        alpha,
        exposure_cycles,
        lambda,
        gamma: r_bits.as_f64() * exposure_cycles * lambda,
    }
}

/// Evaluation context binding an application to an architecture, an SER
/// model and an exposure policy.
#[derive(Debug, Clone)]
pub struct EvalContext<'a> {
    app: &'a Application,
    arch: &'a Architecture,
    ser: SerModel,
    exposure: ExposurePolicy,
}

impl<'a> EvalContext<'a> {
    /// Creates a context with the paper-calibrated SER model and the default
    /// exposure policy.
    #[must_use]
    pub fn new(app: &'a Application, arch: &'a Architecture) -> Self {
        EvalContext {
            app,
            arch,
            ser: SerModel::default(),
            exposure: ExposurePolicy::WholeRun,
        }
    }

    /// Replaces the SER model (non-consuming builder).
    #[must_use]
    pub fn with_ser(mut self, ser: SerModel) -> Self {
        self.ser = ser;
        self
    }

    /// Replaces the exposure policy.
    #[must_use]
    pub fn with_exposure(mut self, exposure: ExposurePolicy) -> Self {
        self.exposure = exposure;
        self
    }

    /// The application under evaluation (returned at the context's full
    /// lifetime, so callers can hold it alongside mutable scratch state).
    #[must_use]
    pub fn app(&self) -> &'a Application {
        self.app
    }

    /// The target architecture (full-lifetime borrow, see [`Self::app`]).
    #[must_use]
    pub fn arch(&self) -> &'a Architecture {
        self.arch
    }

    /// The SER model in use.
    #[must_use]
    pub fn ser(&self) -> &SerModel {
        &self.ser
    }

    /// The exposure policy in use.
    #[must_use]
    pub fn exposure(&self) -> ExposurePolicy {
        self.exposure
    }

    /// List-schedules the design point (see [`crate::schedule`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::ShapeMismatch`] for inconsistent shapes.
    pub fn schedule(
        &self,
        mapping: &Mapping,
        scaling: &ScalingVector,
    ) -> Result<Schedule, SchedError> {
        list_schedule(self.app, self.arch, mapping, scaling)
    }

    /// Evaluates the design point: schedule, then derive `TM`, `P`, `R`, `Γ`.
    ///
    /// # Errors
    ///
    /// Propagates [`SchedError::ShapeMismatch`] for inconsistent shapes.
    pub fn evaluate(
        &self,
        mapping: &Mapping,
        scaling: &ScalingVector,
    ) -> Result<MappingEvaluation, SchedError> {
        let schedule = self.schedule(mapping, scaling)?;
        Ok(self.evaluate_scheduled(mapping, scaling, &schedule))
    }

    /// Evaluates with a pre-computed schedule (avoids re-scheduling when the
    /// caller needs both the timeline and the metrics).
    #[must_use]
    pub fn evaluate_scheduled(
        &self,
        mapping: &Mapping,
        scaling: &ScalingVector,
        schedule: &Schedule,
    ) -> MappingEvaluation {
        let tm = schedule.makespan_s();
        let registers = self.app.registers();

        let mut per_core = Vec::with_capacity(self.arch.n_cores());
        let mut activities = Vec::with_capacity(self.arch.n_cores());
        let mut gamma = 0.0f64;
        let mut r_total = Bits::ZERO;
        // Register unions (eq. 8) through one block mask, reset per core.
        let mut blocks = vec![false; registers.blocks().len()];

        for core in self.arch.cores() {
            let level = self.arch.operating_point(core, scaling);
            let busy = schedule.busy_s(core);
            blocks.fill(false);
            let r_bits = mapping
                .tasks_on_iter(core)
                .fold(Bits::ZERO, |r, t| r + registers.union_add(&mut blocks, t));
            let lambda = self.ser.lambda(level.vdd);
            let s = core_scalars(level, lambda, busy, tm, r_bits, self.exposure);
            gamma += s.gamma;
            r_total += r_bits;
            activities.push(CoreActivity {
                alpha: s.alpha,
                level,
            });
            per_core.push(CoreEval {
                core,
                coefficient: scaling.coefficient(core),
                f_hz: level.f_hz,
                vdd: level.vdd,
                busy_s: busy,
                alpha: s.alpha,
                r_bits,
                exposure_cycles: s.exposure_cycles,
                lambda: s.lambda,
                gamma: s.gamma,
            });
        }

        let power_mw = watts_to_mw(dynamic_power_w(self.arch.c_load_farads(), &activities));
        let nominal_f = self.arch.levels().level(1).f_hz;
        MappingEvaluation {
            tm_seconds: tm,
            tm_nominal_cycles: tm * nominal_f,
            meets_deadline: tm <= self.app.deadline_s(),
            power_mw,
            gamma,
            r_total,
            per_core,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_arch::LevelSet;
    use sea_taskgraph::graph::TaskGraphBuilder;
    use sea_taskgraph::registers::RegisterModelBuilder;
    use sea_taskgraph::units::Cycles;
    use sea_taskgraph::{ExecutionMode, TaskId};

    fn arch(n: usize) -> Architecture {
        Architecture::homogeneous(n, LevelSet::arm7_three_level())
    }

    /// Two independent 200e6-cycle tasks; each uses a private 1 kbit block
    /// and both share a 2 kbit block.
    fn app() -> Application {
        let mut b = TaskGraphBuilder::new("pair");
        let a = b.add_task("a", Cycles::new(200_000_000));
        let _ = b.add_task("b", Cycles::new(200_000_000));
        let c = b.add_task("c", Cycles::new(200_000_000));
        b.add_edge(a, c, Cycles::ZERO).unwrap();
        let g = b.build().unwrap();
        let mut rm = RegisterModelBuilder::new(3);
        for i in 0..3 {
            let blk = rm.add_block(format!("p{i}"), Bits::new(1000));
            rm.assign(TaskId::new(i), blk).unwrap();
        }
        rm.add_shared_block("sh", Bits::new(2000), &[TaskId::new(0), TaskId::new(1)])
            .unwrap();
        Application::new("pair", g, rm.build(), ExecutionMode::Batch, 10.0).unwrap()
    }

    #[test]
    fn gamma_matches_hand_computation() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 1, 2]], 2).unwrap();
        let s = ScalingVector::all_nominal(&arch);
        let e = ctx.evaluate(&m, &s).unwrap();
        // Serial at 200 MHz: TM = 3 s. Core 1 holds all blocks:
        // R1 = 3*1000 + 2000 = 5000 bit. Core 2 empty.
        assert!((e.tm_seconds - 3.0).abs() < 1e-9);
        assert_eq!(e.r_total, Bits::new(5000));
        let lambda = SerModel::default().lambda(arch.levels().level(1).vdd);
        let expected = 5000.0 * (3.0 * 200e6) * lambda;
        assert!(
            (e.gamma - expected).abs() / expected < 1e-12,
            "gamma {} vs {}",
            e.gamma,
            expected
        );
    }

    #[test]
    fn distributing_shared_block_raises_r() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let s = ScalingVector::all_nominal(&arch);
        let together = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let split = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let e1 = ctx.evaluate(&together, &s).unwrap();
        let e2 = ctx.evaluate(&split, &s).unwrap();
        // Together: {a,b} = 1000+1000+2000, {c} = 1000 -> 5000.
        // Split: {a,c} = 1000+1000+2000, {b} = 1000+2000 -> 7000.
        assert_eq!(e1.r_total, Bits::new(5000));
        assert_eq!(e2.r_total, Bits::new(7000));
    }

    #[test]
    fn lower_voltage_raises_gamma_at_fixed_mapping() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let e1 = ctx
            .evaluate(&m, &ScalingVector::all_nominal(&arch))
            .unwrap();
        let e2 = ctx.evaluate(&m, &ScalingVector::all_lowest(&arch)).unwrap();
        // s=3: cycles unchanged... but WholeRun exposure = TM * f. TM grows
        // 3x, f shrinks 3x -> exposure cycles unchanged; the rate factor
        // (~3.39 at 0.444 V) fully drives the increase.
        assert!(e2.gamma > 3.0 * e1.gamma);
        assert!(e2.gamma < 3.8 * e1.gamma);
    }

    #[test]
    fn power_drops_with_voltage_scaling() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let p1 = ctx
            .evaluate(&m, &ScalingVector::all_nominal(&arch))
            .unwrap()
            .power_mw;
        let p3 = ctx
            .evaluate(&m, &ScalingVector::all_lowest(&arch))
            .unwrap()
            .power_mw;
        assert!(p3 < p1, "lowest voltage must cut power: {p3} vs {p1}");
    }

    #[test]
    fn alpha_bounded_and_busy_consistent() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let s = ScalingVector::all_nominal(&arch);
        let e = ctx.evaluate(&m, &s).unwrap();
        for ce in &e.per_core {
            assert!((0.0..=1.0).contains(&ce.alpha));
            assert!(ce.busy_s <= e.tm_seconds + 1e-12);
        }
        // The bottleneck core defines TM here (no idle gaps on core 1).
        assert!((e.per_core[0].busy_s - e.tm_seconds).abs() < 1e-9);
    }

    #[test]
    fn busy_only_exposure_is_smaller() {
        let app = app();
        let arch = arch(2);
        let m = Mapping::from_groups(&[&[0, 2], &[1]], 2).unwrap();
        let s = ScalingVector::all_nominal(&arch);
        let whole = EvalContext::new(&app, &arch).evaluate(&m, &s).unwrap();
        let busy = EvalContext::new(&app, &arch)
            .with_exposure(ExposurePolicy::BusyOnly)
            .evaluate(&m, &s)
            .unwrap();
        assert!(busy.gamma < whole.gamma);
    }

    #[test]
    fn deadline_flag() {
        let app = app().with_deadline(0.5).unwrap();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let e = ctx
            .evaluate(&m, &ScalingVector::all_nominal(&arch))
            .unwrap();
        assert!(!e.meets_deadline);
    }

    #[test]
    fn tm_nominal_cycles_uses_level1() {
        let app = app();
        let arch = arch(2);
        let ctx = EvalContext::new(&app, &arch);
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let e = ctx
            .evaluate(&m, &ScalingVector::all_nominal(&arch))
            .unwrap();
        assert!((e.tm_nominal_cycles - e.tm_seconds * 200e6).abs() < 1.0);
    }

    #[test]
    fn custom_ser_scales_gamma_linearly() {
        let app = app();
        let arch = arch(2);
        let m = Mapping::from_groups(&[&[0, 1], &[2]], 2).unwrap();
        let s = ScalingVector::all_nominal(&arch);
        let base = EvalContext::new(&app, &arch).evaluate(&m, &s).unwrap();
        let tenfold = EvalContext::new(&app, &arch)
            .with_ser(SerModel::calibrated(1e-8))
            .evaluate(&m, &s)
            .unwrap();
        assert!((tenfold.gamma / base.gamma - 10.0).abs() < 1e-9);
    }
}
