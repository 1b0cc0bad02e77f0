//! The unit model: one scenario grid point, executable in isolation.
//!
//! A campaign expands to a flat list of [`Unit`]s. Each unit is a *pure
//! function of its own fields* — it carries its application, architecture
//! shape, budget, seed and job kind, and [`run_unit`] never consults
//! global state — which is what lets the pool in [`crate::pool`] execute
//! units in any order on any number of workers while the campaign's final
//! report stays bitwise identical.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

use sea_arch::{Architecture, LevelSet, ScalingVector, SerModel};
use sea_baselines::{BaselineOptimizer, Objective};
use sea_opt::{
    DesignOptimizer, OptError, OptimizationOutcome, OptimizerConfig, SearchBudget, SelectionPolicy,
};
use sea_sched::metrics::EvalContext;
use sea_sched::Mapping;
use sea_sim::{simulate_design, SimConfig, SimSummary};
use sea_taskgraph::{AppSpec, Application, SpecError, TaskGraphSoa};

use crate::CampaignError;

/// Named search-budget presets shared by the CLI, the campaign grammar and
/// the experiment harnesses (`sea-experiments` maps its `EffortProfile`
/// onto these).
///
/// Keyword caveat: `paper` here is the experiment harnesses' 20 000
/// evaluation EXPERIMENTS.md profile; the `sea-dse optimize --budget
/// paper` flag predates this enum and means [`SearchBudget::thorough`]
/// (60 000) — campaign users wanting that budget say `thorough`. The CLI
/// usage text spells the mapping out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSpec {
    /// [`SearchBudget::fast`] — tests, examples, quick looks.
    #[default]
    Fast,
    /// The experiment harnesses' smoke budget (600 evaluations).
    Smoke,
    /// The experiment harnesses' EXPERIMENTS.md budget (20 000
    /// evaluations).
    Paper,
    /// [`SearchBudget::thorough`] — the CLI's `--budget paper`.
    Thorough,
}

impl BudgetSpec {
    /// The concrete per-scaling search budget.
    #[must_use]
    pub fn to_budget(self) -> SearchBudget {
        match self {
            BudgetSpec::Fast => SearchBudget::fast(),
            BudgetSpec::Smoke => SearchBudget {
                max_evaluations: 600,
                max_stale_sweeps: 4,
                time_limit: None,
            },
            BudgetSpec::Paper => SearchBudget {
                max_evaluations: 20_000,
                max_stale_sweeps: 4,
                time_limit: None,
            },
            BudgetSpec::Thorough => SearchBudget::thorough(),
        }
    }

    /// Parses a budget keyword.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted keywords for anything else.
    pub fn parse(s: &str) -> Result<Self, CampaignError> {
        match s {
            "fast" => Ok(BudgetSpec::Fast),
            "smoke" => Ok(BudgetSpec::Smoke),
            "paper" => Ok(BudgetSpec::Paper),
            "thorough" => Ok(BudgetSpec::Thorough),
            other => Err(CampaignError::Spec(format!(
                "unknown budget `{other}` (fast|smoke|paper|thorough)"
            ))),
        }
    }

    /// The keyword form accepted by [`BudgetSpec::parse`].
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            BudgetSpec::Fast => "fast",
            BudgetSpec::Smoke => "smoke",
            BudgetSpec::Paper => "paper",
            BudgetSpec::Thorough => "thorough",
        }
    }
}

/// Builds the DVS [`LevelSet`] for a validated level count (2..=4).
///
/// # Panics
///
/// Panics on level counts outside 2..=4 (validated at parse time).
#[must_use]
pub fn level_set(levels: usize) -> LevelSet {
    match levels {
        2 => LevelSet::arm7_two_level(),
        3 => LevelSet::arm7_three_level(),
        4 => LevelSet::arm7_four_level(),
        _ => unreachable!("level counts are validated to 2..=4 at parse time"),
    }
}

/// The workload of a unit: either a textual [`AppSpec`] (campaign files)
/// or a pre-built application (experiment harnesses that construct
/// workloads programmatically, e.g. with modified deadlines).
#[derive(Debug, Clone)]
pub enum AppRef {
    /// Built on demand from the shared spec grammar.
    Spec(AppSpec),
    /// A spec-built workload with its deadline multiplied by a factor
    /// (the campaign grammar's `deadline_scale` key — tight-deadline
    /// studies without hand-written task graphs).
    Scaled {
        /// The base workload.
        spec: AppSpec,
        /// Deadline multiplier (validated positive at parse time).
        deadline_scale: f64,
    },
    /// Shared pre-built application.
    Inline(Arc<Application>),
}

impl AppRef {
    /// A display label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AppRef::Spec(s) => s.to_string(),
            AppRef::Scaled {
                spec,
                deadline_scale,
            } => format!("{spec}@d{deadline_scale}"),
            AppRef::Inline(app) => app.name().to_string(),
        }
    }

    /// Materializes the application.
    ///
    /// Spec-built applications are memoized process-wide by spec string, so
    /// every unit of a campaign grid sharing a workload receives the *same*
    /// `Arc<Application>`. Beyond skipping rebuilds, the stable pointer is
    /// what makes [`TaskGraphSoa::shared`]'s pointer-keyed cache effective
    /// across units: graph-derived arrays (bottom levels, static schedule
    /// order, CSR adjacency) are computed once per workload per process,
    /// not once per unit.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::build`] failures.
    pub fn build(&self) -> Result<Arc<Application>, CampaignError> {
        fn memoized(
            key: String,
            build: impl FnOnce() -> Result<Application, CampaignError>,
        ) -> Result<Arc<Application>, CampaignError> {
            static CACHE: OnceLock<Mutex<HashMap<String, Arc<Application>>>> = OnceLock::new();
            let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
            let mut cache = cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(app) = cache.get(&key) {
                return Ok(Arc::clone(app));
            }
            let app = Arc::new(build()?);
            cache.insert(key, Arc::clone(&app));
            Ok(app)
        }
        match self {
            AppRef::Spec(s) => memoized(s.to_string(), || s.build().map_err(CampaignError::App)),
            AppRef::Scaled {
                spec,
                deadline_scale,
            } => memoized(self.label(), || {
                let base = spec.build().map_err(CampaignError::App)?;
                base.with_deadline(base.deadline_s() * deadline_scale)
                    .map_err(|e| {
                        CampaignError::App(SpecError(format!(
                            "cannot scale `{spec}` deadline by {deadline_scale}: {e}"
                        )))
                    })
            }),
            AppRef::Inline(app) => Ok(Arc::clone(app)),
        }
    }
}

/// What a unit runs.
#[derive(Debug, Clone)]
pub enum UnitKind {
    /// The proposed soft error-aware optimization (Exp:4).
    Optimize,
    /// A soft error-unaware SA baseline (Exp:1–Exp:3).
    Baseline(Objective),
    /// A Fig. 3-style random-mapping sweep at uniform scaling.
    Sweep {
        /// Number of random mappings.
        count: usize,
        /// Uniform scaling coefficient.
        scale: u8,
    },
    /// Monte-Carlo fault injection of one explicit design point.
    Simulate {
        /// Per-core scaling coefficients.
        scaling: Vec<u8>,
        /// Per-core task groups (0-based task indices).
        groups: Vec<Vec<usize>>,
        /// Raw SER (λ_ref), SEU/bit/cycle.
        ser: f64,
    },
}

impl UnitKind {
    /// A short label for reports (`optimize`, `baseline:tm`, `sweep`,
    /// `simulate`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            UnitKind::Optimize => "optimize".into(),
            UnitKind::Baseline(o) => format!(
                "baseline:{}",
                match o {
                    Objective::RegisterUsage => "r",
                    Objective::Parallelism => "tm",
                    Objective::RegTimeProduct => "tmr",
                }
            ),
            UnitKind::Sweep { .. } => "sweep".into(),
            UnitKind::Simulate { .. } => "simulate".into(),
        }
    }
}

/// One executable grid point of a campaign.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Global enumeration index (also the default seed derivation input).
    pub index: usize,
    /// Owning scenario's label.
    pub scenario: String,
    /// What to run.
    pub kind: UnitKind,
    /// Workload.
    pub app: AppRef,
    /// Core count.
    pub cores: usize,
    /// DVS level count (2..=4).
    pub levels: usize,
    /// Search budget preset.
    pub budget: BudgetSpec,
    /// Selection policy of the iterative assessment.
    pub selection: SelectionPolicy,
    /// Search / injection seed.
    pub seed: u64,
}

impl Unit {
    /// The optimizer configuration this unit runs under: the
    /// paper-calibrated architecture at the unit's core count and level
    /// set. `jobs` is pinned to 1 — the campaign pool parallelizes
    /// *across* units, and `sea_opt`'s outcome is identical for every
    /// inner job count anyway.
    #[must_use]
    pub fn optimizer_config(&self) -> OptimizerConfig {
        let mut config = OptimizerConfig::paper(self.cores).with_levels(level_set(self.levels));
        config.budget = self.budget.to_budget();
        config.seed = self.seed;
        config.selection = self.selection;
        config.jobs = 1;
        config
    }

    /// The architecture the unit's evaluation-only kinds (sweep, simulate)
    /// run on.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        Architecture::arm7_calibrated(self.cores, level_set(self.levels))
    }

    /// Estimated work, in candidate evaluations — the dispatch cost
    /// model. Backends hand out expensive units first so the straggler
    /// that bounds the makespan starts as early as possible; since every
    /// result slots by enumeration index, the estimate (however rough)
    /// can never change a report, only wall-clock.
    ///
    /// Optimize units dominate real campaigns, and their work is the
    /// number of scalings the bound-and-prune driver will actually
    /// search times the per-scaling budget
    /// ([`DesignOptimizer::surviving_scalings`]). Baselines run one
    /// budget-bounded SA chain plus one cheap evaluation per scaling;
    /// sweeps evaluate `count` mappings; fault injection replays one
    /// schedule.
    #[must_use]
    pub fn cost_estimate(&self) -> u64 {
        let budget = self.budget.to_budget().max_evaluations as u64;
        match &self.kind {
            UnitKind::Optimize => {
                let Ok(app) = self.app.build() else {
                    // The build error resurfaces when the unit runs.
                    return budget;
                };
                let soa = TaskGraphSoa::shared(&app);
                let optimizer = DesignOptimizer::new(self.optimizer_config());
                (optimizer.surviving_scalings(&app, &soa) as u64).saturating_mul(budget)
            }
            UnitKind::Baseline(_) => budget,
            UnitKind::Sweep { count, .. } => *count as u64,
            UnitKind::Simulate { .. } => 1,
        }
    }
}

/// The kind-specific result of one unit.
#[derive(Debug, Clone)]
pub enum UnitPayload {
    /// A full optimization outcome (`optimize` and `baseline` units).
    Design(Box<OptimizationOutcome>),
    /// The unit's design space holds no deadline-meeting design.
    Infeasible {
        /// Tightest multiprocessor execution time found, seconds.
        best_tm_seconds: f64,
        /// The deadline that could not be met.
        deadline_s: f64,
    },
    /// The application cannot occupy every core of the allocation.
    TooFewTasks {
        /// Tasks available.
        tasks: usize,
        /// Cores to fill.
        cores: usize,
    },
    /// Random-mapping sweep points (`sweep` units).
    Sweep(Vec<sea_baselines::sweep::SweepPoint>),
    /// Fault-injection summary (`simulate` units): the counts and the
    /// analytic evaluation, without the trace and SEU event lists.
    Sim(Box<SimSummary>),
}

impl UnitPayload {
    /// The optimization outcome, when the unit produced one.
    #[must_use]
    pub fn outcome(&self) -> Option<&OptimizationOutcome> {
        match self {
            UnitPayload::Design(out) => Some(out),
            _ => None,
        }
    }

    /// Re-raises infeasibility outcomes as the [`OptError`] the direct
    /// optimizer calls would have returned — used by harnesses that treat
    /// an infeasible unit as a hard error (Table II) rather than an empty
    /// cell (Table III).
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] / [`OptError::TooFewTasks`] for the
    /// corresponding payloads.
    ///
    /// # Panics
    ///
    /// Panics on sweep/simulate payloads — those units never produce a
    /// design, so reaching here means the caller sliced its results out
    /// of step with its unit list, which must fail loudly rather than
    /// masquerade as infeasibility.
    pub fn require_design(&self) -> Result<&OptimizationOutcome, OptError> {
        match self {
            UnitPayload::Design(out) => Ok(out),
            UnitPayload::Infeasible {
                best_tm_seconds,
                deadline_s,
            } => Err(OptError::Infeasible {
                best_tm_seconds: *best_tm_seconds,
                deadline_s: *deadline_s,
            }),
            UnitPayload::TooFewTasks { tasks, cores } => Err(OptError::TooFewTasks {
                tasks: *tasks,
                cores: *cores,
            }),
            UnitPayload::Sweep(_) | UnitPayload::Sim(_) => {
                unreachable!(
                    "require_design called on a {} payload — the caller's result slice \
                     is misaligned with its unit list",
                    match self {
                        UnitPayload::Sweep(_) => "sweep",
                        _ => "simulate",
                    }
                )
            }
        }
    }
}

/// A completed unit: the executed unit, its rich payload and the flat
/// [`UnitRecord`] the sinks render.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// The unit that ran.
    pub unit: Unit,
    /// Kind-specific result data.
    pub payload: UnitPayload,
    /// Flat record for streaming sinks and final reports.
    pub record: UnitRecord,
}

impl UnitResult {
    /// A payload and record computed for any unit with `unit`'s
    /// [`crate::unit_hash`], as `unit`'s own result. Index and scenario
    /// are presentation, not content, so they are taken from `unit`: a
    /// cache entry may come from a campaign that placed the unit
    /// elsewhere, and a duplicate unit copies an earlier one's result.
    pub(crate) fn rebound(unit: &Unit, payload: UnitPayload, mut record: UnitRecord) -> Self {
        record.index = unit.index;
        record.scenario = unit.scenario.clone();
        UnitResult {
            unit: unit.clone(),
            payload,
            record,
        }
    }
}

/// The flat, sink-facing view of one unit result.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// Global enumeration index.
    pub index: usize,
    /// Owning scenario label.
    pub scenario: String,
    /// Kind label (`optimize`, `baseline:tmr`, …).
    pub kind: String,
    /// Workload label.
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// DVS level count.
    pub levels: usize,
    /// Seed the unit ran with.
    pub seed: u64,
    /// `ok`, `infeasible` or `too-few-tasks`.
    pub status: &'static str,
    /// Power of the winning design, mW (sweeps report the mean).
    pub power_mw: Option<f64>,
    /// Expected SEUs of the winning design (sweeps report the mean).
    pub gamma: Option<f64>,
    /// Execution time of the winning design, seconds (sweeps: mean).
    pub tm_seconds: Option<f64>,
    /// Register usage of the winning design, kbit/cycle (sweeps: mean).
    pub r_kbits: Option<f64>,
    /// Candidate evaluations spent (sweeps: mapping count; simulate:
    /// none).
    pub evaluations: Option<usize>,
    /// Winning scaling vector, when the unit selects one.
    pub scaling: Option<String>,
    /// Winning mapping, when the unit selects one.
    pub mapping: Option<String>,
    /// Monte-Carlo experienced SEU count (`simulate` units).
    pub experienced_seus: Option<u64>,
}

impl UnitRecord {
    fn empty(unit: &Unit, status: &'static str) -> Self {
        UnitRecord {
            index: unit.index,
            scenario: unit.scenario.clone(),
            kind: unit.kind.label(),
            app: unit.app.label(),
            cores: unit.cores,
            levels: unit.levels,
            seed: unit.seed,
            status,
            power_mw: None,
            gamma: None,
            tm_seconds: None,
            r_kbits: None,
            evaluations: None,
            scaling: None,
            mapping: None,
            experienced_seus: None,
        }
    }
}

fn design_record(unit: &Unit, out: &OptimizationOutcome) -> UnitRecord {
    let best = &out.best;
    UnitRecord {
        power_mw: Some(best.evaluation.power_mw),
        gamma: Some(best.evaluation.gamma),
        tm_seconds: Some(best.evaluation.tm_seconds),
        r_kbits: Some(best.evaluation.r_total_kbits()),
        evaluations: Some(out.total_evaluations),
        scaling: Some(best.scaling.to_string()),
        mapping: Some(best.mapping.to_string()),
        ..UnitRecord::empty(unit, "ok")
    }
}

/// Executes one unit on the calling thread.
///
/// # Errors
///
/// Hard errors (scheduling/architecture/spec failures) propagate and abort
/// the campaign; infeasibility is *not* an error — it lands in the payload
/// and record so a campaign over a grid with infeasible corners still
/// completes.
pub fn run_unit(unit: &Unit) -> Result<UnitResult, CampaignError> {
    run_unit_with_jobs(unit, 1)
}

/// [`run_unit`] with `inner_jobs` worker threads handed down to the
/// unit's own scaling enumeration. The pool uses this when a campaign
/// has fewer units than workers (leftover capacity would otherwise
/// idle); the outcome is identical for every value — `sea_opt`'s engine
/// is job-count-invariant — so this only trades wall-clock.
///
/// # Errors
///
/// As [`run_unit`].
pub fn run_unit_with_jobs(unit: &Unit, inner_jobs: usize) -> Result<UnitResult, CampaignError> {
    run_unit_cancellable(unit, inner_jobs, None)
}

/// [`run_unit_with_jobs`] with a cooperative cancellation flag threaded
/// into the unit's optimizer ([`OptimizerConfig::with_cancel`]). Setting
/// the flag makes in-progress optimize/baseline units abort at the next
/// scaling-chunk boundary with [`CampaignError::Opt`]`(`[`OptError::Cancelled`]`)`
/// instead of finishing — how the daemon's `Cancel` frames and a worker's
/// lost-coordinator path stop doomed work promptly. An unset flag changes
/// nothing: the produced result is bitwise identical to [`run_unit`]'s.
///
/// # Errors
///
/// As [`run_unit`], plus [`OptError::Cancelled`] when the flag fires.
pub fn run_unit_cancellable(
    unit: &Unit,
    inner_jobs: usize,
    cancel: Option<&Arc<AtomicBool>>,
) -> Result<UnitResult, CampaignError> {
    let app = unit.app.build()?;
    let with_cancel = |config: OptimizerConfig| match cancel {
        Some(flag) => config.with_cancel(Arc::clone(flag)),
        None => config,
    };
    let (payload, record) = match &unit.kind {
        UnitKind::Optimize => {
            let optimizer =
                DesignOptimizer::new(with_cancel(unit.optimizer_config().with_jobs(inner_jobs)));
            let result = if inner_jobs <= 1 {
                // Sequential units share the graph's structure-of-arrays
                // view across the whole campaign (memoized per
                // `Arc<Application>` identity, which `AppRef::build` keeps
                // stable per workload).
                let soa = TaskGraphSoa::shared(&app);
                optimizer.optimize_unit_with(&app, &soa)
            } else {
                optimizer.optimize(&app)
            };
            design_payload(unit, result)?
        }
        UnitKind::Baseline(objective) => {
            let optimizer =
                BaselineOptimizer::new(with_cancel(unit.optimizer_config()), *objective);
            design_payload(unit, optimizer.optimize(&app))?
        }
        UnitKind::Sweep { count, scale } => {
            let arch = unit.architecture();
            let ctx = EvalContext::new(&app, &arch);
            let scaling = ScalingVector::uniform(*scale, &arch).map_err(OptError::from)?;
            let points =
                sea_baselines::sweep::random_mapping_sweep(&ctx, &scaling, *count, unit.seed)?;
            let mean = |f: &dyn Fn(&sea_baselines::sweep::SweepPoint) -> f64| {
                if points.is_empty() {
                    None
                } else {
                    Some(points.iter().map(f).sum::<f64>() / points.len() as f64)
                }
            };
            let record = UnitRecord {
                power_mw: mean(&|p| p.evaluation.power_mw),
                gamma: mean(&|p| p.evaluation.gamma),
                tm_seconds: mean(&|p| p.evaluation.tm_seconds),
                r_kbits: mean(&|p| p.evaluation.r_total_kbits()),
                evaluations: Some(points.len()),
                scaling: Some(scaling.to_string()),
                ..UnitRecord::empty(unit, "ok")
            };
            (UnitPayload::Sweep(points), record)
        }
        UnitKind::Simulate {
            scaling,
            groups,
            ser,
        } => {
            let arch = unit.architecture();
            let group_refs: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            let mapping = Mapping::from_groups(&group_refs, unit.cores).map_err(OptError::from)?;
            let scaling = ScalingVector::try_new(scaling.clone(), &arch).map_err(OptError::from)?;
            let mut config = SimConfig::seeded(unit.seed);
            config.ser = SerModel::calibrated(*ser);
            let report = simulate_design(&app, &arch, &mapping, &scaling, &config)
                .map_err(CampaignError::Sim)?;
            let record = UnitRecord {
                power_mw: Some(report.analytic.power_mw),
                gamma: Some(report.analytic.gamma),
                tm_seconds: Some(report.analytic.tm_seconds),
                r_kbits: Some(report.analytic.r_total_kbits()),
                scaling: Some(scaling.to_string()),
                mapping: Some(mapping.to_string()),
                experienced_seus: Some(report.faults.total_experienced),
                ..UnitRecord::empty(unit, "ok")
            };
            // The event lists are dropped here, not sampled less: the SEU
            // events draw from the RNG stream of the later cores' counts,
            // so a smaller `max_detailed_events` would change those counts.
            (UnitPayload::Sim(Box::new(report.into_summary())), record)
        }
    };
    Ok(UnitResult {
        unit: unit.clone(),
        payload,
        record,
    })
}

/// Folds an optimizer result into a payload + record, downgrading
/// infeasibility to data.
fn design_payload(
    unit: &Unit,
    result: Result<OptimizationOutcome, OptError>,
) -> Result<(UnitPayload, UnitRecord), CampaignError> {
    match result {
        Ok(out) => {
            let record = design_record(unit, &out);
            Ok((UnitPayload::Design(Box::new(out)), record))
        }
        Err(OptError::Infeasible {
            best_tm_seconds,
            deadline_s,
        }) => Ok((
            UnitPayload::Infeasible {
                best_tm_seconds,
                deadline_s,
            },
            UnitRecord {
                tm_seconds: Some(best_tm_seconds),
                ..UnitRecord::empty(unit, "infeasible")
            },
        )),
        Err(OptError::TooFewTasks { tasks, cores }) => Ok((
            UnitPayload::TooFewTasks { tasks, cores },
            UnitRecord::empty(unit, "too-few-tasks"),
        )),
        Err(other) => Err(CampaignError::Opt(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimize_unit(app: AppSpec, cores: usize) -> Unit {
        Unit {
            index: 0,
            scenario: "test".into(),
            kind: UnitKind::Optimize,
            app: AppRef::Spec(app),
            cores,
            levels: 3,
            budget: BudgetSpec::Fast,
            selection: SelectionPolicy::default(),
            seed: 0x5EA,
        }
    }

    #[test]
    fn optimize_unit_matches_direct_driver_call() {
        let unit = optimize_unit(AppSpec::Mpeg2, 4);
        let via_unit = run_unit(&unit).unwrap();
        let direct = DesignOptimizer::new(unit.optimizer_config())
            .optimize(&AppSpec::Mpeg2.build().unwrap())
            .unwrap();
        let out = via_unit.payload.outcome().expect("feasible");
        assert_eq!(out.best.mapping, direct.best.mapping);
        assert_eq!(out.best.scaling, direct.best.scaling);
        assert_eq!(out.total_evaluations, direct.total_evaluations);
        assert_eq!(via_unit.record.status, "ok");
        assert_eq!(via_unit.record.evaluations, Some(direct.total_evaluations));
    }

    #[test]
    fn infeasible_units_become_records_not_errors() {
        let mut unit = optimize_unit(AppSpec::Fig8, 3);
        // fig8's 75 ms deadline is tight; force infeasibility via an
        // impossible allocation instead: 8 cores for 6 tasks.
        unit.cores = 8;
        let result = run_unit(&unit).unwrap();
        assert_eq!(result.record.status, "too-few-tasks");
        assert!(result.payload.require_design().is_err());
    }

    #[test]
    fn sweep_and_simulate_units_run() {
        let mut unit = optimize_unit(AppSpec::Mpeg2, 4);
        unit.kind = UnitKind::Sweep {
            count: 10,
            scale: 1,
        };
        let sweep = run_unit(&unit).unwrap();
        assert_eq!(sweep.record.evaluations, Some(10));
        assert!(sweep.record.gamma.unwrap() > 0.0);

        unit.kind = UnitKind::Simulate {
            scaling: vec![2, 2, 3, 2],
            groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
            ser: sea_arch::ser::PAPER_SER,
        };
        unit.seed = 13;
        let sim = run_unit(&unit).unwrap();
        assert!(sim.record.experienced_seus.unwrap() > 0);
        let UnitPayload::Sim(report) = &sim.payload else {
            panic!("simulate payload expected");
        };
        assert!(report.analytic.gamma > 0.0);
    }

    #[test]
    fn budget_keywords_round_trip() {
        for b in [
            BudgetSpec::Fast,
            BudgetSpec::Smoke,
            BudgetSpec::Paper,
            BudgetSpec::Thorough,
        ] {
            assert_eq!(BudgetSpec::parse(b.keyword()).unwrap(), b);
        }
        assert!(BudgetSpec::parse("leisurely").is_err());
    }
}
