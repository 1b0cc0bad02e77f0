//! The iterative design-optimization driver (Fig. 4).
//!
//! For each voltage-scaling combination of [`crate::scaling::ScalingIter`]
//! (step 1, power minimization), the driver runs the two-stage soft
//! error-aware task mapping (step 2: [`crate::initial`] then
//! [`crate::optimized`]) and assesses the resulting design (step 3). The
//! best feasible design under the configured [`SelectionPolicy`] wins.
//!
//! # Parallelism and determinism
//!
//! The scaling enumeration is embarrassingly parallel, so the driver
//! partitions it into fixed, index-based chunks of [`SCALING_CHUNK`]
//! combinations and fans the chunks out over up to
//! [`OptimizerConfig::jobs`] threads of the workspace's one pool,
//! [`sea_taskgraph::par`] (std-only; no external runtime), the calling
//! thread one of them. One job, or one chunk, runs inline on the calling
//! thread alone. Each chunk's result is
//! slotted by its position in the chunk list, so completion order never
//! shows. The partition is a function of the enumeration alone — never
//! of the job count — the per-scaling search seeds derive from the global
//! enumeration index, the continuation warm-start chain lives *within* a
//! chunk, and chunk results are merged back in enumeration order.
//! **Consequently [`DesignOptimizer::optimize`] returns a bitwise
//! identical [`OptimizationOutcome`] (best design, explored order,
//! evaluation counts) for every `jobs` value, including 1**; `jobs` trades
//! wall-clock time only. `tests/determinism.rs` pins this guarantee.
//!
//! One caveat: the guarantee covers evaluation-count budgets (the
//! default). A [`SearchBudget::time_limit`] ties each search to real
//! elapsed time, which no engine — sequential included — reproduces
//! exactly across runs, machines, or load levels; under a wall-clock cap
//! the job count additionally shifts where each search's limit lands.
//!
//! # Bound-and-prune
//!
//! A chunk whose every scaling has a [`tm_lower_bound`] beyond the
//! deadline holds no feasible design, so the driver skips it and records
//! placeholder outcomes (no design, zero evaluations). The skip set is a
//! function of the problem alone. Debug builds search the doomed chunks
//! anyway and assert that none of them holds a feasible design; release
//! builds rest on `tests/small_scope.rs`, which checks the bound against
//! every mapping of every small instance. When every chunk is doomed, the
//! driver searches them all to report the closest design's `TM`, the
//! same bits in both builds.

use std::num::NonZeroUsize;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use sea_arch::{Architecture, LevelSet, ScalingVector, SerModel};
use sea_sched::metrics::{EvalContext, ExposurePolicy, MappingEvaluation};
use sea_sched::{tm_lower_bound, IncrementalEvaluator, Mapping};
use sea_taskgraph::par::par;
use sea_taskgraph::Application;

use crate::clock::WallClock;
use crate::initial::initial_sea_mapping;
use crate::optimized::{better, optimized_mapping_scratch, SearchBudget};
use crate::scaling::ScalingIter;
use crate::OptError;

/// Scaling combinations per enumeration chunk. A chunk is the unit of
/// parallel work *and* the span of one continuation warm-start chain; the
/// value is a fixed property of the algorithm (never derived from the job
/// count) so that outcomes are identical for every `jobs` setting. Three
/// combinations per chunk keeps most of the warm-start benefit (two of
/// every three scalings start from a neighbouring winner) while leaving
/// enough chunks (5 for the paper's 15-combination four-core space, 10 for
/// the 4-level space) to keep a worker pool busy.
pub const SCALING_CHUNK: usize = 3;

/// Default worker count for [`OptimizerConfig::jobs`]: the `SEA_JOBS`
/// environment variable when set (parse failures fall back), else the
/// machine's available parallelism. Results do not depend on the value —
/// see the [module docs](self) — so the default favours speed.
#[must_use]
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var("SEA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// How the iterative assessment ranks feasible designs (the paper jointly
/// minimizes power and SEUs).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Minimize the product `P · Γ` — a scale-free, parameterless joint
    /// objective, the default. Pure min-power selection drives the flow to
    /// the deepest feasible scaling, where forced parallelism inflates both
    /// register usage and `Γ`; the product instead lands on Table II-shaped
    /// designs that pay a few percent of power for a large reliability
    /// gain (the paper's "small power cost", Fig. 10).
    #[default]
    PowerGammaProduct,
    /// Among feasible designs, power within `(1 + tolerance)` of the
    /// minimum competes on `Γ`; outside the band, lower power wins.
    PowerFirst {
        /// Relative power tolerance (e.g. `0.05` = 5 %).
        tolerance: f64,
    },
    /// Weighted sum of normalized power and `Γ` (ablation).
    Weighted {
        /// Weight on power (the `Γ` weight is `1 − w_power`).
        w_power: f64,
    },
    /// Minimize `Γ` outright; power only breaks ties (ablation).
    GammaFirst,
}

impl SelectionPolicy {
    /// Parses the keyword the CLI and the campaign grammar select a policy
    /// with: `product` (the default), `power` (power-first within a 5 %
    /// band) or `gamma`.
    ///
    /// # Errors
    ///
    /// Names the accepted keywords for anything else.
    pub fn from_keyword(s: &str) -> Result<Self, String> {
        match s {
            "product" => Ok(SelectionPolicy::PowerGammaProduct),
            "power" => Ok(SelectionPolicy::PowerFirst { tolerance: 0.05 }),
            "gamma" => Ok(SelectionPolicy::GammaFirst),
            other => Err(format!("unknown selection `{other}` (product|power|gamma)")),
        }
    }
}

/// Configuration of the full optimization flow.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Target architecture.
    pub arch: Architecture,
    /// SER model (paper-calibrated 10⁻⁹ by default).
    pub ser: SerModel,
    /// Register-exposure policy.
    pub exposure: ExposurePolicy,
    /// Per-scaling search budget.
    pub budget: SearchBudget,
    /// Selection policy of the iterative assessment.
    pub selection: SelectionPolicy,
    /// Seed for the search's perturbation RNG.
    pub seed: u64,
    /// Worker threads for the chunked scaling enumeration. Outcomes are
    /// bitwise identical for every value (see the [module docs](self));
    /// defaults to [`default_jobs`].
    pub jobs: usize,
    /// Cooperative cancellation flag. When set, the driver checks it
    /// between scaling chunks (the unit of parallel work) and aborts the
    /// run with [`OptError::Cancelled`] once it reads `true` — a doomed
    /// unit stops within one chunk instead of finishing the whole
    /// enumeration. `None` (the default) never cancels; the flag cannot
    /// change a completed run's outcome, only whether it completes.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl OptimizerConfig {
    /// Default configuration for `n_cores` ARM7 cores with the Table I
    /// three-level set, the SystemC-calibrated platform overhead
    /// (`sea_arch::mpsoc::ARM7_SYSTEMC_CPI_OVERHEAD`) and the thorough
    /// search budget. This is the configuration the experiment harnesses
    /// use.
    #[must_use]
    pub fn paper(n_cores: usize) -> Self {
        OptimizerConfig::paper_with_jobs(n_cores, default_jobs())
    }

    /// [`OptimizerConfig::paper`] on `jobs` worker threads (clamped to at
    /// least 1), without asking the host for its parallelism — a query
    /// that reads the cgroup quota files on Linux, and a waste for callers
    /// that pick the thread count themselves.
    #[must_use]
    pub fn paper_with_jobs(n_cores: usize, jobs: usize) -> Self {
        OptimizerConfig {
            arch: Architecture::arm7_calibrated(n_cores, LevelSet::arm7_three_level()),
            ser: SerModel::default(),
            exposure: ExposurePolicy::default(),
            budget: SearchBudget::thorough(),
            selection: SelectionPolicy::default(),
            seed: 0x5EA,
            jobs: jobs.max(1),
            cancel: None,
        }
    }

    /// Small search budget on the *ideal* (uncalibrated) timing model —
    /// suited to tests, examples and algorithm walkthroughs like Fig. 8,
    /// where the paper's platform overhead is not part of the exercise.
    #[must_use]
    pub fn fast(n_cores: usize) -> Self {
        OptimizerConfig {
            arch: Architecture::homogeneous(n_cores, LevelSet::arm7_three_level()),
            budget: SearchBudget::fast(),
            ..OptimizerConfig::paper(n_cores)
        }
    }

    /// Replaces the DVS level set (Fig. 11 studies 2/3/4 levels), keeping
    /// the architecture's core count and platform calibration.
    #[must_use]
    pub fn with_levels(mut self, levels: LevelSet) -> Self {
        let n = self.arch.n_cores();
        let overhead = self.arch.cpi_overhead();
        self.arch = Architecture::homogeneous(n, levels)
            .with_cpi_overhead(overhead)
            .expect("existing overhead is valid");
        self
    }

    /// Sets the worker-thread count (non-consuming builder).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Installs a cooperative cancellation flag (non-consuming builder).
    /// Setting the flag makes the run abort with [`OptError::Cancelled`]
    /// at the next chunk boundary.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }
}

/// One fully-specified design: scaling vector + mapping + its evaluation.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Per-core scaling coefficients.
    pub scaling: ScalingVector,
    /// Task mapping.
    pub mapping: Mapping,
    /// Analytic evaluation (TM, P, R, Γ).
    pub evaluation: MappingEvaluation,
}

/// Per-scaling record of the exploration.
#[derive(Debug, Clone)]
pub struct ScalingOutcome {
    /// The scaling combination explored.
    pub scaling: ScalingVector,
    /// Best design found for this scaling. `None` when the scaling was
    /// pruned: [`tm_lower_bound`] proved no mapping can meet the
    /// deadline, so no search ran and no design exists to record.
    pub best: Option<DesignPoint>,
    /// Whether that design meets the deadline (always `false` for
    /// pruned scalings — that is exactly what the bound proved).
    pub feasible: bool,
    /// Evaluations spent on this scaling (0 for pruned scalings).
    pub evaluations: usize,
}

/// Result of the full optimization.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// The winning design.
    pub best: DesignPoint,
    /// Every scaling combination explored, in `nextScaling` order.
    pub explored: Vec<ScalingOutcome>,
    /// Total candidate evaluations.
    pub total_evaluations: usize,
}

impl OptimizationOutcome {
    /// The exploration record for one specific scaling vector, if that
    /// combination was explored. Used for matched-scaling comparisons
    /// against other flows (Figs. 9 and 10).
    #[must_use]
    pub fn at_scaling(&self, scaling: &ScalingVector) -> Option<&ScalingOutcome> {
        self.explored.iter().find(|o| &o.scaling == scaling)
    }

    /// Scalings skipped because [`tm_lower_bound`] proved them
    /// infeasible for every mapping (observability; derived from the
    /// exploration records, so it costs nothing in the encoding).
    #[must_use]
    pub fn scalings_pruned(&self) -> usize {
        self.explored.iter().filter(|o| o.best.is_none()).count()
    }

    /// Scalings actually searched.
    #[must_use]
    pub fn scalings_searched(&self) -> usize {
        self.explored.len() - self.scalings_pruned()
    }
}

/// Everything one chunk of the enumeration reports back to the merger.
struct ChunkOutcome {
    outcomes: Vec<ScalingOutcome>,
    /// Warm-start comparison evaluations, charged to the run total but not
    /// to any single scaling (mirroring the sequential accounting).
    extra_evaluations: usize,
}

/// The proposed soft error-aware design optimizer (paper Fig. 4).
#[derive(Debug, Clone)]
pub struct DesignOptimizer {
    config: OptimizerConfig,
}

impl DesignOptimizer {
    /// Creates an optimizer from a configuration.
    #[must_use]
    pub fn new(config: OptimizerConfig) -> Self {
        DesignOptimizer { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Runs the full flow on `app`, fanning the scaling enumeration out
    /// over [`OptimizerConfig::jobs`] worker threads. The outcome is
    /// bitwise identical for every `jobs` value (see the
    /// [module docs](self) for the chunking scheme behind the guarantee).
    /// Every chunk, on every worker, schedules from the application's one
    /// graph view ([`Application::soa`]), so units that share an
    /// `Arc<Application>` share its graph traversals (bottom levels, static
    /// schedule order). At one job the whole flow runs on the calling
    /// thread, spawning nothing.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::TooFewTasks`] when the application cannot occupy
    /// every core and [`OptError::Infeasible`] when no explored design meets
    /// the real-time constraint.
    pub fn optimize(&self, app: &Application) -> Result<OptimizationOutcome, OptError> {
        let arch = &self.config.arch;
        // Every chunk would report this, after the enumeration below has
        // built C(L+C-1, C) scaling vectors for C cores and L levels.
        if app.graph().len() < arch.n_cores() {
            return Err(OptError::TooFewTasks {
                tasks: app.graph().len(),
                cores: arch.n_cores(),
            });
        }
        let scalings = ScalingIter::for_architecture(arch)
            .map(|raw| ScalingVector::try_new(raw, arch))
            .collect::<Result<Vec<_>, _>>()?;
        let n_chunks = scalings.len().div_ceil(SCALING_CHUNK);

        // Bound-and-prune: a chunk whose every scaling has a
        // mapping-independent TM lower bound beyond the deadline cannot
        // contribute a feasible design, and — because warm-start chains
        // are confined to chunks — skipping it cannot perturb any other
        // chunk's search. The skip set depends only on the problem
        // (never on the job count or the build), so debug and release
        // runs stay bitwise identical.
        let deadline = app.deadline_s();
        let doomed = chunk_doomed(app, arch, &scalings);
        let live: Vec<usize> = (0..n_chunks).filter(|&k| !doomed[k]).collect();
        let dead: Vec<usize> = (0..n_chunks).filter(|&k| doomed[k]).collect();

        let live_results = self.explore_chunks(app, &scalings, &live);

        // Debug builds search the doomed chunks anyway and let the merge
        // below assert that none of them holds a feasible design.
        let verify = cfg!(debug_assertions);
        let mut dead_results: Option<Vec<Result<ChunkOutcome, OptError>>> =
            if verify && !dead.is_empty() {
                Some(self.explore_chunks(app, &scalings, &dead))
            } else {
                None
            };

        // Merge in enumeration order; the fold below then reproduces the
        // sequential selection exactly. Pruned chunks contribute
        // placeholder records (no design, zero evaluations) in *both*
        // builds; debug verification results are checked and discarded.
        let mut explored = Vec::with_capacity(scalings.len());
        let mut total_evaluations = 0usize;
        let mut doomed_designs: Vec<DesignPoint> = Vec::new();
        let mut live_iter = live_results.into_iter();
        let mut dead_iter = dead_results.take().map(Vec::into_iter);
        for (k, &chunk_doomed) in doomed.iter().enumerate() {
            if chunk_doomed {
                if let Some(iter) = dead_iter.as_mut() {
                    let chunk = iter.next().expect("one result per doomed chunk")?;
                    check_doomed_chunk(&chunk, deadline);
                    doomed_designs.extend(chunk.outcomes.into_iter().filter_map(|o| o.best));
                }
                explored.extend(
                    scalings
                        .iter()
                        .enumerate()
                        .skip(k * SCALING_CHUNK)
                        .take(SCALING_CHUNK)
                        .map(|(_, s)| ScalingOutcome {
                            scaling: s.clone(),
                            best: None,
                            feasible: false,
                            evaluations: 0,
                        }),
                );
            } else {
                let chunk = live_iter.next().expect("one result per live chunk")?;
                total_evaluations += chunk.extra_evaluations;
                explored.extend(chunk.outcomes);
            }
        }

        let mut best: Option<DesignPoint> = None;
        let mut best_tm = f64::INFINITY;
        for outcome in &explored {
            total_evaluations += outcome.evaluations;
            let Some(point) = outcome.best.as_ref() else {
                continue; // pruned — provably infeasible, nothing to rank
            };
            best_tm = best_tm.min(point.evaluation.tm_seconds);
            if outcome.feasible {
                let replace = match &best {
                    None => true,
                    Some(incumbent) => self.prefer(point, incumbent),
                };
                if replace {
                    best = Some(point.clone());
                }
            }
        }

        match best {
            Some(best) => Ok(OptimizationOutcome {
                best,
                explored,
                total_evaluations,
            }),
            None => {
                // The closest-design diagnostic quantifies over the
                // *whole* enumeration. Runs that skipped doomed chunks
                // search them now (debug runs already did); the rerun is
                // chunk-local and globally seeded, so the reported TM is
                // byte-exact across builds.
                if doomed_designs.is_empty() && !dead.is_empty() {
                    for result in self.explore_chunks(app, &scalings, &dead) {
                        let chunk = result?;
                        check_doomed_chunk(&chunk, deadline);
                        doomed_designs.extend(chunk.outcomes.into_iter().filter_map(|o| o.best));
                    }
                }
                for point in &doomed_designs {
                    best_tm = best_tm.min(point.evaluation.tm_seconds);
                }
                Err(OptError::Infeasible {
                    best_tm_seconds: best_tm,
                    deadline_s: deadline,
                })
            }
        }
    }

    /// Runs `chunks` (a list of chunk indices) on up to
    /// [`OptimizerConfig::jobs`] threads and returns one result per entry,
    /// in list order whatever the completion order.
    fn explore_chunks(
        &self,
        app: &Application,
        scalings: &[ScalingVector],
        chunks: &[usize],
    ) -> Vec<Result<ChunkOutcome, OptError>> {
        let mut slots: Vec<Option<Result<ChunkOutcome, OptError>>> =
            chunks.iter().map(|_| None).collect();
        let order: Vec<usize> = (0..chunks.len()).collect();
        par(
            self.config.jobs,
            &order,
            |slot| self.explore_chunk(app, scalings, chunks[slot]),
            |slot, result| {
                slots[slot] = Some(result);
                ControlFlow::Continue(())
            },
        );
        slots
            .into_iter()
            .map(|slot| slot.expect("every chunk reports exactly once"))
            .collect()
    }

    /// Explores chunk `chunk_index` of the enumeration sequentially with
    /// one delta-based [`IncrementalEvaluator`]. The continuation warm
    /// start — the Γ
    /// landscape changes smoothly between neighbouring scalings, so each
    /// search also considers the previous scaling's winner and starts from
    /// whichever of {greedy SEA seed, previous winner} scores better —
    /// chains *within* the chunk only, which is what keeps chunks
    /// independent and the overall outcome job-count-invariant.
    fn explore_chunk(
        &self,
        app: &Application,
        scalings: &[ScalingVector],
        chunk_index: usize,
    ) -> Result<ChunkOutcome, OptError> {
        // Cooperative cancellation: one cheap check per chunk, the unit
        // of parallel work, so cancelled runs stop within ~one chunk's
        // worth of search on every worker.
        if let Some(cancel) = &self.config.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Err(OptError::Cancelled);
            }
        }
        let ctx = EvalContext::new(app, &self.config.arch)
            .with_ser(self.config.ser)
            .with_exposure(self.config.exposure);
        let mut ev = IncrementalEvaluator::new(ctx);
        let mut warm: Option<Mapping> = None;
        let mut outcomes = Vec::with_capacity(SCALING_CHUNK);
        let mut extra_evaluations = 0usize;

        for (i, scaling) in scalings
            .iter()
            .enumerate()
            .skip(chunk_index * SCALING_CHUNK)
            .take(SCALING_CHUNK)
        {
            let mut start = initial_sea_mapping(ev.ctx(), scaling)?;
            if let Some(w) = warm.take() {
                let warm_summary = ev.ctx().evaluate(&w, scaling)?.summary();
                let init_summary = ev.ctx().evaluate(&start, scaling)?.summary();
                // The losing start's evaluation is charged here; the
                // winner's is charged inside the search.
                extra_evaluations += 1;
                if better(&warm_summary, &init_summary) {
                    start = w;
                }
            }
            let out = optimized_mapping_scratch(
                &mut ev,
                scaling,
                start,
                self.config.budget,
                // Decorrelate the perturbation streams across scalings;
                // the seed depends on the global enumeration index only.
                self.config.seed.wrapping_add(i as u64),
                &WallClock::start(),
            )?;
            warm = Some(out.mapping.clone());
            let feasible = out.feasible;
            outcomes.push(ScalingOutcome {
                scaling: scaling.clone(),
                best: Some(DesignPoint {
                    scaling: scaling.clone(),
                    mapping: out.mapping,
                    evaluation: out.evaluation,
                }),
                feasible,
                evaluations: out.evaluations,
            });
        }
        Ok(ChunkOutcome {
            outcomes,
            extra_evaluations,
        })
    }

    /// The number of scalings this optimizer would actually search for
    /// `app` — the enumeration size minus the scalings in pruned chunks.
    /// The basis of the campaign/dist per-unit cost model (expected work
    /// ≈ surviving scalings × per-scaling budget); completion-order
    /// scheduling built on it never changes any report, so an estimate
    /// is all that is needed.
    #[must_use]
    pub fn surviving_scalings(&self, app: &Application) -> usize {
        let arch = &self.config.arch;
        let Ok(scalings) = ScalingIter::for_architecture(arch)
            .map(|raw| ScalingVector::try_new(raw, arch))
            .collect::<Result<Vec<_>, _>>()
        else {
            return 0;
        };
        let doomed = chunk_doomed(app, arch, &scalings);
        scalings
            .iter()
            .enumerate()
            .filter(|(i, _)| !doomed[i / SCALING_CHUNK])
            .count()
    }

    /// True if `candidate` should replace `incumbent` under the selection
    /// policy (both are feasible).
    fn prefer(&self, candidate: &DesignPoint, incumbent: &DesignPoint) -> bool {
        let (cp, cg) = (candidate.evaluation.power_mw, candidate.evaluation.gamma);
        let (ip, ig) = (incumbent.evaluation.power_mw, incumbent.evaluation.gamma);
        match self.config.selection {
            SelectionPolicy::PowerGammaProduct => {
                let cand = cp * cg;
                let inc = ip * ig;
                cand < inc || (cand == inc && cp < ip)
            }
            SelectionPolicy::PowerFirst { tolerance } => {
                let band = 1.0 + tolerance.max(0.0);
                if cp <= ip * band && ip <= cp * band {
                    // Comparable power: lower Γ wins.
                    cg < ig || (cg == ig && cp < ip)
                } else {
                    cp < ip
                }
            }
            SelectionPolicy::Weighted { w_power } => {
                let w = w_power.clamp(0.0, 1.0);
                // Normalize by the incumbent so the scale is dimensionless.
                let cand = w * cp / ip + (1.0 - w) * cg / ig;
                cand < 1.0
            }
            SelectionPolicy::GammaFirst => cg < ig || (cg == ig && cp < ip),
        }
    }
}

/// Per-chunk doom flags: chunk `k` is doomed when **every** scaling in
/// it has a [`tm_lower_bound`] beyond the deadline, i.e. provably no
/// mapping at any of its scalings meets the constraint. A pure function
/// of the problem, so debug and release builds skip the same chunks.
fn chunk_doomed(app: &Application, arch: &Architecture, scalings: &[ScalingVector]) -> Vec<bool> {
    let deadline = app.deadline_s();
    scalings
        .chunks(SCALING_CHUNK)
        .map(|chunk| {
            chunk
                .iter()
                .all(|s| tm_lower_bound(app, arch, s) > deadline)
        })
        .collect()
}

/// Verification backstop for a searched doomed chunk: the bound claimed
/// no feasible design exists, so finding one means the bound (or the
/// scheduler) is broken — fail loudly rather than silently returning a
/// worse design than an unpruned run would.
fn check_doomed_chunk(chunk: &ChunkOutcome, deadline_s: f64) {
    for o in &chunk.outcomes {
        assert!(
            !o.feasible,
            "TM lower bound is unsound: scaling {} was pruned but a mapping \
             meets the {deadline_s} s deadline",
            o.scaling
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_taskgraph::{fig8, mpeg2, TaskId};

    #[test]
    fn mpeg2_four_core_optimization_succeeds() {
        let app = mpeg2::application();
        let out = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        assert!(out.best.evaluation.meets_deadline);
        assert_eq!(out.explored.len(), 15, "Fig. 5(b): 15 combinations");
        assert!(out.best.mapping.uses_all_cores());
        assert!(out.total_evaluations > 0);
    }

    #[test]
    fn optimizer_scales_down_voltage_when_deadline_allows() {
        let app = mpeg2::application();
        let out = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        // The nominal all-(1,1,1,1) design burns the most power; the
        // optimizer must find something strictly cheaper that still meets
        // the 14.58 s deadline.
        let nominal = out
            .explored
            .iter()
            .find(|o| o.scaling.coefficients() == [1, 1, 1, 1])
            .and_then(|o| o.best.as_ref())
            .expect("nominal scaling explored");
        assert!(out.best.evaluation.power_mw < nominal.evaluation.power_mw);
        assert_ne!(out.best.scaling.coefficients(), [1, 1, 1, 1]);
    }

    #[test]
    fn too_few_tasks_is_refused_before_the_scaling_enumeration() {
        // 1,000 cores at 4 levels have C(1003, 3) = 167,668,501 scaling
        // vectors; none is built.
        let config = OptimizerConfig::fast(1000).with_levels(LevelSet::arm7_four_level());
        let err = DesignOptimizer::new(config)
            .optimize(&mpeg2::application())
            .unwrap_err();
        assert_eq!(
            err,
            OptError::TooFewTasks {
                tasks: 11,
                cores: 1000
            }
        );
    }

    #[test]
    fn infeasible_deadline_reported() {
        let app = mpeg2::application().with_deadline(0.5).unwrap();
        let err = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap_err();
        assert!(matches!(err, OptError::Infeasible { .. }));
    }

    #[test]
    fn fig8_three_core_flow_runs() {
        let app = fig8::application();
        let result = DesignOptimizer::new(OptimizerConfig::fast(3)).optimize(&app);
        // Under our Fig. 8 reconstruction the 75 ms deadline may or may not
        // admit a design; both outcomes are legitimate, crashing is not.
        match result {
            Ok(out) => assert!(out.best.evaluation.meets_deadline),
            Err(OptError::Infeasible {
                best_tm_seconds, ..
            }) => {
                assert!(best_tm_seconds > 0.075);
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn gamma_first_selection_trades_power_for_reliability() {
        let app = mpeg2::application();
        let power_first = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        let mut cfg = OptimizerConfig::fast(4);
        cfg.selection = SelectionPolicy::GammaFirst;
        let gamma_first = DesignOptimizer::new(cfg).optimize(&app).unwrap();
        assert!(gamma_first.best.evaluation.gamma <= power_first.best.evaluation.gamma);
        assert!(gamma_first.best.evaluation.power_mw >= power_first.best.evaluation.power_mw);
    }

    #[test]
    fn deterministic_outcome() {
        let app = mpeg2::application();
        let a = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        let b = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        assert_eq!(a.best.mapping, b.best.mapping);
        assert_eq!(a.best.scaling, b.best.scaling);
    }

    #[test]
    fn jobs_do_not_change_the_outcome() {
        let app = mpeg2::application();
        let run = |jobs: usize| {
            DesignOptimizer::new(OptimizerConfig::fast(4).with_jobs(jobs))
                .optimize(&app)
                .unwrap()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.best.mapping, par.best.mapping);
        assert_eq!(seq.best.scaling, par.best.scaling);
        assert_eq!(seq.best.evaluation, par.best.evaluation);
        assert_eq!(seq.total_evaluations, par.total_evaluations);
    }

    #[test]
    fn cancel_flag_aborts_between_chunks() {
        let app = mpeg2::application();
        let flag = Arc::new(AtomicBool::new(true));
        let err = DesignOptimizer::new(OptimizerConfig::fast(4).with_cancel(flag))
            .optimize(&app)
            .unwrap_err();
        assert_eq!(err, OptError::Cancelled);
        // An installed-but-unset flag changes nothing.
        let out = DesignOptimizer::new(
            OptimizerConfig::fast(4).with_cancel(Arc::new(AtomicBool::new(false))),
        )
        .optimize(&app)
        .unwrap();
        let baseline = DesignOptimizer::new(OptimizerConfig::fast(4))
            .optimize(&app)
            .unwrap();
        assert_eq!(out.best.mapping, baseline.best.mapping);
        assert_eq!(out.total_evaluations, baseline.total_evaluations);
    }

    /// Paper-calibrated architecture, fast budget, deadline tightened so
    /// the slowest chunk(s) are provably doomed while the problem stays
    /// feasible — the configuration where pruning actually fires.
    fn tight_config() -> (sea_taskgraph::Application, OptimizerConfig) {
        let app = mpeg2::application();
        let app = app.with_deadline(app.deadline_s() * 0.5).unwrap();
        let mut cfg = OptimizerConfig::paper(4);
        cfg.budget = SearchBudget::fast();
        cfg.jobs = 1;
        (app, cfg)
    }

    #[test]
    fn pruned_chunks_leave_placeholder_outcomes() {
        let (app, cfg) = tight_config();
        let out = DesignOptimizer::new(cfg).optimize(&app).unwrap();
        // The all-slowest chunk is doomed at half the mpeg2 deadline
        // (pinned by the bound; a change here means the timing model or
        // the chunk size moved).
        assert_eq!(out.scalings_pruned(), SCALING_CHUNK);
        assert_eq!(out.scalings_searched(), 15 - SCALING_CHUNK);
        for o in &out.explored[..SCALING_CHUNK] {
            assert!(o.best.is_none());
            assert!(!o.feasible);
            assert_eq!(o.evaluations, 0);
        }
        for o in &out.explored[SCALING_CHUNK..] {
            assert!(o.best.is_some());
        }
        assert!(out.best.evaluation.meets_deadline);
    }

    /// The tight configuration's outcome, captured from a run that
    /// searched the doomed chunk instead of skipping it: pruning changes
    /// nothing but the placeholders. Debug builds still search the chunk
    /// (and assert it infeasible); release builds skip it.
    #[test]
    fn pruned_runs_match_the_searched_outcome() {
        const EXPLORED: [([u8; 4], bool, usize); 15] = [
            ([3, 3, 3, 3], false, 0),
            ([3, 3, 3, 2], false, 0),
            ([3, 3, 3, 1], false, 0),
            ([3, 3, 2, 2], false, 1935),
            ([3, 3, 2, 1], false, 1932),
            ([3, 3, 1, 1], false, 1935),
            ([3, 2, 2, 2], false, 1932),
            ([3, 2, 2, 1], false, 1935),
            ([3, 2, 1, 1], false, 1926),
            ([3, 1, 1, 1], true, 1935),
            ([2, 2, 2, 2], false, 1926),
            ([2, 2, 2, 1], false, 1926),
            ([2, 2, 1, 1], true, 1926),
            ([2, 1, 1, 1], true, 1935),
            ([1, 1, 1, 1], true, 1926),
        ];
        let (app, cfg) = tight_config();
        let out = DesignOptimizer::new(cfg).optimize(&app).unwrap();
        let best = &out.best;
        let cores: Vec<usize> = (0..best.mapping.n_tasks())
            .map(|t| best.mapping.core_of(TaskId::new(t)).index())
            .collect();
        assert_eq!(cores, [2, 2, 2, 2, 3, 3, 3, 0, 1, 1, 1]);
        assert_eq!(best.scaling.coefficients(), [2, 1, 1, 1]);
        let e = &best.evaluation;
        assert_eq!(
            [e.tm_seconds, e.gamma, e.power_mw].map(f64::to_bits),
            [
                0x401b_5254_f28d_ef70,
                0x4100_d8c2_3517_98b6,
                0x403c_89a9_aaa5_6bbd
            ]
        );
        assert_eq!(out.total_evaluations, 23_177);
        assert_eq!(out.explored.len(), EXPLORED.len());
        for (o, (scaling, feasible, evaluations)) in out.explored.iter().zip(EXPLORED) {
            assert_eq!(o.scaling.coefficients(), scaling);
            assert_eq!(o.feasible, feasible, "{scaling:?}");
            assert_eq!(o.evaluations, evaluations, "{scaling:?}");
            assert_eq!(o.best.is_some(), evaluations > 0, "{scaling:?}");
        }
    }

    #[test]
    fn jobs_do_not_change_the_outcome_under_pruning() {
        let (app, cfg) = tight_config();
        let run = |jobs: usize| {
            DesignOptimizer::new(cfg.clone().with_jobs(jobs))
                .optimize(&app)
                .unwrap()
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.best.mapping, par.best.mapping);
        assert_eq!(seq.best.scaling, par.best.scaling);
        assert_eq!(seq.total_evaluations, par.total_evaluations);
        assert_eq!(seq.scalings_pruned(), par.scalings_pruned());
    }

    #[test]
    fn infeasible_diagnostic_matches_the_searched_bits() {
        // 0.2 × deadline dooms every chunk. Debug builds search them while
        // verifying, release builds in the fallback rerun; both must report
        // the closest design's TM captured from a run that searched every
        // chunk, bit for bit.
        let (app, cfg) = tight_config();
        let app = app.with_deadline(app.deadline_s() * 0.4).unwrap();
        match DesignOptimizer::new(cfg).optimize(&app).unwrap_err() {
            OptError::Infeasible {
                best_tm_seconds,
                deadline_s,
            } => {
                assert_eq!(best_tm_seconds.to_bits(), 0x4015_3f88_5358_3dfa);
                assert_eq!(deadline_s.to_bits(), 0x4007_547a_a94c_ca9e);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn surviving_scalings_matches_exploration() {
        let (app, cfg) = tight_config();
        let optimizer = DesignOptimizer::new(cfg);
        let out = optimizer.optimize(&app).unwrap();
        assert_eq!(optimizer.surviving_scalings(&app), out.scalings_searched());
        // Loose deadlines: nothing survives pruning's scrutiny... i.e.
        // everything survives — the bound cannot fire.
        let loose = mpeg2::application();
        assert_eq!(optimizer.surviving_scalings(&loose), 15);
    }

    #[test]
    fn four_level_set_explores_more_combinations() {
        let app = mpeg2::application();
        let cfg = OptimizerConfig::fast(4).with_levels(LevelSet::arm7_four_level());
        let out = DesignOptimizer::new(cfg).optimize(&app).unwrap();
        // C(4+4-1, 4) = 35 combinations for 4 cores, 4 levels.
        assert_eq!(out.explored.len(), 35);
    }
}
