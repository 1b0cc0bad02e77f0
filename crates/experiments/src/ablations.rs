//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These go beyond the paper's published artefacts:
//!
//! * [`exposure_ablation`] — WholeRun vs. BusyOnly register exposure
//!   (DESIGN.md §2.3): how much of Γ comes from idle-but-live registers.
//! * [`seed_ablation`] — the contribution of `InitialSEAMapping`: the
//!   Fig. 7 search started from the greedy soft error-aware seed vs. from
//!   a naive balanced seed, at equal budget.
//! * [`ser_sensitivity`] — Γ of a fixed design across raw SER values
//!   (expected: exactly linear, eq. 3).
//! * [`mc_validation`] — Monte-Carlo fault injection vs. the analytic Γ on
//!   the Table II designs.

use std::sync::Arc;

use sea_arch::{Architecture, CoreId, LevelSet, ScalingVector, SerModel};
use sea_campaign::{AppRef, BudgetSpec, CampaignError, Unit, UnitKind, UnitPayload, UnitResult};
use sea_opt::initial::initial_sea_mapping;
use sea_opt::optimized::optimized_mapping;
use sea_opt::{OptError, SearchBudget, SelectionPolicy};
use sea_sched::metrics::{EvalContext, ExposurePolicy};
use sea_sched::Mapping;
use sea_taskgraph::{mpeg2, Application};

use crate::report::{sci, Column, Table};

/// Outcome of the exposure-policy ablation on one design point.
#[derive(Debug, Clone, Copy)]
pub struct ExposureAblation {
    /// Γ under the default whole-run exposure.
    pub gamma_whole_run: f64,
    /// Γ counting only busy cycles.
    pub gamma_busy_only: f64,
}

/// Evaluates a design under both exposure policies.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn exposure_ablation(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
) -> Result<ExposureAblation, OptError> {
    let whole = EvalContext::new(app, arch)
        .with_exposure(ExposurePolicy::WholeRun)
        .evaluate(mapping, scaling)?;
    let busy = EvalContext::new(app, arch)
        .with_exposure(ExposurePolicy::BusyOnly)
        .evaluate(mapping, scaling)?;
    Ok(ExposureAblation {
        gamma_whole_run: whole.gamma,
        gamma_busy_only: busy.gamma,
    })
}

/// Outcome of the initial-mapping seed ablation.
#[derive(Debug, Clone)]
pub struct SeedAblation {
    /// Final Γ when the search starts from `InitialSEAMapping`.
    pub gamma_from_sea_seed: f64,
    /// Final Γ when the search starts from a balanced topological split.
    pub gamma_from_balanced_seed: f64,
    /// Γ of the SEA seed itself, before search.
    pub gamma_sea_seed_raw: f64,
}

/// Runs the Fig. 7 search from both seeds at equal budget.
///
/// # Errors
///
/// Propagates optimizer errors.
pub fn seed_ablation(
    app: &Application,
    arch: &Architecture,
    scaling: &ScalingVector,
    budget: SearchBudget,
    seed: u64,
) -> Result<SeedAblation, OptError> {
    let ctx = EvalContext::new(app, arch);
    let sea_seed = initial_sea_mapping(&ctx, scaling)?;
    let sea_raw = ctx.evaluate(&sea_seed, scaling)?;
    let from_sea = optimized_mapping(&ctx, scaling, sea_seed, budget, seed)?;

    // Balanced topological split (the baseline annealer's seed).
    let n = app.graph().len();
    let cores = arch.n_cores();
    let chunk = n.div_ceil(cores);
    let mut assign = vec![sea_arch::CoreId::new(0); n];
    for (pos, &t) in app.graph().topological_order().iter().enumerate() {
        assign[t.index()] = sea_arch::CoreId::new((pos / chunk).min(cores - 1));
    }
    let balanced = Mapping::try_new(assign, cores)?;
    let from_balanced = optimized_mapping(&ctx, scaling, balanced, budget, seed)?;

    Ok(SeedAblation {
        gamma_from_sea_seed: from_sea.evaluation.gamma,
        gamma_from_balanced_seed: from_balanced.evaluation.gamma,
        gamma_sea_seed_raw: sea_raw.gamma,
    })
}

/// Γ of a fixed design across raw SER values (`λ_ref` sweep).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn ser_sensitivity(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    scaling: &ScalingVector,
    sers: &[f64],
) -> Result<Vec<(f64, f64)>, OptError> {
    sers.iter()
        .map(|&ser| {
            let eval = EvalContext::new(app, arch)
                .with_ser(SerModel::calibrated(ser))
                .evaluate(mapping, scaling)?;
            Ok((ser, eval.gamma))
        })
        .collect()
}

/// One Monte-Carlo validation row.
#[derive(Debug, Clone)]
pub struct McRow {
    /// Design label.
    pub label: String,
    /// Analytic Γ (eq. 3).
    pub gamma_analytic: f64,
    /// Monte-Carlo experienced count.
    pub experienced: u64,
    /// Relative deviation.
    pub rel_deviation: f64,
}

/// The MC-validation unit list: one `simulate` unit per design, on the
/// paper-calibrated architecture at each design's core count with
/// `levels` DVS levels (the level set the designs' scaling vectors were
/// built against — a 4-level design's coefficient 4 does not exist in
/// the 3-level set).
#[must_use]
pub fn mc_units(
    app: &Arc<Application>,
    designs: &[(String, Mapping, ScalingVector)],
    levels: usize,
    seed: u64,
) -> Vec<Unit> {
    designs
        .iter()
        .enumerate()
        .map(|(index, (label, mapping, scaling))| {
            let groups = (0..mapping.n_cores())
                .map(|c| {
                    mapping
                        .tasks_on_iter(CoreId::new(c))
                        .map(sea_taskgraph::TaskId::index)
                        .collect()
                })
                .collect();
            Unit {
                index,
                scenario: format!("mc:{label}"),
                kind: UnitKind::Simulate {
                    scaling: scaling.coefficients().to_vec(),
                    groups,
                    ser: sea_arch::ser::PAPER_SER,
                },
                app: AppRef::Inline(Arc::clone(app)),
                cores: mapping.n_cores(),
                levels,
                budget: BudgetSpec::Fast,
                selection: SelectionPolicy::default(),
                seed,
            }
        })
        .collect()
}

/// Assembles MC-validation rows from `simulate` unit results.
#[must_use]
pub fn mc_from_results(
    designs: &[(String, Mapping, ScalingVector)],
    results: &[UnitResult],
) -> Vec<McRow> {
    assert_eq!(
        results.len(),
        designs.len(),
        "one simulate unit per design (misaligned result slice?)"
    );
    designs
        .iter()
        .zip(results)
        .map(|((label, _, _), result)| {
            let UnitPayload::Sim(summary) = &result.payload else {
                unreachable!("mc units are simulate units and cannot be infeasible");
            };
            let analytic = summary.analytic.gamma;
            let experienced = summary.total_experienced;
            McRow {
                label: label.clone(),
                gamma_analytic: analytic,
                experienced,
                rel_deviation: (experienced as f64 - analytic).abs() / analytic,
            }
        })
        .collect()
}

/// Validates the analytic Γ against fault injection on a set of designs
/// (paper-calibrated architecture at each design's core count, 3 DVS
/// levels — use [`mc_units`] directly for other level sets), through the
/// campaign engine.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn mc_validation(
    app: &Application,
    designs: &[(String, Mapping, ScalingVector)],
    seed: u64,
) -> Result<Vec<McRow>, CampaignError> {
    let app = Arc::new(app.clone());
    let results = crate::campaigns::run(&mc_units(&app, designs, 3, seed))?;
    Ok(mc_from_results(designs, &results))
}

/// Renders MC validation rows.
#[must_use]
pub fn mc_table(rows: &[McRow]) -> Table {
    let mut t = Table::new(
        "Monte-Carlo fault injection vs analytic Gamma",
        &[
            ("design", Column::Left),
            ("analytic", Column::Right),
            ("simulated", Column::Right),
            ("rel. dev.", Column::Right),
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.label.clone(),
            sci(r.gamma_analytic, 3),
            r.experienced.to_string(),
            format!("{:.3}%", r.rel_deviation * 100.0),
        ]);
    }
    t
}

/// One row of the platform-overhead (CPI) sensitivity study.
#[derive(Debug, Clone, Copy)]
pub struct CpiRow {
    /// The overhead factor.
    pub overhead: f64,
    /// Whether the published proposed scaling (2,2,3,2) is feasible.
    pub proposed_feasible: bool,
    /// Whether the all-lowest combination (3,3,3,3) is feasible.
    pub all_lowest_feasible: bool,
    /// TM of the reference mapping at (2,2,3,2), seconds.
    pub tm_proposed_s: f64,
}

/// Sensitivity of the Table II regime to the platform-overhead calibration
/// (DESIGN.md §3): the published four-core outcome requires (2,2,3,2)
/// feasible but (3,3,3,3) infeasible, which pins the factor to ≈1.9.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn cpi_sensitivity(overheads: &[f64]) -> Result<Vec<CpiRow>, OptError> {
    let app = mpeg2::application();
    let mapping = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4)
        .expect("Table II Exp:4 mapping is well-formed");
    overheads
        .iter()
        .map(|&overhead| {
            let arch = Architecture::homogeneous(4, LevelSet::arm7_three_level())
                .with_cpi_overhead(overhead)
                .map_err(sea_opt::OptError::from)?;
            let ctx = EvalContext::new(&app, &arch);
            let proposed = ScalingVector::try_new(vec![2, 2, 3, 2], &arch)?;
            let lowest = ScalingVector::all_lowest(&arch);
            let e_prop = ctx.evaluate(&mapping, &proposed)?;
            let e_low = ctx.evaluate(&mapping, &lowest)?;
            Ok(CpiRow {
                overhead,
                proposed_feasible: e_prop.meets_deadline,
                all_lowest_feasible: e_low.meets_deadline,
                tm_proposed_s: e_prop.tm_seconds,
            })
        })
        .collect()
}

/// Convenience: the proposed Table II design (mapping + scaling) used by
/// several ablations.
#[must_use]
pub fn reference_design() -> (Application, Architecture, Mapping, ScalingVector) {
    let app = mpeg2::application();
    let arch = Architecture::arm7_calibrated(4, LevelSet::arm7_three_level());
    let mapping = Mapping::from_groups(&[&[0, 1, 2, 3, 4, 5], &[6, 7], &[8], &[9, 10]], 4)
        .expect("Table II Exp:4 mapping is well-formed");
    let scaling = ScalingVector::try_new(vec![2, 2, 3, 2], &arch).expect("Table II Exp:4 scaling");
    (app, arch, mapping, scaling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_whole_run_dominates() {
        let (app, arch, mapping, scaling) = reference_design();
        let ab = exposure_ablation(&app, &arch, &mapping, &scaling).unwrap();
        assert!(ab.gamma_whole_run >= ab.gamma_busy_only);
        assert!(ab.gamma_busy_only > 0.0);
    }

    #[test]
    fn sea_seed_helps_or_matches_at_equal_budget() {
        let (app, arch, _, scaling) = reference_design();
        let budget = SearchBudget {
            max_evaluations: 300,
            max_stale_sweeps: 1,
            time_limit: None,
        };
        let ab = seed_ablation(&app, &arch, &scaling, budget, 9).unwrap();
        // The greedy seed should not be dramatically worse than where the
        // bounded search lands from a naive seed (it usually wins).
        assert!(ab.gamma_from_sea_seed <= ab.gamma_from_balanced_seed * 1.15);
        // And the search must never worsen its own seed.
        assert!(ab.gamma_from_sea_seed <= ab.gamma_sea_seed_raw * 1.0001);
    }

    #[test]
    fn gamma_is_linear_in_ser() {
        let (app, arch, mapping, scaling) = reference_design();
        let pts = ser_sensitivity(&app, &arch, &mapping, &scaling, &[1e-10, 1e-9, 1e-8]).unwrap();
        let base = pts[0].1 / 1e-10;
        for &(ser, gamma) in &pts {
            assert!(
                (gamma / ser / base - 1.0).abs() < 1e-9,
                "Γ must scale linearly with SER"
            );
        }
    }

    #[test]
    fn cpi_sensitivity_pins_the_calibration_window() {
        let rows = cpi_sensitivity(&[1.0, 1.5, 1.9, 2.2]).unwrap();
        // Ideal timing: everything feasible, including all-lowest.
        assert!(rows[0].proposed_feasible && rows[0].all_lowest_feasible);
        // The calibrated point: published regime — (2,2,3,2) in, (3,3,3,3) out.
        let cal = &rows[2];
        assert!(cal.proposed_feasible, "TM {}", cal.tm_proposed_s);
        assert!(!cal.all_lowest_feasible);
        // Too much overhead: even the published design misses the deadline.
        assert!(!rows[3].proposed_feasible);
        // TM grows monotonically with the factor.
        for w in rows.windows(2) {
            assert!(w[1].tm_proposed_s > w[0].tm_proposed_s);
        }
    }

    #[test]
    fn mc_matches_analytic_on_reference_design() {
        let (app, _, mapping, scaling) = reference_design();
        let rows = mc_validation(&app, &[("Exp:4".into(), mapping, scaling)], 13).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(
            rows[0].rel_deviation < 0.05,
            "MC deviation {}",
            rows[0].rel_deviation
        );
        let ascii = mc_table(&rows).to_ascii();
        assert!(ascii.contains("Exp:4"));
    }
}
