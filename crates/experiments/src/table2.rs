//! Table II — soft error-unaware (Exp:1–3) vs. the proposed soft
//! error-aware optimization (Exp:4) on the four-core MPEG-2 decoder.
//!
//! Every experiment runs the same outer power-minimization loop (voltage
//! scaling enumeration, deadline = decoding 437 frames at 29.97 fps, SER
//! 10⁻⁹ SEU/bit/cycle); they differ only in the mapping stage:
//! simulated annealing minimizing `R` / `TM` / `TM·R` for Exp:1/2/3, and
//! the proposed two-stage soft error-aware mapping for Exp:4.

use std::sync::Arc;

use sea_baselines::Objective;
use sea_campaign::{AppRef, CampaignError, Unit, UnitKind, UnitResult};
use sea_opt::{DesignPoint, SelectionPolicy};
use sea_taskgraph::{mpeg2, Application};

use crate::report::{sci, Column, Table};
use crate::EffortProfile;

/// Published Table II reference values `(P mW, R kbit/cyc, TM ×10⁹ cycles,
/// Γ ×10⁵)` for Exp:1..Exp:4.
pub const PAPER_REFERENCE: [(f64, f64, f64, f64); 4] = [
    (9.53, 80.0, 1.89, 3.46),
    (4.04, 118.0, 1.18, 5.22),
    (4.15, 92.0, 1.26, 4.18),
    (4.25, 89.0, 1.32, 3.93),
];

/// One Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Experiment label ("Exp:1 (Reg. Usage)", …).
    pub label: String,
    /// The winning design point (mapping + scaling + evaluation at its own
    /// operating point, as printed in the paper's table).
    pub design: DesignPoint,
    /// Intrinsic `TM` of the mapping at uniform nominal scaling, seconds —
    /// the scaling-independent parallelism of the mapping.
    pub tm_nominal_s: f64,
    /// Γ of the mapping at the proposed design's scaling (the matched
    /// comparison behind Fig. 9 and the paper's 38 %/28 % claims).
    pub gamma_matched: f64,
}

/// The regenerated Table II.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Rows in experiment order Exp:1..Exp:4.
    pub rows: Vec<Table2Row>,
}

/// The four Table II units — Exp:1–3 SA baselines plus the proposed flow,
/// each an independent grid point for the campaign pool.
#[must_use]
pub fn units_on(app: &Arc<Application>, profile: EffortProfile, cores: usize) -> Vec<Unit> {
    let kinds = [
        UnitKind::Baseline(Objective::RegisterUsage),
        UnitKind::Baseline(Objective::Parallelism),
        UnitKind::Baseline(Objective::RegTimeProduct),
        UnitKind::Optimize,
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(index, kind)| Unit {
            index,
            scenario: "table2".into(),
            kind,
            app: AppRef::Inline(Arc::clone(app)),
            cores,
            levels: 3,
            budget: profile.budget_spec(),
            selection: SelectionPolicy::default(),
            seed: profile.seed(),
        })
        .collect()
}

/// Assembles Table II from the four unit results (enumeration order:
/// Exp:1, Exp:2, Exp:3, Exp:4).
///
/// # Errors
///
/// Re-raises infeasible units as optimizer errors (the published 4-core
/// setup is feasible) and propagates evaluation errors from the derived
/// metrics.
pub fn from_results(results: &[UnitResult]) -> Result<Table2, CampaignError> {
    assert_eq!(results.len(), 4, "Table II has four experiments");
    let app = results[0].unit.app.build()?;
    let config = results[3].unit.optimizer_config();

    let mut designs: Vec<(String, DesignPoint)> = Vec::with_capacity(4);
    for result in results {
        let label = match &result.unit.kind {
            UnitKind::Baseline(objective) => objective.label().to_string(),
            _ => "Exp:4 (Proposed)".to_string(),
        };
        let out = result.payload.require_design()?;
        designs.push((label, out.best.clone()));
    }
    let matched_scaling = designs[3].1.scaling.clone();

    // Derived, scaling-normalized metrics for the shape comparison.
    let ctx = sea_sched::metrics::EvalContext::new(&app, &config.arch)
        .with_ser(config.ser)
        .with_exposure(config.exposure);
    let nominal = sea_arch::ScalingVector::all_nominal(&config.arch);
    let rows = designs
        .into_iter()
        .map(|(label, design)| {
            let tm_nominal_s = ctx.evaluate(&design.mapping, &nominal)?.tm_seconds;
            let gamma_matched = ctx.evaluate(&design.mapping, &matched_scaling)?.gamma;
            Ok(Table2Row {
                label,
                design,
                tm_nominal_s,
                gamma_matched,
            })
        })
        .collect::<Result<Vec<_>, sea_opt::OptError>>()?;
    Ok(Table2 { rows })
}

/// Runs all four experiments on the MPEG-2 decoder with `cores` cores.
///
/// # Errors
///
/// Propagates unit errors; infeasibility should not occur for the
/// published 4-core setup.
pub fn run(profile: EffortProfile, cores: usize) -> Result<Table2, CampaignError> {
    let app = Arc::new(mpeg2::application());
    let results = crate::campaigns::run(&units_on(&app, profile, cores))?;
    from_results(&results)
}

impl Table2 {
    /// The Exp:4 (proposed) row.
    ///
    /// # Panics
    ///
    /// Panics if the table was constructed without the proposed row.
    #[must_use]
    pub fn proposed(&self) -> &Table2Row {
        self.rows.last().expect("table has four rows")
    }

    /// Renders the table in the paper's column layout, with the published
    /// values alongside for comparison.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Table II - MPEG-2 decoder, four cores",
            &[
                ("experiment", Column::Left),
                ("mapping", Column::Left),
                ("scaling", Column::Left),
                ("P (mW)", Column::Right),
                ("R (kbit/c)", Column::Right),
                ("TM (1e9 cy)", Column::Right),
                ("Gamma", Column::Right),
                ("paper P", Column::Right),
                ("paper R", Column::Right),
                ("paper TM", Column::Right),
                ("paper Gamma", Column::Right),
            ],
        );
        for (i, row) in self.rows.iter().enumerate() {
            let e = &row.design.evaluation;
            let (pp, pr, ptm, pg) =
                PAPER_REFERENCE
                    .get(i)
                    .copied()
                    .unwrap_or((f64::NAN, f64::NAN, f64::NAN, f64::NAN));
            t.push_row(vec![
                row.label.clone(),
                row.design.mapping.to_string(),
                row.design.scaling.to_string(),
                format!("{:.2}", e.power_mw),
                format!("{:.1}", e.r_total_kbits()),
                format!("{:.2}", e.tm_nominal_cycles / 1e9),
                sci(e.gamma, 2),
                format!("{pp:.2}"),
                format!("{pr:.0}"),
                format!("{ptm:.2}"),
                sci(pg * 1e5, 2),
            ]);
        }
        t
    }

    /// Shape checks against the paper's qualitative claims; returns the
    /// list of violated expectations (empty = full qualitative agreement).
    ///
    /// Each claim is checked on a scaling-consistent footing:
    ///
    /// * register usage `R` is scaling-independent — the min-`R` baseline
    ///   must sit at or below the proposed design, the parallelism
    ///   baseline above it (Table II: 80 ≤ 89 < 118);
    /// * mapping parallelism is compared at uniform nominal scaling —
    ///   Exp:2's mapping must be the fastest, Exp:1's the slowest;
    /// * reliability is compared at the proposed design's scaling (the
    ///   paper's Fig. 9 matched-scaling comparison): the proposed mapping
    ///   must experience the fewest SEUs (paper: −38 % vs Exp:2, −28 % vs
    ///   Exp:1);
    /// * power: the min-`R` baseline cannot scale down and pays the
    ///   highest power (Table II: 9.53 mW vs ~4 mW).
    #[must_use]
    pub fn shape_violations(&self) -> Vec<String> {
        let r = |i: usize| &self.rows[i];
        let mut v = Vec::new();
        let mut check = |ok: bool, what: &str| {
            if !ok {
                v.push(what.to_string());
            }
        };
        // Register usage (scaling-independent).
        check(
            r(0).design.evaluation.r_total <= r(3).design.evaluation.r_total,
            "R: Exp1 <= Exp4",
        );
        check(
            r(3).design.evaluation.r_total < r(1).design.evaluation.r_total,
            "R: Exp4 < Exp2",
        );
        // Intrinsic parallelism at nominal scaling.
        check(
            r(1).tm_nominal_s <= r(2).tm_nominal_s,
            "TM@nominal: Exp2 <= Exp3",
        );
        check(
            r(1).tm_nominal_s < r(0).tm_nominal_s,
            "TM@nominal: Exp2 < Exp1",
        );
        // SEUs at matched scaling.
        check(
            r(3).gamma_matched < r(1).gamma_matched,
            "Gamma@matched: Exp4 < Exp2",
        );
        check(
            r(3).gamma_matched <= r(2).gamma_matched,
            "Gamma@matched: Exp4 <= Exp3",
        );
        check(
            r(3).gamma_matched < r(0).gamma_matched,
            "Gamma@matched: Exp4 < Exp1",
        );
        // Power: the min-R baseline pays the most.
        check(
            r(0).design.evaluation.power_mw > r(1).design.evaluation.power_mw,
            "P: Exp1 > Exp2",
        );
        check(
            r(0).design.evaluation.power_mw > r(3).design.evaluation.power_mw,
            "P: Exp1 > Exp4",
        );
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_smoke_run_has_paper_shape() {
        let t2 = run(EffortProfile::Smoke, 4).unwrap();
        assert_eq!(t2.rows.len(), 4);
        for row in &t2.rows {
            assert!(row.design.evaluation.meets_deadline, "{}", row.label);
            assert!(row.design.mapping.uses_all_cores(), "{}", row.label);
        }
        let violations = t2.shape_violations();
        assert!(
            violations.len() <= 1,
            "too many shape violations: {violations:?}"
        );
    }

    #[test]
    fn rendering_includes_all_rows_and_references() {
        let t2 = run(EffortProfile::Smoke, 4).unwrap();
        let ascii = t2.to_table().to_ascii();
        for label in ["Exp:1", "Exp:2", "Exp:3", "Exp:4"] {
            assert!(ascii.contains(label), "missing {label} in:\n{ascii}");
        }
        assert!(ascii.contains("9.53"), "paper reference column present");
        let csv = t2.to_table().to_csv();
        assert_eq!(csv.lines().count(), 5);
    }
}
