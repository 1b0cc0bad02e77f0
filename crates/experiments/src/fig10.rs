//! Fig. 10 — Exp:3 (joint `TM·R` baseline) vs. Exp:4 (proposed) across
//! architecture allocations, on the 60-task random graph.
//!
//! The paper reports that the proposed optimization consistently
//! experiences fewer SEUs (up to 7 % at six cores) at a small power cost
//! (≈3 %).
//!
//! The two flows settle at different operating points: the proposed flow
//! re-maps per scaling and so reaches deeper (lower-power) scalings than
//! the baseline's fixed mapping, where `Γ` is inherently larger. Comparing
//! raw selections would therefore penalize the proposed flow *for being
//! better at power minimization*. Like Fig. 9, the comparison is made at
//! **matched scaling**: Exp:4's column reports its explored design at the
//! scaling Exp:3 selected (falling back to Exp:4's own selection when
//! Exp:3 is infeasible), so the Γ series isolates the mapping quality the
//! paper's Fig. 10 is about.

use std::sync::Arc;

use sea_baselines::Objective;
use sea_campaign::{AppRef, CampaignError, Unit, UnitKind, UnitResult, WinTally};
use sea_opt::SelectionPolicy;
use sea_taskgraph::Application;

use crate::report::{sci, Column, Table};
use crate::EffortProfile;

/// One core-count comparison point.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Point {
    /// Core count.
    pub cores: usize,
    /// Exp:3 power (mW), if feasible.
    pub exp3_power_mw: Option<f64>,
    /// Exp:3 Γ, if feasible.
    pub exp3_gamma: Option<f64>,
    /// Exp:4 power (mW), if feasible.
    pub exp4_power_mw: Option<f64>,
    /// Exp:4 Γ, if feasible.
    pub exp4_gamma: Option<f64>,
    /// Whether the Exp:4 cells report the matched-scaling design. `false`
    /// when Exp:4 fell back to its own selection (Exp:3 infeasible, or
    /// Exp:4 infeasible at Exp:3's scaling) — such rows compare designs at
    /// different operating points and are excluded from the win rate.
    pub matched: bool,
}

/// The regenerated Fig. 10.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Points in core-count order.
    pub points: Vec<Fig10Point>,
}

/// The Fig. 10 unit grid: an Exp:3 baseline and an Exp:4 proposed run per
/// core count, interleaved `(exp3, exp4)` pairwise.
#[must_use]
pub fn units_on(
    app: &Arc<Application>,
    core_counts: &[usize],
    profile: EffortProfile,
) -> Vec<Unit> {
    let mut units = Vec::with_capacity(core_counts.len() * 2);
    for &cores in core_counts {
        for kind in [
            UnitKind::Baseline(Objective::RegTimeProduct),
            UnitKind::Optimize,
        ] {
            units.push(Unit {
                index: units.len(),
                scenario: "fig10".into(),
                kind,
                app: AppRef::Inline(Arc::clone(app)),
                cores,
                levels: 3,
                budget: profile.budget_spec(),
                selection: SelectionPolicy::default(),
                seed: profile.seed(),
            });
        }
    }
    units
}

/// Assembles Fig. 10 from the unit results (the `(exp3, exp4)` pair order
/// of [`units_on`]). Infeasible units become empty cells.
#[must_use]
pub fn from_results(core_counts: &[usize], results: &[UnitResult]) -> Fig10 {
    assert_eq!(results.len(), core_counts.len() * 2);
    let mut points = Vec::with_capacity(core_counts.len());
    for (i, &cores) in core_counts.iter().enumerate() {
        let exp3 = results[2 * i].payload.outcome().map(|out| &out.best);
        let (exp4, matched) = match results[2 * i + 1].payload.outcome() {
            Some(out) => {
                // Matched-scaling comparison (see module docs): report
                // Exp:4's explored design at the scaling Exp:3 selected.
                let matched = exp3.and_then(|e3| {
                    out.at_scaling(&e3.scaling)
                        .filter(|o| o.feasible)
                        .and_then(|o| o.best.as_ref())
                        .map(|p| p.evaluation.clone())
                });
                match matched {
                    Some(eval) => (Some(eval), true),
                    None => (Some(out.best.evaluation.clone()), false),
                }
            }
            None => (None, false),
        };
        let exp3 = exp3.map(|p| &p.evaluation);
        points.push(Fig10Point {
            cores,
            exp3_power_mw: exp3.map(|e| e.power_mw),
            exp3_gamma: exp3.map(|e| e.gamma),
            exp4_power_mw: exp4.as_ref().map(|e| e.power_mw),
            exp4_gamma: exp4.as_ref().map(|e| e.gamma),
            matched,
        });
    }
    Fig10 { points }
}

/// Runs the comparison on the paper's 60-task workload across `core_counts`.
///
/// # Errors
///
/// Propagates hard unit errors (infeasible allocations yield empty
/// cells).
pub fn run_on(
    app: &Application,
    core_counts: &[usize],
    profile: EffortProfile,
) -> Result<Fig10, CampaignError> {
    let app = Arc::new(app.clone());
    let results = crate::campaigns::run(&units_on(&app, core_counts, profile))?;
    Ok(from_results(core_counts, &results))
}

impl Fig10 {
    /// Renders the comparison series.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            "Fig. 10 - Exp:3 vs Exp:4 across core counts (60-task graph)",
            &[
                ("cores", Column::Right),
                ("Exp:3 P", Column::Right),
                ("Exp:3 Gamma", Column::Right),
                ("Exp:4 P", Column::Right),
                ("Exp:4 Gamma", Column::Right),
                ("dGamma (%)", Column::Right),
            ],
        );
        for p in &self.points {
            let fmt_p = |x: Option<f64>| x.map_or_else(|| "-".into(), |v| format!("{v:.2}"));
            let fmt_g = |x: Option<f64>| x.map_or_else(|| "-".into(), |v| sci(v, 2));
            // No Γ delta is claimed for unmatched rows: those compare
            // designs at different operating points.
            let delta = match (p.exp3_gamma, p.exp4_gamma, p.matched) {
                (Some(a), Some(b), true) => format!("{:+.1}", (b - a) / a * 100.0),
                _ => "-".into(),
            };
            t.push_row(vec![
                p.cores.to_string(),
                fmt_p(p.exp3_power_mw),
                fmt_g(p.exp3_gamma),
                fmt_p(p.exp4_power_mw),
                fmt_g(p.exp4_gamma),
                delta,
            ]);
        }
        t
    }

    /// Fraction of matched-scaling points where the proposed flow's Γ is
    /// at or below the baseline's — the paper's "consistently outperforms".
    /// Unmatched rows (see [`Fig10Point::matched`]) compare designs at
    /// different operating points and are excluded. Counting delegates to
    /// the campaign layer's [`WinTally`] so the figure and `sea-dse
    /// report` aggregates share one win rule.
    #[must_use]
    pub fn proposed_win_rate(&self) -> f64 {
        let mut tally = WinTally::default();
        for p in &self.points {
            if !p.matched {
                continue;
            }
            if let (Some(g3), Some(g4)) = (p.exp3_gamma, p.exp4_gamma) {
                tally.observe(g3, g4);
            }
        }
        tally.rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_taskgraph::generator::RandomGraphConfig;

    #[test]
    fn proposed_wins_on_gamma_mostly() {
        let app = RandomGraphConfig::paper(30).generate(5).unwrap();
        let fig = run_on(&app, &[3, 4], EffortProfile::Smoke).unwrap();
        assert_eq!(fig.points.len(), 2);
        assert!(
            fig.proposed_win_rate() >= 0.5,
            "win rate {}",
            fig.proposed_win_rate()
        );
    }

    #[test]
    fn rendering() {
        let app = RandomGraphConfig::paper(20).generate(5).unwrap();
        let fig = run_on(&app, &[2], EffortProfile::Smoke).unwrap();
        let ascii = fig.to_table().to_ascii();
        assert!(ascii.contains("Exp:3"));
        assert!(ascii.contains("dGamma"));
    }
}
