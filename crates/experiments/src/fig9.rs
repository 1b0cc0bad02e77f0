//! Fig. 9 — relative SEUs and power of Exp:1–3 vs. the proposed Exp:4,
//! all evaluated at the same voltage scaling (2, 2, 3, 2).
//!
//! The paper reports: Exp:2 experiences up to 38 % more SEUs than Exp:4
//! while Exp:4 consumes 9 % less power; Exp:1 experiences 28 % fewer SEUs
//! on its own optimal scaling but at matched scaling the comparison uses
//! the published bars. Positive percentages mean the baseline is worse
//! (more SEUs / more power) than the proposed design.

use sea_arch::{Architecture, LevelSet, ScalingVector};
use sea_opt::OptError;
use sea_sched::metrics::EvalContext;
use sea_taskgraph::mpeg2;

use crate::report::{Column, Table};
use crate::table2::Table2;

/// One comparison bar of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Bar {
    /// Baseline label (Exp:1..Exp:3).
    pub label: String,
    /// `(Γ_baseline − Γ_proposed) / Γ_proposed · 100`.
    pub delta_gamma_pct: f64,
    /// `(P_baseline − P_proposed) / P_proposed · 100`.
    pub delta_power_pct: f64,
}

/// The regenerated Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Bars for Exp:1, Exp:2, Exp:3.
    pub bars: Vec<Fig9Bar>,
    /// The matched scaling used for the comparison.
    pub scaling: Vec<u8>,
}

/// Builds Fig. 9 from an existing Table II run (avoids re-optimizing).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn from_table2(table2: &Table2) -> Result<Fig9, OptError> {
    let app = mpeg2::application();
    let arch = Architecture::arm7_calibrated(4, LevelSet::arm7_three_level());
    let ctx = EvalContext::new(&app, &arch);
    let fixed = ScalingVector::try_new(vec![2, 2, 3, 2], &arch)?;

    let evals: Vec<_> = table2
        .rows
        .iter()
        .map(|row| ctx.evaluate(&row.design.mapping, &fixed))
        .collect::<Result<_, _>>()?;
    let proposed = evals.last().expect("four rows");

    let bars = table2
        .rows
        .iter()
        .zip(&evals)
        .take(3)
        .map(|(row, e)| Fig9Bar {
            label: row.label.clone(),
            delta_gamma_pct: (e.gamma - proposed.gamma) / proposed.gamma * 100.0,
            delta_power_pct: (e.power_mw - proposed.power_mw) / proposed.power_mw * 100.0,
        })
        .collect();

    Ok(Fig9 {
        bars,
        scaling: vec![2, 2, 3, 2],
    })
}

impl Fig9 {
    /// Renders the bars as a table.
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Fig. 9 - baselines vs proposed at fixed scaling {:?}",
                self.scaling
            ),
            &[
                ("experiment", Column::Left),
                ("dGamma (%)", Column::Right),
                ("dPower (%)", Column::Right),
            ],
        );
        for bar in &self.bars {
            t.push_row(vec![
                bar.label.clone(),
                format!("{:+.1}", bar.delta_gamma_pct),
                format!("{:+.1}", bar.delta_power_pct),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EffortProfile;

    fn smoke() -> Fig9 {
        from_table2(&crate::table2::run(EffortProfile::Smoke, 4).unwrap()).unwrap()
    }

    #[test]
    fn fig9_shape_matches_paper() {
        let fig = smoke();
        assert_eq!(fig.bars.len(), 3);
        // At matched scaling the single-objective baselines experience more
        // SEUs than the proposed design: the paper reports +28 % (Exp:1)
        // and +38 % (Exp:2). Exp:3 (the joint TM·R baseline) is only
        // slightly worse in the paper; at smoke budgets it may tie, so its
        // bound is loose.
        assert!(
            fig.bars[0].delta_gamma_pct > 0.0,
            "Exp:1 dGamma = {}",
            fig.bars[0].delta_gamma_pct
        );
        assert!(
            fig.bars[1].delta_gamma_pct > 0.0,
            "Exp:2 dGamma = {}",
            fig.bars[1].delta_gamma_pct
        );
        assert!(
            fig.bars[2].delta_gamma_pct > -15.0,
            "Exp:3 dGamma = {}",
            fig.bars[2].delta_gamma_pct
        );
    }

    #[test]
    fn rendering() {
        let fig = smoke();
        let ascii = fig.to_table().to_ascii();
        assert!(ascii.contains("Exp:1"));
        assert!(ascii.contains("dGamma"));
    }
}
