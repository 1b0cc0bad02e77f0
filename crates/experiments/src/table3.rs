//! Table III — impact of architecture allocation (2–6 cores) on the power
//! consumption and SEUs experienced by the proposed optimization (Exp:4).
//!
//! Applications: the MPEG-2 decoder plus random task graphs of 20–100
//! tasks with the §V generator parameters. The paper's two observations:
//! the power-minimal core count depends on the application and deadline,
//! and Γ grows with the core count (more parallelism → lower TM → deeper
//! voltage scaling and more register duplication).

use std::sync::Arc;

use sea_campaign::{AppRef, CampaignError, Unit, UnitKind, UnitResult};
use sea_opt::SelectionPolicy;
use sea_taskgraph::generator::RandomGraphConfig;
use sea_taskgraph::{mpeg2, Application};

use crate::report::{sci, Column, Table};
use crate::EffortProfile;

/// One Table III cell.
#[derive(Debug, Clone, Copy)]
pub struct Table3Cell {
    /// Core count.
    pub cores: usize,
    /// Power in mW (empty if infeasible at this allocation).
    pub power_mw: Option<f64>,
    /// Expected SEUs.
    pub gamma: Option<f64>,
}

/// One Table III row: an application across core counts.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Application label ("MPEG-2", "20 tasks", …).
    pub label: String,
    /// Cells in core-count order.
    pub cells: Vec<Table3Cell>,
}

/// The regenerated Table III.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Core counts covered (columns).
    pub core_counts: Vec<usize>,
    /// Rows in application order.
    pub rows: Vec<Table3Row>,
}

/// The published workloads: MPEG-2 plus random graphs of 20..=100 tasks.
#[must_use]
pub fn paper_workloads(seed: u64) -> Vec<(String, Application)> {
    let mut out = vec![("MPEG-2".to_string(), mpeg2::application())];
    for n in [20usize, 40, 60, 80, 100] {
        let app = RandomGraphConfig::paper(n)
            .generate(seed)
            .expect("paper generator parameters are valid");
        out.push((format!("{n} tasks"), app));
    }
    out
}

/// The Table III unit grid: one proposed-flow optimization per
/// `(workload, core count)` cell, workload-major — a wide, embarrassingly
/// parallel list the campaign pool schedules across.
#[must_use]
pub fn units_on(
    workloads: &[(String, Application)],
    core_counts: &[usize],
    profile: EffortProfile,
) -> Vec<Unit> {
    let mut units = Vec::with_capacity(workloads.len() * core_counts.len());
    for (label, app) in workloads {
        let app = Arc::new(app.clone());
        for &cores in core_counts {
            units.push(Unit {
                index: units.len(),
                scenario: format!("table3:{label}"),
                kind: UnitKind::Optimize,
                app: AppRef::Inline(Arc::clone(&app)),
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

/// Assembles Table III from the unit results (same workload-major order
/// as [`units_on`]). Infeasible units become empty cells.
#[must_use]
pub fn from_results(
    workloads: &[(String, Application)],
    core_counts: &[usize],
    results: &[UnitResult],
) -> Table3 {
    assert_eq!(results.len(), workloads.len() * core_counts.len());
    let mut rows = Vec::with_capacity(workloads.len());
    for (w, (label, _)) in workloads.iter().enumerate() {
        let cells = core_counts
            .iter()
            .enumerate()
            .map(|(c, &cores)| {
                let best = results[w * core_counts.len() + c]
                    .payload
                    .outcome()
                    .map(|out| &out.best.evaluation);
                Table3Cell {
                    cores,
                    power_mw: best.map(|e| e.power_mw),
                    gamma: best.map(|e| e.gamma),
                }
            })
            .collect();
        rows.push(Table3Row {
            label: label.clone(),
            cells,
        });
    }
    Table3 {
        core_counts: core_counts.to_vec(),
        rows,
    }
}

/// Runs Table III over the given workloads and core counts.
///
/// Infeasible (application, cores) combinations yield empty cells rather
/// than failing the whole table.
///
/// # Errors
///
/// Propagates hard unit errors (infeasibility is an empty cell).
pub fn run_on(
    workloads: &[(String, Application)],
    core_counts: &[usize],
    profile: EffortProfile,
) -> Result<Table3, CampaignError> {
    let results = crate::campaigns::run(&units_on(workloads, core_counts, profile))?;
    Ok(from_results(workloads, core_counts, &results))
}

impl Table3 {
    /// Renders the table in the paper's layout (P and Γ per core count).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut header: Vec<(String, Column)> = vec![("app".to_string(), Column::Left)];
        for c in &self.core_counts {
            header.push((format!("{c}C P(mW)"), Column::Right));
            header.push((format!("{c}C Gamma"), Column::Right));
        }
        let header_refs: Vec<(&str, Column)> =
            header.iter().map(|(h, a)| (h.as_str(), *a)).collect();
        let mut t = Table::new("Table III - proposed flow across core counts", &header_refs);
        for row in &self.rows {
            let mut cells = vec![row.label.clone()];
            for c in &row.cells {
                cells.push(
                    c.power_mw
                        .map_or_else(|| "-".to_string(), |p| format!("{p:.2}")),
                );
                cells.push(c.gamma.map_or_else(|| "-".to_string(), |g| sci(g, 2)));
            }
            t.push_row(cells);
        }
        t
    }

    /// Checks the paper's second observation: Γ grows with the number of
    /// cores. Returns per-row counts of `(monotone steps, total steps)`
    /// over adjacent feasible cells.
    #[must_use]
    pub fn gamma_monotonicity(&self) -> Vec<(String, usize, usize)> {
        self.rows
            .iter()
            .map(|row| {
                let gammas: Vec<f64> = row.cells.iter().filter_map(|c| c.gamma).collect();
                let total = gammas.len().saturating_sub(1);
                let monotone = gammas.windows(2).filter(|w| w[1] >= w[0]).count();
                (row.label.clone(), monotone, total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpeg2_row_gamma_grows_with_cores() {
        let workloads = vec![("MPEG-2".to_string(), mpeg2::application())];
        let t3 = run_on(&workloads, &[2, 3, 4], EffortProfile::Smoke).unwrap();
        let row = &t3.rows[0];
        let gammas: Vec<f64> = row.cells.iter().filter_map(|c| c.gamma).collect();
        assert_eq!(gammas.len(), 3, "all allocations feasible");
        assert!(
            gammas[2] > gammas[0],
            "Γ must grow from 2 to 4 cores: {gammas:?}"
        );
    }

    #[test]
    fn random_graph_row_completes() {
        let app = RandomGraphConfig::paper(20).generate(7).unwrap();
        let workloads = vec![("20 tasks".to_string(), app)];
        let t3 = run_on(&workloads, &[2, 4], EffortProfile::Smoke).unwrap();
        assert_eq!(t3.rows[0].cells.len(), 2);
        for c in &t3.rows[0].cells {
            assert!(c.power_mw.is_some(), "{} cores should be feasible", c.cores);
        }
    }

    #[test]
    fn rendering_marks_infeasible_cells() {
        // A brutally tight deadline makes every allocation infeasible.
        let app = mpeg2::application().with_deadline(0.01).unwrap();
        let workloads = vec![("tight".to_string(), app)];
        let t3 = run_on(&workloads, &[2], EffortProfile::Smoke).unwrap();
        let ascii = t3.to_table().to_ascii();
        assert!(ascii.contains('-'), "infeasible cell rendered as dash");
    }
}
