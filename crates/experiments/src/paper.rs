//! The whole paper as one campaign: `sea-dse reproduce`.
//!
//! [`Paper::new`] concatenates the unit lists of Table II, Table III,
//! Fig. 10, Fig. 11 and the MC validation into one flat list
//! ([`campaigns::merge`]), so one worker pool balances across tables and
//! figures instead of idling between them. [`Paper::render`] assembles the
//! report from that list's enumeration-ordered results: Fig. 3 first (a
//! pure evaluation sweep, run inline), then the tables and figures, then
//! the ablations. The report is a pure function of the results, so it is
//! byte-identical for every worker count, transport and cache state.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use sea_arch::ScalingVector;
use sea_campaign::{CampaignError, Unit, UnitResult};
use sea_opt::SearchBudget;
use sea_sched::Mapping;
use sea_taskgraph::{AppSpec, Application};

use crate::ablations::{
    exposure_ablation, mc_from_results, mc_table, mc_units, reference_design, seed_ablation,
    ser_sensitivity,
};
use crate::{campaigns, fig10, fig11, fig3, fig9, table2, table3, EffortProfile};

/// Core counts of Table III and Fig. 10.
const T3_CORES: [usize; 5] = [2, 3, 4, 5, 6];

/// The merged reproduction campaign of one effort profile.
pub struct Paper {
    app60: Arc<Application>,
    t3_workloads: Vec<(String, Application)>,
    mc_designs: Vec<(String, Mapping, ScalingVector)>,
    units: Vec<Unit>,
    /// Each section's slice of `units`: Table II, Table III, Fig. 10,
    /// Fig. 11, MC validation.
    ranges: Vec<Range<usize>>,
}

impl Paper {
    /// Builds the workloads and the merged unit list of `profile`.
    ///
    /// # Errors
    ///
    /// [`CampaignError::App`] if the 60-task graph cannot be generated.
    pub fn new(profile: EffortProfile) -> Result<Self, CampaignError> {
        let mpeg2 = Arc::new(sea_taskgraph::mpeg2::application());
        let app60 = Arc::new(
            AppSpec::Random {
                tasks: 60,
                seed: profile.seed(),
            }
            .build()
            .map_err(CampaignError::App)?,
        );
        let t3_workloads = table3::paper_workloads(profile.seed());
        let (ref_app, _, ref_mapping, ref_scaling) = reference_design();
        let mc_designs = vec![("Exp:4 (proposed)".to_string(), ref_mapping, ref_scaling)];
        let (units, ranges) = campaigns::merge(vec![
            table2::units_on(&mpeg2, profile, 4),
            table3::units_on(&t3_workloads, &T3_CORES, profile),
            fig10::units_on(&app60, &T3_CORES, profile),
            fig11::units_on(&app60, 6, profile),
            mc_units(&Arc::new(ref_app), &mc_designs, 3, 13),
        ]);
        Ok(Paper {
            app60,
            t3_workloads,
            mc_designs,
            units,
            ranges,
        })
    }

    /// The merged unit list, in enumeration order.
    #[must_use]
    pub fn units(&self) -> &[Unit] {
        &self.units
    }

    /// Renders the report from the results of [`Paper::units`], in
    /// enumeration order and with their payloads.
    ///
    /// # Errors
    ///
    /// A Table II or Fig. 11 unit without a design, or a failed inline
    /// sweep or ablation.
    ///
    /// # Panics
    ///
    /// If `results` are not one per unit of [`Paper::units`], like the
    /// per-section assemblers.
    pub fn render(&self, results: &[UnitResult]) -> Result<String, CampaignError> {
        let section = |k: usize| &results[self.ranges[k].clone()];
        let mut out = String::new();

        // Fig. 3 — mapping study (pure evaluation sweep; runs inline).
        let s = fig3::run(120, 42)?.summary();
        let _ = writeln!(out, "## Fig. 3 (120 random mappings, 4 cores)");
        let _ = writeln!(
            out,
            "corr(TM, R)            = {:+.3}   (paper: negative trade-off)",
            s.corr_tm_r
        );
        let _ = writeln!(
            out,
            "Gamma ratio s2/s1      = {:.2}    (paper: ~2.5x)",
            s.gamma_ratio
        );
        let _ = writeln!(
            out,
            "TM ratio s2/s1         = {:.2}    (paper: ~2x)",
            s.tm_ratio
        );
        let _ = writeln!(
            out,
            "Gamma concavity edges  = {:.2} / {:.2} over the minimum (paper: concave)\n",
            s.gamma_edge_over_min_low, s.gamma_edge_over_min_high
        );

        // Table II + Fig. 9.
        let t2 = table2::from_results(section(0))?;
        let _ = writeln!(out, "{}", t2.to_table().to_ascii());
        let violations = t2.shape_violations();
        if violations.is_empty() {
            let _ = writeln!(out, "shape: all Table II orderings reproduced\n");
        } else {
            let _ = writeln!(out, "shape violations: {violations:?}\n");
        }
        let _ = writeln!(out, "{}", fig9::from_table2(&t2)?.to_table().to_ascii());

        // Table III.
        let t3 = table3::from_results(&self.t3_workloads, &T3_CORES, section(1));
        let _ = writeln!(out, "{}", t3.to_table().to_ascii());
        for (label, monotone, total) in t3.gamma_monotonicity() {
            let _ = writeln!(
                out,
                "Gamma growth with cores [{label}]: {monotone}/{total} steps monotone"
            );
        }
        let _ = writeln!(out);

        // Fig. 10.
        let f10 = fig10::from_results(&T3_CORES, section(2));
        let _ = writeln!(out, "{}", f10.to_table().to_ascii());
        let _ = writeln!(
            out,
            "proposed Gamma win rate vs Exp:3: {:.0}%\n",
            f10.proposed_win_rate() * 100.0
        );

        // Fig. 11. Its 3-level unit already optimized the reference
        // design the level isolation keeps fixed.
        let _ = writeln!(
            out,
            "{}",
            fig11::from_results(section(3))?.to_table().to_ascii()
        );
        let reference = section(3)[1].payload.require_design()?;
        let iso = fig11::level_isolation_from(&self.app60, 6, &reference.best)?;
        let _ = writeln!(
            out,
            "fixed-mapping level isolation (busy-cycle accounting):"
        );
        for (levels, p, g) in &iso {
            let _ = writeln!(out, "  {levels} levels: P = {p:.2} mW, Gamma = {g:.3e}");
        }
        let _ = writeln!(out);

        // Ablations.
        let (app, arch, mapping, scaling) = reference_design();
        let exp = exposure_ablation(&app, &arch, &mapping, &scaling)?;
        let _ = writeln!(out, "## Ablations (reference design: Table II Exp:4)");
        let _ = writeln!(
            out,
            "exposure: Gamma whole-run = {:.3e}, busy-only = {:.3e} ({:.0}% of whole-run)",
            exp.gamma_whole_run,
            exp.gamma_busy_only,
            exp.gamma_busy_only / exp.gamma_whole_run * 100.0
        );
        let seed_ab = seed_ablation(&app, &arch, &scaling, SearchBudget::fast(), 9)?;
        let _ = writeln!(
            out,
            "seeding:  search from SEA seed -> Gamma {:.3e}; from balanced seed -> {:.3e}; raw SEA seed {:.3e}",
            seed_ab.gamma_from_sea_seed, seed_ab.gamma_from_balanced_seed, seed_ab.gamma_sea_seed_raw
        );
        let sens = ser_sensitivity(&app, &arch, &mapping, &scaling, &[1e-10, 1e-9, 1e-8])?;
        let _ = write!(out, "SER sweep: ");
        for (ser, gamma) in &sens {
            let _ = write!(out, "lambda={ser:.0e} -> Gamma={gamma:.2e}  ");
        }
        let _ = writeln!(out);
        let mc = mc_from_results(&self.mc_designs, section(4));
        let _ = writeln!(out, "{}", mc_table(&mc).to_ascii());
        Ok(out)
    }
}
