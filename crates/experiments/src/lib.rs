//! Experiment harnesses regenerating every table and figure of the paper's
//! evaluation (§III and §V).
//!
//! | Paper artefact | Module | What it reproduces |
//! |----------------|--------|--------------------|
//! | Fig. 3(a)–(c)  | [`fig3`] | R/TM trade-off and Γ/TM concavity over 120 random mappings |
//! | Table II       | [`table2`] | Exp:1–Exp:3 (SA baselines) vs. Exp:4 (proposed) on the 4-core MPEG-2 decoder |
//! | Fig. 9         | [`fig9`] | Relative SEUs/power of Exp:1–3 vs. Exp:4 at matched scaling |
//! | Table III      | [`table3`] | Power/Γ of the proposed flow across 2–6 cores and six applications |
//! | Fig. 10        | [`fig10`] | Exp:3 vs. Exp:4 across core counts (60-task graph) |
//! | Fig. 11        | [`fig11`] | Impact of 2/3/4 voltage-scaling levels |
//! | (ours)         | [`ablations`] | Exposure policy, SER sensitivity, initial-mapping contribution, MC-vs-analytic validation |
//!
//! [`paper::Paper`] merges every table and figure into one campaign and
//! renders the whole report (`sea-dse reproduce`).
//!
//! Every harness is deterministic (seeded) and returns a typed report with
//! `to_ascii()` / `to_csv()` renderers; where the paper publishes numbers,
//! the report also carries them for side-by-side comparison (EXPERIMENTS.md
//! records the outcome).

pub mod ablations;
pub mod campaigns;
pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig9;
pub mod paper;
pub mod report;
pub mod table2;
pub mod table3;

pub use report::{Column, Table};

use sea_campaign::BudgetSpec;
use sea_opt::SearchBudget;

/// How much search effort the harnesses spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EffortProfile {
    /// Small budgets for unit tests and smoke runs.
    Smoke,
    /// The default profile used to produce EXPERIMENTS.md (a deterministic
    /// stand-in for the paper's 40–130 minute wall-clock limits).
    Paper,
}

impl EffortProfile {
    /// The campaign budget preset of this profile (the harnesses are
    /// campaign definitions, so the presets live in `sea-campaign`).
    #[must_use]
    pub fn budget_spec(self) -> BudgetSpec {
        match self {
            EffortProfile::Smoke => BudgetSpec::Smoke,
            EffortProfile::Paper => BudgetSpec::Paper,
        }
    }

    /// The per-scaling search budget of this profile.
    #[must_use]
    pub fn budget(self) -> SearchBudget {
        self.budget_spec().to_budget()
    }

    /// Base RNG seed shared by the harnesses (experiments decorrelate it).
    #[must_use]
    pub fn seed(self) -> u64 {
        0x5EA_D5E
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_scale_budgets() {
        assert!(
            EffortProfile::Paper.budget().max_evaluations
                > EffortProfile::Smoke.budget().max_evaluations
        );
    }
}
