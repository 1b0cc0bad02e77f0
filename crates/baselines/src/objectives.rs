//! Classic soft error-unaware mapping objectives (paper §V, Table II).

use serde::{Deserialize, Serialize};

use sea_sched::metrics::{EvalSummary, MappingEvaluation};

/// The figure of merit a baseline minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Exp:1 — minimize total register usage `R` (memory-aware
    /// distribution in the spirit of the paper's ref. \[13\]).
    RegisterUsage,
    /// Exp:2 — maximize parallelism: minimize multiprocessor execution
    /// time `TM`.
    Parallelism,
    /// Exp:3 — minimize the product `TM · R`.
    RegTimeProduct,
}

impl Objective {
    /// Every objective, in experiment order.
    const ALL: [Objective; 3] = [
        Objective::RegisterUsage,
        Objective::Parallelism,
        Objective::RegTimeProduct,
    ];

    /// The keyword the CLI, the campaign grammar and the unit encoding
    /// spell this objective with.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Objective::RegisterUsage => "r",
            Objective::Parallelism => "tm",
            Objective::RegTimeProduct => "tmr",
        }
    }

    /// Parses a [`keyword`](Self::keyword).
    ///
    /// # Errors
    ///
    /// Names the accepted keywords for anything else.
    pub fn from_keyword(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|o| o.keyword() == s)
            .ok_or_else(|| {
                let accepted = Self::ALL.map(Objective::keyword).join("|");
                format!("unknown objective `{s}` ({accepted})")
            })
    }

    /// Raw objective value for an evaluation summary (lower is better) —
    /// the `Copy`, allocation-free form the annealing loop scores with.
    #[must_use]
    pub fn score_summary(self, eval: &EvalSummary) -> f64 {
        match self {
            Objective::RegisterUsage => eval.r_total.as_f64(),
            Objective::Parallelism => eval.tm_seconds,
            Objective::RegTimeProduct => eval.tm_seconds * eval.r_total.as_f64(),
        }
    }

    /// Raw objective value for an evaluated design (lower is better).
    #[must_use]
    pub fn score(self, eval: &MappingEvaluation) -> f64 {
        self.score_summary(&eval.summary())
    }

    /// [`Objective::penalized_score`] over a summary.
    #[must_use]
    pub fn penalized_summary(self, eval: &EvalSummary, deadline_s: f64) -> f64 {
        self.score_summary(eval) * sea_opt::optimized::deadline_penalty_factor(eval, deadline_s)
    }

    /// Score with a deadline penalty: infeasible designs are pushed above
    /// every feasible one, ordered by how badly they overshoot. The penalty
    /// shape is the proposed flow's
    /// ([`sea_opt::optimized::deadline_penalty_factor`]), so a penalized
    /// score ranks infeasible designs the way that flow's annealer does.
    #[must_use]
    pub fn penalized_score(self, eval: &MappingEvaluation, deadline_s: f64) -> f64 {
        self.penalized_summary(&eval.summary(), deadline_s)
    }

    /// The Table II experiment label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Objective::RegisterUsage => "Exp:1 (Reg. Usage)",
            Objective::Parallelism => "Exp:2 (Parallelism)",
            Objective::RegTimeProduct => "Exp:3 (Reg. Usage & Paral.)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_taskgraph::units::Bits;

    fn eval(tm: f64, r_bits: u64, meets: bool) -> MappingEvaluation {
        MappingEvaluation {
            tm_seconds: tm,
            tm_nominal_cycles: tm * 200e6,
            meets_deadline: meets,
            power_mw: 5.0,
            gamma: 1.0,
            r_total: Bits::new(r_bits),
            per_core: Vec::new(),
        }
    }

    #[test]
    fn scores_match_definitions() {
        let e = eval(2.0, 80_000, true);
        assert_eq!(Objective::RegisterUsage.score(&e), 80_000.0);
        assert_eq!(Objective::Parallelism.score(&e), 2.0);
        assert_eq!(Objective::RegTimeProduct.score(&e), 160_000.0);
    }

    #[test]
    fn infeasible_designs_rank_below_feasible_ones() {
        let good = eval(9.9, 100_000, true);
        let bad = eval(10.1, 50_000, false);
        for obj in [
            Objective::RegisterUsage,
            Objective::Parallelism,
            Objective::RegTimeProduct,
        ] {
            assert!(
                obj.penalized_score(&bad, 10.0) > obj.penalized_score(&good, 10.0),
                "{obj:?}"
            );
        }
    }

    #[test]
    fn worse_overshoot_scores_worse() {
        let a = eval(10.5, 50_000, false);
        let b = eval(12.0, 50_000, false);
        let obj = Objective::RegisterUsage;
        assert!(obj.penalized_score(&b, 10.0) > obj.penalized_score(&a, 10.0));
    }

    #[test]
    fn keywords_round_trip() {
        for o in Objective::ALL {
            assert_eq!(Objective::from_keyword(o.keyword()), Ok(o));
        }
        assert_eq!(
            Objective::from_keyword("x"),
            Err("unknown objective `x` (r|tm|tmr)".into())
        );
    }

    #[test]
    fn labels_name_the_experiments() {
        assert!(Objective::RegisterUsage.label().contains("Exp:1"));
        assert!(Objective::Parallelism.label().contains("Exp:2"));
        assert!(Objective::RegTimeProduct.label().contains("Exp:3"));
    }
}
