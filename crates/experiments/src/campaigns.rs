//! The experiment harnesses as campaign definitions.
//!
//! Every driver in this crate describes its work as a list of
//! [`sea_campaign::Unit`]s and assembles its typed report from the
//! enumeration-ordered results — the hand-rolled optimize/catch loops the
//! modules used to carry live in the shared engine now. This module holds
//! the plumbing the drivers share plus the named built-in campaigns the
//! CLI exposes (`sea-dse campaign --list-builtin`).
//!
//! [`merge`] is the cross-scenario win: [`crate::paper::Paper`] (`sea-dse
//! reproduce`) concatenates the unit lists of *all* tables and figures
//! into one flat list and feeds a single worker pool, so a multi-core
//! host saturates on dozens of independent units instead of idling
//! between sequential harness calls.

use std::ops::Range;

use sea_campaign::{
    run_units, run_units_configured, CampaignError, NullSink, RunConfig, RunOutcome, Sink, Unit,
    UnitResult,
};

/// Runs a unit list on the engine's default worker count (`SEA_JOBS`, else
/// available parallelism) without streaming output.
///
/// # Errors
///
/// Propagates hard unit errors (infeasibility is data, not an error).
pub fn run(units: &[Unit]) -> Result<Vec<UnitResult>, CampaignError> {
    run_units(units, sea_opt::default_jobs(), &mut NullSink)
}

/// Execution counters of a configured (cache/journal-aware) run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Units actually evaluated by this process.
    pub executed: usize,
    /// Units restored from the result cache.
    pub cache_hits: usize,
    /// Units completed from an equal unit's result (the merged
    /// reproduction campaign repeats some units across tables and
    /// figures).
    pub deduped: usize,
    /// Units the resume journal already covered.
    pub resumed: usize,
}

/// Runs a unit list under a full [`RunConfig`] (cache, resume journal),
/// forcing payload restoration so every result carries its typed payload
/// — what the `from_results` assemblers need. With a warm cache this
/// evaluates zero units while returning results bit-identical to a cold
/// run.
///
/// # Errors
///
/// Propagates hard unit errors and journal-append failures.
pub fn run_configured(
    units: &[Unit],
    mut config: RunConfig<'_>,
    sink: &mut dyn Sink,
) -> Result<(Vec<UnitResult>, RunStats), CampaignError> {
    config.need_payloads = true;
    let outcome = run_units_configured(units, config, sink)?;
    Ok(results_and_stats(outcome))
}

/// [`run_configured`] through a localhost coordinator plus `workers`
/// in-process TCP workers instead of the thread pool — the `sea-dse
/// reproduce --distributed` smoke path. Every unit travels the full network path
/// (canonical unit encoding out, verified result bytes back), and the
/// assembled reports are byte-identical to the in-process run.
///
/// # Errors
///
/// Propagates transport failures, hard unit errors and journal-append
/// failures.
pub fn run_configured_distributed(
    units: &[Unit],
    mut config: RunConfig<'_>,
    sink: &mut dyn Sink,
    workers: usize,
) -> Result<(Vec<UnitResult>, RunStats), CampaignError> {
    config.need_payloads = true;
    let outcome = sea_dist::run_distributed_local(units, config, workers, sink)?;
    Ok(results_and_stats(outcome))
}

/// Splits the outcome of a run with [`RunConfig::need_payloads`] set into
/// its full results and its counters.
fn results_and_stats(outcome: RunOutcome) -> (Vec<UnitResult>, RunStats) {
    let stats = RunStats {
        executed: outcome.executed,
        cache_hits: outcome.cache_hits,
        deduped: outcome.deduped,
        resumed: outcome.resumed,
    };
    let results = outcome
        .into_results()
        .expect("need_payloads guarantees full results");
    (results, stats)
}

/// Concatenates per-driver unit lists into one flat, reindexed list,
/// returning the slice range each driver's results occupy. Feed the merged
/// list to one pool, then hand `&results[range]` back to each driver's
/// `from_results`.
#[must_use]
pub fn merge(sections: Vec<Vec<Unit>>) -> (Vec<Unit>, Vec<Range<usize>>) {
    let mut all = Vec::new();
    let mut ranges = Vec::with_capacity(sections.len());
    for section in sections {
        let start = all.len();
        for mut unit in section {
            unit.index = all.len();
            all.push(unit);
        }
        ranges.push(start..all.len());
    }
    (all, ranges)
}

/// A named campaign shipped with the binary.
#[derive(Debug, Clone, Copy)]
pub struct BuiltinCampaign {
    /// Name accepted by `sea-dse campaign --builtin <name>`.
    pub name: &'static str,
    /// One-line description for `--list-builtin`.
    pub description: &'static str,
    /// The campaign source in the `sea-campaign` spec grammar.
    pub source: &'static str,
}

/// The built-in campaigns.
#[must_use]
pub fn builtins() -> &'static [BuiltinCampaign] {
    &[
        BuiltinCampaign {
            name: "quickstart",
            description: "proposed flow on MPEG-2 and Fig. 8 across 3-4 cores (small budget)",
            source: "\
name = \"quickstart\"
budget = \"fast\"

[scenario]
name = \"proposed\"
kind = \"optimize\"
apps = \"mpeg2, fig8\"
cores = \"3-4\"

[scenario]
name = \"exp3-baseline\"
kind = \"baseline\"
objectives = \"tmr\"
apps = \"mpeg2\"
cores = \"4\"
",
        },
        BuiltinCampaign {
            name: "table2",
            description: "Table II: Exp:1-3 SA baselines vs the proposed flow (MPEG-2, 4 cores)",
            source: "\
name = \"table2\"
budget = \"smoke\"
seed = 6204766

[scenario]
name = \"baselines\"
kind = \"baseline\"
objectives = \"r,tm,tmr\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"6204766\"

[scenario]
name = \"proposed\"
kind = \"optimize\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"6204766\"
",
        },
        BuiltinCampaign {
            name: "cores",
            description: "Table III slice: proposed flow across 2-6 cores on MPEG-2 + random:60",
            source: "\
name = \"cores\"
budget = \"smoke\"

[scenario]
name = \"allocation\"
kind = \"optimize\"
apps = \"mpeg2, random:60:6204766\"
cores = \"2-6\"
",
        },
        BuiltinCampaign {
            name: "levels",
            description: "Fig. 11 slice: proposed flow under 2/3/4 DVS levels (random:60, 6 cores)",
            source: "\
name = \"levels\"
budget = \"smoke\"

[scenario]
name = \"dvs-levels\"
kind = \"optimize\"
apps = \"random:60:6204766\"
cores = \"6\"
levels = \"2-4\"
",
        },
        BuiltinCampaign {
            name: "fig3",
            description: "Fig. 3: 120 random MPEG-2 mappings at uniform scaling 1 and 2",
            source: "\
name = \"fig3\"

[scenario]
name = \"mapping-study\"
kind = \"sweep\"
apps = \"mpeg2\"
cores = \"4\"
count = 120
scales = \"1,2\"
seeds = \"42\"
",
        },
    ]
}

/// Looks a built-in campaign up by name.
#[must_use]
pub fn builtin(name: &str) -> Option<&'static BuiltinCampaign> {
    builtins().iter().find(|b| b.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_campaign::parse_campaign;

    #[test]
    fn every_builtin_parses_and_expands() {
        for b in builtins() {
            let campaign = parse_campaign(b.source)
                .unwrap_or_else(|e| panic!("builtin `{}` does not parse: {e}", b.name));
            assert_eq!(campaign.name, b.name, "builtin name matches spec name");
            assert!(
                !campaign.expand().is_empty(),
                "builtin `{}` expands to no units",
                b.name
            );
        }
        assert!(builtin("quickstart").is_some());
        assert!(builtin("nope").is_none());
    }

    #[test]
    fn merge_reindexes_and_slices() {
        let units = parse_campaign(builtins()[0].source).unwrap().expand();
        let n = units.len();
        let (all, ranges) = merge(vec![units.clone(), units]);
        assert_eq!(all.len(), 2 * n);
        assert_eq!(ranges, vec![0..n, n..2 * n]);
        for (i, unit) in all.iter().enumerate() {
            assert_eq!(unit.index, i);
        }
    }
}
