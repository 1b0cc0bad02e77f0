//! Declarative multi-scenario design-space-exploration campaigns.
//!
//! The paper's evaluation is itself a campaign — Tables II/III and
//! Figs. 9/10/11 sweep applications × core counts × DVS levels ×
//! policies — and this crate makes that shape first class:
//!
//! 1. **Spec** ([`spec`]) — a hand-rolled TOML-lite grammar
//!    (`key = value` lines plus `[scenario]` sections, zero external
//!    dependencies) describing scenario grids, which
//!    [`Campaign::expand`] flattens into globally-indexed [`Unit`]s.
//! 2. **Pool** ([`pool`]) — a `std::thread::scope` worker pool that
//!    work-steals unit indices *across* scenarios. Every unit is a pure
//!    function of its own fields and per-unit seeds derive from the
//!    enumeration (never the worker count), so campaign results are
//!    bitwise identical for every `--jobs` value.
//! 3. **Sinks** ([`sink`]) — pluggable streaming observers (human table,
//!    CSV, JSONL) that emit each unit's result as it completes plus a
//!    deterministic enumeration-order final report.
//!
//! The experiment harnesses in `sea-experiments` define their tables and
//! figures as unit lists over this engine, and the `sea-dse campaign`
//! subcommand runs user-written spec files.
//!
//! # Example
//!
//! ```
//! use sea_campaign::{parse_campaign, run_units, NullSink};
//!
//! let campaign = parse_campaign(
//!     "name = \"demo\"\nbudget = \"fast\"\n\
//!      [scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n",
//! )
//! .expect("well-formed spec");
//! let units = campaign.expand();
//! let results = run_units(&units, 2, &mut NullSink).expect("units run");
//! assert_eq!(results.len(), 1);
//! assert_eq!(results[0].record.status, "ok");
//! ```

pub mod analytics;
pub mod cache;
pub mod hash;
pub mod journal;
pub mod pool;
pub mod sink;
pub mod spec;
pub mod unit;

pub use analytics::{
    csv_aggregates, gamma_win, human_aggregates, jsonl_aggregates, Aggregates, BestRow, ParetoRow,
    SpreadRow, WinRateRow, WinTally, GAMMA_WIN_TOLERANCE,
};
pub use cache::{
    decode_result, encode_result, validate_entry, Cache, EntryHealth, EntrySurvey, PruneOutcome,
    CACHE_ENV,
};
pub use hash::{unit_hash, units_hash, ContentHash, ContentHasher};
pub use journal::{
    open_journal, parse_journal, read_journal_records, Journal, JournalPlan, JournalWriter,
};
pub use pool::{
    dispatch_order, produce_unit, produce_unit_cancellable, run_units, run_units_configured,
    Completion, RunConfig, RunOutcome, RunState, UnitOutcome,
};
pub use sink::{
    csv_report, human_report, json_escape, json_record, jsonl_report, CsvSink, HumanSink,
    JsonlSink, NullSink, Sink,
};
pub use spec::{parse_campaign, Campaign, Scenario, ScenarioKind};
pub use unit::{
    decode_unit, encode_unit, level_set, run_unit, run_unit_cancellable, run_unit_with_jobs,
    AppRef, BudgetSpec, Unit, UnitKind, UnitPayload, UnitRecord, UnitResult,
};

use std::error::Error;
use std::fmt;

use sea_opt::OptError;
use sea_sim::SimError;
use sea_taskgraph::SpecError;

/// Errors produced by campaign parsing and execution.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CampaignError {
    /// Malformed campaign spec (message carries the line number).
    Spec(String),
    /// An application spec failed to build.
    App(SpecError),
    /// A unit's optimizer failed hard (infeasibility is *not* an error —
    /// it becomes a unit record).
    Opt(OptError),
    /// A simulate unit failed.
    Sim(SimError),
    /// A resume journal could not be created, read, appended or trusted
    /// (spec-hash mismatch, version skew, mid-file corruption).
    Journal(String),
    /// A distributed-execution transport failed (connection, handshake,
    /// frame or wire-codec error). The campaign crate owns the error
    /// vocabulary; the transports themselves live in `sea-dist`.
    Transport(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(msg) => write!(f, "campaign spec error: {msg}"),
            CampaignError::App(e) => write!(f, "application spec error: {e}"),
            CampaignError::Opt(e) => write!(f, "optimization error: {e}"),
            CampaignError::Sim(e) => write!(f, "simulation error: {e}"),
            CampaignError::Journal(msg) => write!(f, "campaign journal error: {msg}"),
            CampaignError::Transport(msg) => write!(f, "campaign transport error: {msg}"),
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Spec(_) | CampaignError::Journal(_) | CampaignError::Transport(_) => {
                None
            }
            CampaignError::App(e) => Some(e),
            CampaignError::Opt(e) => Some(e),
            CampaignError::Sim(e) => Some(e),
        }
    }
}

impl From<OptError> for CampaignError {
    fn from(e: OptError) -> Self {
        CampaignError::Opt(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<CampaignError>();
        assert!(CampaignError::Spec("line 3: boom".into())
            .to_string()
            .contains("line 3"));
    }
}
