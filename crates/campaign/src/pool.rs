//! The shared worker pool: executes a flat unit list across scenarios.
//!
//! The threads are the workspace's one pool, [`sea_taskgraph::par`]:
//! the calling thread and `jobs - 1` helpers pull unit indices from a
//! shared counter (work stealing over the dispatch order — no
//! per-scenario barriers, so a wide campaign keeps every core busy until
//! the tail), and the helpers hand each `(index, result)` back to the
//! calling thread, which takes them between its own units. There
//! [`RunState::complete`] streams each completion to the sink as the
//! calling thread receives it — in *completion* order, except that a
//! helper's completion can wait for the caller's unit in progress — and
//! slots the result by *enumeration* index, so the returned list — and
//! every final report rendered from it — is bitwise identical for any
//! worker count. Units are pure functions of their own fields
//! ([`crate::unit`]), which is the whole guarantee: scheduling can only
//! change wall-clock and the interleaving of progress lines.
//!
//! [`run_units_configured`] layers the persistence machinery on top, all
//! of it decided and enforced by [`RunState`], which every backend
//! drives:
//!
//! * **Within-campaign dedupe** — pending units with equal
//!   [`unit_hash`] are one computation (index and scenario are
//!   presentation). Each such group evaluates its lowest index once, and
//!   that result completes the others, rebound to their own index and
//!   scenario ([`RunOutcome::deduped`]). A leader's hard error fails its
//!   followers too.
//! * **Journal prefills** ([`RunConfig::prefilled`]) — units restored
//!   from a `--resume` journal are never re-executed (unless the caller
//!   [`RunConfig::need_payloads`] and the cache cannot supply the typed
//!   payload); only the missing indices reach the workers.
//! * **Result cache** ([`RunConfig::cache`]) — workers consult the
//!   content-addressed cache *before* evaluating and publish fresh
//!   results back to it. A cache hit counts as a completion (it streams
//!   to the sink and lands in the journal); a prefilled unit does not
//!   (it already completed in a previous process). A run that reads no
//!   payloads ([`RunConfig::need_payloads`] false) decodes only the
//!   record of a hit ([`probe_cache`]).
//! * **Write-ahead journal** ([`RunConfig::journal`]) — the
//!   single-threaded collector durably appends each newly completed
//!   record before the final report exists, so a killed campaign loses
//!   at most its in-flight units.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use sea_taskgraph::par::par;

use crate::cache::Cache;
use crate::hash::{unit_hash, ContentHash};
use crate::journal::JournalWriter;
use crate::sink::Sink;
use crate::unit::{run_unit_cancellable, Unit, UnitRecord, UnitResult};
use crate::CampaignError;

/// How one unit of a configured run completed.
#[derive(Debug)]
pub enum UnitOutcome {
    /// Executed this run (or restored from the cache with its full typed
    /// payload, for a run that reads payloads).
    Full(UnitResult),
    /// Restored record-only — from a resume journal, or from the cache by
    /// a run that reads no payloads ([`Cache::load_record`]). The numbers
    /// are final; the typed payload was not decoded.
    Restored(UnitRecord),
}

impl UnitOutcome {
    /// This outcome as the outcome of `unit`, which has the same
    /// [`unit_hash`]: index and scenario are taken from `unit`.
    #[must_use]
    pub fn rebound(&self, unit: &Unit) -> UnitOutcome {
        match self {
            UnitOutcome::Full(r) => UnitOutcome::Full(UnitResult::rebound(
                unit,
                r.payload.clone(),
                r.record.clone(),
            )),
            UnitOutcome::Restored(r) => UnitOutcome::Restored(r.clone().rebound(unit)),
        }
    }

    /// The flat record, whichever way the unit completed.
    #[must_use]
    pub fn record(&self) -> &UnitRecord {
        match self {
            UnitOutcome::Full(r) => &r.record,
            UnitOutcome::Restored(r) => r,
        }
    }

    /// The full result, when the payload exists.
    #[must_use]
    pub fn result(&self) -> Option<&UnitResult> {
        match self {
            UnitOutcome::Full(r) => Some(r),
            UnitOutcome::Restored(_) => None,
        }
    }
}

/// The outcome of a configured run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Per-unit outcomes in enumeration order.
    pub units: Vec<UnitOutcome>,
    /// Units actually evaluated by this process.
    pub executed: usize,
    /// Units restored from the result cache.
    pub cache_hits: usize,
    /// Units completed from the result of an earlier unit of this run
    /// with the same [`unit_hash`], instead of their own evaluation.
    pub deduped: usize,
    /// Units restored from the resume journal without re-execution.
    pub resumed: usize,
}

impl RunOutcome {
    /// The flat records in enumeration order (what the sinks render).
    #[must_use]
    pub fn records(&self) -> Vec<UnitRecord> {
        self.units.iter().map(|u| u.record().clone()).collect()
    }

    /// Unwraps every unit into a full result; `None` if any unit was
    /// restored record-only (callers that need payloads must run with
    /// [`RunConfig::need_payloads`]).
    #[must_use]
    pub fn into_results(self) -> Option<Vec<UnitResult>> {
        self.units
            .into_iter()
            .map(|u| match u {
                UnitOutcome::Full(r) => Some(r),
                UnitOutcome::Restored(_) => None,
            })
            .collect()
    }
}

/// Execution options for [`run_units_configured`].
pub struct RunConfig<'a> {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Content-addressed result cache, consulted before evaluating and
    /// published to (best-effort) after.
    pub cache: Option<&'a Cache>,
    /// Records restored from a resume journal, by enumeration index.
    /// Empty = nothing prefilled. Must be empty or `units.len()` long.
    pub prefilled: Vec<Option<UnitRecord>>,
    /// When true (the experiment harnesses), a prefilled record alone
    /// cannot satisfy a unit: the pool restores the typed payload from
    /// the cache or re-executes. When false, a cache hit decodes only
    /// the record ([`probe_cache`]).
    pub need_payloads: bool,
    /// Write-ahead journal appender; each newly completed unit is durably
    /// recorded in completion order. Owned, so long-lived callers (the
    /// `sea-dist` coordinator keeps one `RunState` per active campaign) need
    /// no borrow arena behind their state registry.
    pub journal: Option<JournalWriter>,
}

impl<'a> RunConfig<'a> {
    /// Plain run: no cache, no journal, nothing prefilled.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        RunConfig {
            jobs,
            cache: None,
            prefilled: Vec::new(),
            need_payloads: false,
            journal: None,
        }
    }
}

/// One unit's completion, as produced by [`produce_unit_cancellable`]
/// (or restored from a cache/network transport) and consumed by
/// [`RunState::complete`].
#[derive(Debug)]
pub struct Completion {
    /// Enumeration position (authoritative for slotting, independent of
    /// `unit.index`).
    pub index: usize,
    /// The outcome, or the hard error that produced none.
    pub result: Result<UnitOutcome, CampaignError>,
    /// Whether the result was restored from the result cache rather than
    /// evaluated.
    pub from_cache: bool,
}

/// The order a backend should hand `pending` units to workers: most
/// expensive first ([`Unit::cost_estimate`]), enumeration index as the
/// tiebreak. Starting the straggler early shrinks the tail a
/// work-stealing pool (or a fleet of network workers) idles through —
/// and because completions slot by enumeration index, dispatch order can
/// only change wall-clock and progress-line interleaving, never a
/// report.
#[must_use]
pub fn dispatch_order(units: &[Unit], pending: &[usize]) -> Vec<usize> {
    let mut order: Vec<(u64, usize)> = pending
        .iter()
        .map(|&i| (units[i].cost_estimate(), i))
        .collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    order.into_iter().map(|(_, i)| i).collect()
}

/// Probes `cache` for `unit`, whose [`unit_hash`] is `hash`, the way a
/// run reads it: the full result ([`Cache::load`]) when the run needs
/// payloads, else the record alone ([`Cache::load_record`]), which skips
/// the payload decode. The thread pool and the coordinator's dispatch
/// path both probe through here.
#[must_use]
pub fn probe_cache(
    cache: &Cache,
    unit: &Unit,
    hash: ContentHash,
    need_payloads: bool,
) -> Option<UnitOutcome> {
    if need_payloads {
        cache.load(unit).map(UnitOutcome::Full)
    } else {
        cache.load_record(unit, hash).map(UnitOutcome::Restored)
    }
}

/// Runs one unit the way a network worker of `sea-dist` does: a full
/// cache probe (a worker ships the whole entry), then execution plus
/// best-effort cache publication. `index` is the enumeration position
/// (authoritative for slotting, independent of `unit.index`). The thread
/// pool produces units the same way, except that it probes through
/// [`probe_cache`], record-only when its run reads no payloads.
///
/// `cancel` is a cooperative cancellation flag threaded into the unit's
/// optimizer. Network workers install one so a lost coordinator (or a
/// daemon-side `Cancel`) stops the in-flight unit at the next
/// scaling-chunk boundary; a cancelled completion carries
/// [`sea_opt::OptError::Cancelled`] and is never published to the cache.
#[must_use]
pub fn produce_unit_cancellable(
    index: usize,
    unit: &Unit,
    cache: Option<&Cache>,
    inner_jobs: usize,
    cancel: Option<&Arc<AtomicBool>>,
) -> Completion {
    produce(
        index,
        unit,
        unit_hash(unit),
        cache,
        true,
        inner_jobs,
        cancel,
    )
}

/// [`produce_unit_cancellable`] with the probe of [`probe_cache`].
fn produce(
    index: usize,
    unit: &Unit,
    hash: ContentHash,
    cache: Option<&Cache>,
    need_payloads: bool,
    inner_jobs: usize,
    cancel: Option<&Arc<AtomicBool>>,
) -> Completion {
    if let Some(outcome) = cache.and_then(|c| probe_cache(c, unit, hash, need_payloads)) {
        return Completion {
            index,
            result: Ok(outcome),
            from_cache: true,
        };
    }
    let result = run_unit_cancellable(unit, inner_jobs, cancel);
    if let (Some(cache), Ok(r)) = (cache, &result) {
        // Best-effort: a full disk must not fail the campaign.
        let _ = cache.store(r);
    }
    Completion {
        index,
        result: result.map(UnitOutcome::Full),
        from_cache: false,
    }
}

/// The unit-source/result-slot state machine shared by every execution
/// backend: the in-process thread pool ([`run_units_configured`]) and the
/// `sea-dist` coordinator both *drive* a `RunState` instead of
/// re-implementing the dedupe/prefill/cache/journal discipline.
///
/// [`RunState::plan`] makes the one decision that must never drift
/// between backends — "does this unit need evaluation, and where does its
/// result go" — and [`RunState::complete`] enforces the merge discipline:
/// results slot by enumeration index, stream to the sink in completion
/// order, and append to the write-ahead journal exactly once, so the
/// final report is byte-identical no matter which backend (or how many
/// workers, threads or machines) produced the completions.
#[derive(Debug)]
pub struct RunState {
    slots: Vec<Option<UnitOutcome>>,
    errors: Vec<Option<CampaignError>>,
    pending: Vec<usize>,
    /// Every unit's [`unit_hash`], by enumeration index.
    hashes: Vec<ContentHash>,
    /// Leader → the index and unit of each pending unit with its
    /// [`unit_hash`], in enumeration order. Only leaders with followers
    /// have an entry, so only they pay for the fan-out.
    followers: HashMap<usize, Vec<(usize, Unit)>>,
    journaled: Vec<bool>,
    journal: Option<JournalWriter>,
    need_payloads: bool,
    resumed: usize,
    executed: usize,
    cache_hits: usize,
    deduped: usize,
    outstanding: usize,
    journal_error: Option<CampaignError>,
}

impl RunState {
    /// Plans a run: decides, per unit, whether it still needs evaluation,
    /// and groups the units that do by [`unit_hash`]: each group's lowest
    /// index leads and is the only one a backend produces.
    ///
    /// A prefilled (journal-restored) record satisfies its unit unless the
    /// caller needs typed payloads, in which case the unit re-enters the
    /// pending list (the cache may still satisfy it without re-execution)
    /// while `journaled` remembers that its record is already durable.
    ///
    /// # Panics
    ///
    /// Panics if `prefilled` is non-empty but not `units.len()` long.
    #[must_use]
    pub fn plan(
        units: &[Unit],
        mut prefilled: Vec<Option<UnitRecord>>,
        need_payloads: bool,
        journal: Option<JournalWriter>,
    ) -> Self {
        if prefilled.is_empty() {
            prefilled = (0..units.len()).map(|_| None).collect();
        }
        assert_eq!(
            prefilled.len(),
            units.len(),
            "prefilled slots must match the unit list"
        );
        let mut slots: Vec<Option<UnitOutcome>> = (0..units.len()).map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::with_capacity(units.len());
        let mut journaled: Vec<bool> = (0..units.len()).map(|_| false).collect();
        let mut resumed = 0usize;
        for (i, slot) in prefilled.into_iter().enumerate() {
            match slot {
                Some(record) if !need_payloads => {
                    resumed += 1;
                    slots[i] = Some(UnitOutcome::Restored(record));
                }
                Some(_) => {
                    resumed += 1;
                    journaled[i] = true;
                    pending.push(i);
                }
                None => pending.push(i),
            }
        }
        let outstanding = pending.len();
        let hashes: Vec<ContentHash> = units.iter().map(unit_hash).collect();
        let mut first: HashMap<ContentHash, usize> = HashMap::with_capacity(outstanding);
        let mut followers: HashMap<usize, Vec<(usize, Unit)>> = HashMap::new();
        pending.retain(|&i| match first.entry(hashes[i]) {
            Entry::Vacant(slot) => {
                slot.insert(i);
                true
            }
            Entry::Occupied(leader) => {
                let follower = (i, units[i].clone());
                followers.entry(*leader.get()).or_default().push(follower);
                false
            }
        });
        RunState {
            errors: (0..units.len()).map(|_| None).collect(),
            slots,
            pending,
            hashes,
            followers,
            journaled,
            journal,
            need_payloads,
            resumed,
            executed: 0,
            cache_hits: 0,
            deduped: 0,
            outstanding,
            journal_error: None,
        }
    }

    /// The enumeration indices a backend must produce: the leader of
    /// each group of equal-hash units that need a completion, in
    /// enumeration order. Completing a leader completes its group.
    #[must_use]
    pub fn pending(&self) -> &[usize] {
        &self.pending
    }

    /// The [`unit_hash`] of the unit at `index`.
    #[must_use]
    pub fn hash(&self, index: usize) -> ContentHash {
        self.hashes[index]
    }

    /// Whether the run reads typed payloads ([`RunConfig::need_payloads`]).
    /// A cache hit of a run that does not is record-only
    /// ([`probe_cache`]).
    #[must_use]
    pub fn needs_payloads(&self) -> bool {
        self.need_payloads
    }

    /// How many units (leaders and their followers) have not completed
    /// yet. At plan time this is the count a progress stream runs to.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Units evaluated so far by this backend (fresh executions).
    #[must_use]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Units restored so far from the result cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Units restored from the resume journal at plan time.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Whether `index` already has a completion (a re-queued unit whose
    /// original worker turned out to be alive produces duplicates; the
    /// first completion wins).
    #[must_use]
    pub fn is_filled(&self, index: usize) -> bool {
        self.slots[index].is_some() || self.errors[index].is_some()
    }

    /// The record slotted at `index` — restored at plan time or completed
    /// since — or `None` while it is missing, failed or out of range.
    #[must_use]
    pub fn record(&self, index: usize) -> Option<&UnitRecord> {
        self.slots.get(index)?.as_ref().map(UnitOutcome::record)
    }

    /// Records one completion and, for a group leader, a copy of it (or
    /// of its hard error) for each follower, rebound to the follower's
    /// own index and scenario and counted as deduped. Each streams to the
    /// sink (completion order), appends to the journal (once — prefilled
    /// records are already durable), and slots by enumeration index.
    ///
    /// Returns `false` when the run must halt because a journal append
    /// failed (the write-ahead guarantee is gone); the error surfaces from
    /// [`RunState::finish`]. Hard unit errors do *not* halt — the rest of
    /// the campaign still runs, and the first error by enumeration index
    /// is raised at the end. Duplicate completions are ignored.
    pub fn complete(&mut self, done: Completion, sink: &mut dyn Sink) -> bool {
        let Completion {
            index,
            result,
            from_cache,
        } = done;
        if self.is_filled(index) {
            return true;
        }
        if from_cache {
            self.cache_hits += 1;
        } else {
            self.executed += 1;
        }
        let copies: Vec<(usize, Result<UnitOutcome, CampaignError>)> = self
            .followers
            .remove(&index)
            .unwrap_or_default()
            .into_iter()
            .map(|(f, unit)| {
                let copy = match &result {
                    Ok(outcome) => Ok(outcome.rebound(&unit)),
                    Err(e) => Err(e.clone()),
                };
                (f, copy)
            })
            .collect();
        self.settle(index, result, sink)
            && copies.into_iter().all(|(f, copy)| {
                if self.is_filled(f) {
                    return true;
                }
                self.deduped += 1;
                self.settle(f, copy, sink)
            })
    }

    /// Streams, journals and slots one counted completion.
    fn settle(
        &mut self,
        index: usize,
        result: Result<UnitOutcome, CampaignError>,
        sink: &mut dyn Sink,
    ) -> bool {
        self.outstanding -= 1;
        match result {
            Ok(outcome) => {
                sink.unit_completed(outcome.record());
                if let (Some(journal), false) = (self.journal.as_mut(), self.journaled[index]) {
                    if let Err(e) = journal.append(index, self.hashes[index], outcome.record()) {
                        self.journal_error = Some(CampaignError::Journal(format!(
                            "cannot append unit {index} to the journal: {e} — \
                             aborting so the write-ahead guarantee is not silently lost"
                        )));
                        return false;
                    }
                }
                self.slots[index] = Some(outcome);
            }
            Err(e) => {
                self.errors[index] = Some(e);
            }
        }
        true
    }

    /// Finishes the run: raises a journal failure or the first (by
    /// enumeration index) hard unit error, otherwise renders the final
    /// report through the sink and returns the outcome.
    ///
    /// # Errors
    ///
    /// The stashed journal-append failure, else the first unit error.
    ///
    /// # Panics
    ///
    /// Panics if completions are still outstanding and no error explains
    /// the gap — a backend must drain before finishing.
    pub fn finish(self, sink: &mut dyn Sink) -> Result<RunOutcome, CampaignError> {
        if let Some(e) = self.journal_error {
            return Err(e);
        }
        if let Some(e) = self.errors.into_iter().flatten().next() {
            return Err(e);
        }
        let units_out: Vec<UnitOutcome> = self
            .slots
            .into_iter()
            .map(|slot| slot.expect("every unit reports exactly once"))
            .collect();
        let records: Vec<UnitRecord> = units_out.iter().map(|u| u.record().clone()).collect();
        sink.finish(&records);
        Ok(RunOutcome {
            units: units_out,
            executed: self.executed,
            cache_hits: self.cache_hits,
            deduped: self.deduped,
            resumed: self.resumed,
        })
    }
}

/// Executes `units` under the full persistence configuration, streaming
/// completions to `sink`.
///
/// Outcomes are in enumeration order, so every report rendered from them
/// is byte-identical for any worker count, any cache state and any
/// resume point. The sink's [`Sink::begin`] and
/// [`Sink::unit_completed`] observe only units that complete *in this
/// process* (fresh executions and cache hits — so a resumed run's
/// progress counts to its own total, not the campaign's), in the order
/// the calling thread receives them (see the module docs);
/// [`Sink::finish`] always observes every record in enumeration order.
///
/// # Errors
///
/// Propagates the first (by enumeration index) hard unit error after all
/// workers have drained, and journal-append failures immediately —
/// infeasible units are results, not errors.
///
/// # Panics
///
/// Panics if `prefilled` is non-empty but not `units.len()` long.
pub fn run_units_configured(
    units: &[Unit],
    config: RunConfig<'_>,
    sink: &mut dyn Sink,
) -> Result<RunOutcome, CampaignError> {
    let RunConfig {
        jobs,
        cache,
        prefilled,
        need_payloads,
        journal,
    } = config;
    let mut state = RunState::plan(units, prefilled, need_payloads, journal);

    // The progress stream counts what *this process* will complete —
    // on a resume, "[3/3]" (not a never-reached "[3/10]") is what tells
    // an observer the run finished rather than aborted. The final report
    // still covers every unit.
    sink.begin(state.outstanding());

    // Equal-hash units are one computation: only each group's leader is
    // produced, and its completion fans out to the rest.
    let pending = state.pending().to_vec();
    let requested = jobs.max(1);
    let jobs = requested.min(pending.len().max(1));
    // Narrow campaigns must not strand capacity: when there are fewer
    // pending units than requested workers, the surplus is handed down to
    // each unit's own scaling enumeration (whose outcome is job-count
    // invariant), so a one-unit campaign on a 16-way host still uses the
    // machine.
    let inner_jobs = (requested / pending.len().max(1)).max(1);

    // Sequential runs keep enumeration order: with one worker there is
    // no straggler tail to shrink, and in-order progress lines are
    // easier to follow.
    let order = if jobs <= 1 {
        pending
    } else {
        dispatch_order(units, &pending)
    };
    // The jobs read the hashes while the callback holds the state.
    let hashes: Vec<ContentHash> = (0..units.len()).map(|i| state.hash(i)).collect();
    let produce_one = |i: usize| {
        produce(
            i,
            &units[i],
            hashes[i],
            cache,
            need_payloads,
            inner_jobs,
            None,
        )
    };
    par(jobs, &order, produce_one, |_, done| {
        if state.complete(done, sink) {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });

    state.finish(sink)
}

/// Executes `units` on `jobs` workers, streaming completions to `sink`.
///
/// Returns results in enumeration order. The sink's
/// [`Sink::unit_completed`] observes completion order (nondeterministic
/// under `jobs > 1`); its [`Sink::finish`] always observes enumeration
/// order.
///
/// # Errors
///
/// Propagates the first (by enumeration index) hard unit error after all
/// workers have drained — infeasible units are results, not errors.
pub fn run_units(
    units: &[Unit],
    jobs: usize,
    sink: &mut dyn Sink,
) -> Result<Vec<UnitResult>, CampaignError> {
    let outcome = run_units_configured(units, RunConfig::new(jobs), sink)?;
    Ok(outcome
        .into_results()
        .expect("a plain run has no record-only restorations"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::NullSink;
    use crate::spec::parse_campaign;

    const SMALL: &str = "\
name = \"pool-test\"
budget = \"fast\"
[scenario]
kind = \"optimize\"
apps = \"mpeg2, fig8\"
cores = \"3,4\"
[scenario]
kind = \"sweep\"
apps = \"mpeg2\"
cores = \"4\"
count = 15
";

    #[test]
    fn results_are_identical_across_worker_counts() {
        let units = parse_campaign(SMALL).unwrap().expand();
        let run = |jobs| run_units(&units, jobs, &mut NullSink).unwrap();
        let seq = run(1);
        for jobs in [2, 8] {
            let par = run(jobs);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.record.status, b.record.status, "jobs={jobs}");
                assert_eq!(
                    a.record.gamma.map(f64::to_bits),
                    b.record.gamma.map(f64::to_bits),
                    "jobs={jobs}"
                );
                assert_eq!(
                    a.record.power_mw.map(f64::to_bits),
                    b.record.power_mw.map(f64::to_bits),
                    "jobs={jobs}"
                );
                assert_eq!(a.record.mapping, b.record.mapping, "jobs={jobs}");
                assert_eq!(a.record.evaluations, b.record.evaluations, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn sink_sees_every_unit_and_ordered_finish() {
        struct Counting {
            begun: usize,
            streamed: Vec<usize>,
            finished: Vec<usize>,
        }
        impl Sink for Counting {
            fn begin(&mut self, total: usize) {
                self.begun = total;
            }
            fn unit_completed(&mut self, record: &crate::unit::UnitRecord) {
                self.streamed.push(record.index);
            }
            fn finish(&mut self, records: &[crate::unit::UnitRecord]) {
                self.finished = records.iter().map(|r| r.index).collect();
            }
        }
        let units = parse_campaign(SMALL).unwrap().expand();
        let mut sink = Counting {
            begun: 0,
            streamed: Vec::new(),
            finished: Vec::new(),
        };
        run_units(&units, 4, &mut sink).unwrap();
        assert_eq!(sink.begun, units.len());
        let mut streamed = sink.streamed.clone();
        streamed.sort_unstable();
        assert_eq!(streamed, (0..units.len()).collect::<Vec<_>>());
        // The final report is always in enumeration order.
        assert_eq!(sink.finished, (0..units.len()).collect::<Vec<_>>());
    }

    #[test]
    fn dispatch_order_is_cost_descending_with_index_tiebreak() {
        let units = parse_campaign(SMALL).unwrap().expand();
        let pending: Vec<usize> = (0..units.len()).collect();
        let order = dispatch_order(&units, &pending);
        // A permutation of the pending list...
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, pending);
        // ...in non-increasing cost order, index-ascending within ties.
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ca, cb) = (units[a].cost_estimate(), units[b].cost_estimate());
            assert!(ca > cb || (ca == cb && a < b), "order violated at {a},{b}");
        }
        // The front of the queue is a surviving-scalings × budget
        // optimize unit, not the 15-mapping sweep (fig8's tight deadline
        // may prune its optimize units below the sweep — that's the cost
        // model working, not a tie to pin).
        let first = &units[order[0]];
        assert!(matches!(first.kind, crate::unit::UnitKind::Optimize));
        assert_eq!(first.app.label(), "mpeg2");
    }

    #[test]
    fn run_state_ignores_duplicate_completions() {
        // A re-queued unit whose original worker turns out to be alive
        // (network dispatch) delivers the same index twice; the first
        // completion must win and the counters must not double.
        let units = parse_campaign(SMALL).unwrap().expand();
        let mut state = RunState::plan(&units, Vec::new(), false, None);
        assert_eq!(state.pending().len(), units.len());
        assert_eq!(state.outstanding(), units.len());
        for &i in &units.iter().map(|u| u.index).collect::<Vec<_>>() {
            let done = produce_unit_cancellable(i, &units[i], None, 1, None);
            assert!(state.complete(done, &mut NullSink));
            assert!(state.is_filled(i));
            // The duplicate is dropped on the floor.
            let dup = produce_unit_cancellable(i, &units[i], None, 1, None);
            assert!(state.complete(dup, &mut NullSink));
        }
        assert_eq!(state.outstanding(), 0);
        let outcome = state.finish(&mut NullSink).unwrap();
        assert_eq!(outcome.executed, units.len(), "duplicates not counted");
        assert_eq!(outcome.units.len(), units.len());
    }

    #[test]
    fn a_failing_leader_fills_its_followers() {
        let mut units = parse_campaign(SMALL).unwrap().expand();
        // Unit 2 becomes a duplicate of unit 0 under another scenario.
        units[2] = Unit {
            index: 2,
            scenario: "copy".into(),
            ..units[0].clone()
        };
        let mut state = RunState::plan(&units, Vec::new(), false, None);
        assert_eq!(state.pending().len(), units.len() - 1);
        assert!(!state.pending().contains(&2));
        assert_eq!(state.outstanding(), units.len());
        let failed = Completion {
            index: 0,
            result: Err(CampaignError::Spec("boom".into())),
            from_cache: false,
        };
        assert!(state.complete(failed, &mut NullSink));
        assert!(state.is_filled(2), "the follower failed with its leader");
        assert_eq!(state.outstanding(), units.len() - 2);
        assert_eq!((state.executed(), state.deduped), (1, 1));
    }

    #[test]
    fn prefilled_units_are_not_reexecuted_and_reports_match() {
        let units = parse_campaign(SMALL).unwrap().expand();
        let full = run_units(&units, 2, &mut NullSink).unwrap();
        let records: Vec<UnitRecord> = full.iter().map(|r| r.record.clone()).collect();

        // Prefill the first half as a resume journal would.
        let half = units.len() / 2;
        let mut config = RunConfig::new(2);
        config.prefilled = records
            .iter()
            .enumerate()
            .map(|(i, r)| (i < half).then(|| r.clone()))
            .collect();
        let outcome = run_units_configured(&units, config, &mut NullSink).unwrap();
        assert_eq!(outcome.resumed, half);
        assert_eq!(outcome.executed, units.len() - half);
        let resumed_records = outcome.records();
        for (a, b) in records.iter().zip(&resumed_records) {
            assert_eq!(crate::sink::json_record(a), crate::sink::json_record(b));
        }
        // Record-only restorations carry no payload.
        assert!(outcome.units[0].result().is_none());
        assert!(outcome.units[half].result().is_some());
    }
}
