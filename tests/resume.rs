//! Crash/resume equivalence and cache-behavior integration tests.
//!
//! The persistence layer's contract is absolute: a campaign killed at
//! *any* unit boundary and resumed from its journal — at any worker
//! count — must produce final reports **byte-identical** to an
//! uninterrupted run, in every output format; and a warm result cache
//! must short-circuit every evaluation while changing nothing in the
//! output. These tests simulate the kill by truncating a real journal
//! after k ∈ {0, 1, half, all} records and re-running.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sea_dse::campaign::{
    csv_report, human_report, jsonl_report, open_journal, parse_campaign, parse_journal,
    run_units_configured, Cache, NullSink, RunConfig, Unit, UnitRecord,
};
use sea_dse::experiments::campaigns::builtin;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sea-resume-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quickstart_units() -> Vec<Unit> {
    parse_campaign(builtin("quickstart").expect("builtin exists").source)
        .expect("builtin parses")
        .expand()
}

/// All three final reports, rendered from enumeration-order records.
fn reports(records: &[UnitRecord]) -> (String, String, String) {
    (
        human_report(records),
        csv_report(records),
        jsonl_report(records),
    )
}

#[test]
fn resuming_any_truncation_point_reproduces_the_reports_byte_for_byte() {
    let dir = temp_dir();
    let units = quickstart_units();
    let n = units.len();

    // Uninterrupted journaled run (jobs=1 → journal records are in
    // enumeration order, so a line-truncation is a unit-boundary kill).
    let full_journal = dir.join("full.jsonl");
    let mut plan = open_journal(&full_journal, "quickstart", &units).unwrap();
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    let full = run_units_configured(&units, config, &mut NullSink).unwrap();
    assert_eq!(full.executed, n);
    let golden = reports(&full.records());

    let journal_lines: Vec<String> = std::fs::read_to_string(&full_journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(journal_lines.len(), n + 1, "header + one record per unit");

    for jobs in [1, 4] {
        for k in [0, 1, n / 2, n] {
            let path = dir.join(format!("trunc-{jobs}-{k}.jsonl"));
            let mut prefix = journal_lines[..=k].join("\n");
            prefix.push('\n');
            std::fs::write(&path, prefix).unwrap();

            let mut plan = open_journal(&path, "quickstart", &units).unwrap();
            assert_eq!(plan.resumed, k, "journal restores exactly k units");
            let mut config = RunConfig::new(jobs);
            config.prefilled = std::mem::take(&mut plan.prefilled);
            config.journal = Some(plan.writer);
            let resumed = run_units_configured(&units, config, &mut NullSink).unwrap();
            assert_eq!(resumed.executed, n - k, "only missing units run");
            assert_eq!(resumed.resumed, k);

            let got = reports(&resumed.records());
            assert_eq!(golden.0, got.0, "human report (jobs={jobs}, k={k})");
            assert_eq!(golden.1, got.1, "csv report (jobs={jobs}, k={k})");
            assert_eq!(golden.2, got.2, "jsonl report (jobs={jobs}, k={k})");

            // The resumed journal is now complete and re-parseable.
            let finished = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(finished.records.len(), n);
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn every_mid_run_journal_prefix_parses_as_valid_jsonl() {
    // The journal fsyncs per record, so a kill leaves a clean line
    // prefix; every such prefix must parse (fewer records, same header).
    let dir = temp_dir();
    let units = quickstart_units();
    let path = dir.join("journal.jsonl");
    let mut plan = open_journal(&path, "quickstart", &units).unwrap();
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    run_units_configured(&units, config, &mut NullSink).unwrap();

    let source = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = source.lines().collect();
    for k in 1..=lines.len() {
        let mut prefix = lines[..k].join("\n");
        prefix.push('\n');
        let journal = parse_journal(&prefix)
            .unwrap_or_else(|e| panic!("prefix of {k} lines fails to parse: {e}"));
        assert_eq!(journal.records.len(), k - 1);
    }
    // A torn (half-written) tail is tolerated on top of any prefix.
    let mut torn = lines[..3].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    assert_eq!(parse_journal(&torn).unwrap().records.len(), 2);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resuming_a_torn_journal_truncates_the_fragment_and_survives_a_second_resume() {
    // Double-crash scenario: a kill mid-append leaves a newline-less
    // fragment. The resume must truncate it before appending — otherwise
    // the next record fuses onto the fragment, producing a corrupt
    // mid-file line that a *second* resume would refuse.
    let dir = temp_dir();
    let units = quickstart_units();
    let n = units.len();
    let path = dir.join("torn.jsonl");

    // Full journal, then simulate the crash: keep header + 2 records and
    // half of the third record's line (no trailing newline).
    let mut plan = open_journal(&path, "quickstart", &units).unwrap();
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    let full = run_units_configured(&units, config, &mut NullSink).unwrap();
    let golden = jsonl_report(&full.records());
    let lines: Vec<String> = std::fs::read_to_string(&path)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    let mut torn = lines[..3].join("\n");
    torn.push('\n');
    torn.push_str(&lines[3][..lines[3].len() / 2]);
    std::fs::write(&path, &torn).unwrap();

    // First resume: restores 2, truncates the fragment, completes.
    let mut plan = open_journal(&path, "quickstart", &units).unwrap();
    assert_eq!(plan.resumed, 2, "fragment is dropped, not restored");
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    let resumed = run_units_configured(&units, config, &mut NullSink).unwrap();
    assert_eq!(jsonl_report(&resumed.records()), golden);

    // The file is now clean: every line parses, no fused records.
    let finished = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(finished.records.len(), n);

    // Second resume: everything restores, nothing runs.
    let plan = open_journal(&path, "quickstart", &units).unwrap();
    assert_eq!(plan.resumed, n, "second resume sees a fully valid journal");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn resuming_from_every_byte_prefix_of_a_journal_reproduces_the_reports() {
    // A crash can cut the journal at any byte, the header included: a
    // cut inside the header (or an empty file) is a fresh journal, one
    // after it a resume. Against a warm cache no prefix re-evaluates
    // anything, so the sweep stays fast.
    let dir = temp_dir();
    let units = quickstart_units();
    let cache = Cache::open(dir.join("cache")).unwrap();
    let resume = |path: &std::path::Path| {
        let mut plan = open_journal(path, "quickstart", &units)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut config = RunConfig::new(1);
        config.cache = Some(&cache);
        config.prefilled = std::mem::take(&mut plan.prefilled);
        config.journal = Some(plan.writer);
        run_units_configured(&units, config, &mut NullSink).unwrap()
    };
    let full_journal = dir.join("full.jsonl");
    let golden = reports(&resume(&full_journal).records());
    let bytes = std::fs::read(&full_journal).unwrap();
    let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    // Debug builds take every header prefix and a stride of the rest.
    let stride = if cfg!(debug_assertions) { 29 } else { 1 };
    let path = dir.join("prefix.jsonl");
    for cut in (0..=bytes.len()).filter(|&c| c <= header_end || c % stride == 0) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let resumed = resume(&path);
        assert_eq!(resumed.executed, 0, "prefix of {cut} bytes re-evaluated");
        assert_eq!(reports(&resumed.records()), golden, "prefix of {cut} bytes");
        // The resume left a whole journal behind.
        let finished = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(finished.records.len(), units.len(), "prefix of {cut} bytes");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A small campaign covering every unit kind for the cache tests.
const CACHE_SPEC: &str = "\
name = \"cache-int\"
budget = \"fast\"
[scenario]
kind = \"optimize\"
apps = \"fig8\"
cores = \"3\"
[scenario]
kind = \"sweep\"
apps = \"mpeg2\"
cores = \"4\"
count = 10
[scenario]
kind = \"simulate\"
apps = \"mpeg2\"
cores = \"4\"
scaling = \"2,2,3,2\"
groups = \"0,1,2,3,4,5|6,7|8|9,10\"
seeds = \"13\"
";

#[test]
fn cold_run_populates_and_warm_run_is_all_hits_with_identical_output() {
    let dir = temp_dir();
    let cache = Cache::open(dir.join("cache")).unwrap();
    let units = parse_campaign(CACHE_SPEC).unwrap().expand();
    let n = units.len();

    let run = |cache: &Cache| {
        let mut config = RunConfig::new(2);
        config.cache = Some(cache);
        run_units_configured(&units, config, &mut NullSink).unwrap()
    };
    let cold = run(&cache);
    assert_eq!((cold.executed, cold.cache_hits), (n, 0), "cold populates");
    let warm = run(&cache);
    assert_eq!(
        (warm.executed, warm.cache_hits),
        (0, n),
        "warm is 100% hits"
    );
    assert_eq!(
        jsonl_report(&cold.records()),
        jsonl_report(&warm.records()),
        "warm output is byte-identical"
    );

    // Corrupt one entry: detected, recomputed, not crashed.
    let entry = std::fs::read_dir(cache.dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "unit"))
        .expect("cache has entries");
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&entry, bytes).unwrap();
    let healed = run(&cache);
    assert_eq!(
        (healed.executed, healed.cache_hits),
        (1, n - 1),
        "exactly the corrupted entry recomputes"
    );
    assert_eq!(
        jsonl_report(&cold.records()),
        jsonl_report(&healed.records())
    );
    // And the recompute rewrote the entry: everything hits again.
    let again = run(&cache);
    assert_eq!((again.executed, again.cache_hits), (0, n));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn sea_cache_unset_means_zero_filesystem_writes() {
    // Drive the exact resolution + run path the binaries use, twice:
    // once with SEA_CACHE pointing at a watched tempdir (positive
    // control — the dir must fill up, proving the assertion *can* fail)
    // and once with it unset (the dir must stay exactly as the control
    // left it: zero new writes). This is the only test in this binary
    // touching SEA_CACHE, so the env mutation cannot race.
    let dir = temp_dir();
    let cache_dir = dir.join("watched-cache");
    let units = parse_campaign(CACHE_SPEC).unwrap().expand();
    let saved = std::env::var(sea_dse::campaign::CACHE_ENV).ok();

    let run_like_the_cli = || {
        let cache = Cache::resolve(None).unwrap();
        let mut config = RunConfig::new(2);
        config.cache = cache.as_ref();
        let outcome = run_units_configured(&units, config, &mut NullSink).unwrap();
        (cache.is_some(), outcome)
    };
    // Name + size + mtime per entry: catches silent overwrites (which
    // keep names but refresh mtimes), not just creations.
    let snapshot = |path: &std::path::Path| -> Vec<(String, u64, std::time::SystemTime)> {
        match std::fs::read_dir(path) {
            Ok(entries) => {
                let mut all: Vec<_> = entries
                    .map(|e| {
                        let e = e.unwrap();
                        let meta = e.metadata().unwrap();
                        (
                            e.file_name().to_string_lossy().into_owned(),
                            meta.len(),
                            meta.modified().unwrap(),
                        )
                    })
                    .collect();
                all.sort();
                all
            }
            Err(_) => Vec::new(), // not even created
        }
    };

    // Positive control: env set ⇒ the same code path writes entries.
    std::env::set_var(sea_dse::campaign::CACHE_ENV, &cache_dir);
    let (resolved, outcome) = run_like_the_cli();
    assert!(resolved, "control: SEA_CACHE resolves a cache");
    assert_eq!(outcome.executed, units.len());
    let populated = snapshot(&cache_dir);
    assert_eq!(
        populated.len(),
        units.len(),
        "control: the watched dir fills up, so the assertion below can fail"
    );

    // SEA_CACHE unset ⇒ no cache resolves and nothing is written.
    std::env::remove_var(sea_dse::campaign::CACHE_ENV);
    let (resolved, outcome) = run_like_the_cli();
    assert!(!resolved, "unset env resolves no cache");
    assert_eq!(outcome.executed, units.len(), "everything re-evaluates");
    assert_eq!(outcome.cache_hits, 0);
    assert_eq!(
        snapshot(&cache_dir),
        populated,
        "unset env ⇒ zero new filesystem writes"
    );

    match saved {
        Some(v) => std::env::set_var(sea_dse::campaign::CACHE_ENV, v),
        None => std::env::remove_var(sea_dse::campaign::CACHE_ENV),
    }
    let _ = std::fs::remove_dir_all(dir);
}
