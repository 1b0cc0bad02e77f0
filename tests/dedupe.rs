//! Within-campaign dedupe: units with equal content hashes are evaluated
//! once per run, and every duplicate completes from that result with its
//! own index and scenario — so the reports, the journal and every resume
//! point are exactly what evaluating each unit on its own gives.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sea_dse::campaign::{
    csv_report, decode_result, jsonl_report, open_journal, parse_campaign, parse_journal, run_unit,
    run_units_configured, unit_hash, validate_entry, AppRef, BudgetSpec, Cache, ContentHasher,
    NullSink, RunConfig, Unit, UnitKind, UnitOutcome, UnitRecord,
};
use sea_dse::opt::SelectionPolicy;
use sea_dse::taskgraph::generator::RandomGraphConfig;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sea-dedupe-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two scenarios name the same problems (explicit seeds, so the derived
/// per-index seeds do not tell them apart).
const SPEC: &str = "\
name = \"dedupe\"
budget = \"fast\"
[scenario]
name = \"first\"
kind = \"optimize\"
apps = \"mpeg2, fig8\"
cores = \"3\"
seeds = \"5\"
[scenario]
name = \"sweeps\"
kind = \"sweep\"
apps = \"mpeg2\"
cores = \"4\"
count = 12
seeds = \"9\"
[scenario]
name = \"again\"
kind = \"optimize\"
apps = \"fig8, mpeg2\"
cores = \"3\"
seeds = \"5\"
[scenario]
name = \"sweeps-again\"
kind = \"sweep\"
apps = \"mpeg2\"
cores = \"4\"
count = 12
seeds = \"9\"
";

fn inline_unit(app: AppRef, scenario: &str, kind: UnitKind) -> Unit {
    Unit {
        index: 0,
        scenario: scenario.into(),
        kind,
        app,
        cores: 3,
        levels: 3,
        budget: BudgetSpec::Fast,
        selection: SelectionPolicy::default(),
        seed: 11,
    }
}

/// The spec's units plus two inline applications with equal content in
/// distinct `Arc`s (one workload built twice by two harnesses).
fn units() -> Vec<Unit> {
    let mut units = parse_campaign(SPEC).unwrap().expand();
    let app = RandomGraphConfig::paper(14).generate(3).unwrap();
    let a = AppRef::Inline(Arc::new(app.clone()));
    let b = AppRef::Inline(Arc::new(app));
    units.push(inline_unit(a, "table", UnitKind::Optimize));
    units.push(inline_unit(b.clone(), "figure", UnitKind::Optimize));
    units.push(inline_unit(
        b,
        "figure",
        UnitKind::Baseline(sea_dse::baselines::Objective::Parallelism),
    ));
    for (i, unit) in units.iter_mut().enumerate() {
        unit.index = i;
    }
    units
}

/// Units whose content hash already occurred at a lower index.
fn duplicates(units: &[Unit]) -> Vec<usize> {
    let mut seen = std::collections::HashSet::new();
    (0..units.len())
        .filter(|&i| !seen.insert(unit_hash(&units[i])))
        .collect()
}

fn reports(records: &[UnitRecord]) -> (String, String) {
    (jsonl_report(records), csv_report(records))
}

/// The reports of every unit evaluated on its own.
fn reports_alone(units: &[Unit]) -> (String, String) {
    let records: Vec<UnitRecord> = units.iter().map(|u| run_unit(u).unwrap().record).collect();
    reports(&records)
}

#[test]
fn duplicates_run_once_with_the_bytes_of_running_each_alone() {
    let units = units();
    let dups = duplicates(&units);
    // mpeg2 and fig8 optimize, the sweep, and the inline optimize.
    assert_eq!(dups, vec![3, 4, 5, 7]);

    let golden = reports_alone(&units);
    for jobs in [1, 2, 8] {
        let outcome = run_units_configured(&units, RunConfig::new(jobs), &mut NullSink).unwrap();
        assert_eq!(reports(&outcome.records()), golden, "jobs={jobs}");
        assert_eq!(outcome.deduped, dups.len(), "jobs={jobs}");
        assert_eq!(outcome.executed, units.len() - dups.len(), "jobs={jobs}");
        assert_eq!(outcome.cache_hits, 0);
        // Followers carry their own unit, not the leader's.
        for (i, unit) in outcome.units.iter().enumerate() {
            let result = unit.result().expect("a fresh run has full results");
            assert_eq!(result.unit.index, i);
            assert_eq!(result.unit.scenario, units[i].scenario);
        }
    }

    // Cold and warm cache: the leader probes and publishes, followers
    // never reach the cache.
    let dir = temp_dir();
    let cache = Cache::open(dir.join("cache")).unwrap();
    for (executed, cache_hits) in [(units.len() - dups.len(), 0), (0, units.len() - dups.len())] {
        let mut config = RunConfig::new(2);
        config.cache = Some(&cache);
        let outcome = run_units_configured(&units, config, &mut NullSink).unwrap();
        assert_eq!(
            (outcome.executed, outcome.cache_hits, outcome.deduped),
            (executed, cache_hits, dups.len())
        );
        assert_eq!(
            outcome.executed + outcome.cache_hits + outcome.deduped,
            units.len()
        );
        assert_eq!(reports(&outcome.records()), golden);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn record_only_hits_skip_the_payload_and_payload_runs_heal_it() {
    let units = units();
    let dups = duplicates(&units);
    let leaders = units.len() - dups.len();
    let dir = temp_dir();
    let cache = Cache::open(dir.join("cache")).unwrap();
    let run = |jobs: usize, need_payloads: bool| {
        let mut config = RunConfig::new(jobs);
        config.cache = Some(&cache);
        config.need_payloads = need_payloads;
        run_units_configured(&units, config, &mut NullSink).unwrap()
    };
    let cold = run(2, false);
    assert_eq!((cold.executed, cold.cache_hits), (leaders, 0));
    let golden = reports(&cold.records());

    // Reseal the design entry of unit 0 (mpeg2, which unit 4 repeats
    // under another scenario) around a payload that does not decode.
    let (leader, follower) = (0, 4);
    assert_eq!(unit_hash(&units[leader]), unit_hash(&units[follower]));
    let path = cache.entry_path(unit_hash(&units[leader]));
    let good = std::fs::read_to_string(&path).unwrap();
    let body = good.find("\npayload design\n").unwrap() + "\npayload design\n".len();
    let prefix = format!("{}outcome not-a-count\n", &good[..body]);
    let mut sum = ContentHasher::new();
    sum.write(prefix.as_bytes());
    let broken = format!("{prefix}end {}\n", sum.finish().to_hex());
    assert_eq!(validate_entry(&broken, None), Ok("design"));
    assert!(decode_result(&broken, &units[leader]).is_err());
    std::fs::write(&path, &broken).unwrap();

    // A run that reads no payloads checks everything but the payload:
    // every unit hits, and nothing heals the entry.
    for jobs in [1, 2] {
        let warm = run(jobs, false);
        assert_eq!(
            (warm.executed, warm.cache_hits, warm.deduped),
            (0, leaders, dups.len()),
            "jobs={jobs}"
        );
        assert_eq!(reports(&warm.records()), golden, "jobs={jobs}");
        // The follower of a record-only leader carries its own index and
        // scenario.
        match &warm.units[follower] {
            UnitOutcome::Restored(record) => {
                assert_eq!(record.index, follower);
                assert_eq!(record.scenario, units[follower].scenario);
                assert_ne!(record.scenario, units[leader].scenario);
            }
            UnitOutcome::Full(_) => panic!("a record-only leader's follower has no payload"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), broken);
    }

    // A run that reads payloads misses that entry, recomputes the unit
    // and rewrites the entry.
    let healed = run(2, true);
    assert_eq!(
        (healed.executed, healed.cache_hits, healed.deduped),
        (1, leaders - 1, dups.len())
    );
    assert_eq!(reports(&healed.records()), golden);
    let result = healed.units[follower].result().expect("payloads were read");
    assert_eq!(
        (result.unit.index, &result.unit.scenario),
        (follower, &units[follower].scenario)
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn journals_and_resumes_are_per_index() {
    let dir = temp_dir();
    let units = units();
    let n = units.len();
    let golden = reports_alone(&units);

    let full = dir.join("full.journal");
    let plan = open_journal(&full, "dedupe", &units).unwrap();
    let mut config = RunConfig::new(2);
    config.journal = Some(plan.writer);
    run_units_configured(&units, config, &mut NullSink).unwrap();
    let text = std::fs::read_to_string(&full).unwrap();
    let mut indices: Vec<usize> = parse_journal(&text)
        .unwrap()
        .records
        .iter()
        .map(|r| r.index)
        .collect();
    indices.sort_unstable();
    assert_eq!(indices, (0..n).collect::<Vec<_>>(), "one record per index");

    // Resume with only the follower journaled, then only the leader
    // (units 1 and 3 are fig8 in `first` and `again`), with and without
    // payloads required.
    let lines: Vec<&str> = text.lines().collect();
    let record_line = |index: usize| {
        lines[1..]
            .iter()
            .find(|l| l.contains(&format!("\"index\":{index},")))
            .unwrap()
    };
    let (leader, follower) = (1, 3);
    assert_eq!(unit_hash(&units[leader]), unit_hash(&units[follower]));
    for kept in [follower, leader] {
        for need_payloads in [false, true] {
            let path = dir.join(format!("kept-{kept}-{need_payloads}.journal"));
            std::fs::write(&path, format!("{}\n{}\n", lines[0], record_line(kept))).unwrap();
            let plan = open_journal(&path, "dedupe", &units).unwrap();
            assert_eq!(plan.resumed, 1);
            let mut config = RunConfig::new(2);
            config.prefilled = plan.prefilled;
            config.journal = Some(plan.writer);
            config.need_payloads = need_payloads;
            let outcome = run_units_configured(&units, config, &mut NullSink).unwrap();
            assert_eq!(
                reports(&outcome.records()),
                golden,
                "kept {kept}, need_payloads {need_payloads}"
            );
            let finished = parse_journal(&std::fs::read_to_string(&path).unwrap()).unwrap();
            assert_eq!(finished.records.len(), n, "kept {kept}");
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_failing_leader_fails_its_followers_and_the_first_error_is_raised() {
    let simulate = |scaling: Vec<u8>| UnitKind::Simulate {
        scaling,
        groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
        ser: 1e-9,
    };
    let unit = |kind| Unit {
        cores: 4,
        ..inline_unit(AppRef::Spec("mpeg2".parse().unwrap()), "s", kind)
    };
    // A five-level coefficient on a three-level set, and a scaling one
    // core short: two different hard errors.
    let bad_level = unit(simulate(vec![5, 2, 2, 2]));
    let bad_len = unit(simulate(vec![2, 2, 2]));
    let ok = unit(simulate(vec![2, 2, 3, 2]));
    // Unit 3 follows unit 1 in both lists; the first error is unit 1's,
    // then unit 0's.
    for (order, first_bad) in [
        ([&ok, &bad_level, &bad_len, &bad_level], 1),
        ([&bad_len, &bad_level, &ok, &bad_level], 0),
    ] {
        let list: Vec<Unit> = order
            .iter()
            .enumerate()
            .map(|(index, &u)| Unit { index, ..u.clone() })
            .collect();
        let expected = run_unit(&list[first_bad]).unwrap_err().to_string();
        for jobs in [1, 2] {
            let err = run_units_configured(&list, RunConfig::new(jobs), &mut NullSink)
                .expect_err("hard errors fail the run");
            assert_eq!(err.to_string(), expected, "jobs={jobs}");
        }
    }
}
