//! Distributed-execution integration tests: a localhost coordinator plus
//! in-process TCP workers must be *indistinguishable* from the local
//! thread pool in everything that reaches stdout — final reports
//! byte-identical in all three formats, for any worker count, under
//! worker kills mid-unit, across `--resume` journals and through the
//! shared result cache.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sea_dse::campaign::{
    csv_report, human_report, jsonl_report, open_journal, parse_campaign, run_units, Cache,
    NullSink, RunConfig, Unit, UnitRecord,
};
use sea_dse::dist::{
    configure_stream, run_distributed_local, run_worker, serve_units, ServeConfig, WorkerConfig,
};
use sea_dse::experiments::campaigns::{builtin, merge};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sea-dist-test-{}-{}",
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

fn local_golden(units: &[Unit]) -> (String, String, String) {
    let results = run_units(units, 2, &mut NullSink).unwrap();
    let records: Vec<UnitRecord> = results.iter().map(|r| r.record.clone()).collect();
    reports(&records)
}

#[test]
fn dispatch_streams_disable_nagle() {
    // Both transport endpoints (coordinator accept, worker connect) run
    // their sockets through `configure_stream`; the protocol's small
    // request/response frames must not sit in Nagle's buffer a
    // round-trip at a time.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::net::TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();
    for stream in [&client, &server] {
        assert!(!stream.nodelay().unwrap(), "NODELAY is off by default");
        configure_stream(stream).unwrap();
        assert!(stream.nodelay().unwrap(), "configure_stream sets NODELAY");
    }
}

#[test]
fn distributed_reports_are_byte_identical_to_the_local_pool() {
    let units = quickstart_units();
    let golden = local_golden(&units);
    for workers in [1, 2, 4] {
        let outcome =
            run_distributed_local(&units, RunConfig::new(1), workers, &mut NullSink).unwrap();
        assert_eq!(outcome.executed, units.len(), "workers={workers}");
        assert_eq!(outcome.cache_hits, 0, "workers={workers}");
        let got = reports(&outcome.records());
        assert_eq!(golden.0, got.0, "human report, workers={workers}");
        assert_eq!(golden.1, got.1, "csv report, workers={workers}");
        assert_eq!(golden.2, got.2, "jsonl report, workers={workers}");
        // Full payloads came over the wire and verified against each
        // unit's content hash.
        for unit in &outcome.units {
            assert!(unit.result().is_some());
        }
    }
}

#[test]
fn distributed_runs_evaluate_each_distinct_unit_once() {
    // The quickstart twice over: 10 units, 5 distinct content hashes.
    let (units, _) = merge(vec![quickstart_units(), quickstart_units()]);
    let local =
        sea_dse::campaign::run_units_configured(&units, RunConfig::new(2), &mut NullSink).unwrap();
    assert_eq!((local.executed, local.deduped), (5, 5));
    let golden = reports(&local.records());
    for workers in [1, 2] {
        let outcome =
            run_distributed_local(&units, RunConfig::new(1), workers, &mut NullSink).unwrap();
        assert_eq!(golden, reports(&outcome.records()), "workers={workers}");
        assert_eq!(
            (outcome.executed, outcome.deduped),
            (local.executed, local.deduped),
            "workers={workers}"
        );
    }
}

#[test]
fn a_worker_killed_mid_unit_does_not_change_the_reports() {
    let units = quickstart_units();
    let n = units.len();
    let golden = local_golden(&units);

    // One deserter (vanishes mid-unit after k completions, like a killed
    // process) plus one reliable worker that finishes the campaign.
    for k in [0, n / 2] {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let outcome = std::thread::scope(|s| {
            let deserter_addr = addr.clone();
            s.spawn(move || {
                let config = WorkerConfig {
                    abandon_after: Some(k),
                    ..WorkerConfig::default()
                };
                let report = run_worker(&deserter_addr, &config).unwrap();
                assert!(report.clean_exit);
                assert!(report.completed <= k);
            });
            let steady_addr = addr.clone();
            s.spawn(move || {
                // The steady worker may connect before or after the
                // deserter leaves; either way it drains the campaign.
                let _ = run_worker(&steady_addr, &WorkerConfig::default());
            });
            // A short heartbeat timeout keeps the test snappy if the
            // deserter's half-open socket lingers (it should not: the
            // dropped stream closes and the coordinator re-queues).
            let mut config = ServeConfig::new(RunConfig::new(1));
            config.heartbeat_timeout = Duration::from_secs(10);
            let result = serve_units(&listener, &units, config, &mut NullSink);
            // Close the listener before joining the workers: a worker
            // that only reaches the backlog after completion would
            // otherwise wait forever for a welcome.
            drop(listener);
            result
        })
        .unwrap();
        assert!(
            outcome.executed >= n,
            "k={k}: every unit completed (re-dispatches may add more)"
        );
        let got = reports(&outcome.records());
        assert_eq!(golden.2, got.2, "jsonl report, kill after k={k}");
        assert_eq!(golden.0, got.0, "human report, kill after k={k}");
        assert_eq!(golden.1, got.1, "csv report, kill after k={k}");
    }
}

#[test]
fn a_corrupt_result_costs_the_connection_not_the_unit() {
    use sea_dse::campaign::cache::CACHE_VERSION;
    use sea_dse::campaign::{ContentHash, ContentHasher};
    use sea_dse::dist::frame::{handshake_line, read_frame, write_frame, FrameKind};
    use sea_dse::dist::wire;

    let units = quickstart_units();
    let golden = local_golden(&units);
    // Two result bodies whose headers parse but whose entries cannot be
    // verified: bytes that are no entry at all, and a correctly sealed
    // entry for the dispatched unit whose sweep point count is forged
    // (a count the decoder once reserved memory for, ending the
    // coordinator).
    let record = golden.2.lines().next().unwrap().to_string();
    let garbage = |_: ContentHash| "sea-unit-cache 1 garbage\nnot an entry\n".to_string();
    let forged_count = |hash: ContentHash| {
        let prefix = format!(
            "sea-unit-cache {CACHE_VERSION} {}\nrecord {record}\npayload sweep\n\
             18446744073709551615\n",
            hash.to_hex()
        );
        let mut sum = ContentHasher::new();
        sum.write(prefix.as_bytes());
        format!("{prefix}end {}\n", sum.finish().to_hex())
    };
    let sabotage: [&(dyn Fn(ContentHash) -> String + Sync); 2] = [&garbage, &forged_count];
    for entry_for in sabotage {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Signals that the saboteur holds a work item, so the honest
        // worker only joins afterwards (the saboteur must reliably get a
        // unit).
        let (got_work_tx, got_work_rx) = std::sync::mpsc::channel::<()>();

        let outcome = std::thread::scope(|s| {
            s.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                write_frame(&mut stream, FrameKind::Hello, handshake_line().as_bytes()).unwrap();
                let welcome = read_frame(&mut stream).unwrap();
                assert_eq!(welcome.kind, FrameKind::Welcome);
                let work = read_frame(&mut stream).unwrap();
                assert_eq!(work.kind, FrameKind::Work);
                let (index, hash, _unit) =
                    wire::decode_work(std::str::from_utf8(&work.body).unwrap()).unwrap();
                got_work_tx.send(()).unwrap();
                // The coordinator must refuse this connection and
                // re-queue the unit, never losing it.
                let body = wire::encode_result_body(index, hash, &entry_for(hash));
                let _ = write_frame(&mut stream, FrameKind::Result, body.as_bytes());
                // Expect a Refuse (or a straight close) and go away.
                let _ = read_frame(&mut stream);
            });
            s.spawn(move || {
                got_work_rx.recv().unwrap();
                let _ = run_worker(&addr.to_string(), &WorkerConfig::default());
            });
            let result = serve_units(
                &listener,
                &units,
                ServeConfig::new(RunConfig::new(1)),
                &mut NullSink,
            );
            drop(listener);
            result
        })
        .unwrap();
        assert_eq!(
            golden,
            reports(&outcome.records()),
            "the sabotaged unit was recomputed by the honest worker"
        );
    }
}

#[test]
fn resume_works_across_the_network_boundary() {
    let dir = temp_dir();
    let units = quickstart_units();
    let n = units.len();

    // Uninterrupted journaled *distributed* run.
    let full_journal = dir.join("full.jsonl");
    let mut plan = open_journal(&full_journal, "quickstart", &units).unwrap();
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    let full = run_distributed_local(&units, config, 2, &mut NullSink).unwrap();
    assert_eq!(full.executed, n);
    let golden = reports(&full.records());

    // Simulate a coordinator killed halfway: keep the header plus half
    // the records, then resume over the network again.
    let journal_lines: Vec<String> = std::fs::read_to_string(&full_journal)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(journal_lines.len(), n + 1, "header + one record per unit");
    let keep = n / 2;
    let crashed = dir.join("crashed.jsonl");
    let mut prefix = journal_lines[..=keep].join("\n");
    prefix.push('\n');
    std::fs::write(&crashed, prefix).unwrap();

    let mut plan = open_journal(&crashed, "quickstart", &units).unwrap();
    assert_eq!(plan.resumed, keep);
    let mut config = RunConfig::new(1);
    config.prefilled = std::mem::take(&mut plan.prefilled);
    config.journal = Some(plan.writer);
    let resumed = run_distributed_local(&units, config, 2, &mut NullSink).unwrap();
    assert_eq!(resumed.resumed, keep);
    assert_eq!(resumed.executed, n - keep, "only the missing units travel");
    let got = reports(&resumed.records());
    assert_eq!(golden, got, "resumed distributed reports byte-identical");

    // The resumed journal is complete and valid.
    let resumed_lines = std::fs::read_to_string(&crashed).unwrap();
    assert_eq!(resumed_lines.lines().count(), n + 1);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn coordinator_cache_probe_short_circuits_dispatch() {
    let dir = temp_dir();
    let cache = Cache::open(dir.join("cache")).unwrap();
    let units = quickstart_units();
    let n = units.len();

    // Cold distributed run populates the coordinator-side cache.
    let mut config = RunConfig::new(1);
    config.cache = Some(&cache);
    let cold = run_distributed_local(&units, config, 2, &mut NullSink).unwrap();
    assert_eq!(cold.executed, n);
    assert_eq!(cold.cache_hits, 0);
    let golden = reports(&cold.records());

    // Warm run: every unit completes from the cache on the dispatch path,
    // so zero units travel (the one worker only has to connect).
    let mut config = RunConfig::new(1);
    config.cache = Some(&cache);
    let warm = run_distributed_local(&units, config, 1, &mut NullSink).unwrap();
    assert_eq!(warm.executed, 0, "warm distributed run evaluates nothing");
    assert_eq!(warm.cache_hits, n);
    assert_eq!(golden, reports(&warm.records()));

    // And the cache a *local* engine populated serves the distributed
    // coordinator identically (shared-cache interop both ways).
    let local = sea_dse::campaign::run_units_configured(
        &units,
        {
            let mut c = RunConfig::new(2);
            c.cache = Some(&cache);
            c
        },
        &mut NullSink,
    )
    .unwrap();
    assert_eq!(local.executed, 0);
    assert_eq!(golden, reports(&local.records()));
    let _ = std::fs::remove_dir_all(dir);
}
