//! Service-mode integration tests: the multi-campaign daemon must keep
//! the determinism contract under concurrency — every campaign's
//! streamed records and final report byte-identical to a local
//! `campaign` run of the same spec, overlapping units evaluated exactly
//! once fleet-wide, cancellation clean, and a daemon kill + restart
//! (with a journal directory) resumed by reconnecting workers.

use std::io::{BufRead, Read, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sea_dse::campaign::{jsonl_report, parse_campaign, run_units, Cache, NullSink, UnitRecord};
use sea_dse::dist::{run_worker, WorkerConfig};
use sea_dse::serve::{cancel, run_daemon, status, stop, submit, submit_watch, DaemonConfig};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sea-daemon-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// Two specs sharing one identical unit (optimize mpeg2@4, explicit seed
// 42): `unit_hash` ignores the presentation fields, so the daemon must
// evaluate the shared unit once and fan the result out to both.
const ALPHA: &str = "\
name = \"alpha\"
budget = \"fast\"

[scenario]
name = \"shared\"
kind = \"optimize\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"42\"

[scenario]
name = \"alpha-only\"
kind = \"optimize\"
apps = \"fig8\"
cores = \"3\"
seeds = \"1\"
";

const BETA: &str = "\
name = \"beta\"
budget = \"fast\"

[scenario]
name = \"beta-only\"
kind = \"optimize\"
apps = \"fig8\"
cores = \"4\"
seeds = \"2\"

[scenario]
name = \"shared\"
kind = \"optimize\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"42\"
";

/// The local golden: same spec through the in-process pool, rendered as
/// the JSONL report (what `campaign --format jsonl` prints to stdout).
fn local_jsonl(spec: &str) -> String {
    let units = parse_campaign(spec).unwrap().expand();
    let results = run_units(&units, 2, &mut NullSink).unwrap();
    let records: Vec<UnitRecord> = results.iter().map(|r| r.record.clone()).collect();
    jsonl_report(&records)
}

#[test]
fn concurrent_campaigns_match_local_runs_and_share_the_overlap() {
    let golden_a = local_jsonl(ALPHA);
    let golden_b = local_jsonl(BETA);
    let dir = temp_dir();
    let cache = Cache::open(dir.join("cache")).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();

    let (report, w1, w2, a, b) = std::thread::scope(|s| {
        let daemon = s.spawn(|| {
            let mut config = DaemonConfig::new();
            config.cache = Some(cache);
            run_daemon(&listener, &config)
        });
        let wa = addr.clone();
        let w1 = s.spawn(move || run_worker(&wa, &WorkerConfig::default()));
        let wb = addr.clone();
        let w2 = s.spawn(move || run_worker(&wb, &WorkerConfig::default()));
        let watch = |spec: &'static str| {
            let addr = addr.clone();
            s.spawn(move || {
                let mut records = Vec::new();
                let mut report = Vec::new();
                let outcome = submit_watch(&addr, spec, &mut records, &mut report).unwrap();
                (outcome, records, report)
            })
        };
        let client_a = watch(ALPHA);
        let client_b = watch(BETA);
        let a = client_a.join().unwrap();
        let b = client_b.join().unwrap();
        stop(&addr).unwrap();
        let report = daemon.join().unwrap().unwrap();
        (
            report,
            w1.join().unwrap().unwrap(),
            w2.join().unwrap().unwrap(),
            a,
            b,
        )
    });

    // Byte-identity: the streamed record lines ARE the report bytes, and
    // both equal the local run — regardless of the other in-flight
    // campaign sharing the worker fleet.
    for (name, golden, (outcome, records, rep)) in
        [("alpha", &golden_a, &a), ("beta", &golden_b, &b)]
    {
        assert_eq!(outcome.n_units, 2, "{name}");
        assert_eq!(
            String::from_utf8_lossy(rep),
            *golden.as_str(),
            "{name} report"
        );
        assert_eq!(records, rep, "{name}: stream == report bytes");
    }
    assert_ne!(a.0.campaign_id, b.0.campaign_id);
    assert_ne!(a.0.spec_hash, b.0.spec_hash);

    // The overlap evaluated exactly once fleet-wide: 3 unique units, and
    // the 4th completion came from dedupe fan-out or the shared cache.
    assert_eq!(report.campaigns, 2);
    assert_eq!(report.completed, 2);
    assert_eq!(report.evaluated, 3, "3 unique units, one evaluation each");
    let cache_hits: usize = report.workers.iter().map(|(_, w)| w.cache_hits).sum();
    assert_eq!(report.deduped + cache_hits, 1, "one shared completion");
    assert!(w1.clean_exit && w2.clean_exit, "Shutdown reached the fleet");
    assert_eq!(w1.completed + w2.completed, 3);
    let _ = std::fs::remove_dir_all(dir);
}

// Two scenarios naming the same problem: one campaign, two equal units.
const TWINS: &str = "\
name = \"twins\"
budget = \"fast\"

[scenario]
name = \"first\"
kind = \"optimize\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"42\"

[scenario]
name = \"second\"
kind = \"optimize\"
apps = \"mpeg2\"
cores = \"4\"
seeds = \"42\"
";

#[test]
fn duplicate_units_within_a_campaign_evaluate_once() {
    let golden = local_jsonl(TWINS);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (report, records, rep) = std::thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&listener, &DaemonConfig::new()));
        let worker_addr = addr.clone();
        let worker = s.spawn(move || run_worker(&worker_addr, &WorkerConfig::default()));
        let mut records = Vec::new();
        let mut rep = Vec::new();
        let outcome = submit_watch(&addr, TWINS, &mut records, &mut rep).unwrap();
        assert_eq!(outcome.n_units, 2);
        stop(&addr).unwrap();
        worker.join().unwrap().unwrap();
        (daemon.join().unwrap().unwrap(), records, rep)
    });
    assert_eq!(String::from_utf8_lossy(&rep), golden);
    assert_eq!(records, rep, "stream == report bytes");
    assert_eq!(report.evaluated, 1, "the twin rides its leader's result");
    assert_eq!(report.deduped, 1);
}

#[test]
fn an_oversized_range_is_refused_and_the_daemon_keeps_serving() {
    let spec = sea_dse::experiments::campaigns::builtin("quickstart")
        .unwrap()
        .source;
    // Specs the daemon once accepted. The `cores` range was expanded
    // before it was checked: one Submit frame aborted the process on an
    // 8 TB allocation. The sweep `count` and the simulate `ser` were
    // accepted and killed every worker that took one of their units, so
    // the campaign never finished. The last two expanded to 57.6 M units
    // and to 100,032 core counts, aborting the daemon on allocation.
    let seeds: Vec<String> = (1..=1000).map(|s| s.to_string()).collect();
    let grid = format!(
        "apps = \"{}\"\nkind = \"optimize\"\ncores = \"1-64\"\nlevels = \"2-4\"\n\
         selections = \"product,power,gamma\"\nseeds = \"{}\"\n",
        ["mpeg2"; 100].join(","),
        seeds.join(",")
    );
    let cores = format!(
        "apps = \"mpeg2\"\nkind = \"optimize\"\ncores = \"{}\"\n",
        ["1-64"; 1563].join(",")
    );
    let refused = [
        (
            "apps = \"mpeg2\"\nkind = \"optimize\"\ncores = \"1-1000000000000\"\n",
            "line 5: core counts must be between 1 and 64",
        ),
        (
            "apps = \"mpeg2\"\nkind = \"sweep\"\ncores = \"4\"\ncount = 1000000000000\n",
            "line 6: count must be at most 10000",
        ),
        (
            "apps = \"mpeg2\"\nkind = \"sweep\"\ncores = \"4\"\ncount = 18446744073709551615\n",
            "line 6: count must be at most 10000",
        ),
        (
            "apps = \"mpeg2\"\nkind = \"simulate\"\ncores = \"4\"\nscaling = \"2,2,3,2\"\n\
             groups = \"0,1,2,3,4,5|6,7|8|9,10\"\nser = \"nan\"\n",
            "line 8: SER must be a rate per bit per cycle in (0, 1]",
        ),
        (
            "apps = \"mpeg2\"\nkind = \"simulate\"\ncores = \"4\"\nscaling = \"2,2,3,2\"\n\
             groups = \"0,1,2,3,4,5|6,7|8|9,10\"\nser = \"inf\"\n",
            "line 8: SER must be a rate per bit per cycle in (0, 1]",
        ),
        (
            &grid,
            "line 2: the campaign expands to more than 100000 units",
        ),
        (&cores, "line 5: `cores` lists more than 100000 values"),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (report, records, rep) = std::thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&listener, &DaemonConfig::new()));
        let worker_addr = addr.clone();
        let worker = s.spawn(move || run_worker(&worker_addr, &WorkerConfig::default()));
        for (scenario, reason) in refused {
            let spec = format!("name = \"refused\"\n[scenario]\n{scenario}");
            let refusal = submit(&addr, &spec).unwrap_err().to_string();
            assert!(refusal.contains(reason), "{refusal}");
        }
        let mut records = Vec::new();
        let mut rep = Vec::new();
        let outcome = submit_watch(&addr, spec, &mut records, &mut rep).unwrap();
        assert_eq!(outcome.n_units, 5);
        stop(&addr).unwrap();
        worker.join().unwrap().unwrap();
        (daemon.join().unwrap().unwrap(), records, rep)
    });
    assert_eq!(records, rep, "stream == report bytes");
    assert_eq!(
        rep.iter().filter(|&&b| b == b'\n').count(),
        5,
        "one record per unit"
    );
    assert_eq!(report.campaigns, 1, "a refused spec registers nothing");
}

#[test]
fn cancel_withdraws_a_campaign_and_is_idempotent() {
    // No workers connect, so the campaign sits queued until cancelled.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let report = std::thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&listener, &DaemonConfig::new()));
        let outcome = submit(&addr, ALPHA).unwrap();
        // Re-submitting the identical spec attaches to the existing
        // campaign instead of duplicating the work.
        let again = submit(&addr, ALPHA).unwrap();
        assert_eq!(outcome, again);

        let msg = cancel(&addr, outcome.campaign_id).unwrap();
        assert!(msg.contains("cancelled (0/2 units completed)"), "{msg}");
        let st = status(&addr).unwrap();
        assert!(st.contains("\"state\":\"cancelled\""), "{st}");
        // Cancelling again reports, it does not error; unknown ids do.
        let twice = cancel(&addr, outcome.campaign_id).unwrap();
        assert!(twice.contains("already"), "{twice}");
        assert!(cancel(&addr, 99).is_err());
        // A cancelled campaign refuses subscribers (via a fresh submit's
        // watch path it would refuse too) — status keeps the tombstone.
        stop(&addr).unwrap();
        daemon.join().unwrap().unwrap()
    });
    assert_eq!(report.campaigns, 1);
    assert_eq!(report.cancelled, 1);
    assert_eq!(report.completed, 0);
    assert_eq!(report.evaluated, 0);
}

/// A record writer that signals the first streamed line — the cue that
/// the daemon has journalled at least one completion and can be killed.
struct FirstLineSignal(Option<std::sync::mpsc::Sender<()>>);

impl Write for FirstLineSignal {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(());
        }
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Spawns `sea-dse daemon` as a real subprocess (so the test can kill it
/// mid-run) and returns the child, its bound address, and a thread
/// draining the rest of its stderr.
fn spawn_daemon(
    listen: &str,
    journal_dir: &std::path::Path,
) -> (std::process::Child, String, std::thread::JoinHandle<String>) {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sea-dse"))
        .args([
            "daemon",
            "--listen",
            listen,
            "--journal-dir",
            journal_dir.to_str().unwrap(),
        ])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut addr = String::new();
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap() > 0 {
        if let Some(rest) = line.trim_end().split("listening on ").nth(1) {
            addr = rest.to_string();
            break;
        }
        line.clear();
    }
    assert!(!addr.is_empty(), "daemon never announced its address");
    // Keep the pipe drained so the daemon can't block on a full buffer.
    let drain = std::thread::spawn(move || {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        rest
    });
    (child, addr, drain)
}

#[test]
fn daemon_restart_resumes_the_journal_and_workers_reconnect() {
    // Five units (vs two workers), so killing the daemon right after the
    // first streamed record is guaranteed to leave work outstanding: the
    // restarted daemon must wait for the reconnecting fleet rather than
    // finish instantly from the journal.
    let spec = sea_dse::experiments::campaigns::builtin("quickstart")
        .unwrap()
        .source;
    let golden = local_jsonl(spec);
    let dir = temp_dir();
    let journal_dir = dir.join("journals");
    std::fs::create_dir_all(&journal_dir).unwrap();

    let (mut child, addr, drain) = spawn_daemon("127.0.0.1:0", &journal_dir);

    // Two live workers that must survive the daemon restart: each loss
    // opens a fresh reconnect window, so the fleet rides out the outage.
    let worker = |addr: String| {
        std::thread::spawn(move || {
            let config = WorkerConfig {
                connect_retry: Duration::from_secs(30),
                ..WorkerConfig::default()
            };
            run_worker(&addr, &config)
        })
    };
    let w1 = worker(addr.clone());
    let w2 = worker(addr.clone());

    // Submit and watch until the first record lands (journalled and
    // fsync'd before it is ever streamed), then kill the daemon.
    let (tx, rx) = std::sync::mpsc::channel();
    let watch_addr = addr.clone();
    let watcher = std::thread::spawn(move || {
        let mut records = FirstLineSignal(Some(tx));
        let mut report = Vec::new();
        // May fail (daemon killed mid-watch) or succeed (small campaign
        // finished first); either way the journal holds ≥ 1 record.
        let _ = submit_watch(&watch_addr, spec, &mut records, &mut report);
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("no record ever streamed");
    child.kill().unwrap();
    child.wait().unwrap();
    let first_log = drain.join().unwrap();
    assert!(first_log.contains("accepted"), "{first_log}");
    watcher.join().unwrap();

    // Restart on the SAME address with the same journal directory;
    // re-submitting the identical spec resumes instead of recomputing.
    let (mut child, addr2, drain) = spawn_daemon(&addr, &journal_dir);
    assert_eq!(addr, addr2);
    let mut records = Vec::new();
    let mut report = Vec::new();
    let outcome = submit_watch(&addr, spec, &mut records, &mut report).unwrap();
    assert_eq!(outcome.n_units, 5);
    assert_eq!(
        String::from_utf8_lossy(&report),
        golden,
        "resumed service report byte-identical to the local run"
    );
    assert_eq!(records, report, "stream == report bytes");
    let st = status(&addr).unwrap();
    assert!(
        !st.contains("\"resumed\":0"),
        "at least one unit restored from the journal: {st}"
    );

    // The campaign can finish before both workers are back: one still in
    // reconnect backoff would miss the Shutdown and retry a daemon that
    // is gone until its window runs out, which is an error return. Stop
    // only once the status lists both.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let st = status(&addr).unwrap();
        if st.matches("\"worker\":").count() >= 2 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "both workers reconnect within 60 s: {st}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    stop(&addr).unwrap();
    child.wait().unwrap();
    let second_log = drain.join().unwrap();
    assert!(second_log.contains("resumed)"), "{second_log}");
    let r1 = w1.join().unwrap().unwrap();
    let r2 = w2.join().unwrap().unwrap();
    assert!(r1.clean_exit && r2.clean_exit);
    assert!(
        r1.reconnects >= 1 && r2.reconnects >= 1,
        "both workers re-attached after the restart ({} / {})",
        r1.reconnects,
        r2.reconnects
    );
    let _ = std::fs::remove_dir_all(dir);
}
