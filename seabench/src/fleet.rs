//! `fleet`: an in-process `sea-serve` daemon with a cache directory, two
//! loopback `sea-dist` workers with one evaluation thread each, and two
//! closed-loop clients that each `submit_watch` a seed-generated campaign
//! and submit the next only after the previous report arrived — how
//! `submit --watch` callers behave.
//!
//! The daemon runs without a journal directory. Its event loop fsyncs
//! the campaign journal once per record, so with a journal the timed
//! rounds followed the shared disk's fsync latency: 14–54 % slower
//! rounds, changing by the minute, on the reference host. The traced run
//! still times `JournalWriter::append`, fsync included, on every traced
//! round's records.
//!
//! Each round starts a fresh daemon and cache directory (its set-up is
//! one `setup_s` sample) and runs a fixed set of campaigns.
//! Campaigns have 13 units each — fast optimize runs on mpeg2 and
//! random:40 graphs (some at a tight `deadline_scale`, so pruning
//! fires), SA baselines and sweeps on random graphs and a
//! fault-injection simulate unit — and the share [`OVERLAP`] of the
//! scenarios repeat one of an earlier campaign of the round, so dedupe
//! and cache hits occur.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sea_campaign::{
    decode_result, encode_result, parse_campaign, run_unit, unit_hash, units_hash, Cache,
    JournalWriter, Unit,
};
use sea_dist::{run_worker, wire, WorkerConfig};
use sea_serve::{run_daemon, DaemonConfig, DaemonReport};

use crate::stats::{median, tail, Rng};
use crate::trace;
use crate::{Layers, Outcome, Params, JOBS};

/// Share of the scenarios repeated from an earlier campaign of the same
/// round: this many of every so many scenario slots after campaign 0.
pub const OVERLAP: (usize, usize) = (3, 10);
/// Campaigns each client submits per round, scenarios per campaign.
const PER_CLIENT: usize = 4;
const SCENARIOS: usize = 4;
/// A round with no progress for this long is stopped and counted failed.
const STALL_LIMIT: Duration = Duration::from_secs(45);

/// Rounds per run: `--seconds / SECONDS_PER_ROUND`, clamped to
/// `MIN_ROUNDS..=MAX_ROUNDS`. The count depends on `--seconds` alone,
/// never on elapsed time, so every run of a setting does the same work
/// and reports the same latency percentile.
const SECONDS_PER_ROUND: u64 = 1;
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 20;
/// Set-up-only cycles before each round: `setup_s` samples per round
/// besides the round's own set-up.
const SETUP_CYCLES: usize = 2;

/// Random-graph seeds per run, consecutive from one drawn from the run's
/// seed. The program keeps every application it builds for the life of
/// the process, so a run drawing ever new graphs would grow its RSS
/// round after round; the warm-up round builds these few.
const GRAPH_SEEDS: u64 = 4;

/// The simulate designs (mpeg2, 4 cores, 3 levels): scaling, groups.
const DESIGNS: [(&str, &str); 3] = [
    ("2,2,3,2", "0,1,2,3,4,5|6,7|8|9,10"),
    ("1,2,2,3", "0,1,2|3,4,5|6,7,8|9,10"),
    ("3,1,2,2", "0,3,6,9|1,4,7|2,5|8,10"),
];

/// A comma list of `n` consecutive seeds from a random start in
/// `1..=max_first`.
fn seed_list(rng: &mut Rng, n: u64, max_first: u64) -> String {
    let first = rng.range(1, max_first);
    let seeds: Vec<String> = (0..n).map(|k| (first + k).to_string()).collect();
    seeds.join(",")
}

/// A fresh scenario body of kind `kind` (0 optimize, 1 baseline,
/// 2 sweep, 3 simulate) for campaign `k` of a round. Unit counts are
/// fixed per kind — 2, 6, 4 and 1 — so every campaign has 13 units.
/// Graph shapes, core and level counts follow `k`, not the seed: the
/// seed draws graph seeds (from the [`GRAPH_SEEDS`] after `graphs`), unit
/// seeds and designs, so every seed gives a round the same amount of
/// evaluation work.
///
/// Optimize, baseline and sweep units run on random 40- and 60-task
/// graphs, so unit evaluation rather than per-record dispatch makes most
/// of a round's time: the round keeps both cores busy, and host wake-up
/// and disk latency stay a small share of it. Results stay small: a
/// sweep of 40 designs encodes to ~28 KB, and there is one simulate unit
/// per campaign (~226 KB). Larger results in flight make the peak RSS
/// follow thread timing instead of the program.
fn fresh_scenario(rng: &mut Rng, kind: usize, k: usize, graphs: u64) -> String {
    let seeds = seed_list(rng, 2, 1000);
    let graph = graphs + rng.range(0, GRAPH_SEEDS - 1);
    match kind {
        0 => match k % 3 {
            0 => format!(
                "kind = \"optimize\"\napps = \"random:40:{graph}\"\ncores = \"4\"\nlevels = \"3\"\n\
                 budget = \"fast\"\nseeds = \"{seeds}\"\n"
            ),
            1 => format!(
                "kind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\nlevels = \"4\"\n\
                 deadline_scale = \"{}\"\nseeds = \"{seeds}\"\n",
                rng.pick(&["0.4", "0.45", "0.5"])
            ),
            _ => format!(
                "kind = \"optimize\"\napps = \"random:40:{graph}\"\ncores = \"3\"\nlevels = \"3\"\n\
                 budget = \"fast\"\nseeds = \"{seeds}\"\n"
            ),
        },
        1 => format!(
            "kind = \"baseline\"\nobjectives = \"r,tm,tmr\"\napps = \"random:60:{graph}\"\n\
             cores = \"{}\"\nseeds = \"{seeds}\"\n",
            4 + k % 2
        ),
        2 => format!(
            "kind = \"sweep\"\napps = \"random:40:{graph}\"\ncores = \"{}\"\ncount = 40\n\
             scales = \"1,2\"\nseeds = \"{seeds}\"\n",
            4 + k % 2
        ),
        _ => {
            let (scaling, groups) = rng.pick(&DESIGNS);
            format!(
                "kind = \"simulate\"\napps = \"mpeg2\"\ncores = \"4\"\nscaling = \"{scaling}\"\n\
                 groups = \"{groups}\"\nseeds = \"{}\"\n",
                seed_list(rng, 1, 40)
            )
        }
    }
}

/// The campaign specs of one round, in submission order per client:
/// `specs[client][k]`. Each campaign has one scenario of each kind.
/// Exactly the share [`OVERLAP`] of the scenario slots after campaign 0,
/// spread evenly over kinds and campaigns, repeat an earlier scenario of
/// the same kind in the round.
///
/// Campaigns 0 and 1 start together, and the first repeat is campaign
/// 1's optimize scenario, a copy of campaign 0's, so rounds often have
/// units the daemon dedupes in flight. Later repeats alternate between
/// the latest scenario of the kind (sometimes still in flight: dedupe)
/// and a seeded pick of any earlier one (mostly finished: cache hit).
pub fn round_specs(seed: u64, round: usize, per_client: usize) -> Vec<Vec<String>> {
    let mut rng = Rng::new(
        seed.wrapping_mul(0x100_0000_01B3)
            .wrapping_add(round as u64),
    );
    let mut pool: Vec<Vec<String>> = vec![Vec::new(); SCENARIOS];
    let mut specs = vec![Vec::new(); JOBS];
    let graphs = 1 + seed % 1000;
    let (share, every) = OVERLAP;
    let mut slot = 0;
    let mut repeats = 0;
    for k in 0..per_client * JOBS {
        let mut text = format!("name = \"fleet-r{round}-c{k}\"\nbudget = \"fast\"\n");
        for (s, earlier) in pool.iter_mut().enumerate() {
            let repeat = k > 0 && {
                slot += 1;
                (slot - 1) * share % every < share
            };
            let body = if repeat {
                repeats += 1;
                let body = if repeats % 2 == 1 {
                    earlier.last().expect("campaign 0 adds one of each kind")
                } else {
                    rng.pick(earlier)
                };
                body.clone()
            } else {
                let body = fresh_scenario(&mut rng, s, k, graphs);
                earlier.push(body.clone());
                body
            };
            text.push_str(&format!("\n[scenario]\nname = \"s{s}\"\n{body}"));
        }
        specs[k % JOBS].push(text);
    }
    specs
}

/// What one client saw of one campaign.
struct Watched {
    key: String,
    spec: String,
    latency: f64,
    first_record: Option<f64>,
    record_latencies: Vec<f64>,
    records: Vec<u8>,
    report: Vec<u8>,
    error: Option<String>,
}

/// A record writer that timestamps every streamed line.
struct Stamped<'a> {
    start: Instant,
    lines: &'a mut Vec<f64>,
    bytes: &'a mut Vec<u8>,
}

impl Write for Stamped<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.ends_with(b"\n") {
            self.lines.push(self.start.elapsed().as_secs_f64());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    watched: Vec<Watched>,
    report: Option<DaemonReport>,
    status: String,
    submit_s: Vec<f64>,
    stalled: bool,
    worker_errors: Vec<String>,
    cache_bytes: u64,
}

/// Sums `"<key>":<n>` occurrences in the campaigns part of a status
/// document.
fn status_sum(status: &str, key: &str) -> usize {
    let campaigns = status.split("\"workers\"").next().unwrap_or("");
    let pat = format!("\"{key}\":");
    campaigns
        .match_indices(&pat)
        .filter_map(|(at, _)| {
            campaigns[at + pat.len()..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse::<usize>().ok())
        })
        .sum()
}

/// Total size of the cache entries in `dir`, bytes.
fn entry_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".unit"))
                .map(|e| e.metadata().map_or(0, |m| m.len()))
                .sum()
        })
        .unwrap_or(0)
}

fn run_round(p: &Params, round: usize, set: usize, specs: &[Vec<String>], traced: bool) -> Round {
    let dir = p.temp_dir.join(format!("fleet-{round}"));
    let _ = std::fs::remove_dir_all(&dir);
    // The round's fresh cache directory exists before set-up starts, as
    // a daemon's does when it is started: creating it is file-system work
    // whose cost depends on where the disk places it, not program set-up.
    std::fs::create_dir_all(dir.join("cache")).expect("cache dir in the checkout");
    let setup_start = Instant::now();
    let cache = Cache::open(dir.join("cache")).expect("cache dir in the checkout");
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral loopback port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let config = DaemonConfig {
        cache: Some(cache),
        journal_dir: None,
        heartbeat_timeout: Duration::from_secs(5),
    };
    let worker_config = WorkerConfig {
        cache: None,
        inner_jobs: 1,
        heartbeat_interval: Duration::from_millis(200),
        connect_retry: Duration::from_secs(2),
        abandon_after: None,
    };

    let mut out = Round {
        setup_s: 0.0,
        wall_s: 0.0,
        cpu_s: 0.0,
        watched: Vec::new(),
        report: None,
        status: String::new(),
        submit_s: Vec::new(),
        stalled: false,
        worker_errors: Vec::new(),
        cache_bytes: 0,
    };
    std::thread::scope(|s| {
        let daemon = s.spawn(|| run_daemon(&listener, &config));
        let workers: Vec<_> = (0..JOBS)
            .map(|_| s.spawn(|| run_worker(&addr, &worker_config)))
            .collect();
        // Set-up ends when both workers have handshaken.
        let ready = loop {
            match sea_serve::status(&addr) {
                Ok(st) if st.matches("\"worker\":").count() >= JOBS => break true,
                _ if setup_start.elapsed() > STALL_LIMIT => break false,
                _ => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        out.setup_s = setup_start.elapsed().as_secs_f64();

        // The watchdog turns a stall into a counted failure: it stops
        // the daemon, which drops every client and worker connection.
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let addr_ref = &addr;
        let watchdog = s.spawn(move || match done_rx.recv_timeout(STALL_LIMIT) {
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = sea_serve::stop(addr_ref);
                true
            }
            _ => false,
        });

        let c0 = crate::stats::cpu_time();
        let t0 = Instant::now();
        let watched: Mutex<Vec<Watched>> = Mutex::new(Vec::new());
        if ready {
            let timed = trace::span("bench.timed", JOBS);
            let timed_id = timed.id();
            std::thread::scope(|cs| {
                for (client, list) in specs.iter().enumerate() {
                    let addr = &addr;
                    let watched = &watched;
                    cs.spawn(move || {
                        for (k, spec) in list.iter().enumerate() {
                            let start = Instant::now();
                            let mut lines = Vec::new();
                            let mut records = Vec::new();
                            let mut report = Vec::new();
                            let result = sea_serve::submit_watch(
                                addr,
                                spec,
                                &mut Stamped {
                                    start,
                                    lines: &mut lines,
                                    bytes: &mut records,
                                },
                                &mut report,
                            );
                            let end = Instant::now();
                            trace::record("serve.submit_watch", timed_id, start, end);
                            let w = Watched {
                                key: format!("fleet.s{set}.c{}", k * JOBS + client),
                                spec: spec.clone(),
                                latency: (end - start).as_secs_f64(),
                                first_record: lines.first().copied(),
                                record_latencies: lines,
                                records,
                                report,
                                error: result.err().map(|e| e.to_string()),
                            };
                            let failed = w.error.is_some();
                            watched.lock().expect("collector poisoned").push(w);
                            if failed {
                                break;
                            }
                        }
                    });
                }
            });
            drop(timed);
        }
        out.wall_s = t0.elapsed().as_secs_f64();
        out.cpu_s = (crate::stats::cpu_time() - c0).as_secs_f64();
        out.watched = watched.into_inner().expect("collector poisoned");
        out.watched.sort_by(|a, b| a.key.cmp(&b.key));

        out.status = sea_serve::status(&addr).unwrap_or_default();
        if traced {
            // Re-submitting a registered spec attaches to it: the submit
            // path (parse, expand, hash, round trip) with no evaluation.
            for w in &out.watched {
                let t = Instant::now();
                if sea_serve::submit(&addr, &w.spec).is_ok() {
                    out.submit_s.push(t.elapsed().as_secs_f64());
                }
            }
        }
        let _ = done_tx.send(());
        out.stalled = watchdog.join().unwrap_or(true) || !ready;
        let _ = sea_serve::stop(&addr);
        for w in workers {
            match w.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => out.worker_errors.push(e.to_string()),
                Err(_) => out.worker_errors.push("worker thread panicked".into()),
            }
        }
        match daemon.join() {
            Ok(Ok(report)) => out.report = Some(report),
            Ok(Err(e)) => out.worker_errors.push(format!("daemon: {e}")),
            Err(_) => out.worker_errors.push("daemon thread panicked".into()),
        }
    });
    out.cache_bytes = entry_bytes(&dir.join("cache"));
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Checks one round's campaigns: no transport error, streamed records
/// concatenate to the final report, every record `ok`/`infeasible`,
/// and (default seed) the committed digest.
fn check_round(o: &mut Outcome, r: &Round) -> usize {
    o.check(!r.stalled, || {
        "round stalled past the watchdog limit".into()
    });
    for e in &r.worker_errors {
        o.fail(e.clone());
    }
    let mut delivered = 0;
    for w in &r.watched {
        o.check(w.error.is_none(), || {
            format!("{}: {}", w.key, w.error.clone().unwrap_or_default())
        });
        o.check(w.records == w.report, || {
            format!("{}: record stream != report", w.key)
        });
        let report = String::from_utf8_lossy(&w.report);
        for line in report.lines() {
            let status = line
                .split("\"status\":\"")
                .nth(1)
                .and_then(|rest| rest.split('"').next())
                .unwrap_or("");
            o.check(matches!(status, "ok" | "infeasible"), || {
                format!("{}: record status `{status}`", w.key)
            });
        }
        delivered += w.record_latencies.len();
        o.check_digest(&w.key, &report);
    }
    delivered
}

/// Replays the round's public calls the daemon and workers made
/// internally: spec expansion and hashing, the wire codec, the cache
/// entry codec and store/load, journal appends and unit evaluation.
fn replay(p: &Params, o: &mut Outcome, r: &Round) {
    let replay_span = trace::span("bench.replay", 1);
    let dir = p.temp_dir.join("fleet-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(dir.join("cache")).expect("replay cache dir");

    let mut unique: BTreeMap<sea_campaign::ContentHash, Unit> = BTreeMap::new();
    let mut campaigns: Vec<Vec<Unit>> = Vec::new();
    for w in &r.watched {
        let t = Instant::now();
        let units = parse_campaign(&w.spec)
            .expect("generated spec parses")
            .expand();
        o.layer_add("campaign.spec.expand_s", t.elapsed().as_secs_f64());
        let t = Instant::now();
        for u in &units {
            unique.entry(unit_hash(u)).or_insert_with(|| u.clone());
        }
        std::hint::black_box(units_hash(&units));
        o.layer_add("campaign.hash.s", t.elapsed().as_secs_f64());
        o.layer_add("campaign.hash.units", units.len() as f64);
        campaigns.push(units);
    }

    let t = Instant::now();
    let mut apps = BTreeMap::new();
    for u in unique.values() {
        apps.entry(u.app.label()).or_insert_with(|| u.app.build());
    }
    o.layer_add("taskgraph.build_s", t.elapsed().as_secs_f64());

    let mut layers = Layers::default();
    let mut eval_s = 0.0;
    for (k, (hash, unit)) in unique.iter().enumerate() {
        let t = Instant::now();
        let work = wire::encode_work(k, *hash, unit);
        let t1 = Instant::now();
        let (_, _, decoded) = wire::decode_work(&work).expect("work round trip");
        let t2 = Instant::now();
        let result = run_unit(&decoded).expect("replayed unit runs");
        let t3 = Instant::now();
        trace::record(
            crate::paper::layer_span_of(&result.payload, &result.record.kind),
            replay_span.id(),
            t2,
            t3,
        );
        let entry = encode_result(&result);
        let body = wire::encode_result_body(k, *hash, &entry);
        let t4 = Instant::now();
        let (_, _, entry_back) = wire::decode_result_body(&body).expect("result round trip");
        std::hint::black_box(decode_result(entry_back, unit).expect("entry decodes"));
        let t5 = Instant::now();
        cache.store(&result).expect("replay cache store");
        let t6 = Instant::now();
        let loaded = cache.load(unit);
        let t7 = Instant::now();
        o.check(loaded.is_some(), || {
            format!("replay cache miss for unit {k}")
        });

        eval_s += (t3 - t2).as_secs_f64();
        layers.unit(&result.payload, &result.record, (t3 - t2).as_secs_f64());
        o.layer_add("dist.wire.units", 1.0);
        o.layer_add("dist.wire.encode_s", ((t1 - t) + (t4 - t3)).as_secs_f64());
        o.layer_add("dist.wire.decode_s", ((t2 - t1) + (t5 - t4)).as_secs_f64());
        o.layer_add("dist.wire.bytes", (work.len() + body.len()) as f64);
        o.layer_add("campaign.cache.store_s", (t6 - t5).as_secs_f64());
        o.layer_add("campaign.cache.load_s", (t7 - t6).as_secs_f64());
    }
    layers.finish(o);

    // Journal appends (fsync'd), one journal per campaign as a daemon
    // with a journal directory keeps them.
    for (k, units) in campaigns.iter().enumerate() {
        let path = dir.join(format!("j{k}.jsonl"));
        let mut journal = JournalWriter::create(&path, "replay", units_hash(units), units.len())
            .expect("replay journal");
        for u in units {
            let result = run_unit_cached(&cache, u);
            let t = Instant::now();
            journal
                .append(u.index, unit_hash(u), &result.record)
                .expect("journal append");
            o.layer_add("campaign.journal.append_s", t.elapsed().as_secs_f64());
            o.layer_add("campaign.journal.appends", 1.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    if let Some(report) = &r.report {
        let busy: f64 = report
            .workers
            .iter()
            .map(|(_, w)| w.busy.as_secs_f64())
            .sum();
        o.layer_add("serve.worker_busy_s", busy);
        o.layer_add("serve.worker_idle_s", JOBS as f64 * r.wall_s - busy);
        o.layer_add("serve.dispatch_overhead_s", busy - eval_s);
        o.layer_add("serve.evaluated", report.evaluated as f64);
        o.layer_add("serve.deduped", report.deduped as f64);
        o.layer_add("campaign.cache.stores", report.evaluated as f64);
    }
}

/// A unit's result from the replay cache (stored above), else evaluated.
fn run_unit_cached(cache: &Cache, u: &Unit) -> sea_campaign::UnitResult {
    cache
        .load(u)
        .unwrap_or_else(|| run_unit(u).expect("replayed unit runs"))
}

pub fn run(p: &Params, o: &mut Outcome, traced_run: bool) {
    let per_client = if p.tiny { 2 } else { PER_CLIENT };
    let total_rounds = match (p.tiny, traced_run) {
        (true, false) => 1,
        (true, true) => 2,
        (false, false) => {
            ((p.seconds as u64 / SECONDS_PER_ROUND) as usize).clamp(MIN_ROUNDS, MAX_ROUNDS)
        }
        (false, true) => 4,
    };
    o.size(
        "campaigns",
        format!(
            "{JOBS} closed-loop clients x {per_client} campaigns per round, {JOBS} workers, overlap {}/{}",
            OVERLAP.0,
            OVERLAP.1
        ),
    );
    let idle = vec![Vec::new(); JOBS];
    let mut record_latencies = Vec::new();
    let mut first_records = Vec::new();
    let mut rounds = 0;
    let mut units_per_round = Vec::new();
    if !p.tiny {
        // An untimed warm-up round on the first campaign set: the
        // process's first threads, connections and allocations are not
        // a round's cost.
        let r = run_round(p, 2000, 0, &round_specs(p.seed, 0, per_client), false);
        check_round(o, &r);
    }
    loop {
        // A traced run pairs each campaign set: untraced, then traced.
        let (set, traced) = if traced_run {
            (rounds / 2, rounds % 2 == 1)
        } else {
            (rounds, false)
        };
        // Set-up-only cycles (fresh daemon, both workers handshaken,
        // stop) before each round, so the `setup_s` samples spread over
        // the whole run like the rounds do.
        for c in 0..SETUP_CYCLES {
            let r = run_round(p, 1000 + rounds * SETUP_CYCLES + c, 0, &idle, false);
            o.setup.push(r.setup_s);
            check_round(o, &r);
        }

        let specs = round_specs(p.seed, set, per_client);
        trace::set_enabled(traced);
        let r = run_round(p, rounds, set, &specs, traced);
        o.setup.push(r.setup_s);
        let delivered = check_round(o, &r);
        units_per_round.push(delivered);
        o.rep(traced, r.wall_s, r.cpu_s, delivered);
        if !traced {
            o.latencies.extend(r.watched.iter().map(|w| w.latency));
        } else {
            for w in &r.watched {
                first_records.extend(w.first_record);
                record_latencies.extend(w.record_latencies.iter().copied());
                o.layer_add(
                    "dist.frame.client_frames",
                    (w.record_latencies.len() + 1) as f64,
                );
                o.layer_add(
                    "dist.frame.client_bytes",
                    (w.records.len() + w.report.len() + 5 * (w.record_latencies.len() + 1)) as f64,
                );
            }
            for t in &r.submit_s {
                o.layer_samples("serve.submit_s", *t);
            }
            let hits = status_sum(&r.status, "cache_hits");
            o.layer_add("serve.cache_hits", hits as f64);
            o.layer_add("campaign.cache.store_bytes", r.cache_bytes as f64);
            replay(p, o, &r);
        }
        trace::set_enabled(false);
        rounds += 1;
        if rounds == total_rounds {
            break;
        }
    }
    o.size(
        "rounds",
        format!(
            "{rounds} rounds, {units_per_round:?} records, walls {:?} s",
            o.wall
                .iter()
                .map(|w| (w * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        ),
    );
    if traced_run {
        let records: f64 = record_latencies.len() as f64;
        let shared = o.layers.get("serve.deduped").copied().unwrap_or(0.0)
            + o.layers.get("serve.cache_hits").copied().unwrap_or(0.0);
        if records > 0.0 {
            o.layer("serve.shared_frac", shared / records);
        }
        o.layer("serve.first_record_s", median(&first_records));
        o.layer("serve.record_latency_p50_s", median(&record_latencies));
        o.layer("serve.record_latency_tail_s", tail(&record_latencies).1);
        let spans = trace::spans();
        o.layer(
            "bench.trace_attributed_frac",
            trace::coverage(&spans, "bench.timed", JOBS),
        );
    }
}
