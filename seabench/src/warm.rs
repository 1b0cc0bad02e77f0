//! `warm`: regenerate the reports of a large, already-evaluated
//! campaign — a Monte-Carlo fault-injection battery (simulate units over
//! many seeds) plus a cross-seed optimize/baseline/sweep study. An
//! untimed fixture run evaluates it cold into a cache and a journal;
//! each timed repetition then re-runs the campaign against the warm
//! cache at `jobs = 2` with report aggregates, and rebuilds the report
//! offline once from the journal and once from the cache directory.
//! Zero units are evaluated, so all time goes to the read side of the
//! cache and journal formats.

use std::path::{Path, PathBuf};
use std::time::Instant;

use sea_campaign::{
    dispatch_order, open_journal, parse_campaign, read_journal_records, run_units_configured,
    unit_hash, units_hash, Cache, JsonlSink, RunConfig, Sink, Unit, UnitRecord,
};

use crate::stats::Rng;
use crate::trace;
use crate::{Outcome, Params, JOBS};

/// Simulate designs of the battery (mpeg2, 4 cores, 3 levels).
const DESIGNS: [(&str, &str); 3] = [
    ("2,2,3,2", "0,1,2,3,4,5|6,7|8|9,10"),
    ("1,2,2,3", "0,1,2|3,4,5|6,7,8|9,10"),
    ("3,1,2,2", "0,3,6,9|1,4,7|2,5|8,10"),
];

/// The campaign spec: `mc_seeds` injection seeds per design plus a
/// `study_seeds`-seed optimize/baseline/sweep study. Every unit has a
/// distinct identity, so the cache holds one entry per unit.
pub fn spec(seed: u64, mc_seeds: u64, study_seeds: u64) -> String {
    let mut rng = Rng::new(seed.wrapping_add(0x3A7A));
    let mut text = String::from("name = \"warm\"\nbudget = \"fast\"\n");
    for (k, (scaling, groups)) in DESIGNS.iter().enumerate() {
        let first = rng.range(1, 1_000_000);
        let seeds: Vec<String> = (0..mc_seeds).map(|s| (first + s).to_string()).collect();
        text.push_str(&format!(
            "\n[scenario]\nname = \"mc-{k}\"\nkind = \"simulate\"\napps = \"mpeg2\"\ncores = \"4\"\n\
             scaling = \"{scaling}\"\ngroups = \"{groups}\"\nseeds = \"{}\"\n",
            seeds.join(",")
        ));
    }
    let first = rng.range(1, 1_000_000);
    let seeds: Vec<String> = (0..study_seeds).map(|s| (first + s).to_string()).collect();
    let seeds = seeds.join(",");
    let random = format!("random:{}:{}", rng.range(20, 40), rng.range(1, 9));
    text.push_str(&format!(
        "\n[scenario]\nname = \"study-opt\"\nkind = \"optimize\"\napps = \"mpeg2, fig8, {random}\"\n\
         cores = \"3,4\"\nseeds = \"{seeds}\"\n\
         \n[scenario]\nname = \"study-base\"\nkind = \"baseline\"\nobjectives = \"r,tm,tmr\"\n\
         apps = \"mpeg2\"\ncores = \"3,4\"\nseeds = \"{seeds}\"\n\
         \n[scenario]\nname = \"study-sweep\"\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\n\
         count = 40\nscales = \"1,2\"\nseeds = \"{seeds}\"\n"
    ));
    text
}

/// Renders the per-unit report plus aggregate sections, as
/// `sea-dse report --format jsonl` does.
fn render(records: &[UnitRecord]) -> String {
    let mut out = Vec::new();
    {
        let mut sink = JsonlSink::new(std::io::sink(), &mut out);
        {
            let _s = trace::span("campaign.sink.report", 1);
            sink.finish(records);
        }
        let _s = trace::span("campaign.analytics", 1);
        sink.report_aggregates(records);
    }
    String::from_utf8(out).expect("reports are UTF-8")
}

/// The cold fixture run: evaluate everything into the cache and the
/// journal, returning the report (JSONL + aggregates).
fn fixture(units: &[Unit], cache: &Cache, journal: &Path) -> String {
    let plan = open_journal(journal, "warm", units).expect("fixture journal");
    let mut config = RunConfig::new(JOBS);
    config.cache = Some(cache);
    config.journal = Some(plan.writer);
    let mut out = Vec::new();
    {
        let mut sink = JsonlSink::new(std::io::sink(), &mut out);
        let outcome = run_units_configured(units, config, &mut sink).expect("fixture run");
        sink.report_aggregates(&outcome.records());
    }
    String::from_utf8(out).expect("reports are UTF-8")
}

struct Rep {
    reports: [String; 3],
    latencies: [f64; 3],
    executed: usize,
    cache_hits: usize,
    records: usize,
}

/// One timed repetition: warm re-run, journal rebuild, cache rebuild.
fn timed(units: &[Unit], cache: &Cache, journal: &Path) -> Rep {
    let t0 = Instant::now();
    let mut warm = Vec::new();
    let outcome = {
        let _s = trace::span("campaign.pool.run_units_configured", JOBS);
        let mut sink = JsonlSink::new(std::io::sink(), &mut warm);
        let mut config = RunConfig::new(JOBS);
        config.cache = Some(cache);
        let outcome = run_units_configured(units, config, &mut sink).expect("warm re-run");
        let _a = trace::span("campaign.analytics", 1);
        sink.report_aggregates(&outcome.records());
        outcome
    };
    let warm = String::from_utf8(warm).expect("reports are UTF-8");
    let t1 = Instant::now();
    let (_, from_journal) = {
        let _s = trace::span("campaign.journal.read_journal_records", 1);
        read_journal_records(journal).expect("journal reads back")
    };
    let journal_report = render(&from_journal);
    let t2 = Instant::now();
    let (from_cache, _skipped) = {
        let _s = trace::span("campaign.cache.records", 1);
        cache.records().expect("cache dir reads back")
    };
    let cache_report = render(&from_cache);
    let t3 = Instant::now();
    Rep {
        latencies: [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
        records: units.len() + from_journal.len() + from_cache.len(),
        reports: [warm, journal_report, cache_report],
        executed: outcome.executed,
        cache_hits: outcome.cache_hits,
    }
}

/// Times the read-side calls the timed phase makes internally.
fn replay(o: &mut Outcome, units: &[Unit], cache: &Cache, journal: &Path) {
    let _s = trace::span("bench.replay", 1);
    let t = Instant::now();
    let all: Vec<usize> = (0..units.len()).collect();
    std::hint::black_box(dispatch_order(units, &all));
    o.layer_samples("campaign.pool.dispatch_order_s", t.elapsed().as_secs_f64());
    let mut load_s = 0.0;
    let mut bytes = 0u64;
    let mut hits = 0usize;
    for u in units {
        bytes += std::fs::metadata(cache.entry_path(unit_hash(u))).map_or(0, |m| m.len());
        let t = Instant::now();
        hits += usize::from(cache.load(u).is_some());
        load_s += t.elapsed().as_secs_f64();
    }
    o.layer_samples("campaign.cache.load_s", load_s);
    o.layer("campaign.cache.load_bytes", bytes as f64);
    o.check(hits == units.len(), || {
        format!("cache load: {hits}/{} hits", units.len())
    });
    let t = Instant::now();
    let (_, records) = read_journal_records(journal).expect("journal reads back");
    o.layer_samples("campaign.journal.read_s", t.elapsed().as_secs_f64());
    o.layer("campaign.journal.records", records.len() as f64);
}

pub fn run(p: &Params, o: &mut Outcome, traced_run: bool) {
    let (mc_seeds, study_seeds) = if p.tiny { (8, 1) } else { (100, 4) };
    let text = spec(p.seed, mc_seeds, study_seeds);
    let dir: PathBuf = p.temp_dir.join("warm");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.join("warm.jsonl");

    // Untimed fixture: cold evaluation into the cache and the journal.
    let t = Instant::now();
    let units = parse_campaign(&text)
        .expect("generated spec parses")
        .expand();
    let cache = Cache::open(dir.join("cache")).expect("cache dir in the checkout");
    let cold = fixture(&units, &cache, &journal);
    o.layer("bench.fixture_s", t.elapsed().as_secs_f64());
    o.size(
        "units",
        format!(
            "{} units: {} simulate (3 designs x {mc_seeds} seeds) + optimize/baseline/sweep study over {study_seeds} seeds",
            units.len(),
            3 * mc_seeds
        ),
    );
    o.check_digest(if p.tiny { "warm-tiny" } else { "warm" }, &cold);
    for line in cold.lines().filter(|l| l.starts_with("{\"index\"")) {
        let ok = line.contains("\"status\":\"ok\"") || line.contains("\"status\":\"infeasible\"");
        o.check(ok, || {
            format!("fixture record is neither ok nor infeasible: {line}")
        });
    }

    // The repetition count depends on `--seconds` alone, never on
    // elapsed time: every run of a setting does the same work.
    let reps = match (p.tiny, traced_run) {
        (true, _) => 2,
        (false, true) => 6,
        (false, false) => (p.seconds as usize * 5 / 2).clamp(6, 150),
    };
    for n in 0..reps {
        let traced = traced_run && n % 2 == 1;
        // Set-up: spec parse/expand + hash, cache and journal open.
        let t = Instant::now();
        let (units, cache) = {
            let t = Instant::now();
            let units = parse_campaign(&text)
                .expect("generated spec parses")
                .expand();
            let expand_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            std::hint::black_box(units_hash(&units));
            if traced {
                o.layer_samples("campaign.spec.expand_s", expand_s);
                o.layer_samples("campaign.hash.s", t.elapsed().as_secs_f64());
                o.layer("campaign.hash.units", units.len() as f64);
            }
            let cache = Cache::open(dir.join("cache")).expect("cache dir reopens");
            o.check(journal.is_file(), || "journal missing".into());
            (units, cache)
        };
        o.setup.push(t.elapsed().as_secs_f64());

        trace::set_enabled(traced);
        let c0 = crate::stats::cpu_time();
        let t = Instant::now();
        let rep = {
            let _s = trace::span("bench.timed", JOBS);
            timed(&units, &cache, &journal)
        };
        let wall = t.elapsed().as_secs_f64();
        let cpu = (crate::stats::cpu_time() - c0).as_secs_f64();
        o.rep(traced, wall, cpu, rep.records);
        if traced {
            o.layer_add("campaign.cache.probes", units.len() as f64);
            o.layer_add("campaign.cache.hits", rep.cache_hits as f64);
            replay(o, &units, &cache, &journal);
        } else {
            o.latencies.extend(rep.latencies);
        }
        trace::set_enabled(false);
        o.check(rep.executed == 0, || {
            format!("warm re-run evaluated {} units", rep.executed)
        });
        for (name, report) in ["re-run", "journal", "cache"].iter().zip(&rep.reports) {
            o.check(*report == cold, || {
                format!("{name} report differs from the cold report")
            });
        }
    }
    if traced_run {
        let probes = o
            .layers
            .get("campaign.cache.probes")
            .copied()
            .unwrap_or(0.0);
        let hits = o.layers.get("campaign.cache.hits").copied().unwrap_or(0.0);
        if probes > 0.0 {
            o.layer("campaign.cache.hit_ratio", hits / probes);
        }
        let spans = trace::spans();
        let traced_reps = (reps / 2) as f64;
        o.layer(
            "campaign.sink.report_s",
            trace::total(&spans, "campaign.sink.report") / traced_reps,
        );
        o.layer(
            "campaign.analytics.s",
            trace::total(&spans, "campaign.analytics") / traced_reps,
        );
        o.layer(
            "bench.trace_attributed_frac",
            trace::coverage(&spans, "bench.timed", 1),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
