//! `seabench` — the repository benchmark.
//!
//! ```text
//! seabench --workload paper|fleet|warm --seed <n> --seconds <s> --trace 0|1
//!          [--tiny] [--print-digests]
//! ```
//!
//! Drives sea-dse in-process through the public entry points its CLI
//! binaries use, checks every report it gets back, and prints the
//! metrics by name and unit. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--tiny` shrinks every workload for the self-test; `--print-digests`
//! prints the report digests the output checks compare against.
//! README.md in this directory documents workloads and metrics.

mod fleet;
mod paper;
mod stats;
mod trace;
mod warm;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use sea_campaign::{UnitPayload, UnitRecord};

use stats::{median, tail};

/// Pool threads, workers and client connections: the 2-vCPU reference
/// host's `nproc`.
pub const JOBS: usize = 2;

/// The default seed. At this seed the `paper` report is byte for byte
/// `reproduce paper`'s stdout (the experiments' own seed), and every
/// report is compared with the committed digests.
pub const DEFAULT_SEED: u64 = 0x5EA_D5E;

/// A run still going after this many seconds exits without a result.
const HARD_LIMIT_S: u64 = 170;

/// Variables that change what the program computes or how; a timed run
/// refuses to start under any of them.
const REFUSED_ENV: [&str; 4] = ["SEA_JOBS", "SEA_INCREMENTAL", "SEA_PRUNE", "SEA_CACHE"];

/// End-to-end metrics (`--trace 0`): name, unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("report_latency_p50_s", "s"),
    ("report_latency_tail_s", "s"),
];

/// Per-layer metrics (`--trace 1`): name, unit. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("taskgraph.build_s", "s"),
    ("sched.evals", "count"),
    ("sched.ns_per_eval", "ns"),
    ("opt.units", "count"),
    ("opt.busy_s", "s"),
    ("opt.unit_p50_s", "s"),
    ("opt.unit_max_s", "s"),
    ("opt.scalings_searched", "count"),
    ("opt.scalings_pruned", "count"),
    ("baselines.units", "count"),
    ("baselines.busy_s", "s"),
    ("sim.units", "count"),
    ("sim.busy_s", "s"),
    ("campaign.spec.expand_s", "s"),
    ("campaign.hash.units", "count"),
    ("campaign.hash.s", "s"),
    ("campaign.pool.dispatch_order_s", "s"),
    ("campaign.pool.idle_s", "s"),
    ("campaign.cache.probes", "count"),
    ("campaign.cache.hits", "count"),
    ("campaign.cache.hit_ratio", "ratio"),
    ("campaign.cache.load_s", "s"),
    ("campaign.cache.load_bytes", "B"),
    ("campaign.cache.stores", "count"),
    ("campaign.cache.store_s", "s"),
    ("campaign.cache.store_bytes", "B"),
    ("campaign.journal.appends", "count"),
    ("campaign.journal.append_s", "s"),
    ("campaign.journal.read_s", "s"),
    ("campaign.journal.records", "count"),
    ("campaign.sink.report_s", "s"),
    ("campaign.analytics.s", "s"),
    ("dist.wire.units", "count"),
    ("dist.wire.encode_s", "s"),
    ("dist.wire.decode_s", "s"),
    ("dist.wire.bytes", "B"),
    ("dist.frame.client_frames", "count"),
    ("dist.frame.client_bytes", "B"),
    ("serve.submit_s", "s"),
    ("serve.first_record_s", "s"),
    ("serve.record_latency_p50_s", "s"),
    ("serve.record_latency_tail_s", "s"),
    ("serve.evaluated", "count"),
    ("serve.deduped", "count"),
    ("serve.cache_hits", "count"),
    ("serve.shared_frac", "ratio"),
    ("serve.worker_busy_s", "s"),
    ("serve.worker_idle_s", "s"),
    ("serve.dispatch_overhead_s", "s"),
    ("experiments.render_s", "s"),
    ("bench.host_calib_s", "s"),
    ("bench.fixture_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.trace_attributed_frac", "ratio"),
];

/// Command-line parameters every workload sees.
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub tiny: bool,
    /// Root of the per-run cache/journal dirs (inside the checkout).
    pub temp_dir: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Set-up times, one per set-up.
    pub setup: Vec<f64>,
    /// Timed-phase wall and CPU seconds and delivered unit records, one
    /// per untraced repetition.
    pub wall: Vec<f64>,
    pub cpu: Vec<f64>,
    pub delivered: Vec<usize>,
    /// Wall seconds of traced repetitions (trace overhead).
    pub traced_wall: Vec<f64>,
    /// Report latencies, seconds, from submission to final report.
    pub latencies: Vec<f64>,
    /// Checked operations and failures among them.
    pub attempted: usize,
    pub failed: usize,
    failures: Vec<String>,
    /// Per-layer metric values, and samples reported as their median.
    pub layers: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-size lines printed with the run metadata.
    pub sizes: Vec<(String, String)>,
    /// Report digests computed this run: (key, digest).
    pub digests: Vec<(String, String)>,
    expected: Option<BTreeMap<String, String>>,
}

impl Outcome {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Counts one checked operation that failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Every unit record must be `ok` or `infeasible`.
    pub fn check_record(&mut self, r: &UnitRecord) {
        self.check(matches!(r.status, "ok" | "infeasible"), || {
            format!("unit {} status `{}`", r.index, r.status)
        });
    }

    /// Compares a report with its committed digest (default seed only).
    pub fn check_digest(&mut self, key: &str, report: &str) {
        let computed = stats::digest(report.as_bytes());
        if let Some(expected) = &self.expected {
            let ok = expected.get(key) == Some(&computed);
            self.check(ok, || {
                format!("report `{key}` digest {computed} does not match")
            });
        }
        self.digests.push((key.to_string(), computed));
    }

    pub fn size(&mut self, what: &str, value: String) {
        self.sizes.push((what.to_string(), value));
    }

    /// One timed repetition: untraced ones feed the end-to-end metrics,
    /// traced ones only the trace overhead.
    pub fn rep(&mut self, traced: bool, wall: f64, cpu: f64, delivered: usize) {
        if traced {
            self.traced_wall.push(wall);
        } else {
            self.wall.push(wall);
            self.cpu.push(cpu);
            self.delivered.push(delivered);
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn layer_add(&mut self, name: &'static str, value: f64) {
        *self.layers.entry(name).or_default() += value;
    }

    /// A per-layer metric reported as the median of its samples.
    pub fn layer_samples(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

/// Per-unit busy-time aggregation shared by the replay passes.
#[derive(Default)]
pub struct Layers {
    opt: Vec<f64>,
    baselines: Vec<f64>,
    sim: Vec<f64>,
    evals: f64,
    searched: f64,
    pruned: f64,
}

impl Layers {
    /// Adds one replayed unit's evaluation time, by layer.
    pub fn unit(&mut self, payload: &UnitPayload, record: &UnitRecord, secs: f64) {
        match paper::layer_span_of(payload, &record.kind) {
            "opt.run_unit" => self.opt.push(secs),
            "sim.run_unit" => self.sim.push(secs),
            _ => self.baselines.push(secs),
        }
        if let UnitPayload::Design(outcome) = payload {
            self.evals += outcome.total_evaluations as f64;
            if record.kind == "optimize" {
                self.searched += outcome.scalings_searched() as f64;
                self.pruned += outcome.scalings_pruned() as f64;
            }
        }
    }

    pub fn busy(&self) -> f64 {
        self.opt
            .iter()
            .chain(&self.baselines)
            .chain(&self.sim)
            .sum()
    }

    pub fn finish(&self, o: &mut Outcome) {
        let opt_busy: f64 = self.opt.iter().sum();
        let base_busy: f64 = self.baselines.iter().sum();
        o.layer("opt.units", self.opt.len() as f64);
        o.layer("opt.busy_s", opt_busy);
        o.layer("opt.unit_p50_s", median(&self.opt));
        o.layer(
            "opt.unit_max_s",
            self.opt.iter().copied().fold(0.0, f64::max),
        );
        o.layer("opt.scalings_searched", self.searched);
        o.layer("opt.scalings_pruned", self.pruned);
        o.layer("baselines.units", self.baselines.len() as f64);
        o.layer("baselines.busy_s", base_busy);
        o.layer("sim.units", self.sim.len() as f64);
        o.layer("sim.busy_s", self.sim.iter().sum());
        o.layer("sched.evals", self.evals);
        if self.evals > 0.0 {
            o.layer(
                "sched.ns_per_eval",
                (opt_busy + base_busy) * 1e9 / self.evals,
            );
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        tiny: false,
        print_digests: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| {
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--workload" => a.workload = value(i)?,
            "--seed" => a.seed = value(i)?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                a.seconds = value(i)?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive integer")?;
            }
            "--trace" => {
                a.trace = match value(i)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--tiny" => {
                a.tiny = true;
                i += 1;
                continue;
            }
            "--print-digests" => {
                a.print_digests = true;
                i += 1;
                continue;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if !matches!(a.workload.as_str(), "paper" | "fleet" | "warm") {
        return Err("--workload must be paper, fleet or warm".into());
    }
    Ok(a)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// The committed digests (`<key> <digest>` lines).
fn load_digests() -> Result<BTreeMap<String, String>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.trim().to_string()))
        .collect())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("error: {var} is set; timed runs refuse to start under it");
        std::process::exit(2);
    }
    let temp_dir =
        PathBuf::from(".bench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    let params = Params {
        seed: args.seed,
        seconds: args.seconds as f64,
        tiny: args.tiny,
        temp_dir,
    };

    // Last-resort guard for the 180 s limit: a hang the workloads' own
    // watchdogs cannot break ends the run without a result.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(HARD_LIMIT_S));
        eprintln!("error: run exceeded {HARD_LIMIT_S} s");
        std::process::exit(3);
    });
    let calib_start = stats::host_calibration();
    let mut expected = None;
    if args.seed == DEFAULT_SEED {
        match load_digests() {
            Ok(d) => expected = Some(d),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut o = Outcome {
        expected,
        ..Outcome::default()
    };
    let trace_spans = args.trace;
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match args.workload.as_str() {
            "paper" => paper::run(&params, &mut o, trace_spans),
            "fleet" => fleet::run(&params, &mut o, trace_spans),
            _ => warm::run(&params, &mut o, trace_spans),
        }
    }));
    let _ = std::fs::remove_dir_all(&params.temp_dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    if result.is_err() {
        eprintln!("error: the {} workload panicked", args.workload);
        std::process::exit(1);
    }
    let calib_end = stats::host_calibration();
    if args.print_digests {
        for (k, d) in &o.digests {
            println!("{k} {d}");
        }
        return;
    }

    let size_tag = if args.tiny { " (tiny)" } else { "" };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "seabench: workload {}{size_tag}, seed {}, seconds {}, trace {}, commit {}, nproc {nproc}, jobs {JOBS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    for (what, value) in &o.sizes {
        println!("size: {what}: {value}");
    }
    println!(
        "samples: {} set-up(s), {} untraced + {} traced timed repetition(s), {} report latencies",
        o.setup.len(),
        o.wall.len(),
        o.traced_wall.len(),
        o.latencies.len()
    );
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed, failed_frac = {failed_frac} ratio{}",
        o.attempted,
        o.failed,
        if o.expected.is_some() {
            ", digests compared (default seed)"
        } else {
            ""
        }
    );
    for f in &o.failures {
        println!("check failed: {f}");
    }

    let e2e = end_to_end(&o);
    if !o.wall.is_empty() {
        for (name, unit) in END_TO_END {
            println!("metric {name} = {} {unit}", e2e[name]);
        }
    }
    if !o.latencies.is_empty() {
        let (p, _) = tail(&o.latencies);
        let n = o.latencies.len();
        let beyond = n - ((p / 100.0) * n as f64).ceil() as usize;
        println!(
            "percentile: report_latency_p50_s and report_latency_tail_s over {n} samples; \
             the tail is p{p}, {beyond} samples beyond it"
        );
    }
    println!("host: bench.host_calib_s start {calib_start:.4} s, end {calib_end:.4} s");

    let chosen: Vec<(&str, &str, f64)> = if args.trace {
        o.layer("bench.host_calib_s", median(&[calib_start, calib_end]));
        if !o.traced_wall.is_empty() && !o.wall.is_empty() {
            o.layer(
                "bench.trace_overhead_s",
                median(&o.traced_wall) - median(&o.wall),
            );
        }
        for (name, samples) in std::mem::take(&mut o.samples) {
            o.layer(name, median(&samples));
        }
        print_layer_table(&args.workload, args.seed, &o);
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, o.layers.get(n).copied().unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n, u, e2e[n])).collect()
    };
    let mut json = String::new();
    for (k, (name, unit, value)) in chosen.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            json,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
}

/// The end-to-end metrics from the untraced repetitions.
fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let rates: Vec<f64> = o
        .delivered
        .iter()
        .zip(&o.wall)
        .map(|(&n, &w)| n as f64 / w)
        .collect();
    let mut m = BTreeMap::new();
    m.insert("wall_s", median(&o.wall));
    m.insert("units_per_s", median(&rates));
    m.insert("cpu_s", median(&o.cpu));
    m.insert("setup_s", median(&o.setup));
    m.insert("peak_rss_mb", stats::peak_rss_mib());
    m.insert("report_latency_p50_s", median(&o.latencies));
    m.insert("report_latency_tail_s", tail(&o.latencies).1);
    m
}

/// Prints the per-layer table (span self time) and writes the span file.
fn print_layer_table(workload: &str, seed: u64, o: &Outcome) {
    let spans = trace::spans();
    let run_id = format!("{workload}-{seed}-{}", std::process::id());
    let path = PathBuf::from(".bench_out").join(format!("spans-{workload}-{seed}.jsonl"));
    match trace::write_span_file(&path, &run_id, &spans) {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: cannot write {}: {e}", path.display()),
    }
    println!("layer table (thread-seconds; self = span minus child spans):");
    println!(
        "  {:<36} {:>6} {:>12} {:>12}",
        "span", "count", "busy_s", "self_s"
    );
    for (name, (count, busy, own)) in trace::layer_table(&spans) {
        println!("  {name:<36} {count:>6} {busy:>12.4} {own:>12.4}");
    }
    for (name, value) in &o.layers {
        println!("layer {name} = {value}");
    }
}
