//! `sea-dse` command-line tool: optimize, simulate, sweep, generate and
//! analyze MPSoC designs from the shell. Run `sea-dse help` for usage.

use std::process::ExitCode;

use sea_dse::arch::{Architecture, ScalingVector, SerModel};
use sea_dse::baselines::BaselineOptimizer;
use sea_dse::campaign::{
    level_set, open_journal, read_journal_records, run_units_configured, Cache, CsvSink,
    EntryHealth, HumanSink, JournalPlan, JsonlSink, RunConfig, Sink, Unit,
};
use sea_dse::cli::{
    self, CacheAction, CacheArgs, CampaignArgs, Command, DaemonArgs, DesignArgs, OptimizeArgs,
    OutputFormat, PolicySpec, ReportArgs, ServeArgs, SubmitArgs, WorkerArgs,
};
use sea_dse::experiments::campaigns as builtin_campaigns;
use sea_dse::opt::{DesignOptimizer, OptimizationOutcome, OptimizerConfig, SearchBudget};
use sea_dse::sched::metrics::EvalContext;
use sea_dse::sched::recovery::{self, RecoveryPolicy};
use sea_dse::sched::Mapping;
use sea_dse::sim::{simulate_design, SimConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", cli::USAGE);
            ExitCode::FAILURE
        }
    }
}

fn run(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{}", cli::USAGE);
            Ok(())
        }
        Command::Optimize(a) => {
            let app = a.app.build().map_err(|e| e.to_string())?;
            let out = DesignOptimizer::new(config_of(&a))
                .optimize(&app)
                .map_err(|e| e.to_string())?;
            print_outcome(&out, a.csv);
            Ok(())
        }
        Command::Baseline(b) => {
            let app = b.common.app.build().map_err(|e| e.to_string())?;
            let out = BaselineOptimizer::new(config_of(&b.common), b.objective)
                .optimize(&app)
                .map_err(|e| e.to_string())?;
            println!("# {}", b.objective.label());
            print_outcome(&out, b.common.csv);
            Ok(())
        }
        Command::Simulate(d) => {
            let (app, arch, mapping, scaling) = build_design(&d)?;
            let mut cfg = SimConfig::seeded(d.seed);
            cfg.ser = SerModel::calibrated(d.ser);
            let report = simulate_design(&app, &arch, &mapping, &scaling, &cfg)
                .map_err(|e| e.to_string())?;
            println!("design:  {mapping} @ {scaling}");
            println!(
                "timing:  TM = {:.4} s (deadline {:.4} s, {})",
                report.trace.tm_seconds,
                app.deadline_s(),
                if report.analytic.meets_deadline {
                    "met"
                } else {
                    "MISSED"
                }
            );
            println!(
                "power:   P = {:.3} mW   R = {:.1} kbit/cycle",
                report.analytic.power_mw,
                report.analytic.r_total_kbits()
            );
            println!(
                "faults:  injected {} | experienced {} | analytic Gamma {:.4e}",
                report.faults.total_injected,
                report.faults.total_experienced,
                report.analytic.gamma
            );
            for cf in &report.faults.per_core {
                println!(
                    "  {}: experienced {} (expected {:.1}), working set {:.1} kbit",
                    cf.core,
                    cf.experienced,
                    cf.expected_experienced,
                    cf.r_bits.as_kbits()
                );
            }
            Ok(())
        }
        Command::Sweep(s) => {
            let app = s.app.build().map_err(|e| e.to_string())?;
            let arch = Architecture::arm7_calibrated(s.cores, level_set(3));
            let ctx = EvalContext::new(&app, &arch);
            let scaling = ScalingVector::uniform(s.scale, &arch).map_err(|e| e.to_string())?;
            let points =
                sea_dse::baselines::sweep::random_mapping_sweep(&ctx, &scaling, s.count, s.seed)
                    .map_err(|e| e.to_string())?;
            if s.csv {
                println!("tm_s,r_kbits,gamma,power_mw");
                for p in &points {
                    println!(
                        "{:.6},{:.2},{:.2},{:.4}",
                        p.evaluation.tm_seconds,
                        p.evaluation.r_total_kbits(),
                        p.evaluation.gamma,
                        p.evaluation.power_mw
                    );
                }
            } else {
                println!("{} mappings (uniform s={}):", points.len(), s.scale);
                for p in points.iter().take(20) {
                    println!(
                        "  TM {:.3} s  R {:.1} kbit  Gamma {:.3e}   {}",
                        p.evaluation.tm_seconds,
                        p.evaluation.r_total_kbits(),
                        p.evaluation.gamma,
                        p.mapping
                    );
                }
                if points.len() > 20 {
                    println!("  ... ({} more; use --csv for all)", points.len() - 20);
                }
            }
            Ok(())
        }
        Command::Generate(g) => {
            let app = cli::AppSpec::Random {
                tasks: g.tasks,
                seed: g.seed,
            }
            .build()
            .map_err(|e| e.to_string())?;
            if g.dot {
                print!("{}", app.graph().to_dot());
            } else {
                println!(
                    "{}: {} tasks, {} edges, deadline {:.1} s",
                    app.name(),
                    app.graph().len(),
                    app.graph().edges().len(),
                    app.deadline_s()
                );
                println!(
                    "total computation: {} cycles; critical path: {} cycles",
                    app.graph().total_computation(),
                    app.graph().critical_path()
                );
                println!(
                    "register model: {} blocks, duplication-free union {:.1} kbit",
                    app.registers().blocks().len(),
                    app.registers().total_union().as_kbits()
                );
            }
            Ok(())
        }
        Command::Campaign(c) => run_campaign(&c),
        Command::Report(r) => run_report(&r),
        Command::Serve(s) => run_serve(&s),
        Command::Worker(w) => run_worker_cmd(&w),
        Command::Daemon(d) => run_daemon_cmd(&d),
        Command::Submit(s) => run_submit(&s),
        Command::Status(c) => {
            println!(
                "{}",
                sea_dse::serve::status(&c.connect).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Cancel(c) => {
            eprintln!(
                "{}",
                sea_dse::serve::cancel(&c.connect, c.id).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::Stop(c) => {
            eprintln!(
                "{}",
                sea_dse::serve::stop(&c.connect).map_err(|e| e.to_string())?
            );
            Ok(())
        }
        Command::CacheCmd(c) => run_cache_cmd(&c),
        Command::Recovery(r) => {
            let (app, arch, mapping, scaling) = build_design(&r.design)?;
            let ctx = EvalContext::new(&app, &arch).with_ser(SerModel::calibrated(r.design.ser));
            let eval = ctx
                .evaluate(&mapping, &scaling)
                .map_err(|e| e.to_string())?;
            let policy = match r.policy {
                PolicySpec::None => RecoveryPolicy::None,
                PolicySpec::ReExec { coverage } => RecoveryPolicy::ReExecution {
                    detection_coverage: coverage,
                },
                PolicySpec::Checkpoint {
                    coverage,
                    interval_s,
                    save_s,
                } => RecoveryPolicy::Checkpointing {
                    detection_coverage: coverage,
                    interval_s,
                    save_cost_s: save_s,
                },
            };
            let counts: Vec<usize> = (0..mapping.n_cores())
                .map(|c| mapping.count_on(sea_dse::arch::CoreId::new(c)))
                .collect();
            let rep = recovery::analyze(
                &eval,
                &counts,
                app.mode().iterations(),
                app.deadline_s(),
                policy,
            );
            println!("design:   {mapping} @ {scaling}");
            println!("Gamma:    {:.4e} expected SEUs", eval.gamma);
            println!(
                "recovery: {:.2e} recovered, {:.2e} residual, overhead {:.4} s",
                rep.expected_recoveries, rep.residual_gamma, rep.expected_overhead_s
            );
            println!(
                "deadline: TM {:.4} s -> {:.4} s with recovery ({})",
                eval.tm_seconds,
                rep.tm_with_recovery_s,
                if rep.meets_deadline_with_recovery {
                    "met"
                } else {
                    "MISSED"
                }
            );
            Ok(())
        }
    }
}

/// Resolves `--spec`/`--builtin` to campaign spec text — shared by the
/// local loaders and `submit`, which ships the text verbatim so the
/// daemon parses exactly what a local run would.
fn spec_source(spec_path: Option<&str>, builtin: Option<&str>) -> Result<String, String> {
    match (spec_path, builtin) {
        (Some(path), _) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read campaign spec `{path}`: {e}")),
        (None, Some(name)) => match builtin_campaigns::builtin(name) {
            Some(b) => Ok(b.source.to_string()),
            None => {
                let names: Vec<&str> = builtin_campaigns::builtins()
                    .iter()
                    .map(|b| b.name)
                    .collect();
                Err(format!(
                    "unknown built-in campaign `{name}` (available: {})",
                    names.join(", ")
                ))
            }
        },
        (None, None) => unreachable!("validated at parse time"),
    }
}

/// Loads and expands a campaign from `--spec`/`--builtin`, applying a
/// `--budget` override — shared by `campaign` and `serve`.
fn load_campaign(
    spec_path: Option<&str>,
    builtin: Option<&str>,
    budget: Option<sea_dse::campaign::BudgetSpec>,
) -> Result<sea_dse::campaign::Campaign, String> {
    let source = spec_source(spec_path, builtin)?;
    let mut campaign = sea_dse::campaign::parse_campaign(&source).map_err(|e| e.to_string())?;
    if let Some(budget) = budget {
        campaign.budget = budget;
        for scenario in &mut campaign.scenarios {
            scenario.budget = None;
        }
    }
    Ok(campaign)
}

/// The format-selected sink: progress to stderr, final report to stdout.
fn make_sink(format: OutputFormat) -> Box<dyn Sink> {
    match format {
        OutputFormat::Human => Box::new(HumanSink::new(std::io::stderr(), std::io::stdout())),
        OutputFormat::Csv => Box::new(CsvSink::new(std::io::stderr(), std::io::stdout())),
        OutputFormat::Jsonl => Box::new(JsonlSink::new(std::io::stderr(), std::io::stdout())),
    }
}

/// The persistence layers `campaign` and `serve` open before a run: the
/// content-addressed result cache (opt-in via --cache or SEA_CACHE; zero
/// filesystem writes otherwise) and the write-ahead journal behind
/// --resume.
struct Persistence {
    cache: Option<Cache>,
    journal: Option<JournalPlan>,
}

impl Persistence {
    /// Resolves the cache and opens the journal, printing the `resume:`
    /// line when the journal restores units.
    fn open(
        cache_dir: Option<&str>,
        resume: Option<&str>,
        name: &str,
        units: &[Unit],
    ) -> Result<Self, String> {
        let cache =
            Cache::resolve(cache_dir).map_err(|e| format!("cannot open the result cache: {e}"))?;
        let journal = match resume {
            Some(path) => {
                let plan = open_journal(std::path::Path::new(path), name, units)
                    .map_err(|e| e.to_string())?;
                if plan.resumed > 0 {
                    eprintln!(
                        "resume: {} of {} units restored from `{path}`",
                        plan.resumed,
                        units.len()
                    );
                }
                Some(plan)
            }
            None => None,
        };
        Ok(Persistence { cache, journal })
    }

    /// The run's configuration on `jobs` workers: the cache, plus the
    /// journal's restored records and appender.
    fn config(&mut self, jobs: usize) -> RunConfig<'_> {
        let mut config = RunConfig::new(jobs);
        config.cache = self.cache.as_ref();
        if let Some(plan) = self.journal.take() {
            config.prefilled = plan.prefilled;
            config.journal = Some(plan.writer);
        }
        config
    }
}

fn run_campaign(c: &CampaignArgs) -> Result<(), String> {
    if c.list_builtin {
        println!("built-in campaigns (sea-dse campaign --builtin <name>):");
        for b in builtin_campaigns::builtins() {
            println!("  {:<12} {}", b.name, b.description);
        }
        return Ok(());
    }
    let campaign = load_campaign(c.spec_path.as_deref(), c.builtin.as_deref(), c.budget)?;
    let units = campaign.expand();
    let jobs = c.jobs.unwrap_or_else(sea_dse::opt::default_jobs);
    eprintln!(
        "campaign `{}`: {} units on {} worker(s)",
        campaign.name,
        units.len(),
        jobs
    );
    let mut persistence = Persistence::open(
        c.cache_dir.as_deref(),
        c.resume.as_deref(),
        &campaign.name,
        &units,
    )?;
    // Progress streams to stderr in completion order; the final report
    // goes to stdout in enumeration order (byte-identical for any --jobs,
    // any cache state and any resume point).
    let mut sink = make_sink(c.format);
    let outcome = run_units_configured(&units, persistence.config(jobs), sink.as_mut())
        .map_err(|e| e.to_string())?;
    let cached = persistence.cache.is_some();
    if cached {
        eprintln!(
            "cache: {} hit(s), {} evaluated",
            outcome.cache_hits, outcome.executed
        );
    }
    if cached || c.resume.is_some() || outcome.deduped > 0 {
        eprintln!(
            "units: {} evaluated, {} cache hit(s), {} deduped, {} journaled",
            outcome.executed, outcome.cache_hits, outcome.deduped, outcome.resumed
        );
    }
    pruning_summary(&outcome.units);
    if c.report_aggregates {
        sink.report_aggregates(&outcome.records());
    }
    // A truncated final report (full disk, closed pipe) must not exit 0.
    if let Some(e) = sink.take_io_error() {
        return Err(format!("writing the campaign report failed: {e}"));
    }
    Ok(())
}

/// `sea-dse report <journal|cache-dir>`: offline analytics — rebuild the
/// flat records from a persisted artifact and render the per-unit report
/// plus the aggregate sections, byte-identical to the live
/// `campaign --report-aggregates` output, with zero units re-evaluated.
fn run_report(r: &ReportArgs) -> Result<(), String> {
    let source = std::path::Path::new(&r.source);
    let records = if source.is_dir() {
        // Cache::open on an existing directory creates nothing.
        let cache = Cache::open(source)
            .map_err(|e| format!("cannot open cache directory `{}`: {e}", r.source))?;
        let (records, skipped) = cache
            .records()
            .map_err(|e| format!("cannot read cache directory `{}`: {e}", r.source))?;
        eprintln!(
            "report: {} record(s) from cache `{}`{}",
            records.len(),
            r.source,
            if skipped > 0 {
                format!(
                    ", {skipped} corrupt entr{} skipped",
                    if skipped == 1 { "y" } else { "ies" }
                )
            } else {
                String::new()
            }
        );
        records
    } else if source.is_file() {
        let (header, records) = read_journal_records(source).map_err(|e| e.to_string())?;
        eprintln!(
            "report: {} of {} unit(s) from journal `{}` (campaign `{}`)",
            records.len(),
            header.units,
            r.source,
            header.name
        );
        records
    } else {
        return Err(format!(
            "`{}` is neither a journal file nor a cache directory",
            r.source
        ));
    };
    let mut sink = make_sink(r.format);
    sink.finish(&records);
    sink.report_aggregates(&records);
    if let Some(e) = sink.take_io_error() {
        return Err(format!("writing the report failed: {e}"));
    }
    Ok(())
}

/// Folds the optimizer's bound-pruning counters over every design
/// payload this process actually executed (cache-restored and resumed
/// units are record-only, so they contribute nothing) and reports them
/// on **stderr** — the stdout report must stay byte-identical whether
/// or not pruning fired.
fn pruning_summary(units: &[sea_dse::campaign::UnitOutcome]) {
    let (pruned, searched) = units
        .iter()
        .filter_map(sea_dse::campaign::UnitOutcome::result)
        .filter_map(|r| r.payload.outcome())
        .fold((0usize, 0usize), |(p, s), o| {
            (p + o.scalings_pruned(), s + o.scalings_searched())
        });
    if pruned + searched > 0 {
        eprintln!("pruning: {pruned} scaling(s) pruned by TM bound, {searched} searched");
    }
}

fn run_serve(s: &ServeArgs) -> Result<(), String> {
    let campaign = load_campaign(s.spec_path.as_deref(), s.builtin.as_deref(), s.budget)?;
    let units = campaign.expand();
    let listener = std::net::TcpListener::bind(&s.listen)
        .map_err(|e| format!("cannot listen on `{}`: {e}", s.listen))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the listen address: {e}"))?;
    // The bound address goes to stderr in a fixed format so scripts can
    // discover an ephemeral port (`--listen 127.0.0.1:0`).
    eprintln!(
        "serve `{}`: {} units, listening on {bound}",
        campaign.name,
        units.len()
    );
    let mut persistence = Persistence::open(
        s.cache_dir.as_deref(),
        s.resume.as_deref(),
        &campaign.name,
        &units,
    )?;
    let mut sink = make_sink(s.format);
    let mut serve_config = sea_dse::dist::ServeConfig::new(persistence.config(1));
    serve_config.heartbeat_timeout = std::time::Duration::from_secs(s.timeout_s);
    let outcome = sea_dse::dist::serve_units(&listener, &units, serve_config, sink.as_mut())
        .map_err(|e| e.to_string())?;
    if persistence.cache.is_some() {
        eprintln!(
            "cache: {} hit(s), {} dispatched",
            outcome.cache_hits, outcome.executed
        );
    }
    pruning_summary(&outcome.units);
    if let Some(e) = sink.take_io_error() {
        return Err(format!("writing the campaign report failed: {e}"));
    }
    Ok(())
}

fn run_daemon_cmd(d: &DaemonArgs) -> Result<(), String> {
    let listener = std::net::TcpListener::bind(&d.listen)
        .map_err(|e| format!("cannot listen on `{}`: {e}", d.listen))?;
    let bound = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the listen address: {e}"))?;
    // Same fixed discovery format as `serve` (scripts grep for it).
    eprintln!("daemon: listening on {bound}");
    let mut config = sea_dse::serve::DaemonConfig::new();
    config.cache = Cache::resolve(d.cache_dir.as_deref())
        .map_err(|e| format!("cannot open the result cache: {e}"))?;
    if let Some(dir) = &d.journal_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create journal directory `{dir}`: {e}"))?;
        config.journal_dir = Some(std::path::PathBuf::from(dir));
    }
    config.heartbeat_timeout = std::time::Duration::from_secs(d.timeout_s);
    let report = sea_dse::serve::run_daemon(&listener, &config).map_err(|e| e.to_string())?;
    // The shutdown summary (per-worker fleet stats included) goes to
    // stderr like all progress output.
    eprintln!(
        "daemon: stopped — {} campaign(s) ({} complete, {} cancelled), {} unit(s) evaluated, {} deduped",
        report.campaigns, report.completed, report.cancelled, report.evaluated, report.deduped
    );
    for (id, w) in &report.workers {
        eprintln!(
            "  worker #{id}: {} unit(s) completed, {} cache hit(s), {} error(s), mean {:.1} ms/unit",
            w.completed,
            w.cache_hits,
            w.errors,
            w.mean_unit_ms()
        );
    }
    Ok(())
}

fn run_submit(s: &SubmitArgs) -> Result<(), String> {
    let spec = spec_source(s.spec_path.as_deref(), s.builtin.as_deref())?;
    if s.watch {
        // Streamed records are progress (stderr); the final report bytes
        // go to stdout alone, cmp-able against a local
        // `campaign --format jsonl` run of the same spec.
        let mut records = std::io::stderr();
        let mut report = std::io::stdout();
        let outcome = sea_dse::serve::submit_watch(&s.connect, &spec, &mut records, &mut report)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "submit: campaign {} complete ({} unit(s), spec hash {})",
            outcome.campaign_id, outcome.n_units, outcome.spec_hash
        );
    } else {
        let outcome = sea_dse::serve::submit(&s.connect, &spec).map_err(|e| e.to_string())?;
        println!(
            "campaign {} accepted: {} unit(s), spec hash {}",
            outcome.campaign_id, outcome.n_units, outcome.spec_hash
        );
    }
    Ok(())
}

fn run_worker_cmd(w: &WorkerArgs) -> Result<(), String> {
    let cache = Cache::resolve(w.cache_dir.as_deref())
        .map_err(|e| format!("cannot open the result cache: {e}"))?;
    let config = sea_dse::dist::WorkerConfig {
        cache: cache.as_ref(),
        inner_jobs: w.jobs.unwrap_or_else(sea_dse::opt::default_jobs),
        connect_retry: std::time::Duration::from_secs(w.retry_s),
        ..sea_dse::dist::WorkerConfig::default()
    };
    eprintln!("worker: connecting to {}", w.connect);
    let report = sea_dse::dist::run_worker(&w.connect, &config).map_err(|e| e.to_string())?;
    eprintln!(
        "worker: done — {} unit(s) completed ({} from the local cache)",
        report.completed, report.cache_hits
    );
    Ok(())
}

fn run_cache_cmd(c: &CacheArgs) -> Result<(), String> {
    // Maintenance is read/destroy-only: never *create* the directory
    // (Cache::resolve would), or a typo'd --dir silently reports a
    // perpetually clean empty cache instead of erroring.
    let dir = c
        .dir
        .clone()
        .filter(|s| !s.is_empty())
        .or_else(|| {
            std::env::var(sea_dse::campaign::CACHE_ENV)
                .ok()
                .filter(|s| !s.is_empty())
        })
        .ok_or_else(|| "no cache directory: pass --dir <dir> or set SEA_CACHE".to_string())?;
    if !std::path::Path::new(&dir).is_dir() {
        return Err(format!("cache directory `{dir}` does not exist"));
    }
    let cache =
        Cache::open(&dir).map_err(|e| format!("cannot open cache directory `{dir}`: {e}"))?;
    match c.action {
        CacheAction::Stats => {
            let survey = cache.survey().map_err(|e| e.to_string())?;
            let total_bytes: u64 = survey.iter().map(|e| e.bytes).sum();
            let corrupt = survey
                .iter()
                .filter(|e| matches!(e.health, EntryHealth::Corrupt(_)))
                .count();
            let mut by_kind: std::collections::BTreeMap<&str, usize> =
                std::collections::BTreeMap::new();
            for entry in &survey {
                if let EntryHealth::Ok { kind } = &entry.health {
                    *by_kind.entry(kind.as_str()).or_default() += 1;
                }
            }
            println!("cache {}", cache.dir().display());
            println!("entries:  {}", survey.len());
            println!("bytes:    {total_bytes}");
            println!("corrupt:  {corrupt}");
            for (kind, count) in by_kind {
                println!("  {kind:<14} {count}");
            }
            Ok(())
        }
        CacheAction::Verify => {
            let survey = cache.survey().map_err(|e| e.to_string())?;
            let mut corrupt = 0usize;
            for entry in &survey {
                if let EntryHealth::Corrupt(reason) = &entry.health {
                    corrupt += 1;
                    println!("CORRUPT {}: {reason}", entry.path.display());
                    if c.delete_corrupt {
                        std::fs::remove_file(&entry.path)
                            .map_err(|e| format!("cannot delete {}: {e}", entry.path.display()))?;
                    }
                }
            }
            println!(
                "verified {} entr{}: {} ok, {corrupt} corrupt{}",
                survey.len(),
                if survey.len() == 1 { "y" } else { "ies" },
                survey.len() - corrupt,
                if c.delete_corrupt && corrupt > 0 {
                    " (deleted)"
                } else {
                    ""
                }
            );
            // Corrupt entries found-but-kept exit nonzero so scripts notice.
            if corrupt > 0 && !c.delete_corrupt {
                return Err(format!(
                    "{corrupt} corrupt entr{} (re-run with --delete-corrupt to remove)",
                    if corrupt == 1 { "y" } else { "ies" }
                ));
            }
            Ok(())
        }
        CacheAction::Prune => {
            const DAY: f64 = 86_400.0;
            // Saturate absurd ages instead of letting from_secs_f64 panic
            // on out-of-range floats — an enormous --max-age-days simply
            // prunes nothing.
            let max_age = c.max_age_days.map(|d| {
                std::time::Duration::try_from_secs_f64(d * DAY).unwrap_or(std::time::Duration::MAX)
            });
            let max_bytes = c.max_size_mib.map(|m| m.saturating_mul(1024 * 1024));
            let outcome = cache.prune(max_age, max_bytes).map_err(|e| e.to_string())?;
            println!(
                "pruned {} of {} entr{}: freed {} bytes, {} entr{} ({} bytes) kept",
                outcome.deleted,
                outcome.scanned,
                if outcome.scanned == 1 { "y" } else { "ies" },
                outcome.freed_bytes,
                outcome.kept,
                if outcome.kept == 1 { "y" } else { "ies" },
                outcome.kept_bytes
            );
            Ok(())
        }
    }
}

fn config_of(a: &OptimizeArgs) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::paper(a.cores).with_levels(level_set(a.levels));
    cfg.budget = if a.paper_budget {
        SearchBudget::thorough()
    } else {
        SearchBudget::fast()
    };
    cfg.seed = a.seed;
    if let Some(jobs) = a.jobs {
        cfg.jobs = jobs;
    }
    cfg.selection = a.selection;
    cfg
}

fn build_design(
    d: &DesignArgs,
) -> Result<
    (
        sea_dse::taskgraph::Application,
        Architecture,
        Mapping,
        ScalingVector,
    ),
    String,
> {
    let app = d.app.build().map_err(|e| e.to_string())?;
    let arch = Architecture::arm7_calibrated(d.cores, level_set(3));
    let groups: Vec<&[usize]> = d.groups.iter().map(Vec::as_slice).collect();
    let mapping = Mapping::from_groups(&groups, d.cores).map_err(|e| e.to_string())?;
    if mapping.n_tasks() != app.graph().len() {
        return Err(format!(
            "groups cover {} tasks but the application has {}",
            mapping.n_tasks(),
            app.graph().len()
        ));
    }
    let scaling = ScalingVector::try_new(d.scaling.clone(), &arch).map_err(|e| e.to_string())?;
    Ok((app, arch, mapping, scaling))
}

fn print_outcome(out: &OptimizationOutcome, csv: bool) {
    if csv {
        println!("scaling,mapping,power_mw,tm_s,r_kbits,gamma,feasible");
        for o in &out.explored {
            if let Some(p) = &o.best {
                println!(
                    "{},\"{}\",{:.4},{:.6},{:.2},{:.2},{}",
                    p.scaling,
                    p.mapping,
                    p.evaluation.power_mw,
                    p.evaluation.tm_seconds,
                    p.evaluation.r_total_kbits(),
                    p.evaluation.gamma,
                    o.feasible
                );
            }
        }
        return;
    }
    let b = &out.best;
    println!("best design:");
    println!("  scaling: {}", b.scaling);
    println!("  mapping: {}", b.mapping);
    println!("  P = {:.3} mW", b.evaluation.power_mw);
    println!("  TM = {:.4} s", b.evaluation.tm_seconds);
    println!("  R = {:.1} kbit/cycle", b.evaluation.r_total_kbits());
    println!("  Gamma = {:.4e}", b.evaluation.gamma);
    println!(
        "explored {} scalings with {} evaluations",
        out.explored.len(),
        out.total_evaluations
    );
    // stderr, like all progress: stdout is the machine-readable result.
    if out.scalings_pruned() > 0 {
        eprintln!(
            "pruning: {} of {} scaling(s) pruned by TM bound",
            out.scalings_pruned(),
            out.explored.len()
        );
    }
}
