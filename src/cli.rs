//! Command-line interface for the `sea-dse` binary.
//!
//! The parser is hand-rolled (no external dependency) and fully
//! unit-tested; `src/main.rs` is a thin wrapper that dispatches a parsed
//! [`Command`].
//!
//! ```text
//! sea-dse optimize  --app mpeg2 --cores 4 [--levels 2|3|4] [--budget fast|paper]
//!                   [--seed N] [--selection product|power|gamma] [--csv]
//! sea-dse baseline  --objective r|tm|tmr --app <spec> --cores N [...]
//! sea-dse simulate  --app <spec> --cores N --scaling 2,2,3,2
//!                   --groups "0,1,2|3|4,5" [--ser 1e-9] [--seed N]
//! sea-dse sweep     --app <spec> --cores N [--count 120] [--scale 1] [--csv]
//! sea-dse generate  --tasks N [--seed N] [--dot]
//! sea-dse recovery  --app <spec> --cores N --scaling ... --groups ...
//!                   --policy none|reexec:<coverage>|ckpt:<coverage>:<interval>:<save>
//! sea-dse campaign  --spec <file> | --builtin <name> | --list-builtin
//!                   [--jobs N] [--format human|csv|jsonl] [--budget fast|smoke|paper|thorough]
//! sea-dse serve     --spec <file> | --builtin <name>  --listen <addr:port>
//!                   [--format ...] [--budget ...] [--resume <journal>]
//!                   [--cache <dir>] [--timeout <secs>]
//! sea-dse worker    --connect <addr:port> [--jobs N] [--cache <dir>] [--retry <secs>]
//! sea-dse cache     stats|verify|prune [--dir <dir>] [--max-age-days D]
//!                   [--max-size-mib M] [--delete-corrupt]
//! ```
//!
//! Application specs (`mpeg2`, `fig8`, `random:<tasks>[:<seed>]`) parse
//! through the shared [`sea_taskgraph::spec`] grammar, so the CLI and
//! campaign files accept exactly the same strings. Every flag may be
//! given at most once — duplicates are rejected rather than silently
//! last-wins — and every command refuses a flag it does not take.

use std::fmt;

use crate::arch::LevelSet;
use crate::baselines::Objective;
use crate::opt::SelectionPolicy;
use crate::taskgraph::spec::check_random_tasks;
use sea_campaign::spec::MAX_SWEEP_COUNT;
use sea_campaign::BudgetSpec;

/// Re-exported from the shared spec module ([`sea_taskgraph::spec`]): the
/// application selector the CLI and campaign grammar both consume.
pub use crate::taskgraph::spec::AppSpec;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the proposed optimization.
    Optimize(OptimizeArgs),
    /// Run a soft error-unaware baseline.
    Baseline(BaselineArgs),
    /// Simulate one explicit design point with fault injection.
    Simulate(DesignArgs),
    /// Random-mapping sweep (Fig. 3 style).
    Sweep(SweepArgs),
    /// Generate a random workload and print it.
    Generate(GenerateArgs),
    /// Recovery analysis of one design point.
    Recovery(RecoveryArgs),
    /// Run (or list) declarative multi-scenario campaigns.
    Campaign(CampaignArgs),
    /// Offline campaign analytics from persisted artifacts.
    Report(ReportArgs),
    /// Coordinate a campaign over TCP: fan units to connecting workers.
    Serve(ServeArgs),
    /// Serve a coordinator as a worker: evaluate dispatched units.
    Worker(WorkerArgs),
    /// Run the multi-campaign coordinator daemon.
    Daemon(DaemonArgs),
    /// Submit a campaign spec to a running daemon.
    Submit(SubmitArgs),
    /// Query a running daemon's progress and fleet stats.
    Status(ConnectArgs),
    /// Cancel one campaign on a running daemon.
    Cancel(CancelArgs),
    /// Stop a running daemon cleanly.
    Stop(ConnectArgs),
    /// Maintain a result-cache directory (stats, verify, prune).
    CacheCmd(CacheArgs),
    /// Print usage.
    Help,
}

/// `serve` command arguments: a campaign source plus the listen address
/// and the same report/persistence flags as `campaign`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path to a campaign spec file (`--spec`).
    pub spec_path: Option<String>,
    /// Name of a built-in campaign (`--builtin`).
    pub builtin: Option<String>,
    /// TCP listen address (`--listen`, e.g. `127.0.0.1:7411`; port 0
    /// binds an ephemeral port, printed to stderr).
    pub listen: String,
    /// Final-report format.
    pub format: OutputFormat,
    /// Overrides the campaign's budget.
    pub budget: Option<BudgetSpec>,
    /// Write-ahead journal path (`--resume`), exactly as on `campaign`.
    pub resume: Option<String>,
    /// Result-cache directory (`--cache`/`SEA_CACHE`), probed
    /// coordinator-side on the dispatch path.
    pub cache_dir: Option<String>,
    /// Heartbeat timeout in seconds (`--timeout`): a worker holding a
    /// unit silent this long is presumed dead and its unit re-queued.
    pub timeout_s: u64,
}

/// `worker` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// Coordinator address (`--connect`, e.g. `127.0.0.1:7411`).
    pub connect: String,
    /// Worker threads for each unit's own scaling enumeration (`--jobs`;
    /// results are identical for every value).
    pub jobs: Option<usize>,
    /// Worker-side result cache (`--cache`/`SEA_CACHE`).
    pub cache_dir: Option<String>,
    /// Keep retrying the initial connect for this many seconds
    /// (`--retry`; workers often start before their coordinator).
    pub retry_s: u64,
}

/// `daemon` command arguments: the multi-campaign coordinator service.
/// Campaigns arrive over the wire (`submit`), so there is no spec
/// source here — only the listen address and fleet-wide persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonArgs {
    /// TCP listen address (`--listen`; port 0 binds an ephemeral port,
    /// printed to stderr).
    pub listen: String,
    /// Fleet-wide result-cache directory (`--cache`/`SEA_CACHE`),
    /// probed daemon-side on the dispatch path.
    pub cache_dir: Option<String>,
    /// Directory for per-campaign write-ahead journals
    /// (`--journal-dir`): each accepted campaign journals to
    /// `<spec-hash>.jsonl` there, and a re-submitted spec resumes from
    /// its journal after a daemon restart.
    pub journal_dir: Option<String>,
    /// Heartbeat timeout in seconds (`--timeout`), as on `serve`.
    pub timeout_s: u64,
}

/// `submit` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// Daemon address (`--connect`).
    pub connect: String,
    /// Path to a campaign spec file (`--spec`).
    pub spec_path: Option<String>,
    /// Name of a built-in campaign (`--builtin`).
    pub builtin: Option<String>,
    /// Stay connected and stream the campaign (`--watch`): records to
    /// stderr as they complete, the final report alone to stdout.
    pub watch: bool,
}

/// Arguments for daemon verbs that only need an address (`status`,
/// `stop`).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectArgs {
    /// Daemon address (`--connect`).
    pub connect: String,
}

/// `cancel` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CancelArgs {
    /// Daemon address (`--connect`).
    pub connect: String,
    /// Campaign id to cancel (`--id`, as printed by `submit`/`status`).
    pub id: u64,
}

/// `cache` maintenance actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Entry/byte/kind counts.
    Stats,
    /// Re-checksum every entry; report (and optionally delete) corrupt
    /// ones.
    Verify,
    /// Delete entries by age and/or total size.
    Prune,
}

/// `cache` command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArgs {
    /// What to do.
    pub action: CacheAction,
    /// Cache directory (`--dir`; falls back to `SEA_CACHE`).
    pub dir: Option<String>,
    /// `prune`: delete entries older than this many days (`--max-age-days`).
    pub max_age_days: Option<f64>,
    /// `prune`: delete oldest entries until at most this many MiB remain
    /// (`--max-size-mib`).
    pub max_size_mib: Option<u64>,
    /// `verify`: delete entries that fail validation (`--delete-corrupt`).
    pub delete_corrupt: bool,
}

/// Campaign command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArgs {
    /// Path to a campaign spec file (`--spec`).
    pub spec_path: Option<String>,
    /// Name of a built-in campaign (`--builtin`).
    pub builtin: Option<String>,
    /// List the built-in campaigns and exit (`--list-builtin`).
    pub list_builtin: bool,
    /// Worker threads for the campaign pool (`None` = `SEA_JOBS`, else
    /// available parallelism). Final reports are identical for every
    /// value.
    pub jobs: Option<usize>,
    /// Final-report format.
    pub format: OutputFormat,
    /// Overrides the campaign's budget (including per-scenario
    /// overrides).
    pub budget: Option<BudgetSpec>,
    /// Write-ahead journal path (`--resume`): created when absent,
    /// resumed when present — completed units are restored, only the
    /// missing ones run.
    pub resume: Option<String>,
    /// Content-addressed result-cache directory (`--cache`; falls back
    /// to the `SEA_CACHE` environment variable when omitted).
    pub cache_dir: Option<String>,
    /// Append the aggregate sections (win rates, Pareto fronts, best
    /// designs, cross-seed spread) after the per-unit report
    /// (`--report-aggregates`).
    pub report_aggregates: bool,
}

/// `report` command arguments: offline analytics over a persisted
/// artifact — a `--resume` journal file or a `--cache` directory.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The artifact: a journal file or a cache directory (positional).
    pub source: String,
    /// Report format, exactly as on `campaign`.
    pub format: OutputFormat,
}

/// `--format` values for campaign reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned ASCII table (the default).
    #[default]
    Human,
    /// CSV (header + one row per unit).
    Csv,
    /// JSON Lines (one object per unit).
    Jsonl,
}

/// Arguments shared by the optimizing commands.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeArgs {
    /// Application specification.
    pub app: AppSpec,
    /// Core count.
    pub cores: usize,
    /// DVS levels (2, 3 or 4).
    pub levels: usize,
    /// `fast` or `paper` search budget.
    pub paper_budget: bool,
    /// Search seed.
    pub seed: u64,
    /// Selection policy of the iterative assessment (`--selection`).
    pub selection: SelectionPolicy,
    /// Worker threads for the scaling enumeration (`None` = the engine's
    /// default: the `SEA_JOBS` env var, else available parallelism).
    /// Results are identical for every value; only wall-clock changes.
    pub jobs: Option<usize>,
    /// Emit CSV instead of human-readable text.
    pub csv: bool,
}

/// Baseline command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineArgs {
    /// Shared optimization arguments.
    pub common: OptimizeArgs,
    /// Objective (`--objective`).
    pub objective: Objective,
}

/// An explicit design point on the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignArgs {
    /// Application specification.
    pub app: AppSpec,
    /// Core count.
    pub cores: usize,
    /// Per-core scaling coefficients.
    pub scaling: Vec<u8>,
    /// Per-core task groups (0-based task indices).
    pub groups: Vec<Vec<usize>>,
    /// Raw SER (λ_ref), SEU/bit/cycle.
    pub ser: f64,
    /// Injection seed.
    pub seed: u64,
}

/// Sweep command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Application specification.
    pub app: AppSpec,
    /// Core count.
    pub cores: usize,
    /// Number of random mappings.
    pub count: usize,
    /// Uniform scaling coefficient.
    pub scale: u8,
    /// Sweep seed.
    pub seed: u64,
    /// Emit CSV.
    pub csv: bool,
}

/// Generate command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerateArgs {
    /// Task count.
    pub tasks: usize,
    /// Generator seed.
    pub seed: u64,
    /// Emit Graphviz DOT instead of a summary.
    pub dot: bool,
}

/// Recovery command arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryArgs {
    /// The design point.
    pub design: DesignArgs,
    /// Recovery policy specification.
    pub policy: PolicySpec,
}

/// Parsed recovery policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// No recovery.
    None,
    /// Re-execution with the given detection coverage.
    ReExec {
        /// Detection coverage in `0..=1`.
        coverage: f64,
    },
    /// Checkpointing.
    Checkpoint {
        /// Detection coverage in `0..=1`.
        coverage: f64,
        /// Interval in seconds.
        interval_s: f64,
        /// Save cost in seconds.
        save_s: f64,
    },
}

/// A CLI parse/validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text printed by `sea-dse help`.
pub const USAGE: &str = "\
sea-dse - soft error-aware design optimization (DATE 2010 reproduction)

USAGE:
  sea-dse optimize  --app <spec> --cores <N> [--levels 2|3|4] [--budget fast|paper]
                    [--seed <N>] [--selection product|power|gamma] [--jobs <N>] [--csv]
  sea-dse baseline  --objective r|tm|tmr --app <spec> --cores <N> [...optimize flags]
  sea-dse simulate  --app <spec> --cores <N> --scaling <s1,s2,...>
                    --groups <g0|g1|...> [--ser <rate>] [--seed <N>]
  sea-dse sweep     --app <spec> --cores <N> [--count <M>] [--scale <s>] [--seed <N>] [--csv]
  sea-dse generate  --tasks <N> [--seed <N>] [--dot]
  sea-dse recovery  --app <spec> --cores <N> --scaling ... --groups ...
                    --policy none|reexec:<cov>|ckpt:<cov>:<interval_s>:<save_s>
  sea-dse campaign  --spec <file> | --builtin <name> | --list-builtin
                    [--jobs <N>] [--format human|csv|jsonl]
                    [--budget fast|smoke|paper|thorough]
                    [--resume <journal>] [--cache <dir>] [--report-aggregates]
  sea-dse report    <journal|cache-dir> [--format human|csv|jsonl]
  sea-dse serve     --spec <file> | --builtin <name>  --listen <addr:port>
                    [--format ...] [--budget ...] [--resume <journal>]
                    [--cache <dir>] [--timeout <secs>]
  sea-dse worker    --connect <addr:port> [--jobs <N>] [--cache <dir>]
                    [--retry <secs>]
  sea-dse daemon    --listen <addr:port> [--cache <dir>] [--journal-dir <dir>]
                    [--timeout <secs>]
  sea-dse submit    --connect <addr:port> --spec <file> | --builtin <name>
                    [--watch]
  sea-dse status    --connect <addr:port>
  sea-dse cancel    --connect <addr:port> --id <N>
  sea-dse stop      --connect <addr:port>
  sea-dse cache     stats|verify|prune [--dir <dir>] [--max-age-days <D>]
                    [--max-size-mib <M>] [--delete-corrupt]
  sea-dse help

APP SPECS: mpeg2 | fig8 | random:<tasks>[:<seed>], 1 to 10000 tasks (as generate --tasks)
GROUPS:    0-based task ids, comma-separated within a core, cores separated by '|'
           e.g. --groups \"0,1,2,3,4,5|6,7|8|9,10\"
JOBS:      worker threads for `optimize`'s scaling enumeration; results are
           identical for every value (default: SEA_JOBS env, else available
           parallelism). `baseline` is a single sequential annealing chain
           plus one evaluation per scaling, so --jobs has no effect there.
CAMPAIGNS: declarative multi-scenario runs (see README \"Campaigns\"):
           progress streams to stderr as units complete; the
           enumeration-order final report prints to stdout and is byte
           identical for every --jobs value.
           Campaign budgets name evaluation caps per voltage scaling:
           fast=2k, smoke=600, paper=20k (the EXPERIMENTS.md harness
           profile), thorough=60k. NOTE: `campaign --budget paper` is the
           experiment-harness budget (20k); `optimize --budget paper` is
           the thorough 60k budget — use `campaign --budget thorough` to
           match the latter.
ANALYTICS: `campaign --report-aggregates` appends aggregate sections after
           the per-unit report: Fig. 10-style win rates (optimize vs each
           baseline at matched app/cores/levels), Pareto fronts over
           (P, Gamma) with dominated designs marked, best design per app
           (min P*Gamma), and cross-seed min/median/max spread. `report`
           computes the same sections offline from a --resume journal or
           a --cache directory with zero re-evaluation, byte-identical to
           the live output. See README \"Campaign analytics\".
RESUME:    --resume <journal> write-ahead journals every completed unit
           (fsync'd per record). Re-running with the same spec and journal
           restores completed units and runs only the missing ones; the
           final report is byte-identical to an uninterrupted run. A
           journal written for a different campaign is refused.
CACHE:     --cache <dir> (or the SEA_CACHE env var) keeps a
           content-addressed result cache keyed by each unit's stable
           hash; warm re-runs and overlapping campaigns skip evaluation.
           Without either, no cache I/O happens at all. `sea-dse cache`
           maintains such a directory: stats, checksum verification,
           pruning by age/size.
DIST:      `serve` expands a campaign and fans units to TCP workers
           (`worker --connect`); results are verified against each
           unit's content hash and merged in enumeration order, so the
           stdout report is byte-identical to a local `campaign` run for
           any worker count, join/leave order or mid-run worker kill.
           --resume and --cache work across the network boundary (the
           cache is probed coordinator-side on the dispatch path, so a
           warm run sends no work but waits for one worker). See README
           \"Distributed campaigns\" for the frame-protocol spec.
SERVICE:   `daemon` is the long-running multi-campaign coordinator: the
           same workers connect to it, while `submit` registers campaign
           specs over the wire, `status` reports per-campaign progress
           plus per-worker fleet stats as JSON, `cancel` withdraws one
           campaign and `stop` shuts the fleet down. Campaigns share the
           worker pool fairly (round-robin, cost-model order within each
           campaign), share one --cache, and deduplicate identical units
           fleet-wide. `submit --watch` streams records to stderr and
           the final report to stdout, byte-identical to a local
           `campaign --format jsonl` run of the same spec. With
           --journal-dir, re-submitting a spec after a daemon restart
           resumes from its journal. See README \"Service mode\".
";

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "optimize" => Ok(Command::Optimize(parse_optimize(rest, &[])?)),
        "baseline" => {
            let objective = match get_flag(rest, "--objective")? {
                Some(o) => Objective::from_keyword(&o).map_err(CliError)?,
                None => return Err(CliError("baseline requires --objective r|tm|tmr".into())),
            };
            Ok(Command::Baseline(BaselineArgs {
                common: parse_optimize(rest, &["--objective"])?,
                objective,
            }))
        }
        "simulate" => Ok(Command::Simulate(parse_design(rest, &[])?)),
        "sweep" => Ok(Command::Sweep(parse_sweep(rest)?)),
        "generate" => Ok(Command::Generate(parse_generate(rest)?)),
        "campaign" => Ok(Command::Campaign(parse_campaign_cmd(rest)?)),
        "report" => Ok(Command::Report(parse_report_cmd(rest)?)),
        "serve" => Ok(Command::Serve(parse_serve_cmd(rest)?)),
        "worker" => Ok(Command::Worker(parse_worker_cmd(rest)?)),
        "daemon" => Ok(Command::Daemon(parse_daemon_cmd(rest)?)),
        "submit" => Ok(Command::Submit(parse_submit_cmd(rest)?)),
        "status" => Ok(Command::Status(parse_connect_cmd(rest, "status")?)),
        "cancel" => Ok(Command::Cancel(parse_cancel_cmd(rest)?)),
        "stop" => Ok(Command::Stop(parse_connect_cmd(rest, "stop")?)),
        "cache" => Ok(Command::CacheCmd(parse_cache_cmd(rest)?)),
        "recovery" => {
            let policy = match get_flag(rest, "--policy")? {
                Some(p) => parse_policy(&p)?,
                None => PolicySpec::None,
            };
            Ok(Command::Recovery(RecoveryArgs {
                design: parse_design(rest, &["--policy"])?,
                policy,
            }))
        }
        other => Err(CliError(format!(
            "unknown command `{other}` (try `sea-dse help`)"
        ))),
    }
}

fn get_flag(args: &[String], name: &str) -> Result<Option<String>, CliError> {
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            let Some(v) = args.get(i + 1) else {
                return Err(CliError(format!("flag {name} needs a value")));
            };
            if value.is_some() {
                // Last-wins duplicate handling silently drops user intent;
                // make the conflict loud instead.
                return Err(CliError(format!(
                    "flag {name} given more than once (remove the duplicate)"
                )));
            }
            value = Some(v.clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(value)
}

fn has_switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("cannot parse {what} from `{s}`")))
}

fn parse_app(args: &[String]) -> Result<AppSpec, CliError> {
    let Some(spec) = get_flag(args, "--app")? else {
        return Err(CliError(
            "missing --app (mpeg2 | fig8 | random:<tasks>[:<seed>])".into(),
        ));
    };
    parse_app_spec(&spec)
}

/// Parses an application spec string through the shared
/// [`sea_taskgraph::spec`] grammar.
///
/// # Errors
///
/// Returns [`CliError`] for unknown specs or malformed `random:` forms.
pub fn parse_app_spec(spec: &str) -> Result<AppSpec, CliError> {
    spec.parse()
        .map_err(|e: crate::taskgraph::SpecError| CliError(e.to_string()))
}

fn parse_cores(args: &[String]) -> Result<usize, CliError> {
    let Some(c) = get_flag(args, "--cores")? else {
        return Err(CliError("missing --cores".into()));
    };
    let cores: usize = parse_num(&c, "core count")?;
    if cores == 0 {
        return Err(CliError("--cores must be at least 1".into()));
    }
    Ok(cores)
}

/// Parses the flags `optimize` shares with `baseline`, which also
/// accepts the value flags in `extra`.
fn parse_optimize(args: &[String], extra: &[&str]) -> Result<OptimizeArgs, CliError> {
    let flags = [
        &[
            "--app",
            "--cores",
            "--levels",
            "--budget",
            "--seed",
            "--selection",
            "--jobs",
        ],
        extra,
    ]
    .concat();
    reject_unknown_flags(
        args,
        &flags,
        &["--csv"],
        &format!("{}|--csv", flags.join("|")),
    )?;
    let levels = match get_flag(args, "--levels")? {
        Some(l) => {
            let l: usize = parse_num(&l, "level count")?;
            if !(2..=4).contains(&l) {
                return Err(CliError("--levels must be 2, 3 or 4".into()));
            }
            l
        }
        None => 3,
    };
    let paper_budget = match get_flag(args, "--budget")? {
        None => false,
        Some(b) if b == "fast" => false,
        Some(b) if b == "paper" => true,
        Some(b) => return Err(CliError(format!("unknown budget `{b}` (fast|paper)"))),
    };
    let selection = match get_flag(args, "--selection")? {
        None => SelectionPolicy::default(),
        Some(s) => SelectionPolicy::from_keyword(&s).map_err(CliError)?,
    };
    let jobs = parse_jobs(args)?;
    Ok(OptimizeArgs {
        app: parse_app(args)?,
        cores: parse_cores(args)?,
        levels,
        paper_budget,
        seed: match get_flag(args, "--seed")? {
            Some(s) => parse_num(&s, "seed")?,
            None => 0x5EA,
        },
        selection,
        jobs,
        csv: has_switch(args, "--csv"),
    })
}

/// Parses a `|`-separated group list like `0,1,2|3|4,5`.
///
/// # Errors
///
/// Returns [`CliError`] for malformed indices.
pub fn parse_groups(s: &str) -> Result<Vec<Vec<usize>>, CliError> {
    s.split('|')
        .map(|group| {
            let group = group.trim();
            if group.is_empty() {
                return Ok(Vec::new());
            }
            group
                .split(',')
                .map(|t| parse_num(t.trim(), "task index"))
                .collect()
        })
        .collect()
}

fn parse_scaling(s: &str) -> Result<Vec<u8>, CliError> {
    s.split(',')
        .map(|x| parse_num(x.trim(), "scaling coefficient"))
        .collect()
}

/// Parses the design flags `simulate` shares with `recovery`, which
/// also accepts the value flags in `extra`.
fn parse_design(args: &[String], extra: &[&str]) -> Result<DesignArgs, CliError> {
    let flags = [
        &[
            "--app",
            "--cores",
            "--scaling",
            "--groups",
            "--ser",
            "--seed",
        ],
        extra,
    ]
    .concat();
    reject_unknown_flags(args, &flags, &[], &flags.join("|"))?;
    let Some(scaling) = get_flag(args, "--scaling")? else {
        return Err(CliError("missing --scaling (e.g. 2,2,3,2)".into()));
    };
    let Some(groups) = get_flag(args, "--groups")? else {
        return Err(CliError("missing --groups (e.g. \"0,1|2,3\")".into()));
    };
    Ok(DesignArgs {
        app: parse_app(args)?,
        cores: parse_cores(args)?,
        scaling: parse_scaling(&scaling)?,
        groups: parse_groups(&groups)?,
        ser: match get_flag(args, "--ser")? {
            Some(s) => {
                let ser = parse_num(&s, "SER")?;
                if !sea_arch::ser::is_valid_ser(ser) {
                    return Err(CliError(format!(
                        "--ser must be a rate per bit per cycle in (0, 1], got `{s}`"
                    )));
                }
                ser
            }
            None => sea_arch::ser::PAPER_SER,
        },
        seed: match get_flag(args, "--seed")? {
            Some(s) => parse_num(&s, "seed")?,
            None => 7,
        },
    })
}

fn parse_sweep(args: &[String]) -> Result<SweepArgs, CliError> {
    reject_unknown_flags(
        args,
        &["--app", "--cores", "--count", "--scale", "--seed"],
        &["--csv"],
        "--app|--cores|--count|--scale|--seed|--csv",
    )?;
    Ok(SweepArgs {
        app: parse_app(args)?,
        cores: parse_cores(args)?,
        count: match get_flag(args, "--count")? {
            Some(c) => {
                let count = parse_num(&c, "count")?;
                if count > MAX_SWEEP_COUNT {
                    return Err(CliError(format!(
                        "--count must be at most {MAX_SWEEP_COUNT}, got {count}"
                    )));
                }
                count
            }
            None => 120,
        },
        scale: match get_flag(args, "--scale")? {
            Some(s) => parse_num(&s, "scale")?,
            None => 1,
        },
        seed: match get_flag(args, "--seed")? {
            Some(s) => parse_num(&s, "seed")?,
            None => 42,
        },
        csv: has_switch(args, "--csv"),
    })
}

fn parse_generate(args: &[String]) -> Result<GenerateArgs, CliError> {
    reject_unknown_flags(
        args,
        &["--tasks", "--seed"],
        &["--dot"],
        "--tasks|--seed|--dot",
    )?;
    let Some(tasks) = get_flag(args, "--tasks")? else {
        return Err(CliError("missing --tasks".into()));
    };
    Ok(GenerateArgs {
        tasks: check_random_tasks(parse_num(&tasks, "task count")?)
            .map_err(|e| CliError(e.to_string()))?,
        seed: match get_flag(args, "--seed")? {
            Some(s) => parse_num(&s, "seed")?,
            None => 7,
        },
        dot: has_switch(args, "--dot"),
    })
}

fn parse_campaign_cmd(args: &[String]) -> Result<CampaignArgs, CliError> {
    // Campaign output is flag-selected and consumed by scripts, so a
    // misspelled flag must fail loudly instead of silently falling back
    // to a default format/budget.
    reject_unknown_flags(
        args,
        &[
            "--spec",
            "--builtin",
            "--jobs",
            "--format",
            "--budget",
            "--resume",
            "--cache",
        ],
        &["--list-builtin", "--report-aggregates"],
        "--spec|--builtin|--list-builtin|--jobs|--format|--budget|--resume|--cache|--report-aggregates",
    )?;
    let spec_path = get_flag(args, "--spec")?;
    let builtin = get_flag(args, "--builtin")?;
    let list_builtin = has_switch(args, "--list-builtin");
    let sources = usize::from(spec_path.is_some())
        + usize::from(builtin.is_some())
        + usize::from(list_builtin);
    if sources != 1 {
        return Err(CliError(
            "campaign needs exactly one of --spec <file>, --builtin <name>, --list-builtin".into(),
        ));
    }
    let jobs = parse_jobs(args)?;
    let format = parse_format(args)?;
    let budget = parse_budget_flag(args)?;
    let resume = get_flag(args, "--resume")?;
    let cache_dir = get_flag(args, "--cache")?;
    let report_aggregates = has_switch(args, "--report-aggregates");
    if list_builtin && (resume.is_some() || cache_dir.is_some() || report_aggregates) {
        return Err(CliError(
            "--resume/--cache/--report-aggregates make no sense with --list-builtin".into(),
        ));
    }
    Ok(CampaignArgs {
        spec_path,
        builtin,
        list_builtin,
        jobs,
        format,
        budget,
        resume,
        cache_dir,
        report_aggregates,
    })
}

fn parse_report_cmd(args: &[String]) -> Result<ReportArgs, CliError> {
    let Some((source, rest)) = args.split_first() else {
        return Err(CliError(
            "report needs a source: a --resume journal file or a --cache directory".into(),
        ));
    };
    if source.starts_with("--") {
        return Err(CliError(format!(
            "report takes its source positionally (`sea-dse report <journal|cache-dir>`), \
             got flag `{source}` first"
        )));
    }
    reject_unknown_flags(rest, &["--format"], &[], "--format")?;
    Ok(ReportArgs {
        source: source.clone(),
        format: parse_format(rest)?,
    })
}

/// Rejects unknown flags: `args` may only contain the given value flags
/// (each followed by a value) and switches.
fn reject_unknown_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
    usage: &str,
) -> Result<(), CliError> {
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            i += 2;
        } else if switches.contains(&arg) {
            i += 1;
        } else {
            return Err(CliError(format!("unknown flag `{arg}` ({usage})")));
        }
    }
    Ok(())
}

fn parse_serve_cmd(args: &[String]) -> Result<ServeArgs, CliError> {
    reject_unknown_flags(
        args,
        &[
            "--spec",
            "--builtin",
            "--listen",
            "--format",
            "--budget",
            "--resume",
            "--cache",
            "--timeout",
        ],
        &[],
        "--spec|--builtin|--listen|--format|--budget|--resume|--cache|--timeout",
    )?;
    let spec_path = get_flag(args, "--spec")?;
    let builtin = get_flag(args, "--builtin")?;
    if usize::from(spec_path.is_some()) + usize::from(builtin.is_some()) != 1 {
        return Err(CliError(
            "serve needs exactly one of --spec <file>, --builtin <name>".into(),
        ));
    }
    let Some(listen) = get_flag(args, "--listen")? else {
        return Err(CliError(
            "serve needs --listen <addr:port> (e.g. 127.0.0.1:7411; port 0 = ephemeral)".into(),
        ));
    };
    let format = parse_format(args)?;
    let budget = parse_budget_flag(args)?;
    let timeout_s = parse_timeout(args)?;
    Ok(ServeArgs {
        spec_path,
        builtin,
        listen,
        format,
        budget,
        resume: get_flag(args, "--resume")?,
        cache_dir: get_flag(args, "--cache")?,
        timeout_s,
    })
}

fn parse_worker_cmd(args: &[String]) -> Result<WorkerArgs, CliError> {
    reject_unknown_flags(
        args,
        &["--connect", "--jobs", "--cache", "--retry"],
        &[],
        "--connect|--jobs|--cache|--retry",
    )?;
    let Some(connect) = get_flag(args, "--connect")? else {
        return Err(CliError("worker needs --connect <addr:port>".into()));
    };
    let jobs = parse_jobs(args)?;
    let retry_s = match get_flag(args, "--retry")? {
        Some(r) => parse_num(&r, "retry seconds")?,
        None => 10,
    };
    Ok(WorkerArgs {
        connect,
        jobs,
        cache_dir: get_flag(args, "--cache")?,
        retry_s,
    })
}

fn parse_daemon_cmd(args: &[String]) -> Result<DaemonArgs, CliError> {
    reject_unknown_flags(
        args,
        &["--listen", "--cache", "--journal-dir", "--timeout"],
        &[],
        "--listen|--cache|--journal-dir|--timeout",
    )?;
    let Some(listen) = get_flag(args, "--listen")? else {
        return Err(CliError(
            "daemon needs --listen <addr:port> (e.g. 127.0.0.1:7411; port 0 = ephemeral)".into(),
        ));
    };
    let timeout_s = parse_timeout(args)?;
    Ok(DaemonArgs {
        listen,
        cache_dir: get_flag(args, "--cache")?,
        journal_dir: get_flag(args, "--journal-dir")?,
        timeout_s,
    })
}

fn parse_submit_cmd(args: &[String]) -> Result<SubmitArgs, CliError> {
    reject_unknown_flags(
        args,
        &["--connect", "--spec", "--builtin"],
        &["--watch"],
        "--connect|--spec|--builtin|--watch",
    )?;
    let Some(connect) = get_flag(args, "--connect")? else {
        return Err(CliError("submit needs --connect <addr:port>".into()));
    };
    let spec_path = get_flag(args, "--spec")?;
    let builtin = get_flag(args, "--builtin")?;
    if usize::from(spec_path.is_some()) + usize::from(builtin.is_some()) != 1 {
        return Err(CliError(
            "submit needs exactly one of --spec <file>, --builtin <name>".into(),
        ));
    }
    Ok(SubmitArgs {
        connect,
        spec_path,
        builtin,
        watch: has_switch(args, "--watch"),
    })
}

fn parse_connect_cmd(args: &[String], verb: &str) -> Result<ConnectArgs, CliError> {
    reject_unknown_flags(args, &["--connect"], &[], "--connect")?;
    let Some(connect) = get_flag(args, "--connect")? else {
        return Err(CliError(format!("{verb} needs --connect <addr:port>")));
    };
    Ok(ConnectArgs { connect })
}

fn parse_cancel_cmd(args: &[String]) -> Result<CancelArgs, CliError> {
    reject_unknown_flags(args, &["--connect", "--id"], &[], "--connect|--id")?;
    let Some(connect) = get_flag(args, "--connect")? else {
        return Err(CliError("cancel needs --connect <addr:port>".into()));
    };
    let Some(id) = get_flag(args, "--id")? else {
        return Err(CliError(
            "cancel needs --id <N> (a campaign id from `submit` or `status`)".into(),
        ));
    };
    Ok(CancelArgs {
        connect,
        id: parse_num(&id, "campaign id")?,
    })
}

fn parse_cache_cmd(args: &[String]) -> Result<CacheArgs, CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError("cache needs an action: stats|verify|prune".into()));
    };
    let action = match action.as_str() {
        "stats" => CacheAction::Stats,
        "verify" => CacheAction::Verify,
        "prune" => CacheAction::Prune,
        other => {
            return Err(CliError(format!(
                "unknown cache action `{other}` (stats|verify|prune)"
            )))
        }
    };
    reject_unknown_flags(
        rest,
        &["--dir", "--max-age-days", "--max-size-mib"],
        &["--delete-corrupt"],
        "--dir|--max-age-days|--max-size-mib|--delete-corrupt",
    )?;
    let max_age_days = match get_flag(rest, "--max-age-days")? {
        Some(d) => {
            let d: f64 = parse_num(&d, "age in days")?;
            if !d.is_finite() || d < 0.0 {
                return Err(CliError("--max-age-days must be non-negative".into()));
            }
            Some(d)
        }
        None => None,
    };
    let max_size_mib = match get_flag(rest, "--max-size-mib")? {
        Some(m) => Some(parse_num(&m, "size in MiB")?),
        None => None,
    };
    let delete_corrupt = has_switch(rest, "--delete-corrupt");
    match action {
        CacheAction::Prune if max_age_days.is_none() && max_size_mib.is_none() => {
            return Err(CliError(
                "prune needs --max-age-days <D> and/or --max-size-mib <M>".into(),
            ));
        }
        CacheAction::Stats | CacheAction::Verify
            if max_age_days.is_some() || max_size_mib.is_some() =>
        {
            return Err(CliError(
                "--max-age-days/--max-size-mib only apply to `cache prune`".into(),
            ));
        }
        CacheAction::Stats | CacheAction::Prune if delete_corrupt => {
            return Err(CliError(
                "--delete-corrupt only applies to `cache verify`".into(),
            ));
        }
        _ => {}
    }
    Ok(CacheArgs {
        action,
        dir: get_flag(rest, "--dir")?,
        max_age_days,
        max_size_mib,
        delete_corrupt,
    })
}

/// Parses an optional `--jobs <N>`, which must be at least 1.
fn parse_jobs(args: &[String]) -> Result<Option<usize>, CliError> {
    let Some(j) = get_flag(args, "--jobs")? else {
        return Ok(None);
    };
    let j: usize = parse_num(&j, "job count")?;
    if j == 0 {
        return Err(CliError("--jobs must be at least 1".into()));
    }
    Ok(Some(j))
}

/// Parses the coordinator's `--timeout <secs>` (default 30). Workers
/// heartbeat every 2 s while evaluating; a timeout at or below that would
/// kill every healthy worker on its first unit and live-lock the campaign.
fn parse_timeout(args: &[String]) -> Result<u64, CliError> {
    let Some(t) = get_flag(args, "--timeout")? else {
        return Ok(30);
    };
    let t: u64 = parse_num(&t, "timeout seconds")?;
    if t < 5 {
        return Err(CliError(
            "--timeout must be at least 5 seconds (workers heartbeat every 2 s)".into(),
        ));
    }
    Ok(t)
}

fn parse_format(args: &[String]) -> Result<OutputFormat, CliError> {
    match get_flag(args, "--format")?.as_deref() {
        None | Some("human") => Ok(OutputFormat::Human),
        Some("csv") => Ok(OutputFormat::Csv),
        Some("jsonl") => Ok(OutputFormat::Jsonl),
        Some(other) => Err(CliError(format!(
            "unknown --format `{other}` (human|csv|jsonl)"
        ))),
    }
}

fn parse_budget_flag(args: &[String]) -> Result<Option<BudgetSpec>, CliError> {
    match get_flag(args, "--budget")? {
        None => Ok(None),
        Some(b) => BudgetSpec::parse(&b).map(Some).map_err(|_| {
            CliError(format!(
                "unknown --budget `{b}` (fast|smoke|paper|thorough)"
            ))
        }),
    }
}

fn parse_policy(s: &str) -> Result<PolicySpec, CliError> {
    let mut parts = s.split(':');
    match parts.next() {
        Some("none") => Ok(PolicySpec::None),
        Some("reexec") => {
            let cov: f64 = parse_num(
                parts
                    .next()
                    .ok_or_else(|| CliError("reexec needs a coverage".into()))?,
                "coverage",
            )?;
            Ok(PolicySpec::ReExec { coverage: cov })
        }
        Some("ckpt") => {
            let cov: f64 = parse_num(
                parts
                    .next()
                    .ok_or_else(|| CliError("ckpt needs a coverage".into()))?,
                "coverage",
            )?;
            let interval: f64 = parse_num(
                parts
                    .next()
                    .ok_or_else(|| CliError("ckpt needs an interval".into()))?,
                "interval",
            )?;
            let save: f64 = parse_num(
                parts
                    .next()
                    .ok_or_else(|| CliError("ckpt needs a save cost".into()))?,
                "save cost",
            )?;
            Ok(PolicySpec::Checkpoint {
                coverage: cov,
                interval_s: interval,
                save_s: save,
            })
        }
        _ => Err(CliError(format!(
            "unknown policy `{s}` (none|reexec:<cov>|ckpt:<cov>:<interval>:<save>)"
        ))),
    }
}

/// Builds the `LevelSet` for a CLI level count.
///
/// # Panics
///
/// Panics if `levels` was not validated to 2..=4.
#[must_use]
pub fn level_set(levels: usize) -> LevelSet {
    sea_campaign::level_set(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_optimize() {
        let cmd = parse(&argv(
            "optimize --app mpeg2 --cores 4 --levels 4 --budget paper --seed 9 --selection gamma --jobs 8 --csv",
        ))
        .unwrap();
        let Command::Optimize(a) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(a.app, AppSpec::Mpeg2);
        assert_eq!(a.cores, 4);
        assert_eq!(a.levels, 4);
        assert!(a.paper_budget);
        assert_eq!(a.seed, 9);
        assert_eq!(a.selection, SelectionPolicy::GammaFirst);
        assert_eq!(a.jobs, Some(8));
        assert!(a.csv);
    }

    #[test]
    fn optimize_defaults() {
        let Command::Optimize(a) = parse(&argv("optimize --app fig8 --cores 3")).unwrap() else {
            panic!()
        };
        assert_eq!(a.levels, 3);
        assert!(!a.paper_budget);
        assert_eq!(a.selection, SelectionPolicy::PowerGammaProduct);
        assert_eq!(a.jobs, None);
        assert!(!a.csv);
    }

    #[test]
    fn jobs_must_be_positive() {
        assert!(parse(&argv("optimize --app mpeg2 --cores 4 --jobs 0")).is_err());
        assert!(parse(&argv("optimize --app mpeg2 --cores 4 --jobs x")).is_err());
    }

    #[test]
    fn parses_random_spec() {
        assert_eq!(
            parse_app_spec("random:40").unwrap(),
            AppSpec::Random { tasks: 40, seed: 7 }
        );
        assert_eq!(
            parse_app_spec("random:60:11").unwrap(),
            AppSpec::Random {
                tasks: 60,
                seed: 11
            }
        );
        assert!(parse_app_spec("random").is_err());
        assert!(parse_app_spec("random:x").is_err());
        assert!(parse_app_spec("random:10:1:2").is_err());
        assert!(parse_app_spec("h264").is_err());
        assert!(parse_app_spec("random:10001").is_err());
        assert!(parse(&argv("optimize --app random:10001 --cores 4")).is_err());
    }

    #[test]
    fn parses_baseline_objectives() {
        for (s, o) in [
            ("r", Objective::RegisterUsage),
            ("tm", Objective::Parallelism),
            ("tmr", Objective::RegTimeProduct),
        ] {
            let Command::Baseline(b) = parse(&argv(&format!(
                "baseline --objective {s} --app mpeg2 --cores 4"
            )))
            .unwrap() else {
                panic!()
            };
            assert_eq!(b.objective, o);
        }
        assert!(parse(&argv("baseline --app mpeg2 --cores 4")).is_err());
        assert!(parse(&argv("baseline --objective x --app mpeg2 --cores 4")).is_err());
    }

    #[test]
    fn parses_simulate_design() {
        let Command::Simulate(d) = parse(&argv(
            "simulate --app mpeg2 --cores 4 --scaling 2,2,3,2 --groups 0,1,2,3,4,5|6,7|8|9,10",
        ))
        .unwrap() else {
            panic!()
        };
        assert_eq!(d.scaling, vec![2, 2, 3, 2]);
        assert_eq!(d.groups.len(), 4);
        assert_eq!(d.groups[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.groups[2], vec![8]);
        assert_eq!(d.ser, sea_arch::ser::PAPER_SER);
    }

    #[test]
    fn out_of_domain_ser_and_sweep_count_are_usage_errors() {
        // Each used to panic: `-1`, `0` and `nan` in the SER calibration,
        // `1e308` and `inf` in the Poisson sampler.
        let design = "--app mpeg2 --cores 4 --scaling 2,2,3,2 --groups 0,1,2,3,4,5|6,7|8|9,10";
        for command in ["simulate", "recovery"] {
            for ser in ["-1", "0", "nan", "1e308", "inf", "1.5"] {
                let err = parse(&argv(&format!("{command} {design} --ser {ser}"))).unwrap_err();
                assert!(err.0.contains("--ser must be"), "{command} {ser}: {err}");
            }
            for ser in ["1", "1e-9", "5e-324"] {
                assert!(
                    parse(&argv(&format!("{command} {design} --ser {ser}"))).is_ok(),
                    "{command} {ser}"
                );
            }
        }
        // `count` slots are allocated up front: this one aborted.
        let err = parse(&argv("sweep --app mpeg2 --cores 4 --count 1000000000000")).unwrap_err();
        assert!(err.0.contains("at most 10000"), "{err}");
        let Command::Sweep(s) = parse(&argv("sweep --app mpeg2 --cores 4 --count 10000")).unwrap()
        else {
            panic!()
        };
        assert_eq!(s.count, MAX_SWEEP_COUNT);
    }

    #[test]
    fn parses_policies() {
        assert_eq!(parse_policy("none").unwrap(), PolicySpec::None);
        assert_eq!(
            parse_policy("reexec:0.9").unwrap(),
            PolicySpec::ReExec { coverage: 0.9 }
        );
        assert_eq!(
            parse_policy("ckpt:0.95:0.1:0.0001").unwrap(),
            PolicySpec::Checkpoint {
                coverage: 0.95,
                interval_s: 0.1,
                save_s: 0.0001
            }
        );
        assert!(parse_policy("reexec").is_err());
        assert!(parse_policy("ckpt:0.9").is_err());
        assert!(parse_policy("retry:1").is_err());
    }

    #[test]
    fn groups_parser_handles_spaces_and_empties() {
        assert_eq!(
            parse_groups("0, 1 | 2 |").unwrap(),
            vec![vec![0, 1], vec![2], vec![]]
        );
        assert!(parse_groups("0,a").is_err());
    }

    #[test]
    fn missing_required_flags_error() {
        assert!(parse(&argv("optimize --cores 4")).is_err());
        assert!(parse(&argv("optimize --app mpeg2")).is_err());
        assert!(parse(&argv("simulate --app mpeg2 --cores 4")).is_err());
        assert!(parse(&argv("generate")).is_err());
        assert!(parse(&argv("optimize --app mpeg2 --cores 0")).is_err());
        assert!(parse(&argv("optimize --app mpeg2 --cores 4 --levels 7")).is_err());
    }

    #[test]
    fn unknown_command_and_help() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn app_specs_build() {
        assert_eq!(AppSpec::Mpeg2.build().unwrap().graph().len(), 11);
        assert_eq!(AppSpec::Fig8.build().unwrap().graph().len(), 6);
        assert_eq!(
            AppSpec::Random { tasks: 15, seed: 3 }
                .build()
                .unwrap()
                .graph()
                .len(),
            15
        );
    }

    #[test]
    fn sweep_and_generate_defaults() {
        let Command::Sweep(s) = parse(&argv("sweep --app mpeg2 --cores 4")).unwrap() else {
            panic!()
        };
        assert_eq!(s.count, 120);
        assert_eq!(s.scale, 1);
        let Command::Generate(g) = parse(&argv("generate --tasks 25 --dot")).unwrap() else {
            panic!()
        };
        assert_eq!(g.tasks, 25);
        assert!(g.dot);
        // The task count shares the `random:<tasks>` range.
        assert!(parse(&argv("generate --tasks 10000")).is_ok());
        for tasks in ["0", "10001", "1000000"] {
            let err = parse(&argv(&format!("generate --tasks {tasks}"))).unwrap_err();
            assert!(err.0.contains("1 to 10000 tasks"), "{err}");
        }
    }

    #[test]
    fn flag_value_missing_is_reported() {
        assert!(parse(&argv("optimize --app")).is_err());
    }

    #[test]
    fn duplicate_flags_are_rejected_with_the_flag_name() {
        let err = parse(&argv("optimize --app mpeg2 --cores 4 --cores 2")).unwrap_err();
        assert!(err.0.contains("--cores"), "{err}");
        assert!(err.0.contains("more than once"), "{err}");
        let err = parse(&argv("optimize --app mpeg2 --app fig8 --cores 4")).unwrap_err();
        assert!(err.0.contains("--app"), "{err}");
        let err = parse(&argv("campaign --spec a.toml --format csv --format jsonl")).unwrap_err();
        assert!(err.0.contains("--format"), "{err}");
    }

    #[test]
    fn parses_campaign_command() {
        let Command::Campaign(c) = parse(&argv(
            "campaign --spec examples/campaign_quickstart.toml --jobs 2 --format jsonl --budget smoke",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(
            c.spec_path.as_deref(),
            Some("examples/campaign_quickstart.toml")
        );
        assert_eq!(c.builtin, None);
        assert!(!c.list_builtin);
        assert_eq!(c.jobs, Some(2));
        assert_eq!(c.format, OutputFormat::Jsonl);
        assert_eq!(c.budget, Some(BudgetSpec::Smoke));

        let Command::Campaign(c) = parse(&argv("campaign --builtin quickstart")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.builtin.as_deref(), Some("quickstart"));
        assert_eq!(c.format, OutputFormat::Human);

        let Command::Campaign(c) = parse(&argv("campaign --list-builtin")).unwrap() else {
            panic!("wrong command")
        };
        assert!(c.list_builtin);
    }

    #[test]
    fn parses_campaign_resume_and_cache_flags() {
        let Command::Campaign(c) = parse(&argv(
            "campaign --builtin quickstart --resume run.jsonl --cache /tmp/sea-cache",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.resume.as_deref(), Some("run.jsonl"));
        assert_eq!(c.cache_dir.as_deref(), Some("/tmp/sea-cache"));

        let Command::Campaign(c) = parse(&argv("campaign --builtin quickstart")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.resume, None);
        assert_eq!(c.cache_dir, None);

        // Duplicates and valueless forms are rejected like other flags.
        assert!(parse(&argv("campaign --builtin q --resume a --resume b")).is_err());
        assert!(parse(&argv("campaign --builtin q --cache")).is_err());
        // Listing builtins does not take persistence flags.
        assert!(parse(&argv("campaign --list-builtin --resume a")).is_err());
        assert!(parse(&argv("campaign --list-builtin --cache d")).is_err());
    }

    #[test]
    fn parses_campaign_report_aggregates_switch() {
        let Command::Campaign(c) =
            parse(&argv("campaign --builtin quickstart --report-aggregates")).unwrap()
        else {
            panic!("wrong command")
        };
        assert!(c.report_aggregates);
        let Command::Campaign(c) = parse(&argv("campaign --builtin quickstart")).unwrap() else {
            panic!("wrong command")
        };
        assert!(!c.report_aggregates);
        // Listing builtins produces no report to aggregate.
        assert!(parse(&argv("campaign --list-builtin --report-aggregates")).is_err());
    }

    #[test]
    fn parses_report_command() {
        let Command::Report(r) = parse(&argv("report run.jsonl --format csv")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(r.source, "run.jsonl");
        assert_eq!(r.format, OutputFormat::Csv);

        let Command::Report(r) = parse(&argv("report /tmp/sea-cache")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(r.source, "/tmp/sea-cache");
        assert_eq!(r.format, OutputFormat::Human, "default format");

        // The source is positional and required.
        assert!(parse(&argv("report")).is_err());
        assert!(parse(&argv("report --format csv run.jsonl")).is_err());
        // Misspelled/foreign flags fail loudly.
        assert!(parse(&argv("report run.jsonl --fromat csv")).is_err());
        assert!(parse(&argv("report run.jsonl --jobs 2")).is_err());
        assert!(parse(&argv("report run.jsonl --format yaml")).is_err());
        assert!(parse(&argv("report run.jsonl --format csv --format jsonl")).is_err());
    }

    #[test]
    fn parses_serve_command() {
        let Command::Serve(s) = parse(&argv(
            "serve --builtin quickstart --listen 127.0.0.1:7411 --format jsonl \
             --budget smoke --resume j.jsonl --cache /tmp/c --timeout 45",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(s.builtin.as_deref(), Some("quickstart"));
        assert_eq!(s.listen, "127.0.0.1:7411");
        assert_eq!(s.format, OutputFormat::Jsonl);
        assert_eq!(s.budget, Some(BudgetSpec::Smoke));
        assert_eq!(s.resume.as_deref(), Some("j.jsonl"));
        assert_eq!(s.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(s.timeout_s, 45);

        let Command::Serve(s) = parse(&argv("serve --spec a.toml --listen 0.0.0.0:0")).unwrap()
        else {
            panic!("wrong command")
        };
        assert_eq!(s.spec_path.as_deref(), Some("a.toml"));
        assert_eq!(s.timeout_s, 30, "default timeout");
        assert_eq!(s.format, OutputFormat::Human);

        // Exactly one campaign source, a listen address, sane timeout.
        assert!(parse(&argv("serve --listen :0")).is_err());
        assert!(parse(&argv("serve --spec a --builtin b --listen :0")).is_err());
        assert!(parse(&argv("serve --builtin quickstart")).is_err());
        assert!(parse(&argv("serve --builtin q --listen :0 --timeout 0")).is_err());
        // Below the workers' heartbeat interval = every healthy worker
        // would be presumed dead.
        assert!(parse(&argv("serve --builtin q --listen :0 --timeout 2")).is_err());
        assert!(parse(&argv("serve --builtin q --listen :0 --timeout 5")).is_ok());
        // Misspelled flags fail loudly; campaign-only flags are rejected.
        assert!(parse(&argv("serve --builtin q --listen :0 --jobs 2")).is_err());
        assert!(parse(&argv("serve --builtin q --listen :0 --fromat jsonl")).is_err());
    }

    #[test]
    fn parses_worker_command() {
        let Command::Worker(w) = parse(&argv(
            "worker --connect 10.0.0.5:7411 --jobs 4 --cache /tmp/c --retry 60",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(w.connect, "10.0.0.5:7411");
        assert_eq!(w.jobs, Some(4));
        assert_eq!(w.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(w.retry_s, 60);

        let Command::Worker(w) = parse(&argv("worker --connect localhost:7411")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(w.jobs, None);
        assert_eq!(w.retry_s, 10, "default retry budget");

        assert!(parse(&argv("worker")).is_err());
        assert!(parse(&argv("worker --connect a:1 --jobs 0")).is_err());
        assert!(parse(&argv("worker --connect a:1 --listen b:2")).is_err());
    }

    #[test]
    fn parses_daemon_command() {
        let Command::Daemon(d) = parse(&argv(
            "daemon --listen 127.0.0.1:0 --cache /tmp/c --journal-dir /tmp/j --timeout 12",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(d.listen, "127.0.0.1:0");
        assert_eq!(d.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(d.journal_dir.as_deref(), Some("/tmp/j"));
        assert_eq!(d.timeout_s, 12);

        let Command::Daemon(d) = parse(&argv("daemon --listen :7411")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(d.cache_dir, None);
        assert_eq!(d.journal_dir, None);
        assert_eq!(d.timeout_s, 30, "default heartbeat timeout");

        assert!(parse(&argv("daemon")).is_err());
        // Same timeout floor as `serve`.
        assert!(parse(&argv("daemon --listen :0 --timeout 2")).is_err());
        // Campaigns arrive via `submit`, never on the daemon command line.
        assert!(parse(&argv("daemon --listen :0 --spec a.toml")).is_err());
        assert!(parse(&argv("daemon --listen :0 --builtin q")).is_err());
    }

    #[test]
    fn parses_submit_and_status_commands() {
        let Command::Submit(s) = parse(&argv(
            "submit --connect localhost:7411 --spec a.toml --watch",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(s.connect, "localhost:7411");
        assert_eq!(s.spec_path.as_deref(), Some("a.toml"));
        assert!(s.watch);

        let Command::Submit(s) =
            parse(&argv("submit --connect :7411 --builtin quickstart")).unwrap()
        else {
            panic!("wrong command")
        };
        assert_eq!(s.builtin.as_deref(), Some("quickstart"));
        assert!(!s.watch);

        // Exactly one spec source, and the daemon address is mandatory.
        assert!(parse(&argv("submit --connect :7411")).is_err());
        assert!(parse(&argv("submit --connect :7411 --spec a --builtin b")).is_err());
        assert!(parse(&argv("submit --spec a.toml")).is_err());
        // The spec's own budget rules service runs; no --budget override.
        assert!(parse(&argv("submit --connect :7411 --spec a --budget fast")).is_err());

        let Command::Status(c) = parse(&argv("status --connect h:1")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.connect, "h:1");
        assert!(parse(&argv("status")).is_err());
        assert!(parse(&argv("status --connect h:1 --watch")).is_err());

        let Command::Stop(c) = parse(&argv("stop --connect h:1")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.connect, "h:1");

        let Command::Cancel(c) = parse(&argv("cancel --connect h:1 --id 2")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.connect, "h:1");
        assert_eq!(c.id, 2);
        assert!(parse(&argv("cancel --connect h:1")).is_err());
        assert!(parse(&argv("cancel --connect h:1 --id x")).is_err());
    }

    #[test]
    fn parses_cache_commands() {
        let Command::CacheCmd(c) = parse(&argv("cache stats --dir /tmp/c")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.action, CacheAction::Stats);
        assert_eq!(c.dir.as_deref(), Some("/tmp/c"));

        let Command::CacheCmd(c) = parse(&argv("cache verify --delete-corrupt")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.action, CacheAction::Verify);
        assert!(c.delete_corrupt);
        assert_eq!(c.dir, None, "falls back to SEA_CACHE at run time");

        let Command::CacheCmd(c) = parse(&argv(
            "cache prune --dir d --max-age-days 30 --max-size-mib 512",
        ))
        .unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(c.action, CacheAction::Prune);
        assert_eq!(c.max_age_days, Some(30.0));
        assert_eq!(c.max_size_mib, Some(512));

        assert!(parse(&argv("cache")).is_err());
        assert!(parse(&argv("cache defrag")).is_err());
        // Prune needs at least one limit; flags are action-specific.
        assert!(parse(&argv("cache prune --dir d")).is_err());
        assert!(parse(&argv("cache stats --max-age-days 3")).is_err());
        assert!(parse(&argv("cache prune --max-age-days -1")).is_err());
        assert!(parse(&argv("cache verify --max-size-mib 1")).is_err());
        assert!(parse(&argv("cache stats --delete-corrupt")).is_err());
        assert!(parse(&argv("cache stats --frobnicate")).is_err());
        // The action word is taken once, before the flags.
        assert_refused("cache stats --dir d", "stats", "stats");
        assert_refused("cache verify", "verify --dir d", "verify");
        assert_refused("cache prune --max-age-days 3", "prune", "prune");
    }

    /// `verb`'s command line with `extra` appended must fail, naming the
    /// first unknown argument.
    fn assert_refused(verb: &str, extra: &str, unknown: &str) {
        let err = parse(&argv(&format!("{verb} {extra}"))).unwrap_err();
        assert!(
            err.0.contains(&format!("unknown flag `{unknown}`")),
            "{err}"
        );
    }

    const DESIGN: &str = "--app mpeg2 --cores 4 --scaling 2,2,3,2 --groups 0,1,2,3,4,5|6,7|8|9,10";

    #[test]
    fn optimize_rejects_unknown_flags() {
        let ok = "optimize --app mpeg2 --cores 4 --seed 3 --csv";
        assert!(parse(&argv(ok)).is_ok());
        assert_refused(ok, "--sede 3", "--sede");
        assert_refused(ok, "--objective r", "--objective");
        assert_refused(ok, "extra", "extra");
    }

    #[test]
    fn baseline_rejects_unknown_flags() {
        let ok = "baseline --objective tm --app mpeg2 --cores 4 --jobs 2 --csv";
        assert!(parse(&argv(ok)).is_ok());
        assert_refused(ok, "--policy none", "--policy");
        assert_refused(ok, "--dot", "--dot");
    }

    #[test]
    fn simulate_rejects_unknown_flags() {
        let ok = format!("simulate {DESIGN} --ser 1e-9 --seed 1");
        assert!(parse(&argv(&ok)).is_ok());
        assert_refused(&ok, "--policy none", "--policy");
        assert_refused(&ok, "--csv", "--csv");
    }

    #[test]
    fn sweep_rejects_unknown_flags() {
        let ok = "sweep --app mpeg2 --cores 4 --count 10 --scale 2 --seed 1 --csv";
        assert!(parse(&argv(ok)).is_ok());
        assert_refused(ok, "--jobs 2", "--jobs");
        assert_refused(ok, "--dot", "--dot");
    }

    #[test]
    fn generate_rejects_unknown_flags() {
        let ok = "generate --tasks 4 --seed 3 --dot";
        assert!(parse(&argv(ok)).is_ok());
        assert_refused("generate --tasks 4", "--sede 3", "--sede");
        assert_refused(ok, "--csv", "--csv");
    }

    #[test]
    fn recovery_rejects_unknown_flags() {
        let ok = format!("recovery {DESIGN} --policy reexec:0.9 --seed 1");
        assert!(parse(&argv(&ok)).is_ok());
        assert_refused(&ok, "--objective r", "--objective");
        assert_refused(&ok, "--polcy none", "--polcy");
    }

    #[test]
    fn campaign_rejects_bad_flag_values_by_name() {
        let err = parse(&argv("campaign --spec a.toml --format yaml")).unwrap_err();
        assert!(
            err.0.contains("--format") && err.0.contains("yaml"),
            "{err}"
        );
        let err = parse(&argv("campaign --spec a.toml --budget leisurely")).unwrap_err();
        assert!(
            err.0.contains("--budget") && err.0.contains("leisurely"),
            "{err}"
        );
        assert!(parse(&argv("campaign --spec a.toml --jobs 0")).is_err());
        // Misspelled flags fail loudly instead of defaulting.
        let err = parse(&argv("campaign --spec a.toml --fromat jsonl")).unwrap_err();
        assert!(err.0.contains("--fromat"), "{err}");
        assert!(parse(&argv("campaign --spec a.toml extra")).is_err());
        // Exactly one source selector.
        assert!(parse(&argv("campaign")).is_err());
        assert!(parse(&argv("campaign --spec a.toml --builtin quickstart")).is_err());
        assert!(parse(&argv("campaign --spec a.toml --list-builtin")).is_err());
    }
}
