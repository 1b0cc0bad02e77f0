//! Command-line interface for the `sea-dse` binary.
//!
//! Every verb is one entry of a single table: an optional leading
//! operand, then its flags, each a switch or a value flag with a
//! placeholder, required or not. [`parse`] scans argv once, left to
//! right, over that table, so an unknown, repeated, valueless or missing
//! flag is refused by construction. A value is the token after its flag
//! and never starts with `--`, and every flag, switches included, may be
//! given at most once. Each verb's `build` function then turns the scan
//! into its [`Command`], checking numbers against the domains that
//! campaign specs check too ([`sea_campaign::spec`]). [`usage`] renders
//! the verb lines of `sea-dse help` from the same table.
//!
//! Application specs (`mpeg2`, `fig8`, `random:<tasks>[:<seed>]`) parse
//! through the shared [`sea_taskgraph::spec`] grammar, so the CLI and
//! campaign files accept exactly the same strings.

use std::fmt;
use std::str::FromStr;

use crate::baselines::Objective;
use crate::experiments::EffortProfile;
use crate::opt::SelectionPolicy;
use crate::taskgraph::spec::check_random_tasks;
use sea_campaign::spec::{
    check_cores, check_levels, check_ser, check_sweep_count, parse_groups, MAX_CORES,
    MAX_SWEEP_COUNT,
};
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
    /// Regenerate every table and figure of the paper as one campaign.
    Reproduce(ReproduceArgs),
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

/// `reproduce` command arguments: the whole paper as one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproduceArgs {
    /// Search effort (the leading operand: `smoke`, the default, or
    /// `paper`).
    pub profile: EffortProfile,
    /// Worker threads (`--jobs`; `None` = `SEA_JOBS`, else available
    /// parallelism). The report is identical for every value.
    pub jobs: Option<usize>,
    /// Print no progress (`--quiet`).
    pub quiet: bool,
    /// Write-ahead journal path (`--resume`), exactly as on `campaign`.
    pub resume: Option<String>,
    /// Result-cache directory (`--cache`/`SEA_CACHE`).
    pub cache_dir: Option<String>,
    /// Run over a localhost coordinator and this many TCP workers
    /// (`--distributed`).
    pub distributed: Option<usize>,
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

/// One flag of a verb.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    value: Option<&'static str>,
    required: bool,
}

const fn switch(name: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        required: false,
    }
}

const fn value(name: &'static str, placeholder: &'static str) -> Flag {
    let mut flag = switch(name);
    flag.value = Some(placeholder);
    flag
}

const fn required(name: &'static str, placeholder: &'static str) -> Flag {
    let mut flag = value(name, placeholder);
    flag.required = true;
    flag
}

const APP: Flag = required("--app", "<spec>");
const CORES: Flag = required("--cores", "<N>");
const LEVELS: Flag = value("--levels", "2|3|4");
const OPT_BUDGET: Flag = value("--budget", "fast|paper");
const SEED: Flag = value("--seed", "<N>");
const SELECTION: Flag = value("--selection", "product|power|gamma");
const JOBS: Flag = value("--jobs", "<N>");
const CSV: Flag = switch("--csv");
const OBJECTIVE: Flag = required("--objective", "r|tm|tmr");
const SCALING: Flag = required("--scaling", "<s1,s2,...>");
const GROUPS: Flag = required("--groups", "<g0|g1|...>");
const SER: Flag = value("--ser", "<rate>");
const POLICY: Flag = value(
    "--policy",
    "none|reexec:<cov>|ckpt:<cov>:<interval_s>:<save_s>",
);
const COUNT: Flag = value("--count", "<M>");
const SCALE: Flag = value("--scale", "<s>");
const TASKS: Flag = required("--tasks", "<N>");
const DOT: Flag = switch("--dot");
const SPEC: Flag = value("--spec", "<file>");
const BUILTIN: Flag = value("--builtin", "<name>");
const LISTING: Flag = switch("--list-builtin");
const FORMAT: Flag = value("--format", "human|csv|jsonl");
const BUDGET: Flag = value("--budget", "fast|smoke|paper|thorough");
const RESUME: Flag = value("--resume", "<journal>");
const CACHE: Flag = value("--cache", "<dir>");
const AGGREGATES: Flag = switch("--report-aggregates");
const LISTEN: Flag = required("--listen", "<addr:port>");
const TIMEOUT: Flag = value("--timeout", "<secs>");
const CONNECT: Flag = required("--connect", "<addr:port>");
const RETRY: Flag = value("--retry", "<secs>");
const JOURNALS: Flag = value("--journal-dir", "<dir>");
const WATCH: Flag = switch("--watch");
const ID: Flag = required("--id", "<N>");
const DIR: Flag = value("--dir", "<dir>");
const MAX_AGE: Flag = value("--max-age-days", "<D>");
const MAX_SIZE: Flag = value("--max-size-mib", "<M>");
const DELETE_BAD: Flag = switch("--delete-corrupt");
const QUIET: Flag = switch("--quiet");
const WORKERS: Flag = value("--distributed", "<N>");

/// The most in-process TCP workers `reproduce --distributed` starts: it
/// starts one thread per worker.
const MAX_LOCAL_WORKERS: usize = 64;

/// One `sea-dse` verb: its leading operand (placeholder, required), its
/// flags and the function that turns a scan into its [`Command`].
struct Verb {
    name: &'static str,
    operand: Option<(&'static str, bool)>,
    flags: &'static [Flag],
    build: fn(&Scan<'_>) -> Result<Command, CliError>,
}

const fn verb(
    name: &'static str,
    flags: &'static [Flag],
    build: fn(&Scan<'_>) -> Result<Command, CliError>,
) -> Verb {
    Verb {
        name,
        operand: None,
        flags,
        build,
    }
}

impl Verb {
    const fn with_operand(mut self, placeholder: &'static str, required: bool) -> Verb {
        self.operand = Some((placeholder, required));
        self
    }
}

const VERBS: &[Verb] = &[
    verb(
        "optimize",
        &[APP, CORES, LEVELS, OPT_BUDGET, SEED, SELECTION, JOBS, CSV],
        |s| Ok(Command::Optimize(optimize_args(s)?)),
    ),
    verb(
        "baseline",
        &[
            APP, CORES, LEVELS, OPT_BUDGET, SEED, SELECTION, JOBS, OBJECTIVE, CSV,
        ],
        |s| {
            Ok(Command::Baseline(BaselineArgs {
                objective: Objective::from_keyword(s.required(&OBJECTIVE)).map_err(CliError)?,
                common: optimize_args(s)?,
            }))
        },
    ),
    verb("simulate", &[APP, CORES, SCALING, GROUPS, SER, SEED], |s| {
        Ok(Command::Simulate(design_args(s)?))
    }),
    verb("sweep", &[APP, CORES, COUNT, SCALE, SEED, CSV], |s| {
        Ok(Command::Sweep(SweepArgs {
            app: parse_app_spec(s.required(&APP))?,
            cores: check_value(&CORES, s.required(&CORES), check_cores)?,
            count: s.checked(&COUNT, check_sweep_count)?.unwrap_or(120),
            scale: s.num(&SCALE)?.unwrap_or(1),
            seed: s.num(&SEED)?.unwrap_or(42),
            csv: s.has(&CSV),
        }))
    }),
    verb("generate", &[TASKS, SEED, DOT], |s| {
        let tasks = parse_num(s.required(&TASKS), TASKS.name)?;
        Ok(Command::Generate(GenerateArgs {
            tasks: check_random_tasks(tasks).map_err(|e| CliError(e.to_string()))?,
            seed: s.num(&SEED)?.unwrap_or(7),
            dot: s.has(&DOT),
        }))
    }),
    verb(
        "recovery",
        &[APP, CORES, SCALING, GROUPS, SER, SEED, POLICY],
        |s| {
            Ok(Command::Recovery(RecoveryArgs {
                policy: s.get(&POLICY).map_or(Ok(PolicySpec::None), parse_policy)?,
                design: design_args(s)?,
            }))
        },
    ),
    verb(
        "campaign",
        &[
            SPEC, BUILTIN, LISTING, JOBS, FORMAT, BUDGET, RESUME, CACHE, AGGREGATES,
        ],
        campaign_command,
    ),
    verb("report", &[FORMAT], |s| {
        Ok(Command::Report(ReportArgs {
            source: s.operand.unwrap_or_default().to_string(),
            format: format(s)?,
        }))
    })
    .with_operand("<journal|cache-dir>", true),
    verb(
        "serve",
        &[
            SPEC, BUILTIN, LISTEN, FORMAT, BUDGET, RESUME, CACHE, TIMEOUT,
        ],
        |s| {
            let (spec_path, builtin) = one_source(s, "serve")?;
            Ok(Command::Serve(ServeArgs {
                spec_path,
                builtin,
                listen: s.required(&LISTEN).to_string(),
                format: format(s)?,
                budget: budget(s)?,
                resume: s.string(&RESUME),
                cache_dir: s.string(&CACHE),
                timeout_s: timeout(s)?,
            }))
        },
    ),
    verb("worker", &[CONNECT, JOBS, CACHE, RETRY], |s| {
        Ok(Command::Worker(WorkerArgs {
            connect: s.required(&CONNECT).to_string(),
            jobs: jobs(s)?,
            cache_dir: s.string(&CACHE),
            retry_s: s.num(&RETRY)?.unwrap_or(10),
        }))
    }),
    verb("daemon", &[LISTEN, CACHE, JOURNALS, TIMEOUT], |s| {
        Ok(Command::Daemon(DaemonArgs {
            listen: s.required(&LISTEN).to_string(),
            cache_dir: s.string(&CACHE),
            journal_dir: s.string(&JOURNALS),
            timeout_s: timeout(s)?,
        }))
    }),
    verb("submit", &[CONNECT, SPEC, BUILTIN, WATCH], |s| {
        let (spec_path, builtin) = one_source(s, "submit")?;
        Ok(Command::Submit(SubmitArgs {
            connect: s.required(&CONNECT).to_string(),
            spec_path,
            builtin,
            watch: s.has(&WATCH),
        }))
    }),
    verb("status", &[CONNECT], |s| {
        Ok(Command::Status(connect_args(s)))
    }),
    verb("cancel", &[CONNECT, ID], |s| {
        Ok(Command::Cancel(CancelArgs {
            connect: s.required(&CONNECT).to_string(),
            id: parse_num(s.required(&ID), ID.name)?,
        }))
    }),
    verb("stop", &[CONNECT], |s| Ok(Command::Stop(connect_args(s)))),
    verb(
        "cache",
        &[DIR, MAX_AGE, MAX_SIZE, DELETE_BAD],
        cache_command,
    )
    .with_operand("stats|verify|prune", true),
    verb("reproduce", &[JOBS, QUIET, CACHE, RESUME, WORKERS], |s| {
        let profile = match s.operand {
            None | Some("smoke") => EffortProfile::Smoke,
            Some("paper") => EffortProfile::Paper,
            Some(other) => {
                return Err(CliError(format!("unknown profile `{other}` (smoke|paper)")))
            }
        };
        Ok(Command::Reproduce(ReproduceArgs {
            profile,
            jobs: jobs(s)?,
            quiet: s.has(&QUIET),
            resume: s.string(&RESUME),
            cache_dir: s.string(&CACHE),
            distributed: s.checked(&WORKERS, |n: usize| {
                (1..=MAX_LOCAL_WORKERS)
                    .contains(&n)
                    .then_some(n)
                    .ok_or_else(|| format!("must be between 1 and {MAX_LOCAL_WORKERS}"))
            })?,
        }))
    })
    .with_operand("smoke|paper", false),
];

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message on any malformed input.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let verb = VERBS
        .iter()
        .find(|v| v.name == cmd)
        .ok_or_else(|| CliError(format!("unknown command `{cmd}` (try `sea-dse help`)")))?;
    (verb.build)(&Scan::new(verb, rest)?)
}

/// One left-to-right pass over a verb's arguments: the operand, then
/// each flag's value (`""` for a given switch).
struct Scan<'a> {
    flags: &'static [Flag],
    operand: Option<&'a str>,
    values: Vec<Option<&'a str>>,
}

impl<'a> Scan<'a> {
    fn new(verb: &Verb, args: &'a [String]) -> Result<Self, CliError> {
        let mut args = args.iter().map(String::as_str).peekable();
        let operand = match verb.operand {
            Some(_) if args.peek().is_some_and(|first| !first.starts_with("--")) => args.next(),
            Some((placeholder, true)) => {
                return Err(CliError(format!(
                    "{} needs {placeholder} as its first argument",
                    verb.name
                )))
            }
            _ => None,
        };
        let mut values = vec![None; verb.flags.len()];
        while let Some(arg) = args.next() {
            let Some(k) = verb.flags.iter().position(|f| f.name == arg) else {
                let names: Vec<&str> = verb.flags.iter().map(|f| f.name).collect();
                return Err(CliError(format!(
                    "unknown flag `{arg}` ({})",
                    names.join("|")
                )));
            };
            if values[k].is_some() {
                return Err(CliError(format!(
                    "flag {arg} given more than once (remove the duplicate)"
                )));
            }
            values[k] = match verb.flags[k].value {
                None => Some(""),
                Some(_) => match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v),
                    None => return Err(CliError(format!("flag {arg} needs a value"))),
                },
            };
        }
        if let Some(flag) = verb
            .flags
            .iter()
            .zip(&values)
            .find_map(|(f, v)| (f.required && v.is_none()).then_some(f))
        {
            return Err(CliError(format!(
                "{} needs {} {}",
                verb.name,
                flag.name,
                flag.value.unwrap_or_default()
            )));
        }
        Ok(Scan {
            flags: verb.flags,
            operand,
            values,
        })
    }

    fn get(&self, flag: &Flag) -> Option<&'a str> {
        let k = self.flags.iter().position(|f| f.name == flag.name)?;
        self.values[k]
    }

    fn has(&self, flag: &Flag) -> bool {
        self.get(flag).is_some()
    }

    fn string(&self, flag: &Flag) -> Option<String> {
        self.get(flag).map(str::to_string)
    }

    /// A required flag's value, which the scan has checked is there.
    fn required(&self, flag: &Flag) -> &'a str {
        self.get(flag).unwrap_or_default()
    }

    fn num<T: FromStr>(&self, flag: &Flag) -> Result<Option<T>, CliError> {
        self.get(flag)
            .map(|raw| parse_num(raw, flag.name))
            .transpose()
    }

    fn checked<T: FromStr, U>(
        &self,
        flag: &Flag,
        check: impl FnOnce(T) -> Result<U, String>,
    ) -> Result<Option<U>, CliError> {
        self.get(flag)
            .map(|raw| check_value(flag, raw, check))
            .transpose()
    }
}

fn parse_num<T: FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError(format!("cannot parse {what} from `{s}`")))
}

/// Parses `raw`, the value of `flag`, and checks it into its domain:
/// `check` returns the value or the predicate it fails.
fn check_value<T: FromStr, U>(
    flag: &Flag,
    raw: &str,
    check: impl FnOnce(T) -> Result<U, String>,
) -> Result<U, CliError> {
    check(parse_num(raw, flag.name)?)
        .map_err(|e| CliError(format!("{} {e}, got `{raw}`", flag.name)))
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

/// The flags `optimize` shares with `baseline`.
fn optimize_args(s: &Scan<'_>) -> Result<OptimizeArgs, CliError> {
    let levels = s.checked(&LEVELS, check_levels)?.unwrap_or(3);
    let paper_budget = match s.get(&OPT_BUDGET) {
        None | Some("fast") => false,
        Some("paper") => true,
        Some(b) => return Err(CliError(format!("unknown budget `{b}` (fast|paper)"))),
    };
    let selection = match s.get(&SELECTION) {
        Some(k) => SelectionPolicy::from_keyword(k).map_err(CliError)?,
        None => SelectionPolicy::default(),
    };
    let jobs = jobs(s)?;
    Ok(OptimizeArgs {
        app: parse_app_spec(s.required(&APP))?,
        cores: check_value(&CORES, s.required(&CORES), check_cores)?,
        levels,
        paper_budget,
        seed: s.num(&SEED)?.unwrap_or(0x5EA),
        selection,
        jobs,
        csv: s.has(&CSV),
    })
}

/// The design flags `simulate` shares with `recovery`.
fn design_args(s: &Scan<'_>) -> Result<DesignArgs, CliError> {
    Ok(DesignArgs {
        app: parse_app_spec(s.required(&APP))?,
        cores: check_value(&CORES, s.required(&CORES), check_cores)?,
        scaling: s
            .required(&SCALING)
            .split(',')
            .map(|x| parse_num(x.trim(), "scaling coefficient"))
            .collect::<Result<_, _>>()?,
        groups: parse_groups(s.required(&GROUPS))
            .map_err(|e| CliError(format!("{}: {e}", GROUPS.name)))?,
        ser: s
            .checked(&SER, check_ser)?
            .unwrap_or(sea_arch::ser::PAPER_SER),
        seed: s.num(&SEED)?.unwrap_or(7),
    })
}

fn campaign_command(s: &Scan<'_>) -> Result<Command, CliError> {
    let spec_path = s.string(&SPEC);
    let builtin = s.string(&BUILTIN);
    let list_builtin = s.has(&LISTING);
    let sources = usize::from(spec_path.is_some())
        + usize::from(builtin.is_some())
        + usize::from(list_builtin);
    if sources != 1 {
        return Err(CliError(
            "campaign needs exactly one of --spec <file>, --builtin <name>, --list-builtin".into(),
        ));
    }
    let args = CampaignArgs {
        spec_path,
        builtin,
        list_builtin,
        jobs: jobs(s)?,
        format: format(s)?,
        budget: budget(s)?,
        resume: s.string(&RESUME),
        cache_dir: s.string(&CACHE),
        report_aggregates: s.has(&AGGREGATES),
    };
    if list_builtin && (args.resume.is_some() || args.cache_dir.is_some() || args.report_aggregates)
    {
        return Err(CliError(
            "--resume/--cache/--report-aggregates make no sense with --list-builtin".into(),
        ));
    }
    Ok(Command::Campaign(args))
}

/// `serve` and `submit` take exactly one of `--spec` and `--builtin`.
fn one_source(s: &Scan<'_>, verb: &str) -> Result<(Option<String>, Option<String>), CliError> {
    let (spec_path, builtin) = (s.string(&SPEC), s.string(&BUILTIN));
    if spec_path.is_some() == builtin.is_some() {
        return Err(CliError(format!(
            "{verb} needs exactly one of --spec <file>, --builtin <name>"
        )));
    }
    Ok((spec_path, builtin))
}

fn connect_args(s: &Scan<'_>) -> ConnectArgs {
    ConnectArgs {
        connect: s.required(&CONNECT).to_string(),
    }
}

fn cache_command(s: &Scan<'_>) -> Result<Command, CliError> {
    let action = match s.operand.unwrap_or_default() {
        "stats" => CacheAction::Stats,
        "verify" => CacheAction::Verify,
        "prune" => CacheAction::Prune,
        other => {
            return Err(CliError(format!(
                "unknown cache action `{other}` (stats|verify|prune)"
            )))
        }
    };
    let max_age_days = s.checked(&MAX_AGE, |d: f64| {
        if d.is_finite() && d >= 0.0 {
            Ok(d)
        } else {
            Err("must be finite and non-negative".to_string())
        }
    })?;
    let max_size_mib = s.num(&MAX_SIZE)?;
    let delete_corrupt = s.has(&DELETE_BAD);
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
    Ok(Command::CacheCmd(CacheArgs {
        action,
        dir: s.string(&DIR),
        max_age_days,
        max_size_mib,
        delete_corrupt,
    }))
}

/// `--jobs`, which must be at least 1.
fn jobs(s: &Scan<'_>) -> Result<Option<usize>, CliError> {
    s.checked(&JOBS, |j: usize| {
        if j >= 1 {
            Ok(j)
        } else {
            Err("must be at least 1".to_string())
        }
    })
}

/// The coordinator's `--timeout` (default 30 s). Workers heartbeat every
/// 2 s while evaluating; a timeout at or below that would kill every
/// healthy worker on its first unit and live-lock the campaign.
fn timeout(s: &Scan<'_>) -> Result<u64, CliError> {
    Ok(s.checked(&TIMEOUT, |t: u64| {
        if t >= 5 {
            Ok(t)
        } else {
            Err("must be at least 5 seconds (workers heartbeat every 2 s)".to_string())
        }
    })?
    .unwrap_or(30))
}

fn format(s: &Scan<'_>) -> Result<OutputFormat, CliError> {
    match s.get(&FORMAT) {
        None | Some("human") => Ok(OutputFormat::Human),
        Some("csv") => Ok(OutputFormat::Csv),
        Some("jsonl") => Ok(OutputFormat::Jsonl),
        Some(other) => Err(CliError(format!(
            "unknown --format `{other}` (human|csv|jsonl)"
        ))),
    }
}

fn budget(s: &Scan<'_>) -> Result<Option<BudgetSpec>, CliError> {
    s.get(&BUDGET)
        .map(|b| {
            BudgetSpec::parse(b).map_err(|_| {
                CliError(format!(
                    "unknown --budget `{b}` (fast|smoke|paper|thorough)"
                ))
            })
        })
        .transpose()
}

fn parse_policy(s: &str) -> Result<PolicySpec, CliError> {
    const FORMS: &str = "none|reexec:<cov>|ckpt:<cov>:<interval>:<save>";
    let mut parts = s.split(':');
    let kind = parts.next().unwrap_or_default();
    // The next field: present, a number, and inside its domain.
    let mut field = |what: &str, domain: &str, valid: fn(f64) -> bool| {
        let raw = parts
            .next()
            .ok_or_else(|| CliError(format!("{kind} needs its {what}")))?;
        let value: f64 = parse_num(raw, what)?;
        if valid(value) {
            Ok(value)
        } else {
            Err(CliError(format!(
                "policy {what} must be {domain}, got `{raw}`"
            )))
        }
    };
    let coverage = |v: f64| (0.0..=1.0).contains(&v);
    let policy = match kind {
        "none" => PolicySpec::None,
        "reexec" => PolicySpec::ReExec {
            coverage: field("coverage", "in [0, 1]", coverage)?,
        },
        "ckpt" => PolicySpec::Checkpoint {
            coverage: field("coverage", "in [0, 1]", coverage)?,
            interval_s: field("interval", "finite and positive", |v| {
                v.is_finite() && v > 0.0
            })?,
            save_s: field("save cost", "finite and non-negative", |v| {
                v.is_finite() && v >= 0.0
            })?,
        },
        _ => return Err(CliError(format!("unknown policy `{s}` ({FORMS})"))),
    };
    if parts.next().is_some() {
        return Err(CliError(format!(
            "policy `{s}` has too many fields ({FORMS})"
        )));
    }
    Ok(policy)
}

/// The usage text `sea-dse help` prints: each verb's line rendered from
/// its table entry, then notes on the shared inputs.
#[must_use]
pub fn usage() -> String {
    const WIDTH: usize = 88;
    let mut out = String::from(
        "sea-dse - soft error-aware design optimization (DATE 2010 reproduction)\n\nUSAGE:\n",
    );
    for verb in VERBS {
        let operand = verb.operand.map(|(placeholder, required)| {
            if required {
                placeholder.to_string()
            } else {
                format!("[{placeholder}]")
            }
        });
        let flags = verb.flags.iter().map(|f| match (f.value, f.required) {
            (Some(v), true) => format!("{} {v}", f.name),
            (Some(v), false) => format!("[{} {v}]", f.name),
            (None, _) => format!("[{}]", f.name),
        });
        let mut line = format!("  sea-dse {:<9}", verb.name);
        let indent = line.len() + 1;
        for token in operand.into_iter().chain(flags) {
            if line.len() + 1 + token.len() > WIDTH && line.len() > indent {
                out.push_str(&line);
                out.push('\n');
                line = " ".repeat(indent - 1);
            }
            line.push(' ');
            line.push_str(&token);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("  sea-dse help\n\n");
    out.push_str(&format!(
        "\
APP SPECS: mpeg2 | fig8 | random:<tasks>[:<seed>], 1 to 10000 tasks (as generate --tasks)
BOUNDS:    --cores 1 to {MAX_CORES}, --count at most {MAX_SWEEP_COUNT} and --ser in (0, 1], as in
           campaign specs; --distributed 1 to {MAX_LOCAL_WORKERS} workers
"
    ));
    out.push_str(NOTES);
    out
}

const NOTES: &str = "\
GROUPS:    0-based task ids, comma-separated within a core, cores separated by '|'
           e.g. --groups \"0,1,2,3,4,5|6,7|8|9,10\"
JOBS:      worker threads for `optimize`'s scaling enumeration; results are
           identical for every value (default: SEA_JOBS env, else available
           parallelism). `baseline` is a single sequential annealing chain
           plus one evaluation per scaling, so --jobs has no effect there.
CAMPAIGNS: declarative multi-scenario runs (see README \"Campaigns\"):
           `campaign` takes exactly one of --spec, --builtin and
           --list-builtin; `serve` and `submit` one of --spec and --builtin.
           Progress streams to stderr as units complete; the
           enumeration-order final report prints to stdout and is byte
           identical for every --jobs value.
           Campaign budgets name evaluation caps per voltage scaling:
           fast=2k, smoke=600, paper=20k (the EXPERIMENTS.md harness
           profile), thorough=60k. NOTE: `campaign --budget paper` is the
           experiment-harness budget (20k); `optimize --budget paper` is
           the thorough 60k budget — use `campaign --budget thorough` to
           match the latter.
REPRODUCE: `reproduce` regenerates every table and figure of the paper as
           one merged campaign (`smoke` by default, or `paper`), with the
           same --cache and --resume as `campaign`. The report prints to
           stdout and is byte identical for every --jobs value, cache
           state and --distributed worker count.
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
        assert_eq!(
            parse_policy("ckpt:1:1e-3:0").unwrap(),
            PolicySpec::Checkpoint {
                coverage: 1.0,
                interval_s: 1e-3,
                save_s: 0.0
            }
        );
        assert!(parse_policy("reexec").is_err());
        assert!(parse_policy("ckpt:0.9").is_err());
        assert!(parse_policy("retry:1").is_err());
        // Out of domain (the first three panicked in `analyze`), then
        // trailing fields.
        for bad in [
            "ckpt:0.5:0:0",
            "ckpt:0.5:-1:0.1",
            "ckpt:0.5:nan:0",
            "ckpt:0.5:inf:0",
            "ckpt:0.5:1:-5",
            "ckpt:0.5:1:nan",
            "ckpt:1.5:1:0.1",
            "reexec:2",
            "reexec:-0.1",
            "reexec:nan",
            "none:x",
            "reexec:0.5:junk",
            "ckpt:0.5:1:0.1:9",
        ] {
            assert!(parse_policy(bad).is_err(), "`{bad}` was accepted");
        }
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
