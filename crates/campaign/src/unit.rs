//! The unit model: one scenario grid point, executable in isolation.
//!
//! A campaign expands to a flat list of [`Unit`]s. Each unit is a *pure
//! function of its own fields* — it carries its application, architecture
//! shape, budget, seed and job kind, and [`run_unit`] never consults
//! global state — which is what lets the pool in [`crate::pool`] execute
//! units in any order on any number of workers while the campaign's final
//! report stays bitwise identical.
//!
//! The module also owns the canonical unit encoding ([`encode_unit`],
//! [`decode_unit`]): the text a coordinator dispatches to workers, and
//! the bytes the unit's content hash ([`crate::unit_hash`]) covers.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

use sea_arch::{Architecture, LevelSet, ScalingVector, SerModel};
use sea_baselines::{BaselineOptimizer, Objective};
use sea_opt::codec::{CodecError, Tokens};
use sea_opt::{
    DesignOptimizer, OptError, OptimizationOutcome, OptimizerConfig, SearchBudget, SelectionPolicy,
};
use sea_sched::metrics::EvalContext;
use sea_sched::Mapping;
use sea_sim::{simulate_design, SimConfig, SimSummary};
use sea_taskgraph::{
    AppSpec, Application, Bits, Cycles, ExecutionMode, RegisterModelBuilder, SpecError,
    TaskGraphBuilder, TaskGraphSoa, TaskId,
};

use crate::hash::ContentHasher;
use crate::CampaignError;

/// Named search-budget presets shared by the CLI, the campaign grammar and
/// the experiment harnesses (`sea-experiments` maps its `EffortProfile`
/// onto these).
///
/// Keyword caveat: `paper` here is the experiment harnesses' 20 000
/// evaluation EXPERIMENTS.md profile; the `sea-dse optimize --budget
/// paper` flag predates this enum and means [`SearchBudget::thorough`]
/// (60 000) — campaign users wanting that budget say `thorough`. The CLI
/// usage text spells the mapping out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BudgetSpec {
    /// [`SearchBudget::fast`] — tests, examples, quick looks.
    #[default]
    Fast,
    /// The experiment harnesses' smoke budget (600 evaluations).
    Smoke,
    /// The experiment harnesses' EXPERIMENTS.md budget (20 000
    /// evaluations).
    Paper,
    /// [`SearchBudget::thorough`] — the CLI's `--budget paper`.
    Thorough,
}

impl BudgetSpec {
    /// The concrete per-scaling search budget.
    #[must_use]
    pub fn to_budget(self) -> SearchBudget {
        match self {
            BudgetSpec::Fast => SearchBudget::fast(),
            BudgetSpec::Smoke => SearchBudget {
                max_evaluations: 600,
                max_stale_sweeps: 4,
                time_limit: None,
            },
            BudgetSpec::Paper => SearchBudget {
                max_evaluations: 20_000,
                max_stale_sweeps: 4,
                time_limit: None,
            },
            BudgetSpec::Thorough => SearchBudget::thorough(),
        }
    }

    /// Parses a budget keyword.
    ///
    /// # Errors
    ///
    /// Returns the list of accepted keywords for anything else.
    pub fn parse(s: &str) -> Result<Self, CampaignError> {
        match s {
            "fast" => Ok(BudgetSpec::Fast),
            "smoke" => Ok(BudgetSpec::Smoke),
            "paper" => Ok(BudgetSpec::Paper),
            "thorough" => Ok(BudgetSpec::Thorough),
            other => Err(CampaignError::Spec(format!(
                "unknown budget `{other}` (fast|smoke|paper|thorough)"
            ))),
        }
    }

    /// The keyword form accepted by [`BudgetSpec::parse`].
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            BudgetSpec::Fast => "fast",
            BudgetSpec::Smoke => "smoke",
            BudgetSpec::Paper => "paper",
            BudgetSpec::Thorough => "thorough",
        }
    }
}

/// Builds the DVS [`LevelSet`] for a validated level count (2..=4).
///
/// # Panics
///
/// Panics on level counts outside 2..=4 (validated at parse time).
#[must_use]
pub fn level_set(levels: usize) -> LevelSet {
    match levels {
        2 => LevelSet::arm7_two_level(),
        3 => LevelSet::arm7_three_level(),
        4 => LevelSet::arm7_four_level(),
        _ => unreachable!("level counts are validated to 2..=4 at parse time"),
    }
}

/// The workload of a unit: either a textual [`AppSpec`] (campaign files)
/// or a pre-built application (experiment harnesses that construct
/// workloads programmatically, e.g. with modified deadlines).
#[derive(Debug, Clone)]
pub enum AppRef {
    /// Built on demand from the shared spec grammar.
    Spec(AppSpec),
    /// A spec-built workload with its deadline multiplied by a factor
    /// (the campaign grammar's `deadline_scale` key — tight-deadline
    /// studies without hand-written task graphs).
    Scaled {
        /// The base workload.
        spec: AppSpec,
        /// Deadline multiplier (validated positive at parse time).
        deadline_scale: f64,
    },
    /// Shared pre-built application.
    Inline(Arc<Application>),
}

impl AppRef {
    /// A display label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AppRef::Spec(s) => s.to_string(),
            AppRef::Scaled {
                spec,
                deadline_scale,
            } => format!("{spec}@d{deadline_scale}"),
            AppRef::Inline(app) => app.name().to_string(),
        }
    }

    /// Materializes the application.
    ///
    /// Spec-built applications are memoized process-wide by spec string, so
    /// every unit of a campaign grid sharing a workload receives the *same*
    /// `Arc<Application>`. Beyond skipping rebuilds, the stable pointer is
    /// what makes [`TaskGraphSoa::shared`]'s pointer-keyed cache effective
    /// across units: graph-derived arrays (bottom levels, static schedule
    /// order, CSR adjacency) are computed once per workload per process,
    /// not once per unit.
    ///
    /// # Errors
    ///
    /// Propagates [`AppSpec::build`] failures.
    pub fn build(&self) -> Result<Arc<Application>, CampaignError> {
        fn memoized(
            key: String,
            build: impl FnOnce() -> Result<Application, CampaignError>,
        ) -> Result<Arc<Application>, CampaignError> {
            static CACHE: OnceLock<Mutex<HashMap<String, Arc<Application>>>> = OnceLock::new();
            let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
            let mut cache = cache
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(app) = cache.get(&key) {
                return Ok(Arc::clone(app));
            }
            let app = Arc::new(build()?);
            cache.insert(key, Arc::clone(&app));
            Ok(app)
        }
        match self {
            AppRef::Spec(s) => memoized(s.to_string(), || s.build().map_err(CampaignError::App)),
            AppRef::Scaled {
                spec,
                deadline_scale,
            } => memoized(self.label(), || {
                let base = spec.build().map_err(CampaignError::App)?;
                base.with_deadline(base.deadline_s() * deadline_scale)
                    .map_err(|e| {
                        CampaignError::App(SpecError(format!(
                            "cannot scale `{spec}` deadline by {deadline_scale}: {e}"
                        )))
                    })
            }),
            AppRef::Inline(app) => Ok(Arc::clone(app)),
        }
    }
}

/// What a unit runs.
#[derive(Debug, Clone)]
pub enum UnitKind {
    /// The proposed soft error-aware optimization (Exp:4).
    Optimize,
    /// A soft error-unaware SA baseline (Exp:1–Exp:3).
    Baseline(Objective),
    /// A Fig. 3-style random-mapping sweep at uniform scaling.
    Sweep {
        /// Number of random mappings.
        count: usize,
        /// Uniform scaling coefficient.
        scale: u8,
    },
    /// Monte-Carlo fault injection of one explicit design point.
    Simulate {
        /// Per-core scaling coefficients.
        scaling: Vec<u8>,
        /// Per-core task groups (0-based task indices).
        groups: Vec<Vec<usize>>,
        /// Raw SER (λ_ref), SEU/bit/cycle.
        ser: f64,
    },
}

impl UnitKind {
    /// A short label for reports (`optimize`, `baseline:tm`, `sweep`,
    /// `simulate`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            UnitKind::Optimize => "optimize".into(),
            UnitKind::Baseline(o) => format!("baseline:{}", o.keyword()),
            UnitKind::Sweep { .. } => "sweep".into(),
            UnitKind::Simulate { .. } => "simulate".into(),
        }
    }
}

/// Surviving-scaling counts for [`Unit::cost_estimate`], one per
/// distinct (built application, core count, level count). Counting
/// enumerates and bounds every scaling vector of the configuration
/// (47,905 at 64 cores and 4 levels), so a dispatch order over many
/// units of one configuration counts once. An entry holds its
/// application, so the address in its key is not reused while the memo
/// lives.
#[derive(Debug, Default)]
pub struct CostMemo(HashMap<(usize, usize, usize), (Arc<Application>, usize)>);

/// One executable grid point of a campaign.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Global enumeration index (also the default seed derivation input).
    pub index: usize,
    /// Owning scenario's label.
    pub scenario: String,
    /// What to run.
    pub kind: UnitKind,
    /// Workload.
    pub app: AppRef,
    /// Core count.
    pub cores: usize,
    /// DVS level count (2..=4).
    pub levels: usize,
    /// Search budget preset.
    pub budget: BudgetSpec,
    /// Selection policy of the iterative assessment.
    pub selection: SelectionPolicy,
    /// Search / injection seed.
    pub seed: u64,
}

impl Unit {
    /// The optimizer configuration this unit runs under: the
    /// paper-calibrated architecture at the unit's core count and level
    /// set. `jobs` is pinned to 1 — the campaign pool parallelizes
    /// *across* units, and `sea_opt`'s outcome is identical for every
    /// inner job count anyway.
    #[must_use]
    pub fn optimizer_config(&self) -> OptimizerConfig {
        let mut config =
            OptimizerConfig::paper_with_jobs(self.cores, 1).with_levels(level_set(self.levels));
        config.budget = self.budget.to_budget();
        config.seed = self.seed;
        config.selection = self.selection;
        config
    }

    /// The architecture the unit's evaluation-only kinds (sweep, simulate)
    /// run on.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        Architecture::arm7_calibrated(self.cores, level_set(self.levels))
    }

    /// Estimated work, in candidate evaluations — the dispatch cost
    /// model. Backends hand out expensive units first so the straggler
    /// that bounds the makespan starts as early as possible; since every
    /// result slots by enumeration index, the estimate (however rough)
    /// can never change a report, only wall-clock.
    ///
    /// Optimize units dominate real campaigns, and their work is the
    /// number of scalings the bound-and-prune driver will actually
    /// search times the per-scaling budget
    /// ([`DesignOptimizer::surviving_scalings`], looked up in `memo`
    /// first). Baselines run one budget-bounded SA chain plus one cheap
    /// evaluation per scaling; sweeps evaluate `count` mappings; fault
    /// injection replays one schedule.
    #[must_use]
    pub fn cost_estimate(&self, memo: &mut CostMemo) -> u64 {
        let budget = self.budget.to_budget().max_evaluations as u64;
        match &self.kind {
            UnitKind::Optimize => {
                let Ok(app) = self.app.build() else {
                    // The build error resurfaces when the unit runs.
                    return budget;
                };
                let key = (Arc::as_ptr(&app) as usize, self.cores, self.levels);
                let surviving = match memo.0.entry(key) {
                    Entry::Occupied(entry) => entry.get().1,
                    Entry::Vacant(entry) => {
                        let soa = TaskGraphSoa::shared(&app);
                        let optimizer = DesignOptimizer::new(self.optimizer_config());
                        let surviving = optimizer.surviving_scalings(&app, &soa);
                        entry.insert((app, surviving)).1
                    }
                };
                (surviving as u64).saturating_mul(budget)
            }
            UnitKind::Baseline(_) => budget,
            UnitKind::Sweep { count, .. } => *count as u64,
            UnitKind::Simulate { .. } => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// The canonical unit encoding
// ---------------------------------------------------------------------------

/// Version of the canonical unit encoding: the first token of
/// [`encode_unit`] and the first input of every [`crate::unit_hash`].
/// Bump it on any change to the field walk, so stale journals and caches
/// are refused or missed instead of silently misread.
/// v2: one text walk serves dispatch and identity; identity now covers
/// the exact execution mode and the graph name of inline applications.
const ENCODING_VERSION: u32 = 2;

/// Receives the tokens of [`write_unit`]'s field walk. A `String`
/// collects the text a coordinator dispatches; a [`ContentHasher`]
/// absorbs the same bytes without building it.
pub(crate) trait TokenSink {
    /// Appends ASCII bytes.
    fn put(&mut self, ascii: &[u8]);
}

impl TokenSink for String {
    fn put(&mut self, ascii: &[u8]) {
        self.extend(ascii.iter().copied().map(char::from));
    }
}

impl TokenSink for ContentHasher {
    fn put(&mut self, ascii: &[u8]) {
        self.write(ascii);
    }
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// `v` in decimal, formatted into the tail of `buf`.
fn decimal(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return &buf[i..];
        }
    }
}

/// A raw token (no whitespace).
fn tok(out: &mut impl TokenSink, token: &str) {
    out.put(b" ");
    out.put(token.as_bytes());
}

/// A decimal integer token.
fn num(out: &mut impl TokenSink, v: u64) {
    out.put(b" ");
    out.put(decimal(v, &mut [0; 20]));
}

/// An exact float token: the IEEE-754 bits as 16 hex digits, the
/// [`sea_opt::codec`] float form.
fn float(out: &mut impl TokenSink, v: f64) {
    let bits = v.to_bits();
    let mut buf = [b' '; 17];
    for (k, digit) in buf[1..].iter_mut().enumerate() {
        *digit = HEX[(bits >> (60 - 4 * k) & 0xf) as usize];
    }
    out.put(&buf);
}

/// A string as one token: `x` and the hex of its UTF-8 bytes, so any
/// content (spaces, newlines, quotes) stays a single token.
fn text(out: &mut impl TokenSink, s: &str) {
    out.put(b" x");
    for &b in s.as_bytes() {
        out.put(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 0xf)]]);
    }
}

/// The one field walk over a unit: the encoding version, then the index
/// and scenario when `presentation` is set, then every field the unit's
/// result depends on. Tokens are separated by single spaces.
pub(crate) fn write_unit(out: &mut impl TokenSink, unit: &Unit, presentation: bool) {
    out.put(decimal(u64::from(ENCODING_VERSION), &mut [0; 20]));
    if presentation {
        num(out, unit.index as u64);
        text(out, &unit.scenario);
    }
    write_kind(out, &unit.kind);
    write_app_ref(out, &unit.app);
    num(out, unit.cores as u64);
    num(out, unit.levels as u64);
    tok(out, unit.budget.keyword());
    write_selection(out, unit.selection);
    num(out, unit.seed);
}

fn write_kind(out: &mut impl TokenSink, kind: &UnitKind) {
    match kind {
        UnitKind::Optimize => tok(out, "optimize"),
        UnitKind::Baseline(objective) => {
            tok(out, "baseline");
            tok(out, objective.keyword());
        }
        UnitKind::Sweep { count, scale } => {
            tok(out, "sweep");
            num(out, *count as u64);
            num(out, u64::from(*scale));
        }
        UnitKind::Simulate {
            scaling,
            groups,
            ser,
        } => {
            tok(out, "simulate");
            num(out, scaling.len() as u64);
            for &c in scaling {
                num(out, u64::from(c));
            }
            num(out, groups.len() as u64);
            for group in groups {
                num(out, group.len() as u64);
                for &t in group {
                    num(out, t as u64);
                }
            }
            float(out, *ser);
        }
    }
}

fn write_app_ref(out: &mut impl TokenSink, app: &AppRef) {
    match app {
        // The canonical spec string: the grammar round-trips (`random:40`
        // normalizes to `random:40:7`).
        AppRef::Spec(spec) => {
            tok(out, "spec");
            text(out, &spec.to_string());
        }
        AppRef::Inline(app) => {
            tok(out, "inline");
            write_application(out, app);
        }
        // By (spec, factor), not by built content: a semantically equal
        // `Inline` app encodes differently, which costs a cache miss,
        // never a wrong hit.
        AppRef::Scaled {
            spec,
            deadline_scale,
        } => {
            tok(out, "scaled");
            text(out, &spec.to_string());
            float(out, *deadline_scale);
        }
    }
}

/// A full application: name, exact execution mode, deadline, the graph's
/// name, every task, every edge and the complete register-sharing model.
fn write_application(out: &mut impl TokenSink, app: &Application) {
    text(out, app.name());
    match app.mode() {
        ExecutionMode::Batch => num(out, 0),
        ExecutionMode::Pipelined { iterations } => {
            num(out, 1);
            num(out, u64::from(iterations));
        }
    }
    float(out, app.deadline_s());
    let g = app.graph();
    text(out, g.name());
    num(out, g.len() as u64);
    for task in g.tasks() {
        text(out, task.name());
        num(out, task.computation().as_u64());
    }
    num(out, g.edges().len() as u64);
    for e in g.edges() {
        num(out, e.src.index() as u64);
        num(out, e.dst.index() as u64);
        num(out, e.comm.as_u64());
    }
    let m = app.registers();
    num(out, m.blocks().len() as u64);
    for block in m.blocks() {
        text(out, block.name());
        num(out, block.bits().as_u64());
    }
    for task_index in 0..m.n_tasks() {
        let blocks = m.task_blocks(TaskId::new(task_index));
        num(out, blocks.len() as u64);
        for b in blocks {
            num(out, b.index() as u64);
        }
    }
}

fn write_selection(out: &mut impl TokenSink, s: SelectionPolicy) {
    match s {
        SelectionPolicy::PowerGammaProduct => num(out, 0),
        SelectionPolicy::PowerFirst { tolerance } => {
            num(out, 1);
            float(out, tolerance);
        }
        SelectionPolicy::Weighted { w_power } => {
            num(out, 2);
            float(out, w_power);
        }
        SelectionPolicy::GammaFirst => num(out, 3),
    }
}

/// Encodes one unit canonically: the text a coordinator dispatches. The
/// unit's [`crate::unit_hash`] is FNV-1a-128 over the same text without
/// the index and scenario tokens.
#[must_use]
pub fn encode_unit(unit: &Unit) -> String {
    let mut out = String::with_capacity(256);
    write_unit(&mut out, unit, true);
    out
}

/// Decodes one unit from its [`encode_unit`] text.
///
/// # Errors
///
/// [`CodecError`] for malformed input, unknown tags, or an encoding
/// version this build does not read.
pub fn decode_unit(source: &str) -> Result<Unit, CodecError> {
    let mut t = Tokens::new(source);
    let version = t.next_u32()?;
    if version != ENCODING_VERSION {
        return Err(cerr(format!(
            "unit encoding version skew: stream has {version}, this build reads {ENCODING_VERSION}"
        )));
    }
    let index = t.next_usize()?;
    let scenario = next_text(&mut t)?;
    let kind = next_kind(&mut t)?;
    let app = next_app_ref(&mut t)?;
    let cores = t.next_usize()?;
    let levels = t.next_usize()?;
    let budget_keyword = t.next_tok()?;
    let budget = BudgetSpec::parse(budget_keyword).map_err(|e| cerr(format!("bad budget: {e}")))?;
    let selection = next_selection(&mut t)?;
    let seed = t.next_u64()?;
    t.finish()?;
    Ok(Unit {
        index,
        scenario,
        kind,
        app,
        cores,
        levels,
        budget,
        selection,
        seed,
    })
}

fn cerr(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

fn next_text(t: &mut Tokens<'_>) -> Result<String, CodecError> {
    let tok = t.next_tok()?;
    let hex = tok
        .strip_prefix('x')
        .ok_or_else(|| cerr(format!("expected a string token, got `{tok}`")))?;
    let digit = |b: u8| char::from(b).to_digit(16);
    let bytes: Option<Vec<u8>> = hex
        .as_bytes()
        .chunks(2)
        .map(|pair| match *pair {
            [hi, lo] => Some(((digit(hi)? << 4) | digit(lo)?) as u8),
            _ => None,
        })
        .collect();
    let bytes = bytes.ok_or_else(|| cerr(format!("bad hex in string token `{tok}`")))?;
    String::from_utf8(bytes).map_err(|_| cerr(format!("non-UTF-8 string token `{tok}`")))
}

fn next_kind(t: &mut Tokens<'_>) -> Result<UnitKind, CodecError> {
    match t.next_tok()? {
        "optimize" => Ok(UnitKind::Optimize),
        "baseline" => Ok(UnitKind::Baseline(
            Objective::from_keyword(t.next_tok()?).map_err(cerr)?,
        )),
        "sweep" => Ok(UnitKind::Sweep {
            count: t.next_usize()?,
            scale: t.next_u8()?,
        }),
        "simulate" => {
            let n = t.next_usize()?;
            let scaling = (0..n).map(|_| t.next_u8()).collect::<Result<_, _>>()?;
            let n_groups = t.next_usize()?;
            let mut groups = Vec::with_capacity(n_groups.min(1024));
            for _ in 0..n_groups {
                let len = t.next_usize()?;
                groups.push(
                    (0..len)
                        .map(|_| t.next_usize())
                        .collect::<Result<Vec<_>, _>>()?,
                );
            }
            Ok(UnitKind::Simulate {
                scaling,
                groups,
                ser: t.next_f64()?,
            })
        }
        other => Err(cerr(format!("unknown unit kind `{other}`"))),
    }
}

fn next_app_spec(t: &mut Tokens<'_>) -> Result<AppSpec, CodecError> {
    let text = next_text(t)?;
    text.parse()
        .map_err(|e| cerr(format!("bad app spec `{text}`: {e}")))
}

fn next_app_ref(t: &mut Tokens<'_>) -> Result<AppRef, CodecError> {
    match t.next_tok()? {
        "spec" => Ok(AppRef::Spec(next_app_spec(t)?)),
        "inline" => Ok(AppRef::Inline(Arc::new(next_application(t)?))),
        "scaled" => Ok(AppRef::Scaled {
            spec: next_app_spec(t)?,
            deadline_scale: t.next_f64()?,
        }),
        other => Err(cerr(format!("unknown app tag `{other}`"))),
    }
}

fn next_application(t: &mut Tokens<'_>) -> Result<Application, CodecError> {
    let name = next_text(t)?;
    let mode = match t.next_u64()? {
        0 => ExecutionMode::Batch,
        1 => ExecutionMode::Pipelined {
            iterations: t.next_u32()?,
        },
        other => return Err(cerr(format!("unknown execution-mode tag {other}"))),
    };
    let deadline_s = t.next_f64()?;
    let graph_name = next_text(t)?;
    let n_tasks = t.next_usize()?;
    let mut builder = TaskGraphBuilder::new(graph_name);
    for _ in 0..n_tasks {
        let task_name = next_text(t)?;
        builder.add_task(task_name, Cycles::new(t.next_u64()?));
    }
    let n_edges = t.next_usize()?;
    for _ in 0..n_edges {
        let src = TaskId::new(t.next_usize()?);
        let dst = TaskId::new(t.next_usize()?);
        let comm = Cycles::new(t.next_u64()?);
        builder
            .add_edge(src, dst, comm)
            .map_err(|e| cerr(format!("bad edge: {e}")))?;
    }
    let graph = builder
        .build()
        .map_err(|e| cerr(format!("bad graph: {e}")))?;
    let mut registers = RegisterModelBuilder::new(n_tasks);
    let n_blocks = t.next_usize()?;
    let mut block_ids = Vec::with_capacity(n_blocks.min(4096));
    for _ in 0..n_blocks {
        let block_name = next_text(t)?;
        block_ids.push(registers.add_block(block_name, Bits::new(t.next_u64()?)));
    }
    for task_index in 0..n_tasks {
        let n = t.next_usize()?;
        for _ in 0..n {
            let b = t.next_usize()?;
            let &id = block_ids
                .get(b)
                .ok_or_else(|| cerr(format!("register block {b} out of range")))?;
            registers
                .assign(TaskId::new(task_index), id)
                .map_err(|e| cerr(format!("bad register assignment: {e}")))?;
        }
    }
    Application::new(name, graph, registers.build(), mode, deadline_s)
        .map_err(|e| cerr(format!("bad application: {e}")))
}

fn next_selection(t: &mut Tokens<'_>) -> Result<SelectionPolicy, CodecError> {
    match t.next_u64()? {
        0 => Ok(SelectionPolicy::PowerGammaProduct),
        1 => Ok(SelectionPolicy::PowerFirst {
            tolerance: t.next_f64()?,
        }),
        2 => Ok(SelectionPolicy::Weighted {
            w_power: t.next_f64()?,
        }),
        3 => Ok(SelectionPolicy::GammaFirst),
        other => Err(cerr(format!("unknown selection tag {other}"))),
    }
}

/// The kind-specific result of one unit.
#[derive(Debug, Clone)]
pub enum UnitPayload {
    /// A full optimization outcome (`optimize` and `baseline` units).
    Design(Box<OptimizationOutcome>),
    /// The unit's design space holds no deadline-meeting design.
    Infeasible {
        /// Tightest multiprocessor execution time found, seconds.
        best_tm_seconds: f64,
        /// The deadline that could not be met.
        deadline_s: f64,
    },
    /// The application cannot occupy every core of the allocation.
    TooFewTasks {
        /// Tasks available.
        tasks: usize,
        /// Cores to fill.
        cores: usize,
    },
    /// Random-mapping sweep points (`sweep` units).
    Sweep(Vec<sea_baselines::sweep::SweepPoint>),
    /// Fault-injection summary (`simulate` units): the counts and the
    /// analytic evaluation, without the trace and SEU event lists.
    Sim(Box<SimSummary>),
}

impl UnitPayload {
    /// The optimization outcome, when the unit produced one.
    #[must_use]
    pub fn outcome(&self) -> Option<&OptimizationOutcome> {
        match self {
            UnitPayload::Design(out) => Some(out),
            _ => None,
        }
    }

    /// Re-raises infeasibility outcomes as the [`OptError`] the direct
    /// optimizer calls would have returned — used by harnesses that treat
    /// an infeasible unit as a hard error (Table II) rather than an empty
    /// cell (Table III).
    ///
    /// # Errors
    ///
    /// [`OptError::Infeasible`] / [`OptError::TooFewTasks`] for the
    /// corresponding payloads.
    ///
    /// # Panics
    ///
    /// Panics on sweep/simulate payloads — those units never produce a
    /// design, so reaching here means the caller sliced its results out
    /// of step with its unit list, which must fail loudly rather than
    /// masquerade as infeasibility.
    pub fn require_design(&self) -> Result<&OptimizationOutcome, OptError> {
        match self {
            UnitPayload::Design(out) => Ok(out),
            UnitPayload::Infeasible {
                best_tm_seconds,
                deadline_s,
            } => Err(OptError::Infeasible {
                best_tm_seconds: *best_tm_seconds,
                deadline_s: *deadline_s,
            }),
            UnitPayload::TooFewTasks { tasks, cores } => Err(OptError::TooFewTasks {
                tasks: *tasks,
                cores: *cores,
            }),
            UnitPayload::Sweep(_) | UnitPayload::Sim(_) => {
                unreachable!(
                    "require_design called on a {} payload — the caller's result slice \
                     is misaligned with its unit list",
                    match self {
                        UnitPayload::Sweep(_) => "sweep",
                        _ => "simulate",
                    }
                )
            }
        }
    }
}

/// A completed unit: the executed unit, its rich payload and the flat
/// [`UnitRecord`] the sinks render.
#[derive(Debug, Clone)]
pub struct UnitResult {
    /// The unit that ran.
    pub unit: Unit,
    /// Kind-specific result data.
    pub payload: UnitPayload,
    /// Flat record for streaming sinks and final reports.
    pub record: UnitRecord,
}

impl UnitResult {
    /// A payload and record computed for any unit with `unit`'s
    /// [`crate::unit_hash`], as `unit`'s own result. Index and scenario
    /// are presentation, not content, so they are taken from `unit`: a
    /// cache entry may come from a campaign that placed the unit
    /// elsewhere, and a duplicate unit copies an earlier one's result.
    pub(crate) fn rebound(unit: &Unit, payload: UnitPayload, record: UnitRecord) -> Self {
        UnitResult {
            unit: unit.clone(),
            payload,
            record: record.rebound(unit),
        }
    }
}

/// The flat, sink-facing view of one unit result.
#[derive(Debug, Clone)]
pub struct UnitRecord {
    /// Global enumeration index.
    pub index: usize,
    /// Owning scenario label.
    pub scenario: String,
    /// Kind label (`optimize`, `baseline:tmr`, …).
    pub kind: String,
    /// Workload label.
    pub app: String,
    /// Core count.
    pub cores: usize,
    /// DVS level count.
    pub levels: usize,
    /// Seed the unit ran with.
    pub seed: u64,
    /// `ok`, `infeasible` or `too-few-tasks`.
    pub status: &'static str,
    /// Power of the winning design, mW (sweeps report the mean).
    pub power_mw: Option<f64>,
    /// Expected SEUs of the winning design (sweeps report the mean).
    pub gamma: Option<f64>,
    /// Execution time of the winning design, seconds (sweeps: mean).
    pub tm_seconds: Option<f64>,
    /// Register usage of the winning design, kbit/cycle (sweeps: mean).
    pub r_kbits: Option<f64>,
    /// Candidate evaluations spent (sweeps: mapping count; simulate:
    /// none).
    pub evaluations: Option<usize>,
    /// Winning scaling vector, when the unit selects one.
    pub scaling: Option<String>,
    /// Winning mapping, when the unit selects one.
    pub mapping: Option<String>,
    /// Monte-Carlo experienced SEU count (`simulate` units).
    pub experienced_seus: Option<u64>,
}

impl UnitRecord {
    /// This record as the record of `unit`, which has the same
    /// [`crate::unit_hash`]: index and scenario are presentation, so they
    /// are taken from `unit`.
    pub(crate) fn rebound(mut self, unit: &Unit) -> Self {
        self.index = unit.index;
        self.scenario.clone_from(&unit.scenario);
        self
    }

    fn empty(unit: &Unit, status: &'static str) -> Self {
        UnitRecord {
            index: unit.index,
            scenario: unit.scenario.clone(),
            kind: unit.kind.label(),
            app: unit.app.label(),
            cores: unit.cores,
            levels: unit.levels,
            seed: unit.seed,
            status,
            power_mw: None,
            gamma: None,
            tm_seconds: None,
            r_kbits: None,
            evaluations: None,
            scaling: None,
            mapping: None,
            experienced_seus: None,
        }
    }
}

fn design_record(unit: &Unit, out: &OptimizationOutcome) -> UnitRecord {
    let best = &out.best;
    UnitRecord {
        power_mw: Some(best.evaluation.power_mw),
        gamma: Some(best.evaluation.gamma),
        tm_seconds: Some(best.evaluation.tm_seconds),
        r_kbits: Some(best.evaluation.r_total_kbits()),
        evaluations: Some(out.total_evaluations),
        scaling: Some(best.scaling.to_string()),
        mapping: Some(best.mapping.to_string()),
        ..UnitRecord::empty(unit, "ok")
    }
}

/// Executes one unit on the calling thread.
///
/// # Errors
///
/// Hard errors (scheduling/architecture/spec failures) propagate and abort
/// the campaign; infeasibility is *not* an error — it lands in the payload
/// and record so a campaign over a grid with infeasible corners still
/// completes.
pub fn run_unit(unit: &Unit) -> Result<UnitResult, CampaignError> {
    run_unit_cancellable(unit, 1, None)
}

/// [`run_unit`] with `inner_jobs` worker threads handed down to the
/// unit's own scaling enumeration, and a cooperative cancellation flag
/// threaded into the unit's optimizer ([`OptimizerConfig::with_cancel`]).
/// The pool hands down leftover threads when a campaign has fewer units
/// than workers; the outcome is identical for every value — `sea_opt`'s
/// engine is job-count-invariant — so they only trade wall-clock. Setting
/// the flag makes in-progress optimize/baseline units abort at the next
/// scaling-chunk boundary with [`CampaignError::Opt`]`(`[`OptError::Cancelled`]`)`
/// instead of finishing — how the daemon's `Cancel` frames and a worker's
/// lost-coordinator path stop doomed work promptly. An unset flag changes
/// nothing: the produced result is bitwise identical to [`run_unit`]'s.
///
/// # Errors
///
/// As [`run_unit`], plus [`OptError::Cancelled`] when the flag fires.
pub fn run_unit_cancellable(
    unit: &Unit,
    inner_jobs: usize,
    cancel: Option<&Arc<AtomicBool>>,
) -> Result<UnitResult, CampaignError> {
    let app = unit.app.build()?;
    let with_cancel = |config: OptimizerConfig| match cancel {
        Some(flag) => config.with_cancel(Arc::clone(flag)),
        None => config,
    };
    let (payload, record) = match &unit.kind {
        UnitKind::Optimize => {
            let optimizer =
                DesignOptimizer::new(with_cancel(unit.optimizer_config().with_jobs(inner_jobs)));
            // Units share the graph's structure-of-arrays view across the
            // whole campaign (memoized per `Arc<Application>` identity,
            // which `AppRef::build` keeps stable per workload).
            let soa = TaskGraphSoa::shared(&app);
            design_payload(unit, optimizer.optimize_with(&app, &soa))?
        }
        UnitKind::Baseline(objective) => {
            let optimizer =
                BaselineOptimizer::new(with_cancel(unit.optimizer_config()), *objective);
            design_payload(unit, optimizer.optimize(&app))?
        }
        UnitKind::Sweep { count, scale } => {
            let arch = unit.architecture();
            let ctx = EvalContext::new(&app, &arch);
            let scaling = ScalingVector::uniform(*scale, &arch).map_err(OptError::from)?;
            let points =
                sea_baselines::sweep::random_mapping_sweep(&ctx, &scaling, *count, unit.seed)?;
            let mean = |f: &dyn Fn(&sea_baselines::sweep::SweepPoint) -> f64| {
                if points.is_empty() {
                    None
                } else {
                    Some(points.iter().map(f).sum::<f64>() / points.len() as f64)
                }
            };
            let record = UnitRecord {
                power_mw: mean(&|p| p.evaluation.power_mw),
                gamma: mean(&|p| p.evaluation.gamma),
                tm_seconds: mean(&|p| p.evaluation.tm_seconds),
                r_kbits: mean(&|p| p.evaluation.r_total_kbits()),
                evaluations: Some(points.len()),
                scaling: Some(scaling.to_string()),
                ..UnitRecord::empty(unit, "ok")
            };
            (UnitPayload::Sweep(points), record)
        }
        UnitKind::Simulate {
            scaling,
            groups,
            ser,
        } => {
            let arch = unit.architecture();
            let group_refs: Vec<&[usize]> = groups.iter().map(Vec::as_slice).collect();
            let mapping = Mapping::from_groups(&group_refs, unit.cores).map_err(OptError::from)?;
            let scaling = ScalingVector::try_new(scaling.clone(), &arch).map_err(OptError::from)?;
            let mut config = SimConfig::seeded(unit.seed);
            config.ser = SerModel::calibrated(*ser);
            let report = simulate_design(&app, &arch, &mapping, &scaling, &config)
                .map_err(CampaignError::Sim)?;
            let record = UnitRecord {
                power_mw: Some(report.analytic.power_mw),
                gamma: Some(report.analytic.gamma),
                tm_seconds: Some(report.analytic.tm_seconds),
                r_kbits: Some(report.analytic.r_total_kbits()),
                scaling: Some(scaling.to_string()),
                mapping: Some(mapping.to_string()),
                experienced_seus: Some(report.faults.total_experienced),
                ..UnitRecord::empty(unit, "ok")
            };
            // The event lists are dropped here, not sampled less: the SEU
            // events draw from the RNG stream of the later cores' counts,
            // so a smaller `max_detailed_events` would change those counts.
            (UnitPayload::Sim(Box::new(report.into_summary())), record)
        }
    };
    Ok(UnitResult {
        unit: unit.clone(),
        payload,
        record,
    })
}

/// Folds an optimizer result into a payload + record, downgrading
/// infeasibility to data.
fn design_payload(
    unit: &Unit,
    result: Result<OptimizationOutcome, OptError>,
) -> Result<(UnitPayload, UnitRecord), CampaignError> {
    match result {
        Ok(out) => {
            let record = design_record(unit, &out);
            Ok((UnitPayload::Design(Box::new(out)), record))
        }
        Err(OptError::Infeasible {
            best_tm_seconds,
            deadline_s,
        }) => Ok((
            UnitPayload::Infeasible {
                best_tm_seconds,
                deadline_s,
            },
            UnitRecord {
                tm_seconds: Some(best_tm_seconds),
                ..UnitRecord::empty(unit, "infeasible")
            },
        )),
        Err(OptError::TooFewTasks { tasks, cores }) => Ok((
            UnitPayload::TooFewTasks { tasks, cores },
            UnitRecord::empty(unit, "too-few-tasks"),
        )),
        Err(other) => Err(CampaignError::Opt(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn optimize_of(app: AppSpec, cores: usize) -> Unit {
        Unit {
            index: 0,
            scenario: "test".into(),
            kind: UnitKind::Optimize,
            app: AppRef::Spec(app),
            cores,
            levels: 3,
            budget: BudgetSpec::Fast,
            selection: SelectionPolicy::default(),
            seed: 0x5EA,
        }
    }

    #[test]
    fn run_unit_matches_a_direct_driver_call() {
        let unit = optimize_of(AppSpec::Mpeg2, 4);
        let via_unit = run_unit(&unit).unwrap();
        let direct = DesignOptimizer::new(unit.optimizer_config())
            .optimize(&AppSpec::Mpeg2.build().unwrap())
            .unwrap();
        let out = via_unit.payload.outcome().expect("feasible");
        assert_eq!(out.best.mapping, direct.best.mapping);
        assert_eq!(out.best.scaling, direct.best.scaling);
        assert_eq!(out.total_evaluations, direct.total_evaluations);
        assert_eq!(via_unit.record.status, "ok");
        assert_eq!(via_unit.record.evaluations, Some(direct.total_evaluations));
    }

    #[test]
    fn infeasible_units_become_records_not_errors() {
        let mut unit = optimize_of(AppSpec::Fig8, 3);
        // fig8's 75 ms deadline is tight; force infeasibility via an
        // impossible allocation instead: 8 cores for 6 tasks.
        unit.cores = 8;
        let result = run_unit(&unit).unwrap();
        assert_eq!(result.record.status, "too-few-tasks");
        assert!(result.payload.require_design().is_err());
    }

    #[test]
    fn sweep_and_simulate_units_run() {
        let mut unit = optimize_of(AppSpec::Mpeg2, 4);
        unit.kind = UnitKind::Sweep {
            count: 10,
            scale: 1,
        };
        let sweep = run_unit(&unit).unwrap();
        assert_eq!(sweep.record.evaluations, Some(10));
        assert!(sweep.record.gamma.unwrap() > 0.0);

        unit.kind = UnitKind::Simulate {
            scaling: vec![2, 2, 3, 2],
            groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
            ser: sea_arch::ser::PAPER_SER,
        };
        unit.seed = 13;
        let sim = run_unit(&unit).unwrap();
        assert!(sim.record.experienced_seus.unwrap() > 0);
        let UnitPayload::Sim(report) = &sim.payload else {
            panic!("simulate payload expected");
        };
        assert!(report.analytic.gamma > 0.0);
    }

    /// Every kind, every app-ref form and every selection policy.
    fn sample_units() -> Vec<Unit> {
        let mut units = crate::parse_campaign(
            "name = \"wire\"\nbudget = \"fast\"\n\
             [scenario]\nkind = \"optimize\"\napps = \"mpeg2, fig8, random:12:9\"\ncores = \"3-4\"\n\
             [scenario]\nkind = \"baseline\"\nobjectives = \"r,tm,tmr\"\napps = \"mpeg2\"\ncores = \"4\"\n\
             [scenario]\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\ncount = 7\nscales = \"2\"\n\
             [scenario]\nkind = \"optimize\"\napps = \"fig8\"\ncores = \"3\"\nselections = \"power, gamma\"\n",
        )
        .unwrap()
        .expand();
        // An inline application (harness-built workload) and a simulate
        // unit with explicit design-point structure.
        let inline = Arc::new(AppSpec::Mpeg2.build().unwrap());
        let mut u = units[0].clone();
        u.scenario = "inline scenario \"with\" quotes\nand newlines".into();
        u.app = AppRef::Inline(inline);
        u.kind = UnitKind::Simulate {
            scaling: vec![2, 2, 3, 2],
            groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
            ser: 1.234e-9,
        };
        u.cores = 4;
        units.push(u);
        // The ablations' weighted selection, which no keyword names.
        let mut u = units[0].clone();
        u.selection = SelectionPolicy::Weighted { w_power: 0.3 };
        units.push(u);
        // A deadline-scaled workload (campaign `deadline_scale` key).
        let mut u = units[1].clone();
        u.app = AppRef::Scaled {
            spec: AppSpec::Mpeg2,
            deadline_scale: 0.4,
        };
        units.push(u);
        units
    }

    #[test]
    fn units_round_trip_with_identical_content_hashes() {
        for unit in sample_units() {
            let encoded = encode_unit(&unit);
            let back = decode_unit(&encoded).unwrap_or_else(|e| panic!("{e}: {encoded}"));
            assert_eq!(crate::unit_hash(&unit), crate::unit_hash(&back));
            assert_eq!(unit.index, back.index);
            assert_eq!(unit.scenario, back.scenario);
            // Stable golden form: re-encoding is byte-identical.
            assert_eq!(encoded, encode_unit(&back));
        }
    }

    #[test]
    fn unit_hash_is_fnv_over_the_encoding_without_presentation() {
        for unit in sample_units() {
            let encoded = encode_unit(&unit);
            let tokens: Vec<&str> = encoded.split(' ').collect();
            // Version, index, scenario, then the content tokens.
            let identity = [&tokens[..1], &tokens[3..]].concat().join(" ");
            let mut h = ContentHasher::new();
            h.write(identity.as_bytes());
            assert_eq!(crate::unit_hash(&unit), h.finish(), "{encoded}");
        }
    }

    #[test]
    fn inline_applications_rebuild_exactly() {
        let app = Arc::new(AppSpec::Mpeg2.build().unwrap());
        let mut out = String::new();
        write_application(&mut out, &app);
        let back = next_application(&mut Tokens::new(&out)).unwrap();
        assert_eq!(*app, back);
    }

    #[test]
    fn malformed_unit_text_is_an_error_not_a_panic() {
        let v = ENCODING_VERSION;
        assert!(decode_unit(&format!("{v} 0 x optimize spec x6d70656732 4 3 fast 0 5")).is_ok());
        for bad in [
            String::new(),
            format!("{v}"),
            "999 0 x".to_string(),
            format!("{v} 0 x optimize spec x6d70656732 4 3 fast 0"), // truncated (no seed)
            format!("{v} 0 x optimize spec xzz 4 3 fast 0 5"),       // bad hex
            format!("{v} 0 x optimize spec x6d70656732 4 3 leisurely 0 5"),
            format!("{v} 0 y0 optimize spec x6d70656732 4 3 fast 0 5"), // bad string token
            format!("{v} 0 x frobnicate"),
            format!("{v} 0 xa\u{e9}b optimize spec x6d70656732 4 3 fast 0 5"), // non-ASCII hex
        ] {
            assert!(decode_unit(&bad).is_err(), "`{bad}`");
        }

        // Deterministic mutation fuzz over a valid encoding: truncations
        // and byte flips decode or error, never panic.
        let unit = sample_units().pop().unwrap();
        let encoded = encode_unit(&unit);
        for cut in 0..encoded.len() {
            let _ = decode_unit(&encoded[..cut]);
        }
        let mut state = 0xD15Cu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let bytes = encoded.as_bytes();
        for _ in 0..500 {
            let mut mutated = bytes.to_vec();
            let pos = (next() as usize) % mutated.len();
            mutated[pos] = (next() & 0x7F) as u8; // keep it UTF-8
            if let Ok(text) = std::str::from_utf8(&mutated) {
                let _ = decode_unit(text);
            }
        }
    }

    #[test]
    fn budget_keywords_round_trip() {
        for b in [
            BudgetSpec::Fast,
            BudgetSpec::Smoke,
            BudgetSpec::Paper,
            BudgetSpec::Thorough,
        ] {
            assert_eq!(BudgetSpec::parse(b.keyword()).unwrap(), b);
        }
        assert!(BudgetSpec::parse("leisurely").is_err());
    }
}
