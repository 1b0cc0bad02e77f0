//! The declarative campaign grammar: a hand-rolled TOML-lite parser
//! (`key = value` lines plus `[scenario]` sections — no external
//! dependencies) and the grid expansion from scenarios to [`Unit`]s.
//!
//! ```text
//! # campaign header
//! name   = "quickstart"
//! budget = "fast"            # fast | smoke | paper | thorough
//! seed   = 1514              # base seed for derived per-unit seeds
//!
//! [scenario]
//! name       = "mpeg2-cores"
//! kind       = "optimize"    # optimize | baseline | sweep | simulate
//! apps       = "mpeg2"       # comma list of app specs
//! cores      = "2-4"         # comma list and/or a-b ranges, 1-64
//! levels     = "3"           # comma list of 2|3|4 (default 3)
//! selections = "product"     # product | power | gamma (default product)
//! # seeds    = "1,2,3"       # explicit seed axis; omitted = derived
//! ```
//!
//! Scenario kinds add their own keys: `objectives = "r,tm,tmr"`
//! (baseline), `count` (0 to 10,000, default 120) and `scales` (sweep),
//! `scaling`, `groups` and `ser` (simulate; a rate per bit per cycle in
//! (0, 1], default 1e-9). Any kind accepts `deadline_scale = "0.4"`, which
//! multiplies every listed app's deadline — the standard way to pose the
//! tight-deadline problems the bound-and-prune engine accelerates.
//! Unknown or duplicate keys are errors — a typo must not silently
//! shrink a grid.
//!
//! A campaign expands to at most [`MAX_UNITS`] units. Each axis is checked
//! as its values are added and the campaign total as each scenario
//! closes, so an oversized spec is a line-numbered error before anything
//! that grows with the expansion is allocated.
//!
//! # Seed discipline
//!
//! When a scenario lists no explicit `seeds`, every unit's seed is
//! `base_seed + global_unit_index` (wrapping). The index is a property of
//! the *enumeration* — never of the worker count — so a campaign's
//! results are bitwise identical for every `--jobs` value.

use std::ops::RangeInclusive;

use sea_baselines::Objective;
use sea_opt::SelectionPolicy;
use sea_taskgraph::AppSpec;

use crate::unit::{AppRef, BudgetSpec, Unit, UnitKind};
use crate::CampaignError;

/// Default base seed when a campaign file sets none.
pub const DEFAULT_BASE_SEED: u64 = 0x5EA;

/// The largest core count a scenario's `cores` axis may list: more than
/// ten times the largest count any builtin, example or experiment uses
/// (6). Checked on range endpoints before a range expands.
pub const MAX_CORES: usize = 64;

/// The largest `count` a sweep scenario may set: more than 80 times the
/// largest count any builtin, example or experiment uses (120). The
/// sweep allocates `count` slots up front and its duplicate check is
/// quadratic in `count`.
pub const MAX_SWEEP_COUNT: usize = 10_000;

/// The most units a campaign may expand to: 280 times the largest
/// campaign in the tree (the 356 units of the `warm` benchmark's battery).
/// The daemon expands submitted specs on its event loop, so one oversized
/// spec must be refused, not allocated.
pub const MAX_UNITS: usize = 100_000;

/// A parsed campaign: header + scenarios, expandable to units.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (reports title).
    pub name: String,
    /// Default budget for scenarios that set none.
    pub budget: BudgetSpec,
    /// Base seed for derived per-unit seeds.
    pub base_seed: u64,
    /// Scenarios in file order.
    pub scenarios: Vec<Scenario>,
}

/// One `[scenario]` section.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (defaults to `scenario-<k>`).
    pub name: String,
    /// Kind plus kind-specific parameters.
    pub kind: ScenarioKind,
    /// Application axis.
    pub apps: Vec<AppSpec>,
    /// Core-count axis.
    pub cores: Vec<usize>,
    /// DVS level-count axis.
    pub levels: Vec<usize>,
    /// Selection-policy axis.
    pub selections: Vec<SelectionPolicy>,
    /// Explicit seed axis; `None` derives seeds from the global index.
    pub seeds: Option<Vec<u64>>,
    /// Per-scenario budget override.
    pub budget: Option<BudgetSpec>,
    /// Deadline multiplier applied to every app of the scenario
    /// (`deadline_scale = "0.4"` — tight-deadline studies, where the
    /// bound-and-prune engine earns its keep).
    pub deadline_scale: Option<f64>,
}

impl Scenario {
    /// The number of units the scenario expands to, or `None` if it
    /// overflows `usize`.
    fn unit_count(&self) -> Option<usize> {
        let kinds = match &self.kind {
            ScenarioKind::Optimize | ScenarioKind::Simulate { .. } => 1,
            ScenarioKind::Baseline { objectives } => objectives.len(),
            ScenarioKind::Sweep { scales, .. } => scales.len(),
        };
        let seeds = self.seeds.as_ref().map_or(1, Vec::len);
        [
            self.apps.len(),
            self.cores.len(),
            self.levels.len(),
            self.selections.len(),
            kinds,
            seeds,
        ]
        .into_iter()
        .try_fold(1, usize::checked_mul)
    }
}

/// Kind-specific scenario parameters.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// The proposed flow.
    Optimize,
    /// SA baselines over an objective axis.
    Baseline {
        /// Objective axis (`r`, `tm`, `tmr`).
        objectives: Vec<Objective>,
    },
    /// Random-mapping sweeps over a uniform-scale axis.
    Sweep {
        /// Mappings per sweep.
        count: usize,
        /// Uniform scaling coefficient axis.
        scales: Vec<u8>,
    },
    /// Fault injection of one explicit design point.
    Simulate {
        /// Per-core scaling coefficients.
        scaling: Vec<u8>,
        /// Per-core task groups.
        groups: Vec<Vec<usize>>,
        /// Raw SER (λ_ref).
        ser: f64,
    },
}

impl Campaign {
    /// Expands the scenario grids into the flat, globally-indexed unit
    /// list the pool executes. Expansion order is deterministic: scenarios
    /// in file order; within a scenario `apps × cores × levels ×
    /// selections × (objectives|scales) × seeds`, innermost last.
    #[must_use]
    pub fn expand(&self) -> Vec<Unit> {
        let mut units = Vec::new();
        for scenario in &self.scenarios {
            let budget = scenario.budget.unwrap_or(self.budget);
            let kinds: Vec<UnitKind> = match &scenario.kind {
                ScenarioKind::Optimize => vec![UnitKind::Optimize],
                ScenarioKind::Baseline { objectives } => {
                    objectives.iter().map(|&o| UnitKind::Baseline(o)).collect()
                }
                ScenarioKind::Sweep { count, scales } => scales
                    .iter()
                    .map(|&scale| UnitKind::Sweep {
                        count: *count,
                        scale,
                    })
                    .collect(),
                ScenarioKind::Simulate {
                    scaling,
                    groups,
                    ser,
                } => vec![UnitKind::Simulate {
                    scaling: scaling.clone(),
                    groups: groups.clone(),
                    ser: *ser,
                }],
            };
            for &app in &scenario.apps {
                for &cores in &scenario.cores {
                    for &levels in &scenario.levels {
                        for &selection in &scenario.selections {
                            for kind in &kinds {
                                let derived = [self.base_seed.wrapping_add(units.len() as u64)];
                                for &seed in scenario.seeds.as_deref().unwrap_or(&derived) {
                                    let app = match scenario.deadline_scale {
                                        Some(deadline_scale) => AppRef::Scaled {
                                            spec: app,
                                            deadline_scale,
                                        },
                                        None => AppRef::Spec(app),
                                    };
                                    units.push(Unit {
                                        index: units.len(),
                                        scenario: scenario.name.clone(),
                                        kind: kind.clone(),
                                        app,
                                        cores,
                                        levels,
                                        budget,
                                        selection,
                                        seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        units
    }
}

/// Parses a campaign file.
///
/// # Errors
///
/// Returns [`CampaignError::Spec`] with a line-numbered message for any
/// malformed construct, unknown key, duplicate key or missing required
/// key.
pub fn parse_campaign(source: &str) -> Result<Campaign, CampaignError> {
    let mut campaign = Campaign {
        name: "campaign".into(),
        budget: BudgetSpec::Fast,
        base_seed: DEFAULT_BASE_SEED,
        scenarios: Vec::new(),
    };
    let mut section: Option<RawSection> = None;
    let mut header_keys: Vec<String> = Vec::new();
    let mut n_units = 0;

    for (lineno, raw_line) in source.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err(lineno, "unterminated section header"))?
                .trim();
            if name != "scenario" {
                return Err(err(
                    lineno,
                    &format!("unknown section `[{name}]` (only `[scenario]` is supported)"),
                ));
            }
            if let Some(done) = section.take() {
                close_section(&mut campaign, done, &mut n_units)?;
            }
            section = Some(RawSection::new(lineno));
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                lineno,
                &format!("expected `key = value`, got `{line}`"),
            ));
        };
        let key = key.trim();
        let value = unquote(value.trim());
        match &mut section {
            Some(raw) => raw.set(lineno, key, &value)?,
            None => {
                if header_keys.iter().any(|k| k == key) {
                    return Err(err(lineno, &format!("duplicate header key `{key}`")));
                }
                header_keys.push(key.to_string());
                match key {
                    "name" => campaign.name = value,
                    "budget" => {
                        campaign.budget = BudgetSpec::parse(&value).map_err(|e| at(lineno, &e))?;
                    }
                    "seed" => {
                        campaign.base_seed = value
                            .parse()
                            .map_err(|_| err(lineno, &format!("cannot parse seed `{value}`")))?;
                    }
                    other => {
                        return Err(err(
                            lineno,
                            &format!("unknown header key `{other}` (name|budget|seed)"),
                        ));
                    }
                }
            }
        }
    }
    if let Some(done) = section.take() {
        close_section(&mut campaign, done, &mut n_units)?;
    }
    if campaign.scenarios.is_empty() {
        return Err(CampaignError::Spec(
            "campaign defines no `[scenario]` section".into(),
        ));
    }
    Ok(campaign)
}

/// Finishes a `[scenario]` section and adds its units to `n_units`,
/// refusing a campaign of more than [`MAX_UNITS`] units.
fn close_section(
    campaign: &mut Campaign,
    raw: RawSection,
    n_units: &mut usize,
) -> Result<(), CampaignError> {
    let line = raw.line;
    let scenario = raw.finish(campaign.scenarios.len())?;
    *n_units = scenario
        .unit_count()
        .and_then(|n| n.checked_add(*n_units))
        .filter(|&n| n <= MAX_UNITS)
        .ok_or_else(|| {
            err(
                line,
                &format!("the campaign expands to more than {MAX_UNITS} units"),
            )
        })?;
    campaign.scenarios.push(scenario);
    Ok(())
}

fn err(lineno: usize, msg: &str) -> CampaignError {
    CampaignError::Spec(format!("line {lineno}: {msg}"))
}

fn at(lineno: usize, e: &CampaignError) -> CampaignError {
    CampaignError::Spec(format!("line {lineno}: {e}"))
}

/// Strips a `#` comment that is not inside a double-quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(value: &str) -> String {
    value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .unwrap_or(value)
        .to_string()
}

/// A `[scenario]` section while its keys are being collected.
struct RawSection {
    /// Line of the section header.
    line: usize,
    keys: Vec<(usize, String, String)>,
}

impl RawSection {
    fn new(line: usize) -> Self {
        RawSection {
            line,
            keys: Vec::new(),
        }
    }

    fn set(&mut self, lineno: usize, key: &str, value: &str) -> Result<(), CampaignError> {
        if self.keys.iter().any(|(_, k, _)| k == key) {
            return Err(err(lineno, &format!("duplicate scenario key `{key}`")));
        }
        self.keys.push((lineno, key.to_string(), value.to_string()));
        Ok(())
    }

    fn take(&mut self, key: &str) -> Option<(usize, String)> {
        let pos = self.keys.iter().position(|(_, k, _)| k == key)?;
        let (lineno, _, value) = self.keys.remove(pos);
        Some((lineno, value))
    }

    fn finish(mut self, ordinal: usize) -> Result<Scenario, CampaignError> {
        let name = self
            .take("name")
            .map_or_else(|| format!("scenario-{ordinal}"), |(_, v)| v);
        let Some((kind_line, kind)) = self.take("kind") else {
            return Err(CampaignError::Spec(format!(
                "scenario `{name}` is missing `kind` (optimize|baseline|sweep|simulate)"
            )));
        };
        let kind = match kind.as_str() {
            "optimize" => ScenarioKind::Optimize,
            "baseline" => {
                let (lineno, objectives) =
                    self.take_either("objectives", "objective").ok_or_else(|| {
                        CampaignError::Spec(format!(
                            "baseline scenario `{name}` needs `objectives = \"r,tm,tmr\"`"
                        ))
                    })?;
                let objectives = axis(
                    lineno,
                    "objectives",
                    split_list(&objectives)
                        .map(|o| Objective::from_keyword(o).map_err(|e| err(lineno, &e))),
                )?;
                ScenarioKind::Baseline { objectives }
            }
            "sweep" => {
                let count = match self.take("count") {
                    Some((lineno, v)) => {
                        let count: usize = v
                            .parse()
                            .map_err(|_| err(lineno, &format!("cannot parse count `{v}`")))?;
                        if count > MAX_SWEEP_COUNT {
                            return Err(err(
                                lineno,
                                &format!("count must be at most {MAX_SWEEP_COUNT}"),
                            ));
                        }
                        count
                    }
                    None => 120,
                };
                let scales = match self.take_either("scales", "scale") {
                    Some((lineno, v)) => parse_u8_list(lineno, "scales", &v)?,
                    None => vec![1],
                };
                ScenarioKind::Sweep { count, scales }
            }
            "simulate" => {
                let Some((s_line, scaling)) = self.take("scaling") else {
                    return Err(CampaignError::Spec(format!(
                        "simulate scenario `{name}` needs `scaling = \"2,2,3,2\"`"
                    )));
                };
                let Some((g_line, groups)) = self.take("groups") else {
                    return Err(CampaignError::Spec(format!(
                        "simulate scenario `{name}` needs `groups = \"0,1|2|3\"`"
                    )));
                };
                let ser = match self.take("ser") {
                    Some((lineno, v)) => {
                        let ser: f64 = v
                            .parse()
                            .map_err(|_| err(lineno, &format!("cannot parse SER `{v}`")))?;
                        if !sea_arch::ser::is_valid_ser(ser) {
                            return Err(err(
                                lineno,
                                "SER must be a rate per bit per cycle in (0, 1]",
                            ));
                        }
                        ser
                    }
                    None => sea_arch::ser::PAPER_SER,
                };
                ScenarioKind::Simulate {
                    scaling: parse_u8_list(s_line, "scaling", &scaling)?,
                    groups: parse_groups(g_line, &groups)?,
                    ser,
                }
            }
            other => {
                return Err(err(
                    kind_line,
                    &format!("unknown kind `{other}` (optimize|baseline|sweep|simulate)"),
                ));
            }
        };

        let Some((a_line, apps)) = self.take_either("apps", "app") else {
            return Err(CampaignError::Spec(format!(
                "scenario `{name}` is missing `apps` (e.g. \"mpeg2, random:60\")"
            )));
        };
        let apps = axis(
            a_line,
            "apps",
            split_list(&apps).map(|s| {
                s.parse::<AppSpec>()
                    .map_err(|e| err(a_line, &e.to_string()))
            }),
        )?;
        let Some((c_line, cores)) = self.take("cores") else {
            return Err(CampaignError::Spec(format!(
                "scenario `{name}` is missing `cores` (e.g. \"2-6\")"
            )));
        };
        let cores = parse_usize_ranges(
            c_line,
            "cores",
            &cores,
            1..=MAX_CORES,
            &format!("core counts must be between 1 and {MAX_CORES}"),
        )?;
        let levels = match self.take("levels") {
            Some((lineno, v)) => {
                parse_usize_ranges(lineno, "levels", &v, 2..=4, "levels must be 2, 3 or 4")?
            }
            None => vec![3],
        };
        let selections = match self.take_either("selections", "selection") {
            Some((lineno, v)) => {
                // Sweep/simulate units never consult the selection
                // policy; accepting an axis here would silently multiply
                // the grid into byte-identical duplicate units.
                if matches!(
                    kind,
                    ScenarioKind::Sweep { .. } | ScenarioKind::Simulate { .. }
                ) {
                    return Err(err(
                        lineno,
                        &format!(
                            "`selections` is not meaningful for kind `{}` (it would only \
                             duplicate units)",
                            kind_label(&kind)
                        ),
                    ));
                }
                axis(
                    lineno,
                    "selections",
                    split_list(&v)
                        .map(|s| SelectionPolicy::from_keyword(s).map_err(|e| err(lineno, &e))),
                )?
            }
            None => vec![SelectionPolicy::PowerGammaProduct],
        };
        let seeds = match self.take("seeds") {
            Some((lineno, v)) => Some(axis(
                lineno,
                "seeds",
                split_list(&v).map(|s| {
                    s.parse::<u64>()
                        .map_err(|_| err(lineno, &format!("cannot parse seed `{s}`")))
                }),
            )?),
            None => None,
        };
        let budget = match self.take("budget") {
            Some((lineno, v)) => Some(BudgetSpec::parse(&v).map_err(|e| at(lineno, &e))?),
            None => None,
        };
        let deadline_scale = match self.take("deadline_scale") {
            Some((lineno, v)) => {
                let f: f64 = v
                    .parse()
                    .map_err(|_| err(lineno, &format!("cannot parse deadline scale `{v}`")))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err(err(lineno, "deadline scale must be finite and positive"));
                }
                Some(f)
            }
            None => None,
        };

        if let Some((lineno, key, _)) = self.keys.first() {
            return Err(err(
                *lineno,
                &format!(
                    "unknown scenario key `{key}` for kind `{}`",
                    kind_label(&kind)
                ),
            ));
        }

        // A simulate design point is fixed-shape; every grid combination
        // it will meet is decidable here. Failing at parse time beats a
        // hard error that aborts the campaign after hours of other units.
        if let ScenarioKind::Simulate {
            scaling, groups, ..
        } = &kind
        {
            for &c in &cores {
                if c != scaling.len() {
                    return Err(err(
                        c_line,
                        &format!(
                            "simulate scenario `{name}`: scaling has {} coefficients but the \
                             cores axis includes {c}",
                            scaling.len()
                        ),
                    ));
                }
                if c != groups.len() {
                    return Err(err(
                        c_line,
                        &format!(
                            "simulate scenario `{name}`: groups defines {} cores but the cores \
                             axis includes {c}",
                            groups.len()
                        ),
                    ));
                }
            }
            let max_coeff = usize::from(*scaling.iter().max().unwrap_or(&1));
            let min_coeff = usize::from(*scaling.iter().min().unwrap_or(&1));
            for &l in &levels {
                if max_coeff > l || min_coeff < 1 {
                    return Err(err(
                        c_line,
                        &format!(
                            "simulate scenario `{name}`: scaling coefficients must lie in 1..={l} \
                             for the {l}-level set"
                        ),
                    ));
                }
            }
        }
        Ok(Scenario {
            name,
            kind,
            apps,
            cores,
            levels,
            selections,
            seeds,
            budget,
            deadline_scale,
        })
    }

    fn take_either(&mut self, plural: &str, singular: &str) -> Option<(usize, String)> {
        self.take(plural).or_else(|| self.take(singular))
    }
}

fn kind_label(kind: &ScenarioKind) -> &'static str {
    match kind {
        ScenarioKind::Optimize => "optimize",
        ScenarioKind::Baseline { .. } => "baseline",
        ScenarioKind::Sweep { .. } => "sweep",
        ScenarioKind::Simulate { .. } => "simulate",
    }
}

fn split_list(value: &str) -> impl Iterator<Item = &str> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Collects the values of a list key, refusing more than [`MAX_UNITS`] as
/// they are added (a grid axis that long takes the campaign over the cap
/// on its own) and refusing a list that parsed to nothing (`seeds = ""`,
/// `apps = ","`), which would silently expand the scenario to zero units.
fn axis<T>(
    lineno: usize,
    what: &str,
    values: impl Iterator<Item = Result<T, CampaignError>>,
) -> Result<Vec<T>, CampaignError> {
    let mut out = Vec::new();
    for value in values {
        if out.len() == MAX_UNITS {
            return Err(too_many(lineno, what));
        }
        out.push(value?);
    }
    if out.is_empty() {
        return Err(err(lineno, &format!("`{what}` lists no values")));
    }
    Ok(out)
}

fn too_many(lineno: usize, what: &str) -> CampaignError {
    err(
        lineno,
        &format!("`{what}` lists more than {MAX_UNITS} values"),
    )
}

fn parse_u8_list(lineno: usize, what: &str, value: &str) -> Result<Vec<u8>, CampaignError> {
    axis(
        lineno,
        what,
        split_list(value).map(|s| {
            s.parse::<u8>()
                .map_err(|_| err(lineno, &format!("cannot parse `{s}` as a coefficient")))
        }),
    )
}

/// Parses `"2,4-6"` into `[2, 4, 5, 6]`, refusing any value outside
/// `domain` with `out_of_domain` and more than [`MAX_UNITS`] values.
/// Both are checked on range endpoints before the range expands, so an
/// oversized range is an error, never an allocation.
fn parse_usize_ranges(
    lineno: usize,
    what: &str,
    value: &str,
    domain: RangeInclusive<usize>,
    out_of_domain: &str,
) -> Result<Vec<usize>, CampaignError> {
    let in_domain = |v: usize| {
        if domain.contains(&v) {
            Ok(v)
        } else {
            Err(err(lineno, out_of_domain))
        }
    };
    let mut out = Vec::new();
    for item in split_list(value) {
        let (lo, hi) = if let Some((lo, hi)) = item.split_once('-') {
            let lo: usize = lo
                .trim()
                .parse()
                .map_err(|_| err(lineno, &format!("cannot parse `{lo}` in range `{item}`")))?;
            let hi: usize = hi
                .trim()
                .parse()
                .map_err(|_| err(lineno, &format!("cannot parse `{hi}` in range `{item}`")))?;
            if hi < lo {
                return Err(err(lineno, &format!("descending range `{item}`")));
            }
            (in_domain(lo)?, in_domain(hi)?)
        } else {
            let v = item
                .parse()
                .map_err(|_| err(lineno, &format!("cannot parse `{item}`")))?;
            (in_domain(v)?, v)
        };
        // `out` never holds more than MAX_UNITS values.
        if hi - lo >= MAX_UNITS - out.len() {
            return Err(too_many(lineno, what));
        }
        out.extend(lo..=hi);
    }
    if out.is_empty() {
        return Err(err(lineno, "empty list"));
    }
    Ok(out)
}

/// Parses a `|`-separated group list like `0,1,2|3|4,5`.
fn parse_groups(lineno: usize, value: &str) -> Result<Vec<Vec<usize>>, CampaignError> {
    value
        .split('|')
        .map(|group| {
            let group = group.trim();
            if group.is_empty() {
                return Ok(Vec::new());
            }
            group
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| err(lineno, &format!("cannot parse task index `{t}`")))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICKSTART: &str = r#"
# demo campaign
name = "quickstart"
budget = "fast"
seed = 100

[scenario]
name = "opt"
kind = "optimize"
apps = "mpeg2, fig8"   # two workloads
cores = "3-4"
levels = "3"

[scenario]
kind = "baseline"
objectives = "tm,tmr"
app = "mpeg2"
cores = "4"
seeds = "7,8"
"#;

    #[test]
    fn parses_and_expands_the_grid() {
        let campaign = parse_campaign(QUICKSTART).unwrap();
        assert_eq!(campaign.name, "quickstart");
        assert_eq!(campaign.base_seed, 100);
        assert_eq!(campaign.scenarios.len(), 2);
        let units = campaign.expand();
        // opt: 2 apps x 2 cores; baseline: 1 app x 1 cores x 2 objectives x 2 seeds.
        assert_eq!(units.len(), 4 + 4);
        assert_eq!(units[0].scenario, "opt");
        assert_eq!(units[7].scenario, "scenario-1");
        // Derived seeds: base + global index for the first scenario...
        assert_eq!(units[0].seed, 100);
        assert_eq!(units[3].seed, 103);
        // ...explicit seed axis for the second.
        assert_eq!(units[4].seed, 7);
        assert_eq!(units[5].seed, 8);
        // Global indices are the enumeration positions.
        for (i, unit) in units.iter().enumerate() {
            assert_eq!(unit.index, i);
        }
    }

    #[test]
    fn range_and_list_syntax() {
        let parse = |v: &str| parse_usize_ranges(1, "values", v, 0..=usize::MAX, "out of domain");
        assert_eq!(parse("2,4-6").unwrap(), vec![2, 4, 5, 6]);
        assert_eq!(parse("3").unwrap(), vec![3]);
        assert!(parse("6-2").is_err());
        assert!(parse("").is_err());
        assert!(parse("x").is_err());
    }

    #[test]
    fn oversized_ranges_are_refused_before_they_expand() {
        let spec = |cores: &str, levels: &str| {
            format!(
                "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"{cores}\"\n\
                 levels = \"{levels}\"\n"
            )
        };
        // Both used to expand first: the first aborted on an 8 TB
        // allocation, the second panicked on capacity overflow.
        let e = parse_campaign(&spec("1-1000000000000", "3"))
            .unwrap_err()
            .to_string();
        assert_eq!(
            e,
            "campaign spec error: line 4: core counts must be between 1 and 64"
        );
        let e = parse_campaign(&spec("4", "2-18446744073709551615"))
            .unwrap_err()
            .to_string();
        assert_eq!(e, "campaign spec error: line 5: levels must be 2, 3 or 4");
        // The domains' edges.
        for (cores, levels) in [
            ("0", "3"),
            ("65", "3"),
            ("0-4", "3"),
            ("4", "1-3"),
            ("4", "5"),
        ] {
            assert!(
                parse_campaign(&spec(cores, levels)).is_err(),
                "{cores} / {levels}"
            );
        }
        let edges = parse_campaign(&spec("1,63-64", "2-4")).unwrap();
        assert_eq!(edges.scenarios[0].cores, vec![1, 63, 64]);
        assert_eq!(edges.scenarios[0].levels, vec![2, 3, 4]);
    }

    #[test]
    fn campaigns_over_the_unit_cap_are_refused_before_they_expand() {
        let numbers = |n: u64| (1..=n).map(|s| s.to_string()).collect::<Vec<_>>().join(",");
        // 100 apps x 64 cores x 3 levels x 3 selections x 1,000 seeds:
        // 57.6 M units, every axis within the cap. Expanding it aborted.
        let grid = format!(
            "name = \"big\"\n[scenario]\nkind = \"optimize\"\napps = \"{}\"\ncores = \"1-64\"\n\
             levels = \"2-4\"\nselections = \"product,power,gamma\"\nseeds = \"{}\"\n",
            ["mpeg2"; 100].join(","),
            numbers(1000),
        );
        let e = parse_campaign(&grid).unwrap_err().to_string();
        assert_eq!(
            e,
            "campaign spec error: line 2: the campaign expands to more than 100000 units"
        );
        // One axis over the cap: 1,563 copies of `1-64` are 100,032 core
        // counts.
        let cores = ["1-64"; 1563].join(",");
        let e = parse_campaign(&format!(
            "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"{cores}\"\n"
        ))
        .unwrap_err()
        .to_string();
        assert_eq!(
            e,
            "campaign spec error: line 4: `cores` lists more than 100000 values"
        );
        // The cap's edge, on one axis and across scenarios.
        let seeds = |n: u64| {
            format!(
                "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\nseeds = \"{}\"\n",
                numbers(n)
            )
        };
        let at_cap = seeds(MAX_UNITS as u64);
        assert_eq!(
            parse_campaign(&at_cap).unwrap().scenarios[0].unit_count(),
            Some(MAX_UNITS)
        );
        let e = parse_campaign(&seeds(MAX_UNITS as u64 + 1))
            .unwrap_err()
            .to_string();
        assert_eq!(
            e,
            "campaign spec error: line 5: `seeds` lists more than 100000 values"
        );
        let e = parse_campaign(&format!("{at_cap}{}", seeds(1)))
            .unwrap_err()
            .to_string();
        assert_eq!(
            e,
            "campaign spec error: line 6: the campaign expands to more than 100000 units"
        );
    }

    #[test]
    fn out_of_domain_sweep_counts_and_sers_are_refused() {
        let sweep = |count: &str| {
            format!(
                "[scenario]\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\ncount = {count}\n"
            )
        };
        // The sweep allocates `count` slots up front: the first count
        // panicked on capacity overflow, the second aborted on a 56 TB
        // allocation.
        for count in ["18446744073709551615", "1000000000000", "10001"] {
            let e = parse_campaign(&sweep(count)).unwrap_err().to_string();
            assert_eq!(
                e, "campaign spec error: line 5: count must be at most 10000",
                "{count}"
            );
        }
        for count in [0, MAX_SWEEP_COUNT] {
            let units = parse_campaign(&sweep(&count.to_string())).unwrap().expand();
            assert!(matches!(units[0].kind, UnitKind::Sweep { count: c, .. } if c == count));
        }

        let simulate = |ser: &str| {
            format!(
                "[scenario]\nkind = \"simulate\"\napps = \"mpeg2\"\ncores = \"4\"\n\
                 scaling = \"2,2,3,2\"\ngroups = \"0,1,2,3,4,5|6,7|8|9,10\"\nser = \"{ser}\"\n"
            )
        };
        // `-1`, `0` and `nan` panicked in the SER calibration, `1e308`
        // and `inf` in the Poisson sampler.
        for ser in ["-1", "0", "nan", "1e308", "inf", "-inf", "1.5"] {
            let e = parse_campaign(&simulate(ser)).unwrap_err().to_string();
            assert_eq!(
                e, "campaign spec error: line 7: SER must be a rate per bit per cycle in (0, 1]",
                "{ser}"
            );
        }
        for ser in ["1", "1e-9", "5e-324"] {
            assert!(parse_campaign(&simulate(ser)).is_ok(), "{ser}");
        }
    }

    #[test]
    fn rejects_unknown_and_duplicate_keys() {
        let unknown = "name = \"x\"\n[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\nfrobnicate = \"1\"\n";
        let e = parse_campaign(unknown).unwrap_err().to_string();
        assert!(e.contains("frobnicate"), "{e}");
        let dup =
            "[scenario]\nkind = \"optimize\"\ncores = \"4\"\ncores = \"2\"\napps = \"mpeg2\"\n";
        let e = parse_campaign(dup).unwrap_err().to_string();
        assert!(e.contains("duplicate") && e.contains("line 4"), "{e}");
        let dup_header = "seed = 1\nseed = 2\n[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n";
        assert!(parse_campaign(dup_header).is_err());
    }

    #[test]
    fn rejects_missing_required_keys_and_bad_values() {
        assert!(parse_campaign("name = \"x\"\n").is_err());
        let no_kind = "[scenario]\napps = \"mpeg2\"\ncores = \"4\"\n";
        assert!(parse_campaign(no_kind)
            .unwrap_err()
            .to_string()
            .contains("kind"));
        let bad_app = "[scenario]\nkind = \"optimize\"\napps = \"h264\"\ncores = \"4\"\n";
        assert!(parse_campaign(bad_app).is_err());
        let bad_levels =
            "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\nlevels = \"7\"\n";
        assert!(parse_campaign(bad_levels).is_err());
        let bad_sel = "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\nselections = \"luck\"\n";
        assert!(parse_campaign(bad_sel).is_err());
    }

    #[test]
    fn empty_grid_axes_are_rejected_not_silently_skipped() {
        // An axis that parses to zero values would expand the scenario to
        // zero units without any signal; every list site must reject it.
        for (key, value) in [
            ("apps", "\",\""),
            ("seeds", "\"\""),
            ("selections", "\" , \""),
        ] {
            let src = format!(
                "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n{key} = {value}\n"
            );
            // `apps` is overridden below when it is the axis under test.
            let src = if key == "apps" {
                format!("[scenario]\nkind = \"optimize\"\ncores = \"4\"\napps = {value}\n")
            } else {
                src
            };
            let e = parse_campaign(&src).unwrap_err().to_string();
            assert!(e.contains("lists no values"), "{key}: {e}");
        }
        let empty_objectives =
            "[scenario]\nkind = \"baseline\"\nobjectives = \"\"\napps = \"mpeg2\"\ncores = \"4\"\n";
        assert!(parse_campaign(empty_objectives).is_err());
        let empty_scales =
            "[scenario]\nkind = \"sweep\"\nscales = \"\"\napps = \"mpeg2\"\ncores = \"4\"\n";
        assert!(parse_campaign(empty_scales).is_err());
    }

    #[test]
    fn simulate_grid_mismatches_fail_at_parse_time() {
        // A fixed 4-core design point with a cores axis spanning 2-4
        // would only explode at run time deep into the campaign.
        let base = |cores: &str, levels: &str| {
            format!(
                "[scenario]\nkind = \"simulate\"\napps = \"mpeg2\"\ncores = \"{cores}\"\n\
                 levels = \"{levels}\"\nscaling = \"2,2,3,2\"\n\
                 groups = \"0,1,2,3,4,5|6,7|8|9,10\"\n"
            )
        };
        assert!(parse_campaign(&base("4", "3")).is_ok());
        let e = parse_campaign(&base("2-4", "3")).unwrap_err().to_string();
        assert!(e.contains("4 coefficients") && e.contains("2"), "{e}");
        // Coefficient 3 does not exist in the 2-level set.
        let e = parse_campaign(&base("4", "2")).unwrap_err().to_string();
        assert!(e.contains("1..=2"), "{e}");
    }

    #[test]
    fn selections_axis_is_rejected_for_non_design_kinds() {
        let sweep = "[scenario]\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\n\
                     selections = \"product,gamma\"\n";
        let e = parse_campaign(sweep).unwrap_err().to_string();
        assert!(e.contains("not meaningful"), "{e}");
        let opt = "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n\
                   selections = \"product,gamma\"\n";
        assert_eq!(parse_campaign(opt).unwrap().expand().len(), 2);
    }

    #[test]
    fn deadline_scale_produces_scaled_app_refs() {
        let src = "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n\
                   deadline_scale = \"0.4\"\n";
        let units = parse_campaign(src).unwrap().expand();
        assert_eq!(units.len(), 1);
        let AppRef::Scaled {
            spec,
            deadline_scale,
        } = &units[0].app
        else {
            panic!("scaled app ref expected, got {:?}", units[0].app);
        };
        assert_eq!(spec.to_string(), "mpeg2");
        assert!((deadline_scale - 0.4).abs() < 1e-12);
        assert_eq!(units[0].app.label(), "mpeg2@d0.4");
        // The built app carries the scaled deadline.
        let app = units[0].app.build().unwrap();
        let base = AppSpec::Mpeg2.build().unwrap();
        assert!((app.deadline_s() - base.deadline_s() * 0.4).abs() < 1e-9);

        for bad in ["0", "-1", "nan", "inf", "x"] {
            let src = format!(
                "[scenario]\nkind = \"optimize\"\napps = \"mpeg2\"\ncores = \"4\"\n\
                 deadline_scale = \"{bad}\"\n"
            );
            assert!(parse_campaign(&src).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn simulate_scenario_parses_design_point() {
        let src = "[scenario]\nkind = \"simulate\"\napps = \"mpeg2\"\ncores = \"4\"\nscaling = \"2,2,3,2\"\ngroups = \"0,1,2,3,4,5|6,7|8|9,10\"\nseeds = \"13\"\n";
        let campaign = parse_campaign(src).unwrap();
        let units = campaign.expand();
        assert_eq!(units.len(), 1);
        let UnitKind::Simulate {
            scaling,
            groups,
            ser,
        } = &units[0].kind
        else {
            panic!("simulate kind expected");
        };
        assert_eq!(scaling, &vec![2, 2, 3, 2]);
        assert_eq!(groups.len(), 4);
        assert!((ser - sea_arch::ser::PAPER_SER).abs() < 1e-18);
    }

    #[test]
    fn comments_and_quotes_are_handled() {
        let src = "name = \"has # hash\"  # trailing\n[scenario]\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\ncount = 12\nscales = \"1,2\"\n";
        let campaign = parse_campaign(src).unwrap();
        assert_eq!(campaign.name, "has # hash");
        let units = campaign.expand();
        assert_eq!(units.len(), 2);
        let UnitKind::Sweep { count, scale } = units[1].kind else {
            panic!("sweep kind expected");
        };
        assert_eq!((count, scale), (12, 2));
    }
}
