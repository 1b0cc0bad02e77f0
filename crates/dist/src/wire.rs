//! The canonical unit encoding dispatched over the wire, plus the
//! work/result/error frame bodies.
//!
//! A coordinator ships each unit to workers as *content*, not as a
//! reference: textual [`AppSpec`] workloads travel as their canonical
//! spec string, and harness-built inline applications travel fully
//! inlined (name, execution mode, deadline, every task, every edge, the
//! complete register-sharing model) — exactly the fields the unit's
//! content hash covers, so a worker can recompute
//! [`sea_campaign::unit_hash`] over the decoded unit and refuse a
//! dispatch whose hash disagrees (the cross-build drift guard; see
//! [`decode_work`]).
//!
//! The token format is [`sea_opt::codec`]'s: whitespace-separated tokens,
//! floats as 16-hex-digit IEEE-754 bit patterns. Strings are carried as
//! `x`-prefixed hex of their UTF-8 bytes so any content (spaces,
//! newlines, quotes) stays a single token.

use std::fmt::Write as _;
use std::sync::Arc;

use sea_campaign::{unit_hash, AppRef, BudgetSpec, ContentHash, Unit, UnitKind};
use sea_opt::codec::{self, CodecError, Tokens};
use sea_opt::SelectionPolicy;
use sea_taskgraph::{
    AppSpec, Application, Bits, Cycles, ExecutionMode, RegisterModelBuilder, TaskGraphBuilder,
    TaskId,
};

/// Unit-encoding version (bump on any canonical-encoding change so a
/// mixed-version fleet refuses work instead of silently misreading it).
/// It also guards the result entry a worker returns
/// ([`sea_campaign::encode_result`]): a worker from another build refuses
/// its first work item instead of sending results the coordinator cannot
/// verify.
/// v2: the `scaled` app-ref production (campaign `deadline_scale`).
/// v3: simulate results carry the simulation summary only.
pub const WIRE_VERSION: u32 = 3;

fn err(msg: impl Into<String>) -> CodecError {
    CodecError(msg.into())
}

/// Appends a string as one `x`-prefixed hex token.
fn push_str(out: &mut String, s: &str) {
    let mut tok = String::with_capacity(1 + 2 * s.len());
    tok.push('x');
    for b in s.bytes() {
        let _ = write!(tok, "{b:02x}");
    }
    codec::push_tok(out, &tok);
}

/// Parses one `x`-prefixed hex token back into a string.
fn next_str(t: &mut Tokens<'_>) -> Result<String, CodecError> {
    let tok = t.next_tok()?;
    let hex = tok
        .strip_prefix('x')
        .ok_or_else(|| err(format!("expected a string token, got `{tok}`")))?;
    if hex.len() % 2 != 0 {
        return Err(err(format!("odd-length string token `{tok}`")));
    }
    let bytes: Result<Vec<u8>, _> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
        .collect();
    let bytes = bytes.map_err(|_| err(format!("bad hex in string token `{tok}`")))?;
    String::from_utf8(bytes).map_err(|_| err(format!("non-UTF-8 string token `{tok}`")))
}

fn push_selection(out: &mut String, s: SelectionPolicy) {
    match s {
        SelectionPolicy::PowerGammaProduct => codec::push_u64(out, 0),
        SelectionPolicy::PowerFirst { tolerance } => {
            codec::push_u64(out, 1);
            codec::push_f64(out, tolerance);
        }
        SelectionPolicy::Weighted { w_power } => {
            codec::push_u64(out, 2);
            codec::push_f64(out, w_power);
        }
        SelectionPolicy::GammaFirst => codec::push_u64(out, 3),
    }
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
        other => Err(err(format!("unknown selection tag {other}"))),
    }
}

fn objective_keyword(o: sea_baselines::Objective) -> &'static str {
    match o {
        sea_baselines::Objective::RegisterUsage => "r",
        sea_baselines::Objective::Parallelism => "tm",
        sea_baselines::Objective::RegTimeProduct => "tmr",
    }
}

fn parse_objective(s: &str) -> Result<sea_baselines::Objective, CodecError> {
    match s {
        "r" => Ok(sea_baselines::Objective::RegisterUsage),
        "tm" => Ok(sea_baselines::Objective::Parallelism),
        "tmr" => Ok(sea_baselines::Objective::RegTimeProduct),
        other => Err(err(format!("unknown objective `{other}`"))),
    }
}

fn push_kind(out: &mut String, kind: &UnitKind) {
    match kind {
        UnitKind::Optimize => codec::push_tok(out, "optimize"),
        UnitKind::Baseline(objective) => {
            codec::push_tok(out, "baseline");
            codec::push_tok(out, objective_keyword(*objective));
        }
        UnitKind::Sweep { count, scale } => {
            codec::push_tok(out, "sweep");
            codec::push_u64(out, *count as u64);
            codec::push_u64(out, u64::from(*scale));
        }
        UnitKind::Simulate {
            scaling,
            groups,
            ser,
        } => {
            codec::push_tok(out, "simulate");
            codec::push_u64(out, scaling.len() as u64);
            for &c in scaling {
                codec::push_u64(out, u64::from(c));
            }
            codec::push_u64(out, groups.len() as u64);
            for group in groups {
                codec::push_u64(out, group.len() as u64);
                for &t in group {
                    codec::push_u64(out, t as u64);
                }
            }
            codec::push_f64(out, *ser);
        }
    }
}

fn next_kind(t: &mut Tokens<'_>) -> Result<UnitKind, CodecError> {
    match t.next_tok()? {
        "optimize" => Ok(UnitKind::Optimize),
        "baseline" => Ok(UnitKind::Baseline(parse_objective(t.next_tok()?)?)),
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
        other => Err(err(format!("unknown unit kind `{other}`"))),
    }
}

/// Canonical encoding of a full application — the same field set the
/// content hash covers, plus the graph's own name and the exact execution
/// mode (the hash only folds `iterations`).
fn push_application(out: &mut String, app: &Application) {
    push_str(out, app.name());
    match app.mode() {
        ExecutionMode::Batch => codec::push_u64(out, 0),
        ExecutionMode::Pipelined { iterations } => {
            codec::push_u64(out, 1);
            codec::push_u64(out, u64::from(iterations));
        }
    }
    codec::push_f64(out, app.deadline_s());
    let g = app.graph();
    push_str(out, g.name());
    codec::push_u64(out, g.len() as u64);
    for task in g.tasks() {
        push_str(out, task.name());
        codec::push_u64(out, task.computation().as_u64());
    }
    codec::push_u64(out, g.edges().len() as u64);
    for e in g.edges() {
        codec::push_u64(out, e.src.index() as u64);
        codec::push_u64(out, e.dst.index() as u64);
        codec::push_u64(out, e.comm.as_u64());
    }
    let m = app.registers();
    codec::push_u64(out, m.blocks().len() as u64);
    for block in m.blocks() {
        push_str(out, block.name());
        codec::push_u64(out, block.bits().as_u64());
    }
    for task_index in 0..m.n_tasks() {
        let blocks = m.task_blocks(TaskId::new(task_index));
        codec::push_u64(out, blocks.len() as u64);
        for b in blocks {
            codec::push_u64(out, b.index() as u64);
        }
    }
}

fn next_application(t: &mut Tokens<'_>) -> Result<Application, CodecError> {
    let name = next_str(t)?;
    let mode = match t.next_u64()? {
        0 => ExecutionMode::Batch,
        1 => ExecutionMode::Pipelined {
            iterations: t.next_u32()?,
        },
        other => return Err(err(format!("unknown execution-mode tag {other}"))),
    };
    let deadline_s = t.next_f64()?;
    let graph_name = next_str(t)?;
    let n_tasks = t.next_usize()?;
    let mut builder = TaskGraphBuilder::new(graph_name);
    for _ in 0..n_tasks {
        let task_name = next_str(t)?;
        builder.add_task(task_name, Cycles::new(t.next_u64()?));
    }
    let n_edges = t.next_usize()?;
    for _ in 0..n_edges {
        let src = TaskId::new(t.next_usize()?);
        let dst = TaskId::new(t.next_usize()?);
        let comm = Cycles::new(t.next_u64()?);
        builder
            .add_edge(src, dst, comm)
            .map_err(|e| err(format!("bad edge: {e}")))?;
    }
    let graph = builder
        .build()
        .map_err(|e| err(format!("bad graph: {e}")))?;
    let mut registers = RegisterModelBuilder::new(n_tasks);
    let n_blocks = t.next_usize()?;
    let mut block_ids = Vec::with_capacity(n_blocks.min(4096));
    for _ in 0..n_blocks {
        let block_name = next_str(t)?;
        block_ids.push(registers.add_block(block_name, Bits::new(t.next_u64()?)));
    }
    for task_index in 0..n_tasks {
        let n = t.next_usize()?;
        for _ in 0..n {
            let b = t.next_usize()?;
            let &id = block_ids
                .get(b)
                .ok_or_else(|| err(format!("register block {b} out of range")))?;
            registers
                .assign(TaskId::new(task_index), id)
                .map_err(|e| err(format!("bad register assignment: {e}")))?;
        }
    }
    Application::new(name, graph, registers.build(), mode, deadline_s)
        .map_err(|e| err(format!("bad application: {e}")))
}

fn push_app_ref(out: &mut String, app: &AppRef) {
    match app {
        AppRef::Spec(spec) => {
            codec::push_tok(out, "spec");
            push_str(out, &spec.to_string());
        }
        AppRef::Inline(app) => {
            codec::push_tok(out, "inline");
            push_application(out, app);
        }
        AppRef::Scaled {
            spec,
            deadline_scale,
        } => {
            codec::push_tok(out, "scaled");
            push_str(out, &spec.to_string());
            codec::push_f64(out, *deadline_scale);
        }
    }
}

fn next_app_ref(t: &mut Tokens<'_>) -> Result<AppRef, CodecError> {
    match t.next_tok()? {
        "spec" => {
            let text = next_str(t)?;
            let spec: AppSpec = text
                .parse()
                .map_err(|e| err(format!("bad app spec `{text}`: {e}")))?;
            Ok(AppRef::Spec(spec))
        }
        "inline" => Ok(AppRef::Inline(Arc::new(next_application(t)?))),
        "scaled" => {
            let text = next_str(t)?;
            let spec: AppSpec = text
                .parse()
                .map_err(|e| err(format!("bad app spec `{text}`: {e}")))?;
            Ok(AppRef::Scaled {
                spec,
                deadline_scale: t.next_f64()?,
            })
        }
        other => Err(err(format!("unknown app tag `{other}`"))),
    }
}

/// Encodes one unit canonically.
#[must_use]
pub fn encode_unit(unit: &Unit) -> String {
    let mut out = String::with_capacity(256);
    codec::push_tok(&mut out, "unit");
    codec::push_u64(&mut out, u64::from(WIRE_VERSION));
    codec::push_u64(&mut out, unit.index as u64);
    push_str(&mut out, &unit.scenario);
    push_kind(&mut out, &unit.kind);
    push_app_ref(&mut out, &unit.app);
    codec::push_u64(&mut out, unit.cores as u64);
    codec::push_u64(&mut out, unit.levels as u64);
    codec::push_tok(&mut out, unit.budget.keyword());
    push_selection(&mut out, unit.selection);
    codec::push_u64(&mut out, unit.seed);
    out
}

/// Decodes one unit.
///
/// # Errors
///
/// [`CodecError`] for malformed input, unknown tags, or a wire version
/// this build does not speak.
pub fn decode_unit(source: &str) -> Result<Unit, CodecError> {
    let mut t = Tokens::new(source);
    t.expect("unit")?;
    let version = t.next_u32()?;
    if version != WIRE_VERSION {
        return Err(err(format!(
            "unit wire version skew: stream has {version}, this build reads {WIRE_VERSION}"
        )));
    }
    let index = t.next_usize()?;
    let scenario = next_str(&mut t)?;
    let kind = next_kind(&mut t)?;
    let app = next_app_ref(&mut t)?;
    let cores = t.next_usize()?;
    let levels = t.next_usize()?;
    let budget_keyword = t.next_tok()?;
    let budget = BudgetSpec::parse(budget_keyword).map_err(|e| err(format!("bad budget: {e}")))?;
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

/// Encodes a [`FrameKind::Work`](crate::frame::FrameKind::Work) body: the
/// enumeration index, the unit's content hash, and the canonical unit.
#[must_use]
pub fn encode_work(index: usize, hash: ContentHash, unit: &Unit) -> String {
    let mut out = String::with_capacity(256);
    codec::push_u64(&mut out, index as u64);
    codec::push_tok(&mut out, &hash.to_hex());
    out.push('\n');
    out.push_str(&encode_unit(unit));
    out
}

/// Decodes a work body and enforces the drift guard: the recomputed
/// content hash of the decoded unit must equal the dispatched hash, or
/// the two builds disagree on what the unit *is* and the worker must
/// refuse rather than silently compute something else.
///
/// # Errors
///
/// [`CodecError`] for malformed bodies or a hash mismatch.
pub fn decode_work(source: &str) -> Result<(usize, ContentHash, Unit), CodecError> {
    let (head, unit_src) = source
        .split_once('\n')
        .ok_or_else(|| err("work body has no unit line"))?;
    let mut t = Tokens::new(head);
    let index = t.next_usize()?;
    let hash = ContentHash::parse_hex(t.next_tok()?)
        .ok_or_else(|| err("malformed unit hash in work body"))?;
    t.finish()?;
    let unit = decode_unit(unit_src)?;
    let recomputed = unit_hash(&unit);
    if recomputed != hash {
        return Err(err(format!(
            "unit hash drift: dispatched {}, decoded unit hashes to {} — refusing the work item",
            hash.to_hex(),
            recomputed.to_hex()
        )));
    }
    Ok((index, hash, unit))
}

/// Encodes a [`FrameKind::Result`](crate::frame::FrameKind::Result)
/// body: index, unit hash, then the exact [`sea_campaign::encode_result`]
/// bytes (the cache-entry format, checksum and all).
#[must_use]
pub fn encode_result_body(index: usize, hash: ContentHash, entry: &str) -> String {
    let mut out = String::with_capacity(entry.len() + 64);
    codec::push_u64(&mut out, index as u64);
    codec::push_tok(&mut out, &hash.to_hex());
    out.push('\n');
    out.push_str(entry);
    out
}

/// Splits a result body into index, claimed unit hash and the raw entry
/// bytes. The entry itself is *not* trusted here — the coordinator
/// verifies it against the unit at `index` with
/// [`sea_campaign::decode_result`], which checks the embedded hash and
/// content checksum.
///
/// # Errors
///
/// [`CodecError`] for malformed headers.
pub fn decode_result_body(source: &str) -> Result<(usize, ContentHash, &str), CodecError> {
    let (head, entry) = source
        .split_once('\n')
        .ok_or_else(|| err("result body has no entry"))?;
    let mut t = Tokens::new(head);
    let index = t.next_usize()?;
    let hash = ContentHash::parse_hex(t.next_tok()?)
        .ok_or_else(|| err("malformed unit hash in result body"))?;
    t.finish()?;
    Ok((index, hash, entry))
}

/// Encodes a [`FrameKind::WorkError`](crate::frame::FrameKind::WorkError)
/// body: the enumeration index plus the error message.
#[must_use]
pub fn encode_work_error(index: usize, message: &str) -> String {
    let mut out = String::new();
    codec::push_u64(&mut out, index as u64);
    push_str(&mut out, message);
    out
}

/// Decodes a work-error body.
///
/// # Errors
///
/// [`CodecError`] for malformed bodies.
pub fn decode_work_error(source: &str) -> Result<(usize, String), CodecError> {
    let mut t = Tokens::new(source);
    let index = t.next_usize()?;
    let message = next_str(&mut t)?;
    t.finish()?;
    Ok((index, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_campaign::parse_campaign;

    fn sample_units() -> Vec<Unit> {
        let mut units = parse_campaign(
            "name = \"wire\"\nbudget = \"fast\"\n\
             [scenario]\nkind = \"optimize\"\napps = \"mpeg2, fig8, random:12:9\"\ncores = \"3-4\"\n\
             [scenario]\nkind = \"baseline\"\nobjectives = \"r,tm,tmr\"\napps = \"mpeg2\"\ncores = \"4\"\n\
             [scenario]\nkind = \"sweep\"\napps = \"mpeg2\"\ncores = \"4\"\ncount = 7\nscales = \"2\"\n",
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
            assert_eq!(unit_hash(&unit), unit_hash(&back));
            assert_eq!(unit.index, back.index);
            assert_eq!(unit.scenario, back.scenario);
            // Stable golden form: re-encoding is byte-identical.
            assert_eq!(encoded, encode_unit(&back));
        }
    }

    #[test]
    fn inline_applications_rebuild_exactly() {
        let app = Arc::new(AppSpec::Mpeg2.build().unwrap());
        let mut out = String::new();
        push_application(&mut out, &app);
        let back = next_application(&mut Tokens::new(&out)).unwrap();
        assert_eq!(*app, back);
    }

    #[test]
    fn work_bodies_verify_the_hash_drift_guard() {
        let unit = sample_units().remove(0);
        let hash = unit_hash(&unit);
        let body = encode_work(3, hash, &unit);
        let (index, got_hash, got_unit) = decode_work(&body).unwrap();
        assert_eq!(index, 3);
        assert_eq!(got_hash, hash);
        assert_eq!(unit_hash(&got_unit), hash);
        // Flip the dispatched hash: the drift guard must refuse.
        let wrong = ContentHash(hash.0 ^ 1);
        let body = encode_work(3, wrong, &unit);
        let e = decode_work(&body).unwrap_err();
        assert!(e.to_string().contains("drift"), "{e}");
    }

    #[test]
    fn malformed_wire_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "unit",
            "unit 999 0 x",
            "unit 1 0 x optimize spec x6d70656732 4 3 fast 0", // truncated (no seed)
            "unit 1 0 x optimize spec xzz 4 3 fast 0 5",       // bad hex
            "unit 1 0 x optimize spec x6d70656732 4 3 leisurely 0 5",
            "unit 1 0 y0 optimize spec x6d70656732 4 3 fast 0 5", // bad string token
            "unit 1 0 x frobnicate",
        ] {
            assert!(decode_unit(bad).is_err(), "`{bad}`");
        }
        assert!(decode_work("no newline here").is_err());
        assert!(decode_work("notanumber deadbeef\nunit 1").is_err());
        assert!(decode_result_body("3").is_err());
        assert!(decode_work_error("3 not-a-string").is_err());

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
    fn work_error_bodies_round_trip() {
        let body = encode_work_error(7, "scheduler exploded: \"cycle\"\nsecond line");
        let (index, message) = decode_work_error(&body).unwrap();
        assert_eq!(index, 7);
        assert!(message.contains("second line"));
    }
}
