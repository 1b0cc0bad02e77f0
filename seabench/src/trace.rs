//! The traced run's recorder: spans kept in memory around the
//! benchmark's own calls into each layer, written out once at exit,
//! plus the per-layer self-time table.
//!
//! A span has a name (`<layer>.<call>`), start and end (ns since the run
//! began), the span that caused it, the run id and a width: how many of
//! the run's `jobs` threads the call keeps busy (1 for a serial call,
//! `jobs` for the pool). Self time is `width × duration` minus the child
//! spans' own `width × duration`, so the capacity a serial call leaves
//! unused stays on its parent's line as idle, never dropped.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub width: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Nanoseconds spent recording spans: the tracer's own cost.
static BOOKKEEPING_NS: AtomicU64 = AtomicU64::new(0);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        t0: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// Turns recording on or off for the rest of the run.
pub fn set_enabled(on: bool) {
    recorder();
    ON.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(recorder().t0).as_nanos() as u64
}

/// An open span; recorded when dropped. Inert when tracing is off.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    width: usize,
    live: bool,
}

impl Guard {
    pub fn id(&self) -> Option<u64> {
        self.live.then_some(self.id)
    }
}

/// Opens a span of `width` busy threads, child of this thread's
/// innermost open span.
pub fn span(name: &'static str, width: usize) -> Guard {
    if !enabled() {
        return Guard {
            id: 0,
            parent: None,
            name,
            start: Instant::now(),
            width,
            live: false,
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    Guard {
        id,
        parent,
        name,
        start: Instant::now(),
        width,
        live: true,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        let end = Instant::now();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&self.id) {
                s.pop();
            }
        });
        push(self.id, self.parent, self.name, self.start, end, self.width);
    }
}

/// Records a finished span with an explicit parent (calls timed on
/// helper threads, e.g. the replay pass).
pub fn record(name: &str, parent: Option<u64>, start: Instant, end: Instant) {
    if enabled() {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        push(id, parent, name, start, end, 1);
    }
}

fn push(id: u64, parent: Option<u64>, name: &str, start: Instant, end: Instant, width: usize) {
    let t = Instant::now();
    let span = Span {
        id,
        parent,
        name: name.to_string(),
        start_ns: ns(start),
        end_ns: ns(end),
        width,
    };
    if let Ok(mut spans) = recorder().spans.lock() {
        spans.push(span);
    }
    BOOKKEEPING_NS.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Seconds spent recording spans so far.
pub fn bookkeeping_s() -> f64 {
    BOOKKEEPING_NS.load(Ordering::Relaxed) as f64 * 1e-9
}

/// Every span recorded so far, in completion order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .map(|s| s.clone())
        .unwrap_or_default()
}

/// Per span name: `(count, width × duration, self time)` in seconds. A
/// phase span as wide as the run's capacity keeps, as self time, the
/// capacity its (narrower) children leave unused.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, (usize, f64, f64)> {
    let mut child_busy: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_busy.entry(p).or_default() += s.width as f64 * s.secs();
        }
    }
    let mut table: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let busy = s.width as f64 * s.secs();
        let own = busy - child_busy.get(&s.id).copied().unwrap_or(0.0);
        let row = table.entry(s.name.clone()).or_default();
        row.0 += 1;
        row.1 += busy;
        row.2 += own;
    }
    table
}

/// Writes the spans as JSON lines: name, start, end, parent, run id.
pub fn write_span_file(
    path: &std::path::Path,
    run_id: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"run\":\"{run_id}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"width\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            s.width
        );
    }
    std::fs::write(path, out)
}

/// Total duration of the spans called `name`, seconds.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}

/// The share of the `parent` spans' `lanes × duration` that their
/// direct children cover — what the named spans attribute of the
/// timed phase.
pub fn coverage(spans: &[Span], parent: &str, lanes: usize) -> f64 {
    let ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    let whole = total(spans, parent) * lanes as f64;
    let covered: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| ids.contains(&p)))
        .map(Span::secs)
        .sum();
    if whole > 0.0 {
        covered / whole
    } else {
        0.0
    }
}
