//! Streaming result sinks and deterministic final reports.
//!
//! A [`Sink`] observes a campaign twice: [`Sink::unit_completed`] fires
//! per unit in *completion* order (useful for progress; nondeterministic
//! under `jobs > 1`), and [`Sink::finish`] receives the full record list
//! in *enumeration* order. The bundled sinks therefore split their two
//! outputs: progress lines go to one writer (the CLI wires stderr) and
//! the final report to another (stdout) — so a campaign's stdout is
//! byte-identical for every worker count, which
//! `tests/determinism.rs` pins.
//!
//! The report renderers ([`human_report`], [`csv_report`],
//! [`jsonl_report`]) are pure functions of the record list, usable
//! without a sink.
//!
//! Progress streams are **flushed after every record**: a campaign killed
//! mid-run leaves at most the in-flight unit unwritten, so a progress
//! JSONL stream (or the write-ahead journal built on the same records,
//! [`crate::journal`]) is always a parseable prefix.

use std::fmt::Write as _;
use std::io::Write;

use crate::unit::UnitRecord;

/// Observer of campaign progress and results.
pub trait Sink {
    /// Called once before the first unit runs.
    fn begin(&mut self, _total: usize) {}
    /// Called per unit as it completes (completion order).
    fn unit_completed(&mut self, _record: &UnitRecord) {}
    /// Called once with every record in enumeration order.
    fn finish(&mut self, _records: &[UnitRecord]) {}
    /// Appends the aggregate sections ([`crate::analytics`]) after the
    /// per-unit report. Opt-in and separate from [`Sink::finish`] so the
    /// default per-unit output stays byte-stable; the bundled sinks
    /// render to the same report writer (errors surface through
    /// [`Sink::take_io_error`]). The default is a no-op.
    fn report_aggregates(&mut self, _records: &[UnitRecord]) {}
    /// The first I/O error the sink swallowed while writing the *final
    /// report*, if any. Sinks buffer the error rather than failing
    /// mid-campaign; callers that need a complete report check this
    /// after the run — a truncated report on a full disk must not exit
    /// 0. Progress-stream failures (a closed stderr consumer) are
    /// deliberately excluded: losing progress lines must not fail a
    /// campaign whose report was written intact.
    fn take_io_error(&mut self) -> Option<std::io::Error> {
        None
    }
}

/// Discards everything (library callers that only want the results).
pub struct NullSink;

impl Sink for NullSink {}

/// Human-readable sink: one-line progress per completion, aligned table
/// at the end.
pub struct HumanSink<P: Write, F: Write> {
    progress: P,
    report: F,
    total: usize,
    done: usize,
    report_error: Option<std::io::Error>,
}

impl<P: Write, F: Write> HumanSink<P, F> {
    /// Creates a sink streaming progress to `progress` and the final
    /// table to `report`.
    pub fn new(progress: P, report: F) -> Self {
        HumanSink {
            progress,
            report,
            total: 0,
            done: 0,
            report_error: None,
        }
    }
}

/// Keeps the first report-writer failure. Progress-stream writes are
/// fire-and-forget (`let _ =`): a dead stderr consumer must not fail a
/// campaign whose stdout report was written intact.
fn record_io(slot: &mut Option<std::io::Error>, result: std::io::Result<()>) {
    if let (None, Err(e)) = (&slot, result) {
        *slot = Some(e);
    }
}

impl<P: Write, F: Write> Sink for HumanSink<P, F> {
    fn begin(&mut self, total: usize) {
        self.total = total;
        self.done = 0;
        let _ = writeln!(self.progress, "campaign: {total} units");
        let _ = self.progress.flush();
    }

    fn unit_completed(&mut self, record: &UnitRecord) {
        self.done += 1;
        let _ = writeln!(
            self.progress,
            "[{}/{}] #{} {} {} cores={} {}",
            self.done,
            self.total,
            record.index,
            record.kind,
            record.app,
            record.cores,
            record.status
        );
        let _ = self.progress.flush();
    }

    fn finish(&mut self, records: &[UnitRecord]) {
        let r = write!(self.report, "{}", human_report(records)).and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn report_aggregates(&mut self, records: &[UnitRecord]) {
        let r = write!(
            self.report,
            "{}",
            crate::analytics::human_aggregates(records)
        )
        .and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn take_io_error(&mut self) -> Option<std::io::Error> {
        self.report_error.take()
    }
}

/// CSV sink: progress lines per completion, full CSV report at the end.
pub struct CsvSink<P: Write, F: Write> {
    progress: P,
    report: F,
    report_error: Option<std::io::Error>,
}

impl<P: Write, F: Write> CsvSink<P, F> {
    /// Creates a sink streaming per-unit CSV rows to `progress` and the
    /// ordered report (header + rows) to `report`.
    pub fn new(progress: P, report: F) -> Self {
        CsvSink {
            progress,
            report,
            report_error: None,
        }
    }
}

impl<P: Write, F: Write> Sink for CsvSink<P, F> {
    fn begin(&mut self, _total: usize) {
        let _ = writeln!(self.progress, "{CSV_HEADER}");
        let _ = self.progress.flush();
    }

    fn unit_completed(&mut self, record: &UnitRecord) {
        let _ = writeln!(self.progress, "{}", csv_row(record));
        let _ = self.progress.flush();
    }

    fn finish(&mut self, records: &[UnitRecord]) {
        let r = write!(self.report, "{}", csv_report(records)).and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn report_aggregates(&mut self, records: &[UnitRecord]) {
        let r = write!(self.report, "{}", crate::analytics::csv_aggregates(records))
            .and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn take_io_error(&mut self) -> Option<std::io::Error> {
        self.report_error.take()
    }
}

/// JSONL sink: one JSON object per completion, ordered JSONL report at
/// the end.
pub struct JsonlSink<P: Write, F: Write> {
    progress: P,
    report: F,
    report_error: Option<std::io::Error>,
}

impl<P: Write, F: Write> JsonlSink<P, F> {
    /// Creates a sink streaming per-unit JSON lines to `progress` and the
    /// ordered report to `report`.
    pub fn new(progress: P, report: F) -> Self {
        JsonlSink {
            progress,
            report,
            report_error: None,
        }
    }
}

impl<P: Write, F: Write> Sink for JsonlSink<P, F> {
    fn unit_completed(&mut self, record: &UnitRecord) {
        let _ = writeln!(self.progress, "{}", json_record(record));
        let _ = self.progress.flush();
    }

    fn finish(&mut self, records: &[UnitRecord]) {
        let r = write!(self.report, "{}", jsonl_report(records)).and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn report_aggregates(&mut self, records: &[UnitRecord]) {
        let r = write!(
            self.report,
            "{}",
            crate::analytics::jsonl_aggregates(records)
        )
        .and_then(|()| self.report.flush());
        record_io(&mut self.report_error, r);
    }

    fn take_io_error(&mut self) -> Option<std::io::Error> {
        self.report_error.take()
    }
}

/// The CSV column set, stable across formats.
pub const CSV_HEADER: &str = "index,scenario,kind,app,cores,levels,seed,status,power_mw,gamma,\
tm_seconds,r_kbits,evaluations,scaling,mapping,experienced_seus";

fn fmt_opt_f64(v: Option<f64>) -> String {
    // Non-finite values render as an empty field, mirroring
    // `json_field_f64`'s `null`: `NaN`/`inf` are absent measurements,
    // and printing them verbatim would diverge from the JSONL report.
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        Some(_) | None => String::new(),
    }
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(String::new, |x| x.to_string())
}

pub(crate) fn csv_escape(s: &str) -> String {
    // RFC 4180: quote on separators, quotes, and CR/LF — an unquoted
    // newline would split one field across two rows.
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn csv_row(r: &UnitRecord) -> String {
    [
        r.index.to_string(),
        csv_escape(&r.scenario),
        csv_escape(&r.kind),
        csv_escape(&r.app),
        r.cores.to_string(),
        r.levels.to_string(),
        r.seed.to_string(),
        r.status.to_string(),
        fmt_opt_f64(r.power_mw),
        fmt_opt_f64(r.gamma),
        fmt_opt_f64(r.tm_seconds),
        fmt_opt_f64(r.r_kbits),
        r.evaluations.map_or_else(String::new, |e| e.to_string()),
        csv_escape(r.scaling.as_deref().unwrap_or("")),
        csv_escape(r.mapping.as_deref().unwrap_or("")),
        fmt_opt_u64(r.experienced_seus),
    ]
    .join(",")
}

/// Renders the enumeration-order CSV report (header + one row per unit).
#[must_use]
pub fn csv_report(records: &[UnitRecord]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&csv_row(r));
        out.push('\n');
    }
    out
}

/// Escapes `s` for the inside of a JSON string literal: quotes,
/// backslashes and every control character.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_json_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` escaped as [`json_escape`] does. Runs with
/// nothing to escape are copied whole; every escaped character is
/// ASCII, so the scan can go byte by byte.
fn push_json_escaped(out: &mut String, s: &str) {
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean..i]);
        clean = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean..]);
}

pub(crate) fn json_field_f64(out: &mut String, key: &str, v: Option<f64>) {
    match v {
        // `{v}` is Rust's shortest round-trip float form — stable, locale
        // free, and valid JSON for every finite value.
        Some(v) if v.is_finite() => {
            let _ = write!(out, ",\"{key}\":{v}");
        }
        Some(_) | None => {
            let _ = write!(out, ",\"{key}\":null");
        }
    }
}

/// Rendered length of a typical record, for pre-sizing buffers.
const RECORD_BYTES: usize = 384;

/// Renders one record as a single-line JSON object with a fixed key
/// order.
#[must_use]
pub fn json_record(r: &UnitRecord) -> String {
    let mut out = String::with_capacity(RECORD_BYTES);
    push_json_record(&mut out, r);
    out
}

/// Appends [`json_record`]'s rendering of `r` to `out`.
fn push_json_record(out: &mut String, r: &UnitRecord) {
    let _ = write!(out, "{{\"index\":{},\"scenario\":\"", r.index);
    push_json_escaped(out, &r.scenario);
    out.push_str("\",\"kind\":\"");
    push_json_escaped(out, &r.kind);
    out.push_str("\",\"app\":\"");
    push_json_escaped(out, &r.app);
    let _ = write!(
        out,
        "\",\"cores\":{},\"levels\":{},\"seed\":{},\"status\":\"{}\"",
        r.cores, r.levels, r.seed, r.status,
    );
    json_field_f64(out, "power_mw", r.power_mw);
    json_field_f64(out, "gamma", r.gamma);
    json_field_f64(out, "tm_seconds", r.tm_seconds);
    json_field_f64(out, "r_kbits", r.r_kbits);
    match r.evaluations {
        Some(e) => {
            let _ = write!(out, ",\"evaluations\":{e}");
        }
        None => out.push_str(",\"evaluations\":null"),
    }
    for (key, text) in [(",\"scaling\":", &r.scaling), (",\"mapping\":", &r.mapping)] {
        out.push_str(key);
        match text {
            Some(text) => {
                out.push('"');
                push_json_escaped(out, text);
                out.push('"');
            }
            None => out.push_str("null"),
        }
    }
    match r.experienced_seus {
        Some(n) => {
            let _ = write!(out, ",\"experienced_seus\":{n}");
        }
        None => out.push_str(",\"experienced_seus\":null"),
    }
    out.push('}');
}

/// Renders the enumeration-order JSONL report (one object per line).
#[must_use]
pub fn jsonl_report(records: &[UnitRecord]) -> String {
    let mut out = String::with_capacity(records.len() * (RECORD_BYTES + 1));
    for r in records {
        push_json_record(&mut out, r);
        out.push('\n');
    }
    out
}

/// Renders the enumeration-order human table.
#[must_use]
pub fn human_report(records: &[UnitRecord]) -> String {
    let header = [
        "#", "scenario", "kind", "app", "cores", "levels", "status", "P (mW)", "Gamma", "TM (s)",
        "evals",
    ];
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(records.len());
    for r in records {
        rows.push(vec![
            r.index.to_string(),
            r.scenario.clone(),
            r.kind.clone(),
            r.app.clone(),
            r.cores.to_string(),
            r.levels.to_string(),
            r.status.to_string(),
            r.power_mw.map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            r.gamma.map_or_else(|| "-".into(), |v| format!("{v:.3e}")),
            r.tm_seconds
                .map_or_else(|| "-".into(), |v| format!("{v:.4}")),
            r.evaluations.map_or_else(|| "-".into(), |e| e.to_string()),
        ]);
    }
    ascii_table(&header, &rows)
}

/// Renders an aligned `|`-delimited ASCII table — shared by the per-unit
/// human report and the aggregate sections ([`crate::analytics`]).
pub(crate) fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize], out: &mut String| {
        out.push('|');
        for (cell, w) in cells.iter().zip(widths) {
            let _ = write!(out, " {cell:<w$} |");
        }
        out.push('\n');
    };
    let header: Vec<String> = header.iter().map(|s| (*s).to_string()).collect();
    render(&header, &widths, &mut out);
    out.push('|');
    for w in &widths {
        let _ = write!(out, "{}|", "-".repeat(w + 2));
    }
    out.push('\n');
    for row in rows {
        render(row, &widths, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> UnitRecord {
        UnitRecord {
            index: 3,
            scenario: "s, with comma".into(),
            kind: "optimize".into(),
            app: "mpeg2".into(),
            cores: 4,
            levels: 3,
            seed: 9,
            status: "ok",
            power_mw: Some(4.6875),
            gamma: Some(327_000.25),
            tm_seconds: Some(13.5),
            r_kbits: None,
            evaluations: Some(1200),
            scaling: Some("(3,3,2,2)".into()),
            mapping: Some("core1: t1 | core2: t2".into()),
            experienced_seus: None,
        }
    }

    #[test]
    fn json_record_is_valid_shape_and_escapes() {
        let mut r = record();
        r.app = "a\"b\\c".into();
        let line = json_record(&r);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"app\":\"a\\\"b\\\\c\""));
        assert!(line.contains("\"power_mw\":4.6875"));
        assert!(line.contains("\"r_kbits\":null"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_record_matches_golden_bytes() {
        // Clean text is copied as is.
        assert_eq!(
            json_record(&record()),
            "{\"index\":3,\"scenario\":\"s, with comma\",\"kind\":\"optimize\",\
             \"app\":\"mpeg2\",\"cores\":4,\"levels\":3,\"seed\":9,\"status\":\"ok\",\
             \"power_mw\":4.6875,\"gamma\":327000.25,\"tm_seconds\":13.5,\
             \"r_kbits\":null,\"evaluations\":1200,\"scaling\":\"(3,3,2,2)\",\
             \"mapping\":\"core1: t1 | core2: t2\",\"experienced_seus\":null}"
        );
        // Every escaped field, with every escape class: quotes,
        // backslashes, the three named controls, the other controls as
        // \u00XX; DEL (0x7f) and non-ASCII text pass through.
        let mut r = record();
        r.scenario = "say \"hi\" \\ back\\".into();
        r.kind = "line\nbreak\ttab\rcr".into();
        r.app = "\u{1}\u{1f}\u{7f}\u{0}".into();
        r.scaling = Some("(3,3) é ü 日本 \"q\"".into());
        r.mapping = Some("\"core1\": t1\t|\u{1f} → t2\\".into());
        r.power_mw = None;
        r.evaluations = None;
        r.experienced_seus = Some(7);
        assert_eq!(
            json_record(&r),
            "{\"index\":3,\"scenario\":\"say \\\"hi\\\" \\\\ back\\\\\",\
             \"kind\":\"line\\nbreak\\ttab\\rcr\",\"app\":\"\\u0001\\u001f\u{7f}\\u0000\",\
             \"cores\":4,\"levels\":3,\"seed\":9,\"status\":\"ok\",\"power_mw\":null,\
             \"gamma\":327000.25,\"tm_seconds\":13.5,\"r_kbits\":null,\"evaluations\":null,\
             \"scaling\":\"(3,3) é ü 日本 \\\"q\\\"\",\
             \"mapping\":\"\\\"core1\\\": t1\\t|\\u001f → t2\\\\\",\"experienced_seus\":7}"
        );
        // Each escaped field, one at a time, with every class at once.
        let text = "a\"b\\c\nd\te\rf\u{1}g\u{1f}h\u{7f}i → 日本";
        let escaped = "a\\\"b\\\\c\\nd\\te\\rf\\u0001g\\u001fh\u{7f}i → 日本";
        let plain = json_record(&record());
        for (field, clean) in [
            ("scenario", "s, with comma"),
            ("kind", "optimize"),
            ("app", "mpeg2"),
            ("scaling", "(3,3,2,2)"),
            ("mapping", "core1: t1 | core2: t2"),
        ] {
            let mut r = record();
            match field {
                "scenario" => r.scenario = text.into(),
                "kind" => r.kind = text.into(),
                "app" => r.app = text.into(),
                "scaling" => r.scaling = Some(text.into()),
                _ => r.mapping = Some(text.into()),
            }
            let from = format!("\"{field}\":\"{clean}\"");
            let to = format!("\"{field}\":\"{escaped}\"");
            assert_eq!(json_record(&r), plain.replace(&from, &to), "{field}");
        }
        r.scaling = None;
        r.mapping = None;
        assert!(
            json_record(&r).ends_with(",\"scaling\":null,\"mapping\":null,\"experienced_seus\":7}")
        );
        assert_eq!(json_escape("\u{1}a\"\\\n"), "\\u0001a\\\"\\\\\\n");
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape(""), "");
        // The report is the records, one per line.
        assert_eq!(
            jsonl_report(&[record(), r.clone()]),
            format!("{}\n{}\n", json_record(&record()), json_record(&r))
        );
    }

    #[test]
    fn csv_quotes_fields_with_commas() {
        let report = csv_report(&[record()]);
        let mut lines = report.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.contains("\"s, with comma\""));
        assert!(row.contains("core1: t1 | core2: t2"));
    }

    #[test]
    fn csv_quotes_fields_with_cr_and_lf() {
        // Regression: an unquoted newline in a field used to split one
        // record across two CSV rows.
        assert_eq!(csv_escape("a\nb"), "\"a\nb\"");
        assert_eq!(csv_escape("a\rb"), "\"a\rb\"");
        assert_eq!(csv_escape("a\r\n\"b\",c"), "\"a\r\n\"\"b\"\",c\"");
        assert_eq!(csv_escape("plain"), "plain");

        let mut r = record();
        r.mapping = Some("core1: t1\ncore2: t2".into());
        let report = csv_report(&[r]);
        // Header + one (quoted, two-physical-line) row: exactly one
        // record boundary when parsed with RFC 4180 quoting.
        assert!(report.contains("\"core1: t1\ncore2: t2\""));
        let unquoted_newlines = report
            .split('"')
            .step_by(2) // text outside quotes
            .map(|chunk| chunk.matches('\n').count())
            .sum::<usize>();
        assert_eq!(unquoted_newlines, 2, "header + one row:\n{report}");
    }

    #[test]
    fn csv_and_jsonl_agree_on_non_finite_floats() {
        // Regression: CSV printed `NaN`/`inf` verbatim while JSONL
        // nulled them. Both now render "absent" for the same record.
        let mut r = record();
        r.power_mw = Some(f64::NAN);
        r.gamma = Some(f64::INFINITY);
        r.tm_seconds = Some(f64::NEG_INFINITY);
        let row = csv_report(&[r.clone()]).lines().nth(1).unwrap().to_string();
        assert!(!row.contains("NaN") && !row.contains("inf"), "{row}");
        assert!(row.contains(",ok,,,,"), "empty metric fields: {row}");
        let json = json_record(&r);
        assert!(
            json.contains("\"power_mw\":null")
                && json.contains("\"gamma\":null")
                && json.contains("\"tm_seconds\":null"),
            "{json}"
        );
    }

    #[test]
    fn human_report_aligns_columns() {
        let table = human_report(&[record()]);
        assert!(table.contains("| #"));
        assert!(table.contains("optimize"));
        assert!(table.lines().count() >= 3);
    }

    #[test]
    fn jsonl_report_is_one_line_per_record() {
        let records = vec![record(), record()];
        let report = jsonl_report(&records);
        assert_eq!(report.lines().count(), 2);
    }

    /// A writer that fails every operation (full-disk stand-in).
    struct FailingWriter;
    impl std::io::Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn sinks_surface_report_write_failures() {
        let mut sink = JsonlSink::new(Vec::new(), FailingWriter);
        sink.unit_completed(&record());
        sink.finish(&[record()]);
        assert!(sink.take_io_error().is_some(), "finish failure captured");
        assert!(sink.take_io_error().is_none(), "error is taken once");
    }

    #[test]
    fn progress_stream_failures_do_not_fail_the_campaign() {
        // A dead stderr consumer must not poison the exit status when the
        // stdout report was written intact.
        let mut sink = HumanSink::new(FailingWriter, Vec::new());
        sink.begin(2);
        sink.unit_completed(&record());
        sink.finish(&[record()]);
        assert!(sink.take_io_error().is_none());

        let mut sink = CsvSink::new(FailingWriter, Vec::new());
        sink.begin(1);
        sink.unit_completed(&record());
        sink.finish(&[record()]);
        assert!(sink.take_io_error().is_none());
    }

    /// A clonable handle to a shared byte buffer — stands in for a
    /// terminal/file that another process could observe mid-run.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn progress_is_flushed_per_record_even_through_a_bufwriter() {
        // Regression: progress used to sit in an interposed BufWriter
        // until the campaign ended, so a killed run lost every progress
        // line. Each unit_completed must flush through to the observer.
        let observed = SharedBuf::default();
        let mut sink = JsonlSink::new(
            std::io::BufWriter::with_capacity(1 << 20, observed.clone()),
            Vec::new(),
        );
        sink.begin(3);
        sink.unit_completed(&record());
        let after_one = observed.0.lock().unwrap().clone();
        assert_eq!(
            String::from_utf8(after_one).unwrap().lines().count(),
            1,
            "first record visible before the campaign ends"
        );
        sink.unit_completed(&record());
        let after_two = String::from_utf8(observed.0.lock().unwrap().clone()).unwrap();
        assert_eq!(after_two.lines().count(), 2);
        // Every line of the mid-run stream is complete, parseable JSONL.
        for line in after_two.lines() {
            assert!(
                crate::journal::parse_record_json(line).is_ok(),
                "mid-run prefix line parses: {line}"
            );
        }
    }

    #[test]
    fn human_sink_progress_counter_resets_per_campaign() {
        let mut sink = HumanSink::new(Vec::new(), Vec::new());
        sink.begin(2);
        sink.unit_completed(&record());
        sink.unit_completed(&record());
        sink.begin(1);
        sink.unit_completed(&record());
        let progress = String::from_utf8(sink.progress).unwrap();
        assert!(
            progress.contains("[1/1]"),
            "counter reset on begin:\n{progress}"
        );
        assert!(!progress.contains("[3/1]"), "no carry-over:\n{progress}");
    }
}
