//! The write-ahead campaign journal: crash-safe per-unit records and the
//! `--resume` machinery.
//!
//! A journal is a JSONL file. Line 1 is a header binding the file to one
//! specific campaign expansion via its *spec hash*
//! ([`crate::hash::units_hash`]):
//!
//! ```text
//! {"journal":"sea-campaign","version":3,"name":"quickstart","spec_hash":"<32 hex>","units":5}
//! ```
//!
//! Every following line records one completed unit, keyed by the unit's
//! content hash and enumeration index, with the exact flat record the
//! sinks render:
//!
//! ```text
//! {"unit":"<32 hex>","index":3,"record":{...same shape as `json_record`...}}
//! ```
//!
//! Records are flushed *and fsync'd* per unit, so a killed process loses
//! at most the unit that was in flight. Reading tolerates exactly one
//! torn tail line (the in-flight record of a crash); anything malformed
//! before the tail is corruption and fails loudly.
//!
//! **Compatibility rule:** a journal may only resume the campaign it was
//! written for — [`open_journal`] refuses (with both hashes in the
//! message) when the header's spec hash differs from the current
//! expansion's. A record whose unit hash does not match the unit at its
//! index is dropped and recomputed rather than trusted.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::Path;

use crate::hash::{unit_hash, units_hash, ContentHash};
use crate::sink::json_record;
use crate::unit::{Unit, UnitRecord};
use crate::CampaignError;

/// Journal format version (header `version` field).
/// v2: bound-and-prune evaluation accounting (see
/// [`crate::cache::CACHE_VERSION`]) — v1 journals may hold records a
/// current build would not reproduce, so resuming from them is refused.
/// v3: unit and spec hashes over the canonical unit encoding
/// ([`crate::encode_unit`]), so an older journal is refused by version,
/// not by a misleading spec-hash mismatch.
pub const JOURNAL_VERSION: u32 = 3;

fn jerr(msg: impl Into<String>) -> CampaignError {
    CampaignError::Journal(msg.into())
}

// ---------------------------------------------------------------------------
// Minimal JSON reading for the fixed, flat shapes this crate emits.
// ---------------------------------------------------------------------------

/// A value inside a flat JSON object, borrowed from the source: a string
/// (unescaped, which copies it only when it holds a backslash), a raw
/// number token, null, or one nested object as its source slice.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue<'a> {
    Str(Cow<'a, str>),
    Num(&'a str),
    Null,
    Obj(&'a str),
}

/// Unescapes a string literal's raw content, borrowing it when it holds
/// no escape.
fn unescape(raw: &str) -> Result<Cow<'_, str>, String> {
    if !raw.contains('\\') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code =
                    u32::from_str_radix(&hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
                out.push(char::from_u32(code).ok_or(format!("bad codepoint {code}"))?);
            }
            other => return Err(format!("bad escape `\\{other:?}`")),
        }
    }
    Ok(Cow::Owned(out))
}

/// Scans a JSON string literal starting at the opening quote; returns the
/// raw (escaped) content and the index just past the closing quote.
fn scan_string(s: &str, start: usize) -> Result<(&str, usize), String> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes.get(start), Some(&b'"'));
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Ok((&s[start + 1..i], i + 1)),
            _ => i += 1,
        }
    }
    Err("unterminated string".into())
}

/// Scans a balanced JSON object starting at `{`; returns the raw slice
/// including braces and the index just past it.
fn scan_object(s: &str, start: usize) -> Result<(&str, usize), String> {
    let bytes = s.as_bytes();
    debug_assert_eq!(bytes.get(start), Some(&b'{'));
    let mut depth = 0usize;
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let (_, next) = scan_string(s, i)?;
                i = next;
            }
            b'{' => {
                depth += 1;
                i += 1;
            }
            b'}' => {
                depth -= 1;
                i += 1;
                if depth == 0 {
                    return Ok((&s[start..i], i));
                }
            }
            _ => i += 1,
        }
    }
    Err("unterminated object".into())
}

fn skip_ws(s: &str, mut i: usize) -> usize {
    let bytes = s.as_bytes();
    while i < bytes.len() && (bytes[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// The fields of one flat object that a reader asked for, by key: each
/// key's value, if the object had it.
struct Fields<'a, const N: usize>([(&'static str, Option<JsonValue<'a>>); N]);

impl<'a, const N: usize> Fields<'a, N> {
    fn take(&mut self, key: &str) -> Result<JsonValue<'a>, String> {
        let (_, value) = self
            .0
            .iter_mut()
            .find(|(k, _)| *k == key)
            .expect("only keys given to `parse_fields` are taken");
        value.take().ok_or_else(|| format!("missing field `{key}`"))
    }

    fn str(&mut self, key: &str) -> Result<Cow<'a, str>, String> {
        match self.take(key)? {
            JsonValue::Str(s) => Ok(s),
            other => Err(format!("field `{key}` is not a string: {other:?}")),
        }
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        match self.take(key)? {
            JsonValue::Num(n) => n.parse().map_err(|_| format!("bad number in `{key}`: {n}")),
            other => Err(format!("field `{key}` is not a number: {other:?}")),
        }
    }

    fn opt_num<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.take(key)? {
            JsonValue::Null => Ok(None),
            JsonValue::Num(n) => n
                .parse()
                .map(Some)
                .map_err(|_| format!("bad number in `{key}`: {n}")),
            other => Err(format!("field `{key}` is not a number: {other:?}")),
        }
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, String> {
        match self.take(key)? {
            JsonValue::Null => Ok(None),
            JsonValue::Str(s) => Ok(Some(s.into_owned())),
            other => Err(format!("field `{key}` is not a string: {other:?}")),
        }
    }
}

/// Parses one flat JSON object (`{"k":v,...}`) where every value is a
/// string, number, `null`, or a nested flat object (kept as its source
/// slice), and keeps the values of `keys`. Each field is matched in place
/// as it parses: the first occurrence of a key wins, and keys not asked
/// for are checked for syntax and skipped.
fn parse_fields<'a, const N: usize>(
    source: &'a str,
    keys: [&'static str; N],
) -> Result<Fields<'a, N>, String> {
    let mut fields = Fields(keys.map(|key| (key, None)));
    let s = source.trim();
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'{') || bytes.last() != Some(&b'}') {
        return Err("not a JSON object".into());
    }
    let mut i = skip_ws(s, 1);
    if bytes.get(i) == Some(&b'}') {
        return Ok(fields);
    }
    // The objects this crate writes list their keys in `keys` order, so
    // the slot after the last match is tried first.
    let mut next_slot = 0;
    loop {
        if bytes.get(i) != Some(&b'"') {
            return Err(format!("expected key at byte {i}"));
        }
        let (raw_key, next) = scan_string(s, i)?;
        let key = unescape(raw_key)?;
        i = skip_ws(s, next);
        if bytes.get(i) != Some(&b':') {
            return Err(format!("expected `:` after key `{key}`"));
        }
        i = skip_ws(s, i + 1);
        let value = match bytes.get(i) {
            Some(&b'"') => {
                let (raw, next) = scan_string(s, i)?;
                i = next;
                JsonValue::Str(unescape(raw)?)
            }
            Some(&b'{') => {
                let (raw, next) = scan_object(s, i)?;
                i = next;
                JsonValue::Obj(raw)
            }
            Some(_) => {
                let end = s[i..]
                    .find([',', '}'])
                    .map(|off| i + off)
                    .ok_or("unterminated value")?;
                let tok = s[i..end].trim();
                i = end;
                if tok == "null" {
                    JsonValue::Null
                } else if tok.is_empty() {
                    return Err(format!("empty value for `{key}`"));
                } else {
                    JsonValue::Num(tok)
                }
            }
            None => return Err("unterminated object".into()),
        };
        let slot = match fields.0.get(next_slot) {
            Some((k, _)) if *k == key => Some(next_slot),
            _ => fields.0.iter().position(|(k, _)| *k == key),
        };
        if let Some(k) = slot {
            next_slot = k + 1;
            fields.0[k].1.get_or_insert(value);
        }
        i = skip_ws(s, i);
        match bytes.get(i) {
            Some(&b',') => i = skip_ws(s, i + 1),
            Some(&b'}') => {
                if skip_ws(s, i + 1) != s.len() {
                    return Err("trailing content after object".into());
                }
                return Ok(fields);
            }
            _ => return Err(format!("expected `,` or `}}` at byte {i}")),
        }
    }
}

/// Parses a [`json_record`]-shaped object back into a [`UnitRecord`].
///
/// The round trip is exact: re-rendering the parsed record with
/// [`json_record`] reproduces the input byte for byte (floats are emitted
/// in Rust's shortest round-trip form, which `str::parse::<f64>`
/// recovers exactly).
///
/// # Errors
///
/// Returns a message for malformed JSON, missing fields, or an unknown
/// `status`.
pub fn parse_record_json(source: &str) -> Result<UnitRecord, String> {
    let mut f = parse_fields(
        source,
        [
            "index",
            "scenario",
            "kind",
            "app",
            "cores",
            "levels",
            "seed",
            "status",
            "power_mw",
            "gamma",
            "tm_seconds",
            "r_kbits",
            "evaluations",
            "scaling",
            "mapping",
            "experienced_seus",
        ],
    )?;
    let status = match &*f.str("status")? {
        "ok" => "ok",
        "infeasible" => "infeasible",
        "too-few-tasks" => "too-few-tasks",
        other => return Err(format!("unknown status `{other}`")),
    };
    Ok(UnitRecord {
        index: f.num("index")?,
        scenario: f.str("scenario")?.into_owned(),
        kind: f.str("kind")?.into_owned(),
        app: f.str("app")?.into_owned(),
        cores: f.num("cores")?,
        levels: f.num("levels")?,
        seed: f.num("seed")?,
        status,
        power_mw: f.opt_num("power_mw")?,
        gamma: f.opt_num("gamma")?,
        tm_seconds: f.opt_num("tm_seconds")?,
        r_kbits: f.opt_num("r_kbits")?,
        evaluations: f.opt_num("evaluations")?,
        scaling: f.opt_str("scaling")?,
        mapping: f.opt_str("mapping")?,
        experienced_seus: f.opt_num("experienced_seus")?,
    })
}

// ---------------------------------------------------------------------------
// Journal lines.
// ---------------------------------------------------------------------------

/// Renders the journal header line (no trailing newline).
#[must_use]
pub fn header_line(name: &str, spec_hash: ContentHash, units: usize) -> String {
    format!(
        "{{\"journal\":\"sea-campaign\",\"version\":{JOURNAL_VERSION},\"name\":\"{}\",\
         \"spec_hash\":\"{}\",\"units\":{units}}}",
        crate::sink::json_escape(name),
        spec_hash.to_hex()
    )
}

/// Renders one journal record line (no trailing newline). `index` is the
/// *enumeration position* in the unit list — the slot a resume restores
/// into — which the pool keeps authoritative independently of the
/// record's own (presentation) `index` field.
#[must_use]
pub fn record_line(index: usize, hash: ContentHash, record: &UnitRecord) -> String {
    format!(
        "{{\"unit\":\"{}\",\"index\":{index},\"record\":{}}}",
        hash.to_hex(),
        json_record(record)
    )
}

/// The parsed journal header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Format version.
    pub version: u32,
    /// Campaign name at write time.
    pub name: String,
    /// Spec hash of the expansion the journal belongs to.
    pub spec_hash: ContentHash,
    /// Unit count of that expansion.
    pub units: usize,
}

/// One parsed journal record.
#[derive(Debug, Clone)]
pub struct JournalRecord {
    /// Content hash of the unit that completed.
    pub unit_hash: ContentHash,
    /// Enumeration index.
    pub index: usize,
    /// The flat record as the sinks would render it.
    pub record: UnitRecord,
}

/// A fully parsed journal.
#[derive(Debug, Clone)]
pub struct Journal {
    /// The header line.
    pub header: JournalHeader,
    /// Records in file order (a crash-torn final line is dropped).
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + parsed records, each
    /// newline-terminated). Anything beyond is a torn tail that must be
    /// truncated away before appending, or the next record would fuse
    /// onto the fragment and corrupt the file for later resumes.
    pub valid_len: usize,
}

fn parse_header(line: &str) -> Result<JournalHeader, String> {
    let mut f = parse_fields(line, ["journal", "version", "name", "spec_hash", "units"])?;
    let magic = f.str("journal")?;
    if magic != "sea-campaign" {
        return Err(format!("not a sea-campaign journal (magic `{magic}`)"));
    }
    let version = f.num("version")?;
    let name = f.str("name")?.into_owned();
    let hex = f.str("spec_hash")?;
    let spec_hash = ContentHash::parse_hex(&hex).ok_or(format!("malformed spec_hash `{hex}`"))?;
    let units = f.num("units")?;
    Ok(JournalHeader {
        version,
        name,
        spec_hash,
        units,
    })
}

fn parse_record(line: &str) -> Result<JournalRecord, String> {
    let mut f = parse_fields(line, ["unit", "index", "record"])?;
    let hex = f.str("unit")?;
    let unit_hash = ContentHash::parse_hex(&hex).ok_or(format!("malformed unit hash `{hex}`"))?;
    let index = f.num("index")?;
    let record = match f.take("record")? {
        JsonValue::Obj(raw) => parse_record_json(raw)?,
        other => return Err(format!("field `record` is not an object: {other:?}")),
    };
    Ok(JournalRecord {
        unit_hash,
        index,
        record,
    })
}

/// Parses journal source text.
///
/// The final line may be torn (a crash mid-append): if it fails to parse
/// it is dropped. A malformed line anywhere *before* the tail is
/// corruption and errors.
///
/// # Errors
///
/// [`CampaignError::Journal`] for a malformed header, an unsupported
/// format version, or a mid-file record.
pub fn parse_journal(source: &str) -> Result<Journal, CampaignError> {
    // Split into newline-*terminated* lines, tracking the byte offset
    // just past each terminator: `valid_len` must point at a clean line
    // boundary so a resume can truncate a torn tail before appending.
    let mut lines: Vec<(usize, &str)> = Vec::new();
    let mut start = 0usize;
    for (i, b) in source.bytes().enumerate() {
        if b == b'\n' {
            lines.push((i + 1, &source[start..i]));
            start = i + 1;
        }
    }
    // Anything after the last newline is by definition a torn tail (the
    // writer emits whole `line + \n` units and fsyncs).
    let unterminated_tail = !source[start..].trim().is_empty();

    let mut complete = lines
        .iter()
        .filter(|(_, line)| !line.trim().is_empty())
        .copied();
    let Some((header_end, header_src)) = complete.next() else {
        return Err(jerr(if unterminated_tail {
            "journal has no complete header line (torn during creation?)"
        } else {
            "journal is empty"
        }));
    };
    let header = parse_header(header_src).map_err(|e| jerr(format!("journal header: {e}")))?;
    // Version skew must surface *before* record parsing — a future
    // format's records would otherwise fail with a misleading
    // mid-file-corruption message.
    if header.version != JOURNAL_VERSION {
        return Err(jerr(format!(
            "journal has format version {} (this build reads {JOURNAL_VERSION})",
            header.version
        )));
    }
    let rest: Vec<(usize, &str)> = complete.collect();
    let mut records = Vec::with_capacity(rest.len());
    let mut valid_len = header_end;
    for (k, (end, line)) in rest.iter().enumerate() {
        match parse_record(line) {
            Ok(r) => {
                records.push(r);
                valid_len = *end;
            }
            Err(e) if k + 1 == rest.len() && !unterminated_tail => {
                // Torn final line: the record in flight when the process
                // died. (With an unterminated tail present, every
                // newline-terminated line must be intact.)
                let _ = e;
            }
            Err(e) => {
                return Err(jerr(format!("journal record {}: {e}", k + 1)));
            }
        }
    }
    Ok(Journal {
        header,
        records,
        valid_len,
    })
}

/// Appender for a campaign journal, fsync'ing each record so the file
/// survives a kill at any instant.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` and durably writes the header.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(
        path: &Path,
        name: &str,
        spec_hash: ContentHash,
        units: usize,
    ) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        writeln!(file, "{}", header_line(name, spec_hash, units))?;
        file.sync_data()?;
        Ok(JournalWriter { file })
    }

    /// Opens an existing journal for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Durably appends one completed-unit record (write + fsync),
    /// keyed by its enumeration position `index`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors — the caller must treat a failed
    /// append as fatal (the write-ahead guarantee is gone).
    pub fn append(
        &mut self,
        index: usize,
        hash: ContentHash,
        record: &UnitRecord,
    ) -> std::io::Result<()> {
        writeln!(self.file, "{}", record_line(index, hash, record))?;
        self.file.sync_data()
    }
}

/// A journal opened (or created) for one specific unit list: the records
/// already present, slotted by index, plus the appender for new ones.
#[derive(Debug)]
pub struct JournalPlan {
    /// Per-index records restored from the journal (`None` = still to
    /// run).
    pub prefilled: Vec<Option<UnitRecord>>,
    /// Appender positioned at the end of the journal.
    pub writer: JournalWriter,
    /// How many units the journal already covered.
    pub resumed: usize,
}

/// Opens `path` as the journal for `units`: creates it (with a durable
/// header) when absent or when its bytes are a strict prefix of that
/// header (empty, or torn while it was created), otherwise validates it
/// against the expansion and returns the completed records.
///
/// # Errors
///
/// * [`CampaignError::Journal`] when the file belongs to a different
///   campaign (spec-hash mismatch — the compatibility rule), has a
///   different format version, or is corrupt mid-file.
/// * Filesystem errors, wrapped in [`CampaignError::Journal`].
pub fn open_journal(path: &Path, name: &str, units: &[Unit]) -> Result<JournalPlan, CampaignError> {
    let spec_hash = units_hash(units);
    let cannot_read =
        |e: &dyn std::fmt::Display| jerr(format!("cannot read journal `{}`: {e}", path.display()));
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(cannot_read(&e)),
    };
    let header = format!("{}\n", header_line(name, spec_hash, units.len()));
    if bytes.len() < header.len() && header.as_bytes().starts_with(&bytes) {
        let writer = JournalWriter::create(path, name, spec_hash, units.len())
            .map_err(|e| jerr(format!("cannot create journal `{}`: {e}", path.display())))?;
        return Ok(JournalPlan {
            prefilled: vec![None; units.len()],
            writer,
            resumed: 0,
        });
    }
    let source = String::from_utf8(bytes).map_err(|e| cannot_read(&e))?;
    let journal = parse_journal(&source)?;
    if journal.header.spec_hash != spec_hash {
        return Err(jerr(format!(
            "refusing to resume `{}`: it was written for a different campaign \
             (journal spec-hash {}, this campaign {}). Delete the journal or point \
             --resume at the matching one.",
            path.display(),
            journal.header.spec_hash.to_hex(),
            spec_hash.to_hex()
        )));
    }
    if journal.header.units != units.len() {
        return Err(jerr(format!(
            "journal `{}` covers {} units but the campaign expands to {}",
            path.display(),
            journal.header.units,
            units.len()
        )));
    }
    let mut prefilled: Vec<Option<UnitRecord>> = vec![None; units.len()];
    for r in journal.records {
        if r.index >= units.len() {
            return Err(jerr(format!(
                "journal record index {} is outside the campaign (0..{})",
                r.index,
                units.len()
            )));
        }
        // A record whose hash disagrees with the unit at its index is
        // corrupt — drop it and recompute rather than trust it.
        if r.unit_hash == unit_hash(&units[r.index]) {
            prefilled[r.index] = Some(r.record);
        }
    }
    let resumed = prefilled.iter().filter(|r| r.is_some()).count();
    // Cut any torn tail at the last clean line boundary *before* opening
    // for append — appending onto a half-written fragment would fuse two
    // records into one corrupt mid-file line and doom the next resume.
    if journal.valid_len < source.len() {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| jerr(format!("cannot truncate journal `{}`: {e}", path.display())))?;
        file.set_len(journal.valid_len as u64)
            .and_then(|()| file.sync_data())
            .map_err(|e| jerr(format!("cannot truncate journal `{}`: {e}", path.display())))?;
    }
    let writer = JournalWriter::open_append(path).map_err(|e| {
        jerr(format!(
            "cannot append to journal `{}`: {e}",
            path.display()
        ))
    })?;
    Ok(JournalPlan {
        prefilled,
        writer,
        resumed,
    })
}

/// Reads a journal *standalone* — without the campaign it was written
/// for — and returns its records slotted into enumeration order. This is
/// the offline-analytics read path (`sea-dse report <journal>`): the
/// persisted records are trusted as-is (the spec-hash compatibility
/// check needs the unit list, which an offline reader does not have) and
/// nothing is re-evaluated. A crashed campaign's journal is fine: the
/// records present are returned, gaps are skipped.
///
/// # Errors
///
/// [`CampaignError::Journal`] for filesystem errors, a malformed header
/// or mid-file record, version skew, or a record index outside the
/// header's unit count.
pub fn read_journal_records(
    path: &Path,
) -> Result<(JournalHeader, Vec<UnitRecord>), CampaignError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| jerr(format!("cannot read journal `{}`: {e}", path.display())))?;
    let journal = parse_journal(&source)?;
    // Slot by enumeration index (last wins, like a resume) so the
    // returned order matches the live report regardless of the
    // completion order the journal happened to record. The slots are as
    // many as the records, whatever unit count the header claims.
    let mut slots: BTreeMap<usize, UnitRecord> = BTreeMap::new();
    for r in journal.records {
        if r.index >= journal.header.units {
            return Err(jerr(format!(
                "journal record index {} is outside the campaign (0..{})",
                r.index, journal.header.units
            )));
        }
        slots.insert(r.index, r.record);
    }
    Ok((journal.header, slots.into_values().collect()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> UnitRecord {
        UnitRecord {
            index: 2,
            scenario: "s\"x".into(),
            kind: "optimize".into(),
            app: "mpeg2".into(),
            cores: 4,
            levels: 3,
            seed: 77,
            status: "ok",
            power_mw: Some(4.6875),
            gamma: Some(1.0 / 3.0),
            tm_seconds: Some(13.5),
            r_kbits: None,
            evaluations: Some(1200),
            scaling: Some("(3,3,2,2)".into()),
            mapping: Some("core1: t1 | core2: t2".into()),
            experienced_seus: None,
        }
    }

    #[test]
    fn record_json_round_trips_byte_identical() {
        let r = record();
        let line = json_record(&r);
        let back = parse_record_json(&line).unwrap();
        assert_eq!(json_record(&back), line);
        assert_eq!(back.scenario, r.scenario);
        assert_eq!(back.gamma.map(f64::to_bits), r.gamma.map(f64::to_bits));
        assert_eq!(back.status, "ok");
        assert_eq!(back.r_kbits, None);
    }

    #[test]
    fn malformed_records_are_errors_not_panics() {
        let good = json_record(&record());
        assert!(parse_record_json(&good).is_ok());
        let cut = good.find("mpeg2").unwrap();
        let bad = [
            ("unterminated string", format!("{}}}", &good[..cut])),
            ("trailing lone backslash", format!("{}\\}}", &good[..cut])),
            ("bad \\u escape", good.replacen("mpeg2", "mp\\u00g2", 1)),
            ("short \\u escape", good.replacen("mpeg2", "mpeg2\\u", 1)),
            ("lone surrogate", good.replacen("mpeg2", "\\ud800", 1)),
            ("unknown escape", good.replacen("mpeg2", "mpeg\\/2", 1)),
            ("trailing content", format!("{good} {{}}")),
            ("trailing brace", format!("{good}}}")),
            ("missing field", good.replacen(",\"seed\":77", "", 1)),
            (
                "string for a number",
                good.replacen("\"cores\":4", "\"cores\":\"4\"", 1),
            ),
            ("number for a string", good.replacen("\"mpeg2\"", "5", 1)),
            (
                "negative count",
                good.replacen("\"index\":2", "\"index\":-2", 1),
            ),
            (
                "object for a float",
                good.replacen("\"r_kbits\":null", "\"r_kbits\":{}", 1),
            ),
            (
                "bad key escape",
                good.replacen("\"levels\"", "\"lev\\qels\"", 1),
            ),
        ];
        for (what, line) in bad {
            assert_ne!(line, good, "{what}: the edit applies");
            assert!(parse_record_json(&line).is_err(), "{what}: {line}");
        }
        // Escapes decode: in values and in keys.
        let escaped =
            good.replacen("mpeg2", "mp\\u0065g2", 1)
                .replacen("\"levels\"", "\"lev\\u0065ls\"", 1);
        assert_eq!(json_record(&parse_record_json(&escaped).unwrap()), good);
    }

    #[test]
    fn unknown_status_is_rejected() {
        let line = json_record(&record()).replace("\"ok\"", "\"exploded\"");
        assert!(parse_record_json(&line).is_err());
    }

    #[test]
    fn journal_lines_parse_back() {
        let h = ContentHash(0xDEAD_BEEF);
        let header = header_line("demo \"q\"", h, 7);
        let parsed = parse_header(&header).unwrap();
        assert_eq!(parsed.version, JOURNAL_VERSION);
        assert_eq!(parsed.name, "demo \"q\"");
        assert_eq!(parsed.spec_hash, h);
        assert_eq!(parsed.units, 7);

        let line = record_line(2, h, &record());
        let r = parse_record(&line).unwrap();
        assert_eq!(r.unit_hash, h);
        assert_eq!(r.index, 2);
        assert_eq!(json_record(&r.record), json_record(&record()));
    }

    #[test]
    fn torn_tail_is_dropped_but_mid_file_corruption_errors() {
        let h = ContentHash(1);
        let mut src = header_line("j", h, 3);
        src.push('\n');
        src.push_str(&record_line(0, h, &record()));
        src.push('\n');
        src.push_str("{\"unit\":\"tr"); // torn tail
        let j = parse_journal(&src).unwrap();
        assert_eq!(j.records.len(), 1);

        let mut bad = header_line("j", h, 3);
        bad.push('\n');
        bad.push_str("garbage\n");
        bad.push_str(&record_line(0, h, &record()));
        bad.push('\n');
        assert!(parse_journal(&bad).is_err());
    }

    #[test]
    fn read_journal_records_restores_enumeration_order() {
        let h = ContentHash(5);
        let mut src = header_line("offline", h, 3);
        src.push('\n');
        // Completion order 2, 0 — index 1 never finished (crash).
        for i in [2usize, 0] {
            let mut r = record();
            r.index = i;
            r.seed = i as u64;
            src.push_str(&record_line(i, h, &r));
            src.push('\n');
        }
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sea-journal-read-{}.jsonl", std::process::id()));
        std::fs::write(&path, &src).unwrap();
        let (header, records) = read_journal_records(&path).unwrap();
        assert_eq!(header.units, 3);
        let indices: Vec<usize> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![0, 2], "enumeration order, gap skipped");

        // A header claiming trillions of units sizes nothing by its claim.
        let huge = src.replacen("\"units\":3", "\"units\":4000000000000", 1);
        std::fs::write(&path, huge).unwrap();
        let (header, records) = read_journal_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!((header.units, records.len()), (4_000_000_000_000, 2));
    }

    #[test]
    fn every_journal_prefix_is_valid_jsonl() {
        // The flush-per-record discipline means any prefix of complete
        // lines must parse as a valid journal (fewer records, same
        // header) — this is what makes kill-anywhere recovery sound.
        let h = ContentHash(9);
        let mut lines = vec![header_line("p", h, 4)];
        for i in 0..4 {
            let mut r = record();
            r.index = i;
            lines.push(record_line(i, h, &r));
        }
        for k in 1..=lines.len() {
            // The writer terminates every line; a clean kill boundary is
            // therefore a newline-terminated prefix.
            let mut src = lines[..k].join("\n");
            src.push('\n');
            let j = parse_journal(&src).unwrap();
            assert_eq!(j.records.len(), k - 1);
            assert_eq!(j.valid_len, src.len(), "clean prefix is fully valid");
            for obj in src.lines() {
                assert!(parse_fields(obj, []).is_ok(), "line is valid JSON: {obj}");
            }
        }
    }
}
