//! Content-addressed on-disk result cache for campaign units.
//!
//! A unit's result is a pure function of its content hash
//! ([`crate::hash::unit_hash`]), so completed results can be reused across
//! processes, campaigns and front ends: repeated `reproduce` runs and
//! overlapping specs become incremental. The cache is opt-in (the
//! `--cache` flag or the `SEA_CACHE` environment variable); when neither
//! is set, nothing here runs and the engine performs **zero** filesystem
//! writes.
//!
//! Layout: one file per unit, named `<unit-hash>.unit`, written to a
//! temporary name and atomically renamed — concurrent writers (parallel
//! workers, overlapping campaigns) can only ever race to publish
//! identical bytes. Each entry carries the unit's flat
//! [`UnitRecord`] (as
//! the exact JSON the sinks emit) plus a bitwise-exact encoding of the
//! typed payload ([`sea_opt::codec`] for designs, local codecs for
//! sweep/simulate), and ends with a content checksum. A simulate payload
//! is the [`sea_sim::SimSummary`]: the execution trace and the sampled
//! SEU events stay with `sea-dse simulate`. A truncated or
//! corrupted entry fails the checksum (or any parse step) and is treated
//! as a miss — the unit is recomputed and the entry rewritten; corruption
//! never crashes a campaign and never poisons a report. So is an entry
//! written under another [`CACHE_VERSION`].

use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use sea_baselines::sweep::SweepPoint;
use sea_opt::codec::{self, CodecError, Tokens};
use sea_sim::fault::CoreFaults;
use sea_sim::SimSummary;

use crate::hash::{unit_hash, ContentHash, ContentHasher};
use crate::journal::parse_record_json;
use crate::sink::json_record;
use crate::unit::{Unit, UnitPayload, UnitRecord, UnitResult};

/// Environment variable naming the cache directory when `--cache` is not
/// given.
pub const CACHE_ENV: &str = "SEA_CACHE";

/// Cache entry format version (first line of every entry).
/// v2: the bound-and-prune driver charges zero evaluations to pruned
/// scaling chunks, so tight-deadline results computed by v1 builds
/// would disagree byte-for-byte with fresh ones — refusing them is the
/// cheap, safe fix.
/// v3: simulate payloads hold the simulation summary, without the
/// execution trace and the sampled SEU events.
/// v4: entries are named by the unit hash over the canonical unit
/// encoding ([`crate::encode_unit`]); older entries sit under old hashes.
pub const CACHE_VERSION: u32 = 4;

/// Handle to a cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Cache { dir })
    }

    /// Resolves the cache from an explicit flag value or, failing that,
    /// the [`CACHE_ENV`] environment variable. An *empty* value in
    /// either position means "unset" (an unset shell variable expanding
    /// to `--cache ""` must not root a cache at the current directory).
    /// Returns `Ok(None)` — and guarantees no filesystem activity — when
    /// neither names a directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures for a named directory.
    pub fn resolve(flag: Option<&str>) -> std::io::Result<Option<Self>> {
        let dir = flag
            .map(str::to_string)
            .filter(|s| !s.is_empty())
            .or_else(|| std::env::var(CACHE_ENV).ok().filter(|s| !s.is_empty()));
        match dir {
            Some(d) => Cache::open(d).map(Some),
            None => Ok(None),
        }
    }

    /// The directory backing this cache.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a unit hash.
    #[must_use]
    pub fn entry_path(&self, hash: ContentHash) -> PathBuf {
        self.dir.join(format!("{}.unit", hash.to_hex()))
    }

    /// Looks a unit up. Any miss, parse failure, checksum mismatch or
    /// shape incompatibility returns `None` — the caller recomputes.
    #[must_use]
    pub fn load(&self, unit: &Unit) -> Option<UnitResult> {
        let hash = unit_hash(unit);
        let source = std::fs::read_to_string(self.entry_path(hash)).ok()?;
        decode_entry(&source, unit, hash).ok()
    }

    /// Publishes a completed unit result (atomic rename; best-effort —
    /// the pool ignores failures, a full disk must not fail a campaign).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors for callers that do care (tests).
    pub fn store(&self, result: &UnitResult) -> std::io::Result<()> {
        // Per-store unique temp name: pid separates processes, the
        // counter separates same-process workers storing the *same* unit
        // hash (possible when two scenarios contain content-identical
        // units) — without it, one worker's fs::write could truncate the
        // file another worker is mid-rename on.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let hash = unit_hash(&result.unit);
        let body = encode_entry(result, hash);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            hash.to_hex(),
            std::process::id(),
            STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, body)?;
        std::fs::rename(&tmp, self.entry_path(hash))
    }

    /// Surveys every `<hash>.unit` entry in the cache directory: size,
    /// modification time and structural health (magic, version, embedded
    /// hash vs. file name, checksum, record line — everything except the
    /// typed payload, which needs the owning unit to decode). Entries are
    /// returned sorted by file name so reports are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; per-entry read failures are
    /// reported as [`EntryHealth::Corrupt`], not errors.
    pub fn survey(&self) -> std::io::Result<Vec<EntrySurvey>> {
        let mut entries: Vec<EntrySurvey> = self
            .scan()?
            .into_iter()
            .map(|raw| {
                // A file whose name is not a unit hash can never be a
                // cache hit (lookups derive paths from hashes), so it is
                // unhealthy no matter what it contains.
                let health = if raw.hash.is_none() {
                    EntryHealth::Corrupt("file name is not a 32-hex-digit unit hash".into())
                } else {
                    match std::fs::read_to_string(&raw.path) {
                        Ok(source) => match validate_entry(&source, raw.hash) {
                            Ok(kind) => EntryHealth::Ok {
                                kind: kind.to_string(),
                            },
                            Err(e) => EntryHealth::Corrupt(e),
                        },
                        Err(e) => EntryHealth::Corrupt(format!("unreadable: {e}")),
                    }
                };
                EntrySurvey {
                    path: raw.path,
                    hash: raw.hash,
                    bytes: raw.bytes,
                    modified: raw.modified,
                    health,
                }
            })
            .collect();
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Metadata-only entry listing (no contents read) — what pruning
    /// needs; [`Cache::survey`] layers content validation on top.
    fn scan(&self) -> std::io::Result<Vec<RawEntry>> {
        let mut entries = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".unit") else {
                continue; // temp files, strays — not entries
            };
            let hash = ContentHash::parse_hex(stem);
            let (bytes, modified) = match dirent.metadata() {
                Ok(m) => (m.len(), m.modified().ok()),
                Err(_) => (0, None),
            };
            entries.push(RawEntry {
                path,
                hash,
                bytes,
                modified,
            });
        }
        Ok(entries)
    }

    /// Prunes entries by age and/or total size: first every entry older
    /// than `max_age` is deleted, then the oldest remaining entries go
    /// until the directory total is at most `max_bytes`. With neither
    /// limit this deletes nothing (and reports what is there).
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures. Per-entry delete failures are
    /// skipped (another process may have pruned concurrently).
    pub fn prune(
        &self,
        max_age: Option<Duration>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<PruneOutcome> {
        let now = SystemTime::now();
        // Metadata only: pruning by age/size must not read (let alone
        // checksum) every entry's contents.
        let mut entries = self.scan()?;
        // Oldest first; entries without a readable mtime sort oldest so
        // they are reclaimed before anything with a known age.
        entries.sort_by_key(|e| e.modified);
        let mut outcome = PruneOutcome {
            scanned: entries.len(),
            deleted: 0,
            freed_bytes: 0,
            kept: 0,
            kept_bytes: 0,
        };
        let mut kept: Vec<&RawEntry> = Vec::with_capacity(entries.len());
        for entry in &entries {
            let age = match entry.modified {
                // A *future* mtime (clock skew, NFS) clamps to age zero:
                // the entry is at worst brand new. Mapping the error to
                // MAX would treat the freshest entries as infinitely old
                // and delete them first under any --max-age.
                Some(m) => now.duration_since(m).unwrap_or(Duration::ZERO),
                // An unreadable mtime stays infinitely old: with no
                // evidence of freshness it is reclaimed first.
                None => Duration::MAX,
            };
            let expired = max_age.is_some_and(|limit| age > limit);
            if expired && std::fs::remove_file(&entry.path).is_ok() {
                outcome.deleted += 1;
                outcome.freed_bytes += entry.bytes;
            } else {
                kept.push(entry);
            }
        }
        if let Some(limit) = max_bytes {
            let mut total: u64 = kept.iter().map(|e| e.bytes).sum();
            let mut survivors = Vec::with_capacity(kept.len());
            for entry in kept {
                if total > limit && std::fs::remove_file(&entry.path).is_ok() {
                    total -= entry.bytes;
                    outcome.deleted += 1;
                    outcome.freed_bytes += entry.bytes;
                } else {
                    survivors.push(entry);
                }
            }
            kept = survivors;
        }
        outcome.kept = kept.len();
        outcome.kept_bytes = kept.iter().map(|e| e.bytes).sum();
        Ok(outcome)
    }

    /// Reads every healthy entry's flat [`UnitRecord`] — the
    /// offline-analytics read path (`sea-dse report <cache-dir>`).
    /// Structural validation (checksum, magic, version, embedded hash,
    /// record line) runs per entry but the typed payload is never
    /// decoded and nothing is re-evaluated. Corrupt or mis-named entries
    /// are skipped and counted, mirroring the "a bad entry is a miss"
    /// rule. Records are returned sorted by enumeration index (ties by
    /// file name) so the rendered report matches the live campaign's
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; per-entry problems are the
    /// skip count, not errors.
    pub fn records(&self) -> std::io::Result<(Vec<UnitRecord>, usize)> {
        let mut rows: Vec<(usize, PathBuf, UnitRecord)> = Vec::new();
        let mut skipped = 0usize;
        for raw in self.scan()? {
            let Some(hash) = raw.hash else {
                skipped += 1;
                continue;
            };
            let parsed = std::fs::read_to_string(&raw.path)
                .map_err(|e| format!("unreadable: {e}"))
                .and_then(|source| parse_entry(&source, Some(hash)).map(|parts| parts.record));
            match parsed {
                Ok(record) => rows.push((record.index, raw.path, record)),
                Err(_) => skipped += 1,
            }
        }
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        Ok((rows.into_iter().map(|(_, _, r)| r).collect(), skipped))
    }
}

/// One entry's file metadata (no contents read).
struct RawEntry {
    path: PathBuf,
    hash: Option<ContentHash>,
    bytes: u64,
    modified: Option<SystemTime>,
}

/// One surveyed cache entry ([`Cache::survey`]).
#[derive(Debug, Clone)]
pub struct EntrySurvey {
    /// Entry file path.
    pub path: PathBuf,
    /// Unit hash parsed from the file name (`None` for a malformed name).
    pub hash: Option<ContentHash>,
    /// File size in bytes.
    pub bytes: u64,
    /// Modification time, when the filesystem reports one.
    pub modified: Option<SystemTime>,
    /// Structural health.
    pub health: EntryHealth,
}

/// Structural health of one cache entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryHealth {
    /// Magic, version, embedded hash and checksum all check out.
    Ok {
        /// The payload kind recorded in the entry.
        kind: String,
    },
    /// The entry would be treated as a miss (the reason why).
    Corrupt(String),
}

/// What [`Cache::prune`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneOutcome {
    /// Entries present before pruning.
    pub scanned: usize,
    /// Entries deleted.
    pub deleted: usize,
    /// Bytes reclaimed.
    pub freed_bytes: u64,
    /// Entries remaining.
    pub kept: usize,
    /// Bytes remaining.
    pub kept_bytes: u64,
}

// ---------------------------------------------------------------------------
// Entry encoding.
// ---------------------------------------------------------------------------

fn payload_kind(payload: &UnitPayload) -> &'static str {
    match payload {
        UnitPayload::Design(_) => "design",
        UnitPayload::Infeasible { .. } => "infeasible",
        UnitPayload::TooFewTasks { .. } => "too-few-tasks",
        UnitPayload::Sweep(_) => "sweep",
        UnitPayload::Sim(_) => "simulate",
    }
}

fn encode_payload(payload: &UnitPayload) -> String {
    let mut s = String::new();
    match payload {
        UnitPayload::Design(out) => s.push_str(&codec::encode_outcome(out)),
        UnitPayload::Infeasible {
            best_tm_seconds,
            deadline_s,
        } => {
            codec::push_f64(&mut s, *best_tm_seconds);
            codec::push_f64(&mut s, *deadline_s);
        }
        UnitPayload::TooFewTasks { tasks, cores } => {
            codec::push_u64(&mut s, *tasks as u64);
            codec::push_u64(&mut s, *cores as u64);
        }
        UnitPayload::Sweep(points) => {
            codec::push_u64(&mut s, points.len() as u64);
            for p in points {
                s.push('\n');
                codec::push_mapping(&mut s, &p.mapping);
                codec::encode_evaluation(&mut s, &p.evaluation);
            }
        }
        UnitPayload::Sim(report) => encode_sim(&mut s, report),
    }
    s
}

fn encode_sim(s: &mut String, r: &SimSummary) {
    codec::push_f64(s, r.tm_seconds);
    codec::push_u64(s, u64::from(r.iterations));
    codec::push_u64(s, r.busy_s.len() as u64);
    for &b in &r.busy_s {
        codec::push_f64(s, b);
    }
    codec::push_u64(s, r.per_core.len() as u64);
    for c in &r.per_core {
        codec::push_u64(s, c.core.index() as u64);
        codec::push_u64(s, c.injected);
        codec::push_u64(s, c.experienced);
        codec::push_f64(s, c.expected_experienced);
        codec::push_u64(s, c.r_bits.as_u64());
        codec::push_f64(s, c.exposure_cycles);
    }
    codec::push_u64(s, r.total_injected);
    codec::push_u64(s, r.total_experienced);
    codec::push_f64(s, r.gamma_expected);
    codec::encode_evaluation(s, &r.analytic);
}

fn decode_sim(t: &mut Tokens<'_>) -> Result<SimSummary, CodecError> {
    let tm_seconds = t.next_f64()?;
    let iterations = t.next_u32()?;
    let n_busy = t.next_usize()?;
    let busy_s = (0..n_busy)
        .map(|_| t.next_f64())
        .collect::<Result<Vec<_>, _>>()?;
    let n_cores = t.next_usize()?;
    let per_core = (0..n_cores)
        .map(|_| {
            Ok(CoreFaults {
                core: sea_arch::CoreId::new(t.next_usize()?),
                injected: t.next_u64()?,
                experienced: t.next_u64()?,
                expected_experienced: t.next_f64()?,
                r_bits: sea_taskgraph::units::Bits::new(t.next_u64()?),
                exposure_cycles: t.next_f64()?,
            })
        })
        .collect::<Result<Vec<_>, CodecError>>()?;
    Ok(SimSummary {
        tm_seconds,
        iterations,
        busy_s,
        per_core,
        total_injected: t.next_u64()?,
        total_experienced: t.next_u64()?,
        gamma_expected: t.next_f64()?,
        analytic: codec::decode_evaluation(t)?,
    })
}

fn decode_payload(kind: &str, body: &str, unit: &Unit) -> Result<UnitPayload, CodecError> {
    match kind {
        "design" => {
            let arch = unit.optimizer_config().arch;
            Ok(UnitPayload::Design(Box::new(codec::decode_outcome(
                body, &arch,
            )?)))
        }
        "infeasible" => {
            let mut t = Tokens::new(body);
            let payload = UnitPayload::Infeasible {
                best_tm_seconds: t.next_f64()?,
                deadline_s: t.next_f64()?,
            };
            t.finish()?;
            Ok(payload)
        }
        "too-few-tasks" => {
            let mut t = Tokens::new(body);
            let payload = UnitPayload::TooFewTasks {
                tasks: t.next_usize()?,
                cores: t.next_usize()?,
            };
            t.finish()?;
            Ok(payload)
        }
        "sweep" => {
            let mut t = Tokens::new(body);
            let n = t.next_usize()?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(SweepPoint {
                    mapping: codec::decode_mapping(&mut t, unit.cores)?,
                    evaluation: codec::decode_evaluation(&mut t)?,
                });
            }
            t.finish()?;
            Ok(UnitPayload::Sweep(points))
        }
        "simulate" => {
            let mut t = Tokens::new(body);
            let summary = decode_sim(&mut t)?;
            t.finish()?;
            Ok(UnitPayload::Sim(Box::new(summary)))
        }
        other => Err(CodecError(format!("unknown payload kind `{other}`"))),
    }
}

fn checksum(prefix: &str) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write(prefix.as_bytes());
    h.finish()
}

fn encode_entry(result: &UnitResult, hash: ContentHash) -> String {
    let mut s = format!("sea-unit-cache {CACHE_VERSION} {}\n", hash.to_hex());
    s.push_str("record ");
    s.push_str(&json_record(&result.record));
    s.push('\n');
    s.push_str("payload ");
    s.push_str(payload_kind(&result.payload));
    s.push('\n');
    s.push_str(&encode_payload(&result.payload));
    s.push('\n');
    let sum = checksum(&s);
    s.push_str("end ");
    s.push_str(&sum.to_hex());
    s.push('\n');
    s
}

fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let pos = rest.find('\n')?;
    let line = &rest[..pos];
    *rest = &rest[pos + 1..];
    Some(line)
}

/// The structurally validated pieces of one entry, payload still encoded.
struct EntryParts<'a> {
    record: UnitRecord,
    kind: &'a str,
    body: &'a str,
}

/// Validates everything except the typed payload: checksum, magic line,
/// format version, embedded hash (against `expected` when given), the
/// record line and a known payload kind.
fn parse_entry(source: &str, expected: Option<ContentHash>) -> Result<EntryParts<'_>, String> {
    let end_pos = source.rfind("\nend ").ok_or("no checksum line")?;
    let prefix = &source[..=end_pos];
    let stored = source[end_pos + 5..].trim();
    let stored = ContentHash::parse_hex(stored).ok_or("malformed checksum")?;
    if stored != checksum(prefix) {
        return Err("checksum mismatch (truncated or corrupted entry)".into());
    }
    let mut rest = prefix;
    let magic = take_line(&mut rest).ok_or("missing magic line")?;
    let mut parts = magic.split_whitespace();
    if parts.next() != Some("sea-unit-cache") {
        return Err("not a cache entry".into());
    }
    if parts.next() != Some(CACHE_VERSION.to_string().as_str()) {
        return Err("unsupported cache version".into());
    }
    let entry_hash = parts
        .next()
        .and_then(ContentHash::parse_hex)
        .ok_or("malformed entry hash")?;
    if expected.is_some_and(|h| h != entry_hash) {
        return Err("entry hash does not match its key".into());
    }
    let record_line = take_line(&mut rest).ok_or("missing record line")?;
    let record_json = record_line
        .strip_prefix("record ")
        .ok_or("malformed record line")?;
    let record = parse_record_json(record_json)?;
    let payload_line = take_line(&mut rest).ok_or("missing payload line")?;
    let kind = payload_line
        .strip_prefix("payload ")
        .ok_or("malformed payload line")?;
    if !matches!(
        kind,
        "design" | "infeasible" | "too-few-tasks" | "sweep" | "simulate"
    ) {
        return Err(format!("unknown payload kind `{kind}`"));
    }
    Ok(EntryParts {
        record,
        kind,
        body: rest,
    })
}

/// Structural validation of one entry source without decoding the typed
/// payload (which needs the owning unit): checksum, magic, version,
/// embedded hash (against `expected` when given), record line and a known
/// payload kind. Returns the payload kind — what `sea-dse cache verify`
/// and the survey run.
///
/// # Errors
///
/// A human-readable reason the entry would be treated as a cache miss.
pub fn validate_entry(source: &str, expected: Option<ContentHash>) -> Result<&str, String> {
    parse_entry(source, expected).map(|parts| parts.kind)
}

fn decode_entry(source: &str, unit: &Unit, hash: ContentHash) -> Result<UnitResult, String> {
    let parts = parse_entry(source, Some(hash))?;
    let payload = decode_payload(parts.kind, parts.body, unit).map_err(|e| e.to_string())?;
    Ok(UnitResult::rebound(unit, payload, parts.record))
}

/// Encodes a completed unit result in the self-describing entry format —
/// record JSON, typed payload ([`sea_opt::codec`] and the local codecs)
/// and content checksum. This is both the cache's on-disk format and the
/// exact result payload `sea-dist` workers stream back to a coordinator.
#[must_use]
pub fn encode_result(result: &UnitResult) -> String {
    encode_entry(result, unit_hash(&result.unit))
}

/// Decodes an [`encode_result`] stream against the unit it must belong
/// to: the embedded hash has to equal `unit_hash(unit)` and the checksum
/// has to hold, so a coordinator can verify a worker's bytes against the
/// unit it dispatched. Presentation fields (index, scenario) are taken
/// from the live `unit`.
///
/// # Errors
///
/// A human-readable reason the stream cannot be trusted.
pub fn decode_result(source: &str, unit: &Unit) -> Result<UnitResult, String> {
    decode_entry(source, unit, unit_hash(unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{run_unit, AppRef, BudgetSpec, UnitKind};
    use sea_opt::SelectionPolicy;
    use sea_taskgraph::AppSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_cache() -> (PathBuf, Cache) {
        let dir = std::env::temp_dir().join(format!(
            "sea-cache-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let cache = Cache::open(&dir).unwrap();
        (dir, cache)
    }

    fn unit(kind: UnitKind, seed: u64) -> Unit {
        Unit {
            index: 3,
            scenario: "cache-test".into(),
            kind,
            app: AppRef::Spec(AppSpec::Fig8),
            cores: 3,
            levels: 3,
            budget: BudgetSpec::Fast,
            selection: SelectionPolicy::default(),
            seed,
        }
    }

    /// The paper's MPEG-2 design point on 4 cores, injected at seed 13.
    fn mpeg2_simulate_unit() -> Unit {
        let mut u = unit(
            UnitKind::Simulate {
                scaling: vec![2, 2, 3, 2],
                groups: vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7], vec![8], vec![9, 10]],
                ser: sea_arch::ser::PAPER_SER,
            },
            13,
        );
        u.app = AppRef::Spec(AppSpec::Mpeg2);
        u.cores = 4;
        u
    }

    fn assert_results_equal(a: &UnitResult, b: &UnitResult) {
        assert_eq!(json_record(&a.record), json_record(&b.record));
        match (&a.payload, &b.payload) {
            (UnitPayload::Design(x), UnitPayload::Design(y)) => {
                assert_eq!(
                    sea_opt::codec::encode_outcome(x),
                    sea_opt::codec::encode_outcome(y)
                );
            }
            (UnitPayload::Sweep(x), UnitPayload::Sweep(y)) => {
                assert_eq!(x.len(), y.len());
                for (p, q) in x.iter().zip(y) {
                    assert_eq!(p.mapping, q.mapping);
                    assert_eq!(p.evaluation, q.evaluation);
                }
            }
            (UnitPayload::Sim(x), UnitPayload::Sim(y)) => assert_eq!(x, y),
            (
                UnitPayload::Infeasible {
                    best_tm_seconds: a1,
                    deadline_s: a2,
                },
                UnitPayload::Infeasible {
                    best_tm_seconds: b1,
                    deadline_s: b2,
                },
            ) => {
                assert_eq!(a1.to_bits(), b1.to_bits());
                assert_eq!(a2.to_bits(), b2.to_bits());
            }
            (
                UnitPayload::TooFewTasks {
                    tasks: a1,
                    cores: a2,
                },
                UnitPayload::TooFewTasks {
                    tasks: b1,
                    cores: b2,
                },
            ) => {
                assert_eq!((a1, a2), (b1, b2));
            }
            (x, y) => panic!("payload kinds differ: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn design_sweep_and_simulate_entries_round_trip() {
        let (dir, cache) = temp_cache();
        let kinds = vec![
            // fig8 at 3 cores is deadline-infeasible under the paper
            // calibration → exercises the `infeasible` payload.
            unit(UnitKind::Optimize, 0x5EA),
            // mpeg2 at 4 cores is feasible → full `design` payload.
            {
                let mut u = unit(UnitKind::Optimize, 0x5EA);
                u.app = AppRef::Spec(AppSpec::Mpeg2);
                u.cores = 4;
                u
            },
            // 8 cores for fig8's 6 tasks → `too-few-tasks` payload.
            {
                let mut u = unit(UnitKind::Optimize, 0x5EA);
                u.cores = 8;
                u
            },
            unit(UnitKind::Sweep { count: 8, scale: 1 }, 42),
            mpeg2_simulate_unit(),
        ];
        for u in kinds {
            let fresh = run_unit(&u).unwrap();
            assert!(cache.load(&u).is_none(), "cold cache misses");
            cache.store(&fresh).unwrap();
            let restored = cache.load(&u).expect("warm cache hits");
            assert_results_equal(&fresh, &restored);
            assert_eq!(encode_result(&fresh), encode_result(&restored));
            if matches!(u.kind, UnitKind::Simulate { .. }) {
                // The summary without the 4,807 trace events and the
                // sampled SEU events (226,251 bytes with them).
                let bytes = std::fs::metadata(cache.entry_path(unit_hash(&u)))
                    .unwrap()
                    .len();
                assert!(bytes <= 4096, "simulate entry of {bytes} bytes");
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn entries_sealed_by_the_previous_version_are_misses_that_heal() {
        let (dir, cache) = temp_cache();
        let u = mpeg2_simulate_unit();
        let fresh = run_unit(&u).unwrap();
        let current = encode_result(&fresh);
        // Re-seal the entry under the previous version with a valid
        // checksum, as an older build would have written it.
        let prefix = &current[..=current.rfind("\nend ").unwrap()];
        let prefix = prefix.replacen(
            &format!("sea-unit-cache {CACHE_VERSION} "),
            &format!("sea-unit-cache {} ", CACHE_VERSION - 1),
            1,
        );
        let old = format!("{prefix}end {}\n", checksum(&prefix).to_hex());
        assert_eq!(
            validate_entry(&old, None),
            Err("unsupported cache version".into())
        );
        assert_eq!(
            decode_result(&old, &u).unwrap_err(),
            "unsupported cache version"
        );
        let path = cache.entry_path(unit_hash(&u));
        std::fs::write(&path, &old).unwrap();
        assert!(cache.load(&u).is_none(), "an old entry is a miss");
        cache.store(&fresh).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), current);
        assert_results_equal(&fresh, &cache.load(&u).expect("the store healed it"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn restored_records_take_the_live_units_presentation_fields() {
        let (dir, cache) = temp_cache();
        let u = unit(UnitKind::Optimize, 7);
        cache.store(&run_unit(&u).unwrap()).unwrap();
        let mut elsewhere = u.clone();
        elsewhere.index = 42;
        elsewhere.scenario = "another-campaign".into();
        let restored = cache.load(&elsewhere).expect("same content hash");
        assert_eq!(restored.record.index, 42);
        assert_eq!(restored.record.scenario, "another-campaign");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupted_and_truncated_entries_are_misses_not_crashes() {
        let (dir, cache) = temp_cache();
        let u = unit(UnitKind::Optimize, 9);
        cache.store(&run_unit(&u).unwrap()).unwrap();
        let path = cache.entry_path(unit_hash(&u));
        let good = std::fs::read_to_string(&path).unwrap();

        // Truncation (simulated torn write without the atomic rename).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(cache.load(&u).is_none(), "truncated entry is a miss");

        // Single-byte corruption in the payload body.
        let mut corrupt = good.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] = corrupt[mid].wrapping_add(1);
        std::fs::write(&path, corrupt).unwrap();
        assert!(cache.load(&u).is_none(), "corrupted entry is a miss");

        // Recompute-and-store heals the entry.
        cache.store(&run_unit(&u).unwrap()).unwrap();
        assert!(cache.load(&u).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn entries_do_not_cross_unit_identities() {
        let (dir, cache) = temp_cache();
        let a = unit(UnitKind::Optimize, 1);
        let b = unit(UnitKind::Optimize, 2); // different seed → different hash
        cache.store(&run_unit(&a).unwrap()).unwrap();
        assert!(cache.load(&b).is_none());
        // Renaming a's entry to b's key is detected by the embedded hash.
        std::fs::copy(
            cache.entry_path(unit_hash(&a)),
            cache.entry_path(unit_hash(&b)),
        )
        .unwrap();
        assert!(cache.load(&b).is_none(), "embedded hash check rejects");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn result_codec_round_trips_and_rejects_the_wrong_unit() {
        let u = unit(UnitKind::Optimize, 21);
        let fresh = run_unit(&u).unwrap();
        let encoded = encode_result(&fresh);
        let back = decode_result(&encoded, &u).expect("round trip");
        assert_results_equal(&fresh, &back);
        // Stable golden form: re-encoding is byte-identical.
        assert_eq!(encoded, encode_result(&back));
        // A different unit (different hash) must refuse the stream.
        let other = unit(UnitKind::Optimize, 22);
        assert!(decode_result(&encoded, &other).is_err());
        // Structural validation accepts it without knowing the unit.
        assert_eq!(validate_entry(&encoded, None), Ok("infeasible"));
        assert!(validate_entry(&encoded[..encoded.len() / 2], None).is_err());
    }

    #[test]
    fn survey_reports_health_and_prune_reclaims_entries() {
        let (dir, cache) = temp_cache();
        assert!(cache.survey().unwrap().is_empty());
        let a = unit(UnitKind::Optimize, 31);
        let b = unit(UnitKind::Optimize, 32);
        cache.store(&run_unit(&a).unwrap()).unwrap();
        cache.store(&run_unit(&b).unwrap()).unwrap();
        // A stray temp file is not an entry.
        std::fs::write(dir.join(".stray.tmp"), "junk").unwrap();
        // A mis-named `.unit` file can never be a cache hit: it must be
        // flagged corrupt, not reported healthy.
        let good_bytes = std::fs::read(cache.entry_path(unit_hash(&a))).unwrap();
        std::fs::write(dir.join("junk.unit"), &good_bytes).unwrap();
        let survey = cache.survey().unwrap();
        assert_eq!(survey.len(), 3);
        assert!(survey
            .iter()
            .any(|e| e.hash.is_none() && matches!(e.health, EntryHealth::Corrupt(_))));
        std::fs::remove_file(dir.join("junk.unit")).unwrap();

        let survey = cache.survey().unwrap();
        assert_eq!(survey.len(), 2);
        for entry in &survey {
            assert!(entry.hash.is_some());
            assert!(entry.bytes > 0);
            assert!(
                matches!(&entry.health, EntryHealth::Ok { kind } if kind == "infeasible"),
                "{:?}",
                entry.health
            );
        }

        // Corrupt one entry: survey flags it, load treats it as a miss.
        let victim = cache.entry_path(unit_hash(&a));
        let good = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &good[..good.len() - 10]).unwrap();
        let survey = cache.survey().unwrap();
        assert_eq!(
            survey
                .iter()
                .filter(|e| matches!(e.health, EntryHealth::Corrupt(_)))
                .count(),
            1
        );

        // No limits: prune deletes nothing.
        let noop = cache.prune(None, None).unwrap();
        assert_eq!((noop.scanned, noop.deleted), (2, 0));
        // A zero-byte budget reclaims everything.
        let all = cache.prune(None, Some(0)).unwrap();
        assert_eq!(all.deleted, 2);
        assert_eq!(all.kept, 0);
        assert!(all.freed_bytes > 0);
        assert!(cache.survey().unwrap().is_empty());
        // Age-based pruning: everything here is younger than an hour.
        cache.store(&run_unit(&b).unwrap()).unwrap();
        let aged = cache
            .prune(Some(std::time::Duration::from_secs(3600)), None)
            .unwrap();
        assert_eq!((aged.deleted, aged.kept), (0, 1));
        // ... and a zero age deletes it.
        let aged = cache
            .prune(Some(std::time::Duration::from_secs(0)), None)
            .unwrap();
        assert_eq!(aged.deleted, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn prune_clamps_future_mtimes_to_age_zero() {
        // Regression: a future mtime (clock skew, NFS) used to map to
        // age = Duration::MAX via `duration_since(..).ok()`, so the
        // freshest entries were treated as infinitely old and deleted
        // first under any --max-age.
        let (dir, cache) = temp_cache();
        let u = unit(UnitKind::Optimize, 51);
        cache.store(&run_unit(&u).unwrap()).unwrap();
        let path = cache.entry_path(unit_hash(&u));
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::now() + Duration::from_secs(3600))
            .unwrap();
        file.sync_all().unwrap();
        drop(file);
        // Even the tightest age limit must keep it: its age clamps to
        // zero, never to infinity.
        let outcome = cache.prune(Some(Duration::from_secs(0)), None).unwrap();
        assert_eq!((outcome.deleted, outcome.kept), (0, 1), "{outcome:?}");
        // Size-based pruning still reclaims it when asked.
        let outcome = cache.prune(None, Some(0)).unwrap();
        assert_eq!(outcome.deleted, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn records_reads_flat_records_without_decoding_payloads() {
        let (dir, cache) = temp_cache();
        let a = unit(UnitKind::Optimize, 61);
        let mut b = unit(UnitKind::Optimize, 62);
        b.index = 1; // sorts before a's index 3
        cache.store(&run_unit(&a).unwrap()).unwrap();
        cache.store(&run_unit(&b).unwrap()).unwrap();
        // A corrupt entry is skipped and counted, not an error.
        let victim = cache.entry_path(unit_hash(&a));
        let good = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &good[..good.len() - 10]).unwrap();
        let (records, skipped) = cache.records().unwrap();
        assert_eq!(skipped, 1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].index, 1);
        // Healed entry restores the full set, sorted by index.
        std::fs::write(&victim, &good).unwrap();
        let (records, skipped) = cache.records().unwrap();
        assert_eq!(skipped, 0);
        let indices: Vec<usize> = records.iter().map(|r| r.index).collect();
        assert_eq!(indices, vec![1, 3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resolve_without_flag_or_env_is_none() {
        // `resolve(None)` with SEA_CACHE unset must not touch the
        // filesystem at all.
        let saved = std::env::var(CACHE_ENV).ok();
        std::env::remove_var(CACHE_ENV);
        assert!(Cache::resolve(None).unwrap().is_none());
        // `--cache ""` (an unset shell variable) must not root a cache
        // at the current working directory.
        assert!(
            Cache::resolve(Some("")).unwrap().is_none(),
            "empty flag = unset"
        );
        std::env::set_var(CACHE_ENV, "");
        assert!(Cache::resolve(None).unwrap().is_none(), "empty = unset");
        match saved {
            Some(v) => std::env::set_var(CACHE_ENV, v),
            None => std::env::remove_var(CACHE_ENV),
        }
    }
}
