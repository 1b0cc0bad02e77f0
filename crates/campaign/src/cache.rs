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
//!
//! Readers decode only what they read. A run that needs typed payloads
//! (the experiment harnesses behind `reproduce`, and TCP workers, which
//! ship the entry) decodes all of it ([`Cache::load`]). A run that does
//! not (`sea-dse campaign`, `serve`, every daemon-submitted campaign)
//! takes a *record-only* hit ([`Cache::load_record`]): checksum, magic,
//! version, embedded hash, record line and payload kind, but no payload
//! decode — so it cannot heal a payload that passes the checksum yet
//! does not decode, which a run that reads payloads still treats as a
//! miss and rewrites. `sea-dse report` and `cache verify` read records
//! the same way ([`Cache::records`], [`validate_entry`]).
//!
//! Every entry read opens the file and reads it whole, without asking the
//! kernel for its size. The directory scans behind `sea-dse report
//! <cache-dir>`, `cache verify` and `cache stats` ([`Cache::records`],
//! [`Cache::survey`]) read and check entries on
//! [`sea_opt::default_jobs`] threads of [`sea_taskgraph::par`], then
//! sort what they found, so their output does not depend on the thread
//! count.

use std::io::Read as _;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use sea_baselines::sweep::SweepPoint;
use sea_opt::codec::{self, CodecError, Tokens};
use sea_sim::fault::CoreFaults;
use sea_sim::SimSummary;
use sea_taskgraph::par::par;

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

    /// Looks a unit up, typed payload and all. Any miss, parse failure,
    /// checksum mismatch or shape incompatibility returns `None` — the
    /// caller recomputes.
    #[must_use]
    pub fn load(&self, unit: &Unit) -> Option<UnitResult> {
        let hash = unit_hash(unit);
        let source = read_entry(&self.entry_path(hash)).ok()?;
        decode_entry(&source, unit, hash).ok()
    }

    /// Looks up only the record of `unit`, whose [`unit_hash`] is `hash`,
    /// rebound to the unit's own index and scenario: the cache hit of a
    /// run that reads no payloads. The entry passes every check of
    /// [`Cache::load`] but the payload decode — checksum, magic, version,
    /// embedded hash, record line and a known payload kind — so a payload
    /// that passes the checksum yet does not decode is a hit here and a
    /// miss there.
    #[must_use]
    pub fn load_record(&self, unit: &Unit, hash: ContentHash) -> Option<UnitRecord> {
        debug_assert_eq!(hash, unit_hash(unit), "`hash` is another unit's");
        let source = read_entry(&self.entry_path(hash)).ok()?;
        let parts = parse_entry(&source, Some(hash)).ok()?;
        Some(parts.record.rebound(unit))
    }

    /// Publishes a completed unit result (atomic rename; best-effort —
    /// the pool ignores failures, a full disk must not fail a campaign).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors for callers that do care (tests).
    pub fn store(&self, result: &UnitResult) -> std::io::Result<()> {
        let hash = unit_hash(&result.unit);
        self.publish(hash, &encode_entry(result, hash))
    }

    /// Publishes the entry bytes of the unit with `hash`: a temp file,
    /// then an atomic rename. [`Cache::store`] publishes the entry it
    /// encodes; a coordinator publishes the bytes a worker sent, once
    /// [`decode_result`] has verified them against the dispatched unit.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn publish(&self, hash: ContentHash, entry: &str) -> std::io::Result<()> {
        // Per-store unique temp name: pid separates processes, the
        // counter separates same-process workers storing the *same* unit
        // hash (possible when two scenarios contain content-identical
        // units) — without it, one worker's fs::write could truncate the
        // file another worker is mid-rename on.
        static STORE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            hash.to_hex(),
            std::process::id(),
            STORE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, entry)?;
        std::fs::rename(&tmp, self.entry_path(hash))
    }

    /// Surveys every `<hash>.unit` entry in the cache directory: size,
    /// modification time and structural health (magic, version, embedded
    /// hash vs. file name, checksum, record line — everything except the
    /// typed payload, which needs the owning unit to decode). Entries are
    /// read on [`sea_opt::default_jobs`] threads and returned sorted by
    /// file name, so reports are deterministic.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; per-entry read failures are
    /// reported as [`EntryHealth::Corrupt`], not errors.
    pub fn survey(&self) -> std::io::Result<Vec<EntrySurvey>> {
        self.survey_on(sea_opt::default_jobs())
    }

    /// [`Cache::survey`] on up to `jobs` threads.
    fn survey_on(&self, jobs: usize) -> std::io::Result<Vec<EntrySurvey>> {
        let mut entries = Vec::new();
        scan_files(
            &self.entry_files()?,
            jobs,
            |path, hash| {
                // A file whose name is not a unit hash can never be a
                // cache hit (lookups derive paths from hashes), so it is
                // unhealthy no matter what it contains.
                let health = if hash.is_none() {
                    EntryHealth::Corrupt("file name is not a 32-hex-digit unit hash".into())
                } else {
                    match read_entry(path) {
                        Ok(source) => match validate_entry(&source, hash) {
                            Ok(kind) => EntryHealth::Ok {
                                kind: kind.to_string(),
                            },
                            Err(e) => EntryHealth::Corrupt(e),
                        },
                        Err(e) => EntryHealth::Corrupt(format!("unreadable: {e}")),
                    }
                };
                let (bytes, modified) = stat(path);
                EntrySurvey {
                    path: path.to_path_buf(),
                    hash,
                    bytes,
                    modified,
                    health,
                }
            },
            |_, entry| entries.push(entry),
        );
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Every `.unit` file in the directory and the unit hash its name
    /// parses to (`None` for a malformed name) — names only, no metadata
    /// and no contents.
    fn entry_files(&self) -> std::io::Result<Vec<(PathBuf, Option<ContentHash>)>> {
        let mut files = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".unit") else {
                continue; // temp files, strays — not entries
            };
            let hash = ContentHash::parse_hex(stem);
            files.push((path, hash));
        }
        Ok(files)
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
        let mut entries: Vec<RawEntry> = self
            .entry_files()?
            .into_iter()
            .map(|(path, _)| {
                let (bytes, modified) = stat(&path);
                RawEntry {
                    path,
                    bytes,
                    modified,
                }
            })
            .collect();
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
    /// decoded and nothing is re-evaluated. Entries are read on
    /// [`sea_opt::default_jobs`] threads, and no entry's metadata is
    /// queried. Corrupt or mis-named entries are skipped and counted,
    /// mirroring the "a bad entry is a miss" rule. Records are returned
    /// sorted by enumeration index (ties by file name) so the rendered
    /// report matches the live campaign's order.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures; per-entry problems are the
    /// skip count, not errors.
    pub fn records(&self) -> std::io::Result<(Vec<UnitRecord>, usize)> {
        self.records_on(sea_opt::default_jobs())
    }

    /// [`Cache::records`] on up to `jobs` threads.
    fn records_on(&self, jobs: usize) -> std::io::Result<(Vec<UnitRecord>, usize)> {
        let files = self.entry_files()?;
        let mut rows: Vec<(usize, usize, UnitRecord)> = Vec::with_capacity(files.len());
        let mut skipped = 0usize;
        scan_files(
            &files,
            jobs,
            |path, hash| {
                let hash = hash?;
                let source = read_entry(path).ok()?;
                parse_entry(&source, Some(hash))
                    .ok()
                    .map(|parts| parts.record)
            },
            |k, parsed| match parsed {
                Some(record) => rows.push((record.index, k, record)),
                None => skipped += 1,
            },
        );
        rows.sort_by(|a, b| (a.0, &files[a.1].0).cmp(&(b.0, &files[b.1].0)));
        Ok((rows.into_iter().map(|(_, _, r)| r).collect(), skipped))
    }
}

/// Runs `read` on every entry file of `files` on up to `jobs` threads of
/// [`par`] and hands each `(position in files, result)` to `collect` on
/// this thread.
fn scan_files<T: Send>(
    files: &[(PathBuf, Option<ContentHash>)],
    jobs: usize,
    read: impl Fn(&Path, Option<ContentHash>) -> T + Sync,
    mut collect: impl FnMut(usize, T),
) {
    let order: Vec<usize> = (0..files.len()).collect();
    par(
        jobs,
        &order,
        |k| read(&files[k].0, files[k].1),
        |k, result| {
            collect(k, result);
            ControlFlow::Continue(())
        },
    );
}

/// One entry's file metadata (no contents read).
struct RawEntry {
    path: PathBuf,
    bytes: u64,
    modified: Option<SystemTime>,
}

/// Size and modification time of the file at `path`, as a directory
/// listing reports them (a symlink is not followed); `(0, None)` when
/// the query fails.
fn stat(path: &Path) -> (u64, Option<SystemTime>) {
    match std::fs::symlink_metadata(path) {
        Ok(m) => (m.len(), m.modified().ok()),
        Err(_) => (0, None),
    }
}

/// Initial read buffer of [`read_entry`]: simulate entries are about
/// 1.4 KiB and design entries about 11 KiB.
const ENTRY_READ_BYTES: usize = 8 << 10;

/// Reads one entry file whole. Unlike `std::fs::read_to_string`, it asks
/// the kernel for no size (no `statx`, no `lseek`): a read into a
/// pre-sized buffer plus the read that returns 0 is the whole cost of a
/// typical entry. Invalid UTF-8 is the error `read_to_string` reports.
fn read_entry(path: &Path) -> std::io::Result<String> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; ENTRY_READ_BYTES];
    let mut len = 0;
    loop {
        if len == buf.len() {
            buf.resize(2 * len, 0);
        }
        match file.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => len += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    buf.truncate(len);
    String::from_utf8(buf).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// One surveyed cache entry ([`Cache::survey`]).
#[derive(Debug, Clone, PartialEq, Eq)]
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
            // The count is input: the points grow as they decode.
            let n = t.next_usize()?;
            let points = (0..n)
                .map(|_| {
                    Ok(SweepPoint {
                        mapping: codec::decode_mapping(&mut t, unit.cores)?,
                        evaluation: codec::decode_evaluation(&mut t)?,
                    })
                })
                .collect::<Result<Vec<_>, CodecError>>()?;
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

/// True for exactly the token `CACHE_VERSION.to_string()` spells,
/// without allocating it: `parse` also takes `+4` and `04`, but those are
/// longer than the canonical decimal form.
fn is_current_version(token: &str) -> bool {
    const DIGITS: usize = CACHE_VERSION.ilog10() as usize + 1;
    token.len() == DIGITS && token.parse() == Ok(CACHE_VERSION)
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
    if !parts.next().is_some_and(is_current_version) {
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

    /// `entry` with the `token`-th token of its payload replaced by
    /// `value`, sealed with a valid checksum.
    fn forge_payload(entry: &str, token: usize, value: &str) -> String {
        let prefix = &entry[..=entry.rfind("\nend ").unwrap()];
        let payload_line = prefix.find("\npayload ").unwrap() + 1;
        let body = payload_line + prefix[payload_line..].find('\n').unwrap() + 1;
        // Each piece is one token and the separator after it.
        let mut pieces: Vec<String> = prefix[body..]
            .split_inclusive([' ', '\n'])
            .map(str::to_string)
            .collect();
        let separator = pieces[token].pop().unwrap();
        pieces[token] = format!("{value}{separator}");
        let prefix = format!("{}{}", &prefix[..body], pieces.concat());
        format!("{prefix}end {}\n", checksum(&prefix).to_hex())
    }

    #[test]
    fn forged_payload_counts_are_errors_not_allocations() {
        // The sweep point count, and an MPEG-2 outcome's explored count.
        let sweep = unit(UnitKind::Sweep { count: 8, scale: 1 }, 42);
        let mut design = unit(UnitKind::Optimize, 0x5EA);
        design.app = AppRef::Spec(AppSpec::Mpeg2);
        design.cores = 4;
        for (u, token) in [(&sweep, 0), (&design, 2)] {
            let result = run_unit(u).unwrap();
            let count = match &result.payload {
                UnitPayload::Sweep(points) => points.len(),
                UnitPayload::Design(out) => out.explored.len(),
                other => panic!("unexpected payload {other:?}"),
            };
            let entry = encode_result(&result);
            // The token is the count: putting its own value back reseals
            // the same bytes.
            assert_eq!(forge_payload(&entry, token, &count.to_string()), entry);
            for count in ["18446744073709551615", "4000000000000"] {
                let forged = forge_payload(&entry, token, count);
                assert!(validate_entry(&forged, None).is_ok(), "sealed");
                assert!(decode_result(&forged, u).is_err(), "count {count}");
            }
        }
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
    fn scans_agree_across_thread_counts() {
        let (dir, cache) = temp_cache();
        // Enough entries for every thread count below to read several:
        // one result sealed under many keys, stored out of index order.
        let result = run_unit(&unit(UnitKind::Optimize, 70)).unwrap();
        let n = 53;
        for k in 0..n {
            let mut r = result.clone();
            r.record.index = n - 1 - k;
            let hash = ContentHash(0x5ca0 + k as u128);
            cache.publish(hash, &encode_entry(&r, hash)).unwrap();
        }
        // One entry of each kind a scan must skip or flag: a truncated
        // entry, a mis-named `.unit` file, a temp file and a stray file.
        let victim = cache.entry_path(ContentHash(0x5ca0));
        let good = std::fs::read_to_string(&victim).unwrap();
        std::fs::write(&victim, &good[..good.len() / 2]).unwrap();
        std::fs::write(dir.join("not-a-hash.unit"), &good).unwrap();
        std::fs::write(dir.join(".0123.1.2.tmp"), &good).unwrap();
        std::fs::write(dir.join("README"), "stray").unwrap();

        let render = |(records, skipped): (Vec<UnitRecord>, usize)| {
            let lines: Vec<String> = records.iter().map(json_record).collect();
            (lines, skipped)
        };
        let (lines, skipped) = render(cache.records_on(1).unwrap());
        assert_eq!(skipped, 2, "the truncated and the mis-named entry");
        let expected: Vec<String> = (0..n - 1).map(|i| format!("{{\"index\":{i},")).collect();
        let got: Vec<String> = lines
            .iter()
            .map(|l| l[..l.find(',').unwrap() + 1].to_string())
            .collect();
        assert_eq!(got, expected);
        let survey = cache.survey_on(1).unwrap();
        assert_eq!(survey.len(), n + 1);
        let corrupt = survey
            .iter()
            .filter(|e| matches!(e.health, EntryHealth::Corrupt(_)))
            .count();
        assert_eq!(corrupt, 2);
        for jobs in [2, 3, 16] {
            assert_eq!(
                render(cache.records_on(jobs).unwrap()),
                (lines.clone(), skipped),
                "jobs={jobs}"
            );
            assert_eq!(cache.survey_on(jobs).unwrap(), survey, "jobs={jobs}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn entry_reads_match_read_to_string() {
        let (dir, _cache) = temp_cache();
        // Empty, within the first buffer, exactly one buffer, and
        // several buffers long.
        for len in [0, 100, ENTRY_READ_BYTES, 3 * ENTRY_READ_BYTES + 5] {
            let text: String = "entry é\n".chars().cycle().take(len).collect();
            let path = dir.join(format!("{len}.unit"));
            std::fs::write(&path, &text).unwrap();
            assert_eq!(read_entry(&path).unwrap(), text, "len={len}");
        }
        // Failures read as `read_to_string` reports them, which is what
        // `cache verify` prints.
        let path = dir.join("latin1.unit");
        std::fs::write(&path, b"caf\xe9\n").unwrap();
        let missing = dir.join("missing.unit");
        for path in [path, missing] {
            assert_eq!(
                read_entry(&path).unwrap_err().to_string(),
                std::fs::read_to_string(&path).unwrap_err().to_string()
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn only_the_canonical_version_token_is_current() {
        let v = CACHE_VERSION;
        assert!(is_current_version(&v.to_string()));
        for token in [
            String::new(),
            format!("0{v}"),
            format!("+{v}"),
            format!(" {v}"),
            format!("{v} "),
            format!("{v}{v}"),
            (v + 1).to_string(),
            (v - 1).to_string(),
        ] {
            assert!(!is_current_version(&token), "{token:?}");
        }
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
