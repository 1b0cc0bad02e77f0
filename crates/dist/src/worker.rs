//! The worker: connects to a coordinator, evaluates dispatched units, and
//! streams results back.
//!
//! A worker evaluates through [`sea_campaign::produce_unit_cancellable`]
//! — the path the in-process thread-pool workers run (optional local
//! cache probe, evaluation, best-effort cache publication) — so a unit
//! computes the same bytes no matter which machine runs it. While a unit
//! evaluates, the connection stays live with periodic
//! [`FrameKind::Heartbeat`] frames so the coordinator can tell "slow"
//! from "dead".
//!
//! Resilience: a lost connection is a *session* failure, not a worker
//! failure. [`run_worker`] reconnects with exponential backoff (100 ms
//! doubling to ~2 s) inside a fresh [`WorkerConfig::connect_retry`]
//! window after every loss, so a coordinator (or daemon) restart
//! mid-campaign keeps its fleet: workers rejoin as soon as the listener
//! is back. Only a clean [`FrameKind::Shutdown`], a protocol violation,
//! or an exhausted reconnect window ends the worker. A heartbeat that
//! fails mid-evaluation additionally trips the unit's cooperative cancel
//! flag ([`sea_campaign::produce_unit_cancellable`]) so the in-flight
//! evaluation stops at the next scaling-chunk boundary instead of
//! finishing a result nobody can receive.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sea_campaign::{encode_result, produce_unit_cancellable, Cache, CampaignError, UnitOutcome};

use crate::frame::{
    check_handshake, handshake_line, read_frame, write_frame, FrameError, FrameKind,
};
use crate::terr;
use crate::wire;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerConfig<'a> {
    /// Optional local result cache, probed before evaluating and
    /// published to after — shares work across campaigns exactly like the
    /// local engine's `--cache`.
    pub cache: Option<&'a Cache>,
    /// Worker threads for each unit's own scaling enumeration (the
    /// outcome is job-count invariant; this only trades wall-clock).
    pub inner_jobs: usize,
    /// How often to heartbeat while evaluating.
    pub heartbeat_interval: Duration,
    /// Keep retrying each connect for this long: the initial one (workers
    /// often start before their coordinator listens) and every reconnect
    /// after a lost connection (coordinators restart). The window is
    /// fresh per loss, so a long campaign tolerates any number of
    /// restarts as long as each outage is shorter than this.
    pub connect_retry: Duration,
    /// Test hook: after this many completed units, drop the connection
    /// without replying the next time work arrives — simulates a worker
    /// killed mid-unit.
    pub abandon_after: Option<usize>,
}

impl Default for WorkerConfig<'_> {
    fn default() -> Self {
        WorkerConfig {
            cache: None,
            inner_jobs: 1,
            heartbeat_interval: Duration::from_secs(2),
            connect_retry: Duration::from_secs(10),
            abandon_after: None,
        }
    }
}

/// What a worker did before disconnecting. Aggregated across every
/// session when the worker reconnects after a lost coordinator.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Units evaluated (or served from the worker's local cache).
    pub completed: usize,
    /// Completions served from the worker-side cache.
    pub cache_hits: usize,
    /// Whether the worker left deliberately (a clean [`FrameKind::Shutdown`]
    /// from the coordinator, or the `abandon_after` test hook).
    pub clean_exit: bool,
    /// Sessions re-established after a lost connection.
    pub reconnects: usize,
}

/// Connects with exponential backoff (100 ms doubling to ~2 s between
/// attempts) until `retry` elapses. A `retry` past what the clock can
/// represent never elapses.
fn connect(addr: &str, retry: Duration) -> Result<TcpStream, CampaignError> {
    let deadline = Instant::now().checked_add(retry);
    let mut delay = Duration::from_millis(100);
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                crate::configure_stream(&stream)
                    .map_err(|e| terr(format!("cannot configure the dispatch socket: {e}")))?;
                return Ok(stream);
            }
            Err(e) if deadline.is_none_or(|d| Instant::now() < d) => {
                let _ = e;
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(2));
            }
            Err(e) => return Err(terr(format!("cannot connect to coordinator {addr}: {e}"))),
        }
    }
}

/// How one connected session ended.
enum SessionEnd {
    /// The coordinator sent a clean shutdown (or the abandon hook fired):
    /// the worker is done.
    Clean,
    /// The connection died (close, reset, torn frame, failed write) —
    /// reconnect and keep serving.
    Lost(String),
}

/// Connects to a coordinator, serves dispatched units until a clean
/// shutdown — reconnecting with backoff after every lost connection —
/// and reports what it did across all sessions.
///
/// # Errors
///
/// Initial-connect and reconnect windows exhausted, handshake refusals
/// (version skew), and protocol violations. A lost connection alone is
/// *not* an error: the coordinator re-queues the in-flight unit and the
/// worker rejoins when the listener returns.
pub fn run_worker(addr: &str, config: &WorkerConfig<'_>) -> Result<WorkerReport, CampaignError> {
    let mut report = WorkerReport::default();
    let mut lost_reason: Option<String> = None;
    loop {
        let mut stream = match connect(addr, config.connect_retry) {
            Ok(stream) => stream,
            Err(e) => match lost_reason {
                // A restart outage longer than the window: surface both
                // the original loss and the failed reconnect.
                Some(reason) => {
                    return Err(terr(format!("{reason}; reconnect failed: {e}")));
                }
                None => return Err(e),
            },
        };
        if lost_reason.take().is_some() {
            report.reconnects += 1;
        }
        match serve_session(&mut stream, config, &mut report)? {
            SessionEnd::Clean => {
                report.clean_exit = true;
                return Ok(report);
            }
            SessionEnd::Lost(reason) => lost_reason = Some(reason),
        }
    }
}

/// One handshake-to-disconnect session on an established connection.
fn serve_session(
    stream: &mut TcpStream,
    config: &WorkerConfig<'_>,
    report: &mut WorkerReport,
) -> Result<SessionEnd, CampaignError> {
    if write_frame(stream, FrameKind::Hello, handshake_line().as_bytes()).is_err() {
        return Ok(SessionEnd::Lost("coordinator gone before greeting".into()));
    }
    match read_frame(stream) {
        Ok(frame) if frame.kind == FrameKind::Welcome => {
            check_handshake(&frame.body).map_err(terr)?;
        }
        Ok(frame) if frame.kind == FrameKind::Refuse => {
            return Err(terr(format!(
                "coordinator refused the connection: {}",
                frame.text().map(str::to_owned).unwrap_or_default()
            )));
        }
        Ok(frame) => {
            return Err(terr(format!(
                "expected a welcome, got a {:?} frame",
                frame.kind
            )));
        }
        Err(e) => return Ok(SessionEnd::Lost(format!("handshake failed: {e}"))),
    }

    loop {
        let frame = match read_frame(stream) {
            Ok(frame) => frame,
            Err(FrameError::Closed) => {
                return Ok(SessionEnd::Lost(
                    "coordinator closed the connection mid-campaign".into(),
                ));
            }
            Err(e) => return Ok(SessionEnd::Lost(format!("connection lost: {e}"))),
        };
        match frame.kind {
            FrameKind::Shutdown => return Ok(SessionEnd::Clean),
            FrameKind::Refuse => {
                return Err(terr(format!(
                    "coordinator refused: {}",
                    frame.text().map(str::to_owned).unwrap_or_default()
                )));
            }
            FrameKind::Work => {
                if config.abandon_after.is_some_and(|n| report.completed >= n) {
                    // Test hook: vanish mid-unit, exactly like a killed
                    // process — no reply, just a dropped connection.
                    return Ok(SessionEnd::Clean);
                }
                let (index, _hash, unit) = wire::decode_work(
                    frame
                        .text()
                        .map_err(|e| terr(format!("work frame is not UTF-8: {e}")))?,
                )
                .map_err(|e| terr(format!("refusing work item: {e}")))?;

                let done = match evaluate_with_heartbeats(
                    stream,
                    index,
                    &unit,
                    config.cache,
                    config.inner_jobs,
                    config.heartbeat_interval,
                ) {
                    Ok(done) => done,
                    // The only failure path in there is a dead heartbeat
                    // write: the coordinator is gone, the unit's cancel
                    // flag is tripped, the result (if any) is undeliverable.
                    Err(reason) => return Ok(SessionEnd::Lost(reason)),
                };
                match done.result {
                    Ok(UnitOutcome::Restored(_)) => {
                        unreachable!("produce_unit_cancellable probes for full results")
                    }
                    Ok(UnitOutcome::Full(result)) => {
                        let entry = encode_result(&result);
                        let body = wire::encode_result_body(
                            index,
                            sea_campaign::unit_hash(&result.unit),
                            &entry,
                        );
                        if body.len() > crate::frame::MAX_FRAME_LEN as usize {
                            // An unshippable result must become a hard
                            // unit error, not a dead worker — dying here
                            // would make the coordinator re-queue the
                            // unit onto the next worker, killing the
                            // whole fleet one by one and hanging the
                            // campaign.
                            let msg = format!(
                                "result of {} bytes exceeds the {}-byte frame limit",
                                body.len(),
                                crate::frame::MAX_FRAME_LEN
                            );
                            let body = wire::encode_work_error(index, &msg);
                            if write_frame(stream, FrameKind::WorkError, body.as_bytes()).is_err() {
                                return Ok(SessionEnd::Lost("cannot send error report".into()));
                            }
                            continue;
                        }
                        if write_frame(stream, FrameKind::Result, body.as_bytes()).is_err() {
                            return Ok(SessionEnd::Lost("cannot send result".into()));
                        }
                        report.completed += 1;
                        if done.from_cache {
                            report.cache_hits += 1;
                        }
                    }
                    Err(CampaignError::Opt(sea_opt::OptError::Cancelled)) => {
                        // Cancellation only fires from the heartbeat path,
                        // which already returned Lost; reaching here means
                        // the flag tripped on the final chunk boundary
                        // while the send still worked — treat as lost so
                        // the unit is re-queued, never reported failed.
                        return Ok(SessionEnd::Lost("unit cancelled mid-connection".into()));
                    }
                    Err(e) => {
                        let body = wire::encode_work_error(index, &e.to_string());
                        if write_frame(stream, FrameKind::WorkError, body.as_bytes()).is_err() {
                            return Ok(SessionEnd::Lost("cannot send error report".into()));
                        }
                    }
                }
            }
            other => {
                return Err(terr(format!("unexpected {other:?} frame from coordinator")));
            }
        }
    }
}

/// Evaluates one unit on a helper thread while the calling thread keeps
/// the connection alive with heartbeats. A failed heartbeat trips the
/// unit's cooperative cancel flag before returning, so the evaluation
/// thread — which this scope must join — exits at the next
/// scaling-chunk boundary rather than finishing a result nobody will
/// receive.
fn evaluate_with_heartbeats(
    stream: &mut TcpStream,
    index: usize,
    unit: &sea_campaign::Unit,
    cache: Option<&Cache>,
    inner_jobs: usize,
    heartbeat_interval: Duration,
) -> Result<sea_campaign::Completion, String> {
    let cancel = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let eval_cancel = Arc::clone(&cancel);
        s.spawn(move || {
            let _ = tx.send(produce_unit_cancellable(
                index,
                unit,
                cache,
                inner_jobs.max(1),
                Some(&eval_cancel),
            ));
        });
        loop {
            match rx.recv_timeout(heartbeat_interval) {
                Ok(done) => return Ok(done),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Err(e) = write_frame(stream, FrameKind::Heartbeat, &[]) {
                        cancel.store(true, Ordering::Relaxed);
                        return Err(format!("cannot heartbeat (coordinator gone?): {e}"));
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    cancel.store(true, Ordering::Relaxed);
                    return Err("unit evaluation thread died".into());
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_retry_the_clock_cannot_represent_still_connects() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        assert!(connect(&addr, Duration::MAX).is_ok());
    }
}
