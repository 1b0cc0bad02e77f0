//! Distributed campaign execution over TCP: a coordinator fans unit work
//! items across any number of connecting workers.
//!
//! The campaign layer made every unit location-transparent: a [`Unit`] is
//! a pure function of its own fields, its identity is a stable content
//! hash ([`sea_campaign::unit_hash`]), and a completed result has a
//! bitwise-exact wire encoding ([`sea_campaign::encode_result`], the same
//! bytes the result cache stores). Scaling out is therefore pure
//! transport work, and this crate is that transport — hand-rolled on
//! `std::net::{TcpListener, TcpStream}`, zero external dependencies:
//!
//! * [`frame`] — a length-prefixed, versioned frame protocol. Torn
//!   frames, oversized lengths and garbage bytes are rejected with
//!   errors, never panics.
//! * [`wire`] — the work, result and work-error frame bodies. A work
//!   item carries the unit's canonical encoding
//!   ([`sea_campaign::encode_unit`], with harness-built applications fully
//!   inlined), the same tokens its content hash covers, so a worker
//!   recomputes exactly the hash its coordinator sent.
//! * [`daemon`] — the one coordinator: an event loop over a listener
//!   and a shared worker fleet, keeping one [`sea_campaign::RunState`]
//!   per campaign — the unit-source/result-slot machine the in-process
//!   thread pool drives too. Results slot by enumeration index, stream
//!   to the sink in completion order, and append to the write-ahead
//!   journal exactly once, so final reports are **byte-identical** to a
//!   local `--jobs N` run for any worker count, join/leave order or
//!   network interleaving. Each distinct unit evaluates once, within a
//!   campaign and across concurrent ones. Worker disconnects and
//!   heartbeat timeouts re-queue in-flight units; `--resume` journals
//!   and the shared result cache work across the network boundary.
//!   [`run_daemon`] runs it as a long-lived service accepting
//!   wire-submitted campaigns; [`serve_units`] runs one in-process
//!   campaign and returns when it is done.
//! * [`worker`] — [`run_worker`] connects, evaluates
//!   dispatched units through the exact
//!   [`sea_campaign::produce_unit`] path the thread-pool workers run
//!   (cache probe, evaluation, cache publication), and streams results
//!   back while heartbeating.
//!
//! [`run_distributed_local`] wires a localhost coordinator to N
//! in-process workers — the path `reproduce --distributed` and the
//! integration tests use.
//!
//! [`Unit`]: sea_campaign::Unit

pub mod daemon;
pub mod frame;
pub mod wire;
pub mod worker;

pub use daemon::{run_daemon, serve_units, DaemonConfig, DaemonReport, ServeConfig, WorkerStats};
pub use worker::{run_worker, WorkerConfig, WorkerReport};

use std::net::TcpListener;

use sea_campaign::{CampaignError, RunConfig, RunOutcome, Sink, Unit};

/// Builds the [`CampaignError::Transport`] this crate reports with.
pub(crate) fn terr(msg: impl Into<String>) -> CampaignError {
    CampaignError::Transport(msg.into())
}

/// Socket options every dispatch connection runs with, applied by the
/// coordinator on accept and the worker on connect. `TCP_NODELAY` is
/// essential here: the protocol exchanges small Work/Result/Heartbeat
/// frames in a strict request/response rhythm, exactly the pattern
/// Nagle's algorithm holds back a round-trip at a time.
///
/// # Errors
///
/// Propagates the `setsockopt` failure.
pub fn configure_stream(stream: &std::net::TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)
}

/// Runs `units` through a localhost coordinator ([`serve_units`]) plus
/// `workers` in-process TCP workers — the full network path on one
/// machine. The coordinator owns the persistence configuration
/// (`config.cache` is probed on the dispatch path and published to on
/// receipt; `config.prefilled`/`journal` resume across the network
/// boundary); `config.jobs` is handed to each worker as its inner job
/// count. The outcome — and every report rendered
/// from it — is byte-identical to [`sea_campaign::run_units_configured`]
/// on the same configuration.
///
/// # Errors
///
/// Propagates coordinator errors: transport failures, journal-append
/// failures, and the first (by enumeration index) hard unit error.
pub fn run_distributed_local(
    units: &[Unit],
    config: RunConfig<'_>,
    workers: usize,
    sink: &mut dyn Sink,
) -> Result<RunOutcome, CampaignError> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| terr(format!("cannot bind a localhost coordinator: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| terr(format!("cannot resolve the coordinator address: {e}")))?;
    let inner_jobs = config.jobs.max(1);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(move || {
                // The listener is up before any worker starts, so the
                // first connect needs no retry window, and a reconnect
                // fails at once after the listener is gone. A worker that
                // only reached the backlog when the campaign finished
                // thus ends at once instead of retrying for seconds.
                let worker_config = WorkerConfig {
                    inner_jobs,
                    connect_retry: std::time::Duration::ZERO,
                    ..WorkerConfig::default()
                };
                // A worker that loses its connection mid-campaign is the
                // coordinator's problem (it re-queues); nothing to do here.
                let _ = run_worker(&addr.to_string(), &worker_config);
            });
        }
        let result = serve_units(&listener, units, ServeConfig::new(config), sink);
        // A campaign can finish before every worker was greeted (a warm
        // cache drains on the first one, a fully journaled one on none):
        // the rest then sit in the listen backlog awaiting a welcome.
        // Closing the listener resets them so the workers unblock and
        // the scope can join.
        drop(listener);
        result
    })
}
