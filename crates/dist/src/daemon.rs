//! The coordinator: one event loop that multiplexes campaigns over a
//! shared TCP worker fleet, for a long-running daemon and for a single
//! in-process campaign alike.
//!
//! [`run_daemon`] accepts campaign *submissions* over the frame protocol
//! while it runs, until a client sends [`FrameKind::Stop`].
//! [`serve_units`] registers its caller's unit list as one in-process
//! campaign and returns that campaign's [`RunOutcome`] when it finishes.
//! Both run the same loop. It keeps one [`RunState`] per registered
//! campaign — the machine the in-process thread pool drives too, so the
//! dedupe/prefill/cache/journal decision is made once and every report
//! is byte-identical to a local `--jobs N` run — and schedules every
//! campaign's pending units onto whichever workers are connected.
//! Workers speak the worker dialect (Hello / Work / Result / Heartbeat);
//! clients speak the service verbs added in protocol version 2 (Submit /
//! Subscribe / Status / Cancel / Stop). The first frame on a connection
//! decides its dialect.
//!
//! **Fairness.** Dispatch walks the campaign registry round-robin: each
//! time a worker asks for work, the cursor starts at the campaign after
//! the one that last dispatched, so no submission starves behind an
//! earlier, larger one. Within a campaign, units leave in
//! [`dispatch_order`] — most expensive first, the same cost model as the
//! local pool. Results slot by enumeration index, so scheduling affects
//! wall-clock only, never a report.
//!
//! **Dedupe.** Within a campaign, [`RunState::plan`] groups units with
//! equal [`sea_campaign::unit_hash`] and queues only each group's
//! leader; its result completes the rest. Across campaigns, the hash
//! excludes the presentation fields (enumeration index, scenario label),
//! so identical units in different campaigns share one content hash. The
//! coordinator keeps a *followers* map from in-flight content hash to every
//! `(campaign, index)` pair interested in it: a unit about to be
//! dispatched whose hash is already in flight registers as a follower
//! instead, and the one verified result fans out to every follower,
//! rebound to each one's presentation fields ([`UnitOutcome::rebound`]).
//! Each distinct unit evaluates once.
//!
//! **Failure handling.** A worker that disconnects, stays silent past the
//! heartbeat timeout while holding a unit, or sends a result that does
//! not verify is dropped: its unit is re-queued for every campaign
//! waiting on it, and idle workers are fed at once. Every result is
//! decoded against the dispatched unit (embedded content hash, entry
//! checksum, payload decode) before it counts, so a corrupt stream costs
//! a connection, never a unit. A late result for a unit that completed
//! meanwhile is ignored ([`RunState::complete`] keeps the first).
//!
//! **Caching.** The shared content-addressed cache is probed at
//! *dispatch* time: a hit completes the unit without network traffic and
//! is attributed to the worker whose dispatch path probed it (a
//! worker-local hit on the unmodified wire is invisible to the
//! coordinator, so the dispatch-path probe is the honest per-worker
//! statistic). The probe decodes what the campaign reads
//! ([`sea_campaign::probe_cache`]): only the record, unless its
//! [`RunState`] needs payloads — submitted campaigns never do. A verified
//! result is published as the bytes the worker sent. The trade-off of
//! probing at dispatch rather than at submission: a fully-warm campaign
//! sends zero Work frames but still needs one connected worker to drain
//! its queue.
//!
//! **Durability.** With a journal directory configured, every submitted
//! campaign write-ahead journals to `<spec_hash>.jsonl` exactly like a
//! local `--resume` run; an in-process campaign journals to its caller's
//! writer. After a daemon restart, re-submitting the same spec resumes
//! from the journal: restored records stream first, only the missing
//! units are dispatched, and the final report is byte-identical.
//!
//! **Streaming.** Subscribers receive one [`FrameKind::Record`] per
//! completed unit, *released in enumeration order* (record `i` is held
//! back until every record before it has been released), then the final
//! [`FrameKind::Report`]. Holding the stream to enumeration order makes
//! the concatenation of streamed lines byte-identical to the final JSONL
//! report — and to a local `campaign --format jsonl` run of the same
//! spec — regardless of completion interleaving or other in-flight
//! campaigns.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use sea_campaign::{
    decode_result, dispatch_order, json_escape, json_record, jsonl_report, open_journal,
    parse_campaign, probe_cache, units_hash, Cache, CampaignError, Completion, ContentHash,
    NullSink, RunConfig, RunOutcome, RunState, Sink, Unit, UnitOutcome,
};

use crate::frame::{check_handshake, handshake_line, read_frame, write_frame, Frame, FrameKind};
use crate::{terr, wire};

/// Daemon configuration.
pub struct DaemonConfig {
    /// Shared content-addressed result cache, probed on the dispatch path
    /// and published to as verified results arrive. One cache serves
    /// every campaign.
    pub cache: Option<Cache>,
    /// Directory for per-campaign write-ahead journals, one
    /// `<spec_hash>.jsonl` per submitted spec. `None` disables
    /// durability (a daemon restart forgets progress the cache does not
    /// hold).
    pub journal_dir: Option<PathBuf>,
    /// How long a worker holding an in-flight unit may stay silent
    /// before it is presumed dead and its unit re-queued.
    pub heartbeat_timeout: Duration,
}

impl DaemonConfig {
    /// No cache, no journal directory, the default 30 s heartbeat
    /// timeout.
    #[must_use]
    pub fn new() -> Self {
        DaemonConfig {
            cache: None,
            journal_dir: None,
            heartbeat_timeout: Duration::from_secs(30),
        }
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig::new()
    }
}

/// [`serve_units`] configuration.
pub struct ServeConfig<'a> {
    /// The persistence configuration the local engine would run with.
    /// `run.jobs` is not used by the coordinator (workers bring their own
    /// capacity); `run.cache` is probed on the dispatch path and
    /// published to on receipt; `run.prefilled`/`run.journal` resume
    /// across the network.
    pub run: RunConfig<'a>,
    /// How long a worker holding an in-flight unit may stay completely
    /// silent before it is presumed dead and its unit re-queued. Workers
    /// heartbeat every ~2 s while evaluating, so this bounds detection
    /// latency, not unit duration.
    pub heartbeat_timeout: Duration,
}

impl<'a> ServeConfig<'a> {
    /// Wraps a [`RunConfig`] with the default 30 s heartbeat timeout.
    #[must_use]
    pub fn new(run: RunConfig<'a>) -> Self {
        ServeConfig {
            run,
            heartbeat_timeout: Duration::from_secs(30),
        }
    }
}

/// Per-worker fleet statistics, accumulated per connection.
///
/// A worker that reconnects after a daemon restart or dropped connection
/// gets a fresh connection id and therefore a fresh row — the stats
/// describe connection sessions, the unit of accounting the daemon can
/// actually observe.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Units this worker evaluated to a verified result.
    pub completed: usize,
    /// Cache hits probed on this worker's dispatch path (served without
    /// dispatching).
    pub cache_hits: usize,
    /// Hard unit errors this worker reported.
    pub errors: usize,
    /// Total wall time of this worker's completed units.
    pub busy: Duration,
}

impl WorkerStats {
    /// Mean wall time per completed unit, in milliseconds (0 when none
    /// completed).
    #[must_use]
    pub fn mean_unit_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            let n = self.completed as f64;
            self.busy.as_secs_f64() * 1000.0 / n
        }
    }
}

/// What the daemon did over its lifetime, returned when a
/// [`FrameKind::Stop`] shuts it down.
#[derive(Debug, Default)]
pub struct DaemonReport {
    /// Campaigns submitted (including re-attached duplicates only once).
    pub campaigns: usize,
    /// Campaigns that finished with a complete report.
    pub completed: usize,
    /// Campaigns cancelled by a client.
    pub cancelled: usize,
    /// Units evaluated by the fleet (one per verified result frame).
    pub evaluated: usize,
    /// Completions served by another unit's result: cross-campaign
    /// fan-out beyond each result's first completion, plus the
    /// within-campaign duplicates [`RunState`] completes from their
    /// group leader.
    pub deduped: usize,
    /// Per-connection worker statistics, connection-id ascending.
    pub workers: Vec<(u64, WorkerStats)>,
}

/// Runs the daemon on `listener` until a client sends
/// [`FrameKind::Stop`].
///
/// Workers and clients connect to the same port; the first frame on a
/// connection decides its dialect. Campaign reports are byte-identical
/// to a local `campaign --jobs N` run of the same spec, regardless of
/// worker count, connection churn or other in-flight campaigns.
///
/// # Errors
///
/// Transport setup failures and an unexpectedly closed event channel.
/// Per-campaign failures (journal append, hard unit errors) fail that
/// campaign's subscribers, not the daemon.
pub fn run_daemon(
    listener: &TcpListener,
    config: &DaemonConfig,
) -> Result<DaemonReport, CampaignError> {
    let mut coordinator = Coordinator::new(config.cache.as_ref(), config.journal_dir.as_deref());
    serve(listener, |rx| coordinator.run(rx, config.heartbeat_timeout))?;
    Ok(coordinator.report())
}

/// Runs a campaign's unit list through TCP workers connecting to
/// `listener`, streaming completions to `sink`.
///
/// The unit list becomes one in-process campaign on the coordinator's
/// event loop, under the caller's [`RunConfig`] as is (prefill, journal,
/// cache, `need_payloads`). `sink` sees [`Sink::begin`] with the number
/// of units this process completes, each completion in completion order,
/// and the final [`Sink::finish`]. Blocks until every unit has a
/// verified result — workers may join and leave freely; the coordinator
/// waits for capacity rather than failing when none is connected — then
/// shuts the fleet down. Outcomes are in enumeration order, so every
/// report rendered from them is byte-identical to
/// [`sea_campaign::run_units_configured`] on the same configuration.
///
/// # Errors
///
/// Transport setup failures, journal-append failures, the first (by
/// enumeration index) hard unit error reported by a worker — after all
/// other units have completed, exactly like the local engine — and a
/// client stopping the coordinator or cancelling the campaign before it
/// finishes.
pub fn serve_units(
    listener: &TcpListener,
    units: &[Unit],
    config: ServeConfig<'_>,
    sink: &mut dyn Sink,
) -> Result<RunOutcome, CampaignError> {
    let ServeConfig {
        run,
        heartbeat_timeout,
    } = config;
    let mut coordinator = Coordinator::new(run.cache, None);
    coordinator.register_local(units, run, sink);
    serve(listener, |rx| coordinator.run(rx, heartbeat_timeout))?;
    coordinator.campaigns[0].finished.take().unwrap_or_else(|| {
        Err(terr(
            "a client stopped the coordinator or cancelled the campaign before it finished",
        ))
    })
}

/// Events the listener/reader threads feed the event loop.
enum Event {
    /// A connection was accepted; the stream is the write half.
    Connected(u64, TcpStream),
    /// A frame arrived from a connected peer.
    Frame(u64, Frame),
    /// The peer's connection ended (clean close, reset, torn frame).
    Gone(u64),
}

/// Accepts connections on `listener` and runs `event_loop` (the
/// coordinator's, outside tests) on this thread until it returns. A
/// reader thread per connection feeds frames to the loop; teardown wakes
/// the listener and shuts every live connection down, so the threads can
/// join. The teardown runs from a drop guard, so a panicking loop still
/// releases the threads and the panic reaches the caller.
fn serve(
    listener: &TcpListener,
    event_loop: impl FnOnce(&mpsc::Receiver<Event>) -> Result<(), CampaignError>,
) -> Result<(), CampaignError> {
    let local_addr = listener
        .local_addr()
        .map_err(|e| terr(format!("cannot resolve the coordinator address: {e}")))?;
    // A listener bound to the unspecified address (0.0.0.0/[::]) is woken
    // via loopback — connecting *to* the unspecified address is not
    // portable.
    let mut wake_addr = local_addr;
    if wake_addr.ip().is_unspecified() {
        wake_addr.set_ip(match wake_addr.ip() {
            std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
            std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
        });
    }
    let stop = AtomicBool::new(false);
    // Every *live* connection's stream, registered by the listener thread
    // before its reader spawns and unregistered by the reader on exit:
    // the teardown sweep shuts the survivors down so readers blocked in
    // `read` unblock, while finished connections release their
    // descriptors at once (worker churn must not accumulate dead fds).
    let accepted: Mutex<HashMap<u64, TcpStream>> = Mutex::new(HashMap::new());
    let (tx, rx) = mpsc::channel::<Event>();

    std::thread::scope(|s| {
        let stop_ref = &stop;
        let accepted_ref = &accepted;
        let listener_handle = s.spawn(move || {
            let mut next_id = 0u64;
            loop {
                let Ok((stream, _addr)) = listener.accept() else {
                    break;
                };
                if stop_ref.load(Ordering::SeqCst) {
                    break; // the teardown wake-up
                }
                // Nagle would hold each small Work/Result/Heartbeat frame
                // back a round-trip; a socket that cannot take the option
                // is not worth a connection slot.
                if crate::configure_stream(&stream).is_err() {
                    continue;
                }
                let id = next_id;
                next_id += 1;
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                accepted_ref.lock().unwrap().insert(id, write_half);
                let Ok(write_half) = stream.try_clone() else {
                    accepted_ref.lock().unwrap().remove(&id);
                    continue;
                };
                if tx.send(Event::Connected(id, write_half)).is_err() {
                    break;
                }
                let tx = tx.clone();
                s.spawn(move || {
                    let mut stream = stream;
                    loop {
                        match read_frame(&mut stream) {
                            Ok(frame) => {
                                if tx.send(Event::Frame(id, frame)).is_err() {
                                    break;
                                }
                            }
                            Err(_) => {
                                let _ = tx.send(Event::Gone(id));
                                break;
                            }
                        }
                    }
                    accepted_ref.lock().unwrap().remove(&id);
                });
            }
        });
        let _teardown = Teardown {
            stop: &stop,
            wake_addr,
            listener: Some(listener_handle),
            accepted: &accepted,
        };
        event_loop(&rx)
    })
}

/// Ends [`serve`]'s transport threads when dropped, whether the event
/// loop returned or panicked.
struct Teardown<'scope, 'env> {
    stop: &'env AtomicBool,
    wake_addr: SocketAddr,
    listener: Option<ScopedJoinHandle<'scope, ()>>,
    accepted: &'env Mutex<HashMap<u64, TcpStream>>,
}

impl Drop for Teardown<'_, '_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake_addr);
        // Joined before the sweep, so no stream is registered after it.
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        let accepted = self.accepted.lock().unwrap_or_else(PoisonError::into_inner);
        for stream in accepted.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// What a connection has identified itself as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No frame seen yet.
    New,
    /// Sent a Hello: speaks the worker dialect.
    Worker,
    /// Sent a client verb: speaks the service dialect.
    Client,
}

/// The unit a worker is evaluating right now.
#[derive(Debug, Clone, Copy)]
struct Ticket {
    /// Registry position of the campaign whose unit body was dispatched.
    campaign: usize,
    /// Enumeration index within that campaign.
    index: usize,
    /// Content hash of the dispatched unit (the followers-map key).
    hash: ContentHash,
    /// Dispatch instant, for per-worker wall-time accounting.
    since: Instant,
}

/// Per-connection coordinator state.
struct Peer {
    stream: TcpStream,
    role: Role,
    ticket: Option<Ticket>,
    last_seen: Instant,
}

/// Sends a frame to a peer; a failed write means the peer is gone.
fn send(peer: &mut Peer, kind: FrameKind, body: &[u8]) -> bool {
    write_frame(&mut peer.stream, kind, body).is_ok()
}

/// Validates a client verb body (handshake line first) and returns the
/// payload after the newline (empty for bare verbs).
fn client_payload(frame: &Frame) -> Result<String, String> {
    let text =
        std::str::from_utf8(&frame.body).map_err(|_| "frame body is not UTF-8".to_string())?;
    let (line, rest) = text.split_once('\n').unwrap_or((text, ""));
    check_handshake(line.as_bytes())?;
    Ok(rest.to_string())
}

/// One registered campaign.
struct CampaignRun<'s> {
    name: String,
    spec_hash: ContentHash,
    units: Vec<Unit>,
    /// The engine state machine; `None` once finished or cancelled.
    state: Option<RunState>,
    /// Pending group leaders in cost-model dispatch order.
    queue: VecDeque<usize>,
    /// Record lines released to subscribers so far, in enumeration order.
    released: Vec<String>,
    /// Connection ids streaming this campaign.
    subscribers: Vec<u64>,
    /// The caller's sink for an in-process campaign; a submitted one has
    /// none.
    sink: Option<&'s mut dyn Sink>,
    /// `Ok(final JSONL report)` or `Err(reason)` once the campaign is
    /// over.
    outcome: Option<Result<String, String>>,
    /// An in-process campaign's finished run, handed back to its caller.
    finished: Option<Result<RunOutcome, CampaignError>>,
    /// Units with any completion (restored, evaluated, cache hit, error).
    done: usize,
    executed: usize,
    cache_hits: usize,
    resumed: usize,
    cancelled: bool,
}

impl<'s> CampaignRun<'s> {
    fn new(
        name: String,
        spec_hash: ContentHash,
        units: Vec<Unit>,
        state: RunState,
        sink: Option<&'s mut dyn Sink>,
    ) -> Self {
        CampaignRun {
            name,
            spec_hash,
            queue: dispatch_order(&units, state.pending()).into(),
            done: units.len() - state.outstanding(),
            resumed: state.resumed(),
            units,
            state: Some(state),
            released: Vec::new(),
            subscribers: Vec::new(),
            sink,
            outcome: None,
            finished: None,
            executed: 0,
            cache_hits: 0,
            cancelled: false,
        }
    }

    fn status_label(&self) -> &'static str {
        match &self.outcome {
            _ if self.cancelled => "cancelled",
            None => "running",
            Some(Ok(_)) => "complete",
            Some(Err(_)) => "failed",
        }
    }

    /// Records one completion (for a group leader, its followers' too)
    /// and drives the streaming and finishing consequences. Returns how
    /// many units it completed.
    fn complete(
        &mut self,
        index: usize,
        result: Result<UnitOutcome, CampaignError>,
        from_cache: bool,
        peers: &mut HashMap<u64, Peer>,
    ) -> usize {
        let Some(state) = self.state.as_mut() else {
            return 0;
        };
        let before = state.outstanding();
        let done = Completion {
            index,
            result,
            from_cache,
        };
        let ok = state.complete(done, self.sink.as_deref_mut().unwrap_or(&mut NullSink));
        let settled = before - state.outstanding();
        self.done += settled;
        if from_cache {
            self.cache_hits += settled;
        } else {
            self.executed += settled;
        }
        if ok {
            self.advance(peers);
        } else {
            // Journal append failed: the write-ahead guarantee is gone
            // for this campaign; fail it now (the others keep running).
            self.finish(peers);
        }
        settled
    }

    /// Releases the records now in order, and finishes the campaign once
    /// nothing is outstanding.
    fn advance(&mut self, peers: &mut HashMap<u64, Peer>) {
        let Some(state) = self.state.as_ref() else {
            return;
        };
        // Record `i` goes out only when every record before it is out, so
        // the streamed lines concatenate to exactly the final report.
        while let Some(record) = state.record(self.released.len()) {
            let line = json_record(record);
            self.subscribers.retain(|sub| {
                let Some(peer) = peers.get_mut(sub) else {
                    return false;
                };
                let sent = send(peer, FrameKind::Record, line.as_bytes());
                if !sent {
                    let _ = peer.stream.shutdown(Shutdown::Both);
                }
                sent
            });
            self.released.push(line);
        }
        if state.outstanding() == 0 {
            self.finish(peers);
        }
    }

    /// Finishes the campaign: renders the final report (or the failure),
    /// stores it for late subscribers, and releases current ones.
    fn finish(&mut self, peers: &mut HashMap<u64, Peer>) {
        let Some(state) = self.state.take() else {
            return;
        };
        let finished = state.finish(self.sink.as_deref_mut().unwrap_or(&mut NullSink));
        let outcome = match &finished {
            Ok(run) => Ok(jsonl_report(&run.records())),
            Err(e) => Err(e.to_string()),
        };
        let (kind, body) = closing_frame(&outcome);
        for sub in std::mem::take(&mut self.subscribers) {
            if let Some(peer) = peers.get_mut(&sub) {
                let _ = send(peer, kind, body.as_bytes());
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
        }
        if self.sink.is_some() {
            self.finished = Some(finished);
        } else {
            match &outcome {
                Ok(_) => eprintln!("daemon: campaign `{}` complete", self.name),
                Err(reason) => eprintln!("daemon: campaign `{}` failed: {reason}", self.name),
            }
        }
        self.outcome = Some(outcome);
    }

    /// Replays the released records to a new subscriber, then joins it to
    /// the live stream or hands it the stored outcome. Returns `false`
    /// when the peer is gone.
    fn subscribe(&mut self, id: u64, peer: &mut Peer) -> bool {
        for line in &self.released {
            if !send(peer, FrameKind::Record, line.as_bytes()) {
                return false;
            }
        }
        match &self.outcome {
            None => self.subscribers.push(id),
            Some(outcome) => {
                let (kind, body) = closing_frame(outcome);
                let _ = send(peer, kind, body.as_bytes());
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
        }
        true
    }
}

/// The frame that ends a subscription: the final report, or why the
/// campaign has none.
fn closing_frame(outcome: &Result<String, String>) -> (FrameKind, String) {
    match outcome {
        Ok(report) => (FrameKind::Report, report.clone()),
        Err(reason) => (FrameKind::Refuse, format!("campaign failed: {reason}")),
    }
}

/// The coordinator's state: the campaign registry, the connections and
/// the fleet-wide bookkeeping the event loop drives.
struct Coordinator<'s> {
    cache: Option<&'s Cache>,
    journal_dir: Option<&'s Path>,
    campaigns: Vec<CampaignRun<'s>>,
    peers: HashMap<u64, Peer>,
    /// In-flight content hash → every `(campaign, index)` waiting on it.
    followers: HashMap<ContentHash, Vec<(usize, usize)>>,
    stats: HashMap<u64, WorkerStats>,
    /// Units evaluated by the fleet.
    evaluated: usize,
    /// Completions served by another unit's result.
    deduped: usize,
    /// Round-robin dispatch position in `campaigns`.
    cursor: usize,
    /// A client sent Stop.
    stopping: bool,
}

impl<'s> Coordinator<'s> {
    fn new(cache: Option<&'s Cache>, journal_dir: Option<&'s Path>) -> Self {
        Coordinator {
            cache,
            journal_dir,
            campaigns: Vec::new(),
            peers: HashMap::new(),
            followers: HashMap::new(),
            stats: HashMap::new(),
            evaluated: 0,
            deduped: 0,
            cursor: 0,
            stopping: false,
        }
    }

    /// Registers [`serve_units`]' unit list as the in-process campaign
    /// (always the first), whose end stops the loop.
    fn register_local(&mut self, units: &[Unit], run: RunConfig<'_>, sink: &'s mut dyn Sink) {
        let RunConfig {
            jobs: _,
            cache: _,
            prefilled,
            need_payloads,
            journal,
        } = run;
        let state = RunState::plan(units, prefilled, need_payloads, journal);
        sink.begin(state.outstanding());
        let spec_hash = units_hash(units);
        let run = CampaignRun::new(
            "in-process".into(),
            spec_hash,
            units.to_vec(),
            state,
            Some(sink),
        );
        self.register(run);
    }

    /// Adds a campaign to the registry. Restored records release at once;
    /// a fully journaled campaign finishes without dispatching anything.
    fn register(&mut self, run: CampaignRun<'s>) -> usize {
        self.campaigns.push(run);
        let c = self.campaigns.len() - 1;
        self.campaigns[c].advance(&mut self.peers);
        c
    }

    /// Whether the loop goes on: until a client sends Stop, or until the
    /// in-process campaign, if there is one, is over.
    fn running(&self) -> bool {
        let local_over = self
            .campaigns
            .first()
            .is_some_and(|run| run.sink.is_some() && run.outcome.is_some());
        !self.stopping && !local_over
    }

    /// The event loop: runs until [`Coordinator::running`] says stop, then
    /// releases the fleet.
    fn run(
        &mut self,
        rx: &mpsc::Receiver<Event>,
        heartbeat_timeout: Duration,
    ) -> Result<(), CampaignError> {
        let tick = heartbeat_timeout
            .min(Duration::from_secs(1))
            .max(Duration::from_millis(50));
        // The stale sweep must run on schedule even when the event channel
        // is never idle (a large fleet heartbeats often enough that
        // `recv_timeout` would practically never time out), so it is
        // clocked by its own deadline, checked after every event.
        let mut last_sweep = Instant::now();
        while self.running() {
            match rx.recv_timeout(tick) {
                Ok(Event::Connected(id, stream)) => {
                    let peer = Peer {
                        stream,
                        role: Role::New,
                        ticket: None,
                        last_seen: Instant::now(),
                    };
                    self.peers.insert(id, peer);
                }
                Ok(Event::Frame(id, frame)) => self.on_frame(id, &frame),
                Ok(Event::Gone(id)) => self.drop_peer(id),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(terr("coordinator event channel closed unexpectedly"));
                }
            }
            if last_sweep.elapsed() >= tick {
                last_sweep = Instant::now();
                // Presume workers holding work silent past the timeout
                // dead; idle workers owe no liveness.
                let stale: Vec<u64> = self
                    .peers
                    .iter()
                    .filter(|(_, p)| {
                        p.ticket.is_some() && p.last_seen.elapsed() > heartbeat_timeout
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in stale {
                    self.drop_peer(id);
                }
            }
        }
        // Release the fleet cleanly and tell live subscribers.
        for peer in self.peers.values_mut() {
            if peer.role == Role::Worker {
                let _ = send(peer, FrameKind::Shutdown, &[]);
            }
        }
        for run in &mut self.campaigns {
            for sub in std::mem::take(&mut run.subscribers) {
                if let Some(peer) = self.peers.get_mut(&sub) {
                    let _ = send(peer, FrameKind::Refuse, b"daemon stopping");
                }
            }
        }
        Ok(())
    }

    fn on_frame(&mut self, id: u64, frame: &Frame) {
        let Some(peer) = self.peers.get_mut(&id) else {
            return; // already dropped
        };
        peer.last_seen = Instant::now();
        match (peer.role, frame.kind) {
            // ---- worker dialect ------------------------------------
            (Role::New, FrameKind::Hello) => match check_handshake(&frame.body) {
                Ok(()) => {
                    peer.role = Role::Worker;
                    self.stats.entry(id).or_default();
                    if send(peer, FrameKind::Welcome, handshake_line().as_bytes()) {
                        self.feed_idle();
                    } else {
                        self.drop_peer(id);
                    }
                }
                Err(reason) => self.refuse(id, &reason),
            },
            (Role::Worker, FrameKind::Heartbeat) => {}
            (Role::Worker, FrameKind::Result) => match self.accept_result(id, frame) {
                Ok(()) => self.feed_idle(),
                Err(reason) => self.refuse(id, &reason),
            },
            (Role::Worker, FrameKind::WorkError) => {
                if self.accept_work_error(id, frame) {
                    self.feed_idle();
                } else {
                    self.drop_peer(id);
                }
            }
            // ---- client dialect ------------------------------------
            (
                Role::New | Role::Client,
                FrameKind::Submit
                | FrameKind::Subscribe
                | FrameKind::Status
                | FrameKind::Cancel
                | FrameKind::Stop,
            ) => {
                peer.role = Role::Client;
                match client_payload(frame) {
                    Ok(payload) => self.on_verb(id, frame.kind, &payload),
                    Err(reason) => self.refuse(id, &reason),
                }
            }
            // Anything else is a protocol violation.
            _ => self.refuse(id, &format!("unexpected {:?} frame", frame.kind)),
        }
    }

    /// Answers one client verb.
    fn on_verb(&mut self, id: u64, verb: FrameKind, payload: &str) {
        let reply = match verb {
            FrameKind::Subscribe => return self.subscribe(id, payload),
            FrameKind::Submit => self.submit(payload).map(|body| (FrameKind::Accepted, body)),
            FrameKind::Status => Ok((FrameKind::StatusReport, self.status_json())),
            FrameKind::Cancel => self
                .campaign_id(payload)
                .map(|c| (FrameKind::Done, self.cancel(c))),
            _ => {
                self.stopping = true;
                Ok((
                    FrameKind::Done,
                    format!(
                        "daemon stopping: {} campaign(s), {} unit(s) evaluated",
                        self.campaigns.len(),
                        self.evaluated
                    ),
                ))
            }
        };
        match reply {
            Ok((kind, body)) => {
                let sent = self
                    .peers
                    .get_mut(&id)
                    .is_some_and(|peer| send(peer, kind, body.as_bytes()));
                if !sent {
                    self.drop_peer(id);
                }
            }
            Err(reason) => self.refuse(id, &reason),
        }
        // New pending units never reach idle workers by themselves.
        if verb == FrameKind::Submit {
            self.feed_idle();
        }
    }

    /// Streams campaign `payload` to client `id`: the records released
    /// so far, then the live stream or the stored outcome.
    fn subscribe(&mut self, id: u64, payload: &str) {
        match self.campaign_id(payload) {
            Ok(c) => {
                let Some(peer) = self.peers.get_mut(&id) else {
                    return;
                };
                if !self.campaigns[c].subscribe(id, peer) {
                    self.drop_peer(id);
                }
            }
            Err(reason) => self.refuse(id, &reason),
        }
    }

    /// Parses a client's 1-based campaign id into a registry position.
    fn campaign_id(&self, text: &str) -> Result<usize, String> {
        let text = text.trim();
        text.parse::<usize>()
            .ok()
            .and_then(|n| n.checked_sub(1))
            .filter(|&c| c < self.campaigns.len())
            .ok_or_else(|| format!("no campaign `{text}`"))
    }

    /// Registers a submitted spec (or attaches to the identical one
    /// already registered) and returns the Accepted reply body.
    fn submit(&mut self, spec: &str) -> Result<String, String> {
        let campaign = parse_campaign(spec).map_err(|e| e.to_string())?;
        let units = campaign.expand();
        if units.is_empty() {
            return Err("campaign expands to zero units".into());
        }
        let spec_hash = units_hash(&units);
        let n_units = units.len();
        let reply = |c: usize| format!("{} {} {}", c + 1, spec_hash.to_hex(), n_units);
        if let Some(c) = self.campaigns.iter().position(|r| r.spec_hash == spec_hash) {
            // Same expansion already registered: attach rather than
            // duplicate (re-submitting after a watch disconnect must not
            // re-run anything).
            return Ok(reply(c));
        }
        let (prefilled, journal) = match self.journal_dir {
            Some(dir) => {
                let path = dir.join(format!("{}.jsonl", spec_hash.to_hex()));
                let plan = open_journal(&path, &campaign.name, &units)
                    .map_err(|e| format!("cannot open the campaign journal: {e}"))?;
                (plan.prefilled, Some(plan.writer))
            }
            None => (Vec::new(), None),
        };
        let state = RunState::plan(&units, prefilled, false, journal);
        let run = CampaignRun::new(campaign.name, spec_hash, units, state, None);
        eprintln!(
            "daemon: campaign {} `{}` accepted ({} units, {} resumed)",
            self.campaigns.len() + 1,
            run.name,
            n_units,
            run.resumed
        );
        Ok(reply(self.register(run)))
    }

    /// Cancels one campaign: clears its queue, detaches its follower
    /// interest, and disconnects workers whose in-flight unit no other
    /// campaign wants (the drop trips the worker's cooperative cancel
    /// flag, stopping the evaluation at the next chunk boundary; the
    /// worker reconnects on its own).
    fn cancel(&mut self, c: usize) -> String {
        let run = &mut self.campaigns[c];
        if let Some(outcome) = &run.outcome {
            let over = if outcome.is_ok() { "complete" } else { "over" };
            return format!("campaign {} already {over}", c + 1);
        }
        run.cancelled = true;
        run.queue.clear();
        run.state = None; // drops the journal writer; the journal stays on disk
        run.outcome = Some(Err("cancelled".into()));
        let reply = format!(
            "campaign {} cancelled ({}/{} units completed)",
            c + 1,
            run.done,
            run.units.len()
        );
        let notice = format!("campaign {} cancelled", c + 1);
        for sub in std::mem::take(&mut run.subscribers) {
            if let Some(peer) = self.peers.get_mut(&sub) {
                let _ = send(peer, FrameKind::Refuse, notice.as_bytes());
                let _ = peer.stream.shutdown(Shutdown::Both);
            }
        }
        // Strip this campaign's interest; a hash left with no followers is
        // work nobody wants — disconnect the worker holding it.
        let mut orphaned: Vec<ContentHash> = Vec::new();
        self.followers.retain(|hash, list| {
            list.retain(|&(fc, _)| fc != c);
            if list.is_empty() {
                orphaned.push(*hash);
            }
            !list.is_empty()
        });
        let victims: Vec<u64> = self
            .peers
            .iter()
            .filter(|(_, p)| p.ticket.is_some_and(|t| orphaned.contains(&t.hash)))
            .map(|(&id, _)| id)
            .collect();
        for id in victims {
            self.drop_peer(id);
        }
        eprintln!("daemon: {reply}");
        reply
    }

    /// Claims the next dispatchable unit for worker `id`, walking
    /// campaigns round-robin from the cursor. Units whose hash is already
    /// in flight register as followers; cache hits complete at once
    /// (attributed to `id`); the claimed unit's hash enters the followers
    /// map before returning.
    fn next_work(&mut self, id: u64) -> Option<(usize, usize, ContentHash)> {
        let n = self.campaigns.len();
        for step in 0..n {
            let c = (self.cursor + step) % n;
            loop {
                let run = &mut self.campaigns[c];
                let Some(state) = run.state.as_ref() else {
                    break;
                };
                let Some(i) = run.queue.pop_front() else {
                    break;
                };
                if state.is_filled(i) {
                    continue;
                }
                let (hash, need_payloads) = (state.hash(i), state.needs_payloads());
                if let Some(list) = self.followers.get_mut(&hash) {
                    // Already evaluating on some worker (possibly for
                    // another campaign): ride that evaluation instead of
                    // dispatching a duplicate.
                    list.push((c, i));
                    continue;
                }
                let hit = self
                    .cache
                    .and_then(|cache| probe_cache(cache, &run.units[i], hash, need_payloads));
                if let Some(outcome) = hit {
                    if let Some(ws) = self.stats.get_mut(&id) {
                        ws.cache_hits += 1;
                    }
                    let settled = run.complete(i, Ok(outcome), true, &mut self.peers);
                    self.deduped += settled.saturating_sub(1);
                    continue;
                }
                self.followers.insert(hash, vec![(c, i)]);
                self.cursor = (c + 1) % n;
                return Some((c, i, hash));
            }
        }
        None
    }

    /// Dispatches the next unit to worker `id`. Returns `false` when the
    /// write failed; the claim is then undone.
    fn dispatch_to(&mut self, id: u64) -> bool {
        let Some((c, i, hash)) = self.next_work(id) else {
            return true; // no work: stay idle
        };
        let body = wire::encode_work(i, hash, &self.campaigns[c].units[i]);
        let sent = self.peers.get_mut(&id).is_some_and(|peer| {
            let sent = send(peer, FrameKind::Work, body.as_bytes());
            if sent {
                let since = Instant::now();
                peer.ticket = Some(Ticket {
                    campaign: c,
                    index: i,
                    hash,
                    since,
                });
                peer.last_seen = since;
            }
            sent
        });
        if !sent {
            self.followers.remove(&hash);
            self.campaigns[c].queue.push_front(i);
        }
        sent
    }

    /// Gives queued work to every greeted, idle worker, dropping each one
    /// whose write fails (its claim goes to the next idle worker).
    fn feed_idle(&mut self) {
        loop {
            let mut idle: Vec<u64> = self
                .peers
                .iter()
                .filter(|(_, p)| p.role == Role::Worker && p.ticket.is_none())
                .map(|(&id, _)| id)
                .collect();
            idle.sort_unstable();
            let dead: Vec<u64> = idle
                .into_iter()
                .filter(|&id| !self.dispatch_to(id))
                .collect();
            if dead.is_empty() {
                return;
            }
            for id in dead {
                self.remove_peer(id);
            }
        }
    }

    /// The one way a connection leaves: close its stream, re-queue its
    /// in-flight unit for every campaign waiting on it, forget its
    /// subscriptions, and feed idle workers — the re-queued unit may be
    /// the only work left while another worker idles.
    fn drop_peer(&mut self, id: u64) {
        self.remove_peer(id);
        self.feed_idle();
    }

    /// [`Coordinator::drop_peer`] without the feeding.
    fn remove_peer(&mut self, id: u64) {
        let Some(peer) = self.peers.remove(&id) else {
            return;
        };
        let _ = peer.stream.shutdown(Shutdown::Both);
        if let Some(ticket) = peer.ticket {
            for (c, i) in self.followers.remove(&ticket.hash).unwrap_or_default() {
                let run = &mut self.campaigns[c];
                if run.state.as_ref().is_some_and(|s| !s.is_filled(i)) {
                    run.queue.push_front(i);
                }
            }
        }
        for run in &mut self.campaigns {
            run.subscribers.retain(|&s| s != id);
        }
    }

    /// Refuses a peer with `reason` and drops it.
    fn refuse(&mut self, id: u64, reason: &str) {
        if let Some(peer) = self.peers.get_mut(&id) {
            let _ = send(peer, FrameKind::Refuse, reason.as_bytes());
        }
        self.drop_peer(id);
    }

    /// Verifies a worker's result against its ticket and fans the
    /// completion out to every follower of the unit's content hash.
    /// `Err` carries why the bytes could not be trusted.
    fn accept_result(&mut self, id: u64, frame: &Frame) -> Result<(), String> {
        // NOTE: the ticket is cleared only once the result verifies. Every
        // `Err` return leaves it set, so the peer's removal re-queues the
        // unit for every follower — a corrupt stream must cost a
        // connection, never a unit.
        let ticket = self
            .peers
            .get(&id)
            .and_then(|p| p.ticket)
            .ok_or("result frame but no unit dispatched")?;
        let text = frame.text().map_err(|e| e.to_string())?;
        let (index, claimed, entry) = wire::decode_result_body(text).map_err(|e| e.to_string())?;
        if ticket.index != index {
            return Err(format!(
                "result for unit {index} but unit {} was dispatched to this worker",
                ticket.index
            ));
        }
        if claimed != ticket.hash {
            return Err(format!(
                "result claims hash {}, dispatched {}",
                claimed.to_hex(),
                ticket.hash.to_hex()
            ));
        }
        // Full verification against the unit actually dispatched:
        // embedded hash, entry checksum, payload decode.
        let primary = decode_result(entry, &self.campaigns[ticket.campaign].units[index])
            .map_err(|e| format!("unverifiable result: {e}"))?;
        if let Some(peer) = self.peers.get_mut(&id) {
            peer.ticket = None;
        }
        let ws = self.stats.entry(id).or_default();
        ws.completed += 1;
        ws.busy += ticket.since.elapsed();
        if let Some(cache) = self.cache {
            // The verified bytes are the entry: publish them as they are.
            // Best-effort: a full disk must not fail a campaign.
            let _ = cache.publish(ticket.hash, entry);
        }
        self.evaluated += 1;
        let primary = UnitOutcome::Full(primary);
        let mut settled = 0;
        for (c, i) in self.followers.remove(&ticket.hash).unwrap_or_default() {
            let run = &mut self.campaigns[c];
            // Every follower has the dispatched unit's content hash, so
            // the verified result is its result too, rebound to the
            // presentation fields (index, scenario) of *its* campaign.
            let outcome = primary.rebound(&run.units[i]);
            settled += run.complete(i, Ok(outcome), false, &mut self.peers);
        }
        self.deduped += settled.saturating_sub(1);
        Ok(())
    }

    /// Fails the unit a worker reported a hard error for, for every
    /// follower. Returns `false` when the report does not match the
    /// worker's ticket.
    fn accept_work_error(&mut self, id: u64, frame: &Frame) -> bool {
        let Some(peer) = self.peers.get_mut(&id) else {
            return false;
        };
        let decoded = wire::decode_work_error(frame.text().unwrap_or(""));
        let (Ok((index, message)), Some(ticket)) = (decoded, peer.ticket) else {
            return false;
        };
        if ticket.index != index {
            return false;
        }
        peer.ticket = None;
        self.stats.entry(id).or_default().errors += 1;
        for (c, i) in self.followers.remove(&ticket.hash).unwrap_or_default() {
            let error = terr(format!("worker reported unit {i} failed: {message}"));
            self.campaigns[c].complete(i, Err(error), false, &mut self.peers);
        }
        true
    }

    /// Renders the status report: per-campaign progress, per-worker fleet
    /// stats, fleet totals.
    fn status_json(&self) -> String {
        let mut out = String::from("{\"campaigns\":[");
        for (c, run) in self.campaigns.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"spec_hash\":\"{}\",\"state\":\"{}\",\
                 \"units\":{},\"done\":{},\"executed\":{},\"cache_hits\":{},\"resumed\":{}}}",
                c + 1,
                json_escape(&run.name),
                run.spec_hash.to_hex(),
                run.status_label(),
                run.units.len(),
                run.done,
                run.executed,
                run.cache_hits,
                run.resumed,
            ));
        }
        out.push_str("],\"workers\":[");
        let mut ids: Vec<u64> = self.stats.keys().copied().collect();
        ids.sort_unstable();
        for (k, id) in ids.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let ws = &self.stats[id];
            out.push_str(&format!(
                "{{\"worker\":{},\"completed\":{},\"cache_hits\":{},\"errors\":{},\"mean_unit_ms\":{:.3}}}",
                id,
                ws.completed,
                ws.cache_hits,
                ws.errors,
                ws.mean_unit_ms(),
            ));
        }
        out.push_str(&format!(
            "],\"fleet\":{{\"evaluated\":{},\"deduped\":{}}}}}",
            self.evaluated, self.deduped
        ));
        out
    }

    /// What the coordinator did over its lifetime.
    fn report(self) -> DaemonReport {
        let mut workers: Vec<(u64, WorkerStats)> = self.stats.into_iter().collect();
        workers.sort_unstable_by_key(|&(id, _)| id);
        DaemonReport {
            campaigns: self.campaigns.len(),
            completed: self
                .campaigns
                .iter()
                .filter(|r| matches!(r.outcome, Some(Ok(_))))
                .count(),
            cancelled: self.campaigns.iter().filter(|r| r.cancelled).count(),
            evaluated: self.evaluated,
            deduped: self.deduped,
            workers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn a_panicking_event_loop_surfaces_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                serve(&listener, |events| {
                    // Panic with the listener blocked in `accept` and a
                    // reader blocked in `read`.
                    assert!(matches!(events.recv(), Ok(Event::Connected(..))));
                    panic!("event loop failure");
                })
            }));
            let _ = done_tx.send(outcome.is_err());
        });
        let _peer = TcpStream::connect(addr).unwrap();
        let panicked = done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("serve returned within 5 s");
        assert!(panicked, "the event loop's panic reached the caller");
        server.join().unwrap();
    }
}
