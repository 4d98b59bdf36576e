//! The gateway: TCP front door speaking TDWP, one Hyper-Q session per
//! connection (paper Figure 1b / §4.1 Gateway Manager + Protocol Handler).
//!
//! Per request the gateway records the three stage timings of the paper's
//! Figure 9: **query translation** (parse/bind/transform/serialize),
//! **execution** (target database), and **result transformation**
//! (TDF → client binary format, streamed to the socket batch by batch).
//!
//! A connection is served by two threads. After logon one long-lived
//! reader thread is the only reader of the socket: it applies an
//! `AbortRequest` the moment it arrives and hands every other frame to the
//! session thread over a channel. The session thread runs the statements,
//! owns the governor's thread-local scope, and writes every response.

use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_core::backend::Backend;
use hyperq_core::targets::TargetProfile;
use hyperq_core::repair::ProberHandle;
use hyperq_core::replicate::{ReplicaConfig, ReplicatedBackend};
use hyperq_core::resilience::{ResilienceConfig, TargetLink};
use hyperq_core::{
    AnalyzeMode, CacheConfig, ConformanceMode, HyperQ, HyperQBuilder, HyperQError, ObsContext,
    TranslationCache,
};
use hyperq_governor::{CancelReason, GovernorConfig, GovernorRegistry, QueryGovernor};
use hyperq_obs::io::{CountingReader, CountingWriter};
use hyperq_obs::{Counter, Gauge};
use parking_lot::{Condvar, Mutex};

use crate::admission::{AdmissionConfig, AdmissionGate, ShedReason};
use crate::auth::{fresh_salt, Credentials};
use crate::convert::{stream_traced, BatchSink, ConverterConfig};
use crate::message::{Message, WireError};

/// Decrements a gauge when dropped — keeps `sessions_active` honest on
/// every exit path of `handle_connection`, including protocol errors.
struct GaugeGuard(Arc<Gauge>);

impl GaugeGuard {
    fn acquire(gauge: Arc<Gauge>) -> GaugeGuard {
        gauge.add(1);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Aggregated per-stage timings across all requests served (Figure 9's
/// three components).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    pub requests: u64,
    pub translation: Duration,
    pub execution: Duration,
    pub conversion: Duration,
    pub rows_returned: u64,
}

impl WireStats {
    pub fn end_to_end(&self) -> Duration {
        self.translation + self.execution + self.conversion
    }

    /// Percentage shares of total response time, as plotted in Figure 9.
    pub fn shares(&self) -> (f64, f64, f64) {
        let total = self.end_to_end().as_secs_f64().max(f64::MIN_POSITIVE);
        (
            100.0 * self.translation.as_secs_f64() / total,
            100.0 * self.execution.as_secs_f64() / total,
            100.0 * self.conversion.as_secs_f64() / total,
        )
    }

    pub fn merge(&mut self, other: &WireStats) {
        self.requests += other.requests;
        self.translation += other.translation;
        self.execution += other.execution;
        self.conversion += other.conversion;
        self.rows_returned += other.rows_returned;
    }
}

/// Gateway configuration.
pub struct GatewayConfig {
    pub credentials: Credentials,
    /// Registry name of the target profile every session translates for
    /// (`"simwh"`, `"simwh-reduced"`, `"cloud-a"`, ... — see
    /// [`hyperq_core::targets::lookup`]). An unrecognized name falls back
    /// to the default `simwh` profile at gateway construction.
    pub target: String,
    pub converter: ConverterConfig,
    /// Hard cap on concurrent sessions; connections beyond it are answered
    /// with a wire error and closed instead of queueing unboundedly.
    pub max_connections: usize,
    /// Socket read/write timeout: a client that stalls mid-protocol for
    /// longer than this has its session reaped instead of leaking the
    /// worker thread forever. `None` disables.
    pub io_timeout: Option<Duration>,
    /// How long `shutdown()` waits for in-flight sessions to finish.
    /// The default is zero — shutdown only stops the acceptor, matching
    /// callers that keep clients open across `shutdown()`.
    pub drain_timeout: Duration,
    /// Retry/breaker policy of the gateway's link to the backend, shared by
    /// all sessions so the breaker sees the target's aggregate health.
    /// `None` sends every request as a single attempt. On a replicated
    /// gateway (`replicas` non-empty) this same policy is applied *per
    /// replica* inside the replica set, unless `replica_config.resilience`
    /// explicitly overrides it.
    pub resilience: Option<ResilienceConfig>,
    /// Static-analysis mode for every session's pipeline. The gateway
    /// defaults to `LogOnly`: violations are counted in the metrics
    /// registry but never fail live traffic. CI and tests run `Strict`.
    pub analyze: AnalyzeMode,
    /// Capability-conformance lint mode over serialized SQL for every
    /// session's pipeline, same Off/LogOnly/Strict ladder as `analyze`.
    pub conformance: ConformanceMode,
    /// Admission queueing in front of the connection cap (and optionally a
    /// statement-concurrency cap): excess work waits in a bounded FIFO for
    /// up to `admission_timeout` before being shed with a distinct wire
    /// error. `None` (or a zero-length connection queue) hard-rejects at
    /// the cap like the pre-queue gateway.
    pub admission: Option<AdmissionConfig>,
    /// Translation-cache configuration. One cache is shared by every
    /// session the gateway serves — the cache key carries the per-session
    /// settings and catalog epochs, so sharing is safe across sessions
    /// with divergent `SET` state. `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Bind address for the read-only observability HTTP endpoint
    /// (`/metrics`, `/provenance`, `/report`, …), e.g. `"127.0.0.1:0"`
    /// for an ephemeral port. `None` (the default) serves no endpoint.
    pub obs_http: Option<String>,
    /// Per-query lifecycle governance: default deadlines, per-query and
    /// gateway-global memory budgets, watchdog sweep cadence, and whether
    /// the observability endpoint may cancel queries.
    pub governor: GovernorConfig,
    /// Additional warehouse replicas. When non-empty, the gateway serves
    /// a [`ReplicatedBackend`] over the primary (replica `r0`) plus these:
    /// reads load-balance, writes broadcast, fenced replicas self-heal via
    /// the write-repair journal and the background health prober. The
    /// `resilience` policy then applies *per replica* inside the replica
    /// set instead of on the one shared link, so a retry storm against a
    /// sick replica cannot trip the breaker for its healthy peers.
    pub replicas: Vec<Arc<dyn Backend>>,
    /// Journal capacity, probe cadence and per-replica retry policy for
    /// the replica set. Its `resilience: None` (the default) inherits the
    /// gateway-level `resilience` policy, so tuning that policy carries
    /// over to a replicated gateway; set it to `Some(…)` to give replicas
    /// their own policy. Ignored when `replicas` is empty.
    pub replica_config: ReplicaConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            credentials: Credentials::new().with_user("APP", "secret"),
            target: "simwh".to_string(),
            converter: ConverterConfig::default(),
            max_connections: 256,
            io_timeout: Some(Duration::from_secs(120)),
            drain_timeout: Duration::ZERO,
            resilience: Some(ResilienceConfig::default()),
            analyze: AnalyzeMode::LogOnly,
            conformance: ConformanceMode::LogOnly,
            admission: Some(AdmissionConfig::default()),
            cache: Some(CacheConfig::default()),
            obs_http: None,
            governor: GovernorConfig::default(),
            replicas: Vec::new(),
            replica_config: ReplicaConfig::default(),
        }
    }
}

/// A running gateway.
pub struct Gateway {
    /// The link every session executes through (each takes its own
    /// session handle on it at logon).
    link: TargetLink,
    config: GatewayConfig,
    /// Target profile resolved from `config.target` at construction; every
    /// session translates for this profile.
    profile: TargetProfile,
    stats: Mutex<WireStats>,
    shutdown: AtomicBool,
    connections: AtomicU64,
    /// Sessions being served; `idle` is signalled when it drops to zero.
    active: Mutex<usize>,
    idle: Condvar,
    /// Connection admission queue (capacity = `max_connections`); `None`
    /// falls back to the hard reject.
    conn_gate: Option<Arc<AdmissionGate>>,
    /// Statement admission queue across all sessions; `None` leaves
    /// statement concurrency to the backend.
    stmt_gate: Option<Arc<AdmissionGate>>,
    /// Translation cache shared by every session this gateway serves.
    cache: Option<Arc<TranslationCache>>,
    /// Per-query lifecycle governor: every statement registers here, the
    /// watchdog sweeps it, and `/queries` snapshots it.
    governor: Arc<GovernorRegistry>,
    /// The replica set behind `backend` when the gateway is replicated;
    /// `/replicas` snapshots it and the prober sweeps it.
    replication: Option<Arc<ReplicatedBackend>>,
}

/// Decrements the gateway's active-session count when a worker exits,
/// on every path (clean logoff, protocol error, panic unwind), and wakes a
/// draining `shutdown()` when the last session is gone.
struct ActiveGuard(Arc<Gateway>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        let mut active = self.0.active.lock();
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Wake an acceptor blocked in `accept` on `addr` by connecting to it; the
/// acceptor checks its stop flag before serving what it accepted. `false`
/// when even that connection failed, so the acceptor may never wake.
pub(crate) fn wake_acceptor(addr: std::net::SocketAddr) -> bool {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into());
    }
    TcpStream::connect(addr).is_ok()
}

/// Handle to a gateway serving on a background thread.
pub struct GatewayHandle {
    pub addr: std::net::SocketAddr,
    gateway: Arc<Gateway>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    obs_http: Option<crate::obs_http::ObsHttpHandle>,
    /// Governor watchdog; dropping it stops and joins the sweep thread.
    watchdog: Option<hyperq_governor::WatchdogHandle>,
    /// Replica health prober; dropping it stops and joins the sweep
    /// thread. `None` when the gateway is not replicated (or the probe
    /// interval is zero).
    prober: Option<ProberHandle>,
}

/// The session thread's buffered, byte-counting write half of a connection.
type SessionWriter = CountingWriter<BufWriter<TcpStream>>;

/// A frame the reader thread forwards to the session thread, stamped with
/// the instant it was decoded.
type Inbound = (Instant, Result<Message, WireError>);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// What a connection's reader thread and its session thread share about the
/// requests in flight. The session answers requests in arrival order, so
/// the oldest unanswered request is number `answered`, and that is the one
/// an `AbortRequest` targets — whether or not its statement has started.
struct Exchange {
    state: Mutex<ExchangeState>,
}

struct ExchangeState {
    /// SQL requests the reader has decoded.
    read: u64,
    /// SQL requests the session has answered.
    answered: u64,
    /// Governor of the oldest unanswered request, once registered.
    current: Option<Arc<QueryGovernor>>,
    /// An abort arrived for the oldest unanswered request before its
    /// governor was registered; registration applies it.
    abort_pending: bool,
    /// The client is gone (EOF, socket or protocol error).
    disconnected: bool,
    last_response: Instant,
}

const ABORTED: &str = "aborted by client request";
const DISCONNECTED: &str = "client disconnected mid-request";

impl Exchange {
    fn new() -> Exchange {
        Exchange {
            state: Mutex::new(ExchangeState {
                read: 0,
                answered: 0,
                current: None,
                abort_pending: false,
                disconnected: false,
                last_response: Instant::now(),
            }),
        }
    }

    /// Reader: a SQL request was decoded.
    fn request_read(&self) {
        self.state.lock().read += 1;
    }

    /// Reader: an `AbortRequest` arrived. `false` when nothing was
    /// unanswered — an idle abort, which has no response of its own.
    fn abort(&self) -> bool {
        let mut s = self.state.lock();
        if s.read == s.answered {
            return false;
        }
        match &s.current {
            Some(gov) => {
                gov.cancel(CancelReason::ClientAbort, ABORTED);
            }
            None => s.abort_pending = true,
        }
        true
    }

    /// Reader: the client is gone; cancel whatever it was waiting on.
    fn disconnect(&self) {
        let mut s = self.state.lock();
        s.disconnected = true;
        if let Some(gov) = &s.current {
            gov.cancel(CancelReason::ClientAbort, DISCONNECTED);
        }
    }

    /// Reader, on a read timeout: whether the session is idle — nothing
    /// unanswered and no response for `timeout`.
    fn idle_for(&self, timeout: Duration) -> bool {
        let s = self.state.lock();
        s.read == s.answered && s.last_response.elapsed() >= timeout
    }

    /// Session: the oldest unanswered request's governor is registered.
    fn register(&self, gov: &Arc<QueryGovernor>) {
        let mut s = self.state.lock();
        if s.disconnected {
            gov.cancel(CancelReason::ClientAbort, DISCONNECTED);
        } else if std::mem::take(&mut s.abort_pending) {
            gov.cancel(CancelReason::ClientAbort, ABORTED);
        }
        s.current = Some(Arc::clone(gov));
    }

    /// Session: the oldest unanswered request is answered. Called before
    /// the response is flushed, so the client cannot have sent an abort
    /// for its next request yet.
    fn answer(&self) {
        let mut s = self.state.lock();
        s.answered += 1;
        s.current = None;
        s.last_response = Instant::now();
    }

    fn disconnected(&self) -> bool {
        self.state.lock().disconnected
    }
}

/// The connection's reader thread, the only reader of the socket after
/// logon. Aborts are applied here, whenever they arrive; every other frame
/// goes to the session thread in arrival order. Returns after forwarding
/// `Logoff`, the idle reap, or why the client is gone.
fn read_requests(
    mut reader: BufReader<CountingReader<TcpStream>>,
    exchange: &Exchange,
    io_timeout: Option<Duration>,
    idle_aborts: &Counter,
    tx: &Sender<Inbound>,
) {
    loop {
        // Wait for the next frame's first byte. A read timeout here falls
        // between frames: it reaps an idle session and is waited out while
        // a request is unanswered or the last response is younger than
        // `io_timeout`. A timeout inside a frame is a client stalled
        // mid-protocol, and ends the session like any other read error.
        let next = match reader.fill_buf() {
            Ok([]) => Err(WireError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(_) => Message::read_from(&mut reader),
            Err(e) if is_timeout(&e) => {
                if io_timeout.is_some_and(|t| exchange.idle_for(t)) {
                    let _ = tx.send((Instant::now(), Err(e.into())));
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => Err(e.into()),
        };
        let decoded = Instant::now();
        match &next {
            Ok(Message::AbortRequest) => {
                if !exchange.abort() {
                    idle_aborts.inc();
                }
                continue;
            }
            Ok(Message::SqlRequest { .. } | Message::SqlRequestTimed { .. }) => {
                exchange.request_read();
            }
            Ok(_) => {}
            Err(_) => exchange.disconnect(),
        }
        let last = matches!(next, Ok(Message::Logoff) | Err(_));
        if tx.send((decoded, next)).is_err() || last {
            return;
        }
    }
}

/// The gateway's converter sink: each batch of `Record` frames goes
/// straight to the session's socket as it is converted.
struct WireSink<'a>(&'a mut SessionWriter);

impl BatchSink for WireSink<'_> {
    fn header(&mut self, columns: Vec<(String, u8)>) -> std::io::Result<()> {
        self.0.write_all(&Message::RecordSetHeader { columns }.to_frame())
    }

    fn batch(&mut self, frames: &mut Vec<u8>) -> std::io::Result<()> {
        self.0.write_all(frames)
    }
}

/// The tail of every response: mark the request answered (an abort read
/// after this finds nothing to cancel), flush what remains of the response,
/// and time the request from frame decode to flush.
fn flush_response(
    exchange: &Exchange,
    writer: &mut SessionWriter,
    obs: &ObsContext,
    decoded: Instant,
) -> Result<(), WireError> {
    exchange.answer();
    writer.flush()?;
    obs.metrics
        .histogram("hyperq_wire_request_duration_seconds", &[])
        .record(decoded.elapsed());
    Ok(())
}

/// Turn a connection away with a best-effort wire error, so the client
/// sees why instead of an unexplained hangup. The pending logon request is
/// consumed first — closing with unread bytes in the receive buffer would
/// RST the socket and the client could lose the error message.
fn refuse(stream: TcpStream, code: u16, message: String) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = Message::read_from(&mut &stream);
    let _ = Message::ErrorResponse { code, message }.write_to(&mut &stream);
}

/// Record end-of-statement cancel accounting: one counter bump per
/// cancelled statement labelled by reason, plus the cancel-to-kill latency
/// (cancel request → statement actually dead).
fn note_cancel_metrics(obs: &ObsContext, gov: &QueryGovernor) {
    if let Some(reason) = gov.token().reason() {
        obs.metrics
            .counter("hyperq_governor_cancels_total", &[("reason", reason.as_str())])
            .inc();
        if let Some(latency) = gov.cancel_latency() {
            obs.metrics
                .histogram("hyperq_governor_cancel_latency_seconds", &[])
                .record(latency);
        }
    }
}

impl Gateway {
    pub fn new(backend: Arc<dyn Backend>, mut config: GatewayConfig) -> Arc<Self> {
        let obs = ObsContext::global();
        let replicas = std::mem::take(&mut config.replicas);
        // Single backend: one link shared by every session, so retries and
        // deadlines apply per request while the circuit breaker tracks the
        // target's aggregate health. Replicated gateway: the replica set
        // gives each member its own link (policy from `replica_config`),
        // so the gateway's link to the set itself carries none — it would
        // double-retry every statement.
        let (link, replication): (TargetLink, Option<Arc<ReplicatedBackend>>) =
            if replicas.is_empty() {
                (TargetLink::new(backend, config.resilience.clone(), obs), None)
            } else {
                let mut set: Vec<Arc<dyn Backend>> = vec![backend];
                set.extend(replicas);
                let mut replica_config = config.replica_config.clone();
                // An explicitly set per-replica policy wins; otherwise the
                // gateway-level `resilience` policy carries over, so an
                // operator's tuned retry/breaker settings are never
                // silently dropped by adding replicas.
                if replica_config.resilience.is_none() {
                    replica_config.resilience = config.resilience.clone();
                }
                match ReplicatedBackend::with_config(set, replica_config, obs) {
                    Ok(rep) => {
                        let rep = Arc::new(rep);
                        let driver = Arc::clone(&rep) as Arc<dyn Backend>;
                        (TargetLink::new(driver, None, obs), Some(rep))
                    }
                    // `with_config` only fails on an empty set, and `set`
                    // always holds the primary.
                    Err(_) => unreachable!("replica set always contains the primary backend"),
                }
            };
        let (conn_gate, stmt_gate) = match &config.admission {
            Some(adm) => (
                (adm.connection_queue > 0).then(|| {
                    AdmissionGate::new(
                        "connection",
                        config.max_connections,
                        adm.connection_queue,
                        adm.admission_timeout,
                        obs,
                    )
                }),
                adm.statement_slots.map(|slots| {
                    AdmissionGate::new(
                        "statement",
                        slots,
                        adm.statement_queue,
                        adm.admission_timeout,
                        obs,
                    )
                }),
            ),
            None => (None, None),
        };
        // One translation cache for the whole gateway: every session's
        // compiled templates are visible to every other session, keyed by
        // (fingerprint, capability signature, session settings epoch).
        let cache = config
            .cache
            .clone()
            .map(|cfg| Arc::new(TranslationCache::new(cfg, obs)));
        let governor = GovernorRegistry::new(config.governor.clone(), obs);
        // Resolve the configured target once; a typo'd name falls back to
        // the default profile rather than refusing to serve, and the
        // counter makes the fallback visible to operators.
        let profile = hyperq_core::targets::lookup(&config.target).unwrap_or_else(|| {
            obs.metrics
                .counter("hyperq_wire_unknown_target_total", &[])
                .inc();
            hyperq_core::targets::simwh()
        });
        Arc::new(Gateway {
            link,
            config,
            profile,
            stats: Mutex::new(WireStats::default()),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            active: Mutex::new(0),
            idle: Condvar::new(),
            conn_gate,
            stmt_gate,
            cache,
            governor,
            replication,
        })
    }

    /// Bind to an ephemeral local port and serve in the background.
    pub fn spawn(
        backend: Arc<dyn Backend>,
        config: GatewayConfig,
    ) -> std::io::Result<GatewayHandle> {
        let gateway = Gateway::new(backend, config);
        // The observability endpoint serves the same global context the
        // sessions record into, on its own port so scraping never contends
        // with the TDWP front door.
        let obs_http = match &gateway.config.obs_http {
            Some(bind) => Some(crate::obs_http::spawn_with_state(
                bind,
                Arc::clone(ObsContext::global()),
                Some(Arc::clone(&gateway.governor)),
                gateway.replication.clone(),
            )?),
            None => None,
        };
        // The watchdog sweeps the in-flight query table on its own thread,
        // cancelling statements that outlive their deadline even when the
        // executing thread is between checkpoints.
        let watchdog = Some(gateway.governor.spawn_watchdog());
        // Replicated gateway: the health prober sweeps fenced replicas at
        // the configured cadence (zero = manual `probe_and_repair` only).
        let prober = gateway.replication.as_ref().and_then(|rep| {
            (!gateway.config.replica_config.probe_interval.is_zero())
                .then(|| rep.spawn_prober())
        });
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let g = Arc::clone(&gateway);
        let accept_thread = std::thread::spawn(move || {
            let obs = ObsContext::global();
            let accept_errors = obs.metrics.counter("hyperq_wire_accept_errors_total", &[]);
            let rejected = obs.metrics.counter("hyperq_wire_rejected_connections_total", &[]);
            const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
            const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);
            let mut backoff = ACCEPT_BACKOFF_MIN;
            // Connection workers are detached: a session blocked reading
            // from an idle client must not prevent gateway shutdown, which
            // wakes this blocking accept with a connection of its own.
            loop {
                let accepted = listener.accept();
                if g.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        if let Some(gate) = &g.conn_gate {
                            // Admission may queue up to `admission_timeout`;
                            // wait on the worker thread so the acceptor
                            // never blocks behind a full gateway.
                            let gate = Arc::clone(gate);
                            let g2 = Arc::clone(&g);
                            let rejected = Arc::clone(&rejected);
                            std::thread::spawn(move || match gate.try_admit() {
                                Ok(permit) => {
                                    *g2.active.lock() += 1;
                                    let _guard = ActiveGuard(Arc::clone(&g2));
                                    let _permit = permit;
                                    g2.connections.fetch_add(1, Ordering::Relaxed);
                                    let _ = g2.handle_connection(stream);
                                }
                                Err(reason) => {
                                    rejected.inc();
                                    let (code, message) = g2.refusal(Some(reason));
                                    refuse(stream, code, message);
                                }
                            });
                            continue;
                        }
                        let at_capacity = {
                            let mut active = g.active.lock();
                            let full = *active >= g.config.max_connections;
                            *active += usize::from(!full);
                            full
                        };
                        if at_capacity {
                            rejected.inc();
                            // Refusal reads the pending logon first; do it
                            // off-thread so a stalled client cannot wedge
                            // the acceptor.
                            let (code, message) = g.refusal(None);
                            std::thread::spawn(move || refuse(stream, code, message));
                            continue;
                        }
                        let guard = ActiveGuard(Arc::clone(&g));
                        let g2 = Arc::clone(&g);
                        std::thread::spawn(move || {
                            let _guard = guard;
                            g2.connections.fetch_add(1, Ordering::Relaxed);
                            let _ = g2.handle_connection(stream);
                        });
                    }
                    // Transient accept failures (EMFILE, ECONNABORTED, …):
                    // back off and keep the acceptor alive instead of
                    // silently killing the front door.
                    Err(_) => {
                        accept_errors.inc();
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    }
                }
            }
        });
        Ok(GatewayHandle {
            addr,
            gateway,
            accept_thread: Some(accept_thread),
            obs_http,
            watchdog,
            prober,
        })
    }

    /// Wire code and message for a connection turned away at the cap:
    /// `None` is the hard reject (no admission queue); a shed carries its
    /// per-reason code, so clients can tell "queue overflowed instantly"
    /// from "waited `admission_timeout` and gave up".
    fn refusal(&self, shed: Option<ShedReason>) -> (u16, String) {
        let cap = self.config.max_connections;
        match shed {
            None => (3134, format!("gateway at capacity ({cap} sessions); try again later")),
            Some(reason @ ShedReason::QueueFull) => (
                reason.wire_code(),
                format!(
                    "gateway at capacity ({cap} sessions) and admission queue full; try again later"
                ),
            ),
            Some(reason @ ShedReason::Timeout) => (
                reason.wire_code(),
                format!(
                    "gateway at capacity ({cap} sessions); admission wait exceeded {:?}",
                    self.config
                        .admission
                        .as_ref()
                        .map(|a| a.admission_timeout)
                        .unwrap_or_default()
                ),
            ),
        }
    }

    /// Serve one connection: logon handshake, then the request loop on this
    /// thread while the connection's reader thread reads the socket.
    fn handle_connection(&self, stream: TcpStream) -> Result<(), WireError> {
        // A client stalled mid-read or mid-write past the budget gets its
        // session reaped; without this a dead peer leaks the thread forever.
        // Set once, here: no socket option is touched after logon.
        stream.set_read_timeout(self.config.io_timeout)?;
        stream.set_write_timeout(self.config.io_timeout)?;
        // Each response ends in one flush; with Nagle on, the tail of a
        // reply larger than the write buffer waits out the client's delayed
        // ACK (~40 ms).
        stream.set_nodelay(true)?;
        let obs = Arc::clone(ObsContext::global());
        obs.metrics.counter("hyperq_wire_connections_total", &[]).inc();
        let _session = GaugeGuard::acquire(obs.metrics.gauge("hyperq_wire_sessions_active", &[]));
        let mut reader = BufReader::new(CountingReader::new(
            stream.try_clone()?,
            obs.metrics.counter("hyperq_wire_bytes_total", &[("direction", "in")]),
        ));
        let mut writer = CountingWriter::new(
            BufWriter::new(stream),
            obs.metrics.counter("hyperq_wire_bytes_total", &[("direction", "out")]),
        );

        // --- logon handshake ---------------------------------------------
        let user = match Message::read_from(&mut reader)? {
            Message::LogonRequest { user } => user,
            other => {
                return Err(WireError::Protocol(format!(
                    "expected LogonRequest, got {other:?}"
                )))
            }
        };
        let salt = fresh_salt();
        Message::AuthChallenge { salt }.write_to(&mut writer)?;
        writer.flush()?;
        let digest = match Message::read_from(&mut reader)? {
            Message::LogonDigest { digest } => digest,
            other => {
                return Err(WireError::Protocol(format!(
                    "expected LogonDigest, got {other:?}"
                )))
            }
        };
        if !self.config.credentials.verify(&user, salt, digest) {
            Message::ErrorResponse { code: 8017, message: "invalid logon".into() }
                .write_to(&mut writer)?;
            writer.flush()?;
            return Ok(());
        }

        let mut builder =
            HyperQBuilder::for_target(&self.link, self.profile.clone())
                .analyze(self.config.analyze)
                .conformance(self.config.conformance);
        builder = match &self.cache {
            Some(cache) => builder.shared_cache(Arc::clone(cache)),
            None => builder.no_cache(),
        };
        let mut hq = builder.build();
        hq.session.user = user;
        Message::LogonOk { session_id: hq.session.session_id }.write_to(&mut writer)?;
        writer.flush()?;

        // --- request loop ---------------------------------------------------
        let exchange = Arc::new(Exchange::new());
        let (tx, inbound) = mpsc::channel();
        let reader_thread = {
            let exchange = Arc::clone(&exchange);
            let io_timeout = self.config.io_timeout;
            // An abort with nothing unanswered (or whose statement was
            // answered first) has nothing to cancel and no response of its
            // own — an abort is answered on the request it kills — so it
            // is dropped to keep request/response pairing intact.
            let idle_aborts = obs.metrics.counter("hyperq_governor_idle_aborts_total", &[]);
            std::thread::Builder::new()
                .name("hyperq-wire-reader".into())
                .spawn(move || read_requests(reader, &exchange, io_timeout, &idle_aborts, &tx))?
        };
        let served = self.serve_requests(&mut hq, &inbound, &exchange, &mut writer, &obs);
        // Unblock the reader, which may sit in a read on a live socket, and
        // wait for it: the connection ends with both of its threads.
        let _ = writer.get_mut().get_ref().shutdown(Shutdown::Both);
        if reader_thread.join().is_err() {
            return Err(WireError::Protocol("connection reader thread panicked".into()));
        }
        served
    }

    /// The session thread's request loop: serve what the reader thread
    /// forwards until logoff, the idle reap, or the client is gone.
    fn serve_requests(
        &self,
        hq: &mut HyperQ,
        inbound: &Receiver<Inbound>,
        exchange: &Exchange,
        writer: &mut SessionWriter,
        obs: &Arc<ObsContext>,
    ) -> Result<(), WireError> {
        let queries = obs.metrics.counter("hyperq_wire_requests_total", &[]);
        let errors = obs.metrics.counter("hyperq_wire_errors_total", &[]);
        // The reader sends why it stops before it hangs up.
        while let Ok((decoded, next)) = inbound.recv() {
            match next {
                Ok(Message::SqlRequest { sql }) => {
                    queries.inc();
                    if !self.serve_statement(hq, &sql, None, decoded, exchange, writer, obs)? {
                        break;
                    }
                }
                Ok(Message::SqlRequestTimed { timeout_ms, sql }) => {
                    queries.inc();
                    let limit = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms as u64));
                    if !self.serve_statement(hq, &sql, limit, decoded, exchange, writer, obs)? {
                        break;
                    }
                }
                Ok(Message::Logoff) => break,
                Err(WireError::Io(e)) => {
                    // A read timeout means an idle/stalled client, not a
                    // dead socket: tell it why before reaping the session.
                    if is_timeout(&e) {
                        obs.metrics.counter("hyperq_wire_idle_timeouts_total", &[]).inc();
                        let _ = Message::ErrorResponse {
                            code: 3403,
                            message: "session idle timeout; reconnect to continue".into(),
                        }
                        .write_to(writer);
                        let _ = writer.flush();
                    }
                    break;
                }
                Ok(other) => {
                    errors.inc();
                    Message::ErrorResponse {
                        code: 3700,
                        message: format!("unexpected message {other:?}"),
                    }
                    .write_to(writer)?;
                    writer.flush()?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Serve one SQL request under a query governor: register it (deadline
    /// from the client's limit or the gateway default, memory budget from
    /// config) where the reader thread's aborts reach it, and map a
    /// cancelled statement onto its single well-defined wire code — 3110
    /// client abort, 3156 deadline, 2646 memory budget — leaving the
    /// session usable. Returns `Ok(false)` when the client disconnected
    /// mid-statement and the session should end.
    #[allow(clippy::too_many_arguments)]
    fn serve_statement(
        &self,
        hq: &mut HyperQ,
        sql: &str,
        client_timeout: Option<Duration>,
        decoded: Instant,
        exchange: &Exchange,
        writer: &mut SessionWriter,
        obs: &Arc<ObsContext>,
    ) -> Result<bool, WireError> {
        let errors = obs.metrics.counter("hyperq_wire_errors_total", &[]);

        // Register before admission so time spent queueing counts against
        // the statement's deadline (and an expired deadline sheds the
        // queued statement immediately — see `AdmissionGate::try_admit`).
        let registration = self.governor.begin(hq.session.session_id, client_timeout);
        let gov = Arc::clone(registration.governor());
        exchange.register(&gov);
        let _scope = hyperq_governor::install(Arc::clone(&gov));

        // Statement admission: the permit spans translation, execution and
        // conversion, so `statement_slots` caps gateway-wide statement
        // concurrency end to end.
        let stmt_permit = match &self.stmt_gate {
            Some(gate) => match gate.try_admit() {
                Ok(permit) => Some(permit),
                Err(reason) => {
                    errors.inc();
                    // A shed whose true cause is the statement's own
                    // deadline reports the cancel code, not admission noise.
                    let (code, message) = match gov.token().error() {
                        Some(c) => (c.reason.wire_code(), c.to_string()),
                        None => (
                            reason.wire_code(),
                            format!(
                                "statement shed by admission control ({}); try again later",
                                reason.as_str()
                            ),
                        ),
                    };
                    note_cancel_metrics(obs, &gov);
                    Message::ErrorResponse { code, message }.write_to(writer)?;
                    Message::EndRequest.write_to(writer)?;
                    flush_response(exchange, writer, obs, decoded)?;
                    return Ok(true);
                }
            },
            None => None,
        };

        let run_result = hq.run_script(sql);
        if exchange.disconnected() {
            note_cancel_metrics(obs, &gov);
            return Ok(false);
        }

        let mut request_stats = WireStats { requests: 1, ..Default::default() };
        match &run_result {
            Ok(outcomes) => {
                let mut failed: Option<(u16, String)> = None;
                for outcome in outcomes {
                    request_stats.translation += outcome.timings.translation;
                    request_stats.execution += outcome.timings.execution;
                    let t0 = Instant::now();
                    if outcome.result.schema.is_empty() {
                        Message::StatementOk { activity_count: outcome.result.row_count }
                            .write_to(writer)?;
                        continue;
                    }
                    hyperq_governor::note_stage(hyperq_governor::Stage::Converting);
                    let streamed = stream_traced(
                        &outcome.result.schema,
                        &outcome.result.rows,
                        &self.config.converter,
                        obs,
                        outcome.trace_id,
                        &mut WireSink(writer),
                    );
                    request_stats.conversion += t0.elapsed();
                    match streamed {
                        Ok(s) => {
                            request_stats.rows_returned += s.rows;
                            Message::StatementOk { activity_count: s.rows }.write_to(writer)?;
                        }
                        // A statement cancelled before its header or
                        // mid-stream is an ordinary statement error on the
                        // wire — the session survives. Only a broken
                        // conversion or a dead socket ends it.
                        Err(e) => match hyperq_governor::cancel_error() {
                            Some(c) => {
                                failed = Some((c.reason.wire_code(), c.to_string()));
                                break;
                            }
                            None => return Err(e),
                        },
                    }
                }
                if let Some((code, message)) = failed {
                    errors.inc();
                    Message::ErrorResponse { code, message }.write_to(writer)?;
                }
                Message::EndRequest.write_to(writer)?;
            }
            Err(e) => {
                errors.inc();
                let (code, message) = match hyperq_governor::cancel_error() {
                    // The one well-defined cancel path: every cancelled
                    // statement — client abort, deadline, memory budget —
                    // maps to its reason's wire code, whichever layer
                    // noticed first (an abort that reaches the request
                    // before its statement starts is seen by the parser,
                    // which reports it as a syntax error).
                    Some(c) => (c.reason.wire_code(), c.to_string()),
                    None => match e {
                        // A backend failure carries the code the policy
                        // table gave it (a mid-transaction connection loss
                        // surfaces as 2631, not the generic code).
                        HyperQError::Backend(b) => (b.wire_code, e.to_string()),
                        _ => (hyperq_core::policy::WIRE_STATEMENT_FAILED, e.to_string()),
                    },
                };
                Message::ErrorResponse { code, message }.write_to(writer)?;
                Message::EndRequest.write_to(writer)?;
            }
        }
        note_cancel_metrics(obs, &gov);
        // Publish stats — and release the statement slot — before the flush
        // unblocks the client: a client that has seen EndRequest must never
        // find the gate still held by the statement it just finished.
        self.stats.lock().merge(&request_stats);
        drop(stmt_permit);
        flush_response(exchange, writer, obs, decoded)?;
        // Free the result only now: a wide one takes milliseconds to
        // free, which the client need not wait for.
        drop(run_result);
        Ok(true)
    }
}

impl GatewayHandle {
    /// Snapshot of the aggregated stage timings.
    pub fn stats(&self) -> WireStats {
        *self.gateway.stats.lock()
    }

    pub fn connections_served(&self) -> u64 {
        self.gateway.connections.load(Ordering::Relaxed)
    }

    /// Sessions currently being served.
    pub fn active_sessions(&self) -> usize {
        *self.gateway.active.lock()
    }

    /// Address of the observability HTTP endpoint, if one was configured.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_http.as_ref().map(|h| h.addr)
    }

    /// The gateway's query-governor registry (in-flight snapshots,
    /// operator cancels, pool usage).
    pub fn governor(&self) -> &Arc<GovernorRegistry> {
        &self.gateway.governor
    }

    /// The gateway's replica set, when it was configured with
    /// [`GatewayConfig::replicas`] (health snapshots, manual repair
    /// sweeps).
    pub fn replication(&self) -> Option<&Arc<ReplicatedBackend>> {
        self.gateway.replication.as_ref()
    }

    /// Stop accepting new connections, then wait up to
    /// `GatewayConfig::drain_timeout` for in-flight sessions to finish.
    /// With the default zero drain budget this only stops the acceptor;
    /// in-flight sessions end when their clients disconnect.
    pub fn shutdown(mut self) {
        self.gateway.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            if wake_acceptor(self.addr) {
                let _ = t.join();
            }
        }
        if let Some(obs) = self.obs_http.take() {
            obs.shutdown();
        }
        let deadline = Instant::now() + self.gateway.config.drain_timeout;
        let mut active = self.gateway.active.lock();
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            self.gateway.idle.wait_for(&mut active, deadline - now);
        }
        drop(active);
        // The drain is over: stop the health prober (in-flight statements
        // have finished, so nothing new lands in the repair journals), then
        // the watchdog last so statements still draining stayed governed.
        drop(self.prober.take());
        drop(self.watchdog.take());
    }
}
