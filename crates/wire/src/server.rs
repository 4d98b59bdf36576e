//! The gateway: TCP front door speaking TDWP, one Hyper-Q session per
//! connection (paper Figure 1b / §4.1 Gateway Manager + Protocol Handler).
//!
//! Per request the gateway records the three stage timings of the paper's
//! Figure 9: **query translation** (parse/bind/transform/serialize),
//! **execution** (target database), and **result transformation**
//! (TDF → client binary format, including spill handling).

use std::collections::VecDeque;
use std::io::{BufWriter, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
use hyperq_obs::Gauge;
use parking_lot::Mutex;

use crate::admission::{AdmissionConfig, AdmissionGate, ShedReason};
use crate::auth::{fresh_salt, Credentials};
use crate::convert::{convert_traced, ConverterConfig};
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
    pub spilled_chunks: u64,
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
        self.spilled_chunks += other.spilled_chunks;
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
    active: AtomicUsize,
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
/// on every path (clean logoff, protocol error, panic unwind).
struct ActiveGuard(Arc<Gateway>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
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

/// Session reader that replays bytes handed back by an [`AbortWatcher`]
/// before resuming from the socket: a frame the watcher had only partially
/// read when its statement finished is completed by the request loop
/// instead of being lost (or treated as a protocol error).
struct SessionReader<R> {
    replay: VecDeque<u8>,
    inner: R,
}

impl<R: Read> Read for SessionReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.replay.is_empty() {
            let n = buf.len().min(self.replay.len());
            for b in buf.iter_mut().take(n) {
                *b = self.replay.pop_front().unwrap_or_default();
            }
            return Ok(n);
        }
        self.inner.read(buf)
    }
}

/// What an abort-watcher stint observed while a statement executed.
struct WatcherOutcome {
    /// Complete non-abort frames the client pipelined during execution,
    /// to be served by the request loop in arrival order.
    messages: VecDeque<Message>,
    /// Raw bytes of a frame still incomplete when the watcher stopped.
    leftover: Vec<u8>,
    /// The client vanished (EOF or hard socket error) mid-statement.
    disconnected: bool,
}

impl WatcherOutcome {
    fn empty() -> WatcherOutcome {
        WatcherOutcome { messages: VecDeque::new(), leftover: Vec::new(), disconnected: false }
    }
}

/// How often the abort watcher wakes to poll its stop flag. This is also
/// the read timeout it installs on the (shared) socket, so the session
/// restores `io_timeout` after every stint — and the bound on how long
/// `finish()` blocks the response tail, so it is kept small: every wire
/// statement pays up to one poll interval joining its watcher.
const ABORT_POLL: Duration = Duration::from_millis(5);

/// Length of the complete TDWP frame at the head of `buf`, if one is there.
fn complete_frame_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < 5 {
        return None;
    }
    let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
    (buf.len() >= 5 + len).then_some(5 + len)
}

/// Watches the client socket for out-of-band frames while a statement
/// executes on the session thread — the TDWP async-abort path. An
/// [`Message::AbortRequest`] cancels the statement's governor token (the
/// next checkpoint in parser/transformer/engine/converter aborts the
/// work); any other frame is kept for the request loop. Reads poll with a
/// short timeout and accumulate bytes, so a timeout mid-frame on a
/// cancelled query resumes cleanly instead of desynchronizing the
/// protocol.
struct AbortWatcher {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<WatcherOutcome>,
}

impl AbortWatcher {
    fn spawn(stream: TcpStream, gov: Arc<QueryGovernor>) -> std::io::Result<AbortWatcher> {
        stream.set_read_timeout(Some(ABORT_POLL))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut stream = stream;
            let mut outcome = WatcherOutcome::empty();
            let mut tmp = [0u8; 4096];
            loop {
                match stream.read(&mut tmp) {
                    Ok(0) => {
                        gov.cancel(CancelReason::ClientAbort, "client disconnected mid-request");
                        outcome.disconnected = true;
                        break;
                    }
                    Ok(n) => outcome.leftover.extend_from_slice(&tmp[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        if stop2.load(Ordering::Relaxed) {
                            break;
                        }
                        continue;
                    }
                    Err(_) => {
                        gov.cancel(CancelReason::ClientAbort, "client socket error mid-request");
                        outcome.disconnected = true;
                        break;
                    }
                }
                while let Some(frame_len) = complete_frame_len(&outcome.leftover) {
                    let frame: Vec<u8> = outcome.leftover.drain(..frame_len).collect();
                    let mut cursor = std::io::Cursor::new(frame);
                    match Message::read_from(&mut cursor) {
                        Ok(Message::AbortRequest) => {
                            gov.cancel(CancelReason::ClientAbort, "aborted by client request");
                        }
                        Ok(m) => outcome.messages.push_back(m),
                        // An undecodable frame is dropped here; the request
                        // loop reports subsequent desync as a protocol
                        // error on its own reads.
                        Err(_) => {}
                    }
                }
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
            }
            outcome
        });
        Ok(AbortWatcher { stop, thread })
    }

    /// Stop watching (at most one `ABORT_POLL` later) and hand back
    /// everything read from the socket.
    fn finish(self) -> WatcherOutcome {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_else(|_| WatcherOutcome::empty())
    }
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
            active: AtomicUsize::new(0),
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
        listener.set_nonblocking(true)?;
        let g = Arc::clone(&gateway);
        let accept_thread = std::thread::spawn(move || {
            let obs = ObsContext::global();
            let accept_errors = obs.metrics.counter("hyperq_wire_accept_errors_total", &[]);
            let rejected = obs.metrics.counter("hyperq_wire_rejected_connections_total", &[]);
            const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
            const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);
            let mut backoff = ACCEPT_BACKOFF_MIN;
            // Connection workers are detached: a session blocked reading
            // from an idle client must not prevent gateway shutdown.
            while !g.shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        backoff = ACCEPT_BACKOFF_MIN;
                        stream.set_nonblocking(false).ok();
                        if let Some(gate) = &g.conn_gate {
                            // Admission may queue up to `admission_timeout`;
                            // wait on the worker thread so the acceptor
                            // never blocks behind a full gateway.
                            let gate = Arc::clone(gate);
                            let g2 = Arc::clone(&g);
                            let rejected = Arc::clone(&rejected);
                            std::thread::spawn(move || match gate.try_admit() {
                                Ok(permit) => {
                                    g2.active.fetch_add(1, Ordering::Relaxed);
                                    let _guard = ActiveGuard(Arc::clone(&g2));
                                    let _permit = permit;
                                    g2.connections.fetch_add(1, Ordering::Relaxed);
                                    let _ = g2.handle_connection(stream);
                                }
                                Err(reason) => {
                                    rejected.inc();
                                    g2.shed_connection(stream, reason);
                                }
                            });
                            continue;
                        }
                        if g.active.fetch_add(1, Ordering::Relaxed) >= g.config.max_connections {
                            g.active.fetch_sub(1, Ordering::Relaxed);
                            rejected.inc();
                            // Rejection reads the pending logon first; do it
                            // off-thread so a stalled client cannot wedge
                            // the acceptor.
                            let g2 = Arc::clone(&g);
                            std::thread::spawn(move || g2.reject_connection(stream));
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
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_BACKOFF_MIN);
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

    /// Turn away a connection over the cap: best-effort wire error so the
    /// client sees "at capacity" instead of an unexplained hangup. The
    /// pending logon request is consumed first — closing with unread bytes
    /// in the receive buffer would RST the socket and the client could
    /// lose the error message.
    fn reject_connection(&self, stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        if let Ok(mut reader) = stream.try_clone() {
            let _ = Message::read_from(&mut reader);
        }
        let mut writer = BufWriter::new(stream);
        let _ = Message::ErrorResponse {
            code: 3134,
            message: format!(
                "gateway at capacity ({} sessions); try again later",
                self.config.max_connections
            ),
        }
        .write_to(&mut writer);
        use std::io::Write as _;
        let _ = writer.flush();
    }

    /// Turn away a connection the admission queue could not seat: same
    /// read-pending-logon-then-error shape as [`Gateway::reject_connection`],
    /// but with a per-reason wire code so clients can tell "queue overflowed
    /// instantly" from "waited `admission_timeout` and gave up".
    fn shed_connection(&self, stream: TcpStream, reason: ShedReason) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
        if let Ok(mut reader) = stream.try_clone() {
            let _ = Message::read_from(&mut reader);
        }
        let mut writer = BufWriter::new(stream);
        let message = match reason {
            ShedReason::QueueFull => format!(
                "gateway at capacity ({} sessions) and admission queue full; try again later",
                self.config.max_connections
            ),
            ShedReason::Timeout => format!(
                "gateway at capacity ({} sessions); admission wait exceeded {:?}",
                self.config.max_connections,
                self.config
                    .admission
                    .as_ref()
                    .map(|a| a.admission_timeout)
                    .unwrap_or_default()
            ),
        };
        let _ = Message::ErrorResponse { code: reason.wire_code(), message }.write_to(&mut writer);
        use std::io::Write as _;
        let _ = writer.flush();
    }

    /// Serve one connection: logon handshake, then request/response loop.
    fn handle_connection(&self, stream: TcpStream) -> Result<(), WireError> {
        // A client stalled mid-read or mid-write past the budget gets its
        // session reaped; without this a dead peer leaks the thread forever.
        stream.set_read_timeout(self.config.io_timeout)?;
        stream.set_write_timeout(self.config.io_timeout)?;
        let obs = Arc::clone(ObsContext::global());
        obs.metrics.counter("hyperq_wire_connections_total", &[]).inc();
        let _session = GaugeGuard::acquire(obs.metrics.gauge("hyperq_wire_sessions_active", &[]));
        let queries = obs.metrics.counter("hyperq_wire_requests_total", &[]);
        let errors = obs.metrics.counter("hyperq_wire_errors_total", &[]);
        // Extra clone for socket-option control (read-timeout restore after
        // an abort-watcher stint) and for spawning the per-statement
        // watchers; SO_RCVTIMEO is a property of the underlying socket, so
        // any clone can set and restore it.
        let ctrl = stream.try_clone()?;
        let mut reader = SessionReader {
            replay: VecDeque::new(),
            inner: CountingReader::new(
                stream.try_clone()?,
                obs.metrics.counter("hyperq_wire_bytes_total", &[("direction", "in")]),
            ),
        };
        let mut writer = CountingWriter::new(
            BufWriter::new(stream),
            obs.metrics.counter("hyperq_wire_bytes_total", &[("direction", "out")]),
        );
        use std::io::Write as _;

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
        // Frames an abort watcher captured beyond its own statement are
        // served from here before the socket is read again.
        let mut pending: VecDeque<Message> = VecDeque::new();
        loop {
            let next = match pending.pop_front() {
                Some(m) => Ok(m),
                None => Message::read_from(&mut reader),
            };
            match next {
                Ok(Message::SqlRequest { sql }) => {
                    queries.inc();
                    if !self.serve_statement(
                        &mut hq, &sql, None, &ctrl, &mut reader, &mut writer, &obs, &mut pending,
                    )? {
                        break;
                    }
                }
                Ok(Message::SqlRequestTimed { timeout_ms, sql }) => {
                    queries.inc();
                    let limit = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms as u64));
                    if !self.serve_statement(
                        &mut hq, &sql, limit, &ctrl, &mut reader, &mut writer, &obs, &mut pending,
                    )? {
                        break;
                    }
                }
                Ok(Message::AbortRequest) => {
                    // Abort with nothing in flight (or whose statement
                    // finished first): nothing to cancel, and no response
                    // of its own — an abort is answered on the request it
                    // kills, so an unpaired one is silently dropped to keep
                    // the client's request/response pairing intact.
                    obs.metrics.counter("hyperq_governor_idle_aborts_total", &[]).inc();
                }
                Ok(Message::Logoff) => break,
                Err(WireError::Io(e)) => {
                    // A read timeout means an idle/stalled client, not a
                    // dead socket: tell it why before reaping the session.
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) {
                        obs.metrics.counter("hyperq_wire_idle_timeouts_total", &[]).inc();
                        let _ = Message::ErrorResponse {
                            code: 3403,
                            message: "session idle timeout; reconnect to continue".into(),
                        }
                        .write_to(&mut writer);
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
                    .write_to(&mut writer)?;
                    writer.flush()?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Serve one SQL request under a query governor: register it (deadline
    /// from the client's limit or the gateway default, memory budget from
    /// config), watch the socket for an async abort while it runs, and map
    /// a cancelled statement onto its single well-defined wire code — 3110
    /// client abort, 3156 deadline, 2646 memory budget — leaving the
    /// session usable. Returns `Ok(false)` when the client disconnected
    /// mid-statement and the session should end.
    #[allow(clippy::too_many_arguments)]
    fn serve_statement(
        &self,
        hq: &mut HyperQ,
        sql: &str,
        client_timeout: Option<Duration>,
        ctrl: &TcpStream,
        reader: &mut SessionReader<CountingReader<TcpStream>>,
        writer: &mut CountingWriter<BufWriter<TcpStream>>,
        obs: &Arc<ObsContext>,
        pending: &mut VecDeque<Message>,
    ) -> Result<bool, WireError> {
        use std::io::Write as _;
        let errors = obs.metrics.counter("hyperq_wire_errors_total", &[]);

        // Register before admission so time spent queueing counts against
        // the statement's deadline (and an expired deadline sheds the
        // queued statement immediately — see `AdmissionGate::try_admit`).
        let registration = self.governor.begin(hq.session.session_id, client_timeout);
        let gov = Arc::clone(registration.governor());
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
                    writer.flush()?;
                    return Ok(true);
                }
            },
            None => None,
        };

        // Watch for an out-of-band AbortRequest while the statement runs.
        // If the socket cannot be cloned the statement still runs — it just
        // cannot be client-aborted (deadline and budget still apply).
        let watcher = ctrl
            .try_clone()
            .ok()
            .and_then(|s| AbortWatcher::spawn(s, Arc::clone(&gov)).ok());

        let run_result = hq.run_script(sql);

        // Stop the watcher *before* writing the response: once the client
        // sees EndRequest it may send its next request, which must be read
        // by the request loop, not swallowed here. Hand back everything the
        // watcher read and restore the session's io timeout (the watcher
        // shortened the shared socket's).
        let outcome = match watcher {
            Some(w) => w.finish(),
            None => WatcherOutcome::empty(),
        };
        let _ = ctrl.set_read_timeout(self.config.io_timeout);
        reader.replay.extend(outcome.leftover.iter().copied());
        pending.extend(outcome.messages);
        if outcome.disconnected {
            note_cancel_metrics(obs, &gov);
            return Ok(false);
        }

        let mut request_stats = WireStats { requests: 1, ..Default::default() };
        match run_result {
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
                    let converted = match convert_traced(
                        &outcome.result.schema,
                        &outcome.result.rows,
                        &self.config.converter,
                        obs,
                        outcome.trace_id,
                    ) {
                        Ok(c) => c,
                        Err(msg) => {
                            // A conversion abandoned because the statement
                            // was cancelled is an ordinary statement error
                            // on the wire — the session survives. Only a
                            // genuinely broken conversion is a protocol
                            // failure.
                            match hyperq_governor::cancel_error() {
                                Some(c) => {
                                    failed = Some((c.reason.wire_code(), c.to_string()));
                                    break;
                                }
                                None => return Err(WireError::Protocol(msg)),
                            }
                        }
                    };
                    request_stats.conversion += t0.elapsed();
                    request_stats.rows_returned += converted.total_rows;
                    request_stats.spilled_chunks += converted.spilled_chunks as u64;
                    Message::RecordSetHeader { columns: converted.header.clone() }
                        .write_to(writer)?;
                    let total = converted.total_rows;
                    let t1 = Instant::now();
                    let mut werr: Option<std::io::Error> = None;
                    {
                        let w = &mut *writer;
                        converted
                            .for_each_row(|frame| {
                                // A statement cancelled mid-stream stops
                                // sending records; the client gets the
                                // cancel code instead of StatementOk.
                                if let Some(c) = hyperq_governor::cancel_error() {
                                    return Err(std::io::Error::other(c.to_string()));
                                }
                                Message::Record { row_bytes: frame.to_vec() }
                                    .write_to(w)
                                    .map_err(|e| match e {
                                        WireError::Io(io) => io,
                                        WireError::Protocol(p) => std::io::Error::other(p),
                                    })
                            })
                            .unwrap_or_else(|e| werr = Some(e));
                    }
                    if let Some(e) = werr {
                        match gov.token().error() {
                            Some(c) => {
                                failed = Some((c.reason.wire_code(), c.to_string()));
                                break;
                            }
                            None => return Err(WireError::Io(e)),
                        }
                    }
                    request_stats.conversion += t1.elapsed();
                    Message::StatementOk { activity_count: total }.write_to(writer)?;
                }
                if let Some((code, message)) = failed {
                    errors.inc();
                    Message::ErrorResponse { code, message }.write_to(writer)?;
                }
                Message::EndRequest.write_to(writer)?;
            }
            Err(e) => {
                errors.inc();
                let (code, message) = match &e {
                    // The one well-defined cancel path: every cancelled
                    // statement — client abort, deadline, memory budget —
                    // funnels through `HyperQError::Cancelled` and maps to
                    // its reason's wire code.
                    HyperQError::Cancelled(c) => (c.reason.wire_code(), e.to_string()),
                    // A backend failure carries the code the policy table
                    // gave it (a mid-transaction connection loss surfaces
                    // as 2631, not the generic code).
                    HyperQError::Backend(b) => (b.wire_code, e.to_string()),
                    _ => (hyperq_core::policy::WIRE_STATEMENT_FAILED, e.to_string()),
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
        writer.flush()?;
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
        self.gateway.active.load(Ordering::Relaxed)
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
        self.gateway.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(obs) = self.obs_http.take() {
            obs.shutdown();
        }
        let deadline = Instant::now() + self.gateway.config.drain_timeout;
        while self.gateway.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // The drain is over: stop the health prober (in-flight statements
        // have finished, so nothing new lands in the repair journals), then
        // the watchdog last so statements still draining stayed governed.
        drop(self.prober.take());
        drop(self.watchdog.take());
    }
}
