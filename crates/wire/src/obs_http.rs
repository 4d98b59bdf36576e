//! The observability endpoint: a read-only HTTP/1.1 listener on its own
//! port, separate from the TDWP front door, so operators can watch a live
//! gateway with nothing but `curl`.
//!
//! Routes (GET only):
//!
//! * `/healthz` — liveness probe, `200 ok`.
//! * `/metrics` — the registry in Prometheus text exposition format.
//! * `/metrics.json` — the same registry as JSON.
//! * `/provenance?n=N` — the most recent `N` per-statement provenance
//!   records (default 100) as JSON.
//! * `/statements` — the cumulative per-fingerprint statement table
//!   (calls, errors, latency, stages, cache, emulations, features, a
//!   literal-redacted sample) as JSON, by total time, with the count of
//!   evicted rows and the span tree of each row's slowest call while the
//!   trace ring still holds it.
//! * `/report` — workload intelligence projected from the statement table
//!   (stage shares, overhead-ratio bands, feature usage, top queries,
//!   cache efficiency) as JSON; `?format=text` renders the aligned
//!   plain-text report instead.
//! * `/queries` — the governor's in-flight query table (id, session,
//!   fingerprint, stage, elapsed, charged memory) as JSON, when a
//!   [`GovernorRegistry`] is attached. `?cancel=<id>` cancels that query —
//!   but only when the gateway opted in via
//!   `GovernorConfig::allow_http_cancel`; otherwise it answers 403.
//! * `/replicas` — per-replica health (healthy / fenced / needs-resync),
//!   pinned-session and repair-journal state as JSON, when the gateway is
//!   replicated; 404 otherwise.
//!
//! The server is std-only (no HTTP framework): it parses just the request
//! line, answers with `Content-Length` + `Connection: close`, and closes.
//! Every route except the gated `?cancel=` serves a read-only snapshot.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hyperq_core::replicate::{ReplicaSnapshot, ReplicatedBackend};
use hyperq_governor::{CancelReason, GovernorRegistry, QuerySnapshot};
use hyperq_obs::{provenance, ObsContext, WorkloadReport};

/// Default cap on `/provenance` records per response.
const DEFAULT_PROVENANCE_LIMIT: usize = 100;

/// How long a connected client may dribble its request before being
/// dropped; keeps a stalled scraper from pinning the worker.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Handle to an observability listener serving on a background thread.
/// Dropping the handle stops the listener.
pub struct ObsHttpHandle {
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ObsHttpHandle {
    /// Stop accepting and join the acceptor thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            if crate::server::wake_acceptor(self.addr) {
                let _ = t.join();
            }
        }
    }
}

impl Drop for ObsHttpHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serve the
/// observability routes from `obs` in the background. `/queries` answers
/// 404 — no governor registry is attached on this path.
pub fn spawn(addr: &str, obs: Arc<ObsContext>) -> std::io::Result<ObsHttpHandle> {
    spawn_with_governor(addr, obs, None)
}

/// [`spawn`] with the gateway's governor registry attached, enabling the
/// `/queries` in-flight table (and, when the registry's config allows it,
/// `?cancel=<id>`).
pub fn spawn_with_governor(
    addr: &str,
    obs: Arc<ObsContext>,
    governor: Option<Arc<GovernorRegistry>>,
) -> std::io::Result<ObsHttpHandle> {
    spawn_with_state(addr, obs, governor, None)
}

/// [`spawn_with_governor`] with the gateway's replica set also attached,
/// enabling the `/replicas` health table.
pub fn spawn_with_state(
    addr: &str,
    obs: Arc<ObsContext>,
    governor: Option<Arc<GovernorRegistry>>,
    replication: Option<Arc<ReplicatedBackend>>,
) -> std::io::Result<ObsHttpHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stop = Arc::clone(&shutdown);
    let requests = obs.metrics.counter("hyperq_obs_http_requests_total", &[]);
    let thread = std::thread::spawn(move || {
        loop {
            // `stop()` wakes this blocking accept with a connection of its
            // own.
            let accepted = listener.accept();
            if stop.load(Ordering::Acquire) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    requests.inc();
                    // Requests are tiny and responses are snapshots;
                    // serving inline keeps the server single-threaded and
                    // the accept loop responsive enough for scrapers.
                    let _ = serve_one(stream, &obs, governor.as_deref(), replication.as_deref());
                }
                // Transient accept failures (EMFILE, …): back off.
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    });
    Ok(ObsHttpHandle { addr, shutdown, thread: Some(thread) })
}

fn serve_one(
    stream: TcpStream,
    obs: &ObsContext,
    governor: Option<&GovernorRegistry>,
    replication: Option<&ReplicatedBackend>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers so the response is not written into a half-read
    // request (some clients treat that as a connection error).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return respond(stream, "400 Bad Request", "text/plain", "bad request\n");
    };
    if method != "GET" {
        return respond(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is supported\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    match path {
        "/healthz" => respond(stream, "200 OK", "text/plain", "ok\n"),
        "/metrics" => respond(
            stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &obs.metrics.render_prometheus(),
        ),
        "/metrics.json" => {
            respond(stream, "200 OK", "application/json", &obs.metrics.render_json())
        }
        "/provenance" => {
            let n = query_param(query, "n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(DEFAULT_PROVENANCE_LIMIT);
            let body = provenance::render_json(&obs.provenance.recent(n));
            respond(stream, "200 OK", "application/json", &body)
        }
        "/statements" => {
            let body = obs.provenance.statements().render_json(&obs.traces);
            respond(stream, "200 OK", "application/json", &body)
        }
        "/report" => {
            let report = WorkloadReport::from_rows(&obs.provenance.statements().snapshot());
            match query_param(query, "format") {
                Some("text") => respond(stream, "200 OK", "text/plain", &report.render_text()),
                _ => respond(stream, "200 OK", "application/json", &report.render_json()),
            }
        }
        "/queries" => match governor {
            None => respond(
                stream,
                "404 Not Found",
                "text/plain",
                "no query governor attached to this endpoint\n",
            ),
            Some(reg) => {
                if let Some(raw) = query_param(query, "cancel") {
                    if !reg.config().allow_http_cancel {
                        return respond(
                            stream,
                            "403 Forbidden",
                            "text/plain",
                            "query cancellation over HTTP is disabled \
                             (GovernorConfig::allow_http_cancel)\n",
                        );
                    }
                    let Ok(id) = raw.parse::<u64>() else {
                        return respond(
                            stream,
                            "400 Bad Request",
                            "text/plain",
                            "cancel takes a numeric query id\n",
                        );
                    };
                    let hit = reg.cancel(
                        id,
                        CancelReason::ClientAbort,
                        "cancelled via observability endpoint",
                    );
                    let body = format!("{{\"query\":{id},\"cancelled\":{hit}}}\n");
                    return respond(stream, "200 OK", "application/json", &body);
                }
                respond(stream, "200 OK", "application/json", &render_queries_json(&reg.snapshot()))
            }
        },
        "/replicas" => match replication {
            None => respond(
                stream,
                "404 Not Found",
                "text/plain",
                "no replica set attached to this endpoint\n",
            ),
            Some(rep) => {
                respond(stream, "200 OK", "application/json", &render_replicas_json(&rep.snapshot()))
            }
        },
        _ => respond(stream, "404 Not Found", "text/plain", "unknown route\n"),
    }
}

/// The in-flight query table as JSON, one object per statement, sorted by
/// query id (the registry's snapshot order).
fn render_queries_json(queries: &[QuerySnapshot]) -> String {
    let mut out = String::from("[");
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"session\":{},\"fingerprint\":\"{:016x}\",\"stage\":\"{}\",\
             \"elapsed_ms\":{:.3},\"mem_bytes\":{},\"cancelled\":{}}}",
            q.id,
            q.session,
            q.fingerprint,
            q.stage,
            q.elapsed.as_secs_f64() * 1e3,
            q.mem_bytes,
            match q.cancelled {
                Some(reason) => format!("\"{reason}\""),
                None => "null".to_string(),
            },
        ));
    }
    out.push_str("]\n");
    out
}

/// The replica health table as JSON, one object per replica in set order
/// (`r0` is the gateway's primary backend).
fn render_replicas_json(replicas: &[ReplicaSnapshot]) -> String {
    let mut out = String::from("[");
    for (i, r) in replicas.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"health\":\"{}\",\"pinned_sessions\":{},\
             \"journal_depth\":{},\"fences\":{},\"heals\":{}}}",
            r.name,
            r.health.as_str(),
            r.pinned_sessions,
            r.journal_depth,
            r.fences,
            r.heals,
        ));
    }
    out.push_str("]\n");
    out
}

fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(
    mut stream: TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, target: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routes_serve_and_close() {
        let obs = ObsContext::new();
        obs.metrics.counter("demo_total", &[]).inc();
        obs.provenance.begin();
        obs.provenance.finish(hyperq_obs::provenance::FinishedStatement {
            trace: hyperq_obs::TraceId(1),
            fingerprint: 7,
            kind: "select",
            target: "simwh",
            sql: "SELECT ?",
            total: Duration::from_micros(100),
            features: vec!["T1"],
            analyze_mode: "strict",
            rows: 1,
            error: None,
        });
        let handle = spawn("127.0.0.1:0", Arc::clone(&obs)).unwrap();
        let (head, body) = get(handle.addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");
        let (_, metrics) = get(handle.addr, "/metrics");
        assert!(metrics.contains("demo_total 1"), "{metrics}");
        let (_, json) = get(handle.addr, "/metrics.json");
        hyperq_obs::json::validate(&json).unwrap();
        let (_, prov) = get(handle.addr, "/provenance?n=10");
        hyperq_obs::json::validate(&prov).unwrap();
        assert!(prov.contains("\"kind\":\"select\""), "{prov}");
        let (_, report) = get(handle.addr, "/report");
        hyperq_obs::json::validate(&report).unwrap();
        let (_, text) = get(handle.addr, "/report?format=text");
        assert!(text.contains("workload report"), "{text}");
        let (_, statements) = get(handle.addr, "/statements");
        hyperq_obs::json::validate(&statements).unwrap();
        assert!(statements.contains("\"calls\":1,"), "{statements}");
        let (head, _) = get(handle.addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        let mut stream = TcpStream::connect(handle.addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        handle.shutdown();
    }
}
