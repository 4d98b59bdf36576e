//! Watching a workload live: run a customer-corpus slice through the
//! gateway, then read everything an operator needs — Prometheus metrics,
//! per-query provenance, the per-fingerprint statement table, and the
//! Figure 7/8 analog workload report — off the observability endpoint with
//! nothing but an HTTP GET.
//!
//! ```sh
//! cargo run --example workload_intelligence
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use hyperq::core::Backend;
use hyperq::engine::EngineDb;
use hyperq::wire::{Client, Gateway, GatewayConfig};
use hyperq::workload::customer::health;

fn http_get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect obs endpoint");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    raw.split_once("\r\n\r\n").map(|(_, body)| body.to_string()).unwrap_or(raw)
}

fn main() {
    // A small slice of the synthetic Health workload (Table 1 / Figure 8).
    let corpus = health(0.01);
    let db = Arc::new(EngineDb::new());
    for ddl in &corpus.target_ddl {
        db.execute_sql(ddl).unwrap();
    }

    // The gateway serves TDWP on one port and, with `obs_http` set, a
    // read-only observability endpoint on another.
    let config = GatewayConfig { obs_http: Some("127.0.0.1:0".into()), ..Default::default() };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let obs_addr = handle.obs_addr().unwrap();
    println!("gateway on {}, observability on http://{obs_addr}", handle.addr);

    // The "application": a bteq-style client replaying the corpus.
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    for setup in &corpus.hyperq_setup {
        client.run(setup).unwrap();
    }
    let mut failures = 0;
    for text in &corpus.distinct {
        if client.run(text).is_err() {
            failures += 1;
        }
    }
    println!(
        "replayed {} distinct queries ({failures} failures)\n",
        corpus.distinct.len()
    );

    // What the operator sees, live, while the workload runs.
    println!("== GET /report?format=text ==");
    println!("{}", http_get(obs_addr, "/report?format=text"));

    println!("== GET /statements (cumulative, one row per fingerprint) ==");
    println!("{}\n", http_get(obs_addr, "/statements"));

    println!("== GET /provenance?n=2 (most recent statements) ==");
    println!("{}\n", http_get(obs_addr, "/provenance?n=2"));

    println!("== GET /metrics (excerpt) ==");
    let prom = http_get(obs_addr, "/metrics");
    for line in prom.lines().filter(|l| {
        l.starts_with("hyperq_statements_total")
            || l.starts_with("hyperq_cache_")
            || l.starts_with("hyperq_stage_duration_seconds_p95")
    }) {
        println!("{line}");
    }

    client.logoff().unwrap();
    handle.shutdown();
}
