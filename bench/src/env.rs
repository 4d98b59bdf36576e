//! The system under test, assembled the way production assembles it: an
//! engine as the warehouse, `Gateway::spawn` on loopback in this process,
//! one TDWP session.

use std::path::PathBuf;
use std::sync::Arc;

use hyperq_core::Backend;
use hyperq_engine::EngineDb;
use hyperq_wire::{Client, Gateway, GatewayConfig, GatewayHandle};
use hyperq_xtra::Row;

use crate::backend::TimedBackend;
use crate::frame_client::FrameClient;
use crate::trace::Recorder;
use crate::verify::digest;
use crate::workload::{Stmt, Workload};

pub const USER: &str = "APP";
pub const PASSWORD: &str = "secret";

/// `GatewayConfig::default()` — cache, admission, resilience, analyze and
/// conformance in log-only mode: what production gets — with two recorded
/// deviations.
pub fn gateway_config() -> GatewayConfig {
    let mut config = GatewayConfig::default();
    // 1. Memory budgets raised from 256 MiB per query and 1 GiB in total to
    //    sizes no query reaches (not to 0, which would switch the ledger
    //    off instead of leaving it running). Under the defaults TPC-H Q11
    //    is killed with [2646] at SF 0.01 (268 MB charged), and a killed
    //    query is faster than a finished one: measuring the default would
    //    punish whoever fixes it.
    config.governor.per_query_memory = 1 << 40;
    config.governor.total_memory = 1 << 42;
    // 2. Spill files, should a result ever exceed the converter's budget,
    //    go next to the benchmark's executable instead of the system's
    //    temporary directory: a run writes only inside its checkout.
    config.converter.spill_dir = spill_dir();
    config
}

pub fn spill_dir() -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("bench_e2e_spill")))
        .unwrap_or_else(|| PathBuf::from(crate::RESULTS_DIR).join("spill"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// A loaded warehouse behind a running gateway.
pub struct Env {
    pub db: Arc<EngineDb>,
    pub backend: Arc<TimedBackend>,
    pub gateway: GatewayHandle,
}

impl Env {
    /// Load the workload's tables and start the gateway.
    pub fn start(workload: &dyn Workload, recorder: Option<Arc<Recorder>>) -> Result<Env, String> {
        let db = Arc::new(EngineDb::new());
        workload.load(&db);
        let backend = TimedBackend::new(Arc::clone(&db), recorder);
        let gateway = Gateway::spawn(Arc::clone(&backend) as Arc<dyn Backend>, gateway_config())
            .map_err(|e| format!("gateway spawn: {e}"))?;
        Ok(Env {
            db,
            backend,
            gateway,
        })
    }

    pub fn stop(self) {
        self.gateway.shutdown();
    }
}

/// What both clients can do: send one request, hand back its result sets
/// as `(rows, activity_count)`.
pub trait Session {
    fn send(&mut self, sql: &str) -> Result<Vec<(Vec<Row>, u64)>, String>;
}

impl Session for Client {
    fn send(&mut self, sql: &str) -> Result<Vec<(Vec<Row>, u64)>, String> {
        let sets = self.run(sql).map_err(|e| e.to_string())?;
        Ok(sets
            .into_iter()
            .map(|s| (s.rows, s.activity_count))
            .collect())
    }
}

impl Session for FrameClient {
    fn send(&mut self, sql: &str) -> Result<Vec<(Vec<Row>, u64)>, String> {
        let exchange = self.request(sql).map_err(|e| e.to_string())?;
        match exchange.error {
            Some(e) => Err(e),
            None => Ok(exchange.sets),
        }
    }
}

/// Check one response against what the statement expects.
pub fn verify(
    workload: &dyn Workload,
    stmt: &Stmt,
    sets: &[(Vec<Row>, u64)],
) -> Result<(), String> {
    let d = digest(
        sets.iter()
            .map(|(rows, activity)| (rows.as_slice(), *activity)),
    );
    stmt.expect.check(&stmt.sql, &d, workload.goldens())
}

/// The session's share of set-up: the definitions the application relies
/// on, then the warm-up pass with every result checked. Returns the number
/// of warm-up statements and the failures among them.
pub fn prepare(
    session: &mut dyn Session,
    workload: &mut dyn Workload,
    seed: u64,
) -> Result<(u64, Vec<String>), String> {
    for sql in workload.session_setup() {
        session
            .send(&sql)
            .map_err(|e| format!("session set-up failed: {sql}: {e}"))?;
    }
    let warmup = workload.warmup(seed);
    let mut failures = Vec::new();
    for stmt in &warmup {
        match session.send(&stmt.sql) {
            Ok(sets) => failures.extend(verify(workload, stmt, &sets).err()),
            Err(e) => failures.push(format!("{e}: {}", stmt.sql)),
        }
    }
    Ok((warmup.len() as u64, failures))
}
