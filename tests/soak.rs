//! Deterministic chaos-soak harness: dozens of concurrent Hyper-Q sessions
//! driven through seeded connection kills and gateway overload, asserting
//! **zero state divergence** against a fault-free baseline run.
//!
//! The invariant under test is the session-continuity contract of
//! `core::recover`: a `ConnectionLost` anywhere in the pipeline must be
//! invisible to the client (replay-safe statements), or surface exactly one
//! clean error (open transactions), and must never corrupt target-side
//! session state (settings, GTT instances, emulation temps).
//!
//! Every schedule is seeded and deterministic: the same config produces the
//! same per-session statement scripts and the same kill cadence, so a
//! failure reproduces byte-for-byte.
//!
//! The CI-bounded config runs in seconds; the full soak is `#[ignore]`d —
//! run it with `cargo test --test soak -- --ignored`.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use hyperq::core::backend::testing::{FaultInjectingBackend, FaultPlan, FaultScope};
use hyperq::core::backend::BackendErrorKind;
use hyperq::core::{
    Backend, CacheConfig, HyperQBuilder, ObsContext, TranslationCache, TXN_ABORT_MESSAGE,
};
use hyperq::engine::EngineDb;
use hyperq::wire::{AdmissionConfig, Client, Gateway, GatewayConfig};

/// Knobs of one soak run. Same config ⇒ same scripts, same kill schedule.
#[derive(Clone, Copy)]
struct SoakConfig {
    sessions: usize,
    rounds: usize,
    seed: u64,
}

/// Tiny splitmix-style generator: deterministic statement mix per session,
/// identical between the baseline and chaos runs.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

const RECURSIVE_REPORTS: &str = "WITH RECURSIVE REPORTS (EMPNO, MGRNO) AS ( \
     SELECT EMPNO, MGRNO FROM EMP WHERE MGRNO = 10 \
     UNION ALL \
     SELECT EMP.EMPNO, EMP.MGRNO FROM EMP, REPORTS \
     WHERE REPORTS.EMPNO = EMP.MGRNO ) \
   SELECT EMPNO FROM REPORTS ORDER BY EMPNO";

/// Shared fixture: read-only tables every session queries, so concurrent
/// schedules stay deterministic (sessions write only to private tables).
fn seed_db() -> Arc<EngineDb> {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SHARED_SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    db.execute_sql(
        "INSERT INTO SHARED_SALES VALUES (1, 500), (1, 200), (2, 300), (3, 700), (3, 50)",
    )
    .unwrap();
    db.execute_sql("CREATE TABLE EMP (EMPNO INTEGER, MGRNO INTEGER)").unwrap();
    db.execute_sql("INSERT INTO EMP VALUES (1,7),(7,8),(8,10),(9,10),(10,11)").unwrap();
    db
}

/// The deterministic statement schedule of session `i`: private-table DML,
/// a journaled session setting, GTT materialization and reuse, shared-table
/// reads, and recursive-query emulation — every feature with target-side
/// session state.
fn script_for(i: usize, cfg: SoakConfig) -> Vec<String> {
    let mut rng = Lcg::new(cfg.seed ^ (i as u64).wrapping_mul(0x5851F42D4C957F2D));
    let mut stmts = vec![
        format!("CREATE TABLE S{i}_LOG (N INTEGER, V INTEGER)"),
        "SET SESSION DATEFORM = 'ANSIDATE'".to_string(),
        format!("CREATE GLOBAL TEMPORARY TABLE SCRATCH{i} (K INTEGER, V INTEGER)"),
        format!("INS SCRATCH{i} (0, {})", i * 7),
    ];
    for r in 0..cfg.rounds {
        stmts.push(format!("INSERT INTO S{i}_LOG VALUES ({r}, {})", i * 1000 + r));
        match rng.next() % 4 {
            0 => stmts.push(format!("SEL COUNT(*) FROM S{i}_LOG")),
            1 => stmts.push(
                "SEL STORE, SUM(AMOUNT) FROM SHARED_SALES GROUP BY STORE ORDER BY STORE"
                    .to_string(),
            ),
            2 => {
                stmts.push(format!("INS SCRATCH{i} ({}, {})", r + 1, rng.next() % 100));
                stmts.push(format!("SEL SUM(V) FROM SCRATCH{i}"));
            }
            _ => stmts.push(RECURSIVE_REPORTS.to_string()),
        }
    }
    stmts.push(format!("SEL N, V FROM S{i}_LOG ORDER BY N"));
    stmts
}

/// Render the client-visible outcome of one statement. Only what a client
/// observes goes in — timings and sql_sent legitimately differ under chaos
/// (replays), results must not.
fn render(outcome: Result<hyperq::core::StatementOutcome, hyperq::core::HyperQError>) -> String {
    match outcome {
        Ok(o) => {
            let cols: Vec<&str> =
                o.result.schema.fields.iter().map(|f| f.name.as_str()).collect();
            format!("ok cols={cols:?} rows={:?} count={}", o.result.rows, o.result.row_count)
        }
        Err(e) => format!("err {e}"),
    }
}

fn run_session(
    backend: Arc<dyn Backend>,
    script: &[String],
    obs: &Arc<ObsContext>,
    cache: Option<&Arc<TranslationCache>>,
) -> Vec<String> {
    let builder = HyperQBuilder::for_target(backend, hyperq::core::targets::simwh()).obs(Arc::clone(obs));
    let builder = match cache {
        Some(c) => builder.shared_cache(Arc::clone(c)),
        None => builder.no_cache(),
    };
    let mut hq = builder.build();
    script.iter().map(|stmt| render(hq.run_one(stmt))).collect()
}

/// Replace per-session name suffixes (`_S<id>` from `SessionState` ids) with
/// `_S#` so baseline and chaos snapshots compare despite different ids.
fn normalize(name: &str) -> String {
    let bytes = name.as_bytes();
    let mut out = String::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'_'
            && i + 2 < bytes.len() + 1
            && bytes.get(i + 1) == Some(&b'S')
            && bytes.get(i + 2).is_some_and(u8::is_ascii_digit)
        {
            let mut j = i + 2;
            while bytes.get(j).is_some_and(u8::is_ascii_digit) {
                j += 1;
            }
            out.push_str("_S#");
            i = j;
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Full target-side state: every table's rows (sorted) under normalized
/// names, plus the target session parameters.
fn state_snapshot(db: &EngineDb) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    for t in db.table_names() {
        let dump = db.execute_sql(&format!("SELECT * FROM {t}")).expect("state dump");
        let mut rows: Vec<String> = dump.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        out.insert(normalize(&t), rows);
    }
    out.insert(
        "<session-params>".to_string(),
        db.session_params().iter().map(|(k, v)| format!("{k}={v}")).collect(),
    );
    out
}

/// Per-session client transcripts plus the final (normalized) backend state.
type RunOutput = (Vec<Vec<String>>, BTreeMap<String, Vec<String>>, u64, u64, u64);

/// One full soak run: all sessions concurrently, optional per-session kill
/// schedule, optionally one translation cache shared across all sessions
/// (the gateway topology). Returns (per-session transcripts, final state,
/// faults injected, recoveries completed, cache hits).
fn soak_run(cfg: SoakConfig, chaos: bool) -> RunOutput {
    soak_run_with(cfg, chaos, false)
}

fn soak_run_with(cfg: SoakConfig, chaos: bool, shared_cache: bool) -> RunOutput {
    let db = seed_db();
    let obs = ObsContext::new();
    let cache = shared_cache
        .then(|| Arc::new(TranslationCache::new(CacheConfig::default(), &obs)));
    let mut transcripts = Vec::new();
    let mut kills = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let db = Arc::clone(&db);
                let obs = Arc::clone(&obs);
                let cache = cache.clone();
                let script = script_for(i, cfg);
                s.spawn(move || {
                    if chaos {
                        // Kill cadence varies per session; `IdempotentOnly`
                        // keeps every injected kill transparently
                        // recoverable, which is what "zero divergence"
                        // asserts. Period ≥ 3 so a replayed setting plus the
                        // re-issued statement never land on the next tick.
                        let period = 3 + (i as u64 % 4);
                        let fault = FaultInjectingBackend::wrap(
                            db as Arc<dyn Backend>,
                            FaultPlan::kill_every(period)
                                .with_scope(FaultScope::IdempotentOnly),
                        );
                        let t = run_session(
                            Arc::clone(&fault) as Arc<dyn Backend>,
                            &script,
                            &obs,
                            cache.as_ref(),
                        );
                        (t, fault.injected_faults())
                    } else {
                        (run_session(db as Arc<dyn Backend>, &script, &obs, cache.as_ref()), 0)
                    }
                })
            })
            .collect();
        for h in handles {
            let (t, k) = h.join().unwrap();
            transcripts.push(t);
            kills += k;
        }
    });
    let recoveries = obs.metrics.counter_value("hyperq_recovery_success_total", &[]);
    let hits = obs.metrics.counter_value("hyperq_cache_hits_total", &[]);
    (transcripts, state_snapshot(&db), kills, recoveries, hits)
}

fn assert_zero_divergence(cfg: SoakConfig) {
    let (base_t, base_s, _, _, _) = soak_run(cfg, false);
    let (chaos_t, chaos_s, kills, recoveries, _) = soak_run(cfg, true);
    assert!(kills > 0, "soak must actually inject kills");
    assert!(recoveries > 0, "kills must drive the recovery path");
    for (i, (b, c)) in base_t.iter().zip(chaos_t.iter()).enumerate() {
        assert_eq!(b, c, "session {i}: chaos transcript diverged from baseline");
    }
    assert_eq!(base_s, chaos_s, "final target state diverged");
}

#[test]
fn soak_chaos_run_matches_fault_free_baseline() {
    // CI-bounded: finishes in seconds while still covering every statement
    // class and several kills per session.
    assert_zero_divergence(SoakConfig { sessions: 8, rounds: 6, seed: 0xC0FFEE });
}

/// The translation cache under chaos: a cache-off fault-free baseline
/// versus a chaos run where every session shares one cache (the gateway
/// topology). Kills, recoveries and warm hits all fire, and neither the
/// client transcripts nor the final target state may diverge.
#[test]
fn cache_enabled_chaos_soak_matches_cache_off_baseline() {
    let cfg = SoakConfig { sessions: 8, rounds: 6, seed: 0xCAC4E };
    let (base_t, base_s, _, _, _) = soak_run_with(cfg, false, false);
    let (chaos_t, chaos_s, kills, recoveries, hits) = soak_run_with(cfg, true, true);
    assert!(kills > 0, "soak must actually inject kills");
    assert!(recoveries > 0, "kills must drive the recovery path");
    assert!(hits > 0, "the shared cache must serve warm hits during the soak");
    for (i, (b, c)) in base_t.iter().zip(chaos_t.iter()).enumerate() {
        assert_eq!(b, c, "session {i}: cached chaos transcript diverged from cache-off baseline");
    }
    assert_eq!(base_s, chaos_s, "final target state diverged");
}

#[test]
#[ignore = "full chaos soak; run with: cargo test --test soak -- --ignored"]
fn soak_full_chaos_many_sessions() {
    assert_zero_divergence(SoakConfig { sessions: 24, rounds: 20, seed: 0xDEC0DE });
    assert_zero_divergence(SoakConfig { sessions: 32, rounds: 12, seed: 7 });
}

/// Self-healing replica soak: the same concurrent session schedules as the
/// recovery soak, but served by a three-replica set where one replica dies
/// on a seeded kill schedule and another is hard-down for the whole run.
/// The replication layer must mask every fault (client transcripts
/// byte-identical to a fault-free single-backend baseline), and after the
/// links heal the background prober must drain every write-repair journal
/// so all three replica states converge to the baseline state.
#[test]
fn replica_kill_soak_matches_single_backend_baseline_and_converges() {
    use hyperq::core::resilience::{ResilienceConfig, RetryPolicy};
    use hyperq::core::{ReplicaConfig, ReplicatedBackend};

    let cfg = SoakConfig { sessions: 6, rounds: 5, seed: 0x5EED5 };

    // ---- fault-free single-backend baseline ----
    let base_db = seed_db();
    let base_obs = ObsContext::new();
    let baseline: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let db = Arc::clone(&base_db);
                let obs = Arc::clone(&base_obs);
                let script = script_for(i, cfg);
                s.spawn(move || run_session(db as Arc<dyn Backend>, &script, &obs, None))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let base_state = state_snapshot(&base_db);

    // ---- chaos: three identically seeded replicas, two of them faulty ----
    let dbs: Vec<Arc<EngineDb>> = (0..3).map(|_| seed_db()).collect();
    let injectors: Vec<Arc<FaultInjectingBackend>> = dbs
        .iter()
        .map(|db| FaultInjectingBackend::wrap(Arc::clone(db) as Arc<dyn Backend>, FaultPlan::none()))
        .collect();
    // r1 dies on a seeded schedule and recovers when it runs out; r2 is
    // hard-down for the whole run. Every injected kill fires before the
    // inner engine executes, so a killed replica missed the statement
    // entirely and journal replay is exact: reads fail over (and may
    // retry — they are idempotent), killed broadcast writes fence the
    // replica and land in its repair journal. The scripts run no
    // transactions, so the default all-calls scope kills reads and writes
    // alike.
    injectors[1].set_plan(FaultPlan::seeded_kills(cfg.seed, 0.12, 400));
    injectors[2].set_plan(FaultPlan::always_fail(BackendErrorKind::ConnectionLost));
    let obs = ObsContext::new();
    let rep = Arc::new(
        ReplicatedBackend::with_config(
            injectors.iter().map(|f| Arc::clone(f) as Arc<dyn Backend>).collect(),
            ReplicaConfig {
                probe_interval: Duration::from_millis(20),
                journal_capacity: 4096,
                resilience: Some(ResilienceConfig {
                    retry: RetryPolicy {
                        max_attempts: 2,
                        base_backoff: Duration::from_millis(1),
                        ..Default::default()
                    },
                    ..Default::default()
                }),
                ..Default::default()
            },
            &obs,
        )
        .unwrap(),
    );
    let prober = rep.spawn_prober();
    let transcripts: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let rep = Arc::clone(&rep);
                let obs = Arc::clone(&obs);
                let script = script_for(i, cfg);
                s.spawn(move || run_session(rep as Arc<dyn Backend>, &script, &obs, None))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every client saw exactly the fault-free bytes.
    for (i, (b, c)) in baseline.iter().zip(transcripts.iter()).enumerate() {
        assert_eq!(b, c, "session {i}: replicated chaos transcript diverged from baseline");
    }

    // Heal the links and let the background prober drain the journals.
    injectors[1].set_plan(FaultPlan::none());
    injectors[2].set_plan(FaultPlan::none());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rep.healthy_replicas() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "prober never healed the replica set: {:?}",
            rep.snapshot()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(prober);

    let snaps = rep.snapshot();
    for snap in &snaps {
        assert_eq!(snap.journal_depth, 0, "journal leak on {}: {snaps:?}", snap.name);
    }
    assert!(snaps.iter().map(|s| s.fences).sum::<u64>() >= 1, "soak must fence a replica");
    assert!(snaps.iter().map(|s| s.heals).sum::<u64>() >= 1, "soak must heal a replica");
    assert_eq!(rep.divergences(), 0, "identical replicas must never diverge");
    for (i, db) in dbs.iter().enumerate() {
        assert_eq!(
            state_snapshot(db),
            base_state,
            "replica r{i} state diverged from the fault-free baseline"
        );
    }
}

/// Losing the transaction-pinned replica mid-transaction surfaces exactly
/// one 2631-style abort through the recovery layer, the session stays
/// usable, and a repair sweep re-converges the fenced replica.
#[test]
fn losing_pinned_replica_mid_transaction_aborts_once_then_recovers() {
    use hyperq::core::resilience::{ResilienceConfig, RetryPolicy};
    use hyperq::core::ReplicaConfig;

    let mk = || {
        let db = Arc::new(EngineDb::new());
        db.execute_sql("CREATE TABLE TXN_T (A INTEGER)").unwrap();
        let injector =
            FaultInjectingBackend::wrap(Arc::clone(&db) as Arc<dyn Backend>, FaultPlan::none());
        (db, injector)
    };
    let (db_a, inj_a) = mk();
    let (db_b, inj_b) = mk();
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(
        Arc::clone(&inj_a) as Arc<dyn Backend>,
        hyperq::core::targets::simwh(),
    )
    .replicas(
        vec![Arc::clone(&inj_b) as Arc<dyn Backend>],
        ReplicaConfig {
            probe_interval: Duration::ZERO,
            resilience: Some(ResilienceConfig {
                retry: RetryPolicy { max_attempts: 1, ..Default::default() },
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .obs(Arc::clone(&obs))
    .build();
    let rep = Arc::clone(hq.replication().expect("builder must assemble the replica set"));

    hq.run_one("BT").unwrap();
    hq.run_one("INS TXN_T (1)").unwrap();
    let pinned = rep.pinned_replica().expect("in-transaction statements must pin a replica");
    let pinned_injector = if pinned == "r0" { &inj_a } else { &inj_b };
    pinned_injector
        .set_plan(FaultPlan::always_fail(BackendErrorKind::ConnectionLost));

    // One clean abort: the pinned replica is gone, so the open transaction
    // cannot be transparently moved to a peer.
    let err = hq.run_one("INS TXN_T (2)").unwrap_err().to_string();
    assert!(err.contains(TXN_ABORT_MESSAGE), "expected a txn abort, got: {err}");
    assert!(rep.pinned_replica().is_none(), "the dead pin must be released");

    // The session is immediately usable (reads route to the survivor;
    // backend transactions are emulated in-tier, so the survivor applied
    // the broadcast before the pinned failure surfaced the abort) …
    let o = hq.run_one("SEL COUNT(*) FROM TXN_T").unwrap();
    assert_eq!(format!("{:?}", o.result.rows[0][0]), "Int(2)");

    // … and after the link heals, one repair sweep re-converges the
    // fenced replica with the survivor.
    pinned_injector.set_plan(FaultPlan::none());
    let report = rep.probe_and_repair();
    assert_eq!(report.healed, 1, "{report:?}");
    assert_eq!(rep.healthy_replicas(), 2);
    assert_eq!(state_snapshot(&db_a), state_snapshot(&db_b), "replicas must re-converge");
}

#[test]
fn in_transaction_kill_yields_single_txn_abort_wire_error() {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE TXN_T (A INTEGER)").unwrap();
    // Kill every statement executed inside an open transaction.
    let fault = FaultInjectingBackend::wrap(
        Arc::clone(&db) as Arc<dyn Backend>,
        FaultPlan::kill_every(1).with_scope(FaultScope::InTransactionOnly),
    );
    let handle = Gateway::spawn(fault as Arc<dyn Backend>, GatewayConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr, "APP", "secret").unwrap();

    c.run("BT").unwrap();
    let err = c.run("INS TXN_T (1)").unwrap_err().to_string();
    assert!(err.contains("[2631]"), "txn abort must carry its own wire code: {err}");
    assert!(err.contains(TXN_ABORT_MESSAGE), "{err}");

    // Exactly one abort: the session is restored and immediately usable,
    // and the killed INSERT never reached the target.
    let rows = c.run("SEL COUNT(*) FROM TXN_T").unwrap();
    assert_eq!(format!("{:?}", rows[0].rows[0][0]), "Int(0)");
    c.run("INS TXN_T (2)").unwrap();
    let rows = c.run("SEL COUNT(*) FROM TXN_T").unwrap();
    assert_eq!(format!("{:?}", rows[0].rows[0][0]), "Int(1)");
    c.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn kill_during_recursion_cleanup_journals_orphan_and_reconnect_retires_it() {
    let db = seed_db();
    // First kill hits the recursion's work-table CTAS; second kills the
    // best-effort cleanup DROP — the classic double fault that used to
    // leave an orphaned temp name the next reconnect would resurrect.
    let fault = FaultInjectingBackend::wrap(
        Arc::clone(&db) as Arc<dyn Backend>,
        FaultPlan::kill_on_sql("WT_", 2),
    );
    let obs = ObsContext::new();
    let mut hq = HyperQBuilder::for_target(Arc::clone(&fault) as Arc<dyn Backend>, hyperq::core::targets::simwh()).obs(Arc::clone(&obs)).build();

    hq.run_one(RECURSIVE_REPORTS)
        .expect_err("CTAS and its cleanup were both killed");
    assert_eq!(hq.session.journal.pending_orphans(), 1, "failed cleanup must be journaled");

    // Heal the target except for one more kill on an ordinary statement:
    // the recovery it triggers must replay the orphan drop and retire it.
    fault.set_plan(FaultPlan::fail_n_then_succeed(1, BackendErrorKind::ConnectionLost));
    hq.run_one("SEL COUNT(*) FROM EMP").unwrap();
    assert_eq!(hq.session.journal.pending_orphans(), 0, "reconnect must retire the orphan");
    assert!(
        db.table_names().iter().all(|t| !t.starts_with("WT_") && !t.starts_with("TT_")),
        "no emulation temps may survive: {:?}",
        db.table_names()
    );
    assert!(obs.metrics.counter_value(
        "hyperq_recovery_replayed_entries_total",
        &[("kind", "orphan_temp")]
    ) >= 1);

    // A later recursive query over the same session works end to end.
    let o = hq.run_one(RECURSIVE_REPORTS).unwrap();
    assert_eq!(o.result.rows.len(), 4);
}

#[test]
fn overload_soak_sheds_cleanly_and_serves_survivors_identically() {
    let db = seed_db();
    let handle = Gateway::spawn(
        Arc::clone(&db) as Arc<dyn Backend>,
        GatewayConfig {
            max_connections: 3,
            admission: Some(AdmissionConfig {
                connection_queue: 2,
                admission_timeout: Duration::from_millis(300),
                ..Default::default()
            }),
            ..Default::default()
        },
    )
    .unwrap();

    // A thundering herd twice the gateway's total headroom, released at
    // once. Admitted sessions hold their slot past the admission timeout so
    // the shed set is deterministic in size.
    let clients = 10;
    let barrier = Arc::new(Barrier::new(clients));
    let addr = handle.addr;
    let results: Vec<Result<Vec<String>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut c = Client::connect(addr, "APP", "secret")
                        .map_err(|e| e.to_string())?;
                    let mut transcript = Vec::new();
                    for _ in 0..3 {
                        let rows = c
                            .run("SEL STORE, SUM(AMOUNT) FROM SHARED_SALES \
                                  GROUP BY STORE ORDER BY STORE")
                            .map_err(|e| e.to_string())?;
                        transcript.push(format!("{rows:?}"));
                    }
                    std::thread::sleep(Duration::from_millis(450));
                    c.logoff().map_err(|e| e.to_string())?;
                    Ok(transcript)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let served: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    let shed: Vec<_> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(served.len() >= 3, "the capacity's worth of sessions must be served");
    assert!(!shed.is_empty(), "overload must shed some of the herd");
    for e in &shed {
        assert!(
            e.contains("[3135]") || e.contains("[3136]"),
            "shed errors must carry an admission code, got: {e}"
        );
    }
    // Every served session saw byte-identical results — overload shedding
    // never corrupts admitted sessions. An unloaded client afterwards gets
    // the same bytes, pinning the shared baseline.
    let mut solo = Client::connect(addr, "APP", "secret").unwrap();
    let baseline = format!(
        "{:?}",
        solo.run("SEL STORE, SUM(AMOUNT) FROM SHARED_SALES GROUP BY STORE ORDER BY STORE")
            .unwrap()
    );
    solo.logoff().unwrap();
    for t in &served {
        assert_eq!(t.len(), 3);
        for one in *t {
            assert_eq!(one, &baseline);
        }
    }
    handle.shutdown();
}

/// Backend wrapper for the cancel soak: statements touching the
/// `SLOW_EVENTS` marker table stall long enough for aborts and deadlines to
/// land mid-flight; everything else runs at full speed so survivor
/// schedules stay cheap and deterministic.
struct MarkerSlowBackend {
    inner: Arc<EngineDb>,
}

impl Backend for MarkerSlowBackend {
    fn name(&self) -> &str {
        "marker-slow-simwh"
    }

    fn execute(
        &self,
        sql: &str,
    ) -> Result<hyperq::core::backend::ExecResult, hyperq::core::backend::BackendError> {
        if sql.contains("SLOW_EVENTS") {
            std::thread::sleep(Duration::from_millis(200));
        }
        self.inner.execute(sql)
    }

    fn execute_ctx(
        &self,
        sql: &str,
        ctx: hyperq::core::backend::RequestContext,
    ) -> Result<hyperq::core::backend::ExecResult, hyperq::core::backend::BackendError> {
        if sql.contains("SLOW_EVENTS") {
            std::thread::sleep(Duration::from_millis(200));
        }
        self.inner.execute_ctx(sql, ctx)
    }

    fn table_meta(&self, name: &str) -> Option<hyperq::xtra::catalog::TableDef> {
        self.inner.table_meta(name)
    }

    fn reset_session(&self) -> Result<(), hyperq::core::backend::BackendError> {
        self.inner.reset_session()
    }
}

/// Seeded cancel/timeout/budget-kill soak over the wire: concurrent
/// sessions interleave survivor statements with scheduled kills (client
/// aborts, per-request deadlines, memory-budget trips). Every kill must
/// surface its one well-defined wire code, every survivor must produce
/// bytes identical to a kill-free baseline, and the run must end with zero
/// leaks: no emulation temps, an empty in-flight table, a drained memory
/// pool.
#[test]
fn cancel_soak_survivors_match_baseline_with_zero_leaks() {
    use hyperq::governor::GovernorConfig;

    fn seed_cancel_db() -> Arc<EngineDb> {
        let db = seed_db();
        db.execute_sql("CREATE TABLE SLOW_EVENTS (N INTEGER)").unwrap();
        db.execute_sql("INSERT INTO SLOW_EVENTS VALUES (1), (2)").unwrap();
        let vals: Vec<String> = (0..64).map(|i| format!("({i})")).collect();
        db.execute_sql("CREATE TABLE B64 (N INTEGER)").unwrap();
        db.execute_sql(&format!("INSERT INTO B64 VALUES {}", vals.join(", "))).unwrap();
        db
    }

    /// Survivor statement `r` of session `i` — read-only, so concurrent
    /// sessions cannot perturb each other's bytes.
    fn survivor_stmt(rng: &mut Lcg) -> String {
        match rng.next() % 3 {
            0 => "SEL COUNT(*) FROM SHARED_SALES".to_string(),
            1 => "SEL STORE, SUM(AMOUNT) FROM SHARED_SALES GROUP BY STORE ORDER BY STORE"
                .to_string(),
            _ => RECURSIVE_REPORTS.to_string(),
        }
    }

    let sessions = 6;
    let rounds = 5;
    let seed = 0xC0FFEE_u64;

    // ---- fault-free baseline: survivor statements only, plain gateway ----
    let base_db = seed_cancel_db();
    let base_handle =
        Gateway::spawn(Arc::clone(&base_db) as Arc<dyn Backend>, GatewayConfig::default())
            .unwrap();
    let mut baseline: Vec<Vec<String>> = Vec::new();
    for i in 0..sessions {
        let mut rng = Lcg::new(seed ^ (i as u64).wrapping_mul(0x5851F42D4C957F2D));
        let mut c = Client::connect(base_handle.addr, "APP", "secret").unwrap();
        let mut t = Vec::new();
        for _ in 0..rounds {
            t.push(format!("{:?}", c.run(&survivor_stmt(&mut rng)).unwrap()));
            rng.next(); // burn the kill-schedule draw so streams stay aligned
        }
        c.logoff().unwrap();
        baseline.push(t);
    }
    base_handle.shutdown();

    // ---- chaos run: same survivor schedule + seeded kills in between ----
    let db = seed_cancel_db();
    let tables_before = db.table_names();
    let backend = Arc::new(MarkerSlowBackend { inner: Arc::clone(&db) });
    let handle = Gateway::spawn(
        backend as Arc<dyn Backend>,
        GatewayConfig {
            governor: GovernorConfig { per_query_memory: 256 * 1024, ..Default::default() },
            ..Default::default()
        },
    )
    .unwrap();

    let addr = handle.addr;
    let barrier = Arc::new(Barrier::new(sessions));
    let outcomes: Vec<(Vec<String>, [u32; 3])> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    let mut rng =
                        Lcg::new(seed ^ (i as u64).wrapping_mul(0x5851F42D4C957F2D));
                    barrier.wait();
                    let mut c = Client::connect(addr, "APP", "secret").unwrap();
                    let mut transcript = Vec::new();
                    // kills seen per reason: [abort, deadline, budget]
                    let mut kills = [0u32; 3];
                    for _ in 0..rounds {
                        transcript
                            .push(format!("{:?}", c.run(&survivor_stmt(&mut rng)).unwrap()));
                        match rng.next() % 4 {
                            0 => {
                                let mut aborter = c.aborter().unwrap();
                                let killer = std::thread::spawn(move || {
                                    std::thread::sleep(Duration::from_millis(50));
                                    aborter.abort().unwrap();
                                });
                                let e = c
                                    .run("SEL COUNT(*) FROM SLOW_EVENTS")
                                    .unwrap_err()
                                    .to_string();
                                killer.join().unwrap();
                                assert!(e.contains("[3110]"), "abort kill: {e}");
                                kills[0] += 1;
                            }
                            1 => {
                                let e = c
                                    .run_timed(
                                        "SEL COUNT(*) FROM SLOW_EVENTS",
                                        Duration::from_millis(50),
                                    )
                                    .unwrap_err()
                                    .to_string();
                                assert!(e.contains("[3156]"), "deadline kill: {e}");
                                kills[1] += 1;
                            }
                            2 => {
                                let e = c
                                    .run("SEL A.N FROM B64 A, B64 B, B64 C")
                                    .unwrap_err()
                                    .to_string();
                                assert!(e.contains("[2646]"), "budget kill: {e}");
                                kills[2] += 1;
                            }
                            _ => {} // kill-free round
                        }
                    }
                    c.logoff().unwrap();
                    (transcript, kills)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut total = [0u32; 3];
    for (i, (transcript, kills)) in outcomes.iter().enumerate() {
        assert_eq!(
            transcript, &baseline[i],
            "session {i}: survivor bytes diverged from the kill-free baseline"
        );
        for r in 0..3 {
            total[r] += kills[r];
        }
    }
    assert!(
        total.iter().all(|&k| k > 0),
        "the seeded schedule must exercise every kill reason, got {total:?}"
    );

    // Zero leaks: no emulation temps on the target, no in-flight entries,
    // a fully drained memory pool.
    assert_eq!(db.table_names(), tables_before, "cancel soak leaked target-side tables");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while handle.governor().inflight() != 0 || handle.governor().pool().used() != 0 {
        assert!(std::time::Instant::now() < deadline, "governor books did not drain");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Kills are the callers' doing, not the target's: the breaker never
    // moved and nobody was refused.
    let m = &ObsContext::global().metrics;
    let backend = ("backend", "marker-slow-simwh");
    assert_eq!(m.counter_value("hyperq_backend_breaker_fastfail_total", &[backend]), 0);
    assert_eq!(
        m.counter_value("hyperq_backend_breaker_transitions_total", &[backend, ("to", "open")]),
        0
    );
    handle.shutdown();
}
