//! Cross-target differential suite: the same application corpus, run
//! against every **executable** target profile, must produce
//! byte-identical client-visible transcripts — result schema, rows and
//! row counts — even though the SQL sent to each target differs by
//! design (that is the whole point of a target profile).
//!
//! The suite also pins the acceptance criterion for the reduced profile:
//! at least one emulation kind (`limit_fetch`) fires on `simwh-reduced`
//! on live corpus traffic and never fires on `simwh`.

use std::collections::BTreeSet;
use std::sync::Arc;

use hyperq::core::targets::{self, TargetProfile};
use hyperq::core::{Backend, EmulationKind, HyperQBuilder, ObsContext};
use hyperq::engine::EngineDb;
use hyperq::workload::customer::{health, telco};
use hyperq::workload::tpch;
use hyperq::xtra::Datum;

/// Session-scoped generated names embed the session id (`GTT_X_S7`,
/// `WT_S7_1`); each target runs in its own session, so normalize the id
/// before comparing transcripts.
fn scrub(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'_'
            && i + 1 < bytes.len()
            && bytes[i + 1] == b'S'
            && bytes.get(i + 2).is_some_and(u8::is_ascii_digit)
        {
            out.push_str("_S#");
            i += 2;
            while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                i += 1;
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

/// Render everything the client would see from one statement — schema,
/// row count and every row — as comparable text. SQL-B is deliberately
/// excluded: it differs across targets.
fn client_view(r: &hyperq::core::StatementResult) -> String {
    let mut out = String::new();
    let fields: Vec<String> = r
        .result
        .schema
        .fields
        .iter()
        .map(|f| format!("{}:{:?}", f.name, f.ty))
        .collect();
    out.push_str(&format!("schema [{}]\n", fields.join(", ")));
    out.push_str(&format!("row_count {}\n", r.result.row_count));
    for row in &r.result.rows {
        let vals: Vec<String> =
            row.iter().map(hyperq::xtra::datum::Datum::to_sql_string).collect();
        out.push_str(&format!("  {}\n", vals.join(" | ")));
    }
    scrub(&out)
}

/// Run `setup` + `corpus` through a fresh pipeline per target and return
/// (per-statement client transcripts, emulation kinds that fired).
fn run_target(
    profile: TargetProfile,
    make_db: &dyn Fn() -> Arc<EngineDb>,
    setup: &[String],
    corpus: &[(String, String)],
) -> (Vec<(String, String)>, BTreeSet<EmulationKind>) {
    let db = make_db();
    let obs = ObsContext::new();
    let target = profile.name.clone();
    let mut hq = HyperQBuilder::for_target(db as Arc<dyn Backend>, profile)
        .obs(Arc::clone(&obs))
        .build();
    for s in setup {
        hq.run_script(s).unwrap_or_else(|e| panic!("[{target}] setup {s}: {e}"));
    }
    let mut transcript = Vec::new();
    for (name, sql) in corpus {
        let stmts = hq
            .run_script(sql)
            .unwrap_or_else(|e| panic!("[{target}] {name} failed: {e}"));
        let views: Vec<String> = stmts.iter().map(client_view).collect();
        transcript.push((name.clone(), views.join("---\n")));
    }
    let fired = EmulationKind::ALL
        .iter()
        .filter(|kind| {
            obs.metrics
                .counter_value("hyperq_emulation_requests_total", &[("kind", kind.as_str())])
                > 0
        })
        .copied()
        .collect();
    (transcript, fired)
}

/// Differential driver: baseline is the first executable profile
/// (`simwh`); every other executable profile must match it statement by
/// statement. Returns the per-target fired-emulation sets keyed by name.
fn assert_differential(
    make_db: &dyn Fn() -> Arc<EngineDb>,
    setup: &[String],
    corpus: &[(String, String)],
) -> Vec<(String, BTreeSet<EmulationKind>)> {
    let profiles = targets::executable();
    assert!(profiles.len() >= 2, "need at least two executable profiles");
    let mut fired_by_target = Vec::new();
    let mut baseline: Option<(String, Vec<(String, String)>)> = None;
    for profile in profiles {
        let name = profile.name.clone();
        let (transcript, fired) = run_target(profile, make_db, setup, corpus);
        match &baseline {
            None => baseline = Some((name.clone(), transcript)),
            Some((base_name, base)) => {
                for ((stmt, a), (_, b)) in base.iter().zip(transcript.iter()) {
                    assert_eq!(
                        a, b,
                        "{stmt}: client-visible transcript diverged between \
                         {base_name} and {name}"
                    );
                }
            }
        }
        fired_by_target.push((name, fired));
    }
    fired_by_target
}

#[test]
fn tpch_corpus_is_client_identical_across_executable_targets() {
    let make_db = || {
        let db = Arc::new(EngineDb::new());
        for ddl in tpch::ddl() {
            db.execute_sql(&ddl).unwrap();
        }
        for (table, rows) in tpch::generate(0.001, 42).tables() {
            db.load_rows(table, rows).unwrap();
        }
        db
    };
    let corpus: Vec<(String, String)> = tpch::queries()
        .into_iter()
        .map(|(n, sql)| (format!("Q{n}"), sql.to_string()))
        .collect();
    let fired = assert_differential(&make_db, &[], &corpus);

    // The acceptance criterion: the reduced profile exercises an
    // emulation path the default target never touches. TPC-H's top-level
    // `SEL TOP n` queries peel into LimitFetch on simwh-reduced, while
    // simwh spells them as LIMIT and never emulates.
    let kinds_of = |target: &str| -> &BTreeSet<EmulationKind> {
        &fired.iter().find(|(n, _)| n == target).unwrap().1
    };
    assert!(
        kinds_of("simwh-reduced").contains(&EmulationKind::LimitFetch),
        "simwh-reduced never fired limit_fetch on TPC-H: {:?}",
        kinds_of("simwh-reduced")
    );
    assert!(
        !kinds_of("simwh").contains(&EmulationKind::LimitFetch),
        "limit_fetch fired on the default target: {:?}",
        kinds_of("simwh")
    );
}

/// The request-level override: one session, built for `simwh`, serves a
/// single request for `simwh-reduced` — the reduced spellings apply to
/// that request only, an unknown name is a clean error, and the
/// session's own profile is untouched afterwards.
#[test]
fn request_level_target_override_is_scoped_to_the_request() {
    use hyperq::core::Request;
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    let mut hq =
        HyperQBuilder::for_target(Arc::clone(&db) as Arc<dyn Backend>, targets::simwh()).build();

    let sql = "SEL STORE FROM SALES WHERE STORE MOD 3 = 1";
    let native = hq.run_one(sql).unwrap().sql_sent;
    assert!(native[0].contains('%'), "{native:?}");

    let overridden = hq.run(Request::script(sql).target("simwh-reduced")).unwrap();
    let sent = &overridden.statements[0].sql_sent;
    assert!(sent[0].contains("MOD("), "override must serialize reduced-flavor SQL: {sent:?}");
    assert_eq!(hq.target(), "simwh", "override must not stick to the session");
    assert_eq!(hq.run_one(sql).unwrap().sql_sent, native);

    let err = hq.run(Request::script(sql).target("no-such-target")).unwrap_err();
    assert!(err.to_string().contains("unknown target profile"), "{err}");
}

/// The gateway resolves its dialect from `GatewayConfig::target`: a
/// wire client against a `simwh-reduced` gateway gets the same answers,
/// served through the reduced dialect; an unregistered name falls back
/// to `simwh` and bumps the fallback counter instead of failing boot.
#[test]
fn gateway_config_selects_the_target_profile() {
    use hyperq::wire::{Client, Gateway, GatewayConfig};
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER)").unwrap();
    db.execute_sql("INSERT INTO SALES VALUES (1, 10), (2, 25), (3, 31)").unwrap();

    let config = GatewayConfig { target: "simwh-reduced".to_string(), ..Default::default() };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let rows = client.run("SEL TOP 2 STORE FROM SALES ORDER BY AMOUNT DESC").unwrap();
    assert_eq!(rows[0].rows.len(), 2, "LimitFetch emulation must bound the result");
    // Over a whole-table read the truncation keeps the first two rows and
    // leaves the table whole.
    let rows = client.run("SEL TOP 2 * FROM SALES").unwrap();
    assert_eq!(rows[0].rows, [[Datum::Int(1), Datum::Int(10)], [Datum::Int(2), Datum::Int(25)]]);
    assert_eq!(db.scan("SALES").unwrap().len(), 3);
    client.logoff().unwrap();
    handle.shutdown();

    // An unregistered name: boot succeeds on the simwh fallback, and the
    // fallback counter (on the gateway's global context) records it.
    let global = ObsContext::global();
    let before = global.metrics.counter_value("hyperq_wire_unknown_target_total", &[]);
    let bad = GatewayConfig { target: "not-a-target".to_string(), ..Default::default() };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, bad).unwrap();
    assert_eq!(
        global.metrics.counter_value("hyperq_wire_unknown_target_total", &[]),
        before + 1
    );
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let rows = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(rows[0].rows.len(), 1);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn customer_corpora_are_client_identical_across_executable_targets() {
    for w in [health(0.05), telco(0.02)] {
        let ddl = w.target_ddl.clone();
        let make_db = move || {
            let db = Arc::new(EngineDb::new());
            for stmt in &ddl {
                db.execute_sql(stmt).unwrap();
            }
            db
        };
        let corpus: Vec<(String, String)> = w
            .distinct
            .iter()
            .enumerate()
            .map(|(i, sql)| (format!("{}#{i}", w.profile.name), sql.clone()))
            .collect();
        assert_differential(&make_db, &w.hyperq_setup, &corpus);
    }
}
