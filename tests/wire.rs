//! Full-stack wire tests: bteq-style client → TCP gateway → Hyper-Q →
//! SimWH, over the simulated Teradata wire protocol.

use std::io::Read as _;
use std::net::TcpStream;
use std::sync::Arc;

use hyperq::core::Backend;
use hyperq::engine::EngineDb;
use hyperq::wire::auth::digest;
use hyperq::wire::{Client, ConverterConfig, Gateway, GatewayConfig, Message};
use hyperq::xtra::datum::Datum;

fn gateway() -> (hyperq::wire::GatewayHandle, Arc<EngineDb>) {
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE SALES (STORE INTEGER, AMOUNT INTEGER, SALES_DATE DATE)")
        .unwrap();
    db.execute_sql(
        "INSERT INTO SALES VALUES (1, 500, DATE '2014-03-01'), (2, 300, DATE '2014-04-01'), \
         (3, 700, DATE '2015-01-01')",
    )
    .unwrap();
    let handle = Gateway::spawn(
        Arc::clone(&db) as Arc<dyn Backend>,
        GatewayConfig::default(),
    )
    .unwrap();
    (handle, db)
}

#[test]
fn logon_and_query_round_trip() {
    let (handle, _db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let results = client
        .run("SEL STORE, AMOUNT, SALES_DATE FROM SALES WHERE AMOUNT GT 400 ORDER BY AMOUNT")
        .unwrap();
    assert_eq!(results.len(), 1);
    let rs = &results[0];
    assert_eq!(rs.activity_count, 2);
    assert_eq!(rs.rows[0][1], Datum::Int(500));
    assert_eq!(rs.rows[1][1], Datum::Int(700));
    // Dates travel in the Teradata integer encoding and come back as dates.
    assert_eq!(rs.rows[0][2].to_sql_string(), "2014-03-01");
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn wrong_password_rejected() {
    let (handle, _db) = gateway();
    let Err(err) = Client::connect(handle.addr, "APP", "wrong") else {
        panic!("wrong password must be rejected");
    };
    assert!(err.to_string().contains("logon"), "{err}");
    handle.shutdown();
}

#[test]
fn unknown_user_rejected() {
    let (handle, _db) = gateway();
    assert!(Client::connect(handle.addr, "NOBODY", "secret").is_err());
    handle.shutdown();
}

#[test]
fn statement_error_reported_and_session_survives() {
    let (handle, _db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let err = client.run("SEL * FROM NO_SUCH_TABLE").unwrap_err();
    assert!(err.to_string().contains("NO_SUCH_TABLE"), "{err}");
    // The session is still usable after an error.
    let ok = client.run("SEL COUNT(*) FROM SALES").unwrap();
    assert_eq!(ok[0].rows[0][0], Datum::Int(3));
    handle.shutdown();
}

#[test]
fn multi_statement_request() {
    let (handle, db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let results = client
        .run("INSERT INTO SALES VALUES (4, 900, DATE '2016-01-01'); SEL COUNT(*) FROM SALES")
        .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].activity_count, 1);
    assert_eq!(results[1].rows[0][0], Datum::Int(4));
    let _ = db;
    handle.shutdown();
}

#[test]
fn emulated_features_work_over_the_wire() {
    let (handle, _db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    // HELP SESSION answered entirely by the mid tier.
    let help = client.run("HELP SESSION").unwrap();
    assert!(help[0]
        .rows
        .iter()
        .any(|r| r[0] == Datum::str("DATEFORM")));
    // Macro definition + execution across requests in one session.
    client
        .run("CREATE MACRO TOPSALES (N INTEGER) AS (SEL TOP 2 STORE, AMOUNT FROM SALES WHERE AMOUNT >= :N ORDER BY AMOUNT DESC;)")
        .unwrap();
    let r = client.run("EXEC TOPSALES(400)").unwrap();
    assert_eq!(r[0].rows.len(), 2);
    assert_eq!(r[0].rows[0][1], Datum::Int(700));
    handle.shutdown();
}

#[test]
fn concurrent_sessions() {
    let (handle, _db) = gateway();
    let addr = handle.addr;
    let threads: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "APP", "secret").unwrap();
                for _ in 0..10 {
                    let r = c.run("SEL COUNT(*) FROM SALES WHERE AMOUNT > 0").unwrap();
                    assert_eq!(r[0].rows[0][0], Datum::Int(3));
                }
                c.logoff().unwrap();
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert!(handle.connections_served() >= 6);
    let stats = handle.stats();
    assert_eq!(stats.requests, 60);
    assert!(stats.execution > std::time::Duration::ZERO);
    handle.shutdown();
}

#[test]
fn gateway_stats_record_all_three_stages() {
    let (handle, _db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("SEL * FROM SALES").unwrap();
    let stats = handle.stats();
    assert!(stats.translation > std::time::Duration::ZERO);
    assert!(stats.execution > std::time::Duration::ZERO);
    assert!(stats.conversion > std::time::Duration::ZERO);
    assert_eq!(stats.rows_returned, 3);
    let (t, e, c) = stats.shares();
    assert!((t + e + c - 100.0).abs() < 1e-6);
    handle.shutdown();
}

#[test]
fn large_result_streams_intact_and_in_order_under_a_small_budget() {
    // The gateway streams batch by batch and holds one converted batch at
    // a time, so a 64 KiB converter budget neither spills nor limits the
    // result size. Spilling is `convert`'s, for library callers.
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE BIG (K INTEGER, PAD VARCHAR(100))").unwrap();
    let rows: Vec<Vec<Datum>> = (0..20_000)
        .map(|i| vec![Datum::Int(i), Datum::str(format!("padding-{i:0>60}"))])
        .collect();
    db.load_rows("BIG", rows).unwrap();
    let config = GatewayConfig {
        converter: ConverterConfig {
            batch_size: 512,
            memory_budget: 64 * 1024,
            ..Default::default()
        },
        ..Default::default()
    };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let r = client.run("SEL K, PAD FROM BIG ORDER BY K").unwrap();
    assert_eq!(r[0].activity_count, 20_000);
    assert_eq!(r[0].rows.len(), 20_000);
    for (i, row) in r[0].rows.iter().enumerate() {
        assert_eq!(row[0], Datum::Int(i as i64), "row {i} out of order");
        assert_eq!(row[1], Datum::str(format!("padding-{i:0>60}")));
    }
    assert_eq!(handle.stats().rows_returned, 20_000);
    handle.shutdown();
}

#[test]
fn dates_before_1900_reach_the_client() {
    // Their Teradata encoding is negative: -8769 is 1899-12-31.
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE T (K INTEGER, D DATE)").unwrap();
    db.execute_sql("INSERT INTO T VALUES (1, DATE '1899-12-31'), (2, DATE '0001-01-01')")
        .unwrap();
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, GatewayConfig::default())
        .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let r = client.run("SEL K, D FROM T ORDER BY K").unwrap();
    let dates: Vec<String> = r[0].rows.iter().map(|row| row[1].to_sql_string()).collect();
    assert_eq!(dates, ["1899-12-31", "0001-01-01"]);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn repeated_strings_share_one_allocation_per_distinct_value() {
    // Three string columns of 3, 16 and 20,000 distinct values: the
    // client's decoder shares the first two columns' values and gives
    // every value of the third its own allocation.
    let db = Arc::new(EngineDb::new());
    db.execute_sql("CREATE TABLE S (K INTEGER, LOW VARCHAR(8), MID VARCHAR(8), UNIQ VARCHAR(8))")
        .unwrap();
    let expected: Vec<Vec<Datum>> = (0..20_000)
        .map(|i| {
            vec![
                Datum::str(["A", "B", "C"][i % 3]),
                Datum::str(format!("M{}", i % 16)),
                Datum::str(format!("U{i}")),
            ]
        })
        .collect();
    let rows = expected
        .iter()
        .enumerate()
        .map(|(i, row)| [vec![Datum::Int(i as i64)], row.clone()].concat())
        .collect();
    db.load_rows("S", rows).unwrap();
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, GatewayConfig::default())
        .unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    let r = client.run("SEL LOW, MID, UNIQ FROM S ORDER BY K").unwrap();
    assert_eq!(r[0].rows, expected);
    let allocations: Vec<usize> = (0..3)
        .map(|c| {
            let pointers: std::collections::HashSet<*const u8> = r[0]
                .rows
                .iter()
                .map(|row| match &row[c] {
                    Datum::Str(s) => Arc::as_ptr(s).cast::<u8>(),
                    other => panic!("column {c} holds {other:?}"),
                })
                .collect();
            pointers.len()
        })
        .collect();
    assert_eq!(allocations, [3, 16, 20_000]);
    client.logoff().unwrap();
    handle.shutdown();
}

#[test]
fn a_row_that_fails_to_decode_leaves_the_session_in_step() {
    // A peer answers the first request with a row whose string is not
    // UTF-8, then the second with a valid row. The client must read the
    // whole first response before it reports the error, or the second
    // request reads the first one's tail.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        assert!(matches!(Message::read_from(&mut s).unwrap(), Message::LogonRequest { .. }));
        Message::AuthChallenge { salt: 7 }.write_to(&mut s).unwrap();
        assert!(matches!(Message::read_from(&mut s).unwrap(), Message::LogonDigest { .. }));
        Message::LogonOk { session_id: 1 }.write_to(&mut s).unwrap();
        let string_row = |bytes: &[u8]| {
            let mut row = vec![1, 0, 0];
            row.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            row.extend_from_slice(bytes);
            row
        };
        for value in [&[0xFF, 0xFE][..], b"second"] {
            assert!(matches!(Message::read_from(&mut s).unwrap(), Message::SqlRequest { .. }));
            for m in [
                Message::RecordSetHeader { columns: vec![("S".into(), 7)] },
                Message::Record { row_bytes: string_row(value) },
                Message::StatementOk { activity_count: 1 },
                Message::EndRequest,
            ] {
                m.write_to(&mut s).unwrap();
            }
        }
        assert_eq!(Message::read_from(&mut s).unwrap(), Message::Logoff);
    });
    let mut client = Client::connect(addr, "APP", "secret").unwrap();
    let err = client.run("SEL S FROM FIRST").unwrap_err();
    assert!(err.to_string().contains("not UTF-8"), "{err}");
    let r = client.run("SEL S FROM SECOND").unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].rows, vec![vec![Datum::str("second")]]);
    client.logoff().unwrap();
    peer.join().unwrap();
}

/// A logged-on TDWP session on a plain socket, so a test sees the raw
/// response bytes.
fn raw_session(addr: std::net::SocketAddr) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    Message::LogonRequest { user: "APP".into() }.write_to(&mut s).unwrap();
    let Message::AuthChallenge { salt } = Message::read_from(&mut s).unwrap() else {
        panic!("expected AuthChallenge");
    };
    Message::LogonDigest { digest: digest("secret", salt) }.write_to(&mut s).unwrap();
    assert!(matches!(Message::read_from(&mut s).unwrap(), Message::LogonOk { .. }));
    s
}

/// The raw bytes of one response, every frame through its `EndRequest`.
fn raw_response(s: &mut TcpStream) -> Vec<u8> {
    let mut transcript = Vec::new();
    loop {
        let mut head = [0u8; 5];
        s.read_exact(&mut head).unwrap();
        let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
        let mut payload = vec![0u8; len];
        s.read_exact(&mut payload).unwrap();
        transcript.extend_from_slice(&head);
        transcript.extend_from_slice(&payload);
        if head[0] == 0x87 {
            return transcript;
        }
    }
}

#[test]
fn three_batch_response_matches_golden_transcript() {
    // Ten rows at four rows a batch: three TDF batches, with NULLs in every
    // column, Teradata-encoded dates, decimals, doubles and strings.
    let db = Arc::new(EngineDb::new());
    db.execute_sql(
        "CREATE TABLE G (K INTEGER, AMT DECIMAL(10,2), D DATE, NAME VARCHAR(20), R FLOAT)",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO G VALUES \
         (1, 12.50, DATE '2014-03-01', 'alpha', 0.5), \
         (2, NULL, DATE '1999-12-31', 'beta', NULL), \
         (3, -7.25, NULL, 'naïve', 2.25), \
         (4, 0.01, DATE '2000-02-29', NULL, -1.0), \
         (5, 1000000.00, DATE '1900-01-01', '', 3.0), \
         (NULL, 3.30, DATE '2024-06-15', 'zeta', 1e10), \
         (7, NULL, NULL, NULL, NULL), \
         (8, 99.99, DATE '2038-01-19', 'eight', 0.125), \
         (9, -0.10, DATE '1970-01-01', 'nine', -2.5), \
         (10, 5.00, DATE '2015-01-01', 'ten', 100.0)",
    )
    .unwrap();
    let config = GatewayConfig {
        converter: ConverterConfig { batch_size: 4, ..Default::default() },
        ..Default::default()
    };
    let handle = Gateway::spawn(Arc::clone(&db) as Arc<dyn Backend>, config).unwrap();
    let mut s = raw_session(handle.addr);
    Message::SqlRequest { sql: "SEL K, AMT, D, NAME, R FROM G ORDER BY 1".into() }
        .write_to(&mut s)
        .unwrap();
    let hex: String = raw_response(&mut s).iter().map(|b| format!("{b:02x}")).collect();
    let golden: String = include_str!("snapshots/wire_three_batches.hex")
        .split_whitespace()
        .collect();
    assert_eq!(hex, golden, "the response bytes drifted from the golden transcript");
    Message::Logoff.write_to(&mut s).unwrap();
    handle.shutdown();
}

/// `shutdown()` wakes the gateway's blocking acceptor instead of waiting
/// for it to poll, whether no client ever connected or a session is still
/// open with no drain budget; the open session keeps being served.
#[test]
fn shutdown_returns_promptly_with_no_client_or_an_open_session() {
    let prompt = std::time::Duration::from_secs(2);
    let (handle, _db) = gateway();
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(t0.elapsed() < prompt, "idle shutdown took {:?}", t0.elapsed());

    let (handle, _db) = gateway();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    assert_eq!(client.run("SEL COUNT(*) FROM SALES").unwrap()[0].activity_count, 1);
    assert_eq!(handle.active_sessions(), 1);
    let t0 = std::time::Instant::now();
    handle.shutdown();
    assert!(t0.elapsed() < prompt, "shutdown with an open session took {:?}", t0.elapsed());
    assert_eq!(client.run("SEL COUNT(*) FROM SALES").unwrap()[0].activity_count, 1);
    client.logoff().unwrap();
}

/// A draining `shutdown()` returns when the last session ends, not at the
/// end of its budget.
#[test]
fn a_drain_ends_with_the_last_session() {
    let db = Arc::new(EngineDb::new());
    let config =
        GatewayConfig { drain_timeout: std::time::Duration::from_secs(30), ..Default::default() };
    let handle = Gateway::spawn(db as Arc<dyn Backend>, config).unwrap();
    let mut client = Client::connect(handle.addr, "APP", "secret").unwrap();
    client.run("SEL 1").unwrap();
    let logoff = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        client.logoff().unwrap();
    });
    let t0 = std::time::Instant::now();
    handle.shutdown();
    let took = t0.elapsed();
    logoff.join().unwrap();
    assert!(took < std::time::Duration::from_secs(10), "drain took {took:?}");
}
