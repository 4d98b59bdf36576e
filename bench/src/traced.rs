//! The traced run: the same statements three ways, so that what the client
//! observes can be split by layer.
//!
//! 1. Over the wire with the frame-level client: once with the recorder off
//!    (pass A, the reference for the tracing tax) and once with it on (pass
//!    B), `TimedBackend` recording each call as a span under the request.
//! 2. In process: `HyperQ::run_script` on a twin of the warehouse, no wire
//!    (pass C, run twice so that the measured one is as warm as pass B).
//! 3. Isolated calls into each layer's public functions ([`crate::layers`]).
//!
//! Per request of pass B:
//!
//! ```text
//! client = backend + middleware + stream + decode + unattributed
//! ```
//!
//! `client` runs from the request being written to its last row decoded,
//! the interval the timed run clocks around `Client::run`; `backend` is the
//! sum of pass B's `engine.execute` spans; `middleware` is what pass C spent
//! on the same statement outside the backend; `stream` runs from the first
//! response frame to the last; `decode` is the client's row decoding. The
//! identity holds by construction — `unattributed` is whatever is left —
//! so what is checked is that spans nest, that the remainder is not
//! negative beyond clock noise, and that it is printed, never folded away.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_core::{
    targets, AnalyzeMode, Backend, ConformanceMode, ExecResult, HyperQBuilder, ObsContext,
};
use hyperq_engine::EngineDb;

use crate::backend::TimedBackend;
use crate::env::{gateway_config, prepare, verify, Env, PASSWORD, USER};
use crate::frame_client::{Exchange, FrameClient};
use crate::json::Value;
use crate::layers;
use crate::report::Report;
use crate::stats::{median, ms, percentile, us};
use crate::timed::Options;
use crate::trace::{self, Recorder};
use crate::workload::{Class, Stmt, Workload};
use crate::RESULTS_DIR;

pub fn run(workload: &mut dyn Workload, opts: &Options) -> Report {
    let mut report = Report::new(workload.name(), opts, true);
    if let Err(e) = measure(workload, opts, &mut report) {
        report.failures.push(e);
    }
    report
}

/// One request of pass B, reduced to the terms of the identity.
struct WireStmt {
    client: Duration,
    wait: Duration,
    backend: Duration,
    backend_calls: u64,
    stream: Duration,
    decode: Duration,
    bytes_in: u64,
    rows: u64,
}

/// The same request in pass C.
struct InprocStmt {
    wall: Duration,
    backend: Duration,
    translation: Duration,
    execution: Duration,
    sql_out: usize,
    sql_out_bytes: usize,
    results: Vec<ExecResult>,
}

fn cache_counters() -> [u64; 4] {
    let m = &ObsContext::global().metrics;
    [
        m.counter_value("hyperq_cache_hits_total", &[]),
        m.counter_value("hyperq_cache_misses_total", &[]),
        m.counter_value("hyperq_cache_bypass_total", &[]),
        m.counter_value("hyperq_cache_evictions_total", &[]),
    ]
}

/// Send one pass through the frame-level client, checking every result.
/// With the recorder on, each request becomes a span tree.
fn wire_pass(
    client: &mut FrameClient,
    env: &Env,
    recorder: &Recorder,
    workload: &dyn Workload,
    stmts: &[Stmt],
    report: &mut Report,
) -> Result<Vec<Option<WireStmt>>, String> {
    let mut out = Vec::with_capacity(stmts.len());
    for (i, stmt) in stmts.iter().enumerate() {
        report.attempted += 1;
        let stmt_id = i as u64 + 1;
        let (request_id, wait_id) = (recorder.fresh_id(), recorder.fresh_id());
        recorder.begin_request(stmt_id, wait_id);
        let before = env.backend.totals();
        let exchange: Exchange = client
            .request(&stmt.sql)
            .map_err(|e| format!("connection lost: {e}: {}", stmt.sql))?;
        let backend = env.backend.totals().since(&before);
        let x = &exchange;
        // The wait starts before the request is written, not after the
        // flush returns: on two cores the gateway may have run the whole
        // statement before this thread reads the clock again.
        recorder.record(request_id, 0, stmt_id, "client.request", x.start, x.decoded);
        recorder.record(
            wait_id,
            request_id,
            stmt_id,
            "client.wait_first_frame",
            x.start,
            x.first_frame,
        );
        let id = recorder.fresh_id();
        recorder.record(id, wait_id, stmt_id, "client.send", x.start, x.flushed);
        let id = recorder.fresh_id();
        recorder.record(
            id,
            request_id,
            stmt_id,
            "client.stream",
            x.first_frame,
            x.last_frame,
        );
        let id = recorder.fresh_id();
        recorder.record(
            id,
            request_id,
            stmt_id,
            "client.decode",
            x.last_frame,
            x.decoded,
        );

        let checked = match &exchange.error {
            Some(e) => Err(format!("{e}: {}", stmt.sql)),
            None => verify(workload, stmt, &exchange.sets),
        };
        match checked {
            Ok(()) => out.push(Some(WireStmt {
                client: x.decoded - x.start,
                wait: x.first_frame - x.start,
                backend: backend.busy,
                backend_calls: backend.calls,
                stream: x.last_frame - x.first_frame,
                decode: x.decoded - x.last_frame,
                bytes_in: x.bytes_in,
                rows: x.sets.iter().map(|(rows, _)| rows.len() as u64).sum(),
            })),
            Err(e) => {
                report.failures.push(e);
                out.push(None);
            }
        }
    }
    report.failures.extend(workload.check_state(&env.db).err());
    Ok(out)
}

fn measure(workload: &mut dyn Workload, opts: &Options, report: &mut Report) -> Result<(), String> {
    let recorder = Arc::new(Recorder::new());
    let env = Env::start(workload, Some(Arc::clone(&recorder)))?;
    layers::logon(env.gateway.addr, report);
    let mut client = FrameClient::connect(env.gateway.addr, USER, PASSWORD)
        .map_err(|e| format!("logon: {e}"))?;
    let (_, failures) = prepare(&mut client, workload, opts.seed)?;
    report
        .failures
        .extend(failures.into_iter().map(|f| format!("warm-up: {f}")));

    // --- pass A (recorder off) and pass B (recorder on), over the wire -----------
    let stmts_a = workload.pass(opts.seed, 1);
    let stmts_b = workload.pass(opts.seed, 2);
    let untraced = wire_pass(&mut client, &env, &recorder, workload, &stmts_a, report)?;
    let (stats_before, cache_before) = (env.gateway.stats(), cache_counters());
    recorder.set_enabled(true);
    let traced = wire_pass(&mut client, &env, &recorder, workload, &stmts_b, report)?;
    recorder.set_enabled(false);
    let (stats, cache) = (env.gateway.stats(), cache_counters());
    let spans = recorder.take();
    let _ = client.logoff();
    env.stop();

    // --- pass C: in process, on a twin of the warehouse ---------------------------
    let db = Arc::new(EngineDb::new());
    workload.load(&db);
    let backend = TimedBackend::new(Arc::clone(&db), None);
    let mut hq =
        HyperQBuilder::for_target(Arc::clone(&backend) as Arc<dyn Backend>, targets::simwh())
            .obs(ObsContext::new())
            .analyze(AnalyzeMode::LogOnly)
            .conformance(ConformanceMode::LogOnly)
            .build();
    let session_setup = workload.session_setup();
    for sql in &session_setup {
        hq.run_script(sql)
            .map_err(|e| format!("in-process set-up: {sql}: {e}"))?;
    }
    let warmup = workload.warmup(opts.seed);
    for stmt in warmup.iter().chain(&stmts_a) {
        hq.run_script(&stmt.sql)
            .map_err(|e| format!("in-process warm-up: {}: {e}", stmt.sql))?;
    }
    let mut inproc: Vec<Option<InprocStmt>> = Vec::with_capacity(stmts_b.len());
    for stmt in &stmts_b {
        report.attempted += 1;
        let before = backend.totals();
        let t = Instant::now();
        let outcome = hq.run_script(&stmt.sql);
        let wall = t.elapsed();
        let busy = backend.totals().since(&before).busy;
        match outcome {
            Ok(results) => inproc.push(Some(InprocStmt {
                wall,
                backend: busy,
                translation: results.iter().map(|r| r.timings.translation).sum(),
                execution: results.iter().map(|r| r.timings.execution).sum(),
                sql_out: results.iter().map(|r| r.sql_sent.len()).sum(),
                sql_out_bytes: results
                    .iter()
                    .flat_map(|r| &r.sql_sent)
                    .map(String::len)
                    .sum(),
                results: results.into_iter().map(|r| r.result).collect(),
            })),
            Err(e) => {
                report
                    .failures
                    .push(format!("in process: {e}: {}", stmt.sql));
                inproc.push(None);
            }
        }
    }
    report.failures.extend(workload.check_state(&db).err());

    // --- the ledger -----------------------------------------------------------
    if let Err(e) = trace::check_nesting(&spans) {
        report.failures.push(format!("span nesting: {e}"));
    }
    let rows: Vec<(&Stmt, &WireStmt, &InprocStmt)> = stmts_b
        .iter()
        .zip(&traced)
        .zip(&inproc)
        .filter_map(|((s, w), c)| Some((s, w.as_ref()?, c.as_ref()?)))
        .collect();
    if rows.is_empty() {
        return Err("no statement completed both over the wire and in process".into());
    }
    for (s, w, c) in &rows {
        let wire_rows = w.rows;
        let inproc_rows: u64 = c.results.iter().map(|r| r.rows.len() as u64).sum();
        if wire_rows != inproc_rows {
            report.failures.push(format!(
                "wire returned {wire_rows} rows, in-process {inproc_rows}: {}",
                s.sql
            ));
        }
    }
    let n = rows.len() as u64;
    let nf = n as f64;
    let mean_us = |f: &dyn Fn(&(&Stmt, &WireStmt, &InprocStmt)) -> Duration| -> f64 {
        rows.iter().map(|r| us(f(r))).sum::<f64>() / nf
    };
    let middleware = |c: &InprocStmt| c.wall.saturating_sub(c.backend);
    // Signed, in µs: the remainder may come out slightly negative.
    let unattributed_us = |(_, w, c): &(&Stmt, &WireStmt, &InprocStmt)| -> f64 {
        us(w.client) - us(w.backend) - us(middleware(c)) - us(w.stream) - us(w.decode)
    };
    let unattributed: Vec<f64> = rows.iter().map(unattributed_us).collect();
    let client_total: f64 = rows.iter().map(|(_, w, _)| us(w.client)).sum();
    let unattributed_total: f64 = unattributed.iter().sum();
    // Clock noise: the middleware term comes from another pass, so allow
    // 2% of the client time plus 100 µs per statement before calling the
    // ledger broken.
    if unattributed_total < -(0.02 * client_total + 100.0 * nf) {
        report.failures.push(format!(
            "ledger: the layers sum to more than the client observed \
             (unattributed {:.3} ms over {n} statements)",
            unattributed_total / 1e3
        ));
    }

    // wire
    let d = |a: Duration, b: Duration| a.saturating_sub(b);
    let server = |now: Duration, before: Duration| us(d(now, before)) / traced.len().max(1) as f64;
    report.metric(
        "wire.first_frame_ms",
        "ms",
        mean_us(&|(_, w, _)| w.wait) / 1e3,
        n,
    );
    report.metric(
        "wire.stream_ms",
        "ms",
        mean_us(&|(_, w, _)| w.stream) / 1e3,
        n,
    );
    report.metric(
        "wire.client_decode_us",
        "us",
        mean_us(&|(_, w, _)| w.decode),
        n,
    );
    let bytes_in: u64 = rows.iter().map(|(_, w, _)| w.bytes_in).sum();
    report.metric("wire.bytes_out_per_stmt", "bytes", bytes_in as f64 / nf, n);
    report.metric(
        "wire.server_translate_us",
        "us",
        server(stats.translation, stats_before.translation),
        n,
    );
    report.metric(
        "wire.server_execute_us",
        "us",
        server(stats.execution, stats_before.execution),
        n,
    );
    report.metric(
        "wire.server_convert_us",
        "us",
        server(stats.conversion, stats_before.conversion),
        n,
    );
    report.metric(
        "wire.unattributed_ms",
        "ms",
        unattributed_total / nf / 1e3,
        n,
    );

    // core
    let [hits, misses, bypass, evictions] =
        [0, 1, 2, 3].map(|i| cache[i].saturating_sub(cache_before[i]) as f64);
    let lookups = hits + misses;
    report.metric(
        "core.cache_hit_ratio",
        "ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        lookups as u64,
    );
    report.metric(
        "core.cache_bypass_ratio",
        "ratio",
        bypass / traced.len().max(1) as f64,
        traced.len() as u64,
    );
    report.metric(
        "core.cache_evictions",
        "count",
        evictions,
        traced.len() as u64,
    );
    report.metric(
        "core.translate_warm_us",
        "us",
        mean_us(&|(_, _, c)| c.translation),
        n,
    );
    report.metric("core.run_inproc_us", "us", mean_us(&|(_, _, c)| c.wall), n);
    report.metric(
        "core.backend_stack_us",
        "us",
        mean_us(&|(_, _, c)| c.execution.saturating_sub(c.backend)),
        n,
    );
    let calls: u64 = rows.iter().map(|(_, w, _)| w.backend_calls).sum();
    report.metric("core.backend_calls_per_stmt", "count", calls as f64 / nf, n);
    let emulated = rows.iter().filter(|(_, _, c)| c.sql_out != 1).count();
    report.metric("core.emulated_share", "ratio", emulated as f64 / nf, n);
    let sql_out: usize = rows.iter().map(|(_, _, c)| c.sql_out_bytes).sum();
    report.metric(
        "core.sql_out_bytes_per_stmt",
        "bytes",
        sql_out as f64 / nf,
        n,
    );

    // engine
    report.metric(
        "engine.execute_us",
        "us",
        mean_us(&|(_, w, _)| w.backend),
        n,
    );
    report.metric("engine.calls", "count", calls as f64, n);
    let engine_rows: u64 = rows
        .iter()
        .flat_map(|(_, _, c)| &c.results)
        .map(|r| r.rows.len() as u64)
        .sum();
    report.metric(
        "engine.rows_out_per_stmt",
        "rows",
        engine_rows as f64 / nf,
        n,
    );
    let mut by_template = vec![0.0; workload.templates().len()];
    for (s, w, _) in &rows {
        by_template[s.template] += us(w.backend);
    }
    by_template.sort_by(|a, b| b.total_cmp(a));
    let engine_total: f64 = by_template.iter().sum();
    let top3: f64 = by_template.iter().take(3).sum();
    report.metric(
        "engine.top3_share",
        "ratio",
        if engine_total > 0.0 {
            top3 / engine_total
        } else {
            0.0
        },
        n,
    );

    // obs: what the benchmark's own spans cost the median statement.
    let p50 = |pass: &[Option<WireStmt>]| {
        let v: Vec<f64> = pass.iter().flatten().map(|w| ms(w.client)).collect();
        (!v.is_empty()).then(|| percentile(&v, 0.5))
    };
    if let (Some(off), Some(on)) = (p50(&untraced), p50(&traced)) {
        report.metric("obs.tracing_tax_pct", "pct", 100.0 * (on - off) / off, n);
        report.info(
            "stmt_p50_ms.untraced",
            "ms",
            off,
            untraced.iter().flatten().count() as u64,
        );
        report.info("stmt_p50_ms.traced", "ms", on, n);
    }

    // parser, core stages, wire encoders, fixed costs
    let mut texts: Vec<&str> = stmts_b.iter().map(|s| s.sql.as_str()).collect();
    texts.sort_unstable();
    texts.dedup();
    layers::measure(
        &layers::Input {
            texts,
            responses: rows.iter().map(|(_, _, c)| c.results.as_slice()).collect(),
            backend: Arc::clone(&backend) as Arc<dyn Backend>,
            session: &hq.session,
            session_setup,
            converter: gateway_config().converter,
        },
        report,
    );

    // --- informational: the identity's terms, the shares, the classes -------------
    let share = |part_us: f64| 100.0 * part_us * nf / client_total;
    report.info("client_ms", "ms", client_total / nf / 1e3, n);
    report.info(
        "identity.backend_ms",
        "ms",
        mean_us(&|(_, w, _)| w.backend) / 1e3,
        n,
    );
    report.info(
        "identity.middleware_ms",
        "ms",
        mean_us(&|(_, _, c)| middleware(c)) / 1e3,
        n,
    );
    report.info(
        "identity.stream_ms",
        "ms",
        mean_us(&|(_, w, _)| w.stream) / 1e3,
        n,
    );
    report.info(
        "identity.decode_ms",
        "ms",
        mean_us(&|(_, w, _)| w.decode) / 1e3,
        n,
    );
    report.info(
        "identity.unattributed_ms",
        "ms",
        unattributed_total / nf / 1e3,
        n,
    );
    report.info(
        "identity.unattributed_p50_ms",
        "ms",
        median(&unattributed) / 1e3,
        n,
    );
    let negative = unattributed.iter().filter(|u| **u < 0.0).count();
    report.info("identity.negative_remainders", "count", negative as f64, n);
    report.info(
        "share.engine_pct",
        "pct",
        share(mean_us(&|(_, w, _)| w.backend)),
        n,
    );
    report.info(
        "share.wire_results_pct",
        "pct",
        share(mean_us(&|(_, w, _)| w.stream + w.decode))
            + 100.0 * us(d(stats.conversion, stats_before.conversion)) / client_total,
        n,
    );
    let mut classes: Vec<Class> = rows.iter().map(|(s, _, _)| s.class).collect();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let of: Vec<_> = rows.iter().filter(|(s, _, _)| s.class == class).collect();
        let k = of.len() as u64;
        let mean = |f: &dyn Fn(&(&Stmt, &WireStmt, &InprocStmt)) -> f64| {
            of.iter().map(|r| f(r)).sum::<f64>() / k as f64 / 1e3
        };
        let c = class.as_str();
        report.info(
            &format!("class[{c}].client_ms"),
            "ms",
            mean(&|(_, w, _)| us(w.client)),
            k,
        );
        report.info(
            &format!("class[{c}].backend_ms"),
            "ms",
            mean(&|(_, w, _)| us(w.backend)),
            k,
        );
        report.info(
            &format!("class[{c}].middleware_ms"),
            "ms",
            mean(&|(_, _, c)| us(middleware(c))),
            k,
        );
        report.info(
            &format!("class[{c}].unattributed_ms"),
            "ms",
            mean(&unattributed_us),
            k,
        );
        let calls = of.iter().map(|(_, w, _)| w.backend_calls).sum::<u64>() as f64 / k as f64;
        report.info(&format!("class[{c}].backend_calls"), "count", calls, k);
    }

    // --- the trace file -----------------------------------------------------------
    let statements: Vec<Value> = stmts_b
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::obj()
                .with("stmt", i as u64 + 1)
                .with("template", workload.templates()[s.template].as_str())
                .with("class", s.class.as_str())
                .with("sql", s.sql.as_str())
        })
        .collect();
    let file = Value::obj()
        .with("workload", workload.name())
        .with("seed", opts.seed)
        .with(
            "clock",
            "nanoseconds since the recorder was made; one monotonic clock for both threads",
        )
        .with("statements", statements)
        .with("spans", trace::to_json(&spans));
    let path = format!("{RESULTS_DIR}/trace-{}.json", workload.name());
    std::fs::create_dir_all(RESULTS_DIR)
        .and_then(|()| std::fs::write(&path, file.to_pretty()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    report.info("trace.spans", "count", spans.len() as f64, n);
    Ok(())
}
