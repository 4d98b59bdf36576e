//! Pass 3 of the traced run: timed calls into each layer's public functions
//! in isolation, on the SQL the traced pass sent and on the result sets the
//! in-process pass got back. Nothing here goes over the wire except the
//! logon loop.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperq_core::binder::Binder;
use hyperq_core::serialize::Serializer;
use hyperq_core::session::{SessionState, ShadowCatalog};
use hyperq_core::transform::Transformer;
use hyperq_core::{targets, Backend, ExecResult, HyperQBuilder, ObsContext};
use hyperq_governor::{GovernorConfig, GovernorRegistry};
use hyperq_parser::fingerprint::fingerprint;
use hyperq_parser::{parse_one, Dialect};
use hyperq_wire::message::{header_columns, Message};
use hyperq_wire::{convert, tdf, AdmissionGate, Client, ConverterConfig};
use hyperq_xtra::feature::FeatureSet;

use crate::env::{PASSWORD, USER};
use crate::report::Report;
use crate::stats::{median, us};

/// Median duration of one sweep of `f` over `items`, per item, in µs.
/// Sweeps repeat until 20 ms have been measured (at least three, at most
/// two hundred), so a microsecond-scale call is timed over thousands of
/// calls and a 100 ms one over three.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut sweeps = Vec::new();
    let mut total = Duration::ZERO;
    while sweeps.len() < 3 || (total < Duration::from_millis(20) && sweeps.len() < 200) {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        let d = t.elapsed();
        total += d;
        sweeps.push(us(d));
    }
    median(&sweeps) / items.len() as f64
}

pub struct Input<'a> {
    /// The distinct request texts of the traced pass.
    pub texts: Vec<&'a str>,
    /// What the in-process pass got back, per statement.
    pub responses: Vec<&'a [ExecResult]>,
    /// The target, for catalog lookups during binding.
    pub backend: Arc<dyn Backend>,
    /// The in-process session, which knows the views and macros, and the
    /// statements that taught it.
    pub session: &'a SessionState,
    pub session_setup: Vec<String>,
    pub converter: ConverterConfig,
}

pub fn measure(input: &Input, report: &mut Report) {
    parser_and_core(input, report);
    wire_results(input, report);
    fixed_costs(report);
}

fn parser_and_core(input: &Input, report: &mut Report) {
    let texts = &input.texts;
    let n = texts.len() as u64;
    let bytes: usize = texts.iter().map(|t| t.len()).sum();
    report.metric(
        "parser.sql_bytes_per_stmt",
        "bytes",
        bytes as f64 / n.max(1) as f64,
        n,
    );
    report.metric(
        "parser.fingerprint_us",
        "us",
        per_item_us(texts, |t| {
            let _ = std::hint::black_box(fingerprint(std::hint::black_box(t)));
        }),
        n,
    );

    // Each stage is timed on the statements the stage before it accepted:
    // a multi-statement request does not parse as one statement, and macro
    // calls, DDL and transaction control never reach the binder.
    let parsed: Vec<_> = texts
        .iter()
        .filter_map(|t| parse_one(t, Dialect::Teradata).ok())
        .collect();
    report.metric(
        "parser.parse_us",
        "us",
        per_item_us(&parsed, |p| {
            let _ =
                std::hint::black_box(parse_one(std::hint::black_box(&p.text), Dialect::Teradata));
        }),
        parsed.len() as u64,
    );

    let profile = targets::simwh();
    let bind = |stmt| {
        let catalog = ShadowCatalog::new(&*input.backend, input.session);
        Binder::new(&catalog).bind_statement(stmt)
    };
    let bound: Vec<_> = parsed
        .iter()
        .filter_map(|p| bind(&p.stmt).ok().map(|plan| (p, plan)))
        .collect();
    report.metric(
        "core.bind_us",
        "us",
        per_item_us(&bound, |(p, _)| {
            let _ = std::hint::black_box(bind(&p.stmt));
        }),
        bound.len() as u64,
    );

    let transformer = Transformer::standard();
    let transform = |plan: &hyperq_xtra::Plan| {
        transformer.run_all(plan.clone(), &profile.caps, &mut FeatureSet::new())
    };
    let transformed: Vec<_> = bound
        .iter()
        .filter_map(|(_, plan)| transform(plan).ok().map(|t| (plan, t)))
        .collect();
    report.metric(
        "core.transform_us",
        "us",
        per_item_us(&transformed, |(plan, _)| {
            let _ = std::hint::black_box(transform(plan));
        }),
        transformed.len() as u64,
    );

    let serializer = Serializer::for_profile(&profile);
    let serialized: Vec<_> = transformed
        .iter()
        .filter(|(_, t)| serializer.serialize_plan(t).is_ok())
        .map(|(_, t)| t)
        .collect();
    report.metric(
        "core.serialize_us",
        "us",
        per_item_us(&serialized, |t| {
            let _ = std::hint::black_box(serializer.serialize_plan(t));
        }),
        serialized.len() as u64,
    );

    // The whole cold translation, the way `benches/pipeline_stages.rs`
    // measures it: a session without a cache, `translate`, no execution.
    let mut cold = HyperQBuilder::for_target(Arc::clone(&input.backend), profile.clone())
        .obs(ObsContext::new())
        .no_cache()
        .build();
    for sql in &input.session_setup {
        // Definitions that also create something on the target fail here,
        // where it exists already; the session-side half is what matters.
        let _ = cold.run_one(sql);
    }
    let translatable: Vec<&str> = texts
        .iter()
        .copied()
        .filter(|t| cold.translate(t).is_ok())
        .collect();
    report.metric(
        "core.translate_cold_us",
        "us",
        per_item_us(&translatable, |t| {
            let _ = std::hint::black_box(cold.translate(t));
        }),
        translatable.len() as u64,
    );
}

/// TDF encoding, the Result Converter and TDWP framing, on every result
/// the in-process pass produced.
fn wire_results(input: &Input, report: &mut Report) {
    let statements = input.responses.len() as u64;
    let with_rows: Vec<&ExecResult> = input
        .responses
        .iter()
        .flat_map(|r| r.iter())
        .filter(|r| !r.schema.is_empty())
        .collect();
    let rows: u64 = with_rows.iter().map(|r| r.rows.len() as u64).sum();

    let mut tdf_bytes = 0u64;
    for r in &with_rows {
        tdf_bytes += tdf::encode(&r.schema, &r.rows).map_or(0, |b| b.len() as u64);
    }
    let per_stmt =
        |per_result_us: f64| per_result_us * with_rows.len() as f64 / statements.max(1) as f64;
    let tdf_us = per_item_us(&with_rows, |r| {
        let _ = std::hint::black_box(tdf::encode(&r.schema, &r.rows));
    });
    report.metric("wire.tdf_encode_us", "us", per_stmt(tdf_us), statements);
    report.metric(
        "wire.tdf_bytes_per_row",
        "bytes",
        tdf_bytes as f64 / rows.max(1) as f64,
        rows,
    );

    // The frames of each statement's whole response, as the gateway writes
    // them: header, one Record per row, StatementOk, then EndRequest.
    let mut spilled = 0u64;
    let responses: Vec<Vec<Message>> = input
        .responses
        .iter()
        .map(|results| {
            let mut frames = Vec::new();
            for r in results.iter() {
                if !r.schema.is_empty() {
                    frames.push(Message::RecordSetHeader {
                        columns: header_columns(&r.schema),
                    });
                    if let Ok(c) = convert(&r.schema, &r.rows, &input.converter) {
                        spilled += c.spilled_chunks as u64;
                        let _ = c.for_each_row(|bytes| {
                            frames.push(Message::Record {
                                row_bytes: bytes.to_vec(),
                            });
                            Ok(())
                        });
                    }
                }
                frames.push(Message::StatementOk {
                    activity_count: r.row_count,
                });
            }
            frames.push(Message::EndRequest);
            frames
        })
        .collect();
    let convert_us = per_item_us(&with_rows, |r| {
        let _ = std::hint::black_box(convert(&r.schema, &r.rows, &input.converter));
    });
    report.metric("wire.convert_us", "us", per_stmt(convert_us), statements);
    let convert_s = convert_us * with_rows.len() as f64 / 1e6;
    let rows_per_s = if convert_s > 0.0 {
        rows as f64 / convert_s
    } else {
        0.0
    };
    report.metric("wire.convert_rows_per_s", "rows/s", rows_per_s, rows);
    report.metric(
        "wire.convert_spilled_chunks",
        "count",
        spilled as f64,
        with_rows.len() as u64,
    );

    let mut sink = Vec::new();
    let encode_us = per_item_us(&responses, |frames| {
        sink.clear();
        for m in frames {
            let _ = m.write_to(&mut sink);
        }
        std::hint::black_box(&sink);
    });
    report.metric("wire.frame_encode_us", "us", encode_us, statements);
    let encoded: Vec<Vec<u8>> = responses
        .iter()
        .map(|frames| {
            let mut bytes = Vec::new();
            for m in frames {
                let _ = m.write_to(&mut bytes);
            }
            bytes
        })
        .collect();
    let decode_us = per_item_us(&encoded, |bytes| {
        let mut cursor = bytes.as_slice();
        while !cursor.is_empty() {
            if std::hint::black_box(Message::read_from(&mut cursor)).is_err() {
                break;
            }
        }
    });
    report.metric("wire.frame_decode_us", "us", decode_us, statements);
}

/// Per-statement fixed costs that have a public entry point of their own.
fn fixed_costs(report: &mut Report) {
    const CALLS: u64 = 10_000;
    let obs = ObsContext::new();
    let gate = AdmissionGate::new("bench", 256, 64, Duration::from_secs(10), &obs);
    let t = Instant::now();
    for _ in 0..CALLS {
        drop(std::hint::black_box(gate.try_admit()));
    }
    report.metric(
        "wire.admission_us",
        "us",
        us(t.elapsed()) / CALLS as f64,
        CALLS,
    );

    let registry = GovernorRegistry::new(GovernorConfig::default(), &obs);
    let t = Instant::now();
    for _ in 0..CALLS {
        drop(std::hint::black_box(registry.begin(1, None)));
    }
    report.metric(
        "governor.begin_finish_us",
        "us",
        us(t.elapsed()) / CALLS as f64,
        CALLS,
    );
}

/// `wire.logon_ms`: connect, handshake, logoff, fifty times.
pub fn logon(addr: SocketAddr, report: &mut Report) {
    const LOGONS: usize = 50;
    let mut times = Vec::with_capacity(LOGONS);
    for _ in 0..LOGONS {
        let t = Instant::now();
        match Client::connect(addr, USER, PASSWORD) {
            Ok(client) => {
                times.push(t.elapsed().as_secs_f64() * 1e3);
                let _ = client.logoff();
            }
            Err(e) => report.failures.push(format!("logon: {e}")),
        }
    }
    if !times.is_empty() {
        report.metric("wire.logon_ms", "ms", median(&times), times.len() as u64);
    }
}
