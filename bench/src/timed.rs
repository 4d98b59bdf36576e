//! The timed run: tracing off, `hyperq_wire::Client` as the bteq stand-in,
//! closed loop, one session, one client thread. The only instruments are
//! the client's clock around each request and `TimedBackend`'s totals read
//! between requests.

use std::time::{Duration, Instant};

use hyperq_wire::{Client, WireError};

use crate::env::{prepare, verify, Env, PASSWORD, USER};
use crate::report::{peak_rss_mib, Report};
use crate::stats::{geomean, highest_supported_tail, median, ms, percentile, samples_beyond};
use crate::workload::{Size, Workload};

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub size: Size,
}

/// Set-up is repeated and its median reported, because one reading of a
/// sub-second set-up is noisy — but only while the repeats are cheap: a
/// set-up dominated by its warm-up pass (about 6 s on `tpch_seq`) repeats
/// within a few percent anyway. `Size::max_setups` caps the count.
const SETUP_BUDGET: Duration = Duration::from_secs(8);
/// Whole passes only, and at least two, so every template has two samples.
const MIN_PASSES: u64 = 2;

struct Sample {
    template: usize,
    latency: Duration,
    backend_busy: Duration,
    rows: u64,
}

pub fn run(workload: &mut dyn Workload, opts: &Options) -> Report {
    let mut report = Report::new(workload.name(), opts, false);
    if let Err(e) = measure(workload, opts, &mut report) {
        report.failures.push(e);
    }
    report
}

fn measure(workload: &mut dyn Workload, opts: &Options, report: &mut Report) -> Result<(), String> {
    // --- set-up: load, spawn, logon, warm-up pass ----------------------------
    let mut setups: Vec<Duration> = Vec::new();
    let (env, mut client) = loop {
        let started = Instant::now();
        let env = Env::start(workload, None)?;
        let mut client =
            Client::connect(env.gateway.addr, USER, PASSWORD).map_err(|e| format!("logon: {e}"))?;
        let (_, failures) = prepare(&mut client, workload, opts.seed)?;
        setups.push(started.elapsed());
        report
            .failures
            .extend(failures.into_iter().map(|f| format!("warm-up: {f}")));
        // Repeat only while one more set-up like this one fits the budget.
        let spent: Duration = setups.iter().sum();
        if setups.len() >= opts.size.max_setups || spent + started.elapsed() > SETUP_BUDGET {
            break (env, client);
        }
        let _ = client.logoff();
        env.stop();
    };

    // --- the window ----------------------------------------------------------
    let window = Duration::from_secs(opts.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let started = Instant::now();
    let mut passes = 0;
    'window: while passes < MIN_PASSES || started.elapsed() < window {
        passes += 1;
        for stmt in workload.pass(opts.seed, passes) {
            report.attempted += 1;
            let before = env.backend.totals();
            let sent = Instant::now();
            let response = client.run(&stmt.sql);
            let latency = sent.elapsed();
            let backend = env.backend.totals().since(&before);
            // Everything below is the benchmark's own work, outside the
            // clocked interval and outside the rates' denominators.
            match response {
                Ok(sets) => {
                    let sets: Vec<_> = sets
                        .into_iter()
                        .map(|s| (s.rows, s.activity_count))
                        .collect();
                    match verify(workload, &stmt, &sets) {
                        Ok(()) => samples.push(Sample {
                            template: stmt.template,
                            latency,
                            backend_busy: backend.busy,
                            rows: sets.iter().map(|(rows, _)| rows.len() as u64).sum(),
                        }),
                        // A wrong result has no latency worth reporting.
                        Err(e) => report.failures.push(e),
                    }
                }
                Err(WireError::Protocol(e)) => report.failures.push(format!("{e}: {}", stmt.sql)),
                Err(WireError::Io(e)) => {
                    report
                        .failures
                        .push(format!("connection lost: {e}: {}", stmt.sql));
                    break 'window;
                }
            }
        }
        report.failures.extend(workload.check_state(&env.db).err());
    }
    let _ = client.logoff();
    env.stop();

    if samples.is_empty() {
        return Err("no statement completed".into());
    }
    let n = samples.len() as u64;
    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();
    let client_s: f64 = samples.iter().map(|s| s.latency.as_secs_f64()).sum();
    let backend_s: f64 = samples.iter().map(|s| s.backend_busy.as_secs_f64()).sum();
    let rows: u64 = samples.iter().map(|s| s.rows).sum();
    let mut per_template: Vec<Vec<f64>> = vec![Vec::new(); workload.templates().len()];
    for s in &samples {
        per_template[s.template].push(ms(s.latency));
    }
    let template_medians: Vec<f64> = per_template
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let tail = workload.tail_quantile();

    report.metric("stmt_p50_ms", "ms", percentile(&latencies, 0.5), n);
    report.metric(
        "geomean_ms",
        "ms",
        geomean(&template_medians),
        template_medians.len() as u64,
    );
    report.metric("stmt_per_s", "1/s", n as f64 / client_s, n);
    report.metric("result_rows_per_s", "rows/s", rows as f64 / client_s, rows);
    report.metric(
        "hyperq_overhead_ms",
        "ms",
        (client_s - backend_s) * 1e3 / n as f64,
        n,
    );
    let setup_s: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    report.metric("setup_s", "s", median(&setup_s), setups.len() as u64);
    report.metric("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(f64::NAN), 1);

    // Informational, not bounded: over ten seeds it spread by up to 23% on
    // `tpch_seq` (44 samples, two per query), more than any bound allowed.
    report.info("stmt_tail_ms", "ms", percentile(&latencies, tail), n);
    report.info("stmt_tail_percentile", "pct", tail * 100.0, n);
    report.info(
        "stmt_tail_samples_beyond",
        "count",
        samples_beyond(samples.len(), tail) as f64,
        n,
    );
    // What this many samples would support, for whoever revisits the choice.
    let supported = highest_supported_tail(samples.len()).unwrap_or(0.0);
    report.info(
        "stmt_tail_supported_percentile",
        "pct",
        supported * 100.0,
        n,
    );
    report.info(
        "fig9_hyperq_share_pct",
        "pct",
        100.0 * (client_s - backend_s) / client_s,
        n,
    );
    report.info(
        "failed_share",
        "ratio",
        report.failed() as f64 / report.attempted as f64,
        report.attempted,
    );
    report.info("passes", "count", passes as f64, passes);
    for (label, lats) in workload.templates().iter().zip(&per_template) {
        if !lats.is_empty() {
            let short: String = label.chars().take(48).collect();
            report.info(
                &format!("p50_ms[{short}]"),
                "ms",
                median(lats),
                lats.len() as u64,
            );
        }
    }
    report.info("measured_s", "s", client_s, n);
    Ok(())
}
