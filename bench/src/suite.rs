//! `all`: every workload, one process per run so that `peak_rss_mb` belongs
//! to one workload, gathered into one result file. And `regen-expected`.

use std::path::Path;
use std::process::Command;

use hyperq_wire::Client;

use crate::env::{Env, Session, PASSWORD, USER};
use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};
use crate::verify::{digest, hash_text, render, Golden};
use crate::workload::{self, Size};
use crate::{Args, EXPECTED_DIR, RESULTS_DIR};

/// Run this executable again for one workload and read its result file.
fn child_run(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
) -> Result<Value, String> {
    let out = format!("{RESULTS_DIR}/{name}-seed{seed}-trace{}.json", traced as u8);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        name,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }, "--out", &out]);
    if smoke {
        cmd.arg("--smoke");
    }
    // The child inherits stdout, so its table appears as it runs.
    let status = cmd
        .status()
        .map_err(|e| format!("starting the {name} run: {e}"))?;
    if !status.success() {
        return Err(format!("the {name} run (seed {seed}) exited with {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("reading {out}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{out}: {e}"))
}

/// Median and quartile spread of every metric over the timed runs.
fn summarize(runs: &[Value]) -> Value {
    let mut summary = Value::obj();
    let Some(first) = runs.first() else {
        return summary;
    };
    for (name, metric) in first.get("metrics").map(Value::entries).unwrap_or_default() {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if values.len() != runs.len() {
            continue;
        }
        let mut entry = Value::obj()
            .with(
                "unit",
                metric.get("unit").and_then(Value::as_str).unwrap_or(""),
            )
            .with("median", median(&values))
            .with(
                "values",
                values.iter().map(|v| Value::Num(*v)).collect::<Vec<_>>(),
            );
        if let Some(spread) = quartile_spread(&values) {
            entry.set("spread", spread);
        }
        summary.set(name, entry);
    }
    summary
}

pub fn run(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", 10)?;
    let runs = args.number("runs", 1)?.max(1);
    let default_out = format!("{RESULTS_DIR}/latest.json");
    let out = args.flag("out").unwrap_or(&default_out);
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;

    let mut all_correct = true;
    let mut workloads = Value::obj();
    let mut envelope = Value::Null;
    for name in workload::NAMES {
        let mut timed = Vec::new();
        for k in 0..runs {
            let run = child_run(name, seed + k, seconds, false, args.smoke)?;
            all_correct &= run.get("correct") == Some(&Value::Bool(true));
            envelope = run.get("envelope").cloned().unwrap_or(Value::Null);
            timed.push(run);
        }
        let traced = child_run(name, seed, seconds, true, args.smoke)?;
        all_correct &= traced.get("correct") == Some(&Value::Bool(true));
        workloads.set(
            name,
            Value::obj()
                .with("summary", summarize(&timed))
                .with("runs", timed)
                .with("traced", traced),
        );
    }
    let seeds: Vec<Value> = (0..runs).map(|k| Value::from(seed + k)).collect();
    let result = Value::obj()
        .with("envelope", envelope)
        .with("seeds", seeds)
        .with("correct", all_correct)
        .with("workloads", workloads);
    std::fs::write(out, result.to_pretty()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "== wrote {out}: {} workloads × {runs} timed + 1 traced run, {}",
        workload::NAMES.len(),
        if all_correct {
            "every result verified"
        } else {
            "WITH FAILURES"
        }
    );
    Ok(all_correct)
}

/// Run every statement that has a golden digest once over the wire and
/// write what came back as the new expectation.
pub fn regen_expected(size: Size) -> Result<(), String> {
    for name in workload::NAMES {
        let mut workload = workload::by_name(name, size).expect("known workload");
        let Some(file) = workload.golden_file() else {
            continue;
        };
        // A file shared by both sizes is written from the full size only.
        let full = workload::by_name(name, Size::FULL).expect("known workload");
        if size != Size::FULL && full.golden_file().as_ref() == Some(&file) {
            continue;
        }
        let env = Env::start(&*workload, None)?;
        let mut client =
            Client::connect(env.gateway.addr, USER, PASSWORD).map_err(|e| format!("logon: {e}"))?;
        for sql in workload.session_setup() {
            client.send(&sql).map_err(|e| format!("{sql}: {e}"))?;
        }
        let mut entries = Vec::new();
        for stmt in workload.golden_statements() {
            let sets = client
                .send(&stmt.sql)
                .map_err(|e| format!("{}: {e}", stmt.sql))?;
            let d = digest(
                sets.iter()
                    .map(|(rows, activity)| (rows.as_slice(), *activity)),
            );
            let label = &workload.templates()[stmt.template];
            entries.push((
                hash_text(&stmt.sql),
                Golden::from_digest(label, &stmt.sql, &d),
            ));
        }
        let _ = client.logoff();
        env.stop();
        let path = Path::new(EXPECTED_DIR).join(file);
        let count = entries.len();
        std::fs::write(&path, render(entries)).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} ({count} statements)", path.display());
    }
    Ok(())
}
