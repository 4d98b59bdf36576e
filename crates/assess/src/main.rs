//! `hyperq-assess` — static workload assessment from the command line.
//!
//! ```text
//! hyperq-assess [--target NAME]... [--format text|json]
//!               (--corpus tpch|health|telco | FILE...)
//! ```
//!
//! `--target` takes any name from the target-profile registry (`simwh`,
//! `simwh-reduced`, `cloud-a`..`cloud-f`) and repeats: each named profile
//! gets its own verdict section in the report. `--target all` assesses
//! every registered profile. Files are SQL scripts (statements separated
//! by `;`); `--ddl FILE` adds schema-only inputs that populate the
//! catalog without being assessed. With `--corpus`, the built-in workload
//! generators supply both DDL and statements, so a report is reproducible
//! with no inputs at all.

use std::process::ExitCode;

use hyperq_assess::{assess, Report, Workload};
use hyperq_core::targets::{self, TargetProfile};

const USAGE: &str = "usage: hyperq-assess [--target NAME]... [--format text|json] \
                     [--fail-on-unsupported] (--corpus tpch|health|telco | [--ddl FILE]... FILE...)";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("hyperq-assess: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let mut target_names: Vec<String> = Vec::new();
    let mut format = "text".to_string();
    let mut corpus: Option<String> = None;
    let mut ddl_files: Vec<String> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut fail_on_unsupported = false;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--target" => target_names.push(it.next().ok_or("--target needs a value")?),
            "--format" => format = it.next().ok_or("--format needs a value")?,
            "--corpus" => corpus = Some(it.next().ok_or("--corpus needs a value")?),
            "--ddl" => ddl_files.push(it.next().ok_or("--ddl needs a value")?),
            "--fail-on-unsupported" => fail_on_unsupported = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            file => files.push(file.to_string()),
        }
    }
    if !matches!(format.as_str(), "text" | "json") {
        return Err(format!("unknown format {format}"));
    }

    // Resolve --target through the profile registry; no flag means the
    // default target, "all" expands to every registered profile.
    let mut profiles: Vec<TargetProfile> = Vec::new();
    if target_names.is_empty() {
        profiles.push(targets::simwh());
    }
    for name in &target_names {
        if name.eq_ignore_ascii_case("all") {
            profiles.extend(targets::all());
        } else {
            profiles
                .push(targets::lookup(name).ok_or_else(|| format!("unknown target {name}"))?);
        }
    }
    profiles.dedup_by(|a, b| a.name == b.name);

    let workload = match corpus {
        Some(name) => Workload::corpus(&name).ok_or_else(|| format!("unknown corpus {name}"))?,
        None => {
            if files.is_empty() && ddl_files.is_empty() {
                return Err("no inputs: pass --corpus or at least one SQL file".into());
            }
            let read = |f: &String| std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"));
            Workload {
                ddl: ddl_files.iter().map(read).collect::<Result<_, _>>()?,
                scripts: files.iter().map(read).collect::<Result<_, _>>()?,
            }
        }
    };

    let reports: Vec<Report> = profiles.iter().map(|p| assess(p.clone(), &workload)).collect();
    for report in &reports {
        report.record_metrics(hyperq_obs::ObsContext::global());
    }
    match format.as_str() {
        "json" if reports.len() == 1 => println!("{}", reports[0].to_json()),
        "json" => {
            let body: Vec<String> = reports.iter().map(Report::to_json).collect();
            println!("[{}]", body.join(","));
        }
        _ => {
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", report.to_text());
            }
        }
    }
    if fail_on_unsupported && reports.iter().any(|r| r.unsupported > 0) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
