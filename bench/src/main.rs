//! `bench_e2e` — client-observed latency over TDWP, with a per-layer ledger
//! that adds up. See bench/README.md.

#![forbid(unsafe_code)]

mod backend;
mod compare;
mod env;
mod frame_client;
mod json;
mod layers;
mod report;
mod rng;
mod stats;
mod suite;
mod timed;
mod trace;
mod traced;
mod verify;
mod workload;

use std::process::ExitCode;

use report::Report;
use workload::Size;

/// Where result files and traces go, and where the goldens live: next to
/// this package's manifest, whatever the working directory is.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
pub const EXPECTED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected");
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

const USAGE: &str = "\
usage:
  bench_e2e --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out <file>] [--smoke]
      one run of one workload; the last line of output is the driver's JSON
  bench_e2e all [--seed <n>] [--seconds <n>] [--runs <k>] [--out <file>] [--smoke]
      every workload, each run in a process of its own: <k> timed runs on
      seeds <n>, <n>+1, … and one traced run; non-zero exit on any failure
  bench_e2e compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
      one row per workload × end-to-end metric: ok / regressed / unresolved
  bench_e2e regen-expected [--smoke]
      rewrite bench/expected/ from what the system returns now
workloads: tpch_seq short_mix fetch_wide churn_mix";

/// `--flag value` pairs and bare words, in order.
pub struct Args {
    pub words: Vec<String>,
    flags: Vec<(String, String)>,
    pub smoke: bool,
}

impl Args {
    fn parse(raw: Vec<String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
            smoke: false,
        };
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if a == "--smoke" {
                args.smoke = true;
            } else if let Some(flag) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                args.flags.push((flag.to_string(), value));
            } else {
                args.words.push(a);
            }
        }
        Ok(args)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.flag(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
            None => Ok(default),
        }
    }

    pub fn size(&self) -> Size {
        if self.smoke {
            Size::SMOKE
        } else {
            Size::FULL
        }
    }
}

/// One run of one workload, timed or traced.
pub fn run_one(
    name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    size: Size,
) -> Result<Report, String> {
    let mut workload =
        workload::by_name(name, size).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let opts = timed::Options {
        seed,
        seconds,
        size,
    };
    Ok(if traced {
        traced::run(&mut *workload, &opts)
    } else {
        timed::run(&mut *workload, &opts)
    })
}

fn single(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").ok_or("--workload is required")?;
    let traced = match args.flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let report = run_one(
        name,
        args.number("seed", 1)?,
        args.number("seconds", 10)?,
        traced,
        args.size(),
    )?;
    report.print_table();
    if let Some(path) = args.flag("out") {
        let json = report.to_json(&report::envelope(&report)).to_pretty();
        std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report.driver_line());
    // The line carries `correct`; a non-zero exit means "no result".
    Ok(true)
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.words.first().map(String::as_str) {
        None => single(args),
        Some("all") => suite::run(args),
        Some("compare") => compare::run(args),
        Some("regen-expected") => suite::regen_expected(args.size()).map(|()| true),
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> &'static json::Value {
        static FILE: std::sync::OnceLock<json::Value> = std::sync::OnceLock::new();
        FILE.get_or_init(|| {
            let text = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json");
            json::parse(&text).expect("BENCHMARK.json parses")
        })
    }

    fn text<'a>(v: &'a json::Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| panic!("no {key} in {v:?}"))
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let names: Vec<&str> = benchmark_json()
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, workload::NAMES);
        assert!(compare::rules(benchmark_json()).is_ok());
    }

    /// The whole harness at smoke size: set-up, timed window, the three
    /// traced passes and the layer calls, with result verification on.
    /// One test per workload, so they run side by side; most of a run is
    /// spent waiting on the gateway's timers, not on a core.
    fn smoke(name: &str) {
        for traced in [false, true] {
            let report = run_one(name, 1, 0, traced, Size::SMOKE).expect("known workload");
            assert!(
                report.correct(),
                "{name} traced={traced}: {:?}",
                report.failures
            );
            assert!(report.attempted > 0);
            let line = json::parse(&report.driver_line()).expect("driver line is JSON");
            let metrics = line.get("metrics").expect("metrics").entries();
            // Exactly the metrics BENCHMARK.json promises for this kind of
            // run, with its units.
            let list = if traced { "per_layer" } else { "end_to_end" };
            let promised: Vec<(&str, &str)> = benchmark_json()
                .get(list)
                .expect("metric list")
                .items()
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect();
            let reported: Vec<(&str, &str)> = metrics
                .iter()
                .map(|(name, m)| (name.as_str(), text(m, "unit")))
                .collect();
            assert_eq!(
                reported, promised,
                "{name}: {list} differs from BENCHMARK.json"
            );
            for (metric, m) in metrics {
                let value = m.get("value").and_then(json::Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name}: {metric} is {value:?}"
                );
            }
        }
    }

    #[test]
    fn smoke_tpch_seq() {
        smoke("tpch_seq");
    }

    #[test]
    fn smoke_short_mix() {
        smoke("short_mix");
    }

    #[test]
    fn smoke_fetch_wide() {
        smoke("fetch_wide");
    }

    #[test]
    fn smoke_churn_mix() {
        smoke("churn_mix");
    }

    #[test]
    fn a_wrong_result_is_counted_not_timed() {
        // The golden digests are for another scale factor: every query that
        // returns rows must be reported as failed, and the run as incorrect.
        let mut workload = workload::by_name(
            "tpch_seq",
            Size {
                name: "wrong",
                ..Size::SMOKE
            },
        )
        .expect("known workload");
        let opts = timed::Options {
            seed: 1,
            seconds: 0,
            size: Size::SMOKE,
        };
        let report = timed::run(&mut *workload, &opts);
        assert!(!report.correct());
        assert!(report.failed() > 0);
    }

    #[test]
    fn args_parse_flags_words_and_smoke() {
        let raw = ["all", "--seed", "7", "--smoke", "--out", "x.json"]
            .map(String::from)
            .to_vec();
        let args = Args::parse(raw).unwrap();
        assert_eq!(args.words, ["all"]);
        assert_eq!(args.number("seed", 1), Ok(7));
        assert_eq!(args.number("seconds", 10), Ok(10));
        assert_eq!(args.flag("out"), Some("x.json"));
        assert!(args.smoke);
        assert!(Args::parse(vec!["--seed".into()]).is_err());
        assert!(Args::parse(vec!["--seed".into(), "x".into()])
            .unwrap()
            .number("seed", 1)
            .is_err());
    }
}
