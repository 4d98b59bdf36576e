//! What a run reports: named metrics with units and sample counts, printed
//! for people, then as the one JSON line the driver reads, and optionally
//! written to a file inside an envelope that says where the numbers came
//! from.

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many measurements the value summarizes.
    pub samples: u64,
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub window_s: u64,
    pub size: &'static str,
    pub tpch_sf: f64,
    pub attempted: u64,
    /// What went wrong, one line each; the run is correct when empty.
    pub failures: Vec<String>,
    /// The metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Metric>,
    /// Printed and stored beside them, but bound by nothing.
    pub info: Vec<Metric>,
}

impl Report {
    /// An empty report for one run of `workload`.
    pub fn new(workload: &str, opts: &crate::timed::Options, traced: bool) -> Report {
        Report {
            workload: workload.to_string(),
            seed: opts.seed,
            traced,
            window_s: opts.seconds,
            size: opts.size.name,
            tpch_sf: opts.size.tpch_sf,
            attempted: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn info(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(
                &m.name,
                Value::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed())
            .with("metrics", metrics)
            .to_line()
    }

    /// Every metric by name with its unit and sample count.
    pub fn print_table(&self) {
        let kind = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end (tracing off)"
        };
        println!("== {} seed {} — {kind}", self.workload, self.seed);
        for (title, list) in [("", &self.metrics), ("informational", &self.info)] {
            if !title.is_empty() && !list.is_empty() {
                println!("-- {title}");
            }
            for m in list {
                println!(
                    "{:<34} {:>16.4} {:<7} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        for f in self.failures.iter().take(10) {
            println!("FAILED: {f}");
        }
        if self.failures.len() > 10 {
            println!("FAILED: … and {} more", self.failures.len() - 10);
        }
    }

    /// The stored form: the driver's fields plus sample counts, the
    /// informational metrics and the envelope.
    pub fn to_json(&self, envelope: &Value) -> Value {
        let list = |ms: &[Metric]| {
            let mut obj = Value::obj();
            for m in ms {
                obj.set(
                    &m.name,
                    Value::obj()
                        .with("value", m.value)
                        .with("unit", m.unit)
                        .with("samples", m.samples),
                );
            }
            obj
        };
        Value::obj()
            .with("envelope", envelope.clone())
            .with("workload", self.workload.as_str())
            .with("seed", self.seed)
            .with("traced", self.traced)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed())
            .with("metrics", list(&self.metrics))
            .with("informational", list(&self.info))
            .with(
                "failures",
                self.failures
                    .iter()
                    .take(10)
                    .map(|f| Value::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where a result file's numbers came from.
pub fn envelope(report: &Report) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj()
        .with(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .with("nproc", nproc)
        .with(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .with("transport", "loopback, gateway in-process")
        .with("loop", "closed, 1 session, 1 client thread")
        .with("size", report.size)
        .with("tpch_sf", report.tpch_sf)
        .with("window_s", report.window_s)
}

/// `VmHWM` of this process in MiB: the most memory it ever held.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn report() -> Report {
        let mut r = Report {
            workload: "short_mix".into(),
            seed: 3,
            traced: false,
            window_s: 10,
            size: "smoke",
            tpch_sf: 0.001,
            attempted: 40,
            failures: Vec::new(),
            metrics: Vec::new(),
            info: Vec::new(),
        };
        r.metric("stmt_p50_ms", "ms", 12.034_5, 40);
        r.info("fig9_share_pct", "%", 99.1, 40);
        r
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = report().driver_line();
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("stmt_p50_ms").unwrap();
        assert_eq!(m.get("value").and_then(Value::as_f64), Some(12.034_5));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some("ms"));
        // Informational metrics stay out of the driver's line.
        assert!(v.get("metrics").unwrap().get("fig9_share_pct").is_none());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = report();
        r.failures.push("wrong rows".into());
        let v = json::parse(&r.driver_line()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mib().is_some_and(|m| m > 1.0));
    }
}
