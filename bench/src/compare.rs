//! `compare A.json B.json`: B against A, by the direction and bound each
//! end-to-end metric carries in `BENCHMARK.json`. One row per workload ×
//! metric, each ratio printed with its base.

use crate::json::{self, Value};
use crate::Args;

#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's figure for a workload × metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    /// Quartile distance ÷ median over the side's runs; `None` for one run.
    pub spread: Option<f64>,
}

pub fn rules(benchmark: &Value) -> Result<Vec<Rule>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .items()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric without {k}"))
            };
            Ok(Rule {
                name: text("name")?.to_string(),
                unit: text("unit")?.to_string(),
                lower_is_better: match text("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better must be lower or higher, not {other:?}")),
                },
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(rule: &Rule, a: f64, b: f64) -> f64 {
    if rule.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn judge(rule: &Rule, a: Side, b: Side) -> Verdict {
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if spread > rule.bound {
        Verdict::Unresolved
    } else if worsening(rule, a.median, b.median) > rule.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(workload, metric) → side` from either an `all` result file or the
/// `--out` file of a single run.
fn sides(file: &Value) -> Vec<(String, String, Side)> {
    let mut out = Vec::new();
    if let Some(workloads) = file.get("workloads") {
        for (workload, w) in workloads.entries() {
            for (metric, m) in w.get("summary").map(Value::entries).unwrap_or_default() {
                if let Some(median) = m.get("median").and_then(Value::as_f64) {
                    let spread = m.get("spread").and_then(Value::as_f64);
                    out.push((workload.clone(), metric.clone(), Side { median, spread }));
                }
            }
        }
    } else if let Some(workload) = file.get("workload").and_then(Value::as_str) {
        for (metric, m) in file.get("metrics").map(Value::entries).unwrap_or_default() {
            if let Some(median) = m.get("value").and_then(Value::as_f64) {
                out.push((
                    workload.to_string(),
                    metric.clone(),
                    Side {
                        median,
                        spread: None,
                    },
                ));
            }
        }
    }
    out
}

fn read(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn run(args: &Args) -> Result<bool, String> {
    let [_, a_path, b_path] = args.words.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let rules = rules(&read(
        args.flag("benchmark").unwrap_or(crate::BENCHMARK_JSON),
    )?)?;
    let (a, b) = (sides(&read(a_path)?), sides(&read(b_path)?));

    println!("A = {a_path}\nB = {b_path}");
    println!(
        "{:<11} {:<19} {:>14} {:>14} {:<7} {:>16} {:>7} {:>6}  verdict",
        "workload", "metric", "A", "B", "unit", "B/A (base A)", "spread", "bound"
    );
    let mut regressed = 0;
    let mut compared = 0;
    for (workload, metric, side_a) in &a {
        let Some(rule) = rules.iter().find(|r| &r.name == metric) else {
            continue;
        };
        let Some((_, _, side_b)) = b.iter().find(|(w, m, _)| w == workload && m == metric) else {
            println!("{workload:<11} {metric:<19} missing from B");
            regressed += 1;
            continue;
        };
        let verdict = judge(rule, *side_a, *side_b);
        regressed += (verdict == Verdict::Regressed) as usize;
        compared += 1;
        let spread = side_a
            .spread
            .unwrap_or(0.0)
            .max(side_b.spread.unwrap_or(0.0));
        println!(
            "{workload:<11} {metric:<19} {:>14.4} {:>14.4} {:<7} {:>16.4} {:>6.1}% {:>5.0}%  {}",
            side_a.median,
            side_b.median,
            rule.unit,
            side_b.median / side_a.median,
            spread * 100.0,
            rule.bound * 100.0,
            verdict.as_str()
        );
    }
    if compared == 0 {
        return Err("the two files share no workload × end-to-end metric".into());
    }
    println!("{compared} compared, {regressed} regressed");
    Ok(regressed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Rule {
        Rule {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    fn side(median: f64, spread: f64) -> Side {
        Side {
            median,
            spread: Some(spread),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worsening(&rule(true), 100.0, 115.0) - 0.15).abs() < 1e-12);
        assert!((worsening(&rule(false), 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!(worsening(&rule(true), 100.0, 90.0) < 0.0);
    }

    #[test]
    fn verdicts() {
        let lower = rule(true);
        assert_eq!(
            judge(&lower, side(100.0, 0.01), side(109.0, 0.02)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, side(100.0, 0.01), side(111.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&lower, side(100.0, 0.01), side(50.0, 0.02)),
            Verdict::Ok
        );
        // Spread beyond the bound on either side: not "unchanged", unresolved.
        assert_eq!(
            judge(&lower, side(100.0, 0.12), side(100.0, 0.02)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, side(100.0, 0.01), side(130.0, 0.2)),
            Verdict::Unresolved
        );
        let higher = rule(false);
        assert_eq!(
            judge(&higher, side(100.0, 0.0), side(89.0, 0.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&higher, side(100.0, 0.0), side(120.0, 0.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn reads_rules_and_both_file_shapes() {
        let benchmark = json::parse(
            r#"{"end_to_end": [{"name": "stmt_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let r = rules(&benchmark).unwrap();
        assert_eq!(
            (r[0].name.as_str(), r[0].lower_is_better, r[0].bound),
            ("stmt_per_s", false, 0.1)
        );
        let all = json::parse(
            r#"{"workloads": {"short_mix": {"summary": {"stmt_per_s": {"median": 70.5, "spread": 0.01}}}}}"#,
        )
        .unwrap();
        assert_eq!(
            sides(&all),
            vec![("short_mix".into(), "stmt_per_s".into(), side(70.5, 0.01))]
        );
        let single = json::parse(
            r#"{"workload": "short_mix", "metrics": {"stmt_per_s": {"value": 71.0, "unit": "1/s"}}}"#,
        )
        .unwrap();
        assert_eq!(
            sides(&single),
            vec![(
                "short_mix".into(),
                "stmt_per_s".into(),
                Side {
                    median: 71.0,
                    spread: None
                }
            )]
        );
        assert!(rules(&json::parse("{}").unwrap()).is_err());
    }
}
