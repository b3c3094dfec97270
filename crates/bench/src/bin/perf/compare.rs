//! `perf compare OLD.json NEW.json`: holds a new ledger against an old one.
//!
//! Both files come from `perf run --runs R`. Per workload and end-to-end
//! metric it prints each side's median and quartiles and a verdict against
//! the metric's bound: `regressed` when NEW's median is worse than OLD's
//! by more than the bound, `unresolved` when either side's own spread
//! (inter-quartile distance over median) is wider than the bound — the
//! runs cannot tell — `improved` when better by more than both spreads,
//! `same` otherwise. Per-layer metrics, when both ledgers are traced, are
//! listed with their change and no verdict. Exit code 1 on any regression
//! or when NEW fails a larger share of its operations.

use crate::catalog;
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Side {
    /// workload → metric → one value per run
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub attempted: BTreeMap<String, u64>,
    pub failed: BTreeMap<String, u64>,
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    serde::obj_get(v.as_object()?, key)
}

pub fn parse_ledger(text: &str) -> Result<Side, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let runs = get(&doc, "runs")
        .and_then(Value::as_array)
        .ok_or("ledger has no runs")?;
    let mut side = Side::default();
    for run in runs {
        let workload = get(run, "workload")
            .and_then(Value::as_str)
            .ok_or("run has no workload")?;
        *side.attempted.entry(workload.into()).or_default() +=
            get(run, "attempted").and_then(Value::as_u64).unwrap_or(0);
        *side.failed.entry(workload.into()).or_default() +=
            get(run, "failed").and_then(Value::as_u64).unwrap_or(0);
        let metrics = get(run, "metrics")
            .and_then(Value::as_object)
            .ok_or("run has no metrics")?;
        for (name, m) in metrics {
            if let Some(v) = get(m, "value").and_then(Value::as_f64) {
                side.values
                    .entry(workload.into())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    Unresolved,
}

/// Judges one metric. `worse` is the share of OLD's median by which NEW's
/// is worse (negative = better).
pub fn judge(old: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (mo, mn) = (stats::median(old), stats::median(new));
    let worse = if mo == 0.0 {
        0.0
    } else if higher_is_better {
        (mo - mn) / mo.abs()
    } else {
        (mn - mo) / mo.abs()
    };
    let noise = stats::spread(old).max(stats::spread(new));
    let verdict = if noise > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > noise && worse < 0.0 {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (verdict, worse)
}

fn describe(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:.4} [{q1:.4} {q3:.4}]"),
        None => format!("{:.4}", stats::median(values)),
    }
}

/// Prints the comparison; true when NEW is acceptable.
pub fn compare(old: &Side, new: &Side) -> bool {
    let mut ok = true;
    for w in catalog::WORKLOADS {
        let (Some(o), Some(n)) = (old.values.get(w.name), new.values.get(w.name)) else {
            continue;
        };
        println!("{}", w.name);
        for m in catalog::END_TO_END {
            let (Some(ov), Some(nv)) = (o.get(m.name), n.get(m.name)) else {
                continue;
            };
            let (verdict, worse) = judge(ov, nv, m.better == "higher", m.bound);
            ok &= verdict != Verdict::Regressed;
            println!(
                "  {:<22} {:<6} old {:<32} new {:<32} worse by {:>+7.2}% (bound {:.1}%)  {:?}",
                m.name,
                m.unit,
                describe(ov),
                describe(nv),
                worse * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
        for m in catalog::PER_LAYER {
            let (Some(ov), Some(nv)) = (o.get(m.name), n.get(m.name)) else {
                continue;
            };
            let (mo, mn) = (stats::median(ov), stats::median(nv));
            let change = if mo == 0.0 {
                0.0
            } else {
                (mn - mo) / mo.abs() * 100.0
            };
            println!(
                "  {:<40} {:<6} old {mo:<14.4} new {mn:<14.4} {change:>+8.2}%",
                m.name, m.unit
            );
        }
        let share = |s: &Side| {
            let a = s.attempted.get(w.name).copied().unwrap_or(0).max(1);
            s.failed.get(w.name).copied().unwrap_or(0) as f64 / a as f64
        };
        if share(new) > share(old) {
            println!(
                "  failed share rose from {:.4} to {:.4}",
                share(old),
                share(new)
            );
            ok = false;
        }
    }
    ok
}

pub fn compare_files(old: &Path, new: &Path) -> Result<ExitCode, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| parse_ledger(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let ok = compare(&read(old)?, &read(new)?);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 20 % slower against an 8 % bound
        let slow = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(judge(&steady, &slow, false, 0.08).0, Verdict::Regressed);
        // the same numbers as a rate: higher is better, so this is a gain
        assert_eq!(judge(&steady, &slow, true, 0.08).0, Verdict::Improved);
        assert_eq!(judge(&slow, &steady, true, 0.08).0, Verdict::Regressed);
        // inside the bound
        let near = [10.3, 10.4, 10.2, 10.3, 10.35];
        let (v, worse) = judge(&steady, &near, false, 0.08);
        assert_eq!(v, Verdict::Same);
        assert!((worse - 0.03).abs() < 1e-9);
        // one side too noisy to tell
        let noisy = [8.0, 12.0, 10.0, 9.0, 13.0];
        assert_eq!(judge(&steady, &noisy, false, 0.08).0, Verdict::Unresolved);
        // single runs have no spread: judged on medians alone
        assert_eq!(judge(&[10.0], &[10.5], false, 0.08).0, Verdict::Same);
        assert_eq!(judge(&[10.0], &[11.0], false, 0.08).0, Verdict::Regressed);
    }

    fn ledger(p50: &[f64], failed: u64) -> String {
        let runs: Vec<String> = p50
            .iter()
            .map(|v| {
                format!(
                    r#"{{"workload":"pin_align","run":0,"correct":true,"attempted":100,"failed":{failed},
                        "metrics":{{"query_p50_ms":{{"value":{v},"unit":"ms"}}}}}}"#
                )
            })
            .collect();
        format!(r#"{{"seed":1,"runs":[{}]}}"#, runs.join(","))
    }

    #[test]
    fn ledgers_parse_and_compare() {
        let old = parse_ledger(&ledger(&[10.0, 10.1, 9.9], 0)).unwrap();
        assert_eq!(
            old.values["pin_align"]["query_p50_ms"],
            vec![10.0, 10.1, 9.9]
        );
        assert_eq!(old.attempted["pin_align"], 300);
        assert!(compare(&old, &old));
        // half again as slow: past any bound the catalog allows
        let slow = parse_ledger(&ledger(&[15.0, 15.1, 14.9], 0)).unwrap();
        assert!(!compare(&old, &slow));
        assert!(compare(&slow, &old));
        let failing = parse_ledger(&ledger(&[10.0, 10.1, 9.9], 2)).unwrap();
        assert!(!compare(&old, &failing));
        assert!(parse_ledger("{}").is_err());
    }
}
