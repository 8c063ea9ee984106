//! `compare <a.jsonl> <b.jsonl>`: two sets of untraced runs, one row per
//! workload × end-to-end metric. Each file holds one result record per
//! line, as `run --out` appends them.

use std::collections::BTreeMap;

use skelcl_profile::json::Json;

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::{median, quartiles, ratio};
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// Run-to-run spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Distance between the quartiles as a share of the median; 0 for fewer
/// than two runs.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| ratio(q3 - q1, median(values).abs()))
}

/// `b` against the base `a`. Worse means worse by more than the bound;
/// better means better by more than the wider of the two spreads.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let noise = spread(a).max(spread(b));
    let change = ratio(median(b) - median(a), median(a).abs());
    let worsening = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if noise > bound {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else if worsening < -noise && worsening != 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Untraced runs of one file: workload → metric → one value per run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let Some(Json::Obj(metrics)) = record.get("metrics") else {
            return Err(format!("line {}: no metrics", number + 1));
        };
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: {name} has no value", number + 1))?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

/// The comparison table and how many rows read `worse`.
pub fn table(a: &Runs, b: &Runs) -> (String, usize) {
    let mut out = format!(
        "{:<16} {:<16} {:>4} {:>14} {:>14} {:>9} {:>8} {:>7}  {}\n",
        "workload", "metric", "runs", "median a", "median b", "b/a", "spread", "bound", "verdict"
    );
    let mut worse = 0;
    for workload in NAMES {
        let (Some(ra), Some(rb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (ra.get(def.name), rb.get(def.name)) else {
                continue;
            };
            let v = verdict(def, va, vb);
            worse += usize::from(v == Verdict::Worse);
            out += &format!(
                "{:<16} {:<16} {:>4} {:>14.6} {:>14.6} {:>9.4} {:>7.2}% {:>6.1}%  {}\n",
                workload,
                def.name,
                va.len().min(vb.len()),
                median(va),
                median(vb),
                ratio(median(vb), median(va)),
                100.0 * spread(va).max(spread(vb)),
                100.0 * def.bound.unwrap_or(0.0),
                v.label(),
            );
        }
    }
    (out, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with a 10 % bound, whatever the registry's bounds are.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "metric",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &def(Better::Lower);
        let tight = [100.0, 100.5, 101.0, 100.2, 100.8];
        let shift = |by: f64| tight.map(|v| v * by);
        assert_eq!(verdict(lower, &tight, &tight), Verdict::Same);
        assert_eq!(verdict(lower, &tight, &shift(1.05)), Verdict::Same);
        assert_eq!(verdict(lower, &tight, &shift(1.15)), Verdict::Worse);
        assert_eq!(verdict(lower, &tight, &shift(0.9)), Verdict::Better);
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(lower, &noisy, &shift(1.5)), Verdict::Unresolved);

        let higher = &def(Better::Higher);
        assert_eq!(verdict(higher, &tight, &shift(0.85)), Verdict::Worse);
        assert_eq!(verdict(higher, &tight, &shift(1.2)), Verdict::Better);

        // A single run each has no spread: any change is resolved.
        assert_eq!(verdict(lower, &[4096.0], &[4096.0]), Verdict::Same);
        assert_eq!(verdict(lower, &[4096.0], &[4600.0]), Verdict::Worse);
        assert_eq!(verdict(lower, &[4096.0], &[4000.0]), Verdict::Better);
    }

    #[test]
    fn records_group_by_workload_and_skip_traced_runs() {
        let line = |workload: &str, trace: u8, v: f64| {
            format!(
                r#"{{"workload":"{workload}","trace":{trace},"metrics":{{"iter_ms_p50":{{"value":{v},"unit":"ms"}}}}}}"#
            )
        };
        let text = [
            line("dot", 0, 10.0),
            line("dot", 0, 12.0),
            line("dot", 1, 99.0),
            String::new(),
            line("sobel", 0, 5.0),
        ]
        .join("\n");
        let runs = parse_runs(&text).unwrap();
        assert_eq!(runs["dot"]["iter_ms_p50"], vec![10.0, 12.0]);
        assert_eq!(runs["sobel"]["iter_ms_p50"], vec![5.0]);
        assert!(parse_runs("{not json").is_err());

        let (text, worse) = table(&runs, &runs);
        assert_eq!(worse, 0);
        assert_eq!(text.lines().count(), 3, "header, dot, sobel:\n{text}");
    }
}
