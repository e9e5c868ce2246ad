//! `compare A B`: two result files, or two directories of result files,
//! judged by the benchmark's own bounds.

use crate::json::Json;
use crate::metrics::{median, END_TO_END};
use std::collections::BTreeMap;
use std::path::Path;

/// Values per (workload, metric) over the untraced result files of one
/// side.
type Side = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &Path) -> Result<Side, String> {
    let files: Vec<_> = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_owned()]
    };
    let mut side = Side::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let result = Json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if result.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: not a result file", file.display()))?;
        for (name, metric) in result.get("metrics").map_or(&[][..], Json::members) {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                side.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    if side.is_empty() {
        return Err(format!("{}: no untraced result files", path.display()));
    }
    Ok(side)
}

/// Run-to-run spread as a share of the median: the distance between the
/// first and third quartile (Python's `statistics.quantiles(n=4)`) from
/// four runs up, the range below that, nothing for a single run.
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let width = if n < 2 {
        0.0
    } else if n < 4 {
        sorted[n - 1] - sorted[0]
    } else {
        let quantile = |k: usize| {
            let position = (k * (n + 1)) as f64 / 4.0;
            let below = (position.floor() as usize).clamp(1, n - 1);
            let fraction = position - below as f64;
            sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
        };
        quantile(3) - quantile(1)
    };
    (width / median(values)).abs()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
}

/// Judges side B against side A for one metric. `Outside`: B's median
/// is worse than A's by more than the bound. `Unresolved`: the spread of
/// either side is wider than the bound and the runs overlap, so neither
/// "unchanged" nor "worse" can be claimed.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = |from: f64, to: f64| {
        let change = (to - from) / from.abs();
        if lower_is_better {
            change
        } else {
            -change
        }
    };
    let every_pair = |pred: &dyn Fn(f64) -> bool| {
        a.iter()
            .all(|&from| b.iter().all(|&to| pred(worse_by(from, to))))
    };
    if every_pair(&|w| w < 0.0) {
        return Verdict::Within;
    }
    let resolved = spread(a).max(spread(b)) <= bound || every_pair(&|w| w > 0.0);
    match (worse_by(median(a), median(b)) > bound, resolved) {
        (true, true) => Verdict::Outside,
        (_, false) => Verdict::Unresolved,
        (false, true) => Verdict::Within,
    }
}

/// Prints one row per workload and end-to-end metric; returns whether
/// every row is free of `outside`.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (side_a, side_b) = (load(a)?, load(b)?);
    println!(
        "{:<18} {:<20} {:<7} {:>14} {:>3} {:>14} {:>3} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "unit", "A (base)", "n", "B", "n", "B/A", "spread", "bound"
    );
    let mut clean = true;
    let workloads: Vec<&String> = {
        let mut names: Vec<&String> = side_a.keys().map(|(w, _)| w).collect();
        names.dedup();
        names
    };
    for workload in workloads {
        for metric in END_TO_END {
            let key = (workload.clone(), metric.name.to_owned());
            let (Some(va), Some(vb)) = (side_a.get(&key), side_b.get(&key)) else {
                return Err(format!("{workload} {}: missing on one side", metric.name));
            };
            let verdict = judge(va, vb, metric.lower_is_better, metric.bound);
            clean &= verdict != Verdict::Outside;
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{:<18} {:<20} {:<7} {:>14.4} {:>3} {:>14.4} {:>3} {:>9.4} {:>8.4} {:>6.2}  {}{}",
                workload,
                metric.name,
                metric.unit,
                ma,
                va.len(),
                mb,
                vb.len(),
                mb / ma,
                spread(va).max(spread(vb)),
                metric.bound,
                match verdict {
                    Verdict::Within => "within",
                    Verdict::Outside => "outside",
                    Verdict::Unresolved => "unresolved",
                },
                if ma == mb { " (identical)" } else { "" },
            );
        }
    }
    println!("B/A is B's median over A's median; A is the base.");
    Ok(clean)
}
