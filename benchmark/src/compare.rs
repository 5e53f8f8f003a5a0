//! `--compare BASE.json NEW.json`: classify every (end-to-end metric,
//! workload) pair of two suite files against the metric's bound from
//! `BENCHMARK.json`.
//!
//! A pair is *unresolved* when either side's quartile spread is wider
//! than the bound, unless every new value beats every base value. It is
//! *regressed* when the new median is worse than the base median by more
//! than the bound, and *improved* when the new median is better by more
//! than the base's own quartile spread and the new side wins at least nine
//! tenths of the index-paired runs. Anything else is *unchanged*.

use std::path::Path;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END};
use crate::stats::Summary;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// Too noisy to tell at this bound.
    Unresolved,
}

/// Classify `new` against `base` for a metric with `bound` and `better`.
/// `None` when either side has no values.
pub fn classify(base: &[f64], new: &[f64], bound: f64, better: Better) -> Option<Verdict> {
    let (b, n) = (Summary::of(base)?, Summary::of(new)?);
    // Positive `worse` means the new median moved the wrong way.
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let worse = sign * (n.median - b.median) / b.median.abs().max(f64::MIN_POSITIVE);
    if b.spread() > bound || n.spread() > bound {
        let all_better = new.iter().all(|&x| base.iter().all(|&y| beats(x, y)));
        return Some(if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        });
    }
    if worse > bound {
        return Some(Verdict::Regressed);
    }
    let pairs = base.len().min(new.len());
    let wins = base.iter().zip(new).filter(|&(&y, &x)| beats(x, y)).count();
    if -worse > b.spread() && wins * 10 >= pairs * 9 {
        Some(Verdict::Improved)
    } else {
        Some(Verdict::Unchanged)
    }
}

/// Per-run values of every end-to-end metric of every workload in a suite
/// file: one value per run, or a single run's own samples.
fn suite_values(doc: &Value) -> Vec<(String, String, Vec<f64>)> {
    let mut out = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let name = w.get("name").and_then(Value::as_str).unwrap_or_default();
        let runs = w.get("runs").and_then(Value::as_arr).unwrap_or_default();
        for m in END_TO_END {
            let values: Vec<f64> = match runs {
                [one] => one
                    .get("samples")
                    .and_then(|s| s.get(m.name))
                    .and_then(Value::as_arr)
                    .unwrap_or_default()
                    .iter()
                    .filter_map(Value::as_f64)
                    .collect(),
                runs => runs
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(m.name)?.as_f64())
                    .collect(),
            };
            out.push((name.to_string(), m.name.to_string(), values));
        }
    }
    out
}

/// The `bound` of every end-to-end metric listed in `BENCHMARK.json`.
fn bounds(doc: &Value) -> Vec<(String, f64, Better)> {
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let word = m.get("better")?.as_str()?;
            let better = [Better::Lower, Better::Higher]
                .into_iter()
                .find(|b| b.as_str() == word)?;
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
                better,
            ))
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Print the comparison; exit 2 when anything regressed.
pub fn run(base: &Path, new: &Path, bounds_path: &Path) -> ExitCode {
    let docs = (load(base), load(new), load(bounds_path));
    let (base, new, spec) = match docs {
        (Ok(b), Ok(n), Ok(s)) => (b, n, s),
        (b, n, s) => {
            for e in [b.err(), n.err(), s.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let bounds = bounds(&spec);
    let new_values = suite_values(&new);
    println!(
        "{:<16} {:<12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "spread", "new", "spread", "change", "bound"
    );
    let mut regressed = false;
    for (workload, metric, b) in suite_values(&base) {
        let Some((_, bound, better)) = bounds.iter().find(|(name, ..)| *name == metric) else {
            continue;
        };
        let Some((.., n)) = new_values
            .iter()
            .find(|(w, m, _)| *w == workload && *m == metric)
        else {
            continue;
        };
        let (Some(sb), Some(sn), Some(verdict)) = (
            Summary::of(&b),
            Summary::of(n),
            classify(&b, n, *bound, *better),
        ) else {
            continue;
        };
        regressed |= verdict == Verdict::Regressed;
        println!(
            "{workload:<16} {metric:<12} {:>12.4} {:>7.2}% {:>12.4} {:>7.2}% {:>+7.2}% {:>5.0}%  {verdict:?}",
            sb.median,
            sb.spread() * 100.0,
            sn.median,
            sn.spread() * 100.0,
            (sn.median / sb.median - 1.0) * 100.0,
            bound * 100.0
        );
    }
    if regressed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn a_shift_beyond_the_bound_is_a_regression() {
        let base = around(100.0, 0.5);
        let new = around(115.0, 0.5);
        assert_eq!(
            classify(&base, &new, 0.10, Better::Lower),
            Some(Verdict::Regressed)
        );
        // The same shift is an improvement where higher is better.
        assert_eq!(
            classify(&base, &new, 0.10, Better::Higher),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn a_shift_inside_the_bound_and_the_noise_is_unchanged() {
        let base = around(100.0, 2.0);
        let new = around(103.0, 2.0);
        assert_eq!(
            classify(&base, &new, 0.10, Better::Lower),
            Some(Verdict::Unchanged)
        );
        assert_eq!(
            classify(&base, &base, 0.10, Better::Lower),
            Some(Verdict::Unchanged)
        );
    }

    #[test]
    fn a_consistent_gain_beyond_the_base_spread_is_an_improvement() {
        let base = around(100.0, 0.5);
        let new = around(96.0, 0.5);
        assert_eq!(
            classify(&base, &new, 0.10, Better::Lower),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn spreads_wider_than_the_bound_are_unresolved() {
        let base = around(100.0, 20.0);
        let new = around(130.0, 20.0);
        assert_eq!(
            classify(&base, &new, 0.10, Better::Lower),
            Some(Verdict::Unresolved)
        );
        // ...unless every new value beats every base value.
        let far = around(10.0, 2.0);
        assert_eq!(
            classify(&base, &far, 0.10, Better::Lower),
            Some(Verdict::Improved)
        );
    }

    #[test]
    fn empty_sides_have_no_verdict() {
        assert_eq!(classify(&[], &[1.0], 0.1, Better::Lower), None);
    }

    #[test]
    fn suite_files_and_bounds_parse() {
        let suite = json::parse(
            r#"{"workloads": [{"name": "w", "runs": [
                {"metrics": {"latency_ms": 2.0}}, {"metrics": {"latency_ms": 4.0}}]}]}"#,
        )
        .unwrap();
        let values = suite_values(&suite);
        assert!(values.contains(&("w".into(), "latency_ms".into(), vec![2.0, 4.0])));
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(
            bounds(&spec),
            vec![("latency_ms".into(), 0.1, Better::Lower)]
        );
    }
}
