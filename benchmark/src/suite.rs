//! The whole suite: every workload in its own child process (so peak
//! memory is per workload), repeated `--runs` times with seeds
//! `seed, seed + 1, …`, then the optional traced pass; prints one table
//! and optionally writes every run to `--out`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, write_num, write_str, Value};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median_of, Summary};
use crate::workload::{RunConfig, RunOutcome};

/// How to run the suite.
pub struct SuiteConfig {
    /// Seconds, trace flag, journal directory and first seed.
    pub run: RunConfig,
    /// Runs per workload.
    pub runs: u64,
    /// Where to write every run as JSON.
    pub out: Option<std::path::PathBuf>,
}

/// A child's stdout lines and whether its outputs were all correct.
pub struct ResultLines {
    /// The samples object, then the result object (always last).
    pub lines: Vec<String>,
    /// No operation failed and every metric was measured.
    pub correct: bool,
}

fn write_map<'a>(out: &mut String, entries: impl IntoIterator<Item = (&'a str, String)>) {
    out.push('{');
    for (i, (key, value)) in entries.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, key);
        out.push_str(": ");
        out.push_str(&value);
    }
    out.push('}');
}

fn num(x: f64) -> String {
    let mut s = String::new();
    write_num(&mut s, x);
    s
}

fn nums(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", items.join(", "))
}

/// Render a run as the samples line and the result line.
pub fn result_lines(run: &RunOutcome, trace: bool) -> ResultLines {
    let (latency, setup) = (run.calibrated_latency_ms(), run.calibrated_setup_s());
    let medians = [
        median_of(&latency),
        median_of(&setup),
        Some(run.peak_rss_mb),
    ];
    let mut correct = run.failed == 0 && medians.iter().all(Option::is_some);
    let values: Vec<(Metric, f64)> = match &run.per_layer {
        Some(per_layer) if trace => PER_LAYER.iter().map(|m| (*m, per_layer[m.name])).collect(),
        _ => {
            correct &= !trace;
            END_TO_END
                .iter()
                .zip(medians)
                .map(|(m, v)| (*m, v.unwrap_or(0.0)))
                .collect()
        }
    };

    let mut samples = String::from("{\"samples\": ");
    write_map(
        &mut samples,
        [
            ("latency_ms", nums(&latency)),
            ("setup_s", nums(&setup)),
            ("peak_rss_mb", nums(&[run.peak_rss_mb])),
            ("raw_latency_ms", nums(&run.latency_ms)),
            ("raw_setup_s", nums(&run.setup_s)),
            ("calibration_ms", nums(&run.calibration_ms)),
        ],
    );
    let _ = write!(
        samples,
        ", \"trials\": {}, \"threads\": {}}}",
        run.trials,
        crate::THREADS
    );

    let mut result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        run.attempted.max(1),
        run.failed
    );
    write_map(
        &mut result,
        values.iter().map(|(m, v)| {
            let mut entry = format!("{{\"value\": {}, \"unit\": ", num(*v));
            write_str(&mut entry, m.unit);
            entry.push('}');
            (m.name, entry)
        }),
    );
    result.push('}');
    ResultLines {
        lines: vec![samples, result],
        correct,
    }
}

/// One child run, as read back from its stdout.
struct ChildRun {
    seed: u64,
    correct: bool,
    attempted: f64,
    failed: f64,
    trials: f64,
    threads: f64,
    metrics: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

fn run_child(name: &str, seed: u64, config: &RunConfig, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let (true, Some(dir)) = (trace, &config.journal_dir) {
        command.arg("--journal").arg(dir);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().filter(|l| l.starts_with('{'));
    let (Some(samples), Some(result)) = (lines.next(), lines.next_back()) else {
        return Err(format!(
            "{name}: the child printed no result ({})",
            output.status
        ));
    };
    let samples = json::parse(samples)?;
    let result = json::parse(result)?;
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| (k.clone(), field(v, "value")))
        .collect();
    let samples_of = samples
        .get("samples")
        .and_then(Value::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(k, v)| {
            let xs = v
                .as_arr()
                .unwrap_or_default()
                .iter()
                .filter_map(Value::as_f64);
            (k.clone(), xs.collect())
        })
        .collect();
    Ok(ChildRun {
        seed,
        correct: result.get("correct") == Some(&Value::Bool(true)),
        attempted: field(&result, "attempted"),
        failed: field(&result, "failed"),
        trials: field(&samples, "trials"),
        threads: field(&samples, "threads"),
        metrics,
        samples: samples_of,
    })
}

/// A workload's runs and traced pass.
struct WorkloadRuns {
    name: String,
    runs: Vec<ChildRun>,
    traced: Option<ChildRun>,
}

impl WorkloadRuns {
    /// The values a metric's distribution is summarized over: one per run,
    /// or a single run's own samples.
    fn values(&self, metric: &str) -> Vec<f64> {
        match self.runs.as_slice() {
            [one] => one.samples.get(metric).cloned().unwrap_or_default(),
            runs => runs
                .iter()
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect(),
        }
    }
}

fn command_output(program: &str, args: &[&str]) -> Result<String, String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("{program}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{program} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `"key": value-or-null, "key_unavailable": reason` for a fallible fact.
fn fact(out: &mut String, key: &str, value: Result<String, String>) {
    write_str(out, key);
    out.push_str(": ");
    match value {
        Ok(v) => write_str(out, &v),
        Err(reason) => {
            out.push_str("null, ");
            write_str(out, &format!("{key}_unavailable"));
            out.push_str(": ");
            write_str(out, &reason);
        }
    }
}

fn machine_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!("{{\"nproc\": {nproc}, ");
    fact(&mut out, "rustc", command_output("rustc", &["--version"]));
    out.push_str(", ");
    let commit = if Path::new(".git").exists() {
        command_output("git", &["rev-parse", "HEAD"])
    } else {
        Err("not run from a git checkout".to_string())
    };
    fact(&mut out, "commit", commit);
    out.push('}');
    out
}

fn print_table(all: &[WorkloadRuns], machine: &str) {
    println!("machine: {machine}");
    println!(
        "{:<16} {:<12} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>4} {:>7}  tail",
        "workload", "metric", "unit", "median", "q1", "q3", "min", "max", "n", "spread"
    );
    for w in all {
        for m in END_TO_END {
            let Some(s) = Summary::of(&w.values(m.name)) else {
                println!("{:<16} {:<12} {:>5} {:>12}", w.name, m.name, m.unit, "—");
                continue;
            };
            let tail = s
                .tail
                .map_or(String::new(), |(p, v)| format!("p{p} = {v:.4}"));
            println!(
                "{:<16} {:<12} {:>5} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>4} {:>6.2}%  {tail}",
                w.name,
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.n,
                s.spread() * 100.0
            );
        }
        let attempted: f64 = w.runs.iter().map(|r| r.attempted).sum();
        let failed: f64 = w.runs.iter().map(|r| r.failed).sum();
        let trials: f64 = w.runs.iter().map(|r| r.trials).sum();
        let p = w.runs.first().map_or(0.0, |r| r.threads);
        println!(
            "{:<16} failed {failed} of {attempted} operations over {} runs ({trials} trials); \
             threads = shards = {p}",
            w.name,
            w.runs.len()
        );
    }
    for w in all {
        let Some(traced) = &w.traced else { continue };
        println!("\nper-layer, {} (traced trial):", w.name);
        for m in PER_LAYER {
            let v = traced.metrics.get(m.name).copied().unwrap_or(0.0);
            if v != 0.0 || m.name.starts_with("trace.") {
                println!("  {:<28} {:>18.6} {}", m.name, v, m.unit);
            }
        }
    }
}

fn to_json(config: &SuiteConfig, machine: &str, all: &[WorkloadRuns]) -> String {
    let run_json = |r: &ChildRun| {
        let mut out = format!(
            "{{\"seed\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"trials\": {}, \
             \"threads\": {p}, \"shards\": {p}, \"metrics\": ",
            r.seed,
            r.correct,
            num(r.attempted),
            num(r.failed),
            num(r.trials),
            p = num(r.threads)
        );
        write_map(
            &mut out,
            r.metrics.iter().map(|(k, v)| (k.as_str(), num(*v))),
        );
        out.push_str(", \"samples\": ");
        write_map(
            &mut out,
            r.samples.iter().map(|(k, v)| (k.as_str(), nums(v))),
        );
        out.push('}');
        out
    };
    let mut out = format!(
        "{{\"schema\": \"nonmask-benchmark-suite-v1\", \"machine\": {machine}, \
         \"seconds\": {}, \"first_seed\": {}, \"workloads\": [",
        num(config.run.seconds),
        config.run.seed
    );
    for (i, w) in all.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("\n  {\"name\": ");
        write_str(&mut out, &w.name);
        out.push_str(", \"runs\": [");
        let runs: Vec<String> = w.runs.iter().map(run_json).collect();
        out.push_str(&runs.join(",\n    "));
        out.push_str("], \"traced\": ");
        out.push_str(&w.traced.as_ref().map_or("null".to_string(), run_json));
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// Every run of every workload (interleaved, so slow host phases spread
/// over all workloads), then the traced pass.
fn run_all(config: &SuiteConfig) -> Result<Vec<WorkloadRuns>, String> {
    let mut all: Vec<WorkloadRuns> = crate::WORKLOADS
        .iter()
        .map(|name| WorkloadRuns {
            name: name.to_string(),
            runs: Vec::new(),
            traced: None,
        })
        .collect();
    for r in 0..config.runs {
        for w in &mut all {
            let seed = config.run.seed.wrapping_add(r);
            w.runs.push(run_child(&w.name, seed, &config.run, false)?);
        }
    }
    if config.run.trace {
        for w in &mut all {
            w.traced = Some(run_child(&w.name, config.run.seed, &config.run, true)?);
        }
    }
    Ok(all)
}

/// Run the suite; exit 2 when any output was wrong.
pub fn run(config: &SuiteConfig) -> ExitCode {
    let machine = machine_record();
    let all = match run_all(config) {
        Ok(all) => all,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(&all, &machine);
    if let Some(path) = &config.out {
        if let Err(e) = std::fs::write(path, to_json(config, &machine, &all)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    let mut children = all.iter().flat_map(|w| w.runs.iter().chain(&w.traced));
    if children.all(|c| c.correct) {
        ExitCode::SUCCESS
    } else {
        eprintln!("some outputs were wrong");
        ExitCode::from(2)
    }
}
