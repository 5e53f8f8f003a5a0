//! The one repeatable benchmark for nonmask.
//!
//! ```text
//! benchmark [--seed S] [--seconds N]          # every workload once, table of all metrics
//! benchmark --runs 10 --out suite.json        # ten runs per workload, seeds S..S+9
//! benchmark --trace 1 [--journal DIR]         # add the traced pass and the per-layer table
//! benchmark --workload NAME --seed S --seconds N --trace 0|1
//!                                             # one workload in this process; last stdout
//!                                             # line is the result object
//! benchmark --compare BASE.json NEW.json      # classify two suite files against the
//!                                             # bounds in ./BENCHMARK.json
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- …`
//! (the command `BENCHMARK.json` names). `--journal DIR` writes each traced
//! journal to `DIR/<workload>.jsonl`, replayable with `nonmask-run trace`.
//!
//! # Workloads
//!
//! All four are closed loops driven from this one process: a trial starts
//! when the previous one returned. Checker threads, fleet workers and net
//! shards all equal [`THREADS`] (one; see there why). Each run times its
//! set-up several times, runs one untimed warm-up trial, then runs trials
//! until `--seconds` would be exceeded.
//!
//! - `verify-resident` — `Design::verify` on the diffusing computation
//!   over `Tree::binary(10)` (Theorem 1, 1,048,576 states) and on
//!   `windowed_design(7, 7)` (Theorem 3, 2,097,152 states): the resident
//!   CSR checker and `core`'s closure, theorem, convergence and bound
//!   passes. Fixed instances; the seed is ignored.
//! - `verify-frontier` — `check_convergence_frontier_stats` on the same
//!   diffusing computation, unfair daemon: the out-of-core path, which
//!   decodes successors on demand and runs no CSR or `core` code.
//! - `fleet-mixed` — `run_fleet` over 8,000,000 tenants of
//!   `FleetProtocol::mixed()` with three faults each: the step path, with
//!   the checker reduced to four tiny verdicts. Master seed split from
//!   `--seed`.
//! - `net-churn-10k` — `nonmask_net::run` on the 10⁴-node K-state token
//!   ring through two crash-restarts and two partition/heals: reactor,
//!   wire and detector, no checker. Restart states split from `--seed`.
//!
//! # End-to-end metrics (tracing off)
//!
//! Every workload reports all three. Times are calibrated to a nominal
//! host speed (see `calibrate.rs`: shared hosts drift 10–25% for minutes
//! at a time); the samples line keeps the raw times.
//!
//! - `latency_ms` — median latency of one operation: both verdicts
//!   (`verify-resident`), one frontier check, one `run_fleet` call, or one
//!   crash-restart episode from fault to detector verdict
//!   (`net-churn-10k`). The net figure is detector latency: it cannot fall
//!   below the detector's 120 ms `stable_for` window, so runtime work shows
//!   only as the excess over that floor (see `net.recover_excess_ms`);
//!   calibration scales only that excess.
//! - `setup_s` — median set-up time before the measured work, plus a 5 ms
//!   floor: building the designs; building the program and its
//!   `SpaceIndex`; building the fleet's `VerdictCache` with every verdict;
//!   for the net, `run()`'s wall time minus the report's (view
//!   construction, sockets, teardown).
//! - `peak_rss_mb` — `VmHWM` of the workload's process.
//!
//! Throughput at the fixed input sizes is the inverse of `latency_ms`
//! (`fleet-mixed`: 8·10⁶ tenants per operation). CPU time is not an
//! end-to-end metric: single-threaded it equals latency, and for the net
//! it tracks the wall time of busy-polling waits; the trace reports
//! `net.cpu_per_frame_us`. Failures are the result's `failed` out of
//! `attempted` (designs, frontier checks, tenants, net episodes).
//!
//! Every output is checked (theorem names, verdicts, exact state,
//! transition and move counts; frontier rounds and evaluations; zero fleet
//! violations and one digest per run, pinned at the default seed; every
//! net episode converged, no timeout, final invariant true). Wrong outputs
//! count as `failed` against `attempted` and make the exit code 2.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! One extra trial runs with an enabled in-memory journal. The benchmark
//! opens spans named `<workload>/<trial>/<layer>.<call>` around its calls
//! into each layer; the layers add their own events. The per-layer table
//! is computed only by parsing that journal back with
//! `nonmask_obs::parse_journal` (see `layers.rs`), and `trace.overhead_ms`
//! is the traced trial's raw latency minus the untraced raw median — one
//! trial, so on a shared host it is mostly noise.
//!
//! # Baseline
//!
//! `baseline/set-a.json` and `baseline/set-b.json` are two sets of ten
//! runs per workload (`--runs 10 --seed 1001` and `--seed 2001`) on the
//! 2-vCPU reference host; `--compare` finds every pair unchanged, with
//! quartile spreads of 3.5–7.5% for `latency_ms`. `baseline/traced.json`
//! is one traced pass (`--trace 1 --seed 3001`). Compare a change with
//! `benchmark --runs 10 --out new.json` and then
//! `benchmark --compare benchmark/baseline/set-a.json new.json`.

mod calibrate;
mod compare;
mod fleet;
mod json;
mod layers;
mod metrics;
mod net;
mod procfs;
mod stats;
mod suite;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use workload::{measure, RunConfig, RunOutcome, Scale};

/// The workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 4] = [
    "verify-resident",
    "verify-frontier",
    "fleet-mixed",
    "net-churn-10k",
];

/// `--seed` when none is given; the fleet digest is pinned at this seed.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Default measured seconds per run.
const DEFAULT_SECONDS: f64 = 20.0;

/// Checker threads, fleet workers and net shards. One, not
/// `available_parallelism()`: on the shared 2-vCPU reference host,
/// two-thread runs of the same workloads spread twice as wide between
/// runs (12–27% against 10–14%), and per-core figures are what the
/// repository claims.
pub const THREADS: usize = 1;

/// Measure workload `name` at `scale` in this process.
///
/// # Errors
///
/// Unknown workload names, and whatever [`measure`] reports.
pub fn run_workload(name: &str, scale: Scale, config: &RunConfig) -> Result<RunOutcome, String> {
    match name {
        "verify-resident" => measure(name, &verify::VerifyResident::new(scale), config),
        "verify-frontier" => measure(name, &verify::VerifyFrontier::new(scale), config),
        "fleet-mixed" => measure(name, &fleet::FleetMixed::new(scale), config),
        "net-churn-10k" => measure(name, &net::NetChurn::new(scale), config),
        _ => Err(format!(
            "unknown workload `{name}` (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The command line, parsed.
enum Command {
    One { workload: String, config: RunConfig },
    Suite(suite::SuiteConfig),
    Compare { base: PathBuf, new: PathBuf },
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => value.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("{flag} expects a whole number, got `{value}`"))
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut runs = 1;
    let mut out = None;
    let mut journal_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = parse_u64(flag, &value()?)?,
            "--seconds" => seconds = parse_u64(flag, &value()?)? as f64,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--runs" => runs = parse_u64(flag, &value()?)?.max(1),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--journal" => journal_dir = Some(PathBuf::from(value()?)),
            "--compare" => {
                let (base, new) = (value()?, value()?);
                return Ok(Command::Compare {
                    base: base.into(),
                    new: new.into(),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let config = RunConfig {
        seed,
        seconds,
        trace,
        journal_dir,
    };
    Ok(match workload {
        Some(workload) => Command::One { workload, config },
        None => Command::Suite(suite::SuiteConfig {
            run: config,
            runs,
            out,
        }),
    })
}

/// Run one workload and print its result object as the last stdout line.
fn run_one(name: &str, config: &RunConfig) -> ExitCode {
    let run = match run_workload(name, Scale::Full, config) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines = suite::result_lines(&run, config.trace);
    eprintln!(
        "{name}: {} trials, {} of {} operations failed, {THREADS} thread(s)",
        run.trials, run.failed, run.attempted,
    );
    for line in &lines.lines {
        println!("{line}");
    }
    if lines.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    match command {
        Command::One { workload, config } => run_one(&workload, &config),
        Command::Suite(config) => suite::run(&config),
        Command::Compare { base, new } => compare::run(&base, &new, Path::new("BENCHMARK.json")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::PER_LAYER;
    use nonmask_obs::parse_journal;

    /// The per-layer metrics each workload must drive above zero; every
    /// metric of a layer the workload does not enter must stay zero.
    fn entered(workload: &str) -> (&'static [&'static str], fn(&str) -> bool) {
        match workload {
            "verify-resident" => (
                &[
                    "checker.enumerate_s",
                    "checker.csr_build_s",
                    "checker.states",
                    "checker.transitions",
                    "checker.transitions_per_s",
                    "checker.bytes_per_state",
                    "checker.peel_ratio",
                    "core.verify_with_s",
                ],
                |m| {
                    m.starts_with("core.")
                        || (m.starts_with("checker.")
                            && !m.contains("frontier")
                            && !m.contains("evals")
                            && m != "checker.index_s")
                },
            ),
            "verify-frontier" => (
                &[
                    "checker.frontier_s",
                    "checker.frontier_rounds",
                    "checker.frontier_evals",
                    "checker.evals_per_s",
                ],
                |m| m.contains("frontier") || m.contains("evals") || m == "checker.index_s",
            ),
            "fleet-mixed" => (
                &[
                    "fleet.run_s",
                    "fleet.steps",
                    "fleet.ticks",
                    "fleet.faults",
                    "fleet.steps_per_s",
                    "fleet.step_per_tick",
                    "fleet.cache_hit_rate",
                    "fleet.bytes_per_instance",
                ],
                |m| m.starts_with("fleet."),
            ),
            _ => (
                &[
                    "net.setup_s",
                    "net.run_s",
                    "net.frames_sent",
                    "net.frames_received",
                    "net.actions_executed",
                    "net.detect_floor_ms",
                    "net.cpu_per_frame_us",
                ],
                |m| m.starts_with("net."),
            ),
        }
    }

    #[test]
    fn every_workload_runs_tiny_and_traced_with_per_layer_metrics_from_its_journal() {
        let dir = std::env::temp_dir().join(format!("nonmask-benchmark-{}", std::process::id()));
        for name in WORKLOADS {
            let config = RunConfig {
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace: true,
                journal_dir: Some(dir.clone()),
            };
            let run = run_workload(name, Scale::Tiny, &config).unwrap();
            assert_eq!((run.failed, run.trials), (0, 1), "{name}");
            assert!(
                run.attempted >= 3,
                "{name}: warm-up, measured and traced trials"
            );
            assert!(
                !run.latency_ms.is_empty() && run.peak_rss_mb > 0.0,
                "{name}"
            );

            // The journal round-trips line for line through the parser.
            let text = std::fs::read_to_string(dir.join(format!("{name}.jsonl"))).unwrap();
            let records = parse_journal(&text).unwrap();
            let rendered: Vec<String> = records
                .iter()
                .map(|r| r.event.to_json_line(r.t_us))
                .collect();
            assert_eq!(rendered, text.lines().collect::<Vec<_>>(), "{name}");

            // Every per-layer metric is derived from that journal.
            let derived = layers::derive(&records).unwrap();
            assert_eq!(Some(&derived), run.per_layer.as_ref(), "{name}");
            let (must, own) = entered(name);
            for m in PER_LAYER.map(|m| m.name) {
                let v = derived[m];
                if must.contains(&m) || m == "trace.latency_ms" {
                    assert!(v > 0.0, "{name}: {m} = {v}");
                } else if !own(m) && !m.starts_with("trace.") {
                    assert_eq!(v, 0.0, "{name}: {m} belongs to a layer it never enters");
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn result_lines_carry_every_metric_of_the_mode() {
        let run = RunOutcome {
            trials: 2,
            attempted: 4,
            latency_ms: vec![3.0, 1.0, 2.0],
            setup_s: vec![0.01],
            // The host ran the kernel at half the nominal speed.
            calibration_ms: vec![2.0 * calibrate::NOMINAL_MS],
            wait_ms: 1.5,
            peak_rss_mb: 12.5,
            ..RunOutcome::default()
        };
        let lines = suite::result_lines(&run, false);
        assert!(lines.correct);
        let result = json::parse(lines.lines.last().unwrap()).unwrap();
        let keys: Vec<&str> = result
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = result.get("metrics").unwrap();
        let value = |m: &str| {
            metrics
                .get(m)
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
        };
        // Samples 1, 2, 3 ms with 1.5 ms of waiting become 1, 1.75, 2.25.
        assert_eq!(value("latency_ms"), Some(1.75));
        assert_eq!(value("setup_s"), Some(workload::SETUP_FLOOR_S + 0.005));
        assert_eq!(value("peak_rss_mb"), Some(12.5));
        assert_eq!(metrics.as_obj().unwrap().len(), metrics::END_TO_END.len());
        // A traced result without a journal is not a correct result.
        assert!(!suite::result_lines(&run, true).correct);
    }

    #[test]
    fn arguments_parse_into_commands() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let one = parse_args(&args(
            "--workload fleet-mixed --seed 0x10 --seconds 3 --trace 1",
        ));
        let Ok(Command::One { workload, config }) = one else {
            panic!("expected one workload")
        };
        assert_eq!((workload.as_str(), config.seed), ("fleet-mixed", 16));
        assert_eq!((config.seconds, config.trace), (3.0, true));
        assert!(matches!(parse_args(&args("")), Ok(Command::Suite(_))));
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--compare a.json")).is_err());
        assert!(matches!(
            parse_args(&args("--compare a.json b.json")),
            Ok(Command::Compare { .. })
        ));
        assert!(parse_args(&args("--seed")).is_err());
    }
}
