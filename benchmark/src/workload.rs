//! The workload interface and the runner that measures one workload in
//! this process: repeated set-up, one untimed warm-up trial, closed-loop
//! trials for the requested seconds, then (traced runs only) one trial
//! with an enabled journal from which the per-layer metrics are derived.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use nonmask_obs::{parse_journal, Event, Journal, Span};

use crate::{calibrate, layers, procfs, stats};

/// Counter scope of the figures the benchmark itself journals.
pub const BENCH_SCOPE: &str = "benchmark";

/// Set-ups timed per run when the workload's set-up happens outside its
/// trials; the run reports their median.
const SETUP_REPS: usize = 15;

/// Trial index of the untimed warm-up trial.
const WARMUP: u64 = u64::MAX;

/// Input sizes: the benchmark's own, or a tiny one for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-sized instances of the same workloads.
    Tiny,
}

/// What one trial passes to the layers it calls.
pub struct Cx {
    /// Disabled for measured trials, enabled for the traced one.
    pub journal: Journal,
    /// `<workload>/<trial>`: the prefix of every span name in the trial.
    pub path: String,
    /// Trial index within the run ([`u64::MAX`] for the warm-up).
    pub index: u64,
    /// The run's `--seed`.
    pub seed: u64,
}

impl Cx {
    /// Open the span `<workload>/<trial>/<call>`.
    pub fn span(&self, call: &str) -> Span<'_> {
        self.journal.span(format!("{}/{call}", self.path))
    }

    /// Journal a figure the benchmark measured (scope [`BENCH_SCOPE`]).
    pub fn counter(&self, name: &str, value: u64) {
        self.journal.emit_with(|| Event::Counter {
            scope: BENCH_SCOPE.to_string(),
            name: name.to_string(),
            value,
        });
    }

    /// Whether this is the traced trial.
    pub fn traced(&self) -> bool {
        self.journal.is_enabled()
    }
}

/// The checked result of one trial.
#[derive(Debug, Default)]
pub struct TrialOutcome {
    /// One latency sample per operation the trial timed, in ms.
    pub latency_ms: Vec<f64>,
    /// Set-up time spent inside the trial, for workloads whose set-up
    /// cannot be separated from the measured call.
    pub setup_s: Option<f64>,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs were wrong.
    pub failed: u64,
}

/// One benchmark workload.
pub trait Workload {
    /// What set-up builds and every trial uses.
    type Input;

    /// Build the input (timed as set-up).
    ///
    /// # Errors
    ///
    /// A message when the input cannot be built; the run stops.
    fn prepare(&self, cx: &Cx) -> Result<Self::Input, String>;

    /// Run and check one trial.
    ///
    /// # Errors
    ///
    /// A message when a call fails outright; the trial counts as one
    /// failed operation.
    fn trial(&self, input: &Self::Input, cx: &Cx) -> Result<TrialOutcome, String>;

    /// Wall-clock waiting built into every latency sample (a detector
    /// window, not computation), in ms: calibration leaves it unscaled.
    const WAIT_MS: f64 = 0.0;
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `--seed`.
    pub seed: u64,
    /// Seconds of measured trials.
    pub seconds: f64,
    /// Add the traced trial and derive per-layer metrics.
    pub trace: bool,
    /// Write the traced journal to `<dir>/<workload>.jsonl`.
    pub journal_dir: Option<PathBuf>,
}

/// A floor added to every set-up time, so jitter in microsecond-scale
/// set-ups cannot read as a regression while a millisecond of work moved
/// into set-up still shows against a 25% bound.
pub const SETUP_FLOOR_S: f64 = 0.005;

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Measured trials (warm-up and traced trial excluded).
    pub trials: usize,
    /// Operations checked, warm-up and traced trial included.
    pub attempted: u64,
    /// Operations with wrong outputs.
    pub failed: u64,
    /// Latency samples of the measured trials, as measured.
    pub latency_ms: Vec<f64>,
    /// Set-up samples, as measured.
    pub setup_s: Vec<f64>,
    /// Calibration kernel times: before the set-ups, then before each
    /// measured trial.
    pub calibration_ms: Vec<f64>,
    /// The workload's [`Workload::WAIT_MS`].
    pub wait_ms: f64,
    /// Peak resident memory of the process at the end of the run.
    pub peak_rss_mb: f64,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
}

impl RunOutcome {
    fn tally(&mut self, name: &str, result: Result<TrialOutcome, String>) -> Option<TrialOutcome> {
        match result {
            Ok(out) => {
                self.attempted += out.attempted;
                self.failed += out.failed;
                Some(out)
            }
            Err(e) => {
                eprintln!("{name}: trial failed: {e}");
                self.attempted += 1;
                self.failed += 1;
                None
            }
        }
    }

    /// `NOMINAL_MS / median kernel time`: the factor that scales this
    /// run's times to the nominal host (see [`calibrate`]).
    fn factor(&self) -> f64 {
        stats::median_of(&self.calibration_ms).map_or(1.0, |ms| calibrate::NOMINAL_MS / ms)
    }

    /// Latency samples on the nominal host: the workload's built-in
    /// waiting as measured, the rest scaled.
    pub fn calibrated_latency_ms(&self) -> Vec<f64> {
        let k = self.factor();
        let wait = self.wait_ms;
        self.latency_ms
            .iter()
            .map(|&ms| ms.min(wait) + (ms - wait).max(0.0) * k)
            .collect()
    }

    /// Set-up samples on the nominal host, plus [`SETUP_FLOOR_S`].
    pub fn calibrated_setup_s(&self) -> Vec<f64> {
        let k = self.factor();
        self.setup_s.iter().map(|s| SETUP_FLOOR_S + s * k).collect()
    }
}

fn cx(name: &str, journal: &Journal, index: u64, seed: u64) -> Cx {
    Cx {
        journal: journal.clone(),
        path: format!("{name}/{index}"),
        index,
        seed,
    }
}

/// Measure `workload` in this process.
///
/// # Errors
///
/// A message when set-up fails, `/proc` cannot be read, or the traced
/// journal does not parse.
pub fn measure<W: Workload>(
    name: &str,
    workload: &W,
    config: &RunConfig,
) -> Result<RunOutcome, String> {
    let off = Journal::disabled();
    let seed = config.seed;
    let mut run = RunOutcome {
        wait_ms: W::WAIT_MS,
        ..RunOutcome::default()
    };

    run.calibration_ms.push(calibrate::sample());
    let mut prepared = None;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        prepared = Some(workload.prepare(&cx(name, &off, 0, seed))?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let input = prepared.expect("SETUP_REPS is positive");

    let warmup = workload.trial(&input, &cx(name, &off, WARMUP, seed));
    run.tally(name, warmup);

    let began = Instant::now();
    let mut last = 0.0;
    while run.trials == 0 || began.elapsed().as_secs_f64() + last <= config.seconds {
        run.calibration_ms.push(calibrate::sample());
        let started = Instant::now();
        let result = workload.trial(&input, &cx(name, &off, run.trials as u64, seed));
        last = started.elapsed().as_secs_f64();
        run.trials += 1;
        if let Some(out) = run.tally(name, result) {
            run.latency_ms.extend(out.latency_ms);
            run.setup_s.extend(out.setup_s);
        }
    }
    if run.setup_s.is_empty() {
        run.setup_s = setups;
    }

    if config.trace {
        drop(input);
        let records = traced_trial(name, workload, config, &mut run)?;
        run.per_layer = Some(layers::derive(&records)?);
    }
    run.peak_rss_mb = procfs::peak_rss_mb().map_err(|e| e.to_string())?;
    Ok(run)
}

/// Run one journaled trial (set-up included) and parse its journal back.
fn traced_trial<W: Workload>(
    name: &str,
    workload: &W,
    config: &RunConfig,
    run: &mut RunOutcome,
) -> Result<Vec<nonmask_obs::Record>, String> {
    let (journal, buffer) = Journal::memory();
    let tcx = cx(name, &journal, run.trials as u64, config.seed);
    {
        let _trial = journal.span(tcx.path.clone());
        let untraced = stats::median_of(&run.latency_ms).unwrap_or(0.0);
        tcx.counter("untraced_latency_us", (untraced * 1e3) as u64);
        let input = workload.prepare(&tcx)?;
        let cpu_before = procfs::cpu_seconds().map_err(|e| e.to_string())?;
        let result = workload.trial(&input, &tcx);
        let cpu = procfs::cpu_seconds().map_err(|e| e.to_string())? - cpu_before;
        tcx.counter("cpu_us", (cpu * 1e6) as u64);
        if let Some(out) = run.tally(name, result) {
            for ms in out.latency_ms {
                tcx.counter("latency_us", (ms * 1e3) as u64);
            }
        }
    }
    journal.flush();
    let text = buffer.contents();
    if let Some(dir) = &config.journal_dir {
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, &text))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    parse_journal(&text).map_err(|e| e.to_string())
}
