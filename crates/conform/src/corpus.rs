//! The fixed-seed conformance corpus.
//!
//! [`run_corpus`] sweeps every protocol spec through both execution
//! layers: a large batch of simulator runs under seeded fault schedules
//! (two thirds with reliable coherence messages — envelope asserted —
//! and one third lossy/delayed for step-validation coverage), plus a
//! small batch of socket-runtime runs (reliable, hostile-link, crash,
//! and partition variants). Every run is judged by [`crate::check`] and
//! journaled as a [`Event::Verdict`]; the report carries enough to
//! reproduce any divergent run: its layer, seed, and fault schedule.

use std::time::Duration;

use nonmask_net::{FaultConfig, NetEvent};
use nonmask_obs::{Event, Journal};

use crate::check::{check_run, ProtocolOracle, RunReport};
use crate::runner::{run_net, run_sim, NetRunConfig, SimRunConfig};
use crate::schedule::FaultSchedule;
use crate::spec::ProtocolSpec;

/// How much corpus to run.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Master seed; run `i` derives its seed via
    /// [`rand::split_seed`] on a per-layer stream index, so runs never
    /// share seed material across runs or layers.
    pub base_seed: u64,
    /// Simulator runs per protocol.
    pub sim_runs: usize,
    /// Socket-runtime runs per protocol (cycled through the four
    /// variants: reliable, hostile links, crash event, partition event).
    pub net_runs: usize,
    /// Skip the socket-runtime layer entirely (unit-test speed).
    pub sim_only: bool,
}

impl CorpusConfig {
    /// The CI smoke corpus: ≥100 runs per protocol, time-boxed.
    pub fn smoke(base_seed: u64) -> Self {
        CorpusConfig {
            base_seed,
            sim_runs: 96,
            net_runs: 6,
            sim_only: false,
        }
    }

    /// The full corpus: double the simulator sweep.
    pub fn full(base_seed: u64) -> Self {
        CorpusConfig {
            base_seed,
            sim_runs: 194,
            net_runs: 6,
            sim_only: false,
        }
    }
}

/// The complete fault input of one corpus run — everything needed to
/// re-execute it bit-identically (sim) or replay its fault schedule
/// deterministically (net).
#[derive(Debug, Clone)]
pub enum RunInput {
    /// A simulator run: its schedule and knobs.
    Sim {
        /// The seeded fault schedule.
        schedule: FaultSchedule,
        /// The simulator knobs.
        cfg: SimRunConfig,
    },
    /// A socket-runtime run: its fault/event configuration.
    Net {
        /// The runtime knobs.
        cfg: NetRunConfig,
    },
}

/// One corpus run and its verdict.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// `sim` or `net`.
    pub layer: &'static str,
    /// The run's seed.
    pub seed: u64,
    /// Human-readable fault variant (`reliable`, `hostile`, `crash`,
    /// `partition` for net; `clean`/`lossy` for sim).
    pub variant: &'static str,
    /// The run's complete fault input.
    pub input: RunInput,
    /// The conformance verdict.
    pub report: RunReport,
}

/// Every run of one protocol.
#[derive(Debug)]
pub struct ProtocolResult {
    /// The protocol's corpus name.
    pub name: String,
    /// The checker's worst-case convergence bound.
    pub bound: Option<u64>,
    /// Size of the enumerated state space.
    pub states: usize,
    /// All runs, in execution order.
    pub runs: Vec<RunRecord>,
}

impl ProtocolResult {
    /// Runs that diverged.
    pub fn divergent(&self) -> impl Iterator<Item = &RunRecord> {
        self.runs.iter().filter(|r| !r.report.conforms())
    }
}

/// The whole corpus sweep.
#[derive(Debug)]
pub struct CorpusReport {
    /// Per-protocol results.
    pub protocols: Vec<ProtocolResult>,
}

impl CorpusReport {
    /// Total divergent runs across every protocol and layer.
    pub fn divergent_runs(&self) -> usize {
        self.protocols.iter().map(|p| p.divergent().count()).sum()
    }

    /// Total runs.
    pub fn total_runs(&self) -> usize {
        self.protocols.iter().map(|p| p.runs.len()).sum()
    }

    /// Total steps validated against the transition relation.
    pub fn steps_checked(&self) -> u64 {
        self.protocols
            .iter()
            .flat_map(|p| &p.runs)
            .map(|r| r.report.steps_checked)
            .sum()
    }

    /// Render a human-readable summary: each protocol's header, then its
    /// sim runs' totals and its net runs' totals on separate lines, then
    /// one total line per layer.
    ///
    /// Sim runs are seeded and step-deterministic, so the sim lines are
    /// bit-identical from run to run ([`render_layer`]`("sim")` is
    /// diffable); net runs race real sockets, so their lines vary.
    ///
    /// [`render_layer`]: CorpusReport::render_layer
    pub fn render(&self) -> String {
        self.render_layers(&LAYERS)
    }

    /// [`render`](CorpusReport::render) restricted to the runs of one
    /// layer (`"sim"` or `"net"`).
    pub fn render_layer(&self, layer: &str) -> String {
        self.render_layers(&[layer])
    }

    fn render_layers(&self, layers: &[&str]) -> String {
        let mut out = String::new();
        for protocol in &self.protocols {
            let bound = match protocol.bound {
                Some(b) => b.to_string(),
                None => "unavailable (cycle outside goal)".to_string(),
            };
            out.push_str(&format!(
                "{}: {} states, worst-case bound {bound}\n",
                protocol.name, protocol.states
            ));
            for &layer in layers {
                let runs: Vec<&RunRecord> =
                    protocol.runs.iter().filter(|r| r.layer == layer).collect();
                if runs.is_empty() {
                    continue;
                }
                let steps: u64 = runs.iter().map(|r| r.report.steps_checked).sum();
                let repairs: u64 = runs.iter().map(|r| r.report.repairs_observed).sum();
                out.push_str(&format!(
                    "  {layer}: {} runs, {steps} steps validated, {repairs} designated repairs observed\n",
                    runs.len()
                ));
                let mut worst: Option<(u64, u64)> = None;
                for run in &runs {
                    if let Some(observed) = run.report.observed {
                        if worst.is_none_or(|(o, _)| observed > o) {
                            worst = Some((observed, run.seed));
                        }
                    }
                }
                if let Some((observed, seed)) = worst {
                    out.push_str(&format!(
                        "  {layer}: worst observed convergence: {observed} steps (seed {seed})\n"
                    ));
                }
                for run in runs.iter().filter(|r| !r.report.conforms()) {
                    out.push_str(&format!(
                        "  DIVERGES [{} {} seed {}]:\n",
                        run.layer, run.variant, run.seed
                    ));
                    for d in &run.report.divergences {
                        out.push_str(&format!("    {d}\n"));
                    }
                }
            }
        }
        for &layer in layers {
            let runs: Vec<&RunRecord> = self
                .protocols
                .iter()
                .flat_map(|p| &p.runs)
                .filter(|r| r.layer == layer)
                .collect();
            if runs.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "total {layer}: {} runs, {} steps validated, {} divergent\n",
                runs.len(),
                runs.iter().map(|r| r.report.steps_checked).sum::<u64>(),
                runs.iter().filter(|r| !r.report.conforms()).count()
            ));
        }
        out
    }
}

/// The execution layers a corpus runs, in report order.
const LAYERS: [&str; 2] = ["sim", "net"];

/// The default corpus protocols: the worked designs of the paper that
/// both execution layers can refine.
pub fn default_specs() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::token_ring(4, 4),
        ProtocolSpec::diffusing(7),
        ProtocolSpec::coloring(7, 3),
        ProtocolSpec::bfs(),
        ProtocolSpec::spanning_tree(),
    ]
}

/// The simulator configuration of corpus run `i`: two clean runs
/// (envelope asserted) for every lossy one (step checks only).
fn sim_variant(i: usize) -> (SimRunConfig, &'static str) {
    if i % 3 == 2 {
        (
            SimRunConfig {
                loss_rate: 0.2,
                max_delay: 3,
                heartbeat_period: 2,
                ..SimRunConfig::default()
            },
            "lossy",
        )
    } else {
        (SimRunConfig::default(), "clean")
    }
}

/// The socket-runtime configuration of corpus run `i`.
fn net_variant(i: usize, seed: u64, nodes: usize) -> (NetRunConfig, &'static str) {
    match i % 4 {
        0 | 1 => (NetRunConfig::default(), "reliable"),
        2 => (
            NetRunConfig {
                faults: FaultConfig::hostile(seed, 0.15),
                ..NetRunConfig::default()
            },
            "hostile",
        ),
        3 if i % 8 == 3 => (
            NetRunConfig {
                events: vec![NetEvent::CrashRestart {
                    node: 1 % nodes,
                    at_least: Duration::from_millis(30),
                    down: Duration::from_millis(40),
                }],
                ..NetRunConfig::default()
            },
            "crash",
        ),
        _ => (
            NetRunConfig {
                events: vec![NetEvent::Partition {
                    groups: (0..nodes).map(|p| p % 2).collect(),
                    at_least: Duration::from_millis(30),
                    heal_after: Duration::from_millis(60),
                }],
                ..NetRunConfig::default()
            },
            "partition",
        ),
    }
}

/// Sweep the corpus. Emits one [`Event::Verdict`] per run into
/// `journal` and returns the full report. Errors are infrastructure
/// failures (enumeration, refinement, sockets), not divergences.
pub fn run_corpus(
    specs: &[ProtocolSpec],
    config: &CorpusConfig,
    journal: &Journal,
) -> Result<CorpusReport, String> {
    let mut protocols = Vec::with_capacity(specs.len());
    for spec in specs {
        let oracle = ProtocolOracle::build(spec)?;
        let nodes = nonmask_sim::Refinement::new(&spec.program)
            .map_err(|e| format!("{}: not refinable: {e}", spec.name))?
            .process_count();
        let mut runs = Vec::with_capacity(config.sim_runs + config.net_runs);

        // Sim runs take even streams, net runs odd — disjoint stream
        // spaces under one master seed, with full avalanche between
        // neighbouring runs (`split_seed` never collides, unlike the
        // old `base_seed + i` pattern).
        for i in 0..config.sim_runs {
            let seed = rand::split_seed(config.base_seed, 2 * i as u64);
            let (sim_cfg, variant) = sim_variant(i);
            let schedule = FaultSchedule::random(&spec.program, nodes, seed, 4, 20);
            let outcome = run_sim(&spec.program, &spec.goal, seed, &schedule, &sim_cfg)?;
            let report = check_run(&oracle, spec, &outcome, true);
            emit_verdict(journal, "sim", &spec.name, seed, &report);
            runs.push(RunRecord {
                layer: "sim",
                seed,
                variant,
                input: RunInput::Sim {
                    schedule,
                    cfg: sim_cfg,
                },
                report,
            });
        }

        if !config.sim_only {
            for i in 0..config.net_runs {
                let seed = rand::split_seed(config.base_seed, 2 * i as u64 + 1);
                let (net_cfg, variant) = net_variant(i, seed, nodes);
                let outcome = run_net(&spec.program, &spec.goal, seed, &net_cfg)
                    .map_err(|e| format!("{}: net run failed: {e}", spec.name))?;
                let report = check_run(&oracle, spec, &outcome, true);
                emit_verdict(journal, "net", &spec.name, seed, &report);
                runs.push(RunRecord {
                    layer: "net",
                    seed,
                    variant,
                    input: RunInput::Net { cfg: net_cfg },
                    report,
                });
            }
        }

        protocols.push(ProtocolResult {
            name: spec.name.clone(),
            bound: oracle.bound,
            states: oracle.space.len(),
            runs,
        });
    }
    Ok(CorpusReport { protocols })
}

fn emit_verdict(journal: &Journal, layer: &str, protocol: &str, seed: u64, report: &RunReport) {
    journal.emit_with(|| Event::Verdict {
        layer: layer.to_string(),
        protocol: protocol.to_string(),
        seed,
        steps: report.steps_checked,
        verdict: report.verdict().to_string(),
        detail: report
            .divergences
            .first()
            .map(|d| d.to_string())
            .unwrap_or_default(),
    });
}
