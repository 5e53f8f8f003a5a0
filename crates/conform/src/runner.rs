//! Instrumented executions: drive the simulator round-by-round under a
//! [`FaultSchedule`], or launch the socket runtime, with every executed
//! action captured in a [`StepLog`] for the differential checks in
//! [`crate::check`].
//!
//! Both runners are deterministic in their fault input: the simulator is
//! bit-identical given `(program, seed, schedule)`; the socket runtime is
//! deterministic *in its fault schedule* (seeded frame faults, seeded
//! restart states, events pinned to detector-idle points) while thread
//! interleaving may vary — which is exactly why its conformance checks
//! are per-step and timing-independent.

use std::time::Duration;

use nonmask_net::{run as net_run, FaultConfig, NetConfig, NetError, NetEvent};
use nonmask_obs::Journal;
use nonmask_program::{Predicate, Program, State, StepLog, StepRecord, VarId};
use nonmask_sim::{Refinement, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::schedule::{FaultSchedule, ScheduleEntry};

/// Simulator knobs for one conformance run.
#[derive(Debug, Clone)]
pub struct SimRunConfig {
    /// Per-round probability that a coherence message is dropped. The
    /// convergence-envelope check only applies when this is `0.0`: a
    /// lossy channel is a fault source that never stops, so "once faults
    /// stop" never holds.
    pub loss_rate: f64,
    /// Maximum message delay in rounds.
    pub max_delay: u64,
    /// Heartbeat period in rounds.
    pub heartbeat_period: u64,
    /// Round budget before the run is declared non-stabilizing.
    pub max_rounds: u64,
    /// Processes to run as Byzantine liars: they never execute a
    /// program action and broadcast the seeded stateless lie stream
    /// every round. A liar never heals, so the convergence envelope is
    /// not assertable and `goal` must read only safe-region variables.
    pub byzantine: Vec<usize>,
    /// Seed of the Byzantine lie stream.
    pub byzantine_seed: u64,
}

impl Default for SimRunConfig {
    fn default() -> Self {
        SimRunConfig {
            loss_rate: 0.0,
            max_delay: 1,
            heartbeat_period: 1,
            max_rounds: 10_000,
            byzantine: Vec::new(),
            byzantine_seed: 0,
        }
    }
}

impl SimRunConfig {
    /// Whether the post-schedule execution is free of ongoing message
    /// faults, i.e. whether the convergence envelope is assertable.
    /// Byzantine liars are a fault source that never stops.
    pub fn envelope_applies(&self) -> bool {
        self.loss_rate == 0.0 && self.byzantine.is_empty()
    }
}

/// What one instrumented run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every executed action, in execution order.
    pub steps: Vec<StepRecord>,
    /// Whether the goal was (re-)established within budget.
    pub stabilized: bool,
    /// Steps executed after the last fault until the goal first held, if
    /// the run stabilized *and* the configuration makes the measurement
    /// meaningful (no ongoing message faults, no runtime events).
    pub observed_convergence_steps: Option<u64>,
    /// Slack the envelope check should allow on top of the checker
    /// bound, covering round/concurrency granularity (the goal is only
    /// sampled at boundaries, so up to one round's worth of legitimate
    /// post-convergence steps lands inside the measurement).
    pub envelope_slack: u64,
    /// Ground truth at the end of the run.
    pub final_state: State,
}

/// Drive one simulator run under `schedule`, capturing every step, with
/// the simulator's fault/stabilization events written to `journal` (the
/// artifact path for divergence reproductions; pass
/// [`Journal::disabled`] for none).
///
/// Entries fire before the round they are pinned to; the run ends at the
/// first round boundary (after all entries have fired) where `goal`
/// holds on ground truth, or when `cfg.max_rounds` is exhausted.
pub fn run_sim(
    exec: &Program,
    goal: &Predicate,
    seed: u64,
    schedule: &FaultSchedule,
    cfg: &SimRunConfig,
    journal: &Journal,
) -> Result<RunOutcome, String> {
    let refinement = Refinement::new(exec).map_err(|e| format!("{}: {e}", exec.name()))?;
    let processes = refinement.process_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = exec.random_state(&mut rng);
    let log = StepLog::new();
    let sim_config = SimConfig {
        seed,
        loss_rate: cfg.loss_rate,
        max_rounds: cfg.max_rounds,
        steps_per_round: 1,
        heartbeat_period: cfg.heartbeat_period,
        max_delay: cfg.max_delay,
    };
    let mut sim = Simulation::new(exec, refinement, initial, sim_config)
        .with_step_log(log.clone())
        .with_journal(journal.clone());
    if !cfg.byzantine.is_empty() {
        sim = sim.with_byzantine(cfg.byzantine.iter().copied(), cfg.byzantine_seed);
    }

    let mut entries = schedule.entries.clone();
    entries.sort_by_key(ScheduleEntry::round);
    let mut next = 0;
    // Steps executed up to (and including) the final fault injection;
    // convergence is measured from here.
    let mut steps_at_quiet = 0u64;
    let mut observed = None;
    loop {
        while next < entries.len() && entries[next].round() <= sim.rounds() {
            apply_entry(&mut sim, &entries[next]);
            next += 1;
            steps_at_quiet = sim.steps();
        }
        if next == entries.len() && goal.holds(&sim.ground_truth()) {
            observed = Some(sim.steps() - steps_at_quiet);
            break;
        }
        if sim.rounds() >= cfg.max_rounds {
            break;
        }
        sim.round();
    }

    let stabilized = observed.is_some();
    Ok(RunOutcome {
        steps: log.snapshot(),
        stabilized,
        observed_convergence_steps: if cfg.envelope_applies() {
            observed
        } else {
            None
        },
        envelope_slack: processes as u64,
        final_state: sim.ground_truth(),
    })
}

fn apply_entry(sim: &mut Simulation<'_>, entry: &ScheduleEntry) {
    match entry {
        ScheduleEntry::CorruptVar { var, value, .. } => {
            sim.corrupt_var(VarId::from_index(*var), *value);
        }
        ScheduleEntry::CorruptProcess { process, .. } => sim.corrupt_process(*process),
        ScheduleEntry::CrashRestart { process, .. } => sim.crash_restart(*process),
        ScheduleEntry::Partition { groups, rounds, .. } => sim.partition(groups, *rounds),
    }
}

/// Socket-runtime knobs for one conformance run.
#[derive(Debug, Clone)]
pub struct NetRunConfig {
    /// Frame-level fault rates (all-zero = reliable links).
    pub faults: FaultConfig,
    /// Runtime events (crash-restarts, partitions) fired at
    /// detector-idle points.
    pub events: Vec<NetEvent>,
    /// Abort threshold for the whole run.
    pub timeout: Duration,
    /// Nodes to run as Byzantine liars: they never execute a program
    /// action and heartbeat the seeded stateless lie stream forever.
    /// A liar never heals, so the convergence envelope is not
    /// assertable and `goal` must read only safe-region variables.
    pub byzantine: Vec<usize>,
    /// Seed of the Byzantine lie stream.
    pub byzantine_seed: u64,
}

impl Default for NetRunConfig {
    fn default() -> Self {
        NetRunConfig {
            faults: FaultConfig::default(),
            events: Vec::new(),
            timeout: Duration::from_secs(60),
            byzantine: Vec::new(),
            byzantine_seed: 0,
        }
    }
}

impl NetRunConfig {
    /// Whether the run's only fault is its random initial state, making
    /// the step-count envelope assertable via linearization.
    pub fn envelope_applies(&self) -> bool {
        let f = &self.faults;
        self.events.is_empty()
            && self.byzantine.is_empty()
            && f.drop_rate == 0.0
            && f.corrupt_rate == 0.0
            && f.duplicate_rate == 0.0
            && f.delay_rate == 0.0
    }
}

/// Launch one socket-runtime run with step capture.
///
/// The observed convergence count is reconstructed by *linearizing* the
/// step log: steps are folded over the initial state in global
/// sequence-number order (each step contributes its executor's owned
/// variables), and the count is the number of folded steps before the
/// goal first holds. Owned variables are single-writer, so the fold's
/// final state is exact; intermediate states are one valid interleaving,
/// which is why the envelope gets a concurrency slack of `2 × nodes`.
/// The runtime's fault/episode events go to `journal` (pass
/// [`Journal::disabled`] for none).
pub fn run_net(
    exec: &Program,
    goal: &Predicate,
    seed: u64,
    cfg: &NetRunConfig,
    journal: &Journal,
) -> Result<RunOutcome, NetError> {
    let refinement = Refinement::new(exec).map_err(NetError::Refine)?;
    let nodes = refinement.process_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = exec.random_state(&mut rng);
    let log = StepLog::new();
    let config = NetConfig {
        seed,
        faults: FaultConfig {
            seed,
            ..cfg.faults.clone()
        },
        events: cfg.events.clone(),
        timeout: cfg.timeout,
        byzantine: cfg.byzantine.clone(),
        byzantine_seed: cfg.byzantine_seed,
        step_log: Some(log.clone()),
        journal: journal.clone(),
        ..NetConfig::default()
    };
    let report = net_run(exec, &initial, goal, &config)?;
    let steps = log.snapshot();

    let observed = if cfg.envelope_applies() && report.converged {
        let mut truth = initial.clone();
        let mut count = 0u64;
        let mut found = goal.holds(&truth);
        for step in &steps {
            if found {
                break;
            }
            for &var in refinement.vars_of(step.site) {
                truth.set(var, step.after.get(var));
            }
            count += 1;
            found = goal.holds(&truth);
        }
        found.then_some(count)
    } else {
        None
    };

    Ok(RunOutcome {
        steps,
        stabilized: report.converged,
        observed_convergence_steps: observed,
        envelope_slack: 2 * nodes as u64,
        final_state: report.final_state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProtocolSpec;

    #[test]
    fn sim_runs_are_bit_identical_for_the_same_triple() {
        let spec = ProtocolSpec::token_ring(4, 4);
        let schedule = FaultSchedule::random(&spec.program, 4, 3, 4, 12);
        let cfg = SimRunConfig::default();
        let off = Journal::disabled();
        let run = || run_sim(&spec.program, &spec.goal, 9, &schedule, &cfg, &off);
        let (a, b) = (run().unwrap(), run().unwrap());
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.observed_convergence_steps, b.observed_convergence_steps);
        assert_eq!(a.final_state, b.final_state);
        assert!(a.stabilized, "clean token ring should stabilize");
    }

    #[test]
    fn lossy_runs_opt_out_of_the_envelope() {
        let spec = ProtocolSpec::token_ring(3, 3);
        let cfg = SimRunConfig {
            loss_rate: 0.3,
            max_delay: 3,
            heartbeat_period: 2,
            ..SimRunConfig::default()
        };
        let out = run_sim(
            &spec.program,
            &spec.goal,
            5,
            &FaultSchedule::empty(),
            &cfg,
            &Journal::disabled(),
        )
        .unwrap();
        assert!(out.observed_convergence_steps.is_none());
    }
}
