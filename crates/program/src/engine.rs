//! The execution engine.
//!
//! An [`Executor`] drives a program from an initial state under a
//! [`Scheduler`], optionally perturbed by a [`FaultInjector`], producing a
//! [`RunReport`] with stabilization metrics and (optionally) a full
//! [`Trace`]. This realizes the paper's computations: fair, maximal
//! sequences of steps in which enabled actions execute (Section 2), with
//! faults interleaved as state-changing actions (Section 3).
//!
//! It is the engine that tests the §2 daemons, including the remark that
//! the derived programs converge under an unfair one (experiment E8): each
//! step offers every action to [`Scheduler::select`].

use crate::action::{ActionId, ActionKind};
use crate::fault::{FaultInjector, NoFaults};
use crate::predicate::Predicate;
use crate::program::Program;
use crate::scheduler::Scheduler;
use crate::state::State;
use crate::trace::{Trace, TraceStep};
use crate::VarId;

/// Why a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The stop predicate held for the configured number of consecutive
    /// steps.
    Stabilized,
    /// No action was enabled (the computation is finite and maximal).
    Deadlock,
    /// The scheduler declined to pick an action (e.g. a script ran out).
    SchedulerStopped,
    /// The configured step budget was exhausted.
    MaxSteps,
    /// An action wrote a variable outside its declared write set
    /// (construction bug; reported, not panicked, so tests can assert it).
    WriteViolation {
        /// The offending action.
        action: ActionId,
        /// The variables written but not declared.
        undeclared: Vec<VarId>,
    },
    /// An action produced a value outside a variable's domain.
    DomainViolation {
        /// The offending action.
        action: ActionId,
        /// The variable left out of domain.
        var: VarId,
    },
}

impl StopReason {
    /// Whether the run ended because the stop predicate stabilized.
    pub fn is_stabilized(&self) -> bool {
        matches!(self, StopReason::Stabilized)
    }
}

/// Configuration of a run.
///
/// ```
/// use nonmask_program::{RunConfig, Predicate};
/// let s = Predicate::always_true();
/// let cfg = RunConfig::default()
///     .max_steps(50_000)
///     .stop_when(&s, 10)
///     .record_trace(true);
/// # let _ = cfg;
/// ```
#[derive(Clone)]
pub struct RunConfig {
    max_steps: u64,
    stop: Option<(Predicate, u32)>,
    watch: Vec<Predicate>,
    validate_writes: bool,
    validate_domains: bool,
    record_trace: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_steps: 100_000,
            stop: None,
            watch: Vec::new(),
            validate_writes: false,
            validate_domains: false,
            record_trace: false,
        }
    }
}

impl RunConfig {
    /// Maximum number of program steps before the run is cut off.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Stop once `pred` has held after `consecutive` successive steps
    /// (detects stabilization; `consecutive = 1` stops at first
    /// satisfaction).
    ///
    /// # Panics
    ///
    /// Panics if `consecutive == 0`.
    pub fn stop_when(mut self, pred: &Predicate, consecutive: u32) -> Self {
        assert!(consecutive > 0, "consecutive must be at least 1");
        self.stop = Some((pred.clone(), consecutive));
        self
    }

    /// Count, across the run, after how many steps `pred` held (used for
    /// availability measurements: hits / steps).
    pub fn watch(mut self, pred: &Predicate) -> Self {
        self.watch.push(pred.clone());
        self
    }

    /// Assert after each step that the executed action only wrote its
    /// declared write set (stops with [`StopReason::WriteViolation`]).
    pub fn validate_writes(mut self, on: bool) -> Self {
        self.validate_writes = on;
        self
    }

    /// Validate after each step that all variables remain within their
    /// domains (stops with [`StopReason::DomainViolation`]).
    pub fn validate_domains(mut self, on: bool) -> Self {
        self.validate_domains = on;
        self
    }

    /// Record the full state sequence into [`RunReport::trace`].
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Number of program steps executed.
    pub steps: u64,
    /// Why the run ended.
    pub stop: StopReason,
    /// The final state.
    pub final_state: State,
    /// If the run stabilized, the step after which the stop predicate began
    /// to hold continuously through the end of the run.
    pub stabilized_at: Option<u64>,
    /// Per-action execution counts (indexed by action id).
    pub action_counts: Vec<u64>,
    /// Executions of closure, convergence and combined actions respectively.
    pub kind_counts: KindCounts,
    /// Total number of fault events injected.
    pub fault_events: u64,
    /// For each watched predicate: after how many steps it held.
    pub watch_hits: Vec<u64>,
    /// The recorded trace, if requested.
    pub trace: Option<Trace>,
}

/// Executions broken down by [`ActionKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Executions of closure actions.
    pub closure: u64,
    /// Executions of convergence actions.
    pub convergence: u64,
    /// Executions of combined actions.
    pub combined: u64,
}

impl RunReport {
    /// How many times `action` executed.
    pub fn count_of(&self, action: ActionId) -> u64 {
        self.action_counts[action.index()]
    }

    /// Fraction of steps after which watched predicate `i` held
    /// (`None` when no step ran).
    pub fn availability(&self, i: usize) -> Option<f64> {
        if self.steps == 0 {
            None
        } else {
            Some(self.watch_hits[i] as f64 / self.steps as f64)
        }
    }
}

/// Drives runs of a program.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'p> {
    program: &'p Program,
}

impl<'p> Executor<'p> {
    /// Create an executor for `program`.
    pub fn new(program: &'p Program) -> Self {
        Executor { program }
    }

    /// Run without faults.
    pub fn run(
        &self,
        initial: State,
        scheduler: &mut dyn Scheduler,
        config: &RunConfig,
    ) -> RunReport {
        self.run_with_faults(initial, scheduler, &mut NoFaults, config)
    }

    /// Run with a fault injector interleaved before every step.
    pub fn run_with_faults(
        &self,
        initial: State,
        scheduler: &mut dyn Scheduler,
        faults: &mut dyn FaultInjector,
        config: &RunConfig,
    ) -> RunReport {
        let p = self.program;
        let mut state = initial;
        let mut trace = config.record_trace.then(Trace::new);
        if let Some(t) = &mut trace {
            t.set_initial(state.clone());
        }

        let all_actions: Vec<ActionId> = p.action_ids().collect();
        let mut action_counts = vec![0u64; p.action_count()];
        let mut kind_counts = KindCounts::default();
        let mut fault_events = 0u64;
        let mut watch_hits = vec![0u64; config.watch.len()];
        let mut hold: u32 = 0;
        let mut hold_start: u64 = 0;
        let mut steps = 0u64;

        let stop_reason = loop {
            if steps >= config.max_steps {
                break StopReason::MaxSteps;
            }

            // Fault actions fire before the program step.
            let injected = faults.inject(steps, &mut state, p);
            let n_injected = injected.len() as u64;
            fault_events += n_injected;
            if n_injected > 0 {
                // Faults can re-violate the stop predicate.
                if let Some((pred, _)) = &config.stop {
                    if !pred.holds(&state) {
                        hold = 0;
                    }
                }
                if let Some(t) = &mut trace {
                    t.push(TraceStep {
                        step: steps,
                        action: None,
                        faults: n_injected as u32,
                        state: state.clone(),
                    });
                }
            }

            let Some(chosen) = scheduler.select(p, &all_actions, &state) else {
                break if p.any_enabled(&state) {
                    StopReason::SchedulerStopped
                } else {
                    StopReason::Deadlock
                };
            };

            let before = config.validate_writes.then(|| state.clone());
            p.action(chosen).apply(&mut state);
            steps += 1;

            action_counts[chosen.index()] += 1;
            match p.action(chosen).kind() {
                ActionKind::Closure => kind_counts.closure += 1,
                ActionKind::Convergence => kind_counts.convergence += 1,
                ActionKind::Combined => kind_counts.combined += 1,
            }

            if let Some(before) = before {
                let changed = before.diff(&state);
                let declared = p.action(chosen).writes();
                let undeclared: Vec<VarId> = changed
                    .into_iter()
                    .filter(|v| !declared.contains(v))
                    .collect();
                if !undeclared.is_empty() {
                    break StopReason::WriteViolation {
                        action: chosen,
                        undeclared,
                    };
                }
            }
            if config.validate_domains {
                if let Err(crate::ProgramError::OutOfDomain(e)) = p.validate_state(&state) {
                    let var = p
                        .var_by_name(&e.var)
                        .expect("validate_state names a declared variable");
                    break StopReason::DomainViolation {
                        action: chosen,
                        var,
                    };
                }
            }

            if let Some(t) = &mut trace {
                t.push(TraceStep {
                    step: steps - 1,
                    action: Some(chosen),
                    faults: 0,
                    state: state.clone(),
                });
            }

            for (i, w) in config.watch.iter().enumerate() {
                if w.holds(&state) {
                    watch_hits[i] += 1;
                }
            }

            if let Some((pred, needed)) = &config.stop {
                if pred.holds(&state) {
                    if hold == 0 {
                        hold_start = steps - 1;
                    }
                    hold += 1;
                    if hold >= *needed {
                        break StopReason::Stabilized;
                    }
                } else {
                    hold = 0;
                }
            }
        };

        let stabilized_at = matches!(stop_reason, StopReason::Stabilized).then_some(hold_start);
        RunReport {
            steps,
            stop: stop_reason,
            final_state: state,
            stabilized_at,
            action_counts,
            kind_counts,
            fault_events,
            watch_hits,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ScheduledCorruption;
    use crate::scheduler::{Fixed, Random, RoundRobin};
    use crate::{Domain, Predicate};

    /// x counts down to 0; y mirrors whether x is even.
    fn countdown() -> (Program, crate::VarId) {
        let mut b = Program::builder("countdown");
        let x = b.var("x", Domain::range(0, 10));
        b.closure_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        (b.build(), x)
    }

    #[test]
    fn run_to_deadlock() {
        let (p, x) = countdown();
        let report = Executor::new(&p).run(
            p.state_from([5]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default(),
        );
        assert_eq!(report.stop, StopReason::Deadlock);
        assert_eq!(report.steps, 5);
        assert_eq!(report.final_state.get(x), 0);
        assert_eq!(report.count_of(ActionId(0)), 5);
        assert_eq!(report.kind_counts.closure, 5);
    }

    #[test]
    fn stop_predicate_detects_stabilization() {
        let (p, x) = countdown();
        let done = Predicate::new("x<=2", [x], move |s| s.get(x) <= 2);
        let report = Executor::new(&p).run(
            p.state_from([9]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default().stop_when(&done, 1),
        );
        assert_eq!(report.stop, StopReason::Stabilized);
        assert_eq!(report.final_state.get(x), 2);
        assert_eq!(report.stabilized_at, Some(6));
    }

    #[test]
    fn consecutive_hold_requirement() {
        let (p, x) = countdown();
        let done = Predicate::new("x<=5", [x], move |s| s.get(x) <= 5);
        let report = Executor::new(&p).run(
            p.state_from([8]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default().stop_when(&done, 3),
        );
        assert_eq!(report.stop, StopReason::Stabilized);
        // x=8 initially; the step with index 2 (the third) produces x=5, where
        // the predicate starts holding; it holds for 3 consecutive steps
        // (x=5,4,3), so the run stops at x=3 after 5 steps.
        assert_eq!(report.stabilized_at, Some(2));
        assert_eq!(report.steps, 5);
        assert_eq!(report.final_state.get(x), 3);
    }

    #[test]
    fn max_steps_cutoff() {
        let (p, _) = countdown();
        let report = Executor::new(&p).run(
            p.state_from([10]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default().max_steps(4),
        );
        assert_eq!(report.stop, StopReason::MaxSteps);
        assert_eq!(report.steps, 4);
    }

    #[test]
    fn scheduler_stop() {
        let (p, _) = countdown();
        let report = Executor::new(&p).run(
            p.state_from([10]).unwrap(),
            &mut Fixed::skipping([ActionId(0), ActionId(0)]),
            &RunConfig::default(),
        );
        assert_eq!(report.stop, StopReason::SchedulerStopped);
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn faults_interrupt_stabilization() {
        let (p, x) = countdown();
        let done = Predicate::new("x<=1", [x], move |s| s.get(x) <= 1);
        // x=5 counts down; the predicate first holds after step index 3
        // (x=1). The fault before step 4 kicks x back to 3, resetting the
        // hold counter; the countdown then resumes and stabilizes at x=0.
        let mut faults = ScheduledCorruption::new().at(4, x, 3);
        let report = Executor::new(&p).run_with_faults(
            p.state_from([5]).unwrap(),
            &mut RoundRobin::new(),
            &mut faults,
            &RunConfig::default().stop_when(&done, 2).record_trace(true),
        );
        assert_eq!(report.stop, StopReason::Stabilized);
        assert_eq!(report.fault_events, 1);
        // 4 decs to x=1, fault to x=3, 3 more decs to x=0 (holds at x=1, x=0).
        assert_eq!(report.steps, 7);
        assert_eq!(report.stabilized_at, Some(5));
        let trace = report.trace.unwrap();
        assert!(trace
            .steps()
            .iter()
            .any(|s| s.action.is_none() && s.faults == 1));
    }

    #[test]
    fn watch_counts_availability() {
        let (p, x) = countdown();
        let low = Predicate::new("x<=4", [x], move |s| s.get(x) <= 4);
        let report = Executor::new(&p).run(
            p.state_from([9]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default().watch(&low),
        );
        // 9 steps; predicate holds after steps producing x=4..0 → 5 hits.
        assert_eq!(report.steps, 9);
        assert_eq!(report.watch_hits, vec![5]);
        assert!((report.availability(0).unwrap() - 5.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn write_violation_detected() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        // Declares writes=[x] but also writes y.
        b.closure_action(
            "sneaky",
            [x, y],
            [x],
            |_| true,
            move |s| {
                s.set(x, 1);
                s.set(y, 3);
            },
        );
        let p = b.build();
        let report = Executor::new(&p).run(
            p.min_state(),
            &mut RoundRobin::new(),
            &RunConfig::default().validate_writes(true),
        );
        assert!(matches!(
            report.stop,
            StopReason::WriteViolation { ref undeclared, .. } if undeclared == &[y]
        ));
    }

    #[test]
    fn domain_violation_detected() {
        let mut b = Program::builder("bad");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "overflow",
            [x],
            [x],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let report = Executor::new(&p).run(
            p.state_from([3]).unwrap(),
            &mut RoundRobin::new(),
            &RunConfig::default().validate_domains(true),
        );
        assert!(matches!(
            report.stop,
            StopReason::DomainViolation { var, .. } if var == x
        ));
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let (p, _) = countdown();
        let run = |seed: u64| {
            Executor::new(&p)
                .run(
                    p.state_from([10]).unwrap(),
                    &mut Random::seeded(seed),
                    &RunConfig::default(),
                )
                .steps
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn stop_reason_helper() {
        assert!(StopReason::Stabilized.is_stabilized());
        assert!(!StopReason::MaxSteps.is_stabilized());
    }
}
