//! The differential conformance checks.
//!
//! A [`ProtocolOracle`] is the checker-side ground truth for one
//! protocol: the exhaustively enumerated state space, the worst-case
//! convergence bound, and the constraint attribution matrix. A
//! [`check_run`] call replays one instrumented execution
//! ([`crate::runner::RunOutcome`]) through that oracle and reports every
//! [`Divergence`]:
//!
//! 1. **Step validity** — every recorded `(before, action, after)` view
//!    transition must be a transition of the reference program: the
//!    state enumerable, the guard enabled, the effect exact.
//! 2. **Repair attribution** — every step by a *designated* repair
//!    action must leave its attributed constraint holding; the
//!    designation itself is cross-validated against the checker's
//!    attribution matrix when the oracle is built.
//! 3. **Convergence envelope** — once faults stop, the observed
//!    stabilization step count must not exceed the checker's worst-case
//!    bound plus an explicit granularity slack.

use nonmask_checker::oracle::{attribute_constraints, ConstraintAttribution, StepOracle};
use nonmask_checker::{check_convergence, CheckOptions, StateSpace};
use nonmask_program::Predicate;

use crate::runner::RunOutcome;
use crate::spec::ProtocolSpec;

/// Checker-side ground truth for one protocol, built once and reused
/// across every run of the corpus.
pub struct ProtocolOracle {
    /// The exhaustively enumerated state space of the reference program.
    pub space: StateSpace,
    /// Worst-case convergence bound (moves to the goal from anywhere),
    /// or `None` when the transition relation admits a cycle outside the
    /// goal (the envelope check is then skipped and reported as such).
    pub bound: Option<u64>,
    /// The checker's action-by-constraint attribution matrix.
    pub attribution: ConstraintAttribution,
}

impl ProtocolOracle {
    /// Enumerate the space, compute the bound, and attribute constraints.
    ///
    /// Fails if the spec *designates* a repair pair the checker does not
    /// attribute — a disagreement between the design and the transition
    /// relation that would make every downstream trace check vacuous.
    pub fn build(spec: &ProtocolSpec) -> Result<Self, String> {
        let opts = CheckOptions::default();
        let space = StateSpace::enumerate_with_options(&spec.program, opts)
            .map_err(|e| format!("{}: enumeration failed: {e}", spec.name))?;
        let all = Predicate::always_true();
        let bound = check_convergence(&space, &spec.program, &all, &spec.goal, opts)
            .map_err(|e| format!("{}: bound computation failed: {e}", spec.name))?
            .worst_case_moves;
        let attribution = attribute_constraints(&space, &spec.program, &spec.constraints, opts)
            .map_err(|e| format!("{}: attribution failed: {e}", spec.name))?;
        for &(action, c) in &spec.designated {
            let name = spec.program.action(action).name();
            if !attribution.establishes(action, c) {
                return Err(format!(
                    "{}: designated pair ({name}, {}) is not established per the checker",
                    spec.name,
                    spec.constraints[c].name()
                ));
            }
            if !attribution.repairs(action, c) {
                return Err(format!(
                    "{}: designated pair ({name}, {}) never repairs per the checker",
                    spec.name,
                    spec.constraints[c].name()
                ));
            }
        }
        Ok(ProtocolOracle {
            space,
            bound,
            attribution,
        })
    }
}

/// One disagreement between an executed run and the checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Global sequence number of the offending step, when step-local.
    pub seq: Option<u64>,
    /// Short machine-readable kind: `invalid-step`, `repair-attribution`,
    /// `envelope`, or `non-stabilizing`.
    pub kind: &'static str,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "[{}] step {seq}: {}", self.kind, self.detail),
            None => write!(f, "[{}] {}", self.kind, self.detail),
        }
    }
}

/// The verdict on one instrumented run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Steps validated against the transition relation.
    pub steps_checked: u64,
    /// Designated repair events observed (a designated action firing
    /// from a state violating its constraint and re-establishing it).
    pub repairs_observed: u64,
    /// Observed post-fault convergence steps, when measured.
    pub observed: Option<u64>,
    /// The oracle's worst-case bound.
    pub bound: Option<u64>,
    /// Every disagreement found, in step order.
    pub divergences: Vec<Divergence>,
}

impl RunReport {
    /// Whether the run conforms (no divergences).
    pub fn conforms(&self) -> bool {
        self.divergences.is_empty()
    }

    /// `conforms` / `diverges` for journaling.
    pub fn verdict(&self) -> &'static str {
        if self.conforms() {
            "conforms"
        } else {
            "diverges"
        }
    }
}

/// Replay one execution through the oracle and collect divergences.
///
/// `require_stabilization` should be `true` for corpus runs (every
/// corpus protocol is checker-verified to converge, so a non-stabilizing
/// run *is* a divergence) and `false` for exploratory replays.
pub fn check_run(
    oracle: &ProtocolOracle,
    spec: &ProtocolSpec,
    outcome: &RunOutcome,
    require_stabilization: bool,
) -> RunReport {
    // Replay only needs domain membership and guard/effect re-execution
    // (`validate_step`), so the index-backed oracle suffices: no CSR
    // arrays are touched, and the check works even when the transition
    // table was never materialized or has been dropped.
    let step_oracle = StepOracle::over_index(oracle.space.index(), &spec.program);
    let mut divergences = Vec::new();
    let mut repairs_observed = 0u64;

    for step in &outcome.steps {
        if let Err(fault) = step_oracle.validate_step(step.action, &step.before, &step.after) {
            divergences.push(Divergence {
                seq: Some(step.seq),
                kind: "invalid-step",
                detail: format!(
                    "site {} tick {} action `{}`: {fault}",
                    step.site,
                    step.tick,
                    spec.program.action(step.action).name()
                ),
            });
            continue;
        }
        for &(action, c) in &spec.designated {
            if action != step.action {
                continue;
            }
            let constraint = &spec.constraints[c];
            if !constraint.holds(&step.after) {
                divergences.push(Divergence {
                    seq: Some(step.seq),
                    kind: "repair-attribution",
                    detail: format!(
                        "site {} action `{}` left its attributed constraint `{}` violated",
                        step.site,
                        spec.program.action(action).name(),
                        constraint.name()
                    ),
                });
            } else if !constraint.holds(&step.before) {
                repairs_observed += 1;
            }
        }
    }

    if require_stabilization && !outcome.stabilized {
        divergences.push(Divergence {
            seq: None,
            kind: "non-stabilizing",
            detail: "run exhausted its budget without re-establishing the goal".into(),
        });
    }

    if let (Some(observed), Some(bound)) = (outcome.observed_convergence_steps, oracle.bound) {
        let ceiling = bound + outcome.envelope_slack;
        if observed > ceiling {
            divergences.push(Divergence {
                seq: None,
                kind: "envelope",
                detail: format!(
                    "observed {observed} convergence steps after faults stopped, \
                     checker bound {bound} + slack {} = {ceiling}",
                    outcome.envelope_slack
                ),
            });
        }
    }

    RunReport {
        steps_checked: outcome.steps.len() as u64,
        repairs_observed,
        observed: outcome.observed_convergence_steps,
        bound: oracle.bound,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_sim, SimRunConfig};
    use crate::schedule::FaultSchedule;

    #[test]
    fn oracle_build_validates_the_designations() {
        let spec = ProtocolSpec::token_ring(3, 3);
        let oracle = ProtocolOracle::build(&spec).unwrap();
        assert!(
            oracle.bound.is_some(),
            "token ring convergence is cycle-free outside the invariant"
        );
    }

    #[test]
    fn a_mislabeled_designation_is_rejected() {
        let mut spec = ProtocolSpec::token_ring(3, 3);
        // Claim pass@1 repairs c.2 — the checker knows better.
        let (action, _) = spec.designated[0];
        spec.designated[0] = (action, 1);
        let err = match ProtocolOracle::build(&spec) {
            Ok(_) => panic!("a mislabeled designation must be rejected"),
            Err(err) => err,
        };
        assert!(err.contains("designated pair"), "{err}");
    }

    #[test]
    fn a_clean_run_conforms() {
        let spec = ProtocolSpec::token_ring(3, 3);
        let oracle = ProtocolOracle::build(&spec).unwrap();
        let schedule = FaultSchedule::random(&spec.program, 3, 1, 3, 10);
        let outcome = run_sim(
            &spec.program,
            &spec.goal,
            1,
            &schedule,
            &SimRunConfig::default(),
        )
        .unwrap();
        let report = check_run(&oracle, &spec, &outcome, true);
        assert!(report.conforms(), "divergences: {:?}", report.divergences);
        assert!(report.steps_checked > 0);
    }

    #[test]
    fn a_forged_step_is_flagged() {
        let spec = ProtocolSpec::token_ring(3, 3);
        let oracle = ProtocolOracle::build(&spec).unwrap();
        let outcome = run_sim(
            &spec.program,
            &spec.goal,
            2,
            &FaultSchedule::empty(),
            &SimRunConfig::default(),
        )
        .unwrap();
        let mut forged = outcome.clone();
        if let Some(step) = forged.steps.first_mut() {
            // Pretend the step did nothing: unless the action is a
            // self-loop, the effect no longer matches.
            step.after = step.before.clone();
        }
        if !forged.steps.is_empty() {
            let report = check_run(&oracle, &spec, &forged, true);
            assert!(
                !report.conforms(),
                "a no-op forgery of a real step must diverge"
            );
            assert_eq!(report.divergences[0].kind, "invalid-step");
        }
    }
}
