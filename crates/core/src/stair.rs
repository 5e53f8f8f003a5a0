//! Convergence stairs (Section 7; Gouda & Multari).
//!
//! When the constraint graph for the full fault span `T` is cyclic, one of
//! the paper's refinements is staged convergence: a chain of closed
//! predicates `T = R_0 ⊇ R_1 ⊇ … ⊇ R_n = S` such that from each `R_i`
//! every computation reaches `R_{i+1}` ("a convergence stair of height
//! two" for `n = 2`). Each stage may be validated with a (possibly
//! different) theorem, because the constraint graph *restricted to the
//! stage's states* can be simpler than the global one.

use nonmask_checker::{
    check_convergence, closure, CheckError, CheckOptions, ConvergenceResult, Fairness, StateSpace,
    Violation,
};
use nonmask_program::{Predicate, Program, State};

/// A chain of predicates from the fault span down to the invariant.
#[derive(Debug, Clone)]
pub struct ConvergenceStair {
    stages: Vec<Predicate>,
}

/// The outcome of verifying one stage of a stair.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Index of the stage (`0` = from the fault span).
    pub stage: usize,
    /// A closure violation of the stage's *target* predicate, if any
    /// (each `R_i` must be closed for the stair to be meaningful).
    pub target_closed: Option<Violation>,
    /// Convergence of this stage.
    pub convergence: ConvergenceResult,
    /// A state where the stage's source holds but not the *previous*
    /// stage's source — stairs must be descending chains (`R_{i+1} ⊆ R_i`);
    /// `None` when the inclusion holds.
    pub inclusion_witness: Option<State>,
}

/// The outcome of verifying a whole stair.
#[derive(Debug, Clone)]
pub struct StairReport {
    /// Per-stage outcomes, in descent order.
    pub stages: Vec<StageReport>,
}

impl StairReport {
    /// Whether every stage is closed, included in its predecessor, and
    /// converges.
    pub fn ok(&self) -> bool {
        self.stages.iter().all(|s| {
            s.target_closed.is_none() && s.convergence.converges() && s.inclusion_witness.is_none()
        })
    }
}

impl ConvergenceStair {
    /// Build a stair from `stages`, highest (the fault span) first, lowest
    /// (the invariant) last.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two stages are supplied.
    pub fn new(stages: impl IntoIterator<Item = Predicate>) -> Self {
        let stages: Vec<Predicate> = stages.into_iter().collect();
        assert!(
            stages.len() >= 2,
            "a stair needs at least a top and a bottom"
        );
        ConvergenceStair { stages }
    }

    /// The stair's height (number of convergence stages).
    pub fn height(&self) -> usize {
        self.stages.len() - 1
    }

    /// The stage predicates, highest first.
    pub fn stages(&self) -> &[Predicate] {
        &self.stages
    }

    /// Verify every stage: `R_{i+1} ⊆ R_i`, `R_{i+1}` closed, and
    /// convergence from `R_i` to `R_{i+1}` under `fairness`.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if a stage predicate or an action body
    /// panics mid-scan.
    pub fn verify(
        &self,
        space: &StateSpace,
        program: &Program,
        fairness: Fairness,
    ) -> Result<StairReport, CheckError> {
        let mut reports = Vec::new();
        for i in 0..self.stages.len() - 1 {
            let from = &self.stages[i];
            let to = &self.stages[i + 1];
            let inclusion_witness = space
                .ids()
                .map(|id| space.state(id))
                .find(|s| to.holds(s) && !from.holds(s));
            reports.push(StageReport {
                stage: i,
                target_closed: closure::is_closed(space, to)?,
                convergence: check_convergence(space, program, from, to, CheckOptions::default())?
                    .verdict(fairness)
                    .clone(),
                inclusion_witness,
            });
        }
        Ok(StairReport { stages: reports })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Program};

    /// Countdown program: converges through x<=2 to x=0.
    fn program() -> Program {
        let mut b = Program::builder("down");
        let x = b.var("x", Domain::range(0, 5));
        b.convergence_action(
            "dec",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| {
                let v = s.get(x);
                s.set(x, v - 1);
            },
        );
        b.build()
    }

    #[test]
    fn two_stage_stair_verifies() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let stair = ConvergenceStair::new([
            Predicate::always_true(),
            Predicate::new("x<=2", [x], move |s| s.get(x) <= 2),
            Predicate::new("x=0", [x], move |s| s.get(x) == 0),
        ]);
        assert_eq!(stair.height(), 2);
        let report = stair.verify(&space, &p, Fairness::WeaklyFair).unwrap();
        assert!(report.ok(), "{report:?}");
        assert_eq!(report.stages.len(), 2);
    }

    #[test]
    fn non_descending_stair_reports_witness() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        // Second stage x<=4 is NOT a subset of first stage x<=2.
        let stair = ConvergenceStair::new([
            Predicate::new("x<=2", [x], move |s| s.get(x) <= 2),
            Predicate::new("x<=4", [x], move |s| s.get(x) <= 4),
        ]);
        let report = stair.verify(&space, &p, Fairness::WeaklyFair).unwrap();
        assert!(!report.ok());
        assert!(report.stages[0].inclusion_witness.is_some());
    }

    #[test]
    fn unclosed_stage_reported() {
        // x alternates 0 <-> 1 when y is involved; use a program whose
        // action breaks an intermediate predicate.
        let mut b = Program::builder("bounce");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "bump-to-3",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 3),
        );
        b.convergence_action(
            "drop",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| s.set(x, 0),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        // Intermediate stage x<=1 is not closed: bump-to-3 leaves it.
        let stair = ConvergenceStair::new([
            Predicate::always_true(),
            Predicate::new("x<=1", [x], move |s| s.get(x) <= 1),
        ]);
        let report = stair.verify(&space, &p, Fairness::WeaklyFair).unwrap();
        assert!(report.stages[0].target_closed.is_some());
        assert!(!report.ok());
    }

    #[test]
    #[should_panic(expected = "at least a top and a bottom")]
    fn single_stage_panics() {
        let _ = ConvergenceStair::new([Predicate::always_true()]);
    }
}
