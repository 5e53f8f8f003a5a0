//! Candidate triples `(p, S, T)`.

use nonmask_checker::{closure, CheckError, StateSpace, Violation};
use nonmask_program::{Predicate, Program, State};

/// A candidate triple `(p, S, T)`: a program whose (closure) actions are
/// meant to preserve both the invariant `S` and the fault-span `T`
/// (Section 3, "The design problem").
///
/// The design problem is then: given a candidate triple, design convergence
/// actions such that the augmented program is `T`-tolerant for `S`. Use
/// [`crate::Design`] for the full workflow; `CandidateTriple` is the
/// entry-level object for checking the premise.
#[derive(Debug, Clone)]
pub struct CandidateTriple {
    program: Program,
    invariant: Predicate,
    fault_span: Predicate,
}

impl CandidateTriple {
    /// Bundle a program with its invariant `S` and fault span `T`.
    pub fn new(program: Program, invariant: Predicate, fault_span: Predicate) -> Self {
        CandidateTriple {
            program,
            invariant,
            fault_span,
        }
    }

    /// A stabilizing candidate: the fault span is `true` (Section 5).
    pub fn stabilizing(program: Program, invariant: Predicate) -> Self {
        Self::new(program, invariant, Predicate::always_true())
    }

    /// The program `p`.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The invariant `S`.
    pub fn invariant(&self) -> &Predicate {
        &self.invariant
    }

    /// The fault span `T`.
    pub fn fault_span(&self) -> &Predicate {
        &self.fault_span
    }

    /// Whether this triple is *masking*: `S` and `T` denote the same set of
    /// states (checked extensionally over `space`).
    pub fn is_masking(&self, space: &StateSpace) -> bool {
        let mut scratch = space.scratch_state();
        space.ids().all(|id| {
            space.decode_state(id, &mut scratch);
            self.invariant.holds(&scratch) == self.fault_span.holds(&scratch)
        })
    }

    /// Check the defining premise: every action preserves `S` and `T`.
    ///
    /// Returns `(s_violation, t_violation)`; both `None` means the triple
    /// is a valid candidate.
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if a predicate or action body panics
    /// mid-scan.
    pub fn check_closure(
        &self,
        space: &StateSpace,
    ) -> Result<(Option<Violation>, Option<Violation>), CheckError> {
        Ok((
            closure::is_closed(space, &self.invariant)?,
            closure::is_closed(space, &self.fault_span)?,
        ))
    }

    /// Check `S ⇒ T` extensionally; returns a counterexample state where
    /// `S` holds but `T` does not.
    pub fn check_span_contains_invariant(&self, space: &StateSpace) -> Option<State> {
        space
            .ids()
            .map(|id| space.state(id))
            .find(|s| self.invariant.holds(s) && !self.fault_span.holds(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::Domain;

    fn setup() -> (Program, Predicate, Predicate) {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 3));
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
        let p = b.build();
        let s = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let t = Predicate::new("x<=3", [x], move |st| st.get(x) <= 3);
        (p, s, t)
    }

    #[test]
    fn valid_candidate() {
        let (p, s, t) = setup();
        let triple = CandidateTriple::new(p, s, t);
        let space = StateSpace::enumerate(triple.program()).unwrap();
        let (sv, tv) = triple.check_closure(&space).unwrap();
        assert!(sv.is_none() && tv.is_none());
        assert!(triple.check_span_contains_invariant(&space).is_none());
        assert!(!triple.is_masking(&space));
    }

    #[test]
    fn broken_invariant_detected() {
        let (p, _, t) = setup();
        let x = p.var_by_name("x").unwrap();
        let s = Predicate::new("x=2", [x], move |st| st.get(x) == 2);
        let triple = CandidateTriple::new(p, s, t);
        let space = StateSpace::enumerate(triple.program()).unwrap();
        let (sv, tv) = triple.check_closure(&space).unwrap();
        assert!(sv.is_some(), "dec leaves x=2");
        assert!(tv.is_none());
    }

    #[test]
    fn stabilizing_has_true_span() {
        let (p, s, _) = setup();
        let triple = CandidateTriple::stabilizing(p, s);
        let space = StateSpace::enumerate(triple.program()).unwrap();
        assert!(triple
            .fault_span()
            .holds(&space.state(space.ids().next().unwrap())));
        assert!(triple.check_span_contains_invariant(&space).is_none());
    }

    #[test]
    fn masking_when_s_equals_t() {
        let (p, s, _) = setup();
        let triple = CandidateTriple::new(p, s.clone(), s);
        let space = StateSpace::enumerate(triple.program()).unwrap();
        assert!(triple.is_masking(&space));
    }

    #[test]
    fn span_must_contain_invariant() {
        let (p, _, _) = setup();
        let x = p.var_by_name("x").unwrap();
        let s = Predicate::new("x<=2", [x], move |st| st.get(x) <= 2);
        let t = Predicate::new("x<=1", [x], move |st| st.get(x) <= 1);
        let triple = CandidateTriple::new(p, s, t);
        let space = StateSpace::enumerate(triple.program()).unwrap();
        let witness = triple.check_span_contains_invariant(&space).unwrap();
        assert_eq!(witness.slots()[0], 2);
    }
}
