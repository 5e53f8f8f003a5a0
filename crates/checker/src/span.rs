//! Fault-span computation.
//!
//! The paper defines the fault span `T` as "the set of states that the
//! program can reach in the presence of faults" (Section 3), with faults
//! represented as state-changing actions. Given the invariant `S` and a
//! set of fault actions, this module computes that set mechanically: the
//! smallest superset of `S` closed under both program actions and fault
//! actions. Designs can then be verified against the *derived* `T` instead
//! of hand-guessing one — and `S ⊂ T ⊂ true` yields genuinely nonmasking,
//! non-stabilizing tolerance.

use std::collections::HashSet;
use std::sync::Arc;

use nonmask_program::{Action, Predicate, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::CheckOptions;
use crate::space::{StateId, StateSpace};

/// A set of states of a [`StateSpace`], convertible to a [`Predicate`].
/// Backed by a [`Bitset`] (one bit per state).
#[derive(Debug, Clone)]
pub struct StateSet {
    members: Bitset,
    count: usize,
}

impl StateSet {
    /// The states satisfying `pred` (evaluated once per state, in parallel
    /// segments with the [default options](CheckOptions::default)).
    ///
    /// # Errors
    ///
    /// [`CheckError::WorkerFailed`] if `pred` panics at some state.
    pub fn from_predicate(space: &StateSpace, pred: &Predicate) -> Result<Self, CheckError> {
        let members = Bitset::for_predicate(space, pred, CheckOptions::default())?;
        let count = members.count_ones();
        Ok(StateSet { members, count })
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: StateId) -> bool {
        self.members.contains(id)
    }

    /// Number of member states.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The underlying per-state membership bits.
    pub fn bits(&self) -> &Bitset {
        &self.members
    }

    /// Convert to a [`Predicate`] usable anywhere the library takes one
    /// (the predicate hashes the queried state against the member set, so
    /// it remains valid on states produced later, not just space ids).
    pub fn to_predicate(&self, space: &StateSpace, name: impl Into<String>) -> Predicate {
        let members: HashSet<State> = self
            .members
            .iter_ones()
            .map(|i| space.state(StateId::from_index(i)))
            .collect();
        let members = Arc::new(members);
        // The predicate reads every variable (it inspects whole states).
        let reads: Vec<_> = (0..space.var_count())
            .map(nonmask_program::VarId::from_index)
            .collect();
        Predicate::new(name, reads, move |s| members.contains(s))
    }
}

/// Compute the fault span of `invariant` under the space's program actions
/// plus the given `faults` (arbitrary state-transformers with guards): the
/// reachability closure of the invariant states.
///
/// Fault actions may produce states outside the space only if domains are
/// violated; such transitions are ignored (a fault cannot create an
/// unrepresentable state). The invariant is seeded in parallel with the
/// [default options](CheckOptions::default); the reachability sweep itself
/// is sequential (each state is expanded exactly once).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if `invariant` panics at some state.
pub fn compute_fault_span(
    space: &StateSpace,
    invariant: &Predicate,
    faults: &[Action],
) -> Result<StateSet, CheckError> {
    let mut members = Bitset::for_predicate(space, invariant, CheckOptions::default())?;
    let mut frontier: Vec<StateId> = members.iter_ones().map(StateId::from_index).collect();
    let mut count = frontier.len();

    let mut scratch = space.scratch_state();
    let mut succ = space.scratch_state();
    let mut rows = space.rows();
    while let Some(id) = frontier.pop() {
        // Program transitions, from the space's tables …
        for &next in rows.transitions(id).succs() {
            if !members.contains(next) {
                members.set(next.index());
                count += 1;
                frontier.push(next);
            }
        }
        // … plus fault transitions, decoded into scratch buffers; a fault
        // successor's id is the state's id moved by the slots the fault
        // changed (`successor_id`), so no hashing or allocation happens
        // here either.
        if faults.is_empty() {
            continue;
        }
        space.decode_state(id, &mut scratch);
        for fault in faults {
            if !fault.enabled(&scratch) {
                continue;
            }
            fault.successor_into(&scratch, &mut succ);
            if let Some(nid) = space.index().successor_id(id, &scratch, &succ) {
                if !members.contains(nid) {
                    members.set(nid.index());
                    count += 1;
                    frontier.push(nid);
                }
            }
        }
    }

    Ok(StateSet { members, count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{ActionKind, Domain, Program};

    /// x counts down; faults can bump x by +1 (but never above 3).
    fn setup() -> (Program, Predicate, Vec<Action>) {
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
        let p = b.build();
        let s = Predicate::new("x=0", [x], move |st| st.get(x) == 0);
        let bump = Action::new(
            "fault: bump",
            ActionKind::Closure,
            [x],
            [x],
            move |st: &State| st.get(x) < 3,
            move |st: &mut State| {
                let v = st.get(x);
                st.set(x, v + 1);
            },
        );
        (p, s, vec![bump])
    }

    #[test]
    fn span_is_reachability_closure() {
        let (p, s, faults) = setup();
        let space = StateSpace::enumerate(&p).unwrap();
        let span = compute_fault_span(&space, &s, &faults).unwrap();
        // From x=0, faults reach up to 3; decs reach everything below.
        // x=4, x=5 are unreachable.
        assert_eq!(span.len(), 4);
        for id in space.ids() {
            let x = space.state(id).slots()[0];
            assert_eq!(span.contains(id), x <= 3, "x={x}");
        }
    }

    #[test]
    fn span_predicate_closed_and_contains_invariant() {
        let (p, s, faults) = setup();
        let space = StateSpace::enumerate(&p).unwrap();
        let span = compute_fault_span(&space, &s, &faults).unwrap();
        let t = span.to_predicate(&space, "T");
        // T is closed under program actions …
        assert!(crate::closure::is_closed(&space, &t).unwrap().is_none());
        // … contains S …
        for id in space.ids() {
            if s.holds(&space.state(id)) {
                assert!(t.holds(&space.state(id)));
            }
        }
        // … and the program converges from T back to S.
        let r = crate::convergence::check_convergence(&space, &p, &t, &s, CheckOptions::default())
            .unwrap();
        assert!(r.weakly_fair.converges());
    }

    #[test]
    fn no_faults_means_span_is_program_reachability() {
        let (p, s, _) = setup();
        let space = StateSpace::enumerate(&p).unwrap();
        let span = compute_fault_span(&space, &s, &[]).unwrap();
        // The only invariant state is x=0, and dec cannot leave it.
        assert_eq!(span.len(), 1);
    }

    #[test]
    fn from_predicate_roundtrip() {
        let (p, s, _) = setup();
        let space = StateSpace::enumerate(&p).unwrap();
        let set = StateSet::from_predicate(&space, &s).unwrap();
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
        let back = set.to_predicate(&space, "S'");
        for id in space.ids() {
            assert_eq!(s.holds(&space.state(id)), back.holds(&space.state(id)));
        }
    }
}
