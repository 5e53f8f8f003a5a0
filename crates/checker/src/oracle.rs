//! The step oracle: per-transition validation and per-action constraint
//! attribution for differential conformance checking.
//!
//! The exhaustive checker already knows the complete transition relation of
//! a program (the rows of a [`StateSpace`]). This module turns that
//! knowledge into an *oracle* other execution layers can be checked
//! against, step by step:
//!
//! - [`StepOracle::is_valid_transition`] — is `(before, after)` some
//!   program transition at all, and if so by which action?
//! - [`StepOracle::validate_step`] — did *this specific action* legally
//!   produce `after` from `before` (guard enabled, effect exact)?
//! - [`attribute_constraints`] — which constraints does each action
//!   *establish* (every transition by the action lands inside the
//!   constraint) and *repair* (establish, with at least one transition
//!   entering from a violating state)? This is the checker's ground truth
//!   for "the constraint the checker attributes to that action": a journal
//!   or trace claiming that action `a` repaired constraint `c` conforms
//!   only if `repairs(a, c)` holds here.
//!
//! The oracle works on *states*, not ids, so execution layers can feed it
//! their per-site views directly: an action applied to a site's view (own
//! variables plus cached remote reads) is a program transition of the view
//! state, which is exactly what the transition relation describes.
//!
//! The oracle does not need an enumerated space:
//! [`StepOracle::over_index`] builds it from a bare [`SpaceIndex`]
//! (O(variables) memory, no enumeration pass). Domain membership comes
//! from the index's id bijection, and transition lookups try each action's
//! guard and effect in action order — the order of a row, so the
//! lowest-id tie-break is the row's.

use nonmask_program::{ActionId, Program, State};

use crate::cache::Bitset;
use crate::error::CheckError;
use crate::options::CheckOptions;
use crate::space::{SpaceIndex, StateSpace};

/// Why a step failed oracle validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepFault {
    /// The pre-state is not in the enumerated space (escaped a domain).
    UnknownBefore,
    /// The post-state is not in the enumerated space.
    UnknownAfter,
    /// No program action produces `after` from `before`.
    NoMatchingAction,
    /// The named action's guard is false at `before`.
    GuardDisabled(ActionId),
    /// The named action is enabled at `before` but its effect yields a
    /// different post-state than the one observed.
    WrongEffect {
        /// The action that fired.
        action: ActionId,
        /// What the action actually produces from `before`.
        expected: State,
    },
}

impl std::fmt::Display for StepFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepFault::UnknownBefore => f.write_str("pre-state escapes the enumerated space"),
            StepFault::UnknownAfter => f.write_str("post-state escapes the enumerated space"),
            StepFault::NoMatchingAction => {
                f.write_str("no program action produces this transition")
            }
            StepFault::GuardDisabled(a) => write!(f, "guard of action {a} is false at pre-state"),
            StepFault::WrongEffect { action, .. } => {
                write!(f, "action {action} produces a different post-state")
            }
        }
    }
}

impl std::error::Error for StepFault {}

/// A per-step validity oracle over a program's state space.
#[derive(Debug, Clone, Copy)]
pub struct StepOracle<'a> {
    index: &'a SpaceIndex,
    program: &'a Program,
}

impl<'a> StepOracle<'a> {
    /// Build an oracle from a bare [`SpaceIndex`], without materializing
    /// any transitions. Verdicts match the enumerated space's rows
    /// (see the module docs); memory is O(variables) instead of
    /// O(states + transitions).
    pub fn over_index(index: &'a SpaceIndex, program: &'a Program) -> Self {
        StepOracle { index, program }
    }

    /// Is `state` inside the enumerated domains?
    fn contains(&self, state: &State) -> bool {
        self.index.id_of(state).is_some()
    }

    /// Is `(before, after)` a transition of the program? Returns the
    /// lowest-id action that produces it (several actions may share a
    /// statement; ties resolve deterministically).
    ///
    /// # Errors
    ///
    /// [`StepFault::UnknownBefore`] / [`StepFault::UnknownAfter`] when a
    /// state escapes the enumerated domains, [`StepFault::NoMatchingAction`]
    /// when no action produces the pair. The oracle tries each action on
    /// its own, so an action escaping its domain at `before` does not hide
    /// another action's valid step.
    pub fn is_valid_transition(
        &self,
        before: &State,
        after: &State,
    ) -> Result<ActionId, StepFault> {
        if !self.contains(before) {
            return Err(StepFault::UnknownBefore);
        }
        if !self.contains(after) {
            return Err(StepFault::UnknownAfter);
        }
        self.program
            .action_ids()
            .find(|&a| self.validate_step(a, before, after).is_ok())
            .ok_or(StepFault::NoMatchingAction)
    }

    /// Did `action` legally produce `after` from `before`? Stricter than
    /// [`is_valid_transition`](Self::is_valid_transition): the specific
    /// action must be enabled at `before` and its effect must reproduce
    /// `after` exactly.
    ///
    /// # Errors
    ///
    /// [`StepFault::UnknownBefore`] / [`StepFault::UnknownAfter`],
    /// [`StepFault::GuardDisabled`], or [`StepFault::WrongEffect`] with the
    /// post-state the action actually produces.
    pub fn validate_step(
        &self,
        action: ActionId,
        before: &State,
        after: &State,
    ) -> Result<(), StepFault> {
        if !self.contains(before) {
            return Err(StepFault::UnknownBefore);
        }
        if !self.contains(after) {
            return Err(StepFault::UnknownAfter);
        }
        let act = self.program.action(action);
        if !act.enabled(before) {
            return Err(StepFault::GuardDisabled(action));
        }
        let expected = act.successor(before);
        if &expected != after {
            return Err(StepFault::WrongEffect { action, expected });
        }
        Ok(())
    }
}

/// Per-action constraint attribution: for every `(action, constraint)`
/// pair, whether the action *establishes* and *repairs* the constraint.
/// Built by [`attribute_constraints`]; indexed by action index and
/// constraint position.
#[derive(Debug, Clone)]
pub struct ConstraintAttribution {
    constraints: usize,
    /// Row-major `[action][constraint]`: every transition by the action
    /// ends inside the constraint.
    establishes: Vec<bool>,
    /// Row-major `[action][constraint]`: establishes, and at least one
    /// transition by the action starts outside the constraint.
    repairs: Vec<bool>,
    /// Row-major `[action][constraint]`: no transition by the action exits
    /// the constraint (starts inside, ends outside).
    preserves: Vec<bool>,
}

impl ConstraintAttribution {
    /// Does every transition by `action` land in a state satisfying
    /// constraint `c` (by position in the list given to
    /// [`attribute_constraints`])?
    ///
    /// Vacuously true for actions with no transitions.
    pub fn establishes(&self, action: ActionId, c: usize) -> bool {
        self.establishes[action.index() * self.constraints + c]
    }

    /// Does `action` establish constraint `c` with at least one transition
    /// entering from a state violating it? This is the checker's notion of
    /// "the constraint attributed to the action": a repair observed in a
    /// trace conforms only if the acting action repairs that constraint
    /// here.
    pub fn repairs(&self, action: ActionId, c: usize) -> bool {
        self.repairs[action.index() * self.constraints + c]
    }

    /// All constraints `action` repairs, by position.
    pub fn repaired_by(&self, action: ActionId) -> Vec<usize> {
        (0..self.constraints)
            .filter(|&c| self.repairs(action, c))
            .collect()
    }

    /// Does no transition by `action` *exit* constraint `c` (start in a
    /// state satisfying it, end in one violating it)? This is global
    /// preservation over the whole relation — stronger than the checker's
    /// assumption-relative `preserves_given_bits`, and the hard-prune criterion
    /// the synthesizer applies to candidates against already-established
    /// lower constraints.
    ///
    /// Vacuously true for actions with no transitions.
    pub fn preserves(&self, action: ActionId, c: usize) -> bool {
        self.preserves[action.index() * self.constraints + c]
    }
}

/// Compute constraint attribution for every action over the full
/// transition relation.
///
/// One sequential sweep over the space's rows after evaluating each
/// constraint into a [`Bitset`] (the bitsets are built with `opts`, so the
/// predicate evaluation is parallel; the sweep itself visits each
/// transition once).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a constraint predicate panics.
pub fn attribute_constraints(
    space: &StateSpace,
    program: &Program,
    constraints: &[nonmask_program::Predicate],
    opts: CheckOptions,
) -> Result<ConstraintAttribution, CheckError> {
    let k = constraints.len();
    let preds: Vec<&nonmask_program::Predicate> = constraints.iter().collect();
    let bits = Bitset::for_predicates(space.index(), &preds, opts)?;
    let actions = program.action_count();
    let mut establishes = vec![true; actions * k];
    let mut entered_from_outside = vec![false; actions * k];
    let mut preserves = vec![true; actions * k];
    let mut rows = space.rows();
    for id in space.ids() {
        for (action, succ) in rows.transitions(id) {
            let row = action.index() * k;
            for (c, cb) in bits.iter().enumerate() {
                if cb.contains(succ) {
                    if !cb.contains(id) {
                        entered_from_outside[row + c] = true;
                    }
                } else {
                    establishes[row + c] = false;
                    if cb.contains(id) {
                        preserves[row + c] = false;
                    }
                }
            }
        }
    }
    let repairs = establishes
        .iter()
        .zip(&entered_from_outside)
        .map(|(&e, &w)| e && w)
        .collect();
    Ok(ConstraintAttribution {
        constraints: k,
        establishes,
        repairs,
        preserves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonmask_program::{Domain, Predicate, Program};

    /// Two counters on one node: `fix-x` drives x to 0, `fix-y` drives y
    /// to 0, `spin` toggles z without touching either constraint.
    fn program() -> Program {
        let mut b = Program::builder("oracle-test");
        let x = b.var("x", Domain::range(0, 2));
        let y = b.var("y", Domain::range(0, 2));
        let z = b.var("z", Domain::Bool);
        b.convergence_action(
            "fix-x",
            [x],
            [x],
            move |s| s.get(x) > 0,
            move |s| s.set(x, 0),
        );
        b.convergence_action(
            "fix-y",
            [y],
            [y],
            move |s| s.get(y) > 0,
            move |s| {
                let v = s.get(y);
                s.set(y, v - 1);
            },
        );
        b.closure_action("spin", [z], [z], |_| true, move |s| s.toggle(z));
        b.build()
    }

    #[test]
    fn valid_transitions_name_their_action() {
        let p = program();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let oracle = StepOracle::over_index(&index, &p);
        let before = p.state_from([2, 1, 0]).unwrap();
        let after = p.state_from([0, 1, 0]).unwrap();
        let action = oracle.is_valid_transition(&before, &after).unwrap();
        assert_eq!(p.action(action).name(), "fix-x");
        assert!(oracle.validate_step(action, &before, &after).is_ok());
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let p = program();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let oracle = StepOracle::over_index(&index, &p);
        let before = p.state_from([2, 1, 0]).unwrap();
        // Nothing jumps y from 1 to... the x=0 write at the same time.
        let after = p.state_from([0, 0, 0]).unwrap();
        assert_eq!(
            oracle.is_valid_transition(&before, &after),
            Err(StepFault::NoMatchingAction)
        );
        // Escaped domain: x=5 is outside 0..=2.
        let escaped = State::new([5, 0, 0]);
        assert_eq!(
            oracle.is_valid_transition(&escaped, &after),
            Err(StepFault::UnknownBefore)
        );
    }

    #[test]
    fn validate_step_distinguishes_guard_and_effect_faults() {
        let p = program();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let oracle = StepOracle::over_index(&index, &p);
        let fix_x = p
            .action_ids()
            .find(|&a| p.action(a).name() == "fix-x")
            .unwrap();
        // Guard false: x is already 0.
        let at_zero = p.state_from([0, 1, 0]).unwrap();
        assert_eq!(
            oracle.validate_step(fix_x, &at_zero, &at_zero),
            Err(StepFault::GuardDisabled(fix_x))
        );
        // Wrong effect: fix-x from x=2 must produce x=0, not x=1.
        let before = p.state_from([2, 0, 0]).unwrap();
        let wrong = p.state_from([1, 0, 0]).unwrap();
        match oracle.validate_step(fix_x, &before, &wrong) {
            Err(StepFault::WrongEffect { expected, .. }) => {
                assert_eq!(expected, p.state_from([0, 0, 0]).unwrap());
            }
            other => panic!("expected WrongEffect, got {other:?}"),
        }
    }

    #[test]
    fn index_backed_oracle_matches_resident_oracle() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let by_index = StepOracle::over_index(&index, &p);
        // Exhaustive agreement with the table rows over every ordered state
        // pair, including the action chosen on ties.
        for pre in index.ids() {
            let before = index.state(pre);
            let row = space.successors(pre);
            for post in index.ids() {
                let after = index.state(post);
                let resident = row
                    .iter()
                    .find(|&&(_, t)| t == post)
                    .map(|&(a, _)| a)
                    .ok_or(StepFault::NoMatchingAction);
                assert_eq!(
                    resident,
                    by_index.is_valid_transition(&before, &after),
                    "disagree on {before:?} -> {after:?}"
                );
                for a in p.action_ids() {
                    assert_eq!(
                        row.contains(&(a, post)),
                        by_index.validate_step(a, &before, &after).is_ok(),
                        "disagree on {a} at {before:?} -> {after:?}"
                    );
                }
            }
        }
        // Escaped domains are reported identically without a space.
        let escaped = State::new([5, 0, 0]);
        let inside = p.state_from([0, 0, 0]).unwrap();
        assert_eq!(
            by_index.is_valid_transition(&escaped, &inside),
            Err(StepFault::UnknownBefore)
        );
        assert_eq!(
            by_index.is_valid_transition(&inside, &escaped),
            Err(StepFault::UnknownAfter)
        );
    }

    #[test]
    fn index_backed_oracle_matches_a_step_beside_an_escaping_action() {
        // At x=1, `overflow` leaves x's domain, so no space enumerates; the
        // oracle still names `inc` for its own valid step.
        let mut b = Program::builder("escape");
        let x = b.var("x", Domain::range(0, 2));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 2,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        b.closure_action(
            "overflow",
            [x],
            [x],
            move |s| s.get(x) == 1,
            move |s| s.set(x, 7),
        );
        let p = b.build();
        assert!(StateSpace::enumerate(&p).is_err());
        let index = SpaceIndex::of_program(&p, CheckOptions::default()).unwrap();
        let oracle = StepOracle::over_index(&index, &p);
        let (one, two) = (p.state_from([1]).unwrap(), p.state_from([2]).unwrap());
        let inc = p.action_ids().next().unwrap();
        assert_eq!(oracle.is_valid_transition(&one, &two), Ok(inc));
        assert_eq!(
            oracle.is_valid_transition(&two, &one),
            Err(StepFault::NoMatchingAction)
        );
    }

    #[test]
    fn attribution_matches_the_designed_repairs() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let cx = Predicate::new("x=0", [x], move |s: &State| s.get(x) == 0);
        let cy = Predicate::new("y=0", [y], move |s: &State| s.get(y) == 0);
        let attr = attribute_constraints(&space, &p, &[cx, cy], CheckOptions::default()).unwrap();
        let id = |name: &str| {
            p.action_ids()
                .find(|&a| p.action(a).name() == name)
                .unwrap()
        };
        // fix-x repairs x=0 and leaves y alone (establishes y=0 only where
        // it already held, so no repair is attributed).
        assert!(attr.repairs(id("fix-x"), 0));
        assert!(!attr.repairs(id("fix-x"), 1));
        assert!(!attr.establishes(id("fix-x"), 1), "fix-x can fire at y=1");
        // fix-y decrements: from y=2 it lands at y=1, outside the
        // constraint, so it does NOT establish y=0 in one step.
        assert!(!attr.establishes(id("fix-y"), 1));
        // spin repairs nothing.
        assert_eq!(attr.repaired_by(id("spin")), Vec::<usize>::new());
    }

    #[test]
    fn preservation_tracks_exits_only() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let z = p.var_by_name("z").unwrap();
        let cx = Predicate::new("x=0", [x], move |s: &State| s.get(x) == 0);
        let cy1 = Predicate::new("y<=1", [y], move |s: &State| s.get(y) <= 1);
        let cz = Predicate::new("z=0", [z], move |s: &State| s.get(z) == 0);
        let attr =
            attribute_constraints(&space, &p, &[cx, cy1, cz], CheckOptions::default()).unwrap();
        let id = |name: &str| {
            p.action_ids()
                .find(|&a| p.action(a).name() == name)
                .unwrap()
        };
        // fix-x never touches x once x=0 holds (its guard needs x>0), and
        // never writes y, so it preserves both constraints.
        assert!(attr.preserves(id("fix-x"), 0));
        assert!(attr.preserves(id("fix-x"), 1));
        // fix-y decrements y, so y<=1 can only become *more* true.
        assert!(attr.preserves(id("fix-y"), 1));
        // spin writes z only: preserves the x/y constraints without
        // repairing them, but toggling z out of z=0 is an exit.
        assert!(attr.preserves(id("spin"), 0));
        assert!(attr.preserves(id("spin"), 1));
        assert!(!attr.repairs(id("spin"), 0));
        assert!(!attr.preserves(id("spin"), 2));
        // fix-x can fire at z=1 but never writes z: no exit from z=0.
        assert!(attr.preserves(id("fix-x"), 2));
    }
}
