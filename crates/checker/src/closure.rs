//! The preservation oracle and closure checking.
//!
//! "An action of `p` preserves a state predicate `R` iff starting from any
//! state where the action is enabled and `R` holds, executing the action
//! yields a state where `R` holds. A state predicate `R` of `p` is closed
//! iff each action of `p` preserves `R`." (Section 2.)
//!
//! Every check is one scan over the rows of a [`RowSource`], a
//! [`StateSpace`]'s footprint tables or a [`Decoder`](crate::Decoder) (a `(action, successor)` pair
//! exists exactly when the action is enabled), and over [`Bitset`]
//! predicate caches (each predicate is evaluated once per state, in
//! parallel). Both sources, every thread count and every segment size
//! report the same violation: the lowest violating action, then its
//! lowest state.
//!
//! Many questions over the same states take one sweep. [`breaking_actions`]
//! reads a [`MaskColumn`] of up to 64 predicates per state and, for every
//! transition `x → y` of action `a` out of the assumed states, ORs
//! `mask(x) & !mask(y)` and `!mask(y)` into `a`'s two entries, and per
//! state the false slots whose repair has no transition into one word:
//! one pass says which actions break which predicates of the group, and,
//! over `T`, which repairs are unguarded or fail to establish their
//! constraint. A violation's witness costs one more scan
//! ([`preserves_given_bits`], [`first_leaving`] or [`first_disabled`] on
//! the action at fault), run only when there is a violation. All of them
//! are one early-exit scan in id order.

use std::ops::Range;

use nonmask_program::{ActionId, Predicate, Program, State};

use crate::cache::{Bitset, MaskColumn};
use crate::error::CheckError;
use crate::options::{steal_find, steal_tasks, CheckOptions};
use crate::space::{StateId, StateSpace};
use crate::successors::{RowSource, Successors};

/// A witnessed preservation failure: executing `action` at `before` (where
/// the checked predicate held) produced `after` (where it does not).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violating action.
    pub action: ActionId,
    /// The state before execution (predicate held, guard held).
    pub before: State,
    /// The state after execution (predicate violated).
    pub after: State,
}

impl Violation {
    /// Render the violation against `program` for diagnostics.
    pub fn render(&self, program: &Program) -> String {
        format!(
            "action `{}` violated the predicate: {} -> {}",
            program.action(self.action).name(),
            program.render_state(&self.before),
            program.render_state(&self.after),
        )
    }
}

/// Does `action` preserve the predicate of `pred_bits` in states where the
/// predicate of `assuming_bits` also holds?
///
/// This is Theorem 3's conditional preservation: "each closure action of
/// `p` preserves each constraint in that partition *whenever all constraints
/// in lower numbered partitions hold*". Only states satisfying
/// `assuming ∧ pred ∧ guard` are considered; plain preservation assumes
/// [`Bitset::ones`]. Returns the first violation, or `None`.
///
/// `pred_bits` and `assuming_bits` must be evaluations of the predicates
/// over exactly this `space` (see [`Bitset::for_predicates`]): one bit test
/// per state and per successor, no predicate evaluation at all, and the
/// scan stops at the first violation. To ask the question of every action
/// and every predicate of a [`MaskColumn`] at once, sweep once with
/// [`breaking_actions`].
pub fn preserves_given_bits(
    space: &StateSpace,
    action: ActionId,
    pred_bits: &Bitset,
    assuming_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let seek = Seek::Exit(pred_bits);
    first_violation(
        space,
        pred_bits,
        Some(assuming_bits),
        seek,
        Some(action),
        opts,
    )
}

/// Is `pred` closed in the space's program (preserved by *every* action)?
///
/// Returns the first violation found, or `None` when `pred` is closed.
/// This discharges the paper's Closure requirement for both the invariant
/// `S` and the fault-span `T`.
pub fn is_closed(space: &StateSpace, pred: &Predicate) -> Result<Option<Violation>, CheckError> {
    let opts = CheckOptions::default();
    is_closed_bits(space, &Bitset::for_predicate(space, pred, opts)?, opts)
}

/// [`is_closed`] over a precomputed predicate cache, on either row source:
/// a resident [`StateSpace`] or a [`Decoder`](crate::Decoder) (no table at
/// all, for spaces whose table would not fit the memory budget).
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-scan;
/// [`CheckError::EscapedDomain`] if an action escapes its domain (only a
/// [`Decoder`](crate::Decoder) evaluates actions).
pub fn is_closed_bits<R: RowSource>(
    space: &R,
    pred_bits: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(space, pred_bits, None, Seek::Exit(pred_bits), None, opts)
}

/// What one [`breaking_actions`] sweep over the states of `assuming`
/// found, per predicate `j` of its mask group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breaks {
    /// Entry `a`: bit `j` is set iff some transition of action `a` leads
    /// from a state of `assuming ∧ pred_j` to a state outside `pred_j`.
    pub broken: Vec<u64>,
    /// Entry `a`: bit `j` is set iff some transition of action `a` from a
    /// state of `assuming` leads outside `pred_j`.
    pub leaves: Vec<u64>,
    /// Bit `j` is set iff some state of `assuming ∧ ¬pred_j` has no
    /// transition by an action whose `repairs` entry holds bit `j`.
    pub unguarded: u64,
}

/// Which actions break, or lead outside, which predicates of a
/// [`MaskColumn`] group where `assuming` holds, and which repairs are not
/// enabled where their predicate is false (see [`Breaks`]). Bit `j` of
/// `broken[a]` is set iff [`preserves_given_bits`] would report a
/// violation of `pred_j` for `a`; bit `j` of `leaves[a]` iff
/// [`first_leaving`] finds a transition of `a` from `assuming` outside
/// `pred_j`; bit `j` of `unguarded` iff [`first_disabled`] finds a state
/// of `assuming ∧ ¬pred_j` where the repair of slot `j` is not enabled.
///
/// One sweep over the states of `assuming` answers the question for every
/// action and every predicate of the group at once: per transition
/// `x → y` of action `a`, `broken[a] |= mask(x) & !mask(y)` and
/// `leaves[a] |= !mask(y)`, and per state `x`, the slots false at `x`
/// whose repair has no transition there go into `unguarded`. `repairs`
/// maps each action to the slots of the group it repairs (zero for most
/// actions); its length is the action count. Closure is the special case
/// `assuming = pred_j` (the states outside `pred_j` contribute nothing to
/// `broken`'s bit `j`), Theorem 3's side conditions ask it of every action
/// and constraint under the same layer assumption, and a constraint's
/// repair obligations are its bits of `unguarded` and of its action's
/// `leaves` under `T`. Every row of `assuming` is read, whatever the
/// answer.
///
/// # Errors
///
/// [`CheckError::WorkerFailed`] if a worker panics mid-scan;
/// [`CheckError::EscapedDomain`] if an action escapes its domain (only a
/// [`Decoder`](crate::Decoder) evaluates actions).
///
/// # Panics
///
/// Panics if `masks` does not range over exactly the states of `source`,
/// or if a row holds an action without a `repairs` entry.
pub fn breaking_actions<R: RowSource>(
    source: &R,
    repairs: &[u64],
    masks: &MaskColumn,
    assuming: &Bitset,
    opts: CheckOptions,
) -> Result<Breaks, CheckError> {
    sweep::<R, true>(source, repairs, masks, assuming, opts)
}

/// The [`broken`](Breaks::broken) words of [`breaking_actions`] alone, by
/// a sweep that does none of the repair work: for the assumptions whose
/// `leaves` and `unguarded` no caller reads. `actions` is the action
/// count.
///
/// # Errors
///
/// As [`breaking_actions`].
///
/// # Panics
///
/// Panics if `masks` does not range over exactly the states of `source`,
/// or if a row holds an action at or past `actions`.
pub fn broken_actions<R: RowSource>(
    source: &R,
    actions: usize,
    masks: &MaskColumn,
    assuming: &Bitset,
    opts: CheckOptions,
) -> Result<Vec<u64>, CheckError> {
    Ok(sweep::<R, false>(source, &vec![0; actions], masks, assuming, opts)?.broken)
}

/// The one [`breaking_actions`] sweep; without `REPAIRS`, `leaves` and
/// `unguarded` stay zero and `repairs` is read for its length alone.
fn sweep<R: RowSource, const REPAIRS: bool>(
    source: &R,
    repairs: &[u64],
    masks: &MaskColumn,
    assuming: &Bitset,
    opts: CheckOptions,
) -> Result<Breaks, CheckError> {
    let len = source.index().len();
    assert_eq!(masks.len(), len, "mask column length mismatch");
    let (plan, workers) = (opts.segment_plan(len), opts.workers_for(len));
    let (group, repaired) = (masks.bits(), repairs.iter().fold(0, |m, r| m | r));
    let none = || Breaks {
        broken: vec![0; repairs.len()],
        leaves: vec![0; repairs.len()],
        unguarded: 0,
    };
    let task = |ti: usize| -> Result<Breaks, CheckError> {
        let mut rows = source.rows();
        let mut found = none();
        for i in members(assuming, None, plan.range(ti)) {
            let held = masks.at(i);
            let mut enabled = 0;
            for (a, succ) in rows.row(StateId::from_index(i))? {
                let out = group & !masks.at(succ.index());
                found.broken[a.index()] |= held & out;
                if REPAIRS {
                    found.leaves[a.index()] |= out;
                    enabled |= repairs[a.index()];
                }
            }
            if REPAIRS {
                found.unguarded |= repaired & !held & !enabled;
            }
        }
        Ok(found)
    };
    let mut found = none();
    for part in steal_tasks(plan.count(), workers, task)? {
        let part = part?;
        let words = found.broken.iter_mut().chain(&mut found.leaves);
        for (w, p) in words.zip(part.broken.into_iter().chain(part.leaves)) {
            *w |= p;
        }
        found.unguarded |= part.unguarded;
    }
    Ok(found)
}

/// The transition of `action` from the lowest-id state of `from` that
/// leads outside `target`, or `None`: the witness of a repair that does
/// not establish its constraint (`from = T`, `target = c`).
///
/// # Errors
///
/// As [`is_closed_bits`].
pub fn first_leaving<R: RowSource>(
    source: &R,
    action: ActionId,
    from: &Bitset,
    target: &Bitset,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    first_violation(source, from, None, Seek::Exit(target), Some(action), opts)
}

/// The lowest-id state of `states` where `action` is not enabled, or
/// `None`: the witness of an unguarded repair (`states = T ∧ ¬c`).
///
/// # Errors
///
/// As [`is_closed_bits`].
pub fn first_disabled<R: RowSource>(
    source: &R,
    action: ActionId,
    states: &Bitset,
    opts: CheckOptions,
) -> Result<Option<State>, CheckError> {
    let hit = first_violation(source, states, None, Seek::Disabled, Some(action), opts)?;
    Ok(hit.map(|v| v.before))
}

/// The ids in `range` that are members of `a` (and of `b`, when given),
/// ascending, a word at a time.
fn members<'a>(
    a: &'a Bitset,
    b: Option<&'a Bitset>,
    range: Range<usize>,
) -> impl Iterator<Item = usize> + 'a {
    let words = range.start / 64..range.end.div_ceil(64);
    words
        .flat_map(move |w| {
            let mut word = a.words[w] & b.map_or(u64::MAX, |b| b.words[w]);
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| word.trailing_zeros() as usize)?;
                word &= word - 1;
                Some(w * 64 + bit)
            })
        })
        .filter(move |i| range.contains(i))
}

/// What a witness scan looks for in the rows of its states.
#[derive(Clone, Copy)]
enum Seek<'a> {
    /// A transition to a state outside the set.
    Exit(&'a Bitset),
    /// A state where the scan's one action has no transition.
    Disabled,
}

/// The one witness scan, over the states of `from` (and `assuming`, when
/// given) in id order: among the transitions `seek` looks for — by action
/// `only`, when given — the one with the lowest action, then the lowest
/// state. A [`Seek::Disabled`] hit is the state where `only` has no
/// transition, reported with `after == before`.
fn first_violation<R: RowSource>(
    source: &R,
    from: &Bitset,
    assuming: Option<&Bitset>,
    seek: Seek<'_>,
    only: Option<ActionId>,
    opts: CheckOptions,
) -> Result<Option<Violation>, CheckError> {
    let len = source.index().len();
    let (plan, workers) = (opts.segment_plan(len), opts.workers_for(len));
    // Actions `floor..limit` can still beat the best hit so far; a hit by
    // `floor` itself cannot be beaten.
    let (floor, limit) = only.map_or((0, usize::MAX), |a| (a.index(), a.index() + 1));
    let scan = |ti: usize| -> Result<Option<(ActionId, usize, StateId)>, CheckError> {
        let range = plan.range(ti);
        let mut rows = source.rows();
        let (mut limit, mut best) = (limit, None);
        for i in members(from, assuming, range) {
            if limit == floor {
                break;
            }
            let row = rows.row(StateId::from_index(i))?;
            match seek {
                Seek::Exit(target) => {
                    for (a, succ) in row {
                        if (floor..limit).contains(&a.index()) && !target.contains(succ) {
                            limit = a.index();
                            best = Some((a, i, succ));
                        }
                    }
                }
                Seek::Disabled => {
                    if !row.iter().any(|(a, _)| a.index() == floor) {
                        limit = floor;
                        best = Some((ActionId::from_index(floor), i, StateId::from_index(i)));
                    }
                }
            }
        }
        Ok(best)
    };
    let best = if only.is_some() {
        // Every hit is by the one action, so the lowest segment's hit is
        // the witness and later segments need not be scanned.
        steal_find(plan.count(), workers, |ti| scan(ti).transpose())?.transpose()?
    } else {
        // Segments come in id order, so on equal actions the earlier one
        // wins.
        let mut best: Option<(ActionId, usize, StateId)> = None;
        for hit in steal_tasks(plan.count(), workers, scan)? {
            if let Some(h) = hit? {
                if best.is_none_or(|b| h.0 < b.0) {
                    best = Some(h);
                }
            }
        }
        best
    };
    let index = source.index();
    Ok(best.map(|(action, i, succ)| Violation {
        action,
        before: index.state(StateId::from_index(i)),
        after: index.state(succ),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::successors::Decoder;
    use nonmask_program::Domain;

    /// [`preserves_given_bits`] over the predicates themselves.
    fn preserves(
        space: &StateSpace,
        action: ActionId,
        pred: &Predicate,
        assuming: &Predicate,
    ) -> Option<Violation> {
        let opts = CheckOptions::serial();
        let [pred, assuming] = Bitset::for_predicates(space.index(), &[pred, assuming], opts)
            .unwrap()
            .try_into()
            .unwrap();
        preserves_given_bits(space, action, &pred, &assuming, opts).unwrap()
    }

    /// x, y in 0..=3; action `copy` sets y := x; action `bump` increments x
    /// (wrapping).
    fn program() -> Program {
        let mut b = Program::builder("p");
        let x = b.var("x", Domain::range(0, 3));
        let y = b.var("y", Domain::range(0, 3));
        b.closure_action(
            "copy",
            [x, y],
            [y],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(y, v);
            },
        );
        b.closure_action(
            "bump",
            [x],
            [x],
            |_| true,
            move |s| {
                let v = s.get(x);
                s.set(x, (v + 1) % 4);
            },
        );
        b.build()
    }

    #[test]
    fn copy_preserves_equality_bump_does_not() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
        let copy = p.action_ids().next().unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        let all = Predicate::always_true();
        assert!(preserves(&space, copy, &eq, &all).is_none());
        let v = preserves(&space, bump, &eq, &all).expect("bump breaks x=y");
        assert_eq!(v.action, bump);
        assert!(eq.holds(&v.before));
        assert!(!eq.holds(&v.after));
        assert!(v.render(&p).contains("bump"));
    }

    #[test]
    fn closure_of_trivial_predicates() {
        let p = program();
        let space = StateSpace::enumerate(&p).unwrap();
        assert!(is_closed(&space, &Predicate::always_true())
            .unwrap()
            .is_none());
        // `false` is vacuously closed: it never holds before execution.
        assert!(is_closed(&space, &Predicate::always_false())
            .unwrap()
            .is_none());
    }

    #[test]
    fn is_closed_finds_any_violator() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let x0 = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let v = is_closed(&space, &x0).unwrap().expect("bump violates x=0");
        assert_eq!(p.action(v.action).name(), "bump");
    }

    #[test]
    fn conditional_preservation() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let bump = p.action_ids().nth(1).unwrap();

        // bump does not preserve y<=x in general (x wraps 3 -> 0) …
        let le = Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x));
        assert!(preserves(&space, bump, &le, &Predicate::always_true()).is_some());
        // … but it does when assuming x<3 (no wrap happens).
        let small = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        assert!(preserves(&space, bump, &le, &small).is_none());
    }

    #[test]
    fn guard_restriction_matters() {
        // An action whose effect would break the predicate, but whose guard
        // never lets it run in predicate states, preserves the predicate.
        let mut b = Program::builder("g");
        let x = b.var("x", Domain::range(0, 3));
        b.closure_action(
            "wreck",
            [x],
            [x],
            move |s| s.get(x) > 1,
            move |s| s.set(x, 3),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let small = Predicate::new("x<=1", [x], move |s| s.get(x) <= 1);
        let a = p.action_ids().next().unwrap();
        assert!(preserves(&space, a, &small, &Predicate::always_true()).is_none());
    }

    #[test]
    fn parallel_violation_matches_serial() {
        // A large space with many violations: every worker count must
        // report the sequentially-first witness.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let a = p.action_ids().next().unwrap();
        // "x is even" is broken at every even x < 9999.
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::serial()).unwrap();
        let everywhere = Bitset::ones(space.len());
        let serial = preserves_given_bits(&space, a, &bits, &everywhere, CheckOptions::serial())
            .unwrap()
            .unwrap();
        assert_eq!(serial.before.slots()[0], 0, "lowest-id witness");
        for threads in [2, 4, 8] {
            let par = preserves_given_bits(
                &space,
                a,
                &bits,
                &everywhere,
                CheckOptions::default().threads(threads),
            )
            .unwrap()
            .unwrap();
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn decoded_closure_matches_resident_verdict() {
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let decoded = Decoder::new(&p, space.index());
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let bits = Bitset::for_predicate(&space, &even, CheckOptions::default()).unwrap();
        // Broken at every even x: the decoded sweep must report the
        // lowest-id witness for every thread count and segment size.
        for threads in [1, 2, 8] {
            for seg in [512, 1000, 4097] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let v = is_closed_bits(&decoded, &bits, opts)
                    .unwrap()
                    .expect("inc breaks evenness");
                assert_eq!(v.before.slots()[0], 0, "threads={threads} seg={seg}");
                assert_eq!(v.after.slots()[0], 1);
                assert_eq!(Some(v), is_closed_bits(&space, &bits, opts).unwrap());
            }
        }
        // A closed predicate passes.
        let all = Bitset::ones(space.len());
        assert!(is_closed_bits(&decoded, &all, CheckOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn breaking_actions_marks_every_violator() {
        let p = program();
        let x = p.var_by_name("x").unwrap();
        let y = p.var_by_name("y").unwrap();
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let eq = Predicate::new("x=y", [x, y], move |s| s.get(x) == s.get(y));
        let le = Predicate::new("y<=x", [x, y], move |s| s.get(y) <= s.get(x));
        let small = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        let [eq, le, small] = Bitset::for_predicates(space.index(), &[&eq, &le, &small], opts)
            .unwrap()
            .try_into()
            .unwrap();
        // Bit 0: x=y, bit 1: y<=x, bit 2: x<3.
        let masks = MaskColumn::pack(&[&eq, &le, &small], opts).unwrap();
        let all = Bitset::ones(space.len());
        // The sweep without the repair work finds the same `broken`.
        let sweep = |assuming: &Bitset| {
            let found = breaking_actions(&space, &[0, 0], &masks, assuming, opts);
            let broken = broken_actions(&space, 2, &masks, assuming, opts).unwrap();
            assert_eq!(broken, found.as_ref().unwrap().broken);
            found
        };
        // copy keeps all three; bump breaks x=y, y<=x (3 -> 0 wraps) and
        // x<3 (2 -> 3). copy leads outside x<3 only from x=3, where it
        // did not hold; bump leads outside all three. No repair is
        // mapped, so none is unguarded.
        let found = sweep(&all).unwrap();
        assert_eq!(found.broken, [0b000, 0b111]);
        assert_eq!(found.leaves, [0b100, 0b111]);
        assert_eq!(found.unguarded, 0);
        // Assuming x<3 rules out the wrap, so bump keeps y<=x there, but it
        // still leads outside it from states where it did not hold.
        let found = sweep(&small).unwrap();
        assert_eq!(found.broken, [0b000, 0b101]);
        assert_eq!(found.leaves, [0b000, 0b111]);
        // An empty assumption leaves nothing to break.
        let none = Bitset::zeros(space.len());
        let found = sweep(&none).unwrap();
        assert_eq!((found.broken, found.leaves), (vec![0, 0], vec![0, 0]));
    }

    /// Per repair, its unguarded and its non-establishing witness.
    type Witnesses = Vec<(Option<State>, Option<Violation>)>;

    /// The repair obligations read off one sweep, and their witnesses.
    fn repairs_of(
        source: &impl RowSource,
        repairs: &[(ActionId, &Bitset)],
        t: &Bitset,
        opts: CheckOptions,
    ) -> (Breaks, Witnesses) {
        let preds: Vec<&Bitset> = repairs.iter().map(|&(_, c)| c).collect();
        let masks = MaskColumn::pack(&preds, opts).unwrap();
        let actions = repairs
            .iter()
            .map(|(a, _)| a.index() + 1)
            .max()
            .unwrap_or(0);
        let mut slots = vec![0; actions];
        for (j, (a, _)) in repairs.iter().enumerate() {
            slots[a.index()] |= 1 << j;
        }
        let found = breaking_actions(source, &slots, &masks, t, opts).unwrap();
        let witnesses = repairs
            .iter()
            .enumerate()
            .map(|(j, &(a, c))| {
                let unguarded = (found.unguarded >> j & 1 == 1).then(|| {
                    first_disabled(source, a, &t.and(&c.not()), opts)
                        .unwrap()
                        .expect("a witness")
                });
                let leaving = (found.leaves[a.index()] >> j & 1 == 1).then(|| {
                    first_leaving(source, a, t, c, opts)
                        .unwrap()
                        .expect("a witness")
                });
                (unguarded, leaving)
            })
            .collect();
        (found, witnesses)
    }

    #[test]
    fn repair_obligations_report_the_lowest_witnesses() {
        // `fix` repairs x=0 only from x=1, and sends x=3 to x=2.
        let mut b = Program::builder("repair");
        let x = b.var("x", Domain::range(0, 3));
        let fix = b.convergence_action(
            "fix",
            [x],
            [x],
            move |s| s.get(x) % 2 == 1,
            move |s| {
                let v = s.get(x);
                s.set(x, if v == 1 { 0 } else { 2 });
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let opts = CheckOptions::serial();
        let zero = Predicate::new("x=0", [x], move |s| s.get(x) == 0);
        let below3 = Predicate::new("x<3", [x], move |s| s.get(x) < 3);
        let [zero, below3] = Bitset::for_predicates(space.index(), &[&zero, &below3], opts)
            .unwrap()
            .try_into()
            .unwrap();
        let t = Bitset::ones(space.len());
        let (_, found) = repairs_of(&space, &[(fix, &zero)], &t, opts);
        assert_eq!(
            found,
            [(
                // x=2 violates x=0 and disables fix.
                Some(State::new(vec![2])),
                Some(Violation {
                    action: fix,
                    before: State::new(vec![3]),
                    after: State::new(vec![2]),
                }),
            )]
        );
        // x<3 is violated only at x=3, where fix runs and establishes it.
        let (_, found) = repairs_of(&space, &[(fix, &below3)], &t, opts);
        assert_eq!(found, [(None, None)]);
        // Outside T nothing is checked.
        let empty = Bitset::zeros(space.len());
        let (_, found) = repairs_of(&space, &[(fix, &zero)], &empty, opts);
        assert_eq!(found, [(None, None)]);
    }

    #[test]
    fn repair_obligations_agree_across_sources_and_threads() {
        // x in 0..=9999; `halve` (enabled on odd x) and `top` (enabled on
        // x > 9000) repair "x is even" and "x <= 9000".
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        let halve = b.convergence_action(
            "halve",
            [x],
            [x],
            move |s| s.get(x) % 2 == 1 && s.get(x) != 4097,
            move |s| {
                let v = s.get(x);
                s.set(x, v / 2);
            },
        );
        let top = b.convergence_action(
            "top",
            [x],
            [x],
            move |s| s.get(x) > 9000 && s.get(x) != 9500,
            move |s| s.set(x, 9000),
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let even = Predicate::new("even", [x], move |s| s.get(x) % 2 == 0);
        let low = Predicate::new("low", [x], move |s| s.get(x) <= 9000);
        let caches =
            Bitset::for_predicates(space.index(), &[&even, &low], CheckOptions::serial()).unwrap();
        let t = Bitset::ones(space.len());
        let repairs = [(halve, &caches[0]), (top, &caches[1])];
        let serial = repairs_of(&space, &repairs, &t, CheckOptions::serial());
        // 4097 is odd and disabled; 3 halves to the odd 1; 9500 is stuck.
        let (words, witnesses) = &serial;
        assert_eq!(
            (words.unguarded, &words.leaves[..]),
            (0b11, &[0b01, 0b00][..])
        );
        assert_eq!(witnesses[0].0, Some(State::new(vec![4097])));
        let v = witnesses[0].1.as_ref().unwrap();
        assert_eq!((v.before.slots(), v.after.slots()), (&[3][..], &[1][..]));
        assert_eq!(witnesses[1], (Some(State::new(vec![9500])), None));
        let decoded = Decoder::new(&p, space.index());
        for threads in [1, 2, 8] {
            for seg in [0, 512, 1000, 4097] {
                let opts = CheckOptions::default().threads(threads).segment_states(seg);
                let got = repairs_of(&space, &repairs, &t, opts);
                assert_eq!(got, serial, "threads={threads} seg={seg}");
                let got = repairs_of(&decoded, &repairs, &t, opts);
                assert_eq!(got, serial, "decoded threads={threads} seg={seg}");
                let masks = MaskColumn::pack(&[&caches[0], &caches[1]], opts).unwrap();
                let broken = broken_actions(&decoded, 2, &masks, &caches[1], opts).unwrap();
                let slots = [0b01, 0b10];
                let found = breaking_actions(&space, &slots, &masks, &caches[1], opts).unwrap();
                assert_eq!(broken, found.broken, "threads={threads} seg={seg}");
            }
        }
    }

    #[test]
    fn poisoned_predicate_surfaces_as_worker_failed() {
        // A predicate that panics mid-scan must produce a typed error from
        // the public API, on both the serial and the threaded path.
        let mut b = Program::builder("big");
        let x = b.var("x", Domain::range(0, 9999));
        b.closure_action(
            "inc",
            [x],
            [x],
            move |s| s.get(x) < 9999,
            move |s| {
                let v = s.get(x);
                s.set(x, v + 1);
            },
        );
        let p = b.build();
        let space = StateSpace::enumerate(&p).unwrap();
        let poisoned = Predicate::new("poisoned", [x], move |s| {
            if s.get(x) == 7777 {
                panic!("predicate poisoned at x=7777");
            }
            true
        });
        let err = is_closed(&space, &poisoned).unwrap_err();
        assert!(
            matches!(err, CheckError::WorkerFailed { ref payload }
                if payload.contains("poisoned at x=7777")),
            "got {err:?}"
        );
        // Small spaces run the scan on the calling thread; the panic must
        // still be caught, not unwind through the caller.
        let mut b = Program::builder("small");
        let y = b.var("y", Domain::range(0, 3));
        let small = b.build();
        let small_space = StateSpace::enumerate(&small).unwrap();
        let always_panics = Predicate::new("boom", [y], |_| panic!("always boom"));
        let err = is_closed(&small_space, &always_panics).unwrap_err();
        assert!(matches!(err, CheckError::WorkerFailed { .. }));
    }
}
